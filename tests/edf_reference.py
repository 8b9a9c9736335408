"""Reference sub-problem objective: the per-task EDF queue loop that the
vectorized kernel (``_SubsetContext.objectives``) replaced.  It walks the
subset's tasks in EDF order (deadline, then task id) and keeps one running
busy time per node, so queue waits and busy times are plain sequential sums.
The kernel must match it bit for bit."""

import numpy as np

from fogsched.metrics import Evaluator


def reference_objectives(instance, task_ids, node_idx):
    """(response_total, response_max, dv_total, energy_total) of mapping
    ``task_ids`` onto ``node_idx`` (node indices in topology order), one
    genome."""
    ev = Evaluator(instance)
    position = {t.id: k for k, t in enumerate(instance.tasks)}
    idx = np.array([position[t] for t in task_ids], dtype=np.intp)
    node_idx = np.asarray(node_idx, dtype=np.intp)
    gateway = ev.gateway[idx]
    deadline = ev.deadline[idx]
    edf_order = np.lexsort((np.array(task_ids), deadline))

    execution = ev.length[idx] / ev.mips[node_idx] * 1000.0
    prop = ev.path_prop[gateway, node_idx]
    bw = ev.path_bw[gateway, node_idx]
    transmission = np.where(np.isinf(bw), 0.0, ev.data_size[idx] / bw)

    queue = np.zeros(len(execution))
    busy = np.zeros(ev.m)
    for k in edf_order:
        j = node_idx[k]
        queue[k] = busy[j]
        busy[j] += execution[k]

    response = prop + transmission + execution + queue
    response_total = float(response.sum())
    response_max = float(response.max()) if len(response) else 0.0
    dv_total = float(np.maximum(0.0, response - deadline).sum())
    horizon = response_max
    energy_total = float(
        (
            ev.alpha * ev.active_power * busy
            + ev.beta * ev.idle_power * (horizon - busy)
        ).sum()
        / 1000.0
    )
    return response_total, response_max, dv_total, energy_total
