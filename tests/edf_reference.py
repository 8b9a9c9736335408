"""Reference sub-problem objective: the per-task EDF queue loop that the
vectorized kernel (``_SubsetContext.objectives``) replaced.  It walks the
subset's tasks in EDF order (deadline, then task id) and keeps one running
busy time per node, so queue waits and busy times are plain sequential sums.
Its costs come from the instance's tasks and nodes and the oracle's routing,
not from the ``Evaluator`` under test.  The kernel must match it bit for
bit."""

import numpy as np

from oracle import _routes


def reference_objectives(instance, task_ids, node_idx):
    """(response_total, response_max, dv_total, energy_total) of mapping
    ``task_ids`` onto ``node_idx`` (node indices in topology order), one
    genome."""
    routes = _routes(instance)
    nodes = instance.topology.nodes
    tasks = [instance.task(t) for t in task_ids]
    placed = [nodes[j] for j in node_idx]
    deadline = np.array([t.deadline for t in tasks])
    edf_order = np.lexsort((np.array(task_ids), deadline))

    execution = np.array([t.length / node.mips * 1000.0 for t, node in zip(tasks, placed)])
    prop = np.empty(len(tasks))
    transmission = np.empty(len(tasks))
    for k, (task, node) in enumerate(zip(tasks, placed)):
        prop[k], bw = routes[(instance.gateway_of(task), node.id)]
        transmission[k] = 0.0 if bw == float("inf") else task.data_size / bw

    queue = np.zeros(len(execution))
    busy = np.zeros(len(nodes))
    for k in edf_order:
        j = node_idx[k]
        queue[k] = busy[j]
        busy[j] += execution[k]

    response = prop + transmission + execution + queue
    response_total = float(response.sum())
    response_max = float(response.max()) if len(response) else 0.0
    dv_total = float(np.maximum(0.0, response - deadline).sum())
    horizon = response_max
    active = np.array([n.alpha * n.active_power for n in nodes])
    idle = np.array([n.beta * n.idle_power for n in nodes])
    energy_total = float((active * busy + idle * (horizon - busy)).sum() / 1000.0)
    return response_total, response_max, dv_total, energy_total
