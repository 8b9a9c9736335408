"""Control baselines: uniform random placement and deadline-ordered greedy
placement by incremental completion time."""

from __future__ import annotations

import numpy as np

from .metrics import FitnessWeights, _evaluator, _random_assignment, evaluate
from .model import Instance, build_assignment

__all__ = ["baseline_random", "baseline_greedy"]


def baseline_random(instance: Instance, seed: int, weights: FitnessWeights) -> tuple:
    """``_random_assignment(instance, seed)``, the draw
    ``calibrate_weights(seed=seed)`` normalizes by, so RANDOM's fitness is
    the weight sum and only its three term columns carry information."""
    assignment = _random_assignment(instance, seed)
    return assignment, evaluate(instance, assignment, weights).fitness


def baseline_greedy(instance: Instance, weights: FitnessWeights) -> tuple:
    """Tasks in earliest-deadline order, each placed on the node giving it
    the smallest completion time under the queues built so far."""
    ev = _evaluator(instance)
    node_ids = sorted(n.id for n in instance.topology.nodes)
    node_idx = np.array([ev.node_index(nid) for nid in node_ids], dtype=np.intp)
    busy = np.zeros(len(node_ids))

    mapping = {}
    rows = sorted(enumerate(instance.tasks), key=lambda row: (row[1].deadline, row[1].id))
    for i, task in rows:
        execution = ev.execution[i, node_idx]
        completion = ev.propagation[i, node_idx] + ev.transmission[i, node_idx] + execution + busy
        best = int(np.argmin(completion))  # argmin ties favor lower node id
        mapping[task.id] = node_ids[best]
        busy[best] += execution[best]

    assignment = build_assignment(instance.tasks, mapping)
    return assignment, evaluate(instance, assignment, weights).fitness
