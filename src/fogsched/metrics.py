"""Metric models: per-task response breakdown, deadline violation, node and
system energy, and the scalar fitness shared by every optimizer.

All evaluations are pure functions of (instance, assignment) and may run
concurrently against one shared instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Assignment, Instance

__all__ = [
    "ResponseBreakdown",
    "MetricsReport",
    "FitnessWeights",
    "Evaluator",
    "response_breakdown",
    "deadline_violation",
    "total_deadline_violation",
    "node_energy",
    "total_energy",
    "fitness",
    "evaluate",
    "calibrate_weights",
]


@dataclass(frozen=True)
class ResponseBreakdown:
    """One task's response-time decomposition; response is the exact sum of
    the four components."""

    task_id: int
    propagation: float
    transmission: float
    execution: float
    queue_wait: float
    response: float


@dataclass(frozen=True)
class MetricsReport:
    per_task: tuple
    dv_per_task: tuple
    dv_total: float
    energy_per_node: tuple  # (node_id, joules) pairs
    energy_total: float
    fitness: float
    response_total: float
    response_max: float

    def csv_row(self) -> dict:
        return {
            "dv_total": self.dv_total,
            "energy_total": self.energy_total,
            "response_total": self.response_total,
            "fitness": self.fitness,
        }

    def to_json(self) -> str:
        doc = {
            "dv_total": self.dv_total,
            "energy_total": self.energy_total,
            "response_total": self.response_total,
            "response_max": self.response_max,
            "fitness": self.fitness,
            "energy_per_node": [
                {"node_id": nid, "energy": e} for nid, e in self.energy_per_node
            ],
            "per_task": [
                {
                    "task_id": b.task_id,
                    "propagation": b.propagation,
                    "transmission": b.transmission,
                    "execution": b.execution,
                    "queue_wait": b.queue_wait,
                    "response": b.response,
                    "deadline_violation": dv,
                }
                for b, dv in zip(self.per_task, self.dv_per_task)
            ],
        }
        return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class FitnessWeights:
    """Weights and reference scales for the three fitness terms; lower
    fitness is better."""

    w_response: float = 1.0
    w_deadline: float = 1.0
    w_energy: float = 1.0
    norm_response: float = 1.0
    norm_deadline: float = 1.0
    norm_energy: float = 1.0

    def __post_init__(self):
        for name in ("w_response", "w_deadline", "w_energy"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")
        for name in ("norm_response", "norm_deadline", "norm_energy"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.w_response == self.w_deadline == self.w_energy == 0:
            raise ValueError("at least one weight must be positive")

    def combine(self, response_total: float, dv_total: float, energy_total: float) -> float:
        return (
            self.w_response * (response_total / self.norm_response)
            + self.w_deadline * (dv_total / self.norm_deadline)
            + self.w_energy * (energy_total / self.norm_energy)
        )


class Evaluator:
    """Precomputed routing and node/task arrays for evaluating many
    assignments against one instance.

    ``report`` evaluates one full assignment with per-task detail.
    ``subset_context`` freezes a task subset for the optimizers, whose
    ``objectives`` kernel scores one genome (an ``(n,)`` array of node
    indices) or a whole flock (a ``(pop, n)`` matrix) per call.

    Routing is hop-count shortest path from each task's gateway to its node,
    computed once by breadth-first search with sorted-neighbor tie-breaks so
    path metrics are deterministic.

    The evaluator keeps no reference to its instance, so an instance that
    caches its evaluator (``_evaluator``) forms no reference cycle and is
    freed, fitness caches included, as soon as its last user drops it.
    """

    def __init__(self, instance: Instance):
        nodes = instance.topology.nodes
        self._nodes = {n.id: n for n in nodes}
        self.m = len(nodes)
        self._node_index = {n.id: k for k, n in enumerate(nodes)}
        self._node_ids = [n.id for n in nodes]

        self.mips = np.array([n.mips for n in nodes])
        self.active_power = np.array([n.active_power for n in nodes])
        self.idle_power = np.array([n.idle_power for n in nodes])
        self.alpha = np.array([n.alpha for n in nodes])
        self.beta = np.array([n.beta for n in nodes])

        tasks = instance.tasks
        self.n = len(tasks)
        self._task_index = {t.id: k for k, t in enumerate(tasks)}
        self._deadlines = {t.id: t.deadline for t in tasks}
        self.length = np.array([t.length for t in tasks])
        self.data_size = np.array([t.data_size for t in tasks])
        self.deadline = np.array([t.deadline for t in tasks])
        self.gateway = np.array(
            [self._node_index[instance.gateway_of(t)] for t in tasks], dtype=np.intp
        )

        self.path_prop, self.path_bw = self._route_all_pairs(instance.topology.links)

    def _route_all_pairs(self, links):
        adjacency = {k: [] for k in range(self.m)}
        for link in links:
            a = self._node_index.get(link.endpoints[0])
            b = self._node_index.get(link.endpoints[1])
            if a is None or b is None:
                continue
            adjacency[a].append((b, link.propagation_delay, link.bandwidth))
            adjacency[b].append((a, link.propagation_delay, link.bandwidth))
        for k in adjacency:
            adjacency[k].sort(key=lambda e: e[0])

        prop = np.full((self.m, self.m), np.inf)
        bw = np.full((self.m, self.m), np.inf)
        for src in range(self.m):
            prop[src, src] = 0.0
            frontier = [src]
            seen = {src}
            while frontier:
                nxt = []
                for u in frontier:
                    for v, p, b in adjacency[u]:
                        if v in seen:
                            continue
                        seen.add(v)
                        prop[src, v] = prop[src, u] + p
                        bw[src, v] = min(bw[src, u], b)
                        nxt.append(v)
                frontier = nxt
        return prop, bw

    def node_index(self, node_id: int) -> int:
        return self._node_index[node_id]

    def breakdowns(self, assignment: Assignment) -> list:
        """ResponseBreakdown for every task the assignment covers, in task-id
        order."""
        results = {}
        for node_id, sequence in assignment.order.items():
            j = self._node_index[node_id]
            busy = 0.0
            for task_id in sequence:
                i = self._task_index[task_id]
                g = self.gateway[i]
                execution = self.length[i] / self.mips[j] * 1000.0
                prop = float(self.path_prop[g, j])
                if math.isinf(prop):
                    raise ValueError(
                        f"no route from gateway of task {task_id} to node {node_id}"
                    )
                bw = self.path_bw[g, j]
                transmission = 0.0 if math.isinf(bw) else float(self.data_size[i] / bw)
                breakdown = ResponseBreakdown(
                    task_id=task_id,
                    propagation=prop,
                    transmission=transmission,
                    execution=float(execution),
                    queue_wait=busy,
                    response=float(prop + transmission + execution + busy),
                )
                results[task_id] = breakdown
                busy += execution
        return [results[t] for t in sorted(results)]

    def report(self, assignment: Assignment, weights: FitnessWeights) -> MetricsReport:
        per_task = self.breakdowns(assignment)
        dv_per_task = tuple(
            max(0.0, b.response - self._deadlines[b.task_id])
            for b in per_task
        )
        dv_total = 0.0
        for dv in dv_per_task:
            dv_total += dv
        response_total = 0.0
        response_max = 0.0
        for b in per_task:
            response_total += b.response
            response_max = max(response_max, b.response)

        horizon = response_max  # global makespan; idle-energy window
        busy = self.busy_by_node(assignment, per_task)
        energy_per_node = []
        energy_total = 0.0
        for nid in self._node_ids:
            e = self._node_energy(nid, busy[nid], horizon)
            energy_per_node.append((nid, e))
            energy_total += e

        fit = weights.combine(response_total, dv_total, energy_total)
        return MetricsReport(
            per_task=tuple(per_task),
            dv_per_task=dv_per_task,
            dv_total=dv_total,
            energy_per_node=tuple(energy_per_node),
            energy_total=energy_total,
            fitness=fit,
            response_total=response_total,
            response_max=response_max,
        )

    def busy_by_node(self, assignment: Assignment, per_task=None) -> dict:
        """Node id -> summed execution time of its tasks, added in task-id
        order; ``per_task`` reuses breakdowns the caller already has."""
        if per_task is None:
            per_task = self.breakdowns(assignment)
        busy = {nid: 0.0 for nid in self._node_ids}
        for b in per_task:
            busy[assignment.mapping[b.task_id]] += b.execution
        return busy

    def _node_energy(self, node_id: int, busy_ms: float, horizon: float) -> float:
        if horizon < busy_ms - 1e-9:
            raise ValueError(
                f"horizon {horizon} ms shorter than node {node_id} busy time {busy_ms} ms"
            )
        node = self._nodes[node_id]
        idle_ms = max(0.0, horizon - busy_ms)
        return (
            node.alpha * node.active_power * busy_ms / 1000.0
            + node.beta * node.idle_power * idle_ms / 1000.0
        )

    # ------------------------------------------------------------------
    # Vectorized sub-problem objective used inside optimizer loops.

    def subset_context(self, task_ids: Sequence[int]):
        """Freeze a task subset for repeated evaluation: its EDF visit order
        (deadline, then task id) and, in that order, every task's execution
        time and network delay (propagation plus transmission) on every
        node, as ``(n, m)`` tables.  ``objectives`` of the returned context
        is the one evaluation kernel of the optimizers."""
        idx = np.array([self._task_index[t] for t in task_ids], dtype=np.intp)
        edf = np.lexsort((np.array(task_ids), self.deadline[idx]))
        visit = idx[edf]
        bw = self.path_bw[self.gateway[visit]]
        transmission = np.where(np.isinf(bw), 0.0, self.data_size[visit, None] / bw)
        return _SubsetContext(
            edf_order=edf,
            restore=np.argsort(edf),
            cell_offset=np.arange(len(idx)) * self.m,
            execution=self.length[visit, None] / self.mips * 1000.0,
            delay=self.path_prop[self.gateway[visit]] + transmission,
            deadline=self.deadline[idx],
            active=self.alpha * self.active_power,
            idle=self.beta * self.idle_power,
        )


@dataclass
class _SubsetContext:
    edf_order: np.ndarray  # subset positions in EDF visit order
    restore: np.ndarray  # inverse permutation of edf_order
    cell_offset: np.ndarray  # row offsets into the flattened (n, m) tables
    execution: np.ndarray  # (n, m) in EDF order, ms
    delay: np.ndarray  # (n, m) in EDF order: propagation + transmission, ms
    deadline: np.ndarray  # (n,) in subset order, ms
    active: np.ndarray  # (m,) alpha * active power
    idle: np.ndarray  # (m,) beta * idle power

    def objectives(self, node_idx: np.ndarray):
        """(response_total, response_max, dv_total, energy_total) of mapping
        the subset's tasks onto ``node_idx`` (node array indices, one per
        task in subset order).

        ``node_idx`` of shape ``(n,)`` returns four floats; a ``(pop, n)``
        matrix returns four length-``pop`` arrays, row for row equal to the
        single-genome results.

        Every node serves its tasks non-preemptively in EDF order.  Each
        genome's tasks are grouped by node in that order and their execution
        times scattered into a zero-padded ``(pop * m, width)`` matrix, one
        row per (genome, node), one slot per queue position, behind a
        leading zero column.  A row-wise prefix sum (``cumsum``) adds left to
        right, as a sequential ``busy += execution`` does, and adding a
        padding zero changes no sum, so a task's queue wait is the prefix one slot
        before its own and a node's busy time is the row's last value.
        Every total is then reduced per genome along a contiguous row in
        subset (task) order and node order, so batched and single results
        are bit-identical.
        """
        node_idx = np.asarray(node_idx)
        nodes = node_idx.take(self.edf_order, axis=-1)  # EDF order
        shape = nodes.shape
        rows = shape[0] if nodes.ndim == 2 else 1
        m = len(self.active)
        cell = nodes + self.cell_offset
        execution = self.execution.take(cell)

        # one lane per (genome, node), numbered genome * m + node; a stable
        # sort groups each lane's tasks and keeps their EDF order (small
        # keys sort by radix)
        key = nodes.reshape(-1)
        if rows > 1:
            key = (nodes + np.arange(0, rows * m, m)[:, None]).ravel()
        counts = np.bincount(key, minlength=rows * m)
        order = key.astype(np.min_scalar_type(rows * m)).argsort(kind="stable")
        lane = key[order]
        start = np.add.accumulate(counts) - counts  # each lane's first entry in order
        width = int(np.maximum.reduce(counts)) + 1
        slot = lane * width + (np.arange(key.size) - start[lane])
        lanes = np.zeros((rows * m, width))
        flat = lanes.reshape(-1)
        flat[slot + 1] = execution.take(order)
        np.add.accumulate(lanes, axis=1, out=lanes)
        queue = np.empty(key.size)
        queue[order] = flat[slot]
        busy = lanes[:, -1].reshape(shape[:-1] + (m,))

        response = self.delay.take(cell) + execution + queue.reshape(shape)
        response = response.take(self.restore, axis=-1)  # subset order, contiguous rows
        response_total = np.add.reduce(response, axis=-1)
        response_max = np.maximum.reduce(response, axis=-1, initial=0.0)
        violation = np.subtract(response, self.deadline)
        dv_total = np.add.reduce(np.maximum(0.0, violation, out=violation), axis=-1)
        idle_ms = np.subtract(response_max[..., None], busy)
        energy_total = np.add.reduce(self.active * busy + self.idle * idle_ms, axis=-1) / 1000.0
        if node_idx.ndim == 1:
            return float(response_total), float(response_max), float(dv_total), float(energy_total)
        return response_total, response_max, dv_total, energy_total

    def fitness(self, node_idx: np.ndarray, weights: FitnessWeights):
        """Scalar fitness of one genome, or a fitness array of a matrix."""
        r, _, dv, e = self.objectives(node_idx)
        return weights.combine(r, dv, e)


# ---------------------------------------------------------------------------
# Operation-level API


def response_breakdown(instance: Instance, assignment: Assignment, task_id: int) -> ResponseBreakdown:
    if task_id not in assignment.mapping:
        raise KeyError(f"unknown task id {task_id}")
    node_id = assignment.mapping[task_id]
    if node_id not in {n.id for n in instance.topology.nodes}:
        raise KeyError(f"task {task_id} assigned to nonexistent node {node_id}")
    for b in _evaluator(instance).breakdowns(assignment):
        if b.task_id == task_id:
            return b
    raise KeyError(f"unknown task id {task_id}")


def deadline_violation(breakdown: ResponseBreakdown, deadline: float) -> float:
    if deadline <= 0:
        raise ValueError("deadline must be > 0")
    return max(0.0, breakdown.response - deadline)


def total_deadline_violation(instance: Instance, assignment: Assignment) -> float:
    total = 0.0
    for b in _evaluator(instance).breakdowns(assignment):
        total += deadline_violation(b, instance.task(b.task_id).deadline)
    return total


def node_energy(instance: Instance, assignment: Assignment, node_id: int, horizon: float) -> float:
    ev = _evaluator(instance)
    return ev._node_energy(node_id, ev.busy_by_node(assignment)[node_id], horizon)


def total_energy(instance: Instance, assignment: Assignment, horizon: float) -> float:
    ev = _evaluator(instance)
    busy = ev.busy_by_node(assignment)
    total = 0.0
    for node in instance.topology.nodes:
        total += ev._node_energy(node.id, busy[node.id], horizon)
    return total


def fitness(instance: Instance, assignment: Assignment, weights: FitnessWeights) -> float:
    return evaluate(instance, assignment, weights).fitness


def evaluate(instance: Instance, assignment: Assignment, weights: FitnessWeights) -> MetricsReport:
    return _evaluator(instance).report(assignment, weights)


def _evaluator(instance: Instance) -> Evaluator:
    cached = getattr(instance, "_evaluator_cache", None)
    if cached is None:
        cached = Evaluator(instance)
        instance._evaluator_cache = cached
    return cached


def calibrate_weights(
    instance: Instance,
    w_response: float = 1.0,
    w_deadline: float = 1.0,
    w_energy: float = 1.0,
    seed: int = 0,
) -> FitnessWeights:
    """Normalize each fitness term by its value under a seeded random
    assignment, so the three terms are commensurate on this instance."""
    rng = np.random.default_rng(seed)
    node_ids = [n.id for n in instance.topology.nodes]
    mapping = {
        t.id: node_ids[int(rng.integers(0, len(node_ids)))] for t in instance.tasks
    }
    from .model import build_assignment

    report = evaluate(instance, build_assignment(instance.tasks, mapping), FitnessWeights())
    return FitnessWeights(
        w_response=w_response,
        w_deadline=w_deadline,
        w_energy=w_energy,
        norm_response=report.response_total if report.response_total > 0 else 1.0,
        norm_deadline=report.dv_total if report.dv_total > 0 else 1.0,
        norm_energy=report.energy_total if report.energy_total > 0 else 1.0,
    )
