"""Metric models: per-task response breakdown, deadline violation, node and
system energy, and the scalar fitness shared by every optimizer.

The cost model is built once, as the tables of ``Evaluator``; the report,
the optimizers' kernel and the greedy baseline all read them.

All evaluations are pure functions of (instance, assignment) and may run
concurrently against one shared instance.  The optimizers' kernel keeps
reusable buffers in its subset context (``_SubsetContext``), which lives
for one optimizer run and serves one thread; each run builds its own.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (
    FIELD_RULES, Assignment, Instance, _instance_problems, _repeated, build_assignment, check_fields,
)

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

    def to_dict(self) -> dict:
        return {
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


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

    __post_init__ = check_fields

    def combine(self, response_total: float, dv_total: float, energy_total: float) -> float:
        return (
            self.w_response * (response_total / self.norm_response)
            + self.w_deadline * (dv_total / self.norm_deadline)
            + self.w_energy * (energy_total / self.norm_energy)
        )


class Evaluator:
    """The cost model of one instance, for evaluating many assignments.

    Built once, in task order: the ``(n, m)`` tables ``execution``,
    ``propagation`` and ``transmission`` (ms; a response is their sum plus
    the EDF queue wait) and the ``(m,)`` coefficients ``active = alpha *
    active_power`` and ``idle = beta * idle_power`` that weigh a node's
    busy and idle time.  Nothing else derives these costs.

    ``report`` evaluates one full assignment with per-task detail.  Its
    queue waits come from one ``_lane_queues`` row, the assignment's visit
    order; the per-task totals (response, violation) and each node's busy
    time add sequentially in task-id order, and the energy total adds
    sequentially in node order, as the oracle's ``+=`` loops do.
    ``subset_context`` freezes a task subset for the optimizers, whose
    ``objectives`` kernel scores one genome (an ``(n,)`` array of node
    indices) or a whole flock (a ``(pop, n)`` matrix) per call.  The
    kernel's totals are numpy's pairwise sums, so an optimizer's fitness and
    the report's fitness of one assignment may differ in the last bits.

    Routing is hop-count shortest path from each task's gateway to its node,
    computed once by breadth-first search with sorted-neighbor tie-breaks so
    path metrics are deterministic.

    The evaluator keeps no reference to its instance, so an instance that
    caches it (``Instance._evaluator_cache``) forms no reference cycle and
    is freed, fitness caches included, as soon as its last user drops it.
    ``fitness_caches`` holds one cache per distinct (task set, candidate
    set, weights), and the byte budget (``geo._CACHE_BYTES``, 1 MiB) bounds
    each cache, not their sum.
    """

    def __init__(self, instance: Instance):
        if problems := _instance_problems(instance.topology, instance.tasks):
            raise ValueError("; ".join(problems))
        nodes = instance.topology.nodes
        self.m = len(nodes)
        self._node_index = {n.id: k for k, n in enumerate(nodes)}
        self._node_ids = [n.id for n in nodes]
        mips = np.array([n.mips for n in nodes])

        tasks = instance.tasks
        self.n = len(tasks)
        self._task_index = {t.id: k for k, t in enumerate(tasks)}
        self.deadline = np.array([t.deadline for t in tasks])
        gateway = np.array(
            [self._node_index[instance.gateway_of(t)] for t in tasks], dtype=np.intp
        )

        # unreachable (task, node) pairs have infinite propagation; a task on
        # its gateway crosses no link: infinite bandwidth, 0 ms transmission
        path_prop, path_bw = self._route_all_pairs(instance.topology.links)
        bw = path_bw[gateway]
        self.propagation = path_prop[gateway]
        with np.errstate(over="ignore"):  # tables checked below; report names an inf energy
            self.active = np.array([n.alpha for n in nodes]) * np.array([n.active_power for n in nodes])
            self.idle = np.array([n.beta for n in nodes]) * np.array([n.idle_power for n in nodes])
            self.execution = np.array([t.length for t in tasks])[:, None] / mips * 1000.0
            self.transmission = np.where(
                np.isinf(bw), 0.0, np.array([t.data_size for t in tasks])[:, None] / bw
            )
        for name, table in (("execution", self.execution), ("transmission", self.transmission)):
            if not np.isfinite(table).all():
                i, j = np.argwhere(~np.isfinite(table))[0]
                raise ValueError(
                    f"{name} time of task {tasks[i].id} on node {self._node_ids[j]}"
                    " overflowed float range"
                )
        # a reached pair has a finite bottleneck bandwidth, so an inf delay
        # there is a sum of link delays beyond float range, not a missing route
        overflowed = np.argwhere(np.isinf(self.propagation) & np.isfinite(bw))
        if overflowed.size:
            i, j = overflowed[0]
            raise ValueError(
                f"propagation delay from gateway {self._node_ids[gateway[i]]} to node"
                f" {self._node_ids[j]} overflowed float range"
            )
        # (task ids, candidate ids, weights) -> {genome bytes: fitness}; the
        # optimizers' _SubProblem shares it across runs on this instance and
        # trims it to its byte budget, oldest entries first.  A key is the
        # genome in the narrowest unsigned type that holds every candidate
        # index (uint8 up to 256 candidates), fixed by the candidate count,
        # so one dict never mixes key widths
        self.fitness_caches = {}

    def _route_all_pairs(self, links):
        adjacency = {k: [] for k in range(self.m)}
        for link in links:
            a, b = map(self._node_index.__getitem__, link.endpoints)
            delay = float(link.propagation_delay)
            adjacency[a].append((b, delay, link.bandwidth))
            adjacency[b].append((a, delay, link.bandwidth))
        for k in adjacency:
            adjacency[k].sort(key=lambda e: e[0])

        prop = np.full((self.m, self.m), np.inf)
        bw = np.full((self.m, self.m), np.inf)
        for src in range(self.m):
            # Python floats: a sum beyond float range is inf without a warning,
            # and the reached pair's finite bandwidth tells it from no route
            path = {src: (0.0, math.inf)}
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for v, p, b in adjacency[u]:
                        if v in path:
                            continue
                        path[v] = (path[u][0] + p, min(path[u][1], b))
                        nxt.append(v)
                frontier = nxt
            for v, (p, b) in path.items():
                prop[src, v], bw[src, v] = p, b
        return prop, bw

    def node_index(self, node_id: int) -> int:
        return self._node_index[node_id]

    def _schedule(self, assignment: Assignment):
        """Task ids, task indices, node indices and the ``(5, n)`` costs
        propagation, transmission, execution, queue wait and response (ms),
        in task-id order, of the tasks of ``assignment.order``, which may
        leave tasks out.  Each node serves them in the order given; an
        unknown node or task id, a task listed twice, or the first
        unreachable task raises."""
        order = assignment.order
        _check_ids("node", order, self._node_index)
        _check_ids("task", [t for sequence in order.values() for t in sequence], self._task_index)
        visits = [
            (self._node_index[node_id], self._task_index[t], t)
            for node_id, sequence in order.items() for t in sequence
        ]
        node, task, ids = np.array(visits, dtype=np.intp).reshape(-1, 3).T
        propagation = self.propagation[task, node]
        unreachable = np.isinf(propagation)
        if unreachable.any():
            k = int(unreachable.argmax())
            raise ValueError(
                f"no route from gateway of task {ids[k]} to node {self._node_ids[node[k]]}"
            )
        transmission = self.transmission[task, node]
        execution = self.execution[task, node]
        queue = _lane_queues(node[None], execution[None], self.m)[0][0]
        response = propagation + transmission + execution + queue
        by_id = ids.argsort(kind="stable")
        cost = np.stack((propagation, transmission, execution, queue, response))
        return ids[by_id], task[by_id], node[by_id], cost[:, by_id]

    def _energy(self, node, execution, horizon: float, j) -> np.ndarray:
        """Energy (J) up to ``horizon`` ms of the nodes with indices ``j``,
        whose busy time adds the ``execution`` of their tasks in the order
        given; a horizon shorter than a busy time raises."""
        busy = np.bincount(node, weights=execution, minlength=self.m)[j]
        short = horizon < busy - 1e-9
        if short.any():
            k = int(short.argmax())
            raise ValueError(
                f"horizon {horizon} ms shorter than node {self._node_ids[j[k]]}"
                f" busy time {busy[k]} ms"
            )
        idle_ms = np.maximum(0.0, horizon - busy)
        return self.active[j] * busy / 1000.0 + self.idle[j] * idle_ms / 1000.0

    def report(self, assignment: Assignment, weights: FitnessWeights) -> MetricsReport:
        """The full report of ``assignment``; a total, a node's energy or
        the fitness that overflows float range raises ValueError naming it."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            ids, task, node, cost = self._schedule(assignment)
            dv = np.maximum(0.0, cost[4] - self.deadline[task])
            response_max = float(np.maximum.reduce(cost[4], initial=0.0))  # makespan
            energy = self._energy(node, cost[2], response_max, np.arange(self.m))
            dv_total, response_total, energy_total = map(_sequential_sum, (dv, cost[4], energy))
        fitness = weights.combine(response_total, dv_total, energy_total)
        overflowed = [("response_total", response_total), ("dv_total", dv_total)]
        overflowed += [(f"energy of node {nid}", e) for nid, e in zip(self._node_ids, energy)]
        overflowed += [("energy_total", energy_total), ("fitness", fitness)]
        for what, value in overflowed:
            if not math.isfinite(value):
                raise ValueError(f"{what} overflowed float range")
        # Python floats: the repr of an np.float64 would change records.csv
        return MetricsReport(
            per_task=tuple(map(ResponseBreakdown, ids.tolist(), *cost.tolist())),
            dv_per_task=tuple(dv.tolist()),
            dv_total=dv_total,
            energy_per_node=tuple(zip(self._node_ids, energy.tolist())),
            energy_total=energy_total,
            fitness=fitness,
            response_total=response_total,
            response_max=response_max,
        )

    # ------------------------------------------------------------------
    # Vectorized sub-problem objective used inside optimizer loops.

    def subset_context(self, task_ids: Sequence[int]):
        """Freeze a task subset for repeated evaluation: its EDF visit order
        (deadline, then task id) and, in that order, every task's execution
        time and base response (propagation plus transmission plus
        execution: the response before any queue wait) on every node, as
        ``(n, m)`` tables.  ``objectives`` of the returned context is the
        one evaluation kernel of the optimizers."""
        idx = np.array([self._task_index[t] for t in task_ids], dtype=np.intp)
        edf = np.lexsort((np.array(task_ids), self.deadline[idx]))
        visit = idx[edf]
        execution = self.execution[visit]
        return _SubsetContext(
            edf_order=edf,
            restore=np.argsort(edf),
            cell_offset=np.arange(len(idx)) * self.m,
            execution=execution,
            base_response=self.propagation[visit] + self.transmission[visit] + execution,
            deadline=self.deadline[idx],
            active=self.active,
            idle=self.idle,
        )


@dataclass
class _SubsetContext:
    """A task subset frozen by ``Evaluator.subset_context``, and
    ``objectives``, the optimizers' kernel over it.

    The context owns a ``_Workspace``: every kernel call writes its
    ``(rows, n)`` intermediates and the lane matrix into buffers
    kept from call to call, so a batch call makes no large temporary
    (fresh memory the OS must fault in again after the allocator hands it
    back).  The buffers grow to the largest batch seen and are freed with
    the context, which belongs to one optimizer run (``geo._SubProblem``).
    One context therefore serves one thread; threads sharing an
    ``Instance`` each build their own, as every optimizer run does."""

    edf_order: np.ndarray  # subset positions in EDF visit order
    restore: np.ndarray  # inverse permutation of edf_order
    cell_offset: np.ndarray  # row offsets into the flattened (n, m) tables
    execution: np.ndarray  # (n, m) in EDF order, ms
    base_response: np.ndarray  # (n, m) in EDF order: propagation + transmission + execution, ms
    deadline: np.ndarray  # (n,) in subset order, ms
    active: np.ndarray  # (m,) alpha * active power
    idle: np.ndarray  # (m,) beta * idle power
    work: _Workspace = field(init=False, repr=False)

    def __post_init__(self):
        self.work = _Workspace(*self.execution.shape)

    def objectives(self, node_idx: np.ndarray):
        """(response_total, response_max, dv_total, energy_total) of mapping
        the subset's tasks onto ``node_idx`` (node array indices below m,
        one per task in subset order; not range-checked).

        ``node_idx`` of shape ``(n,)`` returns four floats; a ``(pop, n)``
        matrix returns four length-``pop`` arrays, row for row equal to the
        single-genome results.  The intermediates live in the context's
        workspace; the returned values are new, and later calls leave them
        as they are.

        Every node serves its tasks non-preemptively in EDF order;
        ``_lane_queues`` gives, one row per genome, the queue waits and busy
        times of each (genome, node) lane.  Every total is reduced along a
        contiguous row, in subset (task) order and node order, with numpy's
        pairwise sum, so batched and single results are bit-identical.
        """
        node_idx = np.asarray(node_idx).astype(np.intp, casting="safe", copy=False)
        n, m = self.execution.shape
        rows = node_idx.reshape(-1, n)  # one genome is a one-row batch
        w = self.work.cut(len(rows))
        # gathers write into the workspace; mode "clip" keeps numpy from
        # buffering an out= gather, which mode "raise" does
        nodes = rows.take(self.edf_order, axis=1, out=w.nodes, mode="clip")  # EDF order
        cell = np.add(nodes, self.cell_offset, out=w.cell)
        execution = self.execution.take(cell, out=w.execution, mode="clip")
        response = self.base_response.take(cell, out=w.response, mode="clip")
        queue, busy = _lane_queues(nodes, execution, m, self.work)
        response += queue
        # the queue waits are spent: their buffer becomes the dv clamp's
        # zeros, which numpy clamps against some 3x faster than against the
        # scalar 0.0, to the same bits (tests/test_hot_loops.py)
        zeros = queue
        zeros.fill(0.0)
        # subset order, contiguous rows
        response = response.take(self.restore, axis=1, out=w.ordered, mode="clip")
        if node_idx.ndim == 1:  # one genome: 1-D reductions cost less per call
            response, busy, zeros = response[0], busy[0], zeros[0]
        response_total = np.add.reduce(response, axis=-1)
        response_max = np.maximum.reduce(response, axis=-1, initial=0.0)
        violation = np.subtract(response, self.deadline, out=response)
        dv_total = np.add.reduce(np.maximum(zeros, violation, out=violation), axis=-1)
        idle_ms = np.subtract(response_max[..., None], busy)
        energy_total = np.add.reduce(self.active * busy + self.idle * idle_ms, axis=-1) / 1000.0
        if node_idx.ndim == 1:
            return float(response_total), float(response_max), float(dv_total), float(energy_total)
        return response_total, response_max, dv_total, energy_total

    def fitness(self, node_idx: np.ndarray, weights: FitnessWeights):
        """Scalar fitness of one genome, or a fitness array of a matrix."""
        r, _, dv, e = self.objectives(node_idx)
        return weights.combine(r, dv, e)


_Views = namedtuple("_Views", (
    "nodes cell execution response ordered key lane rank slot queue ramp entry_offset lane_offset"
))


class _Workspace:
    """The reusable buffers of the kernel on ``n`` entries per row and
    ``m`` nodes.  ``cut(rows)`` returns ``_Views`` of the first ``rows``
    rows of every ``(capacity, n)`` buffer, first growing them all to
    ``rows`` rows if the capacity is smaller, so they end as large as the
    largest batch seen.  It keeps the last row count's views, so repeated
    one-genome calls cut nothing.  ``ramp`` holds ``k * rows * m`` at flat
    position k, the row offset of the k-th entry in lane order in a lane
    matrix of ``rows * m`` columns; ``cut`` writes it when the row count
    changes.  ``lanes`` is the flat lane matrix, grown by ``_lane_queues``
    to the largest ``(width + 1) * rows * m`` seen.

    Buffers whose uses in a call do not overlap share storage: ``slot``
    takes over ``nodes`` once the lanes are built from it, ``lane`` and
    then ``rank`` take over ``cell`` once both gathers have read it,
    ``ordered`` takes over ``execution`` once the lanes hold it, and
    ``objectives`` zeroes ``queue`` for its dv clamp once the responses
    have added it."""

    def __init__(self, n: int, m: int):
        self.n, self.m = n, m
        self.key_dtype = np.min_scalar_type(m - 1)
        self.capacity = 0
        self.lanes = np.empty(0)
        self._views = None

    def cut(self, rows: int) -> _Views:
        views = self._views
        if views is None or len(views.nodes) != rows:
            if rows > self.capacity or views is None:  # a first call may cut 0 rows
                self._grow(rows)
            views = self._buffers
            if rows < self.capacity:
                views = _Views(*(b[:rows] for b in views))
            np.multiply(self._count[:rows], rows * self.m, out=views.ramp)
            self._views = views
        return views

    def _grow(self, rows: int):
        shape = (rows, self.n)
        nodes, cell = np.empty(shape, np.intp), np.empty(shape, np.intp)
        execution = np.empty(shape)
        self._buffers = _Views(
            nodes=nodes, cell=cell, execution=execution, response=np.empty(shape),
            ordered=execution, key=np.empty(shape, self.key_dtype), lane=cell, rank=cell,
            slot=nodes, queue=np.empty(shape), ramp=np.empty(shape, np.intp),
            entry_offset=np.arange(rows)[:, None] * self.n,
            lane_offset=np.arange(rows)[:, None] * self.m,
        )
        self._count = np.arange(rows * self.n).reshape(shape)
        self.capacity = rows


# the lane count from which _lane_queues adds its lane matrix rank row by
# rank row: one row add costs a fixed ~0.5 us, a column-wise accumulate
# ~4 ns per cell (numpy 2.4 on a 2-CPU x86 VM; the two met at 140-200 lanes)
_ROW_ADD_LANES = 160


def _lane_queues(nodes: np.ndarray, execution: np.ndarray, m: int, work: _Workspace = None):
    """The one EDF queue: every row of the ``(rows, n)`` matrix ``nodes``
    (node indices below ``m``) lists n entries in visit order, with their
    ``execution`` (ms) in the same shape, and every (row, node) lane serves
    its entries in that order.  Returns each entry's queue wait, as
    ``(rows, n)``, and each lane's busy time, as ``(rows, m)``.

    A stable sort of each row on its narrowest unsigned node key, plus the
    row offsets, ranks every entry within the grouped lanes in visit order.
    The lanes are the columns of a zero-padded, C-contiguous ``(width + 1,
    rows * m)`` matrix, ``width`` the longest lane's length; each lane
    fills the bottom of its column, its last entry in the last row, so row
    0 is padding.  A column-wise prefix sum adds each lane top to bottom,
    as ``busy += execution`` does, and a padding zero changes no sum, so a
    queue wait is the prefix one row above the entry and the last row holds
    the busy times.  Below ``_ROW_ADD_LANES`` lanes (a one-genome call has
    m) the prefix sum is one ``np.add.accumulate`` down the columns; from
    there on, where that strided walk costs more per cell than a row add
    costs per row, it adds each row into the next.  Both add every lane in
    the same order, so they give the same bits.

    The intermediates and both results are views of ``work``, a context's
    workspace, valid until its next call; without one, the call makes a
    workspace of its own.  The lane matrix changes shape from call to
    call, so its padding is zeroed again every time."""
    rows, n = nodes.shape
    if work is None:
        work = _Workspace(n, m)
    w = work.cut(rows)
    n_lanes = rows * m
    np.copyto(w.key, nodes, casting="unsafe")
    order = w.key.argsort(axis=1, kind="stable")
    if rows > 1:  # entry row * n + k
        order += w.entry_offset
    lane = np.add(nodes, w.lane_offset, out=w.lane)  # lane row * m + node
    counts = np.bincount(lane.reshape(-1), minlength=n_lanes)
    width = int(np.maximum.reduce(counts, initial=0))
    # the entry of rank k in lane order sits at row width + k + 1 - end of
    # its lane's column, where end is the rank that follows the lane's last
    # entry; slot is the row before
    end = np.add.accumulate(counts)
    end *= n_lanes
    base = np.arange(width * n_lanes, (width + 1) * n_lanes) - end
    slot = base.take(lane, out=w.slot, mode="clip")
    w.rank.reshape(-1)[order] = w.ramp  # k * n_lanes
    slot += w.rank
    size = (width + 1) * n_lanes
    if work.lanes.size < size:
        work.lanes = np.empty(size)
    flat = work.lanes[:size]
    flat.fill(0.0)
    flat[n_lanes:][slot] = execution
    lanes = flat.reshape(width + 1, n_lanes)
    if n_lanes < _ROW_ADD_LANES:
        np.add.accumulate(lanes, axis=0, out=lanes)
    else:
        ranks = list(lanes)
        for prev, cur in zip(ranks, ranks[1:]):
            cur += prev
    queue = flat.take(slot, out=w.queue, mode="clip")
    return queue, lanes[width].reshape(rows, m)


def _sequential_sum(values: np.ndarray) -> float:
    """The left-to-right sum of ``values``, as a ``total += value`` loop
    gives it (``np.add.reduce`` adds pairwise), as a Python float."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


# ---------------------------------------------------------------------------
# Operation-level API


def response_breakdown(instance: Instance, assignment: Assignment, task_id: int) -> ResponseBreakdown:
    """The breakdown of task ``task_id`` under ``assignment``; a task id the
    instance lacks, or one the assignment leaves out, raises ValueError."""
    ev = _evaluator(instance)
    _check_ids("task", [task_id], ev._task_index)
    ids, _, _, cost = ev._schedule(assignment)
    hit = np.flatnonzero(ids == task_id)
    if not hit.size:
        raise ValueError(f"task {task_id}: not in the assignment")
    return ResponseBreakdown(task_id, *cost[:, hit[0]].tolist())


def deadline_violation(breakdown: ResponseBreakdown, deadline: float) -> float:
    if fault := FIELD_RULES["Task"]["deadline"]("deadline", deadline):
        raise ValueError(fault)
    return max(0.0, breakdown.response - deadline)


def total_deadline_violation(instance: Instance, assignment: Assignment) -> float:
    return _evaluator(instance).report(assignment, FitnessWeights()).dv_total


def node_energy(instance: Instance, assignment: Assignment, node_id: int, horizon: float) -> float:
    ev = _evaluator(instance)
    _check_ids("node", [node_id], ev._node_index)
    _, _, node, cost = ev._schedule(assignment)
    return float(ev._energy(node, cost[2], horizon, [ev.node_index(node_id)])[0])


def total_energy(instance: Instance, assignment: Assignment, horizon: float) -> float:
    ev = _evaluator(instance)
    _, _, node, cost = ev._schedule(assignment)
    return _sequential_sum(ev._energy(node, cost[2], horizon, np.arange(ev.m)))


def fitness(instance: Instance, assignment: Assignment, weights: FitnessWeights) -> float:
    return evaluate(instance, assignment, weights).fitness


def evaluate(instance: Instance, assignment: Assignment, weights: FitnessWeights) -> MetricsReport:
    return _evaluator(instance).report(assignment, weights)


def _check_ids(label: str, ids, known) -> None:
    """Raise ValueError naming each of ``ids`` that is not a key of
    ``known``, then each that an earlier one repeats."""
    ids = list(ids)
    if problems := [f"{label} {id_}: unknown id" for id_ in ids if id_ not in known] + _repeated(label, ids):
        raise ValueError("; ".join(problems))


def _evaluator(instance: Instance) -> Evaluator:
    if instance._evaluator_cache is None:
        instance._evaluator_cache = Evaluator(instance)
    return instance._evaluator_cache


def _random_assignment(instance: Instance, seed: int) -> Assignment:
    """Each task, in instance order, on a node drawn uniformly from the
    nodes in topology order by ``default_rng(seed)``; a seed that breaks
    the scenario seed rule, or an instance that breaks a rule, is refused
    before the draw."""
    if fault := FIELD_RULES["ScenarioConfig"]["rng_seed"]("seed", seed):
        raise ValueError(fault)
    _evaluator(instance)
    rng = np.random.default_rng(seed)
    node_ids = [n.id for n in instance.topology.nodes]
    mapping = {t.id: node_ids[int(rng.integers(0, len(node_ids)))] for t in instance.tasks}
    return build_assignment(instance.tasks, mapping)


def calibrate_weights(
    instance: Instance,
    w_response: float = 1.0,
    w_deadline: float = 1.0,
    w_energy: float = 1.0,
    seed: int = 0,
) -> FitnessWeights:
    """Normalize each fitness term by its value under
    ``_random_assignment(instance, seed)``, so the three terms are
    commensurate on this instance."""
    report = evaluate(instance, _random_assignment(instance, seed), FitnessWeights())
    return FitnessWeights(
        w_response=w_response,
        w_deadline=w_deadline,
        w_energy=w_energy,
        norm_response=report.response_total if report.response_total > 0 else 1.0,
        norm_deadline=report.dv_total if report.dv_total > 0 else 1.0,
        norm_energy=report.energy_total if report.energy_total > 0 else 1.0,
    )
