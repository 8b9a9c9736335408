"""Two-stage orchestration: traffic-based node classes, deadline-based task
classes, the discrete eagle optimizer for the tight-deadline half and the
reward/penalty learner for the relaxed half, merged into one schedule."""

from __future__ import annotations

import json
import logging
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from functools import partial
from statistics import fmean

from .igeo import IgeoParams, igeo_optimize
from .metrics import FitnessWeights, MetricsReport, evaluate
from .model import Assignment, Instance, Topology, merge_assignments
from .rl import RlConfig, rl_optimize

__all__ = [
    "TrafficClassification",
    "DeadlinePartition",
    "classify_nodes",
    "partition_tasks",
    "rigeo_schedule",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrafficClassification:
    node_traffic: dict  # node id -> mean incident-link traffic
    average_traffic: float
    low_traffic_nodes: frozenset
    high_traffic_nodes: frozenset


@dataclass(frozen=True)
class DeadlinePartition:
    deadline_threshold: float
    low_deadline_tasks: frozenset
    high_deadline_tasks: frozenset


def classify_nodes(topology: Topology) -> TrafficClassification:
    """Split nodes at the mean of their per-node traffic; strictly below the
    mean is low traffic.  A node without links carries traffic 0."""
    if not topology.nodes:
        raise ValueError("topology has no nodes")
    incident = {node.id: [] for node in topology.nodes}
    for link in topology.links:
        for end in link.endpoints:
            if end in incident:
                incident[end].append(link.traffic_load)
    node_traffic = {
        nid: (fmean(loads) if loads else 0.0) for nid, loads in incident.items()
    }
    average = fmean(node_traffic.values())
    low = frozenset(nid for nid, tr in node_traffic.items() if tr < average)
    high = frozenset(node_traffic) - low
    return TrafficClassification(
        node_traffic=node_traffic,
        average_traffic=average,
        low_traffic_nodes=low,
        high_traffic_nodes=high,
    )


def partition_tasks(tasks, threshold_policy="mean") -> DeadlinePartition:
    """Split tasks at a deadline threshold; strictly below is low deadline.
    ``threshold_policy`` is either the string "mean" or an explicit
    threshold in milliseconds."""
    tasks = list(tasks)
    if not tasks:
        raise ValueError("task set must be nonempty")
    if threshold_policy == "mean":
        threshold = fmean(t.deadline for t in tasks)
    else:
        threshold = float(threshold_policy)
    low = frozenset(t.id for t in tasks if t.deadline < threshold)
    high = frozenset(t.id for t in tasks) - low
    return DeadlinePartition(
        deadline_threshold=threshold,
        low_deadline_tasks=low,
        high_deadline_tasks=high,
    )


def rigeo_schedule(
    instance: Instance,
    igeo_params: IgeoParams,
    rl_config: RlConfig,
    weights: FitnessWeights,
    threshold_policy="mean",
    summary_path=None,
) -> tuple:
    """Classify, partition, optimize both halves, merge, and re-evaluate the
    merged schedule jointly (so queue waits reflect all co-located tasks).

    The two halves run at the same time in two processes: the RL half in a
    child made with ``os.fork`` (raw fork, so it also works inside a daemonic
    ``multiprocessing`` pool worker), the IGEO half in this process.  They
    share no state that changes during the search (disjoint task sets, their
    own seeded RNG streams and fitness caches), so the result is bit for bit
    what running them one after the other gives.  The RL half is called
    inline instead where ``os.fork`` does not exist or where more than one
    thread runs (a fork copies locks other threads may hold).

    An empty node class falls back to the full node set for its sub-problem.
    Returns (assignment, metrics report) for the merged schedule.
    """
    all_nodes = frozenset(n.id for n in instance.topology.nodes)
    if not instance.tasks:
        empty = Assignment(mapping={}, order={})
        return empty, evaluate(instance, empty, weights)

    classification = classify_nodes(instance.topology)
    partition = partition_tasks(instance.tasks, threshold_policy)

    low_nodes = classification.low_traffic_nodes
    high_nodes = classification.high_traffic_nodes
    if not low_nodes:
        logger.warning("no low-traffic nodes; tight-deadline tasks use all nodes")
        low_nodes = all_nodes
    if not high_nodes:
        logger.warning("no high-traffic nodes; relaxed-deadline tasks use all nodes")
        high_nodes = all_nodes

    parts = []
    igeo_fitness = None
    rl_fitness = None
    finish_rl = None
    if partition.high_deadline_tasks:
        finish_rl = _start_rl_half(partial(
            rl_optimize, instance, high_nodes, partition.high_deadline_tasks, rl_config, weights
        ))
    try:
        if partition.low_deadline_tasks:
            sub, igeo_fitness = igeo_optimize(
                instance, low_nodes, partition.low_deadline_tasks, igeo_params, weights
            )
            parts.append(sub)
    except BaseException:
        if finish_rl is not None:
            finish_rl(kill=True)
        raise
    if finish_rl is not None:
        sub, rl_fitness = finish_rl()
        parts.append(sub)

    merged = merge_assignments(instance.tasks, *parts)
    report = evaluate(instance, merged, weights)

    if summary_path is not None:
        _write_summary(
            summary_path, classification, partition, igeo_fitness, rl_fitness, merged, report
        )
    return merged, report


def _start_rl_half(call):
    """Start ``call()`` in a forked child and return ``finish``.

    ``finish()`` waits for the child and returns the call's result, or
    raises its exception (one that does not survive pickling arrives as a
    ``RuntimeError`` naming its type); ``finish(kill=True)`` kills the
    child instead.  Either way the child is reaped.  The child sends its
    pickled outcome through a pipe and ends with ``os._exit``, running no
    exit handlers and flushing no inherited buffers.  Where ``os.fork`` is
    missing or other threads run, ``finish()`` makes the call inline.

    "Other threads" are the Python threads ``threading`` knows of.  A
    native pool such as OpenBLAS's is not counted: its threads run no
    Python code, the RL half makes no BLAS call, and counting them would
    run RIGEO inline wherever numpy starts a pool.
    Python 3.12 counts OS threads for its fork ``DeprecationWarning``, so
    the warning can name that pool; with ``OPENBLAS_NUM_THREADS=1`` it
    shows only a thread of the caller's own."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return lambda kill=False: None if kill else call()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_pickled_outcome(call))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)

    def finish(kill=False):
        try:
            if kill:
                os.kill(pid, signal.SIGKILL)
            with os.fdopen(read_fd, "rb") as pipe:
                data = b"" if kill else pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if kill:
            return None
        if code != 0 or not data:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"RIGEO's RL half (pid {pid}) {how} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    return finish


def _pickled_outcome(call) -> bytes:
    """``(True, call())`` or ``(False, exception)``, pickled; an exception
    that does not round-trip through pickle becomes a ``RuntimeError``
    carrying its type name and text."""
    try:
        return pickle.dumps((True, call()))
    except BaseException as exc:
        try:
            data = pickle.dumps((False, exc))
            pickle.loads(data)
            return data
        except Exception:
            return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _write_summary(
    path,
    classification: TrafficClassification,
    partition: DeadlinePartition,
    igeo_fitness,
    rl_fitness,
    merged: Assignment,
    report: MetricsReport,
) -> None:
    doc = {
        "traffic": {
            "average": classification.average_traffic,
            "low_traffic_nodes": sorted(classification.low_traffic_nodes),
            "high_traffic_nodes": sorted(classification.high_traffic_nodes),
        },
        "deadline": {
            "threshold": partition.deadline_threshold,
            "low_deadline_tasks": sorted(partition.low_deadline_tasks),
            "high_deadline_tasks": sorted(partition.high_deadline_tasks),
        },
        "subproblem_fitness": {"igeo": igeo_fitness, "rl": rl_fitness},
        "merged_metrics": report.csv_row(),
        "halves": {
            "igeo": _half(partition.low_deadline_tasks, merged, report),
            "rl": _half(partition.high_deadline_tasks, merged, report),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _half(task_ids, merged: Assignment, report: MetricsReport) -> dict:
    """Task count, nodes used, and the dv and response totals that the
    tasks ``task_ids`` contribute to the merged report, added one by one in
    the report's task-id order."""
    dv_total = response_total = 0.0
    for breakdown, dv in zip(report.per_task, report.dv_per_task):
        if breakdown.task_id in task_ids:
            dv_total += dv
            response_total += breakdown.response
    return {
        "task_count": len(task_ids),
        "nodes": sorted({merged.mapping[t] for t in task_ids}),
        "dv_total": dv_total,
        "response_total": response_total,
    }
