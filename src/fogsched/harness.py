"""Experiment harness: sweep task counts over seeded scenarios, run the
scheduling algorithms on identical instances per trial, and persist
plot-ready CSV records and summaries.

A sweep runs one job per trial, and the trials of one ``(task_count,
seed)`` are next to each other in job order.  Each process and thread that
runs trials keeps the set-up of its last trial (the ``Instance`` with its
built ``Evaluator``, the instance digest and the calibrated weights), so a
trial with the same key reuses it instead of generating, hashing and
calibrating the same scenario again.  Every trial still starts with empty
fitness caches: they are emptied after each trial, so no cache is shared
across algorithms.  A set-up that raises is not kept, and the caller's
slot is dropped when ``run_experiment`` returns."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

from .baselines import baseline_greedy, baseline_random
from .geo import GeoParams, geo_optimize
from .igeo import IgeoParams, igeo_optimize
from .metrics import _evaluator, calibrate_weights, evaluate
from .model import ALGORITHMS, Instance, ScenarioConfig, check_fields, generate_scenario, scenario_to_dict
from .rigeo import _mean, rigeo_schedule
from .rl import RlConfig, rl_optimize

__all__ = [
    "ALGORITHMS",
    "ExperimentPlan",
    "RunRecord",
    "run_and_evaluate",
    "run_experiment",
    "aggregate",
    "write_records",
    "read_records",
    "write_summary",
]

logger = logging.getLogger(__name__)

# the algorithms whose run_algorithm call fills a convergence trace -> the trace CSV's header
TRACE_HEADERS = {
    "IGEO-only": ("iteration", "best_fitness"),
    "GEO": ("iteration", "best_fitness"),
    "RL-only": ("episode", "sampled_fitness", "best_fitness", "exploration_rate"),
}

# the MetricsReport fields a trial record keeps, in records.csv column order
METRIC_COLUMNS = ("dv_total", "energy_total", "response_total", "response_max", "fitness")
RECORD_COLUMNS = ("algorithm", "task_count", "seed") + METRIC_COLUMNS
_record_key = attrgetter(*RECORD_COLUMNS[:3])  # the order of records.csv rows and reports


@dataclass(frozen=True)
class ExperimentPlan:
    task_counts: tuple = (200, 300, 400, 500, 600)
    n_nodes: int = 20
    repetitions: int = 50
    algorithms: tuple = ALGORITHMS
    base_seed: int = 0
    output_dir: str = "results"
    geo: GeoParams = field(default_factory=GeoParams)
    igeo: IgeoParams = field(default_factory=IgeoParams)
    rl: RlConfig = field(default_factory=RlConfig)
    fitness_weights: tuple = (1.0, 1.0, 1.0)
    workers: int = 4

    __post_init__ = check_fields


@dataclass(frozen=True)
class RunRecord:
    """One trial: its key, then one field per METRIC_COLUMNS entry, in order."""

    algorithm: str
    task_count: int
    seed: int
    dv_total: float
    energy_total: float
    response_total: float
    response_max: float
    fitness: float
    wall_time: float  # milliseconds; not persisted to records.csv


# this process and thread's last trial set-up: (key, instance, digest, weights)
_kept = threading.local()


def _trial_setup(plan: ExperimentPlan, task_count: int, seed: int):
    """The trial's ``(instance, digest, weights)``: the kept set-up when its
    key matches, else a new one, kept for the next trial."""
    key = (plan.n_nodes, task_count, seed, plan.fitness_weights)
    kept = getattr(_kept, "setup", None)
    if kept is None or kept[0] != key:
        _kept.setup = None  # free the old instance before building the next
        config = ScenarioConfig(n_tasks=task_count, n_nodes=plan.n_nodes, rng_seed=seed)
        topology, tasks = generate_scenario(config)
        digest = hashlib.sha256(
            json.dumps(scenario_to_dict(config, topology, tasks), sort_keys=True).encode()
        ).hexdigest()
        instance = Instance(topology, tasks)
        kept = _kept.setup = (key, instance, digest, _calibrate(plan, instance, seed))
    return kept[1:]


def _calibrate(plan: ExperimentPlan, instance: Instance, seed: int):
    """The plan's weights calibrated on ``instance``; builds its evaluator."""
    w_r, w_d, w_e = plan.fitness_weights
    return calibrate_weights(instance, w_r, w_d, w_e, seed=seed)


def run_algorithm(
    algorithm: str,
    instance: Instance,
    seed: int,
    weights,
    plan: ExperimentPlan,
    trace=None,
    summary_path=None,
):
    """Dispatch one named algorithm; returns the full assignment it built.
    ``trace`` collects the per-iteration convergence rows of the
    ``TRACE_HEADERS`` algorithms; ``summary_path`` receives RIGEO's routing
    summary.  Both are ignored by the algorithms that do not produce them."""
    node_ids = [n.id for n in instance.topology.nodes]
    task_ids = [t.id for t in instance.tasks]
    if algorithm == "RIGEO":
        assignment, _ = rigeo_schedule(
            instance,
            replace(plan.igeo, rng_seed=seed),
            replace(plan.rl, rng_seed=seed),
            weights,
            summary_path=summary_path,
        )
    elif algorithm == "IGEO-only":
        assignment, _ = igeo_optimize(
            instance, node_ids, task_ids, replace(plan.igeo, rng_seed=seed), weights, trace=trace
        )
    elif algorithm == "GEO":
        assignment, _ = geo_optimize(
            instance, node_ids, task_ids, replace(plan.geo, rng_seed=seed), weights, trace=trace
        )
    elif algorithm == "RL-only":
        assignment, _ = rl_optimize(
            instance, node_ids, task_ids, replace(plan.rl, rng_seed=seed), weights, trace=trace
        )
    elif algorithm == "RANDOM":
        assignment, _ = baseline_random(instance, seed, weights)
    elif algorithm == "GREEDY":
        assignment, _ = baseline_greedy(instance, weights)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return assignment


def run_and_evaluate(plan: ExperimentPlan, algorithm: str, instance: Instance, seed: int,
                     trace=None, summary_path=None, weights=None):
    """One trial's body: calibrate the plan's weights on ``instance`` unless
    ``weights`` holds them already, time ``run_algorithm`` (passing
    ``trace`` and ``summary_path`` on), evaluate its assignment.  Returns
    the MetricsReport and the wall time in ms."""
    if weights is None:
        weights = _calibrate(plan, instance, seed)
    start = time.perf_counter()
    assignment = run_algorithm(
        algorithm, instance, seed, weights, plan, trace=trace, summary_path=summary_path
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    return evaluate(instance, assignment, weights), wall_ms


def _safe_trial(args):
    """One job: ``("ok", (record, reports/*.json text))``, or ``("failed",
    (algorithm, task_count, seed, error))`` for anything the trial raises."""
    plan, algorithm, task_count, seed = args
    try:
        instance, digest, weights = _trial_setup(plan, task_count, seed)
        try:
            report, wall_ms = run_and_evaluate(plan, algorithm, instance, seed, weights=weights)
        finally:
            _evaluator(instance).fitness_caches.clear()  # the next trial starts empty
        metrics = (getattr(report, column) for column in METRIC_COLUMNS)
        record = RunRecord(algorithm, task_count, seed, *metrics, wall_time=wall_ms)
        doc = report.to_dict()
        doc["instance_digest"] = digest
        return ("ok", (record, json.dumps(doc, indent=2) + "\n"))
    except Exception as exc:  # failed trials are recorded, not fatal
        return ("failed", (algorithm, task_count, seed, f"{type(exc).__name__}: {exc}"))


def run_experiment(plan: ExperimentPlan, write_reports: bool = True) -> list:
    """Execute the full sweep; every algorithm in a trial sees the identical
    seeded instance.  Writes records.csv, summary.csv, optional per-run JSON
    reports, and failures.csv when any trial raised.  Each report is
    written as its trial returns, so only the records stay in memory.  A
    dead pool worker fails every trial not yet returned; the rest are kept.
    Any other error cancels the pool's trials not yet started and then
    propagates."""
    out = Path(plan.output_dir)
    report_dir = out / "reports"
    (report_dir if write_reports else out).mkdir(parents=True, exist_ok=True)

    jobs = []
    for tc_index, task_count in enumerate(plan.task_counts):
        for rep in range(plan.repetitions):
            seed = plan.base_seed + tc_index * plan.repetitions + rep
            for algorithm in plan.algorithms:
                jobs.append((plan, algorithm, task_count, seed))

    if plan.workers > 1:
        # imported here: it loads multiprocessing, which every other
        # command, and every plain ``import fogsched``, can skip
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(max_workers=plan.workers)
        outcomes = pool.map(_safe_trial, jobs)
    else:
        BrokenProcessPool = ()  # no pool to break: the except clause catches nothing
        pool, outcomes = None, map(_safe_trial, jobs)

    records, failures = [], []
    try:
        for status, payload in outcomes:  # in job order, each as it returns
            if status != "ok":
                failures.append(payload)
                logger.warning("trial failed: %s", payload)
                continue
            record, report_text = payload
            records.append(record)
            if write_reports:
                (report_dir / "{}_{}_{}.json".format(*_record_key(record))).write_text(report_text)
    except BrokenProcessPool as exc:
        error = f"{type(exc).__name__}: {exc}"
        lost = jobs[len(records) + len(failures):]  # outcomes come in job order
        logger.warning("%d trials lost: %s", len(lost), error)
        failures += [(algorithm, task_count, seed, error) for _, algorithm, task_count, seed in lost]
    finally:
        if pool is not None:
            # cancel the trials not started: after an error, a plain
            # shutdown would run every queued trial before re-raising
            pool.shutdown(cancel_futures=True)
        _kept.setup = None  # no instance outlives the sweep

    records.sort(key=_record_key)
    write_records(records, out / "records.csv")
    if records:
        write_summary(aggregate(records), out / "summary.csv")
    if failures:
        with open(out / "failures.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "task_count", "seed", "error"])
            writer.writerows(sorted(failures))
    return records


def _stdev(values, metric: str) -> float:
    """The sample standard deviation, rounded once, as ``statistics.stdev``
    computes it on Python 3.11+, so ``summary.csv`` has the same bytes on
    every Python: the exact variance n/m, an integer square root of n/m
    scaled to at least 109 bits and rounded to odd, then one correctly
    rounded true division.  Beyond float range it raises ValueError."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    variance = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
    n, m = variance.numerator, variance.denominator
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n  # the odd bit marks an inexact root
    try:
        return (root << q) / 1 if q >= 0 else root / (1 << -q)
    except OverflowError:
        raise ValueError(f"the standard deviation of {metric} passes float range") from None


def aggregate(records) -> list:
    """Per (algorithm, task_count) mean/std/min/max of every metric; sample
    standard deviation, 0 for a single record."""
    records = list(records)
    if not records:
        raise ValueError("cannot aggregate an empty record set")
    groups = {}
    for record in records:
        groups.setdefault((record.algorithm, record.task_count), []).append(record)
    rows = []
    for (algorithm, task_count), group in sorted(groups.items()):
        row = {"algorithm": algorithm, "task_count": task_count, "runs": len(group)}
        for metric in METRIC_COLUMNS:
            values = [getattr(r, metric) for r in group]
            row[f"{metric}_mean"] = _mean(values)
            row[f"{metric}_std"] = _stdev(values, metric) if len(values) > 1 else 0.0
            row[f"{metric}_min"] = min(values)
            row[f"{metric}_max"] = max(values)
        rows.append(row)
    return rows


def write_records(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow([*_record_key(r), *(repr(getattr(r, c)) for c in METRIC_COLUMNS)])


def read_records(path) -> list:
    """Load a records.csv.  A missing column, a short row, or a value that
    is not a finite number (an integer, for ``task_count`` and ``seed``)
    raises ValueError naming the file, the line and the column."""
    kinds = (str, int, int) + (float,) * len(METRIC_COLUMNS)
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in RECORD_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path}, line 1: missing column {column!r}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            fields = [_read_field(where, row, c, kind) for c, kind in zip(RECORD_COLUMNS, kinds)]
            records.append(RunRecord(*fields, wall_time=0.0))
    return records


def _read_field(where: str, row: dict, column: str, kind):
    text = row[column]
    if text is None:
        raise ValueError(f"{where}: row ends before column {column!r}")
    try:
        value = kind(text)
        if kind is str or math.isfinite(value):
            return value
    except ValueError:
        pass
    rule = "an integer" if kind is int else "a finite number"
    raise ValueError(f"{where}, column {column!r}: {text!r} is not {rule}")


def write_summary(rows, path) -> None:
    if not rows:
        raise ValueError("no summary rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
