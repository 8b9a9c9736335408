"""Experiment harness: sweep task counts over seeded scenarios, run the
scheduling algorithms on identical instances per trial, and persist
plot-ready CSV records and summaries."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from statistics import fmean, stdev

from .baselines import baseline_greedy, baseline_random
from .geo import GeoParams, geo_optimize
from .igeo import IgeoParams, igeo_optimize
from .metrics import FitnessWeights, calibrate_weights, evaluate
from .model import Instance, ScenarioConfig, _is_id, generate_scenario, scenario_to_dict
from .rigeo import rigeo_schedule
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

ALGORITHMS = ("RIGEO", "IGEO-only", "GEO", "RL-only", "RANDOM", "GREEDY")
# the algorithms whose run_algorithm call fills a convergence trace
TRACED_ALGORITHMS = ("IGEO-only", "GEO", "RL-only")

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

    def validate(self) -> None:
        if not self.task_counts:
            raise ValueError("task_counts must be nonempty")
        for count in self.task_counts:  # the scenario rules of every trial
            problems = ScenarioConfig(n_tasks=count, n_nodes=self.n_nodes).validate()
            if problems:
                raise ValueError("; ".join(problems))
        for name, least in (
            ("repetitions", 1),
            ("base_seed", 0),  # every trial seed is base_seed or more
            ("workers", 1),
        ):
            value = getattr(self, name)
            if not _is_id(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        w_response, w_deadline, w_energy = self.fitness_weights  # as run_and_evaluate reads them
        FitnessWeights(w_response, w_deadline, w_energy)  # raises on bad weights


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


def _trial_instance(plan: ExperimentPlan, task_count: int, seed: int):
    config = ScenarioConfig(n_tasks=task_count, n_nodes=plan.n_nodes, rng_seed=seed)
    topology, tasks = generate_scenario(config)
    digest = hashlib.sha256(
        json.dumps(scenario_to_dict(config, topology, tasks), sort_keys=True).encode()
    ).hexdigest()
    return Instance(topology, tasks), digest


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
    ``TRACED_ALGORITHMS``; ``summary_path`` receives RIGEO's routing
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
                     trace=None, summary_path=None):
    """One trial's body: calibrate the plan's weights on ``instance``, time
    ``run_algorithm`` (passing ``trace`` and ``summary_path`` on), evaluate
    its assignment.  Returns the MetricsReport and the wall time in ms."""
    w_r, w_d, w_e = plan.fitness_weights
    weights = calibrate_weights(instance, w_r, w_d, w_e, seed=seed)
    start = time.perf_counter()
    assignment = run_algorithm(
        algorithm, instance, seed, weights, plan, trace=trace, summary_path=summary_path
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    return evaluate(instance, assignment, weights), wall_ms


def _run_trial(plan: ExperimentPlan, algorithm: str, task_count: int, seed: int):
    """Returns the trial's record and its finished reports/*.json text."""
    instance, digest = _trial_instance(plan, task_count, seed)
    report, wall_ms = run_and_evaluate(plan, algorithm, instance, seed)
    metrics = (getattr(report, column) for column in METRIC_COLUMNS)
    record = RunRecord(algorithm, task_count, seed, *metrics, wall_time=wall_ms)
    doc = report.to_dict()
    doc["instance_digest"] = digest
    return record, json.dumps(doc, indent=2) + "\n"


def _safe_trial(args):
    plan, algorithm, task_count, seed = args
    try:
        return ("ok", _run_trial(plan, algorithm, task_count, seed))
    except Exception as exc:  # failed trials are recorded, not fatal
        return ("failed", (algorithm, task_count, seed, f"{type(exc).__name__}: {exc}"))


def run_experiment(plan: ExperimentPlan, write_reports: bool = True) -> list:
    """Execute the full sweep; every algorithm in a trial sees the identical
    seeded instance.  Writes records.csv, summary.csv, optional per-run JSON
    reports, and failures.csv when any trial raised."""
    plan.validate()
    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)

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

        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            outcomes = list(pool.map(_safe_trial, jobs))
    else:
        outcomes = [_safe_trial(job) for job in jobs]

    done = sorted(
        (payload for status, payload in outcomes if status == "ok"),
        key=lambda payload: _record_key(payload[0]),
    )
    failures = [payload for status, payload in outcomes if status != "ok"]
    for failure in failures:
        logger.warning("trial failed: %s", failure)

    records = [record for record, _ in done]
    write_records(records, out / "records.csv")
    if records:
        write_summary(aggregate(records), out / "summary.csv")
    if failures:
        with open(out / "failures.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "task_count", "seed", "error"])
            writer.writerows(sorted(failures))
    if write_reports:
        report_dir = out / "reports"
        report_dir.mkdir(exist_ok=True)
        for record, report_text in done:
            name = f"{record.algorithm}_{record.task_count}_{record.seed}.json"
            (report_dir / name).write_text(report_text)
    return records


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
            row[f"{metric}_mean"] = fmean(values)
            row[f"{metric}_std"] = stdev(values) if len(values) > 1 else 0.0
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
    is not a finite number raises ValueError naming the file, the line and
    the column."""
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
    raise ValueError(f"{where}, column {column!r}: {text!r} is not a finite number")


def write_summary(rows, path) -> None:
    if not rows:
        raise ValueError("no summary rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
