"""Experiment harness: sweep task counts over seeded scenarios, run the
scheduling algorithms on identical instances per trial, and persist
plot-ready CSV records and summaries."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import fmean, stdev

from .baselines import baseline_greedy, baseline_random
from .geo import GeoParams, geo_optimize
from .igeo import IgeoParams, igeo_optimize
from .metrics import FitnessWeights, calibrate_weights, evaluate
from .model import Instance, ScenarioConfig, generate_scenario, scenario_to_dict
from .rigeo import rigeo_schedule
from .rl import RlConfig, rl_optimize

__all__ = [
    "ALGORITHMS",
    "ExperimentPlan",
    "RunRecord",
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

RECORD_COLUMNS = (
    "algorithm",
    "task_count",
    "seed",
    "dv_total",
    "energy_total",
    "response_total",
    "response_max",
    "fitness",
)

METRIC_COLUMNS = ("dv_total", "energy_total", "response_total", "response_max", "fitness")


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
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.algorithms:
            raise ValueError("algorithms must be nonempty")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        w_response, w_deadline, w_energy = self.fitness_weights  # as _run_trial reads them
        FitnessWeights(w_response, w_deadline, w_energy)  # raises on bad weights


@dataclass(frozen=True)
class RunRecord:
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


def _run_trial(plan: ExperimentPlan, algorithm: str, task_count: int, seed: int):
    instance, digest = _trial_instance(plan, task_count, seed)
    w_r, w_d, w_e = plan.fitness_weights
    weights = calibrate_weights(instance, w_r, w_d, w_e, seed=seed)
    start = time.perf_counter()
    assignment = run_algorithm(algorithm, instance, seed, weights, plan)
    wall_ms = (time.perf_counter() - start) * 1000.0
    report = evaluate(instance, assignment, weights)
    record = RunRecord(
        algorithm=algorithm,
        task_count=task_count,
        seed=seed,
        dv_total=report.dv_total,
        energy_total=report.energy_total,
        response_total=report.response_total,
        response_max=report.response_max,
        fitness=report.fitness,
        wall_time=wall_ms,
    )
    return record, report.to_json(), digest


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
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            outcomes = list(pool.map(_safe_trial, jobs))
    else:
        outcomes = [_safe_trial(job) for job in jobs]

    records = []
    failures = []
    reports = {}
    for status, payload in outcomes:
        if status == "ok":
            record, report_json, digest = payload
            records.append(record)
            reports[(record.algorithm, record.task_count, record.seed)] = (
                report_json,
                digest,
            )
        else:
            failures.append(payload)
            logger.warning("trial failed: %s", payload)

    records.sort(key=lambda r: (r.algorithm, r.task_count, r.seed))
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
        for (algorithm, task_count, seed), (report_json, digest) in sorted(reports.items()):
            doc = json.loads(report_json)
            doc["instance_digest"] = digest
            path = report_dir / f"{algorithm}_{task_count}_{seed}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
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
            writer.writerow(
                [
                    r.algorithm,
                    r.task_count,
                    r.seed,
                    repr(r.dv_total),
                    repr(r.energy_total),
                    repr(r.response_total),
                    repr(r.response_max),
                    repr(r.fitness),
                ]
            )


def read_records(path) -> list:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                RunRecord(
                    algorithm=row["algorithm"],
                    task_count=int(row["task_count"]),
                    seed=int(row["seed"]),
                    dv_total=float(row["dv_total"]),
                    energy_total=float(row["energy_total"]),
                    response_total=float(row["response_total"]),
                    response_max=float(row["response_max"]),
                    fitness=float(row["fitness"]),
                    wall_time=0.0,
                )
            )
    return records


def write_summary(rows, path) -> None:
    if not rows:
        raise ValueError("no summary rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
