"""The benchmark's three workloads and the output checks they share.

Every workload is a closed loop with one caller: the next scheduler run
starts only after the previous one returns.  Inputs come from seeded
scenario pools; a run with ``--seed s`` walks its pool from a start index
derived from ``s``, so the same seed always gives the same inputs and every
pool entry has a pinned result fingerprint in ``pins.json``.

Calls go through module attributes (``rigeo.rigeo_schedule`` and so on) so
that the traced mode's wrappers see them.

Every measured segment (one instance's set-up, one scheduler call with its
re-evaluation, one harness trial) is timed by a ``speed.Meter``, which
samples the host's speed at its ends and during it; timings are corrected to
the reference speed (see speed.py).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from fogsched import baselines, geo, harness, igeo, metrics, model, rigeo, rl
from speed import Meter, probe

ALGORITHMS = ("RIGEO", "IGEO-only", "GEO", "RL-only", "RANDOM", "GREEDY")
WITHIN = 1.05  # "within 5 % of the brute-force optimum"
CRITERIA = {"IGEO-only": 0.95, "RL-only": 0.90}  # acceptance criteria 2 and 3


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(lines) -> str:
    return sha256("\n".join(lines).encode())[:16]


@dataclass
class Result:
    """Everything one workload run produced."""

    completed: int = 0  # scheduler runs (or harness trials) that returned
    attempted: int = 0
    loop_wall: float = 0.0  # wall time of the timed loop, probes included
    loop_time: float = 0.0  # corrected time of the loop's measured segments
    meter: Meter = field(default_factory=Meter)
    walls: dict = field(default_factory=dict)  # algorithm -> [corrected seconds]
    raw_walls: dict = field(default_factory=dict)  # algorithm -> [wall seconds]
    failures: list = field(default_factory=list)  # one message per failed run
    fingerprints: dict = field(default_factory=dict)  # pin key -> (fingerprint, runs)
    fits: list = field(default_factory=list)  # (scenario seed, algorithm, fitness)
    harness: list = field(default_factory=list)  # (wall s, workers, records)
    criteria: dict = field(default_factory=dict)  # algorithm -> (hits, runs, threshold)
    misses: dict = field(default_factory=dict)  # algorithm -> scenarios of runs outside 5 %

    def sample(self, algorithm, wall, factor):
        """One scheduler call: its wall time and the factor to the
        reference speed."""
        self.walls.setdefault(algorithm, []).append(wall * factor)
        self.raw_walls.setdefault(algorithm, []).append(wall)

    def prep(self, n_tasks, n_nodes, seed):
        """``harness_prep`` as a measured segment."""
        return self.meter.measure(harness_prep, n_tasks, n_nodes, seed)[0]


# ---------------------------------------------------------------------------
# shared pieces


def harness_prep(n_tasks, n_nodes, seed):
    """Per-trial preparation as the harness does it: seeded scenario, a
    fresh Instance, weights calibrated against a seeded random assignment
    (which builds the instance's Evaluator)."""
    topology, tasks = model.generate_scenario(
        model.ScenarioConfig(n_tasks=n_tasks, n_nodes=n_nodes, rng_seed=seed)
    )
    instance = model.Instance(topology, tasks)
    return instance, metrics.calibrate_weights(instance, 1.0, 1.0, 1.0, seed=seed)


def schedule(algorithm, instance, weights, seed, plan):
    """One scheduler call with the plan's search parameters; returns
    (assignment, fitness the scheduler reported)."""
    nodes = [n.id for n in instance.topology.nodes]
    tasks = [t.id for t in instance.tasks]
    if algorithm == "RIGEO":
        assignment, report = rigeo.rigeo_schedule(
            instance, replace(plan.igeo, rng_seed=seed), replace(plan.rl, rng_seed=seed), weights
        )
        return assignment, report.fitness
    if algorithm == "IGEO-only":
        return igeo.igeo_optimize(instance, nodes, tasks, replace(plan.igeo, rng_seed=seed), weights)
    if algorithm == "GEO":
        return geo.geo_optimize(instance, nodes, tasks, replace(plan.geo, rng_seed=seed), weights)
    if algorithm == "RL-only":
        return rl.rl_optimize(instance, nodes, tasks, replace(plan.rl, rng_seed=seed), weights)
    if algorithm == "RANDOM":
        return baselines.baseline_random(instance, seed, weights)
    if algorithm == "GREEDY":
        return baselines.baseline_greedy(instance, weights)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def timed_run(result, tracer, run_id, algorithm, instance, weights, seed, plan):
    """Run one scheduler call, time it, re-evaluate its assignment and
    return its fingerprint line (None if it raised)."""
    result.attempted += 1
    if tracer is not None:
        tracer.run_id = run_id
    meter = result.meter
    token = meter.open()
    start = meter.clock()
    try:
        assignment, fit = schedule(algorithm, instance, weights, seed, plan)
        wall = meter.clock() - start
        report = metrics.evaluate(instance, assignment, weights)
    except Exception as exc:  # a failed run is counted, not fatal
        result.failures.append(f"{run_id}: {type(exc).__name__}: {exc}")
        return None
    finally:
        factor = meter.close(token, meter.clock() - start)
    result.completed += 1
    result.sample(algorithm, wall, factor)
    return (
        f"{algorithm} {seed} {fit!r} {report.fitness!r} {report.dv_total!r} "
        f"{report.energy_total!r} {report.response_total!r}"
    ), fit


def run_sweep(result, tracer, run_id, plan, out_dir: Path):
    """One ``run_experiment`` call; returns the sha256 of its records.csv
    (None if it raised) and the call's wall time.  Trial failures that the
    harness caught count as failed runs."""
    n_trials = len(plan.task_counts) * plan.repetitions * len(plan.algorithms)
    result.attempted += n_trials
    if tracer is not None:
        tracer.run_id = run_id
    plan = replace(plan, output_dir=str(out_dir))
    try:
        start = perf_counter()
        records = harness.run_experiment(plan, write_reports=True)
        wall = perf_counter() - start
        digest = sha256((out_dir / "records.csv").read_bytes())
        reports = len(list((out_dir / "reports").glob("*.json")))
    except Exception as exc:
        result.failures.append(f"{run_id}: {type(exc).__name__}: {exc}")
        return None, None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    missing = n_trials - len(records)
    result.failures.extend(f"{run_id}: harness trial failed" for _ in range(missing))
    if reports != len(records):
        result.failures.append(f"{run_id}: {reports} reports for {len(records)} records")
    result.completed += len(records)
    result.harness.append((wall, plan.workers, records))
    return digest, wall


class TrialProbes:
    """Measures every harness trial with a ``Meter`` inside the pool worker
    that runs it, since the sweep's parent only waits.  Each worker appends
    one line per trial to a spool file of its own; ``collect`` returns
    {(algorithm, task_count, seed): (wall s, corrected s)} and deletes the
    files.  The wall time includes the sampling handler's time, as the
    harness's own timing of the call inside the trial does.

    The wrapper keeps the module and qualified name of ``_safe_trial``
    (functools.wraps), so the pool pickles it by reference and forked
    workers resolve it to the wrapper, as the tracer's does."""

    def __init__(self, spool_dir: Path, interval):
        self.spool_dir = spool_dir
        self.interval = interval
        self.original = None

    def install(self):
        original = self.original = harness._safe_trial
        spool_dir, interval = self.spool_dir, self.interval
        spool_dir.mkdir(parents=True, exist_ok=True)

        @functools.wraps(original)
        def probed_trial(args):
            _, algorithm, task_count, seed = args
            with Meter(interval) as meter:
                out, seconds, factor = meter.measure(original, args)
            with open(spool_dir / f"speed-{os.getpid()}.tsv", "a") as fh:
                fh.write(f"{algorithm}\t{task_count}\t{seed}\t"
                         f"{seconds + meter.stolen!r}\t{seconds * factor!r}\n")
            return out

        harness._safe_trial = probed_trial

    def uninstall(self):
        harness._safe_trial = self.original

    def collect(self) -> dict:
        trials = {}
        for path in sorted(self.spool_dir.glob("speed-*.tsv")):
            for line in path.read_text().splitlines():
                algorithm, task_count, seed, wall, corrected = line.split("\t")
                trials[algorithm, int(task_count), int(seed)] = (float(wall), float(corrected))
            path.unlink()
        return trials


def check_pins(result, pins):
    """Compare every fingerprint with its pin; each run under a mismatching
    or missing pin counts as failed."""
    for key, (digest, runs) in sorted(result.fingerprints.items()):
        workload, _, entry = key.partition(":")
        pinned = pins.get(workload, {}).get(entry)
        if pinned != digest:
            result.failures.extend(
                f"{key}: fingerprint {digest} != pinned {pinned}" for _ in range(runs)
            )


# A fixed tiny sweep through the harness (one worker, every algorithm,
# per-run reports).  large-600 and small-6x3 run it after their timed loop:
# it checks the harness end to end against a pinned records.csv and, in the
# traced mode, supplies their harness.* layer metrics.
PROBE_PLAN = harness.ExperimentPlan(
    task_counts=(30,),
    n_nodes=5,
    repetitions=1,
    geo=geo.GeoParams(population_size=10, iterations=20),
    igeo=igeo.IgeoParams(population_size=10, iterations=20),
    rl=rl.RlConfig(episodes=200),
    workers=1,
)
PROBE_POOL = 8


def run_probe(result, tracer, seed, work_dir: Path):
    entry = seed % PROBE_POOL
    plan = replace(PROBE_PLAN, base_seed=entry)
    digest, _ = run_sweep(result, tracer, f"probe/{entry}", plan, work_dir / f"probe-{entry}")
    if digest is not None:
        result.fingerprints[f"probe:{entry}"] = (digest, len(plan.algorithms))


def warm_up():
    """Run every algorithm once on a tiny instance, so first-call costs
    (lazy imports, allocator growth) stay out of the timed loop."""
    instance, weights = harness_prep(12, 4, 0)
    for algorithm in ALGORITHMS:
        schedule(algorithm, instance, weights, 0, PROBE_PLAN)
    for _ in range(20):
        probe()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A pool of seeded entries walked from ``seed * stride``; each entry
    expands to one or more work units."""

    pool: int
    stride: int

    def entry_units(self, entry):
        return [entry]

    def entries(self, seed):
        """The units of each entry in turn, endlessly."""
        for i in itertools.count():
            yield self.entry_units((seed * self.stride + i) % self.pool)

    def check(self, result):
        """Output checks beyond the pinned fingerprints."""


class Large600(Workload):
    """600 tasks x 20 nodes, default search parameters, every algorithm on
    each seeded instance; each run gets a fresh Instance (as the harness
    does), so the fitness cache starts empty."""

    name = "large-600"
    pool, stride = 41, 4
    plan = harness.ExperimentPlan()  # default GEO/IGEO/RL parameters
    trace_entries = 1
    uses_probe = True

    def entry_units(self, scenario):
        return [(scenario, algorithm) for algorithm in ALGORITHMS]

    def prepare(self, seed):
        harness_prep(600, 20, (seed * self.stride) % self.pool)

    def execute(self, unit, result, tracer):
        scenario, algorithm = unit
        instance, weights = result.prep(600, 20, scenario)
        run_id = f"{self.name}/{scenario}/{algorithm}"
        out = timed_run(result, tracer, run_id, algorithm, instance, weights, scenario, self.plan)
        if out is not None:
            result.fingerprints[f"{self.name}:{scenario}/{algorithm}"] = (fingerprint([out[0]]), 1)


class Small6x3(Workload):
    """The shape of acceptance criteria 2 and 3: 6 tasks x 3 nodes, one
    Instance shared by every run on it (so the fitness cache is shared, as
    in the criteria).  IGEO (pop 20, 200 iterations) and RL (2000 episodes)
    run over 10 seeds each with unit weights, exactly as the criteria do;
    GEO and RIGEO (same budgets) run over 3 seeds and the two baselines
    once, with harness-calibrated weights."""

    name = "small-6x3"
    pool, stride = 139, 14
    plan = harness.ExperimentPlan(
        geo=geo.GeoParams(population_size=20, iterations=200),
        igeo=igeo.IgeoParams(population_size=20, iterations=200),
        rl=rl.RlConfig(episodes=2000),
    )
    runs = (  # (algorithm, algorithm seeds, weights are the criteria's)
        ("IGEO-only", range(10), True),
        ("RL-only", range(10), True),
        ("GEO", range(3), False),
        ("RIGEO", range(3), False),
        ("RANDOM", range(1), False),
        ("GREEDY", range(1), False),
    )
    trace_entries = stride  # the criteria shares need as many runs as a timed run has
    uses_probe = True


    def prepare(self, seed):
        harness_prep(6, 3, (seed * self.stride) % self.pool)

    def execute(self, scenario, result, tracer):
        instance, calibrated = result.prep(6, 3, scenario)
        unit = metrics.FitnessWeights()
        lines = []
        for algorithm, seeds, criteria in self.runs:
            weights = unit if criteria else calibrated
            for seed in seeds:
                run_id = f"{self.name}/{scenario}/{algorithm}/{seed}"
                out = timed_run(result, tracer, run_id, algorithm, instance, weights, seed, self.plan)
                if out is not None:
                    lines.append(out[0])
                    if criteria:
                        result.fits.append((scenario, algorithm, out[1]))
        n_runs = sum(len(seeds) for _, seeds, _ in self.runs)
        result.fingerprints[f"{self.name}:{scenario}"] = (fingerprint(lines), n_runs)

    def check(self, result):
        """Share of IGEO and RL runs within 5 % of the exhaustive optimum
        (unit weights, every one of the 3^6 mappings through ``evaluate``)
        against the criteria thresholds; below a threshold, every run of
        that algorithm outside 5 % counts as failed."""
        optimum = {s: brute_force_optimum(s) for s in sorted({s for s, _, _ in result.fits})}
        for algorithm, threshold in CRITERIA.items():
            fits = [(s, f) for s, a, f in result.fits if a == algorithm]
            misses = [s for s, f in fits if not f <= optimum[s] * WITHIN]
            share = 1.0 - len(misses) / len(fits) if fits else 0.0
            result.criteria[algorithm] = (len(fits) - len(misses), len(fits), threshold)
            result.misses[algorithm] = misses
            if share < threshold:
                result.failures.extend(
                    f"{self.name}:{s}: {algorithm} outside 5 % of optimum "
                    f"(share {share:.3f} < {threshold})"
                    for s in misses
                )


def brute_force_optimum(scenario):
    topology, tasks = model.generate_scenario(
        model.ScenarioConfig(n_tasks=6, n_nodes=3, rng_seed=scenario)
    )
    instance = model.Instance(topology, tasks)
    weights = metrics.FitnessWeights()
    node_ids = [n.id for n in topology.nodes]
    task_ids = [t.id for t in tasks]
    return min(
        metrics.evaluate(
            instance, model.build_assignment(tasks, dict(zip(task_ids, choice))), weights
        ).fitness
        for choice in itertools.product(node_ids, repeat=len(task_ids))
    )


class Sweep2w(Workload):
    """``run_experiment`` with two pool workers over every algorithm at 200
    and 600 tasks x 20 nodes, one seed per task count, per-run reports
    written; records.csv is checked against its pinned sha256."""

    name = "sweep-2w"
    pool, stride = 41, 4
    plan = harness.ExperimentPlan(task_counts=(200, 600), n_nodes=20, repetitions=1, workers=2)
    trace_entries = 1
    uses_probe = False

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir


    def prepare(self, seed):
        base = 2 * ((seed * self.stride) % self.pool)
        harness_prep(200, 20, base)
        harness_prep(600, 20, base + 1)

    def execute(self, entry, result, tracer):
        plan = replace(self.plan, base_seed=2 * entry)
        run_id = f"{self.name}/{entry}"
        probes = TrialProbes(self.work_dir / f"speed-{entry}", result.meter.interval)
        probes.install()
        try:
            with result.meter.paused():
                digest, wall = run_sweep(
                    result, tracer, run_id, plan, self.work_dir / f"sweep-{entry}"
                )
        finally:
            probes.uninstall()
        trials = probes.collect()
        if digest is None:
            return
        # the sweep as a whole runs at the mean speed of its trials
        trial_wall = sum(w for w, _ in trials.values())
        result.meter.add(wall, wall * sum(c for _, c in trials.values()) / trial_wall)
        records = result.harness[-1][2]
        result.fingerprints[f"{self.name}:{entry}"] = (digest, len(records))
        for record in records:
            if record.task_count == max(plan.task_counts):
                trial, corrected = trials[record.algorithm, record.task_count, record.seed]
                result.sample(record.algorithm, record.wall_time / 1000.0, corrected / trial)



def make(name, work_dir: Path):
    if name == Sweep2w.name:
        return Sweep2w(work_dir)
    return {Large600.name: Large600, Small6x3.name: Small6x3}[name]()


WORKLOAD_NAMES = (Large600.name, Small6x3.name, Sweep2w.name)


def p90(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
