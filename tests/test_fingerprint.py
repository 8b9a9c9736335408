"""Behaviour fingerprints of the optimizers: the sha256 of each optimizer's
pickled result on fixed seeded instances, pinned in
``fingerprint_pins.json``.

GEO, IGEO-only and RL-only pin ``(sorted mapping items, fitness, trace)``;
RIGEO pins its ``(assignment, report)``.  One small sweep of every
algorithm pins its ``records.csv``, ``summary.csv`` and ``reports/``, run
with one worker and with two, and once more with one worker and a fitness
cache budget of 0.  A change that moves one bit of a search
fails here.  GEO, IGEO-only and RL-only also pin their work at 600 tasks x
20 nodes: the fitness requests a run makes, which a faster search must not
cut, and the kernel rows it scores, which a fitness cache saves.  The pins hold for the numpy and Python versions stored
with them (a ``Generator`` stream may change between numpy releases), and
the test skips on any other pair.

A change that is meant to alter the results re-pins with

    PYTHONPATH=src python tests/test_fingerprint.py --pin

and says why in its change notes.
"""

import hashlib
import json
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fogsched import (
    ExperimentPlan,
    GeoParams,
    IgeoParams,
    RlConfig,
    calibrate_weights,
    geo_optimize,
    igeo_optimize,
    rigeo_schedule,
    rl_optimize,
    run_experiment,
)
from fogsched import geo
from fogsched.geo import _SubProblem
from fogsched.metrics import _SubsetContext

from conftest import built_problems, make_instance

PINS = Path(__file__).with_name("fingerprint_pins.json")

# (tasks, nodes, scenario seed, optimizer seed); two tasks are too few
# for IGEO's two-point crossover, which falls back to one-point
SHAPES = ((2, 3, 5, 4), (6, 3, 7, 1), (40, 5, 11, 2), (200, 20, 13, 3))


def _versions():
    return {"numpy": np.__version__, "python": "%d.%d" % sys.version_info[:2]}


def _run(algorithm, n_tasks, n_nodes, scenario_seed, seed):
    instance = make_instance(n_tasks, n_nodes, seed=scenario_seed)
    weights = calibrate_weights(instance, seed=seed)
    if algorithm == "RIGEO":
        return rigeo_schedule(
            instance,
            IgeoParams(population_size=10, iterations=40, rng_seed=seed),
            RlConfig(episodes=400, rng_seed=seed),
            weights,
        )
    nodes = [n.id for n in instance.topology.nodes]
    tasks = [t.id for t in instance.tasks]
    trace = []
    if algorithm == "GEO":
        params = GeoParams(population_size=20, iterations=50, rng_seed=seed)
        assignment, fit = geo_optimize(instance, nodes, tasks, params, weights, trace=trace)
    elif algorithm == "IGEO-only":
        params = IgeoParams(population_size=20, iterations=50, rng_seed=seed)
        assignment, fit = igeo_optimize(instance, nodes, tasks, params, weights, trace=trace)
    else:
        # a floor of 1 / k leaves a projection scale of 0: every episode
        # ends on uniform preferences
        floor = 1.0 if algorithm == "RL-floor" else RlConfig.probability_floor
        config = RlConfig(episodes=600, probability_floor=floor, rng_seed=seed)
        assignment, fit = rl_optimize(instance, nodes, tasks, config, weights, trace=trace)
    return sorted(assignment.mapping.items()), fit, trace


CASES = [
    (algorithm, *shape)
    for algorithm in ("GEO", "IGEO-only", "RL-only", "RL-floor", "RIGEO")
    for shape in SHAPES
]


def _case_id(case):
    algorithm, n_tasks, n_nodes, _, _ = case
    return f"{algorithm}-{n_tasks}x{n_nodes}"


def _digest(case):
    return hashlib.sha256(pickle.dumps(_run(*case))).hexdigest()


# two task counts x two repetitions x every algorithm, with small budgets
SWEEP = dict(
    task_counts=(8, 40),
    n_nodes=5,
    repetitions=2,
    geo=GeoParams(population_size=10, iterations=20),
    igeo=IgeoParams(population_size=10, iterations=20),
    rl=RlConfig(episodes=200),
)
SWEEP_WORKERS = (1, 2)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _sweep_digests(workers, out):
    """Run the sweep into ``out``; returns the sha256 of its records.csv
    and summary.csv, and one of its reports/ (each file's name and bytes,
    in name order)."""
    run_experiment(ExperimentPlan(**SWEEP, workers=workers, output_dir=str(out)))
    reports = b"".join(
        path.name.encode() + b"\0" + path.read_bytes()
        for path in sorted((out / "reports").iterdir())
    )
    return {
        f"sweep-w{workers}-records.csv": _sha256((out / "records.csv").read_bytes()),
        f"sweep-w{workers}-summary.csv": _sha256((out / "summary.csv").read_bytes()),
        f"sweep-w{workers}-reports": _sha256(reports),
    }


WORK_ALGORITHMS = ("GEO", "IGEO-only", "RL-only")


def _work_key(algorithm):
    return f"work-{algorithm}-600x20"


def _work(algorithm):
    """The fitness requests and kernel rows of one run at the default
    search parameters on 600 tasks x 20 nodes, scenario and search seed 1."""
    counts = {"fitness_requests": 0, "kernel_rows": 0}
    scorer, fitness_many, kernel = _SubProblem.scorer, _SubProblem.fitness_many, _SubsetContext.fitness

    def counted_scorer(problem):
        score = scorer(problem)

        def counted(genome):
            counts["fitness_requests"] += 1
            return score(genome)

        return counted

    def counted_many(problem, genomes, *known):
        counts["fitness_requests"] += len(genomes)
        return fitness_many(problem, genomes, *known)

    def counted_kernel(ctx, node_idx, weights):
        counts["kernel_rows"] += len(np.atleast_2d(node_idx))
        return kernel(ctx, node_idx, weights)

    instance = make_instance(600, 20, seed=1)
    weights = calibrate_weights(instance, seed=1)
    nodes, tasks = [n.id for n in instance.topology.nodes], [t.id for t in instance.tasks]
    optimize, params = {
        "GEO": (geo_optimize, GeoParams(rng_seed=1)),
        "IGEO-only": (igeo_optimize, IgeoParams(rng_seed=1)),
        "RL-only": (rl_optimize, RlConfig(rng_seed=1)),
    }[algorithm]
    _SubProblem.scorer, _SubProblem.fitness_many = counted_scorer, counted_many
    _SubsetContext.fitness = counted_kernel
    try:
        optimize(instance, nodes, tasks, params, weights)
    finally:
        _SubProblem.scorer, _SubProblem.fitness_many = scorer, fitness_many
        _SubsetContext.fitness = kernel
    return counts


@pytest.fixture(scope="module")
def pins():
    stored = json.loads(PINS.read_text())
    here = _versions()
    made = {key: stored[key] for key in here}
    if made != here:
        pytest.skip(f"pins made with {made}, running {here}")
    return stored["pins"]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_optimizer_fingerprint(case, pins):
    assert _digest(case) == pins[_case_id(case)]


@pytest.mark.parametrize("workers", SWEEP_WORKERS)
def test_sweep_fingerprint(workers, pins, tmp_path):
    digests = _sweep_digests(workers, tmp_path)
    assert not (tmp_path / "failures.csv").exists()
    assert digests == {key: pins[key] for key in digests}


def test_sweep_fingerprint_with_a_zero_cache_budget(pins, tmp_path, monkeypatch):
    """A fitness cache changes only speed: with a budget no run fits, so
    that no run keeps a cache, the one-worker sweep writes its pinned
    bytes."""
    monkeypatch.setattr(geo, "_CACHE_BYTES", 0)
    built = built_problems(monkeypatch)
    digests = _sweep_digests(1, tmp_path)
    assert digests == {key: pins[key] for key in digests}
    assert built and all(problem._cache is None for problem in built)


@pytest.mark.parametrize("algorithm", WORK_ALGORITHMS)
def test_optimizer_work(algorithm, pins):
    assert _work(algorithm) == pins[_work_key(algorithm)]


def _pin():
    pins = {_case_id(case): _digest(case) for case in CASES}
    for workers in SWEEP_WORKERS:
        with tempfile.TemporaryDirectory() as out:
            pins.update(_sweep_digests(workers, Path(out)))
    pins.update({_work_key(algorithm): _work(algorithm) for algorithm in WORK_ALGORITHMS})
    doc = {**_versions(), "pins": pins}
    PINS.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fingerprint.py --pin")
    _pin()
