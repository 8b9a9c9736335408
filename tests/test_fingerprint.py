"""Behaviour fingerprints of the optimizers: the sha256 of each optimizer's
pickled result on fixed seeded instances, pinned in
``fingerprint_pins.json``.

GEO, IGEO-only and RL-only pin ``(sorted mapping items, fitness, trace)``;
RIGEO pins its ``(assignment, report)``.  A change that moves one bit of a
search fails here.  The pins hold for the numpy and Python versions stored
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
from pathlib import Path

import numpy as np
import pytest

from fogsched import (
    GeoParams,
    IgeoParams,
    RlConfig,
    calibrate_weights,
    geo_optimize,
    igeo_optimize,
    rigeo_schedule,
    rl_optimize,
)

from conftest import make_instance

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


def _pin():
    doc = {**_versions(), "pins": {_case_id(case): _digest(case) for case in CASES}}
    PINS.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fingerprint.py --pin")
    _pin()
