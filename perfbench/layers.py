"""Per-layer metrics of a traced run, computed from its spans.

Spans of the fixed harness probe (run ids starting with ``probe/``) feed
only the harness.* metrics; every other layer metric comes from the
workload's own runs.  A layer metric with no span to compute it from raises,
because that means the workload no longer exercises the layer (or the
tracer no longer sees it).
"""

from __future__ import annotations

import statistics

from spans import END, META, NAME, PARENT, RUN, START, scheduler_roots, self_times

RIGEO_PHASES = (
    ("rigeo.classify_ms", "rigeo.classify_nodes", 1e3, "ms"),
    ("rigeo.partition_ms", "rigeo.partition_tasks", 1e3, "ms"),
    ("rigeo.igeo_half_s", "igeo.igeo_optimize", 1.0, "s"),
    ("rigeo.rl_half_s", "rl.rl_optimize", 1.0, "s"),
    ("rigeo.merge_ms", "model.merge_assignments", 1e3, "ms"),
    ("rigeo.reevaluate_ms", "metrics.evaluate", 1e3, "ms"),
)

MEDIAN_MS = (
    ("model.generate_scenario_ms", "model.generate_scenario"),
    ("metrics.evaluator_build_ms", "metrics.evaluator_build"),
    ("metrics.calibrate_ms", "metrics.calibrate_weights"),
    ("metrics.evaluate_ms", "metrics.evaluate"),
    ("baselines.greedy_ms", "baselines.baseline_greedy"),
    ("baselines.random_ms", "baselines.baseline_random"),
)


def _require(values, what):
    if not values:
        raise RuntimeError(f"traced run has no {what} spans")
    return values


def layer_metrics(spans, harness_runs) -> dict:
    """name -> (value, unit) for every per-layer metric except the trace.*
    ones.  ``harness_runs`` holds (wall s, workers, records) per traced
    ``run_experiment`` call."""
    duration = [s[END] - s[START] for s in spans]
    own = self_times(spans)
    program = [i for i, s in enumerate(spans) if not (s[RUN] or "").startswith("probe/")]
    by_name = {}
    for i in program:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def named(name):
        return _require(by_name.get(name, []), name)

    out = {}
    kernel = named("metrics.kernel")
    kernel_s = sum(duration[i] for i in kernel)
    program_set = set(program)
    roots = [i for i in scheduler_roots(spans) if i in program_set]
    out["metrics.kernel_us"] = (kernel_s / len(kernel) * 1e6, "us")
    out["metrics.kernel_share"] = (kernel_s / sum(duration[i] for i in _require(roots, "scheduler")), "ratio")

    requests = 0
    for name, unit_key, metric in (
        ("geo.geo_optimize", "iterations", "geo.iter_us"),
        ("igeo.igeo_optimize", "iterations", "igeo.iter_us"),
        ("rl.rl_optimize", "episodes", "rl.episode_us"),
    ):
        calls = named(name)
        steps = sum(spans[i][META][unit_key] for i in calls)
        out[metric] = (sum(own[i] for i in calls) / steps * 1e6, "us")
        if unit_key == "iterations":  # initial flock plus one per eagle per iteration
            requests += sum(
                spans[i][META]["population_size"] * (spans[i][META]["iterations"] + 1)
                for i in calls
            )
        else:  # the initial sample plus one per episode
            requests += steps + len(calls)
    out["metrics.kernel_calls"] = (len(kernel), "count")
    out["metrics.fitness_requests"] = (requests, "count")
    out["metrics.cache_hit_ratio"] = (1.0 - len(kernel) / requests, "ratio")

    children = {}
    for i in program:
        if spans[i][PARENT] is not None:
            children.setdefault(spans[i][PARENT], []).append(i)
    for metric, child, scale, unit in RIGEO_PHASES:
        per_run = [
            sum(duration[c] for c in children.get(r, []) if spans[c][NAME] == child)
            for r in named("rigeo.rigeo_schedule")
        ]
        out[metric] = (statistics.median(per_run) * scale, unit)

    for metric, name in MEDIAN_MS:
        out[metric] = (statistics.median(duration[i] for i in named(name)) * 1e3, "ms")

    out.update(harness_metrics(spans, _require(harness_runs, "harness")))
    return out


def harness_metrics(spans, harness_runs) -> dict:
    """Trial wall times come from RunRecord.wall_time (the harness's own
    timing of the scheduler call); the rest from the sweep's wall clock."""
    trial_ms = [r.wall_time for _, _, records in harness_runs for r in records]
    capacity_ms = sum(wall * workers for wall, workers, _ in harness_runs) * 1e3
    # time from the last trial's end to run_experiment's return: result
    # collection, pool shutdown, CSV and JSON writes
    trials = [s for s in spans if s[NAME] == "harness.trial"]
    write_ms = []
    for sweep in (s for s in spans if s[NAME] == "harness.run_experiment"):
        inside = [t[END] for t in trials if sweep[START] <= t[START] and t[END] <= sweep[END]]
        write_ms.append((sweep[END] - max(_require(inside, "harness.trial"))) * 1e3)
    return {
        "harness.trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "harness.busy_share": (sum(trial_ms) / capacity_ms, "ratio"),
        "harness.overhead_ms_per_trial": ((capacity_ms - sum(trial_ms)) / len(trial_ms), "ms"),
        "harness.write_ms": (statistics.median(_require(write_ms, "run_experiment")), "ms"),
    }
