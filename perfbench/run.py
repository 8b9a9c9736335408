"""fogsched benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload large-600 --seed 0 --seconds 35 --trace 0

Workloads: large-600, small-6x3, sweep-2w (see perfbench/README.md).  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
seconds with no tracing; with ``--trace 1`` it runs a fixed number
of work units untraced and then traced, and reports the per-layer metrics
and the tracing overhead.  Timings are wall times corrected for the
host's momentary speed with the reference probes of perfbench/speed.py;
the raw wall-time medians are printed alongside.  Every run checks its outputs against
perfbench/pins.json and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  It exits non-zero if any run
failed or any output check missed.

    python3 perfbench/run.py --pin [--workload NAME]

recomputes the pinned fingerprints of every pool entry (no timing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

# one BLAS/OpenMP thread per process, so two pool workers stay within 2 CPUs;
# set before numpy is imported, inherited by every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
TIMED = {"RIGEO": "rigeo", "IGEO-only": "igeo", "GEO": "geo", "RL-only": "rl"}

END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("rigeo_run_s_p50", "s"),
    ("igeo_run_s_p50", "s"),
    ("geo_run_s_p50", "s"),
    ("rl_run_s_p50", "s"),
    ("igeo_run_s_p90", "s"),
    ("rl_run_s_p90", "s"),
    ("peak_rss_mb", "MB"),
)

# the benchmark builds on the checkout's own source, never an installed copy
if not (SRC / "fogsched" / "__init__.py").is_file():
    sys.exit(f"error: no fogsched source under {SRC}")
sys.path.insert(0, str(SRC))

import fogsched  # noqa: E402
import workloads  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Meter  # noqa: E402

if Path(fogsched.__file__).resolve().parent != SRC / "fogsched":
    sys.exit(f"error: imported fogsched from {fogsched.__file__}")

# one fresh interpreter: import the program, prepare one instance, then
# probe the host's speed (median of three probes) to correct that time
SETUP_SNIPPET = (
    "import sys, time; start = time.perf_counter(); sys.path[:0] = [{src!r}, {here!r}]; "
    "import workloads; workloads.make({name!r}, None).prepare({seed}); "
    "wall = time.perf_counter() - start; import speed, statistics; "
    "print(wall, wall * speed.NOMINAL_S / statistics.median(speed.probe() for _ in range(3)))"
)


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": commit,
    }


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up time in fresh interpreters: import fogsched, then prepare one
    instance of the workload as its runs do.  One (wall, corrected) pair
    per interpreter."""
    code = SETUP_SNIPPET.format(src=str(SRC), here=str(HERE), name=workload, seed=seed)
    return [
        tuple(map(float, subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()))
        for _ in range(SETUP_REPEATS)
    ]


def loop(workload, seed, result, tracer, seconds=None, count=None):
    """Closed loop over the workload's pool entries: stop after ``count``
    entries, or once ``seconds`` have passed and every timed algorithm has a
    sample.  A started entry always finishes, so every run has the same mix
    of algorithms (a large-600 entry is one scenario with all six)."""
    start = perf_counter()
    done = 0
    with result.meter:
        for units in workload.entries(seed):
            elapsed = perf_counter() - start
            if count is not None and done >= count:
                break
            if seconds is not None and elapsed >= seconds and (
                set(TIMED) <= set(result.walls) or elapsed >= 3 * seconds
            ):
                break
            for unit in units:
                workload.execute(unit, result, tracer)
            done += 1
    result.loop_wall = perf_counter() - start
    result.loop_time = result.meter.corrected
    return result.completed


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every child it has waited
    for (the sweep's pool workers)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def check(workload, result, pins):
    workload.check(result)
    workloads.check_pins(result, pins)


# ---------------------------------------------------------------------------
# the two modes


def summarize(result, algorithm, statistic):
    samples = result.walls.get(algorithm, [])
    return statistic(samples) if samples else float("nan"), len(samples)


def run_untraced(workload, seed, seconds, work, pins):
    result = workloads.Result()
    workloads.warm_up()
    loop_runs = loop(workload, seed, result, None, seconds=seconds)
    rss = peak_rss_mb()
    if workload.uses_probe:
        workloads.run_probe(result, None, seed, work)
    check(workload, result, pins)
    setup = setup_seconds(workload.name, seed)

    values = {  # name -> (value, sample count)
        "setup_s": (statistics.median(c for _, c in setup), len(setup)),
        "runs_per_s": (loop_runs / result.loop_time, loop_runs),
        "peak_rss_mb": (rss, 1),
    }
    for algorithm, short in TIMED.items():
        values[f"{short}_run_s_p50"] = summarize(result, algorithm, statistics.median)
    for algorithm in ("IGEO-only", "RL-only"):
        values[f"{TIMED[algorithm]}_run_s_p90"] = summarize(result, algorithm, workloads.p90)
    metrics = {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}
    extra = {
        "loop_wall_s": result.loop_wall,
        "loop_time_s": result.loop_time,
        "raw_run_s_p50": {
            TIMED[a]: statistics.median(w) for a, w in result.raw_walls.items() if a in TIMED
        },
        "raw_setup_s": statistics.median(w for w, _ in setup),
        "speed_factor_p50": statistics.median(result.meter.factors),
        "criteria": result.criteria,
    }
    return result, metrics, extra


def run_traced(workload, seed, work, pins):
    workloads.warm_up()
    # both passes sample the host's speed only at the ends of segments, so
    # no sampling handler runs inside the traced spans
    plain = workloads.Result(meter=Meter(None))
    loop(workload, seed, plain, None, count=workload.trace_entries)

    tracer = Tracer(work / "spool")
    tracer.install()
    try:
        traced = workloads.Result(meter=Meter(None))
        traced_runs = loop(workload, seed, traced, tracer, count=workload.trace_entries)
        if workload.uses_probe:
            workloads.run_probe(traced, tracer, seed, work)
        tracer.collect_spool()
    finally:
        tracer.uninstall()

    for result in (plain, traced):
        check(workload, result, pins)
    merged = workloads.Result(
        completed=plain.completed + traced.completed,
        attempted=plain.attempted + traced.attempted,
        failures=plain.failures + traced.failures,
    )
    values = layer_metrics(tracer.spans, traced.harness)
    values["trace.runs_per_s_untraced"] = (plain.completed / plain.loop_time, "1/s")
    values["trace.runs_per_s_traced"] = (traced_runs / traced.loop_time, "1/s")
    values["trace.overhead_share"] = (traced.loop_time / plain.loop_time - 1.0, "ratio")
    tracer.dump(OUT / f"{workload.name}-seed{seed}-spans.jsonl")
    extra = {"spans": len(tracer.spans), "entries": workload.trace_entries}
    return merged, {k: (v, u, None) for k, (v, u) in values.items()}, extra


def run_pin(names, work):
    """Recompute every pool entry's fingerprint and rewrite pins.json."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for name in names:
        workload = workloads.make(name, work)
        result = workloads.Result()
        start = perf_counter()
        for entry in range(workload.pool):
            for unit in workload.entry_units(entry):
                workload.execute(unit, result, None)
        workload.check(result)
        for algorithm, missed in result.misses.items():  # worst run-sized window
            per_entry = Counter(missed)
            worst = max(
                sum(per_entry[(i + k) % workload.pool] for k in range(workload.stride))
                for i in range(workload.pool)
            )
            print(f"  {algorithm}: at most {worst} runs outside 5 % in "
                  f"{workload.stride} consecutive entries")
        pins[name] = {k.partition(":")[2]: p for k, (p, _) in sorted(result.fingerprints.items())}
        print(f"{name}: {len(pins[name])} pins, {result.completed} runs, "
              f"{len(result.failures)} failed, criteria {result.criteria}, "
              f"{perf_counter() - start:.0f} s", flush=True)
        if workload.uses_probe:
            probe = workloads.Result()
            for entry in range(workloads.PROBE_POOL):
                workloads.run_probe(probe, None, entry, work)
            pins["probe"] = {k.partition(":")[2]: p for k, (p, _) in sorted(probe.fingerprints.items())}
        if result.failures:
            raise SystemExit("pin run failed: " + "; ".join(result.failures[:5]))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.pin:
            run_pin([args.workload] if args.workload else workloads.WORKLOAD_NAMES, work)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        pins = json.loads(PINS.read_text())
        workload = workloads.make(args.workload, work)
        if args.trace:
            result, metrics, extra = run_traced(workload, args.seed, work, pins)
        else:
            result, metrics, extra = run_untraced(workload, args.seed, args.seconds, work, pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host = machine()
    failed = len(result.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"failed {failed}/{result.attempted}")
    for name, (value, unit, count) in metrics.items():
        samples = "" if count is None else f"  (n={count})"
        print(f"  {name:32s} {value:14.6g} {unit}{samples}")
    for message, times in list(Counter(result.failures).items())[:20]:
        print(f"  FAILED x{times} {message}")
    print("  " + json.dumps(extra))
    print("  machine " + json.dumps(host))

    summary = {
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  samples={k: c for k, (_, _, c) in metrics.items()}, machine=host,
                  failures=result.failures, **extra)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
