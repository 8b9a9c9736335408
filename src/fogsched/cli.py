"""Command-line entry points: generate scenarios, run one algorithm on a
scenario file, run a full experiment sweep, aggregate record files."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .geo import GeoParams
from .harness import (
    ALGORITHMS,
    TRACE_HEADERS,
    ExperimentPlan,
    aggregate,
    read_records,
    run_and_evaluate,
    run_experiment,
    write_summary,
)
from .igeo import IgeoParams
from .model import (
    Instance,
    ScenarioConfig,
    generate_scenario,
    load_scenario,
    save_scenario,
    validate_instance,
)
from .rl import RlConfig


def _parse_weights(text: str):
    try:
        w_response, w_deadline, w_energy = map(float, text.split(","))
    except ValueError:  # a part that is no number, or not three parts
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers w_response,w_deadline,w_energy, got {text!r}"
        ) from None
    return w_response, w_deadline, w_energy


def _parse_int_list(text: str):
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers such as 200,400, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogsched",
        description="Deadline-aware fog task-scheduling workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config, plan = ScenarioConfig(), ExperimentPlan()

    gen = sub.add_parser("generate", help="write a seeded scenario file")
    gen.add_argument("--tasks", type=int, default=config.n_tasks)
    gen.add_argument("--nodes", type=int, default=config.n_nodes)
    gen.add_argument("--seed", type=int, default=config.rng_seed)
    gen.add_argument("--out", required=True, help="output scenario JSON path")

    run = sub.add_parser("run", help="run one algorithm on a scenario file")
    run.add_argument("scenario", help="scenario JSON path")
    run.add_argument("--algorithm", choices=ALGORITHMS, default="RIGEO")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--weights", type=_parse_weights, default=plan.fitness_weights,
                     help="w_response,w_deadline,w_energy")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--trace", action="store_true",
                     help="write a per-iteration convergence trace CSV "
                          f"({', '.join(TRACE_HEADERS)} only)")

    exp = sub.add_parser("experiment", help="run a full sweep")
    exp.add_argument("--tasks", type=_parse_int_list, default=plan.task_counts)
    exp.add_argument("--nodes", type=int, default=plan.n_nodes)
    exp.add_argument("--reps", type=int, default=plan.repetitions)
    exp.add_argument("--algorithms", default=",".join(ALGORITHMS))
    exp.add_argument("--seed", type=int, default=plan.base_seed)
    exp.add_argument("--weights", type=_parse_weights, default=plan.fitness_weights)
    exp.add_argument("--out", default=plan.output_dir)
    exp.add_argument("--workers", type=int, default=plan.workers)
    exp.add_argument("--pop", type=int, default=plan.geo.population_size)
    exp.add_argument("--iters", type=int, default=plan.geo.iterations)
    exp.add_argument("--episodes", type=int, default=plan.rl.episodes)

    agg = sub.add_parser("aggregate", help="summarize a records.csv file")
    agg.add_argument("records", help="records.csv path")
    agg.add_argument("--out", default="summary.csv")

    return parser


def _check_seed(args) -> None:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def _cmd_generate(args) -> int:
    _check_seed(args)
    config = ScenarioConfig(n_tasks=args.tasks, n_nodes=args.nodes, rng_seed=args.seed)
    topology, tasks = generate_scenario(config)
    save_scenario(args.out, config, topology, tasks)
    print(f"wrote scenario with {len(tasks)} tasks / {len(topology.nodes)} nodes to {args.out}")
    return 0


def _cmd_run(args) -> int:
    _check_seed(args)
    if args.trace and args.algorithm not in TRACE_HEADERS:
        raise ValueError(
            f"--trace is not available for {args.algorithm}; "
            f"only {', '.join(TRACE_HEADERS)} write a trace"
        )
    _, topology, tasks = load_scenario(args.scenario)
    result = validate_instance(topology, tasks)
    if not result.ok:
        for violation in result.violations:
            print(f"invalid scenario: {violation}", file=sys.stderr)
        return 1
    plan = ExperimentPlan(fitness_weights=args.weights)  # refuses a bad weight before any output
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = [] if args.trace else None
    report, wall_ms = run_and_evaluate(
        plan, args.algorithm, Instance(topology, tasks), args.seed,
        trace=trace, summary_path=out / "routing_summary.json",
    )
    (out / "report.json").write_text(report.to_json() + "\n")
    if trace:
        with open(out / f"trace_{args.algorithm}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_HEADERS[args.algorithm])
            writer.writerows(trace)
    print(
        f"{args.algorithm}: dv_total={report.dv_total:.3f} ms, "
        f"energy_total={report.energy_total:.3f} J, "
        f"response_total={report.response_total:.3f} ms, "
        f"fitness={report.fitness:.6f} ({wall_ms:.0f} ms)"
    )
    return 0


def _cmd_experiment(args) -> int:
    try:
        plan = ExperimentPlan(
            task_counts=args.tasks,
            n_nodes=args.nodes,
            repetitions=args.reps,
            algorithms=tuple(args.algorithms.split(",")),
            base_seed=args.seed,
            output_dir=args.out,
            geo=GeoParams(population_size=args.pop, iterations=args.iters),
            igeo=IgeoParams(population_size=args.pop, iterations=args.iters),
            rl=RlConfig(episodes=args.episodes),
            fitness_weights=args.weights,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"invalid plan: {exc}", file=sys.stderr)
        return 1
    records = run_experiment(plan)
    out = Path(args.out)
    print(f"wrote {len(records)} records to {out / 'records.csv'}")
    trials = len(plan.task_counts) * plan.repetitions * len(plan.algorithms)
    if len(records) < trials:
        failed = trials - len(records)
        raise ValueError(f"{failed} of {trials} trials failed; see {out / 'failures.csv'}")
    return 0


def _cmd_aggregate(args) -> int:
    write_summary(aggregate(read_records(args.records)), args.out)
    print(f"wrote summary to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"generate": _cmd_generate, "run": _cmd_run,
               "experiment": _cmd_experiment, "aggregate": _cmd_aggregate}[args.command]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
