"""In-memory span tracer for the benchmark's traced mode.

The tracer wraps fogsched's public entry points from the outside (the
program source is never edited).  Every call of a wrapped function becomes
one span ``[name, start, end, parent, run_id, meta]``: start and end are
``time.perf_counter()`` seconds, parent is the index of the enclosing span
in the same buffer (or None), run_id names the scheduler run the call
belongs to, and meta carries the search parameters of optimizer calls.

Kernel calls are counted by wrapping the ``objectives`` method of every
context that ``Evaluator.subset_context`` returns.  Harness worker
processes (forked by ``run_experiment``) inherit the wrappers; each worker
appends its spans, one JSON line per trial, to a spool file that the parent
reads back with ``collect_spool``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, RUN, META = range(6)

SCHEDULER_SPANS = (
    "rigeo.rigeo_schedule",
    "igeo.igeo_optimize",
    "geo.geo_optimize",
    "rl.rl_optimize",
    "baselines.baseline_random",
    "baselines.baseline_greedy",
)


def _search_meta(arg_name, fields):
    """Meta extractor pulling ``fields`` off the call's ``arg_name`` argument."""

    def extract(signature, args, kwargs):
        params = signature.bind(*args, **kwargs).arguments[arg_name]
        return {field: getattr(params, field) for field in fields}

    return extract


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spans = []
        self.run_id = None
        self.spool_dir = Path(spool_dir)
        self._stack = []
        self._forked = False
        self._restore = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # a forked harness worker starts with an empty buffer of its own
        self.spans, self._stack, self._forked = [], [], True

    def wrap(self, name, fn, meta=None):
        tracer = self
        signature = inspect.signature(fn) if meta else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            info = meta(signature, args, kwargs) if meta else None
            record = [name, perf_counter(), None, parent, tracer.run_id, info]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                tracer._stack.pop()

        return wrapper

    # ------------------------------------------------------------------
    # installing the wrappers

    def _replace(self, original, wrapper):
        """Point every fogsched module attribute bound to ``original`` at
        ``wrapper``, so calls through re-exported names are traced too."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "fogsched":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _set_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self):
        from fogsched import baselines, geo, harness, igeo, metrics, model, rigeo, rl

        plain = [
            ("model.generate_scenario", model.generate_scenario, None),
            ("model.merge_assignments", model.merge_assignments, None),
            ("metrics.calibrate_weights", metrics.calibrate_weights, None),
            ("metrics.evaluate", metrics.evaluate, None),
            ("rigeo.rigeo_schedule", rigeo.rigeo_schedule, None),
            ("rigeo.classify_nodes", rigeo.classify_nodes, None),
            ("rigeo.partition_tasks", rigeo.partition_tasks, None),
            ("igeo.igeo_optimize", igeo.igeo_optimize,
             _search_meta("params", ("population_size", "iterations"))),
            ("geo.geo_optimize", geo.geo_optimize,
             _search_meta("params", ("population_size", "iterations"))),
            ("rl.rl_optimize", rl.rl_optimize, _search_meta("config", ("episodes",))),
            ("baselines.baseline_random", baselines.baseline_random, None),
            ("baselines.baseline_greedy", baselines.baseline_greedy, None),
            ("harness.run_experiment", harness.run_experiment, None),
        ]
        for name, fn, meta in plain:
            self._replace(fn, self.wrap(name, fn, meta))

        self._set_method(
            metrics.Evaluator, "__init__",
            self.wrap("metrics.evaluator_build", metrics.Evaluator.__init__),
        )
        subset_context = metrics.Evaluator.subset_context
        tracer = self

        @functools.wraps(subset_context)
        def counting_subset_context(evaluator, task_ids):
            ctx = subset_context(evaluator, task_ids)
            ctx.objectives = tracer.wrap("metrics.kernel", ctx.objectives)
            return ctx

        self._set_method(metrics.Evaluator, "subset_context", counting_subset_context)

        # One span per harness trial.  The wrapper keeps the module and
        # qualified name of ``_safe_trial`` (functools.wraps), so the pool
        # still pickles it by reference and forked workers resolve it to
        # this wrapper.
        trial = self.wrap("harness.trial", harness._safe_trial)

        @functools.wraps(harness._safe_trial)
        def traced_trial(args):
            _, algorithm, task_count, seed = args
            outer_run = tracer.run_id
            tracer.run_id = f"{outer_run}/{algorithm}/{task_count}/{seed}"
            try:
                return trial(args)
            finally:
                tracer.run_id = outer_run
                if tracer._forked:
                    tracer._flush_to_spool()

        self._replace(harness._safe_trial, traced_trial)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # worker spans

    def _flush_to_spool(self):
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spool_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans, self._stack = [], []

    def collect_spool(self):
        """Append every spooled worker span to this buffer (parent indices
        rebased) and delete the spool files."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                base = len(self.spans)
                for span in json.loads(line):
                    if span[PARENT] is not None:
                        span[PARENT] += base
                    self.spans.append(span)
            path.unlink()

    def dump(self, path: Path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def scheduler_roots(spans) -> list:
    """Indices of scheduler spans that no other scheduler span encloses."""
    roots = []
    for i, span in enumerate(spans):
        if span[NAME] not in SCHEDULER_SPANS:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] not in SCHEDULER_SPANS:
            parent = spans[parent][PARENT]
        if parent is None:
            roots.append(i)
    return roots
