"""Wrapper-based span tracing of the scoregraph package, driven from outside it.

`Tracer.installed()` replaces each traced public function with a wrapper, in
every scoregraph module that binds it, and restores the originals on exit.
Each call records a span (name, start, end, parent) in memory.  Self time is
a span's duration minus the time covered by its traced child spans, so the
self times of all names plus the unattributed remainder add up to the wall
time of the traced region.  The package has no queues or threads, so there
is no waiting time to record.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, defining module, attribute): patched wherever the package binds it
FUNCTIONS = (
    ("graph.sample", "scoregraph.graph", "sample_score_graph"),
    ("graph.score", "scoregraph.graph", "generate_scores"),
    ("graph.aggregate", "scoregraph.graph", "aggregate_counts"),
    ("logdomain.counted_log_factor", "scoregraph._logdomain", "counted_log_factor"),
    ("classifier.soft_classify", "scoregraph.classifier", "soft_classify"),
    ("estimators.nr_objective", "scoregraph.estimators", "nr_objective"),
    ("estimators.nr_gradient", "scoregraph.estimators", "nr_gradient"),
    ("estimators.fr_objective", "scoregraph.estimators", "fr_objective"),
    ("estimators.fr_gradient", "scoregraph.estimators", "fr_gradient"),
    ("estimators.lipschitz", "scoregraph.estimators", "lipschitz_stepsize"),
    ("estimators.solve", "scoregraph.estimators", "projected_gradient_solve"),
    ("estimators.estimate", "scoregraph.estimators", "estimate"),
    ("distributed.step", "scoregraph.distributed", "local_gradient_step"),
    ("distributed.run", "scoregraph.distributed", "run_distributed"),
    ("experiments.run_sweep", "scoregraph.experiments", "run_sweep"),
    ("experiments.emit", "scoregraph.experiments", "emit_outputs"),
)
# scipy's logsumexp is one object imported by two modules; each gets its own name
MODULE_LOCAL = (
    ("estimators.logsumexp", "scoregraph.estimators", "logsumexp"),
    ("classifier.logsumexp", "scoregraph.classifier", "logsumexp"),
)
METHODS = (
    ("models.tensor", "scoregraph.models", "ModelSpec", "tensor"),
    ("models.prior", "scoregraph.models", "ModelSpec", "prior"),
    ("models.project", "scoregraph.models", "FeasibleSet", "project"),
)
SPAN_NAMES = tuple(row[0] for row in FUNCTIONS + MODULE_LOCAL + METHODS)
# objective and gradient evaluations, sorted by the solver stage that asked for them
EVALUATIONS = ("estimators.nr_objective", "estimators.nr_gradient",
               "estimators.fr_objective", "estimators.fr_gradient")


def _count_sample(tracer, graph):
    tracer.counts["graph.edges"] += int(graph.n_edges)


def _count_solve(tracer, solve):
    tracer.counts["estimators.pg_iters"] += int(solve.n_iters)
    tracer.counts["estimators.unconverged"] += int(not solve.converged)
    # the label-swap symmetry point; rounding leaves some such solves a few ulps off it
    tracer.counts["estimators.gamma_half"] += int(
        solve.gamma.size == 1 and abs(float(solve.gamma[0]) - 0.5) <= 1e-9)


def _count_run(tracer, run):
    tracer.counts["distributed.rounds"] += int(run.n_rounds)


def _count_emit(tracer, paths):
    tracer.counts["experiments.emit.bytes"] += sum(os.path.getsize(p) for p in paths.values())


RESULT_COUNTERS = {
    "graph.sample": _count_sample,
    "estimators.solve": _count_solve,
    "distributed.run": _count_run,
    "experiments.emit": _count_emit,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "scoregraph" or name.startswith("scoregraph."))]


class Tracer:
    """In-memory span recorder; see the module docstring.

    `hooks` maps a span name to a callable(result, args, kwargs) run after
    each traced call returns, so a caller can check intermediate results.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names = list(SPAN_NAMES)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._depth = [0] * len(self.names)
        self.counts = dict.fromkeys(
            ("graph.edges", "estimators.pg_iters", "estimators.unconverged",
             "estimators.gamma_half", "estimators.grid_evals",
             "estimators.lipschitz_evals", "estimators.pg_evals",
             "distributed.rounds", "experiments.emit.bytes"), 0)
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _evaluation_stage(self) -> str | None:
        depth, ids = self._depth, self._ids
        if depth[ids["estimators.lipschitz"]]:
            return "estimators.lipschitz_evals"
        if depth[ids["estimators.solve"]]:
            return "estimators.pg_evals"
        if depth[ids["estimators.estimate"]]:
            return "estimators.grid_evals"
        return None   # e.g. a distributed agent's local step

    def _wrap(self, name, fn):
        nid = self._ids[name]
        stack, depth = self._stack, self._depth
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(name)
        hook = self.hooks.get(name)
        is_eval = name in EVALUATIONS

        def traced(*args, **kwargs):
            if is_eval:
                stage = self._evaluation_stage()
                if stage is not None:
                    self.counts[stage] += 1
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(float("nan"))
            depth[nid] += 1
            entry = [idx, 0.0]
            stack.append(entry)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[nid] -= 1
                span_end[idx] = end
                duration = end - start
                self_s[nid] += duration - entry[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                counter(self, result)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for name, owner, attr in bindings():
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- results -----------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def self_time(self, name: str) -> float:
        return self.self_s[self._ids[name]]

    def attributed_s(self) -> float:
        """Sum of all self times, which equals the time covered by top-level spans."""
        return float(sum(self.self_s))

    def write_spans(self, path) -> None:
        np.savez(path,
                 names=np.asarray(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


def bindings():
    """(span name, owner, attribute) of every binding the tracer patches."""
    out = []
    modules = _package_modules()
    for name, home, attr in FUNCTIONS:
        original = getattr(importlib.import_module(home), attr)
        out += [(name, mod, attr) for mod in modules if vars(mod).get(attr) is original]
    for name, home, attr in MODULE_LOCAL:
        out.append((name, importlib.import_module(home), attr))
    for name, home, cls_name, attr in METHODS:
        out.append((name, getattr(importlib.import_module(home), cls_name), attr))
    return out
