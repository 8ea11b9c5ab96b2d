"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: `install` replaces each
public callable of scvquad, as its caller references it, by a wrapper that
records one span per call, and `Tracer.restore` puts the originals back.
A span is ``[name, start, end, parent, info]``; `info` holds what the call
was given (rows, shapes, configuration), turned into counts only after the
run so the wrappers stay cheap.

Replications may run on worker threads.  A call made on a thread with no
open span of its own gets the innermost open span of the main thread as its
parent, which is the ``replicate`` call that started the pool.
"""

from __future__ import annotations

import gc
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.evals = 0  # integrand evaluations made while installed
        self.first_evals: dict[int, tuple] = {}
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = [name, 0.0, 0.0, parent, info(*args, **kwargs) if info else None]
            spans.append(span)
            stack.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        gc.enable()
        self.evals += sum(f.evals - before for f, before in self.first_evals.values())
        self.first_evals.clear()


def install(tracer: Tracer) -> None:
    """Wrap the callables the workloads reach, one span name per layer.

    The cyclic garbage collector stays off until `Tracer.restore`: spans
    are long-lived lists, and full collections over a growing list of them
    would be charged to the program as tracing overhead.
    """
    gc.disable()
    import scvquad
    from scvquad import cli, estimators, grid, interp, stats, testbed

    def run_info(f, cfg):
        # the integrand's counter before its first estimate since `install`
        tracer.first_evals.setdefault(id(f), (f, f.evals))
        return f, cfg

    def matrix_info(points, exponents):
        return np.shape(points)[0], exponents.shape[0], exponents.shape[1]

    def design_info(self, points_local):
        return np.shape(points_local)[0]

    def call_info(self, x):
        return np.shape(x)[0] if np.ndim(x) == 2 else 1

    tracer.patch(cli, "main", "cli")
    tracer.patch(scvquad, "replicate", "stats.replicate")
    tracer.patch(cli, "replicate", "stats.replicate")
    tracer.patch(stats, "derive_seed", "stats.derive_seed")
    tracer.patch(cli, "derive_seed", "stats.derive_seed")
    for reduction in ("prob_error", "histogram", "tail_fraction", "fit_rate"):
        tracer.patch(cli, reduction, "stats.reduce")
    tracer.patch(stats, "run", "estimators.run", run_info)
    tracer.patch(estimators, "regular_nodes", "grid.nodeset")
    tracer.patch(estimators, "shifted_nodes", "grid.nodeset")
    tracer.patch(grid, "monomial_matrix", "grid.monomial_matrix", matrix_info)
    tracer.patch(interp, "monomial_matrix", "grid.monomial_matrix", matrix_info)
    tracer.patch(interp.LocalInterpolator, "solve", "interp.solve")
    tracer.patch(interp.LocalInterpolator, "design_matrix", "interp.design_matrix", design_info)
    tracer.patch(testbed.Integrand, "__call__", "testbed.f", call_info)


def _parents(spans: list[list]) -> list[int | None]:
    index = {id(span): i for i, span in enumerate(spans)}
    return [None if span[3] is None else index[id(span[3])] for span in spans]


def self_times(spans: list[list]) -> dict[str, float]:
    """Wall time each span name spent as innermost running work.

    A span's self time is its duration minus the part of it that its
    children, on any thread, cover.  Where several spans run innermost at
    once on different threads, each instant is shared equally among them,
    so the self times add up to the wall time the root spans cover.
    """
    parents = _parents(spans)
    depth = [0] * len(spans)
    for i, p in enumerate(parents):  # a parent is recorded before its children
        if p is not None:
            depth[i] = depth[p] + 1
    events = []
    for i, span in enumerate(spans):
        events.append((span[1], 1, depth[i], i))
        events.append((span[2], 0, -depth[i], i))
    events.sort()

    is_open = [False] * len(spans)
    open_children = [0] * len(spans)
    innermost: set[int] = set()
    totals: dict[str, float] = defaultdict(float)
    previous = None
    for t, starts, _, i in events:
        if innermost:
            share = (t - previous) / len(innermost)
            for j in innermost:
                totals[spans[j][0]] += share
        previous = t
        p = parents[i]
        if starts:
            is_open[i] = True
            innermost.add(i)
            if p is not None and is_open[p]:
                open_children[p] += 1
                innermost.discard(p)
        else:
            is_open[i] = False
            innermost.discard(i)
            if p is not None and is_open[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    innermost.add(p)
    return dict(totals)


def layer_metrics(tracer: Tracer, reps: int, traced_wall: float, untraced_wall: float,
                  csv_bytes: int, config_keys) -> dict[str, float]:
    """Per-layer metrics of one traced pass, per replication unless the name says otherwise.

    `config_keys` lists every ``<method>.m<m>.d<d>`` the benchmark reports
    `estimators.us_per_rep` for; keys this pass did not run read 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls = Counter(span[0] for span in spans)

    def by_name(name):
        return [span for span in spans if span[0] == name]

    run_time: dict[str, list[float]] = defaultdict(list)
    budget = 0
    for span in by_name("estimators.run"):
        f, cfg = span[4]
        run_time[f"{cfg.method.value}.m{cfg.m}.d{f.dim}"].append(span[2] - span[1])
        budget += cfg.budget(f.dim)
    matrix_shapes = [span[4] for span in by_name("grid.monomial_matrix")]
    elems = sum(n * n0 for n, n0, _ in matrix_shapes)
    # the (n, n0, d) float64 power table monomial_matrix builds, from array sizes
    bytes_computed = sum(n * n0 * d * 8 for n, n0, d in matrix_shapes)

    metrics = {
        "stats.derive_seed_calls": calls["stats.derive_seed"] / reps,
        "stats.derive_seed_s": own.get("stats.derive_seed", 0.0) / reps,
        "stats.replicate_self_s": own.get("stats.replicate", 0.0) / reps,
        "stats.reduce_s": own.get("stats.reduce", 0.0) / reps,
        "estimators.run_calls": calls["estimators.run"] / reps,
        "estimators.self_s": own.get("estimators.run", 0.0) / reps,
    }
    for key in config_keys:
        times = run_time.get(key)
        metrics[f"estimators.us_per_rep.{key}"] = 1e6 * sum(times) / len(times) if times else 0.0
    metrics.update({
        "cli.self_s": own.get("cli", 0.0) / reps,
        "cli.csv_bytes": csv_bytes / reps,
        "grid.monomial_matrix_calls": calls["grid.monomial_matrix"] / reps,
        "grid.monomial_matrix_s": own.get("grid.monomial_matrix", 0.0) / reps,
        "grid.monomial_matrix_elems": elems / reps,
        "grid.monomial_matrix_bytes_computed": bytes_computed / reps,
        "interp.design_matrix_calls": calls["interp.design_matrix"] / reps,
        "interp.design_rows": sum(span[4] for span in by_name("interp.design_matrix")) / reps,
        "interp.design_matrix_s": own.get("interp.design_matrix", 0.0) / reps,
        "interp.solve_calls": calls["interp.solve"] / reps,
        "interp.solve_s": own.get("interp.solve", 0.0) / reps,
        "grid.nodeset_builds": calls["grid.nodeset"] / reps,
        "grid.nodeset_s": own.get("grid.nodeset", 0.0) / reps,
        "testbed.f_calls": calls["testbed.f"] / reps,
        "testbed.f_points": sum(span[4] for span in by_name("testbed.f")) / reps,
        "testbed.f_s": own.get("testbed.f", 0.0) / reps,
        "testbed.evals": tracer.evals / reps,
        "testbed.budget": budget / reps,
        "testbed.evals_over_budget": tracer.evals / budget if budget else 0.0,
        "trace.coverage": sum(own.values()) / traced_wall,
        # Coverage is 1 by construction, since the root spans' self time
        # takes in whatever no wrapped layer sees; this share shows that part.
        "trace.root_self_share": (own.get("cli", 0.0) + own.get("stats.replicate", 0.0)) / traced_wall,
        "trace.overhead": traced_wall / untraced_wall - 1.0,
    })
    return metrics


def dump(spans: list[list]) -> list[list]:
    """Spans as ``[name, start, end, parent index]`` rows for writing out."""
    return [[span[0], span[1], span[2], p] for span, p in zip(spans, _parents(spans))]
