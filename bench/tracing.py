"""Spans around the public calls of every cztube layer, recorded from outside.

The tracer replaces the public names of ``lp``, ``czset``, ``tube``,
``guidance``, ``landing``, ``cone`` and ``uncertainty`` with timing
wrappers for the duration of a ``with tracer.installed():`` block and
puts the originals back afterwards; no program code changes.  Spans are
kept in memory and written out once, at the end of a run.

Each span records its name, start, end, parent span (tracked per
thread), the operation id current when it started, and a few attributes
read off the call.  An LP span (one ``solve_lp`` call) is tagged with its
*caller*: the innermost enclosing ``czset`` or ``guidance`` span, mapped
through ``CALLER_OF``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import cztube
from cztube import cone, czset, guidance, landing, lp, tube, uncertainty

MODULES = (cztube, lp, czset, cone, landing, uncertainty, tube, guidance)

CZ_OPS = (
    "affine_map", "minkowski_sum", "intersect", "slice", "project",
    "minrow_normalize", "pontryagin_difference", "is_empty", "support",
    "extreme_point", "contains_point", "interval_hull", "is_full_dimensional",
)
LAYER_FUNCS = {
    guidance: ("optimal_horizon", "one_step_ocp", "forward_rollout",
               "instantaneous_reachable", "monte_carlo"),
    tube: ("backward_step", "deterministic_recursion", "robust_recursion",
           "make_full_dim_terminal", "serialize_tube", "deserialize_tube"),
    landing: ("discretize", "build_state_set", "build_control_set", "build_terminal_set"),
    cone: ("cqc_inner_approx",),
    uncertainty: ("build_disturbance_schedule", "robustify_control_set",
                  "worst_case_depletion_dynamics"),
}
CALLERS = ("emptiness", "support", "containment", "one_step", "erosion")
CALLER_OF = {
    "czset.is_empty": "emptiness",
    "czset.support": "support",
    "czset.extreme_point": "support",
    "czset.contains_point": "containment",
    "czset.pontryagin_difference": "erosion",
    "guidance.one_step_ocp": "one_step",
}
LP_SPAN = "lp.solve_lp"
BACKEND_SPAN = "lp.linprog"

# (name, unit, better) of every per-layer metric, in report order.  Times
# and counts are totals over one traced run: its set-ups and its timed
# window.
PER_LAYER = (
    [
        ("lp.solves", "count", "lower"),
        ("lp.busy_s", "s", "lower"),
        ("lp.backend_calls", "count", "lower"),
        ("lp.iterations", "count", "lower"),
        ("lp.infeasible", "count", "lower"),
        ("lp.numerical_failures", "count", "lower"),
        ("lp.untagged_solves", "count", "lower"),
    ]
    + [
        (f"lp.{c}.{m}", unit, "lower")
        for c in CALLERS
        for m, unit in (("solves", "count"), ("busy_s", "s"), ("iterations", "count"),
                        ("vars_max", "count"), ("nnz_max", "count"))
    ]
    + [
        (f"czset.{op}.{m}", unit, "lower")
        for op in CZ_OPS
        for m, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("tube.sets", "count", "higher"),
        ("tube.n_g_max", "count", "lower"),
        ("tube.n_g_sum", "count", "lower"),
        ("tube.n_e_sum", "count", "lower"),
        ("tube.recursion.busy_s", "s", "lower"),
        ("tube.backward_step.calls", "count", "lower"),
        ("tube.backward_step.busy_s", "s", "lower"),
        ("tube.step_s_max", "s", "lower"),
        ("tube.terminal.busy_s", "s", "lower"),
        ("tube.file_bytes", "bytes", "lower"),
        ("tube.serialize_s", "s", "lower"),
        ("tube.deserialize_s", "s", "lower"),
        ("guidance.optimal_horizon.calls", "count", "lower"),
        ("guidance.optimal_horizon.busy_s", "s", "lower"),
        ("guidance.horizon.contained_frac", "ratio", "higher"),
        ("guidance.one_step_ocp.calls", "count", "lower"),
        ("guidance.one_step_ocp.busy_s", "s", "lower"),
        ("guidance.one_step_ocp.p50_ms", "ms", "lower"),
        ("guidance.one_step_ocp.p90_ms", "ms", "lower"),
        ("guidance.forward_rollout.calls", "count", "lower"),
        ("guidance.forward_rollout.busy_s", "s", "lower"),
        ("guidance.instantaneous_reachable.calls", "count", "lower"),
        ("guidance.instantaneous_reachable.busy_s", "s", "lower"),
        ("guidance.monte_carlo.calls", "count", "lower"),
        ("guidance.monte_carlo.busy_s", "s", "lower"),
        ("guidance.monte_carlo.workers", "count", "higher"),
        ("landing.discretize.busy_s", "s", "lower"),
        ("landing.build_sets.busy_s", "s", "lower"),
        ("landing.control_set.n_g", "count", "lower"),
        ("cone.cqc_inner_approx.busy_s", "s", "lower"),
        ("uncertainty.schedule.busy_s", "s", "lower"),
        ("uncertainty.robustify.busy_s", "s", "lower"),
        ("trace.op_busy_s", "s", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
    ]
)


class Span:
    __slots__ = ("sid", "name", "parent", "op", "thread", "start", "end", "attrs")

    def __init__(self, sid, name, parent, op, thread):
        self.sid, self.name, self.parent, self.op, self.thread = sid, name, parent, op, thread
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent, "op": self.op,
                "thread": self.thread, "start": self.start, "end": self.end, **self.attrs}


def _lp_attrs(span, args, kwargs, sol):
    prob = args[0]
    span.attrs["vars"] = prob.n_vars
    span.attrs["nnz"] = prob.E.nnz + prob.H.nnz
    span.attrs["status"] = sol.status.value


def _linprog_attrs(span, args, kwargs, res):
    span.attrs["nit"] = int(getattr(res, "nit", 0) or 0)
    span.attrs["status"] = int(res.status)


def _horizon_attrs(span, args, kwargs, hq):
    span.attrs["contained"] = len(hq.containment_indices)
    span.attrs["scanned"] = args[1].N


def _monte_carlo_attrs(span, args, kwargs, summary):
    span.attrs["trials"] = summary.trials
    # monte_carlo sizes its pool from CZTUBE_THREADS, else the CPU count
    threads = int(os.environ.get("CZTUBE_THREADS") or os.cpu_count() or 1)
    span.attrs["workers"] = max(1, min(threads, summary.trials))


POST = {
    LP_SPAN: _lp_attrs,
    BACKEND_SPAN: _linprog_attrs,
    "guidance.optimal_horizon": _horizon_attrs,
    "guidance.monte_carlo": _monte_carlo_attrs,
}


class Tracer:
    """Collects spans from wrapped cztube entry points.

    ``op`` is the id of the operation in progress (None during set-up);
    worker threads started inside an operation read it from here, since
    their own span stacks start empty.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        post = POST.get(name)
        is_lp = name == LP_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, stack[-1].sid if stack else None,
                        self.op, threading.get_ident())
            if is_lp:
                span.attrs["caller"] = _caller(stack)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if post is not None:
                post(span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        targets = [(lp, "solve_lp", LP_SPAN), (lp, "linprog", BACKEND_SPAN)]
        for mod, names in LAYER_FUNCS.items():
            layer = mod.__name__.rsplit(".", 1)[-1]
            targets += [(mod, n, f"{layer}.{n}") for n in names]
        saved = []
        for mod, attr, name in targets:
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            # patch every module that imported the same object by name
            for holder in MODULES:
                if getattr(holder, attr, None) is orig:
                    saved.append((holder, attr, orig))
                    setattr(holder, attr, wrapped)
        cls = czset.ConstrainedZonotope
        for op in CZ_OPS:
            orig = cls.__dict__[op]
            saved.append((cls, op, orig))
            setattr(cls, op, self._wrap(f"czset.{op}", orig))
        try:
            yield self
        finally:
            for holder, attr, orig in reversed(saved):
                setattr(holder, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps(span.as_dict()) + "\n")


def _caller(stack):
    for span in reversed(stack):
        if span.name.startswith(("czset.", "guidance.")):
            return CALLER_OF.get(span.name)
    return None


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, extra: dict) -> dict:
    """Per-layer metrics from one run's spans, plus the values in extra
    that are read off the run's objects rather than its spans."""
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_s[s.parent] += s.duration

    def busy(*names):
        return sum(s.duration for n in names for s in by_name[n])

    m = {}
    lps, backend = by_name[LP_SPAN], by_name[BACKEND_SPAN]
    nit_of = defaultdict(int)
    for b in backend:
        nit_of[b.parent] += b.attrs.get("nit", 0)
    m["lp.solves"] = len(lps)
    m["lp.busy_s"] = busy(LP_SPAN)
    m["lp.backend_calls"] = len(backend)
    m["lp.iterations"] = sum(nit_of.values())
    m["lp.infeasible"] = sum(s.attrs.get("status") == "infeasible" for s in lps)
    m["lp.numerical_failures"] = sum(s.attrs.get("status") == "numerical_failure" for s in lps)
    m["lp.untagged_solves"] = sum(s.attrs.get("caller") is None for s in lps)
    for c in CALLERS:
        mine = [s for s in lps if s.attrs.get("caller") == c]
        m[f"lp.{c}.solves"] = len(mine)
        m[f"lp.{c}.busy_s"] = sum(s.duration for s in mine)
        m[f"lp.{c}.iterations"] = sum(nit_of[s.sid] for s in mine)
        m[f"lp.{c}.vars_max"] = max((s.attrs.get("vars", 0) for s in mine), default=0)
        m[f"lp.{c}.nnz_max"] = max((s.attrs.get("nnz", 0) for s in mine), default=0)
    for op in CZ_OPS:
        mine = by_name[f"czset.{op}"]
        m[f"czset.{op}.calls"] = len(mine)
        m[f"czset.{op}.self_s"] = sum(s.duration - child_s[s.sid] for s in mine)
    m["tube.recursion.busy_s"] = busy("tube.deterministic_recursion", "tube.robust_recursion")
    m["tube.backward_step.calls"] = len(by_name["tube.backward_step"])
    m["tube.backward_step.busy_s"] = busy("tube.backward_step")
    m["tube.terminal.busy_s"] = busy("tube.make_full_dim_terminal")
    m["tube.serialize_s"] = busy("tube.serialize_tube")
    m["tube.deserialize_s"] = busy("tube.deserialize_tube")
    for fn in ("optimal_horizon", "one_step_ocp", "forward_rollout",
               "instantaneous_reachable", "monte_carlo"):
        m[f"guidance.{fn}.calls"] = len(by_name[f"guidance.{fn}"])
        m[f"guidance.{fn}.busy_s"] = busy(f"guidance.{fn}")
    horizon = by_name["guidance.optimal_horizon"]
    scanned = sum(s.attrs.get("scanned", 0) for s in horizon)
    m["guidance.horizon.contained_frac"] = (
        sum(s.attrs.get("contained", 0) for s in horizon) / scanned if scanned else 0.0
    )
    step_ms = sorted(1e3 * s.duration for s in by_name["guidance.one_step_ocp"])
    m["guidance.one_step_ocp.p50_ms"] = _quantile(step_ms, 50)
    m["guidance.one_step_ocp.p90_ms"] = _quantile(step_ms, 90)
    m["guidance.monte_carlo.workers"] = max(
        (s.attrs.get("workers", 0) for s in by_name["guidance.monte_carlo"]), default=0
    )
    m["landing.discretize.busy_s"] = busy("landing.discretize")
    m["landing.build_sets.busy_s"] = busy(
        "landing.build_state_set", "landing.build_control_set", "landing.build_terminal_set"
    )
    m["cone.cqc_inner_approx.busy_s"] = busy("cone.cqc_inner_approx")
    m["uncertainty.schedule.busy_s"] = busy("uncertainty.build_disturbance_schedule")
    m["uncertainty.robustify.busy_s"] = busy(
        "uncertainty.robustify_control_set", "uncertainty.worst_case_depletion_dynamics"
    )
    m.update(extra)
    return m
