"""Tracer for the per-layer benchmark run, installed from outside the library.

``Tracer.install()`` replaces the public functions and methods of each compib
layer with timing wrappers and ``uninstall()`` puts the originals back. A
module-level function is replaced in every compib module that holds it by
name (``escalate`` in ``numberfield`` and ``composite``, ``resultant`` in
``polynomials``, ``numberfield`` and ``composite``, and so on); a method is
replaced on its class.

Each wrapped call is a span: name, start, end, parent span and self time
(its duration minus the time of the wrapped calls it made). Spans are kept
in memory and written out by ``write_spans``. Two calls run once per box
vector, hundreds of thousands of times in a grid round:
``NumberField.index_form_interval`` and ``escalate``. They are timed and
counted into their caller's figures but kept as no span of their own.
``RealInterval`` arithmetic is not wrapped at all: at tens of millions of
calls per round the wrapper would cost more than the work it times.

Counts are keyed by the nearest enclosing *scope*: a box sweep
(``enumerate_bounded_index``, ``zero_index_vectors``) or ``solve``. That is
how a sweep's vectors and confirmations and the solver's per-factor
rejections are told apart from the same calls made elsewhere.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

import compib
from compib import (cli, composite, imquad, intervals, numberfield, polynomials,
                    simplest_quartic, solver)

MODULES = (compib, cli, composite, imquad, intervals, numberfield, polynomials,
           simplest_quartic, solver)

SWEEP = "sweep"
SOLVE = "solve"

# (span name, owner, attribute, hot, scope it opens)
TARGETS = (
    ("intervals.escalate", intervals, "escalate", True, None),
    ("numberfield.index_form", numberfield.NumberField, "index_form_interval", True, None),
    ("numberfield.make_field", numberfield, "make_field", False, None),
    ("numberfield.enumerate_bounded_index", numberfield.NumberField,
     "enumerate_bounded_index", False, SWEEP),
    ("numberfield.zero_index_vectors", numberfield.NumberField,
     "zero_index_vectors", False, SWEEP),
    ("numberfield.element_index", numberfield.NumberField, "element_index", False, None),
    ("numberfield.element_norm", numberfield.NumberField, "element_norm", False, None),
    ("numberfield.char_poly", numberfield.NumberField, "char_poly", False, None),
    ("polynomials.resultant", polynomials, "resultant", False, None),
    ("polynomials.discriminant", polynomials, "discriminant", False, None),
    ("composite.factor_eq1", composite.CompositeField, "factor_eq1", False, None),
    ("composite.factor_eq2", composite.CompositeField, "factor_eq2", False, None),
    ("composite.factor_F", composite.CompositeField, "factor_F", False, None),
    ("composite.composite_index", composite.CompositeField, "composite_index", False, None),
    ("composite.factorization", composite.CompositeField, "factorization", False, None),
    ("solver.solve", solver, "solve", False, SOLVE),
    ("solver.solve_norm_unit_y1", solver, "solve_norm_unit_y1", False, None),
    ("simplest_quartic.make_simplest_quartic", simplest_quartic,
     "make_simplest_quartic", False, None),
    ("simplest_quartic.d3_partial_search", simplest_quartic, "d3_partial_search", False, None),
)
SWEEPS = ("numberfield.enumerate_bounded_index", "numberfield.zero_index_vectors")

# every per-layer metric the traced run reports: name -> unit
LAYER_UNITS = {
    "intervals.escalate_calls": "count",
    "intervals.cert_128": "count",
    "intervals.cert_256": "count",
    "intervals.cert_512plus": "count",
    "numberfield.index_form_calls": "count",
    "numberfield.index_form_us": "us",
    "numberfield.sweep_calls": "count",
    "numberfield.sweep_cache_hits": "count",
    "numberfield.sweep_vectors": "count",
    "numberfield.sweep_confirmations": "count",
    "numberfield.sweep_yield": "ratio",
    "numberfield.sweep_s": "s",
    "numberfield.element_index_calls": "count",
    "numberfield.element_index_ms": "ms",
    "numberfield.element_norm_calls": "count",
    "numberfield.element_norm_ms": "ms",
    "numberfield.char_poly_calls": "count",
    "numberfield.make_field_s": "s",
    "polynomials.resultant_calls": "count",
    "polynomials.resultant_ms": "ms",
    "polynomials.resultant_s": "s",
    "polynomials.discriminant_calls": "count",
    "polynomials.discriminant_ms": "ms",
    "composite.eq1_calls": "count",
    "composite.eq1_ms": "ms",
    "composite.eq2_ms": "ms",
    "composite.F_ms": "ms",
    "composite.index_calls": "count",
    "composite.index_ms": "ms",
    "solver.solve_calls": "count",
    "solver.solve_self_s": "s",
    "solver.candidates": "count",
    "solver.rejected_eq1": "count",
    "solver.rejected_eq2": "count",
    "solver.rejected_F": "count",
    "solver.norm_unit_y1_calls": "count",
    "solver.norm_unit_y1_s": "s",
    "simplest_quartic.field_builds": "count",
    "simplest_quartic.d3_search_calls": "count",
    "trace.overhead_s": "s",
}


class _Frame:
    __slots__ = ("scope", "child", "span_id", "evals0")

    def __init__(self, scope, span_id, evals0):
        self.scope = scope
        self.child = 0.0
        self.span_id = span_id
        self.evals0 = evals0


class Tracer:
    """Spans and per-round counters of one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.round = 0
        self._next_id = 1
        self._saved: list[tuple] = []
        self.start_round()

    def start_round(self) -> None:
        """Number the next round and zero the per-round counters."""
        self.round += 1
        # (span name, caller's scope) -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.cert = defaultdict(int)        # escalate calls by final precision
        self.index_form_evals = 0
        self.sweep_cache_hits = 0
        self.candidates = 0
        self.stack = [_Frame(None, None, 0)]

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, hot, scope in TARGETS:
            orig = getattr(owner, attr)
            fn = self._counting_escalate(orig) if attr == "escalate" else orig
            wrapper = self._wrap(name, fn, hot, scope)
            if isinstance(owner, type):
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in MODULES:
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def _counting_escalate(self, orig):
        tracer = self

        @functools.wraps(orig)
        def escalate(task, **kwargs):
            last = [0]

            def probe(prec):
                last[0] = prec
                return task(prec)

            out = orig(probe, **kwargs)
            tracer.cert[last[0]] += 1
            return out

        return escalate

    def _wrap(self, name, fn, hot, scope):
        tracer = self
        clock = time.perf_counter
        is_sweep = name in SWEEPS
        is_index_form = name == "numberfield.index_form"
        is_solve = name == "solver.solve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            span_id = parent.span_id      # a hot call is no span: its callees hang on its caller
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = _Frame(scope or parent.scope, span_id, tracer.index_form_evals)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent.child += dt
                row = tracer.stats[name, parent.scope]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame.child
                if is_index_form:
                    tracer.index_form_evals += 1
                evals = tracer.index_form_evals - frame.evals0
                if is_sweep and evals == 0:
                    tracer.sweep_cache_hits += 1
                if not hot:
                    tracer.spans.append((span_id, parent.span_id, name, tracer.round,
                                         t0, t1, dt - frame.child, evals))
            if is_solve:
                tracer.candidates += out.candidates_tested
            return out

        return wrapper

    # -- results ---------------------------------------------------------------

    def _calls(self, name, scope=any) -> int:
        return sum(r[0] for (n, s), r in self.stats.items()
                   if n == name and (scope is any or s == scope))

    def _total(self, name, column=1) -> float:
        return sum(r[column] for (n, _), r in self.stats.items() if n == name)

    def _mean(self, name, scale) -> float:
        calls = self._calls(name)
        return self._total(name) / calls * scale if calls else 0.0

    def round_metrics(self) -> dict[str, float]:
        """Per-layer figures of the current round (set-up included)."""
        cert = self.cert
        vectors = self._calls("intervals.escalate", SWEEP)
        confirmations = self._calls("numberfield.element_index", SWEEP)
        eq1, eq2, fac_f, index = (self._calls(f"composite.{n}", SOLVE) for n in
                                  ("factor_eq1", "factor_eq2", "factor_F", "composite_index"))
        return {
            "intervals.escalate_calls": self._calls("intervals.escalate"),
            "intervals.cert_128": cert[128],
            "intervals.cert_256": cert[256],
            "intervals.cert_512plus": sum(v for p, v in cert.items() if p >= 512),
            "numberfield.index_form_calls": self._calls("numberfield.index_form"),
            "numberfield.index_form_us": self._mean("numberfield.index_form", 1e6),
            "numberfield.sweep_calls": sum(self._calls(n) for n in SWEEPS),
            "numberfield.sweep_cache_hits": self.sweep_cache_hits,
            "numberfield.sweep_vectors": vectors,
            "numberfield.sweep_confirmations": confirmations,
            "numberfield.sweep_yield": confirmations / vectors if vectors else 0.0,
            "numberfield.sweep_s": sum(self._total(n) for n in SWEEPS),
            "numberfield.element_index_calls": self._calls("numberfield.element_index"),
            "numberfield.element_index_ms": self._mean("numberfield.element_index", 1e3),
            "numberfield.element_norm_calls": self._calls("numberfield.element_norm"),
            "numberfield.element_norm_ms": self._mean("numberfield.element_norm", 1e3),
            "numberfield.char_poly_calls": self._calls("numberfield.char_poly"),
            "numberfield.make_field_s": self._total("numberfield.make_field"),
            "polynomials.resultant_calls": self._calls("polynomials.resultant"),
            "polynomials.resultant_ms": self._mean("polynomials.resultant", 1e3),
            "polynomials.resultant_s": self._total("polynomials.resultant"),
            "polynomials.discriminant_calls": self._calls("polynomials.discriminant"),
            "polynomials.discriminant_ms": self._mean("polynomials.discriminant", 1e3),
            "composite.eq1_calls": self._calls("composite.factor_eq1"),
            "composite.eq1_ms": self._mean("composite.factor_eq1", 1e3),
            "composite.eq2_ms": self._mean("composite.factor_eq2", 1e3),
            "composite.F_ms": self._mean("composite.factor_F", 1e3),
            "composite.index_calls": self._calls("composite.composite_index"),
            "composite.index_ms": self._mean("composite.composite_index", 1e3),
            "solver.solve_calls": self._calls("solver.solve"),
            "solver.solve_self_s": self._total("solver.solve", column=2),
            "solver.candidates": self.candidates,
            "solver.rejected_eq1": eq1 - eq2,
            "solver.rejected_eq2": eq2 - fac_f,
            "solver.rejected_F": fac_f - index,
            "solver.norm_unit_y1_calls": self._calls("solver.solve_norm_unit_y1"),
            "solver.norm_unit_y1_s": self._total("solver.solve_norm_unit_y1"),
            "simplest_quartic.field_builds": self._calls("simplest_quartic.make_simplest_quartic"),
            "simplest_quartic.d3_search_calls": self._calls("simplest_quartic.d3_partial_search"),
        }

    def write_spans(self, path: str) -> None:
        """One JSON object per span; times are seconds of the benchmark's clock."""
        with open(path, "w") as fh:
            for span_id, parent, name, rnd, t0, t1, self_s, evals in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "round": rnd,
                    "start": t0, "end": t1, "self_s": self_s,
                    "index_form_evals": evals,
                }) + "\n")


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer figure over the traced rounds."""
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
