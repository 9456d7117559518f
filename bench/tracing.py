"""Spans and evaluation counters recorded from the benchmark's own files.

While a traced round runs, a ``Tracer`` replaces public certquad functions
with timing wrappers and restores them afterwards; nothing under ``src/``
changes.  Spans nest: a span's self time is its duration minus the time
of the spans it contains.  Integrand callables are wrapped with counters
of calls and sampled points: the generator wraps the ones it builds, and
a traced CLI process wraps the registry's.  Spans are aggregated in
memory per name, never written per call.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

_RULE_STEMS = ("trapezoid", "midpoint", "composite_trapezoid", "composite_midpoint")

#: Span name -> "module:attribute" bindings wrapped while tracing.  A
#: function imported by name into another module is bound there as well, so
#: both bindings are wrapped and calls through either one are timed.
SPAN_TARGETS = {
    "norms.derivative_norms": ("certquad.norms:derivative_norms", "certquad.cli:derivative_norms"),
    "norms.line_norm": ("certquad.norms:line_norm",),
    "norms.area_norm": ("certquad.norms:area_norm",),
    "rules.estimate": tuple(f"certquad.rules:{s}_estimate" for s in _RULE_STEMS),
    "rules.bound": tuple(f"certquad.rules:{s}_bound" for s in _RULE_STEMS),
    "oracle": ("certquad.oracle:oracle_integrate", "certquad.cli:oracle_integrate"),
    "weights.phi_norm_numeric": (
        "certquad.minimizer:phi_norm_numeric",
        "certquad.weights:phi_norm_numeric",
    ),
}

ROLES = ("f", "fx", "fy", "fxy")


class Tracer:
    """Aggregated spans, integrand evaluation counts and recorded values."""

    def __init__(self) -> None:
        # span name -> [calls, total s, self s, integrand points sampled directly inside]
        self.spans: dict[str, list] = {}
        # integrand role -> [vector calls, scalar calls, points]
        self.evals: dict[str, list[int]] = {role: [0, 0, 0] for role in ROLES}
        self.values: dict[str, float] = {}
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]  # name, time covered by child spans
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, role: str, fn):
        """Wrap a two-variable integrand callable with call and point counters."""
        rec = self.evals[role]

        def wrapper(x, y):
            n = np.broadcast(np.asarray(x), np.asarray(y)).size
            rec[0 if n > 1 else 1] += 1
            rec[2] += n
            if self._stack:
                self.spans.setdefault(self._stack[-1][0], [0, 0.0, 0.0, 0])[3] += n
            return fn(x, y)

        return wrapper

    def count_integrand(self, f):
        """The integrand with each of its callables wrapped by ``counted``."""
        return replace(
            f, **{role: self.counted(role, getattr(f, role)) for role in ROLES if getattr(f, role) is not None}
        )

    @contextmanager
    def installed(self, registry: bool = False):
        """Wrap every ``SPAN_TARGETS`` binding (and optionally the registry) until exit."""
        patched = []
        saved_registry = None
        try:
            for name, targets in SPAN_TARGETS.items():
                for target in targets:
                    module_name, attr = target.split(":")
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    patched.append((module, attr, original))
                    setattr(module, attr, self.timed(name, original))
            if registry:
                reg = importlib.import_module("certquad.registry")
                saved_registry = dict(reg.REGISTRY)
                for key, entry in saved_registry.items():
                    reg.REGISTRY[key] = self.count_integrand(entry)
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)
            if saved_registry is not None:
                reg.REGISTRY.update(saved_registry)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "evals": self.evals, "values": self.values}

    def merge(self, data: dict) -> None:
        """Add another tracer's ``to_dict`` output (from a traced child process)."""
        for name, rec in data["spans"].items():
            mine = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(rec):
                mine[i] += v
        for role, rec in data["evals"].items():
            for i, v in enumerate(rec):
                self.evals[role][i] += v
        self.values.update(data["values"])


def _ms_per(rec, index: int, per: int) -> float:
    return 1e3 * rec[index] / per if rec and per else 0.0


def certify_layers(tr: Tracer, ops: int) -> dict[str, float]:
    """norms, integrand, rules and oracle metrics, per op."""
    span = tr.spans.get
    dn, ln, an = span("norms.derivative_norms"), span("norms.line_norm"), span("norms.area_norm")
    vector = sum(rec[0] for rec in tr.evals.values())
    scalar = sum(rec[1] for rec in tr.evals.values())
    oracle = span("oracle")
    return {
        "norms.derivative_norms_ms": _ms_per(dn, 1, ops),
        "norms.derivative_norms_self_ms": _ms_per(dn, 2, ops),
        "norms.line_norm_ms": _ms_per(ln, 1, ops),
        "norms.line_norm_calls": (ln[0] if ln else 0) / ops,
        "norms.area_norm_ms": _ms_per(an, 1, ops),
        "norms.area_norm_calls": (an[0] if an else 0) / ops,
        **{f"integrand.{role}_points": tr.evals[role][2] / ops for role in ROLES},
        "integrand.vector_calls": vector / ops,
        "integrand.scalar_calls": scalar / ops,
        "integrand.scalar_call_share": scalar / (vector + scalar) if vector + scalar else 0.0,
        "rules.estimate_ms": _ms_per(span("rules.estimate"), 1, ops),
        "rules.bound_ms": _ms_per(span("rules.bound"), 1, ops),
        "oracle.ms": _ms_per(oracle, 1, ops),
        "oracle.points": (oracle[3] if oracle else 0) / ops,
    }


def minimizer_layers(tr: Tracer, q_texts) -> dict[str, float]:
    """Per-q search time, norm gap and largest coefficient, plus the final re-evaluation."""
    out: dict[str, float] = {}
    searches = 0
    for q in q_texts:
        rec = tr.spans.get(f"minimizer.search.q{q}")
        searches += rec[0] if rec else 0
        out[f"minimizer.search_ms.q{q}"] = _ms_per(rec, 1, rec[0] if rec else 0)
        out[f"minimizer.norm_gap.q{q}"] = tr.values.get(f"minimizer.norm_gap.q{q}", 0.0)
        out[f"minimizer.max_coef.q{q}"] = tr.values.get(f"minimizer.max_coef.q{q}", 0.0)
    out["weights.phi_norm_numeric_ms"] = _ms_per(tr.spans.get("weights.phi_norm_numeric"), 1, searches)
    return out
