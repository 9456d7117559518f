"""Gauss-Legendre panel quadrature with graded subdivision.

Shared sampling machinery for the norm, weight-norm and oracle modules.
All routines are deterministic: fixed node counts and fixed summation
order (numpy dot products), so repeated runs reproduce bit-identical
values.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .core import EvaluationError


@lru_cache(maxsize=64)
def _leggauss(k: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(k)
    return nodes, weights


def panel_nodes(breaks: Sequence[float], nodes_per_panel: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Gauss-Legendre over consecutive panels."""
    b = np.asarray(breaks, dtype=float)
    if b.size < 2:
        raise ValueError("need at least two breakpoints")
    t, w = _leggauss(nodes_per_panel)
    half = 0.5 * np.diff(b)
    mid = 0.5 * (b[1:] + b[:-1])
    x = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return x, wts


def graded_breaks(lo: float, hi: float, levels: int = 12) -> np.ndarray:
    """Breakpoints of [lo, hi] accumulating geometrically toward both ends.

    Panel widths halve toward each endpoint, which restores fast
    convergence for integrands with fractional-power behaviour |x - e|^s
    at an endpoint e.
    """
    width = hi - lo
    fracs = 0.5 ** np.arange(levels, 0, -1)  # 2^-levels .. 1/2
    left = lo + width * fracs
    right = hi - width * fracs[::-1]
    return np.concatenate(([lo], left, right[1:], [hi]))


def refine_breaks(breaks: Sequence[float], max_width: float) -> np.ndarray:
    """Split every panel wider than max_width into uniform subpanels."""
    b = np.asarray(breaks, dtype=float)
    out = [b[0]]
    for lo, hi in zip(b[:-1], b[1:]):
        parts = max(1, int(np.ceil((hi - lo) / max_width)))
        if parts > 1:
            out.extend(lo + (hi - lo) * np.arange(1, parts) / parts)
        out.append(hi)
    return np.asarray(out)


def merge_breaks(*groups: Sequence[float]) -> np.ndarray:
    """Sorted union of breakpoints, with near-duplicates collapsed."""
    allpts = np.concatenate([np.asarray(g, dtype=float) for g in groups if len(g)])
    allpts = np.sort(allpts)
    scale = max(1.0, abs(allpts[0]), abs(allpts[-1]))
    keep = np.concatenate(([True], np.diff(allpts) > 1e-14 * scale))
    return allpts[keep]


def p_norm_from_samples(values, weights, p: float) -> float:
    """(sum_i w_i |v_i|^p)^(1/p), overflow-safe for very large finite p.

    The maximum is factored out; for p beyond 64 the power sum is formed
    in the log domain, so exponents like 1e6 neither overflow nor
    underflow to a spurious zero.
    """
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    s = float(v.max())
    if s == 0.0:
        return 0.0
    u = v / s
    if p <= 64.0:
        t = float(np.dot(w, u**p))
        if t <= 0.0:
            return 0.0
        return s * t ** (1.0 / p)
    mask = (u > 0.0) & (w > 0.0)
    if not mask.any():
        return 0.0
    logs = p * np.log(u[mask]) + np.log(w[mask])
    top = float(logs.max())
    return s * float(np.exp((top + np.log(np.sum(np.exp(logs - top)))) / p))


def zero_breaks(gv, lo: float, hi: float, resolution: int) -> np.ndarray:
    """Breakpoints [lo, hi] plus the sign changes of gv, refined by bisection.

    gv is scanned on resolution + 1 uniform points; exact zeros count too,
    unless they fill more than half the scan (a degenerate line).  At
    most 32 crossings are bisected, 60 halvings each.
    """
    xs = np.linspace(lo, hi, resolution + 1)
    vals = gv(xs)
    require_finite(vals, (xs,))
    zeros: list[float] = []
    exact = np.flatnonzero(vals == 0.0)
    if exact.size <= resolution // 2:
        zeros.extend(float(xs[i]) for i in exact if lo < xs[i] < hi)
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        a, b = float(xs[i]), float(xs[i + 1])
        fa = float(vals[i])
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(gv(np.asarray([m]))[0])
            if fm == 0.0:
                a = b = m
                break
            if (fa < 0.0) == (fm < 0.0):
                a, fa = m, fm
            else:
                b = m
        zeros.append(0.5 * (a + b))
        if len(zeros) >= 32:
            break
    return merge_breaks([lo, hi], zeros)


def as_vector_fn(g: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a one-variable callable so it accepts numpy arrays.

    Array-aware callables are used directly; scalar-only ones fall back to
    elementwise evaluation.
    """

    def call(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        try:
            out = np.asarray(g(x), dtype=float)
        except (TypeError, ValueError):
            out = np.asarray([g(float(t)) for t in x.ravel()], dtype=float).reshape(x.shape)
            return out
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).astype(float)
        return out

    return call


def as_grid_fn(f: Callable) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Wrap a two-variable callable so it accepts broadcastable arrays."""

    def call(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        try:
            out = np.asarray(f(x, y), dtype=float)
        except (TypeError, ValueError):
            xb = np.broadcast_to(x, shape).ravel()
            yb = np.broadcast_to(y, shape).ravel()
            return np.asarray(
                [f(float(u), float(v)) for u, v in zip(xb, yb)], dtype=float
            ).reshape(shape)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).astype(float)
        return out

    return call


def require_finite(values: np.ndarray, coords) -> None:
    """Raise EvaluationError carrying the first offending coordinate."""
    values = np.asarray(values)
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad.ravel()))
        coord = None
        if coords is not None:
            flat = [np.asarray(c).ravel() for c in np.broadcast_arrays(*coords)]
            coord = tuple(float(c[idx]) for c in flat)
        raise EvaluationError(f"non-finite sample value at {coord}", coordinate=coord)
