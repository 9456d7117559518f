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


def graded_breaks(lo, hi, levels: int = 12) -> np.ndarray:
    """Breakpoints of [lo, hi] accumulating geometrically toward both ends.

    Panel widths halve toward each endpoint, which restores fast
    convergence for integrands with fractional-power behaviour |x - e|^s
    at an endpoint e.  Array endpoints give one row of breakpoints each.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    width = hi - lo
    fracs = 0.5 ** np.arange(levels, 0, -1)  # 2^-levels .. 1/2
    left = lo + width * fracs
    right = hi - width * fracs[::-1]
    return np.concatenate((lo, left, right[..., 1:], hi), axis=-1)


def refine_breaks(breaks: Sequence[float], max_width: float) -> np.ndarray:
    """Split every panel wider than max_width into uniform subpanels."""
    b = np.asarray(breaks, dtype=float)
    lo, hi = b[:-1], b[1:]
    parts = np.maximum(1.0, np.ceil((hi - lo) / max_width)).astype(np.int64)
    panel = np.repeat(np.arange(lo.size), parts)
    k = np.arange(panel.size) - np.repeat(np.cumsum(parts) - parts, parts) + 1
    out = lo[panel] + (hi - lo)[panel] * k / parts[panel]
    last = k == parts[panel]
    out[last] = hi[panel[last]]
    return np.concatenate((b[:1], out))


def graded_panels(breaks: Sequence[float], levels: int, max_width: float) -> np.ndarray:
    """Every panel of ``breaks`` graded toward both its ends, split to max_width, merged."""
    b = np.asarray(breaks, dtype=float)
    return merge_breaks(refine_breaks(graded_breaks(b[:-1], b[1:], levels).ravel(), max_width))


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


def row_p_norms(values, weights, p: float) -> np.ndarray:
    """``p_norm_from_samples`` of every row of a 2-D array against shared weights.

    Each row's result equals the one-row call bit for bit: the scaling and
    powers run on the whole array, the weighted sum stays one dot product
    per row.
    """
    v = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float).ravel()
    if p > 64.0:
        return np.asarray([p_norm_from_samples(row, w, p) for row in v])
    s = v.max(axis=1)
    nonzero = s > 0.0
    u = (v / np.where(nonzero, s, 1.0)[:, None]) ** p
    out = np.zeros(v.shape[0])
    for k in np.flatnonzero(nonzero):
        t = float(np.dot(w, u[k]))
        if t > 0.0:
            out[k] = float(s[k]) * t ** (1.0 / p)
    return out


def line_coords(axis: str, t, fixed):
    """(x, y) of points at running coordinate t on lines along ``axis`` at ``fixed``."""
    return (t, fixed) if axis == "x" else (fixed, t)


def zero_breaks(g, axis: str, fixed, lo: float, hi: float, resolution: int) -> list[np.ndarray]:
    """Breakpoints [lo, hi] plus the sign changes of g along each of several lines.

    Line k runs along ``axis`` over [lo, hi] at transverse coordinate
    fixed[k]; g is a broadcasting two-variable callable.  All lines are
    scanned in one call on resolution + 1 uniform points.  A line's exact
    zeros inside (lo, hi) are taken first, unless they fill more than half
    its scan (a degenerate line); then its sign changes in scan order,
    stopping after the one that brings its list to 32 or more.  Every
    chosen bracket of every line is bisected together: at most 60 halvings,
    one vector call each, and a bracket whose midpoint is an exact zero
    stops there.  Returns one breakpoint array per line.
    """
    c = np.asarray(fixed, dtype=float).ravel()
    t = np.linspace(lo, hi, resolution + 1)
    coords = line_coords(axis, t[None, :], c[:, None])
    vals = g(*coords)
    require_finite(vals, coords)
    exact = vals == 0.0
    degenerate = exact.sum(axis=1) > resolution // 2
    exact &= ((t > lo) & (t < hi))[None, :] & ~degenerate[:, None]
    rows, idx = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    keep = rank < np.maximum(32 - exact.sum(axis=1)[rows], 1)
    rows, idx = rows[keep], idx[keep]
    a, b, fa = t[idx], t[idx + 1], vals[rows, idx]
    live = np.arange(rows.size)
    for _ in range(60):
        if live.size == 0:
            break
        m = 0.5 * (a[live] + b[live])
        fm = g(*line_coords(axis, m, c[rows[live]]))
        hit = fm == 0.0
        left = ~hit & ((fa[live] < 0.0) == (fm < 0.0))
        a[live[hit | left]] = m[hit | left]
        fa[live[left]] = fm[left]
        b[live[~left]] = m[~left]
        live = live[~hit]
    zeros = 0.5 * (a + b)
    start = np.searchsorted(rows, np.arange(c.size + 1))
    plain = merge_breaks([lo, hi])
    return [
        merge_breaks([lo, hi], t[exact[k]], zeros[start[k]:start[k + 1]])
        if start[k] < start[k + 1] or exact[k].any() else plain
        for k in range(c.size)
    ]


def zoomed_sup(g, rect, size: int) -> tuple[float, float]:
    """Grid maximum of |g| over a rectangle, zoomed twice around its argmax.

    g is a broadcasting two-variable callable, sampled on a (size + 1)^2
    grid of ``rect``, then twice on a 33 x 33 grid spanning the neighbours
    of the last argmax.  Returns the maximum and its gain over the first
    grid; non-finite samples raise EvaluationError.
    """
    best = 0.0
    first = None
    xs = np.linspace(rect.a, rect.b, size + 1)
    ys = np.linspace(rect.c, rect.d, size + 1)
    for _ in range(3):
        vals = np.abs(g(xs[:, None], ys[None, :]))
        require_finite(vals, (xs[:, None], ys[None, :]))
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = max(best, float(vals[i, j]))
        if first is None:
            first = best
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], 33)
        ys = np.linspace(ys[max(j - 1, 0)], ys[min(j + 1, ys.size - 1)], 33)
    return best, best - first


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
