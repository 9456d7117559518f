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


_MERGE_RTOL = 1e-14


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


def merge_tol(lo, hi):
    """Breakpoint merge tolerance of [lo, hi], elementwise for array ends.

    Breaks of [lo, hi] closer than 1e-14 * max(1, |lo|, |hi|) collapse
    into one; every breakpoint merge uses this tolerance.
    """
    return _MERGE_RTOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))


def merge_breaks(*groups: Sequence[float]) -> np.ndarray:
    """Sorted union of breakpoints, with near-duplicates collapsed."""
    allpts = np.concatenate([np.asarray(g, dtype=float) for g in groups if len(g)])
    allpts = np.sort(allpts)
    keep = np.concatenate(([True], np.diff(allpts) > merge_tol(allpts[0], allpts[-1])))
    return allpts[keep]


def _narrow_limit(lo: float, hi: float, frac: float) -> float:
    """Width below which panels of ``frac`` of [lo, hi] all merge away.

    Below it even a panel of frac * (hi - lo), plus the rounding of its
    two ends (2^-51 * max(1, |lo|, |hi|)), stays under ``merge_tol``.
    """
    return float(merge_tol(lo, hi)) * (1.0 - 2.0**-51 / _MERGE_RTOL) / frac


def _too_narrow(lo: float, hi: float, frac: float) -> ValueError:
    return ValueError(
        f"interval [{lo!r}, {hi!r}] is too narrow for quadrature: panels of 1/{1.0 / frac:g} of its width "
        f"must clear the breakpoint merge tolerance {float(merge_tol(lo, hi)):.3g}, which needs a width "
        f"of at least {_narrow_limit(lo, hi, frac):.4g}"
    )


def require_resolvable(lo: float, hi: float, frac: float) -> None:
    """Reject [lo, hi] before any sampling when panels of ``frac`` of it all merge away.

    ``graded_nodes`` panels are at most frac * (hi - lo) wide; below
    ``_narrow_limit`` every one collapses and ``graded_nodes`` would raise
    the same error.
    """
    if hi - lo < _narrow_limit(lo, hi, frac):
        raise _too_narrow(lo, hi, frac)


@lru_cache(maxsize=16)
def _graded_fracs(levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the graded rows of a panel, one row per level count.

    A panel [lo, hi] of width w gets the row ends + w * fracs: lo (twice)
    up to lo + w/2 by the ``graded_breaks`` fractions, then hi - w/4 down
    to hi.  ``hi_end`` marks the entries offset from hi, whose fractions
    are negated (hi + w * -f equals hi - w * f bit for bit).  Shallower
    level counts are padded with fraction 0, i.e. with copies of the panel
    ends.
    """
    top = max(levels)
    lo_side = np.zeros((len(levels), top + 1))
    for row, count in zip(lo_side, levels):
        row[top + 1 - count:] = 0.5 ** np.arange(count, 0, -1)
    hi_side = np.concatenate((lo_side[:, :0:-1][:, 1:], np.zeros((len(levels), 1))), axis=1)
    fracs = np.concatenate((np.zeros((len(levels), 1)), lo_side, -hi_side), axis=1)[:, None, :]
    hi_end = np.arange(fracs.shape[-1]) > top + 1
    fracs.flags.writeable = hi_end.flags.writeable = False
    return fracs, hi_end


def graded_nodes(sets: Sequence[np.ndarray], passes: Sequence[tuple[int, np.ndarray]], k: int = 8):
    """Graded composite Gauss nodes of several breakpoint sets and passes in one vectorised build.

    Each pass is (levels, max_width), max_width an array of one width per
    set.  Set b of a pass gets the nodes and weights of
    ``panel_nodes(merge_breaks(refine_breaks(graded_breaks(b[:-1], b[1:], levels).ravel(),
    max_width)), k)``: every panel graded toward both its ends, split to at
    most max_width, and near-duplicates collapsed with the set's own merge
    tolerance.  Segment arithmetic runs every (pass, set) pair at once and
    each pair's nodes equal its one-set build bit for bit.  Returns flat
    (nodes, weights, bounds); pass i of set s owns
    nodes[bounds[i * len(sets) + s]:bounds[i * len(sets) + s + 1]].
    """
    nset, npass = len(sets), len(passes)
    panels = np.array([len(s) - 1 for s in sets])
    if panels.min() < 1:
        raise ValueError("need at least two breakpoints")
    lo = np.concatenate([s[:-1] for s in sets])
    hi = np.concatenate([s[1:] for s in sets])
    cap = np.repeat(np.array([width for _, width in passes], dtype=float), panels, axis=1)[..., None]
    # graded rows of every panel in every pass, each led by a copy of the
    # panel's lo; a shallower pass's row is padded with copies of the panel
    # ends, which the merge drops again
    fracs, hi_end = _graded_fracs(tuple(levels for levels, _ in passes))
    rows = np.where(hi_end, hi[:, None], lo[:, None]) + (hi - lo)[:, None] * fracs
    # refine: the gap ending at each break splits into `parts` equal panels;
    # a row's first break closes the zero-width gap from its leading lo
    prev, g = rows[..., :-1], rows[..., 1:]
    gap = g - prev
    parts = np.maximum(np.ceil(gap / cap), 1.0)
    count = parts.astype(np.int64)
    n = count.ravel()
    last = np.cumsum(n)
    step = np.arange(1.0, last[-1] + 1.0) - np.repeat(last - n, n)
    pts = np.repeat(prev, n) + np.repeat(gap, n) * step / np.repeat(parts, n)
    pts[last - 1] = g.ravel()
    # merge: drop each break within its set's tolerance of its predecessor
    emitted = np.add.reduceat(count.sum(axis=-1), np.cumsum(panels) - panels, axis=1).ravel()
    start = np.cumsum(emitted) - emitted
    tol = merge_tol(np.array([s[0] for s in sets]), np.array([s[-1] for s in sets]))
    keep = np.empty(pts.size, dtype=bool)
    keep[1:] = np.diff(pts) > np.repeat(np.concatenate([tol] * npass), emitted)[1:]
    keep[start] = True
    merged = pts[keep]
    kept = np.add.reduceat(keep, start)
    if kept.min() < 2:
        i, s = divmod(int(np.argmin(kept)), nset)
        lo, hi = float(sets[s][0]), float(sets[s][-1])
        raise _too_narrow(lo, hi, float(passes[i][1][s]) / (hi - lo))
    # panels: consecutive kept breaks of one (pass, set) pair
    inner = np.ones(merged.size - 1, dtype=bool)
    inner[np.cumsum(kept)[:-1] - 1] = False
    half = 0.5 * np.diff(merged)[inner]
    mid = 0.5 * (merged[1:] + merged[:-1])[inner]
    t, w = _leggauss(k)
    x = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return x, wts, np.concatenate(([0], np.cumsum((kept - 1) * k)))


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
    u = v  # v is a fresh array: scale and raise it in place
    u /= s
    if p <= 64.0:
        u **= p
        t = float(np.dot(w, u))
        if t <= 0.0:
            return 0.0
        return s * t ** (1.0 / p)
    mask = (u > 0.0) & (w > 0.0)
    if not mask.any():
        return 0.0
    logs = p * np.log(u[mask]) + np.log(w[mask])
    top = float(logs.max())
    return s * float(np.exp((top + np.log(np.sum(np.exp(logs - top)))) / p))


def segment_p_norms(magnitudes: np.ndarray, weights, offsets, sizes, p: float) -> np.ndarray:
    """``p_norm_from_samples`` of consecutive segments of sample magnitudes.

    ``magnitudes`` holds |samples| as a float array, which this scales and
    raises to p in place (it is the largest array of a line batch).  The
    segments tile it in flattened order; segment i has sizes[i] samples
    and takes weights[offsets[i]:offsets[i] + sizes[i]].  Each result
    equals the one-segment call bit for bit: the scaling and powers run on
    the whole array, the weighted sum stays one dot product of two
    contiguous slices per segment.
    """
    v = magnitudes.reshape(-1)
    w = np.asarray(weights, dtype=float)
    starts = np.cumsum(sizes) - sizes
    if p > 64.0:
        return np.asarray([p_norm_from_samples(v[a:a + n], w[o:o + n], p)
                           for a, o, n in zip(starts, offsets, sizes)])
    s = np.maximum.reduceat(v, starts)
    nonzero = s > 0.0
    v /= np.repeat(np.where(nonzero, s, 1.0), sizes)
    v **= p
    out = np.zeros(s.size)
    for i in np.flatnonzero(nonzero):
        a, o, n = starts[i], offsets[i], sizes[i]
        t = float(np.dot(w[o:o + n], v[a:a + n]))
        if t > 0.0:
            out[i] = float(s[i]) * t ** (1.0 / p)
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
    if c.size == 0:
        return []
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
    # every line's merge_breaks([lo, hi], exact zeros, bisected zeros) at
    # once: sort by (line, value), collapse near-duplicates within a line
    exact_rows, exact_idx = np.nonzero(exact)
    lines = np.arange(c.size)
    line = np.concatenate((lines, lines, exact_rows, rows))
    point = np.concatenate((np.full(c.size, float(lo)), np.full(c.size, float(hi)),
                            t[exact_idx], 0.5 * (a + b)))
    order = np.lexsort((point, line))
    line, point = line[order], point[order]
    keep = np.empty(point.size, dtype=bool)
    keep[0] = True
    keep[1:] = (np.diff(point) > merge_tol(lo, hi)) | (line[1:] != line[:-1])
    point = point[keep]
    bounds = np.searchsorted(line[keep], lines, side="right").tolist()
    return [point[a:b] for a, b in zip([0, *bounds], bounds)]


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
    """Wrap a two-variable callable so it accepts broadcastable arrays.

    Array-aware callables are used directly; scalar-only ones fall back to
    elementwise evaluation.  An already wrapped callable is returned as is.
    """
    if getattr(f, "_grid_fn", False):
        return f

    def call(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
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

    call._grid_fn = True
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
