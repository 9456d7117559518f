"""Gauss-Legendre panel quadrature with graded subdivision.

Every graded rule and tensor-product norm is built here.  A report's
breakpoints come from one ``scan_breaks`` call over all its zero scans:
the f_xy axes (``area_scans``, merged per axis by ``axis_breaks``) and
each partial's lines; ``area_breaks`` is its one-rectangle view.  Every
scan breaks a line wherever g passes between negative and not (+-0 is
not negative); every line scan of ``norms`` is exhaustive, with no cap
on its breaks, and only the f_xy area axes keep the cap of 32.
``graded_nodes`` serves ``norms._norms_with_error`` (one build per
report: one entry per set, depth and cap), the weight norms
(``weights``) and the minimizer's grid (``minimizer``) by one rule:
every panel of every entry maps a cached layout of [0, 1], graded with
the part counts of the panel itself (``_unit_layout``), so the split
and merge of breaks runs only on [0, 1], once per layout.  The f_xy area
norm and the custom weight norm reduce each tensor pass with
``tensor_p_norm``.  ``segment_p_norms`` reduces the samples of the line
norms and the ramp norms with the scaled power sum ``tensor_p_norm``
uses, at every finite p, in the array that holds them: a flat array
against weights aligned with it, or a (lines x nodes) block against one
weight row that every line shares; a caller whose segments are scattered
through a build gathers them with ``gather_segments``.  A zero partial
costs what its samples cost: a scan of +-0 samples returns its one
[lo, hi] set before building its class mask, and ``segment_p_norms``
returns all-zero maxima as the norms before raising any sample to p.
The area grid maximum (``zoomed_sup``) finds its argmax with
``abs_argmax``, which only reads the samples; the line maxima of
``norms`` are small enough to take theirs on an |g| copy.  The oracle maps
``panel_nodes`` of [0, 1] that it caches per panel count; per-call
uniform grids come from ``uniform_grid``.  All
routines are deterministic: fixed node counts and fixed summation order,
so repeated runs reproduce bit-identical values.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .core import EvaluationError


_MERGE_RTOL = 1e-14
_SIXTEENTHS = np.arange(1.0, 16.0) / 16.0
# offsets of the secant cluster, in bracket widths and in increasing order:
# -2^-8 .. -2^-56, 0, 2^-56 .. 2^-8
_CLUSTER = np.concatenate((-(2.0 ** -(8.0 * np.arange(1, 8))), [0.0], 2.0 ** -(8.0 * np.arange(7, 0, -1))))


@lru_cache(maxsize=64)
def _leggauss(k: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(k)
    return nodes, weights


@lru_cache(maxsize=16)
def _counting(n: int) -> np.ndarray:
    out = np.arange(float(n))
    out.flags.writeable = False
    return out


def uniform_grid(lo, hi, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n, axis=-1)`` for float ends, bit for bit, without its set-up.

    Scalar ends give n points; 1-D arrays of ends give one row per end
    pair, in the memory layout ``np.linspace(..., axis=1)`` gives them.
    The points are j * step + lo with step (hi - lo) / (n - 1) and the
    last point set to hi, as ``np.linspace`` computes them; when any pair
    has a zero step (subnormal spans) every pair takes (j / (n - 1)) *
    (hi - lo) + lo instead, and n < 2 takes j * (hi - lo) + lo, again as
    ``np.linspace`` does.  Float ends take the step as a Python float: the
    same operations, without numpy's set-up of a scalar array, in about a
    third of ``np.linspace``'s time (reports call this for every scan).
    """
    if isinstance(lo, float) and isinstance(hi, float) and n > 1:
        delta = float(hi) - float(lo)
        step = delta / (n - 1)
        out = _counting(n) / (n - 1) * delta if step == 0.0 else _counting(n) * step
        out += lo
        out[-1] = hi
        return out
    delta = np.subtract(hi, lo, dtype=float)
    j = _counting(n).reshape((-1,) + (1,) * delta.ndim)
    if n < 2:
        out = j * delta
    else:
        step = delta / (n - 1)
        out = j / (n - 1) * delta if (step == 0.0).any() else j * step
    out += lo
    if n > 1:
        out[-1] = hi
    return out.T


def panel_nodes(breaks, nodes_per_panel: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights over the panels between consecutive breaks of a 1-D array."""
    b = np.asarray(breaks, dtype=float)
    if b.size < 2:
        raise ValueError("need at least two breakpoints")
    lo, hi = b[:-1], b[1:]
    t, w = _leggauss(nodes_per_panel)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = half[:, None] * t[None, :] + mid[:, None]
    wts = half[:, None] * w[None, :]
    return x.ravel(), wts.ravel()


def merge_tol(lo, hi):
    """Breakpoint merge tolerance of [lo, hi], elementwise for array ends.

    Breaks of [lo, hi] closer than 1e-14 * max(1, |lo|, |hi|) collapse
    into one; every breakpoint merge uses this tolerance.  Float ends take
    Python's ``max``, which picks the same value in a seventh of the time.
    """
    if isinstance(lo, float) and isinstance(hi, float):
        return _MERGE_RTOL * max(1.0, abs(lo), abs(hi))
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
    ``_narrow_limit`` none of them clears ``merge_tol``, the tolerance
    within which the scans and ``graded_nodes`` collapse neighbouring
    breaks.
    """
    if hi - lo < _narrow_limit(lo, hi, frac):
        raise _too_narrow(lo, hi, frac)


@lru_cache(maxsize=16)
def _graded_fracs(top: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the graded rows of a panel, row c for c = 0 .. top levels.

    A panel [lo, hi] of width w gets the row ends + w * fracs[c]: lo
    (twice) up to lo + w/2 by the fractions 2^-c .. 1/2, then hi - w/4
    down to hi.  ``hi_end`` marks the entries offset from hi, whose
    fractions are negated (hi + w * -f equals hi - w * f bit for bit).
    Rows of fewer than ``top`` levels are padded with fraction 0, i.e.
    with copies of the panel ends.
    """
    lo_side = np.zeros((top + 1, top + 1))
    for count, row in enumerate(lo_side):
        row[top + 1 - count:] = 0.5 ** np.arange(count, 0, -1)
    hi_side = np.concatenate((lo_side[:, :0:-1][:, 1:], np.zeros((top + 1, 1))), axis=1)
    fracs = np.concatenate((np.zeros((top + 1, 1)), lo_side, -hi_side), axis=1)
    hi_end = np.arange(fracs.shape[-1]) > top + 1
    fracs.flags.writeable = hi_end.flags.writeable = False
    return fracs, hi_end


@lru_cache(maxsize=256)
def _unit_layout(depth: int, counts: bytes, k: int) -> np.ndarray:
    """One panel [0, 1] graded ``depth`` levels deep, its gaps split into ``counts`` parts: nodes over weights, 2 x n.

    The panel's graded breaks are 0, 2^-depth .. 1/2, 1 - 1/4 .. 1 -
    2^-depth, 1 (0 and 1 at depth 0); ``counts`` holds the part count
    (float64) of each of their gaps, in order, as the caller's own panel
    gave them.  A gap [a, b] of n parts gets the breaks a + (b - a) j / n
    for j = 1 .. n - 1, and b; a break within the merge tolerance of [0, 1]
    of its predecessor is dropped; each remaining panel gets k
    Gauss-Legendre nodes (``panel_nodes``).  The array is read-only: every
    build that maps the layout shares it.
    """
    fracs, hi_end = _graded_fracs(depth)
    row = (np.where(hi_end, 1.0, 0.0) + fracs[depth])[1:]
    parts = np.frombuffer(counts)
    n = parts.astype(np.int64)
    last = np.cumsum(n)
    step = np.arange(1.0, last[-1] + 1.0) - np.repeat(last - n, n)
    pts = np.repeat(row[:-1], n) + np.repeat(np.diff(row), n) * step / np.repeat(parts, n)
    pts[last - 1] = row[1:]
    pts = np.concatenate(([0.0], pts))
    layout = np.stack(panel_nodes(pts[np.concatenate(([True], np.diff(pts) > _MERGE_RTOL))], k))
    layout.flags.writeable = False
    return layout


def graded_nodes(sets: Sequence[np.ndarray], levels, caps, k: int = 8):
    """Graded composite Gauss nodes of several breakpoint-set entries in one vectorised build.

    Entry e is the set sets[e], graded levels[e] deep (or ``levels`` deep,
    one count for every entry) with panels at most caps[e] wide; a set
    graded twice is listed twice.  Every entry takes one rule.  First its
    set's breaks within the set's merge tolerance of their predecessor are
    dropped (as ``merge_breaks`` drops them); a set left with one break
    raises.  Then each panel [lo, hi] of width w is graded toward both its
    ends, with breaks at lo + w 2^-j and hi - w 2^-j for j = 1 .. levels,
    and each of its gaps takes ceil(gap / cap) equal parts, counted on the
    panel itself; the panel's nodes are lo + w u and its weights w v,
    where (u, v) is the layout of [0, 1] at that depth with those part
    counts (``_unit_layout``), kept in an LRU of 256 layouts keyed by
    (levels, counts, k).  The counts are those of the real panel, so the
    rounding drift of ceil(gap / cap) stays in every node count.  An
    entry's output depends on that entry alone, so a set built alone or
    among others gets the same bytes.  Returns flat (nodes, weights,
    bounds); entry e owns nodes[bounds[e]:bounds[e + 1]].
    """
    panels = [len(s) - 1 for s in sets]
    if min(panels) < 1:
        raise ValueError("need at least two breakpoints")
    caps = np.asarray(caps, dtype=float)
    # the panels: consecutive breaks of one set
    lo, hi = np.concatenate([s[:-1] for s in sets]), np.concatenate([s[1:] for s in sets])
    span = hi - lo
    # no set's merge tolerance exceeds merge_tol of the build's lowest and
    # highest break, so a build whose panels all clear that has none to collapse
    if span.min() <= merge_tol(float(lo.min()), float(hi.max())):
        merged = [merge_breaks(s) for s in sets]
        for e, s in enumerate(merged):
            if s.size < 2:
                a, b = float(sets[e][0]), float(sets[e][-1])
                raise _too_narrow(a, b, float(caps[e]) / (b - a))
        sets, panels = merged, [s.size - 1 for s in merged]
        lo, hi = np.concatenate([s[:-1] for s in sets]), np.concatenate([s[1:] for s in sets])
        span = hi - lo
    depth = np.empty(len(sets), dtype=np.int64)
    depth[:] = levels
    row_depth = np.repeat(depth, panels)
    # (a) graded rows of every panel, each led by a copy of the panel's lo, at
    # the deepest level count of the build; a shallower panel's row is padded
    # with copies of its ends, zero-width gaps of one part
    top = int(depth.max())
    fracs, hi_end = _graded_fracs(top)
    rows = np.where(hi_end, hi[:, None], lo[:, None]) + span[:, None] * fracs[row_depth]
    parts = np.maximum(np.ceil(np.diff(rows) / np.repeat(caps, panels)[:, None]), 1.0)
    # (b) each panel's unit layout, keyed by the part counts of its row's own
    # gaps, from its last copy of lo to its first of hi: 2d at depth d, 1 at depth 0
    buf, width = parts.tobytes(), 8 * parts.shape[1]
    layouts = [_unit_layout(d, buf[at - 8 * d:at + 8 * max(d, 1)], k)
               for at, d in zip(range(8 * (top + 1), len(buf), width), row_depth.tolist())]
    counts = [layout.shape[1] for layout in layouts]
    out = np.concatenate(layouts, axis=1) * np.repeat(span, counts)
    out[0] += np.repeat(lo, counts)
    nodes = [0, *accumulate(counts)]
    return out[0], out[1], np.array([nodes[e] for e in accumulate([0, *panels])])


def tensor_p_norm(g, x, y, wx, wy, p: float) -> float:
    """L^p norm of g by the tensor Gauss rule of the axis nodes and weights (x, wx) and (y, wy).

    The norm is the contraction s (wx . |v/s|^p . wy)^(1/p) of the sample
    grid v = g(x, y) with the two axes' weights, s the largest |v|: no
    grid-sized weight array is built, and as |v/s| <= 1 no power
    overflows and the maximum's own term keeps the sum from underflowing
    to zero, for any finite p.
    """
    u = np.abs(g(x[:, None], y[None, :]))
    s = float(u.max())
    if not np.isfinite(s):
        require_finite(u, (x[:, None], y[None, :]))
    if s == 0.0:
        return 0.0
    u /= s
    u **= p
    return s * float(wx @ u @ wy) ** (1.0 / p)


def segment_p_norms(magnitudes: np.ndarray, weights, sizes, p: float) -> np.ndarray:
    """L^p norms (sum_i w_i |v_i|^p)^(1/p) of consecutive segments of sample magnitudes.

    ``magnitudes`` holds |samples| as a float array, 1-D or one row per
    line, which this scales, raises to p and weights in place (it is the
    largest array of a line batch).  The segments tile its last axis in
    order; segment i has sizes[i] >= 1 samples.  ``weights`` is aligned
    with the samples, or one row that every line shares, broadcast
    against the rows.  Returns the norms in the shape of the segment
    maxima: one per segment, per row of a 2-D array.  Every finite p takes
    one formula, s (sum_i w_i (|v_i|/s)^p)^(1/p) with s the segment's
    maximum: as |v_i|/s <= 1 no power overflows, and the maximum's own
    term is its weight, so the sum never underflows to zero (an all-zero
    segment has norm 0).  Maxima and weighted sums are one
    ``np.maximum.reduceat`` and one ``np.add.reduceat`` along the last
    axis, and the scales reach the samples by one ``np.repeat`` along it,
    so a segment sums alike in either layout.  When every maximum is 0
    the maxima are returned as they are: each is the norm the formula
    gives (s times a zero sum), and numpy's power of an exact zero takes a
    scalar path that costs several times a nonzero sample's.
    """
    v = magnitudes
    starts = np.cumsum(sizes) - sizes
    s = np.maximum.reduceat(v, starts, axis=-1)
    if not s.any():
        return s
    scale = np.where(s > 0.0, s, 1.0)
    v /= np.repeat(scale, sizes, axis=-1)
    v **= p
    v *= weights
    return s * np.add.reduceat(v, starts, axis=-1) ** (1.0 / p)


def gather_segments(values: np.ndarray, offsets, sizes) -> np.ndarray:
    """The segments values[offsets[i]:offsets[i] + sizes[i]], concatenated in order.

    One slice per segment, so the gather builds no sample-sized index array
    and is faster than an index-array gather.
    """
    return np.concatenate([values[o:o + n] for o, n in zip(np.asarray(offsets).tolist(), np.asarray(sizes).tolist())])


def line_coords(axis: str, t, fixed):
    """(x, y) of points at running coordinate t on lines along ``axis`` at ``fixed``."""
    return (t, fixed) if axis == "x" else (fixed, t)


def scan_breaks(scans: Sequence[tuple]) -> list[tuple]:
    """Breakpoints [lo, hi] plus the sign changes of g on the lines of several scans, in one bracket search.

    Scan s is (g, axis, fixed, lo, hi, resolution), or the same with a
    seventh item, True for an exhaustive scan: line k runs along ``axis``
    over [lo, hi] at transverse coordinate fixed[k]; g is a broadcasting
    two-variable callable.  Each scan samples all its lines in one call
    on resolution + 1 uniform points, and checks them for finiteness,
    before the next scan samples (``_scan``).  One rule makes the
    brackets: a sample is negative (g < 0) or not (g >= 0, +-0 included),
    and two neighbouring samples of a line in different classes are a
    bracket.  An exhaustive scan keeps them all, any other (the f_xy area
    axes, each of whose breaks multiplies the tensor passes) a line's
    first 32 in scan order.  ``norms`` scans every line exhaustively, so
    between two neighbouring breaks g is >= 0 at every sample or < 0 at
    every sample: no Gauss pass reads |g|^p across a sign change the scan
    resolves, and at p = 1 the integral of |g| between two breaks is the
    step of an antiderivative.  An exact zero is a break only where g
    passes between the classes at it, so g and -g break alike except in
    brackets that end on an exact zero, and both keep that property.

    Then every chosen bracket [a, b] of every scan is refined by one
    bracketed secant search (Dekker-Brent), one vector call per round of
    each scan with live brackets, whose samples are checked for
    finiteness before the next call: a round samples the 15 interior
    sixteenths a + (b - a) j/16 and 15 points at the secant root r and
    r +- (b - a) 2^-8j, j = 1 .. 7, and keeps the first of the sorted 30
    whose sign (-1, 0 or 1) differs from the left end's.  A simple root
    typically reaches adjacent floats in 1-4 rounds; none takes more than
    15.  A bracket retires on an exact zero that is such a change, which
    is its root, or once it is at most 2^-60 of its scan's step wide or
    holds no float strictly inside; its root is then its midpoint (so a
    left end at an exact zero narrows to where g leaves zero).  Its path
    depends on its own samples alone, so each scan finds the breaks it
    would find alone.  One sort merges every line's breaks, dropping each
    within its scan's ``merge_tol`` of its predecessor.

    Returns per scan (points, sizes): every line's sorted breaks
    concatenated in line order, and each line's count.  A scan that finds
    no bracket (and spans more than ``merge_tol``), such as one of +-0
    samples only, returns ([lo, hi], None), one set all its lines share.
    """
    found: list = []
    # the scans that found a bracket: their (g, axis), their brackets, their
    # lines' ends and merge tolerance, and (position in found, first line, line count)
    calls, brackets, merges, pending = [], [], [], []
    lines = 0
    for g, axis, fixed, lo, hi, resolution, *exhaustive in scans:
        c = np.asarray(fixed, dtype=float).ravel()
        if c.size == 0:
            found.append((np.zeros(0), np.zeros(0, dtype=np.int64)))
            continue
        scanned = _scan(g, axis, c, lo, hi, resolution, any(exhaustive))
        if scanned is None:
            found.append((np.array([float(lo), float(hi)]), None))
            continue
        a, b, fa, fb, rows = scanned
        brackets.append((a, b, fa, fb, c[rows], np.full(rows.size, 2.0**-60 * (hi - lo) / resolution),
                         np.full(rows.size, len(calls)), rows + lines))
        merges.append((np.full(c.size, float(lo)), np.full(c.size, float(hi)), np.full(c.size, merge_tol(lo, hi))))
        pending.append((len(found), lines, c.size))
        found.append(None)
        calls.append((g, axis))
        lines += c.size
    if not calls:
        return found
    # the live brackets of every scan as compact arrays, scan by scan: ends,
    # end values, transverse coordinate, retirement width and scan; zeros
    # gets each bracket's root as it retires or after the last round
    a, b, fa, fb, line_of, narrowest, scan_of, line = map(np.concatenate, zip(*brackets))
    zeros = np.empty(a.size)
    live = np.arange(a.size)
    for _ in range(15):
        if live.size == 0:
            break
        w = b - a
        with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite ends: r is NaN or clipped
            r = a - fa * w / (fb - fa)
        r = np.where(np.isnan(r), 0.5 * (a + b), r)
        cluster = np.clip(r[:, None] + w[:, None] * _CLUSTER, a[:, None], b[:, None])
        x = np.concatenate((a[:, None] + w[:, None] * _SIXTEENTHS, cluster), axis=1)
        x.sort(axis=1)
        # one call per scan with live brackets, which are consecutive
        ends = np.cumsum(np.bincount(scan_of, minlength=len(calls))).tolist()
        fs = np.concatenate([finite_samples(g, line_coords(axis, x[i:j], line_of[i:j, None]))
                             for (g, axis), i, j in zip(calls, [0, *ends], ends) if i < j])
        # k: the first sample that does not share fa's sign; 30, a column of
        # True past the samples, when only b does
        flip = np.empty((live.size, 31), dtype=bool)
        flip[:, 30] = True
        np.not_equal(np.sign(fs), np.sign(fa)[:, None], out=flip[:, :30])
        k = flip.argmax(axis=1)
        # the samples left and right of the change, by flat index
        offset = np.arange(0, 30 * live.size, 30)
        left, right = offset + (k - 1), offset + np.minimum(k, 29)
        x, fs = x.ravel(), fs.ravel()
        f_right = fs[right]
        inside, changed = k > 0, k < 30
        hit = changed & (f_right == 0.0)
        a, fa = np.where(inside, x[left], a), np.where(inside, fs[left], fa)
        b, fb = np.where(changed, x[right], b), np.where(changed, f_right, fb)
        narrow = ~hit & ((b - a <= narrowest) | (b <= np.nextafter(a, np.inf)))
        zeros[live[hit]] = b[hit]
        zeros[live[narrow]] = 0.5 * (a[narrow] + b[narrow])
        more = ~(hit | narrow)
        live, a, b, fa, fb = live[more], a[more], b[more], fa[more], fb[more]
        line_of, narrowest, scan_of = line_of[more], narrowest[more], scan_of[more]
    zeros[live] = 0.5 * (a + b)
    # every line's merge_breaks([lo, hi], roots) at once: sort by (line, value),
    # collapse near-duplicates within a line
    lows, highs, tols = map(np.concatenate, zip(*merges))
    ids = np.arange(lines)
    line = np.concatenate((ids, ids, line))
    point = np.concatenate((lows, highs, zeros))
    order = np.lexsort((point, line))
    line, point = line[order], point[order]
    keep = np.empty(point.size, dtype=bool)
    keep[0] = True
    keep[1:] = (np.diff(point) > tols[line[1:]]) | (line[1:] != line[:-1])
    point = point[keep]
    sizes = np.bincount(line[keep], minlength=lines)
    starts = np.concatenate(([0], np.cumsum(sizes))).tolist()
    for s, first, count in pending:
        found[s] = point[starts[first]:starts[first + count]], sizes[first:first + count]
    return found


def _scan(g, axis: str, c: np.ndarray, lo: float, hi: float, resolution: int, exhaustive: bool):
    """One scan of ``scan_breaks``: its brackets (a, b, fa, fb, rows), or None if it finds none.

    A bracket is two neighbouring samples of a line, one negative and one
    not (+-0 is not negative); an ``exhaustive`` scan keeps every bracket,
    any other the first 32 of each line.  Returns the chosen brackets'
    ends, end values and lines.  A function of its own so that a scan's
    samples are freed before the next scan samples.
    """
    t = uniform_grid(lo, hi, resolution + 1)
    coords = line_coords(axis, t[None, :], c[:, None])
    vals = g(*coords)
    low, high = vals.min(), vals.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        require_finite(vals, coords)
    wide = hi - lo > merge_tol(lo, hi)
    if wide and (low >= 0.0 or high < 0.0):  # one class everywhere
        return None
    neg = vals < 0.0  # classes, not products of neighbours: those can underflow to -0.0 or overflow
    # rows and columns from flat indices: np.nonzero of a 2-D mask is several times slower
    rows, idx = np.divmod((neg[:, :-1] != neg[:, 1:]).ravel().nonzero()[0], resolution)
    if wide and rows.size == 0:
        return None
    if not exhaustive:
        keep = np.arange(rows.size) - np.searchsorted(rows, rows) < 32
        rows, idx = rows[keep], idx[keep]
    return t[idx], t[idx + 1], vals[rows, idx], vals[rows, idx + 1], rows


_AREA_OFFSETS = np.asarray([0.155, -0.237])


def area_scans(g, rect, scan: int) -> list[tuple]:
    """The two ``scan_breaks`` scans of a rectangle's axes, x first.

    Each axis is scanned along two lines, at offsets 0.155 and -0.237 of
    the transverse span from the centre, on scan + 1 points, which
    captures the axis-aligned kink lines of separable integrands.
    """
    return [(g, "x", rect.m2 + _AREA_OFFSETS * rect.height, rect.a, rect.b, scan),
            (g, "y", rect.m1 + _AREA_OFFSETS * rect.width, rect.c, rect.d, scan)]


def axis_breaks(found) -> np.ndarray:
    """The breakpoints of one area axis from its ``scan_breaks`` result: its two lines' breaks, merged."""
    points, sizes = found
    return points if sizes is None else merge_breaks(points)


def area_breaks(g, rect, scan: int) -> list[np.ndarray]:
    """Breakpoints of both axes of a rectangle: [bx, by], each split at the sign changes of g.

    The one-rectangle view of ``scan_breaks`` on ``area_scans``; a report
    runs the same two scans in its own ``scan_breaks`` call, beside its
    lines, and merges each axis with ``axis_breaks``.
    """
    return [axis_breaks(found) for found in scan_breaks(area_scans(g, rect, scan))]


def abs_argmax(v: np.ndarray) -> tuple[int, float]:
    """``np.argmax(np.abs(v))`` of an array, a flat index, and the |v| it picks, without an |v| copy.

    The largest |v| is |v| at the argmax or at the argmin; on a tie the
    earlier index wins, as in ``np.argmax``.  ``np.argmax`` and
    ``np.argmin`` both stop at the first NaN, and an array holding inf has
    it at one of the two, so an array with a non-finite sample has a
    non-finite maximum.  v is only read: on the area grid of
    ``zoomed_sup`` an |v| copy raises the traced peak of a p = inf report
    by more than half.
    """
    hi, lo = int(np.argmax(v)), int(np.argmin(v))
    top, bottom = abs(float(v.flat[hi])), abs(float(v.flat[lo]))
    return (hi if top > bottom else lo if bottom > top else min(hi, lo)), max(top, bottom)


def zoomed_sup(g, rect, size: int) -> tuple[float, float]:
    """Grid maximum of |g| over a rectangle, zoomed twice around its argmax.

    g is a broadcasting two-variable callable, sampled on a (size + 1)^2
    grid of ``rect``, then twice on a 33 x 33 grid spanning the neighbours
    of the last argmax (``abs_argmax``, which reads g's samples in place).
    Returns the maximum and its gain over the first grid; non-finite
    samples raise EvaluationError.
    """
    best = 0.0
    xs = uniform_grid(rect.a, rect.b, size + 1)
    ys = uniform_grid(rect.c, rect.d, size + 1)
    for step in range(3):
        if step:
            xs = uniform_grid(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], 33)
            ys = uniform_grid(ys[max(j - 1, 0)], ys[min(j + 1, ys.size - 1)], 33)
        vals = g(xs[:, None], ys[None, :])
        k, top = abs_argmax(vals)
        if not math.isfinite(top):
            require_finite(vals, (xs[:, None], ys[None, :]))
        i, j = np.unravel_index(k, vals.shape)
        best = max(best, top)
        if step == 0:
            first = best
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


def finite_samples(g, coords) -> np.ndarray:
    """g(*coords), after a check that every sample is finite (``require_finite``)."""
    vals = g(*coords)
    if not np.isfinite(vals).all():
        require_finite(vals, coords)
    return vals


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
