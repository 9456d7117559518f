"""Numerical L^p norms of derivative restrictions on lines and rectangles.

Finite-p norms use composite Gauss-Legendre with panels split at detected
sign changes of the integrand (|g|^p has a kink wherever g crosses zero)
and graded toward panel ends, plus one refinement halving whose delta is
the reported error estimate.  p = infinity norms are grid maxima with
local refinement around the argmax; they are lower bounds of the
essential supremum that tighten under refinement.

No norm is graded to rounding: the line norms are graded 5 and 6 levels
deep (good to ~1e-7 relative), the f_xy area norm 4 and 5 levels deep
(~1e-9), and ``derivative_norms`` adds every norm's error estimate to its
value, so the shallow grading never lowers a bound.  The estimates'
floating-point floors are relative (1e-15 of the value), so a zero
partial's norms stay exactly zero.

Line norms come in batches: ``line_norms_with_error`` takes every line
of one axis at once, scans them in one call, refines all their sign
changes together by a bracketed secant search of one call per round
(``gauss.zero_breaks``; a simple root typically takes 1-4 rounds, none
more than 15), builds the graded nodes of
every distinct breakpoint set for both Gauss passes in one call
(``gauss.graded_nodes``), and samples every line in one integrand call:
as one (lines x nodes) array when all lines share their breakpoints, as
one flat array of each line's own nodes otherwise; one
``gauss.segment_p_norms`` call reduces them all.  It is the only
line-norm entry point: one line is a one-element ``fixed``, and
``derivative_norms`` makes one call per partial.
"""

from __future__ import annotations

import numpy as np

from .core import (
    FAMILIES,
    ConfigurationError,
    DerivativeNorms,
    Exponent,
    Integrand,
    PartitionSpec,
    Rectangle,
)
from .gauss import (
    as_grid_fn,
    graded_nodes,
    line_coords,
    require_finite,
    require_resolvable,
    segment_p_norms,
    tensor_norms,
    uniform_grid,
    zero_breaks,
    zoomed_sup,
)
from .weights import ramp_jumps

DEFAULT_RESOLUTION = 256


def _pass_fraction(resolution: int) -> float:
    """Panel-width cap of the coarse Gauss pass as a fraction of the interval; the fine pass halves it."""
    return 1.0 / max(4, resolution // 32)


def _sup_lines(g, axis: str, c: np.ndarray, lo: float, hi: float, resolution: int):
    """Grid maxima of |g| along every line, each zoomed four times around its argmax."""
    rows = np.arange(c.size)
    t = np.broadcast_to(uniform_grid(lo, hi, resolution + 1), (c.size, resolution + 1))
    best = np.zeros(c.size)
    for step in range(4):
        coords = line_coords(axis, t, c[:, None])
        vals = np.abs(g(*coords))
        i = np.argmax(vals, axis=1)
        top = vals[rows, i]
        if not np.isfinite(top).all():  # a row's argmax is its first NaN or inf, if any
            require_finite(vals, coords)
        best = np.maximum(best, top)
        if step == 0:
            first = best
        n = t.shape[1]
        t = np.linspace(t[rows, np.maximum(i - 1, 0)], t[rows, np.minimum(i + 1, n - 1)], 65, axis=1)
    return best, best - first


def line_norms_with_error(g, axis: str, fixed, lo: float, hi: float, p,
                          resolution: int = DEFAULT_RESOLUTION):
    """(int |g|^p)^(1/p) along every line of one axis, plus error estimates.

    Line k runs along ``axis`` ("x" or "y") over [lo, hi] at transverse
    coordinate fixed[k]; g is a two-variable callable.  Returns arrays
    (values, errors), one entry per line.  A finite-p value is the finer
    of two Gauss passes graded 5 and 6 levels toward every panel end, good
    to ~1e-7 relative rather than to rounding; its estimate is the change
    between the passes, under one panel-cap halving.  The sup norm reports
    its refinement gain.  Both estimates add a floating-point floor of
    1e-15 of the value, so a zero line reports (0, 0); callers add the
    estimate to the value.  Every line is sampled in one
    integrand call at the nodes of its breakpoint set; lines whose zero
    scan gives the same breakpoints share their nodes.  An empty ``fixed``
    gives two empty arrays, and an interval too narrow for the
    breakpoint merge tolerance raises ValueError before any sampling.
    """
    p = Exponent.coerce(p)
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    gv = as_grid_fn(g)
    c = np.asarray(fixed, dtype=float).ravel()
    if c.size == 0:
        return np.zeros(0), np.zeros(0)
    if p.is_infinite:
        value, gain = _sup_lines(gv, axis, c, lo, hi, resolution)
        return value, np.abs(gain) + 1e-15 * value
    max_frac = _pass_fraction(resolution)
    require_resolvable(lo, hi, max_frac / 2.0)
    # the distinct breakpoint sets, and the set of each line
    sets: list[np.ndarray] = []
    index: dict[bytes, int] = {}
    owner = np.empty(c.size, dtype=np.int64)
    for k, breaks in enumerate(zero_breaks(gv, axis, c, lo, hi, resolution)):
        owner[k] = index.setdefault(breaks.tobytes(), len(sets))
        if owner[k] == len(sets):
            sets.append(breaks)
    spans = np.asarray([s[-1] - s[0] for s in sets])
    nodes, weights, bounds = graded_nodes(
        sets, ((5, spans * max_frac), (6, spans * (max_frac / 2.0)))
    )
    # each line is two segments, its coarse then its fine samples, with the
    # nodes and weights of its set's two passes
    seg = np.stack((owner, owner + len(sets)), axis=1).ravel()
    offsets, sizes = bounds[seg], np.diff(bounds)[seg]
    if len(sets) == 1:
        coords = line_coords(axis, nodes[None, :], c[:, None])
    else:
        t = nodes[np.repeat(offsets - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())]
        coords = line_coords(axis, t, np.repeat(c, sizes[0::2] + sizes[1::2]))
    magnitudes = np.abs(gv(*coords))
    if not np.isfinite(magnitudes.max()):
        require_finite(magnitudes, coords)
    coarse, fine = segment_p_norms(magnitudes, weights, offsets, sizes, p.value).reshape(-1, 2).T
    return fine, np.abs(fine - coarse) + 1e-15 * fine


def area_norm_with_error(g, rect: Rectangle, p, resolution: int = DEFAULT_RESOLUTION):
    """(int int |g|^p)^(1/p) over the rectangle, plus an error estimate.

    Two passes of ``gauss.tensor_norms`` (panels split at the sign changes
    of g along two scan lines per axis), graded 4 and 5 levels deep toward
    every panel end; the estimate is their difference plus a floor of
    1e-15 of the value, so an identically zero g reports (0, 0).  The
    grading is shallow: the value is good to ~1e-9, not to rounding, and
    ``derivative_norms`` adds the estimate to it.
    """
    p = Exponent.coerce(p)
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    fv = as_grid_fn(g)
    if p.is_infinite:
        value, gain = zoomed_sup(fv, rect, min(resolution, 256))
        return value, abs(gain) + 1e-15 * value

    max_frac = _pass_fraction(resolution)
    require_resolvable(rect.a, rect.b, max_frac / 2.0)
    require_resolvable(rect.c, rect.d, max_frac / 2.0)
    passes = ((4, max_frac), (5, max_frac / 2.0))
    coarse, fine = tensor_norms(fv, rect, p.value, min(resolution, 192), passes)
    return fine, abs(fine - coarse) + 1e-15 * abs(fine)


def finite_difference_partials(f, rect: Rectangle):
    """Centered-difference evaluators (fx, fy, fxy) for a plain f(x, y).

    Step h is 1e-5 of the axis extent; stencils shift one-sided at the
    rectangle edges.  The mixed partial uses the 4-point cross stencil.
    """
    fv = as_grid_fn(f)
    hx = rect.width * 1e-5
    hy = rect.height * 1e-5

    def shifted(x, h, lo, hi):
        xp = np.minimum(np.asarray(x, dtype=float) + h, hi)
        xm = np.maximum(np.asarray(x, dtype=float) - h, lo)
        return xp, xm

    def fx(x, y):
        xp, xm = shifted(x, hx, rect.a, rect.b)
        return (fv(xp, y) - fv(xm, y)) / (xp - xm)

    def fy(x, y):
        yp, ym = shifted(y, hy, rect.c, rect.d)
        return (fv(x, yp) - fv(x, ym)) / (yp - ym)

    def fxy(x, y):
        xp, xm = shifted(x, hx, rect.a, rect.b)
        yp, ym = shifted(y, hy, rect.c, rect.d)
        return (fv(xp, yp) - fv(xp, ym) - fv(xm, yp) + fv(xm, ym)) / ((xp - xm) * (yp - ym))

    return fx, fy, fxy


def partial_evaluators(f: Integrand, rect: Rectangle, fd_fallback: bool = True):
    """Vectorized (fx, fy, fxy, analytic_flag) for an integrand."""
    if f.has_partials:
        return as_grid_fn(f.fx), as_grid_fn(f.fy), as_grid_fn(f.fxy), True
    if not fd_fallback:
        raise ConfigurationError(
            f"integrand {f.label or '<anonymous>'} lacks analytic partials "
            "and the finite-difference fallback is disabled"
        )
    fx, fy, fxy = finite_difference_partials(f.f, rect)
    return fx, fy, fxy, False


def derivative_norms(
    f: Integrand,
    rect: Rectangle,
    p,
    partition: PartitionSpec | None = None,
    rule_family: str = "trapezoid",
    resolution: int = DEFAULT_RESOLUTION,
    fd_fallback: bool = True,
    cache: dict | None = None,
) -> DerivativeNorms:
    """Build the norm bundle a certified bound needs.

    ``x_lines`` are the f_x norms along every line y = y_l across which
    the rule's weight jumps, ``y_lines`` the f_y norms along every such
    x = x_k (see ``weights.ramp_jumps``): the boundary and interior grid
    lines for the trapezoid family, the cell midlines for the midpoint
    family.  Every line and ``fxy``, ||f_xy||_p over the rectangle, is
    the norm plus its error estimate, so the bound does not rest on the
    shallow gradings.  ``cache`` memoizes the area norm and every line
    norm of one integrand per (rectangle, p, resolution), so calls for
    other partitions, rules or rectangles can share it.
    """
    p = Exponent.coerce(p)
    if rule_family not in FAMILIES:
        raise ValueError(f"unknown rule family {rule_family!r}")
    part = partition if partition is not None else PartitionSpec(rect, 1, 1)
    if part.rect != rect:
        raise ValueError("partition was built for a different rectangle")
    fx, fy, fxy, analytic = partial_evaluators(f, rect, fd_fallback)
    # one sub-cache per setup: a line or area norm depends on the rectangle
    # through its extent and the finite-difference steps, not only on p
    store = {} if cache is None else cache.setdefault((rect, str(p), resolution), {})

    def lines(name: str, g, axis: str, coords: np.ndarray) -> list[float]:
        # a line's key is its position across the rectangle, so lines stay
        # distinct however small the rectangle is
        lo, hi = (rect.a, rect.b) if axis == "x" else (rect.c, rect.d)
        c0, c1 = (rect.c, rect.d) if axis == "x" else (rect.a, rect.b)
        known = store.setdefault(name, {})
        keys = np.round((coords - c0) / (c1 - c0), 12).tolist()
        todo: dict[float, float] = {}
        for c, key in zip(coords.tolist(), keys):
            if key not in known:
                todo.setdefault(key, c)
        if todo:
            values, errors = line_norms_with_error(g, axis, list(todo.values()), lo, hi, p, resolution)
            known.update(zip(todo, (values + errors).tolist()))
        return [known[key] for key in keys]

    if "fxy" not in store:
        value, error = area_norm_with_error(fxy, rect, p, resolution)
        store["fxy"] = value + error
    (xs, _), (ys, _) = ramp_jumps(part, rule_family)
    source = "analytic" if analytic else "numeric"
    return DerivativeNorms(
        p=p, family=rule_family, partition=part, fxy=store["fxy"],
        x_lines=lines("fx", fx, "x", ys),
        y_lines=lines("fy", fy, "y", xs),
        provenance=dict.fromkeys(("fxy", "x_lines", "y_lines"), source),
    )
