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

A finite-p report builds its norms in four steps, each once per report
(``_norms_with_error``, the core that ``derivative_norms`` runs): the
zero scans, f_xy's two axes (``gauss.area_breaks``) first, then each
partial's lines, all lines of a partial in one call with their sign
changes refined together by a bracketed secant search of one call per
round (``gauss.zero_breaks``; a simple root typically takes 1-4 rounds,
none more than 15); one ``gauss.graded_nodes`` build of every distinct
breakpoint set for both Gauss passes, the area axes 4 and 5 levels deep
and the line sets 5 and 6; the samples, f_xy's two tensor passes
(``gauss.tensor_p_norm``) first, then each partial's lines in one
integrand call, as one (lines x nodes) array when all its lines share
their breakpoints and as one flat array of each line's own nodes
otherwise, every line's nodes gathered into one buffer that its
magnitudes overwrite; and one ``gauss.segment_p_norms`` call that
reduces every line.  f_xy's scans come before the line scans and f_xy's
samples before the line samples, so a non-finite f_xy value on a scan
line is reported before any line's; but every scan runs before any
sample, so a non-finite value on a line scan is reported before a
non-finite f_xy value that only the tensor nodes hit.
``line_norms_with_error`` (every line of one axis; one line is a
one-element ``fixed``) and ``area_norm_with_error`` are one-request views
of the same core.
"""

from __future__ import annotations

import numpy as np

from .core import (
    FAMILIES,
    DerivativeNorms,
    Exponent,
    Integrand,
    PartitionSpec,
    Rectangle,
)
from .gauss import (
    area_breaks,
    as_grid_fn,
    gather_segments,
    graded_nodes,
    line_coords,
    require_finite,
    require_resolvable,
    segment_p_norms,
    tensor_p_norm,
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
        t = uniform_grid(t[rows, np.maximum(i - 1, 0)], t[rows, np.minimum(i + 1, n - 1)], 65)
    return best, best - first


def _sample_abs(out, g, axis: str, t, fixed) -> None:
    """Store |g| at the points t of the lines at ``fixed`` in ``out``, which t may share.

    The samples are checked for finiteness before ``out`` is written, so a
    non-finite sample is reported at its own coordinate.
    """
    coords = line_coords(axis, t, fixed)
    vals = g(*coords)
    if not np.isfinite(vals).all():
        require_finite(vals, coords)
    np.abs(vals, out=out.reshape(vals.shape))


def _norms_with_error(p: Exponent, resolution: int, area=None, lines=()):
    """The area norm and the line norms of one report, each with its error estimate.

    ``area`` is None or (g, rect); ``lines`` is a sequence of line batches
    (g, axis, c, lo, hi), c a non-empty float array of transverse
    coordinates; every g is a grid callable.  Returns None or (value,
    error) for the area, and a list of (values, errors) arrays, one pair
    per batch.  A finite p scans, builds, samples and reduces once each,
    the area before the lines (see the module docstring); p = inf takes
    grid maxima, which need no build.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    if p.is_infinite:
        area_norm = None
        if area is not None:
            value, gain = zoomed_sup(*area, min(resolution, 256))
            area_norm = value, abs(gain) + 1e-15 * value
        line_norms = []
        for batch in lines:
            value, gain = _sup_lines(*batch, resolution)
            line_norms.append((value, np.abs(gain) + 1e-15 * value))
        return area_norm, line_norms

    max_frac = _pass_fraction(resolution)
    if area is not None:
        require_resolvable(area[1].a, area[1].b, max_frac / 2.0)
        require_resolvable(area[1].c, area[1].d, max_frac / 2.0)
    for _, _, _, lo, hi in lines:
        require_resolvable(lo, hi, max_frac / 2.0)
    # scan: the area's two axes are the first sets, then come the distinct
    # breakpoint sets of the lines, shared across batches, and each line's set
    sets = [] if area is None else area_breaks(*area, min(resolution, 192))
    axes = len(sets)
    index: dict[bytes, int] = {}
    owners = []
    for g, axis, c, lo, hi in lines:
        owner = np.empty(c.size, dtype=np.int64)
        for k, breaks in enumerate(zero_breaks(g, axis, c, lo, hi, resolution)):
            owner[k] = index.setdefault(breaks.tobytes(), len(sets))
            if owner[k] == len(sets):
                sets.append(breaks)
        owners.append(owner)
    # build: a coarse and a fine pass of every set, the area axes a level shallower
    depth = np.full(len(sets), 5)
    depth[:axes] = 4
    spans = np.asarray([s[-1] - s[0] for s in sets])
    nodes, weights, bounds = graded_nodes(
        sets, ((depth, spans * max_frac), (depth + 1, spans * (max_frac / 2.0)))
    )
    area_norm = None
    if area is not None:
        passes = []
        for i in (0, len(sets)):  # x then y of the coarse pass, then of the fine pass
            x, y = slice(bounds[i], bounds[i + 1]), slice(bounds[i + 1], bounds[i + 2])
            passes.append(tensor_p_norm(area[0], nodes[x], nodes[y], weights[x], weights[y], p.value))
        coarse, fine = passes
        area_norm = fine, abs(fine - coarse) + 1e-15 * abs(fine)
    if not lines:
        return area_norm, []
    # the lines' segments: each line's coarse then its fine samples, with the
    # nodes and weights of its set's two passes
    line_set = np.concatenate(owners)
    seg = np.empty(2 * line_set.size, dtype=np.int64)
    seg[0::2], seg[1::2] = line_set, line_set + len(sets)
    offsets, sizes = bounds[seg], np.diff(bounds)[seg]
    # sample: every line's nodes are gathered into one buffer, which each
    # batch's integrand call overwrites with |g|; a batch whose lines share
    # one set samples that set's row against every line, any other batch
    # each line's own nodes
    magnitudes = gather_segments(nodes, offsets, sizes)
    del nodes  # held through the sampling, it raises the peak RSS
    first = end = 0
    for (g, axis, c, _, _), owner in zip(lines, owners):
        size = sizes[2 * first:2 * (first + c.size)]
        t = magnitudes[end:end + size.sum()]
        if (owner == owner[0]).all():
            _sample_abs(t, g, axis, t.reshape(c.size, -1)[:1], c[:, None])
        else:
            _sample_abs(t, g, axis, t, np.repeat(c, size[0::2] + size[1::2]))
        first, end = first + c.size, end + t.size
    coarse, fine = segment_p_norms(magnitudes, weights, offsets, sizes, p.value).reshape(-1, 2).T
    errors = np.abs(fine - coarse) + 1e-15 * fine
    ends = np.cumsum([0] + [c.size for _, _, c, _, _ in lines]).tolist()
    return area_norm, [(fine[a:b], errors[a:b]) for a, b in zip(ends, ends[1:])]


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
    This is the one-batch view of the core ``derivative_norms`` runs.
    """
    p = Exponent.coerce(p)
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    c = np.asarray(fixed, dtype=float).ravel()
    if c.size == 0:
        return np.zeros(0), np.zeros(0)
    _, (norms,) = _norms_with_error(p, resolution, lines=[(as_grid_fn(g), axis, c, lo, hi)])
    return norms


def area_norm_with_error(g, rect: Rectangle, p, resolution: int = DEFAULT_RESOLUTION):
    """(int int |g|^p)^(1/p) over the rectangle, plus an error estimate.

    Two graded tensor Gauss passes (``gauss.tensor_p_norm``), panels split
    at the sign changes of g along two scan lines per axis
    (``gauss.area_breaks``), graded 4 and 5 levels deep toward every panel
    end; the estimate is their difference plus a floor of 1e-15 of the
    value, so an identically zero g reports (0, 0).  The grading is
    shallow: the value is good to ~1e-9, not to rounding, and
    ``derivative_norms`` adds the estimate to it.  This is the area-only
    view of the core ``derivative_norms`` runs, whose one ``graded_nodes``
    build grades the area axes alongside the lines.
    """
    area_norm, _ = _norms_with_error(Exponent.coerce(p), resolution, area=(as_grid_fn(g), rect))
    return area_norm


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


def partial_evaluators(f: Integrand, rect: Rectangle):
    """Vectorized (fx, fy, fxy, analytic_flag) for an integrand.

    An integrand without analytic partials gets finite differences of f.
    """
    if f.has_partials:
        return as_grid_fn(f.fx), as_grid_fn(f.fy), as_grid_fn(f.fxy), True
    fx, fy, fxy = finite_difference_partials(f.f, rect)
    return fx, fy, fxy, False


def derivative_norms(
    f: Integrand,
    rect: Rectangle,
    p,
    partition: PartitionSpec | None = None,
    rule_family: str = "trapezoid",
    resolution: int = DEFAULT_RESOLUTION,
    cache: dict | None = None,
) -> DerivativeNorms:
    """Build the norm bundle a certified bound needs.

    ``x_lines`` are the f_x norms along every line y = y_l across which
    the rule's weight jumps, ``y_lines`` the f_y norms along every such
    x = x_k (see ``weights.ramp_jumps``): the boundary and interior grid
    lines for the trapezoid family, the cell midlines for the midpoint
    family.  Every line and ``fxy``, ||f_xy||_p over the rectangle, is
    the norm plus its error estimate, so the bound does not rest on the
    shallow gradings.  The norms not yet known are built together: at
    finite p one ``graded_nodes`` build and one ``segment_p_norms``
    reduction per report, f_xy sampled before the lines (see the module
    docstring).  ``cache`` memoizes the area norm and every line norm of
    one integrand per (rectangle, p, resolution), so calls for other
    partitions, rules or rectangles can share it; a report whose norms
    are all cached builds nothing.
    """
    p = Exponent.coerce(p)
    if rule_family not in FAMILIES:
        raise ValueError(f"unknown rule family {rule_family!r}")
    part = partition if partition is not None else PartitionSpec(rect, 1, 1)
    if part.rect != rect:
        raise ValueError("partition was built for a different rectangle")
    fx, fy, fxy, analytic = partial_evaluators(f, rect)
    # one sub-cache per setup: a line or area norm depends on the rectangle
    # through its extent and the finite-difference steps, not only on p
    store = {} if cache is None else cache.setdefault((rect, str(p), resolution), {})
    (xs, _), (ys, _) = ramp_jumps(part, rule_family)
    # a line's key is its position across the rectangle, so lines stay
    # distinct however small the rectangle is; the lines not yet known
    # form one batch per partial
    keys, batches, todos = {}, [], []
    for name, g, axis, coords, (lo, hi), (c0, c1) in (
        ("fx", fx, "x", ys, (rect.a, rect.b), (rect.c, rect.d)),
        ("fy", fy, "y", xs, (rect.c, rect.d), (rect.a, rect.b)),
    ):
        known = store.setdefault(name, {})
        keys[name] = np.round((coords - c0) / (c1 - c0), 12).tolist()
        todo: dict[float, float] = {}
        for c, key in zip(coords.tolist(), keys[name]):
            if key not in known:
                todo.setdefault(key, c)
        if todo:
            batches.append((g, axis, np.asarray(list(todo.values()), dtype=float), lo, hi))
            todos.append((known, todo))
    area = None if "fxy" in store else (fxy, rect)
    if area is not None or batches:
        area_norm, line_norms = _norms_with_error(p, resolution, area, batches)
        if area_norm is not None:
            store["fxy"] = area_norm[0] + area_norm[1]
        for (known, todo), (values, errors) in zip(todos, line_norms):
            known.update(zip(todo, (values + errors).tolist()))
    source = "analytic" if analytic else "numeric"
    return DerivativeNorms(
        p=p, family=rule_family, partition=part, fxy=store["fxy"],
        x_lines=[store["fx"][key] for key in keys["fx"]],
        y_lines=[store["fy"][key] for key in keys["fy"]],
        provenance=dict.fromkeys(("fxy", "x_lines", "y_lines"), source),
    )
