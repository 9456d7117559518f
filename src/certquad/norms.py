"""Numerical L^p norms of derivative restrictions on lines and rectangles.

Finite-p norms use composite Gauss-Legendre with panels split at detected
sign changes of the integrand (|g|^p has a kink wherever g crosses zero)
and graded toward panel ends, plus one refinement halving whose delta is
the reported error estimate.  p = infinity norms are grid maxima with
local refinement around the argmax (``gauss.abs_argmax``, which reads the
samples g returns without an |g| copy); they are lower bounds of the
essential supremum that tighten under refinement.

No norm is graded to rounding: the line norms are graded 5 and 6 levels
deep (good to ~1e-7 relative), the f_xy area norm 3 to 5 levels deep
(~1e-9), and ``derivative_norms`` adds every norm's error estimate to its
value, so the shallow grading never lowers a bound.  The area norm climbs
a ladder of three rungs graded 3, 4 and 5 levels deep (``_area_ladder``)
and stops at the first two that agree to 1e-12 relative: rung 1 with the
change from rung 0 as its estimate, otherwise rung 2 with the change from
rung 1, which is the two-pass (4, 5)-level norm.  The estimates'
floating-point floors are relative (1e-15 of the value), so a zero
partial's norms stay exactly zero.

A finite-p report builds its norms in three steps (``_norms_with_error``,
the core that ``derivative_norms`` runs): the zero scans, one
``gauss.scan_breaks`` call, in which f_xy's two axes (``gauss.area_scans``)
and then each partial's lines sample all their lines in one call each,
after which every sign change of every scan is refined by one bracketed
secant search, one call per round of each scan with live brackets (a
simple root typically takes 1-4 rounds, none more than 15); a scan with
no zero gives one set that all its lines share, and any lines whose
breaks agree bit for bit share a set, across partials too; one
``gauss.graded_nodes`` build, one entry per set, depth and cap: the area
axes at each rung of the ladder, then every distinct line set's coarse
and fine pass (5 and 6 levels deep) side by side; then the samples and
their reductions, f_xy's two or three tensor passes
(``gauss.tensor_p_norm``) first, then each partial's lines in one
integrand call and one ``gauss.segment_p_norms`` reduction
(``_batch_norms``).  A partial whose lines share one breakpoint set
(every break-free partial) samples that set's coarse-then-fine node row
against the lines' coordinates and reduces the (lines x nodes) block
against the set's weight row, with no gather; any other partial samples
each line's own nodes, gathered flat, and reduces them against its
gathered weights.  f_xy's scans come before the line scans and f_xy's
samples before the line samples, so a non-finite f_xy value on a scan
line is reported before any line's; but every scan runs before any
sample, so a non-finite value on a line scan is reported before a
non-finite f_xy value that only the tensor nodes hit.
``line_norms_with_error`` (every line of one axis; one line is a
one-element ``fixed``) and ``area_norm_with_error`` are one-request views
of the same core.
"""

from __future__ import annotations

from itertools import filterfalse

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
    abs_argmax,
    area_scans,
    as_grid_fn,
    axis_breaks,
    gather_segments,
    graded_nodes,
    line_coords,
    require_finite,
    require_resolvable,
    scan_breaks,
    segment_p_norms,
    tensor_p_norm,
    uniform_grid,
    zoomed_sup,
)
from .weights import ramp_jumps

DEFAULT_RESOLUTION = 256
#: Relative gap at which two rungs of the area norm's ladder agree (``_area_ladder``).
_AREA_RTOL = 1e-12


def _pass_fraction(resolution: int) -> float:
    """Panel-width cap of the coarse Gauss pass as a fraction of the interval; the fine pass halves it."""
    return 1.0 / max(4, resolution // 32)


def _sup_lines(g, axis: str, c: np.ndarray, lo: float, hi: float, resolution: int):
    """Grid maxima of |g| along every line, each zoomed four times around its argmax (``abs_argmax``)."""
    rows = np.arange(c.size)
    t = np.broadcast_to(uniform_grid(lo, hi, resolution + 1), (c.size, resolution + 1))
    best = np.zeros(c.size)
    for step in range(4):
        coords = line_coords(axis, t, c[:, None])
        vals = g(*coords)
        i, top = abs_argmax(vals)
        if not np.isfinite(top).all():
            require_finite(vals, coords)
        best = np.maximum(best, top)
        if step == 0:
            first = best
        n = t.shape[1]
        t = uniform_grid(t[rows, np.maximum(i - 1, 0)], t[rows, np.minimum(i + 1, n - 1)], 65)
    return best, best - first


def _sample_abs(g, axis: str, t, fixed, out=None) -> np.ndarray:
    """|g| at the points t of the lines at ``fixed``, in ``out`` (which t may be) or a new array.

    The samples are checked for finiteness before ``out`` is written, so a
    non-finite sample is reported at its own coordinate.  The array g
    returns is only read: g may hold on to it.
    """
    coords = line_coords(axis, t, fixed)
    vals = g(*coords)
    if not np.isfinite(vals).all():
        require_finite(vals, coords)
    return np.abs(vals, out=out)


def _norms_with_error(p: Exponent, resolution: int, area=None, lines=()):
    """The area norm and the line norms of one report, each with its error estimate.

    ``area`` is None or (g, rect); ``lines`` is a sequence of line batches
    (g, axis, c, lo, hi), c a non-empty float array of transverse
    coordinates; every g is a grid callable.  Returns None or (value,
    error) for the area, and a list of (values, errors) arrays, one pair
    per batch.  A finite p scans and builds once, then samples and
    reduces the area and each batch in turn (see the module docstring);
    p = inf takes grid maxima, which need no build.
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
    # scan: f_xy's two axes and every batch's lines in one bracket search; the
    # area axes are the first sets
    scans = [] if area is None else area_scans(*area, min(resolution, 192))
    axes = len(scans)
    found = scan_breaks(scans + [(g, axis, c, lo, hi, resolution) for g, axis, c, lo, hi in lines])
    axis_sets, line_sets = [axis_breaks(f) for f in found[:axes]], []
    owners = _line_sets(found[axes:], line_sets)
    del found  # the build needs only the sets: free the lines' breaks before it
    # build: the area axes at the ladder's rungs 0, 1 and 2, then each line
    # set's coarse and fine pass side by side, as (levels, cap per unit span)
    rungs = (3, 2.0 * max_frac), (4, max_frac), (5, max_frac / 2.0)
    passes = (5, max_frac), (6, max_frac / 2.0)
    entries = [(s, *rung) for rung in rungs for s in axis_sets] + [(s, *q) for s in line_sets for q in passes]
    sets, levels, fracs = zip(*entries)
    build = graded_nodes(sets, levels, np.asarray([s[-1] - s[0] for s in sets]) * fracs)
    area_norm = None if area is None else _area_ladder(area[0], p.value, build)
    lead = 3 * axes  # each line's coarse entry is lead + 2 * its set
    return area_norm, [_batch_norms(p, build, *batch[:3], lead + 2 * owner) for batch, owner in zip(lines, owners)]


def _area_ladder(g, p: float, build) -> tuple[float, float]:
    """(value, error) of the area norm from the first two rungs of its ladder that agree.

    ``build`` is the report's (nodes, weights, bounds), whose entries 2r
    and 2r + 1 are the x and y axes of rung r, for r = 0, 1, 2: rung r is
    the tensor pass of those two entries.  Rung 1 is accepted when it is
    within ``_AREA_RTOL`` of rung 0, relative to rung 1, so a zero f_xy
    reports (0, 0) there; otherwise rung 2 is sampled and reported against
    rung 1.  The error is the last step's change plus a floating-point
    floor of 1e-15 of the value.
    """
    nodes, weights, bounds = build
    rungs = []
    for i in (0, 2, 4):  # each rung's x entry
        x, y = slice(bounds[i], bounds[i + 1]), slice(bounds[i + 1], bounds[i + 2])
        rungs.append(tensor_p_norm(g, nodes[x], nodes[y], weights[x], weights[y], p))
        if len(rungs) > 1 and abs(rungs[-1] - rungs[-2]) <= _AREA_RTOL * abs(rungs[-1]):
            break
    prev, value = rungs[-2:]
    return value, abs(value - prev) + 1e-15 * abs(value)


def _line_sets(found, sets: list) -> list:
    """Each batch's owners, appending the distinct breakpoint sets of its lines to ``sets``.

    ``found`` holds the batches' ``scan_breaks`` results.  Sets are shared
    in first-seen order across batches, by their exact bytes; a batch's
    owners are the set of each line, or the one set all its lines share.
    A function of its own so that the bytes keys are freed before the build.
    """
    index: dict[bytes, int] = {}
    owners = []
    for points, sizes in found:
        if sizes is None:  # no zero: one set for all the batch's lines
            k = index.setdefault(points.tobytes(), len(sets))
            if k == len(sets):
                sets.append(points)
            owners.append(np.array([k]))
            continue
        buf = points.tobytes()
        ends = (8 * np.cumsum(sizes)).tolist()
        keys = [buf[a:b] for a, b in zip([0, *ends], ends)]
        fresh = list(filterfalse(index.__contains__, dict.fromkeys(keys)))
        index.update(zip(fresh, range(len(sets), len(sets) + len(fresh))))
        sets.extend(map(np.frombuffer, fresh))
        owners.append(np.fromiter(map(index.__getitem__, keys), np.int64, len(keys)))
    return owners


def _batch_norms(p: Exponent, build, g, axis: str, c: np.ndarray, owner: np.ndarray):
    """The (values, errors) of one line batch: its samples and their reduction.

    ``build`` is the report's (nodes, weights, bounds) and ``owner`` the
    coarse entry of each line's set, or of the one set all lines share;
    the set's fine entry follows it.  A batch whose lines share one set
    samples that set's coarse-then-fine node row against every line and
    reduces the (lines x nodes) block against the set's weight row; any
    other batch samples each line's own nodes, gathered flat into the
    buffer that then holds their magnitudes, and reduces them against its
    gathered weights.  A function of its own so that a batch's arrays are
    freed before the next batch samples.
    """
    nodes, weights, bounds = build
    if (owner == owner[0]).all():
        lo, mid, hi = bounds[owner[0]:owner[0] + 3]
        magnitudes = _sample_abs(g, axis, nodes[None, lo:hi], c[:, None])
        w, sizes = weights[lo:hi], [mid - lo, hi - mid]
    else:
        offsets, counts = bounds[owner], bounds[owner + 2] - bounds[owner]
        t = gather_segments(nodes, offsets, counts)
        magnitudes = _sample_abs(g, axis, t, np.repeat(c, counts), out=t)
        w = gather_segments(weights, offsets, counts)
        sizes = np.diff(bounds)[np.stack((owner, owner + 1), axis=1).ravel()]
    coarse, fine = segment_p_norms(magnitudes, w, sizes, p.value).reshape(-1, 2).T
    return fine, np.abs(fine - coarse) + 1e-15 * fine


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

    Graded tensor Gauss passes (``gauss.tensor_p_norm``), panels split at
    the sign changes of g along two scan lines per axis
    (``gauss.area_breaks``) and graded toward every panel end: rung 0 at 3
    levels and twice the coarse panel cap, rung 1 at 4 levels, rung 2 at 5
    levels and half the cap.  Rung 1 is reported when it agrees with rung
    0 to 1e-12 relative, else rung 2; the estimate is the change from the
    rung below plus a floor of 1e-15 of the value, so an identically zero
    g reports (0, 0) after two rungs.  The grading is shallow: the value
    is good to ~1e-9, not to rounding, and ``derivative_norms`` adds the
    estimate to it.  This is the area-only
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
    finite p one ``graded_nodes`` build per report and one
    ``segment_p_norms`` reduction per partial with lines not yet known,
    f_xy sampled before the lines, at two rungs of its ladder or, when
    they disagree, three (see the module docstring).  ``cache``
    memoizes the area norm and every line norm of one integrand per
    (rectangle, p, resolution), a line keyed by its exact coordinate, so
    calls for other partitions, rules or rectangles can share it; a
    report whose norms are all cached builds nothing.
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
    # a line's key is its transverse coordinate, exactly; the lines not yet
    # known form one batch per partial
    keys, batches, todos = {}, [], []
    for name, g, axis, coords, (lo, hi) in (
        ("fx", fx, "x", ys, (rect.a, rect.b)),
        ("fy", fy, "y", xs, (rect.c, rect.d)),
    ):
        known = store.setdefault(name, {})
        keys[name] = coords.tolist()
        todo = list(filterfalse(known.__contains__, dict.fromkeys(keys[name])))
        if todo:
            batches.append((g, axis, np.asarray(todo), lo, hi))
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
        x_lines=tuple(map(store["fx"].__getitem__, keys["fx"])),
        y_lines=tuple(map(store["fy"].__getitem__, keys["fy"])),
        provenance=dict.fromkeys(("fxy", "x_lines", "y_lines"), source),
    )
