"""Numerical L^p norms of derivative restrictions on lines and rectangles.

Finite-p norms use composite Gauss-Legendre with panels split at detected
sign changes of the integrand (|g|^p has a kink wherever g crosses zero)
and graded toward panel ends, plus one refinement halving whose delta is
the reported error estimate.  p = infinity norms are grid maxima with
local refinement around the argmax: the area's (``gauss.zoomed_sup``)
reads g's samples without an |g| copy (``gauss.abs_argmax``), and the
lines' (``_sup_lines``) take an |g| copy of their small samples.  They
are lower bounds of the essential supremum that tighten under
refinement.

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
after which every bracket of every scan, two neighbouring samples of a
line of which one is negative and the other not (+-0 is not negative),
is refined by one bracketed secant search, one call per round of each
scan with live brackets (a simple root typically takes 1-4 rounds, none
more than 15); every line scans exhaustively, keeping every bracket of
its scan, so no Gauss pass integrates |g|^p across a sign change it was
not told of (the f_xy axes keep the cap of 32 per line); a scan with no
bracket, such as one of +-0 samples only, gives one set that all its
lines share, and any lines whose breaks agree bit for bit share a set,
across partials too; one ``gauss.graded_nodes`` build, one entry per set,
depth and cap: the area axes at each rung of the ladder, then every
distinct line set's coarse and fine pass (5 and 6 levels deep) side by
side, where every panel maps a cached layout of [0, 1]; then the
samples and their reductions, f_xy's two or three
tensor passes (``gauss.tensor_p_norm``) first, then each partial's lines
in one integrand call and one ``gauss.segment_p_norms`` reduction
(``_batch_norms``), which skips the powers of a batch whose samples are
all zero.  A partial whose lines share one breakpoint set (every
break-free partial) samples that set's coarse-then-fine node row
against the lines' coordinates and reduces the (lines x nodes) block
against the set's weight row, with no gather; any other partial samples
each line's own nodes, gathered flat, and reduces them against its
gathered weights.  f_xy's scans come before the line scans and f_xy's
samples before the line samples, so a non-finite f_xy value on a scan
line is reported before any line's; but every scan runs before any
sample, so a non-finite value on a line scan is reported before a
non-finite f_xy value that only the tensor nodes hit.
The core has two callers: ``derivative_norms``, and
``rules.custom_phi_rule``, which takes its weight's area norm and edge
norms from one run of it.

At p = 1 ``derivative_norms`` hands the core f as each line batch's
antiderivative, and its lines need no Gauss pass.  Between two breaks
of its exhaustive scan (``gauss.scan_breaks``) f_x is >= 0 at every
sample or < 0 at every sample, so on the scan's resolution it keeps one
sign, and ||f_x(., y)||_1 is sum_i |f(t_{i+1}, y) - f(t_i, y)|
over its breaks t_i, exact up to rounding, from one call of f per
partial at every break of its lines (``_variation_norms``).  A p = 1
report builds only the area axes and reduces no line.  The weight's
edges in ``custom_phi_rule`` have no antiderivative and keep the passes
at every p.
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
    area_scans,
    as_grid_fn,
    axis_breaks,
    finite_samples,
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
    """Grid maxima of |g| along every line and their gain over the first grid.

    Every line is sampled on the same resolution + 1 points, one grid row
    against the lines' coordinates (a separable g evaluates its factor
    along the lines once), then three times on 65 points of its own,
    spanning the neighbours of its last argmax.  The argmax is
    taken on an |g| copy: the line samples are small, so the copy costs
    less than the extra numpy calls of reading them in place, as
    ``gauss.abs_argmax`` does for the much larger area grid.
    """
    rows = np.arange(c.size)
    t = uniform_grid(lo, hi, resolution + 1)[None, :]
    best = np.zeros(c.size)
    for step in range(4):
        if step:
            at, n = rows if step > 1 else 0, t.shape[1]
            t = uniform_grid(t[at, np.maximum(i - 1, 0)], t[at, np.minimum(i + 1, n - 1)], 65)
        coords = line_coords(axis, t, c[:, None])
        vals = np.abs(g(*coords))
        i = np.argmax(vals, axis=1)
        top = vals[rows, i]
        if not np.isfinite(top).all():
            require_finite(vals, coords)
        best = np.maximum(best, top)
        if step == 0:
            first = best
    return best, best - first


def _norms_with_error(p: Exponent, resolution: int, area=None, lines=()):
    """The area norm and the line norms of one report, each with its error estimate.

    ``area`` is None or (g, rect); ``lines`` is a sequence of line batches
    (g, axis, c, lo, hi, antiderivative), c a non-empty float array of
    transverse coordinates and antiderivative None or a function whose
    partial along ``axis`` is g; every function is a grid callable.
    Returns None or (value, error) for the area, and a list of (values,
    errors) arrays, one pair per batch.  A finite p scans and builds
    once, then samples and reduces the area and each batch in turn (see
    the module docstring); every batch's lines scan exhaustively, and at
    p = 1 a batch with an antiderivative takes its norms from it
    (``_variation_norms``) and builds nothing.  p = inf takes grid
    maxima, which need no build.
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
            value, gain = _sup_lines(*batch[:5], resolution)
            line_norms.append((value, np.abs(gain) + 1e-15 * value))
        return area_norm, line_norms

    max_frac = _pass_fraction(resolution)
    if area is not None:
        require_resolvable(area[1].a, area[1].b, max_frac / 2.0)
        require_resolvable(area[1].c, area[1].d, max_frac / 2.0)
    for _, _, _, lo, hi, _ in lines:
        require_resolvable(lo, hi, max_frac / 2.0)
    # scan: f_xy's two axes and every batch's lines in one bracket search; the
    # area axes are the first sets, and every line scans exhaustively; at
    # p = 1 a batch with an antiderivative takes no Gauss pass
    scans = [] if area is None else area_scans(*area, min(resolution, 192))
    axes = len(scans)
    by_f = [p.is_one and batch[5] is not None for batch in lines]
    found = scan_breaks(scans + [(g, axis, c, lo, hi, resolution, True) for g, axis, c, lo, hi, _ in lines])
    gauss = [k for k, exact in enumerate(by_f) if not exact]
    axis_sets, line_sets = [axis_breaks(f) for f in found[:axes]], []
    owners = _line_sets([found[axes + k] for k in gauss], line_sets)
    # build: the area axes at the ladder's rungs 0, 1 and 2, then each line
    # set's coarse and fine pass side by side, as (levels, cap per unit span)
    rungs = (3, 2.0 * max_frac), (4, max_frac), (5, max_frac / 2.0)
    passes = (5, max_frac), (6, max_frac / 2.0)
    entries = [(s, *rung) for rung in rungs for s in axis_sets] + [(s, *q) for s in line_sets for q in passes]
    build = None
    if entries:
        sets, levels, fracs = zip(*entries)
        build = graded_nodes(sets, levels, np.asarray([s[-1] - s[0] for s in sets]) * fracs)
    area_norm = None if area is None else _area_ladder(area[0], p.value, build)
    # samples: a batch's antiderivative at the breaks of its lines, or the
    # batch's Gauss passes
    line_norms = [_variation_norms(f, axis, c, breaks) if exact else None
                  for exact, (_, axis, c, _, _, f), breaks in zip(by_f, lines, found[axes:])]
    lead = 3 * axes  # each line's coarse entry is lead + 2 * its set
    for k, owner in zip(gauss, owners):
        g, axis, c = lines[k][:3]
        line_norms[k] = _batch_norms(p, build, g, axis, c, lead + 2 * owner)
    return area_norm, line_norms


def _variation_norms(f, axis: str, c: np.ndarray, found):
    """The p = 1 norms of g along a batch's lines from f, whose partial along ``axis`` is g.

    ``found`` is the batch's exhaustive ``scan_breaks`` result.  Between
    two neighbouring breaks t_i < t_{i+1} of a line g keeps one sign, so
    ||g||_1 is exactly sum_i |f(t_{i+1}) - f(t_i)|: one call of f at
    every break of every line.  The error is the rounding of f,
    2^-51 max(|f(t_i)|, |f(t_{i+1})|) per nonzero step, so a line along
    which f is constant reports (0, 0).
    """
    points, sizes = found
    if sizes is None:  # every line is [lo, hi]
        sizes = np.full(c.size, points.size)
        points = np.tile(points, c.size)
    v = finite_samples(f, line_coords(axis, points, np.repeat(c, sizes)))
    # the steps within each line: drop the step from one line's last break to the next line's first
    ends = np.cumsum(sizes)
    inner = np.ones(v.size - 1, dtype=bool)
    inner[ends[:-1] - 1] = False
    steps = np.abs(np.diff(v))[inner]
    floors = np.where(steps > 0.0, 2.0**-51 * np.maximum(np.abs(v[:-1]), np.abs(v[1:]))[inner], 0.0)
    first = ends - sizes - np.arange(sizes.size)
    return np.add.reduceat(steps, first), np.add.reduceat(floors, first)


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
        buf = points.tobytes()
        ends = [len(buf)] if sizes is None else (8 * np.cumsum(sizes)).tolist()
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
    reduces the (lines x nodes) block against the set's weight row, with
    no gather (most batches of a report share a set, and gathering them
    too runs slower); any other batch samples each line's own nodes,
    gathered flat, and reduces them against its gathered weights.  The
    samples g returns are only read (g may hold on to them): the
    reduction works on an |g| copy.  A function of its own so that a
    batch's arrays are freed before the next batch samples.
    """
    nodes, weights, bounds = build
    if (owner == owner[0]).all():
        lo, mid, hi = bounds[owner[0]:owner[0] + 3]
        magnitudes = np.abs(finite_samples(g, line_coords(axis, nodes[None, lo:hi], c[:, None])))
        w, sizes = weights[lo:hi], [mid - lo, hi - mid]
    else:
        offsets, counts = bounds[owner], bounds[owner + 2] - bounds[owner]
        t = gather_segments(nodes, offsets, counts)
        magnitudes = np.abs(finite_samples(g, line_coords(axis, t, np.repeat(c, counts))))
        w = gather_segments(weights, offsets, counts)
        sizes = np.diff(bounds)[np.stack((owner, owner + 1), axis=1).ravel()]
    coarse, fine = segment_p_norms(magnitudes, w, sizes, p.value).reshape(-1, 2).T
    return fine, np.abs(fine - coarse) + 1e-15 * fine


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
    they disagree, three (see the module docstring).  At p = 1 every line
    is instead the variation of f along it over the breaks of its
    exhaustive zero scan, exact up to rounding, plus a rounding floor, so
    f_x and f_y must be the partials of f.  ``cache``
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
    fv = as_grid_fn(f.f)
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
            batches.append((g, axis, np.asarray(todo), lo, hi, fv))
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
