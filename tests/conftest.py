import numpy as np
import pytest
from hypothesis import settings

import certquad as cq
from certquad import gauss

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")

UNIT = cq.Rectangle.unit()
SYM = cq.Rectangle.symmetric()
SKEW = cq.Rectangle(-2.0, 3.0, 1.0, 4.0)

RECT_SET = (
    SYM,
    UNIT,
    cq.Rectangle(0.0, 2.0, 0.0, 3.0),
    SKEW,
    cq.Rectangle(0.5, 1.75, -0.25, 0.5),
)


@pytest.fixture
def unit():
    return UNIT


@pytest.fixture
def sym():
    return SYM


@pytest.fixture
def skew():
    return SKEW


def integrand(name, rect=None):
    return cq.get_entry(name).integrand(rect)


def line_breaks(g, axis, fixed, lo, hi, resolution):
    """Each line's breakpoints from a one-scan ``gauss.scan_breaks`` call, one array per line."""
    c = np.asarray(fixed, dtype=float).ravel()
    ((points, sizes),) = gauss.scan_breaks([(g, axis, c, lo, hi, resolution)])
    if sizes is None:
        return [points] * c.size
    ends = np.cumsum(sizes).tolist()
    return [points[a:b] for a, b in zip([0, *ends], ends)]


def tensor_norms(g, rect, p, scan, passes):
    """L^p norms of a grid callable g over a rectangle by graded tensor Gauss, one per pass.

    The axes are split at ``gauss.area_breaks(g, rect, scan)``.  A pass
    (levels, cap) is both axes graded ``levels`` deep with panels at most
    cap times the axis span wide; every pass is one pair of entries of one
    ``gauss.graded_nodes`` build, and its norm one ``gauss.tensor_p_norm``
    sample of g.
    """
    axes = gauss.area_breaks(g, rect, scan)
    sets, levels, caps = zip(*[(s, depth, (s[-1] - s[0]) * cap) for depth, cap in passes for s in axes])
    nodes, weights, bounds = gauss.graded_nodes(sets, levels, caps)
    xs, ws = np.split(nodes, bounds[1:-1]), np.split(weights, bounds[1:-1])
    return [gauss.tensor_p_norm(g, x, y, wx, wy, p) for x, y, wx, wy in zip(xs[0::2], xs[1::2], ws[0::2], ws[1::2])]


def two_pass_area_norm(g, rect, p, resolution=256):
    """(value, error) of the area norm from its ladder's rungs 1 and 2 alone.

    ``tensor_norms`` at 4 and 5 levels deep and panel caps of 1/8 and 1/16
    of the span (at resolution 256).  The value is the fine pass, the
    error its change from the coarse pass plus a floor of 1e-15 of the
    value.  A report whose ladder escalates to rung 2 returns exactly this.
    """
    frac = 1.0 / max(4, resolution // 32)
    coarse, fine = tensor_norms(gauss.as_grid_fn(g), rect, float(p), min(resolution, 192),
                                ((4, frac), (5, frac / 2.0)))
    return fine, abs(fine - coarse) + 1e-15 * abs(fine)
