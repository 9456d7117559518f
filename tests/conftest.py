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


def two_pass_area_norm(g, rect, p, resolution=256):
    """(value, error) of the area norm from its ladder's rungs 1 and 2 alone.

    ``gauss.tensor_norms`` splits the axes at ``gauss.area_breaks`` and
    makes one ``graded_nodes`` build and one ``tensor_p_norm`` sample per
    pass: here 4 and 5 levels deep at panel caps of 1/8 and 1/16 of the
    span (at resolution 256).  The value is the fine pass, the error its
    change from the coarse pass plus a floor of 1e-15 of the value.  A
    report whose ladder escalates to rung 2 returns exactly this.
    """
    frac = 1.0 / max(4, resolution // 32)
    coarse, fine = gauss.tensor_norms(gauss.as_grid_fn(g), rect, float(p), min(resolution, 192),
                                      ((4, frac), (5, frac / 2.0)))
    return fine, abs(fine - coarse) + 1e-15 * abs(fine)
