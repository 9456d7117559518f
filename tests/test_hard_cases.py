"""Hard cases checked against references that do not come from certquad.

Each reference is a closed form or a one-dimensional ``scipy.integrate.quad``
split at the known kinks.  A case that fails today is marked
``xfail(strict=True)`` with the roadmap item that must fix it, so the fix
also has to drop the mark.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import certquad as cq
from certquad.cli import certificate_ok
from conftest import integrand, two_pass_area_norm

P_FINITE = (1, 1.5, 2, 3)


def known_defect(item):
    """A case that fails today; an error other than a failed assert still fails it."""
    return [pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")]


# --- sinsum's f_xy: a sign change on a diagonal ------------------------------

SINSUM_RECTS = {
    "0.1x1.3": cq.Rectangle(0.1, 1.3, -0.2, 0.9),
    "pi-square": cq.Rectangle(0.0, np.pi, 0.0, np.pi),
    "-1x0.5": cq.Rectangle(-1.0, 0.5, -0.7, 0.8),
    "-0.721": cq.Rectangle(-0.721, 1.6958, 1.1387, 3.0717),
    "-0.0489": cq.Rectangle(-0.0489, 2.4344, -0.8033, 1.535),
}

# (rectangle, p) where the stored fxy is below the closed form
SINSUM_SHORT = {
    ("0.1x1.3", 1), ("0.1x1.3", 1.5), ("pi-square", 1),
    ("-0.721", 1), ("-0.721", 1.5), ("-0.0489", 3),
}


def sinsum_fxy_norm(rect, p):
    """||sin(x + y)||_p over rect as the 1-D integral of |sin u|^p L(u).

    L(u) is the length of the rectangle's diagonal x + y = u, measured in x.
    The integrand is smooth between the kinks of L and the zeros of sin.
    """
    a, b, c, d = rect.a, rect.b, rect.c, rect.d

    def g(u):
        return abs(math.sin(u)) ** p * max(0.0, min(b, u - c) - max(a, u - d))

    lo, hi = a + c, b + d
    zeros = np.pi * np.arange(math.ceil(lo / np.pi), math.floor(hi / np.pi) + 1)
    breaks = np.unique(np.concatenate(([lo, hi, a + d, b + c], zeros)))
    total = sum(quad(g, u0, u1, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for u0, u1 in zip(breaks[:-1], breaks[1:]))
    return total ** (1.0 / p)


def _sinsum_cases():
    for key in SINSUM_RECTS:
        for p in P_FINITE:
            marks = known_defect(8) if (key, p) in SINSUM_SHORT else []
            yield pytest.param(key, p, id=f"{key}-p{p}", marks=marks)


@pytest.mark.parametrize("key,p", _sinsum_cases())
def test_sinsum_fxy_not_below_closed_form(key, p):
    rect = SINSUM_RECTS[key]
    truth = sinsum_fxy_norm(rect, p)
    assert cq.derivative_norms(integrand("sinsum", rect), rect, p).fxy >= truth * (1.0 - 1e-12)


# --- steep tanh: a front between the scan points ------------------------------

STEEP_RECT = cq.Rectangle(0.5814, 1.4938, 0.2063, 0.7521)


def _log_cosh(z):
    z = abs(z)
    return z + math.log1p(math.exp(-2.0 * z)) - math.log(2.0)


def steep_tanh(rect):
    """f = tanh((x - x0)/eps), eps = 1e-4 W, x0 at 177.5/256 of the width."""
    eps = 1e-4 * rect.width
    x0 = rect.a + rect.width * 177.5 / 256

    def zero(x, y):
        return 0.0 * np.asarray(x, dtype=float) + 0.0 * np.asarray(y, dtype=float)

    def f(x, y):
        return np.tanh((np.asarray(x, dtype=float) - x0) / eps) + zero(x, y)

    def fx(x, y):
        # sech^2 z = 4 t / (1 + t)^2 with t = e^{-2|z|}, which never overflows
        t = np.exp(-2.0 * np.abs((np.asarray(x, dtype=float) - x0) / eps))
        return 4.0 * t / (1.0 + t) ** 2 / eps + zero(x, y)

    exact = rect.height * eps * (_log_cosh((rect.b - x0) / eps) - _log_cosh((rect.a - x0) / eps))
    return cq.Integrand(f=f, fx=fx, fy=zero, fxy=zero, exact_integral=exact)


def _steep_cases():
    for rule in ("composite-trapezoid", "composite-midpoint"):
        for p in (*P_FINITE, cq.INF):
            marks = known_defect(1) if p not in (1, cq.INF) else []
            yield pytest.param(rule, p, id=f"{rule}-p{p}", marks=marks)


@pytest.mark.parametrize("rule,p", _steep_cases())
def test_steep_tanh_certified_or_refused(rule, p):
    f = steep_tanh(STEEP_RECT)
    try:
        rep = cq.rule_report(f, STEEP_RECT, rule, p, cq.PartitionSpec(STEEP_RECT, 2, 2))
    except cq.CertquadError:
        return
    error = abs(rep.estimate - f.exact_integral)
    assert certificate_ok(error, rep.bound), (rep.bound, error)


# --- tanh product: an f_xy spike between the scan lines -----------------------

SPIKE_RECT = cq.Rectangle(0.2, 1.4, -0.3, 0.6)
SPIKE_EPS = (0.05, 0.02, 0.01, 0.005)
# narrower fronts, checked against the closed form only
NARROW_EPS = (1e-3, 1e-4)
# centres as fractions of the sides
SPIKE_CENTRES = {"inner": (0.37, 0.61), "low-right": (0.81, 0.23), "corner": (0.1234, 0.8765)}
# (centre, eps, p) where fxy is below the closed form, and the ROADMAP item
# that must fix it; at eps = 1e-4 the spike is narrower than the spacing of
# the tensor passes' nodes, which miss it (down to 8e-54 of the truth)
SPIKE_SHORT = {("corner", 0.005, 2): 1, ("inner", 1e-3, 2): 16, ("low-right", 1e-3, 1): 16,
               ("low-right", 1e-3, 2): 16, **{(key, 1e-4, p): 16 for key in SPIKE_CENTRES for p in (1, 2)}}


def _sech2(z):
    # sech^2 z = 4 t / (1 + t)^2 with t = e^{-2|z|}, which never overflows
    t = np.exp(-2.0 * np.abs(z))
    return 4.0 * t / (1.0 + t) ** 2


def tanh_spike(rect, centre, eps):
    """f = tanh(u) tanh(v), u = (x - x0)/ex, v = (y - y0)/ey, with ex, ey = eps of each side.

    Returns the integrand and its (x0, ex, y0, ey); f_xy = sech^2(u) sech^2(v) / (ex ey)
    is a spike of width ~eps about (x0, y0).
    """
    x0, y0 = rect.a + centre[0] * rect.width, rect.c + centre[1] * rect.height
    ex, ey = eps * rect.width, eps * rect.height

    def parts(x, y):
        u, v = (np.asarray(x, dtype=float) - x0) / ex, (np.asarray(y, dtype=float) - y0) / ey
        return np.tanh(u), np.tanh(v), _sech2(u) / ex, _sech2(v) / ey

    def f(x, y):
        tu, tv, _, _ = parts(x, y)
        return tu * tv

    def fx(x, y):
        _, tv, du, _ = parts(x, y)
        return du * tv

    def fy(x, y):
        tu, _, _, dv = parts(x, y)
        return tu * dv

    def fxy(x, y):
        _, _, du, dv = parts(x, y)
        return du * dv

    return cq.Integrand(f=f, fx=fx, fy=fy, fxy=fxy), (x0, ex, y0, ey)


def tanh_spike_fxy_norm(rect, shape, p):
    """||f_xy||_p in closed form: a product of one-dimensional factors.

    At p = 1 each factor is |tanh(hi) - tanh(lo)| in the scaled coordinate;
    at p = 2 it is [t - t^3/3] / eps with t = tanh, as the integral of
    sech^4(s/eps) / eps^2 is that.
    """
    x0, ex, y0, ey = shape

    def factor(lo, hi, c, e):
        t0, t1 = math.tanh((lo - c) / e), math.tanh((hi - c) / e)
        return abs(t1 - t0) if p == 1 else ((t1 - t1 ** 3 / 3.0) - (t0 - t0 ** 3 / 3.0)) / e

    return (factor(rect.a, rect.b, x0, ex) * factor(rect.c, rect.d, y0, ey)) ** (1.0 / p)


def _spike_cases(widths, short=None):
    for key in SPIKE_CENTRES:
        for eps in widths:
            for p in (1, 2):
                item = (short or {}).get((key, eps, p))
                marks = known_defect(item) if item else []
                yield pytest.param(key, eps, p, id=f"{key}-eps{eps}-p{p}", marks=marks)


@pytest.mark.parametrize("key,eps,p", _spike_cases(SPIKE_EPS))
def test_tanh_spike_fxy_escalates_to_the_two_pass_norm(key, eps, p):
    f, _ = tanh_spike(SPIKE_RECT, SPIKE_CENTRES[key], eps)
    assert cq.derivative_norms(f, SPIKE_RECT, p).fxy == sum(two_pass_area_norm(f.fxy, SPIKE_RECT, p))


@pytest.mark.parametrize("key,eps,p", _spike_cases(SPIKE_EPS + NARROW_EPS, SPIKE_SHORT))
def test_tanh_spike_fxy_not_below_closed_form(key, eps, p):
    f, shape = tanh_spike(SPIKE_RECT, SPIKE_CENTRES[key], eps)
    truth = tanh_spike_fxy_norm(SPIKE_RECT, shape, p)
    assert cq.derivative_norms(f, SPIKE_RECT, p).fxy >= truth


# --- a jump in f_x: slope s1 left of x0, s2 right of it ------------------------

JUMP_RECT = cq.Rectangle(0.1, 1.3, -0.2, 0.9)
# x0 as fractions of the width
JUMP_X0 = {"0.5123": 0.5123, "0.3": 0.3, "177.5/256": 177.5 / 256}
# f as a function of s = x - x0, and its slopes s1 and s2
JUMPS = {
    "abs": (np.abs, -1.0, 1.0),
    "vee": (lambda s: np.maximum(2.0 * s, -s), -1.0, 2.0),
    "bend": (lambda s: s + np.maximum(0.0, s), 1.0, 2.0),
}
# "bend" does not change sign at x0, so no scan splits its lines there
JUMP_SHORT = {("bend", "0.5123", p) for p in (1.5, 2, 3)}


def jump_integrand(name, x0):
    """f(x, y) = JUMPS[name](x - x0), with f_x = s1 left of x0 and s2 right of it, and f_y = f_xy = 0."""
    shape, s1, s2 = JUMPS[name]

    def zero(x, y):
        return 0.0 * np.asarray(x, dtype=float) + 0.0 * np.asarray(y, dtype=float)

    def f(x, y):
        return shape(np.asarray(x, dtype=float) - x0) + zero(x, y)

    def fx(x, y):
        return np.where(np.asarray(x, dtype=float) > x0, s2, s1) + zero(x, y)

    return cq.Integrand(f=f, fx=fx, fy=zero, fxy=zero)


def _jump_cases():
    for name in JUMPS:
        for key in JUMP_X0:
            for p in (*P_FINITE, cq.INF):
                marks = known_defect(1) if (name, key, p) in JUMP_SHORT else []
                yield pytest.param(name, key, p, id=f"{name}-x0={key}-p{p}", marks=marks)


@pytest.mark.parametrize("name,key,p", _jump_cases())
def test_jump_in_fx_not_below_closed_form(name, key, p):
    # ||f_x(., y)||_p = ((x0 - a) |s1|^p + (b - x0) |s2|^p)^(1/p) on every line,
    # max(|s1|, |s2|) at p = inf; up to the closed form's own rounding
    rect = JUMP_RECT
    x0 = rect.a + JUMP_X0[key] * rect.width
    _, s1, s2 = JUMPS[name]
    if p is cq.INF:
        truth = max(abs(s1), abs(s2))
    else:
        truth = ((x0 - rect.a) * abs(s1) ** p + (rect.b - x0) * abs(s2) ** p) ** (1.0 / p)
    nb = cq.derivative_norms(jump_integrand(name, x0), rect, p, cq.PartitionSpec(rect, 2, 2))
    assert min(nb.x_lines) >= truth * (1.0 - 1e-14)


# --- exact zeros where g leaves or touches zero --------------------------------

# f_x as a function of x, and ||f_x(., y)||_p / (1 + y) on [0, 1] at finite p
ZERO_SHAPES = {
    # -1, 0 and 1 on [0, 0.2), [0.2, 0.8] and (0.8, 1]: +-0 on 60% of every line
    "plateau": (lambda x: np.where(x < 0.2, -1.0, np.where(x > 0.8, 1.0, 0.0)),
                lambda x: np.maximum(x - 0.8, 0.0) - np.minimum(x, 0.2),
                lambda p: 0.4 ** (1.0 / p)),
    # |x - 0.5|, zero at the scan point 0.5 and of one sign on either side
    "touch": (lambda x: np.abs(x - 0.5), lambda x: 0.5 * (x - 0.5) * np.abs(x - 0.5),
              lambda p: 0.5 / (p + 1.0) ** (1.0 / p)),
}


def zero_integrand(name, sign):
    """f = sign F(x) (1 + y) with F' = ZERO_SHAPES[name]: f_x = sign F'(x) (1 + y), f_y = sign F(x), f_xy = sign F'(x)."""
    shape, antiderivative, _ = ZERO_SHAPES[name]

    def of_x(h):
        return lambda x, y: sign * h(np.asarray(x, dtype=float)) + 0.0 * np.asarray(y, dtype=float)

    def times_one_plus_y(g):
        return lambda x, y: g(x, y) * (1.0 + np.asarray(y, dtype=float))

    fy, fxy = of_x(antiderivative), of_x(shape)
    return cq.Integrand(f=times_one_plus_y(fy), fx=times_one_plus_y(fxy), fy=fy, fxy=fxy)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["g", "minus-g"])
@pytest.mark.parametrize("p", P_FINITE)
@pytest.mark.parametrize("name", ZERO_SHAPES)
def test_exact_zero_lines_not_below_closed_form(name, p, sign, monkeypatch):
    # every x-line of an m = n = 4 report, value plus estimate, covers its closed
    # form (1 + y) ||F'||_p, and at p = 1, where it is read off f, equals it; an
    # exact zero is a break only where g passes between negative and not, so a
    # plateau's report builds a few panels, not one per zero sample
    nodes = []
    graded_nodes = cq.norms.graded_nodes

    def counted(*args, **kwargs):
        build = graded_nodes(*args, **kwargs)
        nodes.append(build[0].size)
        return build

    monkeypatch.setattr(cq.norms, "graded_nodes", counted)
    part = cq.PartitionSpec(cq.Rectangle.unit(), 4, 4)
    ys = np.linspace(0.0, 1.0, 5)
    nb = cq.derivative_norms(zero_integrand(name, sign), part.rect, p, partition=part)
    exact = ZERO_SHAPES[name][2](p) * (1.0 + ys)
    assert np.all(np.array(nb.x_lines) >= exact * (1.0 - 1e-14)), np.array(nb.x_lines) / exact - 1.0
    if p == 1:
        assert np.allclose(nb.x_lines, exact, rtol=1e-14, atol=0.0)
    assert len(nodes) == 1 and nodes[0] < 2000
