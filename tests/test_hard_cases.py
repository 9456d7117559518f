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
from conftest import integrand

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
            marks = known_defect(1) if p is not cq.INF else []
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
