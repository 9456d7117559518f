"""Quadrature estimates and their certified error bounds.

Every rule is one integration-by-parts identity.  Its weight is a
product phi(x, y) = X(x) Y(y) of two unit-slope sawtooth ramps (see
``weights``), so phi_xy = 1 on every piece and integrating f against
phi_xy by parts leaves only the jumps of X and Y.  With J_x[k] the jump
X(x_k+) - X(x_k-) at each break x_k of X, a boundary counting as a jump
from or to 0, and J_y[l] likewise,

    estimate = sum_{k,l} J_x[k] f(x_k, y_l) J_y[l],

and Holder's inequality on the line and area integrals left over bounds
|estimate - integral| by the sum of

    fx term:  sum_l ||f_x(., y_l)||_p |J_y[l]| ||X||_q
    fy term:  sum_k ||f_y(x_k, .)||_p |J_x[k]| ||Y||_q
    fxy term: ||f_xy||_p ||X||_q ||Y||_q

with q conjugate to p and the ramp norms from ``ramp_norm_closed``.
Only breaks with a nonzero jump are sampled or carry a line norm.  The
trapezoid family's ramps vanish at the cell midpoints and jump at the
grid lines (dx/2 on the boundary, dx inside): the cell-summed corner
rule.  The midpoint family's ramps vanish at the grid lines and jump by
dx at the cell midlines: the cell-midpoint rule.  The simple rules are
the 1 x 1 partition of the composite ones, so m = n = 1 reduces the
composite bounds to the simple ones bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DerivativeNorms,
    EvaluationError,
    Exponent,
    Integrand,
    NormMismatchError,
    PartitionSpec,
    QuadratureReport,
    Rectangle,
    UniformBounds,
    UnsupportedVariantError,
    conjugate,
    holder_coefficient,
)
from .gauss import as_grid_fn, require_finite
from .norms import derivative_norms, line_norms_with_error
from .weights import CustomPhi, phi_norm_numeric, ramp_jumps, ramp_norm_closed

NOTE_MIDLINE_P1 = (
    "p=1 y-term uses the midline norm ||f_y(m1,.)||_1, pairing the error "
    "integral along x = m1 with ||ramp||_inf; a boundary-line norm would "
    "not bound that integral"
)
NOTE_COMPOSITE_MIDPOINT = (
    "composite-midpoint coefficients: line terms C(p) W^(2-1/p) H/(2mn) and "
    "f_xy term C(p)^2 (WH)^(2-1/p)/(4mn) [(WH)^2/(16mn) at p=inf] from "
    "||sawtooth||_q = C(p) L^(2-1/p)/(2m); the m^(1-1/p)-scaled variant "
    "[f_xy /(4mn) at p=inf] fails the m=n=1 reduction and is not used"
)
NOTE_CELL_SUMMED = (
    "composite-trapezoid estimate is the cell-summed corner rule (interior "
    "grid points weighted 4, edges 2, corners 1); the telescoped "
    "boundary-only display is not constant-exact for m, n > 1"
)


@dataclass(frozen=True)
class BoundComponents:
    """The three named terms of a certified bound; total is their exact sum."""

    fx_term: float
    fy_term: float
    fxy_term: float
    notes: tuple[str, ...] = ()

    @property
    def total(self) -> float:
        return self.fx_term + self.fy_term + self.fxy_term


def _jump_estimate(f: Integrand, part: PartitionSpec, family: str) -> float:
    (xs, jx), (ys, jy) = ramp_jumps(part, family)
    vals = as_grid_fn(f.f)(xs[:, None], ys[None, :])
    require_finite(vals, (xs[:, None], ys[None, :]))
    return float(jx @ vals @ jy)


def _jump_bound(norms: DerivativeNorms, part: PartitionSpec, family: str) -> BoundComponents:
    if not norms.matches(family, part.m, part.n):
        raise NormMismatchError(
            f"norm bundle built for family={norms.family!r} m={norms.m} n={norms.n}, "
            f"rule needs family={family!r} m={part.m} n={part.n}"
        )
    q = conjugate(norms.p)
    (_, jx), (_, jy) = ramp_jumps(part, family)
    rx = ramp_norm_closed(part.rect.width, part.m, q)
    ry = ramp_norm_closed(part.rect.height, part.n, q)
    composite = part.m * part.n > 1
    if family == "trapezoid":
        notes = (NOTE_CELL_SUMMED,) if composite else ()
    else:
        notes = (NOTE_MIDLINE_P1,) if norms.p.is_one else ()
        notes += (NOTE_COMPOSITE_MIDPOINT,) if composite else ()
    return BoundComponents(
        float(sum(v * abs(j) for v, j in zip(norms.x_lines, jy))) * rx,
        float(sum(v * abs(j) for v, j in zip(norms.y_lines, jx))) * ry,
        norms.fxy * rx * ry,
        notes,
    )


def trapezoid_estimate(f: Integrand, rect: Rectangle) -> float:
    """Corner average times area: [f(a,c)+f(b,d)+f(a,d)+f(b,c)] W H / 4."""
    return _jump_estimate(f, PartitionSpec(rect, 1, 1), "trapezoid")


def midpoint_estimate(f: Integrand, rect: Rectangle) -> float:
    """Center sample times area: f(m1, m2) W H."""
    return _jump_estimate(f, PartitionSpec(rect, 1, 1), "midpoint")


def composite_trapezoid_estimate(f: Integrand, rect: Rectangle, part: PartitionSpec) -> float:
    """Cell-summed corner rule on the m x n partition.

    Interior grid points carry weight 4, edge points 2, corners 1, times
    dx dy / 4; this reproduces constants exactly and is the estimate the
    composite bound certifies.
    """
    if part.rect != rect:
        raise ValueError("partition was built for a different rectangle")
    return _jump_estimate(f, part, "trapezoid")


def composite_midpoint_estimate(f: Integrand, rect: Rectangle, part: PartitionSpec) -> float:
    """Mean of cell-midpoint samples times area."""
    if part.rect != rect:
        raise ValueError("partition was built for a different rectangle")
    return _jump_estimate(f, part, "midpoint")


def trapezoid_bound(norms: DerivativeNorms, rect: Rectangle) -> BoundComponents:
    """Certified bound for the simple corner rule (m = n = 1 bundle)."""
    return _jump_bound(norms, PartitionSpec(rect, 1, 1), "trapezoid")


def midpoint_bound(norms: DerivativeNorms, rect: Rectangle) -> BoundComponents:
    """Certified bound for the simple center rule (m = n = 1 bundle)."""
    return _jump_bound(norms, PartitionSpec(rect, 1, 1), "midpoint")


def composite_trapezoid_bound(
    norms: DerivativeNorms, rect: Rectangle, part: PartitionSpec
) -> BoundComponents:
    """Certified bound for the cell-summed corner rule."""
    if part.rect != rect:
        raise ValueError("partition was built for a different rectangle")
    return _jump_bound(norms, part, "trapezoid")


def composite_midpoint_bound(
    norms: DerivativeNorms, rect: Rectangle, part: PartitionSpec
) -> BoundComponents:
    """Certified bound for the composite center rule."""
    if part.rect != rect:
        raise ValueError("partition was built for a different rectangle")
    return _jump_bound(norms, part, "midpoint")


def uniform_bound(
    rule_family: str, ub: UniformBounds, rect: Rectangle, part: PartitionSpec | None = None
) -> float:
    """Bound from pointwise bounds |grad f| <= M, |f_xy| <= N alone.

    composite-trapezoid keeps the conservative (2n+1), (2m+1) line-count
    factors; the composite-midpoint N-term is W^2 H^2 / (16mn), matching
    the m = n = 1 reduction.
    """
    W, H = rect.width, rect.height
    M, N = ub.M, ub.N
    if rule_family in ("trapezoid", "midpoint"):
        return M * W * W * H / 4.0 + M * W * H * H / 4.0 + N * W * W * H * H / 16.0
    if part is None:
        raise ValueError(f"rule family {rule_family!r} needs a partition")
    m, n = part.m, part.n
    if rule_family == "composite-trapezoid":
        return (
            M * (2 * n + 1) * H * W * W / (8.0 * m * n)
            + M * (2 * m + 1) * W * H * H / (8.0 * m * n)
            + N * W * W * H * H / (16.0 * m * n)
        )
    if rule_family == "composite-midpoint":
        return (
            M * W * W * H / (4.0 * m)
            + M * W * H * H / (4.0 * n)
            + N * W * W * H * H / (16.0 * m * n)
        )
    raise ValueError(f"unknown rule family {rule_family!r}")


def custom_phi_rule(
    f: Integrand,
    w: CustomPhi,
    rect: Rectangle,
    p,
    resolution: int = 256,
) -> QuadratureReport:
    """Generic phi-weighted corner rule with the five-term Holder bound.

    The jump identity of the built-in rules for a phi that is smooth
    inside the rectangle: it jumps only across the boundary, by its own
    boundary values, so

    estimate = f(a,c)phi(a,c) + f(b,d)phi(b,d) - f(a,d)phi(a,d) - f(b,c)phi(b,c);
    |error| <= sum of ||f_x(.,c)||_p ||phi(.,c)||_q + ... + ||f_xy||_p ||phi||_q,
    with the phi-norms computed numerically.
    """
    if not isinstance(w, CustomPhi):
        raise UnsupportedVariantError("custom_phi_rule requires a CustomPhi weight")
    if w.rect != rect:
        raise ValueError("weight was built for a different rectangle")
    p = Exponent.coerce(p)
    q = conjugate(p)
    fv = as_grid_fn(f.f)
    corners_x = np.asarray([rect.a, rect.b, rect.a, rect.b])
    corners_y = np.asarray([rect.c, rect.d, rect.d, rect.c])
    fvals = fv(corners_x, corners_y)
    require_finite(fvals, (corners_x, corners_y))
    phis = w.eval_grid(corners_x, corners_y)
    require_finite(phis, (corners_x, corners_y))
    signs = np.asarray([1.0, 1.0, -1.0, -1.0])
    estimate = float(np.dot(signs, fvals * phis))

    bundle = derivative_norms(f, rect, p, rule_family="trapezoid", resolution=resolution)
    edges_x, _ = line_norms_with_error(w.eval_grid, "x", [rect.c, rect.d], rect.a, rect.b, q, resolution)
    edges_y, _ = line_norms_with_error(w.eval_grid, "y", [rect.a, rect.b], rect.c, rect.d, q, resolution)
    fx_term = sum(v * e for v, e in zip(bundle.x_lines, edges_x))
    fy_term = sum(v * e for v, e in zip(bundle.y_lines, edges_y))
    fxy_term = bundle.fxy * phi_norm_numeric(w, q, resolution)
    return QuadratureReport(
        rule_id="custom-phi",
        estimate=estimate,
        fx_term=fx_term,
        fy_term=fy_term,
        fxy_term=fxy_term,
        p=p,
        partition=None,
        norms_used=bundle,
        notes=("phi norms computed numerically (L^q, q conjugate to p)",),
    )


def trapezoid_1d(g, interval: tuple[float, float], p, norm_gprime: float):
    """One-variable endpoint rule: ([g(a)+g(b)] L/2, ||g'||_p C(p) L^(2-1/p) / 2)."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    p = Exponent.coerce(p)
    ga, gb = float(g(lo)), float(g(hi))
    if not (math.isfinite(ga) and math.isfinite(gb)):
        raise EvaluationError("non-finite endpoint value", coordinate=(lo, hi))
    length = hi - lo
    estimate = (ga + gb) * length / 2.0
    bound = float(norm_gprime) * holder_coefficient(p) * length ** (2.0 - p.reciprocal) / 2.0
    return estimate, bound


def midpoint_1d(g, interval: tuple[float, float], p, norm_gprime: float):
    """One-variable center rule: (g(m) L, ||g'||_p ||omega||_q).

    omega ramps from 0 at each endpoint to L/2 at the center, so
    ||omega||_q = (2/(q+1))^(1/q) (L/2)^(1+1/q), and L/2 at q = inf.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    p = Exponent.coerce(p)
    gm = float(g(0.5 * (lo + hi)))
    if not math.isfinite(gm):
        raise EvaluationError("non-finite midpoint value", coordinate=0.5 * (lo + hi))
    length = hi - lo
    estimate = gm * length
    q = conjugate(p)
    if q.is_infinite:
        omega = length / 2.0
    else:
        qq = q.value
        omega = (2.0 / (qq + 1.0)) ** (1.0 / qq) * (length / 2.0) ** (1.0 + 1.0 / qq)
    return estimate, float(norm_gprime) * omega


def _report(rule_id, estimate, comps, p, part, norms) -> QuadratureReport:
    return QuadratureReport(
        rule_id=rule_id,
        estimate=estimate,
        fx_term=comps.fx_term,
        fy_term=comps.fy_term,
        fxy_term=comps.fxy_term,
        p=p,
        partition=part,
        norms_used=norms,
        notes=comps.notes,
    )


def trapezoid_report(f: Integrand, rect: Rectangle, norms: DerivativeNorms) -> QuadratureReport:
    return _report("trapezoid", trapezoid_estimate(f, rect), trapezoid_bound(norms, rect), norms.p, None, norms)


def midpoint_report(f: Integrand, rect: Rectangle, norms: DerivativeNorms) -> QuadratureReport:
    return _report("midpoint", midpoint_estimate(f, rect), midpoint_bound(norms, rect), norms.p, None, norms)


def composite_trapezoid_report(
    f: Integrand, rect: Rectangle, part: PartitionSpec, norms: DerivativeNorms
) -> QuadratureReport:
    return _report(
        "composite-trapezoid",
        composite_trapezoid_estimate(f, rect, part),
        composite_trapezoid_bound(norms, rect, part),
        norms.p,
        part,
        norms,
    )


def composite_midpoint_report(
    f: Integrand, rect: Rectangle, part: PartitionSpec, norms: DerivativeNorms
) -> QuadratureReport:
    return _report(
        "composite-midpoint",
        composite_midpoint_estimate(f, rect, part),
        composite_midpoint_bound(norms, rect, part),
        norms.p,
        part,
        norms,
    )
