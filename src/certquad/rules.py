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
the 1 x 1 partition of the composite ones (``core.BUILTIN_RULES``), so
they have no functions of their own: a simple rule's estimate or bound
alone is the ``composite_*`` function on ``PartitionSpec(rect, 1, 1)``.

``rule_report`` runs any built-in rule by name.  ``uniform_bound`` is
the same bound on a bundle built from pointwise derivative bounds, and
the one-variable rules are the same identity on one ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BUILTIN_RULES,
    INF,
    DerivativeNorms,
    Exponent,
    Integrand,
    NormMismatchError,
    PartitionSpec,
    QuadratureReport,
    Rectangle,
    UniformBounds,
    UnsupportedVariantError,
    conjugate,
)
from .gauss import as_grid_fn, require_finite
from .norms import derivative_norms, line_norms_with_error
from .weights import CustomPhi, _ramp, phi_norm_numeric, ramp_jumps, ramp_norm_closed

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
    if not norms.matches(family, part):
        raise NormMismatchError(
            f"norm bundle built for family={norms.family!r} on {norms.partition}, "
            f"rule needs family={family!r} on {part}"
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


def _rule_grid(rule: str, rect: Rectangle, part: PartitionSpec | None):
    """(family, partition) of a built-in rule; a simple rule ignores ``part``."""
    if rule not in BUILTIN_RULES:
        raise ValueError(f"unknown rule {rule!r}")
    family, partitioned = BUILTIN_RULES[rule]
    if not partitioned:
        return family, PartitionSpec(rect, 1, 1)
    if part is None:
        raise ValueError(f"rule {rule!r} needs a partition")
    if part.rect != rect:
        raise ValueError("partition was built for a different rectangle")
    return family, part


def rule_report(
    f: Integrand, rect: Rectangle, rule: str, p, part: PartitionSpec | None = None,
    resolution: int = 256, cache: dict | None = None,
) -> QuadratureReport:
    """Estimate and certified bound of one built-in rule, from one norm bundle.

    ``part`` is required by the composite rules and ignored by the simple
    ones, whose report carries the 1 x 1 partition; ``cache`` is passed on
    to ``derivative_norms``.
    """
    family, grid = _rule_grid(rule, rect, part)
    norms = derivative_norms(
        f, rect, p, partition=grid, rule_family=family, resolution=resolution, cache=cache,
    )
    comps = _jump_bound(norms, grid, family)
    return QuadratureReport(
        rule_id=rule,
        estimate=_jump_estimate(f, grid, family),
        fx_term=comps.fx_term,
        fy_term=comps.fy_term,
        fxy_term=comps.fxy_term,
        p=norms.p,
        partition=grid,
        norms_used=norms,
        notes=comps.notes,
    )


def uniform_bound(
    rule_family: str, ub: UniformBounds, rect: Rectangle, part: PartitionSpec | None = None
) -> float:
    """Bound from pointwise bounds |grad f| <= M, |f_xy| <= N alone.

    ``rule_family`` is a built-in rule name.  The bound is the rule's jump
    bound at p = inf on a bundle whose line norms are all M and whose
    ||f_xy||_inf is N, which the pointwise bounds dominate: e.g.
    M W^2 H / (4m) + M W H^2 / (4n) + N W^2 H^2 / (16mn) for every
    composite rule, and m = n = 1 for the simple ones.
    """
    family, grid = _rule_grid(rule_family, rect, part)
    (xs, _), (ys, _) = ramp_jumps(grid, family)
    norms = DerivativeNorms(
        p=INF, family=family, partition=grid, fxy=ub.N,
        x_lines=(ub.M,) * ys.size, y_lines=(ub.M,) * xs.size,
    )
    return _jump_bound(norms, grid, family).total


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
    # the weight's edge norms, each inflated by its own error estimate
    edges_x = np.add(*line_norms_with_error(w.eval_grid, "x", [rect.c, rect.d], rect.a, rect.b, q,
                                            resolution))
    edges_y = np.add(*line_norms_with_error(w.eval_grid, "y", [rect.a, rect.b], rect.c, rect.d, q,
                                            resolution))
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


def _rule_1d(g, interval: tuple[float, float], p, norm_gprime: float, family: str):
    """One-variable jump rule: (-J . g(t), ||g'||_p ||ramp||_q).

    In one variable the family's ramp X on [lo, hi] jumps by J[k] at the
    points t_k, so integrating g against X' = 1 by parts gives
    int g = -sum_k J[k] g(t_k) - int g' X, and Holder bounds the last
    integral.  Both families' ramps have the norm ``ramp_norm_closed(L, 1, q)``.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    norm = float(norm_gprime)
    if not (math.isfinite(norm) and norm >= 0.0):
        raise ValueError(f"norm_gprime must be finite and >= 0, got {norm_gprime!r}")
    ts, roots = _ramp(np.asarray([lo, hi]), family)
    vals = np.asarray([float(g(t)) for t in ts])
    require_finite(vals, (ts,))
    estimate = -float((roots[:-1] - roots[1:]) @ vals)
    return estimate, norm * ramp_norm_closed(hi - lo, 1, conjugate(p))


def trapezoid_1d(g, interval: tuple[float, float], p, norm_gprime: float):
    """One-variable endpoint rule: ([g(a)+g(b)] L/2, ||g'||_p C(p) L^(2-1/p) / 2).

    ``norm_gprime`` is ||g'||_p, finite and >= 0.
    """
    return _rule_1d(g, interval, p, norm_gprime, "trapezoid")


def midpoint_1d(g, interval: tuple[float, float], p, norm_gprime: float):
    """One-variable center rule: (g(m) L, ||g'||_p ||omega||_q).

    omega ramps from 0 at each endpoint to L/2 at the center, so
    ||omega||_q = (2/(q+1))^(1/q) (L/2)^(1+1/q), and L/2 at q = inf.
    ``norm_gprime`` is ||g'||_p, finite and >= 0.
    """
    return _rule_1d(g, interval, p, norm_gprime, "midpoint")
