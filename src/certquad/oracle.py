"""Ground truth: reference integration and the parts-identity residual.

The reference integrator is tensor-product Gauss-Legendre with dyadic
panel refinement until two successive refinements agree to the target
tolerance; the nodes of each panel count are built once on [0, 1] and
mapped onto each rectangle's axes.  The parts-identity residual
numerically compares

    int int f  =  corner terms + edge integrals + int int f_xy phi

piece by piece over the smooth pieces of a unit-mixed-partial weight;
it is the designated admissibility guard for any new weight variant.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import (
    ConfigurationError,
    Integrand,
    QuadratureConvergenceError,
    Rectangle,
)
from .gauss import as_grid_fn, finite_samples, panel_nodes, require_finite, uniform_grid

MAX_PANELS_PER_AXIS = 256  # its grid: (16 * 256)^2 = 2^24 samples, 128 MiB per float64 array


def oracle_integrate(f: Integrand, rect: Rectangle, target_tol: float = 1e-12):
    """Reference value of the double integral and a refinement-delta error.

    Tensor Gauss-Legendre with 16 nodes per panel on 1, 2, 4, ... equal
    panels per axis, stopping at the first two panel counts whose values
    differ by less than ``target_tol``; that difference is the error.
    Each count's panels are the cached panels of [0, 1] (``_unit_panels``,
    at most 11 counts), mapped to an axis [a, b] as a + (b - a) u with
    weights (b - a) w.  A
    known ``exact_integral`` on the integrand overrides the quadrature
    (error 0).  Raises QuadratureConvergenceError, carrying the best
    value, if ``MAX_PANELS_PER_AXIS`` is passed first, and ValueError
    before any sample if ``target_tol`` is not >= 1e-13 (NaN included).
    """
    if not target_tol >= 1e-13:
        raise ValueError(f"target_tol must be >= 1e-13, got {target_tol!r}")
    if f.exact_integral is not None:
        return float(f.exact_integral), 0.0
    fv = as_grid_fn(f.f)
    prev = None
    value = None
    delta = np.inf
    panels = 1
    width, height = rect.width, rect.height
    while panels <= MAX_PANELS_PER_AXIS:
        u, w = _unit_panels(panels)
        xs, wx = rect.a + width * u, width * w
        ys, wy = rect.c + height * u, height * w
        vals = fv(xs[:, None], ys[None, :])
        value = float(wx @ vals @ wy)
        if not math.isfinite(value):  # the Gauss weights are positive: a finite sum has finite terms
            require_finite(vals, (xs[:, None], ys[None, :]))
        if prev is not None:
            delta = abs(value - prev)
            if delta < target_tol:
                return value, delta
        prev = value
        panels *= 2
    raise QuadratureConvergenceError(
        f"no convergence to {target_tol} within {MAX_PANELS_PER_AXIS} panels per axis",
        best_value=value,
        error_estimate=delta,
    )


@lru_cache(maxsize=16)
def _unit_panels(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """16-node Gauss nodes and weights of ``panels`` equal panels of [0, 1], read-only.

    ``oracle_integrate`` maps them onto each axis.
    """
    u, w = panel_nodes(uniform_grid(0.0, 1.0, panels + 1), 16)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def parts_identity_sides(
    f: Integrand, w, rect: Rectangle, resolution: int = 64
) -> tuple[float, float]:
    """(LHS, RHS) of the integration-by-parts identity for phi_xy = 1.

    Per smooth piece [u0,u1] x [v0,v1] of the weight, the right side is

        f(u0,v0)phi(u0,v0) + f(u1,v1)phi(u1,v1)
          - f(u0,v1)phi(u0,v1) - f(u1,v0)phi(u1,v0)
        + int [f_x(x,v0)phi(x,v0) - f_x(x,v1)phi(x,v1)] dx
        + int [f_y(u0,y)phi(u0,y) - f_y(u1,y)phi(u1,y)] dy
        + int int f_xy phi,

    summed over pieces (seam corner terms cancel where phi is continuous).
    All quadrature respects piece seams, so polynomial panels only ever
    see smooth integrands.  Requires analytic partials; a non-finite
    sample of f or of a partial raises EvaluationError at its coordinate.
    """
    if not f.has_partials:
        raise ConfigurationError("parts_identity_residual needs analytic fx, fy, fxy")
    if w.rect != rect:
        raise ValueError("weight was built for a different rectangle")
    lhs, _ = oracle_integrate(f, rect, 1e-13)
    fv, fxv, fyv, fxyv = (_checked(as_grid_fn(g)) for g in (f.f, f.fx, f.fy, f.fxy))

    pieces = w.pieces()
    per_axis = max(1, int(round(len(pieces) ** 0.5)))
    panels = max(4, resolution // per_axis)
    rhs = 0.0
    for xlo, xhi, ylo, yhi, phi in pieces:
        xs, wx = panel_nodes(uniform_grid(xlo, xhi, panels + 1), 8)
        ys, wy = panel_nodes(uniform_grid(ylo, yhi, panels + 1), 8)
        cx = np.asarray([xlo, xhi, xlo, xhi])
        cy = np.asarray([ylo, yhi, yhi, ylo])
        signs = np.asarray([1.0, 1.0, -1.0, -1.0])
        quad = float(np.dot(signs, fv(cx, cy) * phi(cx, cy)))
        bottom = float(wx @ (fxv(xs, ylo) * phi(xs, ylo)))
        top = float(wx @ (fxv(xs, yhi) * phi(xs, yhi)))
        left = float(wy @ (fyv(xlo, ys) * phi(xlo, ys)))
        right = float(wy @ (fyv(xhi, ys) * phi(xhi, ys)))
        cross = float(wx @ (fxyv(xs[:, None], ys[None, :]) * phi(xs[:, None], ys[None, :])) @ wy)
        rhs += quad + (bottom - top) + (left - right) + cross
    return lhs, rhs


def _checked(g):
    """g, raising EvaluationError at the first non-finite sample of each call."""

    return lambda x, y: finite_samples(g, (x, y))


def parts_identity_residual(
    f: Integrand, w, rect: Rectangle, resolution: int = 64
) -> float:
    """|LHS - RHS| of the integration-by-parts identity; see parts_identity_sides."""
    lhs, rhs = parts_identity_sides(f, w, rect, resolution)
    return abs(lhs - rhs)
