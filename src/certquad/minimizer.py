"""Numerical verification that the corner-product weight minimizes ||phi||_q.

Over phi(s, t) = st + alpha(s) + beta(t) on [-1, 1]^2 the minimum of
||phi||_q is (2/(q+1))^(2/q) for finite q (value 1 at q = 1) and 1 at
q = infinity, attained by phi = st; for 1 < q < infinity the minimizer
is unique, at q = infinity it is not (st - |s| + |t| also has norm 1).

``search_min`` checks this at desk scale over a small even/odd
polynomial basis for alpha and beta.  ||phi||_q is a norm of an affine
function of the coefficients, so sum w |phi|^q on a fixed quadrature
grid is convex in them, and one damped Newton solve per start finds its
minimum.  q = 1 and q = infinity have no smooth objective of this kind
(|phi| has a kink at 0; the sup norm is no power sum), so they are
solved at q = 2 and the result's norm is taken at the requested q.
Polya's algorithm reaches the sup-norm minimizer through L^q minimizers
as q grows; here the L^q minimizer is st for every finite q > 1, and st
is also a minimizer at both endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Exponent, Rectangle, SearchFailureError
from .gauss import as_vector_fn, graded_nodes
from .weights import CustomPhi, phi_norm_numeric

SYMMETRIC_SQUARE = Rectangle(-1.0, 1.0, -1.0, 1.0)

DEFAULT_EVEN: tuple[Callable, ...] = (
    lambda s: np.ones_like(np.asarray(s, dtype=float)),
    lambda s: np.asarray(s, dtype=float) ** 2,
    lambda s: np.asarray(s, dtype=float) ** 4,
)
DEFAULT_ODD: tuple[Callable, ...] = (
    lambda s: np.asarray(s, dtype=float),
    lambda s: np.asarray(s, dtype=float) ** 3,
    lambda s: np.asarray(s, dtype=float) ** 5,
)


def min_phi_norm_value(q) -> float:
    """Closed-form minimum of ||phi||_q over the normalized square."""
    q = Exponent.coerce(q)
    if q.is_infinite:
        return 1.0
    return (2.0 / (q.value + 1.0)) ** (2.0 / q.value)


@dataclass(frozen=True)
class AlphaBetaBasis:
    """Per-axis basis of even and odd one-variable terms on [-1, 1].

    The coefficient vector lays out alpha coefficients first (even terms
    then odd), then beta coefficients in the same order; ``coefficients``
    optionally seeds a search.
    """

    even_terms: tuple[Callable, ...] = DEFAULT_EVEN
    odd_terms: tuple[Callable, ...] = DEFAULT_ODD
    coefficients: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.even_terms or not self.odd_terms:
            raise ValueError("need at least one even and one odd term per axis")
        probe = np.linspace(-1.0, 1.0, 17)
        for g in (*self.even_terms, *self.odd_terms):
            vals = as_vector_fn(g)(probe)
            if not np.all(np.isfinite(vals)):
                raise ValueError("basis terms must be bounded on [-1, 1]")
        if self.coefficients is not None and len(self.coefficients) != self.size:
            raise ValueError(f"coefficient vector must have length {self.size}")

    @property
    def axis_terms(self) -> tuple[Callable, ...]:
        return (*self.even_terms, *self.odd_terms)

    @property
    def per_axis(self) -> int:
        return len(self.even_terms) + len(self.odd_terms)

    @property
    def size(self) -> int:
        return 2 * self.per_axis

    def term_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """Basis values at the nodes, one column per axis term."""
        return np.column_stack([as_vector_fn(g)(nodes) for g in self.axis_terms])

    def build_phi(self, coefficients: Sequence[float], rect: Rectangle = SYMMETRIC_SQUARE) -> CustomPhi:
        c = np.asarray(coefficients, dtype=float)
        if c.size != self.size:
            raise ValueError(f"coefficient vector must have length {self.size}")
        k = self.per_axis
        terms = self.axis_terms
        ca, cb = c[:k].copy(), c[k:].copy()

        def alpha(s):
            s = np.asarray(s, dtype=float)
            return sum(w * as_vector_fn(g)(s) for w, g in zip(ca, terms))

        def beta(t):
            t = np.asarray(t, dtype=float)
            return sum(w * as_vector_fn(g)(t) for w, g in zip(cb, terms))

        return CustomPhi(alpha, beta, rect)


@dataclass(frozen=True)
class RestartResult:
    norm: float
    coefficients: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class SearchResult:
    """Lowest-norm end point over the starts plus the per-start record."""

    coefficients: tuple[float, ...]
    achieved_norm: float
    restarts: tuple[RestartResult, ...] = field(default_factory=tuple)


class _NormObjective:
    """sum w |st + alpha + beta|^q on a fixed quadrature grid over [-1, 1]^2.

    The grid is split at 0 (the kink lines of the limiting |st|^q) and
    graded toward the splits, with basis values precomputed per axis.
    phi_ij = s_i s_j + a_i + b_j, so the derivatives in the coefficients
    are row and column sums of one grid array, mapped through the basis.
    """

    def __init__(self, basis: AlphaBetaBasis, q: float, fine: bool = False):
        levels = 12 if fine else 9
        nodes_per_panel = 10 if fine else 6
        max_width = 0.125 if fine else 0.25
        x, w, _ = graded_nodes([np.array([-1.0, 0.0, 1.0])], levels, [max_width], nodes_per_panel)
        self.w = w
        self.q = q
        self.outer = np.outer(x, x)
        self.cell_weights = np.outer(w, w)
        self.terms = basis.term_matrix(x)
        self.k = basis.per_axis

    def phi(self, c: np.ndarray) -> np.ndarray:
        a, b = self.terms @ c[: self.k], self.terms @ c[self.k :]
        return self.outer + a[:, None] + b[None, :]

    def __call__(self, c: np.ndarray) -> float:
        return float(np.sum(self.cell_weights * np.abs(self.phi(c)) ** self.q))

    def newton_terms(self, c: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Value, gradient and Hessian of the objective in the coefficients.

        For q < 2 the curvature weight |phi|^(q-2) is unbounded at zeros of
        phi; dividing |phi|^(q-1) by max(|phi|, 1e-12 max|phi|) instead keeps
        it finite, which changes the step there but not the value or the
        gradient the solve converges on.
        """
        q, T = self.q, self.terms
        phi = self.phi(c)
        mag = np.abs(phi)
        power = self.cell_weights * mag ** (q - 1.0)
        value = float(np.sum(power * mag))
        slope = q * power * np.sign(phi)  # d/dphi of w |phi|^q
        curv = q * (q - 1.0) * power / np.maximum(mag, 1e-12 * mag.max())
        grad = np.concatenate((T.T @ slope.sum(axis=1), T.T @ slope.sum(axis=0)))
        cross = T.T @ curv @ T
        hess = np.block([
            [T.T @ (curv.sum(axis=1)[:, None] * T), cross],
            [cross.T, T.T @ (curv.sum(axis=0)[:, None] * T)],
        ])
        return value, grad, hess


def _coefficient_transform(basis: AlphaBetaBasis, objective: _NormObjective) -> np.ndarray:
    """Map solve coordinates z to coefficients c = R z, L^2-orthonormalized.

    R's columns span the non-null directions of the coefficient-to-function
    map (eigenvectors of the Gram matrix scaled by 1/sqrt(eigenvalue)), so
    the solve runs in a well-conditioned metric with a nonsingular Hessian:
    it never moves along directions that leave phi unchanged, e.g. the
    constant split between alpha and beta.  Coefficients returned through
    R are automatically the minimal-norm representative of the function.
    """
    w = objective.w
    T = objective.terms
    total_w = float(w.sum())
    k = basis.per_axis
    d = basis.size
    gram = np.empty((d, d))
    moments = w @ T  # int g_k
    pair = T.T @ (w[:, None] * T)  # int g_k g_l
    gram[:k, :k] = pair * total_w
    gram[k:, k:] = pair * total_w
    gram[:k, k:] = np.outer(moments, moments)
    gram[k:, :k] = gram[:k, k:].T
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > 1e-10 * max(vals.max(), 1.0)
    return vecs[:, keep] / np.sqrt(vals[keep])


def _newton(
    objective: _NormObjective, transform: np.ndarray, z: np.ndarray, max_steps: int
) -> tuple[np.ndarray, bool]:
    """Damped Newton on the objective in solve coordinates z, c = transform @ z.

    Each step is halved until it passes Armijo's sufficient-decrease test.
    The solve has converged, after one last full step, once the Newton
    decrement -grad . step (about twice the objective's excess over its
    minimum) is below 1e-13 of the objective: closer than that, rounding
    in the objective would hide the decrease Armijo's test looks for.
    """
    for _ in range(max_steps):
        value, grad, hess = objective.newton_terms(transform @ z)
        grad = transform.T @ grad
        step = -np.linalg.solve(transform.T @ hess @ transform, grad)
        decrement = -float(grad @ step)
        if decrement <= 1e-13 * value:
            return z + step, True
        t = 1.0
        while t > 1e-10 and objective(transform @ (z + t * step)) > value - 1e-4 * t * decrement:
            t *= 0.5
        z = z + t * step
    return z, False


def search_min(
    q,
    basis: AlphaBetaBasis | None = None,
    restarts: int = 8,
    seed: int = 0,
    max_sweeps: int = 400,
) -> SearchResult:
    """Minimize ||st + alpha + beta||_q over the basis coefficients.

    One damped Newton solve of the grid objective per start, capped at
    ``max_sweeps`` steps.  The first start is ``basis.coefficients`` when
    given, the others (``restarts`` in all) are random coefficient vectors
    in [-1, 1]; the problem is convex, so all of them should land on the
    same minimizer.  q = 1 and q = infinity are solved at q = 2 (see the
    module docstring).  Each start's norm re-evaluates its end point at
    the requested q with the piecewise-aware ``phi_norm_numeric`` rather
    than the solve grid; the winner is the lowest norm with lexicographic
    tie-break.  Raises ``SearchFailureError`` with the best end point when
    no start converges.
    """
    q = Exponent.coerce(q)
    basis = basis if basis is not None else AlphaBetaBasis()
    objective = _NormObjective(basis, 2.0 if q.is_infinite or q.is_one else q.value)
    transform = _coefficient_transform(basis, objective)
    pseudo_inverse = np.linalg.pinv(transform)
    rng = np.random.default_rng(seed)
    results: list[RestartResult] = []
    for _ in range(max(1, restarts)):
        if basis.coefficients is not None and not results:
            c0 = np.asarray(basis.coefficients, dtype=float)
        else:
            c0 = rng.uniform(-1.0, 1.0, basis.size)
        z, converged = _newton(objective, transform, pseudo_inverse @ c0, max_sweeps)
        c = tuple(float(v) for v in transform @ z)
        norm = phi_norm_numeric(basis.build_phi(c), q, resolution=512)
        results.append(RestartResult(norm, c, converged))
    best = min(results, key=lambda r: (r.norm, r.coefficients))
    if not any(r.converged for r in results):
        raise SearchFailureError(
            f"Newton solve did not converge in {max_sweeps} steps",
            best_coefficients=best.coefficients,
            best_norm=best.norm,
        )
    return SearchResult(best.coefficients, best.norm, tuple(results))


def verify_q2_identity(
    basis: AlphaBetaBasis | None = None,
    samples: int = 12,
    seed: int = 0,
    coefficient_sets: Sequence[Sequence[float]] | None = None,
) -> float:
    """Max residual of ||st+a+b||_2^2 = ||st||_2^2 + ||a+b||_2^2 over draws.

    The cross terms 2 st alpha(s) and 2 st beta(t) integrate to zero over
    the symmetric square because st is odd in each variable, so the
    squared norm splits; this checks that orthogonality numerically.
    """
    basis = basis if basis is not None else AlphaBetaBasis()
    objective = _NormObjective(basis, 2.0, fine=True)
    w, psi = objective.w, objective.outer
    psi_sq = float(w @ psi**2 @ w)
    if coefficient_sets is None:
        rng = np.random.default_rng(seed)
        coefficient_sets = [rng.uniform(-1.0, 1.0, basis.size) for _ in range(samples)]
    worst = 0.0
    for c in coefficient_sets:
        phi = objective.phi(np.asarray(c, dtype=float))
        combined = float(w @ phi**2 @ w)
        split = psi_sq + float(w @ (phi - psi) ** 2 @ w)
        worst = max(worst, abs(combined - split))
    return worst
