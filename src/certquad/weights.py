"""Weight functions with unit mixed partial, and their L^q norms.

Every rule in this package comes from a choice of phi with phi_xy = 1.
The two built-in weights are products of sawtooth ramps on a uniform
m x n partition, one class per rule family:

- ``CompositeTrapezoidPhi``: per-cell ramps centered on the cell; on
  the 1 x 1 partition the corner-product weight (x - m1)(y - m2) of the
  simple trapezoid rule;
- ``CompositeMidpointPhi``: per-cell ramps split at the cell midpoint
  and vanishing at the cell edges; on the 1 x 1 partition the
  boundary-vanishing weight omega1(x) omega2(y) of the simple midpoint
  rule, with omega1 = x - a left of m1 and x - b right of it.

``ramp_jumps`` lists where the two ramps of a built-in weight jump and
by how much; ``rules`` reads every rule's sample points, sample weights
and bound coefficients off those jumps.  ``CustomPhi`` covers the
general solution phi = xy + alpha(x) + beta(y).

Every weight has one evaluator, the broadcasting ``eval_grid(x, y)``
(on a seam the piece with larger coordinates applies), and ``pieces()``,
its smooth pieces as ``(xlo, xhi, ylo, yhi, phi)`` tuples with each
``phi`` exact on the closure of its piece.  ``eval_phi`` is the
domain-checked scalar view of ``eval_grid``.

Closed-form L^q norms follow from the one-dimensional ramp integral

    || ramp ||_q = (2 m / (q+1))^(1/q) * (delta/2)^(1 + 1/q),

with delta the cell width and m the cell count (max |ramp| = delta/2 at
q = infinity); the two-dimensional norms are products of these because
each variant separates.  ``phi_norm_numeric`` recomputes the same norms
by piecewise quadrature that never straddles a piece seam, providing an
independent audit of the closed forms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import (
    DomainError,
    Exponent,
    PartitionSpec,
    Rectangle,
    UnsupportedVariantError,
)
from .gauss import as_vector_fn, graded_nodes, segment_p_norms, tensor_norms, zoomed_sup


def _ramp(nodes: np.ndarray, family: str) -> tuple[np.ndarray, np.ndarray]:
    """A family's unit-slope sawtooth ramp on one axis, as (seams, roots).

    The ramp is t - roots[i] from seams[i-1] to seams[i], with roots[0]
    before the first seam and roots[-1] after the last: its root changes
    exactly at the seams.  Outside the axis the ramp is 0, which at an
    axis end is t - root with the end itself as root.  The trapezoid ramp
    is rooted at the cell midpoints and its seams are the nodes, ends
    included; the midpoint ramp is rooted at the nodes and its seams are
    the cell midpoints.
    """
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    if family == "trapezoid":
        return nodes, np.concatenate((nodes[:1], mids, nodes[-1:]))
    return mids, nodes


def _sawtooth_ramp(nodes: np.ndarray, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Breaks and roots of the ``_ramp`` pieces, split at every node and midpoint.

    Splitting at the roots too keeps |ramp| smooth on every piece, which
    the piecewise quadrature of ``phi_norm_numeric`` relies on.
    """
    seams, roots = _ramp(nodes, family)
    breaks = np.empty(2 * nodes.size - 1)
    breaks[0::2] = nodes
    breaks[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return breaks, roots[np.searchsorted(seams, breaks[:-1], side="right")]


@lru_cache(maxsize=64)
def ramp_jumps(part: PartitionSpec, family: str):
    """Nonzero jumps of a rule weight's two ramps: ((xs, J_x), (ys, J_y)).

    J_x[k] is the jump X(xs[k]+) - X(xs[k]-) of the family's x-ramp, a
    boundary counting as a jump from or to 0; points where the ramp is
    continuous are left out, since a rule neither samples nor takes a line
    norm there.  Memoized because a report's estimate, norm bundle and
    bound ask for the same partition in turn; the arrays are read-only
    because they are shared.
    """
    xs, x_roots = _ramp(part.x_nodes(), family)
    ys, y_roots = _ramp(part.y_nodes(), family)
    # across seams[i] the ramp goes from t - roots[i] to t - roots[i+1]
    out = (xs, x_roots[:-1] - x_roots[1:]), (ys, y_roots[:-1] - y_roots[1:])
    for axis in out:
        for a in axis:
            a.setflags(write=False)
    return out


def _ramp_at(breaks: np.ndarray, roots: np.ndarray, t) -> np.ndarray:
    """t minus the root of its interval: counting the interior breaks <= t gives that interval,
    the one above on a seam, clamped to the axis."""
    t = np.asarray(t, dtype=float)
    return t - roots[np.searchsorted(breaks[1:-1], t, side="right")]


def _bilinear(x_root: float, y_root: float) -> Callable:
    """(x - x_root)(y - y_root), one built-in piece's weight on its closure."""
    return lambda x, y: (np.asarray(x, dtype=float) - x_root) * (np.asarray(y, dtype=float) - y_root)


class _SeparableWeight:
    """Product ramp_x(x) ramp_y(y) of two ``_ramp`` axes.

    ``x_breaks`` has one more entry than ``x_roots``; interval i is
    [x_breaks[i], x_breaks[i+1]] with root x_roots[i].  Lookup uses the
    limit-from-above convention: a point on an interior seam belongs to
    the piece on its larger-coordinate side.
    """

    family: str

    def __init__(self, rect: Rectangle, partition: PartitionSpec):
        if partition.rect != rect:
            raise ValueError("partition was built for a different rectangle")
        self.rect = rect
        self.partition = partition
        self.x_breaks, self.x_roots = _sawtooth_ramp(partition.x_nodes(), self.family)
        self.y_breaks, self.y_roots = _sawtooth_ramp(partition.y_nodes(), self.family)

    def eval_grid(self, x, y) -> np.ndarray:
        """Vectorized evaluation with broadcasting."""
        return _ramp_at(self.x_breaks, self.x_roots, x) * _ramp_at(self.y_breaks, self.y_roots, y)

    def pieces(self) -> tuple:
        """(xlo, xhi, ylo, yhi, phi) per smooth piece, phi exact on the piece's closure."""
        xb, yb = self.x_breaks.tolist(), self.y_breaks.tolist()
        return tuple((xb[i], xb[i + 1], yb[j], yb[j + 1], _bilinear(xr, yr))
                     for i, xr in enumerate(self.x_roots.tolist()) for j, yr in enumerate(self.y_roots.tolist()))


class CompositeTrapezoidPhi(_SeparableWeight):
    """Sawtooth product U_i(x) V_j(y): per-cell ramps centered on the cell.

    On the 1 x 1 partition phi = (x - m1)(y - m2), which vanishes on the
    two midlines.
    """

    family = "trapezoid"


class CompositeMidpointPhi(_SeparableWeight):
    """Sawtooth product of per-cell ramps vanishing at the cell edges.

    In each cell the ramp in x is x - x_i left of the cell midline and
    x - x_(i+1) right of it; the value at the midline itself is taken
    from the right piece.  On the 1 x 1 partition phi vanishes on the
    whole rectangle boundary.
    """

    family = "midpoint"


class CustomPhi:
    """phi(x, y) = xy + alpha(x) + beta(y) for user-supplied alpha, beta.

    alpha and beta are asserted absolutely continuous by the caller; no
    symbolic derivative is carried, so operations needing phi-derivatives
    are restricted to the built-in variants.
    """

    def __init__(self, alpha: Callable, beta: Callable, rect: Rectangle):
        self.rect = rect
        self.alpha = alpha
        self.beta = beta
        self._alpha_v = as_vector_fn(alpha)
        self._beta_v = as_vector_fn(beta)

    def eval_grid(self, x, y) -> np.ndarray:
        """Vectorized evaluation with broadcasting."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x * y + self._alpha_v(x) + self._beta_v(y)

    def pieces(self) -> tuple:
        """One piece, the whole rectangle: (a, b, c, d, eval_grid)."""
        r = self.rect
        return ((r.a, r.b, r.c, r.d, self.eval_grid),)


def eval_phi(w, x: float, y: float) -> float:
    """Value of phi at (x, y): ``w.eval_grid`` at one point of its rectangle.

    On a seam the piece with larger coordinates applies.  Raises
    DomainError for points outside the rectangle.
    """
    if not w.rect.contains(x, y):
        raise DomainError(f"point ({x}, {y}) outside rectangle {w.rect}")
    return float(w.eval_grid(float(x), float(y)))


def ramp_norm_closed(length: float, cells: int, q) -> float:
    """L^q norm of an m-cell sawtooth ramp of total span ``length``.

    The ramp rises linearly from 0 to delta/2 = length/(2 cells) twice per
    cell, so ||ramp||_q^q = 2 cells * int_0^(delta/2) t^q dt.
    """
    q = Exponent.coerce(q)
    delta = length / cells
    qq = q.value
    try:
        norm = delta / 2.0 if q.is_infinite else (
            (2.0 * cells / (qq + 1.0)) ** (1.0 / qq) * (delta / 2.0) ** (1.0 + 1.0 / qq))
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise ValueError(f"span {length:g} over {cells} cells is too wide: its ramp L^{q} norm overflows")
    return norm


def _cells_of(w) -> tuple[int, int]:
    if not isinstance(w, _SeparableWeight):
        raise UnsupportedVariantError(
            f"closed-form norms are unavailable for {type(w).__name__}; use phi_norm_numeric"
        )
    return w.partition.m, w.partition.n


def phi_norm_closed(w, q) -> float:
    """Exact L^q norm of a built-in weight over its rectangle.

    All built-in variants separate into per-axis ramps, so the norm is the
    product of the two one-dimensional ramp norms.
    """
    q = Exponent.coerce(q)
    mx, my = _cells_of(w)
    return ramp_norm_closed(w.rect.width, mx, q) * ramp_norm_closed(w.rect.height, my, q)


def _axis_ramp_norm(breaks: np.ndarray, roots: np.ndarray, qq: float, cap: float) -> float:
    """L^q norm of one axis ramp |t - root_k|: each piece is its own set of one graded Gauss build."""
    x, wts, bounds = graded_nodes(np.stack((breaks[:-1], breaks[1:]), axis=1), [(12, np.diff(breaks) * cap)])
    return float(segment_p_norms(np.abs(x - np.repeat(roots, np.diff(bounds))), wts, [x.size], qq)[0])


def _axis_sup(breaks: np.ndarray, roots: np.ndarray) -> float:
    """max over interval closures of |t - root_k|; extremes sit at interval ends."""
    lo_vals = np.abs(breaks[:-1] - roots)
    hi_vals = np.abs(breaks[1:] - roots)
    return float(max(lo_vals.max(), hi_vals.max()))


def phi_norm_numeric(w, q, resolution: int = 256) -> float:
    """L^q norm of a weight by piecewise-aware quadrature.

    Panels never straddle a piece seam.  Built-in variants separate, so
    the norm is the product of the two axis-ramp norms; q = infinity
    takes the maximum of |phi| over piece closures (attained at piece
    corners for these piecewise-bilinear weights).
    """
    q = Exponent.coerce(q)
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    cap = 1.0 / max(2, resolution // 64)  # panel width cap, as a fraction of a piece or an axis
    if isinstance(w, CustomPhi):
        if q.is_infinite:
            return zoomed_sup(w.eval_grid, w.rect, max(64, resolution))[0]
        return tensor_norms(w.eval_grid, w.rect, q.value, 128, [(10, cap)])[0]
    if not isinstance(w, _SeparableWeight):
        raise UnsupportedVariantError(f"unknown weight type {type(w).__name__}")
    if q.is_infinite:
        return _axis_sup(w.x_breaks, w.x_roots) * _axis_sup(w.y_breaks, w.y_roots)
    return _axis_ramp_norm(w.x_breaks, w.x_roots, q.value, cap) * _axis_ramp_norm(
        w.y_breaks, w.y_roots, q.value, cap
    )
