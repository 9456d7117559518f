"""Weight functions with unit mixed partial, and their L^q norms.

Every rule in this package comes from a choice of phi with phi_xy = 1.
The built-in variants are all piecewise products of two linear ramps:

- corner-product weight (trapezoid rule): phi = (x - m1)(y - m2);
- boundary-vanishing weight (midpoint rule): phi = omega1(x) * omega2(y)
  where omega1 = x - a left of m1 and x - b right of it, and similarly
  omega2, so phi = 0 on the whole boundary;
- their composite analogues on a uniform m x n partition: sawtooth ramps
  per cell, centered on the cell (trapezoid) or split at the cell
  midpoint and vanishing at cell edges (midpoint).

``ramp_jumps`` lists where the two ramps of a built-in weight jump and
by how much; ``rules`` reads every rule's sample points, sample weights
and bound coefficients off those jumps.  ``CustomPhi`` covers the
general solution phi = xy + alpha(x) + beta(y).

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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PhiPiece:
    """One smooth piece of a weight function.

    Built-in pieces evaluate as ``(x - x_root)(y - y_root)``; a custom
    piece carries its own evaluator.  ``eval`` accepts points on the
    closure of the piece, which makes seam values unambiguous per piece.
    """

    xlo: float
    xhi: float
    ylo: float
    yhi: float
    x_root: float | None = None
    y_root: float | None = None
    fn: Callable | None = None

    def eval(self, x, y):
        if self.x_root is not None:
            return (np.asarray(x, dtype=float) - self.x_root) * (
                np.asarray(y, dtype=float) - self.y_root
            )
        return self.fn(x, y)


class WeightFunction:
    """Base class; concrete variants populate rect and the piece layout."""

    variant: str = "abstract"
    rect: Rectangle

    def pieces(self) -> tuple[PhiPiece, ...]:
        raise NotImplementedError

    def value_at(self, x: float, y: float) -> float:
        raise NotImplementedError

    def __call__(self, x: float, y: float) -> float:
        return eval_phi(self, x, y)


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


class _SeparableWeight(WeightFunction):
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

    def _index(self, breaks: np.ndarray, t: float) -> int:
        i = int(np.searchsorted(breaks, t, side="right")) - 1
        return min(max(i, 0), breaks.size - 2)

    def value_at(self, x: float, y: float) -> float:
        i = self._index(self.x_breaks, x)
        j = self._index(self.y_breaks, y)
        return (x - self.x_roots[i]) * (y - self.y_roots[j])

    def pieces(self) -> tuple[PhiPiece, ...]:
        out = []
        for i in range(self.x_roots.size):
            for j in range(self.y_roots.size):
                out.append(
                    PhiPiece(
                        xlo=float(self.x_breaks[i]),
                        xhi=float(self.x_breaks[i + 1]),
                        ylo=float(self.y_breaks[j]),
                        yhi=float(self.y_breaks[j + 1]),
                        x_root=float(self.x_roots[i]),
                        y_root=float(self.y_roots[j]),
                    )
                )
        return tuple(out)


class CompositeTrapezoidPhi(_SeparableWeight):
    """Sawtooth product U_i(x) V_j(y): per-cell ramps centered on the cell."""

    variant = "composite-trapezoid-phi"
    family = "trapezoid"


class CompositeMidpointPhi(_SeparableWeight):
    """Sawtooth product of per-cell ramps vanishing at the cell edges."""

    variant = "composite-midpoint-phi"
    family = "midpoint"


class TrapezoidPhi(CompositeTrapezoidPhi):
    """phi(x, y) = (x - m1)(y - m2); vanishes on the two midlines."""

    variant = "trapezoid-phi"

    def __init__(self, rect: Rectangle):
        super().__init__(rect, PartitionSpec(rect, 1, 1))


class MidpointPhi(CompositeMidpointPhi):
    """Four-piece product vanishing on the rectangle boundary.

    The ramp in x is x - a left of the midline and x - b right of it
    (value at the midline itself is taken from the right piece).
    """

    variant = "midpoint-phi"

    def __init__(self, rect: Rectangle):
        super().__init__(rect, PartitionSpec(rect, 1, 1))


class CustomPhi(WeightFunction):
    """phi(x, y) = xy + alpha(x) + beta(y) for user-supplied alpha, beta.

    alpha and beta are asserted absolutely continuous by the caller; no
    symbolic derivative is carried, so operations needing phi-derivatives
    are restricted to the built-in variants.
    """

    variant = "custom-phi"

    def __init__(self, alpha: Callable, beta: Callable, rect: Rectangle):
        self.rect = rect
        self.alpha = alpha
        self.beta = beta
        self._alpha_v = as_vector_fn(alpha)
        self._beta_v = as_vector_fn(beta)

    def value_at(self, x: float, y: float) -> float:
        return x * y + float(self._alpha_v(np.asarray([x]))[0]) + float(
            self._beta_v(np.asarray([y]))[0]
        )

    def eval_grid(self, x, y) -> np.ndarray:
        """Vectorized evaluation with broadcasting."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x * y + self._alpha_v(x) + self._beta_v(y)

    def pieces(self) -> tuple[PhiPiece, ...]:
        r = self.rect
        return (PhiPiece(r.a, r.b, r.c, r.d, fn=self.eval_grid),)


def eval_phi(w: WeightFunction, x: float, y: float) -> float:
    """Value of phi at (x, y); on a seam, the piece with larger coordinates.

    Raises DomainError for points outside the rectangle.
    """
    if not w.rect.contains(x, y):
        raise DomainError(f"point ({x}, {y}) outside rectangle {w.rect}")
    return float(w.value_at(float(x), float(y)))


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


def _cells_of(w: WeightFunction) -> tuple[int, int]:
    if not isinstance(w, _SeparableWeight):
        raise UnsupportedVariantError(
            f"closed-form norms are unavailable for {w.variant}; use phi_norm_numeric"
        )
    return w.partition.m, w.partition.n


def phi_norm_closed(w: WeightFunction, q) -> float:
    """Exact L^q norm of a built-in weight over its rectangle.

    All built-in variants separate into per-axis ramps, so the norm is the
    product of the two one-dimensional ramp norms.
    """
    q = Exponent.coerce(q)
    mx, my = _cells_of(w)
    return ramp_norm_closed(w.rect.width, mx, q) * ramp_norm_closed(w.rect.height, my, q)


_EDGES = ("bottom", "top", "left", "right")


def phi_edge_norm_closed(w: WeightFunction, q, edge: str) -> float:
    """Exact L^q norm of a built-in weight restricted to one boundary edge.

    On an edge the transverse ramp is frozen at its boundary value, e.g.
    ||phi(., c)||_q = |c - y_root| * ||x-ramp||_q; the boundary-vanishing
    variants give 0.
    """
    q = Exponent.coerce(q)
    if edge not in _EDGES:
        raise ValueError(f"edge must be one of {_EDGES}")
    mx, my = _cells_of(w)
    if edge in ("bottom", "top"):
        fixed = w.rect.c if edge == "bottom" else w.rect.d
        root = w.y_roots[0] if edge == "bottom" else w.y_roots[-1]
        return abs(fixed - root) * ramp_norm_closed(w.rect.width, mx, q)
    fixed = w.rect.a if edge == "left" else w.rect.b
    root = w.x_roots[0] if edge == "left" else w.x_roots[-1]
    return abs(fixed - root) * ramp_norm_closed(w.rect.height, my, q)


def _axis_ramp_norm(breaks: np.ndarray, roots: np.ndarray, qq: float, cap: float) -> float:
    """L^q norm of one axis ramp |t - root_k|: each piece is its own set of one graded Gauss build."""
    x, wts, bounds = graded_nodes(np.stack((breaks[:-1], breaks[1:]), axis=1), [(12, np.diff(breaks) * cap)])
    return float(segment_p_norms(np.abs(x - np.repeat(roots, np.diff(bounds))), wts, [0], [x.size], qq)[0])


def _axis_sup(breaks: np.ndarray, roots: np.ndarray) -> float:
    """max over interval closures of |t - root_k|; extremes sit at interval ends."""
    lo_vals = np.abs(breaks[:-1] - roots)
    hi_vals = np.abs(breaks[1:] - roots)
    return float(max(lo_vals.max(), hi_vals.max()))


def phi_norm_numeric(w: WeightFunction, q, resolution: int = 256) -> float:
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
        raise UnsupportedVariantError(f"unknown weight variant {w.variant}")
    if q.is_infinite:
        return _axis_sup(w.x_breaks, w.x_roots) * _axis_sup(w.y_breaks, w.y_roots)
    return _axis_ramp_norm(w.x_breaks, w.x_roots, q.value, cap) * _axis_ramp_norm(
        w.y_breaks, w.y_roots, q.value, cap
    )
