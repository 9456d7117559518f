"""Shared domain values: rectangles, Lebesgue exponents, integrands, norm bundles.

Every type here is an immutable value validated at construction.  Nothing
mutates after ``__init__``, so instances can be shared freely between
concurrent tasks without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

# Two- and one-variable evaluable maps.  Callables are expected to accept
# numpy arrays; scalar-only callables are tolerated by the samplers, which
# fall back to elementwise evaluation.
TwoVarFn = Callable[..., "np.ndarray | float"]
OneVarFn = Callable[..., "np.ndarray | float"]

#: Finite exponents within this distance of 1 are snapped to exactly 1, so
#: the limit-form coefficients are used instead of the cancellation-prone
#: general branch.
ONE_SNAP_TOLERANCE = 1e-12

#: Built-in rule -> (weight family, takes a partition).  A simple rule is
#: its family's composite rule on the 1 x 1 partition.
BUILTIN_RULES = {
    "trapezoid": ("trapezoid", False),
    "midpoint": ("midpoint", False),
    "composite-trapezoid": ("trapezoid", True),
    "composite-midpoint": ("midpoint", True),
}

RULE_IDS = (*BUILTIN_RULES, "custom-phi")

FAMILIES = ("trapezoid", "midpoint")


class CertquadError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CertquadError, ValueError):
    """A point lies outside the rectangle it was evaluated on."""


class EvaluationError(CertquadError, ArithmeticError):
    """A sampled function value was not finite."""

    def __init__(self, message: str, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class ConfigurationError(CertquadError, ValueError):
    """An operation that needs analytic partials got an integrand without them."""


class NormMismatchError(CertquadError, ValueError):
    """A norm bundle was built for a different family, exponent or partition."""


class UnsupportedVariantError(CertquadError, ValueError):
    """The weight-function variant does not support the requested operation."""


class QuadratureConvergenceError(CertquadError, ArithmeticError):
    """Refinement budget exhausted before the tolerance was met."""

    def __init__(self, message: str, best_value: float, error_estimate: float):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate


class SearchFailureError(CertquadError, ArithmeticError):
    """The minimal-norm solve did not converge within its budget."""

    def __init__(self, message: str, best_coefficients, best_norm: float):
        super().__init__(message)
        self.best_coefficients = best_coefficients
        self.best_norm = best_norm


class RegistryError(CertquadError, KeyError):
    """Unknown integrand name; the message lists the available ones."""


@dataclass(frozen=True)
class Exponent:
    """A Lebesgue exponent p in [1, inf].

    Infinity is a distinct variant (``value is None``), never a floating
    sentinel, so the three coefficient branches (p = 1, 1 < p < inf,
    p = inf) select exactly.  Finite inputs within 1e-12 of 1 snap to
    exactly 1.
    """

    value: float | None

    def __post_init__(self) -> None:
        v = self.value
        if v is None:
            return
        v = float(v)
        if math.isinf(v):
            if v < 0:
                raise ValueError("exponent must satisfy p >= 1")
            object.__setattr__(self, "value", None)
            return
        if not math.isfinite(v):
            raise ValueError(f"exponent must be finite or infinity, got {v!r}")
        if abs(v - 1.0) <= ONE_SNAP_TOLERANCE:
            v = 1.0
        if v < 1.0:
            raise ValueError(f"exponent must satisfy p >= 1, got {v!r}")
        object.__setattr__(self, "value", v)

    @classmethod
    def coerce(cls, p) -> "Exponent":
        if isinstance(p, Exponent):
            return p
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "Exponent":
        """Parse a decimal string or the aliases ``inf`` / ``infinity``."""
        t = text.strip().lower()
        if t in ("inf", "infinity"):
            return cls(None)
        try:
            return cls(float(t))
        except ValueError as exc:
            raise ValueError(f"cannot parse exponent {text!r}") from exc

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def is_one(self) -> bool:
        return self.value == 1.0

    @property
    def reciprocal(self) -> float:
        """1/p, with the convention 1/inf = 0."""
        return 0.0 if self.value is None else 1.0 / self.value

    @property
    def conjugate(self) -> "Exponent":
        return conjugate(self)

    def __str__(self) -> str:
        if self.value is None:
            return "inf"
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)

    def __repr__(self) -> str:
        return f"Exponent({self})"


INF = Exponent(None)


def conjugate(p) -> Exponent:
    """Conjugate exponent q with 1/p + 1/q = 1; pairs (1, inf) and (inf, 1)."""
    p = Exponent.coerce(p)
    if p.is_one:
        return INF
    if p.is_infinite:
        return Exponent(1.0)
    return Exponent(p.value / (p.value - 1.0))


def holder_coefficient(p) -> float:
    """C(p) = ((p-1)/(2p-1))^(1-1/p), with limits C(1) = 1 and C(inf) = 1/2.

    Equivalently (q+1)^(-1/q) in terms of the conjugate exponent q.  Always
    in [1/2, 1] and monotone decreasing in p.
    """
    p = Exponent.coerce(p)
    if p.is_one:
        return 1.0
    if p.is_infinite:
        return 0.5
    v = p.value
    return ((v - 1.0) / (2.0 * v - 1.0)) ** (1.0 - 1.0 / v)


@dataclass(frozen=True)
class Rectangle:
    """The integration domain [a, b] x [c, d] with strictly positive extent."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"rectangle coordinate {name} must be finite")
            object.__setattr__(self, name, v)
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not self.c < self.d:
            raise ValueError(f"need c < d, got [{self.c}, {self.d}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def height(self) -> float:
        return self.d - self.c

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def m1(self) -> float:
        """Midpoint of [a, b]."""
        return 0.5 * (self.a + self.b)

    @property
    def m2(self) -> float:
        """Midpoint of [c, d]."""
        return 0.5 * (self.c + self.d)

    def contains(self, x: float, y: float) -> bool:
        return self.a <= x <= self.b and self.c <= y <= self.d

    @classmethod
    def unit(cls) -> "Rectangle":
        return cls(0.0, 1.0, 0.0, 1.0)

    @classmethod
    def symmetric(cls) -> "Rectangle":
        return cls(-1.0, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class Integrand:
    """An evaluable f(x, y) with optional analytic partials and known integral.

    ``exact_integral``, when set, refers to the rectangle the integrand is
    being used on (the built-in registry fills it per rectangle).
    """

    f: TwoVarFn
    fx: TwoVarFn | None = None
    fy: TwoVarFn | None = None
    fxy: TwoVarFn | None = None
    exact_integral: float | None = None
    label: str = ""

    @property
    def has_partials(self) -> bool:
        return self.fx is not None and self.fy is not None and self.fxy is not None


@dataclass(frozen=True)
class UniformBounds:
    """Pointwise bounds |grad f| <= M and |f_xy| <= N."""

    M: float
    N: float

    def __post_init__(self) -> None:
        for name in ("M", "N"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class PartitionSpec:
    """A uniform m x n partition of a rectangle.

    Grid points are generated as a + i*(b-a)/m with the last node replaced
    by b exactly, so the partition is pinned to the rectangle endpoints and
    never drifts past them.
    """

    rect: Rectangle
    m: int
    n: int

    def __post_init__(self) -> None:
        for name in ("m", "n"):
            v = getattr(self, name)
            if int(v) != v or int(v) < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    def x_nodes(self) -> np.ndarray:
        nodes = self.rect.a + np.arange(self.m + 1) * (self.rect.width / self.m)
        nodes[-1] = self.rect.b
        return nodes

    def y_nodes(self) -> np.ndarray:
        nodes = self.rect.c + np.arange(self.n + 1) * (self.rect.height / self.n)
        nodes[-1] = self.rect.d
        return nodes


@dataclass(frozen=True)
class DerivativeNorms:
    """The derivative norms a certified bound consumes, bound to one rule setup.

    The bundle records which family, exponent and partition (rectangle
    included) it was built for; the bound operations refuse bundles built
    for anything else.

    ``x_lines`` holds ||f_x(., y_l)||_p for every line y = y_l across which
    the rule's weight jumps (``weights.ramp_jumps``), in increasing y, and
    ``y_lines`` the same for f_y along x = x_k: the boundary and grid
    lines of the trapezoid family (n + 1 and m + 1 of them), the cell
    midlines of the midpoint family (n and m).
    """

    p: Exponent
    family: str
    partition: PartitionSpec
    fxy: float
    x_lines: tuple[float, ...]
    y_lines: tuple[float, ...]
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "p", Exponent.coerce(self.p))
        extra = 1 if self.family == "trapezoid" else 0
        object.__setattr__(self, "fxy", float(self.fxy))
        part = self.partition
        for name, count in (("x_lines", part.n + extra), ("y_lines", part.m + extra)):
            values = tuple(map(float, getattr(self, name)))
            if len(values) != count:
                raise ValueError(f"expected {count} {name} norms, got {len(values)}")
            object.__setattr__(self, name, values)
        for v in (self.fxy, *self.x_lines, *self.y_lines):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"norm entries must be finite and >= 0, got {v!r}")

    def matches(self, family: str, part: PartitionSpec) -> bool:
        return self.family == family and self.partition == part


@dataclass(frozen=True)
class QuadratureReport:
    """One rule application: estimate, certified bound and its decomposition.

    ``bound`` is always the exact floating sum fx_term + fy_term + fxy_term.
    """

    rule_id: str
    estimate: float
    fx_term: float
    fy_term: float
    fxy_term: float
    p: Exponent
    partition: PartitionSpec | None = None
    norms_used: DerivativeNorms | None = None
    notes: tuple[str, ...] = ()
    bound: float = field(init=False)

    def __post_init__(self) -> None:
        if self.rule_id not in RULE_IDS:
            raise ValueError(f"rule_id must be one of {RULE_IDS}, got {self.rule_id!r}")
        object.__setattr__(self, "p", Exponent.coerce(self.p))
        for name in ("fx_term", "fy_term", "fxy_term"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "estimate", float(self.estimate))
        object.__setattr__(self, "notes", tuple(self.notes))
        object.__setattr__(self, "bound", self.fx_term + self.fy_term + self.fxy_term)
