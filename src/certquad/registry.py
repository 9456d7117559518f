"""Built-in integrand corpus: smooth functions with analytic partials and
exact integrals.

Only kink-free integrands are shipped, since the certified bounds need
the derivative norms to exist.  ``exact`` maps a rectangle to the true
integral via antiderivatives, independent of any quadrature here; the sin
and exp ones are products (sin of half-widths, expm1) that do not cancel.
invsum's corner difference of s log s - s has no such form, so invsum
refuses the rectangles on which it would cancel (``_invsum_ok``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DomainError, Integrand, Rectangle, RegistryError


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    description: str
    f: Callable
    fx: Callable
    fy: Callable
    fxy: Callable
    exact: Callable[[Rectangle], float]
    domain_ok: Callable[[Rectangle], bool] = lambda rect: True

    def integrand(self, rect: Rectangle | None = None) -> Integrand:
        """Bind to a rectangle, filling the exact integral for it."""
        if rect is not None and not self.domain_ok(rect):
            raise DomainError(f"integrand {self.name!r} ({self.description}) does not accept {rect}")
        try:
            exact = float(self.exact(rect)) if rect is not None else None
        except OverflowError:
            exact = math.inf
        if exact is not None and not math.isfinite(exact):
            raise DomainError(f"the exact integral of {self.name!r} over {rect} is not a finite float")
        return Integrand(
            f=self.f, fx=self.fx, fy=self.fy, fxy=self.fxy,
            exact_integral=exact, label=self.name,
        )


def _zero(x, y):
    return 0.0 * x + 0.0 * y


def _one(x, y):
    return 1.0 + _zero(x, y)


_ENTRIES = (
    RegistryEntry(
        "one", "constant 1",
        f=_one, fx=_zero, fy=_zero, fxy=_zero,
        exact=lambda r: r.width * r.height,
    ),
    RegistryEntry(
        "x", "f(x, y) = x",
        f=lambda x, y: x + _zero(x, y),
        fx=_one, fy=_zero, fxy=_zero,
        exact=lambda r: 0.5 * (r.b**2 - r.a**2) * r.height,
    ),
    RegistryEntry(
        "y", "f(x, y) = y",
        f=lambda x, y: y + _zero(x, y),
        fx=_zero, fy=_one, fxy=_zero,
        exact=lambda r: 0.5 * (r.d**2 - r.c**2) * r.width,
    ),
    RegistryEntry(
        "xy", "bilinear x*y",
        f=lambda x, y: x * y,
        fx=lambda x, y: y + _zero(x, y),
        fy=lambda x, y: x + _zero(x, y),
        fxy=_one,
        exact=lambda r: 0.25 * (r.b**2 - r.a**2) * (r.d**2 - r.c**2),
    ),
    RegistryEntry(
        "poly22", "x^2 * y^2",
        f=lambda x, y: x ** 2 * y ** 2,
        fx=lambda x, y: 2.0 * x * y ** 2,
        fy=lambda x, y: 2.0 * x ** 2 * y,
        fxy=lambda x, y: 4.0 * x * y,
        exact=lambda r: (r.b**3 - r.a**3) * (r.d**3 - r.c**3) / 9.0,
    ),
    RegistryEntry(
        "cubes", "x^3 + y^3 (zero mixed partial)",
        f=lambda x, y: x ** 3 + y ** 3,
        fx=lambda x, y: 3.0 * x ** 2 + _zero(x, y),
        fy=lambda x, y: 3.0 * y ** 2 + _zero(x, y),
        fxy=_zero,
        exact=lambda r: 0.25 * (r.b**4 - r.a**4) * r.height + 0.25 * (r.d**4 - r.c**4) * r.width,
    ),
    RegistryEntry(
        "sinsin", "sin(x) * sin(y)",
        f=lambda x, y: np.sin(x) * np.sin(y),
        fx=lambda x, y: np.cos(x) * np.sin(y),
        fy=lambda x, y: np.sin(x) * np.cos(y),
        fxy=lambda x, y: np.cos(x) * np.cos(y),
        exact=lambda r: _sin_integral(r.a, r.b) * _sin_integral(r.c, r.d),
    ),
    RegistryEntry(
        "expsum", "exp(x + y)",
        f=lambda x, y: np.exp(x + y),
        fx=lambda x, y: np.exp(x + y),
        fy=lambda x, y: np.exp(x + y),
        fxy=lambda x, y: np.exp(x + y),
        exact=lambda r: _exp_integral(r.a, r.b) * _exp_integral(r.c, r.d),
    ),
    RegistryEntry(
        "invsum", "1 / (1 + x + y), needs 1 + a + c > 0 and a rectangle its closed form resolves",
        f=lambda x, y: 1.0 / (1.0 + x + y),
        fx=lambda x, y: -1.0 / (1.0 + x + y) ** 2,
        fy=lambda x, y: -1.0 / (1.0 + x + y) ** 2,
        fxy=lambda x, y: 2.0 / (1.0 + x + y) ** 3,
        exact=lambda r: _invsum_exact(r),
        domain_ok=lambda r: _invsum_ok(r),
    ),
    RegistryEntry(
        "sinsum", "sin(x + y)",
        f=lambda x, y: np.sin(x + y),
        fx=lambda x, y: np.cos(x + y),
        fy=lambda x, y: np.cos(x + y),
        fxy=lambda x, y: -np.sin(x + y),
        exact=lambda r: 4.0 * math.sin(0.5 * (r.b - r.a)) * math.sin(0.5 * (r.d - r.c))
        * math.sin(0.5 * (r.a + r.b + r.c + r.d)),
    ),
)


def _sin_integral(lo: float, hi: float) -> float:
    """cos(lo) - cos(hi) as 2 sin((lo + hi)/2) sin((hi - lo)/2)."""
    return 2.0 * math.sin(0.5 * (lo + hi)) * math.sin(0.5 * (hi - lo))


def _exp_integral(lo: float, hi: float) -> float:
    """exp(hi) - exp(lo) as exp(lo) expm1(hi - lo)."""
    return math.exp(lo) * math.expm1(hi - lo)


def _invsum_ok(r: Rectangle) -> bool:
    """1 + x + y > 0 on the rectangle, and the closed form keeps 12 digits there.

    Each corner term s log s - s rounds by up to ~eps s (|log s| + 1), so
    the corner difference of ``_invsum_exact`` is off by up to 4 eps times
    the largest of them.  The integral is at least area / (1 + b + d); a
    rectangle where that rounding exceeds 1e-12 of it (sides below ~0.2
    near s = 4, below ~0.04 near s = 1) is refused, so the closed form
    never decides a certificate check.
    """
    if not 1.0 + r.a + r.c > 1e-9:
        return False
    corners = [1.0 + x + y for x in (r.a, r.b) for y in (r.c, r.d)]
    rounding = 4.0 * sys.float_info.epsilon * max(s * (abs(math.log(s)) + 1.0) for s in corners)
    return rounding <= 1e-12 * r.area / (1.0 + r.b + r.d)


def _invsum_exact(r: Rectangle) -> float:
    def anti(x, y):
        s = 1.0 + x + y
        return s * math.log(s) - s

    return anti(r.b, r.d) - anti(r.a, r.d) - anti(r.b, r.c) + anti(r.a, r.c)


REGISTRY: dict[str, RegistryEntry] = {e.name: e for e in _ENTRIES}


def names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def get_entry(name: str) -> RegistryEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown integrand {name!r}; available: {', '.join(names())}"
        ) from None
