import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import certquad as cq
from certquad.core import Exponent


class TestExponent:
    def test_conjugate_pairs(self):
        assert cq.conjugate(1).is_infinite
        assert cq.conjugate(cq.INF).value == 1.0
        assert cq.conjugate(2).value == 2.0
        assert cq.conjugate(3).value == 1.5

    def test_parse(self):
        assert Exponent.parse("inf").is_infinite
        assert Exponent.parse("Infinity").is_infinite
        assert Exponent.parse("1.5").value == 1.5
        with pytest.raises(ValueError):
            Exponent.parse("zero")

    @pytest.mark.parametrize("text, message", [
        ("zero", "cannot parse exponent 'zero'"),
        ("0.5", "exponent must satisfy p >= 1, got 0.5"),
        ("-inf", "exponent must satisfy p >= 1"),
        ("nan", "exponent must be finite or infinity, got nan"),
    ])
    def test_parse_says_why_it_refuses(self, text, message):
        with pytest.raises(ValueError) as err:
            Exponent.parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("value, text", [
        (3.0, "3"), (1.5, "1.5"), (2.0**53 - 1.0, "9007199254740991"),
        (2.0**53, "9007199254740992.0"), (1e300, "1e+300"), (None, "inf"),
    ])
    def test_str_is_short_and_parses_back(self, value, text):
        # integral values below 2^53 print as ints, every other value as its repr
        assert str(Exponent(value)) == text
        assert Exponent.parse(text) == Exponent(value)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            Exponent(0.5)
        with pytest.raises(ValueError):
            Exponent(float("nan"))

    def test_snaps_to_one(self):
        assert Exponent(1.0 + 1e-13).value == 1.0
        assert Exponent(1.0 - 1e-13).value == 1.0
        assert Exponent(1.0 + 1e-9).value != 1.0

    def test_float_inf_normalizes_to_variant(self):
        p = Exponent(float("inf"))
        assert p.is_infinite and p.value is None

    def test_involution_grid(self):
        # 50 exponents including 1, infinity, and values near both.  The
        # roundtrip error of p -> q -> p grows like eps * p because q - 1
        # is tiny for large p, so the tolerance scales with p.
        grid = [1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1e6, 1e9, None]
        grid += list(np.linspace(1.01, 50.0, 44))
        assert len(grid) == 50
        for v in grid:
            p = Exponent(v)
            back = cq.conjugate(cq.conjugate(p))
            if p.is_infinite:
                assert back.is_infinite
            else:
                assert back.value == pytest.approx(p.value, rel=max(1e-12, 4e-16 * p.value))

    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_involution_hypothesis(self, v):
        p = Exponent(v)
        back = cq.conjugate(cq.conjugate(p))
        assert back.value == pytest.approx(p.value, rel=1e-9)


class TestHolderCoefficient:
    def test_examples(self):
        assert cq.holder_coefficient(2) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
        assert cq.holder_coefficient(1) == 1.0
        assert cq.holder_coefficient(cq.INF) == 0.5

    def test_continuity_at_branch_edges(self):
        eps = 1e-6
        assert abs(cq.holder_coefficient(1.0 + eps) - 1.0) < 1e-3
        assert abs(cq.holder_coefficient(1.0 / eps) - 0.5) < 1e-3

    def test_range_and_monotone(self):
        grid = np.concatenate([np.linspace(1.0, 20.0, 150), [1e3, 1e6]])
        vals = [cq.holder_coefficient(p) for p in grid] + [cq.holder_coefficient(cq.INF)]
        assert all(0.5 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_conjugate_form(self):
        # C(p) = (q+1)^(-1/q) for the conjugate q.
        for p in (1.5, 2.0, 3.0, 7.0):
            q = cq.conjugate(p).value
            assert cq.holder_coefficient(p) == pytest.approx((q + 1.0) ** (-1.0 / q), rel=1e-14)


class TestRectangle:
    def test_derived_values(self):
        r = cq.Rectangle(0, 2, 1, 4)
        assert (r.width, r.height) == (2, 3)
        assert (r.m1, r.m2) == (1.0, 2.5)
        assert r.area == 6.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            cq.Rectangle(1, 1, 0, 1)
        with pytest.raises(ValueError):
            cq.Rectangle(0, 1, 2, 1)
        with pytest.raises(ValueError):
            cq.Rectangle(0, math.inf, 0, 1)


class TestPartitionSpec:
    def test_endpoint_pinned_nodes(self):
        r = cq.Rectangle(0.1, 0.9, -1.0, 2.0)
        part = cq.PartitionSpec(r, 7, 3)
        xs, ys = part.x_nodes(), part.y_nodes()
        assert xs[0] == r.a and xs[-1] == r.b
        assert ys[0] == r.c and ys[-1] == r.d
        assert len(xs) == 8 and len(ys) == 4
        assert np.all(np.diff(xs) > 0)

    def test_rejects_bad_counts(self):
        r = cq.Rectangle.unit()
        with pytest.raises(ValueError):
            cq.PartitionSpec(r, 0, 1)
        with pytest.raises(ValueError):
            cq.PartitionSpec(r, 2.5, 1)


class TestDerivativeNorms:
    def test_trapezoid_shape_enforced(self):
        with pytest.raises(ValueError):
            cq.DerivativeNorms(p=cq.INF, family="trapezoid", fxy=1.0,
                               partition=cq.PartitionSpec(cq.Rectangle.unit(), 1, 2),
                               x_lines=(1, 1), y_lines=(1, 1))

    def test_midpoint_shape_enforced(self):
        with pytest.raises(ValueError):
            cq.DerivativeNorms(p=cq.INF, family="midpoint", fxy=1.0,
                               partition=cq.PartitionSpec(cq.Rectangle.unit(), 1, 1),
                               x_lines=(), y_lines=())

    @pytest.mark.parametrize("family, extra", [("trapezoid", 1), ("midpoint", 0)])
    def test_line_counts_and_entries_checked(self, family, extra):
        m, n = 3, 2

        def build(x_lines, y_lines):
            part = cq.PartitionSpec(cq.Rectangle.unit(), m, n)
            return cq.DerivativeNorms(p=2, family=family, partition=part, fxy=1.0,
                                      x_lines=x_lines, y_lines=y_lines)

        nb = build((1.0,) * (n + extra), (1.0,) * (m + extra))
        assert (len(nb.x_lines), len(nb.y_lines)) == (n + extra, m + extra)
        for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            with pytest.raises(ValueError):
                build((1.0,) * (n + extra + dx), (1.0,) * (m + extra + dy))
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                build((bad,) + (1.0,) * (n + extra - 1), (1.0,) * (m + extra))
            with pytest.raises(ValueError):
                build((1.0,) * (n + extra), (1.0,) * (m + extra - 1) + (bad,))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cq.DerivativeNorms(p=cq.INF, family="midpoint", fxy=-1.0,
                               partition=cq.PartitionSpec(cq.Rectangle.unit(), 1, 1),
                               x_lines=(1.0,), y_lines=(1.0,))

    @pytest.mark.parametrize("fxy, x_lines, y_lines, message", [
        (1.0, (1.0,) * 3, (1.0,) * 3, "expected 2 x_lines norms, got 3"),
        (1.0, (1.0,) * 2, (1.0,) * 2, "expected 3 y_lines norms, got 2"),
        # a count is checked before any entry
        (math.nan, (math.nan,) * 2, (1.0,) * 4, "expected 3 y_lines norms, got 4"),
        # the first bad entry in the order fxy, x_lines, y_lines
        (math.nan, (-1.0, 1.0), (math.inf, 1.0, 1.0), "norm entries must be finite and >= 0, got nan"),
        (1.0, (1.0, math.inf), (-2.0, 1.0, 1.0), "norm entries must be finite and >= 0, got inf"),
        (1.0, (1.0, 2.0), (1.0, -math.inf, math.nan), "norm entries must be finite and >= 0, got -inf"),
        (1.0, (0.0, -0.5), (math.nan, 1.0, 1.0), "norm entries must be finite and >= 0, got -0.5"),
        (-3.0, (1.0, 1.0), (1.0, 1.0, 1.0), "norm entries must be finite and >= 0, got -3.0"),
    ])
    def test_messages(self, fxy, x_lines, y_lines, message):
        # trapezoid on m = 2, n = 1: two x_lines and three y_lines
        with pytest.raises(ValueError) as err:
            cq.DerivativeNorms(p=2, family="trapezoid", partition=cq.PartitionSpec(cq.Rectangle.unit(), 2, 1),
                               fxy=fxy, x_lines=x_lines, y_lines=y_lines)
        assert str(err.value) == message

    def test_negative_zero_is_accepted(self):
        nb = cq.DerivativeNorms(p=2, family="midpoint", partition=cq.PartitionSpec(cq.Rectangle.unit(), 1, 1),
                                fxy=-0.0, x_lines=(-0.0,), y_lines=(0.0,))
        assert (nb.fxy, nb.x_lines, nb.y_lines) == (0.0, (0.0,), (0.0,))


class TestQuadratureReport:
    def test_bound_is_exact_sum(self):
        rep = cq.QuadratureReport(
            rule_id="trapezoid", estimate=1.0,
            fx_term=0.1, fy_term=0.2, fxy_term=0.3, p=cq.INF,
        )
        assert rep.bound == 0.1 + 0.2 + 0.3

    def test_plain_exponent_coerced(self):
        rep = cq.QuadratureReport(rule_id="trapezoid", estimate=0.0,
                                  fx_term=0, fy_term=0, fxy_term=0, p=2)
        assert isinstance(rep.p, cq.Exponent) and rep.p == cq.Exponent(2.0)

    def test_rule_id_checked(self):
        with pytest.raises(ValueError):
            cq.QuadratureReport(rule_id="simpson", estimate=0.0,
                                fx_term=0, fy_term=0, fxy_term=0, p=cq.INF)
