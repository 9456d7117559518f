import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import certquad as cq
from conftest import RECT_SET

Q_GRID = (1, 1.5, 2, 3, cq.INF)


def make_variants(rect):
    out = []
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (4, 2), (4, 4)):
        part = cq.PartitionSpec(rect, m, n)
        out.append(cq.CompositeTrapezoidPhi(rect, part))
        out.append(cq.CompositeMidpointPhi(rect, part))
    return out


class TestEvalPhi:
    def test_trapezoid_corner(self, unit):
        w = cq.CompositeTrapezoidPhi(unit, cq.PartitionSpec(unit, 1, 1))
        assert cq.eval_phi(w, 0.0, 0.0) == pytest.approx(0.25)

    def test_midpoint_interior(self, sym):
        # piece for 0 < s, t <= 1 is (s-1)(t-1)
        w = cq.CompositeMidpointPhi(sym, cq.PartitionSpec(sym, 1, 1))
        assert cq.eval_phi(w, 0.5, 0.5) == pytest.approx(0.25)

    def test_midpoint_boundary_vanishes(self, sym):
        w = cq.CompositeMidpointPhi(sym, cq.PartitionSpec(sym, 1, 1))
        for t in np.linspace(-1, 1, 7):
            assert cq.eval_phi(w, 1.0, t) == 0.0

    def test_seam_uses_larger_coordinate_piece(self, sym):
        # at s = 0 the piece 0 < s <= 1 applies: (0-1)(t-1) = 1-t
        w = cq.CompositeMidpointPhi(sym, cq.PartitionSpec(sym, 1, 1))
        assert cq.eval_phi(w, 0.0, 0.5) == pytest.approx(0.5)
        assert cq.eval_phi(w, 0.0, 0.0) == pytest.approx(1.0)

    def test_outside_rect_rejected(self, unit):
        with pytest.raises(cq.DomainError):
            cq.eval_phi(cq.CompositeTrapezoidPhi(unit, cq.PartitionSpec(unit, 1, 1)), 1.5, 0.5)

    def test_custom_reduces_to_product(self, unit):
        w = cq.CustomPhi(lambda x: -unit.m2 * x + unit.m1 * unit.m2,
                         lambda y: -unit.m1 * y, unit)
        ref = cq.CompositeTrapezoidPhi(unit, cq.PartitionSpec(unit, 1, 1))
        for x, y in ((0.2, 0.7), (0.0, 1.0), (0.5, 0.5)):
            assert cq.eval_phi(w, x, y) == pytest.approx(cq.eval_phi(ref, x, y), abs=1e-15)


def _probe_axis(breaks, lo, hi):
    """Every break, every midpoint between two breaks and a uniform grid, sorted."""
    breaks = np.asarray(breaks)
    return np.unique(np.concatenate((breaks, 0.5 * (breaks[:-1] + breaks[1:]), np.linspace(lo, hi, 17))))


class TestSingleEvaluator:
    """``eval_grid`` is the one evaluator: ``eval_phi`` and every piece's phi agree with it."""

    @pytest.mark.parametrize("rect", RECT_SET, ids=[str(i) for i in range(len(RECT_SET))])
    def test_eval_grid_eval_phi_and_pieces_agree(self, rect):
        custom = cq.CustomPhi(lambda s: 0.25 * (s - rect.a) ** 2 - rect.m2 * s,
                              lambda t: rect.m1 * (rect.m2 - t), rect)
        for w in make_variants(rect) + [custom]:
            pieces = w.pieces()
            X = _probe_axis(getattr(w, "x_breaks", [rect.a, rect.b]), rect.a, rect.b)
            Y = _probe_axis(getattr(w, "y_breaks", [rect.c, rect.d]), rect.c, rect.d)
            grid = w.eval_grid(X[:, None], Y[None, :])
            assert grid.shape == (X.size, Y.size)
            scalar = np.array([[cq.eval_phi(w, x, y) for y in Y] for x in X])
            assert np.array_equal(grid, scalar), type(w).__name__
            area = 0.0
            for xlo, xhi, ylo, yhi, phi in pieces:
                xs = X[(X > xlo) & (X < xhi)][:, None]
                ys = Y[(Y > ylo) & (Y < yhi)][None, :]
                assert xs.size and ys.size
                assert np.array_equal(phi(xs, ys), w.eval_grid(xs, ys)), type(w).__name__
                area += (xhi - xlo) * (yhi - ylo)
            assert area == pytest.approx(rect.area, rel=1e-14)


class TestBoundaryVanishing:
    @pytest.mark.parametrize("composite", [False, True])
    def test_thousand_random_boundary_points(self, composite):
        rng = np.random.default_rng(42)
        rect = cq.Rectangle(-2.0, 3.0, 1.0, 4.0)
        w = cq.CompositeMidpointPhi(rect, cq.PartitionSpec(rect, 3, 2) if composite else
                                    cq.PartitionSpec(rect, 1, 1))
        for _ in range(1000):
            edge = rng.integers(4)
            t = rng.uniform()
            if edge == 0:
                x, y = rect.a, rect.c + t * rect.height
            elif edge == 1:
                x, y = rect.b, rect.c + t * rect.height
            elif edge == 2:
                x, y = rect.a + t * rect.width, rect.c
            else:
                x, y = rect.a + t * rect.width, rect.d
            assert cq.eval_phi(w, x, y) == 0.0


class TestClosedNorms:
    def test_psi_values(self, sym):
        w = cq.CompositeTrapezoidPhi(sym, cq.PartitionSpec(sym, 1, 1))
        assert cq.phi_norm_closed(w, 2) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert cq.phi_norm_closed(w, 1) == pytest.approx(1.0, rel=1e-14)
        assert cq.phi_norm_closed(w, cq.INF) == pytest.approx(1.0, rel=1e-14)

    def test_composite_midpoint_unit_q1(self, unit):
        w = cq.CompositeMidpointPhi(unit, cq.PartitionSpec(unit, 1, 1))
        # 4 * (int_0^(1/2) x dx)^2 = 4 * (1/8)^2
        assert cq.phi_norm_closed(w, 1) == pytest.approx(4.0 * (1.0 / 8.0) ** 2, rel=1e-14)

    def test_custom_unsupported(self, sym):
        w = cq.CustomPhi(lambda x: 0.0 * x, lambda y: 0.0 * y, sym)
        with pytest.raises(cq.UnsupportedVariantError):
            cq.phi_norm_closed(w, 2)

    def test_scaling_covariance(self):
        # mapping [-1,1]^2 -> rect multiplies the q-norm by
        # (W/2)^(1+1/q) (H/2)^(1+1/q)
        sym, rect = cq.Rectangle.symmetric(), cq.Rectangle(0.0, 3.0, -1.0, 1.5)
        base = cq.phi_norm_closed(cq.CompositeTrapezoidPhi(sym, cq.PartitionSpec(sym, 1, 1)), 3)
        scale = (rect.width / 2.0) ** (1 + 1 / 3.0) * (rect.height / 2.0) ** (1 + 1 / 3.0)
        w = cq.CompositeTrapezoidPhi(rect, cq.PartitionSpec(rect, 1, 1))
        assert cq.phi_norm_closed(w, 3) == pytest.approx(base * scale, rel=1e-13)

    @pytest.mark.parametrize("norm", [cq.phi_norm_closed, cq.phi_norm_numeric],
                             ids=["closed", "numeric"])
    def test_non_weight_rejected(self, norm):
        with pytest.raises(cq.UnsupportedVariantError, match="object"):
            norm(object(), 2)


class TestNumericAudit:
    @pytest.mark.parametrize("rect", RECT_SET, ids=[str(i) for i in range(len(RECT_SET))])
    def test_closed_vs_numeric_across_variants(self, rect):
        for w in make_variants(rect):
            for q in Q_GRID:
                closed = cq.phi_norm_closed(w, q)
                numeric = cq.phi_norm_numeric(w, q, resolution=128)
                assert abs(closed - numeric) <= 1e-6 * (1.0 + closed), (
                    type(w).__name__, q, closed, numeric)

    def test_numeric_examples(self, sym):
        one = cq.PartitionSpec(sym, 1, 1)
        assert cq.phi_norm_numeric(cq.CompositeTrapezoidPhi(sym, one), 2, 256) == pytest.approx(
            2.0 / 3.0, abs=1e-8)
        assert cq.phi_norm_numeric(cq.CompositeMidpointPhi(sym, one), cq.INF) == pytest.approx(
            1.0, abs=1e-12)
        psi = cq.CustomPhi(lambda s: 0.0 * s, lambda t: 0.0 * t, sym)
        assert cq.phi_norm_numeric(psi, 1) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("weight", [cq.CompositeTrapezoidPhi, cq.CompositeMidpointPhi],
                             ids=["trapezoid", "midpoint"])
    def test_too_narrow_axis_refused_by_name(self, weight):
        # the refusal names the rectangle's axis, not one of its ramp pieces
        rect = cq.Rectangle(1e9, 1e9 + 1e-6, 0.0, 1.0)
        w = weight(rect, cq.PartitionSpec(rect, 4, 4))
        with pytest.raises(ValueError, match=r"interval \[1000000000.0, 1000000000.000001\] is too narrow"):
            cq.phi_norm_numeric(w, 2)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_panels_below_the_merge_tolerance_refused(self, a):
        # 1e-13 wide at m = 4: the ramp pieces clear the merge tolerance, but
        # their panels, a quarter of a piece, do not ([1, 1 + 1e-13] used to
        # come out 4.0e-4 relative off the closed form)
        rect = cq.Rectangle(a, a + 1e-13, 0.0, 1.0)
        w = cq.CompositeTrapezoidPhi(rect, cq.PartitionSpec(rect, 4, 4))
        with pytest.raises(ValueError, match=r"too narrow for quadrature: panels of 1/32 .* at least 3.058e-13"):
            cq.phi_norm_numeric(w, 2)

    def test_resolution_validated(self, sym):
        with pytest.raises(ValueError):
            w = cq.CompositeTrapezoidPhi(sym, cq.PartitionSpec(sym, 1, 1))
            cq.phi_norm_numeric(w, 2, resolution=4)


def _custom_trapezoid(rect):
    """The corner-product weight written as xy + alpha(x) + beta(y)."""
    return cq.CustomPhi(lambda x: -rect.m2 * x + rect.m1 * rect.m2, lambda y: -rect.m1 * y, rect)


class TestCustomNumericNorm:
    # at q = 1e6 the power sum must factor out max|phi|: without it
    # |phi|^q underflows to 0 when max|phi| < 1 and overflows when > 1
    @pytest.mark.parametrize("rect", [cq.Rectangle.unit(), cq.Rectangle(0.0, 4.0, 0.0, 4.0)],
                             ids=["unit", "four"])
    def test_huge_q_matches_trapezoid(self, rect):
        custom = cq.phi_norm_numeric(_custom_trapezoid(rect), 1e6)
        w = cq.CompositeTrapezoidPhi(rect, cq.PartitionSpec(rect, 1, 1))
        builtin = cq.phi_norm_numeric(w, 1e6)
        assert custom == pytest.approx(builtin, rel=1e-4)

    def test_nonfinite_weight_rejected_at_every_q(self, unit):
        w = cq.CustomPhi(lambda x: np.where(x > 0.5, np.nan, 0.0), lambda y: 0.0 * y, unit)
        for q in (2, cq.INF):
            with pytest.raises(cq.EvaluationError):
                cq.phi_norm_numeric(w, q)

    @pytest.mark.parametrize("rect", [cq.Rectangle(1.0, 1.0 + 2e-14, 0.0, 1.0),
                                      cq.Rectangle(0.0, 1.0, 1.0, 1.0 + 2e-14)], ids=["x", "y"])
    def test_too_narrow_rectangle_refused_before_sampling(self, rect):
        calls = []

        def recorded(t):
            calls.append(np.size(t))
            return 0.0 * t

        w = cq.CustomPhi(recorded, recorded, rect)
        with pytest.raises(ValueError, match=r"\[1.0, 1.00000000000002\] is too narrow for quadrature"):
            cq.phi_norm_numeric(w, 2)
        assert calls == []

    def test_custom_rule_near_p_one_keeps_area_term(self, unit):
        f = cq.get_entry("poly22").integrand(unit)
        report = cq.custom_phi_rule(f, _custom_trapezoid(unit), unit, 1 + 1e-6)
        assert report.fxy_term > 0.0


@given(
    st.floats(min_value=-0.99, max_value=0.99),
    st.floats(min_value=-0.99, max_value=0.99),
)
def test_custom_phi_matches_definition(x, y):
    sym = cq.Rectangle.symmetric()
    w = cq.CustomPhi(lambda s: np.asarray(s) ** 2, lambda t: -3.0 * np.asarray(t), sym)
    assert cq.eval_phi(w, x, y) == pytest.approx(x * y + x**2 - 3.0 * y, rel=1e-12, abs=1e-12)
