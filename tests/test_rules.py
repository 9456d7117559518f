import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import certquad as cq
from certquad.core import FAMILIES
from certquad.rules import _jump_bound
from certquad.weights import ramp_jumps, ramp_norm_closed
from conftest import integrand

P_GRID = (1, 1.5, 2, 3, cq.INF)


def bundle(name, rect, p, family="trapezoid", part=None, resolution=128):
    return cq.derivative_norms(
        integrand(name, rect), rect, p, partition=part, rule_family=family,
        resolution=resolution,
    )


class TestEstimates:
    def test_trapezoid(self, unit):
        r23 = cq.Rectangle(0, 2, 0, 3)
        one, one23 = cq.PartitionSpec(unit, 1, 1), cq.PartitionSpec(r23, 1, 1)
        est = cq.composite_trapezoid_estimate
        assert est(integrand("one", r23), r23, one23) == pytest.approx(6.0)
        assert est(integrand("xy", unit), unit, one) == pytest.approx(0.25)
        assert est(integrand("poly22", unit), unit, one) == pytest.approx(0.25)

    def test_midpoint(self, unit):
        r23 = cq.Rectangle(0, 2, 0, 3)
        one, one23 = cq.PartitionSpec(unit, 1, 1), cq.PartitionSpec(r23, 1, 1)
        est = cq.composite_midpoint_estimate
        assert est(integrand("one", r23), r23, one23) == pytest.approx(6.0)
        assert est(integrand("poly22", unit), unit, one) == pytest.approx(1.0 / 16.0)
        assert est(integrand("xy", unit), unit, one) == pytest.approx(0.25)

    def test_composite_midpoint(self, unit):
        part = cq.PartitionSpec(unit, 2, 2)
        f = integrand("poly22", unit)
        expect = 0.25 * sum(
            (a * b) ** 2 for a in (0.25, 0.75) for b in (0.25, 0.75))
        assert cq.composite_midpoint_estimate(f, unit, part) == pytest.approx(expect)

    def test_composite_trapezoid_exact_for_bilinear(self, unit):
        part = cq.PartitionSpec(unit, 2, 2)
        assert cq.composite_trapezoid_estimate(integrand("xy", unit), unit, part) == (
            pytest.approx(0.25, abs=1e-15))

    def test_composite_constant_exactness(self, unit):
        # the cell-summed corner rule integrates constants exactly
        part = cq.PartitionSpec(unit, 2, 3)
        one = integrand("one", unit)
        assert cq.composite_trapezoid_estimate(one, unit, part) == pytest.approx(1.0, abs=1e-15)

    def test_nonfinite_corner(self, unit):
        bad = cq.Integrand(f=lambda x, y: np.where(x > 0.5, np.inf, 1.0))
        with pytest.raises(cq.EvaluationError):
            cq.composite_trapezoid_estimate(bad, unit, cq.PartitionSpec(unit, 1, 1))

    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
        st.floats(0.1, 4), st.floats(0.1, 4),
    )
    def test_linear_span_exactness_random(self, c0, c1, c2, c3, w, h):
        # estimates reproduce integrals of span{1, x, y, xy} exactly
        rect = cq.Rectangle(-1.0, -1.0 + w, 2.0, 2.0 + h)
        f = cq.Integrand(f=lambda x, y: c0 + c1 * x + c2 * y + c3 * x * y)
        exact = (
            c0 * rect.area
            + c1 * 0.5 * (rect.b**2 - rect.a**2) * rect.height
            + c2 * 0.5 * (rect.d**2 - rect.c**2) * rect.width
            + c3 * 0.25 * (rect.b**2 - rect.a**2) * (rect.d**2 - rect.c**2)
        )
        scale = 1.0 + abs(exact)
        one = cq.PartitionSpec(rect, 1, 1)
        assert abs(cq.composite_trapezoid_estimate(f, rect, one) - exact) <= 1e-11 * scale
        assert abs(cq.composite_midpoint_estimate(f, rect, one) - exact) <= 1e-11 * scale


class TestSimpleBounds:
    # a simple rule is its composite rule on the 1 x 1 partition
    def test_trapezoid_sup_example(self, unit):
        one = cq.PartitionSpec(unit, 1, 1)
        nb = bundle("poly22", unit, cq.INF)
        comps = cq.composite_trapezoid_bound(nb, unit, one)
        assert comps.total == pytest.approx(0.75, abs=1e-9)
        est = cq.composite_trapezoid_estimate(integrand("poly22", unit), unit, one)
        actual = abs(est - 1.0 / 9.0)
        assert actual == pytest.approx(5.0 / 36.0, abs=1e-12)
        assert actual <= comps.total

    def test_midpoint_sup_example(self, unit):
        one = cq.PartitionSpec(unit, 1, 1)
        nb = bundle("poly22", unit, cq.INF, family="midpoint")
        comps = cq.composite_midpoint_bound(nb, unit, one)
        assert comps.total == pytest.approx(0.5, abs=1e-9)
        est = cq.composite_midpoint_estimate(integrand("poly22", unit), unit, one)
        assert abs(est - 1.0 / 9.0) == pytest.approx(7.0 / 144.0, abs=1e-12)

    def test_xy_sup_bounds(self, unit):
        one = cq.PartitionSpec(unit, 1, 1)
        nb = bundle("xy", unit, cq.INF)
        assert cq.composite_trapezoid_bound(nb, unit, one).total == pytest.approx(0.3125, abs=1e-9)
        nbm = bundle("xy", unit, cq.INF, family="midpoint")
        assert cq.composite_midpoint_bound(nbm, unit, one).total == pytest.approx(0.3125, abs=1e-9)

    def test_zero_norms_zero_bound(self, unit):
        one = cq.PartitionSpec(unit, 1, 1)
        nb = cq.DerivativeNorms(p=cq.INF, family="trapezoid", partition=one,
                                fxy=0.0, x_lines=(0, 0), y_lines=(0, 0))
        assert cq.composite_trapezoid_bound(nb, unit, one).total == 0.0

    def test_plain_exponent_bundle(self, unit):
        # a bundle built with p = 1 as a plain number bounds like Exponent(1),
        # midline note included
        one = cq.PartitionSpec(unit, 1, 1)
        lines = dict(family="midpoint", partition=one, fxy=1.25, x_lines=(0.5,), y_lines=(2.0,))
        plain = cq.composite_midpoint_bound(cq.DerivativeNorms(p=1, **lines), unit, one)
        typed = cq.composite_midpoint_bound(
            cq.DerivativeNorms(p=cq.Exponent(1), **lines), unit, one)
        assert plain == typed
        assert plain.notes == (cq.rules.NOTE_MIDLINE_P1,)

    def test_family_mismatch_rejected(self, unit):
        nb = bundle("xy", unit, cq.INF, family="midpoint")
        with pytest.raises(cq.NormMismatchError):
            cq.composite_trapezoid_bound(nb, unit, cq.PartitionSpec(unit, 1, 1))

    def test_partition_mismatch_rejected(self, unit):
        part = cq.PartitionSpec(unit, 2, 2)
        nb = bundle("xy", unit, 2, part=part)
        with pytest.raises(cq.NormMismatchError):
            cq.composite_trapezoid_bound(nb, unit, cq.PartitionSpec(unit, 1, 1))
        with pytest.raises(cq.NormMismatchError):
            cq.composite_trapezoid_bound(nb, unit, cq.PartitionSpec(unit, 4, 4))

    def test_rectangle_mismatch_rejected(self):
        # sinsin's bundle on [0, 0.01]^2 would bound its trapezoid error on
        # [0, 3]^2 (3.92) by 0.027
        small, large = cq.Rectangle(0.0, 0.01, 0.0, 0.01), cq.Rectangle(0.0, 3.0, 0.0, 3.0)
        nb = bundle("sinsin", small, 2)
        with pytest.raises(cq.NormMismatchError, match="Rectangle"):
            cq.composite_trapezoid_bound(nb, large, cq.PartitionSpec(large, 1, 1))
        one = cq.PartitionSpec(small, 1, 1)
        assert cq.composite_trapezoid_bound(nb, small, one).total == cq.rule_report(
            integrand("sinsin", small), small, "trapezoid", 2, resolution=128).bound


class TestCompositeBounds:
    def test_reduction_bit_for_bit(self, unit):
        # the simple rules by name are the composite bounds on 1 x 1
        f = integrand("expsum", unit)
        part = cq.PartitionSpec(unit, 1, 1)
        for p in P_GRID:
            simple = cq.rule_report(f, unit, "trapezoid", p, resolution=128)
            comp = cq.composite_trapezoid_bound(bundle("expsum", unit, p), unit, part)
            assert (simple.fx_term, simple.fy_term, simple.fxy_term) == (
                comp.fx_term, comp.fy_term, comp.fxy_term)
            simple_m = cq.rule_report(f, unit, "midpoint", p, resolution=128)
            nbm = bundle("expsum", unit, p, family="midpoint")
            comp_m = cq.composite_midpoint_bound(nbm, unit, part)
            assert (simple_m.fx_term, simple_m.fy_term, simple_m.fxy_term) == (
                comp_m.fx_term, comp_m.fy_term, comp_m.fxy_term)

    def test_composite_trapezoid_sup_certificate(self, unit):
        part = cq.PartitionSpec(unit, 2, 2)
        f = integrand("poly22", unit)
        nb = bundle("poly22", unit, cq.INF, part=part)
        # S_x = 0 + 2*||2x*0.25||_inf + ||2x||_inf = 0 + 1 + 2 = 3 -> 3/32 each
        comps = cq.composite_trapezoid_bound(nb, unit, part)
        assert comps.fx_term == pytest.approx(3.0 / 32.0, abs=1e-9)
        assert comps.fy_term == pytest.approx(3.0 / 32.0, abs=1e-9)
        assert comps.fxy_term == pytest.approx(4.0 / 64.0, abs=1e-9)
        err = abs(cq.composite_trapezoid_estimate(f, unit, part) - 1.0 / 9.0)
        assert err <= comps.total

    def test_composite_midpoint_sup_certificate(self, unit):
        part = cq.PartitionSpec(unit, 2, 2)
        f = integrand("poly22", unit)
        nb = bundle("poly22", unit, cq.INF, family="midpoint", part=part)
        comps = cq.composite_midpoint_bound(nb, unit, part)
        err = abs(cq.composite_midpoint_estimate(f, unit, part) - 1.0 / 9.0)
        assert err <= comps.total

    def test_fxy_term_scales_exactly(self, unit):
        f = integrand("sinsum", unit)
        prev = None
        for n in (1, 2, 4, 8):
            part = cq.PartitionSpec(unit, n, n)
            nb = cq.derivative_norms(f, unit, 2, partition=part, rule_family="midpoint",
                                     resolution=64)
            term = cq.composite_midpoint_bound(nb, unit, part).fxy_term
            if prev is not None:
                assert prev / term == pytest.approx(4.0, abs=1e-9)
            prev = term

    def test_bound_branch_continuity(self, unit):
        part = cq.PartitionSpec(unit, 2, 2)
        for name in ("expsum", "sinsin"):
            for family, op in (
                ("trapezoid", cq.composite_trapezoid_bound),
                ("midpoint", cq.composite_midpoint_bound),
            ):
                big = op(bundle(name, unit, 1e6, family=family, part=part), unit, part).total
                inf = op(bundle(name, unit, cq.INF, family=family, part=part), unit, part).total
                assert abs(big - inf) <= 1e-3 * inf
                near1 = op(bundle(name, unit, 1 + 1e-6, family=family, part=part), unit, part).total
                one = op(bundle(name, unit, 1, family=family, part=part), unit, part).total
                assert abs(near1 - one) <= 1e-3 * one

    def test_bound_terms_pinned_to_coefficient_table(self):
        # every bound term against the per-family coefficient table the
        # bounds were first written with; distinct line norms make each
        # line's weight show, and m != n separates the two axes
        rect = cq.Rectangle(-0.5, 1.5, 0.25, 3.25)
        W, H = rect.width, rect.height
        for m, n in ((1, 1), (2, 3), (5, 2)):
            part = cq.PartitionSpec(rect, m, n)
            for p in map(cq.Exponent.coerce, P_GRID):
                e = 2.0 - p.reciprocal
                C = cq.holder_coefficient(p)
                fxy_coef = W**e * H**e * C * C / (4.0 * m * n)
                xl = tuple(np.sqrt(np.arange(2.0, n + 3.0)))
                yl = tuple(np.log(np.arange(3.0, m + 4.0)))
                nb = cq.DerivativeNorms(
                    p=p, family="trapezoid", partition=part, fxy=1.7, x_lines=xl, y_lines=yl,
                )
                sx = xl[0] + 2.0 * sum(xl[1:-1]) + xl[-1]
                sy = yl[0] + 2.0 * sum(yl[1:-1]) + yl[-1]
                want = (
                    sx * H * W**e * C / (4.0 * m * n),
                    sy * W * H**e * C / (4.0 * m * n),
                    1.7 * fxy_coef,
                )
                comps = cq.composite_trapezoid_bound(nb, rect, part)
                got = (comps.fx_term, comps.fy_term, comps.fxy_term)
                assert got == pytest.approx(want, rel=1e-13, abs=0), ("trapezoid", m, n, p)

                nb = cq.DerivativeNorms(
                    p=p, family="midpoint", partition=part, fxy=1.7, x_lines=xl[:n], y_lines=yl[:m],
                )
                want = (
                    sum(xl[:n]) * H * W**e * C / (2.0 * m * n),
                    sum(yl[:m]) * W * H**e * C / (2.0 * m * n),
                    1.7 * fxy_coef,
                )
                comps = cq.composite_midpoint_bound(nb, rect, part)
                got = (comps.fx_term, comps.fy_term, comps.fxy_term)
                assert got == pytest.approx(want, rel=1e-13, abs=0), ("midpoint", m, n, p)

    def test_provenance_notes(self, unit):
        part = cq.PartitionSpec(unit, 2, 2)
        nb = bundle("xy", unit, 1, family="midpoint", part=part)
        comps = cq.composite_midpoint_bound(nb, unit, part)
        joined = " ".join(comps.notes)
        assert "midline" in joined
        assert "m=n=1 reduction" in joined


class TestJumpBoundLineSums:
    """``_jump_bound`` adds its line terms v_l |J_l| with ``np.cumsum``: bit
    for bit the ``sum()`` of the terms, left to right, kept here as the
    reference."""

    @staticmethod
    def summed(norms, part, family):
        """(fx_term, fy_term) with the line sums as ``sum()`` adds them."""
        q = cq.conjugate(norms.p)
        (_, jx), (_, jy) = ramp_jumps(part, family)
        rx = ramp_norm_closed(part.rect.width, part.m, q)
        ry = ramp_norm_closed(part.rect.height, part.n, q)
        return (float(sum(v * abs(j) for v, j in zip(norms.x_lines, jy))) * rx,
                float(sum(v * abs(j) for v, j in zip(norms.y_lines, jx))) * ry)

    @staticmethod
    def norms(p, family, part, x_lines, y_lines):
        return cq.DerivativeNorms(p=p, family=family, partition=part, fxy=1.3, x_lines=x_lines, y_lines=y_lines)

    @pytest.mark.parametrize("p", [1, 2, cq.INF])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_sum(self, family, p):
        rng = np.random.default_rng(20)
        rect = cq.Rectangle(-0.3, 1.1, 0.2, 1.9)
        extra = 1 if family == "trapezoid" else 0
        order_shows = 0
        for m in range(1, 65):
            part = cq.PartitionSpec(rect, m, m)
            # line norms over twelve decades, so the order of the additions shows in the last bits
            x_lines, y_lines = (tuple(10.0 ** rng.uniform(-6.0, 6.0, m + extra)) for _ in range(2))
            nb = self.norms(p, family, part, x_lines, y_lines)
            comps = _jump_bound(nb, part, family)
            assert (comps.fx_term, comps.fy_term) == self.summed(nb, part, family), m
            (_, jx), _ = ramp_jumps(part, family)
            terms = [v * abs(j) for v, j in zip(y_lines, jx)]
            order_shows += sum(terms) != sum(reversed(terms))
        assert order_shows > 10

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_zero_lines_give_positive_zero(self, family, zero):
        rect = cq.Rectangle(0.0, 2.0, 0.0, 1.0)
        extra = 1 if family == "trapezoid" else 0
        for m in (1, 2, 7):
            part = cq.PartitionSpec(rect, m, m)
            nb = self.norms(2, family, part, (zero,) * (m + extra), (zero,) * (m + extra))
            comps = _jump_bound(nb, part, family)
            for term in (comps.fx_term, comps.fy_term):
                assert term == 0.0 and math.copysign(1.0, term) == 1.0
            assert (comps.fx_term, comps.fy_term) == self.summed(nb, part, family)


class TestRuleReport:
    def test_matches_named_functions(self, unit):
        f = integrand("sinsin", unit)
        part = cq.PartitionSpec(unit, 2, 3)
        nb = bundle("sinsin", unit, 2, family="midpoint", part=part, resolution=256)
        report = cq.rule_report(f, unit, "composite-midpoint", 2, part)
        comps = cq.composite_midpoint_bound(nb, unit, part)
        assert report.estimate == cq.composite_midpoint_estimate(f, unit, part)
        assert (report.fx_term, report.fy_term, report.fxy_term, report.notes) == (
            comps.fx_term, comps.fy_term, comps.fxy_term, comps.notes)
        simple = cq.rule_report(f, unit, "trapezoid", 2, part)
        one = cq.PartitionSpec(unit, 1, 1)
        assert simple.estimate == cq.composite_trapezoid_estimate(f, unit, one)
        assert (simple.partition.m, simple.partition.n) == (1, 1)

    def test_validation(self, unit):
        f = integrand("xy", unit)
        with pytest.raises(ValueError, match="needs a partition"):
            cq.rule_report(f, unit, "composite-trapezoid", 2)
        with pytest.raises(ValueError, match="unknown rule"):
            cq.rule_report(f, unit, "simpson", 2)
        with pytest.raises(ValueError, match="different rectangle"):
            wide = cq.Rectangle(0, 2, 0, 1)
            cq.rule_report(f, unit, "composite-midpoint", 2, cq.PartitionSpec(wide, 2, 2))


class TestBenchmarkEntryPoints:
    # bench/workloads.py calls these by keyword and position, and its tracer
    # skips a missing name without error, so a rename would go unnoticed there
    @pytest.mark.parametrize("family", ["trapezoid", "midpoint"])
    def test_composite_signatures(self, family):
        estimate = getattr(cq.rules, f"composite_{family}_estimate")
        bound = getattr(cq.rules, f"composite_{family}_bound")
        assert list(inspect.signature(estimate).parameters) == ["f", "rect", "part"]
        assert list(inspect.signature(bound).parameters) == ["norms", "rect", "part"]

    def test_derivative_norms_keywords(self):
        params = inspect.signature(cq.norms.derivative_norms).parameters
        assert list(params)[:3] == ["f", "rect", "p"]
        assert {"partition", "rule_family"} <= set(params)


class TestUniformBounds:
    def test_simple_example(self, unit):
        ub = cq.UniformBounds(1.0, 1.0)
        assert cq.uniform_bound("trapezoid", ub, unit) == pytest.approx(0.5625)
        assert cq.uniform_bound("midpoint", ub, unit) == pytest.approx(0.5625)

    def test_zero(self, unit):
        assert cq.uniform_bound("trapezoid", cq.UniformBounds(0, 0), unit) == 0.0

    def test_composite_trapezoid_line_count(self, unit):
        # the jump bound: sum of |J_y| over the 3 lines is H, so M H W^2 / (4m) per axis
        part = cq.PartitionSpec(unit, 2, 2)
        got = cq.uniform_bound("composite-trapezoid", cq.UniformBounds(1, 0), unit, part)
        assert got == pytest.approx(1.0 / 8.0 + 1.0 / 8.0)

    @pytest.mark.parametrize("rect", [cq.Rectangle(0, 1, 0, 1), cq.Rectangle(-0.3, 2.0, 0.5, 0.75)])
    @pytest.mark.parametrize("M,N", [(1.0, 0.0), (1.0, 1.0), (0.3, 2.5)])
    def test_composite_reduces_to_simple(self, rect, M, N):
        ub = cq.UniformBounds(M, N)
        part = cq.PartitionSpec(rect, 1, 1)
        for family in ("trapezoid", "midpoint"):
            simple = cq.uniform_bound(family, ub, rect)
            assert cq.uniform_bound(f"composite-{family}", ub, rect, part) == simple

    def test_composite_midpoint_corrected_n_term(self, unit):
        part = cq.PartitionSpec(unit, 2, 2)
        got = cq.uniform_bound("composite-midpoint", cq.UniformBounds(0, 1), unit, part)
        assert got == pytest.approx(1.0 / 64.0)

    def test_validation(self, unit):
        with pytest.raises(ValueError):
            cq.uniform_bound("composite-trapezoid", cq.UniformBounds(1, 1), unit)
        with pytest.raises(ValueError):
            cq.uniform_bound("simpson", cq.UniformBounds(1, 1), unit)

    def test_dominates_norm_bound(self, unit):
        # the M/N bound can never be tighter than the norm-based bound
        f = integrand("sinsum", unit)
        ub = cq.UniformBounds(np.sqrt(2.0), 1.0)
        for rule in ("composite-trapezoid", "composite-midpoint"):
            for n in (1, 2, 4):
                part = cq.PartitionSpec(unit, n, n)
                norm_based = cq.rule_report(f, unit, rule, cq.INF, part, resolution=64).bound
                assert cq.uniform_bound(rule, ub, unit, part) >= norm_based - 1e-12, (rule, n)


class TestCustomPhiRule:
    def test_matches_trapezoid_for_its_alpha_beta(self, unit):
        w = cq.CustomPhi(lambda x: -unit.m2 * x + unit.m1 * unit.m2,
                         lambda y: -unit.m1 * y, unit)
        f = integrand("expsum", unit)
        one = cq.PartitionSpec(unit, 1, 1)
        report = cq.custom_phi_rule(f, w, unit, cq.INF, resolution=96)
        trap = cq.composite_trapezoid_estimate(f, unit, one)
        assert report.estimate == pytest.approx(trap, rel=1e-13)
        err = abs(report.estimate - f.exact_integral)
        assert err <= report.bound
        # the five-term bound with these phi norms reproduces the
        # dedicated trapezoid coefficients
        nb = cq.derivative_norms(f, unit, cq.INF, resolution=96)
        trap_bound = cq.composite_trapezoid_bound(nb, unit, one).total
        assert report.bound == pytest.approx(trap_bound, rel=1e-6)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, cq.INF])
    def test_fxy_term_covers_the_exact_weight_norm(self, unit, p):
        # the weight's area norm enters inflated by its error estimate, so the
        # f_xy term is not below ||f_xy||_p times the weight's exact norm
        w = cq.CustomPhi(lambda x: -unit.m2 * x + unit.m1 * unit.m2,
                         lambda y: -unit.m1 * y, unit)
        report = cq.custom_phi_rule(integrand("poly22", unit), w, unit, p)
        trap = cq.CompositeTrapezoidPhi(unit, cq.PartitionSpec(unit, 1, 1))
        exact = cq.phi_norm_closed(trap, cq.conjugate(cq.Exponent.coerce(p)))
        assert report.fxy_term >= report.norms_used.fxy * exact

    def test_plain_xy_corner_combination(self, unit):
        w = cq.CustomPhi(lambda x: 0.0 * x, lambda y: 0.0 * y, unit)
        f = integrand("one", unit)
        report = cq.custom_phi_rule(f, w, unit, 2, resolution=96)
        assert report.estimate == pytest.approx(1.0)

    def test_zero_integrand(self, unit):
        w = cq.CustomPhi(lambda x: 0.0 * x, lambda y: 0.0 * y, unit)
        zero = cq.Integrand(
            f=lambda x, y: 0.0 * x, fx=lambda x, y: 0.0 * x,
            fy=lambda x, y: 0.0 * x, fxy=lambda x, y: 0.0 * x,
        )
        report = cq.custom_phi_rule(zero, w, unit, 2, resolution=96)
        assert report.estimate == 0.0
        assert report.bound == 0.0

    def test_builtin_rejected(self, unit):
        with pytest.raises(cq.UnsupportedVariantError):
            w = cq.CompositeTrapezoidPhi(unit, cq.PartitionSpec(unit, 1, 1))
            cq.custom_phi_rule(integrand("one", unit), w, unit, 2)


class TestOneDimensionalRules:
    def test_trapezoid_linear_exact(self):
        est, bound = cq.trapezoid_1d(lambda x: x, (0.0, 1.0), 2, 1.0)
        assert est == pytest.approx(0.5)
        assert bound >= 0.0

    def test_trapezoid_sup_branch(self):
        est, bound = cq.trapezoid_1d(lambda x: x * x, (0.0, 1.0), cq.INF, 2.0)
        assert bound == pytest.approx(0.5)
        assert abs(est - 1.0 / 3.0) == pytest.approx(1.0 / 6.0)
        assert abs(est - 1.0 / 3.0) <= bound

    def test_trapezoid_zero_norm(self):
        _, bound = cq.trapezoid_1d(lambda x: 1.0, (0.0, 2.0), 1, 0.0)
        assert bound == 0.0

    def test_midpoint_linear_exact(self):
        est, _ = cq.midpoint_1d(lambda x: x, (0.0, 1.0), 2, 1.0)
        assert est == pytest.approx(0.5)

    def test_midpoint_sup_branch(self):
        # bound = ||g'||_inf * ||omega||_1 with ||omega||_1 = (b-a)^2/4
        est, bound = cq.midpoint_1d(lambda x: x * x, (0.0, 1.0), cq.INF, 2.0)
        assert est == pytest.approx(0.25)
        assert bound == pytest.approx(2.0 * 0.25)
        assert abs(est - 1.0 / 3.0) == pytest.approx(1.0 / 12.0)
        assert abs(est - 1.0 / 3.0) <= bound

    def test_midpoint_omega_norm_numeric_cross_check(self):
        # ||omega||_q from the formula equals direct quadrature of the ramp
        for p in (1, 1.5, 2, 3, cq.INF):
            q = cq.conjugate(p)
            _, bound = cq.midpoint_1d(lambda x: x, (0.0, 1.0), p, 1.0)
            omega = lambda x, y: np.where(x < 0.5, x, x - 1.0)
            (direct,), _ = cq.line_norms_with_error(omega, "x", [0.0], 0.0, 1.0, q, resolution=256)
            assert bound == pytest.approx(direct, rel=1e-9)

    def test_midpoint_zero_norm(self):
        _, bound = cq.midpoint_1d(lambda x: 1.0, (0.0, 2.0), 2, 0.0)
        assert bound == 0.0

    @pytest.mark.parametrize("rule", [cq.trapezoid_1d, cq.midpoint_1d])
    @pytest.mark.parametrize("norm", [-1.0, float("nan"), float("inf")])
    def test_bad_norm_rejected(self, rule, norm):
        with pytest.raises(ValueError):
            rule(lambda x: x, (0.0, 1.0), 2, norm)
