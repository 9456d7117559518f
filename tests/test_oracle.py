from dataclasses import replace

import numpy as np
import pytest

import certquad as cq
import certquad.oracle as oracle_mod
from certquad.gauss import panel_nodes, uniform_grid
from conftest import integrand


class TestOracleIntegrate:
    def test_poly22_without_exact(self, unit):
        f = cq.Integrand(f=lambda x, y: x**2 * y**2)
        value, err = cq.oracle_integrate(f, unit)
        assert value == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert err < 1e-12

    def test_constant(self):
        rect = cq.Rectangle(0, 2, 0, 3)
        value, _ = cq.oracle_integrate(cq.Integrand(f=lambda x, y: 1.0 + 0 * x), rect)
        assert value == pytest.approx(6.0, abs=1e-12)

    def test_sinsin(self):
        rect = cq.Rectangle(0.0, np.pi, 0.0, np.pi)
        value, _ = cq.oracle_integrate(cq.Integrand(f=lambda x, y: np.sin(x) * np.sin(y)), rect)
        assert value == pytest.approx(4.0, abs=1e-10)

    def test_exact_integral_overrides(self, unit):
        f = cq.Integrand(f=lambda x, y: x * y, exact_integral=0.25)
        assert cq.oracle_integrate(f, unit) == (0.25, 0.0)

    def test_tolerance_validated(self, unit):
        with pytest.raises(ValueError):
            cq.oracle_integrate(cq.Integrand(f=lambda x, y: x), unit, target_tol=1e-14)

    def test_nan_tolerance_refused_before_sampling(self, unit):
        # NaN passes a `tol < 1e-13` test, and no refinement delta is ever below it
        calls = []
        f = cq.Integrand(f=lambda x, y: calls.append(1) or np.sin(x) * np.sin(y))
        with pytest.raises(ValueError, match="target_tol must be >= 1e-13, got nan"):
            cq.oracle_integrate(f, unit, target_tol=float("nan"))
        assert calls == []

    def test_budget_grid_fits_in_128_mib(self):
        # the last grid of the budget: 16 nodes per panel on each axis, 8 bytes a sample
        assert (16 * oracle_mod.MAX_PANELS_PER_AXIS) ** 2 * 8 <= 2**27

    def test_self_consistency(self, unit):
        f = cq.Integrand(f=lambda x, y: np.exp(x) * np.cos(4 * y))
        v1, e1 = cq.oracle_integrate(f, unit, 1e-9)
        v2, _ = cq.oracle_integrate(f, unit, 1e-13)
        assert abs(v2 - v1) <= max(e1, 1e-13)

    def test_quadrature_matches_registry_exact(self, unit):
        # every registry integrand carries exact_integral, which makes
        # oracle_integrate skip its quadrature; check the quadrature itself
        for rect in (unit, cq.Rectangle(-0.2, 1.3, 0.1, 0.8)):
            for name in cq.names():
                entry = cq.get_entry(name)
                exact = entry.exact(rect)
                f = replace(entry.integrand(rect), exact_integral=None)
                value, err = cq.oracle_integrate(f, rect)
                assert abs(value - exact) <= err + 1e-12 * (1.0 + abs(exact)), (
                    name, rect, value, exact, err)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (2.0, 5.0), (-7.5, -3.0), (1e3, 1e3 + 2.0)])
    def test_mapped_panels_match_panel_nodes(self, a, b):
        # every panel count maps its cached panels of [0, 1] onto the axis;
        # on these axes the uniform grids are exact in binary, so panels built
        # on the axis itself carry no rounding of their own either
        rtol = 4.0 * np.finfo(float).eps
        for n in [2**j for j in range(11)]:
            u, w = oracle_mod._unit_panels(n)
            assert not (u.flags.writeable or w.flags.writeable)
            x, wx = panel_nodes(uniform_grid(a, b, n + 1), 16)
            assert np.allclose(a + (b - a) * u, x, rtol=rtol, atol=0.0)
            assert np.allclose((b - a) * w, wx, rtol=rtol, atol=0.0)
        # the oracle samples exactly those nodes
        seen = []

        def f(x, y):
            seen.append((x.ravel().copy(), y.ravel().copy()))
            return np.cos(x) * np.exp(-y * y)

        cq.oracle_integrate(cq.Integrand(f=f), cq.Rectangle(a, b, -1.0, 2.0))
        for level, (x, y) in enumerate(seen):
            u, _ = oracle_mod._unit_panels(2**level)
            assert np.array_equal(x, a + (b - a) * u) and np.array_equal(y, -1.0 + 3.0 * u)

    @pytest.mark.parametrize("rect", [cq.Rectangle(0.1, 1.3, -0.7, 0.4), cq.Rectangle(2.0, 5.0, -7.5, -3.0)])
    def test_mapped_panels_keep_the_registry_closed_forms(self, rect):
        for name in cq.names():
            entry = cq.get_entry(name)
            if not entry.domain_ok(rect):
                continue
            exact = entry.exact(rect)
            value, err = cq.oracle_integrate(replace(entry.integrand(rect), exact_integral=None), rect)
            assert abs(value - exact) <= err + 1e-12 * (1.0 + abs(exact)), (name, value, exact, err)

    @pytest.mark.parametrize("h", [1e-6, 1e-9])
    @pytest.mark.parametrize("name", ["sinsin", "sinsum", "expsum"])
    def test_closed_forms_keep_their_digits_on_small_rectangles(self, name, h):
        # differences of cosines or exponentials cancel here; the product forms do not
        rect = cq.Rectangle(1.0, 1.0 + h, 2.0, 2.0 + h)
        f = cq.get_entry(name).integrand(rect)
        value, _ = cq.oracle_integrate(replace(f, exact_integral=None), rect)
        assert f.exact_integral == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_smooth_integrand_converges_at_two_panels(self, unit):
        # the dyadic ladder starts at one panel of 16 x 16 nodes: a smooth
        # integrand's one- and two-panel sums already agree
        sizes = []

        def f(x, y):
            sizes.append(np.broadcast(x, y).size)
            return np.sin(x) * np.sin(y)

        value, err = cq.oracle_integrate(cq.Integrand(f=f), unit)
        assert sizes == [256, 1024]
        assert value == pytest.approx((1.0 - np.cos(1.0)) ** 2, abs=1e-14)
        assert err < 1e-12

    def test_budget_exhaustion_carries_best_value(self, unit, monkeypatch):
        import certquad.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "MAX_PANELS_PER_AXIS", 8)
        jump = cq.Integrand(f=lambda x, y: np.where(x + y > 0.7, 1.0, 0.0))
        with pytest.raises(cq.QuadratureConvergenceError) as err:
            cq.oracle_integrate(jump, unit, 1e-12)
        assert err.value.best_value == pytest.approx(0.755, abs=0.05)


SMOOTH = ("xy", "poly22", "cubes", "sinsin", "expsum", "sinsum")


class TestPartsIdentity:
    def test_poly22_trapezoid(self, unit):
        w = cq.CompositeTrapezoidPhi(unit, cq.PartitionSpec(unit, 1, 1))
        res = cq.parts_identity_residual(integrand("poly22", unit), w, unit)
        assert res <= 1e-8

    def test_zero_function(self, unit):
        zero = cq.Integrand(
            f=lambda x, y: 0.0 * x, fx=lambda x, y: 0.0 * x,
            fy=lambda x, y: 0.0 * x, fxy=lambda x, y: 0.0 * x,
            exact_integral=0.0,
        )
        w = cq.CompositeMidpointPhi(unit, cq.PartitionSpec(unit, 1, 1))
        assert cq.parts_identity_residual(zero, w, unit) == 0.0

    def test_expsum_midpoint_seams(self, unit):
        w = cq.CompositeMidpointPhi(unit, cq.PartitionSpec(unit, 1, 1))
        res = cq.parts_identity_residual(integrand("expsum", unit), w, unit)
        assert res <= 1e-8

    @pytest.mark.parametrize("name", SMOOTH)
    @pytest.mark.parametrize("rect_id", [0, 1])
    def test_residual_matrix(self, name, rect_id, unit):
        rect = unit if rect_id == 0 else cq.Rectangle(-1.0, 2.0, 0.5, 2.5)
        f = integrand(name, rect)
        lhs, _ = cq.oracle_integrate(f, rect)
        one, part = cq.PartitionSpec(rect, 1, 1), cq.PartitionSpec(rect, 2, 2)
        for w in (
            cq.CompositeTrapezoidPhi(rect, one),
            cq.CompositeMidpointPhi(rect, one),
            cq.CompositeTrapezoidPhi(rect, part),
        ):
            res = cq.parts_identity_residual(f, w, rect)
            assert res <= 1e-8 * (1.0 + abs(lhs)), (name, type(w).__name__, res)

    def test_custom_phi_admissible(self, unit):
        w = cq.CustomPhi(lambda x: np.sin(x), lambda y: y**3, unit)
        f = integrand("sinsin", unit)
        lhs, _ = cq.oracle_integrate(f, unit)
        assert cq.parts_identity_residual(f, w, unit, resolution=128) <= 1e-8 * (1 + abs(lhs))

    def test_missing_partials_rejected(self, unit):
        bare = cq.Integrand(f=lambda x, y: x * y)
        with pytest.raises(cq.ConfigurationError):
            w = cq.CompositeTrapezoidPhi(unit, cq.PartitionSpec(unit, 1, 1))
            cq.parts_identity_residual(bare, w, unit)

    def test_sides_exposed(self, unit):
        w = cq.CompositeTrapezoidPhi(unit, cq.PartitionSpec(unit, 1, 1))
        lhs, rhs = cq.parts_identity_sides(integrand("xy", unit), w, unit)
        assert lhs == pytest.approx(0.25)
        assert rhs == pytest.approx(0.25)

    def test_nonfinite_partial_raises_with_coordinate(self, unit):
        # f_x of x y is NaN on a strip around x = 0.37, which the bottom edge
        # integral samples first: the error carries the first NaN it returned
        seen = []

        def fx(x, y):
            x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            out = np.where(np.abs(x - 0.37) < 0.01, np.nan, y)
            if not seen and np.isnan(out).any():
                i = int(np.argmax(np.isnan(out).ravel()))
                seen.append((float(x.flat[i]), float(y.flat[i])))
            return out

        f = cq.Integrand(f=lambda x, y: x * y, fx=fx, fy=lambda x, y: x + 0.0 * y,
                         fxy=lambda x, y: 1.0 + 0.0 * x * y)
        w = cq.CompositeTrapezoidPhi(unit, cq.PartitionSpec(unit, 1, 1))
        with pytest.raises(cq.EvaluationError) as err:
            cq.parts_identity_sides(f, w, unit)
        assert err.value.coordinate == seen[0]
        assert err.value.coordinate[1] == 0.0 and abs(err.value.coordinate[0] - 0.37) < 0.01
