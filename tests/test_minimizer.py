import numpy as np
import pytest

import certquad as cq
from certquad.minimizer import AlphaBetaBasis, _NormObjective


class TestClosedMinimum:
    def test_values(self):
        assert cq.min_phi_norm_value(2) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert cq.min_phi_norm_value(cq.INF) == 1.0
        assert cq.min_phi_norm_value(3) == pytest.approx(0.5 ** (2.0 / 3.0), rel=1e-12)
        assert cq.min_phi_norm_value(1) == pytest.approx(1.0)

    def test_matches_corner_product_norm(self, sym):
        # the claimed minimum is exactly the norm of the corner-product weight
        for q in (1.5, 2, 3, 4):
            assert cq.min_phi_norm_value(q) == pytest.approx(
                cq.phi_norm_closed(cq.TrapezoidPhi(sym), q), rel=1e-13)


class TestBasis:
    def test_default_dimension(self):
        basis = AlphaBetaBasis()
        assert basis.per_axis == 6
        assert basis.size == 12

    def test_requires_even_and_odd(self):
        with pytest.raises(ValueError):
            AlphaBetaBasis(even_terms=(), odd_terms=(lambda s: s,))

    def test_build_phi(self, sym):
        basis = AlphaBetaBasis()
        c = np.zeros(12)
        c[1] = 2.0  # alpha += 2 s^2 (even terms 0..2, odd 3..5)
        c[10] = -1.0  # beta -= t^3 (beta block 6..11, odd from 9)
        w = basis.build_phi(c)
        assert cq.eval_phi(w, 0.5, 0.5) == pytest.approx(0.25 + 0.5 - 0.125)

    def test_coefficient_length_checked(self):
        basis = AlphaBetaBasis()
        with pytest.raises(ValueError):
            basis.build_phi(np.zeros(5))


class TestSearch:
    @pytest.mark.parametrize("q", [1.5, 2, 3])
    def test_unique_minimizer_found(self, q):
        res = cq.search_min(q, restarts=3, seed=0)
        assert abs(res.achieved_norm - cq.min_phi_norm_value(q)) <= 1e-6
        assert max(abs(v) for v in res.coefficients) <= 1e-4

    def test_every_restart_respects_lower_bound(self):
        for q in (1.5, 2, 3, 4):
            res = cq.search_min(q, restarts=3, seed=1)
            for r in res.restarts:
                assert r.norm >= cq.min_phi_norm_value(q) - 1e-6

    def test_zero_coefficient_start_stays_at_minimum(self):
        basis = AlphaBetaBasis(coefficients=tuple([0.0] * 12))
        res = cq.search_min(2, basis=basis, restarts=1, seed=0)
        assert res.achieved_norm == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_nonconvergence_raises_with_best_iterate(self):
        # q = 2 is quadratic and converges in two Newton steps, so the
        # budget is starved at q = 3
        with pytest.raises(cq.SearchFailureError) as err:
            cq.search_min(3, restarts=1, seed=0, max_sweeps=1)
        assert err.value.best_coefficients is not None

    def test_q1_minimum_value_only(self):
        # no uniqueness assertion at q = 1; the value still matches
        res = cq.search_min(1, restarts=2, seed=0)
        assert res.achieved_norm == pytest.approx(1.0, abs=1e-4)


class TestDualityCertificate:
    @pytest.mark.parametrize("q", [1.5, 2, 3, 7])
    def test_dual_function_certifies_lower_bound(self, q):
        # g = |st|^(q-1) sgn(st) / ||st||_q^(q-1) has ||g||_p = 1 and is odd
        # in each variable, so int (alpha + beta) g = 0 and Holder gives
        # ||phi||_q >= int phi g = ||st||_q for every admissible phi
        basis = AlphaBetaBasis()
        objective = _NormObjective(basis, q)
        st = objective.outer
        psi_norm = float(objective.w @ np.abs(st) ** q @ objective.w) ** (1.0 / q)
        g = np.abs(st) ** (q - 1.0) * np.sign(st) / psi_norm ** (q - 1.0)
        p = q / (q - 1.0)
        assert abs(float(objective.w @ np.abs(g) ** p @ objective.w) - 1.0) <= 1e-12
        rng = np.random.default_rng(0)
        for _ in range(20):
            phi = objective.phi(rng.uniform(-1.0, 1.0, basis.size))
            assert abs(float(objective.w @ (phi * g) @ objective.w) - psi_norm) <= 1e-12


class TestInfinityNonUniqueness:
    def test_two_distinct_functions_reach_one(self, sym):
        psi = cq.CustomPhi(lambda s: 0.0 * s, lambda t: 0.0 * t, sym)
        alt = cq.CustomPhi(lambda s: -np.abs(s), lambda t: np.abs(t), sym)
        n1 = cq.phi_norm_numeric(psi, cq.INF)
        n2 = cq.phi_norm_numeric(alt, cq.INF)
        assert n1 == pytest.approx(1.0, abs=1e-6)
        assert n2 == pytest.approx(1.0, abs=1e-6)
        # genuinely different functions (they agree wherever |s| = |t|)
        assert cq.eval_phi(psi, 0.8, 0.2) != cq.eval_phi(alt, 0.8, 0.2)

    def test_scaled_family_members(self, sym):
        # st + u|s|^v - u|t|^v keeps unit sup norm when u v <= 1 (the edge
        # value t + u - u t^v stays monotone on s = 1)
        for u, v in ((0.5, 1.0), (0.5, 2.0)):
            w = cq.CustomPhi(
                lambda s, u=u, v=v: u * np.abs(s) ** v,
                lambda t, u=u, v=v: -u * np.abs(t) ** v,
                sym,
            )
            assert cq.phi_norm_numeric(w, cq.INF) == pytest.approx(1.0, abs=1e-6)


class TestMinimizerMapsToTrapezoidWeight:
    def test_affine_transfer_to_general_rect(self):
        # the found minimizer (= st on the normalized square) transfers to
        # the corner-product weight on any rectangle: its numeric norm
        # matches the scaled closed form on a non-square rectangle
        res = cq.search_min(2, restarts=2, seed=0)
        rect = cq.Rectangle(0.0, 3.0, -1.0, 0.5)
        q = 2.0
        scale = (rect.width / 2) ** (1 + 1 / q) * (rect.height / 2) ** (1 + 1 / q)
        target = cq.phi_norm_closed(cq.TrapezoidPhi(rect), q)
        assert res.achieved_norm * scale == pytest.approx(target, rel=1e-6)
        numeric = cq.phi_norm_numeric(cq.TrapezoidPhi(rect), q, 256)
        assert numeric == pytest.approx(target, rel=1e-9)


class TestObjectiveGrid:
    @pytest.mark.parametrize("fine", [False, True])
    def test_grid_is_mirror_symmetric_bit_for_bit(self, fine):
        basis = AlphaBetaBasis()
        objective = _NormObjective(basis, 2.0, fine)
        x = objective.terms[:, len(basis.even_terms)]  # the odd term s is the node itself
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(objective.w, objective.w[::-1])
        assert np.all(np.diff(x) > 0.0)


class TestQ2Identity:
    def test_random_draws(self):
        assert cq.verify_q2_identity(samples=12, seed=3) <= 1e-8

    def test_explicit_examples(self):
        basis = AlphaBetaBasis()
        # alpha(s) = s^2, beta(t) = -t^2
        c1 = np.zeros(12)
        c1[1], c1[7] = 1.0, -1.0
        # alpha(s) = s, beta(t) = t^3
        c2 = np.zeros(12)
        c2[3], c2[10] = 1.0, 1.0
        assert cq.verify_q2_identity(coefficient_sets=[c1, c2]) <= 1e-8

    def test_zero_draw_is_exact(self):
        assert cq.verify_q2_identity(coefficient_sets=[np.zeros(12)]) == 0.0
