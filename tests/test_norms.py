import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import certquad as cq
from certquad.core import FAMILIES
from certquad import gauss
from certquad.gauss import (
    as_grid_fn,
    as_vector_fn,
    graded_nodes,
    line_coords,
    merge_breaks,
    panel_nodes,
    segment_p_norms,
)
from certquad.norms import partial_evaluators
from certquad.weights import ramp_jumps
from conftest import (RECT_SET, UNIT, area_norm, integrand, line_breaks, line_norms, tensor_norms,
                      two_pass_area_norm, variation_lines)


def one_line(g, lo, hi, p, fixed=0.0, axis="x", **kw):
    """Value and error estimate of the one-line ``line_norms`` call."""
    values, errors = line_norms(g, axis, [fixed], lo, hi, p, **kw)
    return float(values[0]), float(errors[0])


class TestLineNorm:
    def test_constant(self):
        assert one_line(lambda x, y: np.ones_like(x), 0.0, 1.0, 2)[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("q", [1.5, 2, 3])
    def test_identity_ramp(self, q):
        # ||t||_q on [-1, 1] = (2/(q+1))^(1/q)
        expect = (2.0 / (q + 1.0)) ** (1.0 / q)
        assert one_line(lambda x, y: x, -1.0, 1.0, q)[0] == pytest.approx(expect, rel=1e-10)

    def test_sup_norm(self):
        # f_x of x^2 y^2 along y = 0.5
        value, _ = one_line(lambda x, y: 2.0 * x * y**2, 0.0, 1.0, cq.INF, fixed=0.5)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_interior_sign_change(self):
        # int_0^pi |cos| = 2
        assert one_line(lambda x, y: np.cos(x), 0.0, np.pi, 1)[0] == pytest.approx(2.0, rel=1e-11)

    def test_nonfinite_raises_with_coordinate(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(cq.EvaluationError) as err:
                one_line(lambda x, y: 1.0 / (x - 0.5), 0.0, 1.0, cq.INF, resolution=16)
        assert err.value.coordinate is not None

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            one_line(lambda x, y: x, 0.0, 1.0, 2, resolution=8)

    def test_huge_p_close_to_sup(self):
        sup, _ = one_line(lambda x, y: np.sin(x), 0.0, np.pi, cq.INF)
        near, _ = one_line(lambda x, y: np.sin(x), 0.0, np.pi, 1e6)
        assert near <= sup + 1e-12
        assert near == pytest.approx(sup, rel=1e-4)


class TestAreaNorm:
    def test_constant(self, unit):
        assert area_norm(lambda x, y: 1.0 + 0 * x + 0 * y, unit, 3)[0] == pytest.approx(
            1.0, rel=1e-12)

    def test_sup(self, unit):
        assert area_norm(lambda x, y: 4.0 * x * y, unit, cq.INF)[0] == pytest.approx(
            4.0, abs=1e-12)

    def test_bilinear_l1(self, sym):
        assert area_norm(lambda x, y: x * y, sym, 1)[0] == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("p", [1, 1.5])
    def test_axis_aligned_kinks(self, p):
        # |cos x cos y|^p has kink lines at x = pi/2 and y = pi/2; the
        # expected value comes from an independent 1D adaptive quadrature
        # of the separable factor.
        from scipy.integrate import quad

        rect = cq.Rectangle(0.0, np.pi, 0.0, np.pi)
        got = area_norm(lambda x, y: np.cos(x) * np.cos(y), rect, p)[0]
        factor, _ = quad(lambda t: abs(np.cos(t)) ** p, 0.0, np.pi, limit=200)
        expect = (factor * factor) ** (1.0 / p)
        assert got == pytest.approx(expect, rel=1e-8)


class TestAreaLadder:
    """The area norm stops at the first two rungs of its ladder that agree.

    Rungs 0, 1 and 2 are tensor passes graded 3, 4 and 5 levels deep; an
    escalated report is the two-pass (4, 5)-level norm (``two_pass_area_norm``)
    bit for bit, an accepted one rung 1, within rounding of it.
    """

    @pytest.fixture
    def rungs(self, monkeypatch):
        """The number of ``tensor_p_norm`` passes of the last area norm."""
        out = [0]
        sample = cq.norms.tensor_p_norm

        def counted(*args):
            out[0] += 1
            return sample(*args)

        monkeypatch.setattr(cq.norms, "tensor_p_norm", counted)
        return out

    @pytest.mark.parametrize("name, p", [("sinsin", 1.5), ("poly22", 1.5), ("sinsum", 1), ("sinsum", 1.5),
                                         ("sinsum", 3)])
    def test_escalated_norm_is_the_two_pass_norm(self, rungs, name, p):
        rect = cq.Rectangle(0.0, np.pi, 0.0, np.pi)
        fxy = integrand(name, rect).fxy
        got = area_norm(fxy, rect, p)
        assert rungs[0] == 3
        assert got == two_pass_area_norm(fxy, rect, p)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_accepted_norm_is_within_rounding_of_the_two_pass_norm(self, rungs, p):
        rects = (cq.Rectangle(0.1, 1.3, -0.2, 0.9), cq.Rectangle(0.0, np.pi, 0.0, np.pi),
                 cq.Rectangle(-1.0, 0.5, -0.7, 0.8), UNIT)
        counts = {2: 0, 3: 0}
        for rect in rects:
            for name in cq.names():
                entry = cq.get_entry(name)
                if not entry.domain_ok(rect):
                    continue
                fxy = entry.integrand(rect).fxy
                rungs[0] = 0
                value, error = area_norm(fxy, rect, p)
                ref, ref_error = two_pass_area_norm(fxy, rect, p)
                counts[rungs[0]] += 1
                if rungs[0] == 3:
                    assert (value, error) == (ref, ref_error), (name, rect)
                else:
                    assert abs(value - ref) <= 1e-12 * abs(ref), (name, rect)
                    assert error <= 1e-12 * abs(value) + 1e-15 * abs(value), (name, rect)
        assert counts[2] + counts[3] == 39 and counts[2] > counts[3]

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_zero_stops_at_the_first_pair(self, rungs, p):
        assert area_norm(lambda x, y: 0.0 * x * y, UNIT, p) == (0.0, 0.0)
        assert rungs[0] == 2


class TestDerivativeNorms:
    def test_poly22_sup_trapezoid(self, unit):
        nb = cq.derivative_norms(integrand("poly22", unit), unit, cq.INF)
        (fx_bottom, fx_top), (fy_left, fy_right) = nb.x_lines, nb.y_lines
        assert fx_bottom == pytest.approx(0.0, abs=1e-14)
        assert fx_top == pytest.approx(2.0, abs=1e-10)
        assert fy_left == pytest.approx(0.0, abs=1e-14)
        assert fy_right == pytest.approx(2.0, abs=1e-10)
        assert nb.fxy == pytest.approx(4.0, abs=1e-10)

    def test_constant_all_zero(self, unit):
        nb = cq.derivative_norms(integrand("one", unit), unit, 2)
        assert (*nb.x_lines, *nb.y_lines, nb.fxy) == (0.0,) * 5

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, cq.INF])
    def test_zero_mixed_partial_takes_no_floor(self, unit, p):
        # the area norm's floating-point floor is relative to its value
        nb = cq.derivative_norms(integrand("cubes", unit), unit, p)
        assert nb.fxy == 0.0
        assert max(nb.x_lines) > 0.0

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_fxy_covers_the_deep_grading(self, p):
        # fxy is the (4, 5)-level area norm plus its error estimate: never
        # below the (9, 10)-level grading, good to rounding, of the same scan
        rects = (cq.Rectangle(0.1, 1.3, -0.2, 0.9), cq.Rectangle(0.0, np.pi, 0.0, np.pi),
                 cq.Rectangle(-1.0, 0.5, -0.7, 0.8))
        cases = 0
        for rect in rects:
            for name in cq.names():
                entry = cq.get_entry(name)
                if not entry.domain_ok(rect):
                    continue
                f = entry.integrand(rect)
                deep = tensor_norms(as_grid_fn(f.fxy), rect, float(p), 192, ((9, 1 / 8), (10, 1 / 16)))[1]
                fxy = cq.derivative_norms(f, rect, p).fxy
                assert deep <= fxy <= deep * (1.0 + 1e-5), (name, rect)
                cases += 1
        assert cases == 29

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_lines_cover_the_deep_grading(self, p):
        # every line is the (5, 6)-level line norm plus its error estimate:
        # never below the 12-level grading, good to rounding, of the same
        # breakpoints, less 4 ulps for the reference's own rounding (at p = 1
        # the line is read off f, exact up to rounding)
        rects = (cq.Rectangle(0.1, 1.3, -0.2, 0.9), cq.Rectangle(0.0, np.pi, 0.0, np.pi),
                 cq.Rectangle(-1.0, 0.5, -0.7, 0.8))

        def deep(g, axis, fixed, lo, hi):
            out = []
            for c, breaks in zip(fixed, line_breaks(g, axis, fixed, lo, hi, 256)):
                x, w, _ = graded_nodes([breaks], 12, [(breaks[-1] - breaks[0]) / 16])
                mags = np.abs(g(*line_coords(axis, x, c)))
                out.append(segment_p_norms(mags, w, [x.size], float(p))[0])
            return out

        cases = 0
        for rect in rects:
            part = cq.PartitionSpec(rect, 3, 3)
            (xs, _), (ys, _) = ramp_jumps(part, "trapezoid")
            for name in cq.names():
                entry = cq.get_entry(name)
                if not entry.domain_ok(rect):
                    continue
                f = entry.integrand(rect)
                fx, fy, _, _ = partial_evaluators(f, rect)
                nb = cq.derivative_norms(f, rect, p, partition=part)
                for got, ref in ((nb.x_lines, deep(fx, "x", ys, rect.a, rect.b)),
                                 (nb.y_lines, deep(fy, "y", xs, rect.c, rect.d))):
                    for line, exact in zip(got, ref, strict=True):
                        assert exact - 4.0 * np.spacing(exact) <= line <= exact * (1.0 + 1e-6), (name, rect)
                cases += 1
        assert cases == 29

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, cq.INF])
    @pytest.mark.parametrize("name, partial", [("one", "fx"), ("one", "fy"), ("one", "fxy"), ("cubes", "fxy")])
    def test_zero_partial_lines_take_no_floor(self, unit, p, name, partial):
        # the line norms' floating-point floor is relative to their value too
        g = getattr(integrand(name, unit), partial)
        for axis in ("x", "y"):
            values, errors = line_norms(g, axis, [0.0, 0.25, 1.0], 0.0, 1.0, p)
            assert (*values, *errors) == (0.0,) * 6
        if name == "one":
            nb = cq.derivative_norms(integrand(name, unit), unit, p, partition=cq.PartitionSpec(unit, 4, 4))
            assert (*nb.x_lines, *nb.y_lines) == (0.0,) * 10

    def test_xy_l1(self, unit):
        nb = cq.derivative_norms(integrand("xy", unit), unit, 1)
        assert nb.x_lines[0] == pytest.approx(0.0, abs=1e-14)
        assert nb.x_lines[-1] == pytest.approx(1.0, rel=1e-11)
        assert nb.y_lines[-1] == pytest.approx(1.0, rel=1e-11)
        assert nb.fxy == pytest.approx(1.0, rel=1e-11)

    def test_midpoint_family_midlines(self, unit):
        part = cq.PartitionSpec(unit, 2, 2)
        nb = cq.derivative_norms(integrand("poly22", unit), unit, cq.INF,
                                 partition=part, rule_family="midpoint")
        # ||f_x(., n_j)||_inf = 2 * n_j^2 at x = 1
        assert nb.x_lines == pytest.approx((2 * 0.25**2, 2 * 0.75**2), abs=1e-10)
        assert len(nb.y_lines) == 2

    def test_provenance_flags(self, unit):
        nb = cq.derivative_norms(integrand("poly22", unit), unit, 2)
        assert set(nb.provenance.values()) == {"analytic"}
        bare = cq.Integrand(f=lambda x, y: x * x * y * y)
        nb2 = cq.derivative_norms(bare, unit, 2)
        assert set(nb2.provenance.values()) == {"numeric"}

    def test_cache_keyed_on_rectangle(self, unit):
        wide = cq.Rectangle(0.0, 3.0, 0.0, 1.0)
        f = integrand("sinsin", unit)
        cache = {}
        cq.derivative_norms(f, unit, 2, cache=cache)
        shared = cq.derivative_norms(f, wide, 2, cache=cache)
        fresh = cq.derivative_norms(f, wide, 2)
        assert shared == fresh
        assert fresh.fxy == pytest.approx(1.0199, abs=1e-4)

        def miss(x, y):
            raise AssertionError(f"cache miss at {x}, {y}")

        # a repeat on either rectangle is served from the cache alone
        cached = cq.Integrand(f=f.f, fx=miss, fy=miss, fxy=miss)
        assert cq.derivative_norms(cached, wide, 2, cache=cache) == fresh
        assert cq.derivative_norms(cached, unit, 2, cache=cache) == cq.derivative_norms(f, unit, 2)

    def test_analytic_vs_finite_difference(self, unit):
        for name in ("poly22", "sinsin", "expsum", "invsum"):
            entry = cq.get_entry(name)
            full = entry.integrand(unit)
            bare = cq.Integrand(f=entry.f)
            na = cq.derivative_norms(full, unit, 2, resolution=512)
            nn = cq.derivative_norms(bare, unit, 2, resolution=512)
            for a, b in zip((*na.x_lines, *na.y_lines, na.fxy), (*nn.x_lines, *nn.y_lines, nn.fxy)):
                assert abs(a - b) <= 1e-4 * (1.0 + a), (name, a, b)


class TestRegistryPartials:
    def test_partials_match_centered_differences(self, unit):
        # every registry partial agrees with centered differences of f at
        # interior sample points
        from certquad.norms import finite_difference_partials

        rng = np.random.default_rng(5)
        pts = rng.uniform(0.1, 0.9, size=(24, 2))
        for name in cq.names():
            entry = cq.get_entry(name)
            fdx, fdy, fdxy = finite_difference_partials(entry.f, unit)
            for x, y in pts:
                for exact_fn, approx_fn in ((entry.fx, fdx), (entry.fy, fdy), (entry.fxy, fdxy)):
                    exact = float(np.asarray(exact_fn(x, y)))
                    approx = float(np.asarray(approx_fn(x, y)))
                    assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact)), (name, x, y)


class TestProperties:
    def test_monotone_in_p_on_unit_measure(self, unit):
        # |g| <= 1 on a measure-1 domain: p -> ||g||_p is non-decreasing
        fns = [
            lambda x, y: x * y,
            lambda x, y: np.sin(x) * np.sin(y),
            lambda x, y: x**2 * y**2,
            lambda x, y: 0.5 + 0.5 * x * 0 * y,
            lambda x, y: np.cos(3 * x) * np.cos(2 * y),
        ]
        for g in fns:
            vals = [area_norm(g, unit, p, resolution=96)[0] for p in (1, 1.5, 2, 3, 8)]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])), vals

    def test_refinement_within_error_estimate(self, unit):
        g = lambda x, y: np.exp(x) * np.cos(5 * x)
        v1, err1 = one_line(g, 0.0, 1.0, 1.5, fixed=0.3, resolution=64)
        v2, _ = one_line(g, 0.0, 1.0, 1.5, fixed=0.3, resolution=128)
        assert abs(v2 - v1) <= err1 + 1e-14
        a1, aerr1 = area_norm(lambda x, y: np.exp(x + y), unit, 3, resolution=64)
        a2, _ = area_norm(lambda x, y: np.exp(x + y), unit, 3, resolution=128)
        assert abs(a2 - a1) <= aerr1 + 1e-14


def _scalar_zero_breaks(g, lo, hi, resolution, cap=32):
    """One line, one bracket and one point at a time: the reference for a one-scan ``scan_breaks``.

    A bracket is a pair of neighbouring samples of which one is negative
    and the other not (+-0 counts as not negative).  The first ``cap`` are
    bisected toward a change of the sign of g (-1, 0 or 1) from their left
    end's: a bracket whose left end is nonzero stops at an exact zero, and
    its root is that point, or its right end if that is an exact zero which
    no sample displaced; any other bracket's root is the midpoint of the
    adjacent floats it narrows to.
    """
    gv = as_vector_fn(g)
    xs = np.linspace(lo, hi, resolution + 1)
    vals = gv(xs)
    zeros = []
    neg = vals < 0.0
    for i in np.flatnonzero(neg[:-1] != neg[1:])[:cap]:
        a, b = float(xs[i]), float(xs[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = float(gv(np.asarray([m]))[0])
            if fm == 0.0 and fa != 0.0:
                a = b = m
                break
            if np.sign(fm) == np.sign(fa):
                a, fa = m, fm
            else:
                b, fb = m, fm
        zeros.append(b if fb == 0.0 else 0.5 * (a + b))
    return merge_breaks([lo, hi], zeros)


class TestZeroBreaks:
    SCAN = np.linspace(0.0, 1.0, 257)

    ROOTS = (np.pi * np.arange(1, 42) - 0.3) / (41.0 * np.pi)

    @staticmethod
    def g(x, y):
        # 41 sign changes of sin(41 pi x + 0.3) on every row; exact zeros at
        # 16 scan points on row y = 1 and at 32 on row y = 2; row y = 3 is zero
        # for x < 0.6, more than half its scan
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        scan = TestZeroBreaks.SCAN
        zeroed = (
            ((y == 1.0) & np.isin(x, scan[8::16]))
            | ((y == 2.0) & np.isin(x, scan[4::8]))
            | ((y == 3.0) & (x < 0.6))
        )
        return np.where(zeroed, 0.0, np.sin(41.0 * np.pi * x + 0.3))

    def test_rows_match_scalar_reference(self):
        rows = [0.0, 1.0, 2.0, 3.0]
        ((points, sizes),) = gauss.scan_breaks([(self.g, "x", rows, 0.0, 1.0, 256, True)])
        exhaustive = np.split(points, np.cumsum(sizes)[:-1])
        for y, capped, full in zip(rows, line_breaks(self.g, "x", rows, 0.0, 1.0, 256), exhaustive):
            line = lambda t: self.g(t, y)
            assert np.array_equal(capped, _scalar_zero_breaks(line, 0.0, 1.0, 256)), y
            assert np.array_equal(full, _scalar_zero_breaks(line, 0.0, 1.0, 256, cap=256)), y

    def test_cap_takes_the_first_32_brackets_in_order(self):
        # a capped scan keeps the first 32 brackets of each line in scan order,
        # and its exact zeros take no share of the cap: its breaks are the
        # exhaustive scan's, up to the right end of its 32nd bracket
        rows = [0.0, 1.0, 2.0, 3.0]
        capped = line_breaks(self.g, "x", rows, 0.0, 1.0, 256)
        ((points, sizes),) = gauss.scan_breaks([(self.g, "x", rows, 0.0, 1.0, 256, True)])
        for y, row, full in zip(rows, capped, np.split(points, np.cumsum(sizes)[:-1])):
            neg = self.g(self.SCAN, y) < 0.0
            changes = np.flatnonzero(neg[:-1] != neg[1:])
            if changes.size > 32:
                full = np.append(full[full <= self.SCAN[changes[31] + 1]], 1.0)
            assert np.array_equal(row, full), y
        none, sixteen, thirty_two, zeroed = capped
        # no exact zeros: the first 32 sign changes
        assert np.allclose(none[1:-1], self.ROOTS[:32], rtol=0.0, atol=1e-14)
        # a zero between two negatives closes one bracket and opens the next,
        # both rooted at it, so 32 brackets leave fewer breaks: 6 of the 16
        # exact zeros and 23 roots of the sine, and 9 of the 32 and 18 roots
        for row, zeros, counts in ((sixteen, self.SCAN[8::16], (6, 23)), (thirty_two, self.SCAN[4::8], (9, 18))):
            on_zero = np.isin(row[1:-1], zeros)
            assert (on_zero.sum(), (~on_zero).sum()) == counts
            crossings = row[1:-1][~on_zero]
            assert np.abs(crossings[:, None] - self.ROOTS[None, :]).min(axis=1).max() < 1e-14
        # +-0 up to 0.6, then positive: no bracket before the sign changes past 0.6
        assert np.allclose(zeroed[1:-1], self.ROOTS[24:], rtol=0.0, atol=1e-14)

    def test_exhaustive_scan_keeps_every_sign_change(self):
        # no cap: all 41 sign changes; the row that is +-0 up to 0.6 is of one
        # class up to its first sign change past 0.6, and -g's row is +-0 then
        # negative, so -g also breaks where that row leaves zero, at 0.6
        rows = [0.0, 1.0, 2.0, 3.0]
        ((points, sizes),) = gauss.scan_breaks([(self.g, "x", rows, 0.0, 1.0, 256, True)])
        ((flipped, flipped_sizes),) = gauss.scan_breaks([(lambda x, y: -self.g(x, y), "x", rows, 0.0, 1.0, 256, True)])
        mine, theirs = np.split(points, np.cumsum(sizes)[:-1]), np.split(flipped, np.cumsum(flipped_sizes)[:-1])
        assert np.allclose(mine[0][1:-1], self.ROOTS, rtol=0.0, atol=1e-14)
        assert np.allclose(mine[3][1:-1], self.ROOTS[24:], rtol=0.0, atol=1e-14)
        assert abs(theirs[3][1] - 0.6) <= np.spacing(0.6) and np.array_equal(theirs[3][2:], mine[3][1:])
        # g and -g break alike but within a scan step of an exact zero
        for y, u, v in zip(rows, mine, theirs):
            zeros = self.SCAN[self.g(self.SCAN, y) == 0.0]

            def far(b):
                return b[(np.abs(b[:, None] - zeros[None, :]) > 1.0 / 256).all(axis=1)]

            assert np.array_equal(far(u), far(v)), y
        # a line of +-0 and one whose zero sits between signs break alike, capped
        # or not: x y is +-0 all along y = 0 and changes sign at x = 0 elsewhere
        lines = [(lambda x, y: x * y, "x", [0.0, 0.5, 1.0], -1.0, 1.0, 256)]
        capped, exhaustive = (gauss.scan_breaks([(*scan, flag) for scan in lines]) for flag in (False, True))
        assert all(np.array_equal(u, v) for u, v in zip(capped[0], exhaustive[0]))
        assert np.array_equal(capped[0][0], [-1.0, 1.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0])

    def test_bracket_stops_at_exact_zero(self):
        # the root is the midpoint of its scan bracket: one refinement round,
        # 30 points per bracket, finds it
        calls = []

        def g(x, y):
            calls.append(np.broadcast(x, y).size)
            return np.asarray(y) - 129.0 / 512.0 + 0.0 * np.asarray(x)

        rows = line_breaks(g, "y", [0.25, 0.75], 0.0, 1.0, 256)
        assert all(np.array_equal(r, [0.0, 129.0 / 512.0, 1.0]) for r in rows)
        assert calls == [2 * 257, 2 * 30]

    def test_three_sign_changes_in_one_bracket_give_one(self):
        # all three roots lie in the scan bracket [0.5, 0.5625]
        roots = np.array([0.51, 0.52, 0.53])
        g = lambda x, y: (x - roots[0]) * (x - roots[1]) * (x - roots[2]) + 0.0 * y
        (row,) = line_breaks(g, "x", [0.0], 0.0, 1.0, 16)
        assert row.size == 3
        assert np.abs(row[1] - roots).min() <= 1e-15

    def test_root_to_the_scan_width_guarantee(self):
        # 15 rounds of sixteenths leave 2^-60 of the 2/256 scan step, finer
        # than the float spacing at the root
        calls = []

        def g(x, y):
            calls.append(np.broadcast(x, y).size)
            return np.asarray(x) - 1e-3 + 0.0 * np.asarray(y)

        (row,) = line_breaks(g, "x", [0.0], -1.0, 1.0, 256)
        assert row.size == 3
        assert abs(row[1] - 1e-3) <= max(2.0**-60 * 2.0 / 256, np.spacing(1e-3))
        assert len(calls) <= 1 + 15

    @staticmethod
    def refine(fn, lo, hi, fixed=0.0):
        """The one line's breaks and the number of refinement rounds after the scan."""
        calls = []

        def g(x, y):
            calls.append(1)
            return fn(np.asarray(x, dtype=float)) + 0.0 * np.asarray(y)

        (row,) = line_breaks(g, "x", [fixed], lo, hi, 256)
        return row, len(calls) - 1

    def test_simple_root_in_four_rounds(self):
        # the secant cluster brackets a simple root between adjacent floats in
        # a few rounds, where sixteenths alone take all 15
        row, rounds = self.refine(np.cos, 0.0, np.pi)
        assert row.size == 3 and row[1] == np.pi / 2
        assert rounds <= 4

    def test_jump_within_fifteen_rounds(self):
        # a jump gives the secant nothing to fit: the sixteenths alone bring it
        # down to adjacent floats, the midpoint of which rounds to the lower
        row, rounds = self.refine(lambda x: np.where(x < 0.6123, -1.0, 1.0), 0.0, 1.0)
        assert row.size == 3 and row[1] == 0.6122999999999998 == np.nextafter(0.6123, 0.0)
        assert rounds <= 15

    def test_root_at_zero_is_exact(self):
        # a 2^-60 scan-step bracket around 0 still holds ~1e-21 wide floats;
        # the secant root lands on the exact zero
        row, _ = self.refine(lambda x: 4.0 * x * (0.3 + 0.7), -0.137, 1.2)
        assert row.size == 3 and row[1] == 0.0

    def test_tiny_root_is_exact(self):
        row, _ = self.refine(lambda x: x - 1e-300, -0.5, 0.5)
        assert row.size == 3 and row[1] == 1e-300

    def test_tiny_values_keep_their_sign_change(self):
        # neighbouring samples ~1e-163 apart: their product underflows to -0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = line_breaks(lambda x, y: 1e-160 * (x - 0.3) + 0.0 * y, "x", [0.0], 0.0, 1.0, 256)
        assert row.size == 3 and row[1] == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("zero", [
        lambda x, y: np.copysign(0.0, np.sin(20.0 * x + 7.0 * y)),
        lambda x, y: -0.0 * (x + y),
    ], ids=["mixed-signs", "minus-zero"])
    def test_zero_partial_is_one_shared_set(self, zero):
        # +-0 everywhere: every sample is of the non-negative class, so the
        # scan finds no bracket and refines nothing
        calls = []

        def g(x, y):
            calls.append(np.broadcast(x, y).size)
            return zero(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

        c = np.linspace(-0.2, 0.9, 9)
        ((points, sizes),) = gauss.scan_breaks([(g, "x", c, 0.1, 1.3, 256)])
        assert np.array_equal(points, [0.1, 1.3]) and sizes is None
        assert calls == [9 * 257]
        ref = _per_scan_zero_breaks(g, "x", c, 0.1, 1.3, 256)
        assert all(np.array_equal(r, points) for r in ref)

    def test_huge_values_raise_no_overflow_warning(self):
        # exp(x + y) near x = 700: the products of neighbours overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = line_breaks(lambda x, y: np.exp(x + y), "x", [1.0], 700.0, 701.0, 256)
        assert np.array_equal(row, [700.0, 701.0])


def _per_scan_zero_breaks(g, axis, fixed, lo, hi, resolution):
    """One scan's search alone, its sampling then its refinement: the reference for ``scan_breaks``.

    A bracket is a pair of neighbouring samples of which one is negative and
    the other not (+-0 counts as not negative); each of a line's first 32 is
    narrowed to the first change of the sign of g (-1, 0 or 1) from its left
    end's, and stops at an exact zero that is such a change.
    """
    c = np.asarray(fixed, dtype=float).ravel()
    if c.size == 0:
        return []
    t = gauss.uniform_grid(lo, hi, resolution + 1)
    coords = line_coords(axis, t[None, :], c[:, None])
    vals = g(*coords)
    low, high = vals.min(), vals.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        gauss.require_finite(vals, coords)
    if (low >= 0.0 or high < 0.0) and hi - lo > gauss.merge_tol(lo, hi):
        return list(np.tile([float(lo), float(hi)], (c.size, 1)))
    neg = vals < 0.0
    rows, idx = np.nonzero(neg[:, :-1] != neg[:, 1:])
    if rows.size == 0 and hi - lo > gauss.merge_tol(lo, hi):
        return list(np.tile([float(lo), float(hi)], (c.size, 1)))
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    keep = rank < 32
    rows, idx = rows[keep], idx[keep]
    a, b, fa, fb, line_of = t[idx], t[idx + 1], vals[rows, idx], vals[rows, idx + 1], c[rows]
    narrowest = 2.0**-60 * (hi - lo) / resolution
    zeros = np.empty(rows.size)
    live = np.arange(rows.size)
    for _ in range(15):
        if live.size == 0:
            break
        w = b - a
        with np.errstate(over="ignore", invalid="ignore"):
            r = a - fa * w / (fb - fa)
        r = np.where(np.isnan(r), 0.5 * (a + b), r)
        cluster = np.clip(r[:, None] + w[:, None] * gauss._CLUSTER, a[:, None], b[:, None])
        x = np.concatenate((a[:, None] + w[:, None] * gauss._SIXTEENTHS, cluster), axis=1)
        x.sort(axis=1)
        fs = g(*line_coords(axis, x, line_of[:, None]))
        flip = np.sign(fs) != np.sign(fa)[:, None]
        k = np.where(flip.any(axis=1), np.argmax(flip, axis=1), 30)
        n = np.arange(live.size)
        right = np.minimum(k, 29)
        hit = (k < 30) & (fs[n, right] == 0.0)
        a, fa = np.where(k > 0, x[n, k - 1], a), np.where(k > 0, fs[n, k - 1], fa)
        b, fb = np.where(k < 30, x[n, right], b), np.where(k < 30, fs[n, right], fb)
        narrow = ~hit & ((b - a <= narrowest) | (b <= np.nextafter(a, np.inf)))
        zeros[live[hit]] = b[hit]
        zeros[live[narrow]] = 0.5 * (a[narrow] + b[narrow])
        more = ~(hit | narrow)
        live, a, b, fa, fb, line_of = live[more], a[more], b[more], fa[more], fb[more], line_of[more]
    zeros[live] = 0.5 * (a + b)
    lines = np.arange(c.size)
    line = np.concatenate((lines, lines, rows))
    point = np.concatenate((np.full(c.size, float(lo)), np.full(c.size, float(hi)), zeros))
    order = np.lexsort((point, line))
    line, point = line[order], point[order]
    keep = np.empty(point.size, dtype=bool)
    keep[0] = True
    keep[1:] = (np.diff(point) > gauss.merge_tol(lo, hi)) | (line[1:] != line[:-1])
    point = point[keep]
    bounds = np.searchsorted(line[keep], lines, side="right").tolist()
    return [point[a:b] for a, b in zip([0, *bounds], bounds)]


def _per_scan_area_breaks(g, rect, scan):
    """Both axes of a rectangle, each searched alone and its two lines merged: the reference for ``area_breaks``."""
    offsets = np.asarray([0.155, -0.237])
    bx = merge_breaks(*_per_scan_zero_breaks(g, "x", rect.m2 + offsets * rect.height, rect.a, rect.b, scan))
    by = merge_breaks(*_per_scan_zero_breaks(g, "y", rect.m1 + offsets * rect.width, rect.c, rect.d, scan))
    return [bx, by]


class TestReportSearch:
    """A report's scans, f_xy's two axes at 192 and the lines at 256, run in
    one ``scan_breaks`` bracket search find, bit for bit, the breaks of one
    search per scan (``_per_scan_zero_breaks``; ``_per_scan_area_breaks`` for
    the merged axes), with the same integrand calls per scan: their count
    and their coordinates, only interleaved across scans."""

    @staticmethod
    def recorded(fn, calls):
        def g(x, y):
            calls.append(np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
            return fn(x, y)

        return g

    def check(self, area, lines, rect=UNIT):
        """Compare both searches on f_xy = ``area`` (or None) over rect and the line scans; the reference's breaks."""
        scans = ([] if area is None else gauss.area_scans(area, rect, 192)) + lines
        mine, theirs = [[] for _ in scans], [[] for _ in scans]
        found = gauss.scan_breaks([(self.recorded(g, rec), *rest) for (g, *rest), rec in zip(scans, mine)])
        refs = []
        for (g, axis, fixed, lo, hi, res), rec, (points, sizes) in zip(scans, theirs, found):
            ref = _per_scan_zero_breaks(self.recorded(g, rec), axis, fixed, lo, hi, res)
            got = [points] * len(ref) if sizes is None else np.split(points, np.cumsum(sizes)[:-1])
            assert len(got) == len(ref)
            assert all(np.array_equal(u, v) for u, v in zip(got, ref))
            assert sizes is not None or all(r.size == 2 for r in ref)
            refs.append(ref)
        for s in range(len(scans) - len(lines)):
            assert np.array_equal(gauss.axis_breaks(found[s]), merge_breaks(*refs[s]))
        if area is not None:
            merged = _per_scan_area_breaks(area, rect, 192)
            assert all(np.array_equal(u, v) for u, v in zip(gauss.area_breaks(area, rect, 192), merged))
        for got, ref in zip(mine, theirs):
            assert len(got) == len(ref)
            for (gx, gy), (rx, ry) in zip(got, ref):
                assert np.array_equal(gx, rx) and np.array_equal(gy, ry)
        return refs

    @staticmethod
    def report_lines(f, rect, m, family="trapezoid"):
        """The f_x and f_y line scans of an m x m report."""
        fx, fy, _, _ = partial_evaluators(f, rect)
        (xs, _), (ys, _) = ramp_jumps(cq.PartitionSpec(rect, m, m), family)
        return [(fx, "x", ys, rect.a, rect.b, 256), (fy, "y", xs, rect.c, rect.d, 256)]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sinsum_brackets_everywhere(self, family):
        rect = cq.Rectangle(0.1, np.pi + 0.1, 0.0, np.pi)
        f = integrand("sinsum", rect)
        refs = self.check(partial_evaluators(f, rect)[2], self.report_lines(f, rect, 8, family), rect)
        # both area axes and every line have a zero
        assert all(r.size > 2 for ref in refs for r in ref)

    def test_steep_lines(self):
        x0 = 0.5 + 0.5 / 256

        def g(x, y):
            return np.tanh((np.asarray(x) - x0) / 1e-4) * (1.0 + np.asarray(y))

        c = np.linspace(0.0, 1.0, 9)
        refs = self.check(g, [(g, "x", c, 0.0, 1.0, 256), (lambda x, y: g(y, x), "y", c, 0.0, 1.0, 256)])
        # one zero on every line and on f_xy's x axis; none along its y axis
        assert all(r.size == 3 for ref in refs[:1] + refs[2:] for r in ref)
        assert all(r.size == 2 for r in refs[1])

    def test_exact_zeros_degenerate_lines_and_the_cap(self):
        # TestZeroBreaks.g's rows: 41 sign changes, 16 and 32 exact zeros, and
        # a row of +-0 over more than half its scan; x y has a line of +-0 at
        # y = 0; exp(x + y) is a sign-definite scan between them
        lines = [
            (TestZeroBreaks.g, "x", [0.0, 1.0, 2.0, 3.0], 0.0, 1.0, 256),
            (lambda x, y: np.exp(x + y), "y", [0.2, 0.7], 0.0, 1.0, 256),
            (lambda x, y: x * y, "x", [0.0, 0.5, 1.0], -1.0, 1.0, 256),
        ]
        refs = self.check(lambda x, y: (x - 0.3) * (y - 0.6), lines)
        # 32 brackets each, the zeros taking no share of the cap, fewer breaks
        # where a zero closes one bracket and opens the next
        assert [r.size - 2 for r in refs[2]] == [32, 29, 27, 41 - 24]
        assert [r.size for r in refs[4]] == [2, 3, 3]

    def test_tiny_rectangle(self):
        rect = cq.Rectangle(0.0, 1e-14, 0.0, 1e-14)
        for name in ("sinsin", "sinsum"):
            f = integrand(name, rect)
            self.check(partial_evaluators(f, rect)[2], self.report_lines(f, rect, 4), rect)

    def test_scans_retire_in_different_rounds(self):
        # the f_xy axes' roots are midpoints of their 193-point scan brackets,
        # exact zeros found in the first round; the lines' jump takes all of
        # their 257-point brackets' rounds
        root = 193.0 / 384.0
        calls = {"area": 0, "jump": 0}

        def area(x, y):
            calls["area"] += 1
            return (x - root) * (y - root)

        def jump(x, y):
            calls["jump"] += 1
            return np.where(np.asarray(x) < 0.6123, -1.0, 1.0) + 0.0 * np.asarray(y)

        refs = self.check(area, [(jump, "x", [0.1, 0.4], 0.0, 1.0, 256)])
        assert all(np.array_equal(r, [0.0, root, 1.0]) for ref in refs[:2] for r in ref)
        # per search and axis a scan and one round (check runs four searches of
        # the axes: both searches, then area_breaks and its reference), the
        # jump a scan and many rounds per search
        assert calls["area"] == 4 * 2 * 2
        assert calls["jump"] > 2 * (1 + 8)

    def test_each_scan_keeps_its_own_widths(self):
        # after f_xy's axes on [0, 1], with their 2^-60 retirement width and
        # merge tolerance, come a jump near 1e-6 on [0, 0.01], whose bracket
        # reaches its own scan's 2^-60 of a 256th before adjacent floats, and
        # a root 5e-12 above lo = 1000, inside that scan's 1e-11 tolerance
        root = 193.0 / 384.0
        lines = [
            (lambda x, y: np.where(np.asarray(x) < 1.2345e-6, -1.0, 1.0) + 0.0 * np.asarray(y),
             "x", [0.5], 0.0, 0.01, 256),
            (lambda x, y: np.asarray(x) - (1000.0 + 5e-12) + 0.0 * np.asarray(y), "x", [0.5], 1000.0, 1001.0, 256),
        ]
        refs = self.check(lambda x, y: (x - root) * (y - root), lines)
        (jump,), (near,) = refs[2:]
        assert jump.size == 3 and abs(jump[1] - 1.2345e-6) < 1e-20
        assert np.array_equal(near, [1000.0, 1001.0])


class TestBatchedLines:
    """derivative_norms batches every line of a partial; each value must equal
    value + error estimate of the one-line ``line_norms`` call of
    that line, or at p = 1 the exact norm read off f plus its floor
    (``variation_lines``)."""

    @staticmethod
    def per_line(f, rect, p, part, family):
        fx, fy, _, _ = partial_evaluators(f, rect)
        (xs, _), (ys, _) = ramp_jumps(part, family)
        if p == 1:
            fv = as_grid_fn(f.f)
            return (tuple(variation_lines(fv, fx, "x", ys, rect.a, rect.b)),
                    tuple(variation_lines(fv, fy, "y", xs, rect.c, rect.d)))
        return (
            tuple(sum(one_line(fx, rect.a, rect.b, p, fixed=y)) for y in ys),
            tuple(sum(one_line(fy, rect.c, rect.d, p, fixed=x, axis="y")) for x in xs),
        )

    def check(self, f, rect, p, m, family):
        part = cq.PartitionSpec(rect, m, m)
        nb = cq.derivative_norms(f, rect, p, partition=part, rule_family=family)
        assert (nb.x_lines, nb.y_lines) == self.per_line(f, rect, p, part, family)
        return nb

    @pytest.mark.parametrize("rect", [UNIT, RECT_SET[4]], ids=["unit", "offset"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, cq.INF])
    def test_registry_matches_per_line(self, rect, family, p):
        for name in cq.names():
            for m in (1, 3, 16):
                self.check(integrand(name, rect), rect, p, m, family)

    @pytest.mark.parametrize("p", [1, 2, cq.INF])
    def test_steep_lines(self, p):
        # a sign change 1e-4 wide on every line, between two scan points: f is
        # L(x) L(y) with L(s) = e log cosh((s - x0)/e), so f_x = tanh((x - x0)/e) L(y)
        # and f_y likewise, as p = 1 reads the line norms off f
        x0, e = 0.5 + 0.5 / 256, 1e-4

        def steep(s):
            return np.tanh((np.asarray(s, dtype=float) - x0) / e)

        def log_cosh(s):  # e log cosh((s - x0)/e), which never overflows
            z = np.abs((np.asarray(s, dtype=float) - x0) / e)
            return e * (z + np.log1p(np.exp(-2.0 * z)) - np.log(2.0))

        f = cq.Integrand(f=lambda x, y: log_cosh(x) * log_cosh(y), fx=lambda x, y: steep(x) * log_cosh(y),
                         fy=lambda x, y: log_cosh(x) * steep(y), fxy=lambda x, y: steep(x) * steep(y))
        for family in FAMILIES:
            self.check(f, UNIT, p, 8, family)

    @pytest.mark.parametrize("case", ["capped", "degenerate"])
    def test_capped_and_degenerate_lines_read_f_exactly(self, case, monkeypatch):
        # f_x = sin(40 pi x) (1 + y) has 39 sign changes on every x-line, past
        # the cap of 32 of a Gauss scan; f_x = (1 + y) times -1, 0 and 1 on
        # [0, 0.2), [0.2, 0.8] and (0.8, 1] is +-0 on most of its scan, with no
        # sign change between neighbouring scan points, where f(1) - f(0) = 0.
        # The exhaustive p = 1 scan breaks wherever f_x passes between negative
        # and not, so the lines read f and equal the closed forms (2/pi)(1 + y)
        # and 0.4 (1 + y); the f_y lines have no zero.  The report builds only
        # the area's 6 entries.
        k = 40.0 * np.pi
        if case == "capped":
            def f(x, y):
                return -np.cos(k * x) / k * (1.0 + y)

            def fx(x, y):
                return np.sin(k * x) * (1.0 + y)
        else:
            def f(x, y):
                return (np.maximum(x - 0.8, 0.0) - np.minimum(x, 0.2)) * (1.0 + y)

            def fx(x, y):
                return np.where(x < 0.2, -1.0, np.where(x > 0.8, 1.0, 0.0)) * (1.0 + y)

        def fy(x, y):
            return f(x, 0.0) + 0.0 * y

        def fxy(x, y):
            return fx(x, 0.0) + 0.0 * y

        entries = []
        graded_nodes = cq.norms.graded_nodes

        def counted(sets, *args, **kwargs):
            entries.append(len(sets))
            return graded_nodes(sets, *args, **kwargs)

        monkeypatch.setattr(cq.norms, "graded_nodes", counted)
        part = cq.PartitionSpec(UNIT, 4, 4)
        (xs, _), (ys, _) = ramp_jumps(part, "trapezoid")
        nb = cq.derivative_norms(cq.Integrand(f=f, fx=fx, fy=fy, fxy=fxy), UNIT, 1, partition=part)
        exact = (2.0 / np.pi if case == "capped" else 0.4) * (1.0 + ys)
        assert np.allclose(nb.x_lines, exact, rtol=1e-14, atol=0.0)
        assert nb.y_lines == tuple(variation_lines(f, fy, "y", xs, 0.0, 1.0))
        assert entries == [6]

    @pytest.mark.parametrize("p", [1.5, 2, 3])
    def test_lines_past_32_sign_changes_cover_the_closed_form(self, p):
        # f_x = sin(40 pi x) (1 + y) has 39 sign changes on every x-line; every
        # line scans exhaustively, so its Gauss passes split at each of them,
        # and each stored line (value plus estimate), and each line of the
        # one-batch view, is at or above the closed form (mean of
        # |sin|^p)^(1/p) (1 + y), good to the passes' grading (~1e-7); a scan
        # capped at 32 sign changes left them 6e-4 below it at p = 3
        k = 40.0 * np.pi

        def fx(x, y):
            return np.sin(k * x) * (1.0 + y)

        f = cq.Integrand(f=lambda x, y: -np.cos(k * x) / k * (1.0 + y), fx=fx,
                         fy=lambda x, y: -np.cos(k * x) / k + 0.0 * y, fxy=lambda x, y: np.sin(k * x) + 0.0 * y)
        part = cq.PartitionSpec(UNIT, 4, 4)
        (_, _), (ys, _) = ramp_jumps(part, "trapezoid")
        mean = math.gamma((p + 1.0) / 2.0) / (math.sqrt(math.pi) * math.gamma(p / 2.0 + 1.0))
        exact = mean ** (1.0 / p) * (1.0 + ys)
        values, errors = line_norms(fx, "x", ys, 0.0, 1.0, p)
        for lines in (np.array(cq.derivative_norms(f, UNIT, p, partition=part).x_lines), values + errors):
            assert np.all(lines >= exact * (1.0 - 1e-14)) and np.all(lines <= exact * (1.0 + 1e-7))

    def test_tiny_rectangle_keeps_its_lines_apart(self):
        # grid lines 6.25e-16 apart: each keeps its own norm, ||f_x(., y)||_inf = sin(y)
        rect = cq.Rectangle(0.0, 1e-14, 0.0, 1e-14)
        nb = self.check(integrand("sinsin", rect), rect, cq.INF, 16, "trapezoid")
        assert len(set(nb.x_lines)) == len(set(nb.y_lines)) == 17

    def test_scalar_only_integrand(self):
        def g(x, y):
            return math.sin(3.0 * x) * math.cos(2.0 * y) - 0.1

        f = cq.Integrand(f=g, fx=g, fy=g, fxy=g)
        for p in (1.5, cq.INF):
            self.check(f, UNIT, p, 3, "trapezoid")

    def test_nonfinite_line_raises_with_coordinate(self):
        def fx(x, y):
            return np.asarray(x) / (np.asarray(y) - 0.5)

        f = cq.Integrand(f=fx, fx=fx, fy=lambda x, y: 0.0 * x * y, fxy=lambda x, y: 0.0 * x * y)
        part = cq.PartitionSpec(UNIT, 4, 4)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(cq.EvaluationError) as err:
                cq.derivative_norms(f, UNIT, 2, partition=part)
        assert err.value.coordinate is not None
        assert err.value.coordinate[1] == 0.5


def _lines(p):
    return lambda g: line_norms(g, "x", [0.2, 0.7], 0.0, 1.0, p)


def _area(p):
    return lambda g: area_norm(g, UNIT, p)


class TestNonfiniteSamples:
    """A NaN or inf in any sample array raises EvaluationError at its coordinate.

    The checks run on a reduction each stage computes anyway (a minimum and
    maximum, an argmax, a weighted sum) or on an ``np.isfinite`` test of
    the samples (a secant round of the zero search, the Gauss samples), and
    call ``require_finite`` only when that fails, so each stage is hit in
    turn: the k-th vector call of the integrand (counted from the end when
    negative) returns one bad value, and the error must carry that sample's
    coordinate.  A line's first secant round is its second call; the
    area's is its third, after the scans of both axes.
    """

    STAGES = [
        ("line zero scan", _lines(2), 0),
        ("line secant round", _lines(2), 1),
        ("line Gauss samples", _lines(2), -1),
        ("tensor zero scan", _area(2), 0),
        ("tensor secant round", _area(2), 2),
        ("tensor pass 1", _area(2), -2),
        ("tensor pass 2", _area(2), -1),
        *((f"zoomed_sup grid {k}", _area(cq.INF), k) for k in range(3)),
        *((f"sup line grid {k}", _lines(cq.INF), k) for k in range(4)),
        *((f"oracle grid {k}", lambda g: cq.oracle_integrate(cq.Integrand(f=g), UNIT), k) for k in range(2)),
    ]

    @staticmethod
    def poisoned(k, bad=None):
        """sin(3x + 2y) - 0.2, whose k-th vector call returns ``bad`` at one sample."""
        seen = {"calls": 0, "coordinate": None}

        def g(x, y):
            x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            out = np.sin(3.0 * x + 2.0 * y) - 0.2
            if seen["calls"] == k and bad is not None:
                i = 2 * out.size // 3
                out.flat[i] = bad
                seen["coordinate"] = (float(x.flat[i]), float(y.flat[i]))
            seen["calls"] += out.size > 1
            return out

        return g, seen

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("run, k", [stage[1:] for stage in STAGES], ids=[stage[0] for stage in STAGES])
    def test_stage_reports_the_coordinate(self, run, k, bad):
        clean, seen = self.poisoned(-1)
        run(clean)
        assert seen["calls"] > max(k, -k - 1)
        g, seen = self.poisoned(k % seen["calls"], bad)
        with pytest.raises(cq.EvaluationError) as err:
            run(g)
        assert seen["coordinate"] is not None
        assert err.value.coordinate == seen["coordinate"]


class TestEvaluationCounts:
    """Deterministic evaluation counters of one 32 x 32 trapezoid bundle at p = 2.

    The f_x and f_y lines of a partial are scanned in one call, refined
    together and sampled in one call for both Gauss passes, whatever their
    breakpoints: 1 + at most 15 + 1 vector calls per partial, and as every
    root here is simple, the secant search needs at most 5 rounds.  The call
    count grows neither with the line count nor with the number of
    distinct breakpoint sets (sinsum's f_x = cos(x + y) has its own zero
    on every line), while the sampled points stay what a line-by-line
    evaluation samples.
    """

    @staticmethod
    def counted(fn, rec):
        def wrapper(x, y):
            n = np.broadcast(np.asarray(x), np.asarray(y)).size
            rec["vector" if n > 1 else "single"] += 1
            rec["points"] += n
            return fn(x, y)

        return wrapper

    @pytest.mark.parametrize("name, rect, points, max_vector_calls", [
        ("sinsin", cq.Rectangle(0.0, np.pi, 0.0, np.pi), 47810, 10),
        ("expsum", UNIT, 33858, 4),
        ("sinsum", cq.Rectangle(0.0, np.pi, 0.0, np.pi), 50666, 14),
    ], ids=["sinsin", "expsum", "sinsum"])
    def test_counts(self, name, rect, points, max_vector_calls):
        rec = {"vector": 0, "single": 0, "points": 0}
        f = integrand(name, rect)
        f = dataclasses.replace(f, fx=self.counted(f.fx, rec), fy=self.counted(f.fy, rec))
        cq.derivative_norms(f, rect, 2, partition=cq.PartitionSpec(rect, 32, 32))
        assert rec["single"] == 0
        assert rec["points"] == points
        assert rec["vector"] <= max_vector_calls

    def test_p1_counts(self):
        # p = 1 reads each line's norm off f at its breaks: 98 per partial (32
        # lines with a zero at pi/2, and y = 0, where f_x = 0); f_x and f_y are
        # only scanned and refined, in one call each and 3 secant rounds
        rect = cq.Rectangle(0.0, np.pi, 0.0, np.pi)
        recs = {key: {"vector": 0, "single": 0, "points": 0} for key in ("f", "fx", "fy")}
        f = integrand("sinsin", rect)
        f = dataclasses.replace(f, **{key: self.counted(getattr(f, key), rec) for key, rec in recs.items()})
        cq.derivative_norms(f, rect, 1, partition=cq.PartitionSpec(rect, 32, 32))
        assert recs == {"f": {"vector": 2, "single": 0, "points": 196},
                        "fx": {"vector": 4, "single": 0, "points": 11361},
                        "fy": {"vector": 4, "single": 0, "points": 11361}}

    @pytest.mark.parametrize("name", ["sinsin", "sinsum"])
    def test_sup_counts(self, name):
        # p = inf takes grid maxima: each partial's 33 lines on 257 points, then
        # three 65-point zooms; f_xy on a 257^2 grid, then two 33^2 zooms
        rect = cq.Rectangle(0.0, np.pi, 0.0, np.pi)
        recs = {key: {"vector": 0, "single": 0, "points": 0} for key in ("fx", "fy", "fxy")}
        f = integrand(name, rect)
        f = dataclasses.replace(f, **{key: self.counted(getattr(f, key), rec) for key, rec in recs.items()})
        cq.derivative_norms(f, rect, cq.INF, partition=cq.PartitionSpec(rect, 32, 32))
        line = {"vector": 4, "single": 0, "points": 33 * 257 + 3 * 33 * 65}
        assert recs == {"fx": line, "fy": line, "fxy": {"vector": 3, "single": 0, "points": 257**2 + 2 * 33**2}}

    def test_area_norm_counts(self):
        # per axis one scan of two lines and 3 secant rounds, then the 3- and
        # 4-level tensor passes of the area ladder's rungs 0 and 1, which agree
        rect = cq.Rectangle(0.0, np.pi, 0.0, np.pi)
        rec = {"vector": 0, "single": 0, "points": 0}
        f = integrand("sinsin", rect)
        f = dataclasses.replace(f, fxy=self.counted(f.fxy, rec))
        cq.derivative_norms(f, rect, 2, partition=cq.PartitionSpec(rect, 32, 32))
        assert rec == {"vector": 10, "single": 0, "points": 26732}


class TestOneBuildPerReport:
    """A finite-p report scans f_xy's axes, the f_x lines and the f_y lines
    in one ``scan_breaks`` bracket search, then makes one ``graded_nodes``
    build of every breakpoint set and one ``segment_p_norms`` reduction per
    line batch, i.e. per partial with lines not yet known; p = inf takes
    grid maxima and makes none of them.  The counts are of the names
    ``norms`` binds."""

    @pytest.fixture
    def calls(self, monkeypatch):
        out = {"scan_breaks": 0, "graded_nodes": 0, "segment_p_norms": 0}

        def counted(name):
            fn = getattr(cq.norms, name)

            def wrapper(*args, **kwargs):
                out[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in out:
            monkeypatch.setattr(cq.norms, name, counted(name))
        return out

    @pytest.mark.parametrize("name", ["sinsin", "sinsum", "expsum", "poly22"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_cold_finite_report(self, calls, name, family):
        rect = cq.Rectangle(0.1, 1.3, -0.2, 0.9)
        cq.derivative_norms(integrand(name, rect), rect, 2, cq.PartitionSpec(rect, 4, 4), family)
        assert calls == {"scan_breaks": 1, "graded_nodes": 1, "segment_p_norms": 2}

    @pytest.mark.parametrize("name, rect, count", [
        ("sinsum", cq.Rectangle(0.1, 1.3, -0.2, 0.9), 8),  # break-free lines share a set per partial
        ("sinsum", cq.Rectangle(0.0, 4.0, 0.0, 4.0), 5),  # f_x and f_y lines share sets across partials
        ("expsum", cq.Rectangle(0.0, 1.0, 0.0, 1.0), 1),  # every line is [0, 1]
    ])
    def test_build_entries(self, monkeypatch, name, rect, count):
        # the report's one build: the area axes at rungs 0, 1 and 2 of its
        # ladder, then each distinct line set's coarse and fine pass
        builds = []

        def recorded(sets, levels, caps, *rest):
            builds.append((sets, levels, caps))
            return graded_nodes(sets, levels, caps, *rest)

        monkeypatch.setattr(cq.norms, "graded_nodes", recorded)
        f, part = integrand(name, rect), cq.PartitionSpec(rect, 4, 4)
        cq.derivative_norms(f, rect, 2, part)
        fx, fy, fxy, _ = partial_evaluators(f, rect)
        (xs, _), (ys, _) = ramp_jumps(part, "trapezoid")
        lines = line_breaks(fx, "x", ys, rect.a, rect.b, 256) + line_breaks(fy, "y", xs, rect.c, rect.d, 256)
        distinct = list({b.tobytes(): b for b in lines}.values())
        (sets, levels, caps), = builds
        assert len(distinct) == count
        assert len(sets) == 6 + 2 * count
        assert list(levels) == [3, 3, 4, 4, 5, 5] + [5, 6] * count
        frac = 1.0 / 8.0
        fracs = [2 * frac] * 2 + [frac] * 2 + [frac / 2] * 2 + [frac, frac / 2] * count
        assert list(caps) == [(s[-1] - s[0]) * r for s, r in zip(sets, fracs)]
        axes = gauss.area_breaks(fxy, rect, 192)
        expected = axes * 3 + [b for b in distinct for _ in range(2)]
        assert all(np.array_equal(u, v) for u, v in zip(sets, expected, strict=True))

    @pytest.mark.parametrize("name", ["sinsin", "sinsum", "expsum", "poly22"])
    def test_p1_report_builds_only_the_area(self, monkeypatch, calls, name):
        # at p = 1 every line here is complete and reads its norm off f: the
        # one build holds the area axes at the ladder's three rungs, and no
        # line is reduced
        builds, counted = [], cq.norms.graded_nodes

        def recorded(sets, *rest):
            builds.append(sets)
            return counted(sets, *rest)

        monkeypatch.setattr(cq.norms, "graded_nodes", recorded)
        rect = cq.Rectangle(0.1, 1.3, -0.2, 0.9)
        f = integrand(name, rect)
        cq.derivative_norms(f, rect, 1, cq.PartitionSpec(rect, 4, 4))
        assert calls == {"scan_breaks": 1, "graded_nodes": 1, "segment_p_norms": 0}
        (sets,) = builds
        axes = gauss.area_breaks(partial_evaluators(f, rect)[2], rect, 192)
        assert all(np.array_equal(u, v) for u, v in zip(sets, axes * 3, strict=True))

    def test_sup_report(self, calls):
        rect = cq.Rectangle(0.1, 1.3, -0.2, 0.9)
        cq.derivative_norms(integrand("sinsum", rect), rect, cq.INF, cq.PartitionSpec(rect, 4, 4))
        assert calls == {"scan_breaks": 0, "graded_nodes": 0, "segment_p_norms": 0}

    CONVERGE = ((1, "trapezoid"), (2, "trapezoid"), (4, "trapezoid"), (2, "midpoint"))

    @staticmethod
    def warm_and_cold(p):
        """converge's reports on one cache, as certificate_matrix shares it, each beside its cold build."""
        rect = cq.Rectangle(0.1, 1.3, -0.2, 0.9)
        f = integrand("sinsum", rect)
        cache: dict = {}
        for m, family in TestOneBuildPerReport.CONVERGE:
            part = cq.PartitionSpec(rect, m, m)
            yield (cq.derivative_norms(f, rect, p, part, family, cache=cache),
                   cq.derivative_norms(f, rect, p, part, family))

    @pytest.mark.parametrize("p", [1.5, 2, cq.INF])
    def test_warm_cache_hits_match_cold_builds(self, calls, p):
        # the trapezoid lines of m = 2 and 4 include those of m = 1 and 2, so
        # each warm report builds only its new lines; the midpoint report's
        # f_xy and its y midlines are cached, but its x midlines 0.4 and 1.0
        # sit 1 ulp off the m = 4 grid lines (0x1.9999999999999p-2 against
        # 0x1.999999999999ap-2 for 0.4), so it builds them: one f_y batch
        (w1, c1), (w2, c2), (w4, c4), (wmid, cmid) = self.warm_and_cold(p)
        assert (w1, w2, w4, wmid) == (c1, c2, c4, cmid)
        builds, reductions = (0, 0) if p == cq.INF else (4 + 4, 7 + 8)
        assert calls == {"scan_breaks": builds, "graded_nodes": builds, "segment_p_norms": reductions}

    def test_midpoint_cache_hits_match_cold_builds(self):
        *_, (warm, cold) = self.warm_and_cold(1.5)
        assert warm == cold

    def test_fully_cached_report_builds_nothing(self, calls):
        rect = cq.Rectangle(0.1, 1.3, -0.2, 0.9)
        f, part, cache = integrand("sinsum", rect), cq.PartitionSpec(rect, 4, 4), {}
        first = cq.derivative_norms(f, rect, 2, part, cache=cache)
        assert cq.derivative_norms(f, rect, 2, part, cache=cache) == first
        assert calls == {"scan_breaks": 1, "graded_nodes": 1, "segment_p_norms": 2}

    def test_area_is_evaluated_first(self):
        # exp(x + y) overflows on the f_xy scan line y = 0.3275 at x = 709.5
        # before the f_x line y = 0.5 overflows near x = 709.28: the report
        # must name the f_xy scan's point
        rect = cq.Rectangle(700.0, 709.5, 0.0, 0.5)
        with np.errstate(over="ignore"), pytest.raises(cq.EvaluationError) as err:
            cq.derivative_norms(integrand("expsum", rect), rect, 2)
        assert err.value.coordinate == (709.5, pytest.approx(0.3275, abs=1e-12))


def recording(fn, calls, bad=()):
    """fn as a read-only-returning grid callable that records its calls; ``bad`` maps (call, flat index) to a value."""

    def g(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = fn(x, y)
        for (k, i), value in bad:
            if k == len(calls):
                out.flat[i % out.size] = value
        calls.append((x.copy(), y.copy()))
        out.flags.writeable = False  # the maxima must only read g's samples
        return out

    return g


def copy_zoomed_sup(g, rect, size):
    """The grid maximum of ``gauss.zoomed_sup`` taken the plain way, on a |g| copy."""
    best, first = 0.0, None
    xs, ys = gauss.uniform_grid(rect.a, rect.b, size + 1), gauss.uniform_grid(rect.c, rect.d, size + 1)
    for _ in range(3):
        coords = (xs[:, None], ys[None, :])
        vals = np.abs(g(*coords))
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if not np.isfinite(vals[i, j]):
            gauss.require_finite(vals, coords)
        best = max(best, float(vals[i, j]))
        first = best if first is None else first
        xs = gauss.uniform_grid(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], 33)
        ys = gauss.uniform_grid(ys[max(j - 1, 0)], ys[min(j + 1, ys.size - 1)], 33)
    return best, best - first


def copy_sup_lines(g, axis, c, lo, hi, resolution):
    """The line maxima of ``norms._sup_lines`` taken the plain way, on a |g| copy."""
    rows = np.arange(c.size)
    t = np.broadcast_to(gauss.uniform_grid(lo, hi, resolution + 1), (c.size, resolution + 1))
    best = np.zeros(c.size)
    for step in range(4):
        coords = line_coords(axis, t, c[:, None])
        vals = np.abs(g(*coords))
        i = np.argmax(vals, axis=1)
        if not np.isfinite(vals[rows, i]).all():
            gauss.require_finite(vals, coords)
        best = np.maximum(best, vals[rows, i])
        first = best if step == 0 else first
        n = t.shape[1]
        t = gauss.uniform_grid(t[rows, np.maximum(i - 1, 0)], t[rows, np.minimum(i + 1, n - 1)], 65)
    return best, best - first


class TestGridMaxima:
    """``gauss.zoomed_sup`` takes argmax and argmin of g's samples instead of
    an |g| copy (``gauss.abs_argmax``), and ``norms._sup_lines`` the argmax
    of an |g| copy of its small line samples.  Each must pick the sample and
    zoom where ``np.argmax(np.abs(v))`` does, ties included, sample the
    same grids and no other, and report a NaN or inf at its first
    coordinate.  Each is run beside its |g|-copy reference above on the same
    recording integrand, whose read-only samples fail any write."""

    RECT = cq.Rectangle(0.1, 1.3, -0.2, 0.9)

    @staticmethod
    def plateaus(sign):
        # only -M, 0 and M on a grid: ties of both signs everywhere
        return lambda x, y: sign * 3.0 * np.round(np.cos(40.0 * x) * np.cos(37.0 * y))

    @staticmethod
    def signed_zeros(x, y):
        return -0.0 * (x + y)

    def run_both(self, fn, bad, mine, reference):
        """(result or error coordinate, recorded calls) of ``mine`` and ``reference`` on fn."""
        out = []
        for run in (mine, reference):
            calls = []
            try:
                result = run(recording(fn, calls, bad))
            except cq.EvaluationError as err:
                result = ("error", err.coordinate)
            out.append((result, calls))
        return out

    def check(self, fn, bad, mine, reference):
        (got, got_calls), (want, want_calls) = self.run_both(fn, bad, mine, reference)
        if isinstance(want[0], str):
            assert got == want
        else:
            assert np.array_equal(got, want)  # == on the maxima and their gains
        assert len(got_calls) == len(want_calls)
        for (x, y), (u, v) in zip(got_calls, want_calls):
            assert np.array_equal(x, u) and np.array_equal(y, v)
        return got, got_calls

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["g", "minus-g"])
    def test_zoomed_sup_ties(self, sign):
        # the first grid holds both +M and -M; g and -g put each first in turn
        fn = self.plateaus(sign)
        _, calls = self.check(fn, (), lambda g: gauss.zoomed_sup(g, self.RECT, 64),
                              lambda g: copy_zoomed_sup(g, self.RECT, 64))
        first = fn(*calls[0]).ravel()
        ties = first[np.abs(first) == 3.0]
        assert (ties == 3.0).any() and (ties == -3.0).any()
        self.check(self.signed_zeros, (), lambda g: gauss.zoomed_sup(g, self.RECT, 64),
                   lambda g: copy_zoomed_sup(g, self.RECT, 64))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["g", "minus-g"])
    def test_sup_lines_ties(self, sign):
        fn = self.plateaus(sign)
        c = np.linspace(-0.2, 0.9, 12)
        _, calls = self.check(fn, (), lambda g: cq.norms._sup_lines(g, "x", c, 0.1, 1.3, 64),
                              lambda g: copy_sup_lines(g, "x", c, 0.1, 1.3, 64))
        # rows whose first tie is +M and rows whose first tie is -M, each holding both
        rows = fn(*calls[0])
        firsts = [row[np.abs(row) == 3.0] for row in rows]
        both = [r[0] for r in firsts if (r == 3.0).any() and (r == -3.0).any()]
        assert 3.0 in both and -3.0 in both
        self.check(self.signed_zeros, (), lambda g: cq.norms._sup_lines(g, "y", c, 0.1, 1.3, 64),
                   lambda g: copy_sup_lines(g, "y", c, 0.1, 1.3, 64))

    BAD = [
        ((0, 5), np.nan), ((0, 5), np.inf), ((0, 4000), -np.inf),
        ((0, 700), np.inf), ((0, 700), -np.inf), ((0, 40), np.nan),
        ((1, 0), np.nan), ((1, 1088), -np.inf), ((2, 17), np.inf),
    ]

    @pytest.mark.parametrize("order", [[0, 1], [1, 0], [2, 4], [4, 5, 3], [6, 7], [8]])
    def test_non_finite_first_coordinate(self, order):
        # several bad samples in one grid, in both orders: the first in flat order is reported
        bad = [self.BAD[i] for i in order]
        fn = self.plateaus(1.0)
        c = np.linspace(-0.2, 0.9, 12)
        with np.errstate(invalid="ignore"):
            area, _ = self.check(fn, bad, lambda g: gauss.zoomed_sup(g, self.RECT, 64),
                                 lambda g: copy_zoomed_sup(g, self.RECT, 64))
            lines, _ = self.check(fn, bad, lambda g: cq.norms._sup_lines(g, "x", c, 0.1, 1.3, 64),
                                  lambda g: copy_sup_lines(g, "x", c, 0.1, 1.3, 64))
        assert area[0] == lines[0] == "error"


ZERO_LINE = np.linspace(0.1, 0.9, 9)[4]


class TestLineBatches:
    """A line batch reduces to the norms of its lines computed one by one,
    bit for bit, in both layouts: lines sharing one breakpoint set are one
    (lines x nodes) block against the set's weight row, lines with sets of
    their own are one flat array against gathered weights."""

    CASES = [
        ("break-free", lambda x, y: np.exp(x) * (1.5 + np.sin(3.0 * y)), 0.0, 1.0, True),
        ("shared zero", lambda x, y: (x - 0.5) * (2.0 + np.cos(y)), 0.0, 1.0, True),
        ("own zeros", lambda x, y: np.sin(x + y), 0.0, 4.0, False),
        # one line of each batch below is zero: the batch still reduces the full formula
        ("zero line, shared", lambda x, y: np.exp(x) * (y - ZERO_LINE), 0.0, 1.0, True),
        ("zero line, own zeros", lambda x, y: np.sin(x + y) * (y - ZERO_LINE), 0.0, 4.0, False),
    ]

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, cq.INF])
    @pytest.mark.parametrize("fn, lo, hi, shared", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_batch_equals_lines_alone(self, fn, lo, hi, shared, p, axis):
        g = (lambda x, y: fn(y, x)) if axis == "y" else fn
        c = np.linspace(0.1, 0.9, 9)
        sets = line_breaks(as_grid_fn(g), axis, c, lo, hi, 256)
        assert all(np.array_equal(s, sets[0]) for s in sets) == shared
        assert shared or len({s.tobytes() for s in sets}) == c.size
        values, errors = line_norms(g, axis, c, lo, hi, p)
        for k in range(c.size):
            alone = line_norms(g, axis, c[k:k + 1], lo, hi, p)
            assert (values[k], errors[k]) == (alone[0][0], alone[1][0])


class TestReportMemory:
    """Traced peak of one warm ``derivative_norms`` call (ROADMAP item 6(g)).

    Line batches reduce g's samples without a node or weight gather when
    their lines share a set, and the area grid maximum reads g's samples
    without an |g| copy (the line maxima's copies are small).  Measured
    with Python 3.11 and numpy 2.4: 0.460 MB for sinsin, m = 64, p = 3
    (0.941 MB with the gathers) and 0.668 MB for m = 1, p = inf (1.063 MB
    with the copy).  A batch whose lines own sets of their own gathers
    them flat: 1.333 MB for sinsum, m = 64, p = 2.  The bounds allow 25%
    over the measured peaks, under either older figure.
    """

    @pytest.mark.parametrize("m, p, bound", [(64, 3, 0.58e6), (1, cq.INF, 0.835e6)], ids=["m64-p3", "m1-inf"])
    def test_peak(self, m, p, bound):
        rect = cq.Rectangle(0.1, 1.3, -0.2, 0.9)
        f, part = integrand("sinsin", rect), cq.PartitionSpec(rect, m, m)
        cq.derivative_norms(f, rect, p, part)  # warm the node caches
        tracemalloc.start()
        try:
            cq.derivative_norms(f, rect, p, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_gathered_layout_peak(self):
        rect = cq.Rectangle(0.1, 1.3, -0.2, 0.9)
        f, part = integrand("sinsum", rect), cq.PartitionSpec(rect, 64, 64)
        # both partials' lines split into many distinct breakpoint sets, so
        # both batches sample gathered nodes rather than one shared row
        fx, fy, _, _ = partial_evaluators(f, rect)
        (xs, _), (ys, _) = ramp_jumps(part, "trapezoid")
        distinct = [len({s.tobytes() for s in line_breaks(g, axis, c, lo, hi, 256)})
                    for g, axis, c, lo, hi in ((fx, "x", ys, rect.a, rect.b), (fy, "y", xs, rect.c, rect.d))]
        assert distinct == [38, 35]
        cq.derivative_norms(f, rect, 2, part)  # warm the node caches
        tracemalloc.start()
        try:
            cq.derivative_norms(f, rect, 2, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.67e6


def graded_breaks(lo, hi, levels):
    """Breakpoints of [lo, hi] accumulating geometrically toward both ends, one row per end pair."""
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    width = hi - lo
    fracs = 0.5 ** np.arange(levels, 0, -1)  # 2^-levels .. 1/2
    left = lo + width * fracs
    right = hi - width * fracs[::-1]
    return np.concatenate((lo, left, right[..., 1:], hi), axis=-1)


def refine_breaks(breaks, max_width):
    """Split every panel wider than max_width into uniform subpanels."""
    b = np.asarray(breaks, dtype=float)
    lo, hi = b[:-1], b[1:]
    parts = np.maximum(1.0, np.ceil((hi - lo) / max_width)).astype(np.int64)
    panel = np.repeat(np.arange(lo.size), parts)
    k = np.arange(panel.size) - np.repeat(np.cumsum(parts) - parts, parts) + 1
    out = lo[panel] + (hi - lo)[panel] * k / parts[panel]
    last = k == parts[panel]
    out[last] = hi[panel[last]]
    return np.concatenate((b[:1], out))


class TestGradedNodes:
    """``graded_nodes`` builds every entry, a breakpoint set at a depth and a
    panel cap, in one call; each entry must match the one-set build of
    ``graded_breaks`` and ``refine_breaks`` above, kept here as the
    reference, at its own depth and cap, after the set's near-duplicate
    breaks collapse as ``merge_breaks`` collapses them.  Every panel maps a
    cached layout of [0, 1]: on [0, 1] an entry equals the reference,
    elsewhere its node count does and its nodes and weights move by
    rounding."""

    SETS = [
        np.array([0.0, 1.0]),  # no interior break
        np.array([-0.25, 0.3, 1.5]),  # one
        np.array([0.5, 0.6, 0.61, 0.9, 1.2, 1.7, 1.75]),  # five
        np.array([0.2, 0.2 + 1e-15, 0.7]),  # a break within 1e-15 of lo
        np.array([1e3, 1e3 + 0.5, 1e3 + 2.0]),
    ]

    @staticmethod
    def reference(breaks, levels, max_width, k=8):
        b = np.asarray(breaks, dtype=float)
        panels = merge_breaks(refine_breaks(graded_breaks(b[:-1], b[1:], levels).ravel(), max_width))
        return panel_nodes(panels, k)

    @staticmethod
    def by_pass(sets, passes):
        """(sets, levels, fracs) of every set at each pass (levels, frac) in turn.

        A pass's levels are one count for every set or one count per set.
        """
        entries = [(s, depth, frac) for levels, frac in passes
                   for s, depth in zip(sets, np.broadcast_to(levels, len(sets)))]
        return tuple(map(list, zip(*entries)))

    @classmethod
    def assert_near_reference(cls, x, w, breaks, depth, cap):
        """One entry's nodes x and weights w: the reference's node count exactly, its nodes and weights to rounding.

        Within 4 ulps of max(1, |lo|, |hi|), to which the reference rounds
        every break (a deep panel's width, and so its weights, carry that
        rounding relative to a much smaller value).
        """
        ref_x, ref_w = cls.reference(merge_breaks(breaks), depth, cap)
        assert x.size == w.size == ref_x.size, (depth, cap)
        ulps = 4.0 * np.spacing(max(1.0, np.abs(breaks).max()))
        assert np.abs(x - ref_x).max() <= ulps, (depth, cap)
        assert np.abs(w - ref_w).max() <= ulps, (depth, cap)

    def check(self, sets, levels, fracs):
        """Build entry e as sets[e] at levels[e] (or ``levels`` for all) with a cap of fracs[e] of its span."""
        caps = [(s[-1] - s[0]) * frac for s, frac in zip(sets, fracs)]
        x, w, bounds = graded_nodes(sets, levels, caps)
        assert bounds.size == len(sets) + 1
        assert bounds[0] == 0 and bounds[-1] == x.size == w.size
        for e, (b, depth, cap) in enumerate(zip(sets, np.broadcast_to(levels, len(sets)), caps)):
            self.assert_near_reference(x[bounds[e]:bounds[e + 1]], w[bounds[e]:bounds[e + 1]], b, depth, cap)

    @pytest.mark.parametrize("passes", [
        [(11, 1 / 8), (12, 1 / 16)],  # the deep line-norm reference
        [(9, 1 / 8), (10, 1 / 16)],  # the deep area-norm reference
        [(10, 1 / 4)],  # the custom weight norm
        [(12, 1 / 64), (3, 1 / 2)],  # uneven depths, the deeper pass first
        [(5, 1 / 8), (6, 1 / 16)],  # the line norms
        [(4, 1 / 8), (5, 1 / 16)],  # the area norm's rungs 1 and 2
    ])
    def test_sets_of_different_lengths_match_reference(self, passes):
        self.check(*self.by_pass(self.SETS, passes))

    @pytest.mark.parametrize("depth", [
        np.array([4, 4, 5, 5, 5]),  # two area axes, then three line sets
        np.array([5, 4, 5, 4, 5]),  # the depths interleaved
    ], ids=["axes-first", "interleaved"])
    def test_per_set_depths_match_reference(self, depth):
        # a shallower entry's rows are padded with copies of its panel ends,
        # which its part counts skip, so every entry matches the reference at
        # its own depth
        self.check(*self.by_pass(self.SETS, [(depth, 1 / 8), (depth + 1, 1 / 16)]))

    def test_one_count_for_every_entry(self):
        self.check(self.SETS * 2, 10, [1 / 4] * 5 + [1 / 8] * 5)

    def test_report_layout_matches_reference(self):
        # the build of _norms_with_error: the area axes (the first two sets) at
        # the ladder's rungs 0, 1 and 2, then each line set's coarse and fine
        # pass side by side
        axes, lines = self.SETS[:2], self.SETS[2:]
        f = 1 / 8
        self.check(axes * 3 + [s for s in lines for _ in range(2)],
                   [3, 3, 4, 4, 5, 5] + [5, 6] * len(lines),
                   [2 * f, 2 * f, f, f, f / 2, f / 2] + [f, f / 2] * len(lines))

    @pytest.mark.parametrize("s", range(len(SETS)))
    def test_one_set_matches_reference(self, s):
        self.check(*self.by_pass([self.SETS[s]], [(11, 1 / 8), (12, 1 / 16)]))

    def test_fine_cap_memory_follows_the_node_count(self):
        # a resolution-8192 cap (1/256 and 1/512 of the span) splits each
        # set's one wide panel into ~125 parts while its 31 narrow panels
        # stay whole: the build must not pad every gap to the largest split
        sets = [np.concatenate(([0.0], 1e-3 * np.arange(1, 32) + 1e-5 * i, [1.0])) for i in range(16)]
        passes = [(11, 1 / 256), (12, 1 / 512)]
        entries, levels, fracs = self.by_pass(sets, passes)
        tracemalloc.start()
        try:
            x, w, bounds = graded_nodes(entries, levels, fracs)  # every span is 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * x.nbytes
        self.check(*self.by_pass(sets[:2], passes))

    def test_collapsed_set_raises(self):
        with pytest.raises(ValueError, match=r"\[0.0, 1e-14\] is too narrow for quadrature: panels of 1/10 "):
            graded_nodes([np.array([0.0, 1.0]), np.array([0.0, 1e-14])], 11, np.array([0.1, 1e-15]))
        with pytest.raises(ValueError, match="two breakpoints"):
            graded_nodes([np.array([0.5])], 11, np.array([0.1]))

    # break-free sets off [0, 1], where the unit layout's map is not the identity
    FREE = [np.array([0.1, 1.2]), np.array([-7.5, -3.0]), np.array([1e3, 1e3 + 2.0])]

    @staticmethod
    def assert_within_4_ulps(got, ref):
        assert np.allclose(got, ref, rtol=4.0 * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("passes", [[(3, 1 / 4)], [(5, 1 / 8), (6, 1 / 16)], [(10, 1 / 4)],
                                        [(11, 1 / 8), (12, 1 / 16)]])
    def test_break_free_entries_map_a_unit_layout(self, passes):
        # each entry keeps the reference's node count exactly, its part counts
        # taken on its own interval, and moves its nodes and weights by rounding
        self.check(*self.by_pass(self.FREE, passes))

    def test_break_free_counts_drift_as_on_the_interval(self):
        # at 3 levels and a cap of 1/4 of the span, [0.1, 1.2]'s gap from 0.375
        # to 0.65 is 1.0000000000000002 caps wide and splits in two: 56 nodes,
        # where [0, 1] has 48; the entry maps a layout of [0, 1] built with
        # its own counts, not [0, 1]'s
        free = self.FREE[0]
        cap = (free[-1] - free[0]) / 4
        x, w, bounds = graded_nodes([free], 3, [cap])
        ref_x, ref_w = self.reference(free, 3, cap)
        assert bounds.tolist() == [0, ref_x.size] == [0, 56]
        assert graded_nodes([np.array([0.0, 1.0])], 3, [0.25])[2].tolist() == [0, 48]
        self.assert_within_4_ulps(x, ref_x)
        self.assert_within_4_ulps(w, ref_w)
        assert not np.array_equal(x, ref_x)

    def test_entry_gets_the_same_bytes_alone_and_among_others(self):
        # a break-free entry among entries with breaks, at other depths and
        # caps, is the bytes of its one-entry build; the others equal the
        # reference bit for bit
        free, cap = self.FREE[0], 0.1375
        sets = [self.SETS[2], free, self.SETS[4], free, self.SETS[1]]
        levels, caps = [6, 5, 4, 3, 12], [0.1, cap, 0.3, cap, 0.05]
        x, w, bounds = graded_nodes(sets, levels, caps)
        for e in (1, 3):
            alone_x, alone_w, _ = graded_nodes([free], levels[e], [cap])
            block = slice(bounds[e], bounds[e + 1])
            assert x[block].tobytes() == alone_x.tobytes() and w[block].tobytes() == alone_w.tobytes()
        for e in (0, 2, 4):
            block = slice(bounds[e], bounds[e + 1])
            self.assert_near_reference(x[block], w[block], sets[e], levels[e], caps[e])

    def test_break_free_build_runs_no_split_or_merge(self, monkeypatch):
        # a report's build maps cached layouts, whether its sets are all
        # break-free (both area axes and both partials' lines) or split at
        # breaks: built again, it splits, merges and places no Gauss nodes;
        # a new part count builds one layout
        free = [np.array([0.3, 2.1]), np.array([-0.7, 1.4])] * 5
        split = free[:4] + [self.SETS[2], self.SETS[1], self.SETS[4]] * 2
        levels = [3, 3, 4, 4, 5, 5, 5, 6, 5, 6]
        fracs = [1 / 4] * 2 + [1 / 8] * 5 + [1 / 16] * 3
        calls = []
        layout = gauss.panel_nodes
        gauss._unit_layout.cache_clear()
        for sets in (free, split):
            caps = [(s[-1] - s[0]) * frac for s, frac in zip(sets, fracs)]
            first = graded_nodes(sets, levels, caps)
            monkeypatch.setattr(gauss, "panel_nodes", lambda *args: calls.append(len(args)) or layout(*args))
            again = graded_nodes(sets, levels, caps)
            monkeypatch.setattr(gauss, "panel_nodes", layout)
            assert calls == []
            assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
        monkeypatch.setattr(gauss, "panel_nodes", lambda *args: calls.append(len(args)) or layout(*args))
        graded_nodes([np.array([0.0, 1.0])], 5, [1 / 1000])
        assert len(calls) == 1

    def test_near_duplicate_breaks_collapse(self):
        # [0.2, 0.2 + 1e-15, 0.7]'s second break lies within the set's merge
        # tolerance of its first and is dropped, as merge_breaks drops it: the
        # set builds the bytes of [0.2, 0.7], with the node count that the
        # uncollapsed reference gives it
        near, plain = self.SETS[3], np.array([0.2, 0.7])
        for depth, cap in [(3, 0.25), (5, 0.125), (6, 0.0625), (11, 0.125)]:
            x, w, _ = graded_nodes([near], depth, [cap])
            plain_x, plain_w, _ = graded_nodes([plain], depth, [cap])
            assert x.tobytes() == plain_x.tobytes() and w.tobytes() == plain_w.tobytes()
            assert x.size == self.reference(near, depth, cap)[0].size

    def test_layout_cache_stays_within_its_bound(self):
        # 7 depths x 80 caps are 319 distinct (levels, counts) keys; on [0, 1]
        # a mapped layout is the reference itself
        gauss._unit_layout.cache_clear()
        sets = [np.array([0.0, 1.0])] * 80
        caps = 0.5 / np.arange(1.0, 81.0)
        try:
            for depth in range(1, 8):
                x, w, bounds = graded_nodes(sets, depth, caps)
                for e in (0, 79):
                    ref_x, ref_w = self.reference(sets[e], depth, caps[e])
                    assert np.array_equal(x[bounds[e]:bounds[e + 1]], ref_x)
                    assert np.array_equal(w[bounds[e]:bounds[e + 1]], ref_w)
            info = gauss._unit_layout.cache_info()
            assert info.misses == 319 and info.maxsize == info.currsize == 256
        finally:
            gauss._unit_layout.cache_clear()


def mp_p_norm(values, weights, p: float) -> float:
    """(sum_i w_i |v_i|^p)^(1/p) in 200-bit mpmath arithmetic: a reference free of any float scaling."""
    with mpmath.workprec(200):
        p = mpmath.mpf(p)
        total = mpmath.fsum(mpmath.mpf(float(w)) * abs(mpmath.mpf(float(v))) ** p
                            for v, w in zip(np.ravel(values), np.ravel(weights)))
        return float(total ** (1 / p)) if total else 0.0


class TestReductions:
    """``segment_p_norms`` and ``tensor_p_norm`` (through the ``tensor_norms``
    reference) reduce with one scaled power sum at every finite p; they
    agree with a 200-bit reference to rounding, however large p or the
    samples."""

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 64, 65, 100, 1e3, 1e6, 1e9])
    def test_segments_match_per_segment_norms(self, p):
        rng = np.random.default_rng(7)
        sizes = np.array([8, 1, 40, 16, 200, 3])
        starts = np.cumsum(sizes) - sizes
        scales = np.repeat(10.0 ** np.array([-200, 200, 0, 0, -100, 100]), sizes)
        mags = np.abs(rng.standard_normal(sizes.sum())) * scales
        # one segment spans every magnitude from 1e-200 to 1e200, one is all zeros
        mags[starts[2]:starts[2] + sizes[2]] = 10.0 ** rng.uniform(-200, 200, sizes[2])
        mags[starts[3]:starts[3] + sizes[3]] = 0.0
        weights = rng.uniform(1e-3, 1e-1, size=300)
        offsets = np.array([90, 0, 20, 5, 60, 280])
        got = segment_p_norms(mags.copy(), gauss.gather_segments(weights, offsets, sizes), sizes, float(p))
        ref = [mp_p_norm(mags[a:a + n], weights[o:o + n], float(p))
               for a, o, n in zip(starts, offsets, sizes)]
        assert got[3] == ref[3] == 0.0
        assert got == pytest.approx(ref, rel=1e-15, abs=0.0)

    # two segments per row, as a line's coarse and fine pass; one; and four,
    # one of them a single sample
    @pytest.mark.parametrize("p, sizes", [
        *[pytest.param(p, [37, 150], id=str(p)) for p in (1, 1.5, 3, 1e6)],
        *[pytest.param(p, sizes, id=f"{p}-{name}") for name, sizes in (("one", [187]), ("four", [37, 1, 100, 49]))
          for p in (1, 1.5, 3, 1e6)],
    ])
    def test_block_rows_match_flat_segments(self, p, sizes):
        # a (lines x nodes) block against one broadcast weight row, bit for bit
        # the flat reduction of the same rows against the row's gathered copies
        rng = np.random.default_rng(11)
        mags = np.abs(rng.standard_normal((9, sum(sizes)))) * 10.0 ** rng.uniform(-50, 50, (9, 1))
        mags[4] = 0.0
        weights = rng.uniform(1e-3, 1e-1, size=sum(sizes))
        block = segment_p_norms(mags.copy(), weights, sizes, float(p))
        flat = segment_p_norms(mags.ravel().copy(), np.tile(weights, 9), sizes * 9, float(p))
        assert block.shape == (9, len(sizes))
        assert np.array_equal(block.ravel(), flat)
        assert (block[4] == 0.0).all()

    @staticmethod
    def full_formula(v, weights, sizes, p):
        """``segment_p_norms`` without its all-zero exit: s (sum_i w_i (|v_i|/s)^p)^(1/p)."""
        starts = np.cumsum(sizes) - sizes
        s = np.maximum.reduceat(v, starts, axis=-1)
        v = v / np.repeat(np.where(s > 0.0, s, 1.0), sizes, axis=-1)
        return s * np.add.reduceat(v**p * weights, starts, axis=-1) ** (1.0 / p)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 1e6])
    @pytest.mark.parametrize("layout", ["flat", "block"])
    def test_all_zero_segments_take_the_full_formula(self, layout, p):
        # the magnitudes of +0 and -0 samples, in both layouts: the maxima
        # returned at once are the norms the full formula gives, bit for bit
        rng = np.random.default_rng(5)
        sizes = [37, 1, 150]
        shape = (sum(sizes),) if layout == "flat" else (6, sum(sizes))
        samples = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        samples[..., 37] = -0.0  # the one-sample segment
        weights = rng.uniform(1e-3, 1e-1, size=sum(sizes))
        got = segment_p_norms(np.abs(samples), weights, sizes, float(p))
        want = self.full_formula(np.abs(samples), weights, sizes, float(p))
        assert got.shape == want.shape == shape[:-1] + (3,)
        assert got.tobytes() == want.tobytes() == np.zeros(shape[:-1] + (3,)).tobytes()

    @pytest.fixture
    def builds(self, monkeypatch):
        """Every ``graded_nodes`` build that ``tensor_norms`` makes, in order."""
        out = []

        def recorded(*args):
            out.append(graded_nodes(*args))
            return out[-1]

        monkeypatch.setattr(gauss, "graded_nodes", recorded)
        return out

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, 100])
    def test_tensor_contraction_matches_the_weight_grid(self, builds, p):
        # each pass's norm against the scaled power sum of the same samples with
        # the weight grid np.outer(wx, wy); the nodes are taken from the pass's
        # graded_nodes build
        rects = (cq.Rectangle(0.1, 1.3, -0.2, 0.9), cq.Rectangle(0.0, np.pi, 0.0, np.pi))
        cases = 0
        for rect in rects:
            for name in cq.names():
                entry = cq.get_entry(name)
                if not entry.domain_ok(rect):
                    continue
                for g in (as_grid_fn(entry.integrand(rect).fxy), as_grid_fn(entry.integrand(rect).fx)):
                    builds.clear()
                    got = tensor_norms(g, rect, float(p), 64, ((4, 1 / 8), (5, 1 / 16)))
                    nodes, weights, bounds = builds[0]
                    xs, ws = np.split(nodes, bounds[1:-1]), np.split(weights, bounds[1:-1])
                    for value, x, y, wx, wy in zip(got, xs[0::2], xs[1::2], ws[0::2], ws[1::2]):
                        u = np.abs(g(x[:, None], y[None, :])).ravel()
                        s = u.max()
                        ref = s * float(np.outer(wx, wy).ravel() @ (u / s) ** p) ** (1.0 / p) if s else 0.0
                        # a constant on [0, pi]^2 at p = 1 sums ~10^4 equal terms:
                        # the two summation orders differ by 1.8e-15 there
                        assert value == pytest.approx(ref, rel=2e-15, abs=0.0), (name, rect)
                    cases += 1
        assert cases == 40

    @pytest.mark.parametrize("p", [100, 1e6])
    def test_tensor_norms_match_the_reference_at_large_p(self, builds, p):
        # sin(x + y) changes sign inside the rectangle, so both axes are split;
        # at 1e100 its unscaled powers overflow at either p
        rect = cq.Rectangle(-1.0, 0.5, -0.7, 0.8)
        g = as_grid_fn(lambda x, y: 1e100 * np.sin(x + y))
        got = tensor_norms(g, rect, float(p), 16, ((1, 1 / 2), (2, 1 / 2)))
        nodes, weights, bounds = builds[0]
        xs, ws = np.split(nodes, bounds[1:-1]), np.split(weights, bounds[1:-1])
        for value, x, y, wx, wy in zip(got, xs[0::2], xs[1::2], ws[0::2], ws[1::2], strict=True):
            ref = mp_p_norm(g(x[:, None], y[None, :]), np.outer(wx, wy), float(p))
            assert value == pytest.approx(ref, rel=1e-15, abs=0.0)


class TestUniformGrid:
    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1.0), (0.0, np.pi), (-0.137, 1.2), (1.3, 0.1), (-1e300, 1e300), (1e15, 1e15 + 3.0),
        (2.0, 2.0), (0.0, 5e-324), (-5e-324, 1e-322),
    ])
    @pytest.mark.parametrize("n", [1, 2, 17, 193, 257])
    def test_matches_linspace_bit_for_bit(self, lo, hi, n):
        got, want = gauss.uniform_grid(lo, hi, n), np.linspace(lo, hi, n)
        assert got.tobytes() == want.tobytes()

    # one row per end pair; the rows hold every scalar case above, a zero
    # span and a subnormal one
    ARRAY_ENDS = {
        "rows": ([-0.137, 0.0, 1e15, 1.3, -1e300], [1.2, np.pi, 1e15 + 3.0, 0.1, 1e300]),
        "one row": ([0.3], [0.3 + 1e-9]),
        "zero step": ([-0.137, 0.0, 2.0], [1.2, np.pi, 2.0]),
        "subnormal step": ([-0.137, 0.0, 0.0], [1.2, np.pi, 5e-324]),
        "no rows": ([], []),
    }

    @pytest.mark.parametrize("ends", ARRAY_ENDS.values(), ids=ARRAY_ENDS)
    @pytest.mark.parametrize("n", [1, 2, 11, 65, 100])
    def test_array_ends_match_linspace_bit_for_bit(self, ends, n):
        lo, hi = (np.asarray(e, dtype=float) for e in ends)
        got, want = gauss.uniform_grid(lo, hi, n), np.linspace(lo, hi, n, axis=1)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    def test_one_zero_step_moves_every_row(self):
        # numpy computes every row as (j / (n - 1)) * (hi - lo) + lo once any
        # row's step is zero; at n = 100 that differs from j * step + lo in
        # the first two rows
        lo, hi = (np.asarray(e) for e in self.ARRAY_ENDS["zero step"])
        j = np.arange(100.0)[:, None]
        assert ((j * ((hi - lo) / 99) + lo != j / 99 * (hi - lo) + lo).sum(axis=0) > 0).tolist() == [
            True, True, False]
        assert gauss.uniform_grid(lo, hi, 100).tobytes() == np.linspace(lo, hi, 100, axis=1).tobytes()

    def test_grids_are_independent(self):
        first = gauss.uniform_grid(0.0, 1.0, 33)
        first[0] = 7.0
        assert gauss.uniform_grid(0.0, 1.0, 33)[0] == 0.0


class TestAsGridFn:
    def test_wrapping_twice_returns_the_same_callable(self):
        g = as_grid_fn(lambda x, y: x * y)
        assert as_grid_fn(g) is g

    def test_scalar_only_callable_through_a_double_wrap(self):
        calls = []

        def f(x, y):
            calls.append(1)
            return math.sin(x) * y

        g = as_grid_fn(as_grid_fn(f))
        out = g(np.array([[0.1], [0.2]]), np.array([1.0, 2.0, 3.0]))
        assert out.shape == (2, 3)
        assert out[1, 2] == math.sin(0.2) * 3.0
        # the array call fails once, then one call per point
        assert len(calls) == 1 + 6

    def test_incompatible_shapes_raise(self):
        g = as_grid_fn(lambda x, y: x + y)
        with pytest.raises(ValueError):
            g(np.zeros(3), np.zeros(4))


class TestEmptyAndTinyIntervals:
    @pytest.mark.parametrize("lo, width", [(0.0, 1e-15), (0.0, 1e-13), (1e3, 1e-11)])
    def test_too_narrow_square_is_refused(self, lo, width):
        rect = cq.Rectangle(lo, lo + width, lo, lo + width)
        with pytest.raises(ValueError, match=r"interval \[.*\] is too narrow for quadrature.*at least"):
            cq.rule_report(integrand("sinsin", rect), rect, "composite-trapezoid", 2,
                           cq.PartitionSpec(rect, 4, 4))

    def test_refused_before_sampling(self):
        # every public entry refuses a rectangle too narrow for quadrature
        # before it calls f, a partial or the weight, and the core refuses a
        # line batch alone before it calls g
        calls = []

        def counted(name):
            def g(*args):
                calls.append(name)
                return sum(np.asarray(a, dtype=float) for a in args)
            return g

        rect = cq.Rectangle(0.0, 1.0, 0.0, 1e-13)
        f = cq.Integrand(f=counted("f"), fx=counted("fx"), fy=counted("fy"), fxy=counted("fxy"))
        w = cq.CustomPhi(counted("alpha"), counted("beta"), rect)
        for run in (lambda: cq.rule_report(f, rect, "trapezoid", 2), lambda: cq.derivative_norms(f, rect, 2),
                    lambda: cq.custom_phi_rule(f, w, rect, 2),
                    lambda: line_norms(counted("g"), "x", [0.0], 0.0, 1e-13, 2)):
            with pytest.raises(ValueError, match=r"\[0.0, 1e-13\] is too narrow.*1.529e-13"):
                run()
            assert calls == []

    def test_narrow_square_above_the_limit_reports(self):
        rect = cq.Rectangle(0.0, 3e-13, 0.0, 3e-13)
        rep = cq.rule_report(integrand("sinsin", rect), rect, "composite-trapezoid", 2,
                             cq.PartitionSpec(rect, 4, 4))
        assert math.isfinite(rep.bound) and rep.bound > 0.0

    def test_sup_norms_need_no_panels(self):
        rect = cq.Rectangle(0.0, 1e-15, 0.0, 1e-15)
        rep = cq.rule_report(integrand("sinsin", rect), rect, "composite-trapezoid", cq.INF,
                             cq.PartitionSpec(rect, 4, 4))
        assert math.isfinite(rep.bound)
