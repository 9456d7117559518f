"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite targets desk scale (well under five minutes).
"""

import time

import numpy as np

import certquad as cq
from certquad.cli import certificate_matrix
from conftest import RECT_SET, integrand

UNIT = cq.Rectangle.unit()
SKEW = cq.Rectangle(-2.0, 3.0, 1.0, 4.0)


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_certificate_validity_matrix():
    t0 = time.monotonic()
    # full registry x 5 p x (2 composite rules x 4 partitions + 2 simple rules): 500 cases
    cases = certificate_matrix()
    elapsed = time.monotonic() - t0
    violations = [c for c in cases if not c.passed]
    ok = not violations and elapsed < 60.0
    report(
        1, ok,
        f"certificate validity: {len(cases)} cases, {len(violations)} violations, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_exactness_for_low_degree_span():
    worst = 0.0
    for rect in (UNIT, SKEW):
        # the simple rules are the composite ones on 1 x 1
        parts = [cq.PartitionSpec(rect, m, n) for m, n in ((1, 1), (3, 2), (4, 4))]
        for name in ("one", "x", "y", "xy"):
            f = integrand(name, rect)
            exact = f.exact_integral
            values = []
            for part in parts:
                values.append(cq.composite_trapezoid_estimate(f, rect, part))
                values.append(cq.composite_midpoint_estimate(f, rect, part))
            worst = max(worst, max(abs(v - exact) / abs(exact) for v in values))
    report(2, worst <= 1e-12, f"exactness on span{{1,x,y,xy}}: max rel err {worst:.2e} <= 1e-12")


def test_criterion_3_weight_norm_audit():
    qs = (1, 1.5, 2, 3, cq.INF)
    worst = 0.0
    count = 0
    for rect in RECT_SET:
        variants = []
        for m in (1, 2, 4):
            for n in (1, 2, 4):
                part = cq.PartitionSpec(rect, m, n)
                variants.append(cq.CompositeTrapezoidPhi(rect, part))
                variants.append(cq.CompositeMidpointPhi(rect, part))
        for w in variants:
            for q in qs:
                closed = cq.phi_norm_closed(w, q)
                numeric = cq.phi_norm_numeric(w, q, resolution=128)
                worst = max(worst, abs(closed - numeric) / (1.0 + closed))
                count += 1
    report(
        3, worst <= 1e-6,
        f"weight-norm audit: {count} closed-vs-numeric comparisons, "
        f"worst rel gap {worst:.2e} <= 1e-6",
    )


def test_criterion_4_worked_bound_values():
    f = integrand("poly22", UNIT)
    oracle_value, _ = cq.oracle_integrate(f, UNIT)

    one = cq.PartitionSpec(UNIT, 1, 1)
    trap_bundle = cq.derivative_norms(f, UNIT, cq.INF)
    trap_bound = cq.composite_trapezoid_bound(trap_bundle, UNIT, one).total
    trap_err = abs(cq.composite_trapezoid_estimate(f, UNIT, one) - oracle_value)

    mid_bundle = cq.derivative_norms(f, UNIT, cq.INF, rule_family="midpoint")
    mid_bound = cq.composite_midpoint_bound(mid_bundle, UNIT, one).total
    mid_err = abs(cq.composite_midpoint_estimate(f, UNIT, one) - oracle_value)

    ok = (
        abs(trap_bound - 0.75) <= 1e-9
        and abs(trap_err - 5.0 / 36.0) <= 1e-9
        and abs(mid_bound - 0.5) <= 1e-9
        and abs(mid_err - 7.0 / 144.0) <= 1e-9
        and trap_err <= trap_bound
        and mid_err <= mid_bound
    )
    report(
        4, ok,
        f"worked values: trapezoid bound {trap_bound:.10f} (0.75), error {trap_err:.10f} "
        f"(5/36); midpoint bound {mid_bound:.10f} (0.5), error {mid_err:.10f} (7/144)",
    )


def test_criterion_5_minimum_weight_norm():
    t0 = time.monotonic()
    ok = True
    details = []
    for q in (1.5, 2, 3):
        res = cq.search_min(q, restarts=8, seed=0)
        gap = abs(res.achieved_norm - cq.min_phi_norm_value(q))
        cmax = max(abs(v) for v in res.coefficients)
        details.append(f"q={q}: gap {gap:.1e}, max|c| {cmax:.1e}")
        ok = ok and gap <= 1e-6 and cmax <= 1e-4
    sym = cq.Rectangle.symmetric()
    psi = cq.CustomPhi(lambda s: 0.0 * s, lambda t: 0.0 * t, sym)
    alt = cq.CustomPhi(lambda s: -np.abs(s), lambda t: np.abs(t), sym)
    for w, label in ((psi, "st"), (alt, "st-|s|+|t|")):
        norm = cq.phi_norm_numeric(w, cq.INF)
        details.append(f"{label}: {norm:.8f}")
        ok = ok and abs(norm - 1.0) <= 1e-6
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(5, ok, f"minimal weight norm: {'; '.join(details)}; {elapsed:.1f}s (< 120s)")


def test_criterion_6_parts_identity():
    functions = ("xy", "poly22", "cubes", "sinsin", "expsum", "sinsum")
    rects = (UNIT, cq.Rectangle(-1.0, 2.0, 0.5, 2.5))
    worst = 0.0
    count = 0
    for rect in rects:
        one, part = cq.PartitionSpec(rect, 1, 1), cq.PartitionSpec(rect, 2, 2)
        weights = (
            cq.CompositeTrapezoidPhi(rect, one),
            cq.CompositeMidpointPhi(rect, one),
            cq.CompositeTrapezoidPhi(rect, part),
        )
        for name in functions:
            f = integrand(name, rect)
            lhs, _ = cq.oracle_integrate(f, rect)
            for w in weights:
                res = cq.parts_identity_residual(f, w, rect)
                worst = max(worst, res / (1.0 + abs(lhs)))
                count += 1
    report(
        6, worst <= 1e-8,
        f"parts identity: {count} residuals, worst {worst:.2e} <= 1e-8 relative",
    )


def test_criterion_7_convergence_rates():
    rect = cq.Rectangle(0.0, np.pi, 0.0, np.pi)
    ub = cq.UniformBounds(1.0, 1.0)  # |grad sin(x)sin(y)| <= 1, |cos x cos y| <= 1
    ns = np.array([2, 4, 8, 16, 32])
    slopes = {}
    for fam in ("composite-trapezoid", "composite-midpoint"):
        bounds = [cq.uniform_bound(fam, ub, rect, cq.PartitionSpec(rect, n, n)) for n in ns]
        slopes[fam] = float(np.polyfit(np.log(ns), np.log(bounds), 1)[0])
    slopes_ok = all(-1.15 <= s <= -0.85 for s in slopes.values())

    f = integrand("sinsin", rect)
    ratios = []
    prev = None
    for n in (2, 4, 8, 16):
        part = cq.PartitionSpec(rect, n, n)
        nb = cq.derivative_norms(f, rect, cq.INF, partition=part, rule_family="midpoint",
                                 resolution=96)
        term = cq.composite_midpoint_bound(nb, rect, part).fxy_term
        if prev is not None:
            ratios.append(prev / term)
        prev = term
    ratios_ok = all(abs(r - 4.0) <= 1e-9 for r in ratios)
    report(
        7, slopes_ok and ratios_ok,
        f"convergence: slopes {slopes} in [-1.15, -0.85]; "
        f"midpoint fxy-term doubling ratios {ratios} = 4 +/- 1e-9",
    )


def test_criterion_8_bound_branch_continuity():
    one, part = cq.PartitionSpec(UNIT, 1, 1), cq.PartitionSpec(UNIT, 2, 2)
    configs = (
        ("trapezoid", one, cq.composite_trapezoid_bound),
        ("midpoint", one, cq.composite_midpoint_bound),
        ("trapezoid", part, cq.composite_trapezoid_bound),
        ("midpoint", part, cq.composite_midpoint_bound),
    )
    pairs = ((cq.Exponent(1e6), cq.INF), (cq.Exponent(1.0 + 1e-6), cq.Exponent(1.0)))
    worst = 0.0
    for name in cq.names():
        f = integrand(name, UNIT)
        cache = {}
        for family, prt, op in configs:
            for pa, pb in pairs:
                totals = []
                for p in (pa, pb):
                    nb = cq.derivative_norms(f, UNIT, p, partition=prt, rule_family=family,
                                             resolution=128, cache=cache)
                    totals.append(op(nb, UNIT, prt).total)
                ta, tb = totals
                if tb == 0.0:
                    assert ta == 0.0
                    continue
                worst = max(worst, abs(ta - tb) / tb)
    report(
        8, worst <= 1e-3,
        f"branch continuity: worst relative gap {worst:.2e} <= 1e-3 "
        "(p=1e6 vs inf and p=1+1e-6 vs 1)",
    )
