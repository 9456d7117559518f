"""Seeded workloads: the ops each workload runs, and the check of every op.

Every input comes from the seed passed to the benchmark.  A round is a
fixed list of op specs drawn from that seed; a run repeats the round
in whole rounds, so the correctness figures and the evaluation
counts of a run depend on the seed alone, never on how fast it ran.
Ops are independent: no norm cache is shared between them.

Known defects at the commit the benchmark was written against are
counted, never excluded.  Two op classes carry them: the steep ``tanh``
family at finite p (its sampled line norms miss the spike, so bounds
come out below the true error) and ``search_min`` at q = inf (the search
overfits its sup grid).  Their failures count in every failure figure;
they only do not make a run "incorrect", which any other failure does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import certquad as cq
import certquad.cli as cq_cli
from certquad import minimizer as cq_minimizer
from certquad import norms as cq_norms
from certquad import oracle as cq_oracle
from certquad import rules as cq_rules

import env

P_TEXTS = ("1", "1.5", "2", "3", "inf")
Q_TEXTS = ("1.5", "2", "3", "inf")
COMPOSITE_RULES = ("composite-trapezoid", "composite-midpoint")
STEEP = "steep"
#: Scan-grid size of the line norms; the steep family's x0 sits between two of its points.
SCAN_POINTS = 256
#: Panel cap for the quadrature-only oracle: 64 panels of 16 nodes per axis is a
#: 1024 x 1024 grid (8 MB).  The package default, 1024 panels, would allow a 2 GB
#: grid if a cross-check ever failed to converge.
ORACLE_MAX_PANELS = 64
SCHEMA_KEYS = {"command", "inputs", "estimate", "oracle", "bound", "provenance", "pass"}
BOUND_KEYS = {"total", "fx_term", "fy_term", "fxy_term"}
MINIMIZE_TOL = 1e-6
MINIMIZE_COEF_TOL = 1e-4
MINIMIZE_RESTARTS = 8
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Outcome:
    """The checked result of one op."""

    group: str  # the op class failures are broken down by
    ok: bool  # certified-correct
    violated: bool = False  # reported a bound below the true error
    known_defect: bool = False  # op class with a known failure at the baseline
    ratio: float | None = None  # bound / |true error|, when the error is not negligible
    reason: str = ""


@dataclass(frozen=True)
class CertifySpec:
    family: str  # a registry name, or STEEP
    rect: tuple[float, float, float, float]
    rule: str
    m: int
    p: str
    slot: int = 0  # steep family: x0 lies halfway between scan points slot and slot + 1


@dataclass(frozen=True)
class CliSpec:
    command: str
    function: str
    rect: tuple[float, float, float, float]
    argv: tuple[str, ...]


@dataclass(frozen=True)
class MinimizeSpec:
    q: str
    seed: int


#: Seed of the fixed part of every workload's design (see ``_rect``).
DESIGN_SEED = 1905_05805


def _rngs(seed: int, workload: str) -> tuple[np.random.Generator, np.random.Generator]:
    """The design stream (the same for every seed) and the run's seeded stream."""
    tag = sum(map(ord, workload))
    return np.random.default_rng([DESIGN_SEED, tag]), np.random.default_rng([seed, tag])


def _rect(design: np.random.Generator, rng: np.random.Generator) -> tuple[float, float, float, float]:
    """A rectangle of the fixed design, moved by up to 0.05 and scaled by up to 5% by the seed.

    Bound tightness is a per-op figure that moves by tens of percent with
    the rectangle, so fully random rectangles would make the median differ
    between seeds more than any bound the benchmark can keep.  Corners stay
    >= -0.25, which keeps 1 + a + c >= 0.5 inside invsum's domain; sides
    stay within 0.52 to 1.52, which keeps every closed form below ~100,
    where the oracle's absolute 1e-12 tolerance is reachable.
    """
    a, c = design.uniform(-0.2, 0.7, 2) + rng.uniform(-0.05, 0.05, 2)
    w, h = design.uniform(0.55, 1.45, 2) * rng.uniform(0.95, 1.05, 2)
    return (float(a), float(a + w), float(c), float(c + h))


# --- the steep family -------------------------------------------------------


def _log_cosh(z: float) -> float:
    z = abs(z)
    return z + math.log1p(math.exp(-2.0 * z)) - math.log(2.0)


def steep_integrand(rect: cq.Rectangle, slot: int) -> cq.Integrand:
    """f = tanh((x - x0)/eps), eps = 1e-4 width, with exact partials and integral."""
    eps = 1e-4 * rect.width
    x0 = rect.a + rect.width * (slot + 0.5) / SCAN_POINTS

    def zero(x, y):
        return 0.0 * np.asarray(x, dtype=float) + 0.0 * np.asarray(y, dtype=float)

    def f(x, y):
        return np.tanh((np.asarray(x, dtype=float) - x0) / eps) + zero(x, y)

    def fx(x, y):
        # sech^2 z = 4 e^{-2|z|} / (1 + e^{-2|z|})^2 never overflows
        t = np.exp(-2.0 * np.abs((np.asarray(x, dtype=float) - x0) / eps))
        return 4.0 * t / (1.0 + t) ** 2 / eps + zero(x, y)

    exact = rect.height * eps * (_log_cosh((rect.b - x0) / eps) - _log_cosh((rect.a - x0) / eps))
    return cq.Integrand(f=f, fx=fx, fy=zero, fxy=zero, exact_integral=exact, label=STEEP)


# --- certify-fine and certify-coarse ----------------------------------------

#: m = n of the cells of a round.  certify-fine runs its m = 32 and m = 64
#: cells twice: its op latencies cluster by m and p, and with one cell per m
#: the median op sat at the lower edge of the m = 32 finite-p cluster, where
#: the median latency jumped between clusters from run to run.
CERTIFY_SIZES = {"certify-fine": (16, 32, 32, 64, 64), "certify-coarse": (1, 2, 1, 2)}


def certify_round(workload: str, seed: int) -> list[CertifySpec]:
    """A balanced round: each (p, m) cell runs every registry integrand once and the steep family once per rule.

    300 ops per certify-fine round, 240 per certify-coarse round.

    The steep share of every certify round is thus 2 / (2 + 10) = 1/6.  The
    rule of a registry op alternates with integrand and cell, so the mix of
    integrands, p, m and rules is the same in every round.  The seed moves
    the rectangles, draws the steep family's x0 and orders the ops.
    """
    design, rng = _rngs(seed, workload)
    cells = [(p, m) for p in P_TEXTS for m in CERTIFY_SIZES[workload]]
    specs = []
    for c, (p, m) in enumerate(cells):
        for i, name in enumerate(cq.names()):
            specs.append(CertifySpec(name, _rect(design, rng), COMPOSITE_RULES[(i + c) % 2], m, p))
        for rule in COMPOSITE_RULES:
            slot = int(rng.integers(32, SCAN_POINTS - 32))
            specs.append(CertifySpec(STEEP, _rect(design, rng), rule, m, p, slot))
    return [specs[i] for i in rng.permutation(len(specs))]


def build_integrand(spec: CertifySpec, tracer=None) -> cq.Integrand:
    rect = cq.Rectangle(*spec.rect)
    if spec.family == STEEP:
        f = steep_integrand(rect, spec.slot)
    else:
        f = cq.get_entry(spec.family).integrand(rect)
    return tracer.count_integrand(f) if tracer is not None else f


def run_certify(spec: CertifySpec, tracer=None) -> Outcome:
    """Estimate + derivative norms + bound, checked against the closed form.

    Registry ops also run the quadrature-only oracle (``exact_integral``
    stripped) and check it against the closed form.  The steep family
    never does: its grid would need the full panel budget.
    """
    steep = spec.family == STEEP
    group = f"steep p={spec.p}" if steep else "registry"
    known = steep and spec.p != "inf"
    f = build_integrand(spec, tracer)
    rect = cq.Rectangle(*spec.rect)
    part = cq.PartitionSpec(rect, spec.m, spec.m)
    p = cq.Exponent.parse(spec.p)
    try:
        if spec.rule == "composite-trapezoid":
            estimate = cq_rules.composite_trapezoid_estimate(f, rect, part)
            bundle = cq_norms.derivative_norms(f, rect, p, partition=part, rule_family="trapezoid")
            bound = cq_rules.composite_trapezoid_bound(bundle, rect, part).total
        else:
            estimate = cq_rules.composite_midpoint_estimate(f, rect, part)
            bundle = cq_norms.derivative_norms(f, rect, p, partition=part, rule_family="midpoint")
            bound = cq_rules.composite_midpoint_bound(bundle, rect, part).total
    except Exception as exc:  # a refusal or a crash: the op is counted as failed
        return Outcome(group, ok=False, known_defect=known, reason=f"{type(exc).__name__}: {exc}")
    exact = f.exact_integral
    error = abs(estimate - exact)
    violated = not cq_cli.certificate_ok(error, bound)
    reason = "bound below true error" if violated else ""
    if not steep:
        reason = reason or _oracle_check(f, rect, exact)
    significant = error > cq_cli.CERT_MARGIN_REL * (1.0 + abs(exact))
    return Outcome(
        group, ok=not reason, violated=violated, known_defect=known,
        ratio=bound / error if significant else None, reason=reason,
    )


def _oracle_check(f: cq.Integrand, rect: cq.Rectangle, exact: float) -> str:
    saved = cq_oracle.MAX_PANELS_PER_AXIS
    cq_oracle.MAX_PANELS_PER_AXIS = ORACLE_MAX_PANELS
    try:
        value, err = cq_oracle.oracle_integrate(replace(f, exact_integral=None), rect)
    except Exception as exc:
        return f"oracle {type(exc).__name__}: {exc}"
    finally:
        cq_oracle.MAX_PANELS_PER_AXIS = saved
    if abs(value - exact) > err + cq_cli.CERT_MARGIN_REL * (1.0 + abs(exact)):
        return f"oracle {value!r} off closed form {exact!r} (err est {err:.3g})"
    return ""


# --- cli ----------------------------------------------------------------------

#: The CLI design: (command, integrand, rule, p, partition arguments).  It
#: runs each command twice, all four rules, every p and partitions up to
#: 8 x 8, on integrands the rules do not integrate exactly, so every
#: process adds a tightness figure.
CLI_PANEL = (
    ("integrate", "sinsin", "composite-trapezoid", "2", ("--m", "4", "--n", "3")),
    ("integrate", "invsum", "midpoint", "1", ()),
    ("bound", "expsum", "composite-midpoint", "inf", ("--m", "5", "--n", "8")),
    ("bound", "poly22", "trapezoid", "1.5", ()),
    ("converge", "sinsum", "composite-trapezoid", "3", ("--levels", "3")),
    ("converge", "cubes", "composite-midpoint", "2", ("--levels", "2")),
)


def cli_round(seed: int) -> list[CliSpec]:
    """Six one-shot CLI processes from ``CLI_PANEL``; the seed moves their rectangles and orders them."""
    design, rng = _rngs(seed, "cli")
    specs = []
    for command, function, rule, p, partition in CLI_PANEL:
        rect = _rect(design, rng)
        argv = (command, "--function", function, "--rect", *map(repr, rect), "--p", p, "--rule", rule,
                *partition, "--format", "json")
        specs.append(CliSpec(command, function, rect, argv))
    return [specs[i] for i in rng.permutation(len(specs))]


def run_cli(spec: CliSpec, tracer=None) -> Outcome:
    """One CLI process: exit code 0, the JSON schema, the oracle value and every certificate."""
    group = f"cli {spec.command}"
    if tracer is None:
        argv = [sys.executable, "-m", "certquad", *spec.argv]
    else:
        argv = [sys.executable, str(env.BENCH / "probe.py"), "cli", *spec.argv]
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True,
            env=env.child_env(), cwd=env.ROOT, timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Outcome(group, ok=False, reason=f"timed out after {CLI_TIMEOUT_S} s")
    if tracer is not None:
        lines = proc.stderr.strip().splitlines()
        if lines and lines[-1].startswith("TRACE "):
            tracer.merge(json.loads(lines[-1][len("TRACE "):]))
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return Outcome(group, ok=False, reason=f"exit {proc.returncode}, no JSON: {proc.stderr.strip()[-200:]}")
    reports = payload if spec.command == "converge" else [payload]
    exact = cq.get_entry(spec.function).exact(cq.Rectangle(*spec.rect))
    reason = "" if proc.returncode == cq_cli.OK else f"exit code {proc.returncode}"
    violated = False
    ratio = None
    for report in reports:
        if set(report) != SCHEMA_KEYS or set(report["bound"]) != BOUND_KEYS or set(report["oracle"]) != {"value", "err"}:
            return Outcome(group, ok=False, reason="JSON schema mismatch")
        slack = cq_cli.CERT_MARGIN_REL * (1.0 + abs(exact))
        oracle = report["oracle"]["value"]
        if spec.command != "bound" and (oracle is None or abs(oracle - exact) > slack):
            reason = reason or f"oracle {oracle!r} off closed form {exact!r}"
        error = abs(report["estimate"] - exact)
        bound = report["bound"]["total"]
        if not cq_cli.certificate_ok(error, bound):
            violated = True
            reason = reason or "bound below true error"
        # the last report is the finest level of a converge sweep
        ratio = bound / error if error > slack else None
    return Outcome(group, ok=not reason, violated=violated, ratio=ratio, reason=reason)


# --- minimize -----------------------------------------------------------------


#: Searches per q in a minimize round.  The work of a search depends on its
#: seed (q = inf makes 11k to 14k objective evaluations), so a round averages
#: two seeds per q.
SEARCHES_PER_Q = 2


def minimize_round(seed: int) -> list[MinimizeSpec]:
    """Two searches per q, each with its own search seed drawn from the workload seed."""
    _, rng = _rngs(seed, "minimize")
    return [MinimizeSpec(q, int(rng.integers(2**31))) for q in Q_TEXTS for _ in range(SEARCHES_PER_Q)]


def run_minimize(spec: MinimizeSpec, tracer=None) -> Outcome:
    """``search_min`` checked with the rule ``minimize-norm`` uses.

    Pass: |achieved - closed form| <= 1e-6 and, at finite q, max |coef| <= 1e-4.
    A feasible weight's norm bounds the minimum from above, so an achieved
    norm below the closed form counts as a violation; ``ratio`` is that
    upper bound over the closed-form minimum.
    """
    q = cq.Exponent.parse(spec.q)
    group = f"q={spec.q}"
    known = q.is_infinite
    try:
        if tracer is None:
            result = cq_minimizer.search_min(q, restarts=MINIMIZE_RESTARTS, seed=spec.seed)
        else:
            with tracer.span(f"minimizer.search.q{spec.q}"):
                result = cq_minimizer.search_min(q, restarts=MINIMIZE_RESTARTS, seed=spec.seed)
    except Exception as exc:
        return Outcome(group, ok=False, known_defect=known, reason=f"{type(exc).__name__}: {exc}")
    target = cq_minimizer.min_phi_norm_value(q)
    gap = abs(result.achieved_norm - target)
    coef = max(abs(c) for c in result.coefficients)
    if tracer is not None:  # the worst search at this q
        for name, value in ((f"minimizer.norm_gap.q{spec.q}", gap), (f"minimizer.max_coef.q{spec.q}", coef)):
            tracer.values[name] = max(tracer.values.get(name, 0.0), value)
    reason = ""
    if gap > MINIMIZE_TOL:
        reason = f"norm {result.achieved_norm!r} vs closed form {target!r}"
    elif not (q.is_infinite or q.is_one) and coef > MINIMIZE_COEF_TOL:
        reason = f"max |coef| {coef:.3g} > {MINIMIZE_COEF_TOL}"
    violated = result.achieved_norm < target - MINIMIZE_TOL
    return Outcome(
        group, ok=not reason, violated=violated, known_defect=known,
        ratio=result.achieved_norm / target, reason=reason,
    )


# --- warm-up and the registry of workloads --------------------------------------

WARM_CERTIFY = CertifySpec("sinsin", (0.0, 1.0, 0.0, 1.0), "composite-trapezoid", 2, "2")
WARM_CLI_ARGV = ("integrate", "--function", "sinsin", "--rule", "composite-trapezoid",
                 "--m", "2", "--n", "2", "--p", "2", "--format", "json")


def warm_up(workload: str) -> None:
    """The fixed op a fresh process runs before its first timed op.

    ``cli`` runs one small command in-process.  ``minimize`` runs a
    one-restart search: the first search in a fresh process runs about
    three times slower until the allocator has freed one large array (the
    search's final 512-resolution re-evaluation does).
    """
    if workload == "minimize":
        cq_minimizer.search_min(cq.Exponent.parse("2"), restarts=1, seed=0)
    elif workload == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            cq_cli.main(list(WARM_CLI_ARGV))
    else:
        run_certify(WARM_CERTIFY)


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[int], list]  # seed -> the round's op specs
    run_op: Callable[..., Outcome]  # (spec, tracer or None) -> Outcome
    layers: tuple[str, ...]  # layer groups its ops reach: "certify", "cli.compute", "minimizer"


WORKLOADS = {
    "certify-fine": Workload("certify-fine", lambda s: certify_round("certify-fine", s), run_certify, ("certify",)),
    "certify-coarse": Workload("certify-coarse", lambda s: certify_round("certify-coarse", s), run_certify, ("certify",)),
    "cli": Workload("cli", cli_round, run_cli, ("cli.compute", "certify")),
    "minimize": Workload("minimize", minimize_round, run_minimize, ("minimizer",)),
}
