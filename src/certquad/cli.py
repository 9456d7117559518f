"""Command-line front end and the certificate-validity matrix.

Subcommands: integrate, bound, converge, verify-identity, minimize-norm,
corpus-report.  Reports print as text tables or as JSON objects with the
fixed schema

    {command, inputs, estimate, oracle: {value, err},
     bound: {total, fx_term, fy_term, fxy_term}, provenance: [...], pass}

(converge emits a JSON list of such objects, one per refinement level).
integrate, bound and every converge level go through one checked-report
step, ``_checked_report``: the rule's report, its certificate when an
oracle value is given, and the JSON payload, whose m and n are those of
the partition the report used.  The parsed ``argparse.Namespace`` is the
only configuration object; each shared flag is declared once, in a
parent parser (``_shared_flags``).

Exit codes: 0 success, 1 certificate violation, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .core import (
    BUILTIN_RULES,
    EvaluationError,
    Exponent,
    PartitionSpec,
    QuadratureConvergenceError,
    Rectangle,
    RegistryError,
    SearchFailureError,
)
from .minimizer import min_phi_norm_value, search_min
from .oracle import oracle_integrate, parts_identity_sides
from .registry import get_entry, names
from .rules import rule_report
from .weights import CompositeMidpointPhi, CompositeTrapezoidPhi

OK, CERT_VIOLATION, USAGE_ERROR, NUMERIC_FAILURE = 0, 1, 2, 3

RULES = tuple(BUILTIN_RULES)
DEFAULT_P_GRID = ("1", "1.5", "2", "3", "inf")
DEFAULT_N_GRID = (1, 2, 4, 8)

#: Floating slack when comparing an oracle error against a certified
#: bound: the bound arithmetic is plain double precision (no directed
#: rounding), so certificates hold up to ~1e-12 relative rounding.
CERT_MARGIN_REL = 1e-12


@dataclass(frozen=True)
class MatrixCase:
    function: str
    rule: str
    p: str
    m: int
    n: int
    estimate: float
    oracle_value: float
    error: float
    bound: float
    passed: bool


def certificate_ok(error: float, bound: float, tol: float = 0.0, scale: float = 1.0) -> bool:
    """|error| <= bound up to a relative margin: max(tol, CERT_MARGIN_REL) * (scale + |bound|).

    ``scale`` is the size of the integral, so the margin shrinks with the
    integrand instead of forgiving every error below ``tol``.
    """
    return error <= bound + max(tol, CERT_MARGIN_REL) * (scale + abs(bound))


def certificate_matrix(
    function_names=None,
    rect: Rectangle | None = None,
    p_values=DEFAULT_P_GRID,
    ns=DEFAULT_N_GRID,
    rules=RULES,
    resolution: int = 192,
) -> list[MatrixCase]:
    """Run the full certificate-validity cross product.

    Every case checks |estimate - oracle| <= bound.  The composite rules
    run once per n in ``ns``; the simple rules ignore the partition and
    run once per (integrand, p).  Line norms are memoized per integrand
    across partitions and rules.
    """
    rect = rect if rect is not None else Rectangle.unit()
    function_names = tuple(function_names) if function_names is not None else names()
    cases: list[MatrixCase] = []
    for fname in function_names:
        entry = get_entry(fname)
        f = entry.integrand(rect)
        oracle_value, _ = oracle_integrate(f, rect)
        cache: dict = {}
        for ptext in p_values:
            p = Exponent.parse(str(ptext))
            for rule in rules:
                parts = [PartitionSpec(rect, n, n) for n in ns] if BUILTIN_RULES[rule][1] else [None]
                for part in parts:
                    report = rule_report(f, rect, rule, p, part, resolution, cache)
                    error = abs(report.estimate - oracle_value)
                    cases.append(
                        MatrixCase(
                            function=fname, rule=rule, p=str(p),
                            m=report.partition.m, n=report.partition.n,
                            estimate=report.estimate, oracle_value=oracle_value,
                            error=error, bound=report.bound,
                            passed=certificate_ok(error, report.bound),
                        )
                    )
    return cases


def _schema(command, inputs, estimate=None, oracle=None, bound=None, provenance=(), passed=True):
    return {
        "command": command,
        "inputs": inputs,
        "estimate": estimate,
        "oracle": dict.fromkeys(("value", "err")) if oracle is None else oracle,
        "bound": dict.fromkeys(("total", "fx_term", "fy_term", "fxy_term")) if bound is None else bound,
        "provenance": list(provenance),
        "pass": bool(passed),
    }


def _emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _at_least(flag: str, value: int, minimum: int) -> int:
    if value < minimum:
        raise ValueError(f"{flag} must be at least {minimum}, got {value}")
    return value


def _tolerance(text: str) -> float:
    """A --tol value: a finite float >= 0; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _checked_report(args, keys, f, rect: Rectangle, p: Exponent, part, oracle=None, cache=None):
    """The one report step of integrate, bound and every converge level.

    Runs ``rule_report`` and, when ``oracle`` (value, err) is given, checks
    |estimate - oracle| against the bound with ``args.tol`` relative to
    |estimate| + bound.  Returns the report, that error (None without an
    oracle) and the JSON payload, whose ``inputs`` lists ``keys`` in
    order, with m and n read off the partition the report used.
    """
    report = rule_report(f, rect, args.rule, p, part, args.resolution, cache)
    error, passed = None, True
    if oracle is not None:
        error = abs(report.estimate - oracle[0])
        passed = certificate_ok(error, report.bound, args.tol, abs(report.estimate))
    used = {"m": report.partition.m, "n": report.partition.n}
    provenance = list(report.notes)
    norms = report.norms_used.provenance if report.norms_used is not None else None
    if norms:
        provenance.append("norms: " + ", ".join(f"{k}={v}" for k, v in sorted(norms.items())))
    payload = _schema(
        args.command,
        {key: used[key] if key in used else getattr(args, key) for key in keys},
        estimate=report.estimate,
        oracle=None if oracle is None else {"value": oracle[0], "err": oracle[1]},
        bound={"total": report.bound, "fx_term": report.fx_term,
               "fy_term": report.fy_term, "fxy_term": report.fxy_term},
        provenance=provenance,
        passed=passed,
    )
    return report, error, payload


def _cmd_report(args) -> int:
    """integrate and bound: one checked report; integrate also checks it against the oracle."""
    rect = Rectangle(*args.rect)
    p = Exponent.parse(args.p)
    f = get_entry(args.function).integrand(rect)
    part = PartitionSpec(rect, args.m, args.n) if BUILTIN_RULES[args.rule][1] else None
    checked = args.command == "integrate"
    oracle = oracle_integrate(f, rect) if checked else None
    keys = ("function", "rect", "p", "rule", "m", "n", "resolution") + (("tol",) if checked else ())
    report, error, payload = _checked_report(args, keys, f, rect, p, part, oracle)
    rows = [("rule", f"{args.rule} (p={p})"), ("estimate", f"{report.estimate:.12g}")]
    if checked:
        rows += [("oracle", f"{oracle[0]:.12g} (err est {oracle[1]:.3g})"), ("|error|", f"{error:.6g}")]
    rows.append((
        "bound",
        f"{report.bound:.6g} "
        f"(fx {report.fx_term:.4g} + fy {report.fy_term:.4g} + fxy {report.fxy_term:.4g})",
    ))
    if checked:
        rows.append(("certificate", "ok" if payload["pass"] else "VIOLATED"))
    width = max(len(name) for name, _ in rows)
    _emit(payload, args.output_format, [f"{name:<{width}} : {text}" for name, text in rows])
    return OK if payload["pass"] else CERT_VIOLATION


def _cmd_converge(args) -> int:
    if not BUILTIN_RULES[args.rule][1]:
        raise ValueError("converge needs a composite rule")
    levels = _at_least("--levels", args.levels, 0)
    rect = Rectangle(*args.rect)
    p = Exponent.parse(args.p)
    f = get_entry(args.function).integrand(rect)
    oracle = oracle_integrate(f, rect)
    cache: dict = {}
    keys = ("function", "rect", "p", "rule", "resolution", "tol", "m", "n")
    rows = [f"{'n':>6} {'estimate':>18} {'|error|':>12} {'bound':>12} {'bound/err':>10}"]
    payloads = []
    for n in (2**k for k in range(levels + 1)):
        report, error, payload = _checked_report(
            args, keys, f, rect, p, PartitionSpec(rect, n, n), oracle, cache)
        ratio = report.bound / error if error > 0 else float("inf")
        payloads.append(payload)
        rows.append(f"{n:6d} {report.estimate:18.12g} {error:12.4e} {report.bound:12.4e} {ratio:10.3g}")
    _emit(payloads, args.output_format, rows)
    return OK if all(payload["pass"] for payload in payloads) else CERT_VIOLATION


_WEIGHT_CLASSES = {"trapezoid": CompositeTrapezoidPhi, "midpoint": CompositeMidpointPhi}


def _cmd_verify_identity(args) -> int:
    rect = Rectangle(*args.rect)
    f = get_entry(args.function).integrand(rect)
    part = PartitionSpec(rect, args.m, args.n)
    family, partitioned = BUILTIN_RULES[args.weight]
    w = _WEIGHT_CLASSES[family](rect, part if partitioned else PartitionSpec(rect, 1, 1))
    m, n = w.partition.m, w.partition.n
    lhs, rhs = parts_identity_sides(f, w, rect, args.resolution)
    residual = abs(lhs - rhs)
    passed = residual <= args.tol * (1.0 + abs(lhs))
    payload = _schema(
        args.command,
        {"function": args.function, "rect": args.rect, "weight": args.weight, "m": m, "n": n,
         "resolution": args.resolution, "tol": args.tol},
        estimate=rhs,
        oracle={"value": lhs, "err": 0.0},
        bound={"total": residual, "fx_term": None, "fy_term": None, "fxy_term": None},
        provenance=[f"residual {residual:.3e} vs tolerance {args.tol:.1e}*(1+|integral|)"],
        passed=passed,
    )
    _emit(payload, args.output_format, [
        f"weight    : {args.weight} ({m}x{n})",
        f"integral  : {lhs:.12g}",
        f"identity  : {rhs:.12g}",
        f"residual  : {residual:.3e} ({'ok' if passed else 'FAILED'})",
    ])
    return OK if passed else CERT_VIOLATION


def _cmd_minimize_norm(args) -> int:
    q = Exponent.parse(args.q)
    result = search_min(q, restarts=_at_least("--restarts", args.restarts, 1), seed=args.seed)
    target = min_phi_norm_value(q)
    coeff_mag = max(abs(v) for v in result.coefficients)
    passed = abs(result.achieved_norm - target) <= args.tol
    if not q.is_infinite and not q.is_one:
        passed = passed and coeff_mag <= 1e-4
    payload = _schema(
        args.command,
        {"q": args.q, "restarts": args.restarts, "seed": args.seed, "tol": args.tol},
        estimate=result.achieved_norm,
        oracle={"value": target, "err": 0.0},
        provenance=[
            "coefficients: " + " ".join(f"{v:.3e}" for v in result.coefficients),
            f"max |coefficient| = {coeff_mag:.3e}",
        ],
        passed=passed,
    )
    _emit(payload, args.output_format, [
        f"q               : {q}",
        f"achieved norm   : {result.achieved_norm:.10g}",
        f"closed-form min : {target:.10g}",
        f"max |coeff|     : {coeff_mag:.3e}",
        f"status          : {'ok' if passed else 'FAILED'}",
    ])
    return OK if passed else CERT_VIOLATION


def _cmd_corpus_report(args) -> int:
    max_n = _at_least("--max-n", args.max_n, 1)
    ns = tuple(n for n in DEFAULT_N_GRID if n <= max_n)
    cases = certificate_matrix(ns=ns, rect=Rectangle(*args.rect), resolution=args.resolution)
    violations = [c for c in cases if not c.passed]
    summary = f"{len(cases)} cases, {len(violations)} violations"
    payload = _schema(
        args.command,
        {"rect": args.rect, "resolution": args.resolution, "max_n": max_n},
        provenance=[
            summary,
            *(
                f"VIOLATION {c.function} {c.rule} p={c.p} n={c.n}: "
                f"error {c.error:.3e} > bound {c.bound:.3e}"
                for c in violations
            ),
        ],
        passed=not violations,
    )
    _emit(payload, args.output_format, [
        f"{'function':>8} {'rule':>20} {'p':>4} {'n':>2} {'|error|':>12} {'bound':>12} ok",
        *(
            f"{c.function:>8} {c.rule:>20} {c.p:>4} {c.n:>2} "
            f"{c.error:12.4e} {c.bound:12.4e} {'y' if c.passed else 'VIOLATION'}"
            for c in cases
        ),
        summary,
    ])
    return OK if not violations else CERT_VIOLATION


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        return args.handler(args)
    except RegistryError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return USAGE_ERROR
    except (QuadratureConvergenceError, SearchFailureError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _shared_flags() -> dict[str, argparse.ArgumentParser]:
    """Fresh parent parsers, one per shared flag (``partition`` holds --m and --n).

    Every shared flag is declared here once.  Each subcommand takes a
    fresh set, because argparse shares a parent's actions with its
    children: one subcommand's ``set_defaults`` would change another's.
    """
    groups = ("function", "rect", "p", "rule", "partition", "resolution", "format", "tol")
    flags = {group: argparse.ArgumentParser(add_help=False) for group in groups}
    flags["function"].add_argument("--function", default="poly22", help="registry integrand name")
    flags["rect"].add_argument(
        "--rect", nargs=4, type=float, default=(0.0, 1.0, 0.0, 1.0),
        metavar=("A", "B", "C", "D"), help="integration rectangle [a b] x [c d]",
    )
    flags["p"].add_argument("--p", default="inf", help='exponent: decimal or "inf"/"infinity"')
    flags["rule"].add_argument("--rule", default="trapezoid", choices=RULES)
    flags["partition"].add_argument("--m", type=int, default=1, help="x subintervals")
    flags["partition"].add_argument("--n", type=int, default=1, help="y subintervals")
    flags["resolution"].add_argument("--resolution", type=int, default=256)
    flags["format"].add_argument("--format", dest="output_format", default="text", choices=("text", "json"))
    flags["tol"].add_argument("--tol", type=_tolerance, default=1e-8, help="tolerance: finite and >= 0")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certquad",
        description="Certified-error trapezoidal/midpoint cubature over rectangles",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, shared, **defaults):
        flags = _shared_flags()
        sub = subs.add_parser(name, help=help, parents=[flags[key] for key in shared.split()])
        sub.set_defaults(handler=handler, **defaults)
        return sub

    report = "function rect p rule partition resolution format"
    command("integrate", "estimate, oracle comparison and bound", _cmd_report, report + " tol")
    command("bound", "estimate and certified bound only", _cmd_report, report)
    conv = command("converge", "sweep m=n over powers of two", _cmd_converge,
                   report.replace(" partition", "") + " tol")
    conv.add_argument("--levels", type=int, default=5, help="sweep n = 1..2^levels")
    ver = command("verify-identity", "integration-by-parts residual", _cmd_verify_identity,
                  "function rect partition resolution format tol")
    ver.add_argument("--weight", default="trapezoid", choices=RULES)

    mini = command("minimize-norm", "search the minimal weight norm", _cmd_minimize_norm, "tol format", tol=1e-6)
    mini.add_argument("--q", default="2", help='norm exponent: decimal or "inf"')
    mini.add_argument("--restarts", type=int, default=8)
    mini.add_argument("--seed", type=int, default=0)

    rep = command("corpus-report", "full certificate-validity matrix", _cmd_corpus_report,
                  "rect resolution format", resolution=192)
    rep.add_argument("--max-n", dest="max_n", type=int, default=8)
    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
