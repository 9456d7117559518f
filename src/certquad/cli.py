"""Command-line front end and the certificate-validity matrix.

Subcommands: integrate, bound, converge, verify-identity, minimize-norm,
corpus-report.  Reports print as text tables or as JSON objects with the
fixed schema

    {command, inputs, estimate, oracle: {value, err},
     bound: {total, fx_term, fy_term, fxy_term}, provenance: [...], pass}

(converge emits a JSON list of such objects, one per refinement level).

Exit codes: 0 success, 1 certificate violation, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .core import (
    BUILTIN_RULES,
    EvaluationError,
    Exponent,
    PartitionSpec,
    QuadratureConvergenceError,
    QuadratureReport,
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

RULES = WEIGHT_NAMES = tuple(BUILTIN_RULES)
DEFAULT_P_GRID = ("1", "1.5", "2", "3", "inf")
DEFAULT_N_GRID = (1, 2, 4, 8)

#: Floating slack when comparing an oracle error against a certified
#: bound: the bound arithmetic is plain double precision (no directed
#: rounding), so certificates hold up to ~1e-12 relative rounding.
CERT_MARGIN_REL = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; one command with its inputs."""

    command: str
    function: str = "poly22"
    rect: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)
    p: str = "inf"
    rule: str = "trapezoid"
    m: int = 1
    n: int = 1
    resolution: int = 256
    output_format: str = "text"
    tol: float = 1e-8
    weight: str = "trapezoid"
    q: str = "2"
    restarts: int = 8
    seed: int = 0
    levels: int = 5
    max_n: int = 8


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


def certificate_ok(error: float, bound: float, tol: float = 0.0) -> bool:
    return error <= bound + max(tol, CERT_MARGIN_REL * (1.0 + abs(bound)))


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
        "oracle": {"value": None, "err": None} if oracle is None else oracle,
        "bound": {"total": None, "fx_term": None, "fy_term": None, "fxy_term": None}
        if bound is None
        else bound,
        "provenance": list(provenance),
        "pass": bool(passed),
    }


def _bound_dict(report: QuadratureReport) -> dict:
    return {
        "total": report.bound,
        "fx_term": report.fx_term,
        "fy_term": report.fy_term,
        "fxy_term": report.fxy_term,
    }


def _provenance(report: QuadratureReport) -> list[str]:
    out = list(report.notes)
    if report.norms_used is not None:
        prov = report.norms_used.provenance
        if prov:
            out.append("norms: " + ", ".join(f"{k}={v}" for k, v in sorted(prov.items())))
    return out


def _emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_report(cfg: RunConfig) -> int:
    """integrate and bound: one rule report; integrate also checks it against the oracle."""
    rect = Rectangle(*cfg.rect)
    p = Exponent.parse(cfg.p)
    entry = get_entry(cfg.function)
    f = entry.integrand(rect)
    part = PartitionSpec(rect, cfg.m, cfg.n) if BUILTIN_RULES[cfg.rule][1] else None
    report = rule_report(f, rect, cfg.rule, p, part, cfg.resolution)
    keys = ("function", "rect", "p", "rule", "m", "n", "resolution")
    rows = [("rule", f"{cfg.rule} (p={p})"), ("estimate", f"{report.estimate:.12g}")]
    bound_row = (
        "bound",
        f"{report.bound:.6g} "
        f"(fx {report.fx_term:.4g} + fy {report.fy_term:.4g} + fxy {report.fxy_term:.4g})",
    )
    oracle, passed = None, True
    if cfg.command == "integrate":
        oracle_value, oracle_err = oracle_integrate(f, rect)
        error = abs(report.estimate - oracle_value)
        passed = certificate_ok(error, report.bound, cfg.tol)
        oracle = {"value": oracle_value, "err": oracle_err}
        keys += ("tol",)
        rows += [
            ("oracle", f"{oracle_value:.12g} (err est {oracle_err:.3g})"),
            ("|error|", f"{error:.6g}"),
            bound_row,
            ("certificate", "ok" if passed else "VIOLATED"),
        ]
    else:
        rows.append(bound_row)
    payload = _schema(
        cfg.command,
        _inputs(cfg, keys),
        estimate=report.estimate,
        oracle=oracle,
        bound=_bound_dict(report),
        provenance=_provenance(report),
        passed=passed,
    )
    width = max(len(name) for name, _ in rows)
    _emit(payload, cfg.output_format, [f"{name:<{width}} : {text}" for name, text in rows])
    return OK if passed else CERT_VIOLATION


def _cmd_converge(cfg: RunConfig) -> int:
    if not BUILTIN_RULES[cfg.rule][1]:
        raise ValueError("converge needs a composite rule")
    rect = Rectangle(*cfg.rect)
    p = Exponent.parse(cfg.p)
    entry = get_entry(cfg.function)
    f = entry.integrand(rect)
    oracle_value, oracle_err = oracle_integrate(f, rect)
    cache: dict = {}
    rows = []
    payloads = []
    all_ok = True
    for k in range(cfg.levels + 1):
        n = 2**k
        part = PartitionSpec(rect, n, n)
        report = rule_report(f, rect, cfg.rule, p, part, cfg.resolution, cache)
        error = abs(report.estimate - oracle_value)
        ratio = report.bound / error if error > 0 else float("inf")
        passed = certificate_ok(error, report.bound, cfg.tol)
        all_ok = all_ok and passed
        inputs = _inputs(cfg, ("function", "rect", "p", "rule", "resolution", "tol"))
        inputs["m"] = inputs["n"] = n
        payloads.append(
            _schema(
                cfg.command, inputs,
                estimate=report.estimate,
                oracle={"value": oracle_value, "err": oracle_err},
                bound=_bound_dict(report),
                provenance=_provenance(report),
                passed=passed,
            )
        )
        rows.append(
            f"{n:6d} {report.estimate:18.12g} {error:12.4e} {report.bound:12.4e} {ratio:10.3g}"
        )
    if cfg.output_format == "json":
        print(json.dumps(payloads, indent=2))
    else:
        print(f"{'n':>6} {'estimate':>18} {'|error|':>12} {'bound':>12} {'bound/err':>10}")
        for row in rows:
            print(row)
    return OK if all_ok else CERT_VIOLATION


_WEIGHT_CLASSES = {"trapezoid": CompositeTrapezoidPhi, "midpoint": CompositeMidpointPhi}


def _cmd_verify_identity(cfg: RunConfig) -> int:
    rect = Rectangle(*cfg.rect)
    entry = get_entry(cfg.function)
    f = entry.integrand(rect)
    part = PartitionSpec(rect, cfg.m, cfg.n)
    family, partitioned = BUILTIN_RULES[cfg.weight]
    w = _WEIGHT_CLASSES[family](rect, part if partitioned else PartitionSpec(rect, 1, 1))
    lhs, rhs = parts_identity_sides(f, w, rect, cfg.resolution)
    residual = abs(lhs - rhs)
    passed = residual <= cfg.tol * (1.0 + abs(lhs))
    payload = _schema(
        cfg.command,
        _inputs(cfg, ("function", "rect", "weight", "m", "n", "resolution", "tol")),
        estimate=rhs,
        oracle={"value": lhs, "err": 0.0},
        bound={"total": residual, "fx_term": None, "fy_term": None, "fxy_term": None},
        provenance=[f"residual {residual:.3e} vs tolerance {cfg.tol:.1e}*(1+|integral|)"],
        passed=passed,
    )
    _emit(
        payload,
        cfg.output_format,
        [
            f"weight    : {cfg.weight} ({cfg.m}x{cfg.n})",
            f"integral  : {lhs:.12g}",
            f"identity  : {rhs:.12g}",
            f"residual  : {residual:.3e} ({'ok' if passed else 'FAILED'})",
        ],
    )
    return OK if passed else CERT_VIOLATION


def _cmd_minimize_norm(cfg: RunConfig) -> int:
    q = Exponent.parse(cfg.q)
    result = search_min(q, restarts=cfg.restarts, seed=cfg.seed)
    target = min_phi_norm_value(q)
    coeff_mag = max(abs(v) for v in result.coefficients)
    passed = abs(result.achieved_norm - target) <= cfg.tol
    if not q.is_infinite and not q.is_one:
        passed = passed and coeff_mag <= 1e-4
    payload = _schema(
        cfg.command,
        _inputs(cfg, ("q", "restarts", "seed", "tol")),
        estimate=result.achieved_norm,
        oracle={"value": target, "err": 0.0},
        provenance=[
            "coefficients: " + " ".join(f"{v:.3e}" for v in result.coefficients),
            f"max |coefficient| = {coeff_mag:.3e}",
        ],
        passed=passed,
    )
    _emit(
        payload,
        cfg.output_format,
        [
            f"q               : {q}",
            f"achieved norm   : {result.achieved_norm:.10g}",
            f"closed-form min : {target:.10g}",
            f"max |coeff|     : {coeff_mag:.3e}",
            f"status          : {'ok' if passed else 'FAILED'}",
        ],
    )
    return OK if passed else CERT_VIOLATION


def _cmd_corpus_report(cfg: RunConfig) -> int:
    ns = tuple(n for n in DEFAULT_N_GRID if n <= cfg.max_n)
    cases = certificate_matrix(ns=ns, rect=Rectangle(*cfg.rect), resolution=cfg.resolution)
    violations = [c for c in cases if not c.passed]
    passed = not violations
    payload = _schema(
        cfg.command,
        _inputs(cfg, ("rect", "resolution", "max_n")),
        provenance=[
            f"{len(cases)} cases, {len(violations)} violations",
            *(
                f"VIOLATION {c.function} {c.rule} p={c.p} n={c.n}: "
                f"error {c.error:.3e} > bound {c.bound:.3e}"
                for c in violations
            ),
        ],
        passed=passed,
    )
    if cfg.output_format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'function':>8} {'rule':>20} {'p':>4} {'n':>2} {'|error|':>12} {'bound':>12} ok")
        for c in cases:
            print(
                f"{c.function:>8} {c.rule:>20} {c.p:>4} {c.n:>2} "
                f"{c.error:12.4e} {c.bound:12.4e} {'y' if c.passed else 'VIOLATION'}"
            )
        print(f"{len(cases)} cases, {len(violations)} violations")
    return OK if passed else CERT_VIOLATION


def _inputs(cfg: RunConfig, keys) -> dict:
    out = {}
    for key in keys:
        v = getattr(cfg, key)
        out[key] = list(v) if isinstance(v, tuple) else v
    return out


_COMMANDS = {
    "integrate": _cmd_report,
    "bound": _cmd_report,
    "converge": _cmd_converge,
    "verify-identity": _cmd_verify_identity,
    "minimize-norm": _cmd_minimize_norm,
    "corpus-report": _cmd_corpus_report,
}


def run(cfg: RunConfig) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        return _COMMANDS[cfg.command](cfg)
    except (RegistryError,) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return USAGE_ERROR
    except (QuadratureConvergenceError, SearchFailureError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_FAILURE
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _add_common(sub: argparse.ArgumentParser, with_rule: bool = True) -> None:
    sub.add_argument("--function", default="poly22", help="registry integrand name")
    sub.add_argument(
        "--rect", nargs=4, type=float, default=(0.0, 1.0, 0.0, 1.0),
        metavar=("A", "B", "C", "D"), help="integration rectangle [a b] x [c d]",
    )
    sub.add_argument("--p", default="inf", help='exponent: decimal or "inf"/"infinity"')
    if with_rule:
        sub.add_argument("--rule", default="trapezoid", choices=RULES)
    sub.add_argument("--m", type=int, default=1, help="x subintervals")
    sub.add_argument("--n", type=int, default=1, help="y subintervals")
    sub.add_argument("--resolution", type=int, default=256)
    sub.add_argument("--format", dest="output_format", default="text", choices=("text", "json"))
    sub.add_argument("--tol", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certquad",
        description="Certified-error trapezoidal/midpoint cubature over rectangles",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("integrate", help="estimate, oracle comparison and bound"))
    _add_common(subs.add_parser("bound", help="estimate and certified bound only"))

    conv = subs.add_parser("converge", help="sweep m=n over powers of two")
    _add_common(conv)
    conv.add_argument("--levels", type=int, default=5, help="sweep n = 1..2^levels")

    ver = subs.add_parser("verify-identity", help="integration-by-parts residual")
    _add_common(ver, with_rule=False)
    ver.add_argument("--weight", default="trapezoid", choices=WEIGHT_NAMES)

    mini = subs.add_parser("minimize-norm", help="search the minimal weight norm")
    mini.add_argument("--q", default="2", help='norm exponent: decimal or "inf"')
    mini.add_argument("--restarts", type=int, default=8)
    mini.add_argument("--seed", type=int, default=0)
    mini.add_argument("--tol", type=float, default=1e-6)
    mini.add_argument("--format", dest="output_format", default="text", choices=("text", "json"))

    rep = subs.add_parser("corpus-report", help="full certificate-validity matrix")
    rep.add_argument(
        "--rect", nargs=4, type=float, default=(0.0, 1.0, 0.0, 1.0),
        metavar=("A", "B", "C", "D"),
    )
    rep.add_argument("--resolution", type=int, default=192)
    rep.add_argument("--max-n", dest="max_n", type=int, default=8)
    rep.add_argument("--format", dest="output_format", default="text", choices=("text", "json"))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    if "rect" in fields:
        fields["rect"] = tuple(fields["rect"])
    return RunConfig(**fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
