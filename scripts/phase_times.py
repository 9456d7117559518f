#!/usr/bin/env python3
"""Microseconds per op of each phase of the benchmark's certify ops, by p.

Runs the seeded round of one certify workload (the ops of
``bench/workloads.py``: estimate, ``derivative_norms``, bound, and the
oracle on registry ops) ``--repeats`` times and times each phase of
every op.  The norm phases are the functions ``norms`` calls by the
names it binds, each wrapped in a timer for the run:

    scan_breaks      the report's zero scans and bracket search
    graded_nodes     the report's one Gauss node build
    _area_ladder     the f_xy tensor passes at finite p
    _batch_norms     a line batch's samples and reduction at finite p
    _variation_norms a line batch's p = 1 norms read off f
    _sup_lines       the p = inf line maxima
    zoomed_sup       the p = inf f_xy grid maximum

``norms_rest`` is the rest of ``derivative_norms``; ``estimate``,
``bound`` and ``oracle`` are the other calls of an op.  Each (op, phase)
keeps its fastest repeat; a row gives the mean over the ops of each p,
in microseconds, then over the ops of each finite-p report class, then
over every op.  The classes are ``free``, the reports whose partials keep
one sign on every rule line, and ``split``, those in which a partial
changes sign on some rule line (a line scan of the report's
``scan_breaks`` call, the exhaustive ones, finds a break inside a line);
the p = inf reports are the third class.  The last row, ``share``, is
each column's part of the round's time, in percent:

    PYTHONPATH=src python3 scripts/phase_times.py --workload certify-fine --seed 1 --repeats 5

Each wrapped call adds two clock reads to its phase, and a phase that
an op does not reach reads 0 for it.  ``--ops N`` runs only the first N
ops of the round.
"""

import argparse
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import numpy as np  # noqa: E402

import certquad as cq  # noqa: E402
from certquad import norms, oracle, rules  # noqa: E402
from workloads import CERTIFY_SIZES, ORACLE_MAX_PANELS, P_TEXTS, STEEP, build_integrand, certify_round  # noqa: E402

NORM_PHASES = ("scan_breaks", "graded_nodes", "_area_ladder", "_batch_norms", "_variation_norms",
               "_sup_lines", "zoomed_sup")
PHASES = ("estimate", *NORM_PHASES, "norms_rest", "bound", "oracle")
FAMILY = {"composite-trapezoid": "trapezoid", "composite-midpoint": "midpoint"}


SPLIT = "split lines"  # the key of ``spent`` that counts an op's line scans with a break


def split_lines(scans, found) -> bool:
    """Whether a ``scan_breaks`` call found a break inside a line of one of its line scans (the exhaustive ones)."""
    return any(scan[6:] == (True,) and sizes is not None and (sizes > 2).any()
               for scan, (_, sizes) in zip(scans, found))


def run_op(spec, spent: dict) -> None:
    """One certify op, as the benchmark runs it, adding each phase's seconds to ``spent``.

    The norm phases add theirs through their wrappers (``wrap_norm_phases``),
    and the wrapped ``scan_breaks`` counts its calls that split a rule line
    under ``SPLIT``.
    """
    f = build_integrand(spec)
    rect = cq.Rectangle(*spec.rect)
    part = cq.PartitionSpec(rect, spec.m, spec.m)
    family = FAMILY[spec.rule]
    start = time.perf_counter()
    getattr(rules, f"composite_{family}_estimate")(f, rect, part)
    spent["estimate"] += time.perf_counter() - start
    inner = sum(spent[name] for name in NORM_PHASES)
    start = time.perf_counter()
    bundle = norms.derivative_norms(f, rect, cq.Exponent.parse(spec.p), partition=part, rule_family=family)
    spent["norms_rest"] += time.perf_counter() - start - (sum(spent[name] for name in NORM_PHASES) - inner)
    start = time.perf_counter()
    getattr(rules, f"composite_{family}_bound")(bundle, rect, part)
    spent["bound"] += time.perf_counter() - start
    if spec.family != STEEP:  # the benchmark runs the oracle on registry ops only
        start = time.perf_counter()
        oracle.oracle_integrate(replace(f, exact_integral=None), rect)
        spent["oracle"] += time.perf_counter() - start


@contextmanager
def wrap_norm_phases(spent: dict):
    """For the block, time each norm phase ``norms`` binds into ``spent``, and cap the oracle's panels as the benchmark does."""
    saved = {name: getattr(norms, name) for name in NORM_PHASES}
    saved_cap = oracle.MAX_PANELS_PER_AXIS

    def timed(fn, name):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
            if name == "scan_breaks":
                spent[SPLIT] += split_lines(args[0], out)
            return out

        return wrapper

    for name, fn in saved.items():
        setattr(norms, name, timed(fn, name))
    oracle.MAX_PANELS_PER_AXIS = ORACLE_MAX_PANELS
    try:
        yield
    finally:
        oracle.MAX_PANELS_PER_AXIS = saved_cap
        for name, fn in saved.items():
            setattr(norms, name, fn)


def phase_seconds(specs, repeats: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """(ops x phases) seconds, each the fastest of ``repeats`` runs of the round, the split-line ops, and refusals.

    ``split`` marks the ops whose ``scan_breaks`` call found a break inside
    a rule line; ``refused`` maps each refused op to its error.

    An op that raises, as the benchmark's refusals do, keeps the time its
    phases spent before the error.
    """
    best = np.full((len(specs), len(PHASES)), np.inf)
    split = np.zeros(len(specs), dtype=bool)
    spent = defaultdict(float)
    refused = {}
    with wrap_norm_phases(spent), np.errstate(all="ignore"):
        for _ in range(repeats):
            for k, spec in enumerate(specs):
                spent.clear()
                try:
                    run_op(spec, spent)
                except (cq.CertquadError, ValueError, ArithmeticError) as exc:
                    refused[k] = f"{type(exc).__name__}: {exc}"
                best[k] = np.minimum(best[k], [spent[name] for name in PHASES])
                split[k] = spent[SPLIT] > 0
    return best, split, refused


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(CERTIFY_SIZES), default="certify-fine")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--ops", type=int, default=None, help="run only the first OPS ops of the round")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    specs = certify_round(args.workload, args.seed)[:args.ops]
    best, split, refused = phase_seconds(specs, args.repeats)
    finite = np.array([spec.p != "inf" for spec in specs])
    columns = [(f"p={p}", np.array([spec.p == p for spec in specs])) for p in P_TEXTS]
    columns = [column for column in columns if column[1].any()]
    columns += [("free", finite & ~split), ("split", finite & split), ("all", np.ones(len(specs), dtype=bool))]
    print(f"{args.workload} seed {args.seed}: {len(specs)} ops ({len(refused)} refused), "
          f"fastest of {args.repeats} repeats, mean us per op")
    print(f"{'phase':<17}" + "".join(f"{label:>10}" for label, _ in columns))
    print(f"{'ops':<17}" + "".join(f"{int(mask.sum()):>10}" for _, mask in columns))
    for j, name in enumerate(PHASES):
        print(f"{name:<17}" + "".join(f"{1e6 * best[mask, j].mean():>10.1f}" for _, mask in columns))
    print(f"{'total':<17}" + "".join(f"{1e6 * best[mask].sum(axis=1).mean():>10.1f}" for _, mask in columns))
    print(f"{'share':<17}" + "".join(f"{100.0 * best[mask].sum() / best.sum():>10.1f}" for _, mask in columns))
    for k, message in sorted(refused.items()):
        print(f"refused op {k} ({specs[k].family}, p={specs[k].p}, m={specs[k].m}): {message}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
