#!/usr/bin/env python3
"""One SHA-256 over every op of the benchmark's certify rounds.

For every op of the seeded round of each ``--seeds`` value (the ops of
``bench/workloads.py``, ``certify_round`` and ``build_integrand``), the
digest takes the ``repr`` of the op, its estimate, its norm bundle's
``fxy``, ``x_lines`` and ``y_lines`` and its three bound terms, computed
by the calls the benchmark's ``run_certify`` makes; an op that raises
contributes its exception's type and message instead.  Two source trees
whose digests agree computed every one of those numbers bit for bit, so
a change meant to alter no number on the benchmark's own ops can be
checked with one command on each tree:

    PYTHONPATH=src python3 scripts/certify_digest.py --workload certify-fine --seeds 1 2 3

A certify-fine round of 300 ops takes ~0.6 s and a certify-coarse round
of 240 ops ~0.3 s on a 2-vCPU x86_64 VM.  ``--ops N`` digests only the
first N ops of each round.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import certquad as cq  # noqa: E402
from certquad import norms, rules  # noqa: E402
from workloads import CERTIFY_SIZES, build_integrand, certify_round  # noqa: E402

FAMILY = {"composite-trapezoid": "trapezoid", "composite-midpoint": "midpoint"}


def certify(spec) -> tuple:
    """(estimate, fxy, x_lines, y_lines, fx_term, fy_term, fxy_term) of one op, as ``run_certify`` computes them."""
    f = build_integrand(spec)
    rect = cq.Rectangle(*spec.rect)
    part = cq.PartitionSpec(rect, spec.m, spec.m)
    family = FAMILY[spec.rule]
    estimate = getattr(rules, f"composite_{family}_estimate")(f, rect, part)
    bundle = norms.derivative_norms(f, rect, cq.Exponent.parse(spec.p), partition=part, rule_family=family)
    bound = getattr(rules, f"composite_{family}_bound")(bundle, rect, part)
    return estimate, bundle.fxy, bundle.x_lines, bundle.y_lines, bound.fx_term, bound.fy_term, bound.fxy_term


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", nargs="+", choices=sorted(CERTIFY_SIZES), default=sorted(CERTIFY_SIZES))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--ops", type=int, default=None, help="digest only the first OPS ops of each round")
    args = ap.parse_args()

    digest = hashlib.sha256()
    count = 0
    for workload in args.workload:
        for seed in args.seeds:
            for spec in certify_round(workload, seed)[:args.ops]:
                try:
                    with np.errstate(all="ignore"):
                        result = certify(spec)
                except Exception as exc:  # the benchmark counts a refusal or a crash as a failed op
                    result = f"{type(exc).__name__}: {exc}"
                digest.update(repr((spec, result)).encode())
                count += 1
    print(count, "ops", "sha256", digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
