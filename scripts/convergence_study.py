#!/usr/bin/env python3
"""Convergence study: certified bound and true error under partition refinement.

Sweeps m = n over powers of two for both composite rules and writes one
CSV row per (rule, n) with the estimate, true error, certified bound and
their ratio.  The log-log slope of the bound column is the observed
convergence rate (O(1/n) for both rules under uniform derivative bounds).
"""

import argparse
import csv
import sys

import numpy as np

import certquad as cq


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--function", default="sinsin")
    ap.add_argument("--rect", nargs=4, type=float, default=(0.0, np.pi, 0.0, np.pi))
    ap.add_argument("--p", default="inf")
    ap.add_argument("--levels", type=int, default=5)
    ap.add_argument("--resolution", type=int, default=192)
    ap.add_argument("--out", default="convergence.csv")
    args = ap.parse_args()

    rect = cq.Rectangle(*args.rect)
    p = cq.Exponent.parse(args.p)
    f = cq.get_entry(args.function).integrand(rect)
    oracle, _ = cq.oracle_integrate(f, rect)

    rows = []
    for rule in ("composite-trapezoid", "composite-midpoint"):
        cache = {}
        ns, bounds = [], []
        for k in range(args.levels + 1):
            n = 2**k
            part = cq.PartitionSpec(rect, n, n)
            report = cq.rule_report(f, rect, rule, p, part, args.resolution, cache)
            est, bound = report.estimate, report.bound
            err = abs(est - oracle)
            rows.append((rule, n, est, err, bound, bound / err if err else float("inf")))
            ns.append(n)
            bounds.append(bound)
        slope = np.polyfit(np.log(ns[1:]), np.log(bounds[1:]), 1)[0]
        print(f"{rule}: bound slope {slope:.3f} over n={ns[1]}..{ns[-1]}")

    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rule", "n", "estimate", "error", "bound", "bound_over_error"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
