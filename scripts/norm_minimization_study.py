#!/usr/bin/env python3
"""Minimal weight norm across q: search results vs the closed form.

For each q on a grid, runs ``search_min`` (one damped Newton solve per
start over the even/odd polynomial basis; ``--restarts`` random starts)
and reports the achieved norm, the closed-form minimum (2/(q+1))^(2/q),
and the largest coefficient magnitude (near zero for 1 < q < inf, where
the minimizer is the plain product s*t).  Also evaluates the two q = inf
exhibits showing the minimizer is not unique there.
"""

import argparse
import sys

import numpy as np

import certquad as cq


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q-grid", nargs="*", type=float, default=(1.5, 2.0, 3.0, 4.0))
    ap.add_argument("--restarts", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'q':>6} {'achieved':>14} {'closed form':>14} {'gap':>10} {'max|coeff|':>11}")
    for q in args.q_grid:
        res = cq.search_min(q, restarts=args.restarts, seed=args.seed)
        target = cq.min_phi_norm_value(q)
        cmax = max(abs(v) for v in res.coefficients)
        print(f"{q:6.2f} {res.achieved_norm:14.10f} {target:14.10f} "
              f"{abs(res.achieved_norm - target):10.2e} {cmax:11.2e}")

    sym = cq.Rectangle.symmetric()
    exhibits = {
        "s*t": cq.CustomPhi(lambda s: 0.0 * s, lambda t: 0.0 * t, sym),
        "s*t - |s| + |t|": cq.CustomPhi(lambda s: -np.abs(s), lambda t: np.abs(t), sym),
    }
    print("\nq = inf exhibits (both reach the minimum 1, so it is not unique):")
    for label, w in exhibits.items():
        print(f"  ||{label}||_inf = {cq.phi_norm_numeric(w, cq.INF):.10f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
