#!/usr/bin/env python3
"""One SHA-256 over every derivative-norm and weight-norm value of a fixed grid.

For every registry integrand, rectangle, p, weight family and m = n, the
digest takes the ``repr`` of the bundle's ``fxy``, ``x_lines`` and
``y_lines`` and of the values and error estimates of the two
``line_norms_with_error`` calls (f_x along the x-lines, f_y along the
y-lines) that the bundle's lines come from.  It also takes, per
integrand, rectangle and p, the value and error estimate of
``area_norm_with_error`` on f_xy; per rectangle, p, family and m,
``phi_norm_numeric`` of the family's composite weight at the conjugate
q; per rectangle and p, ``phi_norm_numeric`` of one ``CustomPhi`` at the
conjugate q; and ``search_min`` at q = 1.5, 2, 3 with two starts.  Two
source trees whose digests agree computed every one of those numbers
bit for bit, so a change meant to alter no number can be checked with
one command on each tree:

    PYTHONPATH=src python3 scripts/norm_digest.py

The options shrink the grid (the default is the full one, ~4 s on a
2-vCPU x86_64 VM).
"""

import argparse
import hashlib

import numpy as np

import certquad as cq
from certquad.norms import partial_evaluators
from certquad.weights import ramp_jumps

RECTS = {"unit": (0.0, 1.0, 0.0, 1.0), "offset": (0.5, 1.75, -0.25, 0.5)}
WEIGHTS = {"trapezoid": cq.CompositeTrapezoidPhi, "midpoint": cq.CompositeMidpointPhi}
SEARCH_Q = ("1.5", "2", "3")


def custom_phi(rect):
    """(x - m1)(y - m2) plus a curved term: its zero set crosses both scan lines."""
    return cq.CustomPhi(lambda s: 0.25 * (s - rect.a) ** 2 - rect.m2 * s,
                        lambda t: rect.m1 * (rect.m2 - t) - 0.02, rect)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--functions", nargs="+", default=list(cq.names()))
    ap.add_argument("--rects", nargs="+", choices=sorted(RECTS), default=list(RECTS))
    ap.add_argument("--p", nargs="+", default=["1", "1.5", "2", "3", "inf"])
    ap.add_argument("--m", nargs="+", type=int, default=[1, 3, 16, 64])
    args = ap.parse_args()

    digest = hashlib.sha256()

    def update(*items):
        for item in items:
            digest.update(repr(np.asarray(item).tolist()).encode())

    count = 0
    for rect_name in args.rects:
        rect = cq.Rectangle(*RECTS[rect_name])
        for ptext in args.p:
            q = cq.conjugate(cq.Exponent.parse(ptext))
            update(cq.phi_norm_numeric(custom_phi(rect), q))
            for family in cq.FAMILIES:
                for m in args.m:
                    update(cq.phi_norm_numeric(WEIGHTS[family](rect, cq.PartitionSpec(rect, m, m)), q))
    for name in args.functions:
        for rect_name in args.rects:
            rect = cq.Rectangle(*RECTS[rect_name])
            f = cq.get_entry(name).integrand(rect)
            fx, fy, fxy, _ = partial_evaluators(f, rect)
            for ptext in args.p:
                p = cq.Exponent.parse(ptext)
                update(*cq.area_norm_with_error(fxy, rect, p))
                cache: dict = {}
                for family in cq.FAMILIES:
                    for m in args.m:
                        part = cq.PartitionSpec(rect, m, m)
                        nb = cq.derivative_norms(f, rect, p, partition=part, rule_family=family, cache=cache)
                        (xs, _), (ys, _) = ramp_jumps(part, family)
                        x_lines = cq.line_norms_with_error(fx, "x", ys, rect.a, rect.b, p)
                        y_lines = cq.line_norms_with_error(fy, "y", xs, rect.c, rect.d, p)
                        update(nb.fxy, nb.x_lines, nb.y_lines, *x_lines, *y_lines)
                        count += 1
    for qtext in SEARCH_Q:
        result = cq.search_min(cq.Exponent.parse(qtext), restarts=2)
        update(result.achieved_norm, result.coefficients)
    print(f"{count} bundles sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
