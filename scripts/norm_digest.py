#!/usr/bin/env python3
"""One SHA-256 over every derivative-norm value of a fixed grid.

For every registry integrand, rectangle, p, weight family and m = n, the
digest takes the ``repr`` of the bundle's ``fxy``, ``x_lines`` and
``y_lines`` and of the values and error estimates of the two
``line_norms_with_error`` calls (f_x along the x-lines, f_y along the
y-lines) that the bundle's lines come from.  Two source trees whose
digests agree computed every one of those numbers bit for bit, so a
change meant to alter no number can be checked with one command on each
tree:

    PYTHONPATH=src python3 scripts/norm_digest.py

The options shrink the grid (the default is the full one, ~20 s).
"""

import argparse
import hashlib

import numpy as np

import certquad as cq
from certquad.norms import partial_evaluators
from certquad.weights import ramp_jumps

RECTS = {"unit": (0.0, 1.0, 0.0, 1.0), "offset": (0.5, 1.75, -0.25, 0.5)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--functions", nargs="+", default=list(cq.names()))
    ap.add_argument("--rects", nargs="+", choices=sorted(RECTS), default=list(RECTS))
    ap.add_argument("--p", nargs="+", default=["1", "1.5", "2", "3", "inf"])
    ap.add_argument("--m", nargs="+", type=int, default=[1, 3, 16, 64])
    args = ap.parse_args()

    digest = hashlib.sha256()
    count = 0
    for name in args.functions:
        for rect_name in args.rects:
            rect = cq.Rectangle(*RECTS[rect_name])
            f = cq.get_entry(name).integrand(rect)
            fx, fy, _, _ = partial_evaluators(f, rect)
            for ptext in args.p:
                p = cq.Exponent.parse(ptext)
                cache: dict = {}
                for family in cq.FAMILIES:
                    for m in args.m:
                        part = cq.PartitionSpec(rect, m, m)
                        nb = cq.derivative_norms(f, rect, p, partition=part, rule_family=family, cache=cache)
                        (xs, _), (ys, _) = ramp_jumps(part, family)
                        x_lines = cq.line_norms_with_error(fx, "x", ys, rect.a, rect.b, p)
                        y_lines = cq.line_norms_with_error(fy, "y", xs, rect.c, rect.d, p)
                        for item in (nb.fxy, nb.x_lines, nb.y_lines, *x_lines, *y_lines):
                            digest.update(repr(np.asarray(item).tolist()).encode())
                        count += 1
    print(f"{count} bundles sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
