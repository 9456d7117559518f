#!/usr/bin/env python3
"""One SHA-256 over every derivative-norm and weight-norm value of a fixed grid.

For every registry integrand, rectangle, p, weight family and m = n, the
digest takes the ``repr`` of the ``derivative_norms`` bundle's ``fxy``,
``x_lines`` and ``y_lines``, the only norms the package exports.  It
also takes, per integrand, rectangle and p, the estimate and three bound
terms of ``custom_phi_rule`` with the rectangle's ``CustomPhi`` (below);
per rectangle, p, family and m, ``phi_norm_numeric`` of the family's
composite weight at the conjugate q; per rectangle and p,
``phi_norm_numeric`` of one ``CustomPhi`` at the conjugate q; per
rectangle, ``eval_phi`` of each of those weights on the grid X x Y,
where X holds every x-break of the weight, the midpoint of every two
neighbouring breaks and 17 evenly spaced points (Y likewise;
``CustomPhi`` has the rectangle's edges as its only breaks); and
``search_min`` at q = 1.5, 2, 3 with two starts.  Two source trees whose
digests agree computed every one of those numbers bit for bit, so a
change meant to alter no number can be checked with one command on each
tree:

    PYTHONPATH=src python3 scripts/norm_digest.py

The options shrink the grid (the default is the full one, ~5 s on a
2-vCPU x86_64 VM).  A change meant to alter norm values is checked by
value instead: ``--dump FILE`` writes every bundle's ``fxy``, ``x_lines``
and ``y_lines`` and every ``phi_norm_numeric`` value the digest takes as
JSON, and ``--against FILE`` compares this tree's values with such a dump
from another tree, printing three more lines: the largest relative
deviation of the line norms and of ``fxy`` and how many ``fxy`` values
fall below the reference's; how many line norms fall below the
reference's and their largest relative shortfall; how many weight norms
differ from the reference's and their largest relative deviation.  Then
one line per p gives the same deviations at that p alone, so a change
meant to move one p can show every other p at 0:

    PYTHONPATH=src python3 scripts/norm_digest.py --dump old.json      # on the old tree
    PYTHONPATH=src python3 scripts/norm_digest.py --against old.json   # on the new tree
"""

import argparse
import hashlib
import json

import numpy as np

import certquad as cq

RECTS = {"unit": (0.0, 1.0, 0.0, 1.0), "offset": (0.5, 1.75, -0.25, 0.5)}
WEIGHTS = {"trapezoid": cq.CompositeTrapezoidPhi, "midpoint": cq.CompositeMidpointPhi}
SEARCH_Q = ("1.5", "2", "3")


def custom_phi(rect):
    """(x - m1)(y - m2) plus a curved term: its zero set crosses both scan lines."""
    return cq.CustomPhi(lambda s: 0.25 * (s - rect.a) ** 2 - rect.m2 * s,
                        lambda t: rect.m1 * (rect.m2 - t) - 0.02, rect)


def probe_axis(breaks, lo: float, hi: float) -> np.ndarray:
    """Every break, the midpoint of every two neighbouring breaks and 17 evenly spaced points, sorted."""
    breaks = np.asarray(breaks, dtype=float)
    return np.unique(np.concatenate((breaks, 0.5 * (breaks[:-1] + breaks[1:]), np.linspace(lo, hi, 17))))


def weight_values(w) -> list:
    """``eval_phi`` of a weight at every point of its probe grid."""
    r = w.rect
    xs = probe_axis(getattr(w, "x_breaks", (r.a, r.b)), r.a, r.b).tolist()
    ys = probe_axis(getattr(w, "y_breaks", (r.c, r.d)), r.c, r.d).tolist()
    return [cq.eval_phi(w, x, y) for x in xs for y in ys]


def relative_deviation(value: float, reference: float) -> float:
    if value == reference:
        return 0.0
    return abs(value - reference) / abs(reference) if reference else float("inf")


def require_same_keys(values: dict, reference: dict, what: str) -> None:
    missing = sorted(set(reference) ^ set(values))
    if missing:
        raise SystemExit(f"the dumps hold different {what}, for example {missing[0]!r}")


def p_of(key: str) -> str:
    """The "p=..." word of a bundle or weight-norm key."""
    return next(word for word in key.split() if word.startswith("p="))


def bundle_deviations(bundles: dict, reference: dict) -> dict:
    """How bundle values deviate from a reference dump's.

    The largest relative deviation of the line norms and of ``fxy``, how
    many of each fall below the reference, and the largest relative
    shortfall of the line norms.
    """
    out = dict(lines=0.0, fxy=0.0, shortfall=0.0, below=0, lines_below=0)
    for key, ref in reference.items():
        got = bundles[key]
        for name in ("x_lines", "y_lines"):
            for value, old in zip(got[name], ref[name], strict=True):
                out["lines"] = max(out["lines"], relative_deviation(value, old))
                if value < old:
                    out["lines_below"] += 1
                    out["shortfall"] = max(out["shortfall"], relative_deviation(value, old))
        out["fxy"] = max(out["fxy"], relative_deviation(got["fxy"], ref["fxy"]))
        out["below"] += got["fxy"] < ref["fxy"]
    return out


def compare(bundles: dict, reference: dict) -> str:
    """Two lines comparing bundle values with a reference dump of the same keys.

    The first gives the largest relative deviation of the line norms and of
    ``fxy`` and how many ``fxy`` values fall below the reference's; the
    second how many line norms fall below the reference's and the largest
    relative shortfall among them.
    """
    require_same_keys(bundles, reference, "bundles")
    d = bundle_deviations(bundles, reference)
    return (f"against {len(reference)} bundles: line norms max rel dev {d['lines']:.3g}, "
            f"fxy max rel dev {d['fxy']:.3g}, fxy below reference {d['below']}\n"
            f"line norms below reference {d['lines_below']}, max rel shortfall {d['shortfall']:.3g}")


def weight_deviations(norms: dict, reference: dict) -> list[float]:
    return [relative_deviation(norms[key], ref) for key, ref in reference.items()]


def compare_weights(norms: dict, reference: dict) -> str:
    """One line: how many weight norms differ from a reference dump of the same keys, and by how much."""
    require_same_keys(norms, reference, "weight norms")
    deviations = weight_deviations(norms, reference)
    return (f"against {len(reference)} weight norms: {sum(d > 0.0 for d in deviations)} differ, "
            f"max rel dev {max(deviations, default=0.0):.3g}")


def compare_by_p(bundles: dict, weights: dict, reference: dict) -> list[str]:
    """One line per p, in the reference's order: the deviations of ``compare`` and ``compare_weights`` at that p."""
    lines = []
    for p in dict.fromkeys(map(p_of, reference["bundles"])):
        d = bundle_deviations(bundles, {k: v for k, v in reference["bundles"].items() if p_of(k) == p})
        w = weight_deviations(weights, {k: v for k, v in reference["weights"].items() if p_of(k) == p})
        lines.append(f"{p}: line norms max rel dev {d['lines']:.3g} ({d['lines_below']} below reference), "
                     f"fxy max rel dev {d['fxy']:.3g} ({d['below']} below reference), "
                     f"weight norms max rel dev {max(w, default=0.0):.3g}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--functions", nargs="+", default=list(cq.names()))
    ap.add_argument("--rects", nargs="+", choices=sorted(RECTS), default=list(RECTS))
    ap.add_argument("--p", nargs="+", default=["1", "1.5", "2", "3", "inf"])
    ap.add_argument("--m", nargs="+", type=int, default=[1, 3, 16, 64])
    ap.add_argument("--dump", metavar="FILE", help="write every bundle's values as JSON")
    ap.add_argument("--against", metavar="FILE", help="compare every bundle with a --dump of another tree")
    args = ap.parse_args()

    digest = hashlib.sha256()

    def update(*items):
        for item in items:
            digest.update(repr(np.asarray(item).tolist()).encode())

    bundles, weights = {}, {}

    def weight_norm(key, w, q):
        weights[key] = cq.phi_norm_numeric(w, q)
        update(weights[key])

    customs = {}
    for rect_name in args.rects:
        rect = cq.Rectangle(*RECTS[rect_name])
        built = {"custom": custom_phi(rect)}
        customs[rect_name] = built["custom"]
        for family in cq.FAMILIES:
            for m in args.m:
                built[family, m] = WEIGHTS[family](rect, cq.PartitionSpec(rect, m, m))
        for w in built.values():
            update(weight_values(w))
        for ptext in args.p:
            q = cq.conjugate(cq.Exponent.parse(ptext))
            weight_norm(f"custom {rect_name} p={ptext}", built["custom"], q)
            for family in cq.FAMILIES:
                for m in args.m:
                    weight_norm(f"{family} {rect_name} p={ptext} m={m}", built[family, m], q)
    for name in args.functions:
        for rect_name in args.rects:
            rect = cq.Rectangle(*RECTS[rect_name])
            f = cq.get_entry(name).integrand(rect)
            for ptext in args.p:
                p = cq.Exponent.parse(ptext)
                report = cq.custom_phi_rule(f, customs[rect_name], rect, p)
                update(report.estimate, report.fx_term, report.fy_term, report.fxy_term)
                cache: dict = {}
                for family in cq.FAMILIES:
                    for m in args.m:
                        part = cq.PartitionSpec(rect, m, m)
                        nb = cq.derivative_norms(f, rect, p, partition=part, rule_family=family, cache=cache)
                        update(nb.fxy, nb.x_lines, nb.y_lines)
                        bundles[f"{name} {rect_name} p={ptext} {family} m={m}"] = {
                            "fxy": nb.fxy, "x_lines": list(nb.x_lines), "y_lines": list(nb.y_lines)}
    for qtext in SEARCH_Q:
        result = cq.search_min(cq.Exponent.parse(qtext), restarts=2)
        update(result.achieved_norm, result.coefficients)
    print(f"{len(bundles)} bundles sha256 {digest.hexdigest()}")
    if args.dump:
        with open(args.dump, "w") as handle:
            json.dump({"bundles": bundles, "weights": weights}, handle)
    if args.against:
        with open(args.against) as handle:
            reference = json.load(handle)
        print(compare(bundles, reference["bundles"]))
        print(compare_weights(weights, reference["weights"]))
        print(*compare_by_p(bundles, weights, reference), sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
