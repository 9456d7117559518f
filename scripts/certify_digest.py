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

A change meant to alter numbers at rounding level is checked by value
instead: ``--dump FILE`` writes every op's numbers (or its error
message) as JSON, together with whether the benchmark's own check
(``run_certify``, which also runs the oracle) finds the op ok and its
bound violated, its p and its op class; ``--against FILE`` compares
this tree's ops with such a dump from another tree (one without the p
or the op class as well) and prints one more line per workload, then
one per workload and op class (``registry`` for the registry
integrands, ``steep`` for the steep tanh family, whose sech^2 tails
amplify node rounding about 2e4-fold, so that its deviations do not
hide the registry's), then one per workload and p, so that a change
meant to move one p can show every other p at 0: the largest relative
deviation of the estimates, of ``fxy``, of the line norms and of the
bound terms, and how many ops changed ``ok``, changed ``violated`` or
raise where the other tree does not (or with another message):

    PYTHONPATH=src python3 scripts/certify_digest.py --dump old.json      # on the old tree
    PYTHONPATH=src python3 scripts/certify_digest.py --against old.json   # on the new tree
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import certquad as cq  # noqa: E402
from certquad import norms, rules  # noqa: E402
from norm_digest import relative_deviation, require_same_keys  # noqa: E402
from workloads import CERTIFY_SIZES, STEEP, build_integrand, certify_round, run_certify  # noqa: E402

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


GROUPS = ("estimate", "fxy", "line norms", "bound terms")
COUNTS = ("ops", "ok", "violated", "refusals")
CLASSES = ("registry", "steep")


def groups(result) -> dict:
    """An op's numbers by the groups ``compare`` reports."""
    estimate, fxy, x_lines, y_lines, *terms = result
    return dict(zip(GROUPS, ([estimate], [fxy], [*x_lines, *y_lines], terms)))


def compare(ops: dict, reference: dict) -> list[str]:
    """Lines comparing every op with a reference dump of the same keys.

    One line per workload, then one per workload and op class, then one
    per workload and p.  An op's p and class are read from this tree's
    ``ops``, so the reference may be a dump that does not record them.
    """
    require_same_keys(ops, reference, "ops")
    totals: dict[str, dict] = {}
    per_class: dict[tuple, dict] = {}
    per_p: dict[tuple, dict] = {}

    def row_of(table: dict, key) -> dict:
        return table.setdefault(key, dict.fromkeys(GROUPS, 0.0) | dict.fromkeys(COUNTS, 0))

    for key, ref in reference.items():
        got = ops[key]
        workload = key.split()[0]
        for row in (row_of(totals, workload), row_of(per_class, (workload, CLASSES.index(got["class"]))),
                    row_of(per_p, (workload, float(got["p"]), got["p"]))):
            row["ops"] += 1
            row["ok"] += got["ok"] != ref["ok"]
            row["violated"] += got["violated"] != ref["violated"]
            if isinstance(got["result"], str) or isinstance(ref["result"], str):
                row["refusals"] += got["result"] != ref["result"]
                continue
            new, old = groups(got["result"]), groups(ref["result"])
            for name in GROUPS:
                row[name] = max([row[name], *map(relative_deviation, new[name], old[name])])
    labels = list(totals.items())
    labels += [(f"{workload} {CLASSES[k]}", per_class[workload, k]) for workload, k in sorted(per_class)]
    labels += [(f"{workload} p={ptext}", per_p[workload, p, ptext]) for workload, p, ptext in sorted(per_p)]
    return [f"{label} against {row['ops']} ops: max rel dev "
            + ", ".join(f"{name} {row[name]:.3g}" for name in GROUPS)
            + f"; ok changed {row['ok']}, violated changed {row['violated']}, refusals changed {row['refusals']}"
            for label, row in labels]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", nargs="+", choices=sorted(CERTIFY_SIZES), default=sorted(CERTIFY_SIZES))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--ops", type=int, default=None, help="digest only the first OPS ops of each round")
    ap.add_argument("--dump", metavar="FILE", help="write every op's values and outcome as JSON")
    ap.add_argument("--against", metavar="FILE", help="compare every op with a --dump of another tree")
    args = ap.parse_args()

    digest = hashlib.sha256()
    ops, count = {}, 0
    for workload in args.workload:
        for seed in args.seeds:
            for i, spec in enumerate(certify_round(workload, seed)[:args.ops]):
                try:
                    with np.errstate(all="ignore"):
                        result = certify(spec)
                except Exception as exc:  # the benchmark counts a refusal or a crash as a failed op
                    result = f"{type(exc).__name__}: {exc}"
                digest.update(repr((spec, result)).encode())
                count += 1
                if args.dump or args.against:
                    with np.errstate(all="ignore"):
                        outcome = run_certify(spec)
                    ops[f"{workload} seed={seed} op={i}"] = {
                        "p": spec.p, "class": CLASSES[spec.family == STEEP], "result": result,
                        "ok": outcome.ok, "violated": outcome.violated}
    print(count, "ops", "sha256", digest.hexdigest())
    if args.dump:
        with open(args.dump, "w") as handle:
            json.dump(ops, handle)
    if args.against:
        with open(args.against) as handle:
            print(*compare(ops, json.load(handle)), sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
