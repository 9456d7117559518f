#!/usr/bin/env python3
"""Time one certify round of two source trees in one process, op by op in alternating order.

Loads the ``certquad`` package and ``bench/workloads.py`` of each tree under
module names of their own (``certquad_a`` and ``workloads_a``, ``..._b``),
then runs every op of the seeded round of one certify workload as the
benchmark runs it (``run_certify``: estimate, derivative norms, bound, and
the oracle on registry ops) on both trees, ``--rounds`` times.  Within a
round the trees alternate op by op, and the tree that goes first alternates
from op to op and from round to round, so that both trees share every
swing of the host's speed.  Prints, per p and op class (``registry`` or
``steep``) and for the whole round, the fastest of the rounds' summed
times of each tree, in ms, and the change from A to B:

    python3 scripts/interleaved_ab.py OLD_TREE NEW_TREE --workload certify-coarse --seed 1 --rounds 20

Separate processes cannot resolve a few percent on a shared host, where
two runs of one tree can differ by more than that; in one process two
trees with the same code read within a few percent per class.  The
benchmark's own pairs of runs stay the judge of an end-to-end change.
"""

import argparse
import importlib
import importlib.util
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as the benchmark runs: one BLAS thread

import numpy as np  # noqa: E402

SUBMODULES = ("cli", "minimizer", "norms", "oracle", "rules")


def load_tree(tree: Path, tag: str):
    """The ``bench/workloads.py`` of one source tree as the module workloads_<tag>, on its certquad as certquad_<tag>.

    ``bench/workloads.py`` imports ``certquad`` and ``env``: while it loads,
    those names stand for this tree's modules, and they are released after.
    """
    name = f"certquad_{tag}"
    source = tree / "src" / "certquad"
    spec = importlib.util.spec_from_file_location(name, source / "__init__.py",
                                                  submodule_search_locations=[str(source)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    aliases = {"certquad" + key[len(name):]: module for key, module in sys.modules.items()
               if key == name or key.startswith(name + ".")}
    saved = {key: sys.modules.pop(key, None) for key in [*aliases, "env"]}
    sys.modules.update(aliases)
    sys.path.insert(0, str(tree / "bench"))
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}", tree / "bench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(tree / "bench"))
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module
    return workloads


def op_seconds(trees, workload: str, seed: int, rounds: int) -> tuple[list, np.ndarray]:
    """The round's specs (of the first tree) and the (trees x rounds x ops) seconds of every op."""
    specs = [w.certify_round(workload, seed) for w in trees]
    if any(len(s) != len(specs[0]) for s in specs):
        raise SystemExit("the trees' rounds differ in length")
    seconds = np.zeros((len(trees), rounds, len(specs[0])))
    with np.errstate(all="ignore"):
        for r in range(rounds):
            for k in range(len(specs[0])):
                for t in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                    run = trees[t].run_certify
                    start = time.perf_counter()
                    run(specs[t][k])
                    seconds[t, r, k] = time.perf_counter() - start
    return specs[0], seconds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("tree_a", type=Path, help="source tree A (holds src/certquad and bench)")
    ap.add_argument("tree_b", type=Path, help="source tree B")
    ap.add_argument("--workload", choices=("certify-coarse", "certify-fine"), default="certify-coarse")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    trees = [load_tree(tree.resolve(), tag) for tree, tag in ((args.tree_a, "a"), (args.tree_b, "b"))]
    specs, seconds = op_seconds(trees, args.workload, args.seed, args.rounds)
    steep = trees[0].STEEP
    classes = {}
    for k, spec in enumerate(specs):
        classes.setdefault((float(spec.p), spec.p, "steep" if spec.family == steep else "registry"), []).append(k)
    rows = [(f"p={ptext} {kind}", ops) for (_, ptext, kind), ops in sorted(classes.items())]
    rows.append(("round", list(range(len(specs)))))
    print(f"{args.workload} seed {args.seed}: {len(specs)} ops, fastest of {args.rounds} rounds, "
          f"ms per class (ops alternate between the trees)")
    print(f"{'class':<18}{'ops':>6}{'A':>10}{'B':>10}{'B/A-1':>9}")
    for label, ops in rows:
        a, b = (1e3 * seconds[t][:, ops].sum(axis=1).min() for t in (0, 1))
        print(f"{label:<18}{len(ops):>6}{a:>10.3f}{b:>10.3f}{100.0 * (b / a - 1.0):>8.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
