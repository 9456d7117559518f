"""Benchmark of certquad: certified reports, CLI processes and the minimizer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's seeded round of ops in a closed loop with one caller,
in whole rounds ending at the round boundary nearest to S seconds of
op time (at least one round), and checks every op on every repeat.  ``attempted``
and ``failed`` count the round's distinct ops, so they depend on the
seed alone; an op whose outcome changes between repeats counts as
failed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it are a table of every figure with its
unit and sample count, and a ``report`` line (JSON) with the provenance,
the failures by op class and the figures that are not gated.

A traced run alternates untraced and traced rounds of the same ops, so
the tracing overhead is measured within one process.  Layers the
workload's own ops do not reach are measured on one traced round of the
workload that does reach them (a "side round"), so every traced run
reports every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import env

SETUP_SAMPLES = 9
PROBE_SAMPLES = 3
CHILD_TIMEOUT_S = 170
P90_MIN_OPS = 100
#: Layer group -> the workload whose ops reach it, for side rounds.  "certify"
#: stands for the norms, integrand, rules and oracle layers.
SIDE_WORKLOAD = {"certify": "certify-coarse", "cli.compute": "cli", "minimizer": "minimize"}


def run_child(argv: list[str]) -> tuple[float, str, str]:
    """Run a child process to completion; wall seconds, stdout, stderr."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env.child_env(), cwd=env.ROOT, timeout=CHILD_TIMEOUT_S
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}: {proc.stderr[-500:]}")
    return wall, proc.stdout, proc.stderr


def run_round(work, specs, tracer, latencies: list) -> tuple[float, list]:
    """Run every op of the round once; the round's wall seconds and the ops' outcomes."""
    outcomes = []
    start = time.perf_counter()
    for spec in specs:
        t = time.perf_counter()
        outcomes.append(work.run_op(spec, tracer))
        latencies.append(time.perf_counter() - t)
    return time.perf_counter() - start, outcomes


class Checked:
    """The outcome of every op of a round, checked again on each repeat.

    A run repeats one seeded round, so ``attempted`` and ``failed`` count
    the round's distinct ops: they depend on the seed alone, not on how many
    repeats a run's speed allowed.  An op whose outcome on a repeat differs
    from its first one is counted as failed.
    """

    def __init__(self) -> None:
        self.first: list = []
        self.changed: set[int] = set()

    def add(self, outcomes: list) -> None:
        if not self.first:
            self.first = outcomes
            return
        self.changed.update(i for i, (a, b) in enumerate(zip(self.first, outcomes)) if a != b)

    def outcomes(self) -> list:
        return [
            replace(o, ok=False, known_defect=False, reason="outcome changed between repeats")
            if i in self.changed else o
            for i, o in enumerate(self.first)
        ]


def ends_here(round_s: list[float], seconds: float) -> bool:
    """Whether the run stops after this round: it ends at the round boundary nearest to ``seconds`` of ops."""
    return sum(round_s) + statistics.mean(round_s) / 2 >= seconds


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative time of the outermost scipy imports in a ``-X importtime`` log."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total = 0
    ancestors: list[tuple[int, bool]] = []
    # A module's line follows those of the modules it imports, so read backwards.
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(inside for _, inside in ancestors):
            total += cumulative
        ancestors.append((depth, is_scipy))
    return total * 1e-6


def cli_probes() -> dict[str, float]:
    py, probe = sys.executable, str(env.BENCH / "probe.py")
    interpreter = [run_child([py, "-c", "pass"])[0] for _ in range(PROBE_SAMPLES)]
    imports = [float(run_child([py, probe, "import"])[1]) for _ in range(PROBE_SAMPLES)]
    scipy = [
        scipy_import_s(run_child([py, "-X", "importtime", "-c", "import certquad.cli"])[2])
        for _ in range(PROBE_SAMPLES)
    ]
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(interpreter),
        "cli.import_ms": 1e3 * statistics.median(imports),
        "cli.import_scipy_ms": 1e3 * statistics.median(scipy),
    }


def tally(outcomes) -> dict:
    """Failure counts, overall and by op class, with the first reason seen per class."""
    groups: dict[str, dict] = {}
    for o in outcomes:
        g = groups.setdefault(o.group, {"attempted": 0, "failed": 0, "violated": 0, "first_reason": ""})
        g["attempted"] += 1
        g["failed"] += not o.ok
        g["violated"] += o.violated
        g["first_reason"] = g["first_reason"] or o.reason
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "violated": sum(o.violated for o in outcomes),
        "correct": all(o.ok or o.known_defect for o in outcomes),
        # tightness is read on the ops meant to certify, not on the known-defect classes
        "ratios": [o.ratio for o in outcomes if o.ratio is not None and not o.known_defect],
        "groups": groups,
    }


def untraced(wl, work, specs, seconds: float) -> tuple[dict, dict, dict]:
    py, probe = sys.executable, str(env.BENCH / "probe.py")
    setup_argv = [py, probe, "setup", work.name]
    setups = [run_child(setup_argv)[0]]
    wl.warm_up(work.name)
    latencies: list[float] = []
    checked = Checked()
    round_s: list[float] = []
    while True:
        wall, outcomes = run_round(work, specs, None, latencies)
        round_s.append(wall)
        checked.add(outcomes)
        done = ends_here(round_s, seconds)
        # set-ups are spread over the run, so they sample the machine's slow and fast spells as the ops do
        due = SETUP_SAMPLES if done else math.ceil(SETUP_SAMPLES * sum(round_s) / seconds)
        while len(setups) < min(due, SETUP_SAMPLES):
            setups.append(run_child(setup_argv)[0])
        if done:
            break
    cli = work.name == "cli"
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss
    counts = tally(checked.outcomes())
    n, ratios = counts["attempted"], counts["ratios"]
    ops = f"{n} distinct ops, run {len(round_s)} times"
    timed = f"{len(latencies)} ops in {len(round_s)} rounds of {len(specs)}"
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {SETUP_SAMPLES} set-ups in fresh processes"),
        # the whole run's rate: the machine's speed swings between spells, and a mean over
        # both kinds of spell moves less than a median that falls in one of them
        "ops_per_s": (len(latencies) / sum(round_s), timed),
        "latency_p50_ms": (1e3 * statistics.median(latencies), timed),
        "certified_ratio": (1.0 - counts["failed"] / n, ops),
        "sound_ratio": (1.0 - counts["violated"] / n, ops),
        "bound_over_error_p50": (
            statistics.median(ratios) if ratios else 0.0,
            f"{len(ratios)} ops with a non-negligible error, known-defect classes excluded",
        ),
        "peak_rss_mb": (peak_kb / 1024.0, "CLI child processes" if cli else "benchmark process"),
    }
    not_gated = [
        ("fail_ratio", counts["failed"] / n, "ratio", ops),
        ("violation_ratio", counts["violated"] / n, "ratio", ops),
    ]
    if len(latencies) >= P90_MIN_OPS:
        not_gated.append(("latency_p90_ms", 1e3 * statistics.quantiles(latencies, n=10)[-1], "ms", timed))
    return counts, metrics, {"not_gated": not_gated, "round_s": round_s, "setup_samples_s": setups}


def traced(wl, tracing, work, specs, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    wl.warm_up(work.name)
    tracer = tracing.Tracer()
    checked = Checked()
    plain_s: list[float] = []
    traced_s: list[float] = []
    while True:
        wall, outcomes = run_round(work, specs, None, [])
        plain_s.append(wall)
        checked.add(outcomes)
        with tracer.installed():
            wall, outcomes = run_round(work, specs, tracer, [])
        traced_s.append(wall)
        checked.add(outcomes)
        if ends_here([a + b for a, b in zip(plain_s, traced_s)], seconds):
            break
    overhead = 100.0 * (statistics.mean(traced_s) / statistics.mean(plain_s) - 1.0)
    metrics = {"trace.overhead_pct": (overhead, f"{len(traced_s)} traced vs {len(plain_s)} untraced rounds")}
    side_ops = {}
    for group, side_name in SIDE_WORKLOAD.items():
        if group in work.layers:
            tr, ops, source = tracer, len(specs) * len(traced_s), f"own ops ({len(traced_s)} traced rounds)"
        else:
            side = wl.WORKLOADS[side_name]
            side_specs = side.make_round(seed)
            wl.warm_up(side_name)
            tr = tracing.Tracer()
            with tr.installed():
                side_outcomes = run_round(side, side_specs, tr, [])[1]
            side_ops[side_name] = tally(side_outcomes)["groups"]
            ops, source = len(side_specs), f"side round of {side_name}"
        if group == "certify":
            values = tracing.certify_layers(tr, ops)
        elif group == "cli.compute":
            rec = tr.spans["cli.compute"]
            values = {"cli.compute_ms": 1e3 * rec[1] / rec[0]}
        else:
            values = tracing.minimizer_layers(tr, wl.Q_TEXTS)
        per = "search" if group == "minimizer" else "op"
        metrics.update({name: (v, f"{source}, per {per}") for name, v in values.items()})
    metrics.update({name: (v, f"median of {PROBE_SAMPLES} fresh processes") for name, v in cli_probes().items()})
    return tally(checked.outcomes()), metrics, {"rounds": len(plain_s) + len(traced_s), "side_ops_by_class": side_ops}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify-fine", "certify-coarse", "cli", "minimize"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        env.use_source()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads as wl

    work = wl.WORKLOADS[args.workload]
    specs = work.make_round(args.seed)
    if args.trace:
        counts, metrics, details = traced(wl, tracing, work, specs, args.seed, args.seconds)
    else:
        counts, metrics, details = untraced(wl, work, specs, args.seconds)
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    rows = [(name, value, units[name], samples) for name, (value, samples) in metrics.items()]

    kind = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, {kind}, one caller in a closed loop")
    for name, value, unit, samples in rows + details.get("not_gated", []):
        print(f"  {name:<32} {value:>16.6g} {unit:<6} {samples}")
    for group, g in sorted(counts["groups"].items()):
        print(f"  ops {group:<28} {g['attempted']:>6} attempted {g['failed']:>5} failed "
              f"{g['violated']:>5} violated  {g['first_reason'][:80]}")
    report = {
        "workload": args.workload,
        "provenance": env.provenance(args.seed, bool(args.trace)),
        "metrics": {name: {"value": v, "unit": u, "samples": s} for name, v, u, s in rows},
        "not_gated": {name: {"value": v, "unit": u, "samples": s} for name, v, u, s in details.pop("not_gated", [])},
        "ops_by_class": counts["groups"],
        "queue_wait": "none: one caller in a closed loop, so no layer waits on a queue",
        **details,
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": counts["correct"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
