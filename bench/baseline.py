"""Run every workload untraced and traced; print every figure and write them to one file.

    python3 bench/baseline.py [--seed N] [--seconds S] [--out bench/BENCH_baseline.json]

Each run's table (metric, value, unit, sample count) is printed as it
finishes.  The file holds each run's ``report`` and result lines, so a
later commit can be compared metric by metric; the tracing overhead of
each workload is its traced run's ``trace.overhead_pct``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", default=str(env.BENCH / "BENCH_baseline.json"))
    args = parser.parse_args(argv)
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(env.BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=env.ROOT,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("report ")), flush=True)
            report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
            runs[f"{workload} trace={trace}"] = {"report": report, "result": json.loads(lines[-1])}
    with open(args.out, "w") as out:
        json.dump({"seed": args.seed, "seconds": seconds, "runs": runs}, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
