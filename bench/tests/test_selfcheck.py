"""Self-checks of the benchmark.  Run with ``python3 -m pytest bench/tests`` (about three minutes)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC_E2E = ("certified_ratio", "sound_ratio", "bound_over_error_p50")
DETERMINISTIC_REPORT = ("fail_ratio", "violation_ratio")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def results(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_figures_repeat_at_one_seed(workload):
    (report_a, result_a), (report_b, result_b) = (results(run_bench(workload, 11, 0)) for _ in range(2))
    assert set(result_a) == {"correct", "attempted", "failed", "metrics"}
    assert set(result_a["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # run lengths may differ by whole rounds; the counts and ratios must not
    assert (result_a["attempted"], result_a["failed"]) == (result_b["attempted"], result_b["failed"])
    for name in DETERMINISTIC_E2E:
        assert result_a["metrics"][name] == result_b["metrics"][name], name
    for name in DETERMINISTIC_REPORT:
        assert report_a["not_gated"][name]["value"] == report_b["not_gated"][name]["value"], name
    assert result_a["correct"] and result_b["correct"]


def test_traced_counts_repeat_at_one_seed():
    (report_a, result_a), (_, result_b) = (results(run_bench("certify-coarse", 12, 1)) for _ in range(2))
    assert set(result_a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # the minimize side round checks its searches too: only q = inf fails
    assert {q for q, g in report_a["side_ops_by_class"]["minimize"].items() if g["failed"]} <= {"q=inf"}
    counts = [name for name in result_a["metrics"] if name.startswith("integrand.")]
    assert len(counts) == 7
    for name in counts:
        assert result_a["metrics"][name] == result_b["metrics"][name], name


def test_known_defects_are_counted_not_hidden():
    report, result = results(run_bench("certify-coarse", 13, 0))
    classes = report["ops_by_class"]
    assert classes["registry"]["failed"] == 0
    assert classes["steep p=inf"]["failed"] == 0
    assert sum(classes[f"steep p={p}"]["violated"] for p in ("1", "1.5", "2", "3")) > 0
    violated = sum(c["violated"] for c in classes.values())
    assert result["failed"] >= violated > 0
    assert result["metrics"]["sound_ratio"]["value"] == pytest.approx(1 - violated / result["attempted"])


def test_refuses_without_sources():
    # a directory holding only BENCHMARK.json and bench/, kept inside the checkout
    with tempfile.TemporaryDirectory(dir=BENCH) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("__pycache__", "tmp*"))
        proc = run_bench("certify-coarse", 1, 0, cwd=Path(bare))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
