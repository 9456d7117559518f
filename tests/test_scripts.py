"""The experiment scripts run end to end as subprocesses on small inputs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_convergence_study(tmp_path):
    out = tmp_path / "c.csv"
    stdout = run_script("convergence_study.py", "--levels", "2", "--out", str(out))
    assert "wrote 6 rows" in stdout
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["rule", "n", "estimate", "error", "bound", "bound_over_error"]
    got = [(r[0], int(r[1])) for r in rows[1:]]
    assert got == [(rule, n) for rule in ("composite-trapezoid", "composite-midpoint")
                   for n in (1, 2, 4)]
    for row in rows[1:]:
        error, bound = float(row[3]), float(row[4])
        assert error <= bound


def test_norm_minimization_study():
    stdout = run_script("norm_minimization_study.py", "--q-grid", "2", "--restarts", "2")
    lines = stdout.splitlines()
    q, achieved, target, gap, _ = lines[1].split()
    assert float(q) == 2.0
    assert float(achieved) == pytest.approx(float(target), abs=1e-6)
    assert float(gap) <= 1e-6
    exhibits = [line for line in lines if line.strip().startswith("||")]
    assert len(exhibits) == 2
    for line in exhibits:
        assert float(line.rsplit("=", 1)[1]) == pytest.approx(1.0, abs=1e-12)


def test_norm_digest():
    args = ("--functions", "xy", "sinsum", "--rects", "unit", "--p", "2", "inf", "--m", "1", "3")
    first = run_script("norm_digest.py", *args)
    count, label, algorithm, digest = first.split()
    assert (count, label, algorithm) == ("16", "bundles", "sha256")
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert run_script("norm_digest.py", *args) == first


def test_norm_digest_against_its_own_dump(tmp_path):
    args = ("--functions", "sinsin", "--rects", "offset", "--p", "1", "1.5", "--m", "1", "3")
    dump = tmp_path / "norms.json"
    first = run_script("norm_digest.py", *args, "--dump", str(dump))
    again = run_script("norm_digest.py", *args, "--against", str(dump)).splitlines()
    assert again[0] == first.strip()
    assert again[1] == ("against 8 bundles: line norms max rel dev 0, fxy max rel dev 0, "
                        "fxy below reference 0")
    assert again[2] == "line norms below reference 0, max rel shortfall 0"
    assert again[3] == "against 10 weight norms: 0 differ, max rel dev 0"
    assert again[4:] == [f"p={p}: line norms max rel dev 0 (0 below reference), fxy max rel dev 0 "
                         "(0 below reference), weight norms max rel dev 0" for p in ("1", "1.5")]
    # a deviating dump: one p = 1 line norm raised by 1e-10 relative shows at p = 1 alone
    reference = json.loads(dump.read_text())
    reference["bundles"]["sinsin offset p=1 trapezoid m=3"]["x_lines"][0] *= 1.0 + 1e-10
    dump.write_text(json.dumps(reference))
    changed = run_script("norm_digest.py", *args, "--against", str(dump)).splitlines()
    assert changed[2] == "line norms below reference 1, max rel shortfall 1e-10"
    assert changed[4] == ("p=1: line norms max rel dev 1e-10 (1 below reference), fxy max rel dev 0 "
                          "(0 below reference), weight norms max rel dev 0")
    assert changed[5] == again[5]


def test_cli_digest():
    args = ("--functions", "xy", "--rects", "unit", "--p", "2", "--formats", "json")
    first = run_script("cli_digest.py", *args)
    count, label, algorithm, digest = first.split()
    assert (count, label, algorithm) == ("33", "calls", "sha256")
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert run_script("cli_digest.py", *args) == first


def test_certify_digest():
    args = ("--workload", "certify-coarse", "certify-fine", "--seeds", "1", "--ops", "6")
    first = run_script("certify_digest.py", *args)
    count, label, algorithm, digest = first.split()
    assert (count, label, algorithm) == ("12", "ops", "sha256")
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert run_script("certify_digest.py", *args) == first
    assert run_script("certify_digest.py", *args[:4], "2", *args[5:]) != first


def test_certify_digest_against_its_own_dump(tmp_path):
    args = ("--workload", "certify-coarse", "certify-fine", "--seeds", "1", "--ops", "4")
    dump = tmp_path / "ops.json"
    first = run_script("certify_digest.py", *args, "--dump", str(dump))
    again = run_script("certify_digest.py", *args, "--against", str(dump)).splitlines()
    assert again[0] == first.strip()
    assert again[1:3] == [
        f"{workload} against 4 ops: max rel dev estimate 0, fxy 0, line norms 0, bound terms 0; "
        "ok changed 0, violated changed 0, refusals changed 0"
        for workload in ("certify-coarse", "certify-fine")
    ]
    # then one line per workload and op class, registry before steep, and one
    # per workload and p; each set of lines adds up to the workloads' ops
    ops = json.loads(dump.read_text())
    classes = sorted({(key.split()[0], op["class"]) for key, op in ops.items()},
                     key=lambda pair: (pair[0], ["registry", "steep"].index(pair[1])))
    assert {op["class"] for op in ops.values()} == {"registry", "steep"}
    per_class = [line.split(" against ") for line in again[3:3 + len(classes)]]
    assert [label for label, _ in per_class] == [f"{workload} {name}" for workload, name in classes]
    per_p = [line.split(" against ") for line in again[3 + len(classes):]]
    assert [label for label, _ in per_p] == sorted(
        {f"{key.split()[0]} p={op['p']}" for key, op in ops.items()},
        key=lambda label: (label.split()[0], float(label.split("=")[1])))
    for lines in (per_class, per_p):
        assert all(rest.endswith("max rel dev estimate 0, fxy 0, line norms 0, bound terms 0; "
                                 "ok changed 0, violated changed 0, refusals changed 0") for _, rest in lines)
        assert sum(int(rest.split()[0]) for _, rest in lines) == 8
    # a deviating dump: one op's fxy raised by 1e-10 relative and its ok flipped,
    # and the first line norm of a p = 1 op raised by 1e-10 relative
    op = ops["certify-fine seed=1 op=0"]
    op["result"][1] *= 1.0 + 1e-10
    op["ok"] = not op["ok"]
    one = ops["certify-coarse seed=1 op=1"]
    assert one["p"] == "1" and one["result"][2][0] > 0.0
    one["result"][2][0] *= 1.0 + 1e-10
    dump.write_text(json.dumps(ops))
    changed = run_script("certify_digest.py", *args, "--against", str(dump)).splitlines()
    assert changed[1].startswith("certify-coarse against 4 ops: max rel dev estimate 0, fxy 0, line norms 1e-10, ")
    assert changed[2].startswith("certify-fine against 4 ops: max rel dev estimate 0, fxy 1e-10, line norms 0, ")
    assert changed[2].endswith("; ok changed 1, violated changed 0, refusals changed 0")
    moved = [line for line in changed[3:] if line not in again[3:]]
    assert [line.split(" against ")[0] for line in moved] == [
        f"certify-coarse {one['class']}", f"certify-fine {op['class']}",
        "certify-coarse p=1", f"certify-fine p={op['p']}"]


def test_src_lines_categories_sum_to_each_module():
    rows = [line.split() for line in run_script("src_lines.py").splitlines()]
    assert rows[0] == ["module", "lines", "code", "docstring", "comment", "blank"]
    modules, total = rows[1:-1], rows[-1]
    assert [name for name, *_ in modules] == [str(path.relative_to(ROOT))
                                              for path in sorted((ROOT / "src" / "certquad").rglob("*.py"))]
    for name, lines, *parts in modules:
        assert int(lines) == sum(map(int, parts)) == len((ROOT / name).read_text().splitlines()), name
    assert total[0] == "total"
    assert [int(v) for v in total[1:]] == [sum(int(row[k]) for row in modules) for k in range(1, 6)]


def test_line_coverage_of_the_cli_digest():
    args = ("--functions", "xy", "--rects", "unit", "--p", "2", "--formats", "json")
    out = run_script("line_coverage.py", str(ROOT / "scripts" / "cli_digest.py"), *args).splitlines()
    # the target's own output first, unchanged by the tracer
    assert out[0] == run_script("cli_digest.py", *args).strip()
    assert out[1].split() == ["module", "lines", "run", "never", "run"]
    rows = {line.split()[0]: line.split(maxsplit=3)[1:] for line in out[2:-1]}
    assert list(rows) == [str(path.relative_to(ROOT)) for path in sorted((ROOT / "src" / "certquad").glob("*.py"))]
    for lines, ran, *never in rows.values():
        assert 0 <= int(ran) <= int(lines)
        assert (int(ran) == int(lines)) == (never == [])
    # the digest calls cli.main in process: gauss runs, the package's __main__ does not
    assert int(rows["src/certquad/gauss.py"][1]) > 0
    assert rows["src/certquad/__main__.py"][1] == "0"
    total = out[-1].split()
    assert total == ["total", str(sum(int(r[0]) for r in rows.values())), str(sum(int(r[1]) for r in rows.values()))]


def test_phase_times():
    lines = run_script("phase_times.py", "--workload", "certify-coarse", "--repeats", "1").splitlines()
    assert lines[0] == "certify-coarse seed 1: 240 ops (0 refused), fastest of 1 repeats, mean us per op"
    header, ops, *rows, total, share = (line.split() for line in lines[1:])
    assert header == ["phase", "p=1", "p=1.5", "p=2", "p=3", "p=inf", "free", "split", "all"]
    assert ops[:6] == ["ops", "48", "48", "48", "48", "48"] and ops[8] == "240"
    # the finite-p reports split into the two classes, some of them split-line
    assert int(ops[6]) + int(ops[7]) == 192 and int(ops[7]) > 0
    phases = {row[0]: [float(v) for v in row[1:]] for row in rows}
    assert list(phases) == ["estimate", "scan_breaks", "graded_nodes", "_area_ladder", "_batch_norms",
                            "_variation_norms", "_sup_lines", "zoomed_sup", "norms_rest", "bound", "oracle"]
    # each norm phase runs at the p that reaches it, and only there
    for name in ("scan_breaks", "graded_nodes", "_area_ladder"):
        assert all(v > 0.0 for v in phases[name][:4]) and phases[name][4] == 0.0
    assert phases["_batch_norms"][0] == 0.0 and all(v > 0.0 for v in phases["_batch_norms"][1:4])
    assert phases["_variation_norms"][0] > 0.0 and not any(phases["_variation_norms"][1:5])
    for name in ("_sup_lines", "zoomed_sup"):
        assert not any(phases[name][:4]) and phases[name][4] > 0.0
    # the total is the sum of the rows, up to their printed rounding
    assert total[0] == "total"
    assert [float(v) for v in total[1:]] == pytest.approx([sum(col) for col in zip(*phases.values())], abs=1.0)
    # the shares of the p columns, and of the classes with p = inf, make up the round
    assert share[0] == "share" and float(share[8]) == 100.0
    parts = [float(v) for v in share[1:8]]
    assert sum(parts[:5]) == pytest.approx(100.0, abs=0.3)
    assert parts[4] + parts[5] + parts[6] == pytest.approx(100.0, abs=0.2)


def test_interleaved_ab_times_every_class_of_both_trees():
    lines = run_script("interleaved_ab.py", str(ROOT), str(ROOT), "--workload", "certify-coarse",
                       "--rounds", "1").splitlines()
    assert lines[0] == ("certify-coarse seed 1: 240 ops, fastest of 1 rounds, "
                        "ms per class (ops alternate between the trees)")
    assert lines[1].split() == ["class", "ops", "A", "B", "B/A-1"]
    rows = [line.split() for line in lines[2:]]
    assert [" ".join(row[:2]) for row in rows] == [f"p={p} {kind}" for p in ("1", "1.5", "2", "3", "inf")
                                                   for kind in ("registry", "steep")] + ["round 240"]
    counts = [int(row[2]) for row in rows[:-1]]
    assert sum(counts) == 240 and all(counts)
    for row in rows:
        a, b = float(row[-3]), float(row[-2])
        # the change is printed from the unrounded times
        assert a > 0.0 and b > 0.0 and float(row[-1][:-1]) == pytest.approx(100.0 * (b / a - 1.0), abs=0.1)
    # the round is at least as long as its slowest class, and no longer than all of them
    classes = [[float(row[-3]) for row in rows[:-1]], [float(row[-2]) for row in rows[:-1]]]
    for k, times in enumerate(classes):
        assert max(times) <= float(rows[-1][-3 + k]) <= sum(times) + 1e-3 * len(times)
