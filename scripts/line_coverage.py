#!/usr/bin/env python3
"""Line coverage of the certquad package, with no dependency beyond Python.

Runs a script or a module in this process under ``sys.settrace`` (and
``threading.settrace``, for threads it starts), records every line it
executes in a module of src/certquad, and then prints one row per module:
its executable lines, how many of them ran, and the line numbers that
never ran, as ranges.  A total row follows.  The executable lines of a
module are the line numbers of its code objects (``co_lines``), nested
functions, classes and comprehensions included.

    PYTHONPATH=src python3 scripts/line_coverage.py scripts/cli_digest.py --functions xy
    PYTHONPATH=src python3 scripts/line_coverage.py -m pytest -q -p no:cacheprovider tests

The target's exit code is this script's.  Subprocesses that the target
starts are not traced, so lines that only run in one (the CLI calls of
``tests/test_cli.py``'s ``invoke``) count as never run.  Tracing slows
pure-Python code: tier 1 took ~27 s under it against ~17 s untraced on a
2-vCPU x86_64 VM.
"""

import os
import runpy
import sys
import threading
from itertools import groupby
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "certquad"
USAGE = "usage: line_coverage.py (-m MODULE | SCRIPT) [ARGS ...]"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of a module's code objects and of every code object nested in them."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as ranges: 3-5, 9."""
    runs = [[n for _, n in run] for _, run in groupby(enumerate(sorted(lines)), lambda t: t[1] - t[0])]
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


class Tracer:
    """A ``sys.settrace`` function that records the lines run in a fixed set of files.

    Frames of other files get no local trace function, so their lines
    cost no trace call.
    """

    def __init__(self, files):
        self.modules = {os.path.realpath(p): p for p in files}
        self.where: dict[str, Path | None] = {}  # co_filename -> module
        self.hits = {p: set() for p in files}

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.where:
            self.where[name] = self.modules.get(os.path.realpath(name))
        module = self.where[name]
        if module is None:
            return None
        hits = self.hits[module]
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local


def run(argv: list[str]):
    """Run ``-m MODULE [ARGS]`` or ``SCRIPT [ARGS]`` as ``__main__``; returns its exit code."""
    if argv[0] == "-m":
        sys.argv = argv[1:]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = argv
        sys.path.insert(0, str(Path(argv[0]).resolve().parent))
        runpy.run_path(argv[0], run_name="__main__")
    return 0


def main() -> None:
    argv = sys.argv[1:]
    if not argv or argv[0].startswith("-") and (argv[0] != "-m" or len(argv) < 2):
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    files = sorted(PACKAGE.glob("*.py"))
    tracer = Tracer(files)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.settrace(None)
        threading.settrace(None)
    rows, total, ran = [], 0, 0
    for path in files:
        lines = executable_lines(path)
        hit = lines & tracer.hits[path]
        total, ran = total + len(lines), ran + len(hit)
        rows.append((str(path.relative_to(ROOT)), len(lines), len(hit), ranges(lines - hit)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}} {'lines':>6} {'run':>6}  never run")
    for name, lines, hit, never in rows:
        print(f"{name:<{width}} {lines:>6} {hit:>6}  {never}")
    print(f"{'total':<{width}} {total:>6} {ran:>6}")
    sys.exit(code)


if __name__ == "__main__":
    main()
