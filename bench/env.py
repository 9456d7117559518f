"""Where the program under test lives, and what every benchmark process records.

The benchmark measures the certquad sources of the checkout it sits in
(``<root>/src``), never an installed copy.  Child processes get the same
source tree through ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def use_source() -> None:
    """Put ``<root>/src`` first on ``sys.path``; refuse to run without it.

    Also keeps OpenBLAS to one thread in this process and its children:
    every workload is one caller, and on a two-core machine the default
    helper thread doubled the CPU time of a run without making it faster.
    """
    if not (SRC / "certquad" / "__init__.py").is_file():
        raise FileNotFoundError(f"no certquad sources under {SRC}")
    if "numpy" in sys.modules:
        raise RuntimeError("use_source() must run before numpy is imported")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child Python processes: the same certquad sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, trace: bool) -> dict:
    """Environment and provenance recorded with every result."""
    import numpy

    try:
        import scipy
    except ImportError:
        scipy_version = "absent"
    else:
        scipy_version = scipy.__version__
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(),
        "trace": trace,
    }
