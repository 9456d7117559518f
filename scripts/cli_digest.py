#!/usr/bin/env python3
"""One SHA-256 over the exit code, stdout and stderr of a fixed grid of CLI calls.

Every call runs ``certquad.cli.main(argv)`` in this process with stdout
and stderr captured (an argparse usage error's ``SystemExit`` gives the
exit code).  Warnings are recorded per call, by category and message
only, so the digest does not depend on where the source tree lives.  The
grid covers every subcommand in both formats: ``integrate`` and ``bound``
with the four rules, ``converge`` with the two composite rules, and
``verify-identity`` with the four weights, each at every p and on every
rectangle; ``minimize-norm`` at two q; ``corpus-report`` on every
rectangle; and a fixed list of calls that exit 1, 2 or 3.
``--m/--n`` go only to the composite rules and weights.  Two source
trees whose digests agree printed the same bytes and exit codes for
every call, so a change meant to alter no CLI output can be checked with
one command on each tree:

    PYTHONPATH=src python3 scripts/cli_digest.py

The options shrink the grid (the default is the full one, ~8 s on a
2-vCPU x86_64 VM).
"""

import argparse
import contextlib
import hashlib
import io
import warnings

from certquad.cli import main

RECTS = {"unit": ("0", "1", "0", "1"), "offset": ("0.5", "1.75", "-0.25", "0.5")}
RULES = ("trapezoid", "midpoint", "composite-trapezoid", "composite-midpoint")
PARTITION = ("--m", "3", "--n", "2")

ERROR_CALLS = (
    ("integrate", "--function", "nosuch"),
    ("integrate", "--p", "minus"),
    ("integrate", "--rect", "1", "0", "0", "1"),
    ("integrate", "--rule", "simpson"),
    ("bound", "--resolution", "many"),
    ("integrate", "--function", "invsum", "--rect", "-2", "3", "1", "4"),
    ("integrate", "--function", "expsum", "--rect", "1000", "1001", "0", "1", "--p", "2"),
    ("integrate", "--function", "sinsin", "--rect", "0", "1e-15", "0", "1e-15", "--p", "2",
     "--rule", "composite-trapezoid", "--m", "4", "--n", "4"),
    ("integrate", "--function", "sinsin", "--rect", "0", "inf", "0", "1"),
    ("integrate", "--p", "nan"),
    ("integrate", "--rule", "composite-trapezoid", "--m", "0"),
    ("converge", "--rule", "trapezoid"),
    ("verify-identity", "--function", "sinsin", "--tol", "0"),
    ("minimize-norm", "--q", "0.5"),
    ("integrate", "--function", "expsum", "--rect", "700", "709.5", "0", "0.5"),
    ("bound", "--function", "expsum", "--rect", "700", "709.5", "0", "0.5", "--p", "2", "--format", "json"),
)


def calls(functions, rects, ps, formats):
    for fmt in formats:
        for rect_name in rects:
            rect = ("--rect", *RECTS[rect_name])
            for function in functions:
                where = ("--function", function, *rect)
                for p in ps:
                    for rule in RULES:
                        composite = rule.startswith("composite")
                        for command in ("integrate", "bound"):
                            yield (command, *where, "--p", p, "--rule", rule,
                                   *(PARTITION if composite else ()), "--format", fmt)
                        if composite:
                            yield ("converge", *where, "--p", p, "--rule", rule, "--levels", "2", "--format", fmt)
                for weight in RULES:
                    yield ("verify-identity", *where, "--weight", weight,
                           *(PARTITION if weight.startswith("composite") else ()), "--format", fmt)
            yield ("corpus-report", *rect, "--max-n", "2", "--resolution", "64", "--format", fmt)
        for q in ("2", "inf"):
            yield ("minimize-norm", "--q", q, "--restarts", "2", "--format", fmt)
    yield from ERROR_CALLS


def call(argv):
    """(exit code, stdout, stderr, warnings) of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error would exit 1 with a traceback
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), [(w.category.__name__, str(w.message)) for w in caught]


def main_digest() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--functions", nargs="+", default=["poly22", "sinsin", "invsum"])
    ap.add_argument("--rects", nargs="+", choices=sorted(RECTS), default=list(RECTS))
    ap.add_argument("--p", nargs="+", default=["1", "2", "inf"])
    ap.add_argument("--formats", nargs="+", choices=("text", "json"), default=["text", "json"])
    args = ap.parse_args()

    digest = hashlib.sha256()
    count = 0
    for argv in calls(args.functions, args.rects, args.p, args.formats):
        digest.update(repr((argv, *call(argv))).encode())
        count += 1
    print(count, "calls", "sha256", digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main_digest())
