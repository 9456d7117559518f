"""Child-process entry points of the benchmark.

    python3 bench/probe.py setup WORKLOAD   import certquad, run the workload's warm-up op, exit
    python3 bench/probe.py import           print the seconds a fresh ``import certquad.cli`` takes
    python3 bench/probe.py cli ARGS...      run ``certquad ARGS...`` traced; the trace is the last
                                            line of stderr, prefixed "TRACE "
"""

from __future__ import annotations

import json
import sys
import time

import env


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    env.use_source()
    if mode == "setup":
        import workloads

        workloads.warm_up(rest[0])
        return 0
    start = time.perf_counter()
    import certquad.cli

    import_s = time.perf_counter() - start
    if mode == "import":
        print(repr(import_s))
        return 0
    if mode != "cli":
        raise SystemExit(f"unknown probe mode {mode!r}")
    # imported after certquad so that numpy's import counts in import_s
    from tracing import Tracer

    tracer = Tracer()
    tracer.spans["cli.import"] = [1, import_s, import_s, 0]
    with tracer.installed(registry=True), tracer.span("cli.compute"):
        code = certquad.cli.main(rest)
    sys.stdout.flush()
    print("TRACE " + json.dumps(tracer.to_dict()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
