"""Run one ``newsgeo`` command in this fresh interpreter, as the benchmark does.

    python3 perfbench/child.py [--sim WORKLOAD:SEED] [--trace-out FILE] -- <newsgeo args>

``--sim`` regenerates the named world and installs the simulated remote
endpoint as ``newsgeo.kb.default_transport`` before the command builds its
clients. ``--trace-out`` installs the span tracer and writes the spans of
the whole command to FILE when it ends. Without either flag the command runs
unmodified. The exit code is the command's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--sim")
    parser.add_argument("--trace-out")
    parser.add_argument("--texts", help="JSON file mapping article text to id, for span attribution")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.sim:
        import newsgeo.kb
        from simkb import SimulatedEndpoint
        from workloads import world_for

        workload, _, seed = args.sim.partition(":")
        newsgeo.kb.default_transport = SimulatedEndpoint(world_for(workload, int(seed)))
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        texts = json.loads(Path(args.texts).read_text(encoding="utf-8")) if args.texts else {}
        tracer = Tracer(texts)
        tracer.install()
    from newsgeo.cli import main as cli_main

    try:
        code = cli_main(command)
    finally:
        if tracer is not None:
            tracer.dump(Path(args.trace_out), time.perf_counter() - started)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
