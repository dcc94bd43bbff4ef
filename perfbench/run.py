"""Repository benchmark: one workload, one seed, checked answers, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pages|traces|service --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` installs span wrappers around each layer's public calls
(``layers.py``), prints the per-layer metrics and writes the spans as
Chrome trace-event JSON under ``perfbench/out/``.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is the
JSON result; the lines before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pages", "traces", "service")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"benchmark error: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import common
    from spans import Tracer

    spec = common.benchmark_spec()
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {row["name"]: row["unit"] for row in table}
    tracer = Tracer() if args.trace else None
    workload = importlib.import_module(f"wl_{args.workload}")
    outcome = workload.run(args.seed, args.seconds, tracer)
    trace_file = None
    if tracer is not None:
        trace_file = common.OUT / f"spans-{args.workload}-{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(tracer.chrome_events()))
    return common.emit(outcome, names, trace_file)


if __name__ == "__main__":
    sys.exit(main())
