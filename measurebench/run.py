"""Run one workload of the measure-engine benchmark and print its metrics.

    python3 measurebench/run.py --workload tpch_cold --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the engine is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say what was run.  The exit code is 0 only when every result was correct.
``--corrupt`` damages one result before it is checked, to show the check
fails.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still stops the server process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no engine source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(
        f"workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}"
    )
    report = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), args.corrupt
    )
    for line in report.lines:
        print(line)
    correct = report.failed == 0 and report.attempted > 0
    for name, (value, unit) in report.metrics.items():
        print(f"{name:<40} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
