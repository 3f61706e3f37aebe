"""The PPChecker benchmark: ``python3 perfbench/run.py --workload W``.

Run from the root of a checkout.  Prints each workload's tables, then
as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds a traced pass and reports the per-layer
metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str]) -> int:
    sys.path.insert(0, HERE)
    from pbench import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print(f"error: no program under test at {src}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # the compiled-KB cache and temp files stay inside the checkout
    os.environ["REPRO_KB_CACHE_DIR"] = ""
    os.environ["TMPDIR"] = os.path.join(ROOT, ".perfbench_work", "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    sys.path.insert(0, src)
    from pbench import workloads

    # a SIGTERM unwinds like an error, so every process started so far
    # is stopped on the way out
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), ROOT)
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
