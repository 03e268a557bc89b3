"""End-to-end and per-layer benchmark of the amplification pipeline.

    python3 perfbench/run.py --workload uniform-desk --seed 0 --seconds 60 --trace 0

Run from a checkout of the repository; mvamp is imported from its src
directory. One run repeats the workload's campaign (a fixed list of trials
drawn from --seed) for about --seconds and checks every trial. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced campaigns, checks that both did the same work, and
prints the per-layer metrics. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mvamp" / "__init__.py").is_file():
        print(f"perfbench: no mvamp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mvamp

    if Path(mvamp.__file__).resolve().parent != SRC / "mvamp":
        print(f"perfbench: imported mvamp from {mvamp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from campaign import Bench, end_to_end, per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, str(SRC))
    metrics = per_layer(bench, args.seconds) if args.trace else end_to_end(bench, args.seconds)
    for msg in bench.problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
