"""Steadiness check: run one workload repeatedly and report each metric's spread.

    python3 perfbench/steady.py --workload large-modulus --seeds 0-9
    python3 perfbench/steady.py --workload uniform-desk --seeds 3 --repeat 3 --trace 1

Each seed is run --repeat times through run.py. For every metric the
command prints the median, the first and third quartiles and the spread
(q3 - q1) / median over all runs; end-to-end metrics are compared with the
bound in BENCHMARK.json. A count metric, or the share of failed trials,
that differs between runs of one seed is flagged. The bounds in
BENCHMARK.json are set from this output over ten seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run.py exited {done.returncode} on seed {seed}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    flags = []
    values: dict = {}
    units: dict = {}
    for seed in parse_seeds(args.seeds):
        seen = []
        for _ in range(args.repeat):
            out = run_once(args.workload, seed, seconds, args.trace)
            share = out["failed"] / out["attempted"]
            timed = " ".join(f"{n}={m['value']:.4g}" for n, m in out["metrics"].items() if m["unit"] != "count")
            print(f"seed {seed}: correct={out['correct']} attempted={out['attempted']} failed={out['failed']} {timed}")
            if not out["correct"]:
                flags.append(f"seed {seed}: a check failed")
            counts = {n: m["value"] for n, m in out["metrics"].items() if m["unit"] == "count"}
            seen.append((share, counts))
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        if any(s != seen[0] for s in seen[1:]):
            flags.append(f"seed {seed}: failed share or a count did not repeat exactly: {seen}")

    print(f"\n{args.workload}, {len(values.get(next(iter(values)), []))} runs of {seconds:g} s")
    print(f"{'metric':32} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and spread > bound / 3:
            mark = "  > bound/3" if spread <= bound else "  > bound"
            flags.append(f"{name}: spread {spread:.4f} against bound {bound}")
        print(f"{name:32} {units[name]:6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{mark}")
    for msg in flags:
        print(f"FLAG: {msg}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
