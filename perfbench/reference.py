"""Reference figures quoted in perfbench/README.md.

    python3 perfbench/reference.py    # about a minute

Prints the wall time per ALG call of single criterion-7 trials (uniform
profile, n=8, p=5, seed 0, desk k) at k = 17, 23, 28 and 34, and the time
of one 64x64 matvec_values at p=31 and at p=2^31-1.
"""

from __future__ import annotations

import sys
import time
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mvamp.harness import ExperimentConfig, run_trial  # noqa: E402
from mvamp.linalg import matvec_values  # noqa: E402
from mvamp.reduction import choose_block_count  # noqa: E402


def main() -> int:
    print("| alpha | k | ALG calls | wall | per ALG call |")
    print("| --- | --- | --- | --- | --- |")
    for alpha in (0.5, 0.25, 0.125, 0.0625):
        cfg = ExperimentConfig(modulus=5, n=8, trials=1, alpha=alpha, profile="uniform", seed=0)
        start = time.perf_counter()
        row = run_trial(cfg, 0)
        wall = time.perf_counter() - start
        k = choose_block_count(alpha, cfg.n, cfg.k_mode, cfg.c0)
        print(f"| {alpha} | {k} | {row.alg_queries:,} | {wall:.2f} s | {wall / row.alg_queries * 1e6:.0f} us |")

    rng = np.random.default_rng(0)
    print("\n| modulus | 64x64 matvec_values |")
    print("| --- | --- |")
    for p in (31, 2**31 - 1):
        m = rng.integers(0, p, size=(64, 64), dtype=np.int64)
        v = rng.integers(0, p, size=64, dtype=np.int64)
        number = 2000 if p == 31 else 20
        best = min(timeit.repeat(lambda: matvec_values(m, v, p), number=number, repeat=5)) / number
        print(f"| {p} | {best * 1e6:.1f} us |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
