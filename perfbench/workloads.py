"""Workload definitions, seeded input generation and independent result checks.

A workload is a list of parts; each part is one ExperimentConfig (as plain
values) and the number of trials run against it. One pass over every
trial of every part is a campaign. The benchmark repeats the identical
campaign to fill its run, so timings are means over repeats while the
work, and every count, is fixed by the seed.

Nothing here computes a product with mvamp.linalg: the reference product
is plain Python integer arithmetic on the benchmark's own input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvamp.harness import ExperimentConfig
from mvamp.oracle import SOURCE_ALG, SOURCE_MATRIX, SOURCE_VECTOR, SOURCE_VERIFIER
from mvamp.verify import charged_queries

# Mixed into the input stream's key so inputs never share a stream with the
# solver, whose per-trial Philox stream is keyed by (seed, trial) alone.
INPUT_STREAM_TAG = 0x1B7C


@dataclass(frozen=True)
class Part:
    values: dict
    trials: int


_CRITERION_7 = dict(modulus=5, n=8, profile="uniform", pipeline="full", k_mode="desk", c0=8.0)
_LARGE = dict(modulus=2**31 - 1, n=64, alpha=0.5, profile="uniform", k=2)

# workload name -> its parts
WORKLOADS = {
    # alpha 0.5 with k set to the desk k of alpha 0.5, 0.25 and 0.125: the
    # cost of one call grows with k alone, and a campaign takes seconds
    # rather than the 15 s that trials at those alphas take
    "uniform-desk": tuple(Part(dict(_CRITERION_7, alpha=0.5, k=k), 1) for k in (17, 23, 28)),
    "large-modulus": (Part(_LARGE, 64),),
}


def experiment_config(part: Part, seed: int) -> ExperimentConfig:
    return ExperimentConfig(trials=part.trials, seed=seed, **part.values)


@dataclass
class TrialInput:
    """One trial's instance as int64 residues, and M v as plain Python ints."""

    part: int
    index: int
    m_vals: np.ndarray
    v_vals: np.ndarray
    expected: list


def _input_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, INPUT_STREAM_TAG, index])))


def reference_product(rows: list, vec: list, p: int) -> list:
    return [sum(a * b for a, b in zip(row, vec)) % p for row in rows]


def make_inputs(parts: tuple, configs: list, seed: int) -> list:
    """Draw every trial's (M, v) from the workload seed; compute M v in ints."""
    inputs = []
    index = 0
    for part_no, (part, cfg) in enumerate(zip(parts, configs)):
        for _ in range(part.trials):
            rng = _input_rng(seed, index)
            m_vals = rng.integers(0, cfg.modulus, size=(cfg.n, cfg.n), dtype=np.int64)
            v_vals = rng.integers(0, cfg.modulus, size=cfg.n, dtype=np.int64)
            rows = [[int(x) for x in row] for row in m_vals]
            vec = [int(x) for x in v_vals]
            inputs.append(TrialInput(part_no, index, m_vals, v_vals, reference_product(rows, vec, cfg.modulus)))
            index += 1
    return inputs


def ledger_problems(cfg: ExperimentConfig, counts: dict, stats, block_count: int, padded_n: int) -> list:
    """Identities the reduction's ledger must satisfy for one trial.

    Every solver call is one stage-1 attempt and charges padded_n^2 to U_M
    and padded_n to U_v. Beyond that, U_M is read once per stage-3
    iteration (the strip split reads its d x d block) and, in actual
    accounting, once per stage-3 verification; U_v is read once per boost
    round (the vector split reads its segment). Padding is free, so on a
    padded instance only blocks inside the original n are charged and the
    split terms are bounded rather than exact.
    """
    out = []
    n, k = cfg.n, block_count
    d = padded_n // k
    alg = counts.get(SOURCE_ALG, 0)
    stage3_verifies = stats.verify_calls - stats.stage1_iters
    actual = cfg.accounting == "actual"
    if alg != stats.stage1_iters:
        out.append(f"ALG {alg} != stage-1 attempts {stats.stage1_iters}")
    if padded_n != -(-n // k) * k:
        out.append(f"padded size {padded_n} is not n={n} rounded up to a multiple of k={k}")
    q = cfg.queries_per_call if cfg.queries_per_call is not None else padded_n * padded_n
    split_m = counts.get(SOURCE_MATRIX, 0) - q * alg
    split_v = counts.get(SOURCE_VECTOR, 0) - padded_n * alg
    top_m = d * d * (stats.stage3_iters + (stage3_verifies if actual else 0))
    top_v = d * stats.boost_rounds_total
    if padded_n == n:
        if split_m != top_m:
            out.append(f"U_M split reads {split_m} != {top_m}")
        if split_v != top_v:
            out.append(f"U_v split reads {split_v} != {top_v}")
    else:
        # every real entry is read at least once; no read exceeds a full block
        if not n * n <= split_m <= top_m:
            out.append(f"U_M split reads {split_m} outside [{n * n}, {top_m}]")
        if not k * n <= split_v <= top_v:
            out.append(f"U_v split reads {split_v} outside [{k * n}, {top_v}]")
    verifier = counts.get(SOURCE_VERIFIER, 0)
    if actual:
        if verifier != 0:
            out.append(f"verifier charged {verifier} under actual accounting")
    else:
        eps = cfg.verifier_epsilon
        want = stats.stage1_iters * charged_queries(padded_n, eps) + stage3_verifies * charged_queries(d, eps)
        if verifier != want:
            out.append(f"verifier charged {verifier} != {want}")
    return out
