"""Simulated average-case solvers with per-input success probabilities.

A profile maps each concrete (M, v) pair, given as int64 residue arrays
and the modulus, to a success probability. The map is a deterministic
function of the input (and the profile's own seed), so repeated calls on
the same input draw from the same Bernoulli; adversarial profiles cannot
be washed out by retrying the identical input. An invoke takes the
instance as arrays, together with its true product as the simulation's
ground truth, hands those arrays to the profile as they are, and charges
the modeled access cost (one ALG call, Q matrix reads, n vector reads) to
the canonical sources.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .field import PrimeField
from .linalg import count_matrices, count_vectors, enumerate_matrices, enumerate_vectors
from .oracle import SOURCE_ALG, SOURCE_MATRIX, SOURCE_VECTOR, QueryLedger

# Exhaustive enumeration over all (M, v) pairs is refused beyond this many
# pairs; keeps exact-average and good-fraction sweeps at desk scale.
MAX_EXHAUSTIVE_PAIRS = 2**24

# How a failed call's wrong output is drawn: a uniform vector other than
# the truth, or the truth with one coordinate shifted.
FAILURE_MODES = ("uniform", "perturb")


def _check_probability(name: str, x: float):
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")


def _input_digest(m_vals: np.ndarray, v_vals: np.ndarray, modulus: int, seed: int) -> int:
    """64-bit digest of (modulus, shapes, entries, seed), stable across runs."""
    rows, cols = m_vals.shape
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<qqqqq", seed, modulus, rows, cols, v_vals.shape[0]))
    h.update(m_vals.astype("<u8").tobytes())
    h.update(v_vals.astype("<u8").tobytes())
    return int.from_bytes(h.digest(), "little")


def check_planted_reachable(average: float, bad_fraction: float):
    """Raise ValueError if a planted profile cannot reach this average.

    Inputs outside the bad set succeed with average / (1 - bad_fraction),
    which must not exceed 1 (up to float slack at the boundary).
    """
    if average > 1.0 - bad_fraction + 1e-12:
        raise ValueError(
            f"average {average} unreachable with bad_fraction {bad_fraction}: "
            f"surviving inputs would need success probability above 1"
        )


class SolverProfile:
    """Base class: a deterministic per-input success probability."""

    def success_probability(self, m_vals: np.ndarray, v_vals: np.ndarray, modulus: int) -> float:
        raise NotImplementedError


class UniformProfile(SolverProfile):
    """Every input succeeds with the same probability alpha."""

    def __init__(self, alpha: float):
        _check_probability("alpha", alpha)
        self.alpha = float(alpha)

    def success_probability(self, m_vals, v_vals, modulus) -> float:
        return self.alpha

    def __repr__(self):
        return f"UniformProfile(alpha={self.alpha})"


class GoodBadProfile(SolverProfile):
    """Inputs split by a predicate of (m_vals, v_vals, modulus) into two success levels."""

    def __init__(
        self,
        predicate: Callable[[np.ndarray, np.ndarray, int], bool],
        alpha_good: float,
        alpha_bad: float,
    ):
        _check_probability("alpha_good", alpha_good)
        _check_probability("alpha_bad", alpha_bad)
        self.predicate = predicate
        self.alpha_good = float(alpha_good)
        self.alpha_bad = float(alpha_bad)

    def success_probability(self, m_vals, v_vals, modulus) -> float:
        return self.alpha_good if self.predicate(m_vals, v_vals, modulus) else self.alpha_bad

    def __repr__(self):
        return f"GoodBadProfile(alpha_good={self.alpha_good}, alpha_bad={self.alpha_bad})"


class PlantedAdversarialProfile(SolverProfile):
    """Success 0 on a pseudorandom bad_fraction of inputs, boosted elsewhere.

    Membership in the bad set is keyed by a hash of the input and the
    profile seed, so it is a fixed property of each (M, v) pair. Surviving
    inputs succeed with average/(1 - bad_fraction), putting the overall
    average at the declared level.
    """

    def __init__(self, average: float, bad_fraction: float, seed: int = 0):
        _check_probability("average", average)
        if not 0.0 <= bad_fraction < 1.0:
            raise ValueError(f"bad_fraction must lie in [0, 1), got {bad_fraction}")
        check_planted_reachable(average, bad_fraction)
        self.average = float(average)
        self.bad_fraction = float(bad_fraction)
        self.seed = int(seed)
        self._threshold = int(self.bad_fraction * 2.0**64)

    def is_bad(self, m_vals: np.ndarray, v_vals: np.ndarray, modulus: int) -> bool:
        return _input_digest(m_vals, v_vals, modulus, self.seed) < self._threshold

    def success_probability(self, m_vals, v_vals, modulus) -> float:
        if self.is_bad(m_vals, v_vals, modulus):
            return 0.0
        return min(1.0, self.average / (1.0 - self.bad_fraction))

    def __repr__(self):
        return (
            f"PlantedAdversarialProfile(average={self.average}, "
            f"bad_fraction={self.bad_fraction}, seed={self.seed})"
        )


def vector_success_exhaustive(profile: SolverProfile, n: int, field: PrimeField) -> list[float]:
    """Each vector's success probability averaged over all n x n matrices.

    Exact, in enumerate_vectors' order; refuses more than MAX_EXHAUSTIVE_PAIRS pairs.
    """
    pairs = count_matrices(field, n, n) * count_vectors(field, n)
    if pairs > MAX_EXHAUSTIVE_PAIRS:
        raise ValueError(f"domain has {pairs} pairs, beyond exhaustive bound {MAX_EXHAUSTIVE_PAIRS}")
    p = field.modulus
    matrices = [m.values for m in enumerate_matrices(field, n, n)]
    vectors = [v.values for v in enumerate_vectors(field, n)]
    return [sum(profile.success_probability(m, v, p) for m in matrices) / len(matrices) for v in vectors]


def exact_average_success(profile: SolverProfile, n: int, field: PrimeField) -> float:
    """Average success probability over every (M, v) pair, by enumeration."""
    return float(np.mean(vector_success_exhaustive(profile, n, field)))


@dataclass
class NoisySolver:
    """An average-case solver simulacrum.

    queries_per_call is the modeled number of matrix-oracle reads one call
    spends; None means n^2 for the instance actually handed in. On failure
    the output is wrong by construction: either a uniform wrong vector or
    the true product with one coordinate shifted.
    """

    profile: SolverProfile
    queries_per_call: Optional[int] = None
    failure_mode: str = "uniform"

    def __post_init__(self):
        if self.failure_mode not in FAILURE_MODES:
            raise ValueError(f"unknown failure_mode {self.failure_mode!r}")
        if self.queries_per_call is not None and self.queries_per_call < 0:
            raise ValueError("queries_per_call must be nonnegative")


def _wrong_output(truth: np.ndarray, mode: str, modulus: int, rng: np.random.Generator) -> np.ndarray:
    n = truth.shape[0]
    if mode == "perturb":
        vals = truth.copy()
        i = int(rng.integers(n))
        shift = 1 + int(rng.integers(modulus - 1))
        vals[i] = (vals[i] + shift) % modulus
        return vals
    while True:
        # random_vector's draw, as a bare array
        w = rng.integers(0, modulus, size=n, dtype=np.int64)
        if np.count_nonzero(w != truth):
            return w


def invoke(
    solver: NoisySolver,
    ledger: QueryLedger,
    field: PrimeField,
    m_vals: np.ndarray,
    v_vals: np.ndarray,
    truth: np.ndarray,
    coin: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One solver call on a square instance given as canonical residues.

    truth is the instance's product M v, which the caller computes once and
    also hands to the verifier; invoke computes no product itself. The call
    succeeds iff coin, its uniform draw from [0, 1), is below the profile's
    success probability for the instance; rng serves only a failed call's
    wrong output. Charges 1 to ALG, Q to U_M, and n to U_v; the solver's
    own reads of the instance are not itemized. Returns the output as an
    int64 residue array: truth itself on success and a wrong vector (never
    equal to it) on failure.
    """
    n = m_vals.shape[0]
    if m_vals.shape != (n, n):
        raise ValueError(f"solver expects a square matrix, got shape {m_vals.shape}")
    if v_vals.shape != (n,):
        raise ValueError(f"dimension mismatch: matrix shape {m_vals.shape}, vector shape {v_vals.shape}")
    if truth.shape != (n,):
        raise ValueError(f"product shape {truth.shape} does not match {n} rows")
    q = solver.queries_per_call if solver.queries_per_call is not None else n * n
    ledger.charge(SOURCE_ALG, 1)
    ledger.charge(SOURCE_MATRIX, q)
    ledger.charge(SOURCE_VECTOR, n)

    if coin < solver.profile.success_probability(m_vals, v_vals, field.modulus):
        return truth
    wrong = _wrong_output(truth, solver.failure_mode, field.modulus, rng)
    assert np.count_nonzero(wrong != truth)
    return wrong
