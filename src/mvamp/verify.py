"""Product verification with one-sided error.

A claimed product w for (M, v) is checked either exactly (ground-truth
recomputation, a test-only mode) or probabilistically: t independent
uniform challenges r test r.w == (r.M).v, where t is the smallest count
driving the per-round false-accept probability 1/p below epsilon. A
correct w is never rejected; a wrong one survives with probability at
most epsilon.

Cost accounting has two modes. "paper" charges the closed-form budget
ceil(r^{3/2} * ceil(log2(1/eps))) to the verifier source and mutes the
physical reads behind it; "actual" itemizes the real oracle reads
(r*c matrix entries plus c vector entries per call) instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .linalg import FpVector, matvec_values, vecmat_values
from .oracle import (
    SOURCE_VERIFIER,
    MatrixOracleHandle,
    VectorOracleHandle,
)
from .solver import NoisySolver, invoke

ACCOUNTING_MODES = ("paper", "actual")
VERIFY_MODES = ("probabilistic", "exact")


@dataclass(frozen=True)
class VerifierConfig:
    epsilon: float = 1e-4
    mode: str = "probabilistic"
    accounting: str = "paper"

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.mode not in VERIFY_MODES:
            raise ValueError(f"unknown verifier mode {self.mode!r}")
        if self.accounting not in ACCOUNTING_MODES:
            raise ValueError(f"unknown accounting mode {self.accounting!r}")


@lru_cache(maxsize=None)
def charged_queries(rows: int, epsilon: float) -> int:
    """The modeled verification budget: ceil(rows^{3/2} * ceil(log2(1/eps))).

    Computed in exact integer arithmetic (ceil(sqrt(L^2 * rows^3)) for the
    integer round count L), so no float rounding can shift the result.
    """
    if rows < 1:
        raise ValueError(f"rows must be positive, got {rows}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    levels = math.ceil(math.log2(1.0 / epsilon))
    val = levels * levels * rows**3
    root = math.isqrt(val)
    if root * root < val:
        root += 1
    return root


@lru_cache(maxsize=None)
def challenge_rounds(modulus: int, epsilon: float) -> int:
    """Smallest t with (1/p)^t <= epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    target = 1.0 / epsilon
    t = 1
    power = float(modulus)
    while power < target:
        power *= modulus
        t += 1
    return t


def verify_product(
    mat_handle: MatrixOracleHandle,
    vec_handle: VectorOracleHandle,
    product: FpVector,
    config: VerifierConfig,
    rng: np.random.Generator,
) -> bool:
    """Accept or reject a claimed product for the instance behind the handles.

    Never rejects a correct product. In probabilistic mode a wrong product
    is accepted with probability at most epsilon; in exact mode never.
    """
    rows, cols = mat_handle.rows, mat_handle.cols
    if product.length != rows:
        raise ValueError(f"product length {product.length} does not match {rows} rows")
    if vec_handle.length != cols:
        raise ValueError(f"vector length {vec_handle.length} does not match {cols} columns")
    if mat_handle.field != vec_handle.field or product.field != mat_handle.field:
        raise ValueError("field mismatch among verification operands")

    if config.accounting == "paper":
        mat_handle.ledger.charge(SOURCE_VERIFIER, charged_queries(rows, config.epsilon))
        with mat_handle.ledger.paused(), vec_handle.ledger.paused():
            m_vals = mat_handle.read_all()
            v_vals = vec_handle.read_all()
    else:
        m_vals = mat_handle.read_all()
        v_vals = vec_handle.read_all()
    return verify_values(m_vals, v_vals, product.values, mat_handle.field.modulus, config, rng)


def verify_values(
    m_vals: np.ndarray,
    v_vals: np.ndarray,
    w_vals: np.ndarray,
    p: int,
    config: VerifierConfig,
    rng: np.random.Generator,
) -> bool:
    """The check behind verify_product, on canonical residues; charges nothing.

    The caller has checked that the shapes agree.
    """
    if config.mode == "exact":
        return bool(np.array_equal(matvec_values(m_vals, v_vals, p), w_vals))

    rounds = challenge_rounds(p, config.epsilon)
    challenges = rng.integers(0, p, size=(rounds, m_vals.shape[0]), dtype=np.int64)
    lhs = matvec_values(challenges, w_vals, p)
    rhs = matvec_values(vecmat_values(challenges, m_vals, p), v_vals, p)
    return bool(np.array_equal(lhs, rhs))


def verified_call(
    solver: NoisySolver,
    mat_handle: MatrixOracleHandle,
    vec_handle: VectorOracleHandle,
    config: VerifierConfig,
    rng: np.random.Generator,
) -> Optional[FpVector]:
    """One solver invocation gated by verification.

    Charges exactly one ALG query (inside invoke) plus the verifier cost.
    Returns the solver output when it verifies, None otherwise.
    """
    w = invoke(solver, mat_handle, vec_handle, rng)
    if verify_product(mat_handle, vec_handle, w, config, rng):
        return w
    return None
