"""Product verification with one-sided error.

A claimed product w is checked against the instance's own product M.v,
which the caller computes once from the instance it holds (never from the
solver's output) and also hands the solver as its ground truth. The check
is either exact (w == M.v, a test-only mode) or probabilistic: t
independent uniform challenges r, drawn by draw_challenges and passed in,
test r.(M.v - w) == 0, where t is the smallest count driving the
per-round false-accept probability 1/p below epsilon. That is Freivalds'
identity r.w == (r.M).v taken as one residual: M.v - w is formed once,
and each challenge is a dot product with it. A correct w is never
rejected; a wrong one survives with probability at most epsilon. A w
that is the caller's M.v array itself (a successful invoke returns its
truth argument) has a zero residual, so it is accepted without forming
one; the charges are made and the caller's challenges drawn all the same.

Cost accounting has two modes, both applied inside verify_product. "paper"
charges the closed-form budget ceil(r^{3/2} * ceil(log2(1/eps))) to the
verifier source and reads nothing; "actual" reads each operand the caller
passes once (r*c matrix entries plus c vector entries per call): a handle
charges its own sources, an array the pipeline drew charges scratch. The
verifier's read is the only read of an input handle a verified call makes;
the simulated solver is handed the arrays the caller holds.

completeness_failures and false_accept_rates measure this contract for
criterion 3 and `mvamp verify-bench`; their correct products come from
int_product, the reference M.v in Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .field import PrimeField
from .linalg import FpMatrix, FpVector, matvec_values, random_matrix, random_vector
from .oracle import SOURCE_SCRATCH, SOURCE_VERIFIER, QueryLedger, wrap_matrix, wrap_vector
from .solver import FAILURE_MODES, NoisySolver, UniformProfile, invoke

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


def draw_challenges(config: VerifierConfig, modulus: int, rows: int, rng, count: Optional[int] = None):
    """verify_product's challenges: (rounds, rows) uniform residues from rng in one
    call, rounds = challenge_rounds(modulus, epsilon), or (count, rounds, rows) for
    count calls, equal to count successive single draws. Exact mode checks
    without challenges: it returns None and draws nothing."""
    if config.mode == "exact":
        return None
    rounds = challenge_rounds(modulus, config.epsilon)
    shape = (rounds, rows) if count is None else (count, rounds, rows)
    return rng.integers(0, modulus, size=shape, dtype=np.int64)


def _read(operand, ledger: QueryLedger):
    """Actual accounting's read of one operand: a handle charges its own
    sources; an array the pipeline drew charges one scratch query per entry."""
    if isinstance(operand, np.ndarray):
        ledger.charge(SOURCE_SCRATCH, operand.size)
    else:
        operand.read_all()


def verify_product(
    ledger: QueryLedger,
    field: PrimeField,
    mv: np.ndarray,
    product: np.ndarray,
    config: VerifierConfig,
    challenges: Optional[np.ndarray],
    operands: Sequence = (),
) -> bool:
    """Accept or reject a claimed product against the instance's product mv.

    Both are 1-D int64 residue arrays; mv is M.v, computed by the caller
    from the instance itself. Never rejects a correct product. In
    probabilistic mode challenges are the call's (rounds, rows) uniform rows
    R from draw_challenges, and it accepts iff R.((mv - w) mod p) == 0 mod p,
    which holds exactly when R.w == (R.M).v does; a wrong product is
    accepted with probability at most epsilon. In exact mode challenges is
    None and it accepts iff mv == w. A product that is the mv array itself
    (the same object, not an equal copy) is accepted in either mode without
    forming the residual, after the accounting below, so the decision and
    the charges are those of the full check. Under paper accounting it
    charges charged_queries(rows, epsilon) to the verifier; under actual it
    reads each of the instance's operands once, and refuses a call that
    passes none, which would charge nothing.
    """
    if mv.ndim != 1 or product.shape != mv.shape:
        raise ValueError(f"product shape {product.shape} does not match instance product shape {mv.shape}")
    rows = mv.shape[0]
    if config.accounting == "paper":
        ledger.charge(SOURCE_VERIFIER, charged_queries(rows, config.epsilon))
    else:
        if not operands:
            raise ValueError("actual accounting needs the instance's operands to read")
        for operand in operands:
            _read(operand, ledger)

    if product is mv:  # invoke's success output: the residual is zero
        return True
    if config.mode == "exact":
        return bool(np.array_equal(mv, product))
    p = field.modulus
    return not np.count_nonzero(matvec_values(challenges, (mv - product) % p, p))


def verified_call(
    solver: NoisySolver,
    matrix: FpMatrix,
    vector: FpVector,
    ledger: QueryLedger,
    config: VerifierConfig,
    rng: np.random.Generator,
) -> Optional[FpVector]:
    """One solver invocation on a concrete input, gated by verification.

    Computes the instance's product once, for invoke's ground truth and the
    verifier alike, and hands invoke the input's arrays. Charges one ALG
    query (inside invoke) plus the verification, whose operands are U_M/U_v
    handles on the input: under actual accounting they are the one read of
    the input. Draws from rng, in order: the solver's coin, a failed call's
    wrong output and the challenges. Returns the solver output when it
    verifies, else None.
    """
    field = matrix.field
    if vector.field != field:
        raise ValueError("field mismatch between matrix and vector")
    truth = matvec_values(matrix.values, vector.values, field.modulus)
    w = invoke(solver, ledger, field, matrix.values, vector.values, truth, rng.random(), rng)
    challenges = draw_challenges(config, field.modulus, truth.shape[0], rng)
    operands = (wrap_matrix(matrix, ledger), wrap_vector(vector, ledger))
    if verify_product(ledger, field, truth, w, config, challenges, operands):
        return FpVector._trusted(field, w)
    return None


def int_product(m_vals: np.ndarray, v_vals: np.ndarray, modulus: int) -> np.ndarray:
    """M v mod p in Python integers: the reference product, independent of matvec_values."""
    vec = v_vals.tolist()
    return np.array([sum(a * b for a, b in zip(row, vec)) % modulus for row in m_vals.tolist()], dtype=np.int64)


def completeness_failures(field: PrimeField, rows: int, cols: int, config: VerifierConfig, trials: int, rng) -> int:
    """Correct products rejected in trials uniform rows x cols pairs (the contract says 0).
    Each trial draws random_matrix, random_vector, then the challenges from rng."""
    ledger, p, failures = QueryLedger(), field.modulus, 0  # the charges are not reported
    for _ in range(trials):
        m, v = random_matrix(rows, cols, field, rng).values, random_vector(cols, field, rng).values
        claim, mv = int_product(m, v, p), matvec_values(m, v, p)
        failures += not verify_product(ledger, field, mv, claim, config, draw_challenges(config, p, rows, rng))
    return failures


def false_accept_rates(field: PrimeField, rows: int, config: VerifierConfig, trials: int, rng) -> dict:
    """Accepted share of trials wrong outputs on uniform square pairs, per failure mode in
    FAILURE_MODES order (the contract bounds each by epsilon). Each trial draws
    random_matrix, random_vector, a never-succeeding invoke's coin and wrong
    output, then the challenges from rng."""
    ledger, p, rates = QueryLedger(), field.modulus, {}  # the charges are not reported
    for mode in FAILURE_MODES:
        solver, accepted = NoisySolver(UniformProfile(0.0), failure_mode=mode), 0
        for _ in range(trials):
            m, v = random_matrix(rows, rows, field, rng).values, random_vector(rows, field, rng).values
            truth = matvec_values(m, v, p)
            w = invoke(solver, ledger, field, m, v, truth, rng.random(), rng)
            accepted += verify_product(ledger, field, truth, w, config, draw_challenges(config, p, rows, rng))
        rates[mode] = accepted / trials
    return rates
