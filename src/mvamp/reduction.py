"""Worst-case matrix-vector multiplication from an average-case solver.

The pipeline lifts a solver that succeeds on an alpha fraction of uniform
instances to one that succeeds on EVERY instance with high probability,
spending O(1/alpha^2) solver calls. It is built in stages:

  solve_strip            a d x n strip against a solver-friendly vector,
                         by planting the strip at a random block position
                         of a fresh uniform square instance and verifying;
  solve_strip_any_matrix the same for every strip given as an array, via a
                         uniform additive split M = R1 + R2 solved
                         strip-wise;
  solve_block            a d x d block against a solver-friendly vector,
                         by planting the vector in a random concatenation
                         and widening the block with structural zeros;
  solve_block_any_input  the same for every vector, via a uniform additive
                         split v = r1 + r2;
  worst_case_matvec      the full instance: pad so the block count divides
                         n, solve each of the k^2 blocks under a boost
                         loop, then assemble row sums.

Inside the pipeline every operand and partial product is an int64 array
of canonical residues (None for a failed stage); only worst_case_matvec's
result is wrapped in an FpVector. Each stage is a function of the run
(ReductionRun: ledger, field, config and resolved k, the trial's stream and
its block draws, stage counters) and its operands. The stages are
generators: solve_strip yields one request (strip, vector) per strip solve,
and the stages above it pass it through. run_waves owns the retries: it
takes the budget from the run's config, serves one attempt of every pending
request per wave, with one M v per instance for solver and verifier, counts
each attempt on the run's stats, and resumes the stage once, with the
accepted block or None when the budget is spent. An attempt's randomness
reaches invoke and verify_product as values: its coin and its challenge
rows (verify.draw_challenges), drawn for the whole wave at once. The bulk
uniform draws, the wave's co-strips and the stages' blocks (_BlockDraws),
all come from _uniform, which takes Generator.integers below MASKED_FROM and
masked rejection on raw 64-bit words from there up (draw layout v4).

Vector "goodness" (the solver succeeding on an above-half-of-alpha share
of matrices for that vector) is an analysis device: the pipeline never
tests it, while good_fraction_exhaustive measures it exactly offline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import islice, repeat
from typing import Callable, Optional

import numpy as np

from .field import PrimeField
from .linalg import FpVector, matvec_values
from .oracle import (
    SOURCE_ALG,
    SOURCE_MATRIX,
    SOURCE_SCRATCH,
    SOURCE_VECTOR,
    SOURCE_VERIFIER,
    MatrixOracleHandle,
    QueryLedger,
    VectorOracleHandle,
    extract_block,
    extract_subvector,
    pad_square_matrix,
    pad_vector,
)
from .solver import NoisySolver, invoke, vector_success_exhaustive
from .verify import VerifierConfig, draw_challenges, verify_product

# Per-attempt failure bound for the final stage on worst-case inputs; the
# boost round count is sized against it.
STAGE4_FAILURE_BOUND = 0.04

K_MODES = ("desk",)


def choose_block_count(alpha: float, n: Optional[int] = None, mode: str = "desk", c0: float = 8.0) -> int:
    """Pick the block count k for a target average success rate alpha.

    "desk", the one mode, keeps the paper's ln(4/alpha) shape at a
    bench-friendly constant: k = ceil(c0 * ln(4/alpha)). (The paper's
    constant of 3200 gives k = 6,655 at alpha 0.5, a stage-1 instance far
    past MAX_INSTANCE_ENTRIES.) Divisibility with n needs no adjustment
    here because the pipeline pads n up to the next multiple of k.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if mode not in K_MODES:
        raise ValueError(f"unknown block count mode {mode!r}")
    if not 0.0 < c0 < math.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0}")
    return max(1, math.ceil(c0 * math.log(4.0 / alpha)))


def boost_rounds_for(k: int, delta: float) -> int:
    """Rounds needed to push per-block failure below delta/k^2.

    With each attempt failing with probability at most STAGE4_FAILURE_BOUND,
    t = ceil(ln(k^2/delta) / ln(1/bound)) attempts suffice, and a union
    bound over the k^2 blocks leaves overall failure below delta.
    """
    if k < 1:
        raise ValueError(f"block count must be positive, got {k}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return max(1, math.ceil(math.log(k * k / delta) / math.log(1.0 / STAGE4_FAILURE_BOUND)))


@dataclass
class ReductionConfig:
    """Knobs for the amplification pipeline.

    alpha is the solver's assumed average success rate; delta the target
    overall failure probability. k overrides the block count (None means
    choose_block_count decides via k_mode/c0). c1 and c2 scale the retry
    budgets ceil(c1/alpha), ceil(c2/alpha) of the planting stages.
    """

    alpha: float
    delta: float = 0.01
    k: Optional[int] = None
    k_mode: str = "desk"
    c0: float = 8.0
    c1: float = 32.0
    c2: float = 32.0
    boost_rounds: Optional[int] = None
    verifier: VerifierConfig = dataclass_field(default_factory=VerifierConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"block count must be positive, got {self.k}")
        if self.k_mode not in K_MODES:
            raise ValueError(f"unknown block count mode {self.k_mode!r}")
        for name in ("c0", "c1", "c2"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.boost_rounds is not None and self.boost_rounds < 1:
            raise ValueError(f"boost_rounds must be positive, got {self.boost_rounds}")

    def stage1_budget(self) -> int:
        return math.ceil(self.c1 / self.alpha)

    def stage3_budget(self) -> int:
        return math.ceil(self.c2 / self.alpha)

    def resolved_k(self) -> int:
        if self.k is not None:
            return self.k
        return choose_block_count(self.alpha, mode=self.k_mode, c0=self.c0)

    def resolved_boost_rounds(self, k: int) -> int:
        if self.boost_rounds is not None:
            return self.boost_rounds
        return boost_rounds_for(k, self.delta)


@dataclass
class StageStats:
    """Iteration counters accumulated across one pipeline run."""

    stage1_iters: int = 0
    stage3_iters: int = 0
    boost_rounds_total: int = 0
    verify_calls: int = 0


# ---------------------------------------------------------------------------
# goodness measurement (offline diagnostics, not used by the pipeline)
# ---------------------------------------------------------------------------


def good_fraction_exhaustive(
    solver: NoisySolver,
    n: int,
    field: PrimeField,
    alpha: float,
) -> float:
    """Exact fraction of vectors whose matrix-averaged success reaches alpha/2.

    Uses the profile's per-input probabilities directly (no sampling) and
    enumerates the whole domain, so it is restricted to tiny sizes.
    """
    table = vector_success_exhaustive(solver.profile, n, field)
    # 1e-12 slack keeps float summation from dropping exact-boundary vectors
    return sum(mean >= alpha / 2.0 - 1e-12 for mean in table) / len(table)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

# Ranges from MASKED_FROM up to 2^31 are drawn by masked rejection (draw layout
# v4): a masked half is kept with probability at least 3/4 there, while below
# it masking is slower than Generator.integers.
MASKED_FROM = 3 << 29

# Bit generators whose random_raw word holds 64 random bits (MT19937's holds 32).
_RAW64 = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


def _uniform(rng: np.random.Generator, high: int, count: int, dtype) -> np.ndarray:
    """count uniform draws from [0, high) as a flat array of dtype: the pipeline's bulk draws.

    Below MASKED_FROM (or above 2^31, or over a bit generator without 64-bit raw
    words) this is rng.integers(0, high, size=count, dtype=dtype), whose bounded
    draw divides on about high/2^32 of its values. From MASKED_FROM up it splits
    raw 64-bit words into their low, then high, 32-bit halves, masks each to 31
    bits and keeps, in order, those below high: exact rejection sampling. Each
    round takes max(ceil(need/2), floor(need*2^31/(2*high))) words, ceil(count/2)
    at high = 2^31-1, and leaves the generator's buffered 32-bit half alone.
    """
    if not MASKED_FROM <= high <= 1 << 31 or not isinstance(rng.bit_generator, _RAW64):
        return rng.integers(0, high, size=count, dtype=dtype)
    out = np.empty(count, dtype=dtype)
    done = 0
    while done < count:
        need = count - done
        words = rng.bit_generator.random_raw(max(-(-need // 2), need * 2**31 // (2 * high)))
        halves = words.astype("<u8", copy=False).view("<u4") & 0x7FFFFFFF  # low half first on any machine
        kept = halves[halves < high][:need]
        out[done : done + kept.size] = kept
        done += kept.size
    return out


# Draws per block of _BlockDraws: 128 KiB of int64 per (low, high) range.
DRAW_BLOCK = 2**14


class _BlockDraws:
    """The stages' integers() calls, served from blocks (draw layouts v2 to v4).

    Each (low, high) range keeps its own block of DRAW_BLOCK uniform draws,
    taken from rng in one _uniform call, and serves each request as the next
    unused slice, shaped to size: fresh i.i.d. draws no other request has seen.
    A request that does not fit discards the rest and draws a fresh block; one
    larger than DRAW_BLOCK goes straight to _uniform. Blocks are read-only, so
    an in-place write to a handed-out draw raises.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._blocks: dict = {}  # (low, high) -> [block, next unused index]

    def integers(self, low, high=None, size=None, dtype=np.int64):
        if dtype is not np.int64 and np.dtype(dtype) != np.int64:
            raise ValueError(f"block draws are int64 only, got dtype {dtype!r}")
        if high is None:
            low, high = 0, low
        count = 1 if size is None else math.prod(size) if isinstance(size, tuple) else size
        if count > DRAW_BLOCK:
            return (low + _uniform(self._rng, high - low, count, np.int64)).reshape(size)
        entry = self._blocks.get((low, high))
        if entry is None or entry[1] + count > DRAW_BLOCK:
            block = low + _uniform(self._rng, high - low, DRAW_BLOCK, np.int64)
            block.flags.writeable = False
            entry = self._blocks[low, high] = [block, 0]
        block, start = entry
        entry[1] = start + count
        if size is None:
            return block[start]
        draws = block[start : start + count]
        return draws.reshape(size) if isinstance(size, tuple) else draws


class ReductionRun:
    """What every stage of one pipeline run shares: the ledger, the field, the config with k
    resolved once, the trial's stream, the stages' block draws over it and the stage counters."""

    def __init__(self, ledger: QueryLedger, field: PrimeField, config: ReductionConfig, stream: np.random.Generator):
        self.ledger, self.field, self.config, self.stream = ledger, field, config, stream
        self.k = config.resolved_k()
        self.draws = _BlockDraws(stream)
        self.stats = StageStats()


def _sum_of_halves(run: ReductionRun, x_vals: np.ndarray, solve_half: Callable):
    """Solve x through its uniform additive split x = r1 + r2 (Blum, Luby, Rubinfeld).

    Draws r1 from run.draws, runs solve_half's generators in turn; returns None as soon as a
    half fails, otherwise the sum of the two length-d partial products, read as scratch: 2*d queries.
    """
    p = run.field.modulus
    r1 = run.draws.integers(0, p, size=x_vals.shape, dtype=np.int64).copy()  # a view would pin its draw block
    r2 = (x_vals - r1) % p
    w1 = yield from solve_half(r1)
    if w1 is None:
        return None
    w2 = yield from solve_half(r2)
    if w2 is None:
        return None
    run.ledger.charge(SOURCE_SCRATCH, 2 * w1.shape[0])
    return (w1 + w2) % p


def solve_strip(run: ReductionRun, m_vals: np.ndarray, v_vals: np.ndarray):
    """Product of a d x n strip with a full vector, assuming the vector is good.

    Checks the strip and yields one request (m_vals, v_vals). run_waves owns the
    attempts, taking their budget ceil(c1/alpha) and counters from the run: each
    plants the strip at a uniform block position among fresh uniform co-strips,
    makes one solver call on the square instance and verifies it; the strip's
    block of the first accepted output comes back, or None once the budget is
    spent. Requires d | n. Under actual accounting each verification reads the
    n^2 + n entries of the planted instance and the vector from scratch.
    """
    d, n = m_vals.shape
    if n % d != 0:
        raise ValueError(f"strip height {d} does not divide width {n}")
    if v_vals.shape != (n,):
        raise ValueError(f"vector shape {v_vals.shape} does not match width {n}")
    return (yield m_vals, v_vals)


def solve_strip_any_matrix(run: ReductionRun, m_vals: np.ndarray, v_vals: np.ndarray):
    """solve_strip for an arbitrary strip, via a uniform additive split.

    The strip comes as an array the caller has already read (solve_block
    charges its block read). Solves both halves of a uniform split
    M = R1 + R2 strip-wise (_sum_of_halves).
    """
    return (yield from _sum_of_halves(run, m_vals, lambda half: solve_strip(run, half, v_vals)))


def solve_block(run: ReductionRun, mat_handle: MatrixOracleHandle, v_vals: np.ndarray):
    """Product of a d x d block with a length-d vector, randomized over vectors.

    Each attempt plants the vector at a uniform slot of a concatenation
    with fresh uniform co-vectors, reads the block once through its handle
    (d*d charged oracle queries), widens it to d x (k*d) with structural
    zeros, solves that strip for the concatenated vector, and verifies the
    result against the widened instance before returning it. The widened
    product equals the block times the planted vector, so that is the
    verifier's M v. Up to ceil(c2/alpha) attempts. Under actual accounting
    each verification re-reads the block through its handle and reads the
    widened vector, which the pipeline drew: k*d entries of scratch.
    """
    if mat_handle.rows != mat_handle.cols:
        raise ValueError(f"expected a square block, got {mat_handle.rows}x{mat_handle.cols}")
    d = mat_handle.rows
    if v_vals.shape != (d,):
        raise ValueError(f"vector shape {v_vals.shape} does not match block size {d}")
    k, stats, rng, verifier = run.k, run.stats, run.draws, run.config.verifier
    p = run.field.modulus

    planted = np.empty((k, d), dtype=np.int64)
    widened = planted.reshape(k * d)
    operands = (mat_handle, widened)
    for _ in range(run.config.stage3_budget()):
        stats.stage3_iters += 1
        slot = int(rng.integers(k))
        planted[1:] = rng.integers(0, p, size=(k - 1, d), dtype=np.int64)
        planted[0], planted[slot] = planted[slot], v_vals  # the displaced co-vector moves to slot 0
        block = mat_handle.read_all()
        wide_block = np.zeros((d, k * d), dtype=np.int64)
        wide_block[:, slot * d : (slot + 1) * d] = block
        w = yield from solve_strip_any_matrix(run, wide_block, widened)
        if w is None:
            continue
        stats.verify_calls += 1
        challenges = draw_challenges(verifier, p, d, rng)
        if verify_product(run.ledger, run.field, matvec_values(block, v_vals, p), w, verifier, challenges, operands):
            return w
    return None


def solve_block_any_input(run: ReductionRun, mat_handle: MatrixOracleHandle, vec_handle: VectorOracleHandle):
    """solve_block for an arbitrary vector, via a uniform additive split.

    Reads the vector once (d charged oracle queries) and solves the block
    against both halves of a uniform split v = r1 + r2 (_sum_of_halves).
    """
    if mat_handle.rows != mat_handle.cols:
        raise ValueError(f"expected a square block, got {mat_handle.rows}x{mat_handle.cols}")
    d = mat_handle.rows
    if vec_handle.length != d:
        raise ValueError(f"vector length {vec_handle.length} does not match block size {d}")
    v_vals = vec_handle.read_all()
    return (yield from _sum_of_halves(run, v_vals, lambda half: solve_block(run, mat_handle, half)))


def boost(attempt: Callable, rounds: int, stats: StageStats):
    """Retry a fallible stage generator, returning its first non-None result."""
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    for _ in range(rounds):
        stats.boost_rounds_total += 1
        out = yield from attempt()
        if out is not None:
            return out
    return None


# Planted-instance entries one wave may hold: worst_case_matvec keeps at most
# max(1, WAVE_ENTRIES // n^2) block tasks in flight, 256 KiB of int64.
WAVE_ENTRIES = 2**15


def _plant_wave(strips: np.ndarray, vectors: np.ndarray, slots: np.ndarray, co: np.ndarray, p: int):
    """Every request's planted instance and its M v. Request j's instance holds
    its (d, n) strip at block row slots[j] and its k-1 co-strips (the j-th run
    of co) at block rows 1..k-1, the one the strip displaces moving to row 0."""
    s, d, n = strips.shape
    k = n // d
    planted = np.empty((s, k, d, n), dtype=np.int64)
    planted[:, 1:] = co.reshape(s, k - 1, d, n)
    rows = np.arange(s)
    planted[:, 0] = planted[rows, slots]
    planted[rows, slots] = strips
    instances = planted.reshape(s, n, n)
    return instances, matvec_values(instances, vectors[:, :, None], p)[:, :, 0]


def run_waves(tasks, solver, run: ReductionRun, wave_size: int = 1) -> Optional[list]:
    """Run stage generators to their ends, serving their requests in waves (draw layout v4).

    A task yields one request (strip, vector) per strip solve and is resumed
    once, with its answer. run_waves owns the retries: at most wave_size tasks
    are in flight, admitted in order as others end, and a pending request gets
    one attempt per wave, up to the run's budget ceil(c1/alpha). A wave takes
    every pending request in task order and draws for all of them from the
    run's stream, one call each, the slots, co-strips (_uniform), coins and
    challenge rows (draw_challenges with count; none in exact mode). Each
    attempt makes one invoke call, passed its coin and the run's block draws
    for a wrong output, and one verify_product call, passed its challenge
    rows, and counts one stage1_iters and one verify_calls on run.stats. The
    task is sent a copy of its strip's block of the first accepted output,
    read as d scratch queries, or None once the budget is spent. Returns the
    results in order, or None once one is.
    """
    ledger, field, config, stream, stats = run.ledger, run.field, run.config, run.stream, run.stats
    p = field.modulus
    budget = config.stage1_budget()
    results: list = []
    live: dict = {}  # task index -> [task, strip, vector, attempts left] of its pending request, in task order

    def step(i, task, sent) -> bool:
        try:
            live[i] = [task, *task.send(sent), budget]
        except StopIteration as end:
            live.pop(i, None)
            results[i] = end.value
        return i in live or results[i] is not None

    feed = enumerate(tasks)
    while True:
        for i, task in islice(feed, wave_size - len(live)):
            results.append(None)
            if not step(i, task, None):
                return None
        if not live:
            return results
        requests = list(live.values())
        _, strips, vectors, _ = zip(*requests)
        s, (d, n) = len(requests), strips[0].shape
        strips = np.concatenate(strips).reshape(s, d, n)
        vectors = np.concatenate(vectors).reshape(s, n)
        slots = stream.integers(0, n // d, size=s)
        co = _uniform(stream, p, s * (n - d) * n, np.uint16 if p <= 1 << 16 else np.int64)  # _plant_wave widens uint16
        instances, truths = _plant_wave(strips, vectors, slots, co, p)
        del co
        coins = stream.random(s).tolist()
        challenges = draw_challenges(config.verifier, p, n, stream, count=s)
        for i, request, slot, m_vals, v_vals, truth, coin, challenge in zip(
            list(live), requests, slots.tolist(), instances, vectors, truths, coins,
            repeat(None) if challenges is None else challenges,
        ):
            task, _, _, left = request
            w = invoke(solver, ledger, field, m_vals, v_vals, truth, coin, run.draws)
            accepted = verify_product(ledger, field, truth, w, config.verifier, challenge, (m_vals, v_vals))
            stats.stage1_iters += 1
            stats.verify_calls += 1
            if accepted:
                ledger.charge(SOURCE_SCRATCH, d)
            elif left > 1:
                request[3] = left - 1  # stays pending: its next attempt rides the next wave
                continue
            if not step(i, task, w[slot * d : (slot + 1) * d].copy() if accepted else None):
                return None
        del instances, truths, challenges, m_vals, v_vals, truth, w, challenge  # free them before the next wave


@dataclass
class ReductionOutcome:
    """Result of one full pipeline run."""

    result: Optional[FpVector]
    stats: StageStats
    block_count: int
    padded_n: int


def worst_case_matvec(
    mat_handle: MatrixOracleHandle,
    vec_handle: VectorOracleHandle,
    solver: NoisySolver,
    config: ReductionConfig,
    rng: np.random.Generator,
) -> ReductionOutcome:
    """Compute M v for an arbitrary square instance from the average-case solver.

    Pads the instance so the block count k divides its size, runs
    solve_block_any_input under a boost loop for each of the k^2 blocks,
    assembles the block-row sums, and truncates the padding. run_waves runs
    up to max(1, WAVE_ENTRIES // n_padded^2) block tasks at once. Any block
    exhausting its boost budget fails the whole run (result None) at once.
    Assembly reads the k^2 length-d block products to form the k row sums,
    then the k row sums: k^2*d + k*d scratch queries. The stages share one
    ReductionRun over rng and take their own uniform draws from it in blocks
    (_BlockDraws), so rng ends up advanced past draws the run never used.
    """
    n = mat_handle.rows
    if mat_handle.cols != n:
        raise ValueError(f"expected a square matrix, got {mat_handle.rows}x{mat_handle.cols}")
    if vec_handle.length != n:
        raise ValueError(f"vector length {vec_handle.length} does not match size {n}")
    if mat_handle.field != vec_handle.field:
        raise ValueError("field mismatch between matrix and vector handles")

    run = ReductionRun(mat_handle.ledger, mat_handle.field, config, rng)
    k = run.k
    rounds = config.resolved_boost_rounds(k)
    n_padded = ((n + k - 1) // k) * k
    d = n_padded // k
    padded_mat = pad_square_matrix(mat_handle, n_padded)
    padded_vec = pad_vector(vec_handle, n_padded)
    segments = [extract_subvector(padded_vec, j * d, d) for j in range(k)]

    def block_task(i, j):
        block = extract_block(padded_mat, i, j, d)
        return boost(lambda: solve_block_any_input(run, block, segments[j]), rounds, run.stats)

    tasks = (block_task(i, j) for i in range(k) for j in range(k))
    products = run_waves(tasks, solver, run, max(1, WAVE_ENTRIES // n_padded**2))
    result = None
    if products is not None:
        run.ledger.charge(SOURCE_SCRATCH, k * k * d + k * d)
        assembled = np.stack(products).reshape(k, k, d).sum(axis=1) % run.field.modulus
        result = FpVector(run.field, assembled.reshape(n_padded)[:n])
    return ReductionOutcome(result=result, stats=run.stats, block_count=k, padded_n=n_padded)


# ---------------------------------------------------------------------------
# per-run reporting
# ---------------------------------------------------------------------------


@dataclass
class ReductionReport:
    """Flat per-trial record: outcome, ledger snapshot, stage counters."""

    trial: int
    success: int
    returned: int
    alg_queries: int
    um_queries: int
    uv_queries: int
    verifier_charged: int
    stage1_iters: int
    stage3_iters: int
    boost_rounds_total: int
    wall_ms: int

    def check_consistency(self):
        """In the full pipeline every solver call happens in a stage-1 attempt; the counts must agree."""
        if self.alg_queries != self.stage1_iters:
            raise ValueError(
                f"ledger shows {self.alg_queries} solver calls but stage 1 ran "
                f"{self.stage1_iters} attempts"
            )

    @classmethod
    def from_run(
        cls,
        trial: int,
        result: Optional[FpVector],
        stats: StageStats,
        ledger: QueryLedger,
        correct: bool,
        wall_ms: int = 0,
    ) -> "ReductionReport":
        return cls(
            trial=trial,
            success=1 if correct else 0,
            returned=0 if result is None else 1,
            alg_queries=ledger.get(SOURCE_ALG),
            um_queries=ledger.get(SOURCE_MATRIX),
            uv_queries=ledger.get(SOURCE_VECTOR),
            verifier_charged=ledger.get(SOURCE_VERIFIER),
            stage1_iters=stats.stage1_iters,
            stage3_iters=stats.stage3_iters,
            boost_rounds_total=stats.boost_rounds_total,
            wall_ms=wall_ms,
        )
