"""Amplification pipeline stages, from strip solving to full products.

Perfect and zero-success solvers make the stage behavior deterministic, so
most checks here are exhaustive over tiny fields. Budget arithmetic is
checked against independently computed formulas.
"""

import math
from collections import Counter

import numpy as np
import pytest

from mvamp.field import PrimeField
from mvamp.linalg import (
    FpMatrix,
    enumerate_matrices,
    enumerate_vectors,
    matvec,
    random_matrix,
    random_vector,
)
from mvamp.oracle import (
    SOURCE_ALG,
    SOURCE_MATRIX,
    SOURCE_SCRATCH,
    SOURCE_VECTOR,
    SOURCE_VERIFIER,
    QueryLedger,
    extract_block,
    extract_submatrix,
    extract_subvector,
    pad_square_matrix,
    pad_vector,
    wrap_matrix,
    wrap_vector,
)
from mvamp.reduction import (
    DRAW_BLOCK,
    ReductionConfig,
    ReductionReport,
    ReductionRun,
    StageStats,
    boost,
    boost_rounds_for,
    choose_block_count,
    good_fraction_exhaustive,
    solve_block,
    solve_block_any_input,
    solve_strip,
    solve_strip_any_matrix,
    _BlockDraws,
    run_waves,
    worst_case_matvec,
)
from mvamp.solver import FAILURE_MODES, GoodBadProfile, NoisySolver, SolverProfile, UniformProfile
from mvamp.verify import VerifierConfig, charged_queries

F5 = PrimeField(5)

PERFECT = NoisySolver(UniformProfile(1.0))
NEVER = NoisySolver(UniformProfile(0.0))

# chi-square upper critical value, alpha = 0.001
CHI2_999_DF6 = 22.458


def fresh_stats():
    return StageStats(0, 0, 0, 0)


def run_stage(stage, run, *operands, solver):
    """One stage call on run and its operands, run through run_waves as its
    only task, as worst_case_matvec runs its block tasks, serving the requests
    with solver. Returns the stage's result."""
    results = run_waves([stage(run, *operands)], solver, run)
    return None if results is None else results[0]


# ------------------------------------------------------------- parameters


def test_choose_block_count_desk_matches_formula():
    for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625):
        expect = math.ceil(8.0 * math.log(4.0 / alpha))
        assert choose_block_count(alpha) == expect, alpha
    assert choose_block_count(1.0) == 12
    assert choose_block_count(0.25) == 23


def test_choose_block_count_validation():
    with pytest.raises(ValueError):
        choose_block_count(0.0)
    with pytest.raises(ValueError):
        choose_block_count(1.2)
    for mode in ("guess", "paper"):  # desk is the one rule
        with pytest.raises(ValueError, match="mode"):
            choose_block_count(0.5, mode=mode)
    # a non-positive or non-finite c0 is refused by name, also with n passed by position
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="c0"):
            choose_block_count(0.5, c0=bad)
        with pytest.raises(ValueError, match="c0"):
            choose_block_count(0.5, 8, "desk", bad)
    assert choose_block_count(0.5, 8) == choose_block_count(0.5)


def test_boost_rounds_matches_formula():
    for k in (2, 4, 23):
        for delta in (0.01, 0.1):
            expect = math.ceil(math.log(k * k / delta) / math.log(1.0 / 0.04))
            assert boost_rounds_for(k, delta) == expect, (k, delta)
    assert boost_rounds_for(4, 0.01) == 3


def test_config_budgets():
    cfg = ReductionConfig(alpha=0.25, c1=32.0, c2=32.0)
    assert cfg.stage1_budget() == 128  # ceil(32 / 0.25)
    assert cfg.stage3_budget() == 128
    cfg2 = ReductionConfig(alpha=0.3, c1=10.0)
    assert cfg2.stage1_budget() == math.ceil(10.0 / 0.3)
    assert ReductionConfig(alpha=0.25).resolved_k() == 23
    assert ReductionConfig(alpha=0.25, k=4).resolved_k() == 4
    assert ReductionConfig(alpha=0.5, boost_rounds=7).resolved_boost_rounds(4) == 7
    assert ReductionConfig(alpha=0.5, delta=0.01).resolved_boost_rounds(4) == 3


def test_config_validation():
    with pytest.raises(ValueError):
        ReductionConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ReductionConfig(alpha=1.5)
    with pytest.raises(ValueError):
        ReductionConfig(alpha=0.5, delta=1.0)
    with pytest.raises(ValueError):
        ReductionConfig(alpha=0.5, c1=0.0)
    with pytest.raises(ValueError):
        ReductionConfig(alpha=0.5, boost_rounds=0)
    for mode in ("nope", "paper"):
        with pytest.raises(ValueError):
            ReductionConfig(alpha=0.5, k_mode=mode)
    # non-finite constants are refused up front, not when a budget or k is computed
    for key in ("c0", "c1", "c2"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=key):
                ReductionConfig(alpha=0.5, **{key: bad})


# ---------------------------------------------------------------- goodness


def test_good_fraction_uniform_profile_is_total():
    # success never depends on the vector: every vector clears alpha/2
    solver = NoisySolver(UniformProfile(0.6))
    assert good_fraction_exhaustive(solver, 2, PrimeField(3), alpha=0.6) == 1.0


def test_good_fraction_goodbad_closed_form():
    # vectors with first entry 0 succeed always, others never: the good
    # fraction is exactly 1/p
    for p in (2, 3):
        prof = GoodBadProfile(lambda m, v, mod: int(v[0]) == 0, 1.0, 0.0)
        frac = good_fraction_exhaustive(NoisySolver(prof), 2, PrimeField(p), alpha=1.0 / p)
        assert frac == pytest.approx(1.0 / p)


# ------------------------------------------------------------ stage: strip


def test_solve_strip_perfect_solver_exhaustive():
    f = PrimeField(2)
    cfg = ReductionConfig(alpha=1.0, k=2)
    rng = np.random.default_rng(0)
    for m in enumerate_matrices(f, 1, 2):  # d=1 strip of an n=2 instance
        for v in enumerate_vectors(f, 2):
            led = QueryLedger()
            run = ReductionRun(led, f, cfg, rng)
            out = run_stage(solve_strip, run, m.values, v.values, solver=PERFECT)
            assert np.array_equal(out, matvec(m, v).values)
            assert run.stats.stage1_iters == 1
            # one call on the 2x2 planted instance, its verification, and
            # the accepted 1-entry window of the output read from scratch
            assert led.snapshot() == {
                SOURCE_ALG: 1,
                SOURCE_MATRIX: 4,
                SOURCE_VECTOR: 2,
                SOURCE_VERIFIER: charged_queries(2, cfg.verifier.epsilon),
                SOURCE_SCRATCH: 1,
            }


def test_solve_strip_square_strip():
    rng = np.random.default_rng(1)
    cfg = ReductionConfig(alpha=1.0)
    m = random_matrix(2, 6, F5, rng)  # 3 slots
    v = random_vector(6, F5, rng)
    led = QueryLedger()
    out = run_stage(solve_strip, ReductionRun(led, F5, cfg, rng), m.values, v.values, solver=PERFECT)
    assert np.array_equal(out, matvec(m, v).values)


def test_solve_strip_exhausts_budget_and_returns_none():
    rng = np.random.default_rng(2)
    cfg = ReductionConfig(alpha=0.5, c1=8.0)  # budget ceil(8/0.5) = 16
    m = random_matrix(1, 3, F5, rng)
    v = random_vector(3, F5, rng)
    led = QueryLedger()
    run = ReductionRun(led, F5, cfg, rng)
    out = run_stage(solve_strip, run, m.values, v.values, solver=NEVER)
    assert out is None
    assert run.stats.stage1_iters == 16
    assert led.get(SOURCE_ALG) == 16
    # under actual accounting each verification reads the 3x3 planted
    # instance and the vector from scratch
    led = QueryLedger()
    actual = ReductionConfig(alpha=0.5, c1=8.0, verifier=VerifierConfig(accounting="actual"))
    assert run_stage(solve_strip, ReductionRun(led, F5, actual, rng), m.values, v.values, solver=NEVER) is None
    assert led.snapshot() == {SOURCE_ALG: 16, SOURCE_MATRIX: 16 * 9, SOURCE_VECTOR: 16 * 3, SOURCE_SCRATCH: 16 * 12}


def test_solve_strip_rejects_bad_shape():
    rng = np.random.default_rng(0)
    cfg = ReductionConfig(alpha=1.0)
    m = np.array([[1, 2, 3], [4, 0, 1]], dtype=np.int64)  # 2 does not divide 3
    run = ReductionRun(QueryLedger(), F5, cfg, rng)
    with pytest.raises(ValueError):
        run_stage(solve_strip, run, m, np.array([1, 2, 3], dtype=np.int64), solver=PERFECT)
    with pytest.raises(ValueError):
        run_stage(solve_strip, run, m[:1], np.array([1, 2], dtype=np.int64), solver=PERFECT)


def test_solve_strip_yields_one_request_per_strip_solve():
    # the request is the strip and the vector alone: the whole stage-1 budget
    # and the counters to charge are the run's, which run_waves reads (the
    # 16-attempt budget is pinned by the resume test below); what is sent back
    # is the strip solve's result
    rng = np.random.default_rng(20)
    cfg = ReductionConfig(alpha=0.5, c1=8.0)
    m, v = random_matrix(2, 6, F5, rng), random_vector(6, F5, rng)
    run = ReductionRun(QueryLedger(), F5, cfg, rng)
    task = solve_strip(run, m.values, v.values)
    strip, vector = next(task)
    assert strip is m.values and vector is v.values
    assert cfg.stage1_budget() == 16
    block = np.array([1, 2], dtype=np.int64)
    with pytest.raises(StopIteration) as end:
        task.send(block)
    assert end.value.value is block
    assert run.stats == fresh_stats()  # the strip counts nothing itself


class CountedSends:
    """A task around another that records the ALG calls charged before each send."""

    def __init__(self, task, ledger):
        self.task, self.ledger, self.alg_at_send = task, ledger, []

    def send(self, value):
        self.alg_at_send.append(self.ledger.get(SOURCE_ALG))
        return self.task.send(value)


@pytest.mark.parametrize("solver, attempts", [(NEVER, 16), (PERFECT, 1)])
def test_run_waves_resumes_a_strip_solve_once_after_its_attempts(solver, attempts):
    # run_waves keeps the request pending across waves and resumes the task
    # once: after the whole budget under a never-succeeding solver, after the
    # first attempt under a perfect one
    rng = np.random.default_rng(21)
    cfg = ReductionConfig(alpha=0.5, c1=8.0)  # budget ceil(8/0.5) = 16
    m, v = random_matrix(2, 6, F5, rng), random_vector(6, F5, rng)
    led = QueryLedger()
    run = ReductionRun(led, F5, cfg, rng)
    task = CountedSends(solve_strip(run, m.values, v.values), led)
    results = run_waves([task], solver, run)
    assert task.alg_at_send == [0, attempts]  # admitted, then resumed once
    assert run.stats.stage1_iters == run.stats.verify_calls == attempts
    if solver is NEVER:
        assert results is None
    else:
        assert results[0].tolist() == matvec(m, v).to_list()


class RecordingNeverProfile(SolverProfile):
    """Never succeeds; records every instance the solver is handed."""

    def __init__(self):
        self.seen = []

    def success_probability(self, m_vals, v_vals, modulus):
        self.seen.append((tuple(m_vals.ravel().tolist()), tuple(v_vals.tolist())))
        return 0.0


def test_solve_strip_plants_at_uniform_slot_among_uniform_co_rows():
    # a 1x2 strip over F_2 gives k = 2 slots: the live row sits at a uniform
    # slot and the other row is uniform over F_2^2, so the 8 equally likely
    # draws reach 7 instances ([live; live] twice). Every attempt fails
    # exact verification, so all of them are recorded.
    f = PrimeField(2)
    live, vec = (1, 0), (1, 1)
    ways = Counter()
    for slot in range(2):
        for co in enumerate_vectors(f, 2):
            rows = [tuple(co.to_list())] * 2
            rows[slot] = live
            ways[rows[0] + rows[1]] += 1
    assert len(ways) == 7 and ways[live + live] == 2

    attempts = 4000
    profile = RecordingNeverProfile()
    cfg = ReductionConfig(alpha=1.0, c1=float(attempts), verifier=VerifierConfig(mode="exact"))
    led = QueryLedger()
    m_vals = np.array([live], dtype=np.int64)
    v_vals = np.array(vec, dtype=np.int64)
    run = ReductionRun(led, f, cfg, np.random.default_rng(2024))
    assert run_stage(solve_strip, run, m_vals, v_vals, solver=NoisySolver(profile)) is None

    assert len(profile.seen) == attempts
    assert {v for _, v in profile.seen} == {vec}
    counts = Counter(m for m, _ in profile.seen)
    assert set(counts) <= set(ways)  # unreachable instances never drawn
    expect = {key: attempts * w / 8 for key, w in ways.items()}
    stat = sum((counts[key] - e) ** 2 / e for key, e in expect.items())
    assert stat < CHI2_999_DF6


def test_solve_strip_any_matrix_perfect():
    rng = np.random.default_rng(3)
    cfg = ReductionConfig(alpha=1.0)
    for rows, cols in ((1, 2), (2, 4), (3, 6)):
        m = random_matrix(rows, cols, F5, rng)
        v = random_vector(cols, F5, rng)
        led = QueryLedger()
        run = ReductionRun(led, F5, cfg, rng)
        out = run_stage(solve_strip_any_matrix, run, m.values, v.values, solver=PERFECT)
        assert np.array_equal(out, matvec(m, v).values)


def test_solve_strip_any_matrix_charges_the_split_read():
    # the caller reads all d*n entries of the input once (as solve_block
    # reads its block) and the split M = R1 + R2 works on that array; on top
    # of that each of the two strip calls makes one solver invocation, and
    # an invocation is billed n^2 matrix and n vector queries
    rng = np.random.default_rng(4)
    cfg = ReductionConfig(alpha=1.0)
    m = random_matrix(2, 4, F5, rng)
    v = random_vector(4, F5, rng)
    led = QueryLedger()
    run = ReductionRun(led, F5, cfg, rng)
    run_stage(solve_strip_any_matrix, run, wrap_matrix(m, led).read_all(), v.values, solver=PERFECT)
    assert led.get(SOURCE_ALG) == 2
    assert led.get(SOURCE_MATRIX) == 2 * 4 + 2 * 4 * 4
    assert led.get(SOURCE_VECTOR) == 2 * 4


def test_solve_strip_any_matrix_exhaustive_tiny():
    f = PrimeField(2)
    cfg = ReductionConfig(alpha=1.0, k=2)
    rng = np.random.default_rng(5)
    for m in enumerate_matrices(f, 1, 2):
        for v in enumerate_vectors(f, 2):
            led = QueryLedger()
            run = ReductionRun(led, f, cfg, rng)
            out = run_stage(solve_strip_any_matrix, run, m.values, v.values, solver=PERFECT)
            assert np.array_equal(out, matvec(m, v).values)


# ------------------------------------------------------------ stage: block


def test_solve_block_perfect_exhaustive_tiny():
    f = PrimeField(2)
    cfg = ReductionConfig(alpha=1.0, k=2)
    rng = np.random.default_rng(6)
    for m in enumerate_matrices(f, 1, 1):
        for v in enumerate_vectors(f, 1):
            led = QueryLedger()
            run = ReductionRun(led, f, cfg, rng)
            out = run_stage(solve_block, run, wrap_matrix(m, led), v.values, solver=PERFECT)
            assert np.array_equal(out, matvec(m, v).values)


def test_solve_block_perfect_random():
    rng = np.random.default_rng(7)
    cfg = ReductionConfig(alpha=1.0, k=3)
    for d in (1, 2, 3):
        m = random_matrix(d, d, F5, rng)
        v = random_vector(d, F5, rng)
        led = QueryLedger()
        run = ReductionRun(led, F5, cfg, rng)
        out = run_stage(solve_block, run, wrap_matrix(m, led), v.values, solver=PERFECT)
        assert np.array_equal(out, matvec(m, v).values)
        assert run.stats.verify_calls >= 1


def test_solve_block_requires_square():
    rng = np.random.default_rng(0)
    cfg = ReductionConfig(alpha=1.0, k=2)
    led = QueryLedger()
    m = FpMatrix(F5, [[1, 2, 3], [4, 0, 1]])
    run = ReductionRun(led, F5, cfg, rng)
    with pytest.raises(ValueError):
        run_stage(solve_block, run, wrap_matrix(m, led), np.array([1, 2, 3], dtype=np.int64), solver=PERFECT)
    square = wrap_matrix(FpMatrix(F5, [[1, 2], [3, 4]]), led)
    with pytest.raises(ValueError):
        run_stage(solve_block, run, square, np.array([1, 2, 3], dtype=np.int64), solver=PERFECT)


def test_solve_block_any_input_perfect():
    rng = np.random.default_rng(8)
    cfg = ReductionConfig(alpha=1.0, k=2)
    for d in (1, 2, 4):
        m = random_matrix(d, d, F5, rng)
        v = random_vector(d, F5, rng)
        led = QueryLedger()
        run = ReductionRun(led, F5, cfg, rng)
        out = run_stage(solve_block_any_input, run, wrap_matrix(m, led), wrap_vector(v, led), solver=PERFECT)
        assert np.array_equal(out, matvec(m, v).values)
        # v = r1 + r2 split reads the input vector once in full
        assert led.get(SOURCE_VECTOR) >= d


# ------------------------------------- live input handles outside the pipeline
#
# The pipeline hands the strip stage a widened block and the block stage a
# block, both cut from its padded input, and both stages a vector it drew
# itself (a half of the vector split). Called directly on the caller's
# handles, the strip and block reads charge their own sources, structural
# zeros of a padded input charge nothing, and the vector operand is read
# from scratch. The strip stages take arrays only, so the strip case reads
# the live strip through its handle, as solve_block reads its block, and
# runs solve_strip_any_matrix on the values.


def _live_inputs(kind: str, shape: str, rng):
    """Live (matrix, vector) handles on a fresh ledger, and the number of
    input entries one full read of the matrix reaches.

    shape "strip" is a 3x6 strip with a length-6 vector; "block" is a 3x3
    block with a length-3 vector. kind "plain" wraps them as U_M / U_v;
    "padded" takes them as windows of a 5x5 instance padded to 6, so only
    entries inside the 5x5 corner are charged.
    """
    led = QueryLedger()
    cols = 6 if shape == "strip" else 3
    if kind == "plain":
        m = random_matrix(3, cols, F5, rng)
        v = random_vector(cols, F5, rng)
        return led, wrap_matrix(m, led), wrap_vector(v, led), 3 * cols
    padded_m = pad_square_matrix(wrap_matrix(random_matrix(5, 5, F5, rng), led), 6)
    padded_v = pad_vector(wrap_vector(random_vector(5, F5, rng), led), 6)
    if shape == "strip":  # rows 3..5: 2 real rows of 5 real entries
        return led, extract_submatrix(padded_m, 3, 3), padded_v, 2 * 5
    # the (1, 1) block of the 3-tiling and its segment: a 2x2 real corner
    return led, extract_block(padded_m, 1, 1, 3), extract_subvector(padded_v, 3, 3), 2 * 2


def _reference(led, mat, vec):
    """The true product and the vector's values; the reads' charges are
    cleared from the fixture's fresh ledger."""
    truth, v_vals = matvec(mat.to_matrix(), vec.to_vector()), vec.read_all()
    led.counts.clear()
    return truth, v_vals


def _nonzero(counts: dict) -> dict:
    return {k: v for k, v in counts.items() if v}


@pytest.mark.parametrize("accounting", ["paper", "actual"])
@pytest.mark.parametrize("kind", ["plain", "padded"])
def test_solve_strip_charges_live_handles_to_their_sources(accounting, kind):
    rng = np.random.default_rng(41)
    d, n = 3, 6
    led, mat, vec, live_m = _live_inputs(kind, "strip", rng)
    truth, v_vals = _reference(led, mat, vec)
    eps = 1e-4
    cfg = ReductionConfig(alpha=0.5, verifier=VerifierConfig(epsilon=eps, accounting=accounting))
    solver = NoisySolver(UniformProfile(0.5))
    run = ReductionRun(led, F5, cfg, rng)
    out = run_stage(solve_strip_any_matrix, run, mat.read_all(), v_vals, solver=solver)
    assert np.array_equal(out, truth.values)
    a = run.stats.stage1_iters
    assert a >= 2 and run.stats.verify_calls == a
    # the live strip is read once; per attempt: one ALG call billed
    # n^2 matrix and n vector queries; each half's accepted d-entry window
    # and the sum of the two halves are read from scratch
    want = {
        SOURCE_ALG: a,
        SOURCE_MATRIX: live_m + a * n * n,
        SOURCE_VECTOR: a * n,
        SOURCE_SCRATCH: 2 * d + 2 * d,
    }
    if accounting == "paper":
        want[SOURCE_VERIFIER] = a * charged_queries(n, eps)
    else:
        # each verification reads the n x n planted instance and the vector,
        # all of them values the pipeline drew, from scratch
        want[SOURCE_SCRATCH] += a * (n * n + n)
    assert _nonzero(led.snapshot()) == want


@pytest.mark.parametrize("accounting", ["paper", "actual"])
@pytest.mark.parametrize("kind", ["plain", "padded"])
def test_solve_block_charges_live_handles_to_their_sources(accounting, kind):
    # a perfect solver makes the run fixed: one stage-3 iteration whose
    # strip split makes two stage-1 attempts, each accepted at once
    rng = np.random.default_rng(42)
    d, k = 3, 2
    led, mat, vec, live_m = _live_inputs(kind, "block", rng)
    truth, v_vals = _reference(led, mat, vec)
    n = k * d
    eps = 1e-4
    cfg = ReductionConfig(alpha=1.0, k=k, verifier=VerifierConfig(epsilon=eps, accounting=accounting))
    run = ReductionRun(led, F5, cfg, rng)
    out = run_stage(solve_block, run, mat, v_vals, solver=PERFECT)
    assert np.array_equal(out, truth.values)
    assert (run.stats.stage1_iters, run.stats.stage3_iters, run.stats.verify_calls) == (2, 1, 3)
    want = {
        SOURCE_ALG: 2,
        # two calls on the n x n planted instance, plus the stage-3
        # iteration's read of the block (only live entries are charged)
        SOURCE_MATRIX: 2 * n * n + live_m,
        SOURCE_VECTOR: 2 * n,
        # two accepted d-windows, then the sum of the split halves reads both
        SOURCE_SCRATCH: 2 * d + 2 * d,
    }
    if accounting == "paper":
        want[SOURCE_VERIFIER] = 2 * charged_queries(n, eps) + charged_queries(d, eps)
    else:
        # the two stage-1 verifications read their n x n planted instance and
        # the widened vector from scratch; the stage-3 verification re-reads
        # the block through its handle and the widened vector (the
        # live vector and k-1 co-vectors) from scratch
        want[SOURCE_SCRATCH] += 2 * (n * n + n) + k * d
        want[SOURCE_MATRIX] += live_m
    assert _nonzero(led.snapshot()) == want


def test_solve_block_any_input_never_solver():
    rng = np.random.default_rng(9)
    cfg = ReductionConfig(alpha=0.5, c1=4.0, c2=4.0, k=2)
    m = random_matrix(2, 2, F5, rng)
    v = random_vector(2, F5, rng)
    led = QueryLedger()
    run = ReductionRun(led, F5, cfg, rng)
    out = run_stage(solve_block_any_input, run, wrap_matrix(m, led), wrap_vector(v, led), solver=NEVER)
    assert out is None


@pytest.mark.parametrize("failure_mode", FAILURE_MODES)
@pytest.mark.parametrize("verifier_mode", ["exact", "probabilistic"])
def test_wrong_outputs_are_never_accepted(verifier_mode, failure_mode):
    # every output of a never-succeeding solver is wrong, and each attempt
    # checks it against the instance's own product: no attempt may pass, so
    # every stage spends its whole budget and every call verifies once. At
    # p = 65521 one challenge round leaves a false accept at 1/65521.
    f = PrimeField(65521)
    rng = np.random.default_rng(43)
    solver = NoisySolver(UniformProfile(0.0), failure_mode=failure_mode)
    cfg = ReductionConfig(alpha=0.5, k=3, c1=8.0, c2=4.0, verifier=VerifierConfig(mode=verifier_mode))
    d = 2
    m, v = random_matrix(d, 3 * d, f, rng), random_vector(3 * d, f, rng)
    run = ReductionRun(QueryLedger(), f, cfg, rng)
    assert run_stage(solve_strip, run, m.values, v.values, solver=solver) is None
    assert run.stats.stage1_iters == run.stats.verify_calls == cfg.stage1_budget()

    block, segment = random_matrix(d, d, f, rng), random_vector(d, f, rng)
    led = QueryLedger()
    run = ReductionRun(led, f, cfg, rng)
    stats = run.stats
    mat, vec = wrap_matrix(block, led), wrap_vector(segment, led)
    out = run_stage(solve_block_any_input, run, mat, vec, solver=solver)
    assert out is None
    # the first half's stage 3 exhausts its budget, each iteration's strip
    # split failing on its first half, so no stage-3 verification runs
    budget = cfg.stage3_budget() * cfg.stage1_budget()
    assert stats.stage3_iters == cfg.stage3_budget()
    assert stats.stage1_iters == stats.verify_calls == budget
    assert led.get(SOURCE_ALG) == budget


# ----------------------------------------------------------------- boost


def run_task(task):
    """A task that makes no solver request, run through run_waves; its result."""
    results = run_waves([task], PERFECT, ReductionRun(QueryLedger(), F5, ReductionConfig(alpha=1.0), philox()))
    return None if results is None else results[0]


def attempt_returning(results):
    """A stage generator factory whose i-th generator returns results[i] at once."""
    rounds = iter(results)

    def attempt():
        yield from ()
        return next(rounds)

    return attempt


def test_boost_returns_first_success():
    marker = np.array([1], dtype=np.int64)
    stats = fresh_stats()
    out = run_task(boost(attempt_returning([None, marker, None]), 5, stats))
    assert out is marker
    assert stats.boost_rounds_total == 2


def test_boost_gives_up_after_rounds():
    stats = fresh_stats()
    assert run_task(boost(attempt_returning([None] * 3), 3, stats)) is None
    assert stats.boost_rounds_total == 3
    with pytest.raises(ValueError):
        run_task(boost(attempt_returning([None]), 0, fresh_stats()))


# ------------------------------------------------------------ full pipeline


def test_worst_case_matvec_exhaustive_tiny():
    # every 2x2 instance over F_2, perfect solver: output must be exact
    f = PrimeField(2)
    cfg = ReductionConfig(alpha=1.0, k=2)
    rng = np.random.default_rng(10)
    for m in enumerate_matrices(f, 2, 2):
        for v in enumerate_vectors(f, 2):
            led = QueryLedger()
            out = worst_case_matvec(wrap_matrix(m, led), wrap_vector(v, led), PERFECT, cfg, rng)
            assert out.result == matvec(m, v)
            assert out.block_count == 2
            assert out.padded_n == 2


def test_worst_case_matvec_pads_awkward_sizes():
    rng = np.random.default_rng(11)
    cfg = ReductionConfig(alpha=1.0, k=2)
    m = random_matrix(3, 3, F5, rng)
    v = random_vector(3, F5, rng)
    led = QueryLedger()
    out = worst_case_matvec(wrap_matrix(m, led), wrap_vector(v, led), PERFECT, cfg, rng)
    assert out.result == matvec(m, v)
    assert out.padded_n == 4
    assert out.result.length == 3


def test_worst_case_matvec_never_solver_fails_cleanly():
    rng = np.random.default_rng(12)
    cfg = ReductionConfig(alpha=0.5, c1=2.0, c2=2.0, k=2, boost_rounds=1)
    m = random_matrix(2, 2, F5, rng)
    v = random_vector(2, F5, rng)
    led = QueryLedger()
    out = worst_case_matvec(wrap_matrix(m, led), wrap_vector(v, led), NEVER, cfg, rng)
    assert out.result is None
    assert out.stats.stage1_iters == led.get(SOURCE_ALG)


def test_worst_case_matvec_noisy_solver_is_exact_when_it_succeeds():
    # alpha = 0.5 solver, verified at every boundary: any returned product
    # must be the true one
    rng = np.random.default_rng(13)
    cfg = ReductionConfig(alpha=0.5, k=2)
    solver = NoisySolver(UniformProfile(0.5))
    wrong = 0
    for trial in range(20):
        m = random_matrix(4, 4, F5, rng)
        v = random_vector(4, F5, rng)
        led = QueryLedger()
        out = worst_case_matvec(wrap_matrix(m, led), wrap_vector(v, led), solver, cfg, rng)
        if out.result is not None and out.result != matvec(m, v):
            wrong += 1
    assert wrong == 0


def test_worst_case_matvec_alg_calls_match_stage1_iters():
    rng = np.random.default_rng(14)
    cfg = ReductionConfig(alpha=0.5, k=2)
    solver = NoisySolver(UniformProfile(0.5))
    m = random_matrix(4, 4, F5, rng)
    v = random_vector(4, F5, rng)
    led = QueryLedger()
    out = worst_case_matvec(wrap_matrix(m, led), wrap_vector(v, led), solver, cfg, rng)
    assert led.get(SOURCE_ALG) == out.stats.stage1_iters


def test_worst_case_matvec_deterministic_given_seed():
    cfg = ReductionConfig(alpha=0.5, k=2)
    solver = NoisySolver(UniformProfile(0.5))
    m = random_matrix(4, 4, F5, np.random.default_rng(15))
    v = random_vector(4, F5, np.random.default_rng(16))
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        led = QueryLedger()
        out = worst_case_matvec(wrap_matrix(m, led), wrap_vector(v, led), solver, cfg, rng)
        runs.append((out.result, led.snapshot(), out.stats))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]


def test_worst_case_matvec_auto_k_uses_desk_formula():
    rng = np.random.default_rng(17)
    cfg = ReductionConfig(alpha=1.0)  # no explicit k: desk rule gives 12
    m = random_matrix(3, 3, F5, rng)
    v = random_vector(3, F5, rng)
    led = QueryLedger()
    out = worst_case_matvec(wrap_matrix(m, led), wrap_vector(v, led), PERFECT, cfg, rng)
    assert out.block_count == 12
    assert out.padded_n == 12
    assert out.result == matvec(m, v)


# ------------------------------------------------------------ block draws

BLOCK_KEY = [7, 3]


def philox(key=BLOCK_KEY):
    return np.random.Generator(np.random.Philox(key=key))


def test_block_draws_serve_consecutive_slices_of_one_block():
    draws = _BlockDraws(philox())
    first = draws.integers(0, 5, size=(2, 3), dtype=np.int64)
    second = draws.integers(0, 5, size=4, dtype=np.int64)
    block = philox().integers(0, 5, size=DRAW_BLOCK, dtype=np.int64)
    assert first.shape == (2, 3) and second.shape == (4,)
    assert np.array_equal(first.reshape(6), block[:6])
    assert np.array_equal(second, block[6:10])


def test_block_draws_keep_one_block_per_range():
    draws = _BlockDraws(philox())
    head = draws.integers(0, 5, size=3, dtype=np.int64)
    slot = draws.integers(17)  # the range (0, 17), as Generator.integers(17) reads it
    tail = draws.integers(0, 5, size=2, dtype=np.int64)
    ref = philox()
    p_block = ref.integers(0, 5, size=DRAW_BLOCK, dtype=np.int64)
    k_block = ref.integers(0, 17, size=DRAW_BLOCK, dtype=np.int64)
    assert np.shape(slot) == ()
    assert slot == k_block[0]
    assert draws.integers(0, 17) == k_block[1]
    assert np.array_equal(np.concatenate([head, tail]), p_block[:5])


def test_block_draws_start_a_new_block_when_a_request_does_not_fit():
    draws = _BlockDraws(philox())
    draws.integers(0, 5, size=DRAW_BLOCK - 2, dtype=np.int64)
    rest = draws.integers(0, 5, size=5, dtype=np.int64)
    ref = philox()
    ref.integers(0, 5, size=DRAW_BLOCK, dtype=np.int64)
    assert np.array_equal(rest, ref.integers(0, 5, size=DRAW_BLOCK, dtype=np.int64)[:5])


def test_block_draws_pass_oversized_requests_straight_to_the_stream():
    draws = _BlockDraws(philox())
    head = draws.integers(0, 5, size=3, dtype=np.int64)
    big = draws.integers(0, 5, size=(2, DRAW_BLOCK // 2 + 1), dtype=np.int64)
    tail = draws.integers(0, 5, size=2, dtype=np.int64)
    ref = philox()
    block = ref.integers(0, 5, size=DRAW_BLOCK, dtype=np.int64)
    assert np.array_equal(big, ref.integers(0, 5, size=(2, DRAW_BLOCK // 2 + 1), dtype=np.int64))
    assert np.array_equal(np.concatenate([head, tail]), block[:5])


def test_block_draws_are_read_only_and_int64_only():
    draws = _BlockDraws(philox())
    vals = draws.integers(0, 5, size=(2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        vals[0, 0] = 1
    with pytest.raises(ValueError):
        draws.integers(0, 5, size=4, dtype=np.int32)


def test_reduction_run_resolves_k_once_and_draws_over_its_stream():
    # the record the stages share: desk k for a config without one, fresh
    # counters, and block draws served from the stream the waves draw from
    cfg = ReductionConfig(alpha=0.25)
    stream = philox()
    run = ReductionRun(QueryLedger(), F5, cfg, stream)
    assert run.k == cfg.resolved_k() == 23 and cfg.k is None
    assert run.stats == fresh_stats() and run.stream is stream and run.config is cfg
    block = philox().integers(0, 5, size=DRAW_BLOCK, dtype=np.int64)
    assert np.array_equal(run.draws.integers(0, 5, size=3, dtype=np.int64), block[:3])


class CountingRng:
    """Forwards to a Generator, counting its integers() calls."""

    def __init__(self, rng):
        self.rng = rng
        self.integer_calls = 0

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return self.rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)


def test_worst_case_matvec_draws_integers_in_blocks():
    # one draw per attempt at least would give ~4 integers() calls per ALG
    # call; a wave makes three for all its attempts, and the stages' own
    # draws come from blocks
    counting = CountingRng(philox([0, 0]))
    m = random_matrix(8, 8, F5, counting.rng)
    v = random_vector(8, F5, counting.rng)
    led = QueryLedger()
    solver = NoisySolver(UniformProfile(0.5))
    out = worst_case_matvec(wrap_matrix(m, led), wrap_vector(v, led), solver, ReductionConfig(alpha=0.5, k=17), counting)
    assert out.result == matvec(m, v)
    assert counting.integer_calls * 8 <= led.get(SOURCE_ALG)


def test_run_waves_keeps_at_most_wave_size_tasks_in_flight():
    # tasks are admitted lazily, in order, as others end; each one's result
    # lands at its own index whatever order the tasks end in
    rng = np.random.default_rng(19)
    cfg = ReductionConfig(alpha=0.5, k=3)
    solver = NoisySolver(UniformProfile(0.5))
    led = QueryLedger()
    run = ReductionRun(led, F5, cfg, rng)
    strips = [random_matrix(2, 6, F5, rng) for _ in range(12)]
    v = random_vector(6, F5, rng)
    in_flight, peak, admitted = set(), [0], []

    def tracked(i):
        admitted.append(i)
        in_flight.add(i)
        peak[0] = max(peak[0], len(in_flight))
        out = yield from solve_strip_any_matrix(run, strips[i].values, v.values)
        in_flight.discard(i)
        return out

    results = run_waves((tracked(i) for i in range(12)), solver, run, wave_size=5)
    assert admitted == list(range(12)) and peak[0] == 5
    assert [r.tolist() for r in results] == [matvec(m, v).to_list() for m in strips]


# ----------------------------------------------------------------- report


def test_reduction_report_from_run_and_consistency():
    rng = np.random.default_rng(18)
    cfg = ReductionConfig(alpha=1.0, k=2)
    m = random_matrix(2, 2, F5, rng)
    v = random_vector(2, F5, rng)
    led = QueryLedger()
    out = worst_case_matvec(wrap_matrix(m, led), wrap_vector(v, led), PERFECT, cfg, rng)
    rep = ReductionReport.from_run(3, out.result, out.stats, led, correct=(out.result == matvec(m, v)))
    assert rep.trial == 3
    assert rep.success
    assert rep.alg_queries == out.stats.stage1_iters
    rep.check_consistency()  # must not raise
    broken = ReductionReport(
        trial=0,
        success=True,
        returned=True,
        alg_queries=5,
        um_queries=0,
        uv_queries=0,
        verifier_charged=0,
        stage1_iters=4,
        stage3_iters=0,
        boost_rounds_total=0,
        wall_ms=0.0,
    )
    with pytest.raises(ValueError):
        broken.check_consistency()
