"""Randomized product verification.

For a claimed product w != M v the per-round accept probability is exactly
1/p: the challenges r with r . (w - M v) = 0 form a hyperplane of size
p^(n-1) out of p^n. Every statistical check below leans on that closed form.
"""

import math
from collections import Counter

import numpy as np
import pytest

from mvamp.field import PrimeField
from mvamp.linalg import (
    FpMatrix,
    FpVector,
    enumerate_matrices,
    enumerate_vectors,
    matvec,
    matvec_values,
    random_matrix,
    random_vector,
    vecmat_values,
)
from mvamp.oracle import (
    SOURCE_ALG,
    SOURCE_MATRIX,
    SOURCE_SCRATCH,
    SOURCE_VECTOR,
    SOURCE_VERIFIER,
    MatrixOracleHandle,
    QueryLedger,
    VectorOracleHandle,
    wrap_matrix,
    wrap_vector,
)
from mvamp.reduction import _BlockDraws
from mvamp.solver import FAILURE_MODES, NoisySolver, UniformProfile
from mvamp.verify import (
    VerifierConfig,
    challenge_rounds,
    charged_queries,
    draw_challenges,
    verified_call,
    verify_product,
)

F5 = PrimeField(5)


def mv_of(m, v):
    """The verifier's M v for an FpMatrix/FpVector pair, as its callers compute it."""
    return matvec_values(m.values, v.values, m.field.modulus)


def check(led, f, mv, w, cfg, rng, operands=()):
    """verify_product on challenges drawn from rng, as its callers draw them."""
    return verify_product(led, f, mv, w, cfg, draw_challenges(cfg, f.modulus, mv.shape[0], rng), operands)


def int_product(m, v):
    """M v mod p in Python integers, independent of matvec_values."""
    p, vec = m.field.modulus, v.to_list()
    return np.array([sum(a * b for a, b in zip(row, vec)) % p for row in m.values.tolist()], dtype=np.int64)


def rounds_reference(p, eps):
    # independent oracle: smallest t with p^t >= 1/eps
    t = 1
    while p**t < 1.0 / eps:
        t += 1
    return t


def charged_reference(rows, eps):
    # ceil(rows^(3/2) * ceil(log2(1/eps))), computed exactly in integers
    levels = math.ceil(math.log2(1.0 / eps))
    target = levels * levels * rows**3
    root = math.isqrt(target)
    if root * root < target:
        root += 1
    return root


def test_challenge_rounds_matches_reference():
    for p in (2, 3, 5, 7):
        for eps in (0.5, 0.25, 0.1, 1e-3, 1e-4):
            assert challenge_rounds(p, eps) == rounds_reference(p, eps), (p, eps)


def test_challenge_rounds_frozen_examples():
    assert challenge_rounds(2, 1e-4) == 14
    assert challenge_rounds(5, 1e-4) == 6
    assert challenge_rounds(3, 0.5) == 1


def test_charged_queries_matches_reference():
    for rows in (1, 2, 4, 8, 16, 100):
        for eps in (0.5, 0.1, 1e-3, 1e-4):
            assert charged_queries(rows, eps) == charged_reference(rows, eps), (rows, eps)


def test_charged_queries_frozen_examples():
    # rows=16: 16^1.5 = 64 exactly, 64 * 14 = 896
    assert charged_queries(16, 1e-4) == 896
    # rows=8: ceil(sqrt(14^2 * 8^3)) = ceil(sqrt(100352)) = 317
    assert charged_queries(8, 1e-4) == 317


@pytest.mark.parametrize("p, epsilon, rows", [(2, 1e-4, 3), (5, 0.1, 8), (65521, 1e-4, 4), (2**31 - 1, 1e-4, 6)])
def test_draw_challenges_for_count_calls_equals_count_single_draws(p, epsilon, rows):
    # a wave draws every request's challenges in one call; each request must
    # see the rows it would have drawn alone, in request order
    cfg = VerifierConfig(epsilon=epsilon)
    rounds = challenge_rounds(p, epsilon)
    batch, single = np.random.default_rng(5), np.random.default_rng(5)
    for count in (1, 7):
        drawn = draw_challenges(cfg, p, rows, batch, count=count)
        assert drawn.shape == (count, rounds, rows) and drawn.dtype == np.int64
        for request in drawn:
            alone = draw_challenges(cfg, p, rows, single)
            assert alone.shape == (rounds, rows)
            assert np.array_equal(request, alone)
        assert batch.bit_generator.state == single.bit_generator.state
    assert 0 <= drawn.min() and drawn.max() < p


def test_draw_challenges_in_exact_mode_draws_nothing():
    # exact mode checks without challenges; a draw of zero rows would still
    # pull a fresh block off the stream through _BlockDraws
    exact, probabilistic = VerifierConfig(mode="exact"), VerifierConfig()
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    draws = _BlockDraws(np.random.default_rng(6))
    for count in (None, 5):
        assert draw_challenges(exact, 5, 4, rng, count=count) is None
        assert draw_challenges(exact, 5, 4, draws, count=count) is None
    assert rng.bit_generator.state == state
    assert draws._blocks == {} and draws._rng.bit_generator.state == state
    # the same calls in probabilistic mode do draw, from both
    assert draw_challenges(probabilistic, 5, 4, rng).shape == (6, 4)
    assert draw_challenges(probabilistic, 5, 4, draws).shape == (6, 4)
    assert rng.bit_generator.state != state and draws._rng.bit_generator.state != state


def test_completeness_exhaustive_tiny():
    # a correct product is never rejected, whatever the challenges
    f = PrimeField(2)
    rng = np.random.default_rng(0)
    cfg = VerifierConfig(epsilon=0.25)
    led = QueryLedger()
    for m in enumerate_matrices(f, 2, 2):
        for v in enumerate_vectors(f, 2):
            assert check(led, f, mv_of(m, v), int_product(m, v), cfg, rng)


def test_exact_mode_is_deterministic():
    rng = np.random.default_rng(0)
    cfg = VerifierConfig(mode="exact")
    f = PrimeField(3)
    led = QueryLedger()
    for m in enumerate_matrices(f, 2, 2):
        for v in enumerate_vectors(f, 2):
            truth = matvec(m, v)
            assert check(led, f, mv_of(m, v), int_product(m, v), cfg, rng)
            for w in enumerate_vectors(f, 2):
                if w != truth:
                    assert not check(led, f, mv_of(m, v), w.values, cfg, rng)


def test_false_accept_rate_matches_closed_form():
    # eps = 0.5 at p = 5 gives exactly 1 round, so wrong products pass
    # with probability exactly 1/5
    rng = np.random.default_rng(77)
    cfg = VerifierConfig(epsilon=0.5)
    assert challenge_rounds(5, 0.5) == 1
    m = FpMatrix(F5, [[1, 2], [3, 4]])
    v = FpVector(F5, [1, 1])
    truth = matvec(m, v)
    wrong = np.array([(truth.values[0] + 1) % 5, truth.values[1]], dtype=np.int64)
    led = QueryLedger()
    trials = 10000
    accepts = sum(check(led, F5, mv_of(m, v), wrong, cfg, rng) for _ in range(trials))
    # 4 sigma of binomial(10000, 0.2) is 0.016
    assert abs(accepts / trials - 0.2) < 0.016


def test_false_accept_rate_two_rounds():
    # eps = 0.1 at p = 5 gives 2 rounds: accept probability (1/5)^2 = 0.04
    rng = np.random.default_rng(78)
    cfg = VerifierConfig(epsilon=0.1)
    assert challenge_rounds(5, 0.1) == 2
    m = FpMatrix(F5, [[0, 1], [2, 2]])
    v = FpVector(F5, [3, 1])
    truth = matvec(m, v)
    wrong = np.array([truth.values[0], (truth.values[1] + 2) % 5], dtype=np.int64)
    led = QueryLedger()
    trials = 10000
    accepts = sum(check(led, F5, mv_of(m, v), wrong, cfg, rng) for _ in range(trials))
    # 4 sigma of binomial(10000, 0.04) is 0.008
    assert abs(accepts / trials - 0.04) < 0.008


def test_paper_accounting_charges_formula_only():
    rng = np.random.default_rng(0)
    m, v = random_matrix(4, 4, F5, rng), random_vector(4, F5, rng)
    cfg = VerifierConfig(epsilon=1e-4, accounting="paper")
    # handle and array operands alike are read without a charge
    for as_handles in (True, False):
        led = QueryLedger()
        operands = (wrap_matrix(m, led), wrap_vector(v, led)) if as_handles else (m.values, v.values)
        assert check(led, F5, mv_of(m, v), matvec(m, v).values, cfg, rng, operands)
        assert led.snapshot() == {SOURCE_VERIFIER: charged_queries(4, 1e-4)}


def test_actual_accounting_counts_physical_reads():
    rng = np.random.default_rng(0)
    m, v = random_matrix(4, 4, F5, rng), random_vector(4, F5, rng)
    led = QueryLedger()
    cfg = VerifierConfig(epsilon=1e-4, accounting="actual")
    operands = (wrap_matrix(m, led), wrap_vector(v, led))
    assert check(led, F5, mv_of(m, v), matvec(m, v).values, cfg, rng, operands)
    assert led.snapshot() == {SOURCE_MATRIX: 16, SOURCE_VECTOR: 4}
    # arrays the pipeline drew itself are read from scratch
    assert check(led, F5, mv_of(m, v), matvec(m, v).values, cfg, rng, (m.values, v.values))
    assert led.snapshot() == {SOURCE_MATRIX: 16, SOURCE_VECTOR: 4, SOURCE_SCRATCH: 20}


def test_actual_accounting_refuses_a_call_without_operands():
    rng = np.random.default_rng(0)
    m, v = random_matrix(4, 4, F5, rng), random_vector(4, F5, rng)
    mv = mv_of(m, v)
    led = QueryLedger()
    # (mv, mv) is the identity accept's case: the refusal comes before it
    with pytest.raises(ValueError, match="operands"):
        check(led, F5, mv, mv, VerifierConfig(accounting="actual"), rng)
    assert led.snapshot() == {}
    # paper accounting reads nothing, so it needs no operands
    assert check(led, F5, mv, mv, VerifierConfig(accounting="paper"), rng)
    assert led.snapshot() == {SOURCE_VERIFIER: charged_queries(4, 1e-4)}


@pytest.mark.parametrize("accounting", ["paper", "actual"])
@pytest.mark.parametrize("mode", ["probabilistic", "exact"])
def test_identity_accept_matches_the_full_check_on_a_copy(mode, accounting):
    # a successful invoke returns mv itself; verify_product accepts that
    # without a residual, and must decide and charge as the full check does
    # on an equal copy, with the same challenges
    rng = np.random.default_rng(12)
    m, v = random_matrix(5, 5, F5, rng), random_vector(5, F5, rng)
    mv = mv_of(m, v)
    cfg = VerifierConfig(mode=mode, accounting=accounting)
    challenges = draw_challenges(cfg, 5, 5, rng)
    decisions, snapshots = [], []
    for w in (mv, mv.copy()):
        led = QueryLedger()
        operands = (wrap_matrix(m, led), wrap_vector(v, led))
        decisions.append(verify_product(led, F5, mv, w, cfg, challenges, operands))
        snapshots.append(led.snapshot())
    assert decisions == [True, True]
    assert snapshots[0] == snapshots[1] and snapshots[0]


@pytest.mark.parametrize("accounting", ["paper", "actual"])
def test_identity_accept_keys_on_the_object_not_on_equal_values(monkeypatch, accounting):
    # only the mv array itself skips the challenge product; an equal copy,
    # such as a stage-3 sum or an independent product, still forms it
    calls = []

    def counted(a, b, p):
        calls.append(a.shape)
        return matvec_values(a, b, p)

    monkeypatch.setattr("mvamp.verify.matvec_values", counted)
    rng = np.random.default_rng(13)
    m, v = random_matrix(4, 4, F5, rng), random_vector(4, F5, rng)
    mv = mv_of(m, v)
    cfg = VerifierConfig(accounting=accounting)
    operands = (m.values, v.values)
    assert check(QueryLedger(), F5, mv, mv, cfg, rng, operands)
    assert calls == []
    assert check(QueryLedger(), F5, mv, mv.copy(), cfg, rng, operands)
    assert calls == [(challenge_rounds(5, cfg.epsilon), 4)]


def test_verify_product_validates_inputs():
    rng = np.random.default_rng(0)
    led = QueryLedger()
    m = np.array([[1, 2], [3, 4]], dtype=np.int64)
    v = np.array([1, 1], dtype=np.int64)
    mv = matvec_values(m, v, 5)
    cfg = VerifierConfig()
    with pytest.raises(ValueError):
        check(led, F5, mv, np.array([1, 2, 3], dtype=np.int64), cfg, rng)
    with pytest.raises(ValueError):
        check(led, F5, mv, np.array([[1], [2]], dtype=np.int64), cfg, rng)
    # the instance's product is a vector too, not a stack of them
    with pytest.raises(ValueError):
        check(led, F5, mv.reshape(2, 1), np.array([[1], [2]], dtype=np.int64), cfg, rng)
    with pytest.raises(ValueError):
        verified_call(NoisySolver(UniformProfile(1.0)), FpMatrix(F5, m), FpVector(PrimeField(7), v), led, cfg, rng)
    # a rejected call charges nothing
    assert led.snapshot() == {}


def test_large_modulus_verification_falls_back_exactly():
    # (p-1)^2 * n overflows int64, exercising the exact per-round path
    p = 2**31 - 1
    f = PrimeField(p)
    rng = np.random.default_rng(4)
    m = FpMatrix(f, [[p - 1, p - 2], [p - 3, p - 4]])
    v = FpVector(f, [p - 1, p - 5])
    led = QueryLedger()
    cfg = VerifierConfig(epsilon=0.5)
    truth = matvec(m, v)
    assert check(led, f, mv_of(m, v), int_product(m, v), cfg, rng)
    wrong = np.array([(truth.values[0] + 1) % p, truth.values[1]], dtype=np.int64)
    rejections = sum(not check(led, f, mv_of(m, v), wrong, cfg, rng) for _ in range(30))
    # per-round false accept is 1/p ~ 5e-10, all 30 must reject
    assert rejections == 30


def test_verified_call_returns_truth_for_perfect_solver():
    rng = np.random.default_rng(0)
    m, v = random_matrix(3, 3, F5, rng), random_vector(3, F5, rng)
    led = QueryLedger()
    out = verified_call(NoisySolver(UniformProfile(1.0)), m, v, led, VerifierConfig(), rng)
    assert out == matvec(m, v)


def test_verified_call_exact_filter_blocks_all_wrong_answers():
    rng = np.random.default_rng(0)
    m, v = random_matrix(3, 3, F5, rng), random_vector(3, F5, rng)
    led = QueryLedger()
    cfg = VerifierConfig(mode="exact")
    solver = NoisySolver(UniformProfile(0.0))
    for _ in range(40):
        assert verified_call(solver, m, v, led, cfg, rng) is None


@pytest.mark.parametrize("accounting", ["paper", "actual"])
@pytest.mark.parametrize("size", [6, 5])
def test_verified_call_charges_its_whole_ledger(size, accounting):
    # the solver's modeled reads cover the whole input; actual accounting's
    # verifier reads it once more through U_M/U_v handles (the baseline
    # never pads, so each size is a plain input)
    rng = np.random.default_rng(size)
    led = QueryLedger()
    m, v = random_matrix(size, size, F5, rng), random_vector(size, F5, rng)
    cfg = VerifierConfig(epsilon=1e-4, accounting=accounting)
    out = verified_call(NoisySolver(UniformProfile(1.0)), m, v, led, cfg, rng)
    assert out == matvec(m, v)
    sq = size * size
    if accounting == "paper":
        expect = {SOURCE_ALG: 1, SOURCE_MATRIX: sq, SOURCE_VECTOR: size, SOURCE_VERIFIER: charged_queries(size, 1e-4)}
    else:
        expect = {SOURCE_ALG: 1, SOURCE_MATRIX: 2 * sq, SOURCE_VECTOR: 2 * size}
    assert led.snapshot() == expect


@pytest.mark.parametrize("accounting", ["paper", "actual"])
def test_verified_call_reads_its_input_once_for_the_verifier_only(monkeypatch, accounting):
    # the solver is handed the arrays the call holds; the only physical read
    # of the input is the verifier's, and paper accounting reads nothing
    reads = Counter()
    for cls in (MatrixOracleHandle, VectorOracleHandle):
        def counted(self, _read=cls.read_all, _name=cls.__name__):
            reads[_name] += 1
            return _read(self)

        monkeypatch.setattr(cls, "read_all", counted)
    rng = np.random.default_rng(3)
    m, v = random_matrix(4, 4, F5, rng), random_vector(4, F5, rng)
    cfg = VerifierConfig(accounting=accounting)
    out = verified_call(NoisySolver(UniformProfile(1.0)), m, v, QueryLedger(), cfg, rng)
    assert out == matvec(m, v)
    once = 1 if accounting == "actual" else 0
    assert (reads["MatrixOracleHandle"], reads["VectorOracleHandle"]) == (once, once)


@pytest.mark.parametrize("failure_mode", FAILURE_MODES)
@pytest.mark.parametrize("verifier_mode", ["exact", "probabilistic"])
def test_verified_call_never_accepts_a_never_succeeding_solver(verifier_mode, failure_mode):
    # the verifier checks each wrong output against the instance's own
    # product, so no call may return; at p = 65521 a false accept is 1/65521
    f = PrimeField(65521)
    rng = np.random.default_rng(10)
    m, v = random_matrix(4, 4, f, rng), random_vector(4, f, rng)
    led = QueryLedger()
    cfg = VerifierConfig(mode=verifier_mode)
    solver = NoisySolver(UniformProfile(0.0), failure_mode=failure_mode)
    calls = 64
    for _ in range(calls):
        assert verified_call(solver, m, v, led, cfg, rng) is None
    assert led.get(SOURCE_ALG) == calls


def test_verified_call_false_accepts_near_per_call_bound():
    # zero-success solver: every call must sneak a wrong product past the
    # verifier; with 2 rounds at p=5 that happens at rate 0.04
    rng = np.random.default_rng(9)
    m, v = random_matrix(2, 2, F5, rng), random_vector(2, F5, rng)
    led = QueryLedger()
    cfg = VerifierConfig(epsilon=0.1)
    solver = NoisySolver(UniformProfile(0.0))
    trials = 4000
    passed = sum(
        verified_call(solver, m, v, led, cfg, rng) is not None
        for _ in range(trials)
    )
    # expected 0.04; 4 sigma of binomial(4000, 0.04) is 0.0124
    assert passed / trials < 0.04 + 0.0124


# ----------------------------------------- residual form against three products


def verify_three_products(field, m_vals, v_vals, product, config, rng):
    """The check as Freivalds states it, R.w == (R.M).v, in three products.

    A test-only reference for verify_product's probabilistic mode: it draws
    the same challenges and compares the two sides row by row.
    """
    p = field.modulus
    rounds = challenge_rounds(p, config.epsilon)
    challenges = rng.integers(0, p, size=(rounds, m_vals.shape[0]), dtype=np.int64)
    lhs = matvec_values(challenges, product, p)
    rhs = matvec_values(vecmat_values(challenges, m_vals, p), v_vals, p)
    return bool(np.array_equal(lhs, rhs))


def _claimed_products(truth, p, rng):
    """The truth, every single-coordinate perturbation of it (three shifts
    per coordinate past p = 5), uniform vectors, and all-(p-1)."""
    shifts = range(1, p) if p <= 5 else (1, p // 2, p - 1)
    yield truth
    for i in range(truth.shape[0]):
        for s in shifts:
            w = truth.copy()
            w[i] = (w[i] + s) % p
            yield w
    for _ in range(20):
        yield rng.integers(0, p, size=truth.shape[0], dtype=np.int64)
    yield np.full(truth.shape[0], p - 1, dtype=np.int64)


@pytest.mark.parametrize("p", [5, 65521, 2**31 - 1])
@pytest.mark.parametrize("shape", ["square", "wide"])
@pytest.mark.parametrize("epsilon", [0.1, 1e-4])
def test_residual_check_matches_three_product_check(p, shape, epsilon):
    # square: the n x n instance of a stage-1 attempt or a verified_call;
    # wide: the d x (k*d) widened block of a stage-3 iteration
    f = PrimeField(p)
    rows, cols = (6, 6) if shape == "square" else (3, 12)
    cfg = VerifierConfig(epsilon=epsilon)
    led = QueryLedger()
    data = np.random.default_rng(p + rows)
    ours, ref = np.random.default_rng(91), np.random.default_rng(91)
    instances = [
        (data.integers(0, p, size=(rows, cols), dtype=np.int64), data.integers(0, p, size=cols, dtype=np.int64))
        for _ in range(3)
    ]
    instances.append((np.full((rows, cols), p - 1, dtype=np.int64), np.full(cols, p - 1, dtype=np.int64)))
    accepted = rejected = 0
    for m_vals, v_vals in instances:
        truth = matvec_values(m_vals, v_vals, p)
        for w in _claimed_products(truth, p, data):
            got = verify_product(led, f, truth, w, cfg, draw_challenges(cfg, p, rows, ours))
            want = verify_three_products(f, m_vals, v_vals, w, cfg, ref)
            assert got is want
            assert ours.bit_generator.state == ref.bit_generator.state
            accepted += got
            rejected += not got
    assert accepted >= len(instances) and rejected > 0
