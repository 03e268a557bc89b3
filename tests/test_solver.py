"""Probabilistic solver models and their success accounting."""

import numpy as np
import pytest

from mvamp.field import PrimeField
from mvamp.linalg import (
    enumerate_matrices,
    enumerate_vectors,
    matvec,
    matvec_values,
    random_matrix,
    random_vector,
)
from mvamp.oracle import SOURCE_ALG, SOURCE_MATRIX, SOURCE_VECTOR, QueryLedger
from mvamp.solver import (
    FAILURE_MODES,
    GoodBadProfile,
    NoisySolver,
    PlantedAdversarialProfile,
    UniformProfile,
    exact_average_success,
    invoke,
)

F5 = PrimeField(5)


def make_instance(n=3, seed=0, field=F5):
    rng = np.random.default_rng(seed)
    return random_matrix(n, n, field, rng), random_vector(n, field, rng)


def make_arrays(n=3, seed=0, field=F5):
    """make_instance's draw as the (m_vals, v_vals, modulus) a profile takes."""
    m, v = make_instance(n, seed, field)
    return m.values, v.values, field.modulus


def call(solver, led, m, v, rng):
    """invoke on an FpMatrix/FpVector pair, with its product as the ground truth."""
    truth = matvec_values(m.values, v.values, m.field.modulus)
    return invoke(solver, led, m.field, m.values, v.values, truth, rng.random(), rng)


def test_uniform_profile_constant():
    prof = UniformProfile(0.3)
    assert prof.success_probability(*make_arrays()) == 0.3
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError):
            UniformProfile(bad)


def test_goodbad_profile_splits_on_predicate():
    prof = GoodBadProfile(lambda m, v, p: int(v[0]) == 0, alpha_good=0.9, alpha_bad=0.1)
    m, _, p = make_arrays()
    assert prof.success_probability(m, np.array([0, 1, 2]), p) == 0.9
    assert prof.success_probability(m, np.array([1, 1, 2]), p) == 0.1


def test_planted_profile_is_deterministic():
    a = PlantedAdversarialProfile(average=0.25, bad_fraction=0.5, seed=7)
    b = PlantedAdversarialProfile(average=0.25, bad_fraction=0.5, seed=7)
    inst = make_arrays()
    assert a.is_bad(*inst) == b.is_bad(*inst)
    assert a.success_probability(*inst) == b.success_probability(*inst)


def test_planted_profile_success_levels():
    prof = PlantedAdversarialProfile(average=0.25, bad_fraction=0.5, seed=3)
    # off the bad set the rate is average / (1 - bad_fraction); on it, zero
    hits = {True: 0, False: 0}
    for seed in range(200):
        inst = make_arrays(seed=seed)
        p = prof.success_probability(*inst)
        if prof.is_bad(*inst):
            assert p == 0.0
            hits[True] += 1
        else:
            assert p == pytest.approx(0.5)
            hits[False] += 1
    # bad_fraction 0.5 over 200 draws: both sides seen (P[miss] ~ 2^-200)
    assert hits[True] > 0 and hits[False] > 0
    # binomial(200, .5): 4 sigma is ~28, allow a wide band
    assert 60 <= hits[True] <= 140


def test_planted_profile_seed_changes_bad_set():
    a = PlantedAdversarialProfile(average=0.25, bad_fraction=0.5, seed=0)
    b = PlantedAdversarialProfile(average=0.25, bad_fraction=0.5, seed=1)
    differs = False
    for seed in range(50):
        inst = make_arrays(seed=seed)
        if a.is_bad(*inst) != b.is_bad(*inst):
            differs = True
            break
    assert differs


def test_planted_profile_validates_average():
    with pytest.raises(ValueError):
        PlantedAdversarialProfile(average=0.6, bad_fraction=0.5)
    PlantedAdversarialProfile(average=0.5, bad_fraction=0.5)  # boundary allowed


def test_exact_average_success_uniform():
    assert exact_average_success(UniformProfile(0.3), 2, PrimeField(2)) == pytest.approx(0.3)


def test_exact_average_success_goodbad_closed_form():
    # predicate "first vector entry is 0" holds for exactly 1/p of inputs
    for p in (2, 3):
        f = PrimeField(p)
        prof = GoodBadProfile(lambda m, v, mod: int(v[0]) == 0, alpha_good=1.0, alpha_bad=0.0)
        expect = 1.0 / p
        assert exact_average_success(prof, 2, f) == pytest.approx(expect)


def test_exact_average_success_planted_matches_manual_enumeration():
    f = PrimeField(2)
    prof = PlantedAdversarialProfile(average=0.25, bad_fraction=0.5, seed=11)
    total, count = 0.0, 0
    for m in enumerate_matrices(f, 2, 2):
        for v in enumerate_vectors(f, 2):
            total += prof.success_probability(m.values, v.values, 2)
            count += 1
    assert exact_average_success(prof, 2, f) == pytest.approx(total / count)


def test_planted_bad_set_is_pinned_over_f2():
    # bit i is set iff the i-th (M, v) pair, matrix-major in enumeration
    # order, is bad: pins the digest's bytes (seed, modulus, shapes, then the
    # entries as little-endian u8) that the criterion-8 goldens rest on
    f = PrimeField(2)
    prof = PlantedAdversarialProfile(average=0.25, bad_fraction=0.5, seed=11)
    mask, i = 0, 0
    for m in enumerate_matrices(f, 2, 2):
        for v in enumerate_vectors(f, 2):
            mask |= prof.is_bad(m.values, v.values, 2) << i
            i += 1
    assert i == 64
    assert mask == 0xF901BC030E9270BC


def test_invoke_perfect_solver_returns_truth_and_charges():
    led = QueryLedger()
    m, v = make_instance(n=3)
    solver = NoisySolver(UniformProfile(1.0))
    out = call(solver, led, m, v, np.random.default_rng(0))
    assert np.array_equal(out, matvec(m, v).values)
    assert led.get(SOURCE_ALG) == 1
    assert led.get(SOURCE_MATRIX) == 9  # default budget is n^2
    assert led.get(SOURCE_VECTOR) == 3


def test_invoke_queries_per_call_override():
    led = QueryLedger()
    m, v = make_instance(n=3)
    solver = NoisySolver(UniformProfile(1.0), queries_per_call=5)
    call(solver, led, m, v, np.random.default_rng(0))
    assert led.get(SOURCE_MATRIX) == 5
    assert led.get(SOURCE_VECTOR) == 3


def test_invoke_zero_solver_never_correct():
    led = QueryLedger()
    m, v = make_instance(n=2)
    truth = matvec(m, v)
    solver = NoisySolver(UniformProfile(0.0))
    rng = np.random.default_rng(1)
    for _ in range(50):
        out = call(solver, led, m, v, rng)
        assert not np.array_equal(out, truth.values)


def test_invoke_perturb_mode_differs_in_one_coordinate():
    led = QueryLedger()
    m, v = make_instance(n=4)
    truth = matvec(m, v)
    solver = NoisySolver(UniformProfile(0.0), failure_mode="perturb")
    rng = np.random.default_rng(2)
    for _ in range(50):
        out = call(solver, led, m, v, rng)
        diffs = int(np.count_nonzero(out != truth.values))
        assert diffs == 1


@pytest.mark.parametrize("profile", [
    UniformProfile(0.5),
    GoodBadProfile(lambda m, v, p: True, alpha_good=0.5, alpha_bad=0.0),
    PlantedAdversarialProfile(average=0.5, bad_fraction=0.25, seed=0),
])
def test_invoke_returns_the_truth_object_itself_on_success(profile):
    # verify_product accepts its mv argument without a residual when the
    # product is that very array, so a successful call must hand it back
    m, v = make_instance(n=3)
    if isinstance(profile, PlantedAdversarialProfile):
        assert not profile.is_bad(m.values, v.values, 5)
    truth = matvec_values(m.values, v.values, 5)
    # a coin of 0.0 is beaten by every positive success probability
    out = invoke(NoisySolver(profile), QueryLedger(), F5, m.values, v.values, truth, 0.0, np.random.default_rng(0))
    assert out is truth


@pytest.mark.parametrize("failure_mode", FAILURE_MODES)
def test_invoke_failure_is_a_new_array_never_equal_to_the_truth(failure_mode):
    # the other half of that contract: a wrong output is never the truth
    # object, nor a view of it, nor equal to it
    m, v = make_instance(n=3)
    truth = matvec_values(m.values, v.values, 5)
    kept = truth.copy()
    solver = NoisySolver(UniformProfile(1.0), failure_mode=failure_mode)
    rng = np.random.default_rng(4)
    for _ in range(50):
        # a coin of 1.0 is beaten by no profile, so the call fails
        out = invoke(solver, QueryLedger(), F5, m.values, v.values, truth, 1.0, rng)
        assert out is not truth and not np.shares_memory(out, truth)
        assert not np.array_equal(out, truth)
    assert np.array_equal(truth, kept)


class RedrawStub:
    """invoke's wrong-output Generator: the integers draws given."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def integers(self, low, high, size, dtype):
        assert (low, size, dtype) == (0, len(self.draws[0]), np.int64)
        return np.array(self.draws.pop(0), dtype=np.int64)


@pytest.mark.parametrize("p, truth, other", [(2, [1], [0]), (5, [4, 0, 2], [4, 0, 3])])
def test_invoke_redraws_a_uniform_wrong_output_equal_to_the_truth(p, truth, other):
    # the first draw is the truth, so the rejection test must send it back
    # for a second one, which differs and is returned as it is
    n, field = len(truth), PrimeField(p)
    m_vals, v_vals = np.zeros((n, n), dtype=np.int64), np.zeros(n, dtype=np.int64)
    rng = RedrawStub(truth, other)
    # a coin of 1.0 is beaten by no profile, so the call fails
    out = invoke(NoisySolver(UniformProfile(0.0)), QueryLedger(), field, m_vals, v_vals, np.array(truth), 1.0, rng)
    assert out.tolist() == other and rng.draws == []


def test_invoke_rejects_bad_shapes():
    led = QueryLedger()
    solver = NoisySolver(UniformProfile(1.0))
    rng = np.random.default_rng(0)
    coin = rng.random()
    rect = np.array([[1, 2, 3], [4, 0, 1]], dtype=np.int64)
    vec3 = np.array([1, 2, 3], dtype=np.int64)
    vec2 = np.array([1, 1], dtype=np.int64)
    with pytest.raises(ValueError):
        invoke(solver, led, F5, rect, vec3, vec2, coin, rng)
    sq = np.array([[1, 2], [3, 4]], dtype=np.int64)
    with pytest.raises(ValueError):
        invoke(solver, led, F5, sq, vec3, vec2, coin, rng)
    column = np.array([[1], [2]], dtype=np.int64)
    with pytest.raises(ValueError):
        invoke(solver, led, F5, sq, column, vec2, coin, rng)
    # the ground truth must be the n-entry product of the instance
    with pytest.raises(ValueError):
        invoke(solver, led, F5, sq, vec2, vec3, coin, rng)
    with pytest.raises(ValueError):
        invoke(solver, led, F5, sq, vec2, column, coin, rng)
    # a rejected call charges nothing
    assert led.snapshot() == {}


def test_invoke_failure_mode_validated():
    with pytest.raises(ValueError):
        NoisySolver(UniformProfile(0.5), failure_mode="garble")
