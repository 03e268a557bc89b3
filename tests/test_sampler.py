"""Direct-product query graphs and dense-set sampling checks.

Tuple embedding and the conditional hit rates all have small enough
domains here to compare against plain nested-loop references.
"""

import math

import numpy as np
import pytest

from mvamp import reduction
from mvamp.field import PrimeField
from mvamp.sampler import (
    QueryGraph,
    check_exhaustive,
    check_sampler,
    conditional_hit_rate_exact,
    density_exact,
    lemma_condition,
    pseudorandom_set,
    theorem_condition,
    violation_fraction_exact,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def graph(p, dim, k):
    return QueryGraph(PrimeField(p), dim, k)


def from_indices(indices):
    """The indicator of the set of the given tuple indices."""
    members = np.asarray(list(indices), dtype=np.int64)
    return lambda idx: np.isin(idx, members)


def components_reference(index, s, k):
    # slot 0 is the least significant digit
    out = []
    for _ in range(k):
        out.append(index % s)
        index //= s
    return tuple(out)


def test_base_domain_size_and_validation():
    # the base domain F_p^dim has x_size = p^dim instances
    assert QueryGraph(F2, 3, 1).x_size == 8
    assert QueryGraph(F3, 2, 2).x_size == 9
    with pytest.raises(ValueError, match="dimension must be positive"):
        QueryGraph(F2, 0, 1)


def test_query_graph_sizes_and_bounds():
    g = graph(2, 1, 3)
    assert g.x_size == 2 and g.y_size == 8
    with pytest.raises(ValueError):
        graph(2, 1, 63)  # 2^63 tuples exceeds the supported domain


def test_embed_indices_places_x_and_keeps_co_tuple():
    g = graph(2, 1, 3)
    s = 2
    for x in range(g.x_size):
        for slot in range(3):
            co = np.arange(s ** 2)
            embedded = g.embed_indices(x, slot, co)
            for ci, full in zip(co, embedded):
                comps = list(components_reference(int(full), s, 3))
                assert comps[slot] == x
                rest = comps[:slot] + comps[slot + 1 :]
                assert tuple(rest) == components_reference(int(ci), s, 2)
        # an array of slots, one per co-tuple, embeds each as its own slot would
        slots = np.array([2, 0, 1, 0])
        mixed = g.embed_indices(x, slots, np.arange(s**2))
        for ci, (slot, full) in enumerate(zip(slots, mixed)):
            assert full == g.embed_indices(x, int(slot), np.array([ci]))[0]
    # at 2^62 tuples the slot array's int64 powers stay exact
    big = graph(2, 1, 62)
    slots, co = np.array([61, 0, 30]), np.array([2**61 - 1, 2**61 - 1, 12345])
    for slot, ci, full in zip(slots, co, big.embed_indices(1, slots, co)):
        assert full == big.embed_indices(1, int(slot), np.array([ci]))[0]


def test_plant_wave_reaches_the_tuples_embed_indices_reaches():
    # p = 2, d = 1, n = k = 3: a planted row over F_2^3 is one base-8 digit, so
    # a planted instance is a tuple of QueryGraph(F_2, 3, 3), row 0 least significant
    k = 3
    g = QueryGraph(F2, k, k)
    rows = (np.arange(8)[:, None] >> np.arange(k)) & 1  # digit -> its row
    x, co = np.divmod(np.arange(8 * 64), 64)  # request j plants x[j] with co-tuple co[j]
    co_digits = co[:, None] // 8 ** np.arange(k - 1) % 8  # co-strip t - 1 is digit t - 1
    for slot in range(k):
        instances, _ = reduction._plant_wave(
            rows[x][:, None, :], np.zeros((x.size, k), dtype=np.int64), np.full(x.size, slot), rows[co_digits], 2
        )
        planted = (instances * 2 ** np.arange(k)).sum(axis=2) @ 8 ** np.arange(k)
        embedded = np.concatenate([g.embed_indices(xi, slot, np.arange(64)) for xi in range(8)])
        for xi in range(8):
            # both reach every tuple with xi at the slot, once per co-tuple
            expect = {y for y in range(g.y_size) if y // 8**slot % 8 == xi}
            assert set(planted[x == xi]) == set(embedded[x == xi]) == expect
        # the draw layouts differ at slot 2: _plant_wave moves the co-strip it
        # displaces to row 0, giving digits (c2, c1, x) where embed_indices gives (c1, c2, x)
        assert np.array_equal(planted, embedded) == (slot < 2)


def test_components_frozen_example():
    g = graph(2, 1, 3)
    # 6 = 0*1 + 1*2 + 1*4, slot 0 least significant
    assert components_reference(6, 2, 3) == (0, 1, 1)
    # x = 1 at slot 1 with co-tuple (0, 1), packed as co index 2, is 6
    assert g.embed_indices(1, 1, np.array([2]))[0] == 6


def test_pseudorandom_set_refuses_a_density_outside_the_rule():
    for density in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="density must lie in"):
            pseudorandom_set(density, seed=0)
    # density 1 is the whole tuple domain
    assert pseudorandom_set(1.0, seed=0)(np.arange(64, dtype=np.int64)).all()


def test_dense_set_from_indices_membership():
    g = graph(2, 1, 3)
    d = from_indices([0, 3, 5])
    for idx in range(8):
        assert d(np.array([idx]))[0] == (idx in {0, 3, 5})
    assert density_exact(g, d) == pytest.approx(3 / 8)


def test_pseudorandom_set_is_deterministic():
    a = pseudorandom_set(0.3, seed=5)
    b = pseudorandom_set(0.3, seed=5)
    idx = np.arange(4096, dtype=np.uint64)
    assert np.array_equal(a(idx), b(idx))
    c = pseudorandom_set(0.3, seed=6)
    assert not np.array_equal(a(idx), c(idx))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_pseudorandom_set_refuses_a_seed_outside_64_unsigned_bits(seed):
    # the key was seed mod 2^64: -1 gave 2^64 - 1's set and 2^64 + 5 gave 5's
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        pseudorandom_set(0.3, seed)


def test_pseudorandom_set_hits_target_density():
    d = pseudorandom_set(0.3, seed=9)
    idx = np.arange(2**16, dtype=np.uint64)
    realized = d(idx).mean()
    # 4 sigma of Bernoulli(0.3) over 65536 draws is about 0.0072
    assert abs(realized - 0.3) < 0.008


def test_conditional_hit_rate_matches_reference():
    g = graph(2, 1, 3)
    d = from_indices([1, 2, 4, 7])
    s, k = 2, 3
    for x in range(2):
        hits, total = 0, 0
        for slot in range(k):
            for co in range(s ** (k - 1)):
                full = int(g.embed_indices(x, slot, np.array([co]))[0])
                hits += d(np.array([full]))[0]
                total += 1
        assert conditional_hit_rate_exact(g, d, x) == pytest.approx(hits / total)


def test_violation_fraction_matches_reference():
    g = graph(2, 1, 3)
    d = from_indices([1, 2, 4, 7])
    c = 0.5
    frac, dens = violation_fraction_exact(g, d, c)
    assert dens == pytest.approx(0.5)
    threshold = (1 - c) * dens
    expect = np.mean(
        [conditional_hit_rate_exact(g, d, x) < threshold for x in range(2)]
    )
    assert frac == pytest.approx(expect)


def test_violation_fraction_full_set_is_zero():
    g = graph(3, 1, 2)
    d = from_indices(list(range(9)))
    frac, dens = violation_fraction_exact(g, d, 0.5)
    assert dens == 1.0
    assert frac == 0.0


@pytest.mark.parametrize("k, message", [(4, "tuple domain of size 16"), (3, "co-tuple domain")])
def test_violation_fraction_exact_refuses_past_either_bound_before_enumerating(k, message, monkeypatch):
    # at a bound of 8: 16 tuples fail the tuple bound; 8 tuples pass it, but 4
    # co-tuples times 3 copies fail the co-tuple bound, which conditional_hit_rate_exact
    # only checked after density_exact had enumerated every tuple
    monkeypatch.setattr("mvamp.sampler.MAX_EXHAUSTIVE_TUPLES", 8)
    g = graph(2, 1, k)
    calls = []
    d = lambda idx: calls.append(len(idx)) or np.ones(len(idx), dtype=bool)
    with pytest.raises(ValueError, match=message):
        check_exhaustive(g)
    with pytest.raises(ValueError, match=message):
        violation_fraction_exact(g, d, 0.5)
    assert calls == []
    check_exhaustive(graph(2, 1, 2))  # 4 tuples, 2 co-tuples times 2 copies


def test_violation_fraction_hand_computed_case():
    # the singleton {(1,1)} over F_2, k=2: density 1/4. For x=1 both slots
    # can still reach the set (rate 1/2); for x=0 it is unreachable
    g = graph(2, 1, 2)
    d = from_indices([3])
    frac, dens = violation_fraction_exact(g, d, 0.5)
    assert dens == pytest.approx(0.25)
    assert conditional_hit_rate_exact(g, d, 1) == pytest.approx(0.5)
    assert conditional_hit_rate_exact(g, d, 0) == 0.0
    assert frac == pytest.approx(0.5)  # only x=0 falls below (1-c) * density


def test_check_sampler_exact_tiny_graph():
    g = graph(2, 1, 3)
    d = from_indices([0, 3, 5, 6])
    rng = np.random.default_rng(3)
    violation, density = check_sampler(g, d, c=0.5, x_samples=64, y_samples_per_x=200, rng=rng)
    # tiny domain: the density is exact. The even-weight set: every x hits it
    # at rate 1/2, above the threshold 1/4
    assert (violation, density) == violation_fraction_exact(g, d, 0.5) == (0.0, 0.5)


def test_check_sampler_flags_adversarial_set():
    # the singleton (1,1,1): any x = 0 has conditional rate 0, so about
    # half the x draws are violations and delta = 0.3 must fail
    g = graph(2, 1, 3)
    d = from_indices([7])
    rng = np.random.default_rng(4)
    violation, _ = check_sampler(g, d, c=0.2, x_samples=200, y_samples_per_x=100, rng=rng)
    assert violation > 0.3


def test_check_sampler_parameter_validation():
    g = graph(2, 1, 2)
    d = from_indices([0])
    rng = np.random.default_rng(0)
    # both sampler checks refuse the same c
    for c in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match=r"c must lie in \(0, 1\)"):
            check_sampler(g, d, c=c, x_samples=5, y_samples_per_x=5, rng=rng)
        with pytest.raises(ValueError, match=r"c must lie in \(0, 1\)"):
            violation_fraction_exact(g, d, c)
    with pytest.raises(ValueError, match="sample counts must be positive"):
        check_sampler(g, d, c=0.5, x_samples=0, y_samples_per_x=5, rng=rng)


def test_lemma_condition_matches_formula():
    for k in (8, 16, 64):
        for c, delta, eps in ((0.95, 0.99, 0.9), (0.9, 0.95, 0.5), (0.5, 0.6, 0.1)):
            expect = 2.0 * math.exp(-k * c * c * delta / 8.0) <= c * eps
            assert lemma_condition(k, c, delta, eps) == expect, (k, c, delta, eps)


def test_theorem_condition_matches_formula():
    for k in (8, 16, 64, 256):
        for delta, eps in ((0.99, 0.9), (0.95, 0.5), (0.6, 0.1)):
            expect = eps >= 4.0 * math.exp(-delta * k / 32.0)
            assert theorem_condition(k, delta, eps) == expect, (k, delta, eps)


def test_condition_corner_cases():
    # the two parameter corners used in the acceptance battery
    assert lemma_condition(8, 0.95, 0.99, 0.9)
    assert lemma_condition(16, 0.9, 0.95, 0.5)
    # eps = 0 can never be met
    assert not lemma_condition(8, 0.5, 0.9, 0.0)
    assert not theorem_condition(8, 0.9, 0.0)
