"""Prime moduli: primality testing, the modulus check and PrimeField equality."""

import numpy as np
import pytest

from mvamp.field import MAX_MODULUS, PrimeField, is_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def reference_is_prime(n):
    # independent oracle: plain trial division
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_reference_up_to_500():
    for n in range(-3, 500):
        assert is_prime(n) == reference_is_prime(n), n


def _sieve(limit):
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for f in range(2, int(limit**0.5) + 1):
        if flags[f]:
            flags[f * f :: f] = False
    return flags


def test_is_prime_matches_trial_division_below_1e5_and_near_2_31():
    limit = 10**5
    flags = _sieve(limit)
    for n in range(limit):
        assert is_prime(n) == bool(flags[n]), n
    # near 2^31 the reference divides by every prime up to sqrt(n)
    small = np.flatnonzero(_sieve(50000))
    rng = np.random.default_rng(31)
    sample = list(range(2**31 - 400, 2**31 + 100)) + [int(x) for x in rng.integers(2**30, 2**31, size=300)]
    for n in sample:
        want = all(n % f for f in small if f * f <= n)
        assert is_prime(n) == want, n


def test_is_prime_rejects_strong_pseudoprimes():
    # the smallest strong pseudoprimes to bases {2}, {2,3}, {2,3,5}, {2,3,5,7}
    for n in (2047, 1373653, 25326001, 3215031751):
        assert not is_prime(n), n
    assert is_prime(3215031767)  # the first prime past the 4-base bound


def test_prime_field_accepts_small_primes():
    for p in SMALL_PRIMES:
        assert PrimeField(p).modulus == p


def test_prime_field_rejects_composites_and_small_values():
    for bad in (-5, 0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_prime_field_rejects_non_int_modulus():
    for bad in (5.0, "5", None):
        with pytest.raises(TypeError):
            PrimeField(bad)


def test_prime_field_modulus_bound():
    # 2**31 - 1 is prime and inside the supported range
    assert PrimeField(2**31 - 1).modulus == 2**31 - 1
    # 2**31 + 11 is prime but exceeds the bound
    assert is_prime(2**31 + 11)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)
    assert MAX_MODULUS == 2**31
    with pytest.raises(ValueError):
        PrimeField(MAX_MODULUS)


def test_experiment_config_shares_the_field_modulus_check():
    from mvamp.harness import ConfigError, experiment_config_from_values

    base = {"n": 2, "trials": 1, "alpha": 0.5}
    assert experiment_config_from_values({**base, "modulus": 2**31 - 1}).modulus == 2**31 - 1
    for bad in (2**31, 2**31 + 11, 10**30, 6, 1):
        with pytest.raises(ConfigError, match="'modulus'"):
            experiment_config_from_values({**base, "modulus": bad})


def test_field_equality_and_hash_by_modulus():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert len({PrimeField(5), PrimeField(5), PrimeField(7)}) == 2
