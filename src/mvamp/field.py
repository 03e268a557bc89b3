"""Prime moduli.

A PrimeField is a checked prime modulus p. Values over it live in int64
arrays of canonical least nonnegative residues (see linalg).
"""

from __future__ import annotations

import numpy as np

# Supported moduli are the primes below this bound.
MAX_MODULUS = 2**31

# Miller-Rabin with every base of a row is exact for all n below the row's
# bound (Jaeschke 1993; Sorenson and Webster 2015).
_MILLER_RABIN_BASES = (
    (3_215_031_751, (2, 3, 5, 7)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below about 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    bases = next((b for bound, b in _MILLER_RABIN_BASES if n < bound), None)
    if bases is None:
        raise ValueError(f"{n} is beyond the deterministic primality range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(modulus) -> int:
    """Return modulus as an int if it is a supported prime; raise otherwise.

    TypeError for a non-integer, ValueError for a value out of range or
    not prime.
    """
    if not isinstance(modulus, (int, np.integer)):
        raise TypeError(f"modulus must be an int, got {type(modulus).__name__}")
    modulus = int(modulus)
    if modulus >= MAX_MODULUS:
        raise ValueError(f"modulus {modulus} is not below the supported bound {MAX_MODULUS}")
    if not is_prime(modulus):
        raise ValueError(f"modulus {modulus} is not prime")
    return modulus


class PrimeField:
    """The field F_p for a prime modulus p, checked at construction."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        self.modulus = check_modulus(modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"
