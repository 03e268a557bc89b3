"""Dense matrices and vectors over a prime field.

Entries are stored row-major as int64 canonical residues. Indexing is
0-based everywhere. Shapes are validated eagerly so downstream oracle
compositions can assume well-formed operands.
"""

from __future__ import annotations

import numpy as np

from .field import MAX_MODULUS, PrimeField


def _canonical_values(field: PrimeField, values, expect_ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != expect_ndim:
        raise ValueError(f"expected {expect_ndim}-dimensional values, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= field.modulus):
        raise ValueError(f"entries out of range for modulus {field.modulus}")
    return arr.copy()


class FpVector:
    """A fixed-length vector of field residues."""

    __slots__ = ("field", "values")

    def __init__(self, field: PrimeField, values):
        self.field = field
        self.values = _canonical_values(field, values, 1)

    @classmethod
    def _trusted(cls, field: PrimeField, values: np.ndarray) -> "FpVector":
        # internal fast path: caller guarantees int64 residues it owns
        self = cls.__new__(cls)
        self.field = field
        self.values = values
        return self

    @property
    def length(self) -> int:
        return self.values.shape[0]

    def to_list(self) -> list[int]:
        return [int(x) for x in self.values]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpVector)
            and other.field == self.field
            and other.length == self.length
            and bool(np.array_equal(other.values, self.values))
        )

    def __hash__(self):
        return hash((self.field.modulus, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"FpVector(mod {self.field.modulus}, {self.to_list()})"


class FpMatrix:
    """A dense rows-by-cols matrix of field residues."""

    __slots__ = ("field", "values")

    def __init__(self, field: PrimeField, values):
        self.field = field
        self.values = _canonical_values(field, values, 2)
        if self.values.shape[0] == 0 or self.values.shape[1] == 0:
            raise ValueError("matrix dimensions must be positive")

    @classmethod
    def _trusted(cls, field: PrimeField, values: np.ndarray) -> "FpMatrix":
        # internal fast path: caller guarantees int64 residues it owns
        self = cls.__new__(cls)
        self.field = field
        self.values = values
        return self

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and other.field == self.field
            and other.values.shape == self.values.shape
            and bool(np.array_equal(other.values, self.values))
        )

    def __hash__(self):
        return hash((self.field.modulus, self.values.shape, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(mod {self.field.modulus}, shape {self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# arithmetic on raw value arrays
# ---------------------------------------------------------------------------

# One exact (a @ b) mod p in int64, three ways: a direct matmul while
# terms * (p-1)^2 < 2^63; past that, the right operand split into 16-bit limbs,
# one matmul per limb, recombined as (hi * 2^16 + lo) mod p (the delayed
# reduction of FFLAS-FFPACK, Dumas, Giorgi and Pernet 2008); and sums longer
# than 2^16 terms taken in chunks of 2^16 whose limb products add mod p.
_INT64_LIMIT = 2**63
# a residue times a limb is below 2^(_RESIDUE_BITS + _LIMB_BITS): _CHUNK of them sum below 2^63
_RESIDUE_BITS = (MAX_MODULUS - 1).bit_length()
_LIMB_BITS = (_RESIDUE_BITS + 1) // 2
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_CHUNK = _INT64_LIMIT >> (_RESIDUE_BITS + _LIMB_BITS)


def _limb_product(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    hi = (a @ (b >> _LIMB_BITS)) % modulus
    lo = (a @ (b & _LIMB_MASK)) % modulus
    return ((hi << _LIMB_BITS) + lo) % modulus


def _product_values(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact (a @ b) mod p on int64 residues, for any shapes matmul accepts."""
    terms = a.shape[-1]
    if terms * (modulus - 1) ** 2 < _INT64_LIMIT:
        return (a @ b) % modulus
    if terms <= _CHUNK:
        return _limb_product(a, b, modulus)
    total = 0
    for s in range(0, terms, _CHUNK):
        total += _limb_product(a[..., s : s + _CHUNK], b[s : s + _CHUNK], modulus)
    return total % modulus


def matvec_values(m_vals: np.ndarray, v_vals: np.ndarray, modulus: int) -> np.ndarray:
    """Exact (M @ v) mod p on raw int64 arrays; M may be a stack of rows."""
    return _product_values(m_vals, v_vals, modulus)


def vecmat_values(r_vals: np.ndarray, m_vals: np.ndarray, modulus: int) -> np.ndarray:
    """Exact (r @ M) mod p on raw int64 arrays; r may be a stack of rows."""
    return _product_values(r_vals, m_vals, modulus)


def dot_values(a_vals: np.ndarray, b_vals: np.ndarray, modulus: int) -> int:
    """Exact (a . b) mod p on raw int64 arrays."""
    return int(_product_values(a_vals, b_vals, modulus))


def matvec(matrix: FpMatrix, vector: FpVector) -> FpVector:
    """Compute the product M v over the common field."""
    if matrix.field != vector.field:
        raise ValueError("field mismatch between matrix and vector")
    if matrix.cols != vector.length:
        raise ValueError(
            f"dimension mismatch: matrix is {matrix.rows}x{matrix.cols}, "
            f"vector has length {vector.length}"
        )
    return FpVector(matrix.field, matvec_values(matrix.values, vector.values, matrix.field.modulus))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# rng.integers(0, p, dtype=int64) draws fresh canonical residues, so the
# samplers skip the range scan and copy of the validating constructors.


def random_matrix(rows: int, cols: int, field: PrimeField, rng: np.random.Generator) -> FpMatrix:
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return FpMatrix._trusted(field, rng.integers(0, field.modulus, size=(rows, cols), dtype=np.int64))


def random_vector(n: int, field: PrimeField, rng: np.random.Generator) -> FpVector:
    if n <= 0:
        raise ValueError(f"vector length must be positive, got {n}")
    return FpVector._trusted(field, rng.integers(0, field.modulus, size=n, dtype=np.int64))


# ---------------------------------------------------------------------------
# exhaustive enumeration (small domains only)
# ---------------------------------------------------------------------------


def count_vectors(field: PrimeField, n: int) -> int:
    return field.modulus**n


def count_matrices(field: PrimeField, rows: int, cols: int) -> int:
    return field.modulus ** (rows * cols)


def vector_by_index(field: PrimeField, n: int, index: int) -> FpVector:
    """Decode the index-th vector in lexicographic order (entry 0 most significant)."""
    p = field.modulus
    if not 0 <= index < p**n:
        raise IndexError(f"vector index {index} out of range")
    vals = np.empty(n, dtype=np.int64)
    for t in range(n - 1, -1, -1):
        vals[t] = index % p
        index //= p
    return FpVector._trusted(field, vals)


def matrix_by_index(field: PrimeField, rows: int, cols: int, index: int) -> FpMatrix:
    """Decode the index-th rows-by-cols matrix in row-major lexicographic order."""
    if not 0 <= index < field.modulus ** (rows * cols):
        raise IndexError(f"matrix index {index} out of range")
    return FpMatrix._trusted(field, vector_by_index(field, rows * cols, index).values.reshape(rows, cols))


def enumerate_vectors(field: PrimeField, n: int):
    for idx in range(count_vectors(field, n)):
        yield vector_by_index(field, n, idx)


def enumerate_matrices(field: PrimeField, rows: int, cols: int):
    for idx in range(count_matrices(field, rows, cols)):
        yield matrix_by_index(field, rows, cols, idx)
