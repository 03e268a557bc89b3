"""Dense vectors and matrices over a prime field.

Products are checked against plain-Python loops, exhaustively where the
instance count allows it.
"""

from math import isqrt

import numpy as np
import pytest

from mvamp.field import MAX_MODULUS, PrimeField, is_prime
from mvamp.linalg import (
    _CHUNK,
    _LIMB_BITS,
    _LIMB_MASK,
    FpMatrix,
    FpVector,
    count_matrices,
    count_vectors,
    dot_values,
    enumerate_matrices,
    enumerate_vectors,
    matrix_by_index,
    matvec,
    matvec_values,
    random_matrix,
    random_vector,
    vecmat_values,
    vector_by_index,
)
from mvamp.oracle import QueryLedger, pad_square_matrix, pad_vector, wrap_matrix, wrap_vector


def matvec_reference(rows, vec, p):
    # independent oracle: schoolbook loops over Python ints
    return [sum(r[j] * vec[j] for j in range(len(vec))) % p for r in rows]


def test_vector_construction_and_views():
    f = PrimeField(5)
    v = FpVector(f, [0, 1, 4])
    assert v.length == 3
    assert v.to_list() == [0, 1, 4]
    assert v.values[2] == 4
    assert v.field == f


def test_vector_rejects_out_of_range_entries():
    f = PrimeField(5)
    with pytest.raises(ValueError):
        FpVector(f, [5, 0])
    with pytest.raises(ValueError):
        FpVector(f, [-1, 0])


def test_vector_add_sub_eq_hash_exhaustive_p3():
    f = PrimeField(3)
    for a in enumerate_vectors(f, 2):
        for b in enumerate_vectors(f, 2):
            assert (a == b) == (a.to_list() == b.to_list())
            if a == b:
                assert hash(a) == hash(b)


def test_matrix_construction_and_entry():
    f = PrimeField(7)
    m = FpMatrix(f, [[1, 2, 3], [4, 5, 6]])
    assert m.rows == 2 and m.cols == 3
    assert m.values[1, 2] == 6
    assert m.values.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_matrix_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        FpMatrix(PrimeField(3), [[0, 3]])


def test_matvec_exhaustive_p2_and_p3():
    # every (matrix, vector) pair at 2x2 over F_2 and F_3
    for p in (2, 3):
        f = PrimeField(p)
        for m in enumerate_matrices(f, 2, 2):
            for v in enumerate_vectors(f, 2):
                got = matvec(m, v).to_list()
                assert got == matvec_reference(m.values.tolist(), v.to_list(), p)


def test_matvec_rectangular():
    f = PrimeField(7)
    rng = np.random.default_rng(3)
    for rows, cols in ((1, 4), (3, 2), (5, 5)):
        m = random_matrix(rows, cols, f, rng)
        v = random_vector(cols, f, rng)
        assert matvec(m, v).to_list() == matvec_reference(m.values.tolist(), v.to_list(), 7)


def test_matvec_dimension_mismatch():
    f = PrimeField(5)
    m = FpMatrix(f, [[1, 2]])
    with pytest.raises(ValueError):
        matvec(m, FpVector(f, [1]))
    with pytest.raises(ValueError):
        matvec(m, FpVector(PrimeField(7), [1, 2]))


def test_value_kernels_match_reference():
    p = 11
    rng = np.random.default_rng(9)
    m = rng.integers(0, p, size=(4, 3))
    v = rng.integers(0, p, size=3)
    r = rng.integers(0, p, size=4)
    assert list(matvec_values(m, v, p)) == matvec_reference([list(row) for row in m], list(v), p)
    expect_rm = [sum(int(r[i]) * int(m[i][j]) for i in range(4)) % p for j in range(3)]
    assert list(vecmat_values(r, m, p)) == expect_rm
    a = rng.integers(0, p, size=6)
    b = rng.integers(0, p, size=6)
    assert dot_values(a, b, p) == sum(int(x) * int(y) for x, y in zip(a, b)) % p


def test_large_modulus_products_are_exact():
    # entries next to p: 2 terms still fit int64 here, so this checks the int64
    # path at its edge; test_value_kernels_match_python_int_reference crosses it
    p = 2**31 - 1
    f = PrimeField(p)
    m = FpMatrix(f, [[p - 1, p - 2], [p - 3, p - 4]])
    v = FpVector(f, [p - 1, p - 5])
    got = matvec(m, v).to_list()
    assert got == matvec_reference(m.values.tolist(), v.to_list(), p)


@pytest.mark.parametrize("p", [2, 3, 65521, 2**31 - 1])
def test_value_kernels_match_python_int_reference(p):
    # int64 sums stay exact while terms * (p-1)^2 < 2^63: for every shape
    # here up to p = 65521, but for at most 2 terms at p = 2^31 - 1, so there
    # these shapes run on both sides of the bound
    rng = np.random.default_rng(p)
    for rows, cols in ((1, 1), (2, 3), (5, 4), (16, 16)):
        for fill in ("random", "max"):

            def draw(*shape):
                if fill == "random":
                    return rng.integers(0, p, size=shape)
                return np.full(shape, p - 1, dtype=np.int64)

            m, v, r = draw(rows, cols), draw(cols), draw(rows)
            stack = draw(3, rows)  # the verifier's (rounds, rows) challenge batch
            ml, vl, rl, sl = m.tolist(), v.tolist(), r.tolist(), stack.tolist()
            cols_of_m = [list(col) for col in zip(*ml)]
            assert matvec_values(m, v, p).tolist() == matvec_reference(ml, vl, p)
            assert vecmat_values(r, m, p).tolist() == matvec_reference(cols_of_m, rl, p)
            assert vecmat_values(stack, m, p).tolist() == [matvec_reference(cols_of_m, s, p) for s in sl]
            assert matvec_values(stack, r, p).tolist() == matvec_reference(sl, rl, p)
            assert dot_values(v, v, p) == matvec_reference([vl], vl, p)[0]
            assert matvec_values(m, v, p).dtype == vecmat_values(stack, m, p).dtype == np.int64


def product_reference(a, b, p):
    # schoolbook (a @ b) mod p over Python ints, for 1-D or 2-D operands
    rows = a.tolist() if a.ndim == 2 else [a.tolist()]
    cols = [list(c) for c in zip(*b.tolist())] if b.ndim == 2 else [b.tolist()]
    out = [[sum(x * y for x, y in zip(r, c)) % p for c in cols] for r in rows]
    if b.ndim == 1:
        out = [row[0] for row in out]
    return out if a.ndim == 2 else out[0]


def first_prime_past_direct_path(terms):
    """The smallest prime p whose sums of `terms` products leave int64."""
    q = isqrt(2**63 // terms)
    while not (is_prime(q) and terms * (q - 1) ** 2 >= 2**63):
        q += 1
    return q


P_CROSS = first_prime_past_direct_path(64)
LIMB_EDGES = (2**16 - 1, 2**16, 2**16 + 1)


@pytest.mark.parametrize(
    "path, p, terms",
    [
        ("direct", 65521, 64),
        ("direct", P_CROSS, 63),  # the last length that fits int64 at P_CROSS
        ("limb", P_CROSS, 64),
        ("limb", 2**31 - 1, 64),
        ("chunked", 2**31 - 1, 2**16 + 3),
    ],
)
def test_value_kernels_are_exact_on_each_product_path(path, p, terms):
    assert (terms * (p - 1) ** 2 < 2**63) == (path == "direct")
    assert (terms > _CHUNK) == (path == "chunked")
    edges = [e for e in LIMB_EDGES if e < p] + [p - 1]
    rng = np.random.default_rng(terms)
    # short sums run every output shape on random operands too; the chunked
    # sums, 2^16 + 3 terms long, keep the sizes the Python reference can afford
    rows, cols = (3, 4) if path != "chunked" else (2, 2)
    for fill in ("random", "max", "edges") if path != "chunked" else ("max", "edges"):

        def draw(*shape):
            if fill == "random":
                return rng.integers(0, p, size=shape)
            if fill == "max":
                return np.full(shape, p - 1, dtype=np.int64)
            return rng.choice(np.array(edges, dtype=np.int64), size=shape)

        a_1d, a_2d, b_1d, b_2d = draw(terms), draw(rows, terms), draw(terms), draw(terms, cols)
        cases = (
            (matvec_values, a_1d, b_1d, 0),
            (vecmat_values, a_1d, b_2d, 1),
            (matvec_values, a_2d, b_1d, 1),
            (vecmat_values, a_2d, b_2d, 2),
        )
        for kernel, a, b, ndim in cases:
            got = np.asarray(kernel(a, b, p))
            assert got.ndim == ndim and got.dtype == np.int64
            assert got.tolist() == product_reference(a, b, p)
        assert dot_values(a_1d, b_1d, p) == product_reference(a_1d, b_1d, p)


def test_limb_split_bound_covers_the_modulus_cap():
    # a chunk of residue-times-limb products stays below 2^63 for every
    # supported modulus, and a residue's high limb fits the limb width
    assert _CHUNK * (MAX_MODULUS - 1) * _LIMB_MASK < 2**63
    assert (MAX_MODULUS - 1) >> _LIMB_BITS <= _LIMB_MASK
    assert (_LIMB_BITS, _CHUNK) == (16, 2**16)


def test_pad_preserves_product_exhaustive_tiny():
    # the pipeline pads n up to a multiple of k: the padded product must
    # restrict to the original one and vanish on the padding
    f = PrimeField(2)
    led = QueryLedger()
    for m in enumerate_matrices(f, 3, 3):
        for v in enumerate_vectors(f, 3):
            pm = pad_square_matrix(wrap_matrix(m, led), 4).read_all()
            pv = pad_vector(wrap_vector(v, led), 4).read_all()
            assert pm.shape == (4, 4)
            product = matvec_values(pm, pv, 2)
            assert list(product[:3]) == matvec(m, v).to_list()
            assert product[3] == 0


def test_enumeration_counts_and_bijection():
    f = PrimeField(3)
    assert count_vectors(f, 2) == 9
    assert count_matrices(f, 2, 2) == 81
    vecs = [tuple(v.to_list()) for v in enumerate_vectors(f, 2)]
    assert len(vecs) == 9 and len(set(vecs)) == 9
    for idx in range(9):
        assert tuple(vector_by_index(f, 2, idx).to_list()) == vecs[idx]
    mats = [tuple(map(tuple, m.values.tolist())) for m in enumerate_matrices(f, 2, 2)]
    assert len(set(mats)) == 81
    assert tuple(map(tuple, matrix_by_index(f, 2, 2, 80).values.tolist())) == mats[80]


def test_index_decoders_reject_out_of_range_indices():
    f = PrimeField(3)
    for bad in (-1, 3**2):
        with pytest.raises(IndexError, match="vector index"):
            vector_by_index(f, 2, bad)
    for bad in (-1, 3**6):
        with pytest.raises(IndexError, match="matrix index"):
            matrix_by_index(f, 2, 3, bad)
    assert vector_by_index(f, 2, 3**2 - 1).to_list() == [2, 2]
    assert matrix_by_index(f, 2, 3, 3**6 - 1).values.tolist() == [[2, 2, 2], [2, 2, 2]]


def test_enumeration_is_lexicographic_first_entry_most_significant():
    f = PrimeField(2)
    vecs = [v.to_list() for v in enumerate_vectors(f, 2)]
    assert vecs == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_random_generators_validate_dims():
    f = PrimeField(5)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_matrix(0, 2, f, rng)
    with pytest.raises(ValueError):
        random_vector(0, f, rng)
    m = random_matrix(3, 4, f, rng)
    assert m.rows == 3 and m.cols == 4
    assert all(0 <= x < 5 for row in m.values.tolist() for x in row)


@pytest.mark.parametrize("p", [2, 5, 65521, 2**31 - 1])
def test_random_generators_draw_raw_canonical_residues(p):
    # the samplers skip validation, so check here what it would: int64,
    # the asked shape, entries in [0, p), and the very draw of rng.integers
    f = PrimeField(p)
    rng, raw = np.random.default_rng(17), np.random.default_rng(17)
    for rows, cols in ((1, 1), (3, 4), (40, 25)):
        m = random_matrix(rows, cols, f, rng)
        v = random_vector(cols, f, rng)
        want_m = raw.integers(0, p, size=(rows, cols), dtype=np.int64)
        want_v = raw.integers(0, p, size=cols, dtype=np.int64)
        for got, want in ((m.values, want_m), (v.values, want_v)):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert got.min() >= 0 and got.max() < p
            assert np.array_equal(got, want)
        assert m.field == f and v.field == f
    assert rng.bit_generator.state == raw.bit_generator.state


def test_matrix_add_sub_eq():
    f = PrimeField(5)
    a = FpMatrix(f, [[1, 2], [3, 4]])
    b = FpMatrix(f, [[4, 4], [4, 4]])
    assert a == FpMatrix(f, [[1, 2], [3, 4]])
    assert a != b
    assert hash(a) == hash(FpMatrix(f, [[1, 2], [3, 4]]))
