"""Query-counted oracle views over matrices and vectors.

The central invariant: a bulk read charges one query per entry it reads,
so reading a handle whole charges exactly as much as reading every
one-entry window of it, and charges land on the source of the leaf that
actually holds the data. Structural entries (embedding zeros, padding
border) are free.
"""

import numpy as np
import pytest

from mvamp.field import PrimeField
from mvamp.linalg import FpMatrix, FpVector, matvec, random_matrix, random_vector
from mvamp.oracle import (
    SOURCE_MATRIX,
    SOURCE_SCRATCH,
    SOURCE_VECTOR,
    QueryLedger,
    concat_cols,
    concat_rows,
    concat_vectors,
    embed_block_matrix,
    extract_block,
    extract_submatrix,
    extract_submatrix_cols,
    extract_subvector,
    pad_square_matrix,
    pad_vector,
    sum_vector_oracles,
    wrap_matrix,
    wrap_vector,
)

F5 = PrimeField(5)


def entry_scan_cost(handle):
    """Charge for reading every entry through its own 1x1 window."""
    total_before = sum(handle.ledger.snapshot().values())
    for i in range(handle.rows):
        for j in range(handle.cols):
            extract_block(handle, i, j, 1).read_all()
    return sum(handle.ledger.snapshot().values()) - total_before


# ---------------------------------------------------------------- ledger


def test_ledger_basic_accounting():
    led = QueryLedger()
    assert led.get("U_M") == 0
    led.charge("U_M", 3)
    led.charge("U_M", 2)
    led.charge("U_v", 1)
    assert led.get("U_M") == 5
    assert led.get("U_v") == 1
    assert sum(led.snapshot().values()) == 6
    assert led.snapshot() == {"U_M": 5, "U_v": 1}


def test_ledger_rejects_negative_charge():
    led = QueryLedger()
    with pytest.raises(ValueError):
        led.charge("U_M", -1)


def test_ledger_snapshot_is_a_copy():
    led = QueryLedger()
    led.charge("a", 1)
    snap = led.snapshot()
    snap["a"] = 99
    assert led.get("a") == 1


# ---------------------------------------------------------------- leaves


def test_wrap_matrix_values_and_charges():
    led = QueryLedger()
    m = FpMatrix(F5, [[1, 2, 3], [4, 0, 1]])
    h = wrap_matrix(m, led)
    assert h.rows == 2 and h.cols == 3 and h.field == F5
    assert extract_block(h, 1, 0, 1).read_all().tolist() == [[4]]
    assert led.get(SOURCE_MATRIX) == 1
    assert extract_submatrix(h, 1, 1).read_all().tolist() == [[4, 0, 1]]
    assert led.get(SOURCE_MATRIX) == 1 + 3
    h.read_all()
    assert led.get(SOURCE_MATRIX) == 4 + 6
    assert h.to_matrix() == m


def test_wrap_matrix_custom_source():
    led = QueryLedger()
    h = wrap_matrix(FpMatrix(F5, [[1]]), led, SOURCE_SCRATCH)
    h.read_all()
    assert led.snapshot() == {SOURCE_SCRATCH: 1}


def test_wrap_vector_values_and_charges():
    led = QueryLedger()
    v = FpVector(F5, [3, 1, 4])
    h = wrap_vector(v, led)
    assert h.length == 3
    assert extract_subvector(h, 2, 1).read_all().tolist() == [4]
    assert led.get(SOURCE_VECTOR) == 1
    assert list(h.read_all()) == [3, 1, 4]
    assert led.get(SOURCE_VECTOR) == 4
    assert h.to_vector() == v


# ---------------------------------------------------------------- composites


def test_concat_rows_values_and_routing():
    led = QueryLedger()
    top = wrap_matrix(FpMatrix(F5, [[1, 2], [3, 4]]), led, "top")
    bot = wrap_matrix(FpMatrix(F5, [[0, 1], [2, 3]]), led, "bot")
    h = concat_rows([top, bot])
    assert h.rows == 4 and h.cols == 2
    assert h.to_matrix().values.tolist() == [[1, 2], [3, 4], [0, 1], [2, 3]]
    assert led.snapshot() == {"top": 4, "bot": 4}
    # a read confined to the bottom part charges only that source
    led2 = QueryLedger()
    h2 = concat_rows(
        [
            wrap_matrix(FpMatrix(F5, [[1, 2], [3, 4]]), led2, "top"),
            wrap_matrix(FpMatrix(F5, [[0, 1], [2, 3]]), led2, "bot"),
        ]
    )
    assert extract_block(h2, 3, 1, 1).read_all().tolist() == [[3]]
    assert led2.snapshot() == {"bot": 1}


def test_concat_rows_shape_validation():
    led = QueryLedger()
    a = wrap_matrix(FpMatrix(F5, [[1, 2]]), led)
    b = wrap_matrix(FpMatrix(F5, [[1], [2]]), led)
    with pytest.raises(ValueError):
        concat_rows([a, b])
    c = wrap_matrix(FpMatrix(PrimeField(7), [[1, 2]]), led)
    with pytest.raises(ValueError):
        concat_rows([a, c])


def test_concat_cols_values():
    led = QueryLedger()
    left = wrap_matrix(FpMatrix(F5, [[1, 0], [2, 2]]), led, "l")
    right = wrap_matrix(FpMatrix(F5, [[3, 4], [0, 1]]), led, "r")
    h = concat_cols([left, right])
    assert h.to_matrix().values.tolist() == [[1, 0, 3, 4], [2, 2, 0, 1]]
    assert extract_block(h, 0, 0, 1).read_all().tolist() == [[1]]
    assert extract_block(h, 1, 3, 1).read_all().tolist() == [[1]]
    # parts must share one shape
    odd = wrap_matrix(FpMatrix(F5, [[1], [2]]), led)
    with pytest.raises(ValueError):
        concat_cols([left, odd])


def test_concat_vectors_values_and_routing():
    led = QueryLedger()
    h = concat_vectors(
        [
            wrap_vector(FpVector(F5, [1, 2]), led, "a"),
            wrap_vector(FpVector(F5, [3, 4]), led, "b"),
        ]
    )
    assert h.length == 4
    assert h.to_vector().to_list() == [1, 2, 3, 4]
    assert led.snapshot() == {"a": 2, "b": 2}
    assert extract_subvector(h, 1, 1).read_all().tolist() == [2]
    assert led.snapshot() == {"a": 3, "b": 2}


def test_extract_submatrix_window():
    led = QueryLedger()
    m = FpMatrix(F5, [[0, 1, 2, 3], [4, 0, 1, 2], [3, 4, 0, 1], [2, 3, 4, 0]])
    h = extract_submatrix(wrap_matrix(m, led), 1, 2)
    assert h.rows == 2 and h.cols == 4
    assert np.array_equal(h.read_all(), m.values[1:3])
    assert led.get(SOURCE_MATRIX) == 8  # only the window's entries
    with pytest.raises(IndexError):
        extract_submatrix(wrap_matrix(m, led), 3, 2)  # overruns the parent
    with pytest.raises(ValueError):
        extract_submatrix(wrap_matrix(m, led), 0, 0)


def test_extract_submatrix_cols_window():
    led = QueryLedger()
    m = FpMatrix(F5, [[0, 1, 2, 3], [4, 0, 1, 2]])
    h = extract_submatrix_cols(wrap_matrix(m, led), 1, 2)
    assert h.rows == 2 and h.cols == 2
    assert h.to_matrix().values.tolist() == [[1, 2], [0, 1]]


def test_extract_block_addressing():
    led = QueryLedger()
    m = FpMatrix(F5, [[0, 1, 2, 3], [4, 0, 1, 2], [3, 4, 0, 1], [2, 3, 4, 0]])
    h = wrap_matrix(m, led)
    for bi in range(2):
        for bj in range(2):
            got = extract_block(h, bi, bj, 2).to_matrix()
            assert got.values.tolist() == m.values[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2].tolist()
    with pytest.raises(ValueError):
        extract_block(h, 0, 0, 3)


def test_extract_subvector():
    led = QueryLedger()
    v = FpVector(F5, [0, 1, 2, 3, 4])
    h = extract_subvector(wrap_vector(v, led), 1, 3)
    assert h.length == 3
    assert h.to_vector().to_list() == [1, 2, 3]
    with pytest.raises(IndexError):
        extract_subvector(wrap_vector(v, led), 3, 3)


def test_embed_block_matrix_structural_zeros_are_free():
    # widens d x d to d x (k*d), block occupying column slot 1 of 3
    led = QueryLedger()
    inner = wrap_matrix(FpMatrix(F5, [[1, 2], [3, 4]]), led)
    h = embed_block_matrix(inner, slot=1, k=3)
    assert h.rows == 2 and h.cols == 6
    assert h.to_matrix().values.tolist() == [[0, 0, 1, 2, 0, 0], [0, 0, 3, 4, 0, 0]]
    # full read charged only the 4 planted entries
    assert led.get(SOURCE_MATRIX) == 4
    led_zero_probe = led.get(SOURCE_MATRIX)
    assert extract_block(h, 0, 0, 2).read_all().tolist() == [[0, 0], [0, 0]]
    assert extract_block(h, 0, 2, 2).read_all().tolist() == [[0, 0], [0, 0]]
    assert led.get(SOURCE_MATRIX) == led_zero_probe  # zeros cost nothing
    assert extract_block(h, 0, 3, 1).read_all().tolist() == [[2]]
    assert led.get(SOURCE_MATRIX) == led_zero_probe + 1


def test_embed_block_matrix_validates_slot():
    led = QueryLedger()
    inner = wrap_matrix(FpMatrix(F5, [[1]]), led)
    with pytest.raises(IndexError):
        embed_block_matrix(inner, slot=3, k=3)
    rect = wrap_matrix(FpMatrix(F5, [[1, 2]]), led)
    with pytest.raises(ValueError):
        embed_block_matrix(rect, slot=0, k=2)


def test_pad_square_matrix_border_is_free():
    led = QueryLedger()
    m = FpMatrix(F5, [[1, 2, 0], [3, 4, 1], [0, 2, 2]])
    h = pad_square_matrix(wrap_matrix(m, led), 5)
    assert h.rows == h.cols == 5
    got = h.to_matrix()
    assert led.get(SOURCE_MATRIX) == 9  # only the embedded 3x3 costs
    assert [row[:3] for row in got.values.tolist()[:3]] == m.values.tolist()
    assert got.values[3, 3] == 1 and got.values[4, 4] == 1
    assert got.values[3, 4] == 0 and got.values[0, 4] == 0
    before = led.get(SOURCE_MATRIX)
    assert extract_block(h, 4, 4, 1).read_all().tolist() == [[1]]
    assert extract_block(h, 2, 4, 1).read_all().tolist() == [[0]]
    assert led.get(SOURCE_MATRIX) == before


def test_read_results_are_read_only():
    # a read hands out the handle's own values: writing into them must fail,
    # not rewrite the wrapped input or later reads
    led = QueryLedger()
    m = FpMatrix(F5, [[1, 2], [3, 4]])
    for h in (wrap_matrix(m, led), pad_square_matrix(wrap_matrix(m, led), 3)):
        with pytest.raises(ValueError):
            h.read_all()[0, 0] = 4
    with pytest.raises(ValueError):
        wrap_vector(FpVector(F5, [1, 2]), led).read_all()[0] = 4
    assert m.values[0, 0] == 1


def test_pad_square_matrix_noop_returns_same_handle():
    led = QueryLedger()
    h = wrap_matrix(FpMatrix(F5, [[1, 2], [3, 4]]), led)
    assert pad_square_matrix(h, 2) is h


def test_pad_vector_tail_is_free():
    led = QueryLedger()
    h = pad_vector(wrap_vector(FpVector(F5, [2, 3]), led), 4)
    assert h.length == 4
    assert h.to_vector().to_list() == [2, 3, 0, 0]
    assert led.get(SOURCE_VECTOR) == 2
    assert pad_vector(h, 4) is h


def test_sum_vector_oracles_charges_every_term():
    led = QueryLedger()
    a = wrap_vector(FpVector(F5, [1, 2, 3]), led, "a")
    b = wrap_vector(FpVector(F5, [4, 4, 4]), led, "b")
    h = sum_vector_oracles([a, b])
    assert h.to_vector().to_list() == [0, 1, 2]
    assert led.snapshot() == {"a": 3, "b": 3}
    assert extract_subvector(h, 0, 1).read_all().tolist() == [0]
    assert led.snapshot() == {"a": 4, "b": 4}


def test_sum_vector_oracles_validates_lengths():
    led = QueryLedger()
    a = wrap_vector(FpVector(F5, [1, 2]), led)
    b = wrap_vector(FpVector(F5, [1]), led)
    with pytest.raises(ValueError):
        sum_vector_oracles([a, b])


# --------------------------------------------------- conservation property


def compositions(led):
    """A bag of handle constructions covering every node type, with the
    plain matrix each one views."""
    rng = np.random.default_rng(42)
    m1 = random_matrix(2, 4, F5, rng)
    m2 = random_matrix(2, 4, F5, rng)
    m3 = random_matrix(4, 4, F5, rng)
    m4 = random_matrix(4, 4, F5, rng)
    stacked = concat_rows([wrap_matrix(m1, led), wrap_matrix(m2, led)])
    yield stacked, FpMatrix(F5, m1.values.tolist() + m2.values.tolist())
    side = concat_cols([wrap_matrix(m4, led), wrap_matrix(m3, led)])
    yield side, FpMatrix(F5, [r4 + r3 for r4, r3 in zip(m4.values.tolist(), m3.values.tolist())])
    win = extract_submatrix(stacked, 1, 2)
    yield win, FpMatrix(F5, (m1.values.tolist() + m2.values.tolist())[1:3])
    emb = embed_block_matrix(extract_block(wrap_matrix(m4, led), 0, 1, 2), 1, 2)
    m4l = m4.values.tolist()
    emb_expect = [[0, 0] + m4l[0][2:], [0, 0] + m4l[1][2:]]
    yield emb, FpMatrix(F5, emb_expect)
    pad = pad_square_matrix(wrap_matrix(m4, led), 6)
    pad_expect = [row + [0, 0] for row in m4l]
    pad_expect += [[0] * 4 + [1, 0], [0] * 5 + [1]]
    yield pad, FpMatrix(F5, pad_expect)
    # per-source costs carried across a placement
    two = pad_square_matrix(concat_rows([wrap_matrix(m1, led, "top"), wrap_matrix(m2, led, "bot")]), 6)
    two_expect = [row + [0, 0] for row in m1.values.tolist() + m2.values.tolist()]
    two_expect += [[0] * 4 + [1, 0], [0] * 5 + [1]]
    yield two, FpMatrix(F5, two_expect)


def test_bulk_read_equals_entry_scan_cost_and_values():
    # conservation: read_all total == total over 1x1 windows, values identical
    for which in range(len(list(compositions(QueryLedger())))):
        led_bulk = QueryLedger()
        handle_bulk = list(compositions(led_bulk))[which][0]
        led_scan = QueryLedger()
        handle_scan, expect = list(compositions(led_scan))[which]
        handle_bulk.read_all()
        bulk_cost = sum(led_bulk.snapshot().values())
        scan_cost = entry_scan_cost(handle_scan)
        assert bulk_cost == scan_cost, f"composition {which}"
        assert led_bulk.snapshot() == led_scan.snapshot(), f"composition {which}"
        led3 = QueryLedger()
        handle3 = list(compositions(led3))[which][0]
        assert handle3.to_matrix() == expect, f"composition {which}"


def vector_entry_scan_cost(handle):
    """Charge for reading every entry through its own one-entry window."""
    total_before = sum(handle.ledger.snapshot().values())
    for i in range(handle.length):
        extract_subvector(handle, i, 1).read_all()
    return sum(handle.ledger.snapshot().values()) - total_before


def vector_compositions(led):
    """Every vector constructor, each with the plain list it views."""
    a, b = [1, 2, 3], [4, 4, 0]
    yield wrap_vector(FpVector(F5, a), led), a
    yield concat_vectors([wrap_vector(FpVector(F5, a), led, "a"), wrap_vector(FpVector(F5, b), led, "b")]), a + b
    yield extract_subvector(wrap_vector(FpVector(F5, a + b), led), 2, 3), (a + b)[2:5]
    yield pad_vector(wrap_vector(FpVector(F5, a), led), 5), a + [0, 0]
    summed = [(x + y) % 5 for x, y in zip(a, b)]
    yield sum_vector_oracles([wrap_vector(FpVector(F5, a), led, "a"), wrap_vector(FpVector(F5, b), led, "b")]), summed


def test_vector_bulk_read_equals_entry_scan_cost_and_values():
    # the conservation property of test_bulk_read_equals_entry_scan_cost_and_values,
    # for every vector constructor
    for which in range(5):
        led_bulk, led_scan = QueryLedger(), QueryLedger()
        handle_bulk, expect = list(vector_compositions(led_bulk))[which]
        handle_scan = list(vector_compositions(led_scan))[which][0]
        got = handle_bulk.read_all()
        assert got.shape == (handle_bulk.length,), f"composition {which}"
        assert got.tolist() == expect, f"composition {which}"
        assert sum(led_bulk.snapshot().values()) == vector_entry_scan_cost(handle_scan), f"composition {which}"
        assert led_bulk.snapshot() == led_scan.snapshot(), f"composition {which}"


def test_row_block_reads_split_cleanly():
    # reading two half-blocks charges the same as one full read
    led_a = QueryLedger()
    m = random_matrix(4, 4, F5, np.random.default_rng(5))
    h = wrap_matrix(m, led_a)
    extract_submatrix(h, 0, 2).read_all()
    extract_submatrix(h, 2, 2).read_all()
    led_b = QueryLedger()
    wrap_matrix(m, led_b).read_all()
    assert led_a.snapshot() == led_b.snapshot()


def test_matvec_through_handles_matches_direct():
    led = QueryLedger()
    rng = np.random.default_rng(11)
    m = random_matrix(4, 4, F5, rng)
    v = random_vector(4, F5, rng)
    hm = pad_square_matrix(wrap_matrix(m, led), 6)
    hv = pad_vector(wrap_vector(v, led), 6)
    got = matvec(hm.to_matrix(), hv.to_vector())
    assert got.to_list()[:4] == matvec(m, v).to_list()
    assert got.to_list()[4:] == [0, 0]
