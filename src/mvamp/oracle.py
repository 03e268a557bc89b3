"""Query-counted oracle access to matrices and vectors.

A handle is a matrix's values plus, for each charge source, what a read of
each entry costs there: one query at a wrapped leaf's own source, one per
summand in a pointwise sum, and nothing for entries a transformer
synthesizes (zeros of an embedding, the 0/1 border of padding), matching
the model in which those values are known without consulting the input. A
vector handle is a one-column matrix handle read as a vector. Windows
(`extract_block`, `extract_submatrix`, `extract_subvector`) are views of
their parent's values and costs; concatenation, placement (padding and
block embedding) and sums build their arrays once, at construction.

Handles serve the input boundary: the pipeline meters U_M and U_v through
them and cuts its padded blocks and segments with them. A handle exists
only to meter a real read, and the ledger has no mute switch, so every
read of a handle is charged. Values the simulator already holds (the
instance it hands the solver, split halves, co-strips, co-vectors, planted
instances) are plain arrays, and their reads are charged to scratch in
closed form where they happen.

Values leave a handle only by a whole read (`read_all`, `to_matrix`,
`to_vector`), so what a read charges each source is fixed when the handle
is built. A read charges it to the shared QueryLedger and returns the
handle's read-only values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import PrimeField
from .linalg import FpMatrix, FpVector

# Canonical charge sources. U_M / U_v are the real input oracles; ALG counts
# solver invocations; "verifier" carries the verifier's charged cost model;
# "scratch" tags reads of values the pipeline draws and computes itself.
SOURCE_MATRIX = "U_M"
SOURCE_VECTOR = "U_v"
SOURCE_ALG = "ALG"
SOURCE_VERIFIER = "verifier"
SOURCE_SCRATCH = "scratch"


class QueryLedger:
    """Monotone per-source query counters."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: dict[str, int] = {}

    def charge(self, source: str, amount: int = 1):
        if amount < 0:
            raise ValueError(f"charge amount must be nonnegative, got {amount}")
        if amount:
            self.counts[source] = self.counts.get(source, 0) + amount

    def get(self, source: str) -> int:
        return self.counts.get(source, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------


class MatrixOracleHandle:
    """Bulk-read access to a rows-by-cols matrix over a prime field: read-only
    int64 `values`, and `costs` mapping each source to per-entry query counts."""

    __slots__ = ("rows", "cols", "field", "ledger", "values", "costs", "_charges")

    def __init__(self, values: np.ndarray, costs: dict, field: PrimeField, ledger: QueryLedger):
        self.rows, self.cols = values.shape
        self.field = field
        self.ledger = ledger
        self.values = values.view()
        self.values.flags.writeable = False
        self.costs = costs
        self._charges = [(source, int(cost.sum())) for source, cost in costs.items()]

    def _read(self) -> np.ndarray:
        for source, amount in self._charges:
            self.ledger.charge(source, amount)
        return self.values

    def read_all(self) -> np.ndarray:
        return self._read()

    def to_matrix(self) -> FpMatrix:
        # reads yield canonical residues by the handle invariant
        return FpMatrix._trusted(self.field, self.read_all())


class VectorOracleHandle:
    """Bulk-read access to a length-n vector: a view of a one-column matrix handle."""

    __slots__ = ("length", "field", "ledger", "_column")

    def __init__(self, column: MatrixOracleHandle):
        self.length = column.rows
        self.field = column.field
        self.ledger = column.ledger
        self._column = column

    def read_all(self) -> np.ndarray:
        return self._column._read()[:, 0]

    def to_vector(self) -> FpVector:
        # reads yield canonical residues by the handle invariant
        return FpVector._trusted(self.field, self.read_all())


def _leaf(values: np.ndarray, field: PrimeField, ledger: QueryLedger, source: str) -> MatrixOracleHandle:
    return MatrixOracleHandle(values, {source: np.broadcast_to(np.int64(1), values.shape)}, field, ledger)


def _sources(handles: Sequence[MatrixOracleHandle]) -> list[str]:
    """Every source any handle charges, in order of first appearance."""
    return list(dict.fromkeys(source for h in handles for source in h.costs))


def _concat(handles: Sequence[MatrixOracleHandle], axis: int) -> MatrixOracleHandle:
    """Equally shaped handles stacked along `axis` (0: rows, 1: columns)."""
    first = handles[0]
    free = np.broadcast_to(np.int64(0), (first.rows, first.cols))
    costs = {s: np.concatenate([h.costs.get(s, free) for h in handles], axis) for s in _sources(handles)}
    return MatrixOracleHandle(np.concatenate([h.values for h in handles], axis), costs, first.field, first.ledger)


def _window(handle: MatrixOracleHandle, r0: int, nr: int, c0: int, nc: int) -> MatrixOracleHandle:
    """A contiguous sub-rectangle of a handle: views of its values and costs."""
    box = (slice(r0, r0 + nr), slice(c0, c0 + nc))
    costs = {source: cost[box] for source, cost in handle.costs.items()}
    return MatrixOracleHandle(handle.values[box], costs, handle.field, handle.ledger)


def _placed(handle: MatrixOracleHandle, rows: int, cols: int, col_off: int = 0) -> MatrixOracleHandle:
    """The handle at rows [0, handle.rows) and a column offset of a rows x cols
    matrix, with ones on the diagonal below its rows and zeros elsewhere.
    Entries outside the handle are structural and cost nothing."""

    def place(inner: np.ndarray) -> np.ndarray:
        out = np.zeros((rows, cols), dtype=np.int64)
        out[: handle.rows, col_off : col_off + handle.cols] = inner
        return out

    values = place(handle.values)
    diag = np.arange(handle.rows, min(rows, cols))
    values[diag, diag] = 1
    costs = {source: place(cost) for source, cost in handle.costs.items()}
    return MatrixOracleHandle(values, costs, handle.field, handle.ledger)


def _sum(handles: Sequence[MatrixOracleHandle]) -> MatrixOracleHandle:
    """Pointwise sum: each entry read reads that entry of every summand once."""
    first = handles[0]
    # residues are below 2^31, so int64 holds the sum of up to 2^32 of them
    values = sum(h.values for h in handles) % first.field.modulus
    costs = {s: sum(h.costs[s] for h in handles if s in h.costs) for s in _sources(handles)}
    return MatrixOracleHandle(values, costs, first.field, first.ledger)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------
# Each builds its handle through a private helper rather than through another
# public constructor, so a constructor call is one handle built.


def wrap_matrix(matrix: FpMatrix, ledger: QueryLedger, source: str = SOURCE_MATRIX) -> MatrixOracleHandle:
    """Expose a concrete matrix as an oracle; each read charges `source`."""
    return _leaf(matrix.values, matrix.field, ledger, source)


def wrap_vector(vector: FpVector, ledger: QueryLedger, source: str = SOURCE_VECTOR) -> VectorOracleHandle:
    """Expose a concrete vector as an oracle; each read charges `source`."""
    return VectorOracleHandle(_leaf(vector.values[:, None], vector.field, ledger, source))


def _check_alike(handles: Sequence[MatrixOracleHandle], what: str):
    """At least one handle, all sharing the first one's field and shape."""
    if not handles:
        raise ValueError(f"{what} requires at least one handle")
    first = handles[0]
    for h in handles[1:]:
        if h.field != first.field:
            raise ValueError(f"{what}: field mismatch among handles")
        if (h.rows, h.cols) != (first.rows, first.cols):
            raise ValueError(f"{what}: all handles must share one shape")


def concat_rows(handles: Sequence[MatrixOracleHandle]) -> MatrixOracleHandle:
    """Stack N equally shaped d x n oracles into an (N*d) x n oracle; each
    entry read is charged to the one component it comes from."""
    _check_alike(handles, "concat_rows")
    return _concat(handles, 0)


def concat_cols(handles: Sequence[MatrixOracleHandle]) -> MatrixOracleHandle:
    """Join N equally shaped d x n oracles side by side into d x (N*n)."""
    _check_alike(handles, "concat_cols")
    return _concat(handles, 1)


def concat_vectors(handles: Sequence[VectorOracleHandle]) -> VectorOracleHandle:
    """Concatenate N equal-length vector oracles."""
    columns = [h._column for h in handles]
    _check_alike(columns, "concat_vectors")
    return VectorOracleHandle(_concat(columns, 0))


def extract_submatrix(handle: MatrixOracleHandle, row_offset: int, d: int) -> MatrixOracleHandle:
    """View d consecutive rows starting at row_offset (all columns)."""
    if d <= 0:
        raise ValueError("row count must be positive")
    if not (0 <= row_offset and row_offset + d <= handle.rows):
        raise IndexError(f"row window [{row_offset},{row_offset + d}) out of bounds")
    return _window(handle, row_offset, d, 0, handle.cols)


def extract_submatrix_cols(handle: MatrixOracleHandle, col_offset: int, d: int) -> MatrixOracleHandle:
    """View d consecutive columns starting at col_offset (all rows)."""
    if d <= 0:
        raise ValueError("column count must be positive")
    if not (0 <= col_offset and col_offset + d <= handle.cols):
        raise IndexError(f"column window [{col_offset},{col_offset + d}) out of bounds")
    return _window(handle, 0, handle.rows, col_offset, d)


def extract_block(handle: MatrixOracleHandle, i: int, j: int, d: int) -> MatrixOracleHandle:
    """View the (i, j)-th d x d block of a handle tiled into d-blocks."""
    if d <= 0:
        raise ValueError("block size must be positive")
    if handle.rows % d != 0 or handle.cols % d != 0:
        raise ValueError(f"block size {d} does not divide handle shape {handle.rows}x{handle.cols}")
    if not (0 <= i < handle.rows // d and 0 <= j < handle.cols // d):
        raise IndexError(f"block index ({i},{j}) out of range")
    return _window(handle, i * d, d, j * d, d)


def extract_subvector(handle: VectorOracleHandle, offset: int, d: int) -> VectorOracleHandle:
    """View d consecutive entries starting at offset."""
    if d <= 0:
        raise ValueError("length must be positive")
    if not (0 <= offset and offset + d <= handle.length):
        raise IndexError(f"window [{offset},{offset + d}) out of bounds")
    return VectorOracleHandle(_window(handle._column, offset, d, 0, 1))


def sum_vector_oracles(handles: Sequence[VectorOracleHandle]) -> VectorOracleHandle:
    """Pointwise sum of equal-length oracles; an entry read costs one per summand."""
    columns = [h._column for h in handles]
    _check_alike(columns, "sum_vector_oracles")
    return VectorOracleHandle(_sum(columns))


def embed_block_matrix(handle: MatrixOracleHandle, slot: int, k: int) -> MatrixOracleHandle:
    """Widen a d x d oracle to d x (k*d) with the block in column slot `slot`;
    the k-1 zero blocks are structural and cost nothing to read."""
    if handle.rows != handle.cols:
        raise ValueError(f"embedding expects a square block, got {handle.rows}x{handle.cols}")
    if k <= 0:
        raise ValueError("slot count must be positive")
    if not 0 <= slot < k:
        raise IndexError(f"slot {slot} out of range for {k} slots")
    d = handle.rows
    return _placed(handle, d, k * d, slot * d)


def pad_square_matrix(handle: MatrixOracleHandle, size: int) -> MatrixOracleHandle:
    """Embed a square oracle top-left in a `size`-square oracle whose free
    border is identity-on-diagonal / zero elsewhere, so the padded product
    restricts to the original one on the first rows and is zero beyond them."""
    if handle.rows != handle.cols:
        raise ValueError(f"padding expects a square handle, got {handle.rows}x{handle.cols}")
    if size < handle.rows:
        raise ValueError(f"padded size {size} smaller than handle size {handle.rows}")
    if size == handle.rows:
        return handle
    return _placed(handle, size, size)


def pad_vector(handle: VectorOracleHandle, size: int) -> VectorOracleHandle:
    """Zero-extend a vector oracle to the given length."""
    if size < handle.length:
        raise ValueError(f"padded size {size} smaller than handle length {handle.length}")
    if size == handle.length:
        return handle
    # a one-column parent has no diagonal entry below its rows: the tail is zero
    return VectorOracleHandle(_placed(handle._column, size, 1))
