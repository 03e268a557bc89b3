"""Query-counted oracle access to matrices and vectors.

A handle hands out the values of an underlying matrix, possibly through a
composition tree (concatenation, windowing, placement in a larger matrix
for block embedding and padding, pointwise sum). A vector handle is a
one-column matrix handle read as a vector: every vector constructor is
the matching matrix composition applied to that column. Handles never
copy data at construction; every structural transformer is lazy.

Handles serve the input boundary: the pipeline meters U_M and U_v through
them and cuts its padded blocks and segments with them. A handle exists
only to meter a real read, and the ledger has no mute switch, so every
read of a handle is charged. Values the simulator already holds (the
instance it hands the solver, split halves, co-strips, co-vectors, planted
instances) are plain arrays, and their reads are charged to scratch in
closed form where they happen.

Values leave a handle only by bulk read (`read_all`, `to_matrix`,
`to_vector`), and a read charges one query per entry it reads: each entry
that reaches a wrapped leaf charges that leaf's source in the shared
QueryLedger. Structural entries synthesized by a transformer (zeros of an
embedding, the 0/1 border of padding) cost nothing, matching the model in
which those values are known without consulting the input. A window
(`extract_block`, `extract_submatrix`, `extract_subvector`) reads and
charges only the entries inside it.
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

    def total(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------


class MatrixOracleHandle:
    """Bulk-read access to a rows-by-cols matrix over a prime field."""

    __slots__ = ("rows", "cols", "field", "ledger")

    def __init__(self, rows: int, cols: int, field: PrimeField, ledger: QueryLedger):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.ledger = ledger

    def read_all(self) -> np.ndarray:
        return self._read_values(0, self.rows, 0, self.cols)

    def to_matrix(self) -> FpMatrix:
        # reads yield canonical residues by the handle invariant
        return FpMatrix._trusted(self.field, self.read_all())

    # subclasses implement the raw read (bounds already validated); it charges
    # one query per entry read
    def _read_values(self, r0: int, nr: int, c0: int, nc: int) -> np.ndarray:
        raise NotImplementedError


class VectorOracleHandle:
    """Bulk-read access to a length-n vector: a view of a one-column matrix handle."""

    __slots__ = ("length", "field", "ledger", "_column")

    def __init__(self, column: MatrixOracleHandle):
        self.length = column.rows
        self.field = column.field
        self.ledger = column.ledger
        self._column = column

    def read_all(self) -> np.ndarray:
        return self._column._read_values(0, self.length, 0, 1)[:, 0]

    def to_vector(self) -> FpVector:
        # reads yield canonical residues by the handle invariant
        return FpVector._trusted(self.field, self.read_all())


class _Wrapped(MatrixOracleHandle):
    __slots__ = ("_values", "source")

    def __init__(self, values: np.ndarray, field: PrimeField, ledger: QueryLedger, source: str):
        super().__init__(values.shape[0], values.shape[1], field, ledger)
        self._values = values
        self.source = source

    def _read_values(self, r0, nr, c0, nc):
        # a view, not a copy: read results are treated as immutable everywhere
        self.ledger.charge(self.source, nr * nc)
        return self._values[r0 : r0 + nr, c0 : c0 + nc]


class _Concat(MatrixOracleHandle):
    """Equally shaped children stacked along `axis` (0: rows, 1: columns)."""

    __slots__ = ("_children", "_axis", "_step")

    def __init__(self, children: Sequence[MatrixOracleHandle], axis: int):
        first = children[0]
        shape = [first.rows, first.cols]
        self._step = shape[axis]
        shape[axis] *= len(children)
        super().__init__(shape[0], shape[1], first.field, first.ledger)
        self._children = list(children)
        self._axis = axis

    def _read_values(self, r0, nr, c0, nc):
        d, axis = self._step, self._axis
        # the (offset, count) pair along `axis` is re-aimed at each child in turn
        span = [r0, nr, c0, nc]
        lo = span[2 * axis]
        end = lo + span[2 * axis + 1]
        parts = []
        while lo < end:
            c = lo // d
            hi = min(end, (c + 1) * d)
            span[2 * axis : 2 * axis + 2] = lo - c * d, hi - lo
            parts.append(self._children[c]._read_values(*span))
            lo = hi
        return np.concatenate(parts, axis=axis) if len(parts) > 1 else parts[0]


class _Window(MatrixOracleHandle):
    """A contiguous sub-rectangle of a parent handle (index shift only)."""

    __slots__ = ("_parent", "_row_off", "_col_off")

    def __init__(self, parent: MatrixOracleHandle, row_off: int, n_rows: int, col_off: int, n_cols: int):
        super().__init__(n_rows, n_cols, parent.field, parent.ledger)
        self._parent = parent
        self._row_off = row_off
        self._col_off = col_off

    def _read_values(self, r0, nr, c0, nc):
        return self._parent._read_values(r0 + self._row_off, nr, c0 + self._col_off, nc)


class _Placed(MatrixOracleHandle):
    """The parent at rows [0, parent.rows) and a column offset of a larger
    matrix, with ones on the diagonal below the parent's rows and zeros
    elsewhere. Entries outside the parent are structural and charge nothing."""

    __slots__ = ("_parent", "_col_off")

    def __init__(self, parent: MatrixOracleHandle, rows: int, cols: int, col_off: int = 0):
        super().__init__(rows, cols, parent.field, parent.ledger)
        self._parent = parent
        self._col_off = col_off

    def _read_values(self, r0, nr, c0, nc):
        parent, off = self._parent, self._col_off
        out = np.zeros((nr, nc), dtype=np.int64)
        r_hi = min(r0 + nr, parent.rows)
        lo = max(c0, off)
        hi = min(c0 + nc, off + parent.cols)
        if r0 < r_hi and lo < hi:
            out[: r_hi - r0, lo - c0 : hi - c0] = parent._read_values(r0, r_hi - r0, lo - off, hi - lo)
        t0, t1 = max(r0, c0, parent.rows), min(r0 + nr, c0 + nc)
        if t0 < t1:
            diag = np.arange(t0, t1)
            out[diag - r0, diag - c0] = 1
        return out


class _Sum(MatrixOracleHandle):
    """Pointwise sum: each entry read reads that entry of every summand once."""

    __slots__ = ("_children",)

    def __init__(self, children: Sequence[MatrixOracleHandle]):
        first = children[0]
        super().__init__(first.rows, first.cols, first.field, first.ledger)
        self._children = list(children)

    def _read_values(self, r0, nr, c0, nc):
        acc = np.zeros((nr, nc), dtype=np.int64)
        for c in self._children:
            acc = (acc + c._read_values(r0, nr, c0, nc)) % self.field.modulus
        return acc


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------
# Each builds its private composition directly rather than through another
# public constructor, so a constructor call is one handle built.


def wrap_matrix(matrix: FpMatrix, ledger: QueryLedger, source: str = SOURCE_MATRIX) -> MatrixOracleHandle:
    """Expose a concrete matrix as an oracle; each read charges `source`."""
    return _Wrapped(matrix.values, matrix.field, ledger, source)


def wrap_vector(vector: FpVector, ledger: QueryLedger, source: str = SOURCE_VECTOR) -> VectorOracleHandle:
    """Expose a concrete vector as an oracle; each read charges `source`."""
    return VectorOracleHandle(_Wrapped(vector.values[:, None], vector.field, ledger, source))


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
    """Stack N equally shaped d x n oracles into an (N*d) x n oracle.

    Each entry read is routed to exactly one component and charged there.
    """
    _check_alike(handles, "concat_rows")
    return _Concat(handles, 0)


def concat_cols(handles: Sequence[MatrixOracleHandle]) -> MatrixOracleHandle:
    """Join N equally shaped d x n oracles side by side into d x (N*n)."""
    _check_alike(handles, "concat_cols")
    return _Concat(handles, 1)


def concat_vectors(handles: Sequence[VectorOracleHandle]) -> VectorOracleHandle:
    """Concatenate N equal-length vector oracles."""
    columns = [h._column for h in handles]
    _check_alike(columns, "concat_vectors")
    return VectorOracleHandle(_Concat(columns, 0))


def extract_submatrix(handle: MatrixOracleHandle, row_offset: int, d: int) -> MatrixOracleHandle:
    """View d consecutive rows starting at row_offset (all columns)."""
    if d <= 0:
        raise ValueError("row count must be positive")
    if not (0 <= row_offset and row_offset + d <= handle.rows):
        raise IndexError(f"row window [{row_offset},{row_offset + d}) out of bounds")
    return _Window(handle, row_offset, d, 0, handle.cols)


def extract_submatrix_cols(handle: MatrixOracleHandle, col_offset: int, d: int) -> MatrixOracleHandle:
    """View d consecutive columns starting at col_offset (all rows)."""
    if d <= 0:
        raise ValueError("column count must be positive")
    if not (0 <= col_offset and col_offset + d <= handle.cols):
        raise IndexError(f"column window [{col_offset},{col_offset + d}) out of bounds")
    return _Window(handle, 0, handle.rows, col_offset, d)


def extract_block(handle: MatrixOracleHandle, i: int, j: int, d: int) -> MatrixOracleHandle:
    """View the (i, j)-th d x d block of a handle tiled into d-blocks.

    Pure index arithmetic: each entry read is one parent entry read.
    """
    if d <= 0:
        raise ValueError("block size must be positive")
    if handle.rows % d != 0 or handle.cols % d != 0:
        raise ValueError(f"block size {d} does not divide handle shape {handle.rows}x{handle.cols}")
    if not (0 <= i < handle.rows // d and 0 <= j < handle.cols // d):
        raise IndexError(f"block index ({i},{j}) out of range")
    return _Window(handle, i * d, d, j * d, d)


def extract_subvector(handle: VectorOracleHandle, offset: int, d: int) -> VectorOracleHandle:
    """View d consecutive entries starting at offset."""
    if d <= 0:
        raise ValueError("length must be positive")
    if not (0 <= offset and offset + d <= handle.length):
        raise IndexError(f"window [{offset},{offset + d}) out of bounds")
    return VectorOracleHandle(_Window(handle._column, offset, d, 0, 1))


def sum_vector_oracles(handles: Sequence[VectorOracleHandle]) -> VectorOracleHandle:
    """Pointwise sum of equal-length oracles; an entry read costs one per summand."""
    columns = [h._column for h in handles]
    _check_alike(columns, "sum_vector_oracles")
    return VectorOracleHandle(_Sum(columns))


def embed_block_matrix(handle: MatrixOracleHandle, slot: int, k: int) -> MatrixOracleHandle:
    """Widen a d x d oracle to d x (k*d) with the block in column slot `slot`.

    The k-1 zero blocks are structural: reading them costs nothing.
    """
    if handle.rows != handle.cols:
        raise ValueError(f"embedding expects a square block, got {handle.rows}x{handle.cols}")
    if k <= 0:
        raise ValueError("slot count must be positive")
    if not 0 <= slot < k:
        raise IndexError(f"slot {slot} out of range for {k} slots")
    d = handle.rows
    return _Placed(handle, d, k * d, slot * d)


def pad_square_matrix(handle: MatrixOracleHandle, size: int) -> MatrixOracleHandle:
    """Embed a square oracle top-left in a `size`-square oracle.

    The border is identity-on-diagonal / zero elsewhere, synthesized without
    parent queries, so the padded product restricts to the original one on
    the first rows and is zero beyond them.
    """
    if handle.rows != handle.cols:
        raise ValueError(f"padding expects a square handle, got {handle.rows}x{handle.cols}")
    if size < handle.rows:
        raise ValueError(f"padded size {size} smaller than handle size {handle.rows}")
    if size == handle.rows:
        return handle
    return _Placed(handle, size, size)


def pad_vector(handle: VectorOracleHandle, size: int) -> VectorOracleHandle:
    """Zero-extend a vector oracle to the given length."""
    if size < handle.length:
        raise ValueError(f"padded size {size} smaller than handle length {handle.length}")
    if size == handle.length:
        return handle
    # a one-column parent has no diagonal entry below its rows: the tail is zero
    return VectorOracleHandle(_Placed(handle._column, size, 1))
