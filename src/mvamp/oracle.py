"""Query-counted oracle access to matrices and vectors.

A handle hands out the values of an underlying matrix or vector, possibly
through a composition tree (concatenation, windowing, block embedding,
padding, pointwise sum), or as a planted view of a flat array that holds
one live strip or segment among scratch ones. Handles never copy data at
construction; every structural transformer is lazy.

Values leave a handle only by bulk read (`read_all`, `to_matrix`,
`to_vector`), and a read charges one query per entry it reads: each entry
that reaches a wrapped leaf charges that leaf's source in the shared
QueryLedger, and a planted view charges its scratch entries to scratch.
Structural entries synthesized by a transformer (zeros of an embedding,
the 0/1 border of padding) cost nothing, matching the model in which
those values are known without consulting the input. A window
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
# "scratch" tags helper oracles materialized inside the pipeline.
SOURCE_MATRIX = "U_M"
SOURCE_VECTOR = "U_v"
SOURCE_ALG = "ALG"
SOURCE_VERIFIER = "verifier"
SOURCE_SCRATCH = "scratch"


class QueryLedger:
    """Monotone per-source query counters with a mute switch.

    `paused()` suppresses charging inside simulation internals (for example
    a simulated solver materializing its input, which is billed separately
    at its modeled cost rather than per physical read).
    """

    __slots__ = ("counts", "_pause_depth")

    def __init__(self):
        self.counts: dict[str, int] = {}
        self._pause_depth = 0

    def charge(self, source: str, amount: int = 1):
        if amount < 0:
            raise ValueError(f"charge amount must be nonnegative, got {amount}")
        if self._pause_depth > 0 or amount == 0:
            return
        self.counts[source] = self.counts.get(source, 0) + amount

    def get(self, source: str) -> int:
        return self.counts.get(source, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def paused(self) -> "_Paused":
        return _Paused(self)


class _Paused:
    """The context manager QueryLedger.paused returns; pauses nest.

    A plain class rather than a contextlib generator: the solver and the
    verifier enter it on every stage-1 attempt, and this costs a fraction
    of the generator's set-up.
    """

    __slots__ = ("_ledger",)

    def __init__(self, ledger: QueryLedger):
        self._ledger = ledger

    def __enter__(self) -> QueryLedger:
        self._ledger._pause_depth += 1
        return self._ledger

    def __exit__(self, *exc_info):
        self._ledger._pause_depth -= 1


# ---------------------------------------------------------------------------
# matrix handles
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


class _WrappedMatrix(MatrixOracleHandle):
    __slots__ = ("_values", "source")

    def __init__(self, matrix: FpMatrix, ledger: QueryLedger, source: str):
        super().__init__(matrix.rows, matrix.cols, matrix.field, ledger)
        self._values = matrix.values
        self.source = source

    def _read_values(self, r0, nr, c0, nc):
        # a view, not a copy: read results are treated as immutable everywhere
        self.ledger.charge(self.source, nr * nc)
        return self._values[r0 : r0 + nr, c0 : c0 + nc]


class _RowConcatMatrix(MatrixOracleHandle):
    __slots__ = ("_children", "_child_rows")

    def __init__(self, children: Sequence[MatrixOracleHandle]):
        d = children[0].rows
        super().__init__(d * len(children), children[0].cols, children[0].field, children[0].ledger)
        self._children = list(children)
        self._child_rows = d

    def _read_values(self, r0, nr, c0, nc):
        d = self._child_rows
        parts = []
        lo = r0
        end = r0 + nr
        while lo < end:
            c = lo // d
            hi = min(end, (c + 1) * d)
            parts.append(self._children[c]._read_values(lo - c * d, hi - lo, c0, nc))
            lo = hi
        return np.concatenate(parts, axis=0) if len(parts) > 1 else parts[0]


class _ColConcatMatrix(MatrixOracleHandle):
    __slots__ = ("_children", "_child_cols")

    def __init__(self, children: Sequence[MatrixOracleHandle]):
        n = children[0].cols
        super().__init__(children[0].rows, n * len(children), children[0].field, children[0].ledger)
        self._children = list(children)
        self._child_cols = n

    def _read_values(self, r0, nr, c0, nc):
        n = self._child_cols
        parts = []
        lo = c0
        end = c0 + nc
        while lo < end:
            c = lo // n
            hi = min(end, (c + 1) * n)
            parts.append(self._children[c]._read_values(r0, nr, lo - c * n, hi - lo))
            lo = hi
        return np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]


class _MatrixWindow(MatrixOracleHandle):
    """A contiguous sub-rectangle of a parent handle (index shift only)."""

    __slots__ = ("_parent", "_row_off", "_col_off")

    def __init__(self, parent: MatrixOracleHandle, row_off: int, n_rows: int, col_off: int, n_cols: int):
        super().__init__(n_rows, n_cols, parent.field, parent.ledger)
        self._parent = parent
        self._row_off = row_off
        self._col_off = col_off

    def _read_values(self, r0, nr, c0, nc):
        return self._parent._read_values(r0 + self._row_off, nr, c0 + self._col_off, nc)


class _BlockEmbedMatrix(MatrixOracleHandle):
    """d x (k*d) oracle: the parent block sits in column slot i, zeros elsewhere.

    Queries landing in the zero region are answered structurally and charge
    nothing to the parent.
    """

    __slots__ = ("_parent", "_slot")

    def __init__(self, parent: MatrixOracleHandle, slot: int, k: int):
        d = parent.rows
        super().__init__(d, k * d, parent.field, parent.ledger)
        self._parent = parent
        self._slot = slot

    def _read_values(self, r0, nr, c0, nc):
        d = self._parent.cols
        w0 = self._slot * d
        out = np.zeros((nr, nc), dtype=np.int64)
        lo = max(c0, w0)
        hi = min(c0 + nc, w0 + d)
        if lo < hi:
            out[:, lo - c0 : hi - c0] = self._parent._read_values(r0, nr, lo - w0, hi - lo)
        return out


class _PaddedMatrix(MatrixOracleHandle):
    """Square parent embedded top-left in a larger square; identity on the
    padded diagonal, zeros elsewhere in the border. Border entries are
    structural and charge nothing."""

    __slots__ = ("_parent",)

    def __init__(self, parent: MatrixOracleHandle, size: int):
        super().__init__(size, size, parent.field, parent.ledger)
        self._parent = parent

    def _read_values(self, r0, nr, c0, nc):
        n = self._parent.rows
        out = np.zeros((nr, nc), dtype=np.int64)
        ri = min(r0 + nr, n)
        ci = min(c0 + nc, n)
        if r0 < ri and c0 < ci:
            out[: ri - r0, : ci - c0] = self._parent._read_values(r0, ri - r0, c0, ci - c0)
        one = 1 % self.field.modulus
        for t in range(max(r0, n), r0 + nr):
            if c0 <= t < c0 + nc:
                out[t - r0, t - c0] = one
        return out


class _PlantedMatrix(MatrixOracleHandle):
    """Strips stacked in one array, one of them a live strip (see plant_rows)."""

    __slots__ = ("_values", "_live", "_lo")

    def __init__(self, values: np.ndarray, live: MatrixOracleHandle, slot: int):
        super().__init__(values.shape[0], values.shape[1], live.field, live.ledger)
        self._values = values
        self._live = live
        self._lo = slot * live.rows

    def _read_values(self, r0, nr, c0, nc):
        lo = max(r0, self._lo)
        hi = min(r0 + nr, self._lo + self._live.rows)
        live_rows = max(0, hi - lo)
        if live_rows:
            self._live._read_values(lo - self._lo, live_rows, c0, nc)
        self.ledger.charge(SOURCE_SCRATCH, (nr - live_rows) * nc)
        return self._values[r0 : r0 + nr, c0 : c0 + nc]


# ---------------------------------------------------------------------------
# vector handles
# ---------------------------------------------------------------------------


class VectorOracleHandle:
    """Bulk-read access to a length-n vector over a prime field."""

    __slots__ = ("length", "field", "ledger")

    def __init__(self, length: int, field: PrimeField, ledger: QueryLedger):
        self.length = length
        self.field = field
        self.ledger = ledger

    def read_all(self) -> np.ndarray:
        return self._read_values(0, self.length)

    def to_vector(self) -> FpVector:
        # reads yield canonical residues by the handle invariant
        return FpVector._trusted(self.field, self.read_all())

    def _read_values(self, off: int, n: int) -> np.ndarray:
        raise NotImplementedError


class _WrappedVector(VectorOracleHandle):
    __slots__ = ("_values", "source")

    def __init__(self, vector: FpVector, ledger: QueryLedger, source: str):
        super().__init__(vector.length, vector.field, ledger)
        self._values = vector.values
        self.source = source

    def _read_values(self, off, n):
        # a view, not a copy: read results are treated as immutable everywhere
        self.ledger.charge(self.source, n)
        return self._values[off : off + n]


class _ConcatVector(VectorOracleHandle):
    __slots__ = ("_children", "_child_len")

    def __init__(self, children: Sequence[VectorOracleHandle]):
        d = children[0].length
        super().__init__(d * len(children), children[0].field, children[0].ledger)
        self._children = list(children)
        self._child_len = d

    def _read_values(self, off, n):
        d = self._child_len
        parts = []
        lo = off
        end = off + n
        while lo < end:
            c = lo // d
            hi = min(end, (c + 1) * d)
            parts.append(self._children[c]._read_values(lo - c * d, hi - lo))
            lo = hi
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


class _VectorWindow(VectorOracleHandle):
    __slots__ = ("_parent", "_off")

    def __init__(self, parent: VectorOracleHandle, offset: int, n: int):
        super().__init__(n, parent.field, parent.ledger)
        self._parent = parent
        self._off = offset

    def _read_values(self, off, n):
        return self._parent._read_values(off + self._off, n)


class _SumVector(VectorOracleHandle):
    """Pointwise sum: each entry read reads that entry of every summand once."""

    __slots__ = ("_children",)

    def __init__(self, children: Sequence[VectorOracleHandle]):
        super().__init__(children[0].length, children[0].field, children[0].ledger)
        self._children = list(children)

    def _read_values(self, off, n):
        acc = np.zeros(n, dtype=np.int64)
        for c in self._children:
            acc = (acc + c._read_values(off, n)) % self.field.modulus
        return acc


class _PlantedVector(VectorOracleHandle):
    """Segments laid end to end in one array, one of them live (see plant_vector)."""

    __slots__ = ("_values", "_live", "_lo")

    def __init__(self, values: np.ndarray, live: VectorOracleHandle, slot: int):
        super().__init__(values.shape[0], live.field, live.ledger)
        self._values = values
        self._live = live
        self._lo = slot * live.length

    def _read_values(self, off, n):
        lo = max(off, self._lo)
        hi = min(off + n, self._lo + self._live.length)
        live_n = max(0, hi - lo)
        if live_n:
            self._live._read_values(lo - self._lo, live_n)
        self.ledger.charge(SOURCE_SCRATCH, n - live_n)
        return self._values[off : off + n]


class _PaddedVector(VectorOracleHandle):
    __slots__ = ("_parent",)

    def __init__(self, parent: VectorOracleHandle, size: int):
        super().__init__(size, parent.field, parent.ledger)
        self._parent = parent

    def _read_values(self, off, n):
        m = self._parent.length
        out = np.zeros(n, dtype=np.int64)
        hi = min(off + n, m)
        if off < hi:
            out[: hi - off] = self._parent._read_values(off, hi - off)
        return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def wrap_matrix(matrix: FpMatrix, ledger: QueryLedger, source: str = SOURCE_MATRIX) -> MatrixOracleHandle:
    """Expose a concrete matrix as an oracle; each read charges `source`."""
    return _WrappedMatrix(matrix, ledger, source)


def wrap_vector(vector: FpVector, ledger: QueryLedger, source: str = SOURCE_VECTOR) -> VectorOracleHandle:
    """Expose a concrete vector as an oracle; each read charges `source`."""
    return _WrappedVector(vector, ledger, source)


def _check_uniform(handles, what: str):
    if not handles:
        raise ValueError(f"{what} requires at least one handle")
    field = handles[0].field
    for h in handles[1:]:
        if h.field != field:
            raise ValueError(f"{what}: field mismatch among handles")


def concat_rows(handles: Sequence[MatrixOracleHandle]) -> MatrixOracleHandle:
    """Stack N equally shaped d x n oracles into an (N*d) x n oracle.

    Each entry read is routed to exactly one component and charged there.
    """
    _check_uniform(handles, "concat_rows")
    shape = (handles[0].rows, handles[0].cols)
    for h in handles[1:]:
        if (h.rows, h.cols) != shape:
            raise ValueError("concat_rows: all handles must share one shape")
    return _RowConcatMatrix(handles)


def concat_cols(handles: Sequence[MatrixOracleHandle]) -> MatrixOracleHandle:
    """Join N equally shaped d x n oracles side by side into d x (N*n)."""
    _check_uniform(handles, "concat_cols")
    shape = (handles[0].rows, handles[0].cols)
    for h in handles[1:]:
        if (h.rows, h.cols) != shape:
            raise ValueError("concat_cols: all handles must share one shape")
    return _ColConcatMatrix(handles)


def concat_vectors(handles: Sequence[VectorOracleHandle]) -> VectorOracleHandle:
    """Concatenate N equal-length vector oracles."""
    _check_uniform(handles, "concat_vectors")
    d = handles[0].length
    for h in handles[1:]:
        if h.length != d:
            raise ValueError("concat_vectors: all handles must share one length")
    return _ConcatVector(handles)


def plant_rows(values: np.ndarray, live: MatrixOracleHandle, slot: int) -> MatrixOracleHandle:
    """View a (k*d) x n array of k stacked d x n strips as one oracle, where
    strip `slot` is the live d x n oracle and the rest are scratch.

    The caller has already written the live strip's values into rows
    [slot*d, (slot+1)*d) of `values`; reads return views of `values`. An
    entry read in the live rows is charged through the live handle, as
    reading it would be, and any other entry read charges one scratch
    query, as a row concatenation of scratch-wrapped co-strips around the
    live strip would.
    """
    d = live.rows
    if values.ndim != 2 or values.shape[1] != live.cols or values.shape[0] % d != 0:
        raise ValueError(f"buffer shape {values.shape} does not stack {live.rows}x{live.cols} strips")
    if not 0 <= slot < values.shape[0] // d:
        raise IndexError(f"slot {slot} out of range for {values.shape[0] // d} strips")
    return _PlantedMatrix(values, live, slot)


def plant_vector(values: np.ndarray, live: VectorOracleHandle, slot: int) -> VectorOracleHandle:
    """View a length-(k*d) array of k segments as one oracle, where segment
    `slot` is the live length-d oracle and the rest are scratch.

    The vector counterpart of plant_rows, with the same contract.
    """
    d = live.length
    if values.ndim != 1 or values.shape[0] % d != 0:
        raise ValueError(f"buffer shape {values.shape} does not hold length-{d} segments")
    if not 0 <= slot < values.shape[0] // d:
        raise IndexError(f"slot {slot} out of range for {values.shape[0] // d} segments")
    return _PlantedVector(values, live, slot)


def extract_submatrix(handle: MatrixOracleHandle, row_offset: int, d: int) -> MatrixOracleHandle:
    """View d consecutive rows starting at row_offset (all columns)."""
    if d <= 0:
        raise ValueError("row count must be positive")
    if not (0 <= row_offset and row_offset + d <= handle.rows):
        raise IndexError(f"row window [{row_offset},{row_offset + d}) out of bounds")
    return _MatrixWindow(handle, row_offset, d, 0, handle.cols)


def extract_submatrix_cols(handle: MatrixOracleHandle, col_offset: int, d: int) -> MatrixOracleHandle:
    """View d consecutive columns starting at col_offset (all rows)."""
    if d <= 0:
        raise ValueError("column count must be positive")
    if not (0 <= col_offset and col_offset + d <= handle.cols):
        raise IndexError(f"column window [{col_offset},{col_offset + d}) out of bounds")
    return _MatrixWindow(handle, 0, handle.rows, col_offset, d)


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
    return _MatrixWindow(handle, i * d, d, j * d, d)


def extract_subvector(handle: VectorOracleHandle, offset: int, d: int) -> VectorOracleHandle:
    """View d consecutive entries starting at offset."""
    if d <= 0:
        raise ValueError("length must be positive")
    if not (0 <= offset and offset + d <= handle.length):
        raise IndexError(f"window [{offset},{offset + d}) out of bounds")
    return _VectorWindow(handle, offset, d)


def sum_vector_oracles(handles: Sequence[VectorOracleHandle]) -> VectorOracleHandle:
    """Pointwise sum of equal-length oracles; an entry read costs one per summand."""
    _check_uniform(handles, "sum_vector_oracles")
    d = handles[0].length
    for h in handles[1:]:
        if h.length != d:
            raise ValueError("sum_vector_oracles: all handles must share one length")
    return _SumVector(handles)


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
    return _BlockEmbedMatrix(handle, slot, k)


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
    return _PaddedMatrix(handle, size)


def pad_vector(handle: VectorOracleHandle, size: int) -> VectorOracleHandle:
    """Zero-extend a vector oracle to the given length."""
    if size < handle.length:
        raise ValueError(f"padded size {size} smaller than handle length {handle.length}")
    if size == handle.length:
        return handle
    return _PaddedVector(handle, size)
