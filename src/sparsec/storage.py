"""Compressed tensor storage: COO exchange form, pointers/indices/values
packing, lexicographic insertion, and the expand/compress workspace.

The layout realized here keeps, per storage level, a pointers array and an
indices array. "Pointers" are integer offsets delimiting each parent
position's segment in the next level's arrays -- a format concept, not
machine addresses. Dense levels store nothing and materialize every
position implicitly, which can introduce explicit zeros into the values
array; explicit zeros are preserved throughout, never pruned.

`CooTensor` stays the exchange form, but packing builds whole arrays with
numpy: one sort-and-merge of the coordinates (`_sorted_unique`) feeds
`pack`, `CooTensor.normalize` and `CooTensor.to_dense`. The element-wise
`StorageBuilder` serves only outputs produced in order during execution.
Arrays go back into `SparseStorage` as tuples of Python ints and floats.
"""

import math
import struct
from array import array
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from operator import itemgetter
from typing import Iterator, Sequence, Tuple

import numpy as np

from .encoding import COMPRESSED, DENSE, Encoding, TensorType, make_encoding
from .errors import (
    BitWidthOverflow,
    CoordNotInteger,
    CoordOutOfBounds,
    LevelIsDense,
    MalformedStorage,
    OutOfOrderInsertion,
    ParseError,
    RankMismatch,
    ShapeMismatch,
    SparsecError,
)


@dataclass
class CooTensor:
    """Coordinate-form tensor: explicit (coords, value) pairs.

    The universal exchange format: every reader, writer, converter, and
    packer goes through it. `normalize` sorts entries lexicographically by
    coordinate and sums duplicates (Matrix Market convention).
    """

    shape: tuple
    entries: list

    def __init__(self, shape, entries=()):
        self.shape = tuple(int(e) for e in shape)
        self.entries = [(tuple(c), float(v)) for c, v in entries]

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def check_bounds(self):
        """Raise RankMismatch or CoordOutOfBounds for a bad coordinate."""
        _coo_arrays(self)

    def normalize(self) -> "CooTensor":
        """Sorted unique-coordinate copy; duplicate coordinates are summed."""
        coords, values = _sorted_unique(self, range(self.rank))
        return CooTensor(self.shape, zip(map(tuple, coords.tolist()), values.tolist()))

    def nonzero_entries(self) -> list:
        """Entries with value != 0, i.e. with explicit zeros dropped."""
        return [(c, v) for c, v in self.entries if v != 0.0]

    def to_dense(self) -> "DenseTensor":
        coords, values = _sorted_unique(self, range(self.rank))
        flat = np.zeros(len(values), np.int64)
        for column, extent in zip(coords.T, self.shape):
            flat = flat * extent + column
        data = np.zeros(math.prod(self.shape))
        data[flat] = values
        return DenseTensor(self.shape, data.tolist())


def _coo_arrays(coo: CooTensor):
    """The entries as an (nnz, rank) int64 coordinate array and a float64
    value array, after checking every coordinate's rank, type and bounds."""
    d, n = coo.rank, coo.nnz
    coord_tuples = list(map(itemgetter(0), coo.entries))
    if n and set(map(len, coord_tuples)) != {d}:
        bad = next(c for c in coord_tuples if len(c) != d)
        raise RankMismatch(f"coordinate {bad} in a rank-{d} tensor")
    try:
        # A signed 64-bit array takes only integers (`np.int64` too) and
        # raises TypeError on 1.5, which a numpy int64 conversion would
        # truncate to 1.
        flat = array("q", list(chain.from_iterable(coord_tuples)))
        coords = np.asarray(flat).reshape(n, d)
        outside = (coords < 0) | (coords >= np.array(coo.shape, np.int64))
    except TypeError:
        bad = next(c for c in coord_tuples if not all(isinstance(x, Integral) for x in c))
        raise CoordNotInteger(f"coordinate {bad} is not an integer") from None
    except OverflowError:
        raise CoordOutOfBounds(f"coordinates of shape {coo.shape} exceed 64 bits") from None
    if outside.any():
        bad = coord_tuples[int(outside.any(axis=1).argmax())]
        raise CoordOutOfBounds(f"coordinate {bad} outside shape {coo.shape}")
    return coords, np.fromiter(map(itemgetter(1), coo.entries), np.float64, n)


def _sorted_unique(coo: CooTensor, order):
    """Entries sorted lexicographically by their coordinates taken in
    `order` (a permutation of the dimensions), duplicates summed.

    Coordinates come back in logical dimension order. The sort is stable
    and `np.add.at` adds in index order, so duplicates are summed into 0.0
    in entry order, exactly as a sequential loop would. (`np.add.reduceat`
    sums long runs pairwise, which rounds differently.)
    """
    coords, values = _coo_arrays(coo)
    n = len(values)
    if n == 0:
        return coords, values
    if coo.rank:
        perm = np.lexsort([coords[:, k] for k in reversed(order)])
        coords, values = coords[perm], values[perm]
    first = np.ones(n, bool)
    first[1:] = (coords[1:] != coords[:-1]).any(axis=1)
    merged = np.zeros(np.count_nonzero(first))
    np.add.at(merged, np.cumsum(first) - 1, values)
    return coords[first], merged


@dataclass
class DenseTensor:
    """Flat row-major dense tensor of 64-bit reals."""

    shape: tuple
    data: list

    def __init__(self, shape, data):
        self.shape = tuple(int(e) for e in shape)
        self.data = [float(v) for v in data]
        if len(self.data) != self.volume:
            raise ShapeMismatch(
                f"{len(self.data)} values for shape {self.shape} (need {self.volume})"
            )

    @classmethod
    def zeros(cls, shape) -> "DenseTensor":
        shape = tuple(shape)
        n = 1
        for e in shape:
            n *= e
        return cls(shape, [0.0] * n)

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def volume(self) -> int:
        n = 1
        for e in self.shape:
            n *= e
        return n

    def offset(self, coords) -> int:
        off = 0
        for c, e in zip(coords, self.shape):
            if c < 0 or c >= e:
                raise CoordOutOfBounds(f"coordinate {coords} outside shape {self.shape}")
            off = off * e + c
        return off

    def get(self, coords) -> float:
        return self.data[self.offset(coords)]

    def set(self, coords, value):
        self.data[self.offset(coords)] = float(value)

    def to_coo(self, drop_zeros: bool = True) -> CooTensor:
        entries = []
        for flat, value in enumerate(self.data):
            if drop_zeros and value == 0.0:
                continue
            coords = []
            rem = flat
            for e in reversed(self.shape):
                coords.append(rem % e)
                rem //= e
            entries.append((tuple(reversed(coords)), value))
        return CooTensor(self.shape, entries)


def _width_limit_check(values: np.ndarray, width: int, what: str):
    if width == 0 or not values.size:
        return
    top = int(values.max())
    if top > (1 << width) - 1:
        raise BitWidthOverflow(f"{what} value {top} does not fit in {width} bits")


def _level_array(values, level: int, what: str) -> np.ndarray:
    try:
        return np.fromiter(values, np.int64, len(values))
    except (OverflowError, TypeError, ValueError):
        raise MalformedStorage(f"level {level}: {what} must be 64-bit integers") from None


@dataclass
class SparseStorage:
    """Packed tensor: per-level pointers/indices plus a flat values array.

    Arrays are indexed by storage level; dense levels keep both arrays
    empty. Instances are frozen tuples after construction and safe to
    share. Build them with `pack` or a `StorageBuilder`, never by hand.
    """

    ttype: TensorType
    pointers: tuple
    indices: tuple
    values: tuple

    def __post_init__(self):
        self.validate()

    @property
    def encoding(self) -> Encoding:
        return self.ttype.encoding

    @property
    def rank(self) -> int:
        return self.ttype.rank

    @property
    def shape(self) -> tuple:
        return self.ttype.shape

    @property
    def nnz(self) -> int:
        """Count of stored values that are not explicit zeros."""
        return sum(1 for v in self.values if v != 0.0)

    def validate(self):
        """Check every format invariant with whole-array operations.

        Raises MalformedStorage (BitWidthOverflow for a narrow width), so
        the checks hold under `python -O` too.
        """
        enc = self.ttype.encoding
        if enc is None:
            raise ShapeMismatch("SparseStorage requires an encoding on its TensorType")
        sshape = self.ttype.storage_shape()
        d = self.rank
        if len(self.pointers) != d or len(self.indices) != d:
            raise RankMismatch("need one pointers and one indices array per level")
        positions = 1
        for l in range(d):
            if enc.levels[l] is DENSE:
                if len(self.pointers[l]) or len(self.indices[l]):
                    raise MalformedStorage(f"dense level {l} must keep empty arrays")
                positions *= sshape[l]
                continue
            if len(self.pointers[l]) != positions + 1:
                raise MalformedStorage(
                    f"level {l}: {len(self.pointers[l])} pointers for {positions} parent positions"
                )
            ptrs = _level_array(self.pointers[l], l, "pointers")
            idxs = _level_array(self.indices[l], l, "indices")
            if ptrs[0] != 0:
                raise MalformedStorage(f"level {l}: pointers must start at 0")
            if (ptrs[1:] < ptrs[:-1]).any():
                raise MalformedStorage(f"level {l}: pointers must be non-decreasing")
            if ptrs[-1] != len(idxs):
                raise MalformedStorage(f"level {l}: pointers must cover the indices")
            if len(idxs):
                # Each index must exceed its predecessor, except where a
                # segment starts.
                rising = idxs[1:] > idxs[:-1]
                starts = ptrs[1:-1]
                rising[starts[(starts > 0) & (starts < len(idxs))] - 1] = True
                if not rising.all():
                    raise MalformedStorage(
                        f"level {l}: indices within a segment must strictly increase"
                    )
                if idxs.min() < 0 or idxs.max() >= sshape[l]:
                    raise MalformedStorage(f"level {l}: index outside extent {sshape[l]}")
            _width_limit_check(ptrs, enc.pointer_width, "pointer")
            _width_limit_check(idxs, enc.index_width, "index")
            positions = len(idxs)
        if len(self.values) != positions:
            raise MalformedStorage(f"{len(self.values)} values for {positions} stored positions")

    def iterate(self) -> Iterator[Tuple[tuple, float]]:
        """Yield (logical coords, value) in storage-lexicographic order."""
        enc = self.encoding
        sshape = self.ttype.storage_shape()
        d = self.rank
        scoords = [0] * d
        inverse = [enc.dim_of_level(l) for l in range(d)]

        def walk(level, pos):
            if level == d:
                coords = [0] * d
                for l, c in enumerate(scoords):
                    coords[inverse[l]] = c
                yield tuple(coords), self.values[pos]
                return
            if enc.levels[level] is DENSE:
                for i in range(sshape[level]):
                    scoords[level] = i
                    yield from walk(level + 1, pos * sshape[level] + i)
            else:
                ptrs, idxs = self.pointers[level], self.indices[level]
                for p in range(ptrs[pos], ptrs[pos + 1]):
                    scoords[level] = idxs[p]
                    yield from walk(level + 1, p)

        yield from walk(0, 0)

    def to_coo(self) -> CooTensor:
        """Unpack to normalized COO, explicit zeros included."""
        return CooTensor(self.shape, self.iterate()).normalize()


def unpack(storage: SparseStorage) -> CooTensor:
    return storage.to_coo()


def iterate(storage: SparseStorage) -> Iterator[Tuple[tuple, float]]:
    return storage.iterate()


def level_pointers(storage: SparseStorage, level: int) -> tuple:
    """Read-only pointers array of one storage level."""
    if storage.encoding.levels[level] is DENSE:
        raise LevelIsDense(f"storage level {level} is dense and has no pointers array")
    return storage.pointers[level]


def level_indices(storage: SparseStorage, level: int) -> tuple:
    """Read-only indices array of one storage level."""
    if storage.encoding.levels[level] is DENSE:
        raise LevelIsDense(f"storage level {level} is dense and has no indices array")
    return storage.indices[level]


def values_view(storage: SparseStorage) -> tuple:
    return storage.values


class StorageBuilder:
    """Incremental construction of a SparseStorage by lexicographic appends.

    Insertions must arrive strictly increasing in storage-lexicographic
    order (logical coordinates are permuted internally). The builder keeps
    per-level partial arrays and closes segments as coordinates advance, so
    finalize() is O(1) past the trailing dense fill.

    The engine builds sparse outputs with it: direct-lex insertion calls
    `insert` per element, and the workspace `compress` appends one whole
    innermost segment at a time through `insert_segment`. `pack` does not
    use it; the tests use it as the per-element reference for `pack`.
    """

    def __init__(self, ttype: TensorType):
        if ttype.encoding is None:
            raise ShapeMismatch("StorageBuilder needs a sparse TensorType")
        self.ttype = ttype
        self.enc = ttype.encoding
        self.sshape = ttype.storage_shape()
        self.d = ttype.rank
        self.pointers = [[] for _ in range(self.d)]
        self.indices = [[] for _ in range(self.d)]
        self.values = []
        self._open = None  # storage coords of the open path, None before first insert
        self._done = False
        self._ptr_limit = ((1 << self.enc.pointer_width) - 1) if self.enc.pointer_width else None
        self._idx_limit = ((1 << self.enc.index_width) - 1) if self.enc.index_width else None

    def insert(self, coords, value: float):
        """Append one element given logical coordinates."""
        enc = self.enc
        scoords = tuple(coords[enc.dim_of_level(l)] for l in range(self.d))
        self.insert_storage(scoords, value)

    def insert_storage(self, scoords, value: float):
        """Append one element given storage-order coordinates."""
        assert not self._done, "builder already finalized"
        if len(scoords) != self.d:
            raise RankMismatch(f"{len(scoords)} coordinates for rank {self.d}")
        for c, e in zip(scoords, self.sshape):
            if c < 0 or c >= e:
                raise CoordOutOfBounds(f"storage coordinate {scoords} outside {self.sshape}")
        if self._open is None:
            start = 0
        else:
            start = next((l for l in range(self.d) if scoords[l] != self._open[l]), self.d)
            if start == self.d or scoords[start] < self._open[start]:
                raise OutOfOrderInsertion(
                    f"insertion at {scoords} does not follow {self._open} in storage order"
                )
            for level in range(self.d - 1, start, -1):
                self._close(level)
        for level in range(start, self.d):
            lo = self._open[level] + 1 if (self._open is not None and level == start) else 0
            if self.enc.levels[level] is DENSE:
                for _ in range(lo, scoords[level]):
                    self._fill_empty(level + 1)
            else:
                idx = scoords[level]
                if self._idx_limit is not None and idx > self._idx_limit:
                    raise BitWidthOverflow(
                        f"index {idx} does not fit in {self.enc.index_width} bits"
                    )
                self.indices[level].append(idx)
        self.values.append(float(value))
        self._open = tuple(scoords)

    def insert_segment(self, prefix: tuple, idxs: Sequence[int], row: Sequence[float]):
        """Append the elements (prefix + (i,), row[i]) for the non-empty,
        strictly increasing innermost indices `idxs` (storage order).

        The first element goes through `insert_storage`, which closes and
        fills the levels above; the rest extend the innermost level at once.
        A dense innermost level takes `row` whole between the first and last
        index, so `row` must hold 0.0 at the indices not listed.
        """
        first, last = idxs[0], idxs[-1]
        self.insert_storage(prefix + (first,), row[first])
        inner = self.d - 1
        if last >= self.sshape[inner]:
            raise CoordOutOfBounds(
                f"storage coordinate {prefix + (last,)} outside {self.sshape}"
            )
        if self.enc.levels[inner] is DENSE:
            self.values.extend(row[first + 1 : last + 1])
        else:
            if self._idx_limit is not None and last > self._idx_limit:
                raise BitWidthOverflow(
                    f"index {last} does not fit in {self.enc.index_width} bits"
                )
            self.indices[inner].extend(idxs[1:])
            self.values.extend([row[i] for i in idxs[1:]])
        self._open = prefix + (last,)

    def _close(self, level):
        # The open node at `level` is complete: dense levels owe their
        # remaining positions, compressed levels owe a pointer boundary.
        if self.enc.levels[level] is DENSE:
            for _ in range(self._open[level] + 1, self.sshape[level]):
                self._fill_empty(level + 1)
        else:
            self._append_pointer(level)

    def _fill_empty(self, level):
        # Materialize a structurally empty subtree rooted at `level`.
        if level == self.d:
            self.values.append(0.0)
            return
        if self.enc.levels[level] is DENSE:
            for _ in range(self.sshape[level]):
                self._fill_empty(level + 1)
        else:
            self._append_pointer(level)

    def _append_pointer(self, level):
        p = len(self.indices[level])
        if self._ptr_limit is not None and p > self._ptr_limit:
            raise BitWidthOverflow(
                f"pointer {p} does not fit in {self.enc.pointer_width} bits"
            )
        self.pointers[level].append(p)

    def finalize(self) -> SparseStorage:
        assert not self._done, "builder already finalized"
        self._done = True
        for level in range(self.d):
            if self.enc.levels[level] is COMPRESSED:
                self.pointers[level].insert(0, 0)
        if self._open is None:
            self._fill_empty(0)
        else:
            for level in range(self.d - 1, -1, -1):
                self._close(level)
        return SparseStorage(
            self.ttype,
            tuple(tuple(p) for p in self.pointers),
            tuple(tuple(i) for i in self.indices),
            tuple(self.values),
        )


def lex_insert(builder: StorageBuilder, coords, value: float):
    builder.insert(coords, value)


def pack(coo: CooTensor, enc: Encoding) -> SparseStorage:
    """Materialize a COO tensor into the layout described by `enc`.

    Entries are sorted and merged in storage order, then built level by
    level: a dense level maps each entry to `parent * extent + coord`; a
    compressed level keeps the coordinate where the storage prefix changes
    and counts those per parent position into its pointers.
    """
    if enc.rank != coo.rank:
        raise RankMismatch(f"rank-{enc.rank} encoding for a rank-{coo.rank} tensor")
    ttype = TensorType(coo.shape, enc)
    order = [enc.dim_of_level(l) for l in range(enc.rank)]
    coords, values = _sorted_unique(coo, order)
    n = len(values)
    pos = np.zeros(n, np.int64)  # each entry's position at the current level
    positions = 1
    new = np.zeros(n, bool)  # entry starts a new storage prefix at this level
    new[:1] = True
    pointers, indices = [], []
    for l, extent in enumerate(ttype.storage_shape()):
        column = coords[:, order[l]]
        new[1:] |= column[1:] != column[:-1]
        if enc.levels[l] is DENSE:
            pos = pos * extent + column
            positions *= extent
            pointers.append(())
            indices.append(())
            continue
        starts = np.flatnonzero(new)
        ptrs = np.zeros(positions + 1, np.int64)
        np.cumsum(np.bincount(pos[starts], minlength=positions), out=ptrs[1:])
        pointers.append(tuple(ptrs.tolist()))
        indices.append(tuple(column[starts].tolist()))
        pos = np.cumsum(new) - 1
        positions = len(starts)
    data = np.zeros(positions)
    data[pos] = values
    return SparseStorage(ttype, tuple(pointers), tuple(indices), tuple(data.tolist()))


@dataclass
class Workspace:
    """Dense scratch row for access-pattern expansion.

    `values` accumulates into arbitrary positions, `filled` marks which
    were touched, and `added` records first touches so compress can reset
    only those entries; the reset work stays proportional to the touches.
    """

    values: list
    filled: list
    added: list

    @property
    def extent(self) -> int:
        return len(self.values)

    @property
    def count(self) -> int:
        return len(self.added)

    def scatter(self, index: int, delta: float):
        self.values[index] += delta
        if not self.filled[index]:
            self.filled[index] = True
            self.added.append(index)


def expand(extent: int) -> Workspace:
    """Allocate an all-zero, all-unfilled workspace of the given extent."""
    if extent < 0:
        raise ShapeMismatch(f"workspace extent must be >= 0, got {extent}")
    return Workspace([0.0] * extent, [False] * extent, [])


def compress(ws: Workspace, builder: StorageBuilder, prefix_scoords: Sequence[int]):
    """Drain the workspace into the builder under a storage-order prefix.

    Touched indices are sorted and appended as one innermost segment under
    the prefix, then exactly the touched values/filled slots are reset so
    the workspace is immediately reusable.
    """
    added = ws.added
    if not added:
        return
    added.sort()
    builder.insert_segment(tuple(prefix_scoords), added, ws.values)
    values, filled = ws.values, ws.filled
    for idx in added:
        values[idx] = 0.0
        filled[idx] = False
    added.clear()


def dump_binary(storage: SparseStorage) -> bytes:
    """Serialize storage for debugging, honoring the declared bit widths.

    Layout (all little-endian):
      magic b"SPST", version u8, rank u8, pointer-width u8, index-width u8,
      level types (u8 each: 0 dense / 1 compressed), ordering (u8 each),
      shape (u64 each), then per compressed level in storage order a u64
      count plus the pointers array and a u64 count plus the indices array
      at the declared widths (0 stored as 64 bits), then a u64 count plus
      the values as f64.
    """
    enc = storage.encoding
    out = bytearray(b"SPST")
    out += struct.pack("<BBBB", 1, storage.rank, enc.pointer_width, enc.index_width)
    out += bytes(1 if lt is COMPRESSED else 0 for lt in enc.levels)
    out += bytes(enc.ordering)
    out += struct.pack(f"<{storage.rank}Q", *storage.shape)
    ptr_fmt = {0: "Q", 8: "B", 16: "H", 32: "I", 64: "Q"}[enc.pointer_width]
    idx_fmt = {0: "Q", 8: "B", 16: "H", 32: "I", 64: "Q"}[enc.index_width]
    for l in range(storage.rank):
        if enc.levels[l] is DENSE:
            continue
        for arr, fmt in ((storage.pointers[l], ptr_fmt), (storage.indices[l], idx_fmt)):
            out += struct.pack("<Q", len(arr))
            out += struct.pack(f"<{len(arr)}{fmt}", *arr)
    out += struct.pack("<Q", len(storage.values))
    out += struct.pack(f"<{len(storage.values)}d", *storage.values)
    return bytes(out)


def load_binary(blob: bytes) -> SparseStorage:
    """Inverse of dump_binary; used by tests and debugging sessions.

    A truncated or corrupt dump raises ParseError.
    """
    off = 0

    def read(fmt: str, count: int = 1) -> tuple:
        nonlocal off
        size = count * struct.calcsize(fmt)
        if size > len(blob) - off:
            raise ParseError(f"binary storage dump truncated at byte {len(blob)}")
        out = struct.unpack_from(f"<{count}{fmt}", blob, off)
        off += size
        return out

    if read("s", 4) != (b"SPST",):
        raise ParseError("bad magic in binary storage dump")
    version, rank, ptr_w, idx_w = read("B", 4)
    if version != 1:
        raise ParseError(f"unsupported binary dump version {version}")
    levels = tuple(COMPRESSED if b else DENSE for b in read("B", rank))
    ordering = read("B", rank)
    shape = read("Q", rank)
    try:
        enc = make_encoding(levels, ordering, ptr_w, idx_w)
    except SparsecError as e:
        raise ParseError(f"corrupt binary storage dump: {e}") from e
    fmt_of = {0: "Q", 8: "B", 16: "H", 32: "I", 64: "Q"}
    pointers, indices = [], []
    for l in range(rank):
        if levels[l] is DENSE:
            pointers.append(())
            indices.append(())
            continue
        pointers.append(read(fmt_of[ptr_w], *read("Q")))
        indices.append(read(fmt_of[idx_w], *read("Q")))
    values = read("d", *read("Q"))
    if off != len(blob):
        raise ParseError(f"{len(blob) - off} trailing bytes in binary storage dump")
    try:
        return SparseStorage(TensorType(shape, enc), tuple(pointers), tuple(indices), values)
    except SparsecError as e:
        raise ParseError(f"corrupt binary storage dump: {e}") from e
