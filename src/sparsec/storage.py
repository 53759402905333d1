"""Compressed tensor storage: COO exchange form, pointers/indices/values
packing, and the expand/compress workspace.

The layout realized here keeps, per storage level, a pointers array and an
indices array. "Pointers" are integer offsets delimiting each parent
position's segment in the next level's arrays -- a format concept, not
machine addresses. Dense levels store nothing and materialize every
position implicitly, which can introduce explicit zeros into the values
array; explicit zeros are preserved throughout, never pruned.

Every tensor class reads out whole arrays through one method, `arrays()`:
an (n, rank) int64 array of logical coordinates and a float64 value array
(every COO entry, every stored entry of a `SparseStorage`, the nonzeros of
a `DenseTensor`). On top of it one sort-and-merge (`_sorted_unique`) feeds
`pack` and every `to_coo`, and one flat scatter feeds `to_dense`, so
converting between any two formats needs no routine of its own. One level
build (`_build_levels`) turns sorted unique entries into a layout: it is
the only code that lays out a sparse format, for `pack` and for every
sparse output of the engine, whose generated loops collect their entries
(and drain the workspace, `compress`) into flat arrays for it.

A `CooTensor` holds exactly those two arrays, read-only, so its `arrays()`
hands them out after a bounds check and `to_coo` hands merged arrays to a
new one (`CooTensor.from_arrays`) with no per-entry work. A `SparseStorage`
holds its per-level pointers and indices as read-only int64 arrays and its
values as a read-only float64 array, the typed buffers of the paper's
runtime; `pack`, `validate`, `arrays()` and the engine read them whole.
Nothing in the pipeline reads a tensor one element at a time. Two
per-element views stay, built on each read: `SparseStorage`'s tuple views
(`pointers`, `indices`, `values`) and `CooTensor.entries`, because the
benchmark's reference reads them and `__repr__` prints them. A
`DenseTensor` holds its elements, in row-major order, as one read-only
float64 array, typed as those values.

Stored positions are budgeted: a dense output, a `to_dense` result, or a
format whose dense levels would hold more than `_MAX_DENSE_ELEMENTS`
positions, raises DenseOutputTooLarge before it is allocated.
"""

import math
import struct
from array import array
from dataclasses import dataclass
from itertools import chain
from numbers import Integral

import numpy as np

from .encoding import COMPRESSED, DENSE, Encoding, TensorType, make_encoding
from .errors import (
    BitWidthOverflow,
    CoordNotInteger,
    CoordOutOfBounds,
    DenseOutputTooLarge,
    MalformedStorage,
    ParseError,
    RankMismatch,
    ShapeMismatch,
    SparsecError,
)


class CooTensor:
    """Coordinate-form tensor: an (nnz, rank) int64 coordinate array and a
    float64 value array, both read-only, one row per entry.

    The exchange format of the readers and writers in `tensor_io`. Build it
    from (coords, value) pairs, parsed once here, or with `from_arrays`.
    Values are converted with `float` at construction; coordinates are
    checked (rank, integer, 64-bit, bounds) at the first read (`arrays`,
    `check_bounds`, `pack`, `normalize`, `to_dense`), so pairs that fail
    the conversion are kept as given until then. `normalize` sorts entries
    lexicographically by coordinate and sums duplicates (Matrix Market
    convention).
    """

    def __init__(self, shape, entries=()):
        self.shape = tuple(int(e) for e in shape)
        # One loop that splits the pairs: listing them first would keep
        # every pair tuple alive at once, which costs more in allocation
        # and garbage collection than the loop itself.
        coords, values = [], []
        for c, v in entries:
            coords.append(c)
            values.append(v)
        self._values = _read_only(np.fromiter(map(float, values), np.float64, len(values)))
        try:
            self._coords, self._unparsed = _coord_array(coords, self.shape), None
        except (SparsecError, TypeError):  # TypeError: a coordinate without len()
            self._coords, self._unparsed = None, [tuple(c) for c in coords]

    @classmethod
    def from_arrays(cls, shape, coords, values) -> "CooTensor":
        """A tensor over copies of an (n, rank) integer coordinate array and
        n values; bounds are checked at the first read, as for pairs."""
        coo = cls.__new__(cls)
        coo.shape = tuple(int(e) for e in shape)
        coo._values = _read_only(np.array(values, np.float64))
        coords = np.asarray(coords)
        if coo._values.ndim != 1 or coords.shape != (len(coo._values), coo.rank):
            raise RankMismatch(
                f"coordinates of shape {coords.shape} for values of shape "
                f"{coo._values.shape} in a rank-{coo.rank} tensor"
            )
        if coords.size and coords.dtype.kind not in "iu":
            raise CoordNotInteger(f"coordinates of dtype {coords.dtype} are not integers")
        coo._coords, coo._unparsed = _read_only(coords.astype(np.int64)), None
        return coo

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return len(self._values)

    @property
    def entries(self) -> list:
        """Every entry as a (tuple of Python ints, float) pair, in entry
        order; `__eq__`, `__repr__` and the benchmark's reference read it."""
        coords = self._unparsed
        if coords is None:
            coords = map(tuple, self._coords.tolist())
        return list(zip(coords, self._values.tolist()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __repr__(self):
        return f"CooTensor(shape={self.shape!r}, entries={self.entries!r})"

    def arrays(self):
        """The stored coordinate and value arrays, after checking every
        coordinate's bounds (and first, for pairs that failed to parse,
        their rank, type and width, which raises)."""
        coords = self._coords
        if coords is None:
            coords = _coord_array(self._unparsed, self.shape)
        # Viewed as uint64, a negative coordinate is at least 2**63, so with
        # each extent clamped into [0, 2**63] one maximum per dimension
        # checks both of its ends.
        unsigned = coords.view(np.uint64)
        limits = [min(max(extent, 0), 1 << 63) for extent in self.shape]
        if len(coords) and any(unsigned[:, k].max() >= e for k, e in enumerate(limits)):
            outside = unsigned >= np.array(limits, np.uint64)
            bad = tuple(coords[outside.any(axis=1).argmax()].tolist())
            raise CoordOutOfBounds(f"coordinate {bad} outside shape {self.shape}")
        return coords, self._values

    def check_bounds(self):
        """Raise RankMismatch, CoordNotInteger or CoordOutOfBounds for a
        bad coordinate."""
        self.arrays()

    def normalize(self) -> "CooTensor":
        """Sorted unique-coordinate copy; duplicate coordinates are summed."""
        return self.to_coo(drop_zeros=False)

    def to_coo(self, drop_zeros: bool = False) -> "CooTensor":
        """`normalize`, with the zero sums dropped when `drop_zeros`."""
        return _merged_coo(self, drop_zeros)

    def to_dense(self) -> "DenseTensor":
        """Duplicates summed, then scattered into a zero buffer."""
        return _scatter(self.shape, *_sorted_unique(self, range(self.rank)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The most elements a dense output buffer, or the positions of one level of
# a storage, may hold (2 GiB of float64).
_MAX_DENSE_ELEMENTS = 1 << 28


def _check_budget(count: int, what):
    """Raise DenseOutputTooLarge, before anything is allocated, when `what`
    (a name, or the TensorType of a storage) needs `count` elements, past
    `_MAX_DENSE_ELEMENTS`."""
    if count > _MAX_DENSE_ELEMENTS:
        if isinstance(what, TensorType):
            what = f"{what.encoding.describe()} storage of shape {what.shape}"
        raise DenseOutputTooLarge(
            f"{what} needs {count} elements, past the budget of {_MAX_DENSE_ELEMENTS}"
        )


def _check_leading_dense(ttype: TensorType):
    """`_check_budget` on the positions of the leading dense levels of
    `ttype`, which every storage of the type holds whatever its entries."""
    positions = 1
    for level, extent in enumerate(ttype.storage_shape()):
        if ttype.encoding.levels[level] is not DENSE:
            break
        positions *= extent
    _check_budget(positions, ttype)


def _coord_array(coords: list, shape: tuple) -> np.ndarray:
    """`coords` (sequences of `len(shape)` integers) as a read-only
    (n, rank) int64 array; raises RankMismatch, CoordNotInteger or
    CoordOutOfBounds (past 64 bits). Bounds are left to `arrays`."""
    n, rank = len(coords), len(shape)
    if n and set(map(len, coords)) != {rank}:
        bad = next(c for c in coords if len(c) != rank)
        raise RankMismatch(f"coordinate {bad} in a rank-{rank} tensor")
    try:
        # A signed 64-bit array takes only integers (`np.int64` too) and
        # raises TypeError on 1.5, which a numpy int64 conversion would
        # truncate to 1.
        flat = array("q", list(chain.from_iterable(coords)))
    except TypeError:
        bad = next(c for c in coords if not all(isinstance(x, Integral) for x in c))
        raise CoordNotInteger(f"coordinate {bad} is not an integer") from None
    except OverflowError:
        raise CoordOutOfBounds(f"coordinates of shape {shape} exceed 64 bits") from None
    return _read_only(np.asarray(flat).reshape(n, rank))


def _sort_rows(columns: list, extents: list, n: int):
    """The stable permutation that sorts the `n` rows of `columns` (integer
    arrays, the most significant first, each in `range` of its extent)
    lexicographically, and a mask of the sorted rows that differ from the
    row before them.

    The rows sort by one int64 key, `(c0 * e1 + c1) * e2 + c2 ...`, which
    is faster than `np.lexsort` over the columns; `lexsort` runs only where
    the key could pass 2**62.
    """
    first = np.ones(n, bool)
    if math.prod(extents) < 1 << 62:
        key = columns[0] if columns else np.zeros(n, np.int64)
        for column, extent in zip(columns[1:], extents[1:]):
            key = key * extent + column
        perm = np.argsort(key, kind="stable")
        key = key[perm]
        first[1:] = key[1:] != key[:-1]
    else:
        perm = np.lexsort(columns[::-1])
        first[1:] = False
        for column in columns:
            column = column[perm]
            first[1:] |= column[1:] != column[:-1]
    return perm, first


def _merge_runs(columns: list, extents: list, values: np.ndarray):
    """Sort the rows of `columns` lexicographically (`_sort_rows`) and sum
    the `values` of equal rows. Returns, for each distinct row in sorted
    order, the index of its first occurrence and its sum.

    Each sum starts as its first row's value plus 0.0, and `np.add.at`
    adds the rows that repeat an earlier one, in index order; the sort is
    stable, so equal rows are summed into 0.0 in entry order, exactly as a
    sequential loop would (a lone -0.0 sums to 0.0). Where no row repeats,
    nothing is added. (`np.add.reduceat` sums long runs pairwise, which
    rounds differently.)
    """
    perm, first = _sort_rows(columns, extents, len(values))
    starts = np.flatnonzero(first)
    firsts = perm[starts]
    sums = values[firsts]
    sums += 0.0
    if len(starts) < len(values):
        repeats = np.flatnonzero(~first)
        np.add.at(sums, starts.searchsorted(repeats) - 1, values[perm[repeats]])
    return firsts, sums


def _sorted_unique(value, order):
    """The entries of `value.arrays()` (a tensor of any class), sorted
    lexicographically by their coordinates taken in `order` (a permutation
    of the dimensions), duplicates summed in entry order (`_merge_runs`).

    Coordinates come back in logical dimension order, as fresh rows
    gathered with `np.take`, which copies rows of a 2-D array several
    times faster than indexing does. The arrays are read here, not passed
    in, so the unsorted coordinates a `SparseStorage` or `DenseTensor`
    reads out are freed during the sort.
    """
    coords, values = value.arrays()
    firsts, sums = _merge_runs(
        [coords[:, k] for k in order], [value.shape[k] for k in order], values
    )
    return np.take(coords, firsts, axis=0), sums


def _merged_coo(value, drop_zeros: bool) -> CooTensor:
    """`value.arrays()` sorted by logical coordinates, duplicates summed,
    and the entries that sum to zero dropped when `drop_zeros`."""
    coords, values = _sorted_unique(value, range(value.rank))
    if drop_zeros:
        keep = values != 0.0
        coords, values = coords[keep], values[keep]
    return CooTensor.from_arrays(value.shape, coords, values)


def _scatter(shape, coords: np.ndarray, values: np.ndarray) -> "DenseTensor":
    """A dense tensor holding `values` at `coords` (unique) and 0.0 elsewhere;
    raises DenseOutputTooLarge, before allocating, past the budget."""
    _check_budget(math.prod(shape), f"dense tensor of shape {shape}")
    flat = np.zeros(len(values), np.int64)
    for column, extent in zip(coords.T, shape):
        flat = flat * extent + column
    data = np.zeros(math.prod(shape))
    data[flat] = values
    return DenseTensor(shape, _read_only(data))


class DenseTensor:
    """Flat row-major dense tensor of 64-bit reals, immutable.

    `data` is a read-only float64 array: a numpy array, flattened in C
    order, or a sequence, kept as `SparseStorage` keeps its values
    (`_typed_array`); a non-real value raises MalformedStorage.
    """

    def __init__(self, shape, data):
        self.shape = tuple(int(e) for e in shape)
        if isinstance(data, np.ndarray) and data.ndim != 1:
            data = data.reshape(-1)
        bad = MalformedStorage("dense tensor values must be real numbers")
        self.data = _typed_array(data, np.float64, "biuf", "d", bad)
        if len(self.data) != self.volume:
            raise ShapeMismatch(
                f"{len(self.data)} values for shape {self.shape} (need {self.volume})"
            )

    @classmethod
    def zeros(cls, shape) -> "DenseTensor":
        shape = tuple(shape)
        return cls(shape, _read_only(np.zeros(math.prod(shape))))

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def volume(self) -> int:
        return math.prod(self.shape)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"DenseTensor(shape={self.shape!r}, data={self.data.tolist()!r})"

    def offset(self, coords) -> int:
        off = 0
        for c, e in zip(coords, self.shape):
            if c < 0 or c >= e:
                raise CoordOutOfBounds(f"coordinate {coords} outside shape {self.shape}")
            off = off * e + c
        return off

    def arrays(self):
        """The nonzeros in row-major order, as an (nnz, rank) int64
        coordinate array and a float64 value array."""
        return self._elements(nonzero=True)

    def _elements(self, nonzero: bool):
        flat = np.flatnonzero(self.data) if nonzero else np.arange(self.data.size)
        if not self.rank:  # `np.unravel_index` takes no empty shape
            return np.zeros((len(flat), 0), np.int64), self.data[flat]
        return np.stack(np.unravel_index(flat, self.shape), axis=1), self.data[flat]

    def to_coo(self, drop_zeros: bool = True) -> CooTensor:
        """The nonzeros, or every element when not `drop_zeros`, in
        row-major order."""
        return CooTensor.from_arrays(self.shape, *self._elements(nonzero=drop_zeros))

    def to_dense(self) -> "DenseTensor":
        """A copy."""
        return DenseTensor(self.shape, _read_only(self.data.copy()))


def _width_limit_check(values: np.ndarray, width: int, what: str):
    if width == 0 or not values.size:
        return
    top = int(values.max())
    if top > (1 << width) - 1:
        raise BitWidthOverflow(f"{what} value {top} does not fit in {width} bits")


_INT64_MAX = np.iinfo(np.int64).max
# The arrays of a dense level, which stores none.
_NO_LEVEL = _read_only(np.zeros(0, np.int64))


def _typed_array(values, dtype, kinds: str, code: str, bad: SparsecError) -> np.ndarray:
    """`values`, a flat array of a dtype kind in `kinds` or a sequence, as a
    read-only `dtype` array. A read-only `dtype` array that owns its memory
    is shared; anything else, a read-only view of writable memory included,
    is copied, so a caller's writable memory is never frozen or aliased. A
    sequence goes through an `array` of typecode `code`, which rejects
    what numpy would truncate (a float among integers) or wrap; then `bad`
    is raised."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or (values.size and values.dtype.kind not in kinds):
            raise bad
        if values.dtype == dtype and values.flags.owndata and not values.flags.writeable:
            return values
        return _read_only(values.astype(dtype))
    try:
        return _read_only(np.array(array(code, values), dtype))
    except (OverflowError, TypeError):
        raise bad from None


def _level_array(values, level: int, what: str) -> np.ndarray:
    """A level's pointers or indices as a read-only int64 array
    (`_typed_array`): a float, or an integer past 64 bits, raises
    MalformedStorage rather than truncate."""
    bad = MalformedStorage(f"level {level}: {what} must be 64-bit integers")
    if isinstance(values, np.ndarray) and values.dtype.kind == "u" and values.size:
        if values.max() > _INT64_MAX:
            raise bad
    return _typed_array(values, np.int64, "iu", "q", bad)


class SparseStorage:
    """Packed tensor: per-level pointers/indices plus a flat values array.

    The arrays are read-only numpy arrays, int64 for the pointers and
    indices of each storage level (empty for a dense level) and float64 for
    the values, so instances are immutable and safe to share. The
    constructor takes sequences or arrays, keeps a read-only array of the
    right dtype that owns its memory as it is and copies anything else,
    then runs `validate`.
    `level_arrays` and `value_array` hand out the arrays; the `pointers`,
    `indices` and `values` views build tuples of Python numbers on each
    read, and stay because the benchmark's reference reads them and
    `__repr__` prints them. Build instances with `pack` (or, in the
    engine, `_build_levels`), never by hand.
    """

    def __init__(self, ttype: TensorType, pointers, indices, values):
        self.ttype = ttype
        self._pointers = tuple(_level_array(p, l, "pointers") for l, p in enumerate(pointers))
        self._indices = tuple(_level_array(i, l, "indices") for l, i in enumerate(indices))
        bad = MalformedStorage("values must be a flat sequence of real numbers")
        self._values = _typed_array(values, np.float64, "biuf", "d", bad)
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
        """Count of stored values that are not explicit zeros (-0.0 too)."""
        return int(np.count_nonzero(self._values))

    def level_arrays(self, level: int) -> tuple:
        """The read-only int64 pointers and indices arrays of one storage
        level, both empty for a dense level."""
        return self._pointers[level], self._indices[level]

    @property
    def value_array(self) -> np.ndarray:
        """The read-only float64 values array."""
        return self._values

    def with_values(self, values) -> "SparseStorage":
        """The same layout, its arrays shared, holding `values` instead."""
        return SparseStorage(self.ttype, self._pointers, self._indices, values)

    def with_type(self, ttype: TensorType) -> "SparseStorage":
        """The same arrays, shared, under `ttype`: the same layout with other
        bit widths, checked against them by `validate`."""
        return SparseStorage(ttype, self._pointers, self._indices, self._values)

    @property
    def pointers(self) -> tuple:
        """Every level's pointers as a tuple of Python ints."""
        return tuple(tuple(p.tolist()) for p in self._pointers)

    @property
    def indices(self) -> tuple:
        """Every level's indices as a tuple of Python ints."""
        return tuple(tuple(i.tolist()) for i in self._indices)

    @property
    def values(self) -> tuple:
        """The values as a tuple of Python floats."""
        return tuple(self._values.tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.ttype == other.ttype
            and all(map(np.array_equal, self._pointers, other._pointers))
            and all(map(np.array_equal, self._indices, other._indices))
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self):
        return (
            f"SparseStorage(ttype={self.ttype!r}, pointers={self.pointers!r}, "
            f"indices={self.indices!r}, values={self.values!r})"
        )

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
        if len(self._pointers) != d or len(self._indices) != d:
            raise RankMismatch("need one pointers and one indices array per level")
        positions = 1
        for l in range(d):
            ptrs, idxs = self._pointers[l], self._indices[l]
            if enc.levels[l] is DENSE:
                if len(ptrs) or len(idxs):
                    raise MalformedStorage(f"dense level {l} must keep empty arrays")
                positions *= sshape[l]
                continue
            if len(ptrs) != positions + 1:
                raise MalformedStorage(
                    f"level {l}: {len(ptrs)} pointers for {positions} parent positions"
                )
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
        if len(self._values) != positions:
            raise MalformedStorage(f"{len(self._values)} values for {positions} stored positions")

    def arrays(self):
        """Every stored entry, explicit zeros included, in storage order:
        an (n, rank) int64 array of logical coordinates and the values
        array itself.

        The inverse of `pack`'s level build: a dense level repeats each
        parent position `extent` times, a compressed one as many times as
        its pointers delimit.
        """
        enc = self.encoding
        columns = []  # per level so far, its coordinate at every position
        positions = 1
        for l, extent in enumerate(self.ttype.storage_shape()):
            if enc.levels[l] is DENSE:
                columns = [np.repeat(c, extent) for c in columns]
                columns.append(np.tile(np.arange(extent), positions))
                positions *= extent
            else:
                counts = np.diff(self._pointers[l])
                columns = [np.repeat(c, counts) for c in columns]
                columns.append(self._indices[l])
                positions = len(self._indices[l])
        coords = np.empty((positions, self.rank), np.int64)
        for l, column in enumerate(columns):
            coords[:, enc.dim_of_level(l)] = column
        return coords, self._values

    def to_coo(self, drop_zeros: bool = False) -> CooTensor:
        """Unpack to normalized COO, explicit zeros included unless
        `drop_zeros`."""
        return _merged_coo(self, drop_zeros)

    def to_dense(self) -> DenseTensor:
        """Every stored entry scattered into a zero buffer, unmerged, so a
        stored -0.0 stays -0.0."""
        return _scatter(self.shape, *self.arrays())


def pack(value, enc: Encoding) -> SparseStorage:
    """Materialize a tensor of any class into the layout described by `enc`:
    the entries of `value.arrays()`, sorted and merged in storage order,
    built level by level (`_build_levels`)."""
    if enc.rank != value.rank:
        raise RankMismatch(f"rank-{enc.rank} encoding for a rank-{value.rank} tensor")
    ttype = TensorType(value.shape, enc)
    order = [enc.dim_of_level(l) for l in range(enc.rank)]
    return _build_levels(ttype, *_sorted_unique(value, order))


def _build_levels(ttype: TensorType, coords: np.ndarray, values: np.ndarray) -> SparseStorage:
    """The storage of `ttype` holding `values` at `coords`, an (n, rank)
    array of logical coordinates that are unique and sorted in storage
    order. `values` is taken over: when the last level is compressed, it
    is frozen and becomes the storage's values array.

    Each entry has a position at each level. A dense level maps it to
    `parent * extent + coord`. A compressed level keeps the coordinate of
    each entry that starts a new storage prefix, where the parent position
    or the coordinate changes; parent positions ascend in storage order,
    so its pointers are where each parent position is first reached
    (`searchsorted`). At the last level the entries are unique, so each
    starts a prefix: a compressed one keeps the whole column, and the
    values are the data as they stand; a dense one places each value at
    its position, and every position no entry reaches holds 0.0. Values
    are placed, never summed, so a -0.0 stays -0.0. Widths are checked by
    `SparseStorage.validate`, and the positions of each dense level
    against the budget before anything is allocated.
    """
    enc = ttype.encoding
    n, last = len(values), ttype.rank - 1
    pos = None  # each entry's position at the level above; None while all are 0
    positions = 1
    data = None  # the values as they stand, once the last level is compressed
    pointers, indices = [], []
    for l, extent in enumerate(ttype.storage_shape()):
        column = coords[:, enc.dim_of_level(l)]
        if enc.levels[l] is DENSE:
            positions *= extent
            _check_budget(positions, ttype)
            pos = column if pos is None else pos * extent + column
            pointers.append(_NO_LEVEL)
            indices.append(_NO_LEVEL)
            continue
        if l == last:
            parents, data = pos, values
        else:
            new = np.ones(n, bool)  # the entry starts a new storage prefix here
            new[1:] = column[1:] != column[:-1]
            if pos is not None:
                new[1:] |= pos[1:] != pos[:-1]
            starts = np.flatnonzero(new)
            parents = None if pos is None else pos[starts]
            column = _read_only(column[starts])
            pos = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
        if parents is None:
            ptrs = np.array([0, len(column)], np.int64)
        else:
            ptrs = np.searchsorted(parents, np.arange(positions + 1))
        pointers.append(_read_only(ptrs))
        indices.append(column)
        positions = len(column)
    if data is None:
        data = np.zeros(positions)
        data[pos] = values
    return SparseStorage(ttype, pointers, indices, _read_only(data))


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


def compress(ws: Workspace, prefix: tuple, coords, values):
    """Drain the workspace under `prefix`, the storage-order coordinates
    above its level.

    For each touched index in ascending order, `prefix + (index,)` is
    appended to the flat coordinate collector `coords` and the index's sum
    to `values` (an `array("q")` and an `array("d")`, or lists). Then
    exactly the touched values/filled slots are reset, so the workspace is
    immediately reusable.
    """
    added = ws.added
    added.sort()
    ws_values, filled = ws.values, ws.filled
    values.extend([ws_values[idx] for idx in added])
    for idx in added:
        coords.extend(prefix)
        coords.append(idx)
        ws_values[idx] = 0.0
        filled[idx] = False
    added.clear()


# The array dtype of each declared width in a binary dump (0: 64 bits).
_DUMP_DTYPES = {0: "<u8", 8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}


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
    arrays = []
    for l in range(storage.rank):
        if enc.levels[l] is COMPRESSED:
            pointers, indices = storage.level_arrays(l)
            arrays += [(pointers, _DUMP_DTYPES[enc.pointer_width])]
            arrays += [(indices, _DUMP_DTYPES[enc.index_width])]
    arrays.append((storage.value_array, "<f8"))
    for arr, dtype in arrays:
        out += struct.pack("<Q", len(arr))
        out += arr.astype(dtype).tobytes()
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

    def read_array(dtype: str) -> np.ndarray:
        # A u64 count, then that many elements of `dtype`.
        nonlocal off
        (count,) = read("Q")
        size = count * np.dtype(dtype).itemsize
        if size > len(blob) - off:
            raise ParseError(f"binary storage dump truncated at byte {len(blob)}")
        out = np.frombuffer(blob, dtype, count, off)
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
    pointers, indices = [], []
    for l in range(rank):
        if levels[l] is DENSE:
            pointers.append(())
            indices.append(())
            continue
        pointers.append(read_array(_DUMP_DTYPES[ptr_w]))
        indices.append(read_array(_DUMP_DTYPES[idx_w]))
    values = read_array("<f8")
    if off != len(blob):
        raise ParseError(f"{len(blob) - off} trailing bytes in binary storage dump")
    try:
        return SparseStorage(TensorType(shape, enc), tuple(pointers), tuple(indices), values)
    except SparsecError as e:
        raise ParseError(f"corrupt binary storage dump: {e}") from e
