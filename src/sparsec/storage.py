"""Compressed tensor storage: COO exchange form, pointers/indices/values
packing, and binary dumps.

The layout realized here keeps, per storage level, a pointers array and an
indices array. "Pointers" are integer offsets delimiting each parent
position's segment in the next level's arrays -- a format concept, not
machine addresses. Dense levels store nothing and materialize every
position implicitly, which can introduce explicit zeros into the values
array; explicit zeros are preserved throughout, never pruned.

Every tensor class reads out whole arrays through one method, `arrays()`:
one contiguous read-only int64 column of coordinates per logical
dimension, and a float64 value array (every COO entry, every stored entry
of a `SparseStorage`, the nonzeros of a `DenseTensor`). Coordinates travel
as those columns end to end, as the per-level arrays of the paper's
runtime do: no (n, rank) array is built on the way. On top of `arrays()`
one sort-and-merge (`_sorted_unique`) feeds `pack` and every `to_coo`, and
one flat scatter feeds `to_dense`, so converting between any two formats
needs no routine of its own. One level build (`_build_levels`) turns
sorted unique entries into a layout: it is the only code that lays out a
sparse format, for `pack` and for every sparse output of the engine, which
hands it the columns its loops insert, or their writes merged
(`_merge_runs`) under the workspace or the dense store.

A `CooTensor` holds exactly those columns and values, read-only, each its
own array, checked once when it is made, so its `arrays()` hands them out
as they are, `to_coo` hands merged columns to a new one
(`CooTensor.from_arrays`) with no per-entry work, and `pack` of entries
already in storage order keeps the last level's column as that level's
indices array. A `SparseStorage` keeps its per-level `pointers` and
`indices` as read-only int64 arrays and its `values` as a read-only
float64 array, the typed buffers of the paper's runtime; `pack`,
`validate`, `arrays()` and the engine read them whole. A `DenseTensor`
keeps its elements, in row-major order, as one read-only float64 array,
`data`. Nothing in the pipeline reads a tensor one element at a time. One
per-element view stays, built on each read: `CooTensor.entries`, because
the benchmark reads it and `__repr__` prints it.

Stored positions are budgeted: a dense output, a `to_dense` result, or a
format whose dense levels would hold more than `_MAX_DENSE_ELEMENTS`
positions, raises DenseOutputTooLarge before it is allocated.
"""

import math
import struct
from array import array
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
    clip,
)


class CooTensor:
    """Coordinate-form tensor: one int64 coordinate column per logical
    dimension and a float64 value array, all read-only and of one length,
    one entry per position.

    The exchange format of the readers and writers in `tensor_io`. Build it
    from (coords, value) pairs, parsed once here, or with `from_arrays`.
    Everything is checked at construction: the values as `SparseStorage`
    checks its own (`_typed_array`: a value that is not a real number
    raises MalformedStorage), each coordinate for its rank, type, width
    and bounds (RankMismatch, CoordNotInteger, CoordOutOfBounds), and the
    shape as a `TensorType` checks it (ShapeMismatch). `to_coo` sorts entries
    lexicographically by coordinate and sums duplicates (Matrix Market
    convention).
    """

    def __init__(self, shape, entries=()):
        self.shape = TensorType(shape).shape
        # One loop that splits the pairs: listing them first would keep
        # every pair tuple alive at once, which costs more in allocation
        # and garbage collection than the loop itself.
        coords, values = [], []
        for c, v in entries:
            coords.append(c)
            values.append(v)
        self._values = _typed_array(
            values, np.float64, "biuf", "d", "COO values must be real numbers"
        )
        self._columns = _in_bounds(_coord_columns(coords, self.shape), self.shape)

    @classmethod
    def from_arrays(cls, shape, columns, values) -> "CooTensor":
        """A tensor over `columns`, one integer array of n coordinates per
        dimension, and n values, checked as pairs are. A read-only int64 or
        float64 array that owns its memory is shared, anything else copied
        (`_frozen`)."""
        coo = cls.__new__(cls)
        coo.shape = TensorType(shape).shape
        values = np.asarray(values)
        columns = [np.asarray(c) for c in columns]
        if (
            values.ndim != 1
            or len(columns) != coo.rank
            or any(c.shape != values.shape for c in columns)
        ):
            shapes = ", ".join(str(c.shape) for c in columns[:3])
            shapes += ", ..." if len(columns) > 3 else ""
            raise RankMismatch(
                f"{len(columns)} coordinate columns of shapes {clip(shapes)} for values "
                f"of shape {clip(str(values.shape))} in a rank-{coo.rank} tensor"
            )
        coo._values = _typed_array(
            values, np.float64, "biuf", "d", "COO values must be real numbers"
        )
        for c in columns:
            if c.size and c.dtype.kind not in "iu":
                raise CoordNotInteger(
                    f"coordinates of dtype {clip(str(c.dtype))} are not integers"
                )
            # Checked before the int64 cast, which would wrap it negative.
            if c.size and c.dtype.kind == "u" and c.max() > _INT64_MAX:
                raise CoordOutOfBounds(
                    f"coordinates of shape {clip(str(coo.shape))} exceed 64 bits"
                )
        coo._columns = _in_bounds(tuple(_frozen(c, np.int64) for c in columns), coo.shape)
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
        order; `__repr__` and the benchmark's reference read it."""
        lists = [c.tolist() for c in self._columns]
        coords = zip(*lists) if lists else [()] * self.nnz
        return list(zip(coords, self._values.tolist()))

    def __eq__(self, other):
        """Equal shapes, and equal entries in the same order: compared by
        value, so -0.0 equals 0.0 and NaN equals nothing."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self._values, other._values)
            and all(map(np.array_equal, self._columns, other._columns))
        )

    def __repr__(self):
        return f"CooTensor(shape={self.shape!r}, entries={self.entries!r})"

    def arrays(self):
        """The coordinate columns and value array, as stored."""
        return self._columns, self._values

    def to_coo(self, *, drop_zeros: bool) -> "CooTensor":
        """A sorted unique-coordinate copy, duplicate coordinates summed,
        with the sums exactly zero dropped when `drop_zeros`."""
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


def _check_budget(count: int, what, *args):
    """Raise DenseOutputTooLarge, before anything is allocated, when `what`
    needs `count` elements, past `_MAX_DENSE_ELEMENTS`: the TensorType of a
    storage, or a name, filled in with `args` (`str.format`) only then."""
    if count > _MAX_DENSE_ELEMENTS:
        if isinstance(what, TensorType):
            what = f"{what.encoding.describe()} storage of shape {what.shape}"
        else:
            what = what.format(*args)
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


def _coord_columns(coords: list, shape: tuple) -> tuple:
    """`coords` (iterables of `len(shape)` integers) as one read-only int64
    column per dimension; raises RankMismatch, CoordNotInteger or
    CoordOutOfBounds (past 64 bits). A coordinate without `len()` is
    materialised as a tuple once, and one that is not iterable (a scalar,
    None) raises RankMismatch. Bounds are left to `_in_bounds`."""
    n, rank = len(coords), len(shape)
    try:
        lengths = set(map(len, coords))
    except TypeError:  # an iterator, or a coordinate that is no sequence
        sized = []
        for c in coords:
            try:
                sized.append(tuple(c))
            except TypeError:
                raise RankMismatch(
                    f"coordinate {clip(repr(c))} in a rank-{rank} tensor is not a sequence"
                ) from None
        coords, lengths = sized, set(map(len, sized))
    if n and lengths != {rank}:
        bad = next(c for c in coords if len(c) != rank)
        raise RankMismatch(f"coordinate {clip(str(bad))} in a rank-{rank} tensor")
    try:
        # A signed 64-bit array takes only integers (`np.int64` too) and
        # raises TypeError on 1.5, which a numpy int64 conversion would
        # truncate to 1.
        flat = array("q", list(chain.from_iterable(coords)))
    except TypeError:
        bad = next(c for c in coords if not all(isinstance(x, Integral) for x in c))
        raise CoordNotInteger(f"coordinate {clip(str(bad))} is not an integer") from None
    except OverflowError:
        raise CoordOutOfBounds(f"coordinates of shape {clip(str(shape))} exceed 64 bits") from None
    rows = np.asarray(flat).reshape(n, rank)
    return tuple(_read_only(rows[:, k].copy()) for k in range(rank))


def _in_bounds(columns: tuple, shape: tuple) -> tuple:
    """`columns`, one int64 array per dimension, once every coordinate is
    checked against `shape`; raises CoordOutOfBounds naming the first entry
    outside it."""
    # Viewed as uint64, a negative coordinate is at least 2**63, so with
    # each extent capped at 2**63 one maximum per column checks both of its
    # ends.
    limits = [min(extent, 1 << 63) for extent in shape]
    if any(c.size and c.view(np.uint64).max() >= e for c, e in zip(columns, limits)):
        outside = np.zeros(len(columns[0]), bool)
        for c, e in zip(columns, limits):
            outside |= c.view(np.uint64) >= e
        r = outside.argmax()
        bad = tuple(int(c[r]) for c in columns)
        raise CoordOutOfBounds(f"coordinate {clip(str(bad))} outside shape {clip(str(shape))}")
    return columns


def _row_key(columns: list, extents: list, n: int) -> np.ndarray:
    """The int64 key `(c0 * e1 + c1) * e2 + c2 ...` of the `n` rows of
    `columns` (integer arrays, the most significant first, each in `range`
    of its extent): the first column itself with one column, zeros with
    none, and otherwise one fresh array, built in place. The caller keeps
    the volume below 2**63."""
    if len(columns) < 2:
        return columns[0] if columns else np.zeros(n, np.int64)
    key = columns[0] * extents[1]
    key += columns[1]
    for column, extent in zip(columns[2:], extents[2:]):
        key *= extent
        key += column
    return key


def _row_order(columns: list, extents: list, n: int):
    """The stable permutation that sorts the `n` rows of `columns` (integer
    arrays, the most significant first, each in `range` of its extent)
    lexicographically, None when the rows are already in order, and a mask
    of the sorted rows that differ from the row before them.

    The rows sort by one int64 key (`_row_key`). A key that does not
    descend is already in order. Otherwise each key carries its row index
    in its low `shift` bits, so no two tagged keys are equal and an
    unstable in-place sort (numpy's vectorised quicksort) puts equal keys
    in index order: the low bits read back the stable permutation. The
    key is tagged, sorted and untagged in place, in a copy when it is the
    caller's one column.
    `np.lexsort` over the columns runs only where the volume shifted by
    `shift` bits reaches 2**63.
    """
    first = np.empty(n, bool)
    first[:1] = True
    shift = (n - 1).bit_length()
    if math.prod(extents) << shift >= 1 << 63:
        perm = np.lexsort(columns[::-1])
        if (perm[1:] > perm[:-1]).all():  # the identity
            perm = None
        first[1:] = False
        for column in columns:
            column = column if perm is None else column[perm]
            first[1:] |= column[1:] != column[:-1]
        return perm, first
    key = _row_key(columns, extents, n)
    perm = None
    if np.count_nonzero(key[1:] < key[:-1]):
        if len(columns) == 1:
            key = key.copy()  # the caller's own column
        key <<= shift
        key |= np.arange(n)
        key.sort()
        perm = key & ((1 << shift) - 1)
        key >>= shift
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return perm, first


def _merge_runs(columns: list, extents: list, values: np.ndarray):
    """Sort the rows of `columns` lexicographically (`_row_order`) and sum
    the `values` of equal rows. Returns, for each distinct row in sorted
    order, the index of its first occurrence, and its sum; the indices are
    None when the rows already strictly increase, each its own first.

    Each sum starts as its first row's value plus 0.0, and `np.add.at`
    adds the rows that repeat an earlier one, in index order. The
    permutation is stable (the identity for rows already in order, else
    ordered by the index tag of `_row_order`, or `np.lexsort`), so equal
    rows are summed into 0.0 in entry order, exactly as a sequential loop
    would (a lone -0.0 sums to 0.0). Where no row repeats,
    nothing is added, and rows already in order are not permuted at all.
    (`np.add.reduceat` sums long runs pairwise, which rounds differently.)
    Past the float64 range a sum rounds to inf, and inf - inf to nan,
    silently, as in the engine's `execute`.
    """
    perm, first = _row_order(columns, extents, len(values))
    if perm is None:
        if first.all():
            return None, values + 0.0
        perm = np.arange(len(values))
    firsts = perm[first]
    sums = values[firsts]
    sums += 0.0
    if len(firsts) < len(values):
        repeats = np.flatnonzero(~first)
        # The k-th repeat (from 0), at sorted row r, follows r - k distinct
        # rows: it adds into the last of them.
        group = repeats - np.arange(1, len(repeats) + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(sums, group, values[perm[repeats]])
    return firsts, sums


def _sorted_unique(value, order):
    """The entries of `value.arrays()` (a tensor of any class), sorted
    lexicographically by their coordinates taken in `order` (a permutation
    of the dimensions), duplicates summed in entry order (`_merge_runs`).

    Coordinates come back as read-only columns in logical dimension order:
    the columns read out themselves when their rows already strictly
    increase, else a fresh gather of each. The sums are always a fresh
    array. The arrays are read here, not passed in, so the unsorted columns a
    `SparseStorage` or `DenseTensor` reads out are freed during the sort.
    """
    columns, values = value.arrays()
    firsts, sums = _merge_runs(
        [columns[k] for k in order], [value.shape[k] for k in order], values
    )
    if firsts is None:
        return columns, sums
    return [_read_only(c[firsts]) for c in columns], sums


def _merged_coo(value, drop_zeros: bool) -> CooTensor:
    """`value.arrays()` sorted by logical coordinates, duplicates summed,
    and the entries that sum to zero dropped when `drop_zeros`."""
    columns, values = _sorted_unique(value, range(value.rank))
    if drop_zeros:
        keep = values != 0.0
        columns, values = [c[keep] for c in columns], values[keep]
    # Fresh arrays, frozen, are shared by the new tensor, not copied.
    return CooTensor.from_arrays(value.shape, map(_read_only, columns), _read_only(values))


def _scatter(shape, columns, values: np.ndarray) -> "DenseTensor":
    """A dense tensor holding `values` at the coordinates of `columns`
    (unique), and 0.0 elsewhere; raises DenseOutputTooLarge, before
    allocating, past the budget."""
    _check_budget(math.prod(shape), "dense tensor of shape {}", shape)
    flat = _row_key(list(columns), shape, len(values))
    data = np.zeros(math.prod(shape))
    data[flat] = values
    return DenseTensor(shape, _read_only(data))


class DenseTensor:
    """Flat row-major dense tensor of 64-bit reals, immutable.

    `shape` is a tuple of extents, checked as a `TensorType` checks them
    (an extent below 1 raises ShapeMismatch), or a `TensorType`, whose
    shape was checked when it was made and is taken as it is. `data` is a
    read-only float64 array: a numpy array, flattened in C order, or a
    sequence, kept as `SparseStorage` keeps its values (`_typed_array`); a
    non-real value raises MalformedStorage, and a count of values other
    than the shape's volume ShapeMismatch.
    """

    def __init__(self, shape, data):
        self.shape = (shape if isinstance(shape, TensorType) else TensorType(shape)).shape
        if isinstance(data, np.ndarray) and data.ndim != 1:
            data = data.reshape(-1)
        self.data = _typed_array(
            data, np.float64, "biuf", "d", "dense tensor values must be real numbers"
        )
        if len(self.data) != self.volume:
            raise ShapeMismatch(
                f"{len(self.data)} values for shape {self.shape} (need {self.volume})"
            )

    @classmethod
    def zeros(cls, shape) -> "DenseTensor":
        ttype = TensorType(shape)
        return cls(ttype, _read_only(np.zeros(math.prod(ttype.shape))))

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
        """The nonzeros in row-major order, as one int64 coordinate column
        per dimension and a float64 value array."""
        return self._elements(nonzero=True)

    def _elements(self, nonzero: bool):
        """The nonzeros, or every element, as `arrays` gives them: each
        column split off the row-major offsets by `divmod`, the last
        dimension first, which leaves every column contiguous."""
        flat = np.flatnonzero(self.data) if nonzero else np.arange(self.data.size)
        columns = []
        rest = flat
        for extent in reversed(self.shape[1:]):
            rest, column = np.divmod(rest, extent)
            columns.append(_read_only(column))
        if self.rank:
            columns.append(_read_only(rest))
        return tuple(reversed(columns)), self.data[flat]

    def to_coo(self, *, drop_zeros: bool) -> CooTensor:
        """The nonzeros, or every element when not `drop_zeros`, in
        row-major order."""
        return CooTensor.from_arrays(self.shape, *self._elements(nonzero=drop_zeros))

    def to_dense(self) -> "DenseTensor":
        """A copy."""
        return DenseTensor(self.shape, _read_only(self.data.copy()))


def _same_layout(a: TensorType, b: TensorType) -> bool:
    """Whether sparse type `a` and type `b` lay out the same storage: the
    same shape, level types and ordering, whatever their bit widths."""
    ea, eb = a.encoding, b.encoding
    return (
        eb is not None
        and a.shape == b.shape
        and ea.levels == eb.levels
        and ea.ordering == eb.ordering
    )


def _largest(values: np.ndarray) -> int:
    """The largest of the integer `values`, -1 when there are none."""
    return int(values.max()) if values.size else -1


_INT64_MAX = np.iinfo(np.int64).max
# The arrays of a dense level, which stores none.
_NO_LEVEL = _read_only(np.zeros(0, np.int64))


def _frozen(values: np.ndarray, dtype) -> np.ndarray:
    """`values` as a read-only `dtype` array. A read-only `dtype` array
    that owns its memory is shared; anything else, a read-only view of
    writable memory included, is copied, so a caller's writable memory is
    never frozen or aliased."""
    if values.dtype == dtype and values.flags.owndata and not values.flags.writeable:
        return values
    return _read_only(values.astype(dtype))


def _typed_array(values, dtype, kinds: str, code: str, message: str, *args) -> np.ndarray:
    """`values`, a flat array of a dtype kind in `kinds` or a sequence, as a
    read-only `dtype` array, shared or copied as `_frozen` decides. A
    sequence goes through an `array` of typecode `code`, which rejects
    what numpy would truncate (a float among integers) or wrap; then
    MalformedStorage is raised, its `message` filled in with `args`
    (`str.format`) only then."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or (values.size and values.dtype.kind not in kinds):
            raise MalformedStorage(message.format(*args))
        return _frozen(values, dtype)
    try:
        return _read_only(np.array(array(code, values), dtype))
    except (OverflowError, TypeError):
        raise MalformedStorage(message.format(*args)) from None


_LEVEL_WIDTH = "level {}: {} must be 64-bit integers"


def _level_array(values, level: int, what: str) -> np.ndarray:
    """A level's pointers or indices as a read-only int64 array
    (`_typed_array`): a float, or an integer past 64 bits, raises
    MalformedStorage rather than truncate."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "u" and values.size:
        if values.max() > _INT64_MAX:
            raise MalformedStorage(_LEVEL_WIDTH.format(level, what))
    return _typed_array(values, np.int64, "iu", "q", _LEVEL_WIDTH, level, what)


class SparseStorage:
    """Packed tensor: per storage level a pointers and an indices array,
    and one values array.

    `pointers` and `indices` hold one read-only int64 array per storage
    level (both empty for a dense level), and `values` is a read-only
    float64 array: the storage's own buffers, read whole, as the paper's
    runtime hands them to the generated code. Instances are immutable and
    safe to share. The constructor takes sequences or arrays, keeps a
    read-only array of the right dtype that owns its memory as it is and
    copies anything else, then runs `validate`. Build instances with `pack`
    (or, in the engine, `_build_levels`), never by hand.
    """

    def __init__(self, ttype: TensorType, pointers, indices, values):
        self.ttype = ttype
        self.pointers = tuple(_level_array(p, l, "pointers") for l, p in enumerate(pointers))
        self.indices = tuple(_level_array(i, l, "indices") for l, i in enumerate(indices))
        self.values = _typed_array(
            values, np.float64, "biuf", "d", "values must be a flat sequence of real numbers"
        )
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
        return int(np.count_nonzero(self.values))

    def with_values(self, values) -> "SparseStorage":
        """The same layout, its arrays shared, holding `values` instead."""
        return SparseStorage(self.ttype, self.pointers, self.indices, values)

    def with_type(self, ttype: TensorType) -> "SparseStorage":
        """The same arrays, shared, under `ttype`: this storage itself when
        `ttype` is its type.

        When `ttype` differs from this storage's type only in its bit
        widths (`_same_layout`), the layout checks this storage passed hold
        for it too, so only the widths are checked (`_check_widths`), against
        the arrays' largest values `validate` kept, with the error a full
        `validate` would raise. Any other `ttype` is checked in full.
        """
        if ttype == self.ttype:
            return self
        if not _same_layout(self.ttype, ttype):
            return SparseStorage(ttype, self.pointers, self.indices, self.values)
        storage = object.__new__(SparseStorage)
        storage.ttype = ttype
        storage.pointers, storage.indices = self.pointers, self.indices
        storage.values, storage._maxima = self.values, self._maxima
        storage._check_widths()
        return storage

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.ttype == other.ttype
            and all(map(np.array_equal, self.pointers, other.pointers))
            and all(map(np.array_equal, self.indices, other.indices))
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        pointers = tuple(tuple(p.tolist()) for p in self.pointers)
        indices = tuple(tuple(i.tolist()) for i in self.indices)
        return (
            f"SparseStorage(ttype={self.ttype!r}, pointers={pointers!r}, "
            f"indices={indices!r}, values={tuple(self.values.tolist())!r})"
        )

    def validate(self):
        """Check every format invariant with whole-array operations: the
        layout of every level, then the bit widths (`_check_widths`).

        Raises MalformedStorage for a bad layout and BitWidthOverflow for a
        narrow width, so the checks hold under `python -O` too. Keeps each
        level's largest pointer and index for the width checks.
        """
        enc = self.ttype.encoding
        if enc is None:
            raise ShapeMismatch("SparseStorage requires an encoding on its TensorType")
        sshape = self.ttype.storage_shape()
        d = self.rank
        if len(self.pointers) != d or len(self.indices) != d:
            raise RankMismatch("need one pointers and one indices array per level")
        positions = 1
        maxima = []  # per level, its largest pointer and index, -1 for none
        for l in range(d):
            ptrs, idxs = self.pointers[l], self.indices[l]
            if enc.levels[l] is DENSE:
                if len(ptrs) or len(idxs):
                    raise MalformedStorage(f"dense level {l} must keep empty arrays")
                positions *= sshape[l]
                maxima.append((-1, -1))
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
            top = -1
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
                top = _largest(idxs)
                if idxs.min() < 0 or top >= sshape[l]:
                    raise MalformedStorage(f"level {l}: index outside extent {sshape[l]}")
            # The pointers do not decrease, so the last is the largest.
            maxima.append((int(ptrs[-1]), top))
            positions = len(idxs)
        if len(self.values) != positions:
            raise MalformedStorage(f"{len(self.values)} values for {positions} stored positions")
        self._maxima = tuple(maxima)
        self._check_widths()

    def _check_widths(self):
        """Raise BitWidthOverflow for the first level, in storage order,
        whose largest pointer or (after its pointers) index, as `validate`
        kept them, does not fit in the declared width. A dense level stores
        neither, and a native width (0) fits anything."""
        enc = self.encoding
        if not (enc.pointer_width or enc.index_width):
            return
        widths = ((enc.pointer_width, "pointer"), (enc.index_width, "index"))
        for tops in self._maxima:
            for top, (width, what) in zip(tops, widths):
                if width and top > (1 << width) - 1:
                    raise BitWidthOverflow(f"{what} value {top} does not fit in {width} bits")

    def arrays(self):
        """Every stored entry, explicit zeros included, in storage order:
        one read-only int64 column of coordinates per logical dimension,
        and the values array itself.

        The inverse of `pack`'s level build: a dense level repeats each
        parent position `extent` times, a compressed one as many times as
        its pointers delimit. The last compressed level's column is its
        indices array itself.
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
                counts = np.diff(self.pointers[l])
                columns = [np.repeat(c, counts) for c in columns]
                columns.append(self.indices[l])
                positions = len(self.indices[l])
        columns = [_read_only(c) for c in columns]
        return tuple(columns[enc.level_of_dim(d)] for d in range(self.rank)), self.values

    def to_coo(self, *, drop_zeros: bool) -> CooTensor:
        """Unpack to sorted unique-coordinate COO, explicit zeros included
        unless `drop_zeros`."""
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


def _build_levels(ttype: TensorType, columns, values: np.ndarray) -> SparseStorage:
    """The storage of `ttype` holding `values` at the coordinates of
    `columns`, one array per logical dimension, whose rows are unique and
    sorted in storage order. `values` is taken over: when the last level
    is compressed, it is frozen and becomes the storage's values array.
    That level's indices array is its column, shared when the column is a
    read-only int64 array that owns its memory (`_frozen`), as a sorted
    `CooTensor`'s is.

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
        column = columns[enc.dim_of_level(l)]
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
            arrays += [(storage.pointers[l], _DUMP_DTYPES[enc.pointer_width])]
            arrays += [(storage.indices[l], _DUMP_DTYPES[enc.index_width])]
    arrays.append((storage.values, "<f8"))
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
