"""Sparse format annotations: per-level storage types, dimension order, bit widths.

An Encoding says how one tensor is laid out: which storage levels keep every
position (dense) versus only the populated ones (compressed), the permutation
from logical dimensions to storage levels, and optional narrow integer widths
for the overhead arrays. Encodings are plain immutable values; everything
that interprets them lives in the storage module.
"""

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import InvalidBitWidth, NotAPermutation, RankMismatch, ShapeMismatch

ALLOWED_BIT_WIDTHS = (0, 8, 16, 32, 64)


class LevelType(enum.Enum):
    """Storage discipline of one storage level."""

    DENSE = "dense"
    COMPRESSED = "compressed"

    def __repr__(self):
        return self.value


DENSE = LevelType.DENSE
COMPRESSED = LevelType.COMPRESSED


@dataclass(frozen=True)
class Encoding:
    """Storage annotation for one sparse tensor.

    Attributes:
        levels: level type per storage level, outermost first. Note these
            follow storage order, i.e. they apply after `ordering` permutes
            the dimensions.
        ordering: permutation mapping logical dimension -> storage level.
            The identity keeps lexicographic (row-major style) order; the
            matrix map (i,j) -> (j,i) is spelled (1, 0).
        pointer_width: bits per stored pointer; 0 means native width.
        index_width: bits per stored index; 0 means native width.
    """

    levels: tuple
    ordering: tuple
    pointer_width: int = 0
    index_width: int = 0

    @property
    def rank(self) -> int:
        return len(self.levels)

    def level_of_dim(self, dim: int) -> int:
        """Storage level holding logical dimension `dim`."""
        return self.ordering[dim]

    def dim_of_level(self, level: int) -> int:
        """Logical dimension stored at storage level `level`."""
        return self.ordering.index(level)

    def describe(self) -> str:
        """Compact one-line spelling, reused by dumps and search reports."""
        parts = ["format(" + ",".join(lt.value for lt in self.levels) + ")"]
        if self.ordering != tuple(range(self.rank)):
            parts.append("order(" + ",".join(str(p) for p in self.ordering) + ")")
        if self.pointer_width:
            parts.append(f"ptr({self.pointer_width})")
        if self.index_width:
            parts.append(f"idx({self.index_width})")
        return " ".join(parts)


@dataclass(frozen=True)
class TensorType:
    """Shape plus optional encoding; no encoding means a plain dense tensor."""

    shape: tuple
    encoding: Optional[Encoding] = None

    def __post_init__(self):
        try:
            # Integers only, numpy's too: `int` would truncate 2.5 to 2.
            shape = tuple(map(operator.index, self.shape))
        except TypeError:
            raise ShapeMismatch(f"extents must be integers, got {self.shape!r}") from None
        object.__setattr__(self, "shape", shape)
        if any(e <= 0 for e in self.shape):
            raise ShapeMismatch(f"extents must be positive, got {self.shape}")
        if self.encoding is not None and self.encoding.rank != len(self.shape):
            raise _rank_mismatch(self.encoding, self.shape)

    def with_encoding(self, encoding: Optional[Encoding]) -> "TensorType":
        """This type's shape under `encoding` (None: dense). The shape was
        checked when this type was made, so only what a new encoding can
        break is checked: its rank against the shape (RankMismatch)."""
        if encoding is not None and encoding.rank != len(self.shape):
            raise _rank_mismatch(encoding, self.shape)
        ttype = object.__new__(TensorType)
        object.__setattr__(ttype, "shape", self.shape)
        object.__setattr__(ttype, "encoding", encoding)
        return ttype

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def is_sparse(self) -> bool:
        return self.encoding is not None

    def storage_shape(self) -> tuple:
        """Extents permuted into storage-level order."""
        if self.encoding is None:
            return self.shape
        return tuple(self.shape[self.encoding.dim_of_level(l)] for l in range(self.rank))


def _rank_mismatch(encoding: Encoding, shape: tuple) -> RankMismatch:
    return RankMismatch(f"encoding has {encoding.rank} levels for a rank-{len(shape)} shape")


def make_encoding(
    levels: Sequence[LevelType],
    ordering: Optional[Sequence[int]] = None,
    pointer_width: Optional[int] = None,
    index_width: Optional[int] = None,
) -> Encoding:
    """Validate and build an Encoding.

    The ordering defaults to the identity (lexicographic index order) and
    both widths default to 0 (native).

    Raises:
        RankMismatch: ordering length differs from the number of levels.
        NotAPermutation: ordering is not a bijection on 0..d-1, or holds
            a non-integer.
        InvalidBitWidth: a width outside {0, 8, 16, 32, 64}, or not an
            integer.
    """
    levels = tuple(levels)
    if not levels:
        raise RankMismatch("an encoding needs at least one level")
    if any(not isinstance(lt, LevelType) for lt in levels):
        raise TypeError(f"levels must be LevelType values, got {levels!r}")
    d = len(levels)
    if ordering is None:
        ordering = tuple(range(d))
    else:
        ordering = tuple(ordering)
        try:
            ordering = tuple(map(operator.index, ordering))  # numpy's too, never truncated
        except TypeError:
            raise NotAPermutation(f"ordering {ordering} is not a permutation of 0..{d - 1}") from None
        if len(ordering) != d:
            raise RankMismatch(
                f"ordering {ordering} has length {len(ordering)}, expected {d}"
            )
        if sorted(ordering) != list(range(d)):
            raise NotAPermutation(f"ordering {ordering} is not a permutation of 0..{d - 1}")
    widths = []
    for w in (pointer_width, index_width):
        try:
            w = 0 if w is None else operator.index(w)
        except TypeError:
            raise InvalidBitWidth(f"bit width {w!r} is not an integer") from None
        if w not in ALLOWED_BIT_WIDTHS:
            raise InvalidBitWidth(f"bit width {w} not in {ALLOWED_BIT_WIDTHS}")
        widths.append(w)
    return Encoding(levels, ordering, widths[0], widths[1])


def format_space_size(d: int) -> int:
    """Number of storage layouts for a rank-d tensor: 2^d * d! * 16.

    The 16 counts the four narrow width choices for each of the two
    overhead arrays; enumerate_encodings additionally emits the native
    width 0 and therefore yields 25 width pairs, not 16.
    """
    if d < 1:
        raise RankMismatch(f"rank must be >= 1, got {d}")
    return (2**d) * math.factorial(d) * 16


def enumerate_encodings(d: int, include_bitwidths: bool = False) -> Iterator[Encoding]:
    """Yield every encoding of rank d in a fixed, documented order.

    Level combinations vary slowest (dense < compressed, lexicographic),
    then orderings (lexicographic permutations), then pointer width, then
    index width (both ascending, native 0 first). Without
    `include_bitwidths` only the native 0/0 pair is produced.
    """
    if d < 1:
        raise RankMismatch(f"rank must be >= 1, got {d}")
    width_pairs = (
        list(itertools.product(ALLOWED_BIT_WIDTHS, repeat=2)) if include_bitwidths else [(0, 0)]
    )
    for levels in itertools.product((DENSE, COMPRESSED), repeat=d):
        for ordering in itertools.permutations(range(d)):
            for ptr_w, idx_w in width_pairs:
                yield Encoding(levels, ordering, ptr_w, idx_w)


# Conventional names used throughout tests, benchmarks, and docs.
def csr() -> Encoding:
    return make_encoding((DENSE, COMPRESSED))


def csc() -> Encoding:
    return make_encoding((DENSE, COMPRESSED), (1, 0))


def dcsr() -> Encoding:
    return make_encoding((COMPRESSED, COMPRESSED))


def dcsc() -> Encoding:
    return make_encoding((COMPRESSED, COMPRESSED), (1, 0))
