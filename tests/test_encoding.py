import itertools

import numpy as np
import pytest

from sparsec.encoding import (
    COMPRESSED,
    DENSE,
    Encoding,
    TensorType,
    enumerate_encodings,
    format_space_size,
    make_encoding,
)
from sparsec.errors import InvalidBitWidth, NotAPermutation, RankMismatch


def test_csr_defaults():
    enc = make_encoding([DENSE, COMPRESSED])
    assert enc == Encoding((DENSE, COMPRESSED), (0, 1), 0, 0)


def test_dcsc_explicit_ordering():
    enc = make_encoding([COMPRESSED, COMPRESSED], [1, 0], 0, 0)
    assert enc.ordering == (1, 0)
    assert enc.level_of_dim(0) == 1
    assert enc.dim_of_level(0) == 1


def test_ordering_length_mismatch():
    with pytest.raises(RankMismatch):
        make_encoding([COMPRESSED], [0, 1], 0, 0)


def test_not_a_permutation():
    # A non-integer is refused, not truncated: (1.5, 0) is not (1, 0).
    for levels, ordering in [
        ([DENSE, DENSE], [0, 0]),
        ([DENSE, COMPRESSED], (1.5, 0)),
        ([DENSE, COMPRESSED], ("1", 0)),
    ]:
        with pytest.raises(NotAPermutation):
            make_encoding(levels, ordering)
    assert make_encoding([DENSE, COMPRESSED], np.array([1, 0])).ordering == (1, 0)


@pytest.mark.parametrize("width", [1, 7, 128, -8, 8.9, 16.2, "8"])
def test_invalid_bit_width(width):
    with pytest.raises(InvalidBitWidth):
        make_encoding([COMPRESSED], None, width, None)
    with pytest.raises(InvalidBitWidth):
        make_encoding([COMPRESSED], None, None, width)
    enc = make_encoding([COMPRESSED], None, np.int32(8), np.uint8(16))
    assert (enc.pointer_width, enc.index_width) == (8, 16)


def test_make_encoding_is_pure():
    a = make_encoding([DENSE, COMPRESSED], [1, 0], 16, 32)
    b = make_encoding([DENSE, COMPRESSED], [1, 0], 16, 32)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("d,expected", [(1, 32), (2, 128), (3, 768)])
def test_format_space_size(d, expected):
    # 2^d * d! * 16, cross-checked by direct evaluation.
    assert format_space_size(d) == expected
    assert format_space_size(d) == (2**d) * len(list(itertools.permutations(range(d)))) * 16


def test_enumerate_d1_without_widths():
    encs = list(enumerate_encodings(1))
    assert [e.levels for e in encs] == [(DENSE,), (COMPRESSED,)]
    assert all(e.pointer_width == 0 and e.index_width == 0 for e in encs)


def test_enumerate_d2_without_widths():
    assert len(list(enumerate_encodings(2))) == 8


def test_enumerate_d2_with_widths_is_200():
    encs = list(enumerate_encodings(2, include_bitwidths=True))
    assert len(encs) == 200
    assert len(set(encs)) == 200


@pytest.mark.parametrize("d", [1, 2, 3])
def test_enumerate_matches_formula_up_to_width_zero(d):
    # enumerate includes the native width 0, i.e. 25 width pairs where the
    # counting formula assumes 16.
    encs = list(enumerate_encodings(d, include_bitwidths=True))
    assert len(encs) == format_space_size(d) * 25 // 16
    assert len(set(encs)) == len(encs)


def test_enumerate_order_is_deterministic():
    first = list(enumerate_encodings(2, include_bitwidths=True))
    second = list(enumerate_encodings(2, include_bitwidths=True))
    assert first == second
    assert first[0] == Encoding((DENSE, DENSE), (0, 1), 0, 0)
    assert first[1] == Encoding((DENSE, DENSE), (0, 1), 0, 8)


def test_tensor_type_rank_check():
    with pytest.raises(RankMismatch):
        TensorType((3, 4, 5), make_encoding([DENSE, COMPRESSED]))


def test_with_encoding_checks_only_the_new_encodings_rank():
    dense = TensorType((3, 4))
    csr = make_encoding([DENSE, COMPRESSED])
    retyped = dense.with_encoding(csr)
    assert retyped == TensorType((3, 4), csr) and hash(retyped) == hash(TensorType((3, 4), csr))
    assert retyped.shape is dense.shape and retyped.with_encoding(None) == dense
    wrong = make_encoding([COMPRESSED])
    with pytest.raises(RankMismatch) as got:
        dense.with_encoding(wrong)
    with pytest.raises(RankMismatch) as want:
        TensorType((3, 4), wrong)
    assert str(got.value) == str(want.value)


def test_storage_shape_permutes_extents():
    tt = TensorType((3, 4), make_encoding([COMPRESSED, COMPRESSED], [1, 0]))
    assert tt.storage_shape() == (4, 3)


def test_describe_round_trips_the_interesting_fields():
    enc = make_encoding([COMPRESSED, DENSE], [1, 0], 32, 16)
    assert enc.describe() == "format(compressed,dense) order(1,0) ptr(32) idx(16)"
