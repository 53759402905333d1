"""Storage packing against the five worked layouts, plus the shared
sparse-output build and the workspace, randomized round-trips, the
whole-array paths against per-element layouts and walks, and typed errors
for malformed storage and dumps."""

import ast
import math
import os
import random
import re
import struct
import subprocess
import sys
import warnings
from array import array
from itertools import chain
from numbers import Integral, Real
from operator import itemgetter

import numpy as np
import pytest

import conftest as refs
import loops_reference
import sparsec
from loops_reference import compress, expand
from sparsec import engine
from sparsec.cli import _write_result, result_checksum
from sparsec.codegen import StrategyKind
from sparsec.encoding import (
    COMPRESSED,
    DENSE,
    TensorType,
    csc,
    csr,
    dcsc,
    dcsr,
    enumerate_encodings,
    make_encoding,
)
from sparsec.errors import (
    BitWidthOverflow,
    CoordNotInteger,
    CoordOutOfBounds,
    DenseOutputTooLarge,
    MalformedStorage,
    OutOfOrderInsertion,
    ParseError,
    RankMismatch,
    ShapeMismatch,
    SparsecError,
)
from sparsec.expr import parse_kernel
from sparsec.engine import convert
from sparsec.oracle import GeneratorSpec, generate
from sparsec.storage import (
    CooTensor,
    DenseTensor,
    SparseStorage,
    _build_levels,
    dump_binary,
    load_binary,
    pack,
)
from test_typed_storage import _python_layout


def test_pack_sparse_vector(vec_x):
    s = pack(vec_x, make_encoding([COMPRESSED]))
    assert s.pointers[0].tolist() == [0, 4]
    assert s.indices[0].tolist() == [3, 6, 7, 10]
    assert s.values.tolist() == [refs.X3, refs.X6, refs.X7, refs.X10]


def test_pack_csr(mat_a):
    s = pack(mat_a, csr())
    assert s.pointers[0].tolist() == [] and s.indices[0].tolist() == []
    # Row 1 is empty, so the boundary 2 repeats.
    assert s.pointers[1].tolist() == [0, 2, 2, 3]
    assert s.indices[1].tolist() == [0, 3, 0]
    assert s.values.tolist() == [refs.A00, refs.A03, refs.A20]


def test_pack_compressed_dense(mat_a):
    s = pack(mat_a, make_encoding([COMPRESSED, DENSE]))
    assert s.pointers[0].tolist() == [0, 2]
    assert s.indices[0].tolist() == [0, 2]
    # Stored rows are fully materialized, explicit zeros included.
    assert s.values.tolist() == [refs.A00, 0.0, 0.0, refs.A03, refs.A20, 0.0, 0.0, 0.0]


def test_pack_dcsc(mat_a):
    s = pack(mat_a, dcsc())
    assert s.pointers[0].tolist() == [0, 2]
    assert s.indices[0].tolist() == [0, 3]
    assert s.pointers[1].tolist() == [0, 2, 3]
    assert s.indices[1].tolist() == [0, 2, 0]
    assert s.values.tolist() == [refs.A00, refs.A20, refs.A03]


def test_pack_three_tensor(tensor_t):
    s = pack(tensor_t, make_encoding([COMPRESSED, COMPRESSED, COMPRESSED]))
    assert s.pointers[0].tolist() == [0, 2]
    assert s.indices[0].tolist() == [0, 2]
    assert s.pointers[1].tolist() == [0, 1, 3]
    assert s.indices[1].tolist() == [0, 0, 1]
    assert s.pointers[2].tolist() == [0, 1, 3, 5]
    assert s.indices[2].tolist() == [0, 0, 2, 2, 3]
    assert s.values.tolist() == [refs.T000, refs.T200, refs.T202, refs.T212, refs.T213]


def test_pack_sums_duplicates():
    coo = CooTensor((4,), [((1,), 2.0), ((1,), 3.0)])
    s = pack(coo, make_encoding([COMPRESSED]))
    assert s.indices[0].tolist() == [1] and s.values.tolist() == [5.0]


def test_pack_out_of_bounds():
    # The coordinate is refused where the tensor is made: no pack meets it.
    with pytest.raises(CoordOutOfBounds) as caught:
        CooTensor((3, 4), [((3, 0), 1.0)])
    assert str(caught.value) == "coordinate (3, 0) outside shape (3, 4)"


def test_pack_bit_width_overflow():
    coo = CooTensor((300,), [((299,), 1.0)])
    with pytest.raises(BitWidthOverflow):
        pack(coo, make_encoding([COMPRESSED], None, 0, 8))
    # 299 entries also overflow an 8-bit pointer.
    dense_entries = [((i,), 1.0) for i in range(299)]
    with pytest.raises(BitWidthOverflow):
        pack(CooTensor((300,), dense_entries), make_encoding([COMPRESSED], None, 8, 16))


def test_unpack_csr(mat_a):
    coo = pack(mat_a, csr()).to_coo(drop_zeros=False)
    assert coo.entries == [((0, 0), refs.A00), ((0, 3), refs.A03), ((2, 0), refs.A20)]


def test_unpack_empty():
    s = pack(CooTensor((3, 4)), csr())
    assert s.pointers[1].tolist() == [0, 0, 0, 0]
    assert s.to_coo(drop_zeros=False).entries == []


def test_unpack_preserves_explicit_zeros(mat_a):
    coo = pack(mat_a, make_encoding([COMPRESSED, DENSE])).to_coo(drop_zeros=False)
    assert coo.nnz == 8
    assert coo.to_coo(drop_zeros=True).nnz == 3


def test_iterate_orders(mat_a, vec_x):
    dcsc_coords, dcsc_order = pack(mat_a, dcsc()).arrays()
    assert dcsc_order.tolist() == [refs.A00, refs.A20, refs.A03]
    _, csr_order = pack(mat_a, csr()).arrays()
    assert csr_order.tolist() == [refs.A00, refs.A03, refs.A20]
    # Logical coordinates come back unpermuted, one column per dimension.
    assert [c.tolist() for c in dcsc_coords] == [[0, 2, 0], [0, 0, 3]]


def test_iterate_dense_level_expansion():
    s = pack(CooTensor((4,), [((1,), 5.0)]), make_encoding([DENSE]))
    columns, values = s.arrays()
    assert [c.tolist() for c in columns] == [[0, 1, 2, 3]]
    assert values.tolist() == [0.0, 5.0, 0.0, 0.0]


def test_level_views(mat_a):
    s = pack(mat_a, csr())
    pointers, indices = s.pointers[1], s.indices[1]
    assert indices.tolist() == [0, 3, 0]
    assert pointers.tolist() == [0, 2, 2, 3]
    assert s.values.tolist() == [refs.A00, refs.A03, refs.A20]
    # A dense level stores no arrays.
    assert [s.pointers[0].size, s.indices[0].size] == [0, 0]


def _check_columns(value):
    """`value.arrays()` holds one contiguous read-only int64 column per
    dimension, each as long as the values, and no two share memory."""
    columns, values = value.arrays()
    assert isinstance(columns, tuple) and len(columns) == value.rank
    for column in columns:
        assert column.dtype == np.int64 and column.shape == values.shape
        assert column.flags.c_contiguous and not column.flags.writeable
    for k, column in enumerate(columns):
        assert not any(np.shares_memory(column, other) for other in columns[k + 1 :])
    return columns, values


def test_every_class_reads_out_one_column_per_dimension(mat_a, tensor_t):
    for coo in (mat_a, tensor_t, CooTensor((), [((), 2.0)]), CooTensor((5,), [])):
        _check_columns(coo)
        _check_columns(coo.to_coo(drop_zeros=False))
        _check_columns(coo.to_dense())
        _check_columns(coo.to_dense().to_coo(drop_zeros=False))
        if coo.rank:
            for enc in enumerate_encodings(coo.rank):
                _check_columns(pack(coo, enc))
    columns, values = _check_columns(pack(mat_a, dcsc()))
    assert [c.tolist() for c in columns] == [[0, 2, 0], [0, 0, 3]]
    columns, values = _check_columns(DenseTensor((2, 3), [0.0, 1.0, 0.0, 2.0, 0.0, 3.0]))
    assert [c.tolist() for c in columns] == [[0, 1, 1], [1, 0, 2]]
    assert values.tolist() == [1.0, 2.0, 3.0]


def test_pack_of_sorted_entries_keeps_the_index_column():
    # The rows of a sorted COO are its storage order under CSR: the last
    # level's indices array is the COO's own read-only column of j, and
    # unpacking hands it back out. Shuffled, the same entries are gathered.
    coo = generate(GeneratorSpec((64, 64), "rowband", dense_rows=5, seed=8))
    columns, _ = coo.arrays()
    packed = pack(coo, csr())
    assert packed.indices[1] is columns[1]
    assert packed.arrays()[0][1] is columns[1]
    rng = np.random.default_rng(8)
    shuffle = rng.permutation(coo.nnz)
    values = coo.arrays()[1]
    shuffled = CooTensor.from_arrays(coo.shape, [c[shuffle] for c in columns], values[shuffle])
    again = pack(shuffled, csr())
    assert again == packed and not np.shares_memory(again.indices[1], columns[1])


def test_level_build_and_sparse_output_take_columns(mat_a):
    columns = [np.array([0, 0, 2]), np.array([0, 3, 0])]
    values = [refs.A00, refs.A03, refs.A20]
    ttype = TensorType((3, 4), csr())
    assert _build_levels(ttype, columns, np.array(values)) == pack(mat_a, csr())
    assert engine._sparse_output(ttype, columns, np.array(values)) == pack(mat_a, csr())
    want = "insertion at (0, 0) does not follow (0, 3) in storage order"
    with pytest.raises(OutOfOrderInsertion, match=re.escape(want)):
        engine._sparse_output(ttype, [np.array([0, 0]), np.array([3, 0])], np.ones(2))
    want = "insertion at (1, 0) does not follow (0, 3) in storage order"
    with pytest.raises(OutOfOrderInsertion, match=re.escape(want)):
        # DCSC: column-major storage order over logical columns.
        engine._sparse_output(
            TensorType((3, 4), dcsc()), [np.array([0, 1]), np.array([3, 0])], np.ones(2)
        )


# The one build of a sparse output (`engine._sparse_output`), shared by
# the engine and the reference loops: a strict storage-order check, then
# `_build_levels`.


def _sparse_output(ttype, entries):
    """`engine._sparse_output` of (logical coords, value) pairs, in the
    order given."""
    coords = np.array([c for c, _ in entries], np.int64).reshape(len(entries), ttype.rank)
    return engine._sparse_output(ttype, list(coords.T), np.array([v for _, v in entries]))


def _collected(ttype, coords, values):
    """`engine._sparse_output` of the entries a drain appended to the flat
    collectors `coords` and `values`; the storage order of `ttype` must be
    the logical one."""
    coords = np.array(coords, np.int64).reshape(len(values), ttype.rank)
    return engine._sparse_output(ttype, list(coords.T), np.array(values))


def test_builder_matches_pack(mat_a):
    entries = [((0, 0), refs.A00), ((0, 3), refs.A03), ((2, 0), refs.A20)]
    assert _sparse_output(TensorType((3, 4), csr()), entries) == pack(mat_a, csr())


def test_builder_rejects_out_of_order():
    with pytest.raises(OutOfOrderInsertion):
        _sparse_output(TensorType((3, 4), csr()), [((0, 3), 1.0), ((0, 0), 2.0)])


def test_builder_rejects_duplicate():
    with pytest.raises(OutOfOrderInsertion):
        _sparse_output(TensorType((3, 4), csr()), [((1, 1), 1.0), ((1, 1), 2.0)])


@pytest.mark.parametrize("shape", [(4, 4), (2**40, 2**40)], ids=["one key", "per column"])
@pytest.mark.parametrize("enc", [dcsr(), dcsc()], ids=["DCSR", "DCSC"])
@pytest.mark.parametrize(
    "pair", [((1, 1), (1, 1)), ((1, 3), (1, 0)), ((2, 0), (1, 3))],
    ids=["duplicate", "descending last level", "descending first level"],
)
def test_builder_names_the_pair_out_of_storage_order(monkeypatch, shape, enc, pair):
    # `pair` in storage order, after an entry it follows. The order is
    # checked by `storage._row_order`: on one int64 key for a small volume,
    # by `np.lexsort` over the levels for a volume past 2**63.
    keys = []
    row_key = sparsec.storage._row_key
    monkeypatch.setattr(sparsec.storage, "_row_key", lambda *args: keys.append(1) or row_key(*args))
    ttype = TensorType(shape, enc)
    logical = [tuple(p[enc.level_of_dim(k)] for k in range(2)) for p in [(0, 2), *pair]]
    want = f"insertion at {logical[2]} does not follow {logical[1]} in storage order"
    with pytest.raises(OutOfOrderInsertion, match=re.escape(want)):
        _sparse_output(ttype, list(zip(logical, (1.0, 2.0, 3.0))))
    built = _sparse_output(ttype, list(zip(logical[:2], (1.0, 2.0))))
    assert built.values.tolist() == [1.0, 2.0]
    assert len(keys) == (2 if shape == (4, 4) else 0)


def test_builder_storage_order_for_permuted_encoding(mat_a):
    # DCSC order is column-major even though coords are logical.
    dcsc_order = [((0, 0), refs.A00), ((2, 0), refs.A20), ((0, 3), refs.A03)]
    assert _sparse_output(TensorType((3, 4), dcsc()), dcsc_order) == pack(mat_a, dcsc())
    with pytest.raises(OutOfOrderInsertion):  # row-major order is not
        _sparse_output(TensorType((3, 4), dcsc()), sorted(dcsc_order))


@pytest.mark.parametrize(
    "enc",
    [
        make_encoding([COMPRESSED, DENSE, COMPRESSED], (2, 0, 1)),
        make_encoding([COMPRESSED] * 3, (2, 0, 1)),
        make_encoding([DENSE, COMPRESSED], (1, 0)),
        make_encoding([COMPRESSED, COMPRESSED], (1, 0)),
    ],
)
def test_builder_inserts_equal_pack_under_permuted_orderings(enc):
    # The entries carry logical coordinates, ordered by storage coordinates.
    rng = random.Random(enc.rank)
    shape = tuple(rng.randint(2, 5) for _ in range(enc.rank))
    coo = CooTensor(shape, _random_entries(rng, shape, 30))
    order = [enc.dim_of_level(l) for l in range(enc.rank)]
    entries = sorted(_merged_entries(coo), key=lambda e: [e[0][k] for k in order])
    assert _layout(_sparse_output(TensorType(shape, enc), entries)) == _layout(pack(coo, enc))


def test_builder_empty_finalize():
    s = _sparse_output(TensorType((3, 4), csr()), [])
    assert s.pointers[1].tolist() == [0, 0, 0, 0]
    assert s.values.tolist() == []
    assert s == pack(CooTensor((3, 4)), csr())
    s = _sparse_output(TensorType((5,), make_encoding([COMPRESSED])), [])
    assert s.pointers[0].tolist() == [0] * 2 and s.values.tolist() == []
    assert s == pack(CooTensor((5,)), make_encoding([COMPRESSED]))


def test_workspace_scatter_and_compress():
    ws = expand(8)
    coords, values = array("q"), array("d")
    ws.scatter(5, 1.0)
    ws.scatter(1, 2.0)
    ws.scatter(1, 3.0)  # accumulate, not a new touch
    assert ws.added == [5, 1]
    compress(ws, (0,), coords, values)
    s = _collected(TensorType((2, 8), csr()), coords, values)
    assert s.indices[1].tolist() == [1, 5]
    assert s.values.tolist() == [5.0, 1.0]
    assert not any(ws.filled) and all(v == 0.0 for v in ws.values) and ws.added == []


def test_workspace_compress_untouched_is_noop():
    ws = expand(4)
    coords, values = array("q"), array("d")
    compress(ws, (), coords, values)
    empty = _collected(TensorType((4,), make_encoding([COMPRESSED])), coords, values)
    assert empty.values.tolist() == []


def test_workspace_single_touch():
    ws = expand(4)
    coords, values = array("q"), array("d")
    ws.scatter(0, 7.0)
    compress(ws, (), coords, values)
    s = _collected(TensorType((4,), make_encoding([COMPRESSED])), coords, values)
    assert s.indices[0].tolist() == [0] and s.values.tolist() == [7.0]
    assert not any(ws.filled)


def test_workspace_reset_exhaustive_small_extents():
    rng = random.Random(7)
    for extent in range(1, 65):
        ws = expand(extent)
        coords, values = array("q"), array("d")
        for _ in range(rng.randrange(0, extent + 1)):
            ws.scatter(rng.randrange(extent), rng.uniform(-1, 1))
        compress(ws, (0,), coords, values)
        assert not any(ws.filled)
        assert all(v == 0.0 for v in ws.values)
        assert ws.added == []
        _collected(TensorType((1, extent), csr()), coords, values)


def _random_coo(rng, shape, density=0.3):
    entries = []
    coords_space = [()]
    for e in shape:
        coords_space = [c + (i,) for c in coords_space for i in range(e)]
    for c in coords_space:
        if rng.random() < density:
            entries.append((c, rng.uniform(0.1, 9.9)))
    return CooTensor(shape, entries)


@pytest.mark.parametrize("shape", [(7,), (5, 6), (3, 4, 5)])
def test_roundtrip_all_encodings(shape):
    rng = random.Random(42)
    coo = _random_coo(rng, shape)
    want = coo.to_coo(drop_zeros=True).entries
    for enc in enumerate_encodings(len(shape)):
        got = pack(coo, enc).to_coo(drop_zeros=True).entries
        assert got == want, enc.describe()


def test_pack_is_deterministic(mat_a):
    assert pack(mat_a, dcsc()) == pack(mat_a, dcsc())


def test_binary_dump_roundtrip(mat_a, tensor_t):
    for coo, enc in [
        (mat_a, csr()),
        (mat_a, dcsc()),
        (mat_a, make_encoding([DENSE, COMPRESSED], None, 16, 8)),
        (tensor_t, make_encoding([COMPRESSED] * 3)),
    ]:
        s = pack(coo, enc)
        assert load_binary(dump_binary(s)) == s


def test_binary_dump_header():
    s = pack(CooTensor((4,), [((2,), 1.0)]), make_encoding([COMPRESSED]))
    blob = dump_binary(s)
    assert blob[:4] == b"SPST"
    assert blob[5] == 1  # rank


# ----------------------------------------------------------------------------
# Whole-array pack against a per-element layout


def _merged_entries(coo):
    """Duplicates summed into 0.0 by a sequential loop in entry order,
    sorted by logical coordinates."""
    merged = {}
    for coords, value in coo.entries:
        merged[coords] = merged.get(coords, 0.0) + value
    return sorted(merged.items())


def _reference_pack(coo, enc):
    """The per-element reference for pack: the merged entries laid out one
    level and one node at a time (`_python_layout`), then checked by
    `SparseStorage`, so a narrow width raises."""
    layout = _python_layout(coo.shape, enc, dict(_merged_entries(coo)))
    return SparseStorage(TensorType(coo.shape, enc), *layout)


def _outcome(fn):
    try:
        return fn()
    except BitWidthOverflow as e:
        return type(e)


def _layout(storage):
    # repr of the values, so 0.0 and -0.0 count as different.
    values = repr(tuple(storage.values.tolist()))
    return refs.tuples(storage.pointers), refs.tuples(storage.indices), values


def _random_entries(rng, shape, n):
    def value():
        return rng.choice([0.0, -0.0, rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)])

    entries = [(tuple(rng.randrange(e) for e in shape), value()) for _ in range(n)]
    if entries and rng.random() < 0.5:
        # A run of 8 or more duplicates, interleaved with the rest.
        spot = tuple(rng.randrange(e) for e in shape)
        for _ in range(rng.randint(8, 16)):
            entries.insert(rng.randrange(len(entries) + 1), (spot, value()))
    return entries


def _check_pack_matches_reference(coo, encodings):
    for enc in encodings:
        got = _outcome(lambda: _layout(pack(coo, enc)))
        want = _outcome(lambda: _layout(_reference_pack(coo, enc)))
        assert got == want, (coo, enc.describe())
    assert repr(coo.to_coo(drop_zeros=False).entries) == repr(_merged_entries(coo))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pack_equals_per_element_reference(rank):
    rng = random.Random(2022 + rank)
    encodings = list(enumerate_encodings(rank, include_bitwidths=(rank == 2)))
    for trial in range(12 if rank == 2 else 30):
        shape = tuple(rng.randint(1, 6) for _ in range(rank))
        n = 0 if trial == 0 else rng.randrange(25)
        _check_pack_matches_reference(CooTensor(shape, _random_entries(rng, shape, n)), encodings)


def test_pack_width_overflow_matches_reference():
    # Extents and counts past 255 overflow the 8-bit encodings on both paths.
    rng = random.Random(5)
    coo = CooTensor((3, 300), _random_entries(rng, (3, 300), 400))
    _check_pack_matches_reference(coo, list(enumerate_encodings(2, include_bitwidths=True)))


def test_duplicate_runs_sum_in_entry_order():
    # Pairwise summation would round these differently from a left fold.
    values = [1e16, 1.0, -1e16, 1.0, 3.0, 1e-3, 2.5, -7.0, 1e16, 0.1]
    coo = CooTensor((2,), [((1,), v) for v in values])
    total = 0.0
    for v in values:
        total += v
    assert pack(coo, make_encoding([COMPRESSED])).values.tolist() == [total]
    assert coo.to_coo(drop_zeros=False).entries == [((1,), total)]
    assert coo.to_dense().data.tolist() == [0.0, total]


def test_to_dense_matches_scatter():
    rng = random.Random(11)
    for rank in (1, 2, 3):
        shape = tuple(rng.randint(1, 5) for _ in range(rank))
        coo = CooTensor(shape, _random_entries(rng, shape, 20))
        want = [0.0] * math.prod(shape)
        for coords, value in _merged_entries(coo):
            flat = 0
            for c, e in zip(coords, shape):
                flat = flat * e + c
            want[flat] = value
        assert repr(coo.to_dense().data.tolist()) == repr(want)


def _scale_inputs():
    """Three 4096 x 4096 COO tensors over the same 131,072 coordinates: in
    sorted order, shuffled, and with 40,000 repeats of some coordinates
    interleaved among them, where stored 0.0, -0.0 and cancelling values
    make some sums zero."""
    rng = np.random.default_rng(2020)
    n, count = 4096, 1 << 17
    flat = np.sort(rng.choice(n * n, size=count, replace=False))
    coords = np.stack(np.divmod(flat, n), axis=1)
    values = rng.standard_normal(count)
    values[rng.choice(count, 2000, replace=False)] = rng.choice([0.0, -0.0], 2000)
    shuffle = rng.permutation(count)
    repeated = rng.integers(0, count, 40_000)
    extra = rng.choice([0.0, -0.0, 1.0], 40_000)
    cancel = rng.random(40_000) < 0.1
    extra[cancel] = -values[repeated[cancel]]
    # Each repeat lands at a random place among the sorted entries, so a
    # coordinate's copies form runs that other coordinates interleave.
    interleave = np.argsort(
        np.concatenate([np.arange(count), rng.integers(0, count, 40_000)]), kind="stable"
    )
    return (n, n), [
        (coords, values),
        (coords[shuffle], values[shuffle]),
        (np.concatenate([coords, coords[repeated]])[interleave],
         np.concatenate([values, extra])[interleave]),
    ]


def test_pack_at_scale_matches_scipy_and_the_sequential_merge():
    # Pointers and indices against scipy's CSR and CSC; values bit for bit
    # (stricter than repr: -0.0 and the order of each sum count) against
    # the per-element merge.
    sparse = pytest.importorskip("scipy.sparse")
    shape, cases = _scale_inputs()
    for coords, values in cases:
        coo = CooTensor.from_arrays(shape, coords.T, values)
        merged = _merged_entries(coo)
        by_column = sorted(merged, key=lambda entry: entry[0][::-1])
        scipy_coo = sparse.coo_matrix((values, tuple(coords.T)), shape=shape)
        want_csr, want_csc = scipy_coo.tocsr(), scipy_coo.tocsc()
        want_csr.sum_duplicates()
        want_csc.sum_duplicates()
        rows = np.flatnonzero(np.diff(want_csr.indptr))
        want = [
            (csr(), [((), ()), (want_csr.indptr, want_csr.indices)], merged),
            (csc(), [((), ()), (want_csc.indptr, want_csc.indices)], by_column),
            (dcsr(), [
                ([0, len(rows)], rows),
                (np.append(want_csr.indptr[rows], want_csr.indptr[-1]), want_csr.indices),
            ], merged),
        ]
        for enc, levels, entries in want:
            got = pack(coo, enc)
            for level, (pointers, indices) in enumerate(levels):
                got_pointers, got_indices = got.pointers[level], got.indices[level]
                assert np.array_equal(got_pointers, pointers), (enc.describe(), level)
                assert np.array_equal(got_indices, indices), (enc.describe(), level)
            want_values = np.array([v for _, v in entries])
            assert got.values.tobytes() == want_values.tobytes(), enc.describe()


@pytest.mark.parametrize("coord", [1, np.int64(1), 1.5])
def test_coordinates_must_be_integers(coord):
    if isinstance(coord, float):  # refused where the tensor is made
        with pytest.raises(CoordNotInteger) as caught:
            CooTensor((4,), [((coord,), 2.0)])
        assert str(caught.value) == "coordinate (1.5,) is not an integer"
        return
    coo = CooTensor((4,), [((coord,), 2.0)])
    steps = (
        lambda: refs.tuples(pack(coo, make_encoding([COMPRESSED])).indices),
        lambda: coo.to_coo(drop_zeros=False).entries,
        lambda: coo.to_dense().data.tolist(),
    )
    assert [step() for step in steps] == [((1,),), [((1,), 2.0)], [0.0, 2.0, 0.0, 0.0]]


@pytest.mark.parametrize("shape", [(-3, 4), (3, 0), (0,)])
def test_tensors_refuse_extents_below_one(shape):
    # As a declared TensorType does, with its text.
    makers = [
        lambda: CooTensor(shape, []),
        lambda: CooTensor.from_arrays(shape, [np.zeros(0, np.int64)] * len(shape), []),
        lambda: DenseTensor(shape, []),
        lambda: DenseTensor.zeros(shape),
    ]
    for make in makers:
        with pytest.raises(ShapeMismatch) as caught:
            make()
        assert str(caught.value) == f"extents must be positive, got {shape}"


@pytest.mark.parametrize("shape", [(2.5, 3), (2.0,), (3, np.float64(4.0)), "ab", ("2",), (None,)])
def test_tensors_refuse_extents_that_are_not_integers(shape):
    # `int` would truncate 2.5 to 2; the type refuses it where it is made.
    makers = [
        lambda: TensorType(shape),
        lambda: TensorType(shape, make_encoding([COMPRESSED] * len(shape))),
        lambda: CooTensor(shape, []),
        lambda: CooTensor.from_arrays(shape, [np.zeros(0, np.int64)] * len(shape), []),
        lambda: DenseTensor(shape, []),
        lambda: DenseTensor.zeros(shape),
    ]
    for make in makers:
        with pytest.raises(ShapeMismatch) as caught:
            make()
        assert str(caught.value) == f"extents must be integers, got {shape!r}"
    # numpy's integers are integers.
    ttype = TensorType((np.int64(2), np.uint8(3), np.int32(1)))
    assert ttype.shape == (2, 3, 1) and all(type(e) is int for e in ttype.shape)
    assert CooTensor((np.int64(2),), [((1,), 1.0)]).shape == (2,)


def test_pack_rejects_bad_coordinates():
    # Every coordinate is checked where the tensor is made, so `pack` and
    # every other read meet only good ones.
    with pytest.raises(RankMismatch) as caught:
        CooTensor((3, 4), [((0, 0), 1.0), ((1,), 2.0)])
    assert str(caught.value) == "coordinate (1,) in a rank-2 tensor"
    with pytest.raises(CoordOutOfBounds):
        CooTensor((3, 4), [((0, 0), 1.0), ((1, -1), 2.0)])
    with pytest.raises(CoordOutOfBounds) as caught:
        CooTensor((3, 4), [((2**70, 0), 1.0)])
    assert str(caught.value) == "coordinates of shape (3, 4) exceed 64 bits"
    # The int64 edges, in either dimension: the message names the first
    # bad entry, not the later one that is bad in the other dimension.
    for dim in (0, 1):
        for extent, bad in [(3, -1), (3, -(2**63)), (3, 3), (2**62, 2**63 - 1)]:
            shape, first, later = [4, 4], [0, 0], [0, 0]
            shape[dim], first[dim], later[1 - dim] = extent, bad, -1
            coords = [(0, 0), tuple(first), tuple(later)]
            for make in (
                lambda: CooTensor(shape, zip(coords, [1.0, 2.0, 3.0])),
                lambda: CooTensor.from_arrays(shape, np.array(coords).T, [1.0, 2.0, 3.0]),
            ):
                with pytest.raises(CoordOutOfBounds) as caught:
                    make()
                want = f"coordinate {tuple(first)} outside shape {tuple(shape)}"
                assert str(caught.value) == want


# ----------------------------------------------------------------------------
# COO tensors held as read-only arrays, against the per-element constructor


class _ReferenceCoo:
    """The per-element reference for `CooTensor`: the constructor rebuilds
    every pair as (tuple, float), and `arrays()` parses the pairs again on
    every call, checking rank, type, width and bounds."""

    def __init__(self, shape, entries=()):
        self.shape = tuple(int(e) for e in shape)
        self.entries = [(tuple(c), float(v)) for c, v in entries]

    def arrays(self):
        d, n = len(self.shape), len(self.entries)
        coord_tuples = list(map(itemgetter(0), self.entries))
        if n and set(map(len, coord_tuples)) != {d}:
            raise RankMismatch(d)
        try:
            flat = array("q", list(chain.from_iterable(coord_tuples)))
            coords = np.asarray(flat).reshape(n, d)
            outside = (coords < 0) | (coords >= np.array(self.shape, np.int64))
        except TypeError:
            assert not all(isinstance(x, Integral) for c in coord_tuples for x in c)
            raise CoordNotInteger(d) from None
        except OverflowError:
            raise CoordOutOfBounds(d) from None
        if outside.any():
            raise CoordOutOfBounds(d)
        return coords, np.fromiter(map(itemgetter(1), self.entries), np.float64, n)


def _plain(entries):
    # The reference keeps `np.int64` coordinates as given; CooTensor reads
    # them back as Python ints.
    return [(tuple(int(x) for x in c), v) for c, v in entries]


def _random_pairs(rng, shape, n):
    pairs = _random_entries(rng, shape, n)
    if rng.random() < 0.5:
        pairs = [(tuple(np.int64(x) for x in c), v) for c, v in pairs]
    return pairs


def _check_coo_matches_reference(shape, pairs):
    coo, ref = CooTensor(shape, pairs), _ReferenceCoo(shape, pairs)
    assert coo.shape == ref.shape and coo.rank == len(shape) and coo.nnz == len(ref.entries)
    assert repr(coo.entries) == repr(_plain(ref.entries))
    assert all(type(x) is int for c, _ in coo.entries for x in c)
    assert repr(coo) == f"CooTensor(shape={shape!r}, entries={_plain(ref.entries)!r})"
    columns, values = coo.arrays()
    want_coords, want_values = ref.arrays()
    assert len(columns) == len(shape)
    assert all(c.dtype == np.int64 and c.flags.c_contiguous for c in columns)
    assert [c.tolist() for c in columns] == want_coords.T.tolist()
    assert values.dtype == np.float64 and repr(values.tolist()) == repr(want_values.tolist())
    merged = _plain(_merged_entries(ref))
    assert repr(coo.to_coo(drop_zeros=False).entries) == repr(merged)
    nonzero = [(c, v) for c, v in merged if v != 0.0]
    assert repr(coo.to_coo(drop_zeros=True).entries) == repr(nonzero)
    dense = [0.0] * math.prod(shape)
    for c, v in merged:
        flat = 0
        for x, e in zip(c, shape):
            flat = flat * e + x
        dense[flat] = v
    assert repr(coo.to_dense().data.tolist()) == repr(dense)
    twin = CooTensor.from_arrays(shape, want_coords.T, want_values)
    assert coo == twin and twin == coo and repr(twin.entries) == repr(coo.entries)
    assert coo.to_coo(drop_zeros=False) == CooTensor(shape, merged)
    if ref.entries:
        assert coo != CooTensor.from_arrays(shape, want_coords.T, want_values + 1.0)
    assert coo != CooTensor(shape + (1,), [])


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_coo_arrays_equal_per_element_reference(rank):
    rng = random.Random(505 + rank)
    for trial in range(40):
        shape = tuple(rng.randint(1, 5) for _ in range(rank))
        n = 0 if trial == 0 else rng.randrange(20)
        _check_coo_matches_reference(shape, _random_pairs(rng, shape, n))


def test_coo_takes_any_pair_iterable():
    pairs = [((1, 2), 3), ([0, 1], 2.5), (np.array([2, 0]), np.float64(-0.0))]
    want = [((1, 2), 3.0), ((0, 1), 2.5), ((2, 0), -0.0)]
    assert repr(CooTensor((3, 3), iter(pairs)).entries) == repr(want)
    assert repr(CooTensor((3, 3), ((c, v) for c, v in pairs)).entries) == repr(want)
    # A coordinate without len() is materialised once, at construction.
    lazy = CooTensor((3, 3), [(iter(c), v) for c, v in want])
    assert repr(lazy.entries) == repr(want)
    assert lazy.to_coo(drop_zeros=False) == CooTensor((3, 3), want).to_coo(drop_zeros=False)
    # One that is not iterable at all is a typed error that names it.
    for scalar in (1, None, np.int64(1), np.array(1), 2.5):
        with pytest.raises(RankMismatch) as caught:
            CooTensor((3, 3), [((0, 0), 1.0), (scalar, 2.0)])
        assert str(caught.value) == f"coordinate {scalar!r} in a rank-2 tensor is not a sequence"
    for bad in ([((0, 0), 1.0, 2.0)], [((0, 0),)]):
        with pytest.raises(ValueError):
            _ReferenceCoo((3, 3), bad)
        with pytest.raises(ValueError):
            CooTensor((3, 3), bad)


_BAD_COORDINATES = [
    ((4,), [((1,), 1.0), ((1.5,), 2.0)]),
    ((4,), [((np.float64(2.0),), 2.0)]),
    ((3, 4), [((0, 0), 1.0), ((1,), 2.0)]),
    ((3, 4), [((0, 0), 1.0), ((1, 2, 0), 2.0)]),
    ((3, 4), [((2**70, 0), 1.0)]),
    ((3, 4), [((1, 1.5), 1.0), ((2**70, 0), 1.0)]),
    ((3, 4), [((0, 0), 1.0), ((3, 0), 2.0)]),
    ((3, 4), [((0, 0), 1.0), ((1, -1), 2.0)]),
    ((), [((0,), 1.0)]),
]


def _first_read_error(coo):
    try:
        coo.arrays()
    except SparsecError as e:
        return type(e)
    return None


def _as_columns(shape, pairs):
    """The coordinates of `pairs` as one array per dimension, or None where
    arrays cannot hold them: ragged, of the wrong rank, or past 64 bits."""
    try:
        rows = np.array([c for c, _ in pairs])
    except ValueError:  # ragged
        return None
    if rows.dtype.kind not in "if" or rows.shape != (len(pairs), len(shape)):
        return None
    return rows.T


@pytest.mark.parametrize("shape, pairs", _BAD_COORDINATES)
def test_bad_coordinates_raise_at_the_first_read(shape, pairs):
    # Nothing is deferred: the error `_ReferenceCoo` raises at its first
    # read is raised where the tensor is made, from pairs and from arrays.
    want = _first_read_error(_ReferenceCoo(shape, pairs))
    assert want is not None
    with pytest.raises(want):
        CooTensor(shape, pairs)
    columns = _as_columns(shape, pairs)
    if columns is not None:
        with pytest.raises(want):
            CooTensor.from_arrays(shape, columns, [v for _, v in pairs])


@pytest.mark.parametrize("value", ["abc", None, 1j, 10**400, "2.5", True, np.float32(0.5)])
def test_values_convert_with_float_at_construction(value):
    # A real number converts as `float` converts it, from pairs and from
    # arrays. Anything else, a string `float` would parse included, is
    # MalformedStorage, as in `DenseTensor` and `SparseStorage`: never
    # cast with a warning that drops an imaginary part.
    try:
        want = float(value) if isinstance(value, Real) else None
    except OverflowError:
        want = None
    makes = [
        lambda: CooTensor((2,), [((0,), 1.0), ((1,), value)]),
        lambda: CooTensor.from_arrays((2,), [np.array([0, 1])], [1.0, value]),
    ]
    for make in makes:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                with pytest.raises(MalformedStorage):
                    make()
                continue
            coo = make()
        assert repr(coo.entries) == repr([((0,), 1.0), ((1,), want)])


def test_coo_arrays_are_read_only():
    source_columns = [np.array([0, 2]), np.array([1, 3])]
    source_values = np.array([1.0, 2.0])
    for coo in (
        CooTensor((3, 4), [((0, 1), 1.0), ((2, 3), 2.0)]),
        CooTensor.from_arrays((3, 4), source_columns, source_values),
    ):
        columns, values = coo.arrays()
        for column in columns:
            with pytest.raises(ValueError):
                column[0] = 2
        with pytest.raises(ValueError):
            values[0] = 5.0
        with pytest.raises(ValueError):
            values.sort()
    # from_arrays copies writable arrays, so a caller's later writes do not
    # reach the tensor.
    source_columns[0][0] = 1
    source_values[0] = 7.0
    assert coo.entries == [((0, 1), 1.0), ((2, 3), 2.0)]


def test_coo_equality_compares_arrays(monkeypatch):
    # `==` answers as comparing the entries would, without building them:
    # -0.0 equals 0.0, the entries' order matters, and NaN equals nothing.
    pairs = [
        ([((0, 1), 1.0), ((2, 3), -0.0)], [((0, 1), 1.0), ((2, 3), 0.0)]),
        ([((0, 1), 1.0), ((2, 3), 2.0)], [((2, 3), 2.0), ((0, 1), 1.0)]),
        ([((0, 1), math.nan)], [((0, 1), math.nan)]),
        ([((0, 1), 1.0)], [((0, 1), 1.0), ((0, 1), 0.0)]),
        ([((0, 1), 1.0)], [((0, 2), 1.0)]),
        ([], []),
    ]
    tensors = [(CooTensor((3, 4), a), CooTensor((3, 4), b)) for a, b in pairs]
    tensors.append((CooTensor((), [((), 2.0)]), CooTensor((), [((), 2.0)])))
    want = [a.entries == b.entries for a, b in tensors]
    assert want == [True, False, False, False, False, True, True]

    def unread(self):
        raise AssertionError("entries read")

    monkeypatch.setattr(CooTensor, "entries", property(unread))
    assert [a == b for a, b in tensors] == want
    assert [a != b for a, b in tensors] == [not w for w in want]


def test_from_arrays_checks_its_arrays():
    # Columns are given one per dimension: (3, 2) is three columns of 2.
    with pytest.raises(RankMismatch):
        CooTensor.from_arrays((3, 4), np.zeros((3, 2), np.int64), np.zeros(2))
    with pytest.raises(RankMismatch):
        CooTensor.from_arrays((3, 4), np.zeros((2, 2), np.int64), np.zeros(3))
    with pytest.raises(RankMismatch):
        CooTensor.from_arrays((3, 4), np.zeros((2, 2), np.int64), np.zeros((2, 1)))
    with pytest.raises(RankMismatch):
        CooTensor.from_arrays((3, 4), [np.zeros(2, np.int64), np.zeros(3, np.int64)], np.zeros(2))
    with pytest.raises(CoordNotInteger):
        CooTensor.from_arrays((3, 4), np.array([[1.5], [0.0]]), np.ones(1))
    with pytest.raises(CoordOutOfBounds) as caught:
        CooTensor.from_arrays((3, 4), np.array([[3], [0]], np.int32), np.ones(1))
    assert str(caught.value) == "coordinate (3, 0) outside shape (3, 4)"
    # An unsigned coordinate past the int64 maximum is refused as past 64
    # bits, before the int64 cast would wrap it to -1.
    with pytest.raises(CoordOutOfBounds) as caught:
        CooTensor.from_arrays((4,), [np.array([2**64 - 1], np.uint64)], [1.0])
    assert str(caught.value) == "coordinates of shape (4,) exceed 64 bits"
    unsigned = CooTensor.from_arrays((4,), [np.array([3], np.uint64)], [1.0])
    assert unsigned.entries == [((3,), 1.0)]
    empty = CooTensor.from_arrays((3, 4), np.zeros((2, 0)), [])
    assert empty == CooTensor((3, 4))
    assert [c.dtype for c in empty.arrays()[0]] == [np.int64, np.int64]


# ----------------------------------------------------------------------------
# Whole-array readers against the per-element walks


def _reference_iterate(storage):
    """The per-element reference for `SparseStorage.arrays`: a recursive
    walk over the levels, one generator frame per level."""
    enc = storage.encoding
    sshape = storage.ttype.storage_shape()
    d = storage.rank
    scoords = [0] * d
    inverse = [enc.dim_of_level(l) for l in range(d)]
    pointers, indices = refs.tuples(storage.pointers), refs.tuples(storage.indices)
    values = storage.values.tolist()

    def walk(level, pos):
        if level == d:
            coords = [0] * d
            for l, c in enumerate(scoords):
                coords[inverse[l]] = c
            yield tuple(coords), values[pos]
            return
        if enc.levels[level] is DENSE:
            for i in range(sshape[level]):
                scoords[level] = i
                yield from walk(level + 1, pos * sshape[level] + i)
        else:
            ptrs, idxs = pointers[level], indices[level]
            for p in range(ptrs[pos], ptrs[pos + 1]):
                scoords[level] = idxs[p]
                yield from walk(level + 1, p)

    return list(walk(0, 0))


def _reference_dense_to_coo(dense, drop_zeros):
    """The per-element reference for `DenseTensor.to_coo`: a loop over the
    whole volume."""
    entries = []
    for flat, value in enumerate(dense.data):
        if drop_zeros and value == 0.0:
            continue
        coords = []
        rem = flat
        for e in reversed(dense.shape):
            coords.append(rem % e)
            rem //= e
        entries.append((tuple(reversed(coords)), value))
    return CooTensor(dense.shape, entries)


def _reference_convert(value, enc):
    """The per-element reference for `convert`: a sparse target lays out
    the walked entries one node at a time (`_reference_pack`), a dense
    target sets them one element at a time, unmerged, or copies a dense
    source."""
    if isinstance(value, DenseTensor) and enc is None:
        return DenseTensor(value.shape, value.data.tolist())
    if isinstance(value, SparseStorage):
        entries = _reference_iterate(value)
    elif isinstance(value, DenseTensor):
        entries = _reference_dense_to_coo(value, drop_zeros=True).entries
    else:
        entries = value.entries if enc is not None else _merged_entries(value)
    if enc is not None:
        return _reference_pack(CooTensor(value.shape, entries), enc)
    zeros = DenseTensor.zeros(value.shape)
    out = zeros.data.tolist()
    for coords, v in entries:
        out[zeros.offset(coords)] = float(v)
    return DenseTensor(value.shape, out)


def _state(value):
    # repr of the values, so 0.0 and -0.0 count as different.
    if isinstance(value, DenseTensor):
        return value.shape, repr(value.data.tolist())
    return _layout(value)


def _check_readers(storage, dense):
    walked = _reference_iterate(storage)
    columns, values = storage.arrays()
    coords = zip(*[c.tolist() for c in columns])
    assert repr(list(zip(coords, values.tolist()))) == repr(walked)
    merged = _merged_entries(CooTensor(storage.shape, walked))
    assert repr(storage.to_coo(drop_zeros=False).entries) == repr(merged)
    nonzero = [(c, v) for c, v in merged if v != 0.0]
    assert repr(storage.to_coo(drop_zeros=True).entries) == repr(nonzero)
    for drop_zeros in (True, False):
        want = _reference_dense_to_coo(dense, drop_zeros).entries
        assert repr(dense.to_coo(drop_zeros=drop_zeros).entries) == repr(want)


def _check_convert(value, targets, back):
    for target in targets:
        got = _outcome(lambda: convert(value, target))
        want = _outcome(lambda: _reference_convert(value, target))
        assert _state(got) == _state(want), (value, target)
        if back is not None:
            again = _outcome(lambda: _state(convert(got, back)))
            assert again == _outcome(lambda: _state(_reference_convert(want, back)))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_readers_equal_per_element_references(rank):
    rng = random.Random(404 + rank)
    encodings = list(enumerate_encodings(rank, include_bitwidths=(rank == 2)))
    # CSR, DCSC and dense at rank 2, and their analogues at ranks 1 and 3.
    targets = [
        make_encoding([DENSE] + [COMPRESSED] * (rank - 1)),
        make_encoding([COMPRESSED] * rank, list(reversed(range(rank)))),
        None,
    ]
    for trial in range(6 if rank == 2 else 12):
        shape = tuple(rng.randint(1, 5) for _ in range(rank))
        n = 0 if trial == 0 else rng.randrange(20)
        coo = CooTensor(shape, _random_entries(rng, shape, n))
        signs = [rng.choice([0.0, -0.0, rng.uniform(-5, 5)]) for _ in range(math.prod(shape))]
        dense = DenseTensor(shape, signs)
        _check_convert(coo, targets, None)
        _check_convert(dense, targets, None)
        for enc in encodings:
            layout = _outcome(lambda: pack(coo, enc))
            if layout is BitWidthOverflow:
                continue
            # pack merges -0.0 into 0.0, so the stored values are drawn anew.
            values = tuple(rng.choice([0.0, -0.0, rng.uniform(-5, 5)]) for _ in layout.values)
            storage = SparseStorage(layout.ttype, layout.pointers, layout.indices, values)
            _check_readers(storage, _reference_convert(storage, None))
            _check_convert(storage, targets, enc)
        _check_readers(pack(coo, targets[0]), dense)


@pytest.mark.parametrize("x", [0.0, 2.5])
def test_scalar_dense_tensor_readers(tmp_path, x):
    scalar = DenseTensor((), [x])
    nonzero = [((), x)] if x else []
    assert scalar.to_coo(drop_zeros=True).entries == nonzero
    assert scalar.to_coo(drop_zeros=False).entries == [((), x)]
    copy = engine.convert(scalar, None)
    assert copy == scalar and copy.data is not scalar.data
    assert result_checksum(scalar) == result_checksum(CooTensor((), nonzero))
    path = tmp_path / "s.tns"
    _write_result(scalar, str(path))
    assert path.read_text().splitlines()[1:] == [f"0 {len(nonzero)}", ""] + [
        f" {x!r}" for _ in nonzero
    ]


# ----------------------------------------------------------------------------
# Workspace compress against a per-element drain


def _compress_per_element(ws, prefix, coords, values):
    ws.added.sort()
    for idx in ws.added:
        coords.extend(tuple(prefix) + (idx,))
        values.append(ws.values[idx])
        ws.values[idx] = 0.0
        ws.filled[idx] = False
    ws.added.clear()


@pytest.mark.parametrize(
    "levels",
    [
        (COMPRESSED,),
        (DENSE,),
        (DENSE, COMPRESSED),
        (COMPRESSED, DENSE),
        (COMPRESSED, COMPRESSED),
        (COMPRESSED, DENSE, COMPRESSED),
        (DENSE, COMPRESSED, DENSE),
    ],
)
def test_bulk_compress_equals_per_element(levels):
    rng = random.Random(len(levels))
    shape = tuple(rng.randint(2, 7) for _ in levels)
    ttype = TensorType(shape, make_encoding(list(levels)))
    prefixes = sorted({tuple(rng.randrange(e) for e in shape[:-1]) for _ in range(6)})
    # Deltas of 1.0 and -1.0 on one index can leave an explicit zero.
    rows = [
        [(rng.randrange(shape[-1]), rng.choice([1.0, -1.0, 0.5])) for _ in range(rng.randrange(6))]
        for _ in prefixes
    ]
    built = []
    for fn in (compress, _compress_per_element):
        ws, coords, values = expand(shape[-1]), array("q"), array("d")
        for prefix, touches in zip(prefixes, rows):
            for j, delta in touches:
                ws.scatter(j, delta)
            fn(ws, prefix, coords, values)
            assert ws.added == [] and not any(ws.filled)
            assert all(repr(v) == "0.0" for v in ws.values)
        built.append(_layout(_collected(ttype, coords, values)))
    assert built[0] == built[1]


def test_bulk_compress_checks_index_width():
    enc = make_encoding([DENSE, COMPRESSED], None, 0, 8)
    for touched in ([299], [1, 299]):  # alone, and after an index that fits
        ws, coords, values = expand(300), array("q"), array("d")
        for j in touched:
            ws.scatter(j, 1.0)
        compress(ws, (0,), coords, values)
        with pytest.raises(BitWidthOverflow):
            _collected(TensorType((2, 300), enc), coords, values)


@pytest.mark.parametrize("c_format", ["compressed, dense", "dense, compressed", "compressed, compressed"])
def test_expand_compress_kernel_equals_per_element(monkeypatch, c_format):
    # On the reference loops, which drain the workspace through `compress`
    # (the array form merges the workspace itself).
    text = (
        "tensor A(24, 20) format(dense, compressed)\n"
        "tensor B(20, 28) format(compressed, compressed)\n"
        f"tensor C(24, 28) format({c_format})\n"
        "C(i, j) = A(i, k) * B(k, j)\n"
    )
    kernel = parse_kernel(text)
    (program,) = engine.compile_kernel(kernel)
    assert program.strategy.kind is StrategyKind.EXPAND_COMPRESS
    monkeypatch.setattr(engine, "interpret", loops_reference.run_loops)
    bindings = {
        "A": generate(GeneratorSpec((24, 20), "uniform", density=0.15, seed=1)),
        "B": generate(GeneratorSpec((20, 28), "uniform", density=0.15, seed=2)),
    }
    bulk = engine.run_kernel(kernel, bindings)
    drained = []

    def per_element(ws, prefix, coords, values):
        drained.append(len(ws.added))
        _compress_per_element(ws, prefix, coords, values)

    monkeypatch.setattr(loops_reference, "compress", per_element)
    assert _layout(bulk) == _layout(engine.run_kernel(kernel, bindings))
    assert sum(drained) > 0


# ----------------------------------------------------------------------------
# Typed errors for malformed storage and binary dumps


def test_validate_rejects_each_malformed_layout():
    t = TensorType((3, 4), csr())
    cases = [
        (((), (0, 1, 1, 2)), ((), (0, 9)), (1.0, 2.0)),  # index outside extent
        (((), (0, 2, 1, 2)), ((), (0, 1)), (1.0, 2.0)),  # pointers decrease
        (((), (1, 1, 1, 2)), ((), (0, 1)), (1.0, 2.0)),  # pointers start past 0
        (((), (0, 1, 1, 3)), ((), (0, 1)), (1.0, 2.0)),  # pointers past the indices
        (((), (0, 2, 2, 2)), ((), (1, 1)), (1.0, 2.0)),  # repeated index in a segment
        (((), (0, 1, 2)), ((), (0, 1)), (1.0, 2.0)),  # too few pointers
        (((), (0, 1, 1, 2)), ((), (0, 1)), (1.0,)),  # too few values
        (((0,), (0, 1, 1, 2)), ((), (0, 1)), (1.0, 2.0)),  # array on a dense level
    ]
    for pointers, indices, values in cases:
        with pytest.raises(MalformedStorage):
            SparseStorage(t, pointers, indices, values)
    # A new segment may restart lower than the previous one ended.
    SparseStorage(t, ((), (0, 1, 2, 3)), ((), (3, 0, 2)), (1.0, 2.0, 3.0))


def _width_edge_cases():
    """COO matrices whose packed pointers or indices reach 2**8 - 1, 2**8
    and 2**16, indices also 2**32, in one array or in several levels at
    once (a level's indices with the next level's pointers)."""
    full_row = lambda n: CooTensor((1, n), [((0, j), 1.0) for j in range(n)])  # noqa: E731
    return [
        CooTensor((256, 256), [((255, 3), 1.0), ((7, 255), 2.0)]),
        CooTensor((257, 257), [((256, 1), 1.0), ((2, 256), 2.0)]),
        CooTensor((65537, 4), [((65536, 0), 1.0), ((3, 2), -1.0)]),
        CooTensor((3, (1 << 32) + 1), [((0, 1 << 32), 1.0), ((2, 5), 2.0)]),
        full_row(255),
        full_row(256),
        full_row(1 << 16),  # pointers reach 2**16, indices only 2**16 - 1
        CooTensor((300, 300), [((299, j), 1.0) for j in range(256)]),
    ]


def _typed_outcome(fn):
    try:
        return fn()
    except SparsecError as e:
        return type(e), str(e)


def test_with_type_checks_widths_as_a_fresh_storage_does(monkeypatch):
    validated = []
    full = SparseStorage.validate
    monkeypatch.setattr(
        SparseStorage, "validate", lambda self: validated.append(self) or full(self)
    )
    layouts = [make_encoding([COMPRESSED] * 2), dcsc(), csr(), csc()]
    pairs = {(e.pointer_width, e.index_width) for e in enumerate_encodings(2, True)}
    assert len(pairs) == 25
    raised = set()
    for coo in _width_edge_cases():
        for layout in layouts:
            try:
                base = pack(coo, layout)
            except DenseOutputTooLarge:  # a dense level of 2**32 + 1 positions
                continue
            arrays = list(zip(base.pointers, base.indices))
            for ptr, idx in sorted(pairs):
                ttype = TensorType(coo.shape, make_encoding(layout.levels, layout.ordering, ptr, idx))
                validated.clear()
                got = _typed_outcome(lambda: base.with_type(ttype))
                assert validated == []  # the widths only
                want = _typed_outcome(
                    lambda: SparseStorage(ttype, *zip(*arrays), base.values)
                )
                if isinstance(want, SparseStorage):
                    assert got.ttype == ttype and got == want, (coo.shape, ttype)
                    assert got.pointers[1] is arrays[1][0] and got.indices[1] is arrays[1][1]
                else:
                    assert got == want, (coo.shape, ttype)
                    raised.add(want[1].split(" value ")[0])
    assert raised == {"pointer", "index"}


def test_with_type_to_another_layout_is_validated_in_full(monkeypatch, mat_a):
    validated = []
    full = SparseStorage.validate
    monkeypatch.setattr(
        SparseStorage, "validate", lambda self: validated.append(self) or full(self)
    )
    base = pack(mat_a, csr())
    with pytest.raises(MalformedStorage):  # the same widths, another layout
        base.with_type(TensorType(base.shape, dcsr()))
    # Arrays that fit the other layout are checked before they are kept.
    square = pack(CooTensor((3, 3), [((0, 1), 1.0)]), csr())
    for ttype in [TensorType((3, 3), csc()), TensorType((3, 3), make_encoding([DENSE] * 2))]:
        validated.clear()
        got = _typed_outcome(lambda: square.with_type(ttype))
        want = _typed_outcome(
            lambda: SparseStorage(ttype, square.pointers, square.indices, square.values)
        )
        assert got == want and len(validated) == 2


def test_no_module_of_the_library_asserts():
    # `python -O` strips every `assert`, so an invariant checked by one
    # would not hold there: the library raises its typed errors instead.
    package = os.path.dirname(sparsec.__file__)
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "storage.py" in modules
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"assert in {name} at lines {lines}"


def test_malformed_storage_is_typed_under_optimize():
    # Under -O an assert would vanish; the check and the CLI line must not.
    script = (
        "import sys\n"
        "from sparsec import cli\n"
        "from sparsec.encoding import TensorType, csr\n"
        "from sparsec.errors import MalformedStorage\n"
        "from sparsec.storage import SparseStorage\n"
        "def bad(*args):\n"
        "    return SparseStorage(TensorType((3, 4), csr()), ((), (0, 1, 1, 2)), ((), (0, 9)), (1.0, 2.0))\n"
        "try:\n"
        "    bad()\n"
        "    sys.exit('malformed storage accepted')\n"
        "except MalformedStorage:\n"
        "    pass\n"
        "cli.cmd_convert = bad\n"
        "sys.exit(cli.main(['convert', '--input', 'x', '--from', 'csr', '--to', 'csr', '--output', 'y']))\n"
    )
    src = os.path.dirname(os.path.dirname(sparsec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("sparsec: error[MalformedStorage]: "), lines


def test_pack_checks_are_typed_under_optimize():
    # The bounds, rank and width checks on the pack path are not asserts.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from sparsec.encoding import COMPRESSED, make_encoding\n"
        "from sparsec.errors import BitWidthOverflow, CoordOutOfBounds, RankMismatch\n"
        "from sparsec.storage import CooTensor, pack\n"
        "cases = [\n"
        "    (CoordOutOfBounds, lambda: pack(CooTensor((3, 4), [((1, 4), 1.0)]), make_encoding([COMPRESSED] * 2))),\n"
        "    (RankMismatch, lambda: CooTensor.from_arrays((3, 4), np.zeros((1, 2), np.int64), [1.0, 2.0])),\n"
        "    (BitWidthOverflow, lambda: pack(CooTensor((3, 300), [((0, 299), 1.0)]), make_encoding([COMPRESSED] * 2, index_width=8))),\n"
        "]\n"
        "for error, step in cases:\n"
        "    try:\n"
        "        step()\n"
        "        sys.exit(f'{error.__name__} not raised')\n"
        "    except error:\n"
        "        pass\n"
    )
    src = os.path.dirname(os.path.dirname(sparsec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_load_binary_truncated_at_every_byte(mat_a, tensor_t):
    for coo, enc in [
        (mat_a, csr()),
        (mat_a, make_encoding([COMPRESSED, DENSE], (1, 0), 16, 8)),
        (tensor_t, make_encoding([COMPRESSED] * 3)),
    ]:
        blob = dump_binary(pack(coo, enc))
        for cut in range(len(blob)):
            with pytest.raises(ParseError):
                load_binary(blob[:cut])


def test_load_binary_corrupt_is_parse_error(mat_a):
    blob = dump_binary(pack(mat_a, csr()))
    with pytest.raises(ParseError):
        load_binary(blob + b"\0")  # trailing bytes
    with pytest.raises(ParseError):
        load_binary(blob[:6] + bytes([7]) + blob[7:])  # width 7 is not allowed
    with pytest.raises(ParseError):
        load_binary(blob[:-40] + struct.pack("<Q", 9) + blob[-32:])  # index 9 >= extent 4
