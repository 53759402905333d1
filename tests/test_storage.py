"""Storage packing against the five worked layouts, plus builder/workspace
behavior, randomized round-trips, the whole-array paths against the
per-element builder and walks, and typed errors for malformed storage and
dumps."""

import math
import os
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

import conftest as refs
import sparsec
from sparsec import engine
from sparsec.cli import _write_result, result_checksum
from sparsec.codegen import StrategyKind, choose_output_strategy
from sparsec.encoding import (
    COMPRESSED,
    DENSE,
    TensorType,
    csr,
    dcsc,
    enumerate_encodings,
    make_encoding,
)
from sparsec.errors import (
    BitWidthOverflow,
    CoordNotInteger,
    CoordOutOfBounds,
    LevelIsDense,
    MalformedStorage,
    OutOfOrderInsertion,
    ParseError,
    RankMismatch,
)
from sparsec.expr import parse_kernel
from sparsec.lattice import build_iteration_graph, topo_sort
from sparsec.engine import convert
from sparsec.oracle import GeneratorSpec, generate
from sparsec.storage import (
    CooTensor,
    DenseTensor,
    SparseStorage,
    StorageBuilder,
    compress,
    dump_binary,
    expand,
    level_indices,
    level_pointers,
    load_binary,
    pack,
    unpack,
    values_view,
)


def test_pack_sparse_vector(vec_x):
    s = pack(vec_x, make_encoding([COMPRESSED]))
    assert s.pointers[0] == (0, 4)
    assert s.indices[0] == (3, 6, 7, 10)
    assert s.values == (refs.X3, refs.X6, refs.X7, refs.X10)


def test_pack_csr(mat_a):
    s = pack(mat_a, csr())
    assert s.pointers[0] == () and s.indices[0] == ()
    # Row 1 is empty, so the boundary 2 repeats.
    assert s.pointers[1] == (0, 2, 2, 3)
    assert s.indices[1] == (0, 3, 0)
    assert s.values == (refs.A00, refs.A03, refs.A20)


def test_pack_compressed_dense(mat_a):
    s = pack(mat_a, make_encoding([COMPRESSED, DENSE]))
    assert s.pointers[0] == (0, 2)
    assert s.indices[0] == (0, 2)
    # Stored rows are fully materialized, explicit zeros included.
    assert s.values == (refs.A00, 0.0, 0.0, refs.A03, refs.A20, 0.0, 0.0, 0.0)


def test_pack_dcsc(mat_a):
    s = pack(mat_a, dcsc())
    assert s.pointers[0] == (0, 2)
    assert s.indices[0] == (0, 3)
    assert s.pointers[1] == (0, 2, 3)
    assert s.indices[1] == (0, 2, 0)
    assert s.values == (refs.A00, refs.A20, refs.A03)


def test_pack_three_tensor(tensor_t):
    s = pack(tensor_t, make_encoding([COMPRESSED, COMPRESSED, COMPRESSED]))
    assert s.pointers[0] == (0, 2)
    assert s.indices[0] == (0, 2)
    assert s.pointers[1] == (0, 1, 3)
    assert s.indices[1] == (0, 0, 1)
    assert s.pointers[2] == (0, 1, 3, 5)
    assert s.indices[2] == (0, 0, 2, 2, 3)
    assert s.values == (refs.T000, refs.T200, refs.T202, refs.T212, refs.T213)


def test_pack_sums_duplicates():
    coo = CooTensor((4,), [((1,), 2.0), ((1,), 3.0)])
    s = pack(coo, make_encoding([COMPRESSED]))
    assert s.indices[0] == (1,) and s.values == (5.0,)


def test_pack_out_of_bounds():
    coo = CooTensor((3, 4), [((3, 0), 1.0)])
    with pytest.raises(CoordOutOfBounds):
        pack(coo, csr())


def test_pack_bit_width_overflow():
    coo = CooTensor((300,), [((299,), 1.0)])
    with pytest.raises(BitWidthOverflow):
        pack(coo, make_encoding([COMPRESSED], None, 0, 8))
    # 299 entries also overflow an 8-bit pointer.
    dense_entries = [((i,), 1.0) for i in range(299)]
    with pytest.raises(BitWidthOverflow):
        pack(CooTensor((300,), dense_entries), make_encoding([COMPRESSED], None, 8, 16))


def test_unpack_csr(mat_a):
    coo = unpack(pack(mat_a, csr()))
    assert coo.entries == [((0, 0), refs.A00), ((0, 3), refs.A03), ((2, 0), refs.A20)]


def test_unpack_empty():
    s = pack(CooTensor((3, 4)), csr())
    assert s.pointers[1] == (0, 0, 0, 0)
    assert unpack(s).entries == []


def test_unpack_preserves_explicit_zeros(mat_a):
    coo = unpack(pack(mat_a, make_encoding([COMPRESSED, DENSE])))
    assert coo.nnz == 8
    assert len(coo.nonzero_entries()) == 3


def test_iterate_orders(mat_a, vec_x):
    dcsc_order = [v for _, v in pack(mat_a, dcsc()).iterate()]
    assert dcsc_order == [refs.A00, refs.A20, refs.A03]
    csr_order = [v for _, v in pack(mat_a, csr()).iterate()]
    assert csr_order == [refs.A00, refs.A03, refs.A20]
    # Logical coordinates come back unpermuted.
    assert [c for c, _ in pack(mat_a, dcsc()).iterate()] == [(0, 0), (2, 0), (0, 3)]


def test_iterate_dense_level_expansion():
    s = pack(CooTensor((4,), [((1,), 5.0)]), make_encoding([DENSE]))
    assert list(s.iterate()) == [((0,), 0.0), ((1,), 5.0), ((2,), 0.0), ((3,), 0.0)]


def test_level_views(mat_a):
    s = pack(mat_a, csr())
    assert level_indices(s, 1) == (0, 3, 0)
    assert level_pointers(s, 1) == (0, 2, 2, 3)
    assert values_view(s) == (refs.A00, refs.A03, refs.A20)
    with pytest.raises(LevelIsDense):
        level_indices(s, 0)


def test_builder_matches_pack(mat_a):
    b = StorageBuilder(TensorType((3, 4), csr()))
    for coords, value in [((0, 0), refs.A00), ((0, 3), refs.A03), ((2, 0), refs.A20)]:
        b.insert(coords, value)
    assert b.finalize() == pack(mat_a, csr())


def test_builder_rejects_out_of_order():
    b = StorageBuilder(TensorType((3, 4), csr()))
    b.insert((0, 3), 1.0)
    with pytest.raises(OutOfOrderInsertion):
        b.insert((0, 0), 2.0)


def test_builder_rejects_duplicate():
    b = StorageBuilder(TensorType((3, 4), csr()))
    b.insert((1, 1), 1.0)
    with pytest.raises(OutOfOrderInsertion):
        b.insert((1, 1), 2.0)


def test_builder_storage_order_for_permuted_encoding(mat_a):
    # DCSC insertion order is column-major even though coords are logical.
    b = StorageBuilder(TensorType((3, 4), dcsc()))
    for coords, value in [((0, 0), refs.A00), ((2, 0), refs.A20), ((0, 3), refs.A03)]:
        b.insert(coords, value)
    assert b.finalize() == pack(mat_a, dcsc())


def test_builder_empty_finalize():
    s = StorageBuilder(TensorType((3, 4), csr())).finalize()
    assert s.pointers[1] == (0, 0, 0, 0)
    assert s.values == ()
    s = StorageBuilder(TensorType((5,), make_encoding([COMPRESSED]))).finalize()
    assert s.pointers[0] == (0,) * 2 and s.values == ()


def test_workspace_scatter_and_compress():
    ws = expand(8)
    b = StorageBuilder(TensorType((2, 8), csr()))
    ws.scatter(5, 1.0)
    ws.scatter(1, 2.0)
    ws.scatter(1, 3.0)  # accumulate, not a new touch
    assert ws.added == [5, 1] and ws.count == 2
    compress(ws, b, (0,))
    s = b.finalize()
    assert s.indices[1] == (1, 5)
    assert s.values == (5.0, 1.0)
    assert not any(ws.filled) and all(v == 0.0 for v in ws.values) and ws.count == 0


def test_workspace_compress_untouched_is_noop():
    ws = expand(4)
    b = StorageBuilder(TensorType((4,), make_encoding([COMPRESSED])))
    compress(ws, b, ())
    assert b.finalize().values == ()


def test_workspace_single_touch():
    ws = expand(4)
    b = StorageBuilder(TensorType((4,), make_encoding([COMPRESSED])))
    ws.scatter(0, 7.0)
    compress(ws, b, ())
    s = b.finalize()
    assert s.indices[0] == (0,) and s.values == (7.0,)
    assert not any(ws.filled)


def test_workspace_reset_exhaustive_small_extents():
    rng = random.Random(7)
    for extent in range(1, 65):
        ws = expand(extent)
        b = StorageBuilder(TensorType((1, extent), csr()))
        for _ in range(rng.randrange(0, extent + 1)):
            ws.scatter(rng.randrange(extent), rng.uniform(-1, 1))
        compress(ws, b, (0,))
        assert not any(ws.filled)
        assert all(v == 0.0 for v in ws.values)
        assert ws.count == 0
        b.finalize()


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
    want = coo.normalize().nonzero_entries()
    for enc in enumerate_encodings(len(shape)):
        got = unpack(pack(coo, enc)).nonzero_entries()
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
# Whole-array pack against the per-element builder


def _merged_entries(coo):
    """Duplicates summed into 0.0 by a sequential loop in entry order,
    sorted by logical coordinates."""
    merged = {}
    for coords, value in coo.entries:
        merged[coords] = merged.get(coords, 0.0) + value
    return sorted(merged.items())


def _reference_pack(coo, enc):
    """The element-by-element reference for pack: one builder insert per
    merged entry, in storage order."""
    order = [enc.dim_of_level(l) for l in range(enc.rank)]
    builder = StorageBuilder(TensorType(coo.shape, enc))
    for scoords, value in sorted((tuple(c[k] for k in order), v) for c, v in _merged_entries(coo)):
        builder.insert_storage(scoords, value)
    return builder.finalize()


def _outcome(fn):
    try:
        return fn()
    except BitWidthOverflow as e:
        return type(e)


def _layout(storage):
    # repr of the values, so 0.0 and -0.0 count as different.
    return storage.pointers, storage.indices, repr(storage.values)


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
    assert repr(coo.normalize().entries) == repr(_merged_entries(coo))


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
    assert pack(coo, make_encoding([COMPRESSED])).values == (total,)
    assert coo.normalize().entries == [((1,), total)]
    assert coo.to_dense().data == [0.0, total]


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
        assert repr(coo.to_dense().data) == repr(want)


@pytest.mark.parametrize("coord", [1, np.int64(1), 1.5])
def test_coordinates_must_be_integers(coord):
    coo = CooTensor((4,), [((coord,), 2.0)])
    steps = (
        lambda: pack(coo, make_encoding([COMPRESSED])).indices,
        lambda: coo.normalize().entries,
        lambda: coo.to_dense().data,
    )
    if isinstance(coord, float):
        for step in steps:
            with pytest.raises(CoordNotInteger):
                step()
    else:
        assert [step() for step in steps] == [((1,),), [((1,), 2.0)], [0.0, 2.0, 0.0, 0.0]]


def test_pack_rejects_bad_coordinates():
    with pytest.raises(RankMismatch):
        pack(CooTensor((3, 4), [((0, 0), 1.0), ((1,), 2.0)]), csr())
    with pytest.raises(CoordOutOfBounds):
        pack(CooTensor((3, 4), [((0, 0), 1.0), ((1, -1), 2.0)]), csr())
    with pytest.raises(CoordOutOfBounds):
        CooTensor((3, 4), [((2**70, 0), 1.0)]).normalize()


# ----------------------------------------------------------------------------
# Whole-array readers against the per-element walks


def _reference_iterate(storage):
    """The per-element reference for `iterate`: a recursive walk over the
    levels, one generator frame per level."""
    enc = storage.encoding
    sshape = storage.ttype.storage_shape()
    d = storage.rank
    scoords = [0] * d
    inverse = [enc.dim_of_level(l) for l in range(d)]

    def walk(level, pos):
        if level == d:
            coords = [0] * d
            for l, c in enumerate(scoords):
                coords[inverse[l]] = c
            yield tuple(coords), storage.values[pos]
            return
        if enc.levels[level] is DENSE:
            for i in range(sshape[level]):
                scoords[level] = i
                yield from walk(level + 1, pos * sshape[level] + i)
        else:
            ptrs, idxs = storage.pointers[level], storage.indices[level]
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
    """The per-element reference for `convert`: a sparse target packs the
    walked entries one builder insert at a time, a dense target sets them
    one element at a time, unmerged, or copies a dense source."""
    if isinstance(value, DenseTensor) and enc is None:
        return DenseTensor(value.shape, list(value.data))
    if isinstance(value, SparseStorage):
        entries = _reference_iterate(value)
    elif isinstance(value, DenseTensor):
        entries = _reference_dense_to_coo(value, drop_zeros=True).entries
    else:
        entries = value.entries if enc is not None else _merged_entries(value)
    if enc is not None:
        return _reference_pack(CooTensor(value.shape, entries), enc)
    out = DenseTensor.zeros(value.shape)
    for coords, v in entries:
        out.set(coords, v)
    return out


def _state(value):
    # repr of the values, so 0.0 and -0.0 count as different.
    if isinstance(value, DenseTensor):
        return value.shape, repr(value.data)
    return _layout(value)


def _check_readers(storage, dense):
    walked = _reference_iterate(storage)
    assert repr(list(storage.iterate())) == repr(walked)
    merged = _merged_entries(CooTensor(storage.shape, walked))
    assert repr(storage.to_coo().entries) == repr(merged)
    assert repr(unpack(storage).entries) == repr(merged)
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
    assert scalar.to_coo().entries == nonzero
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
# Bulk workspace compress against per-element insertion


def _compress_per_element(ws, builder, prefix_scoords):
    ws.added.sort()
    for idx in ws.added:
        builder.insert_storage(tuple(prefix_scoords) + (idx,), ws.values[idx])
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
        ws, builder = expand(shape[-1]), StorageBuilder(ttype)
        for prefix, touches in zip(prefixes, rows):
            for j, delta in touches:
                ws.scatter(j, delta)
            fn(ws, builder, prefix)
            assert ws.count == 0 and not any(ws.filled)
            assert all(repr(v) == "0.0" for v in ws.values)
        built.append(_layout(builder.finalize()))
    assert built[0] == built[1]


def test_bulk_compress_checks_index_width():
    enc = make_encoding([DENSE, COMPRESSED], None, 0, 8)
    for touched in ([299], [1, 299]):  # the first element, then the bulk rest
        ws, builder = expand(300), StorageBuilder(TensorType((2, 300), enc))
        for j in touched:
            ws.scatter(j, 1.0)
        with pytest.raises(BitWidthOverflow):
            compress(ws, builder, (0,))


def test_bulk_compress_checks_extent():
    ws, builder = expand(8), StorageBuilder(TensorType((2, 4), csr()))
    ws.scatter(1, 1.0)
    ws.scatter(6, 1.0)
    with pytest.raises(CoordOutOfBounds):
        compress(ws, builder, (0,))


@pytest.mark.parametrize("c_format", ["compressed, dense", "dense, compressed", "compressed, compressed"])
def test_expand_compress_kernel_equals_per_element(monkeypatch, c_format):
    text = (
        "tensor A(24, 20) format(dense, compressed)\n"
        "tensor B(20, 28) format(dense, compressed)\n"
        f"tensor C(24, 28) format({c_format})\n"
        "C(i, j) = A(i, k) * B(k, j)\n"
    )
    kernel = parse_kernel(text)
    order = topo_sort(build_iteration_graph(kernel))
    assert choose_output_strategy(kernel, order).kind is StrategyKind.EXPAND_COMPRESS
    bindings = {
        "A": generate(GeneratorSpec((24, 20), "uniform", density=0.15, seed=1)),
        "B": generate(GeneratorSpec((20, 28), "uniform", density=0.15, seed=2)),
    }
    bulk = engine.run_kernel(kernel, bindings)
    monkeypatch.setattr(engine, "compress", _compress_per_element)
    assert _layout(bulk) == _layout(engine.run_kernel(kernel, bindings))


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
