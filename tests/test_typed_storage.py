"""`SparseStorage` and `DenseTensor` held as read-only typed arrays:
construction from any sequence or array, the tuple views against a
pure-Python layout, the one
int64 sort key (its three paths and the bound of its index-tagged form)
against `lexsort`, the whole-array binary dump against the
struct-based writer, and the budget on the positions of dense levels."""

import random
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loops_reference import run_loops
from sparsec import engine
from sparsec.cli import main
from sparsec.encoding import COMPRESSED, DENSE, TensorType, csr, enumerate_encodings, make_encoding
from sparsec.errors import DenseOutputTooLarge, MalformedStorage, ShapeMismatch, SparsecError
from sparsec.expr import parse_kernel
from sparsec.storage import (
    CooTensor,
    DenseTensor,
    SparseStorage,
    _merge_runs,
    _row_order,
    _sorted_unique,
    dump_binary,
    load_binary,
    pack,
)

# ----------------------------------------------------------------------------
# Construction and the read-only arrays

CSR_34 = TensorType((3, 4), csr())
POINTERS = ((), (0, 2, 2, 3))
INDICES = ((), (0, 3, 1))
VALUES = (1.0, -0.0, 2.5)


def _frozen(a):
    a.flags.writeable = False
    return a


def _forms():
    """The same CSR layout as tuples, lists, writable arrays of several
    dtypes, and read-only int64/float64 arrays; its values are also the
    data of a (3,) DenseTensor."""
    yield POINTERS, INDICES, VALUES
    yield [list(p) for p in POINTERS], [list(i) for i in INDICES], list(VALUES)
    yield (
        [np.array(p, np.int64) for p in POINTERS],
        [np.array(i, np.int32) for i in INDICES],
        np.array(VALUES, np.float32),
    )
    yield (
        [np.array(p, np.uint8) for p in POINTERS],
        [np.array(i, np.uint64) for i in INDICES],
        np.array(VALUES),
    )
    yield (
        [_frozen(np.array(p, np.int64)) for p in POINTERS],
        [_frozen(np.array(i, np.int64)) for i in INDICES],
        _frozen(np.array(VALUES)),
    )


def test_every_form_builds_the_same_storage():
    built = [SparseStorage(CSR_34, *form) for form in _forms()]
    want = (
        "SparseStorage(ttype=TensorType(shape=(3, 4), encoding=Encoding(levels=(dense, "
        "compressed), ordering=(0, 1), pointer_width=0, index_width=0)), "
        "pointers=((), (0, 2, 2, 3)), indices=((), (0, 3, 1)), values=(1.0, -0.0, 2.5))"
    )
    for storage in built:
        assert storage == built[0]
        assert repr(storage) == want
        assert storage.pointers == POINTERS and storage.indices == INDICES
        for pointers, indices in map(storage.level_arrays, range(2)):
            assert pointers.dtype == indices.dtype == np.int64
        assert storage.value_array.dtype == np.float64
    dense = [DenseTensor((3,), form[2]) for form in _forms()]
    for tensor in dense:
        assert tensor == dense[0]
        assert repr(tensor) == "DenseTensor(shape=(3,), data=[1.0, -0.0, 2.5])"
        assert tensor.data.dtype == np.float64


def test_stored_arrays_reject_writes():
    for form in _forms():
        data = DenseTensor((3,), form[2]).data
        with pytest.raises(ValueError):
            data[0] = 5.0
        with pytest.raises(ValueError):
            data.sort()
        storage = SparseStorage(CSR_34, *form)
        pointers, indices = storage.level_arrays(1)
        with pytest.raises(ValueError):
            pointers[0] = 1
        with pytest.raises(ValueError):
            indices[0] = 2
        with pytest.raises(ValueError):
            storage.value_array[0] = 5.0
        with pytest.raises(ValueError):
            storage.value_array.sort()


@pytest.mark.parametrize(
    "hand_over",
    [lambda a: a, lambda a: _frozen(a.view()), lambda a: np.broadcast_to(a, a.shape)],
    ids=["array", "read-only view", "broadcast_to"],
)
def test_a_callers_writable_array_is_copied(hand_over):
    pointers = [np.array(p, np.int64) for p in POINTERS]
    indices = [np.array(i, np.int64) for i in INDICES]
    values = np.array(VALUES)
    storage = SparseStorage(
        CSR_34, list(map(hand_over, pointers)), list(map(hand_over, indices)), hand_over(values)
    )
    dense = DenseTensor((3,), hand_over(values))
    # The caller's arrays stay writable, and writing them changes nothing,
    # also when the storage or tensor was given read-only views of them.
    pointers[1][1] = 1
    indices[1][0] = 2
    values[0] = 7.0
    assert storage.pointers == POINTERS and storage.indices == INDICES
    assert repr(storage.values) == repr(VALUES)
    assert repr(dense.data.tolist()) == repr(list(VALUES))


def test_a_read_only_array_of_the_right_dtype_is_shared():
    pointers = np.array(POINTERS[1], np.int64)
    indices = np.array(INDICES[1], np.int64)
    values = np.array(VALUES)
    for a in (pointers, indices, values):
        a.flags.writeable = False
    storage = SparseStorage(CSR_34, ((), pointers), ((), indices), values)
    assert storage.level_arrays(1)[0] is pointers
    assert storage.level_arrays(1)[1] is indices
    assert storage.value_array is values
    assert storage.with_values([1.0, 2.0, 3.0]).level_arrays(1)[0] is pointers
    dense = DenseTensor((3,), values)
    assert dense.data is values
    # Converting to dense still makes a distinct tensor.
    copy = engine.convert(dense, None)
    assert copy is not dense and copy.data is not values and copy == dense


@pytest.mark.parametrize("part", ["pointers", "indices"])
@pytest.mark.parametrize("bad", [2.7, 2.0, "2", None, 2**64])
def test_non_integer_levels_are_malformed(part, bad):
    # CSR (3, 4) holding (0, 0) and (2, 2): pointers (0, 1, 1, 2), indices (0, 2).
    layout = {"pointers": [(), [0, 1, 1, 2]], "indices": [(), [0, 2]]}
    layout[part][1][-1] = bad
    with pytest.raises(MalformedStorage):
        SparseStorage(CSR_34, layout["pointers"], layout["indices"], (1.0, 2.0))


@pytest.mark.parametrize("part", ["pointers", "indices"])
def test_float_arrays_are_malformed(part):
    layout = {"pointers": [(), (0, 1, 1, 2)], "indices": [(), (0, 2)]}
    layout[part][1] = np.array(layout[part][1], np.float64)
    with pytest.raises(MalformedStorage):
        SparseStorage(CSR_34, layout["pointers"], layout["indices"], (1.0, 2.0))
    # As integers the same layout is valid.
    layout[part][1] = layout[part][1].astype(np.int64)
    SparseStorage(CSR_34, layout["pointers"], layout["indices"], (1.0, 2.0))


@pytest.mark.parametrize(
    "pointers, indices, values",
    [
        (((), np.array([[0, 1, 1, 2]])), ((), (0, 2)), (1.0, 2.0)),  # not flat
        (((), (0, 1, 1, 2)), ((), np.array([0, 2], np.uint64) - np.uint64(3)), (1.0, 2.0)),
        (((), (0, 1, 1, 2)), ((), (0, 2)), (1.0, "2.0")),
        (((), (0, 1, 1, 2)), ((), (0, 2)), (1.0, None)),
        (((), (0, 1, 1, 2)), ((), (0, 2)), np.array([1.0, 2.0], complex)),
    ],
)
def test_other_bad_arrays_are_malformed(pointers, indices, values):
    with pytest.raises(MalformedStorage):
        SparseStorage(CSR_34, pointers, indices, values)


@pytest.mark.parametrize(
    "data",
    [
        (1.0, "2.0"),
        (1.0, None),
        (1.0, 2j),
        np.array([1.0, 2.0], complex),
        np.array(["1.0", "2.0"]),
        np.array([1.0, None]),
        (1.0, 10**400),
    ],
    ids=["str", "None", "complex", "complex array", "str array", "object array", "huge int"],
)
def test_non_real_dense_values_are_a_sparsec_error(data):
    with pytest.raises(SparsecError):
        DenseTensor((2,), data)


def test_dense_tensor_of_a_type_keeps_its_value_checks():
    # A TensorType's shape is checked already and taken as it is; the
    # values are checked as they are for a tuple of extents.
    ttype = TensorType((2, 3))
    got = DenseTensor(ttype, np.arange(6.0))
    assert got.shape is ttype.shape and got == DenseTensor((2, 3), np.arange(6.0))
    with pytest.raises(ShapeMismatch, match="5 values for shape"):
        DenseTensor(ttype, np.zeros(5))
    with pytest.raises(SparsecError):
        DenseTensor(ttype, np.zeros(6, complex))


# ----------------------------------------------------------------------------
# The tuple views, `repr`, `==` and `nnz` against a pure-Python layout


def _python_layout(shape, enc, merged: dict) -> tuple:
    """Pointers, indices and values of `enc` holding `merged` (unique
    coordinates -> value), as tuples, one level and one node at a time."""
    order = [enc.dim_of_level(l) for l in range(enc.rank)]
    sshape = [shape[k] for k in order]
    stored = {tuple(c[k] for k in order): v for c, v in merged.items()}
    nodes = [()]  # the storage prefixes of the current level, in order
    pointers, indices = [], []
    for l, extent in enumerate(sshape):
        if enc.levels[l] is DENSE:
            nodes = [p + (i,) for p in nodes for i in range(extent)]
            pointers.append(())
            indices.append(())
            continue
        ptrs, idxs, children = [0], [], []
        for p in nodes:
            below = sorted({s[l] for s in stored if s[:l] == p})
            idxs += below
            children += [p + (i,) for i in below]
            ptrs.append(len(idxs))
        pointers.append(tuple(ptrs))
        indices.append(tuple(idxs))
        nodes = children
    return tuple(pointers), tuple(indices), tuple(stored.get(p, 0.0) for p in nodes)


def test_views_repr_and_eq_match_tuples_on_every_rank2_encoding():
    rng = random.Random(2020)
    shape = (6, 5)
    merged = {}
    while len(merged) < 9:
        merged[(rng.randrange(6), rng.randrange(5))] = rng.choice([1.5, -2.0, 0.0, 1e-3])
    merged[next(iter(merged))] = 0.0  # an explicit zero, stored in every format
    coo = CooTensor(shape, list(merged.items()))
    encodings = list(enumerate_encodings(2, include_bitwidths=True))
    assert len(encodings) == 200
    for enc in encodings:
        ttype = TensorType(shape, enc)
        pointers, indices, values = _python_layout(shape, enc, merged)
        # A stored -0.0 where the layout holds its first 0.0.
        values = tuple(-0.0 if v == 0.0 and i == values.index(0.0) else v
                       for i, v in enumerate(values))
        packed = pack(coo, enc).with_values(np.array(values))
        from_tuples = SparseStorage(ttype, pointers, indices, values)
        want = (
            f"SparseStorage(ttype={ttype!r}, pointers={pointers!r}, "
            f"indices={indices!r}, values={values!r})"
        )
        assert repr(packed) == repr(from_tuples) == want, enc.describe()
        assert packed == from_tuples
        assert (packed.pointers, packed.indices) == (pointers, indices)
        assert packed.nnz == sum(1 for v in values if v != 0.0)
        assert packed != packed.with_values(values[:-1] + (values[-1] + 1.0,))


# ----------------------------------------------------------------------------
# One int64 sort key against lexsort and a sequential merge

WIDE = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e16, -1e16, 1e-3]


def _reference_sorted_unique(coo, order) -> str:
    """`np.lexsort` (stable) by the coordinates in `order`, then each run of
    equal coordinates summed from 0.0 in entry order by a Python loop."""
    columns, values = coo.arrays()
    rows = _rows(columns, len(values))
    values = values.tolist()
    if rows and coo.rank:
        perm = np.lexsort([columns[k] for k in reversed(order)]).tolist()
        rows, values = [rows[p] for p in perm], [values[p] for p in perm]
    merged = []
    for row, value in zip(rows, values):
        if not merged or merged[-1][0] != row:
            merged.append((row, 0.0))
        merged[-1] = (row, merged[-1][1] + value)
    return repr(merged)


def _rows(columns, n: int) -> list:
    """The coordinate tuple of each of the `n` rows of `columns`."""
    return list(zip(*[c.tolist() for c in columns])) if columns else [()] * n


def _got_sorted_unique(coo, order) -> str:
    columns, values = _sorted_unique(coo, order)
    return repr(list(zip(_rows(columns, len(values)), values.tolist())))


@st.composite
def coo_case(draw):
    rank = draw(st.integers(0, 3))
    huge = rank and draw(st.booleans())
    if huge:  # a volume of 2**62 or more: the lexsort branch
        shape = tuple(draw(st.sampled_from([2**21, 2**31, 2**62])) for _ in range(rank - 1))
        shape += (2**62,)
        spots = [[0, 1, e - 2, e - 1] for e in shape]
    else:
        shape = tuple(draw(st.integers(1, 4)) for _ in range(rank))
        spots = [list(range(e)) for e in shape]
    pool = draw(st.lists(st.tuples(*[st.sampled_from(s) for s in spots]), min_size=1, max_size=6))
    entries = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(WIDE)), max_size=40))
    entries = draw(st.permutations(entries))
    order = draw(st.permutations(range(rank)))
    return CooTensor(shape, entries), list(order)


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(coo_case())
def test_sorted_unique_equals_lexsort_and_sequential_merge(case):
    coo, order = case
    assert _got_sorted_unique(coo, order) == _reference_sorted_unique(coo, order)


@pytest.mark.parametrize(
    "shape, n, tagged",
    [
        ((2**28, 2**28), 40, True),  # 2**56 << 6 == 2**62
        ((2**28, 2**29), 32, True),  # 2**57 << 5 == 2**62
        ((2**28, 2**29), 40, False),  # 2**57 << 6 == 2**63
        ((2**30, 2**30), 40, False),  # 2**60 << 6 == 2**66
    ],
)
def test_tagged_key_bound(shape, n, tagged):
    # A shuffled key carries its row index in its low bit_length(n - 1)
    # bits, so the volume shifted by that many bits must stay under 2**63;
    # from 2**63 on, the rows sort by `np.lexsort`.
    rng = random.Random(n)
    spots = [(i, j) for i in (0, 1, shape[0] - 1) for j in (0, shape[1] - 2, shape[1] - 1)]
    coo = CooTensor(shape, [(rng.choice(spots), rng.choice(WIDE)) for _ in range(n)])
    for order in ([0, 1], [1, 0]):
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            got = _got_sorted_unique(coo, order)
        assert lexsort.call_count == (0 if tagged else 1)
        assert got == _reference_sorted_unique(coo, order)


def test_sorted_duplicate_runs_keep_the_identity():
    # Entries already in order by (i, j), in runs of equal coordinates with
    # 0.0, -0.0 and cancelling values: the permutation is the identity, and
    # the sums are the sequential ones. By (j, i) the same entries sort.
    entries = [
        ((0, 0), -0.0), ((0, 3), 1e16), ((0, 3), 1.0), ((0, 3), -1e16),
        ((1, 1), 0.0), ((1, 1), -0.0), ((2, 0), -0.0), ((2, 0), -0.0), ((2, 3), 3.0),
    ]
    coo = CooTensor((3, 4), entries)
    columns, _ = coo.arrays()
    for extents in ([3, 4], [2**40, 2**40]):  # one int64 key, and np.lexsort
        perm, first = _row_order(list(columns), extents, len(entries))
        assert perm is None
        assert first.tolist() == [True, True, False, False, True, False, True, False, True]
    for order in ([0, 1], [1, 0]):
        assert _got_sorted_unique(coo, order) == _reference_sorted_unique(coo, order)


@pytest.mark.parametrize("shape", [(7, 5, 3), (2**40, 2**40)])
def test_long_shuffled_duplicate_runs_sum_in_entry_order(shape):
    # Runs of 60 equal coordinates, shuffled together: an unstable sort
    # reorders a run, and sums across 32 decades then round differently.
    rng = random.Random(9)
    spots = [(1, 2, 0)[: len(shape)], (3, 0, 2)[: len(shape)], (6, 4, 1)[: len(shape)]]
    entries = [(spot, rng.choice(WIDE) * rng.uniform(1, 2)) for spot in spots for _ in range(60)]
    rng.shuffle(entries)
    coo = CooTensor(shape, entries)
    for order in ([0, 1, 2][: len(shape)], [len(shape) - 1] + list(range(len(shape) - 1))):
        assert _got_sorted_unique(coo, order) == _reference_sorted_unique(coo, order)


def _stored_arrays(storage) -> list:
    return [a for l in range(storage.rank) for a in storage.level_arrays(l)] + [
        storage.value_array
    ]


def test_sorted_unique_entries_pack_without_a_permutation():
    # Entries already sorted and unique, a -0.0 among them, take no
    # permutation: the sums are the values plus 0.0 (so the -0.0 becomes
    # 0.0, as a merge from 0.0 makes it) and the coordinates are the
    # input's own. They pack to what the same entries shuffled pack to,
    # under every format. A row-major format whose last level is compressed
    # keeps the input's read-only column of j as that level's indices; no
    # other stored array shares memory with the input.
    entries = [((0, 1), -0.0), ((0, 3), 2.5), ((1, 0), 1e16), ((2, 2), -3.0), ((2, 3), 0.0)]
    coo = CooTensor((3, 4), entries)
    shuffled = CooTensor((3, 4), random.Random(4).sample(entries, len(entries)))
    columns, values = coo.arrays()
    firsts, sums = _merge_runs(list(columns), [3, 4], values)
    assert firsts is None
    assert repr(sums.tolist()) == "[0.0, 2.5, 1e+16, -3.0, 0.0]"
    assert not np.shares_memory(sums, values)
    assert _sorted_unique(coo, [0, 1])[0] is columns
    for enc in enumerate_encodings(2):
        packed = pack(coo, enc)
        assert repr(packed) == repr(pack(shuffled, enc)), enc.describe()
        shared = enc.ordering == (0, 1) and enc.levels[1] is COMPRESSED
        assert (packed.level_arrays(1)[1] is columns[1]) == shared, enc.describe()
        for stored in _stored_arrays(packed):
            if stored is not columns[1]:
                assert not any(np.shares_memory(stored, a) for a in (*columns, values))


@pytest.mark.parametrize(
    "rhs", ["A(i, k) * B(k, j)", "A(i, j)"], ids=["workspace", "direct-lex"]
)
def test_sparse_outputs_share_no_memory_with_the_bindings(rhs):
    # A is the identity, so the workspace's scattered (i, j) keys strictly
    # increase and its merge takes no permutation, and every position loop
    # reads its values as slices of the bindings' arrays.
    kernel = parse_kernel(
        "tensor A(8, 8) format(dense, compressed)\n"
        "tensor B(8, 8) format(dense, compressed)\n"
        f"tensor C(8, 8) format(dense, compressed)\nC(i, j) = {rhs}\n"
    )
    a = pack(CooTensor((8, 8), [((i, i), -0.0 if i == 3 else i + 1.0) for i in range(8)]), csr())
    rng = random.Random(8)
    b = pack(
        CooTensor((8, 8), [((i, j), rng.uniform(-1, 1)) for i in range(8) for j in range(8)
                           if rng.random() < 0.4]),
        csr(),
    )
    merges = []
    merge_runs = engine._merge_runs
    with mock.patch.object(
        engine, "_merge_runs", lambda *args: merges.append(merge_runs(*args)) or merges[-1]
    ):
        result = engine.run_kernel(kernel, {"A": a, "B": b})
    assert [firsts for firsts, _ in merges] == ([None] if rhs.endswith("B(k, j)") else [])
    with mock.patch.object(engine, "interpret", run_loops):
        assert repr(result) == repr(engine.run_kernel(kernel, {"A": a, "B": b}))
    for stored in _stored_arrays(result):
        assert not any(
            np.shares_memory(stored, bound) for bound in _stored_arrays(a) + _stored_arrays(b)
        )


# ----------------------------------------------------------------------------
# The whole-array binary dump against the struct-based writer


def _struct_dump(storage) -> bytes:
    """The reference writer: every array through `struct.pack(*array)`."""
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


def test_binary_dump_is_byte_identical_to_the_struct_writer():
    rng = random.Random(77)
    entries = [((rng.randrange(16), rng.randrange(16)), rng.uniform(-9, 9)) for _ in range(13)]
    coo = CooTensor((16, 16), entries + [((3, 3), 0.0), ((3, 3), -0.0)])
    for enc in enumerate_encodings(2, include_bitwidths=True):
        storage = pack(coo, enc)
        values = storage.value_array.copy()
        values[values == 0.0] = -0.0  # every stored zero as -0.0
        storage = storage.with_values(values)
        blob = dump_binary(storage)
        assert blob == _struct_dump(storage), enc.describe()
        again = load_binary(blob)
        assert repr(again) == repr(storage)
        assert load_binary(bytearray(blob)) == storage  # a writable buffer is copied


# ----------------------------------------------------------------------------
# The budget on the positions of dense levels

SIDE = 1 << 15
PEAK = 16 << 20


def _peak(call) -> int:
    """The tracemalloc peak of `call()`, which must raise DenseOutputTooLarge."""
    tracemalloc.start()
    try:
        with pytest.raises(DenseOutputTooLarge):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "shape, levels",
    [
        ((SIDE, SIDE), (DENSE, DENSE)),
        ((SIDE, SIDE, 2), (DENSE, DENSE, COMPRESSED)),
        ((2, SIDE, SIDE), (COMPRESSED, DENSE, DENSE)),  # past it below one entry
    ],
)
def test_pack_and_builder_check_the_budget_before_allocating(shape, levels):
    # `pack`, and the one build of a sparse output, in the engine and the
    # reference loops.
    enc = make_encoding(levels)
    one = tuple(e // 2 for e in shape)
    coo = CooTensor(shape, [(one, 1.0)])
    assert _peak(lambda: pack(coo, enc)) < PEAK
    ttype = TensorType(shape, enc)
    assert _peak(lambda: engine._sparse_output(ttype, np.array([one]).T, np.ones(1))) < PEAK


OUTER = (
    "tensor a({n}) format(compressed)\ntensor b({n}) format(compressed)\n"
    "tensor C({n}, {n}) format(dense, dense)\nC(i, j) {op} a(i) * b(j)\n"
)


@pytest.mark.parametrize("op", ["=", "+="])
@pytest.mark.parametrize("form", ["arrays", "loops"])
def test_all_dense_output_past_the_budget_on_both_forms(op, form):
    kernel = parse_kernel(OUTER.format(n=SIDE, op=op))
    bindings = {name: CooTensor((SIDE,), [((7,), 2.0)]) for name in "ab"}
    interpret = run_loops if form == "loops" else engine.interpret
    with mock.patch.object(engine, "interpret", interpret):
        assert _peak(lambda: engine.run_kernel(kernel, bindings)) < PEAK
    # Below the budget the same kernel runs.
    small = parse_kernel(OUTER.format(n=8, op=op))
    small_bindings = {name: CooTensor((8,), [((7,), 2.0)]) for name in "ab"}
    with mock.patch.object(engine, "interpret", interpret):
        assert engine.run_kernel(small, small_bindings).values[-1] == 4.0


def test_all_dense_output_past_the_budget_fails_before_the_loops_run():
    # Full operands would give frames of 2^30 rows, run in parts; the
    # budget on the output is checked before the first frame is built.
    # (With `+=` the empty output to add into fails first.)
    kernel = parse_kernel(OUTER.format(n=SIDE, op="="))
    full = CooTensor.from_arrays((SIDE,), [np.arange(SIDE)], np.ones(SIDE))
    bindings = {name: full for name in "ab"}

    def never(*args, **kwargs):
        raise AssertionError("a frame was built before the budget check")

    with mock.patch.object(engine._Frame, "__init__", never):
        assert _peak(lambda: engine.run_kernel(kernel, bindings)) < PEAK


@pytest.mark.parametrize("encoding", [csr(), None])
def test_to_dense_past_the_budget_raises_before_allocating(encoding):
    coo = CooTensor((SIDE, SIDE), [((3, 5), 1.0)])
    value = coo if encoding is None else pack(coo, encoding)
    assert _peak(lambda: engine.convert(value, None)) < PEAK
    assert _peak(value.to_dense) < PEAK
    # Below the budget the same entry is scattered.
    small = CooTensor((8, 8), [((3, 5), 1.0)])
    small = small if encoding is None else pack(small, encoding)
    assert engine.convert(small, None).data.reshape(8, 8)[3, 5] == 1.0


def test_all_dense_output_past_the_budget_is_one_cli_line(tmp_path, capsys):
    kfile = tmp_path / "outer.kernel"
    kfile.write_text(OUTER.format(n=SIDE, op="="))
    argv = ["run", "--kernel-file", str(kfile)]
    argv += ["--input", f"a=sparse<{SIDE}>([[1]], [2.0])"]
    argv += ["--input", f"b=sparse<{SIDE}>([[7]], [3.0])"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < PEAK
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[DenseOutputTooLarge]:"), err
