"""Property tests: the array form, whole and in parts, and the reference
loops agree on random kernels; tensors round-trip through storage, binary
dumps and files; the literal, kernel and tensor-file readers turn
malformed text into a SparsecError; every stage either runs a kernel
nested around Python's recursion limit or raises NestingTooDeep.

Hypothesis draws the cases from a fixed seed (`derandomize`) and keeps no
example database, so the suite stays deterministic. (`conftest.py` moves
Hypothesis's cache out of the checkout.)
"""

import os
import re
import sys
import tempfile
from numbers import Integral
from unittest import mock

import numpy as np

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from loops_reference import run_loops
from sparsec import engine
from sparsec.codegen import (
    AccumAcc,
    ForDense,
    ForPositions,
    Store,
    WhileCoiter,
    emit_text,
)
from sparsec.encoding import COMPRESSED, DENSE, make_encoding
from sparsec.engine import compile_kernel, convert, execute, run_kernel
from sparsec.errors import (
    BitWidthOverflow,
    DenseOutputTooLarge,
    NestingTooDeep,
    OrderConflict,
    SparsecError,
    UnsupportedKernel,
)
from sparsec.expr import parse_kernel
from sparsec.oracle import dense_eval
from sparsec.storage import CooTensor, DenseTensor, SparseStorage, dump_binary, load_binary, pack
from sparsec.tensor_io import (
    read_dense_literal,
    read_sparse_literal,
    read_tensor,
    write_tensor,
)
from test_acceptance import GOLDEN_KERNELS
from test_array_path import run_both

VARS = ("i", "j", "k")
# Stored zeros of both signs, and values whose products round.
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 3.0, 1e-3, 7e5])


@st.composite
def format_clause(draw, rank: int, dense=st.booleans()) -> str:
    """A format clause for rank `rank`, or none (a dense tensor) when
    `dense` draws True."""
    if rank == 0 or draw(dense):
        return ""
    levels = draw(st.lists(st.sampled_from([DENSE, COMPRESSED]), min_size=rank, max_size=rank))
    ordering = draw(st.permutations(range(rank)))
    widths = st.sampled_from([0, 8, 16, 32])
    encoding = make_encoding(levels, ordering, draw(widths), draw(widths))
    return f" {encoding.describe()}"


@st.composite
def operand(draw, name: str, extents: dict, max_entries: int, dense=st.booleans()):
    """A declaration, the access and COO binding of tensor `name`: rank
    1-3 over some of the variables, dense when `dense` draws True and in
    any format otherwise, with up to `max_entries` entries, so many
    segments are empty."""
    use = draw(st.permutations(VARS))[: draw(st.integers(1, 3))]
    shape = tuple(extents[v] for v in use)
    coords = st.tuples(*(st.integers(0, e - 1) for e in shape))
    entries = draw(st.dictionaries(coords, VALUES, max_size=max_entries))
    decl = f"tensor {name}({', '.join(map(str, shape))}){draw(format_clause(len(use), dense))}"
    return decl, f"{name}({', '.join(use)})", use, CooTensor(shape, list(entries.items()))


@st.composite
def output(draw, extents: dict, uses: list) -> tuple:
    """The declaration and access of `out`, over any of the variables used,
    in any order: fewer than all of them sums the rest away."""
    out = draw(st.permutations(sorted(set().union(*uses))))
    out = out[: draw(st.integers(0, len(out)))]
    shape = ", ".join(str(extents[v]) for v in out)
    return f"tensor out({shape}){draw(format_clause(len(out)))}", f"out({', '.join(out)})"


@st.composite
def product_case(draw):
    """Kernel text, COO bindings, and the operands whose stored zeros are
    to be -0.0: a product of 1-3 operands of rank 1-3 over extents up to
    12, times an optional constant, into an output of any rank over the
    variables used."""
    extents = {v: draw(st.integers(1, 12)) for v in VARS}
    operands = [draw(operand(f"T{t}", extents, 24)) for t in range(draw(st.integers(1, 3)))]
    decl, lhs = draw(output(extents, [use for _, _, use, _ in operands]))
    rhs = " * ".join(factor for _, factor, _, _ in operands)
    if draw(st.booleans()):
        rhs = f"{rhs} * {draw(st.sampled_from(['2.0', '-1.0', '0.5']))}"
    bindings = {f"T{t}": coo for t, (_, _, _, coo) in enumerate(operands)}
    negative = [name for name in bindings if draw(st.booleans())]
    text = "\n".join([d for d, _, _, _ in operands] + [decl]) + f"\n{lhs} = {rhs}\n"
    return text, bindings, negative


@st.composite
def mix_case(draw):
    """As `product_case`, but 1-4 operands joined by `+`, `-` and `*`,
    grouped at random, with an optional negation or constant factor. Sums
    of compressed operands co-iterate as unions, products as
    intersections, and a sum with a dense operand is driven by the range;
    an output that drops a variable is a scalar or scoped reduction."""
    extents = {v: draw(st.integers(1, 8)) for v in VARS}
    dense = st.sampled_from([True, False, False])
    count = draw(st.integers(1, 4))
    operands = [draw(operand(f"T{t}", extents, 16, dense)) for t in range(count)]
    decl, lhs = draw(output(extents, [use for _, _, use, _ in operands]))
    terms = [factor for _, factor, _, _ in operands]
    while len(terms) > 1:
        k = draw(st.integers(0, len(terms) - 2))
        op = draw(st.sampled_from(["+", "-", "*"]))
        terms[k : k + 2] = [f"({terms[k]} {op} {terms[k + 1]})"]
    rhs = draw(st.sampled_from(["{}", "-{}", "{} * -2.0", "0.5 * {}"])).format(terms[0])
    bindings = {f"T{t}": coo for t, (_, _, _, coo) in enumerate(operands)}
    negative = [name for name in bindings if draw(st.booleans())]
    text = "\n".join([d for d, _, _, _ in operands] + [decl]) + f"\n{lhs} = {rhs}\n"
    return text, bindings, negative


def _negative_zeros(value):
    """`value` with every stored zero as -0.0. (Packing sums each entry
    into 0.0, so COO input never stores -0.0.)"""
    if isinstance(value, DenseTensor):
        return DenseTensor(value.shape, [-0.0 if v == 0 else v for v in value.data])
    values = tuple(-0.0 if v == 0 else v for v in value.values)
    return SparseStorage(value.ttype, value.pointers, value.indices, values)


def _agree(case):
    """Run the case's kernel on the arrays, on the arrays in parts
    (`run_both`) and on the reference loops, its chosen operands with
    stored zeros as -0.0, and require one `repr`."""
    text, coo, negative = case
    kernel = parse_kernel(text)
    bindings = dict(coo)
    for name in negative:
        try:
            bindings[name] = _negative_zeros(convert(coo[name], kernel.tensors[name]))
        except BitWidthOverflow:
            pass  # every run raises it when it coerces the COO input
    try:
        chosen, loops = run_both(kernel, bindings)
    except (OrderConflict, UnsupportedKernel):
        assume(False)
    assert chosen == loops, text


SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(SETTINGS, max_examples=150)
@given(product_case())
def test_arrays_and_loops_agree_on_random_products(case):
    _agree(case)


@settings(SETTINGS, max_examples=500)
@given(mix_case())
def test_arrays_and_loops_agree_on_random_sums_and_products(case):
    _agree(case)


def _sink_loops(stmts, loops=(), found=None) -> dict:
    """The variables of the loops around each sink statement of `stmts`,
    outermost first, as a set per target: the output (a `Store`, whatever
    the strategy) or an accumulator slot."""
    found = {} if found is None else found
    for s in stmts:
        if isinstance(s, (ForDense, ForPositions)):
            _sink_loops(s.body, loops + (s.var,), found)
        elif isinstance(s, WhileCoiter):
            for case in s.cases:
                _sink_loops(case.body, loops + (s.var,), found)
        elif isinstance(s, Store):
            found.setdefault("out", set()).add(loops)
        elif isinstance(s, AccumAcc):
            found.setdefault(("acc", s.slot), set()).add(loops)
    return found


def _sink_targets(stmts):
    """The target of each sink statement of `stmts`, as `Program.merged`
    names them: "out" for a `Store`, the slot for an `AccumAcc`."""
    for s in stmts:
        if isinstance(s, Store):
            yield "out"
        elif isinstance(s, AccumAcc):
            yield s.slot
        for body in [getattr(s, "body", ())] + [case.body for case in getattr(s, "cases", ())]:
            yield from _sink_targets(body)


def _check_sinks_share_their_loops(text: str):
    """Every sink statement into one target sits under the same loops, the
    leading ones of the Program's loop order: the premise on which the
    engine merges several sinks' writes by their loop variables alone. The
    targets it merges so (`Program.merged`, found while lowering) are
    those that several statements write."""
    try:
        programs = compile_kernel(parse_kernel(text))
    except (OrderConflict, UnsupportedKernel):
        assume(False)
    for program in programs:
        for target, loops in _sink_loops(program.body).items():
            assert len(loops) == 1, (text, target, loops)
            (variables,) = loops
            assert variables == program.topo[: len(variables)], (text, target)
        targets = list(_sink_targets(program.body))
        assert program.merged == {t for t in targets if targets.count(t) > 1}, text


@settings(SETTINGS, max_examples=500)
@given(st.one_of(product_case(), mix_case()))
def test_every_sink_into_one_target_sits_under_the_same_loops(case):
    _check_sinks_share_their_loops(case[0])


def test_golden_kernels_sinks_sit_under_the_same_loops():
    for text in GOLDEN_KERNELS.values():
        _check_sinks_share_their_loops(text)


# ----------------------------------------------------------------------------
# Round trips


@st.composite
def stored_case(draw):
    """A COO tensor of rank 0-3 and an encoding for it (None at rank 0).

    A compressed level's extent lies about the largest index its width
    holds, 2**width - 1 (2**63 - 1 for 64 bits), so its coordinates reach
    that index and, for a larger extent, the one past it; a dense level's
    extent is small. The entries are none, all explicit zeros of either
    sign, or any values, duplicates included."""
    rank = draw(st.integers(0, 3))
    if not rank:
        entries = draw(st.lists(st.tuples(st.just(()), VALUES), max_size=2))
        return CooTensor((), entries), None
    levels = draw(st.lists(st.sampled_from([DENSE, COMPRESSED]), min_size=rank, max_size=rank))
    width = draw(st.sampled_from([0, 8, 16, 32, 64]))
    encoding = make_encoding(
        levels, draw(st.permutations(range(rank))), draw(st.sampled_from([0, 8, 16, 32, 64])), width
    )
    top = min((1 << (width or 64)) - 1, (1 << 63) - 1)
    shape = [0] * rank
    for level, kind in enumerate(levels):
        if kind is DENSE:
            extents = [1, 2, 5]
        else:
            extents = [1, top, top + 1, min(top + 2, 1 << 63)]
        shape[encoding.dim_of_level(level)] = draw(st.sampled_from(extents))
    near = [sorted({0, e - 1, min(top, e - 1), e // 2}) for e in shape]
    coords = st.tuples(*(st.sampled_from(c) for c in near))
    values = draw(st.sampled_from([VALUES, st.sampled_from([0.0, -0.0])]))
    entries = draw(st.lists(st.tuples(coords, values), max_size=8))
    return CooTensor(tuple(shape), entries), encoding


@settings(SETTINGS, max_examples=300)
@given(stored_case())
def test_tensors_round_trip_through_storage_dumps_and_files(case):
    # `write_tensor` -> `read_tensor` gives the normalized entries back.
    # `pack` -> `to_coo` -> `pack`, and `dump_binary` -> `load_binary`,
    # give the storage back, and with no dense level (which stores its
    # missing positions as zeros) `to_coo` gives the normalized entries.
    # Packing may fail only as a SparsecError: an index past its width.
    coo, encoding = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tns")
        write_tensor(coo, path)
        assert repr(read_tensor(path)) == repr(coo.to_coo(drop_zeros=False))
    if encoding is None:
        return
    try:
        storage = pack(coo, encoding)
    except SparsecError as e:
        assert isinstance(e, BitWidthOverflow), e
        return
    assert repr(pack(storage.to_coo(drop_zeros=False), encoding)) == repr(storage)
    if DENSE not in encoding.levels:
        assert repr(storage.to_coo(drop_zeros=False)) == repr(coo.to_coo(drop_zeros=False))
    assert repr(load_binary(dump_binary(storage))) == repr(storage)


# Coordinate elements past a shape: negative, past the extents, at and past
# the int64 edges, not integers (a float that is whole among them).
BAD_ELEMENTS = st.sampled_from(
    [-1, 5, 2**63 - 1, 2**63, -(2**63) - 1, 2**70, 1.5, 2.0, np.float64(1.0), "a", None]
)


def _good(coord, shape) -> bool:
    """Whether `coord` is a sequence of one integer per dimension of
    `shape`, each within its extent (numpy integers too)."""
    return (
        isinstance(coord, (tuple, list, np.ndarray))
        and len(coord) == len(shape)
        and all(isinstance(x, Integral) and 0 <= x < e for x, e in zip(coord, shape))
    )


@st.composite
def coordinate_case(draw):
    """A shape of rank 0-3 and coordinates for it, each in range or not:
    elements out of range or not integers, the wrong arity, a scalar or
    None for the whole coordinate, as tuples, lists or numpy arrays."""
    rank = draw(st.integers(0, 3))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    good = st.tuples(*(st.integers(0, e - 1) for e in shape))
    element = st.one_of(st.integers(0, 3), BAD_ELEMENTS)
    kinds = {
        "good": good,
        "list": good.map(list),
        "elements": st.tuples(*(element for _ in shape)),
        "array": st.lists(st.integers(-2, 4), min_size=rank, max_size=rank).map(np.array),
        "arity": st.lists(st.integers(0, 3), max_size=4).map(tuple),
        "scalar": element,
    }
    weights = ["good"] * 12 + list(kinds)
    coords = draw(st.lists(st.sampled_from(weights).flatmap(kinds.get), max_size=6))
    return shape, coords


@settings(SETTINGS, max_examples=200)
@given(coordinate_case())
def test_coo_construction_checks_every_coordinate(case):
    # Either construction raises a SparsecError, exactly when a coordinate
    # is bad, or the tensor holds the coordinates as given and no read
    # meets a bad one.
    shape, coords = case
    pairs = [(c, float(n)) for n, c in enumerate(coords)]
    good = all(_good(c, shape) for c in coords)
    makers = [lambda: CooTensor(shape, pairs)]
    if good:
        rows = np.array([list(c) for c in coords], np.int64).reshape(len(coords), len(shape))
        makers.append(lambda: CooTensor.from_arrays(shape, rows.T, [v for _, v in pairs]))
    for make in makers:
        try:
            coo = make()
        except SparsecError:
            assert not good, coords
            continue
        assert good, coords
        assert [c for c, _ in coo.entries] == [tuple(map(int, c)) for c in coords]
        coo.arrays()
        coo.to_dense()
        if shape:
            pack(coo, make_encoding([COMPRESSED] * len(shape)))


# ----------------------------------------------------------------------------
# Malformed texts

# Valid texts of each reader; the fuzz below mutates them.
READER_TEXTS = [
    (read_dense_literal, "[[1.0, 0.0, -2.5], [3, 4e2, 0.25]]"),
    (read_dense_literal, "[7.5, 0, 1]"),
    (read_sparse_literal, "sparse<16x12>([[0, 1], [15, 11], [3, 2]], [1.0, -2.5, 3])"),
    (read_sparse_literal, "sparse< 8 x 4 x 2 >([[7, 3, 1]], [0.5])"),
    (read_sparse_literal, "sparse<10>([[9], [0]], [2e3, 1])"),
    (
        parse_kernel,
        "tensor A(16, 12) format(dense, compressed) order(1, 0) ptr(32) idx(16)\n"
        "tensor x(12)\ntensor y(16) format(compressed)\ny(i) = A(i, j) * x(j)\n",
    ),
    (
        parse_kernel,
        "tensor A(3, 4) format(compressed, compressed)\ntensor B(4, 3)\n"
        "tensor C(3, 3)  # the output\nC(i, j) += (A(i, k) - 1.5) * B(k, j) * 2.0\n",
    ),
]
HUGE_NUMBERS = ["9" * 30, "18446744073709551616", "1e400", "9" * 5000, "0" * 40 + "1"]


@st.composite
def mutated_text(draw):
    """A reader and one of its valid texts after one to three mutations:
    truncated, a separator or bracket doubled or dropped, whitespace
    inserted, or a number replaced by a huge one."""
    reader, text = draw(st.sampled_from(READER_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "double", "drop", "blank", "huge"]))
        at = draw(st.integers(0, len(text)))
        spots = [i for i, c in enumerate(text) if c in "x,[]()<>"]
        numbers = [m.span() for m in re.finditer(r"\d+(?:\.\d+)?(?:e\d+)?", text)]
        if kind == "truncate":
            text = text[:at]
        elif kind in ("double", "drop") and spots:
            i = draw(st.sampled_from(spots))
            text = text[:i] + (text[i] * 2 if kind == "double" else "") + text[i + 1 :]
        elif kind == "blank":
            text = text[:at] + draw(st.sampled_from([" ", "  ", "\t", "\n"])) + text[at:]
        elif kind == "huge" and numbers:
            lo, hi = draw(st.sampled_from(numbers))
            text = text[:lo] + draw(st.sampled_from(HUGE_NUMBERS)) + text[hi:]
    return reader, text


@settings(SETTINGS, max_examples=600)
@given(mutated_text())
def test_readers_parse_or_raise_a_sparsec_error_on_mutated_texts(case):
    reader, text = case
    try:
        reader(text)
    except SparsecError:
        pass


# Valid files of each tensor format; the fuzz below mutates them.
TENSOR_FILES = [
    (
        "g.mtx",
        "%%MatrixMarket matrix coordinate real general\n% a comment\n"
        "3 4 3\n1 1 1.5\n1 4 -2e3\n3 1 0.25\n",
    ),
    ("p.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n2 1\n3 3\n4 2\n"),
    ("i.mtx", "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 7\n2 1 -3\n"),
    ("p.tns", "# plain FROSTT\n1 1 1 1.5\n2 3 1 -0.0\n4 1 2 3e2\n"),
    ("e.tns", "# extended FROSTT\n2 2\n4 3\n1 1 1.5\n4 3 -2.5\n"),
    ("v.tns", "1 1\n12\n7 0.5\n"),
    ("s.tns", "0 1\n\n7.5\n"),
]


@st.composite
def mutated_file(draw):
    """A tensor file's name and its valid text after one to three
    mutations: truncated, a blank or line break doubled or dropped, a sign
    put before a number, a `%` or `#` line inserted, or a number replaced
    by a huge one."""
    name, text = draw(st.sampled_from(TENSOR_FILES))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "double", "drop", "sign", "comment", "huge"]))
        spots = [i for i, c in enumerate(text) if c in " \n"]
        starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
        numbers = [m.span() for m in re.finditer(r"\d+(?:\.\d+)?(?:e\d+)?", text)]
        if kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif kind in ("double", "drop") and spots:
            i = draw(st.sampled_from(spots))
            text = text[:i] + (text[i] * 2 if kind == "double" else "") + text[i + 1 :]
        elif kind == "sign" and numbers:
            lo, _ = draw(st.sampled_from(numbers))
            text = text[:lo] + draw(st.sampled_from(["-", "+"])) + text[lo:]
        elif kind == "comment":
            i = draw(st.sampled_from(starts))
            text = text[:i] + draw(st.sampled_from(["%", "#", " # 1 1"])) + " x\n" + text[i:]
        elif kind == "huge" and numbers:
            lo, hi = draw(st.sampled_from(numbers))
            text = text[:lo] + draw(st.sampled_from(HUGE_NUMBERS)) + text[hi:]
    return name, text


@settings(SETTINGS, max_examples=600)
@given(mutated_file())
def test_read_tensor_reads_or_raises_a_sparsec_error_on_mutated_files(case):
    # A tensor that reads has coordinates within its shape, and converts
    # to CSR of its rank (dense levels, then a compressed last one; a
    # scalar to dense) unless those dense levels pass the element budget.
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(text)
        try:
            coo = read_tensor(path)
        except SparsecError:
            return
    coo.arrays()
    csr = make_encoding([DENSE] * (coo.rank - 1) + [COMPRESSED]) if coo.rank else None
    try:
        convert(coo, csr)
    except DenseOutputTooLarge:
        pass


# ----------------------------------------------------------------------------
# Errors in one bounded line

# The longest message that reading a tensor, a literal or arrays may raise.
ERROR_LENGTH = 200
# Tokens longer than any message may quote whole.
LONG_TOKENS = [
    "z" * 5000, "9" * 5000, "-" + "1" * 4000 + ".5", "'" + "q" * 3000 + "'",
    "[" + ", ".join(["1"] * 2000) + "]", "x".join(["1"] * 2000),
]


def _one_bounded_line(read, *args):
    """Run `read`; a SparsecError it raises must be one line of at most
    ERROR_LENGTH characters."""
    try:
        read(*args)
    except SparsecError as e:
        text = str(e)
        assert "\n" not in text and len(text) <= ERROR_LENGTH, (len(text), text[:300])


@st.composite
def with_long_token(draw, text):
    """`text` with one of LONG_TOKENS in place of a number, a word or a
    separator, or at the start of a line."""
    spans = [m.span() for m in re.finditer(r"[\w.+-]+|[x,<>()\[\]]", text)]
    starts = [(i, i) for i in [0] + [m.end() for m in re.finditer("\n", text)]]
    lo, hi = draw(st.sampled_from(spans + starts))
    return text[:lo] + draw(st.sampled_from(LONG_TOKENS)) + text[hi:]


@settings(SETTINGS, max_examples=300)
@given(st.sampled_from([case for case in READER_TEXTS if case[0] is not parse_kernel]).flatmap(
    lambda case: st.tuples(st.just(case[0]), with_long_token(case[1]))
))
def test_literal_errors_are_one_bounded_line(case):
    reader, text = case
    _one_bounded_line(reader, text)


@settings(SETTINGS, max_examples=300)
@given(mutated_file().flatmap(lambda case: st.tuples(st.just(case[0]), with_long_token(case[1]))))
def test_tensor_file_errors_are_one_bounded_line(case):
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(text)
        _one_bounded_line(read_tensor, path)


@st.composite
def arrays_case(draw):
    """A shape, coordinate columns and values for `CooTensor.from_arrays`,
    of any rank, count, shape and dtype, mostly wrong."""
    n = draw(st.sampled_from([0, 1, 3, 4096]))
    shape = draw(st.sampled_from([(), (8,), (n or 1, 5), (0, 3), (2,) * 40, (2.5,), "abc"]))
    kind = draw(st.sampled_from(["rows", "per row", "floats", "unsigned", "records", "ragged"]))
    if kind == "rows":  # a (n, k) array, iterated as its n rows
        columns = np.zeros((n, draw(st.integers(1, 3))), np.int64)
    elif kind == "per row":
        columns = [np.arange(n) % 8 for _ in range(draw(st.integers(1, 40)))]
    elif kind == "floats":
        columns = [np.full(n, 1.5)]
    elif kind == "unsigned":
        columns = [np.full(n, 2**64 - 1, np.uint64)]
    elif kind == "records":
        columns = [np.zeros(n, [(f"f{i}", "f8") for i in range(300)])]
    else:
        columns = [np.zeros(k) for k in range(draw(st.integers(2, 300)))]
    values = draw(st.sampled_from([np.ones(n), np.ones((n, 40)), np.ones((1,) * 40), ["a"] * n]))
    return shape, columns, values


@settings(SETTINGS, max_examples=300)
@given(arrays_case())
def test_from_arrays_errors_are_one_bounded_line(case):
    _one_bounded_line(CooTensor.from_arrays, *case)


@st.composite
def deep_kernel(draw) -> str:
    """The text of `b(i) = ...` over a dense `a(i)`, nested 500 to 1,300
    levels deep, around where each stage meets Python's recursion limit:
    one to three runs of parentheses, negations, sum terms or product
    factors, each run around what the runs before built, sharing the
    depth. The parser takes about four frames per parenthesis, so a run
    of them is a third as long, which still reaches past its limit."""
    kinds = draw(st.lists(st.sampled_from("(-+*"), min_size=1, max_size=3))
    shares = [draw(st.integers(1, 4)) for _ in kinds]
    levels = draw(st.integers(500, 1300))
    rhs = "a(i)"
    for kind, share in zip(kinds, shares):
        count = levels * share // sum(shares)
        if kind == "(":
            count //= 3
            rhs = "(" * count + rhs + ")" * count
        elif kind == "-":
            rhs = "-" * count + rhs
        else:
            rhs = f" {kind} ".join([rhs] + ["a(i)"] * count)
    return f"tensor a(4)\ntensor b(4)\nb(i) = {rhs}\n"


@settings(SETTINGS, max_examples=25)
@given(deep_kernel())
def test_deep_kernels_run_or_raise_nesting_too_deep(text):
    # Each stage walks the expression recursively. Past what it can walk
    # it raises NestingTooDeep, never RecursionError, and every stage that
    # runs the kernel gives one result. The stages run at Python's default
    # recursion limit, which Hypothesis raises while a test runs.
    inputs = {"a": DenseTensor((4,), [1.0, 0.5, 0.0, -1.0])}

    def outcome(stage):
        try:
            return stage()
        except NestingTooDeep:
            return None

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        kernel = outcome(lambda: parse_kernel(text))
        if kernel is None:
            return
        results = [
            outcome(lambda: run_kernel(kernel, inputs)),
            outcome(lambda: dense_eval(kernel, inputs)),
        ]
        programs = outcome(lambda: compile_kernel(kernel))
        if programs is not None:
            outcome(lambda: list(map(emit_text, programs)))
            with mock.patch.object(engine, "interpret", run_loops):
                results.append(outcome(lambda: execute(kernel, programs, inputs)))
    finally:
        sys.setrecursionlimit(limit)
    assert len({repr(r) for r in results if r is not None}) <= 1
