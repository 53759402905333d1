"""The array form of `interpret` against the reference loops.

Every Program runs as whole-array passes, co-iteration included, and a
loop whose frame would pass the row budget runs in parts that fit. The
reference is the Program written out as one Python function
(`loops_reference`). Every test here runs a kernel on the arrays, on the
arrays with every loop in parts, and on the reference, and compares the
results by `repr`, which tells -0.0 from 0.0 and an explicit zero from a
missing entry: they must be the same, bit for bit.
"""

import random
import sys
import tracemalloc
from itertools import islice, permutations, product
from unittest import mock

import numpy as np
import pytest

from conftest import row_budget
from loops_reference import run_loops
from sparsec import engine
from sparsec.cli import main, result_checksum
from sparsec.codegen import StrategyKind, lower
from sparsec.encoding import COMPRESSED
from sparsec.engine import compile_kernel, execute, prepare_kernels
from sparsec.errors import OrderConflict, SparsecError
from sparsec.expr import analyze_reductions, parse_kernel
from sparsec.lattice import build_iteration_graph, check_order, topo_sort
from sparsec.oracle import GeneratorSpec, dense_eval, generate
from sparsec.storage import CooTensor, DenseTensor, SparseStorage
from test_acceptance import _random_kernel_case

# Frame budgets that put every loop in parts: at 1 every row that makes
# more than one iteration slices its own.
BUDGETS = (1, 3)


def _outcome(kernel, programs, bindings) -> str:
    try:
        return repr(execute(kernel, programs, bindings))
    except SparsecError as e:
        return e.category


def run_both(kernel, bindings, budgets=BUDGETS) -> tuple:
    """`execute`'s result (its `repr`, or its error's category) on the
    arrays, and on the reference loops. The arrays must give the same
    result with the frame budget at each of `budgets` rows, and build no
    frame past it."""
    programs = compile_kernel(kernel)
    arrays = _outcome(kernel, programs, bindings)
    for rows in budgets:
        with row_budget(rows):
            same = _outcome(kernel, programs, bindings) == arrays
        assert same, f"in parts of {rows} rows"  # not inline: no diff of megabytes
    with mock.patch.object(engine, "interpret", run_loops):
        reference = _outcome(kernel, programs, bindings)
    return arrays, reference


def _same(text, bindings, budgets=BUDGETS) -> str:
    """Run `text` every way and return the result."""
    chosen, loops = run_both(parse_kernel(text), bindings, budgets)
    assert chosen == loops, text
    return chosen


SPMSPM = """
tensor A({n}, {n}) format(dense, compressed)
tensor B({n}, {n}) format(dense, compressed)
tensor C({n}, {n}){c}
C(i, j) = A(i, k) * B(k, j)
"""


UNION = """
tensor A({n}, {n}) format(dense, compressed)
tensor B({n}, {n}) format(dense, compressed)
tensor C({n}, {n}) format(dense, compressed)
C(i, j) = A(i, j) + B(i, j)
"""


ATB = """
tensor A({n}, {n}) format(dense, compressed)
tensor B({n}, {n}) format(dense, compressed)
tensor C({n}, {n}) format(dense, compressed)
C(i, j) = A(k, i) * B(k, j)
"""


def _spmspm(n, c="dense, compressed"):
    """C = A * B over CSR inputs; C has format `c`, or is dense for None."""
    return SPMSPM.format(n=n, c=f" format({c})" if c else "")


# ----------------------------------------------------------------------------
# The kernel families of the acceptance tests


def test_random_kernels_agree():
    # The oracle-equivalence stream of test_03, each kernel every way.
    rng = random.Random(30303)
    done = 0
    while done < 500:
        text, bindings = _random_kernel_case(rng, done % 2 == 0)
        try:
            chosen, loops = run_both(analyze_reductions(parse_kernel(text)), bindings)
        except OrderConflict:
            continue
        assert chosen == loops, text
        done += 1


def _legal_orders(piece) -> list:
    """Every loop order of `piece` that `check_order` accepts."""
    orders = []
    for order in permutations(piece.index_vars):
        try:
            check_order(piece, order)
        except OrderConflict:
            continue
        orders.append(order)
    return orders


def test_every_legal_loop_order_gives_one_result():
    # The goldens pin `topo_sort`'s order alone. Each draw runs every
    # combination of its pieces' legal orders, at most 8, and each gives
    # the oracle's result and the same nonzeros, by `repr`: the values are
    # integers, so every order adds exactly. The stored zeros follow the
    # strategies: runs whose pieces take the same ones store the same
    # entries, and the dense store keeps no sum that is exactly zero
    # unless a dense level of the output fills it in. On one order that is
    # not `topo_sort`'s, the reference loops agree with the arrays.
    rng = random.Random(5)
    runs = several = filled = 0
    for _ in range(400):
        text, bindings = _random_kernel_case(rng, integer_data=True)
        kernel = analyze_reductions(parse_kernel(text))
        pieces = [p if p.analysis else analyze_reductions(p) for p in prepare_kernels(kernel)]
        combos = list(islice(product(*map(_legal_orders, pieces)), 8))
        if not combos:
            continue  # no loop order serves every operand as stored
        want = result_checksum(dense_eval(kernel, {n: v.to_dense() for n, v in bindings.items()}))
        nonzeros = set()
        stored = {}  # the pieces' strategies -> the entries their runs store
        for combo in combos:
            programs = tuple(lower(p, order) for p, order in zip(pieces, combo))
            result = execute(kernel, programs, bindings)
            assert result_checksum(result) == want, (text, combo)
            nonzeros.add(repr(result.to_coo(drop_zeros=True)))
            strategies = tuple(p.strategy.kind for p in programs)
            stored.setdefault(strategies, set()).add(repr(result.to_coo(drop_zeros=False)))
            if strategies[-1] is StrategyKind.DENSE_STORE and isinstance(result, SparseStorage):
                zeros = np.count_nonzero(result.values == 0.0)
                if all(level is COMPRESSED for level in result.encoding.levels):
                    assert not zeros, (text, combo)
                filled += zeros > 0
            runs += 1
        assert len(nonzeros) == 1, text
        assert all(len(entries) == 1 for entries in stored.values()), text
        default = tuple(tuple(topo_sort(build_iteration_graph(p))) for p in pieces)
        other = next((combo for combo in combos if combo != default), None)
        if other is not None:
            several += 1
            programs = tuple(lower(p, order) for p, order in zip(pieces, other))
            arrays = _outcome(kernel, programs, bindings)
            with mock.patch.object(engine, "interpret", run_loops):
                assert _outcome(kernel, programs, bindings) == arrays, (text, other)
    assert (runs, several, filled) == (1110, 214, 69)


@pytest.mark.parametrize(
    "n,c,seeds",
    [
        (32, "dense, compressed", (50, 51)),
        (24, "compressed, dense", (1, 2)),
        (24, "dense, compressed", (1, 2)),
        (24, "compressed, compressed", (1, 2)),
    ],
)
def test_workspace_kernels_agree(n, c, seeds):
    kernel = parse_kernel(_spmspm(n, c))
    (program,) = compile_kernel(kernel)
    assert program.strategy.kind is StrategyKind.EXPAND_COMPRESS
    bindings = {
        name: generate(GeneratorSpec((n, n), "uniform", density=0.15, seed=seed))
        for name, seed in zip("AB", seeds)
    }
    _same(_spmspm(n, c), bindings)


# ----------------------------------------------------------------------------
# Sums must round as the loops round them


def _wide(rng, count):
    # Values across 16 decades: almost every change of summation order
    # changes the last bits of the sum.
    return [rng.uniform(1.0, 2.0) * 10.0 ** rng.randint(-8, 8) for _ in range(count)]


def test_workspace_sums_in_loop_order():
    # Every C(i, j) sums 48 products, interleaved with the other j: an
    # unstable sort, or a pairwise sum per run, rounds differently. At a
    # budget of 40 rows each row of B's loop runs in two slices, so the
    # products of one sum come from several parts.
    rng = random.Random(7)
    n = 48
    full = [(r, c) for r in range(n) for c in range(n)]
    a = CooTensor((n, n), list(zip(full, _wide(rng, n * n))))
    b = CooTensor((n, n), list(zip(full, _wide(rng, n * n))))
    _same(_spmspm(n), {"A": a, "B": b}, budgets=[40])


@pytest.mark.parametrize("out", ["tensor y(6) format(compressed)", "tensor y(6)", "tensor y()"])
def test_accumulator_and_dense_sums_in_loop_order(out):
    rng = random.Random(11)
    lhs = "y()" if out.endswith("()") else "y(i)"
    text = (
        f"tensor A(6, 64) format(dense, compressed)\ntensor v(64)\n{out}\n"
        f"{lhs} = A(i, j) * v(j)\n"
    )
    entries = list(zip(product(range(6), range(64)), _wide(rng, 6 * 64)))
    bindings = {"A": CooTensor((6, 64), entries), "v": DenseTensor((64,), _wide(rng, 64))}
    _same(text, bindings)


# ----------------------------------------------------------------------------
# Targeted cases


def test_direct_lex_places_negative_zero():
    text = (
        "tensor A(3, 4) format(dense, compressed)\n"
        "tensor C(3, 4) format(dense, compressed)\n"
        "C(i, j) = A(i, j) * -1.0\n"
    )
    # Packing sums each entry into 0.0, so A stores 0.0 at (2, 0) too.
    a = CooTensor((3, 4), [((0, 1), 0.0), ((0, 3), 2.0), ((2, 0), -0.0)])
    got = _same(text, {"A": a})
    assert "values=(-0.0, -2.0, -0.0)" in got


def test_dense_store_into_a_sparse_output_drops_cancellations_and_negative_zeros():
    # C = A^T B merges C's writes: C(0, 1) = 1.5 * 2.0 + -3.0 * 1.0 cancels
    # exactly, and C(2, 0) takes one write, 0.0 * -2.0 = -0.0. Both sums
    # are zero and dropped, as a dense buffer packed afterwards drops them;
    # the workspace and direct insertion keep theirs.
    text = ATB.format(n=3)
    (program,) = compile_kernel(parse_kernel(text))
    assert program.strategy.kind is StrategyKind.DENSE_STORE
    a = CooTensor((3, 3), [((0, 0), 1.5), ((1, 1), 4.0), ((1, 2), 0.0), ((2, 0), -3.0)])
    b = CooTensor((3, 3), [((0, 1), 2.0), ((1, 0), -2.0), ((2, 1), 1.0)])
    got = _same(text, {"A": a, "B": b})
    assert "pointers=((), (0, 0, 1, 1)), indices=((), (0,)), values=(-8.0,)" in got


def test_workspace_into_a_sparse_output_keeps_cancellations_and_negative_zeros():
    # The workspace's writes go through the dense store's merge, which
    # keeps them: C(0, 1) = 1.5 * 2.0 + -3.0 * 1.0 cancels exactly, and
    # C(2, 0) takes one write, 0.0 * -2.0 = -0.0. Both are stored as 0.0.
    text = SPMSPM.format(n=3, c=" format(dense, compressed)")
    (program,) = compile_kernel(parse_kernel(text))
    assert program.strategy.kind is StrategyKind.EXPAND_COMPRESS
    a = CooTensor((3, 3), [((0, 0), 1.5), ((0, 2), -3.0), ((1, 1), 4.0), ((2, 1), 0.0)])
    b = CooTensor((3, 3), [((0, 1), 2.0), ((1, 0), -2.0), ((2, 1), 1.0)])
    got = _same(text, {"A": a, "B": b})
    assert "pointers=((), (0, 1, 2, 3)), indices=((), (1, 0, 0)), values=(0.0, -8.0, 0.0)" in got


def test_accumulator_of_an_empty_row_stores_zero():
    text = (
        "tensor A(3, 4) format(dense, compressed)\ntensor v(4)\n"
        "tensor y(3) format(compressed)\ny(i) = A(i, j) * v(j)\n"
    )
    a = CooTensor((3, 4), [((0, 1), 2.0), ((2, 3), -1.0)])
    got = _same(text, {"A": a, "v": DenseTensor((4,), [1.0, 2.0, 3.0, 4.0])})
    assert "indices=((0, 1, 2),), values=(4.0, 0.0, -4.0)" in got


def test_accumulate_into_seeded_dense_output():
    text = (
        "tensor A(4, 4) format(dense, compressed)\ntensor v(4)\n"
        "tensor y(4)\ny(i) += A(i, j) * v(j)\n"
    )
    bindings = {
        "A": CooTensor((4, 4), [((0, 1), 2.0), ((0, 2), 0.5), ((3, 0), -1.0)]),
        "v": DenseTensor((4,), [1.0, 2.0, 3.0, 4.0]),
        "y": DenseTensor((4,), [0.25, -0.0, 1.0, 3.0]),
    }
    got = _same(text, bindings)
    assert got == "DenseTensor(shape=(4,), data=[5.75, -0.0, 1.0, 2.0])"


def test_in_place_scale():
    for rhs, values in [
        ("x(i) *= 2.0", "(3.0, -0.0, 9.0)"),
        ("x(i) = 2.0 * x(i) * 3.0", "(9.0, -0.0, 27.0)"),
        ("x(i) = -(1.0 + 0.5) * x(i)", "(-2.25, 0.0, -6.75)"),
    ]:
        text = f"tensor x(16) format(compressed)\n{rhs}\n"
        (program,) = compile_kernel(parse_kernel(text))
        assert program.strategy.kind is StrategyKind.IN_PLACE, rhs
        x = SparseStorage(program.kernel.tensors["x"], ((0, 3),), ((3, 6, 10),), (1.5, -0.0, 4.5))
        got = _same(text, {"x": x})
        assert f"indices=((3, 6, 10),), values={values}" in got, rhs
        assert x.values.tolist() == [1.5, -0.0, 4.5]  # the bound input is not written


def test_in_place_scale_in_parts(frame_budget, monkeypatch):
    # Past the budget the in-place update's loop runs in slices of its
    # positions, and the output's sink gathers each slice's writes; the
    # storage laid out from them keeps a stored -0.0 and an explicit 0.0.
    kernel = parse_kernel("tensor x(16) format(compressed)\nx(i) *= 2.0\n")
    programs = compile_kernel(kernel)
    x = SparseStorage(
        kernel.tensors["x"], ((0, 5),), ((1, 3, 6, 10, 15),), (1.5, -0.0, 0.0, 4.5, -2.0)
    )
    with mock.patch.object(engine, "interpret", run_loops):
        want = repr(execute(kernel, programs, {"x": x}))
    assert "indices=((1, 3, 6, 10, 15),), values=(3.0, -0.0, 0.0, 9.0, -4.0)" in want
    split = []
    parts = engine._ArrayRun.parts
    monkeypatch.setattr(
        engine._ArrayRun, "parts",
        lambda run, s, *args: split.append(type(s).__name__) or parts(run, s, *args),
    )
    for rows in (1, 3):
        frame_budget(rows)
        assert repr(execute(kernel, programs, {"x": x})) == want
    assert split == ["ForPositions", "ForPositions"]


@pytest.mark.parametrize(
    "out,shape,coords",
    [
        ("tensor C(2, 300) format(dense, compressed) idx(8)", (2, 300), [(0, 299)]),
        ("tensor C(2, 300) format(dense, compressed) ptr(8)", (2, 300),
         [(0, c) for c in range(256)]),
    ],
)
def test_narrow_output_widths_overflow_on_both_paths(out, shape, coords):
    text = f"tensor A(2, 300) format(dense, compressed)\n{out}\nC(i, j) = A(i, j) * 2.0\n"
    chosen, loops = run_both(
        parse_kernel(text), {"A": CooTensor(shape, [(c, 1.0) for c in coords])}
    )
    assert chosen == loops == "BitWidthOverflow"
    # The same output row through the workspace: C = I * B.
    text = (
        "tensor I(2, 2) format(dense, compressed)\ntensor B(2, 300) format(dense, compressed)\n"
        f"{out}\nC(i, j) = I(i, k) * B(k, j)\n"
    )
    kernel = parse_kernel(text)
    (program,) = compile_kernel(kernel)
    assert program.strategy.kind is StrategyKind.EXPAND_COMPRESS
    bindings = {"I": CooTensor((2, 2), [((0, 0), 1.0)])}
    bindings["B"] = CooTensor(shape, [(c, 1.0) for c in coords])
    chosen, loops = run_both(kernel, bindings)
    assert chosen == loops == "BitWidthOverflow"


@pytest.mark.parametrize(
    "c", ["dense, compressed", "compressed, compressed", "dense, dense", None]
)
def test_inputs_with_no_nonzeros(c):
    empty = CooTensor((8, 8))
    some = generate(GeneratorSpec((8, 8), "uniform", density=0.3, seed=3))
    _same(_spmspm(8, c), {"A": empty, "B": empty})
    _same(_spmspm(8, c), {"A": some, "B": empty})
    _same(_spmspm(8, c), {"A": empty, "B": some})


@pytest.mark.parametrize(
    "text",
    [
        "tensor a(6) format(compressed)\ntensor x()\nx() = a(i) * 2.0\n",
        "tensor A(4, 6) format(compressed, compressed)\ntensor v(6)\n"
        "tensor x()\nx() = A(i, j) * v(j)\n",
    ],
)
def test_rank_zero_output(text):
    kernel = parse_kernel(text)
    rng = random.Random(5)
    bindings = {
        name: CooTensor(
            ttype.shape,
            [(c, rng.uniform(-1, 1)) for c in product(*map(range, ttype.shape))
             if rng.random() < 0.5],
        )
        for name, ttype in kernel.tensors.items()
        if name != "x"
    }
    got = _same(text, bindings)
    want = dense_eval(analyze_reductions(kernel), {n: v.to_dense() for n, v in bindings.items()})
    assert got == repr(want)


CSR_A = "tensor a(4) format(compressed)\n"


@pytest.mark.parametrize(
    "text,entries,want",
    [
        # A product past the float64 range, and inf - inf.
        (CSR_A + "tensor x(4)\nx(i) = a(i) * a(i)\n", [((0,), 1e200)], "inf"),
        (CSR_A + "tensor x(4)\nx(i) = a(i) * a(i) - a(i) * a(i)\n", [((0,), 1e200)], "nan"),
        # A reduction's sum.
        (CSR_A + "tensor x()\nx() = a(i)\n", [((0,), 1e308), ((1,), 1e308)], "inf"),
        # Duplicate coordinates summed by packing, and by scattering into
        # a dense binding.
        (CSR_A + "tensor x(4)\nx(i) = a(i)\n", [((0,), 1e308), ((0,), 1e308)], "inf"),
        ("tensor a(4)\ntensor x(4)\nx(i) = a(i)\n", [((0,), 1e308), ((0,), 1e308)], "inf"),
    ],
    ids=["product", "difference", "reduction", "pack", "scatter"],
)
def test_overflow_rounds_without_a_warning(text, entries, want):
    # The suite turns warnings into errors. The array form rounds past the
    # float64 range silently, as the reference loops and `dense_eval` do.
    got = _same(text, {"a": CooTensor((4,), entries)})
    assert want in got


# ----------------------------------------------------------------------------
# Position runs: a position loop whose rows' ranges are consecutive reads
# its indices and values as slices; any other builds a column of its
# positions (`_range_positions`) and gathers through it.


@pytest.fixture
def gathered(monkeypatch):
    """The row counts of the frames whose position loop built its positions
    with `_range_positions`, in call order (other callers are not
    counted)."""
    calls = []
    range_positions = engine._range_positions

    def spy(lo, counts, ends):
        if sys._getframe(1).f_code.co_name == "_ForPositions":
            calls.append(len(counts))
        return range_positions(lo, counts, ends)

    monkeypatch.setattr(engine, "_range_positions", spy)
    return calls


@pytest.mark.parametrize(
    "a", ["dense, compressed", "compressed, compressed", "compressed, dense"],
    ids=["CSR", "DCSR", "CDR"],
)
def test_spmv_reads_its_position_runs_as_slices(gathered, a):
    # Empty rows first, last and inside, an explicit -0.0 and values across
    # 16 decades: every row's range starts where the one before it ends.
    rng = random.Random(12)
    entries = [
        ((r, c), v)
        for r in (1, 2, 5, 6, 9)
        for c, v in zip(sorted(rng.sample(range(12), 5)), _wide(rng, 5))
    ]
    entries[3] = (entries[3][0], -0.0)
    text = (
        f"tensor A(12, 12) format({a})\ntensor v(12)\ntensor x(12)\n"
        "x(i) = A(i, j) * v(j)\n"
    )
    _same(text, {"A": CooTensor((12, 12), entries), "v": DenseTensor((12,), _wide(rng, 12))})
    assert gathered == []


def test_spmspm_gathers_only_the_ranges_that_are_not_consecutive(gathered):
    # Under the dense i loop A's ranges are consecutive. B's ranges, one
    # per nonzero of A, are not, unless each row of A holds one k and the
    # k ascend with i, as in the identity.
    a = generate(GeneratorSpec((16, 16), "uniform", density=0.3, seed=1))
    b = generate(GeneratorSpec((16, 16), "uniform", density=0.3, seed=2))
    _same(_spmspm(16), {"A": a, "B": b})
    assert gathered == [a.nnz]
    gathered.clear()
    identity = generate(GeneratorSpec((16, 16), "identity"))
    _same(_spmspm(16), {"A": identity, "B": b})
    assert gathered == []


@pytest.mark.parametrize(
    "rows_a,rows_b,want",
    [((0, 1, 2, 4, 5), (1, 3, 5), [3]), ((0, 1, 4), (4, 5), []), ((1, 2, 4), (0, 2, 3, 4), [2])],
)
def test_coiteration_case_frames_keep_their_own_runs(gathered, rows_a, rows_b, want):
    # A union over DCSR operands: the rows only one operand holds run that
    # operand's position loop in a case frame of their own, made by `sub`.
    # Its ranges are consecutive, and read as slices, unless a row both
    # operands hold lies between two of them in storage: rows 0, 2 and 4 of
    # the first A, and rows 0 and 3 of the last B.
    rng = random.Random(len(rows_a))

    def matrix(rows):
        entries = [((r, c), v) for r in rows for c, v in zip((0, 2, 5), _wide(rng, 3))]
        return CooTensor((6, 6), entries)

    text = (
        "tensor A(6, 6) format(compressed, compressed)\n"
        "tensor B(6, 6) format(compressed, compressed)\n"
        "tensor C(6, 6) format(compressed, compressed)\n"
        "C(i, j) = A(i, j) + B(i, j)\n"
    )
    _same(text, {"A": matrix(rows_a), "B": matrix(rows_b)})
    assert gathered == want


@pytest.mark.parametrize(
    "a, columns",
    [("dense, compressed", 3), ("compressed, compressed", 3), ("compressed, dense", 4)],
    ids=["CSR", "DCSR", "CDR"],
)
def test_row_band_matvec_peaks_at_its_product_columns(a, columns):
    # 32 dense rows of 4096: 131,072 products. The body frame repeats its
    # parent's rows, with no row map, and A's positions are one run, read
    # as slices and never built as a column: CDR's `q * 4096 + j` too. What
    # the peak holds is, per product, i repeated for the store, v gathered
    # at j, and the product, with CDR's j tiled besides: three or four
    # columns of nnz, against five and seven with gathered frames.
    n, rows = 4096, 32
    kernel = parse_kernel(
        f"tensor A({n}, {n}) format({a})\ntensor v({n})\ntensor x({n})\n"
        "x(i) = A(i, j) * v(j)\n"
    )
    bindings = {
        "A": generate(GeneratorSpec((n, n), "rowband", dense_rows=rows, seed=3)),
        "v": generate(GeneratorSpec((n,), "uniform", density=1.0, seed=4)),
    }
    env = {name: engine.convert(v, kernel.tensors[name]) for name, v in bindings.items()}
    (program,) = compile_kernel(kernel)
    engine.interpret(program, env)  # warm: nothing cached is counted below
    tracemalloc.start()
    try:
        got = engine.interpret(program, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (columns + 0.25) * 8 * rows * n
    (i, j), values = bindings["A"].arrays()
    want = np.bincount(i, weights=values * env["v"].data[j], minlength=n)
    np.testing.assert_allclose(got.data, want, rtol=1e-10)


def test_workspace_product_peaks_at_its_product_columns():
    # CSR x CSR -> CSR at n=256, density 0.04: about 27k products through
    # the workspace. B's ranges are not consecutive, and its loop's frame
    # repeats its parent's rows, with no row map. What the loops hold at
    # the store is, per product, B's position, j and value, i and A's value
    # repeated, and the product: six columns. The merge sorts one key in
    # place, and the unsorted values are freed before the output's columns
    # are gathered. The peak stays under seven columns, against 8.6 with a
    # row map and a running count of the merge's rows.
    sparse = pytest.importorskip("scipy.sparse")
    n = 256
    kernel = parse_kernel(_spmspm(n))
    (program,) = compile_kernel(kernel)
    assert program.strategy.kind is StrategyKind.EXPAND_COMPRESS
    bindings = {
        name: generate(GeneratorSpec((n, n), "uniform", density=0.04, seed=seed))
        for name, seed in (("A", 25), ("B", 26))
    }
    env = {name: engine.convert(v, kernel.tensors[name]) for name, v in bindings.items()}
    products = int(np.diff(env["B"].pointers[1])[env["A"].indices[1]].sum())
    engine.interpret(program, env)  # warm: nothing cached is counted below
    tracemalloc.start()
    try:
        got = engine.interpret(program, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert products > 25_000
    assert peak <= 7 * 8 * products
    a, b = (
        sparse.csr_array((v.arrays()[1], tuple(v.arrays()[0])), shape=(n, n))
        for v in bindings.values()
    )
    want = (a @ b).tocsr()
    want.sort_indices()
    assert np.array_equal(got.pointers[1], want.indptr)
    assert np.array_equal(got.indices[1], want.indices)
    np.testing.assert_allclose(got.values, want.data, rtol=1e-10)


@pytest.mark.parametrize(
    "text",
    [
        "x(j) = A(i, j)\n",
        "tensor v(6) format(compressed)\nx(j) = A(i, j) * v(i)\n",
    ],
    ids=["runs", "scattered"],
)
def test_the_merge_of_one_key_column_changes_no_column(monkeypatch, text):
    # x(j), summed over i through the workspace: the writes' one key
    # column, j, descends at each new row, so the merge sorts it. That
    # column is the frame's own: a slice of A's indices where its positions
    # run, else gathered through them (under v's scattered rows), and in
    # parts their concatenation. The sort works on a copy.
    text = "tensor A(6, 6) format(dense, compressed)\ntensor x(6) format(compressed)\n" + text
    rng = random.Random(6)
    entries = [
        ((r, c), v)
        for r in range(6)
        for c, v in zip(sorted(rng.sample(range(6), 3)), _wide(rng, 3))
    ]
    bindings = {
        "A": CooTensor((6, 6), entries),
        "v": CooTensor((6,), [((i,), v) for i, v in zip((0, 2, 5), _wide(rng, 3))]),
    }
    kernel = parse_kernel(text)
    (program,) = compile_kernel(kernel)
    assert program.strategy.kind is StrategyKind.EXPAND_COMPRESS
    env = {
        name: engine.convert(value, kernel.tensors[name])
        for name, value in bindings.items()
        if name in kernel.tensors
    }
    stored = {name: repr(value) for name, value in env.items()}
    sunk = []
    sink = engine._ArrayRun.sink

    def spy(run, target, s, frame, *columns):
        sunk.extend((column, column.copy()) for column in columns)
        return sink(run, target, s, frame, *columns)

    monkeypatch.setattr(engine._ArrayRun, "sink", spy)
    _same(text, env)
    assert {name: repr(value) for name, value in env.items()} == stored
    assert sunk and all(np.array_equal(column, copy) for column, copy in sunk)


def test_row_budget_runs_the_loops_in_parts(monkeypatch, frame_budget):
    # A product through the workspace, a union that co-iterates, and a
    # union driven by a dense operand's range: at a budget of 4 rows every
    # loop runs in parts, and each row of a union that holds more than 4
    # candidates in windows of its own indices.
    bindings = {
        name: generate(GeneratorSpec(shape, "uniform", density=density, seed=seed))
        for name, shape, density, seed in (
            ("A", (16, 16), 0.3, 8), ("B", (16, 16), 0.3, 9),
            ("a", (16,), 0.3, 10), ("d", (16,), 1.0, 11),
        )
    }
    split = []
    parts, windows = engine._ArrayRun.parts, engine._ArrayRun._windows
    monkeypatch.setattr(
        engine._ArrayRun, "parts",
        lambda run, s, *args: split.append(type(s).__name__) or parts(run, s, *args),
    )
    monkeypatch.setattr(
        engine._ArrayRun, "_windows",
        lambda run, s, part: split.append("windows") or windows(run, s, part),
    )
    cases = {
        _spmspm(16): {"ForDense", "ForPositions"},
        UNION.format(n=16): {"ForDense", "WhileCoiter", "windows"},
        "tensor a(16) format(compressed)\ntensor d(16)\ntensor x(16)\nx(i) = a(i) + d(i)\n": {
            "WhileCoiter", "windows"
        },
    }
    for text, loops in cases.items():
        kernel = parse_kernel(text)
        programs = compile_kernel(kernel)
        frame_budget(1 << 22)
        unlimited = repr(execute(kernel, programs, bindings))
        assert not split
        frame_budget(4)
        assert repr(execute(kernel, programs, bindings)) == unlimited
        assert set(split) == loops
        split.clear()


# ----------------------------------------------------------------------------
# The dense-output guard


HUGE = (
    "tensor a(32768) format(compressed)\ntensor b(32768) format(compressed)\n"
    "tensor C(32768, 32768)\nC(i, j) = a(i) * b(j)\n"
)


@pytest.mark.parametrize("op", ["=", "+="])
def test_dense_output_past_the_budget_is_one_cli_line(tmp_path, capsys, op):
    # With `+=` and no binding for C, the zero output to add into is
    # checked too.
    kfile = tmp_path / "outer.kernel"
    kfile.write_text(HUGE.replace(" = ", f" {op} "))
    argv = ["run", "--kernel-file", str(kfile)]
    argv += ["--input", "a=sparse<32768>([[1]], [2.0])"]
    argv += ["--input", "b=sparse<32768>([[7]], [3.0])"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[DenseOutputTooLarge]:")
    assert peak < 16 << 20


def test_coiteration_past_the_int64_sort_key():
    # Extents whose product reaches 2**63: the merge, and the drain of the
    # cases' writes by their loop variables, sort by `np.lexsort` over
    # their columns.
    text = UNION.replace("{n}, {n}", "2, 4611686018427387904").format()
    rows = {"A": [((0, 3), 1.0), ((0, 1 << 61), 2.0), ((1, 5), 0.0)]}
    rows["B"] = [((0, 3), 0.5), ((1, 4), 4.0), ((1, (1 << 62) - 1), -1.5)]
    shape = (2, 1 << 62)
    got = _same(text, {name: CooTensor(shape, e) for name, e in rows.items()})
    assert "values=(1.5, 2.0, 4.0, 0.0, -1.5)" in got


SIBLINGS = """
tensor A(6, 8) format(dense, compressed)
tensor B(6, 8) format(dense, compressed)
tensor D(6, 8){d}
tensor E(6, 8) format(dense, compressed)
tensor C(6, 8) format(dense, compressed)
C(i, j) = {rhs}
"""


def _sibling_bindings(lasts: dict) -> dict:
    """CSR bindings of shape (6, 8) in which row r of each operand holds
    the indices 0 to `lasts[name][r]` (none for -1), and a last row drawn
    at random, so that its operands hold some indices and miss others."""
    rng = random.Random(23)
    bindings = {}
    for name, ends in lasts.items():
        held = [(r, j) for r, end in enumerate(ends) for j in range(end + 1)]
        held += [(5, j) for j in range(8) if rng.random() < 0.5]
        entries = [(c, rng.uniform(-2, 2)) for c in held]
        bindings[name] = CooTensor((6, 8), entries)
    return bindings


@pytest.mark.parametrize(
    "rhs,d,lasts",
    [
        # Nine points, which do not nest: {A, D} and {B, E} hold neither
        # the other. In rows 0 to 3 a different pair of iterators runs out
        # first, one at a time, so that each of the nine sibling loops runs.
        ("(A(i, j) + B(i, j)) * (D(i, j) + E(i, j))", " format(dense, compressed)",
         {"A": (3, 1, 3, 0, -1), "B": (1, 3, 0, 3, 7),
          "D": (4, 0, 1, 4, 2), "E": (0, 4, 4, 1, 7)}),
        # {A, B, D}, {A, B} and {D}: D runs out first in row 0, A in row 1
        # and B in row 2.
        ("A(i, j) * B(i, j) + D(i, j)", " format(dense, compressed)",
         {"A": (3, 0, 3, 7, -1), "B": (3, 3, 0, -1, 7), "D": (0, 3, 3, 5, 7)}),
        # The same, driven by the range of a dense D.
        ("A(i, j) * B(i, j) + D(i, j)", "",
         {"A": (3, 0, 3, 7, -1), "B": (3, 3, 0, -1, 7), "D": (0, 3, 3, 5, 7)}),
    ],
    ids=["union-of-unions", "sum-of-product", "range"],
)
def test_sibling_loops_that_do_not_nest_agree(rhs, d, lasts):
    # The arrays run every candidate of a co-iteration in one pass, the
    # reference loops in one loop per lattice point, one after another.
    _same(SIBLINGS.format(rhs=rhs, d=d), _sibling_bindings(lasts), budgets=(1, 3, 1 << 22))


@pytest.mark.parametrize("k", [64, 200, 260])
def test_coiteration_of_many_iterators(k):
    # One case over k iterators of one vector: the dispatch keeps a mask per
    # iterator, not a bitmask of them all or a table over its 2**k subsets.
    # At 260 factors the reference loops' product nests no parentheses, past
    # the 200 levels CPython's parser takes.
    text = "tensor a(2) format(compressed)\ntensor x()\nx() = " + " * ".join(["a(i)"] * k) + "\n"
    a = CooTensor((2,), [((0,), 2.0), ((1,), 0.5)])
    got = _same(text, {"a": a})
    want = dense_eval(parse_kernel(text), {"a": a.to_dense()})
    assert got == repr(want) == repr(DenseTensor((), np.array([2.0**k + 0.5**k])))


# ----------------------------------------------------------------------------
# Co-iteration at scale, against scipy


@pytest.mark.parametrize("op", ["+", "*"])
def test_coiteration_at_scale_matches_scipy(op):
    # CSR + CSR -> CSR and CSR .* CSR -> CSR at n=2048, density 0.01: a
    # union and an intersection over 2048 rows, with about 42k nonzeros
    # per operand.
    sparse = pytest.importorskip("scipy.sparse")
    n = 2048
    text = UNION.format(n=n).replace(" + ", f" {op} ")
    bindings = {
        name: generate(GeneratorSpec((n, n), "uniform", density=0.01, seed=seed))
        for name, seed in (("A", 21), ("B", 22))
    }
    kernel = parse_kernel(text)
    chosen, loops = run_both(kernel, bindings, budgets=[1 << 10])
    assert chosen == loops
    a, b = (
        sparse.csr_array((v.arrays()[1], tuple(v.arrays()[0])), shape=(n, n))
        for v in bindings.values()
    )
    want = (a + b if op == "+" else a.multiply(b)).tocsr()
    want.sort_indices()
    got = execute(kernel, compile_kernel(kernel), bindings)
    assert len(got.values) > (80_000 if op == "+" else 300)
    assert np.array_equal(got.pointers[1], want.indptr)
    assert np.array_equal(got.indices[1], want.indices)
    assert np.array_equal(got.values, want.data)


def test_union_case_frames_keep_only_their_loop_variables():
    # CSR + CSR -> CSR at n=1024, density 0.01: each of the union's three
    # cases stores, and the output drains once, at the end. A sink keeps
    # its writes and, as the cases write one target, their loop variables,
    # never a frame, so the positions and values that the cases loaded do
    # not add up: the peak stays under the 153 bytes an input entry of
    # every case frame kept whole (see the test below for its figure).
    n = 1024
    kernel = parse_kernel(UNION.format(n=n))
    (program,) = compile_kernel(kernel)
    bindings = {
        name: generate(GeneratorSpec((n, n), "uniform", density=0.01, seed=seed))
        for name, seed in (("A", 1), ("B", 2))
    }
    env = {name: engine.convert(v, kernel.tensors[name]) for name, v in bindings.items()}
    entries = sum(len(v.values) for v in env.values())
    tracemalloc.start()
    try:
        got = engine.interpret(program, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entries > 20_000
    assert peak <= 149 * entries
    assert repr(got) == repr(run_loops(program, env))


def test_union_sinks_hold_no_frame():
    # The union above, run the same way: what its sinks hold until the
    # drain is the cases' writes and loop variables. The peak is 97 bytes
    # an input entry, against 129 when a sink held its frame, pruned to
    # its loop variables once finished.
    n = 1024
    kernel = parse_kernel(UNION.format(n=n))
    (program,) = compile_kernel(kernel)
    assert program.merged == {"out"}
    env = {
        name: engine.convert(
            generate(GeneratorSpec((n, n), "uniform", density=0.01, seed=seed)),
            kernel.tensors[name],
        )
        for name, seed in (("A", 1), ("B", 2))
    }
    entries = sum(len(v.values) for v in env.values())
    tracemalloc.start()
    try:
        engine.interpret(program, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 110 * entries


def test_workspace_at_scale_matches_scipy():
    # CSR x CSR -> CSR at n=2048, density 0.01, through the expand/compress
    # workspace: 786,476 outputs, 5,397 of them with three or more summands,
    # whose last bits change if the compress sort is not stable.
    sparse = pytest.importorskip("scipy.sparse")
    n = 2048
    kernel = parse_kernel(_spmspm(n))
    (program,) = compile_kernel(kernel)
    assert program.strategy.kind is StrategyKind.EXPAND_COMPRESS
    bindings = {
        name: generate(GeneratorSpec((n, n), "uniform", density=0.01, seed=seed))
        for name, seed in (("A", 23), ("B", 24))
    }
    chosen, loops = run_both(kernel, bindings, budgets=[1 << 14])
    identical = chosen == loops  # not inline: pytest would diff megabytes of text
    assert identical
    a, b = (
        sparse.csr_array((v.arrays()[1], tuple(v.arrays()[0])), shape=(n, n))
        for v in bindings.values()
    )
    summands = ((a != 0).astype(np.int64) @ (b != 0).astype(np.int64)).data
    assert np.count_nonzero(summands >= 3) > 1000
    want = (a @ b).tocsr()
    want.sort_indices()
    got = execute(kernel, [program], bindings)
    assert np.array_equal(got.pointers[1], want.indptr)
    assert np.array_equal(got.indices[1], want.indices)
    np.testing.assert_allclose(got.values, want.data, rtol=1e-10)


@pytest.mark.parametrize("n,peak_mb", [(8192, 96), (60_000, 64)])
def test_dense_store_into_a_sparse_output_at_scale_matches_scipy(n, peak_mb):
    # C = A^T B, all CSR, 100k entries each: loop order k, i, j leads with
    # neither of C's variables, so C's writes are merged in loop order. A
    # buffer of C's volume would take 512 MiB at n=8192 and pass the element
    # budget at n=60000. The loops and the merge peak at 51 bytes a product
    # for n=8192's 1.2M products (60 MiB), and at 78 for n=60000's 168k
    # (12 MiB), where the arrays of C's extent weigh more.
    entries = 100_000
    sparse = pytest.importorskip("scipy.sparse")
    kernel = parse_kernel(ATB.format(n=n))
    (program,) = compile_kernel(kernel)
    assert program.strategy.kind is StrategyKind.DENSE_STORE
    rng = np.random.default_rng(n)
    env, mats = {}, []
    for name in "AB":
        flat = np.unique(rng.integers(0, n * n, entries))
        values = 1.0 - rng.random(len(flat))  # uniform in (0, 1]
        columns = np.divmod(flat, n)
        coo = CooTensor.from_arrays((n, n), columns, values)
        env[name] = engine.convert(coo, kernel.tensors[name])
        mats.append(sparse.csr_array((values, columns), shape=(n, n)))
    tracemalloc.start()
    try:
        got = execute(kernel, [program], env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mb << 20
    want = (mats[0].T @ mats[1]).tocsr()
    want.sort_indices()
    assert len(got.indices[1]) > 130_000
    assert np.array_equal(got.pointers[1], want.indptr)
    assert np.array_equal(got.indices[1], want.indices)
    assert np.array_equal(got.values, want.data)


# ----------------------------------------------------------------------------
# Past the row budget, against scipy


def _run_in_parts(kernel, bindings):
    """`execute`'s result, which must have run some loop in parts, and its
    `tracemalloc` peak."""
    programs = compile_kernel(kernel)
    env = {name: engine.convert(v, kernel.tensors[name]) for name, v in bindings.items()}
    split = []
    parts = engine._ArrayRun.parts
    with mock.patch.object(
        engine._ArrayRun, "parts", lambda run, *args: split.append(1) or parts(run, *args)
    ):
        tracemalloc.start()
        try:
            got = execute(kernel, programs, env)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert split
    return got, peak


def test_workspace_past_the_row_budget_matches_scipy():
    # CSR x CSR -> CSR at n=8192, density 0.004: about 8.9M products, more
    # than twice the row budget, so B's loop runs in three parts. The peak,
    # as the workspace's writes are merged, is about 50 bytes a product:
    # its row, j and value as the parts scattered them and concatenated.
    sparse = pytest.importorskip("scipy.sparse")
    n = 8192
    kernel = parse_kernel(_spmspm(n))
    bindings = {
        name: generate(GeneratorSpec((n, n), "uniform", density=0.004, seed=seed))
        for name, seed in (("A", 41), ("B", 42))
    }
    a, b = (
        sparse.csr_array((v.arrays()[1], tuple(v.arrays()[0])), shape=(n, n))
        for v in bindings.values()
    )
    products = int((a != 0).astype(np.int64).sum(axis=0) @ (b != 0).astype(np.int64).sum(axis=1))
    assert products > 1 << 23
    got, peak = _run_in_parts(kernel, bindings)
    assert peak < 88 * products
    want = (a @ b).tocsr()
    want.sort_indices()
    assert np.array_equal(got.pointers[1], want.indptr)
    assert np.array_equal(got.indices[1], want.indices)
    np.testing.assert_allclose(got.values, want.data, rtol=1e-10)


def test_dense_matvec_past_the_row_budget_matches_numpy():
    # y = A b with A dense, 2900 x 2900: 8.41M products, so the j loop runs
    # in three parts. The peak, as the stores into y are drained, is about
    # 40 bytes a product: its offset and value as the parts stored them and
    # concatenated, and the j of each in its part's frame, whose rows repeat
    # the part's with no row map.
    n = 2900
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, n)
    text = f"tensor A({n}, {n})\ntensor b({n})\ntensor y({n})\ny(i) = A(i, j) * b(j)\n"
    assert n * n > 1 << 23
    bindings = {"A": DenseTensor((n, n), a.ravel()), "b": DenseTensor((n,), b)}
    got, peak = _run_in_parts(parse_kernel(text), bindings)
    assert peak < 56 * n * n
    np.testing.assert_allclose(got.data, a @ b, rtol=1e-10)
