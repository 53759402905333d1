import itertools
import random

import numpy as np
import pytest

import conftest as refs
from sparsec import engine
from sparsec.encoding import (
    COMPRESSED,
    TensorType,
    csc,
    csr,
    dcsc,
    dcsr,
    enumerate_encodings,
    make_encoding,
)
from sparsec.engine import compile_kernel, convert, execute, run_kernel
from sparsec.errors import (
    BitWidthOverflow,
    DenseOutputTooLarge,
    OrderConflict,
    ShapeMismatch,
    UnknownTensor,
)
from sparsec.expr import analyze_reductions, parse_kernel
from sparsec.oracle import dense_eval
from sparsec.storage import CooTensor, DenseTensor, SparseStorage, pack

DOT = (
    "tensor a(16) format(compressed)\ntensor b(16) format(compressed)\n"
    "tensor x()\nx() = a(i) * b(i)\n"
)


def _identity(n):
    return CooTensor((n, n), [((i, i), 1.0) for i in range(n)])


def test_matmul_identity(mat_a):
    k = parse_kernel(
        "tensor A(3, 4) format(dense, compressed)\n"
        "tensor B(4, 4) format(dense, compressed)\n"
        "tensor C(3, 4) format(dense, compressed)\n"
        "C(i, j) = A(i, k) * B(k, j)\n"
    )
    out = run_kernel(k, {"A": mat_a, "B": _identity(4)})
    assert out.to_coo(drop_zeros=True).entries == mat_a.to_coo(drop_zeros=False).entries


def test_dot_of_reference_vector_with_itself(vec_x):
    k = parse_kernel(DOT)
    out = run_kernel(k, {"a": vec_x, "b": vec_x})
    want = refs.X3**2 + refs.X6**2 + refs.X7**2 + refs.X10**2
    assert out.data.tolist() == [want]


def test_spmv_row_sums(mat_a):
    k = parse_kernel(
        "tensor A(3, 4) format(dense, compressed)\ntensor b(4)\ntensor x(3)\n"
        "x(i) = A(i, j) * b(j)\n"
    )
    out = run_kernel(k, {"A": mat_a, "b": DenseTensor((4,), [1, 1, 1, 1])})
    assert out.data.tolist() == [refs.A00 + refs.A03, 0.0, refs.A20]


def test_scale_in_place_preserves_structure(vec_x):
    k = parse_kernel("tensor x(16) format(compressed)\nx(i) *= 2.0\n")
    src = pack(vec_x, make_encoding([COMPRESSED]))
    out = run_kernel(k, {"x": src})
    assert refs.tuples(out.indices) == refs.tuples(src.indices)
    assert refs.tuples(out.pointers) == refs.tuples(src.pointers)
    assert out.values.tolist() == [2.0 * v for v in src.values.tolist()]
    # The input is untouched.
    assert src.values.tolist() == [refs.X3, refs.X6, refs.X7, refs.X10]


def test_dot_disjoint_supports_is_zero():
    k = parse_kernel(DOT)
    a = CooTensor((16,), [((1,), 2.0), ((5,), 3.0)])
    b = CooTensor((16,), [((2,), 4.0), ((9,), 1.0)])
    assert run_kernel(k, {"a": a, "b": b}).data.tolist() == [0.0]


def test_missing_binding():
    k = parse_kernel(DOT)
    with pytest.raises(UnknownTensor):
        run_kernel(k, {"a": CooTensor((16,))})


def test_binding_shape_mismatch():
    k = parse_kernel(DOT)
    with pytest.raises(ShapeMismatch):
        run_kernel(k, {"a": CooTensor((8,)), "b": CooTensor((16,))})


def test_inputs_accept_any_tensor_form(mat_a):
    k = parse_kernel(
        "tensor A(3, 4) format(dense, compressed)\ntensor b(4)\ntensor x(3)\n"
        "x(i) = A(i, j) * b(j)\n"
    )
    b = DenseTensor((4,), [1, 1, 1, 1])
    as_coo = run_kernel(k, {"A": mat_a, "b": b})
    as_storage = run_kernel(k, {"A": pack(mat_a, dcsc()), "b": b})  # re-packed
    as_dense = run_kernel(k, {"A": mat_a.to_dense(), "b": b})
    assert as_coo.data.tolist() == as_storage.data.tolist() == as_dense.data.tolist()


COPY = (
    "tensor A(3, 300) format(dense, compressed){a}\n"
    "tensor C(3, 300) format(dense, compressed){c}\nC(i, j) = A(i, j)\n"
)


def test_a_binding_in_the_declared_layout_is_read_as_stored(monkeypatch):
    # Widths aside, a storage in the declared layout is adopted, not packed
    # again: only the declared widths are checked, and a stored -0.0 stays.
    stored = pack(CooTensor((3, 300), [((0, 1), 1.0), ((2, 299), 2.0)]), csr())
    stored = stored.with_values(np.array([-0.0, 2.0]))
    packed = []
    monkeypatch.setattr(engine, "pack", lambda *args: packed.append(args) or pack(*args))
    for widths in ["", " ptr(8) idx(16)"]:
        out = run_kernel(parse_kernel(COPY.format(a=widths, c="")), {"A": stored})
        assert out.values.tobytes() == stored.values.tobytes()
    with pytest.raises(BitWidthOverflow) as caught:
        run_kernel(parse_kernel(COPY.format(a=" idx(8)", c="")), {"A": stored})
    assert str(caught.value) == "index value 299 does not fit in 8 bits"
    assert packed == []


def test_execute_adopts_a_result_under_the_kernel_s_widths():
    # The Programs of a kernel whose output differs only in its widths run
    # as they are; the result takes the declared widths, checked.
    a = CooTensor((3, 300), [((0, 1), 1.0), ((2, 299), 2.0)])
    programs = compile_kernel(parse_kernel(COPY.format(a="", c="")))
    narrow = parse_kernel(COPY.format(a="", c=" ptr(8) idx(16)"))
    out = execute(narrow, programs, {"A": a})
    assert out.ttype == narrow.output_type
    assert out == pack(a, narrow.output_type.encoding)
    with pytest.raises(BitWidthOverflow) as caught:
        execute(parse_kernel(COPY.format(a="", c=" idx(8)")), programs, {"A": a})
    assert str(caught.value) == "index value 299 does not fit in 8 bits"


# ----------------------------------------------------------------------------
# convert


def test_convert_csr_to_csc(mat_a):
    got = convert(pack(mat_a, csr()), csc())
    assert got == pack(mat_a, csc())


def test_convert_dense_to_compressed_drops_zeros():
    got = convert(DenseTensor((4,), [1.0, 0.0, 2.0, 0.0]), make_encoding([COMPRESSED]))
    assert got.pointers[0].tolist() == [0, 2]
    assert got.indices[0].tolist() == [0, 2]
    assert got.values.tolist() == [1.0, 2.0]


def test_convert_dcsc_to_dense(mat_a):
    got = convert(pack(mat_a, dcsc()), None)
    assert got == mat_a.to_dense()


def test_convert_shape_mismatch(mat_a):
    with pytest.raises(ShapeMismatch):
        convert(pack(mat_a, csr()), TensorType((4, 3), csr()))


def test_convert_cycle_preserves_nonzeros():
    rng = random.Random(99)
    entries = {}
    for _ in range(120):
        entries[(rng.randrange(32), rng.randrange(32))] = rng.uniform(0.1, 2.0)
    coo = CooTensor((32, 32), list(entries.items())).to_coo(drop_zeros=False)
    value = pack(coo, csr())
    for enc in (csc(), dcsr(), dcsc(), None, csr()):
        value = convert(value, enc)
    assert value == pack(coo, csr())


# ----------------------------------------------------------------------------
# Properties


def _run_vs_oracle(kernel_text, bindings, tol=0.0):
    k = analyze_reductions(parse_kernel(kernel_text))
    got = convert(run_kernel(k, bindings), None)
    dense_inputs = {
        n: (v.to_dense() if isinstance(v, CooTensor) else convert(v, None))
        for n, v in bindings.items()
    }
    want = dense_eval(k, dense_inputs)
    assert got.shape == want.shape
    for a, b in zip(got.data, want.data):
        if tol == 0.0:
            assert a == b, (kernel_text, got.data, want.data)
        else:
            assert abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def test_lattice_soundness_all_support_patterns():
    # Random 1-D kernels over {+,-,*} with up to 3 operands, evaluated for
    # every 2^n sparsity assignment of the operands, must match the oracle.
    rng = random.Random(31)
    ops = ["+", "-", "*"]
    for trial in range(40):
        n_ops = rng.randint(1, 3)
        names = ["a", "b", "c"][:n_ops]
        expr = f"{names[0]}(i)"
        for name in names[1:]:
            expr = f"{expr} {rng.choice(ops)} {name}(i)"
        for sparsity in itertools.product([True, False], repeat=n_ops):
            decls = []
            for name, sparse in zip(names, sparsity):
                fmt = " format(compressed)" if sparse else ""
                decls.append(f"tensor {name}(6){fmt}")
            decls.append("tensor out(6)")
            text = "\n".join(decls) + f"\nout(i) = {expr}\n"
            bindings = {}
            for name in names:
                entries = [
                    ((i,), round(rng.uniform(0.5, 3.0), 3))
                    for i in range(6)
                    if rng.random() < 0.5
                ]
                bindings[name] = CooTensor((6,), entries)
            _run_vs_oracle(text, bindings)


def test_encoding_invariance_small_matmul():
    # Same kernel and inputs, every rank-2 encoding for each operand in
    # turn: elementwise-identical results.
    rng = random.Random(7)
    entries_a = {(rng.randrange(6), rng.randrange(5)): rng.uniform(0.1, 1) for _ in range(9)}
    entries_b = {(rng.randrange(5), rng.randrange(4)): rng.uniform(0.1, 1) for _ in range(8)}
    a = CooTensor((6, 5), list(entries_a.items()))
    b = CooTensor((5, 4), list(entries_b.items()))
    reference = None
    for enc_a in enumerate_encodings(2):
        text = (
            f"tensor A(6, 5) {enc_a.describe()}\n"
            "tensor B(5, 4) format(dense, compressed)\n"
            "tensor C(6, 4)\n"
            "C(i, j) = A(i, k) * B(k, j)\n"
        )
        out = run_kernel(parse_kernel(text), {"A": a, "B": b})
        if reference is None:
            reference = out.data.tolist()
        else:
            assert out.data.tolist() == reference, enc_a.describe()


def test_output_encoding_invariance():
    # Transposed fully-compressed outputs conflict with A's row-major walk
    # and are rejected; every runnable combination must agree.
    rng = random.Random(13)
    entries = {(rng.randrange(5), rng.randrange(5)): rng.uniform(0.1, 1) for _ in range(8)}
    a = CooTensor((5, 5), list(entries.items()))
    want = None
    ran = 0
    for enc_c in enumerate_encodings(2):
        text = (
            "tensor A(5, 5) format(dense, compressed)\n"
            f"tensor C(5, 5) {enc_c.describe()}\n"
            "C(i, j) = A(i, j) * 3.0\n"
        )
        try:
            out = run_kernel(parse_kernel(text), {"A": a})
        except OrderConflict:
            continue
        ran += 1
        got = sorted(out.to_coo(drop_zeros=True).entries)
        if want is None:
            want = got
        else:
            assert got == want, enc_c.describe()
    assert ran >= 6


def test_every_output_is_valid_storage():
    # validate() runs in the SparseStorage constructor; reaching here means
    # every produced storage passed its invariants. Exercise a few shapes.
    rng = random.Random(3)
    for trial in range(10):
        entries = {
            (rng.randrange(4), rng.randrange(4)): rng.uniform(0.1, 1) for _ in range(5)
        }
        a = CooTensor((4, 4), list(entries.items()))
        text = (
            "tensor A(4, 4) format(dense, compressed)\n"
            "tensor B(4, 4) format(dense, compressed)\n"
            "tensor C(4, 4) format(dense, compressed)\n"
            "C(i, j) = A(i, k) * B(k, j)\n"
        )
        out = run_kernel(parse_kernel(text), {"A": a, "B": _identity(4)})
        assert isinstance(out, SparseStorage)
        out.validate()


def test_mttkrp_small_all_ones():
    text = (
        "tensor B(2, 2, 2) format(dense, compressed, compressed)\n"
        "tensor D(2, 2)\ntensor C(2, 2)\ntensor A(2, 2)\n"
        "A(i, j) = B(i, k, l) * D(l, j) * C(k, j)\n"
    )
    ones3 = CooTensor((2, 2, 2), [((i, k, l), 1.0) for i in range(2) for k in range(2) for l in range(2)])
    ones2 = DenseTensor((2, 2), [1.0] * 4)
    out = run_kernel(parse_kernel(text), {"B": ones3, "D": ones2, "C": ones2})
    assert out.data.tolist() == [4.0] * 4


ACCUMULATE_CASES = [
    ("tensor out()", "out()", "A(i, j) * v(j)"),
    ("tensor out(5)", "out(i)", "A(i, j) * v(j)"),
    ("tensor out(5) format(compressed)", "out(i)", "A(i, j) * v(j)"),
    ("tensor out(5, 4)", "out(i, j)", "A(i, j) + A(i, j)"),
    ("tensor out(5, 4) format(dense, compressed)", "out(i, j)", "A(i, j) + A(i, j)"),
    ("tensor out(5, 4) format(compressed, compressed)", "out(i, j)", "A(i, j) * 2.0"),
]


@pytest.mark.parametrize("decl,lhs,rhs", ACCUMULATE_CASES)
def test_accumulate_kernels_match_oracle(decl, lhs, rhs):
    # `+=` seeds dense outputs from their binding and rewrites sparse
    # outputs to read the previous value; both must agree with the oracle.
    rng = random.Random(hash((decl, rhs)) & 0xFFFF)
    text = f"tensor A(5, 4) format(dense, compressed)\ntensor v(4)\n{decl}\n{lhs} += {rhs}\n"
    kernel = analyze_reductions(parse_kernel(text))
    a_entries = [
        ((r, c), rng.uniform(0.2, 2.0)) for r in range(5) for c in range(4) if rng.random() < 0.4
    ]
    out_shape = kernel.tensors["out"].shape
    seed_entries = []
    if out_shape:
        import itertools

        seed_entries = [
            (coords, float(rng.randint(1, 3)))
            for coords in itertools.product(*[range(e) for e in out_shape])
            if rng.random() < 0.4
        ]
    bindings = {
        "A": CooTensor((5, 4), a_entries),
        "v": DenseTensor((4,), [1.0, 2.0, 0.5, 1.5]),
        "out": CooTensor(out_shape, seed_entries) if out_shape else DenseTensor((), [2.0]),
    }
    got = convert(run_kernel(kernel, bindings), None)
    dense_in = {
        n: (v.to_dense() if isinstance(v, CooTensor) else v) for n, v in bindings.items()
    }
    want = dense_eval(kernel, dense_in)
    for x, y in zip(got.data, want.data):
        assert abs(x - y) <= 1e-10 * max(abs(x), abs(y), 1.0), text


@pytest.mark.parametrize(
    "rhs,pieces",
    [("A(i, j) * v(j)", 1), ("A(i, j) * (B(j, k) * c(k) + 1.0)", 2)],
    ids=["one piece", "split temporary"],
)
def test_unbound_dense_accumulate_adds_into_zeros(rhs, pieces):
    # A dense `+=` output left unbound is bound to zeros, so the result is
    # the `=` kernel's.
    rng = random.Random(31)
    decls = (
        "tensor A(6, 5) format(dense, compressed)\ntensor B(5, 4) format(compressed, compressed)\n"
        "tensor v(5)\ntensor c(4)\ntensor x(6)\n"
    )
    bindings = {}
    for name, shape in (("A", (6, 5)), ("B", (5, 4)), ("v", (5,)), ("c", (4,))):
        held = [c for c in np.ndindex(*shape) if rng.random() < 0.5]
        bindings[name] = CooTensor(shape, [(c, rng.uniform(-2, 2)) for c in held])
    kernel = parse_kernel(decls + f"x(i) += {rhs}\n")
    assert len(compile_kernel(kernel)) == pieces
    got = run_kernel(kernel, bindings)
    assert repr(got) == repr(run_kernel(parse_kernel(decls + f"x(i) = {rhs}\n"), bindings))
    want = dense_eval(kernel, {name: v.to_dense() for name, v in bindings.items()})
    np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "op,rhs,want", [("=", "x(i) + v(i)", [1.0, 2.0, 3.0, 4.0]), ("+=", "x(i) * v(i)", [0.0] * 4)]
)
def test_an_unbound_dense_output_a_piece_reads_is_zeros(op, rhs, want):
    kernel = parse_kernel(f"tensor v(4)\ntensor x(4)\nx(i) {op} {rhs}\n")
    assert run_kernel(kernel, {"v": DenseTensor((4,), [1.0, 2.0, 3.0, 4.0])}).data.tolist() == want


def test_unbound_dense_accumulate_past_the_budget_runs_no_piece(monkeypatch):
    # The zeros of an unbound dense `+=` output are checked before the
    # temporaries' pieces run, not once the output's own piece is reached.
    kernel = parse_kernel(
        "tensor A(32768, 4) format(dense, compressed)\n"
        "tensor B(4, 4) format(compressed, compressed)\n"
        "tensor c(4)\ntensor d(32768)\ntensor C(32768, 32768)\n"
        "C(i, l) += A(i, j) * (B(j, k) * c(k) + 1.0) * d(l)\n"
    )
    programs = compile_kernel(kernel)
    assert len(programs) > 1
    interpreted = []
    monkeypatch.setattr(engine, "interpret", lambda *args: interpreted.append(args))
    inputs = {"A": CooTensor((32768, 4), [((0, 1), 2.0)]), "B": CooTensor((4, 4), [((1, 2), 3.0)])}
    inputs.update(c=CooTensor((4,), [((2,), 1.0)]), d=CooTensor((32768,), [((5,), 1.0)]))
    with pytest.raises(DenseOutputTooLarge, match="'C'"):
        execute(kernel, programs, inputs)
    assert interpreted == []


# ----------------------------------------------------------------------------
# Deep loop nests


def _union_kernel(rank: int) -> str:
    # C = A + B, every level compressed: one co-iteration loop per level,
    # so the loop nest is `rank` deep.
    shape = ", ".join(["1"] * (rank - 3) + ["2", "3", "2"])
    idx = ", ".join(f"i{d}" for d in range(rank))
    fmt = f"format({', '.join(['compressed'] * rank)})"
    decls = "".join(f"tensor {t}({shape}) {fmt}\n" for t in "ABC")
    return f"{decls}C({idx}) = A({idx}) + B({idx})\n"


def _union_inputs(kernel) -> dict:
    pad = (0,) * (kernel.tensors["A"].rank - 3)
    a = [(pad + (0, 1, 1), 2.0), (pad + (1, 2, 0), 3.0)]
    b = [(pad + (0, 1, 1), 0.5), (pad + (1, 0, 1), 4.0)]
    return {name: CooTensor(kernel.tensors[name].shape, e) for name, e in (("A", a), ("B", b))}


def _union_matches_oracle(rank: int):
    kernel = parse_kernel(_union_kernel(rank))
    bindings = _union_inputs(kernel)
    got = convert(run_kernel(kernel, bindings), None)
    want = dense_eval(kernel, {name: v.to_dense() for name, v in bindings.items()})
    assert got.data.tolist() == want.data.tolist()
    assert sorted(got.data)[-3:] == [2.5, 3.0, 4.0]


def test_deepest_supported_loop_nest_matches_oracle(frame_budget):
    # 21 nested co-iteration loops, one past what one Python function can
    # nest, in parts of one row each.
    frame_budget(1)
    _union_matches_oracle(21)


def test_loop_nest_past_the_python_limit_runs_on_the_arrays():
    _union_matches_oracle(21)
