"""Structural checks on lowering: strategies, IR shape, emission."""

import dataclasses
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import sparsec
from sparsec import codegen, engine, lattice
from sparsec import expr as expr_module
from sparsec.codegen import (
    CompressWs,
    DeclAcc,
    ExpandWs,
    ForDense,
    ForPositions,
    Store,
    StrategyKind,
    WhileCoiter,
    emit_text,
    lower,
)
from sparsec.encoding import TensorType, enumerate_encodings
from sparsec.engine import compile_kernel, execute, prepare_kernels
from sparsec.errors import OrderConflict, UnsupportedKernel
from sparsec.expr import analyze_reductions, parse_kernel
from sparsec.lattice import build_iteration_graph, build_lattice, topo_sort
from sparsec.oracle import dense_eval
from sparsec.storage import DenseTensor
import loops_reference
from test_acceptance import GOLDEN_KERNELS, _random_kernel_case


def _lowered(text):
    k = analyze_reductions(parse_kernel(text))
    topo = topo_sort(build_iteration_graph(k))
    lattices = {v: build_lattice(k, v) for v in topo}
    return k, topo, lower(k, topo, lattices)


def _nodes(stmts, kind):
    found = []
    todo = list(stmts)
    while todo:
        s = todo.pop(0)
        if isinstance(s, kind):
            found.append(s)
        todo.extend(getattr(s, "body", ()))
        if isinstance(s, WhileCoiter):
            for case in s.cases:
                todo.extend(case.body)
    return found


SPMSPM = """
tensor A(3, 4) format(dense, compressed)
tensor B(4, 5) format(dense, compressed)
tensor C(3, 5) format(dense, compressed)
C(i, j) = A(i, k) * B(k, j)
"""


def test_spmspm_takes_workspace_strategy():
    k, topo, prog = _lowered(SPMSPM)
    assert prog.strategy.kind is StrategyKind.EXPAND_COMPRESS
    assert prog.strategy.var == "j"  # the reduction loop k intervenes
    assert _nodes(prog.body, ExpandWs) and _nodes(prog.body, Store)
    assert _nodes(prog.body, CompressWs)[0].prefix == ("i",)


def test_elementwise_add_direct_lex():
    k, topo, prog = _lowered(
        "tensor A(3, 4) format(dense, compressed)\n"
        "tensor B(3, 4) format(dense, compressed)\n"
        "tensor C(3, 4) format(dense, compressed)\n"
        "C(i, j) = A(i, j) + B(i, j)\n"
    )
    assert prog.strategy.kind is StrategyKind.DIRECT_LEX
    assert not _nodes(prog.body, ExpandWs) and not _nodes(prog.body, CompressWs)
    assert _nodes(prog.body, Store)


def test_dense_output_matmul_dense_store():
    k, topo, prog = _lowered(
        "tensor A(3, 4) format(dense, compressed)\n"
        "tensor B(4, 5) format(dense, compressed)\n"
        "tensor C(3, 5)\n"
        "C(i, j) = A(i, k) * B(k, j)\n"
    )
    assert prog.strategy.kind is StrategyKind.DENSE_STORE


def test_scalar_output_uses_accumulator_buffer():
    k, topo, prog = _lowered(
        "tensor a(4) format(compressed)\ntensor x()\nx() = a(i) * a(i)\n"
    )
    assert prog.strategy.kind is StrategyKind.DENSE_STORE


IN_PLACE_SCALES = ["x(i) *= 2.0", "x(i) = 2.0 * x(i) * 3.0", "x(i) = -(1.0 + 0.5) * x(i)"]


def test_scale_in_place():
    for rhs in IN_PLACE_SCALES:
        k, topo, prog = _lowered(f"tensor x(16) format(compressed)\n{rhs}\n")
        assert prog.strategy.kind is StrategyKind.IN_PLACE, rhs
        loops = _nodes(prog.body, ForPositions)
        assert len(loops) == 1, rhs
        assert _nodes(prog.body, Store), rhs
        assert not _nodes(prog.body, ForDense), rhs


NOT_IN_PLACE = [
    "x(i) = (x(i) + 1.0) * 2.0",
    "x(i) = 2.0 * -x(i)",
    "x(i) = x(i) * y(i)",
    "x(i) = x(i) * x(i)",
    "x(i) += 2.0 * x(i)",
    "d(i) *= 2.0",
    "z(i, j) *= 2.0",
]


@pytest.mark.parametrize("rhs", NOT_IN_PLACE)
def test_only_a_scale_by_constants_is_in_place(rhs):
    # The output must be a compressed vector and a factor of a pure
    # product whose other factors read no tensor.
    k = analyze_reductions(
        parse_kernel(
            "tensor x(16) format(compressed)\ntensor y(16) format(compressed)\n"
            f"tensor d(16)\ntensor z(4, 4) format(dense, compressed)\n{rhs}\n"
        )
    )
    strategy = codegen.choose_output_strategy(k, topo_sort(build_iteration_graph(k)))
    assert strategy.kind is not StrategyKind.IN_PLACE


def test_every_ir_statement_has_a_handler():
    # The IR's statements are the dataclasses `codegen` defines, less the
    # expression leaves, a co-iteration's case, the strategy and the
    # Program; the engine, the text emitter and the reference loops each
    # handle every one, and have a `_Capitalized` method for no other.
    others = {"AccRef", "CoiterCase", "OutputStrategy", "Program"}
    statements = [
        name
        for name, cls in vars(codegen).items()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == codegen.__name__
        and name not in others
    ]
    assert "Store" in statements
    for walker in (engine._ArrayRun, codegen._Emitter, loops_reference._Generator):
        for name in statements:
            assert callable(getattr(walker, f"_{name}", None)), (walker.__name__, name)
        # And no handler is left for a statement that is gone.
        handlers = {name[1:] for name in dir(walker) if name[:1] == "_" and name[1:2].isupper()}
        assert handlers <= set(statements), (walker.__name__, handlers - set(statements))


def test_golden_kernels_cover_every_strategy():
    # So each of the store statement's printed forms is pinned byte for
    # byte by a golden IR text.
    strategies = {
        program.strategy.kind
        for text in GOLDEN_KERNELS.values()
        for program in compile_kernel(parse_kernel(text))
    }
    assert strategies == set(StrategyKind)


def test_dot_product_single_coiteration():
    k, topo, prog = _lowered(
        "tensor a(16) format(compressed)\ntensor b(16) format(compressed)\n"
        "tensor x()\nx() = a(i) * b(i)\n"
    )
    loops = _nodes(prog.body, WhileCoiter)
    assert len(loops) == 1
    assert len(loops[0].iterators) == 2
    assert len(loops[0].cases) == 1


def test_union_emits_loop_per_lattice_point():
    k, topo, prog = _lowered(
        "tensor a(8) format(compressed)\ntensor b(8) format(compressed)\n"
        "tensor c(8) format(compressed)\nc(i) = a(i) + b(i)\n"
    )
    # One statement, whose cases are the lattice's points, each lowered
    # once; the text prints the paper's loops, one per point.
    (loop,) = _nodes(prog.body, WhileCoiter)
    lat = build_lattice(k, "i")
    assert [case.iterators for case in loop.cases] == [p.iterators for p in lat.points]
    assert len(lat.points) == 3
    assert [len(inner.cases) for inner in loop.loops()] == [3, 1, 1]
    assert sum(line.lstrip().startswith("while ") for line in emit_text(prog).splitlines()) == 3


def test_advance_progress_everywhere():
    # Each co-iterating loop advances exactly the matching iterators; with
    # at least one iterator per loop, progress is structural.
    for text in [
        SPMSPM,
        "tensor a(8) format(compressed)\ntensor b(8) format(compressed)\n"
        "tensor c(8) format(compressed)\nc(i) = a(i) + b(i)\n",
        "tensor a(8) format(compressed)\ntensor B(8)\ntensor c(8)\nc(i) = a(i) + B(i)\n",
    ]:
        _, _, prog = _lowered(text)
        for loop in _nodes(prog.body, WhileCoiter):
            assert loop.iterators or loop.has_range


def test_direct_lex_with_reduction_wraps_accumulator():
    k, topo, prog = _lowered(
        "tensor A(3, 4) format(dense, compressed)\n"
        "tensor v(4)\n"
        "tensor x(3) format(compressed)\n"
        "x(i) = A(i, j) * v(j)\n"
    )
    assert prog.strategy.kind is StrategyKind.DIRECT_LEX
    assert len(_nodes(prog.body, DeclAcc)) == 1
    text = emit_text(prog)
    assert "acc0 = 0.0" in text and "insert x(i) = acc0" in text


def test_fallback_dense_store_for_awkward_order():
    k, topo, prog = _lowered(
        "tensor A(5, 3) format(compressed, compressed)\n"
        "tensor B(5, 4) format(compressed, compressed)\n"
        "tensor C(3, 4) format(compressed, compressed)\n"
        "C(i, j) = A(k, i) * B(k, j)\n"
    )
    assert topo[0] == "k"
    assert prog.strategy.kind is StrategyKind.DENSE_STORE


def test_reject_constant_add_into_compressed():
    with pytest.raises(UnsupportedKernel):
        _lowered(
            "tensor a(4) format(compressed)\ntensor c(4) format(compressed)\n"
            "c(i) = a(i) + 1.0\n"
        )
    with pytest.raises(UnsupportedKernel):
        _lowered(
            "tensor a(4) format(compressed)\ntensor c(4) format(compressed)\n"
            "c(i) = 2.0 - a(i)\n"
        )


def test_masked_constant_accepted():
    _lowered(
        "tensor s(4) format(compressed)\ntensor a(4) format(compressed)\n"
        "tensor c(4) format(compressed)\nc(i) = s(i) * (a(i) + 1.0)\n"
    )


def test_emit_text_deterministic():
    _, _, prog1 = _lowered(SPMSPM)
    _, _, prog2 = _lowered(SPMSPM)
    assert emit_text(prog1) == emit_text(prog2)


def test_emit_scale_contains_position_loop():
    _, _, prog = _lowered("tensor x(16) format(compressed)\nx(i) *= 2.0\n")
    text = emit_text(prog)
    assert "for p_x0 in [x0_lo, x0_hi):" in text
    assert "store x.value[p_x0]" in text


def test_emit_dot_contains_while_and_advances():
    _, _, prog = _lowered(
        "tensor a(16) format(compressed)\ntensor b(16) format(compressed)\n"
        "tensor x()\nx() = a(i) * b(i)\n"
    )
    text = emit_text(prog)
    assert text.count("while ") == 1
    assert text.count("advance ") == 2


def test_emit_negated_sum_keeps_its_parentheses():
    _, _, prog = _lowered(
        "tensor a(4)\ntensor b(4)\ntensor c(4)\n"
        "c(i) = -(a(i) + b(i)) * -(a(i) - b(i)) + -a(i) * b(i)\n"
    )
    body_lines = [ln for ln in emit_text(prog).splitlines() if not ln.startswith("//")]
    assert body_lines[-1].strip() == (
        "c[i] += -(a_val + b_val) * -(a_1_val - b_1_val) + -a_2_val * b_2_val"
    )


def test_emit_scalar_assign_single_line():
    _, _, prog = _lowered("tensor x()\nx() = 2.5\n")
    body_lines = [ln for ln in emit_text(prog).splitlines() if not ln.startswith("//")]
    assert body_lines == ["x += 2.5"]


def _ir_text(kernel, name, enc) -> str:
    tensors = {**kernel.tensors, name: TensorType(kernel.tensors[name].shape, enc)}
    programs = compile_kernel(replace(kernel, tensors=tensors, analysis=None))
    return "\n".join(emit_text(program) for program in programs)


WIDTH_KERNELS = [
    # A swept input of a product.
    ("tensor A(5, 4) format(dense, compressed)\ntensor B(4, 3)\ntensor C(5, 3)\n"
     "C(i, j) = A(i, k) * B(k, j)\n", "A", 2),
    # A swept sparse output, written in order or through the workspace.
    ("tensor A(5, 4) format(compressed, compressed)\n"
     "tensor B(4, 3) format(dense, compressed)\ntensor C(5, 3) format(dense, compressed)\n"
     "C(i, j) = A(i, k) * B(k, j)\n", "C", 2),
    # A rank-3 input under a sum and a dense operand.
    ("tensor B(3, 4, 2) format(dense, compressed, compressed)\ntensor c(2)\ntensor x(3)\n"
     "x(i) = B(i, j, k) * c(k)\n", "B", 3),
]


@pytest.mark.parametrize("text, name, rank", WIDTH_KERNELS, ids=["input", "output", "rank-3"])
def test_lowering_ignores_bit_widths(text, name, rank):
    """Widths only bound the overhead arrays: every width variant of a
    format lowers to its native-width IR text, which `run_search` relies on
    to compile once per width-stripped format."""
    kernel = parse_kernel(text)
    native = list(enumerate_encodings(rank))
    if rank == 3:
        native = native[::7]  # a sample of the 48 rank-3 formats
    compiled = 0
    for enc in native:
        variants = [
            width
            for width in enumerate_encodings(rank, include_bitwidths=True)
            if (width.levels, width.ordering) == (enc.levels, enc.ordering)
        ]
        try:
            want = _ir_text(kernel, name, enc)
        except OrderConflict:  # then under every width
            for width in variants:
                with pytest.raises(OrderConflict):
                    _ir_text(kernel, name, width)
            continue
        compiled += 1
        for width in variants:
            assert _ir_text(kernel, name, width) == want, width.describe()
    assert compiled >= len(native) // 2


MATMUL_A_CSR = """
tensor A(3, 4) format(dense, compressed)
tensor B(4, 5)
tensor C(3, 5)
C(i, j) = A(i, k) * B(k, j)
"""


@pytest.mark.parametrize(
    "order", [("k", "i", "j"), ("j", "k", "i"), ("k", "j", "i"), ("i", "j"), ("i", "j", "k", "k")]
)
def test_lower_refuses_an_order_the_iteration_graph_does_not_allow(order):
    # A's storage puts i outside k. An order that runs k first, or that
    # does not list each variable once, would lower to loops reading an
    # iterator no loop bound (or to a wrong result); it is refused by name.
    k = analyze_reductions(parse_kernel(MATMUL_A_CSR))
    with pytest.raises(OrderConflict) as err:
        lower(k, list(order))
    assert err.value.order == order
    assert str(err.value).startswith(f"loop order {', '.join(order)} ")
    assert err.value.cycle == ()


@pytest.mark.parametrize("order", [("i", "k", "j"), ("i", "j", "k"), ("j", "i", "k")])
def test_lower_takes_every_topological_order(order):
    k = analyze_reductions(parse_kernel(MATMUL_A_CSR))
    a = DenseTensor((3, 4), [float(x % 3) for x in range(12)])
    b = DenseTensor((4, 5), [float(x % 7) - 2.0 for x in range(20)])
    got = execute(k, (lower(k, iter(order)),), {"A": a, "B": b})
    assert got == dense_eval(k, {"A": a, "B": b})


def test_lower_analyses_an_unanalysed_kernel_under_optimize():
    # `lower` checks for a missing analysis with no assert, so `python -O`
    # lowers the same kernel to the same IR, and a parse error keeps its text.
    script = (
        "from sparsec.codegen import emit_text, lower\n"
        "from sparsec.errors import KernelSyntaxError\n"
        "from sparsec.expr import parse_kernel\n"
        f"kernel = parse_kernel({SPMSPM!r})\n"
        "if kernel.analysis is not None:\n"
        "    raise SystemExit('a parsed kernel is not analysed yet')\n"
        "print(emit_text(lower(kernel, ['i', 'k', 'j'])), end='')\n"
        "try:\n"
        "    parse_kernel('tensor a(4)\\ntensor c(4)\\nc(i) =\\ta(i) @ 2.0\\n')\n"
        "except KernelSyntaxError as err:\n"
        "    print(f'{type(err).__name__}: {err} {err.position}')\n"
    )
    src = os.path.dirname(os.path.dirname(sparsec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for flags in ([], ["-O"])
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    plain, optimized = (proc.stdout for proc in runs)
    assert optimized == plain
    k = analyze_reductions(parse_kernel(SPMSPM))
    want = emit_text(lower(k, ["i", "k", "j"], {v: build_lattice(k, v) for v in "ikj"}))
    assert plain == want + "KernelSyntaxError: 3:13: unexpected character '@' (3, 13)\n"


def test_lattices_built_on_demand_match_the_up_front_ones():
    # `compile_kernel` lets `lower` build each lattice when its loops reach
    # it; the benchmark and `emit --emit lattice` hand `lower` every top
    # lattice up front. Both must give the same Programs.
    rng = random.Random(1103)
    compiled = 0
    while compiled < 150:
        text, _ = _random_kernel_case(rng, integer_data=False)
        try:
            programs = compile_kernel(parse_kernel(text))
        except OrderConflict:
            continue
        pieces = prepare_kernels(parse_kernel(text))
        assert len(programs) == len(pieces), text
        for program, piece in zip(programs, pieces):
            topo = topo_sort(build_iteration_graph(piece))
            up_front = lower(piece, topo, {v: build_lattice(piece, v) for v in topo})
            assert emit_text(program) == emit_text(up_front), text
            assert program == up_front, text
        compiled += 1


def test_one_index_and_one_lattice_per_expression_and_variable(monkeypatch):
    # A union of three doubly compressed matrices co-iterates along i in
    # one statement whose seven cases are the lattice's points, each
    # lowered once; they enter the seven point expressions along j, and
    # each of those lattices is built once.
    text = (
        "tensor A(4, 4) format(compressed, compressed)\n"
        "tensor B(4, 4) format(compressed, compressed)\n"
        "tensor C(4, 4) format(compressed, compressed)\n"
        "tensor Y(4, 4) format(compressed, compressed)\n"
        "Y(i, j) = A(i, j) + B(i, j) + C(i, j)\n"
    )
    indexed, built = [], []
    index_accesses, build_lattice_for = expr_module.index_accesses, codegen.build_lattice_for

    def counting_index(rhs):
        indexed.append(rhs)
        return index_accesses(rhs)

    def counting_build(expr, var, tensors, extent):
        built.append((expr, var))
        return build_lattice_for(expr, var, tensors, extent)

    monkeypatch.setattr(expr_module, "index_accesses", counting_index)
    monkeypatch.setattr(codegen, "build_lattice_for", counting_build)
    monkeypatch.setattr(lattice, "build_lattice_for", counting_build)
    (program,) = compile_kernel(parse_kernel(text))
    assert len(indexed) == 1
    (loop,) = [s for s in program.body if isinstance(s, WhileCoiter)]
    assert len(loop.cases) == 7
    assert [v for _, v in built] == ["i"] + ["j"] * 7
    assert len({(id(e), v) for e, v in built}) == len(built)
