import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsec import codegen
from sparsec.engine import compile_kernel, prepare_kernels
from sparsec.errors import OrderConflict
from sparsec.encoding import COMPRESSED
from sparsec.expr import accesses, analyze_reductions, parse_kernel
from sparsec.lattice import (
    build_iteration_graph,
    build_lattice,
    build_lattice_for,
    lattice_to_text,
    topo_sort,
)
from test_properties import SETTINGS, mix_case, product_case

SPMSPM = """
tensor A(3, 4) format(dense, compressed)
tensor B(4, 5) format(dense, compressed)
tensor C(3, 5) format(dense, compressed)
C(i, j) = A(i, k) * B(k, j)
"""


def _kernel(text):
    return analyze_reductions(parse_kernel(text))


def test_matmul_graph_edges():
    g = build_iteration_graph(_kernel(SPMSPM))
    assert set(g.edges) == {("i", "k"), ("k", "j"), ("i", "j")}
    assert g.edges[("i", "k")] == ("A",)
    assert g.edges[("i", "j")] == ("C",)


def test_matmul_topo_order():
    g = build_iteration_graph(_kernel(SPMSPM))
    assert topo_sort(g) == ["i", "k", "j"]


def test_scale_graph_trivial():
    k = _kernel("tensor x(16) format(compressed)\nx(i) *= 2.0\n")
    g = build_iteration_graph(k)
    assert g.nodes == ("i",) and not g.edges
    assert topo_sort(g) == ["i"]


def test_csc_operand_flips_chain():
    k = _kernel(
        "tensor A(3, 4) format(dense, compressed) order(1, 0)\n"
        "tensor B(4, 5)\ntensor C(3, 5)\n"
        "C(i, j) = A(i, k) * B(k, j)\n"
    )
    g = build_iteration_graph(k)
    assert ("k", "i") in g.edges and ("i", "k") not in g.edges


def test_dense_operands_impose_nothing():
    k = _kernel("tensor A(3, 4)\ntensor C(3, 4)\nC(i, j) = A(i, j)\n")
    assert build_iteration_graph(k).edges == {}


def test_trailing_dense_levels_unconstrained():
    # Only dimensions up to the last compressed level join the chain.
    k = _kernel(
        "tensor A(3, 4) format(compressed, dense)\ntensor x(3)\ntensor v(4)\n"
        "x(i) = A(i, j) * v(j)\n"
    )
    assert build_iteration_graph(k).edges == {}


def test_order_conflict_cycle_reported():
    k = _kernel(
        "tensor A(3, 3) format(compressed, compressed) order(1, 0)\n"
        "tensor C(3, 3) format(compressed, compressed)\n"
        "C(i, j) = A(i, j)\n"
    )
    with pytest.raises(OrderConflict) as err:
        topo_sort(build_iteration_graph(k))
    assert set(err.value.cycle) == {"i", "j"}
    assert "convert" in str(err.value)


def test_dot_lattice_single_conjunction():
    k = _kernel(
        "tensor a(16) format(compressed)\ntensor b(16) format(compressed)\n"
        "tensor x()\nx() = a(i) * b(i)\n"
    )
    lat = build_lattice(k, "i")
    assert len(lat.points) == 1
    assert len(lat.first.iterators) == 2
    assert not lat.range_driven


def test_add_lattice_union():
    k = _kernel(
        "tensor a(8) format(compressed)\ntensor b(8) format(compressed)\n"
        "tensor c(8) format(compressed)\nc(i) = a(i) + b(i)\n"
    )
    lat = build_lattice(k, "i")
    assert len(lat.points) == 3
    sizes = [len(p.iterators) for p in lat.points]
    assert sizes == [2, 1, 1]  # dominance order: superset first


def test_scale_lattice_single_iterator():
    k = _kernel("tensor x(16) format(compressed)\nx(i) *= 3.0\n")
    lat = build_lattice(k, "i")
    assert len(lat.points) == 1
    assert len(lat.first.iterators) == 1


def test_dense_add_makes_range_driver():
    k = _kernel(
        "tensor a(8) format(compressed)\ntensor B(8)\ntensor c(8)\n"
        "c(i) = a(i) + B(i)\n"
    )
    lat = build_lattice(k, "i")
    assert lat.range_driven
    assert [len(p.iterators) for p in lat.points] == [1, 0]


def test_dense_mul_stays_intersection():
    k = _kernel(
        "tensor a(8) format(compressed)\ntensor B(8)\ntensor c(8)\n"
        "c(i) = a(i) * B(i)\n"
    )
    lat = build_lattice(k, "i")
    assert not lat.range_driven
    assert len(lat.points) == 1
    # the dense operand is read by random access, not merged
    assert lat.first.iterators == {k.analysis.accesses[0].uid}


def test_pure_dense_lattice_is_for_loop():
    k = _kernel("tensor A(4, 5)\ntensor C(4, 5)\nC(i, j) = A(i, j)\n")
    lat = build_lattice(k, "i")
    assert not lat.first.iterators


def test_conjunction_point_counts():
    # Mul: product of operand point counts; Add: product plus both sums.
    base = (
        "tensor a(8) format(compressed)\ntensor b(8) format(compressed)\n"
        "tensor c(8) format(compressed)\ntensor out(8) format(compressed)\n"
    )
    mul_mul = build_lattice(_kernel(base + "out(i) = a(i) * b(i) * c(i)\n"), "i")
    assert len(mul_mul.points) == 1
    add_add = build_lattice(_kernel(base + "out(i) = a(i) + b(i) + c(i)\n"), "i")
    # (a+b) has 3 points; +c pairs them (3) and appends both sides (3 + 1).
    assert len(add_add.points) == 7
    mul_add = build_lattice(_kernel(base + "out(i) = a(i) * b(i) + c(i)\n"), "i")
    assert len(mul_add.points) == 3


def test_topo_respects_every_tensor_chain():
    rng = random.Random(5)
    levels = ["format(dense, compressed)", "format(compressed, compressed)"]
    orders = ["", " order(1, 0)"]
    for a_fmt, a_ord, b_fmt, b_ord in itertools.product(levels, orders, repeat=2):
        text = (
            f"tensor A(4, 4) {a_fmt}{a_ord}\n"
            f"tensor B(4, 4) {b_fmt}{b_ord}\n"
            "tensor C(4, 4)\n"
            "C(i, j) = A(i, k) * B(k, j)\n"
        )
        k = _kernel(text)
        g = build_iteration_graph(k)
        try:
            order = topo_sort(g)
        except OrderConflict:
            continue
        position = {v: n for n, v in enumerate(order)}
        for (u, v) in g.edges:
            assert position[u] < position[v]


def _lattices(text) -> list:
    """Every merge lattice of kernel `text`, each with the tensor types it
    was built over: `build_lattice`'s for each piece and variable, and each
    one lowering builds for a subexpression (none where the loop orders
    conflict)."""
    kernel = parse_kernel(text)
    built = [
        (build_lattice(piece, var), piece.tensors)
        for piece in prepare_kernels(kernel)
        for var in piece.analysis.var_extents
    ]

    def record(expr, var, tensors, extent):
        built.append((build_lattice_for(expr, var, tensors, extent), tensors))
        return built[-1][0]

    with mock.patch.object(codegen, "build_lattice_for", record):
        try:
            compile_kernel(kernel)
        except OrderConflict:
            pass
    return built


def _compressed_at(access, var, tensors) -> bool:
    enc = tensors[access.tensor].encoding
    if enc is None or var not in access.indices:
        return False
    return enc.levels[enc.level_of_dim(access.indices.index(var))] is COMPRESSED


@settings(SETTINGS, max_examples=300)
@given(st.one_of(product_case(), mix_case()))
def test_lattice_points_are_closed_under_union(case):
    # A co-iteration is one statement over the first point's iterators,
    # whose cases are every point (`codegen.WhileCoiter`): the first point
    # holds every iterator, and the range alone, the last point of a
    # range-driven lattice, runs every index. A point is its iterators and
    # its expression: the iterators are the expression's accesses
    # compressed along the variable.
    for lat, tensors in _lattices(case[0]):
        sets = [p.iterators for p in lat.points]
        assert all(a | b in sets for a in sets for b in sets), lattice_to_text(lat)
        assert sets[0] == frozenset().union(*sets), lattice_to_text(lat)
        assert lat.range_driven == (bool(sets[0]) and not sets[-1]), lattice_to_text(lat)
        if lat.range_driven:
            assert sets[-1] == frozenset(), lattice_to_text(lat)
        for p in lat.points:
            compressed = {a.uid for a in accesses(p.expr) if _compressed_at(a, lat.var, tensors)}
            assert p.iterators == compressed, lattice_to_text(lat)
