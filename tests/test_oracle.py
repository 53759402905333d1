import contextlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from sparsec.engine import run_kernel
from sparsec.errors import DenseOutputTooLarge, NestingTooDeep, ShapeMismatch
from sparsec.expr import parse_kernel
from sparsec.oracle import GeneratorSpec, dense_eval, density, generate
from sparsec.storage import CooTensor, DenseTensor, pack
from sparsec.encoding import csr


def test_dense_eval_matmul_identity(mat_a):
    k = parse_kernel(
        "tensor A(3, 4)\ntensor B(4, 4)\ntensor C(3, 4)\nC(i, j) = A(i, k) * B(k, j)\n"
    )
    eye = DenseTensor((4, 4), [1.0 if i == j else 0.0 for i in range(4) for j in range(4)])
    got = dense_eval(k, {"A": mat_a.to_dense(), "B": eye})
    assert got == mat_a.to_dense()


def test_dense_eval_dot():
    k = parse_kernel("tensor a(3)\ntensor b(3)\ntensor x()\nx() = a(i) * b(i)\n")
    got = dense_eval(k, {"a": DenseTensor((3,), [1, 2, 3]), "b": DenseTensor((3,), [4, 5, 6])})
    assert got.data.tolist() == [32.0]


def test_dense_eval_mttkrp_all_ones():
    k = parse_kernel(
        "tensor B(2, 2, 2)\ntensor D(2, 2)\ntensor C(2, 2)\ntensor A(2, 2)\n"
        "A(i, j) = B(i, k, l) * D(l, j) * C(k, j)\n"
    )
    ones = {
        "B": DenseTensor((2, 2, 2), [1.0] * 8),
        "D": DenseTensor((2, 2), [1.0] * 4),
        "C": DenseTensor((2, 2), [1.0] * 4),
    }
    assert dense_eval(k, ones).data.tolist() == [4.0] * 4


def test_dense_eval_scoped_reduction():
    # D(i) = sum_j(A + B) + C, not sum_j(A + B + C).
    k = parse_kernel(
        "tensor A(2, 3)\ntensor B(2, 3)\ntensor C(2)\ntensor D(2)\n"
        "D(i) = A(i, j) + B(i, j) + C(i)\n"
    )
    a = DenseTensor((2, 3), [1, 1, 1, 2, 2, 2])
    b = DenseTensor((2, 3), [0, 0, 0, 1, 1, 1])
    c = DenseTensor((2,), [10, 20])
    assert dense_eval(k, {"A": a, "B": b, "C": c}).data.tolist() == [13.0, 29.0]


def test_dense_eval_accumulate_seeds_output():
    k = parse_kernel("tensor a(3)\ntensor x()\nx() += a(i)\n")
    got = dense_eval(k, {"a": DenseTensor((3,), [1, 2, 3]), "x": DenseTensor((), [100.0])})
    assert got.data.tolist() == [106.0]


def test_dense_eval_shape_mismatch():
    k = parse_kernel("tensor a(3)\ntensor x()\nx() = a(i)\n")
    with pytest.raises(ShapeMismatch):
        dense_eval(k, {"a": DenseTensor((4,), [1, 2, 3, 4])})


OUTER = "tensor a({n})\ntensor b({n})\ntensor C({n}, {n})\nC(i, j) = a(i) * b(j)\n"


def test_dense_eval_output_past_the_budget_raises_before_allocating():
    side = 1 << 15
    inputs = {name: DenseTensor.zeros((side,)) for name in "ab"}
    tracemalloc.start()
    try:
        with pytest.raises(DenseOutputTooLarge):
            dense_eval(parse_kernel(OUTER.format(n=side)), inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    # Below the budget the same kernel runs.
    small = {"a": DenseTensor((2,), [1.0, 2.0]), "b": DenseTensor((2,), [3.0, 4.0])}
    assert dense_eval(parse_kernel(OUTER.format(n=2)), small).data.tolist() == [3.0, 4.0, 6.0, 8.0]


@contextlib.contextmanager
def default_recursion_limit():
    """Run the body at Python's default recursion limit, which Hypothesis
    raises while its tests run."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _long_sum(terms: int) -> str:
    return "tensor a(2)\ntensor b(2)\nb(i) = " + " + ".join(["a(i)"] * terms) + "\n"


def test_dense_eval_of_a_kernel_too_deep_to_walk_is_typed():
    # The oracle's loops walk a 1,200-term sum one frame a level, past
    # Python's recursion limit.
    kernel = parse_kernel(_long_sum(1200))
    message = "nests 1200 levels deep, past what the dense oracle"
    with default_recursion_limit(), pytest.raises(NestingTooDeep, match=message):
        dense_eval(kernel, {"a": DenseTensor((2,), [1.0, 2.0])})


def test_dense_eval_checks_a_sum_the_compiler_runs():
    # A 700-term sum, which `run_kernel` runs, is within the oracle's
    # reach too: one frame a level.
    kernel = parse_kernel(_long_sum(700))
    inputs = {"a": DenseTensor((2,), [1.0, 2.0])}
    with default_recursion_limit():
        want = dense_eval(kernel, inputs)
        got = run_kernel(kernel, inputs)
    assert got == want and want.data.tolist() == [700.0, 1400.0]


def test_generate_uniform_is_deterministic():
    spec = GeneratorSpec((64, 64), "uniform", density=0.1, seed=42)
    assert generate(spec).entries == generate(spec).entries


def test_generate_uniform_density_concentrates():
    coo = generate(GeneratorSpec((1024, 1024), "uniform", density=0.01, seed=7))
    rho = density(coo)
    assert 0.009 <= rho <= 0.011
    assert all(0.0 < v <= 1.0 for _, v in coo.entries)


def test_generate_rowband():
    coo = generate(GeneratorSpec((64, 64), "rowband", dense_rows=8, seed=1))
    rows = {c[0] for c, _ in coo.entries}
    assert len(rows) == 8
    assert coo.nnz == 8 * 64
    assert math.isclose(density(coo), 8 / 64)


def test_generate_identity():
    coo = generate(GeneratorSpec((4, 4), "identity"))
    assert coo.entries == [((i, i), 1.0) for i in range(4)]
    assert density(coo) == 0.25


def _reference_generate(spec):
    """The per-element generator loops `generate` replaced: one
    (tuple of ints, float) pair per entry, from the same draws."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "identity":
        n = min(spec.shape)
        return CooTensor(spec.shape, [((i,) * len(spec.shape), 1.0) for i in range(n)])
    if spec.kind == "uniform":
        volume = int(np.prod(spec.shape))
        flat = np.flatnonzero(rng.random(volume) < spec.density)
        values = 1.0 - rng.random(flat.size)
        coords = np.unravel_index(flat, spec.shape)
        return CooTensor(
            spec.shape,
            [(tuple(int(c[k]) for c in coords), float(values[k])) for k in range(flat.size)],
        )
    rows, cols = spec.shape
    picked = np.sort(rng.choice(rows, size=spec.dense_rows, replace=False))
    values = 1.0 - rng.random(spec.dense_rows * cols)
    entries = []
    k = 0
    for r in picked:
        for c in range(cols):
            entries.append(((int(r), c), float(values[k])))
            k += 1
    return CooTensor(spec.shape, entries)


@pytest.mark.parametrize("seed", [0, 1, 7, 2022])
def test_generate_equals_per_element_loops(seed):
    specs = [GeneratorSpec(shape, "identity", seed=seed) for shape in [(1,), (4, 4), (3, 5), (2, 3, 4)]]
    specs += [
        GeneratorSpec(shape, "uniform", density=density, seed=seed)
        for shape in [(7,), (1, 1), (16, 9), (4, 5, 6)]
        for density in (0.0, 0.3, 1.0)
    ]
    specs += [
        GeneratorSpec(shape, "rowband", dense_rows=rows, seed=seed)
        for shape, rows in [((1, 1), 1), ((8, 5), 0), ((8, 5), 3), ((20, 16), 20)]
    ]
    for spec in specs:
        got, want = generate(spec), _reference_generate(spec)
        assert got.shape == want.shape and repr(got.entries) == repr(want.entries), spec
        assert got == want and got.nnz == want.nnz


def test_generate_rowband_validates():
    with pytest.raises(ShapeMismatch):
        GeneratorSpec((4, 4), "rowband", dense_rows=5)


def test_generate_identity_of_rank_0_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        GeneratorSpec((), "identity")


def test_density_reference_values(mat_a):
    assert density(mat_a) == 0.25  # 3 of 12
    assert density(CooTensor((5, 5))) == 0.0
    assert density(pack(mat_a, csr())) == 0.25
    # Explicit zeros do not count.
    assert density(CooTensor((4,), [((1,), 0.0), ((2,), 3.0)])) == 0.25
