"""Acceptance criteria, one test per criterion.

Each test prints `ACCEPTANCE <nn> <name>: PASS|FAIL (elapsed)` and enforces
its stated runtime budget; run with `pytest tests/test_acceptance.py -v -s`
to see the report lines as they complete.
"""

import contextlib
import hashlib
import random
import time

import pytest

import conftest as refs
from sparsec.cli import main, run_search
from sparsec.codegen import StrategyKind, emit_text, lower
from sparsec.encoding import (
    COMPRESSED,
    DENSE,
    csc,
    csr,
    dcsc,
    dcsr,
    make_encoding,
)
from sparsec.engine import compile_kernel, convert, execute, run_kernel
from sparsec.errors import OrderConflict
from sparsec.expr import analyze_reductions, parse_kernel
from sparsec.lattice import build_iteration_graph, build_lattice, topo_sort
from sparsec.oracle import GeneratorSpec, dense_eval, density, generate
from sparsec.storage import CooTensor, pack
from sparsec.tensor_io import read_tensor, write_tensor


@contextlib.contextmanager
def criterion(number: int, name: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


# -- 1 ------------------------------------------------------------------------


def test_01_storage_layout_fidelity(vec_x, mat_a, tensor_t):
    with criterion(1, "storage-layout-fidelity", 1.0):
        s = pack(vec_x, make_encoding([COMPRESSED]))
        assert s.pointers[0].tolist() == [0, 4]
        assert s.indices[0].tolist() == [3, 6, 7, 10]
        assert s.values.tolist() == [refs.X3, refs.X6, refs.X7, refs.X10]

        s = pack(mat_a, csr())
        assert s.pointers[1].tolist() == [0, 2, 2, 3]  # the repeated 2: row 1 is empty
        assert s.indices[1].tolist() == [0, 3, 0]
        assert s.values.tolist() == [refs.A00, refs.A03, refs.A20]

        s = pack(mat_a, make_encoding([COMPRESSED, DENSE]))
        assert s.pointers[0].tolist() == [0, 2]
        assert s.indices[0].tolist() == [0, 2]
        assert s.values.tolist() == [refs.A00, 0.0, 0.0, refs.A03, refs.A20, 0.0, 0.0, 0.0]

        s = pack(mat_a, dcsc())
        assert s.pointers[0].tolist() == [0, 2]
        assert s.indices[0].tolist() == [0, 3]
        assert s.pointers[1].tolist() == [0, 2, 3]
        assert s.indices[1].tolist() == [0, 2, 0]
        assert s.values.tolist() == [refs.A00, refs.A20, refs.A03]

        s = pack(tensor_t, make_encoding([COMPRESSED, COMPRESSED, COMPRESSED]))
        assert s.pointers[0].tolist() == [0, 2]
        assert s.indices[0].tolist() == [0, 2]
        assert s.pointers[1].tolist() == [0, 1, 3]
        assert s.indices[1].tolist() == [0, 0, 1]
        assert s.pointers[2].tolist() == [0, 1, 3, 5]
        assert s.indices[2].tolist() == [0, 0, 2, 2, 3]
        assert s.values.tolist() == [refs.T000, refs.T200, refs.T202, refs.T212, refs.T213]


# -- 2 ------------------------------------------------------------------------


def test_02_encoding_invariance_sweep():
    with criterion(2, "encoding-invariance-200-configs", 30.0):
        kernel = parse_kernel(
            "tensor A(64, 64) format(dense, compressed)\n"
            "tensor B(64, 64)\n"
            "tensor C(64, 64)\n"
            "C(i, j) = A(i, k) * B(k, j)\n"
        )
        a = generate(GeneratorSpec((64, 64), "uniform", density=0.05, seed=202))
        b = generate(GeneratorSpec((64, 64), "uniform", density=1.0, seed=203))
        rows = run_search(kernel, {"A": a, "B": b}, "A", include_widths=True)
        assert len(rows) == 200
        assert len({r.checksum for r in rows}) == 1


# -- 3 ------------------------------------------------------------------------


def _random_encoding(rng, rank):
    if rng.random() < 0.4:
        return None
    levels = [rng.choice([DENSE, COMPRESSED]) for _ in range(rank)]
    ordering = list(range(rank))
    rng.shuffle(ordering)
    return make_encoding(levels, ordering)


def _random_kernel_case(rng, integer_data):
    var_pool = ["i", "j", "k"]
    extents = {v: rng.randint(2, 8) for v in var_pool}
    n_ops = rng.randint(1, 3)
    operands = []
    for t in range(n_ops):
        rank = rng.randint(1, 3)
        operands.append((f"T{t}", tuple(rng.sample(var_pool, rank))))
    used = sorted({v for _, use in operands for v in use})
    out_rank = rng.randint(0, min(3, len(used)))
    out_vars = tuple(rng.sample(used, out_rank))

    decls, bindings = [], {}
    for name, use in operands:
        shape = tuple(extents[v] for v in use)
        enc = _random_encoding(rng, len(use))
        fmt = f" {enc.describe()}" if enc else ""
        decls.append(f"tensor {name}({', '.join(str(e) for e in shape)}){fmt}")
        volume = 1
        for e in shape:
            volume *= e
        density_ = rng.uniform(0.2, 0.8)
        entries = []
        for flat in range(volume):
            if rng.random() >= density_:
                continue
            coords, rem = [], flat
            for e in reversed(shape):
                coords.append(rem % e)
                rem //= e
            value = float(rng.randint(1, 5)) if integer_data else rng.uniform(0.1, 2.0)
            entries.append((tuple(reversed(coords)), value))
        bindings[name] = CooTensor(shape, entries)

    out_shape = tuple(extents[v] for v in out_vars)
    out_enc = _random_encoding(rng, out_rank) if out_rank else None
    out_fmt = f" {out_enc.describe()}" if out_enc else ""
    decls.append(f"tensor out({', '.join(str(e) for e in out_shape)}){out_fmt}")

    pieces = [f"{name}({', '.join(use)})" for name, use in operands]
    expr = pieces[0]
    for piece in pieces[1:]:
        expr = f"{expr} {rng.choice(['+', '-', '*'])} {piece}"
    if rng.random() < 0.25:
        expr = f"{expr} * {float(rng.randint(2, 3))!r}"
    if rng.random() < 0.15:
        expr = f"-({expr})"
    text = "\n".join(decls) + f"\nout({', '.join(out_vars)}) = {expr}\n"
    return text, bindings


def test_03_oracle_equivalence_500_random_kernels():
    with criterion(3, "oracle-equivalence-500-kernels", 60.0):
        rng = random.Random(30303)
        done = 0
        while done < 500:
            integer_data = done % 2 == 0
            text, bindings = _random_kernel_case(rng, integer_data)
            kernel = analyze_reductions(parse_kernel(text))
            try:
                got = convert(run_kernel(kernel, bindings), None)
            except OrderConflict:
                continue  # legal rejection; draw another kernel
            want = dense_eval(
                kernel, {n: v.to_dense() for n, v in bindings.items()}
            )
            assert got.shape == want.shape
            for a, b in zip(got.data, want.data):
                if integer_data:
                    assert a == b, text
                else:
                    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0), text
            done += 1


# -- 4 ------------------------------------------------------------------------


def test_04_spmspm_output_density():
    with criterion(4, "spmspm-output-density", 60.0):
        for n, lo, hi in ((1024, 0.09, 0.11), (2048, 0.18, 0.20)):
            kernel = parse_kernel(
                f"tensor A({n}, {n}) format(dense, compressed)\n"
                f"tensor B({n}, {n}) format(dense, compressed)\n"
                f"tensor C({n}, {n}) format(dense, compressed)\n"
                "C(i, j) = A(i, k) * B(k, j)\n"
            )
            a = generate(GeneratorSpec((n, n), "uniform", density=0.01, seed=40))
            b = generate(GeneratorSpec((n, n), "uniform", density=0.01, seed=41))
            rho = density(run_kernel(kernel, {"A": a, "B": b}))
            assert lo <= rho <= hi, (n, rho)


# -- 5 ------------------------------------------------------------------------


def test_05_workspace_path():
    with criterion(5, "workspace-expand-compress", 10.0):
        sparse_text = (
            "tensor A(32, 32) format(dense, compressed)\n"
            "tensor B(32, 32) format(dense, compressed)\n"
            "tensor C(32, 32) format(dense, compressed)\n"
            "C(i, j) = A(i, k) * B(k, j)\n"
        )
        kernel = analyze_reductions(parse_kernel(sparse_text))
        topo = topo_sort(build_iteration_graph(kernel))
        program = lower(kernel, topo, {v: build_lattice(kernel, v) for v in topo})
        assert program.strategy.kind is StrategyKind.EXPAND_COMPRESS
        text = emit_text(program)
        assert "expand" in text and "compress" in text and "filled" in text

        a = generate(GeneratorSpec((32, 32), "uniform", density=0.1, seed=50))
        b = generate(GeneratorSpec((32, 32), "uniform", density=0.1, seed=51))
        via_ws = run_kernel(kernel, {"A": a, "B": b})

        want = dense_eval(kernel, {"A": a.to_dense(), "B": b.to_dense()})
        dense_text = sparse_text.replace(
            "tensor C(32, 32) format(dense, compressed)", "tensor C(32, 32)"
        )
        via_dense = run_kernel(parse_kernel(dense_text), {"A": a, "B": b})
        converted = convert(via_dense, csr())

        ws_nonzeros = via_ws.to_coo(drop_zeros=True).entries
        assert ws_nonzeros == want.to_coo(drop_zeros=True).entries
        assert ws_nonzeros == converted.to_coo(drop_zeros=True).entries


# -- 6 ------------------------------------------------------------------------


def _support_cases():
    # disjoint, subset, equal, overlapping supports over extent 12
    return {
        "disjoint": ({1, 3, 5}, {0, 2, 8}),
        "subset": ({2, 4, 6, 9}, {4, 9}),
        "equal": ({1, 5, 7}, {1, 5, 7}),
        "overlapping": ({0, 4, 6, 10}, {4, 5, 10, 11}),
    }


def test_06_co_iteration_support_patterns():
    with criterion(6, "co-iteration-supports", 1.0):
        rng = random.Random(606)
        dot_text = (
            "tensor a(12) format(compressed)\ntensor b(12) format(compressed)\n"
            "tensor x()\nx() = a(i) * b(i)\n"
        )
        add_text = (
            "tensor a(12) format(compressed)\ntensor b(12) format(compressed)\n"
            "tensor c(12) format(compressed)\nc(i) = a(i) + b(i)\n"
        )
        dot_kernel = analyze_reductions(parse_kernel(dot_text))
        add_kernel = analyze_reductions(parse_kernel(add_text))
        assert len(build_lattice(dot_kernel, "i").points) == 1
        assert len(build_lattice(add_kernel, "i").points) == 3
        for name, (sa, sb) in _support_cases().items():
            a = CooTensor((12,), [((i,), rng.uniform(0.5, 2.0)) for i in sorted(sa)])
            b = CooTensor((12,), [((i,), rng.uniform(0.5, 2.0)) for i in sorted(sb)])
            dense_in = {"a": a.to_dense(), "b": b.to_dense()}
            got_dot = run_kernel(dot_kernel, {"a": a, "b": b})
            assert got_dot.data.tolist() == dense_eval(dot_kernel, dense_in).data.tolist(), name
            got_add = convert(run_kernel(add_kernel, {"a": a, "b": b}), None)
            assert got_add.data.tolist() == dense_eval(add_kernel, dense_in).data.tolist(), name


# -- 7 ------------------------------------------------------------------------


def test_07_io_round_trips(tmp_path):
    with criterion(7, "tensor-io-round-trips", 10.0):
        rng = random.Random(707)
        for case in range(100):
            rank = rng.randint(1, 4)
            shape = tuple(rng.randint(1, 7) for _ in range(rank))
            entries = {}
            for _ in range(rng.randint(0, 15)):
                entries[tuple(rng.randrange(e) for e in shape)] = rng.uniform(-9, 9)
            coo = CooTensor(shape, list(entries.items())).to_coo(drop_zeros=False)
            path = tmp_path / f"rt{case}.tns"
            write_tensor(coo, str(path))
            back = read_tensor(str(path))
            assert back.shape == coo.shape and back.entries == coo.entries

        fixtures = {
            "general": (
                "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 1.5\n2 3 2.5\n",
                [((0, 0), 1.5), ((1, 2), 2.5)],
            ),
            "symmetric": (
                "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 4.0\n3 3 9.0\n",
                [((0, 1), 4.0), ((1, 0), 4.0), ((2, 2), 9.0)],
            ),
            "pattern": (
                "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n",
                [((0, 1), 1.0), ((1, 0), 1.0)],
            ),
        }
        for name, (text, want) in fixtures.items():
            path = tmp_path / f"{name}.mtx"
            path.write_text(text)
            assert read_tensor(str(path)).to_coo(drop_zeros=False).entries == sorted(want), name


# -- 8 ------------------------------------------------------------------------


def test_08_conversion_cycles():
    with criterion(8, "conversion-cycles", 5.0):
        rng = random.Random(808)
        for trial in range(5):
            entries = {}
            for _ in range(rng.randint(40, 150)):
                entries[(rng.randrange(32), rng.randrange(32))] = rng.uniform(0.1, 5.0)
            coo = CooTensor((32, 32), list(entries.items())).to_coo(drop_zeros=False)
            want = coo.to_coo(drop_zeros=True).entries
            value = pack(coo, csr())
            for enc in (csc(), dcsr(), dcsc(), None, dcsc(), csr()):
                value = convert(value, enc)
                if hasattr(value, "to_coo"):
                    got = value.to_coo(drop_zeros=True).entries
                    assert got == want, trial
            assert value == pack(coo, csr())


# -- 9 ------------------------------------------------------------------------


def test_09_mttkrp_both_orderings():
    with criterion(9, "mttkrp-dss-orderings", 10.0):
        base = (
            "tensor B(30, 20, 25) {fmt}\n"
            "tensor D(25, 8)\n"
            "tensor C(20, 8)\n"
            "tensor A(30, 8)\n"
            "A(i, j) = B(i, k, l) * D(l, j) * C(k, j)\n"
        )
        dss = base.format(fmt="format(dense, compressed, compressed)")
        dss_alt = base.format(
            fmt="format(dense, compressed, compressed) order(0, 2, 1)"
        )
        b = generate(GeneratorSpec((30, 20, 25), "uniform", density=0.05, seed=90))
        d = generate(GeneratorSpec((25, 8), "uniform", density=1.0, seed=91))
        c = generate(GeneratorSpec((20, 8), "uniform", density=1.0, seed=92))
        bindings = {"B": b, "D": d, "C": c}
        kernel = analyze_reductions(parse_kernel(dss))
        want = dense_eval(kernel, {n: v.to_dense() for n, v in bindings.items()})

        results = []
        for text in (dss, dss_alt):
            got = run_kernel(parse_kernel(text), bindings)
            results.append(got)
            for x, y in zip(got.data, want.data):
                assert abs(x - y) <= 1e-10 * max(abs(x), abs(y), 1.0)
        for x, y in zip(results[0].data, results[1].data):
            assert abs(x - y) <= 1e-10 * max(abs(x), abs(y), 1.0)


# -- 10 -----------------------------------------------------------------------

GOLDEN_KERNELS = {
    "scale": "tensor x(16) format(compressed)\nx(i) *= 2.0\n",
    "dot": (
        "tensor a(16) format(compressed)\ntensor b(16) format(compressed)\n"
        "tensor x()\nx() = a(i) * b(i)\n"
    ),
    "spmspm": (
        "tensor A(3, 4) format(dense, compressed)\n"
        "tensor B(4, 4) format(dense, compressed)\n"
        "tensor C(3, 4) format(dense, compressed)\n"
        "C(i, j) = A(i, k) * B(k, j)\n"
    ),
    # A direct insertion under a reduction: an accumulator per row.
    "spmv": (
        "tensor A(3, 4) format(dense, compressed)\ntensor x(4)\n"
        "tensor y(3) format(compressed)\ny(i) = A(i, j) * x(j)\n"
    ),
    # A dense store into a sparse output: the loop order leads with k.
    "atb": (
        "tensor A(4, 3) format(dense, compressed)\n"
        "tensor B(4, 3) format(dense, compressed)\n"
        "tensor C(3, 3) format(dense, compressed)\n"
        "C(i, j) = A(k, i) * B(k, j)\n"
    ),
    # A union: one co-iteration statement, printed as one loop per lattice
    # point, each inserting.
    "add": (
        "tensor A(3, 4) format(dense, compressed)\n"
        "tensor B(3, 4) format(dense, compressed)\n"
        "tensor C(3, 4) format(dense, compressed)\n"
        "C(i, j) = A(i, j) + B(i, j)\n"
    ),
    # A union with a dense operand: the range drives every co-iteration
    # loop, and the last one runs the range alone.
    "range": (
        "tensor a(8) format(compressed)\ntensor b(8) format(compressed)\n"
        "tensor B(8)\ntensor c(8)\n"
        "c(i) = a(i) * B(i) + b(i) - B(i)\n"
    ),
    # A per-row accumulator under a union along i: the bodies of {A} and {B}
    # print in two loops each, and each print declares the next accumulator.
    "union_rows": (
        "tensor A(3, 4) format(compressed, compressed)\n"
        "tensor B(3, 4) format(compressed, compressed)\n"
        "tensor x(4)\ntensor y(3) format(compressed)\n"
        "y(i) = A(i, j) * x(j) + B(i, j) * x(j)\n"
    ),
}


def test_10_golden_ir_texts(request):
    with criterion(10, "golden-ir-texts", 1.0):
        golden_dir = request.path.parent / "golden"
        for name, text in GOLDEN_KERNELS.items():
            kernel = analyze_reductions(parse_kernel(text))
            topo = topo_sort(build_iteration_graph(kernel))
            program = lower(
                kernel, topo, {v: build_lattice(kernel, v) for v in topo}
            )
            want = (golden_dir / f"{name}.ir.txt").read_bytes()
            assert emit_text(program).encode() == want, name


def test_random_kernel_ir_hash(request):
    """The sha256 of the IR text of every Program of 400 random kernels,
    those whose loop orders conflict left out: 577 Programs, 127 of them
    with a co-iteration printed as several loops, 5 of those with an
    accumulator that prints in more than one of them. A change that
    prints any of them differently changes the hash; any later change to
    the pinned hash is stated in CHANGES.md, with why."""
    rng = random.Random(2024)
    digest, programs = hashlib.sha256(), 0
    for _ in range(400):
        text, _ = _random_kernel_case(rng, integer_data=False)
        try:
            compiled = compile_kernel(parse_kernel(text))
        except OrderConflict:
            continue
        for program in compiled:
            digest.update(emit_text(program).encode())
            programs += 1
    assert programs == 577
    want = (request.path.parent / "golden" / "random_kernels.ir.sha256").read_text()
    assert digest.hexdigest() == want.strip()


def test_random_kernel_result_hash(request):
    """The sha256 of the `repr` of `execute`'s result for each kernel that
    `test_random_kernel_ir_hash` compiles: 378 results. A change to the
    layout of a stored result, to its values or to a `__repr__` text
    changes the hash; any later change to the pinned hash is stated in
    CHANGES.md, with why."""
    rng = random.Random(2024)
    digest, results = hashlib.sha256(), 0
    for _ in range(400):
        text, bindings = _random_kernel_case(rng, integer_data=False)
        kernel = parse_kernel(text)
        try:
            compiled = compile_kernel(kernel)
        except OrderConflict:
            continue
        digest.update(repr(execute(kernel, compiled, bindings)).encode())
        results += 1
    assert results == 378
    want = (request.path.parent / "golden" / "random_kernels.repr.sha256").read_text()
    assert digest.hexdigest() == want.strip()


def test_10_golden_lattice_text(request, tmp_path, capsys):
    # `sparsec emit --emit lattice` of the range-driven kernel: the range
    # is listed first in each point.
    with criterion(10, "golden-lattice-text", 1.0):
        kernel_file = tmp_path / "range.kernel"
        kernel_file.write_text(GOLDEN_KERNELS["range"])
        assert main(["emit", "--kernel-file", str(kernel_file), "--emit", "lattice"]) == 0
        want = (request.path.parent / "golden" / "range.lattice.txt").read_text()
        assert capsys.readouterr().out == want
