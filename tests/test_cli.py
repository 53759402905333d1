import csv
import io

from dataclasses import replace

import pytest

from sparsec import cli
from sparsec.cli import main, parse_encoding_text, result_checksum
from sparsec.encoding import COMPRESSED, DENSE, TensorType, enumerate_encodings
from sparsec.engine import compile_kernel, execute
from sparsec.expr import parse_kernel
from sparsec.oracle import GeneratorSpec, generate
from sparsec.storage import CooTensor, DenseTensor, pack
from sparsec.encoding import csr, dcsc
from sparsec.tensor_io import read_tensor, write_tensor

SPMSPM = """
tensor A(8, 8) format(dense, compressed)
tensor B(8, 8) format(dense, compressed)
tensor C(8, 8) format(dense, compressed)
C(i, j) = A(i, k) * B(k, j)
"""

SCALE = "tensor x(16) format(compressed)\nx(i) *= 2.0\n"


@pytest.fixture
def spmspm_file(tmp_path):
    p = tmp_path / "spmspm.kernel"
    p.write_text(SPMSPM)
    return str(p)


def test_parse_encoding_text_names():
    assert parse_encoding_text("csr") == csr()
    assert parse_encoding_text("dcsc") == dcsc()
    assert parse_encoding_text("dense") is None
    enc = parse_encoding_text("format(compressed, dense) order(1, 0) ptr(16) idx(8)")
    assert enc.levels == (COMPRESSED, DENSE)
    assert enc.ordering == (1, 0)
    assert (enc.pointer_width, enc.index_width) == (16, 8)


def test_checksum_is_encoding_independent(mat_a):
    base = result_checksum(mat_a)
    assert result_checksum(pack(mat_a, csr())) == base
    assert result_checksum(pack(mat_a, dcsc())) == base
    assert result_checksum(mat_a.to_dense()) == base


def test_cmd_run_writes_output(tmp_path, spmspm_file, capsys):
    out = tmp_path / "c.tns"
    code = main(
        [
            "run",
            "--kernel-file",
            spmspm_file,
            "--input",
            "A=uniform:0.2:5",
            "--input",
            "B=identity",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "nnz" in printed and "density" in printed
    coo = read_tensor(str(out))
    assert coo.shape == (8, 8)


def test_cmd_run_scale_vector(tmp_path, capsys):
    kfile = tmp_path / "scale.kernel"
    kfile.write_text(SCALE)
    src = tmp_path / "x.tns"
    write_tensor(CooTensor((16,), [((3,), 1.5), ((6,), 2.5), ((7,), 3.5), ((10,), 4.5)]), str(src))
    out = tmp_path / "out.tns"
    code = main(
        ["run", "--kernel-file", str(kfile), "--input", f"x={src}", "--output", str(out)]
    )
    assert code == 0
    coo = read_tensor(str(out))
    assert coo.entries == [((3,), 3.0), ((6,), 5.0), ((7,), 7.0), ((10,), 9.0)]


def test_cmd_run_order_conflict_exit_code(tmp_path, capsys):
    kfile = tmp_path / "bad.kernel"
    kfile.write_text(
        "tensor A(3, 3) format(compressed, compressed) order(1, 0)\n"
        "tensor C(3, 3) format(compressed, compressed)\n"
        "C(i, j) = A(i, j)\n"
    )
    code = main(["run", "--kernel-file", str(kfile), "--input", "A=identity"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("sparsec: error[OrderConflict]:")
    assert "\n" not in err.strip()


def test_cmd_run_non_finite_literal_is_a_syntax_error(tmp_path, capsys):
    # 1e999 overflows to inf, and a*inf has no format-invariant answer.
    kfile = tmp_path / "inf.kernel"
    kfile.write_text("tensor a(4) format(compressed)\ntensor x(4)\nx(i) = a(i) * 1e999\n")
    code = main(["run", "--kernel-file", str(kfile), "--input", "a=uniform:0.5:1"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[KernelSyntaxError]: 3:")


def test_cmd_convert_roundtrip(tmp_path, mat_a):
    src = tmp_path / "a.mtx"
    src.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 4 3\n"
        "1 1 1.0\n1 4 2.0\n3 1 3.0\n"
    )
    out = tmp_path / "a.tns"
    code = main(
        ["convert", "--input", str(src), "--from", "csr", "--to", "csc", "--output", str(out)]
    )
    assert code == 0
    assert read_tensor(str(out)).entries == mat_a.normalize().entries


def test_cmd_convert_shape_guard(tmp_path):
    src = tmp_path / "v.tns"
    write_tensor(CooTensor((4,), [((1,), 1.0)]), str(src))
    out = tmp_path / "o.tns"
    code = main(
        ["convert", "--input", str(src), "--from", "csr", "--to", "dense", "--output", str(out)]
    )
    assert code == 1  # rank-1 file cannot pack as a matrix format


@pytest.mark.parametrize("what,needle", [("ir", "while"), ("lattice", "lattice"), ("graph", "node i")])
def test_cmd_emit_targets(tmp_path, capsys, what, needle):
    kfile = tmp_path / "dot.kernel"
    kfile.write_text(
        "tensor a(16) format(compressed)\ntensor b(16) format(compressed)\n"
        "tensor x()\nx() = a(i) * b(i)\n"
    )
    code = main(["emit", "--kernel-file", str(kfile), "--emit", what])
    assert code == 0
    assert needle in capsys.readouterr().out


def test_cmd_emit_graph_edges(tmp_path, capsys, spmspm_file):
    assert main(["emit", "--kernel-file", spmspm_file, "--emit", "graph"]) == 0
    out = capsys.readouterr().out
    assert "edge i -> k  (A)" in out
    assert "topo order: i, k, j" in out


def test_cmd_emit_dense_only_graph_has_no_edges(tmp_path, capsys):
    kfile = tmp_path / "dense.kernel"
    kfile.write_text("tensor A(3, 3)\ntensor C(3, 3)\nC(i, j) = A(i, j)\n")
    main(["emit", "--kernel-file", str(kfile), "--emit", "graph"])
    out = capsys.readouterr().out
    assert "edge" not in out


def test_cmd_search_csv(tmp_path, capsys):
    kfile = tmp_path / "spmm.kernel"
    kfile.write_text(
        "tensor A(8, 8) format(dense, compressed)\ntensor B(8, 8)\n"
        "tensor C(8, 8)\nC(i, j) = A(i, k) * B(k, j)\n"
    )
    out = tmp_path / "report.csv"
    code = main(
        [
            "search",
            "--kernel-file",
            str(kfile),
            "--input",
            "A=uniform:0.3:1",
            "--input",
            "B=uniform:1.0:2",
            "--encodings",
            "nowidths",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["levels", "ordering", "ptr", "idx", "opt", "time_ms", "checksum"]
    assert len(rows) == 1 + 8  # rank-2, widths off
    assert len({r[6] for r in rows[1:]}) == 1


def test_cmd_search_d1_two_rows(tmp_path):
    kfile = tmp_path / "scale1.kernel"
    kfile.write_text("tensor a(8) format(compressed)\ntensor x(8)\nx(i) = a(i) * 3.0\n")
    out = tmp_path / "r.csv"
    code = main(
        [
            "search",
            "--kernel-file",
            str(kfile),
            "--input",
            "A=uniform:0.5:3".replace("A", "a"),
            "--encodings",
            "nowidths",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        assert len(list(csv.reader(fh))) == 1 + 2


def test_cmd_bench_small_scales(capsys):
    assert main(["bench", "--suite", "spmspm", "--scale", "128"]) == 0
    out = capsys.readouterr().out
    assert "rho_C" in out
    assert main(["bench", "--suite", "spmv", "--scale", "256"]) == 0
    out = capsys.readouterr().out
    assert "CDR" in out and "DCSR" in out
    assert main(["bench", "--suite", "mttkrp", "--scale", "24"]) == 0
    assert "rho_A" in capsys.readouterr().out
    assert main(["bench", "--suite", "sddmm", "--scale", "64"]) == 0
    assert "rho_X" in capsys.readouterr().out


def test_cmd_search_sweep_all(tmp_path):
    kfile = tmp_path / "ew.kernel"
    kfile.write_text(
        "tensor A(6, 6) format(dense, compressed)\n"
        "tensor B(6, 6) format(dense, compressed)\n"
        "tensor C(6, 6)\nC(i, j) = A(i, j) * B(i, j)\n"
    )
    out = tmp_path / "r.csv"
    code = main(
        [
            "search",
            "--kernel-file",
            str(kfile),
            "--input",
            "A=uniform:0.4:6",
            "--input",
            "B=uniform:0.4:7",
            "--sweep-all",
            "--encodings",
            "nowidths",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    # 8 x 8 joint combinations, minus the loop-order conflicts.
    assert 1 + 40 <= len(rows) <= 1 + 64
    assert rows[1][0].startswith("A=")
    assert len({r[6] for r in rows[1:]}) == 1


def test_cmd_search_sddmm_sweep(tmp_path):
    kfile = tmp_path / "sddmm.kernel"
    kfile.write_text(
        "tensor S(10, 10) format(dense, compressed)\n"
        "tensor A(10, 4)\ntensor B(4, 10)\n"
        "tensor X(10, 10) format(dense, compressed)\n"
        "X(i, j) = S(i, j) * A(i, k) * B(k, j)\n"
    )
    out = tmp_path / "r.csv"
    code = main(
        [
            "search",
            "--kernel-file",
            str(kfile),
            "--input",
            "S=uniform:0.2:8",
            "--input",
            "A=uniform:1.0:9",
            "--input",
            "B=uniform:1.0:10",
            "--encodings",
            "nowidths",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    # Column-major fully-compressed S conflicts with the CSR output's loop
    # order and is skipped; the other six encodings run and agree.
    assert len(rows) == 1 + 6
    assert len({r[6] for r in rows[1:]}) == 1


def test_cmd_convert_dense_literal(tmp_path):
    out = tmp_path / "v.tns"
    code = main(
        [
            "convert",
            "--input",
            "dense:[1.0, 0.0, 2.0, 0.0]",
            "--from",
            "dense",
            "--to",
            "format(compressed)",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert read_tensor(str(out)).entries == [((0,), 1.0), ((2,), 2.0)]


@pytest.mark.parametrize("suite", ["spmspm", "spmv", "sddmm", "mttkrp"])
def test_cmd_bench_oracle_mismatch_is_typed(monkeypatch, capsys, suite):
    # An explicit comparison, not an assert, so `python -O` keeps the check.
    from sparsec import cli
    from sparsec.storage import DenseTensor

    def wrong_oracle(kernel, inputs):
        out = kernel.output_type
        return DenseTensor(out.shape, [1.0] * DenseTensor.zeros(out.shape).volume)

    monkeypatch.setattr(cli, "dense_eval", wrong_oracle)
    assert main(["bench", "--suite", suite, "--scale", "16"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[OracleMismatch]: ")


def test_cmd_convert_sparse_literal_rejects_float_coordinates(tmp_path, capsys):
    # 1.5 must not be truncated to index 1 on the way in.
    code = main(
        [
            "convert",
            "--input",
            "sparse<4>([[1.5]], [1.0])",
            "--from",
            "format(compressed)",
            "--to",
            "dense",
            "--output",
            str(tmp_path / "v.tns"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[CoordNotInteger]: ")


def _spmm_search_case():
    kernel = parse_kernel(
        "tensor A(6, 6) format(dense, compressed)\ntensor B(6, 6)\n"
        "tensor C(6, 6)\nC(i, j) = A(i, k) * B(k, j)\n"
    )
    a = generate(GeneratorSpec((6, 6), "uniform", density=0.4, seed=3))
    b = generate(GeneratorSpec((6, 6), "uniform", density=1.0, seed=4))
    return kernel, {"A": a, "B": b}


def test_run_search_coerces_unswept_operands_once(monkeypatch):
    kernel, bindings = _spmm_search_case()
    want = []
    for enc in enumerate_encodings(2, include_bitwidths=True):
        swept = replace(kernel, tensors={**kernel.tensors, "A": TensorType((6, 6), enc)})
        programs = compile_kernel(replace(swept, analysis=None))
        result = execute(swept, programs, bindings)
        want.append((enc, programs[-1].strategy.describe(), result_checksum(result)))
    seen = []

    def recording_execute(kernel, programs, inputs):
        seen.append(inputs["B"])
        return execute(kernel, programs, inputs)

    monkeypatch.setattr(cli, "execute", recording_execute)
    rows = cli.run_search(kernel, bindings, "A", include_widths=True)
    assert [(row.encodings["A"], row.opt, row.checksum) for row in rows] == want
    assert len(seen) == len(rows) == 200
    assert isinstance(seen[0], DenseTensor) and all(b is seen[0] for b in seen)
    # A swept operand bound as storage is read directly, to the same rows.
    packed = dict(bindings, A=pack(bindings["A"], dcsc()))
    rows = cli.run_search(kernel, packed, "A", include_widths=False)
    native = [w for w in want if w[0].pointer_width == w[0].index_width == 0]
    assert [(row.encodings["A"], row.opt, row.checksum) for row in rows] == native


def test_run_search_all_conflicts_skip_binding_errors():
    kernel = parse_kernel(
        "tensor A(3, 3) format(compressed, compressed)\n"
        "tensor B(3, 3) format(compressed, compressed) order(1, 0)\n"
        "tensor C(3, 3) format(compressed, compressed)\n"
        "C(i, j) = A(i, j) * B(i, j)\n"
    )
    # B's binding has the wrong shape, but no row compiles to bind it.
    bindings = {"A": CooTensor((3, 3)), "B": CooTensor((4, 4))}
    assert cli.run_search(kernel, bindings, "A", include_widths=False) == []
