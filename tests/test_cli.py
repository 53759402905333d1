import csv
import hashlib
import io
import itertools
import math
import os
import random
import subprocess
import sys

from dataclasses import replace

import numpy as np
import pytest

import sparsec
from sparsec import cli, engine, expr, storage
from sparsec.cli import main, parse_encoding_text, result_checksum
from sparsec.codegen import emit_text
from sparsec.encoding import COMPRESSED, DENSE, TensorType, enumerate_encodings, make_encoding
from sparsec.engine import compile_kernel, convert, execute
from sparsec.errors import BitWidthOverflow, NestingTooDeep, OrderConflict, ShapeMismatch
from sparsec.expr import parse_kernel
from sparsec.oracle import GeneratorSpec, generate
from sparsec.storage import CooTensor, DenseTensor, SparseStorage, pack
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


def test_parse_encoding_text_reads_back_every_description():
    # Every encoding of rank 1 to 3, widths included: 50 + 200 + 1,200.
    encodings = [enc for d in (1, 2, 3) for enc in enumerate_encodings(d, True)]
    assert len(encodings) == 1450
    for enc in encodings:
        assert parse_encoding_text(enc.describe()) == enc, enc.describe()


@pytest.mark.parametrize(
    "text",
    [
        "format(dense,compressed) order(a,1)",
        "format(dense,compressed) ptr(x)",
        "format(dense,compressed) order(1.5,0)",
        "format(dense,compressed) idx(1e3)",
        "format(dense,compressed) ordr(1,0)",
        "junk format(dense,compressed) more junk",
    ],
)
def test_cmd_convert_malformed_encoding_is_one_line(tmp_path, capsys, text):
    src = tmp_path / "a.tns"
    write_tensor(CooTensor((3, 4), [((0, 1), 1.0)]), str(src))
    for flag in ("--from", "--to"):
        formats = {"--from": "csr", "--to": "csr", flag: text}
        code = main(
            ["convert", "--input", str(src), "--from", formats["--from"],
             "--to", formats["--to"], "--output", str(tmp_path / "o.tns")]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("sparsec: error[KernelSyntaxError]: 1:"), err


@pytest.mark.parametrize(
    "spec",
    [
        "uniform:abc",
        "uniform:0.1:x",
        "rowband:x",
        "uniform:2.0",
        "uniform:-0.5",
        "rowband:-1",
        "uniform:0.1:-1",
        "identity:abc",
        "identity:1",
        "identity:1:2",
        # Empty or extra arguments: a generator's spec all the same, never
        # a file path.
        "uniform:",
        "uniform:0.5:",
        "uniform::3",
        "rowband:1:2:3",
        "identity:",
    ],
)
def test_cmd_run_bad_generator_spec_is_one_line(tmp_path, capsys, spec):
    kfile = tmp_path / "copy.kernel"
    kfile.write_text("tensor A(4, 4) format(dense, compressed)\ntensor C(4, 4)\nC(i, j) = A(i, j)\n")
    code = main(["run", "--kernel-file", str(kfile), "--input", f"A={spec}"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[ParseError]:"), err
    assert repr(spec) in err[0]


@pytest.mark.parametrize("n", [1 << 32, 3037000500])
def test_cmd_run_generator_past_the_budget_is_one_line(tmp_path, capsys, n):
    # n * n passes 2**64, or 2**63 where an int64 product turns negative.
    kfile = tmp_path / "rows.kernel"
    kfile.write_text(
        f"tensor A({n}, {n}) format(dense, compressed)\ntensor x({n})\nx(i) = A(i, j)\n"
    )
    code = main(["run", "--kernel-file", str(kfile), "--input", "A=uniform:0.5:1"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[DenseOutputTooLarge]: "), err
    assert f"({n}, {n})" in err[0]


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


@pytest.mark.parametrize("decl", ["tensor a(1.5)", "tensor a(4) format(compressed) ptr(1e3)"])
def test_cmd_emit_non_integer_declaration_is_a_syntax_error(tmp_path, capsys, decl):
    kfile = tmp_path / "decl.kernel"
    kfile.write_text(f"{decl}\ntensor c(4)\nc(i) = a(i)\n")
    code = main(["emit", "--kernel-file", str(kfile), "--emit", "ir"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[KernelSyntaxError]: 1:"), err
    assert "expected an integer" in err[0]


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
    assert read_tensor(str(out)).entries == mat_a.to_coo(drop_zeros=False).entries


@pytest.mark.parametrize("b", ["4.0", "0.0"])
def test_cmd_run_scalar_output_converts_back(tmp_path, capsys, b):
    # A rank-0 result file (`0 nnz`, a blank extents line) is read back.
    kfile = tmp_path / "dot.kernel"
    kfile.write_text(
        "tensor a(4) format(compressed)\ntensor b(4)\ntensor x()\nx() = a(i) * b(i)\n"
    )
    x, y = tmp_path / "x.tns", tmp_path / "y.tns"
    code = main(
        [
            "run",
            "--kernel-file",
            str(kfile),
            "--input",
            "a=sparse<4>([[1], [3]], [1.5, 2.0])",
            "--input",
            f"b=dense:[{b}, {b}, {b}, {b}]",
            "--output",
            str(x),
        ]
    )
    assert code == 0
    code = main(["convert", "--input", str(x), "--from", "dense", "--to", "dense", "--output", str(y)])
    assert code == 0, capsys.readouterr().err
    want = [((), 3.5 * float(b))] if float(b) else []
    assert read_tensor(str(x)).entries == read_tensor(str(y)).entries == want
    assert y.read_bytes() == x.read_bytes()


def test_cmd_convert_duplicates_summed_past_the_float64_range(tmp_path, capsys):
    # Duplicates sum in entry order, and a sum past the range rounds to
    # inf without a warning, as in a kernel.
    src, out = tmp_path / "d.tns", tmp_path / "o.tns"
    src.write_text("1 2\n4\n1 1e308\n1 1e308\n")
    code = main(
        ["convert", "--input", str(src), "--from", "format(compressed)",
         "--to", "format(compressed)", "--output", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    assert read_tensor(str(out)).entries == [((0,), math.inf)]


def test_cmd_run_identity_of_rank_0_is_one_shape_mismatch_line(tmp_path, capsys):
    kfile = tmp_path / "copy.kernel"
    kfile.write_text("tensor a()\ntensor x()\nx() = a()\n")
    code = main(["run", "--kernel-file", str(kfile), "--input", "a=identity"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[ShapeMismatch]: "), err


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


@pytest.mark.parametrize("scale", ["0", "-3"])
def test_cmd_bench_scale_below_one_is_one_parse_error_line(capsys, scale):
    assert main(["bench", "--suite", "spmspm", "--scale", scale]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err == [f"sparsec: error[ParseError]: --scale must be at least 1, got {scale}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["emit", "--emit", "foo"],
        ["bench", "--suite", "nope"],
        ["run", "--seed", "abc"],
        ["run"],
        [],
        ["search", "--kernel-file", "k.kernel", "--sweep-all", "--sweep", "a"],
    ],
)
def test_argument_errors_are_one_parse_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line.startswith("sparsec: error[ParseError]: "), line


CONVERT = ["convert", "--input", "{path}", "--from", "dense", "--to", "dense", "--output", "{out}"]


@pytest.mark.parametrize(
    "name, argv",
    [("k.kernel", ["emit", "--kernel-file", "{path}"]), ("t.tns", CONVERT), ("t.mtx", CONVERT)],
)
def test_a_file_that_is_not_utf8_is_one_parse_error_line(tmp_path, capsys, name, argv):
    path = tmp_path / name
    path.write_bytes(b"tensor x()\nx() = 1.0 \xff\n")
    assert main([a.format(path=path, out=tmp_path / "out.tns") for a in argv]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line == f"sparsec: error[ParseError]: {path} is not UTF-8 text: byte 0xff at offset 21"


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("k.kernel", "tensor a(4) format(compressed)\ntensor x(4)\nx(i) = -a(i)\n",
         ["emit", "--kernel-file", "{path}"]),
        ("t.tns", "1 2 1.5\n3 1 -2.0\n", CONVERT),
    ],
    ids=["kernel", "tns"],
)
def test_a_byte_order_mark_is_read_past(tmp_path, capsys, name, text, argv):
    # Saved with a UTF-8 byte-order mark, a file reads as it does without
    # one, and a byte that is not UTF-8 is named at its offset in the file.
    printed = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path, out = tmp_path / name, tmp_path / "out.tns"
        path.write_bytes(mark + text.encode())
        assert main([a.format(path=path, out=out) for a in argv]) == 0
        printed.append((capsys.readouterr().out, out.read_text() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert printed[0] == printed[1]
    assert any(printed[0])
    path.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"\xff\n")
    assert main([a.format(path=path, out=tmp_path / "out.tns") for a in argv]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    offset = 3 + len(text.encode())
    assert line == f"sparsec: error[ParseError]: {path} is not UTF-8 text: byte 0xff at offset {offset}"


AB = (
    "tensor A(4, 4) format(dense, compressed)\ntensor B(4, 4) format(dense, compressed)\n"
    "tensor C(4, 4)\nC(i, j) = A(i, j) * B(i, j)\n"
)


@pytest.mark.parametrize(
    "category, argv",
    [
        ("ParseError", ["run", "--kernel-file", "{ab}", "--input", "A"]),
        ("ParseError", ["run", "--kernel-file", "{ab}", "--input", "Z=uniform"]),
        ("ParseError", ["search", "--kernel-file", "{ab}", "--input", "A=uniform", "--sweep", "B"]),
        ("ParseError", ["search", "--kernel-file", "{ab}", "--input", "A=uniform",
                        "--input", "B=uniform:0.5:2"]),
        ("ParseError", ["search", "--kernel-file", "{ab}", "--sweep-all"]),
        ("IoError", ["run", "--kernel-file", "{missing}"]),
    ],
)
def test_command_line_mistakes_are_one_line(tmp_path, capsys, category, argv):
    # Bad --input items, a swept operand that --sweep, --sweep-all or the
    # bindings cannot name, and a kernel file that is not there.
    (tmp_path / "ab.kernel").write_text(AB)
    paths = {"ab": tmp_path / "ab.kernel", "missing": tmp_path / "missing.kernel"}
    assert main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line.startswith(f"sparsec: error[{category}]: "), line


def test_cmd_search_with_every_row_in_conflict_is_one_line(tmp_path, capsys):
    # B(j, i) in CSR puts j before i, the CSR output i before j: whatever
    # A's encoding, no row compiles.
    kfile = tmp_path / "conflict.kernel"
    kfile.write_text(
        "tensor A(4, 4) format(dense, compressed)\n"
        "tensor B(4, 4) format(dense, compressed)\n"
        "tensor C(4, 4) format(dense, compressed)\n"
        "C(i, j) = A(i, j) * B(j, i)\n"
    )
    out = tmp_path / "r.csv"
    code = main(
        [
            "search", "--kernel-file", str(kfile), "--input", "A=uniform:0.5:1",
            "--input", "B=uniform:0.5:2", "--sweep", "A", "--encodings", "nowidths",
            "--output", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[OrderConflict]: ")
    assert "'A'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("source", ["literal", "file", "duplicates"])
def test_cmd_search_non_finite_input_is_one_parse_error_line(tmp_path, capsys, source):
    # With `a` dense, the row that stores `b` densely computes inf * 0 =
    # nan where a compressed `b` skips the product: no result is
    # format-invariant, so no row runs. Finite duplicates that sum to inf
    # count as inf.
    kfile = tmp_path / "ab.kernel"
    kfile.write_text(
        "tensor a(4)\ntensor b(4) format(compressed)\ntensor c(4)\nc(i) = a(i) * b(i)\n"
    )
    spec = "sparse<4>([[0]], [1e999])"
    if source == "file":
        spec = str(tmp_path / "a.tns")
        (tmp_path / "a.tns").write_text("1 1\n4\n1 inf\n")
    elif source == "duplicates":
        spec = "sparse<4>([[0], [0]], [1e308, 1e308])"
    out = tmp_path / "r.csv"
    code = main(
        [
            "search", "--kernel-file", str(kfile), "--input", f"a={spec}",
            "--input", "b=uniform:0.5:1", "--sweep", "b", "--output", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[ParseError]: "), err
    assert "'a'" in err[0]
    assert not out.exists()


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


@pytest.mark.parametrize(
    "spec", ['v=dense:["a", 1, 2, 3, 4, 5, 6, 7]', "A=sparse<8x8>([[0, 0]], [None])"]
)
def test_cmd_run_non_real_literal_value_is_one_parse_error_line(tmp_path, capsys, spec):
    kfile = tmp_path / "spmv.kernel"
    kfile.write_text(
        "tensor A(8, 8) format(dense, compressed)\ntensor v(8)\ntensor y(8)\n"
        "y(i) = A(i, j) * v(j)\n"
    )
    code = main(["run", "--kernel-file", str(kfile), "--input", spec])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[ParseError]: "), err


def test_cmd_convert_sparse_literal_with_scalar_values_is_one_parse_error_line(tmp_path, capsys):
    code = main([
        "convert", "--input", "sparse<2>([[0]], 5)", "--from", "format(compressed)",
        "--to", "dense", "--output", str(tmp_path / "x.tns"),
    ])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[ParseError]: "), err
    assert not (tmp_path / "x.tns").exists()


@pytest.mark.parametrize("shape", ["4x", "x", " ", "4 4", "4xx4"])
def test_cmd_run_malformed_sparse_literal_shape_is_one_parse_error_line(tmp_path, capsys, shape):
    kfile = tmp_path / "scale.kernel"
    kfile.write_text("tensor A(4, 4) format(dense, compressed)\ntensor B(4, 4)\nB(i, j) = A(i, j)\n")
    code = main(["run", "--kernel-file", str(kfile), "--input", f"A=sparse<{shape}>([[1, 1]], [1.0])"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"sparsec: error[ParseError]: bad sparse literal shape {shape!r}"], err


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


@pytest.mark.parametrize("op", ["=", "+="])
def test_run_search_coerces_only_what_the_kernel_reads(op):
    kernel = parse_kernel(
        "tensor A(3, 3) format(compressed, compressed)\n"
        "tensor C(3, 3) format(compressed, compressed)\n"
        f"C(i, j) {op} A(i, j) * 2.0\n"
    )
    a = generate(GeneratorSpec((3, 3), "uniform", density=0.5, seed=1))
    bindings = {"A": a, "C": CooTensor((4, 4))}  # the wrong shape for C
    if op == "+=":  # C is read, so its binding is coerced and rejected
        for search in (False, True):
            with pytest.raises(ShapeMismatch):
                if search:
                    cli.run_search(kernel, bindings, "A", include_widths=False)
                else:
                    engine.run_kernel(kernel, bindings)
        return
    want = result_checksum(engine.run_kernel(kernel, bindings))
    rows = cli.run_search(kernel, bindings, "A", include_widths=False)
    assert rows and all(row.checksum == want for row in rows)


def _checksum_reference(result) -> str:
    """The checksum formula before it read whole columns: one f-string per
    nonzero entry pair."""
    text = ";".join(f"{c}:{v!r}" for c, v in result.to_coo(drop_zeros=True).entries)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


SPECIAL_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-5, 1e17, -2.5, 3.0]


@pytest.mark.parametrize("shape", [(), (7,), (5, 4), (3, 4, 2)])
def test_result_checksum_matches_the_entry_formula(shape):
    rng = random.Random(len(shape))
    for trial in range(20):
        entries = [
            (tuple(rng.randrange(e) for e in shape), rng.choice(SPECIAL_VALUES))
            for _ in range(rng.randrange(12))
        ]
        # Duplicates sum; opposite infinities are kept apart, as their sum
        # would warn.
        if any(v in (math.inf, -math.inf) for _, v in entries):
            entries = list({c: v for c, v in entries}.items())
        coo = CooTensor(shape, entries)
        want = _checksum_reference(coo)
        assert result_checksum(coo) == want, entries
        assert result_checksum(coo.to_dense()) == want, entries
        if shape:
            assert result_checksum(pack(coo, make_encoding([COMPRESSED] * len(shape)))) == want
    assert result_checksum(CooTensor(shape)) == _checksum_reference(CooTensor(shape))


def _row_by_row(kernel, bindings, names, encodings_of):
    """(encodings, opt, checksum) of each search row, one `compile_kernel`
    and `execute` per encoding combination on the raw bindings."""
    spaces = [encodings_of(kernel.tensors[name].rank) for name in names]
    want = []
    for combo in itertools.product(*spaces):
        tensors = dict(kernel.tensors)
        for name, enc in zip(names, combo):
            tensors[name] = TensorType(tensors[name].shape, enc)
        swept = replace(kernel, tensors=tensors, analysis=None)
        try:
            programs = compile_kernel(swept)
        except OrderConflict:
            continue
        result = execute(swept, programs, bindings)
        opt = programs[-1].strategy.describe()
        want.append((dict(zip(names, combo)), opt, result_checksum(result)))
    return want


def _rows(rows):
    return [(row.encodings, row.opt, row.checksum) for row in rows]


def test_run_search_compiles_and_packs_once_per_width_stripped_format(monkeypatch):
    kernel, bindings = _spmm_search_case()
    counts = {"compile": 0, "pack A": 0, "execute": 0}

    def counting(key, call, counted=lambda *args: True):
        def wrapper(*args):
            counts[key] += counted(*args)
            return call(*args)

        return wrapper

    monkeypatch.setattr(cli, "compile_kernel", counting("compile", compile_kernel))
    monkeypatch.setattr(cli, "execute", counting("execute", execute))
    is_a = lambda value, enc: value is bindings["A"]  # noqa: E731
    monkeypatch.setattr(engine, "pack", counting("pack A", engine.pack, is_a))
    rows = cli.run_search(kernel, bindings, "A", include_widths=True)
    assert len(rows) == 200
    assert counts == {"compile": 8, "pack A": 8, "execute": 200}


def test_run_search_sweeps_several_operands_with_widths(monkeypatch):
    # Rank-2 A and B with a sparse C: most format pairs conflict, and a
    # conflict holds for every width variant. The width pairs are cut to
    # four so the row-by-row reference stays small.
    kernel = parse_kernel(
        "tensor A(7, 6) format(dense, compressed)\n"
        "tensor B(6, 5) format(dense, compressed)\n"
        "tensor C(7, 5) format(compressed, compressed)\n"
        "C(i, j) = A(i, k) * B(k, j)\n"
    )
    bindings = {
        "A": generate(GeneratorSpec((7, 6), "uniform", density=0.4, seed=11)),
        "B": generate(GeneratorSpec((6, 5), "uniform", density=0.4, seed=12)),
    }
    widths = {(0, 0), (0, 8), (8, 8), (32, 16)}

    def encodings(d, include_bitwidths=True):
        return [
            e
            for e in enumerate_encodings(d, include_bitwidths)
            if (e.pointer_width, e.index_width) in widths
        ]

    want = _row_by_row(kernel, bindings, ["A", "B"], encodings)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "enumerate_encodings", encodings)
        rows = cli.run_search(kernel, bindings, ["A", "B"], include_widths=True)
    assert _rows(rows) == want
    assert 0 < len(rows) < 32 * 32 and len({row.checksum for row in rows}) == 1


@pytest.mark.parametrize("own", [csr(), replace(dcsc(), pointer_width=16, index_width=8)])
def test_run_search_uses_a_binding_of_the_rows_type_as_it_is(monkeypatch, own):
    kernel, bindings = _spmm_search_case()
    storage = pack(bindings["A"], own)
    values = storage.values.copy()
    values[::2] = -0.0  # stored -0.0, which packing again turns into 0.0
    storage = storage.with_values(values)
    layout = (own.levels, own.ordering)
    bindings = dict(bindings, A=storage)
    seen = []

    def recording_execute(kernel, programs, inputs):
        seen.append(inputs["A"])
        return execute(kernel, programs, inputs)

    want = _row_by_row(kernel, bindings, ["A"], lambda d: list(enumerate_encodings(d, True)))
    monkeypatch.setattr(cli, "execute", recording_execute)
    rows = cli.run_search(kernel, bindings, "A", include_widths=True)
    assert _rows(rows) == want
    for row, value in zip(rows, seen):
        enc = row.encodings["A"]
        ttype = TensorType((6, 6), enc)
        assert isinstance(value, SparseStorage)
        if (enc.levels, enc.ordering) == layout:
            # Any widths: the binding's arrays, read as stored, -0.0 kept.
            assert np.shares_memory(value.values, storage.values), enc
            assert value.values.tobytes() == storage.values.tobytes()
            for level in range(2):
                for got, kept in zip(
                    (value.pointers[level], value.indices[level]),
                    (storage.pointers[level], storage.indices[level]),
                ):
                    assert not kept.size or np.shares_memory(got, kept), enc
        else:
            assert not np.shares_memory(value.values, storage.values), enc
            assert repr(value.with_type(ttype)) == repr(convert(storage, ttype)), enc


@pytest.mark.parametrize(
    "name, pointers", [("A", False), ("y", False), ("A", True)], ids=["A", "y", "A-pointers"]
)
def test_run_search_width_overflow_is_raised_on_the_same_row(monkeypatch, name, pointers):
    # Index 299 does not fit in 8 bits: the first compressed row of the
    # swept input A or output y with idx(8) raises, after every row before
    # it ran. With `pointers`, A holds over 255 entries at extents that
    # fit in 8 bits, so only its pointers overflow: the first row with a
    # compressed level and ptr(8) raises, on its group's packed arrays,
    # what a fresh pack raises.
    kernel = parse_kernel(
        "tensor A(300, 300) format(dense, compressed)\ntensor x(300)\n"
        "tensor y(300) format(compressed)\ny(i) = A(i, j) * x(j)\n"
    )
    bindings = {
        "A": CooTensor((300, 300), [((0, 0), 1.0), ((5, 299), 2.0), ((299, 7), 3.0)]),
        "x": generate(GeneratorSpec((300,), "uniform", density=1.0, seed=5)),
    }
    if pointers:
        kernel = parse_kernel(
            "tensor A(20, 20) format(dense, compressed)\ntensor x(20)\n"
            "tensor y(20) format(compressed)\ny(i) = A(i, j) * x(j)\n"
        )
        bindings = {
            "A": generate(GeneratorSpec((20, 20), "uniform", density=0.8, seed=5)),
            "x": generate(GeneratorSpec((20,), "uniform", density=1.0, seed=6)),
        }
        assert bindings["A"].nnz > 255
    ttype = kernel.tensors[name]
    ran = 0
    with pytest.raises(BitWidthOverflow) as want:
        for enc in enumerate_encodings(ttype.rank, include_bitwidths=True):
            swept = replace(kernel, tensors={**kernel.tensors, name: TensorType(ttype.shape, enc)})
            execute(swept, compile_kernel(replace(swept, analysis=None)), bindings)
            ran += 1
    if pointers:
        assert (enc.levels[-1], enc.pointer_width, enc.index_width) == (COMPRESSED, 8, 0) and ran
        assert str(want.value).startswith("pointer value ")
    else:
        assert (enc.levels[-1], enc.index_width) == (COMPRESSED, 8) and ran
    done = []

    def recording_execute(kernel, programs, inputs):
        result = execute(kernel, programs, inputs)
        done.append(kernel.tensors[name].encoding)
        return result

    monkeypatch.setattr(cli, "execute", recording_execute)
    with pytest.raises(BitWidthOverflow) as got:
        cli.run_search(kernel, bindings, name, include_widths=True)
    assert str(got.value) == str(want.value)
    assert len(done) == ran


def test_run_search_checksums_a_diverging_row(monkeypatch):
    kernel, bindings = _spmm_search_case()
    calls = []

    def diverging_execute(kernel, programs, inputs):
        result = execute(kernel, programs, inputs)
        calls.append(result)
        if len(calls) == 30:  # one row, inside a group
            return DenseTensor(result.shape, [v * 2.0 for v in result.data])
        return result

    monkeypatch.setattr(cli, "execute", diverging_execute)
    rows = cli.run_search(kernel, bindings, "A", include_widths=True)
    checksums = [row.checksum for row in rows]
    doubled = DenseTensor(calls[29].shape, [v * 2.0 for v in calls[29].data])
    assert checksums[29] == result_checksum(doubled) != checksums[28]
    assert checksums[:29] + checksums[30:] == [result_checksum(calls[0])] * 199


def test_cmd_search_reports_a_divergence_in_one_line(tmp_path, monkeypatch, capsys):
    # Rows with two checksums: every row is still written, then one error
    # line, and the exit code is 1.
    kfile = tmp_path / "spmv.kernel"
    kfile.write_text(
        "tensor A(4, 4) format(dense, compressed)\ntensor b(4)\ntensor x(4)\n"
        "x(i) = A(i, j) * b(j)\n"
    )
    encodings = list(enumerate_encodings(2, False))
    rows = [
        cli.SearchRow({"A": enc}, "dense-store", 0.25, f"sum{n % 2}")
        for n, enc in enumerate(encodings)
    ]
    monkeypatch.setattr(cli, "run_search", lambda *args: rows)
    out = tmp_path / "report.csv"
    argv = ["search", "--kernel-file", str(kfile), "--input", "A=uniform:0.5:1"]
    assert main(argv + ["--input", "b=uniform:1.0:2", "--output", str(out)]) == 1
    with open(out) as fh:
        written = list(csv.reader(fh))
    assert [r[6] for r in written[1:]] == [row.checksum for row in rows]
    assert capsys.readouterr().err.splitlines() == [
        f"sparsec: error[ChecksumDivergence]: 2 distinct results across {len(rows)} "
        "encodings (compiler bug)"
    ]


# Each case: kernel text, the swept operand(s), and the bindings' densities
# (the swept output C of "swept output" is bound to nothing).
REBIND_CASES = {
    "spmm": (
        "tensor A(6, 6) format(dense, compressed)\ntensor B(6, 6)\n"
        "tensor C(6, 6)\nC(i, j) = A(i, k) * B(k, j)\n",
        "A", {"A": 0.4, "B": 1.0},
    ),
    "scoped reduction": (
        "tensor A(5, 5) format(dense, compressed)\ntensor B(5, 5) format(dense, compressed)\n"
        "tensor D(5, 5)\ntensor C(5, 5)\nC(i, j) = A(i, k) * B(k, j) + D(i, j)\n",
        "A", {"A": 0.4, "B": 0.5, "D": 0.3},
    ),
    "sparse +=": (
        "tensor A(5, 5) format(compressed, compressed)\ntensor B(5, 5)\n"
        "tensor C(5, 5) format(dense, compressed)\nC(i, j) += A(i, j) * B(i, j)\n",
        "A", {"A": 0.5, "B": 0.6, "C": 0.4},
    ),
    "swept output": (
        "tensor A(5, 5) format(dense, compressed)\ntensor B(5, 5)\n"
        "tensor C(5, 5) format(dense, compressed)\nC(i, j) = A(i, k) * B(k, j)\n",
        "C", {"A": 0.4, "B": 0.5},
    ),
    "two operands": (
        "tensor A(5, 4) format(dense, compressed)\ntensor B(4, 5) format(dense, compressed)\n"
        "tensor C(5, 5)\nC(i, j) = A(i, k) * B(k, j)\n",
        ["A", "B"], {"A": 0.4, "B": 0.5},
    ),
}


def _rebind_case(name):
    text, swept, densities = REBIND_CASES[name]
    kernel = parse_kernel(text)
    bindings = {
        t: generate(GeneratorSpec(kernel.tensors[t].shape, "uniform", density=rho, seed=i))
        for i, (t, rho) in enumerate(densities.items())
    }
    return kernel, bindings, swept


@pytest.mark.parametrize("case", list(REBIND_CASES))
def test_run_search_rebinds_programs_equal_to_fresh_ones(monkeypatch, case):
    kernel, bindings, swept = _rebind_case(case)
    if case == "scoped reduction":
        assert len(compile_kernel(kernel)) == 2
    ran = []

    def recording_execute(kernel, programs, inputs):
        ran.append((kernel, programs))
        return execute(kernel, programs, inputs)

    names = [swept] if isinstance(swept, str) else swept
    encodings = lambda d, include_bitwidths=True: [  # noqa: E731
        # Two operands: 200 x 200 rows, cut to four width pairs each.
        e for e in enumerate_encodings(d, include_bitwidths)
        if len(names) == 1 or (e.pointer_width, e.index_width) in {(0, 0), (8, 8), (8, 16), (32, 0)}
    ]
    monkeypatch.setattr(cli, "enumerate_encodings", encodings)
    monkeypatch.setattr(cli, "execute", recording_execute)
    rows = cli.run_search(kernel, bindings, swept, include_widths=True)
    assert rows and len(ran) == len(rows)
    assert _rows(rows) == _row_by_row(kernel, bindings, names, encodings)
    # No Program is rebound: each row runs the Programs its layout group
    # compiled, as they are, and they are the loops a fresh compile of the
    # row's own kernel gives.
    group = None
    for row, (swept_kernel, programs) in zip(rows, ran):
        for name in names:
            assert swept_kernel.tensors[name].encoding == row.encodings[name]
        key = tuple((enc.levels, enc.ordering) for enc in row.encodings.values())
        if key == group:
            assert programs is group_programs, row.encodings
        group, group_programs = key, programs
        fresh = compile_kernel(replace(swept_kernel, analysis=None))
        assert [p.kernel.analysis for p in programs] == [p.kernel.analysis for p in fresh]
        assert list(map(emit_text, programs)) == list(map(emit_text, fresh))


def test_run_search_pays_per_width_row_only_for_its_run_and_widths(monkeypatch):
    kernel, bindings, _ = _rebind_case("scoped reduction")
    counts = {"analyze": 0, "validate": 0, "widths": 0, "execute": 0, "nonzeros": 0}

    def counting(key, call):
        def wrapper(*args):
            counts[key] += 1
            return call(*args)

        return wrapper

    # One compile per group (width-stripped format) analyses its pieces.
    groups = set()
    for enc in enumerate_encodings(2, include_bitwidths=False):
        swept = replace(kernel, tensors={**kernel.tensors, "A": TensorType((5, 5), enc)})
        with monkeypatch.context() as patch:
            patch.setattr(expr, "analyze_reductions", counting("analyze", expr.analyze_reductions))
            patch.setattr(engine, "analyze_reductions", counting("analyze", expr.analyze_reductions))
            try:
                compile_kernel(swept)
            except OrderConflict:
                continue
        groups.add(enc)
    per_group, counts["analyze"] = counts["analyze"], 0
    assert per_group > 2 * len(groups)  # the split analyses three kernels

    keys = []

    def keyed_execute(kernel, programs, inputs):
        result = execute(kernel, programs, inputs)
        keys.append(cli._result_key(result))
        return result

    monkeypatch.setattr(expr, "analyze_reductions", counting("analyze", expr.analyze_reductions))
    monkeypatch.setattr(engine, "analyze_reductions", counting("analyze", expr.analyze_reductions))
    monkeypatch.setattr(SparseStorage, "validate", counting("validate", SparseStorage.validate))
    monkeypatch.setattr(
        SparseStorage, "_check_widths", counting("widths", SparseStorage._check_widths)
    )
    monkeypatch.setattr(cli, "execute", counting("execute", keyed_execute))
    monkeypatch.setattr(cli, "_nonzero_arrays", counting("nonzeros", cli._nonzero_arrays))
    rows = cli.run_search(kernel, bindings, "A", include_widths=True)
    assert len(rows) == 25 * len(groups) and counts["execute"] == len(rows)
    assert counts["analyze"] == per_group
    # B is packed once; each group packs A once and builds one sparse
    # temporary per row: those are the full checks. Every other A is a
    # width variant, checked for its widths only.
    assert counts["validate"] == 1 + len(groups) + len(rows)
    assert counts["widths"] == counts["validate"] + len(rows) - len(groups)
    changes = sum(1 for i, key in enumerate(keys) if i == 0 or key != keys[i - 1])
    assert counts["nonzeros"] == changes == 1


def test_run_search_derives_each_position_recipe_once_per_program(monkeypatch):
    # 200 rows run 8 groups' Programs; each finds a position the same way
    # on every row, so its recipe is derived on the Program's first run.
    kernel, bindings = _spmm_search_case()
    calls = []  # the Programs are kept, so no id is reused

    def recording(program, uid, upto):
        calls.append((program, uid, upto))
        return position_steps(program, uid, upto)

    position_steps = engine._position_steps
    monkeypatch.setattr(engine, "_position_steps", recording)
    rows = cli.run_search(kernel, bindings, "A", include_widths=True)
    assert len(rows) == 200
    keys = [(id(program), uid, upto) for program, uid, upto in calls]
    assert len(keys) == len(set(keys)) > 8
    assert len({id(program) for program, _, _ in calls}) == 8


def test_run_search_takes_each_array_maximum_once(monkeypatch):
    # A's width variants are checked on every row, against the largest
    # values `validate` kept for its group's packed arrays: each indices
    # array's taken once, one per compressed level of each group's A (none,
    # one, one and two for the four level pairs, under both orderings). A
    # level's largest pointer is its last one, and takes none.
    kernel, bindings = _spmm_search_case()
    taken, checks = [], []
    largest, check_widths = storage._largest, SparseStorage._check_widths
    monkeypatch.setattr(storage, "_largest", lambda array: taken.append(array) or largest(array))
    monkeypatch.setattr(
        SparseStorage, "_check_widths", lambda self: checks.append(self) or check_widths(self)
    )
    rows = cli.run_search(kernel, bindings, "A", include_widths=True)
    assert len(rows) == len(checks) == 200
    assert len(taken) == (0 + 1 + 1 + 2) * 2


def test_one_program_runs_other_bindings_and_width_variants():
    # A Program keeps how it finds positions, which depend on its types'
    # layouts alone: run again on other bindings, or under a kernel whose
    # types differ only in widths, it gives what a fresh compile gives.
    kernel = parse_kernel(
        "tensor A(6, 5) format(compressed, dense)\ntensor B(5, 7) format(dense, compressed)\n"
        "tensor C(6, 7) format(compressed, compressed)\nC(i, j) = A(i, k) * B(k, j)\n"
    )
    programs = compile_kernel(kernel)
    narrow = {
        name: kernel.tensors[name].with_encoding(replace(kernel.tensors[name].encoding, **widths))
        for name, widths in (("A", dict(index_width=8)), ("C", dict(pointer_width=16)))
    }
    variant = replace(kernel, tensors={**kernel.tensors, **narrow}, analysis=None)
    for seed in (1, 2):
        bindings = {
            name: generate(GeneratorSpec(kernel.tensors[name].shape, "uniform", rho, seed + i))
            for i, (name, rho) in enumerate((("A", 0.3), ("B", 0.5)))
        }
        for swept in (kernel, variant):
            got = execute(swept, programs, bindings)
            assert repr(got) == repr(engine.run_kernel(swept, bindings)), (seed, swept)
    assert programs[0].positions


# ----------------------------------------------------------------------------
# Kernels past Python's recursion limit, and `python -m sparsec`

DEEP_HEAD = "tensor a(4)\ntensor b(4)\n"
DEEP_KERNELS = {
    # The parser descends a few frames per parenthesis.
    "parentheses": DEEP_HEAD + "b(i) = " + "(" * 1000 + "a(i)" + ")" * 1000 + "\n",
    # A long sum parses as a loop, but its tree is 1,200 levels deep.
    "sum": DEEP_HEAD + "b(i) = " + " + ".join(["a(i)"] * 1200) + "\n",
}


def test_kernels_past_the_recursion_limit_raise_nesting_too_deep():
    with pytest.raises(NestingTooDeep, match="too deeply to parse"):
        parse_kernel(DEEP_KERNELS["parentheses"])
    with pytest.raises(NestingTooDeep, match="too deeply to parse"):
        parse_kernel(DEEP_HEAD + "b(i) = " + "-" * 1000 + "a(i)\n")
    kernel = parse_kernel(DEEP_KERNELS["sum"])
    with pytest.raises(NestingTooDeep, match="nests 1200 levels deep"):
        compile_kernel(kernel)
    # Below the limit the same shapes still compile and run.
    shallow = parse_kernel(DEEP_HEAD + "b(i) = " + " + ".join(["a(i)"] * 300) + "\n")
    got = engine.run_kernel(shallow, {"a": DenseTensor((4,), [1.0, 2.0, 0.0, -1.0])})
    assert got.data.tolist() == [300.0, 600.0, 0.0, -300.0]


@pytest.mark.parametrize("shape", sorted(DEEP_KERNELS))
@pytest.mark.parametrize("command", ["run", "emit"])
def test_kernels_past_the_recursion_limit_are_one_cli_line(tmp_path, capsys, shape, command):
    kfile = tmp_path / "deep.kernel"
    kfile.write_text(DEEP_KERNELS[shape])
    args = ["--input", "a=uniform:0.5:1"] if command == "run" else ["--emit", "lattice"]
    assert main([command, "--kernel-file", str(kfile), *args]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sparsec: error[NestingTooDeep]: "), err


def test_python_m_sparsec_runs_the_cli():
    src = os.path.dirname(os.path.dirname(sparsec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sparsec", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sparsec ")
    for command in ("run", "emit", "search", "bench"):
        assert command in proc.stdout
