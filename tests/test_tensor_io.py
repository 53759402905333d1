import random

import pytest

import conftest as refs
from sparsec.errors import LengthMismatch, ParseError, ShapeMismatch, UnsupportedField
from sparsec.storage import CooTensor
from sparsec.tensor_io import (
    FileFormat,
    detect_format,
    read_dense_literal,
    read_sparse_literal,
    read_tensor,
    write_tensor,
)

MM_GENERAL = """%%MatrixMarket matrix coordinate real general
% comment line
3 4 3
1 1 {a00}
1 4 {a03}
3 1 {a20}
""".format(a00=refs.A00, a03=refs.A03, a20=refs.A20)


def test_matrix_market_general(tmp_path, mat_a):
    path = tmp_path / "a.mtx"
    path.write_text(MM_GENERAL)
    assert read_tensor(str(path)).normalize().entries == mat_a.normalize().entries


def test_matrix_market_pattern(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n")
    coo = read_tensor(str(path))
    assert coo.entries == [((0, 0), 1.0), ((1, 1), 1.0)]


def test_matrix_market_symmetric(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 4.0\n2 1 5.0\n3 3 6.0\n"
    )
    coo = read_tensor(str(path)).normalize()
    # The off-diagonal entry is mirrored; this equals its expanded twin.
    twin = CooTensor((3, 3), [((0, 0), 4.0), ((1, 0), 5.0), ((0, 1), 5.0), ((2, 2), 6.0)])
    assert coo.entries == twin.normalize().entries


def test_matrix_market_integer_field(tmp_path):
    path = tmp_path / "i.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 2 7\n")
    assert read_tensor(str(path)).entries == [((1, 1), 7.0)]


@pytest.mark.parametrize(
    "banner,offending",
    [
        ("%%MatrixMarket matrix coordinate complex general", "complex"),
        ("%%MatrixMarket matrix array real general", "array"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric", "skew-symmetric"),
        ("%%MatrixMarket matrix coordinate real hermitian", "hermitian"),
    ],
)
def test_matrix_market_rejects_out_of_scope(tmp_path, banner, offending):
    path = tmp_path / "bad.mtx"
    path.write_text(banner + "\n1 1 1\n1 1 1.0\n")
    with pytest.raises((ParseError, UnsupportedField)) as err:
        read_tensor(str(path))
    assert offending in str(err.value)


def test_matrix_market_count_mismatch(tmp_path):
    path = tmp_path / "n.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")
    with pytest.raises(ShapeMismatch):
        read_tensor(str(path))


def test_matrix_market_bad_entry_line_number(tmp_path):
    path = tmp_path / "b.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n")
    with pytest.raises(ParseError) as err:
        read_tensor(str(path))
    assert err.value.line == 3


def test_plain_frostt_infers_shape(tmp_path):
    path = tmp_path / "t.tns"
    path.write_text("# comment\n1 1 2 1.0\n3 2 4 2.5\n")
    coo = read_tensor(str(path))
    assert coo.shape == (3, 2, 4)
    assert coo.entries == [((0, 0, 1), 1.0), ((2, 1, 3), 2.5)]


def test_extended_frostt_detected_and_read(tmp_path, mat_a):
    path = tmp_path / "a.tns"
    write_tensor(mat_a, str(path))
    assert detect_format(str(path)) is FileFormat.EXTENDED_FROSTT
    assert read_tensor(str(path)).entries == mat_a.normalize().entries


def test_write_tensor_layout(tmp_path, tensor_t):
    path = tmp_path / "t.tns"
    write_tensor(tensor_t, str(path))
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "3 5"
    assert lines[1] == "3 3 4"
    assert len(lines) == 2 + 5
    # Entries are 1-based and lexicographically ordered.
    assert lines[2].startswith("1 1 1 ")


def test_write_empty_tensor(tmp_path):
    path = tmp_path / "e.tns"
    write_tensor(CooTensor((5,)), str(path))
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines == ["1 0", "5"]
    assert read_tensor(str(path)).shape == (5,)


def test_roundtrip_random_tensors(tmp_path):
    rng = random.Random(2024)
    for case in range(30):
        rank = rng.randint(1, 4)
        shape = tuple(rng.randint(1, 6) for _ in range(rank))
        entries = {}
        for _ in range(rng.randint(0, 12)):
            coords = tuple(rng.randrange(e) for e in shape)
            entries[coords] = rng.uniform(-5, 5)
        coo = CooTensor(shape, list(entries.items())).normalize()
        path = tmp_path / f"r{case}.tns"
        write_tensor(coo, str(path))
        back = read_tensor(str(path))
        assert back.shape == coo.shape and back.entries == coo.entries


def _write_per_entry(coo, path):
    """The reference for `write_tensor`: one formatted line per entry."""
    coo = coo.normalize()
    with open(path, "w") as fh:
        fh.write("# extended frostt: `rank nnz` header, extents line, 1-based entries\n")
        fh.write(f"{coo.rank} {coo.nnz}\n")
        fh.write(" ".join(str(e) for e in coo.shape) + "\n")
        for coords, value in coo.entries:
            fh.write(" ".join(str(c + 1) for c in coords) + f" {value!r}\n")


def test_write_tensor_bytes_equal_per_entry_writer(tmp_path):
    # Ranks 0-4, empty tensors, duplicates (every entry of a scalar is one),
    # signed zeros, runs that round, the smallest subnormal, and the largest
    # 64-bit coordinate. Every file reads back, rank 0 included.
    rng = random.Random(14)
    special = [0.0, -0.0, 1e16, -1e16, 1.0, 5e-324]
    cases = [CooTensor((2**63,), [((2**63 - 1,), 1.0), ((0,), -0.0)])]
    for case in range(300):
        rank = case % 5
        shape = tuple(rng.randint(1, 6) for _ in range(rank))
        n = 0 if case < 10 else rng.randrange(20)
        values = special + [rng.uniform(-5, 5)]
        cases.append(
            CooTensor(shape, [(tuple(rng.randrange(e) for e in shape), rng.choice(values)) for _ in range(n)])
        )
    got, want = tmp_path / "got.tns", tmp_path / "want.tns"
    for coo in cases:
        write_tensor(coo, str(got))
        _write_per_entry(coo, str(want))
        assert got.read_bytes() == want.read_bytes(), coo
        back = read_tensor(str(got))
        assert back.shape == coo.shape and repr(back.entries) == repr(coo.normalize().entries)


@pytest.mark.parametrize("entries", [[((), 2.5)], [((), -0.0)], []])
def test_scalar_file_reads_back(tmp_path, entries):
    # A scalar's extents line is blank, so the file is told from plain
    # FROSTT by its `0 nnz` header.
    path = tmp_path / "s.tns"
    coo = CooTensor((), entries)
    write_tensor(coo, str(path))
    assert detect_format(str(path)) is FileFormat.EXTENDED_FROSTT
    back = read_tensor(str(path))
    assert back.shape == () and repr(back.entries) == repr(coo.normalize().entries)


def test_extended_header_count_mismatch(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_text("2 3\n4 4\n1 1 1.0\n")
    with pytest.raises((ShapeMismatch, ParseError)):
        read_tensor(str(path), format=FileFormat.EXTENDED_FROSTT)


def test_sparse_literal():
    coo = read_sparse_literal(
        "sparse<10x8>([[0, 0], [0, 7], [1, 2], [4, 2], [5, 3], [6, 4], [6, 6], [9, 7]],"
        " [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])"
    )
    assert coo.shape == (10, 8)
    assert coo.nnz == 8
    assert dict(coo.entries)[(6, 6)] == 7.0


def test_sparse_literal_length_mismatch():
    with pytest.raises(LengthMismatch):
        read_sparse_literal("sparse<4>([[0], [1], [2]], [1.0, 2.0])")


def test_dense_literal():
    t = read_dense_literal("[1.0, 0.0, 2.0]")
    assert t.shape == (3,) and t.data.tolist() == [1.0, 0.0, 2.0]
    m = read_dense_literal("[[1, 2], [3, 4]]")
    assert m.shape == (2, 2) and m.data.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_dense_literal_ragged():
    with pytest.raises(ParseError):
        read_dense_literal("[[1, 2], [3]]")


@pytest.mark.parametrize(
    "value", ['"a"', '"1.5"', "None", "1j", "1" + "0" * 400],
    ids=["str", "numeric str", "None", "complex", "past the float range"],
)
def test_non_real_literal_values_are_parse_errors(value):
    with pytest.raises(ParseError):
        read_dense_literal(f"[{value}, 1]")
    with pytest.raises(ParseError):
        read_sparse_literal(f"sparse<2>([[0], [1]], [{value}, 1])")


@pytest.mark.parametrize(
    "body",
    ["[[0]], 5", "5, [1.0]", "[[0]], {1: 2}", "'ab'", "5"],
    ids=["values int", "coordinates int", "values dict", "string", "no pair"],
)
def test_sparse_literal_parts_that_are_not_lists_are_parse_errors(body):
    with pytest.raises(ParseError):
        read_sparse_literal(f"sparse<2>({body})")
