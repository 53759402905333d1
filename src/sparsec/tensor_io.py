"""Tensor file readers and writers.

Three text formats are understood:

* Matrix Market coordinate files (`.mtx`): `coordinate` x {real, integer,
  pattern} x {general, symmetric}. Everything else (array, complex,
  skew-symmetric, hermitian) is rejected up front.
* Plain FROSTT (`.tns`): one `i1 ... id value` line per entry, 1-based,
  no size header; the shape is inferred as the per-dimension maximum.
* Extended FROSTT: same entry lines preceded by a `rank nnz` header line
  and a line of extents, so readers can pre-allocate. This is the only
  format we write.

Values are written as their shortest round-trippable decimal.
"""

import ast
import os
import re
from enum import Enum
from numbers import Real

import numpy as np

from .errors import LengthMismatch, ParseError, ShapeMismatch, UnsupportedField
from .storage import CooTensor, DenseTensor


class FileFormat(Enum):
    MATRIX_MARKET = "matrix-market"
    FROSTT = "frostt"
    EXTENDED_FROSTT = "extended-frostt"


def _read_text(path: str) -> str:
    """The whole text of the file at `path`, read as UTF-8 past a leading
    byte-order mark; a ParseError naming the path and the byte offset where
    it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        bad = f"byte {e.object[e.start]:#04x} at offset {e.start}"
        raise ParseError(f"{path} is not UTF-8 text: {bad}") from None


def detect_format(path: str) -> FileFormat:
    """Pick a format from the extension, falling back to the header.

    `.mtx` (or a `%%MatrixMarket` banner) means Matrix Market. For the
    FROSTT family the extended variant is recognized by its `rank nnz`
    header: two integers whose rank matches the following extents line and
    whose nnz matches the number of entry lines.
    """
    return _detect(path, _read_text(path))[0]


def _detect(path: str, text: str):
    """`detect_format` of a file's `text`; for the FROSTT family also its
    numbered data lines, and for an extended file its shape and entry lines
    (`_extended_header`), which the reader then parses (None where they do
    not apply)."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".mtx" or text.lstrip().startswith("%%MatrixMarket"):
        return FileFormat.MATRIX_MARKET, None, None
    data = _numbered_data_lines(text.splitlines())
    header = _extended_header(data)
    if header is None:
        return FileFormat.FROSTT, data, None
    return FileFormat.EXTENDED_FROSTT, data, header


def _extended_header(data):
    """The shape and the entry lines of an extended FROSTT file whose
    numbered data lines are `data`, or None unless they open with a
    `rank nnz` header of two integers and a line of `rank` extents, and
    `nnz` entry lines follow. A rank-0 tensor has no extents, so its
    extents line is blank, and blank lines are not data lines."""
    if data and data[0][1].split()[:1] == ["0"]:
        data = [data[0], (data[0][0] + 1, "")] + data[1:]
    if len(data) < 2:
        return None
    head, extents = data[0][1].split(), data[1][1].split()
    if len(head) != 2 or not all(tok.isdigit() for tok in extents):
        return None
    try:
        rank, nnz = int(head[0]), int(head[1])
        shape = tuple(int(tok) for tok in extents)
    except ValueError:  # not integers, or more digits than `int` reads
        return None
    if len(shape) != rank or len(data) != 2 + nnz:
        return None
    return shape, data[2:]


def read_tensor(src: str) -> CooTensor:
    """Materialize a CooTensor from a file path, in the format
    `detect_format` finds. The file is read once, and an extended FROSTT
    header is parsed once, by the detection. Every coordinate is checked
    against the shape as the CooTensor is made."""
    text = _read_text(src)
    format, data, header = _detect(src, text)
    if format is FileFormat.MATRIX_MARKET:
        return _read_matrix_market(text)
    if format is FileFormat.FROSTT:
        return _read_plain_frostt(data)
    shape, lines = header
    return CooTensor(shape, _parse_entry_lines(lines, len(shape)))


_MM_FIELDS = {"real", "integer", "pattern"}
_MM_SYMMETRIES = {"general", "symmetric"}


def _read_matrix_market(text: str) -> CooTensor:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket banner", line=1)
    banner = lines[0].split()
    if len(banner) != 5:
        raise ParseError(f"banner needs 5 tokens, got {len(banner)}", line=1)
    _, obj, fmt, fieldkind, symmetry = (tok.lower() for tok in banner)
    if obj != "matrix":
        raise UnsupportedField(f"unsupported object {obj!r}")
    if fmt != "coordinate":
        raise ParseError(f"unsupported format {fmt!r} (only coordinate)", line=1)
    if fieldkind not in _MM_FIELDS:
        raise UnsupportedField(f"unsupported field {fieldkind!r}")
    if symmetry not in _MM_SYMMETRIES:
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)

    # Only `%` lines, the banner among them, are comments.
    data = _numbered_data_lines(lines, "%")
    if not data:
        raise ParseError("missing size line")
    size_no, size = data[0]
    toks = size.split()
    if len(toks) != 3:
        raise ParseError(f"size line needs 3 tokens, got {len(toks)}", line=size_no)
    try:
        rows, cols, nnz = (int(t) for t in toks)
    except ValueError as e:
        raise ParseError(f"bad size line: {e}", line=size_no)
    entries = _parse_entry_lines(data[1:], 2, pattern=fieldkind == "pattern")
    if nnz != len(entries):
        raise ShapeMismatch(f"size line declares {nnz} entries, file has {len(entries)}")
    if symmetry == "symmetric":
        # An entry off the diagonal stands for its mirror too, which
        # follows it.
        mirrored = []
        for entry in entries:
            mirrored.append(entry)
            (i, j), v = entry
            if i != j:
                mirrored.append(((j, i), v))
        entries = mirrored
    return CooTensor((rows, cols), entries)


def _parse_entry_lines(data_lines, rank, pattern=False) -> list:
    """The (coordinates, value) pairs of numbered entry lines, each `rank`
    1-based coordinates and a value, or with `pattern` no value (1.0)."""
    width = rank if pattern else rank + 1
    entries = []
    for lineno, line in data_lines:
        toks = line.split()
        if len(toks) != width:
            raise ParseError(f"entry needs {width} tokens, got {len(toks)}", line=lineno)
        try:
            coords = tuple(int(t) - 1 for t in toks[:rank])
            value = 1.0 if pattern else float(toks[rank])
        except ValueError as e:
            raise ParseError(f"bad entry: {e}", line=lineno)
        if any(c < 0 for c in coords):
            raise ParseError("coordinates are 1-based and must be positive", line=lineno)
        entries.append((coords, value))
    return entries


def _numbered_data_lines(lines, comments=("#", "%")):
    """The (1-based number, stripped text) of each of `lines` that is not
    blank and does not start with a `comments` mark."""
    return [
        (n, ln.strip())
        for n, ln in enumerate(lines, start=1)
        if ln.strip() and not ln.lstrip().startswith(comments)
    ]


def _read_plain_frostt(data) -> CooTensor:
    if not data:
        raise ParseError("empty tensor file")
    rank = len(data[0][1].split()) - 1
    if rank < 1:
        raise ParseError("entry lines need at least one coordinate", line=data[0][0])
    entries = _parse_entry_lines(data, rank)
    shape = tuple(max(c[d] for c, _ in entries) + 1 for d in range(rank))
    return CooTensor(shape, entries)


def write_tensor(coo: CooTensor, path: str):
    """Dematerialize to extended FROSTT text; entries in lexicographic order,
    formatted from whole columns."""
    columns, values = coo.to_coo(drop_zeros=False).arrays()
    # uint64, so that a coordinate of 2**63 - 1 does not wrap when made 1-based.
    columns = [(c.astype(np.uint64) + 1).tolist() for c in columns]
    line = " ".join(["{}"] * coo.rank) + " {!r}\n"
    with open(path, "w") as fh:
        fh.write("# extended frostt: `rank nnz` header, extents line, 1-based entries\n")
        fh.write(f"{coo.rank} {len(values)}\n")
        fh.write(" ".join(str(e) for e in coo.shape) + "\n")
        fh.writelines(map(line.format, *columns, values.tolist()))


_SPARSE_LITERAL = re.compile(r"^\s*sparse\s*<([0-9x\s]+)>\s*\((.*)\)\s*$", re.DOTALL)


def _literal_value(value) -> float:
    """A literal's value as a float; ParseError unless it is a real number
    in the float range."""
    try:
        if isinstance(value, Real):
            return float(value)
    except OverflowError:
        pass
    raise ParseError(f"literal value {value!r} is not a real number in the float range")


def read_dense_literal(text: str) -> DenseTensor:
    """Parse a nested-list literal like `[[1.0, 0.0], [2.0, 3.0]]`."""
    try:
        nested = ast.literal_eval(text.strip())
    except (ValueError, SyntaxError) as e:
        raise ParseError(f"bad dense literal: {e}")
    shape, flat = [], []
    probe = nested
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        probe = probe[0] if probe else 0

    def walk(node, depth):
        if depth == len(shape):
            if isinstance(node, (list, tuple)):
                raise ParseError("ragged dense literal")
            flat.append(_literal_value(node))
            return
        if not isinstance(node, (list, tuple)) or len(node) != shape[depth]:
            raise ParseError("ragged dense literal")
        for item in node:
            walk(item, depth + 1)

    walk(nested, 0)
    return DenseTensor(tuple(shape), flat)


def read_sparse_literal(text: str) -> CooTensor:
    """Parse `sparse<RxC>([[coords], ...], [values, ...])` without ever
    materializing the enveloping dense tensor."""
    m = _SPARSE_LITERAL.match(text)
    if not m:
        raise ParseError("sparse literal must look like sparse<10x8>([[...]], [...])")
    try:
        shape = tuple(int(tok) for tok in m.group(1).split("x"))
    except ValueError:  # an empty or blank-split extent: `4x`, `x`, `4 4`
        raise ParseError(f"bad sparse literal shape {m.group(1)!r}") from None
    try:
        coords_list, values_list = ast.literal_eval("(" + m.group(2) + ")")
    except (ValueError, SyntaxError, TypeError) as e:
        raise ParseError(f"bad sparse literal body: {e}")
    for part, what in ((coords_list, "coordinates"), (values_list, "values")):
        if not isinstance(part, (list, tuple)):
            raise ParseError(f"sparse literal {what} must be a list, got {part!r}")
    if len(coords_list) != len(values_list):
        raise LengthMismatch(
            f"{len(coords_list)} coordinate tuples but {len(values_list)} values"
        )
    entries = []
    for coords, value in zip(coords_list, values_list):
        # Coordinates pass through unconverted: `CooTensor` rejects 1.5.
        coords = tuple(coords) if isinstance(coords, (list, tuple)) else (coords,)
        if len(coords) != len(shape):
            raise LengthMismatch(f"coordinate {coords} has wrong arity for shape {shape}")
        entries.append((coords, _literal_value(value)))
    return CooTensor(shape, entries)
