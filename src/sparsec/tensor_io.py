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
from typing import Optional

import numpy as np

from .errors import LengthMismatch, ParseError, ShapeMismatch, UnsupportedField
from .storage import CooTensor, DenseTensor


class FileFormat(Enum):
    MATRIX_MARKET = "matrix-market"
    FROSTT = "frostt"
    EXTENDED_FROSTT = "extended-frostt"


def detect_format(path: str) -> FileFormat:
    """Pick a format from the extension, falling back to the header.

    `.mtx` (or a `%%MatrixMarket` banner) means Matrix Market. For the
    FROSTT family the extended variant is recognized by its `rank nnz`
    header: two integers whose rank matches the following extents line and
    whose nnz matches the number of entry lines.
    """
    with open(path) as fh:
        return _detect(path, fh.read())[0]


def _detect(path: str, text: str):
    """`detect_format` of a file's `text`, and for the FROSTT family its
    numbered data lines, which the reader then parses (None for Matrix
    Market)."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".mtx" or text.lstrip().startswith("%%MatrixMarket"):
        return FileFormat.MATRIX_MARKET, None
    data = _numbered_data_lines(text)
    if _looks_extended(_extended_data_lines(data)):
        return FileFormat.EXTENDED_FROSTT, data
    return FileFormat.FROSTT, data


def _is_comment(line: str) -> bool:
    return line.lstrip().startswith(("#", "%"))


def _looks_extended(data_lines) -> bool:
    if len(data_lines) < 2:
        return False
    head = data_lines[0][1].split()
    if len(head) != 2:
        return False
    try:
        rank, nnz = int(head[0]), int(head[1])
    except ValueError:
        return False
    extents = data_lines[1][1].split()
    if len(extents) != rank or not all(tok.isdigit() for tok in extents):
        return False
    return len(data_lines) == 2 + nnz


def read_tensor(src: str, format: Optional[FileFormat] = None) -> CooTensor:
    """Materialize a CooTensor from a file path. The file is read once:
    without a format, it is detected from the same text."""
    with open(src) as fh:
        text = fh.read()
    data = None
    if format is None:
        format, data = _detect(src, text)
    if format is FileFormat.MATRIX_MARKET:
        return _read_matrix_market(text)
    if data is None:
        data = _numbered_data_lines(text)
    if format is FileFormat.EXTENDED_FROSTT:
        return _read_extended_frostt(data)
    return _read_plain_frostt(data)


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
    pattern = fieldkind == "pattern"

    rows = cols = nnz = None
    file_entries = 0
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        toks = line.split()
        if rows is None:
            if len(toks) != 3:
                raise ParseError(f"size line needs 3 tokens, got {len(toks)}", line=lineno)
            try:
                rows, cols, nnz = (int(t) for t in toks)
            except ValueError as e:
                raise ParseError(f"bad size line: {e}", line=lineno)
            continue
        want = 2 if pattern else 3
        if len(toks) != want:
            raise ParseError(f"entry needs {want} tokens, got {len(toks)}", line=lineno)
        try:
            i, j = int(toks[0]) - 1, int(toks[1]) - 1
            v = 1.0 if pattern else float(toks[2])
        except ValueError as e:
            raise ParseError(f"bad entry: {e}", line=lineno)
        file_entries += 1
        entries.append(((i, j), v))
        if symmetry == "symmetric" and i != j:
            entries.append(((j, i), v))
    if rows is None:
        raise ParseError("missing size line")
    if nnz != file_entries:
        raise ShapeMismatch(f"size line declares {nnz} entries, file has {file_entries}")
    coo = CooTensor((rows, cols), entries)
    coo.check_bounds()
    return coo


def _parse_entry_lines(data_lines, rank) -> list:
    entries = []
    for lineno, line in data_lines:
        toks = line.split()
        if len(toks) != rank + 1:
            raise ParseError(f"entry needs {rank + 1} tokens, got {len(toks)}", line=lineno)
        try:
            coords = tuple(int(t) - 1 for t in toks[:rank])
            value = float(toks[rank])
        except ValueError as e:
            raise ParseError(f"bad entry: {e}", line=lineno)
        if any(c < 0 for c in coords):
            raise ParseError("coordinates are 1-based and must be positive", line=lineno)
        entries.append((coords, value))
    return entries


def _numbered_data_lines(text: str):
    return [
        (n, ln.strip())
        for n, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not _is_comment(ln)
    ]


def _extended_data_lines(data):
    """`data` (numbered data lines), with the extents line of a `0 nnz`
    header put back: a rank-0 tensor has no extents, so that line is blank,
    and blank lines are not data lines."""
    if data and data[0][1].split()[:1] == ["0"]:
        return [data[0], (data[0][0] + 1, "")] + data[1:]
    return data


def _read_plain_frostt(data) -> CooTensor:
    if not data:
        raise ParseError("empty tensor file")
    rank = len(data[0][1].split()) - 1
    if rank < 1:
        raise ParseError("entry lines need at least one coordinate", line=data[0][0])
    entries = _parse_entry_lines(data, rank)
    shape = tuple(max(c[d] for c, _ in entries) + 1 for d in range(rank))
    return CooTensor(shape, entries)


def _read_extended_frostt(data) -> CooTensor:
    data = _extended_data_lines(data)
    if len(data) < 2:
        raise ParseError("extended file needs a header and an extents line")
    head_no, head = data[0]
    toks = head.split()
    if len(toks) != 2:
        raise ParseError("header must be `rank nnz`", line=head_no)
    try:
        rank, nnz = int(toks[0]), int(toks[1])
    except ValueError as e:
        raise ParseError(f"bad header: {e}", line=head_no)
    ext_no, ext_line = data[1]
    ext_toks = ext_line.split()
    if len(ext_toks) != rank:
        raise ParseError(f"extents line needs {rank} extents", line=ext_no)
    shape = tuple(int(t) for t in ext_toks)
    if len(data) - 2 != nnz:
        raise ShapeMismatch(f"header declares {nnz} entries, file has {len(data) - 2}")
    entries = _parse_entry_lines(data[2:], rank)
    coo = CooTensor(shape, entries)
    coo.check_bounds()
    return coo


def write_tensor(coo: CooTensor, path: str):
    """Dematerialize to extended FROSTT text; entries in lexicographic order,
    formatted from whole columns."""
    columns, values = coo.normalize().arrays()
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
        # Coordinates pass through unconverted: `check_bounds` rejects 1.5.
        coords = tuple(coords) if isinstance(coords, (list, tuple)) else (coords,)
        if len(coords) != len(shape):
            raise LengthMismatch(f"coordinate {coords} has wrong arity for shape {shape}")
        entries.append((coords, _literal_value(value)))
    coo = CooTensor(shape, entries)
    coo.check_bounds()
    return coo
