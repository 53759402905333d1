import random
import re

import pytest

from sparsec.encoding import COMPRESSED, DENSE
from sparsec.errors import (
    KernelSyntaxError,
    RankMismatch,
    ShapeMismatch,
    UndeclaredIndexVar,
    UnknownTensor,
)
from sparsec.expr import (
    Access,
    Add,
    Const,
    Mul,
    analyze_reductions,
    kernel_to_text,
    parse_kernel,
    split_for_whole_expr_reduction,
    _Parser,
)

SPMSPM = """
tensor A(3, 4) format(dense, compressed)
tensor B(4, 5) format(dense, compressed)
tensor C(3, 5) format(dense, compressed)
C(i, j) = A(i, k) * B(k, j)
"""


def test_parse_spmspm():
    k = parse_kernel(SPMSPM)
    assert set(k.tensors) == {"A", "B", "C"}
    assert k.index_vars == ("i", "j", "k")
    assert k.lhs == Access("C", ("i", "j"))
    assert k.rhs == Mul(Access("A", ("i", "k")), Access("B", ("k", "j")))
    assert k.tensors["A"].encoding.levels == (DENSE, COMPRESSED)


def test_parse_scalar_dot():
    k = parse_kernel(
        "tensor a(16) format(compressed)\ntensor b(16) format(compressed)\n"
        "tensor x()\nx() = a(i) * b(i)\n"
    )
    assert k.lhs.indices == ()
    assert k.index_vars == ("i",)


def test_parse_broadcast():
    k = parse_kernel(
        "tensor A(3, 4)\ntensor B(3)\ntensor C(3, 4)\nC(i, j) = A(i, j) + B(i)\n"
    )
    k = analyze_reductions(k)
    assert k.analysis.reduction_vars == ()


def test_parse_star_equals_sugar():
    k = parse_kernel("tensor x(8) format(compressed)\nx(i) *= 2.0\n")
    assert k.rhs == Mul(Access("x", ("i",)), Const(2.0))
    assert not k.accumulate


def test_parse_plus_equals():
    k = parse_kernel("tensor x()\ntensor a(4)\nx() += a(i)\n")
    assert k.accumulate


def test_unknown_tensor():
    with pytest.raises(UnknownTensor):
        parse_kernel("tensor a(4)\nb(i) = a(i)\n")


def test_access_arity():
    with pytest.raises(RankMismatch):
        parse_kernel("tensor a(4)\ntensor c(4)\nc(i) = a(i, j)\n")


def test_lhs_only_var_rejected():
    with pytest.raises(UndeclaredIndexVar):
        parse_kernel("tensor a(4)\ntensor C(4, 4)\nC(i, j) = a(i)\n")


def test_repeated_access_var_rejected():
    with pytest.raises(KernelSyntaxError):
        parse_kernel("tensor A(4, 4)\ntensor x()\nx() = A(i, i)\n")


def test_syntax_error_position():
    with pytest.raises(KernelSyntaxError) as err:
        parse_kernel("tensor a(4)\ntensor c(4)\nc(i) = a(i) +\n")
    assert err.value.position[0] == 3


def test_extent_conflict():
    k = parse_kernel("tensor a(4)\ntensor b(5)\ntensor x()\nx() = a(i) * b(i)\n")
    with pytest.raises(ShapeMismatch):
        analyze_reductions(k)


def test_reduction_classification():
    k = analyze_reductions(parse_kernel(SPMSPM))
    assert k.analysis.reduction_vars == ("k",)
    assert k.analysis.captures["k"] == ()  # spans the whole RHS


def test_scoped_reduction_capture():
    k = analyze_reductions(
        parse_kernel(
            "tensor A(4, 3)\ntensor B(4, 3)\ntensor C(4)\ntensor D(4)\n"
            "D(i) = A(i, j) + B(i, j) + C(i)\n"
        )
    )
    # RHS is Add(Add(A, B), C); j is captured by the inner Add at path (0,).
    assert k.analysis.captures["j"] == (0,)


def test_split_scoped_sum():
    k = parse_kernel(
        "tensor A(4, 3) format(dense, compressed)\n"
        "tensor B(4, 3) format(dense, compressed)\n"
        "tensor C(4) format(compressed)\ntensor D(4) format(compressed)\n"
        "D(i) = A(i, j) + B(i, j) + C(i)\n"
    )
    pieces = split_for_whole_expr_reduction(analyze_reductions(k))
    assert len(pieces) == 2
    temp = pieces[0]
    assert temp.rhs == Add(Access("A", ("i", "j")), Access("B", ("i", "j")))
    assert temp.lhs.indices == ("i",)
    remainder = pieces[1]
    assert remainder.lhs == Access("D", ("i",))
    assert remainder.rhs == Add(Access(temp.lhs.tensor, ("i",)), Access("C", ("i",)))
    # Every piece now reduces over its whole RHS.
    for piece in pieces:
        assert all(p == () for p in piece.analysis.captures.values())


def test_split_passthrough_for_whole_rhs_reduction():
    k = analyze_reductions(parse_kernel(SPMSPM))
    assert split_for_whole_expr_reduction(k) == [k]


def test_split_temp_encoding_heuristic():
    # Add keeps a dimension compressed only when both operands are; A's i
    # level is dense here, so the temporary is dense along i.
    k = parse_kernel(
        "tensor A(4, 3) format(dense, compressed)\n"
        "tensor B(4, 3) format(compressed, compressed)\n"
        "tensor C(4)\ntensor D(4)\n"
        "D(i) = A(i, j) + B(i, j) + C(i)\n"
    )
    temp = split_for_whole_expr_reduction(analyze_reductions(k))[0]
    assert temp.tensors[temp.lhs.tensor].encoding is None

    # Mul keeps it compressed when either operand is.
    k2 = parse_kernel(
        "tensor A(4, 3) format(dense, compressed)\n"
        "tensor B(4, 3) format(compressed, compressed)\n"
        "tensor C(4)\ntensor D(4)\n"
        "D(i) = A(i, j) * B(i, j) + C(i)\n"
    )
    temp2 = split_for_whole_expr_reduction(analyze_reductions(k2))[0]
    assert temp2.tensors[temp2.lhs.tensor].encoding.levels == (COMPRESSED,)


def test_split_cross_cutting_reduction():
    # k is used inside and outside j's capture subtree: the temporary keeps
    # k free, the remainder reduces it over the whole expression.
    k = parse_kernel(
        "tensor A(4, 3)\ntensor B(3, 5)\ntensor C(4, 5)\ntensor F(4)\n"
        "F(i) = A(i, j) * B(j, k) + C(i, k)\n"
    )
    pieces = split_for_whole_expr_reduction(analyze_reductions(k))
    assert len(pieces) == 2
    assert pieces[0].lhs.indices == ("i", "k")
    assert pieces[0].analysis.reduction_vars == ("j",)
    assert pieces[1].analysis.reduction_vars == ("k",)


def _random_kernel_text(rng):
    shapes = {"a": "(5)", "B": "(5, 3)", "c": "(3)", "D": "(3, 5)"}
    decls = []
    for name, shape in shapes.items():
        fmt = rng.choice(["", " format(compressed)", " format(dense, compressed)"])
        if len(shape.split(",")) != (2 if "," in shape else 1):
            fmt = ""
        if "," in shape and fmt == " format(compressed)":
            fmt = " format(compressed, compressed)"
        if "," not in shape and fmt == " format(dense, compressed)":
            fmt = " format(dense)"
        decls.append(f"tensor {name}{shape}{fmt}")
    decls.append("tensor out(5)")
    exprs = [
        "a(i) + B(i, j) * c(j)",
        "B(i, j) * D(j, i)",
        "a(i) * 2.0 - B(i, j) * c(j)",
        "-a(i) + a(i) * a(i)",
    ]
    return "\n".join(decls) + f"\nout(i) = {rng.choice(exprs)}\n"


def test_parse_print_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        text = _random_kernel_text(rng)
        k = parse_kernel(text)
        printed = kernel_to_text(k)
        assert parse_kernel(printed) == k, printed


def test_printer_parenthesizes_correctly():
    k = parse_kernel("tensor a(4)\ntensor b(4)\ntensor c(4)\nc(i) = a(i) - (b(i) - a(i))\n")
    assert "- (" in kernel_to_text(k)
    assert parse_kernel(kernel_to_text(k)) == k


# Every malformed kernel names its first bad token by line and column: the
# column counts a tab as one character, comments and blank lines count as
# text, and the end-of-file token sits just past the last character.
PARSE_ERRORS = [
    # unexpected characters, on the first line and on a later one
    ("tensor a(4) @\ntensor c(4)\nc(i) = a(i)\n", "1:13: unexpected character '@'"),
    ("tensor a(4)\ntensor c(4)\nc(i) = a(i) $ 2.0\n", "3:13: unexpected character '$'"),
    ("tensor a(4)\ntensor c(4)\nc(i) = a(i) \u00e9\n", "3:13: unexpected character '\u00e9'"),
    ("tensor a(4)\r\ntensor c(4)\r\nc(i) = a(i)\r\n", "1:12: unexpected character '\\r'"),
    # tabs and comments before the bad token
    (
        "tensor a(4)\t# the input\n\t# indented comment\ntensor c(4)\t\nc(i) =\ta(i)\t\t/ 2.0\n",
        "4:14: unexpected character '/'",
    ),
    # a bad token after a comment-only line
    (
        "# header\ntensor a(4)\n# only a comment\n  ?\ntensor c(4)\nc(i) = a(i)\n",
        "4:3: unexpected character '?'",
    ),
    # the end of the file, with and without a trailing newline
    (
        "tensor a(4)\ntensor c(4)\nc(i) = a(i) +\n",
        "3:14: expected a tensor access, number, or '(', found '\\n'",
    ),
    (
        "tensor a(4)\ntensor c(4)\nc(i) = a(i) +",
        "3:14: expected a tensor access, number, or '(', found 'eof'",
    ),
    (
        "tensor a(4)\ntensor c(4)\nc(i) = a(i) *\n\n# trailing comment\n",
        "3:14: expected a tensor access, number, or '(', found '\\n'",
    ),
    ("tensor a(4\n", "1:11: expected ')', found '\\n'"),
    ("", "1:1: expected 'name', found 'eof'"),
    ("# nothing here\n", "2:1: expected 'name', found 'eof'"),
    # reserved words
    ("tensor format(4)\ntensor c(4)\nc(i) = format(i)\n", "1:8: 'format' is a reserved word"),
    ("tensor a(4)\ntensor c(4)\nc(i) = a(i) + idx(i)\n", "3:15: 'idx' is a reserved word"),
    # inside the format clauses
    (
        "tensor A(3, 4) format(dense, sparse)\ntensor C(3, 4)\nC(i, j) = A(i, j)\n",
        "1:30: level type must be dense or compressed, got 'sparse'",
    ),
    (
        "tensor A(3, 4) format(dense compressed)\ntensor C(3, 4)\nC(i, j) = A(i, j)\n",
        "1:29: expected ')', found 'compressed'",
    ),
    (
        "tensor A(3, 4) format(dense, compressed) order(1, 0) ptr(x)\n"
        "tensor C(3, 4)\nC(i, j) = A(i, j)\n",
        "1:58: expected 'number', found 'x'",
    ),
    # numbers that are not integers where an integer is declared
    ("tensor a(1.5)\ntensor c(4)\nc(i) = a(i)\n", "1:10: expected an integer, found '1.5'"),
    ("tensor a(4, 2e1)\ntensor c(4)\nc(i) = a(i)\n", "1:13: expected an integer, found '2e1'"),
    (
        "tensor A(3, 4) format(dense, compressed) order(0.5, 1)\n"
        "tensor C(3, 4)\nC(i, j) = A(i, j)\n",
        "1:48: expected an integer, found '0.5'",
    ),
    (
        "tensor A(3, 4) format(dense, compressed) ptr(1e3)\n"
        "tensor C(3, 4)\nC(i, j) = A(i, j)\n",
        "1:46: expected an integer, found '1e3'",
    ),
    (
        "tensor A(3, 4) format(dense, compressed) idx(.5)\n"
        "tensor C(3, 4)\nC(i, j) = A(i, j)\n",
        "1:46: expected an integer, found '.5'",
    ),
    # declarations and the assignment
    ("tensor a(4)\ntensor a(4)\ntensor c(4)\nc(i) = a(i)\n", "2:8: tensor 'a' declared twice"),
    (
        "tensor a(4) order(0)\ntensor c(4)\nc(i) = a(i)\n",
        "1:8: tensor 'a' has format clauses but no format(...)",
    ),
    ("tensor a(4) tensor c(4)\nc(i) = a(i)\n", "1:13: declarations end at the line break"),
    ("tensor a(4)\ntensor c(4)\nc(i) a(i)\n", "3:6: expected '=', '+=' or '*='"),
    ("tensor a(4)\ntensor c(4)\nc(i) = a(i) a(i)\n", "3:13: unexpected 'a' after expression"),
    (
        "tensor a(4)\ntensor c(4)\nc(i) = a(i)\nc(i) = a(i)\n",
        "4:1: expected end of file after the assignment",
    ),
    ("tensor A(4, 4)\ntensor x()\nx() = A(i, i)\n", "3:7: access A(i, i) repeats an index variable"),
    ("tensor a(4)\ntensor c(4)\nc(i) = a(i) * 1e999\n", "3:15: numeric literal 1e999 is not finite"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_text_and_position(text, message):
    with pytest.raises(KernelSyntaxError) as err:
        parse_kernel(text)
    assert str(err.value) == message
    line, column = (int(part) for part in message.split(":")[:2])
    assert err.value.position == (line, column)


def test_numbers_take_any_unicode_decimal_digit():
    # The tokenizer's `\d` matches every Unicode decimal digit, and the
    # parser reads such a number like its ASCII spelling.
    k = parse_kernel("tensor a(٣)\ntensor c(٣)\nc(i) = a(i) * ٢.5\n")
    assert k == parse_kernel("tensor a(3)\ntensor c(3)\nc(i) = a(i) * 2.5\n")


_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>\+=|\*=|[()=+\-*,])
    """,
    re.VERBOSE,
)


def _reference_tokens(text):
    """A match per token, tracking line and column as it goes: the
    tokenizer's behaviour, spelt out. Returns (text, line, column) triples
    ending at the end of file, or raises as the parser must."""
    tokens, line, col, pos = [], 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise KernelSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((m.group(), line, col))
        if m.lastgroup == "newline":
            line, col = line + 1, 1
        else:
            col += len(m.group())
        pos = m.end()
    return tokens + [("", line, col)]


def test_tokens_and_their_positions_match_a_token_by_token_scan():
    rng = random.Random(2024)
    pieces = list(" \t\n#@.,()=+-*eE019aijT_\ré") + ["tensor", "+=", "*=", "1.5e3", "# c\n"]
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
        try:
            want = _reference_tokens(text)
        except KernelSyntaxError as err:
            with pytest.raises(KernelSyntaxError) as got:
                _Parser(text)
            assert (str(got.value), got.value.position) == (str(err), err.position), repr(text)
            continue
        parser = _Parser(text)
        assert parser.tokens[: len(want)] == [tok for tok, _, _ in want], repr(text)
        assert not any(parser.tokens[len(want) :]), repr(text)
        for at, (_, line, col) in enumerate(want):
            with pytest.raises(KernelSyntaxError) as got:
                parser.fail("here", at)
            assert got.value.position == (line, col), (repr(text), at)
