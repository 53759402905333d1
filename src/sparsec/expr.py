"""Kernel DSL: parsing, validation, reduction analysis, and splitting.

A kernel file declares tensors, then states one assignment in index
notation:

    tensor A(3, 4) format(dense, compressed)
    tensor B(3, 4) format(dense, compressed) order(1, 0) ptr(32) idx(32)
    tensor C(3, 4)
    C(i, j) = A(i, j) + B(i, j)

Tensors without a `format` clause are dense. The assignment operator may
be `=`, `+=` (accumulate into the existing output), or `*=` (sugar for
multiplying the output access into the right-hand side). Index variables
are declared by use; a variable appearing only on the left-hand side is an
error. Variables absent from the left-hand side are reduction (summation)
variables, summed over the smallest subexpression that captures all their
uses, which `split_for_whole_expr_reduction` normalizes away by
materializing temporaries.
"""

import math
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from .encoding import COMPRESSED, DENSE, LevelType, TensorType, make_encoding
from .errors import (
    KernelSyntaxError,
    RankMismatch,
    ShapeMismatch,
    UndeclaredIndexVar,
    UnknownTensor,
)

# ----------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Access:
    tensor: str
    indices: tuple


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Access, Const, Neg, Add, Sub, Mul]


def children(node: Expr) -> tuple:
    if isinstance(node, (Add, Sub, Mul)):
        return (node.lhs, node.rhs)
    if isinstance(node, Neg):
        return (node.operand,)
    return ()


def with_children(node: Expr, kids: tuple) -> Expr:
    if isinstance(node, (Add, Sub, Mul)):
        return type(node)(kids[0], kids[1])
    if isinstance(node, Neg):
        return Neg(kids[0])
    return node


def walk(node: Expr, path: tuple = ()):
    """Yield (path, node) pairs in depth-first, left-to-right order."""
    yield path, node
    for i, kid in enumerate(children(node)):
        yield from walk(kid, path + (i,))


def node_at(node: Expr, path: tuple) -> Expr:
    for i in path:
        node = children(node)[i]
    return node


def replace_at(node: Expr, path: tuple, new: Expr) -> Expr:
    if not path:
        return new
    kids = list(children(node))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return with_children(node, tuple(kids))


def vars_used(node: Expr) -> set:
    out = set()
    for _, n in walk(node):
        if isinstance(n, Access):
            out.update(n.indices)
    return out


def has_access(node: Expr) -> bool:
    return any(isinstance(n, Access) for _, n in walk(node))


# ----------------------------------------------------------------------------
# Kernel


@dataclass(frozen=True)
class KernelAnalysis:
    """Results of analyze_reductions, attached to the kernel."""

    free_vars: tuple
    reduction_vars: tuple
    var_extents: dict
    captures: dict  # reduction var -> path of its capture node
    node_reductions: dict  # path -> vars reduced exactly at that node
    broadcasts: dict  # access path -> vars the operand is broadcast along


@dataclass(frozen=True)
class Kernel:
    """One parsed assignment plus the tensor declarations it refers to."""

    lhs: Access
    rhs: Expr
    tensors: dict
    accumulate: bool = False
    analysis: Optional[KernelAnalysis] = field(default=None, compare=False)

    @property
    def index_vars(self) -> tuple:
        """All index variables in order of first appearance, LHS first."""
        seen = dict.fromkeys(self.lhs.indices)
        for _, node in walk(self.rhs):
            if isinstance(node, Access):
                seen.update(dict.fromkeys(node.indices))
        return tuple(seen)

    @property
    def output_type(self) -> TensorType:
        return self.tensors[self.lhs.tensor]


# ----------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>\+=|\*=|[()=+\-*,])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"tensor", "format", "order", "ptr", "idx"}


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise KernelSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "newline":
            tokens.append(_Token("newline", tok, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(_Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise KernelSyntaxError(message, tok.line, tok.col)

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {tok.text or tok.kind!r}")
        return self.next()

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()

    # ---- declarations

    def parse_file(self) -> Kernel:
        tensors: Dict[str, TensorType] = {}
        self.skip_newlines()
        while self.peek().kind == "name" and self.peek().text == "tensor":
            self.parse_declaration(tensors)
            self.skip_newlines()
        kernel = self.parse_assignment(tensors)
        self.skip_newlines()
        if self.peek().kind != "eof":
            self.fail("expected end of file after the assignment")
        return kernel

    def parse_declaration(self, tensors: dict):
        self.expect("name", "tensor")
        name_tok = self.expect("name")
        name = name_tok.text
        if name in _KEYWORDS:
            self.fail(f"{name!r} is a reserved word", name_tok)
        if name in tensors:
            self.fail(f"tensor {name!r} declared twice", name_tok)
        self.expect("op", "(")
        shape = []
        while self.peek().kind == "number":
            shape.append(int(self.next().text))
            if self.peek().text == ",":
                self.next()
        self.expect("op", ")")
        levels = ordering = ptr_w = idx_w = None
        while self.peek().kind == "name" and self.peek().text in (
            "format",
            "order",
            "ptr",
            "idx",
        ):
            clause = self.next().text
            self.expect("op", "(")
            if clause == "format":
                levels = []
                while True:
                    tok = self.expect("name")
                    if tok.text == "dense":
                        levels.append(DENSE)
                    elif tok.text == "compressed":
                        levels.append(COMPRESSED)
                    else:
                        self.fail(f"level type must be dense or compressed, got {tok.text!r}", tok)
                    if self.peek().text == ",":
                        self.next()
                    else:
                        break
            elif clause == "order":
                ordering = []
                while self.peek().kind == "number":
                    ordering.append(int(self.next().text))
                    if self.peek().text == ",":
                        self.next()
            elif clause == "ptr":
                ptr_w = int(self.expect("number").text)
            else:
                idx_w = int(self.expect("number").text)
            self.expect("op", ")")
        if levels is None and (ordering is not None or ptr_w is not None or idx_w is not None):
            self.fail(f"tensor {name!r} has format clauses but no format(...)", name_tok)
        encoding = None
        if levels is not None:
            encoding = make_encoding(levels, ordering, ptr_w, idx_w)
        tensors[name] = TensorType(tuple(shape), encoding)
        if self.peek().kind not in ("newline", "eof"):
            self.fail("declarations end at the line break")

    # ---- assignment and expressions

    def parse_assignment(self, tensors: dict) -> Kernel:
        lhs = self.parse_access(tensors)
        op_tok = self.peek()
        if op_tok.text not in ("=", "+=", "*="):
            self.fail("expected '=', '+=' or '*='")
        self.next()
        rhs = self.parse_expr(tensors)
        if self.peek().kind not in ("newline", "eof"):
            self.fail(f"unexpected {self.peek().text!r} after expression")
        if op_tok.text == "*=":
            rhs = Mul(lhs, rhs)
        kernel = Kernel(lhs, rhs, dict(tensors), accumulate=(op_tok.text == "+="))
        _validate(kernel)
        return kernel

    def parse_expr(self, tensors: dict) -> Expr:
        node = self.parse_term(tensors)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_term(tensors)
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self, tensors: dict) -> Expr:
        node = self.parse_unary(tensors)
        while self.peek().text == "*":
            self.next()
            node = Mul(node, self.parse_unary(tensors))
        return node

    def parse_unary(self, tensors: dict) -> Expr:
        if self.peek().text == "-":
            self.next()
            return Neg(self.parse_unary(tensors))
        return self.parse_atom(tensors)

    def parse_atom(self, tensors: dict) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            value = float(tok.text)
            if not math.isfinite(value):
                # No result is format-invariant: a dense operand visits its
                # zeros (0 * inf = nan) where a compressed one skips them.
                self.fail(f"numeric literal {tok.text} is not finite", tok)
            return Const(value)
        if tok.text == "(":
            self.next()
            node = self.parse_expr(tensors)
            self.expect("op", ")")
            return node
        if tok.kind == "name":
            return self.parse_access(tensors)
        self.fail(f"expected a tensor access, number, or '(', found {tok.text or tok.kind!r}")

    def parse_access(self, tensors: dict) -> Access:
        name_tok = self.expect("name")
        name = name_tok.text
        if name in _KEYWORDS:
            self.fail(f"{name!r} is a reserved word", name_tok)
        if name not in tensors:
            raise UnknownTensor(f"tensor {name!r} used before declaration")
        self.expect("op", "(")
        indices = []
        while self.peek().kind == "name":
            indices.append(self.next().text)
            if self.peek().text == ",":
                self.next()
        self.expect("op", ")")
        if len(set(indices)) != len(indices):
            self.fail(f"access {name}({', '.join(indices)}) repeats an index variable", name_tok)
        if len(indices) != tensors[name].rank:
            raise RankMismatch(
                f"tensor {name!r} has rank {tensors[name].rank}, accessed with "
                f"{len(indices)} indices"
            )
        return Access(name, tuple(indices))


def _validate(kernel: Kernel):
    rhs_vars = vars_used(kernel.rhs)
    for v in kernel.lhs.indices:
        if v not in rhs_vars:
            raise UndeclaredIndexVar(
                f"index variable {v!r} appears only on the left-hand side"
            )


def parse_kernel(text: str) -> Kernel:
    """Parse a kernel file into a validated Kernel."""
    return _Parser(text).parse_file()


# ----------------------------------------------------------------------------
# Printer (canonical DSL text; parse(print(k)) reproduces the AST)


def expr_to_text(node: Expr, parent_prec: int = 0) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Access):
        return f"{node.tensor}({', '.join(node.indices)})"
    if isinstance(node, Neg):
        inner = expr_to_text(node.operand, 3)
        return f"-{inner}"
    prec = 1 if isinstance(node, (Add, Sub)) else 2
    op = {"Add": " + ", "Sub": " - ", "Mul": " * "}[type(node).__name__]
    # The right operand needs parens at equal precedence to keep left
    # associativity explicit: a - (b - c) must not round-trip as a - b - c.
    text = expr_to_text(node.lhs, prec) + op + expr_to_text(node.rhs, prec + 1)
    if prec < parent_prec:
        text = f"({text})"
    return text


def kernel_to_text(kernel: Kernel) -> str:
    lines = []
    for name, ttype in kernel.tensors.items():
        decl = f"tensor {name}({', '.join(str(e) for e in ttype.shape)})"
        enc = ttype.encoding
        if enc is not None:
            decl += " " + enc.describe()
        lines.append(decl)
    op = "+=" if kernel.accumulate else "="
    lines.append(f"{expr_to_text(kernel.lhs)} {op} {expr_to_text(kernel.rhs)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# Analysis


def analyze_reductions(kernel: Kernel) -> Kernel:
    """Classify index variables and locate reduction scopes.

    Free variables appear on the left-hand side; all others are summed over
    the smallest subexpression capturing every one of their uses (the
    deepest common ancestor of the accesses that mention them).
    """
    free = kernel.lhs.indices
    order = kernel.index_vars
    reductions = tuple(v for v in order if v not in free)

    extents: Dict[str, int] = {}
    for _, node in walk(kernel.rhs):
        if isinstance(node, Access):
            _merge_extents(extents, node, kernel.tensors)
    _merge_extents(extents, kernel.lhs, kernel.tensors)

    use_paths: Dict[str, List[tuple]] = {v: [] for v in reductions}
    for path, node in walk(kernel.rhs):
        if isinstance(node, Access):
            for v in node.indices:
                if v in use_paths:
                    use_paths[v].append(path)

    captures = {}
    node_reductions: Dict[tuple, list] = {}
    for v in reductions:
        paths = use_paths[v]
        prefix = paths[0]
        for p in paths[1:]:
            prefix = _common_prefix(prefix, p)
        captures[v] = prefix
        node_reductions.setdefault(prefix, []).append(v)
    node_reductions = {p: tuple(vs) for p, vs in node_reductions.items()}

    broadcasts = {}
    for path, node in walk(kernel.rhs):
        if isinstance(node, Access):
            along = tuple(
                v
                for v in order
                if v not in node.indices
                and (v in free or _is_proper_prefix(captures[v], path))
            )
            broadcasts[path] = along

    analysis = KernelAnalysis(
        free_vars=free,
        reduction_vars=reductions,
        var_extents=extents,
        captures=captures,
        node_reductions=node_reductions,
        broadcasts=broadcasts,
    )
    return replace(kernel, analysis=analysis)


def _merge_extents(extents: dict, access: Access, tensors: dict):
    shape = tensors[access.tensor].shape
    for v, e in zip(access.indices, shape):
        if v in extents and extents[v] != e:
            raise ShapeMismatch(
                f"index variable {v!r} spans extents {extents[v]} and {e} "
                f"(at tensor {access.tensor!r})"
            )
        extents[v] = e


def _common_prefix(a: tuple, b: tuple) -> tuple:
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


def _is_proper_prefix(prefix: tuple, path: tuple) -> bool:
    return len(prefix) < len(path) and path[: len(prefix)] == prefix


# ----------------------------------------------------------------------------
# Expression splitting


def level_type_for(expr: Expr, var: str, tensors: dict) -> LevelType:
    """Sparsity estimate of `expr` along `var`.

    Multiplication preserves zeros from either operand, so one compressed
    source dimension keeps the result dimension compressed; addition only
    preserves zeros common to both, so it needs both sources compressed.
    Operands that do not mention the variable broadcast densely along it.
    """
    if isinstance(expr, Access):
        if var not in expr.indices:
            return DENSE
        enc = tensors[expr.tensor].encoding
        if enc is None:
            return DENSE
        return enc.levels[enc.level_of_dim(expr.indices.index(var))]
    if isinstance(expr, Const):
        return DENSE
    if isinstance(expr, Neg):
        return level_type_for(expr.operand, var, tensors)
    left = level_type_for(expr.lhs, var, tensors)
    right = level_type_for(expr.rhs, var, tensors)
    if isinstance(expr, Mul):
        return COMPRESSED if COMPRESSED in (left, right) else DENSE
    return COMPRESSED if (left, right) == (COMPRESSED, COMPRESSED) else DENSE


def _fresh_temp_name(tensors: dict) -> str:
    n = 0
    while f"_t{n}" in tensors:
        n += 1
    return f"_t{n}"


def split_for_whole_expr_reduction(kernel: Kernel) -> list:
    """Rewrite so every kernel's reductions span its whole right-hand side.

    Whenever a reduction variable's capture node is a proper subtree, that
    subtree becomes a temporary kernel (with a sparsity-estimated format)
    and the original expression refers to the temporary instead. Returns
    the kernels in execution order; kernels already in whole-expression
    form pass through unchanged.
    """
    if kernel.analysis is None:
        kernel = analyze_reductions(kernel)
    an = kernel.analysis
    split_var = next((v for v in an.reduction_vars if an.captures[v] != ()), None)
    if split_var is None:
        return [kernel]

    path = an.captures[split_var]
    subtree = node_at(kernel.rhs, path)
    inner = {v for v in an.reduction_vars if _within(an.captures[v], path)}
    order = kernel.index_vars
    sub_vars = vars_used(subtree)
    temp_vars = tuple(v for v in order if v in sub_vars and v not in inner)

    name = _fresh_temp_name(kernel.tensors)
    levels = tuple(level_type_for(subtree, v, kernel.tensors) for v in temp_vars)
    shape = tuple(an.var_extents[v] for v in temp_vars)
    if COMPRESSED in levels:
        ttype = TensorType(shape, make_encoding(levels))
    else:
        ttype = TensorType(shape)

    tensors = dict(kernel.tensors)
    tensors[name] = ttype
    temp_kernel = Kernel(Access(name, temp_vars), subtree, tensors)
    remainder = Kernel(
        kernel.lhs,
        replace_at(kernel.rhs, path, Access(name, temp_vars)),
        tensors,
        accumulate=kernel.accumulate,
    )
    return split_for_whole_expr_reduction(
        analyze_reductions(temp_kernel)
    ) + split_for_whole_expr_reduction(analyze_reductions(remainder))


def _within(capture_path: tuple, subtree_path: tuple) -> bool:
    return capture_path[: len(subtree_path)] == subtree_path
