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

import itertools
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from .encoding import COMPRESSED, DENSE, Encoding, LevelType, TensorType, make_encoding
from .errors import (
    KernelSyntaxError,
    NestingTooDeep,
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


def depth(node: Expr) -> int:
    """The nodes on the longest path from `node` down to a leaf, counted
    without recursion, so that a tree too deep to walk recursively can
    still be measured."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((kid, level + 1) for kid in children(node))
    return deepest


@contextmanager
def nesting_guard(kernel: "Kernel", walker: str = "the compiler"):
    """Run the recursive walks of `kernel`'s expression in the `with`
    body: a RecursionError there becomes NestingTooDeep, naming the
    expression's depth and `walker`, what walks it."""
    try:
        yield
    except RecursionError:
        raise NestingTooDeep(
            f"kernel expression nests {depth(kernel.rhs)} levels deep, past what "
            f"{walker} can walk within Python's recursion limit of {sys.getrecursionlimit()}"
        ) from None


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


def accesses(node: Expr) -> list:
    """The Access leaves of `node`, depth-first and left to right."""
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Access):
            out.append(node)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif not isinstance(node, Const):
            stack += (node.rhs, node.lhs)
    return out


def vars_used(node: Expr) -> set:
    return {v for access in accesses(node) for v in access.indices}


def has_access(node: Expr) -> bool:
    return bool(accesses(node))


@dataclass(frozen=True)
class AccessRef(Access):
    """An Access leaf tagged with its occurrence id within one kernel.

    Two textually identical accesses are distinct iterators at runtime, so
    lattice points and generated code refer to occurrences, not spellings.
    """

    uid: int = -1


def index_accesses(rhs: Expr) -> tuple:
    """Tag every access leaf of `rhs` with its occurrence id, in one walk.

    Returns the tagged expression, the AccessRef leaves in uid order
    (depth-first, left to right) and each leaf's path from the root.
    """
    refs: List[AccessRef] = []
    paths: List[tuple] = []

    def rewrite(node, path):
        if isinstance(node, Access):
            ref = AccessRef(node.tensor, node.indices, uid=len(refs))
            refs.append(ref)
            paths.append(path)
            return ref
        if isinstance(node, Neg):
            return Neg(rewrite(node.operand, path + (0,)))
        if isinstance(node, Const):
            return node
        return type(node)(rewrite(node.lhs, path + (0,)), rewrite(node.rhs, path + (1,)))

    return rewrite(rhs, ()), tuple(refs), tuple(paths)


# ----------------------------------------------------------------------------
# Kernel


@dataclass(frozen=True)
class KernelAnalysis:
    """Results of analyze_reductions, attached to the kernel.

    Every field is derived from the kernel's `lhs`, `rhs` and `tensors`, and
    later stages read the right-hand side and its variables from here, not
    from the kernel. A kernel rebuilt with any of those three changed must
    drop its analysis (`replace(kernel, ..., analysis=None)`). Each field
    has a reader in a later stage; the free variables are the kernel's
    `lhs.indices`.
    """

    reduction_vars: tuple
    var_extents: dict
    captures: dict  # reduction var -> path of its capture node
    node_reductions: dict  # path -> vars reduced exactly at that node
    index_vars: tuple  # as Kernel.index_vars
    indexed_rhs: Expr  # the right-hand side with AccessRef leaves
    accesses: tuple  # those AccessRef leaves, uid order
    chains: tuple  # (tensor, vars) pairs, as `_storage_chains` gives them


@dataclass(frozen=True)
class Kernel:
    """One parsed assignment plus the tensor declarations it refers to.

    `analysis` holds `analyze_reductions`' results for this `lhs`, `rhs`
    and `tensors`, or None; it is not compared, so it must be reset to None
    whenever one of them changes.
    """

    lhs: Access
    rhs: Expr
    tensors: dict
    accumulate: bool = False
    analysis: Optional[KernelAnalysis] = field(default=None, compare=False)

    @property
    def index_vars(self) -> tuple:
        """All index variables in order of first appearance, LHS first."""
        if self.analysis is not None:
            return self.analysis.index_vars
        return _index_vars(self.lhs, accesses(self.rhs))

    @property
    def output_type(self) -> TensorType:
        return self.tensors[self.lhs.tensor]


def _index_vars(lhs: Access, rhs_accesses) -> tuple:
    seen = dict.fromkeys(lhs.indices)
    for access in rhs_accesses:
        seen.update(dict.fromkeys(access.indices))
    return tuple(seen)


# ----------------------------------------------------------------------------
# Tokenizer / parser

# A line break, number, name or operator.
_TOKEN = r"""\n
    | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?
    | [A-Za-z_][A-Za-z0-9_]*
    | \+=|\*=|[()=+\-*,]"""
# One token after any blanks and a comment, or the empty end-of-file token.
_TOKEN_RE = re.compile(rf"[ \t]*(?:\#[^\n]*)? ({_TOKEN} | \Z)", re.VERBOSE)
# Blanks, comments and tokens as far as they run: the character this stops
# at, if any, starts no token.
_SCAN_RE = re.compile(rf"(?: [ \t]+ | \#[^\n]* | {_TOKEN} )*", re.VERBOSE)
_KEYWORDS = {"tensor", "format", "order", "ptr", "idx"}


def _tokenize(text: str) -> list:
    """The tokens of `text` as strings, ending in the empty end-of-file
    token (which may repeat): one `findall`, once one match has checked
    that every character belongs to a blank, a comment or a token.

    A token's kind follows from its text: names are identifiers, numbers
    start with a digit or a dot (`_is_number`), and a line break is its
    own token. Positions are not kept; `_Parser.fail` finds one again
    when it is needed.
    """
    end = _SCAN_RE.match(text).end()
    if end < len(text):
        raise KernelSyntaxError(f"unexpected character {text[end]!r}", *_line_col(text, end))
    return _TOKEN_RE.findall(text)


def _is_number(tok: str) -> bool:
    # `\d` matches any Unicode decimal digit, as `str.isdecimal` does.
    return tok[:1].isdecimal() or tok[:1] == "."


def _line_col(text: str, offset: int) -> tuple:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.tok = self.tokens[0]

    def next(self) -> str:
        tok = self.tok
        if tok:  # the end-of-file token is the only empty one; it stays put
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def fail(self, message: str, at: Optional[int] = None):
        """Raise at the token with index `at`, the current one by default.
        Only an error looks for a token's position, by scanning again."""
        index = self.pos if at is None else at
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text), index, None))
        raise KernelSyntaxError(message, *_line_col(self.text, m.start(1)))

    def expect(self, want: str) -> str:
        """Take the current token if it is `want`, or, for "name" and
        "number", a token of that kind."""
        tok = self.tok
        if want == "name":
            ok = tok.isidentifier()
        elif want == "number":
            ok = _is_number(tok)
        else:
            ok = tok == want
        if not ok:
            self.fail(f"expected {want!r}, found {tok or 'eof'!r}")
        self.pos += 1  # a token that matched is not the end of file
        self.tok = self.tokens[self.pos]
        return tok

    def integer(self) -> int:
        """Take the current token as a whole number. A number token with a
        fraction or an exponent, or too many digits for `int`, fails at
        that token."""
        tok = self.expect("number")
        if not tok.isdecimal():
            self.fail(f"expected an integer, found {tok!r}", self.pos - 1)
        try:
            return int(tok)
        except ValueError:  # more digits than `sys.get_int_max_str_digits()`
            self.fail(f"integer of {len(tok)} digits is too long", self.pos - 1)

    def skip_newlines(self):
        while self.tok == "\n":
            self.next()

    # ---- declarations

    def parse_file(self) -> Kernel:
        tensors: Dict[str, TensorType] = {}
        self.skip_newlines()
        while self.tok == "tensor":
            self.parse_declaration(tensors)
            self.skip_newlines()
        kernel = self.parse_assignment(tensors)
        self.skip_newlines()
        if self.tok:
            self.fail("expected end of file after the assignment")
        return kernel

    def parse_declaration(self, tensors: dict):
        self.next()  # "tensor", which parse_file saw
        name_at = self.pos
        name = self.expect("name")
        if name in _KEYWORDS:
            self.fail(f"{name!r} is a reserved word", name_at)
        if name in tensors:
            self.fail(f"tensor {name!r} declared twice", name_at)
        self.expect("(")
        shape = []
        while _is_number(self.tok):
            shape.append(self.integer())
            if self.tok == ",":
                self.next()
        self.expect(")")
        encoding = self.parse_clauses(f"tensor {name!r}", name_at)
        tensors[name] = TensorType(tuple(shape), encoding)
        if self.tok not in ("\n", ""):
            self.fail("declarations end at the line break")

    def parse_clauses(self, owner: str, owner_at: int) -> Optional[Encoding]:
        """The encoding the `format/order/ptr/idx` clauses from the current
        token on spell, in any order, or None if there is no clause. The
        other clauses need a `format(...)`; without one, the error names
        `owner`, what the clauses belong to, at the token with index
        `owner_at`."""
        levels = ordering = ptr_w = idx_w = None
        while self.tok in ("format", "order", "ptr", "idx"):
            clause = self.next()
            self.expect("(")
            if clause == "format":
                levels = []
                while True:
                    level_at = self.pos
                    level = self.expect("name")
                    if level == "dense":
                        levels.append(DENSE)
                    elif level == "compressed":
                        levels.append(COMPRESSED)
                    else:
                        self.fail(f"level type must be dense or compressed, got {level!r}", level_at)
                    if self.tok == ",":
                        self.next()
                    else:
                        break
            elif clause == "order":
                ordering = []
                while _is_number(self.tok):
                    ordering.append(self.integer())
                    if self.tok == ",":
                        self.next()
            elif clause == "ptr":
                ptr_w = self.integer()
            else:
                idx_w = self.integer()
            self.expect(")")
        if levels is None and (ordering is not None or ptr_w is not None or idx_w is not None):
            self.fail(f"{owner} has format clauses but no format(...)", owner_at)
        return None if levels is None else make_encoding(levels, ordering, ptr_w, idx_w)

    # ---- assignment and expressions

    def parse_assignment(self, tensors: dict) -> Kernel:
        lhs = self.parse_access(tensors)
        op = self.tok
        if op not in ("=", "+=", "*="):
            self.fail("expected '=', '+=' or '*='")
        self.next()
        rhs = self.parse_expr(tensors)
        if self.tok not in ("\n", ""):
            self.fail(f"unexpected {self.tok!r} after expression")
        if op == "*=":
            rhs = Mul(lhs, rhs)
        kernel = Kernel(lhs, rhs, dict(tensors), accumulate=(op == "+="))
        _validate(kernel)
        return kernel

    def parse_expr(self, tensors: dict) -> Expr:
        node = self.parse_term(tensors)
        while self.tok in ("+", "-"):
            op = self.next()
            rhs = self.parse_term(tensors)
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self, tensors: dict) -> Expr:
        node = self.parse_unary(tensors)
        while self.tok == "*":
            self.next()
            node = Mul(node, self.parse_unary(tensors))
        return node

    def parse_unary(self, tensors: dict) -> Expr:
        if self.tok == "-":
            self.next()
            return Neg(self.parse_unary(tensors))
        return self.parse_atom(tensors)

    def parse_atom(self, tensors: dict) -> Expr:
        tok = self.tok
        if _is_number(tok):
            value = float(tok)
            if not math.isfinite(value):
                # No result is format-invariant: a dense operand visits its
                # zeros (0 * inf = nan) where a compressed one skips them.
                self.fail(f"numeric literal {tok} is not finite")
            self.next()
            return Const(value)
        if tok == "(":
            self.next()
            node = self.parse_expr(tensors)
            self.expect(")")
            return node
        if tok.isidentifier():
            return self.parse_access(tensors)
        self.fail(f"expected a tensor access, number, or '(', found {tok or 'eof'!r}")

    def parse_access(self, tensors: dict) -> Access:
        name_at = self.pos
        name = self.expect("name")
        if name in _KEYWORDS:
            self.fail(f"{name!r} is a reserved word", name_at)
        if name not in tensors:
            raise UnknownTensor(f"tensor {name!r} used before declaration")
        self.expect("(")
        indices = []
        while self.tok.isidentifier():
            indices.append(self.next())
            if self.tok == ",":
                self.next()
        self.expect(")")
        if len(set(indices)) != len(indices):
            self.fail(f"access {name}({', '.join(indices)}) repeats an index variable", name_at)
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
    """Parse a kernel file into a validated Kernel.

    The parser descends recursively, a few frames per level of
    parentheses or signs; past Python's recursion limit it raises
    NestingTooDeep, not RecursionError.
    """
    try:
        return _Parser(text).parse_file()
    except RecursionError:
        raise NestingTooDeep(
            "kernel expression nests too deeply to parse within Python's "
            f"recursion limit of {sys.getrecursionlimit()}"
        ) from None


def parse_encoding(text: str) -> Encoding:
    """Parse an encoding spelled as a tensor declaration spells it after
    its shape, and nothing else: `format(...)`, and optionally `order(...)`,
    `ptr(...)` and `idx(...)`, as in `format(dense, compressed) order(1, 0)`.
    Bad text raises KernelSyntaxError, and a bad encoding the errors of
    `make_encoding`."""
    parser = _Parser(text)
    encoding = parser.parse_clauses("the encoding", 0)
    if encoding is None:
        parser.fail(f"expected 'format', found {parser.tok or 'eof'!r}")
    if parser.tok:
        parser.fail(f"unexpected {parser.tok!r} after the encoding")
    return encoding


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
    deepest common ancestor of the accesses that mention them). The one
    walk that tags the access occurrences (`index_accesses`) feeds every
    result, and the analysis keeps the tagged right-hand side, its accesses
    and the index variables, so later stages need not walk it again.
    """
    free = kernel.lhs.indices
    rhs, refs, paths = index_accesses(kernel.rhs)
    order = _index_vars(kernel.lhs, refs)
    reductions = tuple(v for v in order if v not in free)

    extents: Dict[str, int] = {}
    for ref in refs:
        _merge_extents(extents, ref, kernel.tensors)
    _merge_extents(extents, kernel.lhs, kernel.tensors)

    captures = {}
    node_reductions: Dict[tuple, list] = {}
    for v in reductions:
        prefix = None
        for path, ref in zip(paths, refs):
            if v in ref.indices:
                prefix = path if prefix is None else _common_prefix(prefix, path)
        captures[v] = prefix
        node_reductions.setdefault(prefix, []).append(v)
    node_reductions = {p: tuple(vs) for p, vs in node_reductions.items()}

    analysis = KernelAnalysis(
        reduction_vars=reductions,
        var_extents=extents,
        captures=captures,
        node_reductions=node_reductions,
        index_vars=order,
        indexed_rhs=rhs,
        accesses=refs,
        chains=_storage_chains(refs + (kernel.lhs,), kernel.tensors),
    )
    return replace(kernel, analysis=analysis)


def _storage_chains(refs, tensors: dict) -> tuple:
    """For every access in `refs` with a compressed level: its tensor, and
    the variables of its storage levels up to its last compressed one,
    outermost first. The iteration graph's edges and `lower`'s order check
    both read them."""
    chains = []
    for access in refs:
        enc = tensors[access.tensor].encoding
        if enc is None or COMPRESSED not in enc.levels:
            continue
        last = len(enc.levels) - 1 - enc.levels[::-1].index(COMPRESSED)
        chains.append(
            (access.tensor, tuple(access.indices[enc.dim_of_level(l)] for l in range(last + 1)))
        )
    return tuple(chains)


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
