"""Lowering: sorted kernel + merge lattices -> explicit imperative loop IR.

The IR is a plain statement tree. A variable's loop is read off its
lattice's points, each lowered once: with no iterator, a counted for-loop;
with one point over one sparse iterator, a loop over its positions; else
one co-iteration, `WhileCoiter`, whose cases are the points in dominance
order, dispatched on which iterators hold the candidate index. The paper
spells that as one while loop per point (`WhileCoiter.loops`), as the text
emitter prints it. A sparse loop loads its own iterators' ranges. Values
are loaded once at the loop depth where their access becomes fully bound,
mirroring the invariant hoisting visible in hand-written sparse kernels,
and the expressions' leaves are the analysis's own `AccessRef`s.

Sparse outputs are built either by direct lexicographic insertion (legal
when the left-hand-side variables lead the loop order in the output's
storage order) or through an expand/scatter/compress workspace over the
output's innermost storage dimension, allocated once per kernel run and
reset sparsely by each compress. When neither fits the loop order, the
output takes the dense store, as a dense output does: each write adds into
its coordinate. The engine runs the workspace and a sparse output's dense
store as one merge of their writes in loop order, rather than fill a
workspace row or a buffer of the output's volume; the two differ only in
that the dense store drops sums exactly zero. In-place updates are
generated for the one pattern that allows them: scaling a compressed
vector by constants.

One recursion lowers the loops for every strategy, and one statement,
`Store`, writes each value into the output. The Program's strategy says
how a store is written (a dense store, an insertion, a scatter into the
workspace or an in-place store) and adds at most one wrap at one loop
depth: the workspace's compress after the loops of its prefix, or, for an
insertion under reductions, an accumulator that sums each coordinate's
value before it is inserted.
"""

import enum
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

from .encoding import COMPRESSED
from .errors import UnsupportedKernel
from .expr import (
    Add,
    Const,
    Expr,
    Kernel,
    Mul,
    Neg,
    Sub,
    accesses,
    analyze_reductions,
    expr_to_text,
    has_access,
)
from .lattice import (
    AccessRef,
    LatticePoint,
    MergeLattice,
    access_display_names,
    build_lattice_for,
    check_order,
)

# ----------------------------------------------------------------------------
# Output strategies


class StrategyKind(enum.Enum):
    DENSE_STORE = "dense-store"
    DIRECT_LEX = "direct-lex"
    EXPAND_COMPRESS = "expand-compress"
    IN_PLACE = "in-place"


@dataclass(frozen=True)
class OutputStrategy:
    kind: StrategyKind
    var: Optional[str] = None  # expansion variable for EXPAND_COMPRESS

    def describe(self) -> str:
        return f"{self.kind.value}({self.var})" if self.var else self.kind.value


def output_storage_vars(kernel: Kernel) -> tuple:
    """LHS variables arranged in the output's storage-level order."""
    enc = kernel.output_type.encoding
    if enc is None:
        return kernel.lhs.indices
    return tuple(kernel.lhs.indices[enc.dim_of_level(l)] for l in range(enc.rank))


def _is_inplace_scale(kernel: Kernel) -> bool:
    # The in-place form is reserved for scaling a compressed vector by
    # constants: the output access is a factor of a pure multiplication
    # chain and the right-hand side's only access.
    out = kernel.output_type
    if kernel.accumulate or out.encoding is None:
        return False
    if out.rank != 1 or out.encoding.levels != (COMPRESSED,):
        return False
    factors = []
    stack = [kernel.rhs]
    while stack:
        node = stack.pop()
        if isinstance(node, Mul):
            stack += [node.lhs, node.rhs]
        else:
            factors.append(node)
    return kernel.lhs in factors and accesses(kernel.rhs) == [kernel.lhs]


def choose_output_strategy(kernel: Kernel, topo_order) -> OutputStrategy:
    """Pick how the output is materialized for a given loop order.

    Dense outputs (scalars included) write straight into a buffer. Sparse
    outputs insert lexicographically when the LHS variables are exactly
    the leading loops in storage order; otherwise the innermost storage
    dimension is handled by a workspace, provided the remaining LHS
    variables still lead. Failing both, the output takes the dense store:
    for a sparse output its writes are merged in loop order, each
    coordinate's summed, not added into a dense buffer.
    """
    if _is_inplace_scale(kernel):
        return OutputStrategy(StrategyKind.IN_PLACE)
    out = kernel.output_type
    if out.encoding is None:
        return OutputStrategy(StrategyKind.DENSE_STORE)
    sv = output_storage_vars(kernel)
    if tuple(topo_order[: len(sv)]) == sv:
        return OutputStrategy(StrategyKind.DIRECT_LEX)
    if tuple(topo_order[: len(sv) - 1]) == sv[:-1]:
        return OutputStrategy(StrategyKind.EXPAND_COMPRESS, sv[-1])
    return OutputStrategy(StrategyKind.DENSE_STORE)


# ----------------------------------------------------------------------------
# IR nodes


@dataclass(frozen=True)
class AccRef:
    """Expression leaf: a scalar accumulator."""

    slot: int


@dataclass(frozen=True)
class LoadVal:
    uid: int


@dataclass(frozen=True)
class ForDense:
    var: str
    extent: int
    body: tuple


@dataclass(frozen=True)
class ForPositions:
    uid: int
    level: int
    var: str
    body: tuple


@dataclass(frozen=True)
class CoiterCase:
    iterators: frozenset  # uids that must hold the candidate
    body: tuple


@dataclass(frozen=True)
class WhileCoiter:
    """One co-iterated variable: its cases are its lattice's points."""

    var: str
    iterators: tuple  # (uid, level) pairs co-iterated by this loop
    has_range: bool
    extent: int
    cases: tuple  # CoiterCase, dominance order

    def loops(self) -> tuple:
        """The while loops the paper spells this statement as, one per case
        in order: each over the case's iterators, keeping the range, with
        every case whose iterators are a subset of them. The first equals
        this statement."""
        return tuple(
            replace(
                self,
                iterators=tuple(it for it in self.iterators if it[0] in case.iterators),
                cases=tuple(c for c in self.cases if c.iterators <= case.iterators),
            )
            for case in self.cases
        )


@dataclass(frozen=True)
class DeclAcc:
    slot: int


@dataclass(frozen=True)
class AccumAcc:
    slot: int
    expr: object


@dataclass(frozen=True)
class Store:
    """Writes a value into the output, as the Program's strategy says."""

    expr: object


@dataclass(frozen=True)
class ExpandWs:
    extent: int


@dataclass(frozen=True)
class CompressWs:
    prefix: tuple  # var names, output storage order, outermost first


@dataclass(frozen=True)
class Program:
    kernel: Kernel
    strategy: OutputStrategy
    topo: tuple
    body: tuple
    # What the interpreter reads of the Program, found while lowering and not
    # part of its value: the tensor each access reads and whether its type is
    # sparse, by uid, and the sink targets that several statements write (a
    # co-iteration's cases), "out" for the stores and a slot for an
    # accumulator's adds.
    bindings: tuple = field(repr=False, compare=False)
    merged: frozenset = field(repr=False, compare=False)
    # How the interpreter finds each access's flat position: (uid, upto) ->
    # `engine._position_steps`' recipe, filled on first use, so a Program
    # run many times derives each recipe once. Not part of its value; a
    # recipe depends on the Program alone, so runs that race fill in the
    # same one.
    positions: dict = field(default_factory=dict, init=False, repr=False, compare=False)


# ----------------------------------------------------------------------------
# Lowering


class _Lowerer:
    """Lowers a kernel for every output strategy through one recursion
    (`emit`), whose leaf is always `Store`. The strategy fixes only the
    depth of its one wrap, if it has one (`wrap_depth`)."""

    def __init__(self, kernel: Kernel, topo, lattices=None):
        an = kernel.analysis
        self.kernel = kernel
        self.topo = tuple(topo)
        depth_of = {v: i for i, v in enumerate(self.topo)}
        self.extents = an.var_extents
        self.tensors = kernel.tensors
        self.rhs, self.accesses = an.indexed_rhs, an.accesses
        # depth -> the uids fully bound at that loop depth (-1: before any
        # loop), in uid order; each access's depth is found once, here
        self.bound_at = {d: [] for d in range(-1, len(self.topo))}
        for a in self.accesses:
            self.bound_at[max((depth_of[v] for v in a.indices), default=-1)].append(a.uid)
        # (id(expr), var) -> that expression's lattice for var, built on first
        # use. Every expression lowered is self.rhs or a point of a lattice
        # held here, so no id is reused while the lowering runs.
        self.lattices = {(id(self.rhs), v): lat for v, lat in (lattices or {}).items()}
        self.strategy = choose_output_strategy(kernel, self.topo)
        self.acc_count = 0
        self.merged: set = set()  # the sink targets that several statements write
        free = len(kernel.lhs.indices)  # the output's loops lead the order
        self.wrap_depth = None  # the loop depth of the strategy's one wrap
        if self.strategy.kind is StrategyKind.EXPAND_COMPRESS:
            self.wrap_depth = free - 1
        elif self.strategy.kind is StrategyKind.DIRECT_LEX and an.reduction_vars:
            self.wrap_depth = free

    # -- helpers

    def _iter_level(self, access: AccessRef, var: str) -> int:
        enc = self.tensors[access.tensor].encoding
        return enc.level_of_dim(access.indices.index(var))

    def _hoist_loads(self, depth: int, point: LatticePoint) -> list:
        # An access bound at this depth reads the loop's variable, so it is
        # a leaf of the point's expression exactly when the point merges it
        # or reads it by random access.
        leaves = {a.uid for a in accesses(point.expr)}
        return [LoadVal(uid) for uid in self.bound_at[depth] if uid in leaves]

    # -- main recursion

    def emit(self, depth: int, expr: Expr, sink) -> list:
        """The statements that compute `expr` over the loops from `depth`
        on, each value written by `sink`, a function from an expression
        to one statement. At the wrap depth the loops below run inside
        the strategy's wrap."""
        if depth != self.wrap_depth:
            return self._descend(depth, expr, sink)
        if self.strategy.kind is StrategyKind.EXPAND_COMPRESS:
            return self._descend(depth, expr, sink) + [CompressWs(self.topo[:depth])]
        slot = self.acc_count
        self.acc_count += 1
        inner = self._descend(depth, expr, partial(AccumAcc, slot))
        return [DeclAcc(slot), *inner, sink(AccRef(slot))]

    def _descend(self, depth: int, expr: Expr, sink) -> list:
        if depth == len(self.topo):
            return [sink(expr)]
        return [self._emit_var(depth, expr, sink)]

    def _emit_var(self, depth: int, expr: Expr, sink):
        """The loop over the variable at `depth`, its kind read off its
        lattice's points, each lowered once into a case."""
        var = self.topo[depth]
        lat = self._lattice(expr, var)
        cases = []
        for point in lat.points:
            body = self._hoist_loads(depth, point) + self.emit(depth + 1, point.expr, sink)
            cases.append(CoiterCase(point.iterators, tuple(body)))
        first = cases[0]
        if not first.iterators:
            return ForDense(var, lat.extent, first.body)
        its = tuple(
            (uid, self._iter_level(self.accesses[uid], var)) for uid in sorted(first.iterators)
        )
        if len(cases) == 1 and len(its) == 1:
            return ForPositions(*its[0], var, first.body)
        if len(cases) > 1:
            # Every case writes `sink`'s target, the output or the
            # accumulator whose adds these loops lower, at least once.
            self.merged.add("out" if sink is Store else sink.args[0])
        return WhileCoiter(var, its, lat.range_driven, lat.extent, tuple(cases))

    def _lattice(self, expr: Expr, var: str) -> MergeLattice:
        lat = self.lattices.get((id(expr), var))
        if lat is None:
            lat = build_lattice_for(expr, var, self.tensors, self.extents[var])
            self.lattices[id(expr), var] = lat
        return lat

    def lower(self) -> Program:
        prologue = [LoadVal(uid) for uid in self.bound_at[-1]]
        if self.strategy.kind is StrategyKind.EXPAND_COMPRESS:
            prologue.append(ExpandWs(self.extents[self.strategy.var]))
        body = self.emit(0, self.rhs, Store)
        return Program(
            self.kernel, self.strategy, self.topo, tuple(prologue + body),
            tuple([(a.tensor, self.tensors[a.tensor].is_sparse) for a in self.accesses]),
            frozenset(self.merged),
        )


def reject_unsupported_output(kernel: Kernel):
    """Refuse expressions that are dense along a compressed output level.

    Adding (or subtracting) a subexpression with no tensor access at all,
    a bare constant being the common case, makes every output coordinate
    nonzero; storing that into a compressed format is almost certainly a
    mistake, so it is diagnosed instead of silently densified. The check
    ignores additions that sit under a multiplication with an access on
    the other side, since that access masks the result sparse again.
    """
    out = kernel.output_type
    if out.encoding is None or COMPRESSED not in out.encoding.levels:
        return
    if not has_access(kernel.rhs):
        raise UnsupportedKernel(
            "right-hand side has no tensor access; the compressed output "
            f"{kernel.lhs.tensor!r} would be fully dense"
        )

    def check(node, masked):
        if isinstance(node, (Add, Sub)):
            if not masked:
                for side in (node.lhs, node.rhs):
                    if not has_access(side):
                        raise UnsupportedKernel(
                            f"adding the access-free term '{expr_to_text(side)}' makes "
                            f"the compressed output {kernel.lhs.tensor!r} fully dense; "
                            "use a dense output or fold the term into a multiplication"
                        )
            check(node.lhs, masked)
            check(node.rhs, masked)
        elif isinstance(node, Mul):
            check(node.lhs, masked or has_access(node.rhs))
            check(node.rhs, masked or has_access(node.lhs))
        elif isinstance(node, Neg):
            check(node.operand, masked)

    check(kernel.rhs, False)


def lower(kernel: Kernel, topo_order, lattices=None) -> Program:
    """Lower a kernel to a loop IR Program, analysing it first if need be.

    `topo_order` must be a topological order of the kernel's iteration
    graph that lists each index variable once (`lattice.check_order`),
    else OrderConflict is raised. `lattices` optionally maps variables to
    the right-hand side's merge lattices (`lattice.build_lattice`); every
    other lattice the loops need is built when the lowering first reaches
    it, once per subexpression and variable.
    """
    if kernel.analysis is None:
        kernel = analyze_reductions(kernel)
    topo_order = tuple(topo_order)
    check_order(kernel, topo_order)
    reject_unsupported_output(kernel)
    return _Lowerer(kernel, topo_order, lattices).lower()


# ----------------------------------------------------------------------------
# Text emission


class _Emitter:
    """Prints a Program. Accumulators are named `acc0`, `acc1`, ... in print
    order, as MLIR's printer numbers values, so a case body printed in
    several of a co-iteration's loops declares a new one in each."""

    def __init__(self, program: Program):
        self.p = program
        self.names = access_display_names(program.kernel.analysis.accesses)
        self.accs: dict = {}  # slot -> the name its latest declaration printed
        self.acc_count = 0  # the accumulators printed so far
        self.lines: list = []

    def name(self, uid: int) -> str:
        return self.names[uid]

    def pos(self, uid: int, level: int) -> str:
        return f"p_{self.name(uid)}{level}"

    def idx(self, uid: int, level: int) -> str:
        return f"{self.name(uid)}.index[{level}][{self.pos(uid, level)}]"

    def out(self, line: str, depth: int):
        self.lines.append("  " * depth + line)

    def expr(self, node) -> str:
        if isinstance(node, AccessRef):
            return f"{self.name(node.uid)}_val"
        if isinstance(node, AccRef):
            return self.accs[node.slot]
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Neg):
            operand = self.expr(node.operand)
            return f"-({operand})" if isinstance(node.operand, (Add, Sub)) else f"-{operand}"
        op = {"Add": " + ", "Sub": " - ", "Mul": " * "}[type(node).__name__]
        lhs, rhs = node.lhs, node.rhs
        lt = self.expr(lhs)
        rt = self.expr(rhs)
        if isinstance(node, Mul):
            if isinstance(lhs, (Add, Sub)):
                lt = f"({lt})"
            if isinstance(rhs, (Add, Sub)):
                rt = f"({rt})"
        elif isinstance(rhs, (Add, Sub)):
            rt = f"({rt})"
        return f"{lt}{op}{rt}"

    def emit(self) -> str:
        p = self.p
        k = p.kernel
        op = "+=" if k.accumulate else "="
        self.out(f"// kernel: {expr_to_text(k.lhs)} {op} {expr_to_text(k.rhs)}", 0)
        self.out(f"// loop order: {', '.join(p.topo) if p.topo else '(none)'}", 0)
        self.out(f"// output: {k.lhs.tensor} via {p.strategy.describe()}", 0)
        self.block(p.body, 0)
        return "\n".join(self.lines) + "\n"

    def block(self, stmts, depth: int):
        for s in stmts:
            self.stmt(s, depth)

    def stmt(self, s, depth: int):
        name = type(s).__name__
        getattr(self, f"_{name}")(s, depth)

    def _LoadVal(self, s, depth):
        n = self.name(s.uid)
        self.out(f"{n}_val = load {n}", depth)

    def _ForDense(self, s, depth):
        self.out(f"for {s.var} in [0, {s.extent}):", depth)
        self.block(s.body, depth + 1)

    def load_range(self, uid: int, level: int, depth: int):
        n = self.name(uid)
        self.out(f"{n}{level}_lo, {n}{level}_hi = load-range {n} level {level}", depth)

    def _ForPositions(self, s, depth):
        n, l = self.name(s.uid), s.level
        p = self.pos(s.uid, l)
        self.load_range(s.uid, l, depth)
        self.out(f"for {p} in [{n}{l}_lo, {n}{l}_hi):", depth)
        self.out(f"{s.var} = {n}.index[{l}][{p}]", depth + 1)
        self.block(s.body, depth + 1)

    def _WhileCoiter(self, s, depth):
        for uid, level in s.iterators:
            self.load_range(uid, level, depth)
        if s.has_range:
            self.out(f"{s.var} = 0", depth)
        for loop in s.loops():
            self.loop(loop, depth)

    def loop(self, s, depth):
        conds = [f"{self.pos(u, l)} < {self.name(u)}{l}_hi" for u, l in s.iterators]
        if s.has_range:
            conds.append(f"{s.var} < {s.extent}")
        self.out(f"while {' and '.join(conds)}:", depth)
        inner = depth + 1
        if not s.has_range:
            coords = ", ".join(self.idx(u, l) for u, l in s.iterators)
            if len(s.iterators) > 1:
                self.out(f"{s.var} = min({coords})", inner)
            else:
                self.out(f"{s.var} = {coords}", inner)
        level_of = dict(s.iterators)
        first = True
        for case in s.cases:
            guards = [
                f"{self.idx(u, level_of[u])} == {s.var}" for u in sorted(case.iterators)
            ]
            if guards:
                kw = "if" if first else "elif"
                self.out(f"{kw} {' and '.join(guards)}:", inner)
                self.block(case.body, inner + 1)
                first = False
            else:
                if first:
                    self.block(case.body, inner)
                else:
                    self.out("else:", inner)
                    self.block(case.body, inner + 1)
        for u, l in s.iterators:
            self.out(
                f"advance {self.pos(u, l)} if {self.idx(u, l)} == {s.var}", inner
            )
        if s.has_range:
            self.out(f"advance {s.var}", inner)

    def _DeclAcc(self, s, depth):
        self.accs[s.slot] = f"acc{self.acc_count}"
        self.acc_count += 1
        self.out(f"{self.accs[s.slot]} = 0.0", depth)

    def _AccumAcc(self, s, depth):
        self.out(f"{self.accs[s.slot]} += {self.expr(s.expr)}", depth)

    def _Store(self, s, depth):
        out, strategy = self.p.kernel.lhs, self.p.strategy
        value = self.expr(s.expr)
        coords = ", ".join(out.indices)
        if strategy.kind is StrategyKind.DENSE_STORE:
            target = f"{out.tensor}[{coords}]" if coords else out.tensor
            self.out(f"{target} += {value}", depth)
        elif strategy.kind is StrategyKind.DIRECT_LEX:
            self.out(f"insert {out.tensor}({coords}) = {value}", depth)
        elif strategy.kind is StrategyKind.EXPAND_COMPRESS:
            self.out(f"if not filled[{strategy.var}]: mark {strategy.var} added", depth)
            self.out(f"workspace[{strategy.var}] += {value}", depth)
        else:
            # In place: at the position of the output's one access, the
            # right-hand side's only access (uid 0), at its one level.
            self.out(f"store {self.name(0)}.value[{self.pos(0, 0)}] = {value}", depth)

    def _ExpandWs(self, s, depth):
        self.out(f"workspace = expand({s.extent})", depth)

    def _CompressWs(self, s, depth):
        out = self.p.kernel.lhs.tensor
        at = ", ".join(s.prefix)
        self.out(f"compress workspace into {out} at ({at})", depth)


def emit_text(program: Program) -> str:
    """Deterministic, indentation-structured rendering of the loop IR."""
    return _Emitter(program).emit()
