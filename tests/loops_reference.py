"""The reference interpreter: a Program written out as one Python function.

`run_loops` writes a lowered Program, over its concrete bindings, as the
source of one Python function whose loop variables and positions are
locals, and `exec`s it once. That function is the Python form of the IR
that `codegen.emit_text` prints, one element at a time, so the library's
array form (`engine.interpret`) is checked against it bit for bit: both
add in loop order from the same 0.0. A co-iteration is written as the
paper's while loops, one per lattice point (`WhileCoiter.loops`), one
after another, where the array form runs all their candidates at once. A
sparse loop first loads its iterators' ranges, in the loop's iterator
order, as the emitter prints them. Expressions carry only the parentheses
their tree needs, so a long chain of operators compiles.

The IR's one store statement is written as the Program's strategy says
(`_Generator._Store`). A sparse output's entries, inserted directly or
drained from the workspace (`expand`, `Workspace.scatter`, `compress`),
are appended in storage order to two flat arrays, one of coordinates and
one of values, and laid out by the engine's own `_sparse_output`. The
dense store adds into a buffer of the output's whole volume, which starts
from the engine's `_dense_output` seed; for a sparse output the buffer is
then packed (`convert`), the independent reference for the array form's
merge of the same writes. The in-place update writes each stored value of
the output's storage at its position. CPython compiles at most 20
statically nested loops into one function, so a deeper loop nest fails to
compile here; the array form has no such limit.
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from sparsec.codegen import AccRef, Const, Program, StrategyKind
from sparsec.engine import (
    _bound_part,
    _dense_output,
    _position_steps,
    _sparse_output,
    convert,
)
from sparsec.errors import ShapeMismatch
from sparsec.expr import AccessRef, Add, Mul, Neg, Sub
from sparsec.storage import DenseTensor

# ----------------------------------------------------------------------------
# The workspace


@dataclass
class Workspace:
    """Dense scratch row for access-pattern expansion.

    `values` accumulates into arbitrary positions, `filled` marks which
    were touched, and `added` records first touches so compress can reset
    only those entries; the reset work stays proportional to the touches.
    """

    values: list
    filled: list
    added: list

    def scatter(self, index: int, delta: float):
        self.values[index] += delta
        if not self.filled[index]:
            self.filled[index] = True
            self.added.append(index)


def expand(extent: int) -> Workspace:
    """Allocate an all-zero, all-unfilled workspace of the given extent."""
    if extent < 0:
        raise ShapeMismatch(f"workspace extent must be >= 0, got {extent}")
    return Workspace([0.0] * extent, [False] * extent, [])


def compress(ws: Workspace, prefix: tuple, coords, values):
    """Drain the workspace under `prefix`, the storage-order coordinates
    above its level.

    For each touched index in ascending order, `prefix + (index,)` is
    appended to the flat coordinate collector `coords` and the index's sum
    to `values` (an `array("q")` and an `array("d")`, or lists). Then
    exactly the touched values/filled slots are reset, so the workspace is
    immediately reusable.
    """
    added = ws.added
    added.sort()
    ws_values, filled = ws.values, ws.filled
    values.extend([ws_values[idx] for idx in added])
    for idx in added:
        coords.extend(prefix)
        coords.append(idx)
        ws_values[idx] = 0.0
        filled[idx] = False
    added.clear()


# ----------------------------------------------------------------------------
# The generated function


class _Generator:
    """Writes a Program over concrete bindings as the source of one function.

    Loop variables, iterator positions and ends, range counters, hoisted
    values and accumulators are plain locals; the bound arrays become
    globals. Every name is a slot name (`v0` for the first loop variable,
    `q3_1`/`h3_1` for the position and end of access 3 at level 1, `r0`,
    `x3`, `a0`), so no identifier from the kernel text reaches the source.
    """

    def __init__(self, program: Program, env: dict):
        self.p = program
        self.env = env
        self.var = {v: f"v{i}" for i, v in enumerate(program.topo)}
        self.globals = {"expand": expand, "compress": compress}
        self.lists: dict = {}  # (tensor, part, level) -> a bound array as a list
        self.lines = ["def program():"]

    def _array(self, name: str, uid: int, part: str, level: int = 0) -> str:
        """Bind a bound tensor's `pointers`, `indices` or `values` to the
        global `name` as a list, taking one `tolist()` per bound array."""
        key = (self.p.kernel.analysis.accesses[uid].tensor, part, level)
        if key not in self.lists:
            self.lists[key] = _bound_part(self.p, self.env, uid, part, level).tolist()
        self.globals[name] = self.lists[key]
        return name

    def _position(self, uid: int, upto=None) -> str:
        """Flat position of access `uid` after its first `upto` levels."""
        start, steps = _position_steps(self.p, uid, upto)
        src = None if start is None else "q%d_%d" % start[1:]
        for v, extent in steps:
            src = self.var[v] if src is None else f"({src}*{extent}+{self.var[v]})"
        return src or "0"

    def _expr(self, node, parent_prec: int = 0) -> str:
        """`node` as Python source, with the parentheses the tree needs
        alone, by `expr_to_text`'s rule: a binary operator's right operand
        one precedence level higher, a negation's operand at the highest.
        Python parses the same tree, so it adds in the same order, and a
        chain of operators nests no parentheses."""
        if isinstance(node, AccessRef):
            return f"x{node.uid}"
        if isinstance(node, AccRef):
            return f"a{node.slot}"
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Neg):
            return f"-{self._expr(node.operand, 3)}"
        prec = 2 if isinstance(node, Mul) else 1
        op = {Mul: "*", Add: "+", Sub: "-"}[type(node)]
        text = f"{self._expr(node.lhs, prec)} {op} {self._expr(node.rhs, prec + 1)}"
        return f"({text})" if prec < parent_prec else text

    def _tuple(self, variables) -> str:
        names = [self.var[v] for v in variables]
        return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"

    def line(self, depth: int, text: str):
        self.lines.append("    " * (depth + 1) + text)

    def block(self, stmts, depth: int):
        for s in stmts:
            getattr(self, f"_{type(s).__name__}")(s, depth)

    def _LoadVal(self, s, depth):
        name = self._array(f"V{s.uid}", s.uid, "values")
        self.line(depth, f"x{s.uid} = {name}[{self._position(s.uid)}]")

    def _ForDense(self, s, depth):
        self.line(depth, f"for {self.var[s.var]} in range({s.extent}):")
        self.block(s.body, depth + 1)

    def _load_range(self, uid: int, level: int, depth: int):
        """Start `q` and end `h` of access `uid`'s iterator at `level`."""
        it = f"{uid}_{level}"
        ptrs = self._array(f"P{it}", uid, "pointers", level)
        parent = self._position(uid, upto=level)
        self.line(depth, f"q{it} = {ptrs}[{parent}]")
        self.line(depth, f"h{it} = {ptrs}[{parent} + 1]")

    def _ForPositions(self, s, depth):
        it = f"{s.uid}_{s.level}"
        self._load_range(s.uid, s.level, depth)
        idx = self._array(f"I{it}", s.uid, "indices", s.level)
        self.line(depth, f"for q{it} in range(q{it}, h{it}):")
        self.line(depth + 1, f"{self.var[s.var]} = {idx}[q{it}]")
        self.block(s.body, depth + 1)

    def _WhileCoiter(self, s, depth):
        # The paper's loops, one per case, the ranges and the range's
        # counter shared.
        for uid, level in s.iterators:
            self._load_range(uid, level, depth)
        if s.has_range:
            self.line(depth, f"r{self.var[s.var][1:]} = 0")
        for loop in s.loops():
            self._loop(loop, depth)

    def _loop(self, s, depth):
        # Coordinates are named per (uid, level): a nested loop over a
        # deeper level of the same access must not overwrite them.
        its = [f"{uid}_{level}" for uid, level in s.iterators]
        var = self.var[s.var]
        counter = f"r{var[1:]}"
        conds = [f"q{it} < h{it}" for it in its]
        if s.has_range:
            conds.append(f"{counter} < {s.extent}")
        level_of = dict(s.iterators)
        self.line(depth, f"while {' and '.join(conds)}:")
        inner = depth + 1
        for it, (uid, level) in zip(its, s.iterators):
            idx = self._array(f"I{it}", uid, "indices", level)
            self.line(inner, f"c{it} = {idx}[q{it}]")
        if s.has_range:
            self.line(inner, f"{var} = {counter}")
        elif len(its) == 1:
            self.line(inner, f"{var} = c{its[0]}")
        else:
            self.line(inner, f"{var} = min({', '.join(f'c{it}' for it in its)})")
        # Cases in dominance order; the first whose iterators all hold the
        # candidate runs, and a case with no iterators always does.
        keyword = "if"
        for case in s.cases:
            guards = [f"c{uid}_{level_of[uid]} == {var}" for uid in sorted(case.iterators)]
            if guards:
                self.line(inner, f"{keyword} {' and '.join(guards)}:")
                self.block(case.body, inner + 1)
                keyword = "elif"
            elif keyword == "if":
                self.block(case.body, inner)
                break
            else:
                self.line(inner, "else:")
                self.block(case.body, inner + 1)
                break
        for it in its:
            self.line(inner, f"if c{it} == {var}: q{it} += 1")
        if s.has_range:
            self.line(inner, f"{counter} += 1")

    def _DeclAcc(self, s, depth):
        self.line(depth, f"a{s.slot} = 0.0")

    def _AccumAcc(self, s, depth):
        self.line(depth, f"a{s.slot} += {self._expr(s.expr)}")

    def _Store(self, s, depth):
        strategy, value = self.p.strategy, self._expr(s.expr)
        coords = self.p.kernel.lhs.indices
        if strategy.kind is StrategyKind.DENSE_STORE:
            stride, terms = 1, []
            for v, extent in zip(reversed(coords), reversed(self.p.kernel.output_type.shape)):
                terms.append(self.var[v] if stride == 1 else f"{self.var[v]}*{stride}")
                stride *= extent
            offset = " + ".join(reversed(terms)) or "0"
            self.line(depth, f"out[{offset}] += {value}")
        elif strategy.kind is StrategyKind.DIRECT_LEX:
            enc = self.p.kernel.output_type.encoding
            scoords = [coords[enc.dim_of_level(l)] for l in range(len(coords))]
            self.line(depth, f"coords.extend({self._tuple(scoords)})")
            self.line(depth, f"values.append({value})")
        elif strategy.kind is StrategyKind.EXPAND_COMPRESS:
            j = self.var[strategy.var]
            self.line(depth, f"wv[{j}] += {value}")
            self.line(depth, f"if not wf[{j}]:")
            self.line(depth + 1, f"wf[{j}] = True")
            self.line(depth + 1, f"wa.append({j})")
        else:
            # In place: at the position of the output's one access (uid 0).
            self.line(depth, f"out[q0_0] = {value}")

    def _ExpandWs(self, s, depth):
        self.line(depth, f"ws = expand({s.extent})")
        self.line(depth, "wv, wf, wa = ws.values, ws.filled, ws.added")

    def _CompressWs(self, s, depth):
        self.line(depth, f"compress(ws, {self._tuple(s.prefix)}, coords, values)")

    def function(self, **bound):
        """Generate the source, `exec` it once, and return the function."""
        self.block(self.p.body, 0)
        namespace = dict(self.globals, **bound)
        exec("\n".join(self.lines) + "\n", namespace)
        # Popped, so that the function and its globals form no cycle.
        return namespace.pop("program")


def run_loops(program: Program, env: dict):
    """Run a Program as one generated Python function; the result is what
    `engine.interpret` returns for it."""
    kernel = program.kernel
    out_type = kernel.output_type
    strat = program.strategy.kind
    generator = _Generator(program, env)
    if strat is StrategyKind.DENSE_STORE:
        seed = _dense_output(kernel, env)
        out = seed.tolist() if seed is not None else [0.0] * math.prod(out_type.shape)
        generator.function(out=out)()
        return convert(DenseTensor(out_type.shape, out), out_type)
    if strat is StrategyKind.IN_PLACE:
        base = env[kernel.lhs.tensor]
        out = base.value_array.tolist()
        generator.function(out=out)()
        return base.with_values(out)
    coords, values = array("q"), array("d")  # in storage order
    generator.function(coords=coords, values=values)()
    scoords = np.frombuffer(coords, np.int64).reshape(len(values), out_type.rank)
    columns = [scoords[:, out_type.encoding.level_of_dim(d)] for d in range(out_type.rank)]
    return _sparse_output(out_type, columns, np.frombuffer(values))
