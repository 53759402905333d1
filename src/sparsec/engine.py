"""Execution: run loop IR over packed storage, end to end.

`run_kernel` is the library entry point. `compile_kernel` normalizes the
kernel (accumulating sparse outputs are rewritten to read the previous
output; scoped reductions are split into temporaries), orders the loops
and lowers each piece to an IR Program; `execute` coerces the inputs and
interprets the Programs. Each piece is analysed once, and the analysis
carries its tagged accesses to every later stage; `lower` builds each
merge lattice only when its loops reach it.

The interpreter runs a Program in one of two forms:

- Every Program runs as whole-array numpy passes that walk the IR
  directly. Each loop nest is flattened into a frame of rows, one per
  iteration in loop order; loads are gathers, except where a position
  loop's rows have consecutive ranges: their positions are then one run,
  whose indices and values are read as slices. A co-iteration loop
  (`WhileCoiter`) is a merge of its iterators' sorted indices up to the
  point where the first of them runs out, and each candidate runs the
  first case, in dominance order, whose iterators all hold it. The sinks
  are `np.add.at` and a stable sort and merge for the workspace, applied
  in the loops' order across cases and sibling loops; scattered keys
  already in order are merged without a permutation. It generates no
  source.
- A Program whose frame would pass `_MAX_FRAME_ROWS` rows is written
  instead, over the concrete bindings, as the source of one Python
  function whose loop variables and positions are locals, and `exec`ed
  once. That function is the Python form of the IR that
  `codegen.emit_text` prints, so results stay auditable against the
  emitted text. A sparse output's entries, inserted directly or drained
  from the workspace (`compress`), are appended in storage order to two
  flat arrays, one of coordinates and one of values. CPython compiles at
  most 20 nested loops into one function, so this form raises
  UnsupportedKernel for a deeper loop nest.

Either form hands a sparse output's entries to `_sparse_output`, which
checks that they strictly increase in storage order and lays them out
with `pack`'s level build (`_build_levels`). Both forms add in loop order
from the same 0.0, so they give the same result bit for bit. A dense
output past `_MAX_DENSE_ELEMENTS` elements, or a sparse one whose dense
levels would pass it, raises DenseOutputTooLarge in either form before it
is allocated.

Both forms take each access's layout from its declared type, which
`execute` coerces the binding to, and read the binding's read-only arrays:
the array form as they are, the loops through one `tolist()` of each.
Bindings are never mutated; a dense output starts from a copy of its seed
and the in-place strategy from a copy of the output's values array.
"""

import math
from array import array
from dataclasses import replace
from typing import Optional, Union

import numpy as np

from .codegen import (
    AccRef,
    AccumAcc,
    CompressWs,
    Const,
    DeclAcc,
    ExpandWs,
    ForDense,
    ForPositions,
    InsertLex,
    LoadRange,
    LoadVal,
    Program,
    RangeInit,
    ScatterWs,
    StoreDense,
    StoreInPlace,
    StrategyKind,
    ValRef,
    WhileCoiter,
    lower,
)
from .encoding import COMPRESSED, Encoding, TensorType
from .errors import (
    OutOfOrderInsertion,
    ShapeMismatch,
    UnknownTensor,
    UnsupportedKernel,
)
from .expr import (
    Access,
    Add,
    Kernel,
    Mul,
    Neg,
    Sub,
    analyze_reductions,
    split_for_whole_expr_reduction,
)
from .lattice import build_iteration_graph, topo_sort
from .storage import (
    CooTensor,
    DenseTensor,
    SparseStorage,
    _build_levels,
    _check_budget,
    _check_leading_dense,
    _merge_runs,
    _read_only,
    _row_key,
    _sort_rows,
    compress,
    expand,
    pack,
)

TensorValue = Union[SparseStorage, DenseTensor, CooTensor]


# ----------------------------------------------------------------------------
# Conversion


def convert(value: TensorValue, to_type: Union[TensorType, Encoding, None]) -> TensorValue:
    """Re-materialize a tensor of any class in another format.

    A sparse target packs the value's entries (`pack`), a dense target
    scatters them (`to_dense`); both read the whole arrays of
    `value.arrays()`: every entry of a CooTensor, every stored entry of a
    SparseStorage (explicit zeros too), the nonzeros of a DenseTensor.
    `to_type` may be a TensorType, a bare Encoding, or None for dense.
    """
    if isinstance(to_type, Encoding):
        to_type = TensorType(value.shape, to_type)
    elif to_type is None:
        to_type = TensorType(value.shape)
    if value.shape != to_type.shape:
        raise ShapeMismatch(f"cannot convert shape {value.shape} to {to_type.shape}")
    if to_type.is_sparse:
        return pack(value, to_type.encoding)
    return value.to_dense()


# ----------------------------------------------------------------------------
# Interpreter

# CPython compiles at most 20 statically nested loops into one function.
_MAX_LOOP_DEPTH = 20
# The most rows one frame of the array form may hold; a Program that would
# pass it runs on the loops instead, which hold only the output.
_MAX_FRAME_ROWS = 1 << 22


def _binding(program: Program, env: dict, uid: int):
    ref = program.accesses[uid]
    try:
        return env[ref.tensor]
    except KeyError:
        raise UnknownTensor(f"no binding for tensor {ref.tensor!r}")


def _bound_part(program: Program, env: dict, uid: int, part: str, level: int = 0):
    """The read-only `pointers`, `indices` or `values` array of access
    `uid`'s binding: a storage's own, or a dense tensor's data."""
    value = _binding(program, env, uid)
    if not program.kernel.tensors[program.accesses[uid].tensor].is_sparse:
        return value.data
    if part == "values":
        return value.value_array
    return value.level_arrays(level)[part == "indices"]


def _position_steps(program: Program, uid: int, upto: Optional[int]):
    """How the flat position of access `uid` after its first `upto` levels
    (all when None) is found, from its declared type: the last compressed
    level among them, whose position it starts from (None: from 0), and
    the (variable, extent) steps of the dense levels after it."""
    ref = program.accesses[uid]
    ttype = program.kernel.tensors[ref.tensor]
    if not ttype.is_sparse:
        return None, list(zip(ref.indices, ttype.shape))
    # Positions at a compressed level are absolute, so the walk only needs
    # the dense levels after the last compressed one.
    enc = ttype.encoding
    sshape = ttype.storage_shape()
    start, steps = None, []
    for level in range(ttype.rank if upto is None else upto):
        if enc.levels[level] is COMPRESSED:
            start, steps = level, []
        else:
            steps.append((ref.indices[enc.dim_of_level(level)], sshape[level]))
    return start, steps


def _check_dense_volume(name: str, shape: tuple):
    """Raise DenseOutputTooLarge, before anything is allocated, for a dense
    output buffer past `_MAX_DENSE_ELEMENTS` elements."""
    _check_budget(math.prod(shape), f"dense output {name!r} of shape {shape}")


def _dense_output(kernel: Kernel, env: dict):
    """The seed of a dense output buffer, after `_check_dense_volume`: the
    previous output's data when the kernel accumulates into a bound one,
    else None for all zeros."""
    _check_dense_volume(kernel.lhs.tensor, kernel.output_type.shape)
    seed = env.get(kernel.lhs.tensor) if kernel.accumulate else None
    return None if seed is None else seed.data


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
        self.loops = 0

    def _array(self, name: str, uid: int, part: str, level: int = 0) -> str:
        """Bind a bound tensor's `pointers`, `indices` or `values` to the
        global `name` as a list, taking one `tolist()` per bound array."""
        key = (self.p.accesses[uid].tensor, part, level)
        if key not in self.lists:
            self.lists[key] = _bound_part(self.p, self.env, uid, part, level).tolist()
        self.globals[name] = self.lists[key]
        return name

    def _position(self, uid: int, upto: Optional[int] = None) -> str:
        """Flat position of access `uid` after its first `upto` levels."""
        start, steps = _position_steps(self.p, uid, upto)
        src = None if start is None else f"q{uid}_{start}"
        for v, extent in steps:
            src = self.var[v] if src is None else f"({src}*{extent}+{self.var[v]})"
        return src or "0"

    def _expr(self, node) -> str:
        if isinstance(node, ValRef):
            return f"x{node.uid}"
        if isinstance(node, AccRef):
            return f"a{node.slot}"
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Neg):
            return f"(-{self._expr(node.operand)})"
        op = {Mul: "*", Add: "+", Sub: "-"}[type(node)]
        return f"({self._expr(node.lhs)} {op} {self._expr(node.rhs)})"

    def _tuple(self, variables) -> str:
        names = [self.var[v] for v in variables]
        return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"

    def line(self, depth: int, text: str):
        self.lines.append("    " * (depth + 1) + text)

    def loop(self, depth: int, header: str, body):
        """Emit a loop header, then `body()` one level deeper."""
        self.loops += 1
        if self.loops > _MAX_LOOP_DEPTH:
            raise UnsupportedKernel(
                f"kernel needs more than {_MAX_LOOP_DEPTH} nested loops, the most "
                "one generated Python function can hold"
            )
        self.line(depth, header)
        body()
        self.loops -= 1

    def block(self, stmts, depth: int):
        for s in stmts:
            getattr(self, f"_{type(s).__name__}")(s, depth)

    def _LoadRange(self, s: LoadRange, depth):
        it = f"{s.uid}_{s.level}"
        ptrs = self._array(f"P{it}", s.uid, "pointers", s.level)
        parent = self._position(s.uid, upto=s.level)
        self.line(depth, f"q{it} = {ptrs}[{parent}]")
        self.line(depth, f"h{it} = {ptrs}[{parent} + 1]")

    def _LoadVal(self, s: LoadVal, depth):
        name = self._array(f"V{s.uid}", s.uid, "values")
        self.line(depth, f"x{s.uid} = {name}[{self._position(s.uid)}]")

    def _ForDense(self, s: ForDense, depth):
        header = f"for {self.var[s.var]} in range({s.extent}):"
        self.loop(depth, header, lambda: self.block(s.body, depth + 1))

    def _ForPositions(self, s: ForPositions, depth):
        it = f"{s.uid}_{s.level}"
        idx = self._array(f"I{it}", s.uid, "indices", s.level)

        def body():
            self.line(depth + 1, f"{self.var[s.var]} = {idx}[q{it}]")
            self.block(s.body, depth + 1)

        self.loop(depth, f"for q{it} in range(q{it}, h{it}):", body)

    def _RangeInit(self, s: RangeInit, depth):
        self.line(depth, f"r{self.var[s.var][1:]} = 0")

    def _WhileCoiter(self, s: WhileCoiter, depth):
        # Coordinates are named per (uid, level): a nested loop over a
        # deeper level of the same access must not overwrite them.
        its = [f"{uid}_{level}" for uid, level in s.iterators]
        var = self.var[s.var]
        counter = f"r{var[1:]}"
        conds = [f"q{it} < h{it}" for it in its]
        if s.has_range:
            conds.append(f"{counter} < {s.extent}")
        level_of = dict(s.iterators)

        def body():
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
            # Cases in dominance order; the first whose iterators all hold
            # the candidate runs, and a case with no iterators always does.
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

        self.loop(depth, f"while {' and '.join(conds)}:", body)

    def _DeclAcc(self, s: DeclAcc, depth):
        self.line(depth, f"a{s.slot} = 0.0")

    def _AccumAcc(self, s: AccumAcc, depth):
        self.line(depth, f"a{s.slot} += {self._expr(s.expr)}")

    def _StoreDense(self, s: StoreDense, depth):
        stride, terms = 1, []
        for v, extent in zip(reversed(s.coords), reversed(self.p.kernel.output_type.shape)):
            terms.append(self.var[v] if stride == 1 else f"{self.var[v]}*{stride}")
            stride *= extent
        offset = " + ".join(reversed(terms)) or "0"
        self.line(depth, f"out[{offset}] += {self._expr(s.expr)}")

    def _InsertLex(self, s: InsertLex, depth):
        enc = self.p.kernel.output_type.encoding
        scoords = [s.coords[enc.dim_of_level(l)] for l in range(len(s.coords))]
        self.line(depth, f"coords.extend({self._tuple(scoords)})")
        self.line(depth, f"values.append({self._expr(s.expr)})")

    def _ExpandWs(self, s: ExpandWs, depth):
        self.line(depth, f"ws = expand({s.extent})")
        self.line(depth, "wv, wf, wa = ws.values, ws.filled, ws.added")

    def _ScatterWs(self, s: ScatterWs, depth):
        j = self.var[s.var]
        self.line(depth, f"wv[{j}] += {self._expr(s.expr)}")
        self.line(depth, f"if not wf[{j}]:")
        self.line(depth + 1, f"wf[{j}] = True")
        self.line(depth + 1, f"wa.append({j})")

    def _CompressWs(self, s: CompressWs, depth):
        self.line(depth, f"compress(ws, {self._tuple(s.prefix)}, coords, values)")

    def _StoreInPlace(self, s: StoreInPlace, depth):
        self.line(depth, f"out[q{s.uid}_{s.level}] = {self._expr(s.expr)}")

    def function(self, **bound):
        """Generate the source, `exec` it once, and return the function."""
        self.block(self.p.body, 0)
        namespace = dict(self.globals, **bound)
        exec("\n".join(self.lines) + "\n", namespace)
        # Popped, so that the function and its globals form no cycle.
        return namespace.pop("program")


def _run_loops(program: Program, env: dict):
    """Run a Program as one generated Python function (any Program)."""
    kernel = program.kernel
    out_type = kernel.output_type
    strat = program.strategy.kind
    generator = _Generator(program, env)
    if strat is StrategyKind.DENSE_STORE:
        seed = _dense_output(kernel, env)
        out = seed.tolist() if seed is not None else [0.0] * math.prod(out_type.shape)
        generator.function(out=out)()
        return DenseTensor(out_type.shape, out)
    if strat is StrategyKind.IN_PLACE:
        base = env[kernel.lhs.tensor]
        out = base.value_array.tolist()
        generator.function(out=out)()
        return base.with_values(out)
    # The loops append every entry before `_build_levels` checks the
    # budget, so a budget the output's dense prefix passes fails first.
    _check_leading_dense(out_type)
    coords, values = array("q"), array("d")  # in storage order
    generator.function(coords=coords, values=values)()
    scoords = np.frombuffer(coords, np.int64).reshape(len(values), out_type.rank)
    dims = [out_type.encoding.dim_of_level(l) for l in range(out_type.rank)]
    return _sparse_output(out_type, scoords[:, np.argsort(dims)], np.frombuffer(values))


def _sparse_output(ttype: TensorType, coords: np.ndarray, values: np.ndarray) -> SparseStorage:
    """The storage of `ttype` holding `values` at `coords`, an (n, rank)
    array of logical coordinates, laid out by `_build_levels` once the rows
    are checked to strictly increase in storage order (OutOfOrderInsertion
    otherwise, duplicates included). Widths are checked by `validate`."""
    columns = [coords[:, ttype.encoding.dim_of_level(l)] for l in range(ttype.rank)]
    extents = ttype.storage_shape()
    if math.prod(extents) < 1 << 63:
        key = _row_key(columns, extents, len(values))
        follows = key[1:] > key[:-1]
    else:
        # Row r + 1 follows row r when it is greater at the first storage
        # level where the two differ.
        follows = np.zeros(max(len(values) - 1, 0), bool)
        for column in reversed(columns):
            follows = (column[1:] > column[:-1]) | ((column[1:] == column[:-1]) & follows)
    if not follows.all():
        r = int(np.argmin(follows))
        raise OutOfOrderInsertion(
            f"insertion at {tuple(coords[r + 1].tolist())} does not follow "
            f"{tuple(coords[r].tolist())} in storage order"
        )
    return _build_levels(ttype, coords, values)


class _TooManyRows(Exception):
    """A frame of the array form would pass `_MAX_FRAME_ROWS`."""


def _check_rows(total: int):
    if total > _MAX_FRAME_ROWS:
        raise _TooManyRows


def _segments(lo, counts):
    """Row r's positions `lo[r]`, `lo[r] + 1`, ... (`counts[r]` of them)
    for every row, laid end to end: the row of each, and the position.
    Raises _TooManyRows past the row budget, before they are allocated."""
    ends = counts.cumsum()
    _check_rows(int(ends[-1]) if len(ends) else 0)
    owner = np.arange(len(counts)).repeat(counts)
    return owner, np.arange(len(owner)) + (lo - ends + counts)[owner]


def _column(value, n: int) -> np.ndarray:
    """`value`, an array of `n` rows or a number, as an array of n rows."""
    return value if isinstance(value, np.ndarray) else np.full(n, value)


def _range_candidates(start, cutoff, held):
    """The candidates of a co-iteration loop with a range, `start[r]` to
    `cutoff[r]` in live row r, in loop order: the live row and value of
    each, and for each iterator's `held` positions (live row, position,
    index) the candidate each lands on."""
    counts = cutoff - start + 1
    owner, var = _segments(start, counts)
    base = counts.cumsum() - counts - start
    return owner, var, [base[o] + index for o, _, index in held]


def _merged_candidates(held, n: int, extent: int):
    """The candidates of a co-iteration loop without a range, the merged
    indices of its iterators' `held` positions (live row, position, index)
    in each of `n` live rows, as `_range_candidates` returns them."""
    owners = np.concatenate([o for o, _, _ in held])
    indices = np.concatenate([index for _, _, index in held])
    _check_rows(len(owners))
    perm, first = _sort_rows([owners, indices], [n, extent], len(owners))
    landing = np.empty(len(perm), np.int64)
    landing[perm] = first.cumsum() - 1
    ends = np.cumsum([len(o) for o, _, _ in held]).tolist()
    lands = [landing[end - len(o) : end] for (o, _, _), end in zip(held, ends)]
    return owners[perm[first]], indices[perm[first]], lands


class _Frame:
    """The iterations of the enclosing loops, one row each, in loop order.

    Columns are arrays over the rows, keyed by what they hold: `("v", var)`
    a loop variable, `("q"|"h", uid, level)` an iterator's position and
    end, `("r", var)` a range counter, `("x", uid)` a hoisted value,
    `("acc", slot)` and `"ws"` the row of the frame that declared an
    accumulator or drains the workspace. A column the frame lacks is
    gathered from its parent on first read, so only the columns the body
    below reads are ever copied.

    `key` places the rows in the loops' order across frames: the index of
    each enclosing loop's statement in its block, then that loop's
    variable, outermost first. A row's statement indices and variable
    values tell its iteration from every other, and compare in the order
    the loops run them.

    `reads`, in the body frame of a position loop, is its position column
    and the index that reads those positions from a bound array: the slice
    they fill when the rows' ranges are consecutive, else the column
    itself. Any other frame has None.
    """

    def __init__(self, n: int, parent: Optional["_Frame"] = None, rows=None, key=()):
        self.n = n
        self.parent = parent
        self.rows = rows  # each row's row in the parent frame
        self.key = key
        self.at = 0  # the index of the statement the frame's block runs
        self.cols: dict = {}
        self.reads = None  # (position column, slice or that column)

    def col(self, key):
        column = self.cols.get(key)
        if column is None:
            column = self.cols[key] = self.parent.col(key)[self.rows]
        return column

    def sub(self, rows, var: Optional[str] = None) -> "_Frame":
        """The frame of `rows` of this one: the iterations of a loop over
        `var`, or, with no `var`, the same iterations (a case's)."""
        key = self.key if var is None else self.key + (self.at, var)
        return _Frame(len(rows), self, rows, key)


_ARITH = {Mul: np.multiply, Add: np.add, Sub: np.subtract}


class _ArrayRun:
    """Runs a Program as whole-array numpy passes.

    The IR is walked once, so every statement runs once, over all the rows
    of its frame. Each loop turns the rows of its frame into the rows of
    its body's frame: a dense loop repeats each row `extent` times, a
    position loop as many times as its iterator's range holds, and a
    co-iteration loop (`_WhileCoiter`) once per candidate its merge
    visits. Loads are gathers, and the expression is evaluated elementwise
    in float64. A position loop whose rows' ranges are consecutive, as
    under a dense loop or at the first level, holds one run of positions
    (`_Frame.reads`): its indices, and the values loaded at those
    positions, are slices of the bound arrays, read in place.

    A sink statement hands its writes to `sink` and they are applied when
    read (`drain`): an accumulator's when the accumulator is read, the
    workspace's at its drain, the output's at the end. One sink statement
    writes its rows in loop order. Several that write one target, the
    cases and sibling loops of a co-iteration, are merged by their rows'
    frame keys first. Then `np.add.at` adds in index order and the
    workspace merge sorts stably, so every sum is taken in the order the
    loops take it, from the same 0.0, and rounds the same.
    """

    def __init__(self, program: Program, env: dict, out=None):
        self.p = program
        self.env = env
        self.out = out  # the dense or in-place output values, if any
        self.accs: dict = {}  # slot -> one sum per row of the declaring frame
        # target -> [(frame, statement index, columns)], one per sink
        # statement run so far: "out", ("acc", slot), "ws" or "inserted"
        self.sinks: dict = {}
        self.inserted = None  # (coords, values), in storage order

    def run(self):
        self.block(self.p.body, _Frame(1))
        stores = self.drain("out")
        if stores is not None:
            np.add.at(self.out, *stores)
        self.inserted = self.drain("inserted")

    def sink(self, target, frame: _Frame, *columns):
        self.sinks.setdefault(target, []).append((frame, frame.at, columns))

    def drain(self, target):
        """The columns of every sink into `target` so far, concatenated in
        the loops' order, or None if none ran."""
        writes = self.sinks.pop(target, None)
        if writes is None or len(writes) == 1:
            return writes and writes[0][2]
        # A key alternates statement index and loop variable and ends in
        # the sink's statement index. No key is a prefix of another, so a
        # short one padded with zeros sorts the same. Each position is one
        # digit of a mixed-radix number: a statement index below the largest
        # there, a variable below its extent.
        keys = [frame.key + (at,) for frame, at, _ in writes]
        width = max(map(len, keys))
        keys = [key + (0,) * (width - len(key)) for key in keys]
        extents = self.p.kernel.analysis.var_extents
        radix = [
            max(extents[k] if isinstance(k, str) else k + 1 for k in position)
            for position in zip(*keys)
        ]
        digits = [
            [frame.col(("v", k)) if isinstance(k, str) else k for k in key]
            for key, (frame, _, _) in zip(keys, writes)
        ]
        if math.prod(radix) < 1 << 62:
            weights = [math.prod(radix[p + 1 :]) for p in range(width)]
            parts = []
            for (frame, _, _), ds in zip(writes, digits):
                static = sum(d * w for d, w in zip(ds, weights) if isinstance(d, int))
                number = sum((d * w for d, w in zip(ds, weights) if not isinstance(d, int)), static)
                parts.append(_column(number, frame.n))
            perm = np.argsort(np.concatenate(parts), kind="stable")
        else:
            perm = np.lexsort([
                np.concatenate([_column(ds[p], frame.n) for (frame, _, _), ds in zip(writes, digits)])
                for p in reversed(range(width))
            ])
        return tuple(
            np.concatenate([cols[k] for _, _, cols in writes])[perm]
            for k in range(len(writes[0][2]))
        )

    def position(self, uid: int, frame: _Frame, upto: Optional[int] = None):
        start, steps = _position_steps(self.p, uid, upto)
        pos = None if start is None else frame.col(("q", uid, start))
        for v, extent in steps:
            pos = frame.col(("v", v)) if pos is None else pos * extent + frame.col(("v", v))
        return np.zeros(frame.n, np.int64) if pos is None else pos

    def values(self, node, frame: _Frame) -> np.ndarray:
        """The expression `node` at every row of `frame`."""
        return _column(self.expr(node, frame), frame.n)

    def expr(self, node, frame: _Frame):
        if isinstance(node, ValRef):
            return frame.col(("x", node.uid))
        if isinstance(node, AccRef):
            adds = self.drain(("acc", node.slot))
            if adds is not None:
                np.add.at(self.accs[node.slot], *adds)
            return self.accs[node.slot]
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Neg):
            return np.negative(self.expr(node.operand, frame))
        return _ARITH[type(node)](self.expr(node.lhs, frame), self.expr(node.rhs, frame))

    def block(self, stmts, frame: _Frame):
        if any(isinstance(s, CompressWs) for s in stmts):
            frame.cols["ws"] = np.arange(frame.n)
        for index, s in enumerate(stmts):
            frame.at = index
            getattr(self, f"_{type(s).__name__}")(s, frame)

    def _LoadRange(self, s: LoadRange, frame):
        ptrs = _bound_part(self.p, self.env, s.uid, "pointers", s.level)
        parent = self.position(s.uid, frame, upto=s.level)
        frame.cols["q", s.uid, s.level] = ptrs[parent]
        frame.cols["h", s.uid, s.level] = ptrs[parent + 1]

    def _LoadVal(self, s: LoadVal, frame):
        values = _bound_part(self.p, self.env, s.uid, "values")
        pos = self.position(s.uid, frame)
        if frame.reads is not None and pos is frame.reads[0]:
            pos = frame.reads[1]
        frame.cols["x", s.uid] = values[pos]

    def _ForDense(self, s: ForDense, frame):
        _check_rows(frame.n * s.extent)
        child = frame.sub(np.arange(frame.n).repeat(s.extent), s.var)
        child.cols["v", s.var] = np.arange(child.n) % s.extent
        self.block(s.body, child)

    def _ForPositions(self, s: ForPositions, frame):
        lo, hi = frame.col(("q", s.uid, s.level)), frame.col(("h", s.uid, s.level))
        if frame.n and not np.count_nonzero(lo[1:] != hi[:-1]):
            # Each row's range starts where the previous one ends, so the
            # positions are one run, and the indices (and the values, see
            # `_LoadVal`) are read as slices of it, not gathered.
            read = slice(int(lo[0]), int(hi[-1]))
            _check_rows(read.stop - read.start)
            owner, q = np.arange(frame.n).repeat(hi - lo), np.arange(read.start, read.stop)
        else:
            owner, q = _segments(lo, hi - lo)
            read = q
        child = frame.sub(owner, s.var)
        child.reads = (q, read)
        child.cols["q", s.uid, s.level] = q
        child.cols["v", s.var] = _bound_part(self.p, self.env, s.uid, "indices", s.level)[read]
        self.block(s.body, child)

    def _RangeInit(self, s: RangeInit, frame):
        frame.cols["r", s.var] = np.zeros(frame.n, np.int64)

    def _WhileCoiter(self, s: WhileCoiter, frame):
        its = [
            (uid, level, frame.col(("q", uid, level)), frame.col(("h", uid, level)),
             _bound_part(self.p, self.env, uid, "indices", level))
            for uid, level in s.iterators
        ]
        # A row runs the loop while each iterator has a position left and
        # the range counter, if any, is below the extent. Indices only
        # grow, so the row visits the merged candidates up to its cutoff,
        # the smallest last index among its iterators (the extent's last
        # with no iterator), and stops there, as the first iterator runs
        # out.
        live = frame.col(("r", s.var)) < s.extent if s.has_range else True
        for _, _, q, h, _ in its:
            live = live & (q < h)
        rows = live.nonzero()[0]
        n = len(rows)
        if not n:
            return
        cutoff = np.full(n, s.extent - 1)
        for _, _, _, h, indices in its:
            cutoff = np.minimum(cutoff, indices[h[rows] - 1])
        # Each iterator's positions up to the cutoff, in loop order: the
        # live row and the position of each. The iterator sits past them
        # after the loop.
        held = []
        for uid, level, q, h, indices in its:
            lo = q[rows]
            counts = h[rows] - lo
            owner, pos = _segments(lo, counts)
            if len(its) > 1:  # one iterator runs to its last index
                keep = indices[pos] <= cutoff[owner]
                owner, pos = owner[keep], pos[keep]
                counts = np.bincount(owner, minlength=n)
            after = frame.cols["q", uid, level] = q.copy()
            after[rows] = lo + counts
            held.append((owner, pos, indices[pos]))
        if s.has_range:
            start = frame.col(("r", s.var))[rows]
            owner, var, lands = _range_candidates(start, cutoff, held)
            after = frame.cols["r", s.var] = frame.col(("r", s.var)).copy()
            after[rows] = cutoff + 1
        else:
            owner, var, lands = _merged_candidates(held, n, s.extent)
        child = frame.sub(rows[owner], s.var)
        child.cols["v", s.var] = var
        if not its:
            # The one case needs no iterator.
            self.block(s.cases[0].body, child)
            return
        # A candidate's holders, one bit per iterator; its case is the
        # first, in dominance order, whose iterators all hold it.
        holders = np.zeros(child.n, np.int64)
        for bit, ((uid, level, _, _, _), (_, pos, _), land) in enumerate(zip(its, held, lands)):
            holders[land] |= 1 << bit
            q = child.cols["q", uid, level] = np.zeros(child.n, np.int64)
            q[land] = pos
        bits = {uid: 1 << bit for bit, (uid, _) in enumerate(s.iterators)}
        needs = [sum(bits[uid] for uid in case.iterators) for case in s.cases]
        first_case = [
            next((c for c, need in enumerate(needs) if mask & need == need), -1)
            for mask in range(1 << len(bits))
        ]
        case_of = np.array(first_case)[holders]
        for c, case in enumerate(s.cases):
            taken = (case_of == c).nonzero()[0]
            if len(taken) == child.n:
                self.block(case.body, child)
            elif len(taken):
                self.block(case.body, child.sub(taken))

    def _DeclAcc(self, s: DeclAcc, frame):
        frame.cols["acc", s.slot] = np.arange(frame.n)
        self.accs[s.slot] = np.zeros(frame.n)

    def _AccumAcc(self, s: AccumAcc, frame):
        self.sink(("acc", s.slot), frame, frame.col(("acc", s.slot)), self.values(s.expr, frame))

    def _StoreDense(self, s: StoreDense, frame):
        columns = [frame.col(("v", v)) for v in s.coords]
        offset = _row_key(columns, self.p.kernel.output_type.shape, frame.n)
        self.sink("out", frame, offset, self.values(s.expr, frame))

    def _InsertLex(self, s: InsertLex, frame):
        coords = np.stack([frame.col(("v", v)) for v in s.coords], axis=1)
        self.sink("inserted", frame, coords, self.values(s.expr, frame))

    def _ExpandWs(self, s: ExpandWs, frame):
        pass

    def _ScatterWs(self, s: ScatterWs, frame):
        self.sink("ws", frame, frame.col("ws"), frame.col(("v", s.var)), self.values(s.expr, frame))

    def _CompressWs(self, s: CompressWs, frame):
        # The workspace sums each (row, j) from 0.0 in scatter order, then
        # appends the row's touched j in ascending order, a loop over j in
        # each row. `_merge_runs` over (row, j) does the same: its sort keeps
        # scatter order among equal keys (`_row_order` tags each key with
        # its index, unless the keys are already in order), and it sums in
        # that order.
        scattered = self.drain("ws")
        if scattered is None:
            return
        rows, j, values = scattered
        var = self.p.strategy.var
        firsts, sums = _merge_runs(
            [rows, j], [frame.n, self.p.kernel.analysis.var_extents[var]], values
        )
        if firsts is not None:
            rows, j = rows[firsts], j[firsts]
        drained = frame.sub(rows, var)
        drained.cols["v", var] = j
        coords = np.stack([drained.col(("v", v)) for v in self.p.kernel.lhs.indices], axis=1)
        self.sink("inserted", drained, coords, sums)

    def _StoreInPlace(self, s: StoreInPlace, frame):
        self.out[frame.col(("q", s.uid, s.level))] = self.values(s.expr, frame)


def _run_arrays(program: Program, env: dict):
    """Run a Program as whole-array passes; raises _TooManyRows, before any
    large allocation, past the row budget."""
    kernel = program.kernel
    out_type = kernel.output_type
    strat = program.strategy.kind
    if strat is StrategyKind.DENSE_STORE:
        seed = _dense_output(kernel, env)
        out = np.zeros(math.prod(out_type.shape)) if seed is None else seed.copy()
        _ArrayRun(program, env, out).run()
        return DenseTensor(out_type.shape, _read_only(out))
    if strat is StrategyKind.IN_PLACE:
        base = env[kernel.lhs.tensor]
        out = base.value_array.copy()
        _ArrayRun(program, env, out).run()
        return base.with_values(_read_only(out))
    run = _ArrayRun(program, env)
    run.run()
    if run.inserted is None:
        return _sparse_output(out_type, np.zeros((0, out_type.rank), np.int64), np.zeros(0))
    return _sparse_output(out_type, *run.inserted)


def interpret(program: Program, env: dict):
    """Execute a lowered Program against concrete tensor bindings.

    Every Program runs as whole-array numpy passes (`_ArrayRun`), its
    co-iteration loops as merges; one whose frame would pass
    `_MAX_FRAME_ROWS` rows runs instead as one generated Python function
    (`_Generator`). Both give the same result, bit for bit: a DenseTensor
    for a dense store, a copy of the in-place output with new values, or
    the SparseStorage of a sparse output.
    """
    try:
        return _run_arrays(program, env)
    except _TooManyRows:
        return _run_loops(program, env)


# ----------------------------------------------------------------------------
# End-to-end driver


def _coerce(value: TensorValue, ttype: TensorType, name: str) -> TensorValue:
    if value.shape != ttype.shape:
        raise ShapeMismatch(
            f"tensor {name!r} declared with shape {ttype.shape}, bound with {value.shape}"
        )
    if ttype.is_sparse:
        if isinstance(value, SparseStorage) and value.ttype == ttype:
            return value
    elif isinstance(value, DenseTensor):
        return value
    return convert(value, ttype)


def _empty_value(ttype: TensorType, name: str) -> TensorValue:
    if ttype.is_sparse:
        return _build_levels(ttype, np.zeros((0, ttype.rank), np.int64), np.zeros(0))
    _check_dense_volume(name, ttype.shape)
    return DenseTensor.zeros(ttype.shape)


def prepare_kernels(kernel: Kernel) -> list:
    """Normalize a kernel into directly executable pieces.

    Accumulation into a sparse non-scalar output becomes a read of the
    previous output value; reductions scoped to subexpressions are split
    into temporary kernels.
    """
    if kernel.analysis is None:
        kernel = analyze_reductions(kernel)
    out_type = kernel.output_type
    if kernel.accumulate and out_type.is_sparse:
        kernel = analyze_reductions(
            replace(
                kernel,
                rhs=Add(Access(kernel.lhs.tensor, kernel.lhs.indices), kernel.rhs),
                accumulate=False,
                analysis=None,
            )
        )
    return split_for_whole_expr_reduction(kernel)


def compile_kernel(kernel: Kernel) -> tuple:
    """Compile a kernel into one lowered Program per piece, in run order.

    Prepares the pieces (`prepare_kernels`, which analyses each piece
    once), orders each one's loops and lowers it; `lower` builds each merge
    lattice only when its loops need it. Raises `OrderConflict` when a
    piece's dimension orderings admit no loop order.
    """
    programs = []
    for piece in prepare_kernels(kernel):
        programs.append(lower(piece, topo_sort(build_iteration_graph(piece))))
    return tuple(programs)


def _operands(kernel: Kernel, programs: tuple) -> dict:
    """The tensors `execute` binds before it runs `programs`, in the order
    they are first read, each with its declared type: every tensor a piece
    reads that no earlier piece writes, and the output when `kernel`
    accumulates into it."""
    temp_names = {program.kernel.lhs.tensor for program in programs[:-1]}
    operands: dict = {}
    for program in programs:
        for access in program.accesses:
            if access.tensor not in temp_names:
                operands.setdefault(access.tensor, program.kernel.tensors[access.tensor])
    if kernel.accumulate:
        operands.setdefault(kernel.lhs.tensor, kernel.tensors[kernel.lhs.tensor])
    return operands


def execute(kernel: Kernel, programs: tuple, inputs: dict):
    """Run the Programs `compile_kernel` made for `kernel` on the inputs.

    Coerces the inputs, interprets each Program in turn (binding each
    temporary for the next), and packs a dense-fallback result into the
    declared sparse format. Inputs and the result are as in `run_kernel`.
    """
    env: dict = {}
    for name, declared in _operands(kernel, programs).items():
        if name in inputs:
            env[name] = _coerce(inputs[name], declared, name)
        elif name == kernel.lhs.tensor:
            env[name] = _empty_value(declared, name)
        else:
            raise UnknownTensor(f"no binding for input tensor {name!r}")
    result = None
    for program in programs:
        result = interpret(program, env)
        out_type = program.kernel.output_type
        if out_type.is_sparse and isinstance(result, DenseTensor):
            # Fallback path: computed densely, pack into the declared format.
            result = convert(result, out_type)
        env[program.kernel.lhs.tensor] = result
    return result


def run_kernel(kernel: Kernel, inputs: dict):
    """Compile and execute a kernel against the given tensor bindings.

    Inputs may be CooTensor, DenseTensor, or SparseStorage; each is
    coerced to its declared type first. The output binding is optional and
    only consulted when the kernel accumulates or reads its own output.
    Returns SparseStorage when the output is format-annotated, otherwise a
    DenseTensor. The same as `execute(kernel, compile_kernel(kernel),
    inputs)`.
    """
    return execute(kernel, compile_kernel(kernel), inputs)
