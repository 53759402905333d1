"""Execution: run loop IR over packed storage, end to end.

`run_kernel` is the library entry point. `compile_kernel` normalizes the
kernel (accumulating sparse outputs are rewritten to read the previous
output; scoped reductions are split into temporaries), orders the loops
and lowers each piece to an IR Program; `execute` coerces the inputs and
interprets the Programs. Each piece is analysed once, and the analysis
carries its tagged accesses to every later stage; `lower` builds each
merge lattice only when its loops reach it.

The interpreter runs every Program as whole-array numpy passes that walk
the IR directly. Each loop nest is flattened into a frame of rows, one per
iteration in loop order. A sparse loop reads its iterators' ranges from
their pointers itself (`_ArrayRun._range`). A dense loop's frame, and a
position loop's, repeats each parent row in order, so a column it reads
from above is repeated, not gathered by a row map. Loads are gathers,
except at positions that form one run: a position loop's consecutive
ranges, and each dense loop over a whole extent below them, whose indices
and values are read as slices. A position loop's other ranges are laid
end to end as one column of positions (`_range_positions`).

A co-iterated variable lowers to one `WhileCoiter`, over every iterator of
its merge lattice, whose cases are the lattice's points. It runs, in one
pass, what the paper's while loops, one per point, run one after another:
the merged indices of its iterators up to each row's reach
(`_ArrayRun._reach`), or every index of a range, each in the first case
whose iterators all hold it. The sinks, an accumulator's adds and the
output's writes, are applied in the loops' order across cases: every loop
visits its indices in ascending order and each iteration runs in one
case, so that order is the lexicographic order of the loop variables'
values. It generates no source.

No frame holds more than `_MAX_FRAME_ROWS` rows. A loop whose frame would
pass it runs in parts, in loop order: consecutive groups of its parent's
rows, and a row that passes the budget alone in slices of its own
iterations (ranges of a dense loop's extent or of a position loop's
positions, windows of a co-iteration's indices). The sinks merge by
their loop variables' values, so the parts give the result one frame would.

Every store, whatever the strategy, sinks the output's coordinate columns
(logical order) and values, in loop order, and only `interpret` reads the
strategy to finish them. A dense output adds them into a copy of its seed
(`np.add.at`). Inserted entries, and the in-place update's, one per stored
position in order, go to `_sparse_output`, which checks that they strictly
increase in storage order and lays them out with `pack`'s level build
(`_build_levels`). The workspace's scatters and the dense store's writes
(the strategy a sparse output takes when its variables do not lead the
loops) go to one merge: sorted stably into storage order and summed per
coordinate (`_merge_runs`), then the same level build. The dense store
drops the sums exactly zero, as packing a dense buffer would drop them;
the workspace keeps every coordinate it touched. No workspace row and no
buffer of a sparse output's volume is made. Every sum is added in loop
order from 0.0, as the loops `codegen.emit_text` prints add it, so the
result is theirs bit for bit. A dense output past `_MAX_DENSE_ELEMENTS`
elements, or a sparse one whose dense levels would pass it, raises
DenseOutputTooLarge before it is allocated.

Each access's layout is taken from its declared type, which `execute`
coerces the binding to, and the binding's read-only arrays are read as
they are. Bindings are never mutated: a dense output is added into a copy
of its seed, and the in-place update lays out new storage of the same
layout.
"""

import math
from dataclasses import replace
from functools import reduce
from typing import Optional, Union

import numpy as np

from .codegen import (
    AccRef,
    AccumAcc,
    Const,
    DeclAcc,
    ExpandWs,
    ForDense,
    ForPositions,
    LoadVal,
    Program,
    StrategyKind,
    WhileCoiter,
    lower,
)
from .encoding import COMPRESSED, Encoding, TensorType
from .errors import (
    OutOfOrderInsertion,
    ShapeMismatch,
    UnknownTensor,
)
from .expr import (
    Access,
    AccessRef,
    Add,
    Kernel,
    Mul,
    Neg,
    Sub,
    analyze_reductions,
    nesting_guard,
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
    _row_order,
    _same_layout,
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

# The most rows one frame may hold; a loop whose frame would pass it runs in
# parts that fit (`_ArrayRun.parts`).
_MAX_FRAME_ROWS = 1 << 22


def _bound_part(program: Program, env: dict, uid: int, part: str, level: int = 0):
    """The read-only `pointers`, `indices` or `values` array of access
    `uid`'s binding: a storage's own, or a dense tensor's data."""
    tensor = program.kernel.analysis.accesses[uid].tensor
    try:
        value = env[tensor]
    except KeyError:
        raise UnknownTensor(f"no binding for tensor {tensor!r}")
    if not program.kernel.tensors[tensor].is_sparse:
        return value.data
    if part == "values":
        return value.value_array
    return value.level_arrays(level)[part == "indices"]


def _position_steps(program: Program, uid: int, upto: Optional[int]):
    """How the flat position of access `uid` after its first `upto` levels
    (all when None) is found, from its declared type: the frame column of
    the last compressed level among them, `("q", uid, level)`, whose
    position it starts from (None: from 0), and the tuple of (variable,
    extent) steps of the dense levels after it. It depends on the Program
    alone, so the interpreter derives it once per Program
    (`Program.positions`)."""
    ref = program.kernel.analysis.accesses[uid]
    ttype = program.kernel.tensors[ref.tensor]
    if not ttype.is_sparse:
        return None, tuple(zip(ref.indices, ttype.shape))
    # Positions at a compressed level are absolute, so the walk only needs
    # the dense levels after the last compressed one.
    enc = ttype.encoding
    sshape = ttype.storage_shape()
    start, steps = None, []
    for level in range(ttype.rank if upto is None else upto):
        if enc.levels[level] is COMPRESSED:
            start, steps = ("q", uid, level), []
        else:
            steps.append((ref.indices[enc.dim_of_level(level)], sshape[level]))
    return start, tuple(steps)


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


def _sparse_output(ttype: TensorType, columns, values: np.ndarray) -> SparseStorage:
    """The storage of `ttype` holding `values` at the coordinates of
    `columns`, one array per logical dimension, laid out by
    `_build_levels` once the rows are checked to strictly increase in
    storage order (`_row_order`; OutOfOrderInsertion otherwise, naming the
    first pair that does not, duplicates included).
    Widths are checked by `validate`. The arrays are taken over: the
    columns are frozen, so the last level's can become its indices."""
    columns = [_read_only(c) for c in columns]
    levels = [columns[ttype.encoding.dim_of_level(l)] for l in range(ttype.rank)]
    perm, first = _row_order(levels, ttype.storage_shape(), len(values))
    if perm is not None or not first.all():
        rows = list(zip(*(c.tolist() for c in levels)))
        r = next(r for r in range(len(rows) - 1) if rows[r + 1] <= rows[r])
        raise OutOfOrderInsertion(
            f"insertion at {tuple(int(c[r + 1]) for c in columns)} does not follow "
            f"{tuple(int(c[r]) for c in columns)} in storage order"
        )
    return _build_levels(ttype, columns, values)


def _no_entries(rank: int):
    """The columns and values of no entries."""
    return [np.zeros(0, np.int64)] * rank, np.zeros(0)


def _range_positions(lo, counts, ends):
    """Row r's positions `lo[r]`, `lo[r] + 1`, ... (`counts[r]` of them,
    `ends` their running total) for every row, laid end to end."""
    positions = (lo - ends + counts).repeat(counts)
    positions += np.arange(len(positions))
    return positions


def _segments(lo, counts, ends):
    """The row of each position of `_range_positions`, and the position."""
    return np.arange(len(counts)).repeat(counts), _range_positions(lo, counts, ends)


def _column(value, n: int) -> np.ndarray:
    """`value`, an array of `n` rows or a number, as an array of n rows."""
    return value if isinstance(value, np.ndarray) else np.full(n, value)


def _merged_candidates(held, n: int, extent: int):
    """The merged indices of a co-iteration's `held` positions (live row,
    position, index per iterator) in each of `n` live rows, in loop order:
    the live row and index of each, and where each iterator's land."""
    owners = np.concatenate([o for o, _, _ in held])
    indices = np.concatenate([index for _, _, index in held])
    perm, first = _row_order([owners, indices], [n, extent], len(owners))
    if perm is None:
        perm = np.arange(len(owners))
    landing = np.empty(len(perm), np.int64)
    landing[perm] = first.cumsum() - 1
    ends = np.cumsum([len(o) for o, _, _ in held]).tolist()
    lands = [landing[end - len(o) : end] for (o, _, _), end in zip(held, ends)]
    return owners[perm[first]], indices[perm[first]], lands


class _Frame:
    """The iterations of the enclosing loops, one row each, in loop order.

    Columns are arrays over the rows, keyed by what they hold: `("v", var)`
    a loop variable, `("q", uid, level)` an iterator's position, `("x",
    uid)` a hoisted value, `("acc", slot)` the row of the frame that
    declared an accumulator. A column the frame lacks is made from its
    parent's on first read, so only the columns the body below reads are
    ever built: repeated, in a frame whose rows repeat their parent's in
    order (`counts` rows from each parent row: a dense loop's or a
    position loop's), else gathered by the frame's row map (`rows`: a
    co-iteration's candidates, a case's or a part's rows).

    `key` names the variables of the enclosing loops, outermost first. A
    row's values of them tell its iteration from every other, and compare
    in the order the loops run them, across frames too.

    `runs` maps a flat position, written as the recipe `_position_steps`
    derives (the key of the column it starts from or None, and the tuple
    of its dense steps), to the slice of consecutive positions it takes
    over the frame's rows: a run a position loop starts, which each dense
    loop over a whole extent below it widens. Loads read such positions as
    slices, and a run of positions is built as a column only when read
    (`col`).
    """

    def __init__(self, n: int, parent: Optional["_Frame"] = None, rows=None, key=(), counts=None):
        self.n = n
        self.parent = parent
        self.rows = rows  # each row's row in the parent frame, or
        self.counts = counts  # how many rows each parent row makes
        self.key = key
        self.cols: dict = {}
        self.runs: dict = {} if parent else {(None, ()): slice(0, 1)}

    def col(self, key):
        column = self.cols.get(key)
        if column is None:
            run = self.runs.get((key, ()))
            if run is not None:
                column = np.arange(run.start, run.stop)
            elif self.rows is None:
                column = self.parent.col(key).repeat(self.counts)
            else:
                column = self.parent.col(key)[self.rows]
            self.cols[key] = column
        return column

    def sub(self, rows, var: Optional[str] = None) -> "_Frame":
        """The frame of `rows` of this one: the iterations of a loop over
        `var`, or, with no `var`, some of the same iterations (a case's,
        or a part's)."""
        key = self.key if var is None else self.key + (var,)
        return _Frame(len(rows), self, rows, key)

    def repeat(self, counts, n: int, var: str) -> "_Frame":
        """The frame of a loop over `var` in which each row of this one
        makes `counts` rows (a number, or one count per row), `n` in all,
        in order."""
        return _Frame(n, self, None, self.key + (var,), counts)

    def span(self, var: str, start: int, stop: int, extent: int) -> "_Frame":
        """The frame of a dense loop over `var`'s indices from `start` to
        `stop`, of `extent`: each row of this one makes `stop - start`."""
        width = stop - start
        child = self.repeat(width, self.n * width, var)
        # `np.tile(np.arange(start, stop), self.n)`, without its overhead
        # on small frames.
        column = np.empty((self.n, width), np.int64)
        column[:] = np.arange(start, stop)
        child.cols["v", var] = column.reshape(-1)
        if width == extent:
            # Under a run of positions p, the positions p * extent + var
            # over the whole extent are a run too.
            child.runs = {
                (begin, steps + ((var, width),)): slice(run.start * width, run.stop * width)
                for (begin, steps), run in self.runs.items()
            }
        return child


_ARITH = {Mul: np.multiply, Add: np.add, Sub: np.subtract}


class _ArrayRun:
    """Runs a Program as whole-array numpy passes.

    The IR is walked once, so every statement runs once, over all the rows
    of its frame. Each loop turns the rows of its frame into the rows of
    its body's frame: a dense loop repeats each row `extent` times, a
    position loop as many times as its iterator's range holds, and a
    co-iteration (`_WhileCoiter`) once per candidate, which runs in the
    first case whose iterators all hold it (`cases`); each reads its
    iterators' ranges itself (`_range`). Loads are gathers,
    and the expression is evaluated elementwise in float64. A position
    loop whose rows' ranges are consecutive, as under a dense loop or at
    the first level, holds one run of positions (`_Frame.runs`), and so
    does a dense loop over a whole extent below such a run, or at the
    top: the indices and the values loaded at positions that form a run
    are slices of the bound arrays, read in place. Any other position
    loop lays its ranges end to end in one column of positions
    (`_range_positions`). The body frame of a dense loop, and of every
    position loop, repeats its parent's rows (`_Frame.repeat`) rather
    than gathering them.

    A sink statement hands its writes to `sink` and they are applied when
    read (`drain`): an accumulator's when the accumulator is read, the
    output's at the end, by `run`, which returns them. The one store
    statement (`_Store`) writes the output whatever its strategy: stored,
    inserted, scattered into the workspace or updated in place, a write is
    the output's coordinate columns and the value, and only `interpret`
    reads the strategy that finishes them. One sink statement writes its
    rows in loop order. Several that write one target, the cases of a
    co-iteration, sit under the same loops, and are merged by their rows'
    values of those loops' variables first (`_Frame.key`). Then
    `np.add.at` adds in index order and the output's merge sorts stably,
    so every sum is taken in the order the loops take it, from the same
    0.0, and rounds the same.

    A loop whose body frame would pass `_MAX_FRAME_ROWS` rows runs in parts
    (`parts`), one after another in loop order, each with a body frame that
    fits; the sinks' merge by loop variables sees the rows it would have
    seen.
    """

    def __init__(self, program: Program, env: dict):
        self.p = program
        self.env = env
        self.accs: dict = {}  # slot -> one sum per row of the declaring frame
        # target -> [(statement, frame, columns)], one per run of a sink
        # statement so far: "out" or ("acc", slot)
        self.sinks: dict = {}
        self.in_parts = False  # whether a loop is running in parts

    def run(self):
        """Run the Program. Returns the output's writes in loop order (its
        coordinate columns, logical order, and the values), or None if no
        store ran."""
        self.block(self.p.body, _Frame(1))
        return self.drain("out")

    def sink(self, target, s, frame: _Frame, *columns):
        self.sinks.setdefault(target, []).append((s, frame, columns))

    def drain(self, target):
        """The columns of every sink into `target` so far, concatenated in
        the loops' order (the stable `_row_order` of their rows' loop
        variables), or None if none ran."""
        writes = self.sinks.pop(target, None)
        if writes is None or len(writes) == 1:
            return writes and writes[0][2]
        runs = list(zip(*(columns for _, _, columns in writes)))
        if all(w[0] is writes[0][0] for w in writes):
            # One statement, run in parts: they ran in the loops' order.
            return tuple(map(np.concatenate, runs))
        # Every sink into one target sits under the same loops.
        names = writes[0][1].key
        extents = [self.p.kernel.analysis.var_extents[v] for v in names]
        keys = [np.concatenate([frame.col(("v", v)) for _, frame, _ in writes]) for v in names]
        perm, _ = _row_order(keys, extents, sum(frame.n for _, frame, _ in writes))
        runs = [np.concatenate(run) for run in runs]
        return tuple(runs if perm is None else (run[perm] for run in runs))

    def parts(self, s, frame: _Frame, counts, split):
        """Run loop `s` over `frame` in parts whose body frames fit
        `_MAX_FRAME_ROWS`, where row r makes `counts[r]` body rows.

        Consecutive rows are grouped so that each group's counts sum within
        the budget, and each group runs `s` on a frame of its own, whose
        rows keep their loop variables; a row past the budget alone runs
        `split` on its frame, which slices the row's own iterations.
        """
        ends = counts.cumsum()
        outer, self.in_parts = self.in_parts, True
        start = 0
        while start < frame.n:
            base = int(ends[start - 1]) if start else 0
            stop = max(int(np.searchsorted(ends, base + _MAX_FRAME_ROWS, "right")), start + 1)
            part = frame.sub(np.arange(start, stop))
            if counts[start] > _MAX_FRAME_ROWS:
                split(part)
            else:
                getattr(self, f"_{type(s).__name__}")(s, part)
            start = stop
        self.in_parts = outer

    def _range(self, uid: int, level: int, frame: _Frame):
        """The position range, lo and hi, of access `uid`'s iterator at
        compressed `level` at every row of `frame`, read from the level's
        pointers as slices where the parent positions form a run."""
        ptrs = _bound_part(self.p, self.env, uid, "pointers", level)
        parent = self.position(uid, frame, upto=level)
        if isinstance(parent, slice):
            return ptrs[parent], ptrs[parent.start + 1 : parent.stop + 1]
        return ptrs[parent], ptrs[parent + 1]

    def position(self, uid: int, frame: _Frame, upto: Optional[int] = None):
        """The flat position of access `uid` after its first `upto` levels
        (all when None) at every row of `frame`: a slice where they form a
        run (`_Frame.runs`), else a column. Its recipe (`_position_steps`)
        is derived once per Program, on first use, and kept in the
        Program's table (`Program.positions`)."""
        recipe = self.p.positions.get((uid, upto))
        if recipe is None:
            recipe = self.p.positions[uid, upto] = _position_steps(self.p, uid, upto)
        run = frame.runs.get(recipe)
        if run is not None:
            return run
        start, steps = recipe
        pos = None if start is None else frame.col(start)
        for v, extent in steps:
            pos = frame.col(("v", v)) if pos is None else pos * extent + frame.col(("v", v))
        return np.zeros(frame.n, np.int64) if pos is None else pos

    def values(self, node, frame: _Frame) -> np.ndarray:
        """The expression `node` at every row of `frame`."""
        return _column(self.expr(node, frame), frame.n)

    def expr(self, node, frame: _Frame):
        if isinstance(node, AccessRef):
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

    def block(self, stmts, frame: _Frame, case: bool = False):
        for s in stmts:
            getattr(self, f"_{type(s).__name__}")(s, frame)
        if case or self.in_parts:
            # A frame a sink holds is read again only for its loop
            # variables, which order its writes (`drain`). Parts and a
            # co-iteration's cases keep no more, so that the frames of the
            # parts or cases run so far do not add up.
            frame.cols = {key: column for key, column in frame.cols.items() if key[0] == "v"}

    def _LoadVal(self, s: LoadVal, frame):
        values = _bound_part(self.p, self.env, s.uid, "values")
        frame.cols["x", s.uid] = values[self.position(s.uid, frame)]

    def _ForDense(self, s: ForDense, frame, start=0, stop=None):
        stop = s.extent if stop is None else stop
        width = stop - start
        if frame.n * width > _MAX_FRAME_ROWS:

            def split(part):  # ranges of the extent
                for a in range(start, stop, _MAX_FRAME_ROWS):
                    self._ForDense(s, part, a, min(a + _MAX_FRAME_ROWS, stop))

            return self.parts(s, frame, np.full(frame.n, width), split)
        self.block(s.body, frame.span(s.var, start, stop, s.extent))

    def _ForPositions(self, s: ForPositions, frame, lo=None, hi=None):
        if lo is None:
            lo, hi = self._range(s.uid, s.level, frame)
        # Each row's range starts where the previous one ends, so the
        # positions are one run, and the indices (and the values, see
        # `_LoadVal`) are read as slices of it, not gathered.
        run = frame.n and not np.count_nonzero(lo[1:] != hi[:-1])
        counts = hi - lo
        if run:
            total = int(hi[-1]) - int(lo[0])
        else:
            ends = counts.cumsum()
            total = int(ends[-1]) if frame.n else 0
        if total > _MAX_FRAME_ROWS:

            def split(part):  # ranges of the row's positions
                first, last = int(lo[part.rows[0]]), int(hi[part.rows[0]])
                for a in range(first, last, _MAX_FRAME_ROWS):
                    b = min(a + _MAX_FRAME_ROWS, last)
                    self._ForPositions(s, part, np.array([a]), np.array([b]))

            return self.parts(s, frame, counts, split)
        child = frame.repeat(counts, total, s.var)
        if run:
            read = slice(int(lo[0]), int(hi[-1]))
            child.runs = {(("q", s.uid, s.level), ()): read}
        else:
            read = _range_positions(lo, counts, ends)
            child.cols["q", s.uid, s.level] = read
        child.cols["v", s.var] = _bound_part(self.p, self.env, s.uid, "indices", s.level)[read]
        self.block(s.body, child)

    def _iterators(self, s: WhileCoiter, frame):
        """Each iterator of `s` at `frame`'s rows: uid, lo, hi (`_range`), indices."""
        return [
            (uid, *self._range(uid, level, frame),
             _bound_part(self.p, self.env, uid, "indices", level))
            for uid, level in s.iterators
        ]

    def _reach(self, s: WhileCoiter, its) -> np.ndarray:
        """Each row's reach in co-iteration loop `s` without a range: the
        largest cutoff among its cases, a case's being the smallest last
        index among its iterators (-1 for one that holds none)."""
        last = {
            uid: np.where(q < h, indices[h - 1], -1) if len(indices) else np.full(len(q), -1)
            for uid, q, h, indices in its
        }
        cutoffs = (reduce(np.minimum, [last[uid] for uid in case.iterators]) for case in s.cases)
        return reduce(np.maximum, cutoffs)

    def _WhileCoiter(self, s: WhileCoiter, frame, start=0, stop=None):
        """Run co-iteration `s` over `frame`. With a window [start, stop),
        on a one-row frame past the budget (`_windows`), only the
        candidates in it run, which fit."""
        its = self._iterators(s, frame)
        if s.has_range:  # the range alone, the last case, runs every index
            rows, reach = np.arange(frame.n), None
        else:
            reach = self._reach(s, its)
            rows = (reach >= start).nonzero()[0]
            reach = reach[rows]
        if not len(rows):
            return
        # Per live row, each iterator's positions (in the window, with one):
        # first, count and running total. With the range's indices, they
        # bound the candidates, and what the merge holds at once.
        spans = []
        for _, q, h, indices in its:
            lo, hi = q[rows], h[rows]
            if stop is not None:
                bounds = lo[0] + np.searchsorted(indices[lo[0] : hi[0]], [start, stop])
                lo, hi = bounds[:1], bounds[1:]
            counts = hi - lo
            spans.append((lo, counts, counts.cumsum()))
        width = (s.extent if stop is None else stop) - start if s.has_range else 0
        bound = np.zeros(frame.n, np.int64)
        bound[rows] = sum(counts for _, counts, _ in spans) + width
        if stop is None and bound.sum() > _MAX_FRAME_ROWS:
            return self.parts(s, frame, bound, lambda part: self._windows(s, part))
        self.cases(s, *self._candidates(s, frame, its, spans, rows, reach, start, width))

    def _candidates(self, s: WhileCoiter, frame, its, spans, rows, reach, start, width):
        """The frame of `s`'s candidates on `frame`'s live `rows` (with a
        range, `width` indices from `start` each), each iterator's position
        where it holds one, and which candidates each iterator holds: uid ->
        one boolean per candidate."""
        # Each iterator's positions: the live row, position and index of
        # each. Past its row's reach no case's iterators all hold an index.
        held = []
        for (_, _, _, indices), (lo, counts, ends) in zip(its, spans):
            owner, pos = _segments(lo, counts, ends)
            index = indices[pos]
            if reach is not None:
                keep = index <= reach.repeat(counts)
                owner, pos, index = owner[keep], pos[keep], index[keep]
            held.append((owner, pos, index))
        if s.has_range:
            child = frame.span(s.var, start, start + width, s.extent)  # every row is live
            lands = [owner * width + index - start for owner, _, index in held]
        else:
            owner, var, lands = _merged_candidates(held, len(rows), s.extent)
            child = frame.sub(rows[owner], s.var)
            child.cols["v", s.var] = var
        holds = {}
        for (uid, level), (_, pos, _), land in zip(s.iterators, held, lands):
            holds[uid] = np.zeros(child.n, bool)
            holds[uid][land] = True
            q = child.cols["q", uid, level] = np.zeros(child.n, np.int64)
            q[land] = pos
        return child, holds

    def _windows(self, s: WhileCoiter, part: _Frame):
        """Run co-iteration loop `s` over `part`, one row past the budget,
        in windows of consecutive indices (`_WhileCoiter`) whose candidates
        fit: a range's holds at most the budget's count of indices, and
        otherwise each iterator holds at most its share of the budget in
        one, which reaches at least the next candidate."""
        its = self._iterators(s, part)
        segments = [indices[int(q[0]) : int(h[0])] for _, q, h, indices in its]
        end = s.extent if s.has_range else int(self._reach(s, its)[0]) + 1
        share = _MAX_FRAME_ROWS // len(its)
        a = 0
        while a < end:
            if s.has_range:
                b = min(a + _MAX_FRAME_ROWS, end)
            else:
                # Each iterator's indices from the window's start on.
                rest = [seg[np.searchsorted(seg, a) :] for seg in segments]
                b = min([end] + [int(r[share]) for r in rest if share < len(r)])
                b = max(b, min(int(r[0]) for r in rest if len(r)) + 1)
            self._WhileCoiter(s, part, a, b)
            a = b

    def cases(self, s: WhileCoiter, child: _Frame, holds):
        """Run each candidate of co-iteration loop `s`, the rows of `child`,
        in the first case, in dominance order, whose iterators all hold it
        (`holds`, one mask per iterator): each case takes the rows not yet
        taken that all its iterators hold."""
        free = np.ones(child.n, bool)
        for case in s.cases:
            mask = free.copy()
            for uid in case.iterators:
                mask &= holds[uid]
            free &= ~mask
            taken = mask.nonzero()[0]
            if len(taken) == child.n:  # no later case takes a row
                self.block(case.body, child, case=True)
            elif len(taken):
                self.block(case.body, child.sub(taken), case=True)

    def _DeclAcc(self, s: DeclAcc, frame):
        frame.cols["acc", s.slot] = np.arange(frame.n)
        self.accs[s.slot] = np.zeros(frame.n)

    def _AccumAcc(self, s: AccumAcc, frame):
        self.sink(("acc", s.slot), s, frame, frame.col(("acc", s.slot)), self.values(s.expr, frame))

    def _Store(self, s, frame):
        """Sink the output's writes, whatever its strategy: its coordinate
        columns, logical order, and the values.

        The workspace's scatters are the output's writes, merged at the
        end as the dense store's are, so expanding and compressing it run
        nothing. Its prefix variables lead the loops, so each coordinate's
        writes come from one compress row, in scatter order. The in-place
        update's loop visits every stored position of its vector in order,
        so its writes are that storage's coordinates."""
        columns = [frame.col(("v", v)) for v in self.p.kernel.lhs.indices]
        self.sink("out", s, frame, *columns, self.values(s.expr, frame))

    def _ExpandWs(self, s: ExpandWs, frame):
        pass

    _CompressWs = _ExpandWs


def interpret(program: Program, env: dict):
    """Execute a lowered Program against concrete tensor bindings.

    The Program runs as whole-array numpy passes (`_ArrayRun`), its
    co-iteration loops as merges, and any loop whose frame would pass
    `_MAX_FRAME_ROWS` rows in parts that fit. The output strategy, read
    here alone, finishes the output's writes: a DenseTensor for a dense
    output, else the SparseStorage of the writes as inserted or updated in
    place, or merged under the workspace and the dense store.
    """
    kernel = program.kernel
    out_type = kernel.output_type
    if out_type.is_sparse:
        # The output's leading dense levels are checked before the loops
        # run: `_build_levels` would check them only once every entry is
        # collected.
        _check_leading_dense(out_type)
    else:
        seed = _dense_output(kernel, env)
    writes = _ArrayRun(program, env).run()
    columns, values = _no_entries(out_type.rank) if writes is None else (writes[:-1], writes[-1])
    if not out_type.is_sparse:
        out = np.zeros(math.prod(out_type.shape)) if seed is None else seed.copy()
        np.add.at(out, _row_key(columns, out_type.shape, len(values)), values)
        return DenseTensor(out_type, _read_only(out))
    strat = program.strategy.kind
    if strat is StrategyKind.DIRECT_LEX or strat is StrategyKind.IN_PLACE:
        return _sparse_output(out_type, columns, values)
    # The dense store's and the workspace's writes: each coordinate's summed
    # from 0.0 in loop order, as a dense buffer or the workspace adds them.
    order = [columns[out_type.encoding.dim_of_level(l)] for l in range(out_type.rank)]
    rows, sums = _merge_runs(order, out_type.storage_shape(), values)
    del writes, values  # the unsorted values, freed before the gathers
    if strat is StrategyKind.DENSE_STORE:
        # The sums exactly zero dropped, as packing a dense buffer drops
        # them; the workspace stores its touched coordinates, zero or not.
        keep = sums != 0.0
        rows, sums = (keep if rows is None else rows[keep]), sums[keep]
    if rows is not None:
        columns = [c[rows] for c in columns]
    return _build_levels(out_type, [_read_only(c) for c in columns], sums)


# ----------------------------------------------------------------------------
# End-to-end driver


def _coerce(value: TensorValue, ttype: TensorType, name: str) -> TensorValue:
    """The binding `value` of tensor `name` as a value of its declared
    `ttype`. A DenseTensor for a dense type, and a SparseStorage stored in
    the declared layout (`_same_layout`) for a sparse one, are read as
    stored: the storage is adopted under `ttype` (`with_type`), which
    checks only its widths. Anything else is converted."""
    if value.shape != ttype.shape:
        raise ShapeMismatch(
            f"tensor {name!r} declared with shape {ttype.shape}, bound with {value.shape}"
        )
    if ttype.is_sparse:
        if isinstance(value, SparseStorage) and _same_layout(value.ttype, ttype):
            return value.with_type(ttype)
    elif isinstance(value, DenseTensor):
        return value
    return convert(value, ttype)


def _empty_value(ttype: TensorType, name: str) -> TensorValue:
    if ttype.is_sparse:
        return _build_levels(ttype, *_no_entries(ttype.rank))
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
    piece's dimension orderings admit no loop order, and NestingTooDeep
    when its expression is too deep for the recursive walks.
    """
    with nesting_guard(kernel):
        pieces = prepare_kernels(kernel)
        return tuple(lower(p, topo_sort(build_iteration_graph(p))) for p in pieces)


def _operands(kernel: Kernel, programs: tuple) -> dict:
    """The tensors `execute` binds before it runs `programs`, in the order
    they are first read, each with its type declared in `kernel`: every
    tensor a piece reads that no earlier piece writes, and the output when
    `kernel` accumulates into it."""
    temp_names = {program.kernel.lhs.tensor for program in programs[:-1]}
    operands: dict = {}
    for program in programs:
        for access in program.kernel.analysis.accesses:
            if access.tensor not in temp_names:
                operands.setdefault(access.tensor, kernel.tensors[access.tensor])
    if kernel.accumulate:
        operands.setdefault(kernel.lhs.tensor, kernel.tensors[kernel.lhs.tensor])
    return operands


def execute(kernel: Kernel, programs: tuple, inputs: dict):
    """Run the Programs `compile_kernel` made for `kernel` on the inputs.

    Coerces the inputs to their types in `kernel` (`_coerce`) and
    interprets each Program in turn, binding each temporary for the next.
    Bit widths never change a loop, so the Programs may have been compiled
    for a kernel whose tensors differ from `kernel`'s only in their widths:
    a sparse result is adopted under `kernel`'s output type (`with_type`),
    which checks its widths. Inputs and the result are as in `run_kernel`.
    Past the float64 range a sum or product rounds to inf, and inf - inf
    or 0 * inf to nan, silently, as the reference loops and `dense_eval`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
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
            env[program.kernel.lhs.tensor] = result
    if isinstance(result, SparseStorage):
        return result.with_type(kernel.output_type)
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
