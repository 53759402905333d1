"""Execution: run loop IR over packed storage, end to end.

`run_kernel` is the library entry point. `compile_kernel` normalizes the
kernel (accumulating sparse outputs are rewritten to read the previous
output; scoped reductions are split into temporaries), orders the loops
and lowers each piece to an IR Program; `execute` coerces the inputs and
interprets the Programs. The interpreter writes each Program, over the
concrete bindings, as the source of one Python function whose loop
variables and positions are locals, and `exec`s it once. That function is
the Python form of the IR that `codegen.emit_text` prints, so results stay
auditable against the emitted text.

Tensors bound as inputs are never mutated; the in-place strategy writes
into a fresh copy of the output's values array.
"""

from dataclasses import replace
from typing import Optional, Union

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
from .errors import ShapeMismatch, UnknownTensor, UnsupportedKernel
from .expr import (
    Access,
    Add,
    Kernel,
    Mul,
    Neg,
    Sub,
    analyze_reductions,
    split_for_whole_expr_reduction,
    walk,
)
from .lattice import build_iteration_graph, build_lattice, topo_sort
from .storage import (
    CooTensor,
    DenseTensor,
    SparseStorage,
    StorageBuilder,
    compress,
    expand,
    pack,
    unpack,
)

TensorValue = Union[SparseStorage, DenseTensor, CooTensor]


# ----------------------------------------------------------------------------
# Conversion


def convert(value: TensorValue, to_type: Union[TensorType, Encoding, None]) -> TensorValue:
    """Re-materialize a tensor in another format.

    Sparse-to-sparse goes through the coordinate intermediate rather than
    any direct scheme. Dense-to-sparse keeps only nonzeros;
    sparse-to-dense scatters every stored element into a zero buffer.
    `to_type` may be a TensorType, a bare Encoding, or None for dense.
    """
    if isinstance(to_type, Encoding):
        to_type = TensorType(_shape_of(value), to_type)
    elif to_type is None:
        to_type = TensorType(_shape_of(value))
    if _shape_of(value) != to_type.shape:
        raise ShapeMismatch(f"cannot convert shape {_shape_of(value)} to {to_type.shape}")
    if to_type.is_sparse:
        if isinstance(value, SparseStorage):
            return pack(unpack(value), to_type.encoding)
        if isinstance(value, DenseTensor):
            return pack(value.to_coo(drop_zeros=True), to_type.encoding)
        return pack(value, to_type.encoding)
    out = DenseTensor.zeros(to_type.shape)
    if isinstance(value, SparseStorage):
        for coords, v in value.iterate():
            out.set(coords, v)
    elif isinstance(value, DenseTensor):
        out = DenseTensor(value.shape, list(value.data))
    else:
        out = value.to_dense()
    return out


def _shape_of(value: TensorValue) -> tuple:
    return value.shape


# ----------------------------------------------------------------------------
# Interpreter

# CPython compiles at most 20 statically nested loops into one function.
_MAX_LOOP_DEPTH = 20


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
        self.lines = ["def program():"]
        self.loops = 0

    def _binding(self, uid: int):
        ref = self.p.accesses[uid]
        try:
            return self.env[ref.tensor]
        except KeyError:
            raise UnknownTensor(f"no binding for tensor {ref.tensor!r}")

    def _global(self, name: str, array) -> str:
        self.globals[name] = array
        return name

    def _position(self, uid: int, upto: Optional[int] = None) -> str:
        """Flat position of access `uid` after its first `upto` levels."""
        ref = self.p.accesses[uid]
        value = self._binding(uid)
        # Positions at a compressed level are absolute, so the walk only
        # needs the dense levels after the last compressed one.
        src = None
        if isinstance(value, DenseTensor):
            steps = list(zip(ref.indices, value.shape))
        else:
            enc = value.encoding
            sshape = value.ttype.storage_shape()
            steps = []
            for level in range(value.rank if upto is None else upto):
                if enc.levels[level] is COMPRESSED:
                    src, steps = f"q{uid}_{level}", []
                else:
                    steps.append((ref.indices[enc.dim_of_level(level)], sshape[level]))
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
        ptrs = self._global(f"P{it}", self._binding(s.uid).pointers[s.level])
        parent = self._position(s.uid, upto=s.level)
        self.line(depth, f"q{it} = {ptrs}[{parent}]")
        self.line(depth, f"h{it} = {ptrs}[{parent} + 1]")

    def _LoadVal(self, s: LoadVal, depth):
        value = self._binding(s.uid)
        data = value.data if isinstance(value, DenseTensor) else value.values
        name = self._global(f"V{s.uid}", data)
        self.line(depth, f"x{s.uid} = {name}[{self._position(s.uid)}]")

    def _ForDense(self, s: ForDense, depth):
        header = f"for {self.var[s.var]} in range({s.extent}):"
        self.loop(depth, header, lambda: self.block(s.body, depth + 1))

    def _ForPositions(self, s: ForPositions, depth):
        it = f"{s.uid}_{s.level}"
        idx = self._global(f"I{it}", self._binding(s.uid).indices[s.level])

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
                idx = self._global(f"I{it}", self._binding(uid).indices[level])
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
        self.line(depth, f"insert({self._tuple(s.coords)}, {self._expr(s.expr)})")

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
        self.line(depth, f"compress(ws, builder, {self._tuple(s.prefix)})")

    def _StoreInPlace(self, s: StoreInPlace, depth):
        self.line(depth, f"out[q{s.uid}_{s.level}] = {self._expr(s.expr)}")

    def function(self, **bound):
        """Generate the source, `exec` it once, and return the function."""
        self.block(self.p.body, 0)
        namespace = dict(self.globals, **bound)
        exec("\n".join(self.lines) + "\n", namespace)
        # Popped, so that the function and its globals form no cycle.
        return namespace.pop("program")


def interpret(program: Program, env: dict):
    """Execute a lowered Program against concrete tensor bindings.

    The Program runs as one generated Python function; the output is a
    dense buffer, a copy of the in-place output's values, or a
    StorageBuilder, according to the Program's output strategy.
    """
    kernel = program.kernel
    out_type = kernel.output_type
    out_name = kernel.lhs.tensor
    strat = program.strategy.kind
    generator = _Generator(program, env)
    if strat is StrategyKind.DENSE_STORE:
        seed = env.get(out_name) if kernel.accumulate else None
        if seed is not None:
            out = list(seed.data)
        else:
            out = [0.0] * DenseTensor.zeros(out_type.shape).volume
        generator.function(out=out)()
        return DenseTensor(out_type.shape, out)
    if strat is StrategyKind.IN_PLACE:
        base = env[out_name]
        out = list(base.values)
        generator.function(out=out)()
        return SparseStorage(base.ttype, base.pointers, base.indices, tuple(out))
    builder = StorageBuilder(out_type)
    generator.function(builder=builder, insert=builder.insert)()
    return builder.finalize()


# ----------------------------------------------------------------------------
# End-to-end driver


def _coerce(value: TensorValue, ttype: TensorType, name: str) -> TensorValue:
    if _shape_of(value) != ttype.shape:
        raise ShapeMismatch(
            f"tensor {name!r} declared with shape {ttype.shape}, bound with "
            f"{_shape_of(value)}"
        )
    if ttype.is_sparse:
        if isinstance(value, SparseStorage) and value.ttype == ttype:
            return value
        return convert(value, ttype)
    if isinstance(value, DenseTensor):
        return value
    return convert(value, None)


def _empty_value(ttype: TensorType) -> TensorValue:
    if ttype.is_sparse:
        return StorageBuilder(ttype).finalize()
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

    Prepares the pieces (`prepare_kernels`), orders each one's loops,
    builds its merge lattices and lowers it. Raises `OrderConflict` when a
    piece's dimension orderings admit no loop order.
    """
    programs = []
    for piece in prepare_kernels(kernel):
        if piece.analysis is None:
            piece = analyze_reductions(piece)
        topo = topo_sort(build_iteration_graph(piece))
        lattices = {v: build_lattice(piece, v) for v in topo}
        programs.append(lower(piece, topo, lattices))
    return tuple(programs)


def execute(kernel: Kernel, programs: tuple, inputs: dict):
    """Run the Programs `compile_kernel` made for `kernel` on the inputs.

    Coerces the inputs, interprets each Program in turn (binding each
    temporary for the next), and packs a dense-fallback result into the
    declared sparse format. Inputs and the result are as in `run_kernel`.
    """
    pieces = [program.kernel for program in programs]
    out_name = kernel.lhs.tensor
    temp_names = {piece.lhs.tensor for piece in pieces[:-1]}
    env: dict = {}
    for piece in pieces:
        for _, node in walk(piece.rhs):
            if not isinstance(node, Access) or node.tensor in env:
                continue
            if node.tensor in temp_names:
                continue
            declared = piece.tensors[node.tensor]
            if node.tensor in inputs:
                env[node.tensor] = _coerce(inputs[node.tensor], declared, node.tensor)
            elif node.tensor == out_name:
                env[node.tensor] = _empty_value(declared)
            else:
                raise UnknownTensor(f"no binding for input tensor {node.tensor!r}")
    if kernel.accumulate and out_name not in env:
        declared = kernel.tensors[out_name]
        if out_name in inputs:
            env[out_name] = _coerce(inputs[out_name], declared, out_name)
        else:
            env[out_name] = _empty_value(declared)
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
