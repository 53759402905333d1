"""The traced runner: `run_kernel`'s sequence, step by step, under spans.

The program has no trace of its own yet, so the traced run repeats what
`run_kernel` does using each module's public functions, and wraps a span
around every call. A span keeps its op, its name and its duration, and,
when memory tracing is on, the tracemalloc peak above the level at its
start. Counts are taken at the same boundaries, outside the spans.

Inputs are CooTensors in every workload and no workload accumulates into
or reads its own output, so the runner leaves out `run_kernel`'s handling
of those cases.
"""

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace

from sparsec.cli import result_checksum
from sparsec.codegen import emit_text, lower
from sparsec.encoding import TensorType, enumerate_encodings
from sparsec.engine import convert, interpret, prepare_kernels
from sparsec.errors import OrderConflict
from sparsec.expr import Access, analyze_reductions, parse_kernel, walk
from sparsec.lattice import build_iteration_graph, build_lattice, topo_sort
from sparsec.storage import DenseTensor, SparseStorage

MB = 1 << 20
# The runner's own counting work gets a span too, so that the op time left
# outside every span is the program's, not the benchmark's.
COUNTING = "trace.counting"


class OpTrace:
    """Spans and counts of one op."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.ms = defaultdict(float)  # span name -> total duration
        self.peak_mb = defaultdict(float)  # span name -> highest peak
        self.counts = defaultdict(int)
        self.wall_ms = 0.0

    @contextmanager
    def span(self, name: str):
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        started = time.perf_counter()
        try:
            yield
        finally:
            self.ms[name] += (time.perf_counter() - started) * 1e3
            if self.memory:
                peak = (tracemalloc.get_traced_memory()[1] - base) / MB
                self.peak_mb[name] = max(self.peak_mb[name], peak)

    @property
    def unaccounted_ms(self) -> float:
        return self.wall_ms - sum(self.ms.values())


@contextmanager
def traced_op(memory: bool):
    """Yield a fresh OpTrace and time the whole op into its `wall_ms`."""
    trace = OpTrace(memory)
    if memory:
        tracemalloc.start()
    started = time.perf_counter()
    try:
        yield trace
    finally:
        trace.wall_ms = (time.perf_counter() - started) * 1e3
        if memory:
            tracemalloc.stop()


def _stored(result) -> tuple:
    values = result.values if isinstance(result, SparseStorage) else result.data
    return len(values), sum(1 for v in values if v != 0.0)


def execute(trace: OpTrace, kernel, inputs: dict):
    """`run_kernel(kernel, inputs)`, one public call per span."""
    with trace.span("engine.prepare_kernels"):
        pieces = prepare_kernels(kernel)
    trace.counts["expr.pieces"] += len(pieces)
    temp_names = {piece.lhs.tensor for piece in pieces[:-1]}
    env = {}
    for piece in pieces:
        for _, node in walk(piece.rhs):
            if not isinstance(node, Access) or node.tensor in env or node.tensor in temp_names:
                continue
            declared = piece.tensors[node.tensor]
            value = inputs[node.tensor]
            trace.counts["storage.pack.nnz_in"] += len(value.entries)
            with trace.span("storage.pack"):
                env[node.tensor] = convert(value, declared if declared.is_sparse else None)
    result = None
    for piece in pieces:
        with trace.span("lattice.schedule"):
            if piece.analysis is None:
                piece = analyze_reductions(piece)
            topo = topo_sort(build_iteration_graph(piece))
        with trace.span("lattice.build_lattice"):
            lattices = {v: build_lattice(piece, v) for v in topo}
        with trace.span("codegen.lower"):
            program = lower(piece, topo, lattices)
        with trace.span(COUNTING):
            trace.counts["lattice.points"] += sum(len(lat.points) for lat in lattices.values())
            trace.counts["codegen.ir_lines"] += emit_text(program).count("\n")
            trace.counts[f"codegen.strategy.{program.strategy.kind.value}"] += 1
        with trace.span("engine.interpret"):
            result = interpret(program, env)
        fallback = piece.output_type.is_sparse and isinstance(result, DenseTensor)
        if fallback:
            with trace.span(COUNTING):
                trace.counts["engine.dense_fallback.volume"] += len(result.data)
                trace.counts["engine.dense_fallback.nnz"] += _stored(result)[1]
        with trace.span("engine.finalize"):
            if fallback:
                result = convert(result, piece.output_type)
        env[piece.lhs.tensor] = result
    with trace.span(COUNTING):
        stored, nnz = _stored(result)
        trace.counts["storage.out.stored"] += stored
        trace.counts["storage.out.nnz"] += nnz
    return result


def run_kernel_traced(trace: OpTrace, text: str, inputs: dict):
    """Parse `text`, then `execute` it: the traced form of one run op."""
    with trace.span("expr.parse_kernel"):
        kernel = parse_kernel(text)
    return execute(trace, kernel, inputs)


def run_search_traced(
    trace: OpTrace, text: str, inputs: dict, swept: str, include_widths: bool
) -> list:
    """The traced form of one search op: `execute` under every encoding of
    `swept`. Returns the result checksums."""
    with trace.span("expr.parse_kernel"):
        kernel = parse_kernel(text)
    checksums = []
    for enc in enumerate_encodings(kernel.tensors[swept].rank, include_widths):
        tensors = dict(kernel.tensors)
        tensors[swept] = TensorType(tensors[swept].shape, enc)
        try:
            result = execute(trace, replace(kernel, tensors=tensors, analysis=None), inputs)
        except OrderConflict:
            trace.counts["lattice.order_conflicts"] += 1
            continue
        with trace.span("cli.result_checksum"):
            checksums.append(result_checksum(result))
    return checksums
