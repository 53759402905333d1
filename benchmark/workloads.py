"""The benchmark's four workloads.

Each workload turns a seed into cases (inputs, kernel text and an
independent reference result), and knows the op it runs on a case, the
traced form of that op, and how to check what the op returns.

- spmspm: C = A*B, CSR x CSR -> CSR, n=1024 at density 0.01. The
  acceptance workload of the roadmap; the sparse output goes through the
  expand/compress workspace and the element-by-element storage builder,
  so it stresses the storage write side.
- spmv: x = A*v, A a row-band CSR matrix (n=4096, 32 dense rows, 131k
  nonzeros) and v dense. Coercing A from COO dominates and the output is
  dense, so it stresses the storage read side and bypasses the builder.
- format_sweep: one format search over all 200 encodings of A, bit widths
  included, for C = A*B with A 16x16 at density 0.05 and B, C dense. The
  paper's format-invariance search: 200 compilations and every level type
  and ordering in the interpreter, with tiny inputs. The matrices are a
  quarter of the acceptance test's 64x64 so that a run holds dozens of
  sweeps; with a few, its medians moved with the machine's speed.
- kernel_mix: one run of a small random kernel per op, drawn from the
  oracle-equivalence family. The only workload where parsing, lattices and
  lowering dominate, and where every output strategy but in-place
  appears; it also shows fixed costs that bulk paths add to small inputs.
"""

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

import inputs
import reference
import spans
from reference import Mismatch
from sparsec.cli import result_checksum, run_search
from sparsec.codegen import choose_output_strategy, lower
from sparsec.encoding import enumerate_encodings
from sparsec.engine import prepare_kernels, run_kernel
from sparsec.errors import OrderConflict
from sparsec.expr import Kernel, analyze_reductions, parse_kernel
from sparsec.lattice import build_iteration_graph, build_lattice, topo_sort

FLOAT_RTOL = 1e-10  # relative tolerance for float results whose summation order may differ

SPMSPM = (
    "tensor A({n}, {n}) format(dense, compressed)\n"
    "tensor B({n}, {n}) format(dense, compressed)\n"
    "tensor C({n}, {n}) format(dense, compressed)\n"
    "C(i, j) = A(i, k) * B(k, j)\n"
)
SPMV = (
    "tensor A({n}, {n}) format(dense, compressed)\n"
    "tensor v({n})\n"
    "tensor x({n})\n"
    "x(i) = A(i, j) * v(j)\n"
)
SWEEP = (
    "tensor A({n}, {n}) {fmt}\n"
    "tensor B({n}, {n})\n"
    "tensor C({n}, {n})\n"
    "C(i, j) = A(i, k) * B(k, j)\n"
)
SWEPT = "A"
SWEEP_ENCODINGS = len(list(enumerate_encodings(2, True)))
MIX_DRAWS = 3000


@dataclass
class Case:
    """One op's inputs and the reference result it is checked against."""

    text: str
    bindings: dict  # operand name -> CooTensor
    want: np.ndarray
    rtol: float  # 0.0 demands identical values
    compile_texts: tuple = ()  # kernels the op compiles; default (text,)

    def __post_init__(self):
        self.compile_texts = self.compile_texts or (self.text,)

    @cached_property
    def kernel(self) -> Kernel:
        return parse_kernel(self.text)

    @cached_property
    def checksum(self) -> str:
        return reference.checksum(self.want)


@dataclass
class Workload:
    name: str
    make_cases: Callable  # seed -> (cases, set-up counts by per-layer metric name)
    search: bool = False

    def op(self, case: Case):
        """The timed call: parse, then run (or search) the kernel."""
        if self.search:
            return run_search(parse_kernel(case.text), case.bindings, SWEPT, include_widths=True)
        return run_kernel(parse_kernel(case.text), case.bindings)

    def outcome(self, result):
        """What `check` compares: the result, or a search's checksums."""
        return [row.checksum for row in result] if self.search else result

    def traced(self, trace: spans.OpTrace, case: Case, include_widths: bool = True):
        """The op by the traced runner; returns an outcome for `check`.

        Without `include_widths` a search covers only the native-width
        encodings. Widths are range checks that allocate nothing, so that
        subset has the whole search's memory peaks at a 25th of its cost.
        """
        if self.search:
            return spans.run_search_traced(
                trace, case.text, case.bindings, SWEPT, include_widths
            )
        return spans.run_kernel_traced(trace, case.text, case.bindings)

    def check(self, case: Case, outcome) -> None:
        if not self.search:
            got = reference.result_array(outcome, case.kernel.output_type)
            reference.compare(got, case.want, case.rtol)
            return
        if len(outcome) != SWEEP_ENCODINGS:
            raise Mismatch(f"{len(outcome)} search rows, expected {SWEEP_ENCODINGS}")
        distinct = set(outcome)
        if distinct != {case.checksum}:
            raise Mismatch(f"search checksums {sorted(distinct)}, reference {case.checksum}")


def compile_kernel(text: str) -> None:
    """Kernel text to lowered Programs: the compile half of an op."""
    for piece in prepare_kernels(parse_kernel(text)):
        if piece.analysis is None:
            piece = analyze_reductions(piece)
        topo = topo_sort(build_iteration_graph(piece))
        lower(piece, topo, {v: build_lattice(piece, v) for v in topo})


def search_bookkeeping(case: Case, result) -> None:
    """What `run_search` adds around each row's `run_kernel` call."""
    final = prepare_kernels(case.kernel)[-1]
    choose_output_strategy(final, topo_sort(build_iteration_graph(final))).describe()
    result_checksum(result)


def _cross_check(text: str, dense_inputs: dict, want: np.ndarray, rtol: float) -> None:
    # A reference is trusted at scale only after it agrees with the dense
    # oracle on a small draw from the same generator.
    got = reference.oracle(parse_kernel(text), dense_inputs)
    try:
        reference.compare(want, got, rtol)
    except Mismatch as e:
        raise Mismatch(f"reference disagrees with dense_eval: {e}") from None


def _rng(seed: int, stream: int):
    return np.random.default_rng([seed, stream])


def spmspm_cases(seed: int, n: int = 1024, density: float = 0.01):
    small = _rng(seed, 1)
    a, b = (inputs.uniform_matrix(small, (24, 24), 0.1) for _ in range(2))
    _cross_check(
        SPMSPM.format(n=24), {"A": a.dense(), "B": b.dense()},
        reference.spmspm_reference(a, b), FLOAT_RTOL,
    )
    rng = _rng(seed, 0)
    a, b = (inputs.uniform_matrix(rng, (n, n), density) for _ in range(2))
    want = reference.spmspm_reference(a, b)
    return [Case(SPMSPM.format(n=n), {"A": a.coo(), "B": b.coo()}, want, FLOAT_RTOL)], {}


def spmv_cases(seed: int, n: int = 4096, dense_rows: int = 32):
    small = _rng(seed, 1)
    a = inputs.rowband_matrix(small, 32, 4)
    _, v = inputs.dense_vector(small, 32)
    _cross_check(
        SPMV.format(n=32), {"A": a.dense(), "v": v}, reference.spmv_reference(a, v), FLOAT_RTOL
    )
    rng = _rng(seed, 0)
    a = inputs.rowband_matrix(rng, n, dense_rows)
    v_coo, v = inputs.dense_vector(rng, n)
    want = reference.spmv_reference(a, v)
    return [Case(SPMV.format(n=n), {"A": a.coo(), "v": v_coo}, want, FLOAT_RTOL)], {}


def sweep_cases(seed: int, n: int = 16, density: float = 0.05):
    small = _rng(seed, 1)
    a, b = inputs.uniform_matrix(small, (8, 8), 0.2), inputs.dense_matrix(small, (8, 8))
    _cross_check(
        SWEEP.format(n=8, fmt="format(dense, compressed)"), {"A": a.dense(), "B": b.dense()},
        reference.ordered_matmul(a.dense(), b.dense()), 0.0,
    )
    rng = _rng(seed, 0)
    a, b = inputs.uniform_matrix(rng, (n, n), density), inputs.dense_matrix(rng, (n, n))
    texts = tuple(SWEEP.format(n=n, fmt=enc.describe()) for enc in enumerate_encodings(2, True))
    want = reference.ordered_matmul(a.dense(), b.dense())
    case = Case(texts[0], {"A": a.coo(), "B": b.coo()}, want, 0.0, compile_texts=texts)
    return [case], {}


def _dense(coo) -> np.ndarray:
    out = np.zeros(coo.shape)
    for coords, value in coo.entries:
        out[coords] = value
    return out


def mix_cases(seed: int, draws: int = MIX_DRAWS):
    """Kernels whose loop orders conflict are dropped here, and counted."""
    rng = random.Random(seed)
    cases, conflicts = [], 0
    for draw in range(draws):
        integer_data = draw % 2 == 0
        text, bindings = inputs.random_kernel(rng, integer_data)
        kernel = parse_kernel(text)
        try:
            for piece in prepare_kernels(kernel):
                topo_sort(build_iteration_graph(piece))
        except OrderConflict:
            conflicts += 1
            continue
        want = reference.oracle(kernel, {name: _dense(v) for name, v in bindings.items()})
        cases.append(Case(text, bindings, want, 0.0 if integer_data else FLOAT_RTOL))
    return cases, {"lattice.order_conflicts": conflicts}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spmspm", spmspm_cases),
        Workload("spmv", spmv_cases),
        Workload("format_sweep", sweep_cases, search=True),
        Workload("kernel_mix", mix_cases),
    )
}
