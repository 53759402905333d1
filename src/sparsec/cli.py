"""Command-line surface: run kernels, convert formats, emit compiler
internals, sweep the format state space, and run desk-scale benchmarks.

Every error exits nonzero with a single diagnostic line of the form
`sparsec: error[Category]: message`.
"""

import argparse
import csv
import hashlib
import math
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .codegen import emit_text
from .encoding import (
    COMPRESSED,
    DENSE,
    Encoding,
    csc,
    csr,
    dcsc,
    dcsr,
    enumerate_encodings,
    make_encoding,
)
from .engine import (
    _coerce,
    _operands,
    compile_kernel,
    convert,
    execute,
    prepare_kernels,
    run_kernel,
)
from .errors import OracleMismatch, OrderConflict, ParseError, SparsecError
from .expr import Kernel, expr_to_text, nesting_guard, parse_encoding, parse_kernel
from .lattice import (
    access_display_names,
    build_iteration_graph,
    build_lattice,
    lattice_to_text,
    topo_sort,
)
from .oracle import GeneratorSpec, dense_eval, density, generate
from .storage import DenseTensor
from .tensor_io import _read_text, read_dense_literal, read_sparse_literal, read_tensor, write_tensor


def _nonzero_arrays(result):
    """The coordinate columns and values of `result`'s nonzeros: duplicates
    summed, zero sums dropped, sorted by logical coordinates."""
    return result.to_coo(drop_zeros=True).arrays()


def _checksum(columns, values) -> str:
    """The hash of the `;`-joined `coords:repr(value)` texts, each `coords`
    spelled as `str` spells a tuple of ints; built from whole columns."""
    rank = len(columns)
    spec = "(" + ", ".join(["{}"] * rank) + ("," if rank == 1 else "") + "):{!r}"
    text = ";".join(map(spec.format, *[c.tolist() for c in columns], values.tolist()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_checksum(result) -> str:
    """Encoding-independent content hash: sorted nonzero COO entries."""
    return _checksum(*_nonzero_arrays(result))


# ----------------------------------------------------------------------------
# Argument helpers

_NAMED_ENCODINGS = {
    "csr": csr,
    "csc": csc,
    "dcsr": dcsr,
    "dcsc": dcsc,
}


def parse_encoding_text(text: str) -> Optional[Encoding]:
    """Parse `csr|csc|dcsr|dcsc|dense` or the kernel DSL's clauses, like
    `format(compressed,dense) order(1,0) ptr(32) idx(32)`
    (`expr.parse_encoding`)."""
    text = text.strip()
    if text == "dense":
        return None
    if text in _NAMED_ENCODINGS:
        return _NAMED_ENCODINGS[text]()
    return parse_encoding(text)


def _read_value(spec: str):
    """A `dense:` literal, a `sparse<...>(...)` literal, or a tensor file."""
    if spec.startswith("dense:"):
        return read_dense_literal(spec[len("dense:") :])
    if spec.startswith("sparse"):
        return read_sparse_literal(spec)
    return read_tensor(spec)


def parse_input_spec(spec: str, shape: tuple, default_seed: int):
    """Resolve one --input value: a generator of `shape`, or `_read_value`.
    A spec is a generator's when it is `uniform`, `rowband` or `identity`,
    or starts with one of them and a colon. An empty argument, more than
    two (any for `identity`), one that does not convert or a spec that
    `GeneratorSpec` refuses is a ParseError."""
    kind, colon, rest = spec.partition(":")
    if kind not in ("uniform", "rowband", "identity"):
        return _read_value(spec)
    args = rest.split(":") if colon else []
    try:
        if kind == "identity" and args:
            raise ValueError("identity takes no arguments")
        if len(args) > 2:
            raise ValueError(f"{kind} takes at most 2 arguments")
        if "" in args:
            raise ValueError("empty argument")
        arg1, arg2 = args + [None] * (2 - len(args))
        seed = int(arg2) if arg2 is not None else default_seed
        if kind == "uniform":
            gen = GeneratorSpec(shape, "uniform", density=float(arg1 or 0.1), seed=seed)
        elif kind == "rowband":
            gen = GeneratorSpec(shape, "rowband", dense_rows=int(arg1 or 1), seed=seed)
        else:
            gen = GeneratorSpec(shape, "identity", seed=seed)
    except ValueError as e:
        raise ParseError(f"bad generator spec {spec!r}: {e}") from None
    return generate(gen)


def _bind_inputs(kernel, input_args, seed: int) -> dict:
    bindings = {}
    for item in input_args or []:
        if "=" not in item:
            raise ParseError(f"--input needs NAME=SPEC, got {item!r}")
        name, spec = item.split("=", 1)
        if name not in kernel.tensors:
            raise ParseError(f"--input names unknown tensor {name!r}")
        bindings[name] = parse_input_spec(spec, kernel.tensors[name].shape, seed)
    return bindings


def _write_result(result, path: str):
    """Write a dense result's nonzeros, or every stored entry of a sparse
    one, explicit zeros included."""
    write_tensor(result.to_coo(drop_zeros=isinstance(result, DenseTensor)), path)


# ----------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    kernel = parse_kernel(_read_text(args.kernel_file))
    bindings = _bind_inputs(kernel, args.input, args.seed)
    started = time.perf_counter()
    result = run_kernel(kernel, bindings)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if args.output:
        _write_result(result, args.output)
    nnz = np.count_nonzero(result.arrays()[1])
    rho = nnz / math.prod(result.shape)
    print(f"output {kernel.lhs.tensor}: nnz {nnz}, density {rho:.6f}, time {elapsed_ms:.1f} ms")
    return 0


def cmd_convert(args) -> int:
    value = convert(_read_value(args.input), parse_encoding_text(args.src_format))
    _write_result(convert(value, parse_encoding_text(args.dst_format)), args.output)
    return 0


def cmd_emit(args) -> int:
    kernel = parse_kernel(_read_text(args.kernel_file))
    # The recursive walks below fail as NestingTooDeep on a kernel too deep
    # for them, as in `compile_kernel`.
    with nesting_guard(kernel):
        if args.emit == "ir":
            sys.stdout.write("\n".join(emit_text(program) for program in compile_kernel(kernel)))
            return 0
        pieces = prepare_kernels(kernel)
        chunks = []
        for piece in pieces:
            graph = build_iteration_graph(piece)
            topo = topo_sort(graph)
            if args.emit == "graph":
                lines = [f"graph for {expr_to_text(piece.lhs)}:"]
                lines += [f"  node {v}" for v in graph.nodes]
                lines += [
                    f"  edge {u} -> {v}  ({', '.join(ts)})"
                    for (u, v), ts in sorted(graph.edges.items())
                ]
                lines.append(f"  topo order: {', '.join(topo)}")
                chunks.append("\n".join(lines) + "\n")
            else:
                # The piece's analysis tagged its accesses once; every lattice
                # below is built over that same tagged right-hand side.
                names = access_display_names(piece.analysis.accesses)
                lines = [f"lattices for {expr_to_text(piece.lhs)}:"]
                for var in topo:
                    lat = build_lattice(piece, var)
                    lines.append(lattice_to_text(lat, names))
                chunks.append("\n".join(lines) + "\n")
        sys.stdout.write("\n".join(chunks))
        return 0


@dataclass
class SearchRow:
    encodings: dict  # swept operand name -> Encoding
    opt: str
    time_ms: float
    checksum: str


def _result_key(result):
    """Bytes that fix `result`'s nonzeros: a dense result's shape and data,
    or a sparse one's layout (widths aside) and level and value arrays.
    Equal keys mean equal nonzeros."""
    if isinstance(result, DenseTensor):
        return result.shape, result.data.tobytes()
    enc = result.encoding
    arrays = [a.tobytes() for l in range(result.rank) for a in result.level_arrays(l)]
    return (result.shape, enc.levels, enc.ordering, *arrays, result.value_array.tobytes())


def run_search(kernel, bindings, sweep, include_widths: bool) -> list:
    """Run one kernel under every encoding of the swept operand(s).

    `sweep` is one operand name or a list of names; with several, the
    cartesian product of their encoding spaces is explored and any
    combination whose loop orderings conflict is skipped. The computed
    result must not depend on the storage annotation, so a checksum
    divergence is reported as a compiler bug by the caller.

    Bit widths never change a loop, so the rows that differ only in the
    widths of the swept operands form a group: its first row compiles the
    Programs and packs the swept operands with native widths. Every row of
    the group runs those Programs as they are, under its own kernel, which
    `execute` coerces the operands to: each packed operand is adopted under
    the row's widths with only those checked, as is a binding stored in
    the group's layout, and so is a swept output. A group whose orderings
    conflict is skipped whole. Every row executes. So that a row pays for
    its loops and its width checks alone, its kernel is built directly,
    its swept types re-typed from the declared ones (`with_encoding`,
    which checks only the new encodings' ranks), each width check compares
    against the packed arrays' largest values, taken once per group
    (`SparseStorage.with_type`), and each Program derives its position
    recipes on its first run (`Program.positions`). Only the current group
    and the last result are held: a result whose own buffers
    (`_result_key`) equal the last one's reuses its checksum.
    """
    import itertools

    names = [sweep] if isinstance(sweep, str) else list(sweep)
    coerced = None  # the bindings, with the operands not swept coerced once
    group = programs = None  # the current group's key and Programs (None: conflict)
    content = checksum = None  # the last result's `_result_key`, its checksum
    spaces = [
        list(enumerate_encodings(kernel.tensors[name].rank, include_widths))
        for name in names
    ]
    rows = []
    for combo in itertools.product(*spaces):
        types = {name: kernel.tensors[name].with_encoding(enc) for name, enc in zip(names, combo)}
        swept = Kernel(kernel.lhs, kernel.rhs, {**kernel.tensors, **types}, kernel.accumulate)
        started = time.perf_counter()
        key = tuple((enc.levels, enc.ordering) for enc in combo)
        if key != group:
            group = key
            try:
                programs = compile_kernel(swept)
            except OrderConflict:
                programs = None
                continue
            if coerced is None:
                coerced = dict(bindings)
                for name, declared in _operands(swept, programs).items():
                    if name in bindings and name not in names:
                        coerced[name] = _coerce(bindings[name], declared, name)
            inputs = dict(coerced)
            for name, layout in zip(names, key):
                if name in bindings:
                    native = types[name].with_encoding(Encoding(*layout))
                    inputs[name] = _coerce(bindings[name], native, name)
        elif programs is None:
            continue
        result = execute(swept, programs, inputs)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        this = _result_key(result)
        if this != content:
            content, checksum = this, _checksum(*_nonzero_arrays(result))
        opt = programs[-1].strategy.describe()
        rows.append(SearchRow(dict(zip(names, combo)), opt, elapsed_ms, checksum))
    return rows


def cmd_search(args) -> int:
    kernel = parse_kernel(_read_text(args.kernel_file))
    bindings = _bind_inputs(kernel, args.input, args.seed)
    for name, value in bindings.items():
        # As for a literal: a dense operand visits its zeros (0 * inf =
        # nan) where a compressed one skips them. The values are checked
        # as the kernel reads them, with duplicates summed; a sum of zero
        # is finite, so those are dropped.
        if not np.isfinite(value.to_coo(drop_zeros=True).arrays()[1]).all():
            raise ParseError(f"input {name!r} holds a value that is not finite")
    sparse_inputs = [
        name
        for name, ttype in kernel.tensors.items()
        if ttype.is_sparse and name != kernel.lhs.tensor and name in bindings
    ]
    if args.sweep_all:
        sweep = sparse_inputs
        if not sweep:
            raise ParseError("--sweep-all found no bound sparse operands")
    elif args.sweep is not None:
        sweep = args.sweep
        if sweep not in bindings:
            raise ParseError(f"swept operand {sweep!r} has no --input binding")
    else:
        if len(sparse_inputs) != 1:
            raise ParseError(
                "pass --sweep NAME to choose the swept operand "
                f"(candidates: {sparse_inputs or 'none'})"
            )
        sweep = sparse_inputs[0]
    rows = run_search(kernel, bindings, sweep, args.encodings == "all")
    if not rows:
        raise OrderConflict(
            reason=f"every encoding of swept {sweep!r} leaves a loop-order conflict; no row ran"
        )
    out = open(args.output, "w", newline="") if args.output else sys.stdout

    def column(row, field):
        parts = []
        for name, enc in row.encodings.items():
            prefix = f"{name}=" if len(row.encodings) > 1 else ""
            if field == "levels":
                parts.append(prefix + ",".join(lt.value for lt in enc.levels))
            elif field == "ordering":
                parts.append(prefix + ",".join(str(p) for p in enc.ordering))
            elif field == "ptr":
                parts.append(prefix + str(enc.pointer_width))
            else:
                parts.append(prefix + str(enc.index_width))
        return ";".join(parts)

    try:
        writer = csv.writer(out)
        writer.writerow(["levels", "ordering", "ptr", "idx", "opt", "time_ms", "checksum"])
        for row in rows:
            writer.writerow(
                [
                    column(row, "levels"),
                    column(row, "ordering"),
                    column(row, "ptr"),
                    column(row, "idx"),
                    row.opt,
                    f"{row.time_ms:.2f}",
                    row.checksum,
                ]
            )
    finally:
        if args.output:
            out.close()
    checksums = {row.checksum for row in rows}
    if len(checksums) > 1:
        print(
            f"sparsec: error[ChecksumDivergence]: {len(checksums)} distinct results "
            f"across {len(rows)} encodings (compiler bug)",
            file=sys.stderr,
        )
        return 1
    print(f"{len(rows)} encodings, checksum uniform: {checksums.pop()}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------------
# Benchmarks

@dataclass(frozen=True)
class _BenchSuite:
    """One `sparsec bench` suite: a kernel checked against the dense oracle
    at a small scale, then timed at the requested one.

    `kernel`, the input specs, `header` and `line` are format strings over
    a run's fields: `small` for the check, or `scale(n)` merged with one
    of the `variants` for each timed run. The printed lines also see `best`
    and `median` (milliseconds over `_BENCH_RUNS` runs of the variant),
    `rho_out` (the result's density) and `rho_<input>`. Input specs are
    generators without a seed; the i-th input gets seed + i.
    """

    kernel: str
    inputs: dict  # tensor name -> generator spec
    small: dict
    default_scale: int
    scale: Callable[[int], dict]
    line: str
    header: str = ""
    variants: tuple = ({},)


_SPMSPM = (
    "tensor A({n}, {n}) format(dense, compressed)\n"
    "tensor B({n}, {n}) format(dense, compressed)\n"
    "tensor C({n}, {n}) format(dense, compressed)\n"
    "C(i, j) = A(i, k) * B(k, j)\n"
)

_BENCH_RUNS = 5  # timed runs per variant: best and median are printed

_BENCH_SUITES = {
    "spmspm": _BenchSuite(
        kernel=_SPMSPM,
        inputs={"A": "uniform:{rho}", "B": "uniform:{rho}"},
        small=dict(n=48, rho=0.1),
        default_scale=1024,
        scale=lambda n: dict(n=n, rho=0.01),
        line=(
            "  n={n} rho_A,B={rho}  best {best:9.1f} ms  median {median:9.1f} ms"
            "  rho_C={rho_out:.4f}"
        ),
    ),
    "spmv": _BenchSuite(
        kernel="tensor A({n}, {n}) {enc}\ntensor v({n})\ntensor x({n})\nx(i) = A(i, j) * v(j)\n",
        inputs={"A": "rowband:{band}", "v": "uniform:1.0"},
        small=dict(n=32, band=6, enc="format(compressed, dense)"),
        default_scale=2048,
        scale=lambda n: dict(n=n, band=min(1000, n)),
        header="rowband A: n={n}, dense rows={band}, density={rho_A:.4f}",
        line=(
            "  {label:5s} best {best:9.1f} ms  median {median:9.1f} ms"
            "  output density {rho_out:.4f}"
        ),
        variants=tuple(
            dict(label=label, enc=enc.describe())
            for label, enc in (
                ("CSR", csr()),
                ("DCSR", dcsr()),
                ("CDR", make_encoding([COMPRESSED, DENSE])),
            )
        ),
    ),
    "sddmm": _BenchSuite(
        kernel=(
            "tensor S({n}, {n}) format(dense, compressed)\n"
            "tensor A({n}, {k})\n"
            "tensor B({k}, {n})\n"
            "tensor X({n}, {n}) format(dense, compressed)\n"
            "X(i, j) = S(i, j) * A(i, k) * B(k, j)\n"
        ),
        inputs={"S": "uniform:{rho}", "A": "uniform:1.0", "B": "uniform:1.0"},
        small=dict(n=24, k=8, rho=0.2),
        default_scale=512,
        scale=lambda n: dict(n=n, k=64, rho=0.05),
        line="  n={n} k={k}  best {best:9.1f} ms  median {median:9.1f} ms  rho_X={rho_out:.4f}",
    ),
    "mttkrp": _BenchSuite(
        kernel=(
            "tensor B({n}, {m}, {l}) format(dense, compressed, compressed)\n"
            "tensor D({l}, {j})\n"
            "tensor C({m}, {j})\n"
            "tensor A({n}, {j})\n"
            "A(i, j) = B(i, k, l) * D(l, j) * C(k, j)\n"
        ),
        inputs={"B": "uniform:{rho}", "D": "uniform:1.0", "C": "uniform:1.0"},
        small=dict(n=12, m=10, l=8, j=4, rho=0.1),
        default_scale=96,
        scale=lambda n: dict(n=n, m=n, l=n, j=16, rho=0.02),
        line="  n={n} j={j}  best {best:9.1f} ms  median {median:9.1f} ms  rho_A={rho_out:.4f}",
    ),
}


def _bench_inputs(suite: _BenchSuite, fields: dict, seed: int) -> dict:
    shapes = parse_kernel(suite.kernel.format(**fields)).tensors
    return {
        name: parse_input_spec(spec.format(**fields), shapes[name].shape, seed + i)
        for i, (name, spec) in enumerate(suite.inputs.items())
    }


def _bench_correctness(kernel_text: str, bindings: dict) -> None:
    kernel = parse_kernel(kernel_text)
    got = run_kernel(kernel, bindings)
    want = dense_eval(kernel, {name: value.to_dense() for name, value in bindings.items()})
    got_dense = convert(got, None)
    for a, b in zip(got_dense.data.tolist(), want.data.tolist()):
        if not abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0):  # NaN fails too
            raise OracleMismatch(f"benchmark kernel disagrees with oracle: {a!r} != {b!r}")


def cmd_bench(args) -> int:
    suite = _BENCH_SUITES[args.suite]
    if args.scale is not None and args.scale < 1:
        raise ParseError(f"--scale must be at least 1, got {args.scale}")
    print(f"suite {args.suite}: verifying against the dense oracle at small scale")
    small = suite.small
    _bench_correctness(suite.kernel.format(**small), _bench_inputs(suite, small, args.seed))
    fields = suite.scale(suite.default_scale if args.scale is None else args.scale)
    inputs = _bench_inputs(suite, {**fields, **suite.variants[0]}, args.seed)
    rho = {f"rho_{name}": density(value) for name, value in inputs.items()}
    if suite.header:
        print(suite.header.format(**fields, **rho))
    for variant in suite.variants:
        kernel = parse_kernel(suite.kernel.format(**fields, **variant))
        times = []
        for _ in range(_BENCH_RUNS):
            started = time.perf_counter()
            result = run_kernel(kernel, inputs)
            times.append((time.perf_counter() - started) * 1e3)
        print(suite.line.format(
            **fields, **variant, best=min(times), median=statistics.median(times),
            rho_out=density(result),
        ))
    return 0


# ----------------------------------------------------------------------------
# Entry point


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors raise ParseError, so that `main` prints
    them as its one error line; subparsers inherit the class."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sparsec",
        description="sparse tensor algebra compiler and runtime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile a kernel and run it on bound inputs")
    run.add_argument("--kernel-file", required=True)
    run.add_argument("--input", action="append", metavar="NAME=PATH|GEN")
    run.add_argument("--output", help="write the result as extended FROSTT")
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(func=cmd_run)

    conv = sub.add_parser("convert", help="re-materialize a tensor file in another format")
    conv.add_argument("--input", required=True)
    conv.add_argument("--from", dest="src_format", required=True, metavar="ENC")
    conv.add_argument("--to", dest="dst_format", required=True, metavar="ENC")
    conv.add_argument("--output", required=True)
    conv.set_defaults(func=cmd_convert)

    emit = sub.add_parser("emit", help="print compiler internals for a kernel")
    emit.add_argument("--kernel-file", required=True)
    emit.add_argument("--emit", default="ir", choices=["ir", "lattice", "graph"])
    emit.set_defaults(func=cmd_emit)

    search = sub.add_parser("search", help="sweep the format state space of one operand")
    search.add_argument("--kernel-file", required=True)
    search.add_argument("--input", action="append", metavar="NAME=PATH|GEN")
    swept = search.add_mutually_exclusive_group()
    swept.add_argument("--sweep", help="operand to sweep (default: the sparse input)")
    swept.add_argument(
        "--sweep-all",
        action="store_true",
        help="sweep every bound sparse operand jointly; conflicting combinations are skipped",
    )
    search.add_argument("--encodings", choices=["all", "nowidths"], default="all")
    search.add_argument("--output", help="CSV destination (default stdout)")
    search.add_argument("--seed", type=int, default=0)
    search.set_defaults(func=cmd_search)

    bench = sub.add_parser("bench", help="desk-scale kernel benchmarks")
    bench.add_argument("--suite", required=True, choices=list(_BENCH_SUITES))
    bench.add_argument("--scale", type=int)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SparsecError as e:
        print(f"sparsec: error[{e.category}]: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"sparsec: error[IoError]: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
