"""Measurement loops: set-up, the closed op loop, the compile loop, and
the traced run that yields the per-layer metrics."""

import gc
import resource
import statistics
import sys
import time
import traceback

import spans
import speed
from sparsec.errors import OrderConflict
from workloads import compile_kernel, search_bookkeeping

SETUP_REPEATS = 5
OP_SHARE = 0.8  # of --seconds for the op loop; the rest times compilation
TAIL_BEYOND = 10  # samples the tail percentile must have above it
MAX_REPORTED_FAILURES = 5
COUNTED_CASES = 300  # cases the traced run counts and measures memory on

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "compile_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
TIMED_SPANS = (
    "expr.parse_kernel",
    "engine.prepare_kernels",
    "lattice.schedule",
    "lattice.build_lattice",
    "codegen.lower",
    "storage.pack",
    "engine.interpret",
    "engine.finalize",
)
COUNTS = (
    "expr.pieces",
    "lattice.points",
    "lattice.order_conflicts",
    "codegen.ir_lines",
    "codegen.strategy.dense-store",
    "codegen.strategy.direct-lex",
    "codegen.strategy.expand-compress",
    "codegen.strategy.in-place",
    "storage.pack.nnz_in",
    "storage.out.stored",
    "storage.out.nnz",
    "engine.dense_fallback.volume",
)
PEAKS = ("storage.pack", "engine.interpret")
PER_LAYER = {
    **{f"{name}.ms": "ms" for name in TIMED_SPANS},
    **{name: "count" for name in COUNTS},
    **{f"{name}.peak_mb": "MB" for name in PEAKS},
    "storage.out.useful_ratio": "ratio",
    "engine.dense_fallback.useful_ratio": "ratio",
    "cli.run_search.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "op.unaccounted_ms": "ms",
}


class Tally:
    """Attempted and failed ops; a failure is reported, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, call):
        """Call `call()`; return (ok, value, ms). Exceptions count as failures."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            value = call()
        except Exception:
            ms = (time.perf_counter() - started) * 1e3
            self.fail(traceback.format_exc())
            return False, None, ms
        return True, value, (time.perf_counter() - started) * 1e3

    def check(self, workload, case, outcome) -> bool:
        """Check an op that returned; a disagreement turns it into a failure."""
        try:
            workload.check(case, outcome)
        except Exception:
            self.fail(traceback.format_exc())
            return False
        return True

    def fail(self, report: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"benchmark: op failed\n{report}", file=sys.stderr)


def tail(samples: list) -> tuple:
    """(value, percentile): the highest whole percentile, up to 99, with at
    least TAIL_BEYOND samples above it; the median while too few samples
    leave no such percentile above it."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = min(99, (100 * (n - TAIL_BEYOND)) // n)
    if pct <= 50:
        return statistics.median(ordered), 50
    return ordered[-(n * (100 - pct) // 100) - 1], pct


def set_up(workload, seed: int) -> tuple:
    """Inputs, references and one untimed warm-up op; returns the time too."""
    started = time.perf_counter()
    cases, setup_counts = workload.make_cases(seed)
    Tally().run(lambda: workload.op(cases[0]))
    return cases, setup_counts, time.perf_counter() - started


def measure(workload, seed: int, seconds: float) -> tuple:
    """End-to-end metrics; every time is scaled to the reference speed."""
    clock = speed.ScaledTimes()
    for _ in range(SETUP_REPEATS):
        cases, _, elapsed = set_up(workload, seed)
        clock.add("setup", elapsed * 1e3)
    gc.collect()
    tally = Tally()
    ops = ok_ops = 0
    deadline = time.perf_counter() + OP_SHARE * seconds
    while ops == 0 or time.perf_counter() < deadline:
        case = cases[ops % len(cases)]
        ok, result, ms = tally.run(lambda: workload.op(case))
        clock.add("op", ms)
        ops += 1
        ok_ops += ok and tally.check(workload, case, workload.outcome(result))

    # A kernel that fails to compile has already failed its op, so the
    # compile loop reports failures without counting them again.
    compiles = Tally()
    deadline = time.perf_counter() + (1.0 - OP_SHARE) * seconds
    while compiles.attempted == 0 or time.perf_counter() < deadline:
        case = cases[compiles.attempted % len(cases)]
        _, _, ms = compiles.run(lambda: compile_all(case.compile_texts))
        clock.add("compile", ms)
    clock.calibrate()

    op_ms = clock.scaled("op")
    tail_ms, tail_pct = tail(op_ms)
    metrics = {
        "setup_s": statistics.median(clock.scaled("setup")) / 1e3,
        "ops_per_s": ok_ops / (sum(op_ms) / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": tail_ms,
        "compile_ms_p50": statistics.median(clock.scaled("compile")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": ok_ops / ops,
    }
    raw = {name: statistics.median(clock.raw[name]) for name in ("setup", "op", "compile")}
    notes = [
        f"{ops} ops, {compiles.attempted} compile loops, {SETUP_REPEATS} set-ups",
        f"op_ms_tail is p{tail_pct} of {ops} op latencies",
        f"calibration loop: median {statistics.median(clock.cal_ms):.4f} ms over "
        f"{len(clock.cal_ms)} runs, range {min(clock.cal_ms):.4f}-{max(clock.cal_ms):.4f} ms",
        "wall-clock medians: " + ", ".join(f"{k} {v:.4f} ms" for k, v in raw.items()),
    ]
    return tally, metrics, END_TO_END, notes


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def compile_all(texts) -> None:
    for text in texts:
        try:
            compile_kernel(text)
        except OrderConflict:
            pass  # the search skips these encodings too


def traced_call(workload, case, memory: bool = False) -> tuple:
    with spans.traced_op(memory) as trace:
        outcome = workload.traced(trace, case, include_widths=not memory)
    return trace, outcome


def cli_overhead_ms(workload, case, result, op_ms: float) -> float:
    """The search's own work per op: its wall time less its rows' run
    times; for a single run, the per-row bookkeeping timed around it."""
    if workload.search:
        return op_ms - sum(row.time_ms for row in result)
    started = time.perf_counter()
    search_bookkeeping(case, result)
    return (time.perf_counter() - started) * 1e3


def measure_traced(workload, seed: int, seconds: float) -> tuple:
    """Per-layer metrics, from three passes over the traced runner.

    Counts come from one traced op per counted case, so they repeat exactly
    for a seed. Memory peaks come from the same cases again under
    tracemalloc, which slows an op about tenfold; those results are not
    checked a second time. Span times come from `seconds` of untraced and
    traced ops alternating on the same case; their ratio is the tracing
    overhead.
    """
    cases, setup_counts, _ = set_up(workload, seed)
    counted_cases = cases[:COUNTED_CASES]
    gc.collect()
    tally = Tally()
    counted = []
    for case in counted_cases:
        ok, pair, _ = tally.run(lambda: traced_call(workload, case))
        if ok:
            counted.append(pair[0])
            tally.check(workload, case, pair[1])
    peaks = []
    for case in counted_cases:
        ok, pair, _ = tally.run(lambda: traced_call(workload, case, memory=True))
        if ok:
            peaks.append(pair[0])

    timed, untraced_ms, overhead_ms = [], [], []

    def untraced(case):
        ok, result, ms = tally.run(lambda: workload.op(case))
        if ok and tally.check(workload, case, workload.outcome(result)):
            untraced_ms.append(ms)
            overhead_ms.append(cli_overhead_ms(workload, case, result, ms))

    def traced(case):
        ok, pair, _ = tally.run(lambda: traced_call(workload, case))
        if ok and tally.check(workload, case, pair[1]):
            timed.append(pair[0])

    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        for step in (untraced, traced) if i % 2 == 0 else (traced, untraced):
            step(cases[i % len(cases)])
        i += 1

    metrics = {f"{name}.ms": _median(t.ms.get(name, 0.0) for t in timed) for name in TIMED_SPANS}
    for name in COUNTS:
        per_op = _mean(t.counts.get(name, 0) for t in counted)
        metrics[name] = per_op + setup_counts.get(name, 0) / len(cases)
    for name in PEAKS:
        metrics[f"{name}.peak_mb"] = _mean(t.peak_mb.get(name, 0.0) for t in peaks)
    metrics["storage.out.useful_ratio"] = _ratio(counted, "storage.out.nnz", "storage.out.stored")
    metrics["engine.dense_fallback.useful_ratio"] = _ratio(
        counted, "engine.dense_fallback.nnz", "engine.dense_fallback.volume"
    )
    metrics["cli.run_search.overhead_ms"] = _median(overhead_ms)
    untraced = _median(untraced_ms)
    metrics["trace.overhead_ratio"] = _median(t.wall_ms for t in timed) / untraced if untraced else 0.0
    metrics["op.unaccounted_ms"] = _median(t.unaccounted_ms for t in timed)
    notes = [
        f"{len(counted)} counted ops, {len(peaks)} ops under tracemalloc, "
        f"{len(timed)} traced and {len(untraced_ms)} untraced timed ops",
    ]
    return tally, metrics, PER_LAYER, notes


def _ratio(traces, part: str, whole: str) -> float:
    """Sum of `part` over sum of `whole`; 0.0 when `whole` never occurred."""
    total = sum(t.counts.get(whole, 0) for t in traces)
    return sum(t.counts.get(part, 0) for t in traces) / total if total else 0.0
