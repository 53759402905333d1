"""sparsec benchmark: one workload per process, one caller, checked results.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; sparsec is imported from its `src/`.
The process runs one workload as a closed loop: a single caller issues ops
back to back, on one thread, and every result is checked against an
independent reference outside the timed region. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (see BENCHMARK.json);
with `--trace 1` they are the per-layer ones from the traced runner in
spans.py. README.md says what each measures and should move.
"""

import os

# Single-threaded: numpy and scipy read these when they are first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_sources() -> None:
    """Put this checkout's `src/` first on the import path, or exit."""
    src = ROOT / "src"
    if not (src / "sparsec" / "__init__.py").is_file():
        sys.exit(f"benchmark: no sparsec sources under {src}")
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    use_checkout_sources()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} ({', '.join(WORKLOADS)})")
    measure = harness.measure_traced if args.trace else harness.measure
    tally, values, units, notes = measure(WORKLOADS[args.workload], args.seed, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} ops attempted, {tally.failed} failed")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:14.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
