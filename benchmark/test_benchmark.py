"""Tests of the benchmark itself: python3 -m pytest benchmark -q

They run on reduced-size draws of each workload, so they take seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import harness  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sparsec.cli import result_checksum, run_search  # noqa: E402
from sparsec.encoding import enumerate_encodings  # noqa: E402
from sparsec.engine import run_kernel  # noqa: E402
from sparsec.expr import parse_kernel  # noqa: E402
from sparsec.storage import CooTensor, pack  # noqa: E402

REDUCED = {
    "spmspm": lambda seed: workloads.spmspm_cases(seed, n=48, density=0.05),
    "spmv": lambda seed: workloads.spmv_cases(seed, n=64, dense_rows=4),
    "format_sweep": lambda seed: workloads.sweep_cases(seed, n=8, density=0.2),
    "kernel_mix": lambda seed: workloads.mix_cases(seed, draws=40),
}


def reduced(name: str, make_cases=None) -> workloads.Workload:
    full = workloads.WORKLOADS[name]
    return workloads.Workload(name, make_cases or REDUCED[name], full.search)


def serialized(cases) -> bytes:
    parts = []
    for case in cases:
        parts.append(case.text.encode())
        for name in sorted(case.bindings):
            coo = case.bindings[name]
            parts.append(repr((name, coo.shape, coo.entries)).encode())
        parts.append(case.want.tobytes())
    return b"\x00".join(parts)


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_traced_runner_matches_the_program(name):
    workload = reduced(name)
    cases, _ = workload.make_cases(3)
    for case in cases:
        first, outcome = harness.traced_call(workload, case)
        workload.check(case, outcome)
        if workload.search:
            rows = run_search(parse_kernel(case.text), case.bindings, "A", include_widths=True)
            assert outcome == [row.checksum for row in rows]
        else:
            want = result_checksum(run_kernel(parse_kernel(case.text), case.bindings))
            assert result_checksum(outcome) == want
        again, _ = harness.traced_call(workload, case)
        assert first.counts == again.counts
        assert first.counts["expr.pieces"] >= 1


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_seed_gives_identical_inputs(name):
    make = REDUCED[name]
    assert serialized(make(5)[0]) == serialized(make(5)[0])
    assert serialized(make(5)[0]) != serialized(make(6)[0])


def test_output_records_the_seed(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "spmv", reduced("spmv"))
    assert run.main(["--workload", "spmv", "--seed", "9", "--seconds", "0.2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "seed 9" in lines[0]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(harness.END_TO_END)


def _corrupted(seed):
    cases, counts = REDUCED["spmspm"](seed)
    cases[0].want = cases[0].want + 1.0
    return cases, counts


def _raising(seed):
    cases, counts = REDUCED["spmspm"](seed)
    del cases[0].bindings["B"]
    return cases, counts


@pytest.mark.parametrize("make_cases", [_corrupted, _raising], ids=["reference", "raise"])
@pytest.mark.parametrize("measure", [harness.measure, harness.measure_traced])
def test_failures_are_counted_not_raised(make_cases, measure):
    tally, metrics, _, _ = measure(reduced("spmspm", make_cases), 1, 0.2)
    assert tally.attempted >= 1 and tally.failed >= 1
    if measure is harness.measure:
        assert metrics["ok_ratio"] == 0.0


def test_search_checksum_mismatch_fails():
    workload = reduced("format_sweep")
    cases, _ = workload.make_cases(1)
    outcome = workload.outcome(run_search(parse_kernel(cases[0].text), cases[0].bindings, "A", True))
    workload.check(cases[0], outcome)
    with pytest.raises(reference.Mismatch):
        workload.check(cases[0], outcome[:-1])
    with pytest.raises(reference.Mismatch):
        workload.check(cases[0], outcome[:-1] + ["0" * 16])


def test_result_reader_agrees_with_every_encoding():
    rng = np.random.default_rng(4)
    dense = np.where(rng.random((5, 7)) < 0.4, 1.0 - rng.random((5, 7)), 0.0)
    coo = CooTensor(dense.shape, [(tuple(map(int, c)), dense[tuple(c)]) for c in np.argwhere(dense)])
    for enc in enumerate_encodings(2):
        storage = pack(coo, enc)
        reference.compare(reference.result_array(storage, storage.ttype), dense, 0.0)


def test_checks_run_under_optimize_flag():
    script = (
        "import numpy, reference\n"
        "try:\n"
        "    reference.compare(numpy.zeros(2), numpy.ones(2), 1e-10)\n"
        "except reference.Mismatch:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env_path = f"{ROOT / 'src'}:{ROOT / 'benchmark'}"
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env={"PYTHONPATH": env_path}, timeout=60
    )
    assert done.returncode == 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
