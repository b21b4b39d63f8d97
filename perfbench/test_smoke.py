"""Smoke test of the benchmark itself, at n=16 so that it runs in seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTERS = ("_calls", "_builds", "_computed", "_written", "solver.steps")


def bench(trace: int) -> list:
    """Every workload at smoke scale; one parsed result per workload."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    assert proc.stdout.rstrip().endswith(json.dumps(results[-1]))
    return results


@pytest.fixture(scope="module")
def traced():
    return bench(1), bench(1)


def expected_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_end_to_end_metrics_print_with_units():
    for result in bench(0):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == expected_units("end_to_end")
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_metrics_print_with_units(traced):
    for result, name in zip(traced[0], workloads.WORKLOADS):
        assert result["correct"] and result["failed"] == 0
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        assert units == expected_units("per_layer")
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        if name == "inequalities48":
            assert all(v == 0 for k, v in metrics.items() if k.startswith("coefficients."))
            assert metrics["grid_field.gradient_calls"] > 0
        else:
            assert metrics["coefficients.compute_calls"] > 0
            assert metrics["coefficients.fft_inv_calls"] > 0
            assert metrics["accel.div_flux_calls"] > 0


def test_self_times_account_for_wall_time(traced):
    for result in traced[0]:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert run.accounting_miss(metrics) is None
        # a layer left out of the report, or time spent in no span, is a miss
        assert run.accounting_miss({k: v for k, v in metrics.items()
                                    if k != "grid_field.self_s"}) is not None
        late = dict(metrics, **{"trace.wall_s": metrics["trace.wall_s"] * 1.01})
        assert run.accounting_miss(late) is not None


def test_counters_repeat_exactly(traced):
    for first, second in zip(*traced):
        counts = [{k: m["value"] for k, m in r["metrics"].items()
                   if k.endswith(COUNTERS)} for r in (first, second)]
        assert counts[0] == counts[1]


@pytest.mark.filterwarnings("ignore")
def test_span_counts_match_profile(tmp_path):
    """Every public landau function the profiler sees called is counted."""
    job = workloads.make_job("harness32", 0, "smoke")
    config_path = tmp_path / "workload.ini"
    cli_io = worker.setup(job, config_path)
    profile = cProfile.Profile()
    profile.runcall(worker.run_once, job, cli_io, config_path, tmp_path / "profiled")
    stats = pstats.Stats(profile).stats

    tracer = spans.Tracer()
    tracer.install()
    try:
        worker.run_once(job, cli_io, config_path, tmp_path / "traced")
    finally:
        tracer.uninstall()

    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("landau."):
            continue
        for name, fn in vars(mod).items():
            code = getattr(fn, "__code__", None)
            if (name.startswith("_") or code is None
                    or getattr(fn, "__module__", None) != mod_name):
                continue
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if key in stats:
                seen[(spans.layer_of(mod_name), fn.__name__)] = stats[key][1]
    assert seen
    counted = {key: tracer.calls.get(key, 0) for key in seen}
    assert counted == seen
    landau_keys = {k for k in tracer.calls if k[1] not in spans.FFT_NAMES}
    assert landau_keys <= set(seen)


@pytest.mark.filterwarnings("ignore")
def test_gate_trips_on_altered_artifacts(tmp_path):
    job = workloads.make_job("harness32", 0, "smoke")
    config_path = tmp_path / "workload.ini"
    cli_io = worker.setup(job, config_path)
    out = tmp_path / "out"
    assert cli_io.main(job.argv(str(config_path), str(out))) == 0
    ref = gate.load_reference()[job.reference_key]
    good = dict(gate.inspect(out), rc=0)
    assert gate.check_run(good, good, ref) == []

    # one digit of the last entropy value changes: bytes and reference both miss
    altered = tmp_path / "altered"
    shutil.copytree(out, altered)
    diag = altered / "diagnostics.csv"
    lines = diag.read_text().splitlines()
    cells = lines[-1].split(",")
    col = lines[1].split(",").index("entropy")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-6))
    lines[-1] = ",".join(cells)
    diag.write_text("\n".join(lines) + "\n")
    reasons = gate.check_run(dict(gate.inspect(altered), rc=0), good, ref)
    assert any("diagnostics.csv" in r for r in reasons)
    assert any(r.startswith("final_entropy") for r in reasons)

    # a FAIL verdict and a wrong exit code each fail the run on their own
    failed = tmp_path / "failed"
    shutil.copytree(out, failed)
    summary = failed / "summary.txt"
    summary.write_text(summary.read_text().replace("verdict: PASS", "verdict: FAIL (1 of 9)"))
    reasons = gate.check_run(dict(gate.inspect(failed), rc=1), good, ref)
    assert len(reasons) == 2
