"""Tests of the benchmark itself, at reduced counts.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

workloads = run.import_workloads()
from tracing import Pass, Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_runs_at_reduced_counts(workload, tmp_path):
    record = run.run_workload(workload, seed=3, seconds=0, trace=False, reduced=True,
                              setup_probes=1, out_dir=tmp_path)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == len(record["failures"])
    assert result["correct"] == (result["failed"] == 0)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0.0, name
    assert (tmp_path / f"{workload}-seed3-trace0.json").is_file()


def test_declared_metrics_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", (False, True))
def test_every_emitted_metric_is_declared(trace, tmp_path):
    record = run.run_workload("fixed_grid_scan", seed=4, seconds=0, trace=trace,
                              reduced=True, setup_probes=1, out_dir=tmp_path)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(record["result"]["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_for_a_seed(workload, tmp_path):
    wl = workloads.WORKLOADS[workload]
    tracer = Tracer(memory_spans=workloads.MEMORY_SPANS)
    for pass_id in (0, 1):
        state = wl.setup(7, True, tmp_path)
        wl.run_pass(state, Pass(pass_id, tracer))
    assert tracer.counters[0] == tracer.counters[1]
    assert sum(tracer.counters[0].values()) > 0


def test_perturbed_values_record_failures():
    ctx = Pass(0)
    workloads.check_rel(ctx, "exact", 1.0, 1.0, 1e-10)
    workloads.check_rel(ctx, "perturbed", 1.0 + 1e-9, 1.0, 1e-10)
    ctx.check("false", False)
    assert ctx.attempted == 3
    assert [f.split(":")[0] for f in ctx.failures] == ["perturbed", "false"]


@pytest.mark.xfail(strict=True, reason="ROADMAP Open item 0: E(lambda0) is -4.9e-32 for "
                   "the bump at n=400; threshold_pipeline leaves E(lambda0) out until then")
def test_energy_exactly_zero_at_threshold():
    grid = workloads.spectral.QuadGrid.gauss_legendre(400, 1.0)
    res = workloads.spectral.leading_eigenpair(workloads.spectral.s_wave_reduce(
        workloads.spectral.bump_potential(), workloads.P0, grid))
    exp = workloads.threshold.expansion_from_state(res)
    assert workloads.threshold.energy_of_lambda(exp, exp.lambda0) == 0.0


def test_wrong_or_raising_program_counts_as_failed(tmp_path, monkeypatch):
    def broken_green(r, p, tol=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.kernel, "h3_root",
                        lambda: workloads.kernel.H3_ROOT_REFERENCE + 1e-5)
    monkeypatch.setattr(workloads.kernel, "green_function", broken_green)
    ctx = Pass(0)
    workloads.run_verify(workloads.setup_verify(3, True, tmp_path), ctx)
    names = [f.split(":")[0] for f in ctx.failures]
    assert "h3_root" in names
    assert any(n.startswith("green_vs_oracle[") and n.endswith(".raised") for n in names)
    # the pass went on after the failures
    assert ctx.attempted > len(ctx.failures)


def test_cli_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "fixed_grid_scan",
         "--seed", "2", "--seconds", "0", "--trace", "1", "--reduced"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fixed_grid_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
