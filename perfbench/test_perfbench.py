"""Tests of the benchmark itself, on the smoke-size workloads.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(cwd, workload, trace, seed=11, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload,trace", [
    ("dirichlet_spike_128", 0), ("dirichlet_spike_128", 1),
    ("fidelity_inpaint_128", 0), ("fidelity_inpaint_128", 1)])
def test_smoke_result_line(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert "not found in lingrow" not in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    env = json.loads(proc.stdout.strip().splitlines()[-2])["environment"]
    assert env["threads"]["OMP_NUM_THREADS"] == "1"
    assert env["threads"]["LINGROW_THREADS"] is None
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"],
                                                      rel=1e-9)
        assert m["energy.energy.calls"] > 0
        assert m["solver.iters"] == sum(m[f"solver.rung{k}.iters"]
                                        for k in range(4))
        assert 0.0 < m["solver.accept_ratio"] <= 1.0
        assert m["probe.vec512.energy_ms"] > 0.0


def test_without_the_program_it_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "dirichlet_spike_128", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_partition_the_root():
    spans = [
        ["config.load_config", 0.0, 1.0, -1, None],
        ["cli", 1.0, 10.0, -1, None],
        ["solver.continuation_solve", 2.0, 8.0, 1, None],
        ["solver.minimize_fixed_delta", 2.5, 7.0, 2,
         {"iters": 5, "backtracks": 1}],
        ["energy.energy", 3.0, 4.0, 3, None],
        ["energy.residual", 4.0, 6.0, 3, None],
        ["moser.moser_report", 8.5, 9.0, 1, None],
    ]
    m = tracing.summarize(spans)
    assert m["trace.wall_s"] == 9.0
    assert m["trace.self_sum_s"] == pytest.approx(9.0)
    assert m["cli.self_s"] == pytest.approx(9.0 - 6.0 - 0.5)
    assert m["solver.self_s"] == pytest.approx(6.0 - 3.0)
    assert m["energy.self_s"] == pytest.approx(3.0)
    assert m["config.load_s"] == 1.0
    assert m["solver.rung0.iters"] == 5 and m["solver.accept_ratio"] == 5.0


def test_oracle_energy_matches_lingrow():
    from lingrow.config import load_config
    from lingrow.energy import assemble_ops

    rng = np.random.default_rng(5)
    for name in ("dirichlet_spike_128", "fidelity_inpaint_128"):
        job = workloads.make_job(name, 0, True,
                                 os.path.join(ROOT, ".perfbench", "oracle"))
        problem = load_config(job["config"]).require_problem()
        w = rng.normal(size=(job["n"], job["n"], 1))
        expect = assemble_ops(problem, None).energy(w)
        assert oracle.plain_energy(w, job) == pytest.approx(expect, rel=1e-12)


def test_gate_rejects_a_changed_solution(tmp_path):
    b = run.Bench("dirichlet_spike_128", 2, True, str(tmp_path))
    assert b.measured("run") is not None, b.failures
    out = os.path.join(str(tmp_path), "001-run")
    path = os.path.join(out, "solution_final.csv")
    values = oracle.read_csv_values(path)
    values[5, 5, 0] += 1e-3
    workloads.write_csv(path, values)
    job = dict(b.job, out=out)
    fails = oracle.check_cli(job, b.reference)
    assert any("plain_energy" in f for f in fails)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_reference_check_fails_just_past_the_tolerance(tmp_path, workload):
    b = run.Bench(workload, 3, True, str(tmp_path))
    assert b.measured("run") is not None, b.failures
    job = dict(b.job, out=os.path.join(str(tmp_path), "001-run"))
    tolerances = oracle.reference_tolerances(b.reference, job["n"] ** 2)
    for key, tol in zip(("plain_energy", "interior_sup"), tolerances):
        assert tol > 0.0
        for factor, off in ((0.99, False), (1.01, True)):
            shifted = dict(b.reference)
            shifted[key] += factor * tol
            fails = oracle.check_cli(job, shifted)
            assert any(f.startswith(key) and "off the reference" in f
                       for f in fails) == off, (key, factor, fails)


def test_a_removed_name_is_reported_missing(monkeypatch):
    import importlib

    import lingrow.cli

    for module, attr, _ in tracing.WRAPPED:  # undone after the test
        module = importlib.import_module(module)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.delattr(lingrow.cli, "select_radius")
    tracer = tracing.Tracer()
    missing = tracing.install(tracer)
    assert missing == ["lingrow.cli.select_radius"]
