"""Smoke tests of the benchmark itself, on tiny grids.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Each workload path runs once through ``run.py --smoke`` in its own process,
as the benchmark is run for real, and its result line is checked against
the metric names in BENCHMARK.json.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_benchmark(cwd, script, *args):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload,trace", [("free3d", 0), ("stiff1d", 0), ("forced3d", 1)])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_benchmark(
        ROOT, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
        "--seconds", "0.1", "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(
        tmp_path, "bench/run.py", "--workload", "stiff1d", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_files_and_top_modes_excited(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    for sub in "abc":
        (tmp_path / sub).mkdir()
    first = workloads.generate(workload, 11, tmp_path / "a")
    again = workloads.generate(workload, 11, tmp_path / "b")
    other = workloads.generate(workload, 12, tmp_path / "c")
    for x, y, z in zip(first, again, other):
        assert pathlib.Path(x.path).read_bytes() == pathlib.Path(y.path).read_bytes()
        assert x.text != z.text
    top = min(workload.shape) // 2 - 1
    for seed in range(5):
        case = workloads.generate(workload, seed, tmp_path / "c")[0]
        assert all(abs(c) == top for c in max(case.data[0], key=lambda k: sum(c * c for c in k)))


def test_missing_layer_is_absent_not_an_error():
    def fn(*args):
        return None

    modules = {
        "cli": types.SimpleNamespace(__name__="cli", load_problem=fn, solve=fn, write_csv=fn,
                                     write_opc1=fn),
        "kernels": types.SimpleNamespace(__name__="kernels", homogeneous_mode=fn, symbol_grid=fn,
                                         to_spectral=fn, from_spectral=fn, cosh_sqrt=fn),
        "exprparse": types.SimpleNamespace(__name__="exprparse", evaluate=fn),
        "oracle": types.SimpleNamespace(__name__="oracle", mode_ode_solve=fn),
    }
    tracer = spans.Tracer()
    absent, missing = spans.install(tracer, modules)
    assert absent == {"kernels.inhomogeneous_mode"}
    assert "kernels.sinhc_sqrt" in missing and "kernels._sat_exp" in missing
    modules["kernels"].cosh_sqrt(np.zeros(7))
    summary = spans.summarize(tracer.spans, [0])
    assert summary["multiplier.opfunc"]["elems"] == 7
    tracer.restore()
    assert modules["kernels"].cosh_sqrt is fn
