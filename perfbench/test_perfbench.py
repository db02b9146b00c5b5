"""Tests of the benchmark itself: seeded generation, the output checker and
a minimal-size run of every workload."""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pathshap import cli  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_seeded(workload):
    first = workloads.generate(workload, 7)
    assert first.digest() == workloads.generate(workload, 7).digest()
    assert first.digest() != workloads.generate(workload, 8).digest()


@pytest.fixture
def checker():
    return checks.Checker(run.load_oracle())


def _exact_report(tmp_path, extra=()):
    path = tmp_path / "running.graph"
    path.write_text(workloads.RUNNING_EXAMPLE)
    argv = ["shapley", "--graph", str(path), "--query", "(x, a b c, y)", "--bind", "x=v1,y=v6",
            "--format", "json", *extra]
    out = io.StringIO()
    assert cli.main(argv, out=out) == 0
    return argv, json.loads(out.getvalue())


def _with_value(report, player, value):
    for row in report["players"]:
        if row["id"] == player:
            row["value"] = value
    return json.dumps(report)


def test_checker_flags_one_perturbed_exact_value(tmp_path, checker):
    argv, report = _exact_report(tmp_path, ["--mode", "exact"])
    check = {"kind": "exact", "sum": 1, "oracle": True}
    assert checker.check(argv, check, json.dumps(report)) == []
    assert checker.check(argv, check, _with_value(report, "v1->v3", "1/4"))
    # a perturbation that keeps the sum is left to the oracle
    report = _with_value(report, "v1->v3", "1/4")
    assert checker.check(argv, check, _with_value(json.loads(report), "v1->v2", "1/12"))


def test_checker_flags_sampled_reports(tmp_path, checker):
    params = {"eps": 0.1, "delta": 0.05}
    argv, report = _exact_report(tmp_path, ["--mode", "approx-additive", "--eps", "0.1",
                                            "--delta", "0.05", "--seed", "3"])
    check = {"kind": "approx-additive", "seed": 3, **params}
    assert checker.check(argv, check, json.dumps(report)) == []
    assert checker.finish() == []
    report["players"][0]["samples"] += 1
    assert checker.check(argv, check, json.dumps(report))
    report["players"][0]["samples"] -= 1
    fresh = checks.Checker(run.load_oracle())
    fresh.check(argv, check, _with_value(report, "v1->v3", 0.9))
    assert fresh.finish()  # one of nine estimates off by more than eps


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_minimal_run(workload, trace):
    result = run.run_workload(workload, seed=2, seconds=0.01, trace=trace, scale=0.4, probes=1,
                              log=lambda *_: None)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "poly-fan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_scales_by_the_samples_around_a_timing():
    speed = calibrate.HostSpeed()
    speed.times_ns = [100, 200, 300]
    speed.kernels_ns = [1_000_000, 500_000, 250_000]
    reference = calibrate.REFERENCE_MS * 1e6
    assert speed.factor(150, 250) == 2 * reference / (1_000_000 + 250_000)
    assert speed.factor(210, 290) == 2 * reference / (500_000 + 250_000)
    assert speed.factor(310, 400) == reference / 250_000
