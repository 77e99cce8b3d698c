"""Fast smoke test of the benchmark harness on tiny runs.

    python3 -m pytest -q benchmark/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
and that a corrupted tally or objective fails the run's checks.
"""

import dataclasses
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
UNPINNED_SEED = 10_000


@pytest.fixture(autouse=True)
def one_setup_process(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def run_bench(capsys, workload, trace, seed=UNPINNED_SEED):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.3", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_printed(capsys, workload, trace):
    code, result = run_bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_failed_check_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(workloads.PredictSweep, "_check_one", lambda self, case, p: ["forced"])
    code, result = run_bench(capsys, "predict_sweep", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["completed_ratio"]["value"] == 0.0


def corrupt_tally(curve):
    (point,) = curve.points
    return dataclasses.replace(
        curve, points=(dataclasses.replace(point, successes=point.successes + 1),)
    )


@pytest.mark.parametrize("seed", [0, UNPINNED_SEED])
def test_corrupted_tally_is_caught(seed):
    bench = workloads.PhaseGrid(seed, workloads.load_reference())
    curve = bench.run(0)
    assert bench.check([(0, curve)]) == [[]]
    (errors,) = bench.check([(0, corrupt_tally(curve))])
    assert any("successes" in e for e in errors)


def test_corrupted_objective_is_caught():
    bench = workloads.SolveLarge(0, workloads.load_reference())
    solution = bench.run(0)
    assert bench.check([(0, solution)]) == [[]]
    bad = dataclasses.replace(solution, objective=solution.objective * (1.0 + 1e-5))
    (errors,) = bench.check([(0, bad)])
    assert any("HiGHS" in e for e in errors)
