"""Smoke test of the benchmark harness at tiny sizes.

Run with ``python3 -m pytest bench/test_smoke.py``; it takes about a
minute, most of it in CLI process start-up.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import Run

PHASE = next(inv for inv in workloads.generate("phase-routes", 3, tiny=True) if inv.known_defect)

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _contract_line(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return tmp_path_factory.mktemp("bench") / "runs.jsonl"


def test_generator_is_seeded_and_keeps_the_defect_case():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 4) == workloads.generate(name, 4)
        assert workloads.generate(name, 4) != workloads.generate(name, 5)
    for seed in range(50):
        invs = workloads.generate("phase-routes", seed)
        [phase] = [inv for inv in invs if inv.known_defect]
        re, im = map(float, phase.argv[phase.argv.index("--state") + 1][9:].split(","))
        assert abs(math.hypot(re, im) - 2.0) < 1e-12
        assert abs(math.sin(math.atan2(im, re))) >= 0.5 - 1e-12


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_run(workload, results):
    proc = _run("--workload", workload, "--seed", 3, "--seconds", 1, "--trace", 0,
                "--tiny", "--results", results)
    result = _contract_line(proc)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"]
    if workload == "phase-routes":
        assert result["failed"] == result["attempted"] // len(workloads.generate(workload, 3))
        assert "FAIL coherent-phase" in proc.stdout
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_accounts_for_its_wall_time(workload, results):
    proc = _run("--workload", workload, "--seed", 3, "--seconds", 1, "--trace", 1,
                "--tiny", "--results", results)
    metrics = _contract_line(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    self_total = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".self_s"))
    wall = metrics["trace.wall_s"]["value"]
    assert self_total + metrics["trace.unattributed_s"]["value"] == pytest.approx(wall)


def test_every_layer_metric_fires_on_some_workload(results):
    records = [json.loads(line) for line in results.read_text().splitlines()]
    traced = [r["metrics"] for r in records if r["trace"] == 1]
    assert len(traced) == len(workloads.WORKLOADS)
    silent = [m["name"] for m in SPEC["per_layer"]
              if not any(t[m["name"]]["value"] for t in traced)]
    assert not silent


def test_report_and_compare(results):
    proc = _run("report", results)
    assert proc.returncode == 0, proc.stderr
    assert "phase-routes (trace 0)" in proc.stdout and "iqr/median" in proc.stdout
    proc = _run("compare", results, results)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("within bound") >= len(SPEC["end_to_end"])


def _write_fields(workdir, direct, parity, stdout_dev=None):
    """Write ``phase.csv`` and ``phase.parity.csv`` on a symmetric 2 x 3 grid."""
    for name, values in zip(PHASE.outputs, (direct, parity)):
        rows = ["u,v,w"] + [f"{u},{v},{values[i][j]!r}" for i, u in enumerate((-1.0, 1.0))
                            for j, v in enumerate((-1.0, 0.0, 1.0))]
        (workdir / name).write_text("\n".join(rows) + "\n")
    dev = max(abs(d - p) for dr, pr in zip(direct, parity) for d, p in zip(dr, pr))
    return {"exit_code": 0, "stdout": f"max_abs_deviation={stdout_dev or dev!r}\n"}


PARITY = [[0.1, 0.2, 0.5], [0.0, 0.1, 0.3]]
SYMMETRIZED = [[0.3, 0.2, 0.3], [0.15, 0.1, 0.15]]


def test_known_defect_is_excused_only_with_its_signature(tmp_path):
    run = Run([PHASE])
    run.record_pass(0, [_write_fields(tmp_path, SYMMETRIZED, PARITY)], tmp_path)
    assert run.correct and len(run.failures) == 1
    assert "0.2 beyond tolerance" in run.failures[0]["reason"]
    assert set(run.golden["coherent-phase"]) == {"stdout", *PHASE.outputs}

    wrong = [[0.3, 0.2, 0.3], [0.15, 0.1, 0.16]]
    run = Run([PHASE])
    run.record_pass(0, [_write_fields(tmp_path, wrong, PARITY)], tmp_path)
    assert run.failures and not run.correct


@pytest.mark.parametrize("result", [
    {"exit_code": 3, "stdout": ""},
    {"exit_code": 0, "stdout": "max_abs_deviation=0.2\n"},  # outputs missing
    {"exit_code": 0, "stdout": "max_abs_deviation=garbled\n"},
    {"exit_code": 0, "stdout": "", "timeout": True},
])
def test_any_other_failure_of_the_defect_case_makes_the_run_incorrect(tmp_path, result):
    if "garbled" in result["stdout"]:
        _write_fields(tmp_path, SYMMETRIZED, PARITY)
    run = Run([PHASE])
    run.record_pass(0, [result], tmp_path)
    assert len(run.failures) == 1 and not run.correct


def test_unexpected_failure_makes_the_run_incorrect(tmp_path):
    inv = workloads.Invocation("probe", ("wigner",), exit_code=2)
    run = Run([inv])
    run.record_pass(0, [{"exit_code": 0, "stdout": ""}], tmp_path)
    assert run.failures and not run.correct


def test_malformed_route_output_is_a_failure(tmp_path):
    inv = workloads.Invocation("zonesum", (), outputs=("field.json",), check="field")
    (tmp_path / "field.json").write_text('{"U_integral": {"abs": 1.0}}')
    run = Run([inv])
    run.record_pass(0, [{"exit_code": 0, "stdout": ""}], tmp_path)
    assert "malformed route output" in run.failures[0]["reason"]


def test_bytes_compare_against_the_first_good_pass(tmp_path):
    inv = workloads.Invocation("probe", ("spin",), outputs=("out.csv",))
    run = Run([inv])
    run.record_pass(0, [{"exit_code": 1, "stdout": ""}], tmp_path)
    (tmp_path / "out.csv").write_text("a\n1\n")
    run.record_pass(1, [{"exit_code": 0, "stdout": ""}], tmp_path)
    run.record_pass(2, [{"exit_code": 0, "stdout": ""}], tmp_path)
    (tmp_path / "out.csv").write_text("a\n2\n")
    run.record_pass(3, [{"exit_code": 0, "stdout": ""}], tmp_path)
    assert [(f["pass"], f["reason"]) for f in run.failures] == [
        (0, "exit code 1, expected 0"), (3, "output bytes differ from the first good pass")]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "phase-routes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
