"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_harness.py -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that the correctness gates run and can fail, that traced counts
repeat exactly for one seed, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()
import tracing  # noqa: E402  (after the program is on sys.path)
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = _run_cli(ROOT, "--workload", name, "--seed", "3", "--seconds",
                    "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_gates_pass_on_program_output(name, tmp_path):
    wl = workloads.make(name, tiny=True, workdir=str(tmp_path))
    try:
        inputs = wl.inputs(5, 0)
        check = wl.check(inputs, wl.unit(inputs))
    finally:
        wl.close()
    assert isinstance(check["ok"], bool)
    if name != "ueps_annealed":  # its slope clause needs the full size
        assert check["ok"]


def test_gates_fail_on_wrong_output(tmp_path):
    laws = workloads.make("path_laws", tiny=True)
    inputs = laws.inputs(5, 0)
    out = laws.unit(inputs)
    i, j, eps, q = out["quad"][0]
    out["quad"][0] = (i, j, eps, q + 1e-6)
    assert not laws.check(inputs, out)["ok"]

    solve = workloads.make("solve_readme", tiny=True, workdir=str(tmp_path))
    try:
        assert not solve.check(solve.inputs(5, 0), 1)["ok"]
    finally:
        solve.close()


def test_pass_rate_rule_counts_misses_only_when_significant():
    ok = {"ok": True, "within": True}
    miss = {"ok": True, "within": False}
    solve = workloads.SolveReadme.failures
    assert solve(None, [ok] * 47 + [miss] * 3) == 0
    assert solve(None, [ok] * 42 + [miss] * 8) == 8
    assert solve(None, [ok] * 49 + [{"ok": False}]) == 1


@pytest.mark.parametrize("name", ["solve_readme", "path_laws"])
def test_traced_counts_repeat_for_one_seed(name, tmp_path):
    def traced(seed):
        wl = workloads.make(name, tiny=True, workdir=str(tmp_path))
        try:
            result = run.measure(wl, seed, 0.0, trace=True,
                                 log=lambda msg: None)
            return result, wl.fingerprint(wl.inputs(seed, 0))
        finally:
            wl.close()
    first, fp0 = traced(0)
    second, _ = traced(0)
    _, fp1 = traced(1)
    # correct also covers: self times sum to at most the traced wall
    assert first["correct"] and second["correct"]
    counts = [name for name, (unit, _deps, _fn) in tracing.PER_LAYER.items()
              if unit == "count"]
    for metric in counts:
        assert (first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"]), metric
    assert fp0 != fp1


def test_missing_function_makes_its_metric_absent(monkeypatch):
    import pamfk.fk
    monkeypatch.delattr(pamfk.fk, "sample_walk_snapped")
    monkeypatch.delattr(pamfk.experiments, "sample_walk_snapped")
    wl = workloads.make("path_laws", tiny=True)
    result = run.measure(wl, 0, 0.0, trace=True, log=lambda msg: None)
    assert "walk.accepted" not in result["metrics"]
    assert "walk.draws" in result["metrics"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "path_laws", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
