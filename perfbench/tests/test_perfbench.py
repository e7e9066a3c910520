"""The benchmark at toy size: every workload, both modes, and its own checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench  # noqa: E402
import maxplus.csr as csr  # noqa: E402
from workloads import WORKLOADS, inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 7


@functools.cache
def _run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
    return printed, json.loads(lines[-1])


def test_workload_table_matches_benchmark_json():
    assert set(NAMES) == set(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_prints_with_its_unit(workload):
    printed, result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert printed[m["name"]] == m["unit"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert "fail_ratio" in printed


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_layers_and_same_end_to_end_names(workload):
    printed, result = _run(workload, 1)
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert printed.keys() == _run(workload, 0)[0].keys()
    assert result["metrics"]["trace.expand_coverage"]["value"] > 0.5
    assert (BENCH / "out" / f"trace-{workload}-{SEED}.json").is_file()


def test_corrupted_expansion_raises_fail_ratio(monkeypatch, capsys):
    real = csr.expand

    def corrupted(a, **kwargs):
        # A growth rate one too high: every power it touches drifts by t.
        x = real(a, **kwargs)
        first = dataclasses.replace(x.terms[0], rate=x.terms[0].rate + 1)
        return dataclasses.replace(x, terms=(first,) + x.terms[1:])

    monkeypatch.setattr(csr, "expand", corrupted)
    result = bench.run("dense", SEED, 0, toy=True)
    assert not result["correct"] and result["failed"] > 0
    fail_ratio = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("metric fail_ratio"))
    assert float(fail_ratio.split()[2]) > 0


def test_tracing_fails_on_a_missing_attribute(monkeypatch):
    import maxplus.assignment as assignment
    from tracing import Tracer

    original = csr.characteristic_roots
    monkeypatch.delattr(assignment, "_solve_min_numpy")
    with pytest.raises(AttributeError):
        with Tracer().installed(("main", 0)):
            pass
    assert csr.characteristic_roots is original


def test_inputs_follow_the_seed():
    spec = WORKLOADS["sparse-wide"]
    first = inputs(spec, 1)
    assert first == inputs(spec, 1)
    assert first[0].text != inputs(spec, 2)[0].text
    assert inputs(WORKLOADS["dense"], 1) == inputs(WORKLOADS["dense"], 2)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "dense", "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
