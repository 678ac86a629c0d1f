"""The benchmark at toy sizes: every workload, untraced and traced."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run

ROOT = run.ROOT
assert run.use_checkout_source(ROOT) is None

from perfbench import measure, suite, tracing  # noqa: E402  (needs the checkout's src first)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

TOY = 0.02


def _toy_run(workload: str, trace: bool, work_dir) -> dict:
    return suite.run_workload(workload, seed=3, seconds=0.0, trace=trace, work_dir=str(work_dir), scale=TOY)


def _units(result: dict) -> dict[str, str]:
    line = json.loads(run.result_line(result))
    return {name: m["unit"] for name, m in line["metrics"].items()}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric_and_restores_wrappers(workload, tmp_path):
    plain = _toy_run(workload, False, tmp_path / "plain")
    assert plain["failures"] == [] and plain["failed_frac"] == 0
    units = _units(plain)
    for metric in BENCHMARK["end_to_end"]:
        assert units.get(metric["name"]) == metric["unit"], metric["name"]
        assert plain["metrics"][metric["name"]][0] > 0, metric["name"]

    traced = _toy_run(workload, True, tmp_path / "traced")
    assert traced["failures"] == [] and traced["failed_frac"] == 0
    assert traced["detail"]["trace_missing"] == []
    units = _units(traced)
    assert units == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert os.path.getsize(traced["detail"]["spans_file"]) > 0

    for targets in tracing.LAYER_TARGETS.values():
        for target in targets:
            owner, attr, fn = tracing._resolve(target)
            assert not hasattr(fn, "perfbench_wrapper"), f"{target} still wrapped"


@pytest.mark.parametrize("trace", (False, True))
def test_mismatch_counts_as_failure(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(measure, "result_value", lambda algorithm, alg: -1)
    result = _toy_run("mis-churn", trace, tmp_path)
    assert result["failed"] > 0 and result["failed_frac"] > 0
    assert json.loads(run.result_line(result))["correct"] is False


def test_fails_without_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verified", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
