"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Rounds are shortened to a few simulated seconds so every workload runs in
a moment; the set-up probes still build full-size rounds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def short_rounds(monkeypatch):
    monkeypatch.setattr(workloads, "DURATION_MS", 4_000.0)
    assert run._import_repro() is None


def _result(capsys, argv):
    status = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_finite(short_rounds, capsys, workload, trace):
    status, result = _result(
        capsys, ["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace)]
    )
    assert status == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])


def _entry_attributes():
    owners = []
    for module_name, owner_name, attr, _ in layers.ENTRY_POINTS:
        owners.append((layers._resolve(module_name, owner_name), attr))
    module_name, owner_name, attr = layers.REGISTER_HANDLER
    owners.append((layers._resolve(module_name, owner_name), attr))
    return [(owner, attr, owner.__dict__[attr]) for owner, attr in owners]


def test_traced_run_restores_every_wrapped_attribute(short_rounds):
    before = _entry_attributes()
    workload = workloads.WORKLOADS["hot_faults_checked"]
    clock = layers.LayerClock()
    with pytest.raises(RuntimeError, match="interrupted"):
        with layers.traced(clock):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
            rnd = workloads.Round(workload, 1, workloads.generate_arrivals(workload, 1))
            assert rnd.execute().correct
            raise RuntimeError("interrupted")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    assert all(clock.calls[layer] > 0 for layer in ("sim", "net", "mdcc", "core", "obs", "check"))


def _outcomes(workload, seed):
    rnd = workloads.Round(workload, seed, workloads.generate_arrivals(workload, seed))
    assert rnd.execute().correct
    return rnd.outcomes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_follows_the_seed(short_rounds, name):
    workload = workloads.WORKLOADS[name]
    first, again, other = (_outcomes(workload, seed) for seed in (1, 1, 2))
    assert first.digest == again.digest
    assert first.commit_latencies == again.commit_latencies
    assert first.response_latencies == again.response_latencies
    assert other.digest != first.digest


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "geo_uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
