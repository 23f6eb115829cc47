"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import one_round
import run
import speed

one_round.import_program()

import reference  # noqa: E402  (after the program is importable)
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    import tracing
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_round_passes_its_checks(workload):
    result = one_round.run_round(workload, seed=3, size="tiny")
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0 and result["wall_s"] > 0
    assert result["norm_wall_s"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_run_prints_every_metric(trace, capsys):
    out = run.run("kazhdan", seed=2, seconds=0.1, trace=trace, size="tiny")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(out["metrics"]) == sorted(names)
    if trace:
        assert out["metrics"]["kazhdan.cayley_configs"]["value"] == (
            reference.cayley_configs(3))
        assert "tracing overhead" in capsys.readouterr().out


def test_norm_wall_rescales_each_stretch_by_the_speed_around_it():
    ref = speed.KERNEL_REF_S
    meter = speed.Speedometer()
    # kernel passes before the round, at 1 s, at 2 s + ref, after the round
    meter.samples = [(-ref, ref), (1.0, ref), (2.0 + ref, 2 * ref),
                     (3.0 + 3 * ref, 2 * ref)]
    meter.start, meter.stop = 0.0, 3.0 + 3 * ref
    assert meter.wall_s() == pytest.approx(3.0)
    # stretches of 1 s at full speed, at 2/3 of it and at half of it
    assert meter.norm_wall_s() == pytest.approx(1.0 + 1 / 1.5 + 0.5)


def test_same_seed_same_inputs():
    a = workloads.Cosets(7, "tiny", None)
    b = workloads.Cosets(7, "tiny", None)
    assert a.explicit == b.explicit
    assert workloads.Kazhdan(7, "tiny", None).walks == (
        workloads.Kazhdan(7, "tiny", None).walks)


def test_wrong_expected_value_fails_the_round(monkeypatch):
    monkeypatch.setattr(reference, "GRAPHS_ON_N_VERTICES", (1, 1, 3, 4))
    result = one_round.run_round("lattice", seed=1, size="tiny")
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("graphs on 2 vertices" in p for p in result["problems"])


def test_wrong_profile_count_fails_the_round(monkeypatch):
    monkeypatch.setattr(reference, "partial_matchings", lambda n: 0)
    result = one_round.run_round("cosets", seed=1, size="tiny")
    assert not result["correct"] and result["failed"] >= 1


def test_a_call_that_raises_fails_the_round(monkeypatch):
    def broken(*args, **kwargs):
        raise workloads.kazhdan.InvariantViolation("displacement below 1/2")
    monkeypatch.setattr(workloads.kazhdan, "greedy_witness", broken)
    result = one_round.run_round("kazhdan", seed=1, size="tiny")
    walks = len(workloads.Kazhdan(1, "tiny", None).walks)
    assert not result["correct"] and result["failed"] == walks


def test_reference_values():
    assert [reference.partitions(n) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert reference.central_delannoy(4) == 321
    assert reference.covering_matrices(2, 2) == 7
    assert reference.partial_linear_isos(1, 3) == 3
    assert reference.tree_level_sizes(6) == [1, 4, 16, 128, 1024, 16384]
    s4 = reference.closure([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
    assert len(s4) == 24 and reference.subgroup_classes(s4) == 11
    assert reference.double_cosets(s4, reference.closure([], 4)) == 24


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
