"""Tests of the benchmark itself.

Every workload runs at smoke size in both modes, metric names and units match
BENCHMARK.json, the traced replay reproduces the untraced estimates bit for
bit, and a directory without the package makes the benchmark fail without
printing a result.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import clock  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Call, Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_at_smoke_size(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload.startswith("mc_"):
        assert result["metrics"]["stationary.calls"]["value"] == 0
        assert result["metrics"]["simulate.fine_steps"]["value"] > 0
    else:
        assert result["metrics"]["stationary.calls"]["value"] == 6
        assert result["metrics"]["simulate.fine_steps"]["value"] == 0


def test_names_and_units_follow_the_contract():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + sorted(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_replay_reproduces_the_sweep(workload, tmp_path):
    wl = WORKLOADS[workload](workload, 5, SIZES["smoke"], tmp_path)
    wl.setup()
    swept = wl.sweep()
    tr = Tracer(0)
    replayed = wl.replay(tr)
    assert not wl.setup_problems and not swept.problems and not replayed.problems
    assert swept.outputs == replayed.outputs
    assert swept.ops == replayed.ops > 0
    assert all(end is not None for *_, end in tr.spans)


def test_a_one_ulp_difference_fails_the_replay_check():
    outputs = [("leg", ((200, b"\x00" * 8),))]
    changed = [("leg", ((200, b"\x01" + b"\x00" * 7),))]

    def sweep(out):
        sw = run.Sweep(wall=1.0, outcome=Outcome(ops=3, outputs=out))
        sw.tracer = Tracer(0)
        return sw

    traced = sweep(changed)
    problems = run._trace_problems([sweep(outputs)], [traced])
    assert problems and traced.outcome.failed == 3


def test_calls_are_scaled_by_the_host_speed_around_them():
    ref = clock.REFERENCE_S

    def sweep(marks, wall):
        out = Outcome(calls=[Call(4, wall, wall), Call(1, 0.5, 0.5)], marks=marks)
        return run.Sweep(wall=wall + 0.5, outcome=out)

    quiet = sweep([ref, ref, ref], 1.0)
    slow = sweep([2 * ref, 2 * ref, 2 * ref], 2.0)
    walls, cpus = run.scaled_calls([quiet, slow, slow])
    assert walls == cpus == [1.0, 0.25]
    metrics = run.end_to_end([quiet], setup_s=1.0)
    assert metrics["wall_s"] == 1.5
    assert metrics["op_p50_ms"] == 250.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "mc_tables", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
