"""The benchmark's own tests: every workload at a tiny size, with the full checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from inputs import Size  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "hierarchy-all": Size(n=60),
    "chain-nesting": Size(n=50),
    "point-lookups": Size(n=300, lookups=20, warmup=3),
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run_passes_every_check(workload, trace):
    result = run.run_workload(workload, seed=5, seconds=0.2, trace=bool(trace), size=TINY[workload])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counters_repeat_across_seeds():
    # The seed relabels vertices; the structure, and so the work, stays.
    counts = []
    for seed in (1, 2):
        metrics = run.run_workload("chain-nesting", seed, 0.1, True, TINY["chain-nesting"])["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1] and counts[0]["engine.pops"] > 0


def test_wrong_answer_or_counter_marks_the_operation_failed():
    expected = b"v1\tS\tv1\n"
    good = {"sha": run.sha256_hex(expected), "pops": 3, "insertions": 3, "items_created": 1, "edges_added": 1,
            "seconds": 0.1}
    rounds = [{"ops": [good, {**good, "sha": run.sha256_hex(b"")}, {**good, "pops": 4}, {"error": "x", "seconds": 0}]}]
    assert run.check_ops(rounds, expected) == (4, 3)


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    args = ["--workload", "chain-nesting", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0 and done.stdout == b""
