"""Smoke test of the benchmark at its smallest sizes.

Asserts that the correctness gate passes, that every metric named in
``BENCHMARK.json`` is printed, and that the gate does catch missing
truth.  It asserts no timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import check_bundle  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Every workload the generator knows, including many-callers, which
# BENCHMARK.json leaves out.  Per-layer names do not depend on the workload;
# shared-project traces the two worker threads of jobs=2.
CASES = [(name, 0) for name in sorted(WORKLOADS)] + [("shared-project", 1)]


@pytest.mark.parametrize("workload,trace", CASES)
def test_smallest_run_is_correct_and_complete(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_per_layer_spec_matches_benchmark_json() -> None:
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, _ in PER_LAYER]


def test_gate_reports_missing_truth() -> None:
    chunk = {"text": "+ long order0aReport = x;", "group_label": "Usage change in A.java",
             "is_constructor": False}
    bundle = {
        "class_ctx": {
            "OrderReport": {
                "defining_classes": ["OrderReport"],
                "chunks": [{"text": "public long getTotal();",
                            "group_label": "Defined in class OrderReport",
                            "is_constructor": False}],
            }
        },
        "usage_ctx": [chunk],
        "env_ctx_focal": [{"text": "+ int ORDER_RETRIES = 5;",
                           "group_label": "Environment change in S.java"}],
        "env_ctx_test": [],
    }
    truth = {
        "new_type": "OrderReport",
        "defining_classes": ["OrderReport"],
        "members": [{"declaring_class": "OrderReport", "name": "getTotal", "kind": "method"}],
        "callers": [{"file": "A.java", "sites": ["order0aReport"]}],
        "env_hunks": [{"family": "env_ctx_focal", "file": "S.java", "marker": "ORDER_RETRIES"}],
    }
    assert check_bundle(bundle, truth) == []
    truth["members"].append({"declaring_class": "OrderReport", "name": "getFailures", "kind": "method"})
    truth["callers"].append({"file": "B.java", "sites": ["order1aReport"]})
    truth["env_hunks"].append({"family": "env_ctx_test", "file": "T.java", "marker": "ORDER_FIXTURE"})
    assert len(check_bundle(bundle, truth)) == 3
