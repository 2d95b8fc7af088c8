"""Tests of the benchmark itself:  pytest perfbench/test_perfbench.py"""
import json
import subprocess
import sys
from pathlib import Path

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent


def test_poset_inputs_repeat_for_a_seed():
    first = workloads.build_inputs("poset", 7)
    again = workloads.build_inputs("poset", 7)
    other = workloads.build_inputs("poset", 8)
    assert workloads.inputs_digest(first) == workloads.inputs_digest(again)
    assert workloads.inputs_digest(first) != workloads.inputs_digest(other)
    assert len(first["queries"]) == workloads.FULL["queries"]


def test_self_time_subtracts_child_spans_and_call_groups():
    tr = Tracer("test")
    tr.spans = [["outer", -1, 0.0, 10.0, 0], ["inner", 0, 1.0, 4.0, 0]]
    tr.groups = {(0, "call"): [5, 2.0], (1, "call"): [1, 0.5]}
    seconds = tr.self_seconds()
    assert seconds["outer"] == 10.0 - 3.0 - 2.0
    assert seconds["inner"] == 3.0 - 0.5
    assert seconds["call"] == 2.5


def test_smoke_mode_reports_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")


def test_result_line_has_the_contract_keys():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "duality",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
