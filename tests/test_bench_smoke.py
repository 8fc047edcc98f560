"""Smoke test of the benchmark in perfbench/: every operation of every
workload runs once and agrees with its oracle, so a name the bench
imports or a criterion line it parses cannot break without a failure
here."""
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["paper", "census", "tables"])
def test_every_bench_operation_agrees_with_its_oracle(workload, tmp_path,
                                                      monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.build(workload, 1, tmp_path)
    assert ops
    for op in ops:
        result, text = op.call()
        assert op.check(result, text) == [], op.label
