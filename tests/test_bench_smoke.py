"""Smoke test of the benchmark in perfbench/: every operation of every
workload runs once and agrees with its oracle, so a name the bench
imports or a criterion line it parses cannot break without a failure
here."""
import importlib
from pathlib import Path

import pytest

from finalg import identities, search

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


@pytest.mark.parametrize("workload", ["paper", "census", "tables"])
def test_a_second_bench_pass_builds_no_plan(workload, tmp_path, monkeypatch,
                                            cold_caches):
    # the plans a pass of each workload needs fit both plan caches, so
    # with caches emptied before its set-up, a second pass misses none
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    caches = (identities._plans, search._plans)
    ops = workloads.build(workload, 911, tmp_path)
    for op in ops:
        op.call()
    first = [(kept.misses, kept.evictions) for kept in caches]
    assert any(misses for misses, _ in first)
    assert all(kept.misses == len(kept.entries) for kept in caches)
    for op in ops:
        op.call()
    assert [(kept.misses, kept.evictions) for kept in caches] == first
