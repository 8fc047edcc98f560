"""End-to-end acceptance gate: every verification criterion runs at its
stated budget and prints one pass/fail line."""
import time
from pathlib import Path

import pytest

from finalg import cli, verify

# per-criterion wall-clock budgets, in seconds
_BUDGETS = {
    "1": 1.0,
    "2": 1.0,
    "3": 10.0,
    "4": 1.0,
    "5": 1.0,
    "6": 1.0,
    "7": 30.0,
    "8": 5.0,
    "9": 5.0,
    "10": 5.0,
    "11": 10.0,
    "12": 1.0,
    "13": 60.0,
}


@pytest.mark.parametrize(
    "key,label,fn", verify.CRITERIA, ids=[c[1] for c in verify.CRITERIA]
)
def test_criterion(key, label, fn, capsys):
    start = time.monotonic()
    ok, detail = fn()
    elapsed = time.monotonic() - start
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{key}] {label}: {status} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {key} ({label}): {detail}"
    assert elapsed < _BUDGETS[key], (
        f"criterion {key} took {elapsed:.2f}s, budget {_BUDGETS[key]}s"
    )


def test_full_verification_command(capsys):
    start = time.monotonic()
    code = cli.main(["verify-paper"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        print(f"[14] full-verification-exit-0: "
              f"{'PASS' if code == 0 else 'FAIL'} ({elapsed:.2f}s)")
    assert code == 0
    assert elapsed < 180.0
    assert out.count("PASS") == len(verify.CRITERIA)
    assert "FAIL" not in out
    # every criterion detail and counterexample, byte for byte
    assert out == (Path(__file__).parent / "data" / "verify_paper.txt").read_text()
