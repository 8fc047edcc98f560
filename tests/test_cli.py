import json
import os
import pathlib
import subprocess
import sys

import pytest

from finalg import catalog
from finalg.cli import main
from finalg.dsl import parse_algebra, serialize


@pytest.fixture
def z3_file(tmp_path, z3_n2):
    p = tmp_path / "z3.alg"
    p.write_text(serialize(z3_n2))
    return str(p)


@pytest.fixture
def bool2_file(tmp_path, bool2):
    p = tmp_path / "bool2.alg"
    p.write_text(serialize(bool2))
    return str(p)


@pytest.fixture
def chain2_file(tmp_path, chain2_theta):
    p = tmp_path / "chain2.alg"
    p.write_text(serialize(chain2_theta))
    return str(p)


def test_check_suite_pass(z3_file, capsys):
    assert main(["check", z3_file, "--suite", "semiabelian:2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_identity_failure_exit_1(chain2_file, capsys):
    assert main(["check", chain2_file, "--identity", "1assoc:2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "counterexample" in out


def test_check_structured_output(chain2_file, capsys):
    assert main(["check", chain2_file, "--identity", "2assoc:2",
                 "--format", "structured"]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert rec["verdict"] == "pass"
    assert rec["tuples_checked"] == 32


def test_check_identity_from_file(tmp_path, z3_n2, capsys):
    p = tmp_path / "with_ident.alg"
    p.write_text(serialize(z3_n2)
                 + "\nidentity diag(a): theta(a, a, a) = a\n")
    assert main(["check", str(p)]) == 1
    assert "diag" in capsys.readouterr().out


def test_check_missing_file_exit_2(capsys):
    assert main(["check", "/nonexistent/x.alg"]) == 2


def test_check_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.alg"
    for text in [
        "algebra X { carrier }",
        # require is for search specs; parse_algebra rejects it too
        "algebra Z2 {\n  carrier 2\n  const e = 0\n"
        "  op theta/2 = [0, 1, 1, 0]\n  require 2assoc:7\n}\n"
        "identity comm(a, b): theta(a, b) = theta(b, a)\n",
        # integer literals over Python's 4,300-digit conversion limit
        "algebra X { carrier %s }" % ("1" * 5000),
        "algebra X { carrier 2 op f/1 = [0, %s] }" % ("1" * 5000),
    ]:
        p.write_text(text)
        assert main(["check", str(p), "--suite", "semiabelian:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_check_unknown_suite_exit_2(z3_file):
    assert main(["check", z3_file, "--suite", "bogus:1"]) == 2
    assert main(["check", z3_file, "--identity", "missing-name"]) == 2


def test_check_nothing_to_check_exit_2(z3_file):
    assert main(["check", z3_file]) == 2


def test_check_budget_refusal_exit_3(tmp_path, z3_file, capsys):
    assert main(["check", z3_file, "--suite", "2assoc:2",
                 "--budget", "5"]) == 3
    # a budget below 1 is an input error, not a refusal or the default
    for budget in ("0", "-5"):
        capsys.readouterr()
        assert main(["check", z3_file, "--suite", "2assoc:2",
                     "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    # m^5 has 5,001 digits: the refusal is worded as m^k, not printed
    p = tmp_path / "huge.alg"
    p.write_text("algebra H {\n  carrier 1%s\n  const e = 0\n}\n"
                 "identity five(a, b, c, d, x): e = e\n" % ("0" * 1000))
    assert main(["check", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget:")
    assert "^5 assignments exceed budget" in captured.err


def test_check_sampled_mode(z3_file, capsys):
    assert main(["check", z3_file, "--suite", "2assoc:2", "--mode",
                 "sampled", "--samples", "300", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "seed=5" in out


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_check_sampled_mode_refuses_no_samples(z3_file, capsys, samples):
    assert main(["check", z3_file, "--suite", "2assoc:2", "--mode",
                 "sampled", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_construct_output_parses_and_checks(tmp_path, capsys):
    for args in (
        ["construct", "boolean", "--k", "1"],
        ["construct", "projection", "--m", "2", "--n", "2", "--i", "1"],
        ["construct", "semigroup", "--order", "3", "--n", "2", "--i", "1"],
        ["construct", "group-product", "--orders", "2,3",
         "--indices", "1,2", "--n", "2"],
        ["construct", "lattice", "--shape", "chain:2",
         "--variant", "meet-middle"],
        ["construct", "bounded-monoid", "--order", "2", "--n", "3"],
        ["construct", "map-composition", "--m", "2", "--n", "1"],
        ["construct", "diagonal-retractions", "--m", "2", "--n", "2"],
        ["construct", "strict-semiloop", "--m", "3", "--twisted"],
        ["construct", "matrix-rows", "--q", "2", "--n", "1"],
    ):
        assert main(args) == 0, args
        alg = parse_algebra(capsys.readouterr().out)
        assert alg.size >= 1


def test_construct_unknown_name_exit_2(capsys):
    assert main(["construct", "florble"]) == 2


def test_construct_to_file_then_check(tmp_path, capsys):
    out = tmp_path / "z4.alg"
    assert main(["construct", "semigroup", "--order", "4", "--n", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", str(out), "--suite", "semiabelian:1"]) == 0


def test_derive_group_emits_verified_group(z3_file, capsys):
    assert main(["derive-group", z3_file]) == 0
    out = capsys.readouterr().out
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    alg = parse_algebra(body)
    assert alg.tables["prod"].entries == catalog.cyclic_group(3).table.entries
    assert "verified exhaustively" in out


def test_derive_group_refuses_boolean(bool2_file, capsys):
    assert main(["derive-group", bool2_file]) == 1
    assert "REFUSED" in capsys.readouterr().out


def test_malcev_command(bool2_file, z3_file, capsys):
    assert main(["malcev", z3_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("op mu/3 = [")
    assert main(["malcev", bool2_file]) == 0
    assert "PASS" in capsys.readouterr().out


def test_enriched_round_trip_via_cli(tmp_path, z3_file, capsys):
    assert main(["to-enriched", z3_file]) == 0
    enriched_text = capsys.readouterr().out
    p = tmp_path / "enriched.alg"
    p.write_text(enriched_text)
    assert main(["from-enriched", str(p)]) == 0
    back = parse_algebra(capsys.readouterr().out)
    original = parse_algebra(open(z3_file).read())
    assert back.tables["theta"].entries == original.tables["theta"].entries


def test_to_enriched_refuses_boolean(bool2_file, capsys):
    assert main(["to-enriched", bool2_file]) == 1
    assert "REFUSED" in capsys.readouterr().out


def test_search_command_modes(tmp_path, capsys):
    p = tmp_path / "spec.alg"
    p.write_text(
        "algebra S {\n"
        "  carrier 2\n"
        "  op theta/2 = free\n"
        "  op alpha1/2 = free\n"
        "  const e = 0\n"
        "  require semiabelian:1 2assoc:1\n"
        "}\n"
    )
    assert main(["search", str(p)]) == 0
    out = capsys.readouterr().out
    assert "witness" in out
    assert main(["search", str(p), "--search-mode", "count-all",
                 "--format", "structured"]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert rec["count"] == 1

    unsat = tmp_path / "unsat.alg"
    unsat.write_text(
        "algebra U {\n"
        "  carrier 2\n"
        "  op mu/3 = free\n"
        "  require malcev\n"
        "}\n"
        "identity mu-2assoc(a1, a2, b1, b2, c):\n"
        "  mu(a1, a2, mu(b1, b2, c)) = "
        "mu(mu(a1, a2, b1), mu(a1, a2, b2), c)\n"
    )
    assert main(["search", str(unsat)]) == 1
    assert main(["search", str(unsat), "--search-mode", "prove-none"]) == 0
    assert "no model" in capsys.readouterr().out


def test_search_spec_signature_mismatch_exit_2(tmp_path):
    p = tmp_path / "mismatch.alg"
    # the required suite speaks about theta, which the signature lacks
    p.write_text(
        "algebra M {\n  carrier 2\n  op mu/3 = free\n  require 2assoc:2\n}\n"
    )
    assert main(["search", str(p)]) == 2


def test_search_budget_exit_3(tmp_path, capsys):
    p = tmp_path / "big.alg"
    p.write_text(
        "algebra B {\n  carrier 3\n  op mu/3 = free\n  require malcev\n}\n"
    )
    assert main(["search", str(p), "--budget", "10"]) == 3
    # a space of 20^8000 is refused from its cell count, never printed
    huge = tmp_path / "huge.alg"
    huge.write_text(
        "algebra H {\n  carrier 20\n  op theta/3 = free\n"
        "  require 2assoc:2\n}\n"
    )
    capsys.readouterr()
    assert main(["search", str(huge)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget: search space 20^8000 exceeds budget 1000000000\n")
    # a budget below 1 is an input error, not a refusal or the default
    for budget in ("0", "-5"):
        capsys.readouterr()
        assert main(["search", str(p), "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_verify_subcommand_single_criterion(capsys):
    assert main(["verify-paper", "--only", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1


@pytest.mark.parametrize("flag", ["--suite", "--identity"])
@pytest.mark.parametrize("suite", ["2assoc:x", "2assoc:0", "2assoc:-1",
                                   "protomodular:5"])  # z3 has alpha1, alpha2
def test_check_bad_suite_arity_exit_2(z3_file, capsys, flag, suite):
    assert main(["check", z3_file, flag, suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


SPEC_HEAD = "algebra S {\n  carrier %d\n  op theta/2 = %s\n"


@pytest.mark.parametrize("body, mode", [
    (SPEC_HEAD % (0, "free") + "  require 2assoc:1\n}\n", "find-first"),
    (SPEC_HEAD % (0, "free") + "  require 2assoc:1\n}\n", "count-all"),
    (SPEC_HEAD % (2, "free") + "  op alpha1/2 = free\n  const e = 5\n"
     "  require semiabelian:1 2assoc:1\n}\n", "prove-none"),
    (SPEC_HEAD % (2, "[0, 1, 7, 0]") + "  require 2assoc:1\n}\n",
     "prove-none"),
    (SPEC_HEAD % (2, "free") + "  require 2assoc:0\n}\n", "find-first"),
    (SPEC_HEAD % (2, "free") + "  require bogus:1\n}\n", "find-first"),
    (SPEC_HEAD % (2, "free") + "  op beta/0 = free\n  require 2assoc:1\n}\n",
     "find-first"),
    (SPEC_HEAD % (2, "[0, 1, 0]") + "  require 2assoc:1\n}\n", "find-first"),
], ids=["carrier-0", "carrier-0-count", "const-outside", "entry-outside",
        "require-arity-0", "require-unknown", "op-arity-0", "pin-length"])
def test_search_malformed_spec_exit_2(tmp_path, capsys, body, mode):
    p = tmp_path / "bad.spec"
    p.write_text(body)
    assert main(["search", str(p), "--search-mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no verdict line
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_search_structured_reports_work(tmp_path, capsys):
    p = tmp_path / "spec.alg"
    p.write_text(
        "algebra S {\n  carrier 2\n  op theta/2 = free\n"
        "  op alpha1/2 = free\n  const e = 0\n"
        "  require semiabelian:1 2assoc:1\n}\n"
    )
    assert main(["search", str(p), "--search-mode", "count-all",
                 "--format", "structured"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert list(rec) == ["outcome", "count", "space_size", "nodes",
                         "instances_evaluated", "elapsed_s"]
    assert (rec["outcome"], rec["count"], rec["space_size"]) == (
        "count", 1, 256)
    assert rec["instances_evaluated"] > 0 and rec["elapsed_s"] >= 0


def test_python_dash_m_finalg():
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "finalg", "verify-paper", "--only", "1"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 1


def test_check_zero_arity_op_exit_2(tmp_path, capsys):
    p = tmp_path / "zero.alg"
    p.write_text("algebra T {\n  carrier 2\n  op theta/0 = [0]\n}\n")
    assert main(["check", str(p), "--suite", "2assoc:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_search_prove_none_with_a_model_exit_1(tmp_path, capsys):
    p = tmp_path / "group3.spec"
    p.write_text(
        "algebra G {\n  carrier 3\n  op theta/2 = free\n"
        "  op alpha1/2 = free\n  const e = 0\n"
        "  require semiabelian:1 2assoc:1\n}\n"
    )
    assert main(["search", str(p)]) == 0
    found = capsys.readouterr().out
    assert main(["search", str(p), "--search-mode", "prove-none"]) == 1
    out = capsys.readouterr().out
    assert out == found
    assert out.startswith("witness found (space 387420489, nodes 1509)")
