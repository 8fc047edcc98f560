import io
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from finalg import catalog, clear_caches, cli, groups
from finalg.cli import main
from finalg.core import (
    BudgetError,
    DenseTable,
    FiniteAlgebra,
    Signature,
    eval_term,
)
from finalg.dsl import MAX_TERM_DEPTH, parse_algebra, parse_file, serialize
from finalg.identities import (
    ASSOCIATIVITY,
    identity_2assoc,
    suite_identities,
)

from conftest import brute_first_counterexample, tables_token_by_token


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


def test_check_missing_file_exit_2(tmp_path, capsys):
    assert main(["check", "/nonexistent/x.alg"]) == 2
    # a file that is not UTF-8 text cannot be read either
    p = tmp_path / "binary.alg"
    p.write_bytes(b"\xff\xfe\x00algebra")
    assert main(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read")


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
        # a length that cannot match 3^10000000, decided without it
        "algebra X {\n  carrier 3\n  op f/10000000 = [0]\n}\n",
        # check reads exactly one algebra block
        "algebra X { carrier 1 }\nalgebra Y { carrier 1 }\n",
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


def test_an_exhaustive_refusal_names_the_budget_not_sampling(
        z3_file, capsys):
    assert main(["check", z3_file, "--suite", "2assoc:2",
                 "--budget", "5"]) == 3
    assert capsys.readouterr().err == (
        "budget: identity '2assoc:2': 3^5 assignments exceed budget 5 "
        "(finalg check --budget raises it)\n")
    # a library caller is not told of check's --budget: a lattice whose
    # distributivity is over the default budget is refused without it;
    # its laws are not checked here, as construct would check them first
    m = 500
    chain = FiniteAlgebra(
        "chain", Signature((("join", 2), ("meet", 2))), m,
        {"join": DenseTable(2, [max(a, b) for a in range(m)
                                for b in range(m)]),
         "meet": DenseTable(2, [min(a, b) for a in range(m)
                                for b in range(m)])})
    with pytest.raises(BudgetError) as refused:
        catalog.build_lattice_theta(chain, "meet-middle")
    assert str(refused.value) == (
        "identity 'distributivity': 500^3 assignments exceed budget "
        "100000000")


def test_check_one_element_carrier_with_64_variables(tmp_path, capsys):
    # one tuple of 64 zeros: no array of more than 64 dimensions is made
    p = tmp_path / "one.alg"
    xs = ", ".join(f"x{i}" for i in range(1, 65))
    p.write_text("algebra One {\n  carrier 1\n  op f/1 = [0]\n}\n"
                 f"identity wide({xs}): f(x1) = f(x64)\n")
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out == "IDENTITY wide PASS tuples=1\n"


def test_check_sampled_mode(z3_file, capsys):
    assert main(["check", z3_file, "--suite", "2assoc:2", "--mode",
                 "sampled", "--samples", "300", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "seed=5" in out


def test_a_sampled_check_without_failure_reads_unrefuted(z3_file, capsys):
    # no failure in K samples is no proof: the text line says UNREFUTED
    # and states the rule-of-three bound; exit 0 and the structured
    # verdict sampled-pass stay
    argv = ["check", z3_file, "--suite", "2assoc:2", "--mode", "sampled",
            "--samples", "300", "--seed", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "IDENTITY 2assoc:2 UNREFUTED tuples=300 seed=5 "
        "[failing fraction < 3/300 at 95% confidence]\n")
    assert main(argv + ["--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "sampled-pass"
    # a failure found by sampling is a proof, and stays FAIL
    assert main(["check", z3_file, "--suite", "1assoc:2", "--mode",
                 "sampled", "--samples", "300", "--seed", "5"]) == 1
    out = capsys.readouterr().out
    verdicts = [line.split()[2] for line in out.splitlines()]
    assert "FAIL" in verdicts and set(verdicts) <= {"FAIL", "UNREFUTED"}


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_check_sampled_mode_refuses_no_samples(z3_file, capsys, samples):
    assert main(["check", z3_file, "--suite", "2assoc:2", "--mode",
                 "sampled", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_check_sampled_mode_over_budget_exit_3(z3_file, capsys):
    # more samples than the budget are refused before any is drawn
    start = time.perf_counter()
    assert main(["check", z3_file, "--suite", "2assoc:2", "--mode",
                 "sampled", "--samples", str(10 ** 12), "--budget",
                 "1000"]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget: identity '2assoc:2': 1000000000000 "
                            "samples exceed budget 1000\n")
    assert main(["check", z3_file, "--suite", "2assoc:2", "--mode",
                 "sampled", "--samples", "1000", "--budget", "1000"]) == 0


@pytest.mark.parametrize("command, text", [
    ("check", "identity d(x, y, x): theta(x, y) = theta(y, x)\n"),
    ("search", "identity d(x, x): theta(x, x) = x\n"),
])
def test_an_identity_that_declares_a_variable_twice_exit_2(
        tmp_path, capsys, command, text):
    p = tmp_path / "twice.alg"
    body = "op theta/2 = free" if command == "search" else (
        "op theta/2 = [0, 1, 1, 0]")
    p.write_text(f"algebra T {{\n  carrier 2\n  {body}\n}}\n{text}")
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: identity 'd' declares variable 'x' "
                            "twice\n")


def test_check_sampled_mode_huge_carrier_exit_2(tmp_path, capsys):
    # the sampler draws 32-bit words, so a carrier of 2^32 or more is refused
    p = tmp_path / "huge.alg"
    p.write_text("algebra H {\n  carrier 5000000000\n  const e = 0\n}\n"
                 "identity two(a, b): e = e\n")
    assert main(["check", str(p), "--mode", "sampled"]) == 2
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


@pytest.mark.parametrize("argv", [
    [], ["check", "x.alg", "--mode", "bogus"], ["construct", "--m", "x"],
    ["florble"],
])
def test_usage_errors_exit_2_through_main(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["check", "--help"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_construct_unknown_name_exit_2(capsys):
    assert main(["construct", "florble"]) == 2


@pytest.mark.parametrize("argv", [
    ["lattice", "--shape", "chain:x"],
    ["lattice", "--shape", "chain:"],
    ["lattice", "--shape", "bogus"],
    ["group-product", "--orders", "2,x"],
    ["group-product", "--indices", "1,x"],
    # out-of-range sizes, indices and variants
    ["semigroup", "--order", "0"],
    ["semigroup", "--order", "2", "--i", "3"],
    ["projection", "--m", "0"],
    ["projection", "--i", "5"],
    ["strict-semiloop", "--m", "0"],
    ["strict-semiloop", "--m", "2", "--twisted"],
    ["matrix-rows", "--q", "0"],
    ["lattice", "--shape", "chain:0"],
    ["boolean", "--k", "0"],
    ["bounded-monoid", "--order", "0"],
    ["group-product", "--orders", "0,2"],
    ["group-product", "--indices", "1"],
    ["map-composition", "--n", "-1"],
    ["diagonal-retractions", "--n", "0"],
    # theta needs n >= 1
    ["projection", "--n", "0"],
    ["map-composition", "--n", "0"],
    ["bounded-monoid", "--n", "0"],
    ["matrix-rows", "--n", "0"],
])
def test_construct_bad_integer_option_exit_2(capsys, argv):
    assert main(["construct"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["map-composition", "--m", "2", "--n", "30"],
    ["diagonal-retractions", "--m", "4", "--n", "3"],
    ["diagonal-retractions", "--m", "3", "--n", "3"],
    # tables over the materialize limit, refused before they are built
    ["strict-semiloop", "--m", "100000"],
    ["group-product", "--orders", "100,100", "--n", "2"],
    # factors that build but whose product is over the limit
    ["group-product", "--orders", "2000,2", "--n", "2"],
    ["matrix-rows", "--q", "2", "--n", "2"],
    # a carrier of 2^14641 elements, refused before the power is built
    ["matrix-rows", "--q", "2", "--n", "120"],
    ["semigroup", "--order", "3000"],
    ["lattice", "--shape", "chain:3000"],
    ["bounded-monoid", "--order", "3000"],
    # an exponent (n+1)^2 of 6,001 digits, written as its parts
    ["matrix-rows", "--q", "2", "--n", "9" * 3000],
])
def test_construct_over_cap_exit_3_before_building(capsys, argv):
    start = time.perf_counter()
    assert main(["construct"] + argv) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget:")
    assert "exceeds cap" in captured.err


@pytest.mark.parametrize("extra", [[], ["--with-alphas"]])
def test_construct_chain_refuses_distributivity_before_building(
        capsys, monkeypatch, extra):
    # the lattice theta's distributivity check of 500^3 assignments is
    # refused, in check_identity's words, before chain_lattice runs the
    # lattice laws, which no budget bounds; construct has no --budget, so
    # the refusal names none
    built = []
    monkeypatch.setattr(catalog, "chain_lattice", built.append)
    assert main(["construct", "lattice", "--shape", "chain:500",
                 *extra]) == 3
    assert built == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget: identity 'distributivity': 500^3 assignments exceed "
        "budget 100000000\n")


@pytest.fixture(scope="module")
def z40_files(tmp_path_factory):
    """A 40-element n = 2 algebra, whose 2assoc:2 and malcev-assoc have
    40^5 > 10^8 tuples, and an enriched group on 40 elements that gives
    such an algebra back: theta(a1, a2, b) = a1 + b on Z/40."""
    d = tmp_path_factory.mktemp("z40")
    alg = d / "z40.alg"
    assert main(["construct", "semigroup", "--order", "40", "--n", "2",
                 "--out", str(alg)]) == 0
    m, z40 = 40, catalog.cyclic_group(40)
    eg = groups.enriched_algebra(
        "E", m, z40.op("prod"), 0,
        DenseTable(2, [a for a in range(m) for _ in range(m)]),
        [DenseTable(2, [(a - b) % m for a in range(m) for b in range(m)]),
         DenseTable(2, [0] * m * m)])
    enriched = d / "e40.alg"
    enriched.write_text(serialize(eg))
    return {"algebra": str(alg), "enriched": str(enriched)}


@pytest.mark.parametrize("argv, ident", [
    (["derive-group", "algebra"], "2assoc:2"),
    (["to-enriched", "algebra"], "2assoc:2"),
    (["from-enriched", "enriched"], "2assoc:2"),
    (["malcev", "algebra"], "malcev-assoc"),
    (["construct", "lattice", "--shape", "chain:500"], "distributivity")])
def test_a_refusal_names_no_budget_option_a_command_lacks(argv, ident,
                                                          z40_files, capsys):
    # only check has --budget, so only check's refusal names it
    argv = [z40_files.get(a, a) for a in argv]
    assert main(argv) == 3
    m, k = (500, 3) if ident == "distributivity" else (40, 5)
    assert capsys.readouterr() == ("", (
        f"budget: identity {ident!r}: {m}^{k} assignments exceed budget "
        "100000000\n"))
    if ident == "2assoc:2":  # check names its --budget, byte for byte
        assert main(["check", z40_files["algebra"], "--suite",
                     "2assoc:2"]) == 3
        assert capsys.readouterr().err == (
            "budget: identity '2assoc:2': 40^5 assignments exceed budget "
            "100000000 (finalg check --budget raises it)\n")


def _outcome(argv):
    """(exit code or SystemExit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # --help exits in argparse
            code = ("exit", e.code)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["check", "--help"],
    ["--help"],
    ["search", "-h"],
    ["check"],  # no file
    ["derive-group"],
    ["check", "FILE", "--bogus", "1"],  # an unknown option
    ["check", "FILE", "--mode", "bogus"],
    ["construct", "semigroup", "--order", "x"],
    ["bogus"],  # an unknown command
    [],
    ["--bogus"],
    ["verify-paper", "--only"],
    ["verify-paper", "--only", "99"],
    ["check", "FILE", "--suite", "2assoc:2", "--budget", "5"],
])
def test_a_command_parser_alone_reads_as_the_top_level_one(argv, z3_file,
                                                            monkeypatch):
    # main parses a command's argv with that command's parser alone; with
    # no command parsers to pick from, the top-level parser reads it all
    argv = [z3_file if a == "FILE" else a for a in argv]
    one_pass = _outcome(argv)
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert _outcome(argv) == one_pass
    code = one_pass[0]
    assert code in (("exit", 0), 2, 3), one_pass
    if code == 2:
        assert one_pass[1] == "" and one_pass[2].startswith("error: ")


# every integer option each construction reads, at its default; a list
# option is tried element by element, and --shape as chain:N
_INT_OPTIONS = {
    "projection": {"--m": "2", "--n": "1", "--i": "1"},
    "semigroup": {"--order": "2", "--n": "1", "--i": "1"},
    "group-product": {"--n": "1", "--orders": "2,3", "--indices": "1,2"},
    "matrix-rows": {"--q": "2", "--n": "1"},
    "bounded-monoid": {"--order": "2", "--n": "1"},
    "lattice": {"--shape": "chain:2"},
    "boolean": {"--k": "1"},
    "map-composition": {"--m": "2", "--n": "1"},
    "diagonal-retractions": {"--m": "2", "--n": "1"},
    "strict-semiloop": {"--m": "3"},
}
_HOSTILE = {"0": "0", "-1": "-1", "31digits": str(10 ** 30),
            "4300digits": "9" * 4300}


def _hostile_cases():
    for name, options in _INT_OPTIONS.items():
        for option, default in options.items():
            prefix, _, rest = default.rpartition(":")
            slots = rest.split(",")
            for at in range(len(slots)):
                for label, value in _HOSTILE.items():
                    text = ",".join(slots[:at] + [value] + slots[at + 1:])
                    if prefix:
                        text = f"{prefix}:{text}"
                    yield pytest.param(
                        [name, option, text],
                        id=f"{name}{option}[{at}]={label}")


def _expire(signum, frame):
    raise TimeoutError("construct ran past its time")


def _construct_within(seconds, argv):
    """_run_main of a construct command, failed by an alarm (instead of
    hanging) when it runs past seconds."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(seconds)
    try:
        return _run_main(["construct"] + argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv", list(_hostile_cases()))
def test_construct_answers_hostile_integers_in_time(argv):
    # each integer option at 0, -1, 10^30 and a 4,300-digit value, the
    # others at their defaults: exit 0, or 2 or 3 with one message line
    # and no output, within 2 s
    code, out, err = _construct_within(2, argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert out and err == ""
    else:
        assert out == ""
        assert err.startswith("error:" if code == 2 else "budget:")
        assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [
    ["projection", "--m", "1"],
    ["semigroup", "--order", "1"],
    ["bounded-monoid", "--order", "1"],
    ["matrix-rows", "--q", "1"],
    ["map-composition", "--m", "1"],
    ["group-product", "--orders", "1,1"],
    ["diagonal-retractions", "--m", "1"],
])
def test_one_element_carrier_refuses_a_huge_arity(argv):
    # one entry at any arity, but n+1 digit arrays are refused by the
    # arity before any is built (or any loop over n runs)
    start = time.perf_counter()
    code, out, err = _construct_within(2, argv + ["--n", str(10 ** 30)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("budget: table with ")
    assert err.endswith(" arguments exceeds cap 4194304\n")


def test_retractions_of_a_wide_carrier_need_no_wide_codes():
    # for n = 1 every point is diagonal: the identity map is the only
    # retraction, at m = 20 as at m = 16 (its value table as one base-m
    # number would not fit in int64); a carrier of 10^8 is refused
    for m in (16, 20):
        code, out, err = _run_main(["construct", "diagonal-retractions",
                                    "--m", str(m), "--n", "1"])
        assert (code, err) == (0, "")
        assert out == _run_main(["construct", "diagonal-retractions",
                                 "--m", "2", "--n", "1"])[1].replace(
            "Retr-m2-n1", f"Retr-m{m}-n1")
    start = time.perf_counter()
    code, out, err = _run_main(["construct", "diagonal-retractions",
                                "--m", "100000000", "--n", "1"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (
        "budget: table with 100000000^1 entries exceeds cap 4194304\n")


# every construction at two or three small sizes; construct.txt holds
# their stdout, written from the repository root by
#   PYTHONPATH=src:tests python -c \
#       "import test_cli; test_cli._write_construct_transcript()"
_CONSTRUCT_GOLDEN = [
    ["projection", "--m", "2", "--n", "1", "--i", "1"],
    ["projection", "--m", "3", "--n", "2", "--i", "3"],
    ["semigroup", "--order", "3", "--n", "1"],
    ["semigroup", "--order", "2", "--n", "2", "--i", "2"],
    ["group-product", "--orders", "2,2", "--indices", "1,1", "--n", "1"],
    ["group-product", "--orders", "2,3", "--indices", "1,2", "--n", "2"],
    ["group-product", "--orders", "2,3,2", "--indices", "1,2,1", "--n", "2"],
    ["matrix-rows", "--q", "2", "--n", "1"],
    ["matrix-rows", "--q", "1", "--n", "2"],
    ["bounded-monoid", "--order", "2", "--n", "3"],
    ["bounded-monoid", "--order", "3", "--n", "4"],
    ["lattice", "--shape", "chain:2"],
    ["lattice", "--shape", "chain:3", "--variant", "meet-last"],
    ["lattice", "--shape", "2x2", "--with-alphas"],
    ["lattice", "--shape", "chain:3", "--with-alphas"],
    ["boolean", "--k", "1"],
    ["boolean", "--k", "2"],
    ["map-composition", "--m", "2", "--n", "1"],
    ["map-composition", "--m", "3", "--n", "1"],
    ["map-composition", "--m", "1", "--n", "3"],
    ["diagonal-retractions", "--m", "2", "--n", "1"],
    ["diagonal-retractions", "--m", "2", "--n", "2"],
    ["strict-semiloop", "--m", "3"],
    ["strict-semiloop", "--m", "4", "--twisted"],
    ["strict-semiloop", "--m", "5", "--twisted"],
]
_CONSTRUCT_TXT = pathlib.Path(__file__).parent / "data" / "construct.txt"


def _construct_transcript():
    """Each golden construct command as a '# finalg construct ...' line,
    followed by its stdout."""
    pieces = []
    for argv in _CONSTRUCT_GOLDEN:
        code, out, err = _run_main(["construct"] + argv)
        assert (code, err) == (0, ""), argv
        pieces.append("# finalg construct " + " ".join(argv) + "\n" + out)
    return "".join(pieces)


def _write_construct_transcript():
    _CONSTRUCT_TXT.write_text(_construct_transcript())


def test_construct_output_matches_golden_file():
    assert _construct_transcript() == _CONSTRUCT_TXT.read_text()


def test_construct_one_element_table_of_arity_65(capsys):
    # the one-entry table of theta/65, as --n 63 gives for theta/64
    assert main(["construct", "projection", "--m", "1", "--n", "64",
                 "--i", "1"]) == 0
    assert capsys.readouterr().out == (
        "algebra Proj1n64i1 {\n  carrier 1\n  op theta/65 = [0]\n}\n")


def test_construct_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "b.alg"
    assert main(["construct", "boolean", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write")


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
    assert alg.tables["prod"].entries == catalog.cyclic_group(3).op("prod").entries
    source = parse_algebra(pathlib.Path(z3_file).read_text())
    assert out.splitlines()[-1] == (
        "# group axioms verified exhaustively on 3 elements; "
        f"source hash {groups.algebra_hash(source)}")


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
    original = parse_algebra(pathlib.Path(z3_file).read_text())
    assert back.tables["theta"].entries == original.tables["theta"].entries


# Z/3 with n = 1: prod(a, b) = a + b, alpha1(a, b) = a - b
_ENRICHED_Z3 = ("algebra MyEG {{\n  carrier 3\n  const e = 0\n"
                "  op prod/2 = [0, 1, 2, 1, 2, 0, 2, 0, 1]\n"
                "  op gamma/1 = {gamma}\n  op alpha1/{arity} = {alpha}\n}}\n")


def test_from_enriched_refusal_names_the_input(tmp_path, capsys):
    # gamma(2) = 1: prod(gamma(alpha1(0, 1)), 1) = 2, not 0
    p = tmp_path / "bad.alg"
    p.write_text(_ENRICHED_Z3.format(
        gamma="[0, 2, 1]", arity=2, alpha="[0, 2, 1, 1, 0, 2, 2, 1, 0]"))
    assert main(["from-enriched", str(p)]) == 1
    assert capsys.readouterr().out == (
        "REFUSED: MyEG: gamma-alpha fails at a=0, b=1\n")


def test_from_enriched_wrong_alpha_arity_exit_2(tmp_path, capsys):
    p = tmp_path / "arity.alg"
    p.write_text(_ENRICHED_Z3.format(
        gamma="[0, 1, 2]", arity=3, alpha=str([0] * 27)))
    assert main(["from-enriched", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_to_enriched_refuses_boolean(bool2_file, capsys):
    assert main(["to-enriched", bool2_file]) == 1
    assert "REFUSED" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["derive-group", "to-enriched", "malcev"])
def test_group_refusal_prints_failing_report(tmp_path, capsys, command):
    # alpha1 is constant, so the retraction theta(alpha1(a, b), b) = a fails
    p = tmp_path / "nonproto.alg"
    p.write_text("algebra P {\n  carrier 2\n  const e = 0\n"
                 "  op theta/2 = [0, 1, 1, 0]\n"
                 "  op alpha1/2 = [0, 0, 0, 0]\n}\n")
    assert main([command, str(p)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("REFUSED: 'P' fails ")
    assert lines[1].startswith("IDENTITY retraction FAIL [counterexample: ")


@pytest.mark.parametrize("command, fixture", [
    ("derive-group", "chain2_file"),
    ("to-enriched", "chain2_file"),
    ("malcev", "chain2_file"),
    ("from-enriched", "z3_file"),
])
def test_group_command_missing_symbol_exit_2(request, capsys, command,
                                             fixture):
    # chain2 has theta only (no alphas, no units); z3 has no prod or gamma
    assert main([command, request.getfixturevalue(fixture)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


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
    # 20^5 ground instances of 2assoc:2 are refused before any is ground
    huge = tmp_path / "huge.alg"
    huge.write_text(
        "algebra H {\n  carrier 20\n  op theta/3 = free\n"
        "  require 2assoc:2\n}\n"
    )
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["search", str(huge), "--budget", str(10 ** 6)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget: search ground instances exceed budget "
                            "1000000 at identity '2assoc:2' (20^5)\n")
    # 4 free cells, but an identity of 24 variables: 2^24 instances are
    # over the materialize limit at the default budget
    args = ", ".join(f"x{i}" for i in range(1, 25))
    huge.write_text("algebra W {\n  carrier 2\n  op f/2 = free\n}\n"
                    f"identity wide({args}): f(x1, x2) = f(x2, x1)\n")
    assert main(["search", str(huge)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget: search ground instances exceed cap "
                            "4194304 at identity 'wide' (2^24)\n")
    # an arity of 10^7 is refused from the arity, 3^10000000 never built
    huge.write_text("algebra H {\n  carrier 3\n  op f/10000000 = free\n}\n")
    assert main(["search", str(huge)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget: search table 'f' of 3^10000000 cells exceeds cap 4194304\n")
    assert time.perf_counter() - start < 1
    # a search over its budget stops and reports the work done: the group
    # spec on three elements grounds 39 instances and evaluates 140
    group = tmp_path / "group3.alg"
    group.write_text(
        "algebra G {\n  carrier 3\n  op theta/2 = free\n"
        "  op alpha1/2 = free\n  const e = 0\n"
        "  require semiabelian:1 2assoc:1\n}\n"
    )
    assert main(["search", str(group), "--search-mode", "count-all",
                 "--budget", "100"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"budget: search evaluated \d+ ground instances in "
                        r"\d+ nodes, over budget 100\n", captured.err)
    # a budget below 1 is an input error, not a refusal or the default
    for budget in ("0", "-5"):
        capsys.readouterr()
        assert main(["search", str(p), "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_search_ground_size_over_the_cap_exit_3(tmp_path, capsys):
    # 2^18 instances of an 18-variable chain, 34 applications each: the
    # ground size is refused before any instance is ground
    xs = [f"x{i}" for i in range(1, 19)]
    lhs = xs[-1]
    for x in reversed(xs[:-1]):
        lhs = f"f({x}, {lhs})"
    rhs = xs[0]
    for x in xs[1:]:
        rhs = f"f({rhs}, {x})"
    p = tmp_path / "chain.alg"
    p.write_text("algebra C {\n  carrier 2\n  op f/2 = free\n}\n"
                 f"identity chain({', '.join(xs)}): {lhs} = {rhs}\n")
    start = time.perf_counter()
    assert main(["search", str(p), "--search-mode", "count-all"]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget: search ground size 8912896 exceeds cap 4194304 at identity "
        "'chain' (2^18 instances of 34 applications and constants)\n")


def test_a_count_all_search_imports_no_numpy(tmp_path):
    # the search and its CLI path stay pure Python: a process that only
    # counts models never pays for importing numpy
    p = tmp_path / "group3.alg"
    p.write_text(
        "algebra G {\n  carrier 3\n  op theta/2 = free\n"
        "  op alpha1/2 = free\n  const e = 0\n"
        "  require semiabelian:1 2assoc:1\n}\n"
    )
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "from finalg import cli\n"
            f"code = cli.main(['search', {str(p)!r}, '--search-mode', "
            "'count-all'])\n"
            "assert code == 0, code\n"
            "assert 'numpy' not in sys.modules\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("count = 1 ")


def test_verify_subcommand_single_criterion(capsys):
    assert main(["verify-paper", "--only", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1


def test_verify_subcommand_unknown_criterion_exit_2(capsys):
    # running nothing is not a pass: an unknown key names the valid ones
    assert main(["verify-paper", "--only", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown criterion 'bogus'")
    assert "13 (catalog-2assoc-examples)" in captured.err


@pytest.mark.parametrize("flag", ["--suite", "--identity"])
@pytest.mark.parametrize("suite", ["2assoc:x", "2assoc:0", "2assoc:-1",
                                   "protomodular:5",  # z3 has alpha1, alpha2
                                   # refused from theta's arity, unbuilt
                                   "protomodular:200000", "2assoc:3000"])
def test_check_bad_suite_arity_exit_2(z3_file, capsys, flag, suite):
    start = time.perf_counter()
    assert main(["check", z3_file, flag, suite]) == 2
    assert time.perf_counter() - start < 0.5
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
    (SPEC_HEAD % (2, "free") + "  require\n}\n", "find-first"),
    (SPEC_HEAD % (2, "free") + "}\n" + SPEC_HEAD % (2, "free") + "}\n",
     "count-all"),
], ids=["carrier-0", "carrier-0-count", "const-outside", "entry-outside",
        "require-arity-0", "require-unknown", "op-arity-0", "pin-length",
        "require-nothing", "two-blocks"])
def test_search_malformed_spec_exit_2(tmp_path, capsys, body, mode):
    p = tmp_path / "bad.spec"
    p.write_text(body)
    assert main(["search", str(p), "--search-mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no verdict line
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_a_term_nested_past_the_bound_exits_2(tmp_path, capsys):
    # f^200(a) = f(a) on the swap of {0, 1}: 200 is even, so check fails
    # at a = 0 (eval_term confirms it) and search finds f = [0, 0], which
    # it re-verifies; one level more is refused at its innermost token
    head = "identity deep(a): "
    for depth in (MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1):
        term = "f(" * depth + "a" + ")" * depth
        alg = tmp_path / "deep.alg"
        alg.write_text("algebra A {\n  carrier 2\n  op f/1 = [1, 0]\n}\n"
                       f"{head}{term} = f(a)\n")
        spec = tmp_path / "deep.spec"
        spec.write_text("algebra A {\n  carrier 2\n  op f/1 = free\n}\n"
                        f"{head}{term} = f(f(f(a)))\n")
        if depth == MAX_TERM_DEPTH:
            assert main(["check", str(alg)]) == 1
            assert "IDENTITY deep FAIL [counterexample: a=0]" in (
                capsys.readouterr().out)
            assert main(["search", str(spec)]) == 0
            assert capsys.readouterr().out.startswith("witness found")
            continue
        for argv in (["check", str(alg)], ["search", str(spec)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: line 5, col {len(head) + 2 * depth + 1}: term "
                f"nested in more than {MAX_TERM_DEPTH} applications\n")


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
    assert list(rec) == ["outcome", "count", "nodes",
                         "instances_evaluated", "forced", "elapsed_s"]
    assert (rec["outcome"], rec["count"]) == ("count", 1)
    assert rec["instances_evaluated"] > 0 and rec["elapsed_s"] >= 0
    # alpha1(a, a) = e forces both diagonal cells of alpha1 at the root
    assert rec["forced"] >= 2


@pytest.mark.parametrize("mode, work", [
    # (nodes, instances_evaluated, forced): 2,052 evaluations at the root
    # (unit's twice), then proj at every node, and copy twice at each node
    # proj accepts, before and after it forces h's cell
    ("count-all", (2048, 6148, 1026)),
    ("find-first", (1536, 5636, 1026)),
])
def test_search_a_tree_deeper_than_the_recursion_limit(tmp_path, capsys,
                                                       mode, work):
    # f/10 on two elements has 1,024 free cells, each a level of the tree:
    # an f cell blocks proj inside g, so no instance forces it, while unit
    # forces g at the root and copy forces each cell of h from f's
    args = ", ".join(f"x{i}" for i in range(1, 11))
    p = tmp_path / "proj.alg"
    p.write_text(
        "algebra P {\n  carrier 2\n  op f/10 = free\n  op g/1 = free\n"
        "  op h/10 = free\n}\n"
        "identity unit(x): g(x) = x\n"
        f"identity proj({args}): g(f({args})) = x1\n"
        f"identity copy({args}): h({args}) = f({args})\n"
    )
    assert main(["search", str(p), "--search-mode", mode,
                 "--format", "structured"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rec = json.loads(lines[0])
    assert (rec["nodes"], rec["instances_evaluated"], rec["forced"]) == work
    assert rec["nodes"] >= 1024
    if mode == "count-all":
        assert (rec["outcome"], rec["count"]) == ("count", 1)
    else:
        # the one model: f and h project onto the first argument, g = id
        assert rec["outcome"] == "witness"
        witness = parse_algebra("\n".join(lines[1:]))
        proj = tuple(idx >> 9 for idx in range(1024))
        assert witness.tables["f"].entries == proj
        assert witness.tables["h"].entries == proj
        assert witness.tables["g"].entries == (0, 1)


def test_python_dash_m_finalg():
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "finalg", "verify-paper", "--only", "1"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 1


def _run_main(argv):
    """main(argv) in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_main_reuses_one_parser_and_leaks_no_state(tmp_path, z3_n2,
                                                   monkeypatch):
    # a failing file identity: the plain check prints its counterexample
    p = tmp_path / "z3.alg"
    p.write_text(serialize(z3_n2) + "identity swap(a, b, c): "
                 "theta(a, b, c) = theta(b, a, c)\n")
    path = str(p)
    root = pathlib.Path(__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-m", "finalg", "check", path], cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 1, fresh.stderr
    assert "[counterexample: a=0,b=1,c=0]" in fresh.stdout

    clear_caches()
    seen = []

    def recording(parse):
        def parse_args(*args, **kwargs):
            seen.append(parse(*args, **kwargs))
            return seen[-1]
        return parse_args

    # a command's argv is read by that command's own parser
    for parser in cli.build_parser().commands.values():
        monkeypatch.setattr(parser, "parse_args", recording(parser.parse_args))
    code, out, _ = _run_main(["check", path, "--identity", "swap",
                              "--identity", "unit-law:2", "--mode",
                              "sampled", "--samples", "500", "--budget",
                              "500"])
    assert code == 1 and out.count("seed=0") == 2
    assert (seen[-1].identity, seen[-1].mode, seen[-1].budget) == (
        ["swap", "unit-law:2"], "sampled", 500)
    assert _run_main(["check", path]) == (1, fresh.stdout, fresh.stderr)
    assert (seen[-1].identity, seen[-1].mode, seen[-1].budget) == (
        None, "exhaustive", None)
    # a usage error exits 2 through main and leaves the next call as it
    # would be
    code, out, err = _run_main(["check", "--mode", "bogus", path])
    assert (code, out) == (2, "") and err.startswith("error:")
    assert err.count("\n") == 1
    assert _run_main(["check", path]) == (1, fresh.stdout, fresh.stderr)
    for key in ("12", "4"):
        code, out, _ = _run_main(["verify-paper", "--only", key])
        assert code == 0 and out.startswith(f"[{key:>2}] ")
        assert out.count("PASS") == 1
    assert seen[-1].only == "4"
    assert cli.build_parser.cache_info().misses == 1
    # five parsed calls, each into its own namespace
    assert len({id(ns) for ns in seen}) == len(seen) == 5


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
    # prove-none branches in count-all's order, not find-first's, and stops
    # at its first model, which it prints as a checkable algebra
    assert main(["search", str(p), "--search-mode", "prove-none"]) == 1
    head, witness = capsys.readouterr().out.split("\n", 1)
    assert head == "witness found (nodes 24)"
    alg = tmp_path / "witness.alg"
    alg.write_text(witness)
    for suite in ("semiabelian:1", "2assoc:1"):
        assert main(["check", str(alg), "--suite", suite]) == 0
        assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("n, consts, suite", [
    (1, "const x = 1\n  const e = 0", "semiabelian:1"),
    (2, "const e = 0\n  const x = 1", "semiabelian:2"),
    (2, "const e2 = 1\n  const e1 = 0", "protomodular:2"),
], ids=["x-before-e", "e-then-x", "e2-before-e1"])
def test_search_witness_passes_check_with_the_same_suite(tmp_path, capsys,
                                                         n, consts, suite):
    # units are e1..en or a shared e for both commands, never x and never
    # the declaration order
    alphas = "".join(f"  op alpha{i}/2 = free\n" for i in range(1, n + 1))
    spec = tmp_path / "units.spec"
    spec.write_text(f"algebra S {{\n  carrier 2\n  op theta/{n + 1} = free\n"
                    f"{alphas}  {consts}\n  require {suite}\n}}\n")
    assert main(["search", str(spec)]) == 0
    witness = capsys.readouterr().out.split("\n", 1)[1]
    alg = tmp_path / "witness.alg"
    alg.write_text(witness)
    assert main(["check", str(alg), "--suite", suite]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_search_require_without_its_units_exit_2(tmp_path, capsys):
    # two unit constants do not give semiabelian:3 its e3 (nor a shared e)
    spec = tmp_path / "two.spec"
    spec.write_text(
        "algebra S {\n  carrier 2\n  op theta/4 = free\n"
        "  op alpha1/2 = free\n  op alpha2/2 = free\n  op alpha3/2 = free\n"
        "  const e1 = 0\n  const e2 = 0\n  require semiabelian:3\n}\n")
    assert main(["search", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: identity 'alpha3-unit' does not fit the signature of 'S': "
        "unknown constant 'e3'\n")


# --- fuzz: whatever the input, main returns an exit code ---------------------

_FUZZ_ALGEBRAS = [
    catalog.build_projection_algebra(2, 1, 1),
    catalog.build_semigroup_algebra(catalog.cyclic_group(3), 1, 1),
    catalog.build_semigroup_algebra(catalog.cyclic_group(2), 2, 1),
    catalog.build_boolean_protomodular(1),
    catalog.build_strict_semiloop(3, twisted=True),
]
# each algebra file states a law, so a plain check has a verdict
_FUZZ_BASES = [serialize(a) + replace(
    identity_2assoc(a.op("theta").arity - 1), name="two-assoc").text() + "\n"
    for a in _FUZZ_ALGEBRAS] + [
    serialize(groups.to_enriched(_FUZZ_ALGEBRAS[1])) + ASSOCIATIVITY.text()
    + "\n",
    "algebra S {\n  carrier 2\n  op theta/2 = free\n  op alpha1/2 = free\n"
    "  const e = 0\n  require semiabelian:1 2assoc:1\n}\n",
    "algebra U {\n  carrier 2\n  op mu/3 = free\n  require malcev\n}\n"
    "identity idem(a): mu(a, a, a) = a\n",
    "algebra T {\n  carrier 3\n  op theta/2 = [0, 1, 2, 1, 2, 0, 2, 0, 1]\n"
    "  op alpha1/2 = free\n  const e = 0\n  require protomodular:1\n}\n",
]
# a piece of a base text is replaced by one of its own kind, so that many
# mutants still parse and reach the checks, the search and the group
# commands; inserted lines add statements
_FUZZ_KINDS = {
    "number": ["0", "1", "2", "3", "7", "-1"],
    "word": ["free", "e", "e1", "e2", "theta", "alpha1", "alpha2", "mu",
             "prod", "gamma", "const", "op", "carrier", "require",
             "semiabelian", "2assoc", "malcev"],
    "punct": list("{}[](),=/:"),
}
_FUZZ_LINES = [
    "const e = 1", "const e2 = 0", "op f/2 = [0, 1, 1, 0]",
    "op gamma/1 = [0, 1]", "op theta/2 = free", "require semiabelian:2",
    "carrier 3", "identity i(a): theta(a, a) = a",
    "algebra B { carrier 1 }",
]


def _change_entry(pieces, i, j):
    """Give the i-th table entry of the pieces (mod their count) another
    value in range of the first carrier, so the mutant still loads and
    its checks reach a verdict that may differ from the base's."""
    entries, depth, m = [], 0, None
    for k, piece in enumerate(pieces):
        depth += (piece == "[") - (piece == "]")
        if depth > 0 and piece.isdigit():
            entries.append(k)
        elif m is None and piece == "carrier":
            m = next((int(p) for p in pieces[k + 1:k + 3] if p.isdigit()), 0)
    if entries and (m or 0) > 1:
        k = entries[i % len(entries)]
        pieces[k] = str((int(pieces[k]) + 1 + j % (m - 1)) % m)


def _kind(piece):
    if piece.isdigit():
        return "number"
    return "punct" if piece in _FUZZ_KINDS["punct"] else "word"


_FUZZ_SUITES = ["protomodular", "semiabelian", "2assoc", "1assoc", "strict",
                "malcev", "malcev-assoc", "unit-law", "unit-expansion",
                "bogus"]
_COUNT = st.integers(-1, 10 ** 3).map(str)

_fuzz_command = st.one_of(
    st.tuples(st.sampled_from(["--suite", "--identity"]),
              st.builds("{}:{}".format, st.sampled_from(_FUZZ_SUITES),
                        st.sampled_from([1, 2, 3, 4, 0, -1])),
              st.one_of(st.just([]),
                        st.tuples(st.just("--budget"), _COUNT).map(list),
                        st.tuples(st.just("--mode"), st.just("sampled"),
                                  st.just("--samples"), _COUNT).map(list)))
    .map(lambda t: ["check", "{}", t[0], t[1]] + t[2]),
    st.just(["check", "{}"]),
    # a theta suite at the arity n of the file's theta, which most files fit
    st.sampled_from([s for s in _FUZZ_SUITES
                     if s not in ("malcev", "malcev-assoc", "bogus")]).map(
        lambda suite: ["check", "{}", "--suite", f"{suite}:{{n}}"]),
    st.sampled_from(["find-first", "count-all", "prove-none"]).map(
        lambda mode: ["search", "{}", "--search-mode", mode,
                      "--budget", "10000"]),
    st.sampled_from(["derive-group", "to-enriched", "from-enriched",
                     "malcev"]).map(lambda c: [c, "{}"]),
)


# (piece index, op, choice): op 0 replaces a piece, 1 deletes it, 2
# inserts a line, 3 changes a table entry.  Half the examples only change
# entries: such a file still loads, so its check verdicts are re-checked.
_fuzz_edits = st.one_of(
    st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 2),
                       st.integers(0, 10 ** 6)), max_size=2),
    st.lists(st.tuples(st.integers(0, 10 ** 6), st.just(3),
                       st.integers(0, 10 ** 6)), min_size=1, max_size=2),
)


_REPORT_LINE = re.compile(r"IDENTITY (\S+) (PASS|UNREFUTED|FAIL)"
                          r"(?: \[counterexample: ([^\]]*)\])? tuples=")


def _recheck_verdicts(argv, text, stdout):
    """Re-parse the file with every table literal read token by token,
    select the identities as cmd_check does, and confirm each reported
    verdict with eval_term: an exhaustive verdict and its lex-first
    counterexample must be brute force's, and a sampled FAIL must be a
    real violation.  So a one-step table read that returned wrong entries
    would fail here."""
    with tables_token_by_token():
        (alg,), file_identities = parse_file(text)
    if len(argv) == 2:
        identities = file_identities
    else:
        option, spec = argv[2:4]
        by_name = {i.name: i for i in file_identities}
        if option == "--identity" and spec in by_name:
            identities = [by_name[spec]]
        else:
            identities = suite_identities(alg, spec)
    lines = stdout.splitlines()
    assert len(lines) == len(identities)
    sampled = "--mode" in argv
    for ident, line in zip(identities, lines):
        name, verdict, cx = _REPORT_LINE.match(line).groups()
        assert name == ident.name
        env = None
        if cx is not None:
            env = {k: int(v) for k, v in
                   (item.split("=") for item in cx.split(",") if item)}
        assert (verdict == "FAIL") == (env is not None)
        assert verdict != ("PASS" if sampled else "UNREFUTED"), line
        if sampled:
            if env is not None:
                assert (eval_term(alg, ident.lhs, env)
                        != eval_term(alg, ident.rhs, env)), line
        else:
            assert env == brute_first_counterexample(alg, ident), line


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_FUZZ_BASES), _fuzz_edits, _fuzz_command)
def test_main_returns_an_exit_code_on_mutated_inputs(tmp_path_factory, base,
                                                     edits, command):
    pieces = re.findall(r"\s+|[{}\[\](),=/:]|[^\s{}\[\](),=/:]+", base)
    for i, op, j in edits:
        i %= len(pieces)
        if op == 1:
            del pieces[i]
        elif op == 2:
            pieces.insert(i, f"\n{_FUZZ_LINES[j % len(_FUZZ_LINES)]}\n")
        elif op == 3:
            _change_entry(pieces, i, j)
        elif not pieces[i].isspace():
            kind = _FUZZ_KINDS[_kind(pieces[i])]
            pieces[i] = kind[j % len(kind)]
        pieces = pieces or [""]
    text = "".join(pieces)
    p = tmp_path_factory.getbasetemp() / "fuzz.alg"
    p.write_text(text)
    theta = re.search(r"op theta/(\d+)", text)
    n = int(theta.group(1)) - 1 if theta else 1
    argv = [str(p) if a == "{}" else a.format(n=n) for a in command]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, text)
    if code == 2:
        assert out.getvalue() == "", (argv, text)
        assert err.getvalue().startswith("error:"), (argv, text)
    elif code in (0, 1) and argv[0] == "check":
        _recheck_verdicts(argv, text, out.getvalue())
