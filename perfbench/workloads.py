"""The three benchmark workloads.

Each builder takes the workload seed and a scratch directory, writes the
input files it needs there, and returns the fixed list of operations one
pass runs.  An operation is one verify-paper criterion, one CLI command or
one search.  Its `call` runs it and returns (exit code or result, stdout
text); its `check` compares that output with the oracle and returns the
mismatches.  Only `call` is timed.

paper   `finalg verify-paper`, one criterion per operation, in a seeded
        order.  The sampled kernel of criterion 13 dominates; the search
        and DSL layers do almost nothing, so a search or parser change
        predicts no change here.
census  Model search only: the 2-associative semi-abelian census at
        (m, n) in {(1,1), (2,1), (3,1), (2,2)}, the no-strict certificate
        at (3, 2) and `finalg search` on spec files.  No numpy kernel runs, so kernel changes predict no change
        here.
tables  `finalg check`, `derive-group`, `to-enriched` and `malcev` on DSL
        files of catalog constructions (under a seeded relabeling of the
        carrier, which keeps every verdict and cost but moves the
        counterexamples) and of seeded random dense algebras, a mix of
        passes and early failures.  DSL parsing, validation, the numpy
        exhaustive kernel and the group validations do the work.
"""
from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from finalg import catalog, cli, dsl, groups, search, verify
from finalg.core import (
    Apply,
    DenseTable,
    FiniteAlgebra,
    Identity,
    SymbolError,
    Variable,
    standard_signature,
)
from finalg.identities import identity_2assoc, resolve_suite, unit_constants

import oracle


@dataclass
class Op:
    label: str
    call: Callable[[], tuple]
    check: Callable[[object, str], list]


def cli_call(argv):
    """Run `finalg <argv>` in process; returns (exit code, stdout)."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


# -- paper ----------------------------------------------------------------------

def build_paper(seed, workdir):
    # `finalg verify-paper` runs the criteria in key order with their own
    # fixed seeds, so this workload has no seeded input.
    return [
        Op(f"criterion-{key}", cli_call(["verify-paper", "--only", key]),
           lambda code, text, key=key: oracle.check_criterion(code, text, key))
        for key, _, _ in verify.CRITERIA
    ]


# -- census ---------------------------------------------------------------------

MALCEV_SPEC = """\
algebra M {
  carrier 2
  op mu/3 = free
}
identity malcev-right(a, b): mu(a, b, b) = a
identity malcev-left(a, b): mu(a, a, b) = b
identity 2assoc-mu(a1, a2, b1, b2, c): mu(a1, a2, mu(b1, b2, c)) = mu(mu(a1, a2, b1), mu(a1, a2, b2), c)
"""

GROUP_SPEC = """\
algebra G {{
  carrier {m}
  op theta/2 = free
  op alpha1/2 = free
  const e = {e}
  require semiabelian:1 2assoc:1
}}
"""

# (m, n) of the census; (3, 1) needs a budget above the default naive
# space bound of 10^9.
CENSUS = ((1, 1), (2, 1), (3, 1), (2, 2))
CENSUS_BUDGET = 10 ** 12


def _census_op(m, n):
    def call():
        res = search.count_2assoc_semiabelian(m, n, budget=CENSUS_BUDGET)
        return res, res.summary()

    def check(res, text):
        # n = 1: labeled groups (A034383).  m <= 2: also the enriched-group
        # enumeration, which shares no code with the searcher.
        expected = []
        if n == 1:
            expected.append(oracle.A034383[m])
        if m <= 2:
            expected.append(groups.count_enriched_groups(m, n))
        return oracle.check_census(res, m, n, expected)

    return Op(f"census-m{m}-n{n}", call, check)


def _prove_no_strict(m, n):
    res = search.prove_no_strict_2assoc(m, n)
    return res, res.summary()


def build_census(seed, workdir):
    m = 3
    malcev = workdir / "malcev2.spec"
    malcev.write_text(MALCEV_SPEC)
    a, b = Variable("a"), Variable("b")
    malcev_idents = [
        Identity("malcev-right", ("a", "b"), Apply("mu", a, b, b), a),
        Identity("malcev-left", ("a", "b"), Apply("mu", a, a, b), b),
        identity_2assoc(2, op="mu"),
    ]
    ops = [_census_op(mm, n) for mm, n in CENSUS]
    ops.append(Op("prove-no-strict-m3-n2", lambda: _prove_no_strict(3, 2),
                  lambda res, text: oracle.check_no_strict(res, 3, 2)))
    ops.append(Op(
        "search-malcev2-prove-none",
        cli_call(["search", str(malcev), "--search-mode", "prove-none"]),
        lambda code, text: oracle.check_prove_none(
            code, text, 2, 3, malcev_idents)))
    # Every unit pin, so the pass costs the same for every seed; the seed
    # orders the operations.
    for e in range(m):
        spec = workdir / f"group{m}-e{e}.spec"
        spec.write_text(GROUP_SPEC.format(m=m, e=e))
        ops.append(Op(
            f"search-group{m}-e{e}-find-first",
            cli_call(["search", str(spec), "--search-mode", "find-first"]),
            lambda code, text, e=e: oracle.check_find_first(code, text, m, e)))
        # relabeling the carrier maps the models with unit e onto those
        # with any other unit, so each unit gets A034383(m) / m of them
        ops.append(Op(
            f"search-group{m}-e{e}-count-all",
            cli_call(["search", str(spec), "--search-mode", "count-all"]),
            lambda code, text: oracle.check_count_output(
                code, text, oracle.A034383[m] // m)))
    random.Random(seed).shuffle(ops)
    return ops


# -- tables ---------------------------------------------------------------------

def relabel(alg, perm):
    """The isomorphic copy of a dense algebra under the carrier
    permutation perm (element x becomes perm[x])."""
    m = alg.size
    tables = {}
    for name, tbl in alg.tables.items():
        entries = [0] * (m ** tbl.arity)
        for idx, val in enumerate(tbl.entries):
            new, rest = 0, idx
            digits = []
            for _ in range(tbl.arity):
                rest, d = divmod(rest, m)
                digits.append(d)
            for d in reversed(digits):
                new = new * m + perm[d]
            entries[new] = perm[val]
        tables[name] = DenseTable(tbl.arity, entries)
    consts = {c: perm[v] for c, v in alg.constants.items()}
    return FiniteAlgebra(alg.name, alg.signature, m, tables, consts)


def random_algebra(rng, m, n, label):
    sig = standard_signature(n, shared_unit=(n == 1))
    tables = {
        name: DenseTable(arity, [rng.randrange(m) for _ in range(m ** arity)])
        for name, arity in sig.ops
    }
    consts = {c: rng.randrange(m) for c in sig.constants}
    return FiniteAlgebra(label, sig, m, tables, consts)


def _cyc(k):
    return catalog.cyclic_group(k)


# name -> (builder, n, list of operations).  An operation is
#   ("check", suite, theory verdict of each identity or None, samples)
#   ("derive" | "enriched" | "malcev", expected, malcev-assoc verdict)
# where samples is None for an exhaustive check and expected is "ok" or
# "refused".  Theory: a group-type algebra
# (theta = a_i * b with alpha = a * b^-1) is semi-abelian and
# 2-associative, and its Mal'cev term a b^-1 c is associative; lattice,
# Boolean, projection, map-composition, matrix-row and bounded-monoid
# thetas are 2-associative; the twisted semiloop is strict and
# semi-abelian but not associative; Boolean algebras have e1 != e2.
CATALOG = {
    "grp16n1": (lambda: catalog.build_semigroup_algebra(_cyc(16), 1, 1), 1, [
        ("check", "semiabelian:1", "pass", None),
        ("check", "2assoc:1", "pass", None),
        ("derive", "ok", None), ("enriched", "ok", None),
        ("malcev", "ok", True)]),
    "grpprod4x4n2": (lambda: catalog.build_group_product_algebra(
        [_cyc(4), _cyc(4)], (1, 2), 2), 2, [
        ("check", "2assoc:2", "pass", None),
        ("check", "semiabelian:2", "pass", None),
        ("check", "2assoc:2", "pass", 20000),
        ("derive", "ok", None), ("enriched", "ok", None),
        ("malcev", "ok", True)]),
    "grpprod2x3n2": (lambda: catalog.build_group_product_algebra(
        [_cyc(2), _cyc(3)], (1, 2), 2), 2, [
        ("check", "semiabelian:2", "pass", None),
        ("check", "2assoc:2", "pass", None),
        ("derive", "ok", None), ("enriched", "ok", None),
        ("malcev", "ok", True)]),
    "bool4": (lambda: catalog.build_boolean_protomodular(2), 2, [
        ("check", "protomodular:2", "pass", None),
        ("check", "semiabelian:2", None, None),
        ("check", "2assoc:2", "pass", None),
        ("derive", "refused", None), ("enriched", "refused", None),
        ("malcev", "ok", None)]),
    "bool8": (lambda: catalog.build_boolean_protomodular(3), 2, [
        ("check", "2assoc:2", "pass", None),
        ("check", "protomodular:2", "pass", None)]),
    "lat2x2": (lambda: catalog.build_lattice_theta(catalog.product_lattice(
        catalog.chain_lattice(2), catalog.chain_lattice(2)),
        "meet-middle"), 2, [
        ("check", "2assoc:2", "pass", None),
        ("check", "1assoc:2", "fail", None)]),
    "chain3": (lambda: catalog.build_lattice_theta(
        catalog.chain_lattice(3), "meet-last"), 2, [
        ("check", "1assoc:2", "fail", None),
        ("check", "2assoc:2", "pass", None)]),
    "proj8n2": (lambda: catalog.build_projection_algebra(8, 2, 1), 2, [
        ("check", "2assoc:2", "pass", None)]),
    "maps2n2": (lambda: catalog.build_map_composition_algebra(2, 2), 2, [
        ("check", "2assoc:2", "pass", None)]),
    "matrows2n1": (lambda: catalog.build_matrix_row_algebra(2, 1), 1, [
        ("check", "2assoc:1", "pass", None)]),
    "bddmon2n3": (lambda: catalog.build_bounded_monoid_algebra(
        catalog.cyclic_monoid(2), 3), 3, [
        ("check", "1assoc:3", "pass", None),
        ("check", "2assoc:3", "pass", None)]),
    "semiloop5": (lambda: catalog.build_strict_semiloop(5, twisted=True), 1, [
        ("check", "strict:1", "pass", None),
        ("check", "semiabelian:1", "pass", None),
        ("check", "2assoc:1", "fail", None),
        ("derive", "refused", None)]),
    "retr2n2": (lambda: catalog.build_diagonal_retraction_algebra(2, 2), 2, [
        ("check", "protomodular:2", "pass", None),
        ("check", "2assoc:2", "pass", None),
        ("malcev", "ok", None)]),
}

# (m, n) of the random dense algebras.  A random 16-element n = 2 table
# fails 2assoc:2 at its first tuple yet costs a whole 2^20-tuple numpy
# chunk; the small ones fail early on the scalar path.
RANDOM_SHAPES = ((16, 2), (12, 1), (8, 3), (10, 2), (5, 3), (4, 1))


def _suite(alg, spec):
    n = int(spec.partition(":")[2] or 1)
    try:
        units = unit_constants(alg, n)
    except SymbolError:
        units = None
    return list(resolve_suite(spec, units).identities)


def _table_ops(label, path, alg, n, plan, seed):
    ops = []
    for item in plan:
        kind = item[0]
        if kind == "check":
            _, spec, theory, samples = item
            idents = _suite(alg, spec)
            expect = {i.name: theory for i in idents}
            argv = ["check", str(path), "--suite", spec, "--format",
                    "structured"]
            sampled = None
            if samples:
                sampled = (samples, seed)
                argv += ["--mode", "sampled", "--samples", str(samples),
                         "--seed", str(seed)]
            ops.append(Op(
                f"{label}-check-{spec}{'-sampled' if samples else ''}",
                cli_call(argv),
                lambda code, text, idents=idents, expect=expect,
                sampled=sampled: oracle.check_identities(
                    code, text, alg, idents, expect, sampled)))
            continue
        _, expected, assoc = item
        refusal_suites = [_suite(alg, f"semiabelian:{n}"),
                          _suite(alg, f"protomodular:{n}"),
                          _suite(alg, f"2assoc:{n}")]
        if expected == "refused":
            check = (lambda code, text, s=refusal_suites:
                     oracle.check_refusal(code, text, alg, s))
        elif kind == "derive":
            check = lambda code, text: oracle.check_derived_group(
                code, text, alg, n)
        elif kind == "enriched":
            check = lambda code, text: oracle.check_enriched(
                code, text, alg, n)
        else:
            check = lambda code, text, assoc=assoc: oracle.check_malcev(
                code, text, alg, n, assoc)
        command = {"derive": "derive-group", "enriched": "to-enriched",
                   "malcev": "malcev"}[kind]
        ops.append(Op(f"{label}-{command}", cli_call([command, str(path)]),
                      check))
    return ops


def build_tables(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for label, (build, n, plan) in CATALOG.items():
        base = build()
        perm = list(range(base.size))
        rng.shuffle(perm)
        alg = relabel(base, perm)
        path = workdir / f"{label}.alg"
        path.write_text(dsl.serialize(alg))
        ops += _table_ops(label, path, alg, n, plan, seed)
    for i, (m, n) in enumerate(RANDOM_SHAPES):
        label = f"rand{m}n{n}"
        alg = random_algebra(rng, m, n, label)
        path = workdir / f"{label}.alg"
        path.write_text(dsl.serialize(alg))
        plan = [("check", f"2assoc:{n}", None, None)]
        plan.append(("check", f"semiabelian:{n}", None, None) if i % 2 else
                    ("derive", "refused", None))
        if i < 2:
            plan.append(("malcev", "refused", None))
        ops += _table_ops(label, path, alg, n, plan, seed)
    return ops


WORKLOADS = {"paper": build_paper, "census": build_census,
             "tables": build_tables}


def build(workload, seed, workdir: Path):
    return WORKLOADS[workload](seed, workdir)
