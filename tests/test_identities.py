import dataclasses
import functools
import gc
import importlib
import itertools
import math
import random
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finalg import catalog, dsl, identities
from finalg.core import (
    AlgebraError,
    Apply,
    BudgetError,
    Constant,
    EvalError,
    FiniteAlgebra,
    DenseTable,
    Identity,
    InputError,
    Signature,
    SymbolError,
    Variable,
    check_term,
    eval_term,
    table_from_fn,
)
from finalg.groups import (
    GroupLawError,
    enriched_algebra,
    from_enriched,
    to_enriched,
)
from finalg.identities import (
    ASSOCIATIVITY,
    GROUP_LAWS,
    LATTICE_LAWS,
    MONOID_LAWS,
    NEUTRAL_LAWS,
    check_2assoc_functional,
    check_identity,
    check_strict_equivalence,
    check_suite,
    enriched_laws,
    first_failure,
    identities_1assoc,
    identities_malcev,
    identities_strict,
    identity_2assoc,
    identity_malcev_assoc,
    identity_unit_expansion,
    identity_unit_law,
    monoid_algebra,
    resolve_suite,
    suite_arity,
    suite_ok,
    suite_protomodular,
    suite_semiabelian,
    term_diagonal_solution,
    term_gamma,
    term_malcev,
    term_product,
    term_table,
    unit_constants,
)

from conftest import (
    RANDOM_OPS,
    brute_first_counterexample,
    random_algebra,
    random_identities,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# --- suites on known algebras -------------------------------------------

def test_protomodular_suite_passes_on_boolean(bool2):
    reports = check_suite(bool2, suite_protomodular(2, ("e1", "e2")))
    assert all(r.ok for r in reports)
    assert all(r.verdict == "pass" for r in reports)


def test_semiabelian_fails_on_boolean_distinct_units(bool2):
    reports = check_suite(bool2, suite_semiabelian(2, ("e1", "e2")))
    bad = first_failure(reports)
    assert bad is not None
    assert "units-equal" in bad.name


def test_group_is_semiabelian(z4_group):
    assert suite_ok(check_suite(z4_group, suite_semiabelian(1, ("e",))))


def test_corrupted_alpha_fails_retraction(z4_group):
    tables = dict(z4_group.tables)
    entries = list(tables["alpha1"].entries)
    entries[1] ^= 1
    tables["alpha1"] = DenseTable(2, tuple(entries))
    broken = FiniteAlgebra("broken", z4_group.signature, 4, tables,
                           dict(z4_group.constants))
    reports = check_suite(broken, suite_protomodular(1, ("e",)))
    bad = first_failure(reports)
    assert bad is not None
    # counterexample must actually violate the law it reports
    ident = next(i for i in suite_protomodular(1, ("e",)).identities
                 if i.name == bad.name)
    env = bad.counterexample
    assert eval_term(broken, ident.lhs, env) != eval_term(broken, ident.rhs, env)


def test_trivial_carrier_satisfies_everything():
    one = catalog.build_semigroup_algebra(catalog.cyclic_group(1), 2, 1)
    assert suite_ok(check_suite(one, suite_semiabelian(2, ("e", "e"))))
    assert check_identity(one, identity_2assoc(2)).ok
    assert all(check_identity(one, i).ok for i in identities_1assoc(2))
    assert all(check_identity(one, i).ok for i in identities_strict(2))


# --- 2-associativity and 1-associativity --------------------------------

def test_2assoc_on_lattice_theta(chain2_theta):
    rep = check_identity(chain2_theta, identity_2assoc(2))
    assert rep.ok
    assert rep.tuples_checked == 2 ** 5


def test_1assoc_fails_on_lattice_theta_with_frozen_counterexample(chain2_theta):
    idents = identities_1assoc(2)
    assert len(idents) == 2
    failed = [check_identity(chain2_theta, i) for i in idents]
    assert any(not r.ok for r in failed)
    for ident, rep in zip(idents, failed):
        expected = brute_first_counterexample(chain2_theta, ident)
        if expected is None:
            assert rep.ok
        else:
            assert not rep.ok
            assert rep.counterexample == expected


def test_chain2_1assoc_first_counterexample_value(chain2_theta):
    # frozen from the direct interpreter oracle: the earliest violating
    # assignment in lexicographic variable order
    idents = identities_1assoc(2)
    rep = next(r for r in (check_identity(chain2_theta, i) for i in idents)
               if not r.ok)
    assert rep.counterexample == {"a1": 0, "a2": 0, "b1": 0, "b2": 1, "c": 1}


def test_n1_associativity_is_plain_associativity():
    two = identity_2assoc(1)
    (one,) = identities_1assoc(1)
    assert (two.lhs, two.rhs) == (one.lhs, one.rhs)
    nonassoc = catalog.build_strict_semiloop(3, twisted=True)
    assert not check_identity(nonassoc, one).ok
    group = catalog.build_strict_semiloop(3, twisted=False)
    assert check_identity(group, one).ok


def test_semigroup_word_operation_is_1assoc():
    # theta(a1, a2, a3, b) = a1 + a2 + a3 + b on Z/2 is fully associative
    sig = catalog.build_semigroup_algebra(catalog.cyclic_group(2), 3, 1).signature
    theta = table_from_fn(4, 2, lambda a1, a2, a3, b: (a1 + a2 + a3 + b) % 2)
    alg = catalog.build_semigroup_algebra(catalog.cyclic_group(2), 3, 1)
    word = FiniteAlgebra("word", sig, 2,
                         {**alg.tables, "theta": theta}, alg.constants)
    assert all(check_identity(word, i).ok for i in identities_1assoc(3))
    assert check_identity(word, identity_2assoc(3)).ok


def test_bounded_monoid_is_1assoc_and_2assoc():
    alg = catalog.build_bounded_monoid_algebra(catalog.cyclic_monoid(2), 3)
    assert all(check_identity(alg, i).ok for i in identities_1assoc(3))
    assert check_identity(alg, identity_2assoc(3)).ok


def test_unit_law_and_expansion_follow_from_axioms(z3_n2, z4_group):
    for alg, n in ((z3_n2, 2), (z4_group, 1)):
        units = unit_constants(alg, n)
        assert check_identity(alg, identity_unit_law(n, units)).ok
        assert check_identity(alg, identity_unit_expansion(n, units)).ok


# --- functional characterization ----------------------------------------

def test_functional_check_agrees_on_catalog(bool2, z3_n2, chain2_theta):
    for alg, n in ((bool2, 2), (z3_n2, 2), (chain2_theta, 2)):
        direct = check_identity(alg, identity_2assoc(n)).ok
        assert check_2assoc_functional(alg, n).ok == direct


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 3), st.integers(1, 2))
def test_functional_check_agrees_on_random_tables(seed, m, n):
    alg = random_algebra(random.Random(seed), m, n)
    direct = check_identity(alg, identity_2assoc(n)).ok
    assert check_2assoc_functional(alg, n).ok == direct


def test_functional_check_rejects_wrong_theta_arity(z3_n2):
    with pytest.raises(SymbolError, match="theta has arity 3, expected 2"):
        check_2assoc_functional(z3_n2, 1)


# --- strictness ----------------------------------------------------------

def test_strictness_identities(z4_group, bool2):
    assert all(check_identity(z4_group, i).ok for i in identities_strict(1))
    assert not all(check_identity(bool2, i).ok for i in identities_strict(2))


def test_strictness_four_way_agreement(z4_group, bool2):
    rep = check_strict_equivalence(z4_group, 1)
    assert rep.agree and rep.strict
    rep = check_strict_equivalence(bool2, 2)
    assert rep.agree and not rep.strict


def test_strict_semiloop_is_strict_even_when_not_associative():
    twisted = catalog.build_strict_semiloop(4, twisted=True)
    rep = check_strict_equivalence(twisted, 1)
    assert rep.agree and rep.strict
    assert not check_identity(twisted, identity_2assoc(1)).ok


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 3), st.integers(1, 2))
def test_strictness_implications_on_arbitrary_tables(seed, m, n):
    # full four-way agreement needs the retraction axioms; on arbitrary
    # tables only these implications are unconditional
    alg = random_algebra(random.Random(seed), m, n)
    rep = check_strict_equivalence(alg, n)
    assert rep.sections_bijective == rep.unique_preimage
    if rep.identity_holds:
        assert rep.sections_bijective


# --- engine behavior ------------------------------------------------------

def test_report_line_format(chain2_theta):
    rep = check_identity(chain2_theta, identity_2assoc(2))
    line = rep.line()
    assert line.startswith("IDENTITY ")
    assert "PASS" in line and "tuples=32" in line
    bad = next(r for r in (check_identity(chain2_theta, i)
                           for i in identities_1assoc(2)) if not r.ok)
    assert "FAIL" in bad.line() and "counterexample" in bad.line()


def test_exhaustive_counterexample_is_lex_first(bool2):
    for ident in identities_strict(2):
        rep = check_identity(bool2, ident)
        if not rep.ok:
            expected = brute_first_counterexample(bool2, ident)
            assert rep.counterexample == expected


def test_budget_refusal_and_sampled_fallback(z3_n2):
    ident = identity_2assoc(2)
    with pytest.raises(BudgetError):
        check_identity(z3_n2, ident, budget=10)
    rep = check_identity(z3_n2, ident, mode="sampled", samples=500, seed=7)
    assert rep.verdict == "sampled-pass"
    assert rep.seed == 7
    assert rep.tuples_checked == 500


def test_sampled_mode_is_reproducible_and_sound(chain2_theta):
    (ident, _) = identities_1assoc(2)
    r1 = check_identity(chain2_theta, ident, mode="sampled", samples=2000,
                        seed=123)
    r2 = check_identity(chain2_theta, ident, mode="sampled", samples=2000,
                        seed=123)
    assert r1.verdict == r2.verdict
    assert r1.counterexample == r2.counterexample
    if not r1.ok:
        env = r1.counterexample
        assert eval_term(chain2_theta, ident.lhs, env) != eval_term(
            chain2_theta, ident.rhs, env)


def test_zero_variable_identity(bool2):
    ident = Identity("units-differ", (), Constant("e1"), Constant("e2"))
    rep = check_identity(bool2, ident)
    assert not rep.ok
    assert rep.counterexample == {}
    assert (rep.tuples_checked, rep.engine) == (1, "np")
    same = Identity("units-same", (), Constant("e1"), Constant("e1"))
    assert check_identity(bool2, same).tuples_checked == 1
    # declared variables that neither side reads are still enumerated
    unused = Identity("unused-same", ("a", "b"), Constant("e1"),
                      Constant("e1"))
    rep = check_identity(bool2, unused)
    assert (rep.verdict, rep.tuples_checked) == ("pass", 4 ** 2)
    unused = Identity("unused-differ", ("a", "b"), Constant("e1"),
                      Constant("e2"))
    rep = check_identity(bool2, unused)
    assert rep.counterexample == {"a": 0, "b": 0}
    assert rep.tuples_checked == 1


def test_resolve_suite_names(z3_n2):
    units = unit_constants(z3_n2, 2)
    for name in ("protomodular:2", "semiabelian:2", "2assoc:2", "1assoc:2",
                 "strict:2", "unit-law:2", "unit-expansion:2"):
        suite = resolve_suite(name, units)
        assert suite.identities
    with pytest.raises(InputError):
        resolve_suite("nonsense:2", units)


def test_malcev_identity_builders():
    z4 = catalog.cyclic_group(4)
    mu = table_from_fn(3, 4, lambda a, b, c: (a - b + c) % 4)
    sig = Signature((("mu", 3),), ())
    alg = FiniteAlgebra("mu4", sig, 4, {"mu": mu}, {})
    assert all(check_identity(alg, i).ok for i in identities_malcev())
    assert check_identity(alg, identity_malcev_assoc()).ok


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 3), st.integers(1, 2))
def test_failure_reports_are_sound(seed, m, n):
    # the exact oracle: the lex-first counterexample and the number of
    # tuples up to it, or every tuple on a pass
    alg = random_algebra(random.Random(seed), m, n)
    for ident in _standard_identities(alg, n):
        rep = check_identity(alg, ident)
        cx = brute_first_counterexample(alg, ident)
        assert rep.counterexample == cx
        k = len(ident.variables)
        if cx is None:
            assert (rep.verdict, rep.tuples_checked) == ("pass", m ** k)
        else:
            assert eval_term(alg, ident.lhs, cx) != eval_term(alg, ident.rhs, cx)
            rank = sum(v * m ** (k - 1 - i) for i, v in enumerate(cx.values()))
            assert (rep.verdict, rep.tuples_checked) == ("fail", rank + 1)


# --- sampled kernel against the scalar reference loop ----------------------

def scalar_sampled(alg, ident, samples, seed):
    """Reference for sampled mode: tuple by tuple, one rng.randrange(m) per
    variable, both sides evaluated with eval_term."""
    rng = random.Random(seed)
    for i in range(samples):
        env = {v: rng.randrange(alg.size) for v in ident.variables}
        if eval_term(alg, ident.lhs, env) != eval_term(alg, ident.rhs, env):
            return ("fail", env, i + 1, seed)
    return ("sampled-pass", None, samples, seed)


def sampled(alg, ident, samples, seed):
    rep = check_identity(alg, ident, mode="sampled", samples=samples,
                         seed=seed)
    return (rep.verdict, rep.counterexample, rep.tuples_checked, rep.seed)


def _standard_identities(alg, n):
    return [*suite_semiabelian(n, unit_constants(alg, n)).identities,
            identity_2assoc(n), *identities_strict(n), *identities_1assoc(n)]


def _dented_group(rng, m, n):
    """theta(a*, b) = a1 + b on Z/m with one theta entry redrawn: most
    identities hold on all but a few tuples."""
    g = catalog.build_semigroup_algebra(catalog.cyclic_group(m), n, 1)
    entries = list(g.tables["theta"].entries)
    entries[rng.randrange(len(entries))] = rng.randrange(m)
    return FiniteAlgebra("dented", g.signature, m,
                         {**g.tables, "theta": DenseTable(n + 1, entries)},
                         g.constants)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 7), st.integers(1, 2),
       st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.integers(1, 400))
def test_sampled_kernel_matches_scalar_loop(seed, m, n, dented, sample_seed,
                                            samples):
    rng = random.Random(seed)
    build = _dented_group if dented else random_algebra
    alg = build(rng, m, n)
    for ident in _standard_identities(alg, n):
        assert sampled(alg, ident, samples, sample_seed) == scalar_sampled(
            alg, ident, samples, sample_seed)


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("seed", [0, -1, -123456789, 2 ** 64 + 3])
def test_sampled_kernel_edge_cases(m, seed):
    # m = 1 and negative seeds; the semi-abelian suite holds zero-variable
    # identities (units-equal-*), a constant side (alpha*-unit) and a bare
    # variable side (retraction)
    alg = random_algebra(random.Random(m), m, 3)
    idents = _standard_identities(alg, 3)
    names = {i.name for i in idents}
    assert {"units-equal-1", "alpha1-unit", "retraction"} <= names
    for ident in idents:
        for samples in (1, 3, 250):
            assert sampled(alg, ident, samples, seed) == scalar_sampled(
                alg, ident, samples, seed)


def test_sampled_zero_variable_identity(bool2):
    ident = Identity("units-differ", (), Constant("e1"), Constant("e2"))
    assert sampled(bool2, ident, 50, 1) == ("fail", {}, 1, 1)
    same = Identity("units-same", (), Constant("e1"), Constant("e1"))
    assert sampled(bool2, same, 70000, 1) == ("sampled-pass", None, 70000, 1)


def test_sampled_failure_after_several_batches(monkeypatch):
    # Z/16 with one dented theta entry: 2-associativity fails only on the
    # rare tuples that reach theta(15, 15)
    g = catalog.build_semigroup_algebra(catalog.cyclic_group(16), 1, 1)
    entries = list(g.tables["theta"].entries)
    entries[-1] = (entries[-1] + 1) % 16
    alg = FiniteAlgebra("z16-dent", g.signature, 16,
                        {**g.tables, "theta": DenseTable(2, entries)},
                        g.constants)
    ident = identity_2assoc(1)
    monkeypatch.setattr(identities, "_BATCH", 16)
    want = scalar_sampled(alg, ident, 5000, 0)
    assert want[0] == "fail" and want[2] > 3 * 16
    assert sampled(alg, ident, 5000, 0) == want


@pytest.mark.parametrize("batch", [7, 1 << 16])
@pytest.mark.parametrize("m", [1, 2, 3, 512, 513, 1000, 2 ** 31 + 1,
                               2 ** 32 - 1])
@pytest.mark.parametrize("k", [0, 1, 5])
def test_sampled_tuples_are_the_randrange_stream(monkeypatch, batch, m, k):
    # fails loudly if a Python upgrade changes how randrange draws
    monkeypatch.setattr(identities, "_BATCH", batch)
    # m = 513 rejects almost half of the words, so a batch of 2^16 5-tuples
    # needs about ten getrandbits calls of at most 2^16 words each
    samples = 70_001 if (m, batch) == (513, 1 << 16) else 300
    for seed in (0, -42, 2 ** 80):
        rng = random.Random(seed)
        want = [[rng.randrange(m) for _ in range(k)] for _ in range(samples)]
        batches = list(identities._sampled_tuples(
            random.Random(seed), m, k, samples))
        assert all(b.dtype == np.int64 and b.shape[0] == k for b in batches)
        assert all(b.flags.c_contiguous for b in batches)
        assert all(b.shape[1] <= batch for b in batches)
        got = np.concatenate(batches, axis=1).T.tolist()
        assert got == want


def test_sampled_mode_refuses_no_samples(z3_n2):
    for samples in (0, -5):
        with pytest.raises(InputError):
            check_identity(z3_n2, identity_2assoc(2), mode="sampled",
                           samples=samples)
    with pytest.raises(InputError):
        list(identities._sampled_tuples(random.Random(0), 2 ** 32, 1, 1))


# --- vectorized failures are re-confirmed with eval_term ----------------------

def test_sampled_failure_eval_term_contradicts_raises(monkeypatch):
    # the kernel reads an array that shifts every value, eval_term the
    # entries of the left projection
    theta = table_from_fn(2, 3, lambda a, b: a)
    monkeypatch.setattr(theta, "_array", (theta.array() + 1) % 3)
    alg = FiniteAlgebra("two-faced", Signature((("theta", 2),)), 3,
                        {"theta": theta})
    a, b = Variable("a"), Variable("b")
    ident = Identity("left-projection", ("a", "b"), Apply("theta", a, b), a)
    with pytest.raises(EvalError):
        check_identity(alg, ident)
    with pytest.raises(EvalError):
        check_identity(alg, ident, mode="sampled", samples=10)


def test_exhaustive_np_failure_eval_term_contradicts_raises(monkeypatch):
    alg = catalog.build_map_composition_algebra(2, 2)
    ident = identity_2assoc(2)
    assert check_identity(alg, ident).ok
    # the kernel reads the cached array, eval_term the entries, which a
    # table made from an array builds on first use, so build them first
    for t in alg.tables.values():
        assert len(t.entries) == alg.size ** t.arity
        shifted = (t.array() + 1) % alg.size
        monkeypatch.setattr(t, "_array", shifted)
    with pytest.raises(EvalError):
        check_identity(alg, ident)


def test_resolve_suite_rejects_bad_arity():
    for spec in ("2assoc:x", "2assoc:0", "semiabelian:-1", "2assoc:1.5"):
        with pytest.raises(InputError):
            resolve_suite(spec)
    with pytest.raises(InputError):
        resolve_suite("bogus:x")
    # fewer unit names than the arity
    with pytest.raises(InputError):
        resolve_suite("semiabelian:2", ("e",))
    assert suite_arity("semiabelian") == 1
    assert suite_arity("2assoc:3") == 3


# --- exhaustive numpy kernel: blocks and small checks ------------------------

def _record_blocks(monkeypatch):
    """Wrap the numpy kernel's block check; returns the list of block
    sizes (the number of assignments whose sides it compares) it is
    called with."""
    sizes = []
    real = identities._first_bad

    def recording(lhs, rhs):
        sizes.append(np.broadcast(lhs, rhs).size)
        return real(lhs, rhs)

    monkeypatch.setattr(identities, "_first_bad", recording)
    return sizes


def test_np_failure_past_the_first_block(monkeypatch):
    # Map(A^2, A) on a 2-element base satisfies 2assoc:2; one changed
    # theta entry moves the lex-first failure into the fifth block of
    # 16^3 suffix tuples
    alg = catalog.build_map_composition_algebra(2, 2)
    entries = list(alg.op("theta").entries)
    entries[67] = (entries[67] + 1) % alg.size
    tables = dict(alg.tables, theta=DenseTable(3, tuple(entries)))
    dented = FiniteAlgebra("dented", alg.signature, alg.size, tables,
                           alg.constants)
    ident = identity_2assoc(2)
    sizes = _record_blocks(monkeypatch)
    rep = check_identity(dented, ident)
    assert rep.engine == "np"
    assert rep.verdict == "fail"
    assert rep.tuples_checked > 2 ** 14
    assert rep.counterexample == brute_first_counterexample(dented, ident)
    assert rep.tuples_checked == 1 + sum(
        v * 16 ** (4 - i) for i, v in enumerate(rep.counterexample.values()))
    assert len(sizes) > 1
    assert set(sizes) == {16 ** 3}


@pytest.mark.parametrize("dent", [None, 10000])
def test_np_one_variable_floor(monkeypatch, dent):
    # a carrier above _BLOCK still checks a one-variable identity in a
    # single block of m tuples, not one numpy call per tuple
    m = 2 ** 14 + 3
    entries = [m - 1 - a for a in range(m)]
    if dent is not None:
        entries[dent] = 5
    alg = FiniteAlgebra("involution", Signature((("g", 1),)), m,
                        {"g": DenseTable(1, tuple(entries))})
    a = Variable("a")
    ident = Identity("involution", ("a",), Apply("g", Apply("g", a)), a)
    sizes = _record_blocks(monkeypatch)
    rep = check_identity(alg, ident)
    assert rep.engine == "np"
    assert sizes == [m]
    if dent is None:
        assert (rep.verdict, rep.tuples_checked) == ("pass", m)
    else:
        # g(6386) = 10000 and g(10000) = 5 make 6386 the first failure
        assert rep.counterexample == {"a": m - 1 - dent}
        assert rep.counterexample == brute_first_counterexample(alg, ident)
        assert rep.tuples_checked == m - dent


def _fold_identities(alg, n):
    """Identities whose subterms read only the prefix variables of a block,
    only its suffix, both, or constants alone, as the block size moves;
    the mu identities over (p, x, y) reach every case of _plan_case and a
    side that reads no suffix variable when the block holds x and y."""
    units = unit_constants(alg, n)
    avs = [Variable(f"a{i}") for i in range(1, n + 1)]
    b = Variable("b")
    ground = Apply("theta", *[Constant(u) for u in units], Constant(units[0]))
    p, x, y = (Variable(v) for v in "pxy")

    def mu(*args):
        return Apply("mu", *args)

    def plan(name, lhs, rhs):
        return Identity(name, ("p", "x", "y"), lhs, rhs)

    return [identity_2assoc(n), *identities_1assoc(n),
            identity_unit_expansion(n, units), identity_malcev_assoc(),
            identities.identity_malcev_assoc_expanded(n),
            Identity("ground", tuple(v.name for v in avs) + ("b",),
                     Apply("theta", *avs, ground),
                     Apply("theta", ground, *avs[1:], b)),
            plan("non-leading-scalar", mu(x, p, y), mu(p, x, y)),
            plan("repeated-axis", mu(x, x, mu(p, p, y)), mu(mu(p, x, x), x, y)),
            plan("out-of-axis-order", mu(p, y, x), mu(y, x, mu(p, x, y))),
            plan("multi-axis-beside-array", mu(p, mu(x, y, y), x),
                 mu(mu(p, x, y), y, x)),
            plan("scalar-side", mu(p, p, p), mu(p, x, mu(x, p, y))),
            plan("sides-miss-y", mu(p, p, x), mu(p, x, p))]


def _plan_case(axes):
    """The case of a late dense application, from the mesh axes each of
    its arguments reads, stated apart from identities._plan."""
    lead = 0
    while lead < len(axes) and not axes[lead]:
        lead += 1
    rest = axes[lead:]
    firsts = [ax[0] for ax in rest if ax]
    if not rest:
        return "scalars"
    if not all(rest):
        return "non-leading scalar"
    if any(len(ax) > 1 for ax in rest):
        return "gather" if len(rest) == 1 else "multi-axis beside an array"
    if len(set(firsts)) < len(firsts):
        return "repeated axis"
    return "axes in order" if firsts == sorted(firsts) else "out of order"


_PLAN_OF_CASE = {
    "scalars": "take", "axes in order": "take", "gather": "gather",
    "non-leading scalar": None, "multi-axis beside an array": None,
    "repeated axis": None, "out of order": None,
}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 4), st.integers(1, 2),
       st.sampled_from(["random", "group", "dented"]), st.integers(1, 2))
def test_folded_kernel_matches_the_oracle(seed, m, n, kind, power):
    # a block of m or m^2 tuples makes the prefix loop run, so the folded
    # suffix subterms are reused across many blocks
    rng = random.Random(seed)
    if kind == "random":
        alg = random_algebra(rng, m, n, shared_unit=rng.random() < 0.5)
    else:
        alg = catalog.build_semigroup_algebra(catalog.cyclic_group(m), n, 1)
    a, b, c = (Variable(v) for v in "abc")
    mu = term_table(alg, term_malcev(n, a, b, c), ("a", "b", "c"))
    if kind == "random":
        mu = DenseTable(3, [rng.randrange(m) for _ in range(m ** 3)])
    tables = dict(alg.tables, mu=mu)
    if kind == "dented":
        name = rng.choice(sorted(tables))
        entries = list(tables[name].entries)
        i = rng.randrange(len(entries))
        entries[i] = (entries[i] + 1) % m
        tables[name] = DenseTable(tables[name].arity, entries)
    sig = Signature(alg.signature.ops + (("mu", 3),), alg.signature.constants)
    alg = FiniteAlgebra(alg.name, sig, m, tables, alg.constants)
    with mock.patch.object(identities, "_BLOCK", m ** power):
        for ident in _fold_identities(alg, n):
            rep = check_identity(alg, ident)
            cx = brute_first_counterexample(alg, ident)
            k = len(ident.variables)
            assert rep.counterexample == cx, ident.name
            assert rep.verdict == ("pass" if cx is None else "fail")
            assert rep.tuples_checked == (m ** k if cx is None else 1 + sum(
                v * m ** (k - 1 - i) for i, v in enumerate(cx.values())))


def _oracle_algebra(seed, m, n):
    """A random algebra over the standard signature plus a random mu/3."""
    rng = random.Random(seed)
    alg = random_algebra(rng, m, n)
    mu = DenseTable(3, [rng.randrange(m) for _ in range(m ** 3)])
    sig = Signature(alg.signature.ops + (("mu", 3),), alg.signature.constants)
    return FiniteAlgebra(alg.name, sig, m, dict(alg.tables, mu=mu),
                         alg.constants)


def test_every_plan_case_is_reached(monkeypatch):
    # the oracle identities reach every evaluation case of a late dense
    # application, each with the plan its case asks for, and blocks of a
    # two-axis mesh whose sides read fewer axes: one side none, or
    # neither side the second axis
    cases, shapes = set(), set()
    real_plan, real_bad = identities._slicing, identities._first_bad

    def plan(axes):
        got = real_plan(axes)
        case = _plan_case(axes)
        assert got == _PLAN_OF_CASE[case], (axes, case)
        cases.add(case)
        return got

    def first_bad(lhs, rhs):
        shapes.add((np.shape(lhs), np.shape(rhs)))
        return real_bad(lhs, rhs)

    monkeypatch.setattr(identities, "_slicing", plan)
    monkeypatch.setattr(identities, "_first_bad", first_bad)
    # empty plan and shape caches, so the builders' identities are
    # planned here
    monkeypatch.setattr(identities, "_plans", identities._Kept(
        identities._PLANS, identities._PLAN_BYTES))
    monkeypatch.setattr(identities, "_shape", functools.lru_cache(
        identities._PLANS)(identities._shape.__wrapped__))
    for seed, m, n in ((1, 3, 1), (2, 3, 2)):
        alg = _oracle_algebra(seed, m, n)
        with mock.patch.object(identities, "_BLOCK", m ** 2):
            for ident in _fold_identities(alg, n):
                rep = check_identity(alg, ident)
                cx, k = brute_first_counterexample(alg, ident), len(
                    ident.variables)
                assert rep.counterexample == cx, ident.name
                assert rep.tuples_checked == (m ** k if cx is None else 1 + sum(
                    v * m ** (k - 1 - i) for i, v in enumerate(cx.values())))
    assert cases == set(_PLAN_OF_CASE)
    assert ((), (3, 3)) in shapes and ((3, 1), (3, 1)) in shapes


def _reused_identities(n):
    """Builder identities, equal on every call: the unit identities read
    constants, and semiabelian:n over e1..en adds the zero-variable
    units-equal-i for n >= 2."""
    return [identity_2assoc(n), *identities_1assoc(n), *identities_strict(n),
            identity_unit_law(n), identity_unit_expansion(n),
            *resolve_suite(f"semiabelian:{n}").identities]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 3), st.integers(1, 2),
       st.sampled_from([None, 1, 2]))
def test_plans_do_not_leak_between_algebras(seed, m, n, power):
    # one plan per identity, m and layout serves algebras with different
    # tables and unit values, checked in both orders; power moves the
    # block size, so the plans of several layouts are reused too, and a
    # one-element carrier is always one block
    rng = random.Random(seed)
    algs = [random_algebra(rng, m, n) for _ in range(3)]
    ids = _reused_identities(n)
    assert ids == _reused_identities(n)
    block = identities._BLOCK if power is None else m ** power
    with mock.patch.object(identities, "_BLOCK", block):
        for order in (algs, algs[::-1]):
            for alg in order:
                for ident in ids:
                    rep = check_identity(alg, ident)
                    cx = brute_first_counterexample(alg, ident)
                    k = len(ident.variables)
                    assert rep.counterexample == cx, ident.name
                    assert rep.verdict == ("pass" if cx is None else "fail")
                    assert rep.tuples_checked == (
                        m ** k if cx is None else 1 + sum(
                            v * m ** (k - 1 - i)
                            for i, v in enumerate(cx.values())))


def test_signature_fit_is_decided_per_signature():
    # a fit is remembered per signature: the same identity object still
    # refuses, every time and with the same message, a signature it
    # does not fit
    ident = identity_2assoc(2)
    theta3 = catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 1)
    theta2 = catalog.build_semigroup_algebra(catalog.cyclic_group(3), 1, 1)
    assert check_identity(theta3, ident).ok
    for _ in range(2):
        with pytest.raises(SymbolError) as err:
            check_identity(theta2, ident)
        assert str(err.value) == (
            "identity '2assoc:2' does not fit the signature of 'Grp3n1i1': "
            "'theta' expects 2 arguments, got 3")
    unit_law = identity_unit_law(2)
    assert check_identity(catalog.build_boolean_protomodular(2), unit_law).ok
    for _ in range(2):
        with pytest.raises(SymbolError) as err:
            check_identity(theta3, unit_law)
        assert str(err.value) == (
            "identity 'unit-law:2' does not fit the signature of 'Grp3n2i1': "
            "unknown constant 'e1'")


def test_a_misfit_is_refused_before_anything_else():
    # the fit is decided first: each call below would fail otherwise too
    # (over budget, an unknown mode, no samples), and a sampled check or
    # a product decided through its factors plans nothing before it
    ident = identity_2assoc(2)
    theta2 = catalog.build_semigroup_algebra(catalog.cyclic_group(3), 1, 1)
    product = catalog.build_group_product_algebra(
        [catalog.cyclic_group(2), catalog.cyclic_group(3)], [1, 1], 1)
    assert product.factors
    assert check_identity(product, identity_2assoc(1)).engine == "product"
    calls = [
        (theta2, {}),
        (theta2, {"budget": 1}),
        (theta2, {"mode": "unknown"}),
        (theta2, {"mode": "sampled"}),
        (theta2, {"mode": "sampled", "samples": 0}),
        (product, {}),
        (product, {"budget": 1}),
        (product, {"mode": "sampled"}),
    ]
    for alg, kw in calls:
        for _ in range(2):
            with pytest.raises(SymbolError) as err:
                check_identity(alg, ident, **kw)
            assert str(err.value) == (
                f"identity '2assoc:2' does not fit the signature of "
                f"{alg.name!r}: 'theta' expects 2 arguments, got 3"), kw
    # the same calls on a fitting identity fail for their own reasons
    fit = identity_2assoc(1)
    with pytest.raises(BudgetError):
        check_identity(theta2, fit, budget=1)
    with pytest.raises(BudgetError):
        check_identity(product, fit, budget=1)
    with pytest.raises(InputError, match="unknown mode 'unknown'"):
        check_identity(theta2, fit, mode="unknown")
    with pytest.raises(InputError, match="samples >= 1"):
        check_identity(theta2, fit, mode="sampled", samples=0)


def test_an_identity_parsed_again_is_planned_once(monkeypatch):
    # plans are keyed by the identity's value: three parses of one text
    # are three equal objects, and all three checks share one plan
    group = catalog.cyclic_group(5)
    monkeypatch.setattr(identities, "_plans", identities._Kept(
        identities._PLANS, identities._PLAN_BYTES))
    built = []
    real = identities._plan_sides

    def recording(ident, m, inner):
        built.append(ident)
        return real(ident, m, inner)

    monkeypatch.setattr(identities, "_plan_sides", recording)
    text = ("identity assoc(a, b, c): "
            "prod(prod(a, b), c) = prod(a, prod(b, c))")
    parsed = [dsl.parse_identity(text) for _ in range(3)]
    assert len(set(map(id, parsed))) == 3
    for ident in parsed:
        assert ident == parsed[0]
        rep = check_identity(group, ident)
        assert rep.ok and rep.tuples_checked == 5 ** 3
    assert len(built) == 1
    assert len(identities._plans.entries) == 1


def test_plan_cache_is_bounded(monkeypatch):
    # each cyclic group checks its group laws and then associativity at
    # its own size; with room for 16 plans, at most 16 stay alive
    built = []
    real = identities._plan_sides

    def recording(ident, m, inner):
        weight, sides = real(ident, m, inner)
        built.append(weakref.ref(sides[0]))
        return weight, sides

    monkeypatch.setattr(identities, "_plan_sides", recording)
    monkeypatch.setattr(identities, "_plans", identities._Kept(16))
    for m in range(1, 41):
        assert check_identity(catalog.cyclic_group(m), ASSOCIATIVITY).ok
    gc.collect()
    assert len(built) >= 40
    assert sum(ref() is not None for ref in built) <= 16


def test_kept_values_are_bounded_by_count_and_weight():
    kept = identities._Kept(3, weight=10)
    for key, weight in enumerate((4, 4, 1, 1)):
        assert kept.get(key, lambda: (weight, f"v{key}")) == f"v{key}"
    # 4 + 4 + 1 + 1 is over the weight: key 0 went first
    assert list(kept.entries) == [1, 2, 3] and kept.total == 6
    # a hit moves its key to the end, so key 2 is dropped before it
    assert kept.get(1, lambda: pytest.fail("rebuilt a kept value")) == "v1"
    kept.get(4, lambda: (1, "v4"))
    assert list(kept.entries) == [3, 1, 4] and kept.total == 6
    # a value heavier than the whole weight is returned, not kept
    assert kept.get(5, lambda: (11, "v5")) == "v5"
    assert list(kept.entries) == [3, 1, 4]


def _dented_table(alg, name, index):
    entries = list(alg.op(name).entries)
    entries[index] = (entries[index] + 1) % alg.size
    table = DenseTable(alg.op(name).arity, entries)
    return FiniteAlgebra(alg.name, alg.signature, alg.size,
                         dict(alg.tables, **{name: table}), alg.constants)


def _grp16_mu():
    alg = catalog.build_semigroup_algebra(catalog.cyclic_group(16), 1, 1)
    mu = term_table(alg, term_malcev(1, *(Variable(v) for v in "abc")),
                    ("a", "b", "c"))
    return FiniteAlgebra("grp16n1.mu", Signature((("mu", 3),)), 16,
                         {"mu": mu})


@pytest.mark.parametrize("build, name, ident", [
    # a copy has no factors, so the kernel checks the product's own table
    pytest.param(lambda: dataclasses.replace(
        catalog.build_group_product_algebra(
            [catalog.cyclic_group(4), catalog.cyclic_group(4)], (1, 2), 2)),
        "theta", identity_2assoc(2), id="grpprod4x4n2-2assoc"),
    pytest.param(_grp16_mu, "mu", identity_malcev_assoc(),
                 id="grp16n1-malcev-assoc"),
])
@pytest.mark.parametrize("dent", [None, 16, -1])
def test_real_size_multi_block_reports(monkeypatch, build, name, ident,
                                      dent):
    # at the real _BLOCK these m = 16 checks run 256 blocks of 16^3; the
    # dents put the lex-first failure in the second block, at its second
    # tuple (16) or at tuple 3,840 (the last dent that fails by 20,000)
    alg = build()
    assert alg.size ** 3 <= identities._BLOCK < alg.size ** 4
    if dent == -1:
        dent = 4047 if name == "theta" else 3839
    if dent is not None:
        alg = _dented_table(alg, name, dent)
    sizes = _record_blocks(monkeypatch)
    rep = check_identity(alg, ident)
    if dent is None:
        assert (rep.verdict, rep.tuples_checked) == ("pass", 16 ** 5)
        # both sections are left translations, by gamma(a1, a2) or by
        # a * b^-1: 16 distinct among the 256 blocks, and a block
        # whose sections an earlier block had is not evaluated
        assert len(sizes) == 16
        return
    cx = brute_first_counterexample(alg, ident)
    assert rep.counterexample == cx
    assert 16 ** 3 < rep.tuples_checked <= 2 * 16 ** 3
    assert rep.tuples_checked == 1 + sum(
        v * 16 ** (4 - i) for i, v in enumerate(cx.values()))


def test_a_first_block_failure_builds_no_class_ids(monkeypatch):
    # the sections are classed only once the first block has passed
    alg = dataclasses.replace(catalog.build_group_product_algebra(
        [catalog.cyclic_group(4), catalog.cyclic_group(4)], (1, 2), 2))
    built = []
    real = identities._section_key
    monkeypatch.setattr(identities, "_section_key",
                        lambda *args: built.append(args) or real(*args))
    rep = check_identity(_dented_table(alg, "theta", 0), identity_2assoc(2))
    assert rep.verdict == "fail" and rep.tuples_checked <= 16 ** 3
    assert built == []
    assert check_identity(alg, identity_2assoc(2)).ok
    assert len(built) == 1


def _random_group(rng, m):
    """The product and inverse lists of a random group on range(m): Z/m or,
    at m = 4, the Klein group, under a random relabeling."""
    klein = m == 4 and rng.random() < 0.5
    perm = rng.sample(range(m), m)
    prod = [0] * (m * m)
    for a, b in itertools.product(range(m), repeat=2):
        prod[perm[a] * m + perm[b]] = perm[a ^ b if klein else (a + b) % m]
    e = perm[0]
    inv = [next(y for y in range(m) if prod[x * m + y] == e)
           for x in range(m)]
    return prod, inv


def _copied_rows(rng, m, arity):
    """A random table of arity arguments whose rows at a random depth are
    copies of at most three distinct rows."""
    depth = rng.randint(1, arity)
    width = m ** (arity - depth)
    rows = [[rng.randrange(m) for _ in range(width)]
            for _ in range(rng.randint(1, 3))]
    return [x for _ in range(m ** depth) for x in rng.choice(rows)]


def _section_identities(n):
    """Identities whose blocks are keyed by their sections under a prefix
    loop: over theta/(n+1) 2assoc:n and 1assoc:n, and over mu/3
    malcev-assoc and a law whose right side reads a section its left
    side does not."""
    a, b, c, d, x = (Variable(v) for v in "abcdx")
    return [identity_2assoc(n), *identities_1assoc(n),
            identity_malcev_assoc(),
            Identity("mu-sections", ("a", "b", "c", "x"),
                     Apply("mu", a, b, x),
                     Apply("mu", Apply("mu", a, c, c), Apply("mu", b, c, c),
                           x))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 4), st.integers(1, 2),
       st.sampled_from(["group", "copied"]), st.booleans(),
       st.integers(1, 2))
def test_section_keyed_blocks_match_the_oracle(seed, m, n, kind, dent, power):
    # blocks whose sections repeat: theta(a*, b) = gamma(a*) * b and
    # mu(a, b, c) = a * b^-1 * c of a random group and a random gamma, or
    # random tables whose rows are copies of a few; a dent makes one
    # section differ from its copies
    rng = random.Random(seed)
    if kind == "group":
        prod, inv = _random_group(rng, m)
        gamma = [rng.randrange(m) for _ in range(m ** n)]
        theta = [prod[g * m + b] for g in gamma for b in range(m)]
        mu = [prod[prod[a * m + inv[b]] * m + c]
              for a, b, c in itertools.product(range(m), repeat=3)]
    else:
        theta, mu = _copied_rows(rng, m, n + 1), _copied_rows(rng, m, 3)
    tables = {"theta": theta, "mu": mu}
    if dent:
        entries = tables[rng.choice(sorted(tables))]
        i = rng.randrange(len(entries))
        entries[i] = (entries[i] + 1) % m
    alg = FiniteAlgebra("sections", Signature((("theta", n + 1), ("mu", 3))),
                        m, {"theta": DenseTable(n + 1, theta),
                            "mu": DenseTable(3, mu)})
    with mock.patch.object(identities, "_BLOCK", m ** power):
        for ident in _section_identities(n):
            rep = check_identity(alg, ident)
            cx = brute_first_counterexample(alg, ident)
            k = len(ident.variables)
            assert rep.counterexample == cx, ident.name
            assert rep.verdict == ("pass" if cx is None else "fail")
            assert rep.tuples_checked == (m ** k if cx is None else 1 + sum(
                v * m ** (k - 1 - i) for i, v in enumerate(cx.values())))


def test_a_second_tables_pass_builds_no_grid(monkeypatch, tmp_path):
    # the grids and meshes the tables benchmark workload uses fit the
    # byte bound of _grids, so after one warm-up pass a second builds none
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.build("tables", 911, tmp_path)
    monkeypatch.setattr(identities, "_plans", identities._Kept(
        identities._PLANS, identities._PLAN_BYTES))
    grids = identities._Kept(identities._PLANS, identities._PLAN_BYTES)
    monkeypatch.setattr(identities, "_grids", grids)
    for op in ops:
        op.call()
    assert grids.entries
    built = []
    real = grids.get
    monkeypatch.setattr(grids, "get", lambda key, build: real(
        key, lambda: built.append(key) or build()))
    for op in ops:
        op.call()
    assert built == []


def _sum_identity(k):
    """f(x1, f(x2, ..., f(xk, e))) = f(xk, f(x(k-1), ..., f(x2, x1)));
    both sides are x1 + ... + xk when f is addition mod m and e = 0."""
    xs = [Variable(f"x{i}") for i in range(1, k + 1)]
    lhs = Constant("e")
    for x in reversed(xs):
        lhs = Apply("f", x, lhs)
    rhs = xs[0]
    for x in xs[1:]:
        rhs = Apply("f", x, rhs)
    return Identity(f"sum:{k}", tuple(x.name for x in xs), lhs, rhs)


# 256, 257, 289 and 512 tuples; each id ends with the path the size took
# when checks of at most 256 tuples ran on a separate scalar loop
@pytest.mark.parametrize("m, k", [
    pytest.param(16, 2, id="16-2-scalar"), pytest.param(2, 8, id="2-8-scalar"),
    pytest.param(257, 1, id="257-1-np"), pytest.param(17, 2, id="17-2-np"),
    pytest.param(2, 9, id="2-9-np"),
])
@pytest.mark.parametrize("dent", [None, 0, -1])
def test_dispatch_at_the_numpy_threshold(m, k, dent):
    # both sides of the old threshold run on the one numpy kernel and
    # give the oracle's reports
    entries = [(a + b) % m for a in range(m) for b in range(m)]
    if dent is not None:
        i = dent % m * m  # change f(0, 0) or f(m-1, 0)
        entries[i] = (entries[i] + 1) % m
    alg = FiniteAlgebra(f"Z{m}", Signature((("f", 2),), ("e",)), m,
                        {"f": DenseTable(2, tuple(entries))}, {"e": 0})
    ident = _sum_identity(k)
    rep = check_identity(alg, ident)
    assert rep.engine == "np"
    assert rep.counterexample == brute_first_counterexample(alg, ident)
    assert rep.ok == (dent is None)
    if dent is None:
        assert rep.tuples_checked == m ** k
    assert list(rep.to_dict())[-1] == "engine"


# --- random identities against the oracles -----------------------------------

def _random_term_algebra(rng, m, kind):
    """f, g and h on range(m): random tables, or a - b + c, a + b and -a
    on Z/m, where many identities hold, or those with one entry redrawn."""
    if kind == "random":
        tables = {op: [rng.randrange(m) for _ in range(m ** r)]
                  for op, r in RANDOM_OPS}
    else:
        tables = {op: [fn(args) % m for args in itertools.product(
                           range(m), repeat=r)]
                  for (op, r), fn in zip(RANDOM_OPS, (
                      lambda a: -a[0], lambda a: a[0] + a[1],
                      lambda a: a[0] - a[1] + a[2]))}
    if kind == "dented":
        entries = tables[rng.choice(sorted(tables))]
        i = rng.randrange(len(entries))
        entries[i] = (entries[i] + 1) % m
    return FiniteAlgebra(
        f"{kind}{m}", Signature(RANDOM_OPS, ("e", "z")), m,
        {op: DenseTable(r, tables[op]) for op, r in RANDOM_OPS},
        {"e": 0, "z": rng.randrange(m)})


@settings(max_examples=250, deadline=None)
@given(random_identities(), st.integers(0, 10 ** 9), st.integers(1, 4),
       st.sampled_from(["random", "group", "dented"]), st.integers(1, 2),
       st.integers(1, 60))
def test_random_identities_match_the_oracles(ident, seed, m, kind, power,
                                             samples):
    # the one-block check, the prefix loop of blocks of m or m^2 tuples
    # and the sampled check each give their oracle's report
    alg = _random_term_algebra(random.Random(seed), m, kind)
    cx = brute_first_counterexample(alg, ident)
    k = len(ident.variables)
    want = ("pass" if cx is None else "fail", cx, m ** k if cx is None else
            1 + sum(v * m ** (k - 1 - i) for i, v in enumerate(cx.values())))
    for block in (identities._BLOCK, m ** power):
        with mock.patch.object(identities, "_BLOCK", block):
            rep = check_identity(alg, ident)
        assert (rep.verdict, rep.counterexample, rep.tuples_checked) == want
    assert sampled(alg, ident, samples, seed) == scalar_sampled(
        alg, ident, samples, seed)


def test_symbol_names_never_reach_the_evaluator_source(monkeypatch):
    # the evaluator's source names tables, constants and variables by
    # their slots, so names that are code, or the source's own names,
    # change nothing; no source holds any of them
    sources = []
    real = identities._made.__wrapped__
    monkeypatch.setattr(identities, "_made", functools.lru_cache(
        identities._PLANS)(lambda source: sources.append(source) or real(
            source)))
    monkeypatch.setattr(identities, "_shape", functools.lru_cache(
        identities._PLANS)(identities._shape.__wrapped__))
    f, g, c = "t1", "v0 = __import__('os')", "__builtins__"
    names = ("x1", "block", "k0")
    x, y, z = (Variable(v) for v in names)
    m = 3
    alg = FiniteAlgebra("code", Signature(((f, 2), (g, 3)), (c,)), m, {
        f: DenseTable(2, [(a + b) % m for a in range(m) for b in range(m)]),
        g: DenseTable(3, [(a - b + d) % m for a in range(m)
                          for b in range(m) for d in range(m)])}, {c: 1})
    for lhs, rhs in [
            (Apply(f, x, Apply(f, y, z)), Apply(f, Apply(f, x, y), z)),
            (Apply(g, x, y, Apply(f, z, Constant(c))),
             Apply(f, Apply(g, x, y, z), Constant(c))),
            (Apply(g, x, x, y), Apply(f, y, Constant(c)))]:
        ident = Identity("named", names, lhs, rhs)
        for block in (identities._BLOCK, m):
            with mock.patch.object(identities, "_BLOCK", block):
                rep = check_identity(alg, ident)
            assert rep.counterexample == brute_first_counterexample(
                alg, ident)
        assert sampled(alg, ident, 40, 3) == scalar_sampled(
            alg, ident, 40, 3)
    assert sources
    for name in (g, c, "__import__", "block = ", "x1 ="):
        assert not any(name in source for source in sources), name


# --- structural laws -------------------------------------------------------

def _changed(table, index, value):
    entries = list(table.entries)
    entries[index] = value
    return DenseTable(table.arity, entries)


def _lattice_view(size, join, meet, **consts):
    sig = Signature((("join", 2), ("meet", 2)), tuple(consts))
    return FiniteAlgebra("LatticeSpec", sig, size,
                         {"join": join, "meet": meet}, consts)


def _law_sites():
    """(build, view, laws, error, law): build() raises error because view
    breaks law, the first law of laws it breaks; each case changes one
    table entry or constant of a valid structure."""
    z3, z4 = catalog.cyclic_group(3), catalog.cyclic_monoid(4)
    chain = catalog.chain_lattice(3)
    mono = (4, _changed(z4.op("prod"), 1 * 4 + 1, 3), 0)  # 1*1 = 3
    group = (3, _changed(z3.op("prod"), 1 * 3 + 0, 2), 0,
             z3.op("inv").entries)  # 1*0 = 2
    chain_join, chain_meet = chain.op("join"), chain.op("meet")
    join = _changed(chain_join, 0 * 3 + 1, 2)  # join(0, 1) = 2
    eg = to_enriched(catalog.build_semigroup_algebra(z3, 2, 1))
    prod, gamma = eg.op("prod"), eg.op("gamma")
    alphas = (eg.op("alpha1"), eg.op("alpha2"))
    # gamma(0, 1) = 1: gamma-alpha reads gamma on the diagonal only
    enriched = enriched_algebra("Enriched", 3, prod, 0,
                                _changed(gamma, 1, 1), alphas)
    bad_alpha = enriched_algebra("Enriched", 3, prod, 0, gamma,
                                 (alphas[0], _changed(alphas[1], 4, 2)))
    return [
        pytest.param(lambda: catalog.monoid(*mono),
                     monoid_algebra("MonoidSpec", *mono), MONOID_LAWS,
                     AlgebraError, "associativity", id="MonoidSpec"),
        pytest.param(lambda: catalog.monoid(*group),
                     monoid_algebra("GroupSpec", *group), GROUP_LAWS,
                     AlgebraError, "unit-right", id="GroupSpec"),
        pytest.param(lambda: catalog.lattice(3, join, chain_meet),
                     _lattice_view(3, join, chain_meet), LATTICE_LAWS,
                     AlgebraError, "join-commutativity", id="LatticeSpec"),
        pytest.param(lambda: catalog.lattice(3, chain_join, chain_meet,
                                             top=1),
                     _lattice_view(3, chain_join, chain_meet, top=1),
                     LATTICE_LAWS + (NEUTRAL_LAWS["top"],),
                     AlgebraError, "top-neutral", id="LatticeSpec-top"),
        pytest.param(lambda: from_enriched(enriched), enriched,
                     enriched_laws(2), GroupLawError, "distributivity",
                     id="EnrichedGroup-distributivity"),
        pytest.param(lambda: from_enriched(bad_alpha), bad_alpha,
                     enriched_laws(2), GroupLawError, "alpha2-unit",
                     id="EnrichedGroup-alpha"),
    ]


@pytest.mark.parametrize("build, view, laws, error, law", _law_sites())
def test_law_sites_name_the_law_and_its_first_counterexample(
        build, view, laws, error, law):
    first = next((ident, cx) for ident in laws
                 if (cx := brute_first_counterexample(view, ident)))
    assert first[0].name == law
    with pytest.raises(error) as ei:
        build()
    assert type(ei.value) is error
    cx = ", ".join(f"{k}={v}" for k, v in first[1].items())
    assert str(ei.value) == f"{view.name}: {law} fails at {cx}"


@pytest.mark.parametrize("build", [
    lambda: catalog.monoid(2, DenseTable(2, (0, 1, 1, 5)), 0),
    lambda: catalog.monoid(3, catalog.cyclic_group(3).op("prod"), 0,
                           (0, 2, 4)),
    lambda: catalog.lattice(2, catalog.chain_lattice(2).op("join"),
                            catalog.chain_lattice(2).op("meet"), top=5),
], ids=["monoid-entry", "group-inverse", "lattice-top"])
def test_out_of_range_spec_inputs_raise_algebra_error(build):
    with pytest.raises(AlgebraError, match="out of range"):
        build()


def test_structures_are_validated_beyond_the_exhaustive_budget():
    # 465^3 associativity tuples exceed EXHAUSTIVE_BUDGET
    assert 465 ** 3 > identities.EXHAUSTIVE_BUDGET
    g = catalog.cyclic_group(465)
    assert g.op("prod").lookup((464, 2), 465) == 1


# --- derived terms materialized by term_table ----------------------------------

_CATALOG_THETAS = [
    lambda: catalog.build_diagonal_retraction_algebra(2, 2),
    lambda: catalog.build_semigroup_algebra(catalog.cyclic_monoid(3), 2, 1),
    lambda: catalog.build_map_composition_algebra(2, 1),
]


def _derived_terms(alg, n):
    """(term, variables) for the four derived terms and a constant term,
    those of them that fit alg's signature."""
    a, b, c = (Variable(v) for v in "abc")
    terms = [(term_product(n), ("a", "b")),
             (term_malcev(n, a, b, c), ("a", "b", "c"))]
    if alg.signature.constants:
        unit = alg.signature.constants[0]
        terms += [(term_diagonal_solution(n), ("b", "c")),
                  (term_gamma(n, unit),
                   tuple(f"a{i}" for i in range(1, n + 1))),
                  (Constant(unit), ("a", "b"))]
    fitting = []
    for term, variables in terms:
        try:
            check_term(alg.signature, term, variables)
        except SymbolError:
            continue
        fitting.append((term, variables))
    return fitting


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 4), st.integers(1, 2),
       st.booleans(),
       st.sampled_from([None] + list(range(len(_CATALOG_THETAS)))))
def test_term_table_matches_eval_term(seed, m, n, shared_unit, built):
    if built is None:
        alg = random_algebra(random.Random(seed), m, n, shared_unit)
    else:
        alg = _CATALOG_THETAS[built]()
        m, n = alg.size, alg.op("theta").arity - 1
    terms = _derived_terms(alg, n)
    # the theta-only algebras fit the product term alone
    assert len(terms) == (1 if built in (1, 2) else 5)
    for term, variables in terms:
        want = table_from_fn(len(variables), m, lambda *xs: eval_term(
            alg, term, dict(zip(variables, xs))))
        assert term_table(alg, term, variables) == want


def test_term_table_refuses_an_unbound_variable(bool2):
    with pytest.raises(EvalError, match=r"unbound variables \['b'\]"):
        term_table(bool2, term_product(2), ("a",))


# --- products decided through their factors ----------------------------------

def _random_ops(rng, ops, m, constants=()):
    """An algebra of random tables for ops, with constants that are 0."""
    tables = {name: DenseTable(arity, [rng.randrange(m)
                                       for _ in range(m ** arity)])
              for name, arity in ops}
    return FiniteAlgebra(f"rand{m}", Signature(ops, constants), m, tables,
                         dict.fromkeys(constants, 0))


def _random_factor(rng, kind, n, m):
    """A factor of m elements over the operations of kind: theta/(n+1)
    (a projection or random theta), prod and e (a cyclic group or monoid,
    or a random operation), or join and meet (a chain, or random
    operations)."""
    pick = rng.randrange(4)  # half of the factors are random
    if kind == "theta":
        if pick < 2:
            i = rng.randint(1, n + 1)
            return catalog.build_projection_algebra(m, n, i)
        return _random_ops(rng, (("theta", n + 1),), m)
    if kind == "prod":
        if pick < 2:
            return (catalog.cyclic_group, catalog.cyclic_monoid)[pick](m)
        return _random_ops(rng, (("prod", 2),), m, ("e",))
    if pick < 2:
        return catalog.chain_lattice(m)
    return _random_ops(rng, (("join", 2), ("meet", 2)), m)


def _factor_identities(kind, n):
    if kind == "theta":
        return [identity_2assoc(n), *identities_1assoc(n)]
    return [ASSOCIATIVITY] if kind == "prod" else list(LATTICE_LAWS)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(["theta", "prod", "lattice"]),
       st.integers(1, 2), st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.booleans())
def test_products_are_decided_through_their_factors(seed, kind, n, sizes,
                                                    nested):
    # up to 4^5 tuples for the brute-force oracle at n = 2, 8^3 otherwise
    cap = 4 if kind == "theta" and n == 2 else 8
    while math.prod(sizes) > cap:
        sizes = sizes[:-1]
    rng = random.Random(seed)
    factors = [_random_factor(rng, kind, n, m) for m in sizes]
    if nested and len(factors) > 1:
        factors = [catalog._product("inner", factors[:2])] + factors[2:]
    prod = catalog._product("P", factors)
    plain = dataclasses.replace(prod)  # the same tables, no factors
    for ident in _factor_identities(kind, n):
        rep = check_identity(prod, ident)
        kernel = check_identity(plain, ident)
        assert (rep.engine, kernel.engine) == ("product", "np")
        cx = brute_first_counterexample(plain, ident)
        assert rep.counterexample == kernel.counterexample == cx, ident.name
        assert rep.verdict == kernel.verdict == ("pass" if cx is None
                                                 else "fail")
        assert rep.tuples_checked == sum(
            check_identity(f, ident).tuples_checked for f in factors)


@pytest.mark.parametrize("copy", [
    lambda alg: FiniteAlgebra(alg.name, alg.signature, alg.size,
                              dict(alg.tables), dict(alg.constants)),
    lambda alg: dataclasses.replace(alg, tables=dict(alg.tables)),
    lambda alg: dsl.parse_algebra(dsl.serialize(alg)),
], ids=["constructor", "replace", "round-trip"])
def test_factors_never_vouch_for_an_edited_table(copy):
    prod = catalog.build_matrix_row_algebra(2, 1)
    ident = identity_2assoc(1)
    alg = copy(prod)
    assert prod.factors and alg.factors == ()
    assert alg == prod
    entries = list(alg.op("theta").entries)
    entries[37] = (entries[37] + 1) % alg.size
    alg.tables["theta"] = DenseTable(2, entries)
    rep = check_identity(alg, ident)
    assert (rep.verdict, rep.engine) == ("fail", "np")
    assert rep.counterexample == brute_first_counterexample(alg, ident)
    assert alg != prod and check_identity(prod, ident).ok
