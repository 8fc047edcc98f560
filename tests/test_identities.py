import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finalg import catalog, identities
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
    LazyTable,
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

from conftest import brute_first_counterexample, random_algebra


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


def test_numpy_and_python_paths_agree():
    # Map(A^2, A) on a 2-element base: 16 elements, 16^5 tuples; the same
    # algebra behind Python LazyTable functions gives the same reports
    alg = catalog.build_map_composition_algebra(2, 2)
    ident = identity_2assoc(2)
    fast = check_identity(alg, ident)
    slow = check_identity(_lazy_view(alg), ident)
    assert fast.verdict == slow.verdict == "pass"
    assert fast.to_dict() == slow.to_dict()
    assert fast.tuples_checked == 16 ** 5


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
    return (list(suite_semiabelian(n, unit_constants(alg, n)).identities)
            + [identity_2assoc(n)] + identities_strict(n)
            + identities_1assoc(n))


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
@pytest.mark.parametrize("m", [1, 2, 3, 512, 1000, 2 ** 31 + 1, 2 ** 32 - 1])
@pytest.mark.parametrize("k", [0, 1, 5])
def test_sampled_tuples_are_the_randrange_stream(monkeypatch, batch, m, k):
    # fails loudly if a Python upgrade changes how randrange draws
    monkeypatch.setattr(identities, "_BATCH", batch)
    for seed in (0, -42, 2 ** 80):
        rng = random.Random(seed)
        want = [[rng.randrange(m) for _ in range(k)] for _ in range(300)]
        batches = list(identities._sampled_tuples(
            random.Random(seed), m, k, 300))
        assert all(b.dtype == np.int64 and b.shape[0] == k for b in batches)
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

def test_sampled_failure_eval_term_contradicts_raises():
    # array form shifts every value, int form is the left projection
    def two_faced(a, b):
        return (a + 1) % 3 if isinstance(a, np.ndarray) else a

    alg = FiniteAlgebra("two-faced", Signature((("theta", 2),)), 3,
                        {"theta": LazyTable(2, two_faced)})
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
    # the kernel reads the cached array, eval_term the entries
    for t in alg.tables.values():
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


# --- exhaustive numpy kernel: blocks, lazy tables, small checks ------------

def _lazy_view(alg):
    """alg with every table behind a LazyTable whose function meets the
    array contract: it computes the flat index and gathers the entries."""
    def lazy(t):
        get = catalog._gather(t.entries)

        def fn(*args):
            flat = 0
            for a in args:
                flat = flat * alg.size + a
            return get(flat)

        return LazyTable(t.arity, fn)

    return FiniteAlgebra(alg.name, alg.signature, alg.size,
                         {name: lazy(t) for name, t in alg.tables.items()},
                         alg.constants)


def _record_blocks(monkeypatch):
    """Wrap the numpy kernel's block check; returns the list of block
    sizes (the length of its assignment arrays) it is called with."""
    sizes = []
    real = identities._first_bad

    def recording(alg, ident, env):
        sizes.append(max(np.size(v) for v in env.values()))
        return real(alg, ident, env)

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
    # both sides of the old threshold, on dense and on lazy tables, run on
    # the one numpy kernel and give the oracle's reports
    entries = [(a + b) % m for a in range(m) for b in range(m)]
    if dent is not None:
        i = dent % m * m  # change f(0, 0) or f(m-1, 0)
        entries[i] = (entries[i] + 1) % m
    alg = FiniteAlgebra(f"Z{m}", Signature((("f", 2),), ("e",)), m,
                        {"f": DenseTable(2, tuple(entries))}, {"e": 0})
    ident = _sum_identity(k)
    rep = check_identity(alg, ident)
    lazy = check_identity(_lazy_view(alg), ident)
    assert (rep.engine, lazy.engine) == ("np", "np")
    assert rep.to_dict() == lazy.to_dict()
    assert rep.counterexample == brute_first_counterexample(alg, ident)
    assert rep.ok == (dent is None)
    if dent is None:
        assert rep.tuples_checked == m ** k
    assert list(rep.to_dict())[-1] == "engine"


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
    mono = (4, _changed(z4.table, 1 * 4 + 1, 3), 0)  # 1*1 = 3
    group = (3, _changed(z3.table, 1 * 3 + 0, 2), 0, z3.inverse)  # 1*0 = 2
    join = _changed(chain.join, 0 * 3 + 1, 2)  # join(0, 1) = 2
    eg = to_enriched(catalog.build_semigroup_algebra(z3, 2, 1))
    prod, gamma = eg.op("prod"), eg.op("gamma")
    alphas = (eg.op("alpha1"), eg.op("alpha2"))
    # gamma(0, 1) = 1: gamma-alpha reads gamma on the diagonal only
    enriched = enriched_algebra("Enriched", 3, prod, 0,
                                _changed(gamma, 1, 1), alphas)
    bad_alpha = enriched_algebra("Enriched", 3, prod, 0, gamma,
                                 (alphas[0], _changed(alphas[1], 4, 2)))
    return [
        pytest.param(lambda: catalog.MonoidSpec(*mono),
                     monoid_algebra("MonoidSpec", *mono), MONOID_LAWS,
                     AlgebraError, "associativity", id="MonoidSpec"),
        pytest.param(lambda: catalog.GroupSpec(*group),
                     monoid_algebra("GroupSpec", *group), GROUP_LAWS,
                     AlgebraError, "unit-right", id="GroupSpec"),
        pytest.param(lambda: catalog.LatticeSpec(3, join, chain.meet),
                     _lattice_view(3, join, chain.meet), LATTICE_LAWS,
                     AlgebraError, "join-commutativity", id="LatticeSpec"),
        pytest.param(lambda: catalog.LatticeSpec(3, chain.join, chain.meet,
                                                 top=1),
                     _lattice_view(3, chain.join, chain.meet, top=1),
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
    lambda: catalog.MonoidSpec(2, DenseTable(2, (0, 1, 1, 5)), 0),
    lambda: catalog.GroupSpec(3, catalog.cyclic_group(3).table, 0, (0, 2, 4)),
    lambda: catalog.LatticeSpec(2, catalog.chain_lattice(2).join,
                                catalog.chain_lattice(2).meet, top=5),
], ids=["monoid-entry", "group-inverse", "lattice-top"])
def test_out_of_range_spec_inputs_raise_algebra_error(build):
    with pytest.raises(AlgebraError, match="out of range"):
        build()


def test_structures_are_validated_beyond_the_exhaustive_budget():
    # 465^3 associativity tuples exceed EXHAUSTIVE_BUDGET
    assert 465 ** 3 > identities.EXHAUSTIVE_BUDGET
    g = catalog.cyclic_group(465)
    assert g.mul(464, 2) == 1


# --- derived terms materialized by term_table ----------------------------------

_FORCED_LAZY = [
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
       st.booleans(), st.sampled_from([None] + list(range(len(_FORCED_LAZY)))))
def test_term_table_matches_eval_term(seed, m, n, shared_unit, lazy):
    if lazy is None:
        alg = random_algebra(random.Random(seed), m, n, shared_unit)
    else:
        with mock.patch.object(catalog, "DENSE_TABLE_CAP", 0):
            alg = _FORCED_LAZY[lazy]()
        assert isinstance(alg.op("theta"), LazyTable)
        m, n = alg.size, alg.op("theta").arity - 1
    terms = _derived_terms(alg, n)
    # the theta-only algebras fit the product term alone
    assert len(terms) == (1 if lazy in (1, 2) else 5)
    for term, variables in terms:
        want = table_from_fn(len(variables), m, lambda *xs: eval_term(
            alg, term, dict(zip(variables, xs))))
        assert term_table(alg, term, variables) == want
