import itertools
import time

import pytest

from finalg import catalog, groups, identities
from finalg.core import BudgetError, table_from_fn
from finalg.groups import (
    GroupLawError,
    PreconditionError,
    check_diagonal_cancellation,
    check_malcev_assoc_expanded,
    count_enriched_groups,
    derive_group,
    enriched_algebra,
    from_enriched,
    malcev_term,
    to_enriched,
)
from finalg.identities import (
    term_diagonal_solution,
    term_product,
    term_table,
)


def _catalog_algebras():
    algs = [
        catalog.build_semigroup_algebra(catalog.cyclic_group(k), 1, 1)
        for k in (2, 3, 4, 5)
    ]
    algs += [
        catalog.build_semigroup_algebra(catalog.cyclic_group(2), 2, 1),
        catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 1),
        catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 2),
        catalog.build_group_product_algebra(
            (catalog.cyclic_group(2), catalog.cyclic_group(3)), (1, 2), 2
        ),
    ]
    return algs


# --- derived groups -----------------------------------------------------

def test_repeated_conversions_build_no_plan(monkeypatch):
    # plans are keyed by the value of a term or identity, so a second
    # conversion of an algebra finds every term and identity it
    # evaluates planned, although from_enriched builds its term afresh
    monkeypatch.setattr(identities, "_plans", identities._Kept(
        identities._PLANS, identities._PLAN_BYTES))
    alg = catalog.build_group_product_algebra(
        (catalog.cyclic_group(2), catalog.cyclic_group(3)), (1, 2), 2)
    first = [derive_group(alg), to_enriched(alg), from_enriched(
        to_enriched(alg)), malcev_term(alg)]
    planned = []
    real = identities._plan

    def recording(t, m, known, axis):
        planned.append(t)
        return real(t, m, known, axis)

    monkeypatch.setattr(identities, "_plan", recording)
    again = [derive_group(alg), to_enriched(alg), from_enriched(
        to_enriched(alg)), malcev_term(alg)]
    assert planned == []
    assert [g.tables for g in again[:3]] == [g.tables for g in first[:3]]
    assert again[3].table == first[3].table


def test_derive_group_recovers_source_product():
    for k in (2, 3, 4, 5):
        for n, i in ((1, 1), (2, 1), (2, 2)):
            alg = catalog.build_semigroup_algebra(catalog.cyclic_group(k), n, i)
            dg = derive_group(alg)
            assert (dg.op("prod").entries
                    == catalog.cyclic_group(k).op("prod").entries)
            assert dg.constant("e") == 0
            assert dg.op("inv").entries == tuple((-a) % k for a in range(k))


def test_derive_group_entire_catalog():
    for alg in _catalog_algebras():
        dg = derive_group(alg)
        # derive_group has already certified the axioms; cross-check the
        # inverse against brute force
        m, prod, e = dg.size, dg.op("prod").entries, dg.constant("e")
        for a in range(m):
            (bi,) = [x for x in range(m)
                     if prod[a * m + x] == e and prod[x * m + a] == e]
            assert dg.op("inv").entries[a] == bi


def test_derive_group_refuses_boolean(bool2):
    with pytest.raises(PreconditionError):
        derive_group(bool2)


def test_derive_group_refuses_non_2assoc():
    alg = catalog.build_strict_semiloop(3, twisted=True)
    with pytest.raises(PreconditionError) as ei:
        derive_group(alg)
    assert ei.value.report is not None and not ei.value.report.ok


def test_product_and_solution_terms_frozen(z3_n2):
    # theta(a1, a2, b) = a1 + b on Z/3: a * b = a + b, and the solution a
    # of a * b = c is c - b (c = 0 gives the inverse)
    product = term_table(z3_n2, term_product(2), ("a", "b"))
    assert product.entries == (0, 1, 2, 1, 2, 0, 2, 0, 1)
    solution = term_table(z3_n2, term_diagonal_solution(2), ("b", "c"))
    assert solution.entries == (0, 1, 2, 2, 0, 1, 1, 2, 0)


# --- diagonal equations ----------------------------------------------------

def test_solve_diagonal_frozen_example(z3_n2):
    # theta(x, x, 1) = 0 has the unique solution x = 2
    solution = term_table(z3_n2, term_diagonal_solution(2), ("b", "c"))
    assert solution.entries[1 * 3 + 0] == 2
    # brute-force cross-check over all (b, c)
    theta = z3_n2.op("theta")
    for b, c in itertools.product(range(3), repeat=2):
        x = solution.entries[b * 3 + c]
        assert theta.lookup((x, x, b), 3) == c
        assert [y for y in range(3) if theta.lookup((y, y, b), 3) == c] == [x]


def test_diagonal_solution_term_on_catalog():
    # the diagonal solution term's entry x at (b, c) solves
    # theta(x, ..., x, b) = c at every (b, c), not only at c = e, the
    # column derive_group reads
    for alg in _catalog_algebras():
        theta = alg.op("theta")
        n = theta.arity - 1
        m = alg.size
        solution = term_table(alg, term_diagonal_solution(n), ("b", "c"))
        for b, c in itertools.product(range(m), repeat=2):
            x = solution.entries[b * m + c]
            assert theta.lookup((x,) * n + (b,), m) == c


def test_diagonal_cancellation_on_catalog():
    for alg in _catalog_algebras():
        assert check_diagonal_cancellation(alg).ok


def test_diagonal_cancellation_refuses_boolean(bool2):
    with pytest.raises(PreconditionError):
        check_diagonal_cancellation(bool2)


# --- Mal'cev term ------------------------------------------------------------

def test_malcev_term_on_group(z4_group):
    res = malcev_term(z4_group)
    assert res.laws_ok
    assert res.assoc_report.ok
    # oracle: mu(a, b, c) = a - b + c
    for a, b, c in itertools.product(range(4), repeat=3):
        assert res.table.lookup((a, b, c), 4) == (a - b + c) % 4


def test_malcev_term_on_boolean(bool2):
    res = malcev_term(bool2)
    assert res.laws_ok
    # oracle from the defining term: mu(a,b,c) = theta(a&~b, a|~b, c)
    full = 3
    for a, b, c in itertools.product(range(4), repeat=3):
        x, y = a & ~b & full, (a | ~b) & full
        assert res.table.lookup((a, b, c), 4) == (x | c) & y


def test_malcev_expanded_identity_matches_direct_verdict(bool2, z4_group, z3_n2):
    for alg in (z4_group, z3_n2, bool2):
        res = malcev_term(alg)
        expanded = check_malcev_assoc_expanded(alg)
        assert expanded.ok == res.assoc_report.ok


def test_malcev_on_trivial_algebra():
    one = catalog.build_semigroup_algebra(catalog.cyclic_group(1), 2, 1)
    res = malcev_term(one)
    assert res.laws_ok and res.assoc_report.ok


# --- enriched groups ----------------------------------------------------------

def test_to_enriched_gamma_frozen(z3_n2):
    eg = to_enriched(z3_n2)
    # gamma(a1, a2) = theta(a1, a2, 0) = a1
    assert eg.op("gamma").entries == (0, 0, 0, 1, 1, 1, 2, 2, 2)
    assert eg.constant("e") == 0


def test_enriched_round_trip_catalog():
    for alg in _catalog_algebras():
        eg = to_enriched(alg)
        back = from_enriched(eg)
        assert back.tables["theta"].entries == alg.tables["theta"].entries
        n = eg.op("gamma").arity
        for i in range(1, n + 1):
            assert (back.tables[f"alpha{i}"].entries
                    == alg.tables[f"alpha{i}"].entries)


def test_to_enriched_requires_shared_unit(bool2):
    with pytest.raises((PreconditionError, GroupLawError)):
        to_enriched(bool2)


def _enriched_parts(eg):
    """(m, prod, e, gamma, alphas) of an enriched-group algebra."""
    n = eg.op("gamma").arity
    return (eg.size, eg.op("prod"), eg.constant("e"), eg.op("gamma"),
            tuple(eg.op(f"alpha{i}") for i in range(1, n + 1)))


def test_enriched_group_validation_catches_bad_gamma(z3_n2):
    m, prod, e, _, alphas = _enriched_parts(to_enriched(z3_n2))
    bad_gamma = table_from_fn(2, 3, lambda a1, a2: 0)
    with pytest.raises(GroupLawError):
        from_enriched(enriched_algebra("Bad", m, prod, e, bad_gamma, alphas))


def test_enriched_group_validation_catches_bad_alphas(z3_n2):
    m, prod, e, gamma, alphas = _enriched_parts(to_enriched(z3_n2))
    bad_alpha = table_from_fn(2, 3, lambda a, b: 1)
    with pytest.raises(GroupLawError):
        from_enriched(enriched_algebra("Bad", m, prod, e, gamma,
                                       (bad_alpha,) + alphas[1:]))


def test_derived_laws_of_enriched_groups():
    # consequences of the enriched laws: gamma fixes the unit tuple and
    # the diagonal, and is surjective
    for alg in _catalog_algebras():
        m, _, e, gamma, _ = _enriched_parts(to_enriched(alg))
        n = gamma.arity
        assert gamma.lookup((e,) * n, m) == e
        for x in range(m):
            assert gamma.lookup((x,) * n, m) == x
        assert set(gamma.entries) == set(range(m))


def test_enriched_census_small():
    from finalg.core import AlgebraError
    from finalg.search import count_2assoc_semiabelian

    assert count_enriched_groups(2, 1) == 2
    # correspondence with the table searcher, counted independently
    assert count_enriched_groups(2, 2) == 16
    assert count_2assoc_semiabelian(2, 2).count == 16
    with pytest.raises(AlgebraError):
        count_enriched_groups(4, 2)  # over enumeration budget


def test_enriched_census_refuses_a_huge_space_at_once():
    # 2^40 gamma cells: refused from the power test, m^k never built
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="2\\^40\\) exceeds budget"):
        count_enriched_groups(2, 40)
    with pytest.raises(BudgetError, match="table with 10{30} arguments"):
        count_enriched_groups(1, 10 ** 30)
    assert time.perf_counter() - start < 1


def test_algebra_hash_is_stable(z3_n2):
    h1 = groups.algebra_hash(z3_n2)
    assert len(h1) == 16
    assert h1 == groups.algebra_hash(z3_n2)
    assert h1 != groups.algebra_hash(derive_group(z3_n2))
