import itertools
import math

import numpy as np
import pytest

from finalg import catalog
from finalg.core import (
    AlgebraError,
    BudgetError,
    FiniteAlgebra,
    LazyTable,
    Signature,
    validate_algebra,
)
from finalg.identities import (
    COMMUTATIVITY,
    DISTRIBUTIVITY,
    check_identity,
    check_strict_equivalence,
    check_suite,
    identities_1assoc,
    identity_2assoc,
    suite_ok,
    suite_protomodular,
    suite_semiabelian,
    unit_constants,
)


def _passes_2assoc(alg, n, **kw):
    return check_identity(alg, identity_2assoc(n), **kw).ok


# --- specs (monoids, groups, lattices) ------------------------------------

def test_group_spec_laws_enforced():
    from finalg.core import DenseTable

    g = catalog.cyclic_group(4)
    assert g.name == "GroupSpec"
    assert g.op("prod").lookup((3, 2), 4) == 1 and g.op("inv").entries[3] == 1
    assert check_identity(g, COMMUTATIVITY).ok
    with pytest.raises(AlgebraError):
        catalog.monoid(2, DenseTable(2, (0, 0, 0, 0)), 0, (0, 1))


def test_monoid_spec_laws_enforced():
    from finalg.core import DenseTable

    mo = catalog.cyclic_monoid(3)
    assert mo.name == "MonoidSpec" and not mo.signature.has_op("inv")
    assert mo.op("prod").lookup((2, 2), 3) == 1
    with pytest.raises(AlgebraError):
        catalog.monoid(2, DenseTable(2, (1, 0, 0, 1)), 0)  # unit wrong


def test_lattice_specs():
    c3 = catalog.chain_lattice(3)
    assert c3.name == "LatticeSpec"
    assert check_identity(c3, DISTRIBUTIVITY).ok
    sq = catalog.product_lattice(catalog.chain_lattice(2),
                                 catalog.chain_lattice(2))
    assert sq.size == 4 and check_identity(sq, DISTRIBUTIVITY).ok
    assert sq.constants == {"bottom": 0, "top": 3}


def _diamond_m3():
    # 0 < a, b, c < 1 with the three atoms pairwise incomparable
    size = 5
    bot, a, b, c, top = range(5)
    atoms = {a, b, c}

    def join(x, y):
        if x == y:
            return x
        if bot in (x, y):
            return x if y == bot else y
        return top

    def meet(x, y):
        if x == y:
            return x
        if top in (x, y):
            return x if y == top else y
        return bot

    from finalg.core import table_from_fn

    return catalog.lattice(
        size, table_from_fn(2, size, join), table_from_fn(2, size, meet)
    )


def test_nondistributive_lattice_detected_and_rejected():
    m3 = _diamond_m3()
    assert not check_identity(m3, DISTRIBUTIVITY).ok
    with pytest.raises(AlgebraError):
        catalog.build_lattice_theta(m3, "meet-middle")


# --- projection / semigroup / product -------------------------------------

def test_projection_operation_is_2assoc():
    for m, n, i in ((2, 2, 1), (3, 2, 2), (2, 3, 4), (1, 2, 1)):
        alg = catalog.build_projection_algebra(m, n, i)
        assert validate_algebra(alg).ok
        assert _passes_2assoc(alg, n)
    with pytest.raises(AlgebraError):
        catalog.build_projection_algebra(2, 2, 5)


def test_semigroup_operation_is_2assoc_and_semiabelian():
    for k, n, i in ((3, 2, 1), (3, 2, 2), (2, 1, 1), (5, 1, 1)):
        alg = catalog.build_semigroup_algebra(catalog.cyclic_group(k), n, i)
        units = unit_constants(alg, n)
        assert suite_ok(check_suite(alg, suite_semiabelian(n, units)))
        assert _passes_2assoc(alg, n)


def test_group_product_componentwise():
    groups = (catalog.cyclic_group(2), catalog.cyclic_group(3))
    alg = catalog.build_group_product_algebra(groups, (1, 2), 2)
    assert alg.size == 6
    units = unit_constants(alg, 2)
    assert suite_ok(check_suite(alg, suite_semiabelian(2, units)))
    assert _passes_2assoc(alg, 2)
    # frozen spot check: mixed-radix encoding is (z2, z3) -> 3*z2 + z3;
    # theta((1,1),(0,2),(1,0)) acts as (1+1, 2+0) = (0, 2) -> 2
    theta = alg.op("theta")
    assert theta.lookup((4, 2, 3), 6) == 2


# --- matrix rows -----------------------------------------------------------

def test_matrix_row_operation_exhaustive_small():
    alg = catalog.build_matrix_row_algebra(2, 1)
    assert alg.size == 2 ** 4
    assert _passes_2assoc(alg, 1)


def test_matrix_row_operation_sampled_large():
    alg = catalog.build_matrix_row_algebra(2, 2)
    assert alg.size == 2 ** 9
    assert isinstance(alg.tables["theta"], LazyTable)
    rep = check_identity(alg, identity_2assoc(2), mode="sampled",
                         samples=2000, seed=99)
    assert rep.verdict == "sampled-pass"
    with pytest.raises(BudgetError):
        check_identity(alg, identity_2assoc(2))


def test_matrix_row_assembly_oracle():
    # elements are 2x2 matrices over a 2-element entry set, encoded by
    # row-major base-2 digits; theta(A, B) keeps row 0 of A and row 1 of B.
    # oracle: direct digit surgery.
    alg = catalog.build_matrix_row_algebra(2, 1)
    theta = alg.op("theta")
    for a, b in itertools.product(range(16), repeat=2):
        expect = (a & 0b1100) | (b & 0b0011)
        assert theta.lookup((a, b), 16) == expect


# --- bounded monoid --------------------------------------------------------

def test_bounded_monoid_requires_order_condition():
    alg = catalog.build_bounded_monoid_algebra(catalog.cyclic_monoid(2), 3)
    assert _passes_2assoc(alg, 3)
    with pytest.raises(AlgebraError):
        catalog.build_bounded_monoid_algebra(catalog.cyclic_monoid(2), 2)
    alg = catalog.build_bounded_monoid_algebra(catalog.cyclic_monoid(3), 4)
    assert _passes_2assoc(alg, 4)


def test_bounded_monoid_rejects_noncommutative():
    from finalg.core import table_from_fn

    # left-zero semigroup with adjoined unit 0: not commutative
    def mul(a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        return a

    mo = catalog.monoid(3, table_from_fn(2, 3, mul), 0)
    with pytest.raises(AlgebraError):
        catalog.build_bounded_monoid_algebra(mo, 3)


# --- lattices ---------------------------------------------------------------

@pytest.mark.parametrize("variant", ["meet-last", "meet-middle"])
@pytest.mark.parametrize("shape", ["chain2", "chain3", "square"])
def test_lattice_theta_2assoc_but_not_1assoc(variant, shape):
    lat = {
        "chain2": catalog.chain_lattice(2),
        "chain3": catalog.chain_lattice(3),
        "square": catalog.product_lattice(catalog.chain_lattice(2),
                                          catalog.chain_lattice(2)),
    }[shape]
    alg = catalog.build_lattice_theta(lat, variant)
    assert _passes_2assoc(alg, 2)
    reports = [check_identity(alg, i) for i in identities_1assoc(2)]
    assert any(not r.ok for r in reports)
    bad = next(r for r in reports if not r.ok)
    assert bad.counterexample is not None


def test_trivial_lattice_is_1assoc():
    alg = catalog.build_lattice_theta(catalog.chain_lattice(1), "meet-middle")
    assert all(check_identity(alg, i).ok for i in identities_1assoc(2))


def test_lattice_with_alphas_is_protomodular():
    lat = catalog.product_lattice(catalog.chain_lattice(2),
                                  catalog.chain_lattice(2))
    alg = catalog.build_lattice_v2_algebra(lat)
    units = unit_constants(alg, 2)
    assert suite_ok(check_suite(alg, suite_protomodular(2, units)))
    assert _passes_2assoc(alg, 2)


# --- boolean protomodular ----------------------------------------------------

def test_boolean_protomodular_tables(bool2):
    # theta(x, y, z) = (x | z) & y on bitmasks; oracle by direct bit ops
    theta = bool2.op("theta")
    for x, y, z in itertools.product(range(4), repeat=3):
        assert theta.lookup((x, y, z), 4) == (x | z) & y
    assert bool2.constants == {"e1": 0, "e2": 3}


def test_boolean_protomodular_suites():
    for k in (1, 2, 3):
        alg = catalog.build_boolean_protomodular(k)
        units = unit_constants(alg, 2)
        assert suite_ok(check_suite(alg, suite_protomodular(2, units)))
        assert _passes_2assoc(alg, 2)
        assert not suite_ok(check_suite(alg, suite_semiabelian(2, units)))
    with pytest.raises(AlgebraError):
        catalog.build_boolean_protomodular(4)


# --- map composition and diagonal retractions --------------------------------

def test_map_composition_2assoc():
    for m, n in ((2, 1), (3, 1), (2, 2)):
        alg = catalog.build_map_composition_algebra(m, n)
        assert alg.size == m ** (m ** n)
        assert _passes_2assoc(alg, n)


def test_map_composition_sampled_large():
    alg = catalog.build_map_composition_algebra(2, 3)
    assert alg.size == 2 ** 8
    assert isinstance(alg.tables["theta"], LazyTable)
    rep = check_identity(alg, identity_2assoc(3), mode="sampled",
                         samples=3000, seed=5)
    assert (rep.verdict, rep.tuples_checked) == ("sampled-pass", 3000)


def test_diagonal_retraction_protomodular():
    alg = catalog.build_diagonal_retraction_algebra(2, 2)
    units = unit_constants(alg, 2)
    assert suite_ok(check_suite(alg, suite_protomodular(2, units)))
    assert _passes_2assoc(alg, 2)


# --- alpha builder -----------------------------------------------------------

def test_alpha_builder_from_translation_group(z3_n2):
    built = catalog.build_alphas_from_surjectivity(
        catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 1),
        units=(0, 0),
    )
    units = unit_constants(built, 2)
    assert suite_ok(check_suite(built, suite_semiabelian(2, units)))


def test_alpha_builder_on_lattice_theta():
    # both sections of the 2-chain operation are surjective, so alphas
    # can be attached and the retraction axioms then hold
    alg = catalog.build_lattice_theta(catalog.chain_lattice(2), "meet-middle")
    built = catalog.build_alphas_from_surjectivity(alg, units=(0, 1))
    units = unit_constants(built, 2)
    assert suite_ok(check_suite(built, suite_protomodular(2, units)))


def test_alpha_builder_rejects_bad_inputs():
    # unit tuple is not a left identity for a projection operation
    proj = catalog.build_projection_algebra(2, 2, 1)
    with pytest.raises(AlgebraError) as ei:
        catalog.build_alphas_from_surjectivity(proj, units=(0, 0))
    assert "b = 1" in str(ei.value)

    # a section misses an element: theta = a1 & a2 & b on the 2-chain
    from finalg.core import Signature, FiniteAlgebra, table_from_fn

    sig = Signature((("theta", 3),), ())
    meet3 = FiniteAlgebra(
        "Meet3", sig, 2,
        {"theta": table_from_fn(3, 2, lambda a1, a2, b: a1 & a2 & b)}, {},
    )
    with pytest.raises(AlgebraError) as ei:
        catalog.build_alphas_from_surjectivity(meet3, units=(1, 1))
    assert "not surjective" in str(ei.value)



def _reference_alphas(alg, units):
    """The alpha tables of the lookup-at-a-time scan: the unit tuple where
    theta(e*, b) = a, otherwise the lex-first theta_b-preimage of a."""
    tbl, m = alg.op("theta"), alg.size
    n = tbl.arity - 1
    preimage = [[None] * m for _ in range(m)]
    for b in range(m):
        for xs in itertools.product(range(m), repeat=n):
            a = tbl.lookup(xs + (b,), m)
            if preimage[b][a] is None:
                preimage[b][a] = xs
        preimage[b][tbl.lookup(units + (b,), m)] = units
    return [tuple(preimage[b][a][i] for a in range(m) for b in range(m))
            for i in range(n)]


@pytest.mark.parametrize("lazy", [False, True])
def test_alpha_builder_takes_lex_first_preimages(monkeypatch, lazy):
    if lazy:
        monkeypatch.setattr(catalog, "DENSE_TABLE_CAP", 0)
    cases = [
        (catalog.build_semigroup_algebra(catalog.cyclic_monoid(3), 2, 1),
         (0, 0)),
        (catalog.build_lattice_theta(catalog.chain_lattice(4),
                                     "meet-middle"), (0, 3)),
        (catalog.build_lattice_theta(catalog.product_lattice(
            catalog.chain_lattice(2), catalog.chain_lattice(3)),
            "meet-middle"), (0, 5)),
    ]
    for base, units in cases:
        assert isinstance(base.op("theta"), LazyTable) == lazy
        built = catalog.build_alphas_from_surjectivity(base, units)
        expected = _reference_alphas(base, units)
        got = [built.op(f"alpha{i}").entries
               for i in range(1, len(units) + 1)]
        assert got == expected
        assert all(type(v) is int for v in got[0])


def test_alpha_builder_refuses_before_reading_theta():
    m = 2049  # m^2 entries, one row over the materialize limit

    def theta(a, b):
        if not isinstance(a, int):
            raise AssertionError("theta read as an array")
        return (a + b) % m

    sig = Signature((("theta", 2),), ())
    alg = FiniteAlgebra("Big", sig, m, {"theta": LazyTable(2, theta)}, {})
    with pytest.raises(BudgetError, match="2049\\^2 entries"):
        catalog.build_alphas_from_surjectivity(alg, (0,))

# --- strict semiloops ---------------------------------------------------------

def test_strict_semiloops_strict_for_all_small_sizes():
    for m in (1, 2, 3, 4, 5):
        alg = catalog.build_strict_semiloop(m)
        rep = check_strict_equivalence(alg, 1)
        assert rep.agree and rep.strict


def test_twisted_semiloop_not_2assoc_but_strict():
    alg = catalog.build_strict_semiloop(3, twisted=True)
    rep = check_strict_equivalence(alg, 1)
    assert rep.agree and rep.strict
    assert not _passes_2assoc(alg, 1)
    units = unit_constants(alg, 1)
    assert suite_ok(check_suite(alg, suite_semiabelian(1, units)))


# --- the LazyTable contract ----------------------------------------------------

LAZY_CAPABLE = {
    "projection": lambda: catalog.build_projection_algebra(3, 2, 2),
    "semigroup": lambda: catalog.build_semigroup_algebra(
        catalog.cyclic_monoid(4), 2, 1),
    "matrix-row": lambda: catalog.build_matrix_row_algebra(2, 1),
    "bounded-monoid": lambda: catalog.build_bounded_monoid_algebra(
        catalog.cyclic_monoid(3), 4),
    "lattice": lambda: catalog.build_lattice_theta(
        catalog.product_lattice(catalog.chain_lattice(2),
                                catalog.chain_lattice(3)), "meet-last"),
    "map-composition": lambda: catalog.build_map_composition_algebra(2, 2),
    "diagonal-retraction": lambda: (
        catalog.build_diagonal_retraction_algebra(2, 2)),
}


@pytest.mark.parametrize("name", sorted(LAZY_CAPABLE))
def test_lazy_theta_is_elementwise_over_arrays(monkeypatch, name):
    dense_alg = LAZY_CAPABLE[name]()
    monkeypatch.setattr(catalog, "DENSE_TABLE_CAP", 0)
    alg = LAZY_CAPABLE[name]()
    theta = alg.op("theta")
    assert isinstance(theta, LazyTable)
    assert theta.materialize(alg.size) == dense_alg.op("theta")
    # sampled and exhaustive reports agree whether theta is lazy or dense;
    # the retraction algebra mixes its lazy theta with dense alpha tables
    n = theta.arity - 1
    idents = [identity_2assoc(n)]
    if alg.signature.has_op("alpha1"):
        idents += suite_protomodular(n, unit_constants(alg, n)).identities
    for mode in ("sampled", "exhaustive"):
        for ident in idents:
            reports = [check_identity(a, ident, mode=mode, samples=500,
                                      seed=3).to_dict()
                       for a in (alg, dense_alg)]
            assert reports[0] == reports[1]
    rng = np.random.default_rng(11)
    cols = [rng.integers(0, alg.size, 400) for _ in range(theta.arity)]
    want = [theta.fn(*(int(c[j]) for c in cols)) for j in range(400)]
    assert all(type(v) is int for v in want)
    got = theta.fn(*cols)
    assert got.dtype == np.int64
    assert got.tolist() == want


# --- independent table references -----------------------------------------
# every catalog table is built from the array form of its function; these
# rebuild the tables with table_from_fn over int-form functions and compare

@pytest.mark.parametrize("name", sorted(LAZY_CAPABLE))
def test_lazy_theta_int_form_rebuilds_the_catalog_table(monkeypatch, name):
    from finalg.core import table_from_fn

    dense = LAZY_CAPABLE[name]().op("theta")
    monkeypatch.setattr(catalog, "DENSE_TABLE_CAP", 0)
    alg = LAZY_CAPABLE[name]()
    theta = alg.op("theta")
    assert table_from_fn(theta.arity, alg.size, theta.fn) == dense


def _scalar_semiloop(m, twisted):
    """theta and alpha1 of the strict semiloop, one int at a time."""
    def sigma(b, a):
        if twisted and b == m - 1 and a in (1, 2):
            return 3 - a
        return a

    return (lambda a, b: (sigma(b, a) + b) % m,
            lambda a, b: sigma(b, (a - b) % m))


def test_materialized_catalog_tables_match_scalar_references():
    from finalg.core import table_from_fn

    for k in (1, 2, 5):
        g = catalog.cyclic_group(k)
        assert g.op("prod") == table_from_fn(2, k, lambda a, b: (a + b) % k)
        assert g.op("inv") == table_from_fn(1, k, lambda a: -a % k)
        assert catalog.cyclic_monoid(k).op("prod") == g.op("prod")
        chain = catalog.chain_lattice(k)
        assert chain.op("join") == table_from_fn(2, k, max)
        assert chain.op("meet") == table_from_fn(2, k, min)
        for n, i in ((1, 1), (2, 2)):
            alg = catalog.build_semigroup_algebra(g, n, i)
            assert alg.op("theta") == table_from_fn(
                n + 1, k, lambda *a: (a[i - 1] + a[-1]) % k)
            for j in range(1, n + 1):
                assert alg.op(f"alpha{j}") == table_from_fn(
                    2, k, lambda a, b: (a - b) % k)
    for k in (1, 2, 3):
        alg, full = catalog.build_boolean_protomodular(k), (1 << k) - 1
        assert alg.op("theta") == table_from_fn(
            3, 1 << k, lambda x, y, z: (x | z) & y)
        assert alg.op("alpha1") == table_from_fn(
            2, 1 << k, lambda x, y: x & (full ^ y))
        assert alg.op("alpha2") == table_from_fn(
            2, 1 << k, lambda x, y: x | (full ^ y))
    for m, twisted in ((1, False), (4, False), (3, True), (6, True)):
        alg = catalog.build_strict_semiloop(m, twisted)
        theta, alpha = _scalar_semiloop(m, twisted)
        assert alg.op("theta") == table_from_fn(2, m, theta)
        assert alg.op("alpha1") == table_from_fn(2, m, alpha)


def test_derived_tables_keep_their_arrays():
    # products, built alphas and term tables are made from the arrays
    # that computed them; their entries tuple is built on first use
    from finalg.core import Variable
    from finalg.identities import term_malcev, term_table

    product = catalog.build_group_product_algebra(
        [catalog.cyclic_group(4), catalog.cyclic_group(3)], (1, 2), 2)
    built = catalog.build_lattice_v2_algebra(catalog.chain_lattice(3))
    mu = term_table(product, term_malcev(2, *(Variable(v) for v in "abc")),
                    ("a", "b", "c"))
    tables = [*product.tables.values(), built.op("alpha1"),
              built.op("alpha2"), mu]
    for table in tables:
        assert table._entries is None  # not built yet
        arr = table.array()
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert arr.shape == (len(table),)
        entries = table.entries
        assert entries == tuple(arr.tolist()) and table.entries is entries
        assert table.array() is arr


def _validated_catalog():
    """One algebra of every catalog builder, with a theta that stays lazy
    within the exhaustive budget and one above it."""
    from unittest import mock

    chain2, chain3 = catalog.chain_lattice(2), catalog.chain_lattice(3)
    algs = [
        catalog.cyclic_group(5), catalog.cyclic_monoid(4), chain3,
        catalog.product_lattice(chain2, chain3),
        catalog.build_projection_algebra(3, 2, 1),
        catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 1),
        catalog.build_semigroup_algebra(catalog.cyclic_monoid(3), 2, 2),
        catalog.build_group_product_algebra(
            [catalog.cyclic_group(2), catalog.cyclic_group(3)], (1, 2), 2),
        catalog.build_matrix_row_algebra(2, 1),
        catalog.build_matrix_row_algebra(2, 2),
        catalog.build_bounded_monoid_algebra(catalog.cyclic_monoid(2), 3),
        catalog.build_lattice_theta(chain2, "meet-last"),
        catalog.build_lattice_v2_algebra(chain3),
        catalog.build_boolean_protomodular(2),
        catalog.build_map_composition_algebra(2, 1),
        catalog.build_diagonal_retraction_algebra(2, 2),
        catalog.build_strict_semiloop(4, twisted=True),
    ]
    with mock.patch.object(catalog, "DENSE_TABLE_CAP", 0):
        algs.append(catalog.build_map_composition_algebra(2, 2))
    return algs


def test_validation_pass_counts_the_checked_values():
    # a PASS reports every table value and constant it range-checked; a
    # lazy table above the exhaustive budget is not range-checked and
    # adds none (the 512-element matrix algebra reports 0)
    from finalg.core import EXHAUSTIVE_BUDGET

    kinds = set()
    for alg in _validated_catalog():
        rep, m = validate_algebra(alg), alg.size
        want = len(alg.signature.constants)
        for sym, arity in alg.signature.ops:
            lazy = isinstance(alg.op(sym), LazyTable)
            kinds.add((lazy, m ** arity <= EXHAUSTIVE_BUDGET))
            want += m ** arity if m ** arity <= EXHAUSTIVE_BUDGET else 0
        assert (rep.verdict, rep.tuples_checked) == ("pass", want), alg.name
    assert kinds == {(False, True), (True, True), (True, False)}


def _lift_lattice(p, q):
    """The product of lattices p and q, elements encoded as a*|q| + b, by
    per-pair lookups: the oracle of the broadcast product."""
    from finalg.core import table_from_fn

    def lift(sym):
        f, g = p.op(sym), q.op(sym)

        def h(x, y):
            a1, b1 = divmod(x, q.size)
            a2, b2 = divmod(y, q.size)
            return (f.lookup((a1, a2), p.size) * q.size
                    + g.lookup((b1, b2), q.size))

        return table_from_fn(2, p.size * q.size, h)

    consts = {c: p.constants[c] * q.size + q.constants[c]
              for c in ("bottom", "top")
              if c in p.constants and c in q.constants}
    return lift("join"), lift("meet"), consts


@pytest.mark.parametrize("bounded", [True, False])
def test_product_lattice_matches_the_lift_oracle(bounded):
    from finalg.core import table_from_fn

    p = catalog.chain_lattice(2)
    q = (catalog.chain_lattice(3) if bounded else catalog.lattice(
        3, table_from_fn(2, 3, max), table_from_fn(2, 3, min)))
    for left, right in ((p, q), (q, p)):
        sq = catalog.product_lattice(left, right)
        join, meet, consts = _lift_lattice(left, right)
        assert (sq.op("join"), sq.op("meet")) == (join, meet)
        assert sq.constants == consts
        assert bool(consts) == bounded
        assert sq.signature.constants == tuple(consts)


def _dec_enc_group_product(groups, indices, n):
    """theta, alpha and the unit of the componentwise translation algebra
    over the groups, by mixed-radix decoding of each argument tuple: the
    oracle of the broadcast product."""
    from finalg.core import table_from_fn

    sizes = [g.size for g in groups]
    m = math.prod(sizes)

    def dec(x):
        out = []
        for s in reversed(sizes):
            x, r = divmod(x, s)
            out.append(r)
        return list(reversed(out))

    def enc(parts):
        x = 0
        for s, p in zip(sizes, parts):
            x = x * s + p
        return x

    def mul(g, a, b):
        return g.op("prod").lookup((a, b), g.size)

    def theta(*args):
        tuples = [dec(a) for a in args]
        return enc([mul(g, tuples[idx - 1][j], tuples[-1][j])
                    for j, (g, idx) in enumerate(zip(groups, indices))])

    def alpha(a, b):
        return enc([mul(g, x, g.op("inv").entries[y])
                    for g, x, y in zip(groups, dec(a), dec(b))])

    return (table_from_fn(n + 1, m, theta), table_from_fn(2, m, alpha),
            enc([g.constant("e") for g in groups]))


@pytest.mark.parametrize("orders, indices, n", [
    ((4, 4), (1, 2), 2),
    ((2, 3), (1, 2), 2),
    ((3, 2), (2, 2), 2),
    ((2, 3, 2), (1, 2, 1), 2),
    ((2, 2, 3), (3, 1, 2), 3),
])
def test_group_product_matches_the_dec_enc_oracle(orders, indices, n):
    groups = [catalog.cyclic_group(k) for k in orders]
    alg = catalog.build_group_product_algebra(groups, indices, n)
    theta, alpha, unit = _dec_enc_group_product(groups, indices, n)
    assert alg.op("theta") == theta
    assert all(alg.op(f"alpha{i}") == alpha for i in range(1, n + 1))
    assert alg.constants == {"e": unit}
    assert alg.name == "GrpProd" + "x".join(map(str, orders)) + f"n{n}"
