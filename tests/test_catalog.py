import itertools
import math

import numpy as np
import pytest

from finalg import catalog
from finalg.core import (
    AlgebraError,
    BudgetError,
    FiniteAlgebra,
    InputError,
    ProductTable,
    Signature,
    validate_algebra,
)
from finalg.identities import (
    COMMUTATIVITY,
    DISTRIBUTIVITY,
    check_identity,
    check_strict_equivalence,
    check_laws,
    identities_1assoc,
    identity_2assoc,
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


def test_lattice_builders_refuse_a_bad_variant_or_missing_bounds():
    chain = catalog.chain_lattice(2)
    with pytest.raises(InputError, match="unknown variant 'bogus'"):
        catalog.build_lattice_theta(chain, "bogus")
    unbounded = catalog.lattice(2, chain.op("join"), chain.op("meet"))
    with pytest.raises(AlgebraError, match="lattice needs bottom and top"):
        catalog.build_lattice_v2_algebra(unbounded)


# --- projection / semigroup / product -------------------------------------

def test_projection_operation_is_2assoc():
    for m, n, i in ((2, 2, 1), (3, 2, 2), (2, 3, 4), (1, 2, 1)):
        alg = catalog.build_projection_algebra(m, n, i)
        assert validate_algebra(alg).ok
        assert _passes_2assoc(alg, n)
    with pytest.raises(AlgebraError):
        catalog.build_projection_algebra(2, 2, 5)


def test_a_one_element_table_passes_one_argument_array():
    # at m = 1 every digit is 0, so fn gets the one all-zero quotient
    # for every argument, and a large arity costs one array
    seen = []

    def first(*args):
        seen.append(len({id(a) for a in args}))
        return args[0]

    assert catalog._table(1000, 1, first).entries == (0,)
    assert seen == [1]


def test_table_digits_stop_at_an_all_zero_quotient(monkeypatch):
    # blocks of 4 at m = 3: the leading digits of the first blocks are
    # zero quotients, and every entry is still its flat index
    monkeypatch.setattr(catalog, "_BLOCK", 4)
    table = catalog._table(4, 3, lambda a, b, c, d: 27 * a + 9 * b + 3 * c + d)
    assert table.array().tolist() == list(range(81))


def test_semigroup_operation_is_2assoc_and_semiabelian():
    for k, n, i in ((3, 2, 1), (3, 2, 2), (2, 1, 1), (5, 1, 1)):
        alg = catalog.build_semigroup_algebra(catalog.cyclic_group(k), n, i)
        units = unit_constants(alg, n)
        assert check_laws(alg, suite_semiabelian(n, units).identities) is None
        assert _passes_2assoc(alg, n)


def test_group_product_componentwise():
    groups = (catalog.cyclic_group(2), catalog.cyclic_group(3))
    alg = catalog.build_group_product_algebra(groups, (1, 2), 2)
    assert alg.size == 6
    units = unit_constants(alg, 2)
    assert check_laws(alg, suite_semiabelian(2, units).identities) is None
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


def test_matrix_row_operation_exact_large():
    # the 512-element algebra is the product of the projection algebras
    # on its 8 rows; its theta is over the materialize limit, so it is
    # decided exactly through them and cannot be sampled
    alg = catalog.build_matrix_row_algebra(2, 2)
    assert alg.size == 2 ** 9
    assert isinstance(alg.tables["theta"], ProductTable)
    assert alg.factors == tuple(catalog.build_projection_algebra(8, 2, i)
                                for i in (1, 2, 3))
    rep = check_identity(alg, identity_2assoc(2))
    assert (rep.verdict, rep.tuples_checked, rep.engine) == (
        "pass", 3 * 8 ** 5, "product")
    with pytest.raises(BudgetError, match="98304 assignments"):
        check_identity(alg, identity_2assoc(2), budget=3 * 8 ** 5 - 1)
    with pytest.raises(BudgetError, match="512\\^3 entries"):
        check_identity(alg, identity_2assoc(2), mode="sampled", samples=10)


def test_matrix_row_assembly_oracle():
    # elements are 2x2 matrices over a 2-element entry set, encoded by
    # row-major base-2 digits; theta(A, B) keeps row 0 of A and row 1 of B.
    # oracle: direct digit surgery.
    alg = catalog.build_matrix_row_algebra(2, 1)
    theta = alg.op("theta")
    for a, b in itertools.product(range(16), repeat=2):
        expect = (a & 0b1100) | (b & 0b0011)
        assert theta.lookup((a, b), 16) == expect


def test_matrix_rows_are_bounded_by_their_factor_tables():
    # each factor's theta table has q^(d^2) entries, the carrier's size:
    # at q = 45, n = 1 the two 2025-row factors fit the materialize limit
    # and the product's own table stays a ProductTable; at q = 46 they
    # do not, and nothing is built
    alg = catalog.build_matrix_row_algebra(45, 1)
    assert alg.size == 45 ** 4
    assert isinstance(alg.op("theta"), ProductTable)
    assert [f.size for f in alg.factors] == [45 ** 2] * 2
    with pytest.raises(BudgetError, match="4100625\\^2 entries"):
        alg.op("theta").array()
    with pytest.raises(BudgetError, match="46\\^4 entries"):
        catalog.build_matrix_row_algebra(46, 1)


def test_products_of_one_element_factors():
    # a one-element factor adds no axis to the broadcast: 9 factors of a
    # 9-ary theta would otherwise need 81 axes, over numpy's 64
    alg = catalog.build_matrix_row_algebra(1, 8)
    assert alg.size == 1 and alg.op("theta").entries == (0,)
    assert validate_algebra(alg).ok
    z1, z2 = catalog.cyclic_group(1), catalog.cyclic_group(2)
    alg = catalog.build_group_product_algebra([z1] * 33 + [z2], (1,) * 34, 1)
    assert alg.op("theta") == catalog.build_semigroup_algebra(
        z2, 1, 1).op("theta")


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
    assert check_laws(alg, suite_protomodular(2, units).identities) is None
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
        assert check_laws(alg, suite_protomodular(2, units).identities) is None
        assert _passes_2assoc(alg, 2)
        assert check_laws(
            alg, suite_semiabelian(2, units).identities) is not None
    with pytest.raises(AlgebraError):
        catalog.build_boolean_protomodular(8)


# --- map composition and diagonal retractions --------------------------------

def test_map_composition_2assoc():
    for m, n in ((2, 1), (3, 1), (2, 2)):
        alg = catalog.build_map_composition_algebra(m, n)
        assert alg.size == m ** (m ** n)
        assert _passes_2assoc(alg, n)


def test_theta_over_the_limit_is_refused():
    # 256^4 theta entries: refused before any is computed
    with pytest.raises(BudgetError, match="256\\^4 entries"):
        catalog.build_map_composition_algebra(2, 3)
    with pytest.raises(BudgetError, match="2049\\^2 entries"):
        catalog.build_projection_algebra(2049, 1, 1)


def test_diagonal_retraction_protomodular():
    alg = catalog.build_diagonal_retraction_algebra(2, 2)
    units = unit_constants(alg, 2)
    assert check_laws(alg, suite_protomodular(2, units).identities) is None
    assert _passes_2assoc(alg, 2)


# --- alpha builder -----------------------------------------------------------

def test_alpha_builder_from_translation_group(z3_n2):
    built = catalog.build_alphas_from_surjectivity(
        catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 1),
        units=(0, 0),
    )
    units = unit_constants(built, 2)
    assert check_laws(built, suite_semiabelian(2, units).identities) is None


def test_alpha_builder_on_lattice_theta():
    # both sections of the 2-chain operation are surjective, so alphas
    # can be attached and the retraction axioms then hold
    alg = catalog.build_lattice_theta(catalog.chain_lattice(2), "meet-middle")
    built = catalog.build_alphas_from_surjectivity(alg, units=(0, 1))
    units = unit_constants(built, 2)
    assert check_laws(built, suite_protomodular(2, units).identities) is None


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


def test_alpha_builder_takes_lex_first_preimages():
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
        built = catalog.build_alphas_from_surjectivity(base, units)
        expected = _reference_alphas(base, units)
        got = [built.op(f"alpha{i}").entries
               for i in range(1, len(units) + 1)]
        assert got == expected
        assert all(type(v) is int for v in got[0])


def test_alpha_builder_refuses_before_reading_theta():
    # theta(a, b) = b on 64 * 33 elements: its 2112^2 entries are over
    # the materialize limit, so theta is a lookup-only product table
    alg = catalog._product("Big", [catalog.build_projection_algebra(k, 1, 2)
                                   for k in (64, 33)])
    assert isinstance(alg.op("theta"), ProductTable)
    with pytest.raises(BudgetError, match="2112\\^2 entries"):
        catalog.build_alphas_from_surjectivity(alg, (0,))


@pytest.mark.parametrize("units", [(3, 0), (0, -1)])
def test_alpha_builder_refuses_units_outside_the_carrier(units):
    # a lookup would raise IndexError at 3 and wrap around at -1
    base = catalog.build_semigroup_algebra(catalog.cyclic_monoid(3), 2, 1)
    with pytest.raises(InputError, match="outside 0..2"):
        catalog.build_alphas_from_surjectivity(base, units)


def test_alpha_builder_refuses_a_wrong_number_of_units():
    base = catalog.build_semigroup_algebra(catalog.cyclic_monoid(3), 2, 1)
    with pytest.raises(InputError, match="need 2 unit elements, got 1"):
        catalog.build_alphas_from_surjectivity(base, (0,))

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
    assert check_laws(alg, suite_semiabelian(1, units).identities) is None


# --- independent table references -----------------------------------------
# every catalog table is built from the array form of its function; these
# rebuild the tables with table_from_fn over scalar references and compare

def _digits(x, base, count):
    """The count base-`base` digits of x, most significant first."""
    return [x // base ** (count - 1 - i) % base for i in range(count)]


def _maps_theta(m, n):
    """g o (f1, ..., fn) on the maps A^n -> A, |A| = m, each encoded by
    its values at the points of A^n in lex order as base-m digits."""
    points = list(itertools.product(range(m), repeat=n))
    k = len(points)

    def theta(*codes):
        *fs, g = (_digits(c, m, k) for c in codes)
        values = [g[points.index(tuple(f[p] for f in fs))] for p in range(k)]
        return sum(v * m ** (k - 1 - p) for p, v in enumerate(values))

    return theta


def _retractions_theta(m, n):
    """theta of the maps g with g(a, ..., a) = a, numbered by their codes
    in ascending order."""
    compose = _maps_theta(m, n)
    points = list(itertools.product(range(m), repeat=n))
    codes = [c for c in range(m ** len(points)) if all(
        _digits(c, m, len(points))[points.index((a,) * n)] == a
        for a in range(m))]
    return lambda *xs: codes.index(compose(*(codes[x] for x in xs)))


def _chain2x3_meet_last(x, y, z):
    """(x v y) ^ z on the product of the 2- and 3-chains, componentwise."""
    (x1, x2), (y1, y2), (z1, z2) = (divmod(v, 3) for v in (x, y, z))
    return min(max(x1, y1), z1) * 3 + min(max(x2, y2), z2)


SCALAR_THETA = {
    "projection": (lambda: catalog.build_projection_algebra(3, 2, 2),
                   lambda a1, a2, b: a2),
    "semigroup": (lambda: catalog.build_semigroup_algebra(
        catalog.cyclic_monoid(4), 2, 1), lambda a1, a2, b: (a1 + b) % 4),
    "matrix-row": (lambda: catalog.build_matrix_row_algebra(2, 1),
                   lambda a, b: (a & 0b1100) | (b & 0b0011)),
    "bounded-monoid": (lambda: catalog.build_bounded_monoid_algebra(
        catalog.cyclic_monoid(3), 4), lambda *a: sum(a) % 3),
    "lattice": (lambda: catalog.build_lattice_theta(
        catalog.product_lattice(catalog.chain_lattice(2),
                                catalog.chain_lattice(3)), "meet-last"),
                _chain2x3_meet_last),
    "map-composition": (lambda: catalog.build_map_composition_algebra(2, 2),
                        _maps_theta(2, 2)),
    "diagonal-retraction": (
        lambda: catalog.build_diagonal_retraction_algebra(2, 2),
        _retractions_theta(2, 2)),
}


@pytest.mark.parametrize("name", sorted(SCALAR_THETA))
def test_catalog_theta_matches_its_scalar_reference(name):
    from finalg.core import table_from_fn

    build, reference = SCALAR_THETA[name]
    alg = build()
    theta = alg.op("theta")
    assert theta == table_from_fn(theta.arity, alg.size, reference)


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
    """One algebra of every catalog builder, with the 512-element matrix
    algebra, whose theta is a product table."""
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
    return algs


def test_validation_pass_counts_the_checked_values():
    # a PASS reports every table value and constant it range-checked: all
    # m^arity entries of a dense table, and the factors' values of a
    # product table (3 * 8^3 for the 512-element matrix algebra)
    kinds = set()
    for alg in _validated_catalog():
        rep, m = validate_algebra(alg), alg.size
        want = len(alg.signature.constants)
        for sym, arity in alg.signature.ops:
            product = isinstance(alg.op(sym), ProductTable)
            kinds.add(product)
            want += (sum(f.size ** arity for f in alg.factors) if product
                     else m ** arity)
        assert (rep.verdict, rep.tuples_checked) == ("pass", want), alg.name
    assert kinds == {False, True}


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
