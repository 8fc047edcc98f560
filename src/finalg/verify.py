"""End-to-end verification suite: each criterion exercises one documented
claim about the catalog constructions and reports PASS or FAIL.

The criteria are ordered and keyed so the CLI can run a subset via
--only.  Every check here is exhaustive, at desk scale or, for a product
algebra, through its factors; random inputs come from fixed seeds.
"""
from __future__ import annotations

import random

from . import catalog, groups
from .search import (
    SearchSpec,
    count_2assoc_semiabelian,
    prove_no_strict_2assoc,
    search as run_search,
)
from .core import (
    DenseTable,
    FiniteAlgebra,
    InputError,
    Signature,
    validate_algebra,
)
from .identities import (
    check_2assoc_functional,
    check_identity,
    check_laws,
    check_strict_equivalence,
    identities_1assoc,
    identity_2assoc,
    identities_malcev,
    suite_identities,
    term_product,
    term_table,
)


def _fail(msg):
    return False, msg


def _ok(msg):
    return True, msg


def _check(alg, spec):
    """The report of the first identity of suite spec that fails on alg,
    or None when the suite passes."""
    return check_laws(alg, suite_identities(alg, spec))


def criterion_boolean_protomodular():
    """Power-set algebras: protomodular suite passes, the semi-abelian
    suite fails on distinct units, and the derived unit law holds."""
    for k in (1, 2):
        alg = catalog.build_boolean_protomodular(k)
        bad = _check(alg, "protomodular:2")
        if bad:
            return _fail(f"k={k}: protomodular suite fails: {bad.line()}")
        if _check(alg, "semiabelian:2") is None:
            return _fail(f"k={k}: semi-abelian suite unexpectedly passes")
        bad = _check(alg, "unit-law:2")
        if bad:
            return _fail(f"k={k}: unit law fails: {bad.line()}")
    return _ok("k=1,2: protomodular pass, semi-abelian fails on e1!=e2, "
               "unit law passes")


def criterion_lattice_2assoc():
    """Both ternary lattice operations are 2-associative on small
    distributive lattices, and neither is 1-associative when nontrivial."""
    lattices = [
        ("2-chain", catalog.chain_lattice(2)),
        ("3-chain", catalog.chain_lattice(3)),
        ("2x2", catalog.product_lattice(
            catalog.chain_lattice(2), catalog.chain_lattice(2))),
    ]
    details = []
    for label, lat in lattices:
        for variant in ("meet-last", "meet-middle"):
            alg = catalog.build_lattice_theta(lat, variant)
            rep = check_identity(alg, identity_2assoc(2))
            if not rep.ok:
                return _fail(f"{label}/{variant}: 2-assoc fails: {rep.line()}")
            bad = check_laws(alg, identities_1assoc(2))
            if bad is None:
                return _fail(f"{label}/{variant}: 1-assoc unexpectedly holds")
            if bad.counterexample is None:
                return _fail(f"{label}/{variant}: failure lacks counterexample")
            details.append(f"{label}/{variant} cx={bad.counterexample}")
    return _ok("2-assoc passes, 1-assoc fails with counterexamples: "
               + "; ".join(details[:2]) + "; ...")


def criterion_functional_agreement():
    """The map-algebra characterization of 2-associativity agrees with the
    direct identity check on seeded random algebras (m <= 3, n <= 2)."""
    count = 200
    rng = random.Random(20240)
    signatures = {n: Signature((("theta", n + 1),)) for n in (1, 2)}
    for t in range(count):
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        entries = [rng.randrange(m) for _ in range(m ** (n + 1))]
        alg = FiniteAlgebra(
            f"rand{t}", signatures[n], m,
            {"theta": DenseTable(n + 1, entries)},
        )
        direct = check_identity(alg, identity_2assoc(n)).ok
        functional = check_2assoc_functional(alg, n).ok
        if direct != functional:
            return _fail(
                f"verdicts disagree on random algebra #{t} (m={m}, n={n})"
            )
    return _ok(f"{count}/{count} random algebras: verdicts agree")


def criterion_alpha_builder():
    """The surjective-section alpha builder turns theta(a1,a2,b) = a1+b on
    Z/3 (units 0,0) into an algebra passing the semi-abelian suite."""
    base = catalog.build_semigroup_algebra(catalog.cyclic_monoid(3), 2, 1)
    built = catalog.build_alphas_from_surjectivity(base, (0, 0))
    bad = _check(built, "semiabelian:2")
    if bad:
        return _fail(f"built algebra fails: {bad.line()}")
    rep = check_identity(built, identity_2assoc(2))
    if not rep.ok:
        return _fail(f"built algebra not 2-associative: {rep.line()}")
    return _ok("alpha builder output passes semi-abelian suite and 2-assoc")


def criterion_strictness_agreement():
    """All four strictness conditions agree: all-true on the n=1 semiloop
    family (m <= 5), all-false on the 2-element Boolean algebra."""
    for m in range(1, 6):
        for twisted in (False, True):
            if twisted and m < 3:
                continue
            alg = catalog.build_strict_semiloop(m, twisted=twisted)
            rep = check_strict_equivalence(alg, 1)
            if not rep.agree or not rep.strict:
                return _fail(
                    f"semiloop m={m} twisted={twisted}: {rep.to_dict()}"
                )
    bool2 = catalog.build_boolean_protomodular(1)
    rep = check_strict_equivalence(bool2, 2)
    if not rep.agree or rep.strict:
        return _fail(f"Bool2: {rep.to_dict()}")
    return _ok("semiloops m<=5 all-true; Bool2 all-false; conditions agree")


def criterion_no_2assoc_malcev():
    """No ternary table on a 2-element carrier satisfies the Mal'cev laws
    together with 2-associativity; certified by exhaustive search."""
    spec = SearchSpec(
        "malcev-2assoc", 2, Signature((("mu", 3),)),
        tuple(identities_malcev()) + (identity_2assoc(2, op="mu"),),
        mode="prove-none",
    )
    result = run_search(spec)
    if result.outcome != "none-exists":
        return _fail(f"unexpected outcome: {result.summary()}")
    return _ok(f"none of the 256 tables qualifies ({result.summary()})")


def criterion_no_strict_2assoc():
    """No strict structure on carriers of size 2 and 3 for n = 2."""
    for m in (2, 3):
        result = prove_no_strict_2assoc(m, 2)
        if result.outcome != "none-exists":
            return _fail(f"m={m}: unexpected outcome {result.summary()}")
    return _ok("m=2 and m=3 at n=2: none-exists certified")


def semiabelian_catalog():
    """The 2-associative semi-abelian algebras used across the group
    criteria."""
    algs = [
        catalog.build_semigroup_algebra(catalog.cyclic_group(k), 1, 1)
        for k in (2, 3, 4, 5)
    ]
    algs += [
        catalog.build_semigroup_algebra(catalog.cyclic_group(2), 2, 1),
        catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 1),
        catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 2),
        catalog.build_group_product_algebra(
            [catalog.cyclic_group(2), catalog.cyclic_group(3)], (1, 2), 2
        ),
    ]
    return algs


def criterion_derive_group():
    """Every catalog 2-associative semi-abelian algebra yields a verified
    group whose closed-form inverses equal the group inverses."""
    algs = semiabelian_catalog()
    for alg in algs:
        try:
            dg = groups.derive_group(alg)
        except Exception as e:
            return _fail(f"{alg.name}: {e}")
        if dg.size != alg.size:
            return _fail(f"{alg.name}: size mismatch")
    return _ok(f"{len(algs)} catalog algebras derive groups; "
               "formula inverse == group inverse everywhere")


def criterion_diagonal_cancellation():
    """theta(a,...,a,e) = a and unique solvability in both unknowns on the
    catalog."""
    for alg in semiabelian_catalog():
        rep = groups.check_diagonal_cancellation(alg)
        if not rep.ok:
            return _fail(f"{alg.name}: {rep.line()}")
    return _ok("diagonal cancellation passes across the catalog")


def criterion_malcev_consistency():
    """The materialized Mal'cev term satisfies the Mal'cev laws, and the
    expanded five-variable associativity identity agrees with the term's
    associativity; both pass in the group case."""
    bool2 = catalog.build_boolean_protomodular(1)
    res = groups.malcev_term(bool2)
    if not res.laws_ok:
        return _fail("Bool2: Mal'cev laws fail")
    rep = groups.check_malcev_assoc_expanded(bool2)  # raises on disagreement
    z4 = catalog.build_semigroup_algebra(catalog.cyclic_group(4), 1, 1)
    res4 = groups.malcev_term(z4)
    if not res4.laws_ok or not res4.assoc_report.ok:
        return _fail("Z/4: Mal'cev laws or associativity fail")
    rep4 = groups.check_malcev_assoc_expanded(z4)
    if not rep4.ok:
        return _fail(f"Z/4: expanded identity fails: {rep4.line()}")
    return _ok(f"Bool2 agreement ({rep.verdict}); Z/4 both pass")


def criterion_enriched_round_trip():
    """Enriched-group conversion round-trips table-exactly on the catalog,
    the enriched laws hold, and the searcher's census count matches the
    independent enriched-group enumeration (m=2, n=1)."""
    for alg in semiabelian_catalog():
        eg = groups.to_enriched(alg)  # validates the enriched laws
        back = groups.from_enriched(eg)
        if back != alg:
            return _fail(f"{alg.name}: round trip differs")
        if groups.to_enriched(back) != eg:
            return _fail(f"{alg.name}: enriched round trip differs")
    census = count_2assoc_semiabelian(2, 1)
    independent = groups.count_enriched_groups(2, 1)
    if census.count != independent:
        return _fail(
            f"census mismatch: search {census.count} != enriched {independent}"
        )
    return _ok(f"round trips exact; census agrees at {census.count}")


def criterion_boolean_not_group():
    """The diagonal product of the Boolean protomodular operation is not a
    group operation; a witness axiom failure is reported."""
    alg = catalog.build_boolean_protomodular(1)
    m = alg.size
    entries = term_table(alg, term_product(2), ("a", "b")).entries
    product = [list(entries[a * m:(a + 1) * m]) for a in range(m)]
    units = [
        u for u in range(m)
        if all(product[u][a] == a and product[a][u] == a for a in range(m))
    ]
    if units:
        return _fail("diagonal product unexpectedly has a two-sided unit")
    return _ok(
        "no two-sided unit exists for the diagonal product "
        f"(left-action row of 0: {product[0]}, of 1: {product[1]})"
    )


def criterion_examples_2assoc():
    """All cataloged 2-associative operations verify: projections,
    semigroup translations, matrix row selection (the 512-element case
    exactly, through its three projection factors), bounded commutative
    monoids (1- and 2-associative), and map composition."""
    cases = [
        catalog.build_projection_algebra(2, 2, 1),
        catalog.build_projection_algebra(2, 2, 3),
        catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 1),
        catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 2),
        catalog.build_matrix_row_algebra(2, 1),
        catalog.build_bounded_monoid_algebra(catalog.cyclic_monoid(2), 3),
        catalog.build_map_composition_algebra(2, 1),
        catalog.build_map_composition_algebra(2, 2),
    ]
    for alg in cases:
        v = validate_algebra(alg)
        if not v.ok:
            return _fail(f"{alg.name}: {v.detail}")
        n = alg.op("theta").arity - 1
        rep = check_identity(alg, identity_2assoc(n))
        if not rep.ok:
            return _fail(f"{alg.name}: 2-assoc fails: {rep.line()}")
    mono = catalog.build_bounded_monoid_algebra(catalog.cyclic_monoid(2), 3)
    bad = check_laws(mono, identities_1assoc(3))
    if bad:
        return _fail(f"{mono.name}: 1-assoc fails: {bad.line()}")
    big = catalog.build_matrix_row_algebra(2, 2)
    rep = check_identity(big, identity_2assoc(2))
    if not rep.ok:
        return _fail(f"512-element matrix algebra: {rep.line()}")
    return _ok(
        f"{len(cases)} constructions pass 2-assoc; bounded monoid also "
        f"1-assoc; 512-element case exact through its "
        f"{len(big.factors)} factors ({rep.tuples_checked} tuples)"
    )


CRITERIA = [
    ("1", "boolean-protomodular", criterion_boolean_protomodular),
    ("2", "lattice-2assoc-not-1assoc", criterion_lattice_2assoc),
    ("3", "functional-2assoc-agreement", criterion_functional_agreement),
    ("4", "alpha-builder-semiabelian", criterion_alpha_builder),
    ("5", "strictness-four-way-agreement", criterion_strictness_agreement),
    ("6", "no-2assoc-malcev-on-2", criterion_no_2assoc_malcev),
    ("7", "no-strict-2assoc-n2", criterion_no_strict_2assoc),
    ("8", "derived-group-axioms", criterion_derive_group),
    ("9", "diagonal-cancellation", criterion_diagonal_cancellation),
    ("10", "malcev-term-consistency", criterion_malcev_consistency),
    ("11", "enriched-round-trip-census", criterion_enriched_round_trip),
    ("12", "boolean-diagonal-not-group", criterion_boolean_not_group),
    ("13", "catalog-2assoc-examples", criterion_examples_2assoc),
]


def run_criteria(only=None, out=print):
    """Run the verification criteria; returns True iff all selected pass.
    An only that names no criterion is an InputError."""
    if only and all(only not in (key, label) for key, label, _ in CRITERIA):
        raise InputError(f"unknown criterion {only!r}; known: " + ", ".join(
            f"{key} ({label})" for key, label, _ in CRITERIA))
    all_ok = True
    for key, label, fn in CRITERIA:
        if only and only not in (key, label):
            continue
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure with its message
            ok, detail = False, f"error: {e}"
        all_ok = all_ok and ok
        out(f"[{key:>2}] {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    return all_ok
