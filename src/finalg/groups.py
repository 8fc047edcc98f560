"""The group hidden inside a 2-associative semi-abelian algebra, the
Mal'cev term of a protomodular algebra, and the conversion between
2-associative semi-abelian algebras and enriched groups.

Groups and enriched groups are FiniteAlgebras, validated by their laws
when they are built.  Every derived operation is a term of the theory
(identities.term_product, term_diagonal_solution, term_gamma and
term_malcev, and prod(gamma(a*), b) on the way back), and term_table
materializes it on the identity kernel, which plans each term once per
carrier size whichever call built it.  The derived product is
a*b = theta(a,...,a,b) with unit e; every inverse read off the diagonal
solution term is cross-checked against the brute-force group inverse, so
a defect in the formula cannot pass silently.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .core import (
    AlgebraError,
    Apply,
    BudgetError,
    CheckReport,
    DenseTable,
    FiniteAlgebra,
    InputError,
    Signature,
    Variable,
    require_materializable,
    standard_algebra,
    unit_constants,
)
from . import dsl
from .identities import (
    ASSOCIATIVITY,
    GROUP_LAWS,
    check_identity,
    check_laws,
    enriched_laws,
    identity_malcev_assoc,
    identity_malcev_assoc_expanded,
    identities_malcev,
    monoid_algebra,
    require_laws,
    suite_identities,
    term_diagonal_solution,
    term_gamma,
    term_malcev,
    term_product,
    term_table,
)


class PreconditionError(AlgebraError):
    """An operation's verified precondition failed; carries the report."""

    def __init__(self, message, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


class GroupLawError(AlgebraError):
    """A group/enriched-group law failed where theory guarantees it."""


def _require(alg: FiniteAlgebra, *suite_names):
    """(n, unit) of alg, after each named suite passes at theta's n over
    alg's unit constants; unit names the first of them.  A failing
    identity raises PreconditionError with its report, so a semi-abelian
    precondition refuses distinct units at its units-equal-i identity."""
    n = alg.op("theta").arity - 1
    if n < 1:
        raise PreconditionError(
            f"{alg.name!r}: theta has arity {n + 1}, needs >= 2")
    unit = unit_constants(alg, n)[0]
    for name in suite_names:
        spec = f"{name}:{n}"
        rep = check_laws(alg, suite_identities(alg, spec))
        if rep is not None:
            raise PreconditionError(
                f"{alg.name!r} fails {spec} at {rep.name}", rep
            )
    return n, unit


def algebra_hash(alg: FiniteAlgebra) -> str:
    return hashlib.sha256(dsl.serialize(alg).encode()).hexdigest()[:16]


def derive_group(alg: FiniteAlgebra) -> FiniteAlgebra:
    """The group of a 2-associative semi-abelian algebra, as the algebra
    DerivedGroup over prod/2, inv/1 and the constant e.

    Preconditions are re-verified here (semi-abelian suite and
    2-associativity); refusal raises PreconditionError with the failing
    report.  Each inverse, the column c = e of the diagonal solution
    term, is checked against the unique brute-force inverse, and the
    group laws of the result are verified exhaustively (GroupLawError).
    """
    n, unit = _require(alg, "semiabelian", "2assoc")
    m, e = alg.size, alg.constant(unit)
    product = term_table(alg, term_product(n), ("a", "b"))
    inverse = term_table(alg, term_diagonal_solution(n),
                         ("b", "c")).entries[e::m]
    prod = product.entries
    for b, via_formula in enumerate(inverse):
        xs = [x for x in range(m)
              if prod[x * m + b] == e and prod[b * m + x] == e]
        if len(xs) != 1:
            raise GroupLawError(
                f"element {b} has {len(xs)} two-sided inverses"
            )
        if via_formula != xs[0]:
            raise GroupLawError(
                f"closed-form inverse {via_formula} of {b} disagrees with "
                f"the group inverse {xs[0]}"
            )
    group = monoid_algebra("DerivedGroup", m, product, e, inverse)
    require_laws(group, GROUP_LAWS, GroupLawError)
    return group


def check_diagonal_cancellation(alg: FiniteAlgebra) -> CheckReport:
    """On a 2-associative semi-abelian algebra: theta(a,...,a,e) = a, and
    theta(x,...,x,b) = c is uniquely solvable in either unknown."""
    n, unit = _require(alg, "semiabelian", "2assoc")
    m, e = alg.size, alg.constant(unit)
    prod = term_table(alg, term_product(n), ("a", "b")).entries
    checked = 0
    for a in range(m):
        checked += 1
        if prod[a * m + e] != a:
            return CheckReport(
                "fail", "diagonal-cancellation",
                counterexample={"a": a}, tuples_checked=checked,
                detail="theta(a,...,a,e) != a",
            )
    for b in range(m):
        for c in range(m):
            checked += 1
            sols = [a for a in range(m) if prod[a * m + b] == c]
            if len(sols) != 1:
                return CheckReport(
                    "fail", "diagonal-cancellation",
                    counterexample={"b": b, "c": c}, tuples_checked=checked,
                    detail=f"{len(sols)} solutions a of theta(a,...,a,b)=c",
                )
    for a in range(m):
        for c in range(m):
            checked += 1
            sols = [b for b in range(m) if prod[a * m + b] == c]
            if len(sols) != 1:
                return CheckReport(
                    "fail", "diagonal-cancellation",
                    counterexample={"a": a, "c": c}, tuples_checked=checked,
                    detail=f"{len(sols)} solutions b of theta(a,...,a,b)=c",
                )
    return CheckReport("pass", "diagonal-cancellation", tuples_checked=checked)


# ---------------------------------------------------------------------------
# Mal'cev term

@dataclass
class MalcevResult:
    table: DenseTable
    law_reports: list
    assoc_report: CheckReport

    @property
    def laws_ok(self):
        return all(r.ok for r in self.law_reports)


def malcev_term(alg: FiniteAlgebra) -> MalcevResult:
    """Materialize mu(a,b,c) = theta(alpha*(a,b), c) on a protomodular
    algebra and check the Mal'cev laws plus associativity of mu."""
    n, _ = _require(alg, "protomodular")
    a, b, c = (Variable(v) for v in "abc")
    table = term_table(alg, term_malcev(n, a, b, c), ("a", "b", "c"))
    sig = Signature((("mu", 3),))
    mualg = FiniteAlgebra(alg.name + ".mu", sig, alg.size, {"mu": table})
    law_reports = [check_identity(mualg, i) for i in identities_malcev()]
    assoc_report = check_identity(mualg, identity_malcev_assoc())
    return MalcevResult(table, law_reports, assoc_report)


def check_malcev_assoc_expanded(alg: FiniteAlgebra) -> CheckReport:
    """Check the five-variable associativity identity written directly in
    theta/alpha; its verdict always matches the associativity verdict of
    the materialized Mal'cev term (same equation after substitution)."""
    mu_assoc = malcev_term(alg).assoc_report  # checks the protomodular suite
    n = alg.op("theta").arity - 1
    report = check_identity(alg, identity_malcev_assoc_expanded(n))
    if report.ok != mu_assoc.ok:
        raise GroupLawError(
            "expanded associativity verdict disagrees with the Mal'cev "
            "term's associativity"
        )
    report.detail = f"agrees with mu associativity ({mu_assoc.verdict})"
    return report


# ---------------------------------------------------------------------------
# enriched groups: a group with an n-ary map gamma and binary alphas
# satisfying enriched_laws(n): gamma(alpha*(a,b)) * b = a, alpha_i(a,a) = e
# and distributivity.  Inverses need no check: gamma(alpha*(e,b)) is a left
# inverse of b.

def enriched_algebra(name, m, product, unit, gamma, alphas) -> FiniteAlgebra:
    """The algebra over prod/2, gamma/n, alpha1..alphan/2 and the constant
    e that enriched_laws(n) are stated over."""
    n = gamma.arity
    ops = [("prod", 2), ("gamma", n)] + [
        (f"alpha{i}", 2) for i in range(1, n + 1)
    ]
    sig = Signature(tuple(ops), ("e",))
    tables = {"prod": product, "gamma": gamma}
    for i, al in enumerate(alphas, start=1):
        tables[f"alpha{i}"] = al
    return FiniteAlgebra(name, sig, m, tables, {"e": unit})


def to_enriched(alg: FiniteAlgebra) -> FiniteAlgebra:
    """Convert a 2-associative semi-abelian algebra over the one-constant
    signature into the enriched group Enriched, gamma(a*) = theta(a*, e),
    verified against enriched_laws(n) (GroupLawError)."""
    group = derive_group(alg)
    if not alg.signature.has_constant("e"):
        raise PreconditionError(
            f"{alg.name!r}: enriched conversion needs the one-constant "
            "signature (shared unit 'e')"
        )
    n = alg.op("theta").arity - 1
    avs = tuple(f"a{i}" for i in range(1, n + 1))
    gamma = term_table(alg, term_gamma(n, unit_constants(alg, n)[0]), avs)
    alphas = [alg.op(f"alpha{i}") for i in range(1, n + 1)]
    eg = enriched_algebra("Enriched", alg.size, group.op("prod"),
                          group.constant("e"), gamma, alphas)
    require_laws(eg, enriched_laws(n), GroupLawError)
    return eg


def from_enriched(eg: FiniteAlgebra) -> FiniteAlgebra:
    """Convert an enriched group, checked against enriched_laws(n) first
    (GroupLawError names eg), back to the 2-associative semi-abelian
    algebra FromEnriched: theta(a*, b) = prod(gamma(a*), b)."""
    n = eg.op("gamma").arity
    require_laws(eg, enriched_laws(n), GroupLawError)
    avs = tuple(f"a{i}" for i in range(1, n + 1))
    term = Apply("prod", Apply("gamma", *map(Variable, avs)), Variable("b"))
    theta = term_table(eg, term, avs + ("b",))
    alphas = [eg.op(f"alpha{i}") for i in range(1, n + 1)]
    alg = standard_algebra("FromEnriched", eg.size, theta, alphas,
                           (eg.constant("e"),) * n)
    _require(alg, "semiabelian", "2assoc")
    return alg


def count_enriched_groups(m: int, n: int) -> int:
    """Count enriched-group structures on {0..m-1} by direct enumeration
    of (group table, gamma, alpha*) triples, with alpha_i(a,a) = e built
    in; independent of the searcher.  It enumerates only m = 1, (2, 1)
    and (2, 2), the sizes it is an oracle at: m < 1 is an InputError and
    any other size a BudgetError, refused before anything is built."""
    if m < 1:
        raise InputError(f"carrier must be >= 1, got {m}")
    if m != 1 and (m, n) not in ((2, 1), (2, 2)):
        raise BudgetError(f"enriched enumeration at ({m}, {n}) is refused: "
                          "only m = 1, (2, 1) and (2, 2) are enumerated")
    require_materializable(m, n)  # gamma's table, of n arguments
    groups = []
    for entries in itertools.product(range(m), repeat=m * m):
        tbl = DenseTable(2, entries)
        units = [
            u for u in range(m)
            if all(
                tbl.lookup((u, a), m) == a and tbl.lookup((a, u), m) == a
                for a in range(m)
            )
        ]
        if len(units) != 1:
            continue
        u = units[0]
        view = monoid_algebra("candidate", m, tbl, u)
        if not check_identity(view, ASSOCIATIVITY).ok:
            continue
        if not all(
            any(tbl.lookup((a, x), m) == u for x in range(m)) for a in range(m)
        ):
            continue
        groups.append((tbl, u))
    laws = tuple(law for law in enriched_laws(n)
                 if law.name in ("gamma-alpha", "distributivity"))
    count = 0
    for tbl, u in groups:
        def alpha(off):
            it = iter(off)
            return DenseTable(2, tuple(
                u if a == b else next(it) for a in range(m) for b in range(m)
            ))

        for gvals in itertools.product(range(m), repeat=m ** n):
            gamma = DenseTable(n, gvals)
            for offs in itertools.product(
                itertools.product(range(m), repeat=m * m - m), repeat=n
            ):
                view = enriched_algebra("candidate", m, tbl, u, gamma,
                                        tuple(map(alpha, offs)))
                count += check_laws(view, laws) is None
    return count
