"""The group hidden inside a 2-associative semi-abelian algebra, the
Mal'cev term of a protomodular algebra, and the conversion between
2-associative semi-abelian algebras and enriched groups.

The derived product is a*b = theta(a,...,a,b) with unit e.  The inverse
formula composes theta over alpha_i(e, theta(b,...,b)); every computed
inverse is cross-checked against the brute-force group inverse, so a
defect in the formula cannot pass silently.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .core import (
    AlgebraError,
    CheckReport,
    DenseTable,
    FiniteAlgebra,
    Signature,
    standard_algebra,
    table_from_fn,
    unit_constants,
)
from . import dsl
from .identities import (
    ASSOCIATIVITY,
    GROUP_LAWS,
    check_identity,
    enriched_laws,
    identity_malcev_assoc,
    identity_malcev_assoc_expanded,
    identities_malcev,
    monoid_algebra,
    require_laws,
    suite_identities,
)


class PreconditionError(AlgebraError):
    """An operation's verified precondition failed; carries the report."""

    def __init__(self, message, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


class GroupLawError(AlgebraError):
    """A group/enriched-group law failed where theory guarantees it."""


def _require(alg: FiniteAlgebra, *suite_names):
    """(theta, n, e) of alg, after each named suite passes at theta's n
    over alg's unit constants; e is the first unit's value.  A failing
    identity raises PreconditionError with its report, so a semi-abelian
    precondition refuses distinct units at its units-equal-i identity."""
    theta = alg.op("theta")
    n = theta.arity - 1
    if n < 1:
        raise PreconditionError(
            f"{alg.name!r}: theta has arity {theta.arity}, needs >= 2")
    e = alg.constant(unit_constants(alg, n)[0])
    for name in suite_names:
        spec = f"{name}:{n}"
        for ident in suite_identities(alg, spec):
            rep = check_identity(alg, ident)
            if not rep.ok:
                raise PreconditionError(
                    f"{alg.name!r} fails {spec} at {rep.name}", rep
                )
    return theta, n, e


def algebra_hash(alg: FiniteAlgebra) -> str:
    return hashlib.sha256(dsl.serialize(alg).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class DerivedGroup:
    """A group extracted from a 2-associative semi-abelian algebra; all
    group axioms are verified at construction, loudly."""

    size: int
    product: DenseTable
    unit: int
    inverse: tuple
    source_hash: str = ""

    def __post_init__(self):
        require_laws(group_to_algebra(self), GROUP_LAWS, GroupLawError)

    def mul(self, a, b):
        return self.product.lookup((a, b), self.size)


def group_to_algebra(dg: DerivedGroup, name: str = "DerivedGroup") -> FiniteAlgebra:
    return monoid_algebra(name, dg.size, dg.product, dg.unit, dg.inverse)


def diagonal_power(alg: FiniteAlgebra, b: int) -> int:
    """theta(b, b, ..., b) with n+1 copies of b."""
    theta = alg.op("theta")
    return theta.lookup((b,) * theta.arity, alg.size)


def diagonal_closed_form(alg: FiniteAlgebra, b: int, c: int) -> int:
    """theta(alpha_i(c, theta(b,...,b)) over i, b): the solution a of
    theta(a,...,a,b) = c, and with c = e the inverse of b."""
    theta = alg.op("theta")
    m = alg.size
    d = diagonal_power(alg, b)
    args = tuple(
        alg.op(f"alpha{i}").lookup((c, d), m) for i in range(1, theta.arity)
    ) + (b,)
    return theta.lookup(args, m)


def derive_group(alg: FiniteAlgebra) -> DerivedGroup:
    """Extract the group of a 2-associative semi-abelian algebra.

    Preconditions are re-verified here (semi-abelian suite and
    2-associativity); refusal raises PreconditionError with the failing
    report.  Group axioms of the result are verified exhaustively, and
    each closed-form inverse is checked against the unique brute-force
    inverse.
    """
    theta, n, e = _require(alg, "semiabelian", "2assoc")
    m = alg.size
    product = table_from_fn(2, m, lambda a, b: theta.lookup((a,) * n + (b,), m))

    def brute_inverse(b):
        xs = [
            x for x in range(m)
            if product.lookup((x, b), m) == e and product.lookup((b, x), m) == e
        ]
        if len(xs) != 1:
            raise GroupLawError(
                f"element {b} has {len(xs)} two-sided inverses"
            )
        return xs[0]

    inverse = []
    for b in range(m):
        via_formula = diagonal_closed_form(alg, b, e)
        via_table = brute_inverse(b)
        if via_formula != via_table:
            raise GroupLawError(
                f"closed-form inverse {via_formula} of {b} disagrees with "
                f"the group inverse {via_table}"
            )
        inverse.append(via_formula)
    return DerivedGroup(m, product, e, tuple(inverse), algebra_hash(alg))


def solve_diagonal(alg: FiniteAlgebra, b: int, c: int) -> int:
    """The element a with theta(a,...,a,b) = c, by diagonal_closed_form,
    verified against the equation."""
    theta, n, _ = _require(alg, "protomodular", "2assoc")
    m = alg.size
    a = diagonal_closed_form(alg, b, c)
    if theta.lookup((a,) * n + (b,), m) != c:
        raise GroupLawError(
            f"closed-form solution a = {a} does not satisfy "
            f"theta(a,...,a,{b}) = {c}"
        )
    return a


def check_diagonal_cancellation(alg: FiniteAlgebra) -> CheckReport:
    """On a 2-associative semi-abelian algebra: theta(a,...,a,e) = a, and
    theta(x,...,x,b) = c is uniquely solvable in either unknown."""
    theta, n, e = _require(alg, "semiabelian", "2assoc")
    m = alg.size
    checked = 0
    for a in range(m):
        checked += 1
        if theta.lookup((a,) * n + (e,), m) != a:
            return CheckReport(
                "fail", "diagonal-cancellation",
                counterexample={"a": a}, tuples_checked=checked,
                detail="theta(a,...,a,e) != a",
            )
    prod = [[theta.lookup((a,) * n + (b,), m) for b in range(m)] for a in range(m)]
    for b in range(m):
        for c in range(m):
            checked += 1
            sols = [a for a in range(m) if prod[a][b] == c]
            if len(sols) != 1:
                return CheckReport(
                    "fail", "diagonal-cancellation",
                    counterexample={"b": b, "c": c}, tuples_checked=checked,
                    detail=f"{len(sols)} solutions a of theta(a,...,a,b)=c",
                )
    for a in range(m):
        for c in range(m):
            checked += 1
            sols = [b for b in range(m) if prod[a][b] == c]
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
    theta, n, _ = _require(alg, "protomodular")
    m = alg.size
    alphas = [alg.op(f"alpha{i}") for i in range(1, n + 1)]

    def mu(a, b, c):
        args = tuple(al.lookup((a, b), m) for al in alphas) + (c,)
        return theta.lookup(args, m)

    table = table_from_fn(3, m, mu)
    sig = Signature((("mu", 3),))
    mualg = FiniteAlgebra(alg.name + ".mu", sig, m, {"mu": table})
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
# enriched groups

@dataclass(frozen=True)
class EnrichedGroup:
    """A group with an n-ary map gamma and binary alphas satisfying
    gamma(alpha*(a,b)) * b = a, alpha_i(a,a) = e, and the distributivity
    law; validated at construction with a named witness on failure.
    Inverses need no check: gamma(alpha*(e,b)) is a left inverse of b."""

    size: int
    product: DenseTable
    unit: int
    gamma: DenseTable
    alphas: tuple

    @property
    def n(self) -> int:
        return self.gamma.arity

    def __post_init__(self):
        require_laws(enriched_to_algebra(self), enriched_laws(self.n),
                     GroupLawError)

    def mul(self, a, b):
        return self.product.lookup((a, b), self.size)


def to_enriched(alg: FiniteAlgebra) -> EnrichedGroup:
    """Convert a 2-associative semi-abelian algebra over the one-constant
    signature into an enriched group: gamma(a*) = theta(a*, e)."""
    dg = derive_group(alg)
    if not alg.signature.has_constant("e"):
        raise PreconditionError(
            f"{alg.name!r}: enriched conversion needs the one-constant "
            "signature (shared unit 'e')"
        )
    theta = alg.op("theta")
    n, m, e = theta.arity - 1, alg.size, dg.unit
    gamma = table_from_fn(n, m, lambda *a: theta.lookup(a + (e,), m))
    alphas = tuple(alg.op(f"alpha{i}") for i in range(1, n + 1))
    return EnrichedGroup(m, dg.product, e, gamma, alphas)


def from_enriched(eg: EnrichedGroup, name: str = "FromEnriched") -> FiniteAlgebra:
    """Convert an enriched group back to a 2-associative semi-abelian
    algebra: theta(a*, b) = gamma(a*) * b."""
    n = eg.n
    m = eg.size
    theta = table_from_fn(
        n + 1, m,
        lambda *args: eg.mul(eg.gamma.lookup(args[:-1], m), args[-1]),
    )
    alg = standard_algebra(name, m, theta, eg.alphas, (eg.unit,) * n)
    _require(alg, "semiabelian", "2assoc")
    return alg


def enriched_to_algebra(eg: EnrichedGroup, name: str = "Enriched") -> FiniteAlgebra:
    """Serialize-friendly view: an algebra with prod/gamma/alpha symbols."""
    return _enriched_view(name, eg.size, eg.product, eg.unit, eg.gamma,
                          eg.alphas)


def _enriched_view(name, m, product, unit, gamma, alphas) -> FiniteAlgebra:
    n = gamma.arity
    ops = [("prod", 2), ("gamma", n)] + [
        (f"alpha{i}", 2) for i in range(1, n + 1)
    ]
    sig = Signature(tuple(ops), ("e",))
    tables = {"prod": product, "gamma": gamma}
    for i, al in enumerate(alphas, start=1):
        tables[f"alpha{i}"] = al
    return FiniteAlgebra(name, sig, m, tables, {"e": unit})


def algebra_to_enriched(alg: FiniteAlgebra) -> EnrichedGroup:
    """Inverse of enriched_to_algebra; validates the enriched-group laws."""
    gamma = alg.op("gamma")
    n = gamma.arity
    alphas = tuple(alg.op(f"alpha{i}") for i in range(1, n + 1))
    return EnrichedGroup(
        alg.size, alg.op("prod"), alg.constant("e"), gamma, alphas
    )


ENRICHED_BUDGET = 10 ** 7


def count_enriched_groups(m: int, n: int) -> int:
    """Count enriched-group structures on {0..m-1} by direct enumeration
    of (group table, gamma, alpha*) triples, with alpha_i(a,a) = e built
    in; independent of the searcher."""
    k = m * m * (n + 1) + m ** n  # cells: product, n alphas, gamma
    if m ** k > ENRICHED_BUDGET:
        raise AlgebraError(
            f"enriched enumeration space {m}^{k} exceeds budget "
            f"{ENRICHED_BUDGET}"
        )
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
    laws = [law for law in enriched_laws(n)
            if law.name in ("gamma-alpha", "distributivity")]
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
                view = _enriched_view("candidate", m, tbl, u, gamma,
                                      tuple(map(alpha, offs)))
                count += all(check_identity(view, law).ok for law in laws)
    return count
