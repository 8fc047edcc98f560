"""Checking universally quantified identities over finite algebras, plus
prebuilt identity suites for the protomodular / semi-abelian axioms,
higher-arity associativity, and strictness.

Exhaustive checks enumerate assignment tuples in lexicographic order over
the declared variable list, so a reported counterexample is always the
lexicographically first one.  Sampled mode draws tuples from a Mersenne
Twister (random.Random) seeded with a caller-supplied 64-bit seed, which
is recorded in the report for reproducibility.  The tuples are exactly
those of a loop of rng.randrange(m) calls; they are drawn in batches from
that unchanged MT19937 stream and checked through numpy.  Every failure a
vectorized path reports is re-confirmed with eval_term first.

Both modes run one numpy kernel, _eval_np, which evaluates a term on
arrays of assignments (CheckReport.engine is "np" or "sampled").  The
exhaustive check loops over a lexicographic prefix of the variables and
evaluates each prefix's block of suffix tuples at once; a block holds at
most _BLOCK tuples (at least one whole variable), so its temporaries stay
cache-sized and a failure near the start of the tuple order ends the check
early.  An identity with no variables is one block of one tuple.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from . import dsl
from .core import (
    AlgebraError,
    Apply,
    BudgetError,
    CheckReport,
    Constant,
    DenseTable,
    EvalError,
    FiniteAlgebra,
    Identity,
    InputError,
    Signature,
    SymbolError,
    Variable,
    check_identity_terms,
    default_units,
    eval_term,
    unit_constants,
    validate_algebra,
)

EXHAUSTIVE_BUDGET = 10 ** 8
_BLOCK = 1 << 14
_GRIDS = 16  # suffix grids kept, one per (m, variables in a block)
_BATCH = 1 << 16


@dataclass(frozen=True)
class IdentitySuite:
    """A named bundle of identities sharing the arity parameter n."""

    name: str
    n: int
    identities: tuple


def check_identity(
    alg: FiniteAlgebra,
    ident: Identity,
    mode: str = "exhaustive",
    samples: int = 10000,
    seed: int = 0,
    budget: int = EXHAUSTIVE_BUDGET,
) -> CheckReport:
    """Check one identity over all (or sampled) assignments.

    Exhaustive mode refuses when m^k exceeds the budget (BudgetError);
    callers then switch to mode="sampled".  An identity that does not fit
    alg's signature, an unknown mode or samples < 1 is an InputError.
    """
    check_identity_terms(alg.signature, ident, alg.name)
    variables = ident.variables
    m = alg.size
    k = len(variables)
    if mode == "sampled":
        if samples < 1:
            raise InputError(f"sampled mode needs samples >= 1, got {samples}")
        engine, report = "sampled", _check_sampled(alg, ident, samples, seed)
    elif mode != "exhaustive":
        raise InputError(f"unknown mode {mode!r}")
    else:
        total = m ** k
        if total > budget:
            raise BudgetError(
                f"identity {ident.name!r}: {m}^{k} assignments exceed "
                f"budget {budget}; use sampled mode"
            )
        engine, report = "np", _check_exhaustive_np(alg, ident, total)
    report.engine = engine
    return report


def _eval_np(alg, t, env):
    """Evaluate t elementwise; env maps each variable to an int or an int64
    array, the arrays all of one length.  Constants and subterms that read
    no array stay ints and broadcast against the arrays."""
    import numpy as np

    if isinstance(t, Variable):
        return env[t.name]
    if isinstance(t, Constant):
        return alg.constant(t.name)
    tbl = alg.op(t.op)
    if not isinstance(tbl, DenseTable):
        args = [_eval_np(alg, a, env) for a in t.args]
        if any(isinstance(a, np.ndarray) for a in args):
            args = np.broadcast_arrays(*args)
        return tbl.fn(*args)
    # fold each argument into the flat index as soon as it is evaluated,
    # so at most two argument-sized arrays are alive
    flat = None
    for a in t.args:
        v = _eval_np(alg, a, env)
        flat = v if flat is None else flat * alg.size + v
    out = tbl.array()[flat]
    return out if isinstance(out, np.ndarray) else int(out)


def _first_bad(alg, ident, env):
    """Index of the first assignment in env that violates ident, or None;
    a side that reads no array is one value for every assignment."""
    import numpy as np

    bad = np.asarray(_eval_np(alg, ident.lhs, env)
                     != _eval_np(alg, ident.rhs, env))
    j = int(bad.argmax())
    return j if bad.flat[j] else None


def _confirmed_fail(alg, ident, tup, checked, seed=None):
    """The FAIL report for tup, after eval_term confirms that tup violates
    ident; a vectorized verdict eval_term contradicts raises EvalError."""
    env = dict(zip(ident.variables, tup))
    if eval_term(alg, ident.lhs, env) == eval_term(alg, ident.rhs, env):
        raise EvalError(
            f"identity {ident.name!r}: the vectorized kernel reports a "
            f"failure at {env} that eval_term does not confirm"
        )
    return CheckReport("fail", ident.name, counterexample=env,
                       tuples_checked=checked, seed=seed)


@functools.lru_cache(maxsize=_GRIDS)
def _grid(m, inner):
    """The m^inner tuples over range(m) in lex order, as a read-only
    (inner, m^inner) int64 array."""
    import numpy as np

    grid = np.indices((m,) * inner).reshape(inner, m ** inner)
    grid.setflags(write=False)
    return grid


def term_table(alg: FiniteAlgebra, term, variables) -> DenseTable:
    """The table of term over variables, row-major in their order, from
    the identity kernel; a term that reads some or none of the variables
    is broadcast to all m^k rows, so a constant term works too."""
    import numpy as np

    m, k = alg.size, len(variables)
    values = _eval_np(alg, term, dict(zip(variables, _grid(m, k))))
    return DenseTable(k, np.broadcast_to(values, (m ** k,)).tolist())


def _check_exhaustive_np(alg, ident, total):
    import numpy as np

    m = alg.size
    variables = ident.variables
    k = len(variables)
    # vectorize the longest suffix of the variables whose block fits in
    # _BLOCK tuples (at least one variable), loop the prefix
    inner = k
    while inner > 1 and m ** inner > _BLOCK:
        inner -= 1
    outer = k - inner
    grid = _grid(m, inner)
    checked = 0
    for prefix in itertools.product(range(m), repeat=outer):
        env = dict(zip(variables[:outer], prefix))
        env.update(zip(variables[outer:], grid))
        j = _first_bad(alg, ident, env)
        if j is not None:
            suffix = np.unravel_index(j, (m,) * inner)
            tup = prefix + tuple(int(x) for x in suffix)
            return _confirmed_fail(alg, ident, tup, checked + j + 1)
        checked += grid.shape[1]
    return CheckReport("pass", ident.name, tuples_checked=total)


def _sampled_tuples(rng: random.Random, m: int, k: int, samples: int):
    """The samples tuples of k draws rng.randrange(m) each, in order, as
    (k, b) int64 arrays of at most _BATCH tuples.

    randrange(m) keeps the top m.bit_length() bits of one 32-bit MT19937
    word and draws again while the result is >= m
    (Random._randbelow_with_getrandbits).  This takes the words of a
    batch from one rng.getrandbits(32*W) call, whose words come least
    significant first, and applies the same shift and rejection, so the
    tuples are exactly those of the scalar loop.
    """
    import numpy as np

    bits = m.bit_length()
    if bits > 32:
        raise InputError(f"sampled mode needs a carrier below 2^32, got {m}")
    pool = np.empty(0, dtype=np.int64)  # accepted draws not yet used
    while samples > 0:
        b = min(samples, _BATCH)
        need = b * k
        while pool.size < need:
            # a word is accepted with probability m / 2^bits >= 1/2
            words = ((need - pool.size) << bits) // m + 64
            raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            draws = np.frombuffer(raw, dtype="<u4") >> (32 - bits)
            pool = np.concatenate([pool, draws[draws < m]])
        yield pool[:need].reshape(b, k).T
        pool = pool[need:]
        samples -= b


def _check_sampled(alg, ident, samples, seed):
    variables = ident.variables
    rng = random.Random(seed)  # MT19937
    checked = 0
    for cols in _sampled_tuples(rng, alg.size, len(variables), samples):
        j = _first_bad(alg, ident, dict(zip(variables, cols)))
        if j is not None:
            tup = tuple(int(x) for x in cols[:, j])
            return _confirmed_fail(alg, ident, tup, checked + j + 1, seed)
        checked += cols.shape[1]
    return CheckReport("sampled-pass", ident.name,
                       tuples_checked=samples, seed=seed)


def check_suite(alg, suite: IdentitySuite, **kw):
    """Check every identity of a suite; returns the list of reports."""
    return [check_identity(alg, ident, **kw) for ident in suite.identities]


def suite_ok(reports) -> bool:
    return all(r.ok for r in reports)


def first_failure(reports):
    for r in reports:
        if not r.ok:
            return r
    return None


# ---------------------------------------------------------------------------
# identity builders over the standard signature

def _theta(*args):
    return Apply("theta", *args)


def _avars(n, stem):
    return [Variable(f"{stem}{i}") for i in range(1, n + 1)]


def suite_protomodular(n: int, units=None) -> IdentitySuite:
    """alpha_i(a,a) = e_i for each i, and theta(alpha*(a,b), b) = a."""
    units = default_units(n) if units is None else tuple(units)
    a, b = Variable("a"), Variable("b")
    ids = [
        Identity(
            f"alpha{i}-unit", ("a",),
            Apply(f"alpha{i}", a, a), Constant(units[i - 1]),
        )
        for i in range(1, n + 1)
    ]
    ids.append(Identity(
        "retraction", ("a", "b"),
        _theta(*[Apply(f"alpha{i}", a, b) for i in range(1, n + 1)], b),
        a,
    ))
    return IdentitySuite(f"protomodular:{n}", n, tuple(ids))


def suite_semiabelian(n: int, units=None) -> IdentitySuite:
    """The protomodular suite plus unit coincidence e_1 = ... = e_n,
    expressed as zero-variable identities."""
    units = default_units(n) if units is None else tuple(units)
    ids = list(suite_protomodular(n, units).identities)
    for i in range(1, n):
        if units[i - 1] != units[i]:
            ids.append(Identity(
                f"units-equal-{i}", (),
                Constant(units[i - 1]), Constant(units[i]),
            ))
    return IdentitySuite(f"semiabelian:{n}", n, tuple(ids))


def identity_2assoc(n: int, op: str = "theta") -> Identity:
    """theta(a*, theta(b*, c)) = theta(theta(a*,b1), ..., theta(a*,bn), c)."""
    avs = _avars(n, "a")
    bvs = _avars(n, "b")
    c = Variable("c")
    lhs = Apply(op, *avs, Apply(op, *bvs, c))
    rhs = Apply(op, *[Apply(op, *avs, b) for b in bvs], c)
    variables = tuple(v.name for v in avs + bvs) + ("c",)
    return Identity(f"2assoc:{n}", variables, lhs, rhs)


def _grouped(leaves, j, n):
    # inner application groups leaves j-1 .. j+n-1 (n+1 consecutive leaves)
    inner = _theta(*leaves[j - 1:j + n])
    return _theta(*leaves[:j - 1], inner, *leaves[j + n:])


def identities_1assoc(n: int) -> list:
    """Parenthesis-moving associativity: the canonical nesting (inner
    application in the last slot) equals the nesting with the inner
    application moved to each of the other n slots.

    For n=1 this is exactly ordinary associativity, term-for-term the same
    equation as identity_2assoc(1).
    """
    leaves = _avars(n, "a") + _avars(n, "b") + [Variable("c")]
    variables = tuple(t.name for t in leaves)
    base = _grouped(leaves, n + 1, n)
    return [
        Identity(f"1assoc:{n}:pos{j}", variables, base, _grouped(leaves, j, n))
        for j in range(1, n + 1)
    ]


def suite_1assoc(n: int) -> IdentitySuite:
    return IdentitySuite(f"1assoc:{n}", n, tuple(identities_1assoc(n)))


def suite_2assoc(n: int) -> IdentitySuite:
    return IdentitySuite(f"2assoc:{n}", n, (identity_2assoc(n),))


def identities_strict(n: int) -> list:
    """alpha_i(theta(a1..an, b), b) = a_i for each i."""
    avs = _avars(n, "a")
    b = Variable("b")
    variables = tuple(v.name for v in avs) + ("b",)
    return [
        Identity(
            f"strict:{n}:alpha{i}", variables,
            Apply(f"alpha{i}", _theta(*avs, b), b), avs[i - 1],
        )
        for i in range(1, n + 1)
    ]


def suite_strict(n: int) -> IdentitySuite:
    return IdentitySuite(f"strict:{n}", n, tuple(identities_strict(n)))


def identity_unit_law(n: int, units=None) -> Identity:
    """theta(e1, ..., en, a) = a (a consequence of the protomodular axioms)."""
    units = default_units(n) if units is None else tuple(units)
    a = Variable("a")
    return Identity(
        f"unit-law:{n}", ("a",),
        _theta(*[Constant(u) for u in units], a), a,
    )


def identity_unit_expansion(n: int, units=None) -> Identity:
    """theta(a*, b) = theta(theta(a*,e1), ..., theta(a*,en), b);
    holds in every 2-associative algebra with the protomodular units."""
    units = default_units(n) if units is None else tuple(units)
    avs = _avars(n, "a")
    b = Variable("b")
    lhs = _theta(*avs, b)
    rhs = _theta(*[_theta(*avs, Constant(u)) for u in units], b)
    return Identity(
        f"unit-expansion:{n}", tuple(v.name for v in avs) + ("b",), lhs, rhs,
    )


def identities_malcev() -> list:
    """mu(a,b,b) = a and mu(a,a,b) = b."""
    a, b = Variable("a"), Variable("b")
    return [
        Identity("malcev-right", ("a", "b"), Apply("mu", a, b, b), a),
        Identity("malcev-left", ("a", "b"), Apply("mu", a, a, b), b),
    ]


def suite_malcev() -> IdentitySuite:
    return IdentitySuite("malcev", 1, tuple(identities_malcev()))


def identity_malcev_assoc() -> Identity:
    """mu(a,b,mu(c,d,x)) = mu(mu(a,b,c),d,x)."""
    a, b, c, d, x = (Variable(v) for v in "abcdx")
    return Identity(
        "malcev-assoc", ("a", "b", "c", "d", "x"),
        Apply("mu", a, b, Apply("mu", c, d, x)),
        Apply("mu", Apply("mu", a, b, c), d, x),
    )


def identity_malcev_assoc_expanded(n: int) -> Identity:
    """The malcev-assoc equation with mu expanded by term_malcev."""
    a1, a2, b1, b2, c = (Variable(v) for v in ("a1", "a2", "b1", "b2", "c"))
    return Identity(
        f"malcev-assoc-expanded:{n}", ("a1", "a2", "b1", "b2", "c"),
        term_malcev(n, a1, a2, term_malcev(n, b1, b2, c)),
        term_malcev(n, term_malcev(n, a1, a2, b1), b2, c),
    )


# ---------------------------------------------------------------------------
# derived operations as terms over the standard signature; term_table
# materializes them

def term_malcev(n: int, a, b, c):
    """mu(a, b, c) = theta(alpha1(a, b), ..., alphan(a, b), c), on the
    terms a, b and c."""
    return _theta(*[Apply(f"alpha{i}", a, b) for i in range(1, n + 1)], c)


def term_product(n: int):
    """a * b = theta(a, ..., a, b), the group operation of a 2-associative
    semi-abelian algebra; variables a, b."""
    a = Variable("a")
    return _theta(*[a] * n, Variable("b"))


def term_diagonal_solution(n: int):
    """mu(c, theta(b, ..., b), b): the a with a * b = c, so the inverse of
    b at c = e; variables b, c."""
    b = Variable("b")
    return term_malcev(n, Variable("c"), _theta(*[b] * (n + 1)), b)


def term_gamma(n: int, unit: str):
    """gamma(a*) = theta(a1, ..., an, unit), the map of the enriched group;
    variables a1..an."""
    return _theta(*_avars(n, "a"), Constant(unit))


# ---------------------------------------------------------------------------
# structural laws of monoids, groups, lattices and enriched groups

def _laws(text):
    return tuple(dsl.parse_file(text)[1])


MONOID_LAWS = _laws("""
identity unit-left(a): prod(e, a) = a
identity unit-right(a): prod(a, e) = a
identity associativity(a, b, c): prod(prod(a, b), c) = prod(a, prod(b, c))
""")
ASSOCIATIVITY = MONOID_LAWS[2]
GROUP_LAWS = MONOID_LAWS + _laws("""
identity inverse-left(a): prod(inv(a), a) = e
identity inverse-right(a): prod(a, inv(a)) = e
""")
LATTICE_LAWS = _laws("""
identity join-commutativity(a, b): join(a, b) = join(b, a)
identity meet-commutativity(a, b): meet(a, b) = meet(b, a)
identity join-absorption(a, b): join(a, meet(a, b)) = a
identity meet-absorption(a, b): meet(a, join(a, b)) = a
identity join-associativity(a, b, c): join(join(a, b), c) = join(a, join(b, c))
identity meet-associativity(a, b, c): meet(meet(a, b), c) = meet(a, meet(b, c))
""")
NEUTRAL_LAWS = dict(zip(("bottom", "top"), _laws("""
identity bottom-neutral(a): join(bottom, a) = a
identity top-neutral(a): meet(top, a) = a
""")))
COMMUTATIVITY, DISTRIBUTIVITY = _laws("""
identity commutativity(a, b): prod(a, b) = prod(b, a)
identity distributivity(a, b, c): meet(a, join(b, c)) = join(meet(a, b), meet(a, c))
""")


@functools.cache
def enriched_laws(n: int) -> tuple:
    """The enriched-group laws over prod/gamma/alpha1..alphan/e:
    alpha_i(a,a) = e, gamma(alpha*(a,b))*b = a, the monoid laws and
    gamma(a*)*gamma(b*) = gamma(gamma(a*)*b1, ..., gamma(a*)*bn).  The
    cheap laws most candidate tables fail come first."""
    idx = range(1, n + 1)
    a, b = (", ".join(f"{v}{i}" for i in idx) for v in "ab")
    alphas = ", ".join(f"alpha{i}(a, b)" for i in idx)
    shifted = ", ".join(f"prod(gamma({a}), b{i})" for i in idx)
    first = _laws("".join(
        f"identity alpha{i}-unit(a): alpha{i}(a, a) = e\n" for i in idx
    ) + f"identity gamma-alpha(a, b): prod(gamma({alphas}), b) = a")
    return first + MONOID_LAWS + _laws(
        f"identity distributivity({a}, {b}): "
        f"prod(gamma({a}), gamma({b})) = gamma({shifted})")


def monoid_algebra(name, size, product, unit, inverse=None) -> FiniteAlgebra:
    """The algebra the monoid laws are stated over (prod/2 and the
    constant e), with inv/1 when an inverse tuple is given."""
    ops, tables = [("prod", 2)], {"prod": product}
    if inverse is not None:
        ops.append(("inv", 1))
        tables["inv"] = DenseTable(1, inverse)
    return FiniteAlgebra(
        name, Signature(tuple(ops), ("e",)), size, tables, {"e": unit}
    )


def require_laws(alg: FiniteAlgebra, laws, error=AlgebraError) -> None:
    """Raise error unless alg passes validate_algebra and then each law in
    order; the message names the first failing law and its lex-first
    counterexample.  Structures are validated at any size (no budget)."""
    valid = validate_algebra(alg)
    if not valid.ok:
        raise error(f"{alg.name}: {valid.detail}")
    for law in laws:
        rep = check_identity(alg, law, budget=math.inf)
        if not rep.ok:
            cx = ", ".join(f"{k}={v}" for k, v in rep.counterexample.items())
            raise error(f"{alg.name}: {law.name} fails at {cx}")


# ---------------------------------------------------------------------------
# functional characterization of 2-associativity

def theta_section(alg: FiniteAlgebra, b: int):
    """The n-ary section theta(-,...,-,b) as a flat tuple over A^n."""
    tbl = alg.op("theta")
    n = tbl.arity - 1
    m = alg.size
    return tuple(
        tbl.lookup(xs + (b,), m)
        for xs in itertools.product(range(m), repeat=n)
    )


def check_2assoc_functional(alg: FiniteAlgebra, n: int) -> CheckReport:
    """Decide 2-associativity through the map algebra on A^n -> A.

    Materializes every section theta_b, composes sections inside
    Map(A^n, A), and compares with the section of theta(b1,...,bn,c)
    pointwise.  Always agrees with the direct identity check.
    """
    m = alg.size
    tbl = alg.op("theta")
    if tbl.arity != n + 1:
        raise SymbolError(f"theta has arity {tbl.arity}, expected {n + 1}")
    if m ** n * m ** (n + 1) > EXHAUSTIVE_BUDGET:
        raise BudgetError(
            f"functional 2-assoc check needs {m}^{n} x {m}^{n + 1} "
            "section points, over budget"
        )
    sections = [theta_section(alg, b) for b in range(m)]
    points = list(itertools.product(range(m), repeat=n))
    flat = {xs: i for i, xs in enumerate(points)}
    checked = 0
    for bs in itertools.product(range(m), repeat=n):
        for c in range(m):
            target = sections[tbl.lookup(bs + (c,), m)]
            g = sections[c]
            fs = [sections[b] for b in bs]
            for i, xs in enumerate(points):
                checked += 1
                composed = g[flat[tuple(f[i] for f in fs)]]
                if composed != target[i]:
                    cx = {f"b{j + 1}": b for j, b in enumerate(bs)}
                    cx["c"] = c
                    cx.update({f"x{j + 1}": x for j, x in enumerate(xs)})
                    return CheckReport(
                        "fail", f"2assoc-functional:{n}",
                        counterexample=cx, tuples_checked=checked,
                        detail="section composition disagrees with "
                               "the section of the composite",
                    )
    return CheckReport("pass", f"2assoc-functional:{n}", tuples_checked=checked)


# ---------------------------------------------------------------------------
# strictness: four equivalent conditions, decided independently

@dataclass
class StrictnessReport:
    """The four strictness conditions, each decided by direct table scan
    or identity check, plus whether they agree."""

    sections_bijective: bool
    unique_preimage: bool
    alpha_system_solvable: bool
    identity_holds: bool
    identity_report: CheckReport | None = None

    @property
    def agree(self) -> bool:
        vals = {
            self.sections_bijective,
            self.unique_preimage,
            self.alpha_system_solvable,
            self.identity_holds,
        }
        return len(vals) == 1

    @property
    def strict(self) -> bool:
        return self.sections_bijective

    def to_dict(self):
        return {
            "sections_bijective": self.sections_bijective,
            "unique_preimage": self.unique_preimage,
            "alpha_system_solvable": self.alpha_system_solvable,
            "identity_holds": self.identity_holds,
            "agree": self.agree,
        }


def check_strict_equivalence(alg: FiniteAlgebra, n: int) -> StrictnessReport:
    """Decide strictness four independent ways:

    (i)   every section theta_b is a bijection A^n -> A;
    (ii)  theta(x*, b) = a has exactly one solution for each (a, b);
    (iii) the system alpha_i(x, b) = a_i has a solution for each (b, a*);
    (iv)  the identity alpha_i(theta(a*, b), b) = a_i holds for all i.
    """
    m = alg.size
    sections = [theta_section(alg, b) for b in range(m)]

    # (i) bijectivity: needs |A^n| == |A| and each section a permutation
    bij = all(
        len(sec) == m and len(set(sec)) == m for sec in sections
    )

    # (ii) unique preimage per (a, b)
    unique = True
    for sec in sections:
        counts = [0] * m
        for v in sec:
            counts[v] += 1
        if any(c != 1 for c in counts):
            unique = False
            break

    # (iii) solvability of the alpha system
    solvable = True
    alphas = [alg.op(f"alpha{i}") for i in range(1, n + 1)]
    for b in range(m):
        images = {
            tuple(a.lookup((x, b), m) for a in alphas) for x in range(m)
        }
        if len(images) != m ** n:
            solvable = False
            break

    reports = [check_identity(alg, ident) for ident in identities_strict(n)]
    identity_holds = all(r.ok for r in reports)
    bad = first_failure(reports)
    return StrictnessReport(bij, unique, solvable, identity_holds,
                            identity_report=bad or reports[0])


# ---------------------------------------------------------------------------
# suite lookup by "name:n" strings (CLI address space)

_SUITES = {
    "protomodular": suite_protomodular,
    "semiabelian": suite_semiabelian,
    "2assoc": lambda n, units: suite_2assoc(n),
    "1assoc": lambda n, units: suite_1assoc(n),
    "strict": lambda n, units: suite_strict(n),
    "malcev": lambda n, units: suite_malcev(),
    "malcev-assoc": lambda n, units: IdentitySuite(
        "malcev-assoc", 1, (identity_malcev_assoc(),)
    ),
    "unit-law": lambda n, units: IdentitySuite(
        f"unit-law:{n}", n, (identity_unit_law(n, units),)
    ),
    "unit-expansion": lambda n, units: IdentitySuite(
        f"unit-expansion:{n}", n, (identity_unit_expansion(n, units),)
    ),
}


def suite_arity(spec: str) -> int:
    """The n of a 'name' or 'name:n' suite string (1 when omitted).

    Raises InputError for an unknown name or when n is not an integer
    >= 1."""
    name, _, ns = spec.partition(":")
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; known: "
                         f"{', '.join(sorted(_SUITES))}")
    try:
        n = int(ns) if ns else 1
    except ValueError:
        n = 0
    if n < 1:
        raise InputError(f"suite {spec!r}: arity must be an integer >= 1")
    return n


def resolve_suite(spec: str, units=None) -> IdentitySuite:
    """Resolve a 'name' or 'name:n' string to an IdentitySuite over the n
    unit-constant names units (e1..en when None).  Errors as in
    suite_arity; fewer than n units is an InputError."""
    n = suite_arity(spec)
    if units is not None and len(units) < n:
        raise InputError(f"suite {spec!r} needs {n} unit names, "
                         f"got {len(units)}")
    return _SUITES[spec.partition(":")[0]](n, units)


def suite_identities(alg: FiniteAlgebra, spec: str) -> tuple:
    """The identities of suite spec over alg's unit constants (e1..en or
    a shared e, by unit_constants), or over e1..en when alg declares
    neither; errors as in suite_arity.  Every suite but malcev and
    malcev-assoc applies theta to n + 1 arguments, so one whose n does
    not match alg's theta is refused (SymbolError) before it is built.
    The one suite lookup of check, search specs and the group
    operations."""
    n = suite_arity(spec)
    name = spec.partition(":")[0]
    sig = alg.signature
    if name not in ("malcev", "malcev-assoc") and (
            not sig.has_op("theta") or sig.arity("theta") != n + 1):
        raise SymbolError(f"suite {spec!r} needs theta/{n + 1}, which "
                          f"{alg.name!r} does not declare")
    try:
        units = unit_constants(alg, n)
    except SymbolError:
        units = None
    return resolve_suite(spec, units).identities
