"""Finite model search: enumerate operation tables on a small carrier
satisfying an identity set, by backtracking over table cells.

Cell order is theta's table first (row-major), then the other ops, then
constants, so the most-constrained symbol fails fastest.  find-first
returns the lexicographically smallest witness under that ordering.

Before the search starts every identity is ground once over the carrier:
each instance becomes a pair of nested int tuples that index one flat cell
array (pinned tables, free tables, constants and a read-only slot per
carrier element), in which -1 marks a cell not yet decided.  Evaluating an
instance lhs-then-rhs either decides it or stops at its first blocking
cell, the first undecided cell the evaluation reaches.  An undecided
instance waits on the watch list of that cell.  Because cells are assigned
in the fixed free_cells() order, a cell that blocks an instance stays
undecided until it is itself assigned, so assigning cell d can change the
state of exactly the instances on watch[d]: each is re-evaluated and either
decided (a mismatch prunes) or moved to the list of a deeper cell, and the
moves are popped on backtrack.  Every other instance is as it was at the
parent node, which had no decided violation, so a node is pruned exactly
when re-evaluating every instance of every identity would find a decided
violation: node counts, counts and witnesses equal those of that full
rescan.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .core import (
    AlgebraError,
    BudgetError,
    Constant,
    DenseTable,
    FiniteAlgebra,
    Signature,
    Variable,
    check_term,
    standard_signature,
    table_error,
)
from . import dsl
from .identities import (
    check_identity,
    identity_2assoc,
    suite_identities,
    suite_semiabelian,
)

SEARCH_BUDGET = 10 ** 9


@dataclass
class SearchSpec:
    """What to search for: carrier size, signature, optional pinned
    tables/constants, the required identities, and the mode."""

    name: str
    size: int
    signature: Signature
    identities: tuple
    pinned_tables: dict = field(default_factory=dict)
    pinned_constants: dict = field(default_factory=dict)
    mode: str = "find-first"  # find-first | count-all | prove-none

    def free_cells(self):
        cells = []
        ops = sorted(
            self.signature.ops, key=lambda na: (na[0] != "theta",)
        )
        for name, arity in ops:
            if name in self.pinned_tables:
                continue
            for idx in range(self.size ** arity):
                cells.append((name, idx))
        for cname in self.signature.constants:
            if cname not in self.pinned_constants:
                cells.append((cname, None))
        return cells


@dataclass
class SearchResult:
    outcome: str  # "witness" | "none-exists" | "count"
    witness: FiniteAlgebra | None = None
    count: int = 0
    space_size: int = 0
    nodes: int = 0
    instances_evaluated: int = 0  # ground identity instances, root pass included
    # wall time; left out of ==, so two runs of one search compare equal
    elapsed_s: float = field(default=0.0, compare=False)

    def summary(self) -> str:
        if self.outcome == "witness":
            return f"witness found (space {self.space_size}, nodes {self.nodes})"
        if self.outcome == "none-exists":
            return (
                f"no model exists (space {self.space_size}, "
                f"nodes examined {self.nodes})"
            )
        return f"count = {self.count} (space {self.space_size}, nodes {self.nodes})"


def _check_spec(spec: SearchSpec) -> None:
    """Reject a spec whose carrier or pins are not a partial algebra on
    {0..m-1}: the search would index its cell array with them."""
    m = spec.size
    if m < 1:
        raise AlgebraError(f"carrier must be >= 1, got {m}")
    for name, tbl in spec.pinned_tables.items():
        if not spec.signature.has_op(name):
            raise AlgebraError(f"pinned table {name!r} not in signature")
        if not isinstance(tbl, DenseTable):
            raise AlgebraError(
                f"pinned table {name!r} is a {type(tbl).__name__}; "
                "a search pins DenseTable entries"
            )
        problem = table_error(name, tbl, spec.signature.arity(name), m)
        if problem is not None:
            raise AlgebraError(f"pinned table: {problem}")
    for cname, v in spec.pinned_constants.items():
        if not 0 <= v < m:
            raise AlgebraError(
                f"pinned constant {cname!r} = {v} is outside 0..{m - 1}"
            )


class _Cells:
    """The flat cell array: every op table at its offset, one slot per
    constant, then slot lit + v holding the carrier element v."""

    def __init__(self, spec: SearchSpec):
        self.m = m = spec.size
        self.offset = {}
        self.vals = []
        for name, arity in spec.signature.ops:
            self.offset[name] = len(self.vals)
            pinned = spec.pinned_tables.get(name)
            self.vals.extend(
                pinned.entries if pinned is not None else [-1] * m ** arity
            )
        self.slot = {}
        for cname in spec.signature.constants:
            self.slot[cname] = len(self.vals)
            self.vals.append(spec.pinned_constants.get(cname, -1))
        self.lit = len(self.vals)
        self.vals.extend(range(m))

    def cell_slot(self, cell) -> int:
        sym, idx = cell
        return self.slot[sym] if idx is None else self.offset[sym] + idx

    def ground(self, t, env: dict):
        """t with its variables bound by env: a slot (int), or (base,
        ((weight, subterm), ...)) reading slot base + sum weight * value.
        Variable arguments are folded into base."""
        if isinstance(t, Variable):
            return self.lit + env[t.name]
        if isinstance(t, Constant):
            return self.slot[t.name]
        base = self.offset[t.op]
        kids = []
        w = self.m ** len(t.args)
        for a in t.args:
            w //= self.m
            if isinstance(a, Variable):
                base += w * env[a.name]
            else:
                kids.append((w, self.ground(a, env)))
        return (base, tuple(kids)) if kids else base

    def instances(self, identities) -> list:
        """Every ground instance (lhs, rhs), identity by identity and
        variable tuples in lexicographic order."""
        out = []
        for ident in identities:
            for tup in itertools.product(range(self.m),
                                         repeat=len(ident.variables)):
                env = dict(zip(ident.variables, tup))
                out.append((self.ground(ident.lhs, env),
                            self.ground(ident.rhs, env)))
        return out

    def algebra(self, spec: SearchSpec) -> FiniteAlgebra:
        m = self.m
        tables = {
            name: DenseTable(
                arity,
                self.vals[self.offset[name]:self.offset[name] + m ** arity],
            )
            for name, arity in spec.signature.ops
        }
        constants = {c: self.vals[self.slot[c]] for c in spec.signature.constants}
        return FiniteAlgebra(
            f"{spec.name}-witness", spec.signature, m, tables, constants,
        )


def _value(t, vals) -> int:
    """The value of ground term t, or ~slot of the first undecided cell
    its evaluation reaches (always negative)."""
    if t.__class__ is int:
        v = vals[t]
        return v if v >= 0 else ~t
    base, kids = t
    for w, kid in kids:
        v = _value(kid, vals)
        if v < 0:
            return v
        base += w * v
    v = vals[base]
    return v if v >= 0 else ~base


def _recheck(instances, vals, watch, moved) -> tuple:
    """Evaluate instances, appending each undecided one to the watch list
    of its first blocking cell and that cell's slot to moved.  Returns
    (violated, number evaluated), stopping at the first decided
    mismatch."""
    done = 0
    for inst in instances:
        done += 1
        a = _value(inst[0], vals)
        if a >= 0:
            b = _value(inst[1], vals)
            if b >= 0:
                if a != b:
                    return True, done
                continue
            a = b
        watch[~a].append(inst)
        moved.append(~a)
    return False, done


def _space_size(spec: SearchSpec, budget: int) -> int:
    """m^k for the k free cells of spec, or BudgetError when that exceeds
    budget.  m >= 2 and k >= budget.bit_length() give m^k >= 2^k > budget,
    so a huge space is refused without building m^k, and a free op of
    such an arity without building m^arity; a k of 100 digits or more is
    worded by its terms m^arity."""
    m = spec.size
    arities = [a for name, a in spec.signature.ops
               if name not in spec.pinned_tables]
    consts = sum(c not in spec.pinned_constants
                 for c in spec.signature.constants)
    bound = budget.bit_length() if m > 1 else math.inf
    k = None
    if max(arities, default=0) < bound:
        k = sum(m ** a for a in arities) + consts
        if k < bound and m ** k <= budget:
            return m ** k
    if k is None or k >= 10 ** 100:
        terms = [f"{m}^{a}" for a in arities] + [str(consts)] * (consts > 0)
        k = f"({' + '.join(terms)})"
    raise BudgetError(f"search space {m}^{k} exceeds budget {budget}")


def search(spec: SearchSpec, budget: int = SEARCH_BUDGET) -> SearchResult:
    """Complete backtracking search in the requested mode.

    prove-none results are exhaustive: the traversal visits or prunes
    every candidate, and pruning happens only on a decided identity
    violation.  find-first and prove-none stop at the first model, which
    for prove-none refutes the non-existence claim (outcome "witness").
    Witnesses are re-verified exhaustively before return.
    """
    start = time.perf_counter()
    _check_spec(spec)
    m = spec.size
    space = _space_size(spec, budget)
    cells = spec.free_cells()
    layout = _Cells(spec)
    vals = layout.vals
    watch = [[] for _ in vals]
    violated, evaluated = _recheck(
        layout.instances(spec.identities), vals, watch, []
    )
    if violated:
        # pins alone already falsify an identity
        return SearchResult(
            "none-exists", space_size=space, nodes=1,
            instances_evaluated=evaluated,
            elapsed_s=time.perf_counter() - start,
        )
    slots = [layout.cell_slot(c) for c in cells]
    nodes = 0
    count = 0
    witness = None

    def assign(depth):
        nonlocal nodes, count, witness, evaluated
        if depth == len(slots):
            if spec.mode == "count-all":
                count += 1
                return False
            witness = layout.algebra(spec)
            return True  # find-first is done; prove-none has failed
        s = slots[depth]
        watched = watch[s]
        for v in range(m):
            nodes += 1
            vals[s] = v
            moved = []
            violated, done = _recheck(watched, vals, watch, moved)
            evaluated += done
            if not violated and assign(depth + 1):
                return True
            for t in moved:
                watch[t].pop()
        vals[s] = -1
        return False

    assign(0)
    if spec.mode == "count-all":
        outcome = "count"
    elif witness is None:
        outcome = "none-exists"
    else:
        outcome = "witness"
        for ident in spec.identities:
            rep = check_identity(witness, ident)
            if not rep.ok:
                raise AlgebraError(
                    f"internal error: emitted witness fails {ident.name!r}"
                )
    return SearchResult(
        outcome, witness=witness, count=count, space_size=space, nodes=nodes,
        instances_evaluated=evaluated, elapsed_s=time.perf_counter() - start,
    )


def _semiabelian_2assoc(name, m, n, mode="find-first") -> SearchSpec:
    """The 2-associative semi-abelian theory over theta, alpha1..alphan
    and one shared unit e, every symbol free."""
    sig = standard_signature(n, shared_unit=True)
    identities = (suite_semiabelian(n, sig.constants * n).identities
                  + (identity_2assoc(n),))
    return SearchSpec(name, m, sig, identities, mode=mode)


def prove_no_strict_2assoc(m: int, n: int) -> SearchResult:
    """Certify that no strict 2-associative structure exists on a carrier
    of size m >= 2 for n >= 2.

    Strictness forces every section theta_b to take each of the m values
    exactly once across its m^n cells, so a repeated value inside one
    section prunes.  The search enumerates fillings of the first section
    under that constraint; with m^n > m every branch dies by depth m+1,
    and exhausting the pruned tree certifies that no full theta table
    (hence no full structure) can be strict.
    """
    if m == 1:
        return search(_semiabelian_2assoc("trivial-strict", 1, n))
    if n < 2 or m < 2:
        raise AlgebraError("requires n >= 2 and m >= 2 (or m = 1)")
    start = time.perf_counter()
    section = m ** n
    nodes = 0
    seen = []

    def extend():
        nonlocal nodes
        if len(seen) == section:
            return True  # a full section with all-distinct values: impossible
        for v in range(m):
            nodes += 1
            if v in seen:
                continue  # unique-preimage constraint violated
            seen.append(v)
            if extend():
                return True
            seen.pop()
        return False

    if extend():  # pragma: no cover - unreachable for m >= 2, n >= 2
        raise AlgebraError("unexpected strict candidate found")
    theta_space = m ** (m ** (n + 1))
    return SearchResult("none-exists", space_size=theta_space, nodes=nodes,
                        elapsed_s=time.perf_counter() - start)


def count_2assoc_semiabelian(
    m: int, n: int, budget: int = SEARCH_BUDGET
) -> SearchResult:
    """Count all (theta, alpha*, e) assignments on {0..m-1} satisfying the
    semi-abelian axioms plus 2-associativity."""
    spec = _semiabelian_2assoc(f"count-2assoc-semiabelian-m{m}-n{n}", m, n,
                               mode="count-all")
    return search(spec, budget=budget)


def parse_search_spec(text: str, mode: str = "find-first") -> SearchSpec:
    """Build a SearchSpec from DSL text: an algebra block where free
    tables are marked 'free' and required suites are listed via
    'require <name>[:<n>] ...'."""
    raws, identities = dsl.parse_raw_blocks(text)
    if len(raws) != 1:
        raise dsl.DslError("search spec needs exactly one algebra block")
    raw = raws[0]
    alg = dsl.raw_to_algebra(raw, allow_free=True)
    required = list(identities)
    for req in raw.requires:
        try:
            required.extend(suite_identities(alg, req))
        except (KeyError, ValueError) as e:
            raise dsl.DslError(e.args[0])
    for ident in required:
        for side in (ident.lhs, ident.rhs):
            try:
                check_term(alg.signature, side, ident.variables)
            except AlgebraError as e:
                raise dsl.DslError(
                    f"identity {ident.name!r} does not fit the "
                    f"signature of {raw.name!r}: {e}"
                )
    return SearchSpec(
        raw.name, alg.size, alg.signature, tuple(required),
        pinned_tables=alg.tables,
        pinned_constants=alg.constants,
        mode=mode,
    )
