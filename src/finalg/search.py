"""Finite model search: enumerate operation tables on a small carrier
satisfying an identity set, by backtracking over table cells.

find-first branches on theta's table first (row-major), then the other
ops, then constants (SearchSpec.free_cells), and returns the
lexicographically smallest witness under that order.  count-all and
prove-none, whose results do not depend on the order, branch on inner
symbols first (SearchSpec.branch_cells): a cell of theta in
theta(alpha1(a, b), b) = a can be forced only once the alpha1 cell under
it is decided, so deciding alpha1 first lets forcing fill theta.

Every identity is ground over the carrier before the search starts: each
instance becomes a pair of nested int tuples that index one flat cell
array (pinned tables, free tables, constants and a read-only slot per
carrier element), in which -1 marks a cell not yet decided.  The
signature alone fixes where each table and slot lies, and pins only fill
the cells, so the instances are a function of (identity, carrier size,
signature), ground a column per term node over all the variable tuples.
A search is planned once per theory, carrier size, signature, pinned
names and mode: its plan, the branch slots and the ground instances of
every identity, is kept in a bounded cache, so a search makes one cache
lookup for it, and its pins only fill the cells.  The plan cache is
declared in core's cache registry, which finalg.clear_caches() empties.

Evaluating a side either gives its value or stops at its blocking cell,
the first undecided cell the evaluation reaches: an inner cell, or the
side's own outermost cell once every argument of it is decided.

The search is one iterative depth-first loop.  Per depth it keeps the
cell it branched on, whose current value is tried in order 0..m-1, and
the cells forced and watch entries moved since that value was set;
backtracking undoes them and moves to the next value.  The loop evaluates
each instance inline: a side that is a slot (a variable, a constant, or an
op applied to variables only) is one read of the cell array, a compound
side reads its slot arguments in place, and only an argument that is
itself compound goes through _value.

An instance that is not decided is either forcing or waiting.  It forces
when one side is decided as v and the other is blocked only at its own
outermost cell X, every argument of X decided: X must be v in every
model, so the loop assigns it at this depth and queues watch[X].  It waits
on the watch list of an inner cell that blocks its lhs, else of an inner
cell that blocks its rhs, else, when both sides are blocked at their
outermost cells, on the lists of both (assigning either forces the
other).  Nothing but that cell can make a waiting instance decided or
forcing, and every assigned cell, branched or forced, has its watch list
processed, so at the end of a node every instance is decided, waiting or
has forced its cell: the node is the fixpoint of forcing.  That fixpoint
does not depend on the order instances are processed in, so a node is
pruned exactly when forcing to the fixpoint from a full rescan of every
instance would meet a decided violation, and node counts equal that
rescan's in the same branching order.  The loop then branches on the
first cell of that order still undecided; a forced cell is never branched
on.  Forcing only assigns the one value a model can take, so counts,
find-first's lex-first witness and prove-none's verdict are those of the
plain search.

The root pass over every instance is the loop's first step and runs the
same code, with forcing held back: the pins alone decide whether the root
is refuted (outcome none-exists), and the instances that force wait until
the pass is over.  The loop keeps no Python frame per depth, so the depth
of the tree is bounded by memory alone.

The budget bounds the work done: ground instances evaluated plus nodes,
which count a branch on a cell no identity reads.  The root pass
evaluates every instance once, so a spec with more instances than the
budget (or the materialize limit) is refused before anything is built,
and one whose ground size, the instances times the applications and
constants each holds, is over that limit before any instance is ground;
the loop refuses at its first node once the work is over budget.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add

from .core import (
    AlgebraError,
    Apply,
    BudgetError,
    Constant,
    DenseTable,
    FiniteAlgebra,
    InputError,
    Signature,
    Variable,
    _MATERIALIZE_LIMIT,
    check_identity_terms,
    kept,
    materializable,
    require_materializable,
    standard_signature,
    table_error,
)
from . import dsl
from .identities import (
    check_identity,
    identities_strict,
    identity_2assoc,
    resolve_suite,
    suite_identities,
)

SEARCH_BUDGET = 10 ** 8  # ground instances evaluated plus nodes
MODES = ("find-first", "count-all", "prove-none")
_GROUNDS = 256  # search plans kept
_GROUND_WEIGHT = 1 << 16  # bound on the plans' slots, instances and reads

# (identities, m, signature, pinned table names, pinned constant names,
# mode) -> a search's plan (_plan): its branch slots and ground instances.
# The signature fixes every offset and slot of the cell array, the free
# cells depend on the pinned names alone, and pin values only fill the
# cell array, so every search of one theory on one carrier with the same
# pin layout and mode shares one plan; identities are keyed by value, so
# an equal theory parsed again hits
_plans = kept(_GROUNDS, _GROUND_WEIGHT)


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
        """The cells no pin decides, theta's table first (row-major), then
        the other ops, then the constants: the order find-first branches
        in, so its witness is the lex-first one in this order."""
        cells = []
        ops = sorted(self.signature.ops, key=lambda na: na[0] != "theta")
        for name, arity in ops:
            if name in self.pinned_tables:
                continue
            for idx in range(self.size ** arity):
                cells.append((name, idx))
        for cname in self.signature.constants:
            if cname not in self.pinned_constants:
                cells.append((cname, None))
        return cells

    def branch_cells(self):
        """The free cells in the order the search branches on them.
        find-first keeps free_cells().  count-all and prove-none sort them
        by (symbol rank, table index, position in free_cells()), a
        constant's cell at index 0, so inner symbols are decided first and
        the cells of one rank interleave: alpha1(a, b) and alpha2(a, b)
        are decided together and force the theta cell above them."""
        cells = self.free_cells()
        if self.mode == "find-first":
            return cells
        rank = symbol_ranks(self.identities)
        return sorted(cells, key=lambda c: (rank.get(c[0], 0), c[1] or 0))


def symbol_ranks(identities) -> dict:
    """rank[f]: the number of other symbols whose applications or
    constants occur, at any depth, inside the arguments of f's
    applications in the identities.  A symbol applied to variables only,
    or to no argument, has rank 0."""
    inside = {}

    def walk(t):  # the symbols of t, recording those inside each op
        if isinstance(t, Variable):
            return set()
        if isinstance(t, Constant):
            return {t.name}
        below = set().union(*map(walk, t.args))
        inside.setdefault(t.op, set()).update(below)
        return below | {t.op}

    for ident in identities:
        walk(ident.lhs)
        walk(ident.rhs)
    return {sym: len(below - {sym}) for sym, below in inside.items()}


@dataclass
class SearchResult:
    outcome: str  # "witness" | "none-exists" | "count"
    witness: FiniteAlgebra | None = None
    count: int = 0
    nodes: int = 0
    instances_evaluated: int = 0  # ground identity instances, root pass included
    forced: int = 0  # cells assigned because an instance determined them
    # wall time; left out of ==, so two runs of one search compare equal
    elapsed_s: float = field(default=0.0, compare=False)

    def summary(self) -> str:
        if self.outcome == "witness":
            return f"witness found (nodes {self.nodes})"
        if self.outcome == "none-exists":
            return f"no model exists (nodes examined {self.nodes})"
        return f"count = {self.count} (nodes {self.nodes})"


def _check_spec(spec: SearchSpec, budget: int) -> None:
    """Refuse a spec before anything is built: InputError for an unknown
    mode, or a carrier or pins that are not a partial algebra on {0..m-1}
    (they index the cell array); BudgetError for a free table over the
    materialize limit or ground instances over that limit or budget, in
    identity order with the ground sizes that _plan checks."""
    m = spec.size
    if spec.mode not in MODES:
        raise InputError(f"unknown search mode {spec.mode!r}")
    if m < 1:
        raise InputError(f"carrier must be >= 1, got {m}")
    for name, tbl in spec.pinned_tables.items():
        if not spec.signature.has_op(name):
            raise InputError(f"pinned table {name!r} not in signature")
        if not isinstance(tbl, DenseTable):
            raise InputError(
                f"pinned table {name!r} is a {type(tbl).__name__}; "
                "a search pins DenseTable entries"
            )
        problem = table_error(name, tbl, spec.signature.arity(name), m)
        if problem is not None:
            raise InputError(f"pinned table: {problem}")
    for cname, v in spec.pinned_constants.items():
        if cname not in spec.signature.constants:
            raise InputError(f"pinned constant {cname!r} not in signature")
        if not 0 <= v < m:
            raise InputError(
                f"pinned constant {cname!r} = {v} is outside 0..{m - 1}"
            )
    for name, arity in spec.signature.ops:
        if name not in spec.pinned_tables and not materializable(m, arity):
            raise BudgetError(f"search table {name!r} of {m}^{arity} cells "
                              f"exceeds cap {_MATERIALIZE_LIMIT}")
    bound, what = min((budget, "budget"), (_MATERIALIZE_LIMIT, "cap"))
    total = 0
    for i, ident in enumerate(spec.identities):
        k = len(ident.variables)
        if not materializable(m, k) or total + m ** k > bound:
            _ground_size(spec.identities[:i], m)  # refused first, in order
            raise BudgetError(f"search ground instances exceed {what} "
                              f"{bound} at identity {ident.name!r} ({m}^{k})")
        total += m ** k


def _ground_size(identities, m: int) -> int:
    """The ground size of identities on m elements: their instances times
    the applications and constants each holds, the cells of an instance
    that are not a variable's.  BudgetError at the identity that takes it
    over the materialize limit.  It does not depend on the budget, so
    _plan checks it once per plan."""
    def held(t):
        if isinstance(t, Apply):
            return 1 + sum(map(held, t.args))
        return int(isinstance(t, Constant))

    size = 0
    for ident in identities:
        k = len(ident.variables)
        reads = held(ident.lhs) + held(ident.rhs)
        size += m ** k * reads
        if size > _MATERIALIZE_LIMIT:
            raise BudgetError(
                f"search ground size {size} exceeds cap {_MATERIALIZE_LIMIT} "
                f"at identity {ident.name!r} ({m}^{k} instances of {reads} "
                "applications and constants)")
    return size


class _Cells:
    """The flat cell array: every op table at its offset, one slot per
    constant, then slot lit + v holding the carrier element v.  The
    offsets, slots and lit depend on the signature and carrier size only,
    and pins fill vals, so the ground instances (ground) depend on the
    identity, m and the signature alone: _plan grounds them once per
    plan, whatever the pin values."""

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

    def instances(self, identities) -> list:
        """Every ground instance (lhs, rhs), identity by identity (see
        ground)."""
        out = []
        for ident in identities:
            out += self.ground(ident)
        return out

    def ground(self, ident):
        """ident's instances (lhs, rhs), variable tuples in lexicographic
        order, each side a slot (int) or (base, ((weight, subterm), ...))
        reading slot base + sum weight * value, variable arguments folded
        into base.  They are built a column at a time: one list per term
        node of its ground value at each of the m^k tuples."""
        m = self.m
        names = ident.variables
        n = m ** len(names)

        def spread(name, w, base):  # base + w * name's value, tuple by tuple
            # variable i of k keeps each value for m^(k-1-i) tuples in a
            # row, and that run of m values repeats m^i times
            cycles = m ** names.index(name)
            return list(chain.from_iterable(map(
                repeat, range(base, base + w * m, w),
                repeat(n // m // cycles, m)))) * cycles

        def column(t):
            if isinstance(t, Variable):
                return spread(t.name, 1, self.lit)
            if isinstance(t, Constant):
                return [self.slot[t.name]] * n
            base, kids = self.offset[t.op], []
            folded = None
            w = m ** len(t.args)
            for a in t.args:
                w //= m
                if isinstance(a, Variable):
                    part = spread(a.name, w, 0 if folded else base)
                    folded = list(map(add, folded, part)) if folded else part
                else:
                    kids.append(zip(repeat(w), column(a)))
            folded = folded or [base] * n
            return list(zip(folded, zip(*kids))) if kids else folded

        return tuple(zip(column(ident.lhs), column(ident.rhs)))

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


def _plan(spec: SearchSpec, layout: _Cells):
    """(weight, (slots, instances)) of spec's search: the slots of its
    free cells in branching order (branch_cells) and every ground
    instance, identity by identity (_Cells.instances), ground once its
    ground size passes.  The weight is the slots plus that size and the
    instances."""
    size = _ground_size(spec.identities, spec.size)
    slots = tuple(map(layout.cell_slot, spec.branch_cells()))
    instances = tuple(layout.instances(spec.identities))
    return len(slots) + len(instances) + size, (slots, instances)


def _value(t, vals) -> int:
    """The value of the compound ground term t = (base, kids), or ~slot
    of the first undecided cell its evaluation reaches (always negative).
    The search calls it for a compound argument of a compound side; a kid
    that is a slot is read inline and only a compound kid recurses."""
    base, kids = t
    for w, kid in kids:
        if kid.__class__ is int:
            v = vals[kid]
            if v < 0:
                return ~kid
        else:
            v = _value(kid, vals)
            if v < 0:
                return v
        base += w * v
    v = vals[base]
    return v if v >= 0 else ~base


def search(spec: SearchSpec, budget: int = SEARCH_BUDGET) -> SearchResult:
    """Complete backtracking search in the requested mode.

    prove-none results are exhaustive: the traversal visits or prunes
    every candidate, pruning happens only on an identity violation that is
    decided once the forced cells are assigned, and a cell is forced only
    to the one value every model extending the node gives it.  find-first
    and prove-none stop at the first model, which for prove-none refutes
    the non-existence claim (outcome "witness").  prove-none branches in
    count-all's order, so its model is the first of that order, in
    general not find-first's lex-first witness.  Witnesses are
    re-verified exhaustively before return.  A root refuted by its pins is
    none-exists; one refuted only once cells are forced is count 0 in
    count-all mode.  Either counts as one node.
    """
    start = time.perf_counter()
    _check_spec(spec, budget)
    m = spec.size
    layout = _Cells(spec)
    vals = layout.vals
    watch = [[] for _ in vals]
    slots, instances = _plans.get(
        (tuple(spec.identities), m, spec.signature,
         frozenset(spec.pinned_tables), frozenset(spec.pinned_constants),
         spec.mode),
        _plan, spec, layout)
    k = len(slots)
    counting = spec.mode == "count-all"
    top = m - 1  # the last value of a cell
    # per depth d, the number of cells branched on: at[d], the position in
    # slots of the cell branched on at depth d; grown[d], the slots whose
    # watch lists gained an instance, and forced[d], the cells forced, since
    # that cell took its current value (at depth 0: at the root)
    at = [-1] * (k + 1)
    grown = [[] for _ in range(k + 1)]
    forced = [[] for _ in range(k + 1)]
    depth = 0
    # the lists of instances to evaluate at this node: the root pass is
    # every instance, a branch the watch list of its cell, and each forced
    # cell appends its watch list
    queue = [instances]
    forcing = False  # off in the root pass, which only decides refuted
    deferred = []  # root-pass instances that force a cell, forced after it
    nodes = count = evaluated = nforced = 0
    refuted = False  # the pins alone falsify an identity
    witness = None
    while True:
        if evaluated + nodes > budget:
            raise BudgetError(f"search evaluated {evaluated} ground instances "
                              f"in {nodes} nodes, over budget {budget}")
        grew = grown[depth]
        trail = forced[depth]
        for todo in queue:
            for inst in todo:
                evaluated += 1
                lhs, rhs = inst
                # x: the outermost cell of lhs once its arguments are
                # decided, else ~c for the inner cell c that blocks it
                if lhs.__class__ is int:
                    x = lhs
                else:
                    x, kids = lhs
                    for w, kid in kids:
                        if kid.__class__ is int:
                            v = vals[kid]
                            if v < 0:
                                x = ~kid
                                break
                        else:
                            v = _value(kid, vals)
                            if v < 0:
                                x = v
                                break
                        x += w * v
                if x < 0:
                    x = ~x
                    watch[x].append(inst)
                    grew.append(x)
                    continue
                a = vals[x]
                if rhs.__class__ is int:
                    y = rhs
                else:
                    y, kids = rhs
                    for w, kid in kids:
                        if kid.__class__ is int:
                            v = vals[kid]
                            if v < 0:
                                y = ~kid
                                break
                        else:
                            v = _value(kid, vals)
                            if v < 0:
                                y = v
                                break
                        y += w * v
                if y < 0:
                    y = ~y
                    watch[y].append(inst)
                    grew.append(y)
                    continue
                b = vals[y]
                if a >= 0:
                    if b >= 0:
                        if a != b:
                            if not depth:  # the root dies: one node
                                refuted = not forcing
                                nodes = 1
                            break
                        continue
                    x = y  # rhs's cell must equal a
                elif b >= 0:
                    a = b  # lhs's cell must equal b
                else:
                    # both outermost cells undecided: either one, once
                    # assigned, forces the other
                    watch[x].append(inst)
                    watch[y].append(inst)
                    grew.append(x)
                    grew.append(y)
                    continue
                if not forcing:
                    deferred.append(inst)
                    continue
                vals[x] = a
                trail.append(x)
                nforced += 1
                queue.append(watch[x])
            else:
                continue
            break  # a decided violation prunes this node
        else:
            if not forcing:
                forcing = True
                if deferred:
                    queue = [deferred]
                    continue
            # branch on the next cell in the branching order that no
            # instance forced
            p = at[depth] + 1
            while p < k and vals[slots[p]] >= 0:
                p += 1
            if p < k:
                depth += 1
                at[depth] = p
                s = slots[p]
                vals[s] = 0
                nodes += 1
                queue = [watch[s]]
                continue
            if not counting:
                witness = layout.algebra(spec)
                break  # find-first is done; prove-none has failed
            count += 1
        # next value at the deepest cell with one left, undoing the forced
        # cells and watch moves of each value left behind
        while depth:
            grew = grown[depth]
            while grew:
                watch[grew.pop()].pop()
            trail = forced[depth]
            while trail:
                vals[trail.pop()] = -1
            s = slots[at[depth]]
            if vals[s] < top:
                vals[s] += 1
                nodes += 1
                queue = [watch[s]]
                break
            vals[s] = -1
            depth -= 1
        else:
            break
    if refuted:
        outcome = "none-exists"
    elif counting:
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
        outcome, witness=witness, count=count, nodes=nodes,
        instances_evaluated=evaluated, forced=nforced,
        elapsed_s=time.perf_counter() - start,
    )


def _semiabelian_2assoc(name, m, n, mode="find-first") -> SearchSpec:
    """The 2-associative semi-abelian theory over theta, alpha1..alphan
    and one shared unit e, every symbol free."""
    sig = standard_signature(n, shared_unit=True)
    identities = (resolve_suite(f"semiabelian:{n}", sig.constants * n)
                  .identities + (identity_2assoc(n),))
    return SearchSpec(name, m, sig, identities, mode=mode)


def prove_no_strict_2assoc(m: int, n: int) -> SearchResult:
    """Certify that no strict 2-associative structure exists on a carrier
    of size m >= 2 for n >= 2.

    Strictness forces every section theta_b to take each of the m values
    exactly once across its m^n cells, so a repeated value inside one
    section prunes.  The search enumerates fillings of the first section
    under that constraint; with m^n > m every branch dies by depth m+1,
    and exhausting the pruned tree certifies that no full theta table
    (hence no full structure) can be strict.  The walk visits exactly
    m * sum(m!/(m-d)! for d = 0..m) nodes; a walk over SEARCH_BUDGET nodes
    is refused (BudgetError) before it starts.  At m = 1 the search of the
    strict 2-associative theory finds the one-element model (witness).
    """
    if m != 1 and (n < 2 or m < 2):
        raise InputError("requires n >= 2 and m >= 2 (or m = 1)")
    require_materializable(m, n + 1, f"{n} + 1")
    if m == 1:
        return search(SearchSpec(
            "trivial-strict", 1, standard_signature(n, shared_unit=True),
            identities_strict(n) + (identity_2assoc(n),)))
    walk, prefixes = 1, 1
    for d in range(m):
        prefixes *= m - d
        walk += prefixes
    if m * walk > SEARCH_BUDGET:
        raise BudgetError(f"no-strict walk of {m * walk} nodes exceeds "
                          f"budget {SEARCH_BUDGET}")
    start = time.perf_counter()
    section = m ** n
    nodes = 0
    seen = []  # the values of the section's first cells, all distinct
    v = 0  # the next value to try for the cell after them
    while True:
        if v < m:
            nodes += 1
            if v in seen:
                v += 1  # unique-preimage constraint violated
                continue
            seen.append(v)
            if len(seen) == section:  # pragma: no cover - m^n > m
                raise AlgebraError("unexpected strict candidate found")
            v = 0
        elif seen:
            v = seen.pop() + 1
        else:
            break
    return SearchResult("none-exists", nodes=nodes,
                        elapsed_s=time.perf_counter() - start)


def count_2assoc_semiabelian(
    m: int, n: int, budget: int = SEARCH_BUDGET
) -> SearchResult:
    """Count all (theta, alpha*, e) assignments on {0..m-1} satisfying the
    semi-abelian axioms plus 2-associativity.

    The theory names no carrier element, so relabeling by the
    transposition (0 v) maps the models with e = v one to one onto those
    with e = 0.  The search therefore runs with e pinned to 0 and the
    count is m times its count.  nodes, instances_evaluated and the
    budget are those of the e = 0 search.
    """
    spec = _semiabelian_2assoc(f"count-2assoc-semiabelian-m{m}-n{n}", m, n,
                               mode="count-all")
    spec.pinned_constants = {"e": 0}
    result = search(spec, budget=budget)
    result.count *= m
    return result


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
        required.extend(suite_identities(alg, req))
    for ident in required:
        check_identity_terms(alg.signature, ident, raw.name)
    return SearchSpec(
        raw.name, alg.size, alg.signature, tuple(required),
        pinned_tables=alg.tables,
        pinned_constants=alg.constants,
        mode=mode,
    )
