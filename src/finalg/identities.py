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

Both modes run one numpy kernel (CheckReport.engine is "np" or
"sampled"), a partial evaluator in two steps.  _plan turns each side of
an identity into a table-free plan for one carrier size m and one block
layout: which variables are flat grid rows, which are mesh axes and
which are bound per block or per batch.  A check binds the plans to its
algebra's table arrays and constants, so a subterm that reads only known
variables is evaluated at once, to an int or an array, and the rest
becomes a closure that each block calls.  Plans are kept in a bounded
cache keyed by the identity's value, m and the layout (_planned), so a
law checked on many algebras is planned once, and so is an equal
identity built again or parsed again from text; term_table's plans are
kept there too, keyed by the term's value, m and the variables.  The
grids and meshes plans are built from are kept in one cache under the
same byte bound (_grids).  Whether an identity fits a signature is
likewise decided once per signature (_require_fit); a Signature, like
an Identity, computes its hash once.  An exhaustive check of a product
that records its factors (catalog._product) runs the kernel on each
factor instead, since an identity holds in a product iff it holds in
every factor, and places the first counterexample from theirs (engine
"product", _check_product).  The exhaustive check loops over a
lexicographic prefix of the variables and evaluates each prefix's block
of suffix tuples at once; a block holds at most _BLOCK tuples (at least
one whole variable), so its temporaries stay cache-sized and a failure
near the start of the tuple order ends the check early.  An identity
with no variables is one block of one tuple.

A check without a prefix loop (one block, as every small check is) reads
its suffix as flat grid rows (_grid), and so does term_table; a sampled
check binds every variable per batch.  With every variable a grid row,
both sides of a one-block check bind to values (an int or an array in
lex order), which are compared once, with no loop, env or closure.  A
table application is then one flat index and one gather, and its plan
holds the sum of its variable arguments' shares of that index (each grid
row times its stride), so theta(a1, a2, theta(b1, b2, c)) is two gathers
and one add.  Under a prefix loop the suffix variables are the axes of
an open mesh (_mesh): axis i is range(m) shaped (1, ..., m, ..., 1), and
a term's values span only the axes of the variables it reads.  An
application that reads a prefix variable is planned by _slicing: the
arguments that read no suffix variable select a sub-table of the table's
m x ... x m view by basic indexing, a view with no add and no gather;
then one argument that reads several axes is one gather into that view,
and arguments that read one axis each, in increasing axis order, are
takes of rows along their axes (an argument that is its axis's own
variable needs none).  Any other application keeps the flat index.  The
sides compare by broadcasting, and a block's first failure is placed in
the lex order of the whole block.

Under a prefix loop a block may be skipped by its sections.  The leading
arguments of an application are its longest run of first arguments that
read no suffix variable; they select the sub-table T[s1..sl] the block
reads, its section.  When every occurrence of a prefix variable lies
inside some application's leading arguments (decided once per plan, by
_keyed; 2assoc:n, 1assoc:n and malcev-assoc qualify), a block's values
depend on the prefix only through the sections of the outermost such
applications, so a block whose sections all equal those of a block that
passed passes too.  Once the first block has passed (a check that fails
at once does no section work), _section_key gives the rows of each keyed
table at their depth class ids, equal rows equal ids, in one np.unique
pass.  A block's key is the mixed-radix code of its class ids, and one
byte per code marks the keys of passed blocks; a marked block adds its
m^inner tuples to the count and is skipped.  The first failing block is
the first with its key, so lex order, the first counterexample and
tuples_checked are those of the full loop.  The memo is used only when
the class counts multiply to fewer than the m^outer blocks, since
otherwise no block need repeat another.  The paper's theorem is why it
pays: a 2-associative semi-abelian theta is theta(a*, b) = gamma(a*) * b
in a group, so its m^n sections theta(a*, -) are left translations, at
most m of them distinct, and the Mal'cev term a * b^-1 * c has at most m
distinct sections mu(a, b, -) among its m^2.  Where the sections all
differ, as in a random table or a group's associativity, every block
runs.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import threading
from dataclasses import dataclass

from . import dsl
from .core import (
    EXHAUSTIVE_BUDGET,
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
    term_variables,
    unit_constants,
    validate_algebra,
)

_BLOCK = 1 << 14
_PLANS = 256  # plans, identity/signature fits and grids kept
_PLAN_BYTES = 1 << 23  # bound on the arrays the kept plans hold
_BATCH = 1 << 16


@dataclass(frozen=True)
class IdentitySuite:
    """A named bundle of identities."""

    name: str
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
    callers then switch to mode="sampled".  It decides a product that
    records its factors through them (engine "product", see
    _check_product), and the budget then bounds the factors' tuples.  An
    identity that does not fit alg's signature, an unknown mode or
    samples < 1 is an InputError.  The fit is decided first, so a misfit
    raises the same SymbolError in every mode and at any budget.
    """
    _require_fit(alg, ident)
    variables = ident.variables
    m = alg.size
    k = len(variables)
    if mode == "sampled":
        if samples < 1:
            raise InputError(f"sampled mode needs samples >= 1, got {samples}")
        engine, report = "sampled", _check_sampled(alg, ident, samples, seed)
    elif mode != "exhaustive":
        raise InputError(f"unknown mode {mode!r}")
    elif alg.factors:
        engine, report = "product", _check_product(alg, ident, budget)
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


def _plan(t, m, known, axis):
    """The table-free plan of term t over carrier size m: a function
    bind(alg) that reads alg's tables and constants and evaluates t
    elementwise as far as known allows.  known maps variables to int64
    arrays, flat arrays all of one length or the axes of an open mesh (see
    the module docstring); axis maps each mesh variable to its axis, and
    is empty for flat arrays.

    bind returns t's value when t reads only known variables, an int or
    an array: constants and subterms that read no array stay ints and
    broadcast against the arrays.  Otherwise it returns a closure that
    takes a dict of the other variables' values and evaluates the rest; it
    holds its tables' arrays, so a call repeats no dispatch.  The plan
    holds what depends on t, m and the layout alone: each known variable
    argument's share of its application's flat index, summed once, and
    the slicing of an application that reads a late variable under a
    prefix loop (_slicing).  It holds no table and no constant value, so
    one plan serves every algebra on m elements."""
    import numpy as np

    if isinstance(t, Variable):
        name = t.name
        if name in known:
            value = known[name].copy()  # keeps a row, not the grid it views
            return lambda alg: value
        return lambda alg: lambda env: env[name]
    if isinstance(t, Constant):
        name = t.name
        return lambda alg: int(alg.constant(name))
    op, r = t.op, len(t.args)
    if axis and term_variables(t) - known.keys():
        sliced = _sliced_plan(t, m, known, axis)
        if sliced is not None:
            return sliced
    # the known variable arguments' shares of the flat index are summed
    # now; every other argument adds its value times its stride when bound
    base, parts = None, []
    for i, a in enumerate(t.args):
        stride = m ** (r - 1 - i)
        if isinstance(a, Variable) and a.name in known:
            share = known[a.name] * stride
            base = share if base is None else base + share
        else:
            parts.append((_plan(a, m, known, axis), stride))

    def bind(alg):
        arr = alg.op(op).array()
        index, calls = base, []
        for sub, stride in parts:
            v = sub(alg)
            if callable(v):
                calls.append((v, stride))
                continue
            if stride > 1:
                v = v * stride
            index = v if index is None else index + v
        if calls:
            index = 0 if index is None else index

            def apply(env):
                flat = index
                for f, s in calls:
                    flat = flat + f(env) * s
                return arr[flat]

            return apply
        out = arr[index]
        return out if isinstance(out, np.ndarray) else int(out)

    return bind


def _slicing(axes):
    """How a late dense application reads its table, from the mesh axes
    each argument reads (a sorted tuple; empty for a scalar): "take" when
    every argument that reads an axis reads one, each a later axis than
    the one before, "gather" when one argument reads several, and None
    (the flat index) for any other shape.  Either way needs the scalars
    to lead."""
    lead = 0
    while lead < len(axes) and not axes[lead]:
        lead += 1
    rest = axes[lead:]
    if all(len(ax) == 1 for ax in rest) and all(
            p < q for (p,), (q,) in zip(rest, rest[1:])):
        return "take"
    return "gather" if len(rest) == 1 else None


def _sliced_plan(t, m, known, axis):
    """The plan of the late dense application t under a prefix loop when
    _slicing gives it one, or None for the flat index.  Bound, it is a
    closure that selects a sub-table by the leading scalar arguments, then
    gathers or takes the rest (see the module docstring)."""
    r = len(t.args)
    reads = [term_variables(a) for a in t.args]
    axes = [tuple(sorted(axis[x] for x in v if x in axis)) for v in reads]
    slicing = _slicing(axes)
    if slicing is None:
        return None
    op = t.op
    args = [_plan(a, m, known, axis) for a in t.args]
    lead = sum(not ax for ax in axes)
    if slicing == "gather":
        def bind(alg):
            table = alg.op(op).array().reshape((m,) * r)
            scalars = [_closure(arg(alg)) for arg in args[:-1]]
            index = _closure(args[-1](alg))
            return lambda env: table[tuple([f(env) for f in scalars])][
                index(env)]

        return bind
    # the sub-table is a view with each argument's axis in place; an
    # argument that is not its axis's own variable takes its rows
    used = {ax for ax, in axes[lead:]}
    layout = tuple(slice(None) if i in used else None
                   for i in range(len(axis))) if used else ()
    takes = [(i, ax) for i, (a, (ax,)) in
             enumerate(zip(t.args[lead:], axes[lead:]), start=lead)
             if not (isinstance(a, Variable) and a.name in known)]

    def bind(alg):
        table = alg.op(op).array().reshape((m,) * r)
        values = [arg(alg) for arg in args]
        scalars = [_closure(v) for v in values[:lead]]
        rows = [(_flat_closure(values[i]), ax) for i, ax in takes]

        def apply(env):
            sub = table[tuple([f(env) for f in scalars]) + layout]
            for f, ax in rows:
                sub = sub.take(f(env), axis=ax)
            return sub

        return apply

    return bind


def _flat_closure(v):
    """A value or closure of a bound plan, as a closure of its values
    raveled to one dimension."""
    if callable(v):
        return lambda env: v(env).ravel()
    flat = v.ravel()
    return lambda env: flat


def _first_bad(lhs, rhs):
    """Index of the first assignment at which the values lhs and rhs of an
    identity's sides differ, or None; a side that is one int holds for
    every assignment.  One argmax and a read of the element it names, by
    flat index, decide it with no copy: numpy's any() is a Python-level
    wrapper that costs more than both."""
    bad = lhs != rhs
    if isinstance(bad, bool):  # two ints
        return 0 if bad else None
    j = int(bad.argmax())
    return j if bad.item(j) else None


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


def _grid(m, inner):
    """The m^inner tuples over range(m) in lex order, as a read-only
    (inner, m^inner) int64 array, kept in _grids.  Row i repeats each
    digit m^(inner-1-i) times in turn, so no array has more than three
    dimensions (numpy 1.x refuses more than 32 and 2.x more than 64, and
    a one-element carrier admits any inner)."""
    def build():
        import numpy as np

        grid = np.empty((inner, m ** inner), dtype=np.int64)
        for i, row in enumerate(grid):
            row.reshape(m ** i, m, -1)[...] = np.arange(m)[:, None]
        grid.setflags(write=False)
        return grid.nbytes, grid

    return _grids.get((m, inner, "grid"), build)


def _mesh(m, inner):
    """The open mesh of the m^inner tuples over range(m), kept in _grids:
    axis i is range(m) as a read-only int64 array of shape
    (1, ..., m, ..., 1), m at i, so arrays of the values of terms
    broadcast to lex order."""
    def build():
        import numpy as np

        axes = np.ix_(*[np.arange(m, dtype=np.int64)] * inner)
        for axis in axes:
            axis.setflags(write=False)
        return 8 * m * inner, axes

    return _grids.get((m, inner, "mesh"), build)


def term_table(alg: FiniteAlgebra, term, variables) -> DenseTable:
    """The table of term over variables, row-major in their order, from
    the identity kernel; a term that reads some or none of the variables
    is broadcast to all m^k rows, so a constant term works too.  A term
    that reads a variable outside variables is an EvalError."""
    import numpy as np

    unbound = term_variables(term) - set(variables)
    if unbound:
        raise EvalError(f"term reads unbound variables {sorted(unbound)}")
    m, variables = alg.size, tuple(variables)
    k = len(variables)
    plan = _plans.get((term, m, variables), lambda: (
        8 * m ** k * (1 + _applications(term)),
        _plan(term, m, dict(zip(variables, _grid(m, k))), {})))
    values = plan(alg)
    return DenseTable.of_array(
        k, np.array(np.broadcast_to(values, (m ** k,)), dtype=np.int64))


class _Kept:
    """A cache of the values used last: at most count of them, whose
    weights sum to at most weight.  A dict keeps insertion order, so a
    hit moves its key to the end, and a miss drops keys from the front
    until the new value fits; a value heavier than weight alone is not
    kept.  A lock makes each lookup atomic, so threads may share it."""

    def __init__(self, count, weight=math.inf):
        self.count, self.weight = count, weight
        self.entries, self.total = {}, 0  # key -> (weight, value)
        self.lock = threading.Lock()

    def get(self, key, build):
        """The value of key, from build() -> (weight, value) on a miss."""
        with self.lock:
            entries = self.entries
            entry = entries.pop(key, None)
            if entry is None:
                entry = build()
                if entry[0] > self.weight:
                    return entry[1]
                while entries and (len(entries) >= self.count
                                   or self.total + entry[0] > self.weight):
                    self.total -= entries.pop(next(iter(entries)))[0]
                self.total += entry[0]
            entries[key] = entry
            return entry[1]


# (identity, m, inner) -> (lhs plan, rhs plan, keyed sections) and
# (term, m, variables) -> the plan of term_table, weighed by the bytes
# their arrays may hold; (signature, identity) -> None, once it fits;
# (m, inner, kind) -> a grid or mesh, weighed by its bytes.  Identities
# and terms are keyed by value, so an equal one parsed again is planned
# once
_plans = _Kept(_PLANS, _PLAN_BYTES)
_fits = _Kept(_PLANS)
_grids = _Kept(_PLANS, _PLAN_BYTES)


def _planned(ident, m, inner):
    """The plans of ident's sides (see _plan) for carrier size m when its
    last inner variables are known, from the bounded cache _plans: flat
    grid rows when inner covers every variable, the axes of an open mesh
    under a prefix loop, and none in a sampled check (inner 0), where
    every variable is bound per batch.  A third item lists the sections
    that key a block under a prefix loop (_keyed), each as (op, depth,
    plans of its leading arguments), and is None when the identity does
    not qualify or has no prefix loop."""
    return _plans.get((ident, m, inner), lambda: _plan_sides(ident, m, inner))


def _plan_sides(ident, m, inner):
    """(bytes, (lhs plan, rhs plan, keyed sections)) for _planned.
    A plan holds at most one array of a block's m^inner values per table
    application and per side that is a bare variable, which bounds its
    bytes."""
    variables = ident.variables
    outer = len(variables) - inner
    mesh = bool(outer and inner)
    suffix = variables[outer:]
    known = dict(zip(suffix, _mesh(m, inner) if mesh else _grid(m, inner)))
    axis = {x: i for i, x in enumerate(suffix)} if mesh else {}
    sides = (ident.lhs, ident.rhs)
    keyed = _keyed(sides, set(suffix)) if mesh else None
    if keyed is not None:
        keyed = [(op, len(args), [_plan(a, m, {}, {}) for a in args])
                 for op, args in keyed]
    arrays = 2 + sum(map(_applications, sides))
    return 8 * m ** inner * arrays, (*(_plan(side, m, known, axis)
                                       for side in sides), keyed)


def _keyed(sides, suffix):
    """The distinct (op, leading arguments) of the applications whose
    sections key a block under a prefix loop, or None when an identity
    with these sides does not qualify: when a prefix variable occurs
    outside the leading arguments of every application (see the module
    docstring).  An application is keyed when its leading arguments read
    a variable and it lies in no other's leading arguments."""
    keyed = {}

    def qualifies(t):
        if isinstance(t, Variable):
            return t.name in suffix
        if isinstance(t, Constant):
            return True
        lead = 0
        while lead < len(t.args) and not term_variables(t.args[lead]) & suffix:
            lead += 1
        if any(map(term_variables, t.args[:lead])):
            keyed[t.op, t.args[:lead]] = None
        return all(map(qualifies, t.args[lead:]))

    return list(keyed) if all(map(qualifies, sides)) else None


def _applications(t):
    """The number of table applications in term t."""
    return 1 + sum(map(_applications, t.args)) if isinstance(t, Apply) else 0


def _require_fit(alg, ident):
    """check_identity_terms on alg's signature, decided once per signature
    and identity: a fit is kept, and a misfit raises its message every
    time."""
    sig = alg.signature
    _fits.get((sig, ident), lambda: (
        0, check_identity_terms(sig, ident, alg.name)))


def _digits(j, shape):
    """The digits of j in the mixed radix shape, most significant first."""
    out = []
    for size in reversed(shape):
        j, d = divmod(j, size)
        out.append(d)
    return out[::-1]


def _check_exhaustive_np(alg, ident, total):
    m = alg.size
    variables = ident.variables
    k = len(variables)
    # vectorize the longest suffix of the variables whose block fits in
    # _BLOCK tuples (at least one variable), loop the prefix
    inner = k
    while inner > 1 and m ** inner > _BLOCK:
        inner -= 1
    outer = k - inner
    # bind the planned sides: what reads only the suffix is evaluated
    # now, and each block calls what is left
    lhs, rhs, keyed = _planned(ident, m, inner)
    block = (m,) * inner
    if not outer:
        # one block: every variable is a flat grid row, so both sides
        # bind to values, compared once in lex order
        j = _first_bad(lhs(alg), rhs(alg))
        if j is None:
            return CheckReport("pass", ident.name, tuples_checked=total)
        return _confirmed_fail(alg, ident, tuple(_digits(j, block)), j + 1)
    # under a prefix loop the suffix variables are the axes of an open
    # mesh, so the values of a term span only the axes it reads
    lhs, rhs = _closure(lhs(alg)), _closure(rhs(alg))
    size = m ** inner
    checked, key, passed = 0, None, None
    for prefix in itertools.product(range(m), repeat=outer):
        env = dict(zip(variables, prefix))
        if key:
            # a block whose sections equal those of a passed block passes
            code = key(env)
            if passed[code]:
                checked += size
                continue
        left, right = lhs(env), rhs(env)
        j = _first_bad(left, right)
        if j is not None:
            import numpy as np

            # sides that miss a mesh axis compare with size 1 on it, where
            # the first failure has a 0
            shape = np.broadcast(left, right).shape or block
            j = functools.reduce(lambda acc, d: acc * m + d,
                                 _digits(j, shape), 0)
            tup = prefix + tuple(_digits(j, block))
            return _confirmed_fail(alg, ident, tup, checked + j + 1)
        if key:
            passed[code] = 1
        elif keyed is not None and not checked:
            key, passed = _section_key(alg, keyed, m ** outer, env)
        checked += size
    return CheckReport("pass", ident.name, tuples_checked=total)


def _section_key(alg, keyed, blocks, env):
    """(key, passed) for the blocks after the first, which passed at env:
    key(env) codes a block's sections (see the module docstring) in the
    mixed radix of their class counts, and passed, one byte per code,
    marks the codes of passed blocks, the first one's already.  keyed
    lists (op, depth, leading argument plans) as _plan_sides made them.
    Each keyed table's rows at its depth get class ids, equal rows equal
    ids, in one np.unique pass; (None, None) when the class counts
    multiply to blocks or more, so that no block need repeat another's."""
    import numpy as np

    classes, parts, count = {}, [], 1
    for op, depth, args in keyed:
        if (op, depth) not in classes:
            rows = np.ascontiguousarray(
                alg.op(op).array().reshape(alg.size ** depth, -1))
            row = np.dtype((np.void, rows.itemsize * rows.shape[1]))
            ids = np.unique(rows.view(row).ravel(), return_inverse=True)[1]
            classes[op, depth] = ids.tolist(), int(ids.max()) + 1
        ids, size = classes[op, depth]
        count *= size
        if count >= blocks:
            return None, None
        strides = [alg.size ** (depth - 1 - i) for i in range(depth)]
        parts.append((ids, size, [(_closure(arg(alg)), stride)
                                  for arg, stride in zip(args, strides)]))

    def key(env):
        code = 0
        for ids, size, args in parts:
            row = 0
            for f, stride in args:
                row += f(env) * stride
            code = code * size + ids[row]
        return code

    passed = bytearray(count)
    passed[key(env)] = 1
    return key, passed


def _leaves(alg):
    """The factors of alg, each product among them replaced by its own
    factors, most significant first; [alg] when it has none.  A product
    of products encodes its elements as the product of these leaves."""
    if not alg.factors:
        return [alg]
    return [leaf for f in alg.factors for leaf in _leaves(f)]


def _check_product(alg, ident, budget):
    """The exhaustive report of ident on the product alg, from one check
    of every factor (every leaf, see _leaves): an identity holds in a
    product iff it holds in every factor.

    On a failure the lex-first counterexample is the least, over the
    failing factors f, of f's lex-first counterexample with every other
    component 0.  Any failing tuple fails in some factor g; its
    g-components are, in lex order, no smaller than g's first
    counterexample, so the tuple is no smaller than that
    counterexample's embedding, which fails too.  tuples_checked is the
    sum over the factors."""
    variables = ident.variables
    leaves = _leaves(alg)
    totals = [f.size ** len(variables) for f in leaves]
    if sum(totals) > budget:
        raise BudgetError(
            f"identity {ident.name!r}: {sum(totals)} assignments of the "
            f"factors of {alg.name!r} exceed budget {budget}")
    weight, first, checked = alg.size, None, 0
    for f, total in zip(leaves, totals):
        weight //= f.size
        report = _check_exhaustive_np(f, ident, total)
        checked += report.tuples_checked
        if not report.ok:
            tup = tuple(report.counterexample[v] * weight for v in variables)
            first = tup if first is None else min(first, tup)
    if first is None:
        return CheckReport("pass", ident.name, tuples_checked=checked)
    return _confirmed_fail(alg, ident, first, checked)


def _closure(folded):
    """A bound plan's result as a closure: a value becomes one that ignores
    its env."""
    return folded if callable(folded) else lambda env: folded


def _sampled_tuples(rng: random.Random, m: int, k: int, samples: int):
    """The samples tuples of k draws rng.randrange(m) each, in order, as
    C-contiguous (k, b) int64 arrays of at most _BATCH tuples.

    randrange(m) keeps the top m.bit_length() bits of one 32-bit MT19937
    word and draws again while the result is >= m
    (Random._randbelow_with_getrandbits).  This takes the words from
    rng.getrandbits(32*W) calls of at most _BATCH words each, whose words
    come least significant first, and applies the same shift and
    rejection, so the tuples are exactly those of the scalar loop.  The
    accepted draws are gathered by index (np.flatnonzero), which is
    several times faster than a boolean mask, and each batch is copied
    into rows once so that the kernel reads contiguous columns.
    """
    import numpy as np

    bits = m.bit_length()
    if bits > 32:
        raise InputError(f"sampled mode needs a carrier below 2^32, got {m}")
    pool = np.empty(0, dtype=np.int64)  # accepted draws not yet used
    while samples > 0:
        b = min(samples, _BATCH)
        need = b * k
        chunks, have = [pool], pool.size
        while have < need:
            # a word is accepted with probability m / 2^bits >= 1/2
            words = min(((need - have) << bits) // m + 64, _BATCH)
            raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            draws = np.frombuffer(raw, dtype="<u4") >> (32 - bits)
            chunks.append(draws[np.flatnonzero(draws < m)])
            have += chunks[-1].size
        pool = np.concatenate(chunks)
        yield np.ascontiguousarray(pool[:need].reshape(b, k).T)
        pool = pool[need:]
        samples -= b


def _check_sampled(alg, ident, samples, seed):
    variables = ident.variables
    lhs, rhs, _ = _planned(ident, alg.size, 0)
    lhs, rhs = _closure(lhs(alg)), _closure(rhs(alg))
    rng = random.Random(seed)  # MT19937
    checked = 0
    for cols in _sampled_tuples(rng, alg.size, len(variables), samples):
        env = dict(zip(variables, cols))
        j = _first_bad(lhs(env), rhs(env))
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
    return IdentitySuite(f"protomodular:{n}", tuple(ids))


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
    return IdentitySuite(f"semiabelian:{n}", tuple(ids))


@functools.lru_cache(maxsize=_PLANS)
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


@functools.lru_cache(maxsize=_PLANS)
def identities_1assoc(n: int) -> tuple:
    """Parenthesis-moving associativity: the canonical nesting (inner
    application in the last slot) equals the nesting with the inner
    application moved to each of the other n slots.

    For n=1 this is exactly ordinary associativity, term-for-term the same
    equation as identity_2assoc(1).
    """
    leaves = _avars(n, "a") + _avars(n, "b") + [Variable("c")]
    variables = tuple(t.name for t in leaves)
    base = _grouped(leaves, n + 1, n)
    return tuple(
        Identity(f"1assoc:{n}:pos{j}", variables, base, _grouped(leaves, j, n))
        for j in range(1, n + 1)
    )


def suite_1assoc(n: int) -> IdentitySuite:
    return IdentitySuite(f"1assoc:{n}", identities_1assoc(n))


def suite_2assoc(n: int) -> IdentitySuite:
    return IdentitySuite(f"2assoc:{n}", (identity_2assoc(n),))


@functools.lru_cache(maxsize=_PLANS)
def identities_strict(n: int) -> tuple:
    """alpha_i(theta(a1..an, b), b) = a_i for each i."""
    avs = _avars(n, "a")
    b = Variable("b")
    variables = tuple(v.name for v in avs) + ("b",)
    return tuple(
        Identity(
            f"strict:{n}:alpha{i}", variables,
            Apply(f"alpha{i}", _theta(*avs, b), b), avs[i - 1],
        )
        for i in range(1, n + 1)
    )


def suite_strict(n: int) -> IdentitySuite:
    return IdentitySuite(f"strict:{n}", identities_strict(n))


def identity_unit_law(n: int, units=None) -> Identity:
    """theta(e1, ..., en, a) = a (a consequence of the protomodular axioms)."""
    units = default_units(n) if units is None else units
    a = Variable("a")
    return Identity(
        f"unit-law:{n}", ("a",),
        _theta(*[Constant(u) for u in units], a), a,
    )


def identity_unit_expansion(n: int, units=None) -> Identity:
    """theta(a*, b) = theta(theta(a*,e1), ..., theta(a*,en), b);
    holds in every 2-associative algebra with the protomodular units."""
    units = default_units(n) if units is None else units
    avs = _avars(n, "a")
    b = Variable("b")
    lhs = _theta(*avs, b)
    rhs = _theta(*[_theta(*avs, Constant(u)) for u in units], b)
    return Identity(
        f"unit-expansion:{n}", tuple(v.name for v in avs) + ("b",), lhs, rhs,
    )


@functools.cache
def identities_malcev() -> tuple:
    """mu(a,b,b) = a and mu(a,a,b) = b."""
    a, b = Variable("a"), Variable("b")
    return (
        Identity("malcev-right", ("a", "b"), Apply("mu", a, b, b), a),
        Identity("malcev-left", ("a", "b"), Apply("mu", a, a, b), b),
    )


def suite_malcev() -> IdentitySuite:
    return IdentitySuite("malcev", identities_malcev())


@functools.cache
def identity_malcev_assoc() -> Identity:
    """mu(a,b,mu(c,d,x)) = mu(mu(a,b,c),d,x)."""
    a, b, c, d, x = (Variable(v) for v in "abcdx")
    return Identity(
        "malcev-assoc", ("a", "b", "c", "d", "x"),
        Apply("mu", a, b, Apply("mu", c, d, x)),
        Apply("mu", Apply("mu", a, b, c), d, x),
    )


@functools.lru_cache(maxsize=_PLANS)
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
# materializes them, planning each once per carrier size

@functools.lru_cache(maxsize=_PLANS)
def term_malcev(n: int, a, b, c):
    """mu(a, b, c) = theta(alpha1(a, b), ..., alphan(a, b), c), on the
    terms a, b and c."""
    return _theta(*[Apply(f"alpha{i}", a, b) for i in range(1, n + 1)], c)


@functools.lru_cache(maxsize=_PLANS)
def term_product(n: int):
    """a * b = theta(a, ..., a, b), the group operation of a 2-associative
    semi-abelian algebra; variables a, b."""
    a = Variable("a")
    return _theta(*[a] * n, Variable("b"))


@functools.lru_cache(maxsize=_PLANS)
def term_diagonal_solution(n: int):
    """mu(c, theta(b, ..., b), b): the a with a * b = c, so the inverse of
    b at c = e; variables b, c."""
    b = Variable("b")
    return term_malcev(n, Variable("c"), _theta(*[b] * (n + 1)), b)


@functools.lru_cache(maxsize=_PLANS)
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
        "malcev-assoc", (identity_malcev_assoc(),)
    ),
    "unit-law": lambda n, units: IdentitySuite(
        f"unit-law:{n}", (identity_unit_law(n, units),)
    ),
    "unit-expansion": lambda n, units: IdentitySuite(
        f"unit-expansion:{n}", (identity_unit_expansion(n, units),)
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
    suite_arity; fewer than n units is an InputError.  A repeated call
    returns the suite built by the first."""
    n = suite_arity(spec)
    if units is not None and len(units) < n:
        raise InputError(f"suite {spec!r} needs {n} unit names, "
                         f"got {len(units)}")
    return _resolved_suite(spec.partition(":")[0], n,
                           None if units is None else tuple(units))


@functools.lru_cache(maxsize=_PLANS)
def _resolved_suite(name, n, units):
    return _SUITES[name](n, units)


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
