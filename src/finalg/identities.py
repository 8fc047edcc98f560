"""Checking universally quantified identities over finite algebras, plus
prebuilt identity suites for the protomodular / semi-abelian axioms,
higher-arity associativity, and strictness.

Exhaustive checks enumerate assignment tuples in lexicographic order over
the declared variable list, so a reported counterexample is always the
lexicographically first one.  Sampled mode draws tuples from a Mersenne
Twister seeded with a caller-supplied int seed, of any size or sign,
which is recorded in the report for reproducibility.  The tuples are
exactly those of a loop of random.Random(seed).randrange(m) calls, but
no Python generator or big int is made: the MT19937 words come from one
shared legacy numpy RandomState, seeded with the key random.seed would
use, one batch at a time under a lock (_sampled_tuples), and get
randrange's shift and rejection in numpy.  A sampled check with no
failure is no proof; its text line reads UNREFUTED (CheckReport.line).
Every failure a vectorized path reports is re-confirmed with eval_term
first.

Both modes run one numpy kernel (CheckReport.engine is "np" or
"sampled"), a partial evaluator in two steps.  _plan turns each side of
an identity into a table-free plan for one carrier size m and one block
layout: which variables are flat grid rows, which are mesh axes and
which are bound per block or per batch.  A plan is one straight-line
Python function, bind, whose arguments are the algebra's table arrays
and constant values: it evaluates at once, to an int or an array, every
subterm that reads only known variables, and returns the value of its
side, or a function block of the other variables that evaluates the
rest, statement by statement, with no recursion, closure per
application or type test.  Its source is written per term and layout
(_Writer) from generic names (t0 for a table, c0 for a constant, k0
for a plan array or stride), so no symbol name reaches it, and each
distinct source is compiled once (_made): sides of equal shape share
it.  What the plan holds for one m, each known variable's share of a
flat index and the strides, the writer computes at that m as it names
it, from a grid or mesh built for the plan and then dropped.  Plans are
built by one builder (_plan_terms) and kept in a bounded cache keyed by
the identity's value, m and the layout (_plans), so a law checked on
many algebras is planned once, and so is an equal identity built again
or parsed again from text; a check makes that one lookup, which is
handed the builder and its arguments, not a closure.  term_table's
plans are kept there too, keyed by the term's value, m and the
variables.  Like every cache here, it is declared in core's registry,
which finalg.clear_caches() empties.
Whether an identity fits a signature is one subset test of the symbol
sets each keeps (core.check_identity_terms), decided before anything
else.  An exhaustive check of a product that records its factors
(catalog._product) runs the kernel on each factor instead, since an
identity holds in a product iff it holds in every factor, and places
the first counterexample from theirs (engine "product",
_check_product).  The exhaustive check vectorizes the longest suffix
of the variables whose tuples fit in _BLOCK (one variable at least) and
loops over the prefix.  A block is a run of consecutive values of the
last prefix variable under fixed values of the others, as many as fit
in _BLOCK tuples with the suffix (at least one), so its tuples are
contiguous in lex order, its temporaries stay cache-sized on any
carrier, and a failure near the start of the tuple order ends the check
early.  An identity with no variables is one block of one tuple.

A check without a prefix loop (one block, as every small check is) reads
its suffix as flat grid rows (_grid), and so does term_table; a sampled
check binds every variable per batch, as the columns of the batch.
With every variable a grid row, both sides of a one-block check bind to
values, an int or a flat int64 array of all m^k tuples in lex order,
which are compared once, with no loop: two arrays by their bytes (far
cheaper than numpy's != on a few tuples, about 1 us dearer at
_BLOCK), an array and an int by the array's bytes against the int's,
and only sides that differ are scanned for the first failure
(_first_bad).  term_table keeps its side's array as the
table and fills one only for an int.  A table application is then one
flat index and one gather, and its plan holds the sum of its variable
arguments' shares of that index (each grid row times its stride), so
theta(a1, a2, theta(b1, b2, c)) is two gathers and one add.  Under a prefix loop a block is an
open mesh: axis 0 is the run, which block takes as an ascending int64
array, and the suffix variables are axes 1, 2, ... (_mesh: range(m)
shaped (1, ..., m, ..., 1)); a term's values span only the axes of the
variables it reads, and block takes the other prefix values as ints.
An application that reads a prefix variable is planned by _slicing.
Its leading arguments that read no axis select a sub-table of the
table's m x ... x m view by basic indexing, a view with no add and no
gather.  Then one argument that reads several axes is one gather into
that view; arguments that read one axis each, in increasing axis order,
are takes of rows along their axes (an argument that is a suffix
variable, its axis's own, needs none); arguments that read only the run
pick one row of the sub-table per run value, a (run, m) array that the
one argument after them, reading only suffix axes, indexes with one
take; and when the last arguments are the suffix variables of the last
axes in order (_tail), the others' flat index, computed on the block's
shape without those axes, takes rows of the table.  So what reads the
run is computed on small shapes, and one take or gather fills the
block.  Any other application keeps the flat index.  The sides compare
by broadcasting, and a block's first failure is placed in the lex order
of the whole block.

Under a prefix loop a prefix may be skipped by its sections.  The
leading arguments of an application are its longest run of first
arguments that read no suffix variable; they select the sub-table
T[s1..sl] a prefix's suffix tuples read, its section.  When every
occurrence of a prefix variable lies inside some application's leading
arguments (decided once per plan, by _keyed; 2assoc:n, 1assoc:n and
malcev-assoc qualify), the values at a prefix depend on it only through
the sections of the outermost such applications, so a prefix whose
sections all equal those of a prefix that passed passes too.  Once the
first run has passed (a check that fails at once does no section work),
_section_classes gives the rows of each keyed table at their depth
class ids, equal rows equal ids, in one np.unique pass.  A prefix's
code is the mixed-radix number of its class ids, computed for every
prefix in numpy (_representatives): the leading arguments are planned
with the prefix variables bound as the columns of a chunk of whole rows
of prefixes, as in a sampled check.  Only the
first prefix of each code in lex order is evaluated, and those that
share the values of all but the last prefix variable run as one block,
so a skipped prefix costs no Python work, and a failure at prefix r, at
its j-th suffix tuple, has checked r * m^inner + j + 1 tuples.  Every
prefix before the first failing one passed or shares its code with an
earlier one that did, so lex order, the first counterexample and
tuples_checked are those of the full loop.  The memo is used only when
the class counts multiply to fewer than the m^outer prefixes, since
otherwise no prefix need repeat another.  The paper's theorem is why it
pays: a 2-associative semi-abelian theta is theta(a*, b) = gamma(a*) * b
in a group, so its m^n sections theta(a*, -) are left translations, at
most m of them distinct, and the Mal'cev term a * b^-1 * c has at most m
distinct sections mu(a, b, -) among its m^2.  Where the sections all
differ, as in a random table or a group's associativity, every prefix
runs.

A law list checked on one algebra (check_laws: require_laws, the group
preconditions, verify-paper's suites and search's witness check) checks
each law through the plan its own check keeps: a law over one block
makes the one _plans lookup check_identity makes, of the same key, so
the two share the entry, its arrays and its sources.  In the list the
law reads its own tables and constants, and its bound sides are
compared by the one code a single check runs (_one_block).  A law that
passes builds no report; the first that fails gets check_identity's
report.  A law over several blocks or over the budget, a misfit and
every law on a product that records its factors is checked by
check_identity at its place, and a value a law cannot read raises there
what check_identity raises, so what a list raises, and in what order,
is what its per-law loop raises.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
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
    kept,
    memo,
    term_variables,
    unit_constants,
    validate_algebra,
)

_BLOCK = 1 << 14
_PLANS = 256  # plans, compiled sources and built identities kept
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

    Exhaustive mode refuses when m^k exceeds the budget (BudgetError).
    It decides a product that records its factors through them (engine
    "product", see _check_product), and the budget then bounds the
    factors' tuples.  Sampled mode refuses more samples than the budget
    before it draws any; its tuples are those of random.Random(seed), for
    any int seed, and a sampled-pass proves nothing.  An identity that
    does not fit alg's signature, an unknown mode, samples < 1 or a seed
    that is not an int is an InputError.  The fit is decided first, so a
    misfit raises the same SymbolError in every mode and at any budget.
    """
    check_identity_terms(alg.signature, ident, alg.name)
    if mode == "exhaustive":
        if alg.factors:
            return _check_product(alg, ident, budget)
        return _check_exhaustive_np(
            alg, ident, exhaustive_assignments(ident, alg.size, budget))
    if mode != "sampled":
        raise InputError(f"unknown mode {mode!r}")
    if samples < 1:
        raise InputError(f"sampled mode needs samples >= 1, got {samples}")
    if samples > budget:
        raise BudgetError(f"identity {ident.name!r}: {samples} samples "
                          f"exceed budget {budget}")
    return _check_sampled(alg, ident, samples, seed)


def exhaustive_assignments(ident: Identity, m: int,
                           budget: int = EXHAUSTIVE_BUDGET) -> int:
    """The m^k assignments an exhaustive check of ident over m elements
    enumerates, or the BudgetError check_identity refuses it with when
    they exceed budget, so a caller can refuse a check before building
    its algebra; the caller names any way to raise the budget."""
    k = len(ident.variables)
    total = m ** k
    if total > budget:
        raise BudgetError(f"identity {ident.name!r}: {m}^{k} assignments "
                          f"exceed budget {budget}")
    return total


def _plan(t, m, known, late, symbols):
    """The table-free plan of term t over carrier size m: a function
    bind(*values) of the values of symbols, the identity's op tables as
    arrays and then its constants as ints (see _arguments), that
    evaluates t elementwise as far as known allows.  known maps variables
    to int64 arrays: flat arrays all of one length or, under a prefix
    loop, the axes of an open mesh in their order (see the module
    docstring).  late lists the other variables, arrays per batch or,
    with known, ints per block but the last, whose run of values is an
    array on mesh axis 0; it is None in a one-block layout, where every
    variable is known.

    With late None bind returns t's value, an int or an array: constants
    and subterms that read no array stay ints and broadcast against the
    arrays.  Otherwise it returns block(*late), which evaluates the rest
    from the late variables' values.  Both are one straight-line function,
    written by _Writer and compiled once per distinct source (_made):
    what reads only known variables and constants is computed once per
    bind, and block holds only what reads a late variable.  The plan
    holds what depends on t, m and the layout alone, the values the
    writer computed: each known variable argument's share of its
    application's flat index, summed once, the strides and the m x ... x
    m shapes of the tables.  It holds no table and no constant value, so
    one plan serves every algebra on m elements."""
    w = _Writer(m, known, late, symbols)
    make = _made(w.source(w.value(t)[0]))
    return make(*w.values)


class _Writer:
    """Writes the source of one side's evaluator for _plan at carrier
    size m, in a layout whose known variables are the axes of a mesh
    when there are late ones too, else flat rows.  The source names
    nothing from the input: tables are t0, t1, ..., constants c0, ...,
    late variables x0, ..., values v0, ..., and the plan's arrays,
    strides and slicings are k0, ..., arguments of the function it
    defines, make(k0, ...), which returns bind; values holds what each k
    is at m, computed when the writer names it.  So equal term shapes
    write equal sources at any m, and _made compiles each source once."""

    def __init__(self, m, known, late, symbols):
        self.m, self.known = m, known
        # under a prefix loop the last late variable spans a run of values:
        # mesh axis 0, and the known variables axes 1, 2, ...
        mesh = bool(known and late)
        self.spanned = late[-1] if mesh else None
        self.axis = ({x: i for i, x in enumerate((self.spanned, *known))}
                     if mesh else {})
        self.blockwise = late is not None
        self.late = {x: f"x{i}" for i, x in enumerate(late or ())}
        ops, constants = symbols
        self.tables = {op: f"t{i}" for i, op in enumerate(ops)}
        self.constants = {c: f"c{i}" for i, c in enumerate(constants)}
        self.values, self.lines, self.views = [], ([], []), {}

    def const(self, value):
        """The name of a plan-time value."""
        self.values.append(value)
        return f"k{len(self.values) - 1}"

    def share(self, parts):
        """The name of the sum of known[x] * m^e over parts' (x, e): the
        known variables' share of a flat index."""
        total = None
        for x, exp in parts:
            part = self.known[x] * self.m ** exp
            total = part if total is None else total + part
        return self.const(total)

    def emit(self, late, expr):
        """The name of a new value, computed by expr per block if late."""
        bind, block = self.lines
        name = f"v{len(bind) + len(block)}"
        (block if late else bind).append(f"{name} = {expr}")
        return name

    def value(self, t):
        """(name, whether it is late, whether it is an array) of t's value."""
        if isinstance(t, Variable):
            if t.name in self.known:  # a side that is a known variable
                return self.share(((t.name, 0),)), False, True
            if t.name == self.spanned:  # its run as mesh axis 0
                if None not in self.views:
                    column = (-1,) + (1,) * (len(self.axis) - 1)
                    self.views[None] = self.emit(True, "{}.reshape({})".format(
                        self.late[t.name], self.const(column)))
                return self.views[None], True, True
            return self.late[t.name], True, not self.axis
        if isinstance(t, Constant):
            return self.constants[t.name], False, False
        if self.axis and not term_variables(t) <= self.known.keys():
            sliced = self.sliced(t)
            if sliced is not None:
                return sliced
        return self.indexed(t)

    def indexed(self, t):
        """An application read at its flat index.  The known variable
        arguments' shares of the index are summed when the plan is built;
        every other argument adds its value times its stride, once per
        bind or per block, as early as its value is known."""
        last, share, array = len(t.args) - 1, [], False
        terms = ([], [])  # the parts of the index known at bind, per block
        for i, a in enumerate(t.args):
            if isinstance(a, Variable) and a.name in self.known:
                share.append((a.name, last - i))
                continue
            name, late, is_array = self.value(a)
            array |= is_array
            terms[late].append(
                name if i == last else
                f"{name} * {self.const(self.m ** (last - i))}")
        if share:
            array = True
            terms[0].insert(0, self.share(share))
        read = "{}[{}]" if array else "{}.item({})"
        table = self.tables[t.op]
        bind, block = terms
        if not block:
            return (self.emit(False, read.format(table, " + ".join(bind))),
                    False, array)
        if len(bind) > 1:
            bind = [self.emit(False, " + ".join(bind))]
        return (self.emit(True, read.format(table, " + ".join(
            bind + block))), True, array)

    def sliced(self, t):
        """A late dense application under a prefix loop read by its
        slicing (see the module docstring), or None for the flat index.
        Its value has an axis per mesh axis, the spanned one only if some
        argument reads it."""
        axis = self.axis
        axes = [tuple(sorted(axis[x] for x in term_variables(a) if x in axis))
                for a in t.args]
        own = [isinstance(a, Variable) and a.name in self.known
               for a in t.args]
        slicing = _slicing(axes, own, len(axis) - 1)
        if slicing is None:
            return None
        if slicing == "rows":
            return self.rows(t, _tail(axes, own, len(axis) - 1))
        if t.op not in self.views:
            self.views[t.op] = self.emit(False, "{}.reshape({})".format(
                self.tables[t.op], self.const((self.m,) * len(t.args))))
        view = self.views[t.op]
        lead = 0
        while lead < len(axes) and not axes[lead]:
            lead += 1
        scalars = [self.value(a)[0] for a in t.args[:lead]]
        head = f"{view}[{', '.join(scalars)}]" if scalars else view
        if slicing == "gather":
            index = self.value(t.args[-1])[0]
            return self.emit(True, f"{head}[{index}]"), True, True
        if slicing == "span":
            # the arguments on the run pick a row of the sub-table per
            # run value, (run, m), which the last argument's array indexes
            spans = t.args[lead:-1]
            if len(spans) > 1:
                rows = self.const((self.m ** len(spans), self.m))
                head += f".reshape({rows})"
            index = self.flat([self.run(a) for a in spans])
            if len(spans) > 1:
                index = self.emit(True, index)
            last = self.value(t.args[-1])[0]
            return (self.emit(True, f"{head}.take({index}, axis=0)"
                                    f".take({last}, axis=1)"), True, True)
        # the sub-table is a view with each argument's axis in place; an
        # argument that is not its axis's own variable takes its rows
        used = {ax for ax, in axes[lead:]}
        shift = 0 if 0 in used else 1  # no spanned axis unless read
        index = "".join(f"{s}, " for s in scalars)
        if used:
            layout = self.const(tuple(
                slice(None) if i in used else None
                for i in range(shift, len(axis))))
            index = f"({index}) + {layout}" if scalars else layout
        expr = f"{view}[{index}]"
        for a, is_own, (ax,) in zip(t.args[lead:], own[lead:], axes[lead:]):
            if not is_own:
                expr += ".take({}, axis={})".format(
                    self.run(a), self.const(ax - shift))
        return self.emit(True, expr), True, bool(used)

    def rows(self, t, j):
        """An application whose last j arguments are the own variables of
        the last j mesh axes: the others' flat index, on the block's shape
        without those axes, takes rows of m^j entries from the table."""
        head = len(t.args) - j
        index = self.flat([self.value(a)[0] for a in t.args[:head]])
        if head > 1:
            index = self.emit(True, index)
        if (t.op, head) not in self.views:
            self.views[t.op, head] = self.emit(False, "{}.reshape({})".format(
                self.tables[t.op], self.const((self.m ** head, self.m ** j))))
        rows, shape = self.views[t.op, head], self.const((self.m,) * j)
        value = self.emit(True, f"{rows}.take({index}, axis=0)"
                                f".reshape({index}.shape[:-{j}] + {shape})")
        return value, True, True

    def flat(self, names):
        """The flat index of a table's leading arguments, given their
        values' names."""
        last = len(names) - 1
        return " + ".join(name if i == last else
                          f"{name} * {self.const(self.m ** (last - i))}"
                          for i, name in enumerate(names))

    def run(self, a):
        """The values of an argument that reads at most one mesh axis, as
        a one-dimensional array along it: the spanned variable's run is
        the block's own argument."""
        if isinstance(a, Variable) and a.name == self.spanned:
            return self.late[a.name]
        name, late, _ = self.value(a)
        return self.emit(late, f"{name}.ravel()")

    def source(self, value):
        """The source of make, whose bind returns value, or block when
        the layout has late variables."""
        bind, block = self.lines
        out = ["def make({}):".format(", ".join(
                   f"k{i}" for i in range(len(self.values)))),
               "    def bind({}):".format(", ".join(
                   [*self.tables.values(), *self.constants.values()]))]
        out += [f"        {line}" for line in bind]
        if self.blockwise:
            out.append("        def block({}):".format(
                ", ".join(self.late.values())))
            out += [f"            {line}" for line in block]
            out += [f"            return {value}", "        return block"]
        else:
            out.append(f"        return {value}")
        out.append("    return bind")
        return "\n".join(out)


@memo(_PLANS)
def _made(source):
    """The make function of a side's source (see _Writer), compiled once
    per source: sides of equal shape share it."""
    namespace = {"__builtins__": {}}
    exec(compile(source, "<identity kernel>", "exec"), namespace)
    return namespace["make"]


def _symbols(terms):
    """(ops, constants) the terms read, each in order of first use: the
    symbols a plan's bind takes the values of."""
    ops, constants = {}, {}

    def walk(t):
        if isinstance(t, Constant):
            constants[t.name] = None
        elif isinstance(t, Apply):
            ops[t.op] = None
            for a in t.args:
                walk(a)

    for t in terms:
        walk(t)
    return tuple(ops), tuple(constants)


def _arguments(alg, symbols):
    """The values a plan's bind takes: alg's tables of the ops of symbols
    as arrays, then its values of their constants as ints."""
    ops, constants = symbols
    values = []  # two plain loops: cheaper than comprehensions here
    for op in ops:
        values.append(alg.op(op).array())
    for c in constants:
        values.append(int(alg.constant(c)))
    return values


def _slicing(axes, own, last):
    """How a late dense application reads its table under a prefix loop,
    from the mesh axes each argument reads (a sorted tuple, empty for a
    scalar; axis 0 is the spanned variable's, last the last suffix
    variable's) and whether each argument is a suffix variable, its
    axis's own: "take" when every argument that reads an axis reads one,
    each a later axis than the one before; "gather" when one argument
    reads any; "span" when arguments that read the spanned axis alone are
    followed by one that reads suffix axes alone; "rows" when the last
    arguments are the own variables of the last axes (_tail); and None
    (the flat index) for any other shape.  All but "rows" need the
    scalars to lead."""
    lead = 0
    while lead < len(axes) and not axes[lead]:
        lead += 1
    rest = axes[lead:]
    if all(len(ax) == 1 for ax in rest) and all(
            p < q for (p,), (q,) in zip(rest, rest[1:])):
        return "take"
    if len(rest) == 1:
        return "gather"
    if all(ax == (0,) for ax in rest[:-1]) and rest[-1] and 0 not in rest[-1]:
        return "span"
    return "rows" if _tail(axes, own, last) else None


def _tail(axes, own, last):
    """The number j of last arguments that are the own variables of the
    mesh axes last - j + 1, ..., last, in order, when no other argument
    reads those axes; else 0."""
    j = 0
    while j < len(axes) and own[-1 - j] and axes[-1 - j] == (last - j,):
        j += 1
    if any(ax and ax[-1] > last - j for ax in axes[:len(axes) - j]):
        return 0
    return j


def _one_block(alg, ident, lhs, rhs):
    """The FAIL report of a one-block check of ident on alg whose sides
    bound to lhs and rhs, or None when they agree at every tuple.  Two
    ints compare once; two arrays by their bytes, and an array and an int
    by the array's bytes against the int's 8 bytes repeated, when the int
    fits int64 (an unvalidated constant may not).  Only sides that differ
    by that test are scanned for the first failure (_first_bad)."""
    if isinstance(lhs, int):
        if isinstance(rhs, int):
            if lhs == rhs:
                return None
        elif _filled(rhs, lhs):
            return None
    elif isinstance(rhs, int):
        if _filled(lhs, rhs):
            return None
    elif lhs.tobytes() == rhs.tobytes():
        return None
    j = _first_bad(lhs, rhs)
    if j is None:
        return None
    return _confirmed_fail(alg, ident, tuple(_digits(
        j, (alg.size,) * len(ident.variables))), j + 1, "np")


def _filled(side, value):
    """Whether the int64 array side holds the int value at every entry,
    by their bytes; False when value does not fit int64."""
    try:
        return side.tobytes() == value.to_bytes(
            8, sys.byteorder, signed=True) * side.size
    except OverflowError:
        return False


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


def _confirmed_fail(alg, ident, tup, checked, engine, seed=None):
    """engine's FAIL report for tup, after eval_term confirms that tup
    violates ident; a vectorized verdict it contradicts is an EvalError."""
    env = dict(zip(ident.variables, tup))
    if eval_term(alg, ident.lhs, env) == eval_term(alg, ident.rhs, env):
        raise EvalError(
            f"identity {ident.name!r}: the vectorized kernel reports a "
            f"failure at {env} that eval_term does not confirm"
        )
    return CheckReport("fail", ident.name, counterexample=env,
                       tuples_checked=checked, seed=seed, engine=engine)


def _grid(m, inner):
    """The m^inner tuples over range(m) in lex order, as an (inner,
    m^inner) int64 array, built for one plan, which keeps the shares
    computed from its rows and not the grid.  Row i repeats each digit
    m^(inner-1-i) times in turn, so no array has more than three
    dimensions (numpy 1.x refuses more than 32 and 2.x more than 64, and
    a one-element carrier admits any inner)."""
    import numpy as np

    grid = np.empty((inner, m ** inner), dtype=np.int64)
    for i, row in enumerate(grid):
        row.reshape(m ** i, m, -1)[...] = np.arange(m)[:, None]
    return grid


def _mesh(m, inner):
    """The open mesh of the m^inner tuples over range(m), built for one
    plan as _grid is: axis i is range(m) as an int64 array of shape
    (1, ..., m, ..., 1), m at i, so arrays of the values of terms
    broadcast to lex order."""
    import numpy as np

    return np.ix_(*[np.arange(m, dtype=np.int64)] * inner)


def term_table(alg: FiniteAlgebra, term, variables) -> DenseTable:
    """The table of term over variables, row-major in their order, from
    the identity kernel; a term that reads some or none of the variables
    is broadcast to all m^k rows, so a constant term works too.  A term
    that reads a variable outside variables is an EvalError, raised when
    it is planned: a kept plan of (term, m, variables) passed."""
    m, variables = alg.size, tuple(variables)
    k = len(variables)
    bind, _, symbols = _plans.get((term, m, variables), _plan_terms,
                                  (term,), variables, m, k)
    values = bind(*_arguments(alg, symbols))
    if isinstance(values, int):  # every other value is a flat m^k array
        import numpy as np

        values = np.full(m ** k, values, dtype=np.int64)
    return DenseTable.of_array(k, values)


# (identity, m, inner) -> (lhs plan, rhs plan, keyed sections, symbols)
# of a check and of a law in a list, and (term, m, variables) -> (plan,
# None, symbols) of term_table, both from _plan_terms and weighed by the
# bytes their arrays may hold.  Identities and terms are keyed by value,
# so an equal one parsed again is planned once
_plans = kept(_PLANS, _PLAN_BYTES)


def _plan_terms(terms, variables, m, inner):
    """(bytes, (*plans of terms, keyed sections, symbols)), the value
    _plans keeps, when the last inner of variables are known: flat grid
    rows when inner covers every variable, the axes of an open mesh
    under a prefix loop, and none in a sampled check (inner None), where
    every variable is bound per batch.  The keyed sections are those
    that key a prefix under a prefix loop (_keyed), each as (op, depth,
    plans of its leading arguments), or None when the terms do not
    qualify or have no prefix loop; symbols are the terms' own
    (_symbols), what every plan's bind takes the values of (_arguments).
    A term that reads a variable outside variables is an EvalError.  A plan
    holds at most one array of m^inner values, a share on the suffix
    mesh or grid, per table application and per term that is a bare
    variable, which bounds its bytes.  It holds nothing per run of the last prefix variable, so the
    run's length, which a block's temporaries scale with, is no part of
    its weight."""
    unbound = set().union(*map(term_variables, terms)) - set(variables)
    if unbound:
        raise EvalError(f"term reads unbound variables {sorted(unbound)}")
    if inner is None:  # sampled: every variable is bound per batch
        late, suffix, inner = variables, (), 0
    else:
        outer = len(variables) - inner
        late, suffix = variables[:outer] or None, variables[outer:]
    mesh = bool(late and suffix)
    known = dict(zip(suffix, (_mesh if mesh else _grid)(m, inner)))
    symbols = _symbols(terms)
    keyed = _keyed(terms, set(suffix)) if mesh else None
    if keyed is not None:
        # leading arguments read only prefix variables, bound as the
        # columns of a chunk of prefixes (see _representatives)
        keyed = [(op, len(args), [_plan(a, m, {}, late, symbols)
                                  for a in args])
                 for op, args in keyed]
    plans = [_plan(t, m, known, late, symbols) for t in terms]
    arrays = len(terms) + sum(map(_applications, terms))
    return 8 * m ** inner * arrays, (*plans, keyed, symbols)


def _keyed(sides, suffix):
    """The distinct (op, leading arguments) of the applications whose
    sections key a prefix under a prefix loop, or None when an identity
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


def _digits(j, shape):
    """The digits of j in the mixed radix shape, most significant first."""
    out = []
    for size in reversed(shape):
        j, d = divmod(j, size)
        out.append(d)
    return out[::-1]


def _check_exhaustive_np(alg, ident, total):
    """The report (engine "np") of ident on alg over its total = m^k
    tuples, all of them unless one fails."""
    m, variables = alg.size, ident.variables
    k = inner = len(variables)
    # vectorize the longest suffix of the variables whose block fits in
    # _BLOCK tuples (at least one variable), loop the prefix
    size = total  # m^inner
    while inner > 1 and size > _BLOCK:
        inner, size = inner - 1, size // m
    # bind the planned sides: what reads only the suffix is evaluated
    # now, and each block evaluates what is left
    lhs, rhs, keyed, symbols = _plans.get(
        (ident, m, inner), _plan_terms, (ident.lhs, ident.rhs), variables,
        m, inner)
    args = _arguments(alg, symbols)
    lhs, rhs = lhs(*args), rhs(*args)
    if inner == k:
        # one block: every variable is a flat grid row, so each side
        # binds to an int or a flat int64 array of all m^k tuples in lex
        # order
        report = _one_block(alg, ident, lhs, rhs)
        if report is not None:
            return report
        # (verdict, name, counterexample, tuples_checked, seed, detail,
        # engine) by position: keywords would cost more than the compare
        return CheckReport("pass", ident.name, None, total, None, None, "np")
    import numpy as np

    # under a prefix loop a block is a run of at most span values of the
    # last prefix variable under fixed values of the others, mesh axis 0
    # before the suffix variables' axes, so its tuples are contiguous in
    # lex order
    outer = k - inner
    span = min(max(_BLOCK // size, 1), m)

    def failure(prefix, run):
        """The FAIL report of the block of run under prefix, or None."""
        left, right = lhs(*prefix, run), rhs(*prefix, run)
        j = _first_bad(left, right)
        if j is None:
            return None
        # sides that miss an axis compare with size 1 on it, where the
        # first failure has a 0
        shape = np.broadcast(left, right).shape
        at, *digits = _digits(j, (1,) * (inner + 1 - len(shape)) + shape)
        tup = (*prefix, int(run[at]), *digits)
        r = functools.reduce(lambda acc, d: acc * m + d, tup, 0)
        return _confirmed_fail(alg, ident, tup, r + 1, "np")

    runs = [np.arange(lo, min(lo + span, m), dtype=np.int64)
            for lo in range(0, m, span)]
    report = failure((0,) * (outer - 1), runs[0])
    if report is not None:
        return report
    blocks = ((prefix, run)
              for prefix in itertools.product(range(m), repeat=outer - 1)
              for run in runs)
    next(blocks)  # the first run, which has passed
    if keyed is not None:
        # evaluate one prefix per section class, in runs of a row
        classes = _section_classes(alg, keyed, m ** outer, args)
        if classes is not None:
            blocks = _representatives(*classes, m, outer, span)
    for prefix, run in blocks:
        report = failure(prefix, run)
        if report is not None:
            return report
    return CheckReport("pass", ident.name, tuples_checked=total, engine="np")


def check_laws(alg: FiniteAlgebra, laws,
               budget: int = EXHAUSTIVE_BUDGET) -> CheckReport | None:
    """The exhaustive report of the first law of laws that fails on alg,
    or None when every law passes: the first report that is not ok of a
    loop of check_identity(alg, law, budget=budget) over laws, which
    raises what that loop raises, in its order.

    A law over one block that fits alg's signature, on an alg that
    records no factors, is bound and compared as check_identity does it:
    one _plans lookup of the entry its check keeps, a read of its own
    tables and constants, and _one_block; a passing law builds no
    report, and a value it cannot read raises what check_identity
    raises.  Any other law, a misfit or one over budget, is checked by
    check_identity at its place in the list."""
    m, fits = alg.size, alg.signature._symbols
    # a law over more tuples goes to check_identity, and so does every
    # law of a product that records its factors
    most = -1 if alg.factors else min(_BLOCK, budget)
    for law in laws:
        k = len(law.variables)
        if m ** k > most or not law._symbols <= fits:
            report = check_identity(alg, law, budget=budget)
            if not report.ok:
                return report
            continue
        lhs, rhs, _, symbols = _plans.get(
            (law, m, k), _plan_terms, (law.lhs, law.rhs), law.variables,
            m, k)
        args = _arguments(alg, symbols)
        report = _one_block(alg, law, lhs(*args), rhs(*args))
        if report is not None:
            return report
    return None


def _section_classes(alg, keyed, blocks, args):
    """(parts, count) that code a prefix's sections (see the module
    docstring) in the mixed radix of their class counts, count codes in
    all, or None when count would be blocks (the prefixes) or more, so
    that no prefix need repeat another's.  keyed lists (op, depth,
    leading argument plans) as _plan_terms made them, and args, the
    values of the identity's symbols, binds those plans; each part is
    (class ids, class count, [(bound plan, stride)]).  Each keyed table's
    rows at its depth get class ids, equal rows equal ids, in one
    np.unique pass."""
    import numpy as np

    classes, parts, count = {}, [], 1
    for op, depth, plans in keyed:
        if (op, depth) not in classes:
            rows = np.ascontiguousarray(
                alg.op(op).array().reshape(alg.size ** depth, -1))
            row = np.dtype((np.void, rows.itemsize * rows.shape[1]))
            ids = np.unique(rows.view(row).ravel(), return_inverse=True)[1]
            classes[op, depth] = ids.ravel(), int(ids.max()) + 1
        ids, size = classes[op, depth]
        count *= size
        if count >= blocks:
            return None
        strides = [alg.size ** (depth - 1 - i) for i in range(depth)]
        parts.append((ids, size, [(plan(*args), stride)
                                  for plan, stride in zip(plans, strides)]))
    return parts, count


def _representatives(parts, count, m, outer, span):
    """(prefix, run) of the blocks that evaluate the first prefix of each
    section class in lex order, but those of the first run, which has
    passed: prefix holds the outer values but the last as ints, and run
    the last's values, ascending, of first prefixes that share prefix,
    at most span of them.  The codes of _section_classes are computed
    for chunks of whole rows of at most _BLOCK prefixes (one row at
    least), whose values are the columns the leading argument plans
    take; a code first seen in a chunk is first seen at its least index
    there."""
    import numpy as np

    blocks = m ** outer
    step = max(_BLOCK // m, 1) * m
    seen = np.zeros(count, dtype=bool)
    for lo in range(0, blocks, step):
        flat = np.arange(lo, min(lo + step, blocks), dtype=np.int64)
        cols = [flat // m ** (outer - 1 - i) % m for i in range(outer)]
        code = 0
        for ids, size, rows in parts:
            row = 0
            for f, stride in rows:
                row = row + f(*cols) * stride
            code = code * size + ids[row]
        codes, first = np.unique(code, return_index=True)
        first = np.sort(first[~seen[codes]])
        seen[codes] = True
        if not lo:
            first = first[first >= span]
        # first prefixes of one row, in pieces of at most span
        cuts = np.flatnonzero(np.diff(first // m)) + 1
        for group in np.split(first, cuts):
            if not group.size:
                continue
            prefix = tuple(col.item(group[0]) for col in cols[:-1])
            run = cols[-1][group]
            for i in range(0, run.size, span):
                yield prefix, run[i:i + span]


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
        return CheckReport("pass", ident.name, tuples_checked=checked,
                           engine="product")
    return _confirmed_fail(alg, ident, first, checked, "product")


# the MT19937 generator every sampled check draws its words from, made on
# first use (numpy.random is imported only then), and the lock that makes
# a check's seeding or restoring, drawing and saving of it atomic
_mt = None
_mt_lock = threading.Lock()


def _seed_key(seed):
    """The key random.seed(seed) hands MT19937's init_by_array for an int
    seed: the 32-bit words of abs(seed), least significant first, at
    least one.  Any other seed is an InputError."""
    if not isinstance(seed, int):
        raise InputError(f"sampled mode needs an integer seed, got {seed!r}")
    n = abs(seed)
    return [(n >> s) & 0xFFFFFFFF
            for s in range(0, max(n.bit_length(), 1), 32)]


def _sampled_tuples(seed: int, m: int, k: int, samples: int):
    """The samples tuples of k draws random.Random(seed).randrange(m)
    each, in order, as C-contiguous (k, b) int64 arrays of at most _BATCH
    tuples.

    randrange(m) keeps the top m.bit_length() bits of one 32-bit MT19937
    word and draws again while the result is >= m
    (Random._randbelow_with_getrandbits).  This takes the words from the
    legacy numpy RandomState _mt, seeded with random.seed's key (a list:
    one ndarray element would be seeded by init_genrand instead), whose
    randint(0, 2^32) with a uint32 dtype gives one MT19937 word per value,
    in the order getrandbits(32) gives them, and applies the same shift
    and rejection, so the tuples are exactly those of the scalar loop.  A
    batch's words are drawn when it is, under _mt_lock, and the
    generator's state is saved after them when another batch follows and
    restored before its words, so threads may share _mt and a check that
    fails early draws no further words.  The accepted draws are gathered
    by index (np.flatnonzero), which is several times faster than a
    boolean mask, and kept as uint32 until each batch is copied into
    int64 rows, in one pass, so that the kernel reads contiguous columns.
    """
    global _mt
    import numpy as np

    key = _seed_key(seed)
    bits = m.bit_length()
    if bits > 32:
        raise InputError(f"sampled mode needs a carrier below 2^32, got {m}")
    pool = np.empty(0, dtype=np.uint32)  # accepted draws not yet used
    state = None  # the generator's state after the last words drawn
    while samples > 0:
        b = min(samples, _BATCH)
        need = b * k
        chunks, have = [pool], pool.size
        if have < need:
            with _mt_lock:
                if _mt is None:
                    _mt = np.random.RandomState(0)
                if state is None:
                    _mt.seed(key)
                else:
                    _mt.set_state(state)
                while have < need:
                    # a word is accepted with probability m / 2^bits >= 1/2
                    words = min(((need - have) << bits) // m + 64, _BATCH)
                    draws = _mt.randint(0, 1 << 32, words,
                                        dtype=np.uint32) >> (32 - bits)
                    chunks.append(draws[np.flatnonzero(draws < m)])
                    have += chunks[-1].size
                if samples > b:
                    state = _mt.get_state()
        pool = np.concatenate(chunks)
        yield np.ascontiguousarray(pool[:need].reshape(b, k).T,
                                   dtype=np.int64)
        pool = pool[need:]
        samples -= b


def _check_sampled(alg, ident, samples, seed):
    lhs, rhs, _, symbols = _plans.get(
        (ident, alg.size, None), _plan_terms, (ident.lhs, ident.rhs),
        ident.variables, alg.size, None)
    args = _arguments(alg, symbols)
    lhs, rhs = lhs(*args), rhs(*args)
    checked = 0
    for cols in _sampled_tuples(seed, alg.size, len(ident.variables), samples):
        j = _first_bad(lhs(*cols), rhs(*cols))
        if j is not None:
            tup = tuple(int(x) for x in cols[:, j])
            return _confirmed_fail(alg, ident, tup, checked + j + 1,
                                   "sampled", seed)
        checked += cols.shape[1]
    return CheckReport("sampled-pass", ident.name, tuples_checked=samples,
                       seed=seed, engine="sampled")


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


@memo(_PLANS)
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


@memo(_PLANS)
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


@memo(_PLANS)
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


@memo()
def identities_malcev() -> tuple:
    """mu(a,b,b) = a and mu(a,a,b) = b."""
    a, b = Variable("a"), Variable("b")
    return (
        Identity("malcev-right", ("a", "b"), Apply("mu", a, b, b), a),
        Identity("malcev-left", ("a", "b"), Apply("mu", a, a, b), b),
    )


@memo()
def identity_malcev_assoc() -> Identity:
    """mu(a,b,mu(c,d,x)) = mu(mu(a,b,c),d,x)."""
    a, b, c, d, x = (Variable(v) for v in "abcdx")
    return Identity(
        "malcev-assoc", ("a", "b", "c", "d", "x"),
        Apply("mu", a, b, Apply("mu", c, d, x)),
        Apply("mu", Apply("mu", a, b, c), d, x),
    )


@memo(_PLANS)
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

@memo(_PLANS)
def term_malcev(n: int, a, b, c):
    """mu(a, b, c) = theta(alpha1(a, b), ..., alphan(a, b), c), on the
    terms a, b and c."""
    return _theta(*[Apply(f"alpha{i}", a, b) for i in range(1, n + 1)], c)


@memo(_PLANS)
def term_product(n: int):
    """a * b = theta(a, ..., a, b), the group operation of a 2-associative
    semi-abelian algebra; variables a, b."""
    a = Variable("a")
    return _theta(*[a] * n, Variable("b"))


@memo(_PLANS)
def term_diagonal_solution(n: int):
    """mu(c, theta(b, ..., b), b): the a with a * b = c, so the inverse of
    b at c = e; variables b, c."""
    b = Variable("b")
    return term_malcev(n, Variable("c"), _theta(*[b] * (n + 1)), b)


@memo(_PLANS)
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


@memo()
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
    rep = check_laws(alg, laws, budget=math.inf)
    if rep is not None:
        cx = ", ".join(f"{k}={v}" for k, v in rep.counterexample.items())
        raise error(f"{alg.name}: {rep.name} fails at {cx}")


# ---------------------------------------------------------------------------
# functional characterization of 2-associativity

def theta_section(alg: FiniteAlgebra, b: int):
    """The n-ary section theta(-,...,-,b) as a flat tuple over A^n: the
    entries of theta whose last argument is b, every m-th from b."""
    return alg.op("theta").entries[b::alg.size]


def check_2assoc_functional(alg: FiniteAlgebra, n: int) -> CheckReport:
    """Decide 2-associativity through the map algebra on A^n -> A.

    Materializes every section theta_b, composes sections inside
    Map(A^n, A), and compares with the section of theta(b1,...,bn,c)
    pointwise.  Always agrees with the direct identity check.  A
    composite is one map of theta_c over the flat indices of the points
    (theta(x*, b1), ..., theta(x*, bn)), compared with its target as one
    tuple; the points are walked one by one only to place a mismatch.
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
    entries = tbl.entries
    sections = [entries[b::m] for b in range(m)]
    checked = 0
    for i, bs in enumerate(itertools.product(range(m), repeat=n)):
        # the flat index of (theta(x*, b1), ..., theta(x*, bn)) per point
        at = sections[bs[0]] if n else (0,)  # A^0 has one point
        for b in bs[1:]:
            at = [p * m + q for p, q in zip(at, sections[b])]
        for c in range(m):
            target = sections[entries[i * m + c]]
            composed = tuple(map(sections[c].__getitem__, at))
            if composed == target:
                checked += len(target)
                continue
            j = next(j for j, (p, q) in enumerate(zip(composed, target))
                     if p != q)
            cx = {f"b{k + 1}": b for k, b in enumerate(bs)}
            cx["c"] = c
            cx.update({f"x{k + 1}": x for k, x in enumerate(_digits(
                j, (m,) * n))})
            return CheckReport(
                "fail", f"2assoc-functional:{n}",
                counterexample=cx, tuples_checked=checked + j + 1,
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
    alphas = [alg.op(f"alpha{i}") for i in range(1, n + 1)]
    solvable = all(
        len({tuple(a.lookup((x, b), m) for a in alphas) for x in range(m)})
        == m ** n for b in range(m))

    holds = check_laws(alg, identities_strict(n)) is None
    return StrictnessReport(bij, unique, solvable, holds)


# ---------------------------------------------------------------------------
# suite lookup by "name:n" strings (CLI address space)

_SUITES = {
    "protomodular": suite_protomodular,
    "semiabelian": suite_semiabelian,
    "2assoc": lambda n, units: IdentitySuite(
        f"2assoc:{n}", (identity_2assoc(n),)),
    "1assoc": lambda n, units: IdentitySuite(
        f"1assoc:{n}", identities_1assoc(n)),
    "strict": lambda n, units: IdentitySuite(
        f"strict:{n}", identities_strict(n)),
    "malcev": lambda n, units: IdentitySuite("malcev", identities_malcev()),
    "malcev-assoc": lambda n, units: IdentitySuite(
        "malcev-assoc", (identity_malcev_assoc(),)),
    "unit-law": lambda n, units: IdentitySuite(
        f"unit-law:{n}", (identity_unit_law(n, units),)),
    "unit-expansion": lambda n, units: IdentitySuite(
        f"unit-expansion:{n}", (identity_unit_expansion(n, units),)),
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


@memo(_PLANS)
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
