"""Core types: signatures, finite algebras as operation tables, terms,
identities, and ground term evaluation.

Carrier elements are always the integers 0..m-1.  An operation table is
a DenseTable, flat and row-major over the argument tuple, so lookup is a
single index computation; the one other kind is the lookup-only
ProductTable of a product of algebras too large to materialize, whose
algebra records its factors.  Everything here but the registry of the
package's caches at the end (kept, memo, clear_caches) is immutable
after construction and safe to share across workers.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AlgebraError):
    """The request is malformed: a bad file, name, symbol or argument."""


class SymbolError(InputError):
    """Unknown operation/constant symbol, or arity mismatch."""


class EvalError(AlgebraError):
    """Unbound variable or other evaluation failure; a disagreement
    between evaluators is a defect, not an input error."""


class BudgetError(AlgebraError):
    """An exhaustive computation was refused because it exceeds the budget."""


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities, plus named constants.

    Constants are kept apart from arity-0 operations: they are
    distinguished data in the axiom schemes, not table-backed ops.  The
    hash is computed once, outside the fields, and again on unpickling,
    since str hashes differ between processes, and so is the set of
    symbols an identity's fit is read against (check_identity_terms):
    each (name, arity) of an op and the name of each constant.
    """

    ops: tuple[tuple[str, int], ...]
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.ops] + list(self.constants)
        if len(set(names)) != len(names):
            raise SymbolError(f"duplicate symbol names in signature: {names}")
        for name, arity in self.ops:
            if arity < 1:
                raise SymbolError(f"op {name!r} must have arity >= 1, got {arity}")
        object.__setattr__(self, "_hash", hash((self.ops, self.constants)))
        object.__setattr__(self, "_symbols",
                           frozenset(self.ops) | frozenset(self.constants))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Signature, (self.ops, self.constants)

    def arity(self, name: str) -> int:
        for n, a in self.ops:
            if n == name:
                return a
        if name in self.constants:
            return 0
        raise SymbolError(f"unknown symbol {name!r}")

    def has_op(self, name: str) -> bool:
        return any(n == name for n, _ in self.ops)

    def has_constant(self, name: str) -> bool:
        return name in self.constants


def default_units(n: int) -> tuple:
    """The unit constant names e1..en."""
    return tuple(f"e{i}" for i in range(1, n + 1))


def standard_signature(n: int, shared_unit: bool = False) -> Signature:
    """The signature {theta/(n+1), alpha1/2..alphan/2, e1..en}.

    With shared_unit=True the n unit constants collapse to a single 'e'
    (the simplest semi-abelian signature).
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    ops = [("theta", n + 1)] + [(f"alpha{i}", 2) for i in range(1, n + 1)]
    return Signature(tuple(ops), ("e",) if shared_unit else default_units(n))


# ---------------------------------------------------------------------------
# operation tables

class DenseTable:
    """A total operation as a flat tuple of m^arity entries, row-major."""

    __slots__ = ("arity", "_entries", "_array", "_top")

    def __init__(self, arity: int, entries):
        self.arity = arity
        self._entries = tuple(entries)
        self._array = self._top = None

    @property
    def entries(self) -> tuple:
        """The entries as a tuple of ints; a table made from an array
        builds it on first use, as the numpy kernel never reads it."""
        if self._entries is None:
            self._entries = tuple(self._array.tolist())
        return self._entries

    def array(self):
        """The entries as a read-only int64 numpy array, built on first use;
        the table is immutable, so the array never goes stale."""
        if self._array is None:
            import numpy as np

            self._array = np.asarray(self.entries, dtype=np.int64)
            self._array.setflags(write=False)
        return self._array

    @classmethod
    def of_array(cls, arity: int, array) -> DenseTable:
        """The table of the entries of a flat int64 array, which it keeps,
        read-only, as its array(); its entries tuple is built on first
        use."""
        table = cls.__new__(cls)
        array.setflags(write=False)
        table.arity, table._array = arity, array
        table._entries = table._top = None
        return table

    def __len__(self):
        entries = self._entries
        return self._array.size if entries is None else len(entries)

    def first_out_of_range(self, m: int):
        """(flat index, entry) of the first entry outside 0..m-1, or None.
        A table made from an array is read there while its entries are
        not built, by the largest entry as unsigned, found once and kept
        (a negative entry reads as at least 2^63)."""
        entries = self._entries
        if entries is None:
            if self._top is None:
                self._top = int(self._array.view("u8").max(initial=0))
            if self._top < m:
                return None
            i = int((self._array.view("u8") >= m).argmax())
            return i, int(self._array[i])
        if not entries or (0 <= min(entries) and max(entries) < m):
            return None
        return next((i, v) for i, v in enumerate(entries) if not 0 <= v < m)

    def lookup(self, args, m: int) -> int:
        idx = 0
        for a in args:
            idx = idx * m + a
        return (self._entries or self.entries)[idx]

    def __eq__(self, other):
        return (
            isinstance(other, DenseTable)
            and self.arity == other.arity
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.arity, self.entries))

    def __repr__(self):
        return f"DenseTable(arity={self.arity}, {len(self)} entries)"


_MATERIALIZE_LIMIT = 1 << 22
EXHAUSTIVE_BUDGET = 10 ** 8  # tuples an exhaustive check may enumerate


def power_exceeds(base: int, exp: int, bound: int) -> bool:
    """Whether base**exp > bound (all >= 0), the one size test of every
    limit and budget.  No power of more than twice bound's bits is built:
    base of b >= 2 bits gives base**exp >= 2^(exp*(b-1)) > bound once
    exp*(b-1) reaches bound's bit length."""
    if base < 2 or exp == 0:
        return (base if exp else 1) > bound
    return (exp * (base.bit_length() - 1) >= bound.bit_length()
            or base ** exp > bound)


def exponent_text(exp, parts: str = "") -> str:
    """exp as a refusal message writes it, or (parts), the sum or product
    it is computed from, when exp has 100 digits or more or is None (too
    large to build); Python prints no int of more than 4300 digits."""
    if parts and (exp is None or exp >= 10 ** 99):
        return f"({parts})"
    return str(exp)


def materializable(m: int, arity: int) -> bool:
    """Whether a table of m^arity entries is within the materialize limit
    in its entries and its arity (one digit array per argument)."""
    return (arity <= _MATERIALIZE_LIMIT
            and not power_exceeds(m, arity, _MATERIALIZE_LIMIT))


def require_materializable(m: int, arity: int, parts: str = "") -> None:
    """Raise BudgetError unless materializable(m, arity); an arity of 100
    digits or more is written as parts (see exponent_text)."""
    if not materializable(m, arity):  # by its arity only when m <= 1
        a = exponent_text(arity, parts)
        what = f"{m}^{a} entries" if m > 1 else f"{a} arguments"
        raise BudgetError(
            f"table with {what} exceeds cap {_MATERIALIZE_LIMIT}")


class ProductTable:
    """One operation of a product of algebras whose m^arity entries are
    over the materialize limit (see catalog._product): the factors'
    tables, looked up one component at a time.  parts holds (table,
    carrier size) per factor, the most significant component first.  It
    is lookup-only: reading its array or entries raises BudgetError."""

    __slots__ = ("arity", "parts", "size")

    def __init__(self, arity: int, parts):
        self.arity = arity
        self.parts = tuple(parts)
        self.size = math.prod(size for _, size in self.parts)

    def lookup(self, args, m: int) -> int:
        out, weight = 0, m
        for tbl, size in self.parts:
            weight //= size
            out = out * size + tbl.lookup(
                [a // weight % size for a in args], size)
        return out

    def array(self):
        """Refused with BudgetError: _product makes a product table only
        over the materialize limit."""
        require_materializable(self.size, self.arity)
        raise AssertionError("a product table within the materialize limit")

    entries = property(array)

    def __repr__(self):
        return f"ProductTable(arity={self.arity}, {len(self.parts)} factors)"


def table_from_fn(arity: int, m: int, fn) -> DenseTable:
    """The table of fn called with ints at each argument tuple in turn,
    for callers whose fn has no array form."""
    return DenseTable(
        arity,
        (fn(*args) for args in itertools.product(range(m), repeat=arity)),
    )


# ---------------------------------------------------------------------------
# algebras

@dataclass(eq=False)
class FiniteAlgebra:
    """A finite algebra: carrier {0..size-1} plus one table per symbol.

    Treated as immutable; do not mutate tables/constants after creation.
    """

    name: str
    signature: Signature
    size: int
    tables: dict
    constants: dict = field(default_factory=dict)
    # the algebras this one is the product of, set by catalog._product
    # alone; check_identity decides the product through them.  Left out
    # of ==, and never carried to a copy (the constructor and
    # dataclasses.replace start without it)
    factors: tuple = field(default=(), init=False, repr=False)

    def op(self, name: str):
        tbl = self.tables.get(name)
        if tbl is None:
            raise SymbolError(f"symbol {name!r} uninterpreted in {self.name!r}")
        return tbl

    def constant(self, name: str) -> int:
        v = self.constants.get(name)
        if v is None:
            raise SymbolError(f"constant {name!r} uninterpreted in {self.name!r}")
        return v

    def __eq__(self, other):
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        if (
            self.signature != other.signature
            or self.size != other.size
            or self.constants != other.constants
        ):
            return False
        return all(tbl == other.tables.get(sym)
                   for sym, tbl in self.tables.items())


def standard_algebra(name, m, theta, alphas, units) -> FiniteAlgebra:
    """theta and alpha1..alphan over standard_signature(n), with the unit
    values units: one shared constant e when they are all equal, e1..en
    otherwise (the unit rule unit_constants reads back)."""
    units = tuple(units)
    sig = standard_signature(len(units), shared_unit=len(set(units)) == 1)
    tables = {"theta": theta}
    tables.update((f"alpha{i}", al) for i, al in enumerate(alphas, start=1))
    return FiniteAlgebra(name, sig, m, tables, dict(zip(sig.constants, units)))


def unit_constants(alg: FiniteAlgebra, n: int):
    """The n unit-constant names of alg: e1..en, or n copies of 'e'."""
    sig = alg.signature
    if all(sig.has_constant(f"e{i}") for i in range(1, n + 1)):
        return default_units(n)
    if sig.has_constant("e"):
        return ("e",) * n
    raise SymbolError(
        f"{alg.name!r} declares neither e1..e{n} nor a shared constant e"
    )


# ---------------------------------------------------------------------------
# terms and identities

@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Constant:
    name: str


@dataclass(frozen=True)
class Apply:
    """op applied to args.  The kernel's caches are keyed by term value,
    so, as for Identity, the hash is computed once, outside the fields,
    and again on unpickling."""

    op: str
    args: tuple

    def __init__(self, op, *args):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((op, args)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Apply, (self.op, *self.args)


Term = Variable | Constant | Apply


def term_text(t: Term) -> str:
    if isinstance(t, Variable) or isinstance(t, Constant):
        return t.name
    return f"{t.op}({', '.join(term_text(a) for a in t.args)})"


def term_variables(t: Term) -> set:
    if isinstance(t, Variable):
        return {t.name}
    if isinstance(t, Constant):
        return set()
    out = set()
    for a in t.args:
        out |= term_variables(a)
    return out


@dataclass(frozen=True)
class Identity:
    """A universally quantified equation lhs = rhs over declared variables.

    Zero declared variables is allowed (ground equations like e1 = e2);
    a variable declared twice is an InputError.  The kernel's caches are
    keyed by identity value, so its hash is computed once, outside the
    fields, and again on unpickling, since str hashes differ between
    processes, and so is the set of symbols its sides apply, read by
    check_identity_terms: each (op, number of arguments) and the name of
    each constant.
    """

    name: str
    variables: tuple
    lhs: Term
    rhs: Term

    def __post_init__(self):
        declared = set()
        for v in self.variables:
            if v in declared:
                raise InputError(
                    f"identity {self.name!r} declares variable {v!r} twice")
            declared.add(v)
        free = term_variables(self.lhs) | term_variables(self.rhs)
        undeclared = free - declared
        if undeclared:
            raise EvalError(
                f"identity {self.name!r} uses undeclared variables {sorted(undeclared)}"
            )
        object.__setattr__(self, "_hash", hash(
            (self.name, self.variables, self.lhs, self.rhs)))
        symbols = set()
        for side in (self.lhs, self.rhs):
            _add_symbols(side, symbols)
        object.__setattr__(self, "_symbols", frozenset(symbols))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Identity, (self.name, self.variables, self.lhs, self.rhs)

    def text(self) -> str:
        vs = ", ".join(self.variables)
        return f"identity {self.name}({vs}): {term_text(self.lhs)} = {term_text(self.rhs)}"


def _add_symbols(t: Term, out: set) -> None:
    """Add each (op, number of arguments) and constant name t applies."""
    if isinstance(t, Constant):
        out.add(t.name)
    elif isinstance(t, Apply):
        out.add((t.op, len(t.args)))
        for a in t.args:
            _add_symbols(a, out)


def check_term(sig: Signature, t: Term, declared_vars) -> None:
    """Raise if t is not well-formed over sig with the given variables."""
    if isinstance(t, Variable):
        if t.name not in declared_vars:
            raise EvalError(f"undeclared variable {t.name!r}")
        return
    if isinstance(t, Constant):
        if not sig.has_constant(t.name):
            raise SymbolError(f"unknown constant {t.name!r}")
        return
    want = sig.arity(t.op)  # 0 only for a constant: ops have arity >= 1
    if want == 0:
        raise SymbolError(f"{t.op!r} is not an operation symbol")
    if len(t.args) != want:
        raise SymbolError(
            f"{t.op!r} expects {want} arguments, got {len(t.args)}"
        )
    for a in t.args:
        check_term(sig, a, declared_vars)


def check_identity_terms(sig: Signature, ident: Identity, owner=None) -> None:
    """Raise SymbolError unless both sides of ident are well-formed over
    sig; the message names ident and owner, the algebra or spec of sig.

    An identity's variables are declared (Identity checks them), so it
    fits exactly when sig declares every op it applies with that many
    arguments and every constant it names: one subset test of the symbol
    sets both keep decides it, and the sides are walked only to word a
    misfit."""
    if ident._symbols <= sig._symbols:
        return
    try:
        for side in (ident.lhs, ident.rhs):
            check_term(sig, side, ident.variables)
    except SymbolError as e:
        of = "" if owner is None else f" of {owner!r}"
        raise SymbolError(f"identity {ident.name!r} does not fit the "
                          f"signature{of}: {e}") from None


def eval_term(alg: FiniteAlgebra, t: Term, env: dict) -> int:
    """Evaluate a ground instance of t; env maps variable names to elements."""
    if isinstance(t, Variable):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}")
    if isinstance(t, Constant):
        return alg.constant(t.name)
    tbl = alg.op(t.op)
    if len(t.args) != tbl.arity:
        raise SymbolError(
            f"{t.op!r} expects {tbl.arity} arguments, got {len(t.args)}"
        )
    return tbl.lookup([eval_term(alg, a, env) for a in t.args], alg.size)


# ---------------------------------------------------------------------------
# reports and validation

@dataclass(slots=True)
class CheckReport:
    """Outcome of checking one identity (or one structural validation).
    Slots make one cheaper to build, positionally above all."""

    verdict: str  # "pass" | "fail" | "sampled-pass"
    name: str
    counterexample: dict | None = None
    tuples_checked: int = 0
    seed: int | None = None
    detail: str | None = None
    # how check_identity checked: "np" (exhaustive), "product" (through
    # the factors) or "sampled"; left out of ==, so a report compares by
    # its outcome alone
    engine: str | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"

    def line(self) -> str:
        """The text report.  A sampled check with no failure proves
        nothing, so it reads UNREFUTED, not PASS, and states what K
        uniform samples without a failure show: by the rule of three,
        fewer than 3/K of all tuples fail, at 95% confidence."""
        verdict = {"fail": "FAIL", "sampled-pass": "UNREFUTED"}.get(
            self.verdict, "PASS")
        out = f"IDENTITY {self.name} {verdict}"
        if self.counterexample is not None:
            cx = ",".join(f"{k}={v}" for k, v in self.counterexample.items())
            out += f" [counterexample: {cx}]"
        out += f" tuples={self.tuples_checked}"
        if self.seed is not None:
            out += f" seed={self.seed}"
        if self.verdict == "sampled-pass":
            out += (f" [failing fraction < 3/{self.tuples_checked} "
                    "at 95% confidence]")
        return out

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "name": self.name,
            "counterexample": self.counterexample,
            "tuples_checked": self.tuples_checked,
            "seed": self.seed,
            "detail": self.detail,
            "engine": self.engine,
        }


def table_error(sym: str, tbl, arity: int, m: int) -> str | None:
    """Why tbl is not a total arity-ary operation on {0..m-1}, or None.
    The one table check: a DenseTable needs m^arity entries, each in
    range; a ProductTable needs the carrier m, and each factor's table
    is checked over that factor's carrier."""
    if tbl.arity != arity:
        return f"symbol {sym!r}: table arity {tbl.arity} != declared {arity}"
    if isinstance(tbl, ProductTable):
        if tbl.size != m:
            return (f"symbol {sym!r}: product table on {tbl.size} "
                    f"elements != {m}")
        return next(filter(None, (table_error(sym, part, arity, size)
                                  for part, size in tbl.parts)), None)
    n = len(tbl)
    if power_exceeds(m, arity, n) or m ** arity != n:
        return f"symbol {sym!r}: table length {n} != {m}^{arity}"
    bad = tbl.first_out_of_range(m)
    return None if bad is None else _range_error(sym, bad[1], bad[0])


def _range_error(sym, value, index):
    return f"symbol {sym!r}: entry {value} out of range at flat index {index}"


def _checked_values(tbl) -> int:
    """How many values table_error range-checks in a valid table: every
    entry of a DenseTable, every factor's value of a ProductTable."""
    if isinstance(tbl, ProductTable):
        return sum(_checked_values(part) for part, _ in tbl.parts)
    return len(tbl)


def validate_algebra(alg: FiniteAlgebra) -> CheckReport:
    """Check the structural invariants of a FiniteAlgebra.

    Violations are reported (first one wins), never thrown.  A PASS
    counts as its tuples_checked the table values and constants it
    range-checked: every entry of a dense table, and every factor's value
    of a product table (see table_error).
    """
    name = f"validate:{alg.name}"
    m = alg.size
    if m < 1:
        return CheckReport("fail", name, detail=f"carrier size {m} < 1")
    sig, tables, constants = alg.signature, alg.tables, alg.constants
    checked = len(sig.constants)
    for sym, arity in sig.ops:
        tbl = tables.get(sym)
        if tbl is None:
            return CheckReport("fail", name, detail=f"symbol {sym!r} uninterpreted")
        problem = table_error(sym, tbl, arity, m)
        if problem is not None:
            return CheckReport("fail", name, detail=problem)
        checked += _checked_values(tbl)
    if len(tables) > len(sig.ops):  # as every op has a table by now
        sym = next(s for s in tables if not sig.has_op(s))
        return CheckReport("fail", name, detail=f"table for {sym!r} not in signature")
    for c in sig.constants:
        v = constants.get(c)
        if v is None:
            return CheckReport("fail", name, detail=f"symbol {c!r} uninterpreted")
        if not (0 <= v < m):
            return CheckReport(
                "fail", name, detail=f"constant {c!r} = {v} out of range"
            )
    if len(constants) > len(sig.constants):  # as each has a value by now
        c = next(c for c in constants if not sig.has_constant(c))
        return CheckReport("fail", name, detail=f"constant {c!r} not in signature")
    return CheckReport("pass", name, tuples_checked=checked)


# ---------------------------------------------------------------------------
# caches

_caches = []  # every module-level cache, each declared by kept or memo


class _Kept:
    """A cache of the values used last: at most count of them, whose
    weights sum to at most weight.  A dict keeps insertion order, so a
    hit moves its key to the end, and a miss drops keys from the front
    until the new value fits; a value heavier than weight alone is not
    kept.  A lock makes each lookup atomic, so threads may share it.
    misses and evictions count the misses and the values they dropped,
    on the miss path alone, since the last cache_clear."""

    def __init__(self, count, weight):
        self.count, self.weight = count, weight
        self.lock = threading.Lock()
        self.cache_clear()

    def get(self, key, build, *args):
        """The value of key, from build(*args) -> (weight, value) on a
        miss: a hit builds no closure."""
        with self.lock:
            entries = self.entries
            entry = entries.pop(key, None)
            if entry is None:
                self.misses += 1
                entry = build(*args)
                if entry[0] > self.weight:
                    return entry[1]
                while entries and (len(entries) >= self.count
                                   or self.total + entry[0] > self.weight):
                    self.total -= entries.pop(next(iter(entries)))[0]
                    self.evictions += 1
                self.total += entry[0]
            entries[key] = entry
            return entry[1]

    def cache_clear(self):
        with self.lock:  # entries: key -> (weight, value)
            self.entries, self.total = {}, 0
            self.misses = self.evictions = 0


def kept(count, weight) -> _Kept:
    """A registered _Kept of at most count values weighing at most weight."""
    _caches.append(_Kept(count, weight))
    return _caches[-1]


def memo(maxsize=None):
    """functools.lru_cache(maxsize), registered: the function it decorates
    is that lru_cache object itself, so a hit costs what it costs there."""
    def register(fn):
        _caches.append(functools.lru_cache(maxsize)(fn))
        return _caches[-1]
    return register


def clear_caches() -> None:
    """Empty every registered cache, so that what runs next runs cold."""
    for cache in _caches:
        cache.cache_clear()
