"""Core types: signatures, finite algebras as operation tables, terms,
identities, and ground term evaluation.

Carrier elements are always the integers 0..m-1.  Operation tables are
flat, row-major over the argument tuple, so lookup is a single index
computation.  Everything here is immutable after construction and safe to
share across workers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class SymbolError(AlgebraError):
    """Unknown operation/constant symbol, or arity mismatch."""


class EvalError(AlgebraError):
    """Unbound variable or other evaluation failure."""


class BudgetError(AlgebraError):
    """An exhaustive computation was refused because it exceeds the budget."""


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities, plus named constants.

    Constants are kept apart from arity-0 operations: they are
    distinguished data in the axiom schemes, not table-backed ops.
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
        raise AlgebraError(f"n must be >= 1, got {n}")
    ops = [("theta", n + 1)] + [(f"alpha{i}", 2) for i in range(1, n + 1)]
    return Signature(tuple(ops), ("e",) if shared_unit else default_units(n))


# ---------------------------------------------------------------------------
# operation tables

class DenseTable:
    """A total operation as a flat tuple of m^arity entries, row-major."""

    __slots__ = ("arity", "entries", "_array")

    def __init__(self, arity: int, entries):
        self.arity = arity
        self.entries = tuple(entries)
        self._array = None

    def array(self):
        """The entries as a read-only int64 numpy array, built on first use;
        the table is immutable, so the array never goes stale."""
        if self._array is None:
            import numpy as np

            self._array = np.asarray(self.entries, dtype=np.int64)
            self._array.setflags(write=False)
        return self._array

    def lookup(self, args, m: int) -> int:
        idx = 0
        for a in args:
            idx = idx * m + a
        return self.entries[idx]

    def __eq__(self, other):
        return (
            isinstance(other, DenseTable)
            and self.arity == other.arity
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.arity, self.entries))

    def __repr__(self):
        return f"DenseTable(arity={self.arity}, {len(self.entries)} entries)"


_MATERIALIZE_LIMIT = 1 << 22


class LazyTable:
    """A total operation backed by a Python function instead of a stored
    table; used when m^arity is too large to materialize.

    Contract: fn is elementwise.  Called with arity ints it returns an int;
    called with arity int64 arrays of one length it returns the int64
    array of its values at each position.  The identity kernel, exhaustive
    and sampled, relies on the array form (and passes it read-only
    arrays); lookup and materialize use the int form.
    """

    __slots__ = ("arity", "fn", "note")

    def __init__(self, arity: int, fn, note: str = ""):
        self.arity = arity
        self.fn = fn
        self.note = note

    def lookup(self, args, m: int) -> int:
        return self.fn(*args)

    def materialize(self, m: int) -> DenseTable:
        if m ** self.arity > _MATERIALIZE_LIMIT:
            raise BudgetError(
                f"cannot materialize table with {m}^{self.arity} entries"
            )
        entries = [
            self.fn(*args)
            for args in itertools.product(range(m), repeat=self.arity)
        ]
        return DenseTable(self.arity, entries)

    def __repr__(self):
        return f"LazyTable(arity={self.arity}, {self.note!r})"


def table_from_fn(arity: int, m: int, fn) -> DenseTable:
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

    def op(self, name: str):
        try:
            return self.tables[name]
        except KeyError:
            raise SymbolError(f"symbol {name!r} uninterpreted in {self.name!r}")

    def constant(self, name: str) -> int:
        try:
            return self.constants[name]
        except KeyError:
            raise SymbolError(f"constant {name!r} uninterpreted in {self.name!r}")

    def __eq__(self, other):
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        if (
            self.signature != other.signature
            or self.size != other.size
            or self.constants != other.constants
        ):
            return False
        for sym in self.tables:
            a, b = self.tables[sym], other.tables.get(sym)
            if b is None:
                return False
            if isinstance(a, LazyTable):
                a = a.materialize(self.size)
            if isinstance(b, LazyTable):
                b = b.materialize(other.size)
            if a != b:
                return False
        return True


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
    op: str
    args: tuple

    def __init__(self, op, *args):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", tuple(args))


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

    Zero declared variables is allowed (ground equations like e1 = e2).
    """

    name: str
    variables: tuple
    lhs: Term
    rhs: Term

    def __post_init__(self):
        free = term_variables(self.lhs) | term_variables(self.rhs)
        undeclared = free - set(self.variables)
        if undeclared:
            raise EvalError(
                f"identity {self.name!r} uses undeclared variables {sorted(undeclared)}"
            )

    def text(self) -> str:
        vs = ", ".join(self.variables)
        return f"identity {self.name}({vs}): {term_text(self.lhs)} = {term_text(self.rhs)}"


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

@dataclass
class CheckReport:
    """Outcome of checking one identity (or one structural validation)."""

    verdict: str  # "pass" | "fail" | "sampled-pass"
    name: str
    counterexample: dict | None = None
    tuples_checked: int = 0
    seed: int | None = None
    detail: str | None = None
    # how check_identity checked: "np" (exhaustive) or "sampled"; left
    # out of ==, so a report compares by its outcome alone
    engine: str | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"

    def line(self) -> str:
        out = f"IDENTITY {self.name} {'FAIL' if self.verdict == 'fail' else 'PASS'}"
        if self.counterexample is not None:
            cx = ",".join(f"{k}={v}" for k, v in self.counterexample.items())
            out += f" [counterexample: {cx}]"
        out += f" tuples={self.tuples_checked}"
        if self.seed is not None:
            out += f" seed={self.seed}"
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
    range; a LazyTable is checked for its arity only."""
    if tbl.arity != arity:
        return f"symbol {sym!r}: table arity {tbl.arity} != declared {arity}"
    if not isinstance(tbl, DenseTable):
        return None
    entries = tbl.entries
    # m >= 2 and arity >= len.bit_length() give m^arity >= 2^arity > len,
    # so a huge arity is refused without building m^arity
    n = len(entries)
    if (m > 1 and arity >= n.bit_length()) or n != m ** arity:
        return f"symbol {sym!r}: table length {n} != {m}^{arity}"
    if entries and not (0 <= min(entries) and max(entries) < m):
        i, v = next((i, v) for i, v in enumerate(entries) if not 0 <= v < m)
        return f"symbol {sym!r}: entry {v} out of range at flat index {i}"
    return None


def validate_algebra(alg: FiniteAlgebra) -> CheckReport:
    """Check the structural invariants of a FiniteAlgebra.

    Violations are reported (first one wins), never thrown.
    """
    name = f"validate:{alg.name}"
    m = alg.size
    if m < 1:
        return CheckReport("fail", name, detail=f"carrier size {m} < 1")
    for sym, arity in alg.signature.ops:
        tbl = alg.tables.get(sym)
        if tbl is None:
            return CheckReport("fail", name, detail=f"symbol {sym!r} uninterpreted")
        problem = table_error(sym, tbl, arity, m)
        if problem is not None:
            return CheckReport("fail", name, detail=problem)
    for sym in alg.tables:
        if not alg.signature.has_op(sym):
            return CheckReport(
                "fail", name, detail=f"table for {sym!r} not in signature"
            )
    for c in alg.signature.constants:
        if c not in alg.constants:
            return CheckReport("fail", name, detail=f"symbol {c!r} uninterpreted")
        v = alg.constants[c]
        if not (0 <= v < m):
            return CheckReport(
                "fail", name, detail=f"constant {c!r} = {v} out of range"
            )
    for c in alg.constants:
        if not alg.signature.has_constant(c):
            return CheckReport(
                "fail", name, detail=f"constant {c!r} not in signature"
            )
    return CheckReport("pass", name, tuples_checked=0)
