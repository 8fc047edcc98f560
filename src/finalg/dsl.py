"""Text format for algebras and identities.

    algebra Name {
      carrier <m>
      elem <alias> = <element>                  # optional element aliases
      const <name> = <element>
      op <name>/<arity> = [<e0>, <e1>, ...]     # row-major, m^arity entries
      op <name>/<arity> = free                  # search specs only
      require <suite>[:<n>] ...                 # search specs only
    }
    identity <name>(<v1>,...,<vk>): <term> = <term>

Comments run from '#' to end of line.  Terms are prefix applications
name(t1,...,tk); a bare identifier is a variable if declared in the
identity head, otherwise a constant.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import (
    Apply,
    BudgetError,
    Constant,
    DenseTable,
    FiniteAlgebra,
    Identity,
    LazyTable,
    Signature,
    SymbolError,
    Variable,
    check_term,
    term_text,
)


class DslError(Exception):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<ident>\d*[A-Za-z_][A-Za-z0-9_\-]*)
      | (?P<int>\d+)
      | (?P<punct>[{}\[\](),=/:])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    toks = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise DslError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            toks.append((kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, msg):
        _, val, line, col = self.peek()
        raise DslError(msg + (f" (got {val!r})" if val else " (got end of input)"),
                       line, col)

    def expect(self, kind, value=None):
        k, v, line, col = self.peek()
        if k != kind or (value is not None and v != value):
            self.error(f"expected {value or kind}")
        return self.next()

    def accept(self, kind, value=None):
        k, v, _, _ = self.peek()
        if k == kind and (value is None or v == value):
            return self.next()
        return None

    def at_keyword(self, word):
        k, v, _, _ = self.peek()
        return k == "ident" and v == word

    # -- algebra blocks ----------------------------------------------------

    def algebra_block(self):
        self.expect("ident", "algebra")
        name = self.expect("ident")[1]
        self.expect("punct", "{")
        raw = RawAlgebra(name=name)
        while not self.accept("punct", "}"):
            k, v, line, col = self.peek()
            if k != "ident":
                self.error("expected carrier/elem/const/op/require")
            if v == "carrier":
                self.next()
                raw.carrier = int(self.expect("int")[1])
            elif v == "elem":
                self.next()
                alias = self.expect("ident")[1]
                self.expect("punct", "=")
                raw.aliases[alias] = self.element(raw, line, col)
            elif v == "const":
                self.next()
                cname = self.expect("ident")[1]
                self.expect("punct", "=")
                raw.consts[cname] = self.element(raw, line, col)
                raw.const_order.append(cname)
            elif v == "op":
                self.next()
                oname = self.expect("ident")[1]
                self.expect("punct", "/")
                arity = int(self.expect("int")[1])
                self.expect("punct", "=")
                if self.accept("ident", "free"):
                    raw.ops.append((oname, arity, None))
                else:
                    self.expect("punct", "[")
                    entries = []
                    if not self.accept("punct", "]"):
                        entries.append(self.element(raw, line, col))
                        while self.accept("punct", ","):
                            entries.append(self.element(raw, line, col))
                        self.expect("punct", "]")
                    raw.ops.append((oname, arity, entries))
            elif v == "require":
                self.next()
                while True:
                    k2, v2, _, _ = self.peek()
                    if k2 != "ident" or v2 in (
                        "carrier", "elem", "const", "op", "require",
                    ):
                        break
                    req = self.next()[1]
                    if self.accept("punct", ":"):
                        req += ":" + self.expect("int")[1]
                    raw.requires.append(req)
                if not raw.requires:
                    self.error("require needs at least one suite name")
            else:
                self.error("expected carrier/elem/const/op/require")
        return raw

    def element(self, raw, line, col):
        t = self.accept("int")
        if t:
            return int(t[1])
        t = self.accept("ident")
        if t and t[1] in raw.aliases:
            return raw.aliases[t[1]]
        raise DslError("expected an element (integer or declared alias)",
                       line, col)

    # -- identities ----------------------------------------------------------

    def identity_stmt(self):
        self.expect("ident", "identity")
        name = self.expect("ident")[1]
        self.expect("punct", "(")
        variables = []
        if not self.accept("punct", ")"):
            variables.append(self.expect("ident")[1])
            while self.accept("punct", ","):
                variables.append(self.expect("ident")[1])
            self.expect("punct", ")")
        self.expect("punct", ":")
        declared = set(variables)
        lhs = self.term(declared)
        self.expect("punct", "=")
        rhs = self.term(declared)
        return Identity(name, tuple(variables), lhs, rhs)

    def term(self, declared):
        tok = self.expect("ident")
        name = tok[1]
        if self.accept("punct", "("):
            args = []
            if not self.accept("punct", ")"):
                args.append(self.term(declared))
                while self.accept("punct", ","):
                    args.append(self.term(declared))
                self.expect("punct", ")")
            return Apply(name, *args)
        if name in declared:
            return Variable(name)
        return Constant(name)


@dataclass
class RawAlgebra:
    """Parse product of an algebra block, before semantic checks.

    ops entries are (name, arity, entries-or-None); None marks a 'free'
    table, which only search specs accept.
    """

    name: str
    carrier: int | None = None
    aliases: dict = field(default_factory=dict)
    consts: dict = field(default_factory=dict)
    const_order: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    requires: list = field(default_factory=list)


def raw_to_algebra(raw: RawAlgebra, allow_free: bool = False) -> FiniteAlgebra:
    if raw.carrier is None:
        raise DslError(f"algebra {raw.name!r}: missing carrier declaration")
    m = raw.carrier
    if m < 1:
        raise DslError(f"algebra {raw.name!r}: carrier must be >= 1")
    try:
        sig = Signature(
            tuple((n, a) for n, a, _ in raw.ops),
            tuple(raw.const_order),
        )
    except SymbolError as e:
        raise DslError(f"algebra {raw.name!r}: {e}") from e
    tables = {}
    for n, arity, entries in raw.ops:
        if entries is None:
            if not allow_free:
                raise DslError(
                    f"algebra {raw.name!r}: op {n!r} is free; "
                    "free tables are only valid in search specs"
                )
            continue
        if len(entries) != m ** arity:
            raise DslError(
                f"algebra {raw.name!r}: op {n!r} has {len(entries)} entries, "
                f"expected {m}^{arity} = {m ** arity}"
            )
        for i, v in enumerate(entries):
            if not (0 <= v < m):
                raise DslError(
                    f"algebra {raw.name!r}: op {n!r} entry {v} out of range "
                    f"at flat index {i}"
                )
        tables[n] = DenseTable(arity, entries)
    for cname, v in raw.consts.items():
        if not (0 <= v < m):
            raise DslError(
                f"algebra {raw.name!r}: constant {cname!r} = {v} out of range"
            )
    return FiniteAlgebra(raw.name, sig, m, tables, dict(raw.consts))


def parse_algebra(text: str) -> FiniteAlgebra:
    """Parse exactly one algebra block; free tables are rejected."""
    p = _Parser(text)
    raw = p.algebra_block()
    p.expect("eof")
    if raw.requires:
        raise DslError("require clauses are only valid in search specs")
    return raw_to_algebra(raw)


def parse_identity(text: str, signature: Signature | None = None) -> Identity:
    """Parse one identity statement, optionally validating against a
    signature (arity and symbol checks)."""
    p = _Parser(text)
    ident = p.identity_stmt()
    p.expect("eof")
    if signature is not None:
        try:
            check_term(signature, ident.lhs, set(ident.variables))
            check_term(signature, ident.rhs, set(ident.variables))
        except SymbolError as e:
            raise DslError(f"identity {ident.name!r}: {e}") from e
    return ident


def parse_file(text: str):
    """Parse a mixed file: returns (algebras, identities) in source order."""
    p = _Parser(text)
    algebras, identities = [], []
    while p.peek()[0] != "eof":
        if p.at_keyword("algebra"):
            algebras.append(raw_to_algebra(p.algebra_block()))
        elif p.at_keyword("identity"):
            identities.append(p.identity_stmt())
        else:
            p.error("expected 'algebra' or 'identity'")
    return algebras, identities


def parse_raw_blocks(text: str):
    """Like parse_file but keeps algebra blocks raw (for search specs)."""
    p = _Parser(text)
    raws, identities = [], []
    while p.peek()[0] != "eof":
        if p.at_keyword("algebra"):
            raws.append(p.algebra_block())
        elif p.at_keyword("identity"):
            identities.append(p.identity_stmt())
        else:
            p.error("expected 'algebra' or 'identity'")
    return raws, identities


def serialize(alg: FiniteAlgebra) -> str:
    """Emit DSL text; parse(serialize(a)) is structurally equal to a.

    Lazy tables are materialized, so very large ones are refused.
    """
    lines = [f"algebra {alg.name} {{", f"  carrier {alg.size}"]
    for c in alg.signature.constants:
        lines.append(f"  const {c} = {alg.constants[c]}")
    for n, arity in alg.signature.ops:
        tbl = alg.tables[n]
        if isinstance(tbl, LazyTable):
            tbl = tbl.materialize(alg.size)
        body = ", ".join(str(v) for v in tbl.entries)
        lines.append(f"  op {n}/{arity} = [{body}]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_identity(ident: Identity) -> str:
    return ident.text() + "\n"
