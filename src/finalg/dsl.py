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

Tokens are lexed one at a time as the parser asks for them, and errors
are reported in reading order, with line and column: the lexer raises at
an unexpected character when the parser reaches it, so a parse error
before it is reported first.  A term may nest at most MAX_TERM_DEPTH
(200) applications; a deeper one is refused at its first token past the
bound.  A table literal whose body is integers of at most 18 ASCII digits
separated by commas, with ASCII whitespace around them, is read in one
step (np.fromstring) into an int64 array, which its DenseTable keeps:
the range check and the identity kernel read that array, and no entries
tuple is built.  Any other body, such as one with aliases, comments,
empty slots or longer integers, is read token by token, which accepts
the same tables and reports the errors.  serialize and the CLI write
every table literal through table_literal.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import (
    Apply,
    Constant,
    DenseTable,
    FiniteAlgebra,
    Identity,
    InputError,
    Signature,
    Variable,
    check_identity_terms,
    table_error,
)


class DslError(InputError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"""(?:\s+|\#[^\n]*)*
      (?: (?P<ident>\d*[A-Za-z_][A-Za-z0-9_\-]*)
        | (?P<int>\d+)
        | (?P<punct>[{}\[\](),=/:])
        | (?P<eof>\Z)
        | (?P<bad>.)
      )
    """,
    re.VERBOSE,
)

# A table body's shape: each ASCII digit becomes '0', each ASCII
# whitespace character ' ', a comma stays and any other byte is 'x'.
_SHAPE = bytes(48 if 48 <= c <= 57 else 32 if c in b" \t\n\r\x0b\x0c"
               else 44 if c == 44 else 120 for c in range(256))


_STATEMENTS = ("carrier", "elem", "const", "op", "require")

# The applications a term may nest, so that the evaluators, which recurse
# once or twice a level, stay well inside Python's recursion limit.
MAX_TERM_DEPTH = 200


def _table_array(body):
    """The int64 array of a table literal's body (the text between its
    brackets) when np.fromstring reads it exactly as the token-by-token
    read would, else None.  That holds when the body is blank (no
    entries) or its shape (_SHAPE) is one run of '0' per comma-separated
    slot, with spaces only around the runs and no run over 18 digits:
    fromstring reads a blank slot as 0, drops a trailing comma and
    saturates at 2^63 - 1."""
    if not body.isascii():
        return None
    data = body.encode()
    shape = data.translate(_SHAPE)
    if b"x" in shape or b"0" * 19 in shape:
        return None
    import numpy as np

    packed = shape.translate(None, b" ")
    if not packed:
        return np.empty(0, dtype=np.int64)
    commas = packed.count(b",")
    runs = shape.count(b" 0") + shape.count(b",0") + (shape[0] == 48)
    if packed[0] != 48 or packed.count(b",0") != commas or runs != commas + 1:
        return None  # an empty slot, or a space inside an integer
    return np.fromstring(data, dtype=np.int64, sep=",")


def _line_col(text, offset):
    """The 1-based line and column of text[offset]."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """A recursive-descent parser over tokens lexed one at a time, on
    demand.  Errors are raised in reading order, with line and column:
    the lexer raises at an unexpected character when it reaches it, and
    each check of a token is made before the token after it is lexed."""

    def __init__(self, text):
        self.text = text
        self.pos = 0  # where the token after the current one starts
        self.tok = None
        self.next()

    def peek(self):
        return self.tok

    def next(self):
        """Consume the current token and lex the one after it."""
        tok = self.tok
        m = _TOKEN.match(self.text, self.pos)
        kind = m.lastgroup
        if kind == "bad":
            self.fail(f"unexpected character {m['bad']!r}", m.start(kind))
        self.tok = (kind, m[kind], m.start(kind))
        self.pos = m.end()
        return tok

    def fail(self, msg, offset):
        raise DslError(msg, *_line_col(self.text, offset))

    def error(self, msg):
        _, val, offset = self.peek()
        self.fail(msg + (f" (got {val!r})" if val else " (got end of input)"),
                  offset)

    def expect(self, kind, value=None):
        k, v, _ = self.peek()
        if k != kind or (value is not None and v != value):
            self.error(f"expected {value or kind}")
        return self.next()

    def accept(self, kind, value=None):
        k, v, _ = self.peek()
        if k == kind and (value is None or v == value):
            return self.next()
        return None

    def at_keyword(self, word):
        return self.peek()[:2] == ("ident", word)

    def integer(self):
        kind, v, offset = self.peek()
        if kind != "int":
            self.error("expected int")
        try:
            value = int(v)
        except ValueError:  # longer than Python's int conversion limit
            self.fail(f"integer literal of {len(v)} digits is too long",
                      offset)
        self.next()
        return value

    # -- algebra blocks ----------------------------------------------------

    def algebra_block(self):
        self.expect("ident", "algebra")
        name = self.expect("ident")[1]
        self.expect("punct", "{")
        raw = RawAlgebra(name=name)
        while not self.accept("punct", "}"):
            k, v, start = self.peek()
            if k != "ident" or v not in _STATEMENTS:
                self.error("expected carrier/elem/const/op/require")
            self.next()
            if v == "carrier":
                raw.carrier = self.integer()
            elif v == "elem":
                alias = self.expect("ident")[1]
                self.expect("punct", "=")
                raw.aliases[alias] = self.element(raw, start)
            elif v == "const":
                cname = self.expect("ident")[1]
                self.expect("punct", "=")
                raw.consts[cname] = self.element(raw, start)
                raw.const_order.append(cname)
            elif v == "op":
                oname = self.expect("ident")[1]
                self.expect("punct", "/")
                arity = self.integer()
                self.expect("punct", "=")
                if self.accept("ident", "free"):
                    raw.ops.append((oname, arity, None))
                else:
                    raw.ops.append(
                        (oname, arity, self.table(raw, arity, start)))
            elif v == "require":
                while True:
                    k2, v2, _ = self.peek()
                    if k2 != "ident" or v2 in _STATEMENTS:
                        break
                    req = self.next()[1]
                    if self.accept("punct", ":"):
                        req += ":" + self.expect("int")[1]
                    raw.requires.append(req)
                if not raw.requires:
                    self.error("require needs at least one suite name")
        return raw

    def table(self, raw, arity, start):
        """The DenseTable of a table literal: read in one step when
        _table_array takes its body, else token by token, which raises
        the errors."""
        if self.peek()[:2] == ("punct", "["):
            end = self.text.find("]", self.pos)
            if end >= 0:
                array = _table_array(self.text[self.pos:end])
                if array is not None:
                    self.pos = end + 1
                    self.next()
                    return DenseTable.of_array(arity, array)
        self.expect("punct", "[")
        entries = []
        if not self.accept("punct", "]"):
            entries.append(self.element(raw, start))
            while self.accept("punct", ","):
                entries.append(self.element(raw, start))
            self.expect("punct", "]")
        return DenseTable(arity, entries)

    def element(self, raw, start):
        """An integer or declared alias; a bad one is reported at start,
        the offset of the statement."""
        k, v, _ = self.peek()
        if k == "int":
            return self.integer()
        if k == "ident" and v in raw.aliases:
            self.next()
            return raw.aliases[v]
        self.fail("expected an element (integer or declared alias)", start)

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

    def term(self, declared, depth=0):
        if depth > MAX_TERM_DEPTH:
            self.fail(f"term nested in more than {MAX_TERM_DEPTH} "
                      "applications", self.peek()[2])
        name = self.expect("ident")[1]
        if self.accept("punct", "("):
            args = []
            if not self.accept("punct", ")"):
                args.append(self.term(declared, depth + 1))
                while self.accept("punct", ","):
                    args.append(self.term(declared, depth + 1))
                self.expect("punct", ")")
            return Apply(name, *args)
        if name in declared:
            return Variable(name)
        return Constant(name)


@dataclass
class RawAlgebra:
    """Parse product of an algebra block, before semantic checks.

    ops entries are (name, arity, DenseTable-or-None); None marks a
    'free' table, which only search specs accept.
    """

    name: str
    carrier: int | None = None
    aliases: dict = field(default_factory=dict)
    consts: dict = field(default_factory=dict)
    const_order: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    requires: list = field(default_factory=list)


def raw_to_algebra(raw: RawAlgebra, allow_free: bool = False) -> FiniteAlgebra:
    """The algebra of a parsed block, with its tables checked.  With
    allow_free (search specs) 'free' tables and 'require' clauses are
    accepted, and the algebra holds only the pinned tables."""
    if raw.carrier is None:
        raise DslError(f"algebra {raw.name!r}: missing carrier declaration")
    m = raw.carrier
    if m < 1:
        raise DslError(f"algebra {raw.name!r}: carrier must be >= 1")
    sig = Signature(
        tuple((n, a) for n, a, _ in raw.ops), tuple(raw.const_order))
    tables = {}
    for n, arity, table in raw.ops:
        if table is None:
            if not allow_free:
                raise DslError(
                    f"algebra {raw.name!r}: op {n!r} is free; "
                    "free tables are only valid in search specs"
                )
            continue
        tables[n] = table
        problem = table_error(n, table, arity, m)
        if problem is not None:
            raise DslError(f"algebra {raw.name!r}: {problem}")
    if raw.requires and not allow_free:
        raise DslError(f"algebra {raw.name!r}: require clauses are only "
                       "valid in search specs")
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
    return raw_to_algebra(raw)


def parse_identity(text: str, signature: Signature | None = None) -> Identity:
    """Parse one identity statement, optionally validating against a
    signature (arity and symbol checks, SymbolError on a mismatch)."""
    p = _Parser(text)
    ident = p.identity_stmt()
    p.expect("eof")
    if signature is not None:
        check_identity_terms(signature, ident)
    return ident


def _statements(text, block):
    """Parse a mixed file into (blocks, identities) in source order, each
    algebra block mapped through block as soon as it is read."""
    p = _Parser(text)
    blocks, identities = [], []
    while p.peek()[0] != "eof":
        if p.at_keyword("algebra"):
            blocks.append(block(p.algebra_block()))
        elif p.at_keyword("identity"):
            identities.append(p.identity_stmt())
        else:
            p.error("expected 'algebra' or 'identity'")
    return blocks, identities


def parse_file(text: str):
    """Parse a mixed file: returns (algebras, identities) in source order."""
    return _statements(text, raw_to_algebra)


def parse_raw_blocks(text: str):
    """Like parse_file but keeps algebra blocks raw (for search specs)."""
    return _statements(text, lambda raw: raw)


def serialize(alg: FiniteAlgebra) -> str:
    """Emit DSL text; parse(serialize(a)) is structurally equal to a.

    A product table over the materialize limit is refused (BudgetError),
    and the text records no factors.
    """
    lines = [f"algebra {alg.name} {{", f"  carrier {alg.size}"]
    for c in alg.signature.constants:
        lines.append(f"  const {c} = {alg.constants[c]}")
    for n, arity in alg.signature.ops:
        lines.append(
            f"  op {n}/{arity} = {table_literal(alg.tables[n], alg.size)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def table_literal(table, m: int) -> str:
    """The DSL literal of a table on {0..m-1}: its entries in row-major
    order, joined by ", " in brackets.  The strings of 0..m-1 are made
    once per call, so an entry costs one dict read rather than a str()
    call; if any entry is outside 0..m-1 (in an unvalidated DenseTable,
    even beyond int64) every entry is written by str().  A ProductTable
    over the materialize limit raises BudgetError."""
    values = table.entries
    names = {v: str(v) for v in range(min(m, len(values)))}
    try:
        body = ", ".join(map(names.__getitem__, values))
    except KeyError:
        body = ", ".join(map(str, values))
    return f"[{body}]"
