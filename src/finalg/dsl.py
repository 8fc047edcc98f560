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

Parsing starts with one check of the whole text's characters, so an
unexpected character is reported before any parse error; then tokens are
lexed one at a time as the parser asks for them.  A table literal whose
body holds only ASCII digits, commas and whitespace is read in one step.
Any other body, such as one with aliases, comments, empty slots or an
integer over Python's conversion limit, is read token by token, which
accepts the same tables and reports the errors.
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

# A character other than ASCII token characters and whitespace: '#', a
# '-' (valid only inside an identifier), a non-ASCII digit or space, or
# one that is valid only in a comment.  Most files hold none, and then
# no line needs lexing before the parse.
_SUSPECT = re.compile(r"[^\s{}\[\](),=/:A-Za-z0-9_]")

# The body of a table literal after its '[': ASCII digits, commas and
# whitespace up to the closing ']'.
_TABLE_BODY = re.compile(r"([0-9,\s]*)\]")


_STATEMENTS = ("carrier", "elem", "const", "op", "require")


def _line_col(text, offset):
    """The 1-based line and column of text[offset]."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _check_characters(text):
    """Raise at the first unexpected character, the one the lexer would
    reach first, so that it is reported before any parse error.  No token
    spans a newline except whitespace, so each line is lexed alone, and
    only a line holding a suspect character is lexed."""
    pos = 0
    while (suspect := _SUSPECT.search(text, pos)) is not None:
        start = text.rfind("\n", 0, suspect.start()) + 1
        pos = text.find("\n", suspect.start())
        if pos < 0:
            pos = len(text)
        for m in _TOKEN.finditer(text, start, pos):
            if m.lastgroup == "bad":
                raise DslError(f"unexpected character {m['bad']!r}",
                               *_line_col(text, m.start("bad")))


def _tokenize(text):
    """(kind, value, offset) tokens ending in one eof token; whitespace and
    comments are skipped, and the first unexpected character raises."""
    p = _Parser(text)
    toks = [p.peek()]
    while toks[-1][0] != "eof":
        p.next()
        toks.append(p.peek())
    return toks


class _Parser:
    """A recursive-descent parser over tokens lexed one at a time, on
    demand, after one check of the whole text's characters."""

    def __init__(self, text):
        _check_characters(text)
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
        _, v, offset = self.expect("int")
        try:
            return int(v)
        except ValueError:  # longer than Python's int conversion limit
            self.fail(f"integer literal of {len(v)} digits is too long",
                      offset)

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
                    raw.ops.append((oname, arity, self.table(raw, start)))
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

    def table(self, raw, start):
        """The entries of a table literal.  A body of ASCII digits, commas
        and whitespace is read in one step when every slot holds an
        integer; any other body (aliases, comments, empty slots, literals
        over the int conversion limit) is read token by token, which
        raises the errors."""
        if self.peek()[:2] == ("punct", "["):
            m = _TABLE_BODY.match(self.text, self.pos)
            if m:
                try:
                    entries = list(map(int, m[1].split(",")))
                except ValueError:
                    pass
                else:
                    self.pos = m.end()
                    self.next()
                    return entries
        self.expect("punct", "[")
        entries = []
        if not self.accept("punct", "]"):
            entries.append(self.element(raw, start))
            while self.accept("punct", ","):
                entries.append(self.element(raw, start))
            self.expect("punct", "]")
        return entries

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
    for n, arity, entries in raw.ops:
        if entries is None:
            if not allow_free:
                raise DslError(
                    f"algebra {raw.name!r}: op {n!r} is free; "
                    "free tables are only valid in search specs"
                )
            continue
        tables[n] = DenseTable(arity, entries)
        problem = table_error(n, tables[n], arity, m)
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
        body = ", ".join(str(v) for v in alg.tables[n].entries)
        lines.append(f"  op {n}/{arity} = [{body}]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_identity(ident: Identity) -> str:
    return ident.text() + "\n"
