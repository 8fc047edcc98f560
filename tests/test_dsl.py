import importlib
import pkgutil
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finalg import catalog, cli, core, dsl
from finalg.core import Apply, Constant, DenseTable, SymbolError, Variable
from finalg.dsl import (
    DslError,
    _Parser,
    _line_col,
    parse_algebra,
    parse_file,
    parse_identity,
    parse_raw_blocks,
    serialize,
)

from conftest import random_algebra, tables_token_by_token

SAMPLE = """
# a cyclic group presented as theta(a, b) = a + b
algebra Z3 {
  carrier 3
  const e = 0
  op theta/2 = [0, 1, 2, 1, 2, 0, 2, 0, 1]
  op alpha1/2 = [0, 2, 1, 1, 0, 2, 2, 1, 0]
}

identity retraction(a, b): theta(alpha1(a, b), b) = a
"""


def test_parse_sample_block():
    algebras, identities = parse_file(SAMPLE)
    (alg,) = algebras
    assert alg.name == "Z3"
    assert alg.size == 3
    assert alg.constants == {"e": 0}
    assert alg.tables["theta"].lookup((2, 2), 3) == 1
    (ident,) = identities
    assert ident.name == "retraction"
    assert ident.variables == ("a", "b")
    assert ident.lhs == Apply("theta", Apply("alpha1", Variable("a"),
                                             Variable("b")), Variable("b"))
    assert ident.rhs == Variable("a")


def test_elem_aliases_resolve_in_tables_and_constants():
    text = """
    algebra Two {
      carrier 2
      elem bot = 0
      elem top = 1
      const e = top
      op f/1 = [top, bot]
    }
    """
    alg = parse_algebra(text)
    assert alg.constants["e"] == 1
    assert alg.tables["f"].entries == (1, 0)


def test_serialize_round_trip_catalog(bool2, z3_n2, z4_group, chain2_theta):
    for alg in (bool2, z3_n2, z4_group, chain2_theta):
        again = parse_algebra(serialize(alg))
        assert again == alg
        assert again.name == alg.name


def test_identity_round_trip():
    ident = parse_identity(
        "identity twoassoc(a1, a2, b1, b2, c): "
        "theta(a1, a2, theta(b1, b2, c)) = "
        "theta(theta(a1, a2, b1), theta(a1, a2, b2), c)"
    )
    assert len(ident.variables) == 5
    again = parse_identity(ident.text())
    assert again == ident


def test_parse_identity_checks_arity_against_signature(z3_n2):
    with pytest.raises(SymbolError) as ei:
        parse_identity(
            "identity bad(a): theta(a) = a", signature=z3_n2.signature
        )
    assert "theta" in str(ei.value)


def test_error_reports_line_and_column():
    bad = "algebra X {\n  carrier 2\n  op f/1 = [0, 7]\n}\n"
    with pytest.raises(DslError) as ei:
        parse_algebra(bad)
    assert "out of range" in str(ei.value)
    bad2 = "algebra X {\n  carrier 2\n  ops f/1 = [0, 1]\n}\n"
    with pytest.raises(DslError) as ei:
        parse_algebra(bad2)
    assert (ei.value.line, ei.value.col) == (3, 3)
    assert str(ei.value) == ("line 3, col 3: expected "
                             "carrier/elem/const/op/require (got 'ops')")


@pytest.mark.parametrize("text, line, col, message", [
    # errors in reading order: the ']' on line 2 comes before the '@'
    ("algebra X {\n  carrier 2 ]\n  op f/1 = [0, @]\n}\n", 2, 13,
     "expected carrier/elem/const/op/require (got ']')"),
    # unexpected character: raised when the lexer reaches it
    ("algebra X {\n  carrier 2\n  op f/1 = [0, @]\n}\n", 3, 16,
     "unexpected character '@'"),
    # bad element: reported at the statement that holds it
    ("algebra X {\n  carrier 2\n  op f/1 = [0, top]\n}\n", 3, 3,
     "expected an element (integer or declared alias)"),
    # end of input, after trailing blank lines and a comment
    ("algebra X {\n  carrier 2\n\n  # more\n  ", 5, 3,
     "expected carrier/elem/const/op/require (got end of input)"),
    # integer literals over Python's 4,300-digit conversion limit
    ("algebra X {\n  carrier %s }" % ("1" * 5000), 2, 11,
     "integer literal of 5000 digits is too long"),
    ("algebra X { carrier 2 op f/1 = [0, %s] }" % ("1" * 5000), 1, 36,
     "integer literal of 5000 digits is too long"),
    # read before the token after it is lexed
    ("algebra X {\n  carrier %s @ }" % ("1" * 5000), 2, 11,
     "integer literal of 5000 digits is too long"),
], ids=["parse-error-first", "unexpected-character", "bad-element",
        "end-of-input", "long-carrier", "long-entry",
        "long-carrier-before-character"])
def test_error_line_and_column_by_kind(text, line, col, message):
    with pytest.raises(DslError) as ei:
        parse_algebra(text)
    assert (ei.value.line, ei.value.col) == (line, col)
    assert str(ei.value) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize("header", [
    "algebra maps-2n2 {",  # ASCII
    "algebra maps-2n2 { # é",  # a non-ASCII comment
])
def test_a_bad_character_after_suspect_lines_is_found(header):
    # line 1 and line 100 hold a '-' and a comment, which lex; the parser
    # goes on past them to an '@' at the end of a 4,096-entry table
    rows = [", ".join(["1"] * 16) + "," for _ in range(256)]
    rows[97] += "  # row 98"
    rows[-1] = rows[-1][:-2] + "@"
    text = (header + "\n  carrier 16\n  op theta/3 = [" + "\n".join(rows)
            + "]\n}\n")
    assert len(text) > 12_000
    with pytest.raises(DslError) as ei:
        parse_algebra(text)
    assert (ei.value.line, ei.value.col) == (258, 46)
    assert str(ei.value) == "line 258, col 46: unexpected character '@'"




def test_wrong_entry_count_rejected():
    bad = "algebra X { carrier 2 op f/2 = [0, 1, 0] }"
    with pytest.raises(DslError):
        parse_algebra(bad)


def test_free_tables_only_in_search_specs():
    text = "algebra X { carrier 2 op f/1 = free }"
    with pytest.raises(DslError):
        parse_algebra(text)
    raws, _ = parse_raw_blocks(text)
    assert raws[0].ops == [("f", 1, None)]
    # so are require clauses, in parse_file as in parse_algebra
    text = "algebra X { carrier 2 op f/1 = [1, 0] require 2assoc:7 }"
    for parse in (parse_algebra, parse_file):
        with pytest.raises(DslError, match="require clauses"):
            parse(text)
    raws, _ = parse_raw_blocks(text)
    assert raws[0].requires == ["2assoc:7"]


def test_require_clause_with_digit_prefixed_suite_names():
    text = """
    algebra S {
      carrier 2
      op theta/2 = free
      op alpha1/2 = free
      const e = 0
      require semiabelian:1 2assoc:1 1assoc:1
    }
    """
    raws, _ = parse_raw_blocks(text)
    assert raws[0].requires == ["semiabelian:1", "2assoc:1", "1assoc:1"]


def test_comments_and_whitespace_ignored():
    text = "# header\nalgebra A { # inline\n carrier 1\n op f/1 = [0] }"
    alg = parse_algebra(text)
    assert alg.size == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 4), st.integers(1, 2))
def test_serialize_parse_round_trip_random(seed, m, n):
    alg = random_algebra(random.Random(seed), m, n)
    assert parse_algebra(serialize(alg)) == alg


# The hand-stepped tokenizer that the offset-based one replaced, kept as a
# reference: (kind, value, line, col) tokens, and the same DslError text.
_REFERENCE_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<ident>\d*[A-Za-z_][A-Za-z0-9_\-]*)
      | (?P<int>\d+)
      | (?P<punct>[{}\[\](),=/:])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    """(kind, value, offset) tokens ending in one eof token, read off the
    parser's lexer; whitespace and comments are skipped, and the first
    unexpected character raises."""
    p = _Parser(text)
    toks = [p.peek()]
    while toks[-1][0] != "eof":
        p.next()
        toks.append(p.peek())
    return toks


def _reference_tokenize(text):
    toks = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
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


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except DslError as e:
        return str(e)


def _mutated(text, edits):
    for pos, op, ch in edits:  # insert, delete or replace one character
        pos %= len(text) + 1
        text = text[:pos] + ch * (op != 1) + text[pos + (op != 0):]
    return text


_MUTATION_CHARS = "az_Z09-{}[](),=/:#@$ \n\t\r\x0c\u00e9\u0663"
_BASES = [SAMPLE, "algebra A {\n carrier 2\n elem top = 1\n"
          "  op f/1 = [top, 0] # c\n require 2assoc:1\n}\n"]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_BASES),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 2),
                          st.sampled_from(_MUTATION_CHARS)), max_size=6))
def test_tokenizer_matches_reference_on_mutated_texts(base, edits):
    text = _mutated(base, edits)
    got = _tokens_or_error(_tokenize, text)
    if isinstance(got, list):
        got = [(k, v, *_line_col(text, off)) for k, v, off in got]
    assert got == _tokens_or_error(_reference_tokenize, text)


# -- the one-step table literal against the token-by-token read -------------

def _parse_or_error(text):
    # a mutated signature (op g/0, a repeated name) is a SymbolError
    try:
        algebras, identities = parse_file(text)
    except (DslError, SymbolError) as e:
        return str(e)
    return algebras, [a.name for a in algebras], identities


def _fast_and_slow(text):
    """parse_file's outcome with the one-step table read, and with every
    table literal read token by token."""
    fast = _parse_or_error(text)
    with tables_token_by_token():
        slow = _parse_or_error(text)
    return fast, slow


_TABLE_BASES = [
    # 16-element ternary theta tables, one under a name with dashes
    serialize(catalog.build_group_product_algebra(
        [catalog.cyclic_group(4), catalog.cyclic_group(4)], (1, 2), 2)),
    serialize(catalog.build_map_composition_algebra(2, 2)),
    serialize(catalog.build_boolean_protomodular(2)),
    "algebra A {\n carrier 3\n elem top = 2\n"
    "  op f/2 = [top, 0, 1, # c\n 2, 1, 0,\n 0, 0, 0]\n"
    "  op g/1 = [2, 1, 0] # tail\n}\n"
    "identity inv(a): g(g(a)) = a\n",
    # no space after a closing bracket
    "algebra B{carrier 2 op f/2=[0,1,1,0]op g/1=[1,0]const e=0}"
    "identity i(a):g(g(a))=a",
]
_TABLE_MUTATION_CHARS = _MUTATION_CHARS + "\x1c"


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_TABLE_BASES + _BASES),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 2),
                          st.sampled_from(_TABLE_MUTATION_CHARS)),
                max_size=6))
def test_table_fast_path_matches_token_by_token_read(base, edits):
    text = _mutated(base, edits)
    fast, slow = _fast_and_slow(text)
    assert fast == slow


@pytest.mark.parametrize("body", [
    "[]", "[0,]", "[0,,1]", "[0 1]", "[0, # c\n 1]", "[top, 0]",
    "[٣, 0]", "[0, 1, 2, 3]", "[ 1 ,\x0c0\n, 2,3]", "[1,\x1c0, 2, 3]",
    "[0, ,1]", "[0,1,]", "[,0]", "[,0 1, 2, 3]", "[007, 1]", "[ ]",
    "[0, 1, 2, 3 ]", "[0, 1, 2, 3 4]", "[0, 1,\n\n 2, 3,]", "[0, 1, 2, 3, ]",
    "[0 1, ]",
    "[0, 1, 2, 000000000000000000003]", "[0, 1, 2, %s]" % ("9" * 18),
    "[0, 1, 2, %s]" % ("9" * 19), "[0, 1, 2, 9223372036854775808]",
    "[\x0b0,\x0c1]", "[0,\u00a01]", "[0,\u20031]",
    "[\x0b0,\x0c1, 2,\t3\r]", "[0,\u00a01, 2, 3]",
])
def test_table_fast_path_pinned_bodies(body):
    text = "algebra X {\n  carrier 4\n  elem top = 1\n  op f/1 = %s}\n" % body
    fast, slow = _fast_and_slow(text)
    assert fast == slow


def test_table_fast_path_long_entry_keeps_line_and_column():
    text = "algebra X { carrier 2 op f/1 = [0, %s] }" % ("1" * 5000)
    fast, slow = _fast_and_slow(text)
    assert fast == slow == ("line 1, col 36: integer literal of 5000 "
                            "digits is too long")


def test_plain_table_literal_is_read_in_one_step(monkeypatch):
    def no_element(*args):
        raise AssertionError("entry read token by token")

    monkeypatch.setattr(dsl._Parser, "element", no_element)
    alg = parse_algebra("algebra X { carrier 2 op f/2 = [0, 1,\n 1 , 0] }")
    assert alg.tables["f"].entries == (0, 1, 1, 0)


def test_digits_only_tables_build_no_entries_tuple(tmp_path, monkeypatch):
    text = serialize(catalog.build_group_product_algebra(
        [catalog.cyclic_group(4), catalog.cyclic_group(4)], (1, 2), 2))
    alg = parse_algebra(text)
    assert all(t._entries is None for t in alg.tables.values())
    with tables_token_by_token():
        slow = parse_algebra(text)
    assert all(t._entries is not None for t in slow.tables.values())
    assert alg == slow

    def no_entries(table):
        raise AssertionError("entries tuple built")

    monkeypatch.setattr(core.DenseTable, "entries", property(no_entries))
    path = tmp_path / "g.alg"
    path.write_text(text)
    assert cli.main(["check", str(path), "--suite", "semiabelian:2",
                     "--suite", "2assoc:2"]) == 0


_CHARACTER_MUTATIONS = _TABLE_MUTATION_CHARS + "\x0b\x1f\u00a0\u2003~%"


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_TABLE_BASES + _BASES),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 2),
                          st.sampled_from(_CHARACTER_MUTATIONS)),
                max_size=6))
def test_errors_are_reported_in_reading_order(base, edits):
    # an unexpected character is the first one in the text, and any other
    # error with a line and column has no unexpected character before it
    text = _mutated(base, edits)
    first_bad = _tokens_or_error(_reference_tokenize, text)
    try:
        parse_file(text)
    except (DslError, SymbolError) as e:
        if "unexpected character" in str(e):
            assert str(e) == first_bad
        elif isinstance(first_bad, str) and getattr(e, "line", None):
            bad_at = tuple(map(int, re.findall(r"\d+", first_bad)[:2]))
            assert bad_at > (e.line, e.col)
    else:
        assert isinstance(first_bad, list)


_ENTRIES = st.one_of(st.integers(-3, 24), st.integers(-2 ** 63, 2 ** 63 - 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20), st.lists(_ENTRIES, max_size=60), st.booleans(),
       st.sampled_from([0, 2 ** 63, 10 ** 30]))
def test_table_literal_is_str_of_each_entry(m, entries, from_array, huge):
    if from_array:
        table = DenseTable.of_array(1, np.array(entries, dtype=np.int64))
    else:  # a tuple table may hold entries beyond int64
        entries += [huge] * (huge > 0)
        table = DenseTable(1, entries)
    want = "[" + ", ".join(map(str, entries)) + "]"
    assert dsl.table_literal(table, m) == want


# -- the Python 3.10 floor ----------------------------------------------------

# atomic groups and possessive quantifiers: re.error before Python 3.11
_PY311_ONLY = re.compile(r"\(\?>|(?<!\\)[*+?}]\+")


def test_module_patterns_use_no_python_3_11_syntax():
    assert all(_PY311_ONLY.search(p) for p in
               ("(?>a)", "a*+", "a++", "a?+", "a{2}+"))
    assert not any(_PY311_ONLY.search(p) for p in
                   (r"\++", "a+?", r"(?=(a+))\1", "(?:a)*"))
    import finalg

    seen = set()
    for info in pkgutil.iter_modules(finalg.__path__):
        module = importlib.import_module(f"finalg.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                seen.add(f"finalg.{info.name}.{name}")
                assert not _PY311_ONLY.search(value.pattern), (
                    f"finalg.{info.name}.{name}")
    assert "finalg.dsl._TOKEN" in seen
