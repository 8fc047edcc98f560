import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from finalg.core import (
    AlgebraError,
    Apply,
    Constant,
    DenseTable,
    EvalError,
    FiniteAlgebra,
    Identity,
    LazyTable,
    Signature,
    SymbolError,
    Variable,
    eval_term,
    standard_algebra,
    standard_signature,
    table_error,
    table_from_fn,
    term_text,
    unit_constants,
    validate_algebra,
)
from finalg import catalog

from conftest import random_algebra


def test_signature_rejects_duplicates():
    with pytest.raises(AlgebraError):
        Signature((("f", 2), ("f", 1)), ())
    with pytest.raises(AlgebraError):
        Signature((("f", 2),), ("f",))
    with pytest.raises(AlgebraError):
        Signature((("f", 0),), ())


def test_standard_signature_shapes():
    sig = standard_signature(2)
    assert dict(sig.ops) == {"theta": 3, "alpha1": 2, "alpha2": 2}
    assert sig.constants == ("e1", "e2")
    shared = standard_signature(3, shared_unit=True)
    assert shared.constants == ("e",)
    assert dict(shared.ops)["theta"] == 4


def test_standard_algebra_unit_rule():
    theta = table_from_fn(3, 2, lambda a, b, c: c)
    alpha = table_from_fn(2, 2, lambda a, b: 0)
    shared = standard_algebra("S", 2, theta, [alpha, alpha], (1, 1))
    assert shared.signature == standard_signature(2, shared_unit=True)
    assert shared.constants == {"e": 1}
    assert unit_constants(shared, 2) == ("e", "e")
    split = standard_algebra("D", 2, theta, [alpha, alpha], (0, 1))
    assert split.signature == standard_signature(2)
    assert split.constants == {"e1": 0, "e2": 1}
    assert unit_constants(split, 2) == ("e1", "e2")
    assert validate_algebra(split).ok
    # the catalog builds through the same rule
    assert catalog.build_boolean_protomodular(2).constants == {"e1": 0,
                                                               "e2": 3}
    v2 = catalog.build_lattice_v2_algebra(catalog.chain_lattice(1))
    assert v2.signature.constants == ("e",) and v2.constants == {"e": 0}


def test_unit_constants_needs_e1_to_en_or_a_shared_e():
    alg = FiniteAlgebra("X", Signature((("theta", 3),), ("e1", "x")), 2,
                        {"theta": table_from_fn(3, 2, max)}, {"e1": 0, "x": 1})
    with pytest.raises(SymbolError, match="neither e1..e2 nor"):
        unit_constants(alg, 2)
    assert unit_constants(alg, 1) == ("e1",)


def test_dense_table_row_major_order():
    # index = a * m + b for a binary table
    t = table_from_fn(2, 3, lambda a, b: (a + b) % 3)
    assert t.entries == tuple((a + b) % 3 for a in range(3) for b in range(3))
    assert t.lookup((2, 2), 3) == 1
    assert t.lookup((0, 1), 3) == 1


def test_lazy_table_matches_dense():
    fn = lambda a, b: (a * b) % 5
    lazy = LazyTable(2, fn)
    dense = table_from_fn(2, 5, fn)
    for args in itertools.product(range(5), repeat=2):
        assert lazy.lookup(args, 5) == dense.lookup(args, 5)
    assert lazy.materialize(5).entries == dense.entries


def test_eval_term_nested(bool2):
    # theta(x, y, z) = (x | z) & y on bitmask subsets of {0,1}
    theta = lambda x, y, z: (x | z) & y
    term = Apply(
        "theta",
        Apply("alpha1", Variable("a"), Variable("b")),
        Apply("alpha2", Variable("a"), Variable("b")),
        Variable("b"),
    )
    for a, b in itertools.product(range(4), repeat=2):
        got = eval_term(bool2, term, {"a": a, "b": b})
        assert got == theta(a & ~b & 3, (a | ~b) & 3, b)


def test_eval_constants(bool2):
    assert eval_term(bool2, Constant("e1"), {}) == 0
    assert eval_term(bool2, Constant("e2"), {}) == 3
    with pytest.raises(SymbolError):
        eval_term(bool2, Constant("e9"), {})
    with pytest.raises(SymbolError):
        eval_term(bool2, Apply("nope", Variable("a")), {"a": 0})
    with pytest.raises(EvalError):
        eval_term(bool2, Variable("zz"), {"a": 0})
    with pytest.raises(SymbolError):
        eval_term(bool2, Apply("theta", Variable("a"), Variable("a")), {"a": 0})


def test_term_text():
    t = Apply("theta", Constant("e"), Variable("a"))
    assert term_text(t) == "theta(e, a)"


def test_identity_rejects_undeclared_variables():
    with pytest.raises(AlgebraError):
        Identity("bad", ("a",), Variable("a"), Variable("b"))


def test_validate_accepts_catalog(bool2, z3_n2, z4_group):
    for alg in (bool2, z3_n2, z4_group):
        rep = validate_algebra(alg)
        assert rep.ok, rep.detail


def test_validate_flags_out_of_range_entry():
    sig = Signature((("f", 1),), ())
    alg = FiniteAlgebra("bad", sig, 2, {"f": DenseTable(1, (0, 5))}, {})
    rep = validate_algebra(alg)
    assert not rep.ok
    assert "f" in rep.detail and "5" in rep.detail


def test_validate_flags_wrong_length_and_missing_table():
    sig = Signature((("f", 2),), ("c",))
    alg = FiniteAlgebra("bad", sig, 2, {"f": DenseTable(2, (0, 1, 0))}, {"c": 0})
    assert not validate_algebra(alg).ok
    alg2 = FiniteAlgebra("bad2", sig, 2, {}, {"c": 0})
    assert not validate_algebra(alg2).ok
    alg3 = FiniteAlgebra(
        "bad3", sig, 2, {"f": DenseTable(2, (0, 1, 0, 1))}, {"c": 7}
    )
    assert not validate_algebra(alg3).ok


def test_table_error_names_the_first_problem():
    assert table_error("f", DenseTable(2, (0, 1, 1, 0)), 2, 2) is None
    assert table_error("f", DenseTable(2, (0, 1, 1, 0)), 1, 2) == (
        "symbol 'f': table arity 2 != declared 1")
    assert table_error("f", DenseTable(2, (0, 1, 0)), 2, 2) == (
        "symbol 'f': table length 3 != 2^2")
    assert table_error("f", DenseTable(2, (0, 2, -1, 0)), 2, 2) == (
        "symbol 'f': entry 2 out of range at flat index 1")
    assert table_error("f", DenseTable(2, (0, 1, -1, 0)), 2, 2) == (
        "symbol 'f': entry -1 out of range at flat index 2")
    assert table_error("f", DenseTable(3, (0,) * 8), 3, 2) is None
    assert table_error("f", DenseTable(9, (0,)), 9, 1) is None
    # decided from the arity alone: 3^10000000 is never built
    assert table_error("f", DenseTable(10 ** 7, (0,)), 10 ** 7, 3) == (
        "symbol 'f': table length 1 != 3^10000000")
    lazy = LazyTable(1, lambda a: a + 9)  # a lazy range is not checked
    assert table_error("f", lazy, 1, 2) is None
    assert table_error("f", lazy, 2, 2) == (
        "symbol 'f': table arity 1 != declared 2")


def test_structural_equality_ignores_name(z3_n2):
    clone = FiniteAlgebra(
        "other", z3_n2.signature, z3_n2.size, dict(z3_n2.tables),
        dict(z3_n2.constants),
    )
    assert clone == z3_n2


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 4), st.integers(1, 2))
def test_random_algebras_validate_and_evaluate_totally(seed, m, n):
    rng = random.Random(seed)
    alg = random_algebra(rng, m, n)
    assert validate_algebra(alg).ok
    term = Apply("theta", *(Variable("b") for _ in range(n)), Constant("e1"))
    for b in range(m):
        v = eval_term(alg, term, {"b": b})
        assert 0 <= v < m
