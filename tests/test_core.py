import copy
import dataclasses
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finalg.core import (
    AlgebraError,
    Apply,
    BudgetError,
    Constant,
    DenseTable,
    EvalError,
    FiniteAlgebra,
    Identity,
    ProductTable,
    Signature,
    SymbolError,
    Variable,
    eval_term,
    exponent_text,
    materializable,
    power_exceeds,
    require_materializable,
    standard_algebra,
    standard_signature,
    table_error,
    table_from_fn,
    term_text,
    unit_constants,
    validate_algebra,
)
from finalg import catalog, dsl

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


def test_materialize_keeps_its_block_array(monkeypatch):
    # several blocks, so the array is assembled from more than one call
    monkeypatch.setattr(catalog, "_BLOCK", 7)
    table = catalog._table(3, 4, lambda a, b, c: (a * 9 + b * 3 + c * 2) % 4)
    arr = table.array()
    assert arr.dtype == np.int64 and not arr.flags.writeable
    assert arr.tolist() == list(table.entries)
    assert all(type(x) is int for x in table.entries)
    assert table.array() is arr
    assert table == table_from_fn(3, 4, lambda a, b, c: (a * 9 + b * 3
                                                         + c * 2) % 4)


def test_table_of_an_array_builds_its_entries_on_first_use():
    arr = (np.arange(27, dtype=np.int64) * 5) % 3
    table = DenseTable.of_array(3, arr)
    plain = DenseTable(3, arr.tolist())
    assert table.array() is arr and not arr.flags.writeable
    assert len(table) == 27 and repr(table) == repr(plain)
    assert table_error("f", table, 3, 3) is None
    assert table._entries is None  # not built yet
    assert table.lookup((2, 1, 0), 3) == plain.lookup((2, 1, 0), 3)
    entries = table.entries
    assert entries == tuple(arr.tolist()) and table.entries is entries
    assert all(type(x) is int for x in entries)
    assert table == plain and hash(table) == hash(plain)
    assert table.array() is arr
    alg, twin = (FiniteAlgebra("t", Signature((("f", 3),)), 3, {"f": t})
                 for t in (DenseTable.of_array(3, arr.copy()), plain))
    assert dsl.serialize(alg) == dsl.serialize(twin)


@pytest.mark.parametrize("index, value", [(0, 3), (13, -1), (26, 7)])
def test_table_of_an_array_range_error_matches_entries(index, value):
    arr = np.zeros(27, dtype=np.int64)
    arr[index] = value
    want = table_error("f", DenseTable(3, arr.tolist()), 3, 3)
    assert want == f"symbol 'f': entry {value} out of range at flat index {index}"
    table = DenseTable.of_array(3, arr)
    assert table_error("f", table, 3, 3) == want
    # the largest entry is kept between checks against different carriers
    if value > 0:
        assert table.first_out_of_range(value + 1) is None
        assert table.first_out_of_range(value) == (index, value)


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


def test_identity_hash_is_by_value_and_no_field():
    # the hash kept by __post_init__ is that of the four fields, which
    # alone make up ==, repr and replace
    a, b = Variable("a"), Variable("b")
    ident = Identity("comm", ("a", "b"), Apply("f", a, b), Apply("f", b, a))
    again = Identity("comm", ("a", "b"), Apply("f", a, b), Apply("f", b, a))
    assert ident == again and hash(ident) == hash(again)
    assert [f.name for f in dataclasses.fields(Identity)] == [
        "name", "variables", "lhs", "rhs"]
    assert repr(ident).startswith("Identity(name='comm', variables=")
    assert "_hash" not in repr(ident)
    swap = dataclasses.replace(ident, name="swap")
    assert swap != ident
    assert hash(swap) == hash(("swap", ident.variables, ident.lhs, ident.rhs))


def test_apply_hash_is_by_value_and_no_field():
    # the hash kept by __init__ is that of the two fields, which alone
    # make up == and repr
    a, b = Variable("a"), Variable("b")
    term = Apply("f", Apply("g", a), b)
    again = Apply("f", Apply("g", a), b)
    assert term == again and hash(term) == hash(again)
    assert hash(term) == hash(("f", (Apply("g", a), b)))
    assert term != Apply("f", b, Apply("g", a))
    assert [f.name for f in dataclasses.fields(Apply)] == ["op", "args"]
    assert repr(term) == (
        "Apply(op='f', args=(Apply(op='g', args=(Variable(name='a'),)), "
        "Variable(name='b')))")


def test_signature_hash_is_by_value_and_no_field():
    sig = Signature((("f", 2), ("g", 1)), ("e",))
    again = Signature((("f", 2), ("g", 1)), ("e",))
    assert sig == again and hash(sig) == hash(again)
    assert hash(sig) == hash(((("f", 2), ("g", 1)), ("e",)))
    assert sig != Signature((("f", 2), ("g", 1)), ())
    assert [f.name for f in dataclasses.fields(Signature)] == [
        "ops", "constants"]
    assert repr(sig) == (
        "Signature(ops=(('f', 2), ('g', 1)), constants=('e',))")
    extended = dataclasses.replace(sig, constants=("e", "u"))
    assert hash(extended) == hash((sig.ops, ("e", "u")))


def test_kept_hashes_are_computed_again_on_unpickling():
    # str hashes differ between processes, so a hash kept in a pickle
    # would be stale in another one; a stale one is faked here
    sig = Signature((("f", 1),), ("e",))
    term = Apply("f", Variable("a"))
    ident = Identity("i", ("a",), term, Variable("a"))
    for obj in (sig, term, ident):
        right = hash(obj)
        object.__setattr__(obj, "_hash", right + 1)
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == right
        assert copy.deepcopy(obj) == obj


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
    # a product table is checked through its factors' tables
    good, bad = DenseTable(2, (0, 1, 1, 0)), DenseTable(2, (0, 1, 9, 0))
    assert table_error("f", ProductTable(2, [(good, 2), (good, 2)]),
                       2, 4) is None
    assert table_error("f", ProductTable(2, [(good, 2), (bad, 2)]), 2, 4) == (
        "symbol 'f': entry 9 out of range at flat index 2")
    assert table_error("f", ProductTable(2, [(good, 2)] * 2), 2, 5) == (
        "symbol 'f': product table on 4 elements != 5")
    assert table_error("f", ProductTable(2, [(good, 2)] * 2), 3, 4) == (
        "symbol 'f': table arity 2 != declared 3")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(0, 80), st.integers(0, 2 ** 70))
def test_power_exceeds_is_the_power_compared(base, exp, bound):
    assert power_exceeds(base, exp, bound) == (base ** exp > bound)


def test_power_exceeds_never_builds_a_huge_power():
    # each decided from bit lengths: the power would have 10^30 digits
    assert power_exceeds(2, 10 ** 30, 10 ** 9)
    assert power_exceeds(10 ** 30, 10 ** 30, 10 ** 9)
    assert not power_exceeds(1, 10 ** 30, 1)
    assert not power_exceeds(0, 10 ** 30, 0)
    # a budget of 2,000 digits: the power built stays within twice its bits
    bound = 10 ** 2000
    assert not power_exceeds(10, 2000, bound)
    assert power_exceeds(10, 2001, bound)


def test_one_size_rule_counts_entries_and_arguments():
    limit = 1 << 22
    assert materializable(2, 22) and not materializable(2, 23)
    assert materializable(limit, 1) and not materializable(limit + 1, 1)
    # one element: a single entry at any arity, but one digit array per
    # argument, so the arity is bounded too
    assert materializable(1, limit) and not materializable(1, limit + 1)
    assert materializable(0, 5)
    with pytest.raises(BudgetError) as ei:
        require_materializable(3, 10 ** 30)
    assert str(ei.value) == (
        f"table with 3^{10 ** 30} entries exceeds cap {limit}")
    with pytest.raises(BudgetError) as ei:
        require_materializable(1, limit + 1)
    assert str(ei.value) == (
        f"table with {limit + 1} arguments exceeds cap {limit}")
    # an arity of 100 digits or more is written as its parts
    n = 10 ** 4299 - 1  # 4299 digits; n + 1 would print 4300 of them
    with pytest.raises(BudgetError) as ei:
        require_materializable(2, (n + 1) ** 2, f"({n} + 1)^2")
    assert str(ei.value) == (
        f"table with 2^(({n} + 1)^2) entries exceeds cap {limit}")
    assert exponent_text(10 ** 99 - 1, "x") == "9" * 99
    assert exponent_text(10 ** 99, "x") == exponent_text(None, "x") == "(x)"


def test_product_tables_look_up_through_their_factors():
    # the 512-element matrix algebra is the product of three projection
    # algebras on 8 rows, and its theta is over the materialize limit
    big = catalog.build_matrix_row_algebra(2, 2)
    theta = big.op("theta")
    assert isinstance(theta, ProductTable) and theta.size == 512
    rng = random.Random(5)
    for _ in range(200):
        mats = [rng.randrange(512) for _ in range(3)]
        # row i (three bits, row 0 most significant) of argument i
        want = sum(mats[i] & (0b111 << 3 * (2 - i)) for i in range(3))
        assert theta.lookup(mats, 512) == want
    for read in (theta.array, lambda: theta.entries,
                 lambda: dsl.serialize(big)):
        with pytest.raises(BudgetError, match="512\\^3 entries"):
            read()
    # validation range-checks the factors' 3 * 8^3 values
    rep = validate_algebra(big)
    assert (rep.verdict, rep.tuples_checked) == ("pass", 3 * 8 ** 3)
    dented = FiniteAlgebra("dented", big.signature, 512, {
        "theta": ProductTable(3, [(DenseTable(3, [9] + [0] * 511), 8)]
                              + list(theta.parts[1:]))})
    assert validate_algebra(dented).detail == (
        "symbol 'theta': entry 9 out of range at flat index 0")


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
