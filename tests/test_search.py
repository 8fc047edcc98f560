import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from finalg import catalog
from finalg.core import (
    AlgebraError,
    BudgetError,
    Constant,
    DenseTable,
    LazyTable,
    Signature,
    Variable,
    standard_signature,
    table_from_fn,
    validate_algebra,
)
from finalg.identities import (
    check_identity,
    check_suite,
    identities_malcev,
    identity_2assoc,
    resolve_suite,
    suite_ok,
    suite_semiabelian,
)
from finalg.search import (
    SearchSpec,
    count_2assoc_semiabelian,
    parse_search_spec,
    prove_no_strict_2assoc,
    search,
)


def _malcev_2assoc_spec(m):
    sig = Signature((("mu", 3),), ())
    idents = tuple(identities_malcev()) + (identity_2assoc(2, op="mu"),)
    return SearchSpec(f"mu{m}", m, sig, idents)


def test_prove_none_malcev_2assoc_on_two_elements():
    spec = _malcev_2assoc_spec(2)
    spec.mode = "prove-none"
    result = search(spec)
    assert result.outcome == "none-exists"
    assert result.space_size == 256
    assert result.nodes < 256  # pruning must do real work


def test_find_first_returns_lex_smallest_witness():
    sig = standard_signature(1, shared_unit=True)
    idents = tuple(suite_semiabelian(1, ("e",)).identities) + (
        identity_2assoc(1),
    )
    spec = SearchSpec("grp2", 2, sig, idents)
    result = search(spec)
    assert result.outcome == "witness"
    w = result.witness
    assert validate_algebra(w).ok
    # independent enumeration in raw order: first (theta, alpha, e)
    # satisfying everything must match the witness
    def ok(theta, alpha, e):
        t = lambda a, b: theta[2 * a + b]
        al = lambda a, b: alpha[2 * a + b]
        return (
            all(al(a, a) == e for a in range(2))
            and all(t(al(a, b), b) == a for a in range(2) for b in range(2))
            and all(
                t(a, t(b, c)) == t(t(a, b), c)
                for a in range(2) for b in range(2) for c in range(2)
            )
        )

    first = next(
        (theta, alpha, e)
        for theta in itertools.product(range(2), repeat=4)
        for alpha in itertools.product(range(2), repeat=4)
        for e in range(2)
        if ok(theta, alpha, e)
    )
    assert w.tables["theta"].entries == first[0]
    assert w.tables["alpha1"].entries == first[1]
    assert w.constants["e"] == first[2]


def test_count_all_matches_independent_enumeration():
    result = count_2assoc_semiabelian(2, 1)
    assert result.outcome == "count"
    assert result.count == 2
    assert result.space_size == 2 ** 4 * 2 ** 4 * 2


def test_find_first_none_when_unsatisfiable():
    spec = _malcev_2assoc_spec(2)
    result = search(spec)
    assert result.outcome == "none-exists"
    assert result.witness is None


def test_trivial_carrier_always_has_witness():
    spec = _malcev_2assoc_spec(1)
    result = search(spec)
    assert result.outcome == "witness"
    assert result.witness.size == 1


def test_pinned_tables_constrain_search():
    sig = standard_signature(1, shared_unit=True)
    idents = tuple(suite_semiabelian(1, ("e",)).identities) + (
        identity_2assoc(1),
    )
    xnor = DenseTable(2, (1, 0, 0, 1))
    spec = SearchSpec("pinned", 2, sig, idents,
                      pinned_tables={"theta": xnor})
    result = search(spec)
    assert result.outcome == "witness"
    assert result.witness.tables["theta"].entries == (1, 0, 0, 1)
    assert result.witness.constants["e"] == 1
    # pin an impossible unit: no model remains
    spec = SearchSpec("pinned-bad", 2, sig, idents,
                      pinned_tables={"theta": xnor},
                      pinned_constants={"e": 0})
    assert search(spec).outcome == "none-exists"


def test_search_budget_refusal():
    spec = _malcev_2assoc_spec(3)
    with pytest.raises(BudgetError):
        search(spec, budget=10)
    # a cell count of 100 digits or more is worded by its terms m^arity
    m = 10 ** 60
    spec = SearchSpec("wide", m, standard_signature(1, shared_unit=True), ())
    with pytest.raises(BudgetError) as ei:
        search(spec)
    assert str(ei.value) == (
        f"search space {m}^({m}^2 + {m}^2 + 1) exceeds budget 1000000000")


def test_parse_search_spec_round_trip():
    text = """
    algebra S {
      carrier 2
      op theta/2 = free
      op alpha1/2 = free
      const e = 0
      require semiabelian:1 2assoc:1
    }
    """
    spec = parse_search_spec(text, mode="count-all")
    assert spec.size == 2
    assert spec.pinned_constants == {"e": 0}
    result = search(spec)
    # with the unit pinned to 0 only the xor table remains
    assert result.count == 1


def test_parse_search_spec_rejects_bad_entry_counts():
    from finalg.dsl import DslError

    text = "algebra S { carrier 2 op f/2 = [0, 1] }"
    with pytest.raises(DslError):
        parse_search_spec(text)


def test_no_strict_2assoc_beyond_singletons():
    for m in (2, 3):
        result = prove_no_strict_2assoc(m, 2)
        assert result.outcome == "none-exists"
        assert result.nodes > 0
    result = prove_no_strict_2assoc(1, 2)
    assert result.outcome == "witness"


def test_witnesses_are_independently_verified():
    sig = standard_signature(2, shared_unit=True)
    idents = tuple(suite_semiabelian(2, ("e", "e")).identities) + (
        identity_2assoc(2),
    )
    spec = SearchSpec("v2n2", 2, sig, idents)
    result = search(spec)
    assert result.outcome == "witness"
    w = result.witness
    assert suite_ok(check_suite(w, suite_semiabelian(2, ("e", "e"))))
    assert check_identity(w, identity_2assoc(2)).ok


# -- the full-rescan reference searcher ---------------------------------------

class _RescanState:
    def __init__(self, spec):
        self.m = spec.size
        self.tables = {}
        for name, arity in spec.signature.ops:
            pinned = spec.pinned_tables.get(name)
            if pinned is not None:
                self.tables[name] = list(pinned.entries)
            else:
                self.tables[name] = [None] * (spec.size ** arity)
        self.constants = {
            c: spec.pinned_constants.get(c) for c in spec.signature.constants
        }

    def eval(self, t, env):
        """Evaluate a term over the partial tables; None = not yet known."""
        if isinstance(t, Variable):
            return env[t.name]
        if isinstance(t, Constant):
            return self.constants[t.name]
        idx = 0
        for a in t.args:
            v = self.eval(a, env)
            if v is None:
                return None
            idx = idx * self.m + v
        return self.tables[t.op][idx]


def _rescan_violated(state, identities):
    m = state.m
    for ident in identities:
        for tup in itertools.product(range(m), repeat=len(ident.variables)):
            env = dict(zip(ident.variables, tup))
            lhs = state.eval(ident.lhs, env)
            if lhs is None:
                continue
            rhs = state.eval(ident.rhs, env)
            if rhs is None:
                continue
            if lhs != rhs:
                return True
    return False


def rescan_search(spec):
    """Reference searcher: after every assignment it re-evaluates every
    ground instance of every identity.  Returns (outcome, count, nodes,
    witness) with the witness as (op tables, constants) or None."""
    state = _RescanState(spec)
    if _rescan_violated(state, spec.identities):
        return "none-exists", 0, 1, None
    cells = spec.free_cells()
    nodes = count = 0
    witness = None

    def assign(depth):
        nonlocal nodes, count, witness
        if depth == len(cells):
            if spec.mode == "count-all":
                count += 1
                return False
            witness = (
                {k: tuple(v) for k, v in state.tables.items()},
                dict(state.constants),
            )
            return spec.mode == "find-first"
        sym, idx = cells[depth]
        for v in range(state.m):
            nodes += 1
            if idx is None:
                state.constants[sym] = v
            else:
                state.tables[sym][idx] = v
            if not _rescan_violated(state, spec.identities):
                if assign(depth + 1):
                    return True
            if idx is None:
                state.constants[sym] = None
            else:
                state.tables[sym][idx] = None
        return False

    assign(0)
    if spec.mode == "count-all":
        return "count", count, nodes, None
    if witness is None:
        return "none-exists", 0, nodes, None
    return "witness", 0, nodes, witness


def _assert_matches_rescan(spec):
    result = search(spec, budget=10 ** 30)
    # prove-none stops at the first model, so its tree is find-first's
    if spec.mode == "prove-none":
        spec = dataclasses.replace(spec, mode="find-first")
    outcome, count, nodes, witness = rescan_search(spec)
    assert (result.outcome, result.count, result.nodes) == (
        outcome, count, nodes
    )
    if witness is None:
        assert result.witness is None
    else:
        w = result.witness
        assert {k: t.entries for k, t in w.tables.items()} == witness[0]
        assert w.constants == witness[1]
    return result


def _census_spec(m, n):
    idents = tuple(
        resolve_suite(f"semiabelian:{n}", ("e",) * n).identities
    ) + (identity_2assoc(n),)
    return SearchSpec(f"census-{m}-{n}", m,
                      standard_signature(n, shared_unit=True), idents,
                      mode="count-all")


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_census_matches_full_rescan(m, n):
    spec = _census_spec(m, n)
    result = _assert_matches_rescan(spec)
    assert result.count == count_2assoc_semiabelian(m, n, 10 ** 30).count
    # a full rescan evaluates every instance at every node
    per_pass = sum(spec.size ** len(i.variables) for i in spec.identities)
    assert 0 < result.instances_evaluated < per_pass * (result.nodes + 1)


def test_malcev_prove_none_matches_full_rescan():
    spec = _malcev_2assoc_spec(2)
    spec.mode = "prove-none"
    assert _assert_matches_rescan(spec).outcome == "none-exists"


GROUP3_SPEC = """
algebra G {{
  carrier 3
  op theta/2 = free
  op alpha1/2 = free
  const e = {e}
  require semiabelian:1 2assoc:1
}}
"""


@pytest.mark.parametrize("mode", ["find-first", "count-all", "prove-none"])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_group3_specs_match_full_rescan(e, mode):
    spec = parse_search_spec(GROUP3_SPEC.format(e=e), mode=mode)
    result = _assert_matches_rescan(spec)
    if mode == "count-all":
        assert result.count == 1  # A034383(3) = 3 labeled groups, one per unit


def test_prove_none_stops_at_the_first_model():
    spec = parse_search_spec(GROUP3_SPEC.format(e=0), mode="prove-none")
    result = search(spec)
    assert (result.outcome, result.nodes) == ("witness", 1509)
    spec.mode = "find-first"
    assert search(spec) == result


def test_census_m4_matches_labeled_groups():
    assert count_2assoc_semiabelian(4, 1, budget=10 ** 30).count == 16


def _model_tables(m, n):
    """Tables of Z/m models: theta(a*, b) = a1 + b, alpha_i(a, b) = a - b,
    mu(a, b, c) = a - b + c."""
    alg = catalog.build_semigroup_algebra(catalog.cyclic_group(m), n, 1)
    tables = dict(alg.tables)
    tables["mu"] = table_from_fn(3, m, lambda a, b, c: (a - b + c) % m)
    return tables


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 3), st.integers(1, 2),
       st.sampled_from(["find-first", "count-all", "prove-none"]))
def test_random_specs_match_full_rescan(seed, m, n, mode):
    rng = random.Random(seed)
    suites = rng.sample(["semiabelian", "2assoc", "1assoc", "malcev"],
                        rng.randint(1, 3))
    ops = list(standard_signature(n, shared_unit=True).ops)
    if "malcev" in suites:
        ops.append(("mu", 3))
    idents = []
    for s in suites:
        idents.extend(resolve_suite(
            s if s == "malcev" else f"{s}:{n}", ("e",) * n).identities)
    # pin a random subset of ops, then the largest free ones until the
    # naive space is small enough for the reference searcher
    pinned = {name for name, _ in ops if rng.random() < 0.3}
    for name, arity in sorted(ops, key=lambda na: -na[1]):
        free = 1 + sum(m ** a for nm, a in ops if nm not in pinned)
        if m ** free <= 20000:
            break
        pinned.add(name)
    models = _model_tables(m, n)
    pinned_tables = {}
    for name, arity in ops:
        if name not in pinned:
            continue
        entries = list(models[name].entries)
        kind = rng.randrange(4)  # model (twice), one entry changed, random
        if kind == 2:
            entries[rng.randrange(len(entries))] = rng.randrange(m)
        elif kind == 3:
            entries = [rng.randrange(m) for _ in entries]
        pinned_tables[name] = DenseTable(arity, entries)
    pinned_constants = {"e": rng.randrange(m)} if rng.random() < 0.5 else {}
    spec = SearchSpec(f"rand{seed}", m, Signature(tuple(ops), ("e",)),
                      tuple(idents), pinned_tables=pinned_tables,
                      pinned_constants=pinned_constants, mode=mode)
    _assert_matches_rescan(spec)


def test_root_violation_reports_one_node():
    sig = standard_signature(1, shared_unit=True)
    idents = tuple(suite_semiabelian(1, ("e",)).identities)
    spec = SearchSpec("bad-pins", 2, sig, idents,
                      pinned_tables={"alpha1": DenseTable(2, (1, 0, 0, 1))},
                      pinned_constants={"e": 0})
    result = search(spec)
    assert (result.outcome, result.nodes) == ("none-exists", 1)
    # alpha1(0, 0) = 1 != e is the first instance evaluated
    assert result.instances_evaluated == 1
    assert result.elapsed_s >= 0


@pytest.mark.parametrize("size, tables, consts", [
    (0, {}, {}),
    (2, {}, {"e": 5}),
    (2, {"theta": DenseTable(2, (0, 1, 7, 0))}, {}),
    (2, {"theta": DenseTable(2, (0, 1, 1))}, {}),
])
def test_search_rejects_pins_outside_carrier(size, tables, consts):
    sig = standard_signature(1, shared_unit=True)
    idents = (identity_2assoc(1),)
    spec = SearchSpec("bad", size, sig, idents, pinned_tables=tables,
                      pinned_constants=consts)
    with pytest.raises(AlgebraError):
        search(spec)


def test_search_rejects_a_lazy_pin():
    sig = standard_signature(1, shared_unit=True)
    spec = SearchSpec("lazy", 2, sig, (identity_2assoc(1),),
                      pinned_tables={"theta": LazyTable(2, max)})
    with pytest.raises(AlgebraError, match="pinned table 'theta'"):
        search(spec)
