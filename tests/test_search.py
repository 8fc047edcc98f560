import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import finalg.search as engine
from finalg import catalog
from finalg.core import (
    AlgebraError,
    Apply,
    BudgetError,
    Constant,
    DenseTable,
    Identity,
    InputError,
    Signature,
    Variable,
    standard_signature,
    table_from_fn,
    validate_algebra,
)
from finalg.identities import (
    check_identity,
    check_laws,
    identities_malcev,
    identity_2assoc,
    identity_malcev_assoc_expanded,
    resolve_suite,
    suite_semiabelian,
)
from finalg.search import (
    MODES,
    SEARCH_BUDGET,
    SearchSpec,
    _Cells,
    _GROUND_WEIGHT,
    _ground_size,
    _semiabelian_2assoc,
    count_2assoc_semiabelian,
    parse_search_spec,
    prove_no_strict_2assoc,
    search,
    symbol_ranks,
)

from conftest import RANDOM_OPS, random_identities


def _malcev_2assoc_spec(m):
    sig = Signature((("mu", 3),), ())
    idents = tuple(identities_malcev()) + (identity_2assoc(2, op="mu"),)
    return SearchSpec(f"mu{m}", m, sig, idents)


def test_prove_none_malcev_2assoc_on_two_elements():
    spec = _malcev_2assoc_spec(2)
    spec.mode = "prove-none"
    result = search(spec)
    assert result.outcome == "none-exists"
    assert result.nodes < 256  # of the 2^8 tables: pruning does real work


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
    # the work of the e = 0 search
    assert (result.nodes, result.instances_evaluated) == (4, 32)


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
    # the root pass evaluates every ground instance once, so 3^2 + 3^2
    # instances of the Mal'cev laws are over a budget of 10 before the
    # search grounds any
    spec = _malcev_2assoc_spec(3)
    with pytest.raises(BudgetError) as ei:
        search(spec, budget=10)
    assert str(ei.value) == ("search ground instances exceed budget 10 at "
                             "identity 'malcev-left' (3^2)")
    # a free table over the materialize limit is refused before it is
    # built, whatever the budget
    m = 10 ** 60
    spec = SearchSpec("wide", m, standard_signature(1, shared_unit=True), ())
    with pytest.raises(BudgetError) as ei:
        search(spec, budget=10 ** 100)
    assert str(ei.value) == (
        f"search table 'theta' of {m}^2 cells exceeds cap 4194304")


def test_search_budget_bounds_the_work_done():
    # the group spec on three elements with e = 0: its 3 + 3^2 + 3^3 = 39
    # ground instances are within each budget, its whole search is not
    spec = parse_search_spec(
        "algebra G { carrier 3 op theta/2 = free op alpha1/2 = free "
        "const e = 0 require semiabelian:1 2assoc:1 }", mode="count-all")
    done = search(spec)
    work = done.instances_evaluated + done.nodes
    for budget in (60, work // 2, work - done.nodes):
        with pytest.raises(BudgetError) as ei:
            search(spec, budget=budget)
        evaluated, nodes = map(int, re.fullmatch(
            r"search evaluated (\d+) ground instances in (\d+) nodes, "
            rf"over budget {budget}", str(ei.value)).groups())
        # refused at the first node reached over budget, within the search
        assert budget < evaluated + nodes <= work
        assert evaluated <= done.instances_evaluated and nodes <= done.nodes
    assert search(spec, budget=work) == done
    # a cell that no identity reads costs a node and no evaluation: the
    # nodes alone are bounded too (4^64 tables of f, none refuted)
    sig = Signature((("f", 3),))
    spec = SearchSpec("unread", 4, sig, (), mode="count-all")
    with pytest.raises(BudgetError, match="evaluated 0 ground instances in "
                                          "1001 nodes, over budget 1000"):
        search(spec, budget=1000)


def test_search_refuses_too_many_ground_instances_at_once():
    # 4 free cells, but one identity of 24 variables grounds 2^24
    # instances: over the materialize limit at any budget, refused before
    # anything is ground
    names = tuple(f"x{i}" for i in range(1, 25))
    x1, x2 = Variable("x1"), Variable("x2")
    wide = Identity("wide", names, Apply("f", x1, x2), Apply("f", x2, x1))
    spec = SearchSpec("wide", 2, Signature((("f", 2),)), (wide,))
    start = time.perf_counter()
    for budget in (SEARCH_BUDGET, 10 ** 100):
        with pytest.raises(BudgetError) as ei:
            search(spec, budget=budget)
        assert str(ei.value) == ("search ground instances exceed cap "
                                 "4194304 at identity 'wide' (2^24)")
    assert time.perf_counter() - start < 1


def _chain_identity(k):
    """f(x1, f(x2, ..., f(xk-1, xk))) = f(...f(f(x1, x2), x3)..., xk): k
    variables and 2(k - 1) applications per instance."""
    xs = [Variable(f"x{i}") for i in range(1, k + 1)]
    lhs = xs[-1]
    for x in reversed(xs[:-1]):
        lhs = Apply("f", x, lhs)
    rhs = xs[0]
    for x in xs[1:]:
        rhs = Apply("f", rhs, x)
    return Identity(f"chain{k}", tuple(x.name for x in xs), lhs, rhs)


def test_search_refuses_a_ground_size_over_the_cap():
    # 2^18 instances are within the instance cap, but each holds 34
    # applications: 8,912,896 cells over the materialize limit, refused
    # before anything is ground, at any budget
    spec = SearchSpec("chain", 2, Signature((("f", 2),)),
                      (_chain_identity(18),))
    start = time.perf_counter()
    for budget in (SEARCH_BUDGET, 10 ** 100):
        with pytest.raises(BudgetError) as ei:
            search(spec, budget=budget)
        assert str(ei.value) == (
            "search ground size 8912896 exceeds cap 4194304 at identity "
            "'chain18' (2^18 instances of 34 applications and constants)")
    assert time.perf_counter() - start < 1
    # the size is summed over the identities, and 2^16 instances of 30
    # (1,966,080) are admitted
    assert _ground_size((_chain_identity(16),), 2) == 1_966_080
    spec.identities = (_chain_identity(16),) * 3
    start = time.perf_counter()
    for budget in (SEARCH_BUDGET, 10 ** 100):
        with pytest.raises(BudgetError, match="ground size 5898240 exceeds "
                                              "cap 4194304 at identity "
                                              "'chain16'"):
            search(spec, budget=budget)
    assert time.perf_counter() - start < 1


def test_search_refuses_a_ground_size_before_a_later_instance_count():
    # chain18's 2^18 instances fit the budget but its ground size is over
    # the cap; chain2's 4 instances take the total over the budget.  The
    # refusals come in identity order, whichever check makes each
    spec = SearchSpec("chain", 2, Signature((("f", 2),)),
                      (_chain_identity(18), _chain_identity(2)))
    with pytest.raises(BudgetError, match="ground size 8912896 exceeds cap"):
        search(spec, budget=2 ** 18)
    spec.identities = spec.identities[::-1]
    with pytest.raises(BudgetError, match="ground size 8912904 exceeds cap"):
        search(spec, budget=2 ** 18 + 4)
    with pytest.raises(BudgetError, match="ground instances exceed budget "
                                          "262147 at identity 'chain18'"):
        search(spec, budget=2 ** 18 + 3)


@pytest.mark.parametrize("mode", ["count", "first", ""])
def test_search_rejects_an_unknown_mode(mode):
    spec = _malcev_2assoc_spec(2)
    spec.mode = mode
    with pytest.raises(InputError, match=f"unknown search mode {mode!r}"):
        search(spec)


def test_search_rejects_a_pinned_constant_outside_the_signature():
    spec = _malcev_2assoc_spec(2)  # mu alone, no constant
    spec.pinned_constants = {"e": 0}
    with pytest.raises(InputError, match="pinned constant 'e' not in "
                                         "signature"):
        search(spec)


def test_search_rejects_a_pinned_table_outside_the_signature():
    spec = _malcev_2assoc_spec(2)  # mu alone
    spec.pinned_tables = {"theta": DenseTable(2, (0, 1, 1, 0))}
    with pytest.raises(InputError, match="pinned table 'theta' not in "
                                         "signature"):
        search(spec)


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


@pytest.mark.parametrize("tail", [" @", " identity i(a): f(a"])
def test_a_spec_block_is_checked_before_the_token_after_it(tail):
    # a spec reports an out-of-range entry where parse_file does, before a
    # bad character or a truncated identity after the block's '}'
    from finalg.dsl import DslError, parse_file

    text = "algebra X { carrier 2 op f/1 = [0, 7] }" + tail
    for parse in (parse_file, parse_search_spec):
        with pytest.raises(DslError, match=r"^algebra 'X': symbol 'f': "
                                           r"entry 7 out of range"):
            parse(text)


def test_no_strict_2assoc_beyond_singletons(monkeypatch):
    # the walk visits m * sum(m!/(m-d)!, d = 0..m) nodes
    for m, nodes in ((2, 10), (3, 48), (8, 876808)):
        result = prove_no_strict_2assoc(m, 2)
        assert result.outcome == "none-exists"
        assert result.nodes == nodes
    # at m = 1 it searches the strict 2-associative theory, whose
    # one-element model is the witness, for every n
    searched = []
    monkeypatch.setattr(engine, "search", lambda spec: searched.append(
        spec) or search(spec))
    for n in (1, 2, 3):
        result = prove_no_strict_2assoc(1, n)
        assert result.outcome == "witness"
        assert [i.name for i in searched[-1].identities] == [
            *(f"strict:{n}:alpha{i}" for i in range(1, n + 1)), f"2assoc:{n}"]
        for spec in (f"strict:{n}", f"2assoc:{n}"):
            assert check_laws(
                result.witness, resolve_suite(spec).identities) is None
    with pytest.raises(InputError, match="requires n >= 2 and m >= 2"):
        prove_no_strict_2assoc(2, 1)
    # a theta table of 3^41 entries is refused before m^(m^(n+1)) is built
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="3\\^41 entries"):
        prove_no_strict_2assoc(3, 40)
    with pytest.raises(BudgetError, match="arguments exceeds cap"):
        prove_no_strict_2assoc(1, 10 ** 30)  # one element, 10^30 alphas
    # a walk of 15,624,736,140 nodes is refused before it starts
    with pytest.raises(BudgetError, match="15624736140 nodes exceeds"):
        prove_no_strict_2assoc(12, 2)
    assert time.perf_counter() - start < 1


def test_witnesses_are_independently_verified():
    sig = standard_signature(2, shared_unit=True)
    idents = tuple(suite_semiabelian(2, ("e", "e")).identities) + (
        identity_2assoc(2),
    )
    spec = SearchSpec("v2n2", 2, sig, idents)
    result = search(spec)
    assert result.outcome == "witness"
    w = result.witness
    assert check_laws(w, suite_semiabelian(2, ("e", "e")).identities) is None
    assert check_identity(w, identity_2assoc(2)).ok


def test_a_witness_that_fails_its_identities_is_refused(monkeypatch):
    # find-first checks its witness again with check_identity: one
    # corrupted cell of the algebra it emits is refused, not returned
    sig = standard_signature(1, shared_unit=True)
    idents = tuple(suite_semiabelian(1, ("e",)).identities) + (
        identity_2assoc(1),
    )
    spec = SearchSpec("grp2", 2, sig, idents)
    assert search(spec).outcome == "witness"
    real = _Cells.algebra

    def corrupted(self, spec):
        alg = real(self, spec)
        theta = alg.tables["theta"]
        entries = list(theta.entries)
        entries[0] = 1 - entries[0]  # theta(0, 0)
        alg.tables["theta"] = DenseTable(theta.arity, entries)
        return alg

    monkeypatch.setattr(_Cells, "algebra", corrupted)
    # theta(-, b) of a witness is a bijection (the retraction), so the
    # corrupted theta(-, 0) is not, and alpha1-unit reads no theta
    with pytest.raises(AlgebraError) as err:
        search(spec)
    assert str(err.value) == (
        "internal error: emitted witness fails 'retraction'")


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
        self.evaluated = 0  # ground instances evaluated

    def get(self, cell):
        sym, idx = cell
        return self.constants[sym] if idx is None else self.tables[sym][idx]

    def set(self, cell, v):
        sym, idx = cell
        if idx is None:
            self.constants[sym] = v
        else:
            self.tables[sym][idx] = v

    def cell(self, t, env):
        """The outermost cell of the application or constant t, or None
        while an argument of t is not yet known."""
        if isinstance(t, Constant):
            return t.name, None
        idx = 0
        for a in t.args:
            v = self.eval(a, env)
            if v is None:
                return None
            idx = idx * self.m + v
        return t.op, idx

    def eval(self, t, env):
        """Evaluate a term over the partial tables; None = not yet known."""
        if isinstance(t, Variable):
            return env[t.name]
        cell = self.cell(t, env)
        return None if cell is None else self.get(cell)


def _rescan_instances(state, identities):
    for ident in identities:
        for tup in itertools.product(range(state.m),
                                     repeat=len(ident.variables)):
            state.evaluated += 1
            yield ident, dict(zip(ident.variables, tup))


def _rescan_violated(state, identities):
    for ident, env in _rescan_instances(state, identities):
        lhs = state.eval(ident.lhs, env)
        if lhs is None:
            continue
        rhs = state.eval(ident.rhs, env)
        if rhs is None:
            continue
        if lhs != rhs:
            return True
    return False


def _rescan_settle(state, identities, trail):
    """Force cells until no instance forces one: an instance with one side
    decided as v and the other undecided only at its outermost cell sets
    that cell to v (appended to trail).  False on a decided violation."""
    changed = True
    while changed:
        changed = False
        for ident, env in _rescan_instances(state, identities):
            lhs = state.eval(ident.lhs, env)
            rhs = state.eval(ident.rhs, env)
            if lhs is not None and rhs is not None:
                if lhs != rhs:
                    return False
                continue
            # the other side is undecided, so it is no variable
            for v, side in ((lhs, ident.rhs), (rhs, ident.lhs)):
                cell = None if v is None else state.cell(side, env)
                if cell is not None:
                    state.set(cell, v)
                    trail.append(cell)
                    changed = True
    return True


def rescan_search(spec, cells, forcing=True):
    """Reference searcher: after every assignment it re-evaluates every
    ground instance of every identity, with forcing rescanned to its
    fixpoint, and branches on the first of cells left undecided.  Returns
    (outcome, count, nodes, witness, instances evaluated) with the witness
    as (op tables, constants) or None."""
    state = _RescanState(spec)
    if _rescan_violated(state, spec.identities):
        return "none-exists", 0, 1, None, state.evaluated
    counting = spec.mode == "count-all"
    if forcing and not _rescan_settle(state, spec.identities, []):
        return (("count" if counting else "none-exists"), 0, 1, None,
                state.evaluated)
    nodes = count = 0
    witness = None

    def assign(pos):
        nonlocal nodes, count, witness
        while pos < len(cells) and state.get(cells[pos]) is not None:
            pos += 1
        if pos == len(cells):
            if counting:
                count += 1
                return False
            witness = (
                {k: tuple(v) for k, v in state.tables.items()},
                dict(state.constants),
            )
            return True
        for v in range(state.m):
            nodes += 1
            state.set(cells[pos], v)
            trail = []
            if forcing:
                ok = _rescan_settle(state, spec.identities, trail)
            else:
                ok = not _rescan_violated(state, spec.identities)
            if ok and assign(pos + 1):
                return True
            for cell in trail:
                state.set(cell, None)
        state.set(cells[pos], None)
        return False

    assign(0)
    if counting:
        return "count", count, nodes, None, state.evaluated
    if witness is None:
        return "none-exists", 0, nodes, None, state.evaluated
    return "witness", 0, nodes, witness, state.evaluated


def _assert_matches_rescan(spec):
    """The search's result and the instances the reference evaluated."""
    result = search(spec)
    outcome, count, nodes, witness, evaluated = rescan_search(
        spec, spec.branch_cells())
    assert (result.outcome, result.count, result.nodes) == (
        outcome, count, nodes
    )
    # forcing prunes no model and the order changes no count: the
    # reference without forcing, in find-first's order, agrees on outcome
    # and count, and on the witness where the search uses that order too
    unforced = rescan_search(spec, spec.free_cells(), forcing=False)
    assert unforced[:2] == (outcome, count)
    if spec.mode == "find-first":
        assert unforced[3] == witness
    if witness is None:
        assert result.witness is None
    else:
        w = result.witness
        assert {k: t.entries for k, t in w.tables.items()} == witness[0]
        assert w.constants == witness[1]
    return result, evaluated


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
    result, reference_evaluated = _assert_matches_rescan(spec)
    assert result.count == count_2assoc_semiabelian(m, n).count
    # watching never evaluates more instances than a full rescan of the
    # same tree
    assert 0 < result.instances_evaluated <= reference_evaluated


def test_malcev_prove_none_matches_full_rescan():
    spec = _malcev_2assoc_spec(2)
    spec.mode = "prove-none"
    assert _assert_matches_rescan(spec)[0].outcome == "none-exists"


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
    result, _ = _assert_matches_rescan(spec)
    if mode == "count-all":
        assert result.count == 1  # A034383(3) = 3 labeled groups, one per unit


def _work(result):
    return result.nodes, result.instances_evaluated, result.forced


# (nodes, instances_evaluated, forced) of the e = 0 tree the census
# searches: the rescan oracle pins nodes but neither instances_evaluated
# nor how many cells were forced before a conflict, so a change to how
# instances are watched, evaluated or forced must leave all three as they are
@pytest.mark.parametrize("m, n, work", [
    (1, 1, (0, 6, 2)),
    (2, 1, (4, 32, 6)),
    (3, 1, (27, 140, 20)),
    (2, 2, (38, 420, 47)),
])
def test_census_work_counts_are_pinned(m, n, work):
    result = count_2assoc_semiabelian(m, n)
    assert _work(result) == work
    if (m, n) == (3, 1):
        # the census at e = 0 is the group3 e = 0 count-all spec
        group3 = search(parse_search_spec(GROUP3_SPEC.format(e=0),
                                          mode="count-all"))
        assert _work(group3) == work


@pytest.mark.parametrize("e, mode, work", [
    (0, "find-first", (105, 450, 21)),
    (1, "find-first", (183, 533, 26)),
    (2, "find-first", (194, 556, 32)),
    (0, "count-all", (27, 140, 20)),
    (1, "count-all", (33, 216, 28)),
    (2, "count-all", (48, 278, 36)),
    (0, "prove-none", (24, 133, 18)),
    (1, "prove-none", (18, 133, 18)),
    (2, "prove-none", (30, 204, 27)),
])
def test_group3_work_counts_are_pinned(e, mode, work):
    result = search(parse_search_spec(GROUP3_SPEC.format(e=e), mode=mode))
    assert _work(result) == work


# malcev-assoc-expanded:n grounds to theta applied to alpha applications
# that themselves take a theta application, so these pin the evaluation of
# a compound argument of a compound side, which the census never reaches
@pytest.mark.parametrize("m, n, mode, work, count", [
    (2, 1, "count-all", (24, 170, 9), 2),
    (2, 2, "find-first", (88, 765, 80), 0),
    (2, 2, "count-all", (410, 2185, 72), 144),
])
def test_nested_instance_work_counts_are_pinned(m, n, mode, work, count):
    idents = tuple(
        resolve_suite(f"semiabelian:{n}", ("e",) * n).identities
    ) + (identity_malcev_assoc_expanded(n),)
    spec = SearchSpec(f"nested-{m}-{n}", m,
                      standard_signature(n, shared_unit=True), idents,
                      mode=mode)
    result = search(spec)
    assert _work(result) == work
    assert result.count == count
    assert (result.witness is not None) == (mode == "find-first")


def test_prove_none_stops_at_the_first_model():
    spec = parse_search_spec(GROUP3_SPEC.format(e=0), mode="prove-none")
    result = search(spec)
    assert (result.outcome, result.nodes) == ("witness", 24)
    w = result.witness
    assert check_laws(w, suite_semiabelian(1, ("e",)).identities) is None
    assert check_identity(w, identity_2assoc(1)).ok
    # it walks count-all's order, stopping at its first model: find-first's
    # order takes 105 nodes to its lex-first witness
    spec.mode = "count-all"
    assert search(spec).nodes > result.nodes
    spec.mode = "find-first"
    assert search(spec).nodes == 105


def test_branch_order_depends_on_the_mode_only():
    # theta's arguments hold alpha1 and alpha2 applications, whose
    # arguments are variables: theta has rank 2, the alphas and e rank 0
    spec = _census_spec(2, 2)
    assert symbol_ranks(spec.identities) == {
        "alpha1": 0, "alpha2": 0, "theta": 2}
    cells = spec.free_cells()
    assert cells[0] == ("theta", 0)
    spec.mode = "find-first"
    assert spec.branch_cells() == cells
    for mode in ("count-all", "prove-none"):
        spec.mode = mode
        inner = spec.branch_cells()
        assert sorted(inner, key=cells.index) == cells
        # the alpha cells of one index are decided together, then theta
        assert inner[:5] == [("alpha1", 0), ("alpha2", 0), ("e", None),
                             ("alpha1", 1), ("alpha2", 1)]
        assert inner[-8:] == [("theta", i) for i in range(8)]
    # theta and alpha1 occur inside each other, a cycle: one rank
    idents = (identity_malcev_assoc_expanded(1),)
    assert symbol_ranks(idents) == {"alpha1": 1, "theta": 1}
    # a rank counts the symbols inside f's own arguments only: h inside g
    # and g inside f give f rank 1, not 2
    x = Variable("x")
    chain = (Identity("fg", ("x",), Apply("f", Apply("g", x)), x),
             Identity("gh", ("x",), Apply("g", Apply("h", x)), x))
    assert symbol_ranks(chain) == {"f": 1, "g": 1, "h": 0}


# labeled groups on m elements (OEIS A034383)
A034383 = {1: 1, 2: 2, 3: 3, 4: 16, 5: 30, 6: 480}


@pytest.mark.parametrize("m, n", [
    (1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (2, 3), (5, 1), (6, 1),
])
def test_census_matches_closed_form(m, n):
    # one labeled group, then gamma on one point of each of the other
    # m^(n-1) - 1 orbits and alpha*(a, b), a != b, in a fibre of m^(n-1)
    # points: the enriched count, equal to the census by the theorem
    expected = A034383[m] * m ** (m ** (n - 1) - 1 + (n - 1) * m * (m - 1))
    result = count_2assoc_semiabelian(m, n)  # at the default budget
    assert (result.outcome, result.count) == ("count", expected)


def test_census_budget_bounds_the_work_done():
    # (4,1) has 4^32 assignments with e = 0 but takes 810 evaluations in
    # 192 nodes, and (5,1) 4,602 in 845: both run at the default budget
    for m, count, work in ((4, 16, (192, 810)), (5, 30, (845, 4602))):
        result = count_2assoc_semiabelian(m, 1)
        assert result.count == count
        assert (result.nodes, result.instances_evaluated) == work
    # the budget bounds the e = 0 search's work, not m times it
    with pytest.raises(BudgetError, match="over budget 1000$"):
        count_2assoc_semiabelian(5, 1, budget=1000)
    assert count_2assoc_semiabelian(4, 1, budget=810 + 192).count == 16


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
    # malcev-assoc-expanded:n nests applications in arguments; its m^5
    # instances per rescan are drawn only for m <= 2
    pool = ["semiabelian", "2assoc", "1assoc", "malcev"]
    if m <= 2:
        pool.append("malcev-assoc-expanded")
    suites = rng.sample(pool, rng.randint(1, 3))
    ops = list(standard_signature(n, shared_unit=True).ops)
    if "malcev" in suites:
        ops.append(("mu", 3))
    idents = []
    for s in suites:
        if s == "malcev-assoc-expanded":
            idents.append(identity_malcev_assoc_expanded(n))
        else:
            idents.extend(resolve_suite(
                s if s == "malcev" else f"{s}:{n}", ("e",) * n).identities)
    # pin a random subset of ops, then the largest free ones until the
    # naive space is small enough for the reference searcher, whose
    # rescans of nested instances cost more
    cap = 4096 if "malcev-assoc-expanded" in suites else 20000
    pinned = {name for name, _ in ops if rng.random() < 0.3}
    for name, arity in sorted(ops, key=lambda na: -na[1]):
        free = 1 + sum(m ** a for nm, a in ops if nm not in pinned)
        if m ** free <= cap:
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


@pytest.mark.parametrize("mode, outcome", [
    ("count-all", "count"),
    ("find-first", "none-exists"),
    ("prove-none", "none-exists"),
])
def test_root_refuted_by_forcing_reports_one_node(mode, outcome):
    # no pinned instance is decided, so the root pass refutes nothing; then
    # alpha1(0, 0) = e forces e = 0 and alpha1(1, 1) = e contradicts it
    sig = standard_signature(1, shared_unit=True)
    idents = tuple(suite_semiabelian(1, ("e",)).identities)
    spec = SearchSpec("forced-out", 2, sig, idents,
                      pinned_tables={"alpha1": DenseTable(2, (0, 1, 1, 1))},
                      mode=mode)
    result, _ = _assert_matches_rescan(spec)
    assert (result.outcome, result.count, result.nodes) == (outcome, 0, 1)
    assert result.forced == 1


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


def test_search_rejects_a_product_pin():
    # a lookup-only product table has no entries to pin
    theta = catalog.build_matrix_row_algebra(2, 2).op("theta")
    sig = Signature((("theta", 3),))
    spec = SearchSpec("product", 2, sig, (identity_2assoc(2),),
                      pinned_tables={"theta": theta})
    with pytest.raises(InputError, match="pinned table 'theta' is a "
                                         "ProductTable"):
        search(spec)


# -- grounding ------------------------------------------------------------------

def _reference_ground(cells, t, env):
    """t with its variables bound by env, one instance at a time: a slot
    (int), or (base, ((weight, subterm), ...)) reading slot base + sum
    weight * value.  Variable arguments are folded into base."""
    if isinstance(t, Variable):
        return cells.lit + env[t.name]
    if isinstance(t, Constant):
        return cells.slot[t.name]
    base = cells.offset[t.op]
    kids = []
    w = cells.m ** len(t.args)
    for a in t.args:
        w //= cells.m
        if isinstance(a, Variable):
            base += w * env[a.name]
        else:
            kids.append((w, _reference_ground(cells, a, env)))
    return (base, tuple(kids)) if kids else base


def _reference_instances(cells, identities):
    """Every ground instance (lhs, rhs), identity by identity and
    variable tuples in lexicographic order."""
    out = []
    for ident in identities:
        for tup in itertools.product(range(cells.m),
                                     repeat=len(ident.variables)):
            env = dict(zip(ident.variables, tup))
            out.append((_reference_ground(cells, ident.lhs, env),
                        _reference_ground(cells, ident.rhs, env)))
    return out


def _assert_grounds_as_the_reference(spec):
    """The search's instances of spec, of the whole theory and ground one
    identity at a time, are the reference's: the same nested tuples in
    the same order."""
    cells = _Cells(spec)
    expected = _reference_instances(cells, spec.identities)
    assert cells.instances(spec.identities) == expected
    fresh = []
    for ident in spec.identities:
        fresh.extend(cells.ground(ident))
    assert fresh == expected


@pytest.mark.parametrize("m, n", [
    (1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (2, 3), (5, 1), (6, 1), (3, 2),
])
def test_census_grounds_as_the_reference(m, n):
    _assert_grounds_as_the_reference(_census_spec(m, n))


@pytest.mark.parametrize("e", [0, 1, 2])
def test_group3_and_nested_specs_ground_as_the_reference(e):
    _assert_grounds_as_the_reference(
        parse_search_spec(GROUP3_SPEC.format(e=e)))
    # malcev-assoc-expanded:n nests theta applications in alpha ones
    for m, n in ((2, 1), (2, 2), (3, 1)):
        idents = tuple(
            resolve_suite(f"semiabelian:{n}", ("e",) * n).identities
        ) + (identity_malcev_assoc_expanded(n),)
        _assert_grounds_as_the_reference(SearchSpec(
            "nested", m, standard_signature(n, shared_unit=True), idents))
    _assert_grounds_as_the_reference(_malcev_2assoc_spec(e + 1))


@settings(max_examples=200, deadline=None)
@given(random_identities(), st.integers(1, 4))
def test_random_identities_ground_as_the_reference(ident, m):
    spec = SearchSpec("random", m, Signature(RANDOM_OPS, ("e", "z")),
                      (ident,))
    _assert_grounds_as_the_reference(spec)


@pytest.fixture
def grounder_calls(monkeypatch, cold_caches):
    """The identities _Cells.ground is called on, with an empty plan
    cache."""
    calls = []
    real = _Cells.ground

    def counted(self, ident):
        calls.append((ident.name, self.m))
        return real(self, ident)

    monkeypatch.setattr(_Cells, "ground", counted)
    return calls


def test_a_plan_miss_grounds_each_identity_once(grounder_calls):
    names = [("alpha1-unit", 3), ("retraction", 3), ("2assoc:1", 3)]
    search(parse_search_spec(GROUP3_SPEC.format(e=0), mode="count-all"))
    assert grounder_calls == names
    # a plan hit grounds nothing, whatever the unit's value
    for e in range(3):
        search(parse_search_spec(GROUP3_SPEC.format(e=e), mode="count-all"))
    assert grounder_calls == names
    # another mode is another plan, which grounds the theory again
    for mode in ("find-first", "prove-none"):
        search(parse_search_spec(GROUP3_SPEC.format(e=1), mode=mode))
    assert grounder_calls == names * 3


def test_an_equal_identity_parsed_again_hits_its_entry(grounder_calls):
    text = ("algebra M { carrier 2 op mu/3 = free }\n"
            "identity malcev-right(a, b): mu(a, b, b) = a\n")
    first, again = (parse_search_spec(text, mode="count-all")
                    for _ in range(2))
    assert first.identities == again.identities
    assert first.identities[0] is not again.identities[0]
    assert search(first) == search(again)
    assert grounder_calls == [("malcev-right", 2)]
    assert len(engine._plans.entries) == 1


def test_pinned_tables_do_not_enter_the_key(grounder_calls):
    # pin values only fill the cell array: every value of the same pinned
    # names reads one plan, ground once
    sig = standard_signature(1, shared_unit=True)
    idents = _semiabelian_2assoc("pins", 3, 1).identities
    z3 = _model_tables(3, 1)
    for theta in (z3["theta"], z3["alpha1"], DenseTable(2, (0,) * 9)):
        for e in range(3):
            search(SearchSpec("pins", 3, sig, idents,
                              pinned_tables={"theta": theta},
                              pinned_constants={"e": e}, mode="count-all"))
    assert len(grounder_calls) == len(idents)
    assert len(engine._plans.entries) == 1


# -- search plans ---------------------------------------------------------------

@pytest.fixture
def planner_calls(monkeypatch, cold_caches):
    """The mode of each spec SearchSpec.branch_cells is called on, with an
    empty plan cache: one call per plan built."""
    calls = []
    real = SearchSpec.branch_cells

    def counted(self):
        calls.append(self.mode)
        return real(self)

    monkeypatch.setattr(SearchSpec, "branch_cells", counted)
    return calls


def test_a_search_is_planned_once_per_pin_layout_and_mode(planner_calls):
    # the unit's value differs, its name does not: one plan per mode
    for e in range(3):
        for mode in MODES:
            search(parse_search_spec(GROUP3_SPEC.format(e=e), mode=mode))
    assert planner_calls == list(MODES)
    assert len(engine._plans.entries) == 3


def test_pinned_names_enter_the_plan_key(planner_calls, cold_caches):
    # each pinned table leaves its cells out of the branch order, so each
    # set of pinned names plans its own search, whatever was planned first
    z3 = _model_tables(3, 1)
    idents = _semiabelian_2assoc("pins", 3, 1).identities
    specs = [SearchSpec("pins", 3, standard_signature(1, shared_unit=True),
                        idents, pinned_tables={n: z3[n] for n in names},
                        pinned_constants={"e": 0}, mode="count-all")
             for names in (("theta", "alpha1"), ("theta",), ("alpha1",), ())]
    warm = [search(spec) for spec in specs]
    assert len(planner_calls) == len(specs)
    for spec, result in zip(specs, warm):
        cold_caches()
        assert search(spec) == result


def _assert_cold_equals_warm(run, cold_caches):
    """run() after emptying the plan cache equals run() on its plan."""
    cold_caches()
    cold = run()
    assert len(engine._plans.entries) == 1
    assert run() == cold
    assert len(engine._plans.entries) == 1


@pytest.mark.parametrize("m, n", [
    (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2), (2, 3),
])
def test_census_cold_equals_warm(m, n, cold_caches):
    _assert_cold_equals_warm(lambda: count_2assoc_semiabelian(m, n),
                             cold_caches)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("e", [0, 1, 2])
def test_group3_and_malcev_cold_equal_warm(e, mode, cold_caches):
    group3 = parse_search_spec(GROUP3_SPEC.format(e=e), mode=mode)
    _assert_cold_equals_warm(lambda: search(group3), cold_caches)
    malcev = _malcev_2assoc_spec(e + 1)
    malcev.mode = mode
    _assert_cold_equals_warm(lambda: search(malcev), cold_caches)


def test_a_list_of_identities_hits_the_tuples_plan(planner_calls):
    spec = _malcev_2assoc_spec(2)
    listed = SearchSpec(spec.name, spec.size, spec.signature,
                        list(spec.identities))
    assert search(spec) == search(listed)
    assert planner_calls == ["find-first"]


def test_a_plan_over_the_weight_bound_is_not_kept(planner_calls):
    # chain12 weighs 94,208 on 2 elements, over the bound: the plan is
    # built on every search and never kept
    spec = SearchSpec("chain", 2, Signature((("f", 2),)),
                      (_chain_identity(12),))
    first = search(spec)
    assert search(spec) == first
    assert planner_calls == ["find-first"] * 2
    assert not engine._plans.entries
    # the plan of the largest census tier-1 and CI run, (3,2), fits
    census = _census_spec(3, 2)
    assert engine._plan(census, _Cells(census))[0] < _GROUND_WEIGHT
