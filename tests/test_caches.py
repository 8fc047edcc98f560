"""The cache registry: every module-level cache is declared through core,
finalg.clear_caches empties them all, and a cold call of each public
entry point returns what a warm call returns."""
import importlib
import pkgutil

import pytest

import finalg
from finalg import catalog, cli, clear_caches, core, groups, verify
from finalg.identities import (
    GROUP_LAWS,
    check_identity,
    check_laws,
    identities_1assoc,
    identity_2assoc,
    suite_identities,
    term_product,
    term_table,
)
from finalg.search import (
    MODES,
    count_2assoc_semiabelian,
    parse_search_spec,
    search,
)

GROUP3_SPEC = """algebra G {
  carrier 3
  op theta/2 = free
  op alpha1/2 = free
  const e = 0
  require semiabelian:1 2assoc:1
}
"""


def _modules():
    return [importlib.import_module(f"finalg.{info.name}")
            for info in pkgutil.iter_modules(finalg.__path__)
            if info.name != "__main__"]


def _size(cache):
    """The entries a registered cache holds."""
    if isinstance(cache, core._Kept):
        return len(cache.entries)
    return cache.cache_info().currsize


def _filled():
    return [_size(cache) for cache in core._caches]


def test_every_cache_is_declared_through_core():
    # a module-level object that can be cleared is in core's list, and
    # the list holds nothing else: a later cache cannot skip the registry
    found = {id(obj): f"{module.__name__}.{name}"
             for module in _modules() for name, obj in vars(module).items()
             if hasattr(obj, "cache_clear") and not isinstance(obj, type)}
    registered = [id(cache) for cache in core._caches]
    assert [where for key, where in found.items()
            if key not in registered] == []
    assert sorted(registered) == sorted(found)
    # the two plan caches and the 14 memos
    assert sum(isinstance(c, core._Kept) for c in core._caches) == 2
    assert len(registered) == 16


def test_clear_caches_empties_every_cache(capsys):
    assert cli.main(["verify-paper"]) == 0
    search(parse_search_spec(GROUP3_SPEC))
    capsys.readouterr()
    assert all(_filled())
    clear_caches()
    assert not any(_filled())


def _checks():
    # one block and a failure; a prefix loop with the section memo; a
    # product through its factors; sampled
    chain = catalog.build_lattice_theta(catalog.chain_lattice(2),
                                        "meet-middle")
    z8 = catalog.build_semigroup_algebra(catalog.cyclic_group(8), 2, 1)
    rows = catalog.build_matrix_row_algebra(2, 2)
    return lambda: [
        *(check_identity(chain, i) for i in identities_1assoc(2)),
        check_identity(z8, identity_2assoc(2)),
        check_identity(rows, identity_2assoc(2)),
        check_identity(z8, identity_2assoc(2), mode="sampled", samples=500,
                       seed=7),
    ]


def _law_lists():
    # lists that pass and fail over one block, a list with a law over
    # several blocks, and a product's list, checked through its factors
    z3, z8 = (catalog.build_semigroup_algebra(catalog.cyclic_group(m), 2, 1)
              for m in (3, 8))
    rows = catalog.build_matrix_row_algebra(2, 2)
    lists = [(z3, suite_identities(z3, spec))
             for spec in ("semiabelian:2", "2assoc:2", "strict:2")]
    lists += [(z8, suite_identities(z8, "2assoc:2")),
              (rows, suite_identities(rows, "2assoc:2")),
              (catalog.cyclic_group(4), GROUP_LAWS)]
    return lambda: [check_laws(alg, laws) for alg, laws in lists]


def _z3():
    return catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 1)


def _from_enriched():
    enriched = groups.to_enriched(_z3())
    return lambda: groups.from_enriched(enriched)


def _on_z3(fn):
    def make():
        alg = _z3()
        return lambda: fn(alg)
    return make


def _search(mode):
    def make():
        spec = parse_search_spec(GROUP3_SPEC, mode=mode)
        return lambda: search(spec)
    return make


def _criterion(fn):
    return lambda: fn


ENTRY_POINTS = {
    "check_identity": _checks,
    "check_laws": _law_lists,
    **{f"search-{mode}": _search(mode) for mode in MODES},
    "count_2assoc_semiabelian": lambda: lambda: [
        count_2assoc_semiabelian(m, n) for m, n in ((3, 1), (2, 2))],
    "term_table": _on_z3(lambda alg: term_table(alg, term_product(2),
                                                ("a", "b"))),
    "derive_group": _on_z3(groups.derive_group),
    "to_enriched": _on_z3(groups.to_enriched),
    "from_enriched": _from_enriched,
    "malcev_term": _on_z3(groups.malcev_term),
    "check_diagonal_cancellation": _on_z3(groups.check_diagonal_cancellation),
    **{f"criterion-{key}": _criterion(fn) for key, _, fn in verify.CRITERIA},
}
# the strict walk at m >= 2 reads no cache
CACHE_FREE = {"criterion-7"}


def _outcome(value):
    """value with what == leaves out of a report or algebra: the engine
    and the name."""
    if isinstance(value, (list, tuple)):
        return [_outcome(v) for v in value]
    if isinstance(value, finalg.CheckReport):
        return value, value.engine
    if isinstance(value, finalg.FiniteAlgebra):
        return value, value.name
    return value


@pytest.mark.parametrize("make", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_a_cold_call_returns_what_a_warm_call_does(request, make):
    # inputs are built first; the call then runs on empty caches, and the
    # warm call finds every plan, suite and identity the cold one built
    call = make()
    clear_caches()
    cold = _outcome(call())
    filled = _filled()
    assert any(filled) != (request.node.callspec.id in CACHE_FREE)
    assert _outcome(call()) == cold
    assert _filled() == filled
