"""Spans around finalg's public layer functions, recorded from outside.

`Tracer.install` replaces public functions of the finalg modules with
wrappers that record one span per call: name, start, end, parent span and
the id of the benchmark operation that caused it, plus the work counts the
call's inputs and result reveal (tuples checked, search nodes, parsed
bytes, table entries).  Every module attribute bound to the original
function is replaced, so aliases such as `verify.run_search` and
`search.search_models` are traced too.  `uninstall` restores the originals.

A layer's self time is its spans' duration minus the time covered by their
direct child spans.
"""
from __future__ import annotations

import sys
from time import perf_counter

from finalg import catalog, cli, core, dsl, groups, identities, search, verify
from finalg.core import Apply, DenseTable


# -- how each traced call is named and counted ------------------------------

def _bind(fn, args, kwargs, name, default):
    """Positional-or-keyword argument `name` of a call to `fn`."""
    if name in kwargs:
        return kwargs[name]
    params = list(fn.__code__.co_varnames[: fn.__code__.co_argcount])
    i = params.index(name)
    return args[i] if i < len(args) else default


def _op_symbols(term, out):
    if isinstance(term, Apply):
        out.add(term.op)
        for a in term.args:
            _op_symbols(a, out)
    return out


def classify_engine(check_fn, args, kwargs, report):
    """The engine path a check_identity call took.

    Reads the report's `engine` field when the program provides one;
    otherwise applies the rule documented in finalg.identities: sampled
    mode is 'sampled'; an exhaustive check whose tables are all dense and
    whose m^k tuples exceed the numpy threshold (k > 0) is 'np'; anything
    else is 'scalar'.
    """
    engine = getattr(report, "engine", None)
    if engine:
        return engine
    alg, ident = args[0], args[1]
    if _bind(check_fn, args, kwargs, "mode", "exhaustive") == "sampled":
        return "sampled"
    k = len(ident.variables)
    threshold = getattr(identities, "_NUMPY_THRESHOLD", 1 << 14)
    symbols = _op_symbols(ident.rhs, _op_symbols(ident.lhs, set()))
    dense = all(isinstance(alg.tables.get(s), DenseTable) for s in symbols)
    if dense and k > 0 and alg.size ** k > threshold:
        return "np"
    return "scalar"


def _targets():
    """(module, attribute, span name or namer, counter) for each traced
    public function.  A namer maps (args, kwargs, result) to a span name; a
    counter maps the same to a dict of work counts."""
    check = identities.check_identity

    def check_name(args, kwargs, result):
        return "identities." + classify_engine(check, args, kwargs, result)

    def check_count(args, kwargs, result):
        return {"tuples": result.tuples_checked}

    def search_count(args, kwargs, result):
        return {"nodes": result.nodes}

    def parse_count(args, kwargs, result):
        return {"bytes": len(args[0].encode())}

    def table_count(args, kwargs, result):
        return {"entries": args[1] ** args[0]}

    out = [
        (identities, "check_identity", check_name, check_count),
        (identities, "check_2assoc_functional", "identities.functional", None),
        (identities, "check_strict_equivalence", "identities.strict", None),
        (search, "search", "search", search_count),
        (search, "prove_no_strict_2assoc", "search.prove_strict",
         search_count),
        (core, "validate_algebra", "core.validate", None),
        (core, "table_from_fn", "core.table_from_fn", table_count),
        (dsl, "serialize", "dsl.serialize", None),
        (groups, "derive_group", "groups.derive", None),
        (groups, "to_enriched", "groups.enriched", None),
        (groups, "from_enriched", "groups.enriched", None),
        (groups, "algebra_to_enriched", "groups.enriched", None),
        (groups, "malcev_term", "groups.malcev", None),
        (groups, "check_malcev_assoc_expanded", "groups.malcev", None),
        (groups, "check_diagonal_cancellation", "groups.diagonal", None),
        (groups, "count_enriched_groups", "groups.count_enriched", None),
        (cli, "main", "cli", None),
    ]
    for name in ("parse_file", "parse_algebra", "parse_identity",
                 "parse_raw_blocks"):
        out.append((dsl, name, "dsl.parse", parse_count))
    builders = [n for n in vars(catalog) if n.startswith("build_")]
    builders += ["cyclic_group", "cyclic_monoid", "product_group",
                 "chain_lattice", "product_lattice"]
    for name in builders:
        out.append((catalog, name, "catalog.build", None))
    return out


# -- recording --------------------------------------------------------------

class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, counts]
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, fn, namer, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [namer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if callable(namer):
                    rec[0] = namer(args, kwargs, result)
                if counter is not None and result is not None:
                    rec[5] = counter(args, kwargs, result)

        return traced

    def _replace(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if modname != "finalg" and not modname.startswith("finalg."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, new)

    def install(self):
        for module, attr, namer, counter in _targets():
            orig = getattr(module, attr, None)
            if callable(orig):
                self._replace(orig, self._wrap(orig, namer, counter))
        # verify-paper iterates this list, so its entries are wrapped in place
        criteria = [
            (key, label, self._wrap(fn, f"verify.criterion.{key}", None))
            for key, label, fn in verify.CRITERIA
        ]
        self._patches.append((verify, "CRITERIA", verify.CRITERIA))
        verify.CRITERIA = criteria

    def uninstall(self):
        while self._patches:
            mod, key, orig = self._patches.pop()
            setattr(mod, key, orig)


def layer_totals(spans, first=0):
    """Per span name: calls, summed inclusive and self time, and summed
    work counts.  `spans` is a slice of a span list that starts at index
    `first` and holds every descendant of its spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= first:
            covered[parent - first] += end - start
    totals = {}
    for i, (name, start, end, _, _, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += (end - start) - covered[i]
        for key, val in (counts or {}).items():
            t[key] = t.get(key, 0) + val
    return totals
