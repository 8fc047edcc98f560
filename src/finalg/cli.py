"""Command-line interface.

Exit codes: 0 all checks passed, 1 semantic failure (an identity or law
fails), 2 input error (bad file, parse error, unknown name), 3 budget
refusal.  main alone maps an exception to its exit code, by class:
InputError 2, BudgetError 3, a group refusal or any other AlgebraError 1.
A usage error of the argument parser is an InputError too.

The argument parser is built once per process (build_parser is a
core.memo, which finalg.clear_caches() empties), and main parses each
argv into a fresh namespace, so calls of main share no parsed state.  A
`finalg` process runs main once and still builds the parser once; only
callers that run main many times in one process save the 1.5 ms or so
it takes to build.  An argv that starts with a command name is parsed
by that command's parser alone, with the same output and exit codes as
the two passes of the top-level parser.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import catalog, dsl, groups, search, verify
from .core import (
    AlgebraError,
    BudgetError,
    InputError,
    check_identity_terms,
    memo,
    require_materializable,
)
from .identities import (
    DISTRIBUTIVITY,
    EXHAUSTIVE_BUDGET,
    check_identity,
    exhaustive_assignments,
    suite_identities,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}")


def _load_algebra(path):
    """The one algebra block of the file at path, its tables and
    constants checked by dsl.raw_to_algebra, and the file's
    identities."""
    algebras, identities = dsl.parse_file(_read(path))
    if len(algebras) != 1:
        raise InputError(f"{path}: expected exactly one algebra block")
    return algebras[0], identities


def _budget(args, default):
    """The --budget value, or default when it is not given; a value below
    1 is an input error."""
    if args.budget is None:
        return default
    if args.budget < 1:
        raise InputError(f"--budget must be >= 1, got {args.budget}")
    return args.budget


def _emit_reports(reports, fmt, out):
    for r in reports:
        if fmt == "structured":
            out(json.dumps(r.to_dict()))
        else:
            out(r.line())


def cmd_check(args, out):
    alg, file_identities = _load_algebra(args.file)
    identities = []
    if args.suite:
        identities.extend(suite_identities(alg, args.suite))
    by_name = {i.name: i for i in file_identities}
    for name in args.identity or []:
        if name in by_name:
            identities.append(by_name[name])
        else:
            identities.extend(suite_identities(alg, name))
    if not identities:
        identities = file_identities
    if not identities:
        raise InputError("nothing to check: give --suite or --identity "
                         "or put identity statements in the file")
    # every identity fits before any is checked, so a misfit is exit 2
    # even where an earlier check would be over budget
    for ident in identities:
        check_identity_terms(alg.signature, ident, alg.name)
    kw = {"mode": args.mode, "samples": args.samples, "seed": args.seed,
          "budget": _budget(args, EXHAUSTIVE_BUDGET)}
    try:
        reports = [check_identity(alg, i, **kw) for i in identities]
    except BudgetError as e:  # an exhaustive refusal names the way out
        if args.mode == "sampled":
            raise
        raise BudgetError(f"{e} (finalg check --budget raises it)") from None
    _emit_reports(reports, args.format, out)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAIL


def _int(option, text):
    """An integer in an option value; anything else is an input error."""
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{option}: expected an integer, got {text!r}")


def _group_product(args):
    orders = [_int("--orders", x) for x in args.orders.split(",")]
    indices = tuple(_int("--indices", x) for x in args.indices.split(","))
    if min(orders) >= 1 and args.n >= 1:  # all tables, before any is built
        for k in orders:
            require_materializable(k, 2)
        require_materializable(math.prod(orders), args.n + 1, f"{args.n} + 1")
    return catalog.build_group_product_algebra(
        [catalog.cyclic_group(k) for k in orders], indices, args.n
    )


def _lattice(args):
    if args.shape.startswith("chain:"):
        k = _int("--shape", args.shape.partition(":")[2])
        # the lattice theta's distributivity check is refused before the
        # chain's own law checks run, which no budget bounds
        require_materializable(k, 2)
        exhaustive_assignments(DISTRIBUTIVITY, k)
        lat = catalog.chain_lattice(k)
    elif args.shape == "2x2":
        lat = catalog.product_lattice(
            catalog.chain_lattice(2), catalog.chain_lattice(2)
        )
    else:
        raise InputError(f"unknown lattice shape {args.shape!r}")
    if args.with_alphas:
        return catalog.build_lattice_v2_algebra(lat)
    return catalog.build_lattice_theta(lat, args.variant)


# construct's options at their defaults
_CONSTRUCT_DEFAULTS = {
    "m": 2, "n": 1, "i": 1, "k": 1, "q": 2, "order": 2, "orders": "2,3",
    "indices": "1,2", "shape": "chain:2", "variant": "meet-middle",
    "with_alphas": False, "twisted": False,
}

# each construction: the options it reads, and its builder called with
# them; a construct that gives any other option is refused
_CONSTRUCTIONS = {
    "projection": ("m n i", lambda a: catalog.build_projection_algebra(
        a.m, a.n, a.i)),
    "semigroup": ("order n i", lambda a: catalog.build_semigroup_algebra(
        catalog.cyclic_group(a.order), a.n, a.i)),
    "group-product": ("orders indices n", _group_product),
    "matrix-rows": ("q n", lambda a: catalog.build_matrix_row_algebra(
        a.q, a.n)),
    "bounded-monoid": ("order n",
                       lambda a: catalog.build_bounded_monoid_algebra(
                           catalog.cyclic_monoid(a.order), a.n)),
    "lattice": ("shape variant with_alphas", _lattice),
    "boolean": ("k", lambda a: catalog.build_boolean_protomodular(a.k)),
    "map-composition": ("m n",
                        lambda a: catalog.build_map_composition_algebra(
                            a.m, a.n)),
    "diagonal-retractions": (
        "m n", lambda a: catalog.build_diagonal_retraction_algebra(a.m, a.n)),
    "strict-semiloop": ("m twisted", lambda a: catalog.build_strict_semiloop(
        a.m, twisted=a.twisted)),
}


def cmd_construct(args, out):
    entry = _CONSTRUCTIONS.get(args.name)
    if entry is None:
        raise InputError(
            f"unknown construction {args.name!r}; "
            f"known: {', '.join(sorted(_CONSTRUCTIONS))}"
        )
    reads, build = entry[0].split(), entry[1]
    unread = [f"--{option.replace('_', '-')}" for option in _CONSTRUCT_DEFAULTS
              if hasattr(args, option) and option not in reads]
    if unread:
        raise InputError(f"construction {args.name!r} reads no "
                         f"{', '.join(unread)}")
    alg = build(argparse.Namespace(**{
        option: getattr(args, option, _CONSTRUCT_DEFAULTS[option])
        for option in reads}))
    text = dsl.serialize(alg)
    if args.out:
        _write(args.out, text)
    else:
        out(text.rstrip("\n"))
    return EXIT_OK


def cmd_derive_group(args, out):
    alg, _ = _load_algebra(args.file)
    group = groups.derive_group(alg)
    out(dsl.serialize(group).rstrip("\n"))
    out(f"# group axioms verified exhaustively on {group.size} elements; "
        f"source hash {groups.algebra_hash(alg)}")
    return EXIT_OK


def cmd_to_enriched(args, out):
    alg, _ = _load_algebra(args.file)
    out(dsl.serialize(groups.to_enriched(alg)).rstrip("\n"))
    return EXIT_OK


def cmd_from_enriched(args, out):
    alg, _ = _load_algebra(args.file)
    out(dsl.serialize(groups.from_enriched(alg)).rstrip("\n"))
    return EXIT_OK


def cmd_malcev(args, out):
    alg, _ = _load_algebra(args.file)
    res = groups.malcev_term(alg)
    out(f"op mu/3 = {dsl.table_literal(res.table, alg.size)}")
    _emit_reports(res.law_reports + [res.assoc_report], args.format, out)
    return EXIT_OK if res.laws_ok else EXIT_FAIL


def cmd_search(args, out):
    spec = search.parse_search_spec(_read(args.file), mode=args.search_mode)
    result = search.search(spec, budget=_budget(args, search.SEARCH_BUDGET))
    if args.format == "structured":
        out(json.dumps({
            "outcome": result.outcome,
            "count": result.count,
            "nodes": result.nodes,
            "instances_evaluated": result.instances_evaluated,
            "forced": result.forced,
            "elapsed_s": result.elapsed_s,
        }))
    else:
        out(result.summary())
    if result.witness is not None:
        out(dsl.serialize(result.witness).rstrip("\n"))
        return EXIT_FAIL if spec.mode == "prove-none" else EXIT_OK
    if result.outcome == "count":
        return EXIT_OK
    return EXIT_FAIL if spec.mode == "find-first" else EXIT_OK


def cmd_verify(args, out):
    ok = verify.run_criteria(only=args.only, out=out)
    return EXIT_OK if ok else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InputError instead of
    exiting; its subcommand parsers are of the same class."""

    def error(self, message):
        raise InputError(message)


@memo()
def build_parser():
    """The finalg argument parser, built on first use; callers must not
    change it."""
    p = _Parser(
        prog="finalg",
        description="Finite universal-algebra workbench: check identities, "
        "build catalog algebras, derive groups, search small models.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # each command's own parser, by name

    def common(sp):
        sp.add_argument("--mode", choices=["exhaustive", "sampled"],
                        default="exhaustive")
        sp.add_argument("--samples", type=int, default=10000)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", type=int)
        sp.add_argument("--format", choices=["text", "structured"],
                        default="text")

    sp = sub.add_parser("check", help="check identities/suites on an algebra")
    sp.add_argument("file")
    sp.add_argument("--suite")
    sp.add_argument("--identity", action="append")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    # construct's options default to absent, so that one a construction
    # does not read is seen (_CONSTRUCT_DEFAULTS holds their values)
    sp = sub.add_parser("construct", help="emit a catalog algebra as DSL",
                        argument_default=argparse.SUPPRESS)
    sp.add_argument("name")
    for option in ("m", "n", "i", "k", "q", "order"):
        sp.add_argument(f"--{option}", type=int)
    sp.add_argument("--orders")
    sp.add_argument("--indices")
    sp.add_argument("--shape")
    # --with-alphas builds the meet-middle theta, so no --variant with it
    lattice = sp.add_mutually_exclusive_group()
    lattice.add_argument("--variant", choices=["meet-last", "meet-middle"])
    lattice.add_argument("--with-alphas", action="store_true")
    sp.add_argument("--twisted", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("derive-group",
                        help="derive and verify the group of an algebra")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_derive_group)

    sp = sub.add_parser("to-enriched", help="convert to an enriched group")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_to_enriched)

    sp = sub.add_parser("from-enriched",
                        help="convert an enriched group back to an algebra")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_from_enriched)

    sp = sub.add_parser("malcev", help="materialize and check the Mal'cev term")
    sp.add_argument("file")
    sp.add_argument("--format", choices=["text", "structured"], default="text")
    sp.set_defaults(fn=cmd_malcev)

    sp = sub.add_parser("search", help="search small models for a spec file")
    sp.add_argument("file")
    sp.add_argument("--search-mode", default="find-first",
                    choices=search.MODES)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--format", choices=["text", "structured"], default="text")
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("verify-paper",
                        help="run the full verification suite")
    sp.add_argument("--only")
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    def out(line=""):
        print(line)

    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        if command is not None:  # one argparse pass, the command's own
            parser, argv = command, argv[1:]
        args = parser.parse_args(argv)
        return args.fn(args, out)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetError as e:
        print(f"budget: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (groups.PreconditionError, groups.GroupLawError) as e:
        out(f"REFUSED: {e}")
        report = getattr(e, "report", None)
        if report is not None:
            out(report.line())
        return EXIT_FAIL
    except AlgebraError as e:
        print(f"failure: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
