"""Independent checks of every benchmark output, run outside the timed
region.

Values are recomputed with `eval_term`, the reference evaluator, on the
algebras the input generator built in memory (never on the program's
parse of the written files).  Verdicts on inputs too large to enumerate
here come from theory, declared by the generator with each input.  Each
check returns a list of mismatch messages; an empty list means the output
is correct.
"""
from __future__ import annotations

import itertools
import json
import re

from finalg.core import (
    Apply,
    DenseTable,
    FiniteAlgebra,
    Signature,
    Variable,
    eval_term,
)

# Largest number of assignments enumerated here to confirm a verdict or
# that a counterexample is the lexicographically first one.
SCAN_CAP = 10_000

# Labeled groups on n elements (OEIS A034383); the n = 1 semi-abelian
# 2-associative census must equal these.
A034383 = (1, 1, 2, 3, 16, 30, 480)

_OP_LINE = re.compile(r"^\s*op (\w+)/(\d+) = \[([\d, ]*)\]\s*$")
_CONST_LINE = re.compile(r"^\s*const (\w+) = (\d+)\s*$")
_REPORT_LINE = re.compile(
    r"^IDENTITY (\S+) (PASS|FAIL)(?: \[counterexample: ([^\]]*)\])? tuples=(\d+)"
)


def value(alg, op, *args):
    """op(args) in alg, through the reference evaluator."""
    names = [f"x{i}" for i in range(len(args))]
    term = Apply(op, *[Variable(v) for v in names])
    return eval_term(alg, term, dict(zip(names, args)))


def holds(alg, ident, tup):
    env = dict(zip(ident.variables, tup))
    return eval_term(alg, ident.lhs, env) == eval_term(alg, ident.rhs, env)


def first_failure(alg, ident, limit):
    """Lex-first failing assignment among the first `limit` ones, or None
    when none fails there."""
    space = itertools.product(range(alg.size), repeat=len(ident.variables))
    for tup in itertools.islice(space, limit):
        if not holds(alg, ident, tup):
            return tup
    return None


def _lex_index(tup, m):
    idx = 0
    for v in tup:
        idx = idx * m + v
    return idx


def parse_tables(text):
    """Constants and operation tables of DSL text, read with plain regexes
    so the check does not go through the program's parser."""
    consts, ops = {}, {}
    for line in text.splitlines():
        if mo := _OP_LINE.match(line):
            body = mo.group(3).strip()
            ops[mo.group(1)] = [int(v) for v in body.split(",")] if body else []
        elif mo := _CONST_LINE.match(line):
            consts[mo.group(1)] = int(mo.group(2))
    return consts, ops


# -- identity reports ----------------------------------------------------------

def check_report(alg, ident, rep, expect, sampled=None):
    """One identity report (a to_dict() mapping) against the reference.

    expect is the theory verdict ("pass", "fail" or None when theory says
    nothing); sampled is (samples, seed) for a sampled check.
    """
    errs = []
    name = ident.name
    m, k = alg.size, len(ident.variables)
    total = m ** k
    if rep.get("name") != name:
        return [f"report for {rep.get('name')!r}, expected {name!r}"]
    verdict = rep["verdict"]
    if verdict == "fail":
        cx = rep.get("counterexample") or {}
        if list(cx) != list(ident.variables):
            return [f"{name}: counterexample keys {list(cx)}"]
        tup = tuple(cx[v] for v in ident.variables)
        if holds(alg, ident, tup):
            errs.append(f"{name}: reported counterexample {cx} satisfies it")
        if sampled is None:
            pos = _lex_index(tup, m) + 1
            if rep["tuples_checked"] != pos:
                errs.append(f"{name}: tuples_checked {rep['tuples_checked']} "
                            f"!= lex position {pos}")
            if pos <= SCAN_CAP:
                first = first_failure(alg, ident, pos)
                if first != tup:
                    errs.append(f"{name}: lex-first counterexample is {first}, "
                                f"reported {tup}")
        if expect == "pass":
            errs.append(f"{name}: FAIL where theory says it holds")
    elif verdict in ("pass", "sampled-pass"):
        if sampled is None:
            if verdict != "pass" or rep["tuples_checked"] != total:
                errs.append(f"{name}: exhaustive pass with verdict {verdict}, "
                            f"tuples {rep['tuples_checked']} of {total}")
        elif (verdict, rep["tuples_checked"], rep["seed"]) != (
            "sampled-pass", sampled[0], sampled[1]
        ):
            errs.append(f"{name}: sampled report {rep}")
        if total <= SCAN_CAP:
            first = first_failure(alg, ident, total)
            if first is not None:
                errs.append(f"{name}: PASS but {first} fails")
        elif expect != "pass":
            errs.append(f"{name}: PASS on {total} tuples that theory does "
                        "not predict and that are too many to enumerate")
        if expect == "fail":
            errs.append(f"{name}: PASS where theory says it fails")
    else:
        errs.append(f"{name}: unknown verdict {verdict!r}")
    return errs


def check_identities(code, text, alg, idents, expect, sampled=None):
    """`finalg check --format structured` output."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != len(idents):
        return [f"{len(lines)} report lines for {len(idents)} identities"]
    errs, all_ok = [], True
    for line, ident in zip(lines, idents):
        rep = json.loads(line)
        all_ok = all_ok and rep["verdict"] != "fail"
        errs += check_report(alg, ident, rep, expect.get(ident.name), sampled)
    if code != (0 if all_ok else 1):
        errs.append(f"exit code {code} for verdicts all_ok={all_ok}")
    return errs


def check_refusal(code, text, alg, suites):
    """A REFUSED output (exit 1).  The reported failing identity, if any,
    must fail at its counterexample; otherwise one of `suites` (lists of
    identities whose failure justifies the refusal) must fail, or the unit
    constants must differ."""
    lines = text.splitlines()
    if code != 1 or not lines or not lines[0].startswith("REFUSED:"):
        return [f"expected a refusal with exit 1, got exit {code}: "
                f"{lines[:1]}"]
    by_name = {i.name: i for suite in suites for i in suite}
    for line in lines[1:]:
        mo = _REPORT_LINE.match(line)
        if mo and mo.group(2) == "FAIL":
            ident = by_name.get(mo.group(1))
            if ident is None:
                return [f"refusal names unknown identity {mo.group(1)!r}"]
            cx = dict(kv.split("=") for kv in (mo.group(3) or "").split(",")
                      if kv)
            tup = tuple(int(cx[v]) for v in ident.variables)
            if holds(alg, ident, tup):
                return [f"refusal counterexample {cx} satisfies {ident.name}"]
            return []
    units = {alg.constants[c] for c in alg.signature.constants}
    if len(units) > 1:
        return []
    for suite in suites:
        for ident in suite:
            limit = alg.size ** len(ident.variables)
            if first_failure(alg, ident, min(limit, SCAN_CAP)) is not None:
                return []
    return ["refusal not justified by any failing law found by the oracle"]


# -- group outputs ----------------------------------------------------------------

def _diagonal_product(alg, n):
    m = alg.size
    return [[value(alg, "theta", *([a] * n + [b])) for b in range(m)]
            for a in range(m)]


def _group_errors(prod, unit, m):
    errs = []
    for a, b, c in itertools.product(range(m), repeat=3):
        if prod[prod[a][b]][c] != prod[a][prod[b][c]]:
            errs.append(f"product not associative at {(a, b, c)}")
            break
    for a in range(m):
        if prod[unit][a] != a or prod[a][unit] != a:
            errs.append(f"{unit} is not a unit at {a}")
            break
        if unit not in prod[a]:
            errs.append(f"{a} has no inverse")
            break
    return errs


def check_derived_group(code, text, alg, n):
    """derive-group: prod(a,b) = theta(a,...,a,b), verified group laws and
    inverses, unit = the algebra's e."""
    if code != 0:
        return [f"exit {code}: {text.splitlines()[:1]}"]
    consts, ops = parse_tables(text)
    m = alg.size
    prod = _diagonal_product(alg, n)
    flat = [v for row in prod for v in row]
    unit = alg.constants[alg.signature.constants[0]]
    errs = []
    if ops.get("prod") != flat:
        errs.append("prod table differs from theta(a,...,a,b)")
    if consts.get("e") != unit:
        errs.append(f"unit {consts.get('e')} != e = {unit}")
    inv = ops.get("inv") or []
    if len(inv) != m or any(prod[a][inv[a]] != unit or prod[inv[a]][a] != unit
                            for a in range(m)):
        errs.append("inv table is not the group inverse")
    return errs + _group_errors(prod, unit, m)


def check_enriched(code, text, alg, n):
    """to-enriched: prod as derive-group, gamma(a*) = theta(a*, e) and the
    alphas copied from the algebra."""
    if code != 0:
        return [f"exit {code}: {text.splitlines()[:1]}"]
    consts, ops = parse_tables(text)
    m = alg.size
    e = alg.constants["e"]
    errs = []
    flat = [v for row in _diagonal_product(alg, n) for v in row]
    if ops.get("prod") != flat:
        errs.append("prod table differs from theta(a,...,a,b)")
    gamma = [value(alg, "theta", *xs, e)
             for xs in itertools.product(range(m), repeat=n)]
    if ops.get("gamma") != gamma:
        errs.append("gamma differs from theta(a*, e)")
    for i in range(1, n + 1):
        want = [value(alg, f"alpha{i}", a, b)
                for a, b in itertools.product(range(m), repeat=2)]
        if ops.get(f"alpha{i}") != want:
            errs.append(f"alpha{i} differs from the algebra's")
    if consts.get("e") != e:
        errs.append(f"unit {consts.get('e')} != {e}")
    return errs


def check_malcev(code, text, alg, n, assoc_expect):
    """malcev: mu(a,b,c) = theta(alpha*(a,b), c), the Mal'cev law verdicts
    recomputed on that table, and the associativity verdict recomputed
    when small or taken from theory."""
    lines = text.splitlines()
    _, ops = parse_tables(lines[0] if lines else "")
    m = alg.size
    want = [
        value(alg, "theta",
              *[value(alg, f"alpha{i}", a, b) for i in range(1, n + 1)], c)
        for a, b, c in itertools.product(range(m), repeat=3)
    ]
    errs = []
    if ops.get("mu") != want:
        errs.append("mu table differs from theta(alpha*(a,b), c)")
        return errs

    def mu(a, b, c):
        return want[(a * m + b) * m + c]

    laws = {
        "malcev-right": all(mu(a, b, b) == a for a in range(m) for b in range(m)),
        "malcev-left": all(mu(a, a, b) == b for a in range(m) for b in range(m)),
    }
    if m ** 5 <= SCAN_CAP * 4:
        laws["malcev-assoc"] = all(
            mu(a, b, mu(c, d, x)) == mu(mu(a, b, c), d, x)
            for a, b, c, d, x in itertools.product(range(m), repeat=5)
        )
    else:
        laws["malcev-assoc"] = assoc_expect
    seen = {}
    for line in lines[1:]:
        if mo := _REPORT_LINE.match(line):
            seen[mo.group(1)] = mo.group(2) == "PASS"
    if set(seen) != set(laws):
        errs.append(f"reports for {sorted(seen)}")
    for name, ok in laws.items():
        if seen.get(name) != ok:
            errs.append(f"{name}: reported {seen.get(name)}, oracle {ok}")
    want_code = 0 if laws["malcev-right"] and laws["malcev-left"] else 1
    if code != want_code:
        errs.append(f"exit {code}, expected {want_code}")
    return errs


# -- search outputs ------------------------------------------------------------------

def check_census(result, m, n, expected):
    """A census result against every independently known count."""
    if result.outcome != "count" or any(result.count != c for c in expected):
        return [f"census m={m} n={n}: {result.summary()}, expected "
                f"count {expected}"]
    return []


def check_no_strict(result, m, n):
    """A strict structure needs each section theta(-, b): A^n -> A to be a
    bijection, impossible when m^n > m, so none exists."""
    if m ** n <= m or result.outcome != "none-exists":
        return [f"no-strict m={m} n={n}: {result.summary()}"]
    return []


def check_prove_none(code, text, size, arity, idents):
    """No table of the given arity on `size` elements satisfies idents:
    every table is enumerated and checked with the reference evaluator."""
    if code != 0 or not text.startswith("no model exists"):
        return [f"exit {code}: {text.splitlines()[:1]}"]
    sig = Signature((("mu", arity),))
    for entries in itertools.product(range(size), repeat=size ** arity):
        alg = FiniteAlgebra("t", sig, size, {"mu": DenseTable(arity, entries)})
        if all(first_failure(alg, i, size ** len(i.variables)) is None
               for i in idents):
            return [f"table {entries} is a model"]
    return []


def lex_first_group_witness(m, e):
    """The first (theta, alpha1) in row-major cell order, theta first,
    satisfying semiabelian:1 and 2assoc:1 with e pinned.

    Such theta is a group operation with unit e (its sections are
    bijections and theta(e, b) = b).  For a fixed theta every alpha cell is
    constrained only by itself (theta(alpha(a,b), b) = a, and
    alpha(a,a) = e on the diagonal), so the first alpha takes the least
    admissible value cell by cell."""
    cells = range(m)
    for theta in itertools.product(cells, repeat=m * m):
        t = lambda a, b: theta[a * m + b]
        if any(t(e, b) != b for b in cells):
            continue
        if any(t(t(a, b), c) != t(a, t(b, c))
               for a, b, c in itertools.product(cells, repeat=3)):
            continue
        alpha = []
        for a, b in itertools.product(cells, repeat=2):
            xs = [x for x in cells if t(x, b) == a and (a != b or x == e)]
            if not xs:
                break
            alpha.append(xs[0])
        else:
            return list(theta), alpha
    return None


def check_find_first(code, text, m, e):
    if code != 0 or not text.startswith("witness found"):
        return [f"exit {code}: {text.splitlines()[:1]}"]
    consts, ops = parse_tables(text)
    want = lex_first_group_witness(m, e)
    got = (ops.get("theta"), ops.get("alpha1"))
    if want is None or got != want or consts.get("e") != e:
        return [f"witness {got} e={consts.get('e')}, lex-first is {want}"]
    return []


def check_count_output(code, text, expected):
    want = f"count = {expected} "
    if code != 0 or not text.startswith(want):
        return [f"exit {code}: {text.splitlines()[:1]}, expected {want!r}"]
    return []


# -- verify-paper ------------------------------------------------------------------

def check_criterion(code, text, key):
    """Each criterion states a claim of the paper, so theory says PASS."""
    lines = text.splitlines()
    if code != 0 or len(lines) != 1 or not re.match(
        rf"^\[\s*{key}\] \S+: PASS - ", lines[0]
    ):
        return [f"criterion {key}: exit {code}, output {lines[:2]}"]
    if key == "11":
        mo = re.search(r"census agrees at (\d+)", lines[0])
        if not mo or int(mo.group(1)) != A034383[2]:
            return [f"criterion 11 census is not A034383(2): {lines[0]}"]
    return []
