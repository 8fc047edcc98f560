"""Concrete algebra constructions: projections, semigroup translations,
matrix row selection, bounded commutative monoids, distributive-lattice
ternary operations, the Boolean protomodular structure, map-composition
algebras, the alpha-builder for surjective sections, and strict semiloops.

The monoids, groups and lattices they start from are FiniteAlgebras too,
named MonoidSpec, GroupSpec and LatticeSpec and checked law by law
(monoid, lattice).  Every table is built by _table from a function
evaluated on whole int64 arrays.  One size rule bounds every
construction: before anything is built, each table or array it would
build is asked core.require_materializable, and one of more than 2^22
entries or arguments is refused with BudgetError.  Products of algebras
(product_lattice, build_group_product_algebra, build_matrix_row_algebra)
are built by numpy broadcasting by _product, which records their
factors so that check_identity decides them factor by factor; a product
table over the limit stays a lookup-only ProductTable.  All
constructions produce validated FiniteAlgebra values ready for the
identity engine.
"""
from __future__ import annotations

import math

from .core import (
    AlgebraError,
    DenseTable,
    FiniteAlgebra,
    InputError,
    ProductTable,
    Signature,
    materializable,
    require_materializable,
    standard_algebra,
)
from .identities import (
    COMMUTATIVITY,
    DISTRIBUTIVITY,
    GROUP_LAWS,
    LATTICE_LAWS,
    MONOID_LAWS,
    NEUTRAL_LAWS,
    check_identity,
    monoid_algebra,
    require_laws,
)

_BLOCK = 1 << 16  # argument tuples per call of a table's function


# ---------------------------------------------------------------------------
# input structures, law-checked at construction

def _table(arity, m, fn) -> DenseTable:
    """The table of fn over {0..m-1}; a BudgetError when m^arity is over
    the materialize limit.  fn is elementwise: called with arity int64
    arrays of one length, the argument tuples of a block of at most
    _BLOCK in flat order, it returns the int64 array of its values (or
    one int for all of them) and writes none of its arguments.  The
    arguments are the base-m digits of the flat indices, taken by
    arithmetic, so any arity works (numpy 1.x refuses arrays of more than
    32 dimensions and 2.x more than 64, and a one-element carrier admits
    any arity).  Once the quotient is all zero, that one zero array is
    every leading digit, so a one-element carrier costs one array.  The
    blocks are written into one int64 array, which becomes the table's
    array()."""
    import numpy as np

    require_materializable(m, arity)
    total = m ** arity
    out = np.empty(total, dtype=np.int64)
    for start in range(0, total, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, total))
        args, rest = [], flat
        while len(args) < arity - 1 and rest.any():
            rest, digit = np.divmod(rest, m)
            args.append(digit)
        args += [rest] * (arity - 1 - len(args))
        out[start:start + flat.size] = fn(rest, *reversed(args))
    return DenseTable.of_array(arity, out)


def monoid(size, table, unit, inverse=None) -> FiniteAlgebra:
    """The monoid MonoidSpec (prod/e) of a Cayley table, or the group
    GroupSpec (prod/inv/e) when an inverse tuple is given; its laws are
    checked eagerly, at any size."""
    name, laws = (("MonoidSpec", MONOID_LAWS) if inverse is None
                  else ("GroupSpec", GROUP_LAWS))
    alg = monoid_algebra(name, size, table, unit, inverse)
    require_laws(alg, laws)
    return alg


def lattice(size, join, meet, bottom=None, top=None) -> FiniteAlgebra:
    """The lattice LatticeSpec (join/meet, with the constants bottom and
    top when they are given); the lattice laws and the neutrality of its
    constants are checked eagerly (distributivity by build_lattice_theta)."""
    consts = {"bottom": bottom, "top": top}
    consts = {c: v for c, v in consts.items() if v is not None}
    sig = Signature((("join", 2), ("meet", 2)), tuple(consts))
    return _checked_lattice(FiniteAlgebra(
        "LatticeSpec", sig, size, {"join": join, "meet": meet}, consts))


def _checked_lattice(alg):
    require_laws(alg, LATTICE_LAWS
                 + tuple(NEUTRAL_LAWS[c] for c in alg.signature.constants))
    return alg


def _at_least_1(what, k):
    if k < 1:
        raise InputError(f"{what} must be >= 1, got {k}")


def cyclic_group(k: int) -> FiniteAlgebra:
    """The additive group of integers mod k."""
    _at_least_1("group order", k)
    return monoid(k, _table(2, k, lambda a, b: (a + b) % k), 0,
                  [-a % k for a in range(k)])


def cyclic_monoid(k: int) -> FiniteAlgebra:
    _at_least_1("monoid order", k)
    return monoid(k, _table(2, k, lambda a, b: (a + b) % k), 0)


def chain_lattice(k: int) -> FiniteAlgebra:
    """The k-element chain 0 < 1 < ... < k-1."""
    import numpy as np

    _at_least_1("chain length", k)
    return lattice(k, _table(2, k, np.maximum), _table(2, k, np.minimum),
                   bottom=0, top=k - 1)


def product_lattice(p: FiniteAlgebra, q: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product, elements encoded as a*|q| + b; bottom and
    top where both factors have them."""
    return _checked_lattice(_product("LatticeSpec", (p, q)))


def _product(name, factors) -> FiniteAlgebra:
    """The componentwise product of factors over the operations and
    constants they all interpret, with factors recorded on it (see
    identities.check_identity).  The element (x1, ..., xr) is encoded in
    mixed radix, x1 most significant.  A table within the materialize
    limit is built by numpy broadcasting over the r factors of two or
    more elements (a one-element factor adds 0 to every entry, and r
    times the arity is then at most 22 axes): axis i*r + j of the
    product table is argument i of the j-th of them.  A table over the
    limit is a ProductTable of the factors' tables."""
    import numpy as np

    sizes = [f.size for f in factors]
    weights = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
    m = math.prod(sizes)
    wide = [(f, w) for f, w in zip(factors, weights) if f.size > 1]
    r = len(wide)
    first, *rest = factors
    ops = tuple(op for op in first.signature.ops
                if all(op in f.signature.ops for f in rest))
    consts = tuple(c for c in first.signature.constants
                   if all(f.signature.has_constant(c) for f in rest))
    tables = {}
    for sym, arity in ops:
        if not materializable(m, arity):
            tables[sym] = ProductTable(
                arity, [(f.op(sym), f.size) for f in factors])
            continue
        out = 0
        for j, (f, w) in enumerate(wide):
            shape = [1] * (r * arity)
            shape[j::r] = [f.size] * arity
            out = out + w * f.op(sym).array().reshape(shape)
        tables[sym] = DenseTable.of_array(arity, np.ravel(out))
    values = {c: sum(w * f.constant(c) for f, w in zip(factors, weights))
              for c in consts}
    alg = FiniteAlgebra(name, Signature(ops, consts), m, tables, values)
    alg.factors = tuple(factors)
    return alg


# ---------------------------------------------------------------------------
# constructions

def _require_theta(m, n):
    """Refuse theta's table of n+1 arguments over {0..m-1} before anything
    is built: n < 1 is an InputError (theta needs at least two arguments),
    a table over the materialize limit a BudgetError."""
    _at_least_1("n", n)
    require_materializable(m, n + 1, f"{n} + 1")


def _theta_only(name, m, n, fn):
    """A theta-only algebra with theta's table of fn (see _table)."""
    _require_theta(m, n)
    return FiniteAlgebra(name, Signature((("theta", n + 1),)), m,
                         {"theta": _table(n + 1, m, fn)})


def build_projection_algebra(m: int, n: int, i: int) -> FiniteAlgebra:
    """theta(a1,...,an,a_{n+1}) = a_i; 2-associative for every i."""
    _at_least_1("carrier size", m)
    _require_theta(m, n)
    if not 1 <= i <= n + 1:
        raise InputError(f"projection index {i} out of range 1..{n + 1}")
    return _theta_only(f"Proj{m}n{n}i{i}", m, n, lambda *a: a[i - 1])


def build_semigroup_algebra(sg: FiniteAlgebra, n: int,
                            i: int) -> FiniteAlgebra:
    """theta(a1,...,an,b) = a_i * b on a monoid (see monoid).

    When sg is a group, the unit e and alpha_j(a,b) = a * b^-1 are
    attached, giving a 2-associative semi-abelian algebra.
    """
    if not 1 <= i <= n:
        raise InputError(f"translation index {i} out of range 1..{n}")
    m = sg.size
    mul = sg.op("prod").array()

    def theta(*args):
        return mul[args[i - 1] * m + args[-1]]

    if not sg.signature.has_op("inv"):
        return _theta_only(f"Sgrp{m}n{n}i{i}", m, n, theta)
    _require_theta(m, n)
    inv = sg.op("inv").array()
    return standard_algebra(
        f"Grp{m}n{n}i{i}", m, _table(n + 1, m, theta),
        [_table(2, m, lambda a, b: mul[a * m + inv[b]])] * n,
        [sg.constant("e")] * n,
    )


def build_group_product_algebra(groups, indices, n: int) -> FiniteAlgebra:
    """Componentwise translation algebra: component j of the carrier comes
    from groups[j] and uses the indices[j]-th tuple entry, so
    theta(a1,...,an,b)_j = (a_{indices[j]})_j * b_j.  It is the product of
    the factors' build_semigroup_algebra algebras, built through them
    when its tables are over the materialize limit (see _product)."""
    if len(groups) != len(indices):
        raise InputError("need one index per group factor")
    for idx in indices:
        if not 1 <= idx <= n:
            raise InputError(f"index {idx} out of range 1..{n}")
    label = "x".join(str(g.size) for g in groups)
    return _product(f"GrpProd{label}n{n}", [
        build_semigroup_algebra(g, n, idx) for g, idx in zip(groups, indices)
    ])


def build_matrix_row_algebra(q: int, n: int) -> FiniteAlgebra:
    """Carrier: all (n+1)x(n+1) matrices over a q-element entry set,
    encoded by row-major base-q digits.  theta assembles the matrix whose
    i-th row is the i-th row of the i-th argument: it is the product of
    the n+1 projection algebras on the q^(n+1) rows, the i-th projecting
    to argument i, as row i is the i-th component of the encoding.  Each
    factor's theta has q^(d^2) entries, d = n+1, and all d factors have
    d^2 arguments, so one test refuses them before any is built."""
    _at_least_1("entry set size", q)
    _at_least_1("n", n)
    d = n + 1
    require_materializable(q, d * d, f"({n} + 1)^2")
    return _product(f"MatRows-q{q}-n{n}", [
        build_projection_algebra(q ** d, n, i) for i in range(1, d + 1)])


def build_bounded_monoid_algebra(mo: FiniteAlgebra, n: int) -> FiniteAlgebra:
    """theta(a1,...,an,b) = a1 + ... + an + b on a commutative monoid (see
    monoid) in which every element's order divides n-1."""
    import numpy as np

    if not check_identity(mo, COMMUTATIVITY).ok:
        raise AlgebraError("monoid must be commutative")
    m, unit = mo.size, mo.constant("e")
    mul = mo.op("prod").array()
    _require_theta(m, n)
    powers = np.full(m, unit)  # a^(n-1) for every element a
    for _ in range(n - 1):
        powers = mul[powers * m + np.arange(m)]
    bad = np.flatnonzero(powers != unit)
    if bad.size:
        raise AlgebraError(
            f"element {bad[0]}: order does not divide n-1 = {n - 1}")

    def theta(*args):
        acc = args[0]
        for x in args[1:]:
            acc = mul[acc * m + x]
        return acc

    return _theta_only(f"BddMonoid{m}n{n}", m, n, theta)


def build_lattice_theta(lat: FiniteAlgebra, variant: str) -> FiniteAlgebra:
    """Ternary operation on a distributive lattice (see lattice):

    variant "meet-last":   theta(a,b,c) = (a v b) ^ c
    variant "meet-middle": theta(a,b,c) = (a v c) ^ b

    Both are 2-associative on every distributive lattice; neither is
    1-associative unless the lattice is trivial.
    """
    if not check_identity(lat, DISTRIBUTIVITY).ok:
        raise AlgebraError("lattice is not distributive")
    m = lat.size
    join, meet = (lat.op(s).array() for s in ("join", "meet"))
    if variant == "meet-last":
        fn = lambda a, b, c: meet[join[a * m + b] * m + c]
    elif variant == "meet-middle":
        fn = lambda a, b, c: meet[join[a * m + c] * m + b]
    else:
        raise InputError(f"unknown variant {variant!r}")
    return _theta_only(f"Lat{lat.size}-{variant}", lat.size, 2, fn)


def build_lattice_v2_algebra(lat: FiniteAlgebra) -> FiniteAlgebra:
    """The meet-middle lattice operation with units e1 = bottom,
    e2 = top and alphas attached through the surjective-section builder,
    giving a 2-associative protomodular algebra."""
    units = [lat.constants.get(c) for c in ("bottom", "top")]
    if None in units:
        raise AlgebraError("lattice needs bottom and top")
    base = build_lattice_theta(lat, "meet-middle")
    return build_alphas_from_surjectivity(base, units)


def build_boolean_protomodular(k: int) -> FiniteAlgebra:
    """The power set of a k-element set as a protomodular algebra (n = 2):
    theta(x,y,z) = (x v z) ^ y, alpha1(x,y) = x ^ ~y, alpha2(x,y) = x v ~y,
    e1 = empty set, e2 = whole set.  Elements are bitmasks."""
    _at_least_1("k", k)
    require_materializable(2, 3 * k, f"3 * {k}")
    m = 1 << k
    full = m - 1
    return standard_algebra(
        f"Bool{m}", m, _table(3, m, lambda x, y, z: (x | z) & y),
        [_table(2, m, lambda x, y: x & (full ^ y)),
         _table(2, m, lambda x, y: x | (full ^ y))],
        (0, full),
    )


def _encode(values, m):
    code = 0
    for v in values:
        code = code * m + v
    return code


def _maps(m, n, retractions):
    """The maps A^n -> A for |A| = m, or with retractions only those that
    fix every diagonal point (a, ..., a) to a: the free points, at which
    their values are not fixed (none when m = 1), and theta(f1,...,fn,g)
    = g o (f1,...,fn) on them, elementwise over int64 arrays.  A map is
    encoded by its values at the free points, in lex order of A^n, as
    base-m digits, most significant first: the codes are 0..m^len(free)-1,
    in lex order of the maps' value tables.  The m^n points and the
    m^len(free) maps are refused over the materialize limit first."""
    import numpy as np

    if m < 0:
        raise InputError(f"maps A^n -> A need m >= 0, got {m}")
    _at_least_1("n", n)
    require_materializable(m, n)
    points = m ** n
    values = np.arange(m if retractions else 0)
    ones = (points - 1) // (m - 1) if m > 1 else 0  # the point (1, ..., 1)
    require_materializable(m, points - values.size)
    # the value of a code at point p: code // weight[p] % radix[p] +
    # offset[p], a digit at a free point and the fixed value elsewhere
    radix = np.full(points, m, dtype=np.int64)
    offset = np.zeros(points, dtype=np.int64)
    radix[values * ones], offset[values * ones] = 1, values
    free = np.flatnonzero(radix > 1).tolist()
    weight = np.ones(points, dtype=np.int64)
    weight[free] = [m ** k for k in range(len(free) - 1, -1, -1)]

    def theta(*codes):
        out = 0
        for i in free:
            # lexicographic index of the point (f1(i), ..., fn(i))
            p = 0
            for f in codes[:-1]:
                p = p * m + f // weight[i] % m
            out = out * m + codes[-1] // weight[p] % radix[p] + offset[p]
        return out

    return free, theta


def build_map_composition_algebra(m: int, n: int) -> FiniteAlgebra:
    """Carrier: all maps A^n -> A for |A| = m, encoded by their value
    tables as base-m digits; theta(f1,...,fn,g) = g o (f1,...,fn)."""
    free, theta = _maps(m, n, False)
    return _theta_only(f"Maps-m{m}-n{n}", m ** len(free), n, theta)


def build_diagonal_retraction_algebra(m: int, n: int) -> FiniteAlgebra:
    """The maps g: A^n -> A with g(a,...,a) = a, under composition-with-
    tupling, with e_i = i-th projection and alphas attached by the
    surjective-section builder.  A 2-associative protomodular algebra.
    Element i is the retraction whose values at the non-diagonal points
    are the base-m digits of i (see _maps)."""
    free, theta = _maps(m, n, True)
    base = _theta_only(f"Retr-m{m}-n{n}", m ** len(free), n, theta)
    units = [_encode((p // m ** (n - i) % m for p in free), m)
             for i in range(1, n + 1)]
    return build_alphas_from_surjectivity(base, units)


def build_alphas_from_surjectivity(alg: FiniteAlgebra, units) -> FiniteAlgebra:
    """Given a theta-only algebra whose sections theta_b are all surjective
    and which satisfies theta(e1,...,en,b) = b, attach alpha tables so the
    protomodular axioms hold.

    alpha_i(a,b) is the i-th component of a chosen theta_b-preimage of a:
    the unit tuple itself when theta_b(e*) = a (forced by the diagonal
    axiom), otherwise the lexicographically smallest preimage.  The scan
    reads every theta entry as one int64 array, so a product theta over
    the materialize limit is refused with BudgetError.  Unit elements
    outside the carrier are an InputError, raised before any lookup.
    """
    import numpy as np

    tbl = alg.op("theta")
    n = tbl.arity - 1
    units = tuple(units)
    if len(units) != n:
        raise InputError(f"need {n} unit elements, got {len(units)}")
    m = alg.size
    if not all(0 <= u < m for u in units):
        raise InputError(f"unit elements {units} outside 0..{m - 1}")
    for b in range(m):
        if tbl.lookup(units + (b,), m) != b:
            raise AlgebraError(
                f"theta(e*, b) = b fails at b = {b}"
            )
    # first[b, a]: the lex index of the chosen tuple xs with theta(xs, b) = a
    size = m ** n
    rows = tbl.array().reshape(size, m)
    first = np.full((m, m), size, dtype=np.int64)
    index = np.arange(size)
    for b in range(m):
        np.minimum.at(first[b], rows[:, b], index)
        missing = np.flatnonzero(first[b] == size)
        if missing.size:
            raise AlgebraError(
                f"section at b = {b} is not surjective (misses {missing[0]})"
            )
    first[range(m), range(m)] = _encode(units, m)  # theta(e*, b) = b
    alphas = [DenseTable.of_array(2, (first.T // m ** (n - i) % m).ravel())
              for i in range(1, n + 1)]
    return standard_algebra(alg.name + "-alphas", m, tbl, alphas, units)


def build_strict_semiloop(m: int, twisted: bool = False) -> FiniteAlgebra:
    """A strict n=1 algebra: each section theta_b is a permutation with
    theta(e, b) = b, and alpha1(a, b) inverts it.

    Untwisted, theta(a,b) = a+b mod m (a cyclic group).  Twisted (m >= 3),
    the section at b = m-1 composes with the transposition (1 2), which
    yields a left semiloop that is not associative.
    """
    import numpy as np

    _at_least_1("carrier size", m)
    if twisted and m < 3:
        raise InputError("twisted semiloop needs m >= 3")

    def sigma(b, a):
        if not twisted:
            return a
        return np.where((b == m - 1) & ((a == 1) | (a == 2)), 3 - a, a)

    def theta(a, b):
        return (sigma(b, a) + b) % m

    def alpha(a, b):
        return sigma(b, (a - b) % m)

    label = "Semiloop" if twisted else "Cyclic"
    return standard_algebra(
        f"{label}{m}", m, _table(2, m, theta),
        [_table(2, m, alpha)], [0],
    )
