"""Concrete algebra constructions: projections, semigroup translations,
matrix row selection, bounded commutative monoids, distributive-lattice
ternary operations, the Boolean protomodular structure, map-composition
algebras, the alpha-builder for surjective sections, and strict semiloops.

The monoids, groups and lattices they start from are FiniteAlgebras too,
named MonoidSpec, GroupSpec and LatticeSpec and checked law by law
(monoid, lattice).  Every table is the materialized array form of a
function that meets the LazyTable contract, except a theta too large to
materialize, which stays lazy; products of algebras (product_lattice,
build_group_product_algebra) are built by numpy broadcasting.  All
constructions produce validated FiniteAlgebra values ready for the
identity engine.
"""
from __future__ import annotations

import bisect
import itertools
import math

from .core import (
    AlgebraError,
    BudgetError,
    DenseTable,
    FiniteAlgebra,
    InputError,
    LazyTable,
    Signature,
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

MATRIX_CARRIER_CAP = 10 ** 6
MAP_CARRIER_CAP = 10 ** 4
DENSE_TABLE_CAP = 1 << 22


# ---------------------------------------------------------------------------
# input structures, law-checked at construction

def _table(arity, m, fn) -> DenseTable:
    """The table of fn, which meets the LazyTable contract, read through
    its array form; a BudgetError when m^arity is over the limit."""
    return LazyTable(arity, fn).materialize(m)


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
    constants they all interpret.  The element (x1, ..., xr) is encoded in
    mixed radix, x1 most significant.  Each table is refused with
    BudgetError over the materialize limit before it is built, and built
    by numpy broadcasting: axis i*r + j of the product table is argument
    i of factor j."""
    sizes = [f.size for f in factors]
    weights = [math.prod(sizes[j + 1:]) for j in range(len(sizes))]
    m, r = math.prod(sizes), len(factors)
    first, *rest = factors
    ops = tuple(op for op in first.signature.ops
                if all(op in f.signature.ops for f in rest))
    consts = tuple(c for c in first.signature.constants
                   if all(f.signature.has_constant(c) for f in rest))
    tables = {}
    for sym, arity in ops:
        require_materializable(m, arity)
        out = 0
        for j, (f, w) in enumerate(zip(factors, weights)):
            shape = [1] * (r * arity)
            shape[j::r] = [sizes[j]] * arity
            out = out + w * f.op(sym).array().reshape(shape)
        tables[sym] = DenseTable.of_array(arity, out.ravel())
    values = {c: sum(w * f.constant(c) for f, w in zip(factors, weights))
              for c in consts}
    return FiniteAlgebra(name, Signature(ops, consts), m, tables, values)


# ---------------------------------------------------------------------------
# constructions

def _gather(values):
    """values[idx] elementwise for a sequence or an int64 array of values,
    as the LazyTable contract asks: an int for an int index, an int64
    array for an int64 index array."""
    arr = None

    def get(idx):
        nonlocal arr
        if isinstance(idx, int):
            return int(values[idx])
        if arr is None:
            import numpy as np

            arr = np.asarray(values, dtype=np.int64)
        return arr[idx]

    return get


def _theta_only(name, m, n, fn):
    """A theta-only algebra; fn must meet the LazyTable contract, since
    theta stays lazy when its m^(n+1) entries exceed DENSE_TABLE_CAP and
    is materialized through the array form otherwise.  n < 1 is an
    InputError: theta needs at least two arguments."""
    _at_least_1("n", n)
    sig = Signature((("theta", n + 1),))
    tbl = LazyTable(n + 1, fn, note=name)
    if m ** (n + 1) <= DENSE_TABLE_CAP:
        tbl = tbl.materialize(m)
    return FiniteAlgebra(name, sig, m, {"theta": tbl})


def build_projection_algebra(m: int, n: int, i: int) -> FiniteAlgebra:
    """theta(a1,...,an,a_{n+1}) = a_i; 2-associative for every i."""
    if not 1 <= i <= n + 1:
        raise InputError(f"projection index {i} out of range 1..{n + 1}")
    _at_least_1("carrier size", m)
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
    mul = _gather(sg.op("prod").array())

    def theta(*args):
        return mul(args[i - 1] * m + args[-1])

    if not sg.signature.has_op("inv"):
        return _theta_only(f"Sgrp{m}n{n}i{i}", m, n, theta)
    inv = _gather(sg.op("inv").array())
    return standard_algebra(
        f"Grp{m}n{n}i{i}", m, _table(n + 1, m, theta),
        [_table(2, m, lambda a, b: mul(a * m + inv(b)))] * n,
        [sg.constant("e")] * n,
    )


def build_group_product_algebra(groups, indices, n: int) -> FiniteAlgebra:
    """Componentwise translation algebra: component j of the carrier comes
    from groups[j] and uses the indices[j]-th tuple entry, so
    theta(a1,...,an,b)_j = (a_{indices[j]})_j * b_j.  It is the product of
    the factors' build_semigroup_algebra algebras."""
    if len(groups) != len(indices):
        raise InputError("need one index per group factor")
    for idx in indices:
        if not 1 <= idx <= n:
            raise InputError(f"index {idx} out of range 1..{n}")
    sizes = [g.size for g in groups]
    require_materializable(math.prod(sizes), n + 1)
    label = "x".join(str(s) for s in sizes)
    return _product(f"GrpProd{label}n{n}", [
        build_semigroup_algebra(g, n, idx) for g, idx in zip(groups, indices)
    ])


def build_matrix_row_algebra(q: int, n: int) -> FiniteAlgebra:
    """Carrier: all (n+1)x(n+1) matrices over a q-element entry set,
    encoded by row-major base-q digits.  theta assembles the matrix whose
    i-th row is the i-th row of the i-th argument."""
    _at_least_1("entry set size", q)
    d = n + 1
    m = q ** (d * d)
    if m > MATRIX_CARRIER_CAP:
        raise BudgetError(
            f"matrix carrier {q}^{d * d} = {m} exceeds cap {MATRIX_CARRIER_CAP}"
        )

    row_weight = q ** d  # one row spans d base-q digits
    shifts = [row_weight ** (d - 1 - i) for i in range(d)]

    def theta(*mats):
        out = 0
        for i in range(d):
            # row i sits at digit offset i*d from the most significant end
            out = out * row_weight + (mats[i] // shifts[i]) % row_weight
        return out

    return _theta_only(f"MatRows-q{q}-n{n}", q ** (d * d), n, theta)


def build_bounded_monoid_algebra(mo: FiniteAlgebra, n: int) -> FiniteAlgebra:
    """theta(a1,...,an,b) = a1 + ... + an + b on a commutative monoid (see
    monoid) in which every element's order divides n-1."""
    import numpy as np

    if not check_identity(mo, COMMUTATIVITY).ok:
        raise AlgebraError("monoid must be commutative")
    m, unit = mo.size, mo.constant("e")
    mul = _gather(mo.op("prod").array())
    if n >= 2:
        powers = np.full(m, unit)  # a^(n-1) for every element a
        for _ in range(n - 1):
            powers = mul(powers * m + np.arange(m))
        bad = np.flatnonzero(powers != unit)
        if bad.size:
            raise AlgebraError(
                f"element {bad[0]}: order does not divide n-1 = {n - 1}"
            )

    def theta(*args):
        acc = args[0]
        for x in args[1:]:
            acc = mul(acc * m + x)
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
    join, meet = (_gather(lat.op(s).array()) for s in ("join", "meet"))
    if variant == "meet-last":
        fn = lambda a, b, c: meet(join(a * m + b) * m + c)
    elif variant == "meet-middle":
        fn = lambda a, b, c: meet(join(a * m + c) * m + b)
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
    if k > 3:
        raise BudgetError(f"k = {k} out of the supported range 1..3")
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


def _map_composition(m, n):
    """theta(f1,...,fn,g) = g o (f1,...,fn) on the maps A^n -> A for
    |A| = m, each encoded by its value table over A^n in lexicographic
    point order as base-m digits, most significant first.  Digit
    arithmetic only, so it is elementwise over int64 arrays."""
    points = m ** n
    weight = _gather(tuple(m ** (points - 1 - p) for p in range(points)))

    def value(code, p):
        return code // weight(p) % m

    def theta(*codes):
        out = 0
        for i in range(points):
            # lexicographic index of the point (f1(i), ..., fn(i))
            p = 0
            for f in codes[:-1]:
                p = p * m + value(f, i)
            out = out * m + value(codes[-1], p)
        return out

    return theta


def _map_carrier(m, n, free, what):
    """The number m^k of maps A^n -> A, |A| = m, with k = m^n - free
    points left free; a BudgetError worded by m and n when it exceeds
    MAP_CARRIER_CAP.  No huge power is built: for m >= 2, n > bits gives
    k >= m^n / 2 >= 2^bits (free <= m), and k >= bits gives m^k > cap,
    the test of core.table_error."""
    if m < 0 or n < 0:
        raise InputError(f"maps A^n -> A need m, n >= 0, got {m}, {n}")
    bits = MAP_CARRIER_CAP.bit_length()
    if m < 2 or (n <= bits and (k := m ** n - free) < bits
                 and m ** k <= MAP_CARRIER_CAP):
        return m ** (m ** n - free)
    k = f"{m}^{n}" + (f" - {free}" if free else "")
    raise BudgetError(f"{what} carrier {m}^({k}) exceeds cap "
                      f"{MAP_CARRIER_CAP}")


def build_map_composition_algebra(m: int, n: int) -> FiniteAlgebra:
    """Carrier: all maps A^n -> A for |A| = m, encoded by their value
    tables as base-m digits; theta(f1,...,fn,g) = g o (f1,...,fn)."""
    size = _map_carrier(m, n, 0, "map")
    return _theta_only(f"Maps-m{m}-n{n}", size, n, _map_composition(m, n))


def build_diagonal_retraction_algebra(m: int, n: int) -> FiniteAlgebra:
    """The maps g: A^n -> A with g(a,...,a) = a, under composition-with-
    tupling, with e_i = i-th projection and alphas attached by the
    surjective-section builder.  A 2-associative protomodular algebra."""
    _map_carrier(m, n, m, "retraction")
    points = m ** n
    tuples = list(itertools.product(range(m), repeat=n))
    index = {t: i for i, t in enumerate(tuples)}
    # the m diagonal points are fixed, so enumerating the other points in
    # lex order gives the retractions in lex order of their value tables
    diagonal = {index[(a,) * n]: a for a in range(m)}

    def retraction(free):
        it = iter(free)
        return tuple(diagonal[p] if p in diagonal else next(it)
                     for p in range(points))

    retractions = [
        retraction(free)
        for free in itertools.product(range(m), repeat=points - len(diagonal))
    ]
    size = len(retractions)
    # element i is the map with code codes[i]; the codes ascend, so
    # rank_of inverts code_of by binary search, with no table over all
    # m^(m^n) maps
    codes = [_encode(vals, m) for vals in retractions]
    compose = _map_composition(m, n)
    code_of = _gather(codes)
    sorted_codes = None

    def rank_of(code):
        nonlocal sorted_codes
        if isinstance(code, int):
            return bisect.bisect_left(codes, code)
        if sorted_codes is None:
            import numpy as np

            sorted_codes = np.asarray(codes, dtype=np.int64)
        return sorted_codes.searchsorted(code)

    def theta(*args):
        return rank_of(compose(*(code_of(a) for a in args)))

    base = _theta_only(f"Retr-m{m}-n{n}", size, n, theta)
    units = [
        rank_of(_encode((t[i] for t in tuples), m)) for i in range(n)
    ]
    return build_alphas_from_surjectivity(base, units)


def build_alphas_from_surjectivity(alg: FiniteAlgebra, units) -> FiniteAlgebra:
    """Given a theta-only algebra whose sections theta_b are all surjective
    and which satisfies theta(e1,...,en,b) = b, attach alpha tables so the
    protomodular axioms hold.

    alpha_i(a,b) is the i-th component of a chosen theta_b-preimage of a:
    the unit tuple itself when theta_b(e*) = a (forced by the diagonal
    axiom), otherwise the lexicographically smallest preimage.  The scan
    reads every theta entry, one section per int64 array, so a lazy theta
    is materialized first; one too large to materialize is refused with
    BudgetError.
    """
    import numpy as np

    tbl = alg.op("theta")
    n = tbl.arity - 1
    units = tuple(units)
    if len(units) != n:
        raise InputError(f"need {n} unit elements, got {len(units)}")
    m = alg.size
    for b in range(m):
        if tbl.lookup(units + (b,), m) != b:
            raise AlgebraError(
                f"theta(e*, b) = b fails at b = {b}"
            )
    dense = tbl.materialize(m) if isinstance(tbl, LazyTable) else tbl
    # first[b, a]: the lex index of the chosen tuple xs with theta(xs, b) = a
    size = m ** n
    rows = dense.array().reshape(size, m)
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
