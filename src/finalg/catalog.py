"""Concrete algebra constructions: projections, semigroup translations,
matrix row selection, bounded commutative monoids, distributive-lattice
ternary operations, the Boolean protomodular structure, map-composition
algebras, the alpha-builder for surjective sections, and strict semiloops.

All constructions produce validated FiniteAlgebra values ready for the
identity engine.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from .core import (
    AlgebraError,
    BudgetError,
    DenseTable,
    FiniteAlgebra,
    InputError,
    LazyTable,
    Signature,
    standard_algebra,
    table_from_fn,
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
# input structures, table-checked at construction

@dataclass(frozen=True)
class MonoidSpec:
    """A monoid given by its Cayley table; associativity and the unit laws
    are verified eagerly."""

    size: int
    table: DenseTable
    unit: int

    def __post_init__(self):
        require_laws(self._algebra(), MONOID_LAWS)

    def _algebra(self) -> FiniteAlgebra:
        """The prod/e algebra the laws are checked on."""
        return monoid_algebra("MonoidSpec", self.size, self.table, self.unit)

    def mul(self, a, b):
        return self.table.lookup((a, b), self.size)

    def is_commutative(self) -> bool:
        return check_identity(self._algebra(), COMMUTATIVITY).ok


@dataclass(frozen=True)
class GroupSpec(MonoidSpec):
    """A group: a monoid plus an inverse table, verified eagerly."""

    inverse: tuple = ()

    def __post_init__(self):
        require_laws(monoid_algebra("GroupSpec", self.size, self.table,
                                    self.unit, self.inverse), GROUP_LAWS)

    def inv(self, a):
        return self.inverse[a]

    def div(self, a, b):
        return self.mul(a, self.inverse[b])


def _at_least_1(what, k):
    if k < 1:
        raise InputError(f"{what} must be >= 1, got {k}")


def cyclic_group(k: int) -> GroupSpec:
    """The additive group of integers mod k."""
    _at_least_1("group order", k)
    tbl = table_from_fn(2, k, lambda a, b: (a + b) % k)
    return GroupSpec(k, tbl, 0, tuple((-a) % k for a in range(k)))


def cyclic_monoid(k: int) -> MonoidSpec:
    _at_least_1("monoid order", k)
    return MonoidSpec(k, table_from_fn(2, k, lambda a, b: (a + b) % k), 0)


@dataclass(frozen=True)
class LatticeSpec:
    """A lattice given by join/meet tables; the lattice laws are verified,
    distributivity on demand."""

    size: int
    join: DenseTable
    meet: DenseTable
    bottom: int | None = None
    top: int | None = None

    def __post_init__(self):
        alg = self._algebra()
        neutral = tuple(NEUTRAL_LAWS[c] for c in alg.constants)
        require_laws(alg, LATTICE_LAWS + neutral)

    def _algebra(self) -> FiniteAlgebra:
        """The join/meet algebra the laws are checked on, with the
        constants bottom and top when they are given."""
        consts = {"bottom": self.bottom, "top": self.top}
        consts = {c: v for c, v in consts.items() if v is not None}
        sig = Signature((("join", 2), ("meet", 2)), tuple(consts))
        tables = {"join": self.join, "meet": self.meet}
        return FiniteAlgebra("LatticeSpec", sig, self.size, tables, consts)

    def is_distributive(self) -> bool:
        return check_identity(self._algebra(), DISTRIBUTIVITY).ok


def chain_lattice(k: int) -> LatticeSpec:
    """The k-element chain 0 < 1 < ... < k-1."""
    _at_least_1("chain length", k)
    return LatticeSpec(
        k,
        table_from_fn(2, k, max),
        table_from_fn(2, k, min),
        bottom=0,
        top=k - 1,
    )


def product_lattice(p: LatticeSpec, q: LatticeSpec) -> LatticeSpec:
    """Componentwise product, elements encoded as a*|q| + b."""
    m = p.size * q.size

    def lift(f, g):
        def h(x, y):
            a1, b1 = divmod(x, q.size)
            a2, b2 = divmod(y, q.size)
            return (f.lookup((a1, a2), p.size) * q.size
                    + g.lookup((b1, b2), q.size))

        return h

    bottom = top = None
    if p.bottom is not None and q.bottom is not None:
        bottom = p.bottom * q.size + q.bottom
    if p.top is not None and q.top is not None:
        top = p.top * q.size + q.top
    return LatticeSpec(
        m,
        table_from_fn(2, m, lift(p.join, q.join)),
        table_from_fn(2, m, lift(p.meet, q.meet)),
        bottom=bottom,
        top=top,
    )


# ---------------------------------------------------------------------------
# constructions

def _gather(values):
    """values[idx] elementwise, as the LazyTable contract asks: an int for
    an int index, an int64 array for an int64 index array."""
    arr = None

    def get(idx):
        nonlocal arr
        if isinstance(idx, int):
            return values[idx]
        if arr is None:
            import numpy as np

            arr = np.asarray(values, dtype=np.int64)
        return arr[idx]

    return get


def _theta_only(name, m, n, fn):
    """A theta-only algebra; fn must meet the LazyTable contract, since
    theta stays lazy when its m^(n+1) entries exceed DENSE_TABLE_CAP.
    n < 1 is an InputError: theta needs at least two arguments."""
    _at_least_1("n", n)
    sig = Signature((("theta", n + 1),))
    if m ** (n + 1) <= DENSE_TABLE_CAP:
        tbl = table_from_fn(n + 1, m, fn)
    else:
        tbl = LazyTable(n + 1, fn, note=name)
    return FiniteAlgebra(name, sig, m, {"theta": tbl})


def build_projection_algebra(m: int, n: int, i: int) -> FiniteAlgebra:
    """theta(a1,...,an,a_{n+1}) = a_i; 2-associative for every i."""
    if not 1 <= i <= n + 1:
        raise InputError(f"projection index {i} out of range 1..{n + 1}")
    _at_least_1("carrier size", m)
    return _theta_only(f"Proj{m}n{n}i{i}", m, n, lambda *a: a[i - 1])


def build_semigroup_algebra(sg: MonoidSpec, n: int, i: int) -> FiniteAlgebra:
    """theta(a1,...,an,b) = a_i * b on a semigroup/monoid.

    When sg is a group, the unit e and alpha_j(a,b) = a * b^-1 are
    attached, giving a 2-associative semi-abelian algebra.
    """
    if not 1 <= i <= n:
        raise InputError(f"translation index {i} out of range 1..{n}")
    m = sg.size
    mul = _gather(sg.table.entries)

    def theta(*args):
        return mul(args[i - 1] * m + args[-1])

    if not isinstance(sg, GroupSpec):
        return _theta_only(f"Sgrp{m}n{n}i{i}", m, n, theta)
    return standard_algebra(
        f"Grp{m}n{n}i{i}", m, table_from_fn(n + 1, m, theta),
        [table_from_fn(2, m, sg.div)] * n, [sg.unit] * n,
    )


def build_group_product_algebra(groups, indices, n: int) -> FiniteAlgebra:
    """Componentwise translation algebra: component j of the carrier comes
    from groups[j] and uses the indices[j]-th tuple entry, so
    theta(a1,...,an,b)_j = (a_{indices[j]})_j * b_j."""
    if len(groups) != len(indices):
        raise InputError("need one index per group factor")
    for idx in indices:
        if not 1 <= idx <= n:
            raise InputError(f"index {idx} out of range 1..{n}")
    sizes = [g.size for g in groups]
    m = 1
    for s in sizes:
        m *= s

    def dec(x):
        out = []
        for s in reversed(sizes):
            x, r = divmod(x, s)
            out.append(r)
        return list(reversed(out))

    def enc(parts):
        x = 0
        for s, p in zip(sizes, parts):
            x = x * s + p
        return x

    def theta(*args):
        tuples = [dec(a) for a in args]
        return enc([
            g.mul(tuples[idx - 1][j], tuples[-1][j])
            for j, (g, idx) in enumerate(zip(groups, indices))
        ])

    def alpha(a, b):
        ta, tb = dec(a), dec(b)
        return enc([g.div(x, y) for g, x, y in zip(groups, ta, tb)])

    label = "x".join(str(s) for s in sizes)
    return standard_algebra(
        f"GrpProd{label}n{n}", m, table_from_fn(n + 1, m, theta),
        [table_from_fn(2, m, alpha)] * n, [enc([g.unit for g in groups])] * n,
    )


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


def build_bounded_monoid_algebra(mo: MonoidSpec, n: int) -> FiniteAlgebra:
    """theta(a1,...,an,b) = a1 + ... + an + b on a commutative monoid in
    which every element's order divides n-1."""
    if not mo.is_commutative():
        raise AlgebraError("monoid must be commutative")
    m = mo.size
    if n >= 2:
        for a in range(m):
            acc = mo.unit
            for _ in range(n - 1):
                acc = mo.mul(acc, a)
            if acc != mo.unit:
                raise AlgebraError(
                    f"element {a}: order does not divide n-1 = {n - 1}"
                )

    mul = _gather(mo.table.entries)

    def theta(*args):
        acc = args[0]
        for x in args[1:]:
            acc = mul(acc * m + x)
        return acc

    return _theta_only(f"BddMonoid{m}n{n}", m, n, theta)


def build_lattice_theta(lat: LatticeSpec, variant: str) -> FiniteAlgebra:
    """Ternary operation on a distributive lattice:

    variant "meet-last":   theta(a,b,c) = (a v b) ^ c
    variant "meet-middle": theta(a,b,c) = (a v c) ^ b

    Both are 2-associative on every distributive lattice; neither is
    1-associative unless the lattice is trivial.
    """
    if not lat.is_distributive():
        raise AlgebraError("lattice is not distributive")
    m = lat.size
    join, meet = _gather(lat.join.entries), _gather(lat.meet.entries)
    if variant == "meet-last":
        fn = lambda a, b, c: meet(join(a * m + b) * m + c)
    elif variant == "meet-middle":
        fn = lambda a, b, c: meet(join(a * m + c) * m + b)
    else:
        raise InputError(f"unknown variant {variant!r}")
    return _theta_only(f"Lat{lat.size}-{variant}", lat.size, 2, fn)


def build_lattice_v2_algebra(lat: LatticeSpec) -> FiniteAlgebra:
    """The meet-middle lattice operation with units e1 = bottom,
    e2 = top and alphas attached through the surjective-section builder,
    giving a 2-associative protomodular algebra."""
    if lat.bottom is None or lat.top is None:
        raise AlgebraError("lattice needs bottom and top")
    base = build_lattice_theta(lat, "meet-middle")
    return build_alphas_from_surjectivity(base, (lat.bottom, lat.top))


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
        f"Bool{m}", m, table_from_fn(3, m, lambda x, y, z: (x | z) & y),
        [table_from_fn(2, m, lambda x, y: x & (full ^ y)),
         table_from_fn(2, m, lambda x, y: x | (full ^ y))],
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
    axiom), otherwise the lexicographically smallest preimage.
    """
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
    # preimage[b][a]: chosen tuple with theta(tuple, b) = a
    preimage = [[None] * m for _ in range(m)]
    for b in range(m):
        for xs in itertools.product(range(m), repeat=n):
            a = tbl.lookup(xs + (b,), m)
            if preimage[b][a] is None:
                preimage[b][a] = xs
        missing = [a for a in range(m) if preimage[b][a] is None]
        if missing:
            raise AlgebraError(
                f"section at b = {b} is not surjective (misses {missing[0]})"
            )
        preimage[b][tbl.lookup(units + (b,), m)] = units
    alphas = [
        table_from_fn(2, m, lambda a, b, i=i: preimage[b][a][i])
        for i in range(n)
    ]
    return standard_algebra(alg.name + "-alphas", m, tbl, alphas, units)


def build_strict_semiloop(m: int, twisted: bool = False) -> FiniteAlgebra:
    """A strict n=1 algebra: each section theta_b is a permutation with
    theta(e, b) = b, and alpha1(a, b) inverts it.

    Untwisted, theta(a,b) = a+b mod m (a cyclic group).  Twisted (m >= 3),
    the section at b = m-1 composes with the transposition (1 2), which
    yields a left semiloop that is not associative.
    """
    _at_least_1("carrier size", m)
    if twisted and m < 3:
        raise InputError("twisted semiloop needs m >= 3")

    def sigma(b, a):
        if twisted and b == m - 1 and a in (1, 2):
            return 3 - a
        return a

    def theta(a, b):
        return (sigma(b, a) + b) % m

    def alpha(a, b):
        return sigma(b, (a - b) % m)

    label = "Semiloop" if twisted else "Cyclic"
    return standard_algebra(
        f"{label}{m}", m, table_from_fn(2, m, theta),
        [table_from_fn(2, m, alpha)], [0],
    )
