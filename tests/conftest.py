import contextlib
import itertools
import random

import pytest
from hypothesis import strategies as st

from finalg import catalog, dsl
from finalg.core import (
    Apply,
    Constant,
    DenseTable,
    FiniteAlgebra,
    Identity,
    Signature,
    Variable,
    standard_signature,
)


@pytest.fixture
def bool2():
    """The 4-element Boolean protomodular algebra with two distinct units."""
    return catalog.build_boolean_protomodular(2)


@pytest.fixture
def z3_n2():
    """theta(a1,a2,b) = a1 + b on Z/3 with a shared unit."""
    return catalog.build_semigroup_algebra(catalog.cyclic_group(3), 2, 1)


@pytest.fixture
def z4_group():
    """theta(a,b) = a + b on Z/4 (n = 1)."""
    return catalog.build_semigroup_algebra(catalog.cyclic_group(4), 1, 1)


@pytest.fixture
def chain2_theta():
    """(a1 v b) ^ a2 on the 2-chain: 2-associative but not 1-associative."""
    return catalog.build_lattice_theta(catalog.chain_lattice(2), "meet-middle")


def random_algebra(rng, m, n, shared_unit=False):
    """A random algebra over the standard signature: arbitrary tables,
    no laws expected to hold."""
    sig = standard_signature(n, shared_unit=shared_unit)
    tables = {
        name: DenseTable(
            arity, tuple(rng.randrange(m) for _ in range(m ** arity))
        )
        for name, arity in sig.ops
    }
    consts = {c: rng.randrange(m) for c in sig.constants}
    return FiniteAlgebra(f"rand{m}x{n}", sig, m, tables, consts)


def brute_first_counterexample(alg, ident):
    """Independent oracle: evaluate both sides of an identity by direct
    recursive interpretation over all assignments in lexicographic order."""
    from finalg.core import eval_term

    names = list(ident.variables)
    for combo in itertools.product(range(alg.size), repeat=len(names)):
        env = dict(zip(names, combo))
        if eval_term(alg, ident.lhs, env) != eval_term(alg, ident.rhs, env):
            return env
    return None


@contextlib.contextmanager
def tables_token_by_token():
    """Parse with every table literal read token by token, as the one-step
    read (dsl._table_array) is swapped for one that takes no body."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsl, "_table_array", lambda body: None)
        yield


RANDOM_OPS = (("f", 1), ("g", 2), ("h", 3))


@st.composite
def random_identities(draw):
    """An identity over f/1, g/2, h/3 and the constants e and z: each side
    a random term of depth at most 3 over 0 to 4 declared variables, in a
    random declaration order, which it may read any number of times or
    not at all; a side may read constants only."""
    names = draw(st.permutations([f"x{i}" for i in range(draw(
        st.sampled_from([0, 1, 2, 3, 4, 4, 4])))]))

    def term(leaves, depth):
        if depth == 0 or draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from(leaves))
        op, arity = draw(st.sampled_from(RANDOM_OPS))
        return Apply(op, *[term(leaves, depth - 1) for _ in range(arity)])

    constants = [Constant("e"), Constant("z")]
    sides = []
    for _ in range(2):
        ground = not names or draw(st.integers(0, 4)) == 0
        leaves = constants + ([] if ground else [Variable(v)
                                                 for v in names] * 2)
        sides.append(term(leaves, draw(st.sampled_from([0, 1, 2, 3, 3]))))
    return Identity("random", tuple(names), *sides)
