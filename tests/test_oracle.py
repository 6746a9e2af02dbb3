import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge.common import BudgetError, OracleDepthError
from rankforge.hjorth import leq_table
from rankforge.oracle import (LeqOracle, ScottOracle, _same_atoms,
                              invariant_sets, orbit_partition)
from rankforge.structures import FinStructure, Signature, permute_structure

from conftest import chain


def test_naive_leq_level1_is_cc(sys1):
    for x0 in range(3):
        for v0 in range(3):
            for x1 in range(3):
                for v1 in range(3):
                    assert LeqOracle(sys1).query(x0, v0, x1, v1, 1) == \
                        sys1.cc(x0, v0, x1, v1)


def test_naive_leq_reflexive_and_agrees_with_engine(sys1):
    table = leq_table(sys1)
    oracle = LeqOracle(sys1)
    for alpha in range(1, 5):
        for x in range(3):
            for v in range(3):
                assert oracle.query(x, v, x, v, alpha)
    for x0 in range(3):
        for v0 in range(3):
            for x1 in range(3):
                for v1 in range(3):
                    for alpha in range(1, 5):
                        assert oracle.query(x0, v0, x1, v1, alpha) == \
                            table.leq(x0, v0, x1, v1, alpha)


def test_naive_leq_depth_cap(sys1):
    with pytest.raises(OracleDepthError):
        LeqOracle(sys1, 10).query(0, 0, 0, 0, 99)
    with pytest.raises(ValueError):
        LeqOracle(sys1).query(0, 0, 0, 0, 0)


def test_leq_oracle_queries_leave_no_cycles(sys1):
    # the memo is freed with its oracle, not when the cyclic collector runs
    LeqOracle(sys1).query(0, 0, 1, 1, 3)
    gc.collect()
    gc.disable()
    try:
        oracle = LeqOracle(sys1)
        for alpha in (1, 2, 3):
            for x0 in range(3):
                for v0 in range(3):
                    for x1 in range(3):
                        for v1 in range(3):
                            oracle.query(x0, v0, x1, v1, alpha)
        del oracle
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_naive_scott_examples():
    l2, l3 = chain(2), chain(3)
    assert ScottOracle(l2, l3).equiv((), (), 1)
    assert not ScottOracle(l2, l3).equiv((), (), 2)
    assert ScottOracle(l3, l3).equiv((0, 2), (0, 2), 4)
    perm = (2, 0, 1)
    image = permute_structure(l3, perm)
    assert ScottOracle(l3, image).equiv((0, 1), (perm[0], perm[1]), 3)
    with pytest.raises(ValueError):
        ScottOracle(l2, l2).equiv((0,), (), 1)


def unpruned_equiv(m, n, abar, bbar, alpha, memo):
    """The literal game recursion, atoms compared at level 0 only."""
    key = (m, n, abar, bbar, alpha)
    if key not in memo:
        if alpha == 0:
            memo[key] = _same_atoms(m, abar, n, bbar)
        else:
            step = alpha - 1
            memo[key] = (
                all(any(unpruned_equiv(m, n, abar + (c,), bbar + (d,), step, memo)
                        for d in range(n.size)) for c in range(m.size))
                and all(any(unpruned_equiv(n, m, bbar + (d,), abar + (c,), step, memo)
                            for c in range(m.size)) for d in range(n.size)))
    return memo[key]


GAME_SIGS = [Signature((("red", 1), ("edge", 2))), Signature(()),
             Signature((("tri", 3),))]


@st.composite
def game_query(draw):
    sig = draw(st.sampled_from(GAME_SIGS))
    pair = []
    for _ in range(2):
        size = draw(st.integers(1, 3))
        atoms = [(name, args) for name, arity in sig.relations
                 for args in itertools.product(range(size), repeat=arity)]
        facts = draw(st.sets(st.sampled_from(atoms), max_size=8)) if atoms else set()
        pair.append(FinStructure(sig, size, frozenset(facts)))
    m, n = pair
    length = draw(st.integers(0, 2))
    abar = tuple(draw(st.lists(st.integers(0, m.size - 1),
                               min_size=length, max_size=length)))
    bbar = tuple(draw(st.lists(st.integers(0, n.size - 1),
                               min_size=length, max_size=length)))
    return m, n, abar, bbar, draw(st.integers(0, 4 - length))


@given(game_query())
@settings(max_examples=60, deadline=None)
def test_pruned_scott_oracle_matches_unpruned_recursion(query):
    m, n, abar, bbar, alpha = query
    oracle, memo = ScottOracle(m, n), {}
    for level in range(alpha + 1):
        assert oracle.equiv(abar, bbar, level) == \
            unpruned_equiv(m, n, abar, bbar, level, memo), level
        assert oracle.equiv(bbar, abar, level, flip=True) == \
            unpruned_equiv(n, m, bbar, abar, level, memo), level


def test_orbit_partition(sys1):
    parts = orbit_partition(sys1)
    assert parts.blocks == [frozenset({0, 1}), frozenset({2})]
    assert parts.same_orbit(0, 1) and not parts.same_orbit(0, 2)


def test_orbit_partition_trivial_group():
    from rankforge.actions import ALL_SUBSETS, FiniteDiscreteAction
    trivial = FiniteDiscreteAction(3, [("e", (0, 1, 2))], ALL_SUBSETS)
    assert orbit_partition(trivial).blocks == [frozenset({0}), frozenset({1}),
                                               frozenset({2})]


def test_oracle_module_never_imports_engines():
    import ast
    import inspect

    import rankforge.oracle as module
    tree = ast.parse(inspect.getsource(module))
    banned = {"scott", "hjorth", "actions", "verify", "cli"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] not in banned
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[-1] not in banned


def test_invariant_sets_counts(sys1):
    sets = invariant_sets(sys1)
    assert len(sets) == 2 ** 2
    assert frozenset() in sets and frozenset({0, 1, 2}) in sets
    from rankforge.actions import ALL_SUBSETS, FiniteDiscreteAction
    trivial = FiniteDiscreteAction(5, [("e", (0, 1, 2, 3, 4))], ALL_SUBSETS)
    with pytest.raises(BudgetError):
        invariant_sets(trivial, max_orbits=4)
