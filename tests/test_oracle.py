import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge import hjorth as hj
from rankforge.actions import SINGLETONS_PLUS_G, FiniteDiscreteAction
from rankforge.common import BudgetError, OracleDepthError
from rankforge.hjorth import leq_table
from rankforge.oracle import (LeqOracle, ScottOracle, _same_atoms,
                              invariant_sets, orbit_partition)
from rankforge.structures import FinStructure, Signature, permute_structure
from rankforge.verify import ensemble

from conftest import (CorruptedSystem, chain, make_non_basis_family, make_stab2_system,
                      make_sys1, seeded_level_draws)


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
    # an index past its range would otherwise read another quadruple's cell
    for quad in ((0, 0, 2, 3), (3, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0)):
        with pytest.raises(IndexError):
            LeqOracle(sys1).query(*quad, 1)


class DictMemoLeq:
    """The literal recursion with one dict memo keyed on (x0, V0, x1, V1,
    level), evaluated one quadruple at a time: the reference for the oracle's
    whole levels and lane quantifiers."""

    def __init__(self, sys):
        self.sys = sys
        nb = len(sys.basis)
        self._subs = [tuple(w for w in range(nb) if sys.contains(w, v))
                      for v in range(nb)]
        self._memo: dict = {}

    def _rec(self, a, va, b, vb, level):
        key = (a, va, b, vb, level)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if level == 1:
            out = self.sys.cc(a, va, b, vb)
        else:
            out = True
            for w0 in self._subs[va]:
                found = False
                for w1 in self._subs[vb]:
                    if self._rec(b, w1, a, w0, level - 1):
                        found = True
                        break
                if not found:
                    out = False
                    break
        self._memo[key] = out
        return out


class RecordingSystem(hj.ActionSystem):
    """A system that logs every cc call it answers."""

    def __init__(self, base):
        self.base = base
        self.points, self.basis = base.points, base.basis
        self.calls = []

    def contains(self, w, v):
        return self.base.contains(w, v)

    def cc(self, *quad):
        self.calls.append(quad)
        return self.base.cc(*quad)


class StrictlyContainedSystem(RecordingSystem):
    """A stand-in whose ``contains`` is not reflexive: W <= V only for
    W != V, so a minimal basis set has no W <= V at all, and every level
    above 1 holds vacuously on its rows."""

    def contains(self, w, v):
        return w != v and super().contains(w, v)


def seeded_systems():
    return [pytest.param(FiniteDiscreteAction(size, list(elements), list(sets)),
                         id=f"{kind}-draw{index}")
            for index, kind, size, elements, sets in seeded_level_draws()]


def reference_systems():
    out = [pytest.param(make_sys1(), id="sys1"),
           pytest.param(make_non_basis_family(), id="non-basis"),
           pytest.param(CorruptedSystem(make_sys1(), (0, 0, 2, 0)), id="corrupted"),
           pytest.param(make_stab2_system(), id="stab2"),
           pytest.param(StrictlyContainedSystem(make_sys1()), id="strict-contains")]
    for i, sys in enumerate(ensemble(11, 10, max_g=6, max_x=5)):
        out.append(pytest.param(sys.with_basis(SINGLETONS_PLUS_G), id=f"ensemble{i}"))
    return out + seeded_systems()


def test_seeded_draws_are_pinned():
    # which draws are kept, and of what kind: a change to the generator or to
    # the engine's verdicts shows here first
    draws = [(index, kind, size, len(sets))
             for index, kind, size, _, sets in seeded_level_draws()]
    assert draws == [(3, "grows", 6, 7), (48, "grows", 3, 13), (53, "grows", 3, 13),
                     (55, "grows", 4, 7), (369, "stab2", 3, 16), (390, "stab2", 3, 10),
                     (474, "stab2", 3, 16), (519, "stab2", 3, 16)]


@pytest.mark.parametrize("sys", seeded_systems())
def test_level4_is_level2_on_seeded_systems(sys):
    # cc here is V0.x0 <= V1.x1, antitone in V0 and monotone in V1, so the
    # two-level theorem (hjorth module docstring) gives T_4 = T_2 whether the
    # levels shrink or grow; level 2 differs from level 1 on every draw kept
    oracle = LeqOracle(sys)
    assert oracle.level(2) != oracle.level(1)
    assert oracle.level(4) == oracle.level(2)


@pytest.mark.parametrize("sys", reference_systems())
def test_cell_memo_matches_dict_memo_recursion(sys):
    quads = itertools.product(range(len(sys.points)), range(len(sys.basis)),
                              range(len(sys.points)), range(len(sys.basis)))
    # each query twice, so that every level is also read from its memo
    queries = [(*quad, level) for quad in quads for level in range(1, 5)] * 2
    random.Random(7).shuffle(queries)
    # start at level 3, so that levels 1 and 2 are first built on the way to
    # level 3; later queries then read cells built that way
    first = next(i for i, query in enumerate(queries) if query[4] == 3)
    queries.insert(0, queries.pop(first))
    got_sys, want_sys = RecordingSystem(sys), RecordingSystem(sys)
    oracle, reference = LeqOracle(got_sys), DictMemoLeq(want_sys)
    for query in queries:
        assert oracle.query(*query) == reference._rec(*query), query
    # each quadruple reached cc at most once, and the same quadruples did
    assert len(got_sys.calls) == len(set(got_sys.calls))
    assert set(got_sys.calls) == set(want_sys.calls)


def assert_rows_match(oracle, reference, sys, levels):
    # each (x0, V0) row of a level is the slice of its P*B cells
    npoints, nb = len(sys.points), len(sys.basis)
    half = npoints * nb
    for level in levels:
        for x0 in range(npoints):
            for v0 in range(nb):
                want = bytes(int(reference._rec(x0, v0, x1, v1, level))
                             for x1 in range(npoints) for v1 in range(nb))
                lo = (x0 * nb + v0) * half
                assert oracle.level(level)[lo:lo + half] == want, (x0, v0, level)


@pytest.mark.parametrize("sys", reference_systems())
def test_row_matches_dict_memo_recursion_in_fresh_oracle(sys):
    reference = DictMemoLeq(sys)
    for level in range(1, 5):
        # one fresh oracle per level: a level above 1 builds every level
        # below it first
        assert_rows_match(LeqOracle(sys), reference, sys, [level])


@pytest.mark.parametrize("sys", reference_systems())
def test_row_matches_dict_memo_recursion_after_queries(sys):
    quads = list(itertools.product(range(len(sys.points)), range(len(sys.basis)),
                                   range(len(sys.points)), range(len(sys.basis))))
    queries = [(*quad, level) for quad in quads for level in range(1, 5)]
    rng = random.Random(11)
    rng.shuffle(queries)
    oracle, reference = LeqOracle(sys), DictMemoLeq(sys)
    # half of the queries run before any level is read whole, building the
    # levels they reach
    for query in queries[:len(queries) // 2]:
        assert oracle.query(*query) == reference._rec(*query), query
    assert_rows_match(oracle, reference, sys, [4, 2, 3, 1])


@pytest.mark.parametrize("make_sys", [make_sys1, make_stab2_system,
                                      make_non_basis_family])
def test_row_is_the_stabilized_table_row_bytes(make_sys):
    # each level holds the table's own bytes, 1 for true and 0 for false
    sys = make_sys()
    table = leq_table(sys)
    oracle = LeqOracle(sys)
    for level in range(1, table.stab + 2):
        assert oracle.level(level) == table.level(level).tobytes(), level


def test_level_is_a_read_only_view(sys1):
    oracle = LeqOracle(sys1)
    view = oracle.level(2)
    # a view of the memo itself, not a copy, that no caller can write
    assert view.readonly and view.obj is oracle.level(2).obj
    with pytest.raises(TypeError):
        view[0] = 1 - view[0]
    with pytest.raises(TypeError):
        view[:2] = b"\x00\x00"
    assert oracle.level(2) == view


class NumpyBoolSystem(RecordingSystem):
    """A system whose cc answers numpy bools, which bytes() refuses."""

    def cc(self, *quad):
        return np.bool_(super().cc(*quad))


def test_numpy_bool_cc_is_stored_by_truth_value():
    sys = make_stab2_system()
    assert_rows_match(LeqOracle(NumpyBoolSystem(sys)), DictMemoLeq(sys), sys, [1, 2, 3])


class FailingOnceSystem(RecordingSystem):
    """A system whose cc raises the first time it reaches one quadruple."""

    def __init__(self, base, quad):
        super().__init__(base)
        self.quad = quad

    def cc(self, *quad):
        if quad == self.quad:
            self.quad = None
            raise BudgetError("cc interrupted")
        return super().cc(*quad)


@pytest.mark.parametrize("make_sys, quad", [(make_sys1, (1, 2, 2, 0)),
                                            (make_stab2_system, (3, 5, 4, 11))])
def test_interrupted_block_is_filled_again(make_sys, quad):
    # the level-3 query builds level 1 first, and cc fails inside it; a level
    # whose build was cut off may not count as built
    sys = make_sys()
    oracle = LeqOracle(FailingOnceSystem(sys, quad))
    with pytest.raises(BudgetError):
        oracle.query(0, 0, 0, 0, 3)
    assert_rows_match(oracle, DictMemoLeq(sys), sys, [3, 2, 1])


def test_row_rejects_what_query_rejects(sys1):
    with pytest.raises(OracleDepthError):
        LeqOracle(sys1, 10).level(99)
    with pytest.raises(OracleDepthError):
        LeqOracle(sys1, 3).level(4)
    with pytest.raises(ValueError):
        LeqOracle(sys1).level(0)
    # the cap itself is a level: 3 points x 3 basis sets, 81 cells
    assert len(LeqOracle(sys1, 3).level(3)) == 81
    # an (x0, V0) index out of range is refused by query
    for x0, v0 in ((3, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            LeqOracle(sys1).query(x0, v0, 0, 0, 1)


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
    banned = {"scott", "hjorth", "actions", "verify", "cli", "numpy"}
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
        invariant_sets(trivial)
