import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge.actions import _all_structures
from rankforge.common import STAB, BudgetError
from rankforge.oracle import ScottOracle
from rankforge.scott import (MAX_SIZE, ScottTable, _carrier, _number, _positions,
                             _qf_rows, _refinement, injective_tuples, scott_rank)
from rankforge.structures import (FinStructure, Signature, brute_isomorphic,
                                  eval_atomic, permute_structure)
from rankforge.verify import canonical_edge_representatives

from conftest import EDGE_SIG, chain


def root_level(m_struct, n_struct):
    """Least level separating the empty tuples of two structures, or None."""
    pair = ScottTable((m_struct, n_struct))
    return next((a for a in range(pair.stab + 1)
                 if not pair.equivalent(0, (), 1, (), a)), None)


def test_scott_equiv_chain_examples():
    l2, l3 = chain(2), chain(3)
    # frozen from the naive game-recursion oracle
    pair = ScottTable((l2, l3))
    assert pair.equivalent(0, (), 1, (), 1) is True
    assert pair.equivalent(0, (), 1, (), 2) is False
    assert ScottOracle(l2, l3).equiv((), (), 1) is True
    assert ScottOracle(l2, l3).equiv((), (), 2) is False


def test_scott_equiv_reflexive_all_levels():
    l3 = chain(3)
    pair = ScottTable((l3, l3))
    for alpha in (0, 1, 2, 5, STAB):
        assert pair.equivalent(0, (0, 2), 1, (0, 2), alpha)
    with pytest.raises(ValueError):
        pair.equivalent(0, (0,), 1, (), 1)


def test_scott_table_blocks():
    l2 = chain(2)
    tab = ScottTable([l2])
    assert not tab.equivalent(0, (0, 1), 0, (1, 0), 0)
    assert tab.stab == 1
    pair = ScottTable([l2, chain(3)])
    assert pair.equivalent(0, (), 1, (), 1)
    assert not pair.equivalent(0, (), 1, (), 2)
    single = ScottTable([FinStructure(Signature(()), 1)])
    assert single.stab == 0


def test_scott_table_levels_are_equivalences():
    structs = _all_structures(EDGE_SIG, 2)
    tab = ScottTable(structs)
    items = [(i, t) for i in range(len(structs))
             for ln in range(3) for t in itertools.permutations(range(2), ln)]
    for alpha in range(tab.stab + 1):
        classes = {}
        for i, t in items:
            classes.setdefault(tab.class_of(i, t, alpha), []).append((i, t))
        # partition representation is reflexive/symmetric/transitive by
        # construction; verify it matches pairwise queries
        for (i, t), (j, u) in itertools.combinations(items, 2):
            if len(t) != len(u):
                continue
            same = tab.class_of(i, t, alpha) == tab.class_of(j, u, alpha)
            assert tab.equivalent(i, t, j, u, alpha) == same


def test_scott_monotone_in_level():
    rng = random.Random(2)
    structs = _all_structures(EDGE_SIG, 2)
    tab = ScottTable(structs)
    for _ in range(300):
        i, j = rng.randrange(len(structs)), rng.randrange(len(structs))
        ln = rng.randint(0, 2)
        t = tuple(rng.sample(range(2), ln))
        u = tuple(rng.sample(range(2), ln))
        for alpha in range(tab.stab + 1):
            if tab.equivalent(i, t, j, u, alpha + 1):
                assert tab.equivalent(i, t, j, u, alpha)


def test_scott_rank_examples():
    for m, want in ((FinStructure(Signature(()), 1), 0), (chain(2), 1)):
        rank = scott_rank(m)
        assert type(rank) is int and rank == want == ScottTable([m]).stab
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        facts = frozenset(("edge", (i, j)) for i in range(n) for j in range(n)
                          if rng.random() < 0.4)
        m = FinStructure(EDGE_SIG, n, facts)
        perm = tuple(rng.sample(range(n), n))
        assert scott_rank(m) == scott_rank(permute_structure(m, perm))


def test_stab_bounded_by_item_count():
    for structs in ([chain(4)], _all_structures(EDGE_SIG, 2)):
        tab = ScottTable(structs)
        items = sum(len(list(itertools.permutations(range(m.size), ln)))
                    for m in structs for ln in range(m.size + 1))
        assert tab.stab <= items


def scott_isomorphic(m_struct, n_struct):
    return ScottTable((m_struct, n_struct)).equivalent(0, (), 1, (), STAB)


def test_scott_iso_check_examples():
    l2, l3 = chain(2), chain(3)
    assert scott_isomorphic(l3, chain(3))
    assert not scott_isomorphic(l2, l3)
    path = FinStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1)), ("edge", (1, 2))}))
    star = FinStructure(EDGE_SIG, 3, frozenset({("edge", (1, 0)), ("edge", (1, 2))}))
    assert not scott_isomorphic(path, star)
    assert not brute_isomorphic(path, star, (), ())


def test_scott_iso_matches_brute_force_size3():
    structs = _all_structures(EDGE_SIG, 2) + [chain(3), chain(2)]
    for m, n in itertools.product(structs, repeat=2):
        if m.signature != n.signature:
            continue
        assert scott_isomorphic(m, n) == brute_isomorphic(m, n, (), ())


def test_repeated_tuples_reduce_correctly():
    # longer tuples with repeats must agree with the literal game recursion,
    # including length universe+1
    structs = _all_structures(EDGE_SIG, 2)[:6] + [chain(2)]
    tuples = [t for ln in range(4) for t in itertools.product(range(2), repeat=ln)]
    oracles = {}
    for i, j in itertools.combinations_with_replacement(range(len(structs)), 2):
        if structs[i].signature != structs[j].signature:
            continue
        tab = ScottTable([structs[i], structs[j]])
        key = (i, j)
        oracles[key] = ScottOracle(structs[i], structs[j])
        for t in tuples:
            for u in tuples:
                if len(t) != len(u):
                    continue
                for alpha in range(tab.stab + 2):
                    assert tab.equivalent(0, t, 1 if i != j else 0, u, alpha) == \
                        oracles[key].equiv(t, u, alpha)


def test_distinguishing_level_ladder():
    # frozen from the naive oracle (verified in the acceptance suite)
    levels = [root_level(chain(m), chain(m + 1)) for m in range(1, 7)]
    assert levels == [2, 2, 3, 3, 3, 3]
    assert root_level(chain(3), chain(3)) is None


# -- engine against the literal game recursion

DIFF_SIGS = {
    "unary+binary": Signature((("red", 1), ("edge", 2))),
    "empty": Signature(()),
    "ternary": Signature((("tri", 3),)),
}


@st.composite
def mixed_family(draw):
    # Every kind mixes sizes 1-4, ternary included.  Ternary families of two
    # sizes reach deeper levels than size-4 ones alone; the oracle affords
    # them because it compares atoms at every level of the game and stops at
    # the first mismatch instead of checking them only at the leaves.
    sig = DIFF_SIGS[draw(st.sampled_from(sorted(DIFF_SIGS)))]
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    family = []
    for n in sizes:
        facts = set()
        for name, arity in sig.relations:
            atoms = list(itertools.product(range(n), repeat=arity))
            chosen = draw(st.sets(st.sampled_from(atoms), max_size=12))
            facts.update((name, a) for a in chosen)
        family.append(FinStructure(sig, n, frozenset(facts)))
    return family


@given(mixed_family(), st.data())
@settings(max_examples=30, deadline=None)
def test_table_matches_oracle_on_mixed_families(family, data):
    tab = ScottTable(family)
    oracles = {}
    for i, j in itertools.combinations_with_replacement(range(len(family)), 2):
        m, n = family[i], family[j]
        if (m, n) in oracles:
            continue  # the game on a repeated pair of structures is already checked
        oracle = oracles[(m, n)] = ScottOracle(m, n)
        queries = [((), ())]
        for _ in range(3):
            length = data.draw(st.integers(0, min(m.size, n.size) + 1))
            t = data.draw(st.lists(st.integers(0, m.size - 1),
                                   min_size=length, max_size=length))
            u = data.draw(st.lists(st.integers(0, n.size - 1),
                                   min_size=length, max_size=length))
            queries.append((tuple(t), tuple(u)))
        for t, u in queries:
            for alpha in range(tab.stab + 2):
                assert tab.equivalent(i, t, j, u, alpha) == oracle.equiv(t, u, alpha), \
                    (i, t, j, u, alpha)
        # every pair of single elements at the shallow levels, where the
        # game is cheap and the level-0 layouts of two sizes meet
        for c, d in itertools.product(range(m.size), range(n.size)):
            for alpha in (0, 1):
                assert tab.equivalent(i, (c,), j, (d,), alpha) == \
                    oracle.equiv((c,), (d,), alpha), (i, c, j, d, alpha)


def test_round_signature_is_a_set():
    # Both empty tuples see the child colours {loop, no loop} at level 1;
    # only their multiplicities (3:1 against 1:3) differ.
    a = FinStructure(EDGE_SIG, 4, frozenset(("edge", (e, e)) for e in range(3)))
    b = FinStructure(EDGE_SIG, 4, frozenset({("edge", (0, 0))}))
    tab = ScottTable([a, b])
    assert tab.class_of(0, (), 1) == tab.class_of(1, (), 1)
    oracle = ScottOracle(a, b)
    assert oracle.equiv((), (), 1)
    for alpha in range(tab.stab + 2):
        assert tab.equivalent(0, (), 1, (), alpha) == oracle.equiv((), (), alpha)


# sha256 of repr(blocks(alpha)) per level, frozen from the dictionary-based
# refinement this engine replaced; oracle samples are drawn from blocks().
BLOCK_DIGESTS = [
    "d6e0c3eacdc39ff761897d2287da03d36bc50f173793a00d889b29237c9f4b42",
    "aeb0fb6114f3f818ae743c108d4d78dfd5e60d7568a44da97c525c1719882e4e",
    "982eabd3d11b5e15b33913096abd15c08786a76dea5875ccf01fb36eb818f6e4",
]


def test_block_order_is_pinned():
    rng = random.Random(20241)
    sig = Signature((("red", 1), ("edge", 2)))
    family = []
    for _ in range(40):
        n = rng.randint(1, 4)
        facts = frozenset(
            [("red", (e,)) for e in range(n) if rng.random() < 0.3]
            + [("edge", (a, b)) for a in range(n) for b in range(n)
               if rng.random() < 0.35])
        family.append(FinStructure(sig, n, facts))
    tab = ScottTable(family)
    digests = [hashlib.sha256(repr(tab.blocks(a)).encode()).hexdigest()
               for a in range(tab.stab + 1)]
    assert digests == BLOCK_DIGESTS
    assert tab.blocks(STAB) == tab.blocks(tab.stab + 1) == tab.blocks(tab.stab)


# -- level 0

def reference_level0(family):
    """Level-0 colours of a family's items, numbered by first occurrence:
    an item's key is its length and, per relation, the truth of every
    position vector over its own entries in lexicographic order."""
    keys, colours = {}, []
    for m in family:
        truth = {(name, args): eval_atomic(m, name, args)
                 for name, arity in m.signature.relations
                 for args in itertools.product(range(m.size), repeat=arity)}
        for t in injective_tuples(m.size):
            key = (len(t),) + tuple(
                truth[name, tuple(t[p] for p in pos)]
                for name, arity in m.signature.relations
                for pos in itertools.product(range(len(t)), repeat=arity))
            colours.append(keys.setdefault(key, len(keys)))
    return colours


def test_level0_of_every_edge_class_matches_the_atoms():
    for n in range(1, 5):
        for m in canonical_edge_representatives(n):
            assert ScottTable([m]).level(0).tolist() == reference_level0([m]), m


def test_level0_of_a_mixed_family_matches_the_atoms():
    # unary, binary and ternary relations on sizes 1-3 in one table: each
    # item's row is padded past its own size to the width of the family
    rng = random.Random(5)
    sig = Signature((("red", 1), ("edge", 2), ("tri", 3)))
    family = []
    for n in (3, 1, 2, 3, 2, 1, 3):
        facts = frozenset((name, args) for name, arity in sig.relations
                          for args in itertools.product(range(n), repeat=arity)
                          if rng.random() < 0.4)
        family.append(FinStructure(sig, n, facts))
    tab = ScottTable(family)
    assert tab.level(0).tolist() == reference_level0(family)
    assert {i for block in tab.blocks(0) for i, _ in block} == set(range(len(family)))


def reference_qf_rows(struct, width):
    """One structure's level-0 key rows, filled one relation at a time from
    its own truth array.  Kept as the reference for the family gather."""
    size, relations = struct.size, struct.signature.relations
    columns = 1 + sum(width ** arity for _, arity in relations)
    rows = np.zeros((len(_carrier(size).tuples), columns), dtype=np.int8)
    rows[:, 0] = _carrier(size).lengths
    col = 1
    for name, arity in relations:
        truth = np.zeros(size ** arity + 1, dtype=np.int8)
        args = [a for rel, a in struct.facts if rel == name]
        if args:
            truth[np.ravel_multi_index(tuple(np.array(args).T), (size,) * arity)] = 1
        rows[:, col:col + size ** arity] = truth[_positions(size, arity)]
        col += width ** arity
    return rows


def random_family(signature, sizes, seed):
    rng = random.Random(seed)
    return [FinStructure(signature, n, frozenset(
        (name, args) for name, arity in signature.relations
        for args in itertools.product(range(n), repeat=arity) if rng.random() < 0.4))
        for n in sizes]


_M3, _M2 = random_family(EDGE_SIG, (3, 2), 1)


@pytest.mark.parametrize("family", [
    random_family(Signature((("red", 1), ("edge", 2))), (3, 1, 4, 2, 3), 2),
    random_family(Signature((("tri", 3),)), (2, 4, 1, 3, 4), 3),
    random_family(Signature((("red", 1), ("edge", 2), ("tri", 3))), (1, 3, 2), 4),
    random_family(Signature(()), (3, 1, 4, 2, 3), 5),
    [_M3, _M2, _M3, FinStructure(EDGE_SIG, 3, _M3.facts), _M2],
], ids=["unary_binary_interleaved", "ternary", "three_arities", "empty", "repeated"])
def test_level0_gather_matches_per_structure_rows(fresh_scott_cache, family):
    width = max(m.size for m in family)
    want = np.vstack([reference_qf_rows(m, width) for m in family])
    assert np.array_equal(_qf_rows(family, width), want)
    # every level, each side refined with the cache emptied
    sizes = tuple(m.size for m in family)
    levels = _refinement(sizes, _number(want)[0].tobytes())
    fresh_scott_cache.cache_clear()
    tab = ScottTable(family)
    assert tab.levels == len(levels)
    for a, level in enumerate(levels):
        assert np.array_equal(tab.level(a), level), a


def test_position_arrays_are_read_only():
    pos = _positions(3, 2)
    with pytest.raises(ValueError):
        pos[0, 0] = 0


# -- the refinement cache

def test_warm_cache_gives_the_cold_levels(fresh_scott_cache):
    # every class of one binary relation on at most 4 elements, and every
    # labelled one on at most 3; cold tables refine with the cache emptied
    structs = [m for n in range(1, 5) for m in canonical_edge_representatives(n)]
    structs += [m for n in range(1, 4) for m in _all_structures(EDGE_SIG, n)]
    cold = []
    for m in structs:
        fresh_scott_cache.cache_clear()
        tab = ScottTable([m])
        cold.append((tab.stab, [tab.level(a).copy() for a in range(tab.levels)]))
    fresh_scott_cache.cache_clear()
    for _ in range(2):  # first pass partly served by the cache, second wholly
        for m, (stab, levels) in zip(structs, cold):
            tab = ScottTable([m])
            assert tab.stab == stab and tab.levels == len(levels)
            for a, level in enumerate(levels):
                assert np.array_equal(tab.level(a), level), (m, a)
    info = fresh_scott_cache.cache_info()
    assert info.currsize == info.misses < len(structs) <= info.hits


def test_cached_levels_are_read_only():
    tab = ScottTable([chain(3)])
    for a in range(tab.levels):
        with pytest.raises(ValueError):
            tab.level(a)[0] = 7


def test_structures_with_one_level0_colouring_share_a_cache_entry(fresh_scott_cache):
    facts = {(0, 1), (1, 2), (2, 2)}
    every = {(a, b) for a in range(3) for b in range(3)}

    def edge(pairs):
        return FinStructure(EDGE_SIG, 3, frozenset(("edge", p) for p in pairs))

    tab = ScottTable([edge(facts)])
    complement, converse = edge(every - facts), edge((b, a) for a, b in facts)
    for other in (complement, converse):
        before = fresh_scott_cache.cache_info()
        shared = ScottTable([other])
        after = fresh_scott_cache.cache_info()
        assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)
        assert all(shared.level(a) is tab.level(a) for a in range(tab.levels))
    # no loops: every element has one level-0 type, so the colouring differs
    before = fresh_scott_cache.cache_info()
    ScottTable([edge({(0, 1), (1, 2)})])
    after = fresh_scott_cache.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize + 1)


def test_tables_above_the_size_cap_are_refused():
    # the cap is canonical_form's, refused before any tuple is enumerated
    assert MAX_SIZE == 8
    with pytest.raises(BudgetError, match="capped at size 8, got size 9"):
        ScottTable([chain(2), chain(MAX_SIZE + 1)])
