import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge.actions import _all_structures
from rankforge.common import STAB
from rankforge.oracle import ScottOracle
from rankforge.scott import (ScottRank, distinguishing_level, scott_equiv,
                             scott_iso_check, scott_rank, scott_table)
from rankforge.structures import (FinStructure, Signature, brute_isomorphic,
                                  permute_structure)

from conftest import EDGE_SIG, chain


def test_scott_equiv_chain_examples():
    l2, l3 = chain(2), chain(3)
    # frozen from the naive game-recursion oracle
    assert scott_equiv(l2, (), l3, (), 1) is True
    assert scott_equiv(l2, (), l3, (), 2) is False
    assert ScottOracle(l2, l3).equiv((), (), 1) is True
    assert ScottOracle(l2, l3).equiv((), (), 2) is False


def test_scott_equiv_reflexive_all_levels():
    l3 = chain(3)
    for alpha in (0, 1, 2, 5, STAB):
        assert scott_equiv(l3, (0, 2), l3, (0, 2), alpha)
    with pytest.raises(ValueError):
        scott_equiv(l3, (0,), l3, (), 1)


def test_scott_table_blocks():
    l2 = chain(2)
    tab = scott_table([l2])
    assert not tab.equivalent(0, (0, 1), 0, (1, 0), 0)
    assert tab.stab == 1
    pair = scott_table([l2, chain(3)])
    assert pair.equivalent(0, (), 1, (), 1)
    assert not pair.equivalent(0, (), 1, (), 2)
    single = scott_table([FinStructure(Signature(()), 1)])
    assert single.stab == 0


def test_scott_table_levels_are_equivalences():
    structs = _all_structures(EDGE_SIG, 2)
    tab = scott_table(structs)
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
    tab = scott_table(structs)
    for _ in range(300):
        i, j = rng.randrange(len(structs)), rng.randrange(len(structs))
        ln = rng.randint(0, 2)
        t = tuple(rng.sample(range(2), ln))
        u = tuple(rng.sample(range(2), ln))
        for alpha in range(tab.stab + 1):
            if tab.equivalent(i, t, j, u, alpha + 1):
                assert tab.equivalent(i, t, j, u, alpha)


def test_scott_rank_examples():
    assert scott_rank(FinStructure(Signature(()), 1)) == ScottRank(0, 0)
    assert scott_rank(chain(2)) == ScottRank(1, 1)
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
        tab = scott_table(structs)
        items = sum(len(list(itertools.permutations(range(m.size), ln)))
                    for m in structs for ln in range(m.size + 1))
        assert tab.stab <= items


def test_scott_iso_check_examples():
    l2, l3 = chain(2), chain(3)
    assert scott_iso_check(l3, chain(3))
    assert not scott_iso_check(l2, l3)
    path = FinStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1)), ("edge", (1, 2))}))
    star = FinStructure(EDGE_SIG, 3, frozenset({("edge", (1, 0)), ("edge", (1, 2))}))
    assert not scott_iso_check(path, star)
    assert not brute_isomorphic(path, star, (), ())


def test_scott_iso_matches_brute_force_size3():
    structs = _all_structures(EDGE_SIG, 2) + [chain(3), chain(2)]
    for m, n in itertools.product(structs, repeat=2):
        if m.signature != n.signature:
            continue
        assert scott_iso_check(m, n) == brute_isomorphic(m, n, (), ())


def test_repeated_tuples_reduce_correctly():
    # longer tuples with repeats must agree with the literal game recursion,
    # including length universe+1
    structs = _all_structures(EDGE_SIG, 2)[:6] + [chain(2)]
    tuples = [t for ln in range(4) for t in itertools.product(range(2), repeat=ln)]
    oracles = {}
    for i, j in itertools.combinations_with_replacement(range(len(structs)), 2):
        if structs[i].signature != structs[j].signature:
            continue
        tab = scott_table([structs[i], structs[j]])
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
    levels = [distinguishing_level(chain(m), chain(m + 1)) for m in range(1, 7)]
    assert levels == [2, 2, 3, 3, 3, 3]
    assert distinguishing_level(chain(3), chain(3)) is None


# -- engine against the literal game recursion

DIFF_SIGS = {
    "unary+binary": Signature((("red", 1), ("edge", 2))),
    "empty": Signature(()),
    "ternary": Signature((("tri", 3),)),
}


@st.composite
def mixed_family(draw):
    kind = draw(st.sampled_from(sorted(DIFF_SIGS)))
    sig = DIFF_SIGS[kind]
    if kind == "ternary":
        # Size 4 only: 64 position vectors per full-length tuple.  A smaller
        # universe beside it pushes stab to 4, and the oracle then checks
        # length**3 atoms at each leaf of a depth-5 game (tens of seconds).
        sizes = draw(st.lists(st.just(4), min_size=1, max_size=2))
    else:
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
    tab = scott_table(family)
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
    tab = scott_table([a, b])
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
    tab = scott_table(family)
    digests = [hashlib.sha256(repr(tab.blocks(a)).encode()).hexdigest()
               for a in range(tab.stab + 1)]
    assert digests == BLOCK_DIGESTS
    assert tab.blocks(STAB) == tab.blocks(tab.stab + 1) == tab.blocks(tab.stab)
