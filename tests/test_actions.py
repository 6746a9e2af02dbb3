import itertools

import pytest

from rankforge.actions import (ALL_SUBSETS, FiniteDiscreteAction,
                               FiniteLogicAction, SymbolicLogicAction,
                               encode_action_trace, parse_action_file,
                               scott_hjorth_comparison)
from rankforge.common import STAB, BudgetError, Budgets, UnsupportedOperationError
from rankforge import hjorth as hj
from rankforge.oracle import orbit_partition
from rankforge.structures import (FinStructure, ParseError, SchemaError,
                                  SuppStructure)

from conftest import EDGE_SIG, ORDER_SIG, chain

SYS1_FILE = """
space size 3
group
elem e : 0 1 2
elem s : 1 0 2
end
basis all-subsets
"""


def test_parse_action_file_sys1():
    sys1 = parse_action_file(SYS1_FILE)
    assert sys1.points == ["0", "1", "2"]
    assert len(sys1.basis) == 3
    assert sys1.basis == ["{e}", "{s}", "{e,s}"]


def test_parse_action_file_explicit_basis():
    text = SYS1_FILE.replace("basis all-subsets", "basis sets: {e,s} {e}")
    sysb = parse_action_file(text)
    assert sysb.basis == ["{e,s}", "{e}"]
    with pytest.raises(ParseError):
        parse_action_file(SYS1_FILE.replace("basis all-subsets", "basis sets: {e,q}"))


def test_parse_action_file_errors():
    with pytest.raises(SchemaError):
        # s*s = e is fine, but a lone 3-cycle misses its inverse power
        parse_action_file("space size 3\ngroup\nelem e : 0 1 2\n"
                          "elem r : 1 2 0\nend\nbasis all-subsets\n")
    with pytest.raises(SchemaError):
        parse_action_file("space size 2\ngroup\nelem e : 0 0\nend\n")
    with pytest.raises(SchemaError):  # non-faithful: duplicate permutation
        parse_action_file("space size 2\ngroup\nelem e : 0 1\nelem f : 0 1\nend\n")
    with pytest.raises(ParseError):
        parse_action_file("group\nelem e : 0\nend\n")
    with pytest.raises(BudgetError):
        parse_action_file(SYS1_FILE, Budgets(x=2))


def test_trivial_group_every_rank_one():
    trivial = parse_action_file("space size 4\ngroup\nelem e : 0 1 2 3\nend\n"
                                "basis all-subsets\n")
    table = hj.leq_table(trivial)
    assert table.stab == 1
    for x in range(4):
        assert hj.hjorth_rank(table, x).value == 1
    # the single basis set relates exactly equal points
    assert table.leq(0, 0, 0, 0, STAB)
    assert not table.leq(0, 0, 1, 0, STAB)


def test_singletons_plus_g_basis():
    sysb = parse_action_file(SYS1_FILE.replace("all-subsets", "singletons+G"))
    assert sysb.basis == ["{e}", "{s}", "{e,s}"]
    assert sysb.translation_closed


def test_finite_logic_action_small():
    sys2 = FiniteLogicAction(EDGE_SIG, 2, 2)
    assert len(sys2.group) == 2
    transposition = sys2.basis_sets[sys2.basis_of((0,), (1,))]
    assert transposition == frozenset({sys2.perms.index((1, 0))})
    sys3 = FiniteLogicAction(EDGE_SIG, 3, 3)
    assert sys3.contains(sys3.basis_of((0, 1), (0, 1)), sys3.basis_of((0,), (0,)))
    m = FinStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1))}))
    vfull = sys3.basis_of((), ())
    x = sys3.point_of(m)
    assert sys3.cc(x, vfull, x, vfull)


def test_basis_of_longer_descriptors():
    empty = [FinStructure(EDGE_SIG, 3)]
    sys2 = FiniteLogicAction(EDGE_SIG, 3, 2, empty)
    assert sys2.basis_of((0, 1, 2), (1, 0, 2)) == sys2.basis_of((0, 1), (1, 0))
    sys1 = FiniteLogicAction(EDGE_SIG, 3, 1, empty)
    longer = [(a, b) for ln in (2, 3)
              for a in itertools.permutations(range(3), ln)
              for b in itertools.permutations(range(3), ln)]
    assert len(longer) == 72
    for abar, bbar in longer:
        with pytest.raises(KeyError):
            sys1.basis_of(abar, bbar)


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in range(n + 1)])
def test_basis_of_matches_coset_members(n, k):
    # every injective descriptor on 0..n-1, of every length, against the
    # permutations it describes
    sysb = FiniteLogicAction(EDGE_SIG, n, k, [FinStructure(EDGE_SIG, n)])
    for ln in range(n + 1):
        for abar in itertools.permutations(range(n), ln):
            for bbar in itertools.permutations(range(n), ln):
                members = frozenset(
                    i for i, p in enumerate(sysb.perms)
                    if all(p[a] == b for a, b in zip(abar, bbar)))
                if members in sysb.basis_sets:
                    assert sysb.basis_sets[sysb.basis_of(abar, bbar)] == members
                else:
                    with pytest.raises(KeyError):
                        sysb.basis_of(abar, bbar)


def test_finite_logic_orbit_is_isomorphism():
    sys2 = FiniteLogicAction(EDGE_SIG, 2, 2)
    parts = orbit_partition(sys2)
    from rankforge.structures import brute_isomorphic
    for i, m in enumerate(sys2.structures):
        for j, n in enumerate(sys2.structures):
            assert parts.same_orbit(i, j) == brute_isomorphic(m, n, (), ())


def test_finite_logic_cc_reflexive_transitive_extensional():
    sys2 = FiniteLogicAction(EDGE_SIG, 2, 2)
    npoints, nbasis = len(sys2.points), len(sys2.basis)
    quads = [(x, v) for x in range(npoints) for v in range(nbasis)]
    for x, v in quads:
        assert sys2.cc(x, v, x, v)
    import random
    rng = random.Random(0)
    hits = 0
    for _ in range(400):
        a, b, c = rng.choice(quads), rng.choice(quads), rng.choice(quads)
        if sys2.cc(*a, *b) and sys2.cc(*b, *c):
            hits += 1
            assert sys2.cc(*a, *c)
    assert hits
    for w in range(nbasis):
        for v in range(nbasis):
            assert sys2.contains(w, v) == (sys2.basis_sets[w] <= sys2.basis_sets[v])


def test_finite_logic_budgets():
    with pytest.raises(BudgetError):
        FiniteLogicAction(EDGE_SIG, 9, 2)
    with pytest.raises(BudgetError):
        FiniteLogicAction(EDGE_SIG, 4, 2)  # 2^16 points without a list
    with pytest.raises(SchemaError):
        FiniteLogicAction(EDGE_SIG, 3, 2, [FinStructure(EDGE_SIG, 2)])


def test_finite_logic_translate_and_act():
    sys2 = FiniteLogicAction(EDGE_SIG, 2, 2)
    m = FinStructure(EDGE_SIG, 2, frozenset({("edge", (0, 1))}))
    x = sys2.point_of(m)
    g = sys2.perms.index((1, 0))
    gm = sys2.structures[sys2.act(g, x)]
    assert gm.facts == frozenset({("edge", (1, 0))})
    v = sys2.basis_of((0,), (0,))
    image = sys2.basis_sets[sys2.translate(v, g)]
    assert image == sys2.basis_sets[sys2.basis_of((1,), (0,))]



@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in range(n + 1)])
def test_finite_logic_translate_is_coset_of_moved_tuple(n, k):
    # V[a->b] g^-1 is the coset V[g(a)->b]
    sysb = FiniteLogicAction(EDGE_SIG, n, k, [FinStructure(EDGE_SIG, n)])
    assert sysb.translation_closed
    for ln in range(k + 1):
        for abar in itertools.permutations(range(n), ln):
            for bbar in itertools.permutations(range(n), ln):
                v = sysb.basis_of(abar, bbar)
                for g, perm in enumerate(sysb.perms):
                    moved = tuple(perm[a] for a in abar)
                    assert sysb.translate(v, g) == sysb.basis_of(moved, bbar)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_coset_basis_is_translation_closed(n):
    for k in range(n + 1):
        assert FiniteLogicAction(EDGE_SIG, n, k,
                                 [FinStructure(EDGE_SIG, n)]).translation_closed


def test_translation_closed_on_explicit_families():
    c3 = [("e", (0, 1, 2)), ("r", (1, 2, 0)), ("r2", (2, 0, 1))]
    assert FiniteDiscreteAction(3, c3, ALL_SUBSETS).translation_closed
    single = FiniteDiscreteAction(3, c3, [frozenset({0}), frozenset({0, 1, 2})])
    assert not single.translation_closed
    with pytest.raises(UnsupportedOperationError):
        single.translate(0, 1)


def test_symbolic_cc_examples():
    m1 = SuppStructure(EDGE_SIG, 2, frozenset({("edge", (0, 1))}))
    n2 = SuppStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1)), ("edge", (1, 2))}))
    empty = SuppStructure(EDGE_SIG, 0)
    sysb = SymbolicLogicAction(EDGE_SIG, 3, 3, [m1, n2, empty])
    vg = sysb.basis_of((), ())
    assert sysb.cc(2, vg, 2, vg)
    assert sysb.cc(0, vg, 1, vg)
    assert not sysb.cc(1, vg, 0, vg)
    # cc on full-group pairs coincides with plain theory containment
    from rankforge.structures import thsigma_contains
    for i, j in itertools.product(range(3), repeat=2):
        assert sysb.cc(i, vg, j, vg) == \
            thsigma_contains(sysb.structures[i], (), sysb.structures[j], ())


def test_symbolic_contains_is_graph_extension():
    sysb = SymbolicLogicAction(EDGE_SIG, 3, 2, [SuppStructure(EDGE_SIG, 0)])
    small = sysb.basis_of((0, 1), (0, 1))
    big = sysb.basis_of((0,), (0,))
    assert sysb.contains(small, big)
    assert not sysb.contains(big, small)


def test_symbolic_budget_and_validation():
    with pytest.raises(BudgetError):
        SymbolicLogicAction(EDGE_SIG, 9, 2, [])
    with pytest.raises(SchemaError):
        SymbolicLogicAction(EDGE_SIG, 2, 2,
                            [SuppStructure(EDGE_SIG, 3,
                                           frozenset({("edge", (0, 2))}))])


def test_scott_hjorth_comparison_instances():
    l2 = chain(2)
    tabl = hj.leq_table(FiniteLogicAction(ORDER_SIG, 2, 2, [l2]))
    assert scott_hjorth_comparison(tabl, l2, (0,), l2, (0,), (1,))
    # hypothesis false at finite scale: vacuously true
    tab3 = hj.leq_table(FiniteLogicAction(ORDER_SIG, 3, 3, [chain(3)]))
    assert scott_hjorth_comparison(tab3, chain(3), (0,), chain(3), (2,), (0,))
    with pytest.raises(ValueError):
        scott_hjorth_comparison(tabl, l2, (0,), l2, (0,), (1, 0))
    with pytest.raises(ValueError):
        scott_hjorth_comparison(tabl, l2, (0, 1), l2, (0, 1), (1, 1))


def test_scott_hjorth_comparison_rejects_supported_points():
    m1 = SuppStructure(EDGE_SIG, 1)
    table = hj.leq_table(SymbolicLogicAction(EDGE_SIG, 2, 1, [m1]), max_level=1)
    with pytest.raises(UnsupportedOperationError):
        scott_hjorth_comparison(table, m1, (), m1, (), ())


def test_encode_action_trace(sys1):
    trace = encode_action_trace(sys1, 2)
    # diagonal order over (basis k, point l); only the point-2 column is hit
    order = sorted(((k, l) for k in range(3) for l in range(3)),
                   key=lambda kl: (kl[0] + kl[1], kl[1]))
    assert trace == tuple(1 if l == 2 else 0 for k, l in order)
    trivial = FiniteDiscreteAction(3, [("e", (0, 1, 2))], ALL_SUBSETS)
    tr = encode_action_trace(trivial, 1)
    assert sum(tr) == len(trivial.basis)  # one hit per basis row
    transitive = FiniteDiscreteAction(2, [("e", (0, 1)), ("s", (1, 0))],
                                      [frozenset({0, 1})])
    assert encode_action_trace(transitive, 0) == encode_action_trace(transitive, 1)


def test_trace_needs_action():
    m1 = SuppStructure(EDGE_SIG, 1)
    sysb = SymbolicLogicAction(EDGE_SIG, 1, 1, [m1])
    with pytest.raises(UnsupportedOperationError):
        encode_action_trace(sysb, 0)


def test_clopen_subgroup_rank_bound(sys1):
    # subgroup {e}: all-subsets basis over the trivial group
    sub = FiniteDiscreteAction(3, [("e", (0, 1, 2))], ALL_SUBSETS)
    max_g = max(hj.hjorth_rank(hj.leq_table(sys1), x).value for x in range(3))
    max_o = max(hj.hjorth_rank(hj.leq_table(sub), x).value for x in range(3))
    assert max_o <= max_g + 1
