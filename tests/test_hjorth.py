import itertools
import random
import tracemalloc

import numpy as np
import pytest

from rankforge import verify as vf
from rankforge.actions import (ALL_SUBSETS, FiniteDiscreteAction, FiniteLogicAction,
                               SymbolicLogicAction)
from rankforge.common import (STAB, BudgetError, Budgets, InvalidBaseRelationError,
                              RankforgeError)
from rankforge import hjorth as hj
from rankforge.oracle import orbit_partition
from rankforge.structures import SuppStructure

from conftest import (EDGE_SIG, CorruptedSystem, edge_structures,
                      make_non_basis_family, make_stab2_system, make_sys1,
                      one_block_levels, rank_condition_reference,
                      relabel_hjorth_system, scott_hjorth_comparison, set_level)


def test_level_table_base_level(sys1, basis_index):
    table = hj.leq_table(sys1)
    bi = basis_index
    assert table.leq(0, bi["{s}"], 1, bi["{e}"], 1)          # {s.0} in {1}
    assert table.leq(2, bi["{e,s}"], 2, bi["{e}"], 1)        # {2} in {2}
    assert table.stab == 1
    # reflexivity at every level
    for alpha in (1, 2, 3, STAB):
        for x in range(3):
            for v in range(3):
                assert table.leq(x, v, x, v, alpha)


def test_leq_beyond_stab_is_stabilized(sys1):
    table = hj.leq_table(sys1)
    for x0 in range(3):
        for v0 in range(3):
            for x1 in range(3):
                for v1 in range(3):
                    assert table.leq(x0, v0, x1, v1, 9) == \
                        table.leq(x0, v0, x1, v1, STAB)


def test_leq_errors(sys1):
    table = hj.leq_table(sys1)
    with pytest.raises(IndexError):
        table.leq(7, 0, 0, 0, 1)
    with pytest.raises(IndexError):
        table.leq(0, 9, 0, 0, 1)
    with pytest.raises(ValueError):
        table.leq(0, 0, 0, 0, 0)
    truncated = hj.leq_table(make_sys1(), max_level=1)
    with pytest.raises(RankforgeError):
        truncated.leq(0, 0, 0, 0, STAB)


def test_leq_transitivity_spot(sys1):
    table = hj.leq_table(sys1)
    rng = random.Random(17)
    hits = 0
    for _ in range(500):
        a = (rng.randrange(3), rng.randrange(3))
        b = (rng.randrange(3), rng.randrange(3))
        c = (rng.randrange(3), rng.randrange(3))
        alpha = rng.choice((1, 2, STAB))
        if table.leq(*a, *b, alpha) and table.leq(*b, *c, alpha):
            hits += 1
            assert table.leq(*a, *c, alpha)
    assert hits > 0


def test_equiv_alpha(sys1):
    table = hj.leq_table(sys1)
    for alpha in (1, 2, 3, STAB):
        assert table.equiv(0, 1, alpha)
        assert table.equiv(2, 2, alpha)
    assert not table.equiv(0, 2, 2)


def test_hjorth_rank_and_profile(sys1):
    table = hj.leq_table(sys1)
    assert table.stab == 1
    for x in range(3):
        rank = hj.hjorth_rank(table, x)
        assert type(rank) is int and rank == 1
    assert hj.rank_condition_profile(table, 0) == {1}
    single = hj.leq_table(FiniteDiscreteAction(1, [("e", (0,))], ALL_SUBSETS))
    assert hj.hjorth_rank(single, 0) == 1
    assert hj.rank_condition_profile(single, 0) == {1}
    # a rank never passes the stabilization index of its table
    c3 = FiniteDiscreteAction(
        3, [("e", (0, 1, 2)), ("r", (1, 2, 0)), ("r2", (2, 0, 1))],
        [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2})])
    for other in (table, single, hj.leq_table(c3),
                  hj.leq_table(FiniteLogicAction(EDGE_SIG, 2, 2))):
        for x in range(other.npoints):
            rank = hj.hjorth_rank(other, x)
            assert type(rank) is int and 1 <= rank <= other.stab


def test_profile_contains_stab(sys1):
    table = hj.leq_table(sys1)
    for x in range(3):
        assert table.stab in hj.rank_condition_profile(table, x)


@pytest.fixture(scope="module")
def rank_tables():
    """Tables of ensembles 0, 3 and 7 (60 systems each), the stab-2 system,
    the non-basis family and relabeling systems with k = 2 and 3."""
    systems = [sys for seed in (0, 3, 7) for sys in vf.ensemble(seed, 60)]
    systems += [make_stab2_system(), make_non_basis_family(),
                FiniteLogicAction(EDGE_SIG, 2, 2),
                FiniteLogicAction(EDGE_SIG, 3, 2, edge_structures(1, 2)),
                relabel_hjorth_system()]
    return [hj.leq_table(sys) for sys in systems]


def test_rank_condition_matches_per_point_reference(rank_tables):
    assert max(table.stab for table in rank_tables) == 2
    for table in rank_tables:
        for x in range(table.npoints):
            want = {a for a in range(1, table.stab + 1)
                    if rank_condition_reference(table, x, a)}
            assert hj.rank_condition_profile(table, x) == want
            assert hj.hjorth_rank(table, x) == min(want)
    stab2 = rank_tables[180]
    assert [hj.hjorth_rank(stab2, x) for x in range(5)] == [2, 2, 1, 2, 1]
    assert [hj.rank_condition_profile(stab2, x) for x in (0, 2)] == [{2}, {1, 2}]


def test_orbit_check_via_rank_matches_orbit_oracle(rank_tables):
    # the non-basis family is left out: its levels never reach its one orbit
    assert (hj.orbit_check_via_rank(rank_tables[181]) == np.eye(3, dtype=bool)).all()
    for table in rank_tables[:181] + rank_tables[182:]:
        orbit = np.array(orbit_partition(table.sys).orbit_of)
        verdict = hj.orbit_check_via_rank(table)
        assert verdict.dtype == bool
        assert (verdict == (orbit[:, None] == orbit[None, :])).all()


def test_orbit_of_matches_orbit_partition():
    # one pass over the group against the oracle's closure loop
    for sys in [*vf.ensemble(0, 20), relabel_hjorth_system()]:
        partition = orbit_partition(sys)
        for block in partition.blocks:
            for x in block:
                assert hj.orbit_of(sys, x) == block


def test_orbit_check_and_minimal_m(sys1):
    table = hj.leq_table(sys1)
    verdict = hj.orbit_check_via_rank(table)
    assert verdict.shape == (3, 3)
    assert verdict[0, 1] and not verdict[0, 2] and verdict[2, 2]
    assert hj.minimal_m(table, 2) in (0, 1)
    transitive = hj.leq_table(FiniteDiscreteAction(
        2, [("e", (0, 1)), ("s", (1, 0))], ALL_SUBSETS))
    assert all(hj.minimal_m(transitive, x) == 0 for x in range(2))


def test_vaught_transforms(sys1, basis_index):
    bi = basis_index
    everything = {0, 1, 2}
    assert hj.vaught_star(sys1, everything, bi["{e,s}"]) == frozenset(everything)
    assert hj.vaught_star(sys1, {0}, bi["{e,s}"]) == frozenset()
    assert hj.vaught_delta(sys1, {0}, bi["{e,s}"]) == frozenset({0, 1})
    rng = random.Random(23)
    for _ in range(200):
        a = frozenset(x for x in range(3) if rng.random() < 0.5)
        u = rng.randrange(3)
        assert hj.vaught_delta(sys1, a, u) == \
            frozenset(everything) - hj.vaught_star(sys1, everything - a, u)


def test_star_orbit_equivalence(sys1, basis_index):
    bi = basis_index
    table = hj.leq_table(sys1)
    # (y, W, x, V): y in the star transform over W of the V-translates of x
    quads = [(1, bi["{e}"], 0, bi["{s}"]), (2, bi["{e}"], 0, bi["{e,s}"]),
             (0, bi["{e,s}"], 0, bi["{e,s}"])]
    assert [table.leq(y, w, x, v, STAB) for y, w, x, v in quads] == [True, False, True]
    drawn = [(None, None, 0, y, x, w, v) for y, w, x, v in quads]
    assert vf.star_orbit_equivalence((table, drawn, [])) is None


def test_fixed_point_set(sys1, basis_index):
    bi = basis_index
    table = hj.leq_table(sys1)
    # every singleton is a basis set, so the two ways agree
    assert hj.fixed_point_set(table, bi["{s}"]) == (frozenset({2}), frozenset({2}))
    direct, via = hj.fixed_point_set(table, bi["{e}"])
    assert direct == via == frozenset({0, 1, 2})


def test_partition_and_compare(sys1):
    table = hj.leq_table(sys1)
    assert hj.partition_by_rank(table) == [(1, frozenset({0, 1, 2}))]
    assert hj.compare_ranks(table, 0, 2) == "="
    assert hj.compare_ranks(table, 1, 1) == "="


def test_basis_shift_identical_and_alt(sys1):
    table = hj.leq_table(sys1)
    ranks = [hj.hjorth_rank(table, x) for x in range(3)]
    same = hj.leq_table(sys1.with_basis(sys1.basis_sets))
    assert [hj.hjorth_rank(same, x) for x in range(3)] == ranks
    alt_sys = sys1.with_basis([frozenset([0]), frozenset([1]), frozenset([0, 1])])
    alt = hj.leq_table(alt_sys)
    assert all(abs(hj.hjorth_rank(alt, x) - d) <= 1 for x, d in enumerate(ranks))
    assert vf.basis_shift_bound((table, alt_sys, None)) is None


def test_invalid_base_relation_aborts(sys1):
    corrupted = CorruptedSystem(make_sys1(), (0, 0, 2, 0))
    with pytest.raises(InvalidBaseRelationError) as err:
        hj.leq_table(corrupted)
    # level 2 adds (2,{e}) <= (0,{e}) and (2,{e}) <= (0,{e,s}): the witness
    # is the first in index order
    assert err.value.witness == (2, 0, 0, 0)
    with pytest.raises(InvalidBaseRelationError) as err:
        hj.leq_table(make_twice_corrupted())
    assert err.value.witness == (0, 0, 1, 0)


def make_twice_corrupted() -> CorruptedSystem:
    """sys1 with two cc entries flipped: level 2 adds (0,0,1,0), (0,2,1,0),
    (2,0,0,0) and (2,0,0,2), so with one x1 per sweep block the first
    growth sits in the second block."""
    return CorruptedSystem(CorruptedSystem(make_sys1(), (0, 0, 2, 0)), (1, 0, 0, 0))


def test_deep_stabilization_on_non_basis_family():
    # {e,r} n {e,r2} = {e} is not a union of family members, so this family
    # is not a topological basis and the orbit-tracking results do not
    # apply; the recurrence itself is still well defined, stabilizes late,
    # and must agree with the literal recursion at every level.
    sysb = make_non_basis_family()
    table = hj.leq_table(sysb)
    assert table.stab == 2
    from rankforge.oracle import LeqOracle
    oracle = LeqOracle(sysb, depth_cap=6)
    for x0 in range(3):
        for v0 in range(3):
            for x1 in range(3):
                for v1 in range(3):
                    for a in range(1, table.stab + 2):
                        assert oracle.query(x0, v0, x1, v1, a) == \
                            table.leq(x0, v0, x1, v1, a)
    assert [hj.hjorth_rank(table, x) for x in range(3)] == [1, 1, 1]
    assert hj.rank_condition_profile(table, 0) == {1, 2}
    # the transitive orbit is never recovered by the level equivalences here
    with pytest.raises(RankforgeError):
        hj.minimal_m(table, 0)


def test_rank_requires_stabilized_table():
    truncated = hj.leq_table(make_sys1(), max_level=1)  # before a sweep
    assert not truncated.stabilized
    with pytest.raises(RankforgeError):
        hj.hjorth_rank(truncated, 0)
    with pytest.raises(RankforgeError):
        hj.rank_condition_profile(truncated, 0)


RANKED = {"relabel-hjorth": lambda: [relabel_hjorth_system()],
          "stab2": lambda: [make_stab2_system()],
          "ensemble-3-6": lambda: vf.ensemble(3, 6)}


@pytest.mark.parametrize("name", sorted(RANKED))
def test_cached_ranks_are_each_points_first_held_level(name):
    for sys in RANKED[name]():
        table = hj.leq_table(sys)
        held = table.rank_condition()
        want = tuple(int(np.argmax(held[:, x])) + 1 for x in range(table.npoints))
        assert table.ranks() == want
        assert table.ranks() is table.ranks()
        assert [hj.hjorth_rank(table, x) for x in range(table.npoints)] == list(want)
    if name == "stab2":
        assert want == (2, 2, 1, 2, 1)


def _without_condition(table, x):
    """``table`` with an all-false rank condition column at point x, set
    before its ranks are read."""
    held = table.rank_condition().copy()
    held[:, x] = False
    held.setflags(write=False)
    table._held = held
    return table


def test_rank_names_a_point_whose_condition_never_holds():
    sys = FiniteLogicAction(EDGE_SIG, 2, 2)
    table = _without_condition(hj.leq_table(sys), 3)
    assert table.ranks()[3] == 0
    with pytest.raises(RankforgeError,
                       match=f"^no rank level found for point {sys.points[3]} "):
        hj.hjorth_rank(table, 3)
    assert [hj.hjorth_rank(table, x) for x in (2, 4)] == [1, 1]


def test_tables_never_share_cached_ranks():
    sys = make_stab2_system()
    clean = hj.leq_table(sys)
    assert hj.hjorth_rank(clean, 0) == 2
    corrupt = _without_condition(hj.leq_table(sys), 0)
    with pytest.raises(RankforgeError, match="^no rank level found for point 0 "):
        hj.hjorth_rank(corrupt, 0)
    assert clean.ranks() == (2, 2, 1, 2, 1)
    assert corrupt.ranks() == (0, 2, 1, 2, 1)
    other = hj.leq_table(make_sys1())
    assert [hj.hjorth_rank(other, x) for x in range(3)] == list(other.ranks())
    assert corrupt.ranks()[0] == 0


@pytest.mark.parametrize("make", [
    make_sys1,
    lambda: FiniteLogicAction(EDGE_SIG, 2, 2),
], ids=["sys1", "logic"])
def test_table_functions_store_nothing_on_the_system(make):
    sys = make()
    before = dict(vars(sys))
    table = hj.leq_table(sys)
    npoints, nbasis = len(sys.points), len(sys.basis)
    for x in range(npoints):
        hj.hjorth_rank(table, x)
        hj.rank_condition_profile(table, x)
        hj.minimal_m(table, x)
        assert hj.orbit_check_via_rank(table)[x, 0] == (0 in hj.orbit_of(sys, x))
        hj.compare_ranks(table, x, 0)
        table.leq(x, 0, 0, nbasis - 1, STAB)
    hj.partition_by_rank(table)
    for u in range(nbasis):
        hj.fixed_point_set(table, u)
    if isinstance(sys, FiniteLogicAction):
        m = sys.structures[0]
        scott_hjorth_comparison(table, m, (0,), m, (0,), (1,))
    assert vars(sys) == before


def test_table_budget():
    # 4 points x 1 basis set = 4 pairs
    big = FiniteDiscreteAction(4, [("e", (0, 1, 2, 3))], ALL_SUBSETS)
    with pytest.raises(BudgetError, match="exceed the table budget of 2"):
        hj.LevelTable(big, budgets=Budgets(table_pairs=2))
    with pytest.raises(BudgetError, match="exceed the table budget of 3"):
        hj.leq_table(big, budgets=Budgets(table_pairs=3))
    assert hj.leq_table(big, budgets=Budgets(table_pairs=4)).stab == 1


def test_translation_invariance_all_levels(sys1):
    table = hj.leq_table(sys1)
    for alpha in (1, 2, STAB):
        for g in range(2):
            for x in range(3):
                for v in range(3):
                    assert table.leq(x, v, sys1.act(g, x),
                                     sys1.translate(v, g), alpha)


def test_level_arrays_monotone(sys1):
    table = hj.leq_table(sys1)
    for a in range(1, table.max_level()):
        assert not (table.level(a + 1) & ~table.level(a)).any()
    assert isinstance(table.level(1), np.ndarray)


def dense_levels(table):
    """Every computed level of a table as its dense (P,B,P,B) array."""
    return [table.level(a) for a in range(1, table.max_level() + 1)]


def build_outcome(sys):
    """The stab and level arrays of a table, or the witness and message of
    its abort."""
    try:
        table = hj.leq_table(sys)
    except InvalidBaseRelationError as err:
        return err.witness, str(err)
    return table.stab, dense_levels(table)


# Every system here fits one block by default.  Block 1 gives one row per
# block; 60 and 42,000 leave a short last block in T_1 and the sweep (60: 6
# T_1 rows of 9, 2 sweep rows of 3 on the 3-point systems; 42,000: 50 T_1
# rows of 840, 5 sweep rows of 84 on the 84-point one, whose table aborts
# with 324 grown entries).
@pytest.mark.parametrize("block", [1, 60, 42_000])
@pytest.mark.parametrize("make", [
    make_sys1,
    make_non_basis_family,
    lambda: FiniteLogicAction(EDGE_SIG, 3, 1, edge_structures(3)),
    lambda: CorruptedSystem(make_sys1(), (0, 0, 2, 0)),
    make_twice_corrupted,
], ids=["sys1", "non-basis", "logic-84", "corrupted", "twice-corrupted"])
def test_blocked_build_matches_one_block(make, block, monkeypatch):
    whole = build_outcome(make())
    monkeypatch.setattr(hj, "_BLOCK", block)
    blocked = build_outcome(make())
    assert blocked[0] == whole[0]
    if isinstance(whole[1], str):
        assert blocked[1] == whole[1]
    else:
        assert len(blocked[1]) == len(whole[1])
        for got, want in zip(blocked[1], whole[1]):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_level_table_memory_peak():
    # 210 points x 16 basis sets in 41 orbit blocks: a dense level is P^2
    # bytes for P = 3,360 pairs.  Kept per block, T_1 and its sweep peak at
    # 0.095 P^2; assembling each level into one dense table peaked at
    # 1.05 P^2.  One block over all points, its T_1 and sweep built in row
    # blocks, peaked at 2.91 P^2 (two levels and the 4 MB float32 row
    # buffers); a whole-table growth test took 3.0 P^2 and whole P x P
    # float32 products 10.3 P^2.
    sys = FiniteLogicAction(EDGE_SIG, 3, 3, edge_structures(3, 4))
    pairs = len(sys.points) * len(sys.basis)
    assert pairs == 3360
    tracemalloc.start()
    try:
        table = hj.leq_table(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.stab == 1
    assert peak <= 2.95 * pairs ** 2
    assert peak <= 1.25 * pairs ** 2
    assert peak <= 0.15 * pairs ** 2


def make_two_orbits() -> FiniteDiscreteAction:
    """C3 turning 0,1,2 and 3,4,5 together and fixing 6: three orbits."""
    return FiniteDiscreteAction(7, [("e", (0, 1, 2, 3, 4, 5, 6)),
                                    ("r", (1, 2, 0, 4, 5, 3, 6)),
                                    ("r2", (2, 0, 1, 5, 3, 4, 6))], ALL_SUBSETS)


def make_uneven_orbits() -> FiniteDiscreteAction:
    """The non-basis family's C3 turning 0 -> 2 -> 3 -> 0 and fixing 1: the
    3-point orbit stabilizes at level 2, the fixed point at level 1."""
    return FiniteDiscreteAction(
        4, [("e", (0, 1, 2, 3)), ("r", (2, 1, 3, 0)), ("r2", (3, 1, 0, 2))],
        [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2})])


class FlippedImages(FiniteDiscreteAction):
    """A finite-discrete action whose image tensor has some entries
    flipped: T_1 then no longer comes from an action, and its sweeps may
    grow.  For fault-injection tests of the orbit-blocked build."""

    def __init__(self, flips, *args):
        super().__init__(*args)
        self.flips = flips

    def image_tensor(self):
        img = super().image_tensor()
        for entry in self.flips:
            img[entry] = not img[entry]
        return img


def make_interleaved(*flips) -> FlippedImages:
    """The swap 0<->2, 1<->3: orbits {0,2} and {1,3} interleave."""
    return FlippedImages(flips, 4, [("e", (0, 1, 2, 3)), ("s", (2, 3, 0, 1))],
                         ALL_SUBSETS)


def orbit_blocks(sys) -> list[list[int]]:
    return [b.tolist() for b in hj.leq_table(sys, max_level=1).blocks]


def reference_outcome(sys, max_level=None):
    try:
        return one_block_levels(sys, max_level)
    except InvalidBaseRelationError as err:
        return err.witness, str(err)


def assert_matches_one_block(sys, max_level=None):
    want = reference_outcome(sys, max_level)
    try:
        table = hj.leq_table(sys, max_level=max_level)
    except InvalidBaseRelationError as err:
        assert (err.witness, str(err)) == want
        return
    assert table.stab == want[0]
    assert table.stabilized == (want[0] is not None)
    assert len(table.levels) == len(want[1])
    for got, level in zip(dense_levels(table), want[1]):
        assert got.dtype == bool and np.array_equal(got, level)


def make_symbolic(*structures) -> SymbolicLogicAction:
    """The windowed symbolic action (s = 2, k = 1) on supported edge
    structures, each given by its edge list."""
    return SymbolicLogicAction(EDGE_SIG, 2, 1, [
        SuppStructure(EDGE_SIG, 2, frozenset(("edge", e) for e in edges))
        for edges in structures])


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_orbit_blocked_build_matches_one_block_on_ensembles(seed):
    for sys in vf.ensemble(seed, 20):
        for max_level in (None, 1, 2):
            assert_matches_one_block(sys, max_level)


@pytest.mark.parametrize("make, nblocks", [
    (relabel_hjorth_system, 44),
    (lambda: FiniteLogicAction(EDGE_SIG, 3, 3, edge_structures(3, 4)), 41),
    (make_two_orbits, 3),
    (make_uneven_orbits, 2),
    # C3 acting on itself: one orbit, stabilizing above level 1
    (make_non_basis_family, 1),
    # emptying the image of (0,{e}) puts T_1 entries across orbits, so the
    # build falls back to one block
    (lambda: make_interleaved((0, 0, 0)), 1),
    # no image tensor: one block, one cc call per entry; the second
    # system's level 2 grows
    (lambda: make_symbolic([(0, 0), (0, 1)], [(1, 0), (1, 1)]), 1),
    (lambda: make_symbolic([(0, 1)], [(0, 1), (1, 1)], []), 1),
], ids=["relabel-244", "edge-210", "two-orbits", "uneven-orbits", "one-orbit",
        "emptied-image", "symbolic", "symbolic-aborting"])
def test_orbit_blocked_build_matches_one_block(make, nblocks):
    sys = make()
    assert len(orbit_blocks(sys)) == nblocks
    for max_level in (None, 1, 2):
        assert_matches_one_block(sys, max_level)


def test_invalid_base_relation_witness_across_orbit_blocks():
    # one flip per orbit: alone, (2,{e}) -> 0 first grows (2,{e}) <= (0,{e})
    # and (3,{e,s}) -> 1 first grows (1,{e}) <= (3,{e,s}); together both
    # blocks grow at level 2 and the least global entry is the second's
    first, second = (2, 0, 0), (3, 2, 1)
    assert orbit_blocks(make_interleaved(first, second)) == [[0, 2], [1, 3]]
    for flips, witness in [((first,), (2, 0, 0, 0)), ((second,), (1, 0, 3, 2)),
                           ((first, second), (1, 0, 3, 2))]:
        sys = make_interleaved(*flips)
        with pytest.raises(InvalidBaseRelationError) as err:
            hj.leq_table(sys)
        assert err.value.witness == witness
        assert str(err.value).startswith("invalid base relation: level 2 adds")
        assert (err.value.witness, str(err.value)) == reference_outcome(sys)


@pytest.mark.parametrize("make", [
    lambda: FiniteLogicAction(EDGE_SIG, 3, 3, edge_structures(3, 4)),
    make_two_orbits,
    make_uneven_orbits,
], ids=["edge-210", "two-orbits", "uneven-orbits"])
def test_one_leq_table_builds_one_level_table(make, monkeypatch):
    # the benchmark's tracer counts LevelTable.__init__ calls and sizes
    # every level as P x B x P x B, so orbit blocks are never tables
    sys = make()
    built = []
    init = hj.LevelTable.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hj.LevelTable, "__init__", counted)
    table = hj.leq_table(sys)
    assert built == [table]
    shape = (len(sys.points), len(sys.basis)) * 2
    assert all(level.shape == shape for level in dense_levels(table))


def dense_rank_condition(table):
    """``rank_condition`` read off the dense levels: every point's diagonal
    blocks, closed under containment, tested against the next level."""
    xs = np.arange(table.npoints)
    diag = np.stack([level[xs, :, xs, :] for level in dense_levels(table)])
    subf = table.sub.astype(np.float32)
    reach = (subf @ diag.astype(np.float32)) > 0
    reach = (reach.astype(np.float32) @ subf) > 0
    nxt = np.concatenate([diag[1:], diag[-1:]])
    return ~(reach & ~nxt).any(axis=(2, 3))


def leq_quads(table, rng):
    """Every quadruple of a small table; on a large one, 4,000 seeded
    draws, every other one with both points in one orbit block."""
    npoints, nbasis = table.npoints, table.nbasis
    if (npoints * nbasis) ** 2 <= 20_000:
        return itertools.product(range(npoints), range(nbasis), repeat=2)
    block_of = {x: b for b in table.blocks for x in b.tolist()}
    quads = []
    for k in range(4000):
        x0 = rng.randrange(npoints)
        x1 = (rng.choice(block_of[x0].tolist()) if k % 2
              else rng.randrange(npoints))
        quads.append((x0, rng.randrange(nbasis), x1, rng.randrange(nbasis)))
    return quads


def with_point0_flipped(table):
    """The table with every level-1 entry of point 0 flipped, through
    ``set_level``."""
    flipped = table.level(1).copy()
    flipped[0] = ~flipped[0]
    return set_level(table, 1, flipped)


@pytest.mark.parametrize("tables", [
    lambda: [hj.leq_table(s) for s in vf.ensemble(3, 6)],
    lambda: [hj.leq_table(make_stab2_system())],
    lambda: [hj.leq_table(relabel_hjorth_system())],
    # the 3-point orbit changes at level 2 while the fixed point's block,
    # shared with level 1, does not
    lambda: [hj.leq_table(make_uneven_orbits())],
    # emptying the image of (0,{e}) makes one block, whose level 2 grows
    lambda: [hj.leq_table(make_interleaved((0, 0, 0)), max_level=1)],
    # one orbit: level() returns the block itself
    lambda: [hj.leq_table(make_non_basis_family())],
    # set_level puts a one-block and a three-block table in one-block form
    lambda: [with_point0_flipped(hj.leq_table(make_non_basis_family())),
             with_point0_flipped(hj.leq_table(make_two_orbits()))],
], ids=["ensemble-3", "stab2", "relabel-244", "uneven-orbits", "emptied-image",
        "one-orbit", "set-level"])
def test_block_readers_match_dense_levels(tables):
    rng = random.Random(0)
    for table in tables():
        assert sorted(np.concatenate(table.blocks).tolist()) == list(range(table.npoints))
        assert np.array_equal(table.rank_condition(), dense_rank_condition(table))
        alphas = [*range(1, table.max_level() + 1)]
        if table.stabilized:
            alphas += [table.max_level() + 1, STAB]
        for alpha in alphas:
            dense = table.level(alpha)
            cover = dense.any(axis=1).all(axis=2)
            assert np.array_equal(table.equiv_matrix(alpha), cover & cover.T)
            for quad in leq_quads(table, rng):
                assert table.leq(*quad, alpha) == dense[quad]


def test_rank_pass_builds_no_dense_level():
    # one dense level of the relabel-hjorth table is pairs^2 bytes (15.2 MB);
    # the build, every point's rank and m, and the rank partition read the
    # 44 orbit blocks alone and peak at 0.09 pairs^2
    sys = relabel_hjorth_system()
    pairs = len(sys.points) * len(sys.basis)
    assert pairs == 3904
    tracemalloc.start()
    try:
        table = hj.leq_table(sys)
        for x in range(table.npoints):
            hj.hjorth_rank(table, x)
            hj.minimal_m(table, x)
        hj.partition_by_rank(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.blocks) == 44
    assert peak <= 0.25 * pairs ** 2
