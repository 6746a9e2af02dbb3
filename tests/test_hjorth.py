import random
import tracemalloc

import numpy as np
import pytest

from rankforge.actions import (ALL_SUBSETS, FiniteDiscreteAction,
                               FiniteLogicAction, scott_hjorth_comparison)
from rankforge.common import (STAB, BudgetError, InvalidBaseRelationError,
                              RankforgeError, UnsupportedOperationError)
from rankforge import hjorth as hj
from rankforge.verify import CorruptedSystem

from conftest import EDGE_SIG, edge_structures, make_sys1


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


def test_orbit_check_and_minimal_m(sys1):
    table = hj.leq_table(sys1)
    assert hj.orbit_check_via_rank(table, 0, 1, cross_check=True)
    assert not hj.orbit_check_via_rank(table, 0, 2, cross_check=True)
    assert hj.orbit_check_via_rank(table, 2, 2)
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


def test_vaught_needs_action():
    class Bare(hj.ActionSystem):
        points = ["0"]
        basis = ["b"]

        def contains(self, w, v):
            return True

        def cc(self, x0, v0, x1, v1):
            return True

    with pytest.raises(UnsupportedOperationError):
        hj.vaught_star(Bare(), {0}, 0)


def test_star_orbit_equivalence(sys1, basis_index):
    bi = basis_index
    table = hj.leq_table(sys1)
    assert hj.star_orbit_equivalence_check(table, 1, bi["{e}"], 0, bi["{s}"]) == \
        (True, True)
    assert hj.star_orbit_equivalence_check(table, 2, bi["{e}"], 0, bi["{e,s}"]) == \
        (False, False)
    assert hj.star_orbit_equivalence_check(table, 0, bi["{e,s}"], 0, bi["{e,s}"]) == \
        (True, True)


def test_fixed_point_set(sys1, basis_index):
    bi = basis_index
    table = hj.leq_table(sys1)
    result = hj.fixed_point_set(table, bi["{s}"])
    assert result.direct == frozenset({2})
    assert result.applicable and result.agree
    assert hj.fixed_point_set(table, bi["{e}"]).direct == frozenset({0, 1, 2})


def test_partition_and_compare(sys1):
    table = hj.leq_table(sys1)
    assert hj.partition_by_rank(table) == [(1, frozenset({0, 1, 2}))]
    assert hj.compare_ranks(table, 0, 2) == "="
    assert hj.compare_ranks(table, 1, 1) == "="


def test_basis_shift_identical_and_alt(sys1):
    table = hj.leq_table(sys1)
    same = hj.leq_table(sys1.with_basis(sys1.basis_sets))
    assert set(hj.basis_shift_check(table, same).values()) == {0}
    alt = hj.leq_table(sys1.with_basis([frozenset([0]), frozenset([1]),
                                        frozenset([0, 1])]))
    assert all(d <= 1 for d in hj.basis_shift_check(table, alt).values())


def test_invalid_base_relation_aborts(sys1):
    corrupted = CorruptedSystem(make_sys1(), (0, 0, 2, 0))
    with pytest.raises(InvalidBaseRelationError) as err:
        hj.leq_table(corrupted)
    # level 2 adds (2,{e}) <= (0,{e}) and (2,{e}) <= (0,{e,s}): the witness
    # is the first in index order
    assert err.value.witness == (2, 0, 0, 0)


def make_non_basis_family() -> FiniteDiscreteAction:
    """C3 acting on itself with the family {e,r}, {e,r2}, {e,r,r2}."""
    return FiniteDiscreteAction(
        3, [("e", (0, 1, 2)), ("r", (1, 2, 0)), ("r2", (2, 0, 1))],
        [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2})])


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
        hj.orbit_check_via_rank(table, x, 0, cross_check=True)
        hj.compare_ranks(table, x, 0)
        hj.star_orbit_equivalence_check(table, x, 0, 0, nbasis - 1)
    hj.partition_by_rank(table)
    hj.basis_shift_check(table, hj.leq_table(make()))
    for u in range(nbasis):
        hj.fixed_point_set(table, u)
    if isinstance(sys, FiniteLogicAction):
        m = sys.structures[0]
        scott_hjorth_comparison(table, m, (0,), m, (0,), (1,))
    assert vars(sys) == before


def test_table_budget():
    big = FiniteDiscreteAction(4, [("e", (0, 1, 2, 3))], ALL_SUBSETS)
    with pytest.raises(BudgetError):
        hj.LevelTable(big, table_pairs_budget=2)


def test_records_format():
    assert hj.leq_record(2, "0", "{e}", "1", "{s}", True) == \
        "LEQ level=2 x0=0 V0={e} x1=1 V1={s} val=1"
    assert hj.rank_record("L2", 1, 3) == "RANK point=L2 delta=1 stab=3"
    assert hj.rank_record("0", 1, 1, 0) == "RANK point=0 delta=1 stab=1 m=0"
    assert hj.check_record("x", True) == "CHECK name=x verdict=pass witness=-"
    assert hj.check_record("x", False, "(q)") == \
        "CHECK name=x verdict=fail witness=(q)"


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
    for k in range(len(table.levels) - 1):
        assert not (table.levels[k + 1] & ~table.levels[k]).any()
    assert isinstance(table.levels[0], np.ndarray)


def build_outcome(sys):
    """The stab and level arrays of a table, or the witness and message of
    its abort."""
    try:
        table = hj.leq_table(sys)
    except InvalidBaseRelationError as err:
        return err.witness, str(err)
    return table.stab, table.levels


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
], ids=["sys1", "non-basis", "logic-84", "corrupted"])
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
    # 210 points x 16 basis sets: each level is P^2 bytes for P = 3,360
    # pairs.  T_1, one sweep and its growth test peak at 3.0 P^2 in row
    # blocks; whole P x P float32 products took 10.3 P^2.
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
    assert peak <= 4 * pairs ** 2
