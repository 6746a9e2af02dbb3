import itertools
import random
import tracemalloc

import numpy as np
import pytest

from rankforge import hjorth as hj
from rankforge import oracle as orc
from rankforge import scott as sc
from rankforge import verify as vf
from rankforge.actions import (ALL_SUBSETS, FiniteDiscreteAction, FiniteLogicAction,
                               _all_structures)
from rankforge.common import STAB, BudgetError, Budgets
from rankforge.hjorth import LevelTable, leq_table
from rankforge.oracle import LeqOracle
from rankforge.structures import (FinStructure, Signature, canonical_form,
                                  permute_structure)

from conftest import (EDGE_SIG, CorruptedSystem, chain, make_non_basis_family,
                      make_stab2_system, make_sys1, set_level)


@pytest.fixture(scope="module")
def small_ensemble():
    return vf.ensemble(3, 12)


@pytest.fixture(scope="module")
def small_tables(small_ensemble):
    return [leq_table(s) for s in small_ensemble]


def by_name(checks):
    return {c.name: c for c in checks}


def test_ensemble_deterministic_and_capped():
    a = vf.ensemble(5, 20)
    b = vf.ensemble(5, 20)
    assert [(s.size, s.group, s.perms) for s in a] == \
        [(s.size, s.group, s.perms) for s in b]
    assert all(s.size <= 6 and len(s.group) <= 8 for s in a)
    assert any(len(s.group) >= 2 for s in a)


def test_lemma_suite_passes(small_ensemble, small_tables):
    checks = ([vf.leq_oracle_check(small_ensemble, small_tables)]
              + vf.run_lemmas(small_tables))
    assert all(c.passed for c in checks), [c.record() for c in checks]
    assert {"leq_oracle_equivalence", "leq_transitivity", "level_monotonicity",
            "set_monotonicity", "translation_invariance", "equiv_invariance",
            "stabilized_equiv_invariant_sets"} <= set(by_name(checks))


def test_lemma_suite_catches_corruption(monkeypatch):
    # the corrupted base relation makes a level grow, so no table is built and
    # each table suite reports that failure, named by system, as its one check
    corrupted = CorruptedSystem(make_sys1(), (0, 0, 2, 0))
    monkeypatch.setattr(vf, "ensemble", lambda *args: [make_sys1(), corrupted])
    reports = vf.run_suite("all", seed=0, sizes={"n": 1}, count=2)
    assert [r.suite for r in reports] == list(vf.SUITES)
    for report in reports:
        if report.suite == "comparison":
            assert all(c.passed for c in report.checks)
            continue
        [check] = report.checks
        assert not check.passed and check.name == "level_monotonicity"
        assert check.witness == "sys1:(x0=2,V0={e},x1=0,V1={e})"


def test_oracle_check_catches_corrupted_base_relation():
    # the clean table against the recursion over a corrupted cc: the flipped
    # entry is the seventh quadruple, and level 1 is compared first
    corrupted = CorruptedSystem(make_sys1(), (0, 0, 2, 0))
    check = vf.leq_oracle_check([corrupted], [leq_table(make_sys1())])
    assert not check.passed
    assert check.witness == "sys0:(x0=0,V0={e},x1=2,V1={e})@level=1"
    assert check.stats == {"quadruples": 7}


class _LastLevelFlipped:
    """A stabilized table whose level stab+1 has its last quadruple flipped."""

    def __init__(self, table):
        self.table = table
        self.stab, self.npoints, self.nbasis = table.stab, table.npoints, table.nbasis

    def level(self, alpha):
        arr = self.table.level(alpha)
        if alpha == self.stab + 1:
            arr = arr.copy()
            arr[-1, -1, -1, -1] ^= True
        return arr


def test_oracle_check_reaches_last_level_and_quadruple():
    sys1 = make_sys1()
    table = leq_table(sys1)
    check = vf.leq_oracle_check([sys1, sys1], [table, _LastLevelFlipped(table)])
    assert not check.passed
    assert check.witness == \
        f"sys1:(x0=2,V0={{e,s}},x1=2,V1={{e,s}})@level={table.stab + 1}"
    assert check.stats == {"quadruples": 2 * 81}


def per_quadruple_mismatch(sys, table):
    """The comparison one query at a time: each quadruple in index order,
    each level from 1 up.  Kept as the reference for the level comparison."""
    levels = list(range(1, table.stab + 2))
    oc = LeqOracle(sys, depth_cap=table.stab + 2)
    arrays = [table.level(a) for a in levels]
    quads = 0
    for x0 in range(table.npoints):
        for v0 in range(table.nbasis):
            rows = [arr[x0, v0].tolist() for arr in arrays]
            for x1 in range(table.npoints):
                for v1 in range(table.nbasis):
                    quads += 1
                    for a, row in zip(levels, rows):
                        if oc.query(x0, v0, x1, v1, a) != row[x1][v1]:
                            witness = vf.quad_witness(sys, x0, v0, x1, v1)
                            return f"{witness}@level={a}", quads
    return None, quads


class _Flipped:
    """A stabilized table with the given (level, quadruple) entries flipped."""

    def __init__(self, table, flips):
        self.table, self.flips = table, flips
        self.stab, self.npoints, self.nbasis = table.stab, table.npoints, table.nbasis

    def level(self, alpha):
        arr = self.table.level(alpha).copy()
        for level, quad in self.flips:
            if level == alpha:
                arr[quad] ^= True
        return arr


@pytest.mark.parametrize("flips, witness, quads", [
    # level 1 flipped at (x1,V1) = (2,{e}), level 2 at the smaller (1,{e})
    ([(1, (0, 0, 2, 0)), (2, (0, 0, 1, 0))], "(x0=0,V0={e},x1=1,V1={e})@level=2", 4),
    # one quadruple flipped at both levels: the lower level is reported
    ([(2, (0, 1, 1, 1)), (1, (0, 1, 1, 1))], "(x0=0,V0={s},x1=1,V1={s})@level=1", 14),
    # a level-2 flip in an earlier row than a level-1 flip
    ([(1, (1, 0, 0, 0)), (2, (0, 2, 2, 2))], "(x0=0,V0={e,s},x1=2,V1={e,s})@level=2", 27),
])
def test_level_comparison_reports_first_quadruple_then_lowest_level(flips, witness,
                                                                    quads):
    sys1 = make_sys1()
    table = leq_table(sys1)
    assert table.stab == 1
    flipped = _Flipped(table, flips)
    assert vf.oracle_mismatch(sys1, flipped) == (witness, quads)
    assert per_quadruple_mismatch(sys1, flipped) == (witness, quads)


def test_oracle_check_at_depth_on_the_stab2_system():
    # the sweep changes T_1 here, so levels 1-3 are all compared with the
    # recursion, and every lemma holds
    sys = make_stab2_system()
    table = leq_table(sys)
    assert table.stab == 2
    assert (table.level(1) != table.level(2)).any()
    check = vf.leq_oracle_check([sys], [table])
    assert check.passed and check.stats == {"quadruples": (5 * 12) ** 2}
    assert vf.oracle_mismatch(sys, table) == per_quadruple_mismatch(sys, table)
    checks = [check] + vf.run_lemmas([table])
    assert len(checks) == 7 and all(c.passed for c in checks), \
        [c.record() for c in checks if not c.passed]


def test_level2_flip_on_the_stab2_system_is_a_level2_witness():
    # the first entry that the sweep changed, flipped back at level 2 only:
    # a stand-in whose level 2 repeats T_1 there
    sys = make_stab2_system()
    table = leq_table(sys)
    quad = tuple(int(i) for i in np.argwhere(table.level(1) != table.level(2))[0])
    assert quad == (0, 0, 0, 10)
    flipped = _Flipped(table, [(2, quad)])
    witness = f"{vf.quad_witness(sys, *quad)}@level=2"
    assert vf.oracle_mismatch(sys, flipped) == (witness, 11)
    assert per_quadruple_mismatch(sys, flipped) == (witness, 11)
    check = vf.leq_oracle_check([sys], [flipped])
    assert not check.passed and check.witness == f"sys0:{witness}"


def test_oracle_check_reaches_a_level2_flip_in_the_last_system():
    # the stab-2 twin of test_oracle_check_reaches_last_level_and_quadruple:
    # the last cell true at level 1 and false at level 2, flipped at level 2
    # in the second of two tables, is that table's witness at level 2, after
    # every quadruple of the first table
    sys = make_stab2_system()
    table = leq_table(sys)
    quad = tuple(int(i) for i in np.argwhere(table.level(1) & ~table.level(2))[-1])
    assert quad == (3, 11, 3, 9)
    check = vf.leq_oracle_check([sys, sys], [table, _Flipped(table, [(2, quad)])])
    assert not check.passed
    assert check.witness == f"sys1:{vf.quad_witness(sys, *quad)}@level=2"
    count = ((3 * 12 + 11) * 5 + 3) * 12 + 9 + 1
    assert check.stats == {"quadruples": (5 * 12) ** 2 + count}


def test_level3_flip_on_the_stab2_system_is_a_level3_witness():
    # level stab + 1 = 3 is the stored stab level; one entry flipped there
    # alone is found at level 3, with every quadruple before it counted
    sys = make_stab2_system()
    table = leq_table(sys)
    quad = (2, 5, 3, 7)
    flipped = _Flipped(table, [(3, quad)])
    witness = f"{vf.quad_witness(sys, *quad)}@level=3"
    count = ((2 * 12 + 5) * 5 + 3) * 12 + 7 + 1
    assert vf.oracle_mismatch(sys, flipped) == (witness, count)
    assert per_quadruple_mismatch(sys, flipped) == (witness, count)


def test_level_comparison_matches_per_quadruple_loop_on_corruptions(small_ensemble,
                                                                     small_tables):
    # every system of the ensemble, three seeded flips of its cc each, against
    # its clean table; the flip's level-2 consequences can come first.  Some
    # tables have two or more orbit blocks, so their dense levels are
    # assembled, false off the blocks, before they are compared
    assert any(len(table.blocks) >= 2 for table in small_tables)
    rng = random.Random(5)
    levels_seen = set()
    for sys, table in zip(small_ensemble, small_tables):
        npoints, nb = len(sys.points), len(sys.basis)
        assert vf.oracle_mismatch(sys, table) == (None, (npoints * nb) ** 2)
        for _ in range(3):
            quad = (rng.randrange(npoints), rng.randrange(nb),
                    rng.randrange(npoints), rng.randrange(nb))
            corrupted = CorruptedSystem(sys, quad)
            got = vf.oracle_mismatch(corrupted, table)
            assert got == per_quadruple_mismatch(corrupted, table), quad
            assert got[0] is not None
            levels_seen.add(got[0].rpartition("=")[2])
    assert levels_seen == {"1", "2"}


def test_oracle_comparison_memory_peak():
    # the largest system of the verify-oracle ensemble, 6 points x 63 basis
    # sets: two levels of one byte per quadruple (2 x 142,884 bytes) and the
    # subset lists peak at 320,038 bytes, each level compared as a view; a
    # dict memo keyed on tuples peaked at 33.2 MB
    sys = max(vf.ensemble(7, 20), key=lambda s: len(s.points) * len(s.basis))
    pairs = len(sys.points) * len(sys.basis)
    assert pairs == 378
    table = leq_table(sys)
    sys.cc(0, 0, 0, 0)  # the system builds its cc sets on first use
    tracemalloc.start()
    try:
        mismatch, compared = vf.oracle_mismatch(sys, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mismatch is None and compared == pairs ** 2
    assert peak <= 2 * pairs ** 2 + 64_000


class _IdentityTranslate(FiniteLogicAction):
    """A relabeling system whose translate always answers the identity coset."""

    def translate(self, v, g):
        return self.basis_of((0, 1), (0, 1))


def test_lemma_suite_checks_translation_on_a_logic_action():
    sysl = FiniteLogicAction(EDGE_SIG, 2, 2)
    table = leq_table(sysl)
    assert vf.leq_oracle_check([sysl], [table]).passed
    assert all(c.passed for c in vf.run_lemmas([table]))
    checks = vf.run_lemmas([leq_table(_IdentityTranslate(EDGE_SIG, 2, 2))])
    failing = [c for c in checks if not c.passed]
    assert [c.name for c in failing] == ["translation_invariance"]
    assert failing[0].witness == "sys0:level=1:g=01,x=M1,V=V[->]"


def test_suite_witnesses_on_a_non_basis_family():
    tables = [leq_table(make_sys1()), leq_table(make_non_basis_family())]
    lemmas = by_name(vf.run_lemmas(tables))
    assert lemmas["equiv_invariance"].witness == "sys1:level=1:x=0,g=r"
    invsets = lemmas["stabilized_equiv_invariant_sets"]
    assert invsets.witness == "sys1:(0,1)" and invsets.stats == {"systems": 2}
    iso = by_name(vf.run_iso(tables))
    assert iso["isomorphism_theorem"].witness == "sys1:(0,1)"
    assert iso["minimal_m_finite"].witness == "sys1:0"
    assert iso["finite_discrete_collapse"].witness == "sys1:stab=2"
    vaught = by_name(vf.run_vaught(tables, 0, 20))
    assert vaught["vaught_basis_intersection"].witness == "sys1:A={0,1},U={e,r}"
    assert vaught["star_orbit_equivalence"].witness == \
        "sys1:(y=2,W={e,r,r2},x=0,V={e,r,r2})"


def test_invariant_sets_law_skips_systems_past_the_orbit_cap():
    # five fixed points are five orbits, one more than invariant_sets allows
    trivial = FiniteDiscreteAction(5, [("e", (0, 1, 2, 3, 4))], ALL_SUBSETS)
    tables = [leq_table(trivial), leq_table(make_sys1()), leq_table(trivial)]
    check = by_name(vf.run_lemmas(tables))["stabilized_equiv_invariant_sets"]
    assert check.passed and check.stats == {"systems": 1}


def test_rank_check_witnesses(monkeypatch):
    # a rank raised at point 1 breaks orbit invariance of the first system
    tables = [leq_table(s) for s in vf.ensemble(3, 6)]
    rank = hj.hjorth_rank
    monkeypatch.setattr(hj, "hjorth_rank",
                        lambda table, x: rank(table, x) + (x == 1))
    iso = by_name(vf.run_iso(tables))
    assert iso["rank_orbit_invariance"].witness == "sys0:x=0,g=g1"
    assert iso["rank_partition"].witness == "sys0:rank=1,g=g1"
    assert iso["rank_comparison_consistency"].witness == "sys0:(0,1)"


def test_isomorphism_theorem_checks_orbit_check_via_rank(monkeypatch):
    # one pair flipped in the engine's verdict of the third system
    tables = [leq_table(s) for s in vf.ensemble(3, 6)]
    check = hj.orbit_check_via_rank

    def flipped(table):
        verdict = check(table).copy()
        if table is tables[2]:
            verdict[1, 2] = not verdict[1, 2]
        return verdict

    assert by_name(vf.run_iso(tables))["isomorphism_theorem"].passed
    monkeypatch.setattr(hj, "orbit_check_via_rank", flipped)
    assert by_name(vf.run_iso(tables))["isomorphism_theorem"].witness == "sys2:(1,2)"


def test_rank_orbit_invariance_witness_is_first_in_g_x_order(monkeypatch):
    # a rank raised at point 5: g1 carries 1 to 5 and g2 carries 0 to 5, so
    # (g, x) order meets (g1, 1) first where (x, g) order would meet (g2, 0)
    tables = [leq_table(s) for s in vf.ensemble(3, 6)]
    sys = tables[0].sys
    assert (sys.act(1, 1), sys.act(2, 0)) == (5, 5)
    rank = hj.hjorth_rank
    monkeypatch.setattr(hj, "hjorth_rank",
                        lambda table, x: rank(table, x) + (x == 5))
    iso = by_name(vf.run_iso(tables))
    assert iso["rank_orbit_invariance"].witness == "sys0:x=1,g=g1"
    assert iso["rank_comparison_consistency"].witness == "sys0:(0,5)"


def _with_entries(table, level, quads, value):
    """The table with a corrupted copy of one level: each quadruple
    (x0, V0, x1, V1) set to ``value``."""
    arr = table.level(level).copy()
    for quad in quads:
        arr[quad] = value
    return set_level(table, level, arr)


def test_corruption_reaches_entries_off_the_orbit_blocks():
    # sys1's points 0,1 and 2 are two orbit blocks; the block readers see an
    # entry set between them once the table is in one-block form
    table = leq_table(make_sys1())
    assert [b.tolist() for b in table.blocks] == [[0, 1], [2]]
    assert not table.leq(0, 0, 2, 0, 1)
    table = _with_entries(table, 1, [(0, 0, 2, 0)], True)
    assert len(table.blocks) == 1
    assert table.leq(0, 0, 2, 0, 1) and table.level(1)[0, 0, 2, 0]
    assert not table.leq(2, 0, 0, 0, 1)


@pytest.mark.parametrize("cleared, failing", [
    # (2,{e,s}) <= (2,{e}) cleared: it is the chain's step from q0=8 to q2=6
    ([(2, 2, 2, 0)], {"leq_transitivity": "sys1:level=1:q0=8,q2=6"}),
    # (0,{e}) <= (0,{e,s}) cleared as well: the entry first in index order
    # is the witness of both laws
    ([(2, 2, 2, 0), (0, 0, 0, 2)], {"leq_transitivity": "sys1:level=1:q0=0,q2=2",
                                    "set_monotonicity": "sys1:level=1:q0=0,q1=2"}),
])
def test_chain_law_witnesses_on_a_corrupted_level(cleared, failing):
    table = _with_entries(leq_table(make_sys1()), 1, cleared, False)
    checks = vf.run_lemmas([leq_table(make_sys1()), table])
    assert {c.name: c.witness for c in checks if not c.passed} == failing


@pytest.mark.parametrize("level, quad, failing", [
    # level 2 of the stab-2 table given an entry false at level 1
    (2, (0, 0, 0, 2), {"leq_transitivity": "sys1:level=2:q0=0,q2=3",
                       "level_monotonicity": "sys1:level=2",
                       "set_monotonicity": "sys1:level=2:q0=0,q1=10"}),
    # a third level, level 2 again plus an entry true only at level 1
    (3, (0, 0, 0, 10), {"leq_transitivity": "sys1:level=3:q0=0,q2=11",
                        "level_monotonicity": "sys1:level=3"}),
])
def test_level_monotonicity_names_the_system_and_the_level_that_grew(level, quad,
                                                                       failing):
    table = leq_table(make_stab2_system())
    if level == 3:
        set_level(table, 3, table.level(2))
    table = _with_entries(table, level, [quad], True)
    checks = vf.run_lemmas([leq_table(make_sys1()), table])
    assert {c.name: c.witness for c in checks if not c.passed} == failing


def test_table_suite_records_on_the_stab2_ensemble(monkeypatch):
    # the stab-2 system fails three checks as sys0; each system's draws are
    # made before any law reads them (Vaught: each draw's shared sets and
    # star points, then the fixed-point picks; basis: the extra sets, then
    # the subgroup generators), which the patched runs below pin
    tables = [leq_table(s) for s in [make_stab2_system()] + vf.ensemble(3, 6)]
    checks = (vf.run_lemmas(tables) + vf.run_iso(tables) + vf.run_vaught(tables, 0, 200)
              + vf.run_basis(tables, 0))
    failing = {c.name: c.witness for c in checks if not c.passed}
    assert failing == {
        "finite_discrete_collapse": "sys0:stab=2",
        "vaught_basis_intersection": "sys0:A={0,1,2},U={g0,g1,g2,g4,g5}",
        "star_orbit_equivalence":
            "sys0:(y=3,W={g0,g1,g3,g4,g5},x=1,V={g1,g2,g3,g4,g5})",
    }
    assert [c.name for c in checks] == [
        "leq_transitivity", "level_monotonicity", "set_monotonicity",
        "translation_invariance", "equiv_invariance", "stabilized_equiv_invariant_sets",
        "isomorphism_theorem", "minimal_m_finite", "finite_discrete_collapse",
        "rank_orbit_invariance", "rank_partition", "rank_comparison_consistency",
        "vaught_invariance", "vaught_duality", "vaught_union_intersection",
        "vaught_basis_intersection", "star_orbit_equivalence",
        "fixed_point_characterization",
        "basis_shift_bound", "clopen_subgroup_bound"]
    assert {c.name: c.stats for c in checks if c.stats} == \
        {"stabilized_equiv_invariant_sets": {"systems": 7}}

    # every fixed-point pick disagrees: the stab-2 system has no singleton
    # basis sets, so the law skips it, and the first pick of sys1 is the
    # witness
    monkeypatch.setattr(hj, "fixed_point_set",
                        lambda table, u: (frozenset(), frozenset({0})))
    vaught = by_name(vf.run_vaught(tables, 0, 200))
    assert vaught["fixed_point_characterization"].witness == \
        "sys1:U={e}:direct={},table={0}"

    # ranks raised on tables of groups of order <= 2 that are not ensemble
    # tables: the first system whose drawn subgroup is that small fails
    rank = hj.hjorth_rank
    monkeypatch.setattr(hj, "hjorth_rank", lambda table, x: rank(table, x) + 3 * (
        all(table is not t for t in tables) and len(table.sys.group) <= 2))
    basis = by_name(vf.run_basis(tables, 0))
    assert basis["basis_shift_bound"].witness == "sys4:x=0:shift=3"
    assert basis["clopen_subgroup_bound"].witness == "sys2:O={e,g3}:4>1+1"


def test_each_vaught_and_basis_law_alone_gives_its_suite_witness(monkeypatch):
    # a law only reads its system's draws, so run alone through run_law, on
    # draws of its own and in reverse order, it gives its suite's witness
    tables = [leq_table(s) for s in [make_stab2_system()] + vf.ensemble(3, 6)]
    vaught_laws = (vf.vaught_invariance, vf.vaught_duality,
                   vf.vaught_union_intersection, vf.vaught_basis_intersection,
                   vf.star_orbit_equivalence, vf.fixed_point_characterization)
    basis_laws = (vf.basis_shift_bound, vf.clopen_subgroup_bound)

    def alone():
        vaught = {law.__name__: vf.run_law(law.__name__, law,
                                           vf.vaught_draws(tables, 0, 200)).witness
                  for law in reversed(vaught_laws)}
        basis = {law.__name__: vf.run_law(law.__name__, law,
                                          vf.basis_draws(tables, 0)).witness
                 for law in reversed(basis_laws)}
        return vaught, basis

    def in_suite():
        return ({c.name: c.witness for c in vf.run_vaught(tables, 0, 200)},
                {c.name: c.witness for c in vf.run_basis(tables, 0)})

    vaught, basis = alone()
    assert (vaught, basis) == in_suite()
    assert [name for name, w in vaught.items() if w] == \
        ["star_orbit_equivalence", "vaught_basis_intersection"]
    # the patches of the suite test above make the other laws fail
    monkeypatch.setattr(hj, "fixed_point_set",
                        lambda table, u: (frozenset(), frozenset({0})))
    rank = hj.hjorth_rank
    monkeypatch.setattr(hj, "hjorth_rank", lambda table, x: rank(table, x) + 3 * (
        all(table is not t for t in tables) and len(table.sys.group) <= 2))
    vaught, basis = alone()
    assert (vaught, basis) == in_suite()
    assert vaught["fixed_point_characterization"] == "sys1:U={e}:direct={},table={0}"
    assert basis == {"clopen_subgroup_bound": "sys2:O={e,g3}:4>1+1",
                     "basis_shift_bound": "sys4:x=0:shift=3"}


def test_lemma_laws_read_no_level_past_stab(monkeypatch):
    # every level past stab is the stored stab level, so the lemma laws
    # read each level up to stab once and none above it (the invariant-sets
    # law reads STAB)
    asked = []
    level, equiv_matrix = LevelTable.level, LevelTable.equiv_matrix
    monkeypatch.setattr(LevelTable, "level",
                        lambda self, a: asked.append((self, a)) or level(self, a))
    monkeypatch.setattr(LevelTable, "equiv_matrix",
                        lambda self, a: asked.append((self, a)) or equiv_matrix(self, a))
    tables = [leq_table(s) for s in [make_stab2_system()] + vf.ensemble(7, 20)]
    asked.clear()
    vf.run_lemmas(tables)
    read = {(id(t), a) for t, a in asked if a != STAB}
    assert read == {(id(t), a) for t in tables for a in range(1, t.stab + 1)}


SCOTT_RANK = sc.scott_rank


def ranked_structures(monkeypatch, seed, exhaustive_n):
    """The verdicts of ``scott_structure_checks`` and every structure that
    its rank checks hand to ``scott_rank``, in call order: the rng stream
    that ``scott_iso_finite`` leaves to them."""
    ranked = []
    monkeypatch.setattr(sc, "scott_rank", lambda m: ranked.append(m) or SCOTT_RANK(m))
    checks = vf.scott_structure_checks(seed, exhaustive_n, 6)
    return {c.name: c.witness for c in checks}, ranked


class MergedRoots(sc.ScottTable):
    """A Scott table of more than two structures whose stabilized root
    classes are all one class."""

    def class_of(self, i, tup, alpha):
        if len(self.family) > 2 and tuple(tup) == () and alpha == STAB:
            return ("root",)
        return super().class_of(i, tup, alpha)


class FlippedCopy(sc.ScottTable):
    """A Scott table over more than 60 structures, the last 60 of them
    relabeled copies, whose stabilized root read of the 37th copy is a class
    of its own."""

    def class_of(self, i, tup, alpha):
        if (len(self.family) > 60 and i == len(self.family) - 60 + 36
                and tuple(tup) == () and alpha == STAB):
            return ("flipped",)
        return super().class_of(i, tup, alpha)


@pytest.mark.parametrize("seed, exhaustive_n, fault, witness", [
    # the 37th relabeled copy fails; the distinct pairs, drawn after every
    # copy, are not judged
    (7, 4, lambda mp: mp.setattr(sc, "ScottTable", FlippedCopy),
     "rep 100: relabeled copy not stab-equivalent"),
    # the root-class check fails before any sample is judged, and every
    # copy and pair is still drawn
    (3, 3, lambda mp: mp.setattr(sc, "ScottTable", MergedRoots),
     "reps 0 and 1 share stabilized root class"),
], ids=["flipped-iso-check", "merged-roots"])
def test_scott_iso_finite_draws_every_sample_before_judging(monkeypatch, seed,
                                                            exhaustive_n, fault,
                                                            witness):
    clean, clean_ranked = ranked_structures(monkeypatch, seed, exhaustive_n)
    assert all(w is None for w in clean.values())
    fault(monkeypatch)
    faulty, faulty_ranked = ranked_structures(monkeypatch, seed, exhaustive_n)
    assert faulty == {**clean, "scott_iso_finite": witness}
    assert faulty_ranked == clean_ranked and len(clean_ranked) == 41


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_iso_finite_copy_reads_match_pair_tables(monkeypatch, seed):
    # scott_iso_finite judges each relabeled copy by its root class in one
    # table over the reps and then the copies; a table of one rep and the
    # copy alone gives the same verdict, for the copy's rep and the next rep
    built = []

    class Recorded(sc.ScottTable):
        def __init__(self, family):
            super().__init__(family)
            built.append(self)

    monkeypatch.setattr(sc, "ScottTable", Recorded)
    assert by_name(vf.scott_structure_checks(seed, 4, 6))["scott_iso_finite"].passed
    reps = [m for n in range(1, 5) for m in vf.canonical_edge_representatives(n)]
    (table,) = [t for t in built if len(t.family) == len(reps) + 60]
    assert list(table.family[:len(reps)]) == reps
    index = {canonical_form(m): i for i, m in enumerate(reps)}
    for k, copy in enumerate(table.family[len(reps):], len(reps)):
        i = index[canonical_form(copy)]
        for j in (i, (i + 1) % len(reps)):
            same = table.class_of(k, (), STAB) == table.class_of(j, (), STAB)
            pair = sc.ScottTable((reps[j], copy)).equivalent(0, (), 1, (), STAB)
            assert same == pair == (j == i)


def test_rank_ladder_levels_match_pair_tables(monkeypatch):
    # the ladder reads each split level of L_m and L_m+1 from one table over
    # L_1 .. L_7, and hands it to the naive oracle; a table of the two
    # chains alone first separates their roots at the same level
    asked = {}

    class Recorded(orc.ScottOracle):
        def equiv(self, abar, bbar, alpha, flip=False):
            if tuple(abar) == ():
                asked.setdefault(self.m.size, alpha)
            return super().equiv(abar, bbar, alpha, flip)

    monkeypatch.setattr(orc, "ScottOracle", Recorded)
    assert by_name(vf.scott_structure_checks(0, 1, 6))["scott_rank_ladder"].passed
    pair_levels = []
    for m in range(1, 7):
        pair = sc.ScottTable((chain(m), chain(m + 1)))
        pair_levels.append(next(a for a in range(pair.stab + 1)
                                if not pair.equivalent(0, (), 1, (), a)))
    assert [asked[m] for m in range(1, 7)] == pair_levels == [2, 2, 3, 3, 3, 3]


def test_scott_rank_invariance_reads_its_draws_in_order(monkeypatch):
    # the rank check reads its 20 structures and relabelings as drawn, each
    # relabeling right after its structure: a rank that changes on call 41,
    # the last relabeled structure (call 1 is the ladder's), pins the last draw
    calls = [0]

    def counted(m):
        calls[0] += 1
        return SCOTT_RANK(m) + (calls[0] == 41)

    monkeypatch.setattr(sc, "scott_rank", counted)
    checks = by_name(vf.scott_structure_checks(7, 3, 6))
    assert checks["scott_rank_permutation_invariance"].witness == (
        "rank not invariant: [('edge', (0, 0)), ('edge', (0, 3)), ('edge', (1, 0)), "
        "('edge', (3, 0)), ('edge', (3, 2))] perm (0, 2, 1, 3)")
    assert calls[0] == 41


REAL_NUMBER = sc._number


def isolate_last_item(keys):
    """``scott._number`` with one refinement step corrupted: in a round from
    level 1 on (level-0 keys are int8 atom rows, later keys wider colours),
    the family's last item leaves its class for a colour of its own."""
    colors, count = REAL_NUMBER(keys)
    if keys.dtype != np.int8 and (colors == colors[-1]).sum() > 1:
        colors[-1], count = count, count + 1
    return colors, count


def test_corrupted_refinement_fails_the_scott_checks(monkeypatch, fresh_scott_cache):
    def records():
        checks = vf.scott_oracle_checks(3, 60, 4) + vf.scott_structure_checks(3, 3, 6)
        return {c.name: c.record() for c in checks}

    clean = records()
    assert all("verdict=pass" in r for r in clean.values())
    monkeypatch.setattr(sc, "_number", isolate_last_item)
    # every table of the run is served by the warm cache: the fault hides
    assert records() == clean
    fresh_scott_cache.cache_clear()
    faulty = records()
    assert "verdict=fail" in faulty["scott_oracle_exhaustive_small"]
    assert "verdict=fail" in faulty["scott_iso_finite"]


def test_mulclose_checks_generators_against_cap():
    assert vf.mulclose([(1, 0)], cap=1) is None
    assert vf.mulclose([(1, 2, 0), (2, 0, 1)], cap=2) is None
    assert vf.mulclose([(1, 2, 0), (2, 0, 1)], cap=3) == [(0, 1, 2), (1, 2, 0),
                                                          (2, 0, 1)]
    assert all(len(sys.group) == 1 for sys in vf.ensemble(0, 10, max_g=1))


def test_iso_suite_passes(small_tables):
    checks = (vf.run_iso(small_tables) + vf.scott_oracle_checks(3, 60, 4)
              + vf.scott_structure_checks(3, 3, 6))
    assert all(c.passed for c in checks), [c.record() for c in checks if not c.passed]


def test_vaught_suite_passes(small_tables):
    checks = vf.run_vaught(small_tables, 3, 60)
    assert all(c.passed for c in checks), [c.record() for c in checks if not c.passed]


def test_basis_suite_passes(small_tables):
    assert all(c.passed for c in vf.run_basis(small_tables, 3))


def test_comparison_suite_reports():
    report = vf.run_comparison(seed=3, max_n=2)
    by_name = {c.name: c for c in report.checks}
    assert by_name["scott_implies_hjorth"].passed
    assert by_name["scott_implies_hjorth"].stats["scanned"] > 0
    assert by_name["symbolic_window_drift"].passed
    cross = by_name["symbolic_finite_cc_crosscheck"]
    assert cross.passed and "divergences" in cross.stats
    assert cross.stats["cases"] == 100


def test_comparison_scan_counts():
    counterexamples, profile, scanned = vf.comparison_scan(max_n=2, seed=1)
    assert not counterexamples
    assert scanned > 0 and profile


def test_engine_matches_oracle_on_singleton_bases():
    # singletons+G is still a genuine basis of the discrete topology, so the
    # chain laws and the oracle agreement must survive the basis change
    from rankforge.actions import SINGLETONS_PLUS_G
    from rankforge.oracle import LeqOracle

    for sys in vf.ensemble(11, 10, max_g=6, max_x=5):
        alt = sys.with_basis(SINGLETONS_PLUS_G)
        table = leq_table(alt)
        oracle = LeqOracle(alt, depth_cap=table.stab + 2)
        npoints, nbasis = len(alt.points), len(alt.basis)
        for x0 in range(npoints):
            for v0 in range(nbasis):
                for x1 in range(npoints):
                    for v1 in range(nbasis):
                        for a in range(1, table.stab + 2):
                            assert oracle.query(x0, v0, x1, v1, a) == \
                                table.leq(x0, v0, x1, v1, a)


def test_shrink_point_set():
    fails = lambda s: 3 in s and 5 in s
    out = vf.shrink_point_set(frozenset({1, 2, 3, 4, 5}), fails)
    assert out == frozenset({3, 5})


def test_canonical_representatives_counts():
    assert len(vf.canonical_edge_representatives(1)) == 2
    assert len(vf.canonical_edge_representatives(2)) == 10
    reps3 = vf.canonical_edge_representatives(3)
    assert len(reps3) == 104
    from rankforge.structures import canonical_form
    forms = {canonical_form(m) for m in reps3}
    assert len(forms) == len(reps3)


def test_run_suite_dispatch():
    reports = vf.run_suite("basis", seed=2, sizes={"g": 4, "x": 4, "n": 2},
                           count=6)
    assert len(reports) == 1 and reports[0].suite == "basis"
    with pytest.raises(ValueError):
        vf.run_suite("nope", seed=0, sizes={})


@pytest.mark.parametrize("suite, sizes, tables", [
    # three ensemble tables, then each system's alternate-basis and
    # subgroup tables
    ("basis", {}, 9),
    # one table per S_n-orbit of edge structures: 2 at n=1, 10 at n=2
    ("comparison", {"n": 2}, 12),
], ids=["basis", "comparison"])
def test_every_table_build_gets_the_callers_budgets(monkeypatch, suite, sizes, tables):
    budgets = Budgets(table_pairs=5000)
    given = []
    build = hj.leq_table

    def spy(sys, max_level=None, budgets=None):
        given.append(budgets)
        return build(sys, max_level, budgets)

    monkeypatch.setattr(hj, "leq_table", spy)
    vf.run_suite(suite, seed=0, sizes=sizes, count=3, budgets=budgets)
    assert len(given) == tables and all(b is budgets for b in given)
    with pytest.raises(BudgetError, match="exceed the table budget of 1$"):
        vf.run_suite(suite, seed=0, sizes=sizes, count=3, budgets=Budgets(table_pairs=1))


def test_comparison_scan_builds_one_system_per_orbit(monkeypatch):
    built = []
    leq_calls = []
    leq = LevelTable.leq

    def counting(*args):
        built.append(args[1])
        return FiniteLogicAction(*args)

    def counting_leq(self, *args):
        leq_calls.append(args)
        return leq(self, *args)

    monkeypatch.setattr(vf, "FiniteLogicAction", counting)
    monkeypatch.setattr(LevelTable, "leq", counting_leq)
    counterexamples, _, scanned = vf.comparison_scan(max_n=3, max_tuple=2, seed=0)
    assert not counterexamples
    assert scanned == 140448
    # S_n-orbits of binary relations on 1, 2 and 3 elements; the profile
    # draws are read from these systems' tables, so no system is built per draw
    assert [built.count(n) for n in (1, 2, 3)] == [2, 10, 104]
    # the stabilized tables are read by gathers, the draws by level
    assert leq_calls == []


def _flip_stabilized(monkeypatch, flips):
    """Make ``hj.leq_table`` return tables whose stabilized level has each
    flip (M, t, N, u, bbar) toggled: the entry relating (M, V[t->bbar]) to
    (N, V[u->bbar]), in every system holding both structures."""
    build = hj.leq_table

    def faulty(sysb, *args, **kwargs):
        table = build(sysb, *args, **kwargs)
        level = table.level(STAB).copy()  # finished levels are read-only
        for m, t, n, u, bbar in flips:
            if m in sysb.structures and n in sysb.structures:
                level[sysb.point_of(m), sysb.basis_of(t, bbar),
                      sysb.point_of(n), sysb.basis_of(u, bbar)] ^= True
        return set_level(table, table.max_level(), level)

    monkeypatch.setattr(hj, "leq_table", faulty)


# (M, 0) and (N, 2) are stab-equivalent: the relabeling 0->2, 1->0, 2->1
# carries M to N (and (0, 1) to (2, 0))
M3 = FinStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1))}))
N3 = FinStructure(EDGE_SIG, 3, frozenset({("edge", (2, 0))}))
# the swap carries M2 to N2 and 0 to 1
M2 = FinStructure(EDGE_SIG, 2, frozenset({("edge", (0, 1))}))
N2 = FinStructure(EDGE_SIG, 2, frozenset({("edge", (1, 0))}))


def test_comparison_scan_reports_an_injected_failure(monkeypatch):
    # fail the stabilized entry of one coset pair of (M, 0) and (N, 2)
    structures = _all_structures(EDGE_SIG, 3)
    target = (3, structures.index(M3), (0,), structures.index(N3), (2,), (1,))
    _flip_stabilized(monkeypatch, [(M3, (0,), N3, (2,), (1,))])
    counterexamples, _, scanned = vf.comparison_scan(max_n=3, max_tuple=2, seed=0)
    assert counterexamples == [target]
    assert vf.comparison_witness(counterexamples) == \
        f"n=3:M{target[1]}(0,)~M{target[3]}(2,)->b=(1,)"
    assert scanned == 140448


def per_quadruple_scan(max_n, max_tuple, signature):
    """The scan one stabilized query at a time, each (member, member, bbar)
    of each stab-class in turn.  Kept as the reference for the gather."""
    counterexamples, scanned = [], 0
    for n in range(1, max_n + 1):
        structures = _all_structures(signature, n)
        table = sc.ScottTable(structures)
        cosets = {}
        items = [(i, t) for i in range(len(structures))
                 for ln in range(min(max_tuple, n) + 1)
                 for t in itertools.permutations(range(n), ln)]
        by_class = {}
        for i, t in items:
            by_class.setdefault(table.class_of(i, t, STAB), []).append((i, t))
        by_orbit = {}
        for members in by_class.values():
            orbit = table.class_of(members[0][0], (), STAB)
            by_orbit.setdefault(orbit, []).append(members)
        for classes in by_orbit.values():
            sysp = FiniteLogicAction(signature, n, n, [structures[classes[0][0][0]]])
            ptab = hj.leq_table(sysp)
            for members in classes:
                bbars = list(itertools.permutations(range(n), len(members[0][1])))
                refs = []
                for i, t in members:
                    if t not in cosets:
                        cosets[t] = [sysp.basis_of(t, bbar) for bbar in bbars]
                    refs.append((i, t, sysp.point_of(structures[i]), cosets[t]))
                for (i, t, pi, vs), (j, u, pj, ws) in itertools.product(refs, repeat=2):
                    for bbar, v, w in zip(bbars, vs, ws):
                        scanned += 1
                        if not ptab.leq(pi, v, pj, w, STAB):
                            counterexamples.append((n, i, t, j, u, bbar))
    return counterexamples, scanned


EDGE1_COL1 = Signature((("edge", 1), ("col", 1)))
EMPTY_SIG = Signature(())


def relabel_flips(signature):
    """Flips of stab-related entries at n = 2 and 3: (M, t) and (N, u) with
    N the image of M and u the image of t under the cyclic shift, each way
    round, for t of every length (its last elements, reversed) and a bbar
    (its first elements, reversed)."""
    flips = []
    for n in (2, 3):
        shift = tuple(range(1, n)) + (0,)
        structures = _all_structures(signature, n)
        m = structures[len(structures) // 3]
        image = permute_structure(m, shift)
        for ln in range(n + 1):
            t = tuple(range(n - 1, n - 1 - ln, -1))
            u = tuple(shift[e] for e in t)
            bbar = tuple(range(ln))[::-1]
            # a set: where the two ways round are one entry (an empty tuple
            # of a structure its shift fixes), a second flip would undo it
            flips += {(m, t, image, u, bbar), (image, u, m, t, bbar[::-1])}
    return flips


@pytest.mark.parametrize("max_tuple", [0, 1, 2, 3])
@pytest.mark.parametrize("signature", [EDGE_SIG, EDGE1_COL1, EMPTY_SIG],
                         ids=["edge2", "edge1_col1", "empty"])
def test_comparison_scan_gather_matches_per_quadruple_loop(monkeypatch, signature,
                                                           max_tuple):
    # each structure's items are the first entries of its Scott table block,
    # so their count depends on both the tuple cap and the signature
    structures = _all_structures(EDGE_SIG, 3)
    # members of a class are listed by structure index, so N -> M is a > b
    assert structures.index(M3) < structures.index(N3)
    edge_flips = [
        # two flips in one class, the later bbar listed first
        (M3, (0,), N3, (2,), (1,)),
        (M3, (0,), N3, (2,), (0,)),
        # a > b in the same class
        (N3, (2,), M3, (0,), (2,)),
        # two more classes of the same orbit: pairs and the empty tuple
        (M3, (0, 1), N3, (2, 0), (1, 2)),
        (N3, (), M3, (), ()),
        # a flip at n=2
        (M2, (0,), N2, (1,), (0,)),
    ]
    _flip_stabilized(monkeypatch, edge_flips if signature == EDGE_SIG
                     else relabel_flips(signature))
    counterexamples, _, scanned = vf.comparison_scan(max_n=3, max_tuple=max_tuple,
                                                     seed=0, signature=signature)
    assert (counterexamples, scanned) == per_quadruple_scan(3, max_tuple, signature)
    # every tuple cap scans an empty-tuple flip
    assert counterexamples
    if (signature, max_tuple) != (EDGE_SIG, 2):
        return
    # scan order: n, then orbit and class (by first item), then (a, b, bbar);
    # a flipped entry fails every descriptor pair naming its two cosets (in
    # S_2, V[0->0] = V[1->1] = V[01->01]; in S_3 a pair fixes the permutation)
    m, n = structures.index(M3), structures.index(N3)
    m2, n2 = [_all_structures(EDGE_SIG, 2).index(s) for s in (M2, N2)]
    assert counterexamples == [
        (2, m2, (0,), n2, (1,), (0,)),
        (2, m2, (1,), n2, (0,), (1,)),
        (2, m2, (0, 1), n2, (1, 0), (0, 1)),
        (2, m2, (1, 0), n2, (0, 1), (1, 0)),
        (3, n, (), m, (), ()),
        (3, m, (0,), n, (2,), (0,)),
        (3, m, (0,), n, (2,), (1,)),
        (3, n, (2,), m, (0,), (2,)),
        (3, m, (0, 1), n, (2, 0), (1, 2)),
        (3, m, (0, 2), n, (2, 1), (1, 0)),
        (3, m, (1, 0), n, (0, 2), (2, 1)),
        (3, m, (1, 2), n, (0, 1), (2, 0)),
        (3, m, (2, 0), n, (1, 2), (0, 1)),
        (3, m, (2, 1), n, (1, 0), (0, 2)),
    ]
    assert scanned == 140448


def test_comparison_scan_pins_count_and_profile():
    counterexamples, profile, scanned = vf.comparison_scan(max_n=3, seed=0)
    assert not counterexamples and scanned == 140448
    assert profile == {("scott=0", "hjorth=0"): 166, ("scott=1", "hjorth=0"): 47,
                       ("scott=2", "hjorth=0"): 4,
                       ("scott=stab", "hjorth=stab"): 54}


def per_draw_profile(max_n, max_tuple, seed, signature):
    """The scan's profile with one system of the drawn structure pair and one
    table per draw.  Kept as the reference for reading the draws from the
    orbit systems' tables."""
    rng = random.Random(f"compare:{seed}")
    profile = {}
    for n in range(1, max_n + 1):
        structures = _all_structures(signature, n)
        table = sc.ScottTable(structures)
        items = [(i, t) for i in range(len(structures))
                 for ln in range(min(max_tuple, n) + 1)
                 for t in itertools.permutations(range(n), ln)]
        for _ in range(vf.PROFILE_DRAWS):
            i, t = items[rng.randrange(len(items))]
            j, u = items[rng.randrange(len(items))]
            if len(t) != len(u):
                continue
            sysp = FiniteLogicAction(signature, n, n, [structures[i], structures[j]])
            ptab = hj.leq_table(sysp)
            pi, pj = sysp.point_of(structures[i]), sysp.point_of(structures[j])
            v, w = sysp.basis_of(t, range(len(t))), sysp.basis_of(u, range(len(u)))
            s_level = h_level = 0
            while s_level <= table.stab and table.equivalent(i, t, j, u, s_level):
                s_level += 1
            while h_level < ptab.stab and ptab.leq(pi, v, pj, w, h_level + 1):
                h_level += 1
            key = (f"scott={'stab' if s_level > table.stab else s_level}",
                   f"hjorth={'stab' if h_level >= ptab.stab else h_level}")
            profile[key] = profile.get(key, 0) + 1
    return profile


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("max_n, max_tuple, signature", [
    (3, 2, EDGE_SIG),
    (3, 0, EDGE_SIG),
    (2, 2, EDGE1_COL1),
    (2, 2, EMPTY_SIG),
], ids=["edge2", "max_tuple0", "edge1_col1", "empty"])
def test_comparison_scan_profile_matches_per_draw_systems(seed, max_n, max_tuple,
                                                          signature):
    _, profile, _ = vf.comparison_scan(max_n=max_n, max_tuple=max_tuple, seed=seed,
                                       signature=signature)
    assert profile == per_draw_profile(max_n, max_tuple, seed, signature)
    # on the relabeling action T_1 holds exactly between isomorphic tuples,
    # and there T_1 = T_STAB: a draw reaches table level 0 unless its tuples
    # share a stabilized Scott class, and then it reaches stab
    assert all((s, h) == ("scott=stab", "hjorth=stab")
               or (h == "hjorth=0" and s != "scott=stab") for s, h in profile)


# two edges each: P3 has an orbit of 6 structures, C3 (the 2-cycle 0<->1)
# one of 3
P3 = FinStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1)), ("edge", (1, 2))}))
C3 = FinStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1)), ("edge", (1, 0))}))


def test_pair_table_is_block_diagonal_by_orbit():
    orbits = [FiniteLogicAction(EDGE_SIG, 3, 3, [m]) for m in (P3, C3)]
    assert [len(o.points) for o in orbits] == [6, 3]
    pair = FiniteLogicAction(EDGE_SIG, 3, 3, [P3, C3])
    table = leq_table(pair)
    pts = [[pair.point_of(m) for m in o.structures] for o in orbits]
    assert sorted(pts[0] + pts[1]) == list(range(9))
    for a in range(1, table.stab + 1):
        level = table.level(a)
        for x, y in itertools.product(*pts):
            assert not level[x, :, y, :].any() and not level[y, :, x, :].any()
        # each diagonal block is its orbit system's table
        for o, p in zip(orbits, pts):
            block = level[p][:, :, p]
            assert (block == leq_table(o).level(a)).all()


def test_pair_table_of_isomorphic_structures_is_the_orbit_table():
    orbit = FiniteLogicAction(EDGE_SIG, 3, 3, [M3])
    pair = FiniteLogicAction(EDGE_SIG, 3, 3, [M3, N3])
    assert set(pair.structures) == set(orbit.structures)
    otab, ptab = leq_table(orbit), leq_table(pair)
    assert ptab.stab == otab.stab
    perm = [pair.point_of(m) for m in orbit.structures]
    for a in range(1, otab.stab + 1):
        assert (ptab.level(a)[perm][:, :, perm] == otab.level(a)).all()


def per_entry_translation(si, table):
    """The translation law one table query at a time, in (level, g, x, V)
    order: the first failing entry.  Kept as the reference for the gather."""
    sys = table.sys
    for a in range(1, table.stab + 2):
        for g in range(len(sys.group)):
            for x in range(table.npoints):
                gx = sys.act(g, x)
                for v in range(table.nbasis):
                    if not table.leq(x, v, gx, sys.translate(v, g), a):
                        return (f"sys{si}:level={a}:g={sys.group[g]},"
                                f"x={sys.points[x]},V={sys.basis[v]}")
    return None


@pytest.mark.parametrize("entries, level, witness", [
    # (g, x, V) = (2, 0, 0) and (1, 4, 5): the lower g comes first
    ([(2, 0, 0), (1, 4, 5)], 1, "sys1:level=1:g=g1,x=4,V={g1,g2}"),
    # the same entries only at a second level
    ([(2, 0, 0), (1, 4, 5)], 2, "sys1:level=2:g=g1,x=4,V={g1,g2}"),
])
def test_translation_gather_matches_per_entry_loop(small_ensemble, entries, level,
                                                   witness):
    sys = small_ensemble[0]
    assert (len(sys.points), len(sys.basis), len(sys.group)) == (6, 7, 3)
    clean = leq_table(sys)
    table = leq_table(sys)
    if level == 2:  # a second, equal level: the chain stabilizes at 2
        set_level(table, 2, table.level(1))
    arr = table.level(level).copy()
    for g, x, v in entries:
        arr[x, v, sys.act(g, x), sys.translate(v, g)] = False
    set_level(table, level, arr)
    got = by_name(vf.run_lemmas([clean, table]))["translation_invariance"]
    assert not got.passed
    assert got.witness == per_entry_translation(1, table) == witness
