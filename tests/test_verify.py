import tracemalloc

import pytest

from rankforge import hjorth as hj
from rankforge import verify as vf
from rankforge.actions import FiniteLogicAction, _all_structures
from rankforge.common import STAB
from rankforge.hjorth import LevelTable, leq_table
from rankforge.structures import FinStructure

from conftest import EDGE_SIG, make_non_basis_family, make_sys1


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
    corrupted = vf.CorruptedSystem(make_sys1(), (0, 0, 2, 0))
    monkeypatch.setattr(vf, "ensemble", lambda *args: [make_sys1(), corrupted])
    reports = vf.run_suite("all", seed=0, sizes={"n": 1}, count=2)
    assert [r.suite for r in reports] == list(vf.SUITES)
    for report in reports:
        if report.suite == "comparison":
            assert report.all_passed
            continue
        [check] = report.checks
        assert not check.passed and check.name == "level_monotonicity"
        assert check.witness == "sys1:(x0=2,V0={e},x1=0,V1={e})"


def test_oracle_check_catches_corrupted_base_relation():
    # the clean table against the recursion over a corrupted cc: the flipped
    # entry is the seventh quadruple, and level 1 is compared first
    corrupted = vf.CorruptedSystem(make_sys1(), (0, 0, 2, 0))
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


def test_oracle_comparison_memory_peak():
    # the largest system of the verify-oracle ensemble, 6 points x 63 basis
    # sets: two levels of one byte per quadruple (2 x 142,884 bytes), the
    # subset lists and the rows compared peak at 336,338 bytes; a dict memo
    # keyed on tuples peaked at 33.2 MB
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
    report = vf.run_comparison(seed=3, max_n=2, cases=25)
    by_name = {c.name: c for c in report.checks}
    assert by_name["scott_implies_hjorth"].passed
    assert by_name["scott_implies_hjorth"].stats["scanned"] > 0
    assert by_name["symbolic_window_drift"].passed
    cross = by_name["symbolic_finite_cc_crosscheck"]
    assert cross.passed and "divergences" in cross.stats


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


def test_comparison_scan_builds_one_system_per_orbit(monkeypatch):
    built = []

    def counting(*args):
        built.append(args[1])
        return FiniteLogicAction(*args)

    monkeypatch.setattr(vf, "FiniteLogicAction", counting)
    counterexamples, _, scanned = vf.comparison_scan(
        max_n=3, max_tuple=2, profile_sample=0, seed=0)
    assert not counterexamples
    assert scanned == 140448
    # S_n-orbits of binary relations on 1, 2 and 3 elements
    assert [built.count(n) for n in (1, 2, 3)] == [2, 10, 104]


def test_comparison_scan_reports_an_injected_failure(monkeypatch):
    # (M, 0) and (N, 2) are stab-equivalent: the relabeling 0->2, 1->0, 2->1
    # carries M to N; fail the stabilized query of one of their coset pairs
    structures = _all_structures(EDGE_SIG, 3)
    m = FinStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1))}))
    n = FinStructure(EDGE_SIG, 3, frozenset({("edge", (2, 0))}))
    target = (3, structures.index(m), (0,), structures.index(n), (2,), (1,))
    leq = LevelTable.leq

    def faulty(self, x0, v0, x1, v1, alpha):
        sysb = self.sys
        if (alpha is STAB and sysb.structures[x0] == m
                and sysb.structures[x1] == n
                and (v0, v1) == (sysb.basis_of((0,), (1,)),
                                 sysb.basis_of((2,), (1,)))):
            return False
        return leq(self, x0, v0, x1, v1, alpha)

    monkeypatch.setattr(LevelTable, "leq", faulty)
    counterexamples, _, scanned = vf.comparison_scan(
        max_n=3, max_tuple=2, profile_sample=0, seed=0)
    assert counterexamples == [target]
    assert vf.comparison_witness(counterexamples) == \
        f"n=3:M{target[1]}(0,)~M{target[3]}(2,)->b=(1,)"
    assert scanned == 140448
