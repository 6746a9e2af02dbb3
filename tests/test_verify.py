import pytest

from rankforge import verify as vf
from rankforge.actions import FiniteLogicAction

from conftest import EDGE_SIG, make_sys1


@pytest.fixture(scope="module")
def small_ensemble():
    return vf.ensemble(3, 12)


def test_ensemble_deterministic_and_capped():
    a = vf.ensemble(5, 20)
    b = vf.ensemble(5, 20)
    assert [(s.size, s.group, s.perms) for s in a] == \
        [(s.size, s.group, s.perms) for s in b]
    assert all(s.size <= 6 and len(s.group) <= 8 for s in a)
    assert any(len(s.group) >= 2 for s in a)


def test_lemma_suite_passes(small_ensemble):
    report = vf.run_lemmas(small_ensemble)
    assert report.all_passed, [c.record() for c in report.checks]
    names = {c.name for c in report.checks}
    assert {"leq_oracle_equivalence", "leq_transitivity", "level_monotonicity",
            "set_monotonicity", "translation_invariance", "equiv_invariance",
            "stabilized_equiv_invariant_sets"} <= names


def test_lemma_suite_catches_corruption():
    corrupted = vf.CorruptedSystem(make_sys1(), (0, 0, 2, 0))
    report = vf.run_lemmas([corrupted], with_oracle=False)
    assert not report.all_passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and all(c.witness for c in failing)



class _IdentityTranslate(FiniteLogicAction):
    """A relabeling system whose translate always answers the identity coset."""

    def translate(self, v, g):
        return self.basis_of((0, 1), (0, 1))


def test_lemma_suite_checks_translation_on_a_logic_action():
    assert vf.run_lemmas([FiniteLogicAction(EDGE_SIG, 2, 2)]).all_passed
    report = vf.run_lemmas([_IdentityTranslate(EDGE_SIG, 2, 2)], with_oracle=False)
    failing = [c for c in report.checks if not c.passed]
    assert [c.name for c in failing] == ["translation_invariance"]
    assert failing[0].witness.startswith("sys0:level=1:")


def test_mulclose_checks_generators_against_cap():
    assert vf.mulclose([(1, 0)], cap=1) is None
    assert vf.mulclose([(1, 2, 0), (2, 0, 1)], cap=2) is None
    assert vf.mulclose([(1, 2, 0), (2, 0, 1)], cap=3) == [(0, 1, 2), (1, 2, 0),
                                                          (2, 0, 1)]
    assert all(len(sys.group) == 1 for sys in vf.ensemble(0, 10, max_g=1))


def test_iso_suite_passes(small_ensemble):
    report = vf.run_iso(small_ensemble, seed=3, scott_family_size=60,
                        exhaustive_n=3)
    assert report.all_passed, [c.record() for c in report.checks if not c.passed]


def test_vaught_suite_passes(small_ensemble):
    report = vf.run_vaught(small_ensemble, seed=3, draws=60)
    assert report.all_passed, [c.record() for c in report.checks if not c.passed]


def test_basis_suite_passes(small_ensemble):
    report = vf.run_basis(small_ensemble, seed=3)
    assert report.all_passed


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
    from rankforge.hjorth import leq_table
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
