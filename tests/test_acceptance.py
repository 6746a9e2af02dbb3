"""Acceptance criteria, one test per criterion.

Every criterion runs at its stated tolerance (exact matches, explicit time
bounds) over the seeded ensemble and prints one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import hashlib
import os
import subprocess
import sys
import time

import pytest

from rankforge import hjorth as hj
from rankforge import verify as vf
from rankforge.scott import scott_rank

from conftest import chain

SEED = 7
COUNT = 200
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return ok


@pytest.fixture(scope="module")
def systems():
    return vf.ensemble(SEED, COUNT)


@pytest.fixture(scope="module")
def oracle_result(systems):
    start = time.monotonic()
    check = vf.leq_oracle_check(systems, [hj.leq_table(s) for s in systems])
    return check, time.monotonic() - start


@pytest.fixture(scope="module")
def tables(systems):
    return [hj.leq_table(s) for s in systems]


@pytest.fixture(scope="module")
def lemma_checks(tables):
    return vf.run_lemmas(tables)


@pytest.fixture(scope="module")
def iso_checks(tables):
    return vf.run_iso(tables)


@pytest.fixture(scope="module")
def scott_oracle_result():
    start = time.monotonic()
    checks = vf.scott_oracle_checks(SEED, family_size=500, max_n=4)
    return checks, time.monotonic() - start


@pytest.fixture(scope="module")
def scott_structure_result():
    return vf.scott_structure_checks(SEED, exhaustive_n=4, ladder_max=6)


@pytest.fixture(scope="module")
def vaught_checks(tables):
    return vf.run_vaught(tables, SEED, 200)


@pytest.fixture(scope="module")
def basis_checks(tables):
    return vf.run_basis(tables, SEED)


def by_name(checks):
    return {c.name: c for c in checks}


def test_criterion_01_leq_oracle_equivalence(oracle_result, systems):
    check, elapsed = oracle_result
    ok = (check.passed and len(systems) == COUNT
          and all(len(s.group) <= 8 and s.size <= 6 for s in systems)
          and elapsed < 60.0)
    assert verdict(1, "leq table equals naive recursion on the ensemble", ok,
                   f"{check.stats.get('quadruples', 0)} quadruples, "
                   f"{elapsed:.1f}s, witness={check.witness}"), check.witness


def test_criterion_02_scott_oracle_equivalence(scott_oracle_result):
    checks, elapsed = scott_oracle_result
    named = by_name(checks)
    exhaustive = named["scott_oracle_exhaustive_small"]
    family = named["scott_oracle_family"]
    ok = exhaustive.passed and family.passed and elapsed < 60.0 \
        and family.stats["family"] == 500
    assert verdict(2, "back-and-forth tables equal naive game recursion", ok,
                   f"{family.stats['queries']} sampled queries, {elapsed:.1f}s"), \
        (exhaustive.witness, family.witness)


def test_criterion_03_lemma_suite(lemma_checks):
    named = by_name(lemma_checks)
    wanted = ["leq_transitivity", "level_monotonicity", "set_monotonicity",
              "translation_invariance", "equiv_invariance"]
    ok = all(named[n].passed for n in wanted)
    assert verdict(3, "transitivity/monotonicity/translation/equiv lemmas", ok,
                   "zero violations" if ok else str(
                       [named[n].witness for n in wanted if not named[n].passed]))


def test_criterion_04_isomorphism_theorem(iso_checks):
    named = by_name(iso_checks)
    ok = named["isomorphism_theorem"].passed and named["minimal_m_finite"].passed
    assert verdict(4, "rank-level equivalence decides orbits, finite m everywhere",
                   ok, named["isomorphism_theorem"].witness or "zero mismatches")


def test_criterion_05_finite_discrete_collapse(iso_checks):
    check = by_name(iso_checks)["finite_discrete_collapse"]
    assert verdict(5, "all-subsets systems stabilize at level 1, level-2 "
                   "equivalence is orbit equivalence", check.passed,
                   check.witness or "every system"), check.witness


def test_criterion_06_scott_isomorphism_finite(scott_structure_result):
    check = by_name(scott_structure_result)["scott_iso_finite"]
    assert verdict(6, "stabilized root equivalence iff brute isomorphism, "
                   "exhaustive size<=4", check.passed,
                   f"{check.stats.get('classes')} classes"), check.witness


def test_criterion_07_scott_rank_ladder(scott_structure_result):
    ladder = by_name(scott_structure_result)["scott_rank_ladder"]
    ok = ladder.passed and scott_rank(chain(2)) == 1
    assert verdict(7, "rank(L2)=1; chain distinguishing levels nondecreasing, "
                   "oracle-exact", ok, ladder.witness or "m<=6")


def test_criterion_08_comparison_proposition():
    start = time.monotonic()
    counterexamples, _, scanned = vf.comparison_scan(max_n=3, max_tuple=2,
                                                     seed=SEED)
    elapsed = time.monotonic() - start
    ok = not counterexamples and elapsed < 300.0
    assert verdict(8, "stabilized back-and-forth implies stabilized table "
                   "relation (exhaustive n<=3)", ok,
                   f"{scanned} instances, {elapsed:.1f}s"), counterexamples[:1]


def test_criterion_09_vaught_laws(vaught_checks):
    named = by_name(vaught_checks)
    wanted = ["vaught_invariance", "vaught_duality", "vaught_union_intersection",
              "vaught_complexity_collapse", "vaught_basis_intersection"]
    ok = all(named[n].passed for n in wanted)
    assert verdict(9, "category-quantifier transform laws, 200 draws/system",
                   ok, "items 1-5 exact" if ok else str(
                       [named[n].witness for n in wanted if not named[n].passed]))


def test_criterion_10_fixed_points_and_rank_comparison(vaught_checks, iso_checks):
    fixed = by_name(vaught_checks)["fixed_point_characterization"]
    star = by_name(vaught_checks)["star_orbit_equivalence"]
    cmp_check = by_name(iso_checks)["rank_comparison_consistency"]
    ok = fixed.passed and star.passed and cmp_check.passed
    assert verdict(10, "fixed-point set two ways; rank comparison trichotomy "
                   "and orbit invariance", ok,
                   fixed.witness or cmp_check.witness or "zero violations")


def test_criterion_11_basis_shift_bound(basis_checks):
    check = by_name(basis_checks)["basis_shift_bound"]
    assert verdict(11, "rank moves by at most 1 under a basis change",
                   check.passed, check.witness or "ensemble-wide"), check.witness


# sha256 of the records of the run below: 31 lines, pinned so that moving a
# check between suites cannot reorder the records unnoticed
ALL_RECORDS_SHA256 = \
    "7f61506ec193802c410302da857871bc64981f18cb43150af666396a9d51cc66"


def test_criterion_12_determinism():
    args = [sys.executable, "-m", "rankforge", "verify", "all",
            "--seed", str(SEED), "--sizes", "g<=8,x<=6,n<=3",
            "--count", "20", "--format", "records"]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    outs = []
    for hashseed in ("0", "4242"):
        env["PYTHONHASHSEED"] = hashseed
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        outs.append((proc.returncode, proc.stdout))
    digest = hashlib.sha256(outs[0][1].encode()).hexdigest()
    ok = (outs[0] == outs[1] and outs[0][0] == 0 and "CHECK" in outs[0][1]
          and digest == ALL_RECORDS_SHA256)
    assert verdict(12, "verify all is byte-identical across runs", ok,
                   f"{len(outs[0][1].splitlines())} records"), \
        (outs[0][0], outs[1][0])
