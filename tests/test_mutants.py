"""The fault table: which checks each engine fault fails.

Each row injects one fault, a monkeypatch of one function or method, and
runs the table checks as ``verify.run_suite`` runs them at seed 0: the
oracle comparison and the lemma suite, then the iso, Vaught (200 draws per
system) and basis suites.  It pins the checks that newly fail, compared with
the run without the fault, on two corpora:

* A, ``ensemble(0, 20)``: every table stabilizes at level 1, and every rank
  is 1;
* B, ``STAB2_ACTION`` and the four level-2 draws of ``seeded_level_draws``:
  every table stabilizes at level 2, with ranks 1 and 2.  Without a fault it
  fails finite_discrete_collapse, vaught_basis_intersection and
  star_orbit_equivalence (ROADMAP item 2).  The four draws whose levels grow
  are left out: the build refuses them, which would make every suite one
  level_monotonicity failure.

A fault that no check catches is a strict xfail that says why, so a check
that starts to catch it fails the test until its row gets its sets.  A law
that no row fails alone is a deletion candidate (``DELETION_CANDIDATES``);
a change that deletes one cites this table.

Each corpus's tables are built once and shared by the rows that leave them
alone.  A ``fresh`` row, a fault in the build or in a ``LevelTable`` method
whose result a table caches, builds them anew under its fault.  The oracle
comparison reads only the systems and the tables' levels, so only a fresh row
runs it again; the others keep its clean verdict.
"""

import dataclasses
from typing import Callable

import numpy as np
import pytest

from rankforge import hjorth as hj
from rankforge import verify as vf
from rankforge.actions import FiniteDiscreteAction
from rankforge.hjorth import LevelTable

from conftest import make_stab2_system, seeded_level_draws

SEED = 0


def corpus_b() -> list[FiniteDiscreteAction]:
    return [make_stab2_system()] + [
        FiniteDiscreteAction(size, list(elements), list(sets))
        for _, kind, size, elements, sets in seeded_level_draws() if kind == "stab2"]


CORPORA = {"A": lambda: vf.ensemble(SEED, 20), "B": corpus_b}


def table_checks(systems, tables, oracle=None) -> list[vf.CheckResult]:
    """The table checks in suite order; ``oracle``, when given, is the
    verdict of the oracle comparison."""
    return ([oracle or vf.leq_oracle_check(systems, tables)] + vf.run_lemmas(tables)
            + vf.run_iso(tables) + vf.run_vaught(tables, SEED, 200)
            + vf.run_basis(tables, SEED))


@pytest.fixture(scope="module")
def clean():
    """Each corpus's systems, its shared tables and its checks without a
    fault."""
    out = {}
    for name, make in CORPORA.items():
        systems = make()
        tables = [hj.leq_table(s) for s in systems]
        out[name] = systems, tables, table_checks(systems, tables)
    return out


def newly_failing(clean, fresh: bool) -> dict[str, dict[str, str]]:
    """Each corpus's checks that fail, by name with their witnesses, and did
    not fail without the fault.  A build that a fresh row makes refuse a
    level is its only check, as in ``run_suite``."""
    got = {}
    for name, (systems, tables, checks) in clean.items():
        if fresh:
            tables, refused = vf._build_tables(systems)
            faulty = [refused] if refused else table_checks(systems, tables)
        else:
            faulty = table_checks(systems, tables, oracle=checks[0])
        failed = {c.name for c in checks if not c.passed}
        got[name] = {c.name: c.witness for c in faulty
                     if not c.passed and c.name not in failed}
    return got


@dataclasses.dataclass(frozen=True)
class Fault:
    """One row.  ``patch(monkeypatch)`` injects the fault; ``caught`` maps
    each corpus to the checks it newly fails, and ``witnesses`` pins some of
    their witnesses.  A fault that no check catches has ``why_uncaught`` in
    place of ``caught``."""

    patch: Callable
    caught: dict[str, set[str]] | None = None
    why_uncaught: str | None = None
    fresh: bool = False
    witnesses: dict[str, dict[str, str]] = dataclasses.field(default_factory=dict)


def raise_last_rank(mp):
    rank = hj.hjorth_rank
    mp.setattr(hj, "hjorth_rank",
               lambda table, x: rank(table, x) + (x == table.npoints - 1))


def drop_from_last_rank_part(mp):
    partition = hj.partition_by_rank

    def faulty(table):
        *parts, (value, block) = partition(table)
        return parts + [(value, block - {max(block)})]
    mp.setattr(hj, "partition_by_rank", faulty)


def add_point_0_to_orbits(mp):
    orbit_of = hj.orbit_of
    mp.setattr(hj, "orbit_of", lambda sys, x: orbit_of(sys, x) | {0})


def drop_from_table_fixed_points(mp):
    fixed_point_set = hj.fixed_point_set

    def faulty(table, u):
        direct, via = fixed_point_set(table, u)
        return direct, via - {max(via, default=0)}
    mp.setattr(hj, "fixed_point_set", faulty)


def drop_largest_star_point(mp):
    star = hj.vaught_star

    def faulty(sys, points, u):
        out = star(sys, points, u)
        return out - {max(out, default=0)}
    mp.setattr(hj, "vaught_star", faulty)


def delta_is_star(mp):
    mp.setattr(hj, "vaught_delta", hj.vaught_star)


def swap_rank_comparison(mp):
    compare = hj.compare_ranks
    flip = {"<": ">", "=": "=", ">": "<"}
    mp.setattr(hj, "compare_ranks", lambda table, x, y: flip[compare(table, x, y)])


def raise_every_rank(mp):
    ranks = LevelTable.ranks
    mp.setattr(LevelTable, "ranks",
               lambda self: tuple(min(r + 1, self.stab + 1) for r in ranks(self)))


def orbit_check_at_the_rank(mp):
    # equivalence read at the larger of the two ranks, not one level past it
    def faulty(table):
        ranks = np.array([hj.hjorth_rank(table, x) for x in range(table.npoints)])
        eqs = np.stack([table.equiv_matrix(a) for a in range(1, ranks.max() + 1)])
        xs = np.arange(table.npoints)
        return eqs[np.maximum.outer(ranks, ranks) - 1, xs[:, None], xs]
    mp.setattr(hj, "orbit_check_via_rank", faulty)


def clear_a_minimal_reflexive_entry(mp):
    # T_1(x, V, x, V) cleared at each block's first point and first minimal
    # basis set V.  The sweep is monotone, so no level holds more than
    # before, and at that entry it reads only that entry (only V lies below
    # V): no level grows, and the build takes the fault
    base_level = LevelTable._base_level

    def faulty(self, img, points):
        t1 = base_level(self, img, points).copy()
        v = np.flatnonzero(self.sub.sum(axis=0) == 1)[0]
        t1[0, v, 0, v] = False
        return t1
    mp.setattr(LevelTable, "_base_level", faulty)


def swap_sweep_quantifiers(mp):
    # T_{a+1}(x0,V0,x1,V1) iff some W0 <= V0 has T_a(x1,W1,x0,W0) for every
    # W1 <= V1, where the sweep reads "for all W0 there is W1"
    def faulty(self, prev):
        sub = self.sub.astype(np.int64)
        # miss[x1,V1,x0,W0]: some W1 <= V1 lacks T_a(x1,W1,x0,W0)
        miss = np.einsum("awbc,wv->avbc", (~prev).astype(np.int64), sub) > 0
        nxt = np.einsum("avbc,cu->buav", (~miss).astype(np.int64), sub) > 0
        grown = np.argwhere(nxt & ~prev)
        return nxt, (tuple(int(i) for i in grown[0]) if len(grown) else None)
    mp.setattr(LevelTable, "_sweep", faulty)


def skip_the_sweep(mp):
    # each sweep returns its input, so every table stops at T_1
    mp.setattr(LevelTable, "_sweep", lambda self, prev: (prev, None))


def swap_images_under_last_basis_set(mp):
    image_tensor = FiniteDiscreteAction.image_tensor

    def faulty(self):
        img = image_tensor(self)
        img[[0, 1], -1] = img[[1, 0], -1]
        return img
    mp.setattr(FiniteDiscreteAction, "image_tensor", faulty)


RANK_LAWS = {"rank_partition", "rank_comparison_consistency"}
LEVEL_GREW = {"level_monotonicity"}

FAULTS = {
    "rank-plus-one-at-last-point": Fault(
        raise_last_rank, {"A": RANK_LAWS, "B": RANK_LAWS},
        witnesses={"A": {"rank_comparison_consistency": "sys0:(0,2)"},
                   "B": {"rank_comparison_consistency": "sys0:(2,4)"}}),
    "partition-drops-a-point-of-its-last-part": Fault(
        drop_from_last_rank_part, {"A": {"rank_partition"}, "B": {"rank_partition"}}),
    "orbit-of-adds-point-0": Fault(
        add_point_0_to_orbits, {"A": {"minimal_m_finite"}, "B": {"minimal_m_finite"}}),
    # corpus B has no singleton basis sets, so the fixed-point law skips it
    "fixed-point-set-drops-a-table-point": Fault(
        drop_from_table_fixed_points, {"A": {"fixed_point_characterization"}, "B": set()}),
    "vaught-star-drops-its-largest-point": Fault(
        drop_largest_star_point,
        {"A": {"vaught_invariance", "vaught_duality", "vaught_union_intersection",
               "vaught_basis_intersection"},
         "B": {"vaught_invariance", "vaught_duality"}},
        witnesses={"A": {"vaught_invariance": "sys0:A={0,1,2}",
                         "vaught_duality": "sys0:A={},U={e}",
                         "vaught_union_intersection": "sys0:A={0,2},B={1,2},U={g2}",
                         "vaught_basis_intersection": "sys0:A={0,1,2},U={e,g2}"}}),
    # on B it also makes vaught_basis_intersection pass
    "vaught-delta-is-vaught-star": Fault(
        delta_is_star, {"A": {"vaught_duality", "vaught_union_intersection"},
                        "B": {"vaught_duality", "vaught_union_intersection"}}),
    # every rank of corpus A is 1, so only B tells the sides apart
    "compare-ranks-swapped": Fault(
        swap_rank_comparison, {"A": set(), "B": {"rank_comparison_consistency"}}),
    "t1-clears-a-minimal-reflexive-entry": Fault(
        clear_a_minimal_reflexive_entry,
        {"A": {"leq_oracle_equivalence", "leq_transitivity", "set_monotonicity",
               "translation_invariance", "equiv_invariance",
               "stabilized_equiv_invariant_sets", "isomorphism_theorem",
               "minimal_m_finite", "finite_discrete_collapse", "rank_partition",
               "rank_comparison_consistency", "star_orbit_equivalence",
               "fixed_point_characterization"},
         "B": {"leq_oracle_equivalence", "leq_transitivity", "set_monotonicity",
               "translation_invariance", "rank_partition",
               "rank_comparison_consistency"}},
        fresh=True),
    "sweep-quantifiers-swapped": Fault(
        swap_sweep_quantifiers, {"A": LEVEL_GREW, "B": LEVEL_GREW}, fresh=True),
    # every table of A stops at T_1 anyway; on B only the oracle sees level 2
    # go, while the three laws that failed there pass
    "sweep-skipped": Fault(
        skip_the_sweep, {"A": set(), "B": {"leq_oracle_equivalence"}}, fresh=True),
    "images-swapped-under-last-basis-set": Fault(
        swap_images_under_last_basis_set, {"A": LEVEL_GREW, "B": LEVEL_GREW},
        fresh=True),
    "every-rank-plus-one": Fault(
        raise_every_rank, fresh=True,
        why_uncaught="ROADMAP item 3: no check compares a rank with one found "
                     "another way, and a level past stab reads the stabilized one"),
    "orbit-check-reads-the-rank-level": Fault(
        orbit_check_at_the_rank,
        why_uncaught="every corpus point's level-1 class is already its orbit, so "
                     "no level from 1 on tells the rank level from the next"),
}


@pytest.mark.parametrize("fault", [
    pytest.param(fault, id=name, marks=[pytest.mark.xfail(strict=True,
                                                          reason=fault.why_uncaught)]
                 if fault.why_uncaught else [])
    for name, fault in FAULTS.items()])
def test_fault_fails_exactly_its_checks(fault, clean, monkeypatch):
    fault.patch(monkeypatch)
    got = newly_failing(clean, fault.fresh)
    assert any(got.values()), "no check catches this fault"
    assert {name: set(failed) for name, failed in got.items()} == fault.caught
    for name, pinned in fault.witnesses.items():
        assert {check: got[name][check] for check in pinned} == pinned


# the checks of a clean run, in suite order
CHECK_NAMES = [
    "leq_oracle_equivalence", "leq_transitivity", "level_monotonicity",
    "set_monotonicity", "translation_invariance", "equiv_invariance",
    "stabilized_equiv_invariant_sets", "isomorphism_theorem", "minimal_m_finite",
    "finite_discrete_collapse", "rank_partition", "rank_comparison_consistency",
    "vaught_invariance", "vaught_duality", "vaught_union_intersection",
    "vaught_basis_intersection", "star_orbit_equivalence",
    "fixed_point_characterization", "basis_shift_bound", "clopen_subgroup_bound"]

# the laws that no row fails alone on either corpus
DELETION_CANDIDATES = [
    "leq_transitivity", "set_monotonicity", "translation_invariance",
    "equiv_invariance", "stabilized_equiv_invariant_sets", "isomorphism_theorem",
    "finite_discrete_collapse", "vaught_invariance", "vaught_duality",
    "vaught_union_intersection", "vaught_basis_intersection", "star_orbit_equivalence",
    "basis_shift_bound", "clopen_subgroup_bound"]


def test_laws_that_no_fault_fails_alone(clean):
    for _, _, checks in clean.values():
        assert [c.name for c in checks] == CHECK_NAMES
    alone = {name for fault in FAULTS.values() if fault.caught
             for failed in fault.caught.values() if len(failed) == 1
             for name in failed}
    assert [name for name in CHECK_NAMES if name not in alone] == DELETION_CANDIDATES
