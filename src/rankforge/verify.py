"""Property and lemma suites with machine-readable verdicts.

Each check is a law: ``law(item) -> witness | None`` on one level table
(its system is ``table.sys``), or, in the seeded suites, one table with its
system's draws, all made before any law runs.  :func:`run_law` checks a law
on the items in order and returns the result of the first that fails, its
witness prefixed ``sys<i>:``; it alone names systems.  :func:`run_suite`
builds a seeded ensemble's tables once and hands them to the table suites
(``run_lemmas``, ``run_iso``, ``run_vaught``, ``run_basis``).  A failing
check always carries a witness, minimal under greedy deletion where it is
set-valued.  Identical seeds and sizes reproduce identical reports.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import hjorth as hj
from . import oracle as orc
from . import scott as sc
from .actions import (ALL_SUBSETS, FiniteDiscreteAction, FiniteLogicAction,
                      SymbolicLogicAction, _all_structures, _coset_descriptors)
from .common import (STAB, BudgetError, Budgets, InvalidBaseRelationError,
                     RankforgeError)
from .structures import (FinStructure, Signature, SuppStructure,
                         brute_isomorphic, permute_structure)

EDGE_SIG = Signature((("edge", 2),))
ORDER_SIG = Signature((("lt", 2),))
# tuple pairs drawn per n for the comparison scan's level profile
PROFILE_DRAWS = 200
# the comparison scan's largest structure size, its own cap
COMPARISON_MAX_N = 3
# a suite run's defaults: caps on group order g, point count x and the
# comparison scan's structure size n, and the ensemble size
DEFAULT_SIZES = {"g": 8, "x": 6, "n": COMPARISON_MAX_N}
DEFAULT_COUNT = 200


@dataclass
class CheckResult:
    """A check fails iff it carries a witness."""

    name: str
    witness: str | None = None
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.witness is None

    def record(self) -> str:
        """The CHECK record: the one place a check's verdict is written."""
        verdict = "pass" if self.passed else "fail"
        return f"CHECK name={self.name} verdict={verdict} witness={self.witness or '-'}"


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult]


def run_law(name: str, law, items, stats: dict | None = None) -> CheckResult:
    """Check ``law(item) -> witness | None`` on the items in order up to the
    first that fails: its witness, prefixed ``sys<i>:`` with its index i
    (just ``sys<i>`` if empty), and ``stats``, which the law may update."""
    for si, item in enumerate(items):
        witness = law(item)
        if witness is not None:
            return CheckResult(name, f"sys{si}" + (witness and f":{witness}"), stats or {})
    return CheckResult(name, None, stats or {})


def shrink_point_set(points: frozenset[int], still_fails) -> frozenset[int]:
    """Greedy deletion: drop elements while the failure persists."""
    current = points
    changed = True
    while changed:
        changed = False
        for e in sorted(current):
            smaller = current - {e}
            if still_fails(smaller):
                current = smaller
                changed = True
    return current


def quad_witness(sys, x0: int, v0: int, x1: int, v1: int) -> str:
    """A quadruple (x0, V0, x1, V1) of point and basis indices, by name."""
    return (f"(x0={sys.points[x0]},V0={sys.basis[v0]},"
            f"x1={sys.points[x1]},V1={sys.basis[v1]})")


def _fmt_set(sys, points) -> str:
    return "{" + ",".join(sys.points[x] for x in sorted(points)) + "}"


def _first_pair(sys, differ: np.ndarray) -> str | None:
    """The first point pair, in index order, where a P x P comparison differs."""
    if not differ.any():
        return None
    x, y = np.argwhere(differ)[0]
    return f"({sys.points[x]},{sys.points[y]})"


def _images(sys) -> np.ndarray:
    """``gx[g, x]``: the point g carries x to."""
    return np.array([[sys.act(g, x) for x in range(len(sys.points))]
                     for g in range(len(sys.group))])


def _same_orbit(sys) -> np.ndarray:
    orbit_of = np.array(orc.orbit_partition(sys).orbit_of)
    return orbit_of[:, None] == orbit_of[None, :]


# ---------------------------------------------------------------------------
# Seeded generators

def mulclose(perms: list[tuple[int, ...]], cap: int) -> list[tuple[int, ...]] | None:
    n = len(perms[0])
    identity = tuple(range(n))
    els = {identity}
    frontier = [p for p in perms if p not in els]
    els.update(frontier)
    if len(els) > cap:
        return None
    while frontier:
        new = []
        for a in sorted(els):
            for b in frontier:
                c = tuple(a[b[i]] for i in range(n))
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > cap:
                        return None
        frontier = new
    return sorted(els)


def _oracle_cost(nx: int, ng: int) -> float:
    # fitted to measured full-quadruple naive comparisons on the largest
    # all-subsets systems; keeps ensemble-wide oracle time bounded
    return nx * nx * 4.5 ** ng


def random_finite_discrete(rng: random.Random, max_g: int = DEFAULT_SIZES["g"],
                           max_x: int = DEFAULT_SIZES["x"],
                           cost_cap: float | None = None) -> FiniteDiscreteAction:
    """One seeded system: a small permutation group under an all-subsets basis."""
    gcap = max_g
    while True:
        n = rng.randint(2, max_x)
        ngens = rng.choice((1, 1, 2))
        gens = [tuple(rng.sample(range(n), n)) for _ in range(ngens)]
        els = mulclose(gens, gcap)
        if els is None:
            gcap = max(min(2, max_g), gcap - 1) if rng.random() < 0.5 else gcap
            continue
        if cost_cap is not None and _oracle_cost(n, len(els)) > cost_cap:
            gcap = max(1, min(gcap, len(els)) - 1)
            continue
        # the identity is the least permutation, so it comes first
        labels = ["e"] + [f"g{k}" for k in range(1, len(els))]
        return FiniteDiscreteAction(n, list(zip(labels, els)), ALL_SUBSETS)


def ensemble(seed: int, count: int, max_g: int = DEFAULT_SIZES["g"],
             max_x: int = DEFAULT_SIZES["x"]) -> list[FiniteDiscreteAction]:
    """The seeded system ensemble; a running cost budget of 8e6 keeps the
    naive oracle comparison affordable while still admitting systems at the
    caps."""
    rng = random.Random(f"ensemble:{seed}")
    out = []
    remaining = 8.0e6
    for _ in range(count):
        sys = random_finite_discrete(rng, max_g, max_x, cost_cap=remaining)
        remaining = max(remaining - _oracle_cost(sys.size, len(sys.group)), 1000.0)
        out.append(sys)
    return out


def _random_structure(rng: random.Random, n: int, density: float = 0.35) -> FinStructure:
    facts = frozenset(("edge", (i, j)) for i in range(n) for j in range(n)
                      if rng.random() < density)
    return FinStructure(EDGE_SIG, n, facts)


def _random_supp(rng: random.Random, s: int) -> SuppStructure:
    support = rng.randint(0, s)
    facts = frozenset(("edge", (i, j)) for i in range(support) for j in range(support)
                      if rng.random() < 0.4)
    return SuppStructure(EDGE_SIG, support, facts)


def chain(m: int) -> FinStructure:
    """The m-element linear order."""
    return FinStructure(ORDER_SIG, m,
                        frozenset(("lt", (i, j)) for i in range(m)
                                  for j in range(m) if i < j))


def canonical_edge_representatives(n: int) -> list[FinStructure]:
    """One structure per isomorphism class over one binary relation, by
    exhaustive min-over-permutations canonical forms (bit-packed)."""
    atoms = [(i, j) for i in range(n) for j in range(n)]
    atom_index = {a: i for i, a in enumerate(atoms)}
    perm_maps = []
    for perm in itertools.permutations(range(n)):
        perm_maps.append([atom_index[(perm[i], perm[j])] for (i, j) in atoms])
    total = 1 << len(atoms)
    codes = np.arange(total, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(len(atoms))[None, :]) & 1
    weights = 1 << np.arange(len(atoms), dtype=np.int64)
    best = None
    for pm in perm_maps:
        packed = bits[:, np.argsort(pm)] @ weights  # image of each code under perm
        best = packed if best is None else np.minimum(best, packed)
    reps = sorted(set(int(c) for c in best))
    out = []
    for code in reps:
        facts = frozenset(("edge", atoms[i]) for i in range(len(atoms)) if code >> i & 1)
        out.append(FinStructure(EDGE_SIG, n, facts))
    return out


# ---------------------------------------------------------------------------
# Lemma suite

def _build_tables(systems, budgets: Budgets | None = None
                  ) -> tuple[list[hj.LevelTable], CheckResult | None]:
    """One table per system, or the failing check of the first system whose
    base relation makes a level grow."""
    tables = []

    def builds(sys):
        try:
            tables.append(hj.leq_table(sys, budgets=budgets))
        except InvalidBaseRelationError as exc:
            return quad_witness(sys, *exc.witness)
        return None

    check = run_law("level_monotonicity", builds, systems)
    return tables, None if check.passed else check


def oracle_mismatch(sys, table: hj.LevelTable) -> tuple[str | None, int]:
    """First quadruple, in index order, where a stabilized table and the
    literal recursion disagree at some level up to one past stabilization
    (the lowest such level), and the number of quadruples compared.  Each
    level of the oracle is compared whole with the table's bytes, and only
    a level that differs is searched for its first differing cell; the
    least (cell, level) over those is the witness."""
    oc = orc.LeqOracle(sys, depth_cap=table.stab + 2)
    diffs = []
    for a in range(1, table.stab + 2):
        got, want = oc.level(a), memoryview(table.level(a)).cast("B")
        if got != want:
            diffs.append((next(i for i, g in enumerate(got) if g != want[i]), a))
    if not diffs:
        return None, (table.npoints * table.nbasis) ** 2
    i, a = min(diffs)
    quad = np.unravel_index(i, (table.npoints, table.nbasis) * 2)
    return f"{quad_witness(sys, *quad)}@level={a}", i + 1


def leq_oracle_check(systems, tables) -> CheckResult:
    """Engine tables against the literal recursion: every system, every
    quadruple, every level up to one past stabilization.  Exact match."""
    stats = {"quadruples": 0}

    def matches_oracle(pair):
        mismatch, compared = oracle_mismatch(*pair)
        stats["quadruples"] += compared
        return mismatch

    return run_law("leq_oracle_equivalence", matches_oracle,
                   zip(systems, tables, strict=True), stats)


def _first_growth(table, image, tag: str) -> str | None:
    """The first level up to stab, and its first entry (q0, q'), where
    ``image`` of the relation on (point, basis set) pairs outgrows it.  Each
    level past stab is the stored stab level; only the oracle comparisons,
    which compute stab + 1 on their own, check it."""
    nq = table.npoints * table.nbasis
    for a in range(1, table.stab + 1):
        t = table.level(a).reshape(nq, nq)
        grown = (image(t.astype(np.float32)) > 0) & ~t
        if grown.any():
            i, j = np.argwhere(grown)[0]
            return f"level={a}:q0={i},{tag}={j}"
    return None


def run_lemmas(tables) -> list[CheckResult]:
    """The chain, translation and equivalence laws of each table."""
    invsets = {"systems": 0}

    def leq_transitivity(table):
        return _first_growth(table, lambda t: t @ t, "q2")

    def level_monotonicity(table):
        for a in range(2, table.stab + 1):
            if (table.level(a) & ~table.level(a - 1)).any():
                return f"level={a}"
        return None

    def set_monotonicity(table):
        kron = np.kron(np.eye(table.npoints, dtype=np.float32),
                       table.sub.astype(np.float32))
        return _first_growth(table, lambda t: kron @ t @ kron, "q1")

    def translation_invariance(table):
        sys = table.sys
        if not sys.translation_closed:
            return None
        # one gather per level of T_a(x, V, gx, V g^-1) over (g, x, V)
        gx = _images(sys)
        tv = np.array([[sys.translate(v, g) for v in range(table.nbasis)]
                       for g in range(len(sys.group))])
        xs, vs = np.arange(table.npoints)[:, None], np.arange(table.nbasis)
        for a in range(1, table.stab + 1):
            held = table.level(a)[xs, vs, gx[:, :, None], tv[:, None, :]]
            if not held.all():
                g, x, v = np.argwhere(~held)[0]
                return f"level={a}:g={sys.group[g]},x={sys.points[x]},V={sys.basis[v]}"
        return None

    def equiv_invariance(table):
        sys = table.sys
        gx = _images(sys)
        for a in range(1, table.stab + 1):
            eq = table.equiv_matrix(a)
            if not eq.diagonal().all() or (eq != eq.T).any():
                return f"level={a}:not reflexive/symmetric"
            eqf = eq.astype(np.float32)
            if (((eqf @ eqf) > 0) & ~eq).any():
                return f"level={a}:not transitive"
            # held[g, x]: x ~ gx, in (g, x) order
            held = eq[np.arange(table.npoints), gx]
            if not held.all():
                g, x = np.argwhere(~held)[0]
                return f"level={a}:x={sys.points[x]},g={sys.group[g]}"
        return None

    def invariant_sets(table):
        # a system with more orbits than the cap is skipped, not counted
        try:
            sets = orc.invariant_sets(table.sys)
        except BudgetError:
            return None
        invsets["systems"] += 1
        member = np.array([[x in s for x in range(table.npoints)] for s in sets])
        same_sets = (member[:, :, None] == member[:, None, :]).all(axis=0)
        return _first_pair(table.sys, same_sets != table.equiv_matrix(STAB))

    return [run_law("leq_transitivity", leq_transitivity, tables),
            run_law("level_monotonicity", level_monotonicity, tables),
            run_law("set_monotonicity", set_monotonicity, tables),
            run_law("translation_invariance", translation_invariance, tables),
            run_law("equiv_invariance", equiv_invariance, tables),
            run_law("stabilized_equiv_invariant_sets", invariant_sets, tables, invsets)]


# ---------------------------------------------------------------------------
# Isomorphism suite

def run_iso(tables) -> list[CheckResult]:
    """The isomorphism theorem, finite discrete collapse and rank laws."""

    def isomorphism_theorem(table):
        # x ~ y one level past the larger rank iff x and y share an orbit
        return _first_pair(table.sys, hj.orbit_check_via_rank(table)
                           != _same_orbit(table.sys))

    def minimal_m_finite(table):
        for x in range(table.npoints):
            try:
                hj.minimal_m(table, x)
            except RankforgeError:  # the family is not a basis
                return table.sys.points[x]
        return None

    def finite_discrete_collapse(table):
        if table.stab != 1:
            return f"stab={table.stab}"
        return _first_pair(table.sys, table.equiv_matrix(2) != _same_orbit(table.sys))

    def rank_orbit_invariance(ranked):
        table, ranks = ranked
        sys = table.sys
        # moved[g, x]: g changes the rank of x, in (g, x) order
        moved = ranks[_images(sys)] != ranks
        if moved.any():
            g, x = np.argwhere(moved)[0]
            return f"x={sys.points[x]},g={sys.group[g]}"
        return None

    def rank_partition(table):
        sys = table.sys
        parts = hj.partition_by_rank(table)
        if frozenset().union(*(p for _, p in parts)) != frozenset(range(table.npoints)):
            return "union"
        for value, block in parts:
            for g in range(len(sys.group)):
                if frozenset(sys.act(g, x) for x in block) != block:
                    return f"rank={value},g={sys.group[g]}"
        return None

    def rank_comparison_consistency(table):
        # order[x, y]: -1, 0 or 1 as the rank of x is below, at or above y's
        pts = range(table.npoints)
        order = np.array([["<=>".index(hj.compare_ranks(table, x, y)) - 1 for y in pts]
                          for x in pts])
        bad = (order.T != -order) | (_same_orbit(table.sys) & (order != 0))
        return _first_pair(table.sys, bad)

    # every table's ranks first: a table without one raises before any law
    ranked = [(table, np.array([hj.hjorth_rank(table, x) for x in range(table.npoints)]))
              for table in tables]
    return [run_law("isomorphism_theorem", isomorphism_theorem, tables),
            run_law("minimal_m_finite", minimal_m_finite, tables),
            run_law("finite_discrete_collapse", finite_discrete_collapse, tables),
            run_law("rank_orbit_invariance", rank_orbit_invariance, ranked),
            run_law("rank_partition", rank_partition, tables),
            run_law("rank_comparison_consistency", rank_comparison_consistency, tables)]


def _scott_oracle_mismatch(family, table, pairs, tag: str) -> tuple[str | None, int]:
    """Compare the game oracle with the table at levels 0..stab+1 on each
    same-length pair of items, one oracle per structure pair, up to the first
    mismatch: (witness or None, oracle queries)."""
    oracles = {}
    queried = 0
    for (i, t), (j, u) in pairs:
        if len(t) != len(u):
            continue
        oracle = oracles.get((i, j))
        if oracle is None:
            oracle = oracles[i, j] = orc.ScottOracle(family[i], family[j])
        for a in range(table.stab + 2):
            queried += 1
            if oracle.equiv(t, u, a) != table.equivalent(i, t, j, u, a):
                return f"{tag}:({i},{t})~({j},{u})@{a}", queried
    return None, queried


def scott_oracle_checks(seed: int, family_size: int, max_n: int) -> list[CheckResult]:
    rng = random.Random(f"scott:{seed}")

    # Oracle equivalence, exhaustive at tiny sizes.
    small = [m for n in (1, 2) for m in _all_structures(EDGE_SIG, n)]
    items = [(i, t) for i, m in enumerate(small) for t in sc.injective_tuples(m.size)]
    exhaustive, _ = _scott_oracle_mismatch(small, sc.ScottTable(small),
                                           itertools.combinations(items, 2), "exhaustive")

    # Oracle equivalence over a seeded family, sampled positives and negatives.
    family = []
    seen = set()
    while len(family) < family_size:
        m = _random_structure(rng, rng.randint(1, max_n), rng.uniform(0.15, 0.6))
        if m not in seen:
            seen.add(m)
            family.append(m)
    ftab = sc.ScottTable(family)
    samples = []
    by_len: dict[int, list] = {}
    for i, m in enumerate(family):
        for t in sc.injective_tuples(m.size):
            by_len.setdefault(len(t), []).append((i, t))
    for _ in range(400):
        bucket = by_len[rng.choice(sorted(by_len))]
        samples.append((rng.choice(bucket), rng.choice(bucket)))
    for a in range(ftab.stab + 2):
        for block in ftab.blocks(a):
            if len(block) >= 2:
                samples.append((block[0], block[1]))
                break
    bad, queried = _scott_oracle_mismatch(family, ftab, samples, "family")
    return [CheckResult("scott_oracle_exhaustive_small", exhaustive),
            CheckResult("scott_oracle_family", bad,
                        {"family": len(family), "queries": queried})]


def scott_structure_checks(seed: int, exhaustive_n: int,
                           ladder_max: int) -> list[CheckResult]:
    """Finite-scale isomorphism over canonical representatives, the rank
    ladder on linear orders and permutation invariance of the rank.  One
    seeded rng first draws the first check's relabeled copies and pairs,
    then the last check's structures and relabelings; the checks only read
    them, and the first reports its first failure in draw order."""
    rng = random.Random(f"scott:{seed}")
    reps = []
    for n in range(1, exhaustive_n + 1):
        reps.extend(canonical_edge_representatives(n))
    copies = []
    for i in rng.sample(range(len(reps)), min(60, len(reps))):
        perm = tuple(rng.sample(range(reps[i].size), reps[i].size))
        copies.append((i, permute_structure(reps[i], perm)))
    pairs = [(rng.randrange(len(reps)), rng.randrange(len(reps))) for _ in range(300)]
    relabeled = []
    for _ in range(20):
        m = _random_structure(rng, rng.randint(1, 4))
        relabeled.append((m, tuple(rng.sample(range(m.size), m.size))))

    def iso_finite():
        # stabilized root equivalence == brute isomorphism, read from one
        # table over the reps followed by their relabeled copies
        rtab = sc.ScottTable(reps + [image for _, image in copies])
        roots = [rtab.class_of(k, (), STAB) for k in range(len(rtab.family))]
        first = {}
        for i, token in enumerate(roots[:len(reps)]):
            if first.setdefault(token, i) != i:
                return f"reps {first[token]} and {i} share stabilized root class"
        for (i, image), token in zip(copies, roots[len(reps):]):
            if token != roots[i]:
                return f"rep {i}: relabeled copy not stab-equivalent"
            if not brute_isomorphic(reps[i], image, (), ()):
                return f"rep {i}: brute force rejects its own relabeling"
        for i, j in pairs:
            if i != j and brute_isomorphic(reps[i], reps[j], (), ()):
                return f"distinct reps {i},{j} brute-isomorphic"
        return None

    def rank_ladder():
        if sc.scott_rank(chain(2)) != 1:
            return "rank(L2) != 1"
        # item m - 1 is chain(m); L_m and L_m+1 split at the least level
        # where their root classes differ
        ltab = sc.ScottTable([chain(m) for m in range(1, ladder_max + 2)])
        prev = 0
        for m in range(1, ladder_max + 1):
            level = next((a for a in range(ltab.stab + 1)
                          if ltab.class_of(m - 1, (), a) != ltab.class_of(m, (), a)),
                         None)
            if level is None:
                return f"L{m} vs L{m + 1} never split"
            oc = orc.ScottOracle(chain(m), chain(m + 1))
            if oc.equiv((), (), level) or not oc.equiv((), (), level - 1):
                return f"L{m} vs L{m + 1}: naive oracle disputes level {level}"
            if level < prev:
                return f"ladder dips at m={m}"
            prev = level
        return None

    def rank_permutation_invariance():
        for m, perm in relabeled:
            if sc.scott_rank(m) != sc.scott_rank(permute_structure(m, perm)):
                return f"rank not invariant: {sorted(m.facts)} perm {perm}"
        return None

    return [CheckResult("scott_iso_finite", iso_finite(), {"classes": len(reps)}),
            CheckResult("scott_rank_ladder", rank_ladder()),
            CheckResult("scott_rank_permutation_invariance", rank_permutation_invariance())]


# ---------------------------------------------------------------------------
# Vaught suite

def vaught_draws(tables, seed: int, draws: int) -> list[tuple]:
    """Each table with its system's seeded draws, made before any law reads
    them: ``draws`` tuples (A, B, U, y, x, W, V) of point sets, points and
    basis indices, then the fixed-point law's sorted picks of U."""
    items = []
    for si, table in enumerate(tables):
        rng = random.Random(f"vaught:{seed}:{si}")
        npoints, nbasis = table.npoints, table.nbasis
        drawn = []
        for _ in range(draws):
            a = frozenset(x for x in range(npoints) if rng.random() < 0.5)
            b = frozenset(x for x in range(npoints) if rng.random() < 0.5)
            u = rng.randrange(nbasis)
            y, x = rng.randrange(npoints), rng.randrange(npoints)
            w, v = rng.randrange(nbasis), rng.randrange(nbasis)
            drawn.append((a, b, u, y, x, w, v))
        items.append((table, drawn, sorted(rng.sample(range(nbasis), min(4, nbasis)))))
    return items


def vaught_invariance(item) -> str | None:
    table, drawn, _ = item
    sys = table.sys
    full = max(range(table.nbasis), key=lambda v: len(sys.basis_members(v)))

    def invariant(pts):
        return all(frozenset(sys.act(g, x) for x in pts) == pts
                   for g in range(len(sys.group)))

    for a, *_ in drawn:
        star, delta = hj.vaught_star(sys, a, full), hj.vaught_delta(sys, a, full)
        if not (invariant(star) and invariant(delta)
                and invariant(a) == (a == delta) and invariant(a) == (a == star)):
            return f"A={_fmt_set(sys, a)}"
    return None


def vaught_duality(item) -> str | None:
    table, drawn, _ = item
    sys = table.sys
    whole = frozenset(range(table.npoints))

    def fails(a, u):
        return hj.vaught_delta(sys, a, u) != whole - hj.vaught_star(sys, whole - a, u)

    for a, _, u, *_ in drawn:
        if fails(a, u):
            small = shrink_point_set(a, lambda s: fails(s, u))
            return f"A={_fmt_set(sys, small)},U={sys.basis[u]}"
    return None


def vaught_union_intersection(item) -> str | None:
    table, drawn, _ = item
    sys = table.sys
    for a, b, u, *_ in drawn:
        if (hj.vaught_delta(sys, a | b, u)
                != hj.vaught_delta(sys, a, u) | hj.vaught_delta(sys, b, u)
                or hj.vaught_star(sys, a & b, u)
                != hj.vaught_star(sys, a, u) & hj.vaught_star(sys, b, u)):
            return f"A={_fmt_set(sys, a)},B={_fmt_set(sys, b)},U={sys.basis[u]}"
    return None


def vaught_basis_intersection(item) -> str | None:
    table, drawn, _ = item
    sys = table.sys
    for a, _, u, *_ in drawn:
        meet = frozenset(range(table.npoints))
        for w in range(table.nbasis):
            if sys.basis_members(w) <= sys.basis_members(u):
                meet &= hj.vaught_delta(sys, a, w)
        if meet != hj.vaught_star(sys, a, u):
            return f"A={_fmt_set(sys, a)},U={sys.basis[u]}"
    return None


def star_orbit_equivalence(item) -> str | None:
    table, drawn, _ = item
    sys = table.sys
    for *_, y, x, w, v in drawn:
        # y in the star transform over W of the V-translates of x
        target = frozenset(sys.act(g, x) for g in sys.basis_members(v))
        direct = all(sys.act(g, y) in target for g in sys.basis_members(w))
        if direct != table.leq(y, w, x, v, STAB):
            return (f"(y={sys.points[y]},W={sys.basis[w]},"
                    f"x={sys.points[x]},V={sys.basis[v]})")
    return None


def fixed_point_characterization(item) -> str | None:
    # the hypothesis, arbitrarily small neighbourhoods: every singleton is a
    # basis set; a system without it is skipped
    table, _, picks = item
    sys = table.sys
    singles = {frozenset([g]) for g in range(len(sys.group))}
    if not singles <= {sys.basis_members(v) for v in range(table.nbasis)}:
        return None
    for u in picks:
        direct, via = hj.fixed_point_set(table, u)
        if direct != via:
            return (f"U={sys.basis[u]}:direct={_fmt_set(sys, direct)}"
                    f",table={_fmt_set(sys, via)}")
    return None


def run_vaught(tables, seed: int, draws: int) -> list[CheckResult]:
    """The Vaught transform laws, each named after its check, on ``draws``
    seeded draws per system (:func:`vaught_draws`)."""
    items = vaught_draws(tables, seed, draws)
    return [run_law(law.__name__, law, items)
            for law in (vaught_invariance, vaught_duality, vaught_union_intersection,
                        vaught_basis_intersection, star_orbit_equivalence,
                        fixed_point_characterization)]


# ---------------------------------------------------------------------------
# Comparison suite (back-and-forth vs table levels on the logic action)

def comparison_scan(max_n: int = COMPARISON_MAX_N, max_tuple: int = 2, seed: int = 0,
                    signature: Signature = EDGE_SIG, budgets: Budgets | None = None):
    """Exhaustive implication scan: for every ordered pair of structures and
    every stab-equivalent tuple pair (the only pairs the implication
    constrains), the matching coset pairs must be stabilized-related.
    Returns (counterexamples, profile, scanned); the profile tabulates
    (back-and-forth level reached, table level reached) over a seeded sample
    of PROFILE_DRAWS tuple pairs per n. Stab-equivalent tuples of finite
    structures lie in one S_n-orbit, so the scan builds one system per orbit
    (keyed by its root class), each dropped before the next is built, and
    reads each stab-class of it in one gather. A profile draw is read from
    the system of its first structure: a permutation action's table is
    block-diagonal by orbit (V.x lies in the orbit of x, so a cross-orbit
    entry is false at T_1 and stays false), so a draw whose second structure
    is not a point of that system reaches table level 0.  Each orbit table
    is built under ``budgets``; the 512-structure cap per n is the scan's own.

    Everything is read by index.  A structure's scanned items, its tuples
    of length at most ``max_tuple``, are the first entries of its block of
    the Scott table's items, so the stab-classes come from one gather of the
    table's STAB colours over them: a colour fixes the tuple length, so it
    names the class, and since the scanned items hold each class they meet
    whole, ascending colours list the classes by first item.  Each draw is
    routed once, by its first structure's root colour, to that structure's
    orbit; each orbit maps structure indices to its points once; and the
    coset index of every tuple under every bbar is resolved once per n.
    """
    rng = random.Random(f"compare:{seed}")
    counterexamples = []
    profile: dict[tuple[str, str], int] = {}
    scanned = 0
    for n in range(1, max_n + 1):
        atom_count = sum(n ** arity for _, arity in signature.relations)
        if 2 ** atom_count > 512:
            raise BudgetError(f"comparison scan needs 2^{atom_count} structures "
                              f"at n={n}; cap is 512")
        structures = _all_structures(signature, n)
        table = sc.ScottTable(structures)
        index_of = {m: i for i, m in enumerate(structures)}
        tuples = sc.injective_tuples(n)
        lengths = range(min(max_tuple, n) + 1)
        # first[ln]: the index of the first tuple of length ln in ``tuples``
        first = list(itertools.accumulate((math.perm(n, ln) for ln in lengths),
                                          initial=0))
        per, width = first[-1], len(tuples)
        total = len(structures) * per
        draws = [(rng.randrange(total), rng.randrange(total))
                 for _ in range(PROFILE_DRAWS)]
        draws = [(a, b) for a, b in draws
                 if len(tuples[a % per]) == len(tuples[b % per])]
        stab_colours = table.level(STAB)
        root = stab_colours[::width]  # each structure's orbit colour
        colours = stab_colours[(np.arange(len(structures))[:, None] * width
                                + np.arange(per)).ravel()]
        order = np.argsort(colours, kind="stable")
        by_orbit: dict[int, list[np.ndarray]] = {}
        for members in np.split(order, np.flatnonzero(np.diff(colours[order])) + 1):
            by_orbit.setdefault(int(root[members[0] // per]), []).append(members)
        draws_of: dict[int, list[tuple[int, int]]] = {}
        for a, b in draws:
            draws_of.setdefault(int(root[a // per]), []).append((a, b))
        cosets = None
        for orbit, classes in by_orbit.items():
            sysp = FiniteLogicAction(signature, n, n, [structures[classes[0][0] // per]])
            ptab = hj.leq_table(sysp, budgets=budgets)
            stab = ptab.level(STAB)
            if cosets is None:
                # cosets[ln][t - first[ln], k]: basis index of (t, k-th bbar);
                # every system of this n shares one coset basis
                cosets = [np.array([[sysp.basis_of(t, bbar) for bbar in tuples[lo:hi]]
                                    for t in tuples[lo:hi]], dtype=np.intp)
                          for lo, hi in itertools.pairwise(first)]
            point = np.full(len(structures), -1)
            point[[index_of[m] for m in sysp.structures]] = range(len(sysp.structures))
            for members in classes:
                ks = members % per
                ln = len(tuples[ks[0]])
                pts = point[members // per]
                vs = cosets[ln][ks - first[ln]]
                # held[a, b, k]: T(a, k-th coset; b, k-th coset), in list order
                held = stab[pts[:, None, None], vs[:, None, :],
                            pts[None, :, None], vs[None, :, :]]
                scanned += held.size
                if not held.all():
                    for a, b, k in np.argwhere(~held):
                        counterexamples.append((n, int(members[a] // per), tuples[ks[a]],
                                                int(members[b] // per), tuples[ks[b]],
                                                tuples[first[ln] + k]))
            for a, b in draws_of.get(orbit, ()):
                (i, ka), (j, kb) = divmod(a, per), divmod(b, per)
                ln = len(tuples[ka])
                pi, pj = point[i], point[j]
                # the identity bbar comes first among a length's bbars
                v, w = cosets[ln][ka - first[ln], 0], cosets[ln][kb - first[ln], 0]
                s_level = h_level = 0
                while (s_level <= table.stab and table.level(s_level)[i * width + ka]
                       == table.level(s_level)[j * width + kb]):
                    s_level += 1
                while (pj >= 0 and h_level < ptab.stab
                       and ptab.level(h_level + 1)[pi, v, pj, w]):
                    h_level += 1
                key = (f"scott={'stab' if s_level > table.stab else s_level}",
                       f"hjorth={'stab' if h_level >= ptab.stab else h_level}")
                profile[key] = profile.get(key, 0) + 1
            del sysp, ptab, stab
    return counterexamples, profile, scanned


def check_scan_size(n: int) -> None:
    """Refuse a comparison scan over structures larger than the scan's cap."""
    if n > COMPARISON_MAX_N:
        raise BudgetError(f"comparison scan n={n} exceeds the scan's cap "
                          f"n<={COMPARISON_MAX_N}")


def comparison_witness(counterexamples) -> str | None:
    """The first counterexample of a comparison scan, or None."""
    if not counterexamples:
        return None
    n, i, t, j, u, b = counterexamples[0]
    return f"n={n}:M{i}{t}~M{j}{u}->b={b}"


def _symbolic_window_drift(seed: int) -> str | None:
    """The first seeded pair of symbolic systems, windows (s, k) and
    (s + 1, k + 1) over the same two points, that disagree on a cc entry of
    the smaller basis."""
    rng = random.Random(f"symwin:{seed}")
    for _ in range(40):
        s = rng.randint(1, 2)
        k = rng.randint(0, s)
        pts = [_random_supp(rng, s), _random_supp(rng, s)]
        small = SymbolicLogicAction(EDGE_SIG, s, k, pts, Budgets(s=8, k=8))
        big = SymbolicLogicAction(EDGE_SIG, s + 1, k + 1, pts, Budgets(s=8, k=8))
        into = [big.basis_of(*d) for d in small.descriptors]
        nbasis = len(small.basis)
        for v0, v1, x0, x1 in itertools.product(range(nbasis), range(nbasis),
                                                range(2), range(2)):
            if small.cc(x0, v0, x1, v1) != big.cc(x0, into[v0], x1, into[v1]):
                return f"s={s},k={k}:{small.basis[v0]}vs{small.basis[v1]}"
    return None


def run_comparison(seed: int = 0, max_n: int = COMPARISON_MAX_N,
                   budgets: Budgets | None = None) -> VerificationReport:
    counterexamples, _, scanned = comparison_scan(max_n=max_n, seed=seed,
                                                  budgets=budgets)

    # Cross-validation against the truncated group is evidence, not a law:
    # the full-group closure keeps limit points (facts relabeled off to
    # infinity) that no truncation reaches, so divergences are counted and
    # reported rather than asserted away.
    rng = random.Random(f"symfin:{seed}")
    divergences = 0
    sample = None
    tried = 0
    attempts = 0
    while tried < 100 and attempts < 5000:
        attempts += 1
        s = rng.randint(1, 3)
        n = s + 2
        m1, m2 = _random_supp(rng, s), _random_supp(rng, s)
        k = rng.randint(0, min(2, s))
        desc = _coset_descriptors(s, k)
        (a1, b1) = desc[rng.randrange(len(desc))]
        (a2, b2) = desc[rng.randrange(len(desc))]
        ssys = SymbolicLogicAction(EDGE_SIG, s, k, [m1, m2], Budgets(s=8, k=8))
        if not ssys.cc(0, ssys.basis_of(a1, b1), 1, ssys.basis_of(a2, b2)):
            continue
        tried += 1
        f1 = FinStructure(EDGE_SIG, n, m1.facts)
        f2 = FinStructure(EDGE_SIG, n, m2.facts)
        img1 = {permute_structure(f1, p).facts
                for p in itertools.permutations(range(n))
                if all(p[a] == b for a, b in zip(a1, b1))}
        img2 = {permute_structure(f2, p).facts
                for p in itertools.permutations(range(n))
                if all(p[a] == b for a, b in zip(a2, b2))}
        if not img1 <= img2:
            divergences += 1
            if sample is None:
                sample = (f"s={s}:M={sorted(m1.facts)}:N={sorted(m2.facts)}:"
                          f"V[{a1}->{b1}]vs[{a2}->{b2}]")
    return VerificationReport("comparison", [
        CheckResult("scott_implies_hjorth", comparison_witness(counterexamples),
                    {"scanned": scanned}),
        CheckResult("symbolic_finite_cc_crosscheck", None,
                    {"cases": tried, "divergences": divergences,
                     "sample_divergence": sample}),
        CheckResult("symbolic_window_drift", _symbolic_window_drift(seed))])


# ---------------------------------------------------------------------------
# Basis suite

def basis_draws(tables, seed: int) -> list[tuple]:
    """Each table with two systems built from its system's seeded draws, all
    made before any law reads them: the system under another basis (the
    singletons, up to four drawn sets of two or more elements, the group),
    then the subgroup of up to two drawn elements, under all subsets."""
    items = []
    for si, table in enumerate(tables):
        rng = random.Random(f"basis:{seed}:{si}")
        sys = table.sys
        group = range(len(sys.group))
        alt_sets = [frozenset([g]) for g in group]
        for _ in range(min(4, len(group))):
            pick = frozenset(g for g in group if rng.random() < 0.5)
            if len(pick) >= 2 and pick not in alt_sets:
                alt_sets.append(pick)
        if frozenset(group) not in alt_sets:
            alt_sets.append(frozenset(group))
        gens = [sys.perms[g] for g in rng.sample(group, min(2, len(group)))]
        sub = mulclose(gens + [tuple(range(sys.size))], cap=len(group))
        labels = [sys.group[sys.perms.index(p)] for p in sub]
        items.append((table, sys.with_basis(alt_sets),
                      FiniteDiscreteAction(sys.size, list(zip(labels, sub)), ALL_SUBSETS)))
    return items


def basis_shift_bound(item, budgets: Budgets | None = None) -> str | None:
    table, alt, _ = item
    alt_table = hj.leq_table(alt, budgets=budgets)
    for x in range(table.npoints):
        d = abs(hj.hjorth_rank(table, x) - hj.hjorth_rank(alt_table, x))
        if d > 1:
            return f"x={table.sys.points[x]}:shift={d}"
    return None


def clopen_subgroup_bound(item, budgets: Budgets | None = None) -> str | None:
    table, _, sub = item
    sub_table = hj.leq_table(sub, budgets=budgets)
    max_g = max(hj.hjorth_rank(table, x) for x in range(table.npoints))
    max_o = max(hj.hjorth_rank(sub_table, x) for x in range(table.npoints))
    if max_o > max_g + 1:
        return f"O={{{','.join(sub.group)}}}:{max_o}>{max_g}+1"
    return None


def run_basis(tables, seed: int, budgets: Budgets | None = None) -> list[CheckResult]:
    """Rank bounds under a change of basis and under a clopen subgroup on
    each system's draws (:func:`basis_draws`), each new table built under
    ``budgets``; each law is named after its check."""
    items = basis_draws(tables, seed)
    return [run_law(law.__name__, functools.partial(law, budgets=budgets), items)
            for law in (basis_shift_bound, clopen_subgroup_bound)]


SUITES = ("lemmas", "iso", "vaught", "comparison", "basis")


def run_suite(suite: str, seed: int, sizes: dict, count: int = DEFAULT_COUNT,
              on_report=None, budgets: Budgets | None = None) -> list[VerificationReport]:
    """Run one named suite (or 'all') over a seeded ensemble, each size
    missing from ``sizes`` at its default, and every level table it builds
    under ``budgets``.  The ensemble's tables are built once and shared by
    the suites that read them; if a build fails, its failure is the only
    check of each of those suites.  Each report is passed to
    ``on_report``, if given, as soon as its suite finishes, so a fault in a
    later suite does not lose it."""
    sizes = {**DEFAULT_SIZES, **sizes}
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}")
    wanted = SUITES if suite == "all" else (suite,)
    if set(wanted) - {"comparison"}:
        systems = ensemble(seed, count, sizes["g"], sizes["x"])
        tables, failure = _build_tables(systems, budgets)
    reports = []
    for name in wanted:
        if name == "comparison":
            checks = run_comparison(seed=seed, max_n=sizes["n"], budgets=budgets).checks
        elif failure is not None:
            checks = [failure]
        elif name == "lemmas":
            checks = [leq_oracle_check(systems, tables)] + run_lemmas(tables)
        elif name == "iso":
            checks = (run_iso(tables) + scott_oracle_checks(seed, 500, 4)
                      + scott_structure_checks(seed, 4, 6))
        elif name == "vaught":
            checks = run_vaught(tables, seed, 200)
        else:
            checks = run_basis(tables, seed, budgets)
        report = VerificationReport(name, checks)
        if on_report is not None:
            on_report(report)
        reports.append(report)
    return reports
