"""Property and lemma suites with machine-readable verdicts.

:func:`run_suite` builds a seeded ensemble and its level tables once, hands
the tables to the suites that read them (``run_lemmas``, ``run_iso``,
``run_vaught``, ``run_basis``; each system is ``table.sys``) and assembles
each suite's checks into a :class:`VerificationReport`.  A failing check
always carries a witness, minimal under greedy deletion where the witness is
set-valued.  Identical seeds and sizes reproduce identical reports.
"""

from __future__ import annotations

import itertools
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


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None
    stats: dict = field(default_factory=dict)

    def record(self) -> str:
        return hj.check_record(self.name, self.passed, self.witness)


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


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


def _fmt_set(sys, points) -> str:
    return "{" + ",".join(sys.points[x] for x in sorted(points)) + "}"


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


def random_finite_discrete(rng: random.Random, max_g: int = 8, max_x: int = 6,
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
        labels = []
        k = 1
        for p in els:
            if p == tuple(range(n)):
                labels.append("e")
            else:
                labels.append(f"g{k}")
                k += 1
        return FiniteDiscreteAction(n, list(zip(labels, els)), ALL_SUBSETS)


def ensemble(seed: int, count: int, max_g: int = 8, max_x: int = 6,
             total_cost: float = 8.0e6) -> list[FiniteDiscreteAction]:
    """The seeded system ensemble; a running cost budget keeps the naive
    oracle comparison affordable while still admitting systems at the caps."""
    rng = random.Random(f"ensemble:{seed}")
    out = []
    remaining = total_cost
    for _ in range(count):
        sys = random_finite_discrete(rng, max_g, max_x, cost_cap=remaining)
        remaining = max(remaining - _oracle_cost(sys.size, len(sys.group)), 1000.0)
        out.append(sys)
    return out


class CorruptedSystem(hj.ActionSystem):
    """Mutation hook: one cc entry flipped.  For fault-injection tests."""

    def __init__(self, base: hj.ActionSystem, quad: tuple[int, int, int, int]):
        self.base = base
        self.quad = quad
        self.points = base.points
        self.basis = base.basis
        self.group = base.group

    def contains(self, w, v):
        return self.base.contains(w, v)

    def cc(self, x0, v0, x1, v1):
        flip = (x0, v0, x1, v1) == self.quad
        return self.base.cc(x0, v0, x1, v1) != flip

    def act(self, g, x):
        return self.base.act(g, x)

    def basis_members(self, v):
        return self.base.basis_members(v)


def _random_structure(rng: random.Random, n: int, density: float = 0.35) -> FinStructure:
    facts = frozenset(("edge", (i, j)) for i in range(n) for j in range(n)
                      if rng.random() < density)
    return FinStructure(EDGE_SIG, n, facts)


def _random_supp(rng: random.Random, s: int, density: float = 0.4) -> SuppStructure:
    support = rng.randint(0, s)
    facts = frozenset(("edge", (i, j)) for i in range(support) for j in range(support)
                      if rng.random() < density)
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

def _build_tables(systems) -> tuple[list[hj.LevelTable], CheckResult | None]:
    """One table per system, or the failing check of the first system whose
    base relation makes a level grow."""
    tables = []
    for si, sys in enumerate(systems):
        try:
            tables.append(hj.leq_table(sys))
        except InvalidBaseRelationError as exc:
            return tables, CheckResult("level_monotonicity", False,
                                       f"sys{si}:{hj.quad_witness(sys, *exc.witness)}")
    return tables, None


def oracle_mismatch(sys, table: hj.LevelTable) -> tuple[str | None, int]:
    """First quadruple, in index order, where a stabilized table and the
    literal recursion disagree at some level up to one past stabilization,
    and the number of quadruples compared."""
    levels = list(range(1, table.stab + 2))
    oc = orc.LeqOracle(sys, depth_cap=table.stab + 2)
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
                            witness = hj.quad_witness(sys, x0, v0, x1, v1)
                            return f"{witness}@level={a}", quads
    return None, quads


def leq_oracle_check(systems, tables) -> CheckResult:
    """Engine tables against the literal recursion: every system, every
    quadruple, every level up to one past stabilization.  Exact match."""
    oracle_bad = None
    quads = 0
    for si, (sys, table) in enumerate(zip(systems, tables, strict=True)):
        mismatch, compared = oracle_mismatch(sys, table)
        quads += compared
        if mismatch:
            oracle_bad = f"sys{si}:{mismatch}"
            break
    return CheckResult("leq_oracle_equivalence", oracle_bad is None, oracle_bad,
                       {"quadruples": quads})


def run_lemmas(tables) -> list[CheckResult]:
    """The chain, translation and equivalence laws of each table."""
    checks = []
    trans_bad = None
    mono_ok = True
    setmono_bad = None
    transl_bad = None
    equiv_bad = None
    invsets_bad = None
    invsets_checked = 0
    for si, table in enumerate(tables):
        sys = table.sys
        npoints, nbasis = table.npoints, table.nbasis
        levels = list(range(1, table.stab + 2))

        nq = npoints * nbasis
        for a in levels:
            t = table.level(a).reshape(nq, nq)
            tf = t.astype(np.float32)
            viol = ((tf @ tf) > 0) & ~t
            if trans_bad is None and viol.any():
                i, j = (int(v) for v in np.argwhere(viol)[0])
                trans_bad = f"sys{si}:level={a}:q0={i},q2={j}"
        for a in range(1, table.stab + 1):
            nxt = table.level(a + 1)
            if (nxt & ~table.level(a)).any():
                mono_ok = False
        kron = np.kron(np.eye(npoints, dtype=np.float32), table.sub.astype(np.float32))
        for a in levels:
            t = table.level(a).reshape(nq, nq)
            image = ((kron @ t.astype(np.float32) @ kron) > 0) & ~t
            if setmono_bad is None and image.any():
                i, j = (int(v) for v in np.argwhere(image)[0])
                setmono_bad = f"sys{si}:level={a}:q0={i},q1={j}"

        if sys.translation_closed and transl_bad is None:
            for a in levels:
                for g in range(len(sys.group)):
                    for x in range(npoints):
                        gx = sys.act(g, x)
                        for v in range(nbasis):
                            if not table.leq(x, v, gx, sys.translate(v, g), a):
                                transl_bad = (f"sys{si}:level={a}:g={sys.group[g]},"
                                              f"x={sys.points[x]},V={sys.basis[v]}")
                                break
                        if transl_bad:
                            break
                    if transl_bad:
                        break
                if transl_bad:
                    break

        if equiv_bad is None:
            for a in levels:
                eq = table.equiv_matrix(a)
                if not eq.diagonal().all() or (eq != eq.T).any():
                    equiv_bad = f"sys{si}:level={a}:not reflexive/symmetric"
                    break
                closure = ((eq.astype(np.float32) @ eq.astype(np.float32)) > 0)
                if (closure & ~eq).any():
                    equiv_bad = f"sys{si}:level={a}:not transitive"
                    break
                for g in range(len(sys.group)):
                    for x in range(npoints):
                        if not eq[x, sys.act(g, x)]:
                            equiv_bad = (f"sys{si}:level={a}:x={sys.points[x]},"
                                         f"g={sys.group[g]}")
                            break
                    if equiv_bad:
                        break
                if equiv_bad:
                    break

        if invsets_bad is None:
            parts = orc.orbit_partition(sys)
            if len(parts.blocks) <= 4:
                invsets_checked += 1
                sets = orc.invariant_sets(sys)
                for x in range(npoints):
                    for y in range(npoints):
                        same_sets = all((x in s) == (y in s) for s in sets)
                        if same_sets != table.equiv(x, y, STAB):
                            invsets_bad = f"sys{si}:({sys.points[x]},{sys.points[y]})"
                            break
                    if invsets_bad:
                        break

    checks.append(CheckResult("leq_transitivity", trans_bad is None, trans_bad))
    checks.append(CheckResult("level_monotonicity", mono_ok,
                              None if mono_ok else "chain grew"))
    checks.append(CheckResult("set_monotonicity", setmono_bad is None, setmono_bad))
    checks.append(CheckResult("translation_invariance", transl_bad is None, transl_bad))
    checks.append(CheckResult("equiv_invariance", equiv_bad is None, equiv_bad))
    checks.append(CheckResult("stabilized_equiv_invariant_sets", invsets_bad is None,
                              invsets_bad, {"systems": invsets_checked}))
    return checks


# ---------------------------------------------------------------------------
# Isomorphism suite

def run_iso(tables) -> list[CheckResult]:
    """The isomorphism theorem, finite discrete collapse and rank laws."""
    checks = []
    iso_bad = None
    m_bad = None
    collapse_bad = None
    rankinv_bad = None
    part_bad = None
    cmp_bad = None
    for si, table in enumerate(tables):
        sys = table.sys
        parts = orc.orbit_partition(sys)
        npoints = len(sys.points)
        ranks = [hj.hjorth_rank(table, x) for x in range(npoints)]
        for x in range(npoints):
            for y in range(npoints):
                want = parts.same_orbit(x, y)
                got = table.equiv(x, y, max(ranks[x], ranks[y]) + 1)
                if iso_bad is None and want != got:
                    iso_bad = f"sys{si}:({sys.points[x]},{sys.points[y]})"
            if m_bad is None:
                try:
                    hj.minimal_m(table, x)
                except RankforgeError:  # the family is not a basis
                    m_bad = f"sys{si}:{sys.points[x]}"
        if collapse_bad is None:
            if table.stab != 1:
                collapse_bad = f"sys{si}:stab={table.stab}"
            else:
                for x in range(npoints):
                    for y in range(npoints):
                        if table.equiv(x, y, 2) != parts.same_orbit(x, y):
                            collapse_bad = f"sys{si}:({sys.points[x]},{sys.points[y]})"
                            break
                    if collapse_bad:
                        break
        if rankinv_bad is None:
            for g in range(len(sys.group)):
                for x in range(npoints):
                    if ranks[x] != ranks[sys.act(g, x)]:
                        rankinv_bad = f"sys{si}:x={sys.points[x]},g={sys.group[g]}"
                        break
                if rankinv_bad:
                    break
        if part_bad is None:
            rank_parts = hj.partition_by_rank(table)
            union = frozenset().union(*(p for _, p in rank_parts)) if rank_parts else frozenset()
            if union != frozenset(range(npoints)):
                part_bad = f"sys{si}:union"
            else:
                for value, block in rank_parts:
                    for g in range(len(sys.group)):
                        if frozenset(sys.act(g, x) for x in block) != block:
                            part_bad = f"sys{si}:rank={value},g={sys.group[g]}"
                            break
                    if part_bad:
                        break
        if cmp_bad is None:
            for x in range(npoints):
                for y in range(npoints):
                    c, c2 = hj.compare_ranks(table, x, y), hj.compare_ranks(table, y, x)
                    flip = {"<": ">", ">": "<", "=": "="}
                    if c2 != flip[c] or (parts.same_orbit(x, y) and c != "="):
                        cmp_bad = f"sys{si}:({sys.points[x]},{sys.points[y]})"
                        break
                if cmp_bad:
                    break
    checks.append(CheckResult("isomorphism_theorem", iso_bad is None, iso_bad))
    checks.append(CheckResult("minimal_m_finite", m_bad is None, m_bad))
    checks.append(CheckResult("finite_discrete_collapse", collapse_bad is None,
                              collapse_bad))
    checks.append(CheckResult("rank_orbit_invariance", rankinv_bad is None, rankinv_bad))
    checks.append(CheckResult("rank_partition", part_bad is None, part_bad))
    checks.append(CheckResult("rank_comparison_consistency", cmp_bad is None, cmp_bad))
    return checks


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
    checks = []
    rng = random.Random(f"scott:{seed}")

    # Oracle equivalence, exhaustive at tiny sizes.
    small = [m for n in (1, 2) for m in _all_structures(EDGE_SIG, n)]
    items = [(i, t) for i, m in enumerate(small) for t in sc.injective_tuples(m.size)]
    bad, _ = _scott_oracle_mismatch(small, sc.ScottTable(small),
                                    itertools.combinations(items, 2), "exhaustive")
    checks.append(CheckResult("scott_oracle_exhaustive_small", bad is None, bad))

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
    checks.append(CheckResult("scott_oracle_family", bad is None, bad,
                              {"family": len(family), "queries": queried}))
    return checks


def scott_structure_checks(seed: int, exhaustive_n: int, ladder_max: int,
                           max_n: int = 4) -> list[CheckResult]:
    checks = []
    rng = random.Random(f"scott:{seed}")

    # Finite-scale isomorphism: stabilized root equivalence == brute isomorphism,
    # exhaustive over canonical representatives.
    reps = []
    for n in range(1, exhaustive_n + 1):
        reps.extend(canonical_edge_representatives(n))
    rtab = sc.ScottTable(reps)
    bad = None
    roots = {}
    for i, m in enumerate(reps):
        token = rtab.class_of(i, (), STAB)
        if token in roots:
            bad = f"reps {roots[token]} and {i} share stabilized root class"
            break
        roots[token] = i
    if bad is None:
        for i in rng.sample(range(len(reps)), min(60, len(reps))):
            m = reps[i]
            perm = tuple(rng.sample(range(m.size), m.size))
            image = permute_structure(m, perm)
            if not sc.scott_iso_check(m, image):
                bad = f"rep {i}: relabeled copy not stab-equivalent"
                break
            if not brute_isomorphic(m, image, (), ()):
                bad = f"rep {i}: brute force rejects its own relabeling"
                break
        for _ in range(300):
            i, j = rng.randrange(len(reps)), rng.randrange(len(reps))
            if i == j:
                continue
            if brute_isomorphic(reps[i], reps[j], (), ()):
                bad = f"distinct reps {i},{j} brute-isomorphic"
                break
            if sc.scott_iso_check(reps[i], reps[j]):
                bad = f"distinct reps {i},{j} stab-equivalent"
                break
    checks.append(CheckResult("scott_iso_finite", bad is None, bad,
                              {"classes": len(reps)}))

    # Rank ladder on linear orders.
    bad = None
    if sc.scott_rank(chain(2)) != 1:
        bad = "rank(L2) != 1"
    else:
        prev = 0
        for m in range(1, ladder_max + 1):
            lm, lm1 = chain(m), chain(m + 1)
            level = sc.distinguishing_level(lm, lm1)
            if level is None:
                bad = f"L{m} vs L{m + 1} never split"
                break
            oc = orc.ScottOracle(lm, lm1)
            if oc.equiv((), (), level) or not oc.equiv((), (), level - 1):
                bad = f"L{m} vs L{m + 1}: naive oracle disputes level {level}"
                break
            if level < prev:
                bad = f"ladder dips at m={m}"
                break
            prev = level
    checks.append(CheckResult("scott_rank_ladder", bad is None, bad))

    # Permutation invariance of the rank.
    bad = None
    for _ in range(20):
        m = _random_structure(rng, rng.randint(1, max_n))
        perm = tuple(rng.sample(range(m.size), m.size))
        if sc.scott_rank(m) != sc.scott_rank(permute_structure(m, perm)):
            bad = f"rank not invariant: {sorted(m.facts)} perm {perm}"
            break
    checks.append(CheckResult("scott_rank_permutation_invariance", bad is None, bad))
    return checks


# ---------------------------------------------------------------------------
# Vaught suite

def run_vaught(tables, seed: int, draws: int) -> list[CheckResult]:
    """The Vaught transform laws over ``draws`` seeded sets per system."""
    names = ["vaught_invariance", "vaught_duality", "vaught_union_intersection",
             "vaught_complexity_collapse", "vaught_basis_intersection",
             "star_orbit_equivalence", "fixed_point_characterization"]
    bad: dict[str, str | None] = {name: None for name in names}
    for si, table in enumerate(tables):
        sys = table.sys
        rng = random.Random(f"vaught:{seed}:{si}")
        npoints, nbasis = len(sys.points), len(sys.basis)
        whole = frozenset(range(npoints))
        full = max(range(nbasis), key=lambda v: len(sys.basis_members(v)))

        def fails_duality(a, u=None):
            du = full if u is None else u
            return hj.vaught_delta(sys, a, du) != whole - hj.vaught_star(sys, whole - a, du)

        for _ in range(draws):
            a = frozenset(x for x in range(npoints) if rng.random() < 0.5)
            b = frozenset(x for x in range(npoints) if rng.random() < 0.5)
            u = rng.randrange(nbasis)

            if bad["vaught_invariance"] is None:
                star, delta = hj.vaught_star(sys, a, full), hj.vaught_delta(sys, a, full)

                def is_invariant(pts):
                    return all(frozenset(sys.act(g, x) for x in pts) == pts
                               for g in range(len(sys.group)))

                holds = (is_invariant(star) and is_invariant(delta)
                         and is_invariant(a) == (a == delta)
                         and is_invariant(a) == (a == star))
                if not holds:
                    bad["vaught_invariance"] = f"sys{si}:A={_fmt_set(sys, a)}"

            if bad["vaught_duality"] is None and fails_duality(a, u):
                small = shrink_point_set(a, lambda s: fails_duality(s, u))
                bad["vaught_duality"] = (f"sys{si}:A={_fmt_set(sys, small)},"
                                         f"U={sys.basis[u]}")

            if bad["vaught_union_intersection"] is None:
                if (hj.vaught_delta(sys, a | b, u)
                        != hj.vaught_delta(sys, a, u) | hj.vaught_delta(sys, b, u)
                        or hj.vaught_star(sys, a & b, u)
                        != hj.vaught_star(sys, a, u) & hj.vaught_star(sys, b, u)):
                    bad["vaught_union_intersection"] = (
                        f"sys{si}:A={_fmt_set(sys, a)},B={_fmt_set(sys, b)},"
                        f"U={sys.basis[u]}")

            if bad["vaught_complexity_collapse"] is None:
                # every subset of a finite discrete space is clopen, so the
                # complexity clause holds vacuously; assert well-definedness
                if not (hj.vaught_star(sys, a, u) <= whole
                        and hj.vaught_delta(sys, a, u) <= whole):
                    bad["vaught_complexity_collapse"] = f"sys{si}"

            if bad["vaught_basis_intersection"] is None:
                subs = [w for w in range(nbasis)
                        if sys.basis_members(w) <= sys.basis_members(u)]
                meet = whole
                for w in subs:
                    meet &= hj.vaught_delta(sys, a, w)
                if meet != hj.vaught_star(sys, a, u):
                    bad["vaught_basis_intersection"] = (
                        f"sys{si}:A={_fmt_set(sys, a)},U={sys.basis[u]}")

            if bad["star_orbit_equivalence"] is None:
                y, x = rng.randrange(npoints), rng.randrange(npoints)
                w, v = rng.randrange(nbasis), rng.randrange(nbasis)
                direct, via = hj.star_orbit_equivalence_check(table, y, w, x, v)
                if direct != via:
                    bad["star_orbit_equivalence"] = (
                        f"sys{si}:(y={sys.points[y]},W={sys.basis[w]},"
                        f"x={sys.points[x]},V={sys.basis[v]})")

        if bad["fixed_point_characterization"] is None:
            picks = sorted(rng.sample(range(nbasis), min(4, nbasis)))
            for u in picks:
                result = hj.fixed_point_set(table, u)
                if result.applicable and not result.agree:
                    bad["fixed_point_characterization"] = (
                        f"sys{si}:U={sys.basis[u]}:direct={_fmt_set(sys, result.direct)}"
                        f",table={_fmt_set(sys, result.via_table)}")
                    break
    return [CheckResult(name, bad[name] is None, bad[name]) for name in names]


# ---------------------------------------------------------------------------
# Comparison suite (back-and-forth vs table levels on the logic action)

def comparison_scan(max_n: int = 3, max_tuple: int = 2,
                    profile_sample: int = 200, seed: int = 0,
                    signature: Signature = EDGE_SIG):
    """Exhaustive implication scan: for every ordered pair of structures and
    every stab-equivalent tuple pair (the only pairs the implication
    constrains), the matching coset pairs must be stabilized-related.
    Returns (counterexamples, profile, scanned); the profile tabulates
    (back-and-forth level reached, table level reached) over a seeded sample
    of tuple pairs. Stab-equivalent tuples of finite structures lie in one
    S_n-orbit, so the scan builds one system per orbit (keyed by its root
    class) and one per profile draw, each dropped before the next is built.
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
        # t -> basis index of (t, bbar) for each bbar; every system of this n
        # shares one coset basis, so each index is resolved once
        cosets: dict[tuple, list[int]] = {}
        lengths = range(min(max_tuple, n) + 1)
        items = [(i, t) for i in range(len(structures))
                 for ln in lengths
                 for t in itertools.permutations(range(n), ln)]
        by_class: dict[tuple, list] = {}
        for i, t in items:
            by_class.setdefault(table.class_of(i, t, STAB), []).append((i, t))
        by_orbit: dict[tuple, list] = {}
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
            del sysp, ptab
        for _ in range(profile_sample):
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
            del sysp, ptab
    return counterexamples, profile, scanned


def comparison_witness(counterexamples) -> str | None:
    """The first counterexample of a comparison scan, or None."""
    if not counterexamples:
        return None
    n, i, t, j, u, b = counterexamples[0]
    return f"n={n}:M{i}{t}~M{j}{u}->b={b}"


def run_comparison(seed: int = 0, max_n: int = 3, cases: int = 100) -> VerificationReport:
    checks = []
    counterexamples, profile, scanned = comparison_scan(max_n=max_n, seed=seed)
    checks.append(CheckResult("scott_implies_hjorth", not counterexamples,
                              comparison_witness(counterexamples),
                              {"scanned": scanned}))

    # Cross-validation against the truncated group is evidence, not a law:
    # the full-group closure keeps limit points (facts relabeled off to
    # infinity) that no truncation reaches, so divergences are counted and
    # reported rather than asserted away.
    rng = random.Random(f"symfin:{seed}")
    divergences = 0
    sample = None
    tried = 0
    attempts = 0
    while tried < cases and attempts < cases * 50:
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
    checks.append(CheckResult("symbolic_finite_cc_crosscheck", True, None,
                              {"cases": tried, "divergences": divergences,
                               "sample_divergence": sample}))

    bad = None
    rng2 = random.Random(f"symwin:{seed}")
    for _ in range(40):
        s = rng2.randint(1, 2)
        k = rng2.randint(0, s)
        pts = [_random_supp(rng2, s), _random_supp(rng2, s)]
        small = SymbolicLogicAction(EDGE_SIG, s, k, pts, Budgets(s=8, k=8))
        big = SymbolicLogicAction(EDGE_SIG, s + 1, k + 1, pts, Budgets(s=8, k=8))
        for v0 in range(len(small.basis)):
            for v1 in range(len(small.basis)):
                bv0 = big.basis_of(*small.descriptors[v0])
                bv1 = big.basis_of(*small.descriptors[v1])
                for x0 in range(2):
                    for x1 in range(2):
                        if small.cc(x0, v0, x1, v1) != big.cc(x0, bv0, x1, bv1):
                            bad = f"s={s},k={k}:{small.basis[v0]}vs{small.basis[v1]}"
                            break
                    if bad:
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    checks.append(CheckResult("symbolic_window_drift", bad is None, bad))
    return VerificationReport("comparison", checks)


# ---------------------------------------------------------------------------
# Basis suite

def run_basis(tables, seed: int) -> list[CheckResult]:
    """Rank bounds under a change of basis and under a clopen subgroup."""
    checks = []
    shift_bad = None
    subgroup_bad = None
    for si, table in enumerate(tables):
        sys = table.sys
        rng = random.Random(f"basis:{seed}:{si}")
        ngroup = len(sys.group)
        singles = [frozenset([g]) for g in range(ngroup)]
        extras = []
        for _ in range(min(4, ngroup)):
            pick = frozenset(g for g in range(ngroup) if rng.random() < 0.5)
            if len(pick) >= 2 and pick not in extras:
                extras.append(pick)
        whole = frozenset(range(ngroup))
        alt_sets = singles + [s for s in extras if s not in singles]
        if whole not in alt_sets:
            alt_sets.append(whole)
        alt = sys.with_basis(alt_sets)
        if shift_bad is None:
            shifts = hj.basis_shift_check(table, hj.leq_table(alt))
            for x, d in shifts.items():
                if d > 1:
                    shift_bad = f"sys{si}:x={sys.points[x]}:shift={d}"
                    break

        if subgroup_bad is None:
            gens = rng.sample(range(ngroup), min(2, ngroup))
            sub = mulclose([sys.perms[g] for g in gens] + [tuple(range(sys.size))],
                           cap=ngroup)
            labels = [sys.group[sys.perms.index(p)] for p in sub]
            subsystem = FiniteDiscreteAction(sys.size, list(zip(labels, sub)),
                                             ALL_SUBSETS)
            sub_table = hj.leq_table(subsystem)
            max_g = max(hj.hjorth_rank(table, x) for x in range(sys.size))
            max_o = max(hj.hjorth_rank(sub_table, x) for x in range(sys.size))
            if max_o > max_g + 1:
                subgroup_bad = f"sys{si}:O={{{','.join(labels)}}}:{max_o}>{max_g}+1"
    checks.append(CheckResult("basis_shift_bound", shift_bad is None, shift_bad))
    checks.append(CheckResult("clopen_subgroup_bound", subgroup_bad is None,
                              subgroup_bad))
    return checks


SUITES = ("lemmas", "iso", "vaught", "comparison", "basis")


def run_suite(suite: str, seed: int, sizes: dict, count: int = 200) -> list[VerificationReport]:
    """Run one named suite (or 'all') over a seeded ensemble.  The ensemble's
    tables are built once and shared by the suites that read them; if a build
    fails, its failure is the only check of each of those suites."""
    max_g = sizes.get("g", 8)
    max_x = sizes.get("x", 6)
    max_n = sizes.get("n", 3)
    if suite not in SUITES + ("all",):
        raise ValueError(f"unknown suite {suite!r}")
    wanted = SUITES if suite == "all" else (suite,)
    if set(wanted) - {"comparison"}:
        systems = ensemble(seed, count, max_g, max_x)
        tables, failure = _build_tables(systems)
    reports = []
    for name in wanted:
        if name == "comparison":
            reports.append(run_comparison(seed=seed, max_n=min(max_n, 3)))
            continue
        if failure is not None:
            checks = [failure]
        elif name == "lemmas":
            checks = [leq_oracle_check(systems, tables)] + run_lemmas(tables)
        elif name == "iso":
            checks = (run_iso(tables) + scott_oracle_checks(seed, 500, 4)
                      + scott_structure_checks(seed, 4, 6))
        elif name == "vaught":
            checks = run_vaught(tables, seed, 200)
        else:
            checks = run_basis(tables, seed)
        reports.append(VerificationReport(name, checks))
    return reports
