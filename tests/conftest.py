import functools
import importlib.util
import itertools
import os
import random
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rankforge import hjorth as hj  # noqa: E402
from rankforge.actions import (ALL_SUBSETS, FiniteDiscreteAction,  # noqa: E402
                               FiniteLogicAction, parse_action_file)
from rankforge.common import STAB, InvalidBaseRelationError  # noqa: E402
from rankforge.scott import ScottTable, _refinement  # noqa: E402
from rankforge.structures import (FinStructure, Signature,  # noqa: E402
                                  parse_structures_file)
from rankforge.verify import random_finite_discrete  # noqa: E402

ORDER_SIG = Signature((("lt", 2),))
EDGE_SIG = Signature((("edge", 2),))


def chain(m: int) -> FinStructure:
    return FinStructure(ORDER_SIG, m,
                        frozenset(("lt", (i, j)) for i in range(m)
                                  for j in range(m) if i < j))


def make_sys1() -> FiniteDiscreteAction:
    """Three points, the swap of the first two; every nonempty subset of the
    two group elements is a basis set."""
    return FiniteDiscreteAction(3, [("e", (0, 1, 2)), ("s", (1, 0, 2))],
                                ALL_SUBSETS)


def make_non_basis_family() -> FiniteDiscreteAction:
    """C3 acting on itself with the family {e,r}, {e,r2}, {e,r,r2}."""
    return FiniteDiscreteAction(
        3, [("e", (0, 1, 2)), ("r", (1, 2, 0)), ("r2", (2, 0, 1))],
        [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2})])


# S3 acting on 5 points, with the 12 translation-closed sets that contain no
# singleton: six of 3 elements and the six of 5.  Without singletons the
# sweep can change T_1: the table stabilizes at level 2, and points 0, 1
# and 3 have rank 2.
STAB2_ACTION = """space size 5
group
elem g0 : 0 1 2 3 4
elem g1 : 0 1 4 3 2
elem g2 : 1 3 2 0 4
elem g3 : 1 3 4 0 2
elem g4 : 3 0 2 1 4
elem g5 : 3 0 4 1 2
end
basis sets: {g0,g1,g4} {g0,g1,g5} {g0,g2,g3} {g1,g2,g3} {g2,g4,g5} {g3,g4,g5} \
{g0,g1,g2,g3,g4} {g0,g1,g2,g3,g5} {g0,g1,g2,g4,g5} {g0,g1,g3,g4,g5} \
{g0,g2,g3,g4,g5} {g1,g2,g3,g4,g5}
"""


def make_stab2_system() -> FiniteDiscreteAction:
    """The system of ``STAB2_ACTION``, whose table stabilizes at level 2."""
    return parse_action_file(STAB2_ACTION)


def draw_translation_closed(rng):
    """One system by the stab-2 search's recipe: a seeded group of order at
    least 3 and a basis of G plus 1-4 random sets of 2 to |G|-1 elements,
    each with all of its right translates."""
    while True:
        sys = random_finite_discrete(rng, 12, 6)
        if len(sys.group) >= 3:
            break
    inverse, compose = sys.group_law()
    order = len(sys.group)
    sets = [frozenset(range(order))]
    for _ in range(rng.randint(1, 4)):
        drawn = rng.sample(range(order), rng.randint(2, order - 1))
        for g in range(order):
            translate = frozenset(compose[v][inverse[g]] for v in drawn)
            if translate not in sets:
                sets.append(translate)
    return sys.with_basis(sets)


# seeded draws kept for the oracle and fault-table tests: the first four that
# stabilize at level 2 and the first four whose levels grow, of at most 50
# (point, basis set) pairs each; about 2% of draws stabilize at level 2
SEEDED_KINDS = {"stab2": 4, "grows": 4}


@functools.cache
def seeded_level_draws():
    """``(draw index, kind, points, elements, basis sets)`` of each kept
    draw, in draw order.  Systems are rebuilt from these on each call, so no
    test shares one with another."""
    rng = random.Random("oracle-levels:3")
    kept, counts = [], dict.fromkeys(SEEDED_KINDS, 0)
    for index in itertools.count():
        if counts == SEEDED_KINDS:
            return tuple(kept)
        sys = draw_translation_closed(rng)
        if len(sys.points) * len(sys.basis) > 50:
            continue
        try:
            kind = f"stab{hj.leq_table(sys).stab}"
        except InvalidBaseRelationError:
            kind = "grows"
        if kind in counts and counts[kind] < SEEDED_KINDS[kind]:
            counts[kind] += 1
            kept.append((index, kind, sys.size, tuple(zip(sys.group, sys.perms)),
                         tuple(sys.basis_sets)))


def edge_structures(*sizes: int) -> list[FinStructure]:
    """Every edge structure on 3 elements with one of the given edge counts."""
    atoms = [("edge", (i, j)) for i in range(3) for j in range(3)]
    return [FinStructure(EDGE_SIG, 3, frozenset(c))
            for size in sizes for c in itertools.combinations(atoms, size)]


def relabel_hjorth_structures() -> list[FinStructure]:
    """The 60 input structures of the benchmark's relabel-hjorth workload
    (seed 0), in file order."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    _, structures = parse_structures_file(inputs.relabel_hjorth_input(0)[0])
    return list(structures.values())


def relabel_hjorth_system() -> FiniteLogicAction:
    """The relabeling system of the benchmark's relabel-hjorth input (seed
    0): 244 edge structures on 3 elements in 44 orbits, k = 3."""
    return FiniteLogicAction(EDGE_SIG, 3, 3, relabel_hjorth_structures())


def one_block_levels(sys: hj.ActionSystem, max_level: int | None = None):
    """``(stab, levels)`` of the level tables built as one dense block over
    all points: T_1 from the whole image tensor (or one cc call per entry),
    each sweep over the whole previous level, one x1 at a time.  Raises the
    same ``InvalidBaseRelationError`` when a sweep grows the table.  Kept
    as the reference for the orbit-blocked build."""
    npoints, nbasis = len(sys.points), len(sys.basis)
    subf = np.array([[sys.contains(w, v) for v in range(nbasis)]
                     for w in range(nbasis)], dtype=np.float32)
    img = sys.image_tensor()
    if img is None:
        quads = itertools.product(range(npoints), range(nbasis), repeat=2)
        t1 = np.fromiter((sys.cc(*q) for q in quads), dtype=bool,
                         count=(npoints * nbasis) ** 2)
    else:
        f = img.reshape(npoints * nbasis, npoints).astype(np.float32)
        miss = (1 - f).T
        t1 = np.concatenate([f[lo:lo + 256] @ miss == 0
                             for lo in range(0, len(f), 256)])
    levels = [t1.reshape((npoints, nbasis) * 2)]
    while max_level is None or len(levels) < max_level:
        prev = levels[-1]
        nxt = np.empty_like(prev)
        for x1 in range(npoints):
            # exists[x0,W0,V1]: some W1 <= V1 has prev(x1,W1,x0,W0)
            exists = prev[x1].transpose(1, 2, 0).astype(np.float32) @ subf > 0
            # fail[x0,V1,V0]: some W0 <= V0 with no such W1
            fail = (~exists).transpose(0, 2, 1).astype(np.float32) @ subf > 0
            nxt[:, :, x1, :] = ~fail.transpose(0, 2, 1)
        grown = np.argwhere(nxt & ~prev)
        if len(grown):
            x0, v0, x1, v1 = map(int, grown[0])
            raise InvalidBaseRelationError(
                "invalid base relation: level "
                f"{len(levels) + 1} adds ({sys.points[x0]},{sys.basis[v0]})"
                f" <= ({sys.points[x1]},{sys.basis[v1]})",
                witness=(x0, v0, x1, v1))
        if np.array_equal(nxt, prev):
            return len(levels), levels
        levels.append(nxt)
    return None, levels


def rank_condition_reference(table: hj.LevelTable, x: int, alpha: int) -> bool:
    """The rank's step-up condition at one point and level, from that point's
    diagonal blocks alone: T_alpha(x,V0,x,V1) forces T_{alpha+1}(x,W0,x,W1)
    whenever W0 shrinks V0 and W1 expands V1.  Kept as the reference for the
    batched pass of ``LevelTable.rank_condition``."""
    cur = table.level(alpha)[x, :, x, :]
    nxt = table.level(alpha + 1)[x, :, x, :]
    subf = table.sub.astype(np.float32)
    reach = (subf @ cur.astype(np.float32)) > 0           # [W0,V1]: some V0
    reach = (reach.astype(np.float32) @ subf) > 0         # [W0,W1]: some V1
    return not bool((reach & ~nxt).any())


def set_level(table: hj.LevelTable, level: int, arr: np.ndarray) -> hj.LevelTable:
    """Fault injection: ``table`` with the dense (P,B,P,B) array ``arr`` as
    its level ``level``; one past the last level appends it, and the table
    then stabilizes there.  The table is first put in one-block form, one
    block over all points with each level its dense table, and every point
    indexed into that block, so entries off the orbit blocks can be set
    too; the memos of the old levels go."""
    levels = [table.level(a) for a in range(1, table.max_level() + 1)]
    if level == len(levels) + 1:
        levels.append(arr)
        table.stab = level
    else:
        levels[level - 1] = arr
    table.blocks = [np.arange(table.npoints)]
    table._owner = np.zeros(table.npoints, dtype=np.intp)
    table._local = np.arange(table.npoints)
    table.levels = [[dense] for dense in levels]
    table._equiv, table._held = {}, None
    return table


def encode_action_trace(sys: hj.ActionSystem, x: int) -> tuple[int, ...]:
    """Bit trace of the action at x: bit (k, l) set iff basis set k carries x
    to point l; pairs run in diagonal order, length |basis| * |points|."""
    nbasis, npoints = len(sys.basis), len(sys.points)
    hits = [frozenset(sys.act(g, x) for g in sys.basis_members(v))
            for v in range(nbasis)]
    order = sorted(((k, l) for k in range(nbasis) for l in range(npoints)),
                   key=lambda kl: (kl[0] + kl[1], kl[1]))
    return tuple(1 if l in hits[k] else 0 for k, l in order)


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


def scott_hjorth_comparison(table: hj.LevelTable, m_struct, abar, n_struct, a2bar,
                            bbar) -> bool:
    """One instance of the comparison scan's implication on the table's
    relabeling system: stabilized back-and-forth equivalence of the tuples
    forces the stabilized table relation between the matching coset pairs."""
    if not ScottTable((m_struct, n_struct)).equivalent(0, abar, 1, a2bar, STAB):
        return True
    sys = table.sys
    return table.leq(sys.point_of(m_struct), sys.basis_of(abar, bbar),
                     sys.point_of(n_struct), sys.basis_of(a2bar, bbar), STAB)


@pytest.fixture
def fresh_scott_cache():
    """The Scott refinement cache, emptied before the test and again after
    it: no refinement from an earlier test answers for a table built in
    this one (a monkeypatched refinement step really runs), and none made
    here outlives it."""
    _refinement.cache_clear()
    yield _refinement
    _refinement.cache_clear()


@pytest.fixture
def sys1():
    return make_sys1()


@pytest.fixture
def basis_index(sys1):
    return {label: i for i, label in enumerate(sys1.basis)}
