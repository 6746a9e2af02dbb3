"""The generic level-table engine over abstract action systems.

An :class:`ActionSystem` supplies finitely many points, finitely many basis
sets with a containment order, and the base relation ``cc`` comparing the
closures of basis-translate sets.  Finite systems also supply an image
tensor, from which T_1 is one subset test over all pairs.  From that the
engine computes the stratified non-symmetric relation tables

    T_1 = cc
    T_{a+1}(x0,V0,x1,V1)  iff  for all W0 <= V0 there is W1 <= V1
                               with T_a(x1,W1,x0,W0)

note the argument flip, iterated to stabilization.  Levels are naturals from
1; finite decreasing chains make the stabilized table stand in for all limit
levels (the STAB sentinel).  The engine validates rather than trusts cc: a
sweep that grows the table aborts, since the shrinking chain is otherwise
derived from a continuity the supplied cc may lack.

Everything downstream -- the two-sided equivalences, the rank (least level
where the relation at a point steps up for free modulo shrinking/expanding
the basis sets), fixed-point characterizations, rank partitions -- is
computed from these tables: those functions take the caller's
:class:`LevelTable` first, and its system is ``table.sys``.  Vaught
transforms at finite-discrete scale read the action alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .common import (STAB, BudgetError, Budgets, InvalidBaseRelationError,
                     RankforgeError, UnsupportedOperationError)

# float32 elements in one block of the T_1 and sweep products: the level
# tables are built block by block into buffers reused by every block, never
# as whole P x P float32 arrays
_BLOCK = 1 << 20


class ActionSystem:
    """Abstract finite action: points, basis sets, containment and cc.

    Subclasses fill in ``points`` and ``basis`` (label lists), ``contains``
    and ``cc``.  Every shipped basis is clopen, so the closure bar collapses
    and basis containment is ``contains`` itself.  Systems backed by an
    actual group additionally expose ``group`` (labels), ``act``,
    ``basis_members``, ``image_tensor``, ``group_law`` and, when
    ``translation_closed`` holds, ``translate``.  Both finite systems get
    all of these from one finite permutation action in
    :mod:`rankforge.actions`.
    """

    points: Sequence[str]
    basis: Sequence[str]
    group: Sequence[str] | None = None
    translation_closed: bool = False

    def contains(self, w: int, v: int) -> bool:
        raise NotImplementedError

    def cc(self, x0: int, v0: int, x1: int, v1: int) -> bool:
        raise NotImplementedError

    def act(self, g: int, x: int) -> int:
        raise UnsupportedOperationError("system does not expose an action")

    def basis_members(self, v: int) -> frozenset[int]:
        raise UnsupportedOperationError("system does not expose basis membership")

    def translate(self, v: int, g: int) -> int:
        """Basis index of the right translate V g^-1."""
        raise UnsupportedOperationError("system does not expose translation")

    def group_law(self) -> tuple[list[int], list[list[int]]]:
        """``inverse[g]`` and ``compose[g][h]``, the index of g h (h acts
        first), computed on each call."""
        raise UnsupportedOperationError("system does not expose a group law")

    @property
    def has_action(self) -> bool:
        return self.group is not None

    def image_tensor(self) -> np.ndarray | None:
        """Boolean ``img[x, V, y]``: basis set V carries point x to point y.
        cc(x0,V0,x1,V1) is then the image of (x0,V0) inside that of
        (x1,V1).  Systems without finite images return None and T_1 is
        built one cc call per entry."""
        return None

    def describe(self) -> str:
        return f"{type(self).__name__}(points={len(self.points)}, basis={len(self.basis)})"


class LevelTable:
    """The stratified tables T_1, T_2, ... for one system, as bit tables.

    Each sweep derives the next table from the immutable previous one, so
    entries within a sweep are order-independent; sweeps are barriers.
    Finished tables are read-only and safe to share.
    """

    def __init__(self, sys: ActionSystem, max_level: int | None = None,
                 table_pairs_budget: int = Budgets.table_pairs):
        npoints, nbasis = len(sys.points), len(sys.basis)
        if npoints * nbasis > table_pairs_budget:
            raise BudgetError(
                f"{npoints} points x {nbasis} basis sets = {npoints * nbasis} pairs "
                f"exceed the table budget of {table_pairs_budget}")
        self.sys = sys
        self.npoints = npoints
        self.nbasis = nbasis
        sub = np.zeros((nbasis, nbasis), dtype=bool)
        for w in range(nbasis):
            for v in range(nbasis):
                sub[w, v] = sys.contains(w, v)
        self.sub = sub
        self._subf = sub.astype(np.float32)

        self.levels: list[np.ndarray] = [self._base_level()]
        self.stab: int | None = None
        self._equiv: dict[int, np.ndarray] = {}

        while max_level is None or len(self.levels) < max_level:
            prev = self.levels[-1]
            nxt = self._sweep(prev)
            grown = np.flatnonzero(nxt > prev)
            if grown.size:
                x0, v0, x1, v1 = (int(i) for i in
                                  np.unravel_index(grown[0], nxt.shape))
                raise InvalidBaseRelationError(
                    "invalid base relation: level "
                    f"{len(self.levels) + 1} adds ({sys.points[x0]},{sys.basis[v0]})"
                    f" <= ({sys.points[x1]},{sys.basis[v1]})",
                    witness=(x0, v0, x1, v1))
            # nothing grew, so nxt is inside prev: equal iff equally large
            if np.count_nonzero(nxt) == np.count_nonzero(prev):
                self.stab = len(self.levels)
                break
            self.levels.append(nxt)
        for arr in self.levels:
            arr.setflags(write=False)

    def _base_level(self) -> np.ndarray:
        """T_1, built apart so that its float32 buffers are freed before
        the first sweep."""
        sys, npoints, nbasis = self.sys, self.npoints, self.nbasis
        img = sys.image_tensor()
        if img is not None:
            # (x0,V0) <= (x1,V1) iff no y is in the first image but not the second
            f = img.reshape(npoints * nbasis, npoints).astype(np.float32)
            miss = (1 - f).T
            t1 = np.empty((len(f), len(f)), dtype=bool)
            step = max(1, _BLOCK // len(f))
            product = np.empty((min(step, len(f)), len(f)), dtype=np.float32)
            for lo in range(0, len(f), step):
                hi = min(lo + step, len(f))
                np.matmul(f[lo:hi], miss, out=product[:hi - lo])
                np.equal(product[:hi - lo], 0, out=t1[lo:hi])
            return t1.reshape(npoints, nbasis, npoints, nbasis)
        t1 = np.zeros((npoints, nbasis, npoints, nbasis), dtype=bool)
        for x0 in range(npoints):
            for v0 in range(nbasis):
                for x1 in range(npoints):
                    for v1 in range(nbasis):
                        t1[x0, v0, x1, v1] = sys.cc(x0, v0, x1, v1)
        return t1

    def _sweep(self, prev: np.ndarray) -> np.ndarray:
        npoints, nbasis = self.npoints, self.nbasis
        subf = self._subf
        out = np.empty(prev.shape, dtype=bool)
        # T_{a+1}(x0,.,x1,.) reads only prev[x1], so the float32 operand and
        # product cover one block of x1 at a time
        step = max(1, _BLOCK // (npoints * nbasis * nbasis))
        operand = np.empty((min(step, npoints), npoints, nbasis, nbasis), np.float32)
        product = np.empty_like(operand)
        for lo in range(0, npoints, step):
            hi = min(lo + step, npoints)
            a, p = operand[:hi - lo], product[:hi - lo]
            # p[x1,x0,W0,V1] > 0 (exists): some W1 <= V1 has prev(x1,W1,x0,W0)
            a[...] = prev[lo:hi].transpose(0, 2, 3, 1)
            np.matmul(a.reshape(-1, nbasis), subf, out=p.reshape(-1, nbasis))
            # p[x1,x0,V1,V0] > 0 (fail): some W0 <= V0 with no such W1
            a[...] = (p == 0).transpose(0, 1, 3, 2)
            np.matmul(a.reshape(-1, nbasis), subf, out=p.reshape(-1, nbasis))
            out[:, :, lo:hi, :] = (p == 0).transpose(1, 3, 0, 2)
        return out

    @property
    def stabilized(self) -> bool:
        return self.stab is not None

    def max_level(self) -> int:
        return len(self.levels)

    def _level_index(self, alpha) -> int:
        if alpha == STAB:
            if not self.stabilized:
                raise RankforgeError("table not run to stabilization")
            return len(self.levels) - 1
        if not isinstance(alpha, int) or alpha < 1:
            raise ValueError("levels start at 1 (or pass STAB)")
        if alpha > len(self.levels):
            if not self.stabilized:
                raise RankforgeError(f"level {alpha} not computed (table truncated)")
            return len(self.levels) - 1
        return alpha - 1

    def level(self, alpha) -> np.ndarray:
        """The table at one level; past stabilization, the stabilized one."""
        return self.levels[self._level_index(alpha)]

    def leq(self, x0: int, v0: int, x1: int, v1: int, alpha) -> bool:
        for x in (x0, x1):
            if not 0 <= x < self.npoints:
                raise IndexError(f"unknown point index {x}")
        for v in (v0, v1):
            if not 0 <= v < self.nbasis:
                raise IndexError(f"unknown basis index {v}")
        return bool(self.level(alpha)[x0, v0, x1, v1])

    def equiv_matrix(self, alpha) -> np.ndarray:
        """Two-sided coverage of all point pairs at one level, computed once
        per level: each basis set of one point is matched by some basis set
        of the other."""
        index = self._level_index(alpha)
        eq = self._equiv.get(index)
        if eq is None:
            # cover[x0,x1]: every V1 has some V0 with T(x0,V0,x1,V1)
            cover = self.levels[index].any(axis=1).all(axis=2)
            eq = cover & cover.T
            eq.setflags(write=False)
            self._equiv[index] = eq
        return eq

    def equiv(self, x: int, y: int, alpha) -> bool:
        return bool(self.equiv_matrix(alpha)[x, y])


def leq_table(sys: ActionSystem, max_level: int | None = None,
              budgets: Budgets | None = None) -> LevelTable:
    """Compute the level tables to stabilization (or a level bound)."""
    return LevelTable(sys, max_level=max_level,
                      table_pairs_budget=(budgets or Budgets()).table_pairs)


def _rank_condition(table: LevelTable, x: int, alpha: int) -> bool:
    """Whether relation steps at x go up for free at level alpha:
    T_alpha(x,V0,x,V1) forces T_{alpha+1}(x,W0,x,W1) whenever W0 shrinks V0
    and W1 expands V1."""
    cur = table.level(alpha)[x, :, x, :]
    nxt = table.level(alpha + 1)[x, :, x, :]
    subf = table._subf
    reach = (subf @ cur.astype(np.float32)) > 0           # [W0,V1]: some V0
    reach = (reach.astype(np.float32) @ subf) > 0         # [W0,W1]: some V1
    return not bool((reach & ~nxt).any())


def hjorth_rank(table: LevelTable, x: int) -> int:
    """Least level >= 1 satisfying the step-up condition at x, at most
    ``table.stab``."""
    if not table.stabilized:
        raise RankforgeError("rank needs a table run to stabilization")
    for alpha in range(1, table.stab + 1):
        if _rank_condition(table, x, alpha):
            return alpha
    raise RankforgeError(f"no rank level found for point {table.sys.points[x]} "
                         "(base relation violates set monotonicity)")


def rank_condition_profile(table: LevelTable, x: int) -> set[int]:
    """All levels <= stab at which the rank condition holds at x."""
    if not table.stabilized:
        raise RankforgeError("profile needs a table run to stabilization")
    return {alpha for alpha in range(1, table.stab + 1)
            if _rank_condition(table, x, alpha)}


def orbit_of(sys: ActionSystem, x: int) -> frozenset[int]:
    """Closure of x under the exposed action."""
    if not sys.has_action:
        raise UnsupportedOperationError("orbit needs an exposed action")
    seen = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for g in range(len(sys.group)):
            z = sys.act(g, y)
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return frozenset(seen)


def orbit_check_via_rank(table: LevelTable, x: int, y: int,
                         cross_check: bool = False) -> bool:
    """Orbit equivalence decided through the rank: equivalence one level past
    the larger of the two ranks."""
    sys = table.sys
    delta = max(hjorth_rank(table, x), hjorth_rank(table, y))
    verdict = table.equiv(x, y, delta + 1)
    if cross_check and sys.has_action:
        truth = y in orbit_of(sys, x)
        if truth != verdict:
            raise RankforgeError(
                f"rank-based orbit check disagrees with the orbit oracle on "
                f"({sys.points[x]},{sys.points[y]}): engine={verdict} orbit={truth}")
    return verdict


def minimal_m(table: LevelTable, x: int) -> int:
    """Least m >= 0 with the level-(rank+m) class of x equal to its orbit."""
    delta = hjorth_rank(table, x)
    orbit = orbit_of(table.sys, x)
    for m in range(table.stab - delta + 2):
        cls = frozenset(np.flatnonzero(table.equiv_matrix(delta + m)[x]).tolist())
        if cls == orbit:
            return m
    raise RankforgeError(f"no finite m for point {table.sys.points[x]}: stabilized "
                         "equivalence never reaches the orbit")


def _members(sys: ActionSystem, u: int) -> frozenset[int]:
    if not sys.has_action:
        raise UnsupportedOperationError("Vaught transforms need an exposed action")
    return sys.basis_members(u)


def vaught_star(sys: ActionSystem, points: Iterable[int], u: int) -> frozenset[int]:
    """Category-forall transform; comeager-in-U collapses to all of U at
    finite-discrete scale."""
    a = frozenset(points)
    members = _members(sys, u)
    return frozenset(x for x in range(len(sys.points))
                     if all(sys.act(g, x) in a for g in members))


def vaught_delta(sys: ActionSystem, points: Iterable[int], u: int) -> frozenset[int]:
    """Category-exists transform; non-meager-in-U collapses to some of U."""
    a = frozenset(points)
    members = _members(sys, u)
    return frozenset(x for x in range(len(sys.points))
                     if any(sys.act(g, x) in a for g in members))


def star_orbit_equivalence_check(table: LevelTable, y: int, w: int,
                                 x: int, v: int) -> tuple[bool, bool]:
    """Membership of y in the star transform of the V-translate set of x,
    next to the stabilized table value; the two agree on shipped systems."""
    sys = table.sys
    target = frozenset(sys.act(g, x) for g in _members(sys, v))
    direct = all(sys.act(g, y) in target for g in _members(sys, w))
    return direct, table.leq(y, w, x, v, STAB)


@dataclass(frozen=True)
class FixedPointSets:
    """Direct fixed-point set and its table characterization."""

    direct: frozenset[int]
    via_table: frozenset[int]
    applicable: bool

    @property
    def agree(self) -> bool:
        return self.direct == self.via_table


def fixed_point_set(table: LevelTable, u: int) -> FixedPointSets:
    """Points fixed by some element of U, two ways: by direct enumeration and
    as the points carrying a stabilized pair (V, W) with W^-1 V inside U.

    The characterization needs arbitrarily small neighborhoods; with every
    singleton in the basis it always applies, otherwise the result is marked
    not applicable (the direct set is still exact).
    """
    sys = table.sys
    if not sys.has_action:
        raise UnsupportedOperationError("fixed points need an exposed action")
    members = _members(sys, u)
    npoints = len(sys.points)
    direct = frozenset(x for x in range(npoints)
                       if any(sys.act(g, x) == x for g in members))

    ngroup = len(sys.group)
    inv, comp = sys.group_law()
    nbasis = len(sys.basis)
    basis_sets = [sys.basis_members(v) for v in range(nbasis)]
    singles = {frozenset([g]) for g in range(ngroup)}
    applicable = singles <= set(basis_sets)

    member_of = np.zeros((nbasis, ngroup), dtype=bool)
    for v, vset in enumerate(basis_sets):
        for g in vset:
            member_of[v, g] = True
    # bad[V,W]: some w in W, v in V with w^-1 v outside U
    bad = np.zeros((nbasis, nbasis), dtype=bool)
    for g in range(ngroup):
        for h in range(ngroup):
            if comp[inv[g]][h] not in members:
                bad |= np.outer(member_of[:, h], member_of[:, g])
    good = ~bad
    t = table.level(STAB)
    via = frozenset(x for x in range(npoints)
                    if bool((t[x, :, x, :] & good).any()))
    return FixedPointSets(direct, via, applicable)


def partition_by_rank(table: LevelTable) -> list[tuple[int, frozenset[int]]]:
    """Points grouped by rank value, ascending."""
    groups: dict[int, set[int]] = {}
    for x in range(table.npoints):
        groups.setdefault(hjorth_rank(table, x), set()).add(x)
    return [(value, frozenset(groups[value])) for value in sorted(groups)]


def compare_ranks(table: LevelTable, x: int, y: int) -> str:
    """Order comparison of two rank values: '<', '=' or '>'."""
    dx, dy = hjorth_rank(table, x), hjorth_rank(table, y)
    return "<" if dx < dy else (">" if dx > dy else "=")


def basis_shift_check(table: LevelTable, alt: LevelTable) -> dict[int, int]:
    """Per-point absolute rank difference across the tables of two bases over
    the same points and cc semantics."""
    if list(alt.sys.points) != list(table.sys.points):
        raise ValueError("alternate basis must present the same points")
    return {x: abs(hjorth_rank(table, x) - hjorth_rank(alt, x))
            for x in range(table.npoints)}


# ---------------------------------------------------------------------------
# Record output (stable machine format, one record per line)


def leq_record(level: int, x0: str, v0: str, x1: str, v1: str, val: bool) -> str:
    return f"LEQ level={level} x0={x0} V0={v0} x1={x1} V1={v1} val={int(val)}"


def rank_record(point: str, delta: int, stab: int, m: int | str | None = None) -> str:
    base = f"RANK point={point} delta={delta} stab={stab}"
    return base if m is None else f"{base} m={m}"


def quad_witness(sys: ActionSystem, x0: int, v0: int, x1: int, v1: int) -> str:
    return (f"(x0={sys.points[x0]},V0={sys.basis[v0]},"
            f"x1={sys.points[x1]},V1={sys.basis[v1]})")


def check_record(name: str, passed: bool, witness: str | None = None) -> str:
    verdict = "pass" if passed else "fail"
    return f"CHECK name={name} verdict={verdict} witness={witness or '-'}"
