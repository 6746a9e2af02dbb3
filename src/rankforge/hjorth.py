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

The tables are block-diagonal.  Link points x and y when some basis set
carries x to y, and split the points into the components of that graph
(for a permutation action, unions of orbits).  Lemma: if every image V.x
is non-empty and every basis set contains itself, no level relates two
points of different components.  Proof, by induction on the level:

* T_1(x0,V0,x1,V1) says V0.x0 lies inside V1.x1.  V0.x0 holds some y,
  linked to x0; y is also in V1.x1, so it is linked to x1, and x0 and x1
  share a component.
* T_{a+1}(x0,V0,x1,V1) with W0 = V0 gives some W1 <= V1 with
  T_a(x1,W1,x0,V0), so x1 and x0 share a component.

T_{a+1} on S x S reads only T_a on S x S, and T_1 there only the image
rows of S.  So each component (an orbit block) is built and swept on its
own, and a block that stops changing is left out of later sweeps.  Each
level is stored as its per-block tables, and the dense table over all
points, false off the blocks, is assembled only when a caller asks for
it; the equivalences, the rank condition and single entries are read
from the blocks.  A system without images is one block, whose table is
the dense one.

Two-level theorem: on finitely many basis sets, with ``contains`` a
preorder and cc antitone in V0 and monotone in V1, a table that never
grows stabilizes by level 2, so every rank is at most 2.  Call a basis set
minimal when no basis set lies strictly below it; every basis set lies
above one, since there are finitely many.  Then for every a >= 1

    T_{a+1}(x0,V0,x1,V1)  iff  for all minimal W0 <= V0 there is a minimal
                               W1 <= V1 with T_1(x1,W1,x0,W0) for odd a,
                               T_1(x0,W0,x1,W1) for even a,

so T_4 = T_2, and a chain T_2 >= T_3 >= T_4 = T_2 has T_3 = T_2.  Proof
sketch:

* By induction on a, each T_a is antitone in its first basis argument and
  monotone in its second, as cc is.  So "there is W1 <= V1" may take W1
  minimal, and "for all W0 <= V0" need only test minimal W0.
* For minimal W and U the clause of T_a (a >= 2) has one choice on each
  side, up to equivalent sets, so T_a(p,W,q,U) = T_{a-1}(q,U,p,W), and so
  on down to T_1.

Every permutation action's cc, V0.x0 inside V1.x1, is monotone in this
sense, and when the minimal sets are the singletons, T_2 = T_1.  The engine
does not use this closed form: the sweep stays the literal recursion, and
the theorem is checked against it (on the oracle, level 4 equals level 2).
In the paper's setting no basis set is minimal, since neighbourhoods of
the identity in a Polish group shrink forever, and no such bound holds.

Everything downstream -- the two-sided equivalences, the rank (least level
where the relation at a point steps up for free modulo shrinking/expanding
the basis sets), fixed-point characterizations, rank partitions -- is
computed from these tables: those functions take the caller's
:class:`LevelTable` first, and its system is ``table.sys``.  Vaught
transforms at finite-discrete scale read the action alone.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .common import (STAB, BudgetError, Budgets, InvalidBaseRelationError,
                     RankforgeError)

# float32 elements in one row block of the T_1 and sweep products: each
# orbit block's levels are built row block by row block into buffers reused
# by every row block, never as whole P x P float32 arrays
_BLOCK = 1 << 20


def _orbit_blocks(img: np.ndarray, sub: np.ndarray) -> list[np.ndarray]:
    """The points split into the connected components of the image graph
    (x ~ y when some basis set carries x to y, closed symmetrically), each
    as sorted indices in the order of their least point.  The lemma in the
    module docstring needs non-empty images and reflexive containment;
    without them all points form one block."""
    npoints, nbasis = img.shape[:2]
    # count_nonzero, not any/all: this runs once per table, and most tables
    # in a comparison scan are small enough for ufunc overhead to show
    if (np.count_nonzero(img.any(axis=2)) < npoints * nbasis
            or np.count_nonzero(sub.diagonal()) < nbasis):
        return [np.arange(npoints)]
    link = img.any(axis=1)
    link |= link.T
    seen = np.zeros(npoints, dtype=bool)
    blocks = []
    for x in range(npoints):
        if seen[x]:
            continue
        members = np.zeros(npoints, dtype=bool)
        members[x] = True
        frontier = members
        while np.count_nonzero(frontier):
            frontier = link[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        blocks.append(np.flatnonzero(members))
    return blocks


class ActionSystem:
    """Abstract finite action: what the level engine reads of it.

    Subclasses fill in ``points`` and ``basis`` (label lists), ``contains``
    and ``cc``.  Every shipped basis is clopen, so the closure bar collapses
    and basis containment is ``contains`` itself.  The group (its elements,
    ``act``, translation and group law) is not part of this contract: the
    orbit and Vaught functions below read it from the finite permutation
    action in :mod:`rankforge.actions`, the one place that defines it.
    """

    points: Sequence[str]
    basis: Sequence[str]

    def contains(self, w: int, v: int) -> bool:
        raise NotImplementedError

    def cc(self, x0: int, v0: int, x1: int, v1: int) -> bool:
        raise NotImplementedError

    def image_tensor(self) -> np.ndarray | None:
        """Boolean ``img[x, V, y]``: basis set V carries point x to point y.
        cc(x0,V0,x1,V1) is then the image of (x0,V0) inside that of
        (x1,V1).  Systems without finite images return None and T_1 is
        built one cc call per entry."""
        return None


class LevelTable:
    """The stratified tables T_1, T_2, ... for one system, as bit tables.

    ``blocks`` holds the sorted point indices of each orbit block, and
    ``levels`` one entry per computed level: the list of its block tables,
    block i's a (n_i,B,n_i,B) array over the points ``blocks[i]``.  A block
    that stopped changing shares its array with the level before.  Entries
    between blocks are false (module docstring), so ``leq``,
    ``equiv_matrix`` and ``rank_condition`` read the blocks alone, and
    ``level`` assembles the dense (P,B,P,B) table only when called.
    Each sweep derives the next table from the immutable previous one, so
    entries within a sweep are order-independent; sweeps are barriers.
    Finished tables are read-only and safe to share.  A system of more
    (point, basis set) pairs than ``budgets.table_pairs`` raises
    ``BudgetError`` before anything is built.
    """

    def __init__(self, sys: ActionSystem, max_level: int | None = None,
                 budgets: Budgets | None = None):
        npoints, nbasis = len(sys.points), len(sys.basis)
        limit = (budgets or Budgets()).table_pairs
        if npoints * nbasis > limit:
            raise BudgetError(
                f"{npoints} points x {nbasis} basis sets = {npoints * nbasis} pairs "
                f"exceed the table budget of {limit}")
        self.sys = sys
        self.npoints = npoints
        self.nbasis = nbasis
        pairs = itertools.product(range(nbasis), repeat=2)
        sub = np.fromiter(itertools.starmap(sys.contains, pairs), dtype=bool,
                          count=nbasis * nbasis).reshape(nbasis, nbasis)
        self.sub = sub
        self._subf = sub.astype(np.float32)

        self.stab: int | None = None
        self._equiv: dict[int, np.ndarray] = {}
        self._held: np.ndarray | None = None
        self._ranks: tuple[int, ...] | None = None

        img = sys.image_tensor()
        blocks = _orbit_blocks(img, sub) if img is not None else [np.arange(npoints)]
        cur = [self._base_level(img, b) for b in blocks]
        del img
        self.blocks = blocks
        # point x is entry _local[x] of block _owner[x]
        self._owner = np.zeros(npoints, dtype=np.intp)
        self._local = np.arange(npoints)
        for i, b in enumerate(blocks):
            self._owner[b] = i
            self._local[b] = np.arange(len(b))
        self.levels: list[list[np.ndarray]] = [list(cur)]
        live = range(len(blocks))

        while max_level is None or len(self.levels) < max_level:
            changed, grown = [], None
            for i in live:
                nxt, first = self._sweep(cur[i])
                if first is not None:
                    # blocks hold sorted points, so local order is global order
                    x0, v0, x1, v1 = first
                    first = (int(blocks[i][x0]), v0, int(blocks[i][x1]), v1)
                    grown = first if grown is None else min(grown, first)
                # nothing grew, so nxt is inside cur[i]: equal iff equally large
                elif np.count_nonzero(nxt) != np.count_nonzero(cur[i]):
                    cur[i] = nxt
                    changed.append(i)
            if grown is not None:
                x0, v0, x1, v1 = grown
                raise InvalidBaseRelationError(
                    "invalid base relation: level "
                    f"{len(self.levels) + 1} adds ({sys.points[x0]},{sys.basis[v0]})"
                    f" <= ({sys.points[x1]},{sys.basis[v1]})",
                    witness=grown)
            if not changed:
                self.stab = len(self.levels)
                break
            # a block that stopped changing never changes again; by the
            # two-level theorem, with a monotone cc the sweep to level 3
            # leaves every block of a table that never grows unchanged
            live = changed
            self.levels.append(list(cur))
        for parts in self.levels:
            for arr in parts:
                arr.setflags(write=False)

    def _base_level(self, img: np.ndarray | None, points: np.ndarray) -> np.ndarray:
        """T_1 on the points of one orbit block: one subset test per pair of
        their image rows ``img[S, :, S]``, or, for a system without images
        (one block over all points), one cc call per entry."""
        nbasis, n = self.nbasis, len(points)
        if img is None:
            quads = itertools.product(points.tolist(), range(nbasis), repeat=2)
            t1 = np.fromiter((self.sys.cc(*q) for q in quads), dtype=bool,
                             count=(n * nbasis) ** 2)
            return t1.reshape(n, nbasis, n, nbasis)
        # (x0,V0) <= (x1,V1) iff no y is in the first image but not the second
        f = img[np.ix_(points, np.arange(nbasis), points)].reshape(n * nbasis, n)
        f = f.astype(np.float32)
        miss = (1 - f).T
        t1 = np.empty((len(f), len(f)), dtype=bool)
        step = max(1, _BLOCK // len(f))
        product = np.empty((min(step, len(f)), len(f)), dtype=np.float32)
        for lo in range(0, len(f), step):
            hi = min(lo + step, len(f))
            np.matmul(f[lo:hi], miss, out=product[:hi - lo])
            np.equal(product[:hi - lo], 0, out=t1[lo:hi])
        return t1.reshape(n, nbasis, n, nbasis)

    def _sweep(self, prev: np.ndarray) -> tuple[np.ndarray, tuple | None]:
        """The next level of one orbit block, and its first entry in
        (x0,V0,x1,V1) order that ``prev`` lacks (None when nothing grew)."""
        npoints, nbasis = prev.shape[0], self.nbasis
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
        del operand, product, a, p
        # growth is tested once the float32 buffers are freed, in blocks of
        # x0: the first block with any growth holds the first entry
        for lo in range(0, npoints, step):
            more = out[lo:lo + step] > prev[lo:lo + step]
            first = np.argmax(more)
            if more.flat[first]:
                x0, v0, x1, v1 = np.unravel_index(first, more.shape)
                return out, (lo + int(x0), int(v0), int(x1), int(v1))
        return out, None

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
        """The dense (P,B,P,B) table at one level; past stabilization, the
        stabilized one.  A one-block table returns its block itself, so
        every comparison-scan table (one orbit) and every single-orbit
        ensemble table is read without a copy; other tables assemble a new
        one, false off the blocks, on each call and keep none, so a caller
        holds at most the dense levels it reads."""
        parts = self.levels[self._level_index(alpha)]
        if len(self.blocks) == 1:
            return parts[0]
        basis = np.arange(self.nbasis)
        dense = np.zeros((self.npoints, self.nbasis) * 2, dtype=bool)
        for b, part in zip(self.blocks, parts):
            dense[np.ix_(b, basis, b, basis)] = part
        dense.setflags(write=False)
        return dense

    def leq(self, x0: int, v0: int, x1: int, v1: int, alpha) -> bool:
        for x in (x0, x1):
            if not 0 <= x < self.npoints:
                raise IndexError(f"unknown point index {x}")
        for v in (v0, v1):
            if not 0 <= v < self.nbasis:
                raise IndexError(f"unknown basis index {v}")
        parts = self.levels[self._level_index(alpha)]
        i = self._owner[x0]
        return bool(i == self._owner[x1]
                    and parts[i][self._local[x0], v0, self._local[x1], v1])

    def equiv_matrix(self, alpha) -> np.ndarray:
        """Two-sided coverage of all point pairs at one level, computed once
        per level: each basis set of one point is matched by some basis set
        of the other."""
        index = self._level_index(alpha)
        eq = self._equiv.get(index)
        if eq is None:
            eq = np.zeros((self.npoints, self.npoints), dtype=bool)
            for b, part in zip(self.blocks, self.levels[index]):
                # cover[x0,x1]: every V1 has some V0 with T(x0,V0,x1,V1)
                cover = part.any(axis=1).all(axis=2)
                eq[np.ix_(b, b)] = cover & cover.T
            eq.setflags(write=False)
            self._equiv[index] = eq
        return eq

    def equiv(self, x: int, y: int, alpha) -> bool:
        return bool(self.equiv_matrix(alpha)[x, y])

    def rank_condition(self) -> np.ndarray:
        """``held[a-1, x]`` for every level a <= stab and point x of a table
        run to stabilization, computed once for all points: whether
        relation steps at x go up for free at level a, i.e.
        T_a(x,V0,x,V1) forces T_{a+1}(x,W0,x,W1) whenever W0 shrinks V0
        and W1 expands V1."""
        if self._held is None:
            # diag[a-1, x, V0, V1] = T_a(x,V0,x,V1); T_{stab+1} is T_stab
            diag = np.empty((len(self.levels), self.npoints, self.nbasis, self.nbasis),
                            dtype=bool)
            for a, parts in enumerate(self.levels):
                for b, part in zip(self.blocks, parts):
                    xs = np.arange(len(b))
                    diag[a, b] = part[xs, :, xs, :]
            reach = (self._subf @ diag.astype(np.float32)) > 0     # [W0,V1]: some V0
            reach = (reach.astype(np.float32) @ self._subf) > 0    # [W0,W1]: some V1
            nxt = np.concatenate([diag[1:], diag[-1:]])
            self._held = ~(reach & ~nxt).any(axis=(2, 3))
            self._held.setflags(write=False)
        return self._held

    def ranks(self) -> tuple[int, ...]:
        """Every point's first level whose rank condition holds, 0 where
        none does: one pass over ``rank_condition()``, computed once."""
        if self._ranks is None:
            held = self.rank_condition()
            first = np.where(held.any(axis=0), held.argmax(axis=0) + 1, 0)
            self._ranks = tuple(first.tolist())
        return self._ranks


def leq_table(sys: ActionSystem, max_level: int | None = None,
              budgets: Budgets | None = None) -> LevelTable:
    """Compute the level tables to stabilization (or a level bound), under
    the ``table_pairs`` budget of ``budgets`` (the defaults when None)."""
    return LevelTable(sys, max_level=max_level, budgets=budgets)


def hjorth_rank(table: LevelTable, x: int) -> int:
    """Least level >= 1 satisfying the step-up condition at x, at most
    ``table.stab``."""
    if not table.stabilized:
        raise RankforgeError("rank needs a table run to stabilization")
    rank = table.ranks()[x]
    if not rank:
        raise RankforgeError(f"no rank level found for point {table.sys.points[x]} "
                             "(base relation violates set monotonicity)")
    return rank


def rank_condition_profile(table: LevelTable, x: int) -> set[int]:
    """All levels <= stab at which the rank condition holds at x."""
    if not table.stabilized:
        raise RankforgeError("profile needs a table run to stabilization")
    return {int(a) + 1 for a in np.flatnonzero(table.rank_condition()[:, x])}


def orbit_of(sys: ActionSystem, x: int) -> frozenset[int]:
    """The points the group carries x to, in one pass: its elements form a group."""
    return frozenset(sys.act(g, x) for g in range(len(sys.group)))


def orbit_check_via_rank(table: LevelTable) -> np.ndarray:
    """Orbit equivalence of every point pair decided through the rank:
    ``[x, y]`` is equivalence one level past the larger of the two ranks."""
    ranks = np.array([hjorth_rank(table, x) for x in range(table.npoints)])
    eqs = np.stack([table.equiv_matrix(a) for a in range(1, ranks.max() + 2)])
    xs = np.arange(table.npoints)
    return eqs[np.maximum.outer(ranks, ranks), xs[:, None], xs]


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


def vaught_star(sys: ActionSystem, points: Iterable[int], u: int) -> frozenset[int]:
    """Category-forall transform; comeager-in-U collapses to all of U at
    finite-discrete scale."""
    a = frozenset(points)
    members = sys.basis_members(u)
    return frozenset(x for x in range(len(sys.points))
                     if all(sys.act(g, x) in a for g in members))


def vaught_delta(sys: ActionSystem, points: Iterable[int], u: int) -> frozenset[int]:
    """Category-exists transform; non-meager-in-U collapses to some of U."""
    a = frozenset(points)
    members = sys.basis_members(u)
    return frozenset(x for x in range(len(sys.points))
                     if any(sys.act(g, x) in a for g in members))


def fixed_point_set(table: LevelTable, u: int) -> tuple[frozenset[int], frozenset[int]]:
    """Points fixed by some element of U, two ways: ``(direct, via_table)``,
    by direct enumeration and as the points carrying a stabilized pair
    (V, W) with W^-1 V inside U.  The two agree when every singleton is a
    basis set (arbitrarily small neighborhoods), which the caller checks."""
    sys = table.sys
    members = sys.basis_members(u)
    direct = frozenset(x for x in range(table.npoints)
                       if any(sys.act(g, x) == x for g in members))

    group = range(len(sys.group))
    inv, comp = sys.group_law()
    # in_basis[V, g]: g in V; outside[v, w]: w^-1 v outside U
    in_basis = np.array([[g in sys.basis_members(v) for g in group]
                         for v in range(len(sys.basis))], dtype=np.int64)
    outside = np.array([[comp[inv[w]][v] not in members for w in group]
                        for v in group], dtype=np.int64)
    # good[V, W]: w^-1 v inside U for every v in V and w in W
    good = in_basis @ outside @ in_basis.T == 0
    t = table.level(STAB)
    via = frozenset(x for x in range(table.npoints) if (t[x, :, x, :] & good).any())
    return direct, via


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
