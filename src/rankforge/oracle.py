"""Independent brute-force references used by the verification suites.

Deliberately naive: the defining clauses evaluated directly, on demand,
with no table machinery.  This module never imports the engine modules
(scott, hjorth, actions) or numpy; it shares only the structure substrate.
Each oracle owns its memo: a dict for the Scott game recursion; one
bytearray per level for the level relation, each level built whole from
the one below by the one successor clause, a row at a time: "there is
W1 <= V1" is an OR of rows and "for all W0 <= V0" an AND of columns, on
byte lanes of Python ints.  The tests hold the level oracle to the literal
one-quadruple recursion.  Concurrent evaluations should use independent
oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .common import BudgetError, OracleDepthError
from .structures import FinStructure, eval_atomic


def _same_atoms(m_struct, abar, n_struct, bbar):
    # Direct atomic comparison; kept separate from the engine's type keys.
    for i in range(len(abar)):
        for j in range(len(abar)):
            if (abar[i] == abar[j]) != (bbar[i] == bbar[j]):
                return False
    for name, arity in m_struct.signature.relations:
        for pos in itertools.product(range(len(abar)), repeat=arity):
            left = eval_atomic(m_struct, name, tuple(abar[p] for p in pos))
            right = eval_atomic(n_struct, name, tuple(bbar[p] for p in pos))
            if left != right:
                return False
    return True


class ScottOracle:
    """Literal game recursion for one pair of finite structures."""

    def __init__(self, m_struct: FinStructure, n_struct: FinStructure):
        self.m = m_struct
        self.n = n_struct
        self._memo: dict = {}

    def equiv(self, abar, bbar, alpha: int, flip: bool = False) -> bool:
        abar, bbar = tuple(abar), tuple(bbar)
        if len(abar) != len(bbar):
            raise ValueError(f"tuple length mismatch: {len(abar)} vs {len(bbar)}")
        left, right = (self.n, self.m) if flip else (self.m, self.n)
        key = (flip, abar, bbar, alpha)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        # level alpha implies level 0 on non-empty structures, so the atoms
        # are compared at every level and prune the losing branches early
        out = _same_atoms(left, abar, right, bbar)
        if out and alpha > 0:
            out = all(any(self.equiv(abar + (c,), bbar + (d,), alpha - 1, flip)
                          for d in range(right.size))
                      for c in range(left.size))
            if out:
                out = all(any(self.equiv(bbar + (d,), abar + (c,), alpha - 1,
                                         not flip)
                              for c in range(left.size))
                          for d in range(right.size))
        self._memo[key] = out
        return out


class LeqOracle:
    """The level relation of one action system, from its defining clauses.

    Level 1 is the system's cc; level a+1 is the successor clause evaluated
    on the whole of level a, alternating quantifiers over shrinking basis
    sets with the argument pairs flipped.  Levels are built whole and in
    order, level 1 up to the highest one asked for, and kept: one bytearray
    per level whose cell ((x0*B + V0)*P + x1)*B + V1, for P points and B
    basis sets, holds 1 for true and 0 for false, the bytes of a boolean
    level table.  ``level`` returns one level as a read-only view and
    ``query`` reads one cell.

    Level 1 calls cc once per cell, one (x0, V0) row at a time.  Level a+1
    is built one B x B block per pair of points x0, x1, from the cells
    (x1, W1, x0, .) of level a: the B of them for one W1 are one int,
    ``lanes[W1]``, with one byte lane per W0, 1 when (x1, W1) <= (x0, W0)
    holds there.  "There is W1 <= V1" is row V1 of ``reach``, the OR of
    ``lanes[W1]`` over W1 <= V1.  The flip transposes reach: column W0 of
    it, one lane per V1, is 1 where some W1 <= V1 reaches W0.  "For all
    W0 <= V0" is the AND of those columns over W0 <= V0, starting from
    every lane 1, so a V0 with no W0 <= V0 holds everywhere; that AND is
    row V0 of the block, written into the level in one slice.  Lanes hold
    only 0 and 1, and OR and AND never carry from one lane to the next.
    The tests hold every cell to ``DictMemoLeq``, the literal recursion one
    quadruple at a time.
    """

    def __init__(self, sys, depth_cap: int = 64):
        self.sys = sys
        self.depth_cap = depth_cap
        npoints, nb = len(sys.points), len(sys.basis)
        self._npoints, self._nbasis = npoints, nb
        self._half = npoints * nb
        self._subs = [tuple(w for w in range(nb) if sys.contains(w, v))
                      for v in range(nb)]
        self._levels: list[bytearray] = []

    def _check(self, alpha: int, *indices: tuple[int, int]):
        """Reject a level outside 1..depth_cap and an index outside its
        range, which would read another quadruple's cell."""
        if alpha < 1:
            raise ValueError("levels start at 1")
        if alpha > self.depth_cap:
            raise OracleDepthError(f"level {alpha} exceeds depth cap {self.depth_cap}")
        npoints, nb = self._npoints, self._nbasis
        if not all(0 <= x < npoints and 0 <= v < nb for x, v in indices):
            flat = ",".join(str(i) for pair in indices for i in pair)
            raise IndexError(f"index ({flat}) out of range")

    def level(self, alpha: int) -> memoryview:
        """The (P*B)**2 cells of level alpha in index order, as a read-only
        view: a table's ``level(alpha)`` bytes compare with it directly."""
        self._check(alpha)
        while len(self._levels) < alpha:
            self._levels.append(self._next_level())
        return memoryview(self._levels[alpha - 1]).toreadonly()

    def query(self, x0: int, v0: int, x1: int, v1: int, alpha: int) -> bool:
        self._check(alpha, (x0, v0), (x1, v1))
        nb = self._nbasis
        return self.level(alpha)[((x0 * nb + v0) * self._npoints + x1) * nb + v1] == 1

    def _next_level(self) -> bytearray:
        """The level above the highest one built, from cc or from it."""
        npoints, nb, half = self._npoints, self._nbasis, self._half
        cells = bytearray(half * half)
        if not self._levels:
            cc = self.sys.cc
            pairs = [(x, v) for x in range(npoints) for v in range(nb)]
            for key, (x0, v0) in zip(range(0, half * half, half), pairs):
                # by truth value: bytes() refuses a numpy bool
                cells[key:key + half] = bytes([1 if cc(x0, v0, x1, v1) else 0
                                               for x1, v1 in pairs])
            return cells
        below, subs = self._levels[-1], self._subs
        # every lane 1: the AND over no W0 <= V0 is vacuously true
        ones = int.from_bytes(b"\x01" * nb, "little")
        for x0, x1 in itertools.product(range(npoints), repeat=2):
            # lanes[W1]: byte W0 is 1 iff (x1, W1) <= (x0, W0) one level down
            start = x1 * nb * half + x0 * nb
            lanes = [int.from_bytes(below[i:i + nb], "little")
                     for i in range(start, start + nb * half, half)]
            # exists: row V1, byte W0 is 1 iff some W1 <= V1 has lane W0 set
            reach = bytearray()
            for ws in subs:
                row = 0
                for w1 in ws:
                    row |= lanes[w1]
                reach += row.to_bytes(nb, "little")
            # the flip: cols[W0], byte V1, is column W0 of reach
            cols = [int.from_bytes(reach[w0::nb], "little") for w0 in range(nb)]
            # for all: row V0, byte V1 is 1 iff every W0 <= V0 has it
            key = x0 * nb * half + x1 * nb
            for ws in subs:
                row = ones
                for w0 in ws:
                    row &= cols[w0]
                cells[key:key + nb] = row.to_bytes(nb, "little")
                key += half
        return cells


@dataclass(frozen=True)
class OrbitPartition:
    """Exact orbits of a finite action, computed by closure."""

    orbit_of: tuple[int, ...]  # point index -> orbit id (ids are 0..k-1)

    @property
    def blocks(self) -> list[frozenset[int]]:
        out: dict[int, set[int]] = {}
        for x, o in enumerate(self.orbit_of):
            out.setdefault(o, set()).add(x)
        return [frozenset(out[o]) for o in sorted(out)]

    def same_orbit(self, x: int, y: int) -> bool:
        return self.orbit_of[x] == self.orbit_of[y]


def orbit_partition(sys) -> OrbitPartition:
    """Close every point under every group element."""
    npoints = len(sys.points)
    ngroup = len(sys.group)
    orbit_of = [-1] * npoints
    next_id = 0
    for start in range(npoints):
        if orbit_of[start] != -1:
            continue
        stack = [start]
        orbit_of[start] = next_id
        while stack:
            x = stack.pop()
            for g in range(ngroup):
                y = sys.act(g, x)
                if orbit_of[y] == -1:
                    orbit_of[y] = next_id
                    stack.append(y)
        next_id += 1
    return OrbitPartition(tuple(orbit_of))


def invariant_sets(sys) -> list[frozenset[int]]:
    """Every union of orbits, the empty union included, for at most four
    orbits."""
    blocks = orbit_partition(sys).blocks
    if len(blocks) > 4:
        raise BudgetError(f"{len(blocks)} orbits exceed the cap of 4")
    out = []
    for picks in itertools.product((False, True), repeat=len(blocks)):
        member: set[int] = set()
        for block, take in zip(blocks, picks):
            if take:
                member |= block
        out.append(frozenset(member))
    return out
