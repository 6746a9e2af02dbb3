"""Independent brute-force references used by the verification suites.

Deliberately naive: literal recursions of the defining clauses with
memoization, no table machinery.  This module never imports the engine
modules (scott, hjorth, actions); it shares only the structure substrate.
Memo tables live in per-oracle contexts; concurrent evaluations should use
independent contexts.
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
    """Literal recursion of the level relation on one action system.

    Base case is the system's cc; the successor case alternates quantifiers
    over shrinking basis sets with the argument pairs flipped.  Memoization
    is keyed on (x0, V0, x1, V1, alpha).
    """

    def __init__(self, sys, depth_cap: int = 64):
        self.sys = sys
        self.depth_cap = depth_cap
        nb = len(sys.basis)
        self._subs = [tuple(w for w in range(nb) if sys.contains(w, v))
                      for v in range(nb)]
        self._memo: dict = {}

    def query(self, x0: int, v0: int, x1: int, v1: int, alpha: int) -> bool:
        if alpha < 1:
            raise ValueError("levels start at 1")
        if alpha > self.depth_cap:
            raise OracleDepthError(f"level {alpha} exceeds depth cap {self.depth_cap}")
        return self._rec(x0, v0, x1, v1, alpha)

    def _rec(self, a, va, b, vb, level):
        key = (a, va, b, vb, level)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if level == 1:
            out = self.sys.cc(a, va, b, vb)
        else:
            out = True
            for w0 in self._subs[va]:
                found = False
                for w1 in self._subs[vb]:
                    if self._rec(b, w1, a, w0, level - 1):
                        found = True
                        break
                if not found:
                    out = False
                    break
        self._memo[key] = out
        return out


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


def invariant_sets(sys, max_orbits: int = 4) -> list[frozenset[int]]:
    """Every union of orbits, the empty union included."""
    blocks = orbit_partition(sys).blocks
    if len(blocks) > max_orbits:
        raise BudgetError(f"{len(blocks)} orbits exceed the cap of {max_orbits}")
    out = []
    for picks in itertools.product((False, True), repeat=len(blocks)):
        member: set[int] = set()
        for block, take in zip(blocks, picks):
            if take:
                member |= block
        out.append(frozenset(member))
    return out
