"""Independent brute-force references used by the verification suites.

Deliberately naive: literal recursions of the defining clauses, evaluated
on demand, no table machinery.  This module never imports the engine
modules (scott, hjorth, actions) or numpy; it shares only the structure
substrate.  Each oracle owns its memo: a dict for the Scott game, one
bytearray per level for the level relation.  Concurrent evaluations should
use independent oracles.
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
    over shrinking basis sets with the argument pairs flipped.  The memo is
    one bytearray per level, allocated when a query first reaches that
    level: cell ((x0*B + V0)*P + x1)*B + V1, for P points and B basis sets,
    holds 0 while unknown, 1 for false and 2 for true.
    """

    def __init__(self, sys, depth_cap: int = 64):
        self.sys = sys
        self.depth_cap = depth_cap
        npoints, nb = len(sys.points), len(sys.basis)
        self._npoints, self._nbasis = npoints, nb
        self._half = npoints * nb
        self._subs = [tuple(w for w in range(nb) if sys.contains(w, v))
                      for v in range(nb)]
        # W1*P*B for each W1 <= V: the stride of W1 in a level's cell index
        self._offs = [tuple(w * self._half for w in subs) for subs in self._subs]
        self._memo: dict[int, bytearray] = {}

    def query(self, x0: int, v0: int, x1: int, v1: int, alpha: int) -> bool:
        if alpha < 1:
            raise ValueError("levels start at 1")
        if alpha > self.depth_cap:
            raise OracleDepthError(f"level {alpha} exceeds depth cap {self.depth_cap}")
        # an index out of range would read another quadruple's cell
        npoints, nb = self._npoints, self._nbasis
        if not (0 <= x0 < npoints and 0 <= x1 < npoints
                and 0 <= v0 < nb and 0 <= v1 < nb):
            raise IndexError(f"quadruple ({x0},{v0},{x1},{v1}) out of range")
        return self._rec(x0, v0, x1, v1, alpha)

    def _cells(self, level: int) -> bytearray:
        cells = self._memo.get(level)
        if cells is None:
            cells = self._memo[level] = bytearray(self._half * self._half)
        return cells

    def _rec(self, a, va, b, vb, level):
        cells = self._cells(level)
        nb, half = self._nbasis, self._half
        key = (a * nb + va) * half + b * nb + vb
        hit = cells[key]
        if hit:
            return hit == 2
        if level == 1:
            out = self.sys.cc(a, va, b, vb)
        else:
            lower = level - 1
            below = self._cells(lower)
            # cell (b, W1, a, W0) of the level below is start + W0 + W1*P*B
            start = b * nb * half + a * nb
            offs = self._offs[vb]
            out = True
            for w0 in self._subs[va]:
                base = start + w0
                for off in offs:
                    hit = below[base + off]
                    if hit == 2 or (not hit and self._rec(b, off // half, a, w0, lower)):
                        break
                else:  # no W1 <= V1 answers this W0
                    out = False
                    break
        cells[key] = 2 if out else 1
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
