"""Independent brute-force references used by the verification suites.

Deliberately naive: literal recursions of the defining clauses, evaluated
on demand, no table machinery.  This module never imports the engine
modules (scott, hjorth, actions) or numpy; it shares only the structure
substrate.  Each oracle owns its memo: a dict for the Scott game, one
bytearray per level for the level relation, which answers one quadruple or
one (x0, V0) row at a time; both evaluate a missing cell by the same
successor clause.  Concurrent evaluations should use independent oracles.
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
    one bytearray per level, allocated when an evaluation first reaches that
    level: cell ((x0*B + V0)*P + x1)*B + V1, for P points and B basis sets,
    holds 0 while unknown, 1 for false and 2 for true.  ``query`` answers one
    cell; ``row`` fills and returns the P*B cells of one (x0, V0) at one
    level, each missing cell by the same clause.
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

    def query(self, x0: int, v0: int, x1: int, v1: int, alpha: int) -> bool:
        self._check(alpha, (x0, v0), (x1, v1))
        return self._rec(x0, v0, x1, v1, alpha)

    def row(self, x0: int, v0: int, alpha: int) -> bytes:
        """The cells (x0, V0, x1, V1) at level alpha for every (x1, V1), in
        index order, as bytes: 1 for false, 2 for true."""
        self._check(alpha, (x0, v0))
        cells = self._cells(alpha)
        nb, half = self._nbasis, self._half
        lo = key = (x0 * nb + v0) * half
        if alpha == 1:
            cc = self.sys.cc
            for x1 in range(self._npoints):
                for v1 in range(nb):
                    if not cells[key]:
                        cells[key] = 2 if cc(x0, v0, x1, v1) else 1
                    key += 1
        else:
            below, lower, step = self._cells(alpha - 1), alpha - 1, self._step
            for x1 in range(self._npoints):
                for v1 in range(nb):
                    if not cells[key]:
                        cells[key] = 2 if step(x0, v0, x1, v1, below, lower) else 1
                    key += 1
        return bytes(cells[lo:lo + half])

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
            out = self._step(a, va, b, vb, self._cells(level - 1), level - 1)
        cells[key] = 2 if out else 1
        return out

    def _step(self, a, va, b, vb, below, lower) -> bool:
        """The successor clause: every W0 <= V0 has a W1 <= V1 with
        (b, W1) <= (a, W0) at level ``lower``, whose cells are ``below``."""
        half = self._half
        # cell (b, W1, a, W0) of the level below is start + W0 + W1*P*B
        start = b * self._nbasis * half + a * self._nbasis
        offs = self._offs[vb]
        for w0 in self._subs[va]:
            base = start + w0
            for off in offs:
                hit = below[base + off]
                if hit == 2 or (not hit and self._rec(b, off // half, a, w0, lower)):
                    break
            else:  # no W1 <= V1 answers this W0
                return False
        return True


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
