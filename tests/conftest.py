import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rankforge import hjorth as hj  # noqa: E402
from rankforge.actions import ALL_SUBSETS, FiniteDiscreteAction  # noqa: E402
from rankforge.common import STAB  # noqa: E402
from rankforge.scott import scott_equiv  # noqa: E402
from rankforge.structures import FinStructure, Signature  # noqa: E402

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


def edge_structures(*sizes: int) -> list[FinStructure]:
    """Every edge structure on 3 elements with one of the given edge counts."""
    atoms = [("edge", (i, j)) for i in range(3) for j in range(3)]
    return [FinStructure(EDGE_SIG, 3, frozenset(c))
            for size in sizes for c in itertools.combinations(atoms, size)]


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
    if not scott_equiv(m_struct, abar, n_struct, a2bar, STAB):
        return True
    sys = table.sys
    return table.leq(sys.point_of(m_struct), sys.basis_of(abar, bbar),
                     sys.point_of(n_struct), sys.basis_of(a2bar, bbar), STAB)


@pytest.fixture
def sys1():
    return make_sys1()


@pytest.fixture
def basis_index(sys1):
    return {label: i for i, label in enumerate(sys1.basis)}
