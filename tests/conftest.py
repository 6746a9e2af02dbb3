import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rankforge.actions import ALL_SUBSETS, FiniteDiscreteAction  # noqa: E402
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


def edge_structures(*sizes: int) -> list[FinStructure]:
    """Every edge structure on 3 elements with one of the given edge counts."""
    atoms = [("edge", (i, j)) for i in range(3) for j in range(3)]
    return [FinStructure(EDGE_SIG, 3, frozenset(c))
            for size in sizes for c in itertools.combinations(atoms, size)]


@pytest.fixture
def sys1():
    return make_sys1()


@pytest.fixture
def basis_index(sys1):
    return {label: i for i, label in enumerate(sys1.basis)}
