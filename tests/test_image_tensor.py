"""T_1 from image tensors against the per-entry cc, and the level
equivalence matrix against the pairwise definition."""

import itertools

import numpy as np
import pytest

from rankforge import hjorth as hj
from rankforge.actions import (ALL_SUBSETS, SINGLETONS_PLUS_G,
                               FiniteDiscreteAction, FiniteLogicAction,
                               parse_action_file)
from rankforge.common import InvalidBaseRelationError
from rankforge.verify import CorruptedSystem

from conftest import EDGE_SIG, edge_structures, make_sys1

C3 = [("e", (0, 1, 2)), ("r", (1, 2, 0)), ("r2", (2, 0, 1))]
S3 = [("".join(map(str, p)), p) for p in itertools.permutations(range(3))]


def per_entry_t1(sys) -> np.ndarray:
    npoints, nbasis = len(sys.points), len(sys.basis)
    quads = itertools.product(range(npoints), range(nbasis),
                              range(npoints), range(nbasis))
    return np.fromiter((sys.cc(*q) for q in quads), dtype=bool,
                       count=(npoints * nbasis) ** 2).reshape(
        npoints, nbasis, npoints, nbasis)


def pairwise_equiv(table: hj.LevelTable, alpha) -> np.ndarray:
    t = table.level(alpha)
    eq = np.zeros((table.npoints, table.npoints), dtype=bool)
    for x, y in itertools.product(range(table.npoints), repeat=2):
        eq[x, y] = (t[y, :, x, :].any(axis=0).all()
                    and t[x, :, y, :].any(axis=0).all())
    return eq


def assert_image_matches_action(sys):
    img = sys.image_tensor()
    assert img.shape == (len(sys.points), len(sys.basis), len(sys.points))
    for x, v in itertools.product(range(len(sys.points)), range(len(sys.basis))):
        hits = {sys.act(g, x) for g in sys.basis_members(v)}
        assert set(np.flatnonzero(img[x, v]).tolist()) == hits


def test_logic_action_above_64_points():
    sysb = FiniteLogicAction(EDGE_SIG, 3, 1, edge_structures(3))
    assert len(sysb.points) == 84 and len(sysb.basis) == 10
    assert_image_matches_action(sysb)
    table = hj.leq_table(sysb, max_level=1)
    assert np.array_equal(table.levels[0], per_entry_t1(sysb))


@pytest.mark.parametrize("basis", [ALL_SUBSETS, SINGLETONS_PLUS_G,
                                   "sets: {e,s} {e} {e,s,r}"])
def test_discrete_action_bases(basis):
    text = ("space size 4\ngroup\n"
            "elem e : 0 1 2 3\nelem s : 1 0 2 3\n"
            "elem r : 0 1 3 2\nelem sr : 1 0 3 2\nend\n"
            f"basis {basis}\n")
    sysb = parse_action_file(text)
    assert_image_matches_action(sysb)
    table = hj.leq_table(sysb, max_level=1)
    assert np.array_equal(table.levels[0], per_entry_t1(sysb))


@pytest.mark.parametrize("sysb", [
    make_sys1(),
    FiniteDiscreteAction(3, S3, SINGLETONS_PLUS_G),
    # not a basis: the levels stabilize only at 2
    FiniteDiscreteAction(3, C3, [frozenset({0, 1}), frozenset({0, 2}),
                                 frozenset({0, 1, 2})]),
    FiniteLogicAction(EDGE_SIG, 3, 2, edge_structures(3)[:6]),
], ids=["sys1", "s3", "non-basis", "logic"])
def test_equiv_matrix_every_level(sysb):
    table = hj.leq_table(sysb)
    for alpha in [*range(1, table.stab + 2), "stab"]:
        eq = table.equiv_matrix(alpha)
        assert np.array_equal(eq, pairwise_equiv(table, alpha))
        assert table.equiv_matrix(alpha) is eq  # computed once per level
        for x, y in itertools.product(range(table.npoints), repeat=2):
            assert table.equiv(x, y, alpha) == eq[x, y]


def test_equiv_matrix_one_sided_cover():
    # the group systems above cover symmetrically; a flipped entry makes
    # (0,{e}) <= (1,{e}) hold one way only
    base = FiniteDiscreteAction(2, [("e", (0, 1))], [frozenset({0})])
    table = hj.leq_table(CorruptedSystem(base, (0, 0, 1, 0)), max_level=1)
    assert table.leq(0, 0, 1, 0, 1) and not table.leq(1, 0, 0, 0, 1)
    assert np.array_equal(table.equiv_matrix(1), pairwise_equiv(table, 1))
    assert not table.equiv(0, 1, 1) and not table.equiv(1, 0, 1)


def test_corrupted_system_flips_its_entry():
    base = make_sys1()
    quad = (0, 0, 2, 2)
    corrupted = CorruptedSystem(base, quad)
    assert corrupted.image_tensor() is None
    flipped = hj.leq_table(corrupted, max_level=1).levels[0]
    clean = hj.leq_table(base, max_level=1).levels[0]
    assert np.argwhere(flipped != clean).tolist() == [list(quad)]
    with pytest.raises(InvalidBaseRelationError) as err:
        hj.leq_table(CorruptedSystem(base, (0, 0, 2, 0)))
    assert err.value.witness is not None
