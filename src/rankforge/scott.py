"""Back-and-forth tuple equivalence and rank on finite structures.

The level-alpha relations are computed by synchronous partition refinement
over the injective tuples of every structure in a family.  Tuples with
repeated entries reduce to their deduplicated core plus a repetition
pattern: equality is atomic, so the pattern is part of the level-0 type and
extensions by repeated elements are matched exactly when the cores are
equivalent.  Refinement therefore runs on injective carriers only, and class
lookups for arbitrary tuples go through the reduction.

Levels are naturals starting at 0; on finite inputs the decreasing chain of
partitions is finite, so the stabilized partition stands in for every limit
level and is addressed by the STAB sentinel.

Comparisons are reads of one family table: two finite structures are
isomorphic exactly when their empty tuples share a stabilized class, and the
least level that separates them is the first where those classes differ.

Past level 0 the refinement reads no atoms: it is a function of the
family's universe sizes, which fix each tuple's children, and of the level-0
colouring, numbered by first occurrence.  So ``_refinement`` is cached on
that pair, and tables with equal keys (a structure, its complement and its
converse, say) share their level arrays, which are therefore read-only.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

from .common import STAB, BudgetError
from .structures import FinStructure, RangeError

# Tables refine every injective tuple, n! of them at size n, so sizes above
# this cap are refused, as ``structures.canonical_form`` refuses them.
MAX_SIZE = 8


def _reduce(tup: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a tuple into (pattern, injective core by first occurrence).

    pattern[i] is the index of tup[i] inside the core.
    """
    core: list[int] = []
    pattern: list[int] = []
    seen: dict[int, int] = {}
    for e in tup:
        if e not in seen:
            seen[e] = len(core)
            core.append(e)
        pattern.append(seen[e])
    return tuple(pattern), tuple(core)


class ScottTable:
    """Stratified partitions of (structure, tuple) pairs for one family.

    Items are the injective tuples of each structure in family order, each
    structure's tuples in ``injective_tuples`` order.  Level alpha is an int
    array over the items; colours are numbered by first occurrence in item
    order, so ``blocks`` lists classes in the order their first item appears.
    """

    def __init__(self, family: Sequence[FinStructure]):
        family = tuple(family)
        if not family:
            raise ValueError("empty family")
        if not all(isinstance(m, FinStructure) for m in family):
            raise ValueError("back-and-forth tables need finite structures")
        signature = family[0].signature
        if any(m.signature != signature for m in family):
            raise ValueError("family mixes signatures")
        sizes = tuple(m.size for m in family)
        width = max(sizes)
        if width > MAX_SIZE:
            raise BudgetError(f"Scott tables are capped at size {MAX_SIZE}, "
                              f"got size {width}")
        self.family = family
        self._offsets = list(itertools.accumulate(
            (len(injective_tuples(size)) for size in sizes[:-1]), initial=0))
        # Level 0: the quantifier-free type row [length, atom truths...].
        colors, _ = _number(_qf_rows(family, width))
        self._levels = _refinement(sizes, colors.tobytes())
        self.stab = len(self._levels) - 1

    @property
    def levels(self) -> int:
        """Number of stored levels (0 .. stab)."""
        return len(self._levels)

    def level(self, alpha) -> np.ndarray:
        """The read-only colour array over the items at a level: two items
        of one tuple length share a class exactly when their colours are
        equal.  Levels past ``stab`` and ``STAB`` read the stabilized one."""
        if alpha == STAB:
            return self._levels[self.stab]
        if alpha < 0:
            raise ValueError("levels start at 0")
        return self._levels[min(alpha, self.stab)]

    def class_of(self, i: int, tup: Sequence[int], alpha) -> tuple:
        """Class token of a tuple at a level; tokens compare across the family."""
        tup = tuple(tup)
        size = self.family[i].size
        for e in tup:
            if not 0 <= e < size:
                raise RangeError(f"element {e} outside universe of size {size}")
        colors = self.level(alpha)
        pattern, core = _reduce(tup)
        return (pattern, int(colors[self._offsets[i] + _carrier(size).index[core]]))

    def equivalent(self, i: int, t: Sequence[int], j: int, u: Sequence[int],
                   alpha) -> bool:
        t, u = tuple(t), tuple(u)
        if len(t) != len(u):
            raise ValueError(f"tuple length mismatch: {len(t)} vs {len(u)}")
        return self.class_of(i, t, alpha) == self.class_of(j, u, alpha)

    def blocks(self, alpha) -> list[list[tuple[int, tuple[int, ...]]]]:
        """Partition of the injective carrier at a level, canonically ordered."""
        colors = self.level(alpha).tolist()
        out: list[list] = [[] for _ in range(max(colors) + 1)]
        items = ((i, t) for i, m in enumerate(self.family)
                 for t in injective_tuples(m.size))
        for item, color in zip(items, colors):
            out[color].append(item)
        return out


def _number(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Colour each row by the first occurrence of an equal row."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    ids: dict[bytes, int] = {}
    colors = [ids.setdefault(row, len(ids)) for row in rows.tolist()]
    return np.array(colors, dtype=np.int32), len(ids)


@lru_cache(maxsize=4096)
def _refinement(sizes: tuple[int, ...], level0: bytes) -> tuple[np.ndarray, ...]:
    """Levels 0..stab of a family with these universe sizes whose level-0
    colours, numbered by first occurrence, are the int32 array ``level0``.

    Nothing past level 0 depends on the atoms, so tables with equal keys
    share the result; its arrays are read-only.
    """
    colors = np.frombuffer(level0, dtype=np.int32)
    count = int(colors.max()) + 1
    children = _children(sizes)
    levels = [colors]
    while True:
        # Level alpha + 1: own colour plus the *set* of child colours.
        # Sorting, turning repeats into the row's first value and sorting
        # again gives one row per set; -1 marks "no extension".
        sig = np.append(colors, -1)[children]
        sig.sort(axis=1)
        sig[:, 1:] = np.where(sig[:, 1:] == sig[:, :-1], sig[:, :1], sig[:, 1:])
        sig.sort(axis=1)
        nxt, new_count = _number(np.column_stack((colors, sig)))
        if new_count == count:
            break  # refinement added nothing: previous level is stable
        nxt.flags.writeable = False
        levels.append(nxt)
        colors, count = nxt, new_count
    return tuple(levels)


@lru_cache(maxsize=16)
def _children(sizes: tuple[int, ...]) -> np.ndarray:
    """items x max(sizes): each item's children in the family's item order,
    padded to the widest universe with its first child (-1 if none)."""
    width = max(sizes)
    children = []
    offset = 0
    for size in sizes:
        carrier = _carrier(size)
        kids = np.where(carrier.children < 0, -1, carrier.children + offset)
        pad = np.repeat(kids[:, :1], width - size, axis=1)
        children.append(np.hstack((kids, pad)))
        offset += len(carrier.tuples)
    return np.vstack(children)


@lru_cache(maxsize=None)
def injective_tuples(size: int) -> tuple[tuple[int, ...], ...]:
    """Injective tuples over 0..size-1, by length, then lexicographically."""
    return tuple(t for length in range(size + 1)
                 for t in itertools.permutations(range(size), length))


class _Carrier:
    """The injective tuples of one universe size, shared by every table.

    ``children[k]`` holds the indices of the one-element extensions of tuple
    k, padded with its first child; full-length tuples have a row of -1.
    """

    __slots__ = ("tuples", "index", "lengths", "children")

    def __init__(self, size: int):
        self.tuples = injective_tuples(size)
        self.index = {t: k for k, t in enumerate(self.tuples)}
        self.lengths = np.array([len(t) for t in self.tuples], dtype=np.int8)
        self.children = np.full((len(self.tuples), size), -1, dtype=np.int32)
        for k, t in enumerate(self.tuples):
            kids = [self.index[t + (e,)] for e in range(size) if e not in t]
            if kids:
                self.children[k] = kids + kids[:1] * (size - len(kids))


_carrier = lru_cache(maxsize=None)(_Carrier)


@lru_cache(maxsize=None)
def _positions(size: int, arity: int) -> np.ndarray:
    """items x size**arity: flat index into a size**arity relation array of
    the item's entries at each position vector over its own length, in
    lexicographic position order; later columns hold the index size**arity."""
    carrier = _carrier(size)
    out = np.full((len(carrier.tuples), size ** arity), size ** arity, dtype=np.int32)
    strides = size ** np.arange(arity - 1, -1, -1)
    for length in range(1, size + 1):
        rows = np.flatnonzero(carrier.lengths == length)
        entries = np.array([carrier.tuples[k] for k in rows])
        vectors = np.array(list(itertools.product(range(length), repeat=arity)))
        out[rows, :length ** arity] = entries[:, vectors] @ strides
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _row_reads(size: int, width: int, arities: tuple[int, ...]) -> np.ndarray:
    """items x columns: the entry of a structure's truth vector that each
    column of a size-``size`` item's level-0 row reads (see ``_qf_rows``).
    Column 0 reads the item's length; relation r's columns read its section
    through ``_positions``, and each column past the item's own atoms reads
    an entry at or past size**r, which no fact sets."""
    lengths = _carrier(size).lengths.astype(np.int32)[:, None]
    parts, offset = [lengths], width + 1
    for arity in arities:
        pos = _positions(size, arity)
        pad = np.full((len(pos), width ** arity - size ** arity), width ** arity,
                      dtype=np.int32)
        parts.append(offset + np.hstack((pos, pad)))
        offset += width ** arity + 1
    out = np.hstack(parts)
    out.flags.writeable = False
    return out


def _qf_rows(family: Sequence[FinStructure], width: int) -> np.ndarray:
    """Level-0 key rows of a family's items, in item order: [length, atom
    truths...].

    Each relation of arity r takes width**r columns (width is the largest
    universe in the family), so equal types give equal rows across sizes;
    the columns past size**r stay 0.  Each structure has a truth vector:
    the lengths 0..width, then per relation a section of width**r + 1
    entries holding its atoms' truths, raveled over its own size.  The
    items of one universe size read their structures' vectors in one
    gather through ``_row_reads``.
    """
    relations = family[0].signature.relations
    arities = tuple(arity for _, arity in relations)
    section, offset = {}, width + 1
    for name, arity in relations:
        section[name] = offset
        offset += width ** arity + 1
    truth = np.zeros((len(family), offset), dtype=np.int8)
    truth[:, :width + 1] = np.arange(width + 1)
    hits = []
    for i, m in enumerate(family):
        base, size = i * offset, m.size
        for name, args in m.facts:
            flat = 0
            for e in args:
                flat = flat * size + e
            hits.append(base + section[name] + flat)
    truth.put(hits, 1)
    # each size's items in one gather, handed out to its structures in
    # family order
    by_size: dict[int, list[int]] = {}
    for i, m in enumerate(family):
        by_size.setdefault(m.size, []).append(i)
    blocks = {size: iter(truth[np.array(members)[:, None, None],
                               _row_reads(size, width, arities)])
              for size, members in by_size.items()}
    return np.concatenate([next(blocks[m.size]) for m in family])


def scott_rank(struct: FinStructure) -> int:
    """Least level where within-structure equivalence implies the next level.

    For a single structure the refinement is a function of the current
    partition, so this is exactly the table's stabilization index.
    """
    return ScottTable((struct,)).stab
