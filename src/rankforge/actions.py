"""Concrete action systems.

Three instantiations of the abstract interface.  The two finite ones are
instances of one finite permutation action, :class:`_PermutationAction`,
which holds the image table, containment, cc, the image tensor, the group
law and translation; each adds only how its points and basis are built.

* :class:`FiniteDiscreteAction` -- a finite permutation group acting on a
  finite set, both discrete.  Closures are identities, so the base relation
  is plain containment of basis-translate sets.
* :class:`FiniteLogicAction` -- the symmetric group S_n relabeling finite
  structures on 0..n-1, with the coset sets V_{a,b} (permutations mapping a
  to b entrywise) as basis, materialized.  Its points are the orbit closure
  of the given structures, found on fact codes: a structure is an int with
  one bit per atom, each atom's relabelings are looked up once, and only a
  newly found point is built as a :class:`FinStructure`.
* :class:`SymbolicLogicAction` -- the full permutation group of the naturals
  acting on finitely supported structures, handled symbolically: the coset
  sets are descriptors, containment is graph extension, and the base
  relation is decided through existential-theory containment.  The closure
  of a set is contained in a closed set exactly when the set itself is, and
  membership of a relabeled structure in the closure of a coset translate
  reduces to theory containment; a relabeled structure contributes only
  through the preimage of the target tuple, which is enumerated one
  representative per class.

Action file format (line oriented, ``#`` comments)::

    space size 3
    group
    elem e : 0 1 2
    elem s : 1 0 2
    end
    basis all-subsets            # or: singletons+G, or: sets: {e,s} {e}
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .common import BudgetError, Budgets, UnsupportedOperationError, ascii_int
from .hjorth import ActionSystem
from .structures import (Fact, FinStructure, ParseError, SchemaError, Signature,
                         SuppStructure, thsigma_contains)

ALL_SUBSETS = "all-subsets"
SINGLETONS_PLUS_G = "singletons+G"


class _PermutationAction(ActionSystem):
    """A finite group acting on finitely many points by permutations, with a
    basis of subsets of the group: every fact of such an action, once.

    Subclasses set ``points``, ``group`` (labels), ``perms`` (a faithful
    representation by permutations of 0..m-1), ``basis_sets``, ``basis``
    (labels) and ``_images[x][g]``, the point perms[g] carries x to.  The
    translate sets behind ``cc`` and the translate table are built on first
    use: most systems are built for their image tensor alone.
    """

    perms: Sequence[tuple[int, ...]]
    basis_sets: Sequence[frozenset[int]]
    _images: Sequence[Sequence[int]]

    def contains(self, w: int, v: int) -> bool:
        return self.basis_sets[w] <= self.basis_sets[v]

    def cc(self, x0: int, v0: int, x1: int, v1: int) -> bool:
        return self._vx[x0][v0] <= self._vx[x1][v1]

    @functools.cached_property
    def _vx(self) -> list[list[frozenset[int]]]:
        # translate-set of (x, V): which points V carries x to
        return [[frozenset(row[g] for g in s) for s in self.basis_sets]
                for row in self._images]

    def act(self, g: int, x: int) -> int:
        return self._images[x][g]

    def basis_members(self, v: int) -> frozenset[int]:
        return self.basis_sets[v]

    def image_tensor(self) -> np.ndarray:
        """One scatter from the image table and the basis x group membership
        matrix."""
        npoints, ngroup = len(self._images), len(self.perms)
        images = np.array(self._images, dtype=np.intp).reshape(npoints, ngroup)
        members = np.zeros((len(self.basis_sets), ngroup), dtype=bool)
        for v, s in enumerate(self.basis_sets):
            members[v, list(s)] = True
        vs, gs = np.nonzero(members)
        img = np.zeros((npoints, len(self.basis_sets), npoints), dtype=bool)
        img[np.arange(npoints)[:, None], vs, images[:, gs]] = True
        return img

    def group_law(self) -> tuple[list[int], list[list[int]]]:
        """``inverse[g]`` and ``compose[g][h]``, the index of g h (h acts
        first), computed on each call."""
        index = {p: i for i, p in enumerate(self.perms)}
        inverse = [index[_inverse(p)] for p in self.perms]
        compose = [[index[_compose(p, q)] for q in self.perms] for p in self.perms]
        return inverse, compose

    @functools.cached_property
    def _translates(self) -> list[list[int]] | None:
        # _translates[v][g]: the basis index of V g^-1; None when some
        # translate leaves the basis
        inverse, compose = self.group_law()
        index = {s: v for v, s in enumerate(self.basis_sets)}
        table = []
        for s in self.basis_sets:
            row = [index.get(frozenset(compose[h][ginv] for h in s))
                   for ginv in inverse]
            if None in row:
                return None
            table.append(row)
        return table

    @property
    def translation_closed(self) -> bool:
        return self._translates is not None

    def translate(self, v: int, g: int) -> int:
        """Basis index of the right translate V g^-1."""
        if self._translates is None:
            raise UnsupportedOperationError("basis is not closed under translation")
        return self._translates[v][g]


class FiniteDiscreteAction(_PermutationAction):
    """A faithful finite permutation action with an explicit basis of subsets."""

    def __init__(self, size: int, elements: list[tuple[str, tuple[int, ...]]],
                 basis_sets: list[frozenset[int]] | str = ALL_SUBSETS):
        self.size = size
        self.points = [str(x) for x in range(size)]
        labels = [label for label, _ in elements]
        self.group = labels
        self.perms = [perm for _, perm in elements]
        _validate_group(size, labels, self.perms)
        self._images = list(zip(*self.perms))

        if basis_sets == ALL_SUBSETS:
            masks = sorted(range(1, 1 << len(self.perms)),
                           key=lambda m: (bin(m).count("1"), m))
            sets = [frozenset(i for i in range(len(self.perms)) if m >> i & 1)
                    for m in masks]
        elif basis_sets == SINGLETONS_PLUS_G:
            sets = [frozenset([i]) for i in range(len(self.perms))]
            whole = frozenset(range(len(self.perms)))
            if whole not in sets:
                sets.append(whole)
        else:
            sets = list(basis_sets)
        if not sets or any(not s for s in sets):
            raise SchemaError("basis elements must be non-empty")
        if len(set(sets)) != len(sets):
            raise SchemaError("duplicate basis element")
        self.basis_sets = sets
        self.basis = ["{" + ",".join(labels[i] for i in sorted(s)) + "}"
                      for s in sets]

    def with_basis(self, basis_sets) -> "FiniteDiscreteAction":
        """Same points and group (hence same cc semantics), another basis."""
        return FiniteDiscreteAction(self.size, list(zip(self.group, self.perms)),
                                    basis_sets)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(p)))


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _validate_group(size: int, labels: list[str], perms: list[tuple[int, ...]]):
    if len(set(labels)) != len(labels):
        raise SchemaError("duplicate element label")
    for label, perm in zip(labels, perms):
        if len(perm) != size or sorted(perm) != list(range(size)):
            raise SchemaError(f"element {label} is not a permutation of 0..{size - 1}")
    if len(set(perms)) != len(perms):
        raise SchemaError("non-faithful element list (repeated permutation)")
    identity = tuple(range(size))
    if identity not in perms:
        raise SchemaError("identity element missing")
    index = set(perms)
    for p in perms:
        for q in perms:
            if _compose(p, q) not in index:
                raise SchemaError("element set is not closed under composition")


def parse_action_file(text: str, budgets: Budgets | None = None) -> FiniteDiscreteAction:
    """Build a finite-discrete system from an action file."""
    budgets = budgets or Budgets()
    size = None
    elements: list[tuple[str, tuple[int, ...]]] = []
    basis_spec = None
    lines = [(no, raw.split("#", 1)[0].strip())
             for no, raw in enumerate(text.splitlines(), start=1)]
    lines = [(no, line) for no, line in lines if line]
    pos = 0
    seen: set[str] = set()
    while pos < len(lines):
        no, line = lines[pos]
        words = line.split()
        if words[0] in ("space", "group", "basis"):
            if words[0] in seen:
                raise ParseError(f"repeated {words[0]} directive", no)
            seen.add(words[0])
        if words[:2] == ["space", "size"] and len(words) == 3:
            if (size := ascii_int(words[2])) is None:
                raise ParseError(f"size must be an integer, got {words[2]!r}", no)
            pos += 1
        elif words == ["group"]:
            if size is None:
                raise ParseError("space size must precede the group block", no)
            pos += 1
            while pos < len(lines) and lines[pos][1] != "end":
                eno, eline = lines[pos]
                head, _, imgs = eline.partition(":")
                parts = head.split()
                if len(parts) != 2 or parts[0] != "elem" or not imgs.strip():
                    raise ParseError("expected 'elem <label> : <images>'", eno)
                perm = tuple(ascii_int(t, signed=True) for t in imgs.split())
                if None in perm:
                    raise ParseError("images must be integers", eno)
                elements.append((parts[1], perm))
                pos += 1
            if pos >= len(lines):
                raise ParseError("unterminated group block", no)
            pos += 1
        elif words[0] == "basis":
            basis_spec = line[len("basis"):].strip()
            pos += 1
        else:
            raise ParseError(f"unrecognized line: {line}", no)
    if size is None or not elements:
        raise ParseError("file must declare a space and a group")
    if size > budgets.x:
        raise BudgetError(f"space size {size} exceeds budget x={budgets.x}")
    if len(elements) > budgets.g:
        raise BudgetError(f"group order {len(elements)} exceeds budget g={budgets.g}")
    if basis_spec is None or basis_spec == ALL_SUBSETS:
        basis = ALL_SUBSETS
    elif basis_spec == SINGLETONS_PLUS_G:
        basis = SINGLETONS_PLUS_G
    elif basis_spec.startswith("sets:"):
        labels = [lab for lab, _ in elements]
        index = {lab: i for i, lab in enumerate(labels)}
        basis = []
        for token in basis_spec[len("sets:"):].split():
            if not (token.startswith("{") and token.endswith("}")):
                raise ParseError(f"bad basis set token {token!r}")
            members = [t for t in token[1:-1].split(",") if t]
            unknown = [t for t in members if t not in index]
            if unknown:
                raise ParseError(f"unknown element {unknown[0]!r} in basis set")
            basis.append(frozenset(index[t] for t in members))
    else:
        raise ParseError(f"unrecognized basis spec {basis_spec!r}")
    return FiniteDiscreteAction(size, elements, basis)


class FiniteLogicAction(_PermutationAction):
    """S_n relabeling structures on universe 0..n-1; basis of materialized
    coset sets for injective tuple pairs up to a length cap.

    The points are the orbit closure of ``structures`` (all structures when
    none are given) in discovery order: the input deduplicated in order,
    then the relabelings of the last point queued, in permutation order,
    named ``M<i>``.  :func:`permute_structure` is the relabeling the closure
    computes on fact codes; ``point_of`` finds a structure's point."""

    def __init__(self, signature: Signature, n: int, k: int,
                 structures: list[FinStructure] | None = None):
        if n > 6:
            raise BudgetError(f"S_n enumeration is capped at n=6, got n={n}")
        if k > n:
            raise BudgetError(f"tuple-length cap k={k} exceeds n={n}")
        self.signature = signature
        self.n = n
        self.k = k
        cosets = self._cosets = _coset_basis(n, k)
        self.perms, self.group = cosets.perms, cosets.group
        self.basis_sets, self.basis = cosets.sets, cosets.labels

        if structures is None:
            total = sum(n ** arity for _, arity in signature.relations)
            if 2 ** total > 4096:
                raise BudgetError(
                    f"cannot enumerate 2^{total} structures on n={n}; "
                    "pass an explicit point list")
            structures = _all_structures(signature, n)
        for m in structures:
            if not isinstance(m, FinStructure) or m.size != n:
                raise SchemaError(f"points must be structures on 0..{n - 1}")
            if m.signature != signature:
                raise SchemaError("point signature mismatch")
        # _images[x][g]: the point perms[g] relabels structure x to
        self.structures, self._images = _orbit_close(structures, signature, n)
        self.points = [f"M{i}" for i in range(len(self.structures))]
        self._point_index = {m: i for i, m in enumerate(self.structures)}

    def basis_of(self, abar, bbar) -> int:
        """Basis index of the coset descriptor (a, b), of any length; KeyError
        when its coset set is not in the basis."""
        return self._cosets.pair_index[frozenset(zip(abar, bbar))]

    def point_of(self, struct: FinStructure) -> int:
        return self._point_index[struct]


def _all_structures(signature: Signature, n: int) -> list[FinStructure]:
    atoms = [(name, args) for name, arity in signature.relations
             for args in itertools.product(range(n), repeat=arity)]
    out = []
    for bits in range(1 << len(atoms)):
        facts = frozenset(atom for i, atom in enumerate(atoms) if bits >> i & 1)
        out.append(FinStructure(signature, n, facts))
    return out


class _AtomCodes:
    """Structures over one signature on 0..n-1 coded as ints: an atom
    (name, args) is the bit of its position in the atom order of
    :func:`_all_structures`, and a structure the sum of its facts' bits.
    Each atom met keeps its images under the permutations of S_n, in the
    order of ``_coset_basis(n, k).perms``, computed the first time it is
    met: a closure meets only the atoms of its points, where a table of
    every atom would hold n! entries per atom, too many for relations of
    high arity."""

    def __init__(self, signature: Signature, n: int):
        self.n = n
        self.perms = _symmetric_group(n)
        # _first[name]: the position of the relation's first atom
        self._first, total = {}, 0
        for name, arity in signature.relations:
            self._first[name] = total
            total += n ** arity
        self.facts: dict[int, Fact] = {}  # bit -> atom, for every atom met
        self._images: dict[int, tuple[int, ...]] = {}

    def bit(self, fact) -> int:
        """The bit of one atom, which is kept as met."""
        name, args = fact
        position = 0
        for e in args:
            position = position * self.n + e
        bit = 1 << (self._first[name] + position)
        self.facts.setdefault(bit, fact)
        return bit

    def images(self, bit: int) -> tuple[int, ...]:
        """The bits of the atom's relabelings, one per permutation."""
        row = self._images.get(bit)
        if row is None:
            name, args = self.facts[bit]
            row = self._images[bit] = tuple(
                self.bit((name, tuple(p[e] for e in args))) for p in self.perms)
        return row


@functools.lru_cache(maxsize=None)
def _atom_codes(signature: Signature, n: int) -> _AtomCodes:
    return _AtomCodes(signature, n)


def _orbit_close(structures: list[FinStructure], signature: Signature, n: int):
    """The orbit closure in discovery order (the input deduplicated in
    order, then each point found by relabeling the last point queued), and
    ``images[x][g]``, the point perms[g] relabels point x to.  Points are
    compared by fact code: one structure is built per new point, none per
    image."""
    codes = _atom_codes(signature, n)
    point: dict[int, int] = {}  # fact code -> point index
    out: list[FinStructure] = []
    bits: list[Sequence[int]] = []  # each point's fact bits
    for m in structures:
        facts = [codes.bit(f) for f in m.facts]
        code = sum(facts)
        if code not in point:
            point[code] = len(out)
            out.append(m)
            bits.append(facts)
    images: list[list[int] | None] = [None] * len(out)
    queue = list(range(len(out)))
    while queue:
        x = queue.pop()
        rows = [codes.images(b) for b in bits[x]]
        # relabeling the empty structure gives itself
        row = []
        for facts in zip(*rows) if rows else [()] * len(codes.perms):
            code = sum(facts)
            y = point.get(code)
            if y is None:
                y = point[code] = len(out)
                out.append(FinStructure(signature, n,
                                        frozenset(codes.facts[b] for b in facts)))
                bits.append(facts)
                images.append(None)
                queue.append(y)
            row.append(y)
        images[x] = row
    return out, images


def _coset_descriptors(n: int, k: int):
    out = []
    for length in range(min(k, n) + 1):
        injective = list(itertools.permutations(range(n), length))
        out.extend((a, b) for a in injective for b in injective)
    return out


def _coset_label(abar, bbar) -> str:
    return "V[{}->{}]".format("".join(map(str, abar)), "".join(map(str, bbar)))


class _CosetBasis(NamedTuple):
    perms: tuple[tuple[int, ...], ...]
    group: tuple[str, ...]
    sets: tuple[frozenset[int], ...]
    labels: tuple[str, ...]
    pair_index: Mapping[frozenset[tuple[int, int]], int]


@functools.lru_cache(maxsize=None)
def _symmetric_group(n: int) -> tuple[tuple[int, ...], ...]:
    """The permutations of 0..n-1 in lexicographic order."""
    return tuple(itertools.permutations(range(n)))


@functools.lru_cache(maxsize=None)
def _coset_basis(n: int, k: int) -> _CosetBasis:
    """S_n and its coset sets for injective tuple pairs up to length k,
    computed once per (n, k) and shared read-only by every relabeling
    system: equal sets are merged and the first descriptor names each.
    Each set is also indexed by the pairs its descriptors fix; n - 1 pairs
    force the last one, so the completed pairs are indexed too."""
    perms = _symmetric_group(n)
    set_index: dict[frozenset[int], int] = {}
    labels: list[str] = []
    pair_index = {}
    for abar, bbar in _coset_descriptors(n, k):
        members = frozenset(i for i, p in enumerate(perms)
                            if all(p[a] == b for a, b in zip(abar, bbar)))
        if members not in set_index:
            set_index[members] = len(labels)
            labels.append(_coset_label(abar, bbar))
        pairs = frozenset(zip(abar, bbar))
        pair_index[pairs] = set_index[members]
        if len(pairs) == n - 1:
            (a,) = set(range(n)).difference(abar)
            (b,) = set(range(n)).difference(bbar)
            pair_index[pairs | {(a, b)}] = set_index[members]
    return _CosetBasis(perms, tuple("".join(map(str, p)) for p in perms),
                       tuple(set_index), tuple(labels), MappingProxyType(pair_index))


class SymbolicLogicAction(ActionSystem):
    """The permutation group of the naturals on finitely supported structures,
    windowed: coset descriptors over 0..s-1 with lengths up to k."""

    def __init__(self, signature: Signature, s: int, k: int,
                 points: list[SuppStructure], budgets: Budgets | None = None):
        budgets = budgets or Budgets()
        if s > budgets.s or k > budgets.k:
            raise BudgetError(f"window s={s}, k={k} exceeds budget "
                              f"(s<={budgets.s}, k<={budgets.k})")
        self.signature = signature
        self.s = s
        self.k = min(k, s)
        for m in points:
            if not isinstance(m, SuppStructure) or m.signature != signature:
                raise SchemaError("points must share the declared signature")
            if m.support > s:
                raise SchemaError(f"support {m.support} outside window s={s}")
        self.structures = list(points)
        self.points = [f"M{i}" for i in range(len(points))]
        self.descriptors = _coset_descriptors(s, self.k)
        self.basis = [_coset_label(a, b) for a, b in self.descriptors]
        self._label_index = {lab: i for i, lab in enumerate(self.basis)}

    def contains(self, w: int, v: int) -> bool:
        # smaller coset <-> larger graph
        aw, bw = self.descriptors[w]
        av, bv = self.descriptors[v]
        return set(zip(av, bv)) <= set(zip(aw, bw))

    def cc(self, x0: int, v0: int, x1: int, v1: int) -> bool:
        m, n = self.structures[x0], self.structures[x1]
        abar, bbar = self.descriptors[v0]
        a2, b2 = self.descriptors[v1]
        for cbar in _preimage_classes(m, abar, bbar, b2):
            if not thsigma_contains(m, cbar, n, a2):
                return False
        return True

    def basis_of(self, abar, bbar) -> int:
        return self._label_index[_coset_label(abar, bbar)]


def _preimage_classes(m: SuppStructure, abar, bbar, target):
    """Representative preimages of ``target`` under permutations mapping
    abar to bbar: entries hit by bbar are forced onto abar, the rest range
    injectively over the support of m (off abar) or stay fresh."""
    forced: list[int | None] = []
    for t in target:
        if t in bbar:
            forced.append(abar[bbar.index(t)])
        else:
            forced.append(None)
    free = [i for i, f in enumerate(forced) if f is None]
    pool = [e for e in range(m.support) if e not in abar]
    fresh_base = max([m.support, *[a + 1 for a in abar]])

    def assignments(positions, used):
        if not positions:
            yield {}
            return
        head, *rest = positions
        for e in pool:
            if e not in used:
                for tail in assignments(rest, used | {e}):
                    yield {head: e, **tail}
        for tail in assignments(rest, used):  # fresh: distinct, off support
            yield {head: None, **tail}

    for assign in assignments(free, frozenset()):
        cbar = list(forced)
        nfresh = 0
        for i in free:
            if assign[i] is None:
                cbar[i] = fresh_base + nfresh
                nfresh += 1
            else:
                cbar[i] = assign[i]
        yield tuple(cbar)

