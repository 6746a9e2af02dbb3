"""Finite and finitely supported relational structures.

Vocabulary, models, atomic evaluation, quantifier-free types,
existential-theory containment and brute-force isomorphism.  Structures come
in two flavours:

* ``FinStructure`` -- universe 0..n-1;
* ``SuppStructure`` -- universe is all of the naturals, every relation is
  false on any tuple touching an element >= the support.

The structure file format is line oriented, UTF-8, ``#`` starts a comment::

    signature
    rel edge 2
    end
    structure P2 size 3
    edge 0 1
    edge 1 2
    end
    supported S1 support 2
    edge 0 1
    end

Parsing round-trips byte-identically through :func:`serialize_structures`
after normalization (facts sorted lexicographically).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Union

from .common import BudgetError, ascii_int

EQ = "="  # equality is built-in and never declared

Fact = tuple[str, tuple[int, ...]]


class StructureError(Exception):
    """Base class for structure-file and schema problems."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ParseError(StructureError):
    """Malformed file content."""


class SchemaError(StructureError):
    """Unknown relation or arity mismatch."""


class RangeError(StructureError):
    """Tuple entry outside the declared universe."""


@dataclass(frozen=True)
class Signature:
    """An ordered relational vocabulary; names unique, arities >= 1."""

    relations: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate relation name")
        if EQ in names:
            raise SchemaError("equality is built-in and cannot be declared")
        for name, arity in self.relations:
            if arity < 1:
                raise SchemaError(f"relation {name} has arity {arity} < 1")

    def arity(self, name: str) -> int:
        for rel, arity in self.relations:
            if rel == name:
                return arity
        raise SchemaError(f"unknown relation {name}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)


def _check_facts(signature: Signature, facts: frozenset[Fact], bound: int) -> None:
    for name, args in facts:
        arity = signature.arity(name)
        if len(args) != arity:
            raise SchemaError(f"{name} expects {arity} arguments, got {len(args)}")
        for e in args:
            if not 0 <= e < bound:
                raise RangeError(f"element {e} outside 0..{bound - 1} in {name}")


@dataclass(frozen=True)
class FinStructure:
    """A model on the finite universe 0..size-1."""

    signature: Signature
    size: int
    facts: frozenset[Fact] = frozenset()

    def __post_init__(self):
        if self.size < 1:
            raise SchemaError("universe must be non-empty")
        _check_facts(self.signature, self.facts, self.size)

    @property
    def universe(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class SuppStructure:
    """A model on the naturals whose facts live below a finite support."""

    signature: Signature
    support: int
    facts: frozenset[Fact] = frozenset()

    def __post_init__(self):
        if self.support < 0:
            raise SchemaError("support must be >= 0")
        _check_facts(self.signature, self.facts, self.support)


Structure = Union[FinStructure, SuppStructure]


def eval_atomic(struct: Structure, atom: str, args: Sequence[int]) -> bool:
    """Truth of one atom.  ``atom`` is a relation name or ``"="``.

    Off-support arguments of a SuppStructure force relation atoms to false
    and equality to literal equality.
    """
    args = tuple(args)
    if atom == EQ:
        if len(args) != 2:
            raise SchemaError(f"= expects 2 arguments, got {len(args)}")
        return args[0] == args[1]
    arity = struct.signature.arity(atom)
    if len(args) != arity:
        raise SchemaError(f"{atom} expects {arity} arguments, got {len(args)}")
    if isinstance(struct, FinStructure):
        for e in args:
            if not 0 <= e < struct.size:
                raise RangeError(f"element {e} outside universe of size {struct.size}")
    else:
        if any(e < 0 for e in args):
            raise RangeError("negative element")
        if any(e >= struct.support for e in args):
            return False
    return (atom, args) in struct.facts


def _relation_bits(struct: Structure, entries: tuple[int, ...]) -> tuple[int, ...]:
    # Entries may contain negative "fresh element" markers: distinct ideal
    # elements off every support, on which all relations are false.
    packed = []
    for name, arity in struct.signature.relations:
        bits = 0
        for i, pos in enumerate(itertools.product(range(len(entries)), repeat=arity)):
            args = tuple(entries[p] for p in pos)
            if any(e < 0 for e in args):
                continue
            if eval_atomic(struct, name, args):
                bits |= 1 << i
        packed.append(bits)
    return tuple(packed)


def _equality_bits(entries: tuple[int, ...]) -> int:
    bits = 0
    for i, (p, q) in enumerate(itertools.combinations(range(len(entries)), 2)):
        if entries[p] == entries[q]:
            bits |= 1 << i
    return bits


def _qf_key(struct: Structure, entries: tuple[int, ...]) -> tuple:
    """Atomic truth table of a tuple: (length, equality bits, relation bits)."""
    return (len(entries), _equality_bits(entries), _relation_bits(struct, entries))


def _witness_pool(struct: Structure, params: tuple[int, ...]) -> list[int]:
    if isinstance(struct, FinStructure):
        return [e for e in struct.universe if e not in params]
    return [e for e in range(struct.support) if e not in params]


def _witness_tuples(pool: Sequence[int], max_len: int, fresh: int) -> Iterator[tuple[int, ...]]:
    """Injective tuples over ``pool`` plus up to ``fresh`` fresh markers.

    Fresh markers are the negatives -1, -2, ... introduced in canonical
    order, one representative tuple per equivalence class of witnesses.
    """

    def rec(prefix: tuple[int, ...], used: frozenset[int], next_fresh: int):
        yield prefix
        if len(prefix) == max_len:
            return
        for e in pool:
            if e not in used:
                yield from rec(prefix + (e,), used | {e}, next_fresh)
        if next_fresh >= -fresh:
            yield from rec(prefix + (next_fresh,), used, next_fresh - 1)

    yield from rec((), frozenset(), -1)


def _count_witnesses(pool_size: int, max_len: int, fresh: int) -> int:
    # per length: ordered pool entries times the positions of the fresh ones
    return sum(math.perm(pool_size, length - nfresh) * math.comb(length, nfresh)
               for length in range(max_len + 1)
               for nfresh in range(min(fresh, length) + 1))


_TYPESET_BUDGET = 400_000


def realized_types(struct: Structure, params: Sequence[int], max_len: int,
                   fresh: int) -> frozenset[tuple]:
    """All quantifier-free types realized over ``params`` by normalized witnesses."""
    params = tuple(params)
    pool = _witness_pool(struct, params)
    if _count_witnesses(len(pool), max_len, fresh) > _TYPESET_BUDGET:
        raise BudgetError("witness enumeration too large "
                          f"(pool {len(pool)}, length {max_len}, fresh {fresh})")
    return frozenset(_qf_key(struct, params + w)
                     for w in _witness_tuples(pool, max_len, fresh))


@lru_cache(maxsize=4096)
def _realized_types_cached(struct, params, max_len, fresh):
    return realized_types(struct, params, max_len, fresh)


def thsigma_contains(n_struct: Structure, bbar: Sequence[int],
                     m_struct: Structure, abar: Sequence[int]) -> bool:
    """Existential-theory containment with parameters: N,b into M,a.

    True iff every existential closure of a quantifier-free formula true of
    ``bbar`` in ``n_struct`` is true of ``abar`` in ``m_struct``; computed as
    containment of the realized quantifier-free type sets, with witnesses
    normalized to injective tuples plus canonical fresh markers.  Off-support
    witnesses on the left are enumerated only as far as the right side could
    fail to absorb them: a finitely supported right side absorbs any number.
    """
    bbar, abar = tuple(bbar), tuple(abar)
    if len(bbar) != len(abar):
        raise SchemaError(f"parameter length mismatch: {len(bbar)} vs {len(abar)}")
    n_pool = _witness_pool(n_struct, bbar)
    if isinstance(n_struct, SuppStructure):
        if isinstance(m_struct, SuppStructure):
            fresh_n = 0  # fresh-extended types are realized iff their base is
        else:
            fresh_n = len(_witness_pool(m_struct, abar)) + 1
    else:
        fresh_n = 0
    max_len = len(n_pool) + fresh_n
    fresh_m = max_len if isinstance(m_struct, SuppStructure) else 0
    left = _realized_types_cached(n_struct, bbar, max_len, fresh_n)
    right = _realized_types_cached(m_struct, abar, max_len, fresh_m)
    return left <= right


def brute_isomorphic(m_struct: FinStructure, n_struct: FinStructure,
                     abar: Sequence[int], bbar: Sequence[int]) -> bool:
    """Exhaustive search for an isomorphism taking abar to bbar entrywise.

    Oracle grade; sizes <= 8.  Unequal universe sizes give False.
    """
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) != len(bbar):
        raise SchemaError(f"tuple length mismatch: {len(abar)} vs {len(bbar)}")
    if m_struct.signature != n_struct.signature:
        return False
    if m_struct.size != n_struct.size:
        return False
    if m_struct.size > 8:
        raise BudgetError("brute_isomorphic is capped at size 8")
    for perm in itertools.permutations(range(m_struct.size)):
        if all(perm[a] == b for a, b in zip(abar, bbar)):
            if permute_structure(m_struct, perm) == n_struct:
                return True
    return False


def permute_structure(struct: FinStructure, perm: Sequence[int]) -> FinStructure:
    """Relabel the universe along ``perm`` (facts move forward)."""
    facts = frozenset((name, tuple(perm[e] for e in args)) for name, args in struct.facts)
    return FinStructure(struct.signature, struct.size, facts)


def canonical_form(struct: FinStructure) -> tuple:
    """Least relabeled fact set over all permutations; equal iff isomorphic."""
    if struct.size > 8:
        raise BudgetError("canonical_form is capped at size 8")
    best = None
    for perm in itertools.permutations(range(struct.size)):
        key = tuple(sorted((name, tuple(perm[e] for e in args))
                           for name, args in struct.facts))
        if best is None or key < best:
            best = key
    return (struct.size, best)


# ---------------------------------------------------------------------------
# File format


def _parse_int(token: str, lineno: int, what: str) -> int:
    if (value := ascii_int(token, signed=True)) is None:
        raise ParseError(f"{what} must be an integer, got {token!r}", lineno)
    return value


def parse_structures_file(text: str) -> tuple[Signature, dict[str, Structure]]:
    """Parse a structure file: one signature block, then structure blocks."""
    # Lines are consumed as they are read, and split only when needed: a list
    # of every line's tokens would be several times the parsed structures.
    lines = ((lineno, raw) for lineno, raw in enumerate(text.splitlines(), start=1)
             if raw.strip()[:1] not in ("", "#"))
    first, raw = next(lines, (1, ""))
    if raw.split("#", 1)[0].split() != ["signature"]:
        raise ParseError("expected 'signature'", first)
    relations: list[tuple[str, int]] = []
    lineno = first
    for lineno, raw in lines:
        words = raw.split("#", 1)[0].split()
        if words == ["end"]:
            break
        if words[0] != "rel" or len(words) != 3:
            raise ParseError("expected 'rel <name> <arity>' or 'end'", lineno)
        arity = _parse_int(words[2], lineno, "arity")
        relations.append((words[1], arity))
    else:
        raise ParseError("unterminated signature block", lineno)
    try:
        signature = Signature(tuple(relations))
    except SchemaError as exc:
        raise SchemaError(str(exc), first) from None

    arities = dict(signature.relations)
    structures: dict[str, Structure] = {}
    memos: dict[int, dict[str, Fact]] = {}  # bound -> line text -> checked fact
    for lineno, raw in lines:
        words = raw.split("#", 1)[0].split()
        if len(words) == 4 and words[0] in ("structure", "supported"):
            kind, ident, sizeword, bound_tok = words
            expect = "size" if kind == "structure" else "support"
            if sizeword != expect:
                raise ParseError(f"expected '{expect}' in {kind} header", lineno)
            bound = _parse_int(bound_tok, lineno, expect)
        else:
            raise ParseError("expected a structure or supported header", lineno)
        if ident in structures:
            raise ParseError(f"duplicate structure id {ident}", lineno)
        memo = memos.setdefault(bound, {})
        facts: set[Fact] = set()
        for flineno, fraw in lines:
            if (fact := memo.get(fraw)) is None:  # split and check each text once
                fwords = fraw.split("#", 1)[0].split()
                if fwords == ["end"]:
                    break
                name, args = fwords[0], fwords[1:]
                if (arity := arities.get(name)) is None:
                    raise SchemaError(f"unknown relation {name}", flineno)
                if len(args) != arity:
                    raise SchemaError(f"{name} expects {arity} arguments, "
                                      f"got {len(args)}", flineno)
                entries = tuple(_parse_int(a, flineno, "element") for a in args)
                for e in entries:
                    if not 0 <= e < bound:
                        raise RangeError(f"element {e} outside 0..{bound - 1}", flineno)
                fact = memo[fraw] = (name, entries)
            facts.add(fact)
        else:
            raise ParseError("unterminated structure block", lineno)
        if kind == "structure":
            structures[ident] = FinStructure(signature, bound, frozenset(facts))
        else:
            structures[ident] = SuppStructure(signature, bound, frozenset(facts))
    return signature, structures


def serialize_structures(signature: Signature,
                         structures: dict[str, Structure]) -> str:
    """Canonical text form; facts sorted lexicographically."""
    lines = ["signature"]
    for name, arity in signature.relations:
        lines.append(f"rel {name} {arity}")
    lines.append("end")
    for ident, struct in structures.items():
        if isinstance(struct, FinStructure):
            lines.append(f"structure {ident} size {struct.size}")
        else:
            lines.append(f"supported {ident} support {struct.support}")
        for name, args in sorted(struct.facts):
            lines.append(" ".join([name, *map(str, args)]))
        lines.append("end")
    return "\n".join(lines) + "\n"
