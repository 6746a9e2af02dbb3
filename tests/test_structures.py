import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge.common import ascii_int
from rankforge.structures import (FinStructure, ParseError, RangeError,
                                  SchemaError, Signature, SuppStructure,
                                  brute_isomorphic, canonical_form, eval_atomic,
                                  parse_structures_file, permute_structure,
                                  realized_types, serialize_structures,
                                  thsigma_contains)
from rankforge.structures import _count_witnesses, _qf_key, _witness_tuples
from rankforge.verify import canonical_edge_representatives

from conftest import EDGE_SIG, chain

PATH2 = FinStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1)), ("edge", (1, 2))}))


# -- signatures and construction

def test_signature_validation():
    with pytest.raises(SchemaError):
        Signature((("r", 2), ("r", 1)))
    with pytest.raises(SchemaError):
        Signature((("r", 0),))
    with pytest.raises(SchemaError):
        Signature((("=", 2),))
    assert Signature(()).names == ()


def test_structure_fact_validation():
    with pytest.raises(SchemaError):
        FinStructure(EDGE_SIG, 2, frozenset({("edge", (0,))}))
    with pytest.raises(RangeError):
        FinStructure(EDGE_SIG, 2, frozenset({("edge", (0, 5))}))
    with pytest.raises(RangeError):
        SuppStructure(EDGE_SIG, 1, frozenset({("edge", (0, 1))}))


# -- parsing

def test_parse_empty_signature_three_elements():
    _, structs = parse_structures_file("signature\nend\nstructure A size 3\nend\n")
    struct = structs["A"]
    assert isinstance(struct, FinStructure)
    assert struct.size == 3 and not struct.facts


def test_parse_two_path():
    text = ("signature\nrel edge 2\nend\n"
            "structure P size 3\nedge 0 1\nedge 1 2\nend\n")
    assert parse_structures_file(text)[1] == {"P": PATH2}


def test_parse_range_error_names_line():
    text = "signature\nrel edge 2\nend\nstructure A size 3\nedge 0 5\nend\n"
    with pytest.raises(RangeError) as err:
        parse_structures_file(text)
    assert err.value.line == 5


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_structures_file("structure A size 2\nend\n")
    with pytest.raises(SchemaError):
        parse_structures_file("signature\nrel edge 2\nend\n"
                              "structure A size 2\nfoo 0\nend\n")
    with pytest.raises(ParseError):
        parse_structures_file("signature\nrel edge 2\nend\n"
                              "structure A size 2\nedge 0 1\n")  # unterminated
    with pytest.raises(ParseError):
        parse_structures_file("signature\nend\n"
                              "structure A size 1\nend\nstructure A size 1\nend\n")


@pytest.mark.parametrize("token, signed, value", [
    ("0", False, 0), ("17", False, 17), ("-3", True, -3), ("-0", True, 0),
    ("-3", False, None), ("²", False, None), ("--1", True, None), ("-", True, None),
    ("", False, None), ("+1", True, None), ("1_0", False, None), ("٣", False, None),
    (" 1", False, None),
])
def test_ascii_int_takes_ascii_digits_only(token, signed, value):
    # isdigit takes '²' and lstrip('-') takes '--1', and int() refuses both
    assert ascii_int(token, signed) == value


@pytest.mark.parametrize("line, token", [
    ("rel edge ²", "²"), ("structure A size ²", "²"), ("edge 0 ²", "²"),
    ("edge 0 --1", "--1"), ("edge 0 1_0", "1_0"),
], ids=["arity", "size", "superscript", "two-minus", "underscore"])
def test_parse_refuses_integer_tokens_int_would_choke_on(line, token):
    lines = ["signature", "rel edge 2", "end", "structure A size 2", "edge 0 1", "end"]
    at = {"rel": 2, "structure": 4}.get(line.split()[0], 5)
    lines[at - 1] = line
    with pytest.raises(ParseError) as err:
        parse_structures_file("\n".join(lines) + "\n")
    assert err.value.line == at
    assert str(err.value).endswith(f"must be an integer, got {token!r}")


def test_parse_checks_a_repeated_line_again_under_a_smaller_bound():
    text = ("signature\nrel edge 2\nend\n"
            "structure A size 4\nedge 0 3\nend\n"
            "structure B size 3\nedge 0 3\nend\n")
    with pytest.raises(RangeError) as err:
        parse_structures_file(text)
    assert err.value.line == 8
    assert str(err.value) == "line 8: element 3 outside 0..2"


def test_parse_reads_a_fact_however_its_line_is_spaced():
    text = ("signature\nrel edge 2\nend\n"
            "structure A size 2\nedge 0 1\nend\n"
            "structure B size 2\n  edge 0 1\nend\n"
            "structure C size 2\nedge 0 1 # c\nend\n")
    structs = parse_structures_file(text)[1]
    assert structs["A"] == structs["B"] == structs["C"]
    assert structs["A"].facts == {("edge", (0, 1))}


def test_parse_accepts_a_repeated_fact_line_once():
    text = ("signature\nrel edge 2\nend\n"
            "structure A size 2\nedge 0 1\nedge 1 1\nedge 0 1\nend\n")
    assert parse_structures_file(text)[1]["A"].facts == {("edge", (0, 1)),
                                                           ("edge", (1, 1))}


def test_parse_shares_one_fact_tuple_per_line_and_bound():
    text = ("signature\nrel edge 2\nend\n"
            "structure A size 3\nedge 0 1\nedge 1 2\nend\n"
            "structure B size 3\nedge 1 2\nend\n"
            "supported S support 3\nedge 0 1\nend\n")
    structs = parse_structures_file(text)[1]
    fact = ("edge", (1, 2))
    [a] = [f for f in structs["A"].facts if f == fact]
    [b] = structs["B"].facts
    assert a is b
    [a01] = [f for f in structs["A"].facts if f != fact]
    [s01] = structs["S"].facts
    assert a01 is s01


def every_edge_class_file() -> str:
    """All 3,160 classes of one binary relation on 1-4 elements, facts in
    reverse order, some lines indented and commented, the first repeated."""
    lines = ["signature", "  rel edge 2 # the one relation", "end"]
    k = 0
    for n in range(1, 5):
        for m in canonical_edge_representatives(n):
            lines.append(f"structure C{k} size {n}")
            facts = [" ".join([name, *map(str, args)])
                     for name, args in sorted(m.facts, reverse=True)]
            lines += [line if i % 3 else f"  {line}  # fact {i}"
                      for i, line in enumerate(facts)]
            lines += facts[:1] + ["", "end"]
            k += 1
    return "\n".join(lines) + "\n"


# sha256 of the canonical text of every_edge_class_file(), frozen from the
# parser that split and checked every line
EVERY_CLASS_DIGEST = "7881b1dfaf131eb1956880b1669080461d70e87d1fe2974d1878fe45fa900e14"


def test_parse_of_every_edge_class_is_pinned():
    sig, structs = parse_structures_file(every_edge_class_file())
    assert len(structs) == 3160
    text = serialize_structures(sig, structs)
    assert hashlib.sha256(text.encode()).hexdigest() == EVERY_CLASS_DIGEST


def test_serialize_round_trip_byte_identical():
    text = ("signature\nrel edge 2\nend\n"
            "structure P size 3\nedge 1 2\nedge 0 1\nend\n"
            "supported S support 2\nedge 0 1\nend\n")
    sig, structs = parse_structures_file(text)
    normalized = serialize_structures(sig, structs)
    sig2, structs2 = parse_structures_file(normalized)
    assert serialize_structures(sig2, structs2) == normalized
    assert structs == structs2


# -- atomic evaluation

def test_eval_atomic_facts():
    assert eval_atomic(PATH2, "edge", (0, 1))
    assert not eval_atomic(PATH2, "edge", (1, 0))
    assert eval_atomic(PATH2, "=", (2, 2))
    with pytest.raises(SchemaError):
        eval_atomic(PATH2, "edge", (0,))
    with pytest.raises(SchemaError):
        eval_atomic(PATH2, "missing", (0, 1))
    with pytest.raises(RangeError):
        eval_atomic(PATH2, "edge", (0, 3))


def test_eval_atomic_off_support():
    s2 = SuppStructure(EDGE_SIG, 2, frozenset({("edge", (0, 1))}))
    assert not eval_atomic(s2, "edge", (0, 7))
    assert eval_atomic(s2, "=", (7, 7))
    assert not eval_atomic(s2, "=", (7, 8))


# -- quantifier-free types

def test_qf_type_examples():
    # a key is (length, equality bits, relation bits)
    l2 = chain(2)
    t01, t10 = _qf_key(l2, (0, 1)), _qf_key(l2, (1, 0))
    assert t01 != t10
    assert t01[2] != t10[2]  # 0<1 true, 1<0 false
    assert _qf_key(l2, ()) == _qf_key(chain(3), ())
    assert _qf_key(l2, (0, 0))[1] != t01[1]


@st.composite
def edge_structure_and_perm(draw):
    n = draw(st.integers(1, 4))
    atoms = [(i, j) for i in range(n) for j in range(n)]
    chosen = draw(st.sets(st.sampled_from(atoms))) if atoms else set()
    facts = frozenset(("edge", a) for a in chosen)
    perm = tuple(draw(st.permutations(list(range(n)))))
    tup = tuple(draw(st.lists(st.integers(0, n - 1), max_size=4)))
    return FinStructure(EDGE_SIG, n, facts), perm, tup


@given(edge_structure_and_perm())
@settings(max_examples=60, deadline=None)
def test_qf_type_permutation_equivariant(data):
    struct, perm, tup = data
    image = permute_structure(struct, perm)
    assert _qf_key(struct, tup) == _qf_key(image, tuple(perm[e] for e in tup))


@given(edge_structure_and_perm())
@settings(max_examples=40, deadline=None)
def test_serializer_round_trips_generated_structures(data):
    struct, _, _ = data
    text = serialize_structures(struct.signature, {"A": struct})
    sig, parsed = parse_structures_file(text)
    assert parsed["A"] == struct
    assert serialize_structures(sig, parsed) == text


# -- existential-theory containment

def test_thsigma_reflexive_and_chains():
    l2, l3 = chain(2), chain(3)
    assert thsigma_contains(l2, (0, 1), l2, (0, 1))
    assert thsigma_contains(l2, (), l3, ())
    assert not thsigma_contains(l3, (), l2, ())
    with pytest.raises(SchemaError):
        thsigma_contains(l2, (0,), l2, ())


def test_thsigma_transitive_sampled():
    rng = random.Random(5)
    structs = []
    for _ in range(12):
        n = rng.randint(1, 3)
        facts = frozenset(("edge", (i, j)) for i in range(n) for j in range(n)
                          if rng.random() < 0.4)
        structs.append(FinStructure(EDGE_SIG, n, facts))
    triples = 0
    for _ in range(300):
        a, b, c = rng.choice(structs), rng.choice(structs), rng.choice(structs)
        if thsigma_contains(a, (), b, ()) and thsigma_contains(b, (), c, ()):
            triples += 1
            assert thsigma_contains(a, (), c, ())
    assert triples > 0


def test_thsigma_supported_examples():
    m1 = SuppStructure(EDGE_SIG, 2, frozenset({("edge", (0, 1))}))
    n2 = SuppStructure(EDGE_SIG, 3, frozenset({("edge", (0, 1)),
                                               ("edge", (1, 2))}))
    assert thsigma_contains(m1, (), n2, ())
    assert not thsigma_contains(n2, (), m1, ())
    # off-support parameters act like fresh elements
    assert thsigma_contains(m1, (7,), m1, (9,))
    assert not thsigma_contains(m1, (0,), m1, (9,))


def _raw_thsigma(n_struct, bbar, m_struct, abar, cap):
    """Validation oracle: enumerate raw witness tuples (repeats allowed, a
    pool of explicit off-support elements) up to a longer cap."""
    def pool(struct, params):
        if isinstance(struct, FinStructure):
            return list(range(struct.size))
        return list(range(struct.support)) + [struct.support + 50 + i
                                              for i in range(cap)] + list(params)

    def types(struct, params):
        out = set()
        for length in range(cap + 1):
            for w in itertools.product(pool(struct, params), repeat=length):
                entries = tuple(params) + w
                eq = tuple(entries[i] == entries[j]
                           for i in range(len(entries))
                           for j in range(len(entries)))
                rel = tuple(eval_atomic(struct, name, tuple(entries[p] for p in pos))
                            for name, arity in struct.signature.relations
                            for pos in itertools.product(range(len(entries)),
                                                         repeat=arity))
                out.add((len(entries), eq, rel))
        return out

    return types(n_struct, bbar) <= types(m_struct, abar)


def test_thsigma_matches_longer_cap_oracle():
    rng = random.Random(11)
    for _ in range(60):
        kind = rng.random()
        def rand_supp():
            s = rng.randint(0, 2)
            facts = frozenset(("edge", (i, j)) for i in range(s)
                              for j in range(s) if rng.random() < 0.5)
            return SuppStructure(EDGE_SIG, s, facts)
        def rand_fin():
            n = rng.randint(1, 3)
            facts = frozenset(("edge", (i, j)) for i in range(n)
                              for j in range(n) if rng.random() < 0.5)
            return FinStructure(EDGE_SIG, n, facts)
        if kind < 0.5:
            m, n = rand_supp(), rand_supp()
            abar = tuple(rng.randrange(4) for _ in range(rng.randint(0, 2)))
            bbar = tuple(rng.randrange(4) for _ in range(len(abar)))
        else:
            m, n = rand_fin(), rand_fin()
            abar = tuple(rng.randrange(m.size) for _ in range(rng.randint(0, 2)))
            bbar = tuple(rng.randrange(n.size) for _ in range(len(abar)))
        assert thsigma_contains(n, bbar, m, abar) == \
            _raw_thsigma(n, bbar, m, abar, cap=4)


def test_realized_types_budget_guard():
    from rankforge.common import BudgetError
    big = FinStructure(EDGE_SIG, 8, frozenset())
    with pytest.raises(BudgetError):
        realized_types(big, (), 30, 30)


def test_witness_count_matches_enumeration():
    # the budget guard counts witness tuples without enumerating them
    for pool, length, fresh in itertools.product(range(6), range(6), range(4)):
        assert _count_witnesses(pool, length, fresh) == \
            sum(1 for _ in _witness_tuples(range(pool), length, fresh))


# -- brute-force isomorphism

def test_brute_isomorphic_examples():
    l2, l3 = chain(2), chain(3)
    assert brute_isomorphic(l2, chain(2), (), ())
    assert not brute_isomorphic(l2, l2, (0,), (1,))
    assert not brute_isomorphic(l2, l3, (), ())
    star = FinStructure(EDGE_SIG, 3, frozenset({("edge", (1, 0)),
                                                ("edge", (1, 2))}))
    assert not brute_isomorphic(PATH2, star, (), ())
    with pytest.raises(SchemaError):
        brute_isomorphic(l2, l2, (0,), ())


def test_brute_isomorphic_implies_thsigma_both_ways():
    from rankforge.verify import canonical_edge_representatives
    rng = random.Random(3)
    for rep in canonical_edge_representatives(3):
        perm = tuple(rng.sample(range(rep.size), rep.size))
        image = permute_structure(rep, perm)
        abar = tuple(rng.randrange(rep.size) for _ in range(2))
        bbar = tuple(perm[e] for e in abar)
        assert brute_isomorphic(rep, image, abar, bbar)
        assert thsigma_contains(image, bbar, rep, abar)
        assert thsigma_contains(rep, abar, image, bbar)


def test_canonical_form_separates_iso_classes():
    structs = [FinStructure(EDGE_SIG, 3, frozenset(s)) for s in [
        {("edge", (0, 1))}, {("edge", (1, 2))}, {("edge", (0, 1)), ("edge", (1, 2))}]]
    assert canonical_form(structs[0]) == canonical_form(structs[1])
    assert canonical_form(structs[0]) != canonical_form(structs[2])
