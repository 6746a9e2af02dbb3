"""Seeded input files for the benchmark workloads (stdlib only).

Every structure here is a finite structure over one binary relation
``edge``.  A structure on ``n`` elements is coded as a bitmask over the atoms
``(i, j)`` in row-major order, so classes and relabelings are plain integer
work and need nothing from the program under test.
"""

from __future__ import annotations

import itertools
import random


def _atoms(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n)]


def edge_classes(n: int) -> list[list[int]]:
    """Isomorphism classes of one binary relation on ``n`` elements.

    Each class is the sorted list of its codes; classes are ordered by their
    least code, so the order is the same on every run.
    """
    atoms = _atoms(n)
    index = {a: k for k, a in enumerate(atoms)}
    images = [[index[(p[i], p[j])] for i, j in atoms]
              for p in itertools.permutations(range(n))]
    seen: set[int] = set()
    classes = []
    for code in range(1 << len(atoms)):
        if code in seen:
            continue
        orbit = set()
        for image in images:
            relabeled = 0
            for k, target in enumerate(image):
                if code >> k & 1:
                    relabeled |= 1 << target
            orbit.add(relabeled)
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def _structures_file(blocks: list[tuple[str, int, int]]) -> str:
    """Text of a structure file from (id, size, code) triples."""
    lines = ["signature", "rel edge 2", "end"]
    for ident, size, code in blocks:
        lines.append(f"structure {ident} size {size}")
        lines.extend(f"edge {i} {j}" for k, (i, j) in enumerate(_atoms(size))
                     if code >> k & 1)
        lines.append("end")
    return "\n".join(lines) + "\n"


# relabel-hjorth: 44 classes on 3 elements whose orbits hold 244 structures
# (38 of orbit size 6, 4 of size 3, both of size 2).  The class sample is
# fixed, so every seed gives the same 244 points after orbit closure; the
# seed picks which 60 distinct structures stand for them and their order.
RELABEL_N = 3
RELABEL_STRUCTURES = 60
RELABEL_PROFILE = {6: 38, 3: 4, 2: 2}
RELABEL_POINTS = sum(size * count for size, count in RELABEL_PROFILE.items())


def relabel_classes() -> list[list[int]]:
    """The fixed class sample of the relabel-hjorth workload."""
    rng = random.Random("relabel-hjorth:classes")
    by_size: dict[int, list[list[int]]] = {}
    for orbit in edge_classes(RELABEL_N):
        by_size.setdefault(len(orbit), []).append(orbit)
    chosen = []
    for size in sorted(RELABEL_PROFILE):
        chosen.extend(rng.sample(by_size[size], RELABEL_PROFILE[size]))
    return sorted(chosen)


def relabel_hjorth_input(seed: int) -> tuple[str, dict[str, int]]:
    """Structure file of 60 distinct structures on 3 elements, and the class
    index (into :func:`relabel_classes`) of each structure id."""
    rng = random.Random(f"relabel-hjorth:{seed}")
    classes = relabel_classes()
    picks = [(c, rng.choice(orbit)) for c, orbit in enumerate(classes)]
    taken = {code for _, code in picks}
    rest = [(c, code) for c, orbit in enumerate(classes) for code in orbit
            if code not in taken]
    picks += rng.sample(rest, RELABEL_STRUCTURES - len(picks))
    rng.shuffle(picks)
    ids = {f"S{k}": c for k, (c, _) in enumerate(picks)}
    text = _structures_file([(f"S{k}", RELABEL_N, code)
                             for k, (_, code) in enumerate(picks)])
    return text, ids


# scott-rank: every class of one binary relation on 1..4 elements (3,160).
SCOTT_SIZES = (1, 2, 3, 4)


def scott_classes() -> list[tuple[int, list[int]]]:
    """(size, orbit) for every class of the scott-rank workload, in order."""
    return [(n, orbit) for n in SCOTT_SIZES for orbit in edge_classes(n)]


def scott_rank_input(seed: int) -> tuple[str, dict[str, int]]:
    """Structure file holding each class once, under a seeded relabeling and
    in seeded order, and the class index of each structure id."""
    rng = random.Random(f"scott-rank:{seed}")
    picks = [(c, n, rng.choice(orbit))
             for c, (n, orbit) in enumerate(scott_classes())]
    rng.shuffle(picks)
    ids = {f"C{k}": c for k, (c, _, _) in enumerate(picks)}
    text = _structures_file([(f"C{k}", n, code)
                             for k, (_, n, code) in enumerate(picks)])
    return text, ids
