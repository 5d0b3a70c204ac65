"""Standard small lattices and the default test corpus."""

from __future__ import annotations

import itertools

from .core import (
    FiniteLattice,
    _check_carrier,
    build_poset,
    direct_product,
    horizontal_sum,
    lattice_from_poset,
    random_moore_lattice,
)
from .errors import NotALattice


def chain(n):
    """Total order 0 < 1 < ... < n-1, for n >= 1: a lattice by theorem,
    built from its covers with its bounds and not proved one."""
    if n < 1:
        raise NotALattice("empty carrier has no bounds")
    _check_carrier("chain", n)
    poset = build_poset(n, [(i, i + 1) for i in range(n - 1)], labels=[str(i) for i in range(n)])
    return FiniteLattice(poset, 0, n - 1)


def boolean_lattice(n_atoms):
    """Powerset of n_atoms points ordered by inclusion, with the element
    order, labels and bounds of lattice_of_sets: a lattice by theorem,
    built from its covers (a set below the set with one point more) and not
    proved one."""
    _check_carrier("Boolean", 1 << n_atoms)
    subsets = [c for k in range(n_atoms + 1) for c in itertools.combinations(range(n_atoms), k)]
    index = {sum(1 << p for p in c): i for i, c in enumerate(subsets)}
    pairs = [
        (i, index[mask | 1 << p])
        for mask, i in index.items() for p in range(n_atoms) if not mask >> p & 1
    ]
    labels = ["{%s}" % ",".join(map(str, c)) for c in subsets]
    return FiniteLattice(build_poset(len(subsets), pairs, labels), 0, len(subsets) - 1)


def diamond():
    """Four elements 0 < a,b < 1 with a, b incomparable."""
    return lattice_from_poset(
        build_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)], labels=["0", "a", "b", "1"])
    )


def n5():
    """Pentagon: 0 < a < b < 1 and 0 < c < 1 with c incomparable to a, b."""
    return lattice_from_poset(
        build_poset(
            5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], labels=["0", "a", "b", "c", "1"]
        )
    )


def m3():
    """Three incomparable atoms under a shared top."""
    return lattice_from_poset(
        build_poset(
            5,
            [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
            labels=["0", "a", "b", "c", "1"],
        )
    )


def o6():
    """Six-element ortholattice: four incomparable middles a, b, a', b'.

    The canonical orthocomplemented non-Boolean example: atomistic, with
    a <-> a' and b <-> b' as the complement pairs and trivial center.
    """
    lattice = lattice_from_poset(
        build_poset(
            6,
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)],
            labels=["0", "a", "b", "a'", "b'", "1"],
        )
    )
    ortho = (5, 3, 4, 1, 2, 0)
    return lattice, ortho


def boolean_ortho(lattice):
    """Set-complement orthocomplementation for a lattice built from subsets.

    Works for any lattice whose carrier is closed under set complement in
    its own top element; used for the Boolean corpus members.  The result is
    kept on the lattice, so each lattice computes it once.
    """
    memo = lattice.__dict__
    if "boolean_ortho" not in memo:
        atom_sets = lattice.atom_sets
        index = {s: i for i, s in enumerate(atom_sets)}
        universe = atom_sets[lattice.top]
        memo["boolean_ortho"] = tuple(index[universe - s] for s in atom_sets)
    return memo["boolean_ortho"]


# The shipped corpus: name -> constructor, in report order.
_CONSTRUCTORS = {
    "C1": lambda: chain(1),
    "C2": lambda: chain(2),
    "C3": lambda: chain(3),
    "C4": lambda: chain(4),
    "C5": lambda: chain(5),
    "D4": diamond,
    "B4": lambda: boolean_lattice(2),
    "B8": lambda: boolean_lattice(3),
    "B16": lambda: boolean_lattice(4),
    "N5": n5,
    "M3": m3,
    "O6": lambda: o6()[0],
    "C2xC3": lambda: direct_product([chain(2), chain(3)]).lattice,
    "C3xC3": lambda: direct_product([chain(3), chain(3)]).lattice,
    "C3+C3": lambda: horizontal_sum([chain(3), chain(3)]).lattice,
    "C4+C3": lambda: horizontal_sum([chain(4), chain(3)]).lattice,
}
_CONSTRUCTORS.update(
    ("R%02d" % k, lambda k=k: random_moore_lattice(seed=1000 + k, n_points=5, n_generators=3))
    for k in range(20)
)


def named_lattice(name):
    """Build the one corpus lattice called name; KeyError if there is none."""
    return _CONSTRUCTORS[name]()


def named_lattices(max_size=None):
    """The shipped corpus, name -> lattice."""
    out = {name: build() for name, build in _CONSTRUCTORS.items()}
    if max_size is not None:
        out = {name: lat for name, lat in out.items() if lat.size <= max_size}
    return out


def closure_spaces():
    """Small simple closure spaces, name -> ClosureSpace."""
    from .closure import ClosureSpace, discrete_space

    def space(n, extra):
        family = {frozenset(), frozenset(range(n))}
        family.update(frozenset([p]) for p in range(n))
        family.update(frozenset(s) for s in extra)
        return ClosureSpace(n, frozenset(family))

    return {
        "S1": discrete_space(1),
        "S2": discrete_space(2),
        "S3": discrete_space(3),
        "S3line": space(3, [{0, 1}]),
        "S3pair": space(3, [{0, 1}, {1, 2}]),
    }


def orthospaces():
    """Small separating orthospaces, name -> OrthoSpace."""
    from .ortho import OrthoSpace, validate_orthospace

    def space(n, pairs):
        rows = [0] * n
        for p, q in pairs:
            rows[p] |= 1 << q
            rows[q] |= 1 << p
        return validate_orthospace(OrthoSpace(n, tuple(rows)))

    return {
        "P1": space(1, []),
        "P2": space(2, [(0, 1)]),
        "P3": space(3, [(0, 1), (0, 2), (1, 2)]),
        "P4pairs": space(4, [(0, 1), (2, 3)]),
        "P4": space(4, [(p, q) for p in range(4) for q in range(p + 1, 4)]),
    }


def ortho_lattices():
    """Corpus members carrying an orthocomplementation, name -> (lattice, ortho)."""
    from .ortho import validate_ortho

    b4 = boolean_lattice(2)
    b8 = boolean_lattice(3)
    b16 = boolean_lattice(4)
    c2 = chain(2)
    members = {
        "C2": (c2, (1, 0)),
        "B4": (b4, boolean_ortho(b4)),
        "B8": (b8, boolean_ortho(b8)),
        "B16": (b16, boolean_ortho(b16)),
        "O6": o6(),
    }
    return {name: validate_ortho(lat, ortho) for name, (lat, ortho) in members.items()}
