"""Orthocomplemented lattices, conjugation and dagger calculus, orthospaces,
and the biorthogonal closure."""

from __future__ import annotations

import itertools

from . import core
from .core import (
    Frozen,
    LatticeMap,
    identity_map,
    intersection_closure,
    lattice_of_sets,
)
from .errors import (
    NotAtomistic,
    NotCOLattMorphism,
    NotSeparating,
    OrthoAxiomFailed,
    ShapeMismatch,
    SizeLimit,
)
from .maps import (
    compose,
    left_adjoint,
    preservation_profile,
    right_adjoint,
)


class OrthoLattice(Frozen):
    """A lattice with its orthocomplement ortho, a |-> a'."""

    def __init__(self, lattice, ortho):
        self.__dict__.update(lattice=lattice, ortho=ortho)

    @property
    def size(self):
        return self.lattice.size

    def comp(self, a):
        return self.ortho[a]


def validate_ortho(lattice, ortho):
    """Check order reversal, involution, and a /\\ a' = 0.

    a \\/ a' = 1 follows from these by De Morgan through the involution.
    """
    ortho = tuple(ortho)
    if len(ortho) != lattice.size:
        raise ShapeMismatch("ortho table does not cover the carrier")
    for a in lattice.elements():
        for b in lattice.elements():
            if lattice.leq(a, b) and not lattice.leq(ortho[b], ortho[a]):
                raise OrthoAxiomFailed("orthocomplement not order reversing", witness=(a, b))
    for a in lattice.elements():
        if ortho[ortho[a]] != a:
            raise OrthoAxiomFailed("orthocomplement not involutive", witness=a)
        if lattice.meet2(a, ortho[a]) != lattice.bottom:
            raise OrthoAxiomFailed("a /\\ a' is not bottom", witness=a)
    return OrthoLattice(lattice, ortho)


def conjugate(alpha, dom, cod):
    """a |-> alpha(a')' for an isotone map between ortholattices."""
    if alpha.dom != dom.lattice or alpha.cod != cod.lattice:
        raise ShapeMismatch("map does not match the given ortholattices")
    # dom.ortho lists a' for every a in index order.
    values = map(cod.ortho.__getitem__, map(alpha.values.__getitem__, dom.ortho))
    return LatticeMap._unchecked(alpha.dom, alpha.cod, tuple(values))


def dagger(f, dom, cod):
    """Orthoadjoint of a join-preserving map: the conjugate of its right adjoint."""
    if f.dom != dom.lattice or f.cod != cod.lattice:
        raise ShapeMismatch("map does not match the given ortholattices")
    adj = right_adjoint(f)  # raises NotJoinPreserving with witness
    return conjugate(adj, cod, dom)


def is_isometry(u, dom, cod):
    """u dagger-composed with u is the identity."""
    return compose(dagger(u, dom, cod), u) == identity_map(u.dom)


def colatt_check(h, dom, cod):
    """For a join/meet/ortho-preserving map: adjoint-complement compatibility,
    the dagger collapse, and partial isometry.  None if all three hold, else
    the failures joined by "; "."""
    profile = preservation_profile(h)
    if not (profile.joins and profile.meets):
        raise NotCOLattMorphism("map must preserve joins and meets")
    for a in h.dom.elements():
        if h(dom.comp(a)) != cod.comp(h(a)):
            raise NotCOLattMorphism("map does not preserve orthocomplement", witness=a)
    upper = right_adjoint(h)
    lower = left_adjoint(h)
    failures = []
    for b in h.cod.elements():
        if lower(cod.comp(b)) != dom.comp(upper(b)):
            failures.append("left adjoint of complement != complement of right adjoint at %d" % b)
    if dagger(h, dom, cod) != lower:
        failures.append("dagger differs from left adjoint")
    if compose(h, compose(dagger(h, dom, cod), h)) != h:
        failures.append("h o h-dagger o h differs from h")
    return "; ".join(failures) or None


class OrthoSpace(Frozen):
    """Point set with a symmetric, antireflexive, separating orthogonality,
    kept as bitmask rows: bit q of orth[p] set iff p _|_ q."""

    def __init__(self, size, orth, labels=()):
        labels = labels or tuple("p%d" % i for i in range(size))
        self.__dict__.update(size=size, orth=orth, labels=labels)

    def perp(self, p, q):
        return bool(self.orth[p] >> q & 1)

    def points(self):
        return range(self.size)

    def orthogonal_set(self, subset):
        out = []
        for q in self.points():
            if all(self.perp(p, q) for p in subset):
                out.append(q)
        return frozenset(out)

    def biclosure(self, subset):
        return self.orthogonal_set(self.orthogonal_set(subset))


def validate_orthospace(space, require_separating=True):
    for p in space.points():
        if space.perp(p, p):
            raise OrthoAxiomFailed("orthogonality not antireflexive", witness=p)
        for q in space.points():
            if space.perp(p, q) != space.perp(q, p):
                raise OrthoAxiomFailed("orthogonality not symmetric", witness=(p, q))
    if require_separating:
        for p in space.points():
            for q in space.points():
                if p != q and not any(
                    space.perp(p, r) and not space.perp(q, r) for r in space.points()
                ):
                    raise NotSeparating("points %d and %d not separated" % (p, q), witness=(p, q))
    return space


def orthospace_from_lattice(ol):
    """Atoms with p _|_ q iff p <= q'."""
    lattice = ol.lattice
    if not lattice.is_atomistic():
        raise NotAtomistic("carrier is not atomistic")
    ats = lattice.atoms()
    # Bit j of row i is set iff atom i lies below the complement of atom j.
    rows = [0] * len(ats)
    for j, q in enumerate(ats):
        for i in lattice.atom_sets[ol.comp(q)]:
            rows[i] |= 1 << j
    space = OrthoSpace(len(ats), tuple(rows), tuple(lattice.labels[p] for p in ats))
    return validate_orthospace(space), ats


def biortho_lattice(space):
    """Ortholattice of biorthogonal subsets ordered by inclusion."""
    if space.size > core.MAX_POWER_BASE:
        raise SizeLimit("%d points exceed powerset bound %d" % (space.size, core.MAX_POWER_BASE))
    for p in space.points():
        if space.biclosure(frozenset([p])) != frozenset([p]):
            raise NotSeparating("singleton %d not biorthogonal" % p, witness=p)
    # The biorthogonal sets are the sets T-perp, the intersections of the
    # point-perps over every T: close the full set under each point-perp.
    perps = [space.orthogonal_set([p]) for p in space.points()]
    lattice, sets = lattice_of_sets(intersection_closure(space.points(), perps))
    index = {s: i for i, s in enumerate(sets)}
    ortho = tuple(index[space.orthogonal_set(s)] for s in sets)
    return validate_ortho(lattice, ortho), sets


def atom_isomorphism(ol, rebuilt, sets):
    """The map a |-> {atoms p <= a} from ol onto the biorthogonal lattice
    that biortho_lattice built, with its sets, from ol's orthospace.

    Returns the map as a tuple when it is an order isomorphism that carries
    a' to the orthocomplement of the image of a, and None otherwise.  No
    search: O(n^2) table lookups, so no size cap.
    """
    lat, new = ol.lattice, rebuilt.lattice
    if new.size != lat.size:
        return None
    index = {s: i for i, s in enumerate(sets)}
    # Point j of the orthospace is atom j of lat, so an atom set is a point set.
    iso = tuple(index.get(s) for s in lat.atom_sets)
    if None in iso or len(set(iso)) != lat.size:
        return None
    for a in lat.elements():
        if iso[ol.comp(a)] != rebuilt.comp(iso[a]):
            return None
        if any(lat.leq(a, b) != new.leq(iso[a], iso[b]) for b in lat.elements()):
            return None
    return iso


def lattice_isomorphic_with_ortho(left, right):
    """Search for an order isomorphism preserving the orthocomplement."""
    if left.size != right.size:
        return None
    la, ra = left.lattice, right.lattice
    for perm in itertools.permutations(range(right.size)):
        if all(
            la.leq(a, b) == ra.leq(perm[a], perm[b])
            for a in la.elements()
            for b in la.elements()
        ) and all(perm[left.comp(a)] == right.comp(perm[a]) for a in la.elements()):
            return perm
    return None
