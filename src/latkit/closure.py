"""Closure operators as monads on a lattice, closure spaces with partial
continuous maps, the closed-set/atomistic-lattice equivalence, and the
power and Boolean functors."""

from __future__ import annotations

import itertools

from .core import Frozen, LatticeMap, lattice_of_sets, retract
from .errors import (
    NotAdjoint,
    NotAtomicMap,
    NotAtomistic,
    NotBoolean,
    NotClosure,
    NotContinuous,
    NotSimple,
    ShapeMismatch,
)
from .maps import check_adjunction


class ClosureOperator(Frozen):
    def __init__(self, lattice, table):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "table", table)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lattice, self.table) == (other.lattice, other.table)
        return NotImplemented

    def __hash__(self):
        return hash((self.lattice, self.table))

    def __call__(self, a):
        return self.table[a]


def validate_closure(lattice, table):
    """Check the closure axioms.  The covers generate the order, so the
    table is isotone iff it is isotone on covers: NotClosure names a cover
    (c, b), c below b, with T(c) not below T(b), else the first element that
    is not inflationary or not idempotent."""
    table = tuple(table)
    if len(table) != lattice.size:
        raise ShapeMismatch("closure table does not cover the carrier")
    up = lattice.poset.up
    for b, lower in lattice.lower_covers:
        for c in lower:
            if not up[table[c]] >> table[b] & 1:
                raise NotClosure("not isotone", witness=(c, b))
    for a, t in enumerate(table):
        if not up[a] >> t & 1:
            raise NotClosure("not inflationary", witness=a)
        if table[t] != t:
            raise NotClosure("not idempotent", witness=a)
    return ClosureOperator(lattice, table)


def fixed_points(operator):
    """The closed elements ordered as in the ambient lattice: the Retract of
    the closure, whose projection sends a to T(a).

    Meets are inherited; joins are the closure of the ambient join (the
    closure-monad law checks both).  The lattice is the ambient lattice's
    restriction to the fixed set, shared by every operator with that set.
    The table is trusted to be a closure, so the restriction is not proved a
    lattice (see core.retract).
    """
    return retract(operator.lattice, operator.table)


def monad_from_adjunction(f, g):
    """g o f is a closure whose fixed points are exactly the image of g.

    The closure axioms follow from the adjunction, so only the adjunction is
    checked; the closure-monad law checks the axioms.
    """
    if not check_adjunction(f, g):
        raise NotAdjoint("maps are not adjoint")
    gv = g.values
    return ClosureOperator(f.dom, tuple(gv[y] for y in f.values))


class ClosureSpace(Frozen):
    """Point set with an explicit Moore family of closed subsets."""

    def __init__(self, size, closed, labels=()):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "closed", closed)  # a frozenset of frozensets
        object.__setattr__(self, "labels", labels or tuple("p%d" % i for i in range(size)))
        if frozenset(range(size)) not in closed:
            raise NotClosure("the whole point set must be closed")
        for a in closed:
            for b in closed:
                if a & b not in closed:
                    raise NotClosure("family not intersection closed", witness=(a, b))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.size, self.closed, self.labels) == (
                other.size, other.closed, other.labels
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.size, self.closed, self.labels))

    def points(self):
        return range(self.size)

    def closure_of(self, subset):
        subset = frozenset(subset)
        out = frozenset(range(self.size))
        for c in self.closed:
            if subset <= c:
                out &= c
        return out

    def is_simple(self):
        if frozenset() not in self.closed:
            return False
        return all(frozenset([p]) in self.closed for p in self.points())


def discrete_space(n):
    family = frozenset(
        frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)
    )
    return ClosureSpace(n, family)


class PartialContinuousMap(Frozen):
    """Partially defined point map whose preimages of closed sets close up
    with the kernel."""

    def __init__(self, source, target, kernel, mapping):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "kernel", kernel)  # a frozenset of points
        object.__setattr__(self, "mapping", mapping)  # (defined point, image point) pairs
        if {p for p, _ in mapping} != set(source.points()) - set(kernel):
            raise ShapeMismatch("map must be defined exactly off its kernel")

    def __call__(self, p):
        return dict(self.mapping)[p]

    def defined_points(self):
        return [p for p in self.source.points() if p not in self.kernel]

    def preimage(self, subset):
        table = dict(self.mapping)
        return frozenset(p for p in self.defined_points() if table[p] in subset)


def partial_map(source, target, kernel, mapping):
    return PartialContinuousMap(
        source, target, frozenset(kernel), tuple(sorted(mapping.items()))
    )


def check_continuity(alpha):
    """Kernel union preimage of any closed set must be closed."""
    for closed_set in sorted(alpha.target.closed, key=lambda s: (len(s), sorted(s))):
        pulled = alpha.kernel | alpha.preimage(closed_set)
        if pulled not in alpha.source.closed:
            return False, closed_set
    return True, None


def require_continuous(alpha):
    ok, witness = check_continuity(alpha)
    if not ok:
        raise NotContinuous("preimage of a closed set is not closed", witness=witness)
    return alpha


def compose_continuous(second, first):
    """Kernel of the composite is K1 union the first map's preimage of K2."""
    if first.target != second.source:
        raise ShapeMismatch("maps not composable")
    kernel = first.kernel | first.preimage(second.kernel)
    mapping = {
        p: second(first(p)) for p in first.source.points() if p not in kernel
    }
    composite = partial_map(first.source, second.target, kernel, mapping)
    return require_continuous(composite)


def space_to_lattice(space):
    """Closed sets ordered by inclusion; the atoms are the singletons."""
    if not space.is_simple():
        raise NotSimple("space must have empty set and singletons closed")
    return lattice_of_sets(space.closed)


def map_to_join_map(alpha):
    """Forward functor on morphisms: A |-> closure of the direct image off the kernel."""
    require_continuous(alpha)
    lat1, sets1 = space_to_lattice(alpha.source)
    lat2, sets2 = space_to_lattice(alpha.target)
    index2 = {s: i for i, s in enumerate(sets2)}
    table = dict(alpha.mapping)
    values = []
    for s in sets1:
        image = frozenset(table[p] for p in s if p not in alpha.kernel)
        values.append(index2[alpha.target.closure_of(image)])
    forward = LatticeMap(lat1, lat2, tuple(values))
    index1 = {s: i for i, s in enumerate(sets1)}
    back_values = tuple(
        index1[alpha.source.closure_of(alpha.kernel | alpha.preimage(s))] for s in sets2
    )
    return forward, LatticeMap(lat2, lat1, back_values)


def lattice_to_space(lattice):
    """Atoms with closure A |-> atoms below the join of A."""
    if not lattice.is_atomistic():
        raise NotAtomistic("lattice must be atomistic")
    ats = lattice.atoms()
    labels = tuple(lattice.labels[p] for p in ats)
    return ClosureSpace(len(ats), frozenset(lattice.atom_sets), labels), ats


def join_map_to_partial(f):
    """Backward functor on morphisms: kernel where f kills an atom."""
    space1, ats1 = lattice_to_space(f.dom)
    space2, ats2 = lattice_to_space(f.cod)
    position2 = {p: i for i, p in enumerate(ats2)}
    allowed = set(f.cod.atoms()) | {f.cod.bottom}
    for p in ats1:
        if f(p) not in allowed:
            raise NotAtomicMap("map sends an atom outside atoms and bottom", witness=p)
    kernel = frozenset(i for i, p in enumerate(ats1) if f(p) == f.cod.bottom)
    mapping = {i: position2[f(p)] for i, p in enumerate(ats1) if i not in kernel}
    return require_continuous(partial_map(space1, space2, kernel, mapping))


def space_roundtrip(space):
    """p |-> {p} must be an isomorphism onto the closed-set lattice's space:
    None if it is, else what fails."""
    lattice, sets = space_to_lattice(space)
    back, ats = lattice_to_space(lattice)
    # Atom i of the closed-set lattice is the singleton set; match points up.
    atom_of = {}
    for i, a in enumerate(ats):
        (point,) = sets[a]
        atom_of[point] = i
    if sorted(atom_of) != list(space.points()):
        return "atom/point mismatch"
    point_of = {i: p for p, i in atom_of.items()}
    pulled = {frozenset(point_of[i] for i in s) for s in back.closed}
    differ = pulled ^ space.closed
    if differ:
        # Report the first differing subset in bitmask order.
        first = min(differ, key=lambda s: sum(1 << p for p in s))
        return "closed families differ at %s" % sorted(first)
    return None


def lattice_roundtrip(lattice):
    """a |-> atoms below a must be an order isomorphism onto closed sets:
    (None, that isomorphism) if it is, else (what fails, None)."""
    space, _ = lattice_to_space(lattice)
    if not space.is_simple():
        return "space of atoms is not simple", None
    closed_lattice, sets = space_to_lattice(space)
    index = {s: i for i, s in enumerate(sets)}
    psi = []
    for a, image in enumerate(lattice.atom_sets):
        if image not in index:
            return "image of %s not closed" % lattice.labels[a], None
        psi.append(index[image])
    if len(set(psi)) != lattice.size or closed_lattice.size != lattice.size:
        return "not bijective", None
    for a in lattice.elements():
        for b in lattice.elements():
            if lattice.leq(a, b) != closed_lattice.leq(psi[a], psi[b]):
                return "order not preserved", None
    return None, LatticeMap(lattice, closed_lattice, tuple(psi))


def power_functors(mapping, n_source, n_target):
    """Direct image and preimage on full powerset lattices, as an adjoint pair."""
    lat1, sets1 = lattice_of_sets(discrete_space(n_source).closed)
    lat2, sets2 = lattice_of_sets(discrete_space(n_target).closed)
    index1 = {s: i for i, s in enumerate(sets1)}
    index2 = {s: i for i, s in enumerate(sets2)}
    direct = LatticeMap(
        lat1, lat2, tuple(index2[frozenset(mapping[p] for p in s)] for s in sets1)
    )
    inverse = LatticeMap(
        lat2,
        lat1,
        tuple(index1[frozenset(p for p in range(n_source) if mapping[p] in s)] for s in sets2),
    )
    return direct, inverse


def is_boolean(lattice):
    """Finite Boolean means atomistic with 2^atoms elements and complements."""
    if not lattice.is_atomistic():
        return False
    return lattice.size == 1 << len(lattice.atoms())


class BooleanDualityReport(Frozen):
    def __init__(self, atoms_to_atoms, ortho_preserved_by_adjoint, agree):
        object.__setattr__(self, "atoms_to_atoms", atoms_to_atoms)
        object.__setattr__(self, "ortho_preserved_by_adjoint", ortho_preserved_by_adjoint)
        object.__setattr__(self, "agree", agree)


def atom_set_maps(lattice):
    """mu: a |-> its atoms, and rho: a set of atoms |-> its join."""
    if not is_boolean(lattice):
        raise NotBoolean("lattice is not a finite Boolean algebra")
    ats = lattice.atoms()
    powerset, sets = lattice_of_sets(discrete_space(len(ats)).closed)
    index = {s: i for i, s in enumerate(sets)}
    mu = LatticeMap(lattice, powerset, tuple(index[s] for s in lattice.atom_sets))
    rho = LatticeMap(
        powerset, lattice, tuple(lattice.join([ats[i] for i in s]) for s in sets)
    )
    return mu, rho


def boolean_duality(f, g):
    """For an adjunction between finite Boolean lattices: atoms-to-atoms on the
    left iff the right adjoint commutes with complement."""
    if not (is_boolean(f.dom) and is_boolean(f.cod)):
        raise NotBoolean("both lattices must be finite Boolean algebras")
    if not check_adjunction(f, g):
        raise NotAdjoint("maps are not adjoint")
    from .corpus import boolean_ortho

    ortho2 = boolean_ortho(f.cod)
    ortho1 = boolean_ortho(f.dom)
    atoms_to_atoms = all(f(p) in set(f.cod.atoms()) for p in f.dom.atoms())
    ortho_preserved = all(g(ortho2[b]) == ortho1[g(b)] for b in f.cod.elements())
    return BooleanDualityReport(
        atoms_to_atoms=atoms_to_atoms,
        ortho_preserved_by_adjoint=ortho_preserved,
        agree=atoms_to_atoms == ortho_preserved,
    )
