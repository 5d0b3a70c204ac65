"""Closure operators as monads on a lattice, closure spaces with partial
continuous maps, the closed-set/atomistic-lattice equivalence, and the
power and Boolean functors."""

from __future__ import annotations

from functools import lru_cache

from . import corpus
from .core import Frozen, LatticeMap, cached_property, compared_by, lattice_of_sets, retract
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
        self.__dict__.update(lattice=lattice, table=table)

    __eq__, __hash__ = compared_by("lattice", "table")

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
    return ClosureOperator(f.dom, tuple(map(g.values.__getitem__, f.values)))


def _mask(points, size):
    """The mask of points, point p as bit p; ShapeMismatch outside range(size)."""
    out = 0
    for p in points:
        if not 0 <= p < size:
            raise ShapeMismatch("point %r outside a space of %d points" % (p, size))
        out |= 1 << p
    return out


def _points(mask):
    return frozenset(p for p in range(mask.bit_length()) if mask >> p & 1)


class ClosureSpace(Frozen):
    """Point set with a Moore family of closed subsets (any iterable of
    point sets), stored as masks (point p is bit p) sorted by size, then by
    sorted points, as lattice_of_sets sorts: masks[i] is element i of
    space_to_lattice(space), and the first closed mask above a mask is its
    closure.  position maps each closed mask to its index; closed, a
    frozenset of frozensets for readers that print or compare sets, is
    built on first read."""

    def __init__(self, size, closed, labels=()):
        # Reverse order of (-size, bits from point 0 up): within a size the
        # set holding the least point of the two's difference comes first.
        masks = sorted({_mask(s, size) for s in closed},
                       key=lambda m: (-m.bit_count(), bin(m)[:1:-1]), reverse=True)
        position = {m: i for i, m in enumerate(masks)}
        labels = labels or tuple("p%d" % i for i in range(size))
        self.__dict__.update(size=size, masks=tuple(masks), labels=labels, position=position)
        if len(labels) != size:
            raise ShapeMismatch("label count does not match point count")
        if (1 << size) - 1 not in position:
            raise NotClosure("the whole point set must be closed")
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                if a & b not in position:
                    raise NotClosure("family not intersection closed",
                                     witness=(_points(a), _points(b)))

    __eq__, __hash__ = compared_by("size", "masks", "labels")

    @cached_property
    def closed(self):
        return frozenset(map(_points, self.masks))

    def points(self):
        return range(self.size)

    def closure_mask(self, mask):
        return next(c for c in self.masks if mask & c == mask)

    def closure_of(self, subset):
        return _points(self.closure_mask(_mask(subset, self.size)))

    def is_simple(self):
        return 0 in self.position and all(1 << p in self.position for p in self.points())


@lru_cache(maxsize=None)
def discrete_space(n):
    return ClosureSpace(n, map(_points, range(1 << n)))


class PartialContinuousMap(Frozen):
    """Partially defined point map whose preimages of closed sets close up
    with the kernel.  kernel is the frozenset of points without an image,
    kernel_mask its mask; mapping holds the (defined point, image) pairs in
    point order, and table maps each defined point to its image.
    ShapeMismatch refuses a kernel point or an image outside its space."""

    def __init__(self, source, target, kernel, mapping):
        self.__dict__.update(source=source, target=target, kernel=kernel, mapping=mapping,
                             kernel_mask=_mask(kernel, source.size), table=dict(mapping))
        if self.table.keys() != set(source.points()) - set(kernel):
            raise ShapeMismatch("map must be defined exactly off its kernel")
        _mask(self.table.values(), target.size)

    def __call__(self, p):
        return self.table[p]

    def preimage_mask(self, mask):
        """The defined points whose image is in mask, as a mask."""
        out = 0
        for p, q in self.mapping:
            if mask >> q & 1:
                out |= 1 << p
        return out

    def image_mask(self, mask):
        """The images of the defined points in mask, as a mask."""
        out = 0
        for p, q in self.mapping:
            if mask >> p & 1:
                out |= 1 << q
        return out

    def preimage(self, subset):
        return _points(self.preimage_mask(_mask(subset, self.target.size)))


def partial_map(source, target, kernel, mapping):
    return PartialContinuousMap(source, target, frozenset(kernel), tuple(sorted(mapping.items())))


def check_continuity(alpha):
    """The kernel with the preimage of each closed set must be closed: (True,
    None), or (False, the first failing closed set of the target's masks)."""
    closed, kernel = alpha.source.position, alpha.kernel_mask
    for t in alpha.target.masks:
        if kernel | alpha.preimage_mask(t) not in closed:
            return False, _points(t)
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
    kernel = first.kernel_mask | first.preimage_mask(second.kernel_mask)
    mapping = {p: second.table[q] for p, q in first.mapping if not kernel >> p & 1}
    return require_continuous(partial_map(first.source, second.target, _points(kernel), mapping))


def space_to_lattice(space):
    """Closed sets ordered by inclusion, and the sets in element order; the
    atoms are the singletons.  Kept on the space; NotSimple is not."""
    memo = space.__dict__
    if "closed_lattice" not in memo:
        if not space.is_simple():
            raise NotSimple("space must have empty set and singletons closed")
        lattice, sets = lattice_of_sets(space.closed)
        memo["closed_lattice"] = lattice, tuple(sets)
    return memo["closed_lattice"]


def map_to_join_map(alpha):
    """Forward functor on morphisms: A |-> closure of the direct image off
    the kernel; its right adjoint B |-> the kernel with the preimage of B,
    which continuity makes closed.  Closed set i is lattice element i."""
    require_continuous(alpha)
    source, target, kernel = alpha.source, alpha.target, alpha.kernel_mask
    forward = [target.position[target.closure_mask(alpha.image_mask(s))] for s in source.masks]
    backward = [source.position[kernel | alpha.preimage_mask(t)] for t in target.masks]
    lat1, lat2 = space_to_lattice(source)[0], space_to_lattice(target)[0]
    return LatticeMap(lat1, lat2, tuple(forward)), LatticeMap(lat2, lat1, tuple(backward))


def lattice_to_space(lattice):
    """Atoms with closure A |-> atoms below the join of A.  Kept on the
    lattice as atom_space; NotAtomistic is not."""
    memo = lattice.__dict__
    if "atom_space" not in memo:
        if not lattice.is_atomistic():
            raise NotAtomistic("lattice must be atomistic")
        ats = tuple(lattice.atoms())
        labels = tuple(lattice.labels[p] for p in ats)
        memo["atom_space"] = ClosureSpace(len(ats), lattice.atom_sets, labels), ats
    return memo["atom_space"]


def join_map_to_partial(f):
    """Backward functor on morphisms: kernel where f kills an atom."""
    space1, ats1 = lattice_to_space(f.dom)
    space2, ats2 = lattice_to_space(f.cod)
    position2 = {p: i for i, p in enumerate(ats2)}
    allowed = set(ats2) | {f.cod.bottom}
    for p in ats1:
        if f(p) not in allowed:
            raise NotAtomicMap("map sends an atom outside atoms and bottom", witness=p)
    kernel = frozenset(i for i, p in enumerate(ats1) if f(p) == f.cod.bottom)
    mapping = {i: position2[f(p)] for i, p in enumerate(ats1) if i not in kernel}
    return require_continuous(partial_map(space1, space2, kernel, mapping))


def space_roundtrip(space):
    """p |-> {p} must be an isomorphism onto the closed-set lattice's space:
    None if it is, else what fails."""
    lattice, _ = space_to_lattice(space)
    back, ats = lattice_to_space(lattice)
    # Atom i of the closed-set lattice is a singleton; match points up.
    point_of = [space.masks[a].bit_length() - 1 for a in ats]
    if sorted(point_of) != list(space.points()):
        return "atom/point mismatch"
    pulled = {sum(1 << p for i, p in enumerate(point_of) if m >> i & 1) for m in back.masks}
    differ = pulled ^ set(space.masks)
    if differ:
        return "closed families differ at %s" % sorted(_points(min(differ)))
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
    # An order isomorphism carries each up-set row onto its image's row.
    closed_up = closed_lattice.poset.up
    for a, row in enumerate(lattice.poset.up):
        if sum(1 << p for b, p in enumerate(psi) if row >> b & 1) != closed_up[psi[a]]:
            return "order not preserved", None
    return None, LatticeMap(lattice, closed_lattice, tuple(psi))


def power_functors(mapping, n_source, n_target):
    """Direct image and preimage on full powerset lattices, as an adjoint
    pair: the functor images of the total map between discrete spaces."""
    spaces = discrete_space(n_source), discrete_space(n_target)
    return map_to_join_map(partial_map(*spaces, (), dict(enumerate(mapping))))


def is_boolean(lattice):
    """Finite Boolean means atomistic with 2^atoms elements and complements.
    Kept on the lattice."""
    memo = lattice.__dict__
    if "is_boolean" not in memo:
        memo["is_boolean"] = lattice.is_atomistic() and lattice.size == 1 << len(lattice.atoms())
    return memo["is_boolean"]


class BooleanDualityReport(Frozen):
    def __init__(self, atoms_to_atoms, ortho_preserved_by_adjoint, agree):
        self.__dict__.update(atoms_to_atoms=atoms_to_atoms,
                             ortho_preserved_by_adjoint=ortho_preserved_by_adjoint, agree=agree)


def atom_set_maps(lattice):
    """mu: a |-> its atoms, and rho: a set of atoms |-> its join."""
    if not is_boolean(lattice):
        raise NotBoolean("lattice is not a finite Boolean algebra")
    ats = lattice.atoms()
    powerset, sets = space_to_lattice(discrete_space(len(ats)))
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
    ortho2 = corpus.boolean_ortho(f.cod)
    ortho1 = corpus.boolean_ortho(f.dom)
    fv, gv, cod_sets = f.values, g.values, f.cod.atom_sets
    # An atom is an element with one atom below it.
    atoms_to_atoms = all(
        len(cod_sets[fv[a]]) == 1 for a, s in enumerate(f.dom.atom_sets) if len(s) == 1
    )
    ortho_preserved = all(gv[ortho2[b]] == ortho1[gv[b]] for b in f.cod.elements())
    return BooleanDualityReport(
        atoms_to_atoms=atoms_to_atoms,
        ortho_preserved_by_adjoint=ortho_preserved,
        agree=atoms_to_atoms == ortho_preserved,
    )
