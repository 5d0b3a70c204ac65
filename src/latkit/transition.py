"""Truncated power construction: union maps on subsets of nonzero elements,
coherence with join maps, reconstruction, Hom-set counting, and the
strictness witnesses separating the four enrichment levels."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import LatticeMap, lattice_of_sets, MAX_POWER_BASE
from .errors import IncoherentInput, NotStronglyIsotone, ShapeMismatch, SizeLimit
from .maps import compose, hom_set, pointwise_join, preservation_profile

ENUMERATION_BOUND = 1 << 17


def nonzero(lattice):
    return [a for a in lattice.elements() if a != lattice.bottom]


@dataclass(frozen=True)
class UnionMap:
    """Union-preserving map on truncated powersets, stored by singleton images."""

    source: "object"  # FiniteLattice
    target: "object"
    singleton_images: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        keys = [a for a, _ in self.singleton_images]
        if keys != nonzero(self.source):
            raise ShapeMismatch("singleton images must cover the nonzero carrier in order")
        allowed = set(nonzero(self.target))
        for _, image in self.singleton_images:
            if not set(image) <= allowed:
                raise ShapeMismatch("image contains zero or out-of-range elements")

    def __call__(self, subset):
        table = dict(self.singleton_images)
        out = set()
        for a in subset:
            out |= table[a]
        return frozenset(out)

    def table(self):
        return dict(self.singleton_images)


def union_map(source, target, images):
    return UnionMap(
        source, target, tuple((a, frozenset(images[a])) for a in nonzero(source))
    )


def all_subsets(lattice, bound=ENUMERATION_BOUND):
    elems = nonzero(lattice)
    if 1 << len(elems) > bound:
        raise SizeLimit("2^%d subsets exceed bound" % len(elems))
    out = []
    for mask in range(1 << len(elems)):
        out.append(frozenset(e for i, e in enumerate(elems) if mask >> i & 1))
    return out


@dataclass(frozen=True)
class Resolution:
    power_lattice: "object"
    sets: tuple[frozenset[int], ...]
    collapse: LatticeMap  # A |-> join of A
    expand: LatticeMap  # a |-> (0, a]


def resolution(lattice, max_base=MAX_POWER_BASE):
    """Materialize the truncated powerset with the join/interval adjunction."""
    if lattice.size > max_base:
        raise SizeLimit("lattice size %d exceeds powerset bound %d" % (lattice.size, max_base))
    subsets = all_subsets(lattice)
    power_lattice, sets = lattice_of_sets(subsets, lattice.size)
    index = {s: i for i, s in enumerate(sets)}
    collapse = LatticeMap(power_lattice, lattice, tuple(lattice.join(s) for s in sets))
    expand = LatticeMap(
        lattice,
        power_lattice,
        tuple(
            index[frozenset(x for x in nonzero(lattice) if lattice.leq(x, a))]
            for a in lattice.elements()
        ),
    )
    return Resolution(power_lattice, tuple(sets), collapse, expand)


def coherence_check(f, theta, method="auto", bound=ENUMERATION_BOUND):
    """f applied to the join of A must equal the join of theta(A), for all A.

    The fast path (f join preserving and agreeing with theta on singletons)
    is equivalent on finite lattices; the exhaustive path checks every
    subset directly.
    """
    if f.dom != theta.source or f.cod != theta.target:
        raise ShapeMismatch("join map and union map shapes differ")
    if method == "auto":
        method = "exhaustive" if 1 << (f.dom.size - 1) <= 4096 else "fast"
    if method == "fast":
        if not preservation_profile(f).joins:
            return False
        return all(f(a) == f.cod.join(theta(frozenset([a]))) for a in nonzero(f.dom))
    if method == "exhaustive":
        return all(
            f(f.dom.join(subset)) == f.cod.join(theta(subset))
            for subset in all_subsets(f.dom, bound)
        )
    raise ValueError("method must be auto, fast or exhaustive")


def strong_isotonicity_witness(theta, bound=ENUMERATION_BOUND):
    """A pair (A, B) with join A <= join B but join theta(A) not<= join theta(B)."""
    subsets = all_subsets(theta.source, bound)
    src, tgt = theta.source, theta.target
    pairs = [(src.join(s), tgt.join(theta(s)), s) for s in subsets]
    # max of theta-joins dominated by each source value
    reach = {}
    for ja, ta, _ in pairs:
        for v in src.elements():
            if src.leq(ja, v):
                reach[v] = tgt.join2(reach.get(v, tgt.bottom), ta)
    for jb, tb, b in pairs:
        if not tgt.leq(reach.get(jb, tgt.bottom), tb):
            for ja, ta, a in pairs:
                if src.leq(ja, jb) and not tgt.leq(ta, tb):
                    return (a, b)
    return None


def is_strongly_isotone(theta, bound=ENUMERATION_BOUND):
    return strong_isotonicity_witness(theta, bound) is None


def underlying_map(theta, bound=ENUMERATION_BOUND):
    """The unique join map coherent with theta; exists iff strongly isotone."""
    witness = strong_isotonicity_witness(theta, bound)
    if witness is not None:
        raise NotStronglyIsotone("no coherent join map exists", witness=witness)
    src, tgt = theta.source, theta.target
    values = []
    for a in src.elements():
        if a == src.bottom:
            values.append(tgt.bottom)
        else:
            values.append(tgt.join(theta(frozenset([a]))))
    return LatticeMap(src, tgt, tuple(values))


def power_map(f):
    """Singleton images {f(a)} minus zero."""
    images = {}
    for a in nonzero(f.dom):
        v = f(a)
        images[a] = frozenset() if v == f.cod.bottom else frozenset([v])
    return union_map(f.dom, f.cod, images)


def union_of(thetas):
    thetas = list(thetas)
    if not thetas:
        raise ShapeMismatch("union of an empty family of union maps")
    src, tgt = thetas[0].source, thetas[0].target
    for t in thetas:
        if t.source != src or t.target != tgt:
            raise ShapeMismatch("union maps live in different Hom-sets")
    images = {
        a: frozenset().union(*[t.table()[a] for t in thetas]) for a in nonzero(src)
    }
    return union_map(src, tgt, images)


def union_leq(theta1, theta2):
    t1, t2 = theta1.table(), theta2.table()
    return all(t1[a] <= t2[a] for a in nonzero(theta1.source))


def compose_union(second, first):
    if first.target != second.source:
        raise ShapeMismatch("union maps not composable")
    images = {a: second(first(frozenset([a]))) for a in nonzero(first.source)}
    return union_map(first.source, second.target, images)


def _hull(theta, joins):
    """Union of the power maps of the join maps dominated by theta.

    The power map of g sends {a} to {g(a)}, or to the empty set when g(a) is
    the bottom, so theta dominates it when every g(a) is the bottom or lies
    in theta({a}); both are read off g's value table.
    """
    bottom = theta.target.bottom
    table = theta.singleton_images
    images = {a: set() for a, _ in table}
    for g in joins:
        values = g.values
        if all(values[a] == bottom or values[a] in image for a, image in table):
            for a, _ in table:
                if values[a] != bottom:
                    images[a].add(values[a])
    return union_map(theta.source, theta.target, images)


def based_hull(theta):
    """Union of every power map dominated by theta; theta is based iff this
    reproduces it (based Hom-sets are exactly unions of power maps)."""
    return _hull(theta, hom_set(theta.source, theta.target, "join"))


def is_based(theta):
    return based_hull(theta) == theta


def strictness_witness(lattice, a):
    """theta fixing every set without the top and adjoining a to sets with it.

    Coherent with the identity, but based only when every nonzero, nontop
    element sits below a.
    """
    if a == lattice.bottom:
        raise ShapeMismatch("parameter must be nonzero")
    images = {}
    for x in nonzero(lattice):
        if x == lattice.top:
            images[x] = frozenset([a, lattice.top])
        else:
            images[x] = frozenset([x])
    return union_map(lattice, lattice, images)


def all_union_maps(source, target, bound=ENUMERATION_BOUND):
    """Every assignment of singleton images, in deterministic order."""
    elems = nonzero(source)
    choices = all_subsets(target, bound)
    choices.sort(key=lambda s: (len(s), sorted(s)))
    total = len(choices) ** len(elems)
    if total > bound:
        raise SizeLimit("%d union maps exceed bound %d" % (total, bound))
    out = []
    for pick in itertools.product(choices, repeat=len(elems)):
        out.append(union_map(source, target, dict(zip(elems, pick))))
    return out


def hom_count(category, source, target, bound=ENUMERATION_BOUND):
    """Hom-set sizes for the four enrichment levels."""
    if category == "PS":
        return len(hom_set(source, target, "join"))
    if category == "FS":
        return (1 << (target.size - 1)) ** (source.size - 1)
    if category in ("TS", "BS"):
        maps = all_union_maps(source, target, bound)
        if category == "TS":
            return sum(1 for t in maps if is_strongly_isotone(t))
        joins = hom_set(source, target, "join")
        return sum(1 for t in maps if _hull(t, joins) == t)
    raise ValueError("category must be one of PS, BS, TS, FS")


@dataclass(frozen=True)
class TransitionPair:
    """A join map together with a coherent union map."""

    map: LatticeMap
    union: UnionMap

    def __post_init__(self):
        if not coherence_check(self.map, self.union):
            raise IncoherentInput("pair fails the coherence condition")


def transition_compose(second, first):
    return TransitionPair(
        compose(second.map, first.map), compose_union(second.union, first.union)
    )


def transition_join(pairs):
    pairs = list(pairs)
    return TransitionPair(
        pointwise_join([p.map for p in pairs]), union_of([p.union for p in pairs])
    )
