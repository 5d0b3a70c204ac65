"""Truncated power construction: union maps on subsets of nonzero elements,
coherence with join maps, reconstruction, Hom-set counting, and the
strictness witnesses separating the four enrichment levels."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from . import core
from .core import LatticeMap, lattice_of_sets
from .errors import IncoherentInput, NotStronglyIsotone, ShapeMismatch, SizeLimit
from .maps import _hom_tables, _residual, compose, pointwise_join

# Budget: the most subsets of a carrier, or union maps between two
# lattices, that an enumeration may materialize.
ENUMERATION_BOUND = 1 << 17


def nonzero(lattice):
    out = list(lattice.elements())
    del out[lattice.bottom]
    return out


# Subsets of nonzero(L) are bitmasks: bit i stands for nonzero(L)[i], so the
# masks in increasing order list the subsets in all_subsets order.


def _subset(elems, mask):
    return frozenset(a for i, a in enumerate(elems) if mask >> i & 1)


def _joins_by_doubling(lattice, values):
    """out[m] = the join of the values at the set bits of m; the table for
    the first i values is extended by its join with the next one."""
    out = [lattice.bottom]
    for v in values:
        row = lattice.join_table[v]
        out += [row[x] for x in out]
    return out


def _check_subset_count(lattice):
    if 1 << (lattice.size - 1) > ENUMERATION_BOUND:
        raise SizeLimit("2^%d subsets exceed bound" % (lattice.size - 1))


def _check_union_map_count(source, target):
    """Refuse, before any work, the union maps source -> target when the
    subsets of the target they pick images from, or the maps themselves,
    exceed ENUMERATION_BOUND; both counts are computed, not enumerated."""
    _check_subset_count(target)
    total = (1 << (target.size - 1)) ** (source.size - 1)
    if total > ENUMERATION_BOUND:
        raise SizeLimit("%d union maps exceed bound %d" % (total, ENUMERATION_BOUND))


def _subset_joins(lattice):
    """joins[m] = the join of the subset of nonzero elements with mask m,
    kept on the lattice instance."""
    _check_subset_count(lattice)
    memo = lattice.__dict__
    if "subset_joins" not in memo:
        memo["subset_joins"] = tuple(_joins_by_doubling(lattice, nonzero(lattice)))
    return memo["subset_joins"]


@dataclass(frozen=True)
class UnionMap:
    """Union-preserving map on truncated powersets, stored by singleton images.

    masks[i] is the image of the i-th nonzero source element as a mask over
    the target's nonzero elements.
    """

    source: "object"  # FiniteLattice
    target: "object"
    singleton_images: tuple[tuple[int, frozenset[int]], ...]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        keys = [a for a, _ in self.singleton_images]
        if keys != nonzero(self.source):
            raise ShapeMismatch("singleton images must cover the nonzero carrier in order")
        carrier, bottom = self.target.elements(), self.target.bottom
        masks = []
        for _, image in self.singleton_images:
            mask = 0
            for b in image:
                if b == bottom or b not in carrier:
                    raise ShapeMismatch("image contains zero or out-of-range elements")
                mask |= 1 << b - (b > bottom)
            masks.append(mask)
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def _unchecked(cls, source, target, singleton_images, masks, joins):
        """A union map whose masks and _joins table are those of its images
        by construction: not validated."""
        theta = object.__new__(cls)
        theta.__dict__.update(
            source=source, target=target, singleton_images=singleton_images, masks=masks,
            _joins=joins,
        )
        return theta

    def __call__(self, subset):
        table = dict(self.singleton_images)
        out = set()
        for a in subset:
            out |= table[a]
        return frozenset(out)

    def table(self):
        return dict(self.singleton_images)

    @cached_property
    def _joins(self):
        """_joins[m] = the join of theta(A) for the source subset A with mask
        m: the join of the joins of its singleton images.  Callers bound the
        source size first."""
        tgt = self.target
        return _joins_by_doubling(tgt, [tgt.join(image) for _, image in self.singleton_images])


def union_map(source, target, images):
    return UnionMap(
        source, target, tuple((a, frozenset(images[a])) for a in nonzero(source))
    )


def all_subsets(lattice):
    _check_subset_count(lattice)
    elems = nonzero(lattice)
    return [_subset(elems, mask) for mask in range(1 << len(elems))]


@dataclass(frozen=True)
class Resolution:
    power_lattice: "object"
    sets: tuple[frozenset[int], ...]
    collapse: LatticeMap  # A |-> join of A
    expand: LatticeMap  # a |-> (0, a]


def resolution(lattice):
    """Materialize the truncated powerset with the join/interval adjunction."""
    if lattice.size > core.MAX_POWER_BASE:
        raise SizeLimit(
            "lattice size %d exceeds powerset bound %d" % (lattice.size, core.MAX_POWER_BASE)
        )
    power_lattice, sets = lattice_of_sets(all_subsets(lattice))
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


def coherence_check(f, theta, method="fast"):
    """f applied to the join of A must equal the join of theta(A), for all A.

    The fast path, the default (f join preserving and agreeing with theta
    on singletons), is equivalent on finite lattices; the exhaustive path
    checks every subset directly and is the transition-coherence law's
    oracle.
    """
    if f.dom != theta.source or f.cod != theta.target:
        raise ShapeMismatch("join map and union map shapes differ")
    if method == "fast":
        if _residual(f) is None:
            return False
        return all(f(a) == f.cod.join(image) for a, image in theta.singleton_images)
    if method == "exhaustive":
        values = f.values
        return all(
            values[s] == t for s, t in zip(_subset_joins(f.dom), theta._joins)
        )
    raise ValueError("method must be fast or exhaustive")


def _factor(theta):
    """Factor the joins of theta's images through the joins of its subsets.

    Returns (best, witness).  best[u] is the join of theta(A) over the
    subsets A that join to u.  theta is strongly isotone iff theta(A) joins
    to best[u] for every such A: given join A <= join B, the union of A and
    B joins to join B, and theta preserves that union.  best is then the
    coherent join map and witness is None.  Otherwise witness is a pair
    (A, B) with join A <= join B but join theta(A) not<= join theta(B): the
    first such B in all_subsets order, then the first A for it.
    """
    src, tgt = theta.source, theta.target
    sj = _subset_joins(src)
    tj = theta._joins
    join = tgt.join_table
    best = [tgt.bottom] * src.size
    for s, t in zip(sj, tj):
        best[s] = join[best[s]][t]
    if all(best[s] == t for s, t in zip(sj, tj)):
        return best, None
    src_up, tgt_up = src.poset.up, tgt.poset.up
    b = next(m for m, (s, t) in enumerate(zip(sj, tj)) if best[s] != t)
    sb, tb = sj[b], tj[b]
    a = next(
        m
        for m, (s, t) in enumerate(zip(sj, tj))
        if src_up[s] >> sb & 1 and not tgt_up[t] >> tb & 1
    )
    elems = nonzero(src)
    return best, (_subset(elems, a), _subset(elems, b))


def underlying_map(theta):
    """The unique join map coherent with theta; exists iff strongly isotone."""
    values, witness = _factor(theta)
    if witness is not None:
        raise NotStronglyIsotone("no coherent join map exists", witness=witness)
    return LatticeMap._unchecked(theta.source, theta.target, tuple(values))


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


def compose_union(second, first):
    if first.target != second.source:
        raise ShapeMismatch("union maps not composable")
    images = {a: second(first(frozenset([a]))) for a in nonzero(first.source)}
    return union_map(first.source, second.target, images)


def _pack(theta):
    """theta's masks packed into one integer, len(nonzero(target)) bits each."""
    width = theta.target.size - 1
    out = 0
    for i, mask in enumerate(theta.masks):
        out |= mask << i * width
    return out


def _power_packs(source, target):
    """The packed power map of every join map source -> target, kept on the
    source per target.

    Each pack is read off the value table, as the sum of one field per
    nonzero element a of source: the bit of g(a) when g(a) is not zero, as
    in _pack(power_map(g)).  Nothing is built per map.
    """
    memo = source.__dict__.setdefault("power_packs", {})
    if target not in memo:
        bottom, width = target.bottom, target.size - 1
        # fields[a][v] is the field of a holding v; zero has no field.
        fields = [[0] * target.size for _ in source.elements()]
        for i, a in enumerate(nonzero(source)):
            fields[a] = [
                0 if v == bottom else 1 << v - (v > bottom) + i * width for v in target.elements()
            ]
        memo[target] = [
            sum(map(list.__getitem__, fields, g)) for g in _hom_tables(source, target, "join")
        ]
    return memo[target]


def _hull(pack, powers):
    """The packed union of the power maps dominated by the packed map pack:
    p is dominated when p & ~pack == 0, and a union is a bitwise or."""
    out = 0
    for p in powers:
        if not p & ~pack:
            out |= p
    return out


def based_hull(theta):
    """Union of every power map dominated by theta; theta is based iff this
    reproduces it (based Hom-sets are exactly unions of power maps)."""
    src, tgt = theta.source, theta.target
    hull = _hull(_pack(theta), _power_packs(src, tgt))
    width, elems = tgt.size - 1, nonzero(tgt)
    images = {a: _subset(elems, hull >> i * width) for i, a in enumerate(nonzero(src))}
    return union_map(src, tgt, images)


def is_based(theta):
    pack = _pack(theta)
    return _hull(pack, _power_packs(theta.source, theta.target)) == pack


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


class _UnionMaps(Sequence):
    """Every union map source -> target, indexed in itertools.product order
    over the choices of singleton image; a map is built when it is read,
    from the masks and joins of the choices, computed once per sequence."""

    def __init__(self, source, target, choices):
        self.source, self.target = source, target
        self._elems = nonzero(source)
        self._choices = choices
        self._len = len(choices) ** len(self._elems)
        bottom = target.bottom
        self._masks = [sum(1 << b - (b > bottom) for b in image) for image in choices]
        self._joins = [target.join(image) for image in choices]

    def __len__(self):
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(self._len)[index]]
        i = range(self._len)[index]  # IndexError past either end
        radix = len(self._choices)
        digits = []
        for _ in self._elems:
            i, digit = divmod(i, radix)
            digits.append(digit)
        digits.reverse()
        return UnionMap._unchecked(
            self.source,
            self.target,
            tuple(zip(self._elems, map(self._choices.__getitem__, digits))),
            tuple(map(self._masks.__getitem__, digits)),
            _joins_by_doubling(self.target, map(self._joins.__getitem__, digits)),
        )


def all_union_maps(source, target):
    """Every assignment of singleton images, in deterministic order, as a
    sequence that builds each map on access."""
    _check_union_map_count(source, target)
    choices = all_subsets(target)
    choices.sort(key=lambda s: (len(s), sorted(s)))
    return _UnionMaps(source, target, choices)


def hom_count(category, source, target):
    """Hom-set sizes for the four enrichment levels, with no union map built.

    TS: theta is strongly isotone exactly when g(a) = join theta({a}) is a
    join map (see _factor), so each join map g counts, per nonzero a, the
    subsets of nonzero target elements that join to g(a); only the empty
    one joins to g(0) = 0, so a = 0 may join the product.  BS: theta is
    based exactly when it is a union of power maps, so BS counts the unions
    of the packed power maps, the empty union 0 included.  Both refuse
    where enumerating the union maps would.
    """
    if category == "PS":
        return len(_hom_tables(source, target, "join"))
    if category == "FS":
        return (1 << (target.size - 1)) ** (source.size - 1)
    if category not in ("TS", "BS"):
        raise ValueError("category must be one of PS, BS, TS, FS")
    _check_union_map_count(source, target)
    if category == "BS":
        family = {0}
        for p in _power_packs(source, target):
            if p not in family:  # the family is union-closed
                family |= {x | p for x in family}
        return len(family)
    joining = [0] * target.size
    for v in _subset_joins(target):
        joining[v] += 1
    return sum(
        math.prod(map(joining.__getitem__, g)) for g in _hom_tables(source, target, "join")
    )


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
