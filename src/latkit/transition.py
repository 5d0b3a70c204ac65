"""Truncated power construction: union maps on subsets of nonzero elements,
coherence with join maps, reconstruction, Hom-set counting, and the
strictness witnesses separating the four enrichment levels."""

from __future__ import annotations

import math
from collections.abc import Sequence

from . import core
from .core import Frozen, LatticeMap, cached_property, compared_by, lattice_of_sets
from .errors import IncoherentInput, NotStronglyIsotone, ShapeMismatch, SizeLimit
from .maps import (
    _guard,
    _hom_tables,
    _join_search,
    _kept_join_tables,
    _residual,
    _residual_table,
    compose,
    pointwise_join,
)

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


def _mask_join(lattice, mask):
    """The join of the nonzero elements of lattice at the set bits of mask."""
    row, bottom, out = lattice.join_table, lattice.bottom, lattice.bottom
    while mask:
        i = mask.bit_length() - 1
        out = row[out][i + (i >= bottom)]
        mask ^= 1 << i
    return out


class UnionMap(Frozen):
    """Union-preserving map on truncated powersets, stored as one integer.

    Field i of pack, len(nonzero(target)) bits wide, is the image of the
    i-th nonzero source element as a mask over the target's nonzero
    elements; so a union of maps is a bitwise or.  source and target are
    lattices.
    """

    def __init__(self, source, target, pack):
        self.__dict__.update(source=source, target=target, pack=pack)

    __eq__, __hash__ = compared_by("source", "target", "pack")

    def images(self):
        """The fields of pack: each nonzero source element's image mask."""
        width = self.target.size - 1
        full = (1 << width) - 1
        return [self.pack >> i * width & full for i in range(self.source.size - 1)]

    @cached_property
    def _joins(self):
        """_joins[m] = the join of theta(A) for the source subset A with mask
        m: the join of the joins of its singleton images.  Callers bound the
        source size first."""
        tgt = self.target
        return _joins_by_doubling(tgt, [_mask_join(tgt, m) for m in self.images()])


def union_map(source, target, images):
    """The union map sending each nonzero a of source to the set images[a]
    of nonzero target elements: the one place where sets become a pack."""
    carrier, bottom, width = target.elements(), target.bottom, target.size - 1
    pack = 0
    for i, a in enumerate(nonzero(source)):
        for b in images[a]:
            if b == bottom or b not in carrier:
                raise ShapeMismatch("image contains zero or out-of-range elements")
            pack |= 1 << b - (b > bottom) + i * width
    return UnionMap(source, target, pack)


def all_subsets(lattice):
    _check_subset_count(lattice)
    elems = nonzero(lattice)
    return [_subset(elems, mask) for mask in range(1 << len(elems))]


class Resolution(Frozen):
    """The truncated powerset: sets are the subsets in power_lattice order,
    collapse is A |-> join of A, and expand is a |-> (0, a]."""

    def __init__(self, power_lattice, sets, collapse, expand):
        self.__dict__.update(power_lattice=power_lattice, sets=sets, collapse=collapse,
                             expand=expand)


def resolution(lattice):
    """Materialize the truncated powerset with the join/interval adjunction."""
    if lattice.size > core.MAX_POWER_BASE:
        raise SizeLimit(
            "lattice size %d exceeds powerset bound %d" % (lattice.size, core.MAX_POWER_BASE)
        )
    core._check_carrier("lattice of sets", 1 << (lattice.size - 1))
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
        values, tgt = f.values, f.cod
        return all(
            values[a] == _mask_join(tgt, m) for a, m in zip(nonzero(f.dom), theta.images())
        )
    if method == "exhaustive":
        values = f.values
        return all(
            values[s] == t for s, t in zip(_subset_joins(f.dom), theta._joins)
        )
    raise ValueError("method must be fast or exhaustive")


def underlying_map(theta):
    """The unique join map coherent with theta; exists iff strongly isotone.

    best[u] is the join of theta(A) over the subsets A that join to u.
    theta is strongly isotone iff theta(A) joins to best[join A] for every
    A: given join A <= join B, the union of A and B joins to join B, and
    theta preserves that union.  best is then the coherent join map.
    Otherwise NotStronglyIsotone names the first subset B, in all_subsets
    order and as a tuple of its elements, whose image joins below
    best[join B].
    """
    src, tgt = theta.source, theta.target
    sj = _subset_joins(src)
    tj = theta._joins
    join = tgt.join_table
    best = [tgt.bottom] * src.size
    for s, t in zip(sj, tj):
        best[s] = join[best[s]][t]
    for b, (s, t) in enumerate(zip(sj, tj)):
        if best[s] != t:
            witness = tuple(a for i, a in enumerate(nonzero(src)) if b >> i & 1)
            raise NotStronglyIsotone("no coherent join map exists", witness=witness)
    return LatticeMap._unchecked(src, tgt, tuple(best))


def _fields(source, target):
    """fields[a][v] is the field of a packed union map source -> target
    holding v alone; zero, and the image of zero, have no field.  Kept on
    the source per target."""
    memo = source.__dict__.setdefault("pack_fields", {})
    fields = memo.get(target)
    if fields is None:
        bottom, width = target.bottom, target.size - 1
        fields = [[0] * target.size for _ in source.elements()]
        for i, a in enumerate(nonzero(source)):
            fields[a] = [
                0 if v == bottom else 1 << v - (v > bottom) + i * width for v in target.elements()
            ]
        memo[target] = fields
    return fields


def power_map(f):
    """Singleton images {f(a)} minus zero: one field per element, read off
    f's value table."""
    return UnionMap(f.dom, f.cod, sum(map(list.__getitem__, _fields(f.dom, f.cod), f.values)))


def union_of(thetas):
    thetas = list(thetas)
    if not thetas:
        raise ShapeMismatch("union of an empty family of union maps")
    src, tgt = thetas[0].source, thetas[0].target
    pack = 0
    for t in thetas:
        if t.source != src or t.target != tgt:
            raise ShapeMismatch("union maps live in different Hom-sets")
        pack |= t.pack
    return UnionMap(src, tgt, pack)


def compose_union(second, first):
    """The image of a under second . first is the union of second's images
    of the elements in first's image of a."""
    if first.target != second.source:
        raise ShapeMismatch("union maps not composable")
    width, outer = second.target.size - 1, second.images()
    pack = 0
    for i, mask in enumerate(first.images()):
        image = 0
        for j, m in enumerate(outer):
            if mask >> j & 1:
                image |= m
        pack |= image << i * width
    return UnionMap(first.source, second.target, pack)


def _power_packs(source, target):
    """The packed power map of every join map source -> target, kept on the
    source per target, read off the value tables as power_map reads one."""
    memo = source.__dict__.setdefault("power_packs", {})
    packs = memo.get(target)
    if packs is None:
        fields = _fields(source, target)
        packs = memo[target] = [
            sum(map(list.__getitem__, fields, g)) for g in _hom_tables(source, target, "join")
        ]
    return packs


def _hull(pack, powers):
    """The packed union of the power maps dominated by the packed map pack:
    p is dominated when p & ~pack == 0, and a union is a bitwise or."""
    out = 0
    for p in powers:
        if not p & ~pack:
            out |= p
    return out


def _searched_hull(theta):
    """The packed union of the power maps of the join maps g that theta
    dominates, found by the join search of maps._enumerate_preserving
    restricted to them: g is dominated iff g(a) lies in S_a = theta(a) with
    0 for every a.  Each irreducible j gets only the values of S_j at or
    above its floor; at a leaf the steps fill the table, a value outside
    its S_a drops the leaf, and off a distributive domain the leaf is kept
    iff its residual exists.  SizeLimit is raised on the product of the
    |S_j| before the search starts, and nothing is kept."""
    src, tgt = theta.source, theta.target
    search, fields = _join_search(src), _fields(src, tgt)
    # allowed[a] = S_a as a mask over the target's elements: the image mask
    # with a 0 bit inserted at the bottom's place, which is then set.
    bottom = tgt.bottom
    low = (1 << bottom) - 1
    allowed = [1 << bottom] * src.size
    for a, m in zip(nonzero(src), theta.images()):
        allowed[a] |= m & low | (m & ~low) << 1
    order, preds, steps = search.order, search.preds, search.steps
    _guard(math.prod(allowed[j].bit_count() for j in order))
    join, up, tested = tgt.join_table, tgt.poset.up, not search.prime
    values = [bottom] * src.size

    def hull(k):
        """The packed union of the power maps kept below the assignment of
        order[:k]."""
        if k == len(order):
            for a, x, y in steps:
                v = values[a] = join[values[x]][values[y]]
                if not allowed[a] >> v & 1:
                    return 0
            if tested and _residual_table(enumerate(values), src, tgt) is None:
                return 0
            return sum(map(list.__getitem__, fields, values))
        floor, out = bottom, 0
        for i in preds[k]:
            floor = join[floor][values[i]]
        j = order[k]
        choices = up[floor] & allowed[j]
        while choices:
            values[j] = (choices & -choices).bit_length() - 1
            choices &= choices - 1
            out |= hull(k + 1)
        return out

    return hull(0)


def based_hull(theta):
    """Union of every power map dominated by theta; theta is based iff this
    reproduces it (based Hom-sets are exactly unions of power maps).

    Where the join tables source -> target are kept, the hull scans their
    packed power maps, one & each.  Otherwise it searches only the join
    maps theta dominates (see _searched_hull), and keeps no Hom-set: one
    witness asked about once enumerates a handful of maps, not the whole
    Hom-set, while a sweep that has read the tables anyway scans them
    faster than it would search."""
    src, tgt = theta.source, theta.target
    if _kept_join_tables(src, tgt) is None:
        return UnionMap(src, tgt, _searched_hull(theta))
    return UnionMap(src, tgt, _hull(theta.pack, _power_packs(src, tgt)))


def is_based(theta):
    return based_hull(theta).pack == theta.pack


def strictness_witness(lattice, a):
    """theta fixing every set without the top and adjoining a to sets with it.

    Coherent with the identity, and based exactly when a is the top or some
    join map sends the top to a and every other element to itself or to
    zero (the identity's power map covers the rest): at every element of a
    chain, but at no atom of M3 and not at N5's a.
    """
    if a == lattice.bottom:
        raise ShapeMismatch("parameter must be nonzero")
    fields = _fields(lattice, lattice)
    identity = sum(fields[x][x] for x in lattice.elements())  # the identity's power map
    return UnionMap(lattice, lattice, identity | fields[lattice.top][a])


class _UnionMaps(Sequence):
    """Every union map source -> target, indexed in itertools.product order
    over the choices of singleton image, which are masks; a map is packed
    when it is read."""

    def __init__(self, source, target, choices):
        self.source, self.target = source, target
        self._choices = choices
        self._count = source.size - 1  # fields per map
        self._len = len(choices) ** self._count

    def __len__(self):
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(self._len)[index]]
        i = range(self._len)[index]  # IndexError past either end
        radix, width, pack = len(self._choices), self.target.size - 1, 0
        for field in reversed(range(self._count)):  # the last field is the lowest digit
            i, digit = divmod(i, radix)
            pack |= self._choices[digit] << field * width
        return UnionMap(self.source, self.target, pack)


def all_union_maps(source, target):
    """Every assignment of singleton images, in deterministic order, as a
    sequence that builds each map on access; the images run through the
    subsets of nonzero target elements by size, then by elements."""
    _check_union_map_count(source, target)
    width = target.size - 1
    choices = sorted(
        range(1 << width),
        key=lambda m: (m.bit_count(), [i for i in range(width) if m >> i & 1]),
    )
    return _UnionMaps(source, target, choices)


def hom_count(category, source, target):
    """Hom-set sizes for the four enrichment levels, with no union map built.

    TS: theta is strongly isotone exactly when g(a) = join theta({a}) is a
    join map (see underlying_map), so each join map g counts, per nonzero
    a, the subsets of nonzero target elements that join to g(a); only the
    empty one joins to g(0) = 0, so a = 0 may join the product.  BS: theta is
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


class TransitionPair(Frozen):
    """A join map together with a coherent union map."""

    def __init__(self, map, union):
        self.__dict__.update(map=map, union=union)
        if not coherence_check(map, union):
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
