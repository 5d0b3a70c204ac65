"""Weak morphisms (non-empty meet/join preserving) and their two equivalent
adjoint extensions: codomain restriction to an interval, and pointed
extension with an adjoined universal top.

WeakMeetMap checks meets and PartialJoinMap checks joins on file input;
maps derived here preserve joins or meets by theorem, so they are built
unchecked."""

from __future__ import annotations

from .core import Frozen, LatticeMap, compared_by, lower_interval, upper_extension
from .errors import NotJoinPreserving, NotWeakMeet, ShapeMismatch
from .maps import _hom, _left_residual, _residual_table, left_adjoint, right_adjoint


class WeakMeetMap(Frozen):
    """Map preserving non-empty meets; the top need not be preserved.

    extended, the map on the upper extensions that also sends the adjoined
    top to the adjoined top, preserves all meets iff the map preserves the
    non-empty ones: the constructor decides the map by one pass for the
    left residual of extended (see maps._left_residual), which is kept on
    extended for the left adjoint that pointed_extend reads.  weak_meet_maps
    builds the maps from the meet tables of the extensions.  Equality and
    hashing read map alone."""

    def __init__(self, map):
        extended = LatticeMap._unchecked(
            upper_extension(map.dom), upper_extension(map.cod), map.values + (map.cod.size,)
        )
        if _left_residual(extended) is None:
            raise NotWeakMeet("map does not preserve non-empty meets")
        self.__dict__.update(map=map, extended=extended)

    @classmethod
    def _of(cls, map, extended):
        """The weak meet map with this map and pointed extension, a meet
        map by construction: not validated."""
        weak = object.__new__(cls)
        weak.__dict__.update(map=map, extended=extended)
        return weak

    __eq__, __hash__ = compared_by("map")

    @property
    def dom(self):
        return self.map.dom

    @property
    def cod(self):
        return self.map.cod

    def __call__(self, a):
        return self.map(a)


class PartialJoinMap(Frozen):
    """Join-preserving map defined on the lower interval below an anchor.

    values holds one (x, value) pair for each element x below the anchor,
    as a tuple in index order of x; the map is its four fields, and
    equality and hashing read them.  The constructor checks the pairs and
    decides joins on the source lattice itself (see maps._residual_table),
    so it builds no interval; the routes below read and write the pairs.
    """

    def __init__(self, source, target, anchor, values):
        below = source.poset.down[anchor]
        value = {}
        for x, v in values:
            if x < 0 or not below >> x & 1:
                raise ShapeMismatch("partial map value at %r outside [0, anchor]" % (x,))
            if x in value:
                raise ShapeMismatch("partial map has two values at %r" % (x,))
            if not 0 <= v < target.size:
                raise ShapeMismatch("value %d outside codomain" % v)
            value[x] = v
        if len(value) != below.bit_count():
            raise ShapeMismatch("partial map missing value below its anchor")
        values = tuple(sorted(value.items()))
        self.__dict__.update(source=source, target=target, anchor=anchor, values=values)
        if _residual_table(values, source, target) is None:
            raise NotJoinPreserving("partial map not join preserving on its interval")

    @classmethod
    def _of(cls, source, target, anchor, values):
        """The partial map with these (x, value) pairs, in index order of x,
        a join map by construction: not validated."""
        partial = object.__new__(cls)
        partial.__dict__.update(source=source, target=target, anchor=anchor, values=values)
        return partial

    __eq__, __hash__ = compared_by("source", "target", "anchor", "values")


class UpperMap(Frozen):
    """Balanced join-preserving map between upper pointed extensions.

    The adjoined top of L is always the extra index len(L); it is never
    aliased with the old top, and equality of upper maps is index-exact.
    Only the shape is checked: every upper map is built from join maps.
    map acts on the extensions.
    """

    def __init__(self, base_source, base_target, map):
        self.__dict__.update(base_source=base_source, base_target=base_target, map=map)
        ext1 = upper_extension(base_source)
        ext2 = upper_extension(base_target)
        if map.dom != ext1 or map.cod != ext2:
            raise ShapeMismatch("upper map must act on the pointed extensions")
        if map.values[ext1.top] != ext2.top:
            raise ShapeMismatch("upper map must send the adjoined top to the adjoined top")

    @classmethod
    def _of(cls, base_source, base_target, map):
        """The upper map whose map on the upper extensions is map, built
        there from a join map: not validated."""
        upper = object.__new__(cls)
        upper.__dict__.update(base_source=base_source, base_target=base_target, map=map)
        return upper

    __eq__, __hash__ = compared_by("base_source", "base_target", "map")


def weak_meet_maps(dom, cod):
    """Every weak meet map dom -> cod, in lexicographic table order, as a
    tuple kept on dom per cod.

    g preserves non-empty meets iff its pointed extension (the adjoined top
    to the adjoined top) preserves all meets, and a meet map between the
    upper extensions is such an extension iff it does not send dom's top to
    the adjoined top (Davey & Priestley ch. 7).  So the maps are the meet
    Hom-set of the upper extensions, each table without its last entry,
    where that entry at dom.top is not cod.size; the order of the tables is
    kept, since the last entry of each is the adjoined top.
    """
    cache = dom.__dict__.setdefault("weak_meet_maps", {})
    weak = cache.get(cod)
    if weak is None:
        ext_dom, ext_cod = upper_extension(dom), upper_extension(cod)
        top, adjoined = dom.top, cod.size
        weak = cache[cod] = tuple(
            WeakMeetMap._of(
                LatticeMap._unchecked(dom, cod, table[:-1]),
                LatticeMap._unchecked(ext_dom, ext_cod, table),
            )
            for table in _hom(ext_dom, ext_cod, "meet").tables
            if table[top] != adjoined
        )
    return weak


def restrict_codomain(weak):
    """(the partial map, its anchor g(1)): the left adjoint of the
    corestriction of a weak meet map g onto [0, g(1)], which preserves all
    meets, read on the interval's elements."""
    g = weak.map
    anchor = g.values[g.dom.top]
    interval = lower_interval(g.cod, anchor)
    # Every g(b) lies below g(1), so the projection gives its interval index:
    # the table of the corestriction, whose left adjoint is its residual in
    # the dual orders.
    table = map(interval.projection.values.__getitem__, g.values)
    adjoint = _residual_table(enumerate(table), g.dom.dual, interval.lattice.dual)
    partial = PartialJoinMap._of(g.cod, g.dom, anchor, tuple(zip(interval.elements, adjoint)))
    return partial, anchor


def pointed_extend(weak):
    """Extend a weak meet map over adjoined tops; returns (g-up, f-up)."""
    extended = weak.extended
    return extended, UpperMap._of(weak.cod, weak.dom, left_adjoint(extended))


def partial_to_upper(partial):
    """Send x below the anchor to its value and everything else to the new top."""
    src, tgt = partial.source, partial.target
    table = [tgt.size] * (src.size + 1)  # index size is the adjoined top
    for x, value in partial.values:
        table[x] = value
    upper = LatticeMap._unchecked(upper_extension(src), upper_extension(tgt), tuple(table))
    return UpperMap._of(src, tgt, upper)


def upper_to_partial(upper):
    """Anchor at F*(1) and restrict F to the interval below it."""
    src, tgt = upper.base_source, upper.base_target
    anchor = right_adjoint(upper.map).values[tgt.top]
    # F(x) <= 1 iff x <= F*(1), so F sends the interval into the base target.
    elements = lower_interval(src, anchor).elements
    values = tuple(zip(elements, map(upper.map.values.__getitem__, elements)))
    return PartialJoinMap._of(src, tgt, anchor, values)


def compose_partial(second, first):
    """Defined where first lands below second's anchor: for a join map a
    principal down-set of first's source, whose top is the anchor."""
    if first.target != second.source:
        raise ShapeMismatch("partial maps not composable")
    # second is defined exactly below its anchor.
    at_second = dict(second.values)
    values = tuple((x, at_second[v]) for x, v in first.values if v in at_second)
    anchor = first.source.down_index.get(sum(1 << x for x, _ in values))
    if anchor is None:
        raise NotJoinPreserving("first map's preimage of the second's domain is not principal")
    return PartialJoinMap._of(first.source, second.target, anchor, values)
