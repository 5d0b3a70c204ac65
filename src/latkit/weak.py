"""Weak morphisms (non-empty meet/join preserving) and their two equivalent
adjoint extensions: codomain restriction to an interval, and pointed
extension with an adjoined universal top.

WeakMeetMap checks meets and PartialJoinMap checks joins on file input;
maps derived here preserve joins by theorem, so they are built unchecked."""

from __future__ import annotations

from functools import cached_property

from .core import Frozen, LatticeMap, lower_interval, upper_extension
from .errors import NotJoinPreserving, NotWeakMeet, ShapeMismatch
from .maps import _residual, _residual_table, left_adjoint, right_adjoint


class WeakMeetMap(Frozen):
    """Map preserving non-empty meets; the top need not be preserved.

    extended, the map on the upper extensions that also sends the adjoined
    top to the adjoined top, preserves all meets iff the map preserves the
    non-empty ones: one residual pass on its dual decides the map and
    leaves the left adjoint that pointed_extend reads.  Equality and
    hashing read map alone."""

    def __init__(self, map):
        object.__setattr__(self, "map", map)
        extended = LatticeMap._unchecked(
            upper_extension(map.dom), upper_extension(map.cod), map.values + (map.cod.size,)
        )
        if _residual(extended.dual) is None:
            raise NotWeakMeet("map does not preserve non-empty meets")
        object.__setattr__(self, "extended", extended)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.map == other.map
        return NotImplemented

    def __hash__(self):
        return hash((self.map,))

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

    values holds one (source element <= anchor, target element) pair for
    each element below the anchor.  The constructor checks the pairs and
    decides joins on the source lattice itself (see maps._residual_table),
    so it builds no interval.  inner is the same map as a LatticeMap on
    lower_interval(source, anchor), built on first read; equality and
    hashing read the other four fields.
    """

    def __init__(self, source, target, anchor, values):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "values", values)
        below = source.poset.down[anchor]
        seen = 0
        for x, v in values:
            if x < 0 or not below >> x & 1:
                raise ShapeMismatch("partial map value at %r outside [0, anchor]" % (x,))
            if seen >> x & 1:
                raise ShapeMismatch("partial map has two values at %r" % (x,))
            if not 0 <= v < target.size:
                raise ShapeMismatch("value %d outside codomain" % v)
            seen |= 1 << x
        if seen != below:
            raise ShapeMismatch("partial map missing value below its anchor")
        if _residual_table(values, source, target) is None:
            raise NotJoinPreserving("partial map not join preserving on its interval")

    @classmethod
    def _of(cls, source, anchor, inner):
        """The partial map whose map on lower_interval(source, anchor) is
        inner, a join map by construction: not validated."""
        partial = object.__new__(cls)
        elements = lower_interval(source, anchor).elements
        partial.__dict__.update(
            source=source, target=inner.cod, anchor=anchor,
            values=tuple(zip(elements, inner.values)), inner=inner,
        )
        return partial

    @cached_property
    def inner(self):
        interval = lower_interval(self.source, self.anchor)
        value = dict(self.values)
        return LatticeMap._unchecked(
            interval.lattice, self.target, tuple(value[x] for x in interval.elements)
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.source, self.target, self.anchor, self.values) == (
                other.source, other.target, other.anchor, other.values
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.source, self.target, self.anchor, self.values))

    def __call__(self, x):
        """The value at x, which must lie below the anchor."""
        return self.inner.values[lower_interval(self.source, self.anchor).elements.index(x)]

    def interval_map(self):
        return lower_interval(self.source, self.anchor), self.inner


def partial_from_table(source, target, anchor, mapping):
    """The partial map x |-> mapping[x] on [0, anchor], checked as the
    constructor checks it: the builder for maps read from a file."""
    return PartialJoinMap(
        source, target, anchor, tuple((x, mapping[x]) for x in source.downset(anchor))
    )


class UpperMap(Frozen):
    """Balanced join-preserving map between upper pointed extensions.

    The adjoined top of L is always the extra index len(L); it is never
    aliased with the old top, and equality of upper maps is index-exact.
    Only the shape is checked: every upper map is built from join maps.
    """

    def __init__(self, base_source, base_target, map):
        object.__setattr__(self, "base_source", base_source)
        object.__setattr__(self, "base_target", base_target)
        object.__setattr__(self, "map", map)  # on the extensions
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base_source, self.base_target, self.map) == (
                other.base_source, other.base_target, other.map
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.base_source, self.base_target, self.map))


def restrict_codomain(weak):
    """Corestrict a weak meet map onto [0, g(1)]; the result preserves all meets."""
    g = weak.map
    anchor = g(g.dom.top)
    interval = lower_interval(g.cod, anchor)
    # Every g(b) lies below g(1), so the projection gives its interval index.
    position = interval.projection.values
    restricted = LatticeMap._unchecked(
        g.dom, interval.lattice, tuple(position[v] for v in g.values)
    )
    # The left adjoint, on the interval, is the partial map's interval map.
    return restricted, PartialJoinMap._of(g.cod, anchor, left_adjoint(restricted)), anchor


def pointed_extend(weak):
    """Extend a weak meet map over adjoined tops; returns (g-up, f-up)."""
    extended = weak.extended
    return extended, UpperMap._of(weak.cod, weak.dom, left_adjoint(extended))


def partial_to_upper(partial):
    """Send x below the anchor to its value and everything else to the new top."""
    src, tgt = partial.source, partial.target
    interval, inner = partial.interval_map()
    table = [tgt.size] * (src.size + 1)  # index size is the adjoined top
    for x, value in zip(interval.elements, inner.values):
        table[x] = value
    upper = LatticeMap._unchecked(upper_extension(src), upper_extension(tgt), tuple(table))
    return UpperMap._of(src, tgt, upper)


def upper_to_partial(upper):
    """Anchor at F*(1) and restrict F to the interval below it."""
    src = upper.base_source
    anchor = right_adjoint(upper.map)(upper.base_target.top)
    interval = lower_interval(src, anchor)
    # F(x) <= 1 iff x <= F*(1), so F sends the interval into the base target.
    values = tuple(map(upper.map.values.__getitem__, interval.elements))
    return PartialJoinMap._of(
        src, anchor, LatticeMap._unchecked(interval.lattice, upper.base_target, values)
    )


def compose_partial(second, first):
    """Anchor of the composite is first's adjoint applied to second's anchor."""
    if first.target != second.source:
        raise ShapeMismatch("partial maps not composable")
    interval, inner = first.interval_map()
    anchor = interval.elements[right_adjoint(inner)(second.anchor)]
    # first sends [0, anchor] below second's anchor; each projection gives
    # the position of an element below its anchor in its interval.
    composite = lower_interval(first.source, anchor)
    at_first = interval.projection.values
    at_second = lower_interval(second.source, second.anchor).projection.values
    values = tuple(
        second.inner.values[at_second[inner.values[at_first[x]]]] for x in composite.elements
    )
    return PartialJoinMap._of(
        first.source, anchor, LatticeMap._unchecked(composite.lattice, second.target, values)
    )
