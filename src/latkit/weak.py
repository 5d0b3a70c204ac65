"""Weak morphisms (non-empty meet/join preserving) and their two equivalent
adjoint extensions: codomain restriction to an interval, and pointed
extension with an adjoined universal top."""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteLattice, LatticeMap, lower_interval, upper_extension
from .errors import NotJoinPreserving, NotWeakMeet, ShapeMismatch
from .maps import _failing_pair, _join_witness, left_adjoint, right_adjoint


@dataclass(frozen=True)
class WeakMeetMap:
    """Map preserving non-empty meets; the top need not be preserved."""

    map: LatticeMap

    def __post_init__(self):
        m = self.map
        if _failing_pair(m.values, m.dom.meet_table, m.cod.meet_table) is not None:
            raise NotWeakMeet("map does not preserve non-empty meets")

    @property
    def dom(self):
        return self.map.dom

    @property
    def cod(self):
        return self.map.cod

    def __call__(self, a):
        return self.map(a)


@dataclass(frozen=True)
class PartialJoinMap:
    """Join-preserving map defined on the lower interval below an anchor."""

    source: FiniteLattice
    target: FiniteLattice
    anchor: int
    values: tuple[tuple[int, int], ...]  # (source element <= anchor, target element)

    def __post_init__(self):
        domain = dict(self.values)
        for x in self.source.downset(self.anchor):
            if x not in domain:
                raise ShapeMismatch("partial map missing value below its anchor")
        interval = lower_interval(self.source, self.anchor)
        table = tuple(domain[e] for e in interval.elements)
        inner = LatticeMap(interval.lattice, self.target, table)
        if _join_witness(inner) is not None:
            raise NotJoinPreserving("partial map not join preserving on its interval")

    def __call__(self, x):
        return dict(self.values)[x]

    def interval_map(self):
        interval = lower_interval(self.source, self.anchor)
        table = tuple(dict(self.values)[e] for e in interval.elements)
        return interval, LatticeMap(interval.lattice, self.target, table)


def partial_from_table(source, target, anchor, mapping):
    values = tuple(sorted((x, mapping[x]) for x in source.downset(anchor)))
    return PartialJoinMap(source, target, anchor, values)


@dataclass(frozen=True)
class UpperMap:
    """Balanced join-preserving map between upper pointed extensions.

    The adjoined top of L is always the extra index len(L); it is never
    aliased with the old top, and equality of upper maps is index-exact.
    """

    base_source: FiniteLattice
    base_target: FiniteLattice
    map: LatticeMap  # on the extensions

    def __post_init__(self):
        ext1 = upper_extension(self.base_source)
        ext2 = upper_extension(self.base_target)
        if self.map.dom != ext1 or self.map.cod != ext2:
            raise ShapeMismatch("upper map must act on the pointed extensions")
        if _join_witness(self.map) is not None:
            raise NotJoinPreserving("upper map must preserve joins")
        if self.map.values[ext1.top] != ext2.top:
            raise ShapeMismatch("upper map must send the adjoined top to the adjoined top")

    def __call__(self, x):
        return self.map(x)


def restrict_codomain(weak):
    """Corestrict a weak meet map onto [0, g(1)]; the result preserves all meets."""
    g = weak.map
    anchor = g(g.dom.top)
    interval = lower_interval(g.cod, anchor)
    index = {e: i for i, e in enumerate(interval.elements)}
    restricted = LatticeMap(g.dom, interval.lattice, tuple(index[g(b)] for b in g.dom.elements()))
    partial_left = left_adjoint(restricted)
    # The left adjoint lands back in the big lattice through the inclusion.
    mapping = {e: partial_left(index[e]) for e in interval.elements}
    partial = partial_from_table(g.cod, g.dom, anchor, mapping)
    return restricted, partial, anchor


def pointed_extend(weak):
    """Extend a weak meet map over adjoined tops; returns (g-up, f-up)."""
    g = weak.map
    ext_dom = upper_extension(g.dom)
    ext_cod = upper_extension(g.cod)
    values = tuple(g(b) for b in g.dom.elements()) + (g.cod.size,)
    extended = LatticeMap(ext_dom, ext_cod, values)
    left = left_adjoint(extended)
    upper = UpperMap(g.cod, g.dom, left)
    return extended, upper


def partial_to_upper(partial):
    """Send x below the anchor to its value and everything else to the new top."""
    src, tgt = partial.source, partial.target
    ext1 = upper_extension(src)
    ext2 = upper_extension(tgt)
    new_top = src.size  # index of the adjoined top in ext1
    table = []
    mapping = dict(partial.values)
    for x in range(ext1.size):
        if x != new_top and src.leq(x, partial.anchor):
            table.append(mapping[x])
        else:
            table.append(tgt.size)
    return UpperMap(src, tgt, LatticeMap(ext1, ext2, tuple(table)))


def upper_to_partial(upper):
    """Anchor at F*(1) and restrict F to the interval below it."""
    adj = right_adjoint(upper.map)
    old_top = upper.base_target.top
    anchor = adj(old_top)
    mapping = {x: upper(x) for x in upper.base_source.downset(anchor)}
    return partial_from_table(upper.base_source, upper.base_target, anchor, mapping)


def upper_adjoint(partial):
    """The right adjoint G of the upper extension of a partial map."""
    return right_adjoint(partial_to_upper(partial).map)


def compose_partial(second, first):
    """Anchor of the composite is first's adjoint applied to second's anchor."""
    if first.target != second.source:
        raise ShapeMismatch("partial maps not composable")
    interval, inner = first.interval_map()
    inner_adjoint = right_adjoint(inner)
    anchor = interval.elements[inner_adjoint(second.anchor)]
    mapping = {}
    for x in first.source.downset(anchor):
        mapping[x] = second(first(x))
    return partial_from_table(first.source, second.target, anchor, mapping)


def upper_from_weak(weak):
    """Pseudo left adjoint of a weak meet map, as an upper map."""
    return pointed_extend(weak)[1]


def partial_from_weak(weak):
    """Pseudo left adjoint of a weak meet map, as a partial map."""
    return restrict_codomain(weak)[1]
