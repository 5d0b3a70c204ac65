"""Weak meet maps and their partial / pointed-extension adjoints.

The references below are the routes as they ran on interval maps: a partial
map read as a LatticeMap on lower_interval(source, anchor), its inner map,
and the adjoint objects built on it.  The routes on (x, value) pairs must
give equal results.
"""

import itertools
import random

import pytest

from latkit import core, corpus, maps
from latkit.core import LatticeMap, lower_interval, upper_extension
from latkit.errors import NotJoinPreserving, NotWeakMeet, ShapeMismatch
from latkit.maps import compose, hom_set, left_adjoint, preservation_profile, right_adjoint
from latkit.weak import (
    PartialJoinMap,
    UpperMap,
    WeakMeetMap,
    compose_partial,
    partial_to_upper,
    pointed_extend,
    restrict_codomain,
    upper_to_partial,
)
from latkit.weak import weak_meet_maps as weak_meet_maps_of

from test_caching import spy_on_unchecked_maps
from test_hom_oracle import renumber
from test_maps import nonempty_meets


# ---------------------------------------------------------------- references


def ref_of(source, anchor, inner):
    """The partial map whose map on lower_interval(source, anchor) is inner."""
    elements = lower_interval(source, anchor).elements
    return PartialJoinMap._of(source, inner.cod, anchor, tuple(zip(elements, inner.values)))


def ref_inner(partial):
    """The partial map as a LatticeMap on its interval's lattice."""
    interval = lower_interval(partial.source, partial.anchor)
    value = dict(partial.values)
    return LatticeMap._unchecked(
        interval.lattice, partial.target, tuple(value[x] for x in interval.elements)
    )


def ref_interval_map(partial):
    return lower_interval(partial.source, partial.anchor), ref_inner(partial)


def ref_call(partial, x):
    """The value at x, which must lie below the anchor."""
    elements = lower_interval(partial.source, partial.anchor).elements
    return ref_inner(partial).values[elements.index(x)]


def ref_corestriction(weak):
    """The weak meet map g corestricted onto [0, g(1)], as a LatticeMap."""
    g = weak.map
    interval = lower_interval(g.cod, g(g.dom.top))
    position = interval.projection.values
    return LatticeMap._unchecked(g.dom, interval.lattice, tuple(position[v] for v in g.values))


def ref_restrict_codomain(weak):
    """(partial, anchor): the corestriction's left adjoint object, read on
    the interval's elements."""
    g = weak.map
    anchor = g(g.dom.top)
    return ref_of(g.cod, anchor, left_adjoint(ref_corestriction(weak))), anchor


def ref_partial_to_upper(partial):
    src, tgt = partial.source, partial.target
    interval, inner = ref_interval_map(partial)
    table = [tgt.size] * (src.size + 1)
    for x, value in zip(interval.elements, inner.values):
        table[x] = value
    upper = LatticeMap._unchecked(upper_extension(src), upper_extension(tgt), tuple(table))
    return UpperMap._of(src, tgt, upper)


def ref_upper_to_partial(upper):
    src = upper.base_source
    anchor = right_adjoint(upper.map)(upper.base_target.top)
    interval = lower_interval(src, anchor)
    values = tuple(map(upper.map.values.__getitem__, interval.elements))
    return ref_of(src, anchor, LatticeMap._unchecked(interval.lattice, upper.base_target, values))


def ref_compose_partial(second, first):
    if first.target != second.source:
        raise ShapeMismatch("partial maps not composable")
    interval, inner = ref_interval_map(first)
    anchor = interval.elements[right_adjoint(inner)(second.anchor)]
    composite = lower_interval(first.source, anchor)
    at_first = interval.projection.values
    at_second = lower_interval(second.source, second.anchor).projection.values
    second_inner = ref_inner(second)
    values = tuple(
        second_inner.values[at_second[inner.values[at_first[x]]]] for x in composite.elements
    )
    return ref_of(
        first.source, anchor, LatticeMap._unchecked(composite.lattice, second.target, values)
    )


# ---------------------------------------------------------------- tests


def weak_meet_maps(dom, cod):
    out = []
    for f in hom_set(dom, cod, "isotone"):
        if nonempty_meets(f):
            out.append(WeakMeetMap(f))
    return out


SMALL = ["C2", "C3", "D4", "B4"]


def test_weak_meet_map_rejects_non_meet_maps():
    d4 = corpus.diamond()
    # Swap the two atoms of the image: joins fine, meets broken.
    bad = LatticeMap(d4, d4, (0, 3, 3, 3))
    with pytest.raises(NotWeakMeet):
        WeakMeetMap(bad)


def test_weak_meet_maps_are_decided_as_the_meet_scan_decides_them():
    # The constructor decides a map by one residual pass on its pointed
    # extension; the pairwise meet scan is the oracle.
    small = list(corpus.named_lattices(max_size=4).values())
    small += [lattice.dual for lattice in small]
    verdicts = []
    for dom in small:
        for cod in small:
            for g in hom_set(dom, cod, "isotone"):
                try:
                    weak = WeakMeetMap(g)
                except NotWeakMeet:
                    weak = None
                else:
                    assert weak.extended.values == g.values + (cod.size,)
                verdicts.append(weak is not None)
                assert verdicts[-1] == nonempty_meets(g), g.values
    assert (len(verdicts), sum(verdicts)) == (20252, 16292)


def test_weak_meet_maps_from_the_meet_kernel_are_the_isotone_filter():
    # weak_meet_maps reads the meet Hom-set of the upper extensions; the
    # checked constructor over the isotone Hom-set is the oracle, map for map
    # and in order, with the same pointed extensions, on every corpus pair of
    # at most 5 elements and on renumbered copies of them.
    rng = random.Random(31)
    small = list(corpus.named_lattices(max_size=5).values())
    renumbered = [renumber(lat, rng.sample(range(lat.size), lat.size)) for lat in small]
    count = 0
    for pool in (small, renumbered):
        for dom, cod in itertools.product(pool, repeat=2):
            built = weak_meet_maps_of(dom, cod)
            expected = []
            for g in hom_set(dom, cod, "isotone"):
                try:
                    expected.append(WeakMeetMap(g))
                except NotWeakMeet:
                    pass
            assert list(built) == expected
            assert [w.extended for w in built] == [w.extended for w in expected]
            assert all(w.map.dom is dom and w.map.cod is cod for w in built)
            assert weak_meet_maps_of(dom, cod) is built
            count += len(built)
    assert count == 2 * 15015


def test_pointed_extend_reads_the_extension_the_constructor_decided(monkeypatch):
    table = corpus.named_lattices()
    weak_maps = weak_meet_maps(table["D4"], table["C3"])
    assert weak_maps
    calls = []
    real = maps._residual_table
    monkeypatch.setattr(
        maps, "_residual_table", lambda *args: calls.append(args) or real(*args)
    )
    for g in weak_maps:
        extended, upper = pointed_extend(g)
        assert extended is g.extended and upper.map == pointed_extend(g)[1].map
    assert calls == []


def test_restrict_codomain_lands_on_interval():
    table = corpus.named_lattices()
    for name1 in SMALL:
        for name2 in SMALL:
            for g in weak_meet_maps(table[name1], table[name2]):
                partial, anchor = restrict_codomain(g)
                assert anchor == g(g.dom.top) == partial.anchor
                # The corestriction preserves all meets including the empty
                # one, and the partial map is its left adjoint.
                restricted = ref_corestriction(g)
                assert preservation_profile(restricted).meets
                assert (partial, anchor) == ref_restrict_codomain(g)


def test_pointed_extension_balanced_adjoint():
    table = corpus.named_lattices()
    for name1 in SMALL:
        for name2 in SMALL:
            for g in weak_meet_maps(table[name1], table[name2]):
                extended, upper = pointed_extend(g)
                # The extension fixes the adjoined top and agrees with g below.
                assert extended(g.dom.size) == g.cod.size
                for b in g.dom.elements():
                    assert extended(b) == g(b)
                profile = preservation_profile(upper.map)
                assert profile.joins and profile.balanced


def test_partial_upper_roundtrips():
    table = corpus.named_lattices()
    for name1 in SMALL:
        for name2 in SMALL:
            for g in weak_meet_maps(table[name1], table[name2]):
                partial = restrict_codomain(g)[0]
                upper = pointed_extend(g)[1]
                assert partial_to_upper(partial) == upper
                assert upper_to_partial(upper) == partial
                # The upper route recovers g on the base carrier.
                adjoint = right_adjoint(partial_to_upper(partial).map)
                for b in g.dom.elements():
                    assert adjoint(b) == g(b)


def test_compose_partial_matches_weak_composition():
    table = corpus.named_lattices()
    c3, d4, b4 = table["C3"], table["D4"], table["B4"]
    for g1 in weak_meet_maps(d4, c3):
        for g2 in weak_meet_maps(b4, d4):
            composite_weak = WeakMeetMap(compose(g1.map, g2.map))
            left = compose_partial(restrict_codomain(g2)[0], restrict_codomain(g1)[0])
            assert left == restrict_codomain(composite_weak)[0]


def test_partial_map_validation():
    c3 = corpus.chain(3)
    c2 = corpus.chain(2)
    with pytest.raises(ShapeMismatch):
        PartialJoinMap(c3, c2, 1, ((0, 0),))  # missing value at 1
    partial = PartialJoinMap(c3, c2, 1, {0: 0, 1: 1}.items())
    assert ref_call(partial, 1) == 1
    interval, inner = ref_interval_map(partial)
    assert inner.values == (0, 1)
    d4 = corpus.diamond()  # a, b |-> 0 but a v b |-> 1
    with pytest.raises(NotJoinPreserving):
        PartialJoinMap(d4, c2, d4.top, {0: 0, 1: 0, 2: 0, 3: 1}.items())


def test_partial_map_refuses_pairs_outside_its_interval():
    c3, c2 = corpus.chain(3), corpus.chain(2)
    with pytest.raises(ShapeMismatch, match="outside"):
        PartialJoinMap(c3, c2, 0, ((0, 0), (2, 1)))  # 2 is not below 0
    with pytest.raises(ShapeMismatch, match="two values"):
        PartialJoinMap(c3, c2, 1, ((0, 0), (1, 1), (0, 0)))
    with pytest.raises(ShapeMismatch, match="outside codomain"):
        PartialJoinMap(c3, c2, 1, ((0, 0), (1, 2)))


def _tables(k, m, rng, cap=24):
    """Every value table of length k into range(m), or a seeded sample of
    cap of them where there are more."""
    count = m ** k
    if count <= cap:
        return list(itertools.product(range(m), repeat=k))
    out = []
    for index in rng.sample(range(count), cap):
        table = []
        for _ in range(k):
            index, digit = divmod(index, m)
            table.append(digit)
        out.append(tuple(table))
    return out


def test_partial_maps_are_decided_as_on_their_interval_lattice():
    # The constructor decides joins on the source lattice; the oracle is
    # the residual of the same table as a map on the interval's own lattice.
    rng = random.Random(27)
    small = list(corpus.named_lattices(max_size=5).values())
    small += [renumber(lat, rng.sample(range(lat.size), lat.size)) for lat in small]
    verdicts = set()
    for src, tgt in itertools.product(small, repeat=2):
        for anchor in src.elements():
            interval = lower_interval(src, anchor)
            joins = [f.values for f in hom_set(interval.lattice, tgt, "join")]
            for table in _tables(len(interval.elements), tgt.size, rng) + joins:
                expected = LatticeMap(interval.lattice, tgt, table)
                values = tuple(zip(interval.elements, table))
                try:
                    partial = PartialJoinMap(src, tgt, anchor, values)
                except NotJoinPreserving as exc:
                    assert type(exc) is NotJoinPreserving
                    assert maps._residual(expected) is None, (src, tgt, anchor, table)
                    verdicts.add(False)
                    continue
                assert maps._residual(expected) is not None, (src, tgt, anchor, table)
                assert set(partial.__dict__) == {"source", "target", "anchor", "values"}
                assert ref_inner(partial) == expected
                verdicts.add(True)
    assert verdicts == {True, False}


def test_upper_map_checks_shape_and_its_adjoint_checks_joins():
    c2 = corpus.chain(2)
    ext = upper_extension(c2)
    with pytest.raises(ShapeMismatch):
        UpperMap(c2, c2, LatticeMap(ext, ext, (0, 1, 1)))
    # Sends the bottom off the bottom: accepted here, refused by the adjoint.
    upper = UpperMap(c2, c2, LatticeMap(ext, ext, (1, 1, 2)))
    with pytest.raises(NotJoinPreserving):
        upper_to_partial(upper)


def test_compose_partial_shape_guard():
    c2, c3 = corpus.chain(2), corpus.chain(3)
    p1 = PartialJoinMap(c2, c2, 1, {0: 0, 1: 1}.items())
    p2 = PartialJoinMap(c3, c3, 2, {0: 0, 1: 1, 2: 2}.items())
    with pytest.raises(ShapeMismatch):
        compose_partial(p2, p1)


def test_partial_map_values_are_kept_as_a_tuple_in_index_order():
    c2 = corpus.chain(2)
    given = PartialJoinMap(c2, c2, 1, [(0, 0), (1, 1)])
    reordered = PartialJoinMap(c2, c2, 1, ((1, 1), (0, 0)))
    assert given.values == reordered.values == ((0, 0), (1, 1))
    assert hash(given) == hash(reordered) and given == reordered
    assert partial_to_upper(given) == partial_to_upper(reordered)


def test_routes_read_no_map_dual_and_build_no_retract(monkeypatch):
    # Once the intervals are built, the four routes are residual passes and
    # lookups on (x, value) pairs: no dual map, adjoint object or interval.
    # The one map they build is partial_to_upper's, on the upper extension.
    d4 = corpus.named_lattices()["D4"]
    ext = upper_extension(d4)
    steps = []
    for wm in weak_meet_maps(d4, d4):
        partial = restrict_codomain(wm)[0]
        steps.append((wm, partial, pointed_extend(wm)[1]))
        upper_to_partial(steps[-1][2])
    reads, built = [], spy_on_unchecked_maps(monkeypatch)
    monkeypatch.setattr(LatticeMap, "__init__", lambda *args: reads.append(args))
    monkeypatch.setattr(core, "retract", lambda *args: reads.append(args))
    for wm, partial, upper in steps:
        assert restrict_codomain(wm)[0] == partial
        assert partial_to_upper(partial) == upper
        assert upper_to_partial(upper) == partial
        for _, other, _ in steps:
            compose_partial(other, partial)
    assert reads == [] and len(built) == len(steps) > 0
    assert all(dom is ext and cod is ext for dom, cod, _ in built)


def test_compose_partial_refuses_a_preimage_that_is_not_principal():
    # An unchecked map that does not preserve joins: both atoms of D4 land
    # below the anchor 0 of the second map, the top does not.
    d4, c2 = corpus.diamond(), corpus.chain(2)
    first = PartialJoinMap._of(d4, c2, d4.top, ((0, 0), (1, 0), (2, 0), (3, 1)))
    second = PartialJoinMap(c2, c2, 0, {0: 0}.items())
    with pytest.raises(NotJoinPreserving):
        compose_partial(second, first)
