"""Weak meet maps and their partial / pointed-extension adjoints."""

import pytest

from latkit import corpus, maps
from latkit.core import LatticeMap, upper_extension
from latkit.errors import NotJoinPreserving, NotWeakMeet, ShapeMismatch
from latkit.maps import hom_set, preservation_profile, right_adjoint
from latkit.weak import (
    PartialJoinMap,
    UpperMap,
    WeakMeetMap,
    compose_partial,
    partial_from_table,
    partial_to_upper,
    pointed_extend,
    restrict_codomain,
    upper_to_partial,
)

from test_maps import nonempty_meets


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
                restricted, partial, anchor = restrict_codomain(g)
                assert anchor == g(g.dom.top)
                # The corestriction preserves all meets including the empty one.
                assert preservation_profile(restricted).meets
                assert partial.anchor == anchor


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
                partial = restrict_codomain(g)[1]
                upper = pointed_extend(g)[1]
                assert partial_to_upper(partial) == upper
                assert upper_to_partial(upper) == partial
                # The upper route recovers g on the base carrier.
                adjoint = right_adjoint(partial_to_upper(partial).map)
                for b in g.dom.elements():
                    assert adjoint(b) == g(b)


def test_compose_partial_matches_weak_composition():
    from latkit.maps import compose

    table = corpus.named_lattices()
    c3, d4, b4 = table["C3"], table["D4"], table["B4"]
    for g1 in weak_meet_maps(d4, c3):
        for g2 in weak_meet_maps(b4, d4):
            composite_weak = WeakMeetMap(compose(g1.map, g2.map))
            left = compose_partial(restrict_codomain(g2)[1], restrict_codomain(g1)[1])
            assert left == restrict_codomain(composite_weak)[1]


def test_partial_map_validation():
    c3 = corpus.chain(3)
    c2 = corpus.chain(2)
    with pytest.raises(ShapeMismatch):
        PartialJoinMap(c3, c2, 1, ((0, 0),))  # missing value at 1
    partial = partial_from_table(c3, c2, 1, {0: 0, 1: 1})
    assert partial(1) == 1
    interval, inner = partial.interval_map()
    assert inner.values == (0, 1)
    d4 = corpus.diamond()  # a, b |-> 0 but a v b |-> 1
    with pytest.raises(NotJoinPreserving):
        partial_from_table(d4, c2, d4.top, {0: 0, 1: 0, 2: 0, 3: 1})


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
    p1 = partial_from_table(c2, c2, 1, {0: 0, 1: 1})
    p2 = partial_from_table(c3, c3, 2, {0: 0, 1: 1, 2: 2})
    with pytest.raises(ShapeMismatch):
        compose_partial(p2, p1)
