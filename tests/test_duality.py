"""Order duality: L.dual, and the meet side derived from it."""

import random

import pytest

from latkit import corpus
from latkit.core import LatticeMap, lattice_from_poset
from latkit.errors import NotJoinPreserving, NotMeetPreserving
from latkit.maps import (
    _JoinSearch,
    _left_residual,
    _residual,
    hom_set,
    left_adjoint,
    pointwise_join,
    pointwise_meet,
    preservation_profile,
    right_adjoint,
)

from test_caching import spy_on_unchecked_maps
from test_hom_oracle import renumber

LATTICES = corpus.named_lattices()
SMALL = [lat for lat in LATTICES.values() if lat.size <= 4]


def dual_map(f):
    """The reference dual of f: its value table between the dual lattices."""
    return LatticeMap._unchecked(f.dom.dual, f.cod.dual, f.values)


def test_lattice_dual_reverses_the_order():
    for name, lat in LATTICES.items():
        dual = lat.dual
        assert dual.dual is lat, name
        assert dual.join_table == lat.meet_table and dual.meet_table == lat.join_table, name
        assert (dual.bottom, dual.top) == (lat.top, lat.bottom), name
        assert dual.poset.up == lat.poset.down and dual.poset.down == lat.poset.up, name
        assert dual.labels == lat.labels, name
        assert all(
            dual.leq(a, b) == lat.leq(b, a) for a in lat.elements() for b in lat.elements()
        ), name


def test_meet_side_read_off_the_dual():
    for name, lat in LATTICES.items():
        covers = lat.poset.upper_covers
        assert lat.dual.atoms() == [a for a in lat.elements() if covers[a] == [lat.top]], name
        assert _JoinSearch(lat.dual).irr == [
            a for a in lat.elements() if len(covers[a]) == 1
        ], name


def test_dual_of_an_equal_lattice_is_equal():
    for lat in LATTICES.values():
        twin = lattice_from_poset(lat.poset)
        assert twin is not lat and twin.dual is not lat.dual
        assert twin.dual == lat.dual and hash(twin.dual) == hash(lat.dual)


def test_left_adjoint_is_the_right_adjoint_of_the_dual():
    # The left adjoint is kept on the map itself, built from its left
    # residual; it equals the right adjoint of the dual.  Each meet map is
    # copied, so its left adjoint is computed here.
    for dom in SMALL:
        for cod in SMALL:
            for meet in hom_set(dom, cod, "meet"):
                g = LatticeMap(dom, cod, meet.values)
                f = left_adjoint(g)
                assert left_adjoint(g) is f
                assert f == dual_map(right_adjoint(dual_map(g)))
                assert f.dom is cod and f.cod is dom


def meet_outcome(g):
    """(left residual, left adjoint or the witness of its failure, meets),
    read from g alone."""
    try:
        adjoint = left_adjoint(g)
    except NotMeetPreserving as exc:
        adjoint = exc.witness
    return _left_residual(g), adjoint, preservation_profile(g).meets


def dual_outcome(g):
    """The same, read from the right adjoint of the dual of g."""
    dual = dual_map(g)
    try:
        adjoint = dual_map(right_adjoint(dual))
    except NotJoinPreserving as exc:
        adjoint = exc.witness
    meets = g.values[g.dom.top] == g.cod.top and _residual(dual) is not None
    return _residual(dual), adjoint, meets


def fails_meets(g, witness):
    """The witness names a real failure of meets: g(1) != 1, or a pair."""
    values, meet = g.values, g.cod.meet2
    if len(witness) == 1:
        return witness == (g.dom.top,) and values[g.dom.top] != g.cod.top
    a, b = witness
    return values[g.dom.meet2(a, b)] != meet(values[a], values[b])


@pytest.mark.parametrize("renumbered", [False, True])
def test_the_kept_left_residual_is_the_residual_of_the_dual(monkeypatch, renumbered):
    # On every pair of corpus lattices of at most 5 elements, renumbered or
    # not, every isotone map: its left residual, left adjoint (or the
    # witness it fails with) and meet flag are those read from its dual
    # map, and reading them builds no map but the left adjoint.
    built = spy_on_unchecked_maps(monkeypatch)
    rng = random.Random(7)
    lattices = list(corpus.named_lattices(max_size=5).values())
    if renumbered:
        lattices = [renumber(lat, rng.sample(range(lat.size), lat.size)) for lat in lattices]
    seen = {True: 0, False: 0}
    for dom in lattices:
        for cod in lattices:
            for g in hom_set(dom, cod, "isotone"):
                built.clear()
                got = meet_outcome(g)
                assert meet_outcome(g) == got
                assert len(built) <= 1 and all(d is cod and c is dom for d, c, _ in built)
                assert got == dual_outcome(g), (g.values, got)
                if got[0] is None:
                    assert fails_meets(g, got[1]), (g.values, got)
                seen[got[0] is not None] += 1
    assert seen[True] and seen[False] and sum(seen.values()) == 23556


def test_meet_hom_set_is_the_join_hom_set_of_the_duals():
    for dom in SMALL:
        for cod in SMALL:
            meets = hom_set(dom, cod, "meet")
            duals = hom_set(dom.dual, cod.dual, "join")
            assert [g.values for g in meets] == [h.values for h in duals]
            assert all(g.dom is dom and g.cod is cod for g in meets)


def test_pointwise_meet_is_the_pointwise_join_of_the_duals():
    for dom in SMALL:
        for cod in SMALL:
            maps = hom_set(dom, cod, "isotone")[:6]
            if maps:
                meet = pointwise_meet(maps)
                assert meet.dom is dom and meet.cod is cod
                assert meet.values == pointwise_join(map(dual_map, maps)).values
                assert meet.values == tuple(
                    cod.meet([g(a) for g in maps]) for a in dom.elements()
                )
