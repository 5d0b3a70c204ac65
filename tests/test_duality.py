"""Order duality: L.dual and f.dual, and the meet side derived from them."""

from latkit import corpus
from latkit.core import lattice_from_poset
from latkit.maps import (
    _JoinSearch,
    hom_set,
    left_adjoint,
    pointwise_join,
    pointwise_meet,
    right_adjoint,
)

LATTICES = corpus.named_lattices()
SMALL = [lat for lat in LATTICES.values() if lat.size <= 4]


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


def test_map_dual_keeps_the_table():
    for dom in SMALL:
        for cod in SMALL:
            for f in hom_set(dom, cod, "isotone"):
                assert f.dual.dual is f
                assert f.dual.values == f.values
                assert f.dual.dom is dom.dual and f.dual.cod is cod.dual


def test_left_adjoint_is_the_right_adjoint_of_the_dual():
    for dom in SMALL:
        for cod in SMALL:
            for g in hom_set(dom, cod, "meet"):
                f = left_adjoint(g)
                assert left_adjoint(g) is f
                assert f is right_adjoint(g.dual).dual
                assert f.dom is cod and f.cod is dom


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
                assert meet.values == pointwise_join([g.dual for g in maps]).values
                assert meet.values == tuple(
                    cod.meet([g(a) for g in maps]) for a in dom.elements()
                )
