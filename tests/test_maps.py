"""Adjoints, preservation profiles, special morphisms, Hom-set enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import corpus, maps, suite
from latkit.core import LatticeMap, identity_map
from latkit.errors import (
    EmptyFamily,
    NotInClass,
    NotJoinPreserving,
    NotMeetPreserving,
    ShapeMismatch,
    SizeLimit,
)
from latkit.maps import (
    _JoinSearch,
    check_adjunction,
    classify_morphism,
    compose,
    hom_set,
    left_adjoint,
    pointwise_join,
    pointwise_meet,
    preservation_profile,
    right_adjoint,
    special_maps,
)

TWO = corpus.chain(2)


# References that only tests read: the pointwise Hom order, read off the
# mask kernel maps._below, and the pairwise preservation scans.


def map_leq(f, g):
    """f(a) <= g(a) for every a: maps._below(f) holds g's graph, the bits
    a*m + g(a)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("maps live in different Hom-sets")
    m = g.cod.size
    graph = sum(1 << a * m + v for a, v in enumerate(g.values))
    return maps._below(f) & graph == graph


def nonempty_joins(f):
    """f preserves every join of two elements."""
    return maps._failing_pair(f.values, f.dom.join_table, f.cod.join_table) is None


def nonempty_meets(f):
    """f preserves every meet of two elements."""
    return maps._failing_pair(f.values, f.dom.meet_table, f.cod.meet_table) is None


def test_profile_of_identity():
    profile = preservation_profile(identity_map(corpus.m3()))
    assert profile.joins and profile.meets
    assert profile.balanced and profile.dense
    assert profile.bottom_fixed and profile.top_reflecting


def test_profile_of_constant_top():
    d4 = corpus.diamond()
    top = LatticeMap(d4, d4, (d4.top,) * 4)
    profile = preservation_profile(top)
    assert nonempty_joins(top) and nonempty_meets(top)
    assert not profile.joins and profile.meets
    assert profile.balanced and profile.dense
    assert not profile.bottom_fixed and not profile.top_reflecting


def test_right_adjoint_of_point_is_above_test():
    # Frozen by hand: the right adjoint of 1 |-> a tests whether a <= x.
    for lattice in (corpus.diamond(), corpus.m3(), corpus.n5()):
        for a in lattice.elements():
            sm = special_maps(lattice, a, TWO)
            assert right_adjoint(sm.point) == sm.above_test
            assert left_adjoint(sm.above_test) == sm.point
            assert right_adjoint(sm.below_test) == sm.copoint
            assert left_adjoint(sm.copoint) == sm.below_test


def test_interval_adjunctions():
    b8 = corpus.boolean_lattice(3)
    for a in b8.elements():
        sm = special_maps(b8, a, TWO)
        assert check_adjunction(sm.inclusion, sm.projection)
        assert check_adjunction(sm.capped_projection, sm.capped_inclusion)


def test_right_adjoint_requires_joins():
    d4 = corpus.diamond()
    with pytest.raises(NotJoinPreserving) as err:
        right_adjoint(LatticeMap(d4, d4, (d4.top,) * 4))
    assert err.value.witness is not None


def test_left_adjoint_requires_meets():
    d4 = corpus.diamond()
    with pytest.raises(NotMeetPreserving):
        left_adjoint(LatticeMap(d4, d4, (d4.bottom,) * 4))


def test_adjoint_values_on_frozen_example():
    # c3 -> c2 collapsing the middle down; adjoint computed by hand.
    c3, c2 = corpus.chain(3), corpus.chain(2)
    f = LatticeMap(c3, c2, (0, 0, 1))
    g = right_adjoint(f)
    assert g.values == (1, 2)
    assert compose(f, compose(g, f)) == f
    assert compose(g, compose(f, g)) == g


def test_hom_set_sizes_frozen():
    # Independently derivable counts, frozen here.
    d4, m3, c2 = corpus.diamond(), corpus.m3(), corpus.chain(2)
    assert len(hom_set(c2, d4, "join")) == 4
    assert len(hom_set(d4, c2, "join")) == 4
    assert len(hom_set(m3, c2, "join")) == 5
    assert len(hom_set(c2, m3, "join")) == 5
    assert len(hom_set(c2, c2, "isotone")) == 3
    # Meet maps are adjoints of join maps going the other way.
    assert len(hom_set(d4, c2, "meet")) == len(hom_set(c2, d4, "join"))


def test_hom_set_deterministic_and_sorted():
    d4 = corpus.diamond()
    maps = hom_set(d4, d4, "join")
    assert maps == sorted(maps, key=lambda f: f.values)
    assert maps == hom_set(d4, d4, "join")


def test_hom_set_guard(monkeypatch):
    b16 = corpus.boolean_lattice(4)
    monkeypatch.setattr(maps, "HOM_SET_CANDIDATE_BOUND", 1000)
    with pytest.raises(SizeLimit, match="%d candidate maps exceed bound 1000" % 16 ** 16):
        hom_set(b16, b16, "isotone")


def _not_preserving(homs, cls):
    """Value tables of the maps whose profile denies all joins or all meets."""
    return [f.values for f in homs if not getattr(preservation_profile(f), cls + "s")]


def test_hom_set_maps_preserve_their_class():
    table = corpus.named_lattices(max_size=4)
    for dom in table.values():
        for cod in table.values():
            for cls in ("join", "meet"):
                assert _not_preserving(hom_set(dom, cod, cls), cls) == []


def test_a_kernel_that_emits_a_non_join_map_is_caught(monkeypatch):
    # right_adjoint decides joins by residuation on every map, so the
    # adjoint-laws law refuses a non-join map that the kernel lets through.
    real = maps._enumerate_preserving

    def kernel(dom, cod):
        return real(dom, cod) + [(cod.top,) * dom.size]

    monkeypatch.setattr(maps, "_enumerate_preserving", kernel)
    d4, c3 = corpus.diamond(), corpus.chain(3)
    suite._homs.cache_clear()
    reports = []
    try:
        assert _not_preserving(hom_set(d4, c3, "join"), "join") == [(2, 2, 2, 2)]
        (law,) = [law for law in suite.LAWS if law.prop == "adjoint-laws"]
        suite._collect(law.checks({"lattices": {"C3": c3, "D4": d4}}), reports)
    finally:
        suite._homs.cache_clear()
    by_object = {r.object: r for r in reports}
    assert len(by_object) == 4 and {r.status for r in reports} == {"fail"}
    assert by_object["D4->C3"].witness == "NotJoinPreserving: map does not preserve joins"


def test_irreducibles():
    d4, n5 = corpus.diamond(), corpus.n5()
    assert _JoinSearch(d4).irr == [1, 2]
    assert _JoinSearch(d4.dual).irr == [1, 2]
    assert _JoinSearch(n5).irr == [1, 2, 3]


def test_dualize_roundtrip():
    for f in hom_set(corpus.diamond(), corpus.chain(3), "join"):
        assert left_adjoint(right_adjoint(f)) == f


def test_pointwise_join_meet():
    d4, c2 = corpus.diamond(), corpus.chain(2)
    fs = hom_set(d4, c2, "join")
    top = pointwise_join(fs)
    bottom = pointwise_meet(fs)
    for f in fs:
        assert map_leq(bottom, f) and map_leq(f, top)
    with pytest.raises(EmptyFamily):
        pointwise_join([])
    with pytest.raises(ShapeMismatch):
        pointwise_join([fs[0], identity_map(d4)])


def test_classify_identity_and_constant():
    d4 = corpus.diamond()
    flags = classify_morphism(identity_map(d4))
    assert flags.epic and flags.monic and flags.section and flags.retraction
    with pytest.raises(NotInClass):
        classify_morphism(LatticeMap(d4, d4, (d4.top,) * 4))


def categorical_epi(f, probes, cls="join"):
    """Slow oracle: quantify over all post-composable map pairs into probes."""
    for probe in probes:
        homs = hom_set(f.cod, probe, cls)
        for h1 in homs:
            for h2 in homs:
                if h1 != h2 and compose(h1, f) == compose(h2, f):
                    return False
    return True


def categorical_mono(f, probes, cls="join"):
    for probe in probes:
        homs = hom_set(probe, f.dom, cls)
        for h1 in homs:
            for h2 in homs:
                if h1 != h2 and compose(f, h1) == compose(f, h2):
                    return False
    return True


def test_classification_matches_categorical_oracle():
    c2, c3 = corpus.chain(2), corpus.chain(3)
    probes = [c2, c3, corpus.diamond()]
    for f in hom_set(c3, c2, "join") + hom_set(c2, c3, "join"):
        flags = classify_morphism(f)
        assert flags.epic == categorical_epi(f, probes)
        assert flags.monic == categorical_mono(f, probes)
        assert flags.epic == flags.surjective
        assert flags.monic == flags.injective


SMALL_PAIRS = [
    (l1, l2)
    for l1 in corpus.named_lattices(max_size=4).values()
    for l2 in corpus.named_lattices(max_size=4).values()
]


def ref_classify(f, cls):
    """The classification by its definition: composites against identity maps."""
    g = right_adjoint(f) if cls == "join" else left_adjoint(f)
    inverses = hom_set(f.cod, f.dom, cls)
    return (
        compose(f, g) == identity_map(f.cod),
        compose(g, f) == identity_map(f.dom),
        any(compose(h, f) == identity_map(f.dom) for h in inverses),
        any(compose(f, h) == identity_map(f.cod) for h in inverses),
    )


@pytest.mark.parametrize("cls", ["join", "meet"])
def test_classification_matches_composite_definition(cls):
    for l1, l2 in SMALL_PAIRS:
        for f in hom_set(l1, l2, cls):
            flags = classify_morphism(f, cls)
            got = (flags.epic, flags.monic, flags.section, flags.retraction)
            assert got == ref_classify(f, cls), (cls, f.values)


def ref_classify_refusal(f, cls):
    """The refusal of classify_morphism's old branches, read off the
    profile: (message, witness), or None for a map in the class."""
    if cls == "join":
        if preservation_profile(f).joins:
            return None
        return "map does not preserve joins", maps._join_witness(f.values, f.dom, f.cod)
    if preservation_profile(f).meets:
        return None
    return "map does not preserve meets", maps._join_witness(f.values, f.dom.dual, f.cod.dual)


@pytest.mark.parametrize("cls", ["join", "meet"])
def test_classification_refuses_as_the_profile_did(cls):
    # classify_morphism takes NotInClass from the adjoint it computes: a
    # residual exists only where the map fixes the bound, so the adjoint
    # fails exactly where the profile flag is false, with the same witness.
    outcomes = set()
    for l1, l2 in SMALL_PAIRS:
        for f in hom_set(l1, l2, "isotone"):
            try:
                classify_morphism(f, cls)
                got = None
            except NotInClass as exc:
                got = (str(exc), exc.witness)
            assert got == ref_classify_refusal(f, cls), (cls, f.values)
            outcomes.add(got if got is None else len(got[1]))
    # Maps in the class, maps that move the bound and maps that fail a pair.
    assert outcomes == {None, 1, 2}
    with pytest.raises(ValueError, match="cls must be 'join' or 'meet'"):
        classify_morphism(identity_map(TWO), "isotone")


def test_map_leq_matches_pointwise_definition():
    for l1, l2 in SMALL_PAIRS:
        fs = hom_set(l1, l2, "isotone")
        for f in fs:
            for g in fs:
                expected = all(l2.leq(f(a), g(a)) for a in l1.elements())
                assert map_leq(f, g) == expected
    d4, c2 = corpus.diamond(), corpus.chain(2)
    with pytest.raises(ShapeMismatch):
        map_leq(identity_map(d4), hom_set(d4, c2, "join")[0])
    with pytest.raises(ShapeMismatch):
        map_leq(identity_map(c2), hom_set(d4, c2, "join")[0])


class TestAdjunctionLaws:
    """Random-sample law checks over the small corpus."""

    names = ["C2", "C3", "C4", "D4", "B4", "N5", "M3"]

    @settings(deadline=None, max_examples=40)
    @given(
        dom=st.sampled_from(names),
        cod=st.sampled_from(names),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    def test_triangle_identities(self, dom, cod, pick):
        table = corpus.named_lattices()
        fs = hom_set(table[dom], table[cod], "join")
        f = fs[pick % len(fs)]
        g = right_adjoint(f)
        assert compose(f, compose(g, f)) == f
        assert compose(g, compose(f, g)) == g

    @settings(deadline=None, max_examples=40)
    @given(
        dom=st.sampled_from(names),
        cod=st.sampled_from(names),
        first=st.integers(min_value=0, max_value=10**6),
        second=st.integers(min_value=0, max_value=10**6),
    )
    def test_hom_order_antitone(self, dom, cod, first, second):
        table = corpus.named_lattices()
        fs = hom_set(table[dom], table[cod], "join")
        f1, f2 = fs[first % len(fs)], fs[second % len(fs)]
        assert map_leq(f1, f2) == map_leq(right_adjoint(f2), right_adjoint(f1))
