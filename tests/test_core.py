"""Posets, lattices, and the basic constructions."""

import hashlib

import pytest

from latkit import corpus
from latkit.closure import fixed_points, monad_from_adjunction
from latkit.core import (
    FinitePoset,
    LatticeMap,
    Retract,
    build_poset,
    direct_product,
    horizontal_sum,
    lattice_from_poset,
    lattice_of_sets,
    lower_interval,
    random_moore_lattice,
    retract,
    sublattice_on,
    upper_extension,
)
from latkit.errors import (
    CycleDetected,
    FactorTooSmall,
    NotALattice,
    NotTransitive,
    ShapeMismatch,
    SizeLimit,
)
from latkit.maps import hom_set, right_adjoint

from test_kernel_oracle import cover_pairs, covers


def test_build_poset_transitive_closure():
    poset = build_poset(3, [(0, 1), (1, 2)])
    assert poset.up[0] >> 2 & 1
    assert not poset.up[2] >> 0 & 1


def test_build_poset_rejects_cycles():
    with pytest.raises(CycleDetected):
        build_poset(3, [(0, 1), (1, 2), (2, 0)])


def test_full_leq_mode_rejects_missing_transitivity():
    # The full relation given as is: 0<1 and 1<2 without 0<2.
    with pytest.raises(NotTransitive):
        FinitePoset((0b011, 0b110, 0b100)).validate()


def test_poset_covers():
    chain4 = corpus.chain(4)
    assert covers(chain4.poset, 0) == [1]
    assert cover_pairs(chain4.poset) == [(0, 1), (1, 2), (2, 3)]
    # The chain keeps the diagram it was built from, and its lattice reads it.
    assert chain4.poset.upper_covers == [[1], [2], [3], []]
    assert chain4.lower_covers == ((0, ()), (1, (0,)), (2, (1,)), (3, (2,)))


def test_lattice_tables_on_diamond():
    d4 = corpus.diamond()
    a, b = 1, 2
    assert d4.join2(a, b) == d4.top
    assert d4.meet2(a, b) == d4.bottom
    assert d4.join([]) == d4.bottom
    assert d4.meet([]) == d4.top
    assert d4.atoms() == [a, b]
    assert d4.dual.atoms() == [a, b]
    assert d4.is_atomistic()


def test_not_a_lattice_without_bounds():
    # Two incomparable points: no bottom.
    poset = FinitePoset((1, 2))
    with pytest.raises(NotALattice):
        lattice_from_poset(poset)


def test_n5_and_m3_shapes():
    n5 = corpus.n5()
    m3 = corpus.m3()
    assert n5.size == 5 and m3.size == 5
    assert not n5.is_atomistic()
    assert m3.is_atomistic()
    # Pentagon: c join a is the top, c meet b is the bottom.
    assert n5.join2(3, 1) == n5.top
    assert n5.meet2(3, 2) == n5.bottom


def test_lower_interval_projection_inclusion():
    b8 = corpus.boolean_lattice(3)
    for a in b8.elements():
        interval = lower_interval(b8, a)
        for x in interval.lattice.elements():
            # Project after include is the identity on the interval.
            assert interval.projection(interval.inclusion(x)) == x
        for x in b8.elements():
            assert interval.inclusion(interval.projection(x)) == b8.meet2(x, a)


def ref_lower_interval(lattice, a):
    """lower_interval as it was written by hand, without its cache."""
    elems = tuple(lattice.downset(a))
    sub = sublattice_on(lattice, elems)
    index = {e: i for i, e in enumerate(elems)}
    inclusion = LatticeMap._unchecked(sub, lattice, elems)
    down, by_down = lattice.poset.down, lattice.down_index
    projection = LatticeMap._unchecked(
        lattice, sub, tuple(index[by_down[row & down[a]]] for row in down)
    )
    return sub, elems, inclusion, projection


def ref_fixed_points(operator):
    """closure.fixed_points as it was written by hand."""
    ambient = operator.lattice
    elems = tuple(a for a in ambient.elements() if operator(a) == a)
    sub = sublattice_on(ambient, elems)
    index = {e: i for i, e in enumerate(elems)}
    inclusion = LatticeMap._unchecked(sub, ambient, elems)
    reflection = LatticeMap._unchecked(
        ambient, sub, tuple(index[operator(a)] for a in ambient.elements())
    )
    return sub, elems, inclusion, reflection


def test_intervals_and_fixed_points_are_the_retracts_they_were_built_as():
    # The 191 lower intervals of the corpus and the 8,896 fixed-point
    # lattices of g o f over every join map f between corpus lattices of at
    # most 5 elements, g its right adjoint.  The digest of the hand-built
    # references was taken when both were still written out by hand.
    pairs = [
        (lower_interval(lattice, a), ref_lower_interval(lattice, a))
        for lattice in corpus.named_lattices().values()
        for a in lattice.elements()
    ]
    small = corpus.named_lattices(max_size=5).values()
    for l1 in small:
        for l2 in small:
            for f in hom_set(l1, l2, "join"):
                operator = monad_from_adjunction(f, right_adjoint(f))
                pairs.append((fixed_points(operator), ref_fixed_points(operator)))
    assert len(pairs) == 191 + 8896
    lines = []
    for got, (sub, elems, inclusion, projection) in pairs:
        assert isinstance(got, Retract)
        assert got.lattice.poset.up == sub.poset.up and got.lattice.labels == sub.labels
        assert got.elements == elems
        assert got.inclusion == inclusion and got.projection == projection
        lines.append(repr((sub.poset.up, sub.labels, elems, inclusion.values, projection.values)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "470aa8c5cc2aeb056c94a8c2f9da5bf8adfe1bf71e4cac1e80f000322309f7f6"


def test_a_retract_is_ordered_as_in_the_lattice():
    # x |-> x \/ a is idempotent and isotone; its image is the upper
    # interval [a, 1], which the retract orders as the lattice does.
    n5 = corpus.n5()
    for a in n5.elements():
        upper = retract(n5, n5.join_table[a])
        assert upper.elements == tuple(x for x in n5.elements() if n5.leq(a, x))
        for i, x in enumerate(upper.elements):
            assert upper.inclusion(i) == x and upper.projection(x) == i
            for j, y in enumerate(upper.elements):
                assert upper.lattice.leq(i, j) == n5.leq(x, y)
        for x in n5.elements():
            assert upper.inclusion(upper.projection(x)) == n5.join2(x, a)


def test_direct_product_projections_and_sections():
    prod = direct_product([corpus.chain(2), corpus.chain(3)])
    assert prod.lattice.size == 6
    for k, factor in enumerate(prod.factors):
        for b in factor.elements():
            assert prod.projections[k](prod.bottom_sections[k](b)) == b
            assert prod.projections[k](prod.top_sections[k](b)) == b


def test_direct_product_size_guard():
    with pytest.raises(SizeLimit):
        direct_product([corpus.boolean_lattice(4)] * 2)


def test_horizontal_sum_shares_bounds():
    hs = horizontal_sum([corpus.chain(3), corpus.chain(3)])
    lat = hs.lattice
    assert lat.size == 4
    # Interiors from different factors meet at bottom and join at top.
    interior = [e for e in lat.elements() if e not in (lat.bottom, lat.top)]
    x, y = interior
    assert lat.meet2(x, y) == lat.bottom
    assert lat.join2(x, y) == lat.top
    for k, factor in enumerate(hs.factors):
        for e in factor.elements():
            assert hs.top_collapses[k](hs.inclusions[k](e)) == e
            assert hs.bottom_collapses[k](hs.inclusions[k](e)) == e


def test_horizontal_sum_rejects_tiny_factor():
    with pytest.raises(FactorTooSmall):
        horizontal_sum([corpus.chain(1), corpus.chain(3)])


def test_upper_extension_adjoins_strict_top():
    m3 = corpus.m3()
    ext = upper_extension(m3)
    assert ext.size == m3.size + 1
    assert ext.top == m3.size
    assert ext.leq(m3.top, ext.top)
    assert not ext.leq(ext.top, m3.top)
    # The old order embeds unchanged.
    for a in m3.elements():
        for b in m3.elements():
            assert ext.leq(a, b) == m3.leq(a, b)


def test_lattice_of_sets_sorted_and_ordered():
    lattice, sets = lattice_of_sets(
        [frozenset(), frozenset([0]), frozenset([1]), frozenset([0, 1])]
    )
    assert sets[0] == frozenset()
    assert sets[-1] == frozenset([0, 1])
    for i, s in enumerate(sets):
        for j, t in enumerate(sets):
            assert lattice.leq(i, j) == (s <= t)


def test_sublattice_on_preserves_order():
    b8 = corpus.boolean_lattice(3)
    elems = [b8.bottom, b8.atoms()[0], b8.top]
    sub = sublattice_on(b8, elems)
    assert sub.size == 3
    assert sub.leq(0, 1) and sub.leq(1, 2)


def test_random_moore_lattice_deterministic():
    first = random_moore_lattice(seed=7, n_points=5, n_generators=3)
    second = random_moore_lattice(seed=7, n_points=5, n_generators=3)
    assert first == second
    with pytest.raises(SizeLimit):
        random_moore_lattice(seed=7, n_points=40, n_generators=3)


def test_labels_shape_checked():
    with pytest.raises(ShapeMismatch):
        FinitePoset((1, 3), labels=("only-one",))


def test_corpus_names_and_sizes():
    table = corpus.named_lattices()
    assert table["C5"].size == 5
    assert table["B16"].size == 16
    assert table["O6"].size == 6
    assert len([n for n in table if n.startswith("R")]) == 20
    bounded = corpus.named_lattices(max_size=4)
    assert all(lat.size <= 4 for lat in bounded.values())
