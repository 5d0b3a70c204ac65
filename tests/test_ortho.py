"""Ortholattices, conjugation, dagger calculus, orthospaces."""

import itertools

import pytest

from latkit import corpus
from latkit.core import MAX_POWER_BASE, LatticeMap, identity_map, lattice_of_sets
from latkit.errors import LatkitError, NotSeparating, OrthoAxiomFailed, SizeLimit
from latkit.maps import compose, hom_set
from latkit.ortho import (
    OrthoLattice,
    OrthoSpace,
    atom_isomorphism,
    biortho_lattice,
    colatt_check,
    conjugate,
    dagger,
    is_isometry,
    lattice_isomorphic_with_ortho,
    orthospace_from_lattice,
    validate_ortho,
    validate_orthospace,
)

ORTHOS = corpus.ortho_lattices()


def test_validate_ortho_accepts_corpus():
    for name, ol in ORTHOS.items():
        lat = ol.lattice
        for a in lat.elements():
            assert ol.comp(ol.comp(a)) == a
            assert lat.meet2(a, ol.comp(a)) == lat.bottom
            assert lat.join2(a, ol.comp(a)) == lat.top


def test_validate_ortho_rejects_broken_tables():
    d4 = corpus.diamond()
    # Identity is not order reversing on a diamond.
    with pytest.raises(OrthoAxiomFailed):
        validate_ortho(d4, (0, 1, 2, 3))
    # Not involutive.
    with pytest.raises(OrthoAxiomFailed):
        validate_ortho(d4, (3, 1, 2, 0))


def test_conjugate_is_involutive():
    b4 = ORTHOS["B4"]
    for f in hom_set(b4.lattice, b4.lattice, "isotone"):
        assert conjugate(conjugate(f, b4, b4), b4, b4) == f


def test_dagger_involution_on_o6():
    o6 = ORTHOS["O6"]
    for f in hom_set(o6.lattice, o6.lattice, "join"):
        assert dagger(dagger(f, o6, o6), o6, o6) == f


def test_dagger_of_identity_and_zero():
    for ol in (ORTHOS["B4"], ORTHOS["O6"]):
        lat = ol.lattice
        assert dagger(identity_map(lat), ol, ol) == identity_map(lat)
        zero = LatticeMap(lat, lat, (lat.bottom,) * lat.size)
        assert dagger(zero, ol, ol) == zero


def test_dagger_contravariance_on_b4():
    b4 = ORTHOS["B4"]
    maps = hom_set(b4.lattice, b4.lattice, "join")
    table = {f.values: dagger(f, b4, b4) for f in maps}
    for f1 in maps:
        for f2 in maps:
            composite = compose(f2, f1)
            assert table[composite.values] == compose(table[f1.values], table[f2.values])


def test_isometry_oracle_agreement():
    o6 = ORTHOS["O6"]
    lat = o6.lattice
    found = 0
    for u in hom_set(lat, lat, "join"):
        # Order oracle: u preserves orthogonality a <= b' both ways.
        via_order = all(
            lat.leq(a, o6.comp(b)) == lat.leq(u(a), o6.comp(u(b)))
            for a in lat.elements()
            for b in lat.elements()
        )
        assert is_isometry(u, o6, o6) == via_order
        found += via_order
    assert found >= 1  # the identity at least


def test_colatt_check_identity():
    b8 = ORTHOS["B8"]
    assert colatt_check(identity_map(b8.lattice), b8, b8) is None


def test_colatt_check_boolean_inclusion():
    # Pad b4 atom-sets into b8 along a fixed atom embedding.
    b4, b8 = ORTHOS["B4"], ORTHOS["B8"]
    l4, l8 = b4.lattice, b8.lattice
    a0, a1 = l4.atoms()
    b0, b1 = l8.atoms()[0], l8.atoms()[1]
    values = []
    for x in l4.elements():
        image = []
        if l4.leq(a0, x):
            image.append(b0)
        if l4.leq(a1, x):
            image.append(b1)
        values.append(l8.join(image))
    h = LatticeMap(l4, l8, tuple(values))
    # Joins preserved, meets and complement are not (the image is not closed
    # under complement), so this must be rejected as a full ortho morphism.
    from latkit.errors import NotCOLattMorphism

    with pytest.raises(NotCOLattMorphism):
        colatt_check(h, b4, b8)


def test_orthospace_validation():
    spaces = corpus.orthospaces()
    for space in spaces.values():
        validate_orthospace(space)
    # Two points with no orthogonality cannot be separated.
    with pytest.raises(NotSeparating):
        validate_orthospace(OrthoSpace(2, (0, 0)))
    with pytest.raises(OrthoAxiomFailed):
        validate_orthospace(OrthoSpace(1, (1,)))


def test_biortho_lattice_of_pair_space_is_o6():
    # Four points with two orthogonal pairs generate the six-element
    # ortholattice with four incomparable middles.
    space = corpus.orthospaces()["P4pairs"]
    ol, sets = biortho_lattice(space)
    assert ol.size == 6
    lat, ortho = corpus.o6()
    reference = validate_ortho(lat, ortho)
    assert lattice_isomorphic_with_ortho(ol, reference) is not None


def ref_biortho_lattice(space):
    """The biclosure of every subset, in bitmask order."""
    if space.size > MAX_POWER_BASE:
        raise SizeLimit("%d points exceed powerset bound %d" % (space.size, MAX_POWER_BASE))
    for p in space.points():
        if space.biclosure(frozenset([p])) != frozenset([p]):
            raise NotSeparating("singleton %d not biorthogonal" % p, witness=p)
    subsets = []
    seen = set()
    for mask in range(1 << space.size):
        subset = frozenset(p for p in space.points() if mask >> p & 1)
        closed = space.biclosure(subset)
        if closed not in seen:
            seen.add(closed)
            subsets.append(closed)
    lattice, sets = lattice_of_sets(subsets)
    index = {s: i for i, s in enumerate(sets)}
    ortho = tuple(index[space.orthogonal_set(s)] for s in sets)
    return validate_ortho(lattice, ortho), sets


def biortho_outcome(build, space):
    try:
        ol, sets = build(space)
    except LatkitError as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None))
    return sets, ol.ortho, ol.lattice.poset.up, ol.lattice.labels


def test_biortho_lattice_matches_the_subset_loop():
    # Every symmetric antireflexive relation on at most 5 points, separating
    # or not, and one space past the powerset bound.
    spaces = [OrthoSpace(MAX_POWER_BASE + 1, (0,) * (MAX_POWER_BASE + 1))]
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            for j, (p, q) in enumerate(pairs):
                if mask >> j & 1:
                    rows[p] |= 1 << q
                    rows[q] |= 1 << p
            spaces.append(OrthoSpace(n, tuple(rows)))
    kinds = set()
    for space in spaces:
        got = biortho_outcome(biortho_lattice, space)
        assert got == biortho_outcome(ref_biortho_lattice, space), space
        kinds.add(got[0] if isinstance(got[0], type) else "built")
    assert kinds == {"built", NotSeparating, SizeLimit}


def test_orthospace_roundtrip_on_corpus():
    for name, ol in ORTHOS.items():
        space, _ = orthospace_from_lattice(ol)
        rebuilt, sets = biortho_lattice(space)
        iso = atom_isomorphism(ol, rebuilt, sets)
        assert iso is not None, name
        if ol.size <= 8:
            # The permutation search is the oracle where it is affordable.
            assert lattice_isomorphic_with_ortho(ol, rebuilt) is not None, name
            lat, new = ol.lattice, rebuilt.lattice
            assert all(
                lat.leq(a, b) == new.leq(iso[a], iso[b])
                for a in lat.elements()
                for b in lat.elements()
            ) and all(iso[ol.comp(a)] == rebuilt.comp(iso[a]) for a in lat.elements()), name


def test_atom_isomorphism_rejects_what_the_search_rejects():
    for name, ol in ORTHOS.items():
        if ol.size > 8:
            continue
        space, _ = orthospace_from_lattice(ol)
        rebuilt, sets = biortho_lattice(space)
        # An identity table is no orthocomplement, so no map carries ' to it.
        fixed = OrthoLattice(rebuilt.lattice, tuple(rebuilt.lattice.elements()))
        assert lattice_isomorphic_with_ortho(ol, fixed) is None, name
        assert atom_isomorphism(ol, fixed, sets) is None, name
        # The sets in reverse order name a different map, which reverses the order.
        if ol.size > 1:
            assert atom_isomorphism(ol, rebuilt, sets[::-1]) is None, name
    b4, b8 = ORTHOS["B4"], ORTHOS["B8"]
    rebuilt, sets = biortho_lattice(orthospace_from_lattice(b8)[0])
    assert atom_isomorphism(b4, rebuilt, sets) is None


def test_complete_orthospace_gives_boolean():
    space = corpus.orthospaces()["P4"]
    ol, _ = biortho_lattice(space)
    assert ol.size == 16
    assert ol.lattice.is_atomistic()
