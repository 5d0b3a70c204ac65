"""State-property systems, centers, decomposition, spectra, causal relations,
and evolution adjoints."""

import random

import pytest

from latkit import corpus
from latkit.closure import is_boolean
from latkit.core import LatticeMap, identity_map
from latkit.errors import (
    NotAtomistic,
    NotBalancedAtZero,
    NotBoolean,
    NotFullyIsotone,
    NotMeetStable,
    ValidationError,
)
from latkit.maps import hom_set, preservation_profile
from latkit.stateprop import (
    CausalRelation,
    build_system,
    causal_closure,
    causal_to_map,
    center,
    center_sublattice,
    classical_decomposition,
    evolution_adjoint,
    map_to_causal,
    observable_spectrum,
    validate_causal,
)
from latkit.weak import WeakMeetMap, pointed_extend

from test_maps import nonempty_meets

ORTHOS = corpus.ortho_lattices()


def state_orthogonal(system, p, q):
    """p and q orthogonal as states: p below the complement of q."""
    return system.properties.lattice.leq(p, system.properties.comp(q))


def test_build_system_on_corpus():
    for name, ol in ORTHOS.items():
        if ol.size > 8:
            continue
        system = build_system(ol)
        lat = ol.lattice
        assert system.atom_support(lat.bottom) == frozenset()
        assert system.atom_support(lat.top) == frozenset(system.states)
        for a in lat.elements():
            for b in lat.elements():
                meet_support = system.atom_support(lat.meet2(a, b))
                assert meet_support == system.atom_support(a) & system.atom_support(b)


def test_build_system_requires_atomistic():
    from latkit.ortho import OrthoLattice

    n5 = corpus.n5()
    with pytest.raises(NotAtomistic):
        build_system(OrthoLattice(n5, (4, 3, 3, 1, 0)))


def test_state_orthogonality_matches_complement():
    o6 = ORTHOS["O6"]
    system = build_system(o6)
    a, b = system.states[0], system.states[1]
    assert not state_orthogonal(system, a, a)
    assert state_orthogonal(system, a, o6.lattice.atoms()[2]) == o6.lattice.leq(
        a, o6.comp(o6.lattice.atoms()[2])
    )


def test_center_of_boolean_is_everything():
    b8 = ORTHOS["B8"]
    assert center(b8) == list(b8.lattice.elements())


def test_center_of_o6_is_trivial():
    o6 = ORTHOS["O6"]
    assert center(o6) == [o6.lattice.bottom, o6.lattice.top]
    sub, elems = center_sublattice(o6)
    assert sub.size == 2 and elems == [o6.lattice.bottom, o6.lattice.top]


def test_classical_decomposition_boolean8():
    decomposition = classical_decomposition(ORTHOS["B8"])
    assert len(decomposition.factors) == 3
    assert all(factor.size == 2 for factor in decomposition.factors)
    assert decomposition.product.size == 8


def test_classical_decomposition_o6_single_factor():
    decomposition = classical_decomposition(ORTHOS["O6"])
    assert len(decomposition.factors) == 1
    assert decomposition.factors[0].size == 6


def test_spectrum_on_boolean_observables():
    b4, b8 = ORTHOS["B4"], ORTHOS["B8"]
    assert is_boolean(b4.lattice) and not is_boolean(ORTHOS["O6"].lattice)
    # Complement-preserving join/meet maps b4 -> b8.
    count = 0
    for m in hom_set(b4.lattice, b8.lattice, "join"):
        profile = preservation_profile(m)
        if not profile.meets:
            continue
        if any(m(b4.comp(a)) != b8.comp(m(a)) for a in b4.lattice.elements()):
            continue
        report = observable_spectrum(m, b4, b8)
        lat = b4.lattice
        assert lat.meet2(report.null_part, report.discrete_part) == lat.bottom
        assert lat.join2(report.null_part, report.discrete_part) == lat.top
        assert report.continuous_part == lat.bottom
        count += 1
    assert count > 0


def test_spectrum_rejects_non_boolean_domain():
    o6 = ORTHOS["O6"]
    with pytest.raises(NotBoolean):
        observable_spectrum(identity_map(o6.lattice), o6, o6)


def test_validate_causal_isotonicity_witness():
    d4, c2 = corpus.diamond(), corpus.chain(2)
    # Missing the dominated pair (0, 1).
    with pytest.raises(NotFullyIsotone) as err:
        validate_causal(CausalRelation(d4, c2, frozenset([(1, 1)])))
    assert err.value.witness is not None


def test_causal_roundtrip_through_weak_maps():
    table = corpus.named_lattices()
    picks = [table["C2"], table["C3"], table["D4"], table["B4"]]
    for l1 in picks:
        for l2 in picks:
            for g in hom_set(l2, l1, "isotone"):
                if not nonempty_meets(g):
                    continue
                weak = WeakMeetMap(g)
                relation = map_to_causal(weak)
                back = causal_to_map(relation)
                assert back.map == g


def test_causal_closure_is_representable():
    rng = random.Random(11)
    d4, b4 = corpus.diamond(), corpus.boolean_lattice(2)
    for _ in range(20):
        seeds = {
            (rng.randrange(d4.size), rng.randrange(b4.size))
            for _ in range(rng.randrange(1, 4))
        }
        relation = causal_closure(d4, b4, seeds)
        weak = causal_to_map(relation)
        assert map_to_causal(weak).pairs == relation.pairs


def test_unrepresentable_relation_raises():
    # Valid under both invariants, but the join of the two atom causes is
    # missing on the left, so no weak meet morphism induces it.
    b4, c2 = corpus.boolean_lattice(2), corpus.chain(2)
    pairs = {(a, c2.top) for a in (b4.bottom, b4.atoms()[0], b4.atoms()[1])}
    relation = validate_causal(CausalRelation(b4, c2, frozenset(pairs)))
    with pytest.raises(ValidationError):
        causal_to_map(relation)


def test_meet_stability_witness():
    # a ~> each coatom of b8 but not their meet.
    c2, b8 = corpus.chain(2), corpus.boolean_lattice(3)
    pairs = {(c2.bottom, b) for b in b8.elements()}
    pairs |= {(c2.top, b) for b in b8.elements() if b != b8.bottom}
    with pytest.raises(NotMeetStable):
        validate_causal(CausalRelation(c2, b8, frozenset(pairs)))


def test_propagation_is_pointed_extension_adjoint():
    d4 = corpus.diamond()
    g = identity_map(d4)
    upper = pointed_extend(WeakMeetMap(g))[1]
    assert upper.base_source == d4 and upper.base_target == d4


def test_evolution_adjoint_reports_density():
    b4 = ORTHOS["B4"]
    report = evolution_adjoint(identity_map(b4.lattice), b4, b4)
    assert report.dense
    assert report.atom_orthogonality == ()


def test_evolution_adjoint_requires_fixed_bottom():
    d4 = corpus.diamond()
    phi = LatticeMap(d4, d4, (1, 1, 3, 3))
    with pytest.raises(NotBalancedAtZero):
        evolution_adjoint(phi)
