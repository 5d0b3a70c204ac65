"""Closure operators, closure spaces, the space/lattice equivalence, and
the power and Boolean functors."""

import functools
import itertools
from types import SimpleNamespace

import pytest

from latkit import closure, corpus
from latkit.closure import (
    BooleanDualityReport,
    ClosureSpace,
    atom_set_maps,
    boolean_duality,
    check_continuity,
    compose_continuous,
    discrete_space,
    fixed_points,
    is_boolean,
    join_map_to_partial,
    lattice_roundtrip,
    lattice_to_space,
    map_to_join_map,
    monad_from_adjunction,
    partial_map,
    power_functors,
    require_continuous,
    space_roundtrip,
    space_to_lattice,
    validate_closure,
)
from latkit.core import lattice_of_sets
from latkit.errors import (
    NotAtomicMap,
    NotBoolean,
    NotClosure,
    NotContinuous,
    NotSimple,
)
from latkit.maps import check_adjunction, compose, hom_set, right_adjoint


def test_validate_closure_rejects_each_axiom():
    c3 = corpus.chain(3)
    with pytest.raises(NotClosure):
        validate_closure(c3, (0, 0, 2))  # not inflationary at 1
    # Not idempotent: 0 -> 1 -> 2.
    with pytest.raises(NotClosure):
        validate_closure(c3, (1, 2, 2))
    # Not isotone: 0 -> 2 but 1 -> 1.
    with pytest.raises(NotClosure):
        validate_closure(c3, (2, 1, 2))
    operator = validate_closure(c3, (1, 1, 2))
    assert [a for a in c3.elements() if operator(a) == a] == [1, 2]


def test_monad_fixed_points_equal_image():
    table = corpus.named_lattices(max_size=5)
    for l1 in table.values():
        for l2 in table.values():
            for f in hom_set(l1, l2, "join"):
                g = right_adjoint(f)
                operator = monad_from_adjunction(f, g)
                assert [a for a in l1.elements() if operator(a) == a] == g.image()


def test_fixed_point_lattice_joins_are_closed_joins():
    b8 = corpus.boolean_lattice(3)
    c2 = corpus.chain(2)
    f = hom_set(b8, c2, "join")[1]
    operator = monad_from_adjunction(f, right_adjoint(f))
    fixed = fixed_points(operator)
    for x in fixed.lattice.elements():
        assert fixed.projection(fixed.inclusion(x)) == x


def test_closure_space_moore_family_checked():
    # The full point set must be closed.
    with pytest.raises(NotClosure):
        ClosureSpace(2, frozenset([frozenset()]))
    # {0,1} and {1,2} without {1} is not intersection closed.
    with pytest.raises(NotClosure):
        ClosureSpace(
            3,
            frozenset(
                [frozenset([0, 1]), frozenset([1, 2]), frozenset([0, 1, 2])]
            ),
        )


def test_closure_of_is_smallest_closed_superset():
    space = corpus.closure_spaces()["S3pair"]
    assert space.closure_of([0]) == frozenset([0])
    assert space.closure_of([0, 2]) == frozenset([0, 1, 2])
    assert space.closure_of([]) == frozenset()
    assert space.is_simple()


def all_partial_maps(source, target):
    out = []
    points = list(source.points())
    for kernel_mask in range(1 << source.size):
        kernel = [p for p in points if kernel_mask >> p & 1]
        defined = [p for p in points if p not in kernel]
        for images in itertools.product(range(target.size), repeat=len(defined)):
            candidate = partial_map(source, target, kernel, dict(zip(defined, images)))
            if check_continuity(candidate)[0]:
                out.append(candidate)
    return out


def test_continuity_and_composition():
    spaces = corpus.closure_spaces()
    s2, s3 = spaces["S2"], spaces["S3line"]
    for alpha in all_partial_maps(s2, s3):
        for beta in all_partial_maps(s3, s2):
            composite = compose_continuous(beta, alpha)
            # Composite kernel is the first kernel plus the pullback of the second.
            assert composite.kernel == alpha.kernel | alpha.preimage(beta.kernel)


def test_discontinuous_map_rejected():
    line = corpus.closure_spaces()["S3line"]
    s3 = corpus.closure_spaces()["S3"]
    # Send the glued pair apart so the preimage of a singleton is not closed?
    # On these spaces every total map is continuous, so break it with a
    # two-point target whose only closed singleton splits the glued pair.
    target = ClosureSpace(
        2, frozenset([frozenset(), frozenset([0]), frozenset([0, 1])])
    )
    bad = partial_map(line, target, [], {0: 0, 1: 1, 2: 0})
    ok, witness = check_continuity(bad)
    assert not ok and witness == frozenset([0])
    with pytest.raises(NotContinuous):
        require_continuous(bad)
    del s3


def test_space_lattice_equivalence_roundtrips():
    for name, space in corpus.closure_spaces().items():
        assert space_roundtrip(space) is None, name
    for name, lattice in corpus.named_lattices(max_size=8).items():
        if lattice.is_atomistic():
            witness, psi = lattice_roundtrip(lattice)
            assert witness is None, name
            assert psi is not None


def ref_space_roundtrip(space):
    """Closedness compared subset by subset, in bitmask order."""
    lattice, sets = closure.space_to_lattice(space)
    back, ats = closure.lattice_to_space(lattice)
    atom_of = {}
    for i, a in enumerate(ats):
        (point,) = sets[a]
        atom_of[point] = i
    if sorted(atom_of) != list(space.points()):
        return "atom/point mismatch"
    for mask in range(1 << space.size):
        subset = frozenset(p for p in space.points() if mask >> p & 1)
        transported = frozenset(atom_of[p] for p in subset)
        if (subset in space.closed) != (transported in back.closed):
            return "closed families differ at %s" % sorted(subset)
    return None


def simple_spaces(max_points):
    """Every simple closure space on at most max_points points."""
    for n in range(max_points + 1):
        base = {frozenset(), frozenset(range(n))} | {frozenset([p]) for p in range(n)}
        middle = [frozenset(c) for k in range(2, n) for c in itertools.combinations(range(n), k)]
        for mask in range(1 << len(middle)):
            family = base | {s for j, s in enumerate(middle) if mask >> j & 1}
            if all(a & b in family for a in family for b in family):
                yield ClosureSpace(n, frozenset(family))


def test_space_roundtrip_matches_the_subset_loop(monkeypatch):
    # The real rebuilt space numbers its atoms as the points, so the
    # transport is the identity and every roundtrip passes.  Renumber the
    # atoms by a rotation and toggle one closed set of the rebuilt family,
    # so that the transport direction and the reported subset both matter.
    # Each space's lattice and rebuilt space are built once for all variants.
    real = functools.lru_cache(maxsize=None)(closure.lattice_to_space)
    variant = {}
    monkeypatch.setattr(
        closure, "space_to_lattice", functools.lru_cache(maxsize=None)(closure.space_to_lattice)
    )

    def rebuilt(lattice):
        space, ats = real(lattice)
        k, shift = len(ats), variant["shift"]
        moved = [ats[(i - shift) % k] for i in range(k)]
        closed = {frozenset((i + shift) % k for i in s) for s in space.closed}
        return SimpleNamespace(closed=frozenset(closed ^ variant["toggle"])), moved

    monkeypatch.setattr(closure, "lattice_to_space", rebuilt)
    details = set()
    for space in simple_spaces(4):
        subsets = [frozenset(itertools.compress(range(space.size), bits))
                   for bits in itertools.product((0, 1), repeat=space.size)]
        for shift in (0, 1):
            for toggle in [set()] + [{s} for s in subsets]:
                variant.update(shift=shift, toggle=toggle)
                witness = space_roundtrip(space)
                assert witness == ref_space_roundtrip(space), (space, shift, toggle)
                details.add(witness and witness.split(" at ")[0])
    assert details == {None, "closed families differ"}


def test_space_to_lattice_requires_simple():
    not_simple = ClosureSpace(2, frozenset([frozenset(), frozenset([0, 1])]))
    with pytest.raises(NotSimple):
        space_to_lattice(not_simple)


def test_morphism_functors_are_mutually_inverse():
    spaces = corpus.closure_spaces()
    for s1 in (spaces["S2"], spaces["S3pair"]):
        for s2 in (spaces["S2"], spaces["S3line"]):
            for alpha in all_partial_maps(s1, s2):
                forward, backward = map_to_join_map(alpha)
                assert right_adjoint(forward) == backward
                back = join_map_to_partial(forward)
                # The reconstructed partial map lives on the equivalent
                # atom spaces; the kernel and arity must be recovered.
                assert back.kernel == alpha.kernel
                assert len(back.mapping) == len(alpha.mapping)


def test_join_map_to_partial_requires_atomic_images():
    b4 = corpus.boolean_lattice(2)
    # Send an atom to the top.
    from latkit.core import LatticeMap

    f = LatticeMap(b4, b4, (0, 3, 2, 3))
    with pytest.raises(NotAtomicMap):
        join_map_to_partial(f)


def test_power_functors_adjoint_and_one_sided_identities():
    from latkit.core import identity_map

    for n_source in range(1, 4):
        for n_target in range(1, 4):
            for mapping in itertools.product(range(n_target), repeat=n_source):
                direct, inverse = power_functors(mapping, n_source, n_target)
                assert check_adjunction(direct, inverse)
                injective = len(set(mapping)) == n_source
                surjective = set(mapping) == set(range(n_target))
                assert (compose(inverse, direct) == identity_map(direct.dom)) == injective
                assert (compose(direct, inverse) == identity_map(direct.cod)) == surjective


def test_atom_set_maps_mutual_inverses():
    from latkit.core import identity_map

    for n in (2, 3, 4):
        lattice = corpus.boolean_lattice(n)
        mu, rho = atom_set_maps(lattice)
        assert compose(rho, mu) == identity_map(lattice)
        assert compose(mu, rho) == identity_map(mu.cod)
    with pytest.raises(NotBoolean):
        atom_set_maps(corpus.m3())


def test_boolean_duality_agreement():
    c2 = corpus.chain(2)
    b4 = corpus.boolean_lattice(2)
    b8 = corpus.boolean_lattice(3)
    assert is_boolean(c2) and is_boolean(b4) and not is_boolean(corpus.n5())
    for dom, cod in [(c2, b4), (b4, b4), (b4, b8), (b8, b4)]:
        for f in hom_set(dom, cod, "join"):
            report = boolean_duality(f, right_adjoint(f))
            assert isinstance(report, BooleanDualityReport)
            assert report.agree


def test_closed_set_lattice_of_discrete_space_is_boolean():
    lattice, sets = lattice_of_sets(discrete_space(3).closed)
    assert lattice.size == 8
    assert is_boolean(lattice)
    space, ats = lattice_to_space(lattice)
    assert space.size == 3
    del sets, ats
