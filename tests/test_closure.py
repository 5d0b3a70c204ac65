"""Closure operators, closure spaces, the space/lattice equivalence, and
the power and Boolean functors."""

import functools
import itertools
import random
from types import SimpleNamespace

import pytest

from latkit import closure, corpus, io, suite
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
from latkit.core import LatticeMap, lattice_of_sets
from latkit.errors import (
    NotAtomicMap,
    NotAtomistic,
    NotBoolean,
    NotClosure,
    NotContinuous,
    NotSimple,
    ShapeMismatch,
)
from latkit.maps import check_adjunction, compose, hom_set, right_adjoint

from test_hom_oracle import renumber


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
    return [alpha for alpha in every_partial_map(source, target) if check_continuity(alpha)[0]]


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


def ref_lattice_roundtrip(lattice):
    """lattice_roundtrip with the order compared pair by pair."""
    space, _ = closure.lattice_to_space(lattice)
    if not space.is_simple():
        return "space of atoms is not simple", None
    closed_lattice, sets = closure.space_to_lattice(space)
    index = {s: i for i, s in enumerate(sets)}
    psi = []
    for a, image in enumerate(lattice.atom_sets):
        if image not in index:
            return "image of %s not closed" % lattice.labels[a], None
        psi.append(index[image])
    if len(set(psi)) != lattice.size or closed_lattice.size != lattice.size:
        return "not bijective", None
    for a in lattice.elements():
        for b in lattice.elements():
            if lattice.leq(a, b) != closed_lattice.leq(psi[a], psi[b]):
                return "order not preserved", None
    return None, LatticeMap(lattice, closed_lattice, tuple(psi))


def test_lattice_roundtrip_compares_rows_as_the_pairwise_loop_compares_pairs(monkeypatch):
    rng = random.Random(30)
    atomistic = [lat for lat in corpus.named_lattices().values() if lat.is_atomistic()]
    atomistic += [renumber(lat, rng.sample(range(lat.size), lat.size)) for lat in atomistic]
    for lattice in atomistic:
        assert lattice_roundtrip(lattice) == ref_lattice_roundtrip(lattice)
        assert lattice_roundtrip(lattice)[0] is None
    # The same closed sets, ordered as a chain: a bijection that does not
    # preserve the order unless the lattice is a chain too.
    real = closure.space_to_lattice
    monkeypatch.setattr(closure, "space_to_lattice", lambda space: (
        corpus.chain(real(space)[0].size), real(space)[1]
    ))
    verdicts = set()
    for lattice in atomistic:
        verdicts.add(lattice_roundtrip(lattice)[0])
        assert lattice_roundtrip(lattice) == ref_lattice_roundtrip(lattice)
    assert verdicts == {None, "order not preserved"}


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
        closed ^= variant["toggle"]
        # The reference reads the sets, space_roundtrip the masks.
        masks = tuple(sum(1 << i for i in s) for s in closed)
        return SimpleNamespace(closed=frozenset(closed), masks=masks), moved

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


def test_bridges_are_kept_and_refusals_are_raised_on_every_call():
    space = corpus.closure_spaces()["S3line"]
    assert space_to_lattice(space) is space_to_lattice(space)
    lattice = space_to_lattice(space)[0]
    assert lattice_to_space(lattice) is lattice_to_space(lattice)
    assert discrete_space(3) is discrete_space(3)
    not_simple, n5 = ClosureSpace(2, [[], [0, 1]]), corpus.n5()
    for _ in range(2):
        with pytest.raises(NotSimple):
            space_to_lattice(not_simple)
        with pytest.raises(NotAtomistic):
            lattice_to_space(n5)
    assert is_boolean(lattice) is is_boolean(lattice) is False


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


# ------------------------------------------------ input contracts, mask oracles
# The references below are the frozenset code that closure spaces, continuous
# maps, the sweep's continuous-map loop and io.format_cspace ran before they
# moved to masks.


def test_closure_space_refuses_a_point_outside_or_a_wrong_label_count():
    with pytest.raises(ShapeMismatch):
        ClosureSpace(2, frozenset({frozenset({0, 1}), frozenset({0, 1, 5})}))
    with pytest.raises(ShapeMismatch):
        ClosureSpace(2, discrete_space(2).closed, labels=("a",))


def test_closure_space_takes_any_iterable_of_sets():
    listed = ClosureSpace(2, [{0, 1}, [0], (), {0}])
    family = frozenset([frozenset(), frozenset([0]), frozenset([0, 1])])
    assert listed.closed == family
    assert listed == ClosureSpace(2, family)
    assert hash(listed) == hash(ClosureSpace(2, family))


@pytest.mark.parametrize("kernel, mapping", [((), {0: 9, 1: 0}), ((7,), {0: 0, 1: 0})])
def test_partial_map_refuses_a_kernel_point_or_an_image_outside_its_space(kernel, mapping):
    space = discrete_space(2)
    with pytest.raises(ShapeMismatch):
        partial_map(space, space, kernel, mapping)


def ref_closure_of(space, subset):
    subset = frozenset(subset)
    out = frozenset(range(space.size))
    for c in space.closed:
        if subset <= c:
            out &= c
    return out


def ref_check_continuity(alpha):
    table = dict(alpha.mapping)
    for closed_set in sorted(alpha.target.closed, key=lambda s: (len(s), sorted(s))):
        pulled = alpha.kernel | frozenset(p for p in table if table[p] in closed_set)
        if pulled not in alpha.source.closed:
            return False, closed_set
    return True, None


def ref_continuous_maps(s1, s2):
    """The sweep's loop over every kernel mask, with the frozenset check."""
    return [alpha for alpha in every_partial_map(s1, s2) if ref_check_continuity(alpha)[0]]


def every_partial_map(s1, s2):
    points = list(s1.points())
    for kernel_mask in range(1 << s1.size):
        kernel = frozenset(p for p in points if kernel_mask >> p & 1)
        free = [p for p in points if p not in kernel]
        for choice in itertools.product(range(s2.size), repeat=len(free)):
            yield partial_map(s1, s2, kernel, dict(zip(free, choice)))


def ref_format_cspace(name, space):
    lines = ["cspace %s" % name, "points: %s" % " ".join(space.labels)]
    sets = sorted(space.closed, key=lambda s: (len(s), sorted(s)))
    tokens = [
        "{%s}" % ",".join(space.labels[p] for p in sorted(s))
        for s in sets
        if s != frozenset(range(space.size))
    ]
    if tokens:
        lines.append("closed: %s" % " ".join(tokens))
    return "\n".join(lines) + "\n"


def moore_families(n):
    """Every family of subsets of n points, as frozensets, and whether it is
    a Moore family: it holds the full set and is closed under intersection."""
    subsets = [frozenset(p for p in range(n) if m >> p & 1) for m in range(1 << n)]
    for bits in range(1 << len(subsets)):
        family = frozenset(s for j, s in enumerate(subsets) if bits >> j & 1)
        closed = all(a & b in family for a in family for b in family)
        moore = frozenset(range(n)) in family and closed
        yield family, moore


@functools.lru_cache(maxsize=None)
def spaces_on(n):
    """Every closure space on n points, one per Moore family."""
    return tuple(ClosureSpace(n, family) for family, moore in moore_families(n) if moore)


def test_closure_spaces_are_exactly_the_moore_families():
    for n, count in enumerate([1, 2, 7, 61]):  # OEIS A102896
        accepted = 0
        for family, moore in moore_families(n):
            try:
                space = ClosureSpace(n, family)
            except NotClosure:
                assert not moore, family
                continue
            assert moore, family
            assert space.closed == family
            assert [space.position[m] for m in space.masks] == list(range(len(family)))
            assert [set(s) for s in lattice_of_sets(family)[1]] == [
                set(p for p in range(n) if m >> p & 1) for m in space.masks
            ]
            accepted += 1
        assert accepted == count == len(spaces_on(n))
    for n in range(7):
        points = [frozenset(p for p in range(n) if m >> p & 1) for m in range(1 << n)]
        in_order = sorted(points, key=lambda s: (len(s), sorted(s)))
        assert discrete_space(n).masks == tuple(sum(1 << p for p in s) for s in in_order)


def test_closure_of_matches_the_frozenset_reference():
    for n in range(4):
        for space in spaces_on(n):
            for m in range(1 << n):
                subset = [p for p in range(n) if m >> p & 1]
                assert space.closure_of(subset) == ref_closure_of(space, subset)


def assert_continuity_matches_the_reference(s1, s2):
    """check_continuity gives the reference's verdict and witness on every
    partial map s1 -> s2, and the pruned sweep loop the reference's list."""
    continuous = []
    for alpha in every_partial_map(s1, s2):
        verdict = check_continuity(alpha)
        assert verdict == ref_check_continuity(alpha), (alpha.kernel, alpha.mapping)
        if verdict[0]:
            continuous.append(alpha)
    pruned = suite._continuous_maps(s1, s2)
    assert [(a.kernel, a.mapping) for a in pruned] == [(a.kernel, a.mapping) for a in continuous]


def test_continuity_matches_the_reference_on_every_pair_up_to_two_points():
    small = [space for n in range(3) for space in spaces_on(n)]
    for s1, s2 in itertools.product(small, repeat=2):
        assert_continuity_matches_the_reference(s1, s2)


def test_continuity_matches_the_reference_on_sampled_pairs_of_three_points():
    rng = random.Random(29)
    pairs = list(itertools.product(spaces_on(3), repeat=2))
    for s1, s2 in rng.sample(pairs, 2000):
        assert_continuity_matches_the_reference(s1, s2)


def test_the_pruned_loop_gives_the_old_list_on_every_corpus_pair():
    spaces = corpus.closure_spaces()
    for s1, s2 in itertools.product(spaces.values(), repeat=2):
        old = ref_continuous_maps(s1, s2)
        assert [(a.kernel, a.mapping) for a in suite._continuous_maps(s1, s2)] == [
            (a.kernel, a.mapping) for a in old
        ]


def test_format_cspace_writes_the_old_text():
    named = list(corpus.closure_spaces().items())
    named += [("M%d" % i, space) for n in range(4) for i, space in enumerate(spaces_on(n))]
    for name, space in named:
        assert io.format_cspace(name, space) == ref_format_cspace(name, space)
