"""Union maps, coherence, counting, basedness, and the strictness witnesses."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import core, corpus, transition
from latkit.core import LatticeMap, identity_map
from latkit.errors import IncoherentInput, NotStronglyIsotone, ShapeMismatch, SizeLimit
from latkit.maps import check_adjunction, compose, hom_set, pointwise_join, preservation_profile
from latkit.transition import (
    TransitionPair,
    all_subsets,
    all_union_maps,
    based_hull,
    coherence_check,
    compose_union,
    hom_count,
    is_based,
    nonzero,
    power_map,
    resolution,
    strictness_witness,
    transition_compose,
    transition_join,
    underlying_map,
    union_map,
    union_of,
)

TWO = corpus.chain(2)


def table(theta):
    """theta's images as sets, decoded from the layout of its pack: field i,
    len(nonzero(target)) bits wide, holds the image of nonzero(source)[i]."""
    elems, width = nonzero(theta.target), theta.target.size - 1
    return {
        a: frozenset(b for j, b in enumerate(elems) if theta.pack >> i * width + j & 1)
        for i, a in enumerate(nonzero(theta.source))
    }


def apply(images, subset):
    """theta(subset), given table(theta): the union of the images of its elements."""
    return frozenset().union(*[images[a] for a in subset])


def strong_isotonicity_witness(theta):
    """The subset B that underlying_map names when theta is not strongly
    isotone, or None when it is."""
    try:
        underlying_map(theta)
    except NotStronglyIsotone as exc:
        return exc.witness
    return None


def is_strongly_isotone(theta):
    return strong_isotonicity_witness(theta) is None


def ref_hom_count(category, source, target):
    """The TS or BS count by enumeration: every union map, tested one by one."""
    test = is_strongly_isotone if category == "TS" else is_based
    return sum(1 for theta in all_union_maps(source, target) if test(theta))


def union_leq(theta1, theta2):
    """theta1 <= theta2 pointwise: each image of theta1 inside theta2's."""
    t1, t2 = table(theta1), table(theta2)
    return all(t1[a] <= t2[a] for a in nonzero(theta1.source))


def test_resolution_adjunction_and_retraction():
    for lattice in (corpus.chain(3), corpus.diamond(), corpus.m3()):
        res = resolution(lattice)
        assert res.power_lattice.size == 1 << (lattice.size - 1)
        assert check_adjunction(res.collapse, res.expand)
        for a in lattice.elements():
            assert res.collapse(res.expand(a)) == a


def test_resolution_guard(monkeypatch):
    monkeypatch.setattr(core, "MAX_POWER_BASE", 4)
    with pytest.raises(SizeLimit, match="lattice size 8 exceeds powerset bound 4"):
        resolution(corpus.boolean_lattice(3))


def test_power_map_coherent_with_its_join_map():
    d4 = corpus.diamond()
    for f in hom_set(d4, d4, "join"):
        theta = power_map(f)
        assert coherence_check(f, theta, method="exhaustive")
        assert coherence_check(f, theta, method="fast")
        assert is_based(theta)
        assert underlying_map(theta) == f


def test_coherence_oracles_agree():
    table = corpus.named_lattices()
    picks = [table["C2"], table["C3"], table["D4"]]
    for l1 in picks:
        for l2 in picks:
            fs = hom_set(l1, l2, "join")
            for theta in all_union_maps(l1, l2):
                for f in fs:
                    fast = coherence_check(f, theta, method="fast")
                    slow = coherence_check(f, theta, method="exhaustive")
                    assert fast == slow


def test_strong_isotonicity_iff_underlying_map():
    d4 = corpus.diamond()
    for theta in all_union_maps(d4, d4):
        if is_strongly_isotone(theta):
            f = underlying_map(theta)
            assert coherence_check(f, theta)
        else:
            with pytest.raises(NotStronglyIsotone):
                underlying_map(theta)


def test_union_lattice_operations():
    m3 = corpus.m3()
    thetas = [power_map(f) for f in hom_set(m3, m3, "join")[:6]]
    big = union_of(thetas)
    for theta in thetas:
        assert union_leq(theta, big)
    with pytest.raises(ShapeMismatch):
        union_of([])


def test_compose_union_matches_power_of_compose():
    c3, d4 = corpus.chain(3), corpus.diamond()
    for f1 in hom_set(c3, d4, "join"):
        for f2 in hom_set(d4, c3, "join"):
            assert compose_union(power_map(f2), power_map(f1)) == power_map(
                compose(f2, f1)
            )


def test_compose_union_unions_the_images_of_the_images():
    # Union maps whose images hold several elements, so the composite's
    # image of a is a union of more than one image.
    c3, d4 = corpus.chain(3), corpus.diamond()
    seconds = all_union_maps(d4, c3)[::5]
    for first in all_union_maps(c3, d4):
        inner = table(first)
        for second in seconds:
            outer = table(second)
            expected = {a: apply(outer, inner[a]) for a in inner}
            assert compose_union(second, first) == union_map(c3, c3, expected)


def test_hom_count_identities_on_corpus():
    # Exact combinatorial identities for every corpus lattice of <= 5 elements.
    for name, lattice in corpus.named_lattices(max_size=5).items():
        n = lattice.size
        assert hom_count("PS", TWO, lattice) == n, name
        assert hom_count("BS", TWO, lattice) == 1 << (n - 1), name
        assert hom_count("TS", TWO, lattice) == 1 << (n - 1), name
        assert hom_count("FS", TWO, lattice) == 1 << (n - 1), name
        assert hom_count("PS", lattice, TWO) == n, name
        assert hom_count("TS", lattice, TWO) == n, name
        assert hom_count("FS", lattice, TWO) == 1 << (n - 1), name


def test_hom_count_closed_form_for_full_structures():
    c3, d4 = corpus.chain(3), corpus.diamond()
    assert hom_count("FS", c3, d4) == 8 ** 2
    assert hom_count("FS", d4, c3) == 4 ** 3


def test_strictness_witness_unbased_on_m3_and_n5():
    for lattice in (corpus.m3(), corpus.n5()):
        atom = lattice.atoms()[0]
        theta = strictness_witness(lattice, atom)
        assert coherence_check(identity_map(lattice), theta)
        assert is_strongly_isotone(theta)
        assert not is_based(theta)
        # The hull strictly under-approximates theta.
        hull = based_hull(theta)
        assert union_leq(hull, theta) and hull != theta


def test_strictness_witness_based_on_distributive_lattices():
    # On distributive carriers the same construction decomposes as a union
    # of two dominated power maps, so it stays based.
    from latkit.core import LatticeMap

    for lattice in (corpus.diamond(), corpus.boolean_lattice(2)):
        atom = lattice.atoms()[0]
        theta = strictness_witness(lattice, atom)
        assert is_based(theta)
        meet_with_atom = LatticeMap(
            lattice,
            lattice,
            tuple(lattice.meet2(x, atom) for x in lattice.elements()),
        )
        explicit = union_of([power_map(identity_map(lattice)), power_map(meet_with_atom)])
        assert explicit == theta


def ref_based_hull(theta, power_tables):
    """The hull by its definition: the union of the power maps that theta
    dominates, or the everywhere-empty map when it dominates none."""
    mine = table(theta)
    images = {a: frozenset() for a in mine}
    for power in power_tables:
        if all(power[a] <= mine[a] for a in mine):
            images = {a: images[a] | power[a] for a in mine}
    return union_map(theta.source, theta.target, images)


def test_hull_matches_the_power_map_union_on_small_corpus_pairs():
    # Every pair of corpus lattices of at most 4 elements, with every union
    # map: at most 8 ** 3 of them.
    pool = list(corpus.named_lattices(max_size=4).values())
    for source in pool:
        for target in pool:
            power_tables = [
                {a: frozenset([g(a)]) - {target.bottom} for a in nonzero(source)}
                for g in hom_set(source, target, "join")
            ]
            based = 0
            for theta in all_union_maps(source, target):
                hull = ref_based_hull(theta, power_tables)
                assert based_hull(theta) == hull
                assert is_based(theta) == (hull == theta)
                based += hull == theta
            assert hom_count("BS", source, target) == based


def copy_of(lattice, perm):
    """A new lattice instance with element i at lattice's perm[i], built
    from its up-sets, so it keeps no Hom-set."""
    up = tuple(
        sum(1 << j for j in range(lattice.size) if lattice.leq(perm[i], perm[j]))
        for i in range(lattice.size)
    )
    return core.lattice_from_poset(core.FinitePoset(up, tuple(lattice.labels[e] for e in perm)))


def keeps_no_hom_set(lattice):
    return not lattice._hom_sets and not lattice.__dict__.get("power_packs")


@pytest.mark.parametrize("renumber", [False, True])
def test_hull_searched_on_lattices_that_keep_no_hom_set(renumber):
    # The same comparison as above, on copies that keep no join Hom-set, so
    # based_hull searches the maps theta dominates; renumbered, reversed,
    # the bottom is no longer element 0 (C1 aside).  The power maps come
    # from equal copies of their own, which keep the Hom-set instead.
    pool = [
        copy_of(lattice, list(range(lattice.size))[:: -1 if renumber else 1])
        for lattice in corpus.named_lattices(max_size=4).values()
    ]
    if renumber:
        assert all(lattice.bottom == lattice.size - 1 for lattice in pool)
    for source, target in itertools.product(pool, repeat=2):
        twin = copy_of(source, range(source.size))
        power_tables = [
            {a: frozenset([g(a)]) - {target.bottom} for a in nonzero(source)}
            for g in hom_set(twin, target, "join")
        ]
        for theta in all_union_maps(source, target):
            hull = ref_based_hull(theta, power_tables)
            assert based_hull(theta) == hull
            assert is_based(theta) == (hull == theta)
        assert keeps_no_hom_set(source)


def test_witness_basedness_is_the_same_on_both_paths(monkeypatch):
    # Every corpus lattice's strictness witnesses, and those of a reversed
    # copy: searched on a lattice that keeps no join Hom-set, then scanned,
    # with no search, once the Hom-set is kept.
    search = transition._searched_hull
    for lattice in corpus.named_lattices().values():
        for copy in (lattice, copy_of(lattice, list(range(lattice.size))[::-1])):
            witnesses = [strictness_witness(copy, a) for a in nonzero(copy)]
            monkeypatch.setattr(transition, "_searched_hull", search)
            searched = [is_based(theta) for theta in witnesses]
            assert keeps_no_hom_set(copy)
            hom_set(copy, copy, "join")
            monkeypatch.setattr(transition, "_searched_hull", None)
            assert [is_based(theta) for theta in witnesses] == searched
            assert not keeps_no_hom_set(copy)


def test_based_counts_frozen():
    table = corpus.named_lattices()
    assert hom_count("BS", table["C2"], table["B8"]) == 128
    assert hom_count("BS", table["D4"], table["C3"]) == 21


def test_ts_and_bs_counts_match_the_enumeration_on_small_corpus_pairs():
    pool = list(corpus.named_lattices(max_size=4).values())
    for source, target in itertools.product(pool, repeat=2):
        for category in ("TS", "BS"):
            assert hom_count(category, source, target) == ref_hom_count(
                category, source, target
            ), (category, source.labels, target.labels)


def test_ts_and_bs_counts_frozen_on_heavy_pairs():
    # The counts that testing every union map gave (2^16 maps per pair but
    # the last, 2^15); that enumeration is too slow to repeat here.
    table = corpus.named_lattices()
    for source, target, ts, bs in (
        ("R18", "C3xC3", 52_669, 40_345),
        ("R13", "R13", 20_077, 8_859),
        ("C3xC3", "R18", 1_385, 381),
    ):
        assert hom_count("TS", table[source], table[target]) == ts, (source, target)
        assert hom_count("BS", table[source], table[target]) == bs, (source, target)
    # Every join map B16 -> C2 picks its one subset of C2 per element.
    assert hom_count("TS", table["B16"], table["C2"]) == 16


def test_ts_counts_read_no_subset_of_the_source(monkeypatch):
    # One union map into a one-element target, though D4 has 2^3 subsets.
    monkeypatch.setattr(transition, "ENUMERATION_BOUND", 4)
    assert hom_count("TS", corpus.diamond(), corpus.chain(1)) == 1
    assert hom_count("BS", corpus.diamond(), corpus.chain(1)) == 1


def test_strictness_witness_rejects_bottom_parameter():
    with pytest.raises(ShapeMismatch):
        strictness_witness(corpus.diamond(), corpus.diamond().bottom)


def test_transition_pair_requires_coherence():
    d4 = corpus.diamond()
    f = identity_map(d4)
    good = TransitionPair(f, power_map(f))
    assert good.map == f
    # Pair the identity with a union map that shrinks images.
    shrunk = union_map(d4, d4, {a: frozenset() for a in nonzero(d4)})
    with pytest.raises(IncoherentInput):
        TransitionPair(f, shrunk)


def test_transition_compose_and_join():
    d4 = corpus.diamond()
    fs = hom_set(d4, d4, "join")
    pairs = [TransitionPair(f, power_map(f)) for f in fs[:4]]
    composed = transition_compose(pairs[1], pairs[2])
    assert composed.map == compose(pairs[1].map, pairs[2].map)
    joined = transition_join(pairs)
    assert joined.map == pointwise_join([p.map for p in pairs])


def test_all_subsets_guard(monkeypatch):
    monkeypatch.setattr(transition, "ENUMERATION_BOUND", 4)
    with pytest.raises(SizeLimit, match="2\\^15 subsets exceed bound"):
        all_subsets(corpus.boolean_lattice(4))


class TestBasedness:
    """Power maps of join maps are always based; sampled over the corpus."""

    names = ["C2", "C3", "D4", "B4", "M3", "N5"]

    @settings(deadline=None, max_examples=30)
    @given(
        name=st.sampled_from(names),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    def test_power_maps_based(self, name, pick):
        lattice = corpus.named_lattices()[name]
        fs = hom_set(lattice, lattice, "join")
        theta = power_map(fs[pick % len(fs)])
        assert is_based(theta)

    @settings(deadline=None, max_examples=30)
    @given(
        name=st.sampled_from(names),
        picks=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=3
        ),
    )
    def test_unions_of_power_maps_based(self, name, picks):
        lattice = corpus.named_lattices()[name]
        fs = hom_set(lattice, lattice, "join")
        theta = union_of([power_map(fs[k % len(fs)]) for k in picks])
        assert is_based(theta)


# Reference implementations on frozensets, joined element by element, kept as
# oracles for the mask kernels; subsets is all_subsets of the source.


def ref_strong_isotonicity_witness(theta, subsets):
    src, tgt = theta.source, theta.target
    images = table(theta)
    pairs = [(src.join(s), tgt.join(apply(images, s)), s) for s in subsets]
    reach = {}
    for ja, ta, _ in pairs:
        for v in src.elements():
            if src.leq(ja, v):
                reach[v] = tgt.join2(reach.get(v, tgt.bottom), ta)
    for jb, tb, b in pairs:
        if not tgt.leq(reach.get(jb, tgt.bottom), tb):
            for ja, ta, a in pairs:
                if src.leq(ja, jb) and not tgt.leq(ta, tb):
                    return (a, b)
    return None


def ref_underlying_map(theta):
    """The join map coherent with theta; call only when it is strongly isotone."""
    src, tgt = theta.source, theta.target
    values = [
        tgt.bottom if a == src.bottom else tgt.join(table(theta)[a])
        for a in src.elements()
    ]
    return LatticeMap(src, tgt, tuple(values))


def ref_coherence_fast(f, theta):
    if not preservation_profile(f).joins:
        return False
    return all(f(a) == f.cod.join(image) for a, image in table(theta).items())


def ref_coherence_exhaustive(f, theta, subsets):
    images = table(theta)
    return all(f(f.dom.join(subset)) == f.cod.join(apply(images, subset)) for subset in subsets)


def ref_union_maps(source, target):
    choices = sorted(all_subsets(target), key=lambda s: (len(s), sorted(s)))
    elems = nonzero(source)
    return [
        union_map(source, target, dict(zip(elems, pick)))
        for pick in itertools.product(choices, repeat=len(elems))
    ]


def test_mask_kernels_match_frozenset_references():
    # Every pair of corpus lattices of at most 4 elements has at most
    # 8 ** 3 = 512 union maps, so every map is compared, including the
    # stride sample that the transition-coherence law reads.
    pool = corpus.named_lattices(max_size=4).values()
    for source, target in itertools.product(pool, repeat=2):
        homs = hom_set(source, target, "join")
        subsets = all_subsets(source)
        for k, theta in enumerate(all_union_maps(source, target)):
            witness = ref_strong_isotonicity_witness(theta, subsets)
            # underlying_map names B of the reference's failing pair (A, B):
            # the first subset that some A with join A <= join B breaks.
            expected = None if witness is None else tuple(sorted(witness[1]))
            assert strong_isotonicity_witness(theta) == expected
            if witness is None:
                expected = ref_underlying_map(theta)
                assert underlying_map(theta) == expected
            else:
                expected = None
                with pytest.raises(NotStronglyIsotone):
                    underlying_map(theta)
            for f in {expected, homs[k % len(homs)]} - {None}:
                assert coherence_check(f, theta, "fast") == ref_coherence_fast(f, theta)
                assert coherence_check(f, theta, "exhaustive") == ref_coherence_exhaustive(
                    f, theta, subsets
                )


def test_all_union_maps_is_an_indexed_product():
    # Targets of 5 and 8 elements too: from four nonzero elements on, the
    # order by elements differs from the order of the masks as integers.
    pool = corpus.named_lattices(max_size=4)
    wide = [(TWO, corpus.m3()), (corpus.chain(3), corpus.n5()), (TWO, corpus.boolean_lattice(3))]
    for source, target in list(itertools.product(pool.values(), repeat=2)) + wide:
        maps = all_union_maps(source, target)
        expected = ref_union_maps(source, target)
        assert len(maps) == len(expected)
        assert list(maps) == expected
        assert [maps[i] for i in range(len(maps))] == expected
        assert maps[-1] == expected[-1]
        for step in (1, 3, max(1, len(expected) // 64)):
            assert maps[::step] == expected[::step]
        assert maps[-2::-5] == expected[-2::-5]
        for past in (len(maps), -len(maps) - 1):
            with pytest.raises(IndexError):
                maps[past]


def test_all_union_maps_guards_keep_their_messages(monkeypatch):
    b16 = corpus.boolean_lattice(4)
    monkeypatch.setattr(transition, "ENUMERATION_BOUND", 1 << 12)
    with pytest.raises(SizeLimit, match="2\\^15 subsets exceed bound"):
        all_union_maps(TWO, b16)
    monkeypatch.setattr(transition, "ENUMERATION_BOUND", 1 << 8)
    with pytest.raises(SizeLimit, match="512 union maps exceed bound 256"):
        all_union_maps(corpus.diamond(), corpus.diamond())


def test_union_map_masks_follow_the_images():
    m3 = corpus.m3()
    for theta in all_union_maps(TWO, m3):
        (image,) = table(theta).values()
        assert theta.images() == [sum(1 << i for i, b in enumerate(nonzero(m3)) if b in image)]
    for bad in (m3.bottom, m3.size):
        with pytest.raises(ShapeMismatch, match="zero or out-of-range"):
            union_map(m3, m3, {a: frozenset([bad]) for a in nonzero(m3)})
    theta = power_map(identity_map(m3))
    assert theta == union_map(m3, m3, table(theta)) and hash(theta) == hash(
        union_map(m3, m3, table(theta))
    )


def test_packs_rebuild_from_their_images_on_small_corpus_pairs():
    # Every union map between corpus lattices of at most 4 elements: the
    # set-to-pack converter rebuilds it from its images, and distinct maps
    # have distinct packs and distinct images.
    pool = corpus.named_lattices(max_size=4).values()
    for source, target in itertools.product(pool, repeat=2):
        maps = all_union_maps(source, target)
        packs, images = set(), set()
        for theta in maps:
            mine = table(theta)
            assert union_map(source, target, mine) == theta
            packs.add(theta.pack)
            images.add(frozenset(mine.items()))
        assert len(packs) == len(images) == len(maps)


def test_the_coherence_sample_skips_only_maps_that_are_not_strongly_isotone(monkeypatch):
    # The transition-coherence law skips a sampled union map with no
    # coherent join map, and nothing else: another error from a check of
    # the sample fails the law with its name.
    from latkit import suite

    d4 = corpus.diamond()
    (law,) = [law for law in suite.LAWS if law.prop == "transition-coherence"]
    assert law.body(d4, d4) is None
    real = transition.coherence_check

    def planted(f, theta, method="fast"):
        if method == "exhaustive":  # read by the sample alone
            raise ShapeMismatch("planted")
        return real(f, theta, method)

    monkeypatch.setattr(transition, "coherence_check", planted)
    reports = []
    suite._collect([(law.prop, "D4", lambda: law.body(d4, d4))], reports)
    assert (reports[0].status, reports[0].witness) == ("fail", "ShapeMismatch: planted")
