"""The Hom-set value masks and the row-mask validators against the pairwise
scans they replace.

The references below are the scans the library and the law bodies ran
before: check_adjunction and the unit/counit loop over every pair of maps,
map_leq over every pair, the _inverts scan over the reverse Hom-set, and
the validators' full scans.  Each mask result must equal its reference on
every input, and each validator must raise exactly when its scan does, with
the same exception and message and a witness that names a real failure.  The planted defects at the end
break one input of each rewritten law; the law body must return the witness
that the old body returns on it.
"""

import itertools
import random

import pytest

from latkit import closure, core, corpus, maps, stateprop, suite, transition, weak
from latkit.closure import validate_closure
from latkit.errors import (
    LatkitError,
    NotClosure,
    NotFullyIsotone,
    NotMeetStable,
    ValidationError,
)
from latkit.maps import (
    _hom,
    _inverts,
    check_adjunction,
    classify_morphism,
    hom_set,
    left_adjoint,
    right_adjoint,
)
from latkit.stateprop import CausalRelation, validate_causal

from test_closure import ref_check_continuity, ref_continuous_maps
from test_hom_oracle import renumber
from test_maps import map_leq
from test_weak import (
    ref_compose_partial,
    ref_partial_to_upper,
    ref_restrict_codomain,
    ref_upper_to_partial,
)

LATTICES = corpus.named_lattices()


def pairs(bound):
    small = [lat for lat in LATTICES.values() if lat.size <= bound]
    return list(itertools.product(small, repeat=2))


def mask(bits):
    return sum(1 << i for i, bit in enumerate(bits) if bit)


# ---------------------------------------------------------------- references


def ref_adjoint_unique(l1, l2):
    """The adjoint-unique body before the value masks: every join map
    against every meet map."""
    up1, up2 = l1.poset.up, l2.poset.up
    meets = suite._homs(l2, l1, "meet")
    for f in suite._homs(l1, l2, "join"):
        matches = []
        for g in meets:
            adjoint = check_adjunction(f, g)
            fv, gv = f.values, g.values
            unit_counit = all(
                row >> gv[fv[a]] & 1 for a, row in enumerate(up1)
            ) and all(up2[fv[y]] >> b & 1 for b, y in enumerate(gv))
            if adjoint != unit_counit:
                return "adjunction oracles disagree for %s, %s" % (f.values, g.values)
            if adjoint:
                matches.append(g)
        if len(matches) != 1:
            return "%d adjoint candidates for %s" % (len(matches), f.values)
    return None


def ref_duality(l1, l2):
    """The duality-involution body before the value masks: map_leq on every
    pair of join maps and of their adjoints."""
    joins = suite._homs(l1, l2, "join")
    for f in joins:
        g = suite.right_adjoint(f)
        if suite.left_adjoint(g) != f:
            return "double dual differs for %s" % (f.values,)
    for f in joins:
        for h in joins:
            if map_leq(f, h) != map_leq(suite.right_adjoint(h), suite.right_adjoint(f)):
                return "antitonicity fails for %s vs %s" % (f.values, h.values)
    return None


def ref_adjoint_laws(l1, l2):
    """The adjoint-laws body before the value tables: four compose maps and
    two record compares per join map."""
    for f in suite._homs(l1, l2, "join"):
        g = suite.right_adjoint(f)
        if not suite.check_adjunction(f, g):
            return "adjunction fails for %s" % (f.values,)
        if not suite.preservation_profile(g).meets:
            return "adjoint not meet preserving for %s" % (f.values,)
        if maps.compose(maps.compose(f, g), f) != f:
            return "f o f* o f != f for %s" % (f.values,)
        if maps.compose(maps.compose(g, f), g) != g:
            return "f* o f o f* != f* for %s" % (f.values,)
    return None


def ref_classify(f, cls="join"):
    """classify_morphism with its one-sided inverses found by the _inverts
    scan over the reverse Hom-set."""
    flags = classify_morphism(f, cls)
    inverses = hom_set(f.cod, f.dom, cls)
    return maps.MorphismFlags(
        epic=flags.epic,
        monic=flags.monic,
        section=any(_inverts(h, f) for h in inverses),
        retraction=any(_inverts(f, h) for h in inverses),
        injective=flags.injective,
        surjective=flags.surjective,
        balanced=flags.balanced,
        dense=flags.dense,
    )


def ref_validate_causal(relation):
    src, tgt, pairs = relation.source, relation.target, relation.pairs
    for (a1, a2) in pairs:
        for x1 in src.elements():
            for x2 in tgt.elements():
                if src.leq(x1, a1) and tgt.leq(a2, x2) and (x1, x2) not in pairs:
                    raise NotFullyIsotone(
                        "relation misses a dominated pair", witness=((a1, a2), (x1, x2))
                    )
    for a1 in src.elements():
        targets = [a2 for a2 in tgt.elements() if (a1, a2) in pairs]
        if targets and (a1, tgt.meet(targets)) not in pairs:
            raise NotMeetStable(
                "relation not stable under meets on the right", witness=(a1, targets)
            )
    return relation


def ref_causal_to_map(relation):
    ref_validate_causal(relation)
    src, tgt = relation.source, relation.target
    values = []
    for a2 in tgt.elements():
        values.append(src.join([a1 for a1 in src.elements() if (a1, a2) in relation.pairs]))
    g = core.LatticeMap(tgt, src, tuple(values))
    for a1 in src.elements():
        for a2 in tgt.elements():
            if ((a1, a2) in relation.pairs) != src.leq(a1, g(a2)):
                raise ValidationError(
                    "relation is not representable by its induced map", witness=(a1, a2)
                )
    return weak.WeakMeetMap(g)


def ref_map_to_causal(wm):
    g = wm.map
    pairs = frozenset(
        (a1, a2) for a1 in g.cod.elements() for a2 in g.dom.elements() if g.cod.leq(a1, g(a2))
    )
    return ref_validate_causal(CausalRelation(g.cod, g.dom, pairs))


def ref_validate_closure(lattice, table):
    table = tuple(table)
    up = lattice.poset.up
    for a, row in enumerate(up):
        above = up[table[a]]
        for b, y in enumerate(table):
            if row >> b & 1 and not above >> y & 1:
                raise NotClosure("not isotone", witness=(a, b))
    for a in lattice.elements():
        if not lattice.leq(a, table[a]):
            raise NotClosure("not inflationary", witness=a)
        if table[table[a]] != table[a]:
            raise NotClosure("not idempotent", witness=a)
    return closure.ClosureOperator(lattice, table)


def outcome(fn, *args):
    """What fn(*args) does: its result, or its exception's type and message."""
    try:
        return "returns", fn(*args)
    except LatkitError as exc:
        return type(exc), str(exc)


def witness(fn, *args):
    try:
        fn(*args)
    except LatkitError as exc:
        return exc.witness
    raise AssertionError("no exception")


def assert_closure_witness(lattice, table):
    """validate_closure's witness breaks the axiom its message names: a
    cover (c, b) that the table does not keep in order, else the scan's
    element."""
    kind, message = outcome(validate_closure, lattice, table)
    got = witness(validate_closure, lattice, table)
    if message == "not isotone":
        c, b = got
        assert c in dict(lattice.lower_covers)[b]
        assert not lattice.leq(table[c], table[b])
    else:
        assert got == witness(ref_validate_closure, lattice, table)


def assert_causal_witness(relation):
    """validate_causal's witness breaks the rule its exception names: a pair
    with a dominated pair missing, or the scan's row that is not meet
    stable."""
    src, tgt, pairs = relation.source, relation.target, relation.pairs
    got = witness(validate_causal, relation)
    if isinstance(got[0], tuple):
        (a1, a2), (x1, x2) = got
        assert (a1, a2) in pairs and (x1, x2) not in pairs
        assert src.leq(x1, a1) and tgt.leq(a2, x2)
    else:
        assert got == witness(ref_validate_causal, relation)


def assert_representation_witness(relation):
    """causal_to_map's witness is a pair where the relation and the map that
    sends each effect to the join of its causes differ."""
    src, tgt = relation.source, relation.target
    a1, a2 = witness(stateprop.causal_to_map, relation)
    top = src.join([x for x in src.elements() if (x, a2) in relation.pairs])
    assert ((a1, a2) in relation.pairs) != src.leq(a1, top)


# -------------------------------------------------------------------- kernel


@pytest.mark.parametrize("cls", maps.MAP_CLASSES)
def test_value_masks_are_the_columns_of_the_hom_set(cls):
    for l1, l2 in pairs(4):
        homs = hom_set(l1, l2, cls)
        masks = _hom(l1, l2, cls).masks
        assert masks == [
            [mask(f(a) == v for f in homs) for v in l2.elements()] for a in l1.elements()
        ]


def test_order_sets_match_map_leq_on_every_pair():
    for l1, l2 in pairs(4):
        joins = hom_set(l1, l2, "join")
        stars = [right_adjoint(f) for f in joins]
        got = list(maps._order_sets(l1, l2, [g.values for g in stars]))
        assert got == [
            (mask(map_leq(f, h) for h in joins), mask(map_leq(g, fs) for g in stars))
            for f, fs in zip(joins, stars)
        ]


def test_adjoint_sets_match_check_adjunction_and_the_unit_counit_loop():
    for l1, l2 in pairs(4):
        up1, up2 = l1.poset.up, l2.poset.up
        meets = hom_set(l2, l1, "meet")
        for f, adjoints, admitted in maps._adjoint_sets(l1, l2):
            fv = f.values
            assert adjoints == mask(check_adjunction(f, g) for g in meets)
            assert admitted == mask(
                all(row >> g.values[fv[a]] & 1 for a, row in enumerate(up1))
                and all(up2[fv[y]] >> b & 1 for b, y in enumerate(g.values))
                for g in meets
            )
            assert adjoints == 1 << meets.index(right_adjoint(f))


@pytest.mark.parametrize("cls", ["join", "meet"])
def test_one_sided_inverses_match_the_inverts_scan(cls):
    count = 0
    for l1, l2 in pairs(5):
        for f in hom_set(l1, l2, cls):
            assert classify_morphism(f, cls) == ref_classify(f, cls), f.values
            count += 1
    assert count == {"join": 8896, "meet": 8896}[cls]


def test_union_maps_are_the_union_maps_of_their_choices():
    for l1, l2 in pairs(3):
        sequence = transition.all_union_maps(l1, l2)
        elems, subsets = transition.nonzero(l1), transition.all_subsets(l1)
        choices = sorted(transition.all_subsets(l2), key=lambda s: (len(s), sorted(s)))
        picks = list(itertools.product(choices, repeat=len(elems)))
        assert len(sequence) == len(picks)
        for i, pick in enumerate(picks):
            got, images = sequence[i], dict(zip(elems, pick))
            assert got == transition.union_map(l1, l2, images)
            # The join of theta(A) for every subset A, in all_subsets order.
            assert got._joins == [
                l2.join(frozenset().union(*[images[a] for a in s])) for s in subsets
            ]


def test_derived_partial_maps_equal_the_checked_constructor():
    # Every weak meet map between corpus lattices of at most 5 elements and
    # between renumbered copies of them, then 3,000 seeded compositions: the
    # routes on (x, value) pairs give what the interval-map routes give, and
    # each partial map they build unchecked is the checked constructor's.
    def checked(partial):
        return weak.PartialJoinMap(
            partial.source, partial.target, partial.anchor, partial.values
        )

    rng = random.Random(24)
    small = [lat for lat in LATTICES.values() if lat.size <= 5]
    renumbered = [renumber(lat, rng.sample(range(lat.size), lat.size)) for lat in small]
    by_source, count = {}, 0
    for pool in (small, renumbered):
        for l1, l2 in itertools.product(pool, repeat=2):
            for wm in weak.weak_meet_maps(l2, l1):
                partial, anchor = weak.restrict_codomain(wm)
                assert (partial, anchor) == ref_restrict_codomain(wm)
                upper = weak.pointed_extend(wm)[1]
                assert weak.partial_to_upper(partial) == ref_partial_to_upper(partial) == upper
                back = weak.upper_to_partial(upper)
                assert back == ref_upper_to_partial(upper) == partial == checked(back)
                by_source.setdefault(l1, []).append(partial)
                count += 1
    assert count == 2 * 15015
    everything = [p for ps in by_source.values() for p in ps]
    for _ in range(3000):
        p1 = rng.choice(everything)
        p2 = rng.choice(by_source[p1.target])
        composite = weak.compose_partial(p2, p1)
        assert composite == ref_compose_partial(p2, p1) == checked(composite)
        first, second = dict(p1.values), dict(p2.values)
        assert all(value == second[first[x]] for x, value in composite.values)


# ---------------------------------------------------------------- validators


def composite_tables(bound):
    for l1, l2 in pairs(bound):
        for f in hom_set(l1, l2, "join"):
            g = right_adjoint(f)
            yield l1, tuple(g.values[y] for y in f.values)


def test_validate_closure_accepts_every_monad_table_the_scan_accepts():
    count = 0
    for lattice, table in composite_tables(5):
        assert outcome(validate_closure, lattice, table) == outcome(
            ref_validate_closure, lattice, table
        )
        count += 1
    assert count == 8896


def test_validate_closure_fails_where_and_as_the_scan_fails():
    rng = random.Random(24)
    failures, messages = 0, set()
    closures = list(composite_tables(5))
    for _ in range(3000):
        lattice, table = rng.choice(closures)
        if rng.random() < 0.5:
            table = [rng.randrange(lattice.size) for _ in lattice.elements()]
        else:
            # A closure with one value moved: near misses of every axiom.
            table = list(table)
            table[rng.randrange(lattice.size)] = rng.randrange(lattice.size)
        got = outcome(validate_closure, lattice, table)
        assert got == outcome(ref_validate_closure, lattice, table)
        if got[0] is NotClosure:
            assert_closure_witness(lattice, table)
            failures += 1
            messages.add(got[1])
    assert failures > 1000
    assert messages == {"not isotone", "not inflationary", "not idempotent"}


def random_relations(rng, count):
    small = [lat for lat in LATTICES.values() if lat.size <= 5]
    for _ in range(count):
        src, tgt = rng.choice(small), rng.choice(small)
        seeds = [(rng.randrange(src.size), rng.randrange(tgt.size)) for _ in range(rng.randrange(4))]
        valid = stateprop.causal_closure(src, tgt, seeds).pairs
        kind = rng.randrange(3)
        if kind == 0:
            pairs = valid
        elif kind == 1:
            # One pair added or removed.
            pair = (rng.randrange(src.size), rng.randrange(tgt.size))
            pairs = valid ^ {pair}
        else:
            everything = list(itertools.product(src.elements(), tgt.elements()))
            pairs = frozenset(p for p in everything if rng.random() < 0.5)
        yield CausalRelation(src, tgt, frozenset(pairs))


def test_validate_causal_raises_exactly_where_the_scan_does():
    rng = random.Random(2404)
    kinds = set()
    for relation in random_relations(rng, 3000):
        got = outcome(validate_causal, relation)
        assert got == outcome(ref_validate_causal, relation)
        kinds.add(got[0])
        if got[0] != "returns":
            assert_causal_witness(relation)
        represented = outcome(stateprop.causal_to_map, relation)
        assert represented == outcome(ref_causal_to_map, relation)
        if represented[0] is ValidationError:
            assert_representation_witness(relation)
            kinds.add("unrepresentable")
    assert kinds == {"returns", NotFullyIsotone, NotMeetStable, "unrepresentable"}


def test_causal_relations_of_weak_maps_are_the_scanned_ones():
    count = 0
    for l1, l2 in pairs(4):
        for wm in weak.weak_meet_maps(l2, l1):
            relation = stateprop.map_to_causal(wm)
            assert relation == ref_map_to_causal(wm)
            assert stateprop.causal_to_map(relation).map == ref_causal_to_map(relation).map
            count += 1
    assert count == 4073


def ref_continuity_composition(s1, s2, s3):
    """The continuity-composition body before the masks: the kernel formula
    on frozensets, over the unpruned continuous-map loop."""
    seconds = ref_continuous_maps(s2, s3)
    for a1 in ref_continuous_maps(s1, s2):
        for a2 in seconds:
            composite = closure.compose_continuous(a2, a1)
            if composite.kernel != a1.kernel | a1.preimage(a2.kernel):
                return "kernel formula fails"
    return None


def ref_space_functors(s1, s2):
    """The space-functors body before the masks."""
    for alpha in ref_continuous_maps(s1, s2):
        forward, backward = closure.map_to_join_map(alpha)
        if not check_adjunction(forward, backward):
            return "functor image not adjoint"
        back = closure.join_map_to_partial(forward)
        if back.kernel != alpha.kernel:
            return "kernel not recovered"
    return None


def ref_boolean_duality(f, g):
    """closure.boolean_duality before it read the value tables."""
    if not (closure.is_boolean(f.dom) and closure.is_boolean(f.cod)):
        raise closure.NotBoolean("both lattices must be finite Boolean algebras")
    if not check_adjunction(f, g):
        raise closure.NotAdjoint("maps are not adjoint")
    ortho2 = corpus.boolean_ortho(f.cod)
    ortho1 = corpus.boolean_ortho(f.dom)
    atoms_to_atoms = all(f(p) in set(f.cod.atoms()) for p in f.dom.atoms())
    ortho_preserved = all(g(ortho2[b]) == ortho1[g(b)] for b in f.cod.elements())
    return closure.BooleanDualityReport(
        atoms_to_atoms=atoms_to_atoms,
        ortho_preserved_by_adjoint=ortho_preserved,
        agree=atoms_to_atoms == ortho_preserved,
    )


# ---------------------------------------------------------- planted defects


def planted_meet_maps(edit):
    """A defect: the meet Hom-set C3 -> D4, on fresh lattices, with its value
    tables edited."""

    def plant(monkeypatch):
        d4, c3 = corpus.diamond(), corpus.chain(3)
        real = maps._enumerate

        def planted(dom, cod, cls):
            tables = real(dom, cod, cls)
            if dom is c3.dual and cod is d4.dual:
                return edit(tuple(sorted(tables)))
            return tables

        monkeypatch.setattr(maps, "_enumerate", planted)
        return d4, c3

    return plant


# The adjoint of the join map (0, 2, 1, 2): D4 -> C3 is gone.
drop_third_meet_map = planted_meet_maps(lambda tables: tables[:2] + tables[3:])
# The adjoint of the zero map, constant top, is replaced by a map that is not
# isotone, which the unit and counit admit but the relation does not.
non_isotone_meet_map = planted_meet_maps(lambda tables: tables[:-1] + ((3, 0, 0),))


def planted_adjoint(values, replacement=None):
    """A defect on D4: right_adjoint gives the join map with these values
    the map with the replacement table, which check_adjunction accepts; with
    no replacement, check_adjunction refuses the map's true adjoint."""

    def plant(monkeypatch):
        d4 = corpus.diamond()
        target = core.LatticeMap(d4, d4, values)
        wrong = None if replacement is None else core.LatticeMap(d4, d4, replacement)

        def adjoint(f):
            return wrong if wrong is not None and f == target else right_adjoint(f)

        def adjunction(f, g):
            return wrong is not None if f == target else check_adjunction(f, g)

        monkeypatch.setattr(suite, "right_adjoint", adjoint)
        monkeypatch.setattr(suite, "check_adjunction", adjunction)
        return d4, d4

    return plant


# The identity's true adjoint refused.
adjunction_refused = planted_adjoint((0, 1, 2, 3))
# The identity given an adjoint that moves the top.
adjoint_moves_top = planted_adjoint((0, 1, 2, 3), (0, 1, 2, 2))
# The identity given the constant top, a meet map: f o f* o f is constant.
adjoint_constant_top = planted_adjoint((0, 1, 2, 3), (3, 3, 3, 3))
# The zero map given the identity, a meet map: f* o f o f* is the zero map.
adjoint_of_zero_identity = planted_adjoint((0, 0, 0, 0), (0, 1, 2, 3))


def swap_two_adjoints(monkeypatch):
    """right_adjoint and left_adjoint of two comparable join maps D4 -> C3
    swapped, so the double dual still holds and antitonicity fails."""
    d4, c3 = corpus.diamond(), corpus.chain(3)
    joins = suite._homs(d4, c3, "join")
    f1, f2 = joins[1], joins[-1]
    assert map_leq(f1, f2) and f1 != f2
    swap = {f1: f2, f2: f1}
    monkeypatch.setattr(suite, "right_adjoint", lambda f: right_adjoint(swap.get(f, f)))
    monkeypatch.setattr(suite, "left_adjoint", lambda g: swap.get(left_adjoint(g), left_adjoint(g)))
    return d4, c3


def wrong_adjoint(monkeypatch):
    """right_adjoint gives the identity's adjoint on D4 the adjoint of the
    zero map, for classify_morphism and for the law alike."""
    d4 = corpus.diamond()
    identity, zero = core.identity_map(d4), core.LatticeMap(d4, d4, (d4.bottom,) * 4)

    def planted(f):
        return right_adjoint(zero if f == identity else f)

    monkeypatch.setattr(maps, "right_adjoint", planted)
    monkeypatch.setattr(suite, "right_adjoint", planted)
    return d4, d4


def unrepresentable_relation(monkeypatch):
    """causal_closure returns, once, a valid relation D4 ~> C2 whose causes
    of the top are 0, a and b but not 1: no map represents it."""
    d4, c2 = corpus.diamond(), corpus.chain(2)
    calls = []
    real = stateprop.causal_closure

    def planted(source, target, seeds):
        calls.append(seeds)
        if len(calls) == 1:
            return CausalRelation(d4, c2, frozenset({(0, 1), (1, 1), (2, 1)}))
        return real(source, target, seeds)

    monkeypatch.setattr(stateprop, "causal_closure", planted)
    return d4, c2


def dropped_causal_pair(monkeypatch):
    """causal_closure drops the pair (bottom, top) from its relation."""
    d4, c3 = corpus.diamond(), corpus.chain(3)
    real = stateprop.causal_closure

    def planted(source, target, seeds):
        relation = real(source, target, seeds)
        return CausalRelation(source, target, relation.pairs - {(source.bottom, target.top)})

    monkeypatch.setattr(stateprop, "causal_closure", planted)
    return d4, c3


def broken_closure(monkeypatch):
    """monad_from_adjunction gives the identity on D4 the closure that swaps
    an atom and the top: not isotone."""
    d4 = corpus.diamond()
    real = closure.monad_from_adjunction

    def planted(f, g):
        operator = real(f, g)
        if f.values == (0, 1, 2, 3):
            return closure.ClosureOperator(f.dom, (0, 1, 3, 2))
        return operator

    monkeypatch.setattr(closure, "monad_from_adjunction", planted)
    return d4, d4


IDENTITY_2 = ((0, 0), (1, 1))


def backward_not_adjoint(monkeypatch):
    """map_to_join_map gives the identity on S2 the constant-top backward
    map, which is not adjoint to the forward identity."""
    s2 = corpus.closure_spaces()["S2"]
    real = closure.map_to_join_map

    def planted(alpha):
        forward, backward = real(alpha)
        if alpha.mapping == IDENTITY_2:
            top = backward.cod.top
            backward = core.LatticeMap(backward.dom, backward.cod, (top,) * backward.dom.size)
        return forward, backward

    monkeypatch.setattr(closure, "map_to_join_map", planted)
    return s2, s2


def kernel_point_dropped(monkeypatch):
    """join_map_to_partial sends the least kernel point of each map with a
    kernel to point 0 instead."""
    s3, s2 = corpus.closure_spaces()["S3line"], corpus.closure_spaces()["S2"]
    real = closure.join_map_to_partial

    def planted(f):
        back = real(f)
        if not back.kernel:
            return back
        dropped = min(back.kernel)
        table = dict(back.mapping) | {dropped: 0}
        return closure.partial_map(back.source, back.target, back.kernel - {dropped}, table)

    monkeypatch.setattr(closure, "join_map_to_partial", planted)
    return s3, s2


def composite_kernel_wrong(monkeypatch):
    """compose_continuous gives the composite of two identities on S2 the
    whole point set as its kernel."""
    s2 = corpus.closure_spaces()["S2"]
    real = closure.compose_continuous

    def planted(second, first):
        composite = real(second, first)
        if first.mapping == second.mapping == IDENTITY_2:
            return closure.partial_map(composite.source, composite.target, range(2), {})
        return composite

    monkeypatch.setattr(closure, "compose_continuous", planted)
    return s2, s2, s2


def boolean_ortho_wrong(monkeypatch):
    """boolean_ortho gives one of two copies of B4 the identity on its atoms
    in place of their complements."""
    b4, other = corpus.boolean_lattice(2), corpus.boolean_lattice(2)
    real = corpus.boolean_ortho

    def planted(lattice):
        ortho = real(lattice)
        if lattice is other:
            return (ortho[0],) + tuple(lattice.elements())[1:-1] + (ortho[-1],)
        return ortho

    monkeypatch.setattr(corpus, "boolean_ortho", planted)
    return b4, other


def restricted_value_wrong(monkeypatch):
    """restrict_codomain gives the identity on C2 a partial map that sends
    the top to the bottom."""
    c2 = corpus.chain(2)
    real = weak.restrict_codomain

    def planted(wm):
        partial, anchor = real(wm)
        if wm.map.values == (0, 1):
            partial = weak.PartialJoinMap._of(c2, c2, anchor, ((0, 0), (1, 0)))
        return partial, anchor

    monkeypatch.setattr(weak, "restrict_codomain", planted)
    return c2, c2


def upper_anchor_wrong(monkeypatch):
    """upper_to_partial anchors the upper map of the identity on C2 at the
    bottom."""
    c2 = corpus.chain(2)
    real = weak.upper_to_partial

    def planted(upper):
        partial = real(upper)
        if partial.values == IDENTITY_2:
            partial = weak.PartialJoinMap._of(c2, c2, 0, ((0, 0),))
        return partial

    monkeypatch.setattr(weak, "upper_to_partial", planted)
    return c2, c2


def pointed_extension_wrong(monkeypatch):
    """pointed_extend gives the identity on C2 the constant-bottom map as its
    extension, beside the right upper map."""
    c2 = corpus.chain(2)
    real = weak.pointed_extend

    def planted(wm):
        extended, upper = real(wm)
        if wm.map.values == (0, 1):
            extended = core.LatticeMap(extended.dom, extended.cod, (0, 0, 0))
        return extended, upper

    monkeypatch.setattr(weak, "pointed_extend", planted)
    return c2, c2


def composite_value_wrong(monkeypatch):
    """compose_partial sends the top of the composite of two identities on
    C2 to the bottom."""
    c2 = corpus.chain(2)
    real = weak.compose_partial

    def planted(second, first):
        composite = real(second, first)
        if first.values == second.values == IDENTITY_2:
            composite = weak.PartialJoinMap._of(c2, c2, 1, ((0, 0), (1, 0)))
        return composite

    monkeypatch.setattr(weak, "compose_partial", planted)
    return c2, c2, c2


def old_validators(monkeypatch):
    monkeypatch.setattr(stateprop, "validate_causal", ref_validate_causal)
    monkeypatch.setattr(stateprop, "causal_to_map", ref_causal_to_map)
    monkeypatch.setattr(stateprop, "map_to_causal", ref_map_to_causal)
    monkeypatch.setattr(closure, "validate_closure", ref_validate_closure)
    monkeypatch.setattr(maps, "classify_morphism", ref_classify)
    monkeypatch.setattr(suite, "classify_morphism", ref_classify)
    monkeypatch.setattr(closure, "check_continuity", ref_check_continuity)
    monkeypatch.setattr(closure, "boolean_duality", ref_boolean_duality)
    monkeypatch.setattr(weak, "restrict_codomain", ref_restrict_codomain)
    monkeypatch.setattr(weak, "partial_to_upper", ref_partial_to_upper)
    monkeypatch.setattr(weak, "upper_to_partial", ref_upper_to_partial)
    monkeypatch.setattr(weak, "compose_partial", ref_compose_partial)


# (law, planted defect, the old body or None for the law's own body under
# the old library functions, the witness both give)
PLANTED = [
    ("adjoint-laws", adjunction_refused, ref_adjoint_laws, "adjunction fails for (0, 1, 2, 3)"),
    ("adjoint-laws", adjoint_moves_top, ref_adjoint_laws,
     "adjoint not meet preserving for (0, 1, 2, 3)"),
    ("adjoint-laws", adjoint_constant_top, ref_adjoint_laws, "f o f* o f != f for (0, 1, 2, 3)"),
    ("adjoint-laws", adjoint_of_zero_identity, ref_adjoint_laws,
     "f* o f o f* != f* for (0, 0, 0, 0)"),
    ("adjoint-unique", drop_third_meet_map, ref_adjoint_unique,
     "0 adjoint candidates for (0, 2, 1, 2)"),
    ("adjoint-unique", non_isotone_meet_map, ref_adjoint_unique,
     "adjunction oracles disagree for (0, 0, 0, 0), (3, 0, 0)"),
    ("duality-involution", swap_two_adjoints, ref_duality,
     "antitonicity fails for (0, 0, 1, 1) vs (0, 0, 2, 2)"),
    ("classification", wrong_adjoint, None,
     "epi criteria disagree for (0, 1, 2, 3)"),
    ("state-causal", unrepresentable_relation, None,
     "ValidationError: relation is not representable by its induced map"),
    ("state-causal", dropped_causal_pair, None,
     "NotFullyIsotone: relation misses a dominated pair"),
    ("closure-monad", broken_closure, None, "NotClosure: not isotone"),
    ("space-functors", backward_not_adjoint, ref_space_functors, "functor image not adjoint"),
    ("space-functors", kernel_point_dropped, ref_space_functors, "kernel not recovered"),
    ("continuity-composition", composite_kernel_wrong, ref_continuity_composition,
     "kernel formula fails"),
    ("boolean-duality", boolean_ortho_wrong, None,
     "atom criterion disagrees with ortho criterion"),
    ("weak-roundtrips", restricted_value_wrong, None, "partial and pointed routes disagree"),
    ("weak-roundtrips", upper_anchor_wrong, None, "upper to partial roundtrip fails"),
    ("weak-roundtrips", pointed_extension_wrong, None, "pointed extension is not the adjoint"),
    ("partial-composition", composite_value_wrong, None, "two composition routes disagree"),
]


def law_witness(law, objects):
    reports = []
    extra = {"rng": random.Random(0)} if law.seeded else {}
    suite._collect([(law.prop, "planted", lambda: law.body(*objects, **extra))], reports)
    return reports[0].witness


def law_named(prop):
    (law,) = [law for law in suite.LAWS if law.prop == prop]
    return law


@pytest.mark.parametrize("prop, plant, old_body, witness", PLANTED)
def test_planted_defects_give_the_old_bodies_witness(monkeypatch, prop, plant, old_body, witness):
    # Every Hom-set is read afresh from the lattices the defect is planted on.
    monkeypatch.setattr(suite, "_homs", lambda dom, cod, cls: tuple(hom_set(dom, cod, cls)))
    law = law_named(prop)
    objects = plant(monkeypatch)
    assert law_witness(law, objects) == witness
    if old_body is not None:
        old = law.__class__(law.prop, law.pool, law.bound, old_body, law.seeded)
    else:
        old_validators(monkeypatch)
        old = law
    objects = plant(monkeypatch)
    assert law_witness(old, objects) == witness


@pytest.mark.parametrize(
    "prop, plant, witness",
    [(prop, plant, witness) for prop, plant, _, witness in PLANTED
     if prop in ("weak-roundtrips", "partial-composition")],
)
def test_weak_plants_are_caught_on_the_meet_kernel_maps(monkeypatch, prop, plant, witness):
    # The weak laws read their maps from weak.weak_meet_maps, which builds
    # them from the meet kernel; no isotone Hom-set is read, and each plant
    # is still caught with its witness.
    built = []
    real = weak.weak_meet_maps

    def homs(dom, cod, cls):
        assert cls != "isotone"
        return tuple(hom_set(dom, cod, cls))

    monkeypatch.setattr(weak, "weak_meet_maps", lambda dom, cod: built.append(dom) or real(dom, cod))
    monkeypatch.setattr(suite, "_homs", homs)
    objects = plant(monkeypatch)
    assert law_witness(law_named(prop), objects) == witness
    assert built


def test_every_rewritten_law_has_a_planted_defect():
    rewritten = {"adjoint-laws", "adjoint-unique", "duality-involution", "classification",
                 "state-causal", "closure-monad", "space-functors", "continuity-composition",
                 "boolean-duality", "weak-roundtrips", "partial-composition"}
    assert {prop for prop, *_ in PLANTED} == rewritten
    # Without the defect each law passes on the same objects.
    assert suite._adjoint_laws(corpus.diamond(), corpus.diamond()) is None
    assert ref_adjoint_laws(corpus.diamond(), corpus.diamond()) is None
    assert suite._adjoint_unique(corpus.diamond(), corpus.chain(3)) is None
    assert suite._closure_monad(corpus.diamond(), corpus.diamond()) is None
    spaces = corpus.closure_spaces()
    assert suite._space_functors(spaces["S2"], spaces["S2"]) is None
    assert suite._space_functors(spaces["S3line"], spaces["S2"]) is None
    assert suite._continuity_composition(spaces["S2"], spaces["S2"], spaces["S2"]) is None
    b4 = corpus.boolean_lattice(2)
    assert suite._boolean_duality(b4, corpus.boolean_lattice(2)) is None
    c2 = corpus.chain(2)
    assert suite._weak_roundtrips(c2, c2) is None
    assert suite._partial_composition(c2, c2, c2) is None


def test_the_atom_space_is_tested_once(monkeypatch):
    spaces = []
    real = closure.lattice_to_space

    def spy(lattice):
        spaces.append(lattice)
        return real(lattice)

    monkeypatch.setattr(closure, "lattice_to_space", spy)
    assert suite._atomistic_roundtrip(corpus.diamond()) is None
    assert len(spaces) == 1
    lattice = corpus.diamond()
    space, atoms = real(lattice)
    broken = closure.ClosureSpace(space.size, space.closed - {frozenset([0])}, space.labels)
    monkeypatch.setattr(closure, "lattice_to_space", lambda lat: (broken, atoms))
    assert closure.lattice_roundtrip(lattice) == ("space of atoms is not simple", None)
    assert suite._atomistic_roundtrip(lattice) == "space of atoms is not simple"
