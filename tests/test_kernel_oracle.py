"""The mask-and-table kernel against brute-force definitions.

Each reference below is the plain pairwise definition: lattice tables by
searching all upper and lower bounds, order checks pair by pair, and map
properties by quantifying over all pairs of elements.  The kernel must agree
with it on every input, including the ones it rejects, down to the
exception type, message and witness.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latkit import core, corpus, maps
from latkit.core import (
    FinitePoset,
    LatticeMap,
    build_poset,
    lattice_from_poset,
    lattice_of_sets,
    random_moore_lattice,
)
from latkit.errors import (
    CycleDetected,
    NotALattice,
    NotJoinPreserving,
    NotMeetPreserving,
    NotTransitive,
    ValidationError,
)
from latkit.maps import (
    check_adjunction,
    hom_set,
    left_adjoint,
    preservation_profile,
    right_adjoint,
)
from latkit.transition import coherence_check, power_map

from test_hom_oracle import renumber
from test_maps import map_leq, nonempty_joins, nonempty_meets

# ---------------------------------------------------------------- references


def leq(poset, a, b):
    return bool(poset.up[a] >> b & 1)


def ref_validate(poset):
    n = poset.size
    for a in range(n):
        if not leq(poset, a, a):
            raise ValidationError("order not reflexive", witness=a)
    for a in range(n):
        for b in range(n):
            if a != b and leq(poset, a, b) and leq(poset, b, a):
                raise CycleDetected(
                    "antisymmetry fails at %s, %s" % (poset.labels[a], poset.labels[b]),
                    witness=(a, b),
                )
    for a in range(n):
        above = [b for b in range(n) if leq(poset, a, b)]
        for b in above:
            for c in range(n):
                if leq(poset, b, c) and not leq(poset, a, c):
                    raise NotTransitive(
                        "transitivity fails above %s" % poset.labels[a], witness=a
                    )


def ref_cycle_check(poset):
    n = poset.size
    for a in range(n):
        for b in range(n):
            if a != b and leq(poset, a, b) and leq(poset, b, a):
                raise CycleDetected(
                    "cycle through %s and %s" % (poset.labels[a], poset.labels[b]),
                    witness=(a, b),
                )


def ref_lattice(poset):
    """(bottom, top, join rows, meet rows) by searching all bounds."""
    ref_validate(poset)
    n = poset.size
    if n == 0:
        raise NotALattice("empty carrier has no bounds")
    bottoms = [a for a in range(n) if all(leq(poset, a, b) for b in range(n))]
    tops = [a for a in range(n) if all(leq(poset, b, a) for b in range(n))]
    if not bottoms:
        raise NotALattice("no bottom element")
    if not tops:
        raise NotALattice("no top element")
    join_rows, meet_rows = [], []
    for a in range(n):
        jrow, mrow = [], []
        for b in range(n):
            uppers = [c for c in range(n) if leq(poset, a, c) and leq(poset, b, c)]
            least = [c for c in uppers if all(leq(poset, c, d) for d in uppers)]
            if not least:
                raise NotALattice(
                    "no least upper bound for %s, %s" % (poset.labels[a], poset.labels[b]),
                    witness=(a, b),
                )
            jrow.append(least[0])
            lowers = [c for c in range(n) if leq(poset, c, a) and leq(poset, c, b)]
            greatest = [c for c in lowers if all(leq(poset, d, c) for d in lowers)]
            if not greatest:
                raise NotALattice(
                    "no greatest lower bound for %s, %s"
                    % (poset.labels[a], poset.labels[b]),
                    witness=(a, b),
                )
            mrow.append(greatest[0])
        join_rows.append(tuple(jrow))
        meet_rows.append(tuple(mrow))
    return bottoms[0], tops[0], tuple(join_rows), tuple(meet_rows)


def ref_covers(poset, a):
    above = [b for b in range(poset.size) if b != a and leq(poset, a, b)]
    return [b for b in above if not any(c != b and leq(poset, c, b) for c in above)]


def covers(poset, a):
    """Elements covering a, in index order: the elements b strictly above a
    whose down-set meets the strict up-set of a in b alone."""
    above = poset.up[a] & ~(1 << a)
    down = poset.down
    return [b for b in range(poset.size) if above >> b & 1 and down[b] & above == 1 << b]


def cover_pairs(poset):
    return [(a, b) for a in range(poset.size) for b in covers(poset, a)]


def ref_join_table(poset):
    """Entry (a, b) is the least upper bound of a and b, or None, by
    searching all upper bounds."""
    n = poset.size
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            uppers = [c for c in range(n) if leq(poset, a, c) and leq(poset, b, c)]
            least = [c for c in uppers if all(leq(poset, c, d) for d in uppers)]
            row.append(least[0] if least else None)
        rows.append(tuple(row))
    return tuple(rows)


def ref_lower_covers(lattice):
    """The lower covers by a scan of the whole down-set: for each b, in the
    order of its down-set size, every element below b is tested."""
    up, down = lattice.poset.up, lattice.poset.down
    out = []
    for b in sorted(lattice.elements(), key=lambda b: down[b].bit_count()):
        below = down[b] & ~(1 << b)
        covers = tuple(a for a in lattice.elements() if below >> a & 1 and up[a] & below == 1 << a)
        out.append((b, covers))
    return tuple(out)


def ref_is_isotone(f):
    leq_dom, leq_cod = f.dom.leq, f.cod.leq
    n = f.dom.size
    return all(
        leq_cod(f.values[a], f.values[b])
        for a in range(n)
        for b in range(n)
        if leq_dom(a, b)
    )


def ref_preserves(f, dom_table, cod_table):
    n = f.dom.size
    v = f.values
    return all(v[dom_table[a][b]] == cod_table[v[a]][v[b]] for a in range(n) for b in range(n))


def ref_witness(f, dom_table, cod_table, unit, cod_unit):
    if f.values[unit] != cod_unit:
        return (unit,)
    n = f.dom.size
    v = f.values
    for a in range(n):
        for b in range(n):
            if v[dom_table[a][b]] != cod_table[v[a]][v[b]]:
                return (a, b)
    return None


def ref_fold(table, start, subset):
    out = start
    for a in subset:
        out = table[out][a]
    return out


def ref_adjunction(f, g):
    leq_dom, leq_cod = f.dom.leq, f.cod.leq
    return all(
        leq_cod(f.values[a], b) == leq_dom(a, g.values[b])
        for a in range(f.dom.size)
        for b in range(f.cod.size)
    )


def ref_atom_sets(lattice):
    ats = lattice.atoms()
    return tuple(
        frozenset(i for i, p in enumerate(ats) if lattice.leq(p, a))
        for a in lattice.elements()
    )


def ref_is_atomistic(lattice):
    ats = lattice.atoms()
    return all(
        lattice.join([p for p in ats if lattice.leq(p, a)]) == a for a in lattice.elements()
    )


def ref_moore_lattice(seed, n_points, n_generators):
    """The same random draws, closed by the pairwise-intersection fixed point."""
    rng = random.Random(seed)
    family = {frozenset(range(n_points))}
    for _ in range(n_generators):
        family.add(frozenset(p for p in range(n_points) if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(family), 2):
            if a & b not in family:
                family.add(a & b)
                changed = True
    return lattice_of_sets(family)[0]


def ref_closure(n, pairs):
    """(up, down) of the reflexive-transitive closure: Warshall on the
    relation with its diagonal, then the transpose."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    return tuple(up), tuple(down)


def outcome(fn, *args):
    """A result, or the (type, message, witness) of the error it raised."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return (type(exc), str(exc), exc.witness)


# ---------------------------------------------------------------- strategies


@st.composite
def cover_posets(draw):
    """Acyclic cover relations on up to 9 elements, mostly given a bottom and
    a top, so that lattices and bounded non-lattices both come up."""
    n = draw(st.integers(min_value=0, max_value=9))
    candidates = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    pairs = [pair for pair, keep in zip(candidates, chosen) if keep]
    bounds = draw(st.sampled_from(["both", "both", "both", "bottom", "top", "none"]))
    if n and bounds in ("both", "bottom"):
        pairs += [(0, b) for b in range(1, n)]
    if n and bounds in ("both", "top"):
        pairs += [(a, n - 1) for a in range(n - 1)]
    perm = draw(st.permutations(range(n)))
    return build_poset(n, [(perm[a], perm[b]) for a, b in pairs])


relations = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    )
)


@st.composite
def wild_relations(draw):
    """(n, pairs, labels) on up to 12 elements: duplicate pairs, self-loops
    and pairs that are no covers, either anything (mostly cyclic) or
    oriented along a drawn linear order, and then often given a bottom and
    a top."""
    n = draw(st.integers(min_value=0, max_value=12))
    element = st.integers(0, max(n - 1, 0))
    count = draw(st.integers(0, 3 * n)) if n else 0
    pairs = draw(st.lists(st.tuples(element, element), min_size=count, max_size=count))
    shape = draw(st.sampled_from(["any", "oriented", "bounded", "bounded"]))
    if shape != "any":
        rank = draw(st.permutations(range(n)))
        pairs = [(a, b) if rank[a] <= rank[b] else (b, a) for a, b in pairs]
        if shape == "bounded" and n:
            bottom, top = rank.index(0), rank.index(n - 1)
            pairs += [(bottom, x) for x in range(n)] + [(x, top) for x in range(n)]
    pairs += pairs[: draw(st.integers(0, len(pairs)))]
    labels = tuple("x%d" % i for i in range(n)) if draw(st.booleans()) else None
    return n, pairs, labels


SMALL = [name for name, lat in corpus.named_lattices().items() if lat.size <= 9]


def renumbered(lattice, draw):
    """The lattice with its elements in a drawn order, so that index order
    need not extend the lattice order."""
    perm = draw(st.permutations(range(lattice.size)))
    up = [
        sum(1 << j for j in range(lattice.size) if lattice.leq(perm[i], perm[j]))
        for i in range(lattice.size)
    ]
    labels = [lattice.labels[e] for e in perm]
    return lattice_from_poset(FinitePoset(tuple(up), tuple(labels)))


@st.composite
def map_pairs(draw):
    """A map between small corpus lattices: an arbitrary value table, or the
    join (meet) of values drawn for the elements below (above) each element,
    which is isotone and often preserves joins (meets)."""
    table = corpus.named_lattices()
    dom = renumbered(table[draw(st.sampled_from(SMALL))], draw)
    cod = renumbered(table[draw(st.sampled_from(SMALL))], draw)
    kind = draw(st.sampled_from(["any", "join", "meet"]))
    seeds = draw(st.lists(st.integers(0, cod.size - 1), min_size=dom.size, max_size=dom.size))
    if kind == "any":
        values = seeds
    elif kind == "join":
        values = [
            cod.join([seeds[x] for x in dom.elements() if dom.leq(x, a) and x != dom.bottom])
            for a in dom.elements()
        ]
    else:
        values = [
            cod.meet([seeds[x] for x in dom.elements() if dom.leq(a, x) and x != dom.top])
            for a in dom.elements()
        ]
    return LatticeMap(dom, cod, tuple(values))


# --------------------------------------------------------------------- tests


# Elements 0 and 1 have two minimal upper bounds (4, 5) and two maximal
# lower bounds (2, 3): the first failing pair lacks both, and the join is
# reported.
NO_JOIN_NO_MEET_PAIRS = [
    (6, 2), (6, 3), (2, 0), (2, 1), (3, 0), (3, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 7), (5, 7)
]
NO_JOIN_NO_MEET = build_poset(8, NO_JOIN_NO_MEET_PAIRS)


@settings(deadline=None, max_examples=400)
@given(poset=cover_posets())
@example(poset=NO_JOIN_NO_MEET)
def test_lattice_from_poset_matches_bound_search(poset):
    got = outcome(lattice_from_poset, poset)
    if isinstance(got, tuple):
        assert got == outcome(ref_lattice, poset)
    else:
        assert (got.bottom, got.top, got.join_table, got.meet_table) == ref_lattice(poset)


@settings(deadline=None, max_examples=300)
@given(poset=cover_posets())
def test_the_meet_table_is_the_dual_join_table_built_on_first_read(poset):
    try:
        lattice = lattice_from_poset(poset)
    except ValidationError:
        return
    # An equal order built apart: equality and hashing build no meet table.
    twin = lattice_from_poset(FinitePoset(poset.up, poset.labels))
    assert twin == lattice and hash(twin) == hash(lattice)
    assert "meet_table" not in lattice.__dict__ and "meet_table" not in twin.__dict__
    assert lattice.meet_table == ref_lattice(poset)[3]
    assert lattice.meet_table is lattice.dual.join_table
    assert lattice.dual.meet_table is lattice.join_table


def test_lower_covers_build_no_dual():
    # A lattice without a dual transposes its poset's upper covers, scanned
    # here since an order given as up-sets keeps none; only a dual that is
    # already there is read.
    for lattice in corpus.named_lattices().values():
        fresh = lattice_from_poset(FinitePoset(lattice.poset.up, lattice.labels))
        assert fresh.lower_covers == ref_lower_covers(fresh)
        assert "dual" not in fresh.__dict__


@settings(deadline=None, max_examples=300)
@given(poset=cover_posets(), data=st.data())
def test_pruned_lower_covers_match_the_whole_down_set_scan(poset, data):
    # A renumbered order keeps no diagram, so its proof scans the upper
    # covers; the dual reads them as they are and the lattice transposes
    # them, the dual first in half the examples.
    try:
        lattice = renumbered(lattice_from_poset(poset), data.draw)
    except ValidationError:
        return
    dual_first = data.draw(st.booleans())
    for each in (lattice.dual, lattice) if dual_first else (lattice, lattice.dual):
        assert each.lower_covers == ref_lower_covers(each)
    for each in (lattice, lattice.dual):
        leq = each.leq
        for b, covers in each.lower_covers:
            for a in covers:
                assert a != b and leq(a, b)
                assert not any(c not in (a, b) and leq(a, c) and leq(c, b) for c in each.elements())


@settings(deadline=None, max_examples=300)
@given(relation=relations)
def test_build_poset_errors_match_pairwise_checks(relation):
    n, pairs = relation
    given_order = [{i} | {b for a, b in pairs if a == i} for i in range(n)]
    # covers mode takes the reflexive-transitive closure, then reports a cycle.
    closure = [set(row) for row in given_order]
    for _ in range(n):
        closure = [row.union(*(closure[b] for b in row)) for row in closure]
    expected = FinitePoset(tuple(sum(1 << b for b in row) for row in closure))
    failure = outcome(ref_cycle_check, expected)
    assert outcome(build_poset, n, pairs) == (failure or expected)
    # FinitePoset.validate checks the relation as given, the diagonal added.
    expected = FinitePoset(tuple(sum(1 << b for b in row) for row in given_order))
    failure = outcome(ref_validate, expected)
    assert outcome(expected.validate) == (failure or expected)


@settings(deadline=None, max_examples=400)
@given(relation=wild_relations())
@example(relation=(8, NO_JOIN_NO_MEET_PAIRS + [(6, 0), (6, 6)], None))
@example(relation=(4, [(3, 0), (0, 1), (1, 2), (2, 0), (1, 1)], ("a", "b", "c", "d")))
def test_linear_extension_closure_matches_warshall(relation):
    n, pairs, labels = relation
    up, down = ref_closure(n, pairs)
    expected = FinitePoset(up, labels or ())
    failure = outcome(ref_cycle_check, expected)
    got = outcome(build_poset, n, pairs, labels)
    if failure:
        assert got == failure
        return
    assert (got, got.up, got.down) == (expected, up, down)
    # The closure is not validated again, and lattice_from_poset gives what
    # the validating path gives on the same order built by hand: bounds and
    # tables, or the same NotALattice message and witness.
    assert outcome(lattice_from_poset, got) == outcome(lattice_from_poset, FinitePoset(up, labels or ()))


@settings(deadline=None, max_examples=300)
@given(relation=wild_relations())
def test_a_hand_built_order_is_validated_by_lattice_from_poset(relation):
    # The relation as given, with its diagonal, is often neither transitive
    # nor antisymmetric.
    n, pairs, labels = relation
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        rows[a] |= 1 << b
    poset = FinitePoset(tuple(rows), labels or ())
    got = outcome(lattice_from_poset, poset)
    if isinstance(got, tuple):
        assert got == outcome(ref_lattice, poset)
    else:
        assert (got.bottom, got.top, got.join_table, got.meet_table) == ref_lattice(poset)


def test_a_built_poset_is_proved_once(monkeypatch):
    calls = []
    real = core._antisymmetry_witness

    def spy(up, down):
        calls.append(up)
        return real(up, down)

    monkeypatch.setattr(core, "_antisymmetry_witness", spy)
    built = build_poset(8, NO_JOIN_NO_MEET_PAIRS + [(6, 0), (2, 7)])
    assert lattice_from_poset(build_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])).size == 4
    with pytest.raises(NotALattice):
        lattice_from_poset(built)
    assert calls == []
    # The same order built by hand is checked on its first validation only.
    by_hand = FinitePoset(built.up)
    with pytest.raises(NotALattice):
        lattice_from_poset(by_hand)
    assert by_hand.validate() is by_hand
    assert calls == [built.up]


def ref_table_lattice(poset):
    """(bottom, top, join rows, meet rows) of a bounded order by its full
    tables, each entry one up-set (down-set) lookup; NotALattice names the
    first pair, in row-major order, with a gap in either table."""
    n, up, down = poset.size, poset.up, poset.down
    by_up = {row: a for a, row in enumerate(up)}
    by_down = {row: a for a, row in enumerate(down)}
    join_rows = tuple(tuple(by_up.get(ua & ub) for ub in up) for ua in up)
    meet_rows = tuple(tuple(by_down.get(da & db) for db in down) for da in down)
    for a in range(n):
        for b in range(n):
            for missing, rows in (("least upper", join_rows), ("greatest lower", meet_rows)):
                if rows[a][b] is None:
                    raise NotALattice(
                        "no %s bound for %s, %s" % (missing, poset.labels[a], poset.labels[b]),
                        witness=(a, b),
                    )
    return by_up[(1 << n) - 1], by_down[(1 << n) - 1], join_rows, meet_rows


def random_bounded_poset(rng):
    """A bounded order on at most 9 elements, renumbered: its inner elements
    in 2 or 3 levels, each element ordered below a drawn share of the next
    level's.  About 3 in 10 are not lattices."""
    n = rng.randint(6, 9) if rng.random() < 0.8 else rng.randint(1, 5)
    inner = range(1, n - 1)
    depth = rng.randint(2, 3)
    level = {a: rng.randint(1, depth) for a in inner}
    share = rng.uniform(0.5, 1.0)
    pairs = [(0, a) for a in range(1, n)] + [(a, n - 1) for a in range(n - 1)]
    pairs += [(a, b) for a in inner for b in inner if level[b] == level[a] + 1 and rng.random() < share]
    perm = list(range(n))
    rng.shuffle(perm)
    return build_poset(n, [(perm[a], perm[b]) for a, b in pairs])


def test_the_join_irreducible_proof_matches_the_full_join_table():
    # lattice_from_poset checks a ∨ b only for join-irreducible b; the
    # reference fills both full tables.
    rng = random.Random(2028)
    seen = {"lattice": 0, "least upper": 0, "greatest lower": 0}
    for _ in range(20000):
        poset = random_bounded_poset(rng)
        got = outcome(lattice_from_poset, poset)
        want = outcome(ref_table_lattice, poset)
        if isinstance(got, tuple):
            assert got == want
            seen[got[1].split(" bound for ")[0][len("no "):]] += 1
        else:
            assert "join_table" not in got.__dict__
            assert (got.bottom, got.top, got.join_table, got.meet_table) == want
            seen["lattice"] += 1
    assert min(seen.values()) >= 500 and seen["lattice"] <= 15000, seen


def test_a_proof_on_pairs_of_join_irreducibles_alone_is_refuted():
    # 0 < p, q, r; s covers p, q; w covers p, r; w2 covers q, r; u and v
    # each cover s, w and w2; 1 covers u and v.  p, q and r are the
    # join-irreducibles, and each pair of them has a join, but p and w2 have
    # two minimal upper bounds, u and v.
    labels = "0 p q r s w w2 u v 1".split()
    covers = ("0<p 0<q 0<r p<s q<s p<w r<w q<w2 r<w2 "
              "s<u w<u w2<u s<v w<v w2<v u<1 v<1")
    at = {label: i for i, label in enumerate(labels)}
    pairs = [(at[a], at[b]) for a, _, b in (token.partition("<") for token in covers.split())]
    poset = build_poset(len(labels), pairs, labels)
    up = poset.up
    for a, b in itertools.combinations("pqr", 2):
        assert up[at[a]] & up[at[b]] in up
    with pytest.raises(NotALattice) as err:
        lattice_from_poset(poset)
    assert str(err.value) == "no least upper bound for p, w2"
    assert err.value.witness == (at["p"], at["w2"])


def ref_restriction(lattice, elems):
    """The order of lattice on elems, in index order, built by hand."""
    rows = [sum(1 << i for i, b in enumerate(elems) if lattice.leq(a, b)) for a in elems]
    return FinitePoset(tuple(rows), tuple(lattice.labels[e] for e in elems))


def ref_upper_extension(lattice):
    """lattice with a new top added, built by hand."""
    top = lattice.size
    rows = [sum(1 << b for b in lattice.elements() if lattice.leq(a, b)) | 1 << top
            for a in lattice.elements()]
    return FinitePoset(tuple(rows) + (1 << top,), lattice.labels + ("**1**",))


def test_restrictions_and_upper_extensions_are_proved_once(monkeypatch):
    # Every corpus lattice's upper extension, intervals [0, a] and [a, 1];
    # every element set of the corpus lattices of at most 6 elements, closed
    # under join and meet or not.
    lattices = list(corpus.named_lattices().values())
    cases = []
    for lattice in lattices:
        cases += [(lattice, lattice.downset(a)) for a in lattice.elements()]
        cases += [(lattice, [b for b in lattice.elements() if lattice.leq(a, b)])
                  for a in lattice.elements()]
        if lattice.size <= 6:
            cases += [(lattice, elems) for r in range(1, lattice.size + 1)
                      for elems in itertools.combinations(lattice.elements(), r)]
    calls = []
    real = core._antisymmetry_witness

    def spy(up, down):
        calls.append(up)
        return real(up, down)

    monkeypatch.setattr(core, "_antisymmetry_witness", spy)
    got = [outcome(core.sublattice_on, lattice, elems) for lattice, elems in cases]
    extensions = [core.upper_extension(lattice) for lattice in lattices]
    assert calls == []
    want = [outcome(lattice_from_poset, ref_restriction(*case)) for case in cases]
    want_extensions = [lattice_from_poset(ref_upper_extension(lattice)) for lattice in lattices]
    assert got == want and extensions == want_extensions
    assert sum(isinstance(sub, tuple) for sub in got) > 0  # some sets are not lattices
    for built, ref in zip(got + extensions, want + want_extensions):
        if not isinstance(built, tuple):
            assert built.poset.down == ref.poset.down


def test_an_unproved_retract_is_proved_when_sublattice_on_reads_it(monkeypatch):
    # retract trusts its table.  With a table that is not isotone, the fixed
    # points {}, {0}, {1}, {0,1,2}, {0,1,3}, {0,1,2,3} of B16 are no lattice:
    # sublattice_on of that set must still refuse it, after retract has
    # cached its restriction, and again on a second read.
    lattice = corpus.named_lattices()["B16"]
    at = {label: a for a, label in enumerate(lattice.labels)}
    fixed = [at[x] for x in ("{}", "{0}", "{1}", "{0,1,2}", "{0,1,3}", "{0,1,2,3}")]
    table = tuple(a if a in fixed else at["{}"] for a in lattice.elements())
    image = core.retract(lattice, table).lattice
    for _ in range(2):
        with pytest.raises(NotALattice) as err:
            core.sublattice_on(lattice, fixed)
        assert str(err.value) == "no least upper bound for {0}, {1}"
    assert image.size == 6
    # The retract of a checked table is proved on the first sublattice_on of
    # its set and not again, and both read the same lattice.
    proofs = []
    real = core._cover_joins_exist

    def spy(up, upper_covers):
        proofs.append(up)
        return real(up, upper_covers)

    monkeypatch.setattr(core, "_cover_joins_exist", spy)
    interval = core.lower_interval(lattice, at["{0,1}"]).lattice
    assert proofs == []
    down = [at[x] for x in ("{}", "{0}", "{1}", "{0,1}")]
    assert core.sublattice_on(lattice, down) is interval
    assert core.sublattice_on(lattice, down) is interval
    assert len(proofs) == 1


def ref_direct_product(factors):
    """(up rows, labels, projection, bottom section and top section tables)
    of the product, its order built pair by pair."""
    elems = list(itertools.product(*[range(f.size) for f in factors]))
    index = {e: i for i, e in enumerate(elems)}
    up = [
        sum(1 << index[b] for b in elems if all(f.leq(x, y) for f, x, y in zip(factors, a, b)))
        for a in elems
    ]
    if len(factors) == 1:
        labels = tuple(factors[0].labels[e[0]] for e in elems)
    else:
        labels = tuple("(%s)" % ",".join(f.labels[x] for f, x in zip(factors, e)) for e in elems)
    maps = [tuple(e[k] for e in elems) for k in range(len(factors))]
    for bound in ("bottom", "top"):
        maps += [
            tuple(
                index[tuple(b if i == k else getattr(g, bound) for i, g in enumerate(factors))]
                for b in f.elements()
            )
            for k, f in enumerate(factors)
        ]
    return up, labels, maps


def ref_horizontal_sum(factors):
    """(up rows, labels, inclusion, top collapse and bottom collapse tables)
    of the sum, its order built pair by pair."""
    labels, where = ["0"], {}
    for k, f in enumerate(factors):
        for e in f.elements():
            if e not in (f.bottom, f.top):
                where[(k, e)] = len(labels)
                labels.append("L%d:%s" % (k + 1, f.labels[e]))
    top = len(labels)
    labels.append("1")
    n = top + 1
    up = [1 << i | 1 << top for i in range(n)]
    up[0] = (1 << n) - 1
    for (k, a), i in where.items():
        for (m, b), j in where.items():
            if k == m and factors[k].leq(a, b):
                up[i] |= 1 << j
    incs = [
        tuple(0 if e == f.bottom else top if e == f.top else where[(k, e)] for e in f.elements())
        for k, f in enumerate(factors)
    ]
    collapses = []
    for bound in ("top", "bottom"):
        for f, inc in zip(factors, incs):
            back = {v: e for e, v in zip(f.elements(), inc)}
            collapses.append(tuple(back.get(x, getattr(f, bound)) for x in range(n)))
    return up, tuple(labels), incs + collapses


def ref_lattice_of_sets(family):
    """(up rows, labels, sets) of the family ordered by inclusion, pair by pair."""
    sets = sorted(set(map(frozenset, family)), key=lambda s: (len(s), sorted(s)))
    up = [sum(1 << j for j, b in enumerate(sets) if a <= b) for a in sets]
    labels = tuple("{%s}" % ",".join(map(str, sorted(s))) for s in sets)
    return up, labels, sets


@st.composite
def factor_lists(draw):
    """One to three corpus lattices of 2 to 9 elements, some renumbered,
    with at most 64 elements in their product."""
    factors, total = [], 1
    for name in draw(st.lists(st.sampled_from(SMALL), min_size=1, max_size=3)):
        lattice = corpus.named_lattice(name)
        if lattice.size > 1 and total * lattice.size <= 64:
            total *= lattice.size
            factors.append(renumbered(lattice, draw) if draw(st.booleans()) else lattice)
    return factors or [corpus.named_lattice("D4")]


set_families = st.lists(st.frozensets(st.integers(0, 4)), max_size=12)


@settings(deadline=None, max_examples=150)
@given(factors=factor_lists(), family=set_families)
def test_library_orders_are_built_proved(factors, family):
    # Products, sums and lattices of sets build their orders from covers or
    # up- and down-rows, proved by construction: the same lattices and maps
    # as the orders built pair by pair, and nothing validated again.
    with mock.patch.object(
        core, "_antisymmetry_witness", wraps=core._antisymmetry_witness
    ) as spy:
        product = core.direct_product(factors)
        hsum = core.horizontal_sum(factors)
        family = family + [frozenset(), frozenset(range(5))]
        of_sets = outcome(lattice_of_sets, family)
        duals = [lattice.dual for lattice in (product.lattice, hsum.lattice)]
    assert spy.call_count == 0
    built = [product.lattice, hsum.lattice] + duals
    if isinstance(of_sets[0], core.FiniteLattice):  # not an error outcome
        built.append(of_sets[0])
    # Each poset came with its down-sets and its proof; none is transposed.
    assert all({"down", "_proved"} <= lattice.poset.__dict__.keys() for lattice in built)
    for got, maps, (up, labels, tables) in [
        (product, product.projections + product.bottom_sections + product.top_sections,
         ref_direct_product(factors)),
        (hsum, hsum.inclusions + hsum.top_collapses + hsum.bottom_collapses,
         ref_horizontal_sum(factors)),
    ]:
        assert got.lattice == lattice_from_poset(FinitePoset(tuple(up), labels))
        assert got.lattice.poset.down == FinitePoset(tuple(up)).down
        assert [f.values for f in maps] == tables
    up, labels, _ = ref_horizontal_sum([])
    assert core.horizontal_sum([]).lattice == lattice_from_poset(FinitePoset(tuple(up), labels))
    for dual, lattice in zip(duals, (product.lattice, hsum.lattice)):
        assert (dual.poset.up, dual.poset.down) == (lattice.poset.down, lattice.poset.up)
    up, labels, sets = ref_lattice_of_sets(family)
    want = outcome(lattice_from_poset, FinitePoset(tuple(up), labels))
    if isinstance(want, tuple):
        assert of_sets == want
    else:
        assert of_sets == (want, sets)
        assert of_sets[0].poset.down == FinitePoset(tuple(up)).down


@settings(deadline=None, max_examples=200)
@given(poset=cover_posets())
def test_covers_match_definition(poset):
    n = poset.size
    assert [covers(poset, a) for a in range(n)] == [ref_covers(poset, a) for a in range(n)]
    assert cover_pairs(poset) == [(a, b) for a in range(n) for b in ref_covers(poset, a)]
    # The diagram build_poset kept, and the scan of an equal poset that
    # keeps none.
    assert poset.upper_covers == [ref_covers(poset, a) for a in range(n)]
    assert FinitePoset(poset.up, poset.labels).upper_covers == poset.upper_covers
    try:
        lattice = lattice_from_poset(poset)
    except ValidationError:
        return
    assert lattice.atoms() == ref_covers(poset, lattice.bottom)
    assert lattice.dual.atoms() == [a for a in range(n) if lattice.top in ref_covers(poset, a)]


def renumbered_poset(poset, perm):
    """The order with element a renumbered perm[a], given as up-sets, so it
    keeps no Hasse diagram."""
    up = [0] * poset.size
    for a, row in enumerate(poset.up):
        up[perm[a]] = sum(1 << perm[b] for b in range(poset.size) if row >> b & 1)
    labels = [None] * poset.size
    for a, label in enumerate(poset.labels):
        labels[perm[a]] = label
    return FinitePoset(tuple(up), tuple(labels))


@settings(deadline=None, max_examples=400)
@given(poset=cover_posets(), data=st.data())
@example(poset=NO_JOIN_NO_MEET, data=None)
def test_the_cover_proof_accepts_exactly_the_complete_join_tables(poset, data):
    # With its kept diagram, and renumbered with a scanned one, an order is
    # a lattice iff it has a bottom and its brute-force join table misses
    # no entry (then the join of all elements is a top, and every meet is
    # the join of the lower bounds); a refusal names the first pair of the
    # full-table search, with its message and witness.
    n = poset.size
    perm = data.draw(st.permutations(range(n))) if data else list(reversed(range(n)))
    for each in (poset, renumbered_poset(poset, perm)):
        joins = ref_join_table(each)
        complete = (1 << n) - 1 in each.up and all(None not in row for row in joins)
        got = outcome(lattice_from_poset, each)
        assert isinstance(got, core.FiniteLattice) == complete
        if complete:
            assert got.join_table == joins
        else:
            assert got == outcome(ref_lattice, each)


@settings(deadline=None, max_examples=300)
@given(relation=relations, data=st.data())
def test_repeated_reflexive_and_transitive_pairs_keep_the_diagram(relation, data):
    # build_poset given each pair twice, some pairs a<a and every a<c beside
    # a<b and b<c, in a drawn order, builds the same order with the same
    # upper covers as the pairs alone, or refuses it the same way.
    n, pairs = relation
    if data.draw(st.booleans()):  # acyclic: every pair along index order
        pairs = [(min(pair), max(pair)) for pair in pairs]
        if data.draw(st.booleans()):  # and bounded, so often a lattice
            pairs += [(0, x) for x in range(n)] + [(x, n - 1) for x in range(n)]
    loops = [(a, a) for a in data.draw(st.lists(st.integers(0, n - 1), max_size=3))]
    closing = [(a, d) for a, b in pairs for c, d in pairs if b == c]
    extended = data.draw(st.permutations(pairs + pairs + loops + closing))
    got = outcome(build_poset, n, extended)
    assert got == outcome(build_poset, n, pairs)
    if isinstance(got, FinitePoset):
        want = [ref_covers(got, a) for a in range(n)]
        assert got.upper_covers == want == build_poset(n, pairs).upper_covers
        lattice = outcome(lattice_from_poset, got)
        if isinstance(lattice, core.FiniteLattice):
            for each in (lattice, lattice.dual):
                assert each.lower_covers == ref_lower_covers(each)


def interval_above(lattice, a):
    """The elements of [a, 1], a sublattice restricted with a proof."""
    return [x for x in lattice.elements() if lattice.leq(a, x)]


@settings(deadline=None, max_examples=150)
@given(poset=cover_posets(), factors=factor_lists(), family=set_families, data=st.data())
def test_lower_covers_match_the_scan_on_every_construction(poset, factors, family, data):
    # Orders built from pairs, from sets, from up-sets and from theorems;
    # each with its upper extension and two restrictions, a lower interval
    # (unproved) and an upper one (proved); each read before or after its
    # dual.
    built = [
        core.direct_product(factors).lattice,
        core.horizontal_sum(factors).lattice,
        corpus.chain(data.draw(st.integers(1, 9))),
        corpus.boolean_lattice(data.draw(st.integers(0, 4))),
    ]
    of_sets = outcome(lattice_of_sets, family + [frozenset(), frozenset(range(5))])
    if isinstance(of_sets[0], core.FiniteLattice):
        built.append(of_sets[0])
    lattice = outcome(lattice_from_poset, poset)
    if isinstance(lattice, core.FiniteLattice):
        built += [lattice, renumbered(lattice, data.draw)]
    for lattice in list(built):
        a = data.draw(st.sampled_from(lattice.elements()))
        built += [
            core.upper_extension(lattice),
            core.lower_interval(lattice, a).lattice,
            core.sublattice_on(lattice, interval_above(lattice, a)),
        ]
    for lattice in built:
        for each in (lattice.dual, lattice) if data.draw(st.booleans()) else (lattice, lattice.dual):
            assert each.lower_covers == ref_lower_covers(each)


@settings(deadline=None, max_examples=400)
@given(f=map_pairs())
def test_map_checks_match_pairwise_definitions(f):
    dom, cod = f.dom, f.cod
    v = f.values
    assert f.is_isotone() == ref_is_isotone(f)
    joins = ref_preserves(f, dom.join_table, cod.join_table)
    meets = ref_preserves(f, dom.meet_table, cod.meet_table)
    profile = preservation_profile(f)
    assert nonempty_joins(f) == joins
    assert nonempty_meets(f) == meets
    assert profile.joins == (joins and v[dom.bottom] == cod.bottom)
    assert profile.meets == (meets and v[dom.top] == cod.top)
    assert profile.balanced == (v[dom.top] == cod.top)
    assert profile.bottom_fixed == (v[dom.bottom] == cod.bottom)
    assert profile.dense == all(v[a] != cod.bottom for a in dom.elements() if a != dom.bottom)
    assert profile.top_reflecting == all(v[a] != cod.top for a in dom.elements() if a != dom.top)


def test_isotonicity_by_covers_matches_the_pairwise_definition_on_large_carriers():
    # is_isotone reads covers only; ref_is_isotone quantifies over all
    # pairs.  Each map is the join of the c with d <= x over a few drawn
    # (d, c), which is isotone, then one value redrawn, or a random table.
    rng = random.Random(27)
    chain, diamond, m3 = corpus.chain, corpus.diamond(), corpus.m3()
    carriers = [
        core.direct_product([chain(4), chain(4)]).lattice,
        core.direct_product([chain(3), diamond, chain(4)]).lattice,
        core.direct_product([m3, chain(4), chain(3)]).lattice,
        core.horizontal_sum([chain(8), chain(10)]).lattice,
        core.horizontal_sum([chain(12), corpus.n5(), chain(20)]).lattice,
        corpus.boolean_lattice(4),
        corpus.boolean_lattice(5),
        corpus.boolean_lattice(6),
    ]
    carriers += [renumber(lat, rng.sample(range(lat.size), lat.size)) for lat in carriers]
    assert {16, 48, 60, 64} <= {lat.size for lat in carriers} <= set(range(16, 65))
    verdicts = set()
    for dom, other in zip(carriers, carriers[1:] + carriers[:1]):
        for cod in (dom, other):
            for _ in range(6):
                drawn = [(rng.randrange(dom.size), rng.randrange(cod.size)) for _ in range(3)]
                table = [cod.join([c for d, c in drawn if dom.leq(d, x)]) for x in dom.elements()]
                for _ in range(rng.randrange(2)):
                    table[rng.randrange(dom.size)] = rng.randrange(cod.size)
                for values in (table, [rng.randrange(cod.size) for _ in dom.elements()]):
                    f = LatticeMap(dom, cod, tuple(values))
                    verdicts.add(f.is_isotone())
                    assert f.is_isotone() == ref_is_isotone(f), (dom.labels, values)
    assert verdicts == {True, False}


@settings(deadline=None, max_examples=400)
@given(f=map_pairs())
def test_adjoints_match_definitions(f):
    dom, cod = f.dom, f.cod
    witness = ref_witness(f, dom.join_table, cod.join_table, dom.bottom, cod.bottom)
    if witness is None:
        g = right_adjoint(f)
        assert g.values == tuple(
            ref_fold(dom.join_table, dom.bottom,
                     [a for a in dom.elements() if cod.leq(f.values[a], b)])
            for b in cod.elements()
        )
        assert ref_adjunction(f, g)
    else:
        with pytest.raises(NotJoinPreserving) as info:
            right_adjoint(f)
        assert info.value.witness == witness
    witness = ref_witness(f, dom.meet_table, cod.meet_table, dom.top, cod.top)
    if witness is None:
        h = left_adjoint(f)
        assert h.values == tuple(
            ref_fold(dom.meet_table, dom.top,
                     [b for b in dom.elements() if cod.leq(a, f.values[b])])
            for a in cod.elements()
        )
        assert ref_adjunction(h, f)
    else:
        with pytest.raises(NotMeetPreserving) as info:
            left_adjoint(f)
        assert info.value.witness == witness


@settings(deadline=None, max_examples=400)
@given(
    f=map_pairs(),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=9, max_size=9),
)
def test_check_adjunction_matches_galois_condition(f, picks):
    # Any table for g: mostly not an adjoint, sometimes one.
    g = LatticeMap(f.cod, f.dom, tuple(p % f.dom.size for p in picks[: f.cod.size]))
    assert check_adjunction(f, g) == ref_adjunction(f, g)
    if ref_witness(f, f.dom.join_table, f.cod.join_table, f.dom.bottom, f.cod.bottom) is None:
        assert check_adjunction(f, right_adjoint(f))


def test_atom_sets_match_the_join_of_atoms_definition():
    lattices = list(corpus.named_lattices().values())
    lattices += [random_moore_lattice(seed, 2 + seed % 5, seed % 7) for seed in range(200)]
    verdicts = set()
    for lattice in lattices:
        for lat in (lattice, lattice.dual):
            assert lat.atom_sets == ref_atom_sets(lat)
            assert lat.is_atomistic() == ref_is_atomistic(lat)
            verdicts.add(lat.is_atomistic())
    assert verdicts == {True, False}


def test_random_moore_lattice_matches_the_pairwise_closure():
    # The corpus's R00-R19, then seeds 0-199 at four sizes.
    cases = [(1000 + k, 5, 3) for k in range(20)]
    cases += [(seed, n, 1 + seed % 6) for n in (3, 4, 5, 6) for seed in range(200)]
    sizes = set()
    for seed, n_points, n_generators in cases:
        lattice = random_moore_lattice(seed, n_points, n_generators)
        assert lattice == ref_moore_lattice(seed, n_points, n_generators), (seed, n_points)
        sizes.add(lattice.size)
    assert len(sizes) > 10


# The corpus lattices of at most 4 elements and their duals; in a dual the
# index order runs against the lattice order.
TINY = [
    lat
    for base in corpus.named_lattices(max_size=4).values()
    for lat in (base, base.dual)
]


def ref_right_adjoint(f):
    """The right adjoint's table by the fold, or the error right_adjoint
    must raise: the first failing pair of the pairwise scan."""
    dom, cod = f.dom, f.cod
    witness = ref_witness(f, dom.join_table, cod.join_table, dom.bottom, cod.bottom)
    if witness is not None:
        return (NotJoinPreserving, "map does not preserve joins", witness)
    return tuple(
        ref_fold(dom.join_table, dom.bottom,
                 [a for a in dom.elements() if cod.leq(f.values[a], b)])
        for b in cod.elements()
    )


def ref_left_adjoint(f):
    dom, cod = f.dom, f.cod
    witness = ref_witness(f, dom.meet_table, cod.meet_table, dom.top, cod.top)
    if witness is not None:
        return (NotMeetPreserving, "map does not preserve meets", witness)
    return tuple(
        ref_fold(dom.meet_table, dom.top,
                 [b for b in dom.elements() if cod.leq(a, f.values[b])])
        for a in cod.elements()
    )


def adjoint_outcome(adjoint, f):
    try:
        return adjoint(f).values
    except ValidationError as exc:
        return (type(exc), str(exc), exc.witness)


def test_residual_kernel_matches_the_fold_on_every_small_table():
    # Every value table, isotone or not, between the tiny lattices.
    checked = joins = meets = 0
    for dom in TINY:
        for cod in TINY:
            for values in itertools.product(cod.elements(), repeat=dom.size):
                f = LatticeMap(dom, cod, values)
                right, left = ref_right_adjoint(f), ref_left_adjoint(f)
                # The profile reads the residual first, then the adjoints do.
                profile = preservation_profile(f)
                assert profile.joins == (right[0] is not NotJoinPreserving)
                assert profile.meets == (left[0] is not NotMeetPreserving)
                assert adjoint_outcome(right_adjoint, f) == right, values
                assert adjoint_outcome(left_adjoint, f) == left, values
                checked += 1
                joins += profile.joins
                meets += profile.meets
    assert checked == 122536 and joins == meets and joins > 1000


def ref_below(f):
    """The pairs (a, b) with f(a) <= b, as one flag per pair."""
    return tuple(f.cod.leq(f.values[a], b) for a in f.dom.elements() for b in f.cod.elements())


def ref_above(g):
    """The pairs (a, b) with a <= g(b), in the order of ref_below."""
    return tuple(g.cod.leq(a, g.values[b]) for a in g.cod.elements() for b in g.dom.elements())


def test_relation_bitmasks_match_the_definitions_on_isotone_pairs():
    pairs = adjoint = ordered = 0
    for first in TINY:
        for second in TINY:
            fs, gs = hom_set(first, second, "isotone"), hom_set(second, first, "isotone")
            above = {g: ref_above(g) for g in gs}
            for f in fs:
                below = ref_below(f)
                for g in gs:
                    expected = below == above[g]
                    assert check_adjunction(f, g) == expected, (f.values, g.values)
                    adjoint += expected
                for h in fs:
                    expected = all(second.leq(x, y) for x, y in zip(f.values, h.values))
                    assert map_leq(f, h) == expected, (f.values, h.values)
                    ordered += expected
                pairs += len(gs)
    assert pairs == 588720 and 0 < adjoint < pairs and 0 < ordered


def test_join_and_meet_maps_run_no_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan ran")

    monkeypatch.setattr(maps, "_failing_pair", no_scan)
    for dom in TINY:
        for cod in TINY:
            for f in hom_set(dom, cod, "join"):
                fresh = LatticeMap(dom, cod, f.values)
                assert preservation_profile(fresh).joins
                assert right_adjoint(fresh).values == ref_right_adjoint(f)
                assert coherence_check(LatticeMap(dom, cod, f.values), power_map(f))
            for f in hom_set(dom, cod, "meet"):
                fresh = LatticeMap(dom, cod, f.values)
                assert preservation_profile(fresh).meets
                assert left_adjoint(fresh).values == ref_left_adjoint(f)
