"""Hom-set enumeration against a brute-force filter over every value table.

The reference tries all cod.size ** dom.size tables in lexicographic order
and keeps those satisfying the plain definition of each class, so it needs
neither irreducibles nor a search order.  Lattices are small random ones,
renumbered at random so that index order need not extend the lattice order.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latkit import corpus, maps
from latkit.core import FinitePoset, build_poset, lattice_from_poset
from latkit.errors import NotALattice, SizeLimit
from latkit.maps import _JoinSearch, hom_set

CLASSES = ("isotone", "join", "meet", "balanced-join", "dense-join", "atomic-join")

# ---------------------------------------------------------------- references


def ref_preserves(values, dom_table, cod_table, dom_unit, cod_unit):
    n = len(values)
    return values[dom_unit] == cod_unit and all(
        values[dom_table[a][b]] == cod_table[values[a]][values[b]]
        for a in range(n)
        for b in range(n)
    )


def ref_atoms(lattice):
    """Elements strictly above bottom with nothing strictly in between."""
    leq, bottom = lattice.leq, lattice.bottom
    return [
        a
        for a in lattice.elements()
        if a != bottom
        and not any(c not in (a, bottom) and leq(c, a) for c in lattice.elements())
    ]


def ref_irreducibles(lattice, table, unit, strictly_beyond):
    """Elements other than the unit that are not the fold of the elements
    strictly beyond them (below for joins, above for meets)."""
    out = []
    for a in lattice.elements():
        if a == unit:
            continue
        folded = unit
        for x in lattice.elements():
            if x != a and strictly_beyond(x, a):
                folded = table[folded][x]
        if folded != a:
            out.append(a)
    return out


def ref_join_irreducibles(lattice):
    return ref_irreducibles(lattice, lattice.join_table, lattice.bottom, lattice.leq)


def ref_meet_irreducibles(lattice):
    return ref_irreducibles(
        lattice, lattice.meet_table, lattice.top, lambda x, a: lattice.leq(a, x)
    )


def ref_hom_sets(dom, cod):
    """class -> the value tables of the class, in lexicographic order."""
    dom_atoms = ref_atoms(dom)
    targets = set(ref_atoms(cod)) | {cod.bottom}
    comparable = [(a, b) for a in dom.elements() for b in dom.elements() if dom.leq(a, b)]
    out = {cls: [] for cls in CLASSES}
    for values in itertools.product(range(cod.size), repeat=dom.size):
        if all(cod.leq(values[a], values[b]) for a, b in comparable):
            out["isotone"].append(values)
        if ref_preserves(values, dom.meet_table, cod.meet_table, dom.top, cod.top):
            out["meet"].append(values)
        if not ref_preserves(values, dom.join_table, cod.join_table, dom.bottom, cod.bottom):
            continue
        out["join"].append(values)
        if values[dom.top] == cod.top:
            out["balanced-join"].append(values)
        if all(values[a] != cod.bottom for a in dom.elements() if a != dom.bottom):
            out["dense-join"].append(values)
        if all(values[p] in targets for p in dom_atoms):
            out["atomic-join"].append(values)
    return out


# ---------------------------------------------------------------- strategies


def renumber(lattice, perm):
    up = [
        sum(1 << j for j in range(lattice.size) if lattice.leq(perm[i], perm[j]))
        for i in range(lattice.size)
    ]
    return lattice_from_poset(
        FinitePoset(tuple(up), tuple(lattice.labels[e] for e in perm))
    )


@st.composite
def small_lattices(draw, max_size=6):
    """A lattice of at most max_size elements, renumbered at random: a
    random cover relation between a bottom and a top, or a corpus member."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=max_size))
        candidates = list(itertools.combinations(range(1, n - 1), 2))
        chosen = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
        pairs = [pair for pair, keep in zip(candidates, chosen) if keep]
        pairs += [(0, b) for b in range(1, n)] + [(a, n - 1) for a in range(n - 1)]
        try:
            lattice = lattice_from_poset(build_poset(n, pairs))
        except NotALattice:
            assume(False)
    else:
        names = sorted(corpus.named_lattices(max_size=max_size))
        lattice = corpus.named_lattice(draw(st.sampled_from(names)))
    return renumber(lattice, draw(st.permutations(range(lattice.size))))


# --------------------------------------------------------------------- tests


@settings(deadline=None, max_examples=150)
@given(dom=small_lattices(), cod=small_lattices())
def test_hom_sets_match_brute_force(dom, cod):
    expected = ref_hom_sets(dom, cod)
    for cls in CLASSES:
        assert [f.values for f in hom_set(dom, cod, cls)] == expected[cls], cls


@settings(deadline=None, max_examples=200)
@given(lattice=small_lattices(max_size=8))
def test_irreducibles_match_definition(lattice):
    assert _JoinSearch(lattice).irr == ref_join_irreducibles(lattice)
    assert _JoinSearch(lattice.dual).irr == ref_meet_irreducibles(lattice)


@settings(deadline=None, max_examples=100)
@given(
    dom=small_lattices(),
    cod=small_lattices(),
    cls=st.sampled_from(CLASSES),
    slack=st.integers(min_value=-2, max_value=2),
)
def test_size_limit_depends_only_on_candidate_count(dom, cod, cls, slack):
    if cls == "isotone":
        candidates = cod.size ** dom.size
    else:
        irr = ref_meet_irreducibles(dom) if cls == "meet" else ref_join_irreducibles(dom)
        candidates = cod.size ** len(irr)
    bound = max(0, candidates + slack)
    with mock.patch.object(maps, "HOM_SET_CANDIDATE_BOUND", bound):
        if candidates > bound:
            with pytest.raises(SizeLimit) as info:
                hom_set(dom, cod, cls)
            assert str(info.value) == "%d candidate maps exceed bound %d" % (candidates, bound)
        else:
            hom_set(dom, cod, cls)
