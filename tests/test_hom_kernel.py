"""The join Hom-set kernel: its per-domain data, closed-form counts on pairs
far beyond a brute-force filter over value tables, and the power maps that
basedness packs from its value tables.

The closed forms:
- for a distributive L, the join maps L -> M are the join-extensions of the
  isotone maps J(L) -> M (Birkhoff; Davey & Priestley, ch. 5), so
  |Hom(B_n, M)| = |M|^n and |Hom(C_{k+1}, M)| is the number of k-multichains
  of M;
- every join map has exactly one right adjoint, so |Hom_join(L, M)| =
  |Hom_meet(M, L)|;
- a join map into a product is a pair of join maps, so |Hom(L, M x N)| =
  |Hom(L, M)| * |Hom(L, N)|;
- the join maps L -> C2 are x |-> [x not<= a], one for each a in L.
"""

import hashlib
import itertools

import pytest

from latkit import corpus, maps
from latkit.core import FinitePoset, direct_product, lattice_from_poset
from latkit.errors import SizeLimit
from latkit.maps import MAP_CLASSES, _join_search, hom_set
from latkit.transition import _power_packs, nonzero, power_map, union_map

LATTICES = corpus.named_lattices()

# ---------------------------------------------------------------- references


def is_distributive(lattice):
    join, meet, n = lattice.join_table, lattice.meet_table, lattice.size
    return all(
        meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def ref_join_irreducibles(lattice):
    """Elements other than bottom that are not the join of those strictly below."""
    return [
        a
        for a in lattice.elements()
        if a != lattice.bottom
        and lattice.join([x for x in lattice.elements() if x != a and lattice.leq(x, a)]) != a
    ]


def ref_join_prime(lattice, j):
    """j <= a v b implies j <= a or j <= b, for every pair a, b."""
    leq = lattice.leq
    return all(
        leq(j, a) or leq(j, b) or not leq(j, lattice.join([a, b]))
        for a in lattice.elements()
        for b in lattice.elements()
    )


def count_isotone(dom_elems, leq, cod):
    """Isotone maps from the poset (dom_elems, leq) to cod, by brute force."""
    pairs = [
        (x, y)
        for x, y in itertools.permutations(range(len(dom_elems)), 2)
        if leq(dom_elems[x], dom_elems[y])
    ]
    return sum(
        all(cod.leq(values[x], values[y]) for x, y in pairs)
        for values in itertools.product(cod.elements(), repeat=len(dom_elems))
    )


def count_multichains(lattice, k):
    """Chains x1 <= ... <= xk in lattice."""
    ending = [1] * lattice.size
    for _ in range(k - 1):
        ending = [
            sum(c for x, c in enumerate(ending) if lattice.leq(x, y)) for y in lattice.elements()
        ]
    return sum(ending)


def brute_force_out_of_reach(dom, cod):
    return cod.size ** dom.size > 10**6


# ------------------------------------------------------------ domain data


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_irreducibles_are_join_prime_exactly_in_distributive_domains(name):
    for lattice in (LATTICES[name], LATTICES[name].dual):
        search = _join_search(lattice)
        assert search.irr == ref_join_irreducibles(lattice)
        assert search.prime == all(ref_join_prime(lattice, j) for j in search.irr)
        assert search.prime == is_distributive(lattice)


def test_the_corpus_has_29_distributive_lattices_and_not_n5_or_m3():
    distributive = {name for name, lat in LATTICES.items() if _join_search(lat).prime}
    assert len(distributive) == 29 and {"N5", "M3"}.isdisjoint(distributive)


def test_distributive_domains_enumerate_without_a_scan_or_a_leaf_test(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan ran")

    tested = []
    real_leaf_test = maps._residual_table

    def leaf_test(values, dom, cod):
        tested.append(dom)
        return real_leaf_test(values, dom, cod)

    monkeypatch.setattr(maps, "_failing_pair", no_scan)
    monkeypatch.setattr(maps, "_residual_table", leaf_test)
    small = corpus.named_lattices(max_size=5)
    for name, dom in corpus.named_lattices().items():
        if not is_distributive(dom):
            continue
        for cod in small.values():
            for cls in ("join", "balanced-join", "dense-join", "atomic-join"):
                hom_set(dom, cod, cls)
        assert tested == [], name
    # A domain that is not distributive tests its leaves.
    hom_set(corpus.n5(), corpus.chain(2))
    assert tested


def test_domain_data_is_built_once_per_lattice_instance(monkeypatch):
    built = []
    real_init = maps._JoinSearch.__init__

    def init(self, lattice):
        built.append(lattice)
        real_init(self, lattice)

    monkeypatch.setattr(maps._JoinSearch, "__init__", init)
    n5, other = corpus.n5(), corpus.n5()
    for cod in (corpus.chain(2), corpus.chain(3), corpus.m3()):
        for cls in ("join", "balanced-join", "dense-join", "atomic-join"):
            hom_set(n5, cod, cls)
    assert _join_search(n5).irr == [1, 2, 3]
    assert built == [n5]
    # An equal lattice built apart has its own data.
    hom_set(other, corpus.chain(2))
    assert built == [n5, other] and _join_search(other) is not _join_search(n5)


# ---------------------------------------------------------- pinned tables

# sha256 of every Hom-set table, or SizeLimit message, that the test below
# reads: 315,757 tables, taken from the kernel that cut branches by minimal
# join covers, so the leaf residual test is held to its outputs.
HOM_TABLES_SHA256 = "9e2007f473fde27ed42bfdb6cd07048a57682c891f089f8328899f9181b47514"


def test_hom_tables_of_every_class_match_the_pinned_digest():
    small = corpus.named_lattices(max_size=8)
    digest, count = hashlib.sha256(), 0
    for d, c in itertools.product(sorted(small), repeat=2):
        dom, cod = small[d], small[c]
        for cls in MAP_CLASSES:
            if cls == "isotone" and cod.size ** dom.size > 20_000:
                continue
            try:
                tables = [f.values for f in hom_set(dom, cod, cls)]
            except SizeLimit as exc:
                digest.update(("%s %s %s: %s\n" % (d, c, cls, exc)).encode())
                continue
            count += len(tables)
            digest.update(("%s %s %s: %r\n" % (d, c, cls, tables)).encode())
    assert count == 315_757
    assert digest.hexdigest() == HOM_TABLES_SHA256


# ---------------------------------------------------------- closed forms


def test_boolean_domains_count_cod_size_to_the_atoms():
    pairs = [("B16", "B8"), ("B8", "B16"), ("B16", "C3xC3"), ("B8", "R16"), ("B16", "O6")]
    for d, c in pairs:
        dom, cod = LATTICES[d], LATTICES[c]
        assert brute_force_out_of_reach(dom, cod)
        assert len(hom_set(dom, cod)) == cod.size ** len(dom.atoms()), (d, c)
    assert len(hom_set(LATTICES["B16"], LATTICES["B8"])) == 8**4


def test_chain_domains_count_multichains():
    for k in (2, 3, 4):
        dom = corpus.chain(k + 1)
        for cod in (LATTICES["B16"], LATTICES["C3xC3"], LATTICES["R16"], LATTICES["O6"]):
            assert len(hom_set(dom, cod)) == count_multichains(cod, k)
    assert len(hom_set(corpus.chain(5), LATTICES["B16"])) == 5**4


def test_distributive_domains_count_isotone_maps_on_join_irreducibles():
    checked = 0
    for dom in LATTICES.values():
        if dom.size < 6 or not is_distributive(dom):
            continue
        irr = ref_join_irreducibles(dom)
        for cod in LATTICES.values():
            if not brute_force_out_of_reach(dom, cod) or cod.size ** len(irr) > 3000:
                continue
            assert len(hom_set(dom, cod)) == count_isotone(irr, dom.leq, cod)
            checked += 1
    assert checked >= 40


def test_join_maps_one_way_match_meet_maps_the_other():
    names = ["N5", "M3", "C4+C3", "R04", "O6", "R01", "R16", "B8", "C3xC3", "B16"]
    checked = 0
    for a, b in itertools.product(names, repeat=2):
        dom, cod = LATTICES[a], LATTICES[b]
        if cod.size ** len(ref_join_irreducibles(dom)) > 20_000:
            continue
        assert len(hom_set(dom, cod, "join")) == len(hom_set(cod, dom, "meet")), (a, b)
        checked += brute_force_out_of_reach(dom, cod)
    assert checked >= 30


def test_join_maps_into_a_product_are_pairs_of_join_maps():
    factors = [corpus.chain(2), corpus.chain(3), corpus.n5(), corpus.m3()]
    for d in ("N5", "M3", "C4+C3", "O6", "R01", "R16"):
        dom = LATTICES[d]
        for m, n in itertools.combinations_with_replacement(factors, 2):
            product = direct_product([m, n]).lattice
            if product.size ** len(ref_join_irreducibles(dom)) > 20_000:
                continue
            assert len(hom_set(dom, product)) == len(hom_set(dom, m)) * len(hom_set(dom, n))


def test_join_maps_into_two_elements_match_the_elements():
    two = corpus.chain(2)
    for name, lattice in LATTICES.items():
        assert len(hom_set(lattice, two)) == lattice.size, name
        assert len(hom_set(lattice.dual, two)) == lattice.size, name


# ----------------------------------------------------------------- packs


def power_pack(g):
    """The pack of g's power map, a |-> {g(a)} minus zero, built from its images."""
    images = {a: {g(a)} - {g.cod.bottom} for a in nonzero(g.dom)}
    return union_map(g.dom, g.cod, images).pack


def test_power_packs_read_off_the_tables_match_the_power_maps():
    small = corpus.named_lattices(max_size=5)
    for source in small.values():
        for target in small.values():
            homs = hom_set(source, target)
            expected = [power_pack(g) for g in homs]
            assert _power_packs(source, target) == expected
            assert [power_map(g).pack for g in homs] == expected


def test_power_packs_on_a_renumbered_target():
    # The zero of this target is not element 0, so fields skip it mid-row.
    n5 = corpus.n5()
    perm = [3, 4, 0, 1, 2]
    up = tuple(sum(1 << j for j in range(5) if n5.leq(perm[i], perm[j])) for i in range(5))
    target = lattice_from_poset(FinitePoset(up))
    assert target.bottom == 2
    for source in (corpus.m3(), corpus.chain(4), corpus.diamond(), target):
        expected = [power_pack(g) for g in hom_set(source, target)]
        assert _power_packs(source, target) == expected
