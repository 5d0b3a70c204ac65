"""Top-level acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line,
so a plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager

from latkit import cli, closure, corpus, ortho, stateprop, suite, transition, weak
from latkit.core import LatticeMap, direct_product, identity_map
from latkit.maps import (
    check_adjunction,
    classify_morphism,
    compose,
    preservation_profile,
    right_adjoint,
    special_maps,
)
from test_cli import write_corpus
from test_maps import categorical_epi, categorical_mono, nonempty_meets

TWO = corpus.chain(2)
# The benchmark's record of the full seed-0 sweep, read here and never written.
GOLDEN_SWEEP = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "golden", "sweep_seed0.tsv"
)


def homs(dom, cod, cls="join"):
    return suite._homs(dom, cod, cls)


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("criterion %02d %-28s FAIL" % (number, name))
        raise
    elapsed = time.perf_counter() - start
    print("criterion %02d %-28s PASS (%.1f s)" % (number, name, elapsed))
    if budget is not None:
        assert elapsed < budget, "criterion %d exceeded %d s" % (number, budget)


def lattices(max_size):
    return list(corpus.named_lattices(max_size=max_size).items())


def run_law(prop, bound=None):
    """Every check of the suite.LAWS rows of prop passes on the shipped
    corpus; bound, when given, replaces the rows' own size bound."""
    rows = [row for row in suite.LAWS if row.prop == prop]
    assert rows, prop
    for row in rows:
        if bound is not None:
            row = suite.Law(row.prop, row.pool, bound, row.body, row.seeded)
        for _, label, check in row.checks(suite.default_bundle()):
            witness = check()
            assert witness is None, (prop, label, witness)


def test_criterion_01_adjunction_laws():
    with criterion(1, "adjunction-laws", budget=60):
        # Every pair of corpus lattices of at most 6 elements.
        run_law("adjoint-laws", bound=6)


def test_criterion_02_duality():
    with criterion(2, "duality", budget=60):
        # Double dual and Hom-order antitonicity, exhaustively per Hom-set.
        run_law("duality-involution", bound=6)
        # Contravariance on all composable pairs drawn from three carriers.
        table = corpus.named_lattices()
        trio = [table["C3"], table["D4"], table["M3"]]
        for la, lb, lc in itertools.product(trio, repeat=3):
            first = [(f, right_adjoint(f)) for f in homs(la, lb)]
            second = [(f, right_adjoint(f)) for f in homs(lb, lc)]
            for f1, g1 in first:
                for f2, g2 in second:
                    assert right_adjoint(compose(f2, f1)) == compose(g1, g2)


def test_criterion_03_dagger_calculus():
    with criterion(3, "dagger-calculus", budget=120):
        orthos = corpus.ortho_lattices()
        carriers = [orthos["B4"], orthos["B8"], orthos["O6"]]
        daggers = {}  # (carrier index pair) -> {values: dagger}
        for i, dom in enumerate(carriers):
            for j, cod in enumerate(carriers):
                daggers[(i, j)] = {
                    f.values: ortho.dagger(f, dom, cod)
                    for f in homs(dom.lattice, cod.lattice)
                }
        for i, dom in enumerate(carriers):
            for j, cod in enumerate(carriers):
                zero = LatticeMap(
                    dom.lattice, cod.lattice, (cod.lattice.bottom,) * dom.size
                )
                zero_back = LatticeMap(
                    cod.lattice, dom.lattice, (dom.lattice.bottom,) * cod.size
                )
                assert daggers[(i, j)][zero.values] == zero_back
                for f in homs(dom.lattice, cod.lattice):
                    d = daggers[(i, j)][f.values]
                    # Involution.
                    assert ortho.dagger(d, cod, dom) == f
                    # The dagger and order oracles for isometries agree.
                    via_order = all(
                        dom.lattice.leq(a, dom.comp(b))
                        == cod.lattice.leq(f(a), cod.comp(f(b)))
                        for a in dom.lattice.elements()
                        for b in dom.lattice.elements()
                    )
                    assert ortho.is_isometry(f, dom, cod) == via_order
        # Antihomomorphism over all composable pairs.
        for (a, da), (b, db), (c, dc) in itertools.product(
            enumerate(carriers), repeat=3
        ):
            for f1 in homs(da.lattice, db.lattice):
                d1 = daggers[(a, b)][f1.values]
                for f2 in homs(db.lattice, dc.lattice):
                    d2 = daggers[(b, c)][f2.values]
                    composite = compose(f2, f1)
                    assert daggers[(a, c)][composite.values] == compose(d1, d2)


def test_criterion_04_special_morphisms_and_classification():
    with criterion(4, "special-morphisms"):
        for _, lattice in lattices(6):
            # The one-point and point-test families exhaust their Hom-sets.
            points = {special_maps(lattice, a, TWO).point.values for a in lattice.elements()}
            tests = {
                special_maps(lattice, a, TWO).above_test.values
                for a in lattice.elements()
            }
            assert len(points) == lattice.size
            assert points == {f.values for f in homs(TWO, lattice)}
            assert tests == {g.values for g in homs(lattice, TWO, "meet")}
        table = corpus.named_lattices()
        probes = [table["C2"], table["C3"], table["D4"], table["B4"]]
        for _, l1 in lattices(4):
            for _, l2 in lattices(4):
                for f in homs(l1, l2):
                    g = right_adjoint(f)
                    flags = classify_morphism(f)
                    assert flags.epic == flags.surjective
                    assert flags.epic == (compose(f, g) == identity_map(l2))
                    assert flags.epic == (len(set(g.values)) == l2.size)
                    assert flags.epic == categorical_epi(f, probes)
                    assert flags.monic == flags.injective
                    assert flags.monic == (compose(g, f) == identity_map(l1))
                    assert flags.monic == categorical_mono(f, probes)


def test_criterion_05_product_universal_property():
    with criterion(5, "product-universal-property"):
        table = corpus.named_lattices()
        factor_pairs = [
            (table["C2"], table["C2"]),
            (table["C2"], table["C3"]),
            (table["C3"], table["C3"]),
            (table["C2"], table["D4"]),
        ]
        for left, right in factor_pairs:
            prod = direct_product([left, right])
            for _, source in lattices(4):
                mediators = homs(source, prod.lattice)
                for f1 in homs(source, left):
                    for f2 in homs(source, right):
                        matching = [
                            m
                            for m in mediators
                            if compose(prod.projections[0], m) == f1
                            and compose(prod.projections[1], m) == f2
                        ]
                        # Exactly one mediating morphism exists.
                        assert len(matching) == 1
                        m = matching[0]
                        for a in source.elements():
                            assert prod.elements[m(a)] == (f1(a), f2(a))


def weak_meet_maps(dom, cod):
    out = []
    for f in homs(dom, cod, "isotone"):
        if nonempty_meets(f):
            out.append(weak.WeakMeetMap(f))
    return out


def test_criterion_06_weak_adjunctions():
    with criterion(6, "weak-adjunctions"):
        pool = lattices(5)
        for _, l1 in pool:
            for _, l2 in pool:
                for g in weak_meet_maps(l1, l2):
                    partial = weak.restrict_codomain(g)[0]
                    upper = weak.pointed_extend(g)[1]
                    # The three routes between the presentations agree.
                    assert weak.partial_to_upper(partial) == upper
                    assert weak.upper_to_partial(upper) == partial
                    adjoint = right_adjoint(weak.partial_to_upper(partial).map)
                    for b in g.dom.elements():
                        assert adjoint(b) == g(b)
        # Functoriality of the partial-map route.
        table = corpus.named_lattices()
        c3, d4 = table["C3"], table["D4"]
        for g1 in weak_meet_maps(d4, c3):
            for g2 in weak_meet_maps(c3, d4):
                composite = weak.WeakMeetMap(compose(g1.map, g2.map))
                assert weak.compose_partial(
                    weak.restrict_codomain(g2)[0], weak.restrict_codomain(g1)[0]
                ) == weak.restrict_codomain(composite)[0]


def test_criterion_07_closure_and_space_equivalence():
    with criterion(7, "closure-monad-equivalence"):
        # Fixed points of the monad of every join map between corpus
        # lattices of at most 5 elements, both roundtrips of the
        # space/atomistic-lattice equivalence, and naturality of its
        # functors on continuous maps.
        for prop in ("closure-monad", "space-equivalence", "space-functors"):
            run_law(prop)
        for name, lattice in lattices(8):
            if lattice.is_atomistic():
                witness, psi = closure.lattice_roundtrip(lattice)
                assert witness is None and psi is not None, name


def test_criterion_08_power_and_boolean_functors():
    with criterion(8, "power-boolean-functors"):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                for mapping in itertools.product(range(n2), repeat=n1):
                    direct, inverse = closure.power_functors(mapping, n1, n2)
                    assert check_adjunction(direct, inverse)
                    injective = len(set(mapping)) == n1
                    surjective = set(mapping) == set(range(n2))
                    assert injective == (
                        compose(inverse, direct) == identity_map(direct.dom)
                    )
                    assert surjective == (
                        compose(direct, inverse) == identity_map(inverse.dom)
                    )
        for n in (2, 3, 4):
            lattice = corpus.boolean_lattice(n)
            mu, rho = closure.atom_set_maps(lattice)
            assert compose(rho, mu) == identity_map(lattice)
            assert compose(mu, rho) == identity_map(mu.cod)
        booleans = [TWO, corpus.boolean_lattice(2), corpus.boolean_lattice(3)]
        for l1 in booleans:
            for l2 in booleans:
                for f in homs(l1, l2):
                    assert closure.boolean_duality(f, right_adjoint(f)).agree


def test_criterion_09_transition_hierarchy():
    with criterion(9, "transition-hierarchy", budget=120):
        # Hom counts to and from the two-chain at all four levels, on the
        # corpus lattices of at most 5 elements.
        run_law("transition-counts")
        # Strictness of the inclusion of based structures: the witness is
        # coherent with the identity yet not a union of power maps.  On a
        # distributive carrier the same construction is expressible (see the
        # explicit two-map union below), so the witness lives on M3/N5.
        table = corpus.named_lattices()
        for lattice in (table["M3"], table["N5"]):
            theta = transition.strictness_witness(lattice, lattice.atoms()[0])
            assert transition.coherence_check(identity_map(lattice), theta)
            assert not transition.is_based(theta)
        d4 = table["D4"]
        atom = d4.atoms()[0]
        theta = transition.strictness_witness(d4, atom)
        assert transition.coherence_check(identity_map(d4), theta)
        meet_atom = LatticeMap(d4, d4, tuple(d4.meet2(x, atom) for x in d4.elements()))
        explicit = transition.union_of(
            [transition.power_map(identity_map(d4)), transition.power_map(meet_atom)]
        )
        assert explicit == theta and transition.is_based(theta)
        # Coherence fast path and exhaustive oracle agree on every lattice
        # of at most four elements in the corpus.
        for _, lat in lattices(4):
            fs = homs(lat, lat)
            for theta in transition.all_union_maps(lat, lat):
                for f in fs:
                    assert transition.coherence_check(
                        f, theta, method="fast"
                    ) == transition.coherence_check(f, theta, method="exhaustive")


def test_criterion_10_state_property_layer():
    with criterion(10, "state-property-layer"):
        orthos = corpus.ortho_lattices()
        for name, ol in orthos.items():
            system = stateprop.build_system(ol)
            lat = ol.lattice
            # The support of the meet of any subset is the intersection.
            supports = [system.atom_support(a) for a in lat.elements()]
            for mask in range(1 << lat.size):
                subset = [a for a in lat.elements() if mask >> a & 1]
                inter = frozenset(system.states)
                for a in subset:
                    inter &= supports[a]
                assert system.atom_support(lat.meet(subset)) == inter
            for z in stateprop.center(ol):
                assert ol.comp(z) in stateprop.center(ol)
        decomposition = stateprop.classical_decomposition(orthos["B8"])
        assert len(decomposition.factors) == 3
        assert all(f.size == 2 for f in decomposition.factors)
        decomposition = stateprop.classical_decomposition(orthos["O6"])
        assert len(decomposition.factors) == 1
        # Spectrum partition laws over complement-preserving observables.
        b4, b8 = orthos["B4"], orthos["B8"]
        checked = 0
        for m in homs(b4.lattice, b8.lattice):
            profile = preservation_profile(m)
            if not profile.meets:
                continue
            if any(m(b4.comp(a)) != b8.comp(m(a)) for a in b4.lattice.elements()):
                continue
            report = stateprop.observable_spectrum(m, b4, b8)
            lat = b4.lattice
            assert lat.meet2(report.null_part, report.discrete_part) == lat.bottom
            assert lat.join2(report.null_part, report.discrete_part) == lat.top
            checked += 1
        assert checked > 0
        # Causal relations round-trip through their weak meet morphisms.
        table = corpus.named_lattices()
        rng = random.Random(5)
        for l1, l2 in [(table["D4"], table["B4"]), (table["C3"], table["M3"])]:
            for _ in range(15):
                seeds = {
                    (rng.randrange(l1.size), rng.randrange(l2.size))
                    for _ in range(rng.randrange(1, 4))
                }
                relation = stateprop.causal_closure(l1, l2, seeds)
                g = stateprop.causal_to_map(relation)
                assert stateprop.map_to_causal(g).pairs == relation.pairs
        for g in weak_meet_maps(table["B4"], table["D4"]):
            relation = stateprop.map_to_causal(g)
            assert stateprop.causal_to_map(relation).map == g.map


def test_criterion_11_cli_suite(tmp_path, capsys):
    with criterion(11, "cli-suite", budget=300):
        start = time.perf_counter()
        code = cli.main(["suite"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 300
        assert out.strip().endswith("0 failed")
        # Every (prop, object, status) matches the golden sweep, line for line.
        with open(GOLDEN_SWEEP) as handle:
            golden = [tuple(line.split("\t")[:3]) for line in handle if line.strip()]
        got = []
        for line in out.splitlines()[:-1]:
            status, prop, rest = line.split(" ", 2)
            got.append((prop, rest.rsplit(" (", 1)[0], status.lower()))
        assert got == golden

        # Corrupting a single invariant must flip the exit code and name
        # the offending file in a witness.
        corpus_dir = tmp_path / "corpus"
        write_corpus(str(corpus_dir))

        ortho_file = corpus_dir / "O6.lat"
        good = ortho_file.read_text()
        ortho_file.write_text(
            good.replace("ortho: 0->1 a->a' b->b' a'->a b'->b 1->0",
                         "ortho: 0->1 a->b' b->b' a'->a b'->b 1->0")
        )
        assert cli.main(["suite", str(corpus_dir), "--filter", "corpus"]) == 1
        out = capsys.readouterr().out
        assert "FAIL corpus-validate O6.lat" in out
        ortho_file.write_text(good)

        space_file = corpus_dir / "S3pair.cspace"
        good = space_file.read_text()
        space_file.write_text(good.replace(" {p1}", ""))
        assert cli.main(["suite", str(corpus_dir), "--filter", "corpus"]) == 1
        out = capsys.readouterr().out
        assert "FAIL corpus-validate S3pair.cspace" in out
