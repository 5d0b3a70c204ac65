"""Derived structures are built once per instance and behave as before:
upper extensions, sublattices and lower intervals, adjoints, Hom-sets,
preservation profiles read on demand, lattice equality and hashing, and the
corpus lookup by name."""

import itertools
import json

import pytest

from latkit import cli, core, corpus, io, maps, suite, transition
from latkit.closure import fixed_points, monad_from_adjunction
from latkit.core import (
    FinitePoset,
    LatticeMap,
    build_poset,
    lattice_from_poset,
    lower_interval,
    sublattice_on,
    upper_extension,
)
from latkit.errors import NotJoinPreserving, NotMeetPreserving, ShapeMismatch, SizeLimit
from latkit.maps import (
    check_adjunction,
    hom_set,
    left_adjoint,
    pointwise_meet,
    preservation_profile,
    right_adjoint,
)


def test_upper_extension_built_once_per_instance():
    d4 = corpus.diamond()
    ext = upper_extension(d4)
    assert upper_extension(d4) is ext
    assert ext.size == d4.size + 1
    # A separately built equal lattice gets its own, equal, extension.
    other = upper_extension(corpus.diamond())
    assert other == ext and other is not ext


def test_lower_interval_built_once_per_element():
    b8 = corpus.boolean_lattice(3)
    intervals = [lower_interval(b8, a) for a in b8.elements()]
    for a, interval in zip(b8.elements(), intervals):
        assert lower_interval(b8, a) is interval
        assert interval.elements == tuple(b8.downset(a))
    assert intervals[b8.bottom] is not intervals[b8.top]


def test_equal_lattices_built_apart_compare_and_hash_equal():
    first, second = corpus.n5(), corpus.n5()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    # Equality and hashing read the order alone: no meet table, no dual.
    for lattice in (first, second):
        assert "meet_table" not in lattice.__dict__ and "dual" not in lattice.__dict__


def test_check_builds_no_meet_table(tmp_path, capsys, monkeypatch):
    # Total maps of every profile and an anchored partial map: the check
    # proves L a lattice by its join-irreducibles, reads joins, meets
    # through the dual's order, isotonicity by covers, and decides the
    # partial map on L itself, building neither table and no interval.
    text = (
        "lattice L\nelements: 0 a b c ab ac bc 1\n"
        "covers: 0<a 0<b 0<c a<ab a<ac b<ab b<bc c<ac c<bc ab<1 ac<1 bc<1\n"
        "map id : L -> L\n" + "".join("%s |-> %s\n" % (x, x) for x in "0 a b c ab ac bc 1".split())
        + "map up : L -> L\n0 |-> a\na |-> a\nb |-> ab\nc |-> ac\nab |-> ab\nac |-> ac\nbc |-> 1\n1 |-> 1\n"
        + "map down : L -> L\n0 |-> 0\na |-> 0\nb |-> b\nc |-> c\nab |-> b\nac |-> c\nbc |-> bc\n1 |-> bc\n"
        + "map zero : L -> L\n" + "".join("%s |-> 0\n" % x for x in "0 a b c ab ac bc 1".split())
        + "map const : L -> L\n" + "".join("%s |-> a\n" % x for x in "0 a b c ab ac bc 1".split())
        + "map part : L -> L\nanchor: ab\n0 |-> 0\na |-> a\nb |-> b\nab |-> ab\n"
    )
    path = tmp_path / "maps.lat"
    path.write_text(text)
    loaded = []
    real = io.load_workspace

    def capture(*args, **kwargs):
        loaded.append(real(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(io, "load_workspace", capture)
    assert cli.main(["check", str(path), "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in reports] == ["pass"] * 7
    profiles = {r["object"]: r["profile"] for r in reports if "profile" in r}
    assert profiles["const"] == {"joins": False, "meets": False, "balanced": False, "dense": True}
    assert profiles["id"] == {"joins": True, "meets": True, "balanced": True, "dense": True}
    assert profiles["up"] == {"joins": False, "meets": True, "balanced": True, "dense": True}
    lattice = loaded[-1].lattices["L"]
    assert "join_table" not in lattice.__dict__ and "meet_table" not in lattice.__dict__
    assert "join_table" not in lattice.dual.__dict__
    assert "_intervals" not in lattice.__dict__ and "_sublattices" not in lattice.__dict__


def test_unequal_lattices_stay_unequal():
    assert corpus.diamond() != corpus.n5()
    assert corpus.chain(3) != corpus.chain(4)
    # Same order, other labels: the labels are part of the structure.
    relabelled = lattice_from_poset(
        build_poset(3, [(0, 1), (1, 2)], labels=["lo", "mid", "hi"])
    )
    assert relabelled != corpus.chain(3)
    assert corpus.chain(3).__eq__("C3") is NotImplemented


def test_right_adjoint_kept_on_the_map():
    d4 = corpus.diamond()
    for f in hom_set(d4, corpus.chain(3), "join"):
        g = right_adjoint(f)
        assert right_adjoint(f) is g
        back = left_adjoint(g)
        assert back == f and back is not f
        assert left_adjoint(g) is back


@pytest.mark.parametrize("cls", ["isotone", "join", "meet", "dense-join"])
def test_hom_set_calls_return_equal_fresh_lists(cls):
    d4, c3 = corpus.diamond(), corpus.chain(3)
    first = hom_set(d4, c3, cls)
    second = hom_set(d4, c3, cls)
    assert type(first) is list and type(second) is list
    assert first == second and first is not second
    # The maps themselves are shared between calls.
    assert all(f is g for f, g in zip(first, second))


def test_mutating_a_hom_set_leaves_the_next_call_alone():
    d4, c3 = corpus.diamond(), corpus.chain(3)
    maps = hom_set(d4, c3, "join")
    expected = list(maps)
    maps.pop()
    maps.reverse()
    maps.append(LatticeMap(d4, c3, (c3.top,) * 4))
    assert hom_set(d4, c3, "join") == expected


def test_hom_set_size_limit_raised_on_every_call(monkeypatch):
    b16 = corpus.boolean_lattice(4)
    monkeypatch.setattr(maps, "HOM_SET_CANDIDATE_BOUND", 1000)
    messages = []
    for _ in range(3):
        with pytest.raises(SizeLimit) as err:
            hom_set(b16, b16, "isotone")
        messages.append(str(err.value))
    assert messages == ["%d candidate maps exceed bound 1000" % 16 ** 16] * 3


def test_hom_set_budget_is_read_at_call_time_and_a_refusal_is_not_memoised(monkeypatch):
    d4, c3 = corpus.diamond(), corpus.chain(3)
    # 3 ** 2 candidates on the two join-irreducibles of D4.
    monkeypatch.setattr(maps, "HOM_SET_CANDIDATE_BOUND", 8)
    with pytest.raises(SizeLimit, match="9 candidate maps exceed bound 8"):
        hom_set(d4, c3, "join")
    assert d4._hom_sets == {}
    monkeypatch.setattr(maps, "HOM_SET_CANDIDATE_BOUND", 9)
    maps_at_nine = hom_set(d4, c3, "join")
    assert len(maps_at_nine) == 9 and list(d4._hom_sets) == [(c3, "join")]
    # The budget guards the enumeration; a kept Hom-set is returned as it is.
    monkeypatch.setattr(maps, "HOM_SET_CANDIDATE_BOUND", 8)
    assert hom_set(d4, c3, "join") == maps_at_nine


def spy_on_unchecked_maps(monkeypatch):
    """The (dom, cod, values) of every map LatticeMap._unchecked builds from now on."""
    built = []
    real = LatticeMap._unchecked.__func__
    monkeypatch.setattr(
        LatticeMap, "_unchecked", classmethod(lambda cls, *a: built.append(a) or real(cls, *a))
    )
    return built


def test_hom_tables_are_kept_once_and_read_without_building_maps(monkeypatch):
    d4, m3 = corpus.diamond(), corpus.m3()
    built = spy_on_unchecked_maps(monkeypatch)
    hom = maps._hom(d4, m3, "join")
    tables = hom.tables
    assert maps._hom(d4, m3, "join") is hom and list(tables) == sorted(tables)
    assert transition.hom_count("PS", d4, m3) == len(tables)
    assert len(transition._power_packs(d4, m3)) == len(tables)
    assert transition.hom_count("TS", d4, m3) > transition.hom_count("BS", d4, m3) > 0
    assert built == [] and list(d4._hom_sets) == [(m3, "join")] and "maps" not in vars(hom)
    # hom_set builds one map per kept table, in table order.
    assert [f.values for f in hom_set(d4, m3, "join")] == list(tables)
    assert len(built) == len(tables)
    # A meet map has the table of a join map between the duals.
    meet_tables = maps._hom(d4, m3, "meet").tables
    assert meet_tables is maps._hom(d4.dual, m3.dual, "join").tables
    assert [g.values for g in hom_set(d4, m3, "meet")] == list(meet_tables)


def test_a_meet_hom_set_builds_one_map_per_table(monkeypatch):
    d4, m3 = corpus.diamond(), corpus.m3()
    built = spy_on_unchecked_maps(monkeypatch)
    meets = hom_set(d4, m3, "meet")
    record, twin = maps._hom(d4, m3, "meet"), maps._hom(d4.dual, m3.dual, "join")
    # One map per table, each built from its own table between d4 and m3.
    assert [(g.dom, g.cod, g.values) for g in meets] == built
    assert [g.values for g in meets] == list(record.tables) and len(meets) > 1
    assert all(g.dom is d4 and g.cod is m3 for g in meets)
    # The tables and masks are those of the join record between the duals,
    # which builds no map of its own.
    assert record.tables is twin.tables and record.masks is twin.masks
    assert "maps" not in vars(twin)
    # The pointwise meet is one map, folded with cod.meet.
    family = meets[1:6]
    built.clear()
    meet = pointwise_meet(family)
    assert built == [(d4, m3, meet.values)] and meet.dom is d4 and meet.cod is m3
    assert meet.values == tuple(m3.meet([g(a) for g in family]) for a in d4.elements())


def test_an_unknown_map_class_is_refused_and_keeps_nothing():
    # Every reader of a Hom-set goes through maps._hom, which refuses a class
    # outside MAP_CLASSES before any enumeration; "joins" is not atomic-join.
    d4 = corpus.diamond()
    reads = (maps._hom, hom_set, suite._homs)
    for read, cls in itertools.product(reads, ("joins", "atomic", "")):
        with pytest.raises(ValueError, match="unknown map class %r" % cls):
            read(d4, d4, cls)
    assert d4._hom_sets == {} and "join_search" not in vars(d4)
    assert len(maps._hom(d4, d4, "atomic-join").tables) == 9


def test_hom_set_into_an_equal_codomain_built_apart():
    d4 = corpus.diamond()
    first = hom_set(d4, corpus.n5(), "join")
    second = hom_set(d4, corpus.n5(), "join")
    assert first == second


def test_adjoint_failures_raise_again_with_the_same_witness():
    d4 = corpus.diamond()
    not_join = LatticeMap(d4, d4, (d4.top,) * 4)
    witnesses = []
    for _ in range(2):
        with pytest.raises(NotJoinPreserving) as err:
            right_adjoint(not_join)
        witnesses.append(err.value.witness)
    assert witnesses[0] is not None and witnesses[0] == witnesses[1]
    not_meet = LatticeMap(d4, d4, (d4.bottom,) * 4)
    witnesses = []
    for _ in range(2):
        with pytest.raises(NotMeetPreserving) as err:
            left_adjoint(not_meet)
        witnesses.append(err.value.witness)
    assert witnesses[0] is not None and witnesses[0] == witnesses[1]


def test_only_maps_of_a_join_class_skip_the_adjoint_scan():
    # Every map is decided by residuation, so a non-join isotone map fails.
    d4, c3 = corpus.diamond(), corpus.chain(3)
    for dom, cod in ((d4, c3), (c3, d4)):
        joins, meets = set(hom_set(dom, cod, "join")), set(hom_set(dom, cod, "meet"))
        for f in hom_set(dom, cod, "isotone"):
            if f in joins:
                assert check_adjunction(f, right_adjoint(f))
            else:
                with pytest.raises(NotJoinPreserving):
                    right_adjoint(f)
            if f in meets:
                assert check_adjunction(left_adjoint(f), f)
            else:
                with pytest.raises(NotMeetPreserving):
                    left_adjoint(f)


@pytest.mark.parametrize("values, bad", [((0, 5), 5), ((-1, 7), -1), ((1, 2), 2)])
def test_out_of_range_value_names_the_first_bad_value(values, bad):
    c2 = corpus.chain(2)
    with pytest.raises(ShapeMismatch) as err:
        LatticeMap(c2, c2, values)
    assert str(err.value) == "value %d outside codomain" % bad


def test_named_lattice_matches_the_corpus():
    table = corpus.named_lattices()
    for name, lattice in table.items():
        assert corpus.named_lattice(name) == lattice
    with pytest.raises(KeyError):
        corpus.named_lattice("no-such-lattice")


def test_cli_unknown_builtin_lattice(capsys):
    assert cli.main(["hom", "D4", "zz"]) == 2
    err = capsys.readouterr().err
    assert "no built-in lattice named 'zz'" in err
    assert "Traceback" not in err


PROFILE_FLAGS = (
    "joins",
    "meets",
    "balanced",
    "dense",
    "bottom_fixed",
    "top_reflecting",
)


def eager_profile(f):
    """Reference: all six preservation flags, each decided outright."""
    dom, cod, v = f.dom, f.cod, f.values

    def keeps(dom_table, cod_table):
        return all(
            v[dom_table[a][b]] == cod_table[v[a]][v[b]]
            for a in dom.elements()
            for b in dom.elements()
        )

    nonempty_joins = keeps(dom.join_table, cod.join_table)
    nonempty_meets = keeps(dom.meet_table, cod.meet_table)
    return {
        "joins": nonempty_joins and v[dom.bottom] == cod.bottom,
        "meets": nonempty_meets and v[dom.top] == cod.top,
        "balanced": v[dom.top] == cod.top,
        "dense": all(v[a] != cod.bottom for a in dom.elements() if a != dom.bottom),
        "bottom_fixed": v[dom.bottom] == cod.bottom,
        "top_reflecting": all(v[a] != cod.top for a in dom.elements() if a != dom.top),
    }


def test_lazy_profile_matches_the_eager_flags():
    table = corpus.named_lattices(max_size=4)
    checked = 0
    for dom in table.values():
        for cod in table.values():
            for f in hom_set(dom, cod, "isotone"):
                expected = eager_profile(f)
                # Read the flags in both orders, on fresh profiles.
                forward = preservation_profile(f)
                backward = preservation_profile(f)
                assert {k: getattr(forward, k) for k in PROFILE_FLAGS} == expected, f.values
                assert {k: getattr(backward, k) for k in reversed(PROFILE_FLAGS)} == expected
                checked += 1
    assert checked == 5063


def test_profile_density_flags_run_no_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan ran")

    monkeypatch.setattr(maps, "_failing_pair", no_scan)
    cheap = ("balanced", "dense", "bottom_fixed", "top_reflecting")
    for f in hom_set(corpus.diamond(), corpus.chain(3), "isotone"):
        expected = eager_profile(f)
        profile = preservation_profile(f)
        assert [getattr(profile, k) for k in cheap] == [expected[k] for k in cheap]
        # joins and meets read their O(n) flag first.
        if not expected["bottom_fixed"]:
            assert profile.joins is False
        if not expected["balanced"]:
            assert profile.meets is False


def ref_sublattice_on(lattice, elems):
    """Reference: the order restricted to elems, built afresh by leq."""
    index = {e: i for i, e in enumerate(elems)}
    up = []
    for a in elems:
        row = 0
        for b in elems:
            if lattice.leq(a, b):
                row |= 1 << index[b]
        up.append(row)
    labels = tuple(lattice.labels[e] for e in elems)
    return lattice_from_poset(FinitePoset(tuple(up), labels))


def test_cached_sublattice_matches_the_fresh_build_on_closure_fixed_sets():
    # Every (lattice, fixed-point set) that the closure-monad law meets.
    table = corpus.named_lattices(max_size=5)
    seen = set()
    for name, l1 in table.items():
        for l2 in table.values():
            for f in hom_set(l1, l2, "join"):
                fixed = fixed_points(monad_from_adjunction(f, right_adjoint(f)))
                assert fixed.lattice is sublattice_on(l1, fixed.elements)
                if (name, fixed.elements) not in seen:
                    seen.add((name, fixed.elements))
                    assert fixed.lattice == ref_sublattice_on(l1, fixed.elements)
    assert len(seen) == 184


def test_lower_interval_lattice_is_the_cached_sublattice():
    for lattice in corpus.named_lattices().values():
        for a in lattice.elements():
            interval = lower_interval(lattice, a)
            assert interval.lattice is sublattice_on(lattice, lattice.downset(a))
            assert interval.lattice == ref_sublattice_on(lattice, interval.elements)


def test_lattices_by_theorem_match_the_proved_build(monkeypatch):
    # Upper extensions, lower intervals, closure fixed points, chains,
    # Boolean lattices, products and horizontal sums skip the lattice
    # proof; the same order through lattice_from_poset gives the same
    # bounds, tables and lower covers.
    table = corpus.named_lattices()
    small = [lattice for lattice in table.values() if lattice.size <= 4]
    factors = [table[name] for name in ("C2", "C3", "D4", "N5")]
    proofs = []
    real = core._cover_joins_exist
    monkeypatch.setattr(
        core, "_cover_joins_exist", lambda up, covers: proofs.append(up) or real(up, covers)
    )
    built = []
    for lattice in table.values():
        built.append(upper_extension(lattice))
        built += [lower_interval(lattice, a).lattice for a in lattice.elements()]
        for cod in small:
            for f in hom_set(lattice, cod, "join"):
                built.append(fixed_points(monad_from_adjunction(f, right_adjoint(f))).lattice)
    constructed = (
        [corpus.chain(n) for n in range(1, 10)]
        + [corpus.boolean_lattice(n) for n in range(5)]
        + [core.direct_product(pair).lattice for pair in itertools.product(factors, repeat=2)]
        + [core.direct_product(factors[:3]).lattice]
        + [core.horizontal_sum(pair).lattice for pair in itertools.product(factors, repeat=2)]
        + [core.horizontal_sum(factors).lattice, core.horizontal_sum([]).lattice]
    )
    assert proofs == []
    unique = list({id(sub): sub for sub in built}.values())
    for sub in unique + constructed:
        proved = lattice_from_poset(FinitePoset(sub.poset.up, sub.labels))
        assert (sub.bottom, sub.top, sub.join_table, sub.meet_table, sub.lower_covers) == (
            proved.bottom, proved.top, proved.join_table, proved.meet_table,
            proved.lower_covers,
        )
    assert (len(built), len(unique)) == (14794, 904)
    assert len(proofs) == len(unique) + len(constructed)
