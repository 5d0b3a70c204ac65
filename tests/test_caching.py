"""Derived structures are built once per instance and behave as before:
upper extensions, lower intervals, adjoints, Hom-sets, lattice equality and
hashing, and the corpus lookup by name."""

import pytest

from latkit import cli, corpus
from latkit.core import (
    LatticeMap,
    build_poset,
    constant_map,
    lattice_from_poset,
    lower_interval,
    upper_extension,
)
from latkit.errors import NotJoinPreserving, NotMeetPreserving, ShapeMismatch, SizeLimit
from latkit.maps import hom_set, left_adjoint, right_adjoint


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
    maps.append(constant_map(d4, c3, c3.top))
    assert hom_set(d4, c3, "join") == expected


def test_hom_set_size_limit_raised_on_every_call():
    b16 = corpus.boolean_lattice(4)
    messages = []
    for _ in range(3):
        with pytest.raises(SizeLimit) as err:
            hom_set(b16, b16, "isotone", bound=1000)
        messages.append(str(err.value))
    assert messages == ["%d candidate maps exceed bound 1000" % 16 ** 16] * 3


def test_hom_set_bound_is_part_of_the_key():
    d4, c3 = corpus.diamond(), corpus.chain(3)
    assert len(hom_set(d4, c3, "join", bound=9)) == len(hom_set(d4, c3, "join"))
    # 3 ** 2 candidates on the two join-irreducibles of D4.
    with pytest.raises(SizeLimit):
        hom_set(d4, c3, "join", bound=8)


def test_hom_set_into_an_equal_codomain_built_apart():
    d4 = corpus.diamond()
    first = hom_set(d4, corpus.n5(), "join")
    second = hom_set(d4, corpus.n5(), "join")
    assert first == second


def test_adjoint_failures_raise_again_with_the_same_witness():
    d4 = corpus.diamond()
    not_join = constant_map(d4, d4, d4.top)
    witnesses = []
    for _ in range(2):
        with pytest.raises(NotJoinPreserving) as err:
            right_adjoint(not_join)
        witnesses.append(err.value.witness)
    assert witnesses[0] is not None and witnesses[0] == witnesses[1]
    not_meet = constant_map(d4, d4, d4.bottom)
    witnesses = []
    for _ in range(2):
        with pytest.raises(NotMeetPreserving) as err:
            left_adjoint(not_meet)
        witnesses.append(err.value.witness)
    assert witnesses[0] is not None and witnesses[0] == witnesses[1]


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
