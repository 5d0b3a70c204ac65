"""The record classes: immutable, equal by value, and built without code
generation at import time."""

import ast
import functools
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import latkit
from latkit import closure, core, corpus, maps, ortho, stateprop, suite, transition, weak
from latkit.closure import validate_closure
from latkit.core import (
    build_poset,
    identity_map,
    lattice_from_poset,
    lower_interval,
    upper_extension,
)
from latkit.errors import LatkitError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_importing_latkit_leaves_out_dataclasses():
    # The records write their methods out, so an import compiles nothing.
    probe = "import sys, latkit.cli, latkit.suite; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"


def test_kept_values_use_the_plain_descriptor():
    # functools.cached_property takes a lock on every first read up to
    # Python 3.11; the records keep their values with core.cached_property.
    for info in pkgutil.iter_modules(latkit.__path__):
        module = importlib.import_module("latkit." + info.name)
        with open(module.__file__) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cached_property" not in [alias.name for alias in node.names], info.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) != ("functools", "cached_property"), info.name
        for cls in vars(module).values():
            if isinstance(cls, type):
                for kept in vars(cls).values():
                    assert not isinstance(kept, functools.cached_property), (info.name, cls)
    calls = []

    class Probe(core.Frozen):
        @core.cached_property
        def kept(self):
            """The number of reads that computed it."""
            calls.append(self)
            return len(calls)

    assert isinstance(Probe.kept, core.cached_property)
    assert Probe.kept.__doc__ == "The number of reads that computed it."
    probe = Probe()
    assert probe.kept == 1 and probe.__dict__ == {"kept": 1}
    assert probe.kept == 1 and calls == [probe]
    with pytest.raises(AttributeError):
        probe.kept = 2
    lattice = diamond()
    assert lattice.size == 4 and "size" in lattice.__dict__
    with pytest.raises(AttributeError):
        lattice.size = 5
    with pytest.raises(AttributeError):
        lattice.bottom = 3
    assert lattice.size == 4


def diamond():
    """A fresh D4 (0 < a, b < 1), sharing nothing with another call's."""
    return lattice_from_poset(build_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)], "0ab1"))


def d4_ortho():
    """A fresh D4 with its complement a <-> b."""
    return ortho.validate_ortho(diamond(), (3, 2, 1, 0))


def identity_d4():
    return identity_map(diamond())


def relation(lattice, pairs):
    return stateprop.CausalRelation(lattice, lattice, frozenset(pairs))


# Each hot record: a function making one instance from a fresh D4, and a field.
HOT_RECORDS = {
    "FinitePoset": (lambda: diamond().poset, "up"),
    "FiniteLattice": (diamond, "bottom"),
    "LatticeMap": (lambda: identity_map(diamond()), "values"),
    "UnionMap": (lambda: transition.power_map(identity_map(diamond())), "pack"),
    "WeakMeetMap": (lambda: weak.WeakMeetMap(identity_map(diamond())), "map"),
    "PartialJoinMap": (
        lambda: weak.PartialJoinMap(diamond(), diamond(), 1, {0: 0, 1: 2}.items()), "anchor"
    ),
    "UpperMap": (
        lambda: weak.pointed_extend(weak.WeakMeetMap(identity_map(diamond())))[1], "map"
    ),
    "Retract": (lambda: lower_interval(diamond(), 2), "elements"),
    "ClosureOperator": (lambda: validate_closure(diamond(), (0, 3, 3, 3)), "table"),
    "Report": (lambda: suite.Report("law", "D4", "fail", "witness", 1.5), "status"),
    "ClosureSpace": (lambda: closure.ClosureSpace(2, [{0}, {0, 1}]), "masks"),
    "MorphismFlags": (lambda: maps.classify_morphism(identity_d4()), "dense"),
    "CausalRelation": (lambda: relation(diamond(), [(0, 0), (0, 3)]), "pairs"),
}


@pytest.mark.parametrize("name", sorted(HOT_RECORDS))
def test_hot_records_are_frozen_values(name):
    build, field = HOT_RECORDS[name]
    first, second = build(), build()
    assert type(first).__name__ == name and first is not second
    assert first == second and hash(first) == hash(second)
    assert not first != second
    value = getattr(first, field)
    with pytest.raises(AttributeError):
        setattr(first, field, value)
    with pytest.raises(AttributeError):
        delattr(first, field)
    assert getattr(first, field) is value


def _law_pool(bundle, bound):
    return []


def _law_body():
    return None


# Every record: a function making one instance from fresh objects, and its
# fields.  The compared ones also name the fields they compare, in order, and
# a function making an instance that differs in each of them.
RECORDS = {
    "FinitePoset": (lambda: diamond().poset, ("up", "labels")),
    "FiniteLattice": (diamond, ("poset", "bottom", "top")),
    "LatticeMap": (identity_d4, ("dom", "cod", "values")),
    "Retract": (lambda: lower_interval(diamond(), 2), ("lattice", "elements", "ambient", "table")),
    "Product": (
        lambda: core.direct_product([corpus.chain(2), corpus.chain(2)]),
        ("lattice", "factors", "elements"),
    ),
    "HorizontalSum": (
        lambda: core.horizontal_sum([corpus.chain(3), corpus.chain(3)]),
        ("lattice", "factors", "tables"),
    ),
    "SpecialMaps": (
        lambda: maps.special_maps(diamond(), 1, corpus.chain(2)),
        ("point", "above_test", "copoint", "below_test", "inclusion", "projection",
         "capped_inclusion", "capped_projection", "interval"),
    ),
    "MorphismFlags": (
        lambda: maps.classify_morphism(identity_d4()),
        ("epic", "monic", "section", "retraction", "injective", "surjective", "balanced",
         "dense"),
    ),
    "WeakMeetMap": (HOT_RECORDS["WeakMeetMap"][0], ("map", "extended")),
    "PartialJoinMap": (
        HOT_RECORDS["PartialJoinMap"][0], ("source", "target", "anchor", "values")
    ),
    "UpperMap": (HOT_RECORDS["UpperMap"][0], ("base_source", "base_target", "map")),
    "UnionMap": (HOT_RECORDS["UnionMap"][0], ("source", "target", "pack")),
    "Resolution": (
        lambda: transition.resolution(diamond()), ("power_lattice", "sets", "collapse", "expand")
    ),
    "TransitionPair": (
        lambda: transition.TransitionPair(
            identity_d4(), transition.power_map(identity_d4())
        ),
        ("map", "union"),
    ),
    "ClosureOperator": (HOT_RECORDS["ClosureOperator"][0], ("lattice", "table")),
    "ClosureSpace": (HOT_RECORDS["ClosureSpace"][0], ("size", "masks", "labels", "position")),
    "PartialContinuousMap": (
        lambda: closure.partial_map(
            closure.ClosureSpace(2, [{0}, {0, 1}]), closure.ClosureSpace(2, [{0, 1}]), [1],
            {0: 1},
        ),
        ("source", "target", "kernel", "mapping", "kernel_mask", "table"),
    ),
    "BooleanDualityReport": (
        lambda: closure.boolean_duality(identity_d4(), identity_d4()),
        ("atoms_to_atoms", "ortho_preserved_by_adjoint", "agree"),
    ),
    "OrthoLattice": (d4_ortho, ("lattice", "ortho")),
    "OrthoSpace": (lambda: ortho.OrthoSpace(2, (2, 1)), ("size", "orth", "labels")),
    "StatePropertySystem": (
        lambda: stateprop.build_system(d4_ortho()), ("properties", "states")
    ),
    "Decomposition": (
        lambda: stateprop.classical_decomposition(d4_ortho()),
        ("product", "factors", "factor_tops", "iso"),
    ),
    "SpectrumReport": (
        lambda: stateprop.observable_spectrum(
            identity_map(d4_ortho().lattice), d4_ortho(), d4_ortho()
        ),
        ("null_part", "discrete_part", "continuous_part", "discrete_interval",
         "continuous_interval"),
    ),
    "CausalRelation": (HOT_RECORDS["CausalRelation"][0], ("source", "target", "pairs")),
    "EvolutionReport": (
        lambda: stateprop.evolution_adjoint(identity_d4()),
        ("backward", "forward", "dense", "atom_orthogonality"),
    ),
    "Report": (HOT_RECORDS["Report"][0], ("prop", "object", "status", "witness", "millis")),
    "Law": (
        lambda: suite.Law("law", _law_pool, 4, _law_body),
        ("prop", "pool", "bound", "body", "seeded"),
    ),
}


def chain(n, labels):
    return lattice_from_poset(build_poset(n, [(i, i + 1) for i in range(n - 1)], labels))


def flipped_flags():
    flags = maps.classify_morphism(identity_d4())
    return maps.MorphismFlags(*[not getattr(flags, f) for f in RECORDS["MorphismFlags"][1]])


# name -> (the compared fields, in key order; an instance differing in each)
COMPARED = {
    "FinitePoset": (("up", "labels"), lambda: chain(4, "wxyz").poset),
    "FiniteLattice": (("poset",), lambda: chain(4, "wxyz")),
    "LatticeMap": (
        ("dom", "cod", "values"),
        lambda: core.LatticeMap(chain(4, "wxyz"), chain(4, "stuv"), (0, 0, 0, 0)),
    ),
    "Retract": (
        ("lattice", "elements", "ambient", "table"), lambda: lower_interval(chain(4, "wxyz"), 2)
    ),
    "ClosureOperator": (
        ("lattice", "table"), lambda: validate_closure(chain(3, "xyz"), (1, 1, 2))
    ),
    "ClosureSpace": (
        ("size", "masks", "labels"), lambda: closure.ClosureSpace(3, [(), (0, 1, 2)], "xyz")
    ),
    "MorphismFlags": (RECORDS["MorphismFlags"][1], flipped_flags),
    "CausalRelation": (
        ("source", "target", "pairs"), lambda: relation(chain(3, "xyz"), [(1, 1)])
    ),
    "Report": (
        ("prop", "object", "status", "witness", "millis"),
        lambda: suite.Report("other", "C3", "pass", None, 2.5),
    ),
    "UnionMap": (
        ("source", "target", "pack"),
        lambda: transition.power_map(identity_map(chain(3, "xyz"))),
    ),
    "WeakMeetMap": (("map",), lambda: weak.WeakMeetMap(identity_map(chain(3, "xyz")))),
    "PartialJoinMap": (
        ("source", "target", "anchor", "values"),
        lambda: weak.PartialJoinMap(
            chain(3, "xyz"), chain(3, "xyz"), 2, [(0, 0), (1, 1), (2, 1)]
        ),
    ),
    "UpperMap": (
        ("base_source", "base_target", "map"),
        lambda: weak.pointed_extend(weak.WeakMeetMap(identity_map(chain(3, "xyz"))))[1],
    ),
}


def test_every_record_compares_by_its_fields_or_by_identity():
    # Walks every Frozen subclass in latkit: its constructor sets all its
    # fields; a compared record built twice from equal fields is equal and
    # hashes equal, and differs from a copy with any one compared field
    # changed; every other record is equal to itself alone.
    found = set()
    for info in pkgutil.iter_modules(latkit.__path__):
        module = importlib.import_module("latkit." + info.name)
        found |= {
            cls.__name__ for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, core.Frozen) and cls is not core.Frozen
        }
    assert found == set(RECORDS) and set(COMPARED) < found and len(COMPARED) == 13
    for name, (build, fields) in RECORDS.items():
        first, second = build(), build()
        assert type(first).__name__ == name and first is not second
        assert set(fields) <= vars(first).keys() and set(fields) <= vars(second).keys(), name
        assert first == first and not first != first
        if name not in COMPARED:
            assert type(first).__eq__ is object.__eq__, name
            assert type(first).__hash__ is object.__hash__, name
            assert first != second and not first == second, name
            continue
        assert first == second and not first != second, name
        assert hash(first) == hash(second), name
        compared, vary = COMPARED[name]
        other = vary()
        for field in compared:
            assert getattr(other, field) != getattr(first, field), (name, field)
            changed = object.__new__(type(first))
            changed.__dict__.update({f: getattr(first, f) for f in fields})
            changed.__dict__[field] = getattr(other, field)
            assert first != changed and changed != first, (name, field)


def test_retracts_compare_as_their_maps_do():
    # A Retract keeps its ambient lattice and table and builds its maps on
    # first read; the table and the elements fix the projection, so two
    # retracts are equal exactly when their lattices, elements, inclusions
    # and projections are.
    retracts = []
    for lattice in corpus.named_lattices(max_size=5).values():
        twin = lattice_from_poset(core.FinitePoset(lattice.poset.up, lattice.labels))
        for lat in (lattice, twin):
            retracts += [lower_interval(lat, a) for a in lat.elements()]
            retracts += [core.retract(lat, lat.join_table[a]) for a in lat.elements()]
    assert not any({"inclusion", "projection"} & vars(r).keys() for r in retracts)
    for first in retracts:
        for second in retracts:
            fields = [(r.lattice, r.elements, r.inclusion, r.projection) for r in (first, second)]
            assert (first == second) == (fields[0] == fields[1])


def test_unchecked_upper_maps_pass_the_checked_constructor():
    # pointed_extend and partial_to_upper build their upper maps unchecked;
    # on every corpus pair of at most 4 elements, each is the upper map the
    # checked constructor builds from the same fields.
    lattices = corpus.named_lattices(max_size=4).values()
    built = 0
    for dom in lattices:
        for cod in lattices:
            for f in suite._homs(dom, cod, "isotone"):
                try:
                    w = weak.WeakMeetMap(f)
                except LatkitError:
                    continue
                partial, _ = weak.restrict_codomain(w)
                for upper in (weak.pointed_extend(w)[1], weak.partial_to_upper(partial)):
                    checked = weak.UpperMap(upper.base_source, upper.base_target, upper.map)
                    assert checked == upper and hash(checked) == hash(upper)
                    built += 1
    assert built == 2 * 4073
