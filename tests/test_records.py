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
from latkit import core, corpus, suite, transition, weak
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
