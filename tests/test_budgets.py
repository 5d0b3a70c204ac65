"""Every budget is one module constant, read by its guards at call time.

Each row lowers one constant on the module that defines it, calls one
guarded entry point with inputs built beforehand, and checks the SizeLimit
message and that no work started: the row's spies recorded no call and no
memo entry.  Back at the default budget, the same call must go through and
the spies must see it work, so a spy that watches the wrong thing fails.
"""

import pytest

from latkit import core, corpus, io, maps, ortho, transition
from latkit.core import FiniteLattice
from latkit.errors import SizeLimit


def calls_of(monkeypatch, module, name):
    """The calls of module.name from now on, as a list."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def building(module, name, call):
    """A row setup: the call, and the calls of module.name it made."""

    def setup(monkeypatch):
        calls = calls_of(monkeypatch, module, name)
        return call, lambda: calls

    return setup


def enumerating(make_call):
    """A row setup: make_call(d4, c3) on fresh lattices, and what the Hom-set
    enumeration D4 -> C3 did: its walks over C3's elements, which every
    enumerator takes for candidate values, and the Hom-sets kept on D4."""

    def setup(monkeypatch):
        d4, c3 = corpus.diamond(), corpus.chain(3)
        call, walks, real = make_call(d4, c3), [], FiniteLattice.elements

        def elements(lattice):
            if lattice is c3:
                walks.append(lattice)
            return real(lattice)

        monkeypatch.setattr(FiniteLattice, "elements", elements)
        return call, lambda: walks + list(d4._hom_sets)

    return setup


def power_map_of_a_fresh_d4(monkeypatch):
    """A row setup: underlying_map of a power map whose lattices keep no
    subset joins yet, and the subset-join tables it built."""
    theta = transition.power_map(core.identity_map(corpus.diamond()))
    calls = calls_of(monkeypatch, transition, "_joins_by_doubling")
    return lambda: transition.underlying_map(theta), lambda: calls


def witness_of_a_fresh_m3(monkeypatch):
    """A row setup: is_based of a strictness witness on M3, which keeps no
    join Hom-set, so the hull searches the join maps the witness dominates;
    its leaves' residual tests, and the Hom-sets kept on M3."""
    m3 = corpus.m3()
    theta = transition.strictness_witness(m3, 1)
    calls = calls_of(monkeypatch, transition, "_residual_table")
    return lambda: transition.is_based(theta), lambda: (
        calls + list(m3._hom_sets) + list(m3.__dict__.get("power_packs", {}))
    )


C2, C3, D4 = corpus.chain(2), corpus.chain(3), corpus.diamond()
O6_SPACE = ortho.orthospace_from_lattice(corpus.ortho_lattices()["O6"])[0]

# (module, constant, lowered value, setup, message)
BUDGETS = {
    "direct_product": (
        core, "MAX_LATTICE_SIZE", 3,
        building(core, "build_poset", lambda: core.direct_product([C2, C2])),
        "product carrier 4 exceeds bound 3",
    ),
    "horizontal_sum": (
        core, "MAX_LATTICE_SIZE", 3,
        building(core, "build_poset", lambda: core.horizontal_sum([C3, C3])),
        "sum carrier 4 exceeds bound 3",
    ),
    "load_workspace": (
        core, "MAX_LATTICE_SIZE", 3,
        building(core, "build_poset", lambda: io.load_workspace(
            "lattice L\nelements: 0 a b 1\ncovers: 0<a 0<b a<1 b<1\n"
        )),
        "lattice L carrier 4 exceeds bound 3",
    ),
    "chain": (
        core, "MAX_LATTICE_SIZE", 3,
        building(corpus, "build_poset", lambda: corpus.chain(4)),
        "chain carrier 4 exceeds bound 3",
    ),
    "boolean_lattice": (
        core, "MAX_LATTICE_SIZE", 3,
        building(corpus, "build_poset", lambda: corpus.boolean_lattice(2)),
        "Boolean carrier 4 exceeds bound 3",
    ),
    "lattice_of_sets": (
        core, "MAX_LATTICE_SIZE", 3,
        building(core, "_proved_poset", lambda: core.lattice_of_sets([(), (0,), (1,), (0, 1)])),
        "lattice of sets carrier 4 exceeds bound 3",
    ),
    "resolution-carrier": (
        core, "MAX_LATTICE_SIZE", 7,
        building(transition, "all_subsets", lambda: transition.resolution(D4)),
        "lattice of sets carrier 8 exceeds bound 7",
    ),
    "random_moore_lattice": (
        core, "MAX_POWER_BASE", 4,
        building(core, "intersection_closure", lambda: core.random_moore_lattice(0, 5, 3)),
        "5 points exceeds bound 4",
    ),
    "resolution": (
        core, "MAX_POWER_BASE", 3,
        building(transition, "all_subsets", lambda: transition.resolution(D4)),
        "lattice size 4 exceeds powerset bound 3",
    ),
    "biortho_lattice": (
        core, "MAX_POWER_BASE", 3,
        building(core, "lattice_from_poset", lambda: ortho.biortho_lattice(O6_SPACE)),
        "4 points exceed powerset bound 3",
    ),
    "hom_set-isotone": (
        maps, "HOM_SET_CANDIDATE_BOUND", 80,
        enumerating(lambda d4, c3: lambda: maps.hom_set(d4, c3, "isotone")),
        "81 candidate maps exceed bound 80",
    ),
    "hom_set-join": (
        maps, "HOM_SET_CANDIDATE_BOUND", 8,
        enumerating(lambda d4, c3: lambda: maps.hom_set(d4, c3, "join")),
        "9 candidate maps exceed bound 8",
    ),
    "classify_morphism": (
        maps, "HOM_SET_CANDIDATE_BOUND", 8,
        # The inverses are searched among the join maps D4 -> C3.
        enumerating(lambda d4, c3: lambda: maps.classify_morphism(
            core.LatticeMap(c3, d4, (0, 1, 3)))
        ),
        "9 candidate maps exceed bound 8",
    ),
    # The witness dominates 2 values at each of M3's 3 atoms.
    "is_based-search": (
        maps, "HOM_SET_CANDIDATE_BOUND", 7,
        witness_of_a_fresh_m3,
        "8 candidate maps exceed bound 7",
    ),
    "all_subsets": (
        transition, "ENUMERATION_BOUND", 4,
        building(transition, "_subset", lambda: transition.all_subsets(D4)),
        "2^3 subsets exceed bound",
    ),
    "all_union_maps-subsets": (
        transition, "ENUMERATION_BOUND", 4,
        building(transition, "_UnionMaps", lambda: transition.all_union_maps(C2, D4)),
        "2^3 subsets exceed bound",
    ),
    "all_union_maps-maps": (
        transition, "ENUMERATION_BOUND", 256,
        building(transition, "_UnionMaps", lambda: transition.all_union_maps(D4, D4)),
        "512 union maps exceed bound 256",
    ),
    # The counts read the join Hom-set's value tables, not the union maps.
    "hom_count-TS": (
        transition, "ENUMERATION_BOUND", 256,
        building(transition, "_hom", lambda: transition.hom_count("TS", D4, D4)),
        "512 union maps exceed bound 256",
    ),
    "hom_count-BS": (
        transition, "ENUMERATION_BOUND", 256,
        building(transition, "_power_packs", lambda: transition.hom_count("BS", D4, D4)),
        "512 union maps exceed bound 256",
    ),
    "underlying_map-subset_joins": (
        transition, "ENUMERATION_BOUND", 4,
        power_map_of_a_fresh_d4,
        "2^3 subsets exceed bound",
    ),
}


@pytest.mark.parametrize("entry", list(BUDGETS))
def test_each_budget_fires_through_its_one_constant_before_work_starts(monkeypatch, entry):
    module, constant, low, setup, message = BUDGETS[entry]
    call, work_done = setup(monkeypatch)
    default = getattr(module, constant)
    monkeypatch.setattr(module, constant, low)
    with pytest.raises(SizeLimit) as err:
        call()
    assert str(err.value) == message
    assert work_done() == []
    # Under the default budget the same call goes through, and the spies see it work.
    monkeypatch.setattr(module, constant, default)
    call()
    assert work_done() != []
