"""``load``: ``latkit check FILE --json`` on generated files of 16 to 64 elements.

Each file holds one lattice, four total maps on it and one partial map with
an ``anchor:``.  A cycle has eight files per family, one per size from 19
to 61 elements in steps of 6, so the op-cost mix is nearly the same for every
seed; the seed draws the Moore families, the element numbering, the map
parameters and the file order.  No carrier exceeds
``core.MAX_LATTICE_SIZE`` (64).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import oracles
from harness import Op, call_cli, fresh_latkit, reference_seconds, verdict

FAMILIES = ("chain", "boolean", "product", "hsum", "moore")
SIZES = range(19, 62, 6)


def _lattice(family, slot, rng):
    """Shapes are fixed per family and size, because a product or sum of a
    few long chains costs much more to build than one of many short chains."""
    size = SIZES[slot]
    if family == "chain":
        return oracles.chain(size)
    if family == "boolean":
        return oracles.boolean(4 + slot % 3)
    k = 2 + slot % 3
    if family == "product":
        return oracles.product([oracles.chain(k), oracles.chain(-(-size // k))])
    if family == "hsum":
        interior = [(size - 2) // k + (i < (size - 2) % k) for i in range(k)]
        return oracles.horizontal_sum([oracles.chain(n + 2) for n in interior])
    if family == "moore":
        for _ in range(10000):
            family_sets = oracles.random_moore_family(rng, rng.randint(6, 8), rng.randint(6, 16))
            if abs(len(family_sets) - size) <= 2:
                return oracles.moore(family_sets)
        raise RuntimeError("no Moore family with %d +- 2 sets" % size)
    raise ValueError(family)


def _map_text(name, lat, values, anchor=None):
    lines = ["map %s : L -> L" % name]
    if anchor is not None:
        lines.append("anchor: %s" % lat.labels[anchor])
    for a, v in values.items():
        lines.append("%s |-> %s" % (lat.labels[a], lat.labels[v]))
    return "\n".join(lines) + "\n"


@dataclass
class LoadFile:
    path: str
    lattice: oracles.Lattice
    expected: dict  # object name -> (kind, profile or None)


def _make_file(path, lat, rng):
    n = range(lat.size)
    a, b = rng.randrange(lat.size), rng.randrange(lat.size)
    # The anchor's interval is rebuilt as a lattice of its own; keeping it
    # near a third of the carrier keeps that cost from swinging with the seed.
    by_fit = sorted(n, key=lambda x: abs(len(lat.downset(x)) - lat.size / 3))
    c = rng.choice(by_fit[:3])
    totals = {
        "id": {x: x for x in n},
        "up": {x: lat.join[x][a] for x in n},
        "down": {x: lat.meet[x][b] for x in n},
        "zero": {x: lat.bottom for x in n},
    }
    text = lat.text("L") + "".join(_map_text(k, lat, v) for k, v in totals.items())
    text += _map_text("part", lat, {x: x for x in lat.downset(c)}, anchor=c)
    with open(path, "w") as handle:
        handle.write(text)
    expected = {"L": ("lattice", None), "part": ("partial-map", None)}
    for name, values in totals.items():
        expected[name] = ("map", oracles.profile(lat, [values[x] for x in n]))
    return LoadFile(path, lat, expected)


def build(seed, workdir):
    """Generate the files (in a seeded order) and their oracles."""
    rng = random.Random(seed)
    files = []
    for family in FAMILIES:
        for slot in range(len(SIZES)):
            lat = _lattice(family, slot, rng)
            perm = list(range(lat.size))
            rng.shuffle(perm)
            lat = lat.permuted(perm)
            path = os.path.join(workdir, "load-%s-%d.lat" % (family, slot))
            files.append(_make_file(path, lat, rng))
    rng.shuffle(files)
    return files


def _check(outcome, spec, ws):
    problem = verdict(outcome, 0)
    if problem:
        return problem
    try:
        got = {e["object"]: (e["kind"], e.get("profile"), e["status"]) for e in json.loads(outcome.out)}
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable --json output: %s" % exc
    want = {name: (kind, profile, "pass") for name, (kind, profile) in spec.expected.items()}
    if got != want:
        return "reports differ from the oracle: %r" % got
    lat, oracle = ws.lattices["L"], spec.lattice
    if lat.join_table != tuple(map(tuple, oracle.join)):
        return "join table differs from the oracle"
    if lat.meet_table != tuple(map(tuple, oracle.meet)):
        return "meet table differs from the oracle"
    return ""


def run_cycle(files, tracer=None):
    """``check`` every file once, each against a fresh import of latkit."""
    ops = []
    for index, spec in enumerate(files):
        lk = fresh_latkit()
        if tracer is not None:
            tracer.install(lk)
            tracer.op = index
        loaded = []
        load_workspace = lk.io.load_workspace

        def capture(*args, **kwargs):
            loaded.append(load_workspace(*args, **kwargs))
            return loaded[-1]

        lk.io.load_workspace = capture
        outcome = call_cli(lk.cli, ["check", spec.path, "--json"])
        problem = _check(outcome, spec, loaded[-1]) if loaded else verdict(outcome, 0) or "no workspace loaded"
        ops.append(Op("check", outcome.seconds, not problem, problem, reference_seconds()))
    return ops
