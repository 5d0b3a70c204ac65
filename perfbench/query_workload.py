"""``query``: one-off ``latkit`` commands, each against a fresh import.

The pool is fixed: Hom-set enumeration and counting over corpus pairs of at
most 8 elements, strictness witnesses, adjoints, closure fixed points and
equivalence roundtrips on two small files generated from the seed, and
error paths with their documented exit codes.  Each cycle runs the whole
pool in a seeded order, so every seed runs the same mix.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import oracles
from harness import Op, call_cli, fresh_latkit, reference_seconds, verdict

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "query.json")

HOMS = [
    ("D4", "C5", "join"), ("B4", "N5", "join"), ("C3", "M3", "join"), ("N5", "D4", "join"),
    ("B8", "C3", "join"), ("O6", "C2", "join"), ("C2xC3", "C4", "join"),
    ("M3", "C3", "meet"), ("D4", "C4", "meet"), ("C3", "B8", "meet"),
    ("N5", "C3", "isotone"), ("C3", "D4", "isotone"), ("D4", "C3", "isotone"), ("B8", "C2", "isotone"),
]
COUNTS = [
    ("PS", "B8", "C3"), ("PS", "N5", "M3"), ("BS", "D4", "C3"), ("BS", "C2", "B8"),
    ("TS", "C3", "D4"), ("TS", "C4", "C3"), ("FS", "O6", "B8"), ("FS", "R19", "C2xC3"),
]
WITNESSES = [("N5", "a"), ("B8", "{0}"), ("C3+C3", "L1:1"), ("M3", "b")]


@dataclass
class Query:
    argv: list
    check: object  # callable(outcome) -> '' or what is wrong

    @property
    def command(self):
        return self.argv[0]


# ------------------------------------------------------------ generated files


def _join_map(dom, cod, rng):
    """A join-preserving map: images of the join-irreducibles, extended by joins."""
    lower_covers = {}
    for a, b in dom.cover_pairs():
        lower_covers.setdefault(b, []).append(a)
    irreducibles = [j for j, below in lower_covers.items() if len(below) == 1]
    image = {j: rng.randrange(cod.size) for j in irreducibles}
    values = [
        cod.join_all(image[j] for j in irreducibles if dom.leq(j, a)) for a in range(dom.size)
    ]
    # Every domain used here is distributive, where this extension always
    # preserves joins; the Galois condition with its right adjoint confirms it.
    if not oracles.galois(dom, cod, values, _right_adjoint(dom, cod, values)):
        raise RuntimeError("generated map does not preserve joins")
    return values


def _right_adjoint(dom, cod, f):
    return [dom.join_all(a for a in range(dom.size) if cod.leq(f[a], b)) for b in range(cod.size)]


def _map_block(name, src, src_lat, dst, dst_lat, values):
    lines = ["map %s : %s -> %s" % (name, src, dst)]
    lines += ["%s |-> %s" % (src_lat.labels[a], dst_lat.labels[v]) for a, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def _complement(lat, a):
    return next(b for b in range(lat.size) if lat.meet[a][b] == lat.bottom and lat.join[a][b] == lat.top)


def _simple_space(rng, n_points):
    """Closure space with the empty set, singletons and the universe closed,
    plus random extra sets, closed under intersection."""
    family = {0, (1 << n_points) - 1} | {1 << p for p in range(n_points)}
    family |= {rng.getrandbits(n_points) for _ in range(rng.randint(1, 3))}
    while any(a & b not in family for a in family for b in family):
        family |= {a & b for a in family for b in family}
    return sorted(family, key=lambda s: (bin(s).count("1"), s))


@dataclass
class Files:
    maps: str
    equiv: str
    dom: oracles.Lattice
    cod: oracles.Lattice
    f: list  # join map dom -> cod
    g: list  # its right adjoint, cod -> dom
    expected_equiv: list


def build_files(rng, workdir):
    dom = rng.choice([oracles.chain(3), oracles.chain(4), oracles.chain(5), oracles.boolean(2), oracles.boolean(3)])
    cod = rng.choice([
        oracles.chain(3), oracles.chain(4), oracles.boolean(2), oracles.boolean(3),
        oracles.horizontal_sum([oracles.chain(3)] * 3), oracles.product([oracles.chain(2), oracles.chain(3)]),
    ])
    f = _join_map(dom, cod, rng)
    g = _right_adjoint(dom, cod, f)
    maps_text = dom.text("A") + cod.text("B")
    maps_text += _map_block("f", "A", dom, "B", cod, f)
    maps_text += _map_block("g", "B", cod, "A", dom, g)
    maps_text += _map_block("h", "A", dom, "B", cod, [cod.top] * dom.size)

    b4, b8 = oracles.boolean(2), oracles.boolean(3)
    mk = oracles.horizontal_sum([oracles.chain(3)] * rng.randint(3, 4))
    ortho = " ".join("%s->%s" % (b4.labels[a], b4.labels[_complement(b4, a)]) for a in range(b4.size))
    points = ["p%d" % i for i in range(rng.randint(3, 4))]
    closed = _simple_space(rng, len(points))
    sets = " ".join(
        "{%s}" % ",".join(points[p] for p in range(len(points)) if s >> p & 1) for s in closed
    )
    equiv_text = b4.text("E1") + "ortho: %s\n" % ortho + b8.text("E2") + mk.text("E3")
    equiv_text += "cspace S\npoints: %s\nclosed: %s\n" % (" ".join(points), sets)

    paths = []
    for name, text in (("query-maps.lat", maps_text), ("query-equiv.lat", equiv_text)):
        paths.append(os.path.join(workdir, name))
        with open(paths[-1], "w") as handle:
            handle.write(text)
    expected_equiv = sorted(["E1", "E1(ortho)", "E2", "E3", "S"])
    return Files(paths[0], paths[1], dom, cod, f, g, expected_equiv)


# ------------------------------------------------------------------- checks


def _json(outcome):
    try:
        return json.loads(outcome.out), ""
    except ValueError as exc:
        return None, "unreadable --json output: %s" % exc


def _parse_map(text, src, dst):
    """Value table of the single map block printed by ``latkit adjoint``."""
    lines = [line for line in text.splitlines() if "|->" in line]
    table = dict(tuple(s.strip() for s in line.split("|->")) for line in lines)
    return [dst.labels.index(table[label]) for label in src.labels]


class Expectations:
    """Answers computed by the benchmark, once per run and command."""

    def __init__(self, corpus_orders, golden):
        self.orders = corpus_orders  # corpus name -> oracles.Lattice
        self.golden = golden
        self.memo = {}

    def homs(self, dom, cod, cls):
        key = (dom, cod, cls)
        if key not in self.memo:
            self.memo[key] = oracles.brute_force_homs(self.orders[dom], self.orders[cod], cls)
        return self.memo[key]


def _hom_check(exp, dom, cod, cls):
    def check(outcome):
        payload, problem = _json(outcome)
        problem = verdict(outcome, 0) or problem
        if not problem and payload != exp.homs(dom, cod, cls):
            problem = "Hom-set differs from brute-force enumeration"
        return problem
    return check


def _count_check(exp, category, dom, cod):
    def check(outcome):
        payload, problem = _json(outcome)
        problem = verdict(outcome, 0) or problem
        if problem:
            return problem
        if category == "PS":
            want = len(exp.homs(dom, cod, "join"))
        elif category == "FS":
            want = (1 << (exp.orders[cod].size - 1)) ** (exp.orders[dom].size - 1)
        else:
            want = exp.golden["count %s %s %s" % (category, dom, cod)]
        return "" if payload.get("count") == want else "count %r, expected %r" % (payload.get("count"), want)
    return check


def _witness_check(exp, lattice, element):
    def check(outcome):
        payload, problem = _json(outcome)
        problem = verdict(outcome, 0) or problem
        if problem:
            return problem
        want = exp.golden["witness %s %s" % (lattice, element)]
        if payload.get("based") != want or payload.get("coherent_with_identity") is not True:
            return "witness answer %r, expected based=%r" % (payload, want)
        return ""
    return check


def _adjoint_check(files, direction):
    def check(outcome):
        problem = verdict(outcome, 0)
        if problem:
            return problem
        try:
            if direction == "right":
                f, g = files.f, _parse_map(outcome.out, files.cod, files.dom)
            else:
                f, g = _parse_map(outcome.out, files.dom, files.cod), files.g
        except (ValueError, KeyError) as exc:
            return "unreadable map output: %s" % exc
        return "" if oracles.galois(files.dom, files.cod, f, g) else "Galois condition fails"
    return check


def _closure_check(files):
    dom = files.dom
    fixed = [a for a in range(dom.size) if files.g[files.f[a]] == a]
    want = " ".join(dom.labels[a] for a in fixed)

    def check(outcome):
        payload, problem = _json(outcome)
        problem = verdict(outcome, 0) or problem
        if not problem and payload != {"fixed": want}:
            problem = "fixed points %r, expected %r" % (payload, want)
        return problem
    return check


def _equiv_check(files):
    def check(outcome):
        payload, problem = _json(outcome)
        problem = verdict(outcome, 0) or problem
        if problem:
            return problem
        got = sorted((e["object"], e["status"]) for e in payload)
        want = [(name, "pass") for name in files.expected_equiv]
        return "" if got == want else "roundtrips %r, expected %r" % (got, want)
    return check


def _exit_check(code):
    return lambda outcome: verdict(outcome, code)


def _error_exit_check(outcome):
    """A parse or validation error (exit 2 or 1) reported without a traceback."""
    return verdict(outcome, 2) and verdict(outcome, 1)


# --------------------------------------------------------------------- pool


@dataclass
class Inputs:
    pool: list
    probes: list
    rng: random.Random


def build(seed, workdir, corpus_orders):
    rng = random.Random(seed)
    files = build_files(rng, workdir)
    with open(GOLDEN) as handle:
        exp = Expectations(corpus_orders, json.load(handle))
    pool = [Query(["hom", d, c, "--cls", cls, "--json"], _hom_check(exp, d, c, cls)) for d, c, cls in HOMS]
    pool += [Query(["count", k, d, c, "--json"], _count_check(exp, k, d, c)) for k, d, c in COUNTS]
    pool += [Query(["witness", l, e, "--json"], _witness_check(exp, l, e)) for l, e in WITNESSES]
    pool += [
        Query(["adjoint", files.maps, "--name", "f"], _adjoint_check(files, "right")),
        Query(["adjoint", files.maps, "--name", "g", "--direction", "left"], _adjoint_check(files, "left")),
        Query(["closure", files.maps, "--map", "f", "--json"], _closure_check(files)),
        Query(["equiv", files.equiv, "--json"], _equiv_check(files)),
        # Error paths: unknown name, size limit, adjoint of a map that is not join preserving.
        Query(["hom", "D4", "Q9"], _exit_check(2)),
        Query(["count", "PS", "B16", "B8", "--max-size", "8"], _exit_check(3)),
        Query(["adjoint", files.maps, "--name", "h"], _exit_check(1)),
    ]
    # Known defects: each should exit with a code, but a traceback escapes.
    probes = [
        ("closure-subset-unknown-point", Query(
            ["closure", files.equiv, "--space", "S", "--subset", "zz"], _exit_check(2))),
        ("check-missing-file", Query(
            ["check", os.path.join(workdir, "missing.lat")], _error_exit_check)),
    ]
    return Inputs(pool, probes, rng)


def corpus_orders(lk):
    """The corpus lattices' orders, as oracle lattices (tables recomputed
    from the order by the benchmark)."""
    return {
        name: oracles.from_order(lat.poset.up)
        for name, lat in lk.corpus.named_lattices().items()
        if lat.size <= 8
    }


def _judge(query, outcome):
    try:
        return query.check(outcome)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return "unexpected output %r: %s" % (outcome.out[:200], exc)


def run_cycle(inputs, tracer=None):
    """Every pool command once, in a fresh seeded order."""
    order = list(inputs.pool)
    inputs.rng.shuffle(order)
    ops = []
    for index, query in enumerate(order):
        lk = fresh_latkit()
        if tracer is not None:
            tracer.install(lk)
            tracer.op = index
        outcome = call_cli(lk.cli, query.argv)
        problem = _judge(query, outcome)
        ops.append(Op(query.command, outcome.seconds, not problem, problem, reference_seconds()))
    return ops


def run_probes(inputs):
    """Known-defect commands, run once after the timed ops: name -> status."""
    status = {}
    for name, query in inputs.probes:
        problem = _judge(query, call_cli(fresh_latkit().cli, query.argv))
        status[name] = "still failing: %s" % problem if problem else "fixed"
    return status
