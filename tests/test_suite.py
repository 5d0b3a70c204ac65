"""The report sweep itself: determinism, filtering, size capping, error
reports, the Hom-set cache statistics the benchmark reads, and the rule
that library code carries no assert statements, so that python -O gives the
same reports."""

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import latkit
from latkit import corpus, suite
from latkit.core import FinitePoset, lattice_from_poset
from latkit.ortho import validate_ortho


def small_bundle():
    table = corpus.named_lattices()
    return {
        "lattices": {"C2": table["C2"], "C3": table["C3"]},
        "orthos": {},
        "cspaces": {},
        "ospaces": {},
    }


def test_run_suite_sorted_and_deterministic():
    first = suite.run_suite(small_bundle(), seed=3)
    second = suite.run_suite(small_bundle(), seed=3)
    assert [(r.prop, r.object, r.status, r.witness) for r in first] == [
        (r.prop, r.object, r.status, r.witness) for r in second
    ]
    keys = [(r.prop, r.object) for r in first]
    assert keys == sorted(keys)
    assert all(r.status == "pass" for r in first)


def test_filter_restricts_props():
    reports = suite.run_suite(small_bundle(), filter_text="duality")
    assert reports
    assert all("duality" in r.prop for r in reports)


def test_max_size_caps_sweeps():
    capped = suite.run_suite(small_bundle(), max_size=2)
    uncapped = suite.run_suite(small_bundle())
    assert len(capped) <= len(uncapped)


# run_suite(max_size=1) reports of the laws whose pools are not all
# bounded by lattice size.
POINT_BOUNDED = {
    "power-functors": 9,
    "space-functors": 25,
    "continuity-composition": 8,
    "io-roundtrip": 11,
    "orthospace-equivalence": 5,
    "space-equivalence": 6,
}


def test_max_size_clamps_to_the_laws_own_size_bound():
    # space-equivalence has one row bounded by a point count (3) and one by
    # lattice size (8); max_size=8 keeps every report.
    def keys(reports):
        return {(r.prop, r.object) for r in reports if r.prop == "space-equivalence"}

    default = suite.run_suite(filter_text="space-equivalence")
    assert any(r.object.startswith("B") for r in default)
    assert keys(suite.run_suite(max_size=8, filter_text="space-equivalence")) == keys(default)
    # max_size lowers lattice-size bounds only: pools bounded by a point
    # count keep every object.
    counts = Counter(r.prop for r in suite.run_suite(max_size=1))
    assert {prop: counts[prop] for prop in POINT_BOUNDED} == POINT_BOUNDED


def test_report_dict_schema():
    report = suite.Report("prop-name", "obj", "fail", witness="w", millis=1.25)
    payload = report.to_dict()
    assert payload == {
        "prop": "prop-name",
        "object": "obj",
        "status": "fail",
        "millis": 1.25,
        "witness": "w",
    }


def test_unexpected_exception_is_an_error_report():
    def broken():
        return [][0]

    checks = [("law-a", "X", broken), ("law-b", "Y", lambda: None)]
    reports = []
    suite._collect(checks, reports)
    assert [(r.prop, r.status) for r in reports] == [("law-a", "error"), ("law-b", "pass")]
    assert reports[0].witness == "IndexError: list index out of range"


def test_io_roundtrip_refuses_an_ortho_numbered_for_another_lattice():
    b8 = corpus.named_lattice("B8")
    ortho = corpus.ortho_lattices()["B8"]
    # Element i of the renumbered lattice is element perm[i] of B8.
    perm = [0, 1, 2, 3, 4, 5, 7, 6]
    place = {e: i for i, e in enumerate(perm)}
    up = tuple(sum(1 << place[b] for b in b8.elements() if b8.leq(a, b)) for a in perm)
    renumbered = lattice_from_poset(FinitePoset(up, tuple(b8.labels[a] for a in perm)))
    moved = validate_ortho(renumbered, tuple(place[ortho.ortho[a]] for a in perm))
    bundle = {"lattices": {"B8": b8}, "orthos": {"B8": moved}, "cspaces": {}, "ospaces": {}}
    (report,) = suite.run_suite(bundle, filter_text="io-roundtrip")
    assert (report.status, report.witness) == (
        "fail", "ShapeMismatch: ortho B8 does not live on lattice B8"
    )
    bundle["orthos"]["B8"] = ortho
    assert [r.status for r in suite.run_suite(bundle, filter_text="io-roundtrip")] == ["pass"]


def test_library_has_no_assert_statements():
    # Laws are checked by the suite; python -O strips assert statements.
    found = []
    for path in sorted(pathlib.Path(latkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_homs_cache_info_available():
    # perfbench's sweep and full_sweep read suite._homs.cache_info().
    c2 = corpus.chain(2)
    suite._homs(c2, c2, "join")
    suite._homs(c2, c2, "join")
    info = suite._homs.cache_info()
    assert info.maxsize == 4096
    assert info.hits >= 1 and info.currsize >= 1


def law(prop):
    """The one LAWS row of prop."""
    (row,) = [row for row in suite.LAWS if row.prop == prop]
    return row


def test_pairwise_labels_name_the_checked_objects_in_order():
    # Report identity cannot tell "X~>Y" from "Y~>X": the product of a pool
    # with itself yields the same labels either way.  In weak-roundtrips and
    # state-evolution X~>Y names the weak meet maps from X to Y, and the body
    # takes (Y, X); in state-causal it names causal relations from X to Y,
    # and the body takes (X, Y).
    bundle = suite.default_bundle()
    lattices = bundle["lattices"]
    orders = {
        "weak-roundtrips": lambda x, y: (y, x),
        "state-evolution": lambda x, y: (y, x),
        "state-causal": lambda x, y: (x, y),
    }
    for prop, order in orders.items():
        checks = list(law(prop).checks(bundle))
        assert any(x != y for _, label, _ in checks for x, y in [label.split("~>")])
        for _, label, check in checks:
            x, y = label.split("~>")
            expected = order(lattices[x], lattices[y])
            assert len(check.args) == 2, (prop, label)
            assert all(got is want for got, want in zip(check.args, expected)), (prop, label)


def test_reports_identical_under_python_and_python_O():
    # No law may depend on assert, which python -O strips.  One subprocess
    # per interpreter mode runs the three laws that read the Hom-set proof
    # mark, the lazy profile and the closure axioms.
    code = (
        "from latkit import cli\n"
        "for law in ('adjoint-laws', 'balanced-dense', 'closure-monad'):\n"
        "    cli.main(['suite', '--json', '--filter', law, '--max-size', '4'])\n"
    )
    src = os.path.dirname(os.path.dirname(latkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        decoder, text, reports = json.JSONDecoder(), proc.stdout.strip(), []
        while text:
            batch, end = decoder.raw_decode(text)
            reports += [{k: v for k, v in r.items() if k != "millis"} for r in batch]
            text = text[end:].lstrip()
        runs.append(reports)
    assert runs[0] == runs[1]
    assert {r["prop"] for r in runs[0]} == {"adjoint-laws", "balanced-dense", "closure-monad"}
    assert all(r["status"] == "pass" for r in runs[0])


def test_only_conjugation_reads_the_isotone_hom_set(monkeypatch):
    # The four weak laws read weak.weak_meet_maps, built from the meet
    # kernel on the upper extensions; in a full sweep the isotone Hom-set is
    # asked for by conjugation alone.
    from latkit import maps, transition, weak

    current, readers = [], Counter()
    real_hom, real_collect = maps._hom, suite._collect

    def spy(dom, cod, cls):
        if cls == "isotone":
            readers[current[-1]] += 1
        return real_hom(dom, cod, cls)

    def collect(checks, reports):
        for prop, obj, fn in checks:
            current.append(prop)
            real_collect([(prop, obj, fn)], reports)

    # Every Hom-set record is read through maps._hom, bound in these modules.
    for module in (maps, suite, transition, weak):
        monkeypatch.setattr(module, "_hom", spy)
    monkeypatch.setattr(suite, "_collect", collect)
    suite._homs.cache_clear()
    try:
        reports = suite.run_suite()
    finally:
        suite._homs.cache_clear()
    assert len(reports) == 3800 and all(r.status == "pass" for r in reports)
    assert set(readers) == {"conjugation"}
