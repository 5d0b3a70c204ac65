"""Command-line interface: subcommands and exit codes."""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latkit
from latkit import cli, closure, corpus, io, maps, suite, transition
from latkit.core import LatticeMap
from latkit.errors import NotJoinPreserving
from latkit.maps import preservation_profile

DOC = """
lattice D4
elements: 0 a b 1
covers: 0<a 0<b a<1 b<1
ortho: 0->1 a->b b->a 1->0

lattice C2
elements: 0 1
covers: 0<1

map f : D4 -> C2
0 |-> 0
a |-> 0
b |-> 1
1 |-> 1
"""


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "objects.lat"
    path.write_text(DOC)
    return str(path)


def test_check_passes(doc_file, capsys):
    assert cli.main(["check", doc_file]) == 0
    out = capsys.readouterr().out
    assert "PASS lattice D4" in out
    assert "PASS map f" in out


def test_check_json(doc_file, capsys):
    assert cli.main(["check", doc_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert any(entry["object"] == "f" for entry in payload)


def redundant_covers(text):
    """The covers: line of a formatted lattice with its first pair repeated,
    a pair x<x, and x<z for its first pair x<y and a pair y<z, in front."""
    head, _, rest = text.partition("covers: ")
    line, _, tail = rest.partition("\n")
    pairs = [token.split("<") for token in line.split()]
    x, y = pairs[0]
    extra = ["%s<%s" % (x, y), "%s<%s" % (x, x)]
    extra += ["%s<%s" % (x, z) for w, z in pairs if w == y][:1]
    return head + "covers: " + " ".join(extra + [line]) + "\n" + tail


def test_redundant_cover_pairs_change_no_result(tmp_path, capsys):
    # Repeated, reflexive and transitive pairs in a covers: field build the
    # order of the covers alone: the same check output, lower covers and
    # formatted text.  An order that is no lattice is refused as before.
    for name, lattice in corpus.named_lattices().items():
        if lattice.size < 2:
            continue
        text = io.format_lattice(name, lattice)
        identity = io.format_map("f", LatticeMap(lattice, lattice, tuple(lattice.elements())),
                                 name, name)
        redundant = redundant_covers(text)
        assert len(redundant) > len(text)
        outputs = []
        for variant in (text, redundant):
            path = tmp_path / "variant.lat"
            path.write_text(variant + "\n" + identity)
            code = cli.main(["check", str(path), "--json"])
            built = io.load_workspace(variant).lattices[name]
            outputs.append((code, capsys.readouterr(), built.lower_covers,
                            io.format_lattice(name, built)))
        assert outputs[0] == outputs[1], name
        assert outputs[0][2:] == (lattice.lower_covers, text), name
    not_a_lattice = "lattice BAD\nelements: 0 a b c d 1\ncovers: 0<a 0<b a<c a<d b<c b<d c<1 d<1\n"
    for variant in (not_a_lattice, redundant_covers(not_a_lattice)):
        path = tmp_path / "bad.lat"
        path.write_text(variant)
        assert cli.main(["check", str(path), "--json"]) == 1
        assert capsys.readouterr() == ("", "error: NotALattice: no least upper bound for a, b\n")


def test_check_lists_union_maps(tmp_path, capsys):
    path = tmp_path / "umap.lat"
    path.write_text(DOC + "\numap t : C2 -> D4\n1 |-> {a,b}\n")
    assert cli.main(["check", str(path)]) == 0
    assert "PASS umap t\n" in capsys.readouterr().out
    assert cli.main(["check", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"object": "t", "kind": "umap", "status": "pass"} in payload


def test_check_flags_non_isotone_map(tmp_path, capsys):
    path = tmp_path / "bad.lat"
    path.write_text(
        DOC + "\nmap g : C2 -> C2\n0 |-> 1\n1 |-> 0\n"
    )
    assert cli.main(["check", str(path)]) == 1
    assert "FAIL map g" in capsys.readouterr().out


def test_partial_map_join_check_at_the_file_boundary(tmp_path, capsys):
    # a, b |-> 0 but a v b = 1 |-> 1.  Reading the file is the only place
    # that proves a partial map preserves joins.
    text = (
        "lattice D4\nelements: 0 a b 1\ncovers: 0<a 0<b a<1 b<1\n"
        "lattice C2\nelements: 0 1\ncovers: 0<1\n"
        "map p : D4 -> C2\nanchor: 1\n0 |-> 0\na |-> 0\nb |-> 0\n1 |-> 1\n"
    )
    with pytest.raises(NotJoinPreserving):
        io.load_workspace(text)
    path = tmp_path / "partial.lat"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "NotJoinPreserving: partial map not join preserving on its interval" in err
    assert "Traceback" not in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "cycle.lat"
    path.write_text("lattice A\nelements: x y\ncovers: x<y y<x\n")
    assert cli.main(["check", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "ortho.lat"
    path.write_text("lattice A\nelements: 0 1\ncovers: 0<1\northo: 0->0 1->1\n")
    assert cli.main(["check", str(path)]) == 1
    assert "OrthoAxiomFailed" in capsys.readouterr().err


def test_adjoint_right_and_dagger(doc_file, capsys):
    assert cli.main(["adjoint", doc_file, "--name", "f"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("map f_right : C2 -> D4")
    # The dagger needs ortho tables on both sides; C2 has none in the doc.
    assert cli.main(["adjoint", doc_file, "--name", "f", "--direction", "dagger"]) == 1


@pytest.mark.parametrize("direction", ["right", "left", "dualize", "dagger"])
def test_adjoint_json_matches_the_text_block(tmp_path, capsys, direction):
    # The dagger needs ortho tables on both lattices, so C2 gets one here.
    path = tmp_path / "ortho.lat"
    path.write_text(DOC.replace("covers: 0<1\n", "covers: 0<1\northo: 0->1 1->0\n"))
    argv = ["adjoint", str(path), "--name", "f", "--direction", direction]
    assert cli.main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "map f_%s : C2 -> D4" % direction
    assert cli.main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "map": "f_%s" % direction,
        "dom": "C2",
        "cod": "D4",
        "values": dict(row.split(" |-> ") for row in rows),
    }


def test_check_isotone_verdict_matches_the_full_scan(tmp_path, capsys):
    # Every map between corpus lattices of at most 4 elements: the check
    # report equals the one that runs is_isotone on every map.
    lattices = corpus.named_lattices(max_size=4)
    lines = [io.format_lattice(name, lat) for name, lat in lattices.items()]
    expected = []
    for (dom_name, dom), (cod_name, cod) in itertools.product(lattices.items(), repeat=2):
        for values in itertools.product(cod.elements(), repeat=dom.size):
            f = LatticeMap(dom, cod, values)
            name = "m%d" % len(expected)
            lines.append(io.format_map(name, f, dom_name, cod_name))
            profile = preservation_profile(f)
            entry = {"object": name, "kind": "map", "status": "pass", "profile": {
                "joins": profile.joins, "meets": profile.meets,
                "balanced": profile.balanced, "dense": profile.dense,
            }}
            if not f.is_isotone():
                entry.update(status="fail", witness="map is not isotone")
            expected.append(entry)
    path = tmp_path / "maps.lat"
    path.write_text("\n".join(lines))
    assert cli.main(["check", str(path), "--json"]) == 1
    reports = json.loads(capsys.readouterr().out)
    assert [entry for entry in reports if entry["kind"] == "map"] == expected
    assert {entry["status"] for entry in expected} == {"pass", "fail"}


def test_hom_counts_against_library(doc_file, capsys):
    assert cli.main(["hom", "D4", "C2", "--files", doc_file, "--json"]) == 0
    tables = json.loads(capsys.readouterr().out)
    from latkit.maps import hom_set

    d4 = corpus.named_lattices()["D4"]
    c2 = corpus.named_lattices()["C2"]
    assert len(tables) == len(hom_set(d4, c2, "join"))


def test_hom_and_count_read_the_files_once(doc_file, capsys, monkeypatch):
    calls = []
    real = io.load_workspace

    def counting(texts):
        calls.append(len(texts))
        return real(texts)

    monkeypatch.setattr(io, "load_workspace", counting)
    assert cli.main(["hom", "D4", "C2", "--files", doc_file]) == 0
    assert calls == [1]
    assert cli.main(["count", "TS", "D4", "C2", "--files", doc_file]) == 0
    assert calls == [1, 1]
    assert cli.main(["hom", "D4", "X9", "--files", doc_file]) == 2
    assert "no lattice named 'X9' in the given files" in capsys.readouterr().err


def test_hom_size_guard(capsys):
    assert cli.main(["hom", "B16", "B16", "--max-size", "8"]) == 3
    assert "size limit" in capsys.readouterr().err
    # 0 is a bound like any other, as it is for suite.
    for argv in (["hom", "C2", "D4"], ["count", "PS", "C2", "D4"]):
        assert cli.main(argv + ["--max-size", "0"]) == 3
        assert capsys.readouterr() == ("", "size limit: lattice exceeds --max-size 0\n")
        for bound in (["--max-size", "4"], []):
            assert cli.main(argv + bound) == 0
            assert capsys.readouterr().out


def test_count_builtin_corpus(capsys):
    assert cli.main(["count", "FS", "C2", "D4"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert cli.main(["count", "TS", "D4", "C2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4


def test_closure_fixed_points(doc_file, capsys):
    assert cli.main(["closure", doc_file, "--map", "f"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fixed:")


@pytest.mark.parametrize("command, option", [("closure", "--map"), ("adjoint", "--name")])
def test_map_commands_refuse_a_partial_map_or_an_unknown_name(doc_file, capsys, command, option):
    # p has an anchor: a partial map, which these commands do not take.
    with open(doc_file, "a") as handle:
        handle.write("map p : D4 -> C2\nanchor: 1\n0 |-> 0\na |-> 0\nb |-> 1\n1 |-> 1\n")
    assert cli.main([command, doc_file, option, "p"]) == 1
    assert capsys.readouterr().err == (
        "error: ValidationError: map 'p' is a partial map; this command needs a total map\n"
    )
    assert cli.main([command, doc_file, option, "q"]) == 2
    assert capsys.readouterr().err == "parse error: no map named 'q'\n"


def test_closure_of_space_subset(tmp_path, capsys):
    path = tmp_path / "space.cspace"
    path.write_text("cspace S\npoints: p q r\nclosed: {} {p} {q} {r} {p,q}\n")
    assert cli.main(["closure", str(path), "--space", "S", "--subset", "p,r"]) == 0
    assert capsys.readouterr().out.strip() == "closure: p q r"


def test_closure_subset_unknown_point(tmp_path, capsys):
    path = tmp_path / "space.cspace"
    path.write_text("cspace S\npoints: p q r\nclosed: {} {p} {q} {r} {p,q}\n")
    assert cli.main(["closure", str(path), "--space", "S", "--subset", "zz"]) == 2
    err = capsys.readouterr().err
    assert "parse error: unknown point 'zz'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_check_unreadable_file(tmp_path, capsys, kind):
    path = tmp_path / "input.lat"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"lattice A\nelements: \xff\xfe\n")
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: cannot read %s" % path)
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, reason", [
    ("missing", "No such file or directory"),
    ("file", "Not a directory"),
    ("binary", "not UTF-8 text"),
])
def test_suite_unreadable_corpus(tmp_path, capsys, kind, reason):
    path = tmp_path / "corpus"
    if kind == "file":
        path.write_text("lattice C2\nelements: 0 1\ncovers: 0<1\n")
    elif kind == "binary":
        path.mkdir()
        (path / "C2.lat").write_text("lattice C2\nelements: 0 1\ncovers: 0<1\n")
        path = path / "bad.lat"
        path.write_bytes(b"lattice A\nelements: \xff\xfe\n")
    assert cli.main(["suite", str(tmp_path / "corpus")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "parse error: cannot read %s: %s\n" % (path, reason)


@pytest.mark.parametrize(
    "text",
    ["ospace P\npoints: p p\n", "cspace S\npoints: p q p\nclosed: {} {p}\n"],
)
def test_check_duplicate_point_labels(tmp_path, capsys, text):
    path = tmp_path / "space.lat"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error: line 2: duplicate point labels" in err
    assert "Traceback" not in err


def test_check_unknown_field(tmp_path, capsys):
    path = tmp_path / "space.lat"
    path.write_text("ospace P\npoints: p q\northo: p~q\n")
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error: line 3: unknown field 'ortho' in ospace block" in err
    assert "Traceback" not in err


def test_equiv_roundtrips(doc_file, capsys):
    assert cli.main(["equiv", doc_file]) == 0
    out = capsys.readouterr().out
    assert "PASS D4" in out and "PASS D4(ortho)" in out


def test_check_size_guard(tmp_path, capsys):
    labels = ["c%d" % i for i in range(65)]
    path = tmp_path / "c65.lat"
    path.write_text(
        "lattice C65\nelements: %s\ncovers: %s\n"
        % (" ".join(labels), " ".join("%s<%s" % pair for pair in zip(labels, labels[1:])))
    )
    assert cli.main(["check", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "size limit: lattice C65 carrier 65 exceeds bound 64\n"


def test_equiv_biortho_size_guard(tmp_path, capsys):
    # MO9: nine pairs of complementary atoms, so the orthospace has 18 points.
    pairs = ["a%d b%d" % (i, i) for i in range(9)]
    atoms = " ".join(pairs).split()
    path = tmp_path / "mo9.lat"
    path.write_text(
        "lattice MO9\nelements: 0 %s 1\ncovers: %s\northo: 0->1 1->0 %s\n"
        % (
            " ".join(atoms),
            " ".join("0<%s %s<1" % (x, x) for x in atoms),
            " ".join("a%d->b%d b%d->a%d" % (i, i, i, i) for i in range(9)),
        )
    )
    assert cli.main(["equiv", str(path)]) == 3
    err = capsys.readouterr().err
    assert "size limit: 18 points exceed powerset bound 16" in err
    assert "Traceback" not in err


A_FILE = "lattice A\nelements: 0 1\ncovers: 0<1\n"


@pytest.mark.parametrize("text, line, message", [
    (A_FILE + "0 |-> 1\n", 4, "lattice block has no arrow lines"),
    ("cspace S\npoints: p\np ~> p\n", 3, "cspace block has no arrow lines"),
    ("ospace P\npoints: p q\np |-> q\n", 3, "ospace block has no arrow lines"),
    (A_FILE + "map f : A -> A\n0 |-> 0\n1 ~> 1\n", 6, "map lines use |->"),
    ("cspace S\npoints: p\nmap a : S -> S\np ~> p\n", 4, "map lines use |->"),
    (A_FILE + "umap t : A -> A\n1 ~> {1}\n", 5, "umap lines use |->"),
    (A_FILE + "causal r : A -> A\n0 |-> 1\n", 5, "causal lines use ~>"),
    # A ":" before another kind's arrow makes no field the block reads.
    (A_FILE + "causal r : A -> A\nL:1 |-> 0\n", 5, "causal lines use ~>"),
    (A_FILE + "map f : A -> A\nx:1 ~> 0\n", 5, "map lines use |->"),
    (A_FILE + "umap t : A -> A\nx:1 ~> {1}\n", 5, "umap lines use |->"),
    (A_FILE + "x: a ~> b\n", 4, "lattice block has no arrow lines"),
])
def test_stray_arrow_lines_are_parse_errors(tmp_path, capsys, text, line, message):
    path = tmp_path / "stray.lat"
    path.write_text(text)
    for command in ("check", "equiv"):
        assert cli.main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "parse error: line %d: %s\n" % (line, message)


@pytest.mark.parametrize("lines, line, message", [
    ("1 |-> {1}\n1 |-> {}\n", 6, "duplicate value for '1'"),
    ("0 |-> {1}\n1 |-> {1}\n", 5, "unknown nonzero element '0'"),
])
def test_check_refuses_umap_lines_as_map_lines(tmp_path, capsys, lines, line, message):
    path = tmp_path / "umap.lat"
    path.write_text(A_FILE + "umap t : A -> A\n" + lines)
    assert cli.main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "parse error: line %d: %s\n" % (line, message)


def test_check_refuses_a_second_line_for_one_point(tmp_path, capsys):
    # Continuous map blocks read their lines as map and umap blocks do.
    path = tmp_path / "cmap.lat"
    path.write_text(
        "cspace S\npoints: p q\nclosed: {} {p}\nmap a : S -> S\np |-> p\np |-> q\nq |-> q\n"
    )
    assert cli.main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "parse error: line 6: duplicate value for 'p'\n"


def test_check_refuses_a_partial_map_line_above_its_anchor(tmp_path, capsys):
    # 1 and b are not below the anchor a, so their lines are not dropped.
    path = tmp_path / "partial.lat"
    path.write_text(
        "lattice D4\nelements: 0 a b 1\ncovers: 0<a 0<b a<1 b<1\n"
        "map p : D4 -> D4\nanchor: a\n0 |-> 0\na |-> a\n1 |-> b\nb |-> 1\n"
    )
    assert cli.main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "parse error: line 8: partial map value for '1', which is not below the anchor 'a'\n"
    )


def corpus_file(tmp_path):
    """Every corpus lattice, with its ortho table, and every corpus closure
    space, written as one file."""
    orthos = corpus.ortho_lattices()
    text = "".join(
        io.format_lattice(name, lat, orthos.get(name))
        for name, lat in corpus.named_lattices().items()
    )
    text += "".join(io.format_cspace(name, s) for name, s in corpus.closure_spaces().items())
    path = tmp_path / "corpus.lat"
    path.write_text(text)
    return str(path)


def test_equiv_statuses_are_the_law_bodies(tmp_path, capsys, monkeypatch):
    # equiv runs the space-equivalence and orthospace-equivalence bodies of
    # suite.LAWS: each status says whether the body returns None.
    path = corpus_file(tmp_path)
    orthos = corpus.ortho_lattices()
    want = []
    for name, lat in corpus.named_lattices().items():
        if lat.is_atomistic():
            want.append((name, suite._atomistic_roundtrip(lat)))
            if name in orthos:
                want.append((name + "(ortho)", suite._orthospace_of_lattice(orthos[name])))
    for name, space in corpus.closure_spaces().items():
        want.append((name, closure.space_roundtrip(space)))
    want = [
        {"object": name, "status": "pass" if witness is None else "fail"}
        for name, witness in want
    ]
    assert len(want) == 14 + 5 + 5
    assert cli.main(["equiv", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == want
    # A body that finds a witness fails the command.
    monkeypatch.setattr(suite, "_orthospace_of_lattice", lambda ol: "rebuilt differs")
    assert cli.main(["equiv", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL B8(ortho)" in lines and "PASS B8" in lines
    assert sum(line.startswith("FAIL") for line in lines) == 5


def test_suite_error_report_exits_1(monkeypatch, capsys):
    def run_suite(**kwargs):
        return [suite.Report("some-law", "X", "error", "IndexError: boom")]

    monkeypatch.setattr(suite, "run_suite", run_suite)
    assert cli.main(["suite"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ERROR some-law X (0.0 ms)  [IndexError: boom]"
    assert out[-1] == "1 checks, 1 failed"


def test_suite_into_a_closed_pipe(tmp_path):
    # 60 two-element lattices give 3,600 adjoint-laws lines, about 150 kB:
    # more than a pipe holds, so the writer is still writing when the
    # reader goes away, as in `latkit suite | head -1`.
    for k in range(60):
        (tmp_path / ("L%02d.lat" % k)).write_text(
            "lattice L%02d\nelements: 0 1\ncovers: 0<1\n" % k
        )
    src = os.path.dirname(os.path.dirname(latkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "latkit.cli", "suite", str(tmp_path), "--filter", "adjoint-laws"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline().startswith(b"PASS adjoint-laws")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err and "Exception ignored" not in err


def test_witness_reports_basedness(capsys):
    assert cli.main(["witness", "M3", "a", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coherent_with_identity"] is True
    assert payload["based"] is False
    assert cli.main(["witness", "D4", "a", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["based"] is True


def test_witness_checks_coherence_with_the_identity(capsys, monkeypatch):
    # A witness whose top no longer reaches the top is not coherent with the
    # identity, and both outputs must say so.
    def dropped_top(lattice, a):
        images = {x: {x} for x in transition.nonzero(lattice)}
        images[lattice.top] = {a}
        return transition.union_map(lattice, lattice, images)

    assert cli.main(["witness", "M3", "a"]) == 0
    assert "# coherent with the identity: True; based: False" in capsys.readouterr().out
    monkeypatch.setattr(transition, "strictness_witness", dropped_top)
    assert cli.main(["witness", "M3", "a", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["coherent_with_identity"] is False
    assert cli.main(["witness", "M3", "a"]) == 0
    assert "# coherent with the identity: False;" in capsys.readouterr().out


def test_witness_enumerates_no_hom_set(capsys, monkeypatch):
    # A cold witness searches only the join maps it dominates.
    def refuse(*args):
        raise AssertionError("a Hom-set was enumerated")

    monkeypatch.setattr(maps, "_enumerate", refuse)
    assert cli.main(["witness", "B16", "{0}", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "lattice": "B16", "element": "{0}", "coherent_with_identity": True, "based": False,
    }


def test_witness_refuses_by_the_dominated_candidates(tmp_path, capsys):
    # B64's witness dominates 2 values at each of its 6 atoms (64
    # candidates, where the whole join Hom-set faces 64 ** 6), and C20's 2
    # at each of 18 elements and 3 at its top (2 ** 18 * 3 = 786,432).
    path = tmp_path / "big.lat"
    path.write_text(
        io.format_lattice("B64", corpus.boolean_lattice(6))
        + io.format_lattice("C20", corpus.chain(20))
    )
    assert cli.main(["witness", "B64", "{0}", "--files", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["based"] is False
    assert cli.main(["witness", "C20", "1", "--files", str(path), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "size limit: 786432 candidate maps exceed bound 500000\n"


def test_equiv_refuses_a_closed_set_lattice_past_the_carrier_bound(tmp_path, capsys):
    # The discrete space on 7 points has 128 closed sets.
    points = ["p%d" % i for i in range(7)]
    closed = [
        "{%s}" % ",".join(c) for k in range(8) for c in itertools.combinations(points, k)
    ]
    path = tmp_path / "discrete.lat"
    path.write_text("cspace F\npoints: %s\nclosed: %s\n" % (" ".join(points), " ".join(closed)))
    assert cli.main(["equiv", str(path), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "size limit: lattice of sets carrier 128 exceeds bound 64\n"


def test_witness_unknown_element(capsys):
    assert cli.main(["witness", "D4", "zzz"]) == 2


def test_suite_on_small_corpus_dir(tmp_path, capsys):
    (tmp_path / "C2.lat").write_text("lattice C2\nelements: 0 1\ncovers: 0<1\n")
    (tmp_path / "C3.lat").write_text("lattice C3\nelements: 0 m 1\ncovers: 0<m m<1\n")
    assert cli.main(["suite", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out.splitlines()[-1]


def test_suite_filter_and_json(tmp_path, capsys):
    (tmp_path / "C2.lat").write_text("lattice C2\nelements: 0 1\ncovers: 0<1\n")
    assert (
        cli.main(["suite", str(tmp_path), "--filter", "adjoint-laws", "--json"]) == 0
    )
    reports = json.loads(capsys.readouterr().out)
    assert reports
    assert all(report["prop"] == "adjoint-laws" for report in reports)
    assert all(
        set(report) <= {"prop", "object", "status", "witness", "millis"}
        for report in reports
    )


def test_suite_flags_corrupted_corpus(tmp_path, capsys):
    (tmp_path / "C2.lat").write_text("lattice C2\nelements: 0 1\ncovers: 0<1\n")
    (tmp_path / "bad.lat").write_text(
        "lattice BAD\nelements: 0 1\ncovers: 0<1\northo: 0->0 1->1\n"
    )
    assert cli.main(["suite", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL corpus-validate bad.lat" in out


def write_corpus(directory):
    """Write the built-in corpus to one file per object in text format."""
    bundle = suite.default_bundle()
    os.makedirs(directory, exist_ok=True)
    written = []
    blocks = [("%s.lat" % name, io.format_lattice(name, lat, bundle["orthos"].get(name)))
              for name, lat in bundle["lattices"].items()]
    blocks += [("%s.cspace" % name, io.format_cspace(name, space))
               for name, space in bundle["cspaces"].items()]
    blocks += [("%s.ospace" % name, io.format_ospace(name, space))
               for name, space in bundle["ospaces"].items()]
    for filename, text in blocks:
        path = os.path.join(directory, filename)
        with open(path, "w") as handle:
            handle.write(text)
        written.append(path)
    return written


def test_write_corpus_parses_back(tmp_path):
    written = write_corpus(str(tmp_path))
    assert written
    bundle, failures = suite.load_corpus_dir(str(tmp_path))
    assert not failures
    assert set(bundle["lattices"]) == set(corpus.named_lattices())
    assert set(bundle["orthos"]) == set(corpus.ortho_lattices())


@st.composite
def object_files(draw):
    """A document of small lattices, an ortho table, a map, a partial map and
    a closure space, then a few random edits that may break any of them."""
    n = draw(st.integers(1, 5))
    labels = ["x%d" % i for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    lines = ["lattice L", "elements: " + " ".join(labels)]
    if covers:
        lines.append("covers: " + " ".join("x%d<x%d" % c for c in covers))
    if draw(st.booleans()):
        image = draw(st.permutations(range(n)))
        lines.append("ortho: " + " ".join("x%d->x%d" % (i, v) for i, v in enumerate(image)))
    lines += ["", "lattice C2", "elements: 0 1", "covers: 0<1", "ortho: 0->1 1->0", ""]
    cod, cod_labels = draw(st.sampled_from([("C2", ["0", "1"]), ("L", labels)]))
    lines.append("map f : L -> %s" % cod)
    for i in range(n):
        lines.append("x%d |-> %s" % (i, draw(st.sampled_from(cod_labels))))
    lines += ["", "map p : C2 -> L", "anchor: 0", "0 |-> %s" % draw(st.sampled_from(labels)), ""]
    closed = draw(st.lists(st.sets(st.sampled_from("pqr")), max_size=4))
    lines += ["cspace S", "points: p q r"]
    lines.append("closed: " + " ".join("{%s}" % ",".join(sorted(c)) for c in closed))
    edits = draw(st.lists(st.tuples(st.sampled_from("dxrs"), st.integers(0, 10 ** 6)), max_size=3))
    tokens = ["", "->", "<", "|->", "~", "{", "}", "x0", "x9", "0", "1", ":", "#", "lattice", "map"]
    for kind, where in edits:
        k = where % len(lines)
        if kind == "d":  # drop a line
            del lines[k]
        elif kind == "x":  # duplicate a line
            lines.insert(k, lines[k])
        elif kind == "s":  # swap two lines
            j = where // len(lines) % len(lines)
            lines[k], lines[j] = lines[j], lines[k]
        else:  # replace one token of a line
            words = lines[k].split(" ")
            words[where % len(words)] = tokens[where % len(tokens)]
            lines[k] = " ".join(words)
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(object_files())
def test_cli_exit_contract_on_generated_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "objects.lat")
        with open(path, "w") as handle:
            handle.write(text)
        commands = [
            ["check", path],
            ["adjoint", path, "--name", "f"],
            ["adjoint", path, "--name", "f", "--direction", "left"],
            ["adjoint", path, "--name", "f", "--direction", "dagger"],
            ["equiv", path],
            ["closure", path, "--map", "f"],
            ["closure", path, "--space", "S", "--subset", "p,r"],
        ]
        for argv in commands:
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            assert code in {0, 1, 2, 3}, (argv, code)
            assert "Traceback" not in out.getvalue() + err.getvalue(), argv


def _parse(parser, argv):
    """Exit code, stdout and stderr of parser.parse_args(argv), which exits."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_each_command_prints_its_own_help_and_usage(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    code, help_text, err = _parse(cli.build_parser(), [name, "-h"])
    assert code == 0 and err == "" and help_text.startswith("usage: latkit %s [-h]" % name)
    assert _run(cli.main, [name, "-h"]) == (code, help_text, err)
    # A usage error prints the command's usage line.
    bad = ["--max-size", "x"] if name == "suite" else []
    code, out, err = _parse(cli.build_parser(), [name] + bad)
    assert code == 2 and out == "" and err.startswith("usage: latkit %s " % name)
    assert _run(cli.main, [name] + bad) == (code, out, err)


@pytest.mark.parametrize("argv", [["-h"], [], ["bogus"], ["--json", "check", "x.lat"]])
def test_top_level_help_and_errors_list_every_command(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.main(argv)
    out = "".join(capsys.readouterr())
    assert "{%s}" % ",".join(cli.COMMANDS) in out
    if argv == ["-h"]:
        for name, (_, help_text, _) in cli.COMMANDS.items():
            assert re.search(r"\n +%s +%s\n" % (name, help_text), out), name


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["--json"],
        ["check"],
        ["check", "x.lat", "--bogus"],
        ["adjoint", "x.lat"],
        ["adjoint", "x.lat", "--name", "f", "--direction", "up"],
        ["hom", "D4"],
        ["hom", "D4", "C2", "extra"],
        ["count", "XX", "D4", "C2"],
        ["count", "PS", "D4", "C2", "--max-size", "x"],
        ["witness", "D4", "a", "b"],
        ["suite", "--seed", "x"],
        ["hom", "D4", "C3", "--cls", "bogus"],
    ],
)
def test_usage_errors_exit_2_as_the_full_parser_does(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "usage: latkit" in err and "Traceback" not in err
    assert _parse(cli.build_parser(), argv) == (2, "", err)


def counting_parsers(monkeypatch):
    """The prog of every ArgumentParser built from now on, in order."""
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_a_plain_command_line_builds_no_parser(monkeypatch, capsys):
    built = counting_parsers(monkeypatch)
    full_tree = ["latkit"] + ["latkit %s" % name for name in cli.COMMANDS]
    assert cli.main(["hom", "D4", "C2", "--json"]) == 0
    assert cli.main(["count", "TS", "D4", "C2"]) == 0
    assert built == []
    # A usage error builds the full tree, which reports it.
    with pytest.raises(SystemExit):
        cli.main(["hom", "D4"])
    assert built == full_tree
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    assert built == full_tree * 2


def test_the_benchmark_command_lines_are_plain(monkeypatch, tmp_path, capsys):
    # Every line shape of perfbench's query pool and load ops, error exits
    # included: these are the lines whose speed the benchmark measures, and
    # building argparse for one of them costs more than reading it.
    maps_file, space_file = tmp_path / "maps.lat", tmp_path / "space.lat"
    maps_file.write_text(DOC)
    space_file.write_text("cspace S\npoints: p q\nclosed: {} {p}\n")
    lines = [
        (["hom", "D4", "C2", "--cls", "meet", "--json"], 0),
        (["count", "TS", "D4", "C2", "--json"], 0),
        (["count", "PS", "B16", "B8", "--max-size", "8"], 3),
        (["witness", "D4", "a", "--json"], 0),
        (["adjoint", str(maps_file), "--name", "f"], 0),
        (["adjoint", str(maps_file), "--name", "f", "--direction", "left"], 0),
        (["closure", str(maps_file), "--map", "f", "--json"], 0),
        (["closure", str(space_file), "--space", "S", "--subset", "zz"], 2),
        (["equiv", str(maps_file), "--json"], 0),
        (["check", str(maps_file), "--json"], 0),
        (["check", str(tmp_path / "missing.lat")], 2),
    ]
    built = counting_parsers(monkeypatch)
    for argv, code in lines:
        assert isinstance(cli._plain_args(argv[0], argv[1:]), types.SimpleNamespace), argv
        assert cli.main(argv) == code, argv
    assert built == []


def test_importing_the_cli_leaves_out_argparse():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import sys, latkit.cli; print('argparse' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"


# Tokens that argparse reads in its own ways: help, an abbreviation, an
# attached value, the end of options, a lone dash, a value starting with a
# dash, and an empty argument, which is a plain value.
ODD_TOKENS = ["-h", "--js", "--cls=join", "--", "-", "-1", ""]


@st.composite
def command_lines(draw):
    """A command name and its arguments: positionals, then options with
    values, then stray tokens, drawn from the command's own flags, valid
    and invalid values and ODD_TOKENS; flags repeat, and positionals may
    come after options."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    specs = cli.COMMANDS[name][2]
    flags = [flag for flag, _ in specs if flag.startswith("-")]
    values = ["D4", "C2", "x.lat", "3", "x"]
    values += [str(choice) for _, spec in specs for choice in spec.get("choices", ())]
    value = st.sampled_from(values)
    argv = []
    for flag, spec in specs:
        if not flag.startswith("-"):
            argv += draw(st.lists(value, min_size=0 if spec.get("nargs") == "?" else 1, max_size=2))
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4)):
        spec = dict(specs)[flag]
        if spec.get("action"):
            argv.append(flag)
        elif spec.get("nargs") == "*":
            argv += [flag] + draw(st.lists(value, max_size=2))
        else:
            argv += [flag, draw(value)]
    if draw(st.booleans()):
        argv += draw(st.lists(st.sampled_from(values + flags + ODD_TOKENS), max_size=3))
    if argv and draw(st.booleans()):  # drop one token
        del argv[draw(st.integers(0, len(argv) - 1))]
    return name, argv


def _echo(args):
    """A handler that prints what it was given."""
    print(sorted((key, value) for key, value in vars(args).items() if key != "func"))
    return 0


def _echo_table():
    """COMMANDS with every handler replaced by _echo."""
    return {name: (_echo, help_text, specs) for name, (_, help_text, specs) in cli.COMMANDS.items()}


def _run(fn, argv):
    """Exit code (returned or raised), stdout and stderr of fn(argv)."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = fn(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parse_full(argv):
    """main's dispatch through the full tree."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_a_plain_command_line_reads_as_argparse_does(line):
    name, argv = line
    got = cli._plain_args(name, argv)
    if got is not None:
        want, extra = cli.build_parser().parse_known_args([name] + argv)
        del want.command
        assert extra == [] and vars(got) == vars(want)
        return
    # Any other line goes to the full tree.
    with mock.patch.dict(cli.COMMANDS, _echo_table()), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert _run(cli.main, [name] + argv) == _run(_parse_full, [name] + argv)


# What _plain_args reads of a spec: its keys, and for a positional or a long
# option the nargs and actions it takes.
PLAIN_KEYS = {"nargs", "action", "default", "choices", "type", "required", "help"}
PLAIN_KINDS = {
    "positional": {(None, None), ("+", None), ("?", None)},
    "option": {(None, None), ("*", None), (None, "store_true")},
}


def test_every_command_spec_is_of_a_kind_the_plain_reader_reads():
    # _plain_args does not check its specs, so a spec of another kind would
    # be misread, not left to argparse.  A type is not applied to a string
    # default either, which argparse would do.
    for name, (_, _, specs) in cli.COMMANDS.items():
        for flag, spec in specs:
            where = (name, flag)
            kind = "option" if flag.startswith("--") else "positional"
            assert not flag.startswith("-") or kind == "option", where
            assert spec.keys() <= PLAIN_KEYS, where
            assert (spec.get("nargs"), spec.get("action")) in PLAIN_KINDS[kind], where
            assert not ("type" in spec and isinstance(spec.get("default"), str)), where


def test_readme_command_block_names_every_command_and_option():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as handle:
        text = handle.read()
    block = text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    for name, (_, _, specs) in cli.COMMANDS.items():
        lines = " ".join(line for line in block.splitlines() if line.startswith("latkit %s " % name))
        assert lines, name
        for flag, _ in specs:
            if flag.startswith("--"):
                assert re.search(r"%s\b" % flag, lines), (name, flag)


# ---------------------------------------------------------------- JSON writer


def written_payloads(monkeypatch):
    """The payloads cli._json is called on at the top level, in call order."""
    seen = []
    real = cli._json

    def spy(payload, *inner):
        if not inner:
            seen.append(payload)
        return real(payload, *inner)

    monkeypatch.setattr(cli, "_json", spy)
    return seen


def dumped(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def test_json_writer_prints_the_text_of_json_dumps_for_every_command(
    tmp_path, doc_file, capsys, monkeypatch
):
    # Each --json command but hom, count and witness, which print compact
    # JSON through json.dumps, writes through cli._json: check (passing and
    # failing maps), adjoint, equiv, closure (through _emit) and suite.
    ortho = tmp_path / "ortho.lat"
    ortho.write_text(DOC.replace("covers: 0<1\n", "covers: 0<1\northo: 0->1 1->0\n"))
    failing = tmp_path / "failing.lat"
    failing.write_text(DOC + "\nmap g : C2 -> D4\n0 |-> a\n1 |-> 0\n")
    whole = corpus_file(tmp_path)
    runs = [
        ["check", doc_file, "--json"],
        ["check", str(failing), "--json"],
        ["check", whole, "--json"],
        *[["adjoint", str(ortho), "--name", "f", "--direction", d, "--json"]
          for d in ("right", "left", "dualize", "dagger")],
        ["equiv", whole, "--json"],
        ["closure", doc_file, "--map", "f", "--json"],
        ["closure", whole, "--space", "S2", "--subset", "p0", "--json"],
        ["suite", "--json", "--filter", "weak", "--max-size", "3"],
    ]
    seen = written_payloads(monkeypatch)
    for argv in runs:
        assert cli.main(argv) in (0, 1), argv
        out = capsys.readouterr().out
        assert out == dumped(seen[-1]) + "\n", argv
    assert len(seen) == len(runs)
    kinds = {type(p) for p in seen}
    assert kinds == {list, dict}
    assert any(entry.get("witness") for entry in seen[1])


WITNESSES = [
    "",
    "plain",
    'quote " and apostrophe \'',
    "back\\slash and /slash",
    "tab\tline\nfeed\rbell\x07nul\x00unit\x1fdel\x7f",
    "café → ∀x \U0001d54a",
    "  ﻿퟿",
]


def test_json_writer_matches_json_dumps_on_awkward_payloads():
    reports = [
        suite.Report("weak-roundtrips", "C2~>D4", "fail", witness, millis)
        for witness in WITNESSES
        for millis in (0.0, 1e-7, 0.0004, 0.1234567, 2.5, 1234.5678, 1e16, 3e-320)
    ]
    payloads = [
        [r.to_dict() for r in reports],
        [{"millis": r.millis, "witness": r.witness} for r in reports],
        [],
        {},
        [[], {}, [[]], [{}], {"": []}],
        {"b": {}, "a": [], "A": None, "é": True, "z": False, "_": 0, "-": -7},
        {"ints": [0, 1, -1, 2**70, -(2**70)], "bools": [True, False], "none": None},
        {w: w for w in WITNESSES},
        ("a", ("tuple", 1), [2.0, -0.5]),
        "top-level string →",
        17,
        -0.0,
        None,
        True,
        False,
    ]
    for payload in payloads:
        assert cli._json(payload) == dumped(payload), payload


def test_check_and_suite_stdout_is_json_dumps_of_itself(doc_file, capsys):
    # A pin on the printed text itself: reading it back and dumping it as
    # json.dumps does gives the same bytes.
    for argv in (["check", doc_file, "--json"], ["suite", "--json", "--filter", "weak"]):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out == dumped(json.loads(out)) + "\n"
