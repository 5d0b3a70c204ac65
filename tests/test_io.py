"""Text formats: parsing, formatting, round trips, and parse errors."""

import ast
import os
import random

import pytest

from latkit import corpus, io, stateprop, transition, weak
from latkit.errors import OrthoAxiomFailed, ParseError
from latkit.maps import hom_set

from test_maps import nonempty_meets

LATTICE_DOC = """
# a diamond with an orthocomplement
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

umap t : D4 -> D4
a |-> {a}
b |-> {b}
1 |-> {a,1}

causal r : C2 -> D4
0 ~> 0
1 ~> 0
1 ~> a
"""


def test_load_workspace_resolves_everything():
    ws = io.load_workspace(LATTICE_DOC)
    assert set(ws.lattices) == {"D4", "C2"}
    assert "D4" in ws.orthos
    d4 = ws.lattices["D4"]
    assert d4.size == 4 and d4.labels == ("0", "a", "b", "1")
    f = ws.maps["f"]
    assert f.values == (0, 0, 1, 1)
    assert ws.signatures["f"] == ("D4", "C2")
    theta = ws.union_maps["t"]
    assert theta == transition.union_map(d4, d4, {1: {1}, 2: {2}, 3: {1, 3}})
    relation = ws.causals["r"]
    assert (1, 0) in relation.pairs and (1, 3) not in relation.pairs


def test_forward_references_allowed():
    # The map appears before the lattices it names.
    text = "map g : A -> A\nx |-> x\n0 |-> 0\n1 |-> 1\n" + (
        "lattice A\nelements: 0 x 1\ncovers: 0<x x<1\n"
    )
    ws = io.load_workspace(text)
    assert ws.maps["g"].values == (0, 1, 2)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        io.parse_blocks("elements: 0 1\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError) as err:
        io.parse_blocks("lattice A\nwhat even is this line\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        io.parse_blocks("map f\n")
    assert "NAME : DOM -> COD" in str(err.value)


def test_cyclic_covers_become_parse_errors():
    text = "lattice A\nelements: x y\ncovers: x<y y<x\n"
    with pytest.raises(ParseError):
        io.load_workspace(text)


def test_broken_ortho_is_a_validation_error():
    text = "lattice A\nelements: 0 1\ncovers: 0<1\northo: 0->0 1->1\n"
    with pytest.raises(OrthoAxiomFailed):
        io.load_workspace(text)


def test_duplicate_names_rejected():
    text = "lattice A\nelements: 0\n\nlattice A\nelements: 0\n"
    with pytest.raises(ParseError):
        io.load_workspace(text)


def test_unknown_label_rejected():
    text = "lattice A\nelements: 0 1\ncovers: 0<2\n"
    with pytest.raises(ParseError):
        io.load_workspace(text)


C2_DOC = "lattice A\nelements: 0 1\ncovers: 0<1\n"
S_DOC = "cspace S\npoints: p q\nclosed: {} {p}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("lattice A\nelements: 0 1\ncovers: 0<1 1<x\n", "line 3: unknown element 'x'"),
        (C2_DOC + "ortho: 0->1 1->y\n", "line 4: unknown element 'y'"),
        (C2_DOC + "map f : A -> A\n0 |-> 0\nz |-> 1\n", "line 6: unknown element 'z'"),
        (C2_DOC + "map f : A -> A\n0 |-> 0\n1 |-> w\n", "line 6: unknown element 'w'"),
        (C2_DOC + "map f : A -> A\nanchor: v\n0 |-> 0\n", "line 5: unknown element 'v'"),
        (C2_DOC + "umap t : A -> A\n1 |-> {0,u}\n", "line 5: unknown element 'u'"),
        (C2_DOC + "causal r : A -> A\n0 ~> 0\nt ~> 1\n", "line 6: unknown element 't'"),
        ("ospace P\npoints: p q\north: p~s\n", "line 3: unknown point 's'"),
        ("cspace S\npoints: p q\nclosed: {p,r}\n", "line 3: unknown point 'r'"),
        (S_DOC + "map a : S -> S\nkernel: k\n", "line 5: unknown point 'k'"),
        (S_DOC + "map a : S -> S\np |-> p\nq |-> o\n", "line 6: unknown point 'o'"),
    ],
)
def test_unknown_labels_name_the_token_and_its_line(text, message):
    with pytest.raises(ParseError) as err:
        io.load_workspace(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("lattice A\nelements: 0 1\ncovers: 0<1 01\n", "line 3: expected '<' in token '01'"),
        ("lattice A\nelements: 0 1\ncovers: 0< 0<1\n", "line 3: malformed token '0<'"),
        ("lattice A\nelements: 0 1\ncovers: 0<1 <1\n", "line 3: malformed token '<1'"),
        (C2_DOC + "map f : A -> A\n0 |-> 0\n0 |-> 1\n1 |-> 1\n", "line 6: duplicate value for '0'"),
        (C2_DOC + "map f : A -> A\n0 |-> 0\n0 |-> z\n", "line 6: duplicate value for '0'"),
        (C2_DOC + "map f : A -> A\n1 |-> z\n0 |-> 0\n0 |-> 1\n", "line 5: unknown element 'z'"),
        (S_DOC + "map a : S -> S\np |-> p\nq |-> q\np |-> q\n", "line 7: duplicate value for 'p'"),
    ],
)
def test_faulty_cover_tokens_and_map_lines_are_named_in_line_order(text, message):
    # Covers and map lines are read in one pass of lookups; a fault sends
    # them to the token-by-token scan, which names the first one.
    with pytest.raises(ParseError) as err:
        io.load_workspace(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "lines, message",
    [
        # A second line for one element, as map blocks refuse it.
        ("1 |-> {1}\n1 |-> {}\n", "line 6: duplicate value for '1'"),
        # The bottom has no image to give: union maps act on nonzero elements.
        ("0 |-> {1}\n1 |-> {1}\n", "line 5: unknown nonzero element '0'"),
        ("1 |-> {1}\n0 |-> {}\n", "line 6: unknown nonzero element '0'"),
    ],
)
def test_umap_lines_are_refused_as_map_lines_are(lines, message):
    with pytest.raises(ParseError) as err:
        io.load_workspace(C2_DOC + "umap t : A -> A\n" + lines)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "ospace P\npoints: p q p\northo: p~q\n",
        "cspace S\npoints: p q q\nclosed: {} {p}\n",
    ],
)
def test_duplicate_point_labels_rejected(text):
    with pytest.raises(ParseError) as err:
        io.load_workspace(text)
    assert "duplicate point labels" in str(err.value)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "text, field, line",
    [
        ("ospace P\npoints: p q\northo: p~q\n", "ortho", 3),
        ("lattice A\nelements: 0 1\ncover: 0<1\n", "cover", 3),
        ("cspace S\npoints: p q\nclosed: {} {p}\nclose: {q}\n", "close", 4),
        ("lattice A\nelements: 0 1\ncovers: 0<1\nmap f : A -> A\nanchr: 1\n", "anchr", 5),
        ("cspace S\npoints: p\nclosed: {}\nmap a : S -> S\nanchor: p\n", "anchor", 5),
        ("lattice A\nelements: 0\numap t : A -> A\nkernel: 0\n", "kernel", 4),
        ("lattice A\nelements: 0\ncausal r : A -> A\npairs: 0\n0 ~> 0\n", "pairs", 4),
    ],
)
def test_unknown_fields_rejected(text, field, line):
    with pytest.raises(ParseError) as err:
        io.load_workspace(text)
    assert str(err.value).startswith("line %d: unknown field %r" % (line, field))


def test_partial_map_blocks():
    text = (
        "lattice C3\nelements: 0 m 1\ncovers: 0<m m<1\n"
        "lattice C2\nelements: 0 1\ncovers: 0<1\n"
        "map p : C3 -> C2\nanchor: m\n0 |-> 0\nm |-> 1\n"
    )
    ws = io.load_workspace(text)
    partial = ws.maps["p"]
    assert partial.anchor == 1
    assert partial.values == ((0, 0), (1, 1))


@pytest.mark.parametrize(
    "lines, message",
    [
        # One line per element below the anchor: a missing one first, then
        # the first line for an element above it.
        ("0 |-> 0\n1 |-> 1\n", "line 7: partial map missing value for 'm'"),
        ("0 |-> 0\nm |-> 1\n1 |-> 1\n", "line 11: partial map value for '1', "
         "which is not below the anchor 'm'"),
        ("1 |-> 1\n0 |-> 0\nm |-> 1\n", "line 9: partial map value for '1', "
         "which is not below the anchor 'm'"),
    ],
)
def test_partial_map_lines_cover_the_interval_exactly(lines, message):
    text = (
        "lattice C3\nelements: 0 m 1\ncovers: 0<m m<1\n"
        "lattice C2\nelements: 0 1\ncovers: 0<1\n"
        "map p : C3 -> C2\nanchor: m\n" + lines
    )
    with pytest.raises(ParseError) as err:
        io.load_workspace(text)
    assert str(err.value) == message


def test_continuous_map_blocks():
    text = (
        "cspace S\npoints: p q\nclosed: {} {p} {q}\n"
        "map a : S -> S\nkernel: q\np |-> p\n"
    )
    ws = io.load_workspace(text)
    alpha = ws.cmaps["a"]
    assert alpha.kernel == frozenset([1])
    assert alpha(0) == 0


def test_lattice_format_roundtrip():
    for name, lattice in corpus.named_lattices(max_size=8).items():
        text = io.format_lattice(name, lattice)
        rebuilt = io.load_workspace(text).lattices[name]
        assert rebuilt == lattice


def test_ortho_format_roundtrip():
    for name, ol in corpus.ortho_lattices().items():
        text = io.format_lattice(name, ol.lattice, ol)
        ws = io.load_workspace(text)
        assert ws.orthos[name].ortho == ol.ortho


def test_space_format_roundtrips():
    for name, space in corpus.closure_spaces().items():
        rebuilt = io.load_workspace(io.format_cspace(name, space)).cspaces[name]
        assert rebuilt.closed == space.closed
    for name, space in corpus.orthospaces().items():
        rebuilt = io.load_workspace(io.format_ospace(name, space)).ospaces[name]
        assert rebuilt.orth == space.orth


def test_map_format_roundtrip():
    ws = io.load_workspace(LATTICE_DOC)
    f = ws.maps["f"]
    text = LATTICE_DOC + "\n" + io.format_map("f2", f, "D4", "C2")
    assert io.load_workspace(text).maps["f2"] == f
    theta = ws.union_maps["t"]
    text = LATTICE_DOC + "\n" + io.format_umap("t2", theta, "D4", "D4")
    assert io.load_workspace(text).union_maps["t2"] == theta
    relation = ws.causals["r"]
    text = LATTICE_DOC + "\n" + io.format_causal("r2", relation, "C2", "D4")
    assert io.load_workspace(text).causals["r2"].pairs == relation.pairs


def test_every_causal_relation_of_a_weak_map_reads_back():
    # Labels may hold ":" (C3+C3 has L1:1), and a causal line is read by
    # its arrow before it is read as a field.  The weak meet maps are found
    # by the pairwise meet scan, not by the WeakMeetMap constructor.
    small = corpus.named_lattices(max_size=4)
    count = 0
    for name1, l1 in small.items():
        for name2, l2 in small.items():
            texts = {name1: io.format_lattice(name1, l1), name2: io.format_lattice(name2, l2)}
            relations = [
                stateprop.map_to_causal(weak.WeakMeetMap(g))
                for g in hom_set(l2, l1, "isotone")
                if nonempty_meets(g)
            ]
            text = "".join(texts.values()) + "".join(
                io.format_causal("r%d" % k, relation, name1, name2)
                for k, relation in enumerate(relations)
            )
            causals = io.load_workspace(text).causals
            assert [causals["r%d" % k] for k in range(len(relations))] == relations
            count += len(relations)
    assert count == 4073


@pytest.mark.parametrize("kind, header", [
    ("map", "map f : A -> Z"), ("umap", "umap t : Z -> A"), ("causal", "causal r : A -> Z"),
])
def test_unknown_lattices_are_named(kind, header):
    text = "lattice A\nelements: 0\n%s\n" % header
    with pytest.raises(ParseError) as err:
        io.load_workspace(text)
    assert str(err.value) == "line 3: %s references unknown lattice 'Z'" % kind


def test_a_field_value_may_hold_an_arrow():
    ws = io.load_workspace("lattice A\nelements: a~>b\n")
    assert ws.lattices["A"].labels == ("a~>b",)
    # So may the fields of a map block, between lattices or closure spaces.
    for text, message in [
        (C2_DOC + "map f : A -> A\nanchor: 0~>1\n", "line 5: unknown element '0~>1'"),
        (S_DOC + "map a : S -> S\nkernel: p~>q\n", "line 5: unknown point 'p~>q'"),
    ]:
        with pytest.raises(ParseError) as err:
            io.load_workspace(text)
        assert str(err.value) == message


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\nlattice A  # trailing\nelements: 0 1\ncovers: 0<1\n"
    ws = io.load_workspace(text)
    assert ws.lattices["A"].size == 2


# ------------------------------------------------- the line loop, as a reference


def ref_parse_blocks(text):
    """The line loop that parse_blocks replaced: every stripped line reads
    its head first, then the block's arrow, a field, or an error."""
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw[: raw.index("#")] if "#" in raw else raw
        line = line.strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head in io._HEADS:
            rest = line[len(head):].strip()
            if head in ("map", "umap", "causal"):
                if ":" not in rest:
                    raise ParseError("%s header needs NAME : DOM -> COD" % head, line=lineno)
                name, sig = [s.strip() for s in rest.split(":", 1)]
                current = io.Block(head, name, sig, lineno, {}, [])
            else:
                if not rest or len(rest.split()) != 1:
                    raise ParseError("%s header needs exactly one name" % head, line=lineno)
                current = io.Block(head, rest, "", lineno, {}, [])
            blocks.append(current)
            continue
        if current is None:
            raise ParseError("content before any block header", line=lineno)
        arrow = io._ARROWS.get(current.kind)
        holds_arrow = "|->" in line or "~>" in line
        if arrow and arrow in line:
            lhs, rhs = [s.strip() for s in line.split(arrow, 1)]
            current.arrows.append((lhs, rhs, lineno))
        elif ":" in line and (
            not holds_arrow or line.split(":", 1)[0].strip() in io._LINE_FIELDS[current.kind]
        ):
            key, value = [s.strip() for s in line.split(":", 1)]
            if key in current.fields:
                raise ParseError("duplicate field %r" % key, line=lineno)
            current.fields[key] = (value, lineno)
        elif holds_arrow:
            if arrow:
                raise ParseError("%s lines use %s" % (current.kind, arrow), line=lineno)
            raise ParseError("%s block has no arrow lines" % current.kind, line=lineno)
        else:
            raise ParseError("unrecognized line %r" % line, line=lineno)
    return blocks


def block_tuples(blocks):
    return [(b.kind, b.name, b.header_rest, b.line, b.fields, b.arrows) for b in blocks]


def parsed(parse, text):
    """The blocks as plain tuples, or the ParseError's message and line."""
    try:
        return block_tuples(parse(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line)


def literal_documents():
    """Every str that the test modules write as a literal, or as literals and
    module-level str names joined by +: the documents the command-line
    subprocess tests read among them."""
    here = os.path.dirname(os.path.abspath(__file__))
    found = set()
    for name in sorted(os.listdir(here)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(here, name)) as handle:
            tree = ast.parse(handle.read())
        names = {}

        def value(node):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                return node.value
            if isinstance(node, ast.Name):
                return names.get(node.id)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                left, right = value(node.left), value(node.right)
                if left is not None and right is not None:
                    return left + right
            return None

        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                text = value(node.value)
                if text is not None:
                    names[node.targets[0].id] = text
        found.update(text for node in ast.walk(tree) if (text := value(node)) is not None)
    return found


def formatted_documents():
    """Every corpus lattice written out, with maps, union maps and causal
    relations on the small ones, and the corpus spaces."""
    lattices = corpus.named_lattices()
    docs = [io.format_lattice(name, lattice) for name, lattice in lattices.items()]
    for name, ol in corpus.ortho_lattices().items():
        docs.append(io.format_lattice(name, ol.lattice, ol))
    for name, space in corpus.closure_spaces().items():
        docs.append(io.format_cspace(name, space))
    for name, space in corpus.orthospaces().items():
        docs.append(io.format_ospace(name, space))
    small = [(name, lattice) for name, lattice in lattices.items() if lattice.size <= 4]
    for name1, l1 in small:
        for name2, l2 in small:
            head = io.format_lattice(name1, l1) + io.format_lattice(name2 + "x", l2)
            for k, f in enumerate(hom_set(l1, l2, "join")[:3]):
                docs.append(head + io.format_map("f%d" % k, f, name1, name2 + "x"))
            for k, g in enumerate(hom_set(l2, l1, "meet")[:3]):
                relation = stateprop.map_to_causal(weak.WeakMeetMap(g))
                docs.append(head + io.format_causal("r%d" % k, relation, name1, name2 + "x"))
            for k, theta in zip(range(2), transition.all_union_maps(l1, l2)):
                docs.append(head + io.format_umap("t%d" % k, theta, name1, name2 + "x"))
    return docs


# Lines that test the arrow-line path against the loop: header-like
# heads, "#" after an arrow, ":" inside labels, the other block's arrow.
CRAFTED = [
    "mapx |-> y",
    "mapx|->y",
    "map g : A -> A",
    "map g : A |-> A",
    "  umap u : A -> A |-> x",
    "lattice |-> x",
    "causal |-> x",
    "map",
    "a |-> b # note",
    "a |-> #b",
    "a #|-> b",
    "# a |-> b",
    "a:1 |-> b:2",
    "anchor: a |-> b",
    "kernel: p |-> q",
    "elements: a |-> b",
    "a ~> b",
    "a ~> b |-> c",
    "a |-> b ~> c",
    "\t a  |->  b \t",
    "|->",
    " |-> ",
    "a |-> b |-> c",
    "a ~> b ~> c",
    "key: value",
    "x",
    "",
]
HEADERS = ["lattice A", "map f : A -> A", "umap t : A -> A", "causal r : A -> A",
           "cspace S", "ospace P", "map f : S -> S"]


@pytest.mark.parametrize("header", HEADERS + [None])
def test_crafted_lines_parse_as_the_line_loop_does(header):
    for first in CRAFTED:
        for second in CRAFTED:
            text = "\n".join(([header] if header else []) + [first, second, "0 |-> 1"])
            assert parsed(io.parse_blocks, text) == parsed(ref_parse_blocks, text), text


def test_documents_parse_as_the_line_loop_does():
    # conftest.py compares the two on every document a test hands to
    # io.parse_blocks in process; this test covers the documents that the
    # command-line subprocesses read, and more.
    docs = sorted(literal_documents()) + formatted_documents()
    assert len(docs) > 1000
    for text in docs:
        assert parsed(io.parse_blocks, text) == parsed(ref_parse_blocks, text), text
    # Seeded documents: a header, then lines drawn from the crafted ones, the
    # headers and the lines of the documents above.
    rng = random.Random(28)
    pool = CRAFTED + HEADERS + sorted({line for text in docs for line in text.splitlines()})
    for _ in range(3000):
        lines = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        text = "\n".join([rng.choice(HEADERS)] + lines)
        assert parsed(io.parse_blocks, text) == parsed(ref_parse_blocks, text), text
