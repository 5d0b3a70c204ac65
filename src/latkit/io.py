"""Line-oriented text formats for lattices, maps, union maps, orthospaces,
closure spaces and causal relations, plus the workspace that resolves
cross-references between parsed blocks."""

from __future__ import annotations

from contextlib import contextmanager

from . import core
from .errors import CycleDetected, ParseError
from .ortho import OrthoSpace, validate_ortho, validate_orthospace
from .closure import ClosureSpace, partial_map
from .core import LatticeMap
from .stateprop import CausalRelation
from .transition import nonzero, union_map
from .weak import PartialJoinMap


class Block:
    def __init__(self, kind, name, header_rest, line, fields, arrows):
        self.kind = kind
        self.name = name
        self.header_rest = header_rest
        self.line = line
        self.fields = fields  # key -> (value string, line)
        self.arrows = arrows  # (lhs, rhs, line)


_HEADS = ("lattice", "map", "umap", "ospace", "cspace", "causal")
# The arrow of each block kind that has arrow lines.
_ARROWS = {"map": "|->", "umap": "|->", "causal": "~>"}
# The fields each block kind reads; a map block reads those of "map"
# between lattices and those of "cmap" between closure spaces.
_FIELDS = {
    "lattice": ("elements", "covers", "ortho"),
    "map": ("anchor",),
    "cmap": ("kernel",),
    "umap": (),
    "causal": (),
    "ospace": ("points", "orth"),
    "cspace": ("points", "closed"),
}
# The fields a line may name in each block kind, before a map block's header
# is resolved to lattices or closure spaces.
_LINE_FIELDS = dict(_FIELDS, map=_FIELDS["map"] + _FIELDS["cmap"])


def _holds_arrow(line):
    return "|->" in line or "~>" in line


def parse_blocks(text):
    blocks = []
    current = arrow = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if not line:
            continue
        # The prefix test spares arrow lines, most of a file, the head split.
        if line.startswith(_HEADS) and (head := line.split(None, 1)[0]) in _HEADS:
            rest = line[len(head):].strip()
            if head in ("map", "umap", "causal"):
                if ":" not in rest:
                    raise ParseError("%s header needs NAME : DOM -> COD" % head, line=lineno)
                name, sig = [s.strip() for s in rest.split(":", 1)]
                current = Block(head, name, sig, lineno, {}, [])
            else:
                if not rest or len(rest.split()) != 1:
                    raise ParseError("%s header needs exactly one name" % head, line=lineno)
                current = Block(head, rest, "", lineno, {}, [])
            blocks.append(current)
            arrow = _ARROWS.get(head)
            continue
        if current is None:
            raise ParseError("content before any block header", line=lineno)
        # The block's own arrow first, so labels may hold ":"; then a field,
        # so the value of a field the block reads may hold an arrow; any
        # other arrow is an error.
        if arrow and arrow in line:
            lhs, _, rhs = line.partition(arrow)
            current.arrows.append((lhs.rstrip(), rhs.lstrip(), lineno))
        elif ":" in line and (
            not _holds_arrow(line)
            or line.split(":", 1)[0].strip() in _LINE_FIELDS[current.kind]
        ):
            key, value = [s.strip() for s in line.split(":", 1)]
            if key in current.fields:
                raise ParseError("duplicate field %r" % key, line=lineno)
            current.fields[key] = (value, lineno)
        elif _holds_arrow(line):
            if arrow:
                raise ParseError("%s lines use %s" % (current.kind, arrow), line=lineno)
            raise ParseError("%s block has no arrow lines" % current.kind, line=lineno)
        else:
            raise ParseError("unrecognized line %r" % line, line=lineno)
    return blocks


def _split_pair(token, sep, lineno):
    if sep not in token:
        raise ParseError("expected %r in token %r" % (sep, token), line=lineno)
    left, right = token.split(sep, 1)
    if not left or not right:
        raise ParseError("malformed token %r" % token, line=lineno)
    return left, right


def _parse_set(token, lineno):
    token = token.strip()
    if not (token.startswith("{") and token.endswith("}")):
        raise ParseError("expected a {...} set, got %r" % token, line=lineno)
    inner = token[1:-1].strip()
    if not inner:
        return []
    return [t.strip() for t in inner.split(",")]


def _arrow_target(block):
    if "->" not in block.header_rest:
        raise ParseError("header needs DOM -> COD", line=block.line)
    dom, cod = [s.strip() for s in block.header_rest.split("->", 1)]
    if not dom or not cod:
        raise ParseError("malformed DOM -> COD", line=block.line)
    return dom, cod


class Workspace:
    """Resolved objects from one or more parsed documents, each table by name."""

    def __init__(self):
        self.lattices = {}
        self.orthos = {}  # name -> OrthoLattice
        self.maps = {}  # name -> LatticeMap or PartialJoinMap
        self.union_maps = {}
        self.ospaces = {}
        self.cspaces = {}
        self.cmaps = {}  # continuous partial maps
        self.causals = {}
        self.signatures = {}  # map name -> (dom, cod) names


def _indexed(labels):
    """Label -> position, for the labels of a block."""
    return {label: i for i, label in enumerate(labels)}


def _label_index(index, token, lineno, what):
    """The position of token in a label -> position dict."""
    try:
        return index[token]
    except KeyError:
        raise ParseError("unknown %s %r" % (what, token), line=lineno) from None


def _reject_unknown_fields(block, known):
    """ParseError at the first field, in line order, that the block does not read."""
    for key, (_, lineno) in block.fields.items():
        if key not in known:
            raise ParseError("unknown field %r in %s block" % (key, block.kind), line=lineno)


def _build_lattice(block):
    if "elements" not in block.fields:
        raise ParseError("lattice block needs an elements field", line=block.line)
    _reject_unknown_fields(block, _FIELDS["lattice"])
    labels, _ = block.fields["elements"]
    labels = labels.split()
    core._check_carrier("lattice %s" % block.name, len(labels))
    index = _indexed(labels)
    if len(index) != len(labels):
        raise ParseError("duplicate element labels", line=block.fields["elements"][1])
    pairs = []
    if "covers" in block.fields:
        text, lineno = block.fields["covers"]
        tokens = text.split()
        try:  # one pass of lookups; a token without "<" has no right label
            pairs = [(index[a], index[b]) for a, _, b in (t.partition("<") for t in tokens)]
        except KeyError:  # the scan names the first faulty token
            for token in tokens:
                a, b = _split_pair(token, "<", lineno)
                pairs.append(
                    (_label_index(index, a, lineno, "element"),
                     _label_index(index, b, lineno, "element"))
                )
    try:
        poset = core.build_poset(len(labels), pairs, labels=labels)
    except CycleDetected as exc:
        raise ParseError("cyclic covers: %s" % exc, line=block.line)
    lattice = core.lattice_from_poset(poset)
    ortho = None
    if "ortho" in block.fields:
        text, lineno = block.fields["ortho"]
        table = {}
        for token in text.split():
            a, b = _split_pair(token, "->", lineno)
            table[_label_index(index, a, lineno, "element")] = _label_index(
                index, b, lineno, "element"
            )
        if sorted(table) != list(range(len(labels))):
            raise ParseError("ortho table must cover every element", line=lineno)
        ortho = validate_ortho(lattice, tuple(table[i] for i in range(len(labels))))
    return lattice, ortho


def _point_labels(block):
    if "points" not in block.fields:
        raise ParseError("%s block needs a points field" % block.kind, line=block.line)
    text, lineno = block.fields["points"]
    labels = text.split()
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate point labels", line=lineno)
    return labels


def _build_ospace(block):
    labels = _point_labels(block)
    _reject_unknown_fields(block, _FIELDS["ospace"])
    rows = [0] * len(labels)
    if "orth" in block.fields:
        text, lineno = block.fields["orth"]
        index = _indexed(labels)
        for token in text.split():
            a, b = _split_pair(token, "~", lineno)
            i = _label_index(index, a, lineno, "point")
            j = _label_index(index, b, lineno, "point")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return validate_orthospace(
        OrthoSpace(len(labels), tuple(rows), tuple(labels)), require_separating=False
    )


def _build_cspace(block):
    labels = _point_labels(block)
    _reject_unknown_fields(block, _FIELDS["cspace"])
    closed = []
    if "closed" in block.fields:
        text, lineno = block.fields["closed"]
        index = _indexed(labels)
        for token in text.split():
            closed.append(
                frozenset(
                    _label_index(index, t, lineno, "point")
                    for t in _parse_set(token, lineno)
                )
            )
    closed.append(frozenset(range(len(labels))))
    return ClosureSpace(len(labels), frozenset(closed), tuple(labels))


@contextmanager
def reading(path):
    """Report a file or directory that cannot be read, or a file that is
    not UTF-8 text, as ParseError("cannot read PATH: ...")."""
    try:
        yield
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc.strerror or exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError("cannot read %s: not UTF-8 text" % path) from exc


def read_text(path):
    """The text of the file at path; see reading for its errors."""
    with reading(path), open(path) as handle:
        return handle.read()


def load_workspace(texts):
    """Parse one or more documents and resolve all cross-references.

    Lattices and spaces are resolved first so maps may reference them
    regardless of declaration order.
    """
    if isinstance(texts, str):
        texts = [texts]
    ws = Workspace()
    blocks = []
    for text in texts:
        blocks.extend(parse_blocks(text))
    names = {}
    for b in blocks:
        if b.name in names:
            raise ParseError("duplicate name %r" % b.name, line=b.line)
        names[b.name] = b
    for b in blocks:
        if b.kind == "lattice":
            lattice, ortho = _build_lattice(b)
            ws.lattices[b.name] = lattice
            if ortho is not None:
                ws.orthos[b.name] = ortho
        elif b.kind == "ospace":
            ws.ospaces[b.name] = _build_ospace(b)
        elif b.kind == "cspace":
            ws.cspaces[b.name] = _build_cspace(b)
    for b in blocks:
        if b.kind in _ARROWS:
            ws.signatures[b.name] = _arrow_target(b)
        if b.kind == "map":
            _resolve_map(ws, b)
        elif b.kind == "umap":
            _resolve_umap(ws, b)
        elif b.kind == "causal":
            _resolve_causal(ws, b)
    return ws


def _arrow_table(block, index, what, value):
    """The block's arrow lines as a dict: the position of each left-hand
    label in index -> value(position, right-hand side, line).  Map, umap
    and continuous map blocks read their lines here, so each refuses, as a
    ParseError naming the line, an unknown label and a second line for the
    same one."""
    table = {}
    for lhs, rhs, lineno in block.arrows:
        a = _label_index(index, lhs, lineno, what)
        if a in table:
            raise ParseError("duplicate value for %r" % lhs, line=lineno)
        table[a] = value(a, rhs, lineno)
    return table


def _label_table(block, left, right, what):
    """_arrow_table for lines from labels in left to labels in right, read
    in one pass of dict lookups; only a line with an unknown or repeated
    label sends the block to _arrow_table, which names it."""
    try:
        table = {left[lhs]: right[rhs] for lhs, rhs, _ in block.arrows}
        if len(table) == len(block.arrows):
            return table
    except KeyError:
        pass
    return _arrow_table(
        block, left, what, lambda a, rhs, lineno: _label_index(right, rhs, lineno, what)
    )


def _resolve_map(ws, block):
    dom_name, cod_name = ws.signatures[block.name]
    if dom_name in ws.cspaces or cod_name in ws.cspaces:
        return _resolve_cmap(ws, block, dom_name, cod_name)
    dom, cod = _lattice_pair(ws, block, _FIELDS["map"])
    entries = _label_table(block, dom.label_index, cod.label_index, "element")
    if "anchor" in block.fields:
        text, lineno = block.fields["anchor"]
        anchor = _label_index(dom.label_index, text.strip(), lineno, "element")
        if sum(1 << x for x in entries) != dom.poset.down[anchor]:
            _refuse_partial_lines(block, dom, anchor, entries)
        ws.maps[block.name] = PartialJoinMap(dom, cod, anchor, entries.items())
        return
    if len(entries) != dom.size:
        missing = next(x for x in dom.elements() if x not in entries)
        raise ParseError("map missing value for %r" % dom.labels[missing], line=block.line)
    ws.maps[block.name] = LatticeMap(dom, cod, tuple(map(entries.__getitem__, dom.elements())))


def _refuse_partial_lines(block, dom, anchor, entries):
    """ParseError for a partial map whose lines are not one per element of
    [0, anchor]: a missing value first, then the first line for an element
    not below the anchor."""
    missing = [x for x in dom.downset(anchor) if x not in entries]
    if missing:
        raise ParseError(
            "partial map missing value for %r" % dom.labels[missing[0]], line=block.line
        )
    for lhs, _, lineno in block.arrows:
        if not dom.leq(dom.label_index[lhs], anchor):
            raise ParseError(
                "partial map value for %r, which is not below the anchor %r"
                % (lhs, dom.labels[anchor]),
                line=lineno,
            )


def _resolve_cmap(ws, block, dom_name, cod_name):
    if dom_name not in ws.cspaces or cod_name not in ws.cspaces:
        raise ParseError("continuous map needs two closure spaces", line=block.line)
    _reject_unknown_fields(block, _FIELDS["cmap"])
    src, tgt = ws.cspaces[dom_name], ws.cspaces[cod_name]
    src_index, tgt_index = _indexed(src.labels), _indexed(tgt.labels)
    kernel = []
    if "kernel" in block.fields:
        text, lineno = block.fields["kernel"]
        kernel = [_label_index(src_index, t, lineno, "point") for t in text.split()]
    mapping = _label_table(block, src_index, tgt_index, "point")
    missing = [p for p in range(src.size) if p not in kernel and p not in mapping]
    if missing:
        raise ParseError(
            "continuous map missing value for %r" % src.labels[missing[0]],
            line=block.line,
        )
    ws.cmaps[block.name] = partial_map(src, tgt, kernel, mapping)


def _lattice_pair(ws, block, fields):
    """The domain and codomain lattices that the block's header names; a
    ParseError names an unknown one, then a field not among fields."""
    names = ws.signatures[block.name]
    for name in names:
        if name not in ws.lattices:
            raise ParseError(
                "%s references unknown lattice %r" % (block.kind, name), line=block.line
            )
    _reject_unknown_fields(block, fields)
    return [ws.lattices[name] for name in names]


def _resolve_umap(ws, block):
    dom, cod = _lattice_pair(ws, block, _FIELDS["umap"])

    def image(a, rhs, lineno):
        if a == dom.bottom:
            raise ParseError("unknown nonzero element %r" % dom.labels[a], line=lineno)
        return frozenset(
            _label_index(cod.label_index, t, lineno, "element")
            for t in _parse_set(rhs, lineno)
        )

    images = _arrow_table(block, dom.label_index, "element", image)
    for a in dom.elements():
        if a != dom.bottom and a not in images:
            raise ParseError(
                "umap missing image for %r" % dom.labels[a], line=block.line
            )
    ws.union_maps[block.name] = union_map(dom, cod, images)


def _resolve_causal(ws, block):
    src, tgt = _lattice_pair(ws, block, _FIELDS["causal"])
    pairs = set()
    for lhs, rhs, lineno in block.arrows:
        pairs.add(
            (_label_index(src.label_index, lhs, lineno, "element"),
             _label_index(tgt.label_index, rhs, lineno, "element"))
        )
    ws.causals[block.name] = CausalRelation(src, tgt, frozenset(pairs))


def format_lattice(name, lattice, ortho=None):
    lines = ["lattice %s" % name]
    lines.append("elements: %s" % " ".join(lattice.labels))
    covers = [
        "%s<%s" % (lattice.labels[a], lattice.labels[b])
        for a, b in sorted((a, b) for b, lower in lattice.lower_covers for a in lower)
    ]
    if covers:
        lines.append("covers: %s" % " ".join(covers))
    if ortho is not None:
        table = ortho.ortho if hasattr(ortho, "ortho") else tuple(ortho)
        lines.append(
            "ortho: %s"
            % " ".join(
                "%s->%s" % (lattice.labels[a], lattice.labels[table[a]])
                for a in lattice.elements()
            )
        )
    return "\n".join(lines) + "\n"


def format_map(name, f, dom_name, cod_name):
    lines = ["map %s : %s -> %s" % (name, dom_name, cod_name)]
    for a in f.dom.elements():
        lines.append("%s |-> %s" % (f.dom.labels[a], f.cod.labels[f(a)]))
    return "\n".join(lines) + "\n"


def format_umap(name, theta, dom_name, cod_name):
    lines = ["umap %s : %s -> %s" % (name, dom_name, cod_name)]
    elems, labels = nonzero(theta.target), theta.target.labels
    for a, mask in zip(nonzero(theta.source), theta.images()):
        body = ",".join(labels[b] for i, b in enumerate(elems) if mask >> i & 1)
        lines.append("%s |-> {%s}" % (theta.source.labels[a], body))
    return "\n".join(lines) + "\n"


def format_ospace(name, space):
    lines = ["ospace %s" % name]
    lines.append("points: %s" % " ".join(space.labels))
    tokens = []
    for p in space.points():
        for q in space.points():
            if p < q and space.perp(p, q):
                tokens.append("%s~%s" % (space.labels[p], space.labels[q]))
    if tokens:
        lines.append("orth: %s" % " ".join(tokens))
    return "\n".join(lines) + "\n"


def format_cspace(name, space):
    lines = ["cspace %s" % name]
    lines.append("points: %s" % " ".join(space.labels))
    full = (1 << space.size) - 1
    tokens = [
        "{%s}" % ",".join(space.labels[p] for p in space.points() if m >> p & 1)
        for m in space.masks
        if m != full
    ]
    if tokens:
        lines.append("closed: %s" % " ".join(tokens))
    return "\n".join(lines) + "\n"


def format_causal(name, relation, dom_name, cod_name):
    lines = ["causal %s : %s -> %s" % (name, dom_name, cod_name)]
    for a, b in sorted(relation.pairs):
        lines.append(
            "%s ~> %s" % (relation.source.labels[a], relation.target.labels[b])
        )
    return "\n".join(lines) + "\n"
