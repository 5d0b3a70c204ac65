"""Maps between lattices: preservation analysis, adjoints, duality,
special morphisms, classification, and Hom-set enumeration."""

from __future__ import annotations

from .core import Frozen, LatticeMap, cached_property, compared_by, lower_interval
from .errors import (
    EmptyFamily,
    NotInClass,
    NotJoinPreserving,
    NotMeetPreserving,
    ShapeMismatch,
    SizeLimit,
)

# Budget: the most candidate maps a Hom-set enumeration may face.
HOM_SET_CANDIDATE_BOUND = 500_000
# The map classes hom_set enumerates.
MAP_CLASSES = ("isotone", "join", "meet", "balanced-join", "dense-join", "atomic-join")


class PreservationProfile:
    """Preservation flags of one map.

    The four O(n) flags are set when the profile is built, each by a lookup
    or a count of the value table.  joins reads the map's residual and meets
    its left residual (see _residual and _left_residual), kept on the map.
    """

    def __init__(self, f):
        dom, cod, values = f.dom, f.cod, f.values
        self._map = f
        self.bottom_fixed = values[dom.bottom] == cod.bottom  # f(0)=0
        self.balanced = values[dom.top] == cod.top  # f(1)=1
        # f(a)=0 only for a=0: the bottom is a value once if f(0)=0, else never.
        self.dense = values.count(cod.bottom) == self.bottom_fixed
        # f(a)=1 only for a=1; the dense notion for meet maps
        self.top_reflecting = values.count(cod.top) == self.balanced

    @property
    def joins(self):
        """All joins, including the empty one (f(0)=0)."""
        return self.bottom_fixed and _residual(self._map) is not None

    @property
    def meets(self):
        """All meets, including the empty one (f(1)=1)."""
        return self.balanced and _left_residual(self._map) is not None


def _failing_pair(values, dom_table, cod_table):
    """First (a, b) in row-major order where the map sends a op b elsewhere
    than values[a] op values[b]; op is given by the two tables."""
    for a, row in enumerate(dom_table):
        image_row = cod_table[values[a]]
        images = [image_row[y] for y in values]
        if [values[x] for x in row] != images:
            return next(
                (a, b) for b, x in enumerate(row) if values[x] != images[b]
            )
    return None


def preservation_profile(f):
    """The preservation flags of f, decided exhaustively; binary checks
    suffice on finite carriers."""
    return PreservationProfile(f)


def _join_witness(values, dom, cod):
    """The first failure of joins of the map dom -> cod with this table:
    (dom.bottom,) if it moves the bottom, else its first failing pair.  On
    the dual lattices it is the first failure of meets."""
    if values[dom.bottom] != cod.bottom:
        return (dom.bottom,)
    return _failing_pair(values, dom.join_table, cod.join_table)


def _residual(f):
    """The table of f's right adjoint, or None if f does not preserve all
    joins; kept in f's memo (see _residual_table)."""
    memo = f.__dict__
    if "residual" not in memo:
        memo["residual"] = _residual_table(enumerate(f.values), f.dom, f.cod)
    return memo["residual"]


def _left_residual(f):
    """The table of f's left adjoint, or None if f does not preserve all
    meets: its residual between the dual lattices, kept in f's memo (see
    _residual_table)."""
    memo = f.__dict__
    if "left_residual" not in memo:
        memo["left_residual"] = _residual_table(enumerate(f.values), f.dom.dual, f.cod.dual)
    return memo["left_residual"]


def _residual_table(pairs, dom, cod):
    """The table, in elements of dom, of the right adjoint of the map
    a |-> v for (a, v) in pairs, or None if that map does not preserve all
    joins.  The map's domain is dom, or an interval [0, x] of dom; pairs
    names each of its elements once.

    A map preserves all joins iff it is residuated: the preimage of every
    down-set ↓b is a down-set ↓f*(b) (Blyth & Janowitz, Residuation Theory;
    Davey & Priestley ch. 7).  The preimage of ↓b is the preimage of b united
    with those of ↓c for b's lower covers c, taken in a linear extension, and
    each is looked up among dom's principal down-sets; the first that is
    none of them ends the pass.  A preimage lies below x, so it is a
    principal down-set of [0, x] exactly when it is one of dom: a map on an
    interval is decided without building the interval's lattice.
    """
    index = dom.down_index
    pre = [0] * cod.size
    for a, v in pairs:
        pre[v] |= 1 << a
    for b, lower in cod.lower_covers:
        mask = pre[b]
        for c in lower:
            mask |= pre[c]
        if mask not in index:
            return None
        pre[b] = mask
    return tuple(map(index.__getitem__, pre))


def right_adjoint(f):
    """f*(b) = join of everything f sends below b.  Requires all joins.

    The result is kept on f, so each map computes its adjoint once; a
    failure is raised again on every call, with the first failing pair of
    the join scan as its witness.
    """
    memo = f.__dict__
    if "right_adjoint" in memo:
        return memo["right_adjoint"]
    table = _residual(f)
    if table is None:
        raise NotJoinPreserving(
            "map does not preserve joins", witness=_join_witness(f.values, f.dom, f.cod)
        )
    g = LatticeMap._unchecked(f.cod, f.dom, table)
    memo["right_adjoint"] = g
    return g


def left_adjoint(g):
    """g_*(a) = meet of everything g sends above a.  Requires all meets.

    This is the right adjoint of g in the dual order: its table is g's left
    residual (see _left_residual), and the map is kept on g.  A failure is
    raised again on every call, with the top, if g moves it, or else the
    first pair whose meet g moves as its witness.
    Neither adjoint links its result back to its source:
    left_adjoint(right_adjoint(f)) is computed afresh.
    """
    memo = g.__dict__
    if "left_adjoint" in memo:
        return memo["left_adjoint"]
    table = _left_residual(g)
    if table is None:
        raise NotMeetPreserving(
            "map does not preserve meets",
            witness=_join_witness(g.values, g.dom.dual, g.cod.dual),
        )
    f = memo["left_adjoint"] = LatticeMap._unchecked(g.cod, g.dom, table)
    return f


def _below(f):
    """Bit a*m + b is set iff f(a) <= b, m = |cod|; kept in f's memo."""
    memo = f.__dict__
    if "below" not in memo:
        up, m = f.cod.poset.up, f.cod.size
        out = 0
        for v in reversed(f.values):
            out = out << m | up[v]
        memo["below"] = out
    return memo["below"]


def _above(g):
    """Bit a*m + b is set iff a <= g(b), m = |dom|; kept in g's memo."""
    memo = g.__dict__
    if "above" not in memo:
        spread = _spread(g.cod, g.dom.size)
        out = 0
        for v in reversed(g.values):
            out = out << 1 | spread[v]
        memo["above"] = out
    return memo["above"]


def _spread(lattice, m):
    """spread[v] = the sum of 1 << a*m over a <= v; kept on the lattice per m."""
    spreads = lattice.__dict__.setdefault("spreads", {})
    if m not in spreads:
        unit = [1 << a * m for a in lattice.elements()]
        spreads[m] = tuple(
            sum(u for a, u in enumerate(unit) if row >> a & 1) for row in lattice.poset.down
        )
    return spreads[m]


def check_adjunction(f, g):
    """f(a) <= b iff a <= g(b), for every a and b: one compare of the two
    relations as bitmasks."""
    if f.dom is not g.cod and f.dom != g.cod:
        raise ShapeMismatch("dom of left map must equal cod of right map")
    if f.cod is not g.dom and f.cod != g.dom:
        raise ShapeMismatch("cod of left map must equal dom of right map")
    return _below(f) == _above(g)


def compose(f2, f1):
    if f1.cod is not f2.dom and f1.cod != f2.dom:
        raise ShapeMismatch("maps not composable")
    return LatticeMap._unchecked(f1.dom, f2.cod, tuple(map(f2.values.__getitem__, f1.values)))


def pointwise_join(fs):
    return _pointwise(fs, "join")


def pointwise_meet(gs):
    return _pointwise(gs, "meet")


def _pointwise(fs, op):
    """The map a |-> the op, cod.join or cod.meet, of the f(a) for f in fs."""
    fs = list(fs)
    if not fs:
        raise EmptyFamily("pointwise %s of no maps" % op)
    dom, cod = fs[0].dom, fs[0].cod
    for f in fs:
        if f.dom != dom or f.cod != cod:
            raise ShapeMismatch("family does not share dom/cod")
    fold = getattr(cod, op)
    return LatticeMap._unchecked(dom, cod, tuple(fold([f(a) for f in fs]) for a in dom.elements()))


class SpecialMaps(Frozen):
    """The eight canonical maps attached to an element a of L, and [0,a]:

    - point: 2 -> L, 1 |-> a (join preserving);
    - above_test: L -> 2, x |-> 1 iff a <= x (meet preserving);
    - copoint: 2 -> L, 0 |-> a (meet preserving);
    - below_test: L -> 2, x |-> 0 iff x <= a (join preserving);
    - inclusion: [0,a] -> L, x |-> x;
    - projection: L -> [0,a], x |-> x /\\ a;
    - capped_inclusion: [0,a] -> L, a |-> 1;
    - capped_projection: L -> [0,a], x |-> x if x <= a else a.
    """

    def __init__(
        self, point, above_test, copoint, below_test, inclusion, projection,
        capped_inclusion, capped_projection, interval,
    ):
        self.__dict__.update(point=point, above_test=above_test, copoint=copoint,
                             below_test=below_test, inclusion=inclusion, projection=projection,
                             capped_inclusion=capped_inclusion,
                             capped_projection=capped_projection, interval=interval)


def special_maps(lattice, a, two):
    """The special maps at a; two is the two-element chain."""
    interval = lower_interval(lattice, a)
    sub = interval.lattice
    index = {e: i for i, e in enumerate(interval.elements)}
    a_sub = index[a]
    capped_inclusion = LatticeMap(
        sub,
        lattice,
        tuple(lattice.top if x == a_sub else interval.elements[x] for x in sub.elements()),
    )
    capped_projection = LatticeMap(
        lattice,
        sub,
        tuple(
            index[x] if lattice.leq(x, a) else a_sub for x in lattice.elements()
        ),
    )
    return SpecialMaps(
        point=LatticeMap(two, lattice, (lattice.bottom, a)),
        above_test=LatticeMap(
            lattice, two, tuple(1 if lattice.leq(a, x) else 0 for x in lattice.elements())
        ),
        copoint=LatticeMap(two, lattice, (a, lattice.top)),
        below_test=LatticeMap(
            lattice, two, tuple(0 if lattice.leq(x, a) else 1 for x in lattice.elements())
        ),
        inclusion=interval.inclusion,
        projection=interval.projection,
        capped_inclusion=capped_inclusion,
        capped_projection=capped_projection,
        interval=sub,
    )


def _guard(candidates):
    if candidates > HOM_SET_CANDIDATE_BOUND:
        raise SizeLimit(
            "%d candidate maps exceed bound %d" % (candidates, HOM_SET_CANDIDATE_BOUND)
        )


def _enumerate_isotone(dom, cod):
    """Value table of every isotone map dom -> cod.

    This is the join search (see _enumerate_preserving) with every element
    a generator: the elements are assigned in the linear extension of
    dom.lower_covers, each given the values at or above the join of its
    lower covers' values, with no step to fill in and no leaf to test.
    """
    _guard(cod.size ** dom.size)
    order, preds = zip(*dom.lower_covers)
    return _search(dom, cod, order, preds, ())


class _JoinSearch:
    """What the join Hom-set search needs to know about its domain.

    Built once per lattice instance and kept on it (see _join_search).
    order lists the join-irreducibles in a linear extension, and preds[k]
    those of them below order[k] that come before it.  steps lists
    (a, x, y) for every element a with two or more lower covers, x and y
    two of them, so a = x v y; each step comes after those of x and y.
    prime is set when every join-irreducible j is join-prime: the join of
    the elements not above j is not above j.  That holds exactly when the
    lattice is distributive (Birkhoff; Davey & Priestley ch. 5).
    """

    def __init__(self, lattice):
        up = lattice.poset.up
        self.irr = sorted(a for a, covers in lattice.lower_covers if len(covers) == 1)
        # An element's up-set shrinks as it rises, so this is a linear extension.
        self.order = order = sorted(self.irr, key=lambda j: -up[j].bit_count())
        self.preds = [[i for i in order[:k] if up[i] >> j & 1] for k, j in enumerate(order)]
        self.steps = [(a, *covers[:2]) for a, covers in lattice.lower_covers if len(covers) > 1]
        self.prime = not any(
            up[j] >> lattice.join([a for a in lattice.elements() if not up[j] >> a & 1]) & 1
            for j in self.irr
        )


def _join_search(lattice):
    """The lattice's _JoinSearch, built on first use and kept on it."""
    memo = lattice.__dict__
    if "join_search" not in memo:
        memo["join_search"] = _JoinSearch(lattice)
    return memo["join_search"]


def _enumerate_preserving(dom, cod):
    """Value table of every join-preserving map dom -> cod.

    Meets are the same search on the dual lattices.  A join-preserving map
    is the join-extension of its isotone restriction to the
    join-irreducibles J, so the search assigns J in a linear extension and
    gives each irreducible only values at or above its predecessors'
    values.  At a leaf the table is filled from the irreducibles' values by
    the domain's steps, and it is kept iff its residual exists (see
    _residual_table): a filled table preserves joins iff it is the
    join-extension of its values on J.  Where every join-irreducible is
    join-prime, every isotone assignment extends, so no leaf is tested.
    Each table is made exactly once.
    """
    search = _join_search(dom)
    _guard(cod.size ** len(search.order))
    tables = _search(dom, cod, search.order, search.preds, search.steps)
    if search.prime:
        return tables
    return [v for v in tables if _residual_table(enumerate(v), dom, cod) is not None]


def _search(dom, cod, order, preds, steps):
    """Value tables of the maps dom -> cod that the search reaches.

    The elements of order are assigned in turn, order[k] each value at or
    above the join of its preds[k]'s values.  At a leaf each step (a, x, y)
    sets a's value to the join of x's and y's, and the table is kept;
    elements neither assigned nor stepped stay at bottom.
    """
    table, unit = cod.join_table, cod.bottom
    above = [[v for v in cod.elements() if row >> v & 1] for row in cod.poset.up]
    values = [unit] * dom.size
    out = []

    def assign(k):
        if k == len(order):
            for a, x, y in steps:
                values[a] = table[values[x]][values[y]]
            out.append(tuple(values))
            return
        floor = unit
        for i in preds[k]:
            floor = table[floor][values[i]]
        j = order[k]
        for v in above[floor]:
            values[j] = v
            assign(k + 1)

    assign(0)
    return out


def _enumerate(dom, cod, cls):
    """Value tables of the maps dom -> cod in class cls, any class of
    MAP_CLASSES but meet, in any order; any other class is a ValueError."""
    if cls == "isotone":
        return _enumerate_isotone(dom, cod)
    if cls == "join":
        return _enumerate_preserving(dom, cod)
    if cls == "balanced-join":
        return [v for v in _enumerate_preserving(dom, cod) if v[dom.top] == cod.top]
    if cls == "dense-join":
        # A join map sends bottom to bottom, so it is dense iff nothing else goes there.
        return [v for v in _enumerate_preserving(dom, cod) if v.count(cod.bottom) == 1]
    if cls == "atomic-join":
        targets = set(cod.atoms()) | {cod.bottom}
        return [
            v for v in _enumerate_preserving(dom, cod) if all(v[p] in targets for p in dom.atoms())
        ]
    raise ValueError("unknown map class %r" % cls)


class _HomSet:
    """The maps dom -> cod of one class of MAP_CLASSES, kept on dom per
    (cod, cls) by _hom, the one place that makes it.

    tables are their value tables, sorted, enumerated when the record is
    made, so a SizeLimit keeps nothing.  masks and maps, one map per table
    in table order, are built on first read.  A meet map has the table of
    a join map between the dual lattices, so a meet record shares the
    tables and masks of that join record, twin, and builds its own maps.
    """

    def __init__(self, dom, cod, tables, twin=None):
        self.dom, self.cod, self.tables, self.twin = dom, cod, tables, twin

    @cached_property
    def masks(self):
        """E[a][v] = the bitmask of the indices i, in table order, of the
        maps f_i with f_i(a) = v.

        A set of maps is a bitmask over the Hom-set, so a search over maps
        is a few ANDs and ORs of these rows: the maps with v <= f(a) are the
        OR of E[a] over the up-set of v (see _at_most).
        """
        if self.twin is not None:
            return self.twin.masks
        return _masks_of(self.tables, self.dom.size, self.cod.size)

    @cached_property
    def maps(self):
        dom, cod = self.dom, self.cod
        return tuple(LatticeMap._unchecked(dom, cod, v) for v in self.tables)


def _hom(dom, cod, cls):
    """The _HomSet of the maps dom -> cod in class cls, kept on dom; a class
    outside MAP_CLASSES is a ValueError."""
    kept = dom._hom_sets
    hom = kept.get((cod, cls))
    if hom is None:
        if cls == "meet":
            twin = _hom(dom.dual, cod.dual, "join")
            hom = _HomSet(dom, cod, twin.tables, twin)
        else:
            hom = _HomSet(dom, cod, tuple(sorted(_enumerate(dom, cod, cls))))
        kept[cod, cls] = hom
    return hom


def _keeps_hom(dom, cod, cls):
    """Whether _hom keeps the Hom-set dom -> cod of class cls; nothing is enumerated."""
    return (cod, cls) in dom._hom_sets


def _masks_of(tables, n, m):
    """out[a][v] = the bitmask of the indices i with tables[i][a] = v, for
    value tables of length n into range(m), m <= 256."""
    if not tables:
        return [[0] * m for _ in range(n)]
    # Column a as bytes, last table first; digits[v] turns v into "1" and
    # every other value into "0", so the column read in base 2 has bit i
    # for tables[i].
    columns = [bytes(reversed(column)) for column in zip(*tables)]
    values = bytes(range(m))
    digits = [bytes.maketrans(values, b"0" * v + b"1" + b"0" * (m - 1 - v)) for v in values]
    return [[int(column.translate(row), 2) for row in digits] for column in columns]


def _at_most(row, lattice):
    """out[v] = the OR of row[w] over w <= v in lattice; over w >= v it is
    _at_most(row, lattice.dual).  One OR per cover, in a linear extension."""
    out = list(row)
    for b, lower in lattice.lower_covers:
        for c in lower:
            out[b] |= out[c]
    return out


def hom_set(dom, cod, cls="join"):
    """Complete, duplicate-free enumeration in lexicographic table order.

    Each Hom-set is enumerated once per domain instance and kept on it, keyed
    by (cod, cls), as one record (see _hom); every call returns a fresh list
    of its shared maps.  A meet map is built from its own table, which is
    the table of a join map between the dual lattices.  A SizeLimit is not
    kept: it is raised again on every call, against the
    HOM_SET_CANDIDATE_BOUND of that call.
    """
    return list(_hom(dom, cod, cls).maps)


class MorphismFlags(Frozen):
    def __init__(
        self, epic, monic, section, retraction, injective, surjective, balanced, dense
    ):
        self.__dict__.update(epic=epic, monic=monic, section=section, retraction=retraction,
                             injective=injective, surjective=surjective, balanced=balanced,
                             dense=dense)

    __eq__, __hash__ = compared_by("epic", "monic", "section", "retraction", "injective",
                                   "surjective", "balanced", "dense")


def _inverts(h, f):
    """h o f is the identity on f's domain, read off the value tables."""
    hv = h.values
    for a, y in enumerate(f.values):
        if hv[y] != a:
            return False
    return True


def _one_sided_inverses(f, cls):
    """(section, retraction): whether some map h: cod -> dom of class cls
    has h o f = 1, or f o h = 1, read off the value masks E of that Hom-set.
    h o f = 1 iff h(f(a)) = a for every a: the AND over a of E[f(a)][a].
    f o h = 1 iff h(b) lies in f's preimage of b for every b: the AND over b
    of the OR of E[b][a] over that preimage, the same cells grouped by f(a).
    """
    masks = _hom(f.cod, f.dom, cls).masks
    sections, hits = -1, [0] * f.cod.size
    for a, y in enumerate(f.values):
        cell = masks[y][a]
        sections &= cell
        hits[y] |= cell
    retractions = -1
    for hit in hits:
        retractions &= hit
    return sections != 0, retractions != 0


def _lowest(mask):
    """The index of the lowest set bit of a nonzero mask: in a set of maps,
    the first map in hom_set order."""
    return (mask & -mask).bit_length() - 1


def _adjoint_sets(l1, l2):
    """(f, adjoints, admitted) for each join map f: l1 -> l2, in order, with
    two independent oracles' sets of meet maps g: l2 -> l1 as bitmasks over
    hom_set(l2, l1, "meet").  adjoints: the g whose relation a <= g(b) is f's
    relation f(a) <= b, one dict lookup, as check_adjunction compares them.
    admitted: the g that the unit a <= g(f(a)) and the counit f(g(b)) <= b
    admit, from the meet maps' value masks."""
    meets, by_relation = _hom(l2, l1, "meet"), {}
    for j, g in enumerate(meets.maps):
        relation = _above(g)
        by_relation[relation] = by_relation.get(relation, 0) | 1 << j
    values = meets.masks  # values[b][x]: the g with g(b) = x
    above = [_at_most(row, l1.dual) for row in values]  # x <= g(b)
    up2 = l2.poset.up
    for f in _hom(l1, l2, "join").maps:
        fv = f.values
        admitted = -1
        for a, y in enumerate(fv):
            admitted &= above[y][a]
        for b, row in enumerate(values):
            counit = 0
            for x, y in enumerate(fv):
                if up2[y] >> b & 1:
                    counit |= row[x]
            admitted &= counit
        yield f, by_relation.get(_below(f), 0), admitted


def _order_sets(l1, l2, stars):
    """({h : f <= h}, {h : h* <= f*}) for each join map f: l1 -> l2, in
    order, as bitmasks over hom_set(l1, l2, "join"); stars[i] is the value
    table of the i-th map's right adjoint.  Each set is an AND over the
    points of the order masks, read off the value masks of the maps and of
    the adjoints."""
    joins = _hom(l1, l2, "join")
    above = [_at_most(row, l2.dual) for row in joins.masks]
    below = [_at_most(row, l1) for row in _masks_of(stars, l2.size, l1.size)]
    for f, star in zip(joins.maps, stars):
        over = under = -1
        for a, v in enumerate(f.values):
            over &= above[a][v]
        for b, x in enumerate(star):
            under &= below[b][x]
        yield over, under


def classify_morphism(f, cls="join"):
    """Classification via the adjoint criteria: f is in the class iff its
    adjoint exists, and NotInClass carries the adjoint's failure (a residual
    exists only where f fixes the bound, so no profile flag is read for it).
    One-sided inverses by the value masks of the reverse Hom-set."""
    if cls not in ("join", "meet"):
        raise ValueError("cls must be 'join' or 'meet'")
    try:
        g = right_adjoint(f) if cls == "join" else left_adjoint(f)
    except (NotJoinPreserving, NotMeetPreserving) as exc:
        raise NotInClass(str(exc), witness=exc.witness) from None
    profile = preservation_profile(f)
    injective = len(set(f.values)) == f.dom.size
    surjective = len(set(f.values)) == f.cod.size
    section, retraction = _one_sided_inverses(f, cls)
    return MorphismFlags(
        epic=_inverts(f, g),
        monic=_inverts(g, f),
        section=section,
        retraction=retraction,
        injective=injective,
        surjective=surjective,
        balanced=profile.balanced,
        dense=profile.dense,
    )
