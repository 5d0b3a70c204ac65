"""Finite posets and complete lattices.

Elements are identified by index; labels are cosmetic.  The order relation
is kept as one bitmask row per element (bit j of ``up[i]`` set iff i <= j).
A poset keeps the Hasse diagram it was built from.  A lattice is proved
one by the joins of pairs of upper covers, and builds its join table and
its meet table, the join table of its dual, on first read; everything
above this module is a table lookup.
"""

from __future__ import annotations

import itertools
import operator
import random

from .errors import (
    CycleDetected,
    FactorTooSmall,
    NotALattice,
    NotTransitive,
    ShapeMismatch,
    SizeLimit,
    ValidationError,
)

# Budgets, read by their guards at call time (see the README's budget table).
# Bound on the carrier of a lattice-producing construction.
MAX_LATTICE_SIZE = 64
# Bound on the base of anything materializing a powerset.
MAX_POWER_BASE = 16


def _check_carrier(what, total):
    """Refuse, before it is built, a carrier of total elements past
    MAX_LATTICE_SIZE; what names it in the message."""
    if total > MAX_LATTICE_SIZE:
        raise SizeLimit("%s carrier %d exceeds bound %d" % (what, total, MAX_LATTICE_SIZE))


class cached_property:
    """A value computed on its first read and stored in the instance
    __dict__, which later reads find first (no __set__ here); unlike
    functools.cached_property up to Python 3.11, no lock is taken."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Frozen:
    """Mixin of the immutable records.

    Each record's __init__ validates its arguments and sets its fields in
    one self.__dict__.update(...), which bypasses __setattr__, as memos do
    (cached_property, or a write into the instance __dict__); assigning or
    deleting an attribute raises.  A record that something compares or
    hashes takes its __eq__ and __hash__ from compared_by over its fields
    in order; FiniteLattice writes its own, over its order alone.  Every
    other record is equal to itself alone.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def compared_by(*fields):
    """The (__eq__, __hash__) of a record equal to a record of its own class
    with equal fields, hashed as the tuple of them (the field itself when
    there is one)."""
    key = operator.attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__


class FinitePoset(Frozen):
    """Finite partially ordered set.

    up[i] is the bitmask of elements j with i <= j.
    """

    def __init__(self, up, labels=()):
        labels = labels or tuple("e%d" % i for i in range(len(up)))
        self.__dict__.update(up=up, labels=labels)
        if len(labels) != len(up):
            raise ShapeMismatch("label count does not match element count")

    __eq__, __hash__ = compared_by("up", "labels")

    @property
    def size(self):
        return len(self.up)

    def elements(self):
        return range(len(self.up))

    @cached_property
    def down(self):
        """down[i] is the bitmask of elements j with j <= i."""
        # Transpose the order matrix.  The rows are written most significant
        # bit first and listed from the last element to the first, so column
        # j of the strings, read as a binary number, is down[n-1-j].
        width = "0%db" % len(self.up)
        rows = [format(row, width) for row in reversed(self.up)]
        return tuple(int("".join(column), 2) for column in reversed(list(zip(*rows))))

    def validate(self):
        """Check that the order is reflexive, antisymmetric and transitive,
        once per poset; raises at the first failure."""
        self._proved
        return self

    @cached_property
    def _proved(self):
        """True once the order is checked; build_poset fills it in, since
        the closure it builds has all three properties."""
        n = self.size
        up = self.up
        for a in range(n):
            if not up[a] >> a & 1:
                raise ValidationError("order not reflexive", witness=a)
        pair = _antisymmetry_witness(up, self.down)
        if pair is not None:
            a, b = pair
            raise CycleDetected(
                "antisymmetry fails at %s, %s" % (self.labels[a], self.labels[b]),
                witness=pair,
            )
        for a in range(n):
            reach = up[a]
            closed = rest = reach
            while rest:
                low = rest & -rest
                closed |= up[low.bit_length() - 1]
                rest ^= low
            if closed != reach:
                raise NotTransitive(
                    "transitivity fails above %s" % self.labels[a], witness=a
                )
        return True

    @cached_property
    def upper_covers(self):
        """upper_covers[a] lists the elements covering a, the minimal ones
        strictly above a, in index order.  A construction that knows its
        Hasse diagram keeps it here; otherwise each up-set is scanned: b is
        a cover of a iff b is the only element of ↑a - {a} at or below b,
        and nothing above a tested element is a cover, so its up-set leaves
        the elements still to test."""
        up, down = self.up, self.down
        out = []
        for a, row in enumerate(up):
            above = rest = row ^ 1 << a
            covers = []
            while rest:
                low = rest & -rest
                b = low.bit_length() - 1
                if down[b] & above == low:
                    covers.append(b)
                rest &= ~up[b]
            out.append(covers)
        return out


def _antisymmetry_witness(up, down):
    """First (a, b) in row-major order with a != b, a <= b and b <= a."""
    for a, row in enumerate(up):
        both = row & down[a] & ~(1 << a)
        if both:
            return (a, (both & -both).bit_length() - 1)
    return None


def build_poset(n, pairs, labels=None):
    """Build a poset from ordered pairs: the reflexive-transitive closure of
    the relation they give, which must have no cycle.

    The elements are sorted in a linear extension of the relation (Kahn's
    algorithm); then each up-set is the element's bit OR the up-sets of its
    successors, filled from the last element of the extension back, and each
    down-set the same over predecessors, filled forward.  That costs
    O(n + len(pairs)) big-integer ORs, and the result is an order by
    construction, so it is not validated again.  The same loop keeps the
    Hasse diagram: all of ↑a - {a} is at or above a successor of a, so the
    upper covers of a are the successors strictly above no other one, and
    repeated, reflexive and transitive pairs change neither.
    """
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ShapeMismatch("pair (%d, %d) out of range for n=%d" % (a, b, n))
        if a != b:
            succ[a].append(b)
            pred[b].append(a)
    waiting = [len(row) for row in pred]
    order = [a for a in range(n) if not waiting[a]]
    for a in order:  # the loop also visits the elements appended below
        for b in succ[a]:
            waiting[b] -= 1
            if not waiting[b]:
                order.append(b)
    if len(order) < n:
        raise _cycle(n, pairs, labels)
    up = [0] * n
    down = [0] * n
    for a in reversed(order):
        above = succ[a]  # becomes the upper covers of a
        row, strict = 1 << a, 0
        for b in above:
            u = up[b]
            row |= u
            strict |= u ^ 1 << b
        up[a] = row
        covers = row & ~strict ^ 1 << a
        if covers.bit_count() == len(above):  # each successor once, and a cover
            above.sort()
        else:
            above[:] = [b for b in range(n) if covers >> b & 1]
    for b in order:
        row = 1 << b
        for a in pred[b]:
            row |= down[a]
        down[b] = row
    return _proved_poset(up, down, tuple(labels) if labels else (), succ)


def _proved_poset(up, down, labels, upper_covers=None):
    """The poset of up-sets that are an order by construction, with its
    down-sets filled in: neither transposed nor validated again.  The
    upper covers, when given, are kept as its Hasse diagram."""
    poset = FinitePoset(tuple(up), labels)
    poset.__dict__.update(down=tuple(down), _proved=True)
    if upper_covers is not None:
        poset.__dict__["upper_covers"] = upper_covers
    return poset


def _cycle(n, pairs, labels):
    """The CycleDetected of a relation with a cycle: the first pair, in
    row-major order, of distinct elements below each other in its
    Warshall closure."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    poset = FinitePoset(tuple(up), tuple(labels) if labels else ())
    a, b = pair = _antisymmetry_witness(poset.up, poset.down)
    return CycleDetected(
        "cycle through %s and %s" % (poset.labels[a], poset.labels[b]), witness=pair
    )


class FiniteLattice(Frozen):
    """Complete lattice on a finite carrier: an order and its bounds.

    The order determines the rest, so lattices are equal iff their posets
    are.  lattice_from_poset proves the order a lattice; the constructions
    that are lattices by theorem (products, horizontal sums, upper
    extensions and retracts below, chains and Boolean lattices in corpus)
    skip the proof.  The join table, the meet table (the dual's join
    table), the size, the hash, the dual, the lower covers (from the Hasse
    diagram the poset keeps), the down-set index, the atom sets, the upper
    extension, the sublattices, the lower intervals, the Hom-sets out of the
    lattice with their value masks (maps._value_masks), the weak meet maps
    out of it (weak.weak_meet_maps), the data of the
    join Hom-set search (maps._join_search), the atom space
    (closure.lattice_to_space, as atom_space), whether the lattice is
    Boolean (closure.is_boolean) and its set-complement ortho
    (corpus.boolean_ortho) are computed on first use and kept in the
    instance __dict__ (by cached_property or by the function that computes
    them), where every later read finds them without a call.
    """

    def __init__(self, poset, bottom, top):
        self.__dict__.update(poset=poset, bottom=bottom, top=top)

    def __eq__(self, other):
        """Equality of the orders, after an identity test."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.poset == other.poset

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash(self.poset)

    @cached_property
    def size(self):
        return len(self.poset.up)

    @cached_property
    def _upper_extension(self):
        # The order with a new top added is an order, and a lattice: the
        # bottom stays, a pair of old elements keeps its join, and a pair
        # with the new top has it as its join.
        top = 1 << self.size
        up = [row | top for row in self.poset.up] + [top]
        down = self.poset.down + ((top << 1) - 1,)
        poset = _proved_poset(up, down, self.labels + ("**1**",))
        return FiniteLattice(poset, self.bottom, self.size)

    @cached_property
    def _intervals(self):
        """a -> lower_interval(self, a), filled on demand."""
        return {}

    @cached_property
    def _sublattices(self):
        """Element mask -> (the restriction to those elements, whether it
        is proved a lattice), filled on demand."""
        return {}

    @cached_property
    def _hom_sets(self):
        """(cod, cls) -> maps.hom_set(self, cod, cls) as a tuple."""
        return {}

    @cached_property
    def join_table(self):
        return _join_rows(self.poset.up)

    @cached_property
    def meet_table(self):
        return self.dual.join_table

    @cached_property
    def dual(self):
        """The same carrier in the reversed order: up and down, top and
        bottom swapped, so the dual's join table is this meet table and
        the other way round.  L.dual.dual is L."""
        poset = _proved_poset(self.poset.down, self.poset.up, self.labels)
        dual = FiniteLattice(poset, self.top, self.bottom)
        dual.__dict__["dual"] = self
        return dual

    @cached_property
    def lower_covers(self):
        """(b, the lower covers of b in index order) for every b, in a linear
        extension: the elements by the size of their down-sets.

        The lower covers of b are its upper covers in the dual, so a dual
        reads its lattice's Hasse diagram as they are; otherwise the
        poset's upper covers (kept, or scanned once) are transposed.  No
        dual is built for this."""
        down = self.poset.down
        order = sorted(range(len(down)), key=list(map(int.bit_count, down)).__getitem__)
        dual = self.__dict__.get("dual")
        lower = None if dual is None else dual.poset.__dict__.get("upper_covers")
        if lower is None:
            lower = [[] for _ in order]
            # a runs in index order, so each list is in index order too.
            for a, upper in enumerate(self.poset.upper_covers):
                for b in upper:
                    lower[b].append(a)
        return tuple(zip(order, map(tuple, map(lower.__getitem__, order))))

    @cached_property
    def down_index(self):
        """Down-set mask -> element, for the principal down-sets."""
        return {row: a for a, row in enumerate(self.poset.down)}

    @cached_property
    def label_index(self):
        """Label -> element."""
        return {label: a for a, label in enumerate(self.labels)}

    @cached_property
    def atom_sets(self):
        """Entry a is the frozenset of positions, in atoms() order, of the
        atoms below a."""
        down = self.poset.down
        ats = self.atoms()
        return tuple(
            frozenset(i for i, p in enumerate(ats) if row >> p & 1) for row in down
        )

    @property
    def labels(self):
        return self.poset.labels

    def elements(self):
        return range(self.size)

    def leq(self, a, b):
        return bool(self.poset.up[a] >> b & 1)

    def join2(self, a, b):
        return self.join_table[a][b]

    def meet2(self, a, b):
        return self.meet_table[a][b]

    def join(self, subset):
        out = self.bottom
        for a in subset:
            out = self.join_table[out][a]
        return out

    def meet(self, subset):
        out = self.top
        for a in subset:
            out = self.meet_table[out][a]
        return out

    def atoms(self):
        # The covers of the bottom, listed together in index order.
        return [b for b, lower in self.lower_covers if lower == (self.bottom,)]

    def is_atomistic(self):
        # The join b of the atoms below a has the same atom set as a, so
        # a == b for every a iff no two elements share an atom set.
        return len(set(self.atom_sets)) == self.size

    def downset(self, a):
        """Elements <= a, in index order."""
        return [x for x in self.elements() if self.leq(x, a)]


def _join_rows(up):
    """The join table of the order given by its up-sets: entry (a, b) is
    the element whose up-set is up[a] & up[b], or None if there is none.
    On the down-sets it is the meet table."""
    by_up = {row: a for a, row in enumerate(up)}.get
    return tuple([tuple([by_up(ua & ub) for ub in up]) for ua in up])


def lattice_from_poset(poset):
    """Validate the order (once per poset), find the bounds, and prove the
    poset a lattice by its Hasse diagram, building no table: one set
    lookup, of up[b] & up[c] among the up-sets, for every two upper covers
    b, c of each element.  A bounded poset in which every pair has a join
    has every meet, so the join table, and the meet table as the dual's
    join table, are built on first read.  Raises NotALattice at the first
    pair, in row-major order, that lacks a join (checked first) or a meet.

    The covers suffice, by the local confluence of Newman's lemma (Ann.
    Math. 43, 1942; Davey & Priestley, ch. 2).  By induction down from the
    top, any x, y >= a have a join.  If x or y is a, it is the other; else
    x >= b and y >= c for upper covers b, c of a, and b = c is the case of
    b.  Else d = b v c, e = x v d (above b) and e v y (above c) exist, and
    e v y = x v y: an upper bound of x and y is above d, so above e.  The
    case of a the bottom is every pair.
    """
    poset.validate()
    bottom, top = _bounds(poset)
    if not _cover_joins_exist(poset.up, poset.upper_covers):
        n = poset.size
        join_rows, meet_rows = _join_rows(poset.up), _join_rows(poset.down)
        a, b = next(
            (a, b)
            for a in range(n)
            for b in range(n)
            if join_rows[a][b] is None or meet_rows[a][b] is None
        )
        missing = "least upper" if join_rows[a][b] is None else "greatest lower"
        raise NotALattice(
            "no %s bound for %s, %s" % (missing, poset.labels[a], poset.labels[b]),
            witness=(a, b),
        )
    return FiniteLattice(poset, bottom, top)


def _cover_joins_exist(up, upper_covers):
    """Whether every two upper covers b, c of each element have a join, the
    element whose up-set is up[b] & up[c]."""
    ups = set(up)
    for covers in upper_covers:
        if len(covers) > 1 and not ups.issuperset(
            [up[b] & up[c] for b, c in itertools.combinations(covers, 2)]
        ):
            return False
    return True


def _bounds(poset):
    """(bottom, top) of the order, or NotALattice if one is missing."""
    if not poset.up:
        raise NotALattice("empty carrier has no bounds")
    up, down = poset.up, poset.down
    full = (1 << len(up)) - 1
    if full not in up:
        raise NotALattice("no bottom element")
    if full not in down:
        raise NotALattice("no top element")
    return up.index(full), down.index(full)


class LatticeMap(Frozen):
    """Total map between lattice carriers, stored as a value table."""

    def __init__(self, dom, cod, values):
        self.__dict__.update(dom=dom, cod=cod, values=values)
        if len(values) != dom.size:
            raise ShapeMismatch("value table does not cover the domain")
        if not (0 <= min(values) and max(values) < cod.size):
            bad = next(v for v in values if not 0 <= v < cod.size)
            raise ShapeMismatch("value %d outside codomain" % bad)

    __eq__, __hash__ = compared_by("dom", "cod", "values")

    @classmethod
    def _unchecked(cls, dom, cod, values):
        """A map whose table is in range by construction: not validated."""
        f = object.__new__(cls)
        f.__dict__.update(dom=dom, cod=cod, values=values)
        return f

    def __call__(self, a):
        return self.values[a]

    @cached_property
    def dual(self):
        """The same value table between the dual lattices.  f.dual.dual is f.

        The dual lattices have the sizes of dom and cod, so the table is
        not validated again.
        """
        dual = LatticeMap._unchecked(self.dom.dual, self.cod.dual, self.values)
        dual.__dict__["dual"] = self
        return dual

    def is_isotone(self):
        # A finite order is the transitive closure of its covers (Davey &
        # Priestley, ch. 1), so f is isotone iff f(c) <= f(b) for every
        # lower cover c of every b.
        values, up = self.values, self.cod.poset.up
        for b, lower in self.dom.lower_covers:
            v = values[b]
            for c in lower:
                if not up[values[c]] >> v & 1:
                    return False
        return True

    def image(self):
        return sorted(set(self.values))


def identity_map(lattice):
    return LatticeMap(lattice, lattice, tuple(lattice.elements()))


class Retract(Frozen):
    """The image of an idempotent isotone map p, ordered as in the lattice
    (a lattice: Davey & Priestley, ch. 7), with its inclusion and x |-> p(x).
    elements are indices into the ambient carrier."""

    def __init__(self, lattice, elements, inclusion, projection):
        self.__dict__.update(lattice=lattice, elements=elements, inclusion=inclusion,
                             projection=projection)

    __eq__, __hash__ = compared_by("lattice", "elements", "inclusion", "projection")


def retract(lattice, table):
    """The Retract of the idempotent isotone value table: its fixed points
    in index order, with the sublattice_on cache.  They are a lattice by
    theorem (see Retract), so the restriction is not proved one: the table
    is trusted, and sublattice_on proves the same element set when it
    first reads it."""
    elems = tuple([a for a, p in enumerate(table) if p == a])
    sub = _restriction(lattice, elems, False)
    index = dict(zip(elems, range(len(elems))))
    projection = LatticeMap._unchecked(lattice, sub, tuple(map(index.__getitem__, table)))
    return Retract(sub, elems, LatticeMap._unchecked(sub, lattice, elems), projection)


def sublattice_on(lattice, elems):
    """Restrict the order to the set elems, taken in index order (the
    restricted order must be a lattice); built once per (lattice, element
    set)."""
    return _restriction(lattice, elems, True)


def _restriction(lattice, elems, prove):
    """The order restricted to the set elems, in index order, as a lattice
    with its bounds, kept per element set in the cache that sublattice_on
    and retract share.  Proved a lattice when prove is true, on the first
    such call for the element set."""
    mask = 0
    for e in elems:
        mask |= 1 << e
    cache = lattice._sublattices
    entry = cache.get(mask)
    if entry is None:
        # A restriction of an order is an order: its up- and down-sets are
        # the lattice's, with the bits of elems moved to their positions.
        poset = lattice.poset
        elems = [e for e in lattice.elements() if mask >> e & 1]
        moved = {1 << b: 1 << i for i, b in enumerate(elems)}

        def compact(row):
            out, row = 0, row & mask
            while row:
                low = row & -row
                out |= moved[low]
                row ^= low
            return out

        up = [compact(poset.up[a]) for a in elems]
        down = [compact(poset.down[a]) for a in elems]
        labels = tuple(lattice.labels[e] for e in elems)
        restricted = _proved_poset(up, down, labels)
        if prove:
            sub = lattice_from_poset(restricted)
        else:
            sub = FiniteLattice(restricted, *_bounds(restricted))
        cache[mask] = (sub, prove)
        return sub
    sub, proved = entry
    if prove and not proved:
        # Raises NotALattice as a build of the same order would.
        lattice_from_poset(sub.poset)
        cache[mask] = (sub, True)
    return sub


def lower_interval(lattice, a):
    """The interval [0, a] of lattice, the Retract of x |-> x /\\ a; built
    once per (lattice, a)."""
    cache = lattice._intervals
    if a in cache:
        return cache[a]
    # x /\ a is the element whose down-set is down[x] & down[a].
    down, by_down = lattice.poset.down, lattice.down_index
    cache[a] = interval = retract(lattice, tuple(by_down[row & down[a]] for row in down))
    return interval


class Product(Frozen):
    """A direct product: elements are coordinate tuples, and the sections
    pad the other factors with 0, or with 1."""

    def __init__(self, lattice, factors, elements, projections, bottom_sections, top_sections):
        self.__dict__.update(lattice=lattice, factors=factors, elements=elements,
                             projections=projections, bottom_sections=bottom_sections,
                             top_sections=top_sections)


def direct_product(factors):
    if not factors:
        raise ShapeMismatch("need at least one factor")
    total = 1
    for f in factors:
        total *= f.size
    _check_carrier("product", total)
    elems = tuple(itertools.product(*[range(f.size) for f in factors]))
    index = {e: i for i, e in enumerate(elems)}
    # e covers what one coordinate moving down to a lower cover in its
    # factor gives, and nothing else.
    lower = [dict(f.lower_covers) for f in factors]
    pairs = [
        (index[e[:k] + (y,) + e[k + 1:]], i)
        for i, e in enumerate(elems)
        for k, x in enumerate(e)
        for y in lower[k][x]
    ]
    if len(factors) == 1:
        labels = tuple(factors[0].labels[e[0]] for e in elems)
    else:
        labels = tuple(
            "(%s)" % ",".join(f.labels[x] for f, x in zip(factors, e)) for e in elems
        )
    # A product of lattices is a lattice, bounded coordinatewise.
    bottom, top = index[tuple(f.bottom for f in factors)], index[tuple(f.top for f in factors)]
    lattice = FiniteLattice(build_poset(total, pairs, labels), bottom, top)
    projections = []
    bottom_sections = []
    top_sections = []
    for k, f in enumerate(factors):
        projections.append(LatticeMap(lattice, f, tuple(e[k] for e in elems)))
        lo = []
        hi = []
        for b in f.elements():
            lo.append(index[tuple(b if i == k else g.bottom for i, g in enumerate(factors))])
            hi.append(index[tuple(b if i == k else g.top for i, g in enumerate(factors))])
        bottom_sections.append(LatticeMap(f, lattice, tuple(lo)))
        top_sections.append(LatticeMap(f, lattice, tuple(hi)))
    return Product(
        lattice,
        tuple(factors),
        elems,
        tuple(projections),
        tuple(bottom_sections),
        tuple(top_sections),
    )


class HorizontalSum(Frozen):
    """A horizontal sum: the inclusions keep interiors and share the bounds,
    and the collapses send the foreign interiors to 1, or to 0."""

    def __init__(self, lattice, factors, inclusions, top_collapses, bottom_collapses):
        self.__dict__.update(lattice=lattice, factors=factors, inclusions=inclusions,
                             top_collapses=top_collapses, bottom_collapses=bottom_collapses)


def horizontal_sum(factors):
    """Disjoint union of interiors with shared bottom and top."""
    for f in factors:
        if f.size < 2:
            raise FactorTooSmall("horizontal sum factor needs >= 2 elements")
    interiors = [
        [e for e in f.elements() if e not in (f.bottom, f.top)] for f in factors
    ]
    total = 2 + sum(len(i) for i in interiors)
    _check_carrier("sum", total)
    # Index 0 is the shared bottom, last index the shared top.
    labels = ["0"]
    where = {}  # (factor, element) -> sum index
    for k, f in enumerate(factors):
        for e in interiors[k]:
            where[(k, e)] = len(labels)
            labels.append("L%d:%s" % (k + 1, f.labels[e]))
    top = len(labels)
    labels.append("1")
    n = top + 1
    incs = [
        tuple(0 if e == f.bottom else top if e == f.top else where[(k, e)] for e in f.elements())
        for k, f in enumerate(factors)
    ]
    # The covers of the sum are the factors' covers, carried by the
    # inclusions; (0, top) orders the bounds when there is no factor.  Two
    # interior elements of different factors have join 1 and meet 0, so the
    # sum is a lattice.
    pairs = [(0, top)] + [
        (inc[a], inc[b]) for f, inc in zip(factors, incs)
        for b, lower in f.lower_covers for a in lower
    ]
    lattice = FiniteLattice(build_poset(n, pairs, labels), 0, top)
    inclusions = []
    top_collapses = []
    bottom_collapses = []
    for f, inc in zip(factors, incs):
        inclusions.append(LatticeMap(f, lattice, inc))
        back = {v: e for e, v in zip(f.elements(), inc)}.get
        top_collapses.append(LatticeMap(lattice, f, tuple(back(x, f.top) for x in range(n))))
        bottom_collapses.append(LatticeMap(lattice, f, tuple(back(x, f.bottom) for x in range(n))))
    return HorizontalSum(
        lattice,
        tuple(factors),
        tuple(inclusions),
        tuple(top_collapses),
        tuple(bottom_collapses),
    )


def upper_extension(lattice):
    """Adjoin a new top strictly above the old one; built once per lattice."""
    return lattice._upper_extension


def lattice_of_sets(family):
    """Lattice of a family of sets ordered by inclusion."""
    sets = set(map(frozenset, family))
    _check_carrier("lattice of sets", len(sets))
    sets = sorted(sets, key=lambda s: (len(s), sorted(s)))
    # Inclusion is an order.  A proper subset is smaller, so it comes first.
    up = [0] * len(sets)
    down = [0] * len(sets)
    for i, a in enumerate(sets):
        for j in range(i, len(sets)):
            if a <= sets[j]:
                up[i] |= 1 << j
                down[j] |= 1 << i
    labels = tuple("{%s}" % ",".join(map(str, sorted(s))) for s in sets)
    return lattice_from_poset(_proved_poset(up, down, labels)), sets


def random_moore_lattice(seed, n_points, n_generators):
    """Deterministic random Moore family on n_points, as a lattice of closed sets."""
    if n_points > MAX_POWER_BASE:
        raise SizeLimit("%d points exceeds bound %d" % (n_points, MAX_POWER_BASE))
    rng = random.Random(seed)
    generators = [
        frozenset(p for p in range(n_points) if rng.random() < 0.5) for _ in range(n_generators)
    ]
    lattice, _ = lattice_of_sets(intersection_closure(range(n_points), generators))
    return lattice


def intersection_closure(universe, generators):
    """The Moore family of the generators: the universe and every
    intersection of generators, closing under one generator at a time."""
    family = {frozenset(universe)}
    for g in generators:
        family |= {s & g for s in family}
    return family
