"""Lattices generated by the benchmark, with join and meet tables derived
from how each one was built and without calling latkit.

Every lattice is a list of labels plus join and meet tables over element
indices; the order is recovered as ``a <= b iff join[a][b] == b``.  These
tables are the oracle that the ``load`` workload compares latkit's parsed
lattices against, and the order the ``query`` workload checks answers in.
"""

from __future__ import annotations

import itertools


class Lattice:
    """Finite lattice given by its join and meet tables."""

    def __init__(self, join, meet):
        self.join = [list(row) for row in join]
        self.meet = [list(row) for row in meet]
        self.size = len(self.join)
        self.labels = ["v%d" % i for i in range(self.size)]
        self.bottom = next(a for a in range(self.size) if all(self.join[a][b] == b for b in range(self.size)))
        self.top = next(a for a in range(self.size) if all(self.join[b][a] == a for b in range(self.size)))

    def leq(self, a, b):
        return self.join[a][b] == b

    def join_all(self, elems):
        out = self.bottom
        for a in elems:
            out = self.join[out][a]
        return out

    def cover_pairs(self):
        """(a, b) with a < b and nothing strictly between, from bitmask rows."""
        n = self.size
        above = [sum(1 << b for b in range(n) if b != a and self.leq(a, b)) for a in range(n)]
        below = [sum(1 << a for a in range(n) if a != b and self.leq(a, b)) for b in range(n)]
        return [
            (a, b)
            for a in range(n)
            for b in range(n)
            if above[a] >> b & 1 and not above[a] & below[b]
        ]

    def permuted(self, perm):
        """The same lattice with element a renumbered perm[a]."""
        join = [[0] * self.size for _ in range(self.size)]
        meet = [[0] * self.size for _ in range(self.size)]
        for a in range(self.size):
            for b in range(self.size):
                join[perm[a]][perm[b]] = perm[self.join[a][b]]
                meet[perm[a]][perm[b]] = perm[self.meet[a][b]]
        return Lattice(join, meet)

    def downset(self, a):
        return [x for x in range(self.size) if self.leq(x, a)]

    def text(self, name):
        """The lattice as a latkit ``lattice`` block."""
        covers = " ".join("%s<%s" % (self.labels[a], self.labels[b]) for a, b in self.cover_pairs())
        lines = ["lattice %s" % name, "elements: %s" % " ".join(self.labels)]
        if covers:
            lines.append("covers: %s" % covers)
        return "\n".join(lines) + "\n"


def chain(n):
    """0 < 1 < ... < n-1: join is max, meet is min."""
    return Lattice(
        [[max(a, b) for b in range(n)] for a in range(n)],
        [[min(a, b) for b in range(n)] for a in range(n)],
    )


def moore(family):
    """Lattice of an intersection-closed family of sets (bitmasks) containing
    the universe: meet is intersection, join is the closure of the union."""
    sets = sorted(set(family), key=lambda s: (bin(s).count("1"), s))
    index = {s: i for i, s in enumerate(sets)}
    for a in sets:
        for b in sets:
            if a & b not in index:
                raise ValueError("family is not intersection closed")

    def closure(mask):
        # The closure is the intersection of the closed supersets; it is one
        # of them and lies inside all others, so it is the smallest one.
        return next(s for s in sets if mask & s == mask)

    join = [[index[closure(a | b)] for b in sets] for a in sets]
    meet = [[index[a & b] for b in sets] for a in sets]
    return Lattice(join, meet)


def boolean(n_atoms):
    """All subsets of n_atoms points."""
    return moore(range(1 << n_atoms))


def random_moore_family(rng, n_points, n_generators):
    """Intersection closure of random subsets of n_points, plus the universe,
    as a set of bitmasks (``moore`` turns it into a lattice)."""
    universe = (1 << n_points) - 1
    family = {universe}
    for _ in range(n_generators):
        family.add(rng.getrandbits(n_points))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(family), 2):
            if a & b not in family:
                family.add(a & b)
                changed = True
    return family


def product(factors):
    """Direct product, ordered componentwise; element tuples in
    lexicographic order."""
    elems = list(itertools.product(*[range(f.size) for f in factors]))
    index = {e: i for i, e in enumerate(elems)}

    def table(op):
        return [
            [index[tuple(op(f)[x][y] for f, x, y in zip(factors, a, b))] for b in elems]
            for a in elems
        ]

    return Lattice(table(lambda f: f.join), table(lambda f: f.meet))


def horizontal_sum(factors):
    """Interiors of the factors side by side under a shared bottom (index 0)
    and top (last index); interiors of different factors are incomparable."""
    where = []  # element index -> (factor, element) for interior elements
    for k, f in enumerate(factors):
        where += [(k, e) for e in range(f.size) if e not in (f.bottom, f.top)]
    n = len(where) + 2
    bottom, top = 0, n - 1
    index = {fe: i + 1 for i, fe in enumerate(where)}

    def lift(k, f, e):
        if e == f.bottom:
            return bottom
        if e == f.top:
            return top
        return index[(k, e)]

    def table(op, absorbing, neutral):
        rows = []
        for a in range(n):
            row = []
            for b in range(n):
                if a == neutral or b == neutral:
                    row.append(b if a == neutral else a)
                elif a == absorbing or b == absorbing:
                    row.append(absorbing)
                else:
                    (ka, ea), (kb, eb) = where[a - 1], where[b - 1]
                    f = factors[ka]
                    row.append(lift(ka, f, op(f)[ea][eb]) if ka == kb else absorbing)
            rows.append(row)
        return rows

    return Lattice(
        table(lambda f: f.join, top, bottom), table(lambda f: f.meet, bottom, top)
    )


def profile(lat, values):
    """The flags ``latkit check --json`` reports for a total map lat -> lat."""
    n = range(lat.size)
    joins = all(values[lat.join[a][b]] == lat.join[values[a]][values[b]] for a in n for b in n)
    meets = all(values[lat.meet[a][b]] == lat.meet[values[a]][values[b]] for a in n for b in n)
    return {
        "joins": joins and values[lat.bottom] == lat.bottom,
        "meets": meets and values[lat.top] == lat.top,
        "balanced": values[lat.top] == lat.top,
        "dense": all(values[a] != lat.bottom for a in n if a != lat.bottom),
    }


def from_order(up):
    """Join and meet tables of a finite lattice given as bitmask rows
    (bit b of up[a] set iff a <= b), by searching for least upper and greatest
    lower bounds."""
    n = len(up)
    down = [sum(1 << a for a in range(n) if up[a] >> b & 1) for b in range(n)]

    def least(mask):
        return next(c for c in range(n) if mask >> c & 1 and up[c] & mask == mask)

    def greatest(mask):
        return next(c for c in range(n) if mask >> c & 1 and down[c] & mask == mask)

    join = [[least(up[a] & up[b]) for b in range(n)] for a in range(n)]
    meet = [[greatest(down[a] & down[b]) for b in range(n)] for a in range(n)]
    return Lattice(join, meet)


def brute_force_homs(dom, cod, cls):
    """Every value table dom -> cod of the given class, by trying all
    cod.size ** dom.size tables; sorted lexicographically."""
    d = range(dom.size)
    out = []
    for values in itertools.product(range(cod.size), repeat=dom.size):
        if cls == "isotone":
            ok = all(cod.leq(values[a], values[b]) for a in d for b in d if dom.leq(a, b))
        elif cls == "join":
            ok = values[dom.bottom] == cod.bottom and all(
                values[dom.join[a][b]] == cod.join[values[a]][values[b]] for a in d for b in d
            )
        elif cls == "meet":
            ok = values[dom.top] == cod.top and all(
                values[dom.meet[a][b]] == cod.meet[values[a]][values[b]] for a in d for b in d
            )
        else:
            raise ValueError("unknown class %r" % cls)
        if ok:
            out.append(list(values))
    return out


def galois(dom, cod, f, g):
    """f(a) <= b iff a <= g(b) for every a in dom and b in cod."""
    return all(
        cod.leq(f[a], b) == dom.leq(a, g[b]) for a in range(dom.size) for b in range(cod.size)
    )
