"""State-property systems over atomistic lattices: atom-set maps, the center
and classical direct-product decomposition, observable spectrum splitting,
causal relations with their weak meet morphisms, and evolution adjoints."""

from __future__ import annotations

from .closure import is_boolean
from .core import Frozen, LatticeMap, compared_by, direct_product, lower_interval, sublattice_on
from .errors import (
    NotAtomistic,
    NotBalancedAtZero,
    NotBoolean,
    NotCOLattMorphism,
    NotFullyIsotone,
    NotMeetStable,
    NotWeakMeet,
    ValidationError,
)
from .maps import _lowest, left_adjoint, preservation_profile, right_adjoint
from .weak import WeakMeetMap


class StatePropertySystem(Frozen):
    """Atomistic ortholattice of properties (an OrthoLattice) with its
    atoms as states, in carrier order."""

    def __init__(self, properties, states):
        self.__dict__.update(properties=properties, states=states)

    def atom_support(self, a):
        """The set of states actualizing property a."""
        return frozenset(self.states[i] for i in self.properties.lattice.atom_sets[a])


def build_system(ortho_lattice):
    lattice = ortho_lattice.lattice
    if not lattice.is_atomistic():
        raise NotAtomistic("property lattice must be atomistic")
    return StatePropertySystem(ortho_lattice, tuple(lattice.atoms()))


def center(ortho_lattice):
    """Elements z with every atom below z or below z'."""
    L = ortho_lattice.lattice
    if not L.is_atomistic():
        raise NotAtomistic("center computation requires an atomistic carrier")
    sets = L.atom_sets
    every = sets[L.top]
    return [z for z in L.elements() if sets[z] | sets[ortho_lattice.comp(z)] == every]


def center_sublattice(ortho_lattice):
    elems = center(ortho_lattice)
    L = ortho_lattice.lattice
    # Closed under complement, join and meet (the state-center law checks it).
    sub = sublattice_on(L, elems)
    return sub, elems


class Decomposition(Frozen):
    """A lattice split over its center: factor_tops are the center atoms in
    carrier order, and iso maps the carrier onto the product."""

    def __init__(self, product, factors, factor_tops, iso):
        self.__dict__.update(product=product, factors=factors, factor_tops=factor_tops, iso=iso)


def classical_decomposition(ortho_lattice):
    """Split the lattice over the atoms of its center into lower intervals."""
    L = ortho_lattice.lattice
    sub, elems = center_sublattice(ortho_lattice)
    # Atoms of the center, read inside the center sublattice.
    center_atoms = [elems[i] for i in sub.atoms()]
    if not center_atoms:
        # One-element lattice: a single trivial factor.
        center_atoms = [L.top]
    intervals = [lower_interval(L, alpha) for alpha in center_atoms]
    factors = [iv.lattice for iv in intervals]
    product = direct_product(factors)
    tuple_index = {t: i for i, t in enumerate(product.elements)}
    values = []
    for a in L.elements():
        # Coordinate k is meet(a, alpha_k) as an element of the k-th interval.
        values.append(tuple_index[tuple(iv.projection.values[a] for iv in intervals)])
    iso = LatticeMap(L, product.lattice, tuple(values))
    if len(set(iso.values)) != L.size or product.lattice.size != L.size:
        raise ValidationError("decomposition map is not a bijection")
    return Decomposition(product.lattice, tuple(factors), tuple(center_atoms), iso)


class SpectrumReport(Frozen):
    """The split of an outcome lattice: null_part N is the largest property
    reported impossible, discrete_part D the join of the sharp outcomes,
    and continuous_part C what remains, zero on finite carriers."""

    def __init__(
        self, null_part, discrete_part, continuous_part, discrete_interval, continuous_interval
    ):
        self.__dict__.update(null_part=null_part, discrete_part=discrete_part,
                             continuous_part=continuous_part, discrete_interval=discrete_interval,
                             continuous_interval=continuous_interval)


def observable_spectrum(m, dom_ortho, cod_ortho):
    """Split the outcome lattice of a question-valued observable.

    m maps a Boolean outcome lattice into the property lattice and must
    preserve joins, meets and the orthocomplement.
    """
    B = m.dom
    if not is_boolean(dom_ortho.lattice) or dom_ortho.lattice != B:
        raise NotBoolean("observable domain must be a Boolean ortholattice")
    profile = preservation_profile(m)
    if not (profile.joins and profile.meets):
        raise NotCOLattMorphism("observable must preserve joins and meets")
    for a in B.elements():
        if m(dom_ortho.comp(a)) != cod_ortho.comp(m(a)):
            raise NotCOLattMorphism("observable does not preserve complement", witness=a)
    adj = right_adjoint(m)
    null_part = adj(m.cod.bottom)
    # B is Boolean, so atomistic: the join of the atoms below null' is null'.
    discrete = dom_ortho.comp(null_part)
    continuous = B.meet2(dom_ortho.comp(discrete), discrete)
    # A finite interval with no atoms is trivial, so the leftover part must
    # vanish; anything else means the input does not model a finite system.
    if continuous != B.bottom:
        raise ValidationError(
            "nonzero residual spectrum part on a finite carrier", witness=continuous
        )
    disc_iv = lower_interval(B, discrete)
    cont_iv = lower_interval(B, continuous)
    return SpectrumReport(null_part, discrete, continuous, disc_iv, cont_iv)


class CausalRelation(Frozen):
    """Relation telling which earlier properties guarantee later ones:
    pairs is a frozenset of (a1, a2)."""

    def __init__(self, source, target, pairs):
        self.__dict__.update(source=source, target=target, pairs=pairs)

    __eq__, __hash__ = compared_by("source", "target", "pairs")


def validate_causal(relation):
    """Check that the relation is fully isotone (it holds every pair below
    one of its pairs on the left and above it on the right) and stable
    under meets on the right.

    Decided on rows: with rows[a1] the targets of a1 as a mask, the relation
    is fully isotone iff each row is an up-set and the rows shrink along the
    source's covers, and an up-set holds the meet of its elements iff it is
    principal.  NotFullyIsotone names a pair and a dominated pair missing
    beside it in its row or in the row of a lower cover; NotMeetStable names
    the first row, (a1, its targets), that is an up-set but not principal.
    """
    src, tgt, pairs = relation.source, relation.target, relation.pairs
    rows = [0] * src.size
    for a1, a2 in pairs:
        rows[a1] |= 1 << a2
    principal = tgt.dual.down_index  # the principal up-sets of tgt, as masks
    up = tgt.poset.up
    unstable = None
    for a1, row in enumerate(rows):
        if row and row not in principal:
            targets = [a2 for a2 in tgt.elements() if row >> a2 & 1]
            for a2 in targets:
                missing = up[a2] & ~row
                if missing:
                    raise NotFullyIsotone(
                        "relation misses a dominated pair",
                        witness=((a1, a2), (a1, _lowest(missing))),
                    )
            if unstable is None:
                unstable = (a1, targets)
    for b, lower in src.lower_covers:
        for c in lower:
            missing = rows[b] & ~rows[c]
            if missing:
                a2 = _lowest(missing)
                raise NotFullyIsotone(
                    "relation misses a dominated pair", witness=((b, a2), (c, a2))
                )
    if unstable is not None:
        raise NotMeetStable("relation not stable under meets on the right", witness=unstable)
    return relation


def causal_closure(source, target, seed_pairs):
    """Smallest relation containing the seed pairs that supports the
    representation law; for generating test inputs, not for repairing
    user data.

    Besides the two validity rules, the closure adds joins on the left:
    without that a generated relation need not be recoverable from its
    weak meet morphism.
    """
    pairs = set(seed_pairs)
    changed = True
    while changed:
        changed = False
        for (a1, a2) in list(pairs):
            for x1 in source.elements():
                for x2 in target.elements():
                    if source.leq(x1, a1) and target.leq(a2, x2) and (x1, x2) not in pairs:
                        pairs.add((x1, x2))
                        changed = True
        for a1 in source.elements():
            targets = [a2 for a2 in target.elements() if (a1, a2) in pairs]
            if targets:
                m = target.meet(targets)
                if (a1, m) not in pairs:
                    pairs.add((a1, m))
                    changed = True
        for a2 in target.elements():
            sources = [a1 for a1 in source.elements() if (a1, a2) in pairs]
            # The empty join makes the bottom a cause of everything.
            j = source.join(sources)
            if (j, a2) not in pairs:
                pairs.add((j, a2))
                changed = True
    return validate_causal(CausalRelation(source, target, frozenset(pairs)))


def causal_to_map(relation):
    """g sending a later property to the largest earlier property forcing it.

    The relation is a1 <= g(a2) iff the causes of each a2 are the down-set
    of an element, which is then g(a2).  The causes in a valid relation form
    a down-set, so where they are not principal their join is not a cause:
    the ValidationError names (that join, a2) for the first such a2.
    """
    validate_causal(relation)
    src, tgt = relation.source, relation.target
    causes = [0] * tgt.size
    for a1, a2 in relation.pairs:
        causes[a2] |= 1 << a1
    values = tuple(map(src.down_index.get, causes))
    if None in values:
        a2 = values.index(None)
        top = src.join([a1 for a1 in src.elements() if causes[a2] >> a1 & 1])
        raise ValidationError(
            "relation is not representable by its induced map", witness=(top, a2)
        )
    return WeakMeetMap(LatticeMap._unchecked(tgt, src, values))


def map_to_causal(weak):
    """The relation a1 leads-to a2 iff a1 lies below g(a2)."""
    g = weak.map
    down = g.cod.poset.down
    pairs = frozenset(
        (a1, a2) for a2, v in enumerate(g.values) for a1 in g.cod.elements() if down[v] >> a1 & 1
    )
    return validate_causal(CausalRelation(g.cod, g.dom, pairs))


class EvolutionReport(Frozen):
    """backward is the given meet-direction map and forward its adjoint in
    the direction of time; atom_orthogonality lists the atom pairs (p, q)
    whose orthogonality forward does not keep (informational)."""

    def __init__(self, backward, forward, dense, atom_orthogonality):
        self.__dict__.update(backward=backward, forward=forward, dense=dense,
                             atom_orthogonality=atom_orthogonality)


def evolution_adjoint(phi, dom_ortho=None, cod_ortho=None):
    """Adjoint of a backward property map that fixes both bounds.

    phi must preserve non-empty meets and send bottom to bottom; if it also
    fixes the top it preserves all meets and has a genuine left adjoint,
    which is dense. Orthogonality of atom images is reported, not enforced.
    """
    if not isinstance(phi, WeakMeetMap):
        phi = WeakMeetMap(phi)
    g = phi.map
    if g(g.dom.bottom) != g.cod.bottom:
        raise NotBalancedAtZero("evolution map must send bottom to bottom")
    if g(g.dom.top) != g.cod.top:
        raise NotWeakMeet("evolution map must fix the top to admit a total adjoint")
    psi = left_adjoint(g)
    profile = preservation_profile(psi)
    dense = profile.dense
    failures = []
    if dom_ortho is not None and cod_ortho is not None:
        # psi runs from the codomain ortholattice back to the domain one.
        L_from, L_to = psi.dom, psi.cod
        for p in L_from.atoms():
            for q in L_from.atoms():
                if L_from.leq(p, cod_ortho.comp(q)):
                    ip, iq = psi(p), psi(q)
                    if ip != L_to.bottom and iq != L_to.bottom:
                        if not L_to.leq(ip, dom_ortho.comp(iq)):
                            failures.append((p, q))
    return EvolutionReport(g, psi, dense, tuple(failures))
