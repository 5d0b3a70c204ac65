"""Proposition sweep: every law the library promises, run over the shipped
corpus (or a user-supplied workspace) and reported one object at a time.

Each law is one row of ``LAWS``: a body, the pool of objects it runs on and
the pool's size bound.  ``run_suite`` walks the table in order."""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from . import closure, corpus, io, ortho, stateprop, transition, weak
from .core import Frozen, compared_by, direct_product, horizontal_sum, identity_map
from .errors import LatkitError, ParseError, ShapeMismatch
from .maps import (
    _adjoint_sets,
    _lowest,
    _order_sets,
    check_adjunction,
    classify_morphism,
    compose,
    hom_set,
    left_adjoint,
    pointwise_join,
    pointwise_meet,
    preservation_profile,
    right_adjoint,
    special_maps,
)


class Report(Frozen):
    """One law on one object: status is "pass", "fail", or "error" for an
    unexpected exception, and witness is None or a string."""

    def __init__(self, prop, object, status, witness=None, millis=0.0):
        self.__dict__.update(prop=prop, object=object, status=status, witness=witness,
                             millis=millis)

    __eq__, __hash__ = compared_by("prop", "object", "status", "witness", "millis")

    def to_dict(self):
        out = {
            "prop": self.prop,
            "object": self.object,
            "status": self.status,
            "millis": round(self.millis, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@functools.lru_cache(maxsize=4096)
def _homs(dom, cod, cls):
    return tuple(hom_set(dom, cod, cls))


def _collect(checks, reports):
    for prop, obj, fn in checks:
        start = time.perf_counter()
        try:
            witness = fn()
            status = "pass" if witness is None else "fail"
            witness = None if witness is None else str(witness)
        except LatkitError as exc:
            status, witness = "fail", "%s: %s" % (type(exc).__name__, exc)
        except Exception as exc:
            status, witness = "error", "%s: %s" % (type(exc).__name__, exc)
        millis = (time.perf_counter() - start) * 1000.0
        reports.append(Report(prop, obj, status, witness, millis))


def default_bundle():
    return {
        "lattices": corpus.named_lattices(),
        "orthos": corpus.ortho_lattices(),
        "cspaces": corpus.closure_spaces(),
        "ospaces": corpus.orthospaces(),
    }


class Law(Frozen):
    """One law on one pool of objects.

    pool(bundle, bound) yields (label, objects); bound is the law's own
    lattice-size bound, or None for a pool bounded by a point count.  body
    takes the objects and returns None or a witness; a seeded body also
    takes rng, one random.Random(seed) shared by all the law's checks."""

    def __init__(self, prop, pool, bound, body, seeded=False):
        self.__dict__.update(prop=prop, pool=pool, bound=bound, body=body, seeded=seeded)

    def checks(self, bundle, max_size=None, seed=0):
        """A (prop, label, zero-argument check) per object tuple of the pool."""
        bound = self.bound
        if bound is not None and max_size is not None:
            # max_size only lowers the law's own lattice-size bound.
            bound = min(bound, max_size)
        extra = {"rng": random.Random(seed)} if self.seeded else {}
        for label, objects in self.pool(bundle, bound):
            yield self.prop, label, functools.partial(self.body, *objects, **extra)


# ------------------------------------------------------------------ pools
# An entry source maps (bundle, bound) to a list of (name, object) pairs;
# _tuples turns one into a pool.


def _lattices(bundle, bound):
    return [(name, lat) for name, lat in bundle["lattices"].items() if lat.size <= bound]


def _ortho_pool(bundle, bound):
    return [(name, ol) for name, ol in bundle["orthos"].items() if ol.lattice.size <= bound]


def _atomistic(bundle, bound):
    return [(name, ol) for name, ol in _ortho_pool(bundle, bound) if ol.lattice.is_atomistic()]


def _where(entries, keep):
    return lambda bundle, bound: [(n, x) for n, x in entries(bundle, bound) if keep(x)]


def _first(count, entries):
    return lambda bundle, bound: entries(bundle, bound)[:count]


def _named(kind):
    return lambda bundle, bound: list(bundle[kind].items())


_simple_spaces = _where(_named("cspaces"), lambda s: s.size <= 3 and s.is_simple())
_booleans = _where(_lattices, closure.is_boolean)


def _tuples(entries, arity=2, label=None, keep=None):
    """The pool of arity-tuples from entries, in product order; label formats
    the tuple's names, "->" between them unless given."""
    label = label or "->".join(["{}"] * arity)

    def pool(bundle, bound):
        for chosen in itertools.product(entries(bundle, bound), repeat=arity):
            names, objects = zip(*chosen)
            if keep is None or keep(*objects):
                yield label.format(*names), objects

    return pool


def _consecutive(entries):
    def pool(bundle, bound):
        chosen = entries(bundle, bound)
        for (name1, l1), (name2, l2) in zip(chosen, chosen[1:]):
            yield "%s,%s" % (name1, name2), (l1, l2)

    return pool


_TWO = corpus.chain(2)

# ------------------------------------------------------------- adjunctions


def _adjoint_laws(l1, l2):
    """Every join map has a verified meet-preserving adjoint and the two
    pseudoinverse identities hold."""
    for f in _homs(l1, l2, "join"):
        g = right_adjoint(f)
        if not check_adjunction(f, g):
            return "adjunction fails for %s" % (f.values,)
        if not preservation_profile(g).meets:
            return "adjoint not meet preserving for %s" % (f.values,)
        if compose(compose(f, g), f) != f:
            return "f o f* o f != f for %s" % (f.values,)
        if compose(compose(g, f), g) != g:
            return "f* o f o f* != f* for %s" % (f.values,)
    return None


def _adjoint_unique(l1, l2):
    """Each join map has exactly one adjoint among the meet maps back, and
    the two oracles of _adjoint_sets agree on every meet map."""
    meets = _homs(l2, l1, "meet")
    for f, adjoints, admitted in _adjoint_sets(l1, l2):
        if adjoints != admitted:
            g = meets[_lowest(adjoints ^ admitted)]
            return "adjunction oracles disagree for %s, %s" % (f.values, g.values)
        if adjoints.bit_count() != 1:
            return "%d adjoint candidates for %s" % (adjoints.bit_count(), f.values)
    return None


def _duality(l1, l2):
    """f* has f as its left adjoint, and f <= h iff h* <= f*."""
    joins = _homs(l1, l2, "join")
    stars = []
    for f in joins:
        g = right_adjoint(f)
        if left_adjoint(g) != f:
            return "double dual differs for %s" % (f.values,)
        stars.append(g.values)
    for f, (over, under) in zip(joins, _order_sets(l1, l2, stars)):
        if over != under:
            h = joins[_lowest(over ^ under)]
            return "antitonicity fails for %s vs %s" % (f.values, h.values)
    return None


def _contravariance(l1, l2, l3):
    firsts = _homs(l1, l2, "join")[:8]
    seconds = _homs(l2, l3, "join")[:8]
    for f1 in firsts:
        for f2 in seconds:
            lhs = right_adjoint(compose(f2, f1))
            rhs = compose(right_adjoint(f1), right_adjoint(f2))
            if lhs != rhs:
                return "composite adjoint mismatch"
    return None


def _balanced_dense(l1, l2):
    for f in _homs(l1, l2, "join"):
        g = right_adjoint(f)
        pf, pg = preservation_profile(f), preservation_profile(g)
        if pf.balanced != pg.top_reflecting:
            return "balanced/dense mismatch for %s" % (f.values,)
        if pf.dense != pg.bottom_fixed:
            return "dense/balanced mismatch for %s" % (f.values,)
    return None


def _pointwise_families(l1, l2, rng):
    joins = list(_homs(l1, l2, "join"))
    if not joins:
        return None
    for _ in range(6):
        family = [rng.choice(joins) for _ in range(2)]
        top = pointwise_join(family)
        bottom = pointwise_meet([right_adjoint(f) for f in family])
        if not check_adjunction(top, bottom):
            return "family join not adjoint to family meet"
        backs = list(_homs(l2, l1, "join"))
        if backs:
            other = rng.choice(backs)
            if compose(other, top) != pointwise_join(
                [compose(other, f) for f in family]
            ):
                return "left distributivity fails"
            if compose(top, other) != pointwise_join(
                [compose(f, other) for f in family]
            ):
                return "right distributivity fails"
    return None


def _special_maps(lat):
    for a in lat.elements():
        sm = special_maps(lat, a, _TWO)
        if not check_adjunction(sm.point, sm.above_test):
            return "point/above-test not adjoint at %d" % a
        if not check_adjunction(sm.below_test, sm.copoint):
            return "below-test/copoint not adjoint at %d" % a
        if not check_adjunction(sm.inclusion, sm.projection):
            return "inclusion/projection not adjoint at %d" % a
        if not check_adjunction(sm.capped_projection, sm.capped_inclusion):
            return "capped pair not adjoint at %d" % a
    # Point maps exhaust the join Hom-set from the two-element lattice.
    if len(_homs(_TWO, lat, "join")) != lat.size:
        return "point maps do not exhaust the Hom-set"
    return None


def _classification(l1, l2):
    for f in _homs(l1, l2, "join"):
        flags = classify_morphism(f, "join")
        g = right_adjoint(f)
        g_injective = len(set(g.values)) == g.dom.size
        if not (flags.epic == flags.surjective == g_injective):
            return "epi criteria disagree for %s" % (f.values,)
        g_surjective = len(set(g.values)) == g.cod.size
        if not (flags.monic == flags.injective == g_surjective):
            return "mono criteria disagree for %s" % (f.values,)
    return None


def _product_sum(l1, l2):
    prod = direct_product([l1, l2])
    for k in range(2):
        if not check_adjunction(prod.bottom_sections[k], prod.projections[k]):
            return "bottom section not left adjoint to projection"
        if not check_adjunction(prod.projections[k], prod.top_sections[k]):
            return "projection not left adjoint to top section"
    if l1.size < 2 or l2.size < 2:
        return None
    hsum = horizontal_sum([l1, l2])
    for k in range(2):
        if not check_adjunction(hsum.top_collapses[k], hsum.inclusions[k]):
            return "top collapse not left adjoint to inclusion"
        if not check_adjunction(hsum.inclusions[k], hsum.bottom_collapses[k]):
            return "inclusion not left adjoint to bottom collapse"
    return None


# ------------------------------------------------------------------- ortho


def _conjugation(ol):
    lat = ol.lattice
    for alpha in _homs(lat, lat, "isotone"):
        twice = ortho.conjugate(ortho.conjugate(alpha, ol, ol), ol, ol)
        if twice != alpha:
            return "conjugation not involutive for %s" % (alpha.values,)
    for f in _homs(lat, lat, "join"):
        conj = ortho.conjugate(f, ol, ol)
        if not preservation_profile(conj).meets:
            return "conjugate of a join map not meet preserving"
    return None


def _dagger(ol):
    lat = ol.lattice
    joins = _homs(lat, lat, "join")
    for f in joins:
        fd = ortho.dagger(f, ol, ol)
        if ortho.dagger(fd, ol, ol) != f:
            return "dagger not involutive for %s" % (f.values,)
        zero_left = all(
            compose(fd, f)(a) == lat.bottom for a in lat.elements()
        )
        zero_f = all(f(a) == lat.bottom for a in lat.elements())
        if zero_left != zero_f:
            return "zero law fails for %s" % (f.values,)
    for f in joins[:10]:
        for g in joins[:10]:
            lhs = ortho.dagger(compose(g, f), ol, ol)
            rhs = compose(ortho.dagger(f, ol, ol), ortho.dagger(g, ol, ol))
            if lhs != rhs:
                return "dagger not antihomomorphic"
    return None


def _isometries(ol):
    lat = ol.lattice
    for u in _homs(lat, lat, "join"):
        via_order = all(
            lat.leq(a, ol.comp(b)) == lat.leq(u(a), ol.comp(u(b)))
            for a in lat.elements()
            for b in lat.elements()
        )
        if ortho.is_isometry(u, ol, ol) != via_order:
            return "isometry oracles disagree for %s" % (u.values,)
    return None


def _ortho_morphisms(ol):
    lat = ol.lattice
    for h in _homs(lat, lat, "join"):
        profile = preservation_profile(h)
        if not profile.meets:
            continue
        if any(h(ol.comp(a)) != ol.comp(h(a)) for a in lat.elements()):
            continue
        witness = ortho.colatt_check(h, ol, ol)
        if witness:
            return witness
    return None


def _top_witness(ol):
    """First a with a \\/ a' != 1; validate_ortho derives this law but does not check it."""
    lat = ol.lattice
    for a in lat.elements():
        if lat.join2(a, ol.comp(a)) != lat.top:
            return "a \\/ a' is not top at %s" % lat.labels[a]
    return None


def _orthospace_of_lattice(ol):
    space, _ = ortho.orthospace_from_lattice(ol)
    rebuilt, sets = ortho.biortho_lattice(space)
    witness = _top_witness(ol) or _top_witness(rebuilt)
    if witness:
        return witness
    if rebuilt.size != ol.size:
        return "rebuilt carrier has %d elements" % rebuilt.size
    if ortho.atom_isomorphism(ol, rebuilt, sets) is None:
        return "atom map is not an ortho isomorphism"
    return None


def _lattice_of_orthospace(space):
    rebuilt_lat, _ = ortho.biortho_lattice(space)
    witness = _top_witness(rebuilt_lat)
    if witness:
        return witness
    back, _ = ortho.orthospace_from_lattice(rebuilt_lat)
    if back.size != space.size:
        return "point counts differ"
    return None


# ---------------------------------------------------------------- weak maps


def _weak_roundtrips(l1, l2):
    for wm in weak.weak_meet_maps(l2, l1):
        partial, _ = weak.restrict_codomain(wm)
        extended, upper = weak.pointed_extend(wm)
        if weak.partial_to_upper(partial).map != upper.map:
            return "partial and pointed routes disagree"
        partial_back = weak.upper_to_partial(upper)
        if partial_back != partial:
            return "upper to partial roundtrip fails"
        if weak.partial_to_upper(partial_back).map != upper.map:
            return "pointed roundtrip fails"
        if right_adjoint(upper.map) != extended:
            return "pointed extension is not the adjoint"
    return None


def _partial_composition(l1, l2, l3):
    firsts = [weak.restrict_codomain(wm)[0] for wm in weak.weak_meet_maps(l2, l1)[:6]]
    seconds = [weak.restrict_codomain(wm)[0] for wm in weak.weak_meet_maps(l3, l2)[:6]]
    for p1 in firsts:
        for p2 in seconds:
            direct = weak.compose_partial(p2, p1)
            upper_route = compose(
                weak.partial_to_upper(p2).map,
                weak.partial_to_upper(p1).map,
            )
            via_upper = weak.upper_to_partial(
                weak.UpperMap(l1, l3, upper_route)
            )
            if direct != via_upper:
                return "two composition routes disagree"
    return None


# ----------------------------------------------------------------- closure


def _closure_monad(l1, l2):
    for f in _homs(l1, l2, "join"):
        g = right_adjoint(f)
        operator = closure.monad_from_adjunction(f, g)
        closure.validate_closure(l1, operator.table)
        fixed = closure.fixed_points(operator)
        elems, sub = fixed.elements, fixed.lattice
        if sorted(elems) != g.image():
            return "fixed points differ from the image"
        # Meets are inherited; joins are closures of ambient joins.  Each
        # pair reads its rows of the four tables, with no call per pair.
        closed = operator.table
        rows = zip(sub.meet_table, sub.join_table, map(l1.meet_table.__getitem__, elems),
                   map(l1.join_table.__getitem__, elems))
        for meets, joins, ambient_meets, ambient_joins in rows:
            for j, b in enumerate(elems):
                if elems[meets[j]] != ambient_meets[b]:
                    return "fixed-point meet differs for %s" % (f.values,)
                if elems[joins[j]] != closed[ambient_joins[b]]:
                    return "fixed-point join differs for %s" % (f.values,)
    return None


def _atomistic_roundtrip(lat):
    return closure.lattice_roundtrip(lat)[0]


def _continuous_maps(s1, s2):
    """Every continuous partial map s1 -> s2, by kernel mask, then by images.
    When the empty set is closed in s2, continuity there makes the kernel
    closed, so only closed kernels are walked."""
    out = []
    points = list(s1.points())
    closed_kernels = 0 in s2.position
    for kernel_mask in range(1 << s1.size):
        if closed_kernels and kernel_mask not in s1.position:
            continue
        kernel = [p for p in points if kernel_mask >> p & 1]
        free = [p for p in points if not kernel_mask >> p & 1]
        for choice in itertools.product(range(s2.size), repeat=len(free)):
            alpha = closure.partial_map(s1, s2, kernel, dict(zip(free, choice)))
            if closure.check_continuity(alpha)[0]:
                out.append(alpha)
    return out


def _continuity_composition(s1, s2, s3):
    firsts = _continuous_maps(s1, s2)
    seconds = _continuous_maps(s2, s3)
    for a1 in firsts:
        for a2 in seconds:
            composite = closure.compose_continuous(a2, a1)
            expected = a1.kernel_mask | a1.preimage_mask(a2.kernel_mask)
            if composite.kernel_mask != expected:
                return "kernel formula fails"
    return None


def _space_functors(s1, s2):
    for alpha in _continuous_maps(s1, s2):
        forward, backward = closure.map_to_join_map(alpha)
        if not check_adjunction(forward, backward):
            return "functor image not adjoint"
        back = closure.join_map_to_partial(forward)
        if back.kernel_mask != alpha.kernel_mask:
            return "kernel not recovered"
    return None


def _point_counts(bundle, bound):
    return [(n, n) for n in range(1, 4)]


def _power_functors(n1, n2):
    for mapping in itertools.product(range(n2), repeat=n1):
        direct, inverse = closure.power_functors(mapping, n1, n2)
        if not check_adjunction(direct, inverse):
            return "direct image not adjoint to preimage for %s" % (mapping,)
        injective = len(set(mapping)) == n1
        surjective = len(set(mapping)) == n2
        if injective != (
            compose(inverse, direct) == identity_map(direct.dom)
        ):
            return "injectivity criterion fails for %s" % (mapping,)
        if surjective != (
            compose(direct, inverse) == identity_map(inverse.dom)
        ):
            return "surjectivity criterion fails for %s" % (mapping,)
    return None


def _atom_maps(lat):
    mu, rho = closure.atom_set_maps(lat)
    if compose(rho, mu) != identity_map(lat):
        return "atom map then join is not the identity"
    if compose(mu, rho) != identity_map(mu.cod):
        return "join then atom map is not the identity"
    return None


def _boolean_duality(l1, l2):
    for f in _homs(l1, l2, "join"):
        report = closure.boolean_duality(f, right_adjoint(f))
        if not report.agree:
            return "atom criterion disagrees with ortho criterion"
    return None


# -------------------------------------------------------------- transition


def _transition_resolution(lat):
    res = transition.resolution(lat)
    if not check_adjunction(res.collapse, res.expand):
        return "join not adjoint to the interval map"
    for a in lat.elements():
        if res.collapse(res.expand(a)) != a:
            return "join of the interval below %s differs from it" % lat.labels[a]
    for i in range(res.power_lattice.size):
        subset = res.sets[i]
        if not subset <= res.sets[res.expand(res.collapse(i))]:
            return "unit inequality fails"
    return None


def _transition_counts(lat):
    n = lat.size
    if transition.hom_count("PS", _TWO, lat) != n:
        return "join maps from the two-chain miscounted"
    for cat in ("BS", "TS", "FS"):
        if transition.hom_count(cat, _TWO, lat) != 1 << (n - 1):
            return "%s maps from the two-chain miscounted" % cat
    if transition.hom_count("PS", lat, _TWO) != n:
        return "join maps into the two-chain miscounted"
    if transition.hom_count("TS", lat, _TWO) != n:
        return "TS maps into the two-chain miscounted"
    if transition.hom_count("FS", lat, _TWO) != 1 << (n - 1):
        return "FS maps into the two-chain miscounted"
    return None


def _transition_coherence(l1, l2):
    for f in _homs(l1, l2, "join"):
        theta = transition.power_map(f)
        if transition.underlying_map(theta) != f:
            return "power map does not recover its join map"
        if not transition.coherence_check(f, theta, method="fast"):
            return "join map not coherent with its power map"
        if not transition.is_based(theta):
            return "power map not recognized as based"
    sample = transition.all_union_maps(l1, l2)
    for theta in sample[:: max(1, len(sample) // 64)]:
        try:
            f = transition.underlying_map(theta)
            if not transition.coherence_check(f, theta, method="fast"):
                return "underlying map not coherent with its union map"
            if not transition.coherence_check(f, theta, method="exhaustive"):
                return "coherence oracles disagree"
        except LatkitError:
            continue
    return None


def _transition_strictness(lat):
    for a in lat.elements():
        if a == lat.bottom:
            continue
        theta = transition.strictness_witness(lat, a)
        if not transition.coherence_check(identity_map(lat), theta):
            return "witness not coherent with the identity"
        # The witness is a union of power maps exactly when some join
        # map fixes-or-kills everything below the top and sends the
        # top to the parameter; the identity covers the rest.
        expect_based = a == lat.top or any(
            h(lat.top) == a
            and all(h(x) in (x, lat.bottom) for x in lat.elements() if x != lat.top)
            for h in _homs(lat, lat, "join")
        )
        if transition.is_based(theta) != expect_based:
            return "basedness misjudged at %s" % lat.labels[a]
    return None


def _transition_compose(l1, l2):
    firsts = _homs(l1, l2, "join")[:6]
    seconds = _homs(l2, l1, "join")[:6]
    for f1 in firsts:
        for f2 in seconds:
            p1 = transition.TransitionPair(f1, transition.power_map(f1))
            p2 = transition.TransitionPair(f2, transition.power_map(f2))
            transition.transition_compose(p2, p1)  # coherence re-verified
    pairs = [
        transition.TransitionPair(f, transition.power_map(f))
        for f in firsts
    ]
    if pairs:
        transition.transition_join(pairs)
    return None


# ---------------------------------------------------------- state-property


def _state_system(ol):
    system = stateprop.build_system(ol)
    lat = ol.lattice
    supports = [system.atom_support(a) for a in lat.elements()]
    # The support of a meet is the intersection of supports.  A finite
    # meet folds meet2 from the top, so the empty meet and every pair
    # decide it for every subset.
    for subset in [[]] + [[a, b] for a in lat.elements() for b in lat.elements()]:
        inter = frozenset(system.states)
        for a in subset:
            inter &= supports[a]
        if system.atom_support(lat.meet(subset)) != inter:
            return "support of the meet of %s is not the intersection" % (
                [lat.labels[a] for a in subset],
            )
    return None


def _state_center(ol):
    lat = ol.lattice
    elems = set(stateprop.center(ol))
    for z in elems:
        if ol.comp(z) not in elems:
            return "center not closed under complement at %d" % z
        for w in elems:
            if lat.join2(z, w) not in elems or lat.meet2(z, w) not in elems:
                return "center not closed under join and meet at %d, %d" % (z, w)
    decomposition = stateprop.classical_decomposition(ol)
    if decomposition.product.size != ol.size:
        return "decomposition changes cardinality"
    iso, product = decomposition.iso, decomposition.product
    for a in lat.elements():
        for b in lat.elements():
            if lat.leq(a, b) != product.leq(iso(a), iso(b)):
                return "decomposition not an order isomorphism at %d, %d" % (a, b)
    return None


def _state_spectrum(ol):
    lat = ol.lattice
    report = stateprop.observable_spectrum(identity_map(lat), ol, ol)
    null, discrete = report.null_part, report.discrete_part
    if lat.meet2(null, discrete) != lat.bottom:
        return "null and discrete parts overlap"
    if lat.join([null, discrete, report.continuous_part]) != lat.top:
        return "spectrum parts do not join to the top"
    if not report.discrete_interval.lattice.is_atomistic():
        return "discrete part is not atomistic"
    if report.null_part != ol.lattice.bottom:
        return "identity observable has a nonzero null part"
    if report.discrete_part != ol.lattice.top:
        return "identity observable not fully sharp"
    return None


def _state_causal(l1, l2, rng):
    for _ in range(4):
        seeds = [
            (rng.randrange(l1.size), rng.randrange(l2.size))
            for _ in range(rng.randrange(3))
        ]
        # Bottom of the source is causally below everything.
        seeds.append((l1.bottom, l2.top))
        relation = stateprop.causal_closure(l1, l2, seeds)
        wm = stateprop.causal_to_map(relation)
        if stateprop.map_to_causal(wm) != relation:
            return "relation not recovered from its map"
    for wm in weak.weak_meet_maps(l2, l1)[:12]:
        relation = stateprop.map_to_causal(wm)
        if stateprop.causal_to_map(relation).map != wm.map:
            return "map not recovered from its relation"
    return None


def _state_evolution(l1, l2):
    for wm in weak.weak_meet_maps(l2, l1):
        g = wm.map
        if g(g.dom.bottom) != g.cod.bottom:
            continue
        if g(g.dom.top) != g.cod.top:
            continue
        report = stateprop.evolution_adjoint(wm)
        if not report.dense:
            return "adjoint of a balanced evolution not dense"
    return None


# ------------------------------------------------------------------- io


def _io_lattices(bundle, bound):
    for name, lat in _lattices(bundle, bound):
        yield name, (name, lat, bundle["orthos"].get(name))


def _io_spaces(kind):
    def pool(bundle, bound):
        for name, space in bundle[kind + "s"].items():
            yield "%s:%s" % (kind, name), (name, space)

    return pool


def _io_lattice(name, lat, ortho_obj):
    # The bundle pairs the ortho object with the lattice by name only.
    if ortho_obj is not None and ortho_obj.lattice != lat:
        raise ShapeMismatch("ortho %s does not live on lattice %s" % (name, name))
    ws = io.load_workspace(io.format_lattice(name, lat, ortho_obj))
    back = ws.lattices[name]
    if back.labels != lat.labels:
        return "labels changed"
    if back.poset.up != lat.poset.up:
        return "order changed"
    if ortho_obj is not None and ws.orthos[name].ortho != ortho_obj.ortho:
        return "ortho table changed"
    return None


def _io_cspace(name, space):
    back = io.load_workspace(io.format_cspace(name, space)).cspaces[name]
    if back.masks != space.masks or back.labels != space.labels:
        return "closure space changed"
    return None


def _io_ospace(name, space):
    back = io.load_workspace(io.format_ospace(name, space)).ospaces[name]
    if back.orth != space.orth or back.labels != space.labels:
        return "orthospace changed"
    return None


# Every law, in the order the sweep generates its checks.
LAWS = (
    Law("adjoint-laws", _tuples(_lattices), 5, _adjoint_laws),
    Law("adjoint-unique", _tuples(_lattices), 4, _adjoint_unique),
    Law("duality-involution", _tuples(_lattices), 4, _duality),
    Law("duality-contravariant", _tuples(_first(6, _lattices), 3), 4, _contravariance),
    Law("balanced-dense", _tuples(_lattices), 5, _balanced_dense),
    Law("pointwise-families", _tuples(_lattices), 4, _pointwise_families, seeded=True),
    Law("special-maps", _tuples(_lattices, 1), 8, _special_maps),
    Law("classification", _tuples(_lattices), 4, _classification),
    Law("product-sum-adjunctions", _consecutive(_first(6, _lattices)), 4, _product_sum),
    Law("conjugation", _tuples(_ortho_pool, 1), 6, _conjugation),
    Law("dagger-laws", _tuples(_ortho_pool, 1), 8, _dagger),
    Law("isometry-agreement", _tuples(_ortho_pool, 1), 8, _isometries),
    Law("ortho-morphism", _tuples(_ortho_pool, 1), 8, _ortho_morphisms),
    Law("orthospace-equivalence", _tuples(_atomistic, 1), 16, _orthospace_of_lattice),
    Law("orthospace-equivalence", _tuples(_named("ospaces"), 1), None, _lattice_of_orthospace),
    Law("weak-roundtrips", _tuples(_lattices, label="{1}~>{0}"), 4, _weak_roundtrips),
    Law(
        "partial-composition",
        _tuples(_first(5, _lattices), 3, "{},{},{}"),
        4,
        _partial_composition,
    ),
    Law("closure-monad", _tuples(_lattices), 5, _closure_monad),
    Law("space-equivalence", _tuples(_simple_spaces, 1), None, closure.space_roundtrip),
    Law(
        "space-equivalence",
        _tuples(_where(_lattices, lambda lat: lat.is_atomistic()), 1),
        8,
        _atomistic_roundtrip,
    ),
    Law(
        "continuity-composition",
        _tuples(_where(_named("cspaces"), lambda s: s.size <= 2), 3, "{},{},{}"),
        None,
        _continuity_composition,
    ),
    Law("space-functors", _tuples(_simple_spaces), None, _space_functors),
    Law("power-functors", _tuples(_point_counts), None, _power_functors),
    Law("boolean-atom-maps", _tuples(_booleans, 1), 8, _atom_maps),
    Law(
        "boolean-duality",
        _tuples(_booleans, keep=lambda l1, l2: l1.size <= 4 or l2.size <= 4),
        8,
        _boolean_duality,
    ),
    Law("transition-resolution", _tuples(_lattices, 1), 5, _transition_resolution),
    Law("transition-counts", _tuples(_lattices, 1), 5, _transition_counts),
    Law("transition-coherence", _tuples(_lattices), 4, _transition_coherence),
    Law("transition-strictness", _tuples(_lattices, 1), 5, _transition_strictness),
    Law("transition-compose", _tuples(_first(5, _lattices)), 4, _transition_compose),
    Law("state-system", _tuples(_atomistic, 1), 16, _state_system),
    Law("state-center", _tuples(_atomistic, 1), 16, _state_center),
    Law(
        "state-spectrum",
        _tuples(_where(_ortho_pool, lambda ol: closure.is_boolean(ol.lattice)), 1),
        16,
        _state_spectrum,
    ),
    Law(
        "state-causal",
        _tuples(_first(6, _lattices), label="{}~>{}"),
        4,
        _state_causal,
        seeded=True,
    ),
    Law("state-evolution", _tuples(_lattices, label="{1}~>{0}"), 4, _state_evolution),
    Law("io-roundtrip", _io_lattices, 8, _io_lattice),
    Law("io-roundtrip", _io_spaces("cspace"), None, _io_cspace),
    Law("io-roundtrip", _io_spaces("ospace"), None, _io_ospace),
)

# perfbench's sweep workload iterates this and passes seed= to each entry
# whose __code__ lists it among the positional names, as Law.checks does.
ALL_CHECKS = tuple(law.checks for law in LAWS)


def load_corpus_dir(directory):
    """Load a corpus directory into a bundle.

    Parse failures raise immediately; validation failures are collected as
    failing reports naming the offending file.
    """
    bundle = {key: {} for key in ("lattices", "orthos", "cspaces", "ospaces")}
    failures = []
    with io.reading(directory):
        entries = sorted(os.listdir(directory))
    for entry in entries:
        path = os.path.join(directory, entry)
        if not os.path.isfile(path):
            continue
        text = io.read_text(path)
        try:
            ws = io.load_workspace(text)
        except ParseError:
            raise
        except LatkitError as exc:
            failures.append(
                Report(
                    "corpus-validate",
                    entry,
                    "fail",
                    "%s: %s" % (type(exc).__name__, exc),
                )
            )
            continue
        for key, objects in bundle.items():
            objects.update(getattr(ws, key))
    return bundle, failures


def run_suite(bundle=None, filter_text=None, max_size=None, seed=0):
    """Run every law of LAWS; returns reports sorted by (prop, object)."""
    bundle = bundle or default_bundle()
    reports = []
    for law in LAWS:
        if filter_text is None or filter_text in law.prop:
            _collect(law.checks(bundle, max_size, seed), reports)
    reports.sort(key=lambda r: (r.prop, r.object))
    return reports
