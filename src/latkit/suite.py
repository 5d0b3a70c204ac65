"""Proposition sweep: every law the library promises, run over the shipped
corpus (or a user-supplied workspace) and reported one object at a time."""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import random
import time
from dataclasses import dataclass

from . import closure, corpus, io, ortho, stateprop, transition, weak
from .core import direct_product, horizontal_sum, identity_map
from .errors import LatkitError, NotWeakMeet, ParseError
from .maps import (
    check_adjunction,
    classify_morphism,
    compose,
    hom_set,
    left_adjoint,
    map_leq,
    pointwise_join,
    pointwise_meet,
    preservation_profile,
    right_adjoint,
    special_maps,
    two_element_lattice,
)


@dataclass(frozen=True)
class Report:
    prop: str
    object: str
    status: str  # "pass", "fail", or "error" for an unexpected exception
    witness: str | None = None
    millis: float = 0.0

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


def _lattices(bundle, max_size):
    return [
        (name, lat) for name, lat in bundle["lattices"].items() if lat.size <= max_size
    ]


def _pool_checks(prop, pool, body, arity=2, label=None):
    """The checks of one law: a (prop, label, check) per tuple in the
    arity-fold product of pool, a list of (name, object) pairs.  The check
    calls body on the tuple's objects; label is a format string over the
    tuple's names, "->" between them unless given."""
    label = label or "->".join(["{}"] * arity)
    for entries in itertools.product(pool, repeat=arity):
        names, objects = zip(*entries)
        yield prop, label.format(*names), functools.partial(body, *objects)


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
        "maps": {},
        "causals": {},
    }


# ---------------------------------------------------------------- adjunctions


def check_adjunction_laws(bundle, max_size=5):
    """Every join map has a verified meet-preserving adjoint and the two
    pseudoinverse identities hold."""

    def body(l1, l2):
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

    return _pool_checks("adjoint-laws", _lattices(bundle, max_size), body)


def check_adjoint_uniqueness(bundle, max_size=4):
    def body(l1, l2):
        up1, up2 = l1.poset.up, l2.poset.up
        meets = _homs(l2, l1, "meet")
        for f in _homs(l1, l2, "join"):
            matches = []
            for g in meets:
                adjoint = check_adjunction(f, g)
                # Second oracle for isotone maps: a <= g(f(a)) and f(g(b)) <= b.
                fv, gv = f.values, g.values
                unit_counit = all(
                    row >> gv[fv[a]] & 1 for a, row in enumerate(up1)
                ) and all(up2[fv[y]] >> b & 1 for b, y in enumerate(gv))
                if adjoint != unit_counit:
                    return "adjunction oracles disagree for %s, %s" % (f.values, g.values)
                if adjoint:
                    matches.append(g)
            if len(matches) != 1:
                return "%d adjoint candidates for %s" % (len(matches), f.values)
        return None

    return _pool_checks("adjoint-unique", _lattices(bundle, max_size), body)


def check_duality(bundle, max_size=4):
    def body(l1, l2):
        joins = _homs(l1, l2, "join")
        for f in joins:
            g = right_adjoint(f)
            if left_adjoint(g) != f:
                return "double dual differs for %s" % (f.values,)
        for f in joins:
            for h in joins:
                if map_leq(f, h) != map_leq(right_adjoint(h), right_adjoint(f)):
                    return "antitonicity fails for %s vs %s" % (f.values, h.values)
        return None

    return _pool_checks("duality-involution", _lattices(bundle, max_size), body)


def check_contravariance(bundle, max_size=4):
    pool = _lattices(bundle, max_size)[:6]

    def body(l1, l2, l3):
        firsts = _homs(l1, l2, "join")[:8]
        seconds = _homs(l2, l3, "join")[:8]
        for f1 in firsts:
            for f2 in seconds:
                lhs = right_adjoint(compose(f2, f1))
                rhs = compose(right_adjoint(f1), right_adjoint(f2))
                if lhs != rhs:
                    return "composite adjoint mismatch"
        return None

    return _pool_checks("duality-contravariant", pool, body, arity=3)


def check_balanced_dense(bundle, max_size=5):
    def body(l1, l2):
        for f in _homs(l1, l2, "join"):
            g = right_adjoint(f)
            pf, pg = preservation_profile(f), preservation_profile(g)
            if pf.balanced != pg.top_reflecting:
                return "balanced/dense mismatch for %s" % (f.values,)
            if pf.dense != pg.bottom_fixed:
                return "dense/balanced mismatch for %s" % (f.values,)
        return None

    return _pool_checks("balanced-dense", _lattices(bundle, max_size), body)


def check_pointwise_families(bundle, max_size=4, seed=0):
    rng = random.Random(seed)

    def body(l1, l2):
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

    return _pool_checks("pointwise-families", _lattices(bundle, max_size), body)


def check_special_maps(bundle, max_size=8):
    two = two_element_lattice()

    def body(lat):
        for a in lat.elements():
            sm = special_maps(lat, a, two)
            if not check_adjunction(sm.point, sm.above_test):
                return "point/above-test not adjoint at %d" % a
            if not check_adjunction(sm.below_test, sm.copoint):
                return "below-test/copoint not adjoint at %d" % a
            if not check_adjunction(sm.inclusion, sm.projection):
                return "inclusion/projection not adjoint at %d" % a
            if not check_adjunction(sm.capped_projection, sm.capped_inclusion):
                return "capped pair not adjoint at %d" % a
        # Point maps exhaust the join Hom-set from the two-element lattice.
        if len(_homs(two, lat, "join")) != lat.size:
            return "point maps do not exhaust the Hom-set"
        return None

    return _pool_checks("special-maps", _lattices(bundle, max_size), body, arity=1)


def check_classification(bundle, max_size=4):
    def body(l1, l2):
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

    return _pool_checks("classification", _lattices(bundle, max_size), body)


def check_products(bundle, max_size=4):
    pool = _lattices(bundle, max_size)[:6]
    for (name1, l1), (name2, l2) in zip(pool, pool[1:]):

        def body(l1=l1, l2=l2):
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

        yield "product-sum-adjunctions", "%s,%s" % (name1, name2), body


# ------------------------------------------------------------------- ortho


def _ortho_pool(bundle, max_size=8):
    return [
        (name, ol)
        for name, ol in bundle["orthos"].items()
        if ol.lattice.size <= max_size
    ]


def check_conjugation(bundle, max_size=6):
    def body(ol):
        lat = ol.lattice
        iso = _homs(lat, lat, "isotone")
        for alpha in iso:
            twice = ortho.conjugate(ortho.conjugate(alpha, ol, ol), ol, ol)
            if twice != alpha:
                return "conjugation not involutive for %s" % (alpha.values,)
        for f in _homs(lat, lat, "join"):
            conj = ortho.conjugate(f, ol, ol)
            if not preservation_profile(conj).meets:
                return "conjugate of a join map not meet preserving"
        return None

    return _pool_checks("conjugation", _ortho_pool(bundle, max_size), body, arity=1)


def check_dagger(bundle, max_size=8):
    def body(ol):
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

    return _pool_checks("dagger-laws", _ortho_pool(bundle, max_size), body, arity=1)


def check_isometries(bundle, max_size=8):
    def body(ol):
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

    return _pool_checks("isometry-agreement", _ortho_pool(bundle, max_size), body, arity=1)


def check_ortho_morphisms(bundle, max_size=8):
    def body(ol):
        lat = ol.lattice
        for h in _homs(lat, lat, "join"):
            profile = preservation_profile(h)
            if not profile.meets:
                continue
            if any(h(ol.comp(a)) != ol.comp(h(a)) for a in lat.elements()):
                continue
            report = ortho.colatt_check(h, ol, ol)
            if not report.passed:
                return "; ".join(report.failures)
        return None

    return _pool_checks("ortho-morphism", _ortho_pool(bundle, max_size), body, arity=1)


def _atomistic(pool):
    return [(name, ol) for name, ol in pool if ol.lattice.is_atomistic()]


def _top_witness(ol):
    """First a with a \\/ a' != 1; validate_ortho derives this law but does not check it."""
    lat = ol.lattice
    for a in lat.elements():
        if lat.join2(a, ol.comp(a)) != lat.top:
            return "a \\/ a' is not top at %s" % lat.labels[a]
    return None


def check_orthospace_equivalence(bundle, max_size=16):
    def lattice_body(ol):
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

    def space_body(space):
        rebuilt_lat, _ = ortho.biortho_lattice(space)
        witness = _top_witness(rebuilt_lat)
        if witness:
            return witness
        back, _ = ortho.orthospace_from_lattice(rebuilt_lat)
        if back.size != space.size:
            return "point counts differ"
        return None

    prop = "orthospace-equivalence"
    yield from _pool_checks(prop, _atomistic(_ortho_pool(bundle, max_size)), lattice_body, arity=1)
    yield from _pool_checks(prop, bundle["ospaces"].items(), space_body, arity=1)


# ---------------------------------------------------------------- weak maps


@functools.lru_cache(maxsize=4096)
def _weak_meet_maps(l2, l1):
    out = []
    for g in _homs(l2, l1, "isotone"):
        try:
            out.append(weak.WeakMeetMap(g))
        except NotWeakMeet:
            pass
    return tuple(out)


def check_weak_roundtrips(bundle, max_size=4):
    pool = _lattices(bundle, max_size)

    def body(l1, l2):
        for wm in _weak_meet_maps(l2, l1):
            restricted, partial, anchor = weak.restrict_codomain(wm)
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

    return _pool_checks("weak-roundtrips", pool, body, label="{1}~>{0}")


def check_partial_composition(bundle, max_size=4):
    pool = _lattices(bundle, max_size)[:5]

    def body(l1, l2, l3):
        firsts = [weak.restrict_codomain(wm)[1] for wm in _weak_meet_maps(l2, l1)[:6]]
        seconds = [weak.restrict_codomain(wm)[1] for wm in _weak_meet_maps(l3, l2)[:6]]
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

    return _pool_checks("partial-composition", pool, body, arity=3, label="{},{},{}")


# ----------------------------------------------------------------- closure


def check_closure_monads(bundle, max_size=5):
    def body(l1, l2):
        for f in _homs(l1, l2, "join"):
            g = right_adjoint(f)
            operator = closure.monad_from_adjunction(f, g)
            closure.validate_closure(l1, operator.table)
            fixed = closure.fixed_points(operator)
            elems, sub = fixed.elements, fixed.lattice
            if sorted(elems) != g.image():
                return "fixed points differ from the image"
            # Meets are inherited; joins are closures of ambient joins.
            for i, a in enumerate(elems):
                for j, b in enumerate(elems):
                    if elems[sub.meet2(i, j)] != l1.meet2(a, b):
                        return "fixed-point meet differs for %s" % (f.values,)
                    if elems[sub.join2(i, j)] != operator(l1.join2(a, b)):
                        return "fixed-point join differs for %s" % (f.values,)
        return None

    return _pool_checks("closure-monad", _lattices(bundle, max_size), body)


def check_space_equivalence(bundle, max_points=3, max_size=8):
    spaces = [
        (name, space)
        for name, space in bundle["cspaces"].items()
        if space.size <= max_points and space.is_simple()
    ]
    lattices = [(name, lat) for name, lat in _lattices(bundle, max_size) if lat.is_atomistic()]

    def space_body(space):
        report = closure.space_roundtrip(space)
        if not report.passed:
            return report.detail
        return None

    def lattice_body(lat):
        if not closure.lattice_to_space(lat)[0].is_simple():
            return "space of atoms is not simple"
        report, _ = closure.lattice_roundtrip(lat)
        if not report.passed:
            return report.detail
        return None

    yield from _pool_checks("space-equivalence", spaces, space_body, arity=1)
    yield from _pool_checks("space-equivalence", lattices, lattice_body, arity=1)


def _continuous_maps(s1, s2):
    out = []
    points = list(s1.points())
    for kernel_mask in range(1 << s1.size):
        kernel = frozenset(p for p in points if kernel_mask >> p & 1)
        free = [p for p in points if p not in kernel]
        for choice in itertools.product(range(s2.size), repeat=len(free)):
            alpha = closure.partial_map(s1, s2, kernel, dict(zip(free, choice)))
            if closure.check_continuity(alpha)[0]:
                out.append(alpha)
    return out


def check_continuity_composition(bundle, max_points=2):
    names = [
        (name, s) for name, s in bundle["cspaces"].items() if s.size <= max_points
    ]

    def body(s1, s2, s3):
        firsts = _continuous_maps(s1, s2)
        seconds = _continuous_maps(s2, s3)
        for a1 in firsts:
            for a2 in seconds:
                composite = closure.compose_continuous(a2, a1)
                expected = a1.kernel | a1.preimage(a2.kernel)
                if composite.kernel != expected:
                    return "kernel formula fails"
        return None

    return _pool_checks("continuity-composition", names, body, arity=3, label="{},{},{}")


def check_space_functors(bundle, max_points=3):
    names = [
        (name, s)
        for name, s in bundle["cspaces"].items()
        if s.size <= max_points and s.is_simple()
    ]

    def body(s1, s2):
        for alpha in _continuous_maps(s1, s2):
            forward, backward = closure.map_to_join_map(alpha)
            if not check_adjunction(forward, backward):
                return "functor image not adjoint"
            back = closure.join_map_to_partial(forward)
            if back.kernel != alpha.kernel:
                return "kernel not recovered"
        return None

    return _pool_checks("space-functors", names, body)


def check_power_functors(bundle, max_points=3, seed=0):
    def body(n1, n2):
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

    return _pool_checks("power-functors", [(n, n) for n in range(1, max_points + 1)], body)


def check_boolean_duality(bundle, max_size=8):
    booleans = [
        (name, lat)
        for name, lat in bundle["lattices"].items()
        if lat.size <= max_size and closure.is_boolean(lat)
    ]

    def atom_body(lat):
        mu, rho = closure.atom_set_maps(lat)
        if compose(rho, mu) != identity_map(lat):
            return "atom map then join is not the identity"
        if compose(mu, rho) != identity_map(mu.cod):
            return "join then atom map is not the identity"
        return None

    yield from _pool_checks("boolean-atom-maps", booleans, atom_body, arity=1)
    for name1, l1 in booleans:
        for name2, l2 in booleans:
            if l1.size > 4 and l2.size > 4:
                continue

            def body(l1=l1, l2=l2):
                for f in _homs(l1, l2, "join"):
                    report = closure.boolean_duality(f, right_adjoint(f))
                    if not report.agree:
                        return "atom criterion disagrees with ortho criterion"
                return None

            yield "boolean-duality", "%s->%s" % (name1, name2), body


# -------------------------------------------------------------- transition


def check_transition_resolution(bundle, max_size=5):
    def body(lat):
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

    return _pool_checks("transition-resolution", _lattices(bundle, max_size), body, arity=1)


def check_transition_counts(bundle, max_size=5):
    two = two_element_lattice()

    def body(lat):
        n = lat.size
        if transition.hom_count("PS", two, lat) != n:
            return "join maps from the two-chain miscounted"
        for cat in ("BS", "TS", "FS"):
            if transition.hom_count(cat, two, lat) != 1 << (n - 1):
                return "%s maps from the two-chain miscounted" % cat
        if transition.hom_count("PS", lat, two) != n:
            return "join maps into the two-chain miscounted"
        if transition.hom_count("TS", lat, two) != n:
            return "TS maps into the two-chain miscounted"
        if transition.hom_count("FS", lat, two) != 1 << (n - 1):
            return "FS maps into the two-chain miscounted"
        return None

    return _pool_checks("transition-counts", _lattices(bundle, max_size), body, arity=1)


def check_transition_coherence(bundle, max_size=4):
    def body(l1, l2):
        for f in _homs(l1, l2, "join"):
            theta = transition.power_map(f)
            if transition.underlying_map(theta) != f:
                return "power map does not recover its join map"
            if not transition.coherence_check(f, theta, method="fast"):
                return "join map not coherent with its power map"
            if not transition.is_based(theta):
                return "power map not recognized as based"
        sample = transition.all_union_maps(l1, l2, bound=1 << 12)
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

    return _pool_checks("transition-coherence", _lattices(bundle, max_size), body)


def check_transition_strictness(bundle, max_size=5):
    def body(lat):
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

    return _pool_checks("transition-strictness", _lattices(bundle, max_size), body, arity=1)


def check_transition_compose(bundle, max_size=4):
    def body(l1, l2):
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

    return _pool_checks("transition-compose", _lattices(bundle, max_size)[:5], body)


# ---------------------------------------------------------- state-property


def check_state_systems(bundle, max_size=16):
    pool = _atomistic(_ortho_pool(bundle, max_size))

    def body(ol):
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

    return _pool_checks("state-system", pool, body, arity=1)


def check_state_center(bundle, max_size=16):
    pool = _atomistic(_ortho_pool(bundle, max_size))

    def body(ol):
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

    return _pool_checks("state-center", pool, body, arity=1)


def check_state_spectrum(bundle, max_size=16):
    pool = [
        (name, ol) for name, ol in _ortho_pool(bundle, max_size) if closure.is_boolean(ol.lattice)
    ]

    def body(ol):
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

    return _pool_checks("state-spectrum", pool, body, arity=1)


def check_state_causal(bundle, max_size=4, seed=0):
    rng = random.Random(seed)
    pool = _lattices(bundle, max_size)[:6]

    def body(l1, l2):
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
        for wm in _weak_meet_maps(l2, l1)[:12]:
            relation = stateprop.map_to_causal(wm)
            if stateprop.causal_to_map(relation).map != wm.map:
                return "map not recovered from its relation"
        return None

    return _pool_checks("state-causal", pool, body, label="{}~>{}")


def check_state_evolution(bundle, max_size=4):
    pool = _lattices(bundle, max_size)

    def body(l1, l2):
        for wm in _weak_meet_maps(l2, l1):
            g = wm.map
            if g(g.dom.bottom) != g.cod.bottom:
                continue
            if g(g.dom.top) != g.cod.top:
                continue
            report = stateprop.evolution_adjoint(wm)
            if not report.dense:
                return "adjoint of a balanced evolution not dense"
        return None

    return _pool_checks("state-evolution", pool, body, label="{1}~>{0}")


# ------------------------------------------------------------------- io


def check_io_roundtrip(bundle, max_size=8):
    for name, lat in _lattices(bundle, max_size):

        def body(name=name, lat=lat):
            ortho_obj = bundle["orthos"].get(name)
            text = io.format_lattice(name, lat, ortho_obj)
            ws = io.load_workspace(text)
            back = ws.lattices[name]
            if back.labels != lat.labels:
                return "labels changed"
            if back.poset.up != lat.poset.up:
                return "order changed"
            if ortho_obj is not None and ws.orthos[name].ortho != ortho_obj.ortho:
                return "ortho table changed"
            return None

        yield "io-roundtrip", name, body
    for name, space in bundle["cspaces"].items():

        def body(name=name, space=space):
            text = io.format_cspace(name, space)
            back = io.load_workspace(text).cspaces[name]
            if back.closed != space.closed or back.labels != space.labels:
                return "closure space changed"
            return None

        yield "io-roundtrip", "cspace:%s" % name, body
    for name, space in bundle["ospaces"].items():

        def body(name=name, space=space):
            text = io.format_ospace(name, space)
            back = io.load_workspace(text).ospaces[name]
            if back.orth != space.orth or back.labels != space.labels:
                return "orthospace changed"
            return None

        yield "io-roundtrip", "ospace:%s" % name, body


ALL_CHECKS = (
    check_adjunction_laws,
    check_adjoint_uniqueness,
    check_duality,
    check_contravariance,
    check_balanced_dense,
    check_pointwise_families,
    check_special_maps,
    check_classification,
    check_products,
    check_conjugation,
    check_dagger,
    check_isometries,
    check_ortho_morphisms,
    check_orthospace_equivalence,
    check_weak_roundtrips,
    check_partial_composition,
    check_closure_monads,
    check_space_equivalence,
    check_continuity_composition,
    check_space_functors,
    check_power_functors,
    check_boolean_duality,
    check_transition_resolution,
    check_transition_counts,
    check_transition_coherence,
    check_transition_strictness,
    check_transition_compose,
    check_state_systems,
    check_state_center,
    check_state_spectrum,
    check_state_causal,
    check_state_evolution,
    check_io_roundtrip,
)


def write_corpus(directory):
    """Write the built-in corpus to one file per object in text format."""
    bundle = default_bundle()
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, lat in bundle["lattices"].items():
        text = io.format_lattice(name, lat, bundle["orthos"].get(name))
        path = os.path.join(directory, "%s.lat" % name)
        with open(path, "w") as handle:
            handle.write(text)
        written.append(path)
    for name, space in bundle["cspaces"].items():
        path = os.path.join(directory, "%s.cspace" % name)
        with open(path, "w") as handle:
            handle.write(io.format_cspace(name, space))
        written.append(path)
    for name, space in bundle["ospaces"].items():
        path = os.path.join(directory, "%s.ospace" % name)
        with open(path, "w") as handle:
            handle.write(io.format_ospace(name, space))
        written.append(path)
    return written


def load_corpus_dir(directory):
    """Load a corpus directory into a bundle.

    Parse failures raise immediately; validation failures are collected as
    failing reports naming the offending file.
    """
    bundle = {key: {} for key in ("lattices", "orthos", "cspaces", "ospaces", "maps", "causals")}
    failures = []
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if not os.path.isfile(path):
            continue
        with open(path) as handle:
            text = handle.read()
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
    """Run every registered sweep; returns reports sorted by (prop, object)."""
    bundle = bundle or default_bundle()
    reports = []
    for check in ALL_CHECKS:
        kwargs = {}
        params = inspect.signature(check).parameters
        if "seed" in params:
            kwargs["seed"] = seed
        if max_size is not None and "max_size" in params:
            # max_size only lowers each law's own size bound.
            kwargs["max_size"] = min(max_size, params["max_size"].default)
        checks = [
            (prop, obj, fn)
            for prop, obj, fn in check(bundle, **kwargs)
            if filter_text is None or filter_text in prop
        ]
        _collect(checks, reports)
    reports.sort(key=lambda r: (r.prop, r.object))
    return reports
