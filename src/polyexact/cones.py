"""Finitely generated cones and normal cones of polyhedra.

Cones are stored in a canonical shape: the lineality space gets a
reduced-echelon basis, remaining generators are reduced modulo that
space, scaled so the leading coordinate has absolute value one,
deduplicated, pruned to the extreme rays, and sorted. The shape is
unique, so two cones are equal as sets exactly when their canonical
fields coincide, and cones_equal compares those fields. The lineality
space and the extreme rays are read off one double description of the
polar cone; the tests cross-check them against membership LPs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from . import dd
from .errors import InternalError, PreconditionError
from .lp import FREE, NONNEG, LpOptimal, combination_program, solve_lp
from .linalg import (
    Vec,
    combine,
    integerize,
    is_zero_vec,
    lead_normalized,
    reduce_mod_subspace,
    rref,
    vec,
    vneg,
    vsub,
    zero_vec,
)
from .sets import ConvexSet


@dataclass(frozen=True)
class PolyhedralCone:
    dim: int
    generators: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    # membership answers by point; not part of the cone's value. Two
    # threads asking at once may both solve, and store the same answer
    _members: dict = field(default_factory=dict, init=False, compare=False,
                           hash=False, repr=False)
    # (rays, lineality) of the polar cone, from the double description
    # make_cone ran; not part of the cone's value
    _polar: tuple | None = field(default=None, compare=False, hash=False, repr=False)
    # polar vectors already checked as witnesses of points outside
    _checked: set = field(default_factory=set, init=False, compare=False,
                          hash=False, repr=False)

    def contains(self, x) -> bool:
        """Membership, decided once per point and kept on the cone, so
        asking a shared cone again decides nothing. A point outside is
        answered from the polar (bipolar theorem, Rockafellar 1970,
        section 14): a polar ray p with p.x > 0 or a polar lineality
        vector l with l.x != 0. That vector is checked once per cone
        against the generators and the lineality (_check_polar_witness).
        A point inside is decided by one LP, whose verified combination
        of the generators is the witness."""
        x = vec(x)
        if len(x) != self.dim:
            return False
        if x not in self._members:
            self._members[x] = self._decide(x)
        return self._members[x]

    def _decide(self, x: Vec) -> bool:
        witness = _polar_witness(self.polar(), x)
        if witness is not None:
            if witness not in self._checked:
                _check_polar_witness(self, *witness)
                self._checked.add(witness)
            return False
        if not _conic_membership(self.generators, self.lineality, x):
            raise InternalError("the polar misses a point outside the cone")
        return True

    def polar(self) -> tuple:
        """(rays, lineality) of the polar cone, as make_cone kept them. A
        cone built by hand runs that double description here."""
        return self._polar or dd.cone_from_inequalities(list(self.sample_directions()), self.dim)

    def sample_directions(self) -> tuple[Vec, ...]:
        """Nonzero members spanning the cone, lineality in both signs."""
        out = list(self.generators)
        for l in self.lineality:
            out.append(l)
            out.append(vneg(l))
        return tuple(out)


def _polar_witness(polar, x: Vec) -> tuple[Vec, bool] | None:
    """(p, False) for a polar ray p with p.x > 0, else (l, True) for a
    polar lineality vector l with l.x != 0, else None. Each test is an
    int dot product, each vector scaled by a positive factor."""
    rays, lin = polar
    xs = integerize(x)
    for p in rays:
        if sum(map(mul, integerize(p), xs)) > 0:
            return p, False
    for l in lin:
        if sum(map(mul, integerize(l), xs)):
            return l, True
    return None


def _check_polar_witness(c: "PolyhedralCone", p: Vec, in_lineality: bool) -> None:
    """InternalError unless p is in the polar of c: p.g <= 0 on every
    generator g (= 0 when p is a polar lineality vector) and p.l = 0 on
    every lineality vector l. Decided in integers, each vector scaled
    by a positive factor."""
    ps = integerize(p)
    dots = [sum(map(mul, ps, integerize(g))) for g in c.generators]
    if (any(d > 0 or (in_lineality and d) for d in dots)
            or any(sum(map(mul, ps, integerize(l))) for l in c.lineality)):
        raise InternalError("a polar vector fails the cone it would separate from")


def _conic_membership(gens, lin, x: Vec) -> bool:
    if is_zero_vec(x):
        return True
    if not gens and not lin:
        return False
    signs = [NONNEG] * len(gens) + [FREE] * len(lin)
    return isinstance(solve_lp(combination_program(tuple(gens) + tuple(lin), x, signs)), LpOptimal)


def make_cone(dim: int, generators=(), lineality=()) -> PolyhedralCone:
    """Canonicalize cone(generators) + span(lineality).

    Zero vectors are dropped. One double description of the polar cone
    gives its rays P, and each generator g is judged by Z(g), the rays
    of P orthogonal to it, as in dd's adjacency test (Fukuda & Prodon
    1996), read off int dot products. g lies in the lineality space iff
    Z(g) is all of P. The rest are reduced modulo that space, and a
    reduced generator is an extreme ray iff no other one h has Z(g)
    within Z(h). The cone keeps the polar's rays and lineality for
    contains and cone_rows. Vectors of the wrong length raise
    InputError, and the DD caps raise CapacityError.
    """
    gens = [vec(g) for g in generators if not is_zero_vec(vec(g))]
    lin = [vec(l) for l in lineality if not is_zero_vec(vec(l))]
    polar, polar_lin = dd.cone_from_inequalities(gens + lin + [vneg(l) for l in lin], dim)
    full = (1 << len(polar)) - 1
    # the polar rays are primitive int tuples held as Fractions, and each
    # generator is scaled by a positive factor, so every test is on ints
    polar_ints = [tuple(x.numerator for x in p) for p in polar]
    zero_sets = [sum(1 << k for k, p in enumerate(polar_ints) if not sum(map(mul, g, p)))
                 for g in map(integerize, gens)]
    lin_rows, pivots = rref([list(l) for l in lin]
                            + [list(g) for g, z in zip(gens, zero_sets) if z == full])
    reduced = {}
    for g, z in zip(gens, zero_sets):
        if z != full:
            reduced.setdefault(lead_normalized(reduce_mod_subspace(g, lin_rows, pivots)), z)
    extreme = [g for g, z in reduced.items()
               if not any(h != g and z & w == z for h, w in reduced.items())]
    return PolyhedralCone(dim, tuple(sorted(extreme)),
                          tuple(sorted(tuple(row) for row in lin_rows)), (polar, polar_lin))


def cone_negate(c: PolyhedralCone) -> PolyhedralCone:
    """-c. Its polar is the polar of c negated: the rays negated, the
    lineality the same."""
    polar = c._polar and (tuple(map(vneg, c._polar[0])), c._polar[1])
    return PolyhedralCone(c.dim, tuple(sorted(vneg(g) for g in c.generators)), c.lineality, polar)


def cone_sum(a: PolyhedralCone, b: PolyhedralCone) -> PolyhedralCone:
    _same_dim(a, b)
    return make_cone(a.dim, a.generators + b.generators, a.lineality + b.lineality)


def cone_rows(c: PolyhedralCone) -> tuple[Vec, ...]:
    """Inequality normals a with c = {x : a.x <= 0 for all a}: the rays
    of the polar cone and both signs of its lineality (see polar). The
    origin's polar is the whole space, so its rows pin every
    coordinate."""
    rays, lin = c.polar()
    rows = list(rays)
    for l in lin:
        rows.append(l)
        rows.append(vneg(l))
    return tuple(rows)


def cone_intersect(a: PolyhedralCone, b: PolyhedralCone) -> PolyhedralCone:
    _same_dim(a, b)
    rows = list(cone_rows(a)) + list(cone_rows(b))
    rays, lin = dd.cone_from_inequalities(rows, a.dim)
    return make_cone(a.dim, rays, lin)


def cones_equal(a: PolyhedralCone, b: PolyhedralCone) -> bool:
    """Equality as sets, which for canonical cones is equality of
    their fields."""
    return a == b


def cone_sum_decompose(a: PolyhedralCone, b: PolyhedralCone, x) -> tuple[Vec, Vec] | None:
    """Split x into a member of each cone, or None when x is outside
    the sum. The split certifies membership in cone_sum(a, b)."""
    _same_dim(a, b)
    x = vec(x)
    cols = a.generators + a.lineality + b.generators + b.lineality
    if not cols:
        return (x, zero_vec(a.dim)) if is_zero_vec(x) else None
    signs = ([NONNEG] * len(a.generators) + [FREE] * len(a.lineality)
             + [NONNEG] * len(b.generators) + [FREE] * len(b.lineality))
    out = solve_lp(combination_program(cols, x, signs))
    if not isinstance(out, LpOptimal):
        return None
    na = len(a.generators) + len(a.lineality)
    ya = combine(out.point[:na], cols[:na], a.dim)
    return ya, vsub(x, ya)


def normal_cone(s: ConvexSet, x) -> PolyhedralCone:
    """Normal cone of the set at a point of it: the cone of the normals
    of the rows active at x (ConvexSet.active_rows), which raises
    PreconditionError for a point outside. A set described by
    generators derives its rows once and keeps them. Cones are cached
    on the set per point (see ConvexSet.cached), so asking again at the
    same point canonicalizes nothing.
    """
    x = vec(x)
    return s.cached(("normal_cone", x), lambda: make_cone(s.dim, s.active_rows(x)))


def extremal_intersection_condition(n1: PolyhedralCone, n2: PolyhedralCone):
    """Nonzero common direction of the first cone and the negation of
    the second, or None. For normal cones at a shared point such a
    direction is a dual witness of separation."""
    _same_dim(n1, n2)
    k = cone_intersect(n1, cone_negate(n2))
    if k.generators:
        return k.generators[0]
    if k.lineality:
        return k.lineality[0]
    return None


def ep_condition(s1: ConvexSet, s2: ConvexSet, xbar):
    """Nontrivial common normal at a shared point.

    Returns (found, witness): a nonzero functional lying in the normal
    cone of the first set at xbar whose negation lies in the normal cone
    of the second, or (False, None) when only the zero functional does.
    """
    x = vec(xbar)
    if not (s1.contains(x) and s2.contains(x)):
        raise PreconditionError("the point must belong to both sets")
    w = extremal_intersection_condition(normal_cone(s1, x), normal_cone(s2, x))
    return (w is not None), w


def _same_dim(a: PolyhedralCone, b: PolyhedralCone) -> None:
    if a.dim != b.dim:
        raise PreconditionError("cones live in different dimensions")
