"""Oracles that decide by definition, on canonical generators or on the
rows themselves.

The library answers these questions through LPs, reach systems, double
descriptions and integer rows. The tests check those answers against
brute force over vertices and rays, and against Fraction sums row by
row, kept apart from the library as independent cross-checks.
"""
from fractions import Fraction

from polyexact.errors import InternalError, PreconditionError
from polyexact.linalg import dot, l1_norm, vec, vneg, vsub, zero_vec
from polyexact.sets import ConvexSet, check_same_dim


def vertex_support_oracle(s: ConvexSet, direction):
    """Support value by brute force over canonical generators: None
    stands for an empty set, +infinity is signalled by a ray with
    positive product."""
    d = vec(direction)
    v = s.canonical_vrep()
    if not v.vertices:
        return None
    if any(dot(d, r) > 0 for r in v.rays):
        return "unbounded"
    return max(dot(d, p) for p in v.vertices)


def definition_normal_cone_oracle(s: ConvexSet, x, g) -> bool:
    """Is g a normal direction at x per the definition: no point of the
    set sees a positive product with g relative to x."""
    x, g = vec(x), vec(g)
    v = s.canonical_vrep()
    return all(dot(g, vsub(p, x)) <= 0 for p in v.vertices) and all(
        dot(g, r) <= 0 for r in v.rays)


def prop33_hypotheses(s1: ConvexSet, s2: ConvexSet) -> bool:
    """Whether the difference set has interior points and contains the
    origin in its core. Checked on the materialized difference, which
    makes this an independent cross-check of the reach-based tests."""
    check_same_dim(s1, s2)
    if s1.is_empty() or s2.is_empty():
        return False
    d = s1.difference(s2)
    if not d.core_contains(zero_vec(s1.dim)):
        return False
    return d.interior_point() is not None


def is_trivial(c) -> bool:
    """Whether the cone is the origin alone."""
    return not c.generators and not c.lineality


# -- point tests on rows, summed in Fractions --------------------------------


def contains_definition(s: ConvexSet, x) -> bool:
    """x satisfies every row of hrep()."""
    x, h = vec(x), s.hrep()
    return all(dot(a, x) <= b for a, b in h.ineqs) and all(dot(a, x) == b for a, b in h.eqs)


def interior_contains_definition(s: ConvexSet, x) -> bool:
    """No equality row, and x strictly inside every inequality row."""
    x, h = vec(x), s.hrep()
    if h.eqs:
        return False
    return all(dot(a, x) < b for a, b in h.ineqs)


def segment_blocked_definition(s: ConvexSet, x, d) -> bool:
    """An equality row with a.d != 0, or an inequality row tight at x
    with a.d > 0."""
    x, d, h = vec(x), vec(d), s.hrep()
    return (any(dot(a, d) for a, _ in h.eqs)
            or any(dot(a, d) > 0 and dot(a, x) == b for a, b in h.ineqs))


def active_rows_definition(s: ConvexSet, x) -> tuple:
    """The normals of the inequality rows tight at x, then both signs of
    every equality row; PreconditionError for a point outside."""
    x, h = vec(x), s.hrep()
    if not contains_definition(s, x):
        raise PreconditionError("point is not in the set")
    out = [a for a, b in h.ineqs if dot(a, x) == b]
    for a, _ in h.eqs:
        out += [a, vneg(a)]
    return tuple(out)


def interior_radius_definition(d: ConvexSet) -> Fraction:
    """min b / l1(a) over the inequality rows, 1 without rows;
    InternalError for a flat set or a nonpositive radius."""
    h = d.hrep()
    if h.eqs:
        raise InternalError("interior point in a flat set")
    r = min((b / l1_norm(a) for a, b in h.ineqs), default=Fraction(1))
    if r <= 0:
        raise InternalError("nonpositive slack at a claimed interior point")
    return r
