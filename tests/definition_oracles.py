"""Oracles that decide by definition, on canonical generators.

The library answers these questions through LPs, reach systems and
double descriptions. The tests check those answers against brute force
over vertices and rays, kept apart from the library as independent
cross-checks.
"""
from polyexact.linalg import dot, vec, vsub, zero_vec
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
