"""Cone canonicalization, algebra, and normal cones.

Normal cones are computed two ways (active rows vs shifted generators)
and both are cross-checked against the defining inequalities evaluated
on raw generators.
"""
from fractions import Fraction as F

import pytest

from polyexact import cones
from polyexact.cones import (
    PolyhedralCone,
    cone_intersect,
    cone_negate,
    cone_rows,
    cone_sum,
    cone_sum_decompose,
    cones_equal,
    extremal_intersection_condition,
    make_cone,
    normal_cone,
)
from polyexact.errors import PreconditionError
from polyexact.linalg import dot, vec
from polyexact.oracle import definition_normal_cone_oracle, random_polytope
from polyexact.sets import ConvexSet


def unit_square(kind="h"):
    if kind == "h":
        return ConvexSet.from_hrep(2, ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])
    return ConvexSet.from_vrep(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])


def test_square_normal_cones():
    s = unit_square()
    corner = normal_cone(s, (0, 0))
    assert corner.generators == ((-1, 0), (0, -1))
    edge = normal_cone(s, (F(1, 2), 0))
    assert edge.generators == ((0, -1),)
    inner = normal_cone(s, (F(1, 2), F(1, 2)))
    assert inner.is_trivial()
    with pytest.raises(PreconditionError):
        normal_cone(s, (2, 2))


def test_normal_cone_routes_agree():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), 0)]
    h, v = unit_square("h"), unit_square("v")
    for x in pts:
        assert normal_cone(h, x) == normal_cone(v, x)


def test_normal_cone_of_single_point_is_everything():
    s = ConvexSet.from_vrep(2, vertices=[(3, 4)])
    n = normal_cone(s, (3, 4))
    assert n.generators == ()
    assert len(n.lineality) == 2


def test_normal_cone_satisfies_definition():
    for seed in range(40):
        dim = 1 + seed % 3
        s = random_polytope(seed, dim)
        v = s.canonical_vrep()
        probes = list(v.vertices[:3])
        for x in probes:
            n = normal_cone(s, x)
            for g in n.sample_directions():
                assert definition_normal_cone_oracle(s, x, g)


def test_canonicalization_folds_opposite_rays():
    c = make_cone(2, generators=[(1, 0), (0, 1), (1, 1), (2, 0), (-1, 0)])
    assert c.lineality == ((1, 0),)
    assert c.generators == ((0, 1),)
    assert c == make_cone(2, generators=[(0, 1)], lineality=[(1, 0)])


def test_canonicalization_scale_invariant():
    a = make_cone(3, generators=[(1, 2, 3), (0, 1, 1)])
    b = make_cone(3, generators=[(F(1, 2), 1, F(3, 2)), (0, 5, 5), (1, 3, 4)])
    assert a == b
    assert cones_equal(a, b)


def test_redundant_generator_pruned():
    c = make_cone(2, generators=[(1, 0), (0, 1), (1, 1)])
    assert c.generators == ((0, 1), (1, 0))


def test_membership():
    c = make_cone(2, generators=[(1, 0), (1, 1)])
    assert c.contains((2, 1))
    assert c.contains((0, 0))
    assert not c.contains((0, 1))
    assert not c.contains((-1, 0))


def test_cone_algebra():
    xray = make_cone(2, generators=[(1, 0)])
    yray = make_cone(2, generators=[(0, 1)])
    trivial = make_cone(2)
    assert cone_sum(xray, trivial) == xray
    assert cone_sum(xray, yray).generators == ((0, 1), (1, 0))
    assert cone_intersect(xray, yray).is_trivial()
    assert cone_negate(cone_negate(xray)) == xray
    quad = cone_intersect(
        make_cone(2, generators=[(1, 0), (1, 1)]),
        make_cone(2, generators=[(1, 1), (0, 1)]),
    )
    assert quad.generators == ((1, 1),)


def test_cone_rows_roundtrip():
    for gens, lin in [
        ([(1, 0), (0, 1)], []),
        ([(1, 1)], []),
        ([(0, 1)], [(1, 0)]),
        ([], []),
        ([(1, 0), (0, 1), (-1, -1)], []),
    ]:
        c = make_cone(2, generators=gens, lineality=lin)
        rows = cone_rows(c)
        for g in c.sample_directions():
            assert all(dot(a, g) <= 0 for a in rows)
        # rebuild through the rows and compare
        from polyexact.dd import cone_from_inequalities
        rays, l = cone_from_inequalities([vec(a) for a in rows], 2)
        assert make_cone(2, rays, l) == c


def test_decompose_matches_sum_membership():
    a = make_cone(2, generators=[(1, 0), (1, 1)])
    b = make_cone(2, generators=[(-1, 1)])
    total = cone_sum(a, b)
    samples = [(2, 1), (0, 3), (-2, 2), (1, -1), (-1, -1), (0, 0), (5, 0)]
    for x in samples:
        split = cone_sum_decompose(a, b, x)
        if total.contains(x):
            assert split is not None
            ya, yb = split
            assert a.contains(ya) and b.contains(yb)
            assert tuple(u + v for u, v in zip(ya, yb)) == vec(x)
        else:
            assert split is None


def test_opposite_direction_witness():
    n1 = make_cone(2, generators=[(1, 0)])
    n2 = make_cone(2, generators=[(-1, 0)])
    w = extremal_intersection_condition(n1, n2)
    assert w == (1, 0)
    assert n1.contains(w)
    assert n2.contains(tuple(-v for v in w))
    assert extremal_intersection_condition(n1, n1) is None
    assert extremal_intersection_condition(n1, make_cone(2)) is None


def test_canonical_equality_iff_semantic_equality():
    shapes = [
        make_cone(2, generators=[(1, 0), (0, 1)]),
        make_cone(2, generators=[(2, 0), (0, 3), (1, 1)]),
        make_cone(2, generators=[(1, 0)], lineality=[(0, 1)]),
        make_cone(2, generators=[(1, 0), (0, 1), (0, -1)]),
        make_cone(2, generators=[(1, 1), (1, -1)]),
    ]
    for i, a in enumerate(shapes):
        for b in shapes[i:]:
            assert (a == b) == cones_equal(a, b)


def test_contains_solves_each_point_once(monkeypatch):
    solved = []
    membership = cones._conic_membership

    def counted(gens, lin, x):
        solved.append(x)
        return membership(gens, lin, x)

    c = make_cone(2, generators=[(1, 0), (0, 1)])
    twin = make_cone(2, generators=[(0, 1), (1, 0)])
    monkeypatch.setattr(cones, "_conic_membership", counted)
    for _ in range(3):
        assert c.contains((1, 2)) and c.contains((F(1), F(2)))
        assert not c.contains((-1, 0))
        assert not c.contains((1, 2, 3))
    assert solved == [vec((1, 2)), vec((-1, 0))]
    # the kept answers are not part of the cone's value
    assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
