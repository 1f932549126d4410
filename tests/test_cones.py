"""Cone canonicalization, algebra, and normal cones.

Normal cones are computed from the active rows and cross-checked against
the shifted-generator route of cone_reference and against the defining
inequalities evaluated on raw generators. Canonical cones are cross-checked against the
membership-LP canonicalizer and equality of cone_reference.
"""
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyexact import cones, dd, suite
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
from polyexact.errors import CapacityError, InputError, InternalError, PreconditionError
from polyexact.linalg import dot, rank, vec, vneg
from polyexact.oracle import random_polytope
from polyexact.sets import ConvexSet
from cone_reference import reference_cones_equal, reference_make_cone, reference_normal_cone
from definition_oracles import definition_normal_cone_oracle, is_trivial


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
    assert is_trivial(inner)
    with pytest.raises(PreconditionError):
        normal_cone(s, (2, 2))


def test_normal_cone_routes_agree():
    # production reads the rows a generator-described set derives, the
    # reference reads its generators alone, each on a fresh copy
    cases = [(lambda: unit_square("v"), [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), 0)]),
             (lambda: ConvexSet.from_vrep(2, vertices=[(3, 4)]), [(3, 4)])]
    for seed in range(24):
        v = random_polytope(seed, 1 + seed % 3).canonical_vrep()
        cases.append((lambda v=v: ConvexSet.from_vrep(v.dim, v.vertices), v.vertices))
    for fresh, pts in cases:
        s = fresh()
        for x in pts:
            want = reference_normal_cone(fresh(), x)
            assert normal_cone(s, x) == want, x
    h = unit_square("h")
    for x in cases[0][1]:
        assert normal_cone(h, x) == reference_normal_cone(unit_square("v"), x)


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
    assert is_trivial(cone_intersect(xray, yray))
    assert cone_negate(cone_negate(xray)) == xray
    quad = cone_intersect(
        make_cone(2, generators=[(1, 0), (1, 1)]),
        make_cone(2, generators=[(1, 1), (0, 1)]),
    )
    assert quad.generators == ((1, 1),)


def test_cone_rows_roundtrip(monkeypatch):
    built = [make_cone(2, generators=gens, lineality=lin) for gens, lin in [
        ([(1, 0), (0, 1)], []),
        ([(1, 1)], []),
        ([(0, 1)], [(1, 0)]),
        ([], []),
        ([(1, 0), (0, 1), (-1, -1)], []),
        ([(2, 1), (1, 3), (1, 1)], []),
    ]]
    built += [cone_negate(c) for c in built]
    # cones from make_cone and cone_negate keep their polar, so reading
    # their rows runs no double description; a cone built by hand does
    with monkeypatch.context() as patch:
        patch.setattr(dd, "cone_from_inequalities", lambda *args: pytest.fail("DD ran"))
        kept = [cone_rows(c) for c in built]
    by_hand = [cone_rows(PolyhedralCone(2, c.generators, c.lineality)) for c in built]
    for c, rows in zip(built + built, kept + by_hand):
        for g in c.sample_directions():
            assert all(dot(a, g) <= 0 for a in rows)
        # rebuild through the rows and compare
        rays, l = dd.cone_from_inequalities([vec(a) for a in rows], 2)
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
    for x in [(1,), (1, 0, 0)]:
        with pytest.raises(InputError):
            cone_sum_decompose(a, b, x)


def test_opposite_direction_witness():
    n1 = make_cone(2, generators=[(1, 0)])
    n2 = make_cone(2, generators=[(-1, 0)])
    w = extremal_intersection_condition(n1, n2)
    assert w == (1, 0)
    assert n1.contains(w)
    assert n2.contains(tuple(-v for v in w))
    assert extremal_intersection_condition(n1, n1) is None
    assert extremal_intersection_condition(n1, make_cone(2)) is None


def random_generator_set(seed):
    """(dim, generators, lineality) in dims 1-5, with duplicates, positive
    rescalings, negations, a conic combination and lineality. Half the
    sets lie in the open halfspace x0 > 0 and have no negations or
    lineality, so they are pointed with redundant generators."""
    rng = random.Random(seed)
    dim = 1 + seed % 5
    low = rng.choice((-3, 1))

    def rand_vec():
        return (rng.randint(low, 3),) + tuple(rng.randint(-3, 3) for _ in range(dim - 1))

    gens = [rand_vec() for _ in range(rng.randint(0, dim + 3))]
    for g in list(gens):
        roll = rng.random()
        if roll < 0.2 and low < 0:
            gens.append(vneg(g))
        elif roll < 0.35:
            gens.append(tuple(F(rng.randint(1, 4), rng.randint(1, 3)) * x for x in g))
    if len(gens) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(gens, 2)
        s, t = rng.randint(0, 3), rng.randint(1, 3)
        gens.append(tuple(s * x + t * y for x, y in zip(a, b)))
    rng.shuffle(gens)
    lin = [rand_vec() for _ in range(rng.choice((0, 0, 1, 2) if low < 0 else (0,)))]
    return dim, gens, lin


def test_make_cone_matches_reference_on_random_sets():
    shapes = set()
    for seed in range(2000):
        dim, gens, lin = random_generator_set(seed)
        c = make_cone(dim, gens, lin)
        assert c == reference_make_cone(dim, gens, lin), seed
        shapes.add((bool(c.generators), len(c.lineality) == dim, bool(c.lineality)))
    # trivial, pointed, with both rays and lineality, and the whole space
    assert {(False, False, False), (True, False, False), (True, False, True),
            (False, True, True)} <= shapes


def test_make_cone_matches_reference_on_suite_inputs(monkeypatch):
    calls = []
    build = cones.make_cone

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return build(*args, **kwargs)

    monkeypatch.setattr(cones, "make_cone", recorded)
    assert suite.run_suite(dims=(2, 3), seed_range=(1, 6)).ok
    assert len(calls) > 80
    for args, kwargs in calls:
        assert build(*args, **kwargs) == reference_make_cone(*args, **kwargs)


def test_canonical_equality_iff_semantic_equality():
    shapes = [
        make_cone(2, generators=[(1, 0), (0, 1)]),
        make_cone(2, generators=[(2, 0), (0, 3), (1, 1)]),
        make_cone(2, generators=[(1, 0)], lineality=[(0, 1)]),
        make_cone(2, generators=[(1, 0), (0, 1), (0, -1)]),
        make_cone(2, generators=[(1, 1), (1, -1)]),
        make_cone(2, lineality=[(1, 0), (0, 1)]),
        make_cone(3, generators=[(1, 0, 0), (0, 1, 0)]),
    ]
    shapes += [make_cone(*random_generator_set(seed)) for seed in range(60)]
    for i, a in enumerate(shapes):
        for b in shapes[i:]:
            assert (a == b) == cones_equal(a, b) == reference_cones_equal(a, b)


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
POSITIVE = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9).filter(bool)


@st.composite
def cone_inputs(draw):
    dim = draw(st.integers(1, 4))
    vectors = st.tuples(*[st.integers(-3, 3)] * dim)
    return dim, draw(st.lists(vectors, max_size=dim + 2)), draw(st.lists(vectors, max_size=1))


@PROPERTY
@given(cone_inputs(), st.data())
def test_make_cone_ignores_order_scale_and_implied_generators(inputs, data):
    dim, gens, lin = inputs
    c = make_cone(dim, gens, lin)
    assert c == reference_make_cone(dim, gens, lin)
    assert make_cone(dim, data.draw(st.permutations(gens)), lin) == c
    scales = data.draw(st.lists(POSITIVE, min_size=len(gens), max_size=len(gens)))
    assert make_cone(dim, [tuple(s * x for x in g) for s, g in zip(scales, gens)], lin) == c
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    combination = tuple(sum(w * g[j] for w, g in zip(weights, gens)) for j in range(dim))
    assert make_cone(dim, gens + [combination], lin) == c


@PROPERTY
@given(cone_inputs(), st.data())
def test_negated_generator_joins_the_lineality(inputs, data):
    dim, gens, lin = inputs
    assume(gens)
    g = data.draw(st.sampled_from(gens))
    c = make_cone(dim, gens + [vneg(g)], lin)
    assert rank(list(c.lineality) + [g]) == len(c.lineality)
    assert c == make_cone(dim, gens, lin + [g])
    assert c == reference_make_cone(dim, gens + [vneg(g)], lin)


def test_wrong_length_vectors_rejected():
    with pytest.raises(InputError):
        make_cone(2, generators=[(1, 2, 3)])
    with pytest.raises(InputError):
        make_cone(2, generators=[(1, 0)], lineality=[(0, 1, 1)])


@pytest.mark.parametrize("cap", ["MAX_LIVE_RAYS", "MAX_ROWS"])
def test_dd_caps_apply(monkeypatch, cap):
    square = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]
    assert len(make_cone(3, square).generators) == 4
    monkeypatch.setattr(dd, cap, 2)
    with pytest.raises(CapacityError):
        make_cone(3, square)


def test_contains_solves_each_point_once(monkeypatch):
    solved, checked = [], []
    membership = cones._conic_membership
    check = cones._check_polar_witness

    def counted(gens, lin, x):
        solved.append(x)
        return membership(gens, lin, x)

    def counted_check(c, p, in_lineality):
        checked.append(p)
        check(c, p, in_lineality)

    c = make_cone(2, generators=[(1, 0), (0, 1)])
    twin = make_cone(2, generators=[(0, 1), (1, 0)])
    monkeypatch.setattr(cones, "_conic_membership", counted)
    monkeypatch.setattr(cones, "_check_polar_witness", counted_check)
    for _ in range(3):
        assert c.contains((1, 2)) and c.contains((F(1), F(2)))
        assert not c.contains((-1, 0)) and not c.contains((-2, 5))
        assert not c.contains((1, 2, 3))
    # a point inside is solved once; points outside are answered by the
    # polar ray (-1, 0), which is checked once
    assert solved == [vec((1, 2))]
    assert checked == [vec((-1, 0))]
    # the kept answers are not part of the cone's value
    assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)


def _sample_points(dim, gens, lin, rng):
    """Points to ask a cone about: its inputs and their negations, sums
    of two, and random integer and rational points."""
    inputs = [vec(g) for g in gens + lin]
    out = inputs + [vneg(g) for g in inputs]
    out += [tuple(a + b for a, b in zip(g, h)) for g, h in zip(inputs, inputs[1:])]
    out += [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
            for _ in range(6)]
    return out


def _assert_polar_answers(c, gens, lin, points):
    """contains agrees with the membership LP at each point, and each
    polar witness separates the point from every input vector."""
    for x in map(vec, points):
        want = cones._conic_membership(c.generators, c.lineality, x)
        assert c.contains(x) == want, (c, x)
        assert cone_negate(c).contains(vneg(x)) == want, (c, x)
        witness = cones._polar_witness(c._polar, x)
        assert (witness is None) == want, (c, x)
        if witness is not None:
            p, in_lineality = witness
            assert dot(p, x) > 0 or (in_lineality and dot(p, x))
            assert all(dot(p, g) <= 0 and not (in_lineality and dot(p, g)) for g in map(vec, gens))
            assert all(not dot(p, l) for l in map(vec, lin))


def test_polar_answers_match_membership_lps_on_random_sets():
    rng = random.Random(7)
    outside = 0
    for seed in range(200):
        dim, gens, lin = random_generator_set(seed)
        points = _sample_points(dim, gens, lin, rng)
        c = make_cone(dim, gens, lin)
        _assert_polar_answers(c, gens, lin, points)
        outside += sum(not c.contains(x) for x in points)
        if seed < 40:
            # a cone built by hand runs its polar's double description
            by_hand = PolyhedralCone(dim, c.generators, c.lineality)
            assert [by_hand.contains(x) for x in points] == [c.contains(x) for x in points]
    assert outside > 500


def test_polar_answers_match_membership_lps_on_suite_questions(monkeypatch):
    asked = []
    decide = cones.PolyhedralCone._decide

    def recorded(c, x):
        asked.append((c, x))
        return decide(c, x)

    monkeypatch.setattr(cones.PolyhedralCone, "_decide", recorded)
    assert suite.run_suite(dims=(2, 3), seed_range=(1, 4), lp_count=10, boundary_count=10).ok
    answers = [(c, x, decide(c, x)) for c, x in asked]
    assert sum(not a for _, _, a in answers) > 100
    for c, x, answer in answers:
        assert c._polar is not None
        assert answer == cones._conic_membership(c.generators, c.lineality, x), (c, x)


@PROPERTY
@given(cone_inputs(), st.data())
def test_polar_answers_match_membership_lps(inputs, data):
    dim, gens, lin = inputs
    point = st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * dim)
    points = data.draw(st.lists(point, min_size=1, max_size=4))
    points += [tuple(-x for x in g) for g in gens]
    _assert_polar_answers(make_cone(dim, gens, lin), gens, lin, points)


@pytest.mark.parametrize("gens, lin, rays, polar_lin, x", [
    # the polar ray (1, -1) is positive on the generator (1, 0)
    ([(1, 0), (0, 1)], [], [(1, -1), (0, -1)], [], (1, 0)),
    # the polar lineality vector (1, 1) meets the generator (1, 0)
    ([(1, 0)], [(0, 1)], [(-1, 0)], [(1, 1)], (1, 0)),
    # the polar lineality vector (-1, 1) is negative on the generator (1, 0)
    ([(1, 0)], [], [(-1, 0)], [(-1, 1)], (0, 1)),
    # the polar ray (0, 1) meets the lineality (0, 1)
    ([(1, 0)], [(0, 1)], [(-1, 0), (0, 1)], [], (0, 1)),
], ids=["ray-fails-generator", "lineality-fails-generator", "lineality-below-generator",
        "ray-fails-lineality"])
def test_tampered_polar_witness_raises(gens, lin, rays, polar_lin, x):
    c = make_cone(2, gens, lin)
    polar = (tuple(map(vec, rays)), tuple(map(vec, polar_lin)))
    bad = PolyhedralCone(2, c.generators, c.lineality, polar)
    with pytest.raises(InternalError, match="polar vector"):
        bad.contains(x)


def test_polar_missing_a_row_raises():
    # the quadrant's polar with its ray (0, -1) dropped
    c = make_cone(2, generators=[(1, 0), (0, 1)])
    bad = PolyhedralCone(2, c.generators, c.lineality, ((vec((-1, 0)),), ()))
    assert not bad.contains((-1, 0))
    with pytest.raises(InternalError, match="misses"):
        bad.contains((0, -1))
