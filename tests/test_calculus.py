"""Qualification conditions, the normal-cone rule, and support identities."""
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyexact import calculus
from polyexact.calculus import (
    InfConvolutionValue,
    QcReport,
    common_point,
    core_at_zero,
    difference_interiority,
    inf_convolution_support,
    intersection_rule,
    qualification_report,
    standard_probes,
    support_intersection_theorem,
    support_value,
)
from polyexact.cones import cones_equal, make_cone, normal_cone
from polyexact.errors import InputError, InternalError, PreconditionError
from polyexact.extremality import is_extremal_system
from polyexact.instances import load_instance
from polyexact.linalg import dot, unit_vec, vadd, vec, vscale, vsub, zero_vec
from polyexact.oracle import Lcg, random_pair_with_common_point, random_polytope
from polyexact.sets import ConvexSet, ball_inf
from polyexact.suite import FIXTURE_PAIRS
from definition_oracles import prop33_hypotheses, vertex_support_oracle
from reach_reference import reference_reach


def box(x0, x1, y0, y1):
    return ConvexSet.from_hrep(2, ineqs=[
        ((1, 0), x1), ((-1, 0), -x0), ((0, 1), y1), ((0, -1), -y0)])


def upper_halfplane():
    return ConvexSet.from_hrep(2, ineqs=[((0, -1), 0)])


def vertical_axis():
    return ConvexSet.from_hrep(2, eqs=[((1, 0), 0)])


def unit_square():
    return box(0, 1, 0, 1)


# -- common points and difference interiority --------------------------------

def test_common_point_membership():
    s1, s2 = unit_square(), box(F(1, 2), F(3, 2), 0, 1)
    p = common_point(s1, s2)
    assert s1.contains(p) and s2.contains(p)


def test_common_point_disjoint():
    assert common_point(unit_square(), box(2, 3, 0, 1)) is None


def test_common_point_dim_mismatch():
    with pytest.raises(InputError):
        common_point(unit_square(), ConvexSet.from_hrep(3, ineqs=[((1, 0, 0), 1)]))


def test_difference_interiority_frozen():
    assert difference_interiority(upper_halfplane(), vertical_axis()) == 1
    assert difference_interiority(unit_square(), box(F(1, 2), F(3, 2), 0, 1)) == F(1, 2)
    assert difference_interiority(unit_square(), box(1, 2, 1, 2)) is None


def test_difference_interiority_matches_extremality():
    # interior origin in the difference refutes extremality and vice versa
    for dim in (2, 3):
        for seed in range(1, 21):
            s1, s2, _ = random_pair_with_common_point(seed, dim)
            radius = difference_interiority(s1, s2)
            verdict = is_extremal_system(s1, s2)
            assert (radius is not None) == (not verdict.extremal)


def test_core_at_zero_frozen():
    assert core_at_zero(upper_halfplane(), vertical_axis())
    assert not core_at_zero(unit_square(), box(1, 2, 1, 2))
    assert core_at_zero(unit_square(), unit_square())


def test_core_matches_materialized_core():
    for dim in (2, 3):
        for seed in range(1, 16):
            s1, s2, _ = random_pair_with_common_point(seed, dim)
            d = s1.difference(s2)
            assert core_at_zero(s1, s2) == d.core_contains(zero_vec(dim))


# -- the prepared gauge program -----------------------------------------------

def _corners_and_axes(dim):
    corners = [tuple(F(1) if bits >> j & 1 else F(-1) for j in range(dim))
               for bits in range(1 << dim)]
    return corners + [unit_vec(dim, i, sign) for i in range(dim) for sign in (1, -1)]


def _fixture_pairs():
    for name, (first, second, _) in sorted(FIXTURE_PAIRS.items()):
        doc = load_instance(name)
        yield name, doc.get_set(first), doc.get_set(second)


def _check_reach(s1, s2, system, d, label):
    """The reach along d on system, the gauge program of (s1, s2), after
    checking it against the cold reference program and checking its
    pair; a disjoint pair reaches zero with no pair."""
    delta, x1, x2 = calculus._reach_along(system, d)
    if common_point(s1, s2) is None:
        assert (delta, x1, x2) == (0, None, None), (label, d)
    else:
        assert delta == reference_reach(s1, s2, d)[0], (label, d)
        assert s1.contains(x1) and s2.contains(x2), (label, d)
        assert vsub(x1, x2) == vscale(delta, d), (label, d)
    return delta


def _assert_reaches_match_reference(s1, s2, label):
    system = calculus._reach_system(s1, s2)
    for d in _corners_and_axes(s1.dim):
        _check_reach(s1, s2, system, d, label)


@pytest.mark.parametrize("dim, top", [(2, 12), (3, 12), (4, 6)])
def test_prepared_reach_matches_reference_on_random_pairs(dim, top):
    for seed in range(1, top + 1):
        s1, s2, _ = random_pair_with_common_point(seed, dim)
        _assert_reaches_match_reference(s1, s2, seed)


def test_prepared_reach_matches_reference_on_fixture_pairs():
    for name, s1, s2 in _fixture_pairs():
        _assert_reaches_match_reference(s1, s2, name)
        _assert_reaches_match_reference(s2, s1, name)


def test_directions_leaving_the_affine_hull_reach_zero():
    # both pairs have A - B = the vertical axis, so a direction with a
    # nonzero first coordinate leaves it
    axis = load_instance("halfplane-and-axis").get_set("axis")
    for s1, s2 in [(vertical_axis(), vertical_axis()), (axis, axis)]:
        system = calculus._reach_system(s1, s2)
        for d, want in [((1, 1), 0), ((-1, 0), 0), ((1, -1), 0), ((0, 1), 1), ((0, -1), 1)]:
            d = vec(d)
            delta, x1, x2 = calculus._reach_along(system, d)
            assert delta == want == reference_reach(s1, s2, d)[0]
            assert vsub(x1, x2) == vscale(delta, d)
        assert difference_interiority(s1, s2) is None
        assert not core_at_zero(s1, s2)


def test_disjoint_pair_reaches_zero_with_no_pair():
    s1, s2 = unit_square(), box(F(3, 2), 2, 0, 1)
    system = calculus._reach_system(s1, s2)
    assert system.point is None and system.system is None
    for d in _corners_and_axes(2):
        assert calculus._reach_along(system, d) == (0, None, None)
    # the difference [-2, -1/2] x [-1, 1] misses the origin, though a
    # program along (-1, 0) alone can reach it
    assert reference_reach(s1, s2, vec((-1, 0)))[0] == 1
    assert difference_interiority(s1, s2) is None
    assert not core_at_zero(s1, s2)


def test_rational_direction_reaches_the_reference_value():
    # the square minus the shifted box is [-3/2, 1/2] x [-1, 1]; along
    # (2, -3/2) it ends on the edge x = 1/2, at delta = 1/4
    s1, s2 = unit_square(), box(F(1, 2), F(3, 2), 0, 1)
    d = vec((2, F(-3, 2)))
    delta, x1, x2 = calculus._reach_along(calculus._reach_system(s1, s2), d)
    assert delta == F(1, 4) == reference_reach(s1, s2, d)[0]
    assert s1.contains(x1) and s2.contains(x2) and vsub(x1, x2) == vscale(delta, d)


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_prepared_reach_matches_reference_along_rational_directions(data):
    """Random pairs in dims 2-4 in both orders, a pair with an equality
    row, a disjoint pair and a pair with no rows, along rational
    directions."""
    kind = data.draw(st.sampled_from(["random", "equality", "disjoint", "no-rows"]))
    if kind == "random":
        dim = data.draw(st.integers(2, 4))
        s1, s2, _ = random_pair_with_common_point(data.draw(st.integers(1, 40)), dim)
        if data.draw(st.booleans()):
            s1, s2 = s2, s1
    elif kind == "equality":
        dim = 2
        s1, s2 = unit_square(), ConvexSet.from_hrep(2, ineqs=[((1, 0), 1)], eqs=[((1, 1), 1)])
    elif kind == "disjoint":
        dim = 2
        s1, s2 = unit_square(), box(F(3, 2), 2, 0, 1)
    else:
        dim = data.draw(st.integers(1, 3))
        s1 = s2 = ConvexSet.from_hrep(dim)
    d = tuple(data.draw(_rational) for _ in range(dim))
    assume(any(d))
    delta = _check_reach(s1, s2, calculus._reach_system(s1, s2), vec(d), kind)
    if kind == "no-rows":
        assert delta == 1


# -- qualification report -----------------------------------------------------

def test_report_halfplane_and_axis():
    rep = qualification_report(upper_halfplane(), vertical_axis(), (0, 0))
    assert rep == QcReport(
        classical_interiority=False,
        difference_interiority=True,
        bounded_extremality=True,
        bounded_extremality_radius=F(1),
        core_condition=True,
    )


def test_report_overlapping_boxes():
    rep = qualification_report(unit_square(), box(F(1, 2), F(3, 2), 0, 1), (F(3, 4), F(1, 2)))
    assert rep.classical_interiority
    assert rep.difference_interiority and rep.bounded_extremality and rep.core_condition
    assert rep.bounded_extremality_radius == 1


def test_report_touching_corner_boxes():
    rep = qualification_report(unit_square(), box(1, 2, 1, 2), (1, 1))
    assert rep == QcReport(False, False, False, None, False)


def test_report_raises_when_the_unit_window_fails(monkeypatch):
    build = calculus._window_pair
    for tamper in [
        # a' moved off its corner's ray
        lambda t, a, b: (t, vadd(a, (F(1, 1000), 0)), b),
        # both moved up the axis, so b' leaves the unit window
        lambda t, a, b: (t, vadd(a, (0, 5)), vadd(b, (0, 5))),
        # b' moved down, off its ray and out of the window
        lambda t, a, b: (t, a, vadd(b, (0, -5))),
    ]:
        monkeypatch.setattr(calculus, "_window_pair",
                            lambda x, a, b, tamper=tamper: tamper(*build(x, a, b)))
        with pytest.raises(InternalError, match="unit window"):
            qualification_report(upper_halfplane(), vertical_axis(), (0, 0))


_ORIGIN = vec((0, 0))


@pytest.mark.parametrize("c, delta, t, a, b", [
    ((1, 1), 1, 1, (1, F(3, 2)), (0, 0)),          # a - b off the ray
    ((1, 1), 1, 1, (1, 4), (0, 3)),                # b outside the window
    ((1, -1), 1, 1, (1, F(-1, 2)), (0, F(1, 2))),  # a outside s1
    ((1, 1), 1, 1, (F(3, 2), 1), (F(1, 2), 0)),    # b right of s2
    ((1, 1), 1, 1, (F(1, 2), 1), (F(-1, 2), 0)),   # b left of s2
    ((1, 1), 1, 0, (0, 0), (0, 0)),                # a reach of zero
], ids=["ray", "window", "first-set", "second-set", "second-set-left", "zero-reach"])
def test_window_check_rejects_each_broken_condition(c, delta, t, a, b):
    # s1 = {y >= 0} and s2 = {x = 0}: each pair fails one condition only
    s1, s2 = upper_halfplane(), vertical_axis()
    good = vec((1, 1)), vec((0, 0))
    calculus._check_window_pair(s1, s2, _ORIGIN, vec((1, 1)), F(1), F(1), *good)
    with pytest.raises(InternalError, match="unit window"):
        calculus._check_window_pair(s1, s2, _ORIGIN, vec(c), F(delta), F(t), vec(a), vec(b))


def test_window_pairs_are_the_shrunk_corner_pairs():
    # the windowed pairs of every interior corner lie where the windowed
    # reach program of the same corner, solved cold, says a pair exists
    for dim in (2, 3):
        for seed in range(1, 13):
            s1, s2, x = random_pair_with_common_point(seed, dim)
            corners = calculus._corner_decompositions(s1, s2)
            if corners is None:
                continue
            window = s2.intersect(ball_inf(x, 1))
            for c, delta, a, b in corners:
                t, a2, b2 = calculus._window_pair(x, a, b)
                assert s1.contains(a2) and window.contains(b2)
                assert vsub(a2, b2) == vscale(t * delta, c)
                assert 0 < t * delta <= reference_reach(s1, window, c)[0]


def test_report_requires_common_point():
    with pytest.raises(PreconditionError):
        qualification_report(unit_square(), unit_square(), (2, 2))


def test_report_invariants_random():
    # classical implies the windowed condition; on polyhedra the core,
    # the difference condition, and the windowed condition coincide
    classical_hits = 0
    for dim in (2, 3):
        for seed in range(1, 21):
            s1, s2, anchor = random_pair_with_common_point(seed, dim)
            rep = qualification_report(s1, s2, anchor)
            if rep.classical_interiority:
                assert rep.bounded_extremality
                classical_hits += 1
            assert rep.core_condition == rep.difference_interiority
            assert rep.bounded_extremality == rep.difference_interiority
            assert (rep.bounded_extremality_radius is not None) == rep.bounded_extremality
    assert classical_hits >= 5


# -- the normal-cone intersection rule ----------------------------------------

def test_rule_halfplane_and_axis():
    res = intersection_rule(upper_halfplane(), vertical_axis(), (0, 0))
    assert res.equal
    expected = make_cone(2, generators=[(0, -1)], lineality=[(1, 0)])
    assert cones_equal(res.lhs, expected) and cones_equal(res.rhs, expected)
    by_probe = {d.probe: d for d in res.decompositions}
    assert by_probe[vec((0, 1))].in_lhs is False
    down = by_probe[vec((0, -1))]
    assert down.in_lhs and vadd(down.part1, down.part2) == vec((0, -1))


def test_rule_identical_squares():
    res = intersection_rule(unit_square(), unit_square(), (0, 0))
    expected = make_cone(2, generators=[(-1, 0), (0, -1)])
    assert res.equal and cones_equal(res.lhs, expected)
    assert res.lhs.contains(vec((-1, -1)))
    assert not res.lhs.contains(vec((1, 0)))


def test_rule_probe_splits_random():
    for dim in (2, 3):
        for seed in range(1, 16):
            s1, s2, anchor = random_pair_with_common_point(seed, dim)
            probes = standard_probes(dim)[:2 * dim + 4]
            res = intersection_rule(s1, s2, anchor, probes=probes)
            assert res.equal
            n1 = normal_cone(s1, anchor)
            n2 = normal_cone(s2, anchor)
            for d in res.decompositions:
                if d.in_lhs:
                    assert vadd(d.part1, d.part2) == d.probe
                    assert n1.contains(d.part1) and n2.contains(d.part2)
                else:
                    assert d.part1 is None and d.part2 is None


def test_rule_sum_inside_intersection_cone_random():
    # one inclusion holds with no qualification at all
    for dim in (2, 3):
        for seed in range(30, 46):
            s1, s2, anchor = random_pair_with_common_point(seed, dim)
            res = intersection_rule(s1, s2, anchor, probes=())
            for g in res.rhs.sample_directions():
                assert res.lhs.contains(g)


def test_standard_probes_shape():
    probes = standard_probes(3)
    assert len(probes) == 22
    assert probes[:2] == (vec((1, 0, 0)), vec((-1, 0, 0)))
    assert all(any(p) for p in probes)
    assert probes == standard_probes(3)
    with pytest.raises(InputError):
        standard_probes(0)


# -- support values ------------------------------------------------------------

def test_support_square_frozen():
    up = support_value(unit_square(), (1, 1))
    assert (up.value, up.maximizer) == (F(2), vec((1, 1)))
    down = support_value(unit_square(), (-1, -1))
    assert (down.value, down.maximizer) == (F(0), vec((0, 0)))


def test_support_unbounded_ray():
    sv = support_value(upper_halfplane(), (1, 0))
    assert sv.value is None and sv.maximizer is None
    assert dot(vec((1, 0)), sv.ray) > 0


def test_support_empty_rejected():
    empty = ConvexSet.from_hrep(2, ineqs=[((1, 0), 0), ((-1, 0), -1)])
    with pytest.raises(PreconditionError):
        support_value(empty, (1, 0))


def test_support_matches_vertex_oracle():
    for dim in (2, 3):
        for seed in range(1, 16):
            s = random_polytope(seed, dim)
            rng = Lcg(900 + seed)
            for _ in range(3):
                g = tuple(rng.fraction() for _ in range(dim))
                sv = support_value(s, g)
                assert sv.value == vertex_support_oracle(s, g)
                assert s.contains(sv.maximizer)
                assert dot(vec(g), sv.maximizer) == sv.value


def test_support_scaling():
    s = random_polytope(7, 2)
    g = vec((F(2), F(-1, 2)))
    assert support_value(s, vscale(F(3, 2), g)).value == F(3, 2) * support_value(s, g).value


# -- infimal convolution --------------------------------------------------------

def test_infconv_two_boxes_frozen():
    out = inf_convolution_support(unit_square(), box(1, 2, 0, 1), (0, 1))
    assert out == InfConvolutionValue("finite", F(1), vec((0, 1)), vec((0, 0)))


def test_infconv_zero_functional():
    out = inf_convolution_support(unit_square(), box(1, 2, 0, 1), (0, 0))
    assert out.kind == "finite" and out.value == 0
    assert out.witness1 == vec((0, 0)) and out.witness2 == vec((0, 0))


def test_infconv_plus_infinity():
    up = upper_halfplane()
    assert inf_convolution_support(up, up, (1, 0)).kind == "plus-infinity"


def test_infconv_minus_infinity():
    lower = ConvexSet.from_hrep(2, ineqs=[((0, 1), 0)])
    raised = ConvexSet.from_hrep(2, ineqs=[((0, -1), -1)])
    assert inf_convolution_support(lower, raised, (0, 0)).kind == "minus-infinity"


def test_infconv_bounded_pairs_follow_intersection():
    # bounded sets keep both supports finite everywhere, yet the infimum
    # still drops to minus infinity exactly when the sets are disjoint
    finite = dropped = 0
    rng = Lcg(41)
    for seed in range(1, 21):
        s1 = random_polytope(seed, 2)
        s2 = random_polytope(seed + 100, 2)
        g = tuple(rng.fraction() for _ in range(2))
        out = inf_convolution_support(s1, s2, g)
        if common_point(s1, s2) is not None:
            assert out.kind == "finite"
            assert vadd(out.witness1, out.witness2) == vec(g)
            finite += 1
        else:
            assert out.kind == "minus-infinity"
            dropped += 1
    assert finite >= 3 and dropped >= 3


def test_infconv_witnesses_attain_with_equality_rows():
    """Each witness is read back from its own set's multipliers, those
    of equality rows included, so the two supports add up to the value."""
    segment = ConvexSet.from_hrep(2, ineqs=[((1, 0), 1), ((-1, 0), 0)], eqs=[((0, 1), 0)])
    for s1, s2 in ((segment, box(0, 2, -1, 1)), (box(0, 2, -1, 1), segment)):
        for g in ((1, 1), (1, -1), (2, -1)):
            out = inf_convolution_support(s1, s2, g)
            assert out.kind == "finite"
            assert support_value(s1, out.witness1).value + support_value(s2, out.witness2).value \
                == out.value
            assert vadd(out.witness1, out.witness2) == vec(g)


def test_infconv_scaling():
    s1, s2 = unit_square(), box(1, 2, 0, 1)
    g = vec((F(1, 2), F(1)))
    base = inf_convolution_support(s1, s2, g)
    scaled = inf_convolution_support(s1, s2, vscale(F(3), g))
    assert scaled.value == 3 * base.value


# -- the intersection support identity ------------------------------------------

def test_theorem_overlapping_boxes_frozen():
    v = support_intersection_theorem(unit_square(), box(F(1, 2), F(3, 2), 0, 1), (1, 1))
    assert v.hypotheses_met and v.equal and v.attained and v.inequality_holds
    assert v.intersection_support.value == 2
    assert v.convolution.value == 2
    assert vadd(v.convolution.witness1, v.convolution.witness2) == vec((1, 1))


def test_theorem_zero_functional():
    v = support_intersection_theorem(unit_square(), box(F(1, 2), F(3, 2), 0, 1), (0, 0))
    assert v.intersection_support.value == 0 and v.convolution.value == 0


def test_theorem_hypotheses_not_met_corner():
    v = support_intersection_theorem(unit_square(), box(1, 2, 1, 2), (1, 1))
    assert not v.hypotheses_met
    assert not v.difference_interiority
    assert v.inequality_holds


def test_theorem_hypotheses_not_met_unbounded():
    v = support_intersection_theorem(upper_halfplane(), vertical_axis(), (1, 0))
    assert not v.hypotheses_met and v.bounded_side == 0
    assert v.intersection_support.value == 0
    assert v.inequality_holds


def test_theorem_engineered_hypotheses_random():
    met = 0
    for dim in (2, 3):
        for seed in range(1, 11):
            s1 = random_polytope(seed, dim)
            center = s1.interior_point()
            if center is None:
                continue
            s2 = ball_inf(center, F(1))
            for g in standard_probes(dim)[:2 * dim + 2]:
                v = support_intersection_theorem(s1, s2, g)
                assert v.hypotheses_met and v.equal and v.attained
            met += 1
    assert met >= 12


def test_theorem_inequality_universal_random():
    for dim in (2, 3):
        for seed in range(1, 16):
            s1, s2, _ = random_pair_with_common_point(seed, dim)
            for g in standard_probes(dim)[:4]:
                assert support_intersection_theorem(s1, s2, g).inequality_holds


@pytest.mark.parametrize("pair, g", [
    ((unit_square(), box(F(1, 2), F(3, 2), 0, 1)), (1, 1)),  # hypotheses met
    ((upper_halfplane(), ConvexSet.from_hrep(2, ineqs=[((0, 1), 1)])), (0, 1)),  # none bounded
], ids=["hypotheses", "no-hypotheses"])
def test_theorem_raises_on_a_split_that_does_not_attain(monkeypatch, pair, g):
    # the convolution is read off the intersection's own program, so the
    # theorem checks attainment on each set's system, whatever the
    # hypotheses; a split moved by 2 e_1 keeps its sum and its value
    real = calculus.inf_convolution_support

    def shifted(s1, s2, g):
        out = real(s1, s2, g)
        e = vscale(2, unit_vec(s1.dim, 0))
        return InfConvolutionValue(out.kind, out.value, vadd(out.witness1, e),
                                   vsub(out.witness2, e))

    monkeypatch.setattr(calculus, "inf_convolution_support", shifted)
    with pytest.raises(InternalError, match="attain"):
        support_intersection_theorem(*pair, g)


def test_theorem_rejects_empty_input():
    empty = ConvexSet.from_hrep(2, ineqs=[((1, 0), 0), ((-1, 0), -1)])
    with pytest.raises(PreconditionError):
        support_intersection_theorem(empty, unit_square(), (1, 0))


# -- hypotheses of the windowed qualification ------------------------------------

def test_prop33_frozen():
    assert prop33_hypotheses(upper_halfplane(), vertical_axis())
    assert not prop33_hypotheses(unit_square(), box(1, 2, 1, 2))
    assert prop33_hypotheses(unit_square(), unit_square())


def test_prop33_implies_windowed_condition():
    hits = 0
    for dim in (2, 3):
        for seed in range(1, 16):
            s1, s2, anchor = random_pair_with_common_point(seed, dim)
            if prop33_hypotheses(s1, s2):
                assert qualification_report(s1, s2, anchor).bounded_extremality
                hits += 1
    assert hits >= 10
