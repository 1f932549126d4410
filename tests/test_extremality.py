from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyexact import extremality, lp, suite
from polyexact.calculus import support_value
from polyexact.cones import normal_cone
from polyexact.errors import InputError, InternalError, PreconditionError
from polyexact.extremality import (
    EPSILON_GRID,
    ApproxEpCertificate,
    approximate_extremal_principle,
    check_sufficient_interiority,
    exact_extremal_principle,
    find_perturbation,
    is_extremal_system,
    separate,
    support_point_near,
    verify_approx_ep,
)
from polyexact.linalg import dot, l1_norm, linf_norm, vec, vneg, vscale, vsub, zero_vec
from polyexact.oracle import (
    grid_cell,
    grid_interior_verdict,
    random_pair_with_common_point,
    random_polytope,
)
from polyexact.sets import ConvexSet


def lower_halfplane():
    return ConvexSet.from_hrep(2, ineqs=[((0, 1), 0)])


def upper_halfplane():
    return ConvexSet.from_hrep(2, ineqs=[((0, -1), 0)])


def vertical_axis():
    return ConvexSet.from_hrep(2, eqs=[((1, 0), 0)])


def box(x0, x1, y0, y1):
    return ConvexSet.from_hrep(
        2, ineqs=[((1, 0), x1), ((-1, 0), -x0), ((0, 1), y1), ((0, -1), -y0)])


def test_halfplane_pair_extremal_with_perturbation():
    v = is_extremal_system(lower_halfplane(), upper_halfplane(), epsilon=F(1, 2))
    assert v.extremal
    assert v.boundary_evidence == ((F(0), F(1)), F(0))
    assert v.interior_ball_radius is None
    assert v.perturbation == (F(0), F(-1, 2))


def test_halfplane_vs_axis_not_extremal():
    v = is_extremal_system(upper_halfplane(), vertical_axis())
    assert not v.extremal
    assert v.boundary_evidence is None
    assert v.perturbation is None
    # difference set is the whole plane, radius falls back to one
    assert v.interior_ball_radius == 1


def test_interior_radius_box_inside_difference():
    s = box(0, 1, 0, 1)
    v = is_extremal_system(s, s)
    assert not v.extremal
    r = v.interior_ball_radius
    assert r > 0
    d = v.difference
    for sx in (-r, r):
        for sy in (-r, r):
            assert d.contains((sx, sy))


def test_touching_boxes_perturbation():
    a = find_perturbation(box(0, 1, 0, 1), box(1, 2, 0, 1), F(1, 10))
    assert a == (F(-1, 10), F(0))
    assert linf_norm(a) <= F(1, 10)


def test_perturbation_actually_separates():
    s1, s2 = lower_halfplane(), upper_halfplane()
    for eps in EPSILON_GRID:
        a = find_perturbation(s1, s2, eps)
        assert linf_norm(a) <= eps
        assert s1.translate(a).intersect(s2).is_empty()


def test_perturbation_is_the_first_candidate_and_empties_the_intersection():
    # the emptiness check the perturbation's separating functional
    # replaced, on random extremal pairs
    checked = 0
    for dim in (2, 3):
        for seed in range(1, 41):
            s1, s2, _ = random_pair_with_common_point(seed, dim)
            v = is_extremal_system(s1, s2, epsilon=F(1, 3))
            if not v.extremal:
                continue
            g, _ = v.boundary_evidence
            assert v.perturbation == vscale(-F(1, 3) / linf_norm(g), g)
            assert s1.translate(v.perturbation).intersect(s2).is_empty()
            checked += 1
    assert checked > 30


def test_perturbation_with_its_sign_flipped_raises(monkeypatch):
    s1, s2 = box(0, 1, 0, 1), box(1, 2, 0, 1)
    g, eps = vec((1, 0)), F(1, 10)
    a = find_perturbation(s1, s2, eps)
    extremality._check_perturbation(s1, s2, g, a, eps)
    for bad in (vneg(a), zero_vec(2), vscale(2, a)):
        with pytest.raises(InternalError, match="does not separate"):
            extremality._check_perturbation(s1, s2, g, bad, eps)
    # the same flip inside the library
    scale = extremality.vscale
    monkeypatch.setattr(extremality, "vscale", lambda c, u: vneg(scale(c, u)))
    with pytest.raises(InternalError, match="does not separate"):
        find_perturbation(s1, s2, eps)


def test_find_perturbation_preconditions():
    with pytest.raises(PreconditionError):
        find_perturbation(box(0, 1, 0, 1), box(0, 1, 0, 1), F(1, 2))
    with pytest.raises(InputError):
        find_perturbation(lower_halfplane(), upper_halfplane(), 0)
    with pytest.raises(PreconditionError):
        find_perturbation(box(0, 1, 0, 1),
                          ConvexSet.from_hrep(2, ineqs=[((1, 0), -1), ((-1, 0), 0)]),
                          F(1, 2))


def test_separate_halfplanes():
    c = separate(lower_halfplane(), upper_halfplane())
    assert c.functional == (F(0), F(1))
    assert c.sup1 == 0 and c.inf2 == 0


def test_separate_disjoint_boxes():
    c = separate(box(0, 1, 0, 1), box(2, 3, 0, 1))
    assert c.functional == (F(1), F(0))
    assert c.sup1 == 1 and c.inf2 == 2


def test_separate_none_for_overlap():
    s = box(0, 1, 0, 1)
    assert separate(s, s) is None


def test_separation_iff_extremal_random():
    for seed in range(1, 31):
        for dim in (2, 3):
            s1, s2, _ = random_pair_with_common_point(seed, dim)
            v = is_extremal_system(s1, s2)
            c = separate(s1, s2)
            assert (c is not None) == v.extremal
            if c is not None:
                assert c.sup1 <= c.inf2
                assert any(c.functional)


def test_sufficient_interiority_halfplanes():
    s1, s2 = lower_halfplane(), upper_halfplane()
    assert check_sufficient_interiority(s1, s2)
    v = is_extremal_system(s1, s2)
    assert v.extremal
    assert v.difference.interior_point() is not None


def test_sufficient_interiority_flat_first_set():
    seg = ConvexSet.from_hrep(2, ineqs=[((0, 1), 1), ((0, -1), 0)],
                              eqs=[((1, 0), 0)])
    assert not check_sufficient_interiority(seg, box(0, 1, 0, 1))


def test_sufficient_interiority_implies_extremal_random():
    hits = 0
    for seed in range(1, 41):
        s1, s2, _ = random_pair_with_common_point(seed, 2)
        if check_sufficient_interiority(s1, s2):
            hits += 1
            v = is_extremal_system(s1, s2)
            assert v.extremal
            assert v.difference.interior_point() is not None
    assert hits >= 5


def test_extremal_implies_open_parts_disjoint():
    checked = 0
    for seed in range(1, 31):
        s1, s2, _ = random_pair_with_common_point(seed, 2)
        if not is_extremal_system(s1, s2).extremal:
            continue
        for a, b in ((s1, s2), (s2, s1)):
            if a.interior_point() is not None:
                checked += 1
                assert check_sufficient_interiority(a, b)
    assert checked > 0


def test_approx_ep_halfplanes_frozen():
    cert = approximate_extremal_principle(
        lower_halfplane(), upper_halfplane(), (0, 0), F(1, 10))
    assert cert.x1 == (F(0), F(0)) and cert.x2 == (F(0), F(0))
    assert cert.xstar1 == (F(0), F(1))
    assert cert.xstar2 == (F(0), F(-1))
    assert cert.error1 == zero_vec(2) and cert.error2 == zero_vec(2)


def test_approx_ep_touching_boxes_exact_cone_membership():
    cert = approximate_extremal_principle(
        box(0, 1, 0, 1), box(1, 2, 0, 1), (1, F(1, 2)), F(1, 10))
    assert cert.x1 == (F(1), F(1, 2)) and cert.x2 == (F(1), F(1, 2))
    assert cert.xstar1 == (F(1), F(0)) and cert.xstar2 == (F(-1), F(0))
    assert cert.normal1 == cert.xstar1 and cert.error1 == zero_vec(2)
    assert cert.normal2 == cert.xstar2 and cert.error2 == zero_vec(2)


def test_approx_ep_all_conditions_random():
    verified = 0
    for seed in range(1, 26):
        s1, s2, x = random_pair_with_common_point(seed, 2)
        if not is_extremal_system(s1, s2).extremal:
            continue
        for eps in EPSILON_GRID:
            cert = approximate_extremal_principle(s1, s2, x, eps)
            assert verify_approx_ep(s1, s2, x, cert)
            assert cert.xstar1 == tuple(-u for u in cert.xstar2)
            assert l1_norm(cert.xstar1) == 1
            verified += 1
    assert verified > 0


def test_gap_minimum_parts_lie_in_the_normal_cones():
    """The stationarity parts n1 and n2 read back from the multipliers of
    each block's rows, equality rows included, are normal to their sets
    at the minimizers and lie within epsilon of -s and s."""
    segment = ConvexSet.from_hrep(2, ineqs=[((1, 0), 1), ((-1, 0), 0)], eqs=[((0, 1), 0)])
    pairs = [(segment, box(0, 1, -1, 0), (F(1, 2), 0)), (box(1, 2, -1, 0), segment, (1, 0))]
    pairs += [(b, a, x) for a, b, x in pairs]
    for s1, s2, x in pairs:
        a = extremality._verified_perturbation(
            s1, s2, extremality._evidence(s1, s2)[1], F(1, 100))
        x1, x2, s, n1, n2 = extremality._penalized_gap_minimum(s1, s2, x, a, F(1, 10))
        assert normal_cone(s1, x1).contains(n1) and normal_cone(s2, x2).contains(n2)
        assert l1_norm(vsub(vneg(s), n1)) <= F(1, 10) and l1_norm(vsub(s, n2)) <= F(1, 10)


def test_gap_solves_of_the_planar_suite_make_no_phase_one_pivot(monkeypatch):
    """The gap program is written from its feasible point, so on the
    planar suite's pairs and its fixture pairs, at every epsilon of the
    grid, its solve starts on a feasible basis and phase one, drive-out
    included, makes no pivot. Every program is still solved in full and
    its certificate checked."""
    gaps, pivots, watching = [], [], []
    build, phase_one, pivot = (extremality._penalized_gap_program, lp._phase_one,
                               lp._Tableau._pivot)

    def recorded_build(*args):
        gaps.append(build(*args))
        return gaps[-1]

    def watched_phase_one(program, rows):
        watching.append(any(program is g for g in gaps))
        try:
            return phase_one(program, rows)
        finally:
            watching.pop()

    def counted_pivot(self, pr, pc, obj):
        if watching and watching[-1]:
            pivots.append((pr, pc))
        pivot(self, pr, pc, obj)

    monkeypatch.setattr(extremality, "_penalized_gap_program", recorded_build)
    monkeypatch.setattr(lp, "_phase_one", watched_phase_one)
    monkeypatch.setattr(lp._Tableau, "_pivot", counted_pivot)
    calls = 0
    for task in suite.build_tasks(dims=(2,)):
        if task[0] not in ("pair", "fixture"):
            continue
        _, s1, s2, anchor = suite._task_instance(task)
        if anchor is None or not is_extremal_system(s1, s2).extremal:
            continue
        for eps in EPSILON_GRID:
            approximate_extremal_principle(s1, s2, anchor, eps)
            calls += 1
    assert len(gaps) == calls > 100
    assert pivots == []


def test_approx_ep_preconditions():
    s = box(0, 1, 0, 1)
    with pytest.raises(PreconditionError):
        approximate_extremal_principle(s, s, (F(1, 2), F(1, 2)), F(1, 10))
    with pytest.raises(PreconditionError):
        approximate_extremal_principle(
            lower_halfplane(), upper_halfplane(), (0, 1), F(1, 10))
    with pytest.raises(InputError):
        approximate_extremal_principle(
            lower_halfplane(), upper_halfplane(), (0, 0), 0)


def test_verify_approx_ep_rejects_forgeries():
    s1, s2 = lower_halfplane(), upper_halfplane()
    cert = approximate_extremal_principle(s1, s2, (0, 0), F(1, 10))
    assert verify_approx_ep(s1, s2, (0, 0), cert)
    bad = ApproxEpCertificate(cert.epsilon, cert.x1, cert.x2,
                              (F(0), F(2)), cert.xstar2,
                              (F(0), F(2)), cert.error1,
                              cert.normal2, cert.error2)
    assert not verify_approx_ep(s1, s2, (0, 0), bad)
    moved = ApproxEpCertificate(cert.epsilon, (F(0), F(1)), cert.x2,
                                cert.xstar1, cert.xstar2, cert.normal1,
                                cert.error1, cert.normal2, cert.error2)
    assert not verify_approx_ep(s1, s2, (0, 0), moved)
    malformed = ApproxEpCertificate(cert.epsilon, cert.x1, cert.x2,
                                    cert.xstar1, cert.xstar2, cert.normal1,
                                    ("x", "y"), cert.normal2, cert.error2)
    assert not verify_approx_ep(s1, s2, (0, 0), malformed)


def test_exact_ep_witness_halfplanes():
    w = exact_extremal_principle(lower_halfplane(), upper_halfplane(), (0, 0))
    assert w == (F(0), F(1))


def test_exact_ep_none_for_overlap():
    s = box(0, 1, 0, 1)
    assert exact_extremal_principle(s, s, (F(1, 2), F(1, 2))) is None


def test_exact_ep_iff_extremal_random():
    for seed in range(1, 41):
        s1, s2, x = random_pair_with_common_point(seed, 2)
        w = exact_extremal_principle(s1, s2, x)
        assert (w is not None) == is_extremal_system(s1, s2).extremal


def test_support_point_square_frozen():
    s = box(0, 1, 0, 1)
    assert support_point_near(s, (0, F(1, 2)), 1) == \
        ((F(0), F(1, 2)), (F(-1), F(0)))
    assert support_point_near(s, (0, 0), 1) == ((F(0), F(0)), (F(-1), F(0)))


def test_support_point_flat_set():
    seg = ConvexSet.from_hrep(2, ineqs=[((0, 1), 1), ((0, -1), 0)],
                              eqs=[((1, 0), 0)])
    x, g = support_point_near(seg, (0, F(1, 2)), F(1, 100))
    assert x == (F(0), F(1, 2))
    assert dot(g, x) == max(dot(g, v) for v in seg.canonical_vrep().vertices)


def test_support_point_random_vertices():
    count = 0
    for seed in range(1, 31):
        s = random_polytope(seed, 2)
        for v in s.canonical_vrep().vertices:
            if s.interior_contains(v):
                continue
            x, g = support_point_near(s, v, 1)
            assert x == v
            assert any(g)
            assert all(dot(g, w) <= dot(g, v) for w in s.canonical_vrep().vertices)
            count += 1
    assert count >= 30


def test_support_point_preconditions():
    s = box(0, 1, 0, 1)
    with pytest.raises(PreconditionError):
        support_point_near(s, (F(1, 2), F(1, 2)), 1)
    with pytest.raises(PreconditionError):
        support_point_near(s, (5, 5), 1)
    with pytest.raises(InputError):
        support_point_near(s, (0, 0), 0)


def test_extremality_matches_grid_oracle_2d():
    cell = grid_cell(F(4))
    decided = 0
    for seed in range(1, 41):
        s1, s2, _ = random_pair_with_common_point(seed, 2)
        v = is_extremal_system(s1, s2)
        verdict = grid_interior_verdict(
            v.difference.canonical_hrep(), zero_vec(2), cell)
        if verdict is None:
            continue
        decided += 1
        assert verdict == (not v.extremal)
    assert decided >= 20


def test_empty_input_rejected():
    empty = ConvexSet.from_hrep(2, ineqs=[((1, 0), -1), ((-1, 0), 0)])
    with pytest.raises(PreconditionError):
        is_extremal_system(empty, box(0, 1, 0, 1))
    with pytest.raises(InputError):
        is_extremal_system(box(0, 1, 0, 1),
                           ConvexSet.from_hrep(3, ineqs=[((1, 0, 0), 1)]))


@pytest.mark.parametrize("first", [True, False], ids=["empty-first", "empty-second"])
def test_empty_input_raises_before_a_bad_epsilon(first):
    # the pair check runs before each call checks its own arguments, so
    # an empty row-described set wins over epsilon 0 in all three calls
    empty = ConvexSet.from_hrep(2, ineqs=[((1, 0), -1), ((-1, 0), 0)])
    pair = (empty, box(0, 1, 0, 1)) if first else (box(0, 1, 0, 1), empty)
    calls = [
        lambda: is_extremal_system(*pair, epsilon=0),
        lambda: find_perturbation(*pair, 0),
        lambda: approximate_extremal_principle(*pair, (0, 0), 0),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="nonempty"):
            call()


@pytest.mark.parametrize("pair", [
    lambda: (box(0, 2, 0, 2), box(1, 3, 1, 3)),
    lambda: random_pair_with_common_point(2, 3)[:2],
    lambda: random_pair_with_common_point(3, 3)[:2],
], ids=["boxes", "dim3-seed2", "dim3-seed3"])
def test_non_extremal_pair_check_solves_no_lp_on_either_set(monkeypatch, pair):
    """Emptiness of a pair is read off its kept difference, so deciding a
    non-extremal row-described pair, and separating it, prepares no LP
    over either set's own rows."""
    s1, s2 = pair()
    own = {(s.hrep().ineqs, s.hrep().eqs) for s in (s1, s2)}
    built = []
    init = lp.PreparedSystem.__init__

    def recorded(self, program, rows=None):
        built.append((tuple(zip(program.ineq_lhs, program.ineq_rhs)),
                      tuple(zip(program.eq_lhs, program.eq_rhs))))
        init(self, program, rows)

    monkeypatch.setattr(lp.PreparedSystem, "__init__", recorded)
    assert not is_extremal_system(s1, s2).extremal
    assert separate(s1, s2) is None
    assert not own & set(built)


def test_epsilon_validated_whatever_the_verdict():
    overlap = (box(0, 2, 0, 2), box(1, 3, 1, 3))
    touching = (lower_halfplane(), upper_halfplane())
    for pair in (overlap, touching):
        for eps in (0, -1):
            with pytest.raises(InputError, match="epsilon must be positive"):
                is_extremal_system(*pair, epsilon=eps)
    v = is_extremal_system(*overlap, epsilon=F(1, 2))
    assert not v.extremal
    assert v.epsilon is None and v.perturbation is None


def test_verdict_determinism():
    for seed in (3, 7, 11):
        s1, s2, _ = random_pair_with_common_point(seed, 3)
        a = is_extremal_system(s1, s2)
        b = is_extremal_system(s1, s2)
        assert (a.extremal, a.boundary_evidence, a.interior_ball_radius) == \
            (b.extremal, b.boundary_evidence, b.interior_ball_radius)


# -- invariance properties ------------------------------------------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
SHIFT = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _mapped(s, perm, shift):
    """The set x -> (x permuted by perm) + shift, from its rows."""
    h = s.hrep()

    def row(a, b):
        p = tuple(a[perm.index(j)] for j in range(len(perm)))
        return p, b + dot(p, shift)
    return ConvexSet.from_hrep(h.dim, ineqs=[row(a, b) for a, b in h.ineqs],
                               eqs=[row(a, b) for a, b in h.eqs])


@st.composite
def pair_maps(draw):
    dim = draw(st.integers(2, 3))
    seed = draw(st.integers(1, 40))
    perm = draw(st.permutations(range(dim)))
    shift = vec(draw(st.tuples(*[SHIFT] * dim)))
    return random_pair_with_common_point(seed, dim)[:2], perm, shift


@PROPERTY
@given(pair_maps())
def test_verdict_survives_a_common_translation_and_permutation(inputs):
    (s1, s2), perm, shift = inputs
    v = is_extremal_system(s1, s2)
    for p, t in ((perm, shift), (perm, zero_vec(len(perm))), (list(range(len(perm))), shift)):
        w = is_extremal_system(_mapped(s1, p, t), _mapped(s2, p, t))
        assert (w.extremal, w.interior_ball_radius) == (v.extremal, v.interior_ball_radius)


@PROPERTY
@given(st.integers(2, 3), st.integers(1, 40))
def test_swapped_pair_keeps_the_verdict_and_the_negated_functional(dim, seed):
    s1, s2, _ = random_pair_with_common_point(seed, dim)
    assert is_extremal_system(s2, s1).extremal == is_extremal_system(s1, s2).extremal
    c = separate(s1, s2)
    if c is None:
        assert separate(s2, s1) is None
        return
    # the recomputed supports agree with the certificate
    sup1 = support_value(s1, c.functional)
    inf2 = support_value(s2, vneg(c.functional))
    assert sup1.value == c.sup1 and -inf2.value == c.inf2 and c.sup1 <= c.inf2
    # -g separates the swapped pair: sup over s2 of -g <= inf over s1 of -g
    assert inf2.value <= -sup1.value
    swapped = separate(s2, s1)
    assert swapped is not None
    assert support_value(s2, swapped.functional).value == swapped.sup1 <= swapped.inf2
