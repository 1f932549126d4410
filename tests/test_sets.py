"""ConvexSet predicates, constructions and canonical forms."""
import random
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyexact import calculus, dd, suite
from polyexact import lp as lp_module
from polyexact import sets as sets_module
from polyexact.calculus import core_at_zero, difference_interiority, support_value
from polyexact.errors import InputError, InternalError, PreconditionError
from polyexact.extremality import _interior_radius, is_extremal_system
from polyexact.instances import fixture_names, load_instance
from polyexact.linalg import dot, integer_rank, rank, unit_vec, vec, vneg, zero_vec
from polyexact.oracle import random_pair_with_common_point
from polyexact.sets import (
    ConvexSet,
    ball_inf,
    make_hrep,
    make_vrep,
    sets_equal,
)
from canonical_reference import reference_canonical_hrep
from definition_oracles import (
    active_rows_definition,
    contains_definition,
    interior_contains_definition,
    interior_radius_definition,
    segment_blocked_definition,
)
from reach_reference import reference_segment_reach


def unit_square():
    return ConvexSet.from_hrep(2, ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)])


def test_membership_both_descriptions():
    h = unit_square()
    v = ConvexSet.from_vrep(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    for s in (h, v):
        assert s.contains((F(1, 2), F(1, 2)))
        assert s.contains((0, 0))
        assert not s.contains((2, 0))
        assert not s.contains((F(1, 2), F(-1, 7)))


def test_interior_and_core_on_square():
    s = unit_square()
    assert s.interior_contains((F(1, 2), F(1, 2)))
    assert s.core_contains((F(1, 2), F(1, 2)))
    for boundary in [(0, 0), (1, 1), (F(1, 2), 0), (0, F(1, 3))]:
        assert not s.interior_contains(boundary)
        assert not s.core_contains(boundary)
    assert not s.interior_contains((3, 3))
    assert not s.core_contains((3, 3))


def test_flat_set_has_no_interior():
    seg = ConvexSet.from_vrep(2, vertices=[(0, 0), (1, 0)])
    assert seg.contains((F(1, 2), 0))
    assert not seg.interior_contains((F(1, 2), 0))
    assert not seg.core_contains((F(1, 2), 0))
    assert seg.interior_point() is None


def test_implicit_equality_detected():
    # rows x <= 0 and -x <= 0 pin the first coordinate without an
    # explicit equality
    line = ConvexSet.from_hrep(2, ineqs=[((1, 0), 0), ((-1, 0), 0), ((1, 1), 5)])
    assert not line.interior_contains((0, 0))
    canon = line.canonical_hrep()
    assert len(canon.eqs) == 1
    assert canon.ineqs == (((F(0), F(1)), F(5)),)
    other = ConvexSet.from_hrep(2, ineqs=[((2, 2), 10)], eqs=[((3, 0), 0)])
    assert sets_equal(line, other)


def test_emptiness_and_boundedness():
    empty = ConvexSet.from_hrep(1, ineqs=[((1,), 0), ((-1,), -1)])
    assert empty.is_empty()
    assert empty.is_bounded()
    assert empty.interior_point() is None
    assert empty.canonical_vrep().vertices == ()
    orthant = ConvexSet.from_hrep(2, ineqs=[((-1, 0), 0), ((0, -1), 0)])
    assert not orthant.is_empty()
    assert not orthant.is_bounded()
    assert sorted(orthant.vrep().rays) == [(0, 1), (1, 0)]
    assert unit_square().is_bounded()


_SMALL = st.integers(-3, 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_is_bounded_matches_the_rays(data):
    """is_bounded on a row-described set, read off its prepared system,
    says what its generators say: bounded exactly when there is no ray.
    Random rows in dims 1-3, few enough to leave many sets unbounded,
    some with an equality row and some empty."""
    dim = data.draw(st.integers(1, 3))
    rows = st.tuples(st.tuples(*[_SMALL] * dim).filter(any), _SMALL)
    ineqs = data.draw(st.lists(rows, max_size=2 * dim + 2))
    eqs = data.draw(st.lists(rows, max_size=1))
    bounded = ConvexSet.from_hrep(dim, ineqs, eqs).is_bounded()
    assert bounded == (not ConvexSet.from_hrep(dim, ineqs, eqs).vrep().rays)


def test_interior_point_has_positive_slack():
    s = ConvexSet.from_hrep(2, ineqs=[((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)])
    p = s.interior_point()
    assert p is not None
    assert s.interior_contains(p)


def test_translate_negate():
    s = unit_square().translate((2, -1))
    assert s.contains((F(5, 2), F(-1, 2)))
    assert not s.contains((F(1, 2), F(1, 2)))
    n = s.negate()
    assert n.contains((F(-5, 2), F(1, 2)))


def test_intersect():
    a = unit_square()
    b = unit_square().translate((F(1, 2), 0))
    both = a.intersect(b)
    assert both.contains((F(3, 4), F(1, 2)))
    assert not both.contains((F(1, 4), F(1, 2)))
    assert sets_equal(
        both,
        ConvexSet.from_hrep(2, ineqs=[((-1, 0), F(-1, 2)), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)]),
    )


def test_minkowski_and_difference():
    s = unit_square()
    double = s.minkowski(s)
    assert sets_equal(double, ConvexSet.from_hrep(
        2, ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 0), 2), ((0, 1), 2)]))
    diff = s.difference(s)
    assert sets_equal(diff, ball_inf((0, 0), 1))
    # difference with an unbounded set keeps the recession directions
    orthant = ConvexSet.from_vrep(2, vertices=[(0, 0)], rays=[(1, 0), (0, 1)])
    d = s.difference(orthant)
    assert d.contains((-50, -50))
    assert not d.contains((2, 0))


def test_minkowski_with_empty_is_empty():
    empty = ConvexSet.from_vrep(2)
    assert unit_square().minkowski(empty).is_empty()


def test_ball_inf():
    b = ball_inf((1, 1), F(1, 2))
    assert b.contains((F(3, 2), F(1, 2)))
    assert not b.contains((F(7, 4), 1))
    assert b.interior_contains((1, 1))
    with pytest.raises(InputError):
        ball_inf((0,), -1)


def test_active_rows():
    s = unit_square()
    assert set(s.active_rows((0, 0))) == {(-1, 0), (0, -1)}
    assert s.active_rows((F(1, 2), F(1, 2))) == ()
    with pytest.raises(PreconditionError):
        s.active_rows((5, 5))


def test_construction_validation():
    with pytest.raises(InputError):
        make_hrep(2, ineqs=[((0, 0), -1)])
    assert make_hrep(2, ineqs=[((0, 0), 1)]).ineqs == ()
    with pytest.raises(InputError):
        make_hrep(2, eqs=[((0, 0), F(1, 3))])
    with pytest.raises(InputError):
        make_vrep(2, rays=[(1, 0)])
    with pytest.raises(InputError):
        make_vrep(2, vertices=[(0, 0)], rays=[(0, 0)])
    with pytest.raises(InputError):
        ConvexSet.from_hrep(0)
    with pytest.raises(InputError):
        ConvexSet.from_hrep(9)
    with pytest.raises(InputError):
        unit_square().contains((0, 0, 0))


def test_canonical_hrep_ignores_presentation():
    rows = [((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)]
    junk = [((1, 1), 5), ((2, 0), 2), ((F(1, 2), 0), F(1, 2))]
    rng = random.Random(3)
    reference = unit_square().canonical_hrep()
    for _ in range(10):
        pres = list(rows) + [junk[i] for i in range(rng.randint(0, 3))]
        rng.shuffle(pres)
        assert ConvexSet.from_hrep(2, ineqs=pres).canonical_hrep() == reference
    from_vertices = ConvexSet.from_vrep(2, vertices=[(1, 1), (0, 0), (1, 0), (0, 1)])
    assert from_vertices.canonical_hrep() == reference


def test_canonical_vrep_prunes_redundant_vertices():
    s = ConvexSet.from_vrep(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    assert s.canonical_vrep().vertices == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_random_membership_agreement():
    rng = random.Random(19)
    for _ in range(25):
        dim = rng.randint(1, 3)
        ineqs = []
        for i in range(dim):
            ineqs.append((tuple(-1 if j == i else 0 for j in range(dim)), rng.randint(0, 2)))
            ineqs.append((tuple(1 if j == i else 0 for j in range(dim)), rng.randint(0, 2)))
        for _ in range(rng.randint(0, 2)):
            a = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(a):
                ineqs.append((a, rng.randint(-1, 3)))
        s = ConvexSet.from_hrep(dim, ineqs=ineqs)
        v = s.canonical_vrep()
        t = ConvexSet.from_vrep(dim, vertices=v.vertices, rays=v.rays) if v.vertices else None
        for _ in range(12):
            x = tuple(F(rng.randint(-5, 5), 2) for _ in range(dim))
            if t is None:
                assert not s.contains(x)
            else:
                assert s.contains(x) == t.contains(x)
                if s.interior_contains(x):
                    assert s.contains(x)
                assert s.interior_contains(x) == s.core_contains(x)


def test_core_equals_interior_on_samples():
    shapes = [
        unit_square(),
        ConvexSet.from_hrep(2, ineqs=[((1, 1), 1), ((-1, 1), 1), ((0, -1), 0)]),
        ConvexSet.from_vrep(2, vertices=[(0, 0), (2, 0)]),
        ConvexSet.from_hrep(2, ineqs=[((1, 0), 3)], eqs=[((0, 1), 1)]),
    ]
    pts = [(0, 0), (1, 1), (F(1, 2), F(1, 4)), (F(-1, 3), F(2, 3)), (3, 1), (1, 0)]
    for s in shapes:
        for x in pts:
            assert s.interior_contains(x) == s.core_contains(x)


def test_segment_block_matches_the_lp_on_the_core_sweep(monkeypatch):
    """Every segment the suite asks about, on dims 2-4 and seeds 1-8, is
    blocked exactly when the one-variable LP gives it reach zero."""
    asked = []
    segment_blocked = ConvexSet._segment_blocked

    def recorded(s, x, d):
        blocked = segment_blocked(s, x, d)
        asked.append((s, x, d, blocked))
        return blocked

    monkeypatch.setattr(ConvexSet, "_segment_blocked", recorded)
    assert suite.run_suite(dims=(2, 3, 4), seed_range=(1, 8), lp_count=10, boundary_count=20).ok
    assert len(asked) > 100
    assert {blocked for *_, blocked in asked} == {True, False}
    for s, x, d, blocked in asked:
        assert blocked == (reference_segment_reach(s, x, d) == 0), (s, x, d)


def test_segment_block_matches_the_lp_on_random_sets():
    rng = random.Random(11)
    hits = set()
    for _ in range(150):
        dim = rng.randint(1, 3)
        ineqs = [(tuple(rng.randint(-2, 2) for _ in range(dim)), rng.randint(0, 3))
                 for _ in range(rng.randint(1, 5))]
        eqs = []
        if rng.random() < 0.3:
            eqs.append((tuple(rng.randint(-1, 1) for _ in range(dim)), 0))
        try:
            s = ConvexSet.from_hrep(dim, ineqs=ineqs, eqs=eqs)
        except InputError:
            continue
        for _ in range(6):
            x = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
            if not s.contains(x):
                continue
            for d in [tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim))]:
                blocked = s._segment_blocked(vec(x), vec(d))
                assert blocked == (reference_segment_reach(s, vec(x), vec(d)) == 0), (s, x, d)
                hits.add((blocked, bool(s.hrep().eqs)))
    assert hits == {(False, False), (True, False), (False, True), (True, True)}


def test_lazy_caches_are_built_once_under_threads(monkeypatch):
    """Four threads race on one fresh row-described set: every answer
    agrees, and the lock lets exactly one prepared system and one integer
    form of the rows be built. The prepared system reads that form, the
    one the point tests read."""
    built, cleared = [], []

    class CountingSystem(sets_module.PreparedSystem):
        def __init__(self, lp, rows=None):
            built.append(lp)
            time.sleep(0.02)  # widen the window a missing lock would leave open
            super().__init__(lp, rows)

    def counting_form(ineqs, eqs):
        cleared.append(ineqs)
        time.sleep(0.02)
        return lp_module.integer_form(ineqs, eqs)

    def rows():
        # a redundant row and an implicit equality give canonical_hrep work
        return [((1, 0), 2), ((-1, 0), 2), ((0, 1), 1), ((0, -1), -1),
                ((1, 1), 5), ((1, -1), 3)]

    def questions(s, k):
        def points():
            return s.contains((1, 1)), s.interior_contains((0, 1)), s.active_rows((2, 1))

        def lps():
            return s.is_empty(), support_value(s, (1, 2)), s.canonical_hrep()

        # half the threads start with the point tests, half with the LPs
        if k % 2:
            first = lps()
            return points() + first
        return points() + lps()

    expected = ConvexSet.from_hrep(2, ineqs=rows())
    want = questions(expected, 0)
    monkeypatch.setattr(sets_module, "PreparedSystem", CountingSystem)
    monkeypatch.setattr(sets_module, "integer_form", counting_form)
    s = ConvexSet.from_hrep(2, ineqs=rows())
    start = threading.Barrier(4)
    answers = [None] * 4

    def ask(k):
        start.wait()
        answers[k] = questions(s, k)

    threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert answers == [want] * 4
    assert len(built) == 1 and len(cleared) == 1
    assert s.lp_system().rows is s.integer_rows()
    assert s.integer_rows() == lp_module.integer_rows(built[0])


def _square_and_triangle():
    square = ConvexSet.from_vrep(2, vertices=[(0, 0), (2, 0), (0, 2), (2, 2)])
    triangle = ConvexSet.from_vrep(2, vertices=[(1, 1), (3, 1), (1, 3)])
    return square, triangle


def test_difference_follows_the_last_partner():
    a = unit_square()
    b = ConvexSet.from_vrep(2, vertices=[(1, 1), (3, 1), (1, 3)])
    c = ConvexSet.from_hrep(2, ineqs=[((1, 0), 5), ((-1, 0), -4), ((0, 1), 1), ((0, -1), 1)])
    for x in (b, c, b):
        d = a.difference(x)
        assert sets_equal(d, a.minkowski(x.negate()))
        assert a.difference(x) is d
    # a partner equal to b but a distinct object gets its own, correct set
    twin = ConvexSet.from_hrep(2, ineqs=b.canonical_hrep().ineqs)
    assert sets_equal(a.difference(twin), a.minkowski(b.negate()))


def test_verdict_shares_the_difference():
    a, b = _square_and_triangle()
    assert is_extremal_system(a, b).difference is a.difference(b)


def test_pair_caches_are_built_once_under_threads(monkeypatch):
    """Four threads ask (s1, s2) and (s2, s1) of generator-described
    sets, whose rows must be derived first: no deadlock, every answer
    equals the serial one, one A - B and one gauge program per ordered
    pair, and no reach direction solved twice."""
    def answers(a, b):
        return (a.difference(b).canonical_hrep(), difference_interiority(a, b),
                core_at_zero(a, b))

    s1, s2 = _square_and_triangle()
    want = [answers(s1, s2), answers(s2, s1)]
    built = []
    systems = []
    reaches = []
    minkowski = ConvexSet.minkowski
    reach_system = calculus._reach_system
    reach = calculus._reach_along

    def counted_minkowski(s, other):
        built.append(s)
        time.sleep(0.02)  # widen the window a missing lock would leave open
        return minkowski(s, other)

    def counted_system(a, b):
        systems.append((id(a), id(b)))
        time.sleep(0.005)
        return reach_system(a, b)

    def counted_reach(system, direction):
        reaches.append((id(system), direction))
        time.sleep(0.005)
        return reach(system, direction)

    monkeypatch.setattr(ConvexSet, "minkowski", counted_minkowski)
    monkeypatch.setattr(calculus, "_reach_system", counted_system)
    monkeypatch.setattr(calculus, "_reach_along", counted_reach)
    s1, s2 = _square_and_triangle()
    pairs = [(s1, s2), (s2, s1)]
    start = threading.Barrier(4)
    got = [None] * 4

    def ask(k):
        start.wait()
        got[k] = answers(*pairs[k % 2])

    threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want[k % 2] for k in range(4)]
    assert sorted(map(id, built)) == sorted([id(s1), id(s2)])
    assert sorted(systems) == sorted([(id(s1), id(s2)), (id(s2), id(s1))])
    assert reaches and len(reaches) == len(set(reaches))


# -- canonical rows from the double description ----------------------------------

def _suite_sets(monkeypatch):
    """The sets run_suite canonicalizes on dims 2-4 and seeds 1-8, then
    both sides, the intersection and the difference of every pair."""
    canonicalized, pairs = [], []
    canonical = ConvexSet.canonical_hrep
    task_instance = suite._task_instance

    def recorded(s):
        canonicalized.append(s)
        return canonical(s)

    def recorded_instance(task):
        out = task_instance(task)
        pairs.append(out[1:3])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(ConvexSet, "canonical_hrep", recorded)
        patch.setattr(suite, "_task_instance", recorded_instance)
        assert suite.run_suite(dims=(2, 3, 4), seed_range=(1, 8),
                               lp_count=10, boundary_count=20).ok
    assert len(canonicalized) > 50
    out = dict.fromkeys(canonicalized)
    for a, b in pairs:
        out.update(dict.fromkeys((a, b, a.intersect(b), a.difference(b))))
    return list(out)


def _fixture_sets():
    return [s for name in fixture_names() for s in load_instance(name).sets.values()]


@pytest.mark.parametrize("corpus", ["suite", "fixtures"])
def test_canonical_hrep_matches_reference(monkeypatch, corpus):
    sets = _suite_sets(monkeypatch) if corpus == "suite" else _fixture_sets()
    flat = 0
    for s in sets:
        h = s.canonical_hrep()
        assert h == reference_canonical_hrep(s), s
        flat += bool(h.eqs)
    assert len(sets) > (100 if corpus == "suite" else 10)
    assert 0 < flat < len(sets)


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
POSITIVE = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9).filter(bool)


@st.composite
def row_sets(draw):
    """(dim, ineqs, eqs): one side of a random pair in dim 2 or 3, cut
    by an equality through the pair's common point half the time."""
    dim = draw(st.integers(2, 3))
    s1, s2, anchor = random_pair_with_common_point(draw(st.integers(1, 60)), dim)
    ineqs = list(draw(st.sampled_from((s1, s2))).hrep().ineqs)
    eqs = []
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-2, 2)] * dim).filter(any))
        eqs.append((c, sum(x * y for x, y in zip(c, anchor))))
    return dim, ineqs, eqs


@PROPERTY
@given(row_sets(), st.data())
def test_canonical_hrep_ignores_order_scale_and_implied_rows(inputs, data):
    dim, ineqs, eqs = inputs
    s = ConvexSet.from_hrep(dim, ineqs, eqs)
    canon = s.canonical_hrep()
    assert canon == reference_canonical_hrep(s)
    rows = data.draw(st.permutations(ineqs))
    scales = data.draw(st.lists(POSITIVE, min_size=len(rows), max_size=len(rows)))
    rows = [(tuple(k * x for x in a), k * b) for k, (a, b) in zip(scales, rows)]
    # the sum of two rows, loosened, is implied by them
    (a1, b1), (a2, b2) = data.draw(st.lists(st.sampled_from(ineqs), min_size=2, max_size=2))
    rows.append((tuple(x + y for x, y in zip(a1, a2)), b1 + b2 + data.draw(st.integers(0, 2))))
    # both halves of the equality, rescaled, are implied by it
    for c, f in eqs:
        k, l = data.draw(st.lists(POSITIVE, min_size=2, max_size=2))
        rows += [(tuple(k * x for x in c), k * f), (tuple(-l * x for x in c), -l * f)]
    t = ConvexSet.from_hrep(dim, rows, eqs)
    assert t.canonical_hrep() == canon == reference_canonical_hrep(t)
    v = s.vrep()
    assert ConvexSet.from_vrep(dim, v.vertices, v.rays).canonical_hrep() == canon


def _flat_square():
    """The unit square in the plane z = 1 of R^3, with its canonical rows
    and generators."""
    s = ConvexSet.from_hrep(3, ineqs=[((-1, 0, 0), 0), ((0, -1, 0), 0), ((1, 0, 0), 1),
                                      ((0, 1, 0), 1)], eqs=[((0, 0, 2), 2)])
    return s.vrep(), s.canonical_hrep()


def test_facet_check_accepts_the_canonical_rows():
    v, h = _flat_square()
    assert len(h.ineqs) == 4 and h.eqs == (((0, 0, 1), 1),)
    sets_module.check_facets(v, h)


@pytest.mark.parametrize("tamper", ["shifted", "shifted-in", "non-facet", "implicit-equality",
                                    "dropped-equality"])
def test_facet_check_rejects_tampered_rows(tamper):
    v, h = _flat_square()
    (a, b), rest = h.ineqs[0], h.ineqs[1:]
    bad = {
        "shifted": replace(h, ineqs=((a, b + 1),) + rest),
        "shifted-in": replace(h, ineqs=((a, b - 1),) + rest),
        # valid, but tight at the corner (1, 1, 1) alone
        "non-facet": replace(h, ineqs=h.ineqs + (((1, 1, 0), 2),)),
        # valid and tight everywhere: an equality held as a row
        "implicit-equality": replace(h, ineqs=h.ineqs + (((0, 0, 1), 1),)),
        "dropped-equality": replace(h, eqs=()),
    }[tamper]
    with pytest.raises(InternalError):
        sets_module.check_facets(v, bad)


def test_facet_check_rejects_a_row_tight_on_three_points_of_an_edge():
    # as many tight generators as a facet needs, but of rank 2: only the
    # rank test tells the edge y + z <= 2 from a facet of the cube
    corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    cube = ConvexSet.from_vrep(3, vertices=corners + [(F(1, 2), 1, 1)])
    v, h = cube.vrep(), cube.canonical_hrep()
    sets_module.check_facets(v, h)
    with pytest.raises(InternalError, match="not tight on a facet"):
        sets_module.check_facets(v, replace(h, ineqs=h.ineqs + (((0, 1, 1), 2),)))


def test_dropped_equality_of_a_point_is_caught():
    point = ConvexSet.from_vrep(2, vertices=[(1, 2)])
    h = point.canonical_hrep()
    assert h.ineqs == () and len(h.eqs) == 2
    with pytest.raises(InternalError):
        sets_module.check_facets(point.vrep(), replace(h, eqs=h.eqs[:1]))


def test_canonical_hrep_checks_the_double_description(monkeypatch):
    rows = dd.generators_to_hrep

    def tampered(*args):
        ineqs, eqs = rows(*args)
        (a, b), rest = ineqs[0], ineqs[1:]
        return ((a, b + 1),) + rest, eqs

    monkeypatch.setattr(dd, "generators_to_hrep", tampered)
    with pytest.raises(InternalError):
        ConvexSet.from_vrep(2, vertices=[(0, 0), (1, 0), (0, 1)]).canonical_hrep()
    with pytest.raises(InternalError):
        unit_square().canonical_hrep()


def test_integer_rank_matches_fraction_rank():
    rng = random.Random(7)
    ranks = set()
    for _ in range(400):
        ncols = rng.randint(1, 5)
        rows = [tuple(rng.randint(-4, 4) for _ in range(ncols)) for _ in range(rng.randint(0, 6))]
        if rows and rng.random() < 0.5:
            # a combination of two rows, so the rank falls short
            u, w = rng.choice(rows), rng.choice(rows)
            rows.append(tuple(rng.randint(-3, 3) * x + rng.randint(-3, 3) * y
                              for x, y in zip(u, w)))
        want = rank([vec(r) for r in rows])
        assert integer_rank(rows) == want, rows
        ranks.add((want, min(len(rows), ncols)))
    assert any(r < full for r, full in ranks) and any(r == full > 0 for r, full in ranks)


# -- point tests in integers against their Fraction definitions --------------

SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
LARGE_Q = st.integers(10 ** 6, 10 ** 40)


@st.composite
def rows_around_a_point(draw):
    """(dim, ineqs, eqs, x, d): rows with denominators and right-hand
    sides of either sign, each tight at x, 1/q off it for a large q, or
    free; x the origin or a rational point, then moved 1/q along an axis
    half the time; d a signed axis or any rational direction."""
    dim = draw(st.integers(1, 3))
    x = draw(st.one_of(st.just(zero_vec(dim)), st.tuples(*[SMALL] * dim)))

    def row():
        a = draw(st.tuples(*[SMALL] * dim).filter(any))
        kind = draw(st.sampled_from(("tight", "off", "free")))
        if kind == "free":
            return a, draw(SMALL)
        off = draw(st.sampled_from((-1, 1))) * F(1, draw(LARGE_Q)) if kind == "off" else 0
        return a, dot(vec(a), vec(x)) + off

    ineqs = [row() for _ in range(draw(st.integers(0, 5)))]
    eqs = [row() for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        i = draw(st.integers(0, dim - 1))
        x = vec(x[:i]) + (x[i] + draw(st.sampled_from((-1, 1))) * F(1, draw(LARGE_Q)),) + vec(x[i + 1:])
    axis = st.builds(unit_vec, st.just(dim), st.integers(0, dim - 1), st.sampled_from((1, -1)))
    d = draw(st.one_of(axis, st.tuples(*[SMALL] * dim)))
    return dim, ineqs, eqs, vec(x), vec(d)


def _outcome(f, *args):
    """f(*args), or the type of the InternalError or PreconditionError it
    raised."""
    try:
        return f(*args)
    except (InternalError, PreconditionError) as exc:
        return type(exc)


def _assert_point_tests_match(s, x, d):
    assert s.contains(x) == contains_definition(s, x)
    assert s.interior_contains(x) == interior_contains_definition(s, x)
    assert s._segment_blocked(x, d) == segment_blocked_definition(s, x, d)
    assert _outcome(s.active_rows, x) == _outcome(active_rows_definition, s, x)
    # x at the origin of the translate, so an interior x gives a radius
    for t in (s, s.translate(vneg(x))):
        assert _outcome(_interior_radius, t) == _outcome(interior_radius_definition, t)


@PROPERTY
@given(rows_around_a_point())
def test_point_tests_match_their_fraction_definitions(case):
    dim, ineqs, eqs, x, d = case
    _assert_point_tests_match(ConvexSet.from_hrep(dim, ineqs, eqs), x, d)


def test_point_tests_on_rows_with_denominators():
    q = 10 ** 30
    # x/2 + y/3 <= 5/6 is tight at (1, 1); -x/3 <= -1/7 asks x >= 3/7;
    # the equality y/5 = 1/5 pins y = 1
    rows = [((F(1, 2), F(1, 3)), F(5, 6)), ((F(-1, 3), 0), F(-1, 7))]
    eq = [((0, F(1, 5)), F(1, 5))]
    s = ConvexSet.from_hrep(2, rows)
    flat = ConvexSet.from_hrep(2, rows, eq)
    tight, inside, outside = (1, 1), (1 - F(1, q), 1), (1 + F(1, q), 1)
    for t in (s, flat):
        assert t.contains(tight) and t.contains(inside) and not t.contains(outside)
    assert s.active_rows(tight) == ((F(1, 2), F(1, 3)),)
    assert flat.active_rows(tight) == ((F(1, 2), F(1, 3)), (0, F(1, 5)), (0, F(-1, 5)))
    assert not s.interior_contains(tight) and s.interior_contains(inside)
    assert not flat.interior_contains(inside)
    assert s._segment_blocked(tight, (0, 1)) and not s._segment_blocked(tight, (0, -1))
    assert flat._segment_blocked(inside, (0, -1)) and not flat._segment_blocked(inside, (1, 0))
    assert not ConvexSet.from_hrep(2, eqs=eq).contains((1, 1 - F(1, q)))
    for t in (s, flat):
        for x in (tight, inside, outside):
            for d in ((1, 0), (0, 1), (0, -1), (F(-1, 3), F(1, 2))):
                _assert_point_tests_match(t, vec(x), vec(d))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_point_tests_on_a_set_with_no_rows(dim):
    space = ConvexSet.from_hrep(dim)
    origin = zero_vec(dim)
    assert space.contains(origin) and space.interior_contains(origin)
    assert space.active_rows(origin) == ()
    assert _interior_radius(space) == 1
    assert not any(space._segment_blocked(origin, unit_vec(dim, i, sg))
                   for i in range(dim) for sg in (1, -1))
    _assert_point_tests_match(space, origin, unit_vec(dim, 0))


def test_generator_membership_derives_no_rows():
    s = ConvexSet.from_vrep(2, vertices=[(0, 0), (F(3, 2), 0), (0, F(2, 3))])
    for x in ((F(1, 2), F(1, 3)), (1, F(2, 9)), (1, F(2, 9) + F(1, 10 ** 20)), (-1, 0)):
        want = ConvexSet.from_vrep(2, s.vrep().vertices).hrep()
        assert s.contains(x) == contains_definition(ConvexSet(hrep=want), x)
    assert s._hrep is None and "integer_rows" not in s._memo
