"""One production route per decision, checked against the route it
replaced (route_reference): whether a set meets the interior of another,
whether a set has interior points none of which lies in another, a
common point of two sets, the program of generator membership, the
penalized gap program of the approximate principle and the infimal
convolution of two support functions.

The corpus is the pairs of a small default-shaped suite run, in both
orders, which includes the fixture pairs, together with a flat second
set described only by inequalities, empty second sets and disjoint
pairs. A property adds row permutations and redundant rows."""
from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyexact import sets as sets_module
from polyexact import extremality, suite
from polyexact.calculus import (
    common_point,
    inf_convolution_support,
    meets_interior,
    standard_probes,
    support_value,
)
from polyexact.errors import PreconditionError
from polyexact.extremality import EPSILON_GRID, check_sufficient_interiority
from polyexact.linalg import dot, linf_norm, unit_vec, vadd, vec, vscale, zero_vec
from polyexact.lp import LinearProgram, LpOptimal, solve_lp
from polyexact.oracle import random_pair_with_common_point
from polyexact.sets import ConvexSet, HRep
from route_reference import (
    reference_common_point,
    reference_convolution,
    reference_gap_program,
    reference_generator_program,
    reference_meets_interior,
)

SUITE = dict(dims=(2, 3, 4), seed_range=(1, 8), lp_count=10, boundary_count=20)


def box(x0, x1, y0, y1):
    return ConvexSet.from_hrep(2, ineqs=[
        ((1, 0), x1), ((-1, 0), -x0), ((0, 1), y1), ((0, -1), -y0)])


def _suite_pairs():
    tasks = [t for t in suite.build_tasks(**SUITE) if t[0] in ("pair", "fixture")]
    return [suite._task_instance(t)[1:3] for t in tasks]


def _special_pairs():
    square = box(0, 1, 0, 1)
    return [
        # flat: the segment [0, 1] x {0}, by inequalities alone
        (square, box(0, 1, 0, 0)),
        (box(F(1, 2), 3, -1, 1), box(0, 1, 0, 0)),
        # flat by an equality row: a line through the square, and one past it
        (ConvexSet.from_hrep(2, eqs=[((0, 1), F(1, 2))]), square),
        (ConvexSet.from_hrep(2, eqs=[((0, 1), 2)]), square),
        # empty, by rows and by generators
        (square, ConvexSet.from_hrep(2, ineqs=[((1, 0), -1), ((-1, 0), -1)])),
        (square, ConvexSet.from_vrep(2)),
        # disjoint, and touching along an edge
        (square, box(2, 3, 0, 1)),
        (square, box(1, 2, 0, 1)),
    ]


def _disjoint_pairs(pairs):
    """Each pair with its second set moved 9 units along the first axis,
    beyond the suite's coordinates."""
    return [(a, b.translate(vscale(9, unit_vec(a.dim, 0)))) for a, b in pairs]


@pytest.fixture(scope="module")
def corpus():
    pairs = _suite_pairs()
    out = pairs + _special_pairs() + _disjoint_pairs(pairs[::7])
    return out + [(b, a) for a, b in out]


def test_meets_interior_matches_canonical_reference(corpus):
    answers = []
    for s1, s2 in corpus:
        got = meets_interior(s1, s2)
        assert got == reference_meets_interior(s1, s2), (s1, s2)
        answers.append(got)
    assert 0 < sum(answers) < len(answers)


def test_sufficient_interiority_matches_former_route(corpus):
    answers = []
    for s1, s2 in corpus:
        got = check_sufficient_interiority(s1, s2)
        former = (not s1.is_empty() and not s1.canonical_hrep().eqs
                  and not reference_meets_interior(s2, s1))
        assert got == former, (s1, s2)
        answers.append(got)
    assert any(answers)


def test_common_point_matches_cold_solve(corpus):
    disjoint = 0
    for s1, s2 in corpus:
        got = common_point(s1, s2)
        assert got == reference_common_point(s1, s2), (s1, s2)
        if got is None:
            disjoint += 1
        else:
            assert s1.contains(got) and s2.contains(got)
    assert 0 < disjoint < len(corpus)


def test_generator_membership_builds_the_former_program(corpus, monkeypatch):
    programs = []

    def recorded(lp):
        programs.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(sets_module, "solve_lp", recorded)
    answers = []
    for s, _ in corpus[:40]:
        v = s.vrep()
        if not v.vertices:
            continue
        outside = vadd(v.vertices[0], vscale(50, unit_vec(s.dim, 0)))
        points = list(v.vertices) + [outside] + [vadd(v.vertices[0], r) for r in v.rays]
        for x in points:
            got = sets_module._generator_membership(v.vertices, v.rays, x)
            want = reference_generator_program(v.vertices, v.rays, x)
            assert programs[-1] == want
            assert got == isinstance(solve_lp(want), LpOptimal)
            answers.append(got)
    assert 0 < sum(answers) < len(answers)


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def interior_pairs(draw):
    """(s1, rows of s2): a random pair in dim 2 or 3, its second set
    shifted so the pair may overlap, touch or miss, and made flat half
    the time by a row held with equality at one of its points."""
    dim = draw(st.integers(2, 3))
    s1, s2, anchor = random_pair_with_common_point(draw(st.integers(1, 60)), dim)
    if draw(st.booleans()):
        s1, s2 = s2, s1
    shift = draw(st.tuples(*[st.integers(-3, 3)] * dim))
    s2 = s2.translate(shift)
    rows = list(s2.hrep().ineqs)
    if draw(st.booleans()):
        a, _ = draw(st.sampled_from(rows))
        c = sum(x * (y + t) for x, y, t in zip(a, anchor, shift))
        rows += [(a, c), (tuple(-x for x in a), -c)]
    return s1, rows


@PROPERTY
@given(interior_pairs(), st.data())
def test_meets_interior_ignores_row_order_and_redundant_rows(pair, data):
    s1, rows = pair
    dim = s1.dim
    want = reference_meets_interior(s1, ConvexSet.from_hrep(dim, rows))
    assert meets_interior(s1, ConvexSet.from_hrep(dim, rows)) == want
    shuffled = data.draw(st.permutations(rows))
    (a1, b1), (a2, b2) = data.draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
    # a repeated row, a loosened one and the sum of two, all implied
    shuffled += [(a1, b1), (a2, b2 + data.draw(st.integers(0, 2))),
                 (tuple(x + y for x, y in zip(a1, a2)), b1 + b2)]
    assert meets_interior(s1, ConvexSet.from_hrep(dim, shuffled)) == want


@PROPERTY
@given(st.data())
def test_gap_program_matches_the_hand_indexed_builder(data):
    """Random pairs in dims 2-4 in both orders, each set made flat half
    the time by a row held with equality at the common point, a random
    translation, at every epsilon of the grid: the program assembled
    from row blocks is the one written out index by index, moved to the
    start (xbar, xbar, |a|, 0, 0). It has the same rows and objective,
    and each right-hand side is less its row at the start, which leaves
    every inequality's nonnegative and every equality's zero."""
    dim = data.draw(st.integers(2, 4))
    s1, s2, anchor = random_pair_with_common_point(data.draw(st.integers(1, 60)), dim)
    if data.draw(st.booleans()):
        s1, s2 = s2, s1

    def flattened(s):
        h = s.hrep()
        if not data.draw(st.booleans()):
            return s
        a, _ = data.draw(st.sampled_from(h.ineqs))
        return ConvexSet(HRep(dim, h.ineqs, ((a, dot(a, anchor)),)))

    s1, s2 = flattened(s1), flattened(s2)
    shift = tuple(data.draw(st.fractions(-2, 2, max_denominator=4)) for _ in range(dim))
    start = anchor + anchor + (linf_norm(shift), F(0), F(0))
    for eps in EPSILON_GRID:
        got = extremality._penalized_gap_program(s1, s2, anchor, shift, eps)
        want = reference_gap_program(s1.hrep(), s2.hrep(), anchor, shift, eps)
        for f in fields(LinearProgram):
            if f.name not in ("ineq_rhs", "eq_rhs"):
                assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert got.ineq_rhs == tuple(b - dot(a, start) for a, b in zip(want.ineq_lhs, want.ineq_rhs))
        assert got.eq_rhs == tuple(b - dot(a, start) for a, b in zip(want.eq_lhs, want.eq_rhs))
        assert all(b >= 0 for b in got.ineq_rhs) and not any(got.eq_rhs)


def _assert_convolution_matches(s1, s2, g) -> str:
    """The convolution at g has the kind and the value of the cold
    program. Its witnesses are checked by attainment on each set's own
    prepared system, not compared: another optimal basis may split g
    differently. Returns the kind."""
    got = inf_convolution_support(s1, s2, g)
    kind, value = reference_convolution(s1, s2, g)
    assert (got.kind, got.value) == (kind, value), (s1, s2, g)
    if kind == "finite":
        assert vadd(got.witness1, got.witness2) == vec(g)
        v1, v2 = support_value(s1, got.witness1), support_value(s2, got.witness2)
        assert v1.finite and v2.finite and v1.value + v2.value == value, (s1, s2, g)
    else:
        assert got.witness1 is None and got.witness2 is None
    return kind


def _line(height):
    return ConvexSet.from_hrep(2, eqs=[((0, 1), height)])


def test_convolution_matches_cold_program(corpus):
    """Every pair of the corpus, disjoint ones in both orders and flat
    ones with equality rows included, at every standard probe and the
    zero functional, together with unbounded pairs; an empty set is
    refused."""
    up = ConvexSet.from_hrep(2, ineqs=[((0, -1), 0)])
    down = ConvexSet.from_hrep(2, ineqs=[((0, 1), 0)])
    unbounded = [(up, up), (up, down), (down, up.translate((0, 1))), (up, _line(1)),
                 (_line(0), _line(1)), (_line(1), box(0, 1, 0, 1))]
    kinds = []
    for s1, s2 in corpus + unbounded:
        probes = standard_probes(s1.dim) + (zero_vec(s1.dim),)
        if s1.is_empty() or s2.is_empty():
            with pytest.raises(PreconditionError):
                inf_convolution_support(s1, s2, probes[0])
            continue
        kinds += [_assert_convolution_matches(s1, s2, g) for g in probes]
    assert set(kinds) == {"finite", "plus-infinity", "minus-infinity"}


@PROPERTY
@given(interior_pairs(), st.booleans(), st.data())
def test_convolution_matches_cold_program_on_random_pairs(pair, swap, data):
    """Random pairs that overlap, touch or miss, flat half the time by
    an equality held as two rows, in both orders, at a random rational
    functional, zero included."""
    s1, rows = pair
    s2 = ConvexSet.from_hrep(s1.dim, rows)
    if swap:
        s1, s2 = s2, s1
    g = tuple(data.draw(st.fractions(-3, 3, max_denominator=3)) for _ in range(s1.dim))
    _assert_convolution_matches(s1, s2, g)
