"""Exact LP solver and certificate checker.

A certificate accepted by verify_certificate is a proof of the claimed
outcome, so the random loops need no second solver: they check that the
solver always returns a verifying certificate and that tampered
certificates are rejected. The checker works in scaled integers, and
every verdict it gives here is required to equal the Fraction check it
replaced, reference_verify. The prepared-system tests do compare against
a second solver, reference_solve, because they promise more than a valid
certificate: the very outcome a cold two-phase solve gives.
"""
from dataclasses import fields, replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyexact import cones
from polyexact import lp as lp_module
from polyexact.calculus import (InfConvolutionValue, difference_interiority,
                                 inf_convolution_support, standard_probes)
from polyexact.cones import cone_sum_decompose, make_cone, normal_cone
from polyexact.errors import CapacityError, InputError, InternalError
from polyexact.linalg import unit_vec, vneg, zero_vec
from polyexact.lp import (
    FREE,
    NONNEG,
    NONPOS,
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    PreparedSystem,
    combination_program,
    make_program,
    solve_lp,
    verify_certificate,
)
from polyexact.oracle import lp_mutations, random_pair_with_common_point, random_lp
from polyexact.sets import ConvexSet
import cone_reference
from cone_reference import reference_make_cone
from lp_reference import reference_verify
from reach_reference import reach_program, reference_reach


def test_box_corner_optimum():
    lp = make_program([-1, -1], ineqs=[((1, 0), 1), ((0, 1), 1)], signs=[NONNEG, NONNEG])
    out = solve_lp(lp)
    assert isinstance(out, LpOptimal)
    assert out.point == (1, 1)
    assert out.value == -2
    assert out.dual_ineq == (1, 1)


def test_contradictory_bounds_farkas():
    # x <= 0 and -x <= -1 together say 0 <= -1
    lp = make_program([0], ineqs=[((1,), 0), ((-1,), -1)])
    out = solve_lp(lp)
    assert isinstance(out, LpInfeasible)
    assert out.farkas_ineq == (1, 1)


def test_unbounded_below():
    lp = make_program([-1], signs=[NONNEG])
    out = solve_lp(lp)
    assert isinstance(out, LpUnbounded)
    assert out.ray == (1,)
    assert out.point == (0,)


def test_equality_constraint():
    lp = make_program([1, 1], ineqs=[((1, -1), 1)], eqs=[((1, 1), 3)])
    out = solve_lp(lp)
    assert isinstance(out, LpOptimal)
    assert out.value == 3


def test_fractional_data():
    lp = make_program(
        [1, 0],
        ineqs=[((2, 3), 6), ((-1, 0), F(-1, 2))],
        eqs=[((0, 1), F(1, 3))],
    )
    out = solve_lp(lp)
    assert out.point == (F(1, 2), F(1, 3))
    assert out.value == F(1, 2)


def test_nonpositive_variable():
    lp = make_program([1], ineqs=[((-1,), 5)], signs=[NONPOS])
    out = solve_lp(lp)
    assert out.point == (-5,)
    assert out.value == -5


def test_redundant_equalities_are_dropped():
    # the duplicated rows force redundant artificials out of the basis
    lp = make_program(
        [1, 0],
        ineqs=[((-1, 0), 0)],
        eqs=[((1, 1), 2), ((1, 1), 2), ((2, 2), 4)],
    )
    out = solve_lp(lp)
    assert isinstance(out, LpOptimal)
    assert out.value == 0
    assert out.point == (0, 2)


def test_infeasible_signs_vs_equality():
    lp = make_program([0, 0], eqs=[((1, 1), -1)], signs=[NONNEG, NONNEG])
    out = solve_lp(lp)
    assert isinstance(out, LpInfeasible)


def test_empty_program_is_feasible_at_origin():
    out = solve_lp(make_program([0, 0]))
    assert isinstance(out, LpOptimal)
    assert out.point == (0, 0)
    assert out.value == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_combination_program_without_columns(dim):
    # no columns combine to the target 0 alone, at value 0, and to no
    # other target, with a checked Farkas vector; so the trivial cone and
    # a pair of sets with no rows need no case of their own
    zero = zero_vec(dim)
    out = solve_lp(combination_program([], zero, []))
    assert isinstance(out, LpOptimal) and out.point == () and out.value == 0
    trivial, whole = make_cone(dim), ConvexSet.from_hrep(dim)
    assert cone_sum_decompose(trivial, trivial, zero) == (zero, zero)
    assert inf_convolution_support(whole, whole, zero) == InfConvolutionValue(
        "finite", 0, zero, zero)
    for t in [unit_vec(dim, j, sign) for j in range(dim) for sign in (1, -1)]:
        program = combination_program([], t, [])
        out = solve_lp(program)
        assert isinstance(out, LpInfeasible) and verify_certificate(program, out)
        assert cone_sum_decompose(trivial, trivial, t) is None
        assert inf_convolution_support(whole, whole, t).kind == "plus-infinity"


def test_unbounded_through_equality():
    lp = make_program([1, 0], eqs=[((1, 1), 0)], signs=[FREE, NONNEG])
    out = solve_lp(lp)
    assert isinstance(out, LpUnbounded)
    assert out.ray[0] < 0


def test_degenerate_vertex():
    # three constraints meet at (0,0); Bland's rule must not cycle
    lp = make_program(
        [-1, -1],
        ineqs=[((1, 1), 0), ((1, 2), 0), ((2, 1), 0)],
        signs=[NONNEG, NONNEG],
    )
    out = solve_lp(lp)
    assert isinstance(out, LpOptimal)
    assert out.point == (0, 0)
    assert out.value == 0


def test_row_length_mismatch_rejected():
    with pytest.raises(InputError):
        make_program([1, 1], ineqs=[((1,), 0)])
    with pytest.raises(InputError):
        make_program([1], signs=[NONNEG, NONNEG])


def test_row_cap():
    rows = [((1,), 0)] * lp_module.MAX_ROWS
    make_program([0], ineqs=rows[1:], eqs=rows[:1])
    with pytest.raises(CapacityError):
        make_program([0], ineqs=rows, eqs=[((1,), 0)])
    with pytest.raises(CapacityError):
        make_program([0], ineqs=[((1,), 0)], eqs=rows)


def test_literal_cap():
    # one digit past the cap, in a numerator or a denominator
    widest = 10 ** lp_module.MAX_LITERAL_DIGITS - 1
    make_program([widest], ineqs=[((F(1, widest),), -widest)], eqs=[((1,), F(widest, 7))])
    for wide in (widest + 1, -widest - 1, F(1, widest + 1), str(widest + 1)):
        for objective, ineqs, eqs in [
            ([wide], [], []),
            ([1], [((wide,), 0)], []),
            ([1], [((1,), wide)], []),
            ([1], [], [((wide,), 0)]),
            ([1], [], [((1,), wide)]),
        ]:
            with pytest.raises(CapacityError):
                make_program(objective, ineqs=ineqs, eqs=eqs)


def test_literal_cap_on_prepared_objectives_and_columns():
    # the objectives a prepared system takes meet the same cap
    widest = 10 ** lp_module.MAX_LITERAL_DIGITS - 1
    system = PreparedSystem(make_program([0, 0], ineqs=[((1, 0), 1)], signs=[FREE, NONNEG]))
    assert isinstance(system.solve([-widest, 0]), LpOptimal)
    assert isinstance(system.solve([F(-1, widest), 0]), LpOptimal)
    for wide in (widest + 1, -widest - 1, F(1, widest + 1)):
        with pytest.raises(CapacityError):
            system.solve([wide, 0])


def test_solver_is_deterministic():
    for seed in range(40):
        lp = random_lp(seed)
        assert solve_lp(lp) == solve_lp(lp)


def _verdict(lp, outcome):
    """verify_certificate's answer, after checking that reference_verify
    gives it too."""
    got = verify_certificate(lp, outcome)
    assert reference_verify(lp, outcome) == got, (lp, outcome)
    return got


def test_random_lps_verify():
    statuses = set()
    for seed in range(3000):
        lp = random_lp(seed)
        out = solve_lp(lp)
        statuses.add(out.status)
        assert _verdict(lp, out)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_mutated_certificates_rejected():
    mutated = 0
    for seed in range(3000):
        lp = random_lp(seed)
        out = solve_lp(lp)
        for bad in lp_mutations(lp, out):
            mutated += 1
            assert not _verdict(lp, bad)
    assert mutated > 3000


def _vector_fields(outcome):
    return [f.name for f in fields(outcome) if f.name != "value"]


def _tampers(outcome):
    """Copies of outcome with one entry of one certificate vector, or the
    value, moved by 1/7 either way."""
    for step in (F(1, 7), F(-1, 7)):
        if isinstance(outcome, LpOptimal):
            yield replace(outcome, value=outcome.value + step)
        for name in _vector_fields(outcome):
            v = getattr(outcome, name)
            for i in range(len(v)):
                yield replace(outcome, **{name: v[:i] + (v[i] + step,) + v[i + 1:]})


def _malformed(outcome):
    """Copies of outcome with a vector one entry short or long, an entry
    None, a vector None, or the value None."""
    for name in _vector_fields(outcome):
        v = getattr(outcome, name)
        yield replace(outcome, **{name: v + (F(0),)})
        yield replace(outcome, **{name: None})
        if v:
            yield replace(outcome, **{name: v[:-1]})
        for i in range(len(v)):
            yield replace(outcome, **{name: v[:i] + (None,) + v[i + 1:]})
    if isinstance(outcome, LpOptimal):
        yield replace(outcome, value=None)


def test_cross_status_certificates_rejected():
    lp = make_program([-1], signs=[NONNEG])
    opt = LpOptimal(point=(F(0),), value=F(0), dual_ineq=(), dual_eq=())
    assert not _verdict(lp, opt)
    assert not _verdict(lp, LpInfeasible(farkas_ineq=(), farkas_eq=()))


def test_malformed_certificates_return_false():
    lp = make_program([1, 1], ineqs=[((1, 0), 1)], signs=[NONNEG, NONNEG])
    assert not _verdict(lp, LpOptimal(point=(F(0),), value=F(0), dual_ineq=(F(0),), dual_eq=()))
    assert not _verdict(lp, LpOptimal(point=(F(0), F(0)), value=F(0), dual_ineq=(), dual_eq=()))
    assert not _verdict(lp, "nonsense")
    statuses = set()
    for seed in range(300):
        for lp in (random_lp(seed), _signed_lp(seed)):
            out = solve_lp(lp)
            statuses.add(out.status)
            for bad in _malformed(out):
                assert not _verdict(lp, bad), bad
    assert statuses == {"optimal", "infeasible", "unbounded"}


# -- degenerate and redundant programs -------------------------------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
POSITIVE = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9).filter(bool)


@st.composite
def redundant_rewrites(draw):
    """(lp, rewritten): a random program, signed or free, and the same
    program with redundant rows: a duplicated row, every row scaled by a
    positive rational, an implied inequality (a nonnegative combination
    of rows, loosened) and a pair of equalities dependent on a row, all
    in a drawn order. Every rewrite keeps the feasible set."""
    seed = draw(st.integers(0, 2999))
    lp = draw(st.sampled_from((random_lp(seed), _signed_lp(seed))))
    ineqs = list(zip(lp.ineq_lhs, lp.ineq_rhs))
    eqs = list(zip(lp.eq_lhs, lp.eq_rhs))
    scales = draw(st.lists(POSITIVE, min_size=len(ineqs) + len(eqs),
                           max_size=len(ineqs) + len(eqs)))
    rows = [(tuple(s * x for x in a), s * b) for s, (a, b) in zip(scales, ineqs + eqs)]
    ineqs, eqs = rows[:len(ineqs)], rows[len(ineqs):]
    if ineqs:
        ineqs.append(draw(st.sampled_from(ineqs)))
        weights = draw(st.lists(st.integers(0, 3), min_size=len(ineqs), max_size=len(ineqs)))
        slack = draw(st.integers(0, 2))
        ineqs.append((tuple(sum(w * a[j] for w, (a, _) in zip(weights, ineqs))
                            for j in range(lp.dim)),
                      sum(w * b for w, (_, b) in zip(weights, ineqs)) + slack))
    if eqs:
        a, b = draw(st.sampled_from(eqs))
        t = draw(POSITIVE) * draw(st.sampled_from((1, -1)))
        eqs += [(a, b), (tuple(t * x for x in a), t * b)]
    rewritten = make_program(lp.objective, ineqs=draw(st.permutations(ineqs)),
                             eqs=draw(st.permutations(eqs)), signs=lp.var_signs)
    return lp, rewritten


@PROPERTY
@given(redundant_rewrites())
def test_redundant_rows_keep_status_value_and_certificates(programs):
    lp, rewritten = programs
    out, again = solve_lp(lp), solve_lp(rewritten)
    assert _verdict(rewritten, again)
    assert again.status == out.status
    if out.status == "optimal":
        assert again.value == out.value


# -- cross-check against a cold two-phase solve ---------------------------------

class _ReferenceTableau:
    """The one-shot solver the prepared system replaced: the phase-two
    cost row starts as the objective and is pivoted along with phase one
    and the artificial drive-out, instead of being rebuilt from the basis.

    It starts where lp._Tableau does: an inequality row with a
    nonnegative right-hand side on its slack, every other row on its
    artificial, and phase one charges only those. Every artificial still
    costs 1 in phase one; one beside a basic slack is that slack's twin
    and never enters, so multipliers reads each row alike. Both solvers
    must start on the same basis, because a program with several optimal
    bases, or several Farkas witnesses, is compared outcome for outcome."""

    def __init__(self, lp):
        self.lp = lp
        self.tcols = []
        for j, s in enumerate(lp.var_signs):
            if s >= 0:
                self.tcols.append((j, 1))
            if s <= 0:
                self.tcols.append((j, -1))
        self.m1 = len(lp.ineq_lhs)
        self.m2 = len(lp.eq_lhs)
        self.m = self.m1 + self.m2
        self.nt = len(self.tcols)
        self.ns = self.m1
        self.ncols = self.nt + self.ns + self.m
        self.rowscale = []
        self.rows = []
        for r in range(self.m):
            if r < self.m1:
                a, b = lp.ineq_lhs[r], lp.ineq_rhs[r]
            else:
                a, b = lp.eq_lhs[r - self.m1], lp.eq_rhs[r - self.m1]
            scale = lcm(*(x.denominator for x in a), b.denominator)
            ai = [int(x * scale) for x in a]
            bi = int(b * scale)
            t = F(scale)
            if bi < 0:
                ai = [-x for x in ai]
                bi = -bi
                t = -t
            row = [0] * (self.ncols + 1)
            for k, (j, sg) in enumerate(self.tcols):
                row[k] = sg * ai[j]
            if r < self.m1:
                row[self.nt + r] = 1 if t > 0 else -1
            row[self.nt + self.ns + r] = 1
            row[-1] = bi
            self.rows.append(row)
            self.rowscale.append(t)
        self.obj_scale = lcm(*(x.denominator for x in lp.objective))
        cint = [int(x * self.obj_scale) for x in lp.objective]
        self.obj2 = [0] * (self.ncols + 1)
        for k, (j, sg) in enumerate(self.tcols):
            self.obj2[k] = sg * cint[j]
        self.basis = [self.nt + r if r < self.m1 and self.rowscale[r] > 0
                      else self.nt + self.ns + r for r in range(self.m)]
        self.obj1 = [0] * (self.ncols + 1)
        for row, b in zip(self.rows, self.basis):
            if b >= self.nt + self.ns:
                for j in range(self.ncols + 1):
                    self.obj1[j] -= row[j]
        for r in range(self.m):
            self.obj1[self.nt + self.ns + r] += 1
        self.active = [True] * self.m
        self.den = 1

    def pivot(self, pr, pc):
        piv = self.rows[pr][pc]
        den = self.den
        prow = self.rows[pr]
        width = self.ncols + 1
        for row in self.rows + [self.obj1, self.obj2]:
            if row is prow:
                continue
            f = row[pc]
            for j in range(width):
                num = row[j] * piv - f * prow[j]
                assert num % den == 0
                row[j] = num // den
        self.den = piv
        self.basis[pr] = pc
        if self.den < 0:
            self.den = -self.den
            for row in self.rows + [self.obj1, self.obj2]:
                for j in range(width):
                    row[j] = -row[j]

    def ratio_row(self, pc):
        best = None
        for i in range(self.m):
            a = self.rows[i][pc]
            if not self.active[i] or a <= 0:
                continue
            key = (self.rows[i][-1], a, self.basis[i], i)
            if best is None:
                best = key
                continue
            b, _, var, _ = key
            bb, ba, bvar, _ = best
            if b * ba < bb * a or (b * ba == bb * a and var < bvar):
                best = key
        return None if best is None else best[3]

    def run(self, obj):
        while True:
            pc = next((j for j in range(self.nt + self.ns) if obj[j] < 0), None)
            if pc is None:
                return None
            pr = self.ratio_row(pc)
            if pr is None:
                return pc
            self.pivot(pr, pc)

    def point(self):
        vals = {self.basis[i]: F(self.rows[i][-1], self.den)
                for i in range(self.m) if self.active[i]}
        return self.to_vars(vals)

    def to_vars(self, vals):
        x = [F(0)] * self.lp.dim
        for k, (j, sg) in enumerate(self.tcols):
            if vals.get(k):
                x[j] += sg * vals[k]
        return tuple(x)

    def multipliers(self, obj, art_cost, unscale):
        return [(art_cost - F(obj[self.nt + self.ns + r], self.den)) * self.rowscale[r] / unscale
                for r in range(self.m)]


def reference_solve(lp):
    tab = _ReferenceTableau(lp)
    assert tab.run(tab.obj1) is None
    if tab.obj1[-1] != 0:
        w = tab.multipliers(tab.obj1, 1, F(1))
        return LpInfeasible(tuple(-w[r] for r in range(tab.m1)),
                            tuple(-w[tab.m1 + k] for k in range(tab.m2)))
    for i in range(tab.m):
        if tab.active[i] and tab.basis[i] >= tab.nt + tab.ns:
            row = tab.rows[i]
            pc = next((j for j in range(tab.nt + tab.ns) if row[j] != 0), None)
            if pc is None:
                tab.active[i] = False
            else:
                tab.pivot(i, pc)
    col = tab.run(tab.obj2)
    if col is not None:
        ray = {col: F(1)}
        for i in range(tab.m):
            if tab.active[i]:
                ray[tab.basis[i]] = F(-tab.rows[i][col], tab.den)
        return LpUnbounded(tab.to_vars(ray), tab.point())
    w = tab.multipliers(tab.obj2, 0, F(tab.obj_scale))
    return LpOptimal(tab.point(), F(-tab.obj2[-1], tab.den) / tab.obj_scale,
                     tuple(-w[r] for r in range(tab.m1)),
                     tuple(w[tab.m1 + k] for k in range(tab.m2)))


def _matches_reference(lp):
    """The outcome reference_solve gives, after checking that solve_lp
    and a prepared system give it too, and that both checkers accept it
    and judge each single-entry tamper of it alike."""
    expected = reference_solve(lp)
    assert solve_lp(lp) == expected, lp
    # phase one runs on a program with another objective
    blind = PreparedSystem(replace(lp, objective=zero_vec(lp.dim)))
    assert blind.solve(lp.objective) == expected, lp
    assert _verdict(lp, expected)
    for bad in _tampers(expected):
        # a tampered Farkas vector or ray can still be a witness
        _verdict(lp, bad)
    return expected


def test_prepared_and_one_shot_match_reference_on_random_lps():
    statuses = set()
    for seed in range(3000):
        statuses.add(_matches_reference(random_lp(seed)).status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _signed_lp(seed):
    lp = random_lp(seed)
    signs = tuple((NONNEG, NONPOS, FREE)[(seed + j) % 3] for j in range(lp.dim))
    return replace(lp, var_signs=signs)


def _with_dependent_equalities(lp):
    """lp with its first row added as an equality twice, once as is and
    once times -3, so a feasible program drops a row as inactive."""
    a, b = (lp.ineq_lhs + lp.eq_lhs)[0], (lp.ineq_rhs + lp.eq_rhs)[0]
    return replace(lp, eq_lhs=lp.eq_lhs + (a, tuple(-3 * x for x in a)),
                   eq_rhs=lp.eq_rhs + (b, -3 * b))


def _with_negated_rhs(lp):
    return replace(lp, ineq_rhs=vneg(lp.ineq_rhs), eq_rhs=vneg(lp.eq_rhs))


def _recorded_programs(monkeypatch, module, run):
    """The programs module hands to solve_lp while run() executes."""
    seen = []

    def record(lp):
        seen.append(lp)
        return solve_lp(lp)

    with monkeypatch.context() as patch:
        patch.setattr(module, "solve_lp", record)
        run()
    return seen


def _corner_programs(dim, seeds):
    """The reach programs difference_interiority stands for on random
    pairs: the corners in its order, up to the first of reach zero."""
    programs = []
    for seed in seeds:
        s1, s2, _ = random_pair_with_common_point(seed, dim)
        for bits in range(1 << dim):
            c = tuple(F(1) if bits >> j & 1 else F(-1) for j in range(dim))
            programs.append(reach_program(s1, s2, c))
            if reference_reach(s1, s2, c)[0] == 0:
                break
    return programs


def _conic_programs(monkeypatch, dim, seeds):
    """The membership programs of reference_make_cone on the cones
    normal_cone canonicalizes at each pair's anchor."""
    inputs = []
    build = cones.make_cone

    def recorded(*args, **kwargs):
        inputs.append((args, kwargs))
        return build(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cones, "make_cone", recorded)
        for seed in seeds:
            s1, s2, anchor = random_pair_with_common_point(seed, dim)
            normal_cone(s1, anchor)
            normal_cone(s2, anchor)

    def run():
        for args, kwargs in inputs:
            reference_make_cone(*args, **kwargs)
    return _recorded_programs(monkeypatch, cone_reference, run)


def _library_programs(monkeypatch):
    corners = (_corner_programs(2, range(1, 13))
               + _corner_programs(3, range(1, 7))
               + _corner_programs(4, range(1, 3)))
    conic = [lp for dim in (2, 3, 4) for lp in _conic_programs(monkeypatch, dim, range(1, 9))]
    assert len(corners) > 100 and len(conic) > 100
    return corners + conic


ALL_STATUSES = {"optimal", "infeasible", "unbounded"}
MORE_PROGRAMS = {
    # corpus: (programs, statuses they must reach)
    "signed": (lambda _: [_signed_lp(seed) for seed in range(1500)], ALL_STATUSES),
    "dependent": (lambda _: [_with_dependent_equalities(lp) for seed in range(600)
                             for lp in (random_lp(seed), _signed_lp(seed))], ALL_STATUSES),
    "negated_rhs": (lambda _: [_with_negated_rhs(_signed_lp(seed)) for seed in range(1000)],
                    ALL_STATUSES),
    "empty": (lambda _: [
        make_program([]),
        make_program([0, 0]),
        make_program([1, -1]),
        make_program([1, 2], signs=[NONNEG, NONNEG]),
        make_program([-1, 1], signs=[NONPOS, NONNEG]),
        make_program([1], signs=[NONPOS]),
    ], {"optimal", "unbounded"}),
    "library": (_library_programs, {"optimal", "infeasible"}),
}


@pytest.mark.parametrize("corpus", sorted(MORE_PROGRAMS))
def test_prepared_and_one_shot_match_reference_on_more_programs(corpus, monkeypatch):
    build, statuses = MORE_PROGRAMS[corpus]
    programs = build(monkeypatch)
    assert {_matches_reference(lp).status for lp in programs} == statuses


def _per_row_start(lp):
    """(rows, rowscale, slack_sign) of the starting tableau, built row by
    row from the program's Fractions: each row cleared of its own
    denominators and negated where its rhs is negative."""
    n, m1 = lp.dim, len(lp.ineq_lhs)
    m = m1 + len(lp.eq_lhs)
    rows, rowscale, slack_sign = [], [], []
    for r, (a, b) in enumerate(zip(lp.ineq_lhs + lp.eq_lhs, lp.ineq_rhs + lp.eq_rhs)):
        scale = lcm(*(x.denominator for x in a), b.denominator)
        sign = -1 if b < 0 else 1
        row = [0] * (n + m + 1)
        for j, (x, s) in enumerate(zip(a, lp.var_signs)):
            row[j] = (-sign if s == NONPOS else sign) * x.numerator * (scale // x.denominator)
        row[n + r] = sign if r < m1 else 1
        row[-1] = sign * b.numerator * (scale // b.denominator)
        rows.append(row)
        rowscale.append(F(sign * scale))
        if r < m1:
            slack_sign.append(sign)
    return rows, rowscale, slack_sign


@pytest.mark.parametrize("corpus", ["random", "signed", "dependent", "library"])
def test_tableau_from_integer_rows_matches_per_row_start(corpus, monkeypatch):
    if corpus == "random":
        programs = [random_lp(seed) for seed in range(1500)]
    else:
        build, _ = MORE_PROGRAMS[corpus]
        programs = build(monkeypatch)
    for lp in programs:
        tab = lp_module._Tableau(lp, lp_module.integer_rows(lp))
        assert (tab.rows, tab.rowscale, tab.slack_sign) == _per_row_start(lp), lp


def test_dependent_equalities_leave_inactive_rows():
    # so the dependent corpus above reaches rows dropped by the drive-out
    feasible = []
    for seed in range(600):
        lp = _with_dependent_equalities(_signed_lp(seed))
        tab = lp_module._phase_one(lp, lp_module.integer_rows(lp))
        if isinstance(tab, lp_module._Tableau):
            feasible.append(tab)
    assert len(feasible) > 200
    assert not any(all(tab.active) for tab in feasible)


def test_prepared_reach_pivots_are_pinned(monkeypatch):
    """difference_interiority on dim-4 pairs, with one gauge program per
    pair: two tableaux per pair, the gauge program's and the common
    point's. One cold program per corner took 32 tableaux and 1,441
    pivots on pairs 1-2, and 96 and 3,236 on pairs 1-6. The reach program
    over (x1, x2, delta), with n coupling equalities, took 171 pivots on
    pairs 1-2 and 484 on pairs 1-6; over (x1, delta), one tableau per
    pair with m1 + m2 + 1 rows, it took 139 and 392. These and the
    counts below up to the slack-basis start were taken with phase one
    starting every row on its artificial.

    The gauge program has n + 1 rows, so it takes more pivots (258 and
    475 when every row started on its artificial) that each rewrite
    fewer entries. The entries a pivot rewrites are its tableau's other
    rows, the cost row included, times the stored columns; summed, they
    pin the work: 90,208 and 141,647 over (x1, delta), and 64,675 and
    91,836 before the slack-basis start. Now each inequality row with a
    nonnegative right-hand side starts on its slack, so phase one skips
    the rows already feasible: 201 pivots and 33,870 entries on pairs
    1-2, and 381 and 51,650 on pairs 1-6."""
    tableaux, pivots, entries = [], [], []
    init, pivot = lp_module._Tableau.__init__, lp_module._Tableau._pivot

    def counting_init(self, lp, *rows):
        tableaux.append(lp)
        init(self, lp, *rows)

    def counting_pivot(self, pr, pc, obj):
        pivots.append((pr, pc))
        entries.append((len(self.rows) - (obj is None)) * len(self.rows[pr]))
        pivot(self, pr, pc, obj)

    monkeypatch.setattr(lp_module._Tableau, "__init__", counting_init)
    monkeypatch.setattr(lp_module._Tableau, "_pivot", counting_pivot)
    for top, want in ((2, (4, 201, 33870)), (6, (12, 381, 51650))):
        pairs = [random_pair_with_common_point(seed, 4)[:2] for seed in range(1, top + 1)]
        tableaux.clear()
        pivots.clear()
        entries.clear()
        for s1, s2 in pairs:
            difference_interiority(s1, s2)
        assert (len(tableaux), len(pivots), sum(entries)) == want


def test_set_systems_match_reference_on_probes_and_row_normals():
    solved = 0
    for dim, top in ((2, 12), (3, 8), (4, 3)):
        probes = standard_probes(dim)
        for seed in range(1, top + 1):
            for s in random_pair_with_common_point(seed, dim)[:2]:
                h = s.hrep()
                objectives = [vneg(g) for g in probes] + [a for a, _ in h.ineqs]
                for c in objectives:
                    lp = make_program(c, ineqs=h.ineqs, eqs=h.eqs)
                    expected = reference_solve(lp)
                    assert s.lp_system().solve(c) == expected, (dim, seed, c)
                    assert _verdict(lp, expected)
                    solved += 1
    assert solved > 1000


def test_infeasible_system_returns_its_farkas_certificate_for_any_objective():
    # x + y <= 0 and x + y >= 1 cannot both hold
    lp = make_program([0, 0], ineqs=[((1, 1), 0), ((-1, -1), -1)])
    system = PreparedSystem(lp)
    farkas = solve_lp(lp)
    assert isinstance(farkas, LpInfeasible)
    for c in [(0, 0), (1, 0), (F(-3, 7), 2), (5, 5)]:
        out = system.solve(c)
        assert out == farkas
        assert _verdict(replace(lp, objective=tuple(map(F, c))), out)


def test_objective_length_must_match_the_system():
    system = PreparedSystem(make_program([0, 0], ineqs=[((1, 0), 1)]))
    with pytest.raises(InputError):
        system.solve([1])
    with pytest.raises(InputError):
        system.solve([1, 0, 0])


def test_is_empty_builds_one_tableau(monkeypatch):
    built = []
    original = lp_module._Tableau.__init__

    def counting(self, lp, *rows):
        built.append(lp)
        original(self, lp, *rows)

    monkeypatch.setattr(lp_module._Tableau, "__init__", counting)
    s = ConvexSet.from_hrep(2, ineqs=[((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((1, 1), 5)])
    for _ in range(5):
        assert not s.is_empty()
    empty = ConvexSet.from_hrep(1, ineqs=[((1,), 0), ((-1,), -1)])
    for _ in range(5):
        assert empty.is_empty()
    assert len(built) == 2


def test_prepared_system_integerizes_its_rows_once(monkeypatch):
    built = []
    original = lp_module.integer_rows

    def counting(lp):
        built.append(lp)
        return original(lp)

    monkeypatch.setattr(lp_module, "integer_rows", counting)
    # x + y <= 1, y <= 1/2, x + y >= 0, and z, whose column is zero
    lp = make_program([0, 0, 0], ineqs=[((1, 1, 0), 1), ((0, 1, 0), F(1, 2)), ((-1, -1, 0), 0)],
                      signs=[FREE, FREE, NONNEG])
    system = PreparedSystem(lp)
    statuses = {system.solve(c).status
                for c in [(1, 0, 0), (-1, 0, 0), (0, -1, 0), (F(-1, 3), 1, 0), (-1, -1, 0)]}
    assert statuses == {"optimal", "unbounded"}
    assert len(built) == 1
    # a one-shot solve builds it once, and a direct check builds it per call
    assert verify_certificate(lp, solve_lp(lp))
    assert len(built) == 3


def test_one_shot_tableau_and_check_read_one_integer_form(monkeypatch):
    """solve_lp clears each row's denominators once: the tableau starts
    from the very IntegerRows its certificate check reads."""
    read = []
    init, check = lp_module._Tableau.__init__, lp_module._check

    def recording_init(self, lp, *rows):
        read.append(("tableau", *rows))
        init(self, lp, *rows)

    def recording_check(lp, outcome, rows):
        read.append(("check", rows))
        check(lp, outcome, rows)

    monkeypatch.setattr(lp_module._Tableau, "__init__", recording_init)
    monkeypatch.setattr(lp_module, "_check", recording_check)
    for seed in range(40):
        read.clear()
        solve_lp(random_lp(seed))
        (_, rows), (_, checked) = read
        assert isinstance(rows, lp_module.IntegerRows) and checked is rows


def test_is_empty_reads_phase_one(monkeypatch):
    rows = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1)]
    monkeypatch.setattr(lp_module, "_phase_two", lambda tab, lp: pytest.fail("phase two ran"))
    assert not ConvexSet.from_hrep(2, ineqs=rows).is_empty()
    # "nonempty" rests on the phase-one point, which must satisfy the rows
    monkeypatch.setattr(lp_module._Tableau, "point", lambda self: (F(2), F(0)))
    with pytest.raises(InternalError):
        ConvexSet.from_hrep(2, ineqs=rows).is_empty()


# -- the integer pivot ----------------------------------------------------------

def _after_one_pivot():
    """x enters at row 0, so the denominator becomes 2. Stored columns:
    x, y, the four slacks, the rhs."""
    lp = make_program([0, 0], ineqs=[((2, 1), 4), ((1, 1), 3), ((1, 3), 5), ((4, 2), 9)])
    tab = lp_module._Tableau(lp, lp_module.integer_rows(lp))
    tab._pivot(0, 0, None)
    assert tab.den == 2
    assert tab.rows == [[2, 1, 1, 0, 0, 0, 4], [0, 1, -1, 2, 0, 0, 2],
                        [0, 5, -1, 0, 2, 0, 6], [0, 0, -4, 0, 0, 2, 2]]
    return tab


@pytest.mark.parametrize("row, col, pc", [
    (0, 3, 5),   # piv == den: row 0 now meets the entering slack 1
    (0, 6, 2),   # piv != den, on a row the pivot column crosses
    (3, 5, 2),   # piv != den, on a row it leaves alone
])
def test_corrupted_entry_breaks_exactness(row, col, pc):
    clean = _after_one_pivot()
    clean._pivot(1, pc, None)
    tab = _after_one_pivot()
    tab.rows[row][col] += 1
    with pytest.raises(InternalError, match="integer pivot lost exactness"):
        tab._pivot(1, pc, None)


def test_pivot_counts_are_pinned(monkeypatch):
    """Pivots of 1,000 random programs and of the 32 corner programs of
    dim-4 pairs 1-2. The sparse layout changed the work per pivot, not
    the pivots. They were 3,825 and 1,441 while phase one started every
    row on its artificial; an inequality row with a nonnegative
    right-hand side now starts on its slack, so phase one charges only
    the rows that are not yet feasible."""
    corners = _corner_programs(4, (1, 2))
    pivots = []
    original = lp_module._Tableau._pivot

    def counting(self, pr, pc, obj):
        pivots.append((pr, pc))
        original(self, pr, pc, obj)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", counting)
    for seed in range(1000):
        solve_lp(random_lp(seed))
    assert len(pivots) == 2663
    pivots.clear()
    for lp in corners:
        solve_lp(lp)
    assert (len(corners), len(pivots)) == (32, 565)
