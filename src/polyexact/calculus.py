"""Exact convex calculus for pairs of polyhedra.

Three groups of results live here. Qualification conditions compare the
classical overlap-of-interiors test with conditions phrased on the
difference set, including a windowed variant that restricts the second
set to a box around a common point. The normal-cone rule computes the
cone of an intersection two ways and splits probe functionals across
the summands. Support-function identities evaluate the support of an
intersection against the infimal convolution of the individual
supports, with witnesses that attain the convolution exactly.

Every verdict is an exact rational computation: interiority claims are
certified by corner decompositions of a small cube. For polyhedra the
normal-cone rule and the support identity are both LP duality on the
support program of A & B, solved once per functional and kept whole
(_support_outcome; Rockafellar 1970, Theorem 16.4 and Corollary
23.8.1). Its checked duals give the infimal convolution and the split
of a probe across the two normal cones, and certificates built from
the same outcome, checked against each set's own rows, prove the
split attained, so the rule and the identity share one solve. How far
the difference reaches along a direction d is min(1, 1/gamma(d)), where
gamma is the gauge of A - B: the largest z.d over the polar, the z with
sigma_A(z) + sigma_B(-z) <= 1 (Rockafellar 1970, sections 14-15). That
is one LP over the multipliers of both sets' rows whose constraints do
not depend on d, so a pair has one gauge program that runs phase one
once, and each direction is one objective, solved by one phase two with
its certificate checked. The maximizing pair is read off the verified
duals, and a zero reach comes with a verified unbounded ray. The pair's
program, reaches and corners are kept on the first set (see
ConvexSet.cached_with). The windowed condition solves nothing more:
each corner decomposition, shrunk toward the common point, is its
windowed witness, and it is checked against the rows of both sets.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial
from itertools import chain
from operator import mul

from .cones import (
    PolyhedralCone,
    cone_sum,
    cones_equal,
    normal_cone,
)
from .errors import InputError, InternalError, PreconditionError
from .linalg import (
    ONE,
    ZERO,
    Vec,
    combine,
    dot,
    linf_norm,
    over_one_denominator,
    unit_vec,
    vadd,
    vec,
    vneg,
    vscale,
    vsub,
    zero_vec,
)
from .lp import (
    FREE,
    NONNEG,
    IntegerRows,
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    PreparedSystem,
    _slacks,
    combination_program,
    solve_lp,
    verify_certificate,
)
from .oracle import Lcg
from .sets import ConvexSet, check_same_dim

PROBE_COUNT = 16


def _common_member(s1: ConvexSet, s2: ConvexSet, xbar) -> Vec:
    check_same_dim(s1, s2)
    x = vec(xbar)
    if len(x) != s1.dim:
        raise InputError("point dimension does not match the sets")
    if not (s1.contains(x) and s2.contains(x)):
        raise PreconditionError("the point must belong to both sets")
    return x


def common_point(s1: ConvexSet, s2: ConvexSet) -> Vec | None:
    """A point of the intersection, the checked phase-one point of its
    prepared system, or None when the sets are disjoint."""
    return s1.intersect(s2).lp_system().point


def _pair_rows(s1: ConvexSet, s2: ConvexSet):
    """(rows, signs): the rows (a, b) of s1's hrep() and then of s2's,
    inequalities before equalities in each, and the sign of a multiplier
    on each row, NONNEG on an inequality and FREE on an equality."""
    h1, h2 = s1.hrep(), s2.hrep()
    rows = h1.ineqs + h1.eqs + h2.ineqs + h2.eqs
    signs = ([NONNEG] * len(h1.ineqs) + [FREE] * len(h1.eqs)
             + [NONNEG] * len(h2.ineqs) + [FREE] * len(h2.eqs))
    return rows, signs


@dataclass(frozen=True)
class _Gauge:
    """A pair's gauge program after phase one (see _reach_system) and a
    common point of the pair, both None when the sets are disjoint, and
    the integer rows of the first set, whose multipliers lead. It holds
    neither set."""

    system: PreparedSystem | None
    point: Vec | None
    rows: IntegerRows


def _reach_system(s1: ConvexSet, s2: ConvexSet) -> _Gauge:
    """The gauge program of s1 - s2, whose constraints do not depend on
    the direction. Its variables are one multiplier y_k per row
    (a_k, b_k) of s1 and then of s2 (_pair_rows), and its rows say
    sum_k y_k a_k = 0 and sum_k y_k b_k <= 1. By LP duality the sums
    z = sum_{k in s1} y_k a_k over such y are exactly the z with
    sigma_s1(z) + sigma_s2(-z) <= 1, the polar of the difference, so
    the gauge of the difference along d is the largest z.d over them
    (Rockafellar 1970, sections 14-15); every direction is one
    objective (_reach_along).
    With no row at all it has no variable, and the gauge is zero. s2 is
    read only through its hrep(), which _pair_system derived."""
    c = common_point(s1, s2)
    if c is None:
        return _Gauge(None, None, s1.integer_rows())
    rows, signs = _pair_rows(s1, s2)
    lp = combination_program([a for a, _ in rows], zero_vec(s1.dim), signs,
                             ineqs=[([b for _, b in rows], ONE)])
    return _Gauge(PreparedSystem(lp), c, s1.integer_rows())


def _reach_along(gauge: _Gauge, direction: Vec):
    """How far s1 - s2 reaches from the origin along a direction d: the
    largest delta in [0, 1] with delta * d = x1 - x2 for some x1 in s1,
    x2 in s2, together with one such pair, for the pair whose
    _reach_system this is. The gauge gamma of the difference along d is
    the largest sum_{k in s1} y_k (a_k.d) on the gauge program, each
    a_k.d read off s1's integer rows, and delta = min(1, 1/gamma).

    An unbounded program (gamma infinite) gives delta = 0 and the pair
    (c, c) at the common point c. An optimal one gives the pair from
    its verified duals, lambda on the cap row and z on the rows
    sum_k y_k a_k = 0: d + z lies in lambda * s1 and z in lambda * s2
    (the recession cones when lambda = 0), and lambda = gamma by the
    certificate's value equation, so
    x1 = delta (d + z) + (1 - delta lambda) c and
    x2 = delta z + (1 - delta lambda) c. A disjoint pair has reach zero
    with no pair: the origin is not in the difference."""
    c = gauge.point
    if c is None:
        return ZERO, None, None
    # a row (A, B, k) is s*(a, b) with s = scale/k, and d = D/q, so
    # a.d = (A.D)*k/(scale*q)
    ds, q = over_one_denominator(direction)
    rows = gauge.rows
    objective = [Fraction(-sum(map(mul, a, ds)) * k, rows.scale * q)
                 for a, _, k in chain(rows.ineq, rows.eq)]
    objective += [ZERO] * (gauge.system.lp.dim - len(objective))
    out = gauge.system.solve(objective)
    if isinstance(out, LpUnbounded):
        return ZERO, c, c
    if not isinstance(out, LpOptimal):
        raise InternalError("a gauge program is feasible at zero")
    lam, z = out.dual_ineq[0], out.dual_eq
    delta = ONE if lam <= 1 else 1 / lam
    x2 = vadd(vscale(delta, z), vscale(1 - delta * lam, c))
    return delta, vadd(x2, vscale(delta, direction)), x2


def _pair_system(s1: ConvexSet, s2: ConvexSet) -> _Gauge:
    """The pair's one gauge program, kept on s1 for its last partner.
    Both row descriptions are derived first, so the build, which runs
    under s1's lock, never waits on the lock of s2."""
    s1.hrep()
    s2.hrep()
    return s1.cached_with(s2, "reach_system", partial(_reach_system, s1, s2))


def _pair_reach(s1: ConvexSet, s2: ConvexSet, direction: Vec):
    """_reach_along for the pair itself, solved once per direction on
    the pair's one gauge program; both are kept on s1 for its last
    partner."""
    system = _pair_system(s1, s2)
    return s1.cached_with(s2, ("reach", direction), partial(_reach_along, system, direction))


def _corner_decompositions(s1: ConvexSet, s2: ConvexSet):
    """Reach along every sign corner of the unit cube, with maximizing
    pairs. Returns None as soon as some corner has reach zero; all
    corners positive certifies the origin interior to the difference,
    since the hull of the reached corners contains a cube. Kept on s1
    for its last partner, after both row descriptions (see _pair_system)."""
    def build():
        out = []
        for bits in range(1 << s1.dim):
            c = tuple(ONE if bits >> j & 1 else -ONE for j in range(s1.dim))
            delta, x1, x2 = _pair_reach(s1, s2, c)
            if delta == 0:
                return None
            out.append((c, delta, x1, x2))
        return tuple(out)
    s1.hrep()
    s2.hrep()
    return s1.cached_with(s2, "corners", build)


def difference_interiority(s1: ConvexSet, s2: ConvexSet) -> Fraction | None:
    """Certified sup-norm radius of a box around the origin inside
    s1 - s2, or None when the origin is not interior to the difference.
    The difference set is never materialized; each corner of the box is
    reached along its own objective on the pair's gauge program, which
    runs phase one once for all of them, and each corner is one phase
    two whose certificate is checked. Reaches are shared per pair:
    asking again, or asking qualification_report about the same pair,
    solves no corner twice."""
    check_same_dim(s1, s2)
    corners = _corner_decompositions(s1, s2)
    if corners is None:
        return None
    return min(delta for _, delta, _, _ in corners)


def core_at_zero(s1: ConvexSet, s2: ConvexSet) -> bool:
    """Whether the origin lies in the core of s1 - s2: the difference
    contains the origin and absorbs every signed coordinate direction.
    Convexity then absorbs all directions, so this matches the
    definitional core test on the materialized difference. A disjoint
    pair has reach zero along every axis. The axis reaches are shared
    per pair, like the corner reaches of difference_interiority."""
    check_same_dim(s1, s2)
    for i in range(s1.dim):
        for sign in (1, -1):
            delta, _, _ = _pair_reach(s1, s2, unit_vec(s1.dim, i, sign))
            if delta == 0:
                return False
    return True


def meets_interior(s1: ConvexSet, s2: ConvexSet) -> bool:
    """Whether some point of s1 is interior to s2: one slack program over
    the raw rows of s2 inside s1 (ConvexSet._slack_point), with no
    canonical form; an equality row of s2 leaves no interior."""
    check_same_dim(s1, s2)
    return s2._slack_point(within=s1) is not None


@dataclass(frozen=True)
class QcReport:
    """Four qualification conditions for a pair at a common point.

    classical_interiority: the first set meets the interior of the
    second. difference_interiority: the origin is interior to the
    difference set. bounded_extremality: the same with the second set
    restricted to a sup-norm box around the common point; the working
    box radius rides along. core_condition: the origin lies in the core
    of the difference."""

    classical_interiority: bool
    difference_interiority: bool
    bounded_extremality: bool
    bounded_extremality_radius: Fraction | None
    core_condition: bool


def qualification_report(s1: ConvexSet, s2: ConvexSet, xbar) -> QcReport:
    """Evaluate all four qualification conditions exactly.

    When the origin is interior to the difference, the window of radius
    one around the common point already works, and that radius is
    reported. Shrinking each corner decomposition toward the common
    point, a' = x + t(a - x) and b' = x + t(b - x) with t = min(1,
    1/|b - x|), keeps a' in s1, b' in s2 and in the window, and a' - b'
    on its corner's ray. Each shrunk pair is built (_window_pair) and
    checked (_check_window_pair) instead of solved again, and a failed
    check raises InternalError."""
    x = _common_member(s1, s2, xbar)
    classical = meets_interior(s1, s2)
    corners = _corner_decompositions(s1, s2)
    core = core_at_zero(s1, s2)
    radius = None
    if corners is not None:
        for c, delta, a, b in corners:
            _check_window_pair(s1, s2, x, c, delta, *_window_pair(x, a, b))
        radius = ONE
    return QcReport(
        classical_interiority=classical,
        difference_interiority=corners is not None,
        bounded_extremality=radius is not None,
        bounded_extremality_radius=radius,
        core_condition=core,
    )


def _window_pair(x: Vec, a: Vec, b: Vec) -> tuple[Fraction, Vec, Vec]:
    """(t, a', b'): the corner pair (a, b) shrunk toward the common point
    x by t = min(1, 1/|b - x|), so that b' lies in the unit window."""
    far = linf_norm(vsub(b, x))
    if far <= 1:
        return ONE, a, b
    t = 1 / far
    return t, vadd(x, vscale(t, vsub(a, x))), vadd(x, vscale(t, vsub(b, x)))


def _check_window_pair(s1: ConvexSet, s2: ConvexSet, x: Vec, c: Vec, delta: Fraction,
                       t: Fraction, a: Vec, b: Vec) -> None:
    """InternalError unless a is in s1, b is in s2 and in the unit window
    around x, and a - b = t * delta * c with t * delta > 0. Membership
    is each set's contains, read in integers off its own rows, which
    _pair_system derived."""
    reach = t * delta
    if not (reach > 0 and vsub(a, b) == vscale(reach, c) and linf_norm(vsub(b, x)) <= 1
            and s1.contains(a) and s2.contains(b)):
        raise InternalError("the unit window failed to certify an interior difference")


@dataclass(frozen=True)
class ProbeDecomposition:
    """Split of one probe functional across the two normal cones.

    in_lhs records membership in the intersection's cone. The parts are
    present exactly when it holds (for polyhedra the rule needs no
    qualification), and then part1 + part2 = probe with each part in its
    set's normal cone."""

    probe: Vec
    in_lhs: bool
    part1: Vec | None
    part2: Vec | None


@dataclass(frozen=True)
class IntersectionRuleResult:
    """Both sides of the normal-cone rule at a common point."""

    lhs: PolyhedralCone
    rhs: PolyhedralCone
    equal: bool
    decompositions: tuple[ProbeDecomposition, ...]


def intersection_rule(s1: ConvexSet, s2: ConvexSet, xbar, probes=None) -> IntersectionRuleResult:
    """Normal cone of the intersection versus the sum of normal cones.

    The left side comes from the rows of the intersection active at the
    point, the right side from summing the two cones computed
    separately. A probe p is in the left cone iff xbar maximizes p over
    the intersection: iff the kept outcome of its support program at p
    (_support_outcome) is optimal with p.xbar = -value; otherwise its
    checked point or ray does better than xbar. An inside probe splits
    as w1 = _first_part and w2 = p - w1. As xbar is optimal too,
    complementary slackness puts every nonzero multiplier on a row tight
    at xbar, which puts w1 and w2 in the two normal cones; that is
    checked in integers, and a multiplier on a slack row raises
    InternalError."""
    x = _common_member(s1, s2, xbar)
    joint = s1.intersect(s2)
    n1 = normal_cone(s1, x)
    n2 = normal_cone(s2, x)
    lhs = normal_cone(joint, x)
    # a summand equal to the left cone lends it its membership answers
    lhs = n1 if lhs == n1 else n2 if lhs == n2 else lhs
    rhs = cone_sum(n1, n2)
    if probes is None:
        probes = standard_probes(s1.dim)
    slacks = tuple(_slacks(joint.integer_rows(), *over_one_denominator(x)))
    decs = []
    for raw in probes:
        p = vec(raw)
        if len(p) != len(x):
            raise InputError("probe dimension does not match the sets")
        out = _support_outcome(joint, p)
        if not (isinstance(out, LpOptimal) and dot(p, x) == -out.value):
            decs.append(ProbeDecomposition(p, False, None, None))
            continue
        if any(y and s for y, s in zip(out.dual_ineq, slacks)):
            raise InternalError("a probe's split puts a multiplier on a row slack at the point")
        part1 = _first_part(s1, out)
        decs.append(ProbeDecomposition(p, True, part1, vsub(p, part1)))
    return IntersectionRuleResult(lhs, rhs, cones_equal(lhs, rhs), tuple(decs))


@cache
def standard_probes(dim: int) -> tuple[Vec, ...]:
    """Deterministic probe directions: all signed unit vectors followed
    by sixteen fixed pseudo-random rational directions, built once."""
    if dim < 1:
        raise InputError("dimension must be positive")
    out = [unit_vec(dim, i, sign) for i in range(dim) for sign in (1, -1)]
    rng = Lcg(977 + dim)
    while len(out) < 2 * dim + PROBE_COUNT:
        cand = tuple(rng.fraction(span=3, dens=(1, 2)) for _ in range(dim))
        if any(cand) and cand not in out:
            out.append(cand)
    return tuple(out)


@dataclass(frozen=True)
class SupportValue:
    """Exact support value of a set along a functional. A None value
    means plus infinity, certified by a recession direction with
    positive pay against the functional."""

    value: Fraction | None
    maximizer: Vec | None
    ray: Vec | None

    @property
    def finite(self) -> bool:
        return self.value is not None


def support_value(s: ConvexSet, xstar) -> SupportValue:
    """Supremum of the functional over the set, read off the checked
    outcome of its support program (_support_outcome)."""
    g = vec(xstar)
    if len(g) != s.dim:
        raise InputError("functional dimension does not match the set")
    if s.is_empty():
        raise PreconditionError("support of the empty set")
    out = _support_outcome(s, g)
    if isinstance(out, LpOptimal):
        return SupportValue(-out.value, out.point, None)
    return SupportValue(None, None, out.ray)


def _support_outcome(s: ConvexSet, g: Vec) -> LpOptimal | LpUnbounded:
    """The checked outcome of min -g.x over a nonempty set, one phase two
    on its prepared system, kept whole on the set per functional
    (ConvexSet.cached): support_value reads its point or ray, and
    inf_convolution_support its duals."""
    def solve():
        out = s.lp_system().solve(vneg(g))
        if isinstance(out, LpInfeasible):
            raise InternalError("a nonempty set cannot have an infeasible support program")
        return out
    return s.cached(("support", g), solve)


@dataclass(frozen=True)
class InfConvolutionValue:
    """Value of the infimal convolution of two support functions.

    kind is "finite", "plus-infinity" when the functional admits no
    split with both supports finite, or "minus-infinity" when splits of
    arbitrarily low cost exist, which happens only for disjoint sets.
    Finite values carry witnesses splitting the functional with exact
    attainment."""

    kind: str
    value: Fraction | None
    witness1: Vec | None
    witness2: Vec | None


# order of the value kinds, minus infinity lowest
KIND_ORDER = {"minus-infinity": -1, "finite": 0, "plus-infinity": 1}


def inf_convolution_support(s1: ConvexSet, s2: ConvexSet, xstar) -> InfConvolutionValue:
    """Infimal convolution of the two support functions at a functional.

    Its program, min sum_k y_k b_k over multipliers of both sets' rows
    (nonnegative on inequalities, free on equalities) with
    sum_k y_k a_k = g, is the LP dual of the intersection's support
    program at g (Rockafellar 1970, Theorem 16.4), so it is read off the
    kept outcome of that program (_support_outcome). Unbounded is plus
    infinity; optimal has value -out.value and the split of its checked
    duals, w1 = sum y_k a_k - sum z_k e_k over s1's rows, which lead
    each block that intersect stacks, and w2 = g - w1. A disjoint pair's
    dual is unbounded or infeasible: minus infinity iff the rows combine
    to g at all (one zero-cost combination_program). Emptiness of either
    set is asked only then."""
    check_same_dim(s1, s2)
    g = vec(xstar)
    if len(g) != s1.dim:
        raise InputError("functional dimension does not match the sets")
    joint = s1.intersect(s2)
    if joint.is_empty():
        if s1.is_empty() or s2.is_empty():
            raise PreconditionError("both sets must be nonempty")
        rows, signs = _pair_rows(s1, s2)
        out = solve_lp(combination_program([a for a, _ in rows], g, signs))
        kind = "plus-infinity" if isinstance(out, LpInfeasible) else "minus-infinity"
        return InfConvolutionValue(kind, None, None, None)
    out = _support_outcome(joint, g)
    if isinstance(out, LpUnbounded):
        return InfConvolutionValue("plus-infinity", None, None, None)
    w1 = _first_part(s1, out)
    return InfConvolutionValue("finite", -out.value, w1, vsub(g, w1))


def _dual_blocks(s1: ConvexSet, out: LpOptimal):
    """((y1, z1), (y2, z2)): the multipliers of an optimal outcome of the
    support program of s1.intersect(s2) on s1's rows and on s2's, which
    intersect stacks after s1's."""
    h1 = s1.hrep()
    m1, e1 = len(h1.ineqs), len(h1.eqs)
    return ((out.dual_ineq[:m1], out.dual_eq[:e1]),
            (out.dual_ineq[m1:], out.dual_eq[e1:]))


def _first_part(s1: ConvexSet, out: LpOptimal) -> Vec:
    """w1 = sum y_k a_k - sum z_k e_k over s1's rows (_dual_blocks); by
    the certificate's reduced-cost equation g - w1 is the same
    combination of s2's rows."""
    (y, z), _ = _dual_blocks(s1, out)
    h1 = s1.hrep()
    return combine(y + tuple(-v for v in z), [a for a, _ in h1.ineqs + h1.eqs], s1.dim)


def _attains(s1: ConvexSet, s2: ConvexSet, g: Vec, conv: InfConvolutionValue) -> bool:
    """Whether the witnesses of a finite convolution at g attain its
    value, sigma_s1(w1) + sigma_s2(w2) = value, with no LP solved: the
    point x* of the kept support outcome of the intersection at g and
    set i's block (y_i, z_i) of its duals are an optimal certificate
    (x*, -w_i.x*, y_i, z_i) of min -w_i.x over set i's own rows, which
    verify_certificate checks, proving sigma_i(w_i) = w_i.x*. With
    w1 + w2 = g that proves the value is the convolution, which is
    never below the intersection's support."""
    out = _support_outcome(s1.intersect(s2), g)
    if not isinstance(out, LpOptimal):
        return False
    total = ZERO
    for s, w, (y, z) in zip((s1, s2), (conv.witness1, conv.witness2), _dual_blocks(s1, out)):
        value = dot(w, out.point)
        program = replace(s.lp_system().lp, objective=vneg(w))
        if not verify_certificate(program, LpOptimal(out.point, -value, y, z), s.integer_rows()):
            return False
        total += value
    return total == conv.value


@dataclass(frozen=True)
class SupportIntersectionVerdict:
    """Both sides of the intersection support identity.

    The left side is the support of the intersection, None standing for
    the empty intersection, whose support is minus infinity everywhere.
    The right side is the infimal convolution. Hypotheses for the exact
    identity are a nonempty intersection, at least one bounded set, and
    difference interiority; they are checked, and when met the sides
    must agree with witnesses attaining the value. The one-sided
    comparison left <= right holds regardless and is always verified."""

    hypotheses_met: bool
    intersection_nonempty: bool
    bounded_side: int
    difference_interiority: bool
    intersection_support: SupportValue | None
    convolution: InfConvolutionValue
    equal: bool
    attained: bool | None
    inequality_holds: bool


def support_intersection_theorem(s1: ConvexSet, s2: ConvexSet, xstar) -> SupportIntersectionVerdict:
    """Evaluate the intersection support identity at one functional.

    The convolution is read off the intersection's support program
    (inf_convolution_support), so the sides are not compared as two
    programs: a finite convolution's split must sum to the functional
    and attain its value, proved by a certificate per set checked
    against that set's own rows (_attains), or InternalError is raised
    rather than a false verdict reported. Under the checked hypotheses
    the identity is asserted as well, and attained is then reported; the
    inequality is always asserted."""
    check_same_dim(s1, s2)
    g = vec(xstar)
    if len(g) != s1.dim:
        raise InputError("functional dimension does not match the sets")
    if s1.is_empty() or s2.is_empty():
        raise PreconditionError("both sets must be nonempty")
    inter = s1.intersect(s2)
    nonempty = not inter.is_empty()
    bounded_side = 1 if s1.is_bounded() else 2 if s2.is_bounded() else 0
    dqc = difference_interiority(s1, s2) is not None
    hypotheses = nonempty and bounded_side != 0 and dqc
    lhs = support_value(inter, g) if nonempty else None
    rhs = inf_convolution_support(s1, s2, g)
    lhs_kind = "minus-infinity" if lhs is None else ("finite" if lhs.finite else "plus-infinity")
    if lhs_kind == "finite" and rhs.kind == "finite":
        equal = lhs.value == rhs.value
        inequality = lhs.value <= rhs.value
    else:
        equal = lhs_kind == rhs.kind
        inequality = KIND_ORDER[lhs_kind] <= KIND_ORDER[rhs.kind]
    if rhs.kind == "finite" and vadd(rhs.witness1, rhs.witness2) != g:
        raise InternalError("the convolution's split does not sum to the functional")
    if rhs.kind == "finite" and not _attains(s1, s2, g, rhs):
        raise InternalError("the convolution's witnesses do not attain its value")
    if not inequality:
        raise InternalError("one-sided support inequality failed")
    # a bounded side makes the intersection bounded, so lhs is finite
    if hypotheses and (lhs_kind != "finite" or not equal):
        raise InternalError("support identity failed under its hypotheses")
    attained = True if hypotheses else None
    return SupportIntersectionVerdict(
        hypotheses_met=hypotheses,
        intersection_nonempty=nonempty,
        bounded_side=bounded_side,
        difference_interiority=dqc,
        intersection_support=lhs,
        convolution=rhs,
        equal=equal,
        attained=attained,
        inequality_holds=inequality,
    )
