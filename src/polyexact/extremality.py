"""Extremal systems of convex polyhedra, with checkable certificates.

Two nonempty sets form an extremal system when arbitrarily small
translations of the first set make the pair disjoint. For closed
polyhedra this happens exactly when the origin is not interior to the
Minkowski difference of the sets, so every check here reduces to exact
questions about that difference set: a valid row separating the origin
from it yields perturbations and separating functionals, while a box
around the origin inside it refutes extremality with a concrete radius.

The approximate principle is realized as one linear program. Instead of
an iterative descent, the gap between the translated sets is minimized
globally together with a small penalty that anchors the minimizer near
the reference point; the dual multipliers of the gap rows assemble the
pair of opposite unit functionals directly. _penalized_gap_program
assembles the program from the rows of each set, placed on its own
point, and the sup-norm epigraph rows of the gap and both penalties,
and writes it from a point known to be feasible: both points at the
reference point, which lies in both sets, the gap bound at the size of
the translation and both penalties at zero. Every inequality then has a
nonnegative right-hand side, so the simplex starts on their slacks and
phase one has nothing to repair. The move changes no row, so the duals
read off the solve are those of the unmoved program.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import meets_interior, support_value
from .cones import ep_condition, normal_cone
from .errors import InputError, InternalError, PolyhedralError, PreconditionError
from .linalg import (
    ONE,
    ZERO,
    Vec,
    combine,
    dot,
    frac,
    l1_norm,
    linf_norm,
    over_one_denominator,
    vadd,
    vec,
    vneg,
    vscale,
    vsub,
    zero_vec,
)
from .lp import LinearProgram, LpOptimal, _slacks, make_program, solve_lp
from .sets import ConvexSet, check_same_dim

Row = tuple[Vec, Fraction]

EPSILON_GRID = (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))


@dataclass(frozen=True)
class ExtremalityVerdict:
    """Outcome of the extremality test for a pair of nonempty sets.

    Exactly one certificate side is populated. When the pair is extremal,
    boundary_evidence is a row (g, beta) with g.x <= beta valid on the
    difference set and beta <= 0, which excludes the origin from its
    interior; a verified perturbation for a requested epsilon may ride
    along. Otherwise interior_ball_radius is a rational r > 0 such that
    the closed sup-norm ball of radius r around the origin lies inside
    the difference set.
    """

    extremal: bool
    difference: ConvexSet = field(compare=False)
    boundary_evidence: Row | None
    interior_ball_radius: Fraction | None
    epsilon: Fraction | None = None
    perturbation: Vec | None = None


@dataclass(frozen=True)
class SeparationCertificate:
    """Nonzero functional with sup over the first set at most inf over
    the second; both bounds are recomputed exactly."""

    functional: Vec
    sup1: Fraction
    inf2: Fraction


@dataclass(frozen=True)
class ApproxEpCertificate:
    """Approximate dual certificate at scale epsilon.

    Invariants, all exact: x1 and x2 lie in their sets within a sup-norm
    epsilon box around the reference point; xstar1 + xstar2 = 0 with
    l1 norm one each; xstar_i = normal_i + error_i where normal_i lies
    in the normal cone of set i at x_i and l1(error_i) <= epsilon.
    """

    epsilon: Fraction
    x1: Vec
    x2: Vec
    xstar1: Vec
    xstar2: Vec
    normal1: Vec
    error1: Vec
    normal2: Vec
    error2: Vec


def _check_pair(s1: ConvexSet, s2: ConvexSet) -> None:
    """PreconditionError unless both sets are nonempty, read off the
    pair's kept difference: A - B has a vertex iff A and B both do. It
    is the set _evidence reads next, so no LP is solved here."""
    check_same_dim(s1, s2)
    if not s1.difference(s2).vrep().vertices:
        raise PreconditionError("both sets must be nonempty")


def _positive_epsilon(epsilon) -> Fraction:
    eps = frac(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    return eps


def _evidence(s1: ConvexSet, s2: ConvexSet) -> tuple[ConvexSet, Row | None]:
    """The difference set of a pair that passed _check_pair, with its
    evidence row, which is None exactly when the origin is interior to
    the difference. This is the one place extremality is decided; the
    difference is the one _check_pair already built. Callers run
    _check_pair themselves, before checking their own arguments, so an
    empty set raises PreconditionError before a bad epsilon or point
    raises InputError."""
    d = s1.difference(s2)
    # an interior origin settles the answer without canonicalizing the
    # difference, which is the expensive step on fat instances
    if d.interior_contains(zero_vec(s1.dim)):
        return d, None
    evidence = _boundary_evidence(d)
    if evidence is None:
        raise InternalError("origin not interior yet no supporting row found")
    return d, evidence


def _boundary_evidence(d: ConvexSet) -> Row | None:
    """A valid row (g, beta) of the difference set with beta <= 0, or
    None when the origin is interior. Equality rows are oriented so the
    right hand side is nonpositive; ties break lexicographically."""
    h = d.canonical_hrep()
    candidates = []
    for a, b in h.eqs:
        if b > 0:
            candidates.append((vneg(a), -b))
        else:
            candidates.append((a, b))
            if b == 0:
                candidates.append((vneg(a), b))
    for a, b in h.ineqs:
        if b <= 0:
            candidates.append((a, b))
    if not candidates:
        return None
    return min(candidates)


def _interior_radius(d: ConvexSet) -> Fraction:
    """Certified r with the closed sup-norm ball of radius r around the
    origin inside d, assuming the origin is interior. Works on the raw
    rows: the bound b / l1(a) is valid for any description and does not
    need the canonical one, which is expensive for materialized
    difference sets. It is read off the set's integer rows, where it is
    B / l1(A) for the row scaled by a positive factor."""
    rows = d.integer_rows()
    if rows.eq:
        raise InternalError("interior point in a flat set")
    radii = [Fraction(b, sum(map(abs, a))) for a, b, _ in rows.ineq]
    r = min(radii) if radii else Fraction(1)
    if r <= 0:
        raise InternalError("nonpositive slack at a claimed interior point")
    return r


def is_extremal_system(s1: ConvexSet, s2: ConvexSet,
                       epsilon=None) -> ExtremalityVerdict:
    """Decide extremality of a pair of nonempty sets.

    The difference set is materialized and the verdict is literally
    whether the origin fails to be interior to it. When epsilon is given
    it must be positive, and if the pair is extremal a verified
    perturbation of that size is attached to the verdict.
    """
    _check_pair(s1, s2)
    eps = None if epsilon is None else _positive_epsilon(epsilon)
    d, evidence = _evidence(s1, s2)
    if evidence is None:
        return ExtremalityVerdict(False, d, None, _interior_radius(d))
    pert = None if eps is None else _verified_perturbation(s1, s2, evidence, eps)
    return ExtremalityVerdict(True, d, evidence, None, eps, pert)


def _verified_perturbation(s1: ConvexSet, s2: ConvexSet,
                           evidence: Row, eps: Fraction) -> Vec:
    """The translation a = -eps * g / |g| for the evidence row (g, beta),
    checked by its separating functional g (_check_perturbation). The
    row is valid on s1 - s2 with beta <= 0, so sup over s1 of g is at
    most inf over s2 of g, and g.a = -eps * |g|_2^2 / |g| < 0 makes the
    gap strict."""
    g, _ = evidence
    a = vscale(-eps / linf_norm(g), g)
    _check_perturbation(s1, s2, g, a, eps)
    return a


def _check_perturbation(s1: ConvexSet, s2: ConvexSet, g: Vec, a: Vec,
                        eps: Fraction) -> None:
    """InternalError unless |a| <= eps and g separates s1 + a from s2
    strictly: sup over s1 of g, plus g.a, below inf over s2 of g, both
    from the sets' own prepared systems (_sup). Then s1 + a and s2 are
    disjoint."""
    if linf_norm(a) > eps or not _sup(s1, g) + dot(g, a) < -_sup(s2, vneg(g)):
        raise InternalError("the perturbation does not separate the translated sets")


def find_perturbation(s1: ConvexSet, s2: ConvexSet, epsilon) -> Vec:
    """Translation a with sup-norm at most epsilon making the translated
    first set disjoint from the second, verified by a functional that
    separates them strictly.

    The direction comes from a valid row separating the origin from the
    difference set, and that row's normal is the functional (see
    _verified_perturbation); a failed check is an internal error.
    """
    _check_pair(s1, s2)
    eps = _positive_epsilon(epsilon)
    _, evidence = _evidence(s1, s2)
    if evidence is None:
        raise PreconditionError("the sets do not form an extremal system")
    return _verified_perturbation(s1, s2, evidence, eps)


def _sup(s: ConvexSet, g: Vec) -> Fraction:
    """The support value of g over s, which must be finite."""
    out = support_value(s, g)
    if not out.finite:
        raise InternalError("support value is not finite where it must be")
    return out.value


def separate(s1: ConvexSet, s2: ConvexSet) -> SeparationCertificate | None:
    """Separating functional for the pair, or None when none exists.

    The functional is the normal of the evidence row of the difference
    set; validity of that row forces sup over the first set to stay
    below inf over the second, and both values are finite because both
    sets are nonempty.
    """
    _check_pair(s1, s2)
    _, evidence = _evidence(s1, s2)
    if evidence is None:
        return None
    g, _ = evidence
    sup1 = _sup(s1, g)
    inf2 = -_sup(s2, vneg(g))
    if sup1 > inf2:
        raise InternalError("evidence row failed to separate the sets")
    return SeparationCertificate(g, sup1, inf2)


def check_sufficient_interiority(s1: ConvexSet, s2: ConvexSet) -> bool:
    """True when the first set has interior points and none of them lies
    in the second set."""
    check_same_dim(s1, s2)
    return s1.interior_point() is not None and not meets_interior(s2, s1)


def _penalized_gap_program(s1: ConvexSet, s2: ConvexSet, xbar: Vec, a: Vec,
                           eps: Fraction) -> LinearProgram:
    """min t + eps (p + q) over (x1, x2, t, p, q) with x1 in s1, x2 in s2
    and t, p, q sup-norm bounds on x1 - x2 + a, x1 - xbar and x2 - xbar,
    written from the feasible point (xbar, xbar, |a|, 0, 0), xbar being
    in both sets: its variables are (u1, u2, tau, p, q) with
    x_i = xbar + u_i and t = |a| + tau. Rows: s1's on u1, s2's on u2,
    then for each bound |v - r| <= t the rows v_j - t <= r_j and
    -v_j - t <= -r_j. A set's inequality row keeps its slack at xbar as
    its right-hand side, read off the set's integer rows, and its
    equality rows keep 0, so every inequality starts on its slack."""
    n = len(xbar)
    zero = [ZERO] * (2 * n + 3)
    xs, d = over_one_denominator(xbar)

    def on(normal, offset):
        row = zero.copy()
        row[offset:offset + n] = normal
        return row

    def placed(s, offset):
        h, rows = s.hrep(), s.integer_rows()
        slacks = (Fraction(v * k, rows.scale * d)
                  for v, (_, _, k) in zip(_slacks(rows, xs, d), rows.ineq))
        return ([(on(normal, offset), b) for (normal, _), b in zip(h.ineqs, slacks)],
                [(on(normal, offset), ZERO) for normal, _ in h.eqs])

    def epigraph(terms, r, lift, col):
        flipped = [(o, -c) for o, c in terms]
        out = []
        for j, rj in enumerate(r):
            for signed, b in ((terms, lift + rj), (flipped, lift - rj)):
                row = zero.copy()
                for o, c in signed:
                    row[o + j] = c
                row[col] = -ONE
                out.append((row, b))
        return out

    (i1, e1), (i2, e2) = placed(s1, 0), placed(s2, n)
    ineqs = (i1 + i2 + epigraph(((0, ONE), (n, -ONE)), vneg(a), linf_norm(a), 2 * n)
             + epigraph(((0, ONE),), zero_vec(n), ZERO, 2 * n + 1)
             + epigraph(((n, ONE),), zero_vec(n), ZERO, 2 * n + 2))
    return make_program(zero_vec(2 * n) + (ONE, eps, eps), ineqs=ineqs, eqs=e1 + e2)


def _penalized_gap_minimum(s1: ConvexSet, s2: ConvexSet, xbar: Vec,
                           a: Vec, eps: Fraction):
    """Minimize the sup-norm gap of the translated pair plus an epsilon
    penalty on the distance of each point from xbar, a point of both
    sets, by one solve of _penalized_gap_program.

    Returns the minimizing points, moved back from xbar, the unit
    subgradient s of the gap norm read off the dual multipliers of the
    gap rows, and the normal-cone components of the stationarity
    identity for each block. Moving the program leaves its rows, and so
    its duals, as they were.
    """
    n = s1.dim
    h1, h2 = s1.hrep(), s2.hrep()
    out = solve_lp(_penalized_gap_program(s1, s2, xbar, a, eps))
    if not isinstance(out, LpOptimal):
        raise InternalError("penalized gap program must attain its minimum")
    x1, x2 = vadd(xbar, out.point[:n]), vadd(xbar, out.point[n:2 * n])
    if out.point[2 * n] + linf_norm(a) <= 0:
        raise InternalError("zero gap contradicts the verified disjointness")
    m1, m2 = len(h1.ineqs), len(h2.ineqs)
    y, z = out.dual_ineq, out.dual_eq
    base = m1 + m2
    s = tuple(y[base + 2 * j] - y[base + 2 * j + 1] for j in range(n))
    if l1_norm(s) != 1:
        raise InternalError("gap multipliers do not form a unit functional")
    e1 = len(h1.eqs)
    # the stationarity parts: sum y_i a_i - sum z_k e_k per block
    n1 = combine(y[:m1] + tuple(-w for w in z[:e1]), [a for a, _ in h1.ineqs + h1.eqs], n)
    n2 = combine(y[m1:base] + tuple(-w for w in z[e1:]), [a for a, _ in h2.ineqs + h2.eqs], n)
    return x1, x2, s, n1, n2


def approximate_extremal_principle(s1: ConvexSet, s2: ConvexSet, xbar,
                                   epsilon) -> ApproxEpCertificate:
    """Produce the epsilon-scale dual certificate at a common point of an
    extremal pair and verify it before returning.

    A perturbation of size epsilon squared separates the translated
    sets; minimizing the penalized gap keeps the minimizers within
    epsilon of the reference point, and the dual multipliers of the gap
    rows form the opposite unit functionals. When those functionals
    already sit in the normal cones exactly, the error parts are zero;
    otherwise the cone components from the dual stationarity identity
    are used, with errors of l1 norm at most epsilon.
    """
    _check_pair(s1, s2)
    eps = _positive_epsilon(epsilon)
    x = vec(xbar)
    if len(x) != s1.dim:
        raise InputError(f"point has {len(x)} coordinates, expected {s1.dim}")
    if not (s1.contains(x) and s2.contains(x)):
        raise PreconditionError("the reference point must lie in both sets")
    _, evidence = _evidence(s1, s2)
    if evidence is None:
        raise PreconditionError("the sets do not form an extremal system")
    a = _verified_perturbation(s1, s2, evidence, eps * eps)
    x1, x2, s, n1, n2 = _penalized_gap_minimum(s1, s2, x, a, eps)
    xstar1, xstar2 = vneg(s), s
    zero = zero_vec(s1.dim)
    if normal_cone(s1, x1).contains(xstar1) and normal_cone(s2, x2).contains(xstar2):
        cert = ApproxEpCertificate(eps, x1, x2, xstar1, xstar2,
                                   xstar1, zero, xstar2, zero)
    else:
        cert = ApproxEpCertificate(eps, x1, x2, xstar1, xstar2,
                                   n1, vsub(xstar1, n1), n2, vsub(xstar2, n2))
    if not verify_approx_ep(s1, s2, x, cert):
        raise InternalError("certificate failed its own verification")
    return cert


def verify_approx_ep(s1: ConvexSet, s2: ConvexSet, xbar,
                     cert: ApproxEpCertificate) -> bool:
    """Exact recheck of every certificate condition; malformed input
    counts as failure rather than an error."""
    try:
        eps = frac(cert.epsilon)
        x = vec(xbar)
        for pt, s in ((cert.x1, s1), (cert.x2, s2)):
            if not s.contains(pt):
                return False
            if linf_norm(vsub(vec(pt), x)) > eps:
                return False
        if vadd(vec(cert.xstar1), vec(cert.xstar2)) != zero_vec(len(x)):
            return False
        if l1_norm(cert.xstar1) != 1 or l1_norm(cert.xstar2) != 1:
            return False
        for pt, s, star, nrm, err in (
            (cert.x1, s1, cert.xstar1, cert.normal1, cert.error1),
            (cert.x2, s2, cert.xstar2, cert.normal2, cert.error2),
        ):
            if vadd(vec(nrm), vec(err)) != vec(star):
                return False
            if l1_norm(vec(err)) > eps:
                return False
            if not normal_cone(s, pt).contains(nrm):
                return False
        return True
    except (PolyhedralError, TypeError, ValueError, ZeroDivisionError):
        return False


def exact_extremal_principle(s1: ConvexSet, s2: ConvexSet, xbar) -> Vec | None:
    """Nonzero functional in the normal cone of the first set at xbar
    whose negation is normal to the second set there, or None. For
    polyhedral pairs with a common point this exists exactly when the
    pair is extremal."""
    found, witness = ep_condition(s1, s2, xbar)
    return witness if found else None


def support_point_near(s: ConvexSet, xbar, epsilon) -> tuple[Vec, Vec]:
    """Supporting functional at a boundary point.

    For polyhedra the boundary point itself is a support point: some
    canonical row is tight there, and its normal attains its supremum
    over the set at the point. The epsilon tolerance is validated but
    the returned point is always xbar, at distance zero.
    """
    _positive_epsilon(epsilon)
    x = vec(xbar)
    if len(x) != s.dim:
        raise InputError(f"point has {len(x)} coordinates, expected {s.dim}")
    if not s.contains(x):
        raise PreconditionError("the point lies outside the set")
    if s.interior_contains(x):
        raise PreconditionError("the point is interior, not on the boundary")
    h = s.canonical_hrep()
    candidates = []
    for a, _ in h.eqs:
        candidates.append(a)
        candidates.append(vneg(a))
    for a, b in h.ineqs:
        if dot(a, x) == b:
            candidates.append(a)
    if not candidates:
        raise InternalError("boundary point with no tight canonical row")
    g = min(candidates)
    if _sup(s, g) != dot(g, x):
        raise InternalError("chosen functional misses its supremum at the point")
    return x, g
