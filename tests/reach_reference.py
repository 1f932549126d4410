"""Reach programs built whole and solved cold.

The library solves all reach programs of a pair through one prepared
system over (x1, delta) (calculus._reach_system). reach_program is the
program each of them stands for, over (x1, x2, delta), kept as an
independent cross-check of that route. The library tells whether a
segment inside one set is blocked off its rows (ConvexSet._segment_blocked);
reference_segment_reach is the one-variable LP it replaces, which reads
zero exactly on a blocked segment.
"""
from polyexact.linalg import ONE, ZERO, dot, zero_vec
from polyexact.lp import FREE, NONNEG, LpInfeasible, LpOptimal, make_program, solve_lp


def reach_program(s1, s2, direction):
    """Maximize delta in [0, 1] with delta * direction = x1 - x2,
    x1 in s1 and x2 in s2, over the variables (x1, x2, delta)."""
    n = s1.dim
    h1, h2 = s1.hrep(), s2.hrep()
    zero = zero_vec(n)

    def row1(a):
        return a + zero + (ZERO,)

    def row2(a):
        return zero + a + (ZERO,)

    ineqs = [(row1(a), b) for a, b in h1.ineqs]
    ineqs += [(row2(a), b) for a, b in h2.ineqs]
    ineqs.append((zero + zero + (ONE,), ONE))
    eqs = [(row1(a), b) for a, b in h1.eqs]
    eqs += [(row2(a), b) for a, b in h2.eqs]
    for j in range(n):
        coeff = [ZERO] * (2 * n + 1)
        coeff[j] = ONE
        coeff[n + j] = -ONE
        coeff[2 * n] = -direction[j]
        eqs.append((tuple(coeff), ZERO))
    obj = zero + zero + (-ONE,)
    signs = (FREE,) * (2 * n) + (NONNEG,)
    return make_program(obj, ineqs=ineqs, eqs=eqs, signs=signs)


def reference_reach(s1, s2, direction):
    """(delta, x1, x2) from a cold solve of reach_program; zero with no
    pair when the program is infeasible."""
    n = s1.dim
    out = solve_lp(reach_program(s1, s2, direction))
    if isinstance(out, LpOptimal):
        return -out.value, out.point[:n], out.point[n:2 * n]
    assert isinstance(out, LpInfeasible)
    return ZERO, None, None


def reference_segment_reach(s, x, d):
    """max t in [0, 1] with x + t d in s, by one LP in t on the rows of
    s; zero when the program is infeasible."""
    h = s.hrep()
    # a.(x + t d) <= b  ->  (a.d) t <= b - a.x
    ineqs = [((dot(a, d),), b - dot(a, x)) for a, b in h.ineqs]
    ineqs.append(((ONE,), ONE))
    eqs = [((dot(a, d),), b - dot(a, x)) for a, b in h.eqs]
    out = solve_lp(make_program([-1], ineqs=ineqs, eqs=eqs, signs=[NONNEG]))
    return -out.value if isinstance(out, LpOptimal) else ZERO
