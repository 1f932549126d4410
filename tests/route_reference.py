"""Former routes of three decisions, kept as independent cross-checks.

meets_interior now inflates a slack over the raw rows of the second set
(ConvexSet._slack_point); reference_meets_interior is the program it
replaced, over the canonical rows, whose equalities say at once that
the set is flat. Generator membership now goes through
lp.combination_program; reference_generator_program is the program it
replaced, built by hand with its "weights sum to one" row.
common_point now reads the intersection's prepared system;
reference_common_point is the cold solve it replaced. The penalized gap
program of the approximate principle is now assembled from the pair's
row blocks and moved to its feasible point (xbar, xbar, |a|, 0, 0)
(extremality._penalized_gap_program); reference_gap_program is the
hand-indexed builder it replaced, unmoved. The infimal convolution is now
read off the intersection's support program;
reference_convolution is the cold program over the multipliers of both
sets' rows that it replaced.
"""
from fractions import Fraction

from polyexact.errors import InternalError
from polyexact.linalg import ONE, ZERO, l1_norm, zero_vec
from polyexact.lp import (FREE, NONNEG, LpInfeasible, LpOptimal, LpUnbounded, make_program,
                          solve_lp)


def reference_meets_interior(s1, s2) -> bool:
    """Whether some point of s1 is interior to s2, by one slack program
    over the canonical rows of s2 inside the rows of s1."""
    ch = s2.canonical_hrep()
    if ch.eqs:
        return False
    h1 = s1.hrep()
    n = s1.dim
    ineqs = [(a + (ZERO,), b) for a, b in h1.ineqs]
    ineqs += [(a + (l1_norm(a),), b) for a, b in ch.ineqs]
    ineqs.append((zero_vec(n) + (ONE,), ONE))
    eqs = [(a + (ZERO,), b) for a, b in h1.eqs]
    out = solve_lp(make_program(zero_vec(n) + (-ONE,), ineqs=ineqs, eqs=eqs))
    if isinstance(out, LpOptimal):
        return -out.value > 0
    if isinstance(out, LpInfeasible):
        return False
    raise InternalError("slack capped at one cannot be unbounded")


def reference_generator_program(vertices, rays, x):
    """x = sum of weights times the vertices and rays, with the vertex
    weights summing to one, all weights nonnegative."""
    k, m = len(vertices), len(rays)
    eqs = [([p[j] for p in vertices] + [r[j] for r in rays], x[j]) for j in range(len(x))]
    eqs.append(([1] * k + [0] * m, 1))
    return make_program([0] * (k + m), eqs=eqs, signs=[NONNEG] * (k + m))


def reference_common_point(s1, s2):
    """A point of the intersection by one cold solve of its rows, or
    None when it is empty."""
    h = s1.intersect(s2).hrep()
    out = solve_lp(make_program(zero_vec(h.dim), ineqs=h.ineqs, eqs=h.eqs))
    return out.point if isinstance(out, LpOptimal) else None


def reference_convolution(s1, s2, g):
    """(kind, value) of the infimal convolution of the two support
    functions at g, by one cold program: minimize sum_k y_k b_k over one
    multiplier per row of s1 and then of s2, nonnegative on inequalities
    and free on equalities, with sum_k y_k a_k = g."""
    h1, h2 = s1.hrep(), s2.hrep()
    rows = h1.ineqs + h1.eqs + h2.ineqs + h2.eqs
    signs = ([NONNEG] * len(h1.ineqs) + [FREE] * len(h1.eqs)
             + [NONNEG] * len(h2.ineqs) + [FREE] * len(h2.eqs))
    eqs = [([a[j] for a, _ in rows], t) for j, t in enumerate(g)]
    out = solve_lp(make_program([b for _, b in rows], eqs=eqs, signs=signs))
    if isinstance(out, LpInfeasible):
        return "plus-infinity", None
    if isinstance(out, LpUnbounded):
        return "minus-infinity", None
    return "finite", out.value


def reference_gap_program(h1, h2, xbar, a, eps):
    """The penalized gap program over (x1, x2, t, p, q), written out
    index by index."""
    n = len(xbar)
    width = 2 * n + 3
    it, ip, iq = 2 * n, 2 * n + 1, 2 * n + 2

    def embed(row, offset, extra, coef):
        out = [Fraction(0)] * width
        for j, c in enumerate(row):
            out[offset + j] = c
        if extra is not None:
            out[extra] = coef
        return out

    rows = []
    for av, b in h1.ineqs:
        rows.append((embed(av, 0, None, None), b))
    for av, b in h2.ineqs:
        rows.append((embed(av, n, None, None), b))
    for j in range(n):
        plus = [Fraction(0)] * width
        plus[j], plus[n + j], plus[it] = Fraction(1), Fraction(-1), Fraction(-1)
        rows.append((plus, -a[j]))
        minus = [Fraction(0)] * width
        minus[j], minus[n + j], minus[it] = Fraction(-1), Fraction(1), Fraction(-1)
        rows.append((minus, a[j]))
    for j in range(n):
        rows.append((embed((Fraction(1),), j, ip, Fraction(-1)), xbar[j]))
        rows.append((embed((Fraction(-1),), j, ip, Fraction(-1)), -xbar[j]))
    for j in range(n):
        rows.append((embed((Fraction(1),), n + j, iq, Fraction(-1)), xbar[j]))
        rows.append((embed((Fraction(-1),), n + j, iq, Fraction(-1)), -xbar[j]))
    eqs = [(embed(av, 0, None, None), b) for av, b in h1.eqs]
    eqs += [(embed(av, n, None, None), b) for av, b in h2.eqs]
    obj = [Fraction(0)] * width
    obj[it], obj[ip], obj[iq] = Fraction(1), eps, eps
    return make_program(obj, ineqs=rows, eqs=eqs)
