"""The LP certificate check in Fraction arithmetic.

The library rechecks every certificate in scaled integers
(lp.verify_certificate). This is the Fraction check it stands for, kept
as an independent cross-check: both must decide the same predicate.
"""
from fractions import Fraction

from polyexact.lp import FREE, NONNEG, NONPOS, LpInfeasible, LpOptimal, LpUnbounded


def _feasible(lp, x) -> bool:
    if len(x) != lp.dim:
        return False
    for a, b in zip(lp.ineq_lhs, lp.ineq_rhs):
        if sum(ai * xi for ai, xi in zip(a, x)) > b:
            return False
    for a, b in zip(lp.eq_lhs, lp.eq_rhs):
        if sum(ai * xi for ai, xi in zip(a, x)) != b:
            return False
    for s, xi in zip(lp.var_signs, x):
        if s == NONNEG and xi < 0:
            return False
        if s == NONPOS and xi > 0:
            return False
    return True


def _combine(lp, y, z):
    out = [Fraction(0)] * lp.dim
    for yi, a in zip(y, lp.ineq_lhs):
        if yi:
            for j in range(lp.dim):
                out[j] += yi * a[j]
    for zk, a in zip(z, lp.eq_lhs):
        if zk:
            for j in range(lp.dim):
                out[j] += zk * a[j]
    return tuple(out)


def _sign_ok(lp, g) -> bool:
    for s, gj in zip(lp.var_signs, g):
        if s == FREE and gj != 0:
            return False
        if s == NONNEG and gj < 0:
            return False
        if s == NONPOS and gj > 0:
            return False
    return True


def reference_verify(lp, outcome) -> bool:
    """Re-check the certificate algebra in Fractions. Malformed
    certificates return False rather than raising."""
    try:
        if isinstance(outcome, LpOptimal):
            x, y, z = outcome.point, outcome.dual_ineq, outcome.dual_eq
            if len(y) != len(lp.ineq_lhs) or len(z) != len(lp.eq_lhs):
                return False
            if not _feasible(lp, x):
                return False
            if any(yi < 0 for yi in y):
                return False
            g = list(_combine(lp, y, tuple(-zk for zk in z)))
            for j in range(lp.dim):
                g[j] += lp.objective[j]
            if not _sign_ok(lp, tuple(g)):
                return False
            primal = sum(c * xi for c, xi in zip(lp.objective, x))
            dual = (sum(zk * fk for zk, fk in zip(z, lp.eq_rhs))
                    - sum(yi * bi for yi, bi in zip(y, lp.ineq_rhs)))
            return primal == outcome.value and dual == outcome.value
        if isinstance(outcome, LpInfeasible):
            y, z = outcome.farkas_ineq, outcome.farkas_eq
            if len(y) != len(lp.ineq_lhs) or len(z) != len(lp.eq_lhs):
                return False
            if any(yi < 0 for yi in y):
                return False
            h = _combine(lp, y, z)
            if not _sign_ok(lp, h):
                return False
            bound = (sum(yi * bi for yi, bi in zip(y, lp.ineq_rhs))
                     + sum(zk * fk for zk, fk in zip(z, lp.eq_rhs)))
            return bound < 0
        if isinstance(outcome, LpUnbounded):
            r, x = outcome.ray, outcome.point
            if len(r) != lp.dim or not _feasible(lp, x):
                return False
            for a in lp.ineq_lhs:
                if sum(ai * ri for ai, ri in zip(a, r)) > 0:
                    return False
            for a in lp.eq_lhs:
                if sum(ai * ri for ai, ri in zip(a, r)) != 0:
                    return False
            for s, ri in zip(lp.var_signs, r):
                if s == NONNEG and ri < 0:
                    return False
                if s == NONPOS and ri > 0:
                    return False
            slope = sum(c * ri for c, ri in zip(lp.objective, r))
            return slope < 0
        return False
    except (TypeError, AttributeError, IndexError):
        return False
