"""Canonical row descriptions decided by LPs.

The library reads the canonical rows of a set off one double
description of its generators (sets.ConvexSet.canonical_hrep). This is
the LP route it stands for, kept as an independent cross-check: one
prepared solve per inequality row promotes the rows every point meets
with equality, and one cold LP per surviving row prunes the rows the
others imply.
"""
from fractions import Fraction

from polyexact.linalg import is_zero_vec, lead_normalized, reduce_mod_subspace, rref, unit_vec, vneg
from polyexact.lp import LpOptimal, make_program, solve_lp
from polyexact.sets import HRep


def reference_canonical_hrep(s) -> HRep:
    h = s.hrep()
    if s.lp_system().infeasible is not None:
        e = unit_vec(s.dim, 0)
        return HRep(s.dim, ((e, Fraction(-1)), (vneg(e), Fraction(-1))), ())
    eq_rows = [list(a) + [b] for a, b in h.eqs]
    kept = []
    for a, b in h.ineqs:
        out = s.lp_system().solve(a)
        if isinstance(out, LpOptimal) and out.value == b:
            eq_rows.append(list(a) + [b])
        else:
            kept.append((a, b))
    reduced_eqs, pivots = rref(eq_rows)
    eqs = []
    for row in reduced_eqs:
        a, b = tuple(row[:-1]), row[-1]
        assert not is_zero_vec(a), "inconsistent equality system on a nonempty set"
        eqs.append((a, b))
    seen = []
    for a, b in kept:
        r = reduce_mod_subspace(tuple(a) + (b,), reduced_eqs, pivots)
        if is_zero_vec(r[:-1]):
            continue
        r = lead_normalized(r)
        row = (r[:-1], r[-1])
        if row not in seen:
            seen.append(row)
    pruned = list(seen)
    for row in list(pruned):
        rest = [r for r in pruned if r is not row]
        a, b = row
        out = solve_lp(make_program(vneg(a), ineqs=rest, eqs=eqs))
        if isinstance(out, LpOptimal) and -out.value <= b:
            pruned.remove(row)
    return HRep(s.dim, tuple(sorted(pruned)), tuple(sorted(eqs)))
