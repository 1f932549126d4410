"""Cone canonicalization and cone equality decided by membership LPs.

The library reads the lineality space and the extreme rays of a cone off
one double description of its polar (cones.make_cone), and compares
canonical cones field by field (cones.cones_equal). These are the LP
routes each of them stands for, kept as an independent cross-check.
"""
from polyexact.cones import PolyhedralCone
from polyexact.linalg import is_zero_vec, lead_normalized, reduce_mod_subspace, rref, vec, vneg
from polyexact.lp import NONNEG, LpOptimal, make_program, solve_lp


def reference_membership(gens, lin, x) -> bool:
    """x in cone(gens) + span(lin), by one feasibility LP."""
    if is_zero_vec(x):
        return True
    if not gens and not lin:
        return False
    cols = list(gens) + list(lin)
    eqs = [([g[j] for g in cols], x[j]) for j in range(len(x))]
    signs = [NONNEG] * len(gens) + [0] * len(lin)
    return isinstance(solve_lp(make_program([0] * len(cols), eqs=eqs, signs=signs)), LpOptimal)


def reference_make_cone(dim, generators=(), lineality=()) -> PolyhedralCone:
    """The canonical cone, found with one membership LP per generator
    (is its negation in the cone?) and one per survivor (is it in the
    cone of the others?)."""
    gens = [vec(g) for g in generators if not is_zero_vec(vec(g))]
    lin = [vec(l) for l in lineality if not is_zero_vec(vec(l))]
    flagged, pointed = [], []
    for g in gens:
        (flagged if reference_membership(gens, lin, vneg(g)) else pointed).append(g)
    lin_rows, pivots = rref([list(l) for l in lin + flagged])
    canon_lin = tuple(tuple(row) for row in lin_rows)
    survivors = []
    for g in pointed:
        r = reduce_mod_subspace(g, lin_rows, pivots)
        if not is_zero_vec(r) and lead_normalized(r) not in survivors:
            survivors.append(lead_normalized(r))
    for g in list(survivors):
        if reference_membership([h for h in survivors if h is not g], canon_lin, g):
            survivors.remove(g)
    return PolyhedralCone(dim, tuple(sorted(survivors)), tuple(sorted(canon_lin)))


def reference_cones_equal(a: PolyhedralCone, b: PolyhedralCone) -> bool:
    """Equality as sets, by mutual membership of spanning directions."""
    if a.dim != b.dim:
        return False
    return (all(reference_membership(b.generators, b.lineality, g) for g in a.sample_directions())
            and all(reference_membership(a.generators, a.lineality, g)
                    for g in b.sample_directions()))
