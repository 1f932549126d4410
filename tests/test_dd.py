"""Double description conversions, cross-checked against the LP solver.

The two directions use different mathematics (homogenization vs the
polar side), and membership in a generator description is decided by a
certified feasibility LP, so agreement between the three is a strong
consistency check.
"""
import random
from fractions import Fraction as F

import pytest

from polyexact import dd
from polyexact.dd import cone_from_inequalities, generators_to_hrep, hrep_to_generators
from polyexact.errors import CapacityError, InputError
from polyexact.lp import LpOptimal, NONNEG, make_program, solve_lp
from polyexact.linalg import dot, integerize, rank, unit_vec, vec, vneg
from polyexact.oracle import random_pair_with_common_point
from polyexact.sets import ConvexSet


def in_hull(points, rays, x):
    """Feasibility LP for x in conv(points) + cone(rays)."""
    k, m = len(points), len(rays)
    dim = len(x)
    eqs = []
    for j in range(dim):
        row = [p[j] for p in points] + [r[j] for r in rays]
        eqs.append((row, x[j]))
    eqs.append(([1] * k + [0] * m, 1))
    lp = make_program([0] * (k + m), eqs=eqs, signs=[NONNEG] * (k + m))
    return isinstance(solve_lp(lp), LpOptimal)


def satisfies(ineqs, eqs, x):
    return all(dot(vec(a), x) <= b for a, b in ineqs) and all(
        dot(vec(a), x) == b for a, b in eqs
    )


def test_unit_square_vertices():
    sq = [((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)]
    pts, rays, lin = hrep_to_generators([(vec(a), F(b)) for a, b in sq], [], 2)
    assert sorted(pts) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert rays == () and lin == ()


def test_square_hrep_from_vertices():
    pts = [vec(p) for p in [(0, 0), (1, 0), (0, 1), (1, 1)]]
    ineqs, eqs = generators_to_hrep(pts, [], 2)
    assert eqs == ()
    assert len(ineqs) == 4
    for x in [(F(1, 2), F(1, 2)), (0, 0), (1, 1)]:
        assert satisfies(ineqs, eqs, vec(x))
    for x in [(2, 0), (-1, 0), (F(1, 2), F(3, 2))]:
        assert not satisfies(ineqs, eqs, vec(x))


def test_halfplane_cone_has_lineality():
    rays, lin = cone_from_inequalities([vec((1, 1))], 2)
    assert len(lin) == 1
    assert dot(vec((1, 1)), lin[0]) == 0
    assert len(rays) == 1
    assert dot(vec((1, 1)), rays[0]) < 0


def test_equality_line_is_pure_lineality():
    rays, lin = cone_from_inequalities([vec((1, -1)), vec((-1, 1))], 2)
    assert rays == ()
    assert lin == ((1, 1),)


def test_single_point_from_equalities():
    pts, rays, lin = hrep_to_generators([], [(vec((1, 0)), F(2)), (vec((0, 1)), F(3))], 2)
    assert pts == ((2, 3),)
    assert rays == () and lin == ()


def test_empty_polyhedron():
    pts, rays, lin = hrep_to_generators([(vec((1,)), F(0)), (vec((-1,)), F(-1))], [], 1)
    assert pts == ()


def test_empty_generator_set_gives_contradictory_rows():
    ineqs, eqs = generators_to_hrep([], [], 2)
    assert not satisfies(ineqs, eqs, vec((0, 0)))


def test_rays_without_points_rejected():
    with pytest.raises(InputError):
        generators_to_hrep([], [vec((1, 0))], 2)


def test_dimension_cap():
    with pytest.raises(CapacityError):
        cone_from_inequalities([vec((1,) * 12)], 12)


def test_unbounded_wedge_roundtrip():
    # x <= 0 in three dimensions: one ray and a two dimensional lineality
    pts, rays, lin = hrep_to_generators([(vec((1, 0, 0)), F(0))], [], 3)
    assert pts == ((0, 0, 0),)
    assert rays == ((-1, 0, 0),)
    assert len(lin) == 2
    # the lineality enters as rays in both signs
    ineqs, eqs = generators_to_hrep(pts, rays + lin + tuple(map(vneg, lin)), 3)
    assert eqs == ()
    assert [(tuple(a), b) for a, b in ineqs] == [((1, 0, 0), 0)]


def random_polytope_rows(rng, dim):
    # random cuts around a box keep everything bounded
    rows = [(vec(tuple(-1 if j == i else 0 for j in range(dim))), F(rng.randint(0, 3)))
            for i in range(dim)]
    rows += [(vec(tuple(1 if j == i else 0 for j in range(dim))), F(rng.randint(0, 3)))
             for i in range(dim)]
    for _ in range(rng.randint(0, 3)):
        a = vec(tuple(rng.randint(-2, 2) for _ in range(dim)))
        rows.append((a, F(rng.randint(-1, 4))))
    return rows


def test_random_roundtrips_agree_with_lp_membership():
    rng = random.Random(7)
    for _ in range(60):
        dim = rng.randint(1, 3)
        rows = random_polytope_rows(rng, dim)
        pts, rays, lin = hrep_to_generators(rows, [], dim)
        if not pts:
            # verify emptiness by LP
            lp = make_program([0] * dim, ineqs=rows)
            assert not isinstance(solve_lp(lp), LpOptimal)
            continue
        assert rays == () and lin == ()
        for p in pts:
            assert satisfies(rows, [], p)
        back_i, back_e = generators_to_hrep(pts, rays, dim)
        for _ in range(10):
            x = vec(tuple(F(rng.randint(-6, 6), 2) for _ in range(dim)))
            a = satisfies(rows, [], x)
            b = satisfies(back_i, back_e, x)
            c = in_hull(pts, rays, x)
            assert a == b == c


def test_random_cones_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.randint(1, 3)
        nrows = rng.randint(1, 4)
        rows = []
        for _ in range(nrows):
            a = tuple(rng.randint(-2, 2) for _ in range(dim))
            rows.append(vec(a))
        rays, lin = cone_from_inequalities(rows, dim)
        for g in list(rays) + list(lin) + [tuple(-x for x in l) for l in lin]:
            for a in rows:
                assert dot(a, vec(g)) <= 0
        # membership agreement on sample directions
        for _ in range(8):
            x = vec(tuple(rng.randint(-3, 3) for _ in range(dim)))
            in_rows = all(dot(a, x) <= 0 for a in rows)
            gens = list(rays) + list(lin) + [tuple(-v for v in l) for l in lin]
            if gens:
                k = len(gens)
                eqs = [([g[j] for g in gens], x[j]) for j in range(dim)]
                lp = make_program([0] * k, eqs=eqs, signs=[NONNEG] * k)
                in_gens = isinstance(solve_lp(lp), LpOptimal)
            else:
                in_gens = all(v == 0 for v in x)
            assert in_rows == in_gens


def test_row_cap_checked_before_any_row():
    # a malformed first row would raise InputError if processing started
    rows = [vec((1,))] + [vec((0, 1))] * dd.MAX_ROWS
    with pytest.raises(CapacityError):
        cone_from_inequalities(rows, 2)


def test_live_ray_cap(monkeypatch):
    cube = [(unit_vec(3, i, s), F(max(s, 0))) for i in range(3) for s in (-1, 1)]
    pts, _, _ = hrep_to_generators(cube, [], 3)
    assert len(pts) == 8
    monkeypatch.setattr(dd, "MAX_LIVE_RAYS", 2)
    with pytest.raises(CapacityError):
        hrep_to_generators(cube, [], 3)


def test_non_integral_vertices_stay_exact():
    # 0 <= x, 2x <= 1, 0 <= y, 3y <= 1: the generators are homogeneous
    # integer tuples, so the vertices come from dividing by the last entry
    rows = [((F(-1), F(0)), F(0)), ((F(2), F(0)), F(1)),
            ((F(0), F(-1)), F(0)), ((F(0), F(3)), F(1))]
    pts, rays, lin = hrep_to_generators(rows, [], 2)
    assert sorted(pts) == [(0, 0), (0, F(1, 3)), (F(1, 2), 0), (F(1, 2), F(1, 3))]
    assert ConvexSet.from_hrep(2, ineqs=rows).vrep().vertices == pts
    # a half-plane x <= 1/2 has a point, a ray and a lineality direction
    half = hrep_to_generators([((F(2), F(0)), F(1))], [], 2)
    assert half[0] == ((F(1, 2), 0),)
    assert len(half[1]) == len(half[2]) == 1
    for part in (pts, half[0], half[1], half[2]):
        for g in part:
            assert all(type(x) is F for x in g)


# -- cross-check against the algebraic adjacency test ------------------------

def rank_engine(rows, dim):
    """The double description engine with the algebraic adjacency test
    (rank of the shared active rows equals ambient dimension minus
    lineality dimension minus two), on Fraction generators. Kept as an
    independent reference for cone_from_inequalities."""
    lineality = [unit_vec(dim, i) for i in range(dim)]
    rays = []
    active = {}
    processed = []
    for ri, a in enumerate(rows):
        if all(x == 0 for x in a):
            continue
        pivot = next((l for l in lineality if dot(a, l) != 0), None)
        if pivot is not None:
            s0 = dot(a, pivot)
            l0 = tuple(-x / s0 for x in pivot)
            lineality = [
                tuple(x + dot(a, l) * y for x, y in zip(l, l0))
                for l in lineality if l is not pivot
            ]
            new_rays = []
            new_active = {}
            for k, r in enumerate(rays):
                new_rays.append(tuple(x + dot(a, r) * y for x, y in zip(r, l0)))
                new_active[k] = active[k] | {ri}
            new_active[len(new_rays)] = set(processed)
            new_rays.append(l0)
            rays = [vec(integerize(r)) for r in new_rays]
            active = new_active
        else:
            dim_eff = dim - len(lineality)
            signs = [dot(a, r) for r in rays]
            keep = [k for k, s in enumerate(signs) if s <= 0]
            new_rays = [rays[k] for k in keep]
            new_active = {
                i: (active[k] | {ri} if signs[k] == 0 else active[k])
                for i, k in enumerate(keep)
            }
            for p in (k for k, s in enumerate(signs) if s < 0):
                for n in (k for k, s in enumerate(signs) if s > 0):
                    common = active[p] & active[n]
                    if rank([rows[j] for j in common]) != dim_eff - 2:
                        continue
                    w = tuple(signs[n] * xp - signs[p] * xn
                              for xp, xn in zip(rays[p], rays[n]))
                    new_active[len(new_rays)] = common | {ri}
                    new_rays.append(vec(integerize(w)))
            rays = new_rays
            active = new_active
        processed.append(ri)
    rays = [vec(integerize(r)) for r in rays]
    lineality = [vec(integerize(l)) for l in lineality]
    return tuple(rays), tuple(lineality)


def random_cone_rows(rng, dim):
    """Integer and fractional rows with duplicates, positive multiples,
    conic combinations, zero rows and equality pairs mixed in."""
    rows = [vec(tuple(F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim)))
            for _ in range(rng.randint(1, dim + 4))]
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(5)
        a = rng.choice(rows)
        if kind == 0:
            rows.append(a)
        elif kind == 1:
            rows.append(tuple(F(rng.randint(1, 3), rng.randint(1, 3)) * x for x in a))
        elif kind == 2:
            b = rng.choice(rows)
            rows.append(tuple(x + y for x, y in zip(a, b)))
        elif kind == 3:
            rows.append(vec((0,) * dim))
        else:
            rows.append(tuple(-x for x in a))
    rng.shuffle(rows)
    return rows


def test_matches_rank_engine_on_random_cones():
    rng = random.Random(2016)
    pointed = with_lineality = 0
    for _ in range(320):
        dim = rng.randint(2, 6)
        rows = random_cone_rows(rng, dim)
        got = cone_from_inequalities(rows, dim)
        assert got == rank_engine(rows, dim)
        pointed += not got[1] and len(got[0]) > dim
        with_lineality += bool(got[1])
    # enough pointed cones leave the simplicial case for adjacency to
    # matter, and enough keep a lineality space for the quotient to matter
    assert pointed >= 40 and with_lineality >= 40


@pytest.mark.parametrize("seed,dim", [(3, 3), (4, 3), (5, 3), (3, 4), (2, 4)])
def test_matches_rank_engine_on_difference_sets(seed, dim):
    a, b, _ = random_pair_with_common_point(seed, dim)
    diff = a.difference(b)
    v = diff.vrep()
    polar = [tuple(p) + (F(1),) for p in v.vertices] + [tuple(r) + (F(0),) for r in v.rays]
    h = diff.hrep()
    homog = [tuple(x) + (-c,) for x, c in h.ineqs] + [unit_vec(dim + 1, dim, -1)]
    for rows in (polar, homog):
        assert cone_from_inequalities(rows, dim + 1) == rank_engine(rows, dim + 1)
