"""Conversion between the two descriptions of a polyhedron.

The engine is the double description method on homogeneous cones
{x : a.x <= 0}. Each input row is scaled once to a primitive integer
row, which leaves the cone unchanged. Generators are carried as
primitive int tuples: absorbing a row into the lineality space maps
x -> |s0| x - sign(s0) (a.x) pivot, a positive multiple of sliding x along
the pivot direction, and a new ray is the combination of an adjacent pair
divided by its gcd. Entries become Fractions only on return.

The lineality space is carried explicitly and every processed row
vanishes on it, so the quotient cone is pointed and the kept rays are
exactly its extreme rays, one each. Adjacency is then decided
combinatorially (Fukuda & Prodon 1996): with each ray's active rows kept
as a bitmask, two rays are adjacent iff they share at least
(dimension - lineality dimension - 2) active rows and no third ray is
active on all of those shared rows. New rays come only from adjacent
pairs, which keeps the generator list irredundant at every step.

Polyhedra are handled through homogenization: a point x becomes the ray
(x, 1), a recession direction r becomes (r, 0), and the extra constraint
keeps the last coordinate nonnegative. The reverse conversion runs the
same engine on the polar side, where generators act as inequality rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import CapacityError, InputError
from .linalg import Vec, integerize, unit_vec, vec

MAX_DIM = 8
MAX_ROWS = 1024
MAX_LIVE_RAYS = 32768


def _guard(dim: int, nrows: int) -> None:
    # user-facing input caps live at the construction layer; these are
    # backstops for derived data
    if dim > MAX_DIM + 1:
        raise CapacityError(f"dimension {dim} exceeds the supported limit")
    if nrows > MAX_ROWS:
        raise CapacityError(f"{nrows} rows exceed the supported limit")


def _idot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(map(mul, u, v))


def _primitive(u: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*u)
    return tuple(x // g for x in u) if g > 1 else u


def cone_from_inequalities(rows: list[Vec], dim: int):
    """Generators of {x : a.x <= 0 for every row a}.

    Returns (rays, lineality) as tuples of primitive integer direction
    tuples, with Fraction entries. Rays are extreme modulo the lineality
    space.
    """
    _guard(dim, len(rows))
    lineality = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    # active[k] is the bitmask of processed rows that vanish on rays[k];
    # lineality vanishes on all processed rows, so only rays need one
    active: list[int] = []
    processed = 0
    for ri, a in enumerate(rows):
        if len(a) != dim:
            raise InputError(f"row has {len(a)} coefficients, expected {dim}")
        a = integerize(a)
        if not any(a):
            continue
        bit = 1 << ri
        pivot = next((l for l in lineality if _idot(a, l)), None)
        if pivot is not None:
            # absorb: slide everything along the lineality direction onto
            # the hyperplane, x -> |s0| x - sign(s0) (a.x) pivot, then keep
            # the feasible half of the pivot as a new ray
            s0 = _idot(a, pivot)
            sg = 1 if s0 > 0 else -1

            def slide(x):
                t = _idot(a, x)
                if not t:
                    return x
                return _primitive(tuple(sg * (s0 * u - t * v) for u, v in zip(x, pivot)))

            lineality = [slide(l) for l in lineality if l is not pivot]
            rays = [slide(r) for r in rays]
            active = [z | bit for z in active]
            # the kept half-direction itself is strictly inside the new
            # halfspace, so it is not active at this row
            rays.append(tuple(-sg * x for x in pivot))
            active.append(processed)
        else:
            # processed rows vanish on the lineality, so the quotient cone
            # is pointed and its extreme rays are exactly `rays`: a pair is
            # adjacent iff no third ray is active on all rows both share
            need = dim - len(lineality) - 2
            signs = [_idot(a, r) for r in rays]
            keep = [k for k, s in enumerate(signs) if s <= 0]
            pos = [k for k, s in enumerate(signs) if s < 0]
            neg = [k for k, s in enumerate(signs) if s > 0]
            new_rays = [rays[k] for k in keep]
            new_active = [active[k] | bit if signs[k] == 0 else active[k] for k in keep]
            for p in pos:
                zp = active[p]
                for n in neg:
                    common = zp & active[n]
                    if common.bit_count() < need:
                        continue
                    if sum(z & common == common for z in active) > 2:
                        continue
                    w = tuple(
                        signs[n] * xp - signs[p] * xn
                        for xp, xn in zip(rays[p], rays[n])
                    )
                    new_rays.append(_primitive(w))
                    new_active.append(common | bit)
                    if len(new_rays) > MAX_LIVE_RAYS:
                        raise CapacityError("intermediate ray count blew up")
            rays = new_rays
            active = new_active
        processed |= bit
    # Fraction entries: callers divide coordinates, and int / int is a float
    return tuple(vec(r) for r in rays), tuple(vec(l) for l in lineality)


def hrep_to_generators(ineqs, eqs, dim: int):
    """Vertices and recession generators of {x : A x <= b, E x = f}.

    Returns (points, rays, lineality); empty set gives ((), (), ()).
    """
    _guard(dim, 2 * len(eqs) + len(ineqs) + 1)
    rows: list[Vec] = []
    for a, b in ineqs:
        rows.append(vec(tuple(a) + (-Fraction(b),)))
    for a, b in eqs:
        h = vec(tuple(a) + (-Fraction(b),))
        rows.append(h)
        rows.append(tuple(-x for x in h))
    rows.append(unit_vec(dim + 1, dim, -1))
    rays, lineality = cone_from_inequalities(rows, dim + 1)
    points, recession = [], []
    for g in rays:
        t = g[dim]
        if t > 0:
            points.append(tuple(x / t for x in g[:dim]))
        else:
            recession.append(g[:dim])
    lin = [l[:dim] for l in lineality]
    if not points:
        return (), (), ()
    return tuple(points), tuple(recession), tuple(lin)


def generators_to_hrep(points, rays, dim: int):
    """Inequality and equality rows describing the convex hull of the
    points plus the cone of the rays.

    An empty point list means the empty set, encoded by a pair of
    contradictory rows.
    """
    if not points:
        if rays:
            raise InputError("recession directions without any point")
        e = unit_vec(dim, 0)
        return ((e, Fraction(-1)), (vec(tuple(-x for x in e)), Fraction(-1))), ()
    _guard(dim, len(points) + len(rays) + 1)
    rows: list[Vec] = []
    for p in points:
        rows.append(vec(tuple(p) + (Fraction(1),)))
    for r in rays:
        rows.append(vec(tuple(r) + (Fraction(0),)))
    polar_rays, polar_lin = cone_from_inequalities(rows, dim + 1)
    ineqs = [(y[:dim], -y[dim]) for y in polar_rays]
    eqs = [(y[:dim], -y[dim]) for y in polar_lin]
    # a zero-normal valid inequality (0.x <= beta, beta >= 0) says nothing
    ineqs = [(a, b) for a, b in ineqs if any(x != 0 for x in a)]
    eqs = [(a, b) for a, b in eqs if any(x != 0 for x in a)]
    return tuple(ineqs), tuple(eqs)
