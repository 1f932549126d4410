"""Independent cross-checks used by the test-suite and the CLI suite runner.

Nothing here reuses solver internals: the grid oracle evaluates
constraint rows directly, and the random generators are built on a
hand-rolled linear congruential generator so that streams are
reproducible across platforms and Python versions.
"""
from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

from .errors import InputError
from .linalg import dot, l1_norm, unit_vec, vec, vneg
from .lp import LinearProgram, LpInfeasible, LpOptimal, LpUnbounded, make_program
from .sets import ConvexSet, HRep


class Lcg:
    """Deterministic 64-bit linear congruential generator.

    Constants from Knuth's MMIX stream. Only integer draws are exposed;
    callers build rationals from them so no float ever enters.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK
        for _ in range(3):
            self._step()

    def _step(self) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state >> 16

    def below(self, n: int) -> int:
        """Uniform draw from 0..n-1."""
        if n <= 0:
            raise InputError("empty range")
        return self._step() % n

    def int_between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def fraction(self, span: int = 4, dens: tuple[int, ...] = (1, 1, 2, 3)) -> Fraction:
        return Fraction(self.int_between(-span, span), dens[self.below(len(dens))])

    def choice(self, items):
        return items[self.below(len(items))]


def random_lp(seed: int) -> LinearProgram:
    """Small random LP over free variables with no zero rows and a
    nonzero objective, so every mutation in lp_mutations provably breaks
    the certificate."""
    rng = Lcg(seed)
    dim = rng.int_between(1, 4)
    m1 = rng.int_between(0, 4)
    m2 = rng.int_between(0, 2)
    if m1 + m2 == 0:
        m1 = 1
    while True:
        obj = tuple(rng.fraction() for _ in range(dim))
        if any(obj):
            break
    def row():
        while True:
            a = tuple(rng.fraction() for _ in range(dim))
            if any(a):
                return (a, rng.fraction(span=6))
    return make_program(obj, ineqs=[row() for _ in range(m1)], eqs=[row() for _ in range(m2)])


def lp_mutations(lp: LinearProgram, outcome):
    """Tampered copies of a valid certificate, each one invalid.

    For optimal outcomes: value bumped, point shifted along a coordinate
    the objective sees, one dual bumped. For infeasibility witnesses the
    multipliers are negated, which flips the strict bound. For rays the
    direction is negated, which flips the objective slope.
    """
    out = []
    if isinstance(outcome, LpOptimal):
        out.append(replace(outcome, value=outcome.value + 1))
        k = next(j for j in range(lp.dim) if lp.objective[j])
        shifted = tuple(x + (1 if j == k else 0) for j, x in enumerate(outcome.point))
        out.append(replace(outcome, point=shifted))
        if outcome.dual_ineq:
            bumped = (outcome.dual_ineq[0] + 1,) + outcome.dual_ineq[1:]
            out.append(replace(outcome, dual_ineq=bumped))
        if outcome.dual_eq:
            bumped = (outcome.dual_eq[0] + 1,) + outcome.dual_eq[1:]
            out.append(replace(outcome, dual_eq=bumped))
    elif isinstance(outcome, LpInfeasible):
        out.append(LpInfeasible(
            farkas_ineq=tuple(-y for y in outcome.farkas_ineq),
            farkas_eq=tuple(-z for z in outcome.farkas_eq)))
    elif isinstance(outcome, LpUnbounded):
        out.append(replace(outcome, ray=tuple(-r for r in outcome.ray)))
    return out


# -- random geometry --------------------------------------------------------

ROWS_BY_DIM = {1: 8, 2: 8, 3: 7, 4: 6}


def random_polytope(seed: int, dim: int) -> ConvexSet:
    """Nonempty bounded polyhedron: a box around an anchor point plus a
    few anchored cuts, so emptiness never sneaks in."""
    rng = Lcg(seed)
    anchor = tuple(Fraction(rng.int_between(-2, 2), rng.choice((1, 1, 2))) for _ in range(dim))
    rows = _box_rows(rng, dim, anchor)
    rows += _anchored_cuts(rng, dim, anchor, rng.int_between(0, 3))
    return ConvexSet.from_hrep(dim, ineqs=rows)


def random_pair_with_common_point(seed: int, dim: int):
    """Two polyhedra sharing an anchor point that often sits on both
    boundaries, which is where the interesting verdicts live."""
    rng = Lcg(seed)
    anchor = tuple(Fraction(rng.int_between(-2, 2), rng.choice((1, 1, 2))) for _ in range(dim))
    out = []
    cap = ROWS_BY_DIM.get(dim, 5)
    for _ in range(2):
        rows = _anchored_cuts(rng, dim, anchor, rng.int_between(1, cap))
        if rng.below(2) == 0:
            rows += _box_rows(rng, dim, anchor)
        out.append(ConvexSet.from_hrep(dim, ineqs=rows))
    return out[0], out[1], vec(anchor)


def _box_rows(rng: Lcg, dim: int, anchor) -> list:
    r = Fraction(rng.int_between(1, 3))
    rows = []
    for i in range(dim):
        e = unit_vec(dim, i)
        rows.append((e, anchor[i] + r))
        rows.append((vneg(e), r - anchor[i]))
    return rows


def _anchored_cuts(rng: Lcg, dim: int, anchor, count: int) -> list:
    rows = []
    while len(rows) < count:
        a = tuple(Fraction(rng.int_between(-3, 3)) for _ in range(dim))
        if not any(a):
            continue
        slack = Fraction(0) if rng.below(3) == 0 else Fraction(rng.int_between(0, 2))
        rows.append((a, dot(vec(a), vec(anchor)) + slack))
    return rows


# -- grid interior oracle ----------------------------------------------------

GRID_RESOLUTION = 401


def grid_cell(half_width) -> Fraction:
    """Spacing of a symmetric grid with GRID_RESOLUTION nodes per axis."""
    return Fraction(2) * Fraction(half_width) / (GRID_RESOLUTION - 1)


def grid_interior_verdict(h: HRep, x, cell: Fraction):
    """Three-valued interior test from raw row evaluation only.

    True and False are proofs; None means the point is too close to a
    row hyperplane for the block to decide. Soundness: if the whole
    3^dim neighbor block lies inside, its hull is a neighborhood of x;
    if a nonzero valid row is tight at x, no neighborhood fits.
    """
    x = vec(x)
    rows = list(h.ineqs)
    for a, b in h.eqs:
        rows.append((a, b))
        rows.append((vneg(a), -b))

    def member(p) -> bool:
        return all(dot(a, p) <= b for a, b in rows)

    if not member(x):
        return False
    if not rows:
        return True
    slack = min((b - dot(a, x)) / l1_norm(a) for a, b in rows)
    if slack == 0:
        return False
    if slack >= cell:
        return True
    block = itertools.product((-cell, Fraction(0), cell), repeat=h.dim)
    if all(member(tuple(xi + di for xi, di in zip(x, d))) for d in block):
        return True
    return None
