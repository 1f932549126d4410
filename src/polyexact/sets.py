"""Convex polyhedra over exact rationals.

A ConvexSet wraps one or both descriptions of the same polyhedron: rows
(HRep) and generators (VRep). Predicates prefer whichever raw form
answers directly; the missing form is derived on first use and cached
behind a lock. The canonical rows are read off one double description
of the generators, whose rows are exactly the facets and the equations
of the affine hull (Fukuda & Prodon 1996). Canonicalization puts the
equalities in reduced echelon form, reduces the facet rows modulo them,
rescales, deduplicates and sorts, so equal sets have equal canonical
forms and reports stay byte-stable. The result is checked in integers
against the generators before use (check_facets). A set described by
generators runs that double description once, for hrep() and the
canonical rows alike.

Point tests run in integers on rows cleared once per set: integer_rows()
is the lp.IntegerRows of hrep(), and contains (on a set that holds
rows), interior_contains, active_rows and the segment test of
core_contains compare int dot products with the point, brought over one
denominator, against the scaled right-hand sides (lp._satisfies and
lp._slacks, the kernel of the LP certificate check). The set's prepared
LP system reads the same rows. A set described only by generators
answers contains with one LP and derives no rows for it.

Sets are immutable, so what is derived from them is kept on them.
cached() holds results of one set by key: the integer rows, the
prepared LP system of the rows (simplex phase one, run once; see
lp.PreparedSystem), the rows of the double description, the canonical
forms, whether the set is bounded, the normal cone at each point asked
and the support value of each functional asked. Emptiness is read off
that phase one, and support values share it. cached_with() holds results
of a pair for the set's last partner, compared by identity: the difference
set, the pair's prepared gauge program (see calculus._reach_system) and
its reaches along the cube's corners and axes. Every question asked of
one pair then shares one A - B, with its rows, canonical form and
prepared LP system, runs phase one once for all reaches and solves
each direction once.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import dd
from .errors import InputError, InternalError, PreconditionError
from .lp import (NONNEG, IntegerRows, LpOptimal, LpUnbounded, PreparedSystem, _satisfies,
                 _slacks, combination_program, integer_form, make_program, solve_lp)
from .linalg import (
    ONE,
    ZERO,
    Vec,
    dot,
    frac,
    integer_rank,
    integerize,
    is_zero_vec,
    l1_norm,
    lead_normalized,
    over_one_denominator,
    rref,
    reduce_mod_subspace,
    unit_vec,
    vadd,
    vec,
    vneg,
    zero_vec,
)

Row = tuple[Vec, Fraction]


@dataclass(frozen=True)
class HRep:
    dim: int
    ineqs: tuple[Row, ...]
    eqs: tuple[Row, ...]


@dataclass(frozen=True)
class VRep:
    dim: int
    vertices: tuple[Vec, ...]
    rays: tuple[Vec, ...]


def _check_dim(dim: int) -> None:
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"dimension must be a positive integer, got {dim!r}")
    if dim > dd.MAX_DIM:
        raise InputError(f"dimension {dim} exceeds the supported limit {dd.MAX_DIM}")


def make_hrep(dim: int, ineqs=(), eqs=()) -> HRep:
    """Rows (normal, rhs) meaning normal.x <= rhs, or = for eqs.

    A zero normal is only accepted when the row is trivially true, and
    such rows are dropped.
    """
    _check_dim(dim)
    def rows(pairs, eq):
        out = []
        for a, b in pairs:
            a, b = vec(a), frac(b)
            if len(a) != dim:
                raise InputError(f"row has {len(a)} coefficients, expected {dim}")
            if is_zero_vec(a):
                trivial = (b == 0) if eq else (b >= 0)
                if not trivial:
                    raise InputError("zero normal with a falsifying right hand side")
                continue
            out.append((a, b))
        return tuple(out)
    return HRep(dim, rows(ineqs, False), rows(eqs, True))


def make_vrep(dim: int, vertices=(), rays=()) -> VRep:
    """Generators: conv(vertices) + cone(rays). No vertices means the
    empty set, in which case rays must be absent too."""
    _check_dim(dim)
    vs = tuple(vec(v) for v in vertices)
    rs = tuple(vec(r) for r in rays)
    for v in vs:
        if len(v) != dim:
            raise InputError(f"vertex has {len(v)} coordinates, expected {dim}")
    for r in rs:
        if len(r) != dim:
            raise InputError(f"ray has {len(r)} coordinates, expected {dim}")
        if is_zero_vec(r):
            raise InputError("zero vector is not a direction")
    if not vs and rs:
        raise InputError("recession directions without any point")
    return VRep(dim, vs, rs)


class ConvexSet:
    """A polyhedron with lazily synchronized dual descriptions."""

    def __init__(self, hrep: HRep | None = None, vrep: VRep | None = None):
        if hrep is None and vrep is None:
            raise InputError("a set needs at least one description")
        if hrep is not None and vrep is not None and hrep.dim != vrep.dim:
            raise InputError("descriptions disagree on dimension")
        self.dim = hrep.dim if hrep is not None else vrep.dim
        self._hrep = hrep
        self._vrep = vrep
        self._memo: dict = {}
        self._partner: ConvexSet | None = None
        self._partner_memo: dict = {}
        self._lock = threading.RLock()

    @classmethod
    def from_hrep(cls, dim: int, ineqs=(), eqs=()) -> "ConvexSet":
        return cls(hrep=make_hrep(dim, ineqs, eqs))

    @classmethod
    def from_vrep(cls, dim: int, vertices=(), rays=()) -> "ConvexSet":
        return cls(vrep=make_vrep(dim, vertices, rays))

    def __repr__(self) -> str:
        parts = [f"dim={self.dim}"]
        if self._hrep is not None:
            parts.append(f"rows={len(self._hrep.ineqs)}+{len(self._hrep.eqs)}eq")
        if self._vrep is not None:
            parts.append(f"gens={len(self._vrep.vertices)}+{len(self._vrep.rays)}ray")
        return f"ConvexSet({', '.join(parts)})"

    # -- description access -------------------------------------------------

    def hrep(self) -> HRep:
        if self._hrep is None:
            with self._lock:
                if self._hrep is None:
                    ineqs, eqs = self._facet_rows()
                    self._hrep = make_hrep(self.dim, ineqs, eqs)
        return self._hrep

    def vrep(self) -> VRep:
        if self._vrep is None:
            with self._lock:
                if self._vrep is None:
                    h = self._hrep
                    pts, rays, lin = dd.hrep_to_generators(h.ineqs, h.eqs, h.dim)
                    expanded = tuple(rays) + tuple(lin) + tuple(vneg(l) for l in lin)
                    self._vrep = make_vrep(h.dim, pts, expanded)
        return self._vrep

    def _facet_rows(self) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
        """(ineqs, eqs): the rows of one double description of vrep(),
        run once per set. They are the extreme rays of the polar cone of
        the homogenized set and its lineality (Fukuda & Prodon 1996):
        one inequality per facet, and equalities spanning the equations
        of the affine hull."""
        def build():
            v = self.vrep()
            return dd.generators_to_hrep(v.vertices, v.rays, (), v.dim)
        return self.cached("facet_rows", build)

    def lp_system(self) -> PreparedSystem:
        """The rows of hrep() after simplex phase one; every LP over
        exactly these rows solves through it. Its integer rows are the
        set's own (integer_rows), so they are cleared once for the LPs
        and the point tests alike."""
        def build():
            h = self.hrep()
            return PreparedSystem(make_program(zero_vec(self.dim), ineqs=h.ineqs, eqs=h.eqs),
                                  self._integer_rows(h))
        return self.cached("lp_system", build)

    def integer_rows(self) -> IntegerRows:
        """The rows of hrep() over the integers (lp.integer_form), built
        once per set. Every point test reads them, and so do lp_system()
        and its certificate checks. Unlike an LP they are not capped."""
        return self._integer_rows(self.hrep())

    def _integer_rows(self, h: HRep) -> IntegerRows:
        """integer_rows() for a caller that already holds h, the set's
        hrep(), or its raw rows, and so need not ask for them again."""
        return self.cached("integer_rows", lambda: integer_form(h.ineqs, h.eqs))

    def cached(self, key, build):
        """build(), run once per key and kept on the set, for a result
        that depends on nothing but the set and the key. build runs under
        the set's lock, so it may derive the set's own descriptions but
        must never wait on another set's lock."""
        memo = self._memo
        if key not in memo:
            with self._lock:
                if key not in memo:
                    memo[key] = build()
        return memo[key]

    def cached_with(self, other: "ConvexSet", key, build):
        """As cached(), for a result that also depends on a partner set.
        Results are kept for the last partner only, which is compared by
        identity and held, so the questions asked of one pair share their
        work and a set never accumulates partners."""
        with self._lock:
            if self._partner is not other:
                self._partner = other
                self._partner_memo = {}
            memo = self._partner_memo
            if key not in memo:
                memo[key] = build()
            return memo[key]

    # -- basic predicates ---------------------------------------------------

    def contains(self, x) -> bool:
        """Membership. A set that holds rows reads them in integers
        (integer_rows), the point over one denominator; a set described
        only by generators solves one LP and derives no rows for it."""
        x = self._point(x)
        if self._hrep is not None:
            return _satisfies(self._integer_rows(self._hrep), (), *over_one_denominator(x))
        v = self._vrep
        return _generator_membership(v.vertices, v.rays, x)

    def interior_contains(self, x) -> bool:
        """Topological interior. Correct on any row description: a set
        with implicit equalities leaves no point strictly inside every
        row, and an explicit equality row empties the interior. Decided
        on integer_rows(): every inequality row has a positive slack."""
        x = self._point(x)
        rows = self.integer_rows()
        if rows.eq:
            return False
        return all(s > 0 for s in _slacks(rows, *over_one_denominator(x)))

    def core_contains(self, x) -> bool:
        """Algebraic interior, checked from its definition: the point
        must absorb a segment in both orientations of every coordinate
        direction. For a convex set the hull of those segments is a
        neighborhood, so spanning directions suffice. Whether a segment
        is blocked is read off this set's own rows (_segment_blocked), so
        the test shares nothing with the reach programs of calculus."""
        x = self._point(x)
        if not self.contains(x):
            return False
        for i in range(self.dim):
            for sign in (1, -1):
                if self._segment_blocked(x, unit_vec(self.dim, i, sign)):
                    return False
        return True

    def _segment_blocked(self, x: Vec, d: Vec) -> bool:
        """For x in the set: no t > 0 keeps x + t d inside. That holds
        exactly when some row stops d at x, an equality row with a.d != 0
        or an inequality row tight at x with a.d > 0, and that row is
        the witness. Read off integer_rows(), d scaled by a positive
        factor, which keeps the sign of each a.d."""
        rows = self.integer_rows()
        ds, _ = over_one_denominator(d)
        if any(sum(map(mul, a, ds)) for a, _, _ in rows.eq):
            return True
        slacks = _slacks(rows, *over_one_denominator(x))
        return any(not s and sum(map(mul, a, ds)) > 0 for s, (a, _, _) in zip(slacks, rows.ineq))

    def is_empty(self) -> bool:
        if self._vrep is not None:
            return not self._vrep.vertices
        return self.lp_system().infeasible is not None

    def is_bounded(self) -> bool:
        """No recession direction; decided once per set. A set with
        generators has none when it has no rays. A nonempty set of rows
        is bounded iff no coordinate runs off either way, that is iff
        none of the objectives +e_i and -e_i is unbounded on its own
        prepared system (lp_system, which is_empty already built)."""
        return self.cached("is_bounded", self._build_is_bounded)

    def _build_is_bounded(self) -> bool:
        if self.is_empty():
            return True
        if self._vrep is not None:
            return not self._vrep.rays
        system = self.lp_system()
        return not any(isinstance(system.solve(unit_vec(self.dim, i, sign)), LpUnbounded)
                       for i in range(self.dim) for sign in (1, -1))

    def interior_point(self) -> Vec | None:
        """A point with positive row slack everywhere, or None when the
        interior is empty (see _slack_point)."""
        return self._slack_point()

    def _slack_point(self, within: "ConvexSet | None" = None) -> Vec | None:
        """A point strictly inside every row of hrep(), and in within when
        given, or None. The interior of {a.x <= b} over nonzero rows a is
        {a.x < b}, so the raw rows serve: one LP inflates a slack t <= 1
        by a.x + t*|a|_1 <= b inside the rows of within, and a positive
        best t gives the point. An equality row leaves no interior."""
        h = self.hrep()
        if h.eqs:
            return None
        n = self.dim
        outer = within.hrep() if within is not None else HRep(n, (), ())
        ineqs = [(a + (ZERO,), b) for a, b in outer.ineqs]
        ineqs += [(a + (l1_norm(a),), b) for a, b in h.ineqs]
        ineqs.append((zero_vec(n) + (ONE,), ONE))
        eqs = [(a + (ZERO,), b) for a, b in outer.eqs]
        out = solve_lp(make_program(zero_vec(n) + (-ONE,), ineqs=ineqs, eqs=eqs))
        if isinstance(out, LpOptimal) and out.value < 0:
            return out.point[:n]
        return None

    def active_rows(self, x) -> tuple[Vec, ...]:
        """Normals of the raw inequality rows tight at x, plus both
        orientations of every equality row. Tightness is read off
        integer_rows(); the normals returned are the rows' own."""
        x = self._point(x)
        h = self.hrep()
        rows = self._integer_rows(h)
        xs, q = over_one_denominator(x)
        if not _satisfies(rows, (), xs, q):
            raise PreconditionError("point is not in the set")
        out = [a for (a, _), s in zip(h.ineqs, _slacks(rows, xs, q)) if not s]
        for a, b in h.eqs:
            out.append(a)
            out.append(vneg(a))
        return tuple(out)

    # -- constructions ------------------------------------------------------

    def translate(self, t) -> "ConvexSet":
        t = self._point(t)
        hrep = vrep = None
        if self._hrep is not None:
            h = self._hrep
            hrep = HRep(h.dim,
                        tuple((a, b + dot(a, t)) for a, b in h.ineqs),
                        tuple((a, b + dot(a, t)) for a, b in h.eqs))
        if self._vrep is not None:
            v = self._vrep
            vrep = VRep(v.dim, tuple(vadd(p, t) for p in v.vertices), v.rays)
        return ConvexSet(hrep=hrep, vrep=vrep)

    def negate(self) -> "ConvexSet":
        hrep = vrep = None
        if self._hrep is not None:
            h = self._hrep
            hrep = HRep(h.dim,
                        tuple((vneg(a), b) for a, b in h.ineqs),
                        tuple((vneg(a), b) for a, b in h.eqs))
        if self._vrep is not None:
            v = self._vrep
            vrep = VRep(v.dim,
                        tuple(vneg(p) for p in v.vertices),
                        tuple(vneg(r) for r in v.rays))
        return ConvexSet(hrep=hrep, vrep=vrep)

    def intersect(self, other: "ConvexSet") -> "ConvexSet":
        check_same_dim(self, other)
        a, b = self.hrep(), other.hrep()
        return ConvexSet(hrep=HRep(self.dim, a.ineqs + b.ineqs, a.eqs + b.eqs))

    def minkowski(self, other: "ConvexSet") -> "ConvexSet":
        check_same_dim(self, other)
        a, b = self.vrep(), other.vrep()
        if not a.vertices or not b.vertices:
            return ConvexSet(vrep=VRep(self.dim, (), ()))
        # dict.fromkeys deduplicates and keeps the first-seen order
        sums = dict.fromkeys(vadd(p, q) for p in a.vertices for q in b.vertices)
        rays = dict.fromkeys(a.rays + b.rays)
        return ConvexSet(vrep=VRep(self.dim, tuple(sums), tuple(rays)))

    def difference(self, other: "ConvexSet") -> "ConvexSet":
        """The set of pairwise differences self - other.

        Built once for the last partner and kept (see cached_with), so
        every question about one pair shares this set and its lazily
        derived forms. The build holds only this set's lock: other is
        read through negate(), whose fresh set no other caller can lock."""
        return self.cached_with(other, "difference", lambda: self.minkowski(other.negate()))

    # -- canonical forms ----------------------------------------------------

    def canonical_hrep(self) -> HRep:
        """The unique row description of the set, built once. It reads
        a double description, whose caps (dd.MAX_ROWS, dd.MAX_LIVE_RAYS)
        raise CapacityError."""
        return self.cached("canonical_hrep", self._build_canonical_hrep)

    def canonical_vrep(self) -> VRep:
        return self.cached("canonical_vrep", self._build_canonical_vrep)

    def _build_canonical_hrep(self) -> HRep:
        """The facet rows of the set, normalized: equalities in reduced
        echelon form, inequalities reduced modulo them, scaled so the
        lead entry is 1 or -1, deduplicated and sorted. They are checked
        against the generators (check_facets) before return."""
        if self.is_empty():
            e = unit_vec(self.dim, 0)
            return HRep(self.dim, ((e, Fraction(-1)), (vneg(e), Fraction(-1))), ())
        v = self.vrep()
        ineqs, eqs = self._facet_rows()
        reduced_eqs, pivots = rref([list(a) + [b] for a, b in eqs])
        rows = set()
        for a, b in ineqs:
            r = reduce_mod_subspace(tuple(a) + (b,), reduced_eqs, pivots)
            # a row that is constant on the affine hull says nothing
            if not is_zero_vec(r[:-1]):
                # the lead entry of r lies in its normal part
                r = lead_normalized(r)
                rows.add((r[:-1], r[-1]))
        h = HRep(self.dim, tuple(sorted(rows)),
                 tuple(sorted((tuple(row[:-1]), row[-1]) for row in reduced_eqs)))
        check_facets(v, h)
        return h

    def _build_canonical_vrep(self) -> VRep:
        h = self.hrep()
        pts, rays, lin = dd.hrep_to_generators(h.ineqs, h.eqs, self.dim)
        dirs = []
        for r in tuple(rays) + tuple(lin) + tuple(vneg(l) for l in lin):
            c = lead_normalized(r)
            if c not in dirs:
                dirs.append(c)
        return VRep(self.dim, tuple(sorted(pts)), tuple(sorted(dirs)))

    # -- helpers ------------------------------------------------------------

    def _point(self, x) -> Vec:
        x = vec(x)
        if len(x) != self.dim:
            raise InputError(f"point has {len(x)} coordinates, expected {self.dim}")
        return x


def check_same_dim(s1: ConvexSet, s2: ConvexSet) -> None:
    if s1.dim != s2.dim:
        raise InputError("sets live in different dimensions")


def check_facets(v: VRep, h: HRep) -> None:
    """InternalError unless h is a facet description of the nonempty set
    that v generates: every row holds on every vertex and ray, every
    equality row is tight on all of them, the generators span an affine
    hull of dimension dim - len(h.eqs), and each inequality row is tight
    on generators that span a face one dimension lower, a facet. Decided
    in integers on the homogenized generators (p, 1) and (r, 0)."""
    gens = ([integerize(p + (ONE,)) for p in v.vertices]
            + [integerize(r + (ZERO,)) for r in v.rays])
    flat = h.dim - len(h.eqs)
    if integer_rank(gens) != flat + 1:
        raise InternalError("the equality rows do not span the affine hull")
    for a, b in h.eqs:
        e = integerize(a + (-b,))
        if any(sum(map(mul, e, g)) for g in gens):
            raise InternalError("an equality row fails a generator")
    for a, b in h.ineqs:
        f = integerize(a + (-b,))
        dots = [sum(map(mul, f, g)) for g in gens]
        if any(d > 0 for d in dots):
            raise InternalError("a row cuts off a generator")
        tight = [g for g, d in zip(gens, dots) if not d]
        if len(tight) < flat or integer_rank(tight) != flat:
            raise InternalError("a row is not tight on a facet")


def _generator_membership(vertices, rays, x: Vec) -> bool:
    """(x, 1) is a nonnegative combination of the vertices (p, 1) and
    the rays (r, 0): the vertex weights sum to one."""
    if not vertices:
        return False
    columns = [p + (ONE,) for p in vertices] + [r + (ZERO,) for r in rays]
    lp = combination_program(columns, x + (ONE,), [NONNEG] * len(columns))
    return isinstance(solve_lp(lp), LpOptimal)


def ball_inf(center, radius) -> ConvexSet:
    """Box ball of the max norm."""
    center = vec(center)
    radius = frac(radius)
    if radius < 0:
        raise InputError("radius must be nonnegative")
    dim = len(center)
    ineqs = []
    for i in range(dim):
        e = unit_vec(dim, i)
        ineqs.append((e, center[i] + radius))
        ineqs.append((vneg(e), radius - center[i]))
    return ConvexSet.from_hrep(dim, ineqs)


def sets_equal(a: ConvexSet, b: ConvexSet) -> bool:
    if a.dim != b.dim:
        return False
    return a.canonical_hrep() == b.canonical_hrep()
