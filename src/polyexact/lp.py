"""Certified exact rational linear programming.

Orientation: minimize c.x subject to A x <= b, E x = f, with an optional
sign restriction per variable. Every outcome carries a witness that
verify_certificate re-checks in exact arithmetic, independently of the
solver:

* LpOptimal(point, value, dual_ineq, dual_eq): the point is feasible,
  dual_ineq >= 0, the reduced vector g = c + A^T y - E^T z is zero on
  free variables (>= 0 on nonnegative ones, <= 0 on nonpositive ones),
  and f.z - b.y == value == c.point. Equality of the two objective
  values forces complementary slackness, so no separate check is needed.
* LpInfeasible(farkas_ineq, farkas_eq): with y = farkas_ineq >= 0 and
  z = farkas_eq, the combination h = A^T y + E^T z is zero on free
  variables (>= 0 / <= 0 on sign-restricted ones) while b.y + f.z < 0,
  which no feasible point can satisfy.
* LpUnbounded(ray, point): the point is feasible and the ray is a
  recession direction (A ray <= 0, E ray = 0, sign-compatible) with
  c.ray < 0.

The check decides these predicates in scaled integers. Each row
a.x <= b (or = b) becomes the int row s*a with int right-hand side s*b,
s the lcm of the row's denominators (integer_rows), and each
certificate vector is brought over one common denominator, so every
test is an int dot product compared with a scaled bound and values
are compared by cross-multiplying. The integer form is built from the
program's own rows, never from the tableau, so the check does not
depend on the solver.

The solver is a two-phase simplex with Bland's rule on an integer
tableau: all rows share one positive denominator and pivots use the
fraction-free (Bareiss) update, so arithmetic stays in plain ints and
results are bit-for-bit deterministic. The tableau starts from the same
integer form: its rows are the int rows s*a, s*b, negated where b < 0.
Phase one starts on the slack basis of the textbook two-phase method
(Chvatal 1983, Linear Programming): an inequality row with b >= 0
starts on its slack, which is already feasible there, and only the
other rows, inequalities with b < 0 and equalities, start on an
artificial. Phase one minimizes the sum of those, so a program of
inequalities written from a known feasible point, every b >= 0, makes
no phase-one pivot.
Each solve builds that form once, for the tableau and the check alike:
solve_lp per call, a PreparedSystem once for all its solves, or not at
all when the ConvexSet whose rows it holds hands in its own. Points,
rays and multipliers are summed as ints over the tableau's denominator,
and each entry becomes one Fraction at the end.

Columns are numbered as in the textbook layout (a +/- pair per free
variable, a slack per inequality, an artificial per row), and Bland's
rule, ratio-test ties and basis ids use those numbers. Fewer columns are
stored: one per variable, one slack per inequality row, one artificial
per equality row, and the rhs. The others are read through two
identities that every pivot preserves: a free variable's minus column is
its negated plus column, and an inequality row's artificial is its slack
times that slack's starting sign. A pivot divides only the entries that
can change: where the pivot row is zero an entry is rescaled by the
ratio of the new and old denominators, which leaves it untouched when
the two are equal. Each entry that is divided is checked to divide
exactly.

Phase one never reads the objective, so it runs once per constraint
system: PreparedSystem keeps the tableau it leaves and solves each
objective on a copy. The phase-two cost row is then rebuilt exactly
from the basis as den*c - sum_i c_B(i)*row_i, the same integers a cost
row pivoted along from the start would hold, so a prepared solve returns
the very outcome solve_lp gives. solve_lp runs both phases on one
tableau without a copy.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Union

from .errors import CapacityError, InputError, InternalError
from .linalg import ZERO, Vec, frac, over_one_denominator, vec

FREE = 0
NONNEG = 1
NONPOS = -1

# caps on what make_program accepts: rows, and decimal digits in the
# numerator or the denominator of one literal
MAX_ROWS = 2048
MAX_LITERAL_DIGITS = 1000
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS


@dataclass(frozen=True)
class LinearProgram:
    objective: Vec
    ineq_lhs: tuple[Vec, ...]
    ineq_rhs: Vec
    eq_lhs: tuple[Vec, ...]
    eq_rhs: Vec
    var_signs: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.objective)


def make_program(objective, ineqs=(), eqs=(), signs=None) -> LinearProgram:
    """Build a validated LinearProgram.

    ineqs and eqs are sequences of (coefficients, rhs) pairs; signs is an
    optional sequence over {FREE, NONNEG, NONPOS}, default all free. A
    zero objective turns solve_lp into a pure feasibility test. More
    than MAX_ROWS rows, or a literal with more than MAX_LITERAL_DIGITS
    digits in its numerator or denominator, raise CapacityError.
    """
    ineqs, eqs = list(ineqs), list(eqs)
    if len(ineqs) + len(eqs) > MAX_ROWS:
        raise CapacityError(f"{len(ineqs) + len(eqs)} rows exceed the cap of {MAX_ROWS}")
    obj = vec(objective)
    n = len(obj)
    ia, ib, ea, eb = [], [], [], []
    for a, b in ineqs:
        a = vec(a)
        if len(a) != n:
            raise InputError(f"inequality row has {len(a)} coefficients, expected {n}")
        ia.append(a)
        ib.append(frac(b))
    for a, b in eqs:
        a = vec(a)
        if len(a) != n:
            raise InputError(f"equality row has {len(a)} coefficients, expected {n}")
        ea.append(a)
        eb.append(frac(b))
    _check_literals(chain(obj, ib, eb, *ia, *ea))
    if signs is None:
        sg = (FREE,) * n
    else:
        sg = tuple(signs)
        if len(sg) != n or any(s not in (FREE, NONNEG, NONPOS) for s in sg):
            raise InputError("bad variable sign vector")
    return LinearProgram(obj, tuple(ia), tuple(ib), tuple(ea), tuple(eb), sg)


def combination_program(columns, target, signs, ineqs=()) -> LinearProgram:
    """The program over one weight w_k per column whose rows say
    sum_k w_k * columns[k] = target, one equality row per coordinate,
    and the inequality rows ineqs over the weights, default none, under
    a zero objective: solve_lp decides whether such weights exist, and a
    PreparedSystem of it takes any objective.
    signs restricts each weight (NONNEG for a cone generator, FREE for a
    lineality vector or an equality multiplier). A feasible point is the
    weights; linalg.combine reads the combination back. A column whose
    length is not the target's raises InputError."""
    if any(len(col) != len(target) for col in columns):
        raise InputError(f"a column does not have the {len(target)} entries of the target")
    eqs = [([col[j] for col in columns], t) for j, t in enumerate(target)]
    return make_program([0] * len(columns), ineqs=ineqs, eqs=eqs, signs=signs)


def _check_literals(xs) -> None:
    """CapacityError when a Fraction in xs has more than
    MAX_LITERAL_DIGITS digits in its numerator or denominator."""
    for x in xs:
        if abs(x.numerator) >= _LITERAL_BOUND or x.denominator >= _LITERAL_BOUND:
            raise CapacityError(f"a literal has more than {MAX_LITERAL_DIGITS} digits")


@dataclass(frozen=True)
class LpOptimal:
    point: Vec
    value: Fraction
    dual_ineq: Vec
    dual_eq: Vec

    status = "optimal"


@dataclass(frozen=True)
class LpInfeasible:
    farkas_ineq: Vec
    farkas_eq: Vec

    status = "infeasible"


@dataclass(frozen=True)
class LpUnbounded:
    ray: Vec
    point: Vec

    status = "unbounded"


LpOutcome = Union[LpOptimal, LpInfeasible, LpUnbounded]


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InternalError("integer pivot lost exactness")
    return q


class _Tableau:
    """Integer simplex tableau over the constraint rows of a program, all
    rows sharing one positive denominator. The objective row being
    optimized is handed to each pivot, so one tableau serves both
    phases.

    Columns are numbered as in the textbook layout, and Bland's rule,
    ratio-test ties and basis ids all use these numbers: the tcols (a
    +/- pair for each free variable, one column for a sign-restricted
    one), then one slack per inequality row, then one artificial per
    row, then the rhs. Only n + m + 1 columns are stored: one per
    variable (negated for NONPOS), one slack per inequality row, one
    artificial per equality row, and the rhs. cols maps each numbered
    column to (stored column, sign). Two identities cover the columns
    that are not stored, because every pivot combines whole rows:

    * the minus twin of a free variable is its negated plus column, in
      every row including the cost rows;
    * the artificial of inequality row r is s_r times slack r, where
      s_r = +/-1 is the sign that slack started with. A row with
      s_r = +1 (b >= 0) starts on its slack, basis id nt + r, which is
      then also its artificial; the others start on their artificials,
      and only those are charged in phase one (phase_one_row).
      row_multipliers reads an inequality row off its slack alone, so
      no cost row needs an entry for the artificial.

    Artificials never enter, so every pivot column is stored up to sign.
    """

    def __init__(self, lp: LinearProgram, rows: IntegerRows):
        """The starting tableau of lp, read off rows, the integer form of
        lp's rows: each row is s*a, s*b, negated where b < 0 so the rhs
        is nonnegative."""
        self.lp = lp
        n = lp.dim
        self.m1 = len(lp.ineq_lhs)
        self.m2 = len(lp.eq_lhs)
        self.m = self.m1 + self.m2
        self.tcols: list[tuple[int, int]] = []
        self.cols: list[tuple[int, int]] = []
        for j, s in enumerate(lp.var_signs):
            if s >= 0:
                self.tcols.append((j, 1))
                self.cols.append((j, 1))
            if s <= 0:
                self.tcols.append((j, -1))
                self.cols.append((j, -1 if s == FREE else 1))
        self.nt = len(self.tcols)
        self.ns = self.m1
        nonpos = [j for j, s in enumerate(lp.var_signs) if s == NONPOS]
        self.rowscale: list[int] = []  # std row = rowscale * original row
        self.slack_sign: list[int] = []
        self.rows: list[list[int]] = []
        for r, (a, b, k) in enumerate(chain(rows.ineq, rows.eq)):
            sign = -1 if b < 0 else 1
            row = ([-x for x in a] if sign < 0 else list(a)) + [0] * (self.m + 1)
            for j in nonpos:
                row[j] = -row[j]
            row[n + r] = sign if r < self.m1 else 1
            row[-1] = sign * b
            self.rows.append(row)
            self.rowscale.append(sign * (rows.scale // k))
            if r < self.m1:
                self.slack_sign.append(sign)
        self.cols += [(n + r, 1) for r in range(self.m1)]  # slacks
        # artificials: inequality rows read their slack, equality rows are stored
        self.cols += [(n + r, s) for r, s in enumerate(self.slack_sign)]
        self.cols += [(n + r, 1) for r in range(self.m1, self.m)]
        # a row whose slack starts at +1 starts on it; the rest start on
        # their artificials, the only ones phase one charges
        self.basis = [self.nt + r if r < self.m1 and self.slack_sign[r] > 0
                      else self.nt + self.ns + r for r in range(self.m)]
        self.active = [True] * self.m
        self.den = 1

    def copy(self) -> "_Tableau":
        """A twin whose rows, basis and active rows can change
        independently; nothing after phase one changes the rest."""
        twin = copy.copy(self)
        twin.rows = [row[:] for row in self.rows]
        twin.basis = self.basis[:]
        twin.active = self.active[:]
        return twin

    def entry(self, i: int, col: int) -> int:
        """Row i at numbered column col."""
        k, sg = self.cols[col]
        return sg * self.rows[i][k]

    def phase_one_row(self) -> list[int]:
        """Cost row of the sum of the artificials in the starting basis:
        each row on an artificial is subtracted, and the rows that start
        on their slack cost nothing."""
        obj = [0] * (self.lp.dim + self.m + 1)
        art = self.nt + self.ns
        for row, b in zip(self.rows, self.basis):
            if b >= art:
                obj = [o - x for o, x in zip(obj, row)]
        for r in range(self.m1, self.m):
            obj[self.lp.dim + r] += 1
        return obj

    def objective_row(self, objective: Vec) -> tuple[int, list[int]]:
        """(scale, row): the cost row of the integer objective
        scale * objective in the current basis, den*c - sum_i c_B(i)*rows[i].

        A cost row pivoted along from the start is zero on every basic
        column and differs from den*c by a combination of the rows, which
        pins it down; this is that row, computed exactly."""
        scale = lcm(*(x.denominator for x in objective))
        c = [0] * (len(objective) + self.m + 1)
        for j, (x, s) in enumerate(zip(objective, self.lp.var_signs)):
            c[j] = (-1 if s == NONPOS else 1) * x.numerator * (scale // x.denominator)
        obj = [self.den * x for x in c]
        for row, b in zip(self.rows, self.basis):
            if b < self.nt:
                k, sg = self.cols[b]
                cb = sg * c[k]
                if cb:
                    obj = [o - cb * x for o, x in zip(obj, row)]
        return scale, obj

    def _pivot(self, pr: int, pc: int, obj: list[int] | None) -> None:
        """Fraction-free pivot on (pr, pc); the new denominator is the
        absolute pivot, with the sign folded into the update. Only
        entries that can change are divided: where the pivot row is zero
        an entry is just rescaled by |piv|/den, a no-op when that is 1."""
        k, sg = self.cols[pc]
        prow = self.rows[pr]
        piv = sg * prow[k]
        den = self.den
        flip = -sg if piv < 0 else sg  # pivot-column sign times the sign of piv
        apiv = abs(piv)
        nz = [(j, p) for j, p in enumerate(prow) if p]
        for row in (self.rows if obj is None else self.rows + [obj]):
            if row is prow:
                continue
            f = flip * row[k]
            if f:
                if apiv == den:
                    for j, p in nz:
                        row[j] -= _exact_div(f * p, den)
                else:
                    row[:] = [_exact_div(x * apiv - f * p, den) if x or p else 0
                              for x, p in zip(row, prow)]
            elif apiv != den:
                row[:] = [_exact_div(x * apiv, den) if x else 0 for x in row]
        if piv < 0:
            prow[:] = [-x for x in prow]
        self.den = apiv
        self.basis[pr] = pc

    def _ratio_row(self, pc: int) -> int | None:
        k, sg = self.cols[pc]
        best = None
        for i in range(self.m):
            if not self.active[i]:
                continue
            a = sg * self.rows[i][k]
            if a <= 0:
                continue
            b = self.rows[i][-1]
            if best is None:
                best = (b, a, self.basis[i], i)
                continue
            bb, ba, bvar, _ = best
            lhs = b * ba
            rhs = bb * a
            if lhs < rhs or (lhs == rhs and self.basis[i] < bvar):
                best = (b, a, self.basis[i], i)
        return best[3] if best is not None else None

    def _run(self, obj: list[int]) -> int | None:
        """Bland's rule over the variable and slack columns until optimal
        (returns None) or unbounded (returns the entering column)."""
        enter = self.cols[:self.nt + self.ns]
        while True:
            pc = next((j for j, (k, sg) in enumerate(enter) if sg * obj[k] < 0), None)
            if pc is None:
                return None
            pr = self._ratio_row(pc)
            if pr is None:
                return pc
            self._pivot(pr, pc, obj)

    def _drive_out_artificials(self) -> None:
        enter = self.cols[:self.nt + self.ns]
        for i in range(self.m):
            if not self.active[i]:
                continue
            if self.basis[i] < self.nt + self.ns:
                continue
            row = self.rows[i]
            pc = next((j for j, (k, _) in enumerate(enter) if row[k] != 0), None)
            if pc is None:
                self.active[i] = False
            else:
                self._pivot(i, pc, None)

    def point(self) -> Vec:
        den = self.den
        x = [0] * self.lp.dim
        for i in range(self.m):
            b = self.basis[i]
            if self.active[i] and b < self.nt:
                j, sg = self.tcols[b]
                x[j] += sg * self.rows[i][-1]
        return tuple(Fraction(v, den) if v else ZERO for v in x)

    def row_multipliers(self, obj: list[int], art_cost: int, unscale: int) -> list[Fraction]:
        """Multipliers on the original rows proving the current reduced
        costs of the objective row obj, each divided by unscale;
        art_cost is what obj charges an equality row's artificial (1 in
        phase one, 0 in phase two).

        Each row's multiplier is read off a column that started in that
        row alone, so the column records the row operations applied so
        far: an inequality row's slack, s_r in row r, which costs
        nothing in either phase and gives -s_r*obj[slack r]/den whatever
        the row started on; an equality row's artificial, the unit
        column, which gives art_cost - obj[art r]/den. Rows dropped as
        redundant still participate and their multipliers stay sign-safe
        because their slack columns kept nonnegative reduced costs. Each
        multiplier is an int over den*unscale, made a Fraction once.
        """
        n, den = self.lp.dim, self.den
        out = []
        for r in range(self.m):
            if r < self.m1:
                y = -self.slack_sign[r] * obj[n + r]
            else:
                y = art_cost * den - obj[n + r]
            out.append(Fraction(y * self.rowscale[r], den * unscale) if y else ZERO)
        return out


def _phase_one(lp: LinearProgram, rows: IntegerRows) -> _Tableau | LpInfeasible:
    """A tableau holding a feasible basis of lp's constraints with the
    artificials driven out, or the Farkas outcome, verified. rows is
    the integer form of lp's rows, which the tableau starts from and the
    check reads. Bland's rule here never reads lp.objective."""
    tab = _Tableau(lp, rows)
    obj = tab.phase_one_row()
    if tab._run(obj) is not None:
        raise InternalError("phase one cannot be unbounded")
    if obj[-1] != 0:
        # positive infeasibility gap; multipliers give a Farkas witness
        w = tab.row_multipliers(obj, 1, 1)
        outcome = LpInfeasible(
            farkas_ineq=tuple(-w[r] for r in range(tab.m1)),
            farkas_eq=tuple(-w[tab.m1 + k] for k in range(tab.m2)),
        )
        _check(lp, outcome, rows)
        return outcome
    tab._drive_out_artificials()
    return tab


def _phase_two(tab: _Tableau, lp: LinearProgram, rows: IntegerRows) -> LpOutcome:
    """Optimize lp.objective from the phase-one basis in tab, which this
    pivots; the certificate is verified against lp, with rows the
    integer form of its rows, before return."""
    scale, obj = tab.objective_row(lp.objective)
    unbounded_col = tab._run(obj)
    den = tab.den
    if unbounded_col is not None:
        # the ray over den: the entering column at den, the basic ones
        # moving against their entries in its column
        ray_t = {unbounded_col: den}
        for i in range(tab.m):
            if tab.active[i]:
                ray_t[tab.basis[i]] = -tab.entry(i, unbounded_col)
        ray = [0] * lp.dim
        for k, (j, sg) in enumerate(tab.tcols):
            v = ray_t.get(k)
            if v:
                ray[j] += sg * v
        outcome = LpUnbounded(ray=tuple(Fraction(v, den) if v else ZERO for v in ray),
                              point=tab.point())
        _check(lp, outcome, rows)
        return outcome
    w = tab.row_multipliers(obj, 0, scale)
    outcome = LpOptimal(
        point=tab.point(),
        value=Fraction(-obj[-1], den * scale),
        dual_ineq=tuple(-w[r] for r in range(tab.m1)),
        dual_eq=tuple(w[tab.m1 + k] for k in range(tab.m2)),
    )
    _check(lp, outcome, rows)
    return outcome


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; the returned certificate is verified before return.

    Deterministic: the same program yields the identical outcome object.
    """
    rows = integer_rows(lp)
    tab = _phase_one(lp, rows)
    if isinstance(tab, LpInfeasible):
        return tab
    return _phase_two(tab, lp, rows)


class PreparedSystem:
    """The constraints of a program after phase one, to be optimized
    along any number of objectives.

    solve(c) returns exactly what solve_lp returns for the same program
    with objective c: phase one does not read the objective, and phase
    two runs on a copy of the phase-one tableau, which is never changed
    after construction. An infeasible system returns its Farkas outcome,
    verified once, for every objective; that certificate does not
    involve the objective either. A feasible system checks its
    phase-one point against the rows once, so infeasible is None only
    with a verified witness; that checked point is kept as point (None
    when the rows have no solution). The integer form of the rows
    (integer_rows), which the tableau starts from and every check reads,
    is built once, here, or handed in by the caller that already holds it.
    """

    def __init__(self, lp: LinearProgram, rows: IntegerRows | None = None):
        """rows, when given, must be integer_rows(lp), built once by the
        caller (a ConvexSet shares its own; see ConvexSet.integer_rows)."""
        self.lp = lp
        self.rows = integer_rows(lp) if rows is None else rows
        self._start = _phase_one(lp, self.rows)
        self.point = None
        if not isinstance(self._start, LpInfeasible):
            self.point = self._start.point()
            if not _feasible(self.rows, lp.var_signs, self.point):
                raise InternalError("phase-one point fails the rows")

    @property
    def infeasible(self) -> LpInfeasible | None:
        """The verified Farkas outcome when the rows have no solution."""
        return self._start if isinstance(self._start, LpInfeasible) else None

    def solve(self, objective) -> LpOutcome:
        c = vec(objective)
        if len(c) != self.lp.dim:
            raise InputError(f"objective has {len(c)} coefficients, expected {self.lp.dim}")
        _check_literals(c)
        if isinstance(self._start, LpInfeasible):
            return self._start
        return _phase_two(self._start.copy(), replace(self.lp, objective=c), self.rows)


def _check(lp: LinearProgram, outcome: LpOutcome, rows: IntegerRows) -> None:
    if not verify_certificate(lp, outcome, rows):
        raise InternalError(f"certificate failed self-check: {outcome!r}")


@dataclass(frozen=True)
class IntegerRows:
    """The rows of a program over the integers, as the certificate check
    reads them.

    A row a.x <= b (or = b) is kept as (A, B, k): A = s*a and B = s*b
    are ints, where s is the lcm of the row's denominators, and
    k = S/s, where S (scale) is the lcm of every row's s. With
    multipliers y = Y/D over one denominator D, sum_i y_i a_i is then
    sum_i (Y_i k_i) A_i / (D S), an int sum with no division per row.
    """

    ineq: tuple[tuple[tuple[int, ...], int, int], ...]
    eq: tuple[tuple[tuple[int, ...], int, int], ...]
    scale: int

def _integer_row(a: Vec, b: Fraction) -> tuple[tuple[int, ...], int, int]:
    xs, s = over_one_denominator((*a, b))
    return tuple(xs[:-1]), xs[-1], s


def integer_rows(lp: LinearProgram) -> IntegerRows:
    """The integer form of lp's rows (see IntegerRows)."""
    return integer_form(zip(lp.ineq_lhs, lp.ineq_rhs), zip(lp.eq_lhs, lp.eq_rhs))


def integer_form(ineqs, eqs) -> IntegerRows:
    """The integer form (see IntegerRows) of rows given as (a, b) pairs
    of Fractions, a.x <= b for ineqs and a.x = b for eqs. No cap is
    applied: the rows of a set are cleared here for its point tests as
    well as for its LPs, which make_program caps."""
    ineq = [_integer_row(a, b) for a, b in ineqs]
    eq = [_integer_row(a, b) for a, b in eqs]
    scale = lcm(*[s for _, _, s in ineq + eq])
    return IntegerRows(tuple((a, b, scale // s) for a, b, s in ineq),
                       tuple((a, b, scale // s) for a, b, s in eq), scale)


def _in_orthant(signs, v) -> bool:
    """v meets the sign restriction of each variable."""
    return all(s * x >= 0 for s, x in zip(signs, v))


def _dual_signs_ok(signs, g) -> bool:
    """g is zero on free variables, >= 0 on nonnegative ones and <= 0
    on nonpositive ones."""
    return all(s * x >= 0 if s else x == 0 for s, x in zip(signs, g))


def _satisfies(rows: IntegerRows, signs, x: list[int], d: int) -> bool:
    """x/d satisfies the rows and the sign restrictions; x has one entry
    per variable."""
    for a, b, _ in rows.ineq:
        if sum(map(mul, a, x)) > b * d:
            return False
    for a, b, _ in rows.eq:
        if sum(map(mul, a, x)) != b * d:
            return False
    return _in_orthant(signs, x)


def _slacks(rows: IntegerRows, x: list[int], d: int):
    """B*d - A.x for each inequality row, lazily, in row order: x/d
    meets the row strictly where this is positive and is tight on it
    where it is zero. The sibling of _satisfies for strict and tight
    rows; equality rows are the caller's to read."""
    return (b * d - sum(map(mul, a, x)) for a, b, _ in rows.ineq)


def _feasible(rows: IntegerRows, signs, x: Vec) -> bool:
    return _satisfies(rows, signs, *over_one_denominator(x))


def _combine(rows: IntegerRows, y: list[int], z: list[int], n: int) -> tuple[list[int], int]:
    """(sum_i y_i k_i A_i + sum_k z_k k_k E_k, the same combination of
    the right-hand sides), skipping zero multipliers."""
    out = [0] * n
    rhs = 0
    for (a, b, k), w in zip(chain(rows.ineq, rows.eq), chain(y, z)):
        if w:
            f = w * k
            rhs += f * b
            out = [o + f * x for o, x in zip(out, a)]
    return out, rhs


def verify_certificate(lp: LinearProgram, outcome: LpOutcome,
                       rows: IntegerRows | None = None) -> bool:
    """Re-check the certificate algebra exactly. Malformed certificates
    return False rather than raising; entries are ints or Fractions.

    The check runs in integers: rows is integer_rows(lp), built here
    when not given, and each certificate vector is brought over one
    common denominator, so every test is an int dot product compared
    with a scaled bound, and values are compared by cross-multiplying.
    """
    try:
        n, m1, m2 = lp.dim, len(lp.ineq_lhs), len(lp.eq_lhs)
        if rows is None:
            rows = integer_rows(lp)
        if isinstance(outcome, LpOptimal):
            x, y, z = outcome.point, outcome.dual_ineq, outcome.dual_eq
            if len(x) != n or len(y) != m1 or len(z) != m2:
                return False
            xs, dx = over_one_denominator(x)
            if not _satisfies(rows, lp.var_signs, xs, dx):
                return False
            w, d = over_one_denominator(tuple(y) + tuple(z))
            if any(v < 0 for v in w[:m1]):
                return False
            # g = c + A^T y - E^T z = cs/dc + gs/ds
            gs, rhs = _combine(rows, w[:m1], [-v for v in w[m1:]], n)
            cs, dc = over_one_denominator(lp.objective)
            ds = d * rows.scale
            if not _dual_signs_ok(lp.var_signs, [c * ds + g * dc for c, g in zip(cs, gs)]):
                return False
            # c.x and f.z - b.y = -rhs/ds must both equal the value p/q
            p, q = outcome.value.numerator, outcome.value.denominator
            return sum(map(mul, cs, xs)) * q == p * dc * dx and -rhs * q == p * ds
        if isinstance(outcome, LpInfeasible):
            y, z = outcome.farkas_ineq, outcome.farkas_eq
            if len(y) != m1 or len(z) != m2:
                return False
            w, _ = over_one_denominator(tuple(y) + tuple(z))
            if any(v < 0 for v in w[:m1]):
                return False
            h, rhs = _combine(rows, w[:m1], w[m1:], n)
            return _dual_signs_ok(lp.var_signs, h) and rhs < 0
        if isinstance(outcome, LpUnbounded):
            r, x = outcome.ray, outcome.point
            if len(r) != n or len(x) != n:
                return False
            if not _feasible(rows, lp.var_signs, x):
                return False
            rs, _ = over_one_denominator(r)
            if any(sum(map(mul, a, rs)) > 0 for a, _, _ in rows.ineq):
                return False
            if any(sum(map(mul, a, rs)) for a, _, _ in rows.eq):
                return False
            cs, _ = over_one_denominator(lp.objective)
            return _in_orthant(lp.var_signs, rs) and sum(map(mul, cs, rs)) < 0
        return False
    except (TypeError, AttributeError, IndexError):
        return False
