"""Small exact linear algebra kit over rationals.

Vectors are tuples of Fraction. Everything here is pure and allocation
light; the heavier numeric work lives in the simplex tableau, which uses
integers directly.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# the one string form of a rational: ASCII digits, an optional sign and
# an optional denominator
_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def frac(x) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to Fraction.

    A string must read [+-]digits or [+-]digits/digits in ASCII digits.
    Anything else, a decimal or exponent form such as '1e3000000' (which
    Fraction would expand to a ten-million-bit integer), an underscore or
    a non-ASCII digit, raises InputError before any conversion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL_LITERAL.fullmatch(x):
            raise InputError(f"bad rational literal {x!r}: write p/q in ASCII digits")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational literal {x!r}") from e
    raise InputError(f"not a rational: {x!r}")


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int, sign: int = 1) -> Vec:
    return tuple(Fraction(sign) if j == i else ZERO for j in range(n))


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise InputError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def lead_normalized(u: Vec) -> Vec:
    """u scaled so its first nonzero entry is 1 or -1; u must be nonzero."""
    lead = next(x for x in u if x != 0)
    return tuple(x / abs(lead) for x in u)


def l1_norm(u: Vec) -> Fraction:
    return sum((abs(a) for a in u), ZERO)


def linf_norm(u: Vec) -> Fraction:
    return max((abs(a) for a in u), default=ZERO)


def combine(weights, vectors, n: int) -> Vec:
    """sum_k weights[k] * vectors[k], a vector of n entries: a
    combination read back from the weights an LP found. Zero weights
    are skipped."""
    out = [ZERO] * n
    for w, v in zip(weights, vectors):
        if w:
            for j, x in enumerate(v):
                out[j] += w * x
    return tuple(out)


def integerize(u: Vec) -> tuple[int, ...]:
    """Clear denominators; the common positive factor is dropped."""
    scale = lcm(*(x.denominator for x in u))
    ints = [x.numerator * (scale // x.denominator) for x in u]
    g = 0
    for n in ints:
        g = gcd(g, n)
    if g > 1:
        ints = [n // g for n in ints]
    return tuple(ints)


def over_one_denominator(v) -> tuple[list[int], int]:
    """(V, d) with v = V/d, where d > 0 is the lcm of v's denominators."""
    dens = [x.denominator for x in v]
    d = lcm(*dens)
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // e) for x, e in zip(v, dens)], d


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form. Returns the nonzero rows and their pivot
    column indices; input rows are not modified."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def rank(rows: list[Vec]) -> int:
    if not rows:
        return 0
    reduced, _ = rref([list(r) for r in rows])
    return len(reduced)


def integer_rank(rows: list[tuple[int, ...]]) -> int:
    """Rank of integer rows by fraction-free (Bareiss) elimination: each
    update divides exactly by the previous pivot, so entries stay ints
    (minors of the input) and no Fraction is made."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    r, prev = 0, 1
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        piv = prow[c]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            f = row[c]
            mat[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
        r += 1
        if r == len(mat):
            break
    return r


def reduce_mod_subspace(v: Vec, rref_rows: list[list[Fraction]],
                        pivots: list[int]) -> Vec:
    """Subtract the unique combination of RREF basis rows that zeroes the
    pivot coordinates of v."""
    out = list(v)
    for ri, pc in enumerate(pivots):
        f = out[pc]
        if f != 0:
            row = rref_rows[ri]
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)
