"""Exact number tower and exact linear algebra.

Values are either ``fractions.Fraction`` or :class:`Quad`, an element
a + b*sqrt(d) of a real quadratic field.  All comparisons and all branch
decisions are made in exact rational arithmetic; floats never enter any
decision path (they only appear as display approximations).

The one root routine, :func:`positive_quadratic_root`, decides on integers
and builds one value.  Matrices and vectors are tuples of Fractions.  The
surfaces handled by this package have Picard rank at most nine: one
fraction-free Gauss-Jordan row reduction on integer-scaled rows serves
solving (also as integers over one denominator), rank, inverses and, by
Sylvester's criterion on its pivots, negative definiteness.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    DimensionMismatch,
    MixedRadicands,
    NoRealRoot,
    NotSymmetric,
    OutOfRange,
    SingularMatrix,
)

Rational = Union[int, Fraction]
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


# _square_free tries no trial divisor from here on
_TRIAL_LIMIT = 10**7


def _square_free(n: int) -> tuple[int, int]:
    """Write n = s^2 * m with m squarefree; return (s, m).

    Trial division by p runs only while p^3 <= n, n divided by the factors
    found so far.  What is left then has no prime factor below p, so it is
    1, q, q^2 or q*r for primes q != r, and one isqrt test tells the
    square q^2 apart.  So it takes at most about cbrt(n)/2 steps, and
    12*(10^9 + 7)^2 takes 0.09 s on a 2-core x86 box.  Trial divisors from
    10^7 on would take about 1 s for a 70-bit n there, so it raises
    OutOfRange instead: n then has at least three prime factors from 10^7
    on.  The chamber walk calls this at most once, for an irrational root
    in its last chamber: :func:`quad` answers a perfect square without it.
    """
    s = m = 1
    for p in itertools.chain((2,), range(3, _TRIAL_LIMIT, 2)):
        if p * p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            m *= p ** (e % 2)
    else:
        raise OutOfRange(
            f"the square-free part of a {n.bit_length()}-bit integer "
            f"with no prime factor below {_TRIAL_LIMIT}")
    r = math.isqrt(n)
    if r * r == n:
        return s * r, m
    return s, m * n


class Quad:
    """Exact element a + b*sqrt(d) with a, b rational and d a squarefree
    integer >= 2.  Instances are normalized (b != 0) and immutable; use
    :func:`quad` to construct values, which collapses degenerate cases to
    plain Fractions.

    The sign of a + b*sqrt(d) is sign(a) when a^2 > b^2*d, else sign(b):
    a^2 = b^2*d cannot hold, since d is not a square.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("Quad is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not attribute setting
        return Quad, (self.a, self.b, self.d)

    # -- arithmetic -------------------------------------------------

    def _coerce(self, other) -> tuple[Fraction, Fraction]:
        """(a, b) of ``other`` in this value's field; only a Quad of the
        same field, an int or a Fraction is an operand."""
        if isinstance(other, Quad):
            if other.d != self.d:
                raise MixedRadicands(f"sqrt({self.d}) vs sqrt({other.d})")
            return other.a, other.b
        return _frac(other), Fraction(0)

    def __add__(self, other):
        oa, ob = self._coerce(other)
        return quad(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        oa, ob = self._coerce(other)
        return quad(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        oa, ob = self._coerce(other)
        return quad(oa - self.a, ob - self.b, self.d)

    def __mul__(self, other):
        oa, ob = self._coerce(other)
        return quad(self.a * oa + self.b * ob * self.d,
                    self.a * ob + self.b * oa, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        oa, ob = self._coerce(other)
        norm = oa * oa - ob * ob * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * Quad(oa / norm, -ob / norm, self.d)

    def __rtruediv__(self, other):
        norm = self.a * self.a - self.b * self.b * self.d
        return Quad(self.a / norm, -self.b / norm, self.d) * other

    # -- ordering ---------------------------------------------------

    def _cmp(self, other) -> int:
        x = self - other
        if isinstance(x, Quad):
            x = x.a if x.a * x.a > x.b * x.b * x.d else x.b
        return (x > 0) - (x < 0)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, Quad):
            return self.d == other.d and self.a == other.a and self.b == other.b
        # a normalized Quad is irrational, never equal to a rational
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


ExactScalar = Union[Fraction, Quad]


def quad(a, b, d) -> ExactScalar:
    """Normalize a + b*sqrt(d); returns a Fraction when the value is rational.

    ``d`` may be any non-negative rational: the radicand is rewritten with a
    squarefree integer under the root so that values of the same field always
    share the same ``d`` (sqrt(8) and 2*sqrt(2) unify).
    """
    a, b, d = _frac(a), _frac(b), _frac(d)
    if d < 0:
        raise NoRealRoot(f"negative radicand {d}")
    if b == 0 or d == 0:
        return a
    # sqrt(p/q) = sqrt(p*q)/q; a perfect square needs no factoring
    n = d.numerator * d.denominator
    s = math.isqrt(n)
    if s * s == n:
        return a + b * Fraction(s, d.denominator)
    s, m = _square_free(n)
    return Quad(a, b * Fraction(s, d.denominator), m)


def rational_sqrt(x) -> ExactScalar:
    """Exact non-negative square root of a non-negative rational."""
    return quad(0, 1, x)


def positive_quadratic_root(c2, c1, c0, lower=0) -> ExactScalar:
    """Smallest root of c2*t^2 + c1*t + c0 = 0 that is >= ``lower``.

    Decided on integers, placing each root against ``lower`` by comparing
    squares.  Returns a Fraction when the discriminant is a perfect
    square, else the Quad of :func:`quad`; linear when c2 = 0.
    """
    if not all(isinstance(x, (int, Fraction)) for x in (c2, c1, c0, lower)):
        raise TypeError("expected exact rationals")
    # lower = a/b with b > 0, and the coefficients over the same b
    (c2, c1, c0, a), b = scaled((c2, c1, c0, lower))
    if c2 < 0 or c2 == 0 and c1 < 0:
        c2, c1, c0 = -c2, -c1, -c0
    if c2 == 0:
        if c1 == 0:
            raise NoRealRoot("constant polynomial has no root")
        if -c0 * b >= a * c1:
            return Fraction(-c0, c1)
        raise NoRealRoot(f"linear root {Fraction(-c0, c1)} below {lower}")
    g = math.gcd(c2, c1, c0)
    c2, c1, c0 = c2 // g, c1 // g, c0 // g
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        raise NoRealRoot("negative discriminant")
    # (-c1 + sign*sqrt(disc))/(2*c2) >= a/b iff sign*b*sqrt(disc) >= w;
    # past the first test, w <= 0 gives disc*b*b > w*w
    w = 2 * c2 * a + c1 * b
    if w <= 0 and disc * b * b <= w * w:
        sign = -1
    elif disc * b * b >= w * w:
        sign = 1
    else:
        raise NoRealRoot(f"no root >= {lower}")
    r = math.isqrt(disc)
    if r * r == disc:
        return Fraction(-c1 + sign * r, 2 * c2)
    return quad(Fraction(-c1, 2 * c2), Fraction(sign, 2 * c2), disc)


# ----------------------------------------------------------------------
# vectors and matrices over the rationals
# ----------------------------------------------------------------------

def vector(xs: Sequence) -> Vector:
    return tuple(_frac(x) for x in xs)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Vector) -> Vector:
    c = _frac(c)
    return tuple(c * x for x in v)


def scaled(v: Sequence[Rational]) -> tuple[list[int], int]:
    """Integers num and den > 0 with v = num / den."""
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _row_reduce(a: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the integer
    rows ``a`` in place, on the first nonzero entry of each of their first
    ``ncols`` columns.  Returns the pivots (with no row swap, the leading
    principal minors) and the number of swaps."""
    m = len(a)
    pivots: list[int] = []
    swaps = 0
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            swaps += 1
        row, p, prev = a[r], a[r][col], pivots[-1] if pivots else 1
        for i in range(m):
            if i != r:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        pivots.append(p)
    return pivots, swaps


def _square_rows(g: Sequence[Sequence], what: str, *columns: Sequence
                 ) -> list[list[int]]:
    """The rows of the square matrix g, each followed by its entries of
    ``columns`` and scaled to integers."""
    if any(len(row) != len(g) for row in g):
        raise DimensionMismatch(f"{what} needs a square matrix")
    if any(len(c) != len(g) for c in columns):
        raise DimensionMismatch(f"{what} needs a square system")
    return [scaled([*row, *(c[i] for c in columns)])[0]
            for i, row in enumerate(g)]


def rank(rows: Sequence[Sequence]) -> int:
    a = [scaled(row)[0] for row in rows]
    return len(_row_reduce(a, len(a[0]))[0]) if a else 0


def inverse(g: Sequence[Sequence]) -> Matrix:
    n = len(g)
    a = _square_rows(g, "inverse",
                     *([int(i == j) for i in range(n)] for j in range(n)))
    if len(_row_reduce(a, n)[0]) < n:
        raise SingularMatrix("zero pivot column")
    return tuple(tuple(Fraction(x, row[i]) for x in row[n:])
                 for i, row in enumerate(a))


def solve_negative_definite(g: Sequence[Sequence], *rhs: Sequence
                            ) -> Optional[tuple[Vector, ...]]:
    """The solutions of g * x = b for each b in ``rhs`` if the symmetric g
    is negative definite, else None: the Fractions of
    :func:`_negative_definite_solution`."""
    a = _square_rows(g, "solve_negative_definite", *rhs)
    if tuple(map(tuple, g)) != tuple(zip(*g)):
        raise NotSymmetric("the form is not symmetric")
    sol = _negative_definite_solution(a)
    return None if sol is None else tuple(
        tuple(Fraction(x, sol[1]) for x in col) for col in zip(*sol[0]))


def _negative_definite_solution(a: list[list[int]]
                                ) -> Optional[tuple[list[list[int]], int]]:
    """Integers x[i][k] and den > 0 with g * x[.][k] = den * b_k for the
    rows of [g | b_1 ... b_m], if the symmetric g is negative definite,
    else None: by Sylvester's criterion, iff the pivots alternate -, +, -,
    ... with no row swap.  Each diagonal entry then ends as det g."""
    n = len(a)
    pivots, swaps = _row_reduce(a, n)
    if swaps or len(pivots) < n or any(
            (p < 0) != (k % 2 == 0) for k, p in enumerate(pivots)):
        return None
    sign = -1 if n % 2 else 1  # the sign of det g
    return ([[sign * x for x in row[n:]] for row in a],
            sign * pivots[-1] if n else 1)


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to primitive integers, preserving
    direction."""
    ints = scaled(vector(v))[0]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)
