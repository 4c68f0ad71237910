"""Newton-Okounkov polygons of big classes on a surface model.

The polygon of D with respect to an admissible flag (C, x) is the region
{nu <= t <= mu, alpha(t) <= y <= beta(t)} where, writing D - tC = P_t + N_t
for the Zariski decomposition, alpha(t) is the local multiplicity of N_t
along C at x and beta(t) = alpha(t) + (P_t . C).

Between walls the support of N_t is constant and its coefficients are
affine in t.  Walls occur where P_t stops pairing positively with a new
curve; each is crossed by the decomposition fixpoint run on D - sC just
past it (:func:`surfpos.zariski.chamber`).  The walk ends where (P_t)^2
vanishes, the only breakpoint that may be a quadratic irrational.  Each
piece keeps its chamber's integers, N_t and P_t . C over one denominator:
walls are compared by cross-multiplying, the root is taken only in the
last chamber, and Fractions are built for the walls, for mu and in a
point's polygon.  The walk depends on D and C only and x enters only
through alpha, so one walk serves every point of C.  The polygon is
convex, so a simplex lies inside it exactly when its vertices do: lambda
and the largest inverted simplex are read off the boundary at those
vertices.  The xi of an infinitesimal polygon needs no walk: it is the
end of the walk's first chamber along E (:mod:`surfpos.infinitesimal`).
A :class:`NOPolygon` computes its vertex cycle when first read.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import scalars, zariski
from .errors import (
    FlagCurveReenters,
    ModelInconsistency,
    NotBig,
    NoRealRoot,
    OutOfRange,
)
from .lattice import DivisorClass, PointSpec, SurfaceModel, int_pairing
from .scalars import ExactScalar, positive_quadratic_root

Affine = tuple[Fraction, Fraction]  # value c0 + c1 * t

Point = tuple[ExactScalar, ExactScalar]

# (t_lo, t_hi, coeffs, blen, den): on [t_lo, t_hi], N_t is the sum of
# (c[0] + t*c[1])/den * n over coeffs[n] = c, in curve order, and
# P_t . C = (blen[0] + t*blen[1])/den, all on the chamber's integers
WalkPiece = tuple[Fraction, ExactScalar, dict[str, tuple[int, int]],
                  tuple[int, int], int]


def _ev(f: Affine, t) -> ExactScalar:
    return f[0] + f[1] * t


class PolygonPiece(NamedTuple):
    t_lo: Fraction
    t_hi: ExactScalar
    alpha: Affine
    beta: Affine
    support: tuple[str, ...]


class _PolygonFields(NamedTuple):
    """The fields; :class:`NOPolygon` adds the cached vertices."""

    nu: Fraction
    mu: ExactScalar
    pieces: tuple[PolygonPiece, ...]
    flag_curve: str


class NOPolygon(_PolygonFields):
    @functools.cached_property
    def vertices(self) -> tuple[Point, ...]:
        """The vertex cycle, computed on first read."""
        return _vertices(self.nu, self.mu, self.pieces)

    def piece_at(self, t) -> PolygonPiece:
        if t < self.nu or t > self.mu:
            raise OutOfRange(f"t={t} outside [{self.nu}, {self.mu}]")
        return next((p for p in self.pieces if t <= p.t_hi), self.pieces[-1])

    def alpha(self, t) -> ExactScalar:
        return _ev(self.piece_at(t).alpha, t)

    def beta(self, t) -> ExactScalar:
        return _ev(self.piece_at(t).beta, t)


class Classification(enum.Enum):
    CERTIFIED_INTERIOR = "certified-interior"
    CERTIFIED_HORIZONTAL = "certified-horizontal"
    CERTIFIED_VERTICAL = "certified-vertical"
    CERTIFIED_DIAGONAL = "certified-diagonal"
    BOUNDARY_UNKNOWN = "boundary-unknown"
    OUTSIDE = "outside"


# ----------------------------------------------------------------------
# chamber walk
# ----------------------------------------------------------------------

class Walk(NamedTuple):
    """The chamber walk of D along the flag curve C, for every point of C."""

    nu: Fraction
    mu: ExactScalar
    flag_curve: str
    pieces: tuple[WalkPiece, ...]

    def polygon(self, point: PointSpec) -> NOPolygon:
        """The polygon for the flag (C, point), its Fractions built here:
        alpha weighs N_t by the multiplicities of the curves through it."""
        through = [(n, m) for n in point.local_mults
                   if (m := point.mult(n)) > 0]
        pieces = []
        for t_lo, t_hi, coeffs, (b0, b1), den in self.pieces:
            a0 = sum(coeffs[n][0] * m for n, m in through if n in coeffs)
            a1 = sum(coeffs[n][1] * m for n, m in through if n in coeffs)
            pieces.append(PolygonPiece(
                t_lo, t_hi, (Fraction(a0, den), Fraction(a1, den)),
                (Fraction(a0 + b0, den), Fraction(a1 + b1, den)),
                tuple(coeffs)))
        return NOPolygon(nu=self.nu, mu=self.mu, pieces=tuple(pieces),
                         flag_curve=self.flag_curve)


def chamber_walk(model: SurfaceModel, d: Sequence, flag_curve: str) -> Walk:
    """Exact chamber walk of a big class along D - tC, from nu to mu."""
    d = model.divisor(d)
    # one LP and one fixpoint decide bigness and give nu
    start = zariski.big_decomposition(model, d)
    if start is None:
        raise NotBig("polygon needs a big class")
    return _walk_from(model, d, flag_curve, start.N_coeffs)


def _walk_from(model: SurfaceModel, d: DivisorClass, flag_curve: str,
               n_coeffs: dict[str, Fraction]) -> Walk:
    """The walk of a class known to be big, from the coefficients of the
    negative part of its decomposition (by name, in curve order)."""
    nu = n_coeffs.get(flag_curve, Fraction(0))
    support = tuple(n for n in n_coeffs if n != flag_curve)
    slope = tuple(-x for x in model.curve(flag_curve).cls)
    pieces: list[WalkPiece] = []
    t0 = nu
    for _ in range(len(model.curves) * (model.rank + 2) + 4):
        # the chamber just right of t0, grown from the support; the flag
        # curve must not enter, even with coefficient 0: beta reads P_t . C
        chamber = zariski.chamber(model, d, slope, t0, support)
        if flag_curve not in chamber.pairings:
            raise FlagCurveReenters(
                f"flag curve {flag_curve} enters the negative part past "
                f"t={t0}; model data is inconsistent with the flag")
        if not set(support) <= set(chamber.support):
            raise ModelInconsistency("negative-part support decreased")
        p0, p1 = chamber.p
        # (P_t)^2 as a quadratic in t, times den^2
        q = (int_pairing(model, p1, p1), 2 * int_pairing(model, p0, p1),
             int_pairing(model, p0, p0))
        if _sign_at(q, t0) <= 0:
            raise ModelInconsistency(
                f"volume not positive at t={t0} inside the walk")
        piece = (chamber.coeffs, chamber.pairings[flag_curve], chamber.den)
        wall = _next_wall(chamber, t0)
        if wall is not None and not _root_before(q, t0, wall):
            pieces.append((t0, wall, *piece))
            support, t0 = chamber.support, wall
            continue
        # the root for p0 = g*p0' is g times the one for p0', whose
        # discriminant is smaller by g^2: the root of kD factors no k^2
        g = math.gcd(*p0) or 1
        try:
            mu = g * positive_quadratic_root(q[0], q[1] // g, q[2] // (g * g),
                                             t0 / g)
        except NoRealRoot:
            raise ModelInconsistency(
                "chamber walk found neither a wall nor a volume root") from None
        pieces.append((t0, mu, *piece))
        return Walk(nu=nu, mu=mu, flag_curve=flag_curve, pieces=tuple(pieces))
    raise ModelInconsistency("chamber walk did not terminate")


def _sign_at(q: tuple[int, int, int], t: Fraction) -> int:
    """The sign of q(t) = q[0]*t^2 + q[1]*t + q[2], on integers."""
    a, b = t.numerator, t.denominator
    v = q[0] * a * a + q[1] * a * b + q[2] * b * b
    return (v > 0) - (v < 0)


def _root_before(q: tuple[int, int, int], t0: Fraction,
                 wall: Fraction) -> bool:
    """Whether q, positive at t0, has a root in [t0, wall], decided on
    rationals: q(wall) <= 0, or q is convex with its vertex -q[1]/(2q[0])
    in [t0, wall] and a discriminant >= 0."""
    if _sign_at(q, wall) <= 0:
        return True
    c2, c1, c0 = q
    return (c2 > 0 and 2 * c2 * t0.numerator <= -c1 * t0.denominator
            and -c1 * wall.denominator <= 2 * c2 * wall.numerator
            and c1 * c1 >= 4 * c2 * c0)


def _next_wall(chamber: zariski.Chamber, t0: Fraction) -> Optional[Fraction]:
    """The first wall past t0: where P_t . C drops to 0 for a curve outside
    the support.  A coefficient crossing 0 (inconsistent data) is a wall
    too, so that the fixpoint past it diagnoses it.  Each wall is the zero
    n0/(-n1) of some (n0 + t*n1)/den that falls and is positive at t0."""
    tn, td = t0.numerator, t0.denominator
    wall = None
    for n0, n1 in itertools.chain(chamber.pairings.values(),
                                  chamber.coeffs.values()):
        if n1 < 0 < n0 * td + tn * n1 and (
                wall is None or n0 * wall[1] < -n1 * wall[0]):
            wall = (n0, -n1)
    return None if wall is None else Fraction(*wall)


def okounkov_polygon(model: SurfaceModel, d: Sequence, flag_curve: str,
                     point: PointSpec) -> NOPolygon:
    """Exact Newton-Okounkov polygon of a big class for the flag (C, x)."""
    return chamber_walk(model, d, flag_curve).polygon(point)


def _vertices(nu, mu, pieces: Sequence[PolygonPiece]) -> tuple[Point, ...]:
    """The vertex cycle: the lower chain alpha left to right, then the
    upper chain beta right to left.  So the cycle runs counterclockwise
    from its least vertex (nu, alpha(nu)): no vertex has t < nu, and
    alpha(nu) <= beta(nu).  alpha is convex and beta concave, and
    each is affine on every piece, of positive length, so the boundary
    point at a piece's t_lo is a vertex exactly when the slope of that
    chain changes there."""
    def chain(fs: Sequence[Affine]) -> list[Point]:
        return [(p.t_lo, _ev(f, p.t_lo))
                for p, f, g in zip(pieces, fs, (None, *fs))
                if g is None or f[1] != g[1]] + [(mu, _ev(fs[-1], mu))]

    cycle = (chain([p.alpha for p in pieces])
             + chain([p.beta for p in pieces])[::-1])
    out = [pt for i, pt in enumerate(cycle) if i == 0 or cycle[i - 1] != pt]
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


# ----------------------------------------------------------------------
# derived quantities
# ----------------------------------------------------------------------

def mu_sup(model: SurfaceModel, d: Sequence, flag_curve: str) -> ExactScalar:
    """sup{t > 0 : D - tC big}, the right endpoint of the chamber walk."""
    return chamber_walk(model, d, flag_curve).mu


def polygon_area(poly: NOPolygon) -> ExactScalar:
    v = poly.vertices
    return sum((x1 * y2 - x2 * y1 for (x1, y1), (x2, y2)
                in zip(v, v[1:] + v[:1])), 0) / 2


def vertical_slice(poly: NOPolygon, t) -> tuple[ExactScalar, ExactScalar]:
    return poly.alpha(t), poly.beta(t)


def polygon_contains(poly: NOPolygon, pt: Point) -> bool:
    t, y = pt
    return poly.nu <= t <= poly.mu and poly.alpha(t) <= y <= poly.beta(t)


def polygon_interior_contains(poly: NOPolygon, pt: Point) -> bool:
    t, y = pt
    return poly.nu < t < poly.mu and poly.alpha(t) < y < poly.beta(t)


def _alpha_zero_prefix(mu: ExactScalar, pieces: Sequence[PolygonPiece]
                       ) -> ExactScalar:
    """sup of the initial interval on which alpha vanishes identically."""
    for p in pieces:
        v, a1 = _ev(p.alpha, p.t_lo), p.alpha[1]
        if v < 0 or v == 0 and a1 < 0:
            raise ModelInconsistency(
                "alpha went negative" if v < 0 else "alpha decreasing")
        if v or a1:
            return p.t_lo
    return mu


def alpha_zero_prefix(poly: NOPolygon) -> ExactScalar:
    """sup of the initial interval on which alpha vanishes identically."""
    return _alpha_zero_prefix(poly.mu, poly.pieces)


def largest_simplex(poly: NOPolygon) -> ExactScalar:
    """Largest lambda with the standard simplex of size lambda inside.

    Requires nu = 0.  The polygon is convex, so the simplex lies inside
    exactly when its vertices do: (lambda, 0) needs lambda within the
    alpha = 0 prefix, and (0, lambda) needs lambda <= beta(0).
    """
    if poly.nu != 0:
        return Fraction(0)
    t_alpha = alpha_zero_prefix(poly)
    b0 = poly.beta(Fraction(0))
    return t_alpha if t_alpha <= b0 else b0


def largest_inverted_simplex(poly: NOPolygon) -> ExactScalar:
    """Largest xi with {0 <= t <= xi, 0 <= y <= t} inside the polygon."""
    return _inverted_simplex(poly.nu, poly.mu, poly.pieces)


def _inverted_simplex(nu: Fraction, mu: ExactScalar,
                      pieces: Sequence[PolygonPiece]) -> ExactScalar:
    """Largest xi with {0 <= t <= xi, 0 <= y <= t} inside the polygon on
    [nu, mu] with boundary pieces ``pieces``."""
    if nu != 0:
        return Fraction(0)
    t_alpha = _alpha_zero_prefix(mu, pieces)
    t_beta: ExactScalar = mu
    for p in pieces:
        # beta(t) - t = b0 + t*(b1 - 1): negative at t_lo, or falling to 0
        # at b0/(1 - b1) inside the piece
        b0, b1 = p.beta
        if b0 + (b1 - 1) * p.t_lo < 0:
            t_beta = p.t_lo
            break
        if b1 < 1 and (root := b0 / (1 - b1)) < p.t_hi:
            t_beta = root
            break
    return t_alpha if t_alpha <= t_beta else t_beta


def criterion_at_point(model: SurfaceModel, d: Sequence, flag_curve: str,
                       point: PointSpec) -> dict:
    """Origin membership and the largest inscribed standard simplex.

    origin_in detects the point being off the negative locus; lambda > 0
    detects it being off the null locus.
    """
    poly = okounkov_polygon(model, d, flag_curve, point)
    origin_in = poly.nu == 0 and poly.alpha(Fraction(0)) == 0
    lam = largest_simplex(poly) if origin_in else Fraction(0)
    return {"origin_in": origin_in, "lambda": lam, "polygon": poly}


def classify_valuative(poly: NOPolygon, point: tuple[Fraction, Fraction], *,
                       lam=None, lam_prime=None, xi=None,
                       infinitesimal: bool = False) -> Classification:
    """Classify a rational point of the plane against the polygon.

    Certification labels follow the valuative-point regions: interior
    rational points; the open horizontal/vertical segments when a simplex
    of size (lam, lam_prime) fits; the open diagonal and horizontal
    segments of an infinitesimal polygon containing an inverted simplex
    of size xi.
    """
    t, y = Fraction(point[0]), Fraction(point[1])
    if not polygon_contains(poly, (t, y)):
        return Classification.OUTSIDE
    if polygon_interior_contains(poly, (t, y)):
        return Classification.CERTIFIED_INTERIOR
    if lam is not None and lam_prime is None:
        lam_prime = lam
    if lam is not None and lam > 0 and lam_prime > 0:
        tri = [(Fraction(0), Fraction(0)), (Fraction(lam), Fraction(0)),
               (Fraction(0), Fraction(lam_prime))]
        if all(polygon_contains(poly, v) for v in tri):
            if y == 0 and 0 <= t < lam:
                return Classification.CERTIFIED_HORIZONTAL
            if t == 0 and 0 <= y < lam_prime:
                return Classification.CERTIFIED_VERTICAL
    if infinitesimal and xi is not None and xi > 0:
        tri = [(Fraction(0), Fraction(0)), (Fraction(xi), Fraction(0)),
               (Fraction(xi), Fraction(xi))]
        if all(polygon_contains(poly, v) for v in tri):
            if y == t and 0 <= t < xi:
                return Classification.CERTIFIED_DIAGONAL
            if y == 0 and 0 <= t < xi:
                return Classification.CERTIFIED_HORIZONTAL
    return Classification.BOUNDARY_UNKNOWN


def truncate_left(poly: NOPolygon, t0: Fraction) -> tuple[Point, ...]:
    """Vertices of the part of the polygon with t >= t0."""
    if t0 <= poly.nu:
        return poly.vertices
    if t0 > poly.mu:
        return ()
    pieces = [p._replace(t_lo=max(p.t_lo, t0)) for p in poly.pieces
              if p.t_hi > t0]
    return _vertices(t0, poly.mu, pieces)


def shift_check(model: SurfaceModel, d: Sequence, flag_curve: str,
                point: PointSpec, t0: Fraction) -> bool:
    """Truncating the polygon at t >= t0 equals shifting the polygon of
    D - t0*C by (t0, 0)."""
    d = model.divisor(d)
    flag = model.curve_class(flag_curve)
    shifted = model.divisor(scalars.vec_sub(d, scalars.vec_scale(t0, flag)))
    try:
        walks = [chamber_walk(model, c, flag_curve) for c in (d, shifted)]
    except NotBig:
        raise NotBig("shift comparison needs both classes big") from None
    poly, poly2 = (w.polygon(point) for w in walks)
    left = set(truncate_left(poly, Fraction(t0)))
    right = {(v[0] + t0, v[1]) for v in poly2.vertices}
    return left == right
