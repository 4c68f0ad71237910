"""Zariski decomposition and positivity predicates.

The decomposition D = P + N is computed by the classical fixpoint: seed the
support with every declared curve D pairs negatively with, solve the Gram
system for the negative-part coefficients, and re-seed with any curve the
candidate positive part still pairs negatively with, until stable.  With a
complete curve list the result is the unique decomposition.  Run on
d + s*slope with signs read just right of s = t, the same fixpoint gives
the chamber of a Newton-Okounkov walk past a wall (:func:`chamber`).

The fixpoint runs on integers: P = p0 + s*p1 is kept as integer vectors
over one denominator each, every P.C is an integer dot with the model's
curve table, and every sign is decided by cross-multiplying.  The
support's integer Gram matrix, read off the same table, is checked
negative definite and solved for both right-hand sides in one
fraction-free elimination.  Fractions are built only for the
negative-part coefficients that solve returns, and for what a caller of
the chamber reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import scalars
from .errors import (
    ModelInconsistency,
    NotBigNef,
    NotPseudoEffective,
    PointInNegLocus,
)
from .lattice import (
    DivisorClass,
    SurfaceModel,
    cone_contains,
    pairing,
    self_intersection,
)
from .scalars import scaled, solve_negative_definite, vector


@dataclass(frozen=True)
class ZariskiPair:
    P: DivisorClass
    N_coeffs: dict[str, Fraction]
    support: tuple[str, ...]
    relative: bool = False

    def negative_part(self, model: SurfaceModel) -> DivisorClass:
        n = vector([0] * model.rank)
        for name, a in self.N_coeffs.items():
            n = scalars.vec_add(n, scalars.vec_scale(a, model.curve_class(name)))
        return n


@dataclass(frozen=True)
class LocusReport:
    null_curves: frozenset[str]
    neg_curves: frozenset[str]
    relative: bool = False


def is_pseudo_effective(model: SurfaceModel, d: Sequence) -> bool:
    return cone_contains(model.effective_gens(), model.divisor(d))


class Chamber(NamedTuple):
    """Zariski data of d + s*slope just right of s = t, on integers.

    N is the sum of (c0 + s*c1) * C over ``support`` (in curve order) with
    coeffs[C] = (c0, c1).  P = p0/den0 + s*p1/den1 for integer vectors p0
    and p1, and ``pairings`` holds, for every curve outside the candidate
    support, the integers (n0, n1) with P.C = n0/den0 + s*n1/den1.  With
    no slope, p1 is zero and every c1 and n1 is 0."""

    support: tuple[str, ...]
    coeffs: dict[str, tuple[Fraction, Fraction]]
    pairings: dict[str, tuple[int, int]]
    p0: tuple[int, ...]
    den0: int
    p1: tuple[int, ...]
    den1: int

    def positive_part(self) -> DivisorClass:
        """P at s = 0."""
        return tuple(Fraction(x, self.den0) for x in self.p0)

    def curve_pairing(self, name: str) -> tuple[Fraction, Fraction]:
        """P.C as (value at s = 0, slope) for a curve outside the support."""
        n0, n1 = self.pairings[name]
        return Fraction(n0, self.den0), Fraction(n1, self.den1)


def _combine(model: SurfaceModel, num: Sequence[int], den: int,
             names: Sequence[str], coeffs: Sequence[Fraction]
             ) -> tuple[tuple[int, ...], int]:
    """num/den - sum(a * C) over the curves ``names`` with coefficients a,
    as an integer vector over one denominator."""
    out_den = math.lcm(den, *(a.denominator for a in coeffs))
    k = out_den // den
    out = [k * x for x in num]
    for n, a in zip(names, coeffs):
        if a:
            f = a.numerator * (out_den // a.denominator)
            for i, c in enumerate(model.curve(n).cls):
                if c:
                    out[i] -= f * c
    return tuple(out), out_den


def chamber(model: SurfaceModel, d: DivisorClass,
            slope: Optional[DivisorClass] = None, t: Fraction = Fraction(0),
            support: Sequence[str] = ()) -> Chamber:
    """Bauer's fixpoint for d + s*slope just right of s = t.

    Starting from ``support``, solve the Gram system of the support for the
    negative-part coefficients, add every curve the candidate positive part
    pairs negatively with, and repeat until none does.  Over Q(eps) with
    s = t + eps, an affine quantity v0 + s*v1 is negative when
    (v0 + t*v1, v1) is lexicographically negative, so the result is the
    decomposition of d + (t+eps)*slope; with no slope it is that of d.
    P is kept as integer vectors over one denominator each, every P.C is
    an integer dot with the model's curve table, and every sign is decided
    on integers.
    """
    tn, td = t.numerator, t.denominator

    def negative(n0: int, e0: int, n1: int, e1: int) -> bool:
        # n0/e0 + s*n1/e1 just right of s = t, with e0, e1 > 0
        v = n0 * e1 * td + tn * n1 * e0
        return v < 0 or (v == 0 and n1 < 0)

    d0, e0 = scaled(d)
    d1, e1 = scaled(slope) if slope is not None else ([0] * model.rank, 1)
    d_dots = model.curve_dots(d0)
    s_dots = model.curve_dots(d1) if slope is not None else None
    names = list(support)
    while True:
        coeffs: dict[str, tuple[Fraction, Fraction]] = {}
        p0, den0, p1, den1 = d0, e0, d1, e1
        if names:
            sols = solve_negative_definite(model.gram_submatrix(names), *(
                [dots[n] for n in names] for dots in (d_dots, s_dots)
                if dots is not None))
            if sols is None:
                raise ModelInconsistency(
                    "support Gram matrix not negative definite for "
                    f"{names}; curve list is incomplete or wrong")
            sol0 = [x / e0 for x in sols[0]]
            sol1 = ([x / e1 for x in sols[1]] if slope is not None
                    else [Fraction(0)] * len(names))
            for n, a0, a1 in zip(names, sol0, sol1):
                if negative(a0.numerator, a0.denominator,
                            a1.numerator, a1.denominator):
                    raise ModelInconsistency(
                        f"negative coefficient in candidate negative part "
                        f"on {names}")
                coeffs[n] = (a0, a1)
            p0, den0 = _combine(model, d0, e0, names, sol0)
            if slope is not None:
                p1, den1 = _combine(model, d1, e1, names, sol1)
        q0 = model.curve_dots(p0)
        q1 = (model.curve_dots(p1) if slope is not None
              else dict.fromkeys(q0, 0))
        pairings = {n: (v, q1[n]) for n, v in q0.items() if n not in coeffs}
        entering = [n for n, (v0, v1) in pairings.items()
                    if negative(v0, den0, v1, den1)]
        if not entering:
            order = tuple(n for n in q0
                          if n in coeffs and coeffs[n] != (0, 0))
            return Chamber(order, {n: coeffs[n] for n in order}, pairings,
                           tuple(p0), den0, tuple(p1), den1)
        names += entering


def zariski_decompose(model: SurfaceModel, d: Sequence) -> ZariskiPair:
    d = model.divisor(d)
    if not is_pseudo_effective(model, d):
        coords = ", ".join(str(x) for x in d)
        raise NotPseudoEffective(f"({coords}) is not in the effective cone")
    ch = chamber(model, d)
    return ZariskiPair(P=ch.positive_part(),
                       N_coeffs={n: a for n, (a, _) in ch.coeffs.items()},
                       support=ch.support,
                       relative=not model.completeness_declared)


def loci(model: SurfaceModel, d: Sequence) -> LocusReport:
    pair = zariski_decompose(model, d)
    null = frozenset(n for n, v in model.curve_pairings(pair.P).items()
                     if v == 0)
    return LocusReport(null_curves=null,
                       neg_curves=frozenset(pair.support),
                       relative=pair.relative)


def is_nef(model: SurfaceModel, d: Sequence) -> bool:
    d = model.divisor(d)
    if self_intersection(model, d) < 0:
        return False
    if pairing(model, d, model.ample_ref) < 0:
        return False
    return all(v >= 0 for v in model.curve_pairings(d).values())


def is_ample(model: SurfaceModel, d: Sequence) -> bool:
    """Nakai-Moishezon against the declared curve list."""
    d = model.divisor(d)
    if self_intersection(model, d) <= 0:
        return False
    if pairing(model, d, model.ample_ref) <= 0:
        return False
    return all(v > 0 for v in model.curve_pairings(d).values())


def volume(model: SurfaceModel, d: Sequence) -> Fraction:
    """vol(D) = (P_D)^2 for pseudo-effective D."""
    pair = zariski_decompose(model, d)
    return self_intersection(model, pair.P)


def big_decomposition(model: SurfaceModel,
                      d: Sequence) -> Optional[ZariskiPair]:
    """The decomposition of d if d is big, else None: one LP, one fixpoint."""
    try:
        pair = zariski_decompose(model, d)
    except NotPseudoEffective:
        return None
    return pair if self_intersection(model, pair.P) > 0 else None


def is_big(model: SurfaceModel, d: Sequence) -> bool:
    return big_decomposition(model, d) is not None


def ample_perturbation(model: SurfaceModel, p: Sequence):
    """Coefficients a with Gram(Null) . a entrywise negative, and a verified
    scale s such that P - s * sum(a_i E_i) is ample.

    Mirrors the ample-perturbation construction: a = -A^(-1) . 1 where A is
    the Gram matrix of the null curves (A^(-1) is entrywise non-positive, so
    a >= 0), and s is found by halving from 1 until the Nakai test passes.
    """
    p = model.divisor(p)
    if not is_nef(model, p):
        raise NotBigNef("perturbation needs a nef class")
    null = [n for n, v in model.curve_pairings(p).items() if v == 0]
    if not null:
        if not is_ample(model, p):
            raise NotBigNef("nef class with empty null locus but zero square")
        return {}, Fraction(0)
    sol = solve_negative_definite(model.gram_submatrix(null),
                                  [-1] * len(null))
    if sol is None:
        raise ModelInconsistency(
            f"Gram matrix of null curves {null} is not negative definite; "
            "the class is not big")
    if self_intersection(model, p) <= 0:
        raise NotBigNef("perturbation needs a big class")
    a = sol[0]
    if any(x < 0 for x in a):
        raise ModelInconsistency("inverse Gram has a positive entry")
    direction = vector([0] * model.rank)
    for name, coef in zip(null, a):
        direction = scalars.vec_add(direction,
                                    scalars.vec_scale(coef, model.curve_class(name)))
    s = Fraction(1)
    for _ in range(64):
        candidate = scalars.vec_sub(p, scalars.vec_scale(s, direction))
        if is_ample(model, candidate):
            return dict(zip(null, a)), s
        s /= 2
    raise ModelInconsistency("no ample perturbation found by halving")


def neg_curves_through(model: SurfaceModel, pair: ZariskiPair,
                       mults: dict[str, int]) -> list[str]:
    """Support curves passing through the point described by ``mults``."""
    return [n for n in pair.support if mults.get(n, 0) > 0]


def pullback_zariski_check(model: SurfaceModel, blowup_model: SurfaceModel,
                           pullback, d: Sequence,
                           point_mults: dict[str, int],
                           rename: Optional[dict[str, str]] = None) -> bool:
    """Check that the pullback of a decomposition is again the decomposition.

    ``pullback`` maps base classes to blow-up classes; ``point_mults`` gives
    the multiplicity of each base curve at the blown-up point; ``rename``
    maps base curve names to their strict-transform names.
    """
    rename = rename or {}
    base = zariski_decompose(model, d)
    through = neg_curves_through(model, base, point_mults)
    if through:
        raise PointInNegLocus(
            f"point lies on negative curves {through}")
    up = zariski_decompose(blowup_model, pullback(model.divisor(d)))
    expect_p = pullback(base.P)
    expect_n = {rename.get(n, n): a for n, a in base.N_coeffs.items()}
    return tuple(up.P) == tuple(expect_p) and up.N_coeffs == expect_n
