"""Zariski decomposition and positivity predicates.

The decomposition D = P + N is computed by the classical fixpoint: seed the
support with every declared curve D pairs negatively with, solve the Gram
system for the negative-part coefficients, and re-seed with any curve the
candidate positive part still pairs negatively with, until stable.  With a
complete curve list the result is the unique decomposition.  Run on
d + s*slope with signs read just right of s = t, the same fixpoint gives
the chamber of a Newton-Okounkov walk past a wall (:func:`chamber`).

The fixpoint runs once, on integers, over the parts of d + s*slope: the
class, then the slope when one is given.  P = (p0 + s*p1)/den and N are
kept as integers over one common denominator, every P.C is an integer dot
with the model's curve table, and every sign is decided on integers.  The
support's integer Gram matrix, read off the same table, is checked
negative definite and solved for every part in one fraction-free
elimination.  Fractions are built only for what a caller reads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import starmap
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import scalars
from .errors import (
    ModelInconsistency,
    NotBigNef,
    NotPseudoEffective,
)
from .lattice import (
    DivisorClass,
    SurfaceModel,
    cone_contains,
    int_pairing,
    self_intersection,
)
from .scalars import scaled, solve_negative_definite, vector


class ZariskiPair(NamedTuple):
    P: DivisorClass
    N_coeffs: dict[str, Fraction]
    support: tuple[str, ...]
    relative: bool = False

    def negative_part(self, model: SurfaceModel) -> DivisorClass:
        n = vector([0] * model.rank)
        for name, a in self.N_coeffs.items():
            n = scalars.vec_add(n, scalars.vec_scale(a, model.curve_class(name)))
        return n


class LocusReport(NamedTuple):
    null_curves: frozenset[str]
    neg_curves: frozenset[str]
    relative: bool = False


def is_pseudo_effective(model: SurfaceModel, d: Sequence) -> bool:
    """Whether d lies in the effective cone.  A class that a row of the
    model's Farkas table pairs negatively with is refused, on integers.
    On a simplicial cone the table's facet rows also accept every other
    class; elsewhere the LP decides it."""
    d = model.divisor(d)
    rows, complete = model._farkas
    num = scaled(d)[0]
    if any(sum(map(mul, w, num)) < 0 for w in rows):
        return False
    return complete or cone_contains(model.effective_gens(), d)


class Chamber(NamedTuple):
    """Zariski data of d + s*slope just right of s = t, on integers.

    Each affine quantity is kept as its integer parts over ``den``: the
    value at s = 0, then the slope when one is given.  P is p[0] + s*p[1],
    P.C is n[0] + s*n[1] for n = pairings[C] and every curve C outside the
    candidate support, and N is the sum of (c[0] + s*c[1]) * C for
    c = coeffs[C] over ``support`` (in curve order), all over den.  With
    no slope every tuple has the one part at s = 0."""

    support: tuple[str, ...]
    coeffs: dict[str, tuple[int, ...]]
    pairings: dict[str, tuple[int, ...]]
    p: tuple[tuple[int, ...], ...]
    den: int

    def positive_part(self) -> DivisorClass:
        """P at s = 0."""
        return tuple(Fraction(x, self.den) for x in self.p[0])


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
    Every sign is decided on the integer parts over one denominator.
    """
    parts = (d,) if slope is None else (d, slope)
    tn, td = t.numerator, t.denominator

    def negative(v0: int, v1: int = 0) -> bool:
        # (v0 + s*v1)/den just right of s = t, with den > 0
        x = v0 * td + tn * v1
        return x < 0 or x == 0 and v1 < 0

    e = math.lcm(*(x.denominator for v in parts for x in v))
    q = [[x.numerator * (e // x.denominator) for x in v] for v in parts]
    dots = list(map(model.curve_dots, q))
    names = list(support)
    while True:
        p, den, qs, coeffs = q, e, dots, {}
        if names:
            # the model's Gram matrix is symmetric, so its support's is
            sol = scalars._negative_definite_solution(
                [[*row, *(dk[n] for dk in dots)]
                 for row, n in zip(model.gram_submatrix(names), names)])
            if sol is None:
                raise ModelInconsistency(
                    "support Gram matrix not negative definite for "
                    f"{names}; curve list is incomplete or wrong")
            # the coefficients of each part, times e * k
            ints, k = sol
            coeffs = dict(zip(names, map(tuple, ints)))
            if any(starmap(negative, coeffs.values())):
                raise ModelInconsistency(
                    f"negative coefficient in candidate negative part "
                    f"on {names}")
            p, den = [[k * x for x in v] for v in q], e * k
            for n, cs in coeffs.items():
                for i, x in enumerate(model.curve(n).cls):
                    if x:
                        for v, c in zip(p, cs):
                            v[i] -= c * x
            qs = list(map(model.curve_dots, p))
        pairings = {n: v for n, v in zip(qs[0], zip(*map(dict.values, qs)))
                    if n not in coeffs}
        entering = [n for n, v in pairings.items() if negative(*v)]
        if not entering:
            order = tuple(n for n in qs[0]
                          if n in coeffs and any(coeffs[n]))
            return Chamber(order, {n: coeffs[n] for n in order},
                           pairings, tuple(map(tuple, p)), den)
        names += entering


def zariski_decompose(model: SurfaceModel, d: Sequence) -> ZariskiPair:
    d = model.divisor(d)
    if not is_pseudo_effective(model, d):
        coords = ", ".join(str(x) for x in d)
        raise NotPseudoEffective(f"({coords}) is not in the effective cone")
    ch = chamber(model, d)
    return ZariskiPair(P=ch.positive_part(),
                       N_coeffs={n: Fraction(c[0], ch.den)
                                 for n, c in ch.coeffs.items()},
                       support=ch.support,
                       relative=not model.completeness_declared)


def loci(model: SurfaceModel, d: Sequence) -> LocusReport:
    pair = zariski_decompose(model, d)
    null = frozenset(n for n, v in model.curve_dots(scaled(pair.P)[0]).items()
                     if v == 0)
    return LocusReport(null_curves=null,
                       neg_curves=frozenset(pair.support),
                       relative=pair.relative)


def _positive(model: SurfaceModel, d: Sequence, strict: bool) -> bool:
    """Whether d^2, d.A for the ample reference A, and d.C for every listed
    curve C are all >= 0, or all > 0 when ``strict``.  Each sign is read
    on integers: d's numerator over a positive denominator."""
    num = scaled(model.divisor(d))[0]
    ok = (0).__lt__ if strict else (0).__le__
    return (ok(int_pairing(model, num, num))
            and ok(int_pairing(model, num, scaled(model.ample_ref)[0]))
            and all(map(ok, model.curve_dots(num).values())))


def is_nef(model: SurfaceModel, d: Sequence) -> bool:
    return _positive(model, d, strict=False)


def is_ample(model: SurfaceModel, d: Sequence) -> bool:
    """Nakai-Moishezon against the declared curve list."""
    return _positive(model, d, strict=True)


def volume(model: SurfaceModel, d: Sequence) -> Fraction:
    """vol(D) = (P_D)^2 for pseudo-effective D."""
    return self_intersection(model, zariski_decompose(model, d).P)


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
    num = scaled(p)[0]
    null = [n for n, v in model.curve_dots(num).items() if v == 0]
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
    if int_pairing(model, num, num) <= 0:
        raise NotBigNef("perturbation needs a big class")
    a = sol[0]
    if any(x < 0 for x in a):
        raise ModelInconsistency("inverse Gram has a positive entry")
    # sum a_i * C_i over the null curves, coordinate by coordinate
    direction = tuple(sum((c * x for c, x in zip(a, col)), Fraction(0))
                      for col in zip(*map(model.curve_class, null)))
    s = Fraction(1)
    for _ in range(64):
        candidate = scalars.vec_sub(p, scalars.vec_scale(s, direction))
        if is_ample(model, candidate):
            return dict(zip(null, a)), s
        s /= 2
    raise ModelInconsistency("no ample perturbation found by halving")
