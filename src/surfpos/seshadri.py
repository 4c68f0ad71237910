"""Seshadri constants, largest simplex constants, the generic-point
lower-bound enumerator, and the base-point-free multiple bound.

The walks, blow-ups and decompositions are imported by the functions that
use them, so the generic-point bound and the free multiple load neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvalidQuery, MissingCanonical, NonIntegralInput, NotAmple, NotNef
from .lattice import (
    GENERIC_POINT,
    BlowupSpec,
    PointSpec,
    PolyCone,
    SurfaceModel,
    pairing,
)
from .scalars import ExactScalar, scaled, vector


def seshadri_direct(model: SurfaceModel, a: Sequence,
                    x: BlowupSpec = GENERIC_POINT) -> ExactScalar:
    """Nef threshold of pullback(A) - t*E on the blow-up at x.

    The minimum of (A . C) / mult_x(C) over the declared curves through x
    (the blow-up records C with C . E = -C's last coordinate > 0), capped
    by sqrt(A^2), where the pulled-back class stops being in the positive
    cone.  The threshold routine is the one that gives xi and moving
    Seshadri constants, applied to pullback(A), its own positive part: A's
    numerator, read once for the nef test and the threshold, with 0 on E.
    """
    from . import infinitesimal, zariski

    num, den = scaled(model.divisor(a))
    if not zariski._positive(model, num, strict=False):
        raise NotNef("Seshadri constants need a nef class")
    bm, _, _ = infinitesimal.blow_up(model, x)
    return infinitesimal._nef_threshold(bm, [*num, 0], den)


def largest_simplex_flag(model: SurfaceModel, a: Sequence, flag_curve: str,
                         point: PointSpec) -> ExactScalar:
    """Largest standard simplex inside the polygon of an ample class for
    one flag."""
    from . import okounkov, zariski

    a = model.divisor(a)
    if not zariski.is_ample(model, a):
        raise NotAmple("largest simplex constant needs an ample class")
    poly = okounkov.okounkov_polygon(model, a, flag_curve, point)
    return okounkov.largest_simplex(poly)


def largest_simplex_search(model: SurfaceModel, a: Sequence,
                           flags: Sequence[tuple[str, PointSpec]]
                           ) -> ExactScalar:
    """Max of the per-flag constants over the declared flags at a point.

    This is a certified lower bound for the supremum over all curves
    through the point; no enumeration of all such curves exists here.
    """
    if not flags:
        raise InvalidQuery("need at least one flag")
    return max(largest_simplex_flag(model, a, c, p) for c, p in flags)


class GenericBoundQuery(NamedTuple):
    degree: Fraction          # (A^2)
    target: Fraction          # tau: certify epsilon >= min(tau, sqrt(deg))
    exclude_q1: bool = False  # geometric input ruling out multiplicity-one
    #                           curves of tiny degree through a very
    #                           general point (e.g. non-uniruledness)


class GenericBoundResult(NamedTuple):
    holds: bool
    witnesses: tuple[tuple[int, int], ...]
    q_range: tuple[int, int]


def generic_seshadri_bound(query: GenericBoundQuery) -> GenericBoundResult:
    """Area obstruction for Seshadri constants at very general points.

    A curve of degree p with multiplicity q >= 2 at a very general point
    forces the generic infinitesimal polygon (of doubled area ``degree``)
    into the triangle with vertices (0,0), (p/q, p/q), (p/(q-1), 0); a pair
    (p, q) with p/q below the target can therefore exist only when
    p^2 >= degree * q * (q - 1).  The search range q < d/(d - tau^2) is
    exact; an empty witness list certifies epsilon >= min(tau, sqrt(d)).
    """
    d, tau = Fraction(query.degree), Fraction(query.target)
    if d <= 0 or tau <= 0:
        raise InvalidQuery("degree and target must be positive")
    if tau * tau >= d:
        raise InvalidQuery(
            f"target^2 = {tau * tau} must be below the degree {d}")
    if not query.exclude_q1:
        raise InvalidQuery(
            "multiplicity-one curves need geometric input; set exclude_q1")
    q_max = math.ceil(d / (d - tau * tau)) - 1
    # p >= sqrt(d*q*(q-1)), that is p^2 >= ceil(d*q*(q-1)), and p < tau*q
    witnesses = [(p, q) for q in range(2, q_max + 1)
                 for p in range(math.isqrt(math.ceil(d * q * (q - 1)) - 1) + 1,
                                math.ceil(tau * q))]
    return GenericBoundResult(holds=not witnesses,
                              witnesses=tuple(witnesses),
                              q_range=(2, q_max))


def free_multiple(nef: PolyCone, b: Sequence, model: SurfaceModel) -> int:
    """Smallest per-facet multiple m with m*A - b nef for every integral
    class A interior to the nef cone.

    Facet normals pair at least one with any integral interior point, so
    m = max over facets u of ceil((b . u)) clipped at zero does the job and
    is sharp for the worst-case interior point.
    """
    bb = model.divisor(b)
    if any(x.denominator != 1 for x in bb):
        raise NonIntegralInput("bundle class must be integral")
    return max([0, *(math.ceil(pairing(model, bb, vector(u)))
                     for u in nef.facet_normals)])


def default_free_bundle(model: SurfaceModel, a: Sequence):
    """Fujita-type bundle K + 4A whose nef translates are base-point free
    on a surface."""
    from . import zariski

    a = model.divisor(a)
    if model.canonical is None:
        raise MissingCanonical("model has no canonical class")
    if not zariski.is_ample(model, a):
        raise NotAmple("the twisting class must be ample")
    return tuple(k + 4 * x for k, x in zip(model.canonical, a))
