"""Blow-up construction and infinitesimal Newton-Okounkov invariants.

A blow-up of a model at a combinatorially specified point extends the
lattice by an exceptional class E with E^2 = -1 orthogonal to pullbacks;
curve records become strict transforms class - mult * E.  Infinitesimal
polygons are ordinary polygons on the blow-up with respect to flags (E, y),
and the asymptotic multiplicity mu' is read off their walk.  Off the
negative locus the largest inverted simplex xi and the moving Seshadri
constant are the nef threshold of pi*P - tE, P = P(D), read off the
curve table with no walk.
Each point of a model instance is blown up once.  A query at x decides
once whether D is big, on the base when it lists every curve of its
effective cone (P and N pull back, and the blow-up runs no LP or
fixpoint; a nef D runs neither on the base either), else on the
blow-up, and reads every verdict at x, bigness and the loci, off that
one decomposition of pi*D.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import models as models_mod
from . import okounkov, scalars, zariski
from .errors import (
    InconsistentMultiplicities,
    ModelInconsistency,
    NoRealRoot,
    NotBig,
    PointInNegLocus,
)
from .lattice import (
    GENERIC_POINT,
    GENERIC_Y,
    BlowupSpec,
    CurveRecord,
    DivisorClass,
    InfFlagSpec,
    PointSpec,
    SurfaceModel,
    check_multiplicity,
    int_pairing,
    validate_model,
)
from .okounkov import NOPolygon
from .scalars import ExactScalar, scaled


def point_on_exceptional_spec(model: SurfaceModel) -> BlowupSpec:
    """Blow-up point on the exceptional curve of bl1p2, with the line in
    the tangent direction declared; produces the two-step construction."""
    if not model.has_curve("E"):
        raise ModelInconsistency("model has no curve named E")
    return BlowupSpec(
        mults={"E": 1},
        extra_curves=(("E3", (1, -1, -1)),),
        extra_complete=True,
        exceptional_name="E1",
        renames={"E": "E2"},
    )


def _fresh_names(taken: set[str], base: str = "E") -> Iterator[str]:
    """The names base1, base2, ... not in ``taken``, in order; each name
    given out joins ``taken``."""
    for i in itertools.count(1):
        name = f"{base}{i}"
        if name not in taken:
            taken.add(name)
            yield name


def blow_up(model: SurfaceModel, spec: BlowupSpec = GENERIC_POINT
            ) -> tuple[SurfaceModel, Callable[[Sequence], DivisorClass], str]:
    """Blow up the model at the specified point.

    Returns (new model, pullback map on divisor classes, exceptional name).
    At a generic point of a del Pezzo model the complete list of new
    (-1)-classes is enumerated automatically; at special points the caller
    declares the new negative curves.  When the base declares effective
    generators, the blow-up declares their pullbacks and its own curves.
    The result is kept on the model instance, keyed by the spec's value
    (a zero multiplicity counts as none), and returned for an equal spec.
    """
    for name, m in spec.mults.items():
        if m < 0 or m != int(m) or not model.has_curve(name):
            raise InconsistentMultiplicities(f"bad multiplicity for {name!r}")
    key = (tuple(sorted((n, m) for n, m in spec.mults.items() if m)),
           tuple((n, tuple(cls)) for n, cls in spec.extra_curves),
           spec.extra_complete, spec.exceptional_name,
           tuple(sorted(spec.renames.items())))
    if key not in model._blow_ups:
        model._blow_ups[key] = _build_blow_up(model, spec)
    return model._blow_ups[key]


def _pullback(d: Sequence) -> DivisorClass:
    return tuple(scalars.vector(d)) + (Fraction(0),)


def _build_blow_up(model: SurfaceModel, spec: BlowupSpec):
    rho = model.rank
    listed = {n: int(m) for n, m in spec.mults.items() if m > 0}
    for n1, n2 in itertools.permutations(listed, 2):
        if n1 < n2 and model.meet(n1, n2) < listed[n1] * listed[n2]:
            raise InconsistentMultiplicities(
                f"{n1} and {n2} cannot both have these "
                f"multiplicities at one point")
    for n, m in listed.items():
        check_multiplicity(model, n, m)
    taken = set(model.basis_labels) | {c.name for c in model.curves}
    taken |= {spec.renames.get(c.name, c.name) for c in model.curves}
    taken |= {n for n, _ in spec.extra_curves}
    exc = spec.exceptional_name or next(_fresh_names(taken))
    labels = model.basis_labels + (exc,)
    gram = tuple(tuple(row) + (0,) for row in model.gram)
    gram += (tuple([0] * rho) + (-1,),)
    curves: list[CurveRecord] = []
    for c in model.curves:
        m = listed.get(c.name, 0)
        curves.append(CurveRecord(
            name=spec.renames.get(c.name, c.name), cls=tuple(c.cls) + (-m,),
            self_int=c.self_int - m * m, is_rational=c.is_rational))
    curves.append(CurveRecord(name=exc, cls=(0,) * rho + (1,),
                              self_int=-1, is_rational=True))

    def new_self_int(cls) -> int:
        *base, e = cls
        return int_pairing(model, base, base) - e * e

    for name, cls in spec.extra_curves:
        if len(cls) != rho + 1:
            raise InconsistentMultiplicities(
                f"extra curve {name!r} must live in the blown-up basis")
        if any(x != int(x) for x in cls):
            raise InconsistentMultiplicities(f"non-integral class {cls}")
        cls = tuple(map(int, cls))
        curves.append(CurveRecord(name=name, cls=cls,
                                  self_int=new_self_int(cls),
                                  is_rational=None))

    # nine or more general points give infinitely many negative curves;
    # past r = 7 the generic blow-up is no longer a catalogued del Pezzo
    del_pezzo = model.metadata.get("family") == "del-pezzo"
    r = models_mod._dec_int(model.metadata.get("r", "9")) if del_pezzo else 9
    is_dp = r <= 7
    ample_is_ample = False
    ample = _pullback(model.ample_ref)
    if spec.generic:
        # movable families acquire a member through the point
        present = {c.cls for c in curves}
        names = {c.name for c in curves}
        for fam in model.generic_families:
            cls = tuple(fam.cls) + (-fam.mult,)
            if cls in present:
                continue
            curves.append(CurveRecord(
                name=next(_fresh_names(names, fam.name_hint)), cls=cls,
                self_int=new_self_int(cls), is_rational=None))
            present.add(cls)
        if is_dp:
            fresh = _fresh_names(names, "C")
            for cls in models_mod._minus_one_classes(r + 1):
                if cls not in present:
                    curves.append(CurveRecord(name=next(fresh), cls=cls,
                                              self_int=-1, is_rational=True))
                    present.add(cls)
            ample = scalars.vector((3,) + (-1,) * (r + 1))
            ample_is_ample = True
    canonical = (None if model.canonical is None
                 else tuple(model.canonical) + (Fraction(1),))
    complete = model.completeness_declared and (spec.generic
                                                or spec.extra_complete)
    if del_pezzo and not is_dp and spec.generic:
        complete = False  # blow-up of bl8p2: negative curves not listable
    if is_dp and spec.generic:
        metadata = {"family": "del-pezzo", "r": str(r + 1)}
    else:
        metadata = {"family": "blow-up",
                    "base": model.metadata.get("family", "?")}
    generators = None
    if model.effective_generators is not None:
        # pullbacks of effective classes stay effective
        generators = tuple(_pullback(g) for g in model.effective_generators) \
            + tuple(scalars.vector(c.cls) for c in curves)
    new_model = SurfaceModel(
        rank=rho + 1,
        basis_labels=labels,
        gram=gram,
        curves=tuple(curves),
        ample_ref=ample,
        canonical=canonical,
        effective_generators=generators,
        completeness_declared=complete,
        ample_ref_is_ample=ample_is_ample,
        points={"generic": PointSpec(on_curve=exc, generic=True)},
        generic_families=(),
        metadata=metadata,
    )
    validate_model(new_model)
    # a declared extra curve stands for an irreducible curve: p_a >= 0
    for name, _ in spec.extra_curves:
        check_multiplicity(new_model, name, 1)
    return new_model, _pullback, exc


def _flag_point(bm: SurfaceModel, exc: str, y: InfFlagSpec) -> PointSpec:
    if y.generic:
        return PointSpec(on_curve=exc, generic=True)
    if not bm.has_curve(y.on):
        raise InconsistentMultiplicities(f"no curve named {y.on!r}")
    # E is the last basis vector, E^2 = -1, orthogonal to the base
    if -bm.curve(y.on).cls[-1] < y.mult or y.mult < 1:
        raise InconsistentMultiplicities(
            f"{y.on} does not meet the exceptional curve with "
            f"multiplicity {y.mult}")
    return PointSpec(on_curve=exc, local_mults={y.on: y.mult}, generic=False)


class _BlownUp(NamedTuple):
    """x blown up for one class D: the blow-up, its exceptional curve E,
    the flag point on E (None if no y was asked), pi*D, its P and N, and
    P as an integer numerator over a positive denominator."""

    model: SurfaceModel
    exc: str
    point: Optional[PointSpec]
    up: DivisorClass
    pair: zariski.ZariskiPair
    p_scaled: tuple[list[int], int]

    def walk(self) -> okounkov.Walk:
        return okounkov._walk_from(self.model, self.up, self.exc,
                                   self.pair.N_coeffs)

    def xi(self) -> Optional[ExactScalar]:
        """xi at x with no walk: the nef threshold of P(pi*D) - tE, or
        None when x is in Neg(D), that is E has a coefficient in N(pi*D)."""
        if self.exc in self.pair.N_coeffs:
            return None
        return _nef_threshold(self.model, *self.p_scaled,
                              self.pair.N_coeffs)


def _nef_threshold(bm: SurfaceModel, num: Sequence[int], den: int,
                   negative=()) -> ExactScalar:
    """Nef threshold of P - tE on a blow-up bm, P = num/den nef with
    P.E = 0, num integral and den > 0: the least of sqrt(P^2) and
    (P.C)/(C.E) over the listed C with C.E > 0, on the integer curve
    table.  E is bm's last basis vector, so C.E is -C.cls[-1], and -1 for
    E itself.  The cap is compared with each curve ratio on integers, and
    a Quad is built only when the cap is the answer.  For P = P(pi*D) off
    Neg(D) it is xi: on the walk's first chamber N_t is N(pi*D) =
    ``negative``, which misses E, so alpha = 0 and beta(t) = t, and past
    it beta(t) < t.  A curve of ``negative`` meeting E makes xi depend on
    the direction."""
    # sqrt(P^2) = g*sqrt(s)/den, s = P'^2 for P' = num/g integral and
    # primitive, as in the chamber walk: the root of kP factors no k^2
    g = math.gcd(*num) or 1
    prim = [v // g for v in num]
    if (s := int_pairing(bm, prim, prim)) < 0:
        raise NoRealRoot(f"negative radicand {s}")
    # the least (P.C)/m, m = C.E > 0, compared on integers
    ups, least = bm.curve_dots(num), None
    for c in bm.curves:
        if (m := -c.cls[-1]) <= 0:
            continue
        if c.name in negative:
            raise ModelInconsistency(
                f"xi depends on the direction {c.name}; model data is wrong")
        if least is None or ups[c.name] * least[1] < least[0] * m:
            least = ups[c.name], m
    # a/(m*den) is not above g*sqrt(s)/den iff a < 0 or a^2 <= g^2*s*m^2;
    # on a tie the cap is rational and equal to the ratio
    if least is not None:
        a, m = least
        if a < 0 or a * a <= g * g * s * m * m:
            return Fraction(a, m * den)
    return scalars.quad(0, Fraction(g, den), s)


def _blown_up(model: SurfaceModel, d: Sequence, x: BlowupSpec,
              y: Optional[InfFlagSpec] = None,
              what: str = "polygon") -> _BlownUp:
    """Blow up at x, resolve the flag point at y if given, and decide once
    whether d is big: on the base when it lists every curve of its
    effective cone and declares no generators (P and N then pull back,
    :func:`_pulled_back_start`, and the blow-up runs no LP), else on the
    blow-up the walk runs on, which may list curves the base misses.
    On such a base a nef d is decided by its curve pairings alone: P = d,
    N = 0, and d is big iff d^2 > 0, with no LP and no fixpoint; the
    pair is then pi*d with no negative part.
    Every verdict at x reads the result: x is in Neg(D) when E has
    a coefficient in N(pi*D), and in Null(D) only when P(pi*D) pairs to 0
    with a curve meeting E.  NotBig says "<what> needs a big class".
    """
    d = model.divisor(d)
    bm, pullback, exc = blow_up(model, x)
    point = None if y is None else _flag_point(bm, exc, y)
    up = pullback(d)
    base = model.completeness_declared and model.effective_generators is None
    num, den = scaled(d)
    if base and zariski._positive(model, num, strict=False):
        if int_pairing(model, num, num) == 0:
            raise NotBig(f"{what} needs a big class")
        return _BlownUp(bm, exc, point, up, zariski.ZariskiPair(up, {}, ()),
                        ([*num, 0], den))
    pair = zariski.big_decomposition(*((model, d) if base else (bm, up)))
    if pair is None:
        raise NotBig(f"{what} needs a big class")
    if base:
        n = _pulled_back_start(pair, x, exc)
        pair = zariski.ZariskiPair(pullback(pair.P), n, tuple(n))
    return _BlownUp(bm, exc, point, up, pair, scaled(pair.P))


def _pulled_back_start(pair: zariski.ZariskiPair, x: BlowupSpec,
                       exc: str) -> dict[str, Fraction]:
    """N(pi*D) = pi*N(D) = sum a_C (C~ + mult_x(C) E), by blow-up name in
    curve order, since pi*P is nef and orthogonal to every C~ and to E."""
    start = {x.renames.get(n, n): a for n, a in pair.N_coeffs.items()}
    on_exc = sum(a * x.mults.get(n, 0) for n, a in pair.N_coeffs.items())
    return start | ({exc: on_exc} if on_exc else {})


def infinitesimal_polygon(model: SurfaceModel, d: Sequence,
                          x: BlowupSpec = GENERIC_POINT,
                          y: InfFlagSpec = GENERIC_Y) -> NOPolygon:
    """Polygon of the pullback with respect to the flag (E, y)."""
    b = _blown_up(model, d, x, y)
    return b.walk().polygon(b.point)


def mu_prime(model: SurfaceModel, d: Sequence,
             x: BlowupSpec = GENERIC_POINT) -> ExactScalar:
    """Largest t with pullback(D) - tE big: the asymptotic multiplicity."""
    return _blown_up(model, d, x, what="mu'").walk().mu


def exceptional_directions(bm: SurfaceModel, exc: str) -> list[str]:
    """Strict transforms actually meeting the exceptional curve."""
    meets = bm.curve_dots(bm.curve(exc).cls)
    return [c.name for c in bm.curves
            if c.name != exc and meets[c.name] >= 1 and c.self_int < 0]


def xi(model: SurfaceModel, d: Sequence,
       x: BlowupSpec = GENERIC_POINT) -> ExactScalar:
    """Largest xi with the inverted simplex of size xi inside every
    infinitesimal polygon at x; independent of the point y on E.  It is
    the nef threshold of pi*P - tE, with no walk."""
    b = _blown_up(model, d, x, what="xi")
    if (value := b.xi()) is None:
        through = [n for n in exceptional_directions(b.model, b.exc)
                   if n in b.pair.N_coeffs]
        raise PointInNegLocus(f"point lies on negative curves {through}")
    return value


def _polygon_and_xi(model: SurfaceModel, d: Sequence, x: BlowupSpec,
                    y: InfFlagSpec
                    ) -> tuple[NOPolygon, Optional[ExactScalar]]:
    """The infinitesimal polygon at y, off one walk, and xi, with the
    errors of :func:`infinitesimal_polygon`.  xi is None on the negative
    locus and when the model data makes it depend on the direction."""
    b = _blown_up(model, d, x, y)
    poly = b.walk().polygon(b.point)
    try:
        return poly, b.xi()
    except ModelInconsistency:
        return poly, None


class SeshadriStatus(enum.Enum):
    IN_NEG = "in-neg"
    IN_NULL_NOT_NEG = "in-null-not-neg"
    POSITIVE = "positive"


class MovingSeshadri(NamedTuple):
    status: SeshadriStatus
    value: Optional[ExactScalar] = None


def moving_seshadri(model: SurfaceModel, d: Sequence,
                    x: BlowupSpec = GENERIC_POINT) -> MovingSeshadri:
    """Moving Seshadri constant of a big class at x, as a tagged status:
    on the negative locus, on the null locus only (value zero: P pairs to
    0 with a curve meeting E), or positive with value xi."""
    value = _blown_up(model, d, x, what="moving Seshadri constant").xi()
    if value is None:
        return MovingSeshadri(SeshadriStatus.IN_NEG)
    return MovingSeshadri(SeshadriStatus.POSITIVE if value != 0
                          else SeshadriStatus.IN_NULL_NOT_NEG, value)


def generic_infinitesimal_polygon(model: SurfaceModel, d: Sequence,
                                  x: BlowupSpec = GENERIC_POINT) -> NOPolygon:
    """Infinitesimal polygon at a generic y; its base is the whole segment
    [0, mu'] on the t-axis."""
    poly = infinitesimal_polygon(model, model.divisor(d), x, GENERIC_Y)
    if okounkov.alpha_zero_prefix(poly) != poly.mu:
        raise ModelInconsistency(
            "generic infinitesimal polygon does not rest on the t-axis")
    return poly


def vertex_t_coordinates(poly: NOPolygon) -> list[ExactScalar]:
    """Sorted distinct t-coordinates of the polygon vertices; these agree
    across all choices of y on the exceptional curve."""
    return sorted({t for t, _ in poly.vertices})
