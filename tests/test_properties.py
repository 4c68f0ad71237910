"""Property tests over generated models, classes and flags (hypothesis,
derandomized so that every run draws the same examples).

The models are p2 ... bl5p2, hirzebruch-0 ... hirzebruch-6 and
example-interesting, and of each its blow-ups at a generic point, at a
point of a listed curve, and at the point of that blow-up's exceptional
curve in the direction of the curve (tangent).  The properties:

- the Zariski decomposition meets its definition, checked with
  ``lattice.pairing`` and ``sympy.Matrix`` only;
- the chamber walk equals the per-t oracle at every rational breakpoint
  and inside every piece;
- xi equals the largest inverted simplex of the full infinitesimal
  polygon at the generic y and at every special direction, and of the
  walk's polygons (the route xi took before it read the walk's pieces),
  on the random classes of ``conftest`` and on them times 10^40 + 121;
- the integer ``scalars.positive_quadratic_root`` equals the Fraction
  and Quad route of ``conftest``, for square, non-square and
  non-squarefree discriminants;
- the pulled-back decomposition a blown-up walk starts from equals the
  decomposition fixpoint on the blow-up, also at points of Neg(D);
- moving Seshadri constants and xi, which read Neg(D) and Null(D) at x
  off the decomposition of pi*D, agree with the base's verdicts on the
  matrix models, at points of a curve or of two;
- a chamber's integer pairings with the curves outside its support are
  those of its positive part, with or without a slope;
- the integer elimination in ``scalars`` (rank, inverse, negative
  definiteness with solving) agrees with ``sympy.Matrix``;
- the Hodge index check of ``lattice.validate_model`` accepts a form
  exactly when its inertia is (1, rho-1, 0), by Descartes' rule of signs
  on the characteristic polynomial;
- the pseudo-effectivity verdict, which may refuse a class by the ample
  row before the LP, equals the LP's;
- the nef and ample tests, the null set of ``loci`` and the directions
  through the exceptional curve, which read signs off the integer curve
  table, equal their definitions by ``lattice.pairing``, on the random
  classes of ``conftest`` and on them times and over 10^40 + 121.

The walk, xi and pulled-back properties need every negative curve
listed, so they run on the models whose curve list is declared complete.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import surfpos as sp
from surfpos import models as models_mod
from surfpos import okounkov, scalars, zariski
from surfpos.errors import (
    InconsistentMultiplicities,
    InvariantViolation,
    ModelInconsistency,
    NoRealRoot,
    PointInNegLocus,
    SingularMatrix,
)
from surfpos.infinitesimal import (
    GENERIC_POINT,
    BlowupSpec,
    InfFlagSpec,
    _blown_up,
    _flag_point,
    _pulled_back_start,
    blow_up,
    exceptional_directions,
    point_on_exceptional_spec,
)
from surfpos.lattice import (
    PointSpec,
    SurfaceModel,
    check_multiplicity,
    cone_contains,
    pairing,
    validate_model,
)

from conftest import (
    MATRIX_MODELS,
    assert_breakpoint_oracle,
    fraction_quadratic_root,
    harbourne_decompose,
    neg_curves_through,
    random_big,
    random_pseff,
    seeded_rng,
)

BASES = (["p2"] + [f"bl{r}p2" for r in range(1, 6)]
         + [f"hirzebruch-{n}" for n in range(7)] + ["example-interesting"])
KINDS = ("base", "generic", "on-curve", "tangent")

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])


def on_curve_point(model) -> Optional[tuple[str, BlowupSpec]]:
    """A point of a curve, with every negative curve of the blow-up
    declared, and the curve.

    p2, hirzebruch-n and example-interesting at a torus-fixed point stay
    toric, so the strict transforms of the boundary (and the fibre through
    the point on hirzebruch-n) generate the effective cone.  bl_r p2 at a
    general point of E_r is a weak del Pezzo surface: its negative curves
    are the (-2)-curve left by E_r and the (-1)-classes meeting it
    non-negatively.  A model that is itself a blow-up has none."""
    family = model.metadata["family"]
    if family == "blow-up":
        return None
    if family == "hirzebruch":
        return "C0", BlowupSpec(mults={"C0": 1},
                                extra_curves=(("g", (0, 1, -1)),),
                                extra_complete=True)
    if family == "example-interesting":
        return "E1", BlowupSpec(mults={"E1": 1, "E2": 1},
                                extra_complete=True)
    if model.rank == 1:
        return "L", BlowupSpec(mults={"L": 1}, extra_complete=True)
    curve = model.curves[0].name
    plain, _, exc = blow_up(model, BlowupSpec(mults={curve: 1}))
    present = {c.cls for c in plain.curves}
    extras = tuple(
        (f"C{i}", cls) for i, cls in enumerate(
            models_mod.enumerate_minus_one_curves(model.rank))
        if cls not in present
        and pairing(plain, cls, plain.curve_class(exc)) > 0
        and pairing(plain, cls, plain.curve_class(curve)) >= 0)
    return curve, BlowupSpec(mults={curve: 1}, extra_curves=extras,
                             extra_complete=True)


def points(model) -> dict:
    """Points to blow up, by kind: generic, and on a curve with the
    blow-up's curves declared where :func:`on_curve_point` knows them;
    bl1p2 also declares the point of E tangent to a line."""
    out = {"generic": GENERIC_POINT}
    on_curve = on_curve_point(model)
    if on_curve is not None:
        out["on-curve"] = on_curve[1]
    if model.metadata.get("r") == "1" and model.has_curve("E"):
        out["tangent"] = point_on_exceptional_spec(model)
    return out


@lru_cache(maxsize=None)
def model_of(base: str, kind: str):
    """A base model or one of its blow-ups.  The tangent blow-up blows up
    the on-curve blow-up again, where the curve's strict transform meets
    the exceptional curve; it is declared complete where it stays toric."""
    model = sp.builtin(base)
    if kind == "base":
        return model
    x = points(model).get(kind)
    if x is not None:
        return blow_up(model, x)[0]
    curve, x = on_curve_point(model)
    bm, _, exc = blow_up(model, x)
    toric = model.metadata["family"] != "del-pezzo" or model.rank == 1
    return blow_up(bm, BlowupSpec(mults={exc: 1, curve: 1},
                                  extra_complete=toric))[0]


def models():
    return st.tuples(st.sampled_from(BASES), st.sampled_from(KINDS))


@lru_cache(maxsize=None)
def complete_models() -> tuple:
    """The generated models whose curve lists are declared complete: the
    walk and xi properties need every negative curve listed."""
    return tuple((b, k) for b in BASES for k in KINDS
                 if model_of(b, k).completeness_declared)


@st.composite
def big_classes(draw, model):
    """a * A + (a few non-negative multiples of effective generators), with
    A the reference class, which is big; a = 0 gives a pseudo-effective
    class that may not be big."""
    gens = model.effective_gens()
    a = draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
    d = [a * x for x in model.ample_ref]
    for _ in range(draw(st.integers(0, 3))):
        g = gens[draw(st.integers(0, len(gens) - 1))]
        c = draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        d = [x + c * y for x, y in zip(d, g)]
    if all(x == 0 for x in d):
        d = list(model.ample_ref)
    return model.divisor(d)


def combination(model, coeffs) -> tuple:
    out = [Fraction(0)] * model.rank
    for name, a in coeffs.items():
        out = [x + a * y for x, y in zip(out, model.curve_class(name))]
    return tuple(out)


@SETTINGS
@given(st.data(), models())
def test_zariski_decomposition_meets_its_definition(data, which):
    model = model_of(*which)
    d = data.draw(big_classes(model))
    pair = sp.zariski_decompose(model, d)
    n = combination(model, pair.N_coeffs)
    assert tuple(p + x for p, x in zip(pair.P, n)) == d
    assert set(pair.N_coeffs) == set(pair.support)
    assert all(a > 0 for a in pair.N_coeffs.values())
    gram = [[pairing(model, model.curve_class(a), model.curve_class(b))
             for b in pair.support] for a in pair.support]
    assert (-sympy_matrix(gram)).is_positive_definite
    for c in model.curves:
        v = pairing(model, pair.P, model.curve_class(c.name))
        assert v >= 0, (which, d, c.name)
        if c.name in pair.support:
            assert v == 0, (which, d, c.name)


@st.composite
def flags(draw, model):
    """A listed curve and a point on it: generic, or where another listed
    curve meets it."""
    flag = draw(st.sampled_from([c.name for c in model.curves]))
    meeting = [c.name for c in model.curves
               if c.name != flag and model.meet(c.name, flag) > 0]
    if meeting and draw(st.booleans()):
        other = draw(st.sampled_from(meeting))
        return flag, PointSpec(on_curve=flag, local_mults={other: 1},
                               generic=False)
    return flag, PointSpec(on_curve=flag, generic=True)


@SETTINGS
@given(st.data())
def test_walk_equals_the_per_t_oracle(data):
    which = data.draw(st.sampled_from(complete_models()))
    model = model_of(*which)
    d = data.draw(big_classes(model))
    if not sp.is_big(model, d):
        d = model.divisor([x + y for x, y in zip(d, model.ample_ref)])
    flag, point = data.draw(flags(model))
    assert_breakpoint_oracle([(which, model, d, flag, point)])
    # the CLI writes this cycle as it is: counterclockwise from its least
    # vertex
    v = sp.okounkov_polygon(model, d, flag, point).vertices
    assert v[0] == min(v), (which, d, flag)
    assert sum(p[0] * q[1] - q[0] * p[1]
               for p, q in zip(v, v[1:] + v[:1])) >= 0, (which, d, flag)


@SETTINGS
@given(st.data())
def test_xi_equals_the_full_polygons(data):
    which = data.draw(st.sampled_from(complete_models()))
    model = model_of(*which)
    x = data.draw(st.sampled_from(sorted(points(model).items())))[1]
    d = model.divisor([a + b for a, b in
                       zip(data.draw(big_classes(model)), model.ample_ref)])
    try:
        value = sp.xi(model, d, x)
    except PointInNegLocus:
        status = sp.moving_seshadri(model, d, x).status
        assert status is sp.SeshadriStatus.IN_NEG
        return
    bm, _, exc = blow_up(model, x)
    for y in [InfFlagSpec()] + [InfFlagSpec(on=n)
                                for n in exceptional_directions(bm, exc)]:
        poly = sp.infinitesimal_polygon(model, d, x, y)
        assert sp.largest_inverted_simplex(poly) == value, (which, d, y)


@st.composite
def points_on_neg(draw, model, pair):
    """A point to blow up: one of :func:`points`, or a point of the
    negative part's support, alone or where two support curves meet,
    with the strict transforms renamed or not."""
    through = list(pair.support)
    if not through or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(sorted(points(model).items())))[1]
    first = draw(st.sampled_from(through))
    mults = {first: 1}
    meeting = [n for n in through
               if n != first and model.meet(n, first) > 0]
    if meeting and draw(st.booleans()):
        mults[draw(st.sampled_from(meeting))] = 1
    renames = ({n: f"{n}~" for n in mults} if draw(st.booleans()) else {})
    return BlowupSpec(mults=mults, renames=renames)


@SETTINGS
@given(st.data())
def test_pulled_back_start_is_the_decomposition_on_the_blow_up(data):
    """N(pi*D) = sum a_C (C~ + mult_x(C) E) equals the fixpoint on the
    blow-up, coefficients and curve order, also at points of Neg(D)."""
    which = data.draw(st.sampled_from(complete_models()))
    model = model_of(*which)
    # a negative curve added to the class is likely in its negative part
    negative = [c.name for c in model.curves if c.self_int < 0]
    d = data.draw(big_classes(model))
    if negative:
        k = data.draw(st.integers(0, 2))
        c = model.curve_class(data.draw(st.sampled_from(negative)))
        d = model.divisor([a + k * b for a, b in zip(d, c)])
    pair = sp.zariski_decompose(model, d)
    x = data.draw(points_on_neg(model, pair))
    bm, pullback, exc = blow_up(model, x)
    start = _pulled_back_start(pair, x, exc)
    ch = zariski.chamber(bm, pullback(d))
    assert list(start.items()) == [(n, Fraction(c[0], ch.den))
                                   for n, c in ch.coeffs.items()]
    assert (exc in start) == bool(neg_curves_through(model, pair, x.mults))


@st.composite
def listed_points(draw, model):
    """A point to blow up: generic, on one listed curve, or where two
    listed curves meet, with multiplicities a point can have."""
    names = [c.name for c in model.curves]
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return GENERIC_POINT
    first = draw(st.sampled_from(names))
    mults = {first: draw(st.integers(1, 2))}
    meeting = [n for n in names if n != first and model.meet(n, first) > 0]
    if kind == 2 and meeting:
        mults = {first: 1, draw(st.sampled_from(meeting)): 1}
    for n, m in mults.items():
        try:
            check_multiplicity(model, n, m)
        except InconsistentMultiplicities:
            assume(False)
    return BlowupSpec(mults=mults)


def _moving_seshadri_on_the_base(model, d, x):
    """The verdicts of the base: Neg(D) from the curves of the base
    decomposition through x, then Null(D) from P.C = 0 for a curve through
    x, then xi from a walk on the blow-up at the generic y.  The second
    value is xi, or PointInNegLocus on Neg(D)."""
    pair = zariski.big_decomposition(model, d)
    assert pair is not None
    if neg_curves_through(model, pair, x.mults):
        return (sp.SeshadriStatus.IN_NEG, None), PointInNegLocus
    bm, pullback, exc = blow_up(model, x)
    walk = okounkov.chamber_walk(bm, pullback(d), exc)
    value = sp.largest_inverted_simplex(
        walk.polygon(PointSpec(on_curve=exc, generic=True)))
    if any(x.mults.get(n, 0) > 0 and v == 0
           for n, v in model.curve_pairings(pair.P).items()):
        return (sp.SeshadriStatus.IN_NULL_NOT_NEG, 0), value
    return (sp.SeshadriStatus.POSITIVE, value), value


@SETTINGS
@given(st.data())
def test_loci_on_the_blow_up_equal_those_on_the_base(data):
    """On the complete matrix models, at points generic, on a curve or
    where two meet, and big classes with a negative curve added (through
    the point when one is, so often not nef and often on Neg(D)): moving
    Seshadri constants and xi read Neg(D) and Null(D) off the
    decomposition of pi*D as the base reads them off that of D."""
    model = sp.builtin(data.draw(st.sampled_from(MATRIX_MODELS)))
    x = data.draw(listed_points(model))
    # a negative curve, through x when one is, added to a big class
    negative = [c.name for c in model.curves if c.self_int < 0]
    d = data.draw(big_classes(model))
    if negative:
        through = [n for n in negative if x.mults.get(n)]
        c = model.curve_class(data.draw(st.sampled_from(through or negative)))
        s = data.draw(st.sampled_from([1, 4]))
        k = data.draw(st.integers(0, 3))
        d = model.divisor([a / s + k * b for a, b in zip(d, c)])
    assume(sp.is_big(model, d))
    moving, xi = _moving_seshadri_on_the_base(model, d, x)
    assert sp.moving_seshadri(model, d, x) == moving
    if xi is PointInNegLocus:
        with pytest.raises(PointInNegLocus):
            sp.xi(model, d, x)
    else:
        assert sp.xi(model, d, x) == xi


@SETTINGS
@given(st.data())
def test_chamber_pairings_are_those_of_its_positive_part(data):
    """Chamber data read over its one denominator: P + N is the class part
    by part, and for every curve outside the support the stored pairings
    are those of P's value and slope with the curve (``lattice.pairing``),
    for plain chambers and for slope -C just right of a drawn t, where P
    is nef and N effective.  A zero slope changes a plain chamber only by
    its second part."""
    model = model_of(*data.draw(st.sampled_from(complete_models())))
    # the reference class plus a pseudo-effective class is big
    d = model.divisor([a + b for a, b in zip(data.draw(big_classes(model)),
                                             model.ample_ref)])
    flag = data.draw(st.sampled_from([c.name for c in model.curves]))
    slope = model.divisor([-x for x in model.curve_class(flag)])
    t = data.draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
    plain = zariski.chamber(model, d)
    zero = zariski.chamber(model, d, (Fraction(0),) * model.rank)
    assert zero.support == plain.support
    assert ({n: Fraction(c[0], zero.den) for n, c in zero.coeffs.items()}
            == {n: Fraction(c[0], plain.den)
                for n, c in plain.coeffs.items()})
    assert zero.positive_part() == plain.positive_part()
    try:
        sloped = zariski.chamber(model, d, slope, t)
    except ModelInconsistency:
        # d - (t + eps) C is not pseudo-effective; d - eps C is, as d is big
        t = Fraction(0)
        sloped = zariski.chamber(model, d, slope, t)
    # just right of t, P is nef and N is effective with that support
    assert all((n0 + t * n1, n1) >= (0, 0)
               for n0, n1 in sloped.pairings.values())
    assert all((c0 + t * c1, c1) > (0, 0)
               for c0, c1 in sloped.coeffs.values())
    for ch, parts in ((plain, [d]), (sloped, [d, slope])):
        assert len(ch.p) == len(parts)
        p = [tuple(Fraction(x, ch.den) for x in v) for v in ch.p]
        for k, part in enumerate(parts):
            n = combination(model, {c: Fraction(a[k], ch.den)
                                    for c, a in ch.coeffs.items()})
            assert tuple(x + y for x, y in zip(p[k], n)) == tuple(part)
        assert set(ch.support).isdisjoint(ch.pairings)
        for name, ints in ch.pairings.items():
            cls = model.curve_class(name)
            assert [Fraction(x, ch.den) for x in ints] == [
                pairing(model, v, cls) for v in p]


def certificate_model(base: str, kind: str) -> SurfaceModel:
    """A base or blow-up of :func:`model_of`, or bl1p2 with its curve
    classes declared as generators: with its ample reference, or with
    A = 2H + E, which pairs negatively with the declared generator E."""
    if kind not in ("declared", "declared-negative"):
        return model_of(base, kind)
    model = sp.builtin(base)
    model = model._replace(effective_generators=model.effective_gens())
    if kind == "declared-negative":
        model = model._replace(ample_ref=model.divisor((2, 1)),
                               ample_ref_is_ample=False)
    return model


CERTIFICATE_MODELS = ([(b, k) for b in MATRIX_MODELS for k in KINDS]
                      + [("bl1p2", "declared"),
                         ("bl1p2", "declared-negative")])


@pytest.mark.parametrize("which", CERTIFICATE_MODELS,
                         ids=["-".join(w) for w in CERTIFICATE_MODELS])
@settings(SETTINGS, max_examples=10)
@given(st.data(), st.sampled_from((-1, 0, 1)))
def test_pseudo_effectivity_verdict_equals_the_lp(which, data, sign):
    """The verdict of ``zariski.is_pseudo_effective``, which refuses a
    class the model's ample row pairs negatively with before any LP, equals
    the LP's, on classes d with d.A < 0, = 0 and > 0.  Every model keeps
    the row, except the one whose declared generator pairs negatively
    with A."""
    model = certificate_model(*which)
    assert (model._farkas == ((), False)) == (which[1] == "declared-negative")
    a = model.ample_ref
    raw = [data.draw(st.fractions(min_value=-3, max_value=3,
                                  max_denominator=3))
           for _ in range(model.rank)]
    # project onto A-perp, then move along A to the drawn side
    t = sign * data.draw(st.fractions(min_value=Fraction(1, 4), max_value=3,
                                      max_denominator=4))
    c = t - pairing(model, raw, a) / pairing(model, a, a)
    d = model.divisor([x + c * y for x, y in zip(raw, a)])
    assert (pairing(model, d, a) > 0) - (pairing(model, d, a) < 0) == sign
    assert zariski.is_pseudo_effective(model, d) == \
        cone_contains(model.effective_gens(), d)


# large enough that a numerator or a denominator has 40 digits
SCALE = 10**40 + 121


def scalings(d) -> list:
    """d, d times SCALE and d over SCALE: the same signs on other
    integers."""
    return [d, tuple(x * SCALE for x in d), tuple(x / SCALE for x in d)]


def positive_by_pairing(model, d, strict: bool) -> bool:
    """The nef test (strict False) or Nakai's (strict True) by
    ``lattice.pairing``: d^2, d.A and every d.C at least, or above, 0."""
    values = [pairing(model, d, d), pairing(model, d, model.ample_ref),
              *(pairing(model, d, c.cls) for c in model.curves)]
    return all(v > 0 if strict else v >= 0 for v in values)


def negative_curves_only(model) -> SurfaceModel:
    """The model with only its negative curves listed, declared
    incomplete: a class may pair non-negatively with every listed curve
    and still have d^2 < 0 or d.A < 0."""
    return model._replace(
        curves=tuple(c for c in model.curves if c.self_int < 0),
        completeness_declared=False)


@pytest.mark.parametrize("base", BASES)
def test_integer_signs_equal_the_pairing_definitions(base):
    """On a base, its generic blow-up and the base with only its negative
    curves listed: random effective classes (bumped along A or not, so
    often ample) and random integer classes, their negatives and their
    scalings.  is_nef and is_ample equal the pairing definitions, and the
    null set of loci is the set of curves P pairs to 0 with.  Each blow-up
    of :func:`points` lists as directions the negative curves C with
    C.E >= 1."""
    rng = seeded_rng(f"integer-signs-{base}")
    for model in (model_of(base, "base"), model_of(base, "generic"),
                  negative_curves_only(model_of(base, "base"))):
        # p2 and hirzebruch-0 have no negative curve to combine
        effective = [random_pseff(model, rng, ample_bump=bump)
                     for bump in (0, 0, 1, 3) if model.curves]
        for d in effective + [
                tuple(Fraction(rng.randrange(-3, 4)) for _ in model.ample_ref)
                for _ in range(4)]:
            for v in scalings(d):
                for w in (v, tuple(-x for x in v)):
                    for strict, test in ((False, zariski.is_nef),
                                         (True, zariski.is_ample)):
                        assert test(model, w) == \
                            positive_by_pairing(model, w, strict), (base, w)
                # A is not effective when only the negative curves are
                if d in effective and zariski.is_pseudo_effective(model, v):
                    pair = sp.zariski_decompose(model, v)
                    assert sp.loci(model, v).null_curves == frozenset(
                        c.name for c in model.curves
                        if pairing(model, pair.P, c.cls) == 0)
    model = sp.builtin(base)
    for x in points(model).values():
        bm, _, exc = blow_up(model, x)
        e = bm.curve_class(exc)
        assert exceptional_directions(bm, exc) == [
            c.name for c in bm.curves if c.name != exc and c.self_int < 0
            and pairing(bm, c.cls, e) >= 1]


def xi_oracle_points(model) -> list[BlowupSpec]:
    """The generic point, the points of E1, of L12 and of both, of C0 and
    of C0 and f, and of E, where the model has those curves, and the
    tangent blow-up at a point of E."""
    points = [GENERIC_POINT] + [
        BlowupSpec(mults=dict.fromkeys(names, 1))
        for names in (("E1",), ("L12",), ("E1", "L12"), ("C0",),
                      ("C0", "f"), ("E",))
        if all(model.has_curve(n) for n in names)]
    if model.has_curve("E"):
        points.append(point_on_exceptional_spec(model))
    return points


@pytest.mark.parametrize("base", ["p2"] + [f"bl{r}p2" for r in range(1, 8)]
                         + ["hirzebruch-2", "hirzebruch-5",
                            "example-interesting-base"])
def test_xi_equals_the_inverted_simplex_of_the_walk_polygons(base):
    """The route xi took before it read the nef threshold of pi*P - tE is
    its oracle: the largest inverted simplex of the walk's NOPolygon at the
    generic y and at each special direction.  Where they agree, xi and a
    positive moving Seshadri constant equal it; where they differ, xi
    refuses the model data.  On random big classes and on them times
    SCALE, at the points of :func:`xi_oracle_points`."""
    model = sp.builtin(base)
    rng = seeded_rng(f"xi-walk-{base}")
    classes = [random_big(model, rng) for _ in range(3)]
    for d in classes + [tuple(x * SCALE for x in d) for d in classes]:
        for x in xi_oracle_points(model):
            b = _blown_up(model, d, x)
            if b.exc in b.pair.N_coeffs:
                with pytest.raises(PointInNegLocus):
                    sp.xi(model, d, x)
                continue
            walk = b.walk()
            values = [okounkov.largest_inverted_simplex(
                walk.polygon(_flag_point(b.model, b.exc, y)))
                for y in [InfFlagSpec()] + [
                    InfFlagSpec(on=n)
                    for n in exceptional_directions(b.model, b.exc)]]
            if any(v != values[0] for v in values):
                with pytest.raises(ModelInconsistency,
                                   match="xi depends on the direction"):
                    sp.xi(model, d, x)
                continue
            assert sp.xi(model, d, x) == values[0], (base, d, x)
            moving = sp.moving_seshadri(model, d, x)
            if moving.status is sp.SeshadriStatus.POSITIVE:
                assert moving.value == values[0], (base, d, x)


@pytest.mark.parametrize("base", [f"bl{r}p2" for r in range(4, 9)])
def test_polygon_area_is_half_the_volume_off_toric_models(base):
    """The paper's area law, area = vol/2, on del Pezzo models that are
    not toric: the polygons of random big classes for the flags (E1, x)
    and (L12, x) at a generic point x of the flag curve, against P^2/2
    with P from Harbourne's W(E_r) reduction, which shares no code with
    the LP, the fixpoint or the walk."""
    model = sp.builtin(base)
    rng = seeded_rng(f"area-{base}")
    for d in [random_big(model, rng) for _ in range(3)]:
        p = harbourne_decompose(model, d).P
        for flag in ("E1", "L12"):
            poly = sp.okounkov_polygon(model, d, flag,
                                       PointSpec(on_curve=flag, generic=True))
            assert okounkov.polygon_area(poly) == pairing(model, p, p) / 2, \
                (base, d, flag)


@st.composite
def quadratics(draw):
    """(c2, c1, c0, lower): an integer quadratic (or linear or constant
    polynomial) with a drawn content, over a drawn denominator, and a
    rational lower bound, at times one of its rational roots.  Its
    discriminant is a square (rational roots), drawn freely, or a square
    above 1 times a non-square."""
    k = st.integers(-30, 30)
    kind = draw(st.sampled_from(["square", "free", "non-squarefree",
                                 "linear"]))
    lower = draw(st.one_of(st.integers(-40, 40), st.fractions(
        min_value=-40, max_value=40, max_denominator=6)))
    if kind == "square":  # (a*t - b)(c*t - e)
        a, b, c, e = (draw(k) for _ in range(4))
        cs = (a * c, -(a * e + b * c), b * e)
        roots = [Fraction(b, a)] if a else []
        roots += [Fraction(e, c)] if c else []
        if roots and draw(st.booleans()):
            lower = draw(st.sampled_from(roots))
    elif kind == "non-squarefree":  # a*((t - r)^2 - s^2*m)
        a = draw(k.filter(bool))
        r, s = draw(k), draw(st.integers(2, 12))
        m = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 15]))
        cs = (a, -2 * a * r, a * (r * r - s * s * m))
    elif kind == "linear":
        cs = (0, draw(k), draw(k))
    else:
        cs = (draw(k), draw(k), draw(k))
    g, q = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return (*(Fraction(g * c, q) for c in cs), lower)


@settings(SETTINGS, max_examples=400)
@given(quadratics())
def test_integer_quadratic_root_equals_the_fraction_route(args):
    try:
        want = fraction_quadratic_root(*args)
    except NoRealRoot:
        with pytest.raises(NoRealRoot):
            scalars.positive_quadratic_root(*args)
        return
    got = scalars.positive_quadratic_root(*args)
    # a Quad equals only a Quad of the same normal form (a, b, d)
    assert type(got) is type(want) and got == want, args


@st.composite
def rational_matrices(draw, symmetric: bool):
    """Square matrices of size 1 to 5 with small integer or Fraction
    entries: general, singular (the last row a combination of the first
    two), or, when symmetric, B^T diag B for a drawn B and drawn signs,
    so that definite, indefinite and degenerate forms all occur."""
    n = draw(st.integers(1, 5))
    ints = draw(st.booleans())
    entry = (st.integers(-4, 4) if ints
             else st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)))
    flat = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    if symmetric:
        diag = draw(st.lists(st.sampled_from([-2, -1, 0, 1]), min_size=n,
                             max_size=n))
        # g = B^T diag B: its inertia is that of diag when B is invertible
        rows = [[sum(rows[k][i] * diag[k] * rows[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
    elif n > 1 and draw(st.booleans()):
        c = draw(entry)
        rows[-1] = [c * a + b for a, b in zip(rows[0], rows[1])]
    return rows


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in map(Fraction, row)] for row in rows])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@SETTINGS
@given(rational_matrices(symmetric=False))
def test_elimination_agrees_with_sympy(rows):
    n = len(rows)
    g = sympy_matrix(rows)
    assert scalars.rank(rows) == g.rank()
    if n > 1:
        assert scalars.rank(rows[:-1]) == g[:-1, :].rank()
    if g.det() == 0:
        with pytest.raises(SingularMatrix):
            scalars.inverse(rows)
        return
    inv = g.inv()
    assert scalars.inverse(rows) == tuple(
        tuple(from_sympy(inv[i, j]) for j in range(n)) for i in range(n))


@SETTINGS
@given(rational_matrices(symmetric=True),
       st.lists(st.integers(-5, 5), min_size=5, max_size=5))
def test_negative_definite_agrees_with_sympy(rows, rhs):
    g = sympy_matrix(rows)
    definite = (-g).is_positive_definite
    sols = scalars.solve_negative_definite(rows, rhs[:len(rows)])
    assert (sols is not None) == definite
    if definite:
        x = g.LUsolve(sympy.Matrix(rhs[:len(rows)]))
        assert sols == (tuple(map(from_sympy, x)),)


@st.composite
def hodge_forms(draw):
    """A symmetric integer matrix of size rho <= 6 and an integer class A
    with A^2 > 0.  Most matrices are B^T diag B with diag = (1, ...), whose
    other entries are negative or, for a third of them, any of -2 ... 1,
    so that forms of signature (1, rho-1), degenerate forms (B singular)
    and forms with more positive directions all occur; the others have
    independent entries in [-3, 3]."""
    rho = draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(-3, 3), min_size=rho * rho,
                         max_size=rho * rho))
    rows = [flat[i * rho:(i + 1) * rho] for i in range(rho)]
    kind = draw(st.sampled_from(["hyperbolic", "diagonal", "free"]))
    if kind != "free":
        signs = [-2, -1] if kind == "hyperbolic" else [-2, -1, 0, 1]
        diag = [1] + draw(st.lists(st.sampled_from(signs), min_size=rho - 1,
                                   max_size=rho - 1))
        gram = [[sum(rows[k][i] * diag[k] * rows[k][j] for k in range(rho))
                 for j in range(rho)] for i in range(rho)]
    else:
        gram = [[rows[min(i, j)][max(i, j)] for j in range(rho)]
                for i in range(rho)]
    a = draw(st.lists(st.integers(-3, 3), min_size=rho, max_size=rho))
    assume(sum(x * g * y for x, row in zip(a, gram)
               for g, y in zip(row, a)) > 0)
    return gram, a


def descartes_inertia(gram) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.
    Every root of its characteristic polynomial is real, so Descartes'
    rule of signs counts the positive and the negative roots exactly."""
    cs = sympy.Matrix(gram).charpoly().all_coeffs()[::-1]

    def changes(xs):
        signs = [x > 0 for x in xs if x]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return (changes(cs), changes([c * (-1) ** k for k, c in enumerate(cs)]),
            next(k for k, c in enumerate(cs) if c))


@settings(SETTINGS, max_examples=100)
@given(hodge_forms())
def test_hodge_check_agrees_with_descartes(form):
    gram, a = form
    rho = len(gram)
    model = SurfaceModel(rank=rho,
                         basis_labels=tuple(f"e{i}" for i in range(rho)),
                         gram=tuple(map(tuple, gram)), curves=(),
                         ample_ref=scalars.vector(a))
    try:
        validate_model(model)
        accepted = True
    except InvariantViolation as e:
        assert e.invariant == "Hodge signature"
        accepted = False
    assert accepted == (descartes_inertia(gram) == (1, rho - 1, 0))
