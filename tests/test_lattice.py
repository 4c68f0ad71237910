from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfpos as sp
from surfpos.errors import (
    DimensionMismatch,
    InconsistentMultiplicities,
    NotFullDimensional,
)
from surfpos.infinitesimal import point_on_exceptional_spec
from surfpos.lattice import (
    CurveRecord,
    PointSpec,
    cone_contains,
    dual_cone,
    pairing,
    validate_point,
)
from surfpos.models import BUILTIN_NAMES

from conftest import MATRIX_MODELS, seeded_rng


def test_pairing_examples():
    p2 = sp.builtin("p2")
    assert pairing(p2, (1,), (1,)) == 1
    b1 = sp.builtin("bl1p2")
    assert pairing(b1, (1, -1), (1, -1)) == 0
    ex = sp.builtin("example-interesting")
    assert pairing(ex, (2, 1, 1), (2, 1, 1)) == 1


def test_pairing_dimension_mismatch():
    p2 = sp.builtin("p2")
    with pytest.raises(DimensionMismatch):
        pairing(p2, (1, 0), (1,))


def test_pairing_symmetric_bilinear_random():
    rng = seeded_rng("bilinear")
    for name in ("bl2p2", "example-interesting", "hirzebruch-2"):
        model = sp.builtin(name)
        for _ in range(25):
            u = tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                      for _ in range(model.rank))
            v = tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                      for _ in range(model.rank))
            w = tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                      for _ in range(model.rank))
            c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            assert pairing(model, u, v) == pairing(model, v, u)
            uv = tuple(x + c * y for x, y in zip(u, v))
            assert pairing(model, uv, w) == \
                pairing(model, u, w) + c * pairing(model, v, w)


def test_cone_contains_examples():
    b1 = sp.builtin("bl1p2")
    gens = [(0, 1), (1, -1)]  # E and H - E
    assert cone_contains(gens, (1, 0))
    assert not cone_contains(gens, (1, -2))
    p2 = sp.builtin("p2")
    assert not cone_contains([(1,)], (-1,))
    assert cone_contains([(1,)], (0,))
    del b1, p2


def test_cone_contains_matches_nef_pairing_duality():
    # membership in the effective cone agrees with pairing against the
    # dual rays, on random integer classes
    rng = seeded_rng("cone-dual")
    for name in MATRIX_MODELS:
        model = sp.builtin(name)
        gens = model.effective_gens()
        cone = dual_cone(gens, model)
        for _ in range(20):
            v = tuple(Fraction(rng.randrange(-4, 5))
                      for _ in range(model.rank))
            by_lp = cone_contains(gens, v)
            by_dual = all(
                pairing(model, v, tuple(map(Fraction, r))) >= 0
                for r in cone.generators)
            assert by_lp == by_dual, (name, v)


def test_dual_cone_bl1():
    b1 = sp.builtin("bl1p2")
    cone = dual_cone([(0, 1), (1, -1)], b1)
    assert set(cone.generators) == {(1, 0), (1, -1)}
    assert set(cone.facet_normals) == {(0, 1), (1, -1)}


def test_dual_cone_p2():
    p2 = sp.builtin("p2")
    cone = dual_cone([(1,)], p2)
    assert cone.generators == ((1,),)
    assert cone.facet_normals == ((1,),)


def test_dual_cone_example_interesting():
    """The nef cone of the two-step blow-up.

    The extreme-ray set is {pi*H, pi*H + E3, E1 + E3}: the class
    pi*H + E1 + E3 is the sum of the first and third of these (both lie on
    the facet pairing to zero with E1), hence lies on that facet but is not
    extremal.  All four classes are nef and together they generate the
    same cone.
    """
    ex = sp.builtin("example-interesting")
    cone = dual_cone([c.cls for c in ex.curves], ex)
    assert set(cone.generators) == {(2, 1, 1), (2, 1, 2), (1, 0, 1)}
    four = [(2, 1, 1), (2, 1, 2), (3, 1, 2), (1, 0, 1)]
    for w in four:
        assert sp.is_nef(ex, w)
    # (3,1,2) is redundant: generated by the extreme rays
    assert cone_contains([tuple(map(Fraction, r)) for r in cone.generators],
                         tuple(map(Fraction, (3, 1, 2))))
    # and conversely the four classes generate the dual cone
    for r in cone.generators:
        assert cone_contains([tuple(map(Fraction, w)) for w in four],
                             tuple(map(Fraction, r)))


def test_dual_cone_round_trip_matrix_models():
    # bl7p2/bl8p2 are excluded: their nef cones have 702 and tens of
    # thousands of extreme rays, far past the suite's runtime budget
    for name in MATRIX_MODELS + ["bl4p2", "bl5p2", "bl6p2", "hirzebruch-3"]:
        model = sp.builtin(name)
        gens = model.effective_gens()
        cone = dual_cone(gens, model)
        back = dual_cone([tuple(map(Fraction, r)) for r in cone.generators],
                         model)
        # same cone: mutual containment
        for r in back.generators:
            assert cone_contains(gens, tuple(map(Fraction, r))), (name, r)
        for g in gens:
            assert cone_contains(
                [tuple(map(Fraction, r)) for r in back.generators], g), name
        # dual generators all pair >= 0 against facet normals
        for r in cone.generators:
            for f in cone.facet_normals:
                assert pairing(model, tuple(map(Fraction, r)),
                               tuple(map(Fraction, f))) >= 0


@pytest.mark.parametrize("name, n_rays, n_facets, split", [
    ("bl5p2", 26, 16, {(1, 3): 16, (0, 2): 10}),
    ("bl6p2", 99, 27, {(1, 3): 72, (0, 2): 27}),
    ("bl7p2", 702, 56, {(1, 3): 576, (0, 2): 126}),
])
def test_dual_cone_del_pezzo_nef_cone(name, n_rays, n_facets, split):
    """The nef cone of bl_r p2, r = 5..7: its facets are the (-1)-curves,
    and its rays split by (D^2, -K.D) into the classes of the blow-downs to
    P^2, (1, 3), and of the conic bundles, (0, 2)."""
    model = sp.builtin(name)
    cone = dual_cone(model.effective_gens(), model)
    assert len(cone.generators) == n_rays
    assert len(cone.facet_normals) == n_facets
    assert set(cone.facet_normals) == {c.cls for c in model.curves
                                       if c.self_int == -1}
    minus_k = [-x for x in model.canonical]
    assert Counter((pairing(model, r, r), pairing(model, minus_k, r))
                   for r in cone.generators) == split


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _neg(v):
    return tuple(-x for x in v)


@pytest.mark.parametrize("name, gens, rays, facets", [
    ("p2", [(1,), (-1,)], (), ((-1,), (1,))),
    ("bl2p2", [E1, _neg(E1), E2, E3], ((0, -1, 0), (0, 0, -1)),
     (_neg(E1), E1)),
    ("bl2p2", [E1, _neg(E1), E2, _neg(E2), E3], ((0, 0, -1),), ()),
    ("bl2p2", [E1, _neg(E1), E2, _neg(E2), E3, _neg(E3)], (), ()),
])
def test_dual_cone_degenerate(name, gens, rays, facets):
    """Generator sets with opposite pairs: the dual cone is lower
    dimensional, and it has facets only when it spans rho - 1 dimensions."""
    cone = dual_cone(gens, sp.builtin(name))
    assert cone.generators == rays
    assert cone.facet_normals == facets


def test_dual_cone_not_full_dimensional():
    b1 = sp.builtin("bl1p2")
    with pytest.raises(NotFullDimensional):
        dual_cone([(1, 0)], b1)


def test_ample_ref_positive_on_matrix_models():
    for name in MATRIX_MODELS:
        model = sp.builtin(name)
        for c in model.curves:
            assert pairing(model, model.ample_ref, c.cls) > 0, (name, c.name)


TABLE_MODELS = BUILTIN_NAMES + ("bl3p2 blown up", "tangent blow-up")


@cache
def table_model(name):
    if name == "bl3p2 blown up":
        return sp.blow_up(sp.builtin("bl3p2"))[0]
    if name == "tangent blow-up":
        base = sp.builtin("example-interesting-base")
        return sp.blow_up(base, point_on_exceptional_spec(base))[0]
    return sp.builtin(name)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_curve_table_agrees_with_pairing(data):
    """Every read of a model's curve table equals the plain pairing of the
    classes, as a Fraction."""
    model = table_model(data.draw(st.sampled_from(TABLE_MODELS)))
    d = tuple(data.draw(st.fractions(-20, 20, max_denominator=12))
              for _ in range(model.rank))
    pairs = model.curve_pairings(d)
    assert list(pairs) == [c.name for c in model.curves]
    for c in model.curves:
        assert type(pairs[c.name]) is Fraction
        assert pairs[c.name] == pairing(model, d, c.cls)
    a = data.draw(st.sampled_from(model.curves))
    b = data.draw(st.sampled_from(model.curves))
    assert type(model.meet(a.name, b.name)) is Fraction
    assert model.meet(a.name, b.name) == pairing(model, a.cls, b.cls)


def fraction_pairing(model, d1, d2):
    """d1^T . gram . d2 as a double sum of Fraction products."""
    return sum((Fraction(a) * model.gram[i][j] * Fraction(b)
                for i, a in enumerate(d1) for j, b in enumerate(d2)),
               Fraction(0))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_integer_pairing_agrees_with_fraction_sum(data):
    """pairing scales both classes to integers; its value is the plain
    Fraction double sum, as a Fraction, on every builtin."""
    model = sp.builtin(data.draw(st.sampled_from(BUILTIN_NAMES)))
    entry = st.fractions(-20, 20, max_denominator=12)
    d1, d2 = (tuple(data.draw(entry) for _ in range(model.rank))
              for _ in range(2))
    value = pairing(model, d1, d2)
    assert type(value) is Fraction
    assert value == fraction_pairing(model, d1, d2)
    with pytest.raises(DimensionMismatch):
        pairing(model, d1 + (Fraction(1, 2),), d2)


def test_validate_point_needs_a_curve_of_non_negative_genus():
    """A point lies on its flag curve and on every curve with a positive
    local intersection there, with multiplicity at least 1, which needs
    p_a >= 0: C^2 + K.C + 2 >= 0.  The record D of class 2E on bl1p2 has
    -4 - 2 + 2 = -4, so no point lies on an irreducible curve of that
    class."""
    b1 = sp.builtin("bl1p2")
    m = b1._replace(curves=b1.curves + (
        CurveRecord(name="D", cls=(0, 2), self_int=-4),))
    validate_point(m, PointSpec(on_curve="F", local_mults={"E": 1},
                                generic=False))
    for p in (PointSpec(on_curve="D"),
              PointSpec(on_curve="F", local_mults={"D": 1}, generic=False)):
        with pytest.raises(InconsistentMultiplicities,
                           match="no point of D has multiplicity 1"):
            validate_point(m, p)
