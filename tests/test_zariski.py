from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

import surfpos as sp
from surfpos.errors import ModelInconsistency, NotBigNef, NotPseudoEffective, PointInNegLocus
from surfpos.infinitesimal import (
    GENERIC_POINT,
    BlowupSpec,
    blow_up,
    point_on_exceptional_spec,
)
from surfpos.lattice import SurfaceModel, pairing
from surfpos.zariski import (
    ample_perturbation,
    is_big,
    is_pseudo_effective,
    zariski_decompose,
)

from conftest import (
    MATRIX_MODELS,
    neg_curves_through,
    pullback_zariski_check,
    random_pseff,
    seeded_rng,
)


def test_decompose_ample_is_itself():
    p2 = sp.builtin("p2")
    pair = zariski_decompose(p2, (3,))
    assert pair.P == (Fraction(3),) and pair.N_coeffs == {}


def test_decompose_example_interesting_halfway():
    ex = sp.builtin("example-interesting")
    pair = zariski_decompose(ex, (Fraction(3, 2), 1, 1))
    assert pair.N_coeffs == {"E2": Fraction(1, 4)}
    assert pair.P == (Fraction(3, 2), Fraction(3, 4), Fraction(1))
    assert pairing(ex, pair.P, ex.curve_class("E2")) == 0
    assert pairing(ex, pair.P, ex.curve_class("E1")) == Fraction(1, 4)
    assert pairing(ex, pair.P, ex.curve_class("E3")) == Fraction(1, 2)


def test_decompose_on_null_boundary_keeps_n_zero():
    b1 = sp.builtin("bl1p2")
    pair = zariski_decompose(b1, (1, 0))
    assert pair.N_coeffs == {}
    assert pair.P == (Fraction(1), Fraction(0))


def test_not_pseudo_effective():
    b1 = sp.builtin("bl1p2")
    with pytest.raises(NotPseudoEffective):
        zariski_decompose(b1, (1, -2))
    with pytest.raises(NotPseudoEffective):
        sp.volume(b1, (-1, 0))


def test_loci_examples():
    b1 = sp.builtin("bl1p2")
    rep = sp.loci(b1, (1, 0))
    assert rep.null_curves == frozenset({"E"}) and rep.neg_curves == frozenset()
    rep2 = sp.loci(b1, (2, -1))
    assert rep2.null_curves == frozenset() and rep2.neg_curves == frozenset()
    ex = sp.builtin("example-interesting")
    rep3 = sp.loci(ex, (Fraction(3, 2), 1, 1))
    assert rep3.neg_curves == frozenset({"E2"})
    assert "E2" in rep3.null_curves


def test_positivity_predicates():
    p2 = sp.builtin("p2")
    assert sp.is_nef(p2, (1,)) and sp.is_ample(p2, (1,)) and sp.is_big(p2, (1,))
    assert sp.volume(p2, (1,)) == 1
    b1 = sp.builtin("bl1p2")
    assert sp.is_nef(b1, (1, 0)) and not sp.is_ample(b1, (1, 0))
    assert sp.is_big(b1, (1, 0)) and sp.volume(b1, (1, 0)) == 1
    ex = sp.builtin("example-interesting")
    assert sp.is_nef(ex, (1, 0, 1)) and not sp.is_ample(ex, (1, 0, 1))
    assert not sp.is_big(ex, (1, 0, 1))
    assert sp.volume(ex, (1, 0, 1)) == 0


def test_volume_via_positive_part():
    b1 = sp.builtin("bl1p2")
    # 3H + E decomposes as P = 3H, N = E
    pair = zariski_decompose(b1, (3, 1))
    assert pair.N_coeffs == {"E": Fraction(1)}
    assert pair.P == (Fraction(3), Fraction(0))
    assert sp.volume(b1, (3, 1)) == 9


def test_decompose_random_invariants():
    rng = seeded_rng("zariski")
    for name in MATRIX_MODELS:
        model = sp.builtin(name)
        for _ in range(12):
            d = random_pseff(model, rng)
            pair = zariski_decompose(model, d)
            # nefness of P
            assert sp.is_nef(model, pair.P), (name, d)
            # orthogonality and reconstruction
            n = pair.negative_part(model)
            assert pairing(model, pair.P, n) == 0
            assert tuple(x + y for x, y in zip(pair.P, n)) == tuple(d)
            # support Gram negative definite, coefficients positive
            if pair.support:
                gram = Matrix(model.gram_submatrix(pair.support))
                assert (-gram).is_positive_definite
                assert all(a > 0 for a in pair.N_coeffs.values())
            # Neg inside Null
            rep = sp.loci(model, d)
            assert rep.neg_curves <= rep.null_curves
            # idempotence
            again = zariski_decompose(model, pair.P)
            assert again.N_coeffs == {} and tuple(again.P) == tuple(pair.P)


def test_decompose_order_independent():
    ex = sp.builtin("example-interesting")
    rng = seeded_rng("shuffle")
    for _ in range(6):
        order = list(ex.curves)
        rng.shuffle(order)
        shuffled = SurfaceModel(
            rank=ex.rank, basis_labels=ex.basis_labels, gram=ex.gram,
            curves=tuple(order), ample_ref=ex.ample_ref,
            canonical=ex.canonical, completeness_declared=True,
            points={}, metadata={})
        d = (Fraction(3, 2), 1, 1)
        pair = zariski_decompose(shuffled, d)
        assert pair.N_coeffs == {"E2": Fraction(1, 4)}


def test_volume_strictly_increases_with_positive_direction():
    # for big nef D and a curve C with (D.C) > 0, adding a little C
    # increases the volume
    cases = [("p2", (1,), "L"), ("bl1p2", (2, -1), "E"),
             ("example-interesting", (2, 1, 1), "E3")]
    for name, d, cname in cases:
        model = sp.builtin(name)
        c = model.curve_class(cname)
        assert pairing(model, d, c) > 0
        eps = Fraction(1, 16)
        bumped = tuple(x + eps * y for x, y in zip(model.divisor(d), c))
        assert sp.volume(model, bumped) > sp.volume(model, d)


def test_ample_perturbation_bl1():
    b1 = sp.builtin("bl1p2")
    coeffs, scale = ample_perturbation(b1, (1, 0))
    assert coeffs == {"E": Fraction(1)}
    assert scale == Fraction(1, 2)
    direction = b1.curve_class("E")
    candidate = tuple(x - scale * c * y for (x, y), c in
                      zip(zip((Fraction(1), Fraction(0)), direction),
                          [coeffs["E"]] * 2))
    assert sp.is_ample(b1, candidate)


def test_ample_perturbation_ample_input():
    p2 = sp.builtin("p2")
    assert ample_perturbation(p2, (1,)) == ({}, Fraction(0))


def test_ample_perturbation_non_big_nef_raises_model_inconsistency():
    ex = sp.builtin("example-interesting")
    # E1 + E3 is nef with square zero: its null Gram is degenerate
    with pytest.raises(ModelInconsistency):
        ample_perturbation(ex, (1, 0, 1))


@pytest.mark.parametrize("name, keep, d, message", [
    ("bl2p2", ("E1", "E2", "L"), (1, -1, 0),
     "perturbation needs a big class"),
    ("bl1p2", ("E",), (1, -1),
     "nef class with empty null locus but zero square"),
])
def test_ample_perturbation_refuses_a_nef_class_of_square_zero(
        name, keep, d, message):
    """H - E1 is nef with square 0.  With L12 not listed, its one null
    curve E2 has a negative definite Gram matrix, so only the square
    refuses it.  On bl1p2 listing only E, H - E pairs positively with
    every listed curve, so its null locus is empty."""
    m = sp.builtin(name)
    cut = m._replace(curves=tuple(c for c in m.curves if c.name in keep),
                     completeness_declared=False)
    with pytest.raises(NotBigNef, match=message):
        ample_perturbation(cut, d)


def test_ample_perturbation_rejects_non_nef():
    b1 = sp.builtin("bl1p2")
    with pytest.raises(NotBigNef):
        ample_perturbation(b1, (0, 1))


def test_pullback_zariski_check_trivial_and_generic():
    p2 = sp.builtin("p2")
    bm, pb, exc = blow_up(p2)
    assert pullback_zariski_check(p2, bm, pb, (3,), {})
    b1 = sp.builtin("bl1p2")
    bm1, pb1, exc1 = blow_up(b1)
    assert pullback_zariski_check(b1, bm1, pb1, (1, 0), {})
    # non-trivial negative part away from the point
    assert pullback_zariski_check(b1, bm1, pb1, (3, 1), {})


def test_pullback_zariski_check_point_in_neg():
    b1 = sp.builtin("bl1p2")
    bm1, pb1, exc1 = blow_up(b1)
    with pytest.raises(PointInNegLocus):
        pullback_zariski_check(b1, bm1, pb1, (3, 1), {"E": 1})


PULLBACK_MODELS = ("p2", "bl1p2", "bl2p2", "bl3p2", "hirzebruch-0",
                   "hirzebruch-2", "example-interesting",
                   "example-interesting-base")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_pullback_of_a_big_class_is_big_and_decomposes_as_pulled_back(data):
    """The facts that let a blow-up walk skip its own LP: at a generic
    point, at a point on one curve and at a point on E of bl1p2, the
    pullback of a big class is big, and off Neg(D) its decomposition is the
    pullback of D's."""
    model = sp.builtin(data.draw(st.sampled_from(PULLBACK_MODELS)))
    specs = [GENERIC_POINT] + [BlowupSpec(mults={c.name: 1})
                               for c in model.curves]
    if model.has_curve("E"):
        specs.append(point_on_exceptional_spec(model))
    spec = data.draw(st.sampled_from(specs))
    # a non-negative combination of the curves, plus an ample class
    d = tuple(Fraction(1, 3) * a for a in model.ample_ref)
    for g in model.effective_gens():
        c = data.draw(st.fractions(0, 4, max_denominator=3))
        d = tuple(x + c * y for x, y in zip(d, g))
    assert is_big(model, d)
    bm, pullback, _ = blow_up(model, spec)
    assert is_big(bm, pullback(d))
    if not neg_curves_through(model, zariski_decompose(model, d),
                              spec.mults):
        assert pullback_zariski_check(model, bm, pullback, d, spec.mults,
                                      spec.renames)


def test_relative_marker_on_incomplete_models():
    b1 = sp.builtin("bl1p2")
    spec = BlowupSpec(mults={"E": 1})  # special point, no extra curves
    bm, pb, exc = blow_up(b1, spec)
    assert not bm.completeness_declared
    pair = zariski_decompose(bm, pb((3, -1)))
    assert pair.relative


def test_is_pseudo_effective_boundary():
    b1 = sp.builtin("bl1p2")
    assert is_pseudo_effective(b1, (1, -1))
    assert is_pseudo_effective(b1, (0, 1))
    assert not is_pseudo_effective(b1, (0, -1))
