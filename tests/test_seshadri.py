from fractions import Fraction

import pytest

import surfpos as sp
from surfpos.errors import InvalidQuery, MissingCanonical, NonIntegralInput, NotAmple, NotNef
from surfpos.lattice import PointSpec, dual_cone, pairing
from surfpos.scalars import quad
from surfpos.seshadri import (
    GenericBoundQuery,
    default_free_bundle,
    free_multiple,
    generic_seshadri_bound,
    largest_simplex_flag,
    largest_simplex_search,
    seshadri_direct,
)

from conftest import alarm, seeded_rng


def test_seshadri_direct_examples():
    p2 = sp.builtin("p2")
    assert seshadri_direct(p2, (1,)) == 1
    assert seshadri_direct(p2, (2,)) == 2
    b1 = sp.builtin("bl1p2")
    assert seshadri_direct(b1, (2, -1)) == 1
    b2 = sp.builtin("bl2p2")
    assert seshadri_direct(b2, (3, -1, -1)) == 2


@pytest.mark.parametrize("k", [10**9 + 7, 10**40 + 121])
def test_seshadri_cap_of_a_large_prime_multiple_factors_no_square(k):
    """The cap sqrt((kA)^2) = k*sqrt(A^2) of A = 3H - E on bl1p2 has 8k^2
    under the root; for a prime k, trial division of 8k^2 would run past
    the alarm, or raise OutOfRange, before F = H - E gives 2k."""
    with alarm(1.0, f"seshadri_direct of {k}*(3H - E)"):
        assert seshadri_direct(sp.builtin("bl1p2"), (3 * k, -k)) == 2 * k


def test_seshadri_rejects_non_nef():
    b1 = sp.builtin("bl1p2")
    with pytest.raises(NotNef):
        seshadri_direct(b1, (0, 1))


def test_seshadri_cap_is_sqrt_of_degree():
    # on p2 with A = 3H the line bound 3 equals the cap sqrt(9)
    p2 = sp.builtin("p2")
    assert seshadri_direct(p2, (3,)) == 3
    # hirzebruch-0 = P1 x P1, A = C0 + f: bound from rulings is 1
    h0 = sp.builtin("hirzebruch-0")
    assert seshadri_direct(h0, (1, 1)) == 1


def test_seshadri_homogeneity():
    cases = [("p2", (1,)), ("bl1p2", (2, -1)), ("bl2p2", (3, -1, -1)),
             ("hirzebruch-2", (1, 3))]
    for name, a in cases:
        model = sp.builtin(name)
        eps = seshadri_direct(model, a)
        for k in (Fraction(1, 2), 2, 3):
            scaled = tuple(Fraction(k) * x for x in model.divisor(a))
            assert seshadri_direct(model, scaled) == k * eps, (name, a, k)


def test_largest_simplex_flag_examples():
    p2 = sp.builtin("p2")
    assert largest_simplex_flag(p2, (1,), "L",
                                PointSpec(on_curve="L", generic=True)) == 1
    b1 = sp.builtin("bl1p2")
    lam = largest_simplex_flag(b1, (2, -1), "E",
                               PointSpec(on_curve="E", generic=True))
    assert lam == 1


def test_largest_simplex_not_ample():
    b1 = sp.builtin("bl1p2")
    with pytest.raises(NotAmple):
        largest_simplex_flag(b1, (1, 0), "E",
                             PointSpec(on_curve="E", generic=True))


def test_lambda_below_epsilon_on_matrix():
    cases = [
        ("p2", (1,), [("L", PointSpec(on_curve="L", generic=True))]),
        ("p2", (2,), [("L", PointSpec(on_curve="L", generic=True))]),
        ("bl1p2", (2, -1), [("E", PointSpec(on_curve="E", generic=True)),
                            ("F", PointSpec(on_curve="F", generic=True)),
                            ("L", PointSpec(on_curve="L", generic=True))]),
        ("bl2p2", (3, -1, -1),
         [("E1", PointSpec(on_curve="E1", generic=True)),
          ("L12", PointSpec(on_curve="L12", generic=True))]),
        ("hirzebruch-2", (1, 3),
         [("C0", PointSpec(on_curve="C0", generic=True)),
          ("f", PointSpec(on_curve="f", generic=True))]),
        ("example-interesting", (5, 2, 4),
         [("E1", PointSpec(on_curve="E1", generic=True)),
          ("E2", PointSpec(on_curve="E2", generic=True))]),
    ]
    for name, a, flags in cases:
        model = sp.builtin(name)
        # the flags describe distinct generic points; epsilon at a generic
        # point bounds each per-flag simplex constant
        eps = seshadri_direct(model, a)
        for flag_curve, point in flags:
            lam = largest_simplex_flag(model, a, flag_curve, point)
            assert lam <= eps, (name, a, flag_curve)
        assert largest_simplex_search(model, a, flags) <= eps


def test_generic_bound_quintic():
    res = generic_seshadri_bound(GenericBoundQuery(degree=Fraction(5),
                                                   target=Fraction(2),
                                                   exclude_q1=True))
    assert res.holds and res.witnesses == ()
    res2 = generic_seshadri_bound(GenericBoundQuery(
        degree=Fraction(5), target=Fraction(21, 10), exclude_q1=True))
    assert not res2.holds
    assert (4, 2) in res2.witnesses


def _brute_generic_bound(d: Fraction, tau: Fraction):
    """The q range and the witnesses (p, q) by direct search, on integers:
    d = a/b and tau = c/e, so p^2 >= d*q*(q-1) is p^2*b >= a*q*(q-1),
    p/q < tau is p*e < c*q, and q < d/(d - tau^2) is
    q*(a*e^2 - c^2*b) < a*e^2.  For each q, p runs down from c*q/e until
    p^2 is too small, which it stays for every smaller p."""
    a, b, c, e = d.numerator, d.denominator, tau.numerator, tau.denominator
    q_max = 1
    while (q_max + 1) * (a * e * e - c * c * b) < a * e * e:
        q_max += 1
    witnesses = []
    for q in range(2, q_max + 1):
        found = []
        for p in range(c * q // e, 0, -1):
            if p * p * b < a * q * (q - 1):
                break
            if p * e < c * q:
                found.append((p, q))
        witnesses += reversed(found)
    return witnesses, q_max


def test_generic_bound_matches_direct_search():
    """Every degree n/k (n < 60, k in 1, 2, 3, 7) and target n/k (n < 40,
    k in 1, 2, 3, 5) with target^2 below the degree."""
    degrees = {Fraction(n, k) for n in range(1, 60) for k in (1, 2, 3, 7)}
    targets = {Fraction(n, k) for n in range(1, 40) for k in (1, 2, 3, 5)}
    for d in degrees:
        for tau in targets:
            if tau * tau >= d:
                continue
            witnesses, q_max = _brute_generic_bound(d, tau)
            res = generic_seshadri_bound(GenericBoundQuery(
                degree=d, target=tau, exclude_q1=True))
            assert (res.holds, res.witnesses, res.q_range) == \
                (not witnesses, tuple(witnesses), (2, q_max)), (d, tau)


def test_generic_bound_invalid_queries():
    with pytest.raises(InvalidQuery):
        generic_seshadri_bound(GenericBoundQuery(degree=Fraction(1),
                                                 target=Fraction(1),
                                                 exclude_q1=True))
    with pytest.raises(InvalidQuery):
        generic_seshadri_bound(GenericBoundQuery(degree=Fraction(5),
                                                 target=Fraction(2),
                                                 exclude_q1=False))


def test_generic_bound_small_degree():
    res = generic_seshadri_bound(GenericBoundQuery(degree=Fraction(2),
                                                   target=Fraction(1),
                                                   exclude_q1=True))
    assert res.holds and res.q_range[1] < 2


def test_generic_bound_witness_exactness_and_exhaustiveness():
    rng = seeded_rng("genericbound")
    for _ in range(12):
        d = Fraction(rng.randrange(2, 12))
        tau = Fraction(rng.randrange(2, int(4 * d ** Fraction(1, 2)) + 2), 4)
        if tau * tau >= d:
            continue
        res = generic_seshadri_bound(GenericBoundQuery(degree=d, target=tau,
                                                       exclude_q1=True))
        for p, q in res.witnesses:
            assert Fraction(p, q) < tau
            assert p * p >= d * q * (q - 1)
        # brute-force oracle over a larger q window
        brute = set()
        for q in range(2, 10 * int(d) + 1):
            p = 1
            while Fraction(p, q) < tau:
                if p * p >= d * q * (q - 1):
                    brute.add((p, q))
                p += 1
        assert brute == set(res.witnesses), (d, tau)


def test_free_multiple_examples():
    p2 = sp.builtin("p2")
    cone = dual_cone(p2.effective_gens(), p2)
    assert free_multiple(cone, (3,), p2) == 3
    b1 = sp.builtin("bl1p2")
    cone1 = dual_cone(b1.effective_gens(), b1)
    assert free_multiple(cone1, (3, -1), b1) == 2
    # minimality witness: the ample class 2H - E pairs 1 with the facet
    # normal H - E, so m = 1 would fail for b = 3H - E
    assert sp.is_ample(b1, (2, -1))
    assert pairing(b1, (2, -1), (1, -1)) == 1
    assert pairing(b1, (3, -1), (1, -1)) == 2
    assert free_multiple(cone1, (0, 0), b1) == 0


def test_free_multiple_guarantee_and_monotone():
    rng = seeded_rng("freemult")
    for name in ("p2", "bl1p2", "bl2p2", "hirzebruch-2"):
        model = sp.builtin(name)
        cone = dual_cone(model.effective_gens(), model)
        for _ in range(8):
            b = tuple(Fraction(rng.randrange(-3, 4))
                      for _ in range(model.rank))
            m = free_multiple(cone, b, model)
            # guarantee: m*xi - b is nef for integral ample xi samples
            # (positive combinations of all rays are interior, hence ample)
            for _ in range(4):
                weights = [rng.randrange(1, 4) for _ in cone.generators]
                xi = tuple(
                    sum(w * Fraction(r[i]) for w, r in
                        zip(weights, cone.generators))
                    for i in range(model.rank))
                assert sp.is_ample(model, xi)
                shifted = tuple(m * x - y for x, y in zip(xi, b))
                assert sp.is_nef(model, shifted), (name, b, xi)
            # monotonicity along the nef order
            bump = cone.generators[rng.randrange(len(cone.generators))]
            b2 = tuple(x + Fraction(r) for x, r in zip(b, bump))
            assert free_multiple(cone, b2, model) >= m


def test_free_multiple_non_integral():
    p2 = sp.builtin("p2")
    cone = dual_cone(p2.effective_gens(), p2)
    with pytest.raises(NonIntegralInput):
        free_multiple(cone, (Fraction(1, 2),), p2)


def test_default_free_bundle():
    p2 = sp.builtin("p2")
    assert default_free_bundle(p2, (1,)) == (Fraction(1),)
    b1 = sp.builtin("bl1p2")
    assert default_free_bundle(b1, (2, -1)) == (Fraction(5), Fraction(-3))
    with pytest.raises(NotAmple):
        default_free_bundle(b1, (0, 0))
    h = sp.builtin("hirzebruch-2")
    no_k = sp.SurfaceModel(
        rank=h.rank, basis_labels=h.basis_labels, gram=h.gram,
        curves=h.curves, ample_ref=h.ample_ref, canonical=None,
        completeness_declared=True, points={}, metadata={})
    with pytest.raises(MissingCanonical):
        default_free_bundle(no_k, (1, 3))


def test_seshadri_equals_xi_with_irrational_cap_guard():
    # the cap sqrt(A^2) can be irrational; it only binds when below the
    # curve bounds, and stays exact either way
    b1 = sp.builtin("bl1p2")
    eps = seshadri_direct(b1, (2, -1))
    assert eps == 1  # cap sqrt(3) does not bind
    assert quad(0, 1, 3) > eps


# Broustet (2006): at a point x on no (-1)-curve of a del Pezzo surface
# bl_r p2 (for r = 7 also off the ramification curve of the anticanonical
# double cover), epsilon(-K, x) is 2 for 1 <= r <= 5, 3/2 for r = 6 and
# 4/3 for r = 7; it is 3 on p2 and 2 on P1 x P1.  The generic point of a
# model is such a point: its blow-up lists the (-1)-curves of a surface
# blown up at r + 1 general points.  The witness is the curve of the
# blow-up, class C - m*E, that attains the constant: -K.C / m.
ANTICANONICAL_SESHADRI = [
    ("p2", Fraction(3), (1, -1)),
    *((f"bl{r}p2", Fraction(2), (1, -1) + (0,) * (r - 1) + (-1,))
      for r in range(1, 6)),
    ("bl6p2", Fraction(3, 2), (3,) + (-1,) * 6 + (-2,)),
    ("bl7p2", Fraction(4, 3), (6,) + (-2,) * 7 + (-3,)),
    ("hirzebruch-0", Fraction(2), (0, 1, -1)),
]


@pytest.mark.parametrize("name, value, witness", ANTICANONICAL_SESHADRI,
                         ids=[c[0] for c in ANTICANONICAL_SESHADRI])
def test_anticanonical_seshadri_constants_at_the_generic_point(
        name, value, witness):
    m = sp.builtin(name)
    k = m.divisor([-x for x in m.canonical])
    *base, e = witness
    assert pairing(m, k, base) / -e == value
    bm = sp.blow_up(m)[0]
    assert witness in {c.cls for c in bm.curves}
    assert seshadri_direct(m, k) == value
    res = sp.moving_seshadri(m, k)
    assert res.status is sp.SeshadriStatus.POSITIVE and res.value == value
