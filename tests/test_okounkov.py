import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfpos as sp
from surfpos.cli import main
from surfpos.errors import NotBig, OutOfRange
from surfpos.infinitesimal import moving_seshadri, xi
from surfpos.lattice import PointSpec
from surfpos.scalars import Quad
from surfpos.okounkov import (
    Classification,
    classify_valuative,
    largest_inverted_simplex,
    largest_simplex,
    okounkov_polygon,
    polygon_area,
    polygon_contains,
    vertical_slice,
)
from conftest import (
    BIG_CLASSES,
    FLAGS,
    MATRIX_MODELS,
    alarm,
    assert_breakpoint_oracle,
    grid_points,
    matrix_configs,
    polygon_equal,
    seeded_rng,
)

EX_POINT = PointSpec(on_curve="E1", local_mults={"E2": 1}, generic=False)


def test_triangle_p2():
    p2 = sp.builtin("p2")
    poly = okounkov_polygon(p2, (1,), "L", PointSpec(on_curve="L",
                                                     generic=True))
    assert set(poly.vertices) == {(0, 0), (1, 0), (0, 1)}
    assert poly.nu == 0 and poly.mu == 1
    assert polygon_area(poly) == Fraction(1, 2)


def test_inverted_triangle_bl1():
    b1 = sp.builtin("bl1p2")
    poly = okounkov_polygon(b1, (1, 0), "E", PointSpec(on_curve="E",
                                                       generic=True))
    assert set(poly.vertices) == {(0, 0), (1, 0), (1, 1)}
    assert poly.mu == 1
    assert polygon_area(poly) == Fraction(1, 2)


def test_example_interesting_special_flag():
    ex = sp.builtin("example-interesting")
    poly = okounkov_polygon(ex, (2, 1, 1), "E1", EX_POINT)
    assert set(poly.vertices) == {(0, 0), (1, 1), (2, 1)}
    assert poly.mu == 2
    assert [p.support for p in poly.pieces] == [("E2",), ("E2", "E3")]
    assert poly.pieces[0].alpha == (0, Fraction(1, 2))
    assert poly.pieces[0].beta == (0, 1)
    assert poly.pieces[1].alpha == (0, Fraction(1, 2))
    assert poly.pieces[1].beta == (1, 0)
    assert polygon_area(poly) == Fraction(1, 2)
    # no horizontal or vertical edge at the origin, yet the origin is in
    assert poly.alpha(Fraction(1, 64)) > 0
    assert polygon_contains(poly, (Fraction(0), Fraction(0)))


def test_simultaneous_wall_entries_pentagon():
    # along E1, the anticanonical class of bl3p2 meets the walls of L12
    # and L13 at the same t = 1; both enter the negative part together and
    # the polygon is a pentagon
    b3 = sp.builtin("bl3p2")
    poly = okounkov_polygon(b3, (3, -1, -1, -1), "E1",
                            PointSpec(on_curve="E1", generic=True))
    assert [p.support for p in poly.pieces] == [(), ("L12", "L13")]
    assert poly.mu == 2
    assert set(poly.vertices) == {(0, 0), (2, 0), (2, 1), (1, 2), (0, 1)}
    assert polygon_area(poly) == 3
    assert sp.volume(b3, (3, -1, -1, -1)) == 6


def test_mu_sup_examples():
    assert sp.mu_sup(sp.builtin("p2"), (1,), "L") == 1
    assert sp.mu_sup(sp.builtin("example-interesting"), (2, 1, 1), "E1") == 2
    assert sp.mu_sup(sp.builtin("bl1p2"), (1, 0), "E") == 1


def test_mu_sup_not_big():
    with pytest.raises(NotBig):
        sp.mu_sup(sp.builtin("example-interesting"), (1, 0, 1), "E1")


def relative_model():
    """A declared-incomplete rank-2 lattice with a round boundary."""
    return sp.SurfaceModel(
        rank=2,
        basis_labels=("H", "C"),
        gram=((2, 1), (1, -1)),
        curves=(sp.CurveRecord(name="C", cls=(0, 1), self_int=-1),),
        ample_ref=(Fraction(1), Fraction(0)),
        effective_generators=((Fraction(0), Fraction(1)),
                              (Fraction(1), Fraction(0))),
        completeness_declared=False,
        points={}, metadata={})


def test_irrational_mu_on_relative_model():
    """Catalog models have polyhedral effective cones, so their walks end
    at rational walls; a declared-incomplete lattice with a round boundary
    exercises the quadratic-irrational endpoint end to end."""
    from surfpos.scalars import quad
    model = relative_model()
    point = PointSpec(on_curve="C", generic=True)
    poly = okounkov_polygon(model, (1, 0), "C", point)
    mu = quad(-1, 1, 3)  # positive root of 2 - 2t - t^2
    assert poly.mu == mu
    assert isinstance(poly.mu, Quad)
    # single chamber: alpha = 0, beta = 1 + t; irrational vertices, yet
    # the shoelace area collapses to the rational value vol/2 = 1
    assert [p.support for p in poly.pieces] == [()]
    assert set(poly.vertices) == {(0, 0), (mu, Fraction(0)),
                                  (mu, 1 + mu), (0, 1)}
    assert polygon_area(poly) == 1
    assert sp.volume(model, (1, 0)) == 2
    # the inverted-simplex constant is the irrational endpoint itself
    assert largest_inverted_simplex(poly) == mu
    assert largest_simplex(poly) == mu
    lo, hi = vertical_slice(poly, mu)
    assert (lo, hi) == (Fraction(0), 1 + mu)


def test_irrational_mu_of_a_large_prime_multiple_on_relative_model():
    """mu of kD, D = H, is k(-1 + sqrt(3)), a root with discriminant
    12k^2.  For the prime k = 10^9 + 7, trial division up to the square
    root of what is left would run past the alarm to find k^2."""
    k = 10**9 + 7
    with alarm(1.0, f"polygon of {k}H"):
        poly = okounkov_polygon(relative_model(), (k, 0), "C",
                                PointSpec(on_curve="C", generic=True))
    assert isinstance(poly.mu, Quad)
    assert (poly.mu.a, poly.mu.b, poly.mu.d) == (-k, k, 3)


def test_square_free_part_out_of_reach_is_out_of_range(tmp_path,
                                                       monkeypatch):
    """With trial divisors below 5 only, 12k^2, the discriminant of the
    primitive class kH + C, is out of reach: the library raises OutOfRange,
    and the CLI exits 1 with its JSON error."""
    k = 10**9 + 7
    monkeypatch.setattr(sp.scalars, "_TRIAL_LIMIT", 5)
    with pytest.raises(OutOfRange, match="no prime factor below 5$"):
        okounkov_polygon(relative_model(), (k, 1), "C",
                         PointSpec(on_curve="C", generic=True))
    path = tmp_path / "relative.json"
    sp.models.save(relative_model(), path)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["polygon", "--model", str(path), "--divisor", f"{k}H+C",
                     "--flag-curve", "C", "--point", "generic"])
    assert code == 1
    assert json.loads(err.getvalue())["error"] == "out-of-range"


SCALED_FLAGS = [((3, -1, -1, -1), "E1"), ((3, -1, -1, 0), "L12"),
                ((5, -2, -1, -1), "E2"), ((4, -1, -2, -2), "L"),
                ((2, -1, 0, 0), "L23")]


@pytest.mark.parametrize("k", [10**9 + 7, 10**40 + 121])
@pytest.mark.parametrize("cls, flag", SCALED_FLAGS)
def test_polygon_of_a_multiple_is_the_multiple_polygon(cls, flag, k):
    """Delta(kD) = k Delta(D) on bl3p2 at a generic point of the flag, for
    k a large prime.  The discriminants of the volume quadratics grow like
    k^2, so the alarm fails the test if the walk factors one that is not a
    perfect square to compare the volume root with a wall."""
    m = sp.builtin("bl3p2")
    point = PointSpec(on_curve=flag, generic=True)
    poly = okounkov_polygon(m, cls, flag, point)
    with alarm(1.0, f"polygon of {k}*{cls}"):
        scaled = okounkov_polygon(m, [k * x for x in cls], flag, point)
    assert scaled.nu == k * poly.nu and scaled.mu == k * poly.mu
    assert set(scaled.vertices) == {(k * t, k * y) for t, y in poly.vertices}


# (model, class, flag curve and point): the big classes of the matrix
# models at their first flag, and classes of the relative model, whose
# walks end at quadratic irrationals, as do their xi and moving Seshadri
# constants at a generic point
HOMOGENEITY_CASES = (
    [(name, cls, *FLAGS[name][0]) for name in MATRIX_MODELS
     for cls in BIG_CLASSES[name]]
    + [("relative", cls, "C", PointSpec(on_curve="C", generic=True))
       for cls in ((1, 0), (2, 1), (1, 1))])


@cache
def homogeneity_model(name):
    return relative_model() if name == "relative" else sp.builtin(name)


def homogeneity_values(model, d, flag, point):
    """The polygon's vertices, xi and the moving Seshadri constant of d."""
    poly = okounkov_polygon(model, d, flag, point)
    return set(poly.vertices), xi(model, d), moving_seshadri(model, d).value


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from(HOMOGENEITY_CASES),
       st.one_of(st.sampled_from((10**9 + 7, 10**40 + 121)),
                 st.integers(1, 10**40)))
def test_values_of_a_multiple_are_the_multiple_values(case, k):
    """The polygon vertices, xi and the moving Seshadri constant of kD are
    k times those of D.  An irrational root of kD has k^2 in its
    discriminant, so the alarm fails the test if the walk factors it."""
    name, cls, flag, point = case
    model = homogeneity_model(name)
    vertices, xi_d, eps_d = homogeneity_values(model, cls, flag, point)
    with alarm(1.0, f"values of {k}*{cls}"):
        scaled = homogeneity_values(model, [k * x for x in cls], flag,
                                    point)
    assert scaled == ({(k * t, k * y) for t, y in vertices},
                      k * xi_d, k * eps_d), (name, cls, k)


def test_vertical_slice_example():
    ex = sp.builtin("example-interesting")
    poly = okounkov_polygon(ex, (2, 1, 1), "E1", EX_POINT)
    lo, hi = vertical_slice(poly, Fraction(1))
    assert (lo, hi) == (Fraction(1, 2), Fraction(1))
    with pytest.raises(OutOfRange):
        vertical_slice(poly, Fraction(3))


def test_breakpoint_oracle_full_matrix():
    """Chamber-walk alpha/beta equal independent per-t decompositions,
    exactly, at every rational breakpoint and at one rational t inside
    every piece, so a wall the walk misses shows however close it is."""
    b6 = sp.builtin("bl6p2")
    assert_breakpoint_oracle(matrix_configs() + [
        ("bl6p2", b6, b6.divisor([-x for x in b6.canonical]), "E1",
         PointSpec(on_curve="E1", generic=True))])


def test_area_equals_half_volume_on_matrix():
    for name, model, d, flag_curve, point in matrix_configs():
        poly = okounkov_polygon(model, d, flag_curve, point)
        assert polygon_area(poly) == Fraction(sp.volume(model, d), 2), \
            (name, d, flag_curve)


def test_support_monotone_and_boundaries_continuous():
    for name, model, d, flag_curve, point in matrix_configs():
        poly = okounkov_polygon(model, d, flag_curve, point)
        for p1, p2 in zip(poly.pieces, poly.pieces[1:]):
            assert set(p1.support) <= set(p2.support)
            t = p1.t_hi
            assert p1.alpha[0] + p1.alpha[1] * t == \
                p2.alpha[0] + p2.alpha[1] * t
            assert p1.beta[0] + p1.beta[1] * t == \
                p2.beta[0] + p2.beta[1] * t
        # alpha convex non-decreasing, beta concave
        aslopes = [p.alpha[1] for p in poly.pieces]
        bslopes = [p.beta[1] for p in poly.pieces]
        assert all(x >= 0 for x in aslopes)
        assert all(x <= y for x, y in zip(aslopes, aslopes[1:]))
        assert all(x >= y for x, y in zip(bslopes, bslopes[1:]))


def test_positive_part_polygon_equality():
    # when the point meets no Neg(D) curve, the polygon of D equals the
    # polygon of its positive part
    cases = [
        ("bl1p2", (3, 1), "L", PointSpec(on_curve="L", generic=True)),
        ("bl1p2", (3, 1), "F", PointSpec(on_curve="F", generic=True)),
        ("hirzebruch-2", (2, 3), "f", PointSpec(on_curve="f", generic=True)),
        ("example-interesting", (Fraction(3, 2), 1, 1), "E1",
         PointSpec(on_curve="E1", local_mults={"E3": 1}, generic=False)),
    ]
    for name, d, flag_curve, point in cases:
        model = sp.builtin(name)
        d = model.divisor(d)
        pair = sp.zariski_decompose(model, d)
        assert flag_curve not in pair.support
        assert not (set(pair.support) & point.through())
        p_poly = okounkov_polygon(model, pair.P, flag_curve, point)
        d_poly = okounkov_polygon(model, d, flag_curve, point)
        assert polygon_equal(p_poly, d_poly), (name, d)


def test_slice_length_independent_of_point():
    ex = sp.builtin("example-interesting")
    pts = [EX_POINT,
           PointSpec(on_curve="E1", local_mults={"E3": 1}, generic=False),
           PointSpec(on_curve="E1", generic=True)]
    polys = [okounkov_polygon(ex, (2, 1, 1), "E1", p) for p in pts]
    for t in grid_points(polys[0]):
        lengths = {polys[i].beta(t) - polys[i].alpha(t)
                   for i in range(len(polys))}
        assert len(lengths) == 1


def test_nu_positive_walk_hirzebruch():
    h2 = sp.builtin("hirzebruch-2")
    point = PointSpec(on_curve="C0", generic=True)
    poly = okounkov_polygon(h2, (2, 3), "C0", point)
    assert poly.nu == Fraction(1, 2)
    assert poly.mu == 2
    assert polygon_area(poly) == Fraction(9, 4)
    assert sp.volume(h2, (2, 3)) == Fraction(9, 2)


def test_shift_property():
    p2 = sp.builtin("p2")
    assert sp.shift_check(p2, (1,), "L",
                          PointSpec(on_curve="L", generic=True),
                          Fraction(1, 2))
    ex = sp.builtin("example-interesting")
    assert sp.shift_check(ex, (2, 1, 1), "E1",
                          PointSpec(on_curve="E1", generic=True),
                          Fraction(1))
    assert sp.shift_check(ex, (2, 1, 1), "E1", EX_POINT, Fraction(1, 2))
    h2 = sp.builtin("hirzebruch-2")
    assert sp.shift_check(h2, (1, 3), "f",
                          PointSpec(on_curve="f", generic=True),
                          Fraction(3, 4))


def test_shift_property_random_matrix_samples():
    rng = seeded_rng("shift")
    configs = matrix_configs()
    rng.shuffle(configs)
    for name, model, d, flag_curve, point in configs[:8]:
        flag = model.curve_class(flag_curve)
        t0 = Fraction(rng.randrange(1, 4), 8)
        shifted = tuple(x - t0 * y for x, y in zip(d, flag))
        if not sp.is_big(model, shifted):
            continue
        assert sp.shift_check(model, d, flag_curve, point, t0), \
            (name, d, flag_curve, t0)


def test_criterion_at_point_examples():
    b1 = sp.builtin("bl1p2")
    res = sp.criterion_at_point(b1, (1, 0), "E",
                                PointSpec(on_curve="E", generic=True))
    assert res["origin_in"] and res["lambda"] == 0

    p2 = sp.builtin("p2")
    res2 = sp.criterion_at_point(p2, (1,), "L",
                                 PointSpec(on_curve="L", generic=True))
    assert res2["origin_in"] and res2["lambda"] == 1

    ex = sp.builtin("example-interesting")
    res3 = sp.criterion_at_point(ex, (2, 1, 1), "E1", EX_POINT)
    assert res3["origin_in"] and res3["lambda"] == 0


def test_criteria_match_loci_on_matrix():
    """Origin membership detects the negative locus; a positive largest
    simplex detects the null locus, including the boundary case of a
    point on Null minus Neg (origin in, lambda = 0)."""
    for name, model, d, flag_curve, point in matrix_configs():
        res = sp.criterion_at_point(model, d, flag_curve, point)
        rep = sp.loci(model, d)
        through = set(point.through()) | {flag_curve}
        neg_at_x = bool(through & rep.neg_curves)
        null_at_x = bool(through & rep.null_curves)
        assert res["origin_in"] == (not neg_at_x), (name, d, flag_curve)
        assert (res["lambda"] > 0) == (not null_at_x), (name, d, flag_curve)


def test_classify_valuative():
    p2 = sp.builtin("p2")
    poly = okounkov_polygon(p2, (1,), "L", PointSpec(on_curve="L",
                                                     generic=True))
    assert classify_valuative(poly, (Fraction(1, 3), Fraction(1, 3))) \
        == Classification.CERTIFIED_INTERIOR
    assert classify_valuative(poly, (Fraction(1, 2), Fraction(0)), lam=1) \
        == Classification.CERTIFIED_HORIZONTAL
    assert classify_valuative(poly, (Fraction(0), Fraction(1, 2)), lam=1) \
        == Classification.CERTIFIED_VERTICAL
    assert classify_valuative(poly, (Fraction(1, 2), Fraction(1, 2))) \
        == Classification.BOUNDARY_UNKNOWN
    assert classify_valuative(poly, (Fraction(2), Fraction(0))) \
        == Classification.OUTSIDE

    b1 = sp.builtin("bl1p2")
    inv = okounkov_polygon(b1, (1, 0), "E", PointSpec(on_curve="E",
                                                      generic=True))
    assert classify_valuative(inv, (Fraction(1, 2), Fraction(1, 2)),
                              xi=1, infinitesimal=True) \
        == Classification.CERTIFIED_DIAGONAL
    assert classify_valuative(inv, (Fraction(1, 2), Fraction(0)),
                              xi=1, infinitesimal=True) \
        == Classification.CERTIFIED_HORIZONTAL


def test_simplex_constants_maximal_against_containment_oracle():
    # convexity: a triangle sits inside the polygon iff its corners do;
    # the computed constants admit their triangle and refuse a 1/64 bump
    eps = Fraction(1, 64)
    for name, model, d, flag_curve, point in matrix_configs():
        poly = okounkov_polygon(model, d, flag_curve, point)
        for value, corners in [
            (largest_simplex(poly),
             lambda s: [(0, 0), (s, 0), (0, s)]),
            (largest_inverted_simplex(poly),
             lambda s: [(0, 0), (s, 0), (s, s)]),
        ]:
            if isinstance(value, Quad):
                continue
            if value > 0:
                assert all(polygon_contains(poly, (Fraction(a), Fraction(b)))
                           for a, b in corners(value))
            bumped = corners(value + eps)
            assert not all(polygon_contains(poly, (Fraction(a), Fraction(b)))
                           for a, b in bumped), (name, d, flag_curve, value)


def test_transversal_pair_corollary():
    # two curves meeting transversally at x: a horizontal segment at the
    # origin in both polygons certifies x off the null locus, and it
    # appears in both exactly when loci() says so
    ex = sp.builtin("example-interesting")
    x_on_e1 = PointSpec(on_curve="E1", local_mults={"E2": 1}, generic=False)
    x_on_e2 = PointSpec(on_curve="E2", local_mults={"E1": 1}, generic=False)
    ample = (5, 2, 4)
    lam1 = sp.criterion_at_point(ex, ample, "E1", x_on_e1)["lambda"]
    lam2 = sp.criterion_at_point(ex, ample, "E2", x_on_e2)["lambda"]
    assert lam1 > 0 and lam2 > 0
    assert not (sp.loci(ex, ample).null_curves & {"E1", "E2"})
    # for pi*H the point E1 ^ E2 lies on null curves and the horizontal
    # segment disappears from the E1-flag polygon
    big = (2, 1, 1)
    assert {"E1", "E2"} <= sp.loci(ex, big).null_curves
    assert sp.criterion_at_point(ex, big, "E1", x_on_e1)["lambda"] == 0


def test_generic_polygons_flag_independent_within_class():
    # symmetric model, symmetric class: generic flags on exchangeable
    # curves produce identical polygons (the very-general local-constancy
    # substitute on combinatorial data)
    b2 = sp.builtin("bl2p2")
    d = (3, -1, -1)
    p1 = okounkov_polygon(b2, d, "E1", PointSpec(on_curve="E1",
                                                 generic=True))
    p2 = okounkov_polygon(b2, d, "E2", PointSpec(on_curve="E2",
                                                 generic=True))
    assert polygon_equal(p1, p2)
    # and a generic point spec on one curve is reproducible
    p3 = okounkov_polygon(b2, d, "E1", PointSpec(on_curve="E1",
                                                 generic=True))
    assert polygon_equal(p1, p3) and p1.pieces == p3.pieces


def test_flag_reentry_guard():
    # the walk refuses a chamber in which the flag curve itself enters the
    # negative part past the wall (corrupt model data): 3H + E pairs to -1
    # with E, so the fixpoint run just right of t = 0 from an empty support
    # takes E in
    from surfpos import okounkov as ok
    from surfpos.errors import FlagCurveReenters
    b1 = sp.builtin("bl1p2")
    with pytest.raises(FlagCurveReenters, match="past t=0"):
        ok._walk_from(b1, b1.divisor((3, 1)), "E", {})


def test_largest_simplex_and_inverted():
    b1 = sp.builtin("bl1p2")
    poly = okounkov_polygon(b1, (2, -1), "E", PointSpec(on_curve="E",
                                                        generic=True))
    assert largest_simplex(poly) == 1
    inv = okounkov_polygon(b1, (1, 0), "E", PointSpec(on_curve="E",
                                                      generic=True))
    assert largest_inverted_simplex(inv) == 1
