"""Toric moment polygons as a closed-form oracle for the chamber walk.

Let a smooth projective toric surface have rays v_1 ... v_k in cyclic
order and D = sum a_i D_i.  For the flag (D_j, D_j cap D_l), l = j +- 1,
the Newton-Okounkov polygon of a big D, nef or not, is the image of the
moment polygon P_D = {m : <m, v_i> >= -a_i} under
m -> (<m, v_j> + a_j, <m, v_l> + a_l) (Lazarsfeld and Mustata, *Convex
bodies associated to linear series*, 2009, Prop. 6.1).  The fans below
are written out by hand and checked against the models: the curve
classes, the self-intersections v_{j-1} + v_{j+1} = -D_j^2 v_j, and the
relations sum <m, v_i> D_i = 0.  The only negative curves of a toric
surface are its invariant ones, so the point D_j cap D_l lies on no
negative curve but D_j and D_l.

The polygons of random big classes, some of them not nef, on every flag
of a listed curve must have the oracle's vertices, and area vol/2.

The same proposition gives the infinitesimal polygons at a torus-fixed
point x = D_j cap D_l.  The blow-up at x is toric with the new ray
v_j + v_l, and pi*D = sum a_i D~_i + (a_j + a_l) E, so the polygon of the
flag (E, E cap D~_j) is the image of P_D under
m -> (<m, v_j + v_l> + a_j + a_l, <m, v_j> + a_j).  In the coordinates
p = <m, v_j> + a_j, q = <m, v_l> + a_l of the vertex of x, the inverted
simplex of size s is {p, q >= 0, p + q <= s}.  So xi is the lesser lattice
length of P_D's two edges at that vertex, which for ample D is the
Seshadri constant at x (Di Rocco, *Generation of k-jets on toric
varieties*, Math. Z. 231, 1999), and x lies on the negative locus exactly
when that vertex is not in P_D.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import surfpos as sp
from surfpos.errors import PointInNegLocus
from surfpos.lattice import BlowupSpec, InfFlagSpec, PointSpec
from surfpos.okounkov import largest_inverted_simplex, polygon_area

from conftest import seeded_rng


def hirzebruch(n):
    """f, C0, f, and the unlisted section C_inf = C0 + n f; a class is
    x C0 + y f = x C0 + y f_1."""
    return ([((1, 0), "f", (0, 1)), ((0, 1), "C0", (1, 0)),
             ((-1, n), "f", (0, 1)), ((0, -1), None, (1, n))],
            lambda d: (d[1], d[0], 0, 0))


# each ray: (v, listed curve or None, class), and the coefficients a_i
# of a class in the model basis (H, E_1, ...) or (C0, f); H = L12 + E1 + E2
FANS = {
    "p2": ([((1, 0), "L", (1,)), ((0, 1), "L", (1,)),
            ((-1, -1), "L", (1,))],
           lambda d: (d[0], 0, 0)),
    "bl1p2": ([((1, 0), "F", (1, -1)), ((1, 1), "E", (0, 1)),
               ((0, 1), "F", (1, -1)), ((-1, -1), "L", (1, 0))],
              lambda d: (0, d[1], 0, d[0])),
    "bl2p2": ([((1, 0), None, (1, -1, 0)), ((1, 1), "E1", (0, 1, 0)),
               ((0, 1), "L12", (1, -1, -1)), ((-1, 0), "E2", (0, 0, 1)),
               ((-1, -1), None, (1, 0, -1))],
              lambda d: (0, d[0] + d[1], d[0], d[0] + d[2], 0)),
    "bl3p2": ([((1, 0), "L13", (1, -1, 0, -1)), ((1, 1), "E1", (0, 1, 0, 0)),
               ((0, 1), "L12", (1, -1, -1, 0)), ((-1, 0), "E2", (0, 0, 1, 0)),
               ((-1, -1), "L23", (1, 0, -1, -1)),
               ((0, -1), "E3", (0, 0, 0, 1))],
              lambda d: (0, d[0] + d[1], d[0], d[0] + d[2], 0, d[3])),
    **{f"hirzebruch-{n}": hirzebruch(n) for n in range(11)},
}


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def combination(coeffs, classes):
    return tuple(sum((a * c[i] for a, c in zip(coeffs, classes)), Fraction(0))
                 for i in range(len(classes[0])))


@pytest.mark.parametrize("name", FANS)
def test_fan_matches_the_model(name):
    model = sp.builtin(name)
    rays, coeffs = FANS[name]
    vs, classes = [r[0] for r in rays], [r[2] for r in rays]
    for j, (v, curve, cls) in enumerate(rays):
        prev, nxt = vs[j - 1], vs[(j + 1) % len(vs)]
        square = sp.pairing(model, cls, cls)
        assert tuple(p + q for p, q in zip(prev, nxt)) == \
            tuple(-square * x for x in v), (name, j)
        if curve is not None:
            assert model.curve(curve).cls == cls, (name, curve)
    for m in ((1, 0), (0, 1)):
        assert not any(combination([dot(m, v) for v in vs], classes))
    d = model.divisor(range(2, 2 + model.rank))
    assert combination(coeffs(d), classes) == d


def moment_vertices(rays, a):
    """The vertices of {m : <m, v_i> >= -a_i}: the intersections of two
    boundary lines that satisfy every inequality."""
    out = set()
    for i, (u, ai) in enumerate(zip(rays, a)):
        for w, aj in zip(rays[i + 1:], a[i + 1:]):
            det = u[0] * w[1] - u[1] * w[0]
            if det == 0:
                continue
            m = (Fraction(-ai * w[1] + aj * u[1], det),
                 Fraction(-aj * u[0] + ai * w[0], det))
            if all(dot(m, v) >= -b for v, b in zip(rays, a)):
                out.add(m)
    return out


def flags(model, rays):
    """(j, l, point): the flag curve of ray j and its point on ray l."""
    for j, (_, curve, _) in enumerate(rays):
        if curve is None:
            continue
        for l in (j - 1, (j + 1) % len(rays)):
            other = rays[l][1]
            mults = {other: 1} if other is not None and \
                model.curve(other).self_int < 0 else {}
            yield j, l % len(rays), PointSpec(on_curve=curve,
                                              local_mults=mults,
                                              generic=not mults)


def big_classes(model, classes, rng, count):
    """k A + sum c_i D_i with the ample reference A, k > 0 and c_i >= 0:
    big, and not nef when some c_i on a negative curve is large."""
    out = []
    for _ in range(count):
        c = [Fraction(rng.randrange(0, 7), rng.randrange(1, 3))
             for _ in classes]
        k = Fraction(rng.randrange(1, 4), 2)
        d = combination(c, classes)
        out.append(model.divisor(x + k * y
                                 for x, y in zip(d, model.ample_ref)))
    return out


def test_polygons_are_the_toric_moment_polygons():
    rng = seeded_rng("toric")
    not_nef = 0
    for name, (rays, coeffs) in FANS.items():
        model = sp.builtin(name)
        vs, classes = [r[0] for r in rays], [r[2] for r in rays]
        for d in big_classes(model, classes, rng, 3):
            assert sp.is_big(model, d), (name, d)
            not_nef += not sp.is_nef(model, d)
            a = coeffs(d)
            moment = moment_vertices(vs, a)
            half_vol = sp.volume(model, d) / 2
            for j, l, point in flags(model, rays):
                want = {(dot(m, vs[j]) + a[j], dot(m, vs[l]) + a[l])
                        for m in moment}
                poly = sp.okounkov_polygon(model, d, rays[j][1], point)
                assert set(poly.vertices) == want, (name, d, j, l)
                assert polygon_area(poly) == half_vol, (name, d, j, l)
    # 23 of the 45 classes are not nef
    assert not_nef >= 20


@pytest.mark.parametrize("name", ["bl2p2", "bl3p2", "hirzebruch-0",
                                  "hirzebruch-1", "hirzebruch-3"])
def test_infinitesimal_invariants_at_fixed_points_are_toric(name):
    """At every torus-fixed point of two listed curves, with y on either:
    the infinitesimal polygon is the sheared moment polygon, mu' its
    largest first coordinate, xi the lesser edge length at the vertex of
    x (largest_inverted_simplex of the polygon), and for ample D the
    Seshadri constant is that length too."""
    rng = seeded_rng(f"toric-fixed-{name}")
    model = sp.builtin(name)
    rays, coeffs = FANS[name]
    vs, classes = [r[0] for r in rays], [r[2] for r in rays]
    for d in big_classes(model, classes, rng, 3):
        a = coeffs(d)
        moment = moment_vertices(vs, a)
        for j in range(len(rays)):
            l = (j + 1) % len(rays)
            cj, cl = rays[j][1], rays[l][1]
            if cj is None or cl is None:
                continue
            x = BlowupSpec(mults={cj: 1, cl: 1})
            local = {(dot(m, vs[j]) + a[j], dot(m, vs[l]) + a[l])
                     for m in moment}
            # the second coordinate is the order along the curve of y:
            # p on D~_j, q on D~_l
            for y, second in [(cj, 0), (cl, 1)]:
                want = {(p + q, (p, q)[second]) for p, q in local}
                poly = sp.infinitesimal_polygon(model, d, x, InfFlagSpec(y))
                assert set(poly.vertices) == want, (name, d, j, y)
            assert sp.mu_prime(model, d, x) == max(t for t, _ in want)
            if (0, 0) not in local:
                with pytest.raises(PointInNegLocus):
                    sp.xi(model, d, x)
                assert sp.moving_seshadri(model, d, x).status is \
                    sp.SeshadriStatus.IN_NEG
                continue
            edge = min(max(q for p, q in local if p == 0),
                       max(p for p, q in local if q == 0))
            assert sp.xi(model, d, x) == edge == \
                largest_inverted_simplex(poly), (name, d, j)
            if sp.is_ample(model, d):
                assert sp.seshadri_direct(model, d, x) == edge, (name, d, j)
