"""Tests of the benchmark's checks: each accepts a correct answer and
rejects a perturbed one.

    python3 surfbench/selftest.py          # or: python3 -m pytest surfbench/selftest.py
"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import surfpos as sp  # noqa: E402
from surfpos.lattice import PointSpec  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed, Lattice, Surd  # noqa: E402
from workloads import anti_k, combo, poly_data  # noqa: E402

F = Fraction


def rejects(fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except CheckFailed:
        return True
    return False


def _decomposition():
    m = sp.builtin("bl3p2")
    d = combo(m, [(1, anti_k(m)), (2, "E1"), (1, "L23")])
    pair = sp.zariski_decompose(m, d)
    return m, Lattice.of(m), d, pair.P, dict(pair.N_coeffs)


def test_decomposition_accepts_and_rejects_shifted_p():
    m, lat, d, P, N = _decomposition()
    assert N, "the test class needs a negative part"
    checks.check_decomposition(lat, d, P, N)
    e2 = lat.cls["E2"]
    shifted = tuple(p + c for p, c in zip(P, e2))
    assert rejects(checks.check_decomposition, lat, d, shifted, N)
    # shifting P by a support curve and N back keeps D = P + N; the
    # orthogonality P.N_i = 0 must then fail
    name = next(iter(N))
    c = lat.cls[name]
    moved = dict(N, **{name: N[name] - 1})
    assert rejects(checks.check_decomposition, lat, d,
                   tuple(p + x for p, x in zip(P, c)), moved)


def test_decomposition_rejects_negative_coefficient_and_bad_support():
    m, lat, d, P, N = _decomposition()
    name = next(iter(N))
    assert rejects(checks.check_decomposition, lat, d, P,
                   dict(N, **{name: -N[name]}))
    # a support that is not negative definite: add a line (square +1) to N
    lat2 = Lattice(lat.gram, lat.curves + [("Lgen", (1, 0, 0, 0))], lat.ample)
    assert rejects(checks.check_decomposition, lat2, d,
                   tuple(p - x for p, x in zip(P, (1, 0, 0, 0))),
                   dict(N, Lgen=F(1)))


def test_own_decomposition_matches_surfpos():
    m, lat, d, P, N = _decomposition()
    P2, N2 = checks.decompose(lat, d)
    assert tuple(P2) == tuple(P) and N2 == N


def test_not_pseff_check():
    m = sp.builtin("bl4p2")
    lat = Lattice.of(m)
    gens = m.effective_gens()
    outside = combo(m, [(-1, "L"), (1, "E1")])
    checks.check_not_pseff(lat, outside, gens)
    inside = combo(m, [(1, "L"), (2, "E3")])
    assert rejects(checks.check_not_pseff, lat, inside, gens)


def test_not_pseff_check_on_a_system_sympy_solves_wrongly():
    """sympy's linprog claims a feasible point here; the certificate
    check must still accept the (correct) "not pseudo-effective" verdict."""
    from surfpos.infinitesimal import BlowupSpec

    m = sp.blow_up(sp.builtin("bl4p2"),
                   BlowupSpec(mults={"E1": 1, "L12": 1}))[0]
    d = m.divisor((0, -3, -1, -1, 2, -2))
    assert not sp.cone_contains(m.effective_gens(), d)
    checks.check_not_pseff(Lattice.of(m), d, m.effective_gens())


def _polygon(name="bl3p2", flag="E1", mults=None):
    m = sp.builtin(name)
    d = combo(m, [(1, anti_k(m)), (1, "E2")])
    point = PointSpec(on_curve=flag, local_mults=mults or {},
                      generic=not mults)
    res = sp.criterion_at_point(m, d, flag, point)
    return m, Lattice.of(m), d, flag, dict(mults or {}), res


def test_polygon_accepts_and_rejects_moved_vertex():
    m, lat, d, flag, mults, res = _polygon(mults={"L12": 1})
    poly = poly_data(res["polygon"])
    checked = checks.check_polygon(lat, d, flag, mults, poly)
    origin_in, lam = checks.expected_lambda(checked)
    assert origin_in == res["origin_in"] and lam == Surd.of(res["lambda"])
    for i in range(len(poly["vertices"])):
        for dt, dy in ((F(1, 64), 0), (0, F(1, 64))):
            verts = list(poly["vertices"])
            t, y = verts[i]
            verts[i] = (t + dt, y + dy)
            bad = dict(poly, vertices=verts)
            assert rejects(checks.check_polygon, lat, d, flag, mults, bad), \
                (i, dt, dy)


def test_polygon_rejects_wrong_slope_and_wrong_mu():
    m, lat, d, flag, mults, res = _polygon()
    poly = poly_data(res["polygon"])
    t_lo, t_hi, alpha, beta = poly["pieces"][0]
    bad = dict(poly, pieces=[(t_lo, t_hi, alpha, (beta[0], beta[1] + F(1, 64)))]
               + poly["pieces"][1:])
    assert rejects(checks.check_polygon, lat, d, flag, mults, bad)
    last = poly["pieces"][-1]
    mu = poly["mu"] + F(1, 64)
    bad = dict(poly, mu=mu, pieces=poly["pieces"][:-1] +
               [(last[0], mu, last[2], last[3])])
    assert rejects(checks.check_polygon, lat, d, flag, mults, bad)


def test_polygon_with_irrational_mu():
    """A declared-incomplete lattice whose walk ends at mu = sqrt(3) - 1
    (catalog models only have rational walls)."""
    from surfpos.lattice import CurveRecord, SurfaceModel

    m = SurfaceModel(
        rank=2, basis_labels=("H", "C"), gram=((2, 1), (1, -1)),
        curves=(CurveRecord(name="C", cls=(0, 1), self_int=-1),),
        ample_ref=(F(1), F(0)),
        effective_generators=((F(0), F(1)), (F(1), F(0))),
        completeness_declared=False, points={}, metadata={})
    d = (F(1), F(0))
    poly = poly_data(sp.okounkov_polygon(m, d, "C", PointSpec(on_curve="C")))
    assert poly["mu"] == Surd(-1, 1, 3)
    lat = Lattice.of(m)
    checked = checks.check_polygon(lat, d, "C", {}, poly)
    assert checks.expected_xi(checked) == Surd(-1, 1, 3)
    verts = [(t, y + F(1, 64)) if not t.is_rational() else (t, y)
             for t, y in poly["vertices"]]
    assert rejects(checks.check_polygon, lat, d, "C", {},
                   dict(poly, vertices=verts))


def test_lambda_and_xi_reject_offsets():
    m, lat, d, flag, mults, res = _polygon()
    checked = checks.check_polygon(lat, d, flag, mults,
                                   poly_data(res["polygon"]))
    _, lam = checks.expected_lambda(checked)
    assert lam == Surd.of(res["lambda"])
    assert not lam == Surd.of(res["lambda"]) + F(1, 64)
    m = sp.builtin("bl3p2")
    d = anti_k(m)
    xi = sp.xi(m, d)
    poly = poly_data(sp.infinitesimal_polygon(m, d))
    bm, pullback, exc = sp.blow_up(m)
    checked = checks.check_polygon(Lattice.of(bm), pullback(d), exc, {}, poly)
    assert checks.expected_xi(checked) == Surd.of(xi)
    assert not checks.expected_xi(checked) == Surd.of(xi) + F(1, 2)


def test_moving_seshadri_rejects_value_off_by_half():
    m = sp.builtin("bl6p2")
    lat = Lattice.of(m)
    d = anti_k(m)
    v = F(3, 2)  # Broustet; the program's value is checked by the benchmark
    checks.check_moving_seshadri(lat, d, {}, "positive", v, broustet_r=6,
                                 ample_value=Surd.of(sp.seshadri_direct(m, d)))
    assert rejects(checks.check_moving_seshadri, lat, d, {}, "positive",
                   v + F(1, 2), broustet_r=6)
    m = sp.builtin("bl3p2")
    lat = Lattice.of(m)
    d = combo(m, [(2, anti_k(m)), (1, "L")])
    res = sp.moving_seshadri(m, d)
    direct = Surd.of(sp.seshadri_direct(m, d))
    checks.check_moving_seshadri(lat, d, {}, res.status.value, res.value,
                                 ample_value=direct)
    assert rejects(checks.check_moving_seshadri, lat, d, {}, "positive",
                   Surd.of(res.value) + F(1, 2), ample_value=direct)


def test_moving_seshadri_status_against_loci():
    m = sp.builtin("bl3p2")
    lat = Lattice.of(m)
    d = combo(m, [(1, anti_k(m)), (2, "E1")])  # E1 in the negative part
    checks.check_moving_seshadri(lat, d, {"E1": 1}, "in-neg", None)
    assert rejects(checks.check_moving_seshadri, lat, d, {"E1": 1},
                   "positive", F(1))
    h = combo(m, [(1, "L")])  # nef, E1 in the null locus
    checks.check_moving_seshadri(lat, h, {"E1": 1}, "in-null-not-neg", F(0))
    assert rejects(checks.check_moving_seshadri, lat, h, {"E1": 1},
                   "in-neg", None)


def test_nef_cone_rejects_dropped_ray():
    for name, r in (("bl3p2", 3), ("bl4p2", 4), ("example-interesting", None)):
        m = sp.builtin(name)
        lat = Lattice.of(m)
        gens = m.effective_gens()
        cone = sp.dual_cone(gens, m)
        checks.check_nef_cone(lat, gens, cone.generators, cone.facet_normals,
                              del_pezzo_r=r)
        for i in range(len(cone.generators)):
            rays = cone.generators[:i] + cone.generators[i + 1:]
            assert rejects(checks.check_nef_cone, lat, gens, rays,
                           cone.facet_normals, del_pezzo_r=r), (name, i)
        assert rejects(checks.check_nef_cone, lat, gens, cone.generators,
                       cone.facet_normals[1:], del_pezzo_r=r)


def test_generic_bound_enumeration():
    for deg, tau in ((F(5), F(2)), (F(7), F(4, 3)), (F(10), F(3)),
                     (F(12), F(10, 3))):
        res = sp.generic_seshadri_bound(
            sp.GenericBoundQuery(deg, tau, exclude_q1=True))
        wit, q_max = checks.generic_bound_witnesses(deg, tau)
        assert list(res.witnesses) == wit and res.q_range == (2, q_max)
        assert res.holds == (not wit)


def test_blowup_model_check():
    from surfpos.models import model_to_dict

    m = sp.builtin("bl3p2")
    bm, _, exc = sp.blow_up(m)
    doc = model_to_dict(bm)
    doc["exceptional"] = exc
    checks.check_blowup_model(Lattice.of(m), doc, del_pezzo_r=3)
    short = dict(doc, curves=[c for c in doc["curves"] if c["name"] != "L12"])
    assert rejects(checks.check_blowup_model, Lattice.of(m), short,
                   del_pezzo_r=3)


def test_surd_arithmetic():
    a = Surd(1, 1, 2)
    assert a * a == Surd(3, 2, 2)
    assert Surd(F(3, 2)) < a < Surd(F(3, 2), 0) + F(1, 2) * 2
    assert (a - a).sign() == 0 and Surd(-2, 1, 2).sign() < 0
    assert a.lower() < a


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        fn()
        print("ok", name)
    print(f"{len(tests)} passed")
