import copy
import io
import json
import pickle
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import surfpos as sp
from surfpos import infinitesimal, zariski
from surfpos.cli import main
from surfpos.errors import (
    InconsistentMultiplicities,
    ModelInconsistency,
    NotBig,
    PointInNegLocus,
)
from surfpos.infinitesimal import (
    GENERIC_POINT,
    BlowupSpec,
    InfFlagSpec,
    SeshadriStatus,
    blow_up,
)
from surfpos.lattice import (
    GenericFamily,
    PointSpec,
    dual_cone,
    int_pairing,
    pairing,
    self_intersection,
)
from surfpos.okounkov import polygon_area, polygon_contains

from conftest import seeded_rng
from test_weyl import nef_rays

EX_SPEC = BlowupSpec(mults={"E": 1},
                     extra_curves=(("E3", (1, -1, -1)),),
                     extra_complete=True,
                     exceptional_name="E1",
                     renames={"E": "E2"})


def test_blow_up_p2_generic():
    p2 = sp.builtin("p2")
    bm, pb, exc = blow_up(p2)
    assert bm.rank == 2
    assert bm.gram == ((1, 0), (0, -1))
    assert pb((3,)) == (3, 0)
    classes = {c.cls for c in bm.curves}
    assert (0, 1) in classes and (1, -1) in classes
    assert bm.completeness_declared


def test_blow_up_names_members_of_families_with_one_hint_apart():
    """P1 x P1 with both rulings as families named "f": each acquires a
    member through the point, and the two members get distinct names."""
    m = sp.builtin("hirzebruch-0")
    two = m._replace(generic_families=(
        GenericFamily(cls=(0, 1), mult=1, name_hint="f"),
        GenericFamily(cls=(1, 0), mult=1, name_hint="f")))
    bm, _, exc = blow_up(two)
    assert exc == "E1"
    assert [(c.name, c.cls) for c in bm.curves[3:]] == [
        ("f1", (0, 1, -1)), ("f2", (1, 0, -1))]


def test_generic_blow_up_of_p1xp1_lists_both_rulings():
    """Both rulings of P1 x P1 have a member through the point, so C0 - E
    is a curve of the generic blow-up."""
    bm, _, _ = blow_up(sp.builtin("hirzebruch-0"))
    assert zariski.is_pseudo_effective(bm, (1, 0, -1))


def test_mu_prime_of_p1xp1_reaches_both_rulings():
    """C0 + f - 2E = (C0 - E) + (f - E) is effective, and
    vol(C0 + f - tE) = (2 - t)^2 on [1, 2], so mu' is 2."""
    assert sp.mu_prime(sp.builtin("hirzebruch-0"), (1, 1)) == 2


def test_blow_up_on_exceptional_reproduces_two_step_model():
    b1 = sp.builtin("bl1p2")
    bm, pb, exc = blow_up(b1, EX_SPEC)
    assert exc == "E1"
    # gram in the (E1, E2, E3) sub-basis matches the direct model
    names = ["E1", "E2", "E3"]
    sub = bm.gram_submatrix(names)
    assert sub == ((-1, 1, 1), (1, -2, 0), (1, 0, -1))
    assert pb((1, 0)) == (1, 0, 0)
    # pi*H in curve coordinates: (H,E,E1) class of 2E1+E2+E3
    two_step = tuple(2 * a + b + c for a, b, c in zip(
        bm.curve_class("E1"), bm.curve_class("E2"), bm.curve_class("E3")))
    assert two_step == (1, 0, 0)
    assert not bm.ample_ref_is_ample


def test_blow_up_inconsistent_mults():
    b1 = sp.builtin("bl1p2")
    # E and F meet only at... E.F = 1, so mults 1 and 2 are impossible
    with pytest.raises(InconsistentMultiplicities):
        blow_up(b1, BlowupSpec(mults={"E": 1, "F": 2}))


def test_blow_up_refuses_multiplicities_no_point_has():
    """Adjunction: a point of multiplicity m on a curve C needs
    m(m-1) <= C^2 + K.C + 2.  That is 0 for the smooth rational E1 of
    bl2p2, and 2 for a cubic on p2, which may have a node."""
    bl2 = sp.builtin("bl2p2")
    for mult in (2, 3, 10**17):
        with pytest.raises(InconsistentMultiplicities,
                           match=f"no point of E1 has multiplicity {mult}$"):
            blow_up(bl2, BlowupSpec(mults={"E1": mult}))
    assert blow_up(bl2, BlowupSpec(mults={"E1": 1}))[2] == "E3"
    p2 = sp.builtin("p2")
    cubic = p2._replace(curves=p2.curves + (
        sp.CurveRecord(name="C", cls=(3,), self_int=9),))
    assert blow_up(cubic, BlowupSpec(mults={"C": 2}))[0].curve("C").cls \
        == (3, -2)
    with pytest.raises(InconsistentMultiplicities):
        blow_up(cubic, BlowupSpec(mults={"C": 3}))


def test_blow_up_refuses_an_extra_curve_of_negative_genus():
    """A declared extra curve stands for an irreducible curve, so it needs
    p_a >= 0, that is T^2 + K.T + 2 >= 0.  For T = H - E1 - N E3 on bl2p2
    blown up at a point of E1 this is -N(N - 1), negative for N = 17*10^15.
    The tangent line E3 = H - E - E1 of the example has p_a = 0."""
    spec = BlowupSpec(mults={"E1": 1},
                      extra_curves=(("T", (1, -1, 0, -17 * 10**15)),))
    bl2 = sp.builtin("bl2p2")
    with pytest.raises(InconsistentMultiplicities,
                       match="no point of T has multiplicity 1$"):
        blow_up(bl2, spec)
    d = bl2.divisor((3, -1, -1))
    with pytest.raises(InconsistentMultiplicities):
        sp.moving_seshadri(bl2, d, spec)
    with pytest.raises(InconsistentMultiplicities):
        sp.mu_prime(bl2, d, spec)
    bm = blow_up(sp.builtin("example-interesting-base"), EX_SPEC)[0]
    assert bm.curve("E3").cls == (1, -1, -1)


def test_blow_up_rejects_non_integral_input():
    """A non-integral extra class or multiplicity is an error, even when
    truncating it would give an integral self-intersection."""
    half = Fraction(1, 2)
    with pytest.raises(InconsistentMultiplicities,
                       match="non-integral class"):
        blow_up(sp.builtin("bl1p2"), BlowupSpec(
            mults={"E": 1}, extra_curves=(("X", (half, half, -1)),)))
    with pytest.raises(InconsistentMultiplicities,
                       match="bad multiplicity for 'E1'"):
        blow_up(sp.builtin("bl2p2"), BlowupSpec(mults={"E1": half}))


def test_blow_up_of_bl8_is_not_complete():
    # nine general points: the negative-curve list is infinite, so the
    # generic blow-up of bl8p2 degrades to a relative model
    bm, pb, exc = blow_up(sp.builtin("bl8p2"))
    assert not bm.completeness_declared
    assert bm.metadata["family"] == "blow-up"


def test_blow_up_pulls_back_declared_generators():
    """bl2p2 with L12 dropped from the curve list but kept among declared
    generators: the blow-up declares the pullbacks of the generators and
    its own curves, so a pulled-back class is big exactly when the base
    class is."""
    m = sp.builtin("bl2p2")
    base = m._replace(
        curves=tuple(c for c in m.curves if c.name != "L12"),
        effective_generators=tuple(m.curve_class(c.name) for c in m.curves))
    bm, pb, exc = blow_up(base, BlowupSpec(mults={"E2": 1}))
    assert bm.effective_generators == (
        tuple(pb(g) for g in base.effective_generators)
        + tuple(bm.curve_class(c.name) for c in bm.curves))
    d = tuple(a + b / 3 for a, b in zip(m.curve_class("L12"), m.ample_ref))
    assert sp.is_big(base, d)
    assert sp.is_big(bm, pb(d)) == sp.is_big(base, d)
    # mu' walks on the blow-up, whose LP now finds the class
    assert sp.mu_prime(base, d, BlowupSpec(mults={"E2": 1})) > 0


def test_blown_up_model_round_trips(tmp_path):
    b1 = sp.builtin("bl1p2")
    bm, pb, exc = blow_up(b1, EX_SPEC)
    path = tmp_path / "two-step.json"
    sp.save(bm, path)
    loaded = sp.load(path)
    assert loaded == bm
    assert not loaded.ample_ref_is_ample


def test_blow_up_is_kept_for_equal_specs():
    """Specs with the same value, as distinct objects with their dicts in
    another order and a zero multiplicity added, give the same blow-up."""
    m = sp.builtin("bl3p2")
    first = blow_up(m, BlowupSpec(mults={"E1": 1, "L12": 1},
                                  renames={"E1": "A", "L12": "B"}))
    again = blow_up(m, BlowupSpec(mults={"E2": 0, "L12": 1, "E1": 1},
                                  renames={"L12": "B", "E1": "A"}))
    assert again is first
    assert blow_up(m) is blow_up(m, BlowupSpec(mults={"E1": 0}))


@pytest.mark.parametrize("change", [
    {"renames": {"E": "E2"}},
    {"extra_curves": (("E3", (1, -1, -1)),)},
    {"extra_complete": True},
    {"exceptional_name": "X"},
])
def test_blow_up_specs_that_differ_build_their_own(change):
    b1 = sp.builtin("bl1p2")
    plain = BlowupSpec(mults={"E": 1})
    bm = blow_up(b1, plain)[0]
    other = blow_up(b1, plain._replace(**change))[0]
    assert other is not bm and other != bm
    assert blow_up(b1, plain)[0] is bm


def test_failing_blow_up_is_not_kept(monkeypatch):
    b1 = sp.builtin("bl1p2")
    blow_up(b1)
    # the multiplicities are checked before the look-up: this spec has the
    # generic point's key, but names no curve of the model
    with pytest.raises(InconsistentMultiplicities):
        blow_up(b1, BlowupSpec(mults={"X": 0}))
    builds = []
    build = infinitesimal._build_blow_up

    def counted(*args):
        builds.append(args[1])
        return build(*args)

    monkeypatch.setattr(infinitesimal, "_build_blow_up", counted)
    bad = BlowupSpec(extra_curves=(("X", (1, 0)),))
    for _ in range(2):
        with pytest.raises(InconsistentMultiplicities):
            blow_up(b1, bad)
    assert builds == [bad, bad]


def test_model_with_blow_ups_pickles_copies_and_saves_as_before(tmp_path):
    m = sp.builtin("bl3p2")
    sp.save(m, tmp_path / "before.json")
    bm = blow_up(m)[0]
    blow_up(m, BlowupSpec(mults={"E1": 1}))
    sp.xi(m, (3, -1, -1, -1))
    sp.save(m, tmp_path / "after.json")
    assert (tmp_path / "after.json").read_text() == \
        (tmp_path / "before.json").read_text()
    assert m == m._replace()
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m),
                 copy.copy(m)):
        assert twin == m
        assert blow_up(twin)[0] == bm


def test_infinitesimal_polygon_p2():
    p2 = sp.builtin("p2")
    poly = sp.infinitesimal_polygon(p2, (1,))
    assert set(poly.vertices) == {(0, 0), (1, 0), (1, 1)}
    assert polygon_area(poly) == Fraction(1, 2)


def test_infinitesimal_polygon_example():
    base = sp.builtin("example-interesting-base")
    poly = sp.infinitesimal_polygon(base, (1, 0), EX_SPEC,
                                    InfFlagSpec(on="E2"))
    assert set(poly.vertices) == {(0, 0), (1, 1), (2, 1)}
    gen = sp.generic_infinitesimal_polygon(base, (1, 0), EX_SPEC)
    assert set(gen.vertices) == {(0, 0), (1, Fraction(1, 2)), (2, 0)}
    assert polygon_area(gen) == Fraction(1, 2)
    # same vertex t-coordinates for the special and generic polygons
    assert sp.vertex_t_coordinates(poly) == sp.vertex_t_coordinates(gen) \
        == [0, 1, 2]


def test_mu_prime_examples():
    p2 = sp.builtin("p2")
    assert sp.mu_prime(p2, (1,)) == 1
    b1 = sp.builtin("bl1p2")
    assert sp.mu_prime(b1, (2, -1)) == 2
    base = sp.builtin("example-interesting-base")
    assert sp.mu_prime(base, (1, 0), EX_SPEC) == 2


def test_mu_prime_not_big():
    b1 = sp.builtin("bl1p2")
    with pytest.raises(NotBig):
        sp.mu_prime(b1, (1, -1))


def without(model, name):
    """The model with one curve left out of its list, declared
    incomplete."""
    return model._replace(
        curves=tuple(c for c in model.curves if c.name != name),
        completeness_declared=False)


def test_mu_prime_on_an_incomplete_base_decides_bigness_on_the_blow_up():
    """A generic blow-up of a del Pezzo model lists every (-1)-curve again.
    With L12 missing from bl2p2's list, L12 + A/3 is not big on the base,
    but its pullback is big on the blow-up, which knows the curve again.
    xi and the moving Seshadri constant follow the same verdict."""
    m = sp.builtin("bl2p2")
    cut = without(m, "L12")
    d = tuple(a + Fraction(1, 3) * b
              for a, b in zip(m.curve_class("L12"), m.ample_ref))
    assert not sp.is_big(cut, d)
    assert sp.mu_prime(cut, d) == Fraction(4, 3)
    assert sp.xi(cut, d) == Fraction(2, 3)
    assert sp.moving_seshadri(cut, d) == (SeshadriStatus.POSITIVE,
                                          Fraction(2, 3))
    assert sp.largest_inverted_simplex(
        sp.infinitesimal_polygon(cut, d)) == Fraction(2, 3)


def answers_big(query, *args) -> bool:
    """False if the query raises NotBig, True if it answers; a point of
    Neg(D) is an answer."""
    try:
        query(*args)
    except NotBig:
        return False
    except PointInNegLocus:
        pass
    return True


def test_incomplete_bases_give_one_bigness_verdict():
    """bl2p2 ... bl5p2, each without one (-1)-curve and declared
    incomplete, at a generic point and at a point of a listed curve:
    xi, the moving Seshadri constant, mu' and the polygon all raise
    NotBig or all answer.  The classes are multiples of the missing
    curve plus a little of A and of one more curve, so that many are big
    on the blow-up only."""
    rng = seeded_rng("one-bigness-verdict")
    seen = set()
    for r in range(2, 6):
        m = sp.builtin(f"bl{r}p2")
        gone = rng.choice([c for c in m.curves if c.self_int == -1])
        cut = without(m, gone.name)
        on = BlowupSpec(mults={rng.choice(cut.curves).name: 1})
        for _ in range(6):
            c = rng.choice(m.curves)
            d = cut.divisor([
                Fraction(rng.randrange(4), 4) * a + rng.randrange(1, 3) * g
                + rng.randrange(3) * b
                for a, g, b in zip(m.ample_ref, gone.cls, c.cls)])
            for x in (GENERIC_POINT, on):
                answers = {answers_big(query, cut, d, x) for query in (
                    sp.xi, sp.moving_seshadri, sp.mu_prime,
                    sp.infinitesimal_polygon)}
                assert len(answers) == 1, (r, gone.name, d, x)
                seen.add((answers.pop(), sp.is_big(cut, d)))
    # big on the blow-up only, and not big at all, both occur
    assert {(True, False), (False, False)} <= seen


def test_xi_refuses_a_point_no_point_has():
    """The blow-up is built before any verdict: E1 is in Neg(H + E1), but
    no point of E1 has multiplicity 3."""
    bl2 = sp.builtin("bl2p2")
    with pytest.raises(InconsistentMultiplicities):
        sp.xi(bl2, (1, 1, 0), BlowupSpec(mults={"E1": 3}))


def test_xi_examples():
    p2 = sp.builtin("p2")
    assert sp.xi(p2, (1,)) == 1
    b1 = sp.builtin("bl1p2")
    assert sp.xi(b1, (2, -1)) == 1
    # x on E with H: in Null but not Neg, so xi = 0
    assert sp.xi(b1, (1, 0), EX_SPEC) == 0


def test_xi_point_in_neg():
    b1 = sp.builtin("bl1p2")
    with pytest.raises(PointInNegLocus):
        sp.xi(b1, (3, 1), BlowupSpec(mults={"E": 1},
                                     extra_curves=EX_SPEC.extra_curves,
                                     extra_complete=True))


def test_moving_seshadri_statuses():
    b1 = sp.builtin("bl1p2")
    res = sp.moving_seshadri(b1, (1, 0), EX_SPEC)
    assert res.status == SeshadriStatus.IN_NULL_NOT_NEG and res.value == 0
    ex = sp.builtin("example-interesting")
    res2 = sp.moving_seshadri(ex, (Fraction(3, 2), 1, 1),
                              BlowupSpec(mults={"E2": 1}))
    assert res2.status == SeshadriStatus.IN_NEG and res2.value is None
    p2 = sp.builtin("p2")
    res3 = sp.moving_seshadri(p2, (1,))
    assert res3.status == SeshadriStatus.POSITIVE and res3.value == 1


def test_containment_in_inverted_simplex_of_mu_prime():
    # every infinitesimal polygon sits below the diagonal and left of mu'
    cases = [("p2", (1,)), ("p2", (2,)), ("bl1p2", (2, -1)),
             ("bl1p2", (1, 0)), ("bl2p2", (3, -1, -1)),
             ("hirzebruch-2", (1, 3))]
    for name, d in cases:
        model = sp.builtin(name)
        poly = sp.infinitesimal_polygon(model, d)
        for t, y in poly.vertices:
            assert y <= t
            assert t <= poly.mu


def test_generic_base_full_segment():
    # at a generic y the polygon rests on [0, mu'] on the t-axis
    for name, d in [("p2", (2,)), ("bl1p2", (2, -1)), ("bl2p2", (3, -1, -1)),
                    ("hirzebruch-2", (1, 3))]:
        model = sp.builtin(name)
        poly = sp.generic_infinitesimal_polygon(model, d)
        assert polygon_contains(poly, (poly.mu, Fraction(0))) or \
            not isinstance(poly.mu, Fraction)
        assert poly.alpha(Fraction(0)) == 0


def test_vertex_t_coordinates_y_independent():
    base = sp.builtin("example-interesting-base")
    bm, pb, exc = blow_up(base, EX_SPEC)
    d = pb((1, 0))
    polys = [
        sp.okounkov_polygon(bm, d, exc,
                            PointSpec(on_curve=exc, generic=True)),
        sp.okounkov_polygon(bm, d, exc,
                            PointSpec(on_curve=exc, local_mults={"E2": 1},
                                      generic=False)),
        sp.okounkov_polygon(bm, d, exc,
                            PointSpec(on_curve=exc, local_mults={"E3": 1},
                                      generic=False)),
    ]
    coords = {tuple(sp.vertex_t_coordinates(p)) for p in polys}
    assert len(coords) == 1


# every builtin that declares itself complete and declares no generators:
# its listed curves generate the effective cone
COMPLETE_BASES = ("p2", *(f"bl{r}p2" for r in range(1, 9)),
                  *(f"hirzebruch-{n}" for n in range(11)),
                  "example-interesting", "example-interesting-base")


def sample_nef_classes(model, name):
    """Up to two extreme rays of the nef cone with D^2 = 0 and two with
    D^2 > 0, and their sum.  bl8p2's rays are the W(E_8) orbits of H and
    H - E1, which tools/nefcone_bl8p2.py checks against dual_cone."""
    rays = (nef_rays(8) if name == "bl8p2"
            else dual_cone(model.effective_gens(), model).generators)
    rng = seeded_rng(f"nef-shortcut-{name}")
    picked = []
    for square_zero in (True, False):
        kind = [v for v in rays
                if (int_pairing(model, v, v) == 0) == square_zero]
        picked += rng.sample(kind, min(2, len(kind)))
    return [model.divisor(v) for v in picked] + [
        model.divisor([sum(xs) for xs in zip(*picked)])]


@pytest.mark.parametrize("name", COMPLETE_BASES)
def test_nef_class_on_a_complete_base_is_decided_by_its_pairings(
        monkeypatch, name):
    """A nef class on a complete base is its own positive part: the
    blown-up query's pair is the LP path's (P = D, N = 0, no support),
    with no call of big_decomposition, and NotBig exactly when D^2 = 0.
    The classes include f on hirzebruch-n and H - E on bl1p2."""
    m = sp.builtin(name)
    assert m.completeness_declared and m.effective_generators is None
    classes = sample_nef_classes(m, name)
    lp_pairs = [zariski.big_decomposition(m, d) for d in classes]

    def refuse(*args):
        raise AssertionError("a nef class ran big_decomposition")

    monkeypatch.setattr(zariski, "big_decomposition", refuse)
    squares = set()
    for d, lp in zip(classes, lp_pairs):
        assert zariski.is_nef(m, d), (name, d)
        square = self_intersection(m, d)
        squares.add(square > 0)
        assert (lp is None) == (square == 0), (name, d)
        try:
            pair = infinitesimal._blown_up(m, d, GENERIC_POINT).pair
        except NotBig:
            pair = None
        if lp is None:
            assert pair is None, (name, d)
        else:
            assert pair == zariski.ZariskiPair(
                infinitesimal._pullback(lp.P), lp.N_coeffs, lp.support)
    # p2 has no nef class of square 0
    assert squares == ({True} if name == "p2" else {True, False})
    if name.startswith("hirzebruch"):
        assert m.divisor((0, 1)) in classes  # f
    if name == "bl1p2":
        assert m.divisor((1, -1)) in classes  # H - E


@pytest.mark.parametrize("name, d", [
    ("p2", (2,)), ("bl1p2", (2, -1)), ("bl3p2", (3, -1, -1, -1)),
    ("bl6p2", (3, -1, -1, -1, -1, -1, -1)), ("hirzebruch-2", (1, 3)),
    ("example-interesting", (2, 1, 1)),
    ("example-interesting-base", (1, -1))])
def test_nef_shortcut_answers_as_the_lp_path(monkeypatch, name, d):
    """xi, the moving Seshadri constant and mu' of a nef class read the
    same with the pairing shortcut as on the LP path, forced by making
    every class look not nef."""
    m = sp.builtin(name)
    assert zariski.is_nef(m, d)
    queries = (sp.xi, sp.moving_seshadri, sp.mu_prime)

    def answer(query):
        try:
            return query(m, d)
        except NotBig as err:
            return str(err)

    shortcut = [answer(q) for q in queries]
    monkeypatch.setattr(zariski, "is_nef", lambda model, d: False)
    assert [answer(q) for q in queries] == shortcut


def test_a_base_wrongly_declared_complete_is_trusted_on_nef_classes():
    """bl2p2 without L12 but still declared complete: 2H - E1 pairs
    non-negatively with every listed curve and has square 3, so mu' reads
    it as big (it is), while the LP over the listed curves refuses it:
    without L12 their cone misses 2H - E1."""
    m = sp.builtin("bl2p2")
    cut = m._replace(curves=tuple(c for c in m.curves if c.name != "L12"))
    assert cut.completeness_declared
    d = cut.divisor((2, -1, 0))
    assert zariski.is_nef(cut, d) and not sp.is_big(cut, d)
    assert sp.mu_prime(cut, d) == 2


def test_xi_equals_direct_seshadri_on_nef():
    cases = [("p2", (1,)), ("p2", (2,)), ("bl1p2", (2, -1)),
             ("bl2p2", (3, -1, -1)), ("bl3p2", (3, -1, -1, -1)),
             ("hirzebruch-2", (1, 3))]
    for name, d in cases:
        model = sp.builtin(name)
        assert sp.xi(model, d) == sp.seshadri_direct(model, d), (name, d)


def test_triangle_criteria_match_loci():
    # origin in every infinitesimal polygon iff x avoids Neg(D);
    # an inverted simplex fits iff x avoids Null(D)
    b1 = sp.builtin("bl1p2")
    configs = [
        ((1, 0), BlowupSpec(), False, False),        # generic x, H nef
        ((1, 0), EX_SPEC, False, True),              # x on E in Null(H)
        ((3, 1), BlowupSpec(mults={"E": 1},
                            extra_curves=EX_SPEC.extra_curves,
                            extra_complete=True,
                            exceptional_name="E1",
                            renames={"E": "E2"}), True, True),
        ((3, 1), BlowupSpec(), False, False),
    ]
    for d, spec, in_neg, in_null in configs:
        rep = sp.loci(b1, d)
        neg_hit = any(spec.mults.get(n, 0) > 0 for n in rep.neg_curves)
        null_hit = any(spec.mults.get(n, 0) > 0 for n in rep.null_curves)
        assert neg_hit == in_neg and null_hit == in_null
        poly = sp.infinitesimal_polygon(b1, d, spec)
        origin = polygon_contains(poly, (Fraction(0), Fraction(0)))
        assert origin == (not in_neg), (d, spec)
        if not in_neg:
            fits = sp.largest_inverted_simplex(poly) > 0
            assert fits == (not in_null), (d, spec)


def test_lowerbound_equivalences():
    """For ample A and rational q: membership of (q,0) and (q,q) in the
    infinitesimal polygons characterizes epsilon >= q, at every y and at
    pairs of distinct y."""
    cases = [("p2", (2,)), ("bl1p2", (2, -1)), ("bl2p2", (3, -1, -1))]
    for name, a in cases:
        model = sp.builtin(name)
        eps = sp.seshadri_direct(model, a)
        bm, pb, exc = blow_up(model)
        d = pb(model.divisor(a))
        from surfpos.infinitesimal import exceptional_directions
        ys = [PointSpec(on_curve=exc, generic=True)] + [
            PointSpec(on_curve=exc, local_mults={n: 1}, generic=False)
            for n in exceptional_directions(bm, exc)[:2]]
        polys = [sp.okounkov_polygon(bm, d, exc, y) for y in ys]
        for q in [eps - Fraction(1, 2), eps - Fraction(1, 8), eps]:
            if q < 0 or not isinstance(eps, Fraction):
                continue
            for poly in polys:
                assert polygon_contains(poly, (q, Fraction(0)))
                assert polygon_contains(poly, (q, q))
        bad = eps + Fraction(1, 8)
        if isinstance(eps, Fraction):
            assert any(not polygon_contains(poly, (bad, Fraction(0)))
                       or not polygon_contains(poly, (bad, bad))
                       for poly in polys)


def test_xi_checks_every_direction(monkeypatch, tmp_path):
    """xi is the nef threshold of pi*P - tE only when no curve of N(pi*D)
    meets E off Neg(D): such a curve would raise alpha at its direction.
    A decomposition that wrongly puts L12, which meets E, into N is
    reported as inconsistent model data by xi and by the moving Seshadri
    constant, and the CLI reports xi as null.  D = 2H - E1 - E2 + E3 has
    L12 in its null locus, so L12 enters the walk's first chamber anyway:
    the polygon does not change, and only this check can tell."""
    m = sp.builtin("bl3p2")
    d, x = (2, -1, -1, 1), BlowupSpec(mults={"L12": 1})
    (tmp_path / "point.json").write_text('{"mults": {"L12": 1}}')

    def cli():
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["infinitesimal", "--model", "builtin:bl3p2",
                         "--divisor", "2H-E1-E2+E3",
                         "--point", str(tmp_path / "point.json")]) == 0
        return json.loads(out.getvalue())

    assert sp.xi(m, d, x) == 0
    doc = cli()
    assert doc["xi"] == "0"
    real = infinitesimal._pulled_back_start
    monkeypatch.setattr(infinitesimal, "_pulled_back_start",
                        lambda *a: real(*a) | {"L12": Fraction(1, 2)})
    for query in (sp.xi, sp.moving_seshadri):
        with pytest.raises(ModelInconsistency,
                           match="xi depends on the direction L12"):
            query(m, d, x)
    assert cli() == doc | {"xi": None}


def test_pullback_pairing_preserved():
    rng = seeded_rng("pullback")
    for name in ("bl1p2", "bl2p2", "hirzebruch-2"):
        model = sp.builtin(name)
        bm, pb, exc = blow_up(model)
        for _ in range(10):
            u = tuple(Fraction(rng.randrange(-5, 6)) for _ in
                      range(model.rank))
            v = tuple(Fraction(rng.randrange(-5, 6)) for _ in
                      range(model.rank))
            assert pairing(model, u, v) == pairing(bm, pb(u), pb(v))
