"""Deterministic work counts: how many pseudo-effectivity LPs, plain
decomposition fixpoints, chamber walks, blow-ups, plain pairings and
polygon vertex sets one query runs, how many pivots an LP takes and how
wide its tableau is.
These pin that a walk decides bigness once, that a blown-up query decides
a nef class on a complete base with no LP and no fixpoint, that xi,
moving Seshadri constants and Seshadri constants run no walk and build no
chamber, polygon or vertices, reading the pulled-back decomposition,
while the CLI's infinitesimal polygon walks once, that a second query at
a point builds no blow-up, that a polygon builds its vertices only when
they are read, that pairings with the curve list read the model's curve
table, that a nef threshold walks that table twice, reads C.E off
C's class and takes a square root only when the cap is the answer, that
the blown-up queries, the Seshadri constant and the ample
perturbation decide their signs on that integer table, with no Fraction
per curve, and that the LP's pivots do not follow the order of the
curves."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import surfpos as sp
from surfpos import (
    infinitesimal,
    lattice,
    models,
    okounkov,
    scalars,
    seshadri,
    zariski,
)
from surfpos.cli import _resolve_blowup_point, enc_scalar, main, parse_divisor
from surfpos.errors import NotBig, NotPseudoEffective
from surfpos.infinitesimal import BlowupSpec
from surfpos.lattice import PointSpec


@pytest.fixture
def counts(monkeypatch):
    """Count calls of zariski.cone_contains (LPs) and of zariski.chamber
    with no slope (fixpoints that decompose a class, not wall crossings)."""
    n = {"lp": 0, "fixpoint": 0}
    lp, chamber = zariski.cone_contains, zariski.chamber

    def counted_lp(*args, **kwargs):
        n["lp"] += 1
        return lp(*args, **kwargs)

    def counted_chamber(model, d, slope=None, *args, **kwargs):
        if slope is None:
            n["fixpoint"] += 1
        return chamber(model, d, slope, *args, **kwargs)

    monkeypatch.setattr(zariski, "cone_contains", counted_lp)
    monkeypatch.setattr(zariski, "chamber", counted_chamber)
    return n


@pytest.fixture
def walks(monkeypatch):
    """Count chamber walks and calls of infinitesimal.blow_up.  A walk is a
    call of okounkov._walk_from, which okounkov.chamber_walk runs after its
    LP and a blow-up runs on its own."""
    n = {"walk": 0, "blowup": 0}
    walk, blow_up = okounkov._walk_from, infinitesimal.blow_up

    def counted_walk(*args, **kwargs):
        n["walk"] += 1
        return walk(*args, **kwargs)

    def counted_blow_up(*args, **kwargs):
        n["blowup"] += 1
        return blow_up(*args, **kwargs)

    monkeypatch.setattr(okounkov, "_walk_from", counted_walk)
    monkeypatch.setattr(infinitesimal, "blow_up", counted_blow_up)
    return n


@pytest.fixture
def pivots(monkeypatch):
    """Count calls of lattice._pivot: the simplex pivots of the LPs."""
    n = {"pivot": 0}
    pivot = lattice._pivot

    def counted_pivot(*args, **kwargs):
        n["pivot"] += 1
        return pivot(*args, **kwargs)

    monkeypatch.setattr(lattice, "_pivot", counted_pivot)
    return n


@pytest.fixture
def pivot_widths(monkeypatch):
    """Record the lengths of the tableau rows and of the objective row
    that lattice._pivot receives."""
    widths = set()
    pivot = lattice._pivot

    def recorded_pivot(tab, obj, piv, enter):
        widths.update(map(len, tab))
        widths.add(len(obj))
        return pivot(tab, obj, piv, enter)

    monkeypatch.setattr(lattice, "_pivot", recorded_pivot)
    return widths


@pytest.fixture
def vertices(monkeypatch):
    """Count calls of okounkov._vertices: polygons built with vertices."""
    n = {"vertices": 0}
    real = okounkov._vertices

    def counted_vertices(*args, **kwargs):
        n["vertices"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(okounkov, "_vertices", counted_vertices)
    return n


@pytest.fixture
def polygons(monkeypatch):
    """Count the NOPolygons built by okounkov, and every call of
    zariski.chamber: the walk's chambers, with or without a slope."""
    n = {"polygon": 0, "chamber": 0}
    chamber = zariski.chamber

    class Counted(okounkov.NOPolygon):
        def __new__(cls, *args, **kwargs):
            n["polygon"] += 1
            return super().__new__(cls, *args, **kwargs)

    def counted_chamber(*args, **kwargs):
        n["chamber"] += 1
        return chamber(*args, **kwargs)

    monkeypatch.setattr(okounkov, "NOPolygon", Counted)
    monkeypatch.setattr(zariski, "chamber", counted_chamber)
    return n


@pytest.fixture
def pairings(monkeypatch):
    """Count calls of lattice.pairing through every module that binds it,
    and of lattice.int_pairing in the chamber walk, which pairs the
    integer vectors of P_t, and in zariski's nef and ample tests, which
    pair integer numerators."""
    n = {"pairing": 0}
    pairing, int_pairing = lattice.pairing, lattice.int_pairing

    def counted_pairing(*args, **kwargs):
        n["pairing"] += 1
        return pairing(*args, **kwargs)

    def counted_int_pairing(*args, **kwargs):
        n["pairing"] += 1
        return int_pairing(*args, **kwargs)

    for module in (lattice, seshadri):
        monkeypatch.setattr(module, "pairing", counted_pairing)
    for module in (okounkov, zariski):
        monkeypatch.setattr(module, "int_pairing", counted_int_pairing)
    return n


def anti_canonical(model):
    return model.divisor([-x for x in model.canonical])


def test_polygon_runs_one_lp_and_one_fixpoint(counts):
    m = sp.builtin("bl3p2")
    poly = sp.okounkov_polygon(m, anti_canonical(m), "E1",
                               PointSpec(on_curve="E1", generic=True))
    assert poly.nu == 0 and poly.mu == 2
    assert counts == {"lp": 1, "fixpoint": 1}


def test_is_big_runs_one_lp(counts):
    m = sp.builtin("bl3p2")
    assert sp.is_big(m, anti_canonical(m))
    assert counts["lp"] == 1


@pytest.mark.parametrize("name", ["bl6p2", "bl7p2", "bl8p2"])
def test_lp_near_minus_k_takes_at_most_rank_plus_one_pivots(
        counts, pivots, name):
    """The LP enters the column of largest reduced cost, so -K and
    -K + E_a (a = 1 ... r) each take at most rho + 1 pivots.  The first
    improving column (Bland's rule) took 10-15, 16-29 and 30-104 pivots on
    bl6p2, bl7p2 and bl8p2, following the order of the curves."""
    m = sp.builtin(name)
    k = anti_canonical(m)
    for a in range(m.rank):
        pivots["pivot"] = 0
        # a = 0 is -K itself
        d = m.divisor([x + (a > 0 and i == a) for i, x in enumerate(k)])
        assert zariski.is_pseudo_effective(m, d)
        assert pivots["pivot"] <= m.rank + 1, (name, a)
    assert counts == {"lp": m.rank, "fixpoint": 0}


@pytest.mark.parametrize("name, d", [("bl8p2", None), ("bl1p2", (2, -1))])
def test_tableau_stores_no_artificial_column(pivot_widths, name, d):
    """A tableau row and the objective row hold one entry per generator
    and the right-hand side: the artificial columns, which never enter,
    are not stored.  d = None is -K.  bl1p2 has 3 generators in rank 2,
    so its cone is not simplicial and the LP runs."""
    m = sp.builtin(name)
    d = anti_canonical(m) if d is None else m.divisor(d)
    assert zariski.is_pseudo_effective(m, d)
    assert pivot_widths == {len(m.effective_gens()) + 1}


def test_ample_row_refuses_a_class_without_an_lp(counts):
    """D.A < 0 for the ample reference A of bl7p2: D is not
    pseudo-effective, and no LP runs to say so."""
    m = sp.builtin("bl7p2")
    d = m.divisor([-1] + [0] * 7)
    with pytest.raises(NotPseudoEffective) as err:
        sp.zariski_decompose(m, d)
    assert str(err.value) == \
        "(-1, 0, 0, 0, 0, 0, 0, 0) is not in the effective cone"
    assert not sp.is_big(m, d)
    assert counts == {"lp": 0, "fixpoint": 0}


@pytest.mark.parametrize("name, d, lps", [
    ("hirzebruch-0", (1, 1), 0), ("hirzebruch-3", (2, 3), 0),
    ("hirzebruch-7", (1, -1), 0), ("example-interesting", (2, 1, 1), 0),
    ("example-interesting", (1, -1, 0), 0), ("bl3p2", (3, -1, -1, -1), 1)])
def test_simplicial_cone_decides_without_an_lp(counts, name, d, lps):
    """The effective cones of hirzebruch-n and example-interesting are
    spanned by rho independent curves, so the facet rows of the model's
    Farkas table decide every class both ways.  bl3p2 has 7 generators
    in rank 4: a class its ample row cannot refuse still runs one LP."""
    m = sp.builtin(name)
    assert zariski.is_pseudo_effective(m, m.divisor(d)) == \
        lattice.cone_contains(m.effective_gens(), d)
    assert counts["lp"] == lps


def test_class_the_ample_row_cannot_refuse_runs_one_lp(counts):
    """H - 2E1 pairs positively with A but negatively with the nef class
    H - E1: not pseudo-effective, and only the LP says so."""
    m = sp.builtin("bl7p2")
    assert not zariski.is_pseudo_effective(m, m.divisor([1, -2] + [0] * 6))
    assert counts["lp"] == 1


def minus_k_plus_2e1(model):
    """-K + 2E1: big, and not nef, since it pairs to -1 with E1."""
    k = anti_canonical(model)
    return model.divisor([k[0], k[1] + 2, *k[2:]])


def test_xi_decomposes_once_and_runs_no_walk(counts, walks):
    """-K is nef, so the base decides it by its pairings: no LP and no
    fixpoint.  -K + 2E1 takes one of each.  Neither walks: xi is the nef
    threshold of pi*P - tE.  Each walked once when xi was read off the
    walk."""
    m = sp.builtin("bl3p2")
    assert sp.xi(m, anti_canonical(m)) == 2
    assert counts == {"lp": 0, "fixpoint": 0}
    assert walks == {"walk": 0, "blowup": 1}
    assert sp.xi(m, minus_k_plus_2e1(m)) == 2
    assert counts == {"lp": 1, "fixpoint": 1}
    assert walks == {"walk": 0, "blowup": 2}


def test_moving_seshadri_decomposes_once_and_runs_no_walk(counts, walks):
    m = sp.builtin("bl6p2")
    for cls, value, work in [
            (anti_canonical, Fraction(3, 2), {"lp": 0, "fixpoint": 0}),
            (minus_k_plus_2e1, 2, {"lp": 1, "fixpoint": 1})]:
        res = sp.moving_seshadri(m, cls(m))
        assert res.status is sp.SeshadriStatus.POSITIVE
        assert res.value == value
        assert counts == work
    assert walks == {"walk": 0, "blowup": 2}


@pytest.mark.parametrize("name, divisor, point", [
    ("bl3p2", "3H-E1-E2-E3", None),
    ("bl3p2", "4H-E1-E2-E3", {"mults": {"L12": 1}}),
    ("bl5p2", "3H-E1-E2-E3-E4-E5", {"mults": {"E1": 1, "L12": 1}}),
    ("bl1p2", "4H-E", {"mults": {"E": 1}}),
    # the tangent blow-up at a point of E is this model's default point
    ("example-interesting-base", "3H-E", None)])
def test_thresholds_run_no_walk_and_the_cli_polygon_walks_once(
        walks, name, divisor, point, tmp_path):
    """seshadri_direct, xi and moving_seshadri read the nef threshold of
    pi*P - tE off the curve table: no walk, where xi and moving_seshadri
    walked once.  The CLI infinitesimal command still walks once, for its
    polygon, and reports the xi of the library."""
    argv = ["infinitesimal", "--model", f"builtin:{name}",
            "--divisor", divisor]
    if point is not None:
        (tmp_path / "point.json").write_text(json.dumps(point))
        argv += ["--point", str(tmp_path / "point.json")]
    m = sp.builtin(name)
    d = parse_divisor(divisor, m)
    x = _resolve_blowup_point(point and str(tmp_path / "point.json"), m)
    eps = seshadri.seshadri_direct(m, d, x)
    assert sp.xi(m, d, x) == eps
    assert sp.moving_seshadri(m, d, x).value == eps
    assert walks == {"walk": 0, "blowup": 3}
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    assert json.loads(out.getvalue())["xi"] == enc_scalar(eps)
    assert walks == {"walk": 1, "blowup": 4}


def test_cli_infinitesimal_blows_up_once_and_walks_once(counts, walks):
    for divisor, work in [("3H-E1-E2-E3", {"lp": 0, "fixpoint": 0}),
                          ("3H+E1-E2-E3", {"lp": 1, "fixpoint": 1})]:
        walks.update(walk=0, blowup=0)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["infinitesimal", "--model", "builtin:bl3p2",
                         "--divisor", divisor])
        assert code == 0
        doc = json.loads(out.getvalue())
        assert doc["xi"] == "2" and doc["mu_prime"] == "3"
        assert counts == work
        assert walks == {"walk": 1, "blowup": 1}


def test_cli_infinitesimal_on_the_negative_locus_decides_bigness_once(
        counts, walks, tmp_path):
    """At a point on Neg(D), xi is null and the polygon comes from the
    decomposition already made for xi: one LP, one blow-up."""
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"mults": {"E1": 1}}))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["infinitesimal", "--model", "builtin:bl3p2",
                     "--divisor", "2H+E1", "--point", str(point)])
    assert code == 0
    assert json.loads(out.getvalue())["xi"] is None
    assert counts["lp"] == 1
    assert walks == {"walk": 1, "blowup": 1}


def test_cli_infinitesimal_big_only_on_the_blow_up(walks, tmp_path):
    """bl2p2 without L12, declared incomplete: only the blow-up, which lists
    L12 again, finds the class big, and its verdict holds for xi too.  The
    polygon and xi come from one blow-up and one walk, and xi is the
    largest inverted simplex of that generic-y polygon."""
    m = sp.builtin("bl2p2")
    path = tmp_path / "model.json"
    models.save(m._replace(
        curves=tuple(c for c in m.curves if c.name != "L12"),
        completeness_declared=False), path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["infinitesimal", "--model", str(path),
                     "--divisor", "2H-4/3*E1-4/3*E2"])
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["xi"] == "2/3" and doc["mu_prime"] == "4/3"
    assert walks == {"walk": 1, "blowup": 1}
    cut = models.load(path)
    poly = sp.infinitesimal_polygon(
        cut, cut.divisor([2, Fraction(-4, 3), Fraction(-4, 3)]))
    assert {tuple(map(enc_scalar, v)) for v in poly.vertices} \
        == set(map(tuple, doc["vertices"]))
    assert enc_scalar(sp.largest_inverted_simplex(poly)) == doc["xi"]


@pytest.mark.parametrize("name, d, x, status", [
    ("bl1p2", (1, 0), infinitesimal.point_on_exceptional_spec,
     sp.SeshadriStatus.IN_NULL_NOT_NEG),
    ("example-interesting", (Fraction(3, 2), 1, 1),
     lambda m: BlowupSpec(mults={"E2": 1}), sp.SeshadriStatus.IN_NEG),
])
def test_moving_seshadri_on_a_locus_runs_no_walk(counts, walks, name, d, x,
                                                 status):
    """Neg(D) and Null(D) are read off what decided bigness: one blow-up
    and no walk.  H on bl1p2 is nef, so it is its own positive part, with
    no LP and no fixpoint.  The class on example-interesting is not nef:
    one fixpoint, and no LP, since its effective cone is simplicial."""
    m = sp.builtin(name)
    assert sp.moving_seshadri(m, d, x(m)).status is status
    assert counts == {"lp": 0, "fixpoint": int(name != "bl1p2")}
    assert walks == {"walk": 0, "blowup": 1}


def test_moving_seshadri_on_the_negative_locus_of_a_class_not_nef(
        counts, walks):
    """H + E on bl1p2 is big with N = E, and the point lies on E: one LP
    and one fixpoint decide it, and no walk runs."""
    m = sp.builtin("bl1p2")
    x = infinitesimal.point_on_exceptional_spec(m)
    assert sp.moving_seshadri(m, (1, 1), x).status is \
        sp.SeshadriStatus.IN_NEG
    assert counts == {"lp": 1, "fixpoint": 1}
    assert walks == {"walk": 0, "blowup": 1}


@pytest.mark.parametrize("query, name, value", [
    (sp.xi, "bl3p2", 2),
    (lambda m, d: sp.moving_seshadri(m, d).value, "bl6p2", Fraction(3, 2)),
])
def test_xi_and_moving_seshadri_run_one_lp_and_one_fixpoint(
        counts, query, name, value):
    """The base decomposition decides bigness and the negative locus, and
    xi reads its pulled-back positive part: no second fixpoint.
    The nef class -K needs no decomposition at all.  -K + 2E1 needs one;
    its positive part -K + E1 gives the value 2 on both models."""
    m = sp.builtin(name)
    assert query(m, anti_canonical(m)) == value
    assert counts == {"lp": 0, "fixpoint": 0}
    assert query(m, minus_k_plus_2e1(m)) == 2
    assert counts == {"lp": 1, "fixpoint": 1}


@pytest.fixture
def validations(monkeypatch):
    """Count calls of lattice.validate_model made by blow-ups."""
    n = {"validate": 0}
    validate = infinitesimal.validate_model

    def counted_validate(*args, **kwargs):
        n["validate"] += 1
        return validate(*args, **kwargs)

    monkeypatch.setattr(infinitesimal, "validate_model", counted_validate)
    return n


@pytest.mark.parametrize("query", [sp.xi, sp.moving_seshadri, sp.mu_prime])
def test_second_query_at_a_point_builds_no_blow_up(validations, query):
    # builtin models are shared; a new instance starts with no blow-ups
    m = sp.builtin("bl3p2")._replace()
    x = BlowupSpec(mults={"L12": 1})
    first = query(m, anti_canonical(m), x)
    assert validations == {"validate": 1}
    assert query(m, anti_canonical(m), BlowupSpec(mults={"L12": 1})) == first
    assert validations == {"validate": 1}


@pytest.mark.parametrize("query", [sp.xi, sp.moving_seshadri])
def test_xi_builds_no_vertices(vertices, query):
    """xi is read off the curve table; no polygon vertices are built."""
    m = sp.builtin("bl3p2")
    query(m, anti_canonical(m))
    assert vertices["vertices"] == 0


@pytest.mark.parametrize("name, query, d, value", [
    ("bl3p2", sp.xi, (4, -1, -1, -1), 3),
    ("bl4p2", lambda m, d: sp.moving_seshadri(m, d).value, None, 2),
], ids=["xi", "moving-seshadri"])
def test_xi_builds_no_polygon(polygons, name, query, d, value):
    """xi is the nef threshold of pi*P - tE, read off the curve table: no
    NOPolygon, where one polygon for the generic y and one per direction
    made 4 and 6, and no chamber, where the walk built its two, the one at
    t = 0 and the one past the wall.  Both classes are nef on a complete
    base, so no fixpoint runs either.  d = None is -K."""
    m = sp.builtin(name)
    assert query(m, anti_canonical(m) if d is None else d) == value
    assert polygons == {"polygon": 0, "chamber": 0}


def test_cli_infinitesimal_builds_one_vertex_set(vertices):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["infinitesimal", "--model", "builtin:bl3p2",
                     "--divisor", "3H-E1-E2-E3"])
    assert code == 0
    assert vertices["vertices"] == 1


def test_largest_simplex_flag_builds_no_vertices(vertices):
    """lambda is read off the pieces; the polygon's vertices are never
    read."""
    m = sp.builtin("bl3p2")
    lam = seshadri.largest_simplex_flag(
        m, anti_canonical(m), "E1", PointSpec(on_curve="E1", generic=True))
    assert lam == 1
    assert vertices["vertices"] == 0


def test_shift_check_decides_bigness_once_per_class(counts):
    m = sp.builtin("bl3p2")
    assert sp.shift_check(m, anti_canonical(m), "E1",
                          PointSpec(on_curve="E1", generic=True),
                          Fraction(1, 2))
    assert counts["lp"] == 2


def test_shift_check_needs_both_classes_big():
    m = sp.builtin("bl3p2")
    with pytest.raises(NotBig, match="needs both classes big"):
        sp.shift_check(m, anti_canonical(m), "E1",
                       PointSpec(on_curve="E1", generic=True), Fraction(2))


def test_mu_prime_decides_bigness_once(counts):
    m = sp.builtin("bl3p2")
    assert sp.mu_prime(m, anti_canonical(m)) == 3
    assert counts == {"lp": 0, "fixpoint": 0}
    assert sp.mu_prime(m, minus_k_plus_2e1(m)) == 3
    assert counts == {"lp": 1, "fixpoint": 1}


def test_generic_infinitesimal_polygon_decides_bigness_once(counts):
    m = sp.builtin("bl3p2")
    assert sp.generic_infinitesimal_polygon(m, anti_canonical(m)).mu == 3
    assert counts == {"lp": 0, "fixpoint": 0}
    assert sp.generic_infinitesimal_polygon(m, minus_k_plus_2e1(m)).mu == 3
    assert counts == {"lp": 1, "fixpoint": 1}


@pytest.fixture
def lp_generators(monkeypatch):
    """The generator list of every zariski.cone_contains call (LP)."""
    seen = []
    lp = zariski.cone_contains

    def recorded_lp(generators, v):
        seen.append(tuple(map(tuple, generators)))
        return lp(generators, v)

    monkeypatch.setattr(zariski, "cone_contains", recorded_lp)
    return seen


@pytest.mark.parametrize("query", [sp.mu_prime,
                                   sp.generic_infinitesimal_polygon])
def test_blow_up_lp_runs_over_the_base_generators(lp_generators, query):
    """Bigness of the pullback is decided on the base: the nef class -K
    runs no LP, and the one LP of -K + 2E1 runs over the 7 curves of bl3p2,
    not the 12 of its blow-up."""
    m = sp.builtin("bl3p2")
    query(m, anti_canonical(m))
    assert lp_generators == []
    query(m, minus_k_plus_2e1(m))
    assert lp_generators == [tuple(map(tuple, m.effective_gens()))]


def test_mu_prime_keeps_its_not_big_message():
    m = sp.builtin("bl3p2")
    with pytest.raises(NotBig, match="mu' needs a big class"):
        sp.mu_prime(m, m.curve_class("E1"))


@pytest.fixture
def curve_pairings(monkeypatch):
    """Count calls of SurfaceModel.curve_pairings, which builds one
    Fraction per listed curve."""
    n = {"curve_pairings": 0}
    real = lattice.SurfaceModel.curve_pairings

    def counted(self, d):
        n["curve_pairings"] += 1
        return real(self, d)

    monkeypatch.setattr(lattice.SurfaceModel, "curve_pairings", counted)
    return n


@pytest.mark.parametrize("name, query, answer", [
    ("bl3p2", sp.xi, 2),
    ("bl5p2", lambda m, d: sp.moving_seshadri(m, d).value, 2),
    ("bl5p2", zariski.is_nef, True),
], ids=["xi", "moving-seshadri", "is-nef"])
def test_blown_up_queries_read_signs_on_integers(curve_pairings, name,
                                                 query, answer):
    """The nef test, the directions through E and the null test of a
    moving Seshadri constant read the integer curve table: no Fraction per
    curve.  They took 2, 4 and 1 calls of curve_pairings when they did."""
    m = sp.builtin(name)
    # a blow-up validates its ample class against its curves when built
    infinitesimal.blow_up(m)
    curve_pairings["curve_pairings"] = 0
    assert query(m, anti_canonical(m)) == answer
    assert curve_pairings == {"curve_pairings": 0}


def test_seshadri_and_perturbation_read_signs_on_integers(curve_pairings):
    """The Seshadri constant reads A.C and E.C for the curves of the
    blow-up, and the ample perturbation its null curves, on the integer
    curve table: one Fraction, for the bound kept, where each took one or
    two calls of curve_pairings."""
    m = sp.builtin("bl6p2")
    infinitesimal.blow_up(m)
    curve_pairings["curve_pairings"] = 0
    assert seshadri.seshadri_direct(m, anti_canonical(m)) == Fraction(3, 2)
    assert zariski.ample_perturbation(sp.builtin("bl1p2"), (1, 0)) == \
        ({"E": 1}, Fraction(1, 2))
    assert curve_pairings == {"curve_pairings": 0}


@pytest.fixture
def curve_dots(monkeypatch):
    """Count calls of SurfaceModel.curve_dots: walks of a curve table."""
    n = {"curve_dots": 0}
    real = lattice.SurfaceModel.curve_dots

    def counted(self, num):
        n["curve_dots"] += 1
        return real(self, num)

    monkeypatch.setattr(lattice.SurfaceModel, "curve_dots", counted)
    return n


@pytest.fixture
def roots(monkeypatch):
    """Count calls of scalars.quad: square roots taken."""
    n = {"quad": 0}
    real = scalars.quad

    def counted(*args, **kwargs):
        n["quad"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(scalars, "quad", counted)
    return n


# 4H - E1 - ... - E7 - 2E8 on bl8p2: no listed curve through a generic
# point beats the cap sqrt(5).  Exact Seshadri constants at a very general
# point of bl8p2 (ROADMAP item 19) will change this value to 2, by the
# (-1)-curve H - E8 - E9
BL8_CAP = "4H-E1-E2-E3-E4-E5-E6-E7-2E8"


@pytest.mark.parametrize("name, query, d, x, value, n_roots", [
    ("bl3p2", sp.xi, "4H-E1-E2-E3", None, Fraction(3), 0),
    ("bl3p2", sp.xi, "4H-E1-E2-E3", {"L12": 1}, Fraction(2), 0),
    ("bl5p2", lambda m, d, x: sp.moving_seshadri(m, d, x).value, None, None,
     Fraction(2), 0),
    ("bl6p2", seshadri.seshadri_direct, None, None, Fraction(3, 2), 0),
    ("bl8p2", seshadri.seshadri_direct, BL8_CAP, None, sp.quad(0, 1, 5), 1),
], ids=["xi", "xi-on-l12", "moving-seshadri", "seshadri-direct",
        "seshadri-cap"])
def test_nef_threshold_walks_the_curve_table_once(curve_dots, roots, name,
                                                   query, d, x, value,
                                                   n_roots):
    """A nef threshold query walks two curve tables: the base's, for the
    nef test of D, and the blow-up's, for the pairings of P.  C.E is
    minus C's last coordinate on the blow-up, so no table is walked for
    E, where a third walk was.  It takes a square root only when the cap
    sqrt(P^2) is the answer, as the least curve ratio is compared with the
    cap on integers, and then one call of quad builds it.  When every
    query took the root they called quad 3, 3, 1, 3 and 3 times: the root,
    its scaling and the comparison.  The moving Seshadri constant of -K on
    bl5p2 ties with the cap sqrt(4).  d = None is -K; x = None is the
    generic point."""
    m = sp.builtin(name)
    d = anti_canonical(m) if d is None else parse_divisor(d, m)
    x = BlowupSpec() if x is None else BlowupSpec(mults=x)
    infinitesimal.blow_up(m, x)
    curve_dots["curve_dots"] = 0
    got = query(m, d, x)
    assert got == value and type(got) is type(value)
    assert curve_dots == {"curve_dots": 2}
    assert roots == {"quad": n_roots}


def test_decomposition_pairs_only_through_the_curve_table(pairings):
    m = sp.builtin("bl7p2")
    pairings["pairing"] = 0  # count the query, not the model's validation
    assert sp.zariski_decompose(m, anti_canonical(m)).support == ()
    assert pairings["pairing"] == 0


def test_polygon_pairs_three_times_per_piece(pairings):
    m = sp.builtin("bl7p2")
    pairings["pairing"] = 0
    poly = sp.okounkov_polygon(m, anti_canonical(m), "E1",
                               PointSpec(on_curve="E1", generic=True))
    assert pairings["pairing"] <= 3 * len(poly.pieces) + 1
