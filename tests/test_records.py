"""The result and input records are NamedTuples: keyword construction with
defaults, ``Name(field=value, ...)`` reprs, the hash of the field tuple,
``_replace``, read-only fields and pickling, for each of the fifteen.
``SurfaceModel`` and ``NOPolygon`` keep per-instance caches, which
``_replace`` does not carry over.  Default mappings are one object shared
by every instance, so no computation may write into them."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

import surfpos as sp
from surfpos import okounkov
from surfpos.infinitesimal import MovingSeshadri, SeshadriStatus, blow_up
from surfpos.lattice import (
    BlowupSpec,
    CurveRecord,
    GenericFamily,
    InfFlagSpec,
    PointSpec,
    PolyCone,
    SurfaceModel,
)
from surfpos.okounkov import NOPolygon, PolygonPiece, Walk
from surfpos.seshadri import GenericBoundQuery, GenericBoundResult
from surfpos.zariski import LocusReport, ZariskiPair

F = Fraction
PIECE = PolygonPiece(t_lo=F(0), t_hi=F(1), alpha=(F(0), F(0)),
                     beta=(F(1), F(-1)), support=())
P2_CURVES = (CurveRecord(name="L", cls=(1,), self_int=1),)

# (record, the fields given, the defaults of the others, in field order)
RECORDS = [
    (CurveRecord, {"name": "L", "cls": (1,), "self_int": 1},
     {"is_rational": None}),
    (GenericFamily, {"cls": (1,), "mult": 1, "name_hint": "L"}, {}),
    (PointSpec, {"on_curve": "L"}, {"local_mults": {}, "generic": True}),
    (BlowupSpec, {}, {"mults": {}, "extra_curves": (),
                      "extra_complete": False, "exceptional_name": None,
                      "renames": {}}),
    (InfFlagSpec, {}, {"on": None, "mult": 1}),
    (SurfaceModel, {"rank": 1, "basis_labels": ("H",), "gram": ((1,),),
                    "curves": P2_CURVES, "ample_ref": (F(1),)},
     {"canonical": None, "effective_generators": None,
      "completeness_declared": True, "ample_ref_is_ample": True,
      "points": {}, "generic_families": (), "metadata": {}}),
    (PolyCone, {"generators": ((1,),), "facet_normals": ((1,),)}, {}),
    (PolygonPiece, PIECE._asdict(), {}),
    (NOPolygon, {"nu": F(0), "mu": F(1), "pieces": (PIECE,),
                 "flag_curve": "C"}, {}),
    (Walk, {"nu": F(0), "mu": F(1), "flag_curve": "C", "pieces": ()}, {}),
    (ZariskiPair, {"P": (F(1),), "N_coeffs": {}, "support": ()},
     {"relative": False}),
    (LocusReport, {"null_curves": frozenset(), "neg_curves": frozenset({"E"})},
     {"relative": False}),
    (GenericBoundQuery, {"degree": F(5), "target": F(2)},
     {"exclude_q1": False}),
    (GenericBoundResult, {"holds": True, "witnesses": ((3, 2),),
                          "q_range": (2, 4)}, {}),
    (MovingSeshadri, {"status": SeshadriStatus.POSITIVE}, {"value": None}),
]


@pytest.mark.parametrize("cls, given, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, given, defaults):
    r = cls(**given)
    assert r._fields == (*given, *defaults)
    assert r._asdict() == {**given, **defaults}
    assert repr(r) == f"{cls.__name__}(" + ", ".join(
        f"{f}={getattr(r, f)!r}" for f in r._fields) + ")"
    try:
        h = hash(tuple(r))
    except TypeError:  # a dict field: unhashable, as the record was before
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == h
    first = r._fields[0]
    other = r._replace(**{first: "changed"})
    assert type(other) is cls and getattr(other, first) == "changed"
    assert other[1:] == r[1:]
    for f in r._fields:
        with pytest.raises(AttributeError):
            setattr(r, f, None)
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is cls and back == r


def test_replaced_model_shares_no_cache():
    m = sp.builtin("bl2p2")
    m.curve("E1")  # builds the curve table
    bm = blow_up(m)[0]
    twin = m._replace()
    assert type(twin) is SurfaceModel and twin == m
    assert "_curve_table" not in vars(twin)
    assert "_blow_ups" not in vars(twin)
    assert twin._curve_table is not m._curve_table
    assert twin._blow_ups is not m._blow_ups and twin._blow_ups == {}
    assert blow_up(twin)[0] is not bm and blow_up(m)[0] is bm


def test_polygon_vertices_are_computed_once(monkeypatch):
    calls = []
    original = okounkov._vertices

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(okounkov, "_vertices", counted)
    poly = NOPolygon(nu=F(0), mu=F(1), pieces=(PIECE,), flag_curve="C")
    first = poly.vertices
    assert poly.vertices is first and len(calls) == 1
    back = pickle.loads(pickle.dumps(poly))
    assert back.vertices == first and len(calls) == 1
    assert poly._replace(flag_curve="D").vertices == first
    assert len(calls) == 2


def test_default_mappings_stay_empty(tmp_path):
    b2 = sp.builtin("bl2p2")
    m = SurfaceModel(**{f: getattr(b2, f) for f in SurfaceModel._fields
                        if f not in ("points", "metadata")})
    assert m.points is SurfaceModel._field_defaults["points"]
    d = (3, -1, -1)
    bm, pullback, exc = blow_up(m)
    sp.okounkov_polygon(bm, pullback(d), exc, PointSpec(on_curve=exc))
    sp.okounkov_polygon(m, d, "E1", PointSpec(on_curve="E1")).vertices
    sp.infinitesimal_polygon(m, d).vertices
    sp.zariski_decompose(m, (1, 0, -1))
    sp.zariski_decompose(bm, pullback((1, 0, -1)))
    sp.save(m, tmp_path / "m.json")
    assert PointSpec._field_defaults["local_mults"] == {}
    assert BlowupSpec._field_defaults["mults"] == {}
    assert BlowupSpec._field_defaults["renames"] == {}
    assert SurfaceModel._field_defaults["points"] == {}
    assert SurfaceModel._field_defaults["metadata"] == {}
