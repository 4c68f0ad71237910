"""Builtin surface models, del Pezzo (-1)-curve enumeration, persistence.

Model files are single JSON documents.  Integers are written as decimal
strings and rationals as "num/den" strings so round-trips are bit-exact
regardless of platform integer width.  Every invariant is re-verified on
load.

Builtin catalog:
  p2                         the projective plane
  bl1p2 .. bl8p2             del Pezzo blow-ups of p2 in general position
  hirzebruch-N               the Hirzebruch surface with a (-N)-section
  example-interesting        two-step blow-up of p2 (point, then a point on
                             the exceptional curve)
  example-interesting-base   bl1p2 with the distinguished point on E and the
                             tangent-direction line declared, ready for the
                             infinitesimal construction above
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .errors import InvariantViolation, SchemaError, UnknownModel
from .lattice import (
    CurveRecord,
    GenericFamily,
    PointSpec,
    SurfaceModel,
    validate_model,
)

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# (-1)-curve enumeration on del Pezzo surfaces
# ----------------------------------------------------------------------

def enumerate_minus_one_curves(r: int) -> list[tuple[int, ...]]:
    """All classes a*H - sum(b_i * E_i) with self-intersection -1 and
    anticanonical degree 1, for the blow-up of p2 at r general points.

    Bounded exhaustive search over non-increasing multiplicity vectors;
    a <= 6 suffices for r <= 8.  The exceptional classes themselves are
    included.  Coordinates are in the basis (H, E_1, ..., E_r).
    """
    return list(_minus_one_classes(r))


@lru_cache(maxsize=None)
def _minus_one_classes(r: int) -> tuple[tuple[int, ...], ...]:
    """The sorted classes of :func:`enumerate_minus_one_curves`, searched
    once per r."""
    if not 1 <= r <= 8:
        raise InvariantViolation("del Pezzo range", f"r={r} outside 1..8")
    found: list[tuple[int, ...]] = []
    for i in range(r):
        found.append(tuple([0] + [int(j == i) for j in range(r)]))
    for a in range(1, 7):
        target_sum = 3 * a - 1
        target_sq = a * a + 1
        # partitions of target_sum into <= r parts bounded by a
        def parts(remaining, remaining_sq, slots, bound, prefix):
            if remaining == 0 and remaining_sq == 0:
                yield prefix + [0] * slots
                return
            if slots == 0 or remaining < 0 or remaining_sq < 0:
                return
            if remaining > bound * slots or remaining_sq > bound * bound * slots:
                return
            for b in range(min(bound, remaining), 0, -1):
                yield from parts(remaining - b, remaining_sq - b * b,
                                 slots - 1, b, prefix + [b])
        for base in parts(target_sum, target_sq, r, a, []):
            for perm in _distinct_permutations(tuple(base)):
                found.append((a,) + tuple(-x for x in perm))
    # store with positive multiplicities: class is (a, -b_1, ..., -b_r)
    return tuple(sorted(found))


def _distinct_permutations(items: tuple[int, ...]):
    """Each distinct ordering of ``items`` once, for items whose equal
    entries are adjacent (as in a sorted tuple)."""
    if not items:
        yield ()
    for i, x in enumerate(items):
        if i == 0 or x != items[i - 1]:
            for rest in _distinct_permutations(items[:i] + items[i + 1:]):
                yield (x,) + rest


def _curve_name(cls: tuple[int, ...]) -> str:
    """Deterministic, identifier-safe names for del Pezzo curve classes."""
    a = cls[0]
    pts = [i + 1 for i, b in enumerate(cls[1:]) if b != 0]
    if a == 0:
        return f"E{pts[0]}"
    if a == 1:
        return "L" + "".join(str(i) for i in pts)
    if a == 2:
        return "Q" + "".join(str(i) for i in pts)
    return f"X{a}_" + "".join(str(-b) for b in cls[1:])


def _del_pezzo(r: int) -> SurfaceModel:
    labels = ("H",) + tuple(f"E{i}" for i in range(1, r + 1)) if r != 1 \
        else ("H", "E")
    gram = tuple(tuple((1 if i == j == 0 else (-1 if i == j else 0))
                       for j in range(r + 1)) for i in range(r + 1))
    curves = []
    for cls in enumerate_minus_one_curves(r):
        name = _curve_name(cls)
        if r == 1:
            name = name.replace("E1", "E")
        curves.append(CurveRecord(name=name, cls=cls, self_int=-1,
                                  is_rational=True))
    # movable records: a general line, and for r=1 the pencil of lines
    # through the blown-up point (needed to span the effective cone)
    line = (1,) + (0,) * r
    curves.append(CurveRecord(name="L", cls=line, self_int=1,
                              is_rational=True))
    if r == 1:
        curves.append(CurveRecord(name="F", cls=(1, -1), self_int=0,
                                  is_rational=True))
    anti_k = (3,) + (-1,) * r
    canonical = (-3,) + (1,) * r
    points = {"generic": PointSpec(on_curve="L", generic=True)}
    if r == 1:
        points["on-E"] = PointSpec(on_curve="E", generic=True)
    families = [GenericFamily(cls=line, mult=1, name_hint="L")]
    return SurfaceModel(
        rank=r + 1,
        basis_labels=labels,
        gram=gram,
        curves=tuple(curves),
        ample_ref=tuple(Fraction(x) for x in anti_k),
        canonical=tuple(Fraction(x) for x in canonical),
        completeness_declared=True,
        points=points,
        generic_families=tuple(families),
        metadata={"family": "del-pezzo", "r": str(r)},
    )


def _p2() -> SurfaceModel:
    return SurfaceModel(
        rank=1,
        basis_labels=("H",),
        gram=((1,),),
        curves=(CurveRecord(name="L", cls=(1,), self_int=1,
                            is_rational=True),),
        ample_ref=(Fraction(1),),
        canonical=(Fraction(-3),),
        completeness_declared=True,
        points={"generic": PointSpec(on_curve="L", generic=True)},
        generic_families=(GenericFamily(cls=(1,), mult=1, name_hint="L"),),
        metadata={"family": "del-pezzo", "r": "0"},
    )


def _hirzebruch(n: int) -> SurfaceModel:
    if n < 0:
        raise UnknownModel(f"hirzebruch-{n}")
    gram = ((-n, 1), (1, 0))
    families = (GenericFamily(cls=(0, 1), mult=1, name_hint="f"),)
    if n == 0:  # on P1 x P1 the ruling C0 moves too
        families += (GenericFamily(cls=(1, 0), mult=1, name_hint="C"),)
    curves = (
        CurveRecord(name="C0", cls=(1, 0), self_int=-n, is_rational=True),
        CurveRecord(name="f", cls=(0, 1), self_int=0, is_rational=True),
    )
    return SurfaceModel(
        rank=2,
        basis_labels=("C0", "f"),
        gram=gram,
        curves=curves,
        ample_ref=(Fraction(1), Fraction(n + 1)),
        canonical=(Fraction(-2), Fraction(-(n + 2))),
        completeness_declared=True,
        points={"generic": PointSpec(on_curve="f", generic=True),
                "on-C0": PointSpec(on_curve="C0", generic=True)},
        generic_families=families,
        metadata={"family": "hirzebruch", "n": str(n)},
    )


def _example_interesting() -> SurfaceModel:
    gram = ((-1, 1, 1), (1, -2, 0), (1, 0, -1))
    curves = (
        CurveRecord(name="E1", cls=(1, 0, 0), self_int=-1, is_rational=True),
        CurveRecord(name="E2", cls=(0, 1, 0), self_int=-2, is_rational=True),
        CurveRecord(name="E3", cls=(0, 0, 1), self_int=-1, is_rational=True),
    )
    points = {
        "generic": PointSpec(on_curve="E1", generic=True),
        "E1-on-E2": PointSpec(on_curve="E1", local_mults={"E2": 1},
                              generic=False),
        "E1-on-E3": PointSpec(on_curve="E1", local_mults={"E3": 1},
                              generic=False),
        "E2-on-E1": PointSpec(on_curve="E2", local_mults={"E1": 1},
                              generic=False),
    }
    # pi*H = 2E1 + E2 + E3 is big and nef; 5H-ish interior class is ample
    return SurfaceModel(
        rank=3,
        basis_labels=("E1", "E2", "E3"),
        gram=gram,
        curves=curves,
        ample_ref=(Fraction(5), Fraction(2), Fraction(4)),
        canonical=(Fraction(-4), Fraction(-2), Fraction(-3)),
        completeness_declared=True,
        points=points,
        generic_families=(GenericFamily(cls=(2, 1, 1), mult=1,
                                        name_hint="Lbar"),),
        metadata={"family": "example-interesting"},
    )


def _example_interesting_base() -> SurfaceModel:
    return _del_pezzo(1)._replace(metadata={
        "family": "del-pezzo", "r": "1", "default_point": "on-E-tangent"})


@lru_cache(maxsize=None)
def builtin(name: str) -> SurfaceModel:
    if name == "p2":
        model = _p2()
    elif name.startswith("bl") and name.endswith("p2"):
        try:
            r = int(name[2:-2])
        except ValueError:
            raise UnknownModel(name) from None
        if not 1 <= r <= 8:
            raise UnknownModel(name)
        model = _del_pezzo(r)
    elif name.startswith("hirzebruch-"):
        try:
            n = int(name.split("-", 1)[1])
        except ValueError:
            raise UnknownModel(name) from None
        model = _hirzebruch(n)
    elif name == "example-interesting":
        model = _example_interesting()
    elif name == "example-interesting-base":
        model = _example_interesting_base()
    else:
        raise UnknownModel(name)
    validate_model(model)
    return model


BUILTIN_NAMES = ("p2", "bl1p2", "bl2p2", "bl3p2", "bl4p2", "bl5p2", "bl6p2",
                 "bl7p2", "bl8p2", "hirzebruch-0", "hirzebruch-1",
                 "hirzebruch-2", "hirzebruch-3", "example-interesting",
                 "example-interesting-base")


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def _enc_frac(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 \
        else f"{x.numerator}/{x.denominator}"


# a rational: a JSON integer, or a string of ASCII digits with an optional
# sign and denominator; no decimal point, exponent, underscore or padding
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _dec_frac(s) -> Fraction:
    if not (type(s) is int or isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise SchemaError(
            f"bad rational {s!r}: Invalid literal for Fraction: {str(s)!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:  # too many digits, n/0
        raise SchemaError(f"bad rational {s!r}: {e}") from None


def _dec_int(s) -> int:
    # a JSON number with a point or an exponent is no integer, even 2.0
    f = None if isinstance(s, float) else _dec_frac(s)
    if f is None or f.denominator != 1:
        raise SchemaError(f"expected integer, got {s!r}")
    return f.numerator


def model_to_dict(model: SurfaceModel) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rank": model.rank,
        "basis": list(model.basis_labels),
        "gram": [[str(x) for x in row] for row in model.gram],
        "curves": [
            {"name": c.name, "class": [str(x) for x in c.cls],
             "self_int": str(c.self_int), "is_rational": c.is_rational}
            for c in model.curves
        ],
        "ample": [_enc_frac(x) for x in model.ample_ref],
        "ample_is_ample": model.ample_ref_is_ample,
        "canonical": ([_enc_frac(x) for x in model.canonical]
                      if model.canonical is not None else None),
        "effective_generators": (
            [[_enc_frac(x) for x in g] for g in model.effective_generators]
            if model.effective_generators is not None else None),
        "complete": model.completeness_declared,
        "points": {
            name: {"on_curve": p.on_curve,
                   "local_mults": {k: int(v) for k, v in
                                   sorted(p.local_mults.items())},
                   "generic": p.generic}
            for name, p in sorted(model.points.items())
        },
        "generic_families": [
            {"class": [str(x) for x in f.cls], "mult": f.mult,
             "name_hint": f.name_hint}
            for f in model.generic_families
        ],
        "metadata": dict(sorted(model.metadata.items())),
    }
    return doc


# what decoding a JSON document of the wrong shape raises
_MALFORMED = (KeyError, TypeError, AttributeError)


def model_from_dict(doc: dict) -> SurfaceModel:
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version "
                          f"{doc.get('schema_version')!r}")
    try:
        rank = _dec_int(doc["rank"])
        basis = tuple(str(x) for x in doc["basis"])
        gram = tuple(tuple(_dec_int(x) for x in row) for row in doc["gram"])
        curves = tuple(
            CurveRecord(name=str(c["name"]),
                        cls=tuple(_dec_int(x) for x in c["class"]),
                        self_int=_dec_int(c["self_int"]),
                        is_rational=c.get("is_rational"))
            for c in doc["curves"])
        ample = tuple(_dec_frac(x) for x in doc["ample"])
        canonical = (tuple(_dec_frac(x) for x in doc["canonical"])
                     if doc.get("canonical") is not None else None)
        eff = (tuple(tuple(_dec_frac(x) for x in g)
                     for g in doc["effective_generators"])
               if doc.get("effective_generators") is not None else None)
        points = {
            str(name): PointSpec(
                on_curve=str(p["on_curve"]),
                local_mults={str(k): _dec_int(v)
                             for k, v in p.get("local_mults", {}).items()},
                generic=bool(p.get("generic", True)))
            for name, p in doc.get("points", {}).items()
        }
        families = tuple(
            GenericFamily(cls=tuple(_dec_int(x) for x in f["class"]),
                          mult=_dec_int(f["mult"]),
                          name_hint=str(f["name_hint"]))
            for f in doc.get("generic_families", []))
        metadata = {str(k): str(v)
                    for k, v in doc.get("metadata", {}).items()}
        model = SurfaceModel(
            rank=rank, basis_labels=basis, gram=gram, curves=curves,
            ample_ref=ample, canonical=canonical, effective_generators=eff,
            completeness_declared=bool(doc.get("complete", False)),
            ample_ref_is_ample=bool(doc.get("ample_is_ample", True)),
            points=points, generic_families=families, metadata=metadata)
    except _MALFORMED as e:
        raise SchemaError(f"malformed model document: {e}") from None
    validate_model(model)
    return model


def save(model: SurfaceModel, path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")


def dumps_model(model: SurfaceModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # bad syntax or UTF-8, a number int() refuses, nesting past the stack
    except (ValueError, RecursionError) as e:
        raise SchemaError(f"invalid JSON: {e}") from None


def load(path) -> SurfaceModel:
    return model_from_dict(_load_json(path))


def resolve_model(spec: str) -> SurfaceModel:
    """Model from a "builtin:<name>" spec or a file path."""
    if spec.startswith("builtin:"):
        return builtin(spec.split(":", 1)[1])
    return load(spec)
