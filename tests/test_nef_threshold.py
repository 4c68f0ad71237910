"""The nef threshold of pi*P - tE against an independent oracle.

``seshadri_direct``, ``xi`` and ``moving_seshadri`` read one threshold
routine, which compares the cap sqrt(P^2) with each curve ratio
(P.C)/(C.E) on integers and builds a root only when the cap is the answer.
The oracle here takes the minimum of exact scalars, as the routine did
before: the cap as a Fraction or a ``Quad`` from sympy's factorisation,
the ratios as Fractions from the blow-up's Gram matrix, and Python's
``min`` over them, which orders a ``Quad`` by its own rule.  It reads no
curve table and no integer numerator.

Random nef classes are drawn on every builtin, all of which declare their
curve lists complete, at the generic point and at points of one or of two
listed curves, with cases where a ratio ties with a rational cap, and
each class also times and over 10^40 + 121.  Value and type must
match."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy

import surfpos as sp
from surfpos import models
from surfpos.errors import NotBig
from surfpos.infinitesimal import GENERIC_POINT, BlowupSpec, blow_up
from surfpos.scalars import primitive

from conftest import Quad, seeded_rng

SCALE = 10**40 + 121
COMPLETE = [n for n in models.BUILTIN_NAMES
            if sp.builtin(n).completeness_declared]
# nef classes whose cap is rational and equal to the least ratio at the
# generic point: kH on p2 (the line through x), -K on bl5p2 (sqrt(4) and
# the conic through x and the five points)
TIES = {"p2": [(3,)], "bl5p2": [(3, -1, -1, -1, -1, -1)]}


def dot(model, u, v) -> Fraction:
    """u . v by the model's Gram matrix, entry by entry."""
    return Fraction(sum(a * g * b for a, row in zip(u, model.gram)
                        for g, b in zip(row, v)))


def exact_sqrt(q: Fraction):
    """sqrt(q) for a rational q >= 0: sqrt(n*d)/d for q = n/d, with the
    square part of n*d taken out by sympy's factorisation."""
    assert q >= 0
    n, d = q.numerator, q.denominator
    if n == 0:
        return Fraction(0)
    out = rest = 1
    for p, e in sympy.factorint(n * d).items():
        out *= p ** (e // 2)
        rest *= p ** (e % 2)
    if rest == 1:
        return Fraction(out, d)
    return Quad(Fraction(0), Fraction(out, d), rest)


def oracle(bm, exc: str, p):
    """min(sqrt(P^2), (P.C)/(C.E) over the listed C with C.E > 0), and
    whether a ratio ties with the cap."""
    e = bm.curve(exc).cls
    ratios = [dot(bm, p, c.cls) / dot(bm, c.cls, e) for c in bm.curves
              if dot(bm, c.cls, e) > 0]
    cap = exact_sqrt(dot(bm, p, p))
    return min([cap, *ratios]), cap in ratios


def is_nef(model, d) -> bool:
    """d^2, d.A and every d.C >= 0, by :func:`dot`."""
    return (dot(model, d, d) >= 0 and dot(model, d, model.ample_ref) >= 0
            and all(dot(model, d, c.cls) >= 0 for c in model.curves))


def nef_classes(model, rng, count=4) -> list:
    """``count`` nef integer classes: a multiple of the ample reference
    moved by a random vector with entries in -2 ... 2, kept when nef."""
    a = primitive(model.ample_ref)
    found = []
    while len(found) < count:
        c = rng.randrange(1, 4)
        d = tuple(c * x + rng.randrange(-2, 3) for x in a)
        if is_nef(model, d):
            found.append(d)
    return found


def special_points(model, rng) -> list[BlowupSpec]:
    """A point of each of two listed curves, and of two listed curves that
    meet, drawn with ``rng``."""
    names = [c.name for c in model.curves]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if model.meet(a, b) >= 1]
    ones = rng.sample(names, min(2, len(names)))
    twos = rng.sample(pairs, min(1, len(pairs)))
    return [BlowupSpec(mults={n: 1}) for n in ones] + \
        [BlowupSpec(mults=dict.fromkeys(pair, 1)) for pair in twos]


def assert_threshold(model, d, x: BlowupSpec, want) -> None:
    got = sp.seshadri_direct(model, d, x)
    assert got == want and type(got) is type(want), (d, x, got, want)
    if want == 0 and dot(model, d, d) == 0:
        for query in (sp.xi, sp.moving_seshadri):
            with pytest.raises(NotBig):
                query(model, d, x)
        return
    got = sp.xi(model, d, x)
    assert got == want and type(got) is type(want), (d, x, got, want)
    moving = sp.moving_seshadri(model, d, x)
    assert moving.value == want and type(moving.value) is type(want)
    assert moving.status is (sp.SeshadriStatus.POSITIVE if want != 0
                             else sp.SeshadriStatus.IN_NULL_NOT_NEG)


@pytest.mark.parametrize("base", COMPLETE)
def test_nef_threshold_equals_the_exact_scalar_minimum(base):
    model = sp.builtin(base)
    rng = seeded_rng(f"nef-threshold-{base}")
    classes = nef_classes(model, rng) + TIES.get(base, [])
    for x in [GENERIC_POINT] + special_points(model, rng):
        bm, _, exc = blow_up(model, x)
        for d in classes:
            want, tie = oracle(bm, exc, (*d, 0))
            if d in TIES.get(base, []) and x == GENERIC_POINT:
                assert tie and type(want) is Fraction, (base, d)
            assert_threshold(model, d, x, want)
            for k in (SCALE, Fraction(1, SCALE)):
                assert_threshold(model, tuple(v * k for v in d), x, want * k)


def test_the_draws_reach_both_kinds_of_answer():
    """Over the builtins at the generic point the drawn classes give both
    curve ratios and irrational caps."""
    kinds = set()
    for base in COMPLETE:
        model = sp.builtin(base)
        bm, _, exc = blow_up(model)
        for d in nef_classes(model, seeded_rng(f"nef-threshold-{base}")):
            kinds.add(type(oracle(bm, exc, (*d, 0))[0]))
    assert kinds == {Fraction, Quad}
