"""The pseudo-effectivity LP against the simplex it replaced.

``lattice.cone_contains`` enters the column of largest reduced cost and
falls back on Bland's rule only through degenerate pivots.  The reference
below is the simplex as it was before, with Bland's rule throughout.  The
properties (hypothesis, derandomized): on the models of the test matrix
and their generic blow-ups, both give the same verdict; on bl5p2 ... bl8p2
that verdict also holds after relabelling the points E1 ... Er, applied to
the class and to the generators alike.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import surfpos as sp
from surfpos import lattice
from surfpos.infinitesimal import blow_up
from surfpos.lattice import cone_contains, pairing
from surfpos.scalars import vector

from conftest import MATRIX_MODELS, seeded_rng

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _bland_cone_contains(generators, v) -> bool:
    """Phase-one simplex with Bland's rule over exact rationals: the first
    improving column enters, and the row of least ratio leaves, ties to
    the smallest basic index."""
    gens = [vector(g) for g in generators]
    target = vector(v)
    if all(x == 0 for x in target):
        return True
    if not gens:
        return False
    m = len(target)
    n = len(gens)
    rows = []
    rhs = []
    for i in range(m):
        coeffs = [g[i] for g in gens]
        b = target[i]
        if b < 0:
            coeffs = [-c for c in coeffs]
            b = -b
        rows.append(coeffs)
        rhs.append(b)
    width = n + m
    tab = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            obj[j] += tab[i][j]
    while True:
        enter = next((j for j in range(n)
                      if j not in basis and obj[j] > 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break
        _, piv = best
        pr = tab[piv]
        inv = 1 / pr[enter]
        tab[piv] = [x * inv for x in pr]
        for i in range(m):
            if i != piv and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[piv])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, tab[piv])]
        basis[piv] = enter
    return obj[width] == 0


@lru_cache(maxsize=None)
def model_of(name: str, generic_blow_up: bool):
    model = sp.builtin(name)
    return blow_up(model)[0] if generic_blow_up else model


@st.composite
def classes(draw, model):
    """(kind, class).  An "inside" class is a non-negative combination of
    one to three effective generators, so it is pseudo-effective.  An
    "outside" class is such a combination minus a generator g, far enough
    along g to pair negatively with the ample reference A, so it is not
    when A pairs non-negatively with every generator (Farkas).  A "box"
    class is a small integer vector, or an "outside" class without that
    certificate: it may be either."""
    kind = draw(st.sampled_from(("inside", "outside", "box")))
    if kind == "box":
        return kind, tuple(Fraction(draw(st.integers(-3, 3)))
                           for _ in range(model.rank))
    gens = model.effective_gens()
    index = st.integers(0, len(gens) - 1)
    d = list(gens[draw(index)])
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
        d = [x + c * y for x, y in zip(d, gens[draw(index)])]
    if kind == "outside":
        a = model.ample_ref
        g = gens[draw(index)]
        ga = pairing(model, g, a)
        t = draw(st.fractions(min_value=Fraction(1, 4), max_value=2,
                              max_denominator=4))
        if ga > 0:
            t += pairing(model, d, a) / ga
        d = [x - t * y for x, y in zip(d, g)]
        if ga <= 0 or any(pairing(model, h, a) < 0 for h in gens):
            kind = "box"
    return kind, tuple(d)


MATRIX = [(name, up) for name in MATRIX_MODELS for up in (False, True)]


@pytest.mark.parametrize("which", MATRIX, ids=[
    f"{name}{'-generic-blow-up' if up else ''}" for name, up in MATRIX])
@settings(SETTINGS, max_examples=6)
@given(st.data())
def test_verdict_equals_blands_rule(which, data):
    model = model_of(*which)
    kind, d = data.draw(classes(model))
    gens = model.effective_gens()
    verdict = cone_contains(gens, d)
    assert verdict == _bland_cone_contains(gens, d)
    if kind != "box":
        assert verdict == (kind == "inside")


def relabel(perm, v) -> tuple:
    """v in the basis H, E1, ..., Er with E_i renamed E_perm[i - 1]."""
    out = list(v)
    for i, j in enumerate(perm, start=1):
        out[j] = v[i]
    return tuple(out)


@pytest.mark.parametrize("r", [5, 6, 7, 8])
@settings(SETTINGS, max_examples=3)
@given(st.data())
def test_verdict_does_not_follow_the_labels(r, data):
    """Relabelling the points maps the effective cone to itself.  The
    relabelled generators are listed in sorted order, as a model built
    with the new labels could list them, so the columns move too.  The
    reference decides only the "box" classes here: on bl8p2 Bland's rule
    takes more than a second for some "inside" classes, whose verdict is
    known by construction."""
    model = model_of(f"bl{r}p2", False)
    kind, d = data.draw(classes(model))
    perm = data.draw(st.permutations(range(1, r + 1)))
    gens = model.effective_gens()
    verdict = cone_contains(gens, d)
    if kind == "box":
        assert verdict == _bland_cone_contains(gens, d)
    else:
        assert verdict == (kind == "inside")
    moved = sorted(relabel(perm, g) for g in gens)
    assert cone_contains(moved, relabel(perm, d)) == verdict


def _recorded_pivots(monkeypatch):
    """The (row, column) of every lattice._pivot call, in order."""
    seen = []
    pivot = lattice._pivot

    def recorded_pivot(tab, obj, piv, enter):
        seen.append((piv, enter))
        return pivot(tab, obj, piv, enter)

    monkeypatch.setattr(lattice, "_pivot", recorded_pivot)
    return seen


def _declared_fraction_generators():
    """bl5p2 declaring its curve classes as Fraction vectors."""
    model = sp.builtin("bl5p2")
    return model._replace(effective_generators=tuple(
        vector(c.cls) for c in model.curves))


def _lp_classes(model, rng, k):
    """k classes, alternately a combination of one to three generators
    (of degree at most 1 on a del Pezzo model, so no LP on bl8p2 takes
    long) with coefficients in (0, 3], and a small integer vector."""
    gens = [g for g in model.effective_gens()
            if model.metadata.get("family") != "del-pezzo" or g[0] <= 1]
    out = []
    for i in range(k):
        if i % 2:
            out.append(tuple(Fraction(rng.randint(-3, 3))
                             for _ in range(model.rank)))
            continue
        d = [Fraction(0)] * model.rank
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            d = [x + c * y for x, y in zip(d, rng.choice(gens))]
        out.append(tuple(d))
    return out


@pytest.mark.parametrize("name, k", [
    ("bl6p2", 6), ("bl7p2", 6), ("bl8p2", 4), ("hirzebruch-3", 6),
    ("bl5p2-declared", 6)])
def test_int_and_fraction_generators_take_the_same_pivots(monkeypatch,
                                                           name, k):
    """The LP reads generator entries as stored, ints or Fractions, and
    compares the same rationals either way: an int copy and a Fraction copy
    of the same generators give the same verdict through the same pivots.
    bl5p2-declared declares its generators as Fraction vectors, and
    effective_gens returns them as declared."""
    if name == "bl5p2-declared":
        model = _declared_fraction_generators()
        assert model.effective_gens() is model.effective_generators
    else:
        model = sp.builtin(name)
    ints = tuple(tuple(map(int, g)) for g in model.effective_gens())
    fracs = tuple(vector(g) for g in ints)
    assert ints == fracs
    seen = _recorded_pivots(monkeypatch)
    for d in _lp_classes(model, seeded_rng(f"lp-copies-{name}"), k):
        verdict = cone_contains(ints, d)
        by_ints, seen[:] = list(seen), []
        assert cone_contains(fracs, d) == verdict, (name, d)
        assert seen == by_ints, (name, d)
        seen.clear()


@pytest.mark.parametrize("generators, v", [
    ([(1, 0), (0.5, 1)], (1, 1)), ([(1, 0), (Fraction(1, 2), 1.0)], (1, 1)),
    ([(1, 0), (0, 1)], (1.0, 1)), ([(1, 0), (0, 1)], (0.0, 0))])
def test_a_float_generator_or_target_raises(generators, v):
    """A float is no exact rational, in a generator or in the target."""
    with pytest.raises(TypeError):
        cone_contains(generators, v)


def test_stored_curve_classes_get_no_fraction_copy(monkeypatch):
    """An LP over bl8p2's 240 (-1)-classes and L, as stored, converts only
    its target with scalars.vector: the tableau takes the integer classes
    as they are."""
    model = sp.builtin("bl8p2")
    calls = []
    convert = lattice.vector

    def counted_vector(xs):
        calls.append(xs)
        return convert(xs)

    monkeypatch.setattr(lattice, "vector", counted_vector)
    d = model.canonical
    assert not cone_contains([c.cls for c in model.curves], d)
    assert calls == [d]
