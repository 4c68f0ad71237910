"""W(E_r) equivariance on bl3p2 ... bl7p2 (hypothesis, derandomized).

The Weyl group W(E_r) acts on the classes of the blow-up of p2 at r
general points by isometries fixing K; it is generated by the
permutations of E_1, ..., E_r and, for r >= 3, the Cremona reflection
v -> v + (v . a) a in a = H - E_i - E_j - E_k.  The helpers below act on
coordinates in the basis (H, E_1, ..., E_r) and read nothing from
``surfpos.models``.  The properties:

- a word w permutes the (-1)-classes;
- the Zariski decomposition is equivariant: P(w.D) = w.P(D), N moves by
  the renaming of curves that w induces, and D is pseudo-effective
  exactly when w.D is;
- w permutes the extreme rays and facet normals of the nef cone on
  bl5p2, bl6p2 and bl7p2;
- those extreme rays are exactly the W(E_r) orbits of H and H - E_1, on
  bl3p2 ... bl7p2 (``tools/nefcone_bl8p2.py`` checks bl8p2);
- the Newton-Okounkov polygon is invariant: polygon(w.D, w(C), w(x)) =
  polygon(D, C, x) for a (-1)-curve C, with x generic on C or at C cap C'
  for a (-1)-curve C' that meets C.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import surfpos as sp
from surfpos.errors import NotPseudoEffective
from surfpos.lattice import PointSpec, dual_cone, pairing

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=20)


def transpose(v, i, j):
    """v with the coordinates of E_i and E_j exchanged."""
    v = list(v)
    v[i], v[j] = v[j], v[i]
    return tuple(v)


def cremona(v, i, j, k):
    """The reflection of v in H - E_i - E_j - E_k, of square -2."""
    m = v[0] + v[i] + v[j] + v[k]  # v . (H - E_i - E_j - E_k)
    v = list(v)
    v[0] += m
    for n in (i, j, k):
        v[n] -= m
    return tuple(v)


def act(word, v):
    """v moved by each generator of ``word`` in turn."""
    for gen, idx in word:
        v = gen(v, *idx)
    return tuple(v)


@st.composite
def weyl_words(draw, r):
    """A word of up to six transpositions and Cremona reflections."""
    indices = st.integers(1, r)
    step = st.one_of(
        st.tuples(st.just(transpose),
                  st.lists(indices, min_size=2, max_size=2, unique=True)),
        st.tuples(st.just(cremona),
                  st.lists(indices, min_size=3, max_size=3, unique=True)))
    return draw(st.lists(step, min_size=1, max_size=6))


def del_pezzo(data, lo=3, hi=7):
    r = data.draw(st.integers(lo, hi))
    return r, sp.builtin(f"bl{r}p2"), data.draw(weyl_words(r))


def minus_one_renaming(model, word) -> dict[str, str]:
    """Each (-1)-curve's name to the name of its image under ``word``."""
    names = {c.cls: c.name for c in model.curves}
    return {c.name: names[act(word, c.cls)] for c in model.curves
            if c.self_int == -1}


@SETTINGS
@given(st.data())
def test_weyl_words_are_isometries_fixing_k(data):
    r, model, word = del_pezzo(data)
    u, v = (tuple(data.draw(st.integers(-5, 5)) for _ in range(r + 1))
            for _ in range(2))
    assert pairing(model, act(word, u), act(word, v)) == pairing(model, u, v)
    assert act(word, model.canonical) == model.canonical


@SETTINGS
@given(st.data())
def test_weyl_group_permutes_minus_one_curves(data):
    r, _, word = del_pezzo(data)
    classes = sp.enumerate_minus_one_curves(r)
    assert sorted(act(word, c) for c in classes) == classes


@settings(SETTINGS, max_examples=30)
@given(st.data())
def test_zariski_decomposition_is_weyl_equivariant(data):
    r, model, word = del_pezzo(data)
    d = tuple(Fraction(data.draw(st.integers(-4, 3)),
                       data.draw(st.integers(1, 3)))
              for _ in range(r))
    d = (Fraction(data.draw(st.integers(0, 9))),) + d
    try:
        base = sp.zariski_decompose(model, d)
    except NotPseudoEffective:
        base = None
    try:
        moved = sp.zariski_decompose(model, act(word, d))
    except NotPseudoEffective:
        moved = None
    assert (base is None) == (moved is None), (d, word)
    if base is not None:
        rename = minus_one_renaming(model, word)
        assert moved.P == act(word, base.P), (d, word)
        assert moved.N_coeffs == {rename[n]: a
                                  for n, a in base.N_coeffs.items()}, (d, word)


def nef_rays(r):
    """The sorted W(E_r) orbits of H and H - E_1 on bl_r p2, r >= 3:
    the two seeds closed under the adjacent transpositions and the Cremona
    reflection in H - E_1 - E_2 - E_3, which generate W(E_r)."""
    seeds = [(1,) + (0,) * r, (1, -1) + (0,) * (r - 1)]
    moves = [(transpose, (i, i + 1)) for i in range(1, r)]
    moves.append((cremona, (1, 2, 3)))
    orbit, todo = set(seeds), seeds
    while todo:
        v = todo.pop()
        for gen, idx in moves:
            w = gen(v, *idx)
            if w not in orbit:
                orbit.add(w)
                todo.append(w)
    return sorted(orbit)


@lru_cache(maxsize=None)
def nef_cone(r):
    model = sp.builtin(f"bl{r}p2")
    return dual_cone(model.effective_gens(), model)


def test_nef_cone_is_two_weyl_orbits():
    """Nef(bl_r p2) for 3 <= r <= 7: its extreme rays, as dual_cone finds
    them, are the orbits of H and H - E_1, and nothing else."""
    sizes = {}
    for r in range(3, 8):
        rays = nef_rays(r)
        assert list(nef_cone(r).generators) == rays, r
        sizes[r] = len(rays)
    assert sizes == {3: 5, 4: 10, 5: 26, 6: 99, 7: 702}


@SETTINGS
@given(st.data())
def test_weyl_group_permutes_the_nef_cone(data):
    r, _, word = del_pezzo(data, 5, 7)
    cone = nef_cone(r)
    for part in (cone.generators, cone.facet_normals):
        assert {act(word, v) for v in part} == set(part), word


@settings(SETTINGS, max_examples=10)
@given(st.data())
def test_polygon_is_weyl_invariant(data):
    _, model, word = del_pezzo(data)
    rename = minus_one_renaming(model, word)
    minus_one = sorted(rename)
    # -K plus a few (-1)-curves: big, and not nef when a coefficient is
    # large
    d = [-x for x in model.canonical]
    for _ in range(data.draw(st.integers(0, 3))):
        c = model.curve_class(data.draw(st.sampled_from(minus_one)))
        k = Fraction(data.draw(st.integers(1, 6)), 2)
        d = [x + k * y for x, y in zip(d, c)]
    flag = data.draw(st.sampled_from(minus_one))
    met = [n for n in minus_one if n != flag and model.meet(n, flag) > 0]
    other = data.draw(st.sampled_from([None] + met))
    point, moved_point = (
        PointSpec(on_curve=c, local_mults={} if o is None else {o: 1},
                  generic=o is None)
        for c, o in ((flag, other),
                     (rename[flag], other and rename[other])))
    base = sp.okounkov_polygon(model, d, flag, point)
    moved = sp.okounkov_polygon(model, act(word, d), rename[flag],
                                moved_point)
    assert (moved.nu, moved.mu) == (base.nu, base.mu), (d, word, flag)
    assert set(moved.vertices) == set(base.vertices), (d, word, flag)
