"""Harbourne's W(E_r) reduction as an oracle on del Pezzo lattices.

``conftest.harbourne_decompose`` decides a class on bl_r p2 with integer
Weyl group steps and builds its Zariski decomposition from the fixed
components it subtracts, sharing no code with the LP or with Bauer's
fixpoint.  Here it checks P, N, ``NotPseudoEffective``, ``is_big`` and
``volume`` on ``p2`` ... bl8p2 and on the generic blow-ups of ``p2`` ...
bl7p2, which list exactly the (-1)-classes of bl_{r+1} p2, and the per-t
decompositions of chamber walks on bl4p2 ... bl7p2, the first oracle for
the walk on models that are not toric.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

import surfpos as sp
from surfpos.errors import NotPseudoEffective
from surfpos.infinitesimal import blow_up
from surfpos.lattice import PointSpec

from conftest import assert_breakpoint_oracle, harbourne_decompose, seeded_rng

DEL_PEZZO = ["p2"] + [f"bl{r}p2" for r in range(1, 9)]
MODELS = [(name, False) for name in DEL_PEZZO] + \
    [(name, True) for name in DEL_PEZZO[:-1]]


@lru_cache(maxsize=None)
def model_of(name: str, generic_blow_up: bool):
    model = sp.builtin(name)
    return blow_up(model)[0] if generic_blow_up else model


def oracle_classes(model, rng, k):
    """k classes: alternately dH - sum m_i E_i with 0 <= d <= 6 and
    -1 <= m_i <= 3, a third of them divided by 2 or 3, and a combination
    of a multiple of H and up to three (-1)-classes of degree at most 1,
    which is pseudo-effective and keeps every LP on rank 9 short."""
    curves = [c.cls for c in model.curves if c.self_int < 0 and c.cls[0] <= 1]
    out = []
    for i in range(k):
        if i % 2 == 0:
            d = [rng.randint(0, 6)] + [-rng.randint(-1, 3)
                                       for _ in range(model.rank - 1)]
            den = rng.choice((1, 1, 2, 3))
            out.append(tuple(Fraction(x, den) for x in d))
            continue
        d = [Fraction(rng.randint(0, 3))] + [Fraction(0)] * (model.rank - 1)
        for _ in range(rng.randint(1, 3) if curves else 0):
            c = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            d = [x + c * y for x, y in zip(d, rng.choice(curves))]
        out.append(tuple(d))
    return out


@pytest.mark.parametrize("name, up", MODELS, ids=[
    f"{name}{'-generic-blow-up' if up else ''}" for name, up in MODELS])
def test_decomposition_equals_the_weyl_reduction(name, up):
    """P and N of zariski_decompose, or NotPseudoEffective, as the
    reduction gives them; is_big iff P^2 > 0, and volume is P^2, with the
    Gram diag(1, -1, ..., -1) written out.  Twelve classes a model up to
    rank 7, six on rank 8 and three on rank 9, where the LPs are slower."""
    model = model_of(name, up)
    k = {8: 6, 9: 3}.get(model.rank, 12)
    for d in oracle_classes(model, seeded_rng(f"harbourne-{name}-{up}"), k):
        try:
            want = harbourne_decompose(model, d)
        except NotPseudoEffective:
            with pytest.raises(NotPseudoEffective):
                sp.zariski_decompose(model, d)
            assert not sp.is_big(model, d), (name, up, d)
            continue
        got = sp.zariski_decompose(model, d)
        assert (got.P, got.N_coeffs) == (want.P, want.N_coeffs), \
            (name, up, d)
        vol = want.P[0] ** 2 - sum(x * x for x in want.P[1:])
        assert sp.is_big(model, d) == (vol > 0), (name, up, d)
        assert sp.volume(model, d) == vol, (name, up, d)


def test_reduction_refuses_and_names_its_fixed_components():
    """Hand-checked cases on bl2p2: H - 2E1 pairs negatively with the nef
    class H - E1; 2H - 2E1 - 2E2 has the line L12 twice in its fixed part
    and P = 0; H + E1 has the fixed component E1 once."""
    model = sp.builtin("bl2p2")
    with pytest.raises(NotPseudoEffective):
        harbourne_decompose(model, (1, -2, 0))
    pair = harbourne_decompose(model, (2, -2, -2))
    assert pair.P == (0, 0, 0) and pair.N_coeffs == {"L12": 2}
    pair = harbourne_decompose(model, (1, 1, 0))
    assert pair.P == (1, 0, 0) and pair.N_coeffs == {"E1": 1}


@pytest.mark.parametrize("r", [4, 5, 6, 7])
def test_walks_equal_the_weyl_reduction_per_t(r):
    """The chamber walk's alpha(t) and beta(t) equal those of the
    reduction's decomposition of D - tC at every rational breakpoint and
    inside every piece, for D = -K and -K + E1 with the flag curve E1 at
    a generic point, and D = -K with the flag curve L12."""
    model = sp.builtin(f"bl{r}p2")
    anti_k = tuple(-x for x in model.canonical)
    plus_e1 = tuple(x + (i == 1) for i, x in enumerate(anti_k))
    configs = [(f"bl{r}p2", model, model.divisor(d), flag,
                PointSpec(on_curve=flag, generic=True))
               for d, flag in ((anti_k, "E1"), (plus_e1, "E1"),
                               (anti_k, "L12"))]
    assert_breakpoint_oracle(configs, harbourne_decompose)
