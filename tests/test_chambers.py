"""The Zariski chamber atlas of bl_r p2, r <= 7.

The Zariski chambers of the big cone are in bijection with the supports
of negative parts, the negative-definite sets of negative curves (Bauer,
Küronya and Szemberg, *Zariski chambers, volumes, and stable base loci*,
2004).  On bl_r p2 with r <= 8 these are the sets of pairwise-disjoint
(-1)-curves, counted by Bauer, Funke and Neumann (*Counting Zariski
chambers on del Pezzo surfaces*, 2010): 2, 5, 18, 76, 393, 2764 and
33645 for r = 1 ... 7.  bl8p2's 1501681 takes about a second, so it
stays out of tier-1.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

import surfpos as sp
from surfpos.models import enumerate_minus_one_curves

from conftest import random_big, random_pseff, seeded_rng

CHAMBERS = {1: 2, 2: 5, 3: 18, 4: 76, 5: 393, 6: 2764, 7: 33645}


@lru_cache(maxsize=None)
def atlas(r: int) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """The (-1)-classes of bl_r p2, and every set of pairwise-disjoint
    ones as a bitmask over that list, the empty set included.  A set grows
    only by classes later in the list that are disjoint from all of it."""
    classes = tuple(enumerate_minus_one_curves(r))
    n = len(classes)

    def meet(a, b):
        return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))

    later = [sum(1 << j for j in range(i + 1, n)
                 if meet(classes[i], classes[j]) == 0) for i in range(n)]
    sets = []

    def grow(mask, candidates):
        sets.append(mask)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            grow(mask | low, candidates & later[low.bit_length() - 1])

    grow(0, (1 << n) - 1)
    return classes, frozenset(sets)


@pytest.mark.parametrize("r", sorted(CHAMBERS))
def test_chamber_count_of_del_pezzo_surfaces(r):
    assert len(atlas(r)[1]) == CHAMBERS[r]


@pytest.mark.parametrize("r", sorted(CHAMBERS))
def test_every_support_is_in_the_atlas(r):
    """The support of each decomposition of the random pseudo-effective
    and big classes of conftest is a set of pairwise-disjoint
    (-1)-curves, that is a chamber of the atlas."""
    model = sp.builtin(f"bl{r}p2")
    classes, sets = atlas(r)
    index = {c: 1 << i for i, c in enumerate(classes)}
    rng = seeded_rng(f"atlas-bl{r}p2")
    for i in range(8):
        d = random_big(model, rng) if i % 2 else random_pseff(model, rng)
        support = sp.zariski_decompose(model, d).support
        mask = sum(index[model.curve(n).cls] for n in support)
        assert mask in sets, (r, d, support)
