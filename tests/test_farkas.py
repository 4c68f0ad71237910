"""The Farkas table of a model against the LP (hypothesis, derandomized).

``SurfaceModel._farkas`` holds integer rows that pair non-negatively with
every effective generator, and whether they decide membership both ways.
When the generators are rho independent vectors the rows are the facet
rows of B^-1 and the table is complete; otherwise it holds the ample row
alone, when there is one.  The properties: on simplicial cones the
table's verdict equals ``lattice.cone_contains`` on the same generators,
on random classes, on classes on a facet and on the zero class; on every
other cone a refusal by the table is a refusal by the LP.  Either way
``zariski.is_pseudo_effective`` gives the LP's verdict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfpos as sp
from surfpos import zariski
from surfpos.infinitesimal import blow_up
from surfpos.lattice import BlowupSpec, cone_contains
from surfpos.scalars import scaled

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=20)

F = Fraction


def relative_model(generators):
    """A declared-incomplete rank-2 lattice with declared generators."""
    return sp.SurfaceModel(
        rank=2, basis_labels=("H", "C"), gram=((2, 1), (1, -1)),
        curves=(sp.CurveRecord(name="C", cls=(0, 1), self_int=-1),),
        ample_ref=(F(1), F(0)), effective_generators=generators,
        completeness_declared=False)


@lru_cache(maxsize=None)
def model(name: str):
    if name == "hirzebruch-3-on-C0":
        return blow_up(sp.builtin("hirzebruch-3"),
                       BlowupSpec(mults={"C0": 1}))[0]
    if name == "relative-basis":
        return relative_model(((F(0), F(1)), (F(3, 2), F(-1, 2))))
    if name == "relative-dependent":
        return relative_model(((F(0), F(1)), (F(0), F(1, 2))))
    if name == "bl1p2-generic":
        return blow_up(sp.builtin("bl1p2"))[0]
    return sp.builtin(name)


SIMPLICIAL = (["p2", "example-interesting", "hirzebruch-3-on-C0",
               "relative-basis"]
              + [f"hirzebruch-{n}" for n in range(11)])
OTHER = ["bl1p2", "bl2p2", "bl3p2", "bl1p2-generic", "relative-dependent"]


def table_verdict(m, d):
    """False when a row refuses d, True when the complete table accepts
    it, None when the table leaves d to the LP."""
    rows, complete = m._farkas
    num = scaled(m.divisor(d))[0]
    if any(sum(map(mul, w, num)) < 0 for w in rows):
        return False
    return True if complete else None


@st.composite
def classes(draw, m):
    """sum x_j g_j over the generators g_j, each x_j zero or a small
    fraction of either sign: on a facet whenever some x_j is 0, and the
    zero class when every x_j is."""
    x = [draw(st.one_of(st.just(F(0)),
                        st.fractions(min_value=-3, max_value=3,
                                     max_denominator=3)))
         for _ in m.effective_gens()]
    return tuple(sum((c * g[i] for c, g in zip(x, m.effective_gens())), F(0))
                 for i in range(m.rank))


@pytest.mark.parametrize("name", SIMPLICIAL + OTHER)
def test_table_rows_pair_non_negatively_with_the_generators(name):
    """Every row pairs non-negatively with every generator; the rows of a
    complete table are dual to the generators: w_i . g_j = c_i delta_ij
    with c_i > 0."""
    m = model(name)
    rows, complete = m._farkas
    assert complete == (name in SIMPLICIAL)
    gens = m.effective_gens()
    dots = [[sum(map(mul, w, g)) for g in gens] for w in rows]
    assert all(x >= 0 for row in dots for x in row)
    if complete:
        assert len(rows) == m.rank
        assert all((x > 0) == (i == j) for i, row in enumerate(dots)
                   for j, x in enumerate(row))


@pytest.mark.parametrize("name", SIMPLICIAL + OTHER)
def test_zero_class_is_pseudo_effective(name):
    m = model(name)
    zero = (F(0),) * m.rank
    assert table_verdict(m, zero) is not False
    assert zariski.is_pseudo_effective(m, zero)


@SETTINGS
@given(st.data())
def test_simplicial_table_verdict_equals_the_lp(data):
    m = model(data.draw(st.sampled_from(SIMPLICIAL)))
    d = data.draw(classes(m))
    lp = cone_contains(m.effective_gens(), d)
    assert table_verdict(m, d) is lp
    assert zariski.is_pseudo_effective(m, d) is lp


@SETTINGS
@given(st.data())
def test_a_refusal_by_the_table_is_a_refusal_by_the_lp(data):
    m = model(data.draw(st.sampled_from(OTHER)))
    d = data.draw(classes(m))
    lp = cone_contains(m.effective_gens(), d)
    if table_verdict(m, d) is False:
        assert not lp
    assert zariski.is_pseudo_effective(m, d) is lp
