"""Deterministic work counts: how many pseudo-effectivity LPs and plain
decomposition fixpoints one query runs.  These pin that a walk decides
bigness once and that xi and moving Seshadri constants walk once."""

from __future__ import annotations

from fractions import Fraction

import pytest

import surfpos as sp
from surfpos import zariski
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


def test_xi_decomposes_once_and_walks_once(counts):
    m = sp.builtin("bl3p2")
    assert sp.xi(m, anti_canonical(m)) == 2
    assert counts["lp"] == 2


def test_moving_seshadri_decomposes_once_and_walks_once(counts):
    m = sp.builtin("bl6p2")
    res = sp.moving_seshadri(m, anti_canonical(m))
    assert res.status is sp.SeshadriStatus.POSITIVE
    assert res.value == Fraction(3, 2)
    assert counts["lp"] == 2
