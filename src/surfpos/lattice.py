"""Surface models, divisor classes, the intersection pairing, and exact
rational polyhedral cone computations.

A :class:`SurfaceModel` is the finite combinatorial stand-in for a smooth
projective surface: a unimodular-free lattice of rank rho with a symmetric
integer Gram matrix of signature (1, rho-1), a finite list of curve records
declared to generate the effective cone, and a reference ample class.
Divisor classes are plain tuples of Fractions in the model basis.  The
point specs live here too: :class:`PointSpec` (a point on a flag curve),
:class:`BlowupSpec` (a point to blow up) and :class:`InfFlagSpec` (a point
on the exceptional curve), so that decoding a point loads no blow-up code.

Every pairing against the curve list reads one integer table per model,
the row gram . C of each listed curve C, built on first use and read by
:meth:`SurfaceModel.curve_pairings` and :meth:`SurfaceModel.meet`, which
return Fractions, and by :meth:`SurfaceModel.curve_dots`, which pairs an
integer vector and returns integers.  :func:`pairing` pairs two arbitrary
classes, and :func:`int_pairing` two integer vectors.  A sign or zero
test reads ``curve_dots`` and ``int_pairing`` on a class's numerator over
its positive denominator (:func:`scalars.scaled`), so it builds no
Fraction: the nef and ample tests, the null locus, and the directions
through an exceptional curve do.  A model also keeps
one Farkas table of integer rows that pair non-negatively with every
effective generator: a class a row pairs negatively with is not
pseudo-effective.  A simplicial cone, spanned by rho independent
generators, is decided by its facet rows both ways; on any other cone the
table holds the row gram . A of the ample reference, when that row
qualifies, and :func:`cone_contains` decides what it does not refuse:
it reads the generators as stored and builds Fractions only to divide.
:func:`validate_model` checks on load that the ample and canonical
classes, every declared generator and every curve and family class have
rho entries, so the tables and the LP read classes of the model's rank
only, and that every generic family has multiplicity at least 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Mapping, NamedTuple, Optional, Sequence

from . import scalars
from .errors import (
    DimensionMismatch,
    InconsistentMultiplicities,
    InvariantViolation,
    NotFullDimensional,
    SingularMatrix,
)
from .scalars import primitive, rank, scaled, vector

DivisorClass = tuple[Fraction, ...]


class CurveRecord(NamedTuple):
    """A named curve class.  Negative records stand for the unique
    irreducible curve in their class; non-negative ones for a movable
    family whose generic member avoids any previously unseen point."""

    name: str
    cls: tuple[int, ...]
    self_int: int
    is_rational: Optional[bool] = None


class GenericFamily(NamedTuple):
    """A movable class with a member of multiplicity ``mult`` through a
    generic point; consumed by blow-ups to complete the curve list."""

    cls: tuple[int, ...]
    mult: int
    name_hint: str


class PointSpec(NamedTuple):
    """Combinatorial position of a point x on a flag curve.

    ``local_mults[E]`` is the local intersection number (E.C)_x of the
    record E with the flag curve at x; omitted names mean zero.  A generic
    point meets none of the listed curves.
    """

    on_curve: str
    local_mults: Mapping[str, int] = {}
    generic: bool = True

    def mult(self, name: str) -> int:
        return int(self.local_mults.get(name, 0))

    def through(self) -> frozenset[str]:
        """Names of listed curves passing through x (flag curve excluded)."""
        return frozenset(n for n, m in self.local_mults.items() if m > 0)


class BlowupSpec(NamedTuple):
    """Point to blow up, described by curve multiplicities.

    ``mults`` assigns each listed curve its multiplicity at the point
    (omitted names mean the curve misses it).  New negative curves that
    appear only after blowing up (in the extended basis, with the
    exceptional coordinate last) go in ``extra_curves``; set
    ``extra_complete`` when that list is known to complete the effective
    cone.  ``renames`` relabels strict transforms.
    """

    mults: dict[str, int] = {}
    extra_curves: tuple[tuple[str, tuple[int, ...]], ...] = ()
    extra_complete: bool = False
    exceptional_name: Optional[str] = None
    renames: dict[str, str] = {}

    @property
    def generic(self) -> bool:
        return all(m == 0 for m in self.mults.values()) \
            and not self.extra_curves


class InfFlagSpec(NamedTuple):
    """Point y on the exceptional curve: generic, or the intersection with
    a named strict transform (which must actually meet E)."""

    on: Optional[str] = None
    mult: int = 1

    @property
    def generic(self) -> bool:
        return self.on is None


GENERIC_POINT = BlowupSpec()
GENERIC_Y = InfFlagSpec()


class _ModelFields(NamedTuple):
    """The fields; :class:`SurfaceModel` adds the cached tables."""

    rank: int
    basis_labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    curves: tuple[CurveRecord, ...]
    ample_ref: DivisorClass
    canonical: Optional[DivisorClass] = None
    effective_generators: Optional[tuple[DivisorClass, ...]] = None
    completeness_declared: bool = True
    ample_ref_is_ample: bool = True
    points: Mapping[str, PointSpec] = {}
    generic_families: tuple[GenericFamily, ...] = ()
    metadata: Mapping[str, str] = {}


class SurfaceModel(_ModelFields):
    @cached_property
    def _blow_ups(self) -> dict:
        """Blow-ups by point, kept by :func:`surfpos.infinitesimal.blow_up`."""
        return {}

    # -- structural helpers ----------------------------------------

    @cached_property
    def _curve_table(self) -> dict[str, tuple[CurveRecord, tuple[int, ...]]]:
        """Each listed curve and its integer row gram . C, by name."""
        return {c.name: (c, tuple(sum(map(mul, row, c.cls))
                                  for row in self.gram)) for c in self.curves}

    @cached_property
    def _ample_row(self) -> tuple[int, ...]:
        """The integer row gram . A, for A the ample reference scaled to
        integers: d . A has the sign of its dot with d's numerator."""
        num = scaled(self.ample_ref)[0]
        return tuple(sum(map(mul, row, num)) for row in self.gram)

    def curve(self, name: str) -> CurveRecord:
        try:
            return self._curve_table[name][0]
        except KeyError:
            raise KeyError(f"no curve named {name!r}") from None

    def has_curve(self, name: str) -> bool:
        return name in self._curve_table

    def curve_pairings(self, d: Sequence) -> dict[str, Fraction]:
        """d . C for every listed curve C, by name in curve order."""
        num, den = scaled(self.divisor(d))
        return {n: Fraction(v, den) for n, v in self.curve_dots(num).items()}

    def curve_dots(self, num: Sequence[int]) -> dict[str, int]:
        """num . C for every listed curve C, for an integer vector num, by
        name in curve order."""
        return {n: sum(map(mul, row, num))
                for n, (_, row) in self._curve_table.items()}

    def meet(self, a: str, b: str) -> Fraction:
        """The intersection number of the listed curves a and b."""
        return Fraction(sum(map(mul, self._curve_table[a][1],
                                self.curve(b).cls)))

    def curve_class(self, name: str) -> DivisorClass:
        return vector(self.curve(name).cls)

    def divisor(self, coords: Sequence) -> DivisorClass:
        v = vector(coords)
        if len(v) != self.rank:
            raise DimensionMismatch(
                f"expected {self.rank} coordinates, got {len(v)}")
        return v

    def effective_gens(self) -> tuple[Sequence, ...]:
        """The declared generators, or else the listed curve classes, as
        they are stored: the curve classes are integer tuples."""
        if self.effective_generators is None:
            return tuple(c.cls for c in self.curves)
        return self.effective_generators

    @cached_property
    def _farkas(self) -> tuple[tuple[tuple[int, ...], ...], bool]:
        """Integer rows w, each pairing non-negatively with every effective
        generator, and whether they decide membership both ways.

        When the generators are rho independent vectors, the rows are
        those of B^-1 scaled to integers, for B with the generators as
        columns: w_i . g_j = c_i * delta_ij with c_i > 0, so d lies in the
        cone iff every w_i . d >= 0, and the table is complete.  Otherwise
        it is incomplete, and holds the row w = gram . A, for A the ample
        reference scaled to integers, when w . g >= 0 for every generator
        g: then w pairs non-negatively with the whole effective cone, so
        w . d < 0 certifies that d lies outside it (Farkas).  A class the
        table does not refuse goes to the LP."""
        gens = self.effective_gens()
        if len(gens) == self.rank:
            try:
                inv = scalars.inverse(list(zip(*gens)))
            except SingularMatrix:
                pass
            else:
                return tuple(tuple(scaled(row)[0]) for row in inv), True
        w = self._ample_row
        if all(sum(map(mul, w, g)) >= 0 for g in gens):
            return (w,), False
        return (), False

    def gram_submatrix(self, names: Sequence[str]
                       ) -> tuple[tuple[int, ...], ...]:
        """The integer Gram matrix of the listed curves ``names``."""
        return tuple(tuple(sum(map(mul, self._curve_table[a][1],
                                   self.curve(b).cls)) for b in names)
                     for a in names)

    def resolve(self, name: str) -> DivisorClass:
        """A basis label or curve name as a divisor class."""
        if name in self.basis_labels:
            i = self.basis_labels.index(name)
            return vector([int(j == i) for j in range(self.rank)])
        if self.has_curve(name):
            return self.curve_class(name)
        raise KeyError(name)


def pairing(model: SurfaceModel, d1: Sequence, d2: Sequence) -> Fraction:
    """Intersection number d1^T . gram . d2, exact: both classes are scaled
    to integers, so one Fraction is built at the end."""
    v1, v2 = vector(d1), vector(d2)
    if len(v1) != model.rank or len(v2) != model.rank:
        raise DimensionMismatch("divisor dimension does not match model rank")
    (num1, e1), (num2, e2) = scaled(v1), scaled(v2)
    return Fraction(int_pairing(model, num1, num2), e1 * e2)


def int_pairing(model: SurfaceModel, u: Sequence[int],
                v: Sequence[int]) -> int:
    """u^T . gram . v for integer vectors u and v."""
    return sum(a * sum(map(mul, row, v)) for a, row in zip(u, model.gram)
               if a)


def self_intersection(model: SurfaceModel, d: Sequence) -> Fraction:
    return pairing(model, d, d)


def validate_model(model: SurfaceModel) -> None:
    """Re-check every structural invariant; raises InvariantViolation, or
    DimensionMismatch when the ample class, the canonical class, a declared
    effective generator, a curve class or a generic family's class does
    not have rho entries.  A generic family's multiplicity is at least 1.

    The Hodge index theorem, signature (1, rho-1), is checked on the ample
    reference A: A^2 > 0, and the form is negative definite on A-perp by
    the Sylvester test of :func:`scalars.solve_negative_definite`."""
    rho = model.rank
    if len(model.basis_labels) != rho or len(set(model.basis_labels)) != rho:
        raise InvariantViolation("basis labels", "need rho distinct labels")
    if len(model.gram) != rho or any(len(r) != rho for r in model.gram):
        raise InvariantViolation("gram shape", f"expected {rho}x{rho}")
    for i in range(rho):
        for j in range(rho):
            if model.gram[i][j] != model.gram[j][i]:
                raise InvariantViolation("gram symmetric",
                                         f"entries ({i},{j}) != ({j},{i})")
    if not all(isinstance(x, int) for row in model.gram for x in row):
        raise InvariantViolation("gram integral", "non-integer entry")
    for c in model.curves:
        if not all(isinstance(x, int) for x in (*c.cls, c.self_int)):
            raise InvariantViolation("curve integral",
                                     f"{c.name} has a non-integer entry")
    classes = [model.ample_ref, *(model.effective_generators or ()),
               *(c.cls for c in model.curves),
               *(f.cls for f in model.generic_families)]
    if model.canonical is not None:
        classes.append(model.canonical)
    if any(len(v) != rho for v in classes):
        raise DimensionMismatch("divisor dimension does not match model rank")
    if any(f.mult < 1 for f in model.generic_families):
        raise InvariantViolation("generic family", "multiplicity below 1")
    if self_intersection(model, model.ample_ref) <= 0:
        raise InvariantViolation("ample reference", "non-positive square")
    # A-perp has the integer basis w_j = a_i e_j - a_j e_i (j != i), where
    # a = gram . A and a_i != 0
    a = model._ample_row
    i = next(k for k, x in enumerate(a) if x)
    w = [[a[i] * (k == j) - a[j] * (k == i) for k in range(rho)]
         for j in range(rho) if j != i]
    if scalars.solve_negative_definite(
            [[int_pairing(model, u, v) for v in w] for u in w]) is None:
        raise InvariantViolation("Hodge signature",
                                 f"expected (1,{rho - 1},0)")
    names = [c.name for c in model.curves]
    if len(set(names)) != len(names):
        raise InvariantViolation("curve names", "duplicate names")
    neg_classes = [c.cls for c in model.curves if c.self_int < 0]
    if len(set(neg_classes)) != len(neg_classes):
        raise InvariantViolation("negative curves",
                                 "a negative class appears twice")
    for c in model.curves:
        if model.meet(c.name, c.name) != c.self_int:
            raise InvariantViolation("curve self-intersection",
                                     f"{c.name} cached value is wrong")
    if model.ample_ref_is_ample:
        for n, v in model.curve_pairings(model.ample_ref).items():
            if v <= 0:
                raise InvariantViolation(
                    "ample reference", f"non-positive against {n}")
    for p in model.points.values():
        validate_point(model, p)


def validate_point(model: SurfaceModel, p: PointSpec) -> None:
    """Raise InvariantViolation unless p is a valid point spec of the model.
    A point declared generic has no positive local multiplicity."""
    if not model.has_curve(p.on_curve):
        raise InvariantViolation("point spec",
                                 f"unknown flag curve {p.on_curve!r}")
    # local_mults are intersection numbers with the flag curve, which bound
    # no multiplicity from above; x has multiplicity at least 1 on the flag
    # curve and on every curve that meets it there
    check_multiplicity(model, p.on_curve, 1)
    for n, m in p.local_mults.items():
        if m < 0 or not model.has_curve(n):
            raise InvariantViolation("point spec",
                                     f"bad local multiplicity for {n!r}")
        if n != p.on_curve and m > model.meet(n, p.on_curve):
            raise InvariantViolation(
                "point spec", f"local mult of {n} exceeds global intersection")
        if m > 0:
            check_multiplicity(model, n, 1)
    if p.generic and p.through():
        raise InvariantViolation(
            "point spec", "a point declared generic lies on "
            + ", ".join(sorted(p.through())))


def check_multiplicity(model: SurfaceModel, name: str, m: int) -> None:
    """Raise InconsistentMultiplicities unless a point of the listed curve
    ``name`` can have multiplicity m on it.  By adjunction, a point of
    multiplicity m on an irreducible curve C needs m(m-1)/2 <= p_a(C), that
    is m(m-1) <= C^2 + K.C + 2; without K nothing is checked."""
    if model.canonical is None:
        return
    c, row = model._curve_table[name]
    if m * (m - 1) > c.self_int + sum(map(mul, row, model.canonical)) + 2:
        raise InconsistentMultiplicities(
            f"no point of {name} has multiplicity {m}")


# ----------------------------------------------------------------------
# exact LP feasibility: membership in a finitely generated cone
# ----------------------------------------------------------------------

def _pivot(tab: list, obj: list, piv: int, enter: int) -> None:
    """Pivot the tableau rows and the objective row on tab[piv][enter], in
    place."""
    pr = tab[piv]
    inv = Fraction(pr[enter].denominator, pr[enter].numerator)
    pr = tab[piv] = [x * inv for x in pr]
    for i, row in enumerate(tab):
        f = row[enter]
        if i != piv and f != 0:
            tab[i] = [x - f * y for x, y in zip(row, pr)]
    f = obj[enter]
    obj[:] = [x - f * y for x, y in zip(obj, pr)]


def cone_contains(generators: Sequence[Sequence], v: Sequence) -> bool:
    """True iff v is a non-negative rational combination of the generators.

    Phase-one simplex over exact rationals; the systems here are tiny
    (rank <= 9, a few hundred generators at most).  The entering column is
    the one of largest reduced cost (Dantzig, *Linear Programming and
    Extensions*, 1963), ties to the smallest index, and the leaving row
    the one of least ratio, ties to the smallest basic index.  After a
    degenerate pivot (ratio 0) the first improving column enters instead,
    until the next non-degenerate pivot: both choices are then Bland's
    rule (Bland, *New finite pivoting rules for the simplex method*,
    1977), which cannot cycle.  Each non-degenerate pivot strictly lowers
    the phase-one objective, so no basis repeats and the simplex
    terminates.  The order of the generators then sets the pivots only
    through ties and degenerate pivots.
    """
    for t in set(map(type, chain.from_iterable(generators))):
        if not issubclass(t, (int, Fraction)):
            raise TypeError(f"expected exact rational, got {t.__name__}")
    gens, target = generators, vector(v)
    if all(x == 0 for x in target):
        return True
    if not gens:
        return False
    m = len(target)
    n = len(gens)
    # One row per equality constraint, its right-hand side (entry n) made
    # non-negative.  Artificial i starts basic in row i under the label
    # n + i, which the leaving-row tie-break reads.  Artificial columns are
    # never priced, never enter and are never read, so none is stored
    # (Bertsimas and Tsitsiklis, *Introduction to Linear Optimization*,
    # 1997, 3.5): the pivots are those of the full phase-one tableau.
    # Entries go in as stored; the right-hand sides are and stay Fractions.
    tab = []
    for i, b in enumerate(target):
        row = [g[i] for g in gens] + [b]
        tab.append([-x for x in row] if b < 0 else row)
    basis = [n + i for i in range(m)]
    # phase-1 objective: the sum of the artificials in non-basic terms;
    # obj[j] is the reduced cost of column j, exactly 0 while j is basic
    obj = [sum(col) for col in zip(*tab)]
    cols = range(n)
    bland = False
    while True:
        if bland:
            enter = next((j for j in cols if obj[j] > 0), None)
        else:
            enter = max(cols, key=obj.__getitem__)
            if obj[enter] <= 0:
                enter = None
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][n] / tab[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break  # unbounded cannot happen in phase 1, defensive
        ratio, piv = best
        _pivot(tab, obj, piv, enter)
        basis[piv] = enter
        bland = ratio == 0
    return obj[n] == 0


# ----------------------------------------------------------------------
# double description: dual cone and facet structure
# ----------------------------------------------------------------------

class PolyCone(NamedTuple):
    """A rational polyhedral cone given by extreme rays and, dually, by the
    primitive classes whose pairing hyperplanes support its facets."""

    generators: tuple[tuple[int, ...], ...]
    facet_normals: tuple[tuple[int, ...], ...]


def dual_cone(generators: Sequence[Sequence], model: SurfaceModel) -> PolyCone:
    """Extreme rays and facet data of {w : (w . g) >= 0 for all g}.

    Integer double description (Motzkin et al. 1953), with the combinatorial
    adjacency test of Fukuda and Prodon (1996).  The halfspace of g has the
    primitive integer normal gram . g.  Rays are primitive integer tuples,
    and a ray's zero set is an int bitmask over the normals.  Two rays
    across a new hyperplane are adjacent when their common zero set has at
    least rho - 2 normals and lies in no third ray's zero set; the ray
    between them is tight exactly on that common set and the new normal.
    A generator supports a facet when the set of rays tight on its normal
    is inclusion-maximal among all normals' sets, provided the rays span
    at least rho - 1 dimensions (otherwise there are no facets).
    """
    gens = [vector(g) for g in generators]
    rho = model.rank
    normals: dict[tuple[int, ...], DivisorClass] = {}
    for g in gens:
        num = scaled(g)[0]
        normals.setdefault(primitive([sum(map(mul, row, num))
                                      for row in model.gram]), g)
    # order so the first rho normals are independent
    chosen: list[tuple[int, ...]] = []
    for n in normals:
        if len(chosen) < rho and rank(chosen + [n]) > len(chosen):
            chosen.append(n)
    if len(chosen) < rho:
        raise NotFullDimensional(
            "generators do not span; dual cone is not pointed")
    ordered = chosen + [n for n in normals if n not in chosen]
    # initial simplicial cone: rays are columns of the inverse of the
    # first rho normals, so ray j is tight on every normal except j
    rays = [(primitive(col), ((1 << rho) - 1) ^ (1 << j))
            for j, col in enumerate(zip(*scalars.inverse(chosen)))]
    for idx in range(rho, len(ordered)):
        a, bit = ordered[idx], 1 << idx
        vals = [sum(x * y for x, y in zip(r, a)) for r, _ in rays]
        plus = [(r, m, v) for (r, m), v in zip(rays, vals) if v > 0]
        minus = [(r, m, v) for (r, m), v in zip(rays, vals) if v < 0]
        new_rays = []
        for ri, mi, vi in plus:
            for rj, mj, vj in minus:
                meet = mi & mj
                if meet.bit_count() < rho - 2 or any(
                        meet & m == meet and m != mi and m != mj
                        for _, m in rays):
                    continue
                comb = [vi * y - vj * x for x, y in zip(ri, rj)]
                g = math.gcd(*comb)
                new_rays.append((tuple(x // g for x in comb), meet | bit))
        rays = [(r, m | bit if v == 0 else m)
                for (r, m), v in zip(rays, vals) if v >= 0] + new_rays
    ray_vecs = sorted(r for r, _ in rays)
    facets = []
    # rank(R) = rank(R^T R) over Q, and R^T R is only rho x rho
    if rank([[sum(r[i] * r[j] for r in ray_vecs) for j in range(rho)]
             for i in range(rho)]) >= rho - 1:
        tight = [sum(1 << i for i, (_, m) in enumerate(rays) if m >> k & 1)
                 for k in range(len(ordered))]
        facets = sorted(primitive(normals[n]) for n, t in zip(ordered, tight)
                        if not any(t & u == t and t != u for u in tight))
    return PolyCone(generators=tuple(ray_vecs), facet_normals=tuple(facets))
