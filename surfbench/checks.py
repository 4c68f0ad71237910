"""Independent checks of surfpos answers.

Every check here recomputes what it needs with its own exact arithmetic:
its own intersection products on the model's integer Gram matrix, its own
Zariski fixpoint and Gaussian elimination, its own leading-minor test of
negative definiteness, its own arithmetic in Q(sqrt d), and an LP solved by
``sympy.solvers.simplex`` for "not pseudo-effective" verdicts.  From surfpos
it takes only model data (Gram matrix, curve records, ample class) and, for
the Seshadri cross-check, the separate nef-threshold path
``seshadri_direct``.

A check raises :class:`CheckFailed` with a message naming what is wrong.
Answers are passed in as plain data (Fractions, :class:`Surd` values,
dicts), so library results and decoded CLI JSON go through the same code.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# number of (-1)-curves on the blow-up of P^2 at r general points
MINUS_ONE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
# Broustet (2006): epsilon(-K_S; generic point) on del Pezzo surfaces
BROUSTET = {1: Fraction(2), 2: Fraction(2), 3: Fraction(2), 4: Fraction(2),
            5: Fraction(2), 6: Fraction(3, 2)}


class CheckFailed(Exception):
    """An answer disagrees with an independent check."""


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ----------------------------------------------------------------------
# exact numbers a + b*sqrt(d)
# ----------------------------------------------------------------------

def _sgn(x) -> int:
    return (x > 0) - (x < 0)


class Surd:
    """a + b*sqrt(d) with rational a, b and squarefree d >= 2 (d = 0 when
    b = 0).  Any object with ``a``, ``b``, ``d`` attributes converts."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        self.a, self.b = Fraction(a), Fraction(b)
        self.d = int(d) if self.b != 0 else 0

    @staticmethod
    def of(x) -> "Surd":
        if isinstance(x, Surd):
            return x
        if isinstance(x, (int, Fraction)):
            return Surd(x)
        return Surd(x.a, x.b, x.d)

    def _pair(self, other):
        o = Surd.of(other)
        if self.d and o.d and self.d != o.d:
            raise CheckFailed(f"mixed radicands {self.d} and {o.d}")
        return o, self.d or o.d

    def __add__(self, other):
        o, d = self._pair(other)
        return Surd(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-Surd.of(other))

    def __rsub__(self, other):
        return Surd.of(other) - self

    def __mul__(self, other):
        o, d = self._pair(other)
        return Surd(self.a * o.a + self.b * o.b * d,
                    self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Surd.of(other)
        need(o.b == 0, "division by an irrational")
        return Surd(self.a / o.a, self.b / o.a, self.d)

    def sign(self) -> int:
        sa, sb = _sgn(self.a), _sgn(self.b)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        c = self.a * self.a - self.b * self.b * self.d
        return sa if c > 0 else sb

    def is_rational(self) -> bool:
        return self.b == 0

    def rational(self) -> Fraction:
        need(self.b == 0, f"expected a rational, got {self}")
        return self.a

    def lower(self) -> Fraction:
        """A rational strictly below (or equal, when rational) the value,
        within 1e-6."""
        if self.b == 0:
            return self.a
        r = Fraction(math.isqrt(self.d * 10 ** 12), 10 ** 6)
        if self.b < 0:
            r += Fraction(1, 10 ** 6)
        return self.a + self.b * r - Fraction(1, 10 ** 6)

    def __eq__(self, other):
        return (self - other).sign() == 0

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return str(self.a) if self.b == 0 else f"{self.a}+{self.b}*sqrt({self.d})"


def smin(*xs) -> Surd:
    best = Surd.of(xs[0])
    for x in xs[1:]:
        if Surd.of(x) < best:
            best = Surd.of(x)
    return best


# ----------------------------------------------------------------------
# exact linear algebra
# ----------------------------------------------------------------------

def solve(rows, rhs) -> list[Fraction]:
    """Solution of the square system rows * x = rhs, by Gauss-Jordan."""
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c] != 0), None)
        need(p is not None, "singular support Gram matrix")
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [r[n] for r in aug]


def leading_minors(m) -> list[int]:
    """Leading principal minors of an integer matrix (Bareiss)."""
    a = [list(r) for r in m]
    n = len(a)
    minors = []
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            # a zero minor; the remaining ones are not needed by callers
            return minors + [0]
        minors.append(a[k][k])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return minors


def negative_definite(m) -> bool:
    return all((-1) ** (k + 1) * v > 0
               for k, v in enumerate(leading_minors(m)))


def kernel_line(rows, n) -> tuple | None:
    """A spanning vector of the kernel of ``rows`` (k x n) when it is one
    dimensional, as primitive integers; otherwise None."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        a[r] = [x / piv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    if r != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for i, c in enumerate(pivots):
        v[c] = -a[i][free]
    return primitive(v)


def rank_of(rows, n) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def primitive(v) -> tuple[int, ...]:
    v = [Fraction(x) for x in v]
    den = 1
    for x in v:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in ints) if g else tuple(ints)


# ----------------------------------------------------------------------
# the lattice of a model, from its data only
# ----------------------------------------------------------------------

class Lattice:
    """Integer Gram matrix, named curve classes and the ample class of a
    model, with exact intersection products."""

    def __init__(self, gram, curves, ample):
        self.gram = [list(map(int, r)) for r in gram]
        self.rank = len(self.gram)
        self.curves = [(str(n), tuple(map(int, c))) for n, c in curves]
        self.cls = dict(self.curves)
        self.ample = tuple(Fraction(x) for x in ample)

    @staticmethod
    def of(model) -> "Lattice":
        return Lattice(model.gram, [(c.name, c.cls) for c in model.curves],
                       model.ample_ref)

    def dot(self, u, v):
        total = 0
        for i, a in enumerate(u):
            if a == 0:
                continue
            row = self.gram[i]
            total = total + a * sum((row[j] * b for j, b in enumerate(v)
                                     if b != 0), 0)
        return total

    def combo(self, coeffs: dict) -> tuple:
        out = [Fraction(0)] * self.rank
        for name, a in coeffs.items():
            for i, x in enumerate(self.cls[name]):
                out[i] += a * x
        return tuple(out)

    def gram_of(self, names) -> list[list[int]]:
        return [[self.dot(self.cls[a], self.cls[b]) for b in names]
                for a in names]


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def scale(t, v):
    return tuple(t * x for x in v)


# ----------------------------------------------------------------------
# Zariski decompositions
# ----------------------------------------------------------------------

def check_decomposition(lat: Lattice, d, P, N: dict) -> None:
    """D = P + N exactly, N >= 0, P.C >= 0 for every declared curve,
    P.N_i = 0, the support negative definite, and P in the closed positive
    cone (so D is pseudo-effective)."""
    d = tuple(Fraction(x) for x in d)
    P = tuple(Fraction(x) for x in P)
    need(set(N) <= set(lat.cls), f"unknown support curve in {sorted(N)}")
    need(all(a >= 0 for a in N.values()), f"negative coefficient in N {N}")
    need(d == tuple(p + n for p, n in zip(P, lat.combo(N))), "D != P + N")
    for name, c in lat.curves:
        need(lat.dot(P, c) >= 0, f"P . {name} < 0")
    for name in N:
        need(lat.dot(P, lat.cls[name]) == 0, f"P . {name} != 0 on the support")
    support = [n for n in N if N[n] != 0]
    if support:
        need(negative_definite(lat.gram_of(support)),
             f"support {support} is not negative definite")
    need(lat.dot(P, P) >= 0, "P^2 < 0")
    need(lat.dot(P, lat.ample) >= 0, "P . A < 0")


def decompose(lat: Lattice, d) -> tuple[tuple, dict]:
    """The Zariski decomposition by the support-growing fixpoint, verified
    by :func:`check_decomposition` before it is returned."""
    d = tuple(Fraction(x) for x in d)
    support: list[str] = []
    coeffs: dict = {}
    P = d
    for _ in range(len(lat.curves) + 1):
        entering = [n for n, c in lat.curves
                    if n not in support and lat.dot(P, c) < 0]
        if not entering:
            break
        support += entering
        gram = lat.gram_of(support)
        need(negative_definite(gram),
             f"fixpoint support {support} is not negative definite")
        x = solve(gram, [lat.dot(d, lat.cls[n]) for n in support])
        coeffs = dict(zip(support, x))
        P = sub(d, lat.combo(coeffs))
    coeffs = {n: a for n, a in coeffs.items() if a != 0}
    check_decomposition(lat, d, P, coeffs)
    return P, coeffs


def check_zariski_answer(lat: Lattice, d, ans: dict) -> None:
    """``ans``: pseff flag and, when pseudo-effective, P, N, volume, big,
    nef, ample, null and neg loci (each optional)."""
    if not ans["pseff"]:
        check_not_pseff(lat, d, ans.get("gens"))
        need(not ans.get("big", False), "big but not pseudo-effective")
        return
    P, N = ans["P"], ans["N"]
    check_decomposition(lat, d, P, N)
    vol = lat.dot(P, P)
    if "volume" in ans:
        need(ans["volume"] == vol, f"volume {ans['volume']} != P^2 = {vol}")
    if "big" in ans:
        need(ans["big"] == (vol > 0), "bigness verdict disagrees with P^2")
    d = tuple(Fraction(x) for x in d)
    if "nef" in ans:
        nef = (not N) and lat.dot(d, d) >= 0
        need(ans["nef"] == nef, "nef verdict disagrees with N")
    if "ample" in ans:
        amp = lat.dot(d, d) > 0 and lat.dot(d, lat.ample) > 0 and all(
            lat.dot(d, c) > 0 for _, c in lat.curves)
        need(ans["ample"] == amp, "ample verdict disagrees with Nakai")
    if "neg" in ans:
        need(set(ans["neg"]) == set(N), "negative locus != support of N")
    if "null" in ans:
        null = {n for n, c in lat.curves if lat.dot(P, c) == 0}
        need(set(ans["null"]) == null, "null locus != {C : P.C = 0}")


def check_not_pseff(lat: Lattice, d, gens=None) -> None:
    """D is outside the cone of the effective generators: an exact LP
    (sympy's simplex) finds a Farkas certificate y, bounded by 1 in each
    coordinate, with y.g >= 0 for every generator g and y.D < 0, and the
    certificate is then verified in exact arithmetic.  (The certificate is
    verified rather than trusted: sympy 1.14's ``linprog`` returns points
    that violate the equality constraints on some infeasible systems.)"""
    from sympy import Matrix, Rational
    from sympy.solvers.simplex import InfeasibleLPError, linprog

    if gens is None:
        gens = [c for _, c in lat.curves]
    gens = [tuple(Fraction(x) for x in g) for g in gens]
    d = [Fraction(x) for x in d]
    n = len(d)

    def q(x):
        return Rational(x.numerator, x.denominator)

    try:
        _, y = linprog(Matrix([q(x) for x in d]).T,
                       A=Matrix([[-q(g[i]) for i in range(n)] for g in gens]),
                       b=Matrix([0] * len(gens)), bounds=(-1, 1))
    except InfeasibleLPError:
        raise CheckFailed("no separating class exists") from None
    y = [Fraction(str(v)) for v in y]
    need(all(sum(a * b for a, b in zip(y, g)) >= 0 for g in gens)
         and sum(a * b for a, b in zip(y, d)) < 0,
         "LP finds no certificate that D is not pseudo-effective")


# ----------------------------------------------------------------------
# Newton-Okounkov polygons
# ----------------------------------------------------------------------

def _ev(f, t):
    return Surd.of(f[0]) + Surd.of(f[1]) * Surd.of(t)


def _vertex_cycle(lower, upper):
    cycle = lower + upper[::-1]
    out = []
    for p in cycle:
        if not out or not (out[-1][0] == p[0] and out[-1][1] == p[1]):
            out.append(p)
    if len(out) > 1 and out[0][0] == out[-1][0] and out[0][1] == out[-1][1]:
        out.pop()
    changed = True
    while changed and len(out) > 2:
        changed = False
        for i in range(len(out)):
            a, b, c = out[i - 1], out[i], out[(i + 1) % len(out)]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross.sign() == 0:
                out.pop(i)
                changed = True
                break
    return out


def _area(verts) -> Surd:
    total = Surd(0)
    for i in range(len(verts)):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % len(verts)]
        total = total + (x1 * y2 - x2 * y1)
    total = total / 2
    return -total if total.sign() < 0 else total


def check_polygon(lat: Lattice, d, flag: str, mults: dict, poly: dict
                  ) -> dict:
    """Check a polygon against fresh decompositions of D - tC at every
    breakpoint and every midpoint between breakpoints, the vanishing of
    vol(D - tC) at mu, the vertex list, and the area law area = vol(D)/2.

    ``poly`` has nu, mu, pieces [(t_lo, t_hi, alpha, beta)] and vertices;
    optional ``area``.  Returns the checked data used by derived checks:
    breakpoints with (alpha, beta) values, and vol(D).
    """
    d = tuple(Fraction(x) for x in d)
    C = lat.cls[flag]
    mults = {n: int(m) for n, m in mults.items()}
    pieces = poly["pieces"]
    need(len(pieces) >= 1, "polygon without pieces")
    nu, mu = Surd.of(poly["nu"]), Surd.of(poly["mu"])
    P0, N0 = decompose(lat, d)
    vol = lat.dot(P0, P0)
    need(vol > 0, "polygon of a class that is not big")
    need(nu == N0.get(flag, 0), f"nu = {nu} but ord_C(N_D) = {N0.get(flag, 0)}")

    def fresh(t: Fraction):
        P, N = decompose(lat, sub(d, scale(t, C)))
        need(N.get(flag, 0) == 0, f"flag curve in N at t = {t}")
        alpha = sum((a * mults.get(n, 0) for n, a in N.items()), Fraction(0))
        return alpha, alpha + lat.dot(P, C), N

    need(Surd.of(pieces[0][0]) == nu, "first piece does not start at nu")
    need(Surd.of(pieces[-1][1]) == mu, "last piece does not end at mu")
    lower, upper = [], []
    last_support = None
    for i, (t_lo, t_hi, alpha, beta) in enumerate(pieces):
        t_lo = Surd.of(t_lo).rational()
        t_hi = Surd.of(t_hi)
        need(Surd.of(t_lo) < t_hi, f"empty piece at t = {t_lo}")
        if i + 1 < len(pieces):
            need(t_hi == pieces[i + 1][0], "pieces are not contiguous")
        a, b, _ = fresh(t_lo)
        need(_ev(alpha, t_lo) == a and _ev(beta, t_lo) == b,
             f"alpha/beta at breakpoint t = {t_lo}: polygon "
             f"({_ev(alpha, t_lo)}, {_ev(beta, t_lo)}), fresh ({a}, {b})")
        if i > 0:
            pa, pb = pieces[i - 1][2], pieces[i - 1][3]
            need(_ev(pa, t_lo) == a and _ev(pb, t_lo) == b,
                 f"polygon is discontinuous at t = {t_lo}")
        lower.append((Surd(t_lo), Surd(a)))
        upper.append((Surd(t_lo), Surd(b)))
        mid = (t_lo + t_hi.rational()) / 2 if t_hi.is_rational() \
            else (t_lo + t_hi.lower()) / 2
        need(t_lo < mid and Surd.of(mid) < t_hi, "no rational midpoint")
        a, b, last_support = fresh(mid)
        need(_ev(alpha, mid) == a and _ev(beta, mid) == b,
             f"alpha/beta at midpoint t = {mid}: polygon "
             f"({_ev(alpha, mid)}, {_ev(beta, mid)}), fresh ({a}, {b})")
    # on the last chamber P_t = P0 + t*P1 with N_t supported on S; the walk
    # ends where (P_t)^2 vanishes
    S = list(last_support)
    x0 = x1 = [Fraction(0)] * len(S)
    if S:
        gram = lat.gram_of(S)
        x0 = solve(gram, [lat.dot(d, lat.cls[n]) for n in S])
        x1 = solve(gram, [-lat.dot(C, lat.cls[n]) for n in S])
    p0 = sub(d, lat.combo(dict(zip(S, x0))))
    p1 = sub(scale(-1, C), lat.combo(dict(zip(S, x1))))
    vol_mu = (Surd(lat.dot(p1, p1)) * mu * mu + Surd(2 * lat.dot(p0, p1)) * mu
              + lat.dot(p0, p0))
    need(vol_mu.sign() == 0, f"vol(D - mu C) = {vol_mu} != 0 at mu = {mu}")
    a_mu = (Surd(sum((x0[i] * mults.get(n, 0) for i, n in enumerate(S)),
                     Fraction(0)))
            + Surd(sum((x1[i] * mults.get(n, 0) for i, n in enumerate(S)),
                       Fraction(0))) * mu)
    b_mu = a_mu + Surd(lat.dot(p0, C)) + Surd(lat.dot(p1, C)) * mu
    t_lo, _, alpha, beta = pieces[-1]
    need(_ev(alpha, mu) == a_mu and _ev(beta, mu) == b_mu,
         f"alpha/beta at mu = {mu} disagree with the last chamber")
    lower.append((mu, a_mu))
    upper.append((mu, b_mu))
    expect = _vertex_cycle(lower, upper)
    got = [(Surd.of(t), Surd.of(y)) for t, y in poly["vertices"]]
    need(len(got) == len(expect) and set(got) == set(expect),
         f"vertices {got} != expected {expect}")
    area = _area(expect)
    need(area == Fraction(vol, 2), f"area {area} != vol(D)/2 = {vol / 2}")
    if "area" in poly:
        need(Surd.of(poly["area"]) == area, "reported area is wrong")
    breaks = [(lo[0], lo[1], up[1]) for lo, up in zip(lower, upper)]
    return {"breaks": breaks, "vol": vol, "pieces": pieces, "mu": mu,
            "nu": nu}


def _alpha_zero_end(checked) -> Surd:
    """sup{t : alpha(t) = 0} on a checked polygon with alpha(0) = 0."""
    for t, a, _ in checked["breaks"]:
        if a.sign() > 0:
            # alpha is convex and >= 0: it left zero at the previous break
            break
        last_zero = t
    return last_zero


def expected_lambda(checked) -> tuple[bool, Surd]:
    """(origin_in, largest standard simplex) of a checked polygon: the
    triangle (0,0), (l,0), (0,l) lies in the convex polygon iff its
    vertices do."""
    b0 = checked["breaks"][0]
    origin_in = checked["nu"] == 0 and b0[1].sign() == 0
    if not origin_in:
        return False, Surd(0)
    return True, smin(_alpha_zero_end(checked), b0[2])


def expected_xi(checked) -> Surd:
    """Largest inverted simplex (0,0), (x,0), (x,x) in a checked polygon."""
    if not (checked["nu"] == 0 and checked["breaks"][0][1].sign() == 0):
        return Surd(0)
    t_beta = checked["mu"]
    for t_lo, t_hi, _, beta in checked["pieces"]:
        h_lo = _ev(beta, t_lo) - t_lo
        slope = Surd.of(beta[1]) - 1
        if h_lo.sign() < 0:
            t_beta = Surd.of(t_lo)
            break
        if slope.sign() < 0:
            root = Surd.of(t_lo) + h_lo / (-slope)
            if root < Surd.of(t_hi):
                t_beta = root
                break
    return smin(_alpha_zero_end(checked), t_beta, checked["mu"])


# ----------------------------------------------------------------------
# moving Seshadri constants
# ----------------------------------------------------------------------

def check_moving_seshadri(lat: Lattice, d, x_mults: dict, status: str,
                          value, *, ample_value=None, broustet_r=None,
                          xi_expected=None) -> None:
    """Status agrees with the loci of the checked decomposition of D;
    xi^2 <= vol(D); for ample classes the value equals ``ample_value``
    (seshadri_direct); for -K on bl_r P^2 at a generic point it is
    Broustet's value; when given, it equals ``xi_expected`` read off a
    checked infinitesimal polygon."""
    P, N = decompose(lat, d)
    vol = lat.dot(P, P)
    need(vol > 0, "moving Seshadri constant of a class that is not big")
    on = {n for n, m in x_mults.items() if m > 0}
    null = {n for n, c in lat.curves if lat.dot(P, c) == 0}
    if on & set(N):
        need(status == "in-neg", f"status {status}, point on N = {sorted(N)}")
        need(value is None, "value given on the negative locus")
        return
    if on & null:
        need(status == "in-null-not-neg", f"status {status}, point on null locus")
        need(value is not None and Surd.of(value).sign() == 0,
             "non-zero value on the null locus")
        return
    need(status == "positive", f"status {status} off both loci")
    v = Surd.of(value)
    need(v.sign() > 0, f"non-positive value {v} off both loci")
    need(v * v <= vol, f"xi^2 = {v * v} > vol(D) = {vol}")
    if ample_value is not None:
        need(v == ample_value, f"value {v} != seshadri_direct {ample_value}")
    if broustet_r is not None:
        need(v == BROUSTET[broustet_r],
             f"epsilon(-K) on bl{broustet_r}p2 is {v}, Broustet gives "
             f"{BROUSTET[broustet_r]}")
    if xi_expected is not None:
        need(v == xi_expected, f"value {v} != polygon xi {xi_expected}")


def is_ample(lat: Lattice, d) -> bool:
    return lat.dot(d, d) > 0 and lat.dot(d, lat.ample) > 0 and all(
        lat.dot(d, c) > 0 for _, c in lat.curves)


# ----------------------------------------------------------------------
# nef cones, free multiples, generic bounds, blow-up models
# ----------------------------------------------------------------------

def nef_cone(lat: Lattice, gens) -> tuple[set, set]:
    """Extreme rays and facet classes of the dual of cone(gens), by brute
    force over every rank-1 kernel of rho-1 generator hyperplanes."""
    rho = lat.rank
    gens = [primitive(g) for g in gens]
    normals = sorted({primitive([sum(lat.gram[i][j] * g[j] for j in range(rho))
                                 for i in range(rho)]) for g in gens})
    rays = set()
    for combo in itertools.combinations(normals, rho - 1):
        v = kernel_line(combo, rho)
        if v is None:
            continue
        for w in (v, tuple(-x for x in v)):
            if all(sum(a * b for a, b in zip(w, n)) >= 0 for n in normals):
                rays.add(w)
    facets = set()
    for g in gens:
        tight = [r for r in rays if lat.dot(r, g) == 0]
        if rank_of(tight, rho) == rho - 1:
            facets.add(g)
    return rays, facets


def check_nef_cone(lat: Lattice, gens, rays, facets, del_pezzo_r=None) -> None:
    rho = lat.rank
    rays = {tuple(map(int, r)) for r in rays}
    facets = {tuple(map(int, f)) for f in facets}
    for r in rays:
        need(all(lat.dot(r, g) >= 0 for g in gens), f"ray {r} is not nef")
        tight = [g for g in gens if lat.dot(r, g) == 0]
        need(rank_of(tight, rho) == rho - 1, f"ray {r} is not extreme")
    exp_rays, exp_facets = nef_cone(lat, gens)
    need(rays == exp_rays, f"rays differ: missing {sorted(exp_rays - rays)}, "
                           f"extra {sorted(rays - exp_rays)}")
    need(facets == exp_facets, "facets differ from the generators whose "
                               "hyperplanes meet the cone in codimension one")
    if del_pezzo_r is not None and del_pezzo_r >= 2:
        need(len(facets) == MINUS_ONE_COUNTS[del_pezzo_r]
             and all(is_minus_one_class(f) for f in facets),
             f"facets of bl{del_pezzo_r}p2 are not its (-1)-curves")


def is_minus_one_class(c) -> bool:
    a, bs = c[0], c[1:]
    return a * a - sum(b * b for b in bs) == -1 and 3 * a + sum(bs) == 1


def expected_free_multiple(lat: Lattice, gens, b) -> int:
    _, facets = nef_cone(lat, gens)
    return max([0] + [math.ceil(lat.dot(tuple(map(Fraction, b)), f))
                      for f in facets])


def generic_bound_witnesses(deg: Fraction, tau: Fraction
                            ) -> tuple[list, int]:
    """Every (p, q) with q >= 2, p/q < tau and p^2 >= deg*q*(q-1), by
    enumeration over q < deg/(deg - tau^2); and that q bound."""
    witnesses = []
    q = 2
    q_max = 1
    while q * (deg - tau * tau) < deg:
        q_max = q
        p = 1
        while Fraction(p, q) < tau:
            if p * p >= deg * q * (q - 1):
                witnesses.append((p, q))
            p += 1
        q += 1
    return witnesses, q_max


def check_blowup_model(base: Lattice, doc: dict, del_pezzo_r=None) -> None:
    """A blown-up model document: the extended Gram matrix, correct cached
    self-intersections, and for a generic blow-up of bl_r P^2 (r <= 6) the
    full list of (-1)-curves of bl_{r+1} P^2."""
    rho = base.rank
    gram = [[int(x) for x in row] for row in doc["gram"]]
    need(int(doc["rank"]) == rho + 1 and len(gram) == rho + 1, "rank")
    for i in range(rho + 1):
        for j in range(rho + 1):
            want = base.gram[i][j] if i < rho and j < rho else \
                (-1 if i == j == rho else 0)
            need(gram[i][j] == want, f"Gram entry ({i},{j})")
    up = Lattice(gram, [(c["name"], c["class"]) for c in doc["curves"]],
                 doc["ample"])
    names = [c["name"] for c in doc["curves"]]
    need(len(set(names)) == len(names), "duplicate curve names")
    for c in doc["curves"]:
        cls = tuple(int(x) for x in c["class"])
        need(up.dot(cls, cls) == int(c["self_int"]), f"self_int of {c['name']}")
    need(doc["exceptional"] in up.cls, "exceptional curve missing")
    if del_pezzo_r is not None:
        minus_one = {up.cls[n] for n in names if is_minus_one_class(up.cls[n])
                     and up.dot(up.cls[n], up.cls[n]) == -1}
        need(len(minus_one) == MINUS_ONE_COUNTS[del_pezzo_r + 1],
             f"{len(minus_one)} (-1)-curves on bl{del_pezzo_r + 1}p2")
