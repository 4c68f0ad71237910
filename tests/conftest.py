"""Shared fixtures: the model/flag/class test matrix, the independent
per-t decomposition oracle used to cross-check chamber walks, Harbourne's
W(E_r) reduction as an oracle for the decomposition on del Pezzo lattices,
the Fraction and Quad route to a quadratic's root as an oracle for the
integer one, and a wall-clock alarm for tests that must not factor large
integers."""

from __future__ import annotations

import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import surfpos as sp
from surfpos.errors import NoRealRoot, NotPseudoEffective, PointInNegLocus
from surfpos.lattice import PointSpec
from surfpos.scalars import Quad, rational_sqrt

MATRIX_MODELS = ["p2", "bl1p2", "bl2p2", "bl3p2", "hirzebruch-2",
                 "example-interesting"]

GEN = PointSpec  # shorthand in tables below

FLAGS = {
    "p2": [("L", PointSpec(on_curve="L", generic=True))],
    "bl1p2": [("E", PointSpec(on_curve="E", generic=True)),
              ("F", PointSpec(on_curve="F", generic=True)),
              ("L", PointSpec(on_curve="L", generic=True))],
    "bl2p2": [("E1", PointSpec(on_curve="E1", generic=True)),
              ("L12", PointSpec(on_curve="L12", generic=True)),
              ("L", PointSpec(on_curve="L", generic=True))],
    "bl3p2": [("E1", PointSpec(on_curve="E1", generic=True)),
              ("L23", PointSpec(on_curve="L23", generic=True))],
    "hirzebruch-2": [("C0", PointSpec(on_curve="C0", generic=True)),
                     ("f", PointSpec(on_curve="f", generic=True))],
    "example-interesting": [
        ("E1", PointSpec(on_curve="E1", local_mults={"E2": 1},
                         generic=False)),
        ("E1", PointSpec(on_curve="E1", local_mults={"E3": 1},
                         generic=False)),
        ("E1", PointSpec(on_curve="E1", generic=True)),
        ("E2", PointSpec(on_curve="E2", local_mults={"E1": 1},
                         generic=False)),
    ],
}

BIG_CLASSES = {
    "p2": [(1,), (2,)],
    "bl1p2": [(1, 0), (2, -1), (3, 1)],
    "bl2p2": [(3, -1, -1), (1, 0, 0), (3, 1, 0)],
    "bl3p2": [(3, -1, -1, -1), (2, -1, 0, 0)],
    "hirzebruch-2": [(1, 3), (2, 3), (1, 1)],
    "example-interesting": [(2, 1, 1), (5, 2, 4), (3, 1, 2)],
}


def matrix_configs():
    """(model, big class, flag curve, point spec) across the test matrix."""
    out = []
    for name in MATRIX_MODELS:
        model = sp.builtin(name)
        for cls in BIG_CLASSES[name]:
            d = model.divisor(cls)
            assert sp.is_big(model, d), (name, cls)
            for flag_curve, point in FLAGS[name]:
                out.append((name, model, d, flag_curve, point))
    return out


def oracle_alpha_beta(model, d, flag_curve, point, t,
                      decompose=sp.zariski_decompose):
    """alpha(t), beta(t) from a fresh Zariski decomposition of D - tC,
    independent of the chamber walk."""
    c = model.curve_class(flag_curve)
    shifted = tuple(x - Fraction(t) * y for x, y in zip(d, c))
    pair = decompose(model, shifted)
    assert flag_curve not in pair.N_coeffs
    alpha = sum((a * point.mult(n) for n, a in pair.N_coeffs.items()),
                Fraction(0))
    beta = alpha + sp.pairing(model, pair.P, c)
    return alpha, beta


def harbourne_decompose(model, d) -> sp.ZariskiPair:
    """The Zariski decomposition of d on bl_r p2, r <= 8, in the basis
    H, E1, ..., Er with Gram diag(1, -1, ..., -1), by Harbourne's W(E_r)
    reduction (*Anticanonical rational surfaces*, 1997), sharing no code
    with the LP or the fixpoint.  Write the class as dH - sum m_i E_i,
    with r padded to 3 by zero multiplicities (pulling back along a blow-up
    keeps the decomposition), and repeat, in the frame of the Weyl group
    element w applied so far:
    - d < 0: the class pairs negatively with the nef class w^-1(H), and
      every subtraction so far was forced, so d is not pseudo-effective;
    - m_i < 0: E_i of the current frame is a fixed component; subtract it
      and add -m_i times w^-1(E_i) to N;
    - sort m_1 >= ... >= m_r by transpositions of adjacent E_i;
    - d < m_1 + m_2 + m_3: apply the Cremona reflection in H - E1 - E2 - E3;
    - otherwise the class is standard, hence nef: it is w(P).
    The steps are homogeneous, so the class is scaled to integers first, and
    each Cremona step then lowers d by at least 1.  N's curves are named
    by the model's negative records of the same class."""
    rho = model.rank
    assert all(model.gram[i][j] == (i == j) * (1 if i == 0 else -1)
               for i in range(rho) for j in range(rho)), "not bl_r p2"
    d = model.divisor(d)
    den = math.lcm(*(x.denominator for x in d))
    pad = max(0, 4 - rho)
    v = [int(x * den) for x in d] + [0] * pad
    steps = []  # involutions: 0 is the Cremona reflection, i swaps E_i, E_i+1

    def act(step, u):
        u = list(u)
        if step:
            u[step], u[step + 1] = u[step + 1], u[step]
        else:
            k = u[0] + u[1] + u[2] + u[3]
            u[:4] = u[0] + k, u[1] - k, u[2] - k, u[3] - k
        return u

    def back(u):
        for step in reversed(steps):
            u = act(step, u)
        return u

    n = {}
    while True:
        if v[0] < 0:
            raise NotPseudoEffective(f"{d} fails the W(E_r) reduction")
        for i in range(1, len(v)):
            if v[i] > 0:  # m_i < 0
                e = tuple(back([int(j == i) for j in range(len(v))]))
                n[e] = n.get(e, 0) + v[i]
                v[i] = 0
        for _ in range(len(v)):
            for i in range(1, len(v) - 1):
                if v[i] > v[i + 1]:
                    v = act(i, v)
                    steps.append(i)
        if v[0] >= -(v[1] + v[2] + v[3]):
            break
        v = act(0, v)
        steps.append(0)
    p = back(v)
    assert not any(p[rho:]) and not any(any(e[rho:]) for e in n)
    names = {c.cls: c.name for c in model.curves if c.self_int < 0}
    n_coeffs = {names[e[:rho]]: Fraction(a, den) for e, a in n.items()}
    return sp.ZariskiPair(tuple(Fraction(x, den) for x in p[:rho]),
                          n_coeffs, tuple(sorted(n_coeffs)))


def fraction_quadratic_root(c2, c1, c0, lower=0):
    """Smallest root of c2*t^2 + c1*t + c0 that is >= lower, by Fraction
    and Quad arithmetic: both roots built and compared as exact scalars,
    as ``scalars.positive_quadratic_root`` did before it decided on
    integers."""
    c2, c1, c0, lower = map(Fraction, (c2, c1, c0, lower))
    if c2 == 0:
        if c1 == 0:
            raise NoRealRoot("constant polynomial has no root")
        t = -c0 / c1
        if t >= lower:
            return t
        raise NoRealRoot(f"linear root {t} below {lower}")
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        raise NoRealRoot("negative discriminant")
    sq = rational_sqrt(disc)
    r1, r2 = sorted(((-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)))
    for r in (r1, r2):
        if r >= lower:
            return r
    raise NoRealRoot(f"no root >= {lower}")


def random_pseff(model, rng, ample_bump=0):
    """Random non-negative combination of effective generators, optionally
    bumped along the reference ample class."""
    gens = model.effective_gens()
    coeffs = [Fraction(rng.randrange(0, 5), rng.randrange(1, 4))
              for _ in gens]
    if all(c == 0 for c in coeffs):
        coeffs[rng.randrange(len(coeffs))] = Fraction(1)
    d = tuple(Fraction(0) for _ in range(model.rank))
    for c, g in zip(coeffs, gens):
        d = tuple(x + c * y for x, y in zip(d, g))
    if ample_bump:
        d = tuple(x + Fraction(ample_bump) * y
                  for x, y in zip(d, model.ample_ref))
    return d


def random_big(model, rng):
    for _ in range(100):
        d = random_pseff(model, rng, ample_bump=Fraction(rng.randrange(1, 3),
                                                         4))
        if sp.is_big(model, d):
            return d
    raise AssertionError("could not sample a big class")


def seeded_rng(salt: str) -> random.Random:
    return random.Random(f"surfpos-{salt}")


@contextmanager
def alarm(seconds: float, what: str):
    """Fail the test with an AssertionError if the block runs past
    ``seconds`` of wall time.  The handler's TimeoutError is not let out:
    pytest cannot print a traceback through the interrupted frame when it
    has no line number, as in a tight loop, and stops with INTERNALERROR."""
    def expired(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        raise AssertionError(f"{what} ran past the {seconds} s alarm") \
            from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def grid_points(poly, step=Fraction(1, 64)):
    """Multiples of step inside [nu, mu], plus mu itself when rational."""
    k = (poly.nu / step).__ceil__()
    t = k * step
    out = []
    while t <= poly.mu:
        out.append(t)
        t += step
    if isinstance(poly.mu, Fraction) and (not out or out[-1] != poly.mu):
        out.append(poly.mu)
    return out


def assert_breakpoint_oracle(configs, decompose=sp.zariski_decompose):
    """Chamber-walk alpha/beta equal independent per-t decompositions,
    exactly, at every rational breakpoint and at one rational t inside
    every piece."""
    for name, model, d, flag_curve, point in configs:
        poly = sp.okounkov_polygon(model, d, flag_curve, point)
        ts = {poly.nu}
        for p in poly.pieces:
            if isinstance(p.t_hi, Quad):
                inside = (p.t_lo + Fraction(float(p.t_hi))) / 2
            else:
                ts.add(p.t_hi)
                inside = (p.t_lo + p.t_hi) / 2
            assert p.t_lo < inside < p.t_hi, (name, d, flag_curve)
            ts.add(inside)
        for t in ts:
            assert (poly.alpha(t), poly.beta(t)) == oracle_alpha_beta(
                model, d, flag_curve, point, t, decompose), \
                (name, d, flag_curve, t)


def assert_grid_oracle(configs, step=Fraction(1, 64)):
    """Chamber-walk alpha/beta match fresh per-t decompositions, exactly."""
    for name, model, d, flag_curve, point in configs:
        poly = sp.okounkov_polygon(model, d, flag_curve, point)
        for t in grid_points(poly, step):
            a, b = oracle_alpha_beta(model, d, flag_curve, point, t)
            assert poly.alpha(t) == a, (name, d, flag_curve, t)
            assert poly.beta(t) == b, (name, d, flag_curve, t)


def polygon_equal(p1, p2) -> bool:
    return set(p1.vertices) == set(p2.vertices)


def neg_curves_through(model, pair, mults) -> list[str]:
    """Support curves passing through the point described by ``mults``."""
    return [n for n in pair.support if mults.get(n, 0) > 0]


def pullback_zariski_check(model, blowup_model, pullback, d, point_mults,
                           rename=None) -> bool:
    """Check that the pullback of a decomposition is again the decomposition.

    ``pullback`` maps base classes to blow-up classes; ``point_mults`` gives
    the multiplicity of each base curve at the blown-up point; ``rename``
    maps base curve names to their strict-transform names.
    """
    rename = rename or {}
    base = sp.zariski_decompose(model, d)
    through = neg_curves_through(model, base, point_mults)
    if through:
        raise PointInNegLocus(
            f"point lies on negative curves {through}")
    up = sp.zariski_decompose(blowup_model, pullback(model.divisor(d)))
    expect_p = pullback(base.P)
    expect_n = {rename.get(n, n): a for n, a in base.N_coeffs.items()}
    return tuple(up.P) == tuple(expect_p) and up.N_coeffs == expect_n
