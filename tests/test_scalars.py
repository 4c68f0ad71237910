import operator
from fractions import Fraction

import mpmath
import pytest
from sympy import Matrix

import surfpos.scalars as sc
from surfpos.errors import MixedRadicands, NoRealRoot, NotSymmetric, SingularMatrix
from surfpos.scalars import Quad, quad

from conftest import alarm, seeded_rng


def test_quad_normalizes_to_rational():
    assert quad(3, 0, 5) == Fraction(3)
    assert quad(1, 2, 0) == Fraction(1)
    assert quad(0, 1, Fraction(9, 4)) == Fraction(3, 2)
    assert quad(1, 2, 4) == Fraction(5)


def test_quad_perfect_square_needs_no_factoring():
    # k is a 41-digit prime: trial division of k^2 would run for ages,
    # so the alarm fails the test unless isqrt settles the square first
    k = 10**40 + 121
    with alarm(2.0, "quad of a perfect square"):
        assert quad(0, 1, k * k) == Fraction(k)
        assert quad(1, 3, Fraction(k * k, 4)) == 1 + Fraction(3 * k, 2)


def _square_free_to_sqrt(n):
    """The trial division _square_free ran before it stopped at cube
    roots: every divisor p with p^2 <= n, n divided by the factors found
    so far."""
    s, m, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            m *= p
        p += 1 if p == 2 else 2
    return s, m * n


def test_square_free_matches_division_up_to_square_roots():
    """The cofactor left at the cube root is 1, q, q^2 or q*r; the grid
    has each, with q and r near and far from the last divisor tried."""
    primes = (2, 3, 5, 7, 97, 101, 997, 1009, 65521, 65537)
    grid = list(range(1, 2000))
    grid += [p * p * q for p in primes for q in primes]
    grid += [p * q * r for p in primes[:6] for q in primes for r in primes]
    rng = seeded_rng("square-free")
    grid += [rng.randrange(1, 10**9) for _ in range(200)]
    for n in grid:
        assert sc._square_free(n) == _square_free_to_sqrt(n), n


def test_quad_squarefree_radicand():
    a = quad(0, 1, 8)
    b = quad(0, 2, 2)
    assert isinstance(a, Quad) and a.d == 2
    assert a == b
    assert a + b == quad(0, 4, 2)


def test_quad_arithmetic_field_ops():
    s = quad(1, 1, 2)   # 1 + sqrt(2)
    t = quad(1, -1, 2)  # conjugate
    assert s * t == Fraction(-1)
    assert s + t == Fraction(2)
    assert (s / t) * t == s
    assert 1 / s == quad(-1, 1, 2)  # 1/(1+sqrt 2) = sqrt(2) - 1
    assert 2 * s - s == s


def test_quad_pickle_and_deepcopy():
    import copy
    import pickle
    from surfpos.okounkov import NOPolygon, PolygonPiece
    v = quad(0, 1, 2)
    back = pickle.loads(pickle.dumps(v))
    assert isinstance(back, Quad) and back == v and back.d == 2
    poly = NOPolygon(nu=Fraction(0), mu=v, flag_curve="C",
                     pieces=(PolygonPiece(Fraction(0), v, (0, 0), (1, 1),
                                          ()),))
    assert copy.deepcopy(poly) == poly
    assert copy.deepcopy(poly).vertices == poly.vertices


def test_mixed_radicands_rejected():
    with pytest.raises(MixedRadicands):
        _ = quad(0, 1, 2) + quad(0, 1, 3)


def test_normalization_idempotent():
    rng = seeded_rng("normalize")
    for _ in range(200):
        a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        d = Fraction(rng.randrange(0, 30), rng.randrange(1, 9))
        v = quad(a, b, d)
        if isinstance(v, Quad):
            assert quad(v.a, v.b, v.d) == v


def test_ordering_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    rng = seeded_rng("ordering")
    for _ in range(300):
        a = Fraction(rng.randrange(-20, 21), rng.randrange(1, 12))
        b = Fraction(rng.randrange(-20, 21), rng.randrange(1, 12))
        d = Fraction(rng.randrange(1, 40), rng.randrange(1, 12))
        v = quad(a, b, d)
        approx = mp.mpf(a.numerator) / a.denominator + \
            (mp.mpf(b.numerator) / b.denominator) * \
            mp.sqrt(mp.mpf(d.numerator) / d.denominator)
        sign = (v > 0) - (v < 0)
        if abs(approx) > mp.mpf("1e-40"):
            assert sign == (1 if approx > 0 else -1)
        else:
            assert sign == 0 or not isinstance(v, Quad)


ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def operand_pairs(salt, n=300):
    """Pairs of a Quad of one of five radicands (8 and 12 share the fields
    of 2 and 3) and a Quad of the same field, a Fraction or an int."""
    rng = seeded_rng(salt)

    def rational(nonzero=False):
        return Fraction(rng.randrange(1 if nonzero else 0, 21)
                        * rng.choice((-1, 1)), rng.randrange(1, 13))

    for _ in range(n):
        d = rng.choice((2, 3, 5, 8, 12))
        x = quad(rational(), rational(nonzero=True), d)
        y = rng.choice((quad(rational(), rational(nonzero=True), d),
                        rational(), rng.randrange(-20, 21)))
        yield x, y


def oracle(v):
    """The value of an exact scalar in mpmath's working precision."""
    if isinstance(v, Quad):
        return oracle(v.a) + oracle(v.b) * mpmath.sqrt(v.d)
    assert isinstance(v, (int, Fraction)), type(v)
    return mpmath.mpf(v.numerator) / v.denominator


def test_quad_operators_agree_with_mpmath():
    """+, -, *, / and the four orderings, with the Quad on either side,
    agree with mpmath at 60 digits.  A Quad is never 0, so only a rational
    divisor is skipped when it is 0."""
    tol = mpmath.mpf(10) ** -50
    for pair in operand_pairs("quad-operators"):
        for x, y in (pair, pair[::-1]):
            with mpmath.workdps(60):
                for op in ARITHMETIC:
                    if op is operator.truediv and y == 0:
                        continue
                    want = op(oracle(x), oracle(y))
                    assert abs(oracle(op(x, y)) - want) <= \
                        tol * max(1, abs(want)), (op.__name__, x, y)
                diff = oracle(x) - oracle(y)
                sign = 0 if abs(diff) < tol else (diff > 0) - (diff < 0)
            assert (sign == 0) == (x == y)
            for op in ORDER:
                assert op(x, y) == op(sign, 0), (op.__name__, x, y)


def test_quad_refuses_inexact_and_foreign_operands():
    refusals = ((1.5, TypeError), (mpmath.mpf(1) / 3, TypeError),
                (quad(1, 1, 7), MixedRadicands))
    for x, _ in operand_pairs("quad-refusals", n=20):
        for op in ARITHMETIC + ORDER:
            for other, error in refusals:
                with pytest.raises(error):
                    op(x, other)
                with pytest.raises(error):
                    op(other, x)


def test_total_order_transitive_samples():
    # one radicand per computation: values of Q(sqrt 2) and rationals mix
    vals = [quad(0, 1, 2), Fraction(1), Fraction(3, 2), quad(1, -1, 2),
            quad(-1, 1, 2), Fraction(0), quad(3, -2, 2)]
    s = sorted(vals)
    for x, y in zip(s, s[1:]):
        assert x <= y
    with pytest.raises(MixedRadicands):
        _ = quad(0, 1, 2) < quad(0, 1, 3)


def test_solve_negative_definite_examples():
    assert sc.solve_negative_definite([[-2]], [-1]) == ((Fraction(1, 2),),)
    assert sc.solve_negative_definite([[-2, 0], [0, -1]], [-1, 0]) == \
        ((Fraction(1, 2), Fraction(0)),)
    (x,) = sc.solve_negative_definite([[-1, 1], [1, -2]], [1, 0])
    assert x == (Fraction(-2), Fraction(-1))
    # verify by substitution
    assert Matrix([[-1, 1], [1, -2]]) * Matrix(x) == Matrix([1, 0])


def test_inverse_random_roundtrip():
    rng = seeded_rng("solve")
    for _ in range(60):
        n = rng.randrange(1, 5)
        while True:
            g = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                  for _ in range(n)] for _ in range(n)]
            if Matrix(g).det() != 0:
                break
        x = tuple(Fraction(rng.randrange(-7, 8), rng.randrange(1, 5))
                  for _ in range(n))
        rhs = [Fraction(int(v.p), int(v.q)) for v in Matrix(g) * Matrix(x)]
        assert tuple(sum(a * b for a, b in zip(row, rhs))
                     for row in sc.inverse(g)) == x


def test_rank_inverse():
    # a row swap leaves the rank and the inverse exact; a dependent row
    # drops the rank
    assert sc.rank([[0, 1], [1, 0]]) == 2
    assert sc.inverse([[0, 1], [1, 0]]) == ((0, 1), (1, 0))
    g = [[0, 2, 1], [1, 0, 0], [3, 1, 2]]
    assert Matrix(sc.inverse(g)) == Matrix(g).inv()
    assert sc.rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert sc.rank([[0, 0], [0, 0]]) == 0
    g = [[-1, 1, 1], [1, -2, 0], [1, 0, -1]]
    inv = sc.inverse(g)
    assert Matrix(sc.inverse(inv)) == Matrix(g)
    assert all(Matrix(g) * Matrix(col) == Matrix(e) for col, e in zip(
        zip(*inv), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    with pytest.raises(SingularMatrix):
        sc.inverse([[1, 2], [2, 4]])


def test_negative_definite():
    def definite(g):
        return sc.solve_negative_definite(g) is not None

    assert definite([[-1]])
    assert definite([[-1, 1], [1, -2]])
    assert not definite([[-1, 2], [2, -1]])
    assert not definite([[0]])
    # a zero leading minor: the pivots after a row swap alternate in sign
    assert not definite([[0, -1], [-1, -1]])
    with pytest.raises(NotSymmetric):
        definite([[-1, 1], [0, -1]])


def test_positive_quadratic_root_examples():
    assert sc.positive_quadratic_root(1, -4, 4, 1) == Fraction(2)
    assert sc.positive_quadratic_root(-1, 0, 1, 0) == Fraction(1)
    r = sc.positive_quadratic_root(-1, 0, 2, 0)
    assert isinstance(r, Quad) and r == quad(0, 1, 2)
    assert sc.positive_quadratic_root(0, -2, 6, 0) == Fraction(3)
    with pytest.raises(NoRealRoot):
        sc.positive_quadratic_root(1, 0, 1, 0)
    with pytest.raises(NoRealRoot):
        sc.positive_quadratic_root(1, -4, 4, 3)


def test_quadratic_root_takes_out_the_content():
    # k is a 41-digit prime: the discriminant of k*(2 - t^2) is 8k^2, and
    # factoring it would take the trial division to its limit
    k = 10**40 + 121
    with alarm(2.0, "root of a multiple of 2 - t^2"):
        assert sc.positive_quadratic_root(-k, 0, 2 * k) == quad(0, 1, 2)
        assert sc.positive_quadratic_root(k, 0, -2 * k, -2) == quad(0, -1, 2)


def test_primitive():
    assert sc.primitive([Fraction(1, 2), Fraction(3, 2)]) == (1, 3)
    assert sc.primitive([4, -6]) == (2, -3)
