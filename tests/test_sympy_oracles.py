"""The arithmetic against sympy, whose group law, primality test and
factorization share no code with the package or with tests/oracles.py."""

import random
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.ntheory.elliptic_curve import EllipticCurve

from oracles import count_points_brute, split_curves
from suppscan.arith import factorize, is_prime, jacobi, primes_up_to, sqrt_mod
from suppscan.finite import FiniteCurve, hasse_interval
from suppscan.rational import reduce_onto
from suppscan.scan import classify_primes, default_config


class UncheckedCurve(EllipticCurve):
    # sympy checks every sum it builds for curve membership by symbolic
    # substitution, two thirds of the time of an addition; the group law
    # itself is unchanged. The point that the sums start from is checked.
    def __contains__(self, point):
        return True


def sympy_orders(E):
    """The order of every affine point, from sympy's addition alone: one walk
    P, 2P, ..., nP = O per cyclic subgroup gives order(kP) = n / gcd(k, n).

    sympy's own point order() is not used: it returns 3 whenever 2P and -P
    share a y-coordinate, e.g. for (30, 24) on y^2 = x^3 + x + 1 mod 37,
    whose order is 48.
    """
    orders = {}
    for xy in sorted(E.points()):
        if xy in orders:
            continue
        P = E(*xy)
        walk, T = [], P
        while T.z != 0:
            walk.append((int(T.x), int(T.y)))
            T = T + P
        n = len(walk) + 1
        for k, multiple in enumerate(walk, 1):
            orders[multiple] = n // gcd(k, n)
    return orders


@pytest.mark.parametrize("q, a, b", [(11, -1, 0), (37, 1, 1), (61, 2, 3), (101, -21, -20)])
def test_point_order_and_count_match_sympy(q, a, b):
    E = EllipticCurve(a, b, modulus=q)
    orders = sympy_orders(E)
    curve = FiniteCurve(q, a, b)
    assert {s: curve.point_order(s) for s in orders} == orders
    count = E.order + 1  # sympy's EllipticCurve.order counts the affine points only
    lo, hi = hasse_interval(q)
    assert count == count_points_brute(q, a, b) and lo <= count <= hi
    if q == 101:
        assert orders[(0, 9)] == curve.point_order((0, 9)) == 8


@pytest.mark.parametrize("q, a, b", [(37, 1, 1), (101, -21, -20)])
def test_killed_by_matches_sympy(q, a, b):
    # n * s is the identity exactly when sympy's order of s divides n.
    curve = FiniteCurve(q, a, b)
    for s, order in sympy_orders(EllipticCurve(a, b, modulus=q)).items():
        for n in range(-2 * order - 1, 2 * order + 2):
            assert (curve.index_of_multiple(n, s, (None,)) == 0) is (n % order == 0), (s, n)


def test_order_of_r_matches_sympy_at_every_good_prime_below_2000():
    # n is the order of P iff n*P = O and (n/f)*P != O for each prime f | n.
    cfg = default_config()
    for q in classify_primes(cfg._replace(prime_bound=1999))[0]:
        curve = cfg.curve.reduce(q)
        r = reduce_onto(cfg.R, curve)
        n = curve.point_order(r)
        E = UncheckedCurve(cfg.curve.a, cfg.curve.b, modulus=q)
        P = E(*r)
        assert EllipticCurve.__contains__(E, P), q
        first, *rest = sympy.factorint(n)
        A = P * (n // first)
        assert A.z != 0 and (A * first).z == 0, q
        assert all((P * (n // f)).z != 0 for f in rest), q


def prime_in_class(start, modulus, residue):
    """The least prime q >= start with q = residue mod modulus."""
    q = start + (residue - start) % modulus
    while not sympy.isprime(q):
        q += modulus
    return q


# (modulus, residue) classes of q: any prime; q = 3 mod 4, where
# Tonelli-Shanks is one exponentiation; and q = 1 mod 2^k for k = 5 and 12,
# where its loop runs up to k - 1 times.
Q_CLASSES = ((1, 0), (4, 3), (32, 1), (4096, 1))


def assert_sympy_order(q, a, b, point, n):
    # n is the order of P iff n*P = O and (n/f)*P != O for each prime f | n,
    # all in sympy's group law.
    E = UncheckedCurve(a, b, modulus=q)
    P = E(*point)
    assert EllipticCurve.__contains__(E, P), (q, a, b, point)
    assert (P * n).z == 0, (q, a, b, point, n)
    assert all((P * (n // f)).z != 0 for f in sympy.factorint(n)), (q, a, b, point, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_point_order_matches_sympy_at_large_q(data):
    # Random points on y^2 = (x - e1)(x - e2)(x - e3), e1 + e2 + e3 = 0, at
    # primes q in [10^6, 10^12]: annihilators with several large prime
    # factors, far past the walk oracle. The orders with and without the
    # 2-torsion window agree; the window opens above finite._WINDOW_MIN_Q.
    modulus, residue = data.draw(st.sampled_from(Q_CLASSES), label="class of q")
    start = data.draw(st.integers(10**6, 10**12 - 10**6), label="start")
    q = prime_in_class(start, modulus, residue)
    e1 = data.draw(st.integers(0, q - 1), label="e1")
    e2 = data.draw(st.integers(0, q - 1), label="e2")
    e3 = -(e1 + e2) % q
    assume(len({e1, e2, e3}) == 3)
    a, b = (e1 * e2 + e2 * e3 + e3 * e1) % q, -e1 * e2 * e3 % q
    x = data.draw(st.integers(0, q - 1), label="x")
    while (y := sympy.sqrt_mod((x**3 + a * x + b) % q, q)) is None:
        x = (x + 1) % q
    curve = FiniteCurve(q, a, b)
    n = curve.point_order((x, y))
    assert curve.point_order((x, y), two_torsion=(e1, e2)) == n, (q, e1, e2, x, y)
    assert_sympy_order(q, a, b, (x, y), n)


def test_doublings_and_their_sums_match_sympy_near_10_10():
    # The table of r's doublings that evaluate_prime builds at the first good
    # prime past 10^10 on the default config, one entry past the Hasse
    # bound's bits, each entry sympy's r doubled j times. point_order given
    # the table finds sympy's order of r. The signed sums of the table's
    # entries against sympy's n * r: at every divisor n of ord_R, where only
    # ord_R itself gives the identity, and at scalars up to the longest the
    # table sums, runs of ones (negative digits) among them.
    cfg = default_config()
    q = sympy.nextprime(10**10)
    curve = cfg.curve.reduce(q)
    r = reduce_onto(cfg.R, curve)
    length = hasse_interval(q)[1].bit_length() + 1
    table = curve.doublings(r, length)
    n = curve.point_order(r, (cfg.R1.x % q, cfg.R2.x % q), table)
    assert n == curve.point_order(r)
    assert_sympy_order(q, cfg.curve.a % q, cfg.curve.b % q, r, n)
    E = UncheckedCurve(cfg.curve.a, cfg.curve.b, modulus=q)
    T = E(*r)
    for j, entry in enumerate(table):
        assert entry == (int(T.x), int(T.y)), (q, j)
        T = T + T
    top = 1 << (length - 1)
    rng = random.Random(10)
    scalars = [top - 1, top // 3, 0b1110111011110111, *(rng.randrange(top) for _ in range(20))]
    for d in sympy.divisors(n) + scalars:
        M = E(*r) * d
        expected = None if M.z == 0 else (int(M.x), int(M.y))
        assert curve.index_of_multiple(d, r, [expected], table) == 0, (q, d)
        assert (expected is None) is (d % n == 0), (q, d)


@pytest.mark.parametrize("modulus, residue", Q_CLASSES[1:])
def test_windowed_point_order_matches_sympy_on_every_branch(modulus, residue):
    # Split curves with small roots, each at the next prime past 10^11 in one
    # class of q, until the 2-descent has met every branch it can: no T_i
    # halves (v = 2), one does and its walk stops at once (v = 3) or climbs
    # (v >= 5), and, at q = 1 mod 4 only, all three do. The orders with and
    # without two_torsion agree, in sympy's group law.
    want = {2, 3, 5} | ({"lower"} if residue == 1 else set())
    met, q = set(), 10**11
    for e1, e2, e3, a, b in split_curves(12):
        q = prime_in_class(q + 1, modulus, residue)
        curve = FiniteCurve(q, a, b)
        v, exact = curve._two_part(e1, e2)
        met.add(min(v, 5) if exact else "lower")
        x = 1
        while (y := sympy.sqrt_mod((x**3 + a * x + b) % q, q)) is None:
            x += 1
        n = curve.point_order((x, y), two_torsion=(e1, e2))
        assert curve.point_order((x, y)) == n, (q, e1, e2, x, y)
        assert_sympy_order(q, a, b, (x, y), n)
        if want <= met:
            break
    assert want <= met, met


def test_sqrt_mod_matches_sympy_at_large_q():
    # sympy returns one root or None; ours is that root or its negative.
    for modulus, residue in Q_CLASSES:
        for start in (10**9, 10**12, 2**61):
            q = prime_in_class(start, modulus, residue)
            for a in (*range(-20, 21), *range(q - 5, q + 5), 3**50 % q, 7**41 % q, 10**9 + 7):
                root = sympy.sqrt_mod(a, q)
                r = sqrt_mod(a, q)
                assert (r is None) is (root is None), (q, a)
                assert root is None or r in (root, q - root), (q, a, r, root)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_jacobi_matches_sympy_at_odd_composites(data):
    # n is a product of two to four odd factors, some sharing a prime with
    # a (symbol 0), and a is negative, zero, below n or past it.
    factors = data.draw(st.lists(st.integers(1, 10**4).map(lambda k: 2 * k + 1), min_size=2, max_size=4))
    n = prod(factors)
    a = data.draw(
        st.integers(-(n**2), n**2) | st.sampled_from(factors).map(lambda f: -7 * f) | st.just(0), label="a"
    )
    assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_primes_match_sympy_below_10_5():
    assert primes_up_to(10**5) == list(sympy.primerange(2, 10**5 + 1))
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if sympy.isprime(n)]


def test_factorize_matches_sympy_near_10_10():
    for n in range(10**10 - 100, 10**10 + 400):
        assert factorize(n) == sympy.factorint(n), n
