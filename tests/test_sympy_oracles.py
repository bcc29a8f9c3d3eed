"""The arithmetic against sympy, whose group law, primality test and
factorization share no code with the package or with tests/oracles.py."""

from itertools import takewhile
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")
from sympy.ntheory.elliptic_curve import EllipticCurve

from oracles import count_points_brute
from suppscan.arith import factorize, is_prime, primes_up_to
from suppscan.finite import FiniteCurve, hasse_interval
from suppscan.rational import reduce_onto
from suppscan.scan import default_config, iter_good_primes


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


def test_order_of_r_matches_sympy_at_every_good_prime_below_2000():
    # n is the order of P iff n*P = O and (n/f)*P != O for each prime f | n.
    cfg = default_config()
    for q in takewhile(lambda q: q < 2000, iter_good_primes(cfg)):
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


def test_primes_match_sympy_below_10_5():
    assert primes_up_to(10**5) == list(sympy.primerange(2, 10**5 + 1))
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if sympy.isprime(n)]


def test_factorize_matches_sympy_near_10_10():
    for n in range(10**10 - 100, 10**10 + 400):
        assert factorize(n) == sympy.factorint(n), n
