from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from suppscan.arith import (
    factorize,
    is_perfect_square,
    is_prime,
    jacobi,
    primes_up_to,
    sorted_divisors,
    sqrt_mod,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, isqrt(n) + 1))

    for n in range(2, 3000):
        assert is_prime(n) == trial(n), n


def test_is_prime_large():
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 8)
    assert is_prime(999983)
    assert not is_prime(999983 * 999979)


def test_is_prime_at_the_bounds_of_its_witnesses():
    # The first 12 primes as witnesses pass this composite (Sorenson-Webster,
    # Math. Comp. 86, 2017); base 41 catches it.
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(2**61 - 1)
    # The first 13 primes pass the next such composite: no proved answer.
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)


# psi_k, the least strong pseudoprime to the first k prime bases, k = 1..13
# (Jaeschke, Math. Comp. 61, 1993; Sorenson-Webster, Math. Comp. 86, 2017;
# OEIS A014233), written out here rather than read from suppscan.arith.
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    """The strong test to base a of an odd n > a: n - 1 = d * 2^s, d odd,
    and a^d = 1 or a^(d * 2^r) = -1 (mod n) for some r < s."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_psi_table_is_composite_and_fools_its_bases():
    sympy = pytest.importorskip("sympy")
    for k, psi in enumerate(PSI, 1):
        # A repeated value fools the bases of its last entry in the table too,
        # and the base after those catches it.
        last = k + PSI[k:].count(psi)
        assert not sympy.isprime(psi), k
        assert all(strong_probable_prime(psi, a) for a in BASES[:last]), k
        if last < len(BASES):
            assert not strong_probable_prime(psi, BASES[last]), k


def test_is_prime_rejects_every_psi():
    # psi_13 is the proved bound itself, where is_prime refuses to answer.
    for k, psi in enumerate(PSI[:-1], 1):
        assert is_prime(psi) is False, k
    with pytest.raises(ValueError):
        is_prime(PSI[-1])


def test_is_prime_matches_sympy_around_each_psi_and_near_10_10():
    sympy = pytest.importorskip("sympy")
    near = [n for psi in PSI[:8] for n in range(psi - 200, psi + 201)]
    for n in near + list(range(10**10, 10**10 + 20000)):
        assert is_prime(n) == sympy.isprime(n), n


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10_000)) == 1229


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(419904) == {2: 6, 3: 8}
    assert factorize(97) == {97: 1}
    for n in range(1, 500):
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def check_factorization(n):
    f = factorize(n)
    prod = 1
    for p, e in f.items():
        assert is_prime(p) and e >= 1, (n, f)
        prod *= p**e
    assert prod == n, (n, f)
    assert list(f) == sorted(f), (n, f)
    return f


def test_factorize_edge_cases():
    assert check_factorization(1) == {}
    for p in (2, 3, 997, 1009, 999983, 10**9 + 7, 9999999967):
        assert check_factorization(p) == {p: 1}
    assert check_factorization(997**2) == {997: 2}
    assert check_factorization(1009**2) == {1009: 2}
    assert check_factorization(1009 * 1013) == {1009: 1, 1013: 1}
    assert check_factorization(2**40) == {2: 40}
    assert check_factorization(3**25) == {3: 25}
    assert check_factorization(1009**4) == {1009: 4}
    assert check_factorization(999983 * 1000003) == {999983: 1, 1000003: 1}
    assert check_factorization(999983**2) == {999983: 2}
    assert check_factorization(8 * 997 * 1009 * 999983) == {2: 3, 997: 1, 1009: 1, 999983: 1}
    # Floyd's rho from x = 2 with c = 1 meets gcd n here; c = 2 splits it.
    assert check_factorization(8191 * 31583) == {8191: 1, 31583: 1}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**13))
def test_factorize_random(n):
    check_factorization(n)


_RHO_PRIMES = tuple(p for p in primes_up_to(10**5) if p > 1000)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_RHO_PRIMES), st.sampled_from(_RHO_PRIMES))
def test_factorize_two_large_primes(p, q):
    # No factor below 1000 and a product above 1000^2: every draw reaches the rho.
    assert check_factorization(p * q) == ({p: 2} if p == q else {p: 1, q: 1})
    assert check_factorization(p * p) == {p: 2}


def test_sorted_divisors():
    assert sorted_divisors(1) == [1]
    assert sorted_divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 200):
        assert sorted_divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_is_perfect_square():
    squares = {k * k for k in range(50)}
    for n in range(-5, 2000):
        assert is_perfect_square(n) == (n in squares)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_jacobi_is_eulers_criterion_at_primes(data):
    # At an odd prime q up to 10^12 the Jacobi symbol is the Legendre
    # symbol, a^((q-1)/2) mod q read as 1, -1 or 0; a runs over negative
    # values, multiples of q (0 included) and values past q.
    q = data.draw(st.integers(3, 10**12), label="start")
    while not is_prime(q):
        q += 1
    a = data.draw(
        st.integers(-(10**13), 10**13) | st.integers(-3, 3).map(lambda k: k * q) | st.integers(-5, 5),
        label="a",
    )
    euler = pow(a, (q - 1) // 2, q)
    assert jacobi(a, q) == (-1 if euler == q - 1 else euler), (a, q)


def test_sqrt_mod_brute_force_small_primes():
    # Every residue at every odd prime below 300, among them 97, 193 and 257
    # (q - 1 = 2^5 * 3, 2^6 * 3, 2^8), where Tonelli-Shanks runs its loop,
    # and q = 3 mod 4, where it does not.
    for q in primes_up_to(300)[1:]:
        squares = {y * y % q for y in range(q)}
        for a in range(-q, 2 * q):
            r = sqrt_mod(a, q)
            if a % q in squares:
                assert r is not None and 0 <= r < q and r * r % q == a % q, (q, a, r)
            else:
                assert r is None, (q, a, r)
