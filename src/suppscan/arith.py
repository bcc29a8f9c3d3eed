"""Exact integer helpers: primality, sieves, factoring, divisors, quadratic residues mod p."""

from bisect import bisect_right
from functools import lru_cache
from math import gcd, isqrt, prod

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # Sorenson-Webster, Math. Comp. 86, 2017
# psi_k, the least strong pseudoprime to the first k bases, for k = 1..12
# (Jaeschke, Math. Comp. 61, 1993; Sorenson-Webster; OEIS A014233); psi_13
# is _MR_LIMIT. Below psi_k the first k bases prove primality. psi_7 = psi_8
# and psi_9 = psi_10 = psi_11, so bisect_right skips a repeated value whole:
# 341550071728321 passes the first 8 bases and needs 9.
_MR_PSI = (
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
)


def is_prime(n: int) -> bool:
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is at or above {_MR_LIMIT}, the proved primality bound")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (sieve of Eratosthenes)."""
    if bound < 2:
        return []
    # bytearray(n) of zeros, not bytearray([1]) * n: when that repeat cannot
    # allocate, Python 3.11 prints a SystemError line before the MemoryError.
    crossed = bytearray(bound + 1)
    for p in range(2, isqrt(bound) + 1):
        if not crossed[p]:
            crossed[p * p :: p] = b"\x01" * len(range(p * p, bound + 1, p))
    return [n for n in range(2, bound + 1) if not crossed[n]]


# factorize divides out the primes below this that one gcd names; Pollard's rho does the rest.
_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1, keys ascending.

    One gcd with the product of the primes below 1000 names n's small
    primes, and only those are divided out, ascending; once a prime's square
    exceeds what is left of the gcd, that rest is prime. Pollard's rho
    splits the cofactor left, with is_prime deciding when to stop.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    g, primes = gcd(n, _SMALL_PRODUCT), iter(_SMALL_PRIMES)
    while g > 1:
        f = next(primes)
        if f * f > g:
            f = g
        if g % f == 0:
            g //= f
            out[f] = 0
            while n % f == 0:
                n //= f
                out[f] += 1
    # Below 1000^2 a cofactor free of the small primes is 1 or prime.
    if n >= _TRIAL_LIMIT**2:
        large: list[int] = []
        _split(n, large)
        for f in sorted(large):
            out[f] = out.get(f, 0) + 1
    elif n > 1:
        out[n] = 1
    return out


def _split(n: int, primes: list[int]) -> None:
    """Append the prime factors of n (no factor below 1000), with multiplicity."""
    if is_prime(n):
        primes.append(n)
        return
    d = _pollard_rho(n)
    _split(d, primes)
    _split(n // d, primes)


def _pollard_rho(n: int) -> int:
    """A proper factor of the odd composite n (Pollard's rho, Floyd's cycle).

    Iterates x -> x^2 + c from x = 2, one gcd per step; a gcd of n means the
    cycles mod every factor closed together, and the next c is tried.
    """
    for c in range(1, n):
        x, y, g = 2, 2, 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g
    raise ArithmeticError(f"Pollard's rho found no factor of {n}")


def sorted_divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n), odd n >= 1: at a prime n, 1, -1 or 0 as a is
    a nonzero square, a non-square or 0 mod n. Binary reciprocity, with no
    exponentiation (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 1.4.10): a factor 2 of a flips the sign at n = 3, 5 mod 8, and a
    swap of a and n flips it when both are 3 mod 4."""
    a, t = a % n, 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & 3 == 3 and n & 3 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def sqrt_mod(a: int, q: int):
    """A square root of a modulo the odd prime q, or None when a is not a
    square mod q (Tonelli-Shanks: Cohen, A Course in Computational Algebraic
    Number Theory, Algorithm 1.5.1).

    The Jacobi symbol decides squareness, so a non-square costs no
    exponentiation. With q - 1 = 2^e * odd, one exponentiation gives
    r = a^((odd + 1)/2) and t = a^odd, with r^2 = a*t and t in the 2-Sylow
    subgroup of F_q*; each step of the loop multiplies t by a square of the
    subgroup until t = 1, and r by its root.
    """
    a %= q
    if jacobi(a, q) != 1:
        return None if a else 0
    e = ((q - 1) & (1 - q)).bit_length() - 1
    odd = (q - 1) >> e
    w = pow(a, odd >> 1, q)
    r = a * w % q
    t = r * w % q
    if t == 1:
        return r
    c, m = _two_sylow_generator(q, odd), e  # c has order 2^m, t order 2^i, i < m
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        c = b * b % q
        m, t, r = i, t * c % q, r * b % q
    return r


@lru_cache(maxsize=1)
def _two_sylow_generator(q: int, odd: int) -> int:
    """z^odd for the least non-square z mod q, q - 1 = 2^e * odd: a generator
    of the 2-Sylow subgroup of F_q*. Kept for the last q, since sqrt_mod is
    called at one q many times in a row."""
    z = 2
    while jacobi(z, q) == 1:
        z += 1
    return pow(z, odd, q)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n
