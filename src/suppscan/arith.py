"""Exact integer helpers: primality, sieves, factoring, divisors."""

from math import gcd, isqrt

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    return [n for n in range(2, bound + 1) if flags[n]]


# Trial division runs over the primes below this; Pollard-Brent does the rest.
_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1, keys ascending.

    Trial division takes the factors below 1000; a cofactor left after that
    is split by Pollard-Brent, with is_prime deciding when to stop.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for f in _SMALL_PRIMES:
        if f * f > n:
            break
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
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
    d = _pollard_brent(n)
    _split(d, primes)
    _split(n // d, primes)


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n (Brent, BIT 20, 1980).

    Iterates x -> x^2 + c from x = 2, for c = 1, 2, ... until a c splits n;
    gcds are taken over batches of 128 products, backtracking one step at
    a time when a batch overshoots to n.
    """
    for c in range(1, n):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g
    raise ArithmeticError(f"Pollard-Brent found no factor of {n}")


def sorted_divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n
