"""Exact integer helpers: primality, sieves, factoring, divisors."""

from math import gcd, isqrt

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # Sorenson-Webster, Math. Comp. 86, 2017


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
    # bytearray(n) of zeros, not bytearray([1]) * n: when that repeat cannot
    # allocate, Python 3.11 prints a SystemError line before the MemoryError.
    crossed = bytearray(bound + 1)
    for p in range(2, isqrt(bound) + 1):
        if not crossed[p]:
            crossed[p * p :: p] = b"\x01" * len(range(p * p, bound + 1, p))
    return [n for n in range(2, bound + 1) if not crossed[n]]


# Trial division runs over the primes below this; Pollard's rho does the rest.
_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1, keys ascending.

    Trial division takes the factors below 1000; a cofactor left after that
    is split by Pollard's rho, with is_prime deciding when to stop.
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


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n
