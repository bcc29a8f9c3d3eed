"""Independent modular arithmetic for checking the program's outputs.

Nothing here imports suppscan. Points live in Jacobian coordinates
(X : Y : Z) standing for (X/Z^2, Y/Z^3), with Z = 0 the identity, so a bug
shared with the program's affine group law would have to be made twice in
two different formulas to go unnoticed.
"""

from math import gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))]

INFINITY = (1, 1, 0)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard rho, Brent's cycle)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho found no factor of {n}")


def prime_factors(n: int) -> set[int]:
    """The distinct primes dividing n >= 1."""
    out = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out.add(m)
        else:
            d = _rho(m)
            stack.extend((d, m // d))
    return out


def _double(q: int, a: int, P):
    X, Y, Z = P
    if Z == 0 or Y == 0:
        return INFINITY
    YY = Y * Y % q
    S = 4 * X * YY % q
    ZZ = Z * Z % q
    M = (3 * X * X + a * ZZ * ZZ) % q
    X3 = (M * M - 2 * S) % q
    Y3 = (M * (S - X3) - 8 * YY * YY) % q
    return X3, Y3, 2 * Y * Z % q


def jacobian_add(q: int, a: int, P, R):
    """P + R on y^2 = x^3 + a x + b over F_q (b is not needed)."""
    if P[2] == 0:
        return R
    if R[2] == 0:
        return P
    X1, Y1, Z1 = P
    X2, Y2, Z2 = R
    Z1Z1, Z2Z2 = Z1 * Z1 % q, Z2 * Z2 % q
    U1, U2 = X1 * Z2Z2 % q, X2 * Z1Z1 % q
    S1, S2 = Y1 * Z2 * Z2Z2 % q, Y2 * Z1 * Z1Z1 % q
    if U1 == U2:
        return _double(q, a, P) if S1 == S2 else INFINITY
    H = (U2 - U1) % q
    r = (S2 - S1) % q
    HH = H * H % q
    HHH = H * HH % q
    V = U1 * HH % q
    X3 = (r * r - HHH - 2 * V) % q
    Y3 = (r * (V - X3) - S1 * HHH) % q
    return X3, Y3, Z1 * Z2 * H % q


def jacobian_mul(q: int, a: int, n: int, P):
    """n * P, most significant bit first; negative n negates P."""
    if n < 0:
        n, P = -n, (P[0], -P[1] % q, P[2])
    acc = INFINITY
    for bit in bin(n)[2:]:
        acc = _double(q, a, acc)
        if bit == "1":
            acc = jacobian_add(q, a, acc, P)
    return acc


def to_affine(q: int, P):
    if P[2] == 0:
        return None
    zi = pow(P[2], -1, q)
    zi2 = zi * zi % q
    return P[0] * zi2 % q, P[1] * zi2 * zi % q


def reduce_projective(q: int, point) -> tuple[int, int] | None:
    """Affine reduction mod q of a projective integer triple (x, y, z)."""
    x, y, z = point
    if z % q == 0:
        return None
    zi = pow(z, -1, q)
    return x * zi % q, y * zi % q


def on_curve(q: int, a: int, b: int, pt) -> bool:
    if pt is None:
        return True
    x, y = pt
    return (y * y - x * x * x - a * x - b) % q == 0


def is_exact_order(q: int, a: int, pt: tuple[int, int], order: int) -> bool:
    """order * pt = 0 and (order / f) * pt != 0 for every prime f | order."""
    if order < 1:
        return False
    P = (pt[0], pt[1], 1)
    if jacobian_mul(q, a, order, P)[2] != 0:
        return False
    return all(jacobian_mul(q, a, order // f, P)[2] != 0 for f in prime_factors(order))


def relation_holds_at(q: int, a: int, r, k1, k2, k: int, f, transposed: bool) -> bool:
    """Whether k*Q = f(P) (k*P = f(Q) if transposed) in E(F_q)^2 / <(K1, K2)>.

    P = (r, 0) and Q = (r, r) for the affine point r; f = ((fa, fb), (fc, fd))
    acts on columns; k1 and k2 are the affine kernel generators.
    """
    R = (r[0], r[1], 1)
    src, dst = ((R, R), (R, INFINITY)) if transposed else ((R, INFINITY), (R, R))
    (fa, fb), (fc, fd) = f

    def combo(u, v):
        return jacobian_add(q, a, jacobian_mul(q, a, u, src[0]), jacobian_mul(q, a, v, src[1]))

    diff = tuple(
        to_affine(q, jacobian_add(q, a, image, jacobian_mul(q, a, -k, d)))
        for image, d in zip((combo(fa, fb), combo(fc, fd)), dst)
    )
    return diff in ((None, None), (k1, k2))
