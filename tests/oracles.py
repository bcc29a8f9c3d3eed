"""Deliberately naive reference machinery the tests check the library against.

Everything here favors transparency over speed: exhaustive point listings,
stepwise order walks, explicit reduced-form counting. None of it shares
strategy with the code under test.
"""

from itertools import product
from math import gcd, isqrt

from suppscan.endo import KIND_WEAK_FOUND, KIND_WEAK_NOT_FOUND, EndoMatrix, apply
from suppscan.quotient import QuotientPoint, quotient_equal, quotient_scalar_mul
from suppscan.rational import RationalCurve, RationalPoint, rational_add, reduce_coordinates, reduce_onto


def rational_scalar_mul(curve, n, s):
    """n * s on a RationalCurve by double-and-add over rational_add."""
    if n < 0:
        n, s = -n, RationalPoint(s.x, -s.y, s.z)
    acc = RationalPoint.identity()
    while n:
        if n & 1:
            acc = rational_add(curve, acc, s)
        s = rational_add(curve, s, s)
        n >>= 1
    return acc


def isomorphic_config(config, u):
    """config on the model y^2 = x^3 + u^4*a*x + u^6*b, every point (x, y)
    mapped to (u^2*x, u^3*y): the same curve over every F_q with q not
    dividing u, so every record and certificate must come out the same."""

    def scaled(s):
        return RationalPoint(u * u * s.x, u**3 * s.y, s.z)

    curve = RationalCurve(u**4 * config.curve.a, u**6 * config.curve.b)
    return config._replace(curve=curve, R=scaled(config.R), R1=scaled(config.R1), R2=scaled(config.R2))


def reduce_point(curve, point, q):
    """Reduce a rational point mod a good prime q, checking it lands on the
    reduced curve (curve.reduce rejects a q that is not usable)."""
    return reduce_onto(point, curve.reduce(q))


def split_cubic_roots(curve):
    """Distinct integer roots of x^3 + a*x + b, or None unless all three
    exist, by trying every divisor of b (rational root theorem)."""
    a, b = curve.a, curve.b
    roots = set()
    if b == 0:
        roots.add(0)
        r = isqrt(max(-a, 0))
        if a < 0 and r * r == -a:
            roots.update((r, -r))
    else:
        for d in range(1, isqrt(abs(b)) + 1):
            if b % d == 0:
                for r in (d, -d, abs(b) // d, -abs(b) // d):
                    if r**3 + a * r + b == 0:
                        roots.add(r)
    return sorted(roots) if len(roots) == 3 else None


def compose(m, other):
    """The matrix product m * other: apply other first, then m."""
    return EndoMatrix(
        m.a * other.a + m.b * other.c,
        m.a * other.b + m.b * other.d,
        m.c * other.a + m.d * other.c,
        m.c * other.b + m.d * other.d,
    )


def affine_points_brute(q, a, b):
    """All (x, y) on y^2 = x^3 + ax + b over F_q by a full double loop."""
    pts = []
    for x in range(q):
        for y in range(q):
            if (y * y - (x * x * x + a * x + b)) % q == 0:
                pts.append((x, y))
    return pts


def count_points_brute(q, a, b):
    return 1 + len(affine_points_brute(q, a, b))


def count_points_by_squares(q, a, b):
    """#E(F_q) for y^2 = x^3 + ax + b as q + 1 + the sum of the quadratic
    characters of x^3 + ax + b over x, read off a table of the squares."""
    square = [False] * q
    for y in range(1, q):
        square[y * y % q] = True
    total = q + 1
    for x in range(q):
        f = (x * x * x + a * x + b) % q
        total += 0 if f == 0 else 1 if square[f] else -1
    return total


def split_curves(bound):
    """(e1, e2, e3, a, b) for every y^2 = (x - e1)(x - e2)(x - e3) with
    distinct integers e1 < e2 < e3, e1 + e2 + e3 = 0 and |e_i| <= bound."""
    out = []
    for e1 in range(-bound, bound + 1):
        for e2 in range(e1 + 1, bound + 1):
            e3 = -e1 - e2
            if e2 < e3 <= bound:
                out.append((e1, e2, e3, e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3))
    return out


def all_points(curve):
    """Every point of a FiniteCurve, identity first, then affine points in
    lexicographic order; O(q) through a table of square roots."""
    q = curve.q
    roots = {}
    for y in range(q):
        roots.setdefault((y * y) % q, []).append(y)
    points = [None]
    for x in range(q):
        for y in roots.get((x * x * x + curve.a * x + curve.b) % q, ()):
            points.append((x, y))
    return points


def naf_digits(n):
    """The non-adjacent form of n >= 0, lowest digit first, by the textbook
    loop: an odd n takes the digit 2 - (n mod 4), which leaves n - d
    divisible by 4, so no two nonzero digits are adjacent."""
    digits = []
    while n:
        d = 2 - n % 4 if n % 2 else 0
        digits.append(d)
        n = (n - d) // 2
    return digits


def order_by_walk(add, s):
    """Order of s under the supplied addition, one step at a time."""
    n, t = 1, s
    while t is not None:
        t = add(t, s)
        n += 1
    return n


def coset_order_by_walk(add, kernel_pairs, pair):
    """Order of a pair in (E x E)/kernel by stepping until the walk lands
    in the kernel; no divisor shortcuts."""
    kernel = set(kernel_pairs)
    n = 1
    t = pair
    while (t[0], t[1]) not in kernel:
        t = (add(t[0], pair[0]), add(t[1], pair[1]))
        n += 1
        if n > 10_000_000:
            raise AssertionError("runaway coset walk")
    return n


def weak_relation_by_sweep(p, ctxs, R, entry_bound):
    """(kind, k, f, transposed_k, transposed_f) of find_weak_relation, by
    trying every candidate of the box in the documented (k, a, b, c, d)
    order: apply each descending matrix to the cosets P = (r, 0) and
    Q = (r, r) and compare with k*Q (k*P when transposed) at every context.
    """
    cosets = []
    for ctx in ctxs:
        r = reduce_coordinates(R, ctx.curve.q)
        cosets.append((ctx, QuotientPoint(r, None), QuotientPoint(r, r)))

    def holds(k, f, transposed):
        for ctx, P, Q in cosets:
            src, dst = (Q, P) if transposed else (P, Q)
            if not quotient_equal(ctx, apply(f, src, ctx), quotient_scalar_mul(ctx, k, dst)):
                return False
        return True

    values = [0] + [v for n in range(1, entry_bound + 1) for v in (n, -n)]
    hit = hit_t = None
    for k in range(1, entry_bound + 1):
        for a, b, c, d in product(values, repeat=4):
            if b % p or c % p or (a - d) % p:
                continue
            f = EndoMatrix(a, b, c, d)
            if hit is None and holds(k, f, False):
                hit = (k, f)
            if hit_t is None and holds(k, f, True):
                hit_t = (k, f)
        if hit and hit_t:
            break
    kind = KIND_WEAK_FOUND if hit else KIND_WEAK_NOT_FOUND
    return (kind, *(hit or (None, None)), *(hit_t or (None, None)))


def first_relation_by_walk(p, bound, L, transposed):
    """(k, f) of endo._first_relation by walking the whole box in the
    documented order: k = 1 .. bound, then a, b, c, d over 0, 1, -1, 2, ...
    A candidate counts when L divides both differences, (a-k, c-k) or
    (a+b-k, c+d) when transposed, and f meets the descent congruences."""
    values = [0] + [v for n in range(1, bound + 1) for v in (n, -n)]
    for k in range(1, bound + 1):
        for a, b, c, d in product(values, repeat=4):
            j1, j2 = (a + b - k, c + d) if transposed else (a - k, c - k)
            if j1 % L == 0 and j2 % L == 0 and b % p == 0 and c % p == 0 and (a - d) % p == 0:
                return k, EndoMatrix(a, b, c, d)
    return None, None


def class_number(D):
    """Form class number of a negative discriminant, by counting reduced
    primitive positive-definite binary quadratic forms."""
    assert D < 0 and D % 4 in (0, 1)
    h = 0
    a = 1
    while a * a <= -D // 3 + 1:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a) == 0:
                c = (b * b - D) // (4 * a)
                if c >= a and gcd(gcd(a, abs(b)), c) == 1:
                    if not (b < 0 and (abs(b) == a or a == c)):
                        h += 1
        a += 1
    return h


def integer_points_in_range(a, b, lo, hi):
    """Integer points on y^2 = x^3 + ax + b with lo <= x <= hi, y >= 0."""
    out = []
    for x in range(lo, hi + 1):
        v = x * x * x + a * x + b
        if v < 0:
            continue
        y = isqrt(v)
        if y * y == v:
            out.append((x, y))
    return out
