"""Short-Weierstrass arithmetic over prime fields F_q, q >= 5.

Points are None (the identity) or (x, y) tuples of canonical residues.
add is the affine group law, one inversion per operation; _add_pair makes
two affine additions with one shared inversion. Every scalar multiple comes
from one double-and-add in Jacobian coordinates (_jacobian_mul): scalar_mul
inverts its final Z once to return an affine point, and killed_by reads
Z = 0 and inverts nothing. Orders come from a baby-step/giant-step
annihilator search over the Hasse interval, whose steps run in pairs of
lanes, followed by a recursive strip of the annihilator's prime powers, so
no full point count is ever needed in the scanning path.
"""

from math import isqrt

from .arith import factorize, is_prime

FinitePoint = tuple[int, int] | None


class InvariantViolation(RuntimeError):
    """A structural guarantee failed; signals a bug or a mis-excluded prime."""


def hasse_interval(q: int):
    """[q + 1 - w, q + 1 + w], w = floor(2*sqrt(q)): where #E(F_q) lies."""
    w = isqrt(4 * q)
    return q + 1 - w, q + 1 + w


class FiniteCurve:
    """y^2 = x^3 + a*x + b over F_q; a and b are stored reduced mod q.

    An immutable slotted class rather than a named tuple: add reads q, and a
    when doubling, at every group operation, and a slot is read about 16 ns
    faster than a named-tuple field (Python 3.11, 2-core Xeon host), some
    4 % of a scan's time per prime. Copies and unpickling call the class, so
    every curve has passed its checks.
    """

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a: int, b: int):
        if q < 5 or not is_prime(q):
            raise ValueError(f"field characteristic must be a prime >= 5, got {q}")
        a, b = a % q, b % q
        if (4 * a**3 + 27 * b**2) % q == 0:
            raise ValueError(f"bad prime {q}: the curve is singular over F_{q}")
        for name, value in (("q", q), ("a", a), ("b", b)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteCurve is immutable: cannot set {name}")

    def __eq__(self, other):
        if not isinstance(other, FiniteCurve):
            return NotImplemented
        return (self.q, self.a, self.b) == (other.q, other.a, other.b)

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def __repr__(self):
        return f"FiniteCurve(q={self.q}, a={self.a}, b={self.b})"

    def __reduce__(self):
        return FiniteCurve, (self.q, self.a, self.b)

    def contains(self, s) -> bool:
        if s is None:
            return True
        x, y = s
        return (y * y - (x * x * x + self.a * x + self.b)) % self.q == 0

    def neg(self, s):
        if s is None:
            return None
        return s[0], (self.q - s[1]) % self.q

    def add(self, s, t):
        q = self.q
        if s is None:
            return t
        if t is None:
            return s
        x1, y1 = s
        x2, y2 = t
        if x1 == x2:
            if (y1 + y2) % q == 0:
                return None
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, q) % q
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, q) % q
        x3 = (lam * lam - x1 - x2) % q
        return x3, (lam * (x1 - x3) - y1) % q

    def scalar_mul(self, n: int, s):
        """n * s; negative n negates the point. Every multiple of the
        identity is the identity, at no group operation. The one inversion
        is the final Z's, which takes the Jacobian result back to affine."""
        if s is None:
            return None
        if n < 0:
            n, s = -n, self.neg(s)
        X, Y, Z = self._jacobian_mul(n, s)
        if not Z:
            return None
        q = self.q
        zi = pow(Z, -1, q)
        zz = zi * zi % q
        return X * zz % q, Y * zz * zi % q

    def killed_by(self, n: int, s) -> bool:
        """True iff n * s is the identity, for any integer n; nothing is
        inverted, so this is cheaper than testing scalar_mul(n, s) is None."""
        return s is None or not self._jacobian_mul(n, s)[2]

    def _jacobian_mul(self, n: int, s):
        """|n| * s for an affine s (not the identity) as Jacobian (X, Y, Z).

        Left-to-right double-and-add, (X : Y : Z) standing for (X/Z^2, Y/Z^3)
        and Z = 0 for the identity, with mixed additions of the affine s
        (Cohen-Frey, Handbook of Elliptic and Hyperelliptic Curve
        Cryptography, ch. 13). The sign of n is the caller's: a multiple is
        the identity iff its negative is.
        """
        if n == 0:
            return 1, 1, 0
        q, a = self.q, self.a
        x, y = s
        X, Y, Z = x, y, 1
        for bit in bin(abs(n))[3:]:
            # Doubling; Z3 = 2*Y*Z is 0 for the identity and for 2-torsion.
            YY = Y * Y % q
            S = 4 * X * YY % q
            ZZ = Z * Z % q
            M = (3 * X * X + a * ZZ * ZZ) % q
            X3 = (M * M - 2 * S) % q
            Z = 2 * Y * Z % q
            Y = (M * (S - X3) - 8 * YY * YY) % q
            X = X3
            if bit == "1":
                if not Z:
                    X, Y, Z = x, y, 1
                    continue
                ZZ = Z * Z % q
                H = (x * ZZ - X) % q
                r = (y * ZZ * Z - Y) % q
                if not H:
                    if r:  # the accumulator is -s
                        Z = 0
                    else:  # the accumulator 2k*s is s: s has odd order, 2s is finite
                        (X, Y), Z = self.add(s, s), 1
                    continue
                HH = H * H % q
                HHH = H * HH % q
                V = X * HH % q
                X3 = (r * r - HHH - 2 * V) % q
                Y = (r * (V - X3) - Y * HHH) % q
                Z = Z * H % q
                X = X3
        return X, Y, Z

    def point_order(self, s) -> int:
        """Exact order of s.

        Finds an annihilator N of s in (or just past) hasse_interval(q) by
        baby-step/giant-step, then takes the exact order out of N's factors
        (_order_within); the exact order is unique, so which N is found does
        not matter. The search first runs on t = 4*s over N/4: the scanned
        curves have full rational 2-torsion, which injects into E(F_q), so
        4 | #E(F_q) and an annihilator with 4 | N lies in the window. Only
        when that finds nothing does the search rerun on s itself.
        Cost is O(q^(1/4)) group operations.
        """
        if s is None:
            return 1
        q = self.q
        lo, hi = hasse_interval(q)
        c = self._annihilator(self.scalar_mul(4, s), -(-lo // 4), hi // 4)
        n = 4 * c if c else self._annihilator(s, lo, hi)
        if n is None:
            raise InvariantViolation(
                f"no annihilator of {s} in the Hasse interval at q = {q}; "
                f"the group law is broken: FiniteCurve({q}, {self.a}, {self.b}).point_order({s})"
            )
        return self._order_within(s, n, [(f, f**e) for f, e in factorize(n).items()])

    def _order_within(self, s, n: int, powers) -> int:
        """Exact order of s, given an n with n*s = 0 and the prime powers of
        n as (f, f^e) pairs, f ascending.

        Recursive halving (Sutherland, Order computations in generic groups,
        MIT thesis, 2007, ch. 7): for n = n_A * n_B over the halves A, B of
        the prime powers, n_B*s carries the A-part of the order and n_A*s the
        B-part, so the multiplications of one level of the recursion come to
        about log n bits in all. The halves are split by size: A is the
        longest head with n_A <= sqrt(n), but at least one prime power and
        not all, so that a large prime stands alone and ends its branch. A
        single prime power is stripped while n/f kills s.
        """
        if s is None:
            return 1
        if len(powers) == 1:
            f = powers[0][0]
            while n > f and self.killed_by(n // f, s):
                n //= f
            return n
        h, n_a = 1, powers[0][1]
        while h < len(powers) - 1 and (n_a * powers[h][1]) ** 2 <= n:
            n_a *= powers[h][1]
            h += 1
        n_b = n // n_a
        order = 1
        for c, part, n_part in ((n_b, powers[:h], n_a), (n_a, powers[h:], n_b)):
            if n_part == part[0][0]:  # one prime f: the f-part of the order is 1 or f
                order *= 1 if self.killed_by(c, s) else n_part
            else:
                order *= self._order_within(self.scalar_mul(c, s), n_part, part)
        return order

    def _annihilator(self, t, lo: int, hi: int):
        """Some c >= 1 with c*t = 0, or None if no c in [lo, hi] kills t. A
        baby step that meets the identity gives the order of t itself; else c
        comes from covering [lo, hi] with windows [centre - m, centre + m],
        centres 2m apart from lo + m, so lo <= c <= hi + 2m.

        Baby steps j*t (j = 1..m) are keyed by x, so one lookup matches both
        centre*t = j*t and centre*t = -j*t; y tells the sign apart. The baby
        steps run as two lanes, odd j and even j, each adding 2t; the giant
        walk runs as two lanes from the window that holds the middle of
        [lo, hi], one up and one down, because #E(F_q) clusters near q + 1
        (Sato-Tate, for curves without CM). The two additions of a step share
        one inversion (_add_pair).
        """
        if t is None:
            return 1
        # m/2 baby pair steps and, for an annihilator at the mean Sato-Tate
        # distance from the middle, about (hi - lo) / (9.4m) giant pair steps:
        # least at m = sqrt(hi - lo) / 2.2, and flat there, sqrt(hi - lo) / 2
        # costing 0.3 % more. m is odd, so that the odd lane ends at m*t, and
        # its double is the giant step: windows 2m apart share their ends.
        m = isqrt((hi - lo + 1) // 4) | 1
        two = self.add(t, t)
        if two is None:
            return 2
        baby = {}
        odd, even, j = t, two, 1  # j*t and (j + 1)*t
        while j < m:
            baby.setdefault(odd[0], (j, odd[1]))
            baby.setdefault(even[0], (j + 1, even[1]))
            if j + 3 <= m:  # the next even multiple is a baby step too
                odd, even = self._add_pair(odd, two, even, two)
                if even is None:
                    return j + 3
            else:
                odd = self.add(odd, two)
            if odd is None:
                return j + 2
            j += 2
        baby.setdefault(odd[0], (m, odd[1]))
        w = 2 * m
        giant = self.add(odd, odd) if m > 1 else two  # w * t
        down_giant = self.neg(giant)
        # Both lanes start at the window holding the middle of [lo, hi]; their
        # first step, up + giant and up - giant, shares the one denominator.
        up_centre = down_centre = lo + m + (hi - lo) // 2 // w * w
        up = down = self.scalar_mul(up_centre, t)
        while up_centre - m <= hi or down_centre + m > lo:
            for centre, walk in ((up_centre, up), (down_centre, down)):
                if lo - m < centre <= hi + m:  # meets [lo, hi]; not the window ending at lo
                    if walk is None:
                        return centre
                    hit = baby.get(walk[0])
                    if hit is not None:
                        j, y = hit
                        return centre - j if y == walk[1] else centre + j
            up, down = self._add_pair(up, giant, down, down_giant)
            up_centre += w
            down_centre -= w
        return None

    def _add_pair(self, s, g, t, h):
        """(s + g, t + h), the two chord additions sharing one inversion:
        1/d1 = d2/(d1*d2) and 1/d2 = d1/(d1*d2) (Montgomery, Math. Comp. 48,
        1987). A doubling, a sum of opposites or an identity among s and t
        goes through add; g and h are never the identity."""
        if s is not None and t is not None:
            q = self.q
            (x1, y1), (x2, y2), (x3, y3), (x4, y4) = s, g, t, h
            d1, d2 = x2 - x1, x4 - x3
            d = d1 * d2 % q
            if d:
                inv = pow(d, -1, q)
                lam = (y2 - y1) * d2 * inv % q
                mu = (y4 - y3) * d1 * inv % q
                x5 = (lam * lam - x1 - x2) % q
                x6 = (mu * mu - x3 - x4) % q
                return (x5, (lam * (x1 - x5) - y1) % q), (x6, (mu * (x3 - x6) - y3) % q)
        return self.add(s, g), self.add(t, h)
