"""Short-Weierstrass arithmetic over prime fields F_q, q >= 5.

Points are None (the identity) or (x, y) tuples of canonical residues.
add is the affine group law, one inversion per operation; _add_pair makes
two affine additions with one shared inversion. Scalar multiples come from
one double-and-add in Jacobian coordinates (_jacobian_mul): scalar_mul
inverts its final Z once to return an affine point, while index_of_multiple
compares the multiple with affine points projectively, inverting nothing.
At large q a point's multiples can instead come from one table of its
doublings (table_of, a chain of add): _comb sums the entries at the signed
digits of the scalar's non-adjacent form, by additions alone. _multiple
alone picks the table or the double-and-add for every multiple inside
index_of_multiple and point_order. The table keeps each sum it has made,
so a multiple asked for twice, say by both quotient-order sweeps of one
prime, is summed once, and an even multiple whose half is kept is that
half doubled (_double), not a sum. Orders come from a baby-step/giant-step
annihilator search over the Hasse interval, whose steps run in pairs of
lanes, then one climb per prime power of the annihilator to its part of
the order: no point count is ever needed.
"""

from math import isqrt

from .arith import factorize, is_prime, jacobi, sqrt_mod

FinitePoint = tuple[int, int] | None

# point_order reads its search window off the rational 2-torsion only above
# this q. The 2-descent costs about a dozen modular exponentiations, and the
# narrower search saves more than that only past here: with the window,
# point_order took 1.04-1.06x its time without at q near 10^7, 0.97-0.99x
# near 2*10^7, 0.90x near 5*10^7 and 0.78x near 10^10 (Python 3.11, 2-core
# x86-64 host, 600 primes each).
_WINDOW_MIN_Q = 2 * 10**7

# FiniteCurve.table_of builds a point's table of doublings, which serves
# point_order and both quotient-order sweeps, only from this bit length of
# the Hasse bound on: ord_R is not known when the table is built, and every
# multiple of r that it serves is at most about that bound. It stays at 15
# bits, so that every q <= 10^4 keeps the double-and-add, because a faster
# scan makes more benchmark passes and so reads a higher peak_rss_mib:
# lowering it waits for that memory fix (ROADMAP item 1(a)).
_COMB_MIN_BITS = 15


class InvariantViolation(RuntimeError):
    """A structural guarantee failed; signals a bug or a mis-excluded prime."""


def hasse_interval(q: int):
    """[q + 1 - w, q + 1 + w], w = floor(2*sqrt(q)): where #E(F_q) lies."""
    w = isqrt(4 * q)
    return q + 1 - w, q + 1 + w


class _Doublings(tuple):
    """A table of a point's doublings (FiniteCurve.doublings) with sums, a
    dict of the Jacobian multiples _multiple has made from it, keyed by
    the nonnegative scalar. Each table has its own dict, which lives and
    dies with it."""

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        self.sums = {}
        return self


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
        return self._affine(*self._jacobian_mul(n, s))

    def _affine(self, X: int, Y: int, Z: int):
        """The affine point of Jacobian (X : Y : Z), one inversion."""
        if not Z:
            return None
        q = self.q
        zi = pow(Z, -1, q)
        zz = zi * zi % q
        return X * zz % q, Y * zz * zi % q

    def index_of_multiple(self, n: int, s, points, table=None):
        """The index of the first of points, affine or None, that equals
        n * s, or None when none does; for any integer n, and s's table or
        None (_multiple). With points = (None,), 0 says n kills s.

        Nothing is inverted: the Jacobian (X : Y : Z) = n * s is the identity
        iff Z = 0, and equals an affine (x, y) iff X = x*Z^2 and Y = y*Z^3.
        """
        X, Y, Z = (1, 1, 0) if s is None else self._multiple(abs(n), s, table)
        if not Z:
            return points.index(None) if None in points else None
        q = self.q
        if n < 0:
            Y = -Y
        ZZ = Z * Z % q
        for i, t in enumerate(points):
            if t is not None and (t[0] * ZZ - X) % q == 0 and (t[1] * ZZ * Z - Y) % q == 0:
                return i
        return None

    def _jacobian_mul(self, n: int, s):
        """n * s for n >= 0 and an affine s (not the identity) as Jacobian
        (X, Y, Z): the double-and-add behind scalar_mul and _multiple.

        Left-to-right double-and-add, (X : Y : Z) standing for (X/Z^2, Y/Z^3)
        and Z = 0 for the identity, with mixed additions of the affine s
        (Cohen-Frey, Handbook of Elliptic and Hyperelliptic Curve
        Cryptography, ch. 13).
        """
        if n == 0:
            return 1, 1, 0
        q, a = self.q, self.a
        x, y = s
        X, Y, Z = x, y, 1
        for bit in bin(n)[3:]:
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

    def table_of(self, s):
        """doublings(s, L), L one past the Hasse bound's bit length, which
        fits every multiple of s asked for at this q; None (the
        double-and-add) while that bound has fewer than _COMB_MIN_BITS bits."""
        bits = hasse_interval(self.q)[1].bit_length()
        return self.doublings(s, bits + 1) if bits >= _COMB_MIN_BITS else None

    def doublings(self, s, length: int) -> tuple:
        """The affine table (s, 2s, 4s, ..., 2^(length-1) * s) for a
        length >= 1, the identity as None: a tuple that also keeps, in its
        attribute sums, every multiple of s that _multiple makes from it.

        A chain of length - 1 doublings by add, one inversion each: near
        q = 10^10 it took 0.83x the time of Jacobian doublings sharing one
        inversion (README). After a doubling meets the identity (s of
        2-power order), every entry is the identity.
        """
        table = [s]
        for _ in range(length - 1):
            table.append(self.add(table[-1], table[-1]))
        return _Doublings(table)

    def _double(self, X: int, Y: int, Z: int):
        """2 * (X : Y : Z) in Jacobian coordinates for _multiple's kept
        halves; Z3 = 2*Y*Z is 0 for the identity and for 2-torsion."""
        q = self.q
        YY = Y * Y % q
        S = 4 * X * YY % q
        ZZ = Z * Z % q
        M = (3 * X * X + self.a * ZZ * ZZ) % q
        X3 = (M * M - 2 * S) % q
        return X3, (M * (S - X3) - 8 * YY * YY) % q, 2 * Y * Z % q

    def _multiple(self, n: int, s, table):
        """n * s as Jacobian (X, Y, Z) for n >= 0, s affine and not the
        identity, and s's table doublings(s, L) or None: every multiple of s
        is made here. Without a table, the double-and-add (_jacobian_mul).
        With one, a doubling (_double) of (n/2) * s when n is even and that
        half is kept, else a sum of table entries (_comb) when n's
        non-adjacent form fits, n < 2^(L - 1), else (or when a sum would
        double) the double-and-add.

        Each result is kept in table.sums under n and read back when n comes
        again: point_order and both quotient-order sweeps of a prime share
        one table, and the sweep for Q asks for the multiples the sweep for
        P has just made. The sweep for P (divisors of ord_R ascending) asks
        for n/2 before n, so it sums only odd scalars. A half that is the
        identity or of order 2 doubles to Z = 0, the identity, with no
        branch of its own.
        """
        if table is None:
            return self._jacobian_mul(n, s)
        total = table.sums.get(n)
        if total is None:
            half = None if n & 1 else table.sums.get(n >> 1)
            if half is not None:
                total = self._double(*half)
            elif n.bit_length() < len(table):
                total = self._comb(n, table)
            if total is None:
                total = self._jacobian_mul(n, s)
            table.sums[n] = total
        return total

    def _comb(self, n: int, table):
        """n * s as Jacobian (X, Y, Z) for 0 <= n < 2^(len(table) - 1),
        table = doublings(s, len(table)), by mixed additions (_jacobian_mul's)
        and no doubling, a fixed-base comb of one row (Lim-Lee, CRYPTO '94).
        None when a sum would double, the running sum meeting the entry it
        adds.

        The sum runs over the nonzero digits d_j = +-1 of n's non-adjacent
        form (Morain-Olivos, RAIRO 24, 1990), about a third of its bits
        where plain binary sets half; -table[j] is (x, q - y). With h = 3n,
        the digit +1 sits at the bits where h has a 1 and n a 0, the digit
        -1 where n has a 1 and h a 0, both one place lower, so the recoding
        takes no loop.
        """
        q = self.q
        h = 3 * n
        pos, neg = (h & ~n) >> 1, (n & ~h) >> 1
        digits = pos | neg
        X, Y, Z = 1, 1, 0
        while digits:
            low = digits & -digits
            digits ^= low
            t = table[low.bit_length() - 1]
            if t is None:  # 2^j * s is the identity, and so is every later entry
                break
            x, y = t
            if neg & low:
                y = q - y
            if not Z:
                X, Y, Z = x, y, 1
                continue
            ZZ = Z * Z % q
            H = (x * ZZ - X) % q
            r = (y * ZZ * Z - Y) % q
            if not H:
                if r:  # the running sum is -table[j]
                    Z = 0
                    continue
                return None
            HH = H * H % q
            HHH = H * HH % q
            V = X * HH % q
            X3 = (r * r - HHH - 2 * V) % q
            Y = (r * (V - X3) - Y * HHH) % q
            Z = Z * H % q
            X = X3
        return X, Y, Z

    def point_order(self, s, two_torsion=None, table=None) -> int:
        """Exact order of s.

        Finds an annihilator N of s in (or just past) hasse_interval(q) by
        baby-step/giant-step, then takes the exact order out of N's prime
        powers; the exact order is unique, so neither the N found nor the
        window searched changes the result.

        The window: the scanned curves have full rational 2-torsion, which
        injects into E(F_q), so 4 | #E(F_q) and the search runs on t = 4*s
        over N/4. Above q = _WINDOW_MIN_Q, the measured crossover, the
        x-coordinates two_torsion = (e1, e2) of two points of order 2 narrow
        it further: 2-descent gives a v with 2^v | #E(F_q) (_two_part). When
        2^v is exactly the 2-part, #E = 2^v * c with c odd, and the search
        runs on t = 2^v * s over odd c only; when v is a lower bound, over
        every c. At or below the crossover, or without two_torsion, that
        search is skipped. Two fallbacks follow a search that finds nothing:
        the search on 4*s, then the search on s itself over the whole
        interval. Cost is O(q^(1/4)) group operations.

        For each prime power f^e of N, u = (N / f^e) * s carries the f-part
        of the order: 1 if u is the identity, else the least f^j < f^e that
        kills u, climbed from j = 1, or f^e. f^e, known to kill u, is never
        tested, so even a broken group law ends the climb.

        Each search's point k*s, its walk's first point and each (N / f^e)*s
        are made by _multiple with table, s's table_of or None; the climb
        multiplies the affine u (formed only when e >= 2) by the
        double-and-add. The result does not depend on the table.
        """
        if s is None:
            return 1
        q = self.q
        lo, hi = hasse_interval(q)
        n = None
        if two_torsion is not None and q > _WINDOW_MIN_Q:
            v, exact = self._two_part(*two_torsion)
            k = 1 << v
            c = self._annihilator(s, k, -(-lo // k), hi // k, exact, table)
            n = k * c if c else None
        if n is None:
            c = self._annihilator(s, 4, -(-lo // 4), hi // 4, False, table)
            n = 4 * c if c else self._annihilator(s, 1, lo, hi, False, table)
        if n is None:
            args = f"{s}" if two_torsion is None else f"{s}, two_torsion={tuple(two_torsion)}"
            raise InvariantViolation(
                f"no annihilator of {s} in the Hasse interval at q = {q}; the group law "
                f"is broken: FiniteCurve({q}, {self.a}, {self.b}).point_order({args})"
            )
        order = 1
        for f, e in factorize(n).items():
            fe = f**e
            X, Y, Z = self._multiple(n // fe, s, table)
            if not Z:  # (n / f^e) * s = 0: the f-part is 1
                continue
            k = f
            if e >= 2:
                u = self._affine(X, Y, Z)
                while k < fe and self._jacobian_mul(k, u)[2]:
                    k *= f
            order *= k
        return order

    def _two_part(self, e1: int, e2: int):
        """(v, exact) with 2^v | #E(F_q), exact when 2^v is the 2-part, for
        the roots e1, e2 and e3 = -e1 - e2 of x^3 + a*x + b.

        E(F_q)[2^inf] is Z/2^alpha x Z/2^beta with 1 <= alpha <= beta, and by
        2-descent a point (x, y) lies in 2E(F_q) iff every x - e_i is a
        square (Knapp, Elliptic Curves, Thm 4.2); for T_i = (e_i, 0) that
        reads e_i - e_j square for both j != i: three Jacobi symbols and the
        character of -1. No T_i halves iff beta = 1: v = 2. All three halve
        iff alpha >= 2: v >= 4, a lower bound. Otherwise alpha = 1, and the
        one T_i that halves spans 2^(beta-1) * Z/2^beta. Its branch is walked
        up by halving, one level a step, until no half of the point reached
        halves again: v = 1 + beta. The halves of a point differ by
        2-torsion, so some half halves iff the half Q found or Q + T_j does,
        for a T_j that does not halve. Raises ValueError unless e1 and e2
        are two distinct roots.
        """
        q, a, b = self.q, self.a, self.b
        roots = e1, e2, e3 = e1 % q, e2 % q, -(e1 + e2) % q
        if e1 == e2 or (e1**3 + a * e1 + b) % q or (e2**3 + a * e2 + b) % q:
            raise ValueError(f"{e1} and {e2} are not two roots of x^3 + {a}x + {b} mod {q}")
        c12, c13, c23 = (jacobi(d, q) for d in (e1 - e2, e1 - e3, e2 - e3))
        eps = 1 if q % 4 == 1 else -1  # the character of -1: e_j - e_i = -(e_i - e_j)
        halves = (c12 == c13 == 1, eps * c12 == c23 == 1, eps * c13 == eps * c23 == 1)
        if not any(halves):
            return 2, True
        if all(halves):
            return 4, False
        i = halves.index(True)
        ei, ej, ek = roots[i], roots[(i + 1) % 3], roots[(i + 2) % 3]  # T_j does not halve
        v, point = 3, self._halve((ei, 0), ei, ej, ek)
        while True:
            half = self._halve(point, ei, ej, ek)
            if half is None:
                point = self.add(point, (ej, 0))
                half = self._halve(point, ei, ej, ek)
                if half is None:
                    return v, True
            v, point = v + 1, half

    def _halve(self, point, ei: int, ej: int, ek: int):
        """A Q with 2Q = point or 2Q = -point, or None when point is not in
        2E(F_q); point is T_i = (e_i, 0) or not 2-torsion.

        For square roots r of x - e with r_i*r_j*r_k = y (Knapp, Elliptic
        Curves, proof of Thm 4.2), x(Q) = x + r_i*r_j + r_i*r_k + r_j*r_k.
        Then x(Q) - e_i = (r_i + r_j)(r_i + r_k), and likewise for j and k,
        so y(Q) = (r_i + r_j)(r_i + r_k)(r_j + r_k) up to its sign. r_i is
        y/(r_j*r_k): two square roots a halving, and carrying y saves the
        third.
        """
        q = self.q
        x, y = point
        rj = sqrt_mod(x - ej, q)
        if rj is None:
            return None
        rk = sqrt_mod(x - ek, q)
        if rk is None:
            return None
        ri = y * pow(rj * rk, -1, q) % q
        return (x + ri * rj + ri * rk + rj * rk) % q, (ri + rj) * (ri + rk) * (rj + rk) % q

    def _annihilator(self, s, k: int, lo: int, hi: int, odd_only: bool, table):
        """Some c >= 1 with c*t = 0 for t = k*s, or None if no c in [lo, hi]
        kills t (no odd c, with odd_only). t and the walk's first point are
        multiples of s made by _multiple, from s's table or None.

        The walk runs over i in steps of u: c = i and u = t, or, with
        odd_only, c = 2i + 1 and u = 2t, with i in [lo // 2, (hi - 1) // 2].
        Write [lo', hi'] for the range of i. A match is i*u + offset*t = 0,
        offset = 1 with odd_only and 0 without, so a c found is an
        annihilator by construction. A baby step j*u that meets the identity
        gives c = j, or 2j with odd_only. Else i comes from covering
        [lo', hi'] with windows [centre - m, centre + m], centres 2m apart
        from lo' + m, so lo' <= i <= hi' + 2m.

        Baby steps j*u (j = 1..m) are keyed by x, so one lookup matches both
        centre*u + offset*t = j*u and = -j*u; y tells the sign apart. The
        baby steps run as two lanes, odd j and even j, each adding 2u; the
        giant walk runs as two lanes from the window that holds the middle
        of [lo', hi'], one up and one down, because #E(F_q) clusters near
        q + 1 (Sato-Tate, for curves without CM). The two additions of a
        step share one inversion (_add_pair).
        """
        t = self._affine(*self._multiple(k, s, table))
        if t is None:
            return 1
        if odd_only:  # c = step*i + offset for the walk's i
            step, offset, u, lo, hi = 2, 1, self.add(t, t), lo // 2, (hi - 1) // 2
        else:
            step, offset, u = 1, 0, t
        if u is None:
            return 2
        # m/2 baby pair steps and, for an annihilator at the mean Sato-Tate
        # distance from the middle, about (hi - lo) / (9.4m) giant pair steps:
        # least at m = sqrt(hi - lo) / 2.2, and flat there, sqrt(hi - lo) / 2
        # costing 0.3 % more. m is odd, so that the odd lane ends at m*u, and
        # its double is the giant step: windows 2m apart share their ends.
        m = isqrt((hi - lo + 1) // 4) | 1
        two = self.add(u, u)
        if two is None:
            return 2 * step
        baby = {}
        odd, even, j = u, two, 1  # j*u and (j + 1)*u
        while j < m:
            baby.setdefault(odd[0], (j, odd[1]))
            baby.setdefault(even[0], (j + 1, even[1]))
            if j + 3 <= m:  # the next even multiple is a baby step too
                odd, even = self._add_pair(odd, two, even, two)
                if even is None:
                    return (j + 3) * step
            else:
                odd = self.add(odd, two)
            if odd is None:
                return (j + 2) * step
            j += 2
        baby.setdefault(odd[0], (m, odd[1]))
        w = 2 * m
        giant = self.add(odd, odd) if m > 1 else two  # w * u
        down_giant = self.neg(giant)
        # Both lanes start at the window holding the middle of [lo, hi]; their
        # first step, up + giant and up - giant, shares the one denominator.
        up_centre = down_centre = lo + m + (hi - lo) // 2 // w * w
        start = step * up_centre + offset
        up = down = self._affine(*self._multiple(k * start, s, table))
        while up_centre - m <= hi or down_centre + m > lo:
            for centre, walk in ((up_centre, up), (down_centre, down)):
                if lo - m < centre <= hi + m:  # meets [lo, hi]; not the window ending at lo
                    if walk is None:
                        return step * centre + offset
                    hit = baby.get(walk[0])
                    if hit is not None:
                        j, y = hit
                        return step * (centre - j if y == walk[1] else centre + j) + offset
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
