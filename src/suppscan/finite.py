"""Short-Weierstrass arithmetic over prime fields F_q, q >= 5.

Points are None (the identity) or (x, y) tuples of canonical residues. add
is the affine group law, one inversion per operation; the annihilator search
writes its additions inline and calls add only at a doubling, a sum of
opposites or the identity. Scalar multiples come from one double-and-add in
Jacobian coordinates (_jacobian_mul): scalar_mul inverts its final Z once to
return an affine point, while index_of_multiple compares the multiple with
affine points projectively, inverting nothing. At large q a point's
multiples can instead come from one table of its doublings (table_of, a
chain of inline tangents): _comb sums the entries at the signed digits of
the scalar's non-adjacent form, by additions alone. _multiple alone picks
the table or the double-and-add for every multiple inside index_of_multiple
and point_order. The table keeps each sum it has made, so a multiple asked
for twice, say by both quotient-order sweeps of one prime, each of which
tries only ord_R / p and ord_R where a table exists, is summed once, and an
even multiple whose half is kept is that half doubled by _jacobian_mul, not
a sum. Orders come from one baby-step/giant-step annihilator search over the
Hasse interval, whose steps run in pairs of lanes, then one climb per prime
power of the annihilator to its part of the order: no point count is needed.
"""

from math import isqrt
from typing import NamedTuple

from .arith import factorize, is_prime, jacobi, sqrt_mod

FinitePoint = tuple[int, int] | None

# point_order reads its search window off the rational 2-torsion only above
# this q. The 2-descent costs about a dozen modular exponentiations, and the
# narrower search saves more than that only past here (CHANGES.md has the
# measurements).
_WINDOW_MIN_Q = 2 * 10**7

# FiniteCurve.table_of builds a point's table of doublings, which serves
# point_order and both quotient-order sweeps, only from this bit length of
# the Hasse bound on: ord_R is not known when the table is built, and every
# multiple of r that it serves is at most about that bound. Where there is
# a table, quotient.evaluate_prime's sweeps also try only ord_R / p and
# ord_R, not every divisor of ord_R. It stays at 15 bits, so that every
# q <= 10^4 keeps the double-and-add and every divisor, because a faster
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


class CheckedTuple:
    """Base of a named tuple whose __new__ checks its fields, listed before
    the fields class: _make (and so _replace), copies and unpickling at every
    pickle protocol call the class. Without __reduce__, protocols 0 and 1
    would rebuild the tuple by tuple.__new__, past the checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class _FiniteCurveFields(NamedTuple):
    q: int
    a: int
    b: int


class FiniteCurve(CheckedTuple, _FiniteCurveFields):
    """y^2 = x^3 + a*x + b over F_q; a and b are stored reduced mod q. Every
    construction path runs __new__ (CheckedTuple): q is a prime >= 5 and
    the curve is not singular."""

    __slots__ = ()

    def __new__(cls, q: int, a: int, b: int):
        if q < 5 or not is_prime(q):
            raise ValueError(f"field characteristic must be a prime >= 5, got {q}")
        a, b = a % q, b % q
        if (4 * a**3 + 27 * b**2) % q == 0:
            raise ValueError(f"bad prime {q}: the curve is singular over F_{q}")
        return super().__new__(cls, q, a, b)

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

        A chain of affine tangent doublings written inline, one inversion
        each, which in Python mostly costs less than Jacobian doublings
        sharing one inversion (README). Once an entry has y = 0 or is the
        identity, every later entry is the identity.
        """
        table, q, a = [s], self.q, self.a
        x, y = s or (0, 0)  # the identity, like a point with y = 0, doubles to the identity
        while y and len(table) < length:  # the tangent at (x, y)
            lam = (3 * x * x + a) * pow(2 * y, -1, q) % q
            x, y = (lam * lam - 2 * x) % q, (lam * (3 * x - lam * lam) - y) % q
            table.append((x, y))
        return _Doublings(table + [None] * (length - len(table)))

    def _multiple(self, n: int, s, table):
        """n * s as Jacobian (X, Y, Z) for n >= 0, s affine and not the
        identity, and s's table doublings(s, L) or None: every multiple of s
        is made here. Without a table, the double-and-add (_jacobian_mul).
        With one, one of three: when n is even and (n/2) * s is kept, that
        half doubled, _jacobian_mul(2, ·) on its affine point; else when
        n's non-adjacent form fits, n < 2^(L - 1), a sum of table entries
        (_comb); else the double-and-add.

        Each result is kept in table.sums under n and read back when n comes
        again: point_order and both quotient-order sweeps of a prime share
        one table, and the sweep for Q asks for the multiples the sweep for
        P has just made. The sweep for P asks for ord_R / 2 before ord_R at
        p = 2, so ord_R is one doubling of its kept half. A half that is the
        identity (Z = 0) is its own double; one of order 2 doubles to Z = 0.
        """
        if table is None:
            return self._jacobian_mul(n, s)
        total = table.sums.get(n)
        if total is None:
            half = None if n & 1 else table.sums.get(n >> 1)
            if half is not None:
                total = self._jacobian_mul(2, self._affine(*half)) if half[2] else half
            elif n.bit_length() < len(table):
                total = self._comb(n, table)
            else:
                total = self._jacobian_mul(n, s)
            table.sums[n] = total
        return total

    def _comb(self, n: int, table):
        """n * s as Jacobian (X, Y, Z) for 0 <= n < 2^(len(table) - 1),
        table = doublings(s, len(table)), by mixed additions (_jacobian_mul's)
        and no Jacobian doubling, a fixed-base comb of one row (Lim-Lee,
        CRYPTO '94). A running sum that meets the entry it adds doubles in
        place, by add, as in _jacobian_mul; one that meets its negative is
        the identity and goes on.

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
                else:  # the running sum is the entry: it doubles, to the identity at order 2
                    t = self.add((x, y), (x, y))
                    X, Y, Z = (*t, 1) if t else (1, 1, 0)
                continue
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

        One search runs, on t = k*s over the c with k*c in the interval. k
        divides #E(F_q), so c = #E(F_q) / k is among them, and the search
        always finds an annihilator. Without two_torsion, k = 1. The
        x-coordinates two_torsion = (e1, e2) of two points of order 2 say
        that the rational 2-torsion is full; it injects into E(F_q), so
        4 | #E(F_q): k = 4. Above q = _WINDOW_MIN_Q, the measured crossover,
        2-descent narrows the search further: it gives a v with
        2^v | #E(F_q) (_two_part), and k = 2^v. When 2^v is exactly the
        2-part, #E = 2^v * c with c odd, and the search runs over odd c
        only; when v is a lower bound, over every c. Cost is O(q^(1/4))
        group operations. Raises ValueError, at every q, unless e1 and e2
        are two distinct roots of x^3 + a*x + b.

        For each prime power f^e of N, u = (N / f^e) * s carries the f-part
        of the order: 1 if u is the identity, else the least f^j < f^e that
        kills u, climbed from j = 1, or f^e. f^e, known to kill u, is never
        tested, so even a broken group law ends the climb.

        Each search's point k*s, its walk's first point and each (N / f^e)*s
        are made by _multiple with table, s's table_of or None; the climb
        multiplies the affine u (formed only when e >= 2) by the
        double-and-add. The result does not depend on the table.
        """
        q, a, b = self.q, self.a, self.b
        if two_torsion is not None:
            e1, e2 = (e % q for e in two_torsion)
            if e1 == e2 or (e1**3 + a * e1 + b) % q or (e2**3 + a * e2 + b) % q:
                raise ValueError(f"{e1} and {e2} are not two roots of x^3 + {a}x + {b} mod {q}")
        if s is None:
            return 1
        lo, hi = hasse_interval(q)
        if two_torsion is None:
            k, odd_only = 1, False
        elif q > _WINDOW_MIN_Q:
            v, odd_only = self._two_part(*two_torsion)
            k = 1 << v
        else:
            k, odd_only = 4, False
        c = self._annihilator(s, k, -(-lo // k), hi // k, odd_only, table)
        if c is None:
            args = f"{s}" if two_torsion is None else f"{s}, two_torsion={tuple(two_torsion)}"
            raise InvariantViolation(
                f"no annihilator of {s} in the Hasse interval at q = {q}; the group law "
                f"is broken: FiniteCurve({q}, {a}, {b}).point_order({args})"
            )
        n = k * c
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
        for a T_j that does not halve. e1 and e2 must be two distinct roots
        (point_order checks them).
        """
        q = self.q
        roots = e1, e2, e3 = e1 % q, e2 % q, -(e1 + e2) % q
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
        q + 1 (Sato-Tate, for curves without CM). A step's two chord
        additions, in local integers, share the inversion of d1*d2
        (Montgomery, Math. Comp. 48, 1987); giant and -giant share x. A zero
        d1*d2 (a doubling, opposites) or a lane at the identity steps by add.
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
        q, (tx, ty) = self.q, two
        baby, ys = {}, [None] * (m + 1)  # x of j*u -> its first j; ys[j] = y of j*u
        ox, oy, ex, ey, j = *u, tx, ty, 1  # j*u and (j + 1)*u
        while j < m:
            baby.setdefault(ox, j)
            baby.setdefault(ex, j + 1)
            ys[j], ys[j + 1] = oy, ey
            d1, d2 = tx - ox, tx - ex
            d = d1 * d2 % q
            if d:  # both lanes step, sharing one inversion
                inv = pow(d, -1, q)
                lam, mu = (ty - oy) * d2 * inv % q, (ty - ey) * d1 * inv % q
                x = (lam * lam - ox - tx) % q
                ox, oy = x, (lam * (ox - x) - oy) % q
                x = (mu * mu - ex - tx) % q
                ex, ey = x, (mu * (ex - x) - ey) % q
            else:  # a doubling or a sum of opposites: add, the even lane not at the last step
                odd = self.add((ox, oy), two)
                even = self.add((ex, ey), two) if j + 3 <= m else two
                if even is None:
                    return (j + 3) * step
                if odd is None:
                    return (j + 2) * step
                (ox, oy), (ex, ey) = odd, even
            j += 2
        baby.setdefault(ox, m)
        ys[m] = oy
        w = 2 * m
        giant = self.add((ox, oy), (ox, oy)) if m > 1 else two  # w * u
        gx, gy = giant or (0, 0)  # never stepped by: with giant None the first probe decides
        # Both lanes start at the window holding the middle of [lo, hi]. A lane
        # at the identity is (gx, None): its zero denominator sends it to add.
        up_centre = down_centre = lo + m + (hi - lo) // 2 // w * w
        start = self._multiple(k * (step * up_centre + offset), s, table)
        ux, uy = vx, vy = self._affine(*start) or (gx, None)
        while up_centre - m <= hi or down_centre + m > lo:
            if lo - m < up_centre <= hi + m:  # meets [lo, hi]; not the window ending at lo
                j = 0 if uy is None else baby.get(ux)  # 0: the lane is the identity, ys[0] None
                if j is not None:
                    return step * (up_centre - j if ys[j] == uy else up_centre + j) + offset
            if lo - m < down_centre <= hi + m:
                j = 0 if vy is None else baby.get(vx)
                if j is not None:
                    return step * (down_centre - j if ys[j] == vy else down_centre + j) + offset
            if giant is None:  # u has order w: the first probe met every multiple of u
                return None
            d1, d2 = gx - ux, gx - vx
            d = d1 * d2 % q
            if d:
                inv = pow(d, -1, q)
                lam, mu = (gy - uy) * d2 * inv % q, (-gy - vy) * d1 * inv % q
                x = (lam * lam - ux - gx) % q
                ux, uy = x, (lam * (ux - x) - uy) % q
                x = (mu * mu - vx - gx) % q
                vx, vy = x, (mu * (vx - x) - vy) % q
            else:
                up = self.add(None if uy is None else (ux, uy), giant)
                down = self.add(None if vy is None else (vx, vy), (gx, -gy % q))
                (ux, uy), (vx, vy) = up or (gx, None), down or (gx, None)
            up_centre += w
            down_centre -= w
        return None
