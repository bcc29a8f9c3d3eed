"""Elliptic curves y^2 = x^3 + a*x + b over Q with integer coefficients.

Everything here is exact: points are projective integer triples, the group
law runs on Fractions, torsion detection is Lutz-Nagell plus the Mazur
order bound. No floating point anywhere.
"""

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .arith import is_perfect_square, is_prime
from .finite import CheckedTuple, FiniteCurve, FinitePoint

# j-invariants of the rational curves with complex multiplication: one for
# each imaginary quadratic order of class number one (thirteen in total).
CM_J_INVARIANTS = frozenset(
    {
        0,  # disc -3
        1728,  # disc -4
        -3375,  # disc -7
        8000,  # disc -8
        -32768,  # disc -11
        54000,  # disc -12
        287496,  # disc -16
        -884736,  # disc -19
        -12288000,  # disc -27
        16581375,  # disc -28
        -884736000,  # disc -43
        -147197952000,  # disc -67
        -262537412640768000,  # disc -163
    }
)

# Rational torsion points have order at most 12 (Mazur).
MAZUR_ORDER_BOUND = 12


class CurveSearchError(LookupError):
    """No suitable curve exists within the requested height bound."""


class RationalCurve(NamedTuple):
    a: int
    b: int

    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)

    def j_invariant(self) -> Fraction:
        den = 4 * self.a**3 + 27 * self.b**2
        if den == 0:
            raise ValueError("singular curve: discriminant is zero")
        return Fraction(1728 * 4 * self.a**3, den)

    def is_cm(self) -> bool:
        """True iff the curve has complex multiplication.

        Over Q the CM curves are exactly those whose j-invariant lies in the
        class-number-one list, so an exact lookup suffices.
        """
        j = self.j_invariant()
        return j.denominator == 1 and j.numerator in CM_J_INVARIANTS

    def reduce(self, q: int) -> FiniteCurve:
        """Reduction mod a good prime q; FiniteCurve rejects q < 5, composite q
        and q dividing 4a^3 + 27b^2 (for q >= 5, the same as q | discriminant)."""
        return FiniteCurve(q, self.a, self.b)


class _RationalPointFields(NamedTuple):
    x: int
    y: int
    z: int = 1


class RationalPoint(CheckedTuple, _RationalPointFields):
    """Projective point (x : y : z) with coprime integer coordinates.

    z = 0 only for the identity (0 : 1 : 0); normalization keeps z > 0
    otherwise, so equality is plain field equality. Every construction
    path runs __new__ (CheckedTuple).
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int = 1):
        if z == 0:
            if x != 0 or y == 0:
                raise ValueError("z = 0 is reserved for the identity (0:1:0)")
            y = 1
        else:
            g = gcd(gcd(abs(x), abs(y)), abs(z))
            x, y, z = x // g, y // g, z // g
            if z < 0:
                x, y, z = -x, -y, -z
        return super().__new__(cls, x, y, z)

    @classmethod
    def identity(cls) -> "RationalPoint":
        return cls(0, 1, 0)

    @classmethod
    def from_affine(cls, x, y) -> "RationalPoint":
        fx, fy = Fraction(x), Fraction(y)
        den = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
        return cls(int(fx * den), int(fy * den), den)

    @property
    def is_identity(self) -> bool:
        return self.z == 0

    def to_affine(self):
        """(x, y) as Fractions, or None for the identity."""
        if self.is_identity:
            return None
        return Fraction(self.x, self.z), Fraction(self.y, self.z)


def on_curve(curve: RationalCurve, point: RationalPoint) -> bool:
    x, y, z = point.x, point.y, point.z
    return y * y * z == x**3 + curve.a * x * z * z + curve.b * z**3


def rational_add(curve: RationalCurve, s: RationalPoint, t: RationalPoint) -> RationalPoint:
    """Chord-tangent addition, exact over Q."""
    if s.is_identity:
        return t
    if t.is_identity:
        return s
    x1, y1 = s.to_affine()
    x2, y2 = t.to_affine()
    if x1 == x2:
        if y1 == -y2:
            return RationalPoint.identity()
        lam = (3 * x1 * x1 + curve.a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return RationalPoint.from_affine(x3, y3)


def torsion_order(curve: RationalCurve, point: RationalPoint):
    """Exact order if the point is torsion, else None.

    Lutz-Nagell filter, then multiples up to the Mazur bound. Torsion points
    have integral coordinates with y = 0 or y^2 dividing the discriminant;
    the same applies to every multiple, which gives an early exit as soon as
    a multiple goes non-integral.
    """
    if point.is_identity:
        return 1
    if point.z != 1:
        return None
    if point.y == 0:
        return 2
    if curve.discriminant() % (point.y * point.y) != 0:
        return None
    t = point
    for n in range(2, MAZUR_ORDER_BOUND + 1):
        t = rational_add(curve, t, point)
        if t.is_identity:
            return n
        if t.z != 1:
            return None
    return None


def is_torsion(curve: RationalCurve, point: RationalPoint) -> bool:
    return torsion_order(curve, point) is not None


class HypothesisReport(NamedTuple):
    """Outcome of checking every hypothesis the construction rests on."""

    curve_ok: bool
    non_cm: bool
    full_p_torsion: bool
    r_infinite_order: bool
    r1_r2_independent: bool
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _p_torsion_failures(curve: RationalCurve, R1: RationalPoint, R2: RationalPoint, p: int) -> list:
    """Why R1 and R2 do not generate the full rational p-torsion; empty if they do."""
    try:
        if not is_prime(p):
            return [f"torsion: p = {p} is not prime"]
    except ValueError as exc:  # p is too large for a proved answer
        return [f"torsion: p = {exc}"]
    if p != 2:
        # Full p-torsion over Q forces the p-th roots of unity into Q.
        return [f"torsion: full {p}-torsion is impossible over Q (Weil pairing)"]
    wrong = [
        f"torsion: {name} does not have exact order {p}"
        for name, pt in (("R1", R1), ("R2", R2))
        if torsion_order(curve, pt) != p
    ]
    if wrong:
        return wrong
    # R1 = (e1, 0) has order 2, so the cubic is (x - e1)(x^2 + e1*x + e1^2 + a).
    # The cofactor's roots (-e1 +- sqrt(D))/2, D = -3*e1^2 - 4a, are rational
    # exactly when D is a square, and then integers, as D = e1^2 (mod 4); the
    # curve is nonsingular, so all three roots are distinct.
    if not is_perfect_square(-3 * R1.x**2 - 4 * curve.a):
        return ["torsion: the cubic does not split over Z"]
    return []


def validate_hypotheses(
    curve: RationalCurve,
    R: RationalPoint,
    R1: RationalPoint,
    R2: RationalPoint,
    p: int,
) -> HypothesisReport:
    """Check the full hypothesis set on (curve, R, R1, R2, p).

    Nothing raises; every failed check lands in the report so a config can
    be rejected with all its defects listed at once.
    """
    if curve.discriminant() == 0:
        return HypothesisReport(False, False, False, False, False, ("curve: discriminant is zero",))
    failures = [
        f"curve: point {name} does not satisfy the curve equation"
        for name, pt in (("R", R), ("R1", R1), ("R2", R2))
        if not on_curve(curve, pt)
    ]
    curve_ok = not failures
    non_cm = not curve.is_cm()
    if not non_cm:
        failures.append(f"cm: j-invariant {curve.j_invariant()} admits complex multiplication")
    if not curve_ok:
        return HypothesisReport(False, non_cm, False, False, False, tuple(failures))

    torsion_failures = _p_torsion_failures(curve, R1, R2, p)
    failures += torsion_failures
    r_inf = not is_torsion(curve, R)
    if not r_inf:
        failures.append("rank: R is a torsion point")
    # Walk <R1>; rational torsion has order <= 12, so the walk is short.
    members = [RationalPoint.identity()]
    t = R1
    while not t.is_identity and len(members) <= MAZUR_ORDER_BOUND:
        members.append(t)
        t = rational_add(curve, t, R1)
    independent = R2 not in members
    if not independent:
        failures.append("torsion: R2 lies in the cyclic group generated by R1")
    return HypothesisReport(True, non_cm, not torsion_failures, r_inf, independent, tuple(failures))


def search_curve(height_bound: int):
    """Find a curve with full rational 2-torsion and a non-torsion point.

    Enumerates distinct integer triples (e1, e2, e3), e1 + e2 + e3 = 0 and
    |ei| <= height_bound, in lexicographic order over (e1, e2). Each triple
    gives y^2 = (x - e1)(x - e2)(x - e3); CM curves are discarded, then
    integer x in [-height_bound^2, height_bound^2] are scanned ascending for
    a square right-hand side. The first non-torsion point found wins.

    Returns (curve, R, R1, R2) with R1 = (e1, 0) and R2 = (e2, 0).
    """
    if height_bound < 1:
        raise ValueError("height_bound must be >= 1")
    h = height_bound
    for e1 in range(-h, h + 1):
        for e2 in range(-h, h + 1):
            e3 = -e1 - e2
            if abs(e3) > h or len({e1, e2, e3}) != 3:
                continue
            curve = RationalCurve(e1 * e2 + e2 * e3 + e3 * e1, -e1 * e2 * e3)
            if curve.is_cm():
                continue
            for x in range(-h * h, h * h + 1):
                v = x**3 + curve.a * x + curve.b
                if v <= 0:
                    continue
                y = isqrt(v)
                if y * y != v:
                    continue
                point = RationalPoint(x, y)
                if not is_torsion(curve, point):
                    return curve, point, RationalPoint(e1, 0), RationalPoint(e2, 0)
    raise CurveSearchError(
        f"no non-CM split curve with a non-torsion point of height <= {height_bound}"
    )


def reduce_coordinates(point: RationalPoint, q: int) -> FinitePoint:
    """Coordinatewise reduction mod q; no goodness checks."""
    if point.z % q == 0:
        # gcd(x, y, z) = 1 plus the curve equation force x = 0 mod q here.
        return None
    zi = pow(point.z % q, -1, q)
    return (point.x * zi) % q, (point.y * zi) % q


def reduce_onto(point: RationalPoint, curve: FiniteCurve) -> FinitePoint:
    """point mod curve.q, checked to lie on the reduced curve."""
    reduced = reduce_coordinates(point, curve.q)
    if not curve.contains(reduced):
        raise ValueError(f"point does not reduce onto the curve mod {curve.q}")
    return reduced
