"""The quotient of E x E by the cyclic subgroup generated by (R1, R2), mod q.

At a good prime the quotient surface is only ever touched through the image
of E(F_q) x E(F_q): a pair vanishes in the quotient exactly when it lands in
the reduced kernel. That finite shadow is all the order bookkeeping needs.
"""

import time
from typing import NamedTuple

from .arith import is_prime, sorted_divisors
from .finite import FiniteCurve, FinitePoint, InvariantViolation
from .rational import RationalCurve, RationalPoint, reduce_coordinates, reduce_onto


class QuotientPoint(NamedTuple):
    """A coset representative: the pair (rep1, rep2) in E(F_q)^2 itself.

    Tuple equality is representative equality, so a pair can be looked up
    in the kernel directly; coset equality is quotient_equal(ctx, s, t).
    """

    rep1: FinitePoint
    rep2: FinitePoint


class _QuotientContextFields(NamedTuple):
    curve: FiniteCurve
    k1: FinitePoint
    k2: FinitePoint
    p: int


class QuotientContext(_QuotientContextFields):
    """Reduction data at one good prime: the curve, the reduced kernel
    generators K1 = R1 mod q, K2 = R2 mod q, and the torsion prime p.

    Every construction path runs __new__: _make (and so _replace) and
    unpickling call the class, so each context has checked its kernel.
    """

    def __new__(cls, curve: FiniteCurve, k1: FinitePoint, k2: FinitePoint, p: int):
        if not is_prime(p):
            raise ValueError(f"kernel order p = {p} must be prime")
        for name, pt in (("K1", k1), ("K2", k2)):
            if not curve.contains(pt):
                raise InvariantViolation(f"{name} is not on the reduced curve")
            if pt is None or curve.scalar_mul(p, pt) is not None:
                raise InvariantViolation(f"{name} does not have exact order {p}")
        # The walk over i * (K1, K2) also proves the reduced generators
        # independent: K2 is no multiple i * K1, so in particular K2 != K1.
        pairs = []
        s, t = None, None
        for _ in range(p):
            if s == k2:
                raise InvariantViolation("K2 lies in the cyclic group generated by K1")
            pairs.append((s, t))
            s = curve.add(s, k1)
            t = curve.add(t, k2)
        self = super().__new__(cls, curve, k1, k2, p)
        self._kernel = tuple(pairs)
        self._k1_multiples = tuple(s for s, _ in pairs)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def kernel(self) -> tuple:
        """The p pairs i * (K1, K2), i = 0 .. p-1."""
        return self._kernel


def make_context(
    curve: RationalCurve, R1: RationalPoint, R2: RationalPoint, p: int, q: int
) -> QuotientContext:
    """Reduce the kernel data at q, checking q is usable first.

    Raises ValueError for a bad prime (q in {2, 3, p}, q not prime or
    q | discriminant; all but q = p are checked by curve.reduce) and
    InvariantViolation if the reduced generators collapse, which cannot
    happen for valid input.
    """
    if q == p:
        raise ValueError(f"bad prime {q}: equals the torsion prime p")
    finite = curve.reduce(q)
    return QuotientContext(finite, reduce_coordinates(R1, q), reduce_coordinates(R2, q), p)


def quotient_add(ctx: QuotientContext, s: QuotientPoint, t: QuotientPoint) -> QuotientPoint:
    return QuotientPoint(ctx.curve.add(s.rep1, t.rep1), ctx.curve.add(s.rep2, t.rep2))


def quotient_neg(ctx: QuotientContext, s: QuotientPoint) -> QuotientPoint:
    return QuotientPoint(ctx.curve.neg(s.rep1), ctx.curve.neg(s.rep2))


def quotient_scalar_mul(ctx: QuotientContext, n: int, s: QuotientPoint) -> QuotientPoint:
    """n * s; a diagonal pair (r, r), such as Q, multiplies r only once."""
    u = ctx.curve.scalar_mul(n, s.rep1)
    return QuotientPoint(u, u if s.rep2 == s.rep1 else ctx.curve.scalar_mul(n, s.rep2))


def quotient_is_zero(ctx: QuotientContext, s: QuotientPoint) -> bool:
    """True iff the representative pair lies in the reduced kernel."""
    return s in ctx._kernel


def quotient_equal(ctx: QuotientContext, s: QuotientPoint, t: QuotientPoint) -> bool:
    return quotient_is_zero(ctx, quotient_add(ctx, s, quotient_neg(ctx, t)))


def quotient_killed_by(ctx: QuotientContext, n: int, s: QuotientPoint, table=None) -> bool:
    """True iff n * s is zero in the quotient: the value of
    quotient_is_zero(ctx, quotient_scalar_mul(ctx, n, s)), without an
    inversion. table is rep1's table of doublings (curve.table_of) or
    None, and n * rep1 is made with it (index_of_multiple).

    The points i * K1 are distinct, since K1 has exact order p, so at most
    one i has n * rep1 = i * K1 (index_of_multiple). The pair is in the
    kernel iff n * rep2 = i * K2 for that i: for P = (r, 0) iff i * K2 is
    the identity, for Q = (r, r) iff i * K2 = i * K1, and otherwise one more
    projective comparison decides.
    """
    curve = ctx.curve
    i = curve.index_of_multiple(n, s.rep1, ctx._k1_multiples, table)
    if i is None:
        return False
    k1, k2 = ctx._kernel[i]
    if s.rep2 == s.rep1:
        return k2 == k1
    return curve.index_of_multiple(n, s.rep2, (k2,)) == 0


def quotient_order(
    ctx: QuotientContext, s: QuotientPoint, m: int, table=None, divisors=None
) -> int:
    """Smallest n >= 1 with n * s zero in the quotient, given the lcm m of
    the orders of s.rep1 and s.rep2.

    The order divides m, because m * s is 0 and so lies in the kernel. The
    divisors of m are tested ascending, so the result is deterministic;
    divisors, when given, is sorted_divisors(m), so that callers with one m
    factorize it once. Each trial is one Jacobian multiple n * rep1 compared
    with the kernel projectively (quotient_killed_by), made with table,
    rep1's table of doublings (curve.table_of) or None.
    """
    for n in sorted_divisors(m) if divisors is None else divisors:
        if quotient_killed_by(ctx, n, s, table):
            return n
    curve = ctx.curve
    raise InvariantViolation(
        f"no annihilator of {tuple(s)} among the divisors of m = {m} at q = {curve.q}; "
        f"m * s is not 0: quotient_order(QuotientContext(FiniteCurve({curve.q}, {curve.a}, "
        f"{curve.b}), {ctx.k1}, {ctx.k2}, {ctx.p}), QuotientPoint{tuple(s)}, {m})"
    )


class PrimeRecord(NamedTuple):
    """Per-prime verdict: the three orders and both divisibility directions."""

    q: int
    ord_r: int
    ord_p: int
    ord_q: int
    forward_holds: bool  # ord_Q | ord_P, i.e. nP = 0 implies nQ = 0
    backward_holds: bool  # ord_P | ord_Q
    elapsed_us: int


def evaluate_prime(ctx: QuotientContext, R: RationalPoint) -> PrimeRecord:
    """Orders of R, P = image (R, 0) and Q = image (R, R) at one prime."""
    start = time.perf_counter_ns()
    curve = ctx.curve
    r = reduce_onto(R, curve)
    # At p = 2 the kernel generators are the rational 2-torsion points (e, 0),
    # whose x-coordinates narrow point_order's search window.
    two_torsion = (ctx.k1[0], ctx.k2[0]) if ctx.p == 2 else None
    # point_order and both sweeps make every multiple of r with one table of
    # r's doublings at large q, and by the double-and-add below it.
    table = curve.table_of(r)
    ord_r = curve.point_order(r, two_torsion, table)
    divisors = sorted_divisors(ord_r)
    ord_p = quotient_order(ctx, QuotientPoint(r, None), ord_r, table, divisors)
    ord_q = quotient_order(ctx, QuotientPoint(r, r), ord_r, table, divisors)
    elapsed_us = (time.perf_counter_ns() - start) // 1000
    return PrimeRecord(
        q=curve.q,
        ord_r=ord_r,
        ord_p=ord_p,
        ord_q=ord_q,
        forward_holds=ord_p % ord_q == 0,
        backward_holds=ord_q % ord_p == 0,
        elapsed_us=elapsed_us,
    )
