import random
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import all_points, coset_order_by_walk, order_by_walk
from suppscan.arith import primes_up_to
from suppscan.finite import FiniteCurve
from suppscan.quotient import (
    InvariantViolation,
    QuotientContext,
    QuotientPoint,
    evaluate_prime,
    make_context,
    quotient_add,
    quotient_equal,
    quotient_is_zero,
    quotient_order,
    quotient_scalar_mul,
)
from suppscan.rational import RationalCurve, RationalPoint

DEFAULT = RationalCurve(-21, -20)
R = RationalPoint(-3, 4)
R1 = RationalPoint(-4, 0)
R2 = RationalPoint(-1, 0)

# y^2 = x^3 - x over F_5 with kernel <((0,0), (1,0))>
F5_CTX = QuotientContext(FiniteCurve(5, -1, 0), (0, 0), (1, 0), 2)


def test_context_kernel():
    assert F5_CTX.kernel() == ((None, None), ((0, 0), (1, 0)))


def test_context_invariants():
    curve = FiniteCurve(5, -1, 0)
    with pytest.raises(InvariantViolation):
        QuotientContext(curve, (0, 0), (0, 0), 2)  # coincide
    with pytest.raises(InvariantViolation):
        QuotientContext(curve, None, (1, 0), 2)  # identity has order 1
    with pytest.raises(InvariantViolation):
        QuotientContext(curve, (2, 1), (1, 0), 2)  # (2,1) has order 4
    with pytest.raises(InvariantViolation):
        QuotientContext(curve, (0, 1), (1, 0), 2)  # off the curve
    with pytest.raises(ValueError):
        QuotientContext(curve, (0, 0), (1, 0), 4)  # p not prime


def test_make_context_good_and_bad_primes():
    ctx = make_context(DEFAULT, R1, R2, 2, 5)
    assert ctx.k1 == (1, 0) and ctx.k2 == (4, 0)
    with pytest.raises(ValueError):
        make_context(DEFAULT, R1, R2, 2, 2)  # q = p and short-Weierstrass
    with pytest.raises(ValueError):
        make_context(DEFAULT, R1, R2, 2, 3)
    for q in (9, 25, 0, 1, -7):  # not prime; 0 must not reach disc % q
        with pytest.raises(ValueError):
            make_context(DEFAULT, R1, R2, 2, q)
    with pytest.raises(ValueError):
        make_context(RationalCurve(-7, -6), RationalPoint(3, 0), RationalPoint(-1, 0), 2, 5)


def test_make_context_every_good_prime_under_2000():
    for q in primes_up_to(2000):
        if q in (2, 3):
            continue
        ctx = make_context(DEFAULT, R1, R2, 2, q)
        assert ctx.k1 != ctx.k2


def test_quotient_is_zero_examples():
    assert quotient_is_zero(F5_CTX, QuotientPoint(None, None))
    assert quotient_is_zero(F5_CTX, QuotientPoint((0, 0), (1, 0)))
    assert not quotient_is_zero(F5_CTX, QuotientPoint((0, 0), (0, 0)))
    assert not quotient_is_zero(F5_CTX, QuotientPoint((1, 0), (0, 0)))


def test_quotient_is_zero_well_defined_on_cosets():
    pts = [
        QuotientPoint((2, 1), (2, 1)),
        QuotientPoint((2, 1), None),
        QuotientPoint(None, (3, 2)),
        QuotientPoint((0, 0), (0, 0)),
    ]
    k = QuotientPoint(*F5_CTX.kernel()[1])
    for pt in pts:
        shifted = quotient_add(F5_CTX, pt, k)
        assert quotient_is_zero(F5_CTX, pt) == quotient_is_zero(F5_CTX, shifted)
        assert quotient_equal(F5_CTX, pt, shifted)


def test_quotient_order_examples():
    assert quotient_order(F5_CTX, QuotientPoint((2, 1), (2, 1))) == 4
    assert quotient_order(F5_CTX, QuotientPoint((0, 0), (1, 0))) == 1
    assert quotient_order(F5_CTX, QuotientPoint(None, (1, 0))) == 2


def test_quotient_order_matches_walk_oracle():
    curve = F5_CTX.curve
    pts = all_points(curve)
    for s in pts:
        for t in pts:
            pt = QuotientPoint(s, t)
            expected = coset_order_by_walk(curve.add, F5_CTX.kernel(), (s, t))
            assert quotient_order(F5_CTX, pt) == expected, (s, t)


def test_quotient_order_divides_p_lcm():
    rng = random.Random(23)
    ctx = make_context(DEFAULT, R1, R2, 2, 101)
    pts = all_points(ctx.curve)
    for _ in range(30):
        s, t = rng.choice(pts), rng.choice(pts)
        n = quotient_order(ctx, QuotientPoint(s, t))
        bound = ctx.p * lcm(ctx.curve.point_order(s), ctx.curve.point_order(t))
        assert bound % n == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quotient_order_random_split_curves(data):
    # y^2 = (x - e1)(x - e2)(x - e3) over F_q with kernel <((e1, 0), (e2, 0))>
    q = data.draw(st.sampled_from([q for q in primes_up_to(499) if q >= 5]), label="q")
    e1 = data.draw(st.integers(0, q - 1), label="e1")
    e2 = data.draw(st.integers(0, q - 1), label="e2")
    e3 = (-e1 - e2) % q
    assume(len({e1, e2, e3}) == 3)
    curve = FiniteCurve(q, e1 * e2 + e2 * e3 + e3 * e1, -e1 * e2 * e3)
    ctx = QuotientContext(curve, (e1, 0), (e2, 0), 2)
    pts = all_points(curve)
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), min_size=1, max_size=4),
        label="pairs",
    )
    for s, t in pairs:
        n = quotient_order(ctx, QuotientPoint(s, t))
        assert n == coset_order_by_walk(curve.add, ctx.kernel(), (s, t))
        m = lcm(order_by_walk(curve.add, s), order_by_walk(curve.add, t))
        assert n == m or n * ctx.p == m


def test_scalar_mul_matches_repeated_add():
    pt = QuotientPoint((2, 1), (3, 2))
    acc = QuotientPoint(None, None)
    for n in range(1, 6):
        acc = quotient_add(F5_CTX, acc, pt)
        assert quotient_scalar_mul(F5_CTX, n, pt) == acc


def test_evaluate_prime_small():
    ctx = make_context(DEFAULT, R1, R2, 2, 5)
    rec = evaluate_prime(ctx, R)
    assert rec.q == 5
    assert rec.ord_r == 4
    assert rec.ord_p == rec.ord_q == rec.ord_r
    assert rec.forward_holds and rec.backward_holds
    assert rec.elapsed_us >= 0


def test_evaluate_prime_orders_vs_walk_oracle():
    for q in (5, 7, 11, 13, 17, 19, 23, 199):
        ctx = make_context(DEFAULT, R1, R2, 2, q)
        rec = evaluate_prime(ctx, R)
        curve = ctx.curve
        r = (R.x % q, R.y % q)
        walk_p = coset_order_by_walk(curve.add, ctx.kernel(), (r, None))
        walk_q = coset_order_by_walk(curve.add, ctx.kernel(), (r, r))
        assert (rec.ord_p, rec.ord_q) == (walk_p, walk_q)
        assert rec.ord_r == order_by_walk(curve.add, r)


def test_ord_p_always_equals_ord_r():
    # (nR, 0) in the kernel forces the kernel index to 0, hence nR = 0
    for q in (5, 7, 11, 29, 997, 9973):
        ctx = make_context(DEFAULT, R1, R2, 2, q)
        rec = evaluate_prime(ctx, R)
        assert rec.ord_p == rec.ord_r
        assert rec.ord_r % rec.ord_q == 0  # n = ord_R kills both components


def test_csv_row_format():
    ctx = make_context(DEFAULT, R1, R2, 2, 5)
    rec = evaluate_prime(ctx, R)
    fields = rec.csv_row().split(",")
    assert fields[:4] == ["5", "4", "4", "4"]
    assert fields[4:6] == ["true", "true"]
    assert fields[6].isdigit()
