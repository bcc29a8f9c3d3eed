import copy
import pickle
import random
from math import isqrt
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    affine_points_brute,
    all_points,
    count_points_brute,
    count_points_by_squares,
    naf_digits,
    order_by_walk,
    split_curves,
)
from suppscan import finite
from suppscan.arith import factorize, is_prime, primes_up_to, sqrt_mod
from suppscan.finite import FiniteCurve, hasse_interval

# y^2 = x^3 - x over F_5: the fully hand-checked table
F5 = FiniteCurve(5, -1, 0)
F5_POINTS = [None, (0, 0), (1, 0), (4, 0), (2, 1), (2, 4), (3, 2), (3, 3)]


def test_curve_validation():
    with pytest.raises(ValueError):
        FiniteCurve(4, 1, 1)  # not prime
    with pytest.raises(ValueError):
        FiniteCurve(3, 1, 1)  # too small
    with pytest.raises(ValueError):
        FiniteCurve(5, 0, 0)  # singular
    with pytest.raises(ValueError):
        FiniteCurve(7, -3, 2)  # x^3 - 3x + 2 has a double root


def test_curve_invariants_on_every_construction_path():
    with pytest.raises(ValueError, match="prime >= 5, got 25"):
        FiniteCurve(25, 1, 1)
    with pytest.raises(ValueError, match="singular"):
        FiniteCurve(7, 4, 9)  # a = -3, b = 2 mod 7
    curve = FiniteCurve(7, -10, 17)
    assert (curve.q, curve.a, curve.b) == (7, 4, 3)
    assert curve == FiniteCurve(7, 4, 3) and hash(curve) == hash(FiniteCurve(7, 4, 3))
    assert curve != FiniteCurve(7, 4, 1)
    with pytest.raises(AttributeError):
        curve.b = 2  # would make the curve singular
    # Copies and unpickling rebuild the curve through the class and its checks.
    assert curve.__reduce__() == (FiniteCurve, (7, 4, 3))
    assert pickle.loads(pickle.dumps(curve)) == curve
    assert copy.copy(curve) == curve


def test_f5_point_set():
    assert sorted(affine_points_brute(5, -1, 0)) == sorted(F5_POINTS[1:])
    assert sorted(all_points(F5)[1:]) == sorted(F5_POINTS[1:])
    assert all_points(F5)[0] is None


def test_f5_addition_examples():
    assert F5.add((2, 1), (2, 1)) == (0, 0)
    assert F5.add((2, 1), (2, 4)) is None
    assert F5.add((2, 1), None) == (2, 1)
    assert F5.add(None, None) is None


def test_add_closure_on_f5():
    pts = set(F5_POINTS[1:]) | {None}
    for s in pts:
        for t in pts:
            assert F5.add(s, t) in pts


def test_add_commutative_associative_sampled():
    rng = random.Random(11)
    curves = [F5, FiniteCurve(101, 3, 7), FiniteCurve(997, -21, -20)]
    for curve in curves:
        pts = all_points(curve)
        for _ in range(60):
            s, t, u = (rng.choice(pts) for _ in range(3))
            assert curve.add(s, t) == curve.add(t, s)
            assert curve.add(curve.add(s, t), u) == curve.add(s, curve.add(t, u))


def test_scalar_mul():
    assert F5.scalar_mul(0, (2, 1)) is None
    assert F5.scalar_mul(1, (2, 1)) == (2, 1)
    assert F5.scalar_mul(4, (2, 1)) is None
    assert F5.scalar_mul(-1, (2, 1)) == (2, 4)
    assert F5.scalar_mul(-3, (2, 1)) == F5.neg(F5.scalar_mul(3, (2, 1)))
    assert all(F5.scalar_mul(n, None) is None for n in (-9, -1, 0, 1, 2, 9))
    acc = None
    for n in range(1, 9):
        acc = F5.add(acc, (2, 1))
        assert F5.scalar_mul(n, (2, 1)) == acc


def test_count_points_examples():
    assert len(all_points(F5)) == 8
    assert len(all_points(FiniteCurve(5, 0, 1))) == 6
    for q in (7, 11, 13):
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                assert len(all_points(FiniteCurve(q, a, b))) == count_points_brute(q, a, b)


def test_count_points_hasse_envelope():
    rng = random.Random(5)
    for _ in range(25):
        q = rng.choice([p for p in primes_up_to(3000) if p >= 5])
        a, b = rng.randrange(q), rng.randrange(q)
        if (4 * a**3 + 27 * b**2) % q == 0:
            continue
        n = len(all_points(FiniteCurve(q, a, b)))
        lo, hi = hasse_interval(q)
        assert lo <= n <= hi


def test_point_order_examples():
    assert F5.point_order(None) == 1
    assert F5.point_order((2, 1)) == 4
    assert F5.point_order((0, 0)) == 2


def order_with_table(curve, s, two_torsion=None):
    """point_order given the table that evaluate_prime builds: s's
    doublings, one entry past the bit length of the Hasse bound."""
    length = hasse_interval(curve.q)[1].bit_length() + 1
    return curve.point_order(s, two_torsion, curve.doublings(s, length))


def test_point_order_equals_naive_exhaustive_small_fields():
    # With the table and without: 2-power orders, whose tables end in the
    # identity, and curves where only the search on s itself succeeds.
    for q in (5, 7, 11, 13):
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                curve = FiniteCurve(q, a, b)
                for s in all_points(curve):
                    order = order_by_walk(curve.add, s)
                    assert curve.point_order(s) == order == order_with_table(curve, s), (q, a, b, s)


def test_point_order_default_curve_reductions():
    # test_criterion_3_order_oracle_equivalence checks every point for q < 500.
    for q in [p for p in primes_up_to(600) if p >= 500]:
        curve = FiniteCurve(q, -21, -20)
        for s in all_points(curve):
            assert curve.point_order(s) == order_by_walk(curve.add, s), (q, s)


def test_point_order_sampled_to_2000():
    rng = random.Random(29)
    for q in (701, 997, 1231, 1543, 1999):
        curve = FiniteCurve(q, -21, -20)
        pts = all_points(curve)
        for s in rng.sample(pts, 12):
            assert curve.point_order(s) == order_by_walk(curve.add, s), (q, s)


def test_point_order_divides_group_order():
    rng = random.Random(3)
    for _ in range(20):
        q = rng.choice([p for p in primes_up_to(2000) if p >= 5])
        a, b = rng.randrange(q), rng.randrange(q)
        if (4 * a**3 + 27 * b**2) % q == 0:
            continue
        curve = FiniteCurve(q, a, b)
        pts = all_points(curve)
        n = len(pts)
        for _ in range(5):
            assert n % curve.point_order(rng.choice(pts)) == 0


def test_point_order_large_q_certificate():
    # too large for the walk oracle: certify n*S = 0 and (n/l)*S != 0 for prime l | n
    q = 999983
    curve = FiniteCurve(q, -21, -20)
    s = (0, 400686)  # 400686^2 = -20 mod 999983
    assert curve.contains(s)
    n = curve.point_order(s)
    assert curve.scalar_mul(n, s) is None
    for ell in factorize(n):
        assert curve.scalar_mul(n // ell, s) is not None
    lo, hi = hasse_interval(q)
    assert any(lo <= k * n <= hi for k in range(1, hi // n + 1))


def test_point_order_walk_oracle():
    curve = FiniteCurve(997, -21, -20)
    pts = all_points(curve)
    for s in (pts[1], pts[len(pts) // 2], pts[-1]):
        assert curve.point_order(s) == order_by_walk(curve.add, s)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_point_order_random_curves(data):
    # arbitrary nonsingular curves, most not split: 4 need not divide #E(F_q)
    q = data.draw(st.sampled_from([q for q in primes_up_to(1999) if q >= 5]), label="q")
    a = data.draw(st.integers(0, q - 1), label="a")
    b = data.draw(st.integers(0, q - 1), label="b")
    assume((4 * a**3 + 27 * b**2) % q)
    curve = FiniteCurve(q, a, b)
    pts = all_points(curve)
    for s in data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3), label="points"):
        order = order_by_walk(curve.add, s)
        assert curve.point_order(s) == order == order_with_table(curve, s), (q, a, b, s)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_group_axioms_random_curves(data):
    q = data.draw(st.sampled_from([q for q in primes_up_to(1999) if q >= 5]), label="q")
    a = data.draw(st.integers(0, q - 1), label="a")
    b = data.draw(st.integers(0, q - 1), label="b")
    assume((4 * a**3 + 27 * b**2) % q)
    curve = FiniteCurve(q, a, b)
    pts = all_points(curve)
    s, t, u = (data.draw(st.sampled_from(pts), label=name) for name in "stu")
    assert curve.contains(curve.add(s, t))
    assert curve.add(s, None) == curve.add(None, s) == s
    assert curve.add(s, curve.neg(s)) is None
    assert curve.add(s, t) == curve.add(t, s)
    assert curve.add(curve.add(s, t), u) == curve.add(s, curve.add(t, u))


def test_point_order_group_order_not_divisible_by_4():
    # #E = 1057 = 7 * 151: no c in [lo/4, hi/4] kills 4*s, so only the
    # stride-1 search can find the order
    curve = FiniteCurve(997, 0, 7)
    s = (3, 55)
    assert len(all_points(curve)) == 1057
    lo, hi = hasse_interval(997)
    assert all(curve.scalar_mul(4 * c, s) is not None for c in range(-(-lo // 4), hi // 4 + 1))
    assert curve.point_order(s) == 1057 == order_by_walk(curve.add, s) == order_with_table(curve, s)


def test_annihilator_stays_within_its_windows():
    # _annihilator(s, 1, lo, hi, False, None) returns a c with c*t = 0 (t = s),
    # or None only when no multiple of the order lies in [lo, hi]. c is the
    # order itself when that is at most m + 1 (m the baby-step count), else
    # lo <= c <= hi + 2m, the last window overhanging hi by at most 2m. lo
    # runs just above a multiple of the order, where a lane that went on
    # probing below lo would find one; the widths vary how many windows the
    # up lane has beyond the down lane's.
    curve = FiniteCurve(997, -21, -20)
    for s in all_points(curve)[1::97]:
        order = order_by_walk(curve.add, s)
        for width in range(0, 120, 7):
            m = isqrt((width + 1) // 4) + 2  # at least the code's m
            for lo in range(order + 1, order + 2 * m + 3):
                hi = lo + width
                c = curve._annihilator(s, 1, lo, hi, False, None)
                if c is None:
                    assert all(n % order for n in range(lo, hi + 1)), (s, lo, hi)
                else:
                    assert c % order == 0, (s, lo, hi, c)
                    assert lo <= c <= hi + 2 * m or c == order <= m + 1, (s, lo, hi, c)


def test_killed_by_every_point_of_small_fields():
    # Every point, the identity and points of order 2 and 4 among them, and
    # every scalar in [-2 ord - 1, 2 ord + 1] with 0 and negative ones, so
    # the accumulator meets the identity, s and -s before an addition.
    for q in (5, 7, 11, 13):
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                curve = FiniteCurve(q, a, b)
                for s in all_points(curve):
                    order = order_by_walk(curve.add, s)
                    for n in range(-2 * order - 1, 2 * order + 2):
                        killed = curve.index_of_multiple(n, s, (None,)) == 0
                        assert killed is (n % order == 0), (q, a, b, s, n)


def test_killed_by_large_fields():
    # 20- and 34-bit q on the default curve, orders from point_order.
    for q, s in ((999983, (0, 400686)), (17179869143, (4, 10388018091))):
        curve = FiniteCurve(q, -21, -20)
        assert curve.contains(s)
        n = curve.point_order(s)
        for m in (n, -n, 2 * n, n + 1, n - 1, *(n // f for f in factorize(n))):
            killed = curve.index_of_multiple(m, s, (None,)) == 0
            assert killed is (curve.scalar_mul(m, s) is None) is (m % n == 0), (q, m)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_killed_by_matches_scalar_mul_and_walk(data):
    # Random curves, or the default curve, whose reductions have full
    # 2-torsion; s is drawn and then moved to its multiple of order 2 or 4
    # when there is one, or to the identity.
    q = data.draw(st.sampled_from([q for q in primes_up_to(400) if q >= 5]), label="q")
    if data.draw(st.booleans(), label="default curve"):
        a, b = -21, -20
    else:
        a = data.draw(st.integers(0, q - 1), label="a")
        b = data.draw(st.integers(0, q - 1), label="b")
    assume((4 * a**3 + 27 * b**2) % q)
    curve = FiniteCurve(q, a, b)
    s = data.draw(st.sampled_from(all_points(curve)), label="s")
    order = order_by_walk(curve.add, s)
    target = data.draw(st.sampled_from([order, 1, 2, 4]), label="order of s")
    if order % target == 0:
        s, order = curve.scalar_mul(order // target, s), target
    n = data.draw(
        st.one_of(
            st.integers(-2 * order - 2, 2 * order + 2),
            st.integers(-5, 5).map(lambda k: k * order),
            st.integers(-(2**40), 2**40),
        ),
        label="n",
    )
    killed = curve.index_of_multiple(n, s, (None,)) == 0
    assert killed is (curve.scalar_mul(n, s) is None) is (n % order == 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_index_of_multiple_matches_repeated_add(data):
    # The projective comparison against a list of affine points and the
    # identity, which often holds n * s, -(n * s) (the same x) or both.
    q = data.draw(st.sampled_from([q for q in primes_up_to(400) if q >= 5]), label="q")
    a = data.draw(st.integers(0, q - 1), label="a")
    b = data.draw(st.integers(0, q - 1), label="b")
    assume((4 * a**3 + 27 * b**2) % q)
    curve = FiniteCurve(q, a, b)
    pts = all_points(curve)
    s = data.draw(st.sampled_from(pts), label="s")
    order = order_by_walk(curve.add, s)
    n = data.draw(
        st.one_of(st.integers(-2 * order - 2, 2 * order + 2), st.integers(-(2**40), 2**40)),
        label="n",
    )
    acc = None
    for _ in range(n % order):
        acc = curve.add(acc, s)
    near = st.sampled_from([acc, curve.neg(acc)])
    points = data.draw(st.lists(near | st.sampled_from(pts), max_size=5), label="points")
    expected = points.index(acc) if acc in points else None
    assert curve.index_of_multiple(n, s, points) == expected, (curve, s, n, points)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scalar_mul_matches_repeated_add(data):
    # scalar_mul runs the Jacobian core and add is affine, so the two share
    # no formula. s is moved to a multiple of order 1, 2, 4 or odd when it
    # has one; n * s is then (n mod ord) additions of s.
    q = data.draw(st.sampled_from([q for q in primes_up_to(400) if q >= 5]), label="q")
    if data.draw(st.booleans(), label="default curve"):
        a, b = -21, -20
    else:
        a = data.draw(st.integers(0, q - 1), label="a")
        b = data.draw(st.integers(0, q - 1), label="b")
    assume((4 * a**3 + 27 * b**2) % q)
    curve = FiniteCurve(q, a, b)
    s = data.draw(st.sampled_from(all_points(curve)), label="s")
    order = order_by_walk(curve.add, s)
    odd = order
    while odd % 2 == 0:
        odd //= 2
    target = data.draw(st.sampled_from([order, 1, 2, 4, odd]), label="order of s")
    if order % target == 0:
        s, order = curve.scalar_mul(order // target, s), target
    n = data.draw(
        st.one_of(
            st.integers(-2 * order - 2, 2 * order + 2),
            st.integers(-5, 5).map(lambda k: k * order),
            st.integers(-(2**40), 2**40),
        ),
        label="n",
    )
    acc = None
    for _ in range(n % order):
        acc = curve.add(acc, s)
    assert curve.scalar_mul(n, s) == acc


def draw_curve_and_point(data, small: bool):
    """(curve, s, order): a random curve at a prime q < 400 with a point and
    its walked order moved to its 2-power part half the time, or at a prime
    q in [10^3, 10^12] with a random affine point and order None."""
    if small:
        q = data.draw(st.sampled_from([q for q in primes_up_to(400) if q >= 5]), label="q")
    else:
        q = data.draw(st.integers(10**3, 10**12), label="start")
        while not is_prime(q):
            q += 1
    a = data.draw(st.integers(0, q - 1), label="a")
    b = data.draw(st.integers(0, q - 1), label="b")
    assume((4 * a**3 + 27 * b**2) % q)
    curve = FiniteCurve(q, a, b)
    if not small:
        x = data.draw(st.integers(0, q - 1), label="x")
        while (y := sqrt_mod(x**3 + a * x + b, q)) is None:
            x = (x + 1) % q
        return curve, (x, y), None
    s = data.draw(st.sampled_from(all_points(curve)), label="s")
    order = order_by_walk(curve.add, s)
    if data.draw(st.booleans(), label="2-power part"):
        odd = order >> two_adic_valuation(order)
        s, order = curve.scalar_mul(odd, s), order // odd
    return curve, s, order


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_doublings_match_scalar_mul(data):
    # T[j] = 2^j * s against the double-and-add, and at q < 400 against
    # repeated affine additions; for s of order 2^k the table of length
    # k + 1 ends in the identity and only there.
    curve, s, order = draw_curve_and_point(data, data.draw(st.booleans(), label="q < 400"))
    length = data.draw(st.integers(1, 48), label="length")
    table = curve.doublings(s, length)
    assert len(table) == length
    assert all(t == curve.scalar_mul(2**j, s) for j, t in enumerate(table)), (curve, s)
    if order is not None:
        walk = [None]
        for _ in range(order - 1):
            walk.append(curve.add(walk[-1], s))
        assert all(t == walk[2**j % order] for j, t in enumerate(table)), (curve, s)
        if order & (order - 1) == 0 and order.bit_length() <= length:
            k = order.bit_length() - 1
            assert table[k] is None and (k == 0 or table[k - 1] is not None), (curve, s)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_comb_matches_double_and_add(data):
    # index_of_multiple summing the table against the double-and-add, for n
    # in [-2^L, 2^L] (those of L bits or more fall back): n = 0, and at
    # q < 400 sums that meet the negative of the entry they add, and so
    # return to the identity and go on, or the entry itself, a doubling,
    # which falls back.
    # Such an n is n_low + d*2^j + H*2^(j+2) with 3*|n_low| < 2^j: its
    # non-adjacent form is n_low's, whose digits stop below j - 1, then the
    # digit d at j, then H's from j + 2, so the sum adds d*2^j*s to n_low*s.
    small = data.draw(st.booleans(), label="q < 400")
    curve, s, order = draw_curve_and_point(data, small)
    length = data.draw(st.integers(1, 40), label="L")
    table = curve.doublings(s, length)
    top = 1 << length
    ns = [st.integers(-top, top), st.sampled_from([0, top - 1, top, -top])]
    if small and order.bit_length() + 1 <= length - 2:
        j = data.draw(st.integers(order.bit_length() + 1, length - 2), label="j")
        d = data.draw(st.sampled_from([1, -1]), label="d")
        high = data.draw(st.integers(0, (top >> (j + 2)) - 1), label="H")
        for target in (-d << j, d << j):  # meets -(d*2^j*s), meets d*2^j*s
            low = target % order
            if 3 * low >= 1 << j:
                low -= order
            ns.append(st.just(low + (d << j) + (high << (j + 2))))
    n = data.draw(st.one_of(ns), label="n")
    multiple = curve.scalar_mul(n, s)
    near = st.sampled_from([multiple, curve.neg(multiple)])
    points = data.draw(st.lists(near | st.sampled_from([None, s]), max_size=4), label="points")
    expected = curve.index_of_multiple(n, s, points)
    assert expected == (points.index(multiple) if multiple in points else None)
    assert curve.index_of_multiple(n, s, points, table) == expected, (curve, s, n, points)


def test_signed_comb_against_the_naf_oracle_on_small_fields():
    # Every point of the default curve at q = 37 and 53, points of 2-power
    # order (whose tables end in the identity) among them, and every n below
    # 2^(L-1), L = 4 + the bit length of the order. Walking the oracle's
    # non-adjacent form of n through the multiples of s mod its order, _comb
    # returns None exactly where the running sum meets the entry it adds, a
    # doubling, and otherwise n*s; _multiple always returns n*s. Both
    # degenerate sums, the doubling and the return to the identity with
    # digits still to come, are met.
    seen = set()
    for q in (37, 53):
        curve = FiniteCurve(q, -21, -20)
        for s in all_points(curve)[1:]:
            order = order_by_walk(curve.add, s)
            length = order.bit_length() + 4
            table = curve.doublings(s, length)
            for n in range(1 << (length - 1)):
                digits = naf_digits(n)
                assert len(digits) <= length and sum(d << j for j, d in enumerate(digits)) == n
                running, doubles = 0, False
                for j, d in enumerate(digits):
                    entry = (d << j) % order
                    if not entry:  # d = 0, or 2^j * s is the identity
                        continue
                    if running == entry:
                        doubles = True
                        break
                    running = (running + entry) % order
                    if not running and any(digits[j + 1 :]):
                        seen.add("identity on the way")
                total = curve._comb(n, table)
                multiple = curve.scalar_mul(n, s)
                if doubles:
                    seen.add("doubling")
                    assert total is None, (q, s, n)
                else:
                    assert curve._affine(*total) == multiple, (q, s, n)
                assert curve._affine(*curve._multiple(n, s, table)) == multiple, (q, s, n)
    assert seen == {"doubling", "identity on the way"}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_mul_matches_scalar_mul(data):
    # _multiple with the table against scalar_mul, at q < 400 (points of
    # 2-power order half the time) or at q in [10^3, 10^12], for n over
    # [0, 2^L): an n of L bits falls back to the double-and-add. n = 2^L - 1
    # is one: its non-adjacent form 2^L - 1 has a digit at L, one past the
    # table. From the table one entry longer _comb sums it, unless the sum
    # would double (a point of small order, even at large q).
    small = data.draw(st.booleans(), label="q < 400")
    curve, s, order = draw_curve_and_point(data, small)
    assume(s is not None)  # index_of_multiple answers the identity first
    length = data.draw(st.integers(1, 48), label="L")
    table = curve.doublings(s, length)
    top = 1 << length
    n = data.draw(st.integers(0, top - 1) | st.sampled_from([0, top - 1, top // 2 - 1]), label="n")
    assert curve._affine(*curve._multiple(n, s, table)) == curve.scalar_mul(n, s), (curve, s, n)
    total = curve._comb(top - 1, curve.doublings(s, length + 1))
    if total is not None:
        assert curve._affine(*total) == curve.scalar_mul(top - 1, s), (curve, s, length)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_mul_keeps_each_tables_sums(data):
    # Two tables, on two curves or on two points of one curve, and a random
    # interleaving of scalars from one small pool, so that a scalar comes
    # again on its own table and on the other: every answer is scalar_mul's,
    # whether it was summed (_comb), fell back (n of L bits, or a sum that
    # would double, at q < 400) or was kept from an earlier call.
    small = data.draw(st.booleans(), label="q < 400")
    curve, s, _ = draw_curve_and_point(data, small)
    if not data.draw(st.booleans(), label="one curve"):
        other = draw_curve_and_point(data, small)[:2]
    elif small:
        other = curve, data.draw(st.sampled_from(all_points(curve)), label="t")
    else:
        other = curve, curve.scalar_mul(data.draw(st.integers(2, 99), label="k"), s)
    pairs = [(curve, s), other]
    assume(all(t is not None for _, t in pairs))
    length = data.draw(st.integers(1, 40), label="L")
    tables = [c.doublings(t, length) for c, t in pairs]
    top = 1 << length
    scalars = st.integers(0, top - 1) | st.sampled_from([0, 1, top // 2 - 1, top - 1])
    pool = data.draw(st.lists(scalars, min_size=1, max_size=6), label="pool")
    calls = data.draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(pool)), max_size=24), label="calls")
    for i, n in calls + [(i, n) for n in pool for i in (0, 1)]:
        (c, t), table = pairs[i], tables[i]
        assert c._affine(*c._multiple(n, t, table)) == c.scalar_mul(n, t), (c, t, n, i)


def test_table_mul_sums_each_scalar_once_per_table(monkeypatch):
    # Two tables of the default curve at q = 47: s of order 28 and t of order
    # 4, whose table ends in the identity. Every n below 2^L on both, in one
    # shuffled order and then again, in turns: each table keeps exactly the
    # scalars asked of it, each under its own n. A scalar is made once per
    # table: an even n whose half is kept is that half doubled, with no
    # _comb and no double-and-add; any other n runs _comb, and the
    # double-and-add after it when it falls back. The identity's table is
    # of the same kind.
    curve = FiniteCurve(47, -21, -20)
    orders = {u: order_by_walk(curve.add, u) for u in all_points(curve)[1:]}
    s, t = (next(u for u, order in orders.items() if order == k) for k in (28, 4))
    made = []
    comb, jacobian_mul = FiniteCurve._comb, FiniteCurve._jacobian_mul
    monkeypatch.setattr(FiniteCurve, "_comb", lambda self, n, table: made.append(n) or comb(self, n, table))
    monkeypatch.setattr(
        FiniteCurve, "_jacobian_mul", lambda self, n, u: made.append(n) or jacobian_mul(self, n, u)
    )
    length = 7
    tables = {s: curve.doublings(s, length), t: curve.doublings(t, length)}
    scalars = list(range(1 << length))
    random.Random(7).shuffle(scalars)
    kinds = set()
    for again in (False, True):
        for n in scalars:
            for u, table in tables.items():
                made.clear()
                doubled = not n & 1 and n >> 1 in table.sums
                total = curve._multiple(n, u, table)
                if again or doubled:
                    assert not made, (u, n, made)
                else:
                    assert set(made) == {n}, (u, n, made)
                if not again:
                    kinds.add((n & 1, doubled))
                assert total is table.sums[n], (u, n)
                assert curve._affine(*total) == curve.scalar_mul(n, u), (u, n)
    assert kinds == {(1, False), (0, False), (0, True)}  # even n made both ways
    for u, table in tables.items():
        assert sorted(table.sums) == list(range(1 << length)), u
    identity = curve.doublings(None, length)
    assert type(identity) is type(tables[s]) and identity == (None,) * length
    assert identity.sums == {} and identity.sums is not tables[s].sums


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_mul_doubles_kept_halves(data):
    # Chains n, 2n, 4n, ... on one table, interleaved with fresh scalars, at
    # q < 400 (points of 2-power order half the time, and so of order 2, whose
    # halves double to the identity) or at q in [10^3, 10^12]: every answer
    # is scalar_mul's, whether it was a doubling of a kept half, a sum, a
    # fallback or kept from an earlier call, and it is kept under its n.
    small = data.draw(st.booleans(), label="q < 400")
    curve, s, _ = draw_curve_and_point(data, small)
    two_torsion = [u for u in all_points(curve)[1:] if u[1] == 0] if small else []
    if two_torsion and data.draw(st.booleans(), label="order 2"):
        s = data.draw(st.sampled_from(two_torsion), label="s of order 2")
    assume(s is not None)
    length = data.draw(st.integers(1, 44), label="L")
    table = curve.doublings(s, length)
    top = 1 << length
    scalars = st.integers(0, top - 1) | st.sampled_from([0, 1, 2, top // 2 - 1, top - 1])
    calls = []
    for start in data.draw(st.lists(scalars, min_size=1, max_size=4), label="starts"):
        links = data.draw(st.integers(1, 6), label="links")
        calls += [start << k for k in range(links)]
    fresh = data.draw(st.lists(scalars, max_size=8), label="fresh")
    for n in fresh:
        calls.insert(data.draw(st.integers(0, len(calls)), label="at"), n)
    for n in calls:
        total = curve._multiple(n, s, table)
        assert total is table.sums[n], (curve, s, n)
        assert curve._affine(*total) == curve.scalar_mul(n, s), (curve, s, n, calls)


def draw_split_curve_point(data, lo, hi):
    """(curve, (e1, e2), s): y^2 = (x - e1)(x - e2)(x - e3) at a prime q in
    [lo, hi] and a random affine point of it."""
    q = data.draw(st.integers(lo, hi), label="start")
    while not is_prime(q):
        q += 1
    e1 = data.draw(st.integers(0, q - 1), label="e1")
    e2 = data.draw(st.integers(0, q - 1), label="e2")
    e3 = -(e1 + e2) % q
    assume(len({e1, e2, e3}) == 3)
    a, b = (e1 * e2 + e2 * e3 + e3 * e1) % q, -e1 * e2 * e3 % q
    x = data.draw(st.integers(0, q - 1), label="x")
    while (y := sqrt_mod(x**3 + a * x + b, q)) is None:
        x = (x + 1) % q
    return FiniteCurve(q, a, b), (e1, e2), (x, y)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_point_order_same_with_and_without_doublings(data):
    # Random split curves at a prime q in [10^3, 10^12] and random points,
    # times a small cofactor so that some (n / f^e) * s made from the
    # table are the identity: with two_torsion and without,
    # point_order with the table finds the order that it finds without.
    # The window opens above 2 * 10^7.
    curve, roots, s = draw_split_curve_point(data, 10**3, 10**12)
    s = curve.scalar_mul(data.draw(st.integers(1, 48), label="cofactor"), s)
    for two_torsion in (None, roots):
        order = curve.point_order(s, two_torsion)
        assert order_with_table(curve, s, two_torsion) == order, (curve, s, two_torsion)


def test_point_order_with_doublings_runs_the_same_searches(monkeypatch):
    # The table changes how the searches' points are formed, not the
    # searches: every _annihilator call, its point and its result included,
    # is the same with the table as without it. At the first primes past
    # 10^10 the windowed search on 2^v * s succeeds; at 10^6 + 3 the window
    # is shut and the search on 4 * s does.
    calls = []
    annihilator = FiniteCurve._annihilator

    def spy(self, s, k, lo, hi, odd_only, table):
        calls.append((s, k, lo, hi, odd_only, annihilator(self, s, k, lo, hi, odd_only, table)))
        return calls[-1][-1]

    monkeypatch.setattr(FiniteCurve, "_annihilator", spy)
    for q in (10**10 + 19, 10**10 + 33, 10**6 + 3):
        # The default curve, its 2-torsion roots -4 and -1, and R = (-3, 4).
        curve, s = FiniteCurve(q, -21, -20), (-3 % q, 4)
        searches = []
        for table in (False, True):
            calls.clear()
            order = order_with_table(curve, s, (-4, -1)) if table else curve.point_order(s, (-4, -1))
            searches.append((order, list(calls)))
        assert searches[0] == searches[1], q
        assert len(searches[0][1]) == 1 and searches[0][1][0][-1], q


def test_point_order_climbs_each_prime_power_once(monkeypatch):
    # With the table, after the searches: one _multiple of s per prime f of
    # the annihilator n, (n / f^e) * s, in the order of n's factors, and the
    # only other group work is the climb, _jacobian_mul(k, u) on the affine
    # u = (n / f^e) * s with k = f, f^2, ... below f^e, stopping at the
    # first k that kills u. At 10^10 + 19, n = 2^4 * 3 * 208330669 and the
    # 2-part of the order is 4 (k = 2, 4); at 10^10 + 33 the 3-part is 1
    # (no climb); at 10^10 + 61 the 7-part is 7^2 = f^e (k = 7 alone).
    events, found, inside = [], [], []
    annihilator, multiple, jacobian_mul = (
        FiniteCurve._annihilator,
        FiniteCurve._multiple,
        FiniteCurve._jacobian_mul,
    )

    def spy_annihilator(self, s, k, lo, hi, odd_only, table):
        c = annihilator(self, s, k, lo, hi, odd_only, table)
        events.clear()
        found.append(k * c if c else None)
        return c

    def spy_multiple(self, n, s, table):
        events.append(("mul", n, s))
        inside.append(None)
        try:
            return multiple(self, n, s, table)
        finally:
            inside.pop()

    def spy_jacobian_mul(self, n, s):
        if not inside:
            events.append(("climb", n, s))
        return jacobian_mul(self, n, s)

    monkeypatch.setattr(FiniteCurve, "_annihilator", spy_annihilator)
    monkeypatch.setattr(FiniteCurve, "_multiple", spy_multiple)
    monkeypatch.setattr(FiniteCurve, "_jacobian_mul", spy_jacobian_mul)
    climbed = set()
    for q in (10**10 + 19, 10**10 + 33, 10**10 + 61):
        curve, s = FiniteCurve(q, -21, -20), (-3 % q, 4)
        found.clear()
        order = curve.point_order(s, (-4, -1), curve.table_of(s))
        n = found[-1]
        expected = []
        for f, e in factorize(n).items():
            expected.append(("mul", n // f**e, s))
            u = curve.scalar_mul(n // f**e, s)
            part = order_by_walk(curve.add, u) if u is not None and e >= 2 else 1
            k = f
            while e >= 2 and k < f**e and k <= part:
                expected.append(("climb", k, u))
                climbed.add((q, f, k))
                k *= f
        assert order == curve.point_order(s, (-4, -1)), q
        assert events == expected, q
    assert {(10**10 + 19, 2, 4), (10**10 + 61, 7, 7)} <= climbed
    assert not any(q == 10**10 + 33 and f == 3 for q, f, _ in climbed)


def test_climb_stops_below_each_prime_power(monkeypatch):
    # A broken group law whose kill tests never report the identity: every
    # multiple is the finite (1 : 1 : 1). The annihilator n = 2^5 * 3^3 * 7
    # is stubbed, so the climb is the only loop left. Each prime's climb
    # tests f, f^2, ... below f^e and stops at f^e untested, so point_order
    # ends and returns n itself.
    n = 2**5 * 3**3 * 7
    climbs = []

    def broken_jacobian_mul(self, k, u):
        if u != s:
            climbs.append(k)
            assert len(climbs) < 50, "the climb does not stop"
        return 1, 1, 1

    monkeypatch.setattr(FiniteCurve, "_annihilator", lambda self, s, k, *rest: n // k)
    monkeypatch.setattr(FiniteCurve, "_jacobian_mul", broken_jacobian_mul)
    curve, s = FiniteCurve(10007, -21, -20), (10007 - 3, 4)
    assert curve.point_order(s) == n
    assert climbs == [2, 4, 8, 16, 3, 9]


def two_adic_valuation(n):
    return (n & -n).bit_length() - 1


def test_two_part_matches_point_counts():
    # Every split curve with |e_i| <= 12 at every good prime below 300, the
    # roots given in three orders so that each T_i is the one that halves;
    # #E from a sum of quadratic characters, which shares nothing with the
    # group law. exact: 2^v is the 2-part of #E; otherwise v = 4 <= v_2(#E).
    seen = set()
    for q in primes_up_to(300)[2:]:
        for e1, e2, e3, a, b in split_curves(12):
            if len({e1 % q, e2 % q, e3 % q}) < 3:
                continue
            v2 = two_adic_valuation(count_points_by_squares(q, a, b))
            curve = FiniteCurve(q, a, b)
            for roots in ((e1, e2), (e2, e3), (e3, e1)):
                v, exact = curve._two_part(*roots)
                assert (v == v2) if exact else (v == 4 <= v2), (q, roots, v, exact, v2)
                seen.add((v if exact else "lower", q % 4))
    # Each branch is met, at q = 1 and q = 3 mod 4, and the walk climbs. All
    # three halve only at q = 1 mod 4: E[4] in E(F_q) puts i in F_q (Weil
    # pairing).
    assert {(2, 1), (2, 3), (3, 1), (3, 3), (4, 1), (4, 3), ("lower", 1)} <= seen
    assert max(v for v, _ in seen if v != "lower") >= 8


def test_two_part_rejects_non_roots():
    curve = FiniteCurve(101, -21, -20)  # roots -4, -1, 5
    assert curve._two_part(-4, -1) == curve._two_part(-1 + 101, 5)
    for roots in ((-4, -4), (-4, 2), (0, 1)):
        with pytest.raises(ValueError, match="not two roots"):
            curve._two_part(*roots)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_windowed_point_order_random_split_curves(data):
    # The window forced on at small q: random split curves and points,
    # against the walk oracle, with the roots in a random order.
    q = data.draw(st.sampled_from([q for q in primes_up_to(1999) if q >= 5]), label="q")
    e1 = data.draw(st.integers(0, q - 1), label="e1")
    e2 = data.draw(st.integers(0, q - 1), label="e2")
    e3 = -(e1 + e2) % q
    assume(len({e1, e2, e3}) == 3)
    curve = FiniteCurve(q, e1 * e2 + e2 * e3 + e3 * e1, -e1 * e2 * e3)
    roots = data.draw(st.sampled_from([(e1, e2), (e2, e3), (e3, e1), (e2, e1)]), label="roots")
    points = st.lists(st.sampled_from(all_points(curve)), min_size=1, max_size=3)
    with mock.patch.object(finite, "_WINDOW_MIN_Q", 0):
        for s in data.draw(points, label="points"):
            order = order_by_walk(curve.add, s)
            assert curve.point_order(s, two_torsion=roots) == order, (q, roots, s)
            assert order_with_table(curve, s, roots) == order, (q, roots, s)


def test_window_is_read_only_above_the_crossover(monkeypatch):
    # Bad roots are never looked at below the crossover, and are refused
    # above it.
    curve = FiniteCurve(101, -21, -20)
    assert curve.point_order((0, 9), two_torsion=(0, 1)) == curve.point_order((0, 9)) == 8
    monkeypatch.setattr(finite, "_WINDOW_MIN_Q", 100)
    with pytest.raises(ValueError, match="not two roots"):
        curve.point_order((0, 9), two_torsion=(0, 1))
    assert curve.point_order((0, 9), two_torsion=(-4, -1)) == 8


def test_odd_annihilator_stays_within_its_windows():
    # _annihilator(s, 1, lo, hi, True, None) returns a c with c*t = 0, or None
    # only when no odd multiple of the order lies in [lo, hi]. A giant-step
    # match is odd and at least lo; a baby step that meets the identity
    # gives an even c at most 2(m + 1), m the baby-step count.
    curve = FiniteCurve(997, -21, -20)
    for s in all_points(curve)[1::61]:
        order = order_by_walk(curve.add, s)
        for width in range(0, 160, 11):
            m = isqrt((width // 2 + 1) // 4) + 2  # at least the code's m
            for lo in range(order + 1, order + 4 * m + 5):
                hi = lo + width
                c = curve._annihilator(s, 1, lo, hi, True, None)
                if c is None:
                    assert all(n % order for n in range(lo | 1, hi + 1, 2)), (s, lo, hi)
                else:
                    assert c % order == 0, (s, lo, hi, c)
                    giant = c % 2 and lo <= c <= hi + 4 * m
                    assert giant or (c % 2 == 0 and c <= 2 * m + 2), (s, lo, hi, c)
