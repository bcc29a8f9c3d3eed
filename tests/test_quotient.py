import random
from functools import cache
from itertools import islice, product
from math import lcm, prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import all_points, coset_order_by_walk, isomorphic_config, order_by_walk
from suppscan import finite, quotient
from suppscan.arith import is_prime, primes_up_to, sorted_divisors, sqrt_mod
from suppscan.finite import FiniteCurve, hasse_interval
from suppscan.quotient import (
    InvariantViolation,
    QuotientContext,
    QuotientPoint,
    evaluate_prime,
    make_context,
    quotient_add,
    quotient_equal,
    quotient_is_zero,
    quotient_killed_by,
    quotient_order,
    quotient_scalar_mul,
)
from suppscan.rational import RationalCurve, RationalPoint, reduce_onto
from suppscan.scan import classify_primes, default_config, run_scan, write_report

DEFAULT = RationalCurve(-21, -20)
R = RationalPoint(-3, 4)
R1 = RationalPoint(-4, 0)
R2 = RationalPoint(-1, 0)

# y^2 = x^3 - x over F_5 with kernel <((0,0), (1,0))>
F5_CTX = QuotientContext(FiniteCurve(5, -1, 0), (0, 0), (1, 0), 2)
# y^2 = x^3 + 2 over F_7 (full 3-torsion) with a kernel of order p = 3
F7_CTX = QuotientContext(FiniteCurve(7, 0, 2), (0, 3), (3, 1), 3)


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
    # y^2 = x^3 + 2 over F_7 has full 3-torsion: (0, 4) = 2 * (0, 3) lies in
    # the group K1 generates, (3, 1) does not; the kernel walk tells them apart.
    f7 = FiniteCurve(7, 0, 2)
    with pytest.raises(InvariantViolation, match="cyclic group generated by K1"):
        QuotientContext(f7, (0, 3), (0, 4), 3)
    ctx = QuotientContext(f7, (0, 3), (3, 1), 3)
    assert ctx.kernel() == ((None, None), ((0, 3), (3, 1)), ((0, 4), (3, 6)))


def test_context_rechecks_on_make_and_replace():
    assert QuotientContext._make(F5_CTX).kernel() == F5_CTX.kernel()
    with pytest.raises(InvariantViolation):
        F5_CTX._replace(k2=(0, 0))
    with pytest.raises(ValueError):
        QuotientContext._make((FiniteCurve(5, -1, 0), (0, 0), (1, 0), 4))


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
    with pytest.raises(ValueError, match="bad prime 5: the curve is singular over F_5"):
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


def order_of(ctx, s, t):
    """quotient_order of (s, t), given the lcm of the component orders."""
    m = lcm(ctx.curve.point_order(s), ctx.curve.point_order(t))
    return quotient_order(ctx, QuotientPoint(s, t), m)


def test_quotient_order_examples():
    assert order_of(F5_CTX, (2, 1), (2, 1)) == 4
    assert order_of(F5_CTX, (0, 0), (1, 0)) == 1
    assert order_of(F5_CTX, None, (1, 0)) == 2


def test_quotient_order_matches_walk_oracle():
    for ctx in (F5_CTX, F7_CTX):
        curve = ctx.curve
        pts = all_points(curve)
        for s in pts:
            for t in pts:
                expected = coset_order_by_walk(curve.add, ctx.kernel(), (s, t))
                assert order_of(ctx, s, t) == expected, (ctx.p, s, t)


def test_quotient_order_tries_only_divisors_of_m(monkeypatch):
    # ord_R = 2 * 3 at q = 7 and 2^3 * 3 at q = 83: the divisor 2^(a+1) of
    # 2 * ord_R lies below ord_R, yet no order in the quotient can take it.
    # At q = 99991 (ord_R = 2 * 8311) the Hasse bound has 17 bits, past the
    # crossover: both sweeps there sum n * r from the one table of r's
    # doublings, one entry longer than the bound's bits. Every q <= 10^4
    # stays below the crossover. Each sweep tries the divisors of ord_R in
    # ascending order up to its order, from one divisor list for both.
    tried, listed = [], []

    def spy(ctx, n, s, doublings=None):
        tried.append((s, n, doublings))
        return quotient_killed_by(ctx, n, s, doublings)

    def spy_divisors(m):
        listed.append(m)
        return sorted_divisors(m)

    monkeypatch.setattr(quotient, "quotient_killed_by", spy)
    monkeypatch.setattr(quotient, "sorted_divisors", spy_divisors)
    hasse_bits = [hasse_interval(q)[1].bit_length() for q in (10**4, 99991)]
    assert hasse_bits[0] < finite._COMB_MIN_BITS <= hasse_bits[1] == 17
    for q, ord_r in ((7, 6), (83, 24), (99991, 16622)):
        tried.clear()
        listed.clear()
        ctx = make_context(DEFAULT, R1, R2, 2, q)
        rec = evaluate_prime(ctx, R)
        assert rec.ord_r == ord_r and rec.ord_p == rec.ord_q == ord_r
        assert listed == [ord_r], q
        r = reduce_onto(R, ctx.curve)
        table = ctx.curve.doublings(r, 18) if q == 99991 else None
        for pair in (QuotientPoint(r, None), QuotientPoint(r, r)):
            sweep = [n for s, n, _ in tried if s == pair]
            assert sweep == sorted_divisors(ord_r), (q, pair, sweep)
        assert all(doublings == table for _, _, doublings in tried), q


def test_quotient_order_divides_p_lcm():
    rng = random.Random(23)
    ctx = make_context(DEFAULT, R1, R2, 2, 101)
    pts = all_points(ctx.curve)
    for _ in range(30):
        s, t = rng.choice(pts), rng.choice(pts)
        n = order_of(ctx, s, t)
        bound = ctx.p * lcm(ctx.curve.point_order(s), ctx.curve.point_order(t))
        assert bound % n == 0


def draw_split_context(data, q_bound):
    """y^2 = (x - e1)(x - e2)(x - e3) over F_q, q < q_bound, with kernel
    <((e1, 0), (e2, 0))>; distinct roots make the curve nonsingular."""
    q = data.draw(st.sampled_from([q for q in primes_up_to(q_bound - 1) if q >= 5]), label="q")
    e1 = data.draw(st.integers(0, q - 1), label="e1")
    e2 = data.draw(st.integers(0, q - 1), label="e2")
    e3 = (-e1 - e2) % q
    assume(len({e1, e2, e3}) == 3)
    curve = FiniteCurve(q, e1 * e2 + e2 * e3 + e3 * e1, -e1 * e2 * e3)
    return QuotientContext(curve, (e1, 0), (e2, 0), 2)


def full_p_torsion_contexts(p):
    """Synthetic contexts whose curves have all p-torsion rational: the
    first such curve at each prime q = 1 (mod p), in increasing q."""
    for q in primes_up_to(200):
        if q < 5 or q % p != 1:
            continue
        for a, b in product(range(q), repeat=2):
            if (4 * a**3 + 27 * b**2) % q == 0:
                continue
            curve = FiniteCurve(q, a, b)
            pts = all_points(curve)
            if len(pts) % p**2:
                continue
            tors = [s for s in pts if curve.scalar_mul(p, s) is None]
            if len(tors) != p * p:
                continue
            k1 = tors[1]
            span = {curve.scalar_mul(i, k1) for i in range(p)}
            k2 = next(t for t in tors if t not in span)
            yield QuotientContext(curve, k1, k2, p)
            break


@cache
def p3_contexts() -> tuple:
    """Five contexts at p = 3, at q = 7 (F7_CTX) to 37."""
    return tuple(islice(full_p_torsion_contexts(3), 5))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quotient_killed_by_matches_kernel_lookup(data):
    # The inversion-free trial against the affine multiple looked up in the
    # kernel. For P and Q only the identity can match; at p = 2 every kernel
    # point is (e, 0). So only general cosets at p = 3 see a y comparison
    # dropped or scaled by Z^2 for Z^3. Without y, (i * K1, j * K2) reads as
    # zero when j = -i, so the cosets include s in <K1> with t in <K2>.
    if data.draw(st.booleans(), label="p = 3"):
        ctx = data.draw(st.sampled_from(p3_contexts()), label="ctx")
    else:
        ctx = draw_split_context(data, 500)
    curve = ctx.curve
    pts = all_points(curve)
    s = data.draw(st.sampled_from(pts), label="s")
    coset = data.draw(st.sampled_from(["P", "Q", "general", "torsion"]), label="coset")
    if coset == "torsion":
        i, j = data.draw(st.tuples(st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1)), label="i, j")
        s, t = ctx.kernel()[i][0], ctx.kernel()[j][1]
    elif coset == "general":
        t = data.draw(st.sampled_from(pts), label="t")
    else:
        t = None if coset == "P" else s
    m = ctx.p * lcm(order_by_walk(curve.add, s), order_by_walk(curve.add, t))
    n = data.draw(
        st.one_of(st.sampled_from(sorted_divisors(m)), st.integers(-2 * m, 2 * m)), label="n"
    )
    pair = QuotientPoint(s, t)
    expected = quotient_is_zero(ctx, quotient_scalar_mul(ctx, n, pair))
    assert quotient_killed_by(ctx, n, pair) is expected, (ctx, pair, n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quotient_order_random_split_curves(data):
    ctx = draw_split_context(data, 500)
    curve = ctx.curve
    pts = all_points(curve)
    pairs = data.draw(
        st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), min_size=1, max_size=4),
        label="pairs",
    )
    for s, t in pairs:
        n = order_of(ctx, s, t)
        assert n == coset_order_by_walk(curve.add, ctx.kernel(), (s, t))
        m = lcm(order_by_walk(curve.add, s), order_by_walk(curve.add, t))
        assert n == m or n * ctx.p == m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_prime_same_with_and_without_doublings(data):
    # Random split curves at a prime q in [10^3, 10^9], or from 5 up, where
    # tables are tiny, end in the identity and r may have 2-power order
    # (ord_R = 4 at q = 5); r a random point: the table built at every
    # prime, for point_order (its windowed search above 2 * 10^7 included)
    # and both sweeps, against the double-and-add at every one.
    q = data.draw(st.integers(10**3, 10**9) | st.integers(5, 10**3), label="start")
    while not is_prime(q):
        q += 1
    e1 = data.draw(st.integers(0, q - 1), label="e1")
    e2 = data.draw(st.integers(0, q - 1), label="e2")
    e3 = (-e1 - e2) % q
    assume(len({e1, e2, e3}) == 3)
    a, b = (e1 * e2 + e2 * e3 + e3 * e1) % q, -e1 * e2 * e3 % q
    ctx = QuotientContext(FiniteCurve(q, a, b), (e1, 0), (e2, 0), 2)
    x = data.draw(st.integers(0, q - 1), label="x")
    while (y := sqrt_mod(x**3 + a * x + b, q)) is None:
        x = (x + 1) % q
    records = []
    for bits in (0, 10**9):
        with mock.patch.object(finite, "_COMB_MIN_BITS", bits):
            records.append(evaluate_prime(ctx, RationalPoint(x, y))._replace(elapsed_us=0))
    assert records[0] == records[1], (ctx, x, y)


@settings(max_examples=90, deadline=None)
@given(st.data())
def test_evaluate_prime_same_on_an_isomorphic_model(data):
    # The default config against its model scaled by u, a product of small
    # primes, at a good prime q not dividing u: below 10^4 (no table), near
    # 10^6 (the table, no window) or near 10^10 (the table and the window).
    # The 2-torsion roots and r change mod q unless u^2 = 1 mod q; the
    # records must not.
    u = data.draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1, max_size=4).map(prod), label="u")
    config = default_config()
    model = isomorphic_config(config, u)
    lo, hi = data.draw(st.sampled_from([(5, 10**4), (10**6, 10**6 + 10**4), (10**10, 10**10 + 10**6)]))
    q = data.draw(st.integers(lo, hi), label="start")
    while not (is_prime(q) and q > 3 and u % q and config.curve.discriminant() % q):
        q += 1
    records = []
    for cfg in (config, model):
        ctx = make_context(cfg.curve, cfg.R1, cfg.R2, cfg.p, q)
        records.append(evaluate_prime(ctx, cfg.R)._replace(elapsed_us=0))
    assert records[0] == records[1], (u, q)


def test_evaluate_prime_either_side_of_the_crossover(monkeypatch):
    # The last good prime of the default config whose Hasse bound has fewer
    # than _COMB_MIN_BITS bits keeps the double-and-add. The first past it
    # builds one table of r's doublings, one entry past the bound's bits,
    # and point_order and both sweeps read that table. At both primes the
    # orders are the walk oracles' and the other path's.
    tables, given = [], []
    doublings, point_order = FiniteCurve.doublings, FiniteCurve.point_order

    def spy_doublings(self, s, length):
        tables.append((length, doublings(self, s, length)))
        return tables[-1][1]

    def spy_order(self, s, two_torsion=None, table=None):
        given.append(("point_order", table))
        return point_order(self, s, two_torsion, table)

    def spy_trial(ctx, n, s, table=None):
        given.append(("trial", table))
        return quotient_killed_by(ctx, n, s, table)

    monkeypatch.setattr(FiniteCurve, "doublings", spy_doublings)
    monkeypatch.setattr(FiniteCurve, "point_order", spy_order)
    monkeypatch.setattr(quotient, "quotient_killed_by", spy_trial)
    ctxs = {}
    for q in primes_up_to(17000):
        bits = hasse_interval(q)[1].bit_length()
        if q > 15000 and (bits < finite._COMB_MIN_BITS or bits not in ctxs):
            try:
                ctxs[bits] = make_context(DEFAULT, R1, R2, 2, q)
            except ValueError:
                pass
    assert sorted(ctxs) == [14, 15] == [finite._COMB_MIN_BITS - 1, finite._COMB_MIN_BITS]
    for bits, ctx in sorted(ctxs.items()):
        tables.clear()
        given.clear()
        rec = evaluate_prime(ctx, R)
        table = tables[0][1] if tables else None
        assert [length for length, _ in tables] == ([16] if bits == 15 else []), ctx.curve.q
        assert given[0] == ("point_order", table) and len(given) > 2, ctx.curve.q
        assert all(t is table for _, t in given), ctx.curve.q
        curve, r = ctx.curve, reduce_onto(R, ctx.curve)
        walked = (
            order_by_walk(curve.add, r),
            coset_order_by_walk(curve.add, ctx.kernel(), (r, None)),
            coset_order_by_walk(curve.add, ctx.kernel(), (r, r)),
        )
        assert (rec.ord_r, rec.ord_p, rec.ord_q) == walked, ctx.curve.q
        other_path = 0 if bits < finite._COMB_MIN_BITS else 10**9
        with mock.patch.object(finite, "_COMB_MIN_BITS", other_path):
            assert evaluate_prime(ctx, R)._replace(elapsed_us=0) == rec._replace(elapsed_us=0)


def spy_on_the_table(monkeypatch):
    """Spy on evaluate_prime's table of r's doublings: a list of
    (sweep, n, kept, halved, made) per _multiple call, where sweep is "P"
    or "Q" inside a quotient-order sweep and None before them, kept and
    halved say whether n itself or, for an even n, its half was in the
    table's sums before the call, and made lists the (kind, n) of each
    _comb ("comb") and _jacobian_mul ("jac") call the call made."""
    sweep, calls, made = [None], [], []
    order, multiple = quotient.quotient_order, FiniteCurve._multiple
    comb, jacobian_mul = FiniteCurve._comb, FiniteCurve._jacobian_mul

    def spy_order(ctx, s, m, doublings=None, divisors=None):
        sweep[0] = "Q" if s.rep2 is not None else "P"
        return order(ctx, s, m, doublings, divisors)

    def spy_multiple(self, n, s, table):
        kept, halved = n in table.sums, not n & 1 and n >> 1 in table.sums
        before = len(made)
        total = multiple(self, n, s, table)
        calls.append((sweep[0], n, kept, halved, made[before:]))
        return total

    def spy_comb(self, n, table):
        made.append(("comb", n))
        return comb(self, n, table)

    def spy_jacobian_mul(self, n, s):
        made.append(("jac", n))
        return jacobian_mul(self, n, s)

    monkeypatch.setattr(quotient, "quotient_order", spy_order)
    monkeypatch.setattr(FiniteCurve, "_multiple", spy_multiple)
    monkeypatch.setattr(FiniteCurve, "_comb", spy_comb)
    monkeypatch.setattr(FiniteCurve, "_jacobian_mul", spy_jacobian_mul)
    return calls


def test_evaluate_prime_sums_each_multiple_of_r_once(monkeypatch):
    # At q = 10^10 + 19 point_order's walk starts and kill tests and both
    # sweeps ask the one table of r's doublings for multiples of r, some of
    # them more than once. A scalar is summed (_comb, then the double-and-add
    # if that falls back) only when it is neither kept nor an even n whose
    # half is kept, and then once; those others run neither. The sweep for
    # Q, which asks for the multiples that the sweep for P has just made,
    # sums none.
    calls = spy_on_the_table(monkeypatch)
    rec = evaluate_prime(make_context(DEFAULT, R1, R2, 2, 10**10 + 19), R)
    assert rec.ord_r == rec.ord_p == rec.ord_q
    asked = [n for _, n, _, _, _ in calls]
    assert len(asked) > len(set(asked))
    summed = []
    for sweep, n, kept, halved, made in calls:
        if kept or halved:
            assert made == [], (sweep, n, made)
        else:
            assert made[0] == ("comb", n) and set(made) <= {("comb", n), ("jac", n)}, (sweep, n, made)
            summed.append(n)
    # Each distinct scalar is made once, summed or doubled.
    doubled = [n for _, n, kept, halved, _ in calls if halved and not kept]
    assert doubled and sorted(summed + doubled) == sorted(set(asked))
    assert not any(made for s, _, _, _, made in calls if s == "Q")
    assert any(s == "P" and made for s, _, _, _, made in calls)


def test_sweep_for_p_sums_only_odd_multiples(monkeypatch):
    # The sweep for P tries the divisors of ord_R ascending, so when it
    # reaches an even divisor its half is kept, and that multiple is one
    # doubling: _comb runs there on odd divisors alone, while even ones are
    # tried too.
    calls = spy_on_the_table(monkeypatch)
    rec = evaluate_prime(make_context(DEFAULT, R1, R2, 2, 10**10 + 19), R)
    sweep = [(n, made) for s, n, _, _, made in calls if s == "P"]
    assert rec.ord_p % 2 == 0 and any(n % 2 == 0 for n, _ in sweep)
    combed = [n for _, made in sweep for kind, n in made if kind == "comb"]
    assert combed and all(n % 2 for n in combed), combed


def test_quotient_order_names_a_wrong_m():
    # ord_R = 24 at q = 83, and no divisor of 16 is an order: the line names
    # q, the pair and m, and its expression raises the same line again.
    ctx = make_context(DEFAULT, R1, R2, 2, 83)
    pair = QuotientPoint(reduce_onto(R, ctx.curve), None)
    with pytest.raises(InvariantViolation) as info:
        quotient_order(ctx, pair, 16)
    line = str(info.value)
    expression = (
        "quotient_order(QuotientContext(FiniteCurve(83, 62, 63), (79, 0), (82, 0), 2), "
        "QuotientPoint((80, 4), None), 16)"
    )
    assert line == (
        "no annihilator of ((80, 4), None) among the divisors of m = 16 at q = 83; "
        f"m * s is not 0: {expression}"
    )
    names = {
        "quotient_order": quotient_order,
        "QuotientContext": QuotientContext,
        "FiniteCurve": FiniteCurve,
        "QuotientPoint": QuotientPoint,
    }
    with pytest.raises(InvariantViolation) as again:
        eval(expression, names)
    assert str(again.value) == line


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_quotient_orders_of_p_and_q_equal_ord_r(data):
    # The kernel meets E x 0 and the diagonal only in 0 (K2 != 0, K1 != K2),
    # so P = (r, 0) and Q = (r, r) have the order of r in the quotient.
    ctx = draw_split_context(data, 2000)
    curve = ctx.curve
    r = data.draw(st.sampled_from(all_points(curve)), label="r")
    n = curve.point_order(r)
    for pair in ((r, None), (r, r)):
        assert quotient_order(ctx, QuotientPoint(*pair), n) == n
        assert coset_order_by_walk(curve.add, ctx.kernel(), pair) == n


def test_scalar_mul_matches_repeated_add():
    pt = QuotientPoint((2, 1), (3, 2))
    acc = QuotientPoint(None, None)
    for n in range(1, 6):
        acc = quotient_add(F5_CTX, acc, pt)
        assert quotient_scalar_mul(F5_CTX, n, pt) == acc


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_quotient_scalar_mul_is_componentwise(data):
    # The diagonal shortcut must fire for (r, r) only: not for (r, 0), not
    # for (r, -r), which shares r's x, and not for an unrelated t.
    ctx = draw_split_context(data, 500)
    curve = ctx.curve
    pts = all_points(curve)
    s = data.draw(st.sampled_from(pts), label="s")
    t = data.draw(st.sampled_from([None, s, curve.neg(s), data.draw(st.sampled_from(pts))]), label="t")
    bound = 2 * lcm(curve.point_order(s), curve.point_order(t))
    n = data.draw(st.integers(-bound, bound), label="n")
    assert quotient_scalar_mul(ctx, n, QuotientPoint(s, t)) == (curve.scalar_mul(n, s), curve.scalar_mul(n, t))


def count_adds(monkeypatch) -> list:
    """A list that grows by one at every FiniteCurve.add call from now on."""
    calls = []
    add = FiniteCurve.add

    def counted(self, s, t):
        calls.append(None)
        return add(self, s, t)

    monkeypatch.setattr(FiniteCurve, "add", counted)
    return calls


def test_quotient_trial_costs_one_scalar_mul(monkeypatch):
    # Q = (r, r) reuses n * r, and the identity in P = (r, 0) costs nothing.
    ctx = make_context(DEFAULT, R1, R2, 2, 9973)
    r = reduce_onto(R, ctx.curve)
    ord_r = ctx.curve.point_order(r)
    calls = count_adds(monkeypatch)

    def adds(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    for n in (0, 1, 2, 12, -77, ord_r // 2, ord_r):
        alone = adds(ctx.curve.scalar_mul, n, r)
        assert adds(ctx.curve.scalar_mul, n, None) == 0
        for pair in ((r, r), (r, None)):
            assert adds(quotient_scalar_mul, ctx, n, QuotientPoint(*pair)) == alone, (n, pair)


def test_evaluate_prime_group_operation_budget(monkeypatch):
    # A timing-free pin of the per-prime cost: FiniteCurve.add calls while
    # evaluate_prime runs at the default config's good primes below 2000.
    # Multiplying both components at every quotient-order trial made 74,728;
    # one multiplication per trial made 47,074, and point_order's kill tests
    # by killed_by made 34,291. With scalar_mul on the same Jacobian core,
    # which calls add only in one rare case, the baby and giant steps of
    # _annihilator made nearly all of the 1,905 left. Those steps now run in
    # two lanes whose additions share one inversion (_add_pair, 249 calls);
    # add keeps the doublings, the baby lanes' last odd step and a lane step
    # that meets a doubling (920 calls, _add_pair's included). A cheaper path
    # still passes.
    config = default_config()._replace(prime_bound=2000)
    ctxs = [make_context(DEFAULT, R1, R2, 2, q) for q in classify_primes(config)[0]]
    assert len(ctxs) == 301
    calls = count_adds(monkeypatch)
    pairs = []
    add_pair = FiniteCurve._add_pair

    def counted_pair(self, *points):
        pairs.append(None)
        return add_pair(self, *points)

    monkeypatch.setattr(FiniteCurve, "_add_pair", counted_pair)
    for ctx in ctxs:
        evaluate_prime(ctx, R)
    assert len(calls) <= 920 and len(pairs) <= 249


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


def test_csv_row_format(tmp_path):
    # write_report prints a record's fields in column order, booleans as true/false.
    ctx = make_context(DEFAULT, R1, R2, 2, 5)
    rec = evaluate_prime(ctx, R)
    report = run_scan(default_config()._replace(prime_bound=6))
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"

    def row(record):
        write_report(report._replace(records=(record,)), csv_path, json_path)
        return csv_path.read_text().split("\n")[1]

    fields = row(rec).split(",")
    assert fields[:4] == ["5", "4", "4", "4"]
    assert fields[4:6] == ["true", "true"]
    assert fields[6].isdigit()
    assert row(rec._replace(ord_p=8, forward_holds=False, elapsed_us=12)) == "5,4,8,4,false,true,12"
