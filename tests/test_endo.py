import random
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    all_points,
    compose,
    first_relation_by_classes,
    first_relation_by_walk,
    order_by_walk,
    weak_relation_by_sweep,
)
from test_quotient import draw_split_context, full_p_torsion_contexts
from suppscan import endo
from suppscan.arith import primes_up_to
from suppscan.endo import (
    KIND_MEDIUM_IMPOSSIBLE,
    KIND_WEAK_FOUND,
    KIND_WEAK_NOT_FOUND,
    EndoMatrix,
    RelationCertificate,
    apply,
    descends,
    find_weak_relation,
    kernel_preserved,
    relation_holds,
    verify_no_medium_relation,
)
from suppscan.quotient import (
    QuotientPoint,
    evaluate_prime,
    make_context,
    quotient_equal,
)
from suppscan.rational import RationalCurve, RationalPoint

DEFAULT = RationalCurve(-21, -20)
R = RationalPoint(-3, 4)
R1 = RationalPoint(-4, 0)
R2 = RationalPoint(-1, 0)


def ctx_at(q):
    return make_context(DEFAULT, R1, R2, 2, q)


def contexts(n, start=5):
    out = []
    for q in primes_up_to(500):
        if q < start or q in (2, 3):
            continue
        out.append(ctx_at(q))
        if len(out) == n:
            return out
    raise AssertionError("not enough primes")


def test_descends_examples():
    for p in (2, 3, 5, 97):
        assert descends(EndoMatrix(1, 0, 0, 1), p) is True
    assert descends(EndoMatrix(0, 1, 1, 0), 2) is False  # swap matrix
    assert descends(EndoMatrix(2, 0, 2, 0), 2)
    assert descends(EndoMatrix(0, 2, 0, 0), 2)


def test_descends_symbolic_across_primes():
    # p * (any matrix) descends; adding k to the diagonal keeps it descending
    rng = random.Random(41)
    for p in (2, 3, 5, 7, 11, 97):
        for _ in range(20):
            a, b, c, d, k = (rng.randrange(-50, 51) for _ in range(5))
            assert descends(EndoMatrix(p * a, p * b, p * c, p * d), p)
            assert descends(EndoMatrix(k + p * a, p * b, p * c, k + p * d), p)


def test_descent_closed_under_composition():
    rng = random.Random(43)
    for p in (2, 3, 5):
        for _ in range(30):
            m1 = EndoMatrix(*(rng.randrange(-20, 21) for _ in range(4)))
            m2 = EndoMatrix(*(rng.randrange(-20, 21) for _ in range(4)))
            if descends(m1, p) and descends(m2, p):
                assert descends(compose(m1, m2), p)


def test_kernel_preserved_examples():
    ctx = ctx_at(5)
    assert kernel_preserved(EndoMatrix(1, 0, 0, 1), ctx)
    assert not kernel_preserved(EndoMatrix(0, 1, 1, 0), ctx)
    assert kernel_preserved(EndoMatrix(2, 0, 2, 0), ctx)


def test_equivalence_all_residue_matrices_p2():
    for ctx in contexts(10):
        for a, b, c, d in product(range(2), repeat=4):
            m = EndoMatrix(a, b, c, d)
            assert kernel_preserved(m, ctx) == descends(m, 2), (ctx.curve.q, m)


def test_equivalence_lifted_matrices_p2():
    rng = random.Random(47)
    for ctx in contexts(4):
        for _ in range(40):
            m = EndoMatrix(*(rng.randrange(-30, 31) for _ in range(4)))
            assert kernel_preserved(m, ctx) == descends(m, 2)


def test_equivalence_full_3_torsion():
    ctx = next(full_p_torsion_contexts(3))
    for a, b, c, d in product(range(3), repeat=4):
        m = EndoMatrix(a, b, c, d)
        assert kernel_preserved(m, ctx) == descends(m, 3), m


def test_apply_examples():
    ctx = ctx_at(7)
    r = (R.x % 7, R.y % 7)
    P = QuotientPoint(r, None)
    assert apply(EndoMatrix(1, 0, 0, 1), P, ctx) == P
    image = apply(EndoMatrix(2, 0, 2, 0), P, ctx)
    two_r = ctx.curve.scalar_mul(2, r)
    assert image == QuotientPoint(two_r, two_r)
    # p * identity acts as scalar multiplication by p
    assert apply(EndoMatrix(2, 0, 0, 2), P, ctx) == QuotientPoint(two_r, None)
    with pytest.raises(ValueError):
        apply(EndoMatrix(0, 1, 1, 0), P, ctx)


def test_apply_additive_and_composes():
    rng = random.Random(53)
    ctx = ctx_at(11)
    pts = all_points(ctx.curve)
    descending = [
        m
        for m in (
            EndoMatrix(*(rng.randrange(-6, 7) for _ in range(4))) for _ in range(200)
        )
        if descends(m, 2)
    ][:10]
    for _ in range(20):
        s = QuotientPoint(rng.choice(pts), rng.choice(pts))
        t = QuotientPoint(rng.choice(pts), rng.choice(pts))
        m1, m2 = rng.choice(descending), rng.choice(descending)
        from suppscan.quotient import quotient_add

        lhs = apply(m1, quotient_add(ctx, s, t), ctx)
        rhs = quotient_add(ctx, apply(m1, s, ctx), apply(m1, t, ctx))
        assert quotient_equal(ctx, lhs, rhs)
        lhs = apply(compose(m1, m2), s, ctx)
        rhs = apply(m1, apply(m2, s, ctx), ctx)
        assert quotient_equal(ctx, lhs, rhs)


def test_find_weak_relation_default_curve():
    cert = find_weak_relation(2, [evaluate_prime(c, R) for c in contexts(8)], 4)
    assert cert.kind == KIND_WEAK_FOUND
    assert cert.k == 2
    assert cert.f == EndoMatrix(2, 0, 2, 0)
    assert cert.transposed_k == 2
    assert cert.transposed_f == EndoMatrix(0, 2, 0, 0)


def test_weak_relation_reverifies_at_fresh_primes():
    search = contexts(8)
    cert = find_weak_relation(2, [evaluate_prime(c, R) for c in search], 4)
    used = {c.curve.q for c in search}
    fresh = [ctx_at(q) for q in primes_up_to(200) if q >= 31 and q not in used][:10]
    assert len(fresh) == 10
    assert relation_holds(cert.k, cert.f, fresh, R)
    assert relation_holds(cert.transposed_k, cert.transposed_f, fresh, R, transposed=True)
    # and a deliberately wrong relation fails
    assert not relation_holds(1, EndoMatrix(1, 0, 0, 1), fresh, R)


GOOD_PRIMES = [q for q in primes_up_to(2000) if q >= 5]
ENTRIES = st.integers(-40, 40)


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from(GOOD_PRIMES),
    k=ENTRIES,
    a=ENTRIES,
    b=ENTRIES,
    c=ENTRIES,
    d=ENTRIES,
    transposed=st.booleans(),
    on_relation=st.booleans(),
)
def test_relation_holds_matches_order_lattice(q, k, a, b, c, d, transposed, on_relation):
    # Move b, c and d by at most one so that f descends mod 2.
    b, c = b - b % 2, c - c % 2
    if on_relation:
        # Random candidates almost never hold: half the draws make the two
        # sides equal, so both outcomes are seen.
        k -= k % 2
        if transposed:
            a -= a % 2
            b, d = k - a, -c
        else:
            a = c = k
    if (a - d) % 2:
        d += 1 if d < 40 else -1
    f = EndoMatrix(a, b, c, d)
    ctx = ctx_at(q)
    r = (R.x % q, R.y % q)
    # f(P) - k*Q = ((a-k)*r, (c-k)*r) and f(Q) - k*P = ((a+b-k)*r, (c+d)*r);
    # the pair is in the kernel exactly when ord(r) divides both.
    j1, j2 = (a + b - k, c + d) if transposed else (a - k, c - k)
    n = order_by_walk(ctx.curve.add, r)
    expected = j1 % n == 0 and j2 % n == 0
    assert relation_holds(k, f, [ctx], R, transposed=transposed) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_meets_multiples_of_r_only_at_zero(data):
    # The lemma behind find_weak_relation: (j1*r, j2*r) is in the kernel
    # exactly when ord(r) divides j1 and j2, since an i*(K1, K2), i != 0,
    # in <r> x <r> would put the independent K1 and K2 in one cyclic group.
    ctx = draw_split_context(data, 500)
    curve = ctx.curve
    r = data.draw(st.sampled_from(all_points(curve)), label="r")
    n = order_by_walk(curve.add, r)
    js = []
    for label in ("j1", "j2"):
        # Half the draws are multiples of n, so both outcomes are seen.
        j = data.draw(st.integers(-3 * n, 3 * n), label=label)
        js.append(j * n if data.draw(st.booleans(), label=f"{label} on lattice") else j)
    j1, j2 = js
    pair = (curve.scalar_mul(j1, r), curve.scalar_mul(j2, r))
    assert (pair in ctx.kernel()) == (j1 % n == 0 and j2 % n == 0)


def _crt(residues, moduli):
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        x += m * ((r - x) * pow(m, -1, q) % q)
        m *= q
    return x


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_find_weak_relation_matches_sweep_oracle(data):
    # y^2 = (x - e1)(x - e2)(x - e3), |e_i| <= 12, kernel <((e1, 0), (e2, 0))>.
    e1 = data.draw(st.integers(-12, 12), label="e1")
    e2 = data.draw(st.integers(-12, 12), label="e2")
    e3 = -e1 - e2
    assume(abs(e3) <= 12 and len({e1, e2, e3}) == 3)
    curve = RationalCurve(e1 * e2 + e2 * e3 + e3 * e1, -e1 * e2 * e3)
    disc = curve.discriminant()
    usable = [q for q in primes_up_to(100) if q >= 5 and disc % q]
    qs = data.draw(st.lists(st.sampled_from(usable), min_size=3, max_size=8, unique=True))
    ctxs = [make_context(curve, RationalPoint(e1, 0), RationalPoint(e2, 0), 2, q) for q in qs]
    # R is put together by CRT from one drawn point per reduced curve, so
    # the reductions need not come from a rational point. The answer
    # depends on their orders, so half the draws take every point from
    # those of order dividing t: otherwise the orders are large and
    # nearly every search ends in the same relation.
    t = data.draw(st.sampled_from([0, 2, 4, 6, 8, 12]), label="t")
    pts = []
    for ctx in ctxs:
        choices = all_points(ctx.curve)[1:]
        if t:
            choices = [s for s in choices if t % order_by_walk(ctx.curve.add, s) == 0]
        pts.append(data.draw(st.sampled_from(choices)))
    R = RationalPoint(_crt([x for x, _ in pts], qs), _crt([y for _, y in pts], qs))
    entry_bound = data.draw(st.integers(1, 6), label="entry_bound")
    cert = find_weak_relation(2, [evaluate_prime(c, R) for c in ctxs], entry_bound)
    got = (cert.kind, cert.k, cert.f, cert.transposed_k, cert.transposed_f)
    assert got == weak_relation_by_sweep(2, ctxs, R, entry_bound)
    assert cert.searched_primes == tuple(qs)


@pytest.mark.parametrize(
    "orders, entry_bound", [((3, 3, 3), 2), ((5, 5, 5), 3), ((3, 5, 3), 4)]
)
def test_find_weak_relation_with_odd_orders_matches_sweep_oracle(orders, entry_bound):
    # Odd orders of r give relations with odd k and c != 0, which the
    # all-even orders of the sweep test above almost never reach, and
    # orders 3 and 5 tell lcm 15 from the largest order 5.
    ctxs, pts = [], []
    for n in orders:
        for q in primes_up_to(500):
            if q < 5 or q in [c.curve.q for c in ctxs]:
                continue
            ctx = ctx_at(q)
            found = [s for s in all_points(ctx.curve)[1:] if order_by_walk(ctx.curve.add, s) == n]
            if found:
                ctxs.append(ctx)
                pts.append(found[0])
                break
    qs = [ctx.curve.q for ctx in ctxs]
    R_odd = RationalPoint(_crt([x for x, _ in pts], qs), _crt([y for _, y in pts], qs))
    cert = find_weak_relation(2, [evaluate_prime(c, R_odd) for c in ctxs], entry_bound)
    got = (cert.kind, cert.k, cert.f, cert.transposed_k, cert.transposed_f)
    assert got == weak_relation_by_sweep(2, ctxs, R_odd, entry_bound)
    assert relation_holds(cert.k, cert.f, ctxs, R_odd)
    assert relation_holds(cert.transposed_k, cert.transposed_f, ctxs, R_odd, transposed=True)
    # n*Q = 0 = f(P) for f = 0 holds where r has order n, so at the first
    # context, but not at a context where the order is another.
    zero = EndoMatrix(0, 0, 0, 0)
    assert relation_holds(orders[0], zero, ctxs[:1], R_odd)
    assert relation_holds(orders[0], zero, ctxs, R_odd) == (len(set(orders)) == 1)


@pytest.mark.parametrize(
    "orders, entry_bound",
    [
        ({7: 3, 13: 3, 19: 3}, 4),
        ({19: 9, 37: 3, 73: 9}, 4),
        ({19: 9, 37: 3, 73: 9}, 2),
        ({31: 2, 43: 6, 61: 21}, 4),
        ({61: 7, 67: 7, 79: 7}, 3),
        ({31: 2, 61: 7, 67: 7}, 6),
    ],
)
def test_find_weak_relation_at_p3_matches_sweep_oracle(orders, entry_bound):
    # The other search tests run at p = 2, where a slip of p for 2 in the
    # descent congruences goes unseen. Here the kernel is 3-torsion on
    # synthetic curves, and r has the given order at each q. With lcm 7 or
    # 14 the transposed heads a + b = k (mod lcm) fall in several residue
    # classes of a mod 3, of which only a = 0 (mod 3) completes to a relation.
    ctxs = [c for c in islice(full_p_torsion_contexts(3), 10) if c.curve.q in orders]
    qs = [c.curve.q for c in ctxs]
    pts = [
        next(s for s in all_points(c.curve)[1:] if order_by_walk(c.curve.add, s) == orders[q])
        for c, q in zip(ctxs, qs)
    ]
    R3 = RationalPoint(_crt([x for x, _ in pts], qs), _crt([y for _, y in pts], qs))
    cert = find_weak_relation(3, [evaluate_prime(c, R3) for c in ctxs], entry_bound)
    got = (cert.kind, cert.k, cert.f, cert.transposed_k, cert.transposed_f)
    assert got == weak_relation_by_sweep(3, ctxs, R3, entry_bound)
    assert cert.searched_primes == tuple(qs)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 101]),
    st.one_of(st.integers(1, 100), st.integers(10**6 - 100, 10**6 + 100)),
    st.integers(1, 4),
    st.booleans(),
)
def test_first_relation_matches_box_walk(p, L, entry_bound, transposed):
    assert endo._first_relation(p, entry_bound, L, transposed) == first_relation_by_walk(
        p, entry_bound, L, transposed
    )


@given(
    st.integers(0, 40),
    st.integers(-100, 100),
    st.integers(1, 30),
    st.integers(-100, 100),
    st.sampled_from([1, 2, 3, 5, 7]),
)
def test_first_matches_a_walk_of_the_search_order(bound, r, L, s, p):
    # L from 1 to 30 holds every p both as a divisor and not; when p | L,
    # the classes r (mod L) and s (mod p) may not meet at all.
    values = [0] + [v for n in range(1, bound + 1) for v in (n, -n)]
    want = next((v for v in values if (v - r) % L == 0 and (v - s) % p == 0), None)
    assert endo._first(bound, r, L, s, p) == want


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 200),
    st.integers(1, 60),
    st.booleans(),
)
def test_first_relation_matches_class_table(p, L, entry_bound, transposed):
    # Boxes past first_relation_by_walk's reach, with p | L and p not | L:
    # the CRT reading must stop each loop after a whole period, lcm(L, p)
    # for a and c, not L.
    assert endo._first_relation(p, entry_bound, L, transposed) == first_relation_by_classes(
        p, entry_bound, L, transposed
    )


@pytest.mark.parametrize("entry_bound", [24, 48])
def test_first_relation_does_not_walk_class_products(monkeypatch, entry_bound):
    # At p = 2, L = 6 no k = 1 relation exists: c = 1 (mod 6) is odd, and
    # when transposed a + b = 1 (mod 6) with b even makes a, d and c + d odd.
    # A walk over every tail of a class then tries about (2B + 1)^4 / 36
    # matrices at k = 1; a lookup per head tries at most one.
    calls = []
    congruent = endo._congruent
    monkeypatch.setattr(endo, "_congruent", lambda m, p: calls.append(m) or congruent(m, p))
    for transposed in (False, True):
        assert endo._first_relation(2, entry_bound, 6, transposed)[0] == 2
    assert len(calls) <= (2 * entry_bound + 1) ** 2


def test_first_relation_cost_does_not_grow_with_entry_bound(monkeypatch):
    # The default config's L is 48 (p = 2). At k = 1 no relation exists in
    # either orientation, so the transposed search walks a whole period of
    # a, and of c for the tail of odd a, before k = 2. Every loop stops
    # after one period, so the box's size changes no call.
    calls = []
    first = endo._first
    monkeypatch.setattr(endo, "_first", lambda *args: calls.append(args) or first(*args))
    counts = []
    for entry_bound in (100, 10**18):
        calls.clear()
        for transposed in (False, True):
            got = endo._first_relation(2, entry_bound, 48, transposed)
            assert got == first_relation_by_classes(2, 100, 48, transposed)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2 * 48


def test_relation_holds_tests_no_primality(monkeypatch):
    # Every QuotientContext has proved its p prime, so apply does not ask again.
    import suppscan
    from suppscan import arith

    ctxs = contexts(10)
    calls = []
    original = arith.is_prime
    for module in [suppscan, *vars(suppscan).values()]:
        if getattr(module, "is_prime", None) is original:
            monkeypatch.setattr(module, "is_prime", lambda n: calls.append(n) or original(n))
    assert relation_holds(2, EndoMatrix(2, 0, 2, 0), ctxs, R)
    assert relation_holds(2, EndoMatrix(0, 2, 0, 0), ctxs, R, transposed=True)
    assert calls == []


def test_relation_holds_rejects_bad_input():
    ctxs = contexts(3)
    with pytest.raises(ValueError):
        relation_holds(2, EndoMatrix(0, 1, 1, 0), ctxs, R)
    with pytest.raises(ValueError):
        relation_holds(2, EndoMatrix(0, 1, 1, 0), ctxs, R, transposed=True)
    with pytest.raises(ValueError):
        relation_holds(2, EndoMatrix(2, 0, 2, 0), ctxs, RationalPoint(1, 1))


def test_find_weak_relation_small_bound_fails():
    cert = find_weak_relation(2, [evaluate_prime(c, R) for c in contexts(6)], 1)
    assert cert.kind == KIND_WEAK_NOT_FOUND
    assert cert.k is None and cert.f is None


def test_find_weak_relation_preconditions():
    with pytest.raises(ValueError):
        find_weak_relation(2, [evaluate_prime(c, R) for c in contexts(2)], 4)
    with pytest.raises(ValueError):
        find_weak_relation(2, [evaluate_prime(c, R) for c in contexts(3)], 0)


def test_no_medium_relation_small_p():
    cert = verify_no_medium_relation(2)
    assert cert.kind == KIND_MEDIUM_IMPOSSIBLE
    assert cert.residue_solutions == 0
    assert cert.residue_tuples == 32
    assert "p | 1" in cert.reason or "1 = p" in cert.reason
    assert verify_no_medium_relation(3).residue_tuples == 243


def test_no_medium_relation_literal_count_matches_structured():
    # The literal product over all p^5 tuples is the oracle for the count.
    for p in (2, 3, 5, 7, 11):
        literal = tuples = 0
        for k, a, b, c, d in product(range(p), repeat=5):
            tuples += 1
            if (k + p * c + p * d) % p == 0 and (p * a + p * b + k) % p == 1:
                literal += 1
        cert = verify_no_medium_relation(p)
        assert (cert.residue_solutions, cert.residue_tuples) == (literal, tuples)


def test_certificate_to_dict_forms():
    # Only the fields that are set, matrices as rows and primes as lists.
    records = [evaluate_prime(c, R) for c in contexts(6)]
    qs = [5, 7, 11, 13, 17, 19]
    assert find_weak_relation(2, records, 1).to_dict() == {
        "kind": "weak_relation_not_found",
        "p": 2,
        "reason": "no relation with |entries| <= 1 holds at all contexts",
        "searched_primes": qs,
    }
    transposed_only = RelationCertificate(
        kind=KIND_WEAK_NOT_FOUND,
        p=2,
        transposed_k=2,
        transposed_f=EndoMatrix(0, 2, 0, 0),
        searched_primes=(5, 7, 11),
        verified_primes=(13, 17),
    )
    assert transposed_only.to_dict() == {
        "kind": "weak_relation_not_found",
        "p": 2,
        "transposed_k": 2,
        "transposed_f": [[0, 2], [0, 0]],
        "searched_primes": [5, 7, 11],
        "verified_primes": [13, 17],
    }
    assert verify_no_medium_relation(2).to_dict() == {
        "kind": "medium_relation_impossible",
        "p": 2,
        "reason": (
            "second coordinate forces k + p*c + p*d = 0, hence k = 0 (mod p); "
            "first coordinate forces p*a + p*b + k = 1, hence k = 1 (mod p); "
            "subtracting, 1 = p*(a + b - c - d), so p | 1: impossible for p = 2. "
            "Residue check: 0 of 32 tuples satisfy both congruences."
        ),
        "residue_solutions": 0,
        "residue_tuples": 32,
    }


def test_no_medium_relation_all_primes_to_97():
    for p in [p for p in primes_up_to(97)]:
        cert = verify_no_medium_relation(p)
        assert cert.kind == KIND_MEDIUM_IMPOSSIBLE
        assert cert.residue_solutions == 0
        assert cert.residue_tuples == p**5
    with pytest.raises(ValueError):
        verify_no_medium_relation(4)
