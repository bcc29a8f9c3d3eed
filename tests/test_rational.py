import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    class_number,
    integer_points_in_range,
    rational_scalar_mul,
    reduce_point,
    split_cubic_roots,
)
from suppscan.arith import primes_up_to
from suppscan.rational import (
    CM_J_INVARIANTS,
    CurveSearchError,
    RationalCurve,
    RationalPoint,
    is_torsion,
    on_curve,
    rational_add,
    reduce_coordinates,
    search_curve,
    torsion_order,
    validate_hypotheses,
)

# Frozen output of search_curve(5); every scan test keys off this tuple.
DEFAULT = RationalCurve(-21, -20)
DEFAULT_R = RationalPoint(-3, 4)
DEFAULT_R1 = RationalPoint(-4, 0)
DEFAULT_R2 = RationalPoint(-1, 0)


def test_discriminant_values():
    assert RationalCurve(-1, 0).discriminant() == 64
    assert RationalCurve(0, 0).discriminant() == 0
    assert RationalCurve(-7, -6).discriminant() == 6400
    assert DEFAULT.discriminant() == 419904


def test_j_invariant_values():
    assert RationalCurve(-1, 0).j_invariant() == 1728
    assert RationalCurve(0, 1).j_invariant() == 0
    assert RationalCurve(-7, -6).j_invariant() == Fraction(148176, 25)
    with pytest.raises(ValueError):
        RationalCurve(0, 0).j_invariant()


def test_cm_list_matches_class_number_one_discriminants():
    # The thirteen negative discriminants with form class number one.
    ones = [d for d in range(-3, -400, -1) if d % 4 in (0, 1) and class_number(d) == 1]
    assert ones == [-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163]
    assert len(CM_J_INVARIANTS) == len(ones)


def test_cm_list_matches_modular_j_values():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    js = set()
    for d in (-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163):
        if d % 4 == 0:
            tau = mp.mpc(0, mp.sqrt(-d) / 2)
        else:
            tau = mp.mpc(mp.mpf(1) / 2, mp.sqrt(-d) / 2)
        j = 1728 * mp.kleinj(tau)
        js.add(int(mp.nint(j.real)))
        assert abs(j.imag) < 1e-30
    assert js == set(CM_J_INVARIANTS)


def test_is_cm():
    assert RationalCurve(-1, 0).is_cm()  # j = 1728
    assert RationalCurve(0, 1).is_cm()  # j = 0
    assert not RationalCurve(-7, -6).is_cm()  # j = 148176/25, not an integer
    assert not DEFAULT.is_cm()


def test_point_normalization():
    assert RationalPoint(2, 4, 2) == RationalPoint(1, 2, 1)
    assert RationalPoint(-3, -6, -3) == RationalPoint(1, 2, 1)
    assert RationalPoint.identity().is_identity
    assert RationalPoint.identity() == RationalPoint(0, -5, 0)
    with pytest.raises(ValueError):
        RationalPoint(1, 0, 0)


def test_point_invariants_on_every_construction_path():
    pt = RationalPoint(2, 4, -2)
    assert pt == RationalPoint(-1, -2, 1) == (-1, -2, 1)
    # _make and _replace normalize like the class and reject a bad identity.
    assert RationalPoint._make((2, 4, -2)) == pt
    assert pt._replace(z=-3) == RationalPoint(1, 2, 3)
    with pytest.raises(ValueError):
        pt._replace(z=0)
    assert RationalPoint._make((0, -5, 0)) == RationalPoint.identity()
    # Copies and unpickling at every protocol rebuild the point through the class.
    assert copy.copy(pt) == pt and copy.deepcopy(pt) == pt
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pt.__reduce_ex__(protocol) == (RationalPoint, (-1, -2, 1))
        assert pickle.loads(pickle.dumps(pt, protocol)) == pt
    # A protocol-0 stream of (1 : 2 : 3) with z edited to 0, no identity.
    stream = pickle.dumps(RationalPoint(1, 2, 3), 0)
    assert stream.count(b"I3\n") == 1
    with pytest.raises(ValueError, match="reserved for the identity"):
        pickle.loads(stream.replace(b"I3\n", b"I0\n"))


def test_from_affine_roundtrip():
    pt = RationalPoint.from_affine(Fraction(105, 16), Fraction(-1163, 64))
    x, y = pt.to_affine()
    assert (x, y) == (Fraction(105, 16), Fraction(-1163, 64))


def test_group_law_basics():
    ident = RationalPoint.identity()
    assert rational_add(DEFAULT, DEFAULT_R, ident) == DEFAULT_R
    assert rational_add(DEFAULT, DEFAULT_R, RationalPoint(-3, -4)) == ident
    # double of (-3, 4) lands at x = 105/16
    twice = rational_add(DEFAULT, DEFAULT_R, DEFAULT_R)
    assert twice.to_affine()[0] == Fraction(105, 16)
    assert on_curve(DEFAULT, twice)


def test_scalar_mul_consistency():
    acc = RationalPoint.identity()
    for n in range(1, 8):
        acc = rational_add(DEFAULT, acc, DEFAULT_R)
        assert rational_scalar_mul(DEFAULT, n, DEFAULT_R) == acc
        assert on_curve(DEFAULT, acc)
    assert rational_scalar_mul(DEFAULT, 0, DEFAULT_R).is_identity
    three = rational_scalar_mul(DEFAULT, 3, DEFAULT_R)
    assert rational_scalar_mul(DEFAULT, -3, DEFAULT_R) == RationalPoint(three.x, -three.y, three.z)


def test_is_torsion():
    assert is_torsion(DEFAULT, RationalPoint.identity())
    assert is_torsion(DEFAULT, DEFAULT_R1)  # y = 0, 2-torsion
    assert is_torsion(DEFAULT, DEFAULT_R2)
    assert not is_torsion(DEFAULT, DEFAULT_R)
    # non-integral coordinates can never be torsion (Lutz-Nagell)
    assert not is_torsion(DEFAULT, rational_scalar_mul(DEFAULT, 2, DEFAULT_R))


def test_is_torsion_nontrivial_order():
    # (2, 3) on y^2 = x^3 + 1 has order 6; exercises the multiple walk.
    curve = RationalCurve(0, 1)
    pt = RationalPoint(2, 3)
    assert on_curve(curve, pt)
    assert is_torsion(curve, pt)
    assert torsion_order(curve, pt) == 6
    assert torsion_order(curve, RationalPoint(-1, 0)) == 2


def test_is_torsion_agrees_with_multiple_walk():
    # independent check: the order is the least n <= 12 with n * pt the
    # identity, and the point is torsion iff there is one
    x3_plus_1 = RationalCurve(0, 1)
    samples = [
        (DEFAULT, pt)
        for pt in (
            RationalPoint.identity(),
            DEFAULT_R,
            DEFAULT_R1,
            DEFAULT_R2,
            rational_scalar_mul(DEFAULT, 3, DEFAULT_R),
        )
    ] + [(x3_plus_1, RationalPoint(x, y)) for x, y in ((-1, 0), (0, 1), (2, 3))]
    orders = []
    for curve, pt in samples:
        walk_order = None
        t = pt
        for n in range(1, 13):
            if t.is_identity:
                walk_order = n
                break
            t = rational_add(curve, t, pt)
        assert torsion_order(curve, pt) == walk_order
        assert is_torsion(curve, pt) == (walk_order is not None)
        orders.append(walk_order)
    assert orders == [1, None, 2, 2, None, 2, 3, 6]


def test_search_curve_height_one_rejected_for_cm():
    # sole candidate is y^2 = x^3 - x with j = 1728
    assert RationalCurve(-1, 0).is_cm()
    with pytest.raises(CurveSearchError):
        search_curve(1)


def test_search_curve_finds_frozen_default():
    curve, R, R1, R2 = search_curve(5)
    assert (curve, R, R1, R2) == (DEFAULT, DEFAULT_R, DEFAULT_R1, DEFAULT_R2)
    assert not is_torsion(curve, R)
    report = validate_hypotheses(curve, R, R1, R2, 2)
    assert report.ok, report.failures


def test_search_curve_other_bounds_also_validate():
    for bound in (2, 3, 4):
        with pytest.raises(CurveSearchError):
            search_curve(bound)
    for bound in (6, 20):
        curve, R, R1, R2 = search_curve(bound)
        assert validate_hypotheses(curve, R, R1, R2, 2).ok


def test_search_point_is_first_in_scan_order():
    # the x scan from -25 upward meets only the 2-torsion point (-4, 0)
    # before hitting (-3, 4)
    pts = integer_points_in_range(-21, -20, -25, -3)
    assert [(x, y) for x, y in pts if y != 0] == [(-3, 4)]
    assert [(x, y) for x, y in pts if y == 0] == [(-4, 0)]


def test_validate_rejects_cm_curve():
    curve = RationalCurve(-1, 0)
    report = validate_hypotheses(
        curve, RationalPoint(0, 0), RationalPoint(1, 0), RationalPoint(-1, 0), 2
    )
    assert not report.non_cm
    assert any("complex multiplication" in f for f in report.failures)
    # CM rejection fires even when the supplied R is not on the curve
    off = validate_hypotheses(
        curve, RationalPoint(2, 2), RationalPoint(1, 0), RationalPoint(-1, 0), 2
    )
    assert not off.non_cm and not off.curve_ok
    assert any("complex multiplication" in f for f in off.failures)


def test_validate_rejects_odd_p():
    report = validate_hypotheses(DEFAULT, DEFAULT_R, DEFAULT_R1, DEFAULT_R2, 3)
    assert not report.full_p_torsion
    assert any("Weil pairing" in f for f in report.failures)


def test_validate_rejects_dependent_torsion():
    report = validate_hypotheses(DEFAULT, DEFAULT_R, DEFAULT_R1, DEFAULT_R1, 2)
    assert not report.r1_r2_independent


@settings(max_examples=300, deadline=None)
@given(
    e1=st.integers(-300, 300),
    e2=st.integers(-300, 300),
    c=st.integers(-300, 300),
    split=st.booleans(),
)
def test_validate_split_test_matches_root_search(e1, e2, c, split):
    # y^2 = (x - e1)(x^2 + e1*x + c). Half the draws take c = e2*e3 with
    # e3 = -e1 - e2, so that the cubic splits; the others mostly do not.
    if split:
        c = e2 * (-e1 - e2)
    curve = RationalCurve(c - e1 * e1, -e1 * c)
    assume(curve.discriminant() != 0)
    R1 = RationalPoint(e1, 0)
    # R1 = R2 = R passes the on-curve and order-2 checks, so the split test runs.
    report = validate_hypotheses(curve, R1, R1, R1, 2)
    no_split = "torsion: the cubic does not split over Z" in report.failures
    assert no_split == (split_cubic_roots(curve) is None)
    assert report.full_p_torsion == (not no_split)


def test_validate_rejects_torsion_r():
    report = validate_hypotheses(DEFAULT, DEFAULT_R1, DEFAULT_R1, DEFAULT_R2, 2)
    assert not report.r_infinite_order


def test_validate_flags_iff_failures():
    good = validate_hypotheses(DEFAULT, DEFAULT_R, DEFAULT_R1, DEFAULT_R2, 2)
    assert good.ok
    assert all(v for k, v in good._asdict().items() if k != "failures")


def test_reduce_point_basics():
    assert reduce_point(DEFAULT, RationalPoint.identity(), 5) is None
    assert reduce_point(DEFAULT, DEFAULT_R1, 5) == (1, 0)
    assert reduce_point(DEFAULT, DEFAULT_R, 5) == (2, 4)
    with pytest.raises(ValueError):
        reduce_point(DEFAULT, DEFAULT_R, 2)
    with pytest.raises(ValueError):
        reduce_point(DEFAULT, DEFAULT_R, 3)
    with pytest.raises(ValueError):
        reduce_point(RationalCurve(-7, -6), RationalPoint(3, 0), 5)  # 5 | 6400


def test_reduce_point_denominator_clears():
    # 2R has denominator 16; reduction mod 7 must still land on the curve
    twice = rational_scalar_mul(DEFAULT, 2, DEFAULT_R)
    finite = DEFAULT.reduce(7)
    assert finite.contains(reduce_point(DEFAULT, twice, 7))


def test_reduction_is_homomorphism():
    rng = random.Random(7)
    finite = {q: DEFAULT.reduce(q) for q in (5, 7, 11, 13, 101)}
    multiples = [rational_scalar_mul(DEFAULT, n, DEFAULT_R) for n in range(6)]
    torsions = [RationalPoint.identity(), DEFAULT_R1, DEFAULT_R2]
    pool = multiples + torsions + [
        rational_add(DEFAULT, m, t) for m in multiples[:3] for t in torsions
    ]
    for _ in range(40):
        s, t = rng.choice(pool), rng.choice(pool)
        total = rational_add(DEFAULT, s, t)
        for q, fin in finite.items():
            lhs = reduce_coordinates(total, q)
            rhs = fin.add(reduce_coordinates(s, q), reduce_coordinates(t, q))
            assert lhs == rhs, (q, s, t)


PRIMES_5_TO_2000 = [q for q in primes_up_to(2000) if q >= 5]


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(-50, 50),
    x0=st.integers(-20, 20),
    y0=st.integers(-20, 20),
    n=st.integers(0, 4),
    m=st.integers(0, 4),
    data=st.data(),
)
def test_reduction_is_homomorphism_random_curves(a, x0, y0, n, m, data):
    # Random curves through an integral point R = (x0, y0): reduction at a
    # good prime maps n*R + m*R to the sum of the reduced multiples.
    b = y0 * y0 - x0**3 - a * x0
    curve = RationalCurve(a, b)
    disc = curve.discriminant()
    assume(disc != 0)
    q = data.draw(st.sampled_from([q for q in PRIMES_5_TO_2000 if disc % q]), label="q")
    finite = curve.reduce(q)
    R = RationalPoint(x0, y0)
    nR, mR = rational_scalar_mul(curve, n, R), rational_scalar_mul(curve, m, R)
    lhs = reduce_coordinates(rational_add(curve, nR, mR), q)
    assert lhs == finite.add(reduce_coordinates(nR, q), reduce_coordinates(mR, q))
    assert finite.contains(lhs)


def test_reduction_injective_on_two_torsion():
    # (-4, 0), (-1, 0), (5, 0) stay distinct mod every good prime
    e3 = RationalPoint(5, 0)
    for q in (5, 7, 11, 13, 17, 101, 997):
        images = {
            reduce_point(DEFAULT, pt, q) for pt in (DEFAULT_R1, DEFAULT_R2, e3)
        }
        assert len(images) == 3
