"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Criteria with stated budgets are timed single-threaded.
"""

import json
import random
import time
from itertools import product

import pytest

from oracles import all_points, coset_order_by_walk, order_by_walk
from pinned_records import ROOT, wrong_records
from suppscan.arith import is_prime, primes_up_to
from suppscan.cli import cli_main
from suppscan.endo import (
    EndoMatrix,
    descends,
    find_weak_relation,
    kernel_preserved,
    relation_holds,
    verify_no_medium_relation,
)
from suppscan.finite import _COMB_MIN_BITS, FiniteCurve, hasse_interval
from suppscan.quotient import InvariantViolation, evaluate_prime, make_context
from suppscan.rational import (
    CurveSearchError,
    RationalCurve,
    reduce_coordinates,
    search_curve,
)
from suppscan.scan import LabConfig, default_config, run_scan, write_report

# report_digest of the default config (prime_bound 10^4). A change that alters
# the report on purpose records the old and the new digest in CHANGES.md.
DEFAULT_REPORT_DIGEST = "68e227260ca8d6cf6b8e7366cdaf47ceb74605525c4c11f91b8544edcf0d281b"
# The same at prime_bound 10^5, the one pinned scan that reaches the table of
# r's doublings (finite._COMB_MIN_BITS): no q <= 10^4 does.
DEFAULT_REPORT_DIGEST_10_5 = "206babbb3a9fd595f769c29e1f31ee17d71df53a5d03156b282f2dbd7699d4f1"


def _report(criterion: int, label: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} {verdict}: {label}{suffix}")
    assert ok, f"criterion {criterion} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def full_scan():
    """The default scan to 10^4, single-threaded, with wall time."""
    cfg = default_config()
    start = time.perf_counter()
    report = run_scan(cfg._replace(workers=1))
    elapsed = time.perf_counter() - start
    return cfg, report, elapsed


def test_criterion_1_hypothesis_instantiation(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "cfg.json"
    code = cli_main(["search-curve", "--height-bound", "5", "--out", str(out)])
    elapsed = time.perf_counter() - start
    cfg = LabConfig.from_dict(json.loads(out.read_text()))
    report = cfg.validate()
    flags = [
        report.curve_ok,
        report.non_cm,
        report.full_p_torsion,
        report.r_infinite_order,
        report.r1_r2_independent,
    ]
    # the sole height-1 candidate is y^2 = x^3 - x, rejected for CM
    sole = {
        (e1 * e2 + e2 * e3 + e3 * e1, -e1 * e2 * e3)
        for e1 in (-1, 0, 1)
        for e2 in (-1, 0, 1)
        for e3 in (-(e1 + e2),)
        if abs(e3) <= 1 and len({e1, e2, e3}) == 3
    }
    height1_rejected = (
        sole == {(-1, 0)}
        and RationalCurve(-1, 0).is_cm()
        and _raises_search_error(1)
    )
    _report(
        1,
        "search-curve instantiates a config passing all five hypothesis flags",
        code == 0 and all(flags) and elapsed < 10 and height1_rejected,
        f"{elapsed:.2f}s, flags={flags}",
    )


def _raises_search_error(bound):
    try:
        search_curve(bound)
    except CurveSearchError:
        return True
    return False


def test_criterion_2_condition_one_both_directions(full_scan):
    cfg, report, elapsed = full_scan
    rates_exact = (
        report.condition1_forward_rate == 1 and report.condition1_backward_rate == 1
    )
    order_equality = all(r.ord_p == r.ord_q == r.ord_r for r in report.records)

    oracle_ok = True
    for rec in report.records:
        q = rec.q
        if q >= 2000:
            break
        ctx = make_context(cfg.curve, cfg.R1, cfg.R2, cfg.p, q)
        r = reduce_coordinates(cfg.R, q)
        walk_p = coset_order_by_walk(ctx.curve.add, ctx.kernel(), (r, None))
        walk_q = coset_order_by_walk(ctx.curve.add, ctx.kernel(), (r, r))
        if (rec.ord_p, rec.ord_q) != (walk_p, walk_q):
            oracle_ok = False
            break
    _report(
        2,
        "scan to 10^4 gives forward and backward rates exactly 1.0; "
        "q < 2000 matches the coset-walk oracle",
        rates_exact and order_equality and oracle_ok and elapsed < 60,
        f"{report.primes_scanned} primes in {elapsed:.2f}s",
    )


def test_criterion_3_order_oracle_equivalence():
    checked = 0
    ok = True
    # every curve and every point over the tiny fields
    for q in (5, 7, 11, 13):
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                curve = FiniteCurve(q, a, b)
                points = all_points(curve)
                lo, hi = hasse_interval(q)
                ok = ok and lo <= len(points) <= hi
                for s in points:
                    ok = ok and curve.point_order(s) == order_by_walk(curve.add, s)
                    checked += 1
    # every point of the scanned curve's reduction at every field 5 <= q < 500
    for q in primes_up_to(499):
        if q < 5:
            continue
        curve = FiniteCurve(q, -21, -20)
        points = all_points(curve)
        lo, hi = hasse_interval(q)
        ok = ok and lo <= len(points) <= hi
        for s in points:
            ok = ok and curve.point_order(s) == order_by_walk(curve.add, s)
            checked += 1
    _report(
        3,
        "BSGS point order equals the walk-oracle order on every checked point; "
        "counts lie in the Hasse interval",
        ok,
        f"{checked} points",
    )


def test_criterion_4_endomorphism_equivalence():
    cfg = default_config()
    qs = [q for q in primes_up_to(200) if q >= 5][:12]
    agree = 0
    total = 0
    for q in qs:
        ctx = make_context(cfg.curve, cfg.R1, cfg.R2, 2, q)
        for a, b, c, d in product(range(2), repeat=4):
            m = EndoMatrix(a, b, c, d)
            total += 1
            if kernel_preserved(m, ctx) == descends(m, 2):
                agree += 1
    _report(
        4,
        "kernel preservation agrees with the descent congruences on all 16 "
        f"residue matrices at {len(qs)} good primes",
        len(qs) >= 10 and agree == total,
        f"{agree}/{total}",
    )


def test_criterion_5_weak_relation(full_scan):
    cfg, report, _ = full_scan
    weak = report.weak_relation
    expected = (
        weak.k == 2
        and weak.f == EndoMatrix(2, 0, 2, 0)
        and weak.transposed_k == 2
        and weak.transposed_f == EndoMatrix(0, 2, 0, 0)
    )
    # independent re-run of the search at entry_bound 4, then fresh checks
    search_ctxs = [make_context(cfg.curve, cfg.R1, cfg.R2, 2, q) for q in weak.searched_primes]
    cert = find_weak_relation(2, [evaluate_prime(c, cfg.R) for c in search_ctxs], 4)
    fresh_qs = [
        q
        for q in primes_up_to(500)
        if q >= 5 and q not in weak.searched_primes
    ][:10]
    fresh = [make_context(cfg.curve, cfg.R1, cfg.R2, 2, q) for q in fresh_qs]
    reverified = relation_holds(cert.k, cert.f, fresh, cfg.R) and relation_holds(
        cert.transposed_k, cert.transposed_f, fresh, cfg.R, transposed=True
    )
    _report(
        5,
        "entry bound 4 finds k=2, f=(2 0; 2 0) with kQ = fP and reports "
        "(0 2; 0 0) with fQ = 2P; both re-verify at 10 fresh primes",
        expected and cert.k == weak.k and cert.f == weak.f and reverified,
        f"searched={list(weak.searched_primes)}, fresh={fresh_qs}",
    )


def test_criterion_6_no_medium_relation():
    start = time.perf_counter()
    ok = True
    for p in primes_up_to(97):
        cert = verify_no_medium_relation(p)
        ok = (
            ok
            and cert.kind == "medium_relation_impossible"
            and cert.residue_solutions == 0
            and cert.residue_tuples == p**5
            and "impossible" in cert.reason
        )
    elapsed = time.perf_counter() - start
    _report(
        6,
        "no-medium-relation certificate holds for every prime p <= 97",
        ok and elapsed < 1,
        f"{elapsed:.3f}s",
    )


def test_criterion_7_determinism(tmp_path, full_scan):
    cfg, report1, _ = full_scan
    report8 = run_scan(cfg._replace(workers=8))
    paths = {}
    for name, rep in (("w1", report1), ("w8", report8)):
        csv_path = tmp_path / f"{name}.csv"
        json_path = tmp_path / f"{name}.json"
        write_report(rep, csv_path, json_path)
        paths[name] = (csv_path, json_path)

    def body_without_elapsed(path):
        return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

    csv_same = body_without_elapsed(paths["w1"][0]) == body_without_elapsed(paths["w8"][0])
    d1 = json.loads(paths["w1"][1].read_text())["report_digest"]
    d8 = json.loads(paths["w8"][1].read_text())["report_digest"]
    _report(
        7,
        "workers=1 and workers=8 produce identical CSV bodies and JSON digests, "
        "equal to the pinned default report digest",
        csv_same
        and d1 == d8 == DEFAULT_REPORT_DIGEST
        and report1.digest() == report8.digest(),
        f"digest {d1}",
    )


@pytest.fixture(scope="module")
def scan_10_5():
    """The default scan to 10^5, single-threaded, with wall time."""
    cfg = default_config()._replace(prime_bound=10**5, workers=1)
    start = time.perf_counter()
    report = run_scan(cfg)
    elapsed = time.perf_counter() - start
    return cfg, report, elapsed


def test_criterion_7_digest_at_10_5(scan_10_5):
    _, report, elapsed = scan_10_5
    table = [r.q for r in report.records if hasse_interval(r.q)[1].bit_length() >= _COMB_MIN_BITS]
    _report(
        7,
        "the default report at prime_bound 10^5, whose primes from 16,129 on sum "
        "multiples of r from the table of r's doublings, has the pinned digest",
        report.digest() == DEFAULT_REPORT_DIGEST_10_5
        and (len(report.records), len(table)) == (9590, 7715),
        f"digest {report.digest()}, {elapsed:.1f}s",
    )


def test_criterion_7_records_at_10_5_checked_independently(scan_10_5):
    # perfbench's Jacobian arithmetic, which shares no code with suppscan,
    # checks every record of the scan to 10^5 (pinned_records.wrong_records):
    # ord_R is exact, and P and Q have that order.
    cfg, report, _ = scan_10_5
    wrong = wrong_records(cfg, report.records)
    _report(
        7,
        "every record of the default report at prime_bound 10^5 has the exact ord_R, "
        "and P and Q of that order, by independent Jacobian arithmetic",
        len(report.records) == 9590 and not wrong,
        f"{len(report.records)} records, wrong at {wrong[:5]}",
    )


def test_criterion_7_large_q_records_checked_independently(monkeypatch):
    # evaluate_prime at 60 seeded primes drawn log-uniformly from [10^9, 10^12],
    # 20 for each of 3 configs drawn as the benchmark draws them, each record
    # checked by the same independent arithmetic (pinned_records.wrong_records).
    # The primes meet every class of FiniteCurve._two_part, which sets
    # point_order's window: (2, exact), a halving walk to v >= 5 (exact), and
    # the lower bound (4, not exact).
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import inputs

    two_part, classes = FiniteCurve._two_part, set()

    def spy(self, e1, e2):
        found = two_part(self, e1, e2)
        classes.add(found)
        return found

    monkeypatch.setattr(FiniteCurve, "_two_part", spy)
    rng, wrong, start = random.Random(33), [], time.perf_counter()
    for config in map(LabConfig.from_dict, inputs.draw_configs(33, 3)):
        disc, records = config.curve.discriminant(), []
        for _ in range(20):
            q = int(10 ** rng.uniform(9, 12))
            while not is_prime(q) or disc % q == 0:
                q += 1
            records.append(evaluate_prime(make_context(config.curve, config.R1, config.R2, config.p, q), config.R))
        wrong += wrong_records(config, records)
    elapsed = time.perf_counter() - start
    _report(
        7,
        "60 records at q in [10^9, 10^12], every 2-part class among them, have the exact "
        "ord_R, and P and Q of that order, by independent Jacobian arithmetic",
        not wrong and {(2, True), (4, False)} <= classes and any(v >= 5 and e for v, e in classes),
        f"classes {sorted(classes)}, wrong at {wrong[:5]}, {elapsed:.2f}s",
    )


def test_criterion_8_reduction_lemma(full_scan):
    cfg, report, _ = full_scan
    # the full scan above already built a context at every good prime without
    # tripping the invariant; rebuild them explicitly to make that the claim
    violations = 0
    for rec in report.records:
        try:
            make_context(cfg.curve, cfg.R1, cfg.R2, cfg.p, rec.q)
        except InvariantViolation:
            violations += 1
    complete = {r.q for r in report.records} | {q for q, _ in report.primes_skipped}
    _report(
        8,
        "reduced kernel generators stay distinct at every good prime of the scan",
        violations == 0 and complete == set(primes_up_to(cfg.prime_bound)),
        f"{len(report.records)} contexts",
    )
