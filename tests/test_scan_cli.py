import json
import os
import pickle
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cli_cases import CASES, SEARCH_CURVE_5, Link
from oracles import good_primes_by_trial_division, isomorphic_config
from suppscan.arith import primes_up_to
from suppscan.cli import cli_main
from suppscan.endo import EndoMatrix
from suppscan.finite import FiniteCurve, InvariantViolation
from suppscan.quotient import evaluate_prime, make_context
from suppscan.rational import RationalCurve, RationalPoint
from suppscan.scan import (
    CSV_HEADER,
    FRESH_CONTEXTS,
    HypothesisFailure,
    LabConfig,
    ScanReport,
    classify_primes,
    default_config,
    first_good_primes,
    run_scan,
    write_report,
)


def small_config(bound=300, workers=1):
    return default_config()._replace(prime_bound=bound, workers=workers)


def strip_elapsed(csv_text):
    lines = csv_text.strip().split("\n")
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_default_config_is_frozen_search_output():
    cfg = default_config()
    assert cfg.curve == RationalCurve(-21, -20)
    assert cfg.R == RationalPoint(-3, 4)
    assert cfg.R1 == RationalPoint(-4, 0)
    assert cfg.R2 == RationalPoint(-1, 0)
    assert cfg.p == 2
    assert cfg.prime_bound == 10_000
    assert cfg.validate().ok
    assert json.loads(SEARCH_CURVE_5) == cfg.to_dict()


def test_config_roundtrip_and_digest():
    cfg = default_config()
    again = LabConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert again.digest() == cfg.digest()
    # workers is a runtime knob: it must not affect the digest
    assert cfg._replace(workers=8).digest() == cfg.digest()
    assert cfg._replace(prime_bound=7).digest() != cfg.digest()


def test_config_malformed():
    good = default_config().to_dict()
    for data in (
        {"curve": {"a": 1}},
        {**good, "entry_bound": 0},
        {**good, "entry_bound": -2},
        {**good, "workers": 0},
        # only JSON integers: a float or a bool is not read as an int
        {**good, "curve": [-21.9, -20]},
        {**good, "p": True},
        {**good, "R": [-3, "4", 1]},
        {**good, "prime_bound": 1e4},
        {**good, "naive_threshold": 100_000.0},
        {**good, "workers": False},
        {**good, "prime_bund": 50},
    ):
        with pytest.raises(ValueError, match="malformed config"):
            LabConfig.from_dict(data)
    # The message names the problem, not the bare exception.
    without_p = {k: v for k, v in good.items() if k != "p"}
    for data, message in (
        (without_p, "missing key 'p'"),
        ([good], "the config must be a JSON object"),
    ):
        with pytest.raises(ValueError, match=f"^malformed config: {message}$"):
            LabConfig.from_dict(data)


def test_config_defaults():
    cfg = default_config()
    required = {k: v for k, v in cfg.to_dict().items() if k in ("curve", "R", "R1", "R2", "p")}
    assert LabConfig.from_dict(required) == cfg
    assert LabConfig(cfg.curve, cfg.R, cfg.R1, cfg.R2, 2) == cfg
    assert LabConfig(cfg.curve, cfg.R, cfg.R1, cfg.R2, 2, 10_000, 100_000, 4, 1) == cfg


def test_first_good_primes_extends_classify_primes():
    base = small_config(bound=100)
    for cfg in (base, base._replace(curve=RationalCurve(-7, -6)), base._replace(p=7)):
        good, _ = classify_primes(cfg)
        assert first_good_primes(cfg, len(good)) == good
        assert first_good_primes(cfg, len(good) + 2)[len(good) :] == [101, 103]
    assert 5 not in classify_primes(base._replace(curve=RationalCurve(-7, -6)))[0]
    assert 7 not in classify_primes(base._replace(p=7))[0]


def test_first_good_primes_match_trial_division_on_every_drawable_config(monkeypatch):
    # The 63 configs the benchmark can draw, whose discriminants skip many
    # small primes, and the default curve at p = 7 for the torsion-prime
    # rule. Counts 1-40 take the helper through its first doublings.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import inputs

    configs = [LabConfig.from_dict(c) for c in inputs.all_configs()]
    assert len(configs) == 63
    for cfg in configs + [configs[0]._replace(p=7)]:
        expected = good_primes_by_trial_division(cfg, 40)
        for count in range(1, 41):
            assert first_good_primes(cfg, count) == expected[:count], (cfg.curve, cfg.p, count)


def test_classify_primes_complete():
    cfg = small_config(bound=100)
    good, skipped = classify_primes(cfg)
    assert sorted(good + [q for q, _ in skipped]) == primes_up_to(100)
    assert dict(skipped) == {2: "short-Weierstrass exclusion", 3: "short-Weierstrass exclusion"}


def test_classify_primes_skips_discriminant_divisors():
    cfg = small_config(bound=30)._replace(curve=RationalCurve(-7, -6))  # disc 6400
    _, skipped = classify_primes(cfg)
    assert (5, "divides the discriminant") in skipped


def test_run_scan_small():
    rep = run_scan(small_config())
    assert rep.primes_scanned == len(primes_up_to(300)) - 2
    assert [r.q for r in rep.records] == sorted(r.q for r in rep.records)
    assert rep.condition1_forward_rate == Fraction(1)
    assert rep.condition1_backward_rate == Fraction(1)
    for rec in rep.records:
        assert rec.ord_p == rec.ord_q == rec.ord_r


def test_run_scan_empty_range():
    rep = run_scan(small_config(bound=4))
    assert rep.primes_scanned == 0
    assert rep.records == ()
    assert rep.condition1_forward_rate == Fraction(1)
    assert [q for q, _ in rep.primes_skipped] == [2, 3]


def test_run_scan_rejects_cm_curve():
    cfg = small_config()._replace(
        curve=RationalCurve(-1, 0),
        R=RationalPoint(2, 2, 1),
        R1=RationalPoint(0, 0),
        R2=RationalPoint(1, 0),
    )
    with pytest.raises(HypothesisFailure) as err:
        run_scan(cfg)
    assert not err.value.report.non_cm


def test_run_scan_certificates():
    rep = run_scan(small_config())
    weak = rep.weak_relation
    assert weak.k == 2 and weak.f == EndoMatrix(2, 0, 2, 0)
    assert weak.transposed_k == 2 and weak.transposed_f == EndoMatrix(0, 2, 0, 0)
    assert len(weak.verified_primes) == 10
    assert set(weak.verified_primes).isdisjoint(weak.searched_primes)
    med = rep.medium_impossibility
    assert med.residue_solutions == 0


def test_scan_deterministic_across_workers(tmp_path):
    rep1 = run_scan(small_config(workers=1))
    rep8 = run_scan(small_config(workers=8))
    assert rep1.digest() == rep8.digest()
    csv1, json1 = tmp_path / "a.csv", tmp_path / "a.json"
    csv8, json8 = tmp_path / "b.csv", tmp_path / "b.json"
    write_report(rep1, csv1, json1)
    write_report(rep8, csv8, json8)
    assert strip_elapsed(csv1.read_text()) == strip_elapsed(csv8.read_text())
    d1 = json.loads(json1.read_text())
    d8 = json.loads(json8.read_text())
    assert d1["report_digest"] == d8["report_digest"]
    assert d1["config_digest"] == d8["config_digest"]


@settings(max_examples=10, deadline=None)
@given(prime_bound=st.integers(5, 400), entry_bound=st.integers(1, 4))
def test_report_digest_is_the_same_for_any_worker_count(prime_bound, entry_bound):
    cfg = small_config(bound=prime_bound)._replace(entry_bound=entry_bound)
    serial = run_scan(cfg._replace(workers=1))
    assert serial.digest() == run_scan(cfg._replace(workers=2)).digest()


def test_scan_computes_each_order_of_r_once(monkeypatch):
    # The relation search reads ord_R off the sweep's records, so R is
    # ordered once per good prime; only the fresh re-check contexts are
    # built a second time.
    import suppscan.scan as scan_mod
    from suppscan.finite import FiniteCurve

    calls = {"point_order": 0, "make_context": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for owner, name in ((FiniteCurve, "point_order"), (scan_mod, "make_context")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    report = run_scan(small_config(bound=300))
    n = report.primes_scanned
    assert calls == {"point_order": n, "make_context": n + FRESH_CONTEXTS}
    # Below 8 good primes the search evaluates the missing search primes
    # itself, and finds the same certificate.
    for bound in (7, 20):
        weak = run_scan(small_config(bound=bound)).weak_relation
        assert weak.to_dict() == report.weak_relation.to_dict()


def test_scan_caps_the_pool_at_the_primes_and_cores(monkeypatch):
    # Each worker is a forked process, so a huge workers count must be cut
    # down first. The forks are real; the parent counts them.
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = small_config(bound=60, workers=10_000)
    assert run_scan(cfg).digest() == run_scan(cfg._replace(workers=1)).digest()
    assert len(forks) == 3
    # Two good primes (5 and 7): two processes, not three.
    run_scan(small_config(bound=7, workers=10_000))
    assert len(forks) == 5


def test_import_leaves_the_process_pool_unloaded():
    # run_scan imports pickle only for workers > 1, the digests import
    # hashlib when called, and nothing imports importlib.resources; no
    # value type is a dataclass, so no dataclass machinery loads either.
    # Only modules the import itself adds count: site may preload some.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; before = set(sys.modules); import suppscan, suppscan.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "suppscan.cli" in loaded
    unwanted = {"dataclasses", "inspect", "hashlib", "importlib.resources", "multiprocessing", "pickle"}
    assert not loaded & unwanted
    assert not {m for m in loaded if m.startswith("concurrent")}


def test_value_types_survive_pickling():
    # Each forked worker pickles its records back to the parent.
    cfg = small_config(bound=30)
    record = run_scan(cfg).records[0]
    for value in (cfg, record):
        again = pickle.loads(pickle.dumps(value))
        assert again == value and type(again) is type(value)


def test_write_report_shapes(tmp_path):
    rep = run_scan(small_config(bound=4))
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    write_report(rep, csv_path, json_path)
    assert csv_path.read_text() == CSV_HEADER + "\n"

    rep = run_scan(small_config(bound=6))  # only q = 5
    write_report(rep, csv_path, json_path)
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert re.fullmatch(r"5,4,4,4,true,true,\d+", lines[1])
    payload = json.loads(json_path.read_text())
    assert payload["weak_relation"]["f"] == [[2, 0], [2, 0]]
    assert payload["weak_relation"]["k"] == 2
    assert payload["weak_relation"]["transposed_f"] == [[0, 2], [0, 0]]
    assert payload["condition1_forward_rate"] == "1"


def test_report_bytes_of_a_small_default_scan(tmp_path):
    # Both files byte for byte, elapsed_us stripped: every key, its order,
    # the number formats and the indentation of the JSON.
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    write_report(run_scan(small_config(bound=300)), csv_path, json_path)
    csv_text = re.sub(r",\d+\n", "\n", csv_path.read_text())
    json_text = re.sub(r'\n *"elapsed_us": \d+,', "", json_path.read_text())
    assert "elapsed_us\": " not in json_text
    assert sha256(csv_text.encode()).hexdigest() == (
        "1b9acbb49e4fe040c26bd393c74bc4bd6cd075cdb25b71c05dddf1b479041f0c"
    )
    assert sha256(json_text.encode()).hexdigest() == (
        "cb7f6834484fe2a6a2fe9437c59a219b8071c4cbaaaa0989b332d707390de78b"
    )


def test_scan_same_report_on_an_isomorphic_model(tmp_path):
    # The default config at 10^4 and its model y^2 = x^3 + 6^4*a*x + 6^6*b
    # with every point (x, y) taken to (36x, 216y): the same curve at every
    # q > 3, and 2 and 3 are skipped either way. So the whole report is the
    # same, elapsed_us aside, skipped primes and certificates included, but
    # for the config's digest and with it the report's.
    reports = []
    for i, cfg in enumerate((default_config(), isomorphic_config(default_config(), 6))):
        path, csv_path, json_path = (tmp_path / f"{i}.{ext}" for ext in ("config", "csv", "json"))
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["scan", "--config", str(path), "--out-csv", str(csv_path), "--out-json", str(json_path)]) == 0
        report = json.loads(json_path.read_text())
        for record in report["records"]:
            del record["elapsed_us"]
        digests = [report.pop(key) for key in ("config_digest", "report_digest")]
        reports.append((report, strip_elapsed(csv_path.read_text()), digests))
    (report, csv_rows, digests), (other, other_rows, other_digests) = reports
    assert report["primes_scanned"] == 1227 and report["weak_relation"]["k"] == 2
    assert report == other and csv_rows == other_rows
    assert all(a != b for a, b in zip(digests, other_digests))


def test_report_json_is_json_dumps_of_to_dict(tmp_path):
    # write_report formats the records itself; the bytes are still those of
    # json.dumps with indent 2: no records, records with both booleans, and
    # a not-found certificate.
    found = run_scan(small_config(bound=60))
    flipped = tuple(
        r._replace(forward_holds=i % 2 == 0, backward_holds=i % 3 == 0) for i, r in enumerate(found.records)
    )
    reports = (
        run_scan(small_config(bound=4)),
        found._replace(records=flipped),
        run_scan(small_config(bound=50)._replace(entry_bound=1)),
    )
    assert reports[0].records == () and reports[2].weak_relation.kind == "weak_relation_not_found"
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    for rep in reports:
        digest = write_report(rep, csv_path, json_path)
        want = json.dumps(rep.to_dict() | {"report_digest": digest}, indent=2, sort_keys=True)
        assert json_path.read_text() == want + "\n"
        # The digest splices its records into the summary too.
        compact = json.dumps(rep.to_dict(include_elapsed=False), sort_keys=True, separators=(",", ":"))
        assert digest == sha256(compact.encode()).hexdigest()


def test_cli_scan_computes_the_report_digest_once(tmp_path, capsys, monkeypatch):
    calls = []
    digest = ScanReport.digest
    monkeypatch.setattr(ScanReport, "digest", lambda self: calls.append(1) or digest(self))
    path = write_config(tmp_path, small_config(bound=50))
    csv_path, json_path = tmp_path / "o.csv", tmp_path / "o.json"
    argv = ["scan", "--config", path, "--out-csv", str(csv_path), "--out-json", str(json_path)]
    assert cli_main(argv) == 0
    assert len(calls) == 1
    assert csv_path.read_text().startswith(CSV_HEADER)
    written = json.loads(json_path.read_text())["report_digest"]
    assert capsys.readouterr().out.splitlines()[-1] == f"report digest {written}"


def test_run_scan_fails_loudly_on_order_mismatch(monkeypatch):
    import suppscan.scan as scan_mod
    from suppscan.quotient import InvariantViolation, PrimeRecord

    real = scan_mod._scan_one

    def corrupted(config, q):
        rec = real(config, q)
        if q == 11:
            rec = rec._replace(ord_q=rec.ord_q * 2)
        return rec

    monkeypatch.setattr(scan_mod, "_scan_one", corrupted)
    with pytest.raises(InvariantViolation, match="q in \\[11\\]"):
        run_scan(small_config(bound=50))


def test_transposed_relation_alone_is_reverified(tmp_path, monkeypatch):
    import suppscan.scan as scan_mod
    from suppscan.endo import KIND_WEAK_NOT_FOUND, RelationCertificate
    from suppscan.quotient import InvariantViolation

    def search_finding(transposed_f):
        def search(p, records, entry_bound):
            return RelationCertificate(
                kind=KIND_WEAK_NOT_FOUND,
                p=p,
                transposed_k=2,
                transposed_f=transposed_f,
                searched_primes=tuple(r.q for r in records),
            )

        return search

    cfg = small_config(bound=50)
    fresh = first_good_primes(cfg, 18)[8:]
    # The default config's transposed relation 2P = (0 2; 0 0) Q holds.
    monkeypatch.setattr(scan_mod, "find_weak_relation", search_finding(EndoMatrix(0, 2, 0, 0)))
    rep = run_scan(cfg)
    assert rep.weak_relation.k is None and rep.weak_relation.transposed_k == 2
    assert rep.weak_relation.verified_primes == tuple(fresh)
    # A wrong one (it descends mod 2, but 2P != (2 0; 0 2) Q) must not be
    # written to the report unchecked.
    monkeypatch.setattr(scan_mod, "find_weak_relation", search_finding(EndoMatrix(2, 0, 0, 2)))
    with pytest.raises(InvariantViolation, match="re-verification"):
        run_scan(cfg)
    path = write_config(tmp_path, cfg)
    out = ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]
    assert cli_main(["scan", "--config", path, *out]) == 3


def test_cli_scan_invariant_violation_exit_code(tmp_path, monkeypatch):
    import suppscan.cli as cli_mod
    from suppscan.quotient import InvariantViolation

    def boom(config):
        raise InvariantViolation("kernel generators coincide after reduction")

    monkeypatch.setattr(cli_mod, "run_scan", boom)
    path = write_config(tmp_path, small_config(bound=50))
    out = ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]
    assert cli_main(["scan", "--config", path, *out]) == 3


def test_cli_unequal_orders_name_each_prime_and_a_repro_line(tmp_path, capsys, monkeypatch):
    # evaluate_prime stubbed to halve ord_Q at q = 7, 13 and 29: the line
    # names each such q's orders, reduced curve, r, K1 and K2, and ends with
    # a python -c line that, run with the same stub, raises the same line.
    import suppscan.quotient as quotient_mod
    import suppscan.scan as scan_mod

    def unequal(ctx, R):
        rec = evaluate_prime(ctx, R)
        return rec._replace(ord_q=rec.ord_r // 2) if rec.q in (7, 13, 29) else rec

    monkeypatch.setattr(scan_mod, "evaluate_prime", unequal)
    monkeypatch.setattr(quotient_mod, "evaluate_prime", unequal)
    cfg = small_config(bound=50)
    path = write_config(tmp_path, cfg)
    out = ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]
    assert cli_main(["scan", "--config", path, *out]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    message, repro = err.removeprefix("invariant violation: ").rstrip().split("; to reproduce: ")
    assert message.startswith("order equality broke at q in [7, 13, 29]: q = 7: ")
    for q in (7, 13, 29):
        ctx = make_context(cfg.curve, cfg.R1, cfg.R2, cfg.p, q)
        rec = evaluate_prime(ctx, cfg.R)
        r = (cfg.R.x % q, cfg.R.y % q)
        assert (
            f"q = {q}: ord_R = {rec.ord_r}, ord_P = {rec.ord_p}, ord_Q = {rec.ord_r // 2} on "
            f"FiniteCurve(q={q}, a={ctx.curve.a}, b={ctx.curve.b}), r = {r}, K1 = {ctx.k1}, K2 = {ctx.k2}"
        ) in message
    argv = shlex.split(repro)
    assert argv[:2] == ["python", "-c"] and len(argv) == 3
    with pytest.raises(InvariantViolation) as raised:
        exec(argv[2], {})
    assert f"invariant violation: {raised.value}\n" == err


def test_cli_point_order_without_annihilator_is_an_invariant_violation(tmp_path, capsys, monkeypatch):
    # A scan at p = 2 passes the kernel's 2-torsion x-coordinates, and the
    # repro line repeats them, so it takes the same path as the scan.
    monkeypatch.setattr(FiniteCurve, "_annihilator", lambda self, s, k, lo, hi, odd_only, table: None)
    path = write_config(tmp_path, small_config(bound=50))
    out = ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]
    assert cli_main(["scan", "--config", path, *out]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    found = re.fullmatch(
        r"invariant violation: no annihilator of (\(\d+, \d+\)) in the Hasse interval at q = (\d+); "
        r"the group law is broken: "
        r"(FiniteCurve\(\2, \d+, \d+\)\.point_order\(\1, two_torsion=\(\d+, \d+\)\))\n",
        err,
    )
    assert found
    # The message's own expression reproduces the failure at that q.
    with pytest.raises(InvariantViolation, match=re.escape(err.split(": ", 1)[1].rstrip())):
        eval(found[3], {"FiniteCurve": FiniteCurve})


def test_point_order_repro_line_takes_the_windowed_path(monkeypatch):
    # Above the crossover point_order runs one search, the windowed one;
    # with it failing, the repro line names two_torsion, and evaluating it
    # runs that search again.
    calls = []

    def no_annihilator(self, s, k, lo, hi, odd_only, table):
        calls.append((lo, hi, odd_only))
        return None

    monkeypatch.setattr(FiniteCurve, "_annihilator", no_annihilator)
    q = 10**10 + 19
    ctx = make_context(RationalCurve(-21, -20), RationalPoint(-4, 0), RationalPoint(-1, 0), 2, q)
    with pytest.raises(InvariantViolation) as raised:
        evaluate_prime(ctx, RationalPoint(-3, 4))
    message = str(raised.value)
    expression = message.rsplit(": ", 1)[1]
    assert expression.endswith(f", two_torsion=({ctx.k1[0]}, {ctx.k2[0]}))")
    first = list(calls)
    calls.clear()
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        eval(expression, {"FiniteCurve": FiniteCurve})
    assert calls == first and len(first) == 1


def test_report_digest_ignores_elapsed():
    rep = run_scan(small_config(bound=50))
    bumped = rep._replace(
        records=tuple(r._replace(elapsed_us=r.elapsed_us + 999) for r in rep.records)
    )
    assert bumped.digest() == rep.digest()


# ---------------------------------------------------------------- CLI


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


def run_cli_process(args, cwd, command=None, **kwargs):
    """The CLI as a user runs it: the given command, or by default a fresh
    interpreter on the source tree."""
    env = None
    if command is None:
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        command = [sys.executable, "-m", "suppscan.cli"]
    return subprocess.run([*command, *args], capture_output=True, text=True, cwd=cwd, env=env, **kwargs)


def make_inputs(case, cwd):
    """Create the case's input files in a new cwd; return the bytes of the
    files that must stay unchanged."""
    cwd.mkdir()
    for name, content in case.files.items():
        path = cwd / name
        if isinstance(content, Link):
            if content.hard:
                os.link(cwd / content.target, path)
            else:
                path.symlink_to(content.target)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
    return {name: (cwd / name).read_bytes() for name in case.unchanged}


def check_case(case, cwd, before, code, out, err):
    assert code == case.code and re.fullmatch(case.err, err), (code, err)
    assert case.out.fullmatch(out) if isinstance(case.out, re.Pattern) else out == case.out, out
    assert not [name for name in case.absent if os.path.lexists(cwd / name)]
    assert {name: (cwd / name).read_bytes() for name in before} == before
    assert {name: (cwd / name).read_text() for name in case.wrote} == case.wrote


def work_started(*args, **kwargs):
    raise AssertionError("work started although the command line is refused")


def run_case(case, cwd, monkeypatch, capsys):
    before = make_inputs(case, cwd)
    if case.timeout:  # a fresh process with a timeout fails, not hangs
        proc = run_cli_process(shlex.split(case.argv), cwd, timeout=case.timeout)
        return check_case(case, cwd, before, proc.returncode, proc.stdout, proc.stderr)
    with monkeypatch.context() as patch:
        patch.chdir(cwd)
        if case.before_work:
            patch.setattr("suppscan.cli.run_scan", work_started)
            patch.setattr("suppscan.cli.search_curve", work_started)
        code = cli_main(shlex.split(case.argv))
    captured = capsys.readouterr()
    check_case(case, cwd, before, code, captured.out, captured.err)


def cases_test(cases):
    def test(tmp_path, monkeypatch, capsys):
        for i, case in enumerate(cases):
            run_case(case, tmp_path / str(i), monkeypatch, capsys)

    return test


# One test per group of rows in cli_cases.CASES, named for the group.
for name, cases in CASES.items():
    globals()[name] = cases_test(cases)


@pytest.mark.installed
@pytest.mark.parametrize(
    "case", [case for cases in CASES.values() for case in cases],
    ids=[f"{name.removeprefix('test_cli_')}-{i}" for name, cases in CASES.items() for i in range(len(cases))],
)
def test_installed_console_script(case, tmp_path):
    # Selected by -m installed after pip install: every row, run by the
    # console script in a temporary directory outside the checkout.
    before = make_inputs(case, tmp_path / "cwd")
    proc = run_cli_process(shlex.split(case.argv), tmp_path / "cwd", ["suppscan"], timeout=case.timeout or 120)
    check_case(case, tmp_path / "cwd", before, proc.returncode, proc.stdout, proc.stderr)


def test_cli_out_of_memory_exit_2(tmp_path, capsys, monkeypatch):
    # A prime_bound whose sieve does not fit in memory: the allocation is
    # simulated, as a real one would take this host's memory.
    def no_memory(bound):
        raise MemoryError

    monkeypatch.setattr("suppscan.scan.primes_up_to", no_memory)
    path = write_config(tmp_path, small_config(bound=50))
    json_path = tmp_path / "o.json"
    argv = ["scan", "--config", path, "--out-csv", str(tmp_path / "o.csv"), "--out-json", str(json_path)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: out of memory")
    assert not json_path.exists()


# Exit code and stderr of a scan that runs out of memory.
OUT_OF_MEMORY = (2, "usage error: out of memory; try a smaller prime_bound\n")


def scan_with_failing_worker(tmp_path, capsys, monkeypatch, fail):
    """(exit code, stderr) of `scan` at prime_bound 400 with two forked
    workers, where fail(q) runs before each prime in a worker process (never
    in this one); afterwards no child of this process may be left."""
    import suppscan.scan as scan_mod

    parent, scan_one = os.getpid(), scan_mod._scan_one

    def failing(config, q):
        if os.getpid() != parent:
            fail(q)
        return scan_one(config, q)

    monkeypatch.setattr(scan_mod, "_scan_one", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    tmp_path.mkdir(exist_ok=True)
    path = write_config(tmp_path, small_config(bound=400, workers=2))
    json_path = tmp_path / "o.json"
    argv = ["scan", "--config", path, "--out-csv", str(tmp_path / "o.csv"), "--out-json", str(json_path)]
    code = cli_main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not json_path.exists()
    return code, capsys.readouterr().err


def test_cli_dead_sweep_worker_is_one_line(tmp_path, capsys, monkeypatch):
    # A worker killed by a signal answers nothing: one line naming the
    # worker, the signal and the first and last q of the worker's stripe,
    # not a traceback.
    import signal

    def die_at_101(q):
        if q == 101:
            os.kill(os.getpid(), signal.SIGKILL)

    good = classify_primes(small_config(bound=400))[0]
    worker = good.index(101) % 2
    stripe = good[worker::2]
    assert scan_with_failing_worker(tmp_path, capsys, monkeypatch, die_at_101) == (
        3,
        f"invariant violation: sweep worker {worker} of 2 ended without its records (killed by SIGKILL); "
        f"its stripe runs from q = {stripe[0]} to q = {stripe[-1]}\n",
    )
    assert stripe[0] < 101 < stripe[-1]


def test_cli_dead_sweep_worker_is_reported_while_the_others_run(tmp_path, capsys, monkeypatch):
    # Worker 1 dies at its first prime while worker 0 sleeps 10 s at its
    # own first: the parent waits on both pipes at once, so the line comes
    # within 2 s, and worker 0 is killed, not waited for.
    import signal
    import time

    good = classify_primes(small_config(bound=400))[0]
    stripe = good[1::2]

    def fail(q):
        if q == good[0]:
            time.sleep(10)
        elif q == stripe[0]:
            os.kill(os.getpid(), signal.SIGKILL)

    start = time.monotonic()
    assert scan_with_failing_worker(tmp_path, capsys, monkeypatch, fail) == (
        3,
        "invariant violation: sweep worker 1 of 2 ended without its records (killed by SIGKILL); "
        f"its stripe runs from q = {stripe[0]} to q = {stripe[-1]}\n",
    )
    assert time.monotonic() - start < 2


def test_cli_sweep_worker_exceptions_keep_their_exit_codes(tmp_path, capsys, monkeypatch):
    # An exception inside a worker is raised again in the parent, type and
    # message intact, so cli_main's failure table applies as in a serial scan.
    from suppscan.quotient import InvariantViolation

    def violate_at_101(q):
        if q == 101:
            raise InvariantViolation("planted at q = 101")

    def no_memory(q):
        raise MemoryError

    assert scan_with_failing_worker(tmp_path / "iv", capsys, monkeypatch, violate_at_101) == (
        3,
        "invariant violation: planted at q = 101\n",
    )
    assert scan_with_failing_worker(tmp_path / "oom", capsys, monkeypatch, no_memory) == OUT_OF_MEMORY


def proc_state(pid):
    """(state, ppid) of a process, read from /proc; None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = text.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def running(pid) -> bool:
    state = proc_state(pid)
    return state is not None and state[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the process table in /proc")
def test_sweep_workers_exit_when_the_parent_is_terminated():
    # SIGTERM ends the parent without running its finally, so it cannot kill
    # its workers; each sees its parent change and exits, within 2 s. The
    # child reports 2 usable cores, so that it forks on any host.
    import signal
    import time

    script = (
        "from suppscan import scan\n"
        "scan._usable_cores = lambda: 2\n"
        "scan.run_scan(scan.default_config()._replace(prime_bound=10**6, workers=2))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    parent = subprocess.Popen([sys.executable, "-c", script], env=env)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert parent.poll() is None and time.monotonic() < deadline, "the sweep forked no workers"
            time.sleep(0.05)
            workers = [
                int(d.name)
                for d in Path("/proc").iterdir()
                if d.name.isdigit() and (proc_state(d.name) or ("", 0))[1] == parent.pid
            ]
        parent.send_signal(signal.SIGTERM)
        assert parent.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 2
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if running(pid)], workers
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in filter(running, workers):
            os.kill(pid, signal.SIGKILL)


def scan_in_capped_child(tmp_path, config, limit):
    """`scan` of config in a child process whose address space is capped at
    limit bytes; the reports would go to tmp_path."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    (tmp_path / "config.json").write_text(json.dumps(config.to_dict()))
    argv = ["scan", "--config", "config.json", "--out-csv", "o.csv", "--out-json", "o.json"]
    return run_cli_process(argv, tmp_path, preexec_fn=cap, timeout=120)


def test_cli_sieve_out_of_memory_is_one_line(tmp_path):
    # A real allocation failure, in a child whose address space is capped at
    # 2 GiB: the sieve to 10^12 is refused at once, so nothing is allocated.
    proc = scan_in_capped_child(tmp_path, small_config(bound=10**12), 2 << 30)
    assert (proc.returncode, proc.stderr) == OUT_OF_MEMORY
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_cli_search_box_fits_in_memory_at_any_entry_bound(tmp_path):
    # The relation search reads each entry off its class, so its memory does
    # not grow with entry_bound: a child capped at 400 MiB scans to 50 at
    # entry_bound 10^6 and certifies what a run at entry_bound 4 does.
    weak = []
    for entry_bound, out in ((10**6, tmp_path / "wide"), (4, tmp_path / "narrow")):
        out.mkdir()
        proc = scan_in_capped_child(out, small_config(bound=50)._replace(entry_bound=entry_bound), 400 << 20)
        assert (proc.returncode, proc.stderr) == (0, "")
        weak.append(json.loads((out / "o.json").read_text())["weak_relation"])
    assert weak[0] == weak[1] and weak[0]["kind"] == "weak_relation_found"


def test_cli_no_relation_tests_primality_once(monkeypatch):
    # Count every call, through whichever module bound the name.
    import suppscan
    from suppscan import arith

    calls = []
    original = arith.is_prime

    def counted(n):
        calls.append(n)
        return original(n)

    for module in [suppscan, *vars(suppscan).values()]:
        if getattr(module, "is_prime", None) is original:
            monkeypatch.setattr(module, "is_prime", counted)
    p = 2**61 - 1
    cli_main(["no-relation", "--p", str(p)])
    assert calls == [p]


def test_cli_endo_check_mismatch_is_an_invariant_violation(tmp_path, capsys, monkeypatch):
    # Kernel preservation that follows descent at the first prime and then
    # holds for every matrix disagrees with descent from the second prime
    # on, on the 14 residue matrices mod 2 that do not descend: the line
    # names that prime and three of its matrices. Preservation that fails
    # for every matrix disagrees at the first prime, on the 2 that descend.
    from suppscan.endo import descends

    path = write_config(tmp_path, small_config())
    first, second, _ = first_good_primes(small_config(), 3)
    stubs = (
        lambda m, ctx: descends(m, 2) if ctx.curve.q == first else True,
        lambda m, ctx: False,
    )
    agreeing = ([16, 2, 2], [14, 14, 14])
    lines = (
        f"disagree on 28 residue matrices; first at q = {second}, on 14, among them "
        "[[0, 0], [0, 1]] (descends False, kernel preserved True), "
        "[[0, 0], [1, 0]] (descends False, kernel preserved True), "
        "[[0, 0], [1, 1]] (descends False, kernel preserved True)",
        f"disagree on 6 residue matrices; first at q = {first}, on 2, among them "
        "[[0, 0], [0, 0]] (descends True, kernel preserved False), "
        "[[1, 0], [0, 1]] (descends True, kernel preserved False)",
    )
    for stub, agree, line in zip(stubs, agreeing, lines):
        monkeypatch.setattr("suppscan.cli.kernel_preserved", stub)
        assert cli_main(["endo-check", "--config", path, "--primes", "3"]) == 3
        captured = capsys.readouterr()
        counts = [re.fullmatch(r"q=\d+: (\d+)/16 residue matrices agree", s) for s in captured.out.splitlines()]
        assert [int(c[1]) for c in counts] == agree
        assert captured.err == f"invariant violation: descent criterion and kernel preservation {line}\n"
