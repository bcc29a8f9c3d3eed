import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from hashlib import sha256
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from suppscan.arith import primes_up_to
from suppscan.cli import cli_main
from suppscan.endo import EndoMatrix
from suppscan.rational import RationalCurve, RationalPoint
from suppscan.scan import (
    CSV_HEADER,
    FRESH_CONTEXTS,
    HypothesisFailure,
    LabConfig,
    ScanReport,
    classify_primes,
    default_config,
    iter_good_primes,
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


def test_iter_good_primes_extends_classify_primes():
    base = small_config(bound=100)
    for cfg in (base, base._replace(curve=RationalCurve(-7, -6)), base._replace(p=7)):
        good, _ = classify_primes(cfg)
        stream = iter_good_primes(cfg)
        assert list(islice(stream, len(good))) == good
        assert list(islice(stream, 2)) == [101, 103]
    assert 5 not in classify_primes(base._replace(curve=RationalCurve(-7, -6)))[0]
    assert 7 not in classify_primes(base._replace(p=7))[0]


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
    # The pool forks all its processes at once, so a huge workers count must
    # be cut down first. A fake pool records its size and maps serially, so
    # no process is started.
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = small_config(bound=60, workers=10_000)
    assert run_scan(cfg).digest() == run_scan(cfg._replace(workers=1)).digest()
    assert sizes == [3]
    # Two good primes (5 and 7): two processes, not three.
    run_scan(small_config(bound=7, workers=10_000))
    assert sizes == [3, 2]


def test_import_leaves_the_process_pool_unloaded():
    # run_scan imports the pool only for workers > 1, the digests import
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
    unwanted = {"dataclasses", "inspect", "hashlib", "importlib.resources"}
    assert not loaded & unwanted
    assert not {m for m in loaded if m.startswith("concurrent")}


def test_value_types_survive_pickling():
    # The process pool pickles the config to every worker and each record back.
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
    assert lines[1].startswith("5,4,4,4,true,true,")
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


def test_cli_scan_computes_the_report_digest_once(tmp_path, capsys, monkeypatch):
    calls = []
    digest = ScanReport.digest
    monkeypatch.setattr(ScanReport, "digest", lambda self: calls.append(1) or digest(self))
    path = write_config(tmp_path, small_config(bound=50))
    csv_path, json_path = tmp_path / "o.csv", tmp_path / "o.json"
    argv = ["scan", "--config", path, "--out-csv", str(csv_path), "--out-json", str(json_path)]
    assert cli_main(argv) == 0
    assert len(calls) == 1
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
    stream = iter_good_primes(cfg)
    fresh = list(islice(stream, 8, 18))
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
    code = cli_main(
        [
            "scan",
            "--config",
            path,
            "--out-csv",
            str(tmp_path / "o.csv"),
            "--out-json",
            str(tmp_path / "o.json"),
        ]
    )
    assert code == 3


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


def run_cli_process(args, timeout=60):
    """The CLI as a user runs it: a fresh interpreter on the source tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "suppscan.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_cli_search_curve(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    assert cli_main(["search-curve", "--height-bound", "5", "--out", str(out)]) == 0
    cfg = LabConfig.from_dict(json.loads(out.read_text()))
    assert cfg == default_config()
    # stdout variant: the field order of LabConfig, unsorted
    assert cli_main(["search-curve", "--height-bound", "5"]) == 0
    assert capsys.readouterr().out == SEARCH_CURVE_5


SEARCH_CURVE_5 = """{
  "curve": [
    -21,
    -20
  ],
  "R": [
    -3,
    4,
    1
  ],
  "R1": [
    -4,
    0,
    1
  ],
  "R2": [
    -1,
    0,
    1
  ],
  "p": 2,
  "prime_bound": 10000,
  "naive_threshold": 100000,
  "entry_bound": 4,
  "workers": 1
}
"""


def test_cli_search_curve_not_found(capsys):
    assert cli_main(["search-curve", "--height-bound", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("search failed: ")


def test_cli_empty_output_path_exit_2(tmp_path, capsys, monkeypatch):
    # An empty --out is refused, not read as "no --out" (stdout).
    assert cli_main(["search-curve", "--height-bound", "5", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --out must name a file\n"

    # refused before the sweep starts, not at the write after it
    def no_sweep(*args, **kwargs):
        raise AssertionError("work started although an output path is empty")

    monkeypatch.setattr("suppscan.cli.run_scan", no_sweep)
    path = write_config(tmp_path, small_config(bound=50))
    json_path = tmp_path / "r.json"
    assert cli_main(["scan", "--config", path, "--out-csv", "", "--out-json", str(json_path)]) == 2
    assert cli_main(["scan", "--config", path, "--out-csv", str(tmp_path / "r.csv"), "--out-json", ""]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: --out-csv must name a file",
        "usage error: --out-json must name a file",
    ]
    assert not json_path.exists() and not (tmp_path / "r.csv").exists()


def test_cli_validate(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    assert cli_main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "curve_ok: True" in out

    cm = small_config()._replace(curve=RationalCurve(-1, 0), R=RationalPoint(2, 2, 1),
                                 R1=RationalPoint(0, 0), R2=RationalPoint(1, 0))
    path = write_config(tmp_path, cm)
    assert cli_main(["validate", "--config", path]) == 1


def test_cli_validate_cubic_that_does_not_split(tmp_path, capsys):
    # y^2 = x^3 + x - 2 = (x - 1)(x^2 + x + 2): (1, 0) has order 2, but the
    # other two roots are not rational, so the 2-torsion is not full. The
    # curve has no CM (j = 432/7), so only the torsion and rank checks fail.
    path = tmp_path / "nonsplit.json"
    one = [1, 0, 1]
    path.write_text(json.dumps({"curve": [1, -2], "R": one, "R1": one, "R2": one, "p": 2}))
    assert cli_main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "curve_ok: True",
        "non_cm: True",
        "full_p_torsion: False",
        "r_infinite_order: False",
        "r1_r2_independent: False",
        "failure: torsion: the cubic does not split over Z",
        "failure: rank: R is a torsion point",
        "failure: torsion: R2 lies in the cyclic group generated by R1",
    ]


def test_cli_scan(tmp_path, capsys):
    path = write_config(tmp_path, small_config(bound=100))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    code = cli_main(
        ["scan", "--config", path, "--out-csv", str(csv_path), "--out-json", str(json_path)]
    )
    assert code == 0
    assert csv_path.read_text().startswith(CSV_HEADER)
    assert "forward rate 1" in capsys.readouterr().out


def test_cli_deeply_nested_config_exit_2(tmp_path, capsys):
    # json.load raises RecursionError on deep nesting; that is a malformed
    # config (exit 2, one line), not a traceback with exit 1.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli_main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: cannot load config {path}: ")


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


def test_cli_scan_missing_config(tmp_path, capsys):
    code = cli_main(
        [
            "scan",
            "--config",
            str(tmp_path / "nope.json"),
            "--out-csv",
            str(tmp_path / "o.csv"),
            "--out-json",
            str(tmp_path / "o.json"),
        ]
    )
    assert code == 2


def test_cli_usage_errors(capsys):
    assert cli_main([]) == 2
    assert cli_main(["scan"]) == 2
    assert cli_main(["no-relation", "--p", "4"]) == 2
    assert cli_main(["bogus"]) == 2


def test_cli_out_of_range_values_exit_2(tmp_path, capsys):
    outs = ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]
    good = small_config(bound=50).to_dict()
    bad_path = tmp_path / "bad.json"
    for bad in (
        {"entry_bound": 0},
        {"entry_bound": -1},
        {"workers": 0},
        {"curve": [-21.9, -20]},  # not truncated to -21
        {"p": True},  # not read as p = 1
    ):
        bad_path.write_text(json.dumps({**good, **bad}))
        assert cli_main(["validate", "--config", str(bad_path)]) == 2
        assert cli_main(["scan", "--config", str(bad_path), *outs]) == 2
    good_path = write_config(tmp_path, small_config(bound=50))
    assert cli_main(["scan", "--config", good_path, "--workers", "0", *outs]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 11 and all(line.startswith("usage error: ") for line in err)

    # as a user runs it: one line on stderr, no traceback
    bad_path.write_text(json.dumps({**good, "entry_bound": 0}))
    proc = run_cli_process(["scan", "--config", str(bad_path), *outs])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "entry_bound must be >= 1" in proc.stderr


def test_cli_unknown_config_key_exit_2(tmp_path, capsys):
    # A misspelt key must not leave the default in force unnoticed.
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({**small_config(bound=50).to_dict(), "prime_bund": 50}))
    outs = ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]
    assert cli_main(["scan", "--config", str(path), *outs]) == 2
    assert cli_main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("usage error: ") and "'prime_bund'" in line for line in err)
    assert not (tmp_path / "o.csv").exists()


def test_cli_missing_output_dir_exit_2(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing"
    path = write_config(tmp_path, small_config(bound=50))
    ok = ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]

    # refused before the sweep starts
    def no_sweep(*args, **kwargs):
        raise AssertionError("work started despite a missing output directory")

    monkeypatch.setattr("suppscan.cli.run_scan", no_sweep)
    assert cli_main(["scan", "--config", path, *ok[:2], "--out-json", str(missing / "o.json")]) == 2
    assert cli_main(["scan", "--config", path, "--out-csv", str(missing / "o.csv"), *ok[2:]]) == 2
    monkeypatch.setattr("suppscan.cli.search_curve", no_sweep)
    assert cli_main(["search-curve", "--height-bound", "5", "--out", str(missing / "c.json")]) == 2
    monkeypatch.undo()
    # an output path that is a directory is a usage error too
    assert cli_main(["scan", "--config", path, "--out-csv", str(tmp_path), *ok[2:]]) == 2
    assert cli_main(["search-curve", "--height-bound", "5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("usage error: ") for line in err)
    assert all("does not exist" in line for line in err[:3])
    assert not missing.exists()

    proc = run_cli_process(["scan", "--config", path, "--out-csv", str(missing / "o.csv"), *ok[2:]])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "does not exist" in proc.stderr


def test_cli_scan_refuses_one_file_for_both_reports(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, small_config(bound=50))

    def no_sweep(*args, **kwargs):
        raise AssertionError("work started although both reports name one file")

    monkeypatch.setattr("suppscan.cli.run_scan", no_sweep)
    out = tmp_path / "r"
    (tmp_path / "d").mkdir()
    (tmp_path / "link").symlink_to(out)
    for other in (out, tmp_path / "d" / ".." / "r", tmp_path / "link"):
        argv = ["scan", "--config", path, "--out-csv", str(out), "--out-json", str(other)]
        assert cli_main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("usage error: ") and "same file" in line for line in err)
    assert not out.exists()


def test_cli_scan_refuses_to_overwrite_its_config(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, small_config(bound=50))
    before = Path(path).read_bytes()

    def no_sweep(*args, **kwargs):
        raise AssertionError("work started although a report names the config")

    monkeypatch.setattr("suppscan.cli.run_scan", no_sweep)
    (tmp_path / "link.json").symlink_to(path)
    other = str(tmp_path / "o.out")
    for argv in (
        ["--out-csv", other, "--out-json", path],
        ["--out-csv", path, "--out-json", other],
        ["--out-csv", other, "--out-json", str(tmp_path / "link.json")],
    ):
        assert cli_main(["scan", "--config", path, *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("usage error: --config and --out-") for line in err)
    assert all(line.endswith(f"name the same file {path}") for line in err)
    assert Path(path).read_bytes() == before
    assert not Path(other).exists()
    monkeypatch.undo()
    assert cli_main(["validate", "--config", path]) == 0


def test_cli_scan_refuses_a_directory_as_output(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, small_config(bound=50))
    file_out = str(tmp_path / "o.out")

    def no_sweep(*args, **kwargs):
        raise AssertionError("work started although an output is a directory")

    monkeypatch.setattr("suppscan.cli.run_scan", no_sweep)
    for csv_path, json_path in ((str(tmp_path), file_out), (file_out, str(tmp_path))):
        assert cli_main(["scan", "--config", path, "--out-csv", csv_path, "--out-json", json_path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: --out-csv {tmp_path} is a directory",
        f"usage error: --out-json {tmp_path} is a directory",
    ]
    assert not Path(file_out).exists()


def test_cli_no_relation(capsys):
    assert cli_main(["no-relation", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "medium_relation_impossible" in out
    assert "impossible" in out
    assert cli_main(["no-relation", "--p", "97"]) == 0


def test_cli_no_relation_large_prime():
    # p = 2^61 - 1: the residue count must not loop over k mod p. A fresh
    # process with a timeout fails, not hangs.
    p = 2**61 - 1
    proc = run_cli_process(["no-relation", "--p", str(p)], timeout=20)
    assert proc.returncode == 0
    assert f"Residue check: 0 of {p**5} tuples" in proc.stdout


def test_cli_no_relation_tests_primality_once(monkeypatch, capsys):
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
    assert cli_main(["no-relation", "--p", str(p)]) == 0
    assert calls == [p]
    assert cli_main(["no-relation", "--p", "4"]) == 2
    assert capsys.readouterr().err == "usage error: --p must be prime, got 4\n"


def test_cli_p_beyond_the_proved_primality_bound(tmp_path, capsys):
    # A composite that the first 12 primes as Miller-Rabin witnesses pass.
    assert cli_main(["no-relation", "--p", "318665857834031151167461"]) == 2
    assert capsys.readouterr().err == (
        "usage error: --p must be prime, got 318665857834031151167461\n"
    )
    # At the bound the primality test has no proved answer: one line naming it.
    big = 3317044064679887385961981
    reason = f"{big} is at or above {big}, the proved primality bound"
    proc = run_cli_process(["no-relation", "--p", str(big)])
    assert proc.returncode == 2
    assert proc.stderr == f"usage error: --p {reason}\n"
    path = write_config(tmp_path, default_config()._replace(p=big))
    assert cli_main(["validate", "--config", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("failure")] == [f"failure: torsion: p = {reason}"]
    outs = ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]
    for argv in (["scan", "--config", path, *outs], ["endo-check", "--config", path]):
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"hypothesis failure: torsion: p = {reason}\n"
    assert not (tmp_path / "o.csv").exists()


def test_cli_endo_check(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    assert cli_main(["endo-check", "--config", path, "--primes", "4"]) == 0
    out = capsys.readouterr().out
    assert "16/16" in out


def test_cli_endo_check_mismatch_is_an_invariant_violation(tmp_path, capsys, monkeypatch):
    # Kernel preservation that holds for every matrix disagrees with descent
    # on the 14 residue matrices mod 2 that do not descend.
    monkeypatch.setattr("suppscan.cli.kernel_preserved", lambda m, ctx: True)
    path = write_config(tmp_path, small_config())
    assert cli_main(["endo-check", "--config", path, "--primes", "3"]) == 3
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert len(out) == 3 and all(re.fullmatch(r"q=\d+: 2/16 residue matrices agree", line) for line in out)
    assert captured.err == (
        "invariant violation: descent criterion and kernel preservation disagree on 42 residue matrices\n"
    )


def test_cli_endo_check_validates_first(tmp_path, capsys):
    good = default_config().to_dict()
    bad_path = tmp_path / "bad.json"
    for bad, failure in (
        ({"p": 4}, "torsion: p = 4 is not prime"),
        ({"R1": [0, 1, 0]}, "torsion: R1 does not have exact order 2"),
    ):
        bad_path.write_text(json.dumps({**good, **bad}))
        assert cli_main(["endo-check", "--config", str(bad_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"hypothesis failure: {failure}"]

    # A singular curve has no good prime, so the prime stream never yields:
    # only validation stops it. A fresh process with a timeout fails, not hangs.
    bad_path.write_text(json.dumps({**good, "curve": [0, 0]}))
    proc = run_cli_process(["endo-check", "--config", str(bad_path)])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["hypothesis failure: curve: discriminant is zero"]
