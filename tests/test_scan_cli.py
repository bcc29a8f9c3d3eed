import json
import os
import pickle
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from hashlib import sha256
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cli_cases import CASES, SEARCH_CURVE_5, Link
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
    out = ["--out-csv", str(tmp_path / "o.csv"), "--out-json", str(tmp_path / "o.json")]
    assert cli_main(["scan", "--config", path, *out]) == 3


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


def test_cli_sieve_out_of_memory_is_one_line(tmp_path):
    # A real allocation failure, in a child whose address space is capped at
    # 2 GiB: the sieve to 10^12 is refused at once, so nothing is allocated.
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    (tmp_path / "config.json").write_text(json.dumps(small_config(bound=10**12).to_dict()))
    argv = ["scan", "--config", "config.json", "--out-csv", "o.csv", "--out-json", "o.json"]
    proc = run_cli_process(argv, tmp_path, preexec_fn=cap, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "usage error: out of memory; try a smaller prime_bound\n")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


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
