"""The four workloads: seeded inputs, timed passes, and output checks.

A run repeats its workload's pass over the same inputs until the time
budget is spent (always at least one pass; a pass is not started when the
previous one says it would overrun). Every operation -- one CLI command or
one prime evaluation -- is timed on its own and followed by a stretch of
the host reference (reference.py), which scales the times. Checks run
between passes, outside every timed region. Load is closed-loop from this
one process; the only pool is the package's own on scan-parallel.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import arith_check as ac
from . import inputs
from .reference import HostReference


@dataclass(frozen=True)
class Sizes:
    scan_prime_bound: int = 10_000
    scan_configs: int = 8
    field_base: int = 10**10
    field_window: int = 1200  # primes per pass, split evenly over the configs
    field_configs: int = 6
    certify_prime_bound: int = 2_000
    certify_entry_bound: int = 8
    certify_configs: int = 16
    setup_starts: int = 15

    def scan_config(self, config: dict) -> dict:
        return {**config, "prime_bound": self.scan_prime_bound, "workers": 1}

    def certify_config(self, config: dict) -> dict:
        return {
            **config,
            "prime_bound": self.certify_prime_bound,
            "entry_bound": self.certify_entry_bound,
            "workers": 1,
        }


FULL = Sizes()
# Seconds-long variant for the benchmark's own tests.
TINY = Sizes(
    scan_prime_bound=600,
    scan_configs=1,
    field_base=10**6,
    field_window=20,
    field_configs=2,
    certify_prime_bound=300,
    certify_entry_bound=4,
    certify_configs=1,
    setup_starts=1,
)

SETUP_SNIPPET = (
    "import json, sys\n"
    "import suppscan\n"
    "suppscan.LabConfig.from_dict(json.load(open(sys.argv[1])))\n"
)


@dataclass
class Tally:
    """Operations attempted and failed, with one line per failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)


@dataclass
class PassResult:
    wall_s: float  # host seconds in operations; checks and reference excluded
    primes: int = 0
    latencies_ms: dict = field(default_factory=dict)  # (config index, q) -> ms

    def add_records(self, index: int, payload: dict | None) -> None:
        """Count a scan report's primes and take their in-program latencies."""
        if payload is None:
            return
        self.primes += len(payload["records"])
        for r in payload["records"]:
            self.latencies_ms[(index, r["q"])] = r["elapsed_us"] / 1000


class Workload:
    """Base: subclasses build inputs, run one timed pass, check outputs."""

    name = ""
    uses_pool = False

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, pinned: dict, tally: Tally):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.pinned = pinned
        self.tally = tally
        self.run_id = 0
        self.tracer = None
        self.reference = HostReference()

    def next_run_id(self) -> None:
        self.run_id += 1
        if self.tracer is not None:
            self.tracer.run_id = self.run_id

    def setup_config_path(self) -> Path:
        raise NotImplementedError

    def one_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def timed_cli(self, label: str, argv: list) -> tuple[float, tuple | None]:
        """One CLI command as one operation: (seconds, (exit code, stdout) or None)."""
        from suppscan.cli import cli_main

        self.tally.attempted += 1
        self.next_run_id()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli_main(argv)
            outcome = code, out.getvalue()
        except Exception as exc:  # an operation failed; keep measuring
            self.tally.fail(f"{label}: {exc!r}")
            outcome = None
        seconds = time.perf_counter() - start
        self.reference.follow(seconds)
        return seconds, outcome


def own_report_digest(payload: dict) -> str:
    """sha256 of the JSON report without timing fields and without the digest."""
    body = {k: v for k, v in payload.items() if k != "report_digest"}
    body["records"] = [{k: v for k, v in r.items() if k != "elapsed_us"} for r in body["records"]]
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def good_primes(config: dict, bound: int) -> list[int]:
    """The benchmark's own classification: 5 <= q <= bound, q != p, q not | disc."""
    a, b = config["curve"]
    disc = -16 * (4 * a**3 + 27 * b**2)
    flags = bytearray([1]) * (bound + 1)
    for n in range(2, math.isqrt(bound) + 1):
        if flags[n]:
            flags[n * n :: n] = bytes(len(range(n * n, bound + 1, n)))
    return [n for n in range(5, bound + 1) if flags[n] and n != config["p"] and disc % n]


def _order_is_right(config: dict, q: int, order: int) -> bool:
    a, b = config["curve"]
    pt = ac.reduce_projective(q, config["R"])
    return pt is not None and ac.on_curve(q, a, b, pt) and ac.is_exact_order(q, a % q, pt, order)


class ScanChecker:
    """Checks one `suppscan scan` output: digests, records, sampled orders."""

    def __init__(self, workload: Workload, sample: int):
        self.w = workload
        self.sample = sample

    def check(self, index: int, config: dict, code: int, stdout: str, csv_path, json_path, full: bool):
        t = self.w.tally
        label = f"scan of config {index} (seed {self.w.seed})"
        if code != 0:
            t.fail(f"{label}: exit code {code}")
            return None
        payload = json.loads(Path(json_path).read_text())
        digest = own_report_digest(payload)
        t.expect(payload.get("report_digest") == digest, f"{label}: report_digest mismatch")
        t.expect(f"report digest {digest}" in stdout, f"{label}: printed digest mismatch")
        pinned = self.w.pinned.get(inputs.config_key(config))
        t.expect(pinned is not None, f"{label}: no pinned digest for this config")
        t.expect(pinned is None or pinned == digest, f"{label}: digest differs from pinned")
        records = payload["records"]
        rows = Path(csv_path).read_text().strip().split("\n")
        t.expect(len(rows) == len(records) + 1, f"{label}: CSV rows != records")
        expected_qs = good_primes(config, config["prime_bound"])
        t.expect([r["q"] for r in records] == expected_qs, f"{label}: good primes differ")
        t.expect(payload["primes_scanned"] == len(expected_qs), f"{label}: primes_scanned")
        bad = [
            r["q"]
            for r in records
            if not (r["ord_R"] == r["ord_P"] == r["ord_Q"] and r["forward_holds"] and r["backward_holds"])
        ]
        t.expect(not bad, f"{label}: orders disagree at q in {bad[:5]}")
        if full:
            self._independent(label, config, records, payload)
        return payload

    def _independent(self, label, config, records, payload):
        """Sampled order checks and the weak relation, in the benchmark's arithmetic."""
        t = self.w.tally
        rng = random.Random(f"sample-{self.w.seed}-{config['R']}")
        for r in rng.sample(records, min(self.sample, len(records))):
            t.expect(_order_is_right(config, r["q"], r["ord_R"]), f"{label}: ord_R wrong at q={r['q']}")
        weak = payload["weak_relation"]
        a = config["curve"][0]
        for prefix, transposed in (("", False), ("transposed_", True)):
            if f"{prefix}f" not in weak:
                continue
            for q in weak.get("verified_primes", []):
                ok = ac.relation_holds_at(
                    q,
                    a % q,
                    ac.reduce_projective(q, config["R"]),
                    ac.reduce_projective(q, config["R1"]),
                    ac.reduce_projective(q, config["R2"]),
                    weak[f"{prefix}k"],
                    weak[f"{prefix}f"],
                    transposed,
                )
                t.expect(ok, f"{label}: {prefix}relation fails at q={q}")
        medium = payload["medium_impossibility"]
        t.expect(
            medium["kind"] == "medium_relation_impossible" and medium["residue_solutions"] == 0,
            f"{label}: medium impossibility certificate",
        )


class ScanWorkload(Workload):
    """`suppscan scan` through cli_main on the seed's configs."""

    workers = 1

    def __init__(self, *args):
        super().__init__(*args)
        drawn = inputs.draw_configs(self.seed, self.sizes.scan_configs)
        self.configs = [self.sizes.scan_config(c) for c in drawn]
        self.paths = [inputs.write_config(c, self.workdir, f"scan{i}.json") for i, c in enumerate(self.configs)]
        self.checker = ScanChecker(self, sample=40)

    def setup_config_path(self) -> Path:
        return self.paths[0]

    def one_pass(self, index: int) -> PassResult:
        result, outputs = PassResult(0.0), []
        for i, path in enumerate(self.paths):
            csv_path, json_path = self.workdir / f"scan{i}.csv", self.workdir / f"scan{i}-report.json"
            argv = ["scan", "--config", str(path), "--out-csv", str(csv_path),
                    "--out-json", str(json_path), "--workers", str(self.workers)]
            seconds, outcome = self.timed_cli(f"scan of config {i}", argv)
            result.wall_s += seconds
            if outcome is not None:
                outputs.append((i, *outcome, csv_path, json_path))
        for i, code, stdout, csv_path, json_path in outputs:
            payload = self.checker.check(i, self.configs[i], code, stdout, csv_path, json_path, index == 0)
            result.add_records(i, payload)
        return result


class ScanSerial(ScanWorkload):
    name = "scan-serial"
    workers = 1


class ScanParallel(ScanWorkload):
    name = "scan-parallel"
    uses_pool = True
    # One worker per usable core, capped so a large host does not flood memory.
    workers = min(len(os.sched_getaffinity(0)), 4)


class LargeField(Workload):
    """make_context + evaluate_prime on windows of consecutive good primes near 10^10."""

    name = "large-field"

    def __init__(self, *args):
        super().__init__(*args)
        from suppscan import LabConfig

        self.configs = inputs.draw_configs(self.seed, self.sizes.field_configs)
        self.labs = [LabConfig.from_dict(c) for c in self.configs]
        per_config = self.sizes.field_window // len(self.configs)
        self.windows = [
            inputs.prime_window(c, f"{self.seed}-{i}", self.sizes.field_base, per_config)
            for i, c in enumerate(self.configs)
        ]
        self.path = inputs.write_config(self.configs[0], self.workdir, "field.json")
        self.first = None

    def setup_config_path(self) -> Path:
        return self.path

    def one_pass(self, index: int) -> PassResult:
        from suppscan import evaluate_prime, make_context

        result, records = PassResult(0.0), {}
        clock = time.perf_counter
        for i, (cfg, window) in enumerate(zip(self.labs, self.windows)):
            for q in window:
                self.tally.attempted += 1
                self.next_run_id()
                start = clock()
                try:
                    rec = evaluate_prime(make_context(cfg.curve, cfg.R1, cfg.R2, cfg.p, q), cfg.R)
                except Exception as exc:  # an operation failed; keep measuring
                    rec = None
                    self.tally.fail(f"config {i}, q={q}: {exc!r}")
                seconds = clock() - start
                self.reference.follow(seconds)
                result.wall_s += seconds
                if rec is not None:
                    result.latencies_ms[(i, q)] = seconds * 1000
                    records[(i, q)] = (rec.q, rec.ord_r, rec.ord_p, rec.ord_q)
        result.primes = len(records)
        self._check(records, index == 0)
        return result

    def _check(self, records: dict, full: bool) -> None:
        t = self.tally
        if not full:
            t.expect(records == self.first, "large-field: records differ between passes")
            return
        self.first = records
        for (i, q), (rq, ord_r, ord_p, ord_q) in records.items():
            label = f"large-field config {i} (seed {self.seed}), q={q}"
            t.expect(rq == q, f"{label}: record names q={rq}")
            t.expect(ord_r == ord_p == ord_q, f"{label}: orders differ")
            t.expect(_order_is_right(self.configs[i], q, ord_r), f"{label}: ord_R wrong")


class Certify(Workload):
    """validate, endo-check, no-relation --p 2 and a wide-box scan, per config."""

    name = "certify"

    def __init__(self, *args):
        super().__init__(*args)
        drawn = inputs.draw_configs(self.seed, self.sizes.certify_configs)
        self.configs = [self.sizes.certify_config(c) for c in drawn]
        self.paths = [inputs.write_config(c, self.workdir, f"cert{i}.json") for i, c in enumerate(self.configs)]
        self.checker = ScanChecker(self, sample=20)

    def setup_config_path(self) -> Path:
        return self.paths[0]

    def one_pass(self, index: int) -> PassResult:
        result, outputs = PassResult(0.0), []
        for i, path in enumerate(self.paths):
            csv_path, json_path = self.workdir / f"cert{i}.csv", self.workdir / f"cert{i}-report.json"
            commands = (
                ("validate", ["validate", "--config", str(path)]),
                ("endo-check", ["endo-check", "--config", str(path)]),
                ("no-relation", ["no-relation", "--p", "2"]),
                ("scan", ["scan", "--config", str(path), "--out-csv", str(csv_path),
                          "--out-json", str(json_path), "--workers", "1"]),
            )
            for what, argv in commands:
                seconds, outcome = self.timed_cli(f"{what} of config {i}", argv)
                result.wall_s += seconds
                if outcome is not None:
                    outputs.append((i, what, *outcome, csv_path, json_path))
        for i, what, code, stdout, csv_path, json_path in outputs:
            if what == "scan":
                payload = self.checker.check(i, self.configs[i], code, stdout, csv_path, json_path, index == 0)
                result.add_records(i, payload)
            else:
                self._check_command(i, what, code, stdout)
        return result

    def _check_command(self, i: int, what: str, code: int, stdout: str) -> None:
        t = self.tally
        label = f"{what} of config {i} (seed {self.seed})"
        t.expect(code == 0, f"{label}: exit code {code}")
        lines = stdout.strip().split("\n")
        if what == "validate":
            flags = ("curve_ok", "non_cm", "full_p_torsion", "r_infinite_order", "r1_r2_independent")
            t.expect(all(f"{f}: True" in lines for f in flags), f"{label}: a hypothesis failed")
        elif what == "endo-check":
            t.expect(
                lines[-1] == "descent criterion and kernel preservation agree at all 10 primes",
                f"{label}: {lines[-1]!r}",
            )
        else:
            t.expect(
                lines[0] == "p = 2: medium_relation_impossible" and "Residue check: 0 of 32 tuples" in stdout,
                f"{label}: unexpected certificate",
            )


WORKLOADS = {w.name: w for w in (ScanSerial, ScanParallel, LargeField, Certify)}


def measure_setup(root: Path, config_path: Path, starts: int, reference: HostReference) -> float:
    """Median host seconds of fresh interpreters that import suppscan and load the config."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(config_path)]
    samples = []
    for i in range(starts + 1):  # the first start only fills the bytecode cache
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, cwd=root, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        reference.follow(seconds)
        if i:
            samples.append(seconds)
    return statistics.median(samples)


def run_passes(workload: Workload, seconds: float) -> list[PassResult]:
    """Repeat passes within the budget; never start one the last says would overrun."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(workload.one_pass(len(results)))
        if time.perf_counter() - start + results[-1].wall_s > seconds:
            return results


def latency_quantiles(passes: list[PassResult]) -> tuple[float, float, int]:
    """p50 and p95 over primes of each prime's mean latency across passes (host ms)."""
    per_prime = {}
    for p in passes:
        for key, ms in p.latencies_ms.items():
            per_prime.setdefault(key, []).append(ms)
    values = [statistics.fmean(v) for v in per_prime.values()]
    if len(values) < 2:
        return math.nan, math.nan, len(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[94], len(values)
