"""Prime sweep orchestration: config handling, parallel evaluation, reports.

Per-prime work is embarrassingly parallel; records are merged in ascending-q
order so the output is identical for any worker count. Timing fields are
the only nondeterministic output and are excluded from every digest.
"""

import json
import os
from fractions import Fraction
from itertools import count
from typing import NamedTuple

from .arith import is_prime, primes_up_to
from .endo import (
    RelationCertificate,
    find_weak_relation,
    relation_holds,
    verify_no_medium_relation,
)
from .quotient import InvariantViolation, PrimeRecord, evaluate_prime, make_context
from .rational import (
    HypothesisReport,
    RationalCurve,
    RationalPoint,
    reduce_onto,
    search_curve,
    validate_hypotheses,
)

# The report's name for each PrimeRecord field, in field order.
CSV_COLUMNS = ("q", "ord_R", "ord_P", "ord_Q", "forward_holds", "backward_holds", "elapsed_us")
CSV_HEADER = ",".join(CSV_COLUMNS)
# A record as json.dumps(..., indent=2, sort_keys=True) prints it inside the
# report's records list; format it with the record's CSV fields.
_JSON_RECORD = "    {{\n%s\n    }}" % ",\n".join(
    f'      "{name}": {{{i}}}' for i, name in sorted(enumerate(CSV_COLUMNS), key=lambda c: c[1])
)
# The same record as the digest's compact JSON prints it, without elapsed_us.
_DIGEST_RECORD = "{{%s}}" % ",".join(
    f'"{name}":{{{i}}}' for i, name in sorted(enumerate(CSV_COLUMNS[:-1]), key=lambda c: c[1])
)

SKIP_WEIERSTRASS = "short-Weierstrass exclusion"
SKIP_DISCRIMINANT = "divides the discriminant"
SKIP_TORSION_PRIME = "equals the torsion prime p"

# Contexts feeding the relation search, and fresh ones for re-verification.
SEARCH_CONTEXTS = 8
FRESH_CONTEXTS = 10


class HypothesisFailure(Exception):
    """Raised when a config flunks validation; carries the full report."""

    def __init__(self, report: HypothesisReport):
        super().__init__("; ".join(report.failures) or "hypothesis validation failed")
        self.report = report


class LabConfig(NamedTuple):
    curve: RationalCurve
    R: RationalPoint
    R1: RationalPoint
    R2: RationalPoint
    p: int
    prime_bound: int = 10_000
    naive_threshold: int = 100_000
    entry_bound: int = 4
    workers: int = 1

    def to_dict(self) -> dict:
        """The fields in declaration order, the curve and points as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._asdict().items()}

    @classmethod
    def from_dict(cls, data: dict) -> "LabConfig":
        try:
            if not isinstance(data, dict):
                raise ValueError("the config must be a JSON object")
            a, b = data["curve"]
            config = cls(
                curve=RationalCurve(_json_int(a), _json_int(b)),
                R=RationalPoint(*map(_json_int, data["R"])),
                R1=RationalPoint(*map(_json_int, data["R1"])),
                R2=RationalPoint(*map(_json_int, data["R2"])),
                p=_json_int(data["p"]),
                **{k: _json_int(data[k]) for k in cls._field_defaults if k in data},
            )
            # A misspelt key would otherwise leave its default in force.
            unknown = sorted(set(data) - set(cls._fields))
            if unknown:
                raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
            if config.entry_bound < 1:
                raise ValueError(f"entry_bound must be >= 1, got {config.entry_bound}")
            if config.workers < 1:
                raise ValueError(f"workers must be >= 1, got {config.workers}")
            return config
        except KeyError as exc:
            raise ValueError(f"malformed config: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed config: {exc}") from exc

    def digest(self) -> str:
        """Hash of the semantic content; the workers knob is a runtime detail."""
        semantic = {k: v for k, v in self.to_dict().items() if k != "workers"}
        return _sha256(_compact(semantic))

    def validate(self) -> HypothesisReport:
        return validate_hypotheses(self.curve, self.R, self.R1, self.R2, self.p)


def _json_int(value) -> int:
    """A JSON integer as is; floats, bools and strings are malformed, not rounded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _compact(obj) -> str:
    """obj as the digests hash it: compact JSON in sorted key order."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    import hashlib  # here, not at module level: a measurable part of import time

    return hashlib.sha256(text.encode()).hexdigest()


class ScanReport(NamedTuple):
    config_digest: str
    records: tuple
    primes_skipped: tuple
    weak_relation: RelationCertificate
    medium_impossibility: RelationCertificate

    @property
    def primes_scanned(self) -> int:
        return len(self.records)

    @property
    def condition1_forward_rate(self) -> Fraction:
        return self._rate(sum(r.forward_holds for r in self.records))

    @property
    def condition1_backward_rate(self) -> Fraction:
        return self._rate(sum(r.backward_holds for r in self.records))

    def _rate(self, holds: int) -> Fraction:
        # An empty sweep counts as vacuously clean.
        return Fraction(holds, len(self.records)) if self.records else Fraction(1)

    def to_dict(self, include_elapsed: bool = True) -> dict:
        columns = CSV_COLUMNS if include_elapsed else CSV_COLUMNS[:-1]
        return self._summary() | {"records": [dict(zip(columns, r)) for r in self.records]}

    def _summary(self) -> dict:
        """Every key of to_dict but records."""
        return {
            "config_digest": self.config_digest,
            "primes_scanned": self.primes_scanned,
            "primes_skipped": [[q, reason] for q, reason in self.primes_skipped],
            "condition1_forward_rate": str(self.condition1_forward_rate),
            "condition1_backward_rate": str(self.condition1_backward_rate),
            "weak_relation": self.weak_relation.to_dict(),
            "medium_impossibility": self.medium_impossibility.to_dict(),
        }

    def digest(self) -> str:
        """Content hash with all timing fields stripped.

        The hash of _compact(self.to_dict(include_elapsed=False)), but each
        record is formatted from _DIGEST_RECORD, not built as a dict.
        """
        records = ",".join(_DIGEST_RECORD.format(*[str(v).lower() for v in r]) for r in self.records)
        text = _compact(self._summary() | {"records": []})
        return _sha256(text.replace('"records":[]', f'"records":[{records}]', 1))


def _skip_reason(q: int, p: int, disc: int) -> str | None:
    """Why the prime q is not scanned, or None when q is good."""
    if q in (2, 3):
        return SKIP_WEIERSTRASS
    if q == p:
        return SKIP_TORSION_PRIME
    if disc % q == 0:
        return SKIP_DISCRIMINANT
    return None


def classify_primes(config: LabConfig):
    """Split primes <= prime_bound into good ones and (prime, reason) skips."""
    disc = config.curve.discriminant()
    good, skipped = [], []
    for q in primes_up_to(config.prime_bound):
        reason = _skip_reason(q, config.p, disc)
        if reason is None:
            good.append(q)
        else:
            skipped.append((q, reason))
    return good, skipped


def iter_good_primes(config: LabConfig):
    """Unbounded ascending stream of usable primes for this config."""
    disc = config.curve.discriminant()
    return (q for q in count(5) if is_prime(q) and _skip_reason(q, config.p, disc) is None)


def _scan_one(config: LabConfig, q: int) -> PrimeRecord:
    ctx = make_context(config.curve, config.R1, config.R2, config.p, q)
    return evaluate_prime(ctx, config.R)


def _relation_certificates(config: LabConfig, records):
    """Weak-relation search over the sweep's first records plus fresh re-checks."""
    stream = iter_good_primes(config)
    qs = [next(stream) for _ in range(SEARCH_CONTEXTS + FRESH_CONTEXTS)]
    # records are in ascending q; a search prime above prime_bound has none.
    search = records[:SEARCH_CONTEXTS]
    search += [_scan_one(config, q) for q in qs[len(search) : SEARCH_CONTEXTS]]
    fresh_qs = qs[SEARCH_CONTEXTS:]
    weak = find_weak_relation(config.p, search, config.entry_bound)
    # Every orientation found is re-checked, also a transposed one alone.
    found = [(weak.k, weak.f, False), (weak.transposed_k, weak.transposed_f, True)]
    found = [(k, f, transposed) for k, f, transposed in found if f is not None]
    if found:
        # relation_holds needs contexts, and the sweep keeps only records.
        fresh_ctxs = [
            make_context(config.curve, config.R1, config.R2, config.p, q) for q in fresh_qs
        ]
        if not all(
            relation_holds(k, f, fresh_ctxs, config.R, transposed=transposed)
            for k, f, transposed in found
        ):
            raise InvariantViolation(
                "weak relation failed re-verification at fresh primes"
            )
        weak = weak._replace(verified_primes=tuple(fresh_qs))
    medium = verify_no_medium_relation(config.p)
    return weak, medium


def run_scan(config: LabConfig) -> ScanReport:
    """Full pipeline: validate, sweep primes, attach relation certificates.

    Output is deterministic for a fixed config regardless of worker count.
    """
    report = config.validate()
    if not report.ok:
        raise HypothesisFailure(report)
    good, skipped = classify_primes(config)
    # Each worker is a forked process, so a count past the primes or the
    # usable cores would only fork idle processes.
    workers = min(config.workers, len(good), _usable_cores())
    if workers > 1 and hasattr(os, "fork"):
        records = _forked_sweep(config, good, workers)
    else:
        records = [_scan_one(config, q) for q in good]

    _check_order_equality(config, records)
    weak, medium = _relation_certificates(config, records)
    return ScanReport(
        config_digest=config.digest(),
        records=tuple(records),
        primes_skipped=tuple(skipped),
        weak_relation=weak,
        medium_impossibility=medium,
    )


def _check_order_equality(config: LabConfig, records) -> None:
    """Raise InvariantViolation unless ord_R = ord_P = ord_Q in every record.

    For a validated config the three orders agree at every good prime, so
    anything else means a bug, not a finding. The message names, for each
    of the first five such q, the orders, the reduced curve, r, K1 and K2,
    and ends with a python -c line that evaluates those primes through
    make_context and evaluate_prime and raises the same message again.
    """
    unequal = [r for r in records if not r.ord_p == r.ord_q == r.ord_r][:5]
    if not unequal:
        return
    found = []
    for rec in unequal:
        ctx = make_context(config.curve, config.R1, config.R2, config.p, rec.q)
        r = reduce_onto(config.R, ctx.curve)
        found.append(
            f"q = {rec.q}: ord_R = {rec.ord_r}, ord_P = {rec.ord_p}, ord_Q = {rec.ord_q} on "
            f"{ctx.curve!r}, r = {r}, K1 = {ctx.k1}, K2 = {ctx.k2}"
        )
    qs = [rec.q for rec in unequal]
    config_args = f"{config.curve!r}, {config.R!r}, {config.R1!r}, {config.R2!r}, {config.p}"
    repro = (
        "from suppscan.quotient import evaluate_prime, make_context; "
        "from suppscan.rational import RationalCurve, RationalPoint; "
        "from suppscan.scan import LabConfig, _check_order_equality; "
        f"c = LabConfig({config_args}); "
        "_check_order_equality(c, [evaluate_prime(make_context(c.curve, c.R1, c.R2, c.p, q), c.R) "
        f"for q in {qs}])"
    )
    raise InvariantViolation(
        f"order equality broke at q in {qs}: {'; '.join(found)}; to reproduce: python -c \"{repro}\""
    )


def _forked_sweep(config: LabConfig, good: list, workers: int) -> list:
    """The records of good, in its order, from forked workers.

    Worker w evaluates the stripe good[w::workers], so the costly large q
    are shared out evenly, and pickles its records, or the exception that
    stopped it, back through its own pipe. The parent waits on all pipes at
    once and reaps each worker at its pipe's end: one that ends without an
    answer is at once an InvariantViolation naming it, its signal and the
    first and last q of its stripe. Every child is reaped, the unfinished
    ones killed first when the sweep fails. A worker whose parent has died,
    say by SIGTERM, exits before its next prime: it checks os.getppid().
    """
    # Imported here, not at module level: only this branch uses them.
    import pickle
    import selectors
    import signal

    children = {}  # worker -> (pid, read end of its pipe), until reaped
    parent = os.getpid()
    selector = selectors.DefaultSelector()
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: it never returns into the caller
                status = 1
                try:
                    os.close(read_fd)
                    try:
                        result = []
                        for q in good[w::workers]:
                            if os.getppid() != parent:
                                os._exit(status)
                            result.append(_scan_one(config, q))
                    except BaseException as exc:  # the parent raises it again
                        result = exc
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(result))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[w] = pid, read_fd
            selector.register(read_fd, selectors.EVENT_READ, w)
        records, data = [None] * len(good), {w: bytearray() for w in children}
        while children:
            w = selector.select()[0][0].data
            pid, fd = children[w]
            if chunk := os.read(fd, 1 << 16):
                data[w] += chunk
                continue
            selector.unregister(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(w)[1])
            if code:
                how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
                qs = good[w::workers]
                raise InvariantViolation(
                    f"sweep worker {w} of {workers} ended without its records ({how}); "
                    f"its stripe runs from q = {qs[0]} to q = {qs[-1]}"
                )
            stripe = pickle.loads(data.pop(w))
            if isinstance(stripe, BaseException):
                raise stripe
            records[w::workers] = stripe
        return records
    finally:
        selector.close()
        for pid, fd in children.values():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def write_report(report: ScanReport, csv_path, json_path) -> str:
    """CSV of per-prime records plus the full JSON report; returns the
    report digest written into the JSON.

    The JSON is the bytes of json.dumps(report.to_dict() plus the digest,
    indent=2, sort_keys=True). Any indent runs json's pure-Python encoder,
    so only the keys around the records go through it; each record is
    formatted from _JSON_RECORD.
    """
    # One row per record, its fields in column order; booleans as true/false,
    # which is also their JSON spelling.
    rows = [[str(v).lower() for v in r] for r in report.records]
    with open(csv_path, "w") as fh:
        fh.write("\n".join([CSV_HEADER, *map(",".join, rows)]) + "\n")
    digest = report.digest()
    payload = report._summary() | {"records": [], "report_digest": digest}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if rows:
        records = ",\n".join(_JSON_RECORD.format(*row) for row in rows)
        text = text.replace('\n  "records": []', f'\n  "records": [\n{records}\n  ]', 1)
    with open(json_path, "w") as fh:
        fh.write(text + "\n")
    return digest


def default_config() -> LabConfig:
    """The frozen configuration produced by search_curve(5)."""
    return LabConfig(*search_curve(5), p=2)
