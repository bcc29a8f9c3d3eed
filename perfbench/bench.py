"""Runs one workload and builds the result: end-to-end or per-layer metrics.

The end-to-end run is untraced. The traced run makes three passes over the
same inputs: one under the call counter, one untraced and one under the
span tracer. Each pass is scaled by the reference samples taken during it, so
the tracing overhead (traced minus untraced) is free of drift in the
host's speed between the two.
"""

import json
import math
import resource
import statistics
import tempfile
from pathlib import Path

from . import workloads
from .reference import REFERENCE_SECONDS
from .tracing import Counter, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned_digests.json"
SPAN_DIR = ROOT / ".perfbench_out"


def _peak_rss_mib() -> float:
    """This process's peak RSS plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def end_to_end(passes, setup_s: float, peak_mib: float, scale: float) -> tuple[dict, dict]:
    """Every time is in reference-host seconds: host seconds times scale."""
    wall = statistics.fmean(p.wall_s for p in passes) * scale
    primes = max(p.primes for p in passes)
    p50, p95, n = workloads.latency_quantiles(passes)
    return {
        "setup_s": (setup_s * scale, "s"),
        "wall_s": (wall, "s"),
        "primes_per_s": (primes / wall if wall > 0 else 0.0, "1/s"),
        "prime_p50_ms": (p50 * scale, "ms"),
        "prime_p95_ms": (p95 * scale, "ms"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }, {"passes": len(passes), "latency_samples": n, "host_scale": round(scale, 4)}


def per_layer(tracer, counter, untraced_s: float, traced_s: float, scale: float, reference_s: float) -> dict:
    """Span times are in reference-host seconds, like the end-to-end metrics."""
    spans = tracer.summary()
    counts = counter.counts

    def span(name, key):
        value = spans.get(name, {}).get(key, 0)
        return value * scale if key != "calls" else value

    orders = counts["quotient.quotient_order"]
    out = {
        "quotient.quotient_order.calls": (span("quotient.quotient_order", "calls"), "count"),
        "quotient.quotient_order.self_s": (span("quotient.quotient_order", "self_s"), "s"),
        "quotient.annihilator_trials_per_order": (
            counts["quotient.annihilator_trials"] / orders if orders else 0.0,
            "trials/order",
        ),
        "finite.point_order.calls": (span("finite.point_order", "calls"), "count"),
        "finite.point_order.s": (span("finite.point_order", "s"), "s"),
        "finite.scalar_mul.calls": (counts["finite.scalar_mul"], "count"),
        "finite.add.calls": (counts["finite.add"], "count"),
        "arith.factorize.calls": (span("arith.factorize", "calls"), "count"),
        "arith.factorize.s": (span("arith.factorize", "s"), "s"),
        "arith.is_prime.calls": (counts["arith.is_prime"], "count"),
        "rational.reduce.calls": (counts["rational.reduce"], "count"),
        "quotient.make_context.self_s": (span("quotient.make_context", "self_s"), "s"),
        "scan.classify_primes.s": (span("scan.classify_primes", "s"), "s"),
        "scan.run_scan.self_s": (span("scan.run_scan", "self_s"), "s"),
        "scan.write_report.s": (span("scan.write_report", "s"), "s"),
        "scan.write_report.bytes": (tracer.report_bytes, "bytes"),
        "endo.find_weak_relation.s": (span("endo.find_weak_relation", "s"), "s"),
        "endo.apply.calls": (counts["endo.apply"], "count"),
        "endo.relation_holds.s": (span("endo.relation_holds", "s"), "s"),
        "endo.verify_no_medium_relation.s": (span("endo.verify_no_medium_relation", "s"), "s"),
        "rational.validate_hypotheses.s": (span("rational.validate_hypotheses", "s"), "s"),
        "cli.self_s": (span("cli.cli_main", "self_s"), "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "host.reference_ms": (reference_s * 1000, "ms"),
    }
    return out


def _scaled_pass(w, index: int) -> tuple[float, float]:
    """One pass: (its time in reference-host seconds, its own scale factor)."""
    ref = w.reference
    total, count = ref.total_s, ref.count
    wall = w.one_pass(index).wall_s
    scale = REFERENCE_SECONDS / ((ref.total_s - total) / (ref.count - count))
    return wall * scale, scale


def _traced_metrics(w) -> tuple[dict, Tracer]:
    """A counted, an untraced and a traced pass, each scaled by its own reference.

    The counted pass goes first: it absorbs the cold start, and its counts do
    not depend on it.
    """
    counter = Counter()
    with counter.installed():
        w.one_pass(0)
    untraced_s, _ = _scaled_pass(w, 1)
    tracer = w.tracer = Tracer()
    with tracer.installed():
        traced_s, scale = _scaled_pass(w, 2)
    w.tracer = None
    return per_layer(tracer, counter, untraced_s, traced_s, scale, w.reference.mean_s()), tracer


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None, pinned=None, out=print) -> dict:
    """Run one workload and return the result object (also printed by main)."""
    sizes = sizes or workloads.FULL
    if pinned is None:
        pinned = json.loads(PINNED.read_text())
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    tally = workloads.Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        w = workloads.WORKLOADS[name](seed, sizes, work, pinned, tally)
        if not trace:
            passes = workloads.run_passes(w, seconds)
            peak = _peak_rss_mib()
            setup_s = workloads.measure_setup(ROOT, w.setup_config_path(), sizes.setup_starts, w.reference)
            metrics, notes = end_to_end(passes, setup_s, peak, w.reference.scale())
        else:
            metrics, tracer = _traced_metrics(w)
            SPAN_DIR.mkdir(exist_ok=True)
            span_file = SPAN_DIR / f"spans-{name}-seed{seed}.csv"
            tracer.write(span_file)
            notes = {"spans_file": str(span_file.relative_to(ROOT))}
            if w.uses_pool:
                notes["scope"] = "spans and counts cover the parent process only; pool workers are not traced"
    failed = len(tally.failures)
    for line in tally.failures[:20]:
        out(f"FAILED: {line}")
    out(f"workload {name} seed {seed} trace {int(trace)} " + " ".join(f"{k}={v}" for k, v in notes.items()))
    for key, (value, unit) in metrics.items():
        out(f"{key} {value:.6g} {unit}")
    attempted = max(tally.attempted, 1)
    out(f"error_rate {failed / attempted:.6g} ({failed} of {tally.attempted} operations)")
    return {
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else 0.0, "unit": u} for k, (v, u) in metrics.items()
        },
    }


