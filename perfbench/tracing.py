"""Spans and counters installed around suppscan's public functions.

Wrappers are set from outside the package: each target is replaced in
every suppscan module namespace that bound it (``from .x import f`` makes
a second binding) and restored on exit. Nothing under ``src/`` changes.

Two separate instruments, because a wrapper costs about a microsecond:

- ``Tracer`` records a span (run id, name, start, end, parent) around each
  call of the layer functions in ``SPANNED``. Per-layer times come from it.
- ``Counter`` only increments counts for the hot group-law calls in
  ``COUNTED``, whose counts repeat exactly run to run; spanning them would
  distort every span time above them.

``ProcessPoolExecutor`` forks its workers on Linux before Python 3.14, so
workers inherit the wrappers, but their spans and counts stay in the
worker processes and are never collected: on ``scan-parallel`` both cover
the parent process only.
"""

import importlib
import os
import pkgutil
import time
from collections import Counter as _Counts
from contextlib import contextmanager

# (module, attribute, span name). Attributes with a dot are methods.
SPANNED = (
    ("suppscan.cli", "cli_main", "cli.cli_main"),
    ("suppscan.scan", "run_scan", "scan.run_scan"),
    ("suppscan.scan", "classify_primes", "scan.classify_primes"),
    ("suppscan.scan", "write_report", "scan.write_report"),
    ("suppscan.quotient", "make_context", "quotient.make_context"),
    ("suppscan.quotient", "evaluate_prime", "quotient.evaluate_prime"),
    ("suppscan.quotient", "quotient_order", "quotient.quotient_order"),
    ("suppscan.finite", "FiniteCurve.point_order", "finite.point_order"),
    ("suppscan.arith", "factorize", "arith.factorize"),
    ("suppscan.rational", "validate_hypotheses", "rational.validate_hypotheses"),
    ("suppscan.endo", "find_weak_relation", "endo.find_weak_relation"),
    ("suppscan.endo", "relation_holds", "endo.relation_holds"),
    ("suppscan.endo", "verify_no_medium_relation", "endo.verify_no_medium_relation"),
    ("suppscan.endo", "kernel_preserved", "endo.kernel_preserved"),
)

COUNTED = (
    ("suppscan.finite", "FiniteCurve.add", "finite.add"),
    ("suppscan.finite", "FiniteCurve.scalar_mul", "finite.scalar_mul"),
    ("suppscan.arith", "is_prime", "arith.is_prime"),
    ("suppscan.rational", "RationalCurve.reduce", "rational.reduce"),
    ("suppscan.endo", "apply", "endo.apply"),
    ("suppscan.quotient", "quotient_order", "quotient.quotient_order"),
    ("suppscan.quotient", "quotient_scalar_mul", "quotient.quotient_scalar_mul"),
)

# Counted only while a quotient_order call is open: its annihilator trials.
TRIAL = "quotient.quotient_scalar_mul"
TRIAL_PARENT = "quotient.quotient_order"


def _suppscan_modules():
    import suppscan

    mods = [suppscan]
    for info in pkgutil.iter_modules(suppscan.__path__):
        mods.append(importlib.import_module(f"suppscan.{info.name}"))
    return mods


@contextmanager
def _patched(targets, make_wrapper):
    """Replace each target by make_wrapper(name, original) until exit."""
    modules = _suppscan_modules()
    undo = []
    try:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, make_wrapper(name, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = make_wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.run_id = 0
        self.spans = []  # (run_id, name, start_ns, end_ns, parent index or -1)
        self.report_bytes = 0
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.run_id, name, start, end, parent)

        if name == "scan.write_report":

            def traced_report(report, csv_path, json_path):
                result = traced(report, csv_path, json_path)
                self.report_bytes += os.path.getsize(csv_path) + os.path.getsize(json_path)
                return result

            return traced_report
        return traced

    def installed(self):
        return _patched(SPANNED, self._wrap)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for run_id, name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (run_id, name, start, end, parent), inner in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - inner) / 1e9
        return out

    def write(self, path) -> None:
        """One CSV row per span: run_id, span_id, parent_id, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for index, (run_id, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{run_id},{index},{parent},{name},{start},{end}\n")


class Counter:
    """Call counts for the hot functions in COUNTED."""

    def __init__(self):
        self.counts = _Counts()
        self._open_orders = 0

    def _wrap(self, name, fn):
        counts = self.counts

        if name == TRIAL_PARENT:

            def counted_order(*args, **kwargs):
                counts[name] += 1
                self._open_orders += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._open_orders -= 1

            return counted_order
        if name == TRIAL:

            def counted_trial(*args, **kwargs):
                counts[name] += 1
                if self._open_orders:
                    counts["quotient.annihilator_trials"] += 1
                return fn(*args, **kwargs)

            return counted_trial

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def installed(self):
        return _patched(COUNTED, self._wrap)
