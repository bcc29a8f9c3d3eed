"""Support-problem laboratory for a quotient of a product of elliptic curves.

Builds the surface (E x E) / <(R1, R2)> from a curve with full rational
2-torsion and a point of infinite order, scans good primes comparing the
orders of the images of (R, 0) and (R, R), and certifies which
endomorphism relations between the two exist and which are impossible.
"""

from .rational import (
    CM_J_INVARIANTS,
    CurveSearchError,
    HypothesisReport,
    RationalCurve,
    RationalPoint,
    is_torsion,
    rational_add,
    search_curve,
    validate_hypotheses,
)
from .finite import FiniteCurve, hasse_interval
from .quotient import (
    InvariantViolation,
    PrimeRecord,
    QuotientContext,
    QuotientPoint,
    evaluate_prime,
    make_context,
    quotient_is_zero,
    quotient_order,
)
from .endo import (
    EndoMatrix,
    RelationCertificate,
    apply,
    descends,
    find_weak_relation,
    kernel_preserved,
    verify_no_medium_relation,
)
from .scan import (
    CSV_HEADER,
    HypothesisFailure,
    LabConfig,
    ScanReport,
    default_config,
    run_scan,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "CM_J_INVARIANTS",
    "CSV_HEADER",
    "CurveSearchError",
    "EndoMatrix",
    "FiniteCurve",
    "HypothesisFailure",
    "HypothesisReport",
    "InvariantViolation",
    "LabConfig",
    "PrimeRecord",
    "QuotientContext",
    "QuotientPoint",
    "RationalCurve",
    "RationalPoint",
    "RelationCertificate",
    "ScanReport",
    "apply",
    "default_config",
    "descends",
    "evaluate_prime",
    "find_weak_relation",
    "hasse_interval",
    "is_torsion",
    "kernel_preserved",
    "make_context",
    "quotient_is_zero",
    "quotient_order",
    "rational_add",
    "run_scan",
    "search_curve",
    "validate_hypotheses",
    "verify_no_medium_relation",
    "write_report",
]
