"""Command-line interface.

Exit codes: 0 success, 1 hypothesis failure (or nothing found), 2 usage
error, 3 internal invariant violation.
"""

import argparse
import functools
import json
import os
import sys
from itertools import islice, product

from .endo import EndoMatrix, descends, kernel_preserved, verify_no_medium_relation
from .quotient import InvariantViolation, make_context
from .rational import CurveSearchError, search_curve
from .scan import (
    HypothesisFailure,
    LabConfig,
    iter_good_primes,
    run_scan,
    write_report,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged, and
    # building it costs more than parsing one command line.
    parser = argparse.ArgumentParser(
        prog="suppscan",
        description="Order-divisibility scans on a quotient of E x E, with "
        "endomorphism-relation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search-curve", help="find a usable curve, emit a config")
    p_search.add_argument("--height-bound", type=int, required=True)
    p_search.add_argument("--out", help="write the config here instead of stdout")
    p_search.set_defaults(run=_cmd_search_curve)

    p_validate = sub.add_parser("validate", help="check every hypothesis of a config")
    p_validate.add_argument("--config", required=True)
    p_validate.set_defaults(run=_cmd_validate)

    p_scan = sub.add_parser("scan", help="sweep primes and write CSV/JSON reports")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--out-csv", required=True)
    p_scan.add_argument("--out-json", required=True)
    p_scan.add_argument("--workers", type=int, default=None)
    p_scan.set_defaults(run=_cmd_scan)

    p_endo = sub.add_parser(
        "endo-check", help="descent congruences vs kernel preservation, residue matrices"
    )
    p_endo.add_argument("--config", required=True)
    p_endo.add_argument("--primes", type=int, default=10, help="number of good primes")
    p_endo.set_defaults(run=_cmd_endo_check)

    p_norel = sub.add_parser("no-relation", help="impossibility certificate for a prime p")
    p_norel.add_argument("--p", type=int, required=True)
    p_norel.set_defaults(run=_cmd_no_relation)

    return parser


def _load_config(path: str) -> LabConfig:
    try:
        with open(path) as fh:
            return LabConfig.from_dict(json.load(fh))
    # RecursionError: json.load on arrays or objects nested too deeply.
    except (OSError, json.JSONDecodeError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot load config {path}: {exc}") from exc


class UsageError(Exception):
    pass


def _check_out_dir(flag: str, path: str) -> None:
    """Refuse an output path that is empty, whose directory is missing, or
    that is itself a directory, before any work."""
    if not path:
        raise UsageError(f"{flag} must name a file")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"{flag} {path}: directory {parent} does not exist")
    if os.path.isdir(path):
        raise UsageError(f"{flag} {path} is a directory")


def _file_identity(path: str):
    """(device, inode) of an existing file, so that hard links compare
    equal; the resolved path of one that does not exist yet."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _cmd_search_curve(args) -> int:
    if args.height_bound < 1:
        raise UsageError("--height-bound must be >= 1")
    if args.out is not None:
        _check_out_dir("--out", args.out)
    config = LabConfig(*search_curve(args.height_bound), p=2)
    text = json.dumps(config.to_dict(), indent=2) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write config: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    report = config.validate()
    for flag, value in report._asdict().items():
        if flag != "failures":
            print(f"{flag}: {value}")
    for reason in report.failures:
        print(f"failure: {reason}")
    return EXIT_OK if report.ok else EXIT_HYPOTHESIS


def _cmd_scan(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    _check_out_dir("--out-csv", args.out_csv)
    _check_out_dir("--out-json", args.out_json)
    # A report written over the config, or over the other report, loses it.
    paths = {"--config": args.config, "--out-csv": args.out_csv, "--out-json": args.out_json}
    seen = {}
    for flag, path in paths.items():
        first = seen.setdefault(_file_identity(path), flag)
        if first != flag:
            raise UsageError(f"{first} and {flag} name the same file {paths[first]}")
    config = _load_config(args.config)
    if args.workers is not None:
        config = config._replace(workers=args.workers)
    report = run_scan(config)
    try:
        digest = write_report(report, args.out_csv, args.out_json)
    except OSError as exc:
        raise UsageError(f"cannot write report: {exc}") from exc
    print(
        f"scanned {report.primes_scanned} primes "
        f"(skipped {len(report.primes_skipped)}); "
        f"forward rate {report.condition1_forward_rate}, "
        f"backward rate {report.condition1_backward_rate}"
    )
    print(f"report digest {digest}")
    return EXIT_OK


def _cmd_endo_check(args) -> int:
    config = _load_config(args.config)
    if args.primes < 1:
        raise UsageError("--primes must be >= 1")
    # As in run_scan: a config that fails validation can have no good prime
    # (a singular curve) or no reduced kernel of order p.
    report = config.validate()
    if not report.ok:
        raise HypothesisFailure(report)
    p = config.p
    qs = list(islice(iter_good_primes(config), args.primes))
    residues = [EndoMatrix(*entries) for entries in product(range(p), repeat=4)]
    mismatches = 0
    for q in qs:
        ctx = make_context(config.curve, config.R1, config.R2, p, q)
        agree = sum(kernel_preserved(m, ctx) == descends(m, p) for m in residues)
        print(f"q={q}: {agree}/{len(residues)} residue matrices agree")
        mismatches += len(residues) - agree
    if mismatches:
        raise InvariantViolation(
            f"descent criterion and kernel preservation disagree on {mismatches} residue matrices"
        )
    print(f"descent criterion and kernel preservation agree at all {len(qs)} primes")
    return EXIT_OK


def _cmd_no_relation(args) -> int:
    try:
        cert = verify_no_medium_relation(args.p)
    except ValueError as exc:  # p is not prime, or too large for a proved answer
        raise UsageError(f"--p {exc}") from exc
    print(f"p = {args.p}: {cert.kind}")
    print(cert.reason)
    return EXIT_OK


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisFailure as exc:
        for reason in exc.report.failures:
            print(f"hypothesis failure: {reason}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except CurveSearchError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MemoryError:  # e.g. a sieve up to a prime_bound beyond this host's memory
        print("usage error: out of memory; try a smaller prime_bound", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
