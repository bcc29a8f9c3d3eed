"""Every case of the command line, once. test_scan_cli.py runs each row
through cli_main in a fresh working directory, one test per group below;
with ``-m installed`` it runs every row through the installed ``suppscan``
console script instead."""

import json
import re
from typing import NamedTuple

from suppscan.scan import default_config


class Link(NamedTuple):
    """An input file that links to an earlier input file."""

    target: str
    hard: bool = False


class Case(NamedTuple):
    argv: str  # split as by a POSIX shell, so '""' is an empty argument
    code: int
    err: str = ""  # a pattern that must match all of stderr
    out: str | re.Pattern = ""  # the exact stdout, or a pattern for all of it
    files: dict = {}  # name -> JSON value, text or Link, made before the run
    absent: tuple = ()  # files that must not exist afterwards
    unchanged: tuple = ()  # input files that must stay byte-identical
    wrote: dict = {}  # name -> the exact text that the run wrote there
    before_work: bool = False  # refused before run_scan or search_curve
    timeout: int | None = None  # may hang: run in a fresh interpreter


BASE = default_config()._replace(prime_bound=50).to_dict()


def config(**changes):
    return {**BASE, **changes}


def usage(text, tail=""):
    return "usage error: " + re.escape(text) + tail + "\n"


def failure(text):
    return "hypothesis failure: " + re.escape(text) + "\n"


def no_relation(p):
    return (
        f"p = {p}: medium_relation_impossible\nsecond coordinate forces k + p*c + p*d = 0, "
        "hence k = 0 (mod p); first coordinate forces p*a + p*b + k = 1, hence k = 1 (mod p); "
        f"subtracting, 1 = p*(a + b - c - d), so p | 1: impossible for p = {p}. "
        f"Residue check: 0 of {p**5} tuples satisfy both congruences.\n"
    )


CFG = {"config.json": BASE}
OUTS = "--out-csv o.csv --out-json o.json"
ARGPARSE = r"(?s)usage: suppscan .*\nsuppscan[a-z ]*: error: [^\n]*\n"
VALID = "curve_ok: True\nnon_cm: True\nfull_p_torsion: True\nr_infinite_order: True\nr1_r2_independent: True\n"
BIG = 3317044064679887385961981  # the proved primality bound
BIG_REASON = f"{BIG} is at or above {BIG}, the proved primality bound"
# search-curve's stdout: the field order of LabConfig, unsorted.
SEARCH_CURVE_5 = json.dumps({"curve": [-21, -20], "R": [-3, 4, 1], "R1": [-4, 0, 1], "R2": [-1, 0, 1], "p": 2,
                             "prime_bound": 10000, "naive_threshold": 100000, "entry_bound": 4, "workers": 1},
                            indent=2) + "\n"
MALFORMED = (
    ({"entry_bound": 0}, "entry_bound must be >= 1, got 0"),
    ({"entry_bound": -1}, "entry_bound must be >= 1, got -1"),
    ({"workers": 0}, "workers must be >= 1, got 0"),
    ({"curve": [-21.9, -20]}, "expected an integer, got -21.9"),  # not truncated to -21
    ({"p": True}, "expected an integer, got True"),  # not read as p = 1
)
SAME_R = usage("--out-csv and --out-json name the same file r")

CASES = {
    "test_cli_search_curve": [
        Case("search-curve --height-bound 5 --out cfg.json", 0, wrote={"cfg.json": SEARCH_CURVE_5}),
        Case("search-curve --height-bound 5", 0, out=SEARCH_CURVE_5),
    ],
    "test_cli_search_curve_not_found": [
        Case("search-curve --height-bound 1", 1, "search failed: .*\n"),
    ],
    # An empty path is refused, not read as "no --out" (stdout), and before
    # the sweep starts, not at the write after it.
    "test_cli_empty_output_path_exit_2": [
        Case('search-curve --height-bound 5 --out ""', 2, usage("--out must name a file"), before_work=True),
        Case('scan --config config.json --out-csv "" --out-json r.json', 2, usage("--out-csv must name a file"),
             files=CFG, absent=("r.json",), before_work=True),
        Case('scan --config config.json --out-csv r.csv --out-json ""', 2, usage("--out-json must name a file"),
             files=CFG, absent=("r.csv",), before_work=True),
    ],
    "test_cli_validate": [
        Case("validate --config config.json", 0, out=VALID, files=CFG),
        Case("validate --config cm.json", 1, files={"cm.json": config(curve=[-1, 0], R=[2, 2, 1], R1=[0, 0, 1], R2=[1, 0, 1])},
             out="curve_ok: False\nnon_cm: False\nfull_p_torsion: False\nr_infinite_order: False\n"
             "r1_r2_independent: False\nfailure: curve: point R does not satisfy the curve equation\n"
             "failure: cm: j-invariant 1728 admits complex multiplication\n"),
    ],
    # y^2 = x^3 + x - 2 = (x - 1)(x^2 + x + 2): (1, 0) has order 2, but the
    # other two roots are not rational, so the 2-torsion is not full. The
    # curve has no CM (j = 432/7), so only the torsion and rank checks fail.
    "test_cli_validate_cubic_that_does_not_split": [
        Case("validate --config nonsplit.json", 1,
             files={"nonsplit.json": {"curve": [1, -2], "R": [1, 0, 1], "R1": [1, 0, 1], "R2": [1, 0, 1], "p": 2}},
             out="curve_ok: True\nnon_cm: True\nfull_p_torsion: False\nr_infinite_order: False\n"
             "r1_r2_independent: False\nfailure: torsion: the cubic does not split over Z\n"
             "failure: rank: R is a torsion point\n"
             "failure: torsion: R2 lies in the cyclic group generated by R1\n"),
    ],
    "test_cli_scan": [
        Case(f"scan --config config.json {OUTS} --workers 2", 0, files={"config.json": config(prime_bound=300)},
             out=re.compile(r"scanned 60 primes \(skipped 2\); forward rate 1, backward rate 1\n"
                            r"report digest [0-9a-f]{64}\n")),
    ],
    # json.load raises RecursionError on deep nesting: a malformed config.
    "test_cli_deeply_nested_config_exit_2": [
        Case("validate --config deep.json", 2, usage("cannot load config deep.json: ", ".*"),
             files={"deep.json": "[" * 100_000 + "]" * 100_000}),
    ],
    "test_cli_scan_missing_config": [
        Case(f"scan --config nope.json {OUTS}", 2, usage("cannot load config nope.json: ", ".*"), absent=("o.csv", "o.json")),
    ],
    "test_cli_usage_errors": [
        Case("", 2, ARGPARSE),
        Case("scan", 2, ARGPARSE),
        Case("bogus", 2, ARGPARSE),
        Case("no-relation --p 4", 2, usage("--p must be prime, got 4")),
    ],
    "test_cli_out_of_range_values_exit_2": [
        *(Case(f"{command} --config bad.json", 2, usage(f"cannot load config bad.json: malformed config: {why}"),
               files={"bad.json": config(**bad)}, absent=("o.csv",))
          for bad, why in MALFORMED for command in ("validate", f"scan {OUTS}")),
        Case(f"scan --config config.json --workers 0 {OUTS}", 2, usage("--workers must be >= 1, got 0"),
             files=CFG, before_work=True),
    ],
    # A misspelt key must not leave the default in force unnoticed.
    "test_cli_unknown_config_key_exit_2": [
        *(Case(f"{command} --config typo.json", 2,
               usage("cannot load config typo.json: malformed config: unknown key 'prime_bund'"),
               files={"typo.json": config(prime_bund=50)}, absent=("o.csv",))
          for command in (f"scan {OUTS}", "validate")),
        Case("validate --config nop.json", 2, usage("cannot load config nop.json: malformed config: missing key 'p'"),
             files={"nop.json": {k: v for k, v in BASE.items() if k != "p"}}),
    ],
    "test_cli_missing_output_dir_exit_2": [
        Case("scan --config config.json --out-csv o.csv --out-json missing/o.json", 2,
             usage("--out-json missing/o.json: directory ", "/.*/missing does not exist"),
             files=CFG, absent=("missing",), before_work=True),
        Case("scan --config config.json --out-csv missing/o.csv --out-json o.json", 2,
             usage("--out-csv missing/o.csv: directory ", "/.*/missing does not exist"),
             files=CFG, absent=("missing",), before_work=True),
        Case("search-curve --height-bound 5 --out missing/c.json", 2,
             usage("--out missing/c.json: directory ", "/.*/missing does not exist"), absent=("missing",), before_work=True),
        Case("search-curve --height-bound 5 --out .", 2, usage("--out . is a directory"), before_work=True),
    ],
    "test_cli_scan_refuses_a_directory_as_output": [
        Case("scan --config config.json --out-csv . --out-json o.out", 2, usage("--out-csv . is a directory"),
             files=CFG, absent=("o.out",), before_work=True),
        Case("scan --config config.json --out-csv o.out --out-json .", 2, usage("--out-json . is a directory"),
             files=CFG, absent=("o.out",), before_work=True),
    ],
    "test_cli_scan_refuses_one_file_for_both_reports": [
        Case(f"scan --config config.json --out-csv r --out-json {other}", 2, SAME_R,
             files={**CFG, "link": Link("r")}, absent=("r",), before_work=True)
        for other in ("r", "d/../r", "link")
    ],
    "test_cli_scan_refuses_to_overwrite_its_config": [
        Case(f"scan --config config.json {outs}", 2, usage(f"--config and {flag} name the same file config.json"),
             files={**CFG, "link.json": Link("config.json")}, unchanged=("config.json",), absent=("o.out",),
             before_work=True)
        for outs, flag in (
            ("--out-csv o.out --out-json config.json", "--out-json"),
            ("--out-csv config.json --out-json o.out", "--out-csv"),
            ("--out-csv o.out --out-json link.json", "--out-json"),
        )
    ],
    # Hard links share an inode, which no path comparison sees.
    "test_cli_scan_refuses_hard_links": [
        Case("scan --config config.json --out-csv o.csv --out-json hard.json", 2,
             usage("--config and --out-json name the same file config.json"),
             files={**CFG, "hard.json": Link("config.json", hard=True)}, unchanged=("config.json",),
             absent=("o.csv",), before_work=True),
        Case("scan --config config.json --out-csv r --out-json hard", 2, SAME_R,
             files={**CFG, "r": "an old report\n", "hard": Link("r", hard=True)}, unchanged=("r",), before_work=True),
    ],
    "test_cli_no_relation": [
        Case("no-relation --p 2", 0, out=no_relation(2)),
        Case("no-relation --p 97", 0, out=no_relation(97)),
    ],
    # p = 2^61 - 1: the residue count must not loop over k mod p.
    "test_cli_no_relation_large_prime": [
        Case(f"no-relation --p {2**61 - 1}", 0, out=no_relation(2**61 - 1), timeout=20),
    ],
    "test_cli_p_beyond_the_proved_primality_bound": [
        # A composite that the first 12 primes as Miller-Rabin witnesses pass.
        Case("no-relation --p 318665857834031151167461", 2, usage("--p must be prime, got 318665857834031151167461")),
        # At the bound the primality test has no proved answer: one line naming it.
        Case(f"no-relation --p {BIG}", 2, usage(f"--p {BIG_REASON}")),
        Case("validate --config big.json", 1, files={"big.json": config(p=BIG)},
             out=f"curve_ok: True\nnon_cm: True\nfull_p_torsion: False\nr_infinite_order: True\n"
             f"r1_r2_independent: True\nfailure: torsion: p = {BIG_REASON}\n"),
        *(Case(f"{command} --config big.json", 1, failure(f"torsion: p = {BIG_REASON}"),
               files={"big.json": config(p=BIG)}, absent=("o.csv",))
          for command in (f"scan {OUTS}", "endo-check")),
    ],
    "test_cli_endo_check": [
        Case("endo-check --config config.json --primes 4", 0, files=CFG,
             out="".join(f"q={q}: 16/16 residue matrices agree\n" for q in (5, 7, 11, 13))
             + "descent criterion and kernel preservation agree at all 4 primes\n"),
    ],
    "test_cli_endo_check_validates_first": [
        Case("endo-check --config bad.json", 1, failure(why), files={"bad.json": config(**bad)})
        for bad, why in (
            ({"p": 4}, "torsion: p = 4 is not prime"),
            ({"R1": [0, 1, 0]}, "torsion: R1 does not have exact order 2"),
        )
    ] + [
        # A singular curve has no good prime, so the prime stream never
        # yields: only validation stops it.
        Case("endo-check --config singular.json", 1, failure("curve: discriminant is zero"),
             files={"singular.json": config(curve=[0, 0])}, timeout=60),
    ],
}
