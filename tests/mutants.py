"""Mutation gate for the mathematical layers: every mutant must be killed.

    python tests/mutants.py

Each mutant is one textual edit (file, old, new, why) of a module under
src/suppscan, plus the test modules expected to catch it. The gate copies
src/ and tests/ into a temporary directory, applies the edit there, and
runs those modules with pytest -x under the derandomized ``ci`` hypothesis
profile (tests/conftest.py), so a verdict does not depend on the draw. Two
mutants run at a time, one per core of a 2-core CI runner. The checkout
itself is never edited.

Exit 0 when every mutant is killed. Exit 1 naming every mutant that
survived, whose old text no longer occurs exactly once (stale), whose run
ended in a pytest error other than a failing test, or that ran past
TIMEOUT_S. A survivor means a missing test: add the test, never drop the
mutant.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2
TIMEOUT_S = 300


class Mutant(NamedTuple):
    file: str  # under src/suppscan
    old: str  # must occur exactly once in the file
    new: str
    why: str
    tests: tuple  # test modules under tests/


FINITE, QUOTIENT, ENDO, ARITH, SCAN = "finite.py", "quotient.py", "endo.py", "arith.py", "scan.py"
T_FINITE, T_QUOTIENT, T_ENDO = "test_finite.py", "test_quotient.py", "test_endo.py"
T_ARITH, T_SCAN, T_SYMPY = "test_arith.py", "test_scan_cli.py", "test_sympy_oracles.py"

MUTANTS = (
    # _jacobian_mul, the one double-and-add behind scalar_mul and _multiple:
    # its degenerate cases.
    Mutant(
        FINITE,
        "if n == 0:\n            return 1, 1, 0",
        "if n is None:\n            return 1, 1, 0",
        "_jacobian_mul: n == 0 runs no bit and reads s itself as the result",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "else self._multiple(abs(n), s, table)",
        "else self._multiple(n, s, table)",
        "index_of_multiple: a negative n passed on, so the double-and-add reads the sign and 'b' as bits",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "Z = 2 * Y * Z % q\n            Y = (M",
        "Z = (2 * Y * Z % q) or Z\n            Y = (M",
        "_jacobian_mul: doubling a point with Y == 0 (2-torsion) stays finite",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if not Z:\n                    X, Y, Z = x, y, 1",
        "if not Z:\n                    X, Y, Z = x, y, 0",
        "_jacobian_mul: the identity accumulator plus s stays the identity",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "X, Y, Z = x, y, 1\n                    continue",
        "X, Y, Z = x, y, 1",
        "_jacobian_mul: the identity accumulator plus s goes on to add s again",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if r:  # the accumulator is -s\n                        Z = 0",
        "if r:  # the accumulator is -s\n                        Z = Z",
        "_jacobian_mul: H == 0, r != 0 (accumulator -s) leaves -s instead of the identity",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if r:  # the accumulator is -s",
        "if not r:  # the accumulator is -s",
        "_jacobian_mul: H == 0 with r == 0 and r != 0 swapped",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "(X, Y), Z = self.add(s, s), 1",
        "(X, Y), Z = s, 1",
        "_jacobian_mul: H == 0, r == 0 (accumulator s) gives s instead of 2s",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "M = (3 * X * X + a * ZZ * ZZ) % q\n            X3 = (M * M - 2 * S) % q\n            Z = 2 * Y * Z % q\n            Y",
        "M = 3 * X * X % q\n            X3 = (M * M - 2 * S) % q\n            Z = 2 * Y * Z % q\n            Y",
        "_jacobian_mul: doubling ignores the curve's a",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "                H = (x * ZZ - X) % q",
        "                H = (x * Z - X) % q",
        "_jacobian_mul: mixed addition scales x by Z, not Z^2",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "                Y = (r * (V - X3) - Y * HHH) % q",
        "                Y = (r * (V - X3) + Y * HHH) % q",
        "_jacobian_mul: sign of the Y * H^3 term in mixed addition",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "return X * zz % q, Y * zz * zi % q",
        "return X * zz % q, Y * zz % q",
        "scalar_mul: Y taken back to affine by Z^-2, not Z^-3",
        (T_FINITE,),
    ),
    # index_of_multiple: the projective comparison behind each quotient-order trial.
    Mutant(
        FINITE,
        "(t[0] * ZZ - X) % q == 0 and (t[1] * ZZ * Z - Y) % q == 0:",
        "(t[0] * ZZ - X) % q == 0:",
        "index_of_multiple: y not compared, so -P matches P (visible at p = 3 only)",
        (T_QUOTIENT, T_FINITE),
    ),
    Mutant(
        FINITE,
        "(t[1] * ZZ * Z - Y) % q == 0",
        "(t[1] * ZZ - Y) % q == 0",
        "index_of_multiple: y compared with y*Z^2, not y*Z^3 (visible at p = 3 only)",
        (T_QUOTIENT, T_FINITE),
    ),
    # doublings and _comb: the table of a point's doublings and its sums.
    Mutant(
        FINITE,
        "table.append(self.add(table[-1], table[-1]))",
        "table.append(self.add(table[0], table[0]))",
        "doublings: every entry past s doubles s, not the entry before it",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "8 * YY * YY) % q, 2 * Y * Z % q",
        "8 * YY * YY) % q, (2 * Y * Z % q) or Z",
        "_double: a kept half of order 2 doubles to a finite point, not the identity",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "8 * YY * YY) % q, 2 * Y * Z % q",
        "8 * YY * YY) % q, Y * Z % q",
        "_double: the doubled Z without its factor 2",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if not Z:\n                X, Y, Z = x, y, 1\n                continue\n            ZZ",
        "ZZ",
        "_comb: the identity branch dropped, so the empty sum stays the identity",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if r:  # the running sum is -table[j]\n                    Z = 0",
        "if r:  # the running sum is -table[j]\n                    Z = Z",
        "_comb: a sum that meets -table[j] stays finite instead of the identity",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "\n            Y = (r * (V - X3) - Y * HHH) % q",
        "\n            Y = (r * (V - X3) + Y * HHH) % q",
        "_comb: sign of the Y * H^3 term in its mixed addition",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if n.bit_length() < len(table):",
        "if n.bit_length() <= len(table):",
        "_multiple: an n of L bits, whose NAF may have a digit at L, summed from a table of length L",
        (T_FINITE,),
    ),
    # The sums each table keeps (_Doublings.sums, filled by _multiple).
    Mutant(
        FINITE,
        "def __new__(cls, entries):\n        self = super().__new__(cls, entries)\n        self.sums = {}",
        "def __new__(cls, entries, sums={}):\n        self = super().__new__(cls, entries)\n        self.sums = sums",
        "_Doublings: one dict of sums shared by every table, of every point and curve",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "total = table.sums.get(n)\n        if total is None:",
        "total = table.sums.get(n >> 1)\n        if total is None:",
        "_multiple: a sum looked up under n >> 1, not n",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "table.sums[n] = total",
        "table.sums[n + 1] = total",
        "_multiple: a sum kept under n + 1, not the n that was summed",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "total = table.sums.get(n)",
        "total = None",
        "_multiple: the kept sums never read, so each repeated n is summed again",
        (T_FINITE, T_QUOTIENT),
    ),
    # An even n whose half is kept: one doubling of that half (_multiple).
    Mutant(
        FINITE,
        "half = None if n & 1 else table.sums.get(n >> 1)",
        "half = table.sums.get(n >> 1)",
        "_multiple: the parity guard dropped, so an odd n is doubled from n >> 1",
        (T_FINITE, T_QUOTIENT),
    ),
    Mutant(
        FINITE,
        "else table.sums.get(n >> 1)",
        "else table.sums.get(n >> 2)",
        "_multiple: the half of an even n read as n >> 2",
        (T_FINITE, T_QUOTIENT),
    ),
    Mutant(
        FINITE,
        "table.sums[n] = total",
        "if half is None:\n                table.sums[n] = total",
        "_multiple: a sum doubled from a kept half is not kept itself",
        (T_FINITE, T_QUOTIENT),
    ),
    # _comb's signed digits: the non-adjacent form read off n and 3n.
    Mutant(
        FINITE,
        "pos, neg = (h & ~n) >> 1, (n & ~h) >> 1",
        "pos, neg = h & ~n, n & ~h",
        "_comb: the NAF masks without the >> 1, every digit one place too high",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "pos, neg = (h & ~n) >> 1, (n & ~h) >> 1",
        "neg, pos = (h & ~n) >> 1, (n & ~h) >> 1",
        "_comb: the positive and negative digit masks swapped",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if neg & low:\n                y = q - y",
        "if neg & low:\n                y = y",
        "_comb: a negative digit adds table[j], not -table[j]",
        (T_FINITE,),
    ),
    # point_order: one climb per prime power f^e of the annihilator n.
    Mutant(
        FINITE,
        "X, Y, Z = self._multiple(n // fe, s, table)",
        "X, Y, Z = self._multiple(n // f, s, table)",
        "point_order: the f-part read off (n / f) * s, not (n / f^e) * s",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "while k < fe and self._jacobian_mul(k, u)[2]:",
        "if k < fe and self._jacobian_mul(k, u)[2]:",
        "point_order: a prime power's climb takes one step at most",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "while k < fe and",
        "while k <= fe and",
        "point_order: the climb tests f^e too, so a broken group law climbs past it",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "order *= k\n",
        "order = k\n",
        "point_order: the order is the last prime's part alone",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if not Z:  # (n / f^e) * s = 0: the f-part is 1\n                continue",
        "if not Z:  # (n / f^e) * s = 0: the f-part is 1\n                pass",
        "point_order: a prime whose (n / f^e) * s is the identity still counted as f",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if e >= 2:\n                u = self._affine(X, Y, Z)",
        "if e >= 3:\n                u = self._affine(X, Y, Z)",
        "point_order: a square prime power f^2 taken as f without a climb",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "n = 4 * c if c else",
        "n = 2 * c if c else",
        "point_order: the annihilator of 4s taken back to s with the wrong factor",
        (T_FINITE,),
    ),
    # Every multiple of s from one dispatcher (_multiple), with s's table or None.
    Mutant(
        FINITE,
        "if table is None:\n            return self._jacobian_mul(n, s)",
        "return self._jacobian_mul(n, s)",
        "_multiple: a given table ignored, every multiple by the double-and-add (same output, no sums)",
        (T_FINITE, T_QUOTIENT),
    ),
    Mutant(
        FINITE,
        "t = self._affine(*self._multiple(k, s, table))",
        "t = self._affine(*self._multiple(k >> 1, s, table))",
        "_annihilator: the search point 2^v * s formed as 2^(v-1) * s",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "self._multiple(k * start, s, table)",
        "self._multiple(start, s, table)",
        "_annihilator: the walk's first point made without the factor k of t = k*s",
        (T_FINITE,),
    ),
    # _annihilator: two baby lanes and two giant lanes, one inversion a step.
    Mutant(
        FINITE,
        "(centre - j if y == walk[1] else centre + j)",
        "(centre + j if y == walk[1] else centre - j)",
        "_annihilator: the baby-step match with the sign of j swapped",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "up, down = self._add_pair(up, giant, down, down_giant)",
        "up, down = self._add_pair(up, giant, down, giant)",
        "_annihilator: the down lane steps by +giant",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if lo - m < centre <= hi + m:",
        "if centre <= hi + m:",
        "_annihilator: the down lane still probed once its window lies below lo",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "if lo - m < centre <= hi + m:",
        "if lo - m <= centre <= hi + m:",
        "_annihilator: the window that ends at lo probed too, finding c < lo",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "giant = self.add(odd, odd) if m > 1 else two",
        "giant = self.add(odd, two) if m > 1 else two",
        "_annihilator: a giant step of (m + 2)*t, not 2m*t",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "lam = (y2 - y1) * d2 * inv % q\n                mu = (y4 - y3) * d1 * inv % q",
        "lam = (y2 - y1) * d1 * inv % q\n                mu = (y4 - y3) * d2 * inv % q",
        "_add_pair: the two lanes' denominators swapped in the shared inversion",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "start = step * up_centre + offset",
        "start = step * up_centre",
        "_annihilator: the odd-cofactor walk without its +t offset",
        (T_FINITE,),
    ),
    # The 2-adic window: _two_part's 2-descent.
    Mutant(
        FINITE,
        "eps * c12 == c23 == 1, eps * c13 == eps * c23 == 1)",
        "c12 == c23 == 1, c13 == c23 == 1)",
        "_two_part: T2 and T3 halve without the character of -1",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "return 4, False",
        "return 4, True",
        "_two_part: v = 4 taken as exact when all three T_i halve",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "raise InvariantViolation(\n                f\"no annihilator",
        "raise RuntimeError(\n                f\"no annihilator",
        "point_order: no annihilator escapes cli_main as a traceback",
        (T_SCAN,),
    ),
    Mutant(
        FINITE,
        "n, s = -n, self.neg(s)",
        "n, s = -n, s",
        "scalar_mul: a sign error for negative n (once masked by p = 2)",
        (T_FINITE, T_QUOTIENT),
    ),
    Mutant(
        FINITE,
        "lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, q) % q",
        "lam = 3 * x1 * x1 * pow(2 * y1, -1, q) % q",
        "add: the tangent slope ignores the curve's a",
        (T_FINITE,),
    ),
    Mutant(
        FINITE,
        "lam = (y2 - y1) * pow(x2 - x1, -1, q) % q",
        "lam = (y2 + y1) * pow(x2 - x1, -1, q) % q",
        "add: the chord slope; sympy's group law, which shares no code, must see it",
        (T_SYMPY,),
    ),
    # The quotient.
    Mutant(
        QUOTIENT,
        "u if s.rep2 == s.rep1 else",
        "u if s.rep1 and s.rep2 and s.rep2[0] == s.rep1[0] else",
        "quotient_scalar_mul: the diagonal reuse also taken for (r, -r)",
        (T_QUOTIENT,),
    ),
    Mutant(
        QUOTIENT,
        "return k2 == k1",
        "return True",
        "quotient_killed_by: Q = (r, r) taken as zero whenever n * r is in <K1>",
        (T_QUOTIENT,),
    ),
    Mutant(
        QUOTIENT,
        "for n in sorted_divisors(m) if divisors is None else divisors:",
        "for n in (sorted_divisors(m) if divisors is None else divisors)[1:]:",
        "quotient_order: an order of 1 is never found",
        (T_QUOTIENT,),
    ),
    Mutant(
        QUOTIENT,
        "divisors = sorted_divisors(ord_r)",
        "divisors = sorted_divisors(ord_r)[::-1]",
        "evaluate_prime: the shared divisor list descending, so each sweep stops at ord_R",
        (T_QUOTIENT,),
    ),
    Mutant(
        QUOTIENT,
        "QuotientPoint(r, r), ord_r, table, divisors)",
        "QuotientPoint(r, r), ord_r, table)",
        "evaluate_prime: the sweep for Q factorizes ord_R again",
        (T_QUOTIENT,),
    ),
    # The relation search and the impossibility certificate.
    Mutant(
        ENDO,
        "L = lcm(*(r.ord_r for r in records))",
        "L = max(*(r.ord_r for r in records))",
        "find_weak_relation: max for lcm (once killed only in some hypothesis runs)",
        (T_ENDO,),
    ),
    Mutant(
        ENDO,
        "_congruent(f := EndoMatrix(a, b, *tail), p)",
        "_congruent(f := EndoMatrix(a, b, *tail), 2)",
        "_first_relation: the descent test at p = 2 whatever p is (killed by the p = 3 tests)",
        (T_ENDO,),
    ),
    Mutant(
        ENDO,
        "(m.a - m.d) % p == 0",
        "(m.a + m.d) % p == 0",
        "_congruent: a = -d instead of a = d, the same at p = 2",
        (T_ENDO,),
    ),
    # Factoring and primality.
    Mutant(
        ARITH,
        "if g != n:\n            return g",
        "if True:\n            return g",
        "_pollard_rho: returns g == n, a trivial factor (killed by 8191 * 31583)",
        (T_ARITH,),
    ),
    Mutant(
        ARITH,
        "if f * f > n:",
        "if f * f >= n:",
        "factorize: trial division stops before a square of a small prime",
        (T_ARITH,),
    ),
    Mutant(
        ARITH,
        "    2047,\n    1373653,",
        "    1373653,",
        "is_prime: the psi table shifted by one index, one base short everywhere",
        (T_ARITH,),
    ),
    Mutant(
        ARITH,
        "    341550071728321,\n    341550071728321,",
        "    341550071728321,",
        "is_prime: the repeated psi_7 = psi_8 dropped, so psi_8 gets 8 bases",
        (T_ARITH,),
    ),
    Mutant(
        ARITH,
        "_MR_BASES[: bisect_right(_MR_PSI, n) + 1]",
        "_MR_BASES[: bisect_right(_MR_PSI, n)]",
        "is_prime: k bases taken from the table's index without the + 1",
        (T_ARITH,),
    ),
    Mutant(
        ARITH,
        "for _ in range(s - 1):",
        "for _ in range(s - 2):",
        "is_prime: one squaring short in each Miller-Rabin round",
        (T_ARITH,),
    ),
    # Quadratic characters: the Jacobi symbol and the square roots it gates.
    Mutant(
        ARITH,
        "n & 7 in (3, 5)",
        "n & 7 in (1, 7)",
        "jacobi: a factor 2 flips the sign at n = 1, 7 mod 8, not 3, 5",
        (T_ARITH,),
    ),
    Mutant(
        ARITH,
        "if a & 3 == 3 and n & 3 == 3:",
        "if a & 3 == 3 or n & 3 == 3:",
        "jacobi: reciprocity flips the sign when either of a, n is 3 mod 4, not both",
        (T_ARITH,),
    ),
    Mutant(
        ARITH,
        "return t if n == 1 else 0",
        "return t",
        "jacobi: a and n with a common factor give +-1, not 0",
        (T_ARITH,),
    ),
    Mutant(
        ARITH,
        "b = pow(c, 1 << (m - i - 1), q)",
        "b = pow(c, 1 << (m - i - 2), q)",
        "sqrt_mod: the Tonelli-Shanks step exponent one short (runs only at q = 1 mod 4)",
        (T_ARITH,),
    ),
    # The report.
    Mutant(
        SCAN,
        "for i, name in sorted(enumerate(CSV_COLUMNS), key=lambda c: c[1])",
        "for i, name in enumerate(CSV_COLUMNS)",
        "write_report: JSON record keys in column order, not sorted",
        (T_SCAN,),
    ),
    Mutant(
        SCAN,
        "rows = [[str(v).lower() for v in r] for r in report.records]",
        "rows = [[str(v) for v in r] for r in report.records]",
        "write_report: booleans as True/False in the CSV and the JSON",
        (T_SCAN,),
    ),
    # The per-prime check of ord_R = ord_P = ord_Q.
    Mutant(
        SCAN,
        "if not r.ord_p == r.ord_q == r.ord_r",
        "if not r.ord_p == r.ord_r",
        "_check_order_equality: an ord_Q that differs from ord_R and ord_P passes",
        (T_SCAN,),
    ),
    # The forked sweep.
    Mutant(
        SCAN,
        "records[w::workers] = stripe",
        "records[w * len(stripe) : (w + 1) * len(stripe)] = stripe",
        "_forked_sweep: the stripes merged as contiguous blocks, not interleaved",
        (T_SCAN,),
    ),
    Mutant(
        SCAN,
        "if isinstance(stripe, BaseException):\n                raise stripe",
        "if isinstance(stripe, BaseException):\n                continue",
        "_forked_sweep: an exception raised in a worker is dropped, not raised again",
        (T_SCAN,),
    ),
    Mutant(
        SCAN,
        "if os.getppid() != parent:",
        "if os.getppid() == 0:",
        "_forked_sweep: a worker runs its stripe on after its parent is gone",
        (T_SCAN,),
    ),
)


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail): killed, survived, stale, error or timeout."""
    with tempfile.TemporaryDirectory(prefix="suppscan-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        path = work / "src" / "suppscan" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        argv += ["--hypothesis-profile=ci", *(f"tests/{m}" for m in mutant.tests)]
        try:
            proc = subprocess.run(argv, cwd=work, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", f"no verdict in {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines() or [""]
    # The first failing test when there is one, else pytest's summary line.
    detail = next((line for line in lines if line.startswith("FAILED")), lines[-1])
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), detail


def main() -> int:
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    failed = 0
    for mutant, (verdict, detail) in zip(MUTANTS, results):
        print(f"{verdict:8} {mutant.file:12} {mutant.why}  [{detail}]")
        failed += verdict != "killed"
    elapsed = time.perf_counter() - start
    if failed:
        print(f"{failed} of {len(MUTANTS)} mutants not killed ({elapsed:.0f} s):", file=sys.stderr)
        for mutant, (verdict, _) in zip(MUTANTS, results):
            if verdict != "killed":
                print(f"  {verdict}: {mutant.file}: {mutant.old!r} -> {mutant.new!r}", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed ({elapsed:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
