"""Mutation gate for the mathematical layers: every mutant must be killed.

    python tests/mutants.py

Each mutant is one textual edit (file, old, new, why) of a module under
src/suppscan, plus the test modules expected to catch it and the node ids
of the tests in them that kill it today (killers). The gate copies src/
and tests/ into a temporary directory, applies the edit there, and runs
pytest -x under the derandomized ``ci`` hypothesis profile
(tests/conftest.py), so a verdict does not depend on the draw: first on
the killers, then, only when none of them fails, on the modules in full,
after printing one line that names the killers that no longer kill. So a
mutant is killed exactly when some test in its modules fails, and the
usual run starts one short pytest a mutant. Two mutants run at a time, one
per core of a 2-core CI runner. The checkout itself is never edited.

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
    killers: tuple  # node ids in those modules that kill it today, run first


FINITE, QUOTIENT, RATIONAL = "finite.py", "quotient.py", "rational.py"
ENDO, ARITH, SCAN = "endo.py", "arith.py", "scan.py"
T_FINITE, T_QUOTIENT, T_RATIONAL = "test_finite.py", "test_quotient.py", "test_rational.py"
T_ENDO, T_ARITH, T_SCAN, T_SYMPY = "test_endo.py", "test_arith.py", "test_scan_cli.py", "test_sympy_oracles.py"

MUTANTS = (
    # Construction: every checked value type rebuilds through its class
    # (CheckedTuple), and QuotientContext's one kernel walk proves its checks.
    Mutant(
        FINITE,
        "class FiniteCurve(CheckedTuple, _FiniteCurveFields):",
        "class FiniteCurve(_FiniteCurveFields, CheckedTuple):",
        "FiniteCurve: the named tuple's _make ahead of CheckedTuple's, so _replace skips the checks",
        (T_FINITE,),
        ("tests/test_finite.py::test_curve_invariants_on_every_construction_path",),
    ),
    Mutant(
        FINITE,
        "    __slots__ = ()\n\n    def __new__(cls, q: int",
        "    __slots__ = ()\n    __reduce__ = object.__reduce__\n\n    def __new__(cls, q: int",
        "FiniteCurve: no __reduce__, so pickle protocols 0 and 1 rebuild it by tuple.__new__",
        (T_FINITE,),
        ("tests/test_finite.py::test_curve_invariants_on_every_construction_path",),
    ),
    Mutant(
        RATIONAL,
        "    __slots__ = ()\n\n    def __new__(cls, x: int",
        "    __slots__ = ()\n    __reduce__ = object.__reduce__\n\n    def __new__(cls, x: int",
        "RationalPoint: no __reduce__, so pickle protocols 0 and 1 rebuild it by tuple.__new__",
        (T_RATIONAL,),
        ("tests/test_rational.py::test_point_invariants_on_every_construction_path",),
    ),
    Mutant(
        QUOTIENT,
        "    def __new__(cls, curve: FiniteCurve",
        "    __reduce__ = object.__reduce__\n\n    def __new__(cls, curve: FiniteCurve",
        "QuotientContext: no __reduce__, so pickle protocols 0 and 1 rebuild it by tuple.__new__",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_context_rechecks_on_copies_and_unpickling",),
    ),
    Mutant(
        QUOTIENT,
        '(("K1", k1, s), ("K2", k2, t))',
        '(("K1", k1, s), ("K2", k2, s))',
        "QuotientContext: only K1's walk end checked, so a K2 of another order passes",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_context_invariants",),
    ),
    Mutant(
        QUOTIENT,
        "if k2 in k1_multiples:",
        "if False:",
        "QuotientContext: the independence check dropped, so K2 = K1 passes",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_context_invariants",),
    ),
    Mutant(
        QUOTIENT,
        "if pt is None or end is not None:",
        "if end is not None:",
        "QuotientContext: the identity-K check dropped, so K1 = 0 passes",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_context_invariants",),
    ),
    # _jacobian_mul, the one double-and-add behind scalar_mul and _multiple:
    # its degenerate cases.
    Mutant(
        FINITE,
        "if n == 0:\n            return 1, 1, 0",
        "if n is None:\n            return 1, 1, 0",
        "_jacobian_mul: n == 0 runs no bit and reads s itself as the result",
        (T_FINITE,),
        ("tests/test_finite.py::test_scalar_mul",),
    ),
    Mutant(
        FINITE,
        "else self._multiple(abs(n), s, table)",
        "else self._multiple(n, s, table)",
        "index_of_multiple: a negative n passed on, so the double-and-add reads the sign and 'b' as bits",
        (T_FINITE,),
        ("tests/test_finite.py::test_killed_by_every_point_of_small_fields",),
    ),
    Mutant(
        FINITE,
        "Z = 2 * Y * Z % q\n            Y = (M",
        "Z = (2 * Y * Z % q) or Z\n            Y = (M",
        "_jacobian_mul: doubling a point with Y == 0 (2-torsion) stays finite",
        (T_FINITE,),
        ("tests/test_finite.py::test_scalar_mul",),
    ),
    Mutant(
        FINITE,
        "if not Z:\n                    X, Y, Z = x, y, 1",
        "if not Z:\n                    X, Y, Z = x, y, 0",
        "_jacobian_mul: the identity accumulator plus s stays the identity",
        (T_FINITE,),
        ("tests/test_finite.py::test_scalar_mul",),
    ),
    Mutant(
        FINITE,
        "X, Y, Z = x, y, 1\n                    continue",
        "X, Y, Z = x, y, 1",
        "_jacobian_mul: the identity accumulator plus s goes on to add s again",
        (T_FINITE,),
        ("tests/test_finite.py::test_scalar_mul",),
    ),
    Mutant(
        FINITE,
        "if r:  # the accumulator is -s\n                        Z = 0",
        "if r:  # the accumulator is -s\n                        Z = Z",
        "_jacobian_mul: H == 0, r != 0 (accumulator -s) leaves -s instead of the identity",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "if r:  # the accumulator is -s",
        "if not r:  # the accumulator is -s",
        "_jacobian_mul: H == 0 with r == 0 and r != 0 swapped",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "(X, Y), Z = self.add(s, s), 1",
        "(X, Y), Z = s, 1",
        "_jacobian_mul: H == 0, r == 0 (accumulator s) gives s instead of 2s",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "M = (3 * X * X + a * ZZ * ZZ) % q\n            X3 = (M * M - 2 * S) % q\n            Z = 2 * Y * Z % q\n            Y",
        "M = 3 * X * X % q\n            X3 = (M * M - 2 * S) % q\n            Z = 2 * Y * Z % q\n            Y",
        "_jacobian_mul: doubling ignores the curve's a",
        (T_FINITE,),
        ("tests/test_finite.py::test_scalar_mul",),
    ),
    Mutant(
        FINITE,
        "                H = (x * ZZ - X) % q",
        "                H = (x * Z - X) % q",
        "_jacobian_mul: mixed addition scales x by Z, not Z^2",
        (T_FINITE,),
        ("tests/test_finite.py::test_scalar_mul",),
    ),
    Mutant(
        FINITE,
        "                Y = (r * (V - X3) - Y * HHH) % q",
        "                Y = (r * (V - X3) + Y * HHH) % q",
        "_jacobian_mul: sign of the Y * H^3 term in mixed addition",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "return X * zz % q, Y * zz * zi % q",
        "return X * zz % q, Y * zz % q",
        "scalar_mul: Y taken back to affine by Z^-2, not Z^-3",
        (T_FINITE,),
        ("tests/test_finite.py::test_scalar_mul",),
    ),
    # index_of_multiple: the projective comparison behind each quotient-order trial.
    Mutant(
        FINITE,
        "(t[0] * ZZ - X) % q == 0 and (t[1] * ZZ * Z - Y) % q == 0:",
        "(t[0] * ZZ - X) % q == 0:",
        "index_of_multiple: y not compared, so -P matches P (visible at p = 3 only)",
        (T_QUOTIENT, T_FINITE),
        ("tests/test_quotient.py::test_quotient_order_matches_walk_oracle",),
    ),
    Mutant(
        FINITE,
        "(t[1] * ZZ * Z - Y) % q == 0",
        "(t[1] * ZZ - Y) % q == 0",
        "index_of_multiple: y compared with y*Z^2, not y*Z^3 (visible at p = 3 only)",
        (T_QUOTIENT, T_FINITE),
        ("tests/test_quotient.py::test_quotient_killed_by_matches_kernel_lookup",),
    ),
    # doublings and _comb: the table of a point's doublings and its sums.
    Mutant(
        FINITE,
        "lam = (3 * x * x + a) * pow(2 * y, -1, q) % q",
        "lam = 3 * x * x * pow(2 * y, -1, q) % q",
        "doublings: the chain's tangent slope without a",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "while y and len(table) < length:",
        "while len(table) < length:",
        "doublings: the chain doubles on past a point with y = 0, inverting 0",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "return _Doublings(table + [None] * (length - len(table)))",
        "return _Doublings(table)",
        "doublings: a table that meets the identity stops short, without its None entries",
        (T_FINITE,),
        ("tests/test_finite.py::test_doublings_match_scalar_mul",),
    ),
    Mutant(
        FINITE,
        "if not Z:\n                X, Y, Z = x, y, 1\n                continue\n            ZZ",
        "ZZ",
        "_comb: the identity branch dropped, so the empty sum stays the identity",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "if r:  # the running sum is -table[j]\n                    Z = 0",
        "if r:  # the running sum is -table[j]\n                    Z = Z",
        "_comb: a sum that meets -table[j] stays finite instead of the identity",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "X, Y, Z = (*t, 1) if t else (1, 1, 0)",
        "X, Y, Z = 1, 1, 0",
        "_comb: a running sum that meets the entry it adds becomes the identity, not its double",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "\n            Y = (r * (V - X3) - Y * HHH) % q",
        "\n            Y = (r * (V - X3) + Y * HHH) % q",
        "_comb: sign of the Y * H^3 term in its mixed addition",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "if n.bit_length() < len(table):",
        "if n.bit_length() <= len(table):",
        "_multiple: an n of L bits, whose NAF may have a digit at L, summed from a table of length L",
        (T_FINITE,),
        ("tests/test_finite.py::test_comb_matches_double_and_add",),
    ),
    # The sums each table keeps (_Doublings.sums, filled by _multiple).
    Mutant(
        FINITE,
        "def __new__(cls, entries):\n        self = super().__new__(cls, entries)\n        self.sums = {}",
        "def __new__(cls, entries, sums={}):\n        self = super().__new__(cls, entries)\n        self.sums = sums",
        "_Doublings: one dict of sums shared by every table, of every point and curve",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "total = table.sums.get(n)\n        if total is None:",
        "total = table.sums.get(n >> 1)\n        if total is None:",
        "_multiple: a sum looked up under n >> 1, not n",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "table.sums[n] = total",
        "table.sums[n + 1] = total",
        "_multiple: a sum kept under n + 1, not the n that was summed",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "total = table.sums.get(n)",
        "total = None",
        "_multiple: the kept sums never read, so each repeated n is summed again",
        (T_FINITE, T_QUOTIENT),
        ("tests/test_finite.py::test_table_mul_sums_each_scalar_once_per_table",),
    ),
    # An even n whose half is kept: one doubling of that half (_multiple).
    Mutant(
        FINITE,
        "half = None if n & 1 else table.sums.get(n >> 1)",
        "half = table.sums.get(n >> 1)",
        "_multiple: the parity guard dropped, so an odd n is doubled from n >> 1",
        (T_FINITE, T_QUOTIENT),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "if half[2] else half",
        "if not half[2] else half",
        "_multiple: a finite kept half returned undoubled, and the identity made affine",
        (T_FINITE, T_QUOTIENT),
        ("tests/test_finite.py::test_point_order_random_curves",),
    ),
    Mutant(
        FINITE,
        "else table.sums.get(n >> 1)",
        "else table.sums.get(n >> 2)",
        "_multiple: the half of an even n read as n >> 2",
        (T_FINITE, T_QUOTIENT),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "table.sums[n] = total",
        "if half is None:\n                table.sums[n] = total",
        "_multiple: a sum doubled from a kept half is not kept itself",
        (T_FINITE, T_QUOTIENT),
        ("tests/test_finite.py::test_table_mul_sums_each_scalar_once_per_table",),
    ),
    # _comb's signed digits: the non-adjacent form read off n and 3n.
    Mutant(
        FINITE,
        "pos, neg = (h & ~n) >> 1, (n & ~h) >> 1",
        "pos, neg = h & ~n, n & ~h",
        "_comb: the NAF masks without the >> 1, every digit one place too high",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "pos, neg = (h & ~n) >> 1, (n & ~h) >> 1",
        "neg, pos = (h & ~n) >> 1, (n & ~h) >> 1",
        "_comb: the positive and negative digit masks swapped",
        (T_FINITE,),
        ("tests/test_finite.py::test_comb_matches_double_and_add",),
    ),
    Mutant(
        FINITE,
        "if neg & low:\n                y = q - y",
        "if neg & low:\n                y = y",
        "_comb: a negative digit adds table[j], not -table[j]",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    # point_order: one climb per prime power f^e of the annihilator n.
    Mutant(
        FINITE,
        "X, Y, Z = self._multiple(n // fe, s, table)",
        "X, Y, Z = self._multiple(n // f, s, table)",
        "point_order: the f-part read off (n / f) * s, not (n / f^e) * s",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_examples",),
    ),
    Mutant(
        FINITE,
        "while k < fe and self._jacobian_mul(k, u)[2]:",
        "if k < fe and self._jacobian_mul(k, u)[2]:",
        "point_order: a prime power's climb takes one step at most",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "while k < fe and",
        "while k <= fe and",
        "point_order: the climb tests f^e too, so a broken group law climbs past it",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_climbs_each_prime_power_once",),
    ),
    Mutant(
        FINITE,
        "order *= k\n",
        "order = k\n",
        "point_order: the order is the last prime's part alone",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "if not Z:  # (n / f^e) * s = 0: the f-part is 1\n                continue",
        "if not Z:  # (n / f^e) * s = 0: the f-part is 1\n                pass",
        "point_order: a prime whose (n / f^e) * s is the identity still counted as f",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "if e >= 2:\n                u = self._affine(X, Y, Z)",
        "if e >= 3:\n                u = self._affine(X, Y, Z)",
        "point_order: a square prime power f^2 taken as f without a climb",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "n = k * c\n",
        "n = 2 * c\n",
        "point_order: the annihilator of k*s taken back to s with the factor 2, not k",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_climbs_each_prime_power_once",),
    ),
    # point_order's one search: its (k, odd_only) and the check of two_torsion.
    Mutant(
        FINITE,
        "if two_torsion is None:\n            k, odd_only = 1, False",
        "if two_torsion is None:\n            k, odd_only = 4, False",
        "point_order: without two_torsion the search runs on 4*s, although 4 need not divide #E",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "else:\n            k, odd_only = 4, False",
        "else:\n            k, odd_only = 1, False",
        "point_order: with two_torsion at or below the crossover the search runs on s, not 4*s",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_runs_one_search",),
    ),
    Mutant(
        FINITE,
        "k = 1 << v",
        "k = 1 << (v - 1)",
        "point_order: the windowed search on 2^(v-1) * s, so an exact 2-part leaves an even cofactor",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_same_with_and_without_doublings",),
    ),
    Mutant(
        FINITE,
        "if two_torsion is not None:\n            e1, e2",
        "if two_torsion is not None and q > _WINDOW_MIN_Q:\n            e1, e2",
        "point_order: two_torsion checked only where the window reads it",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_rejects_non_roots_at_every_q",),
    ),
    # Every multiple of s from one dispatcher (_multiple), with s's table or None.
    Mutant(
        FINITE,
        "if table is None:\n            return self._jacobian_mul(n, s)",
        "return self._jacobian_mul(n, s)",
        "_multiple: a given table ignored, every multiple by the double-and-add (same output, no sums)",
        (T_FINITE, T_QUOTIENT),
        ("tests/test_finite.py::test_table_mul_sums_each_scalar_once_per_table",),
    ),
    Mutant(
        FINITE,
        "t = self._affine(*self._multiple(k, s, table))",
        "t = self._affine(*self._multiple(k >> 1, s, table))",
        "_annihilator: the search point 2^v * s formed as 2^(v-1) * s",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_examples",),
    ),
    Mutant(
        FINITE,
        "self._multiple(k * (step * up_centre + offset), s, table)",
        "self._multiple(step * up_centre + offset, s, table)",
        "_annihilator: the walk's first point made without the factor k of t = k*s",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_same_with_and_without_doublings",),
    ),
    # _annihilator: two baby lanes and two giant lanes, one inversion a step.
    Mutant(
        FINITE,
        "(up_centre - j if ys[j] == uy else up_centre + j)",
        "(up_centre + j if ys[j] == uy else up_centre - j)",
        "_annihilator: the up lane's baby-step match with the sign of j swapped",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_examples",),
    ),
    Mutant(
        FINITE,
        "(down_centre - j if ys[j] == vy else down_centre + j)",
        "(down_centre + j if ys[j] == vy else down_centre - j)",
        "_annihilator: the down lane's baby-step match with the sign of j swapped",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "down = self.add(None if vy is None else (vx, vy), (gx, -gy % q))",
        "down = self.add(None if vy is None else (vx, vy), giant)",
        "_annihilator: the down lane steps by +giant where it falls back to add",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "(-gy - vy) * d1 * inv % q",
        "(gy - vy) * d1 * inv % q",
        "_annihilator: the down lane's slope numerator gy - vy, a step by +giant",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_default_curve_reductions",),
    ),
    Mutant(
        FINITE,
        "d1, d2 = gx - ux, gx - vx",
        "d1, d2 = gx - ux, gx + vx",
        "_annihilator: the down lane's denominator taken as gx + vx",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "if lo - m < down_centre <= hi + m:",
        "if down_centre <= hi + m:",
        "_annihilator: the down lane still probed once its window lies below lo",
        (T_FINITE,),
        ("tests/test_finite.py::test_annihilator_stays_within_its_windows",),
    ),
    Mutant(
        FINITE,
        "if lo - m < down_centre <= hi + m:",
        "if lo - m <= down_centre <= hi + m:",
        "_annihilator: the window that ends at lo probed too, finding c < lo",
        (T_FINITE,),
        ("tests/test_finite.py::test_annihilator_stays_within_its_windows",),
    ),
    Mutant(
        FINITE,
        "giant = self.add((ox, oy), (ox, oy)) if m > 1 else two",
        "giant = self.add((ox, oy), two) if m > 1 else two",
        "_annihilator: a giant step of (m + 2)*t, not 2m*t",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_default_curve_reductions",),
    ),
    Mutant(
        FINITE,
        "if giant is None:  # u has order w",
        "if giant is None and False:  # u has order w",
        "_annihilator: a giant step that is the identity walks on, adding a placeholder point",
        (T_FINITE,),
        ("tests/test_finite.py::test_annihilator_reaches_every_lane_fallback",),
    ),
    Mutant(
        FINITE,
        "lam, mu = (ty - oy) * d2 * inv % q, (ty - ey) * d1 * inv % q",
        "lam, mu = (ty - oy) * d1 * inv % q, (ty - ey) * d2 * inv % q",
        "_annihilator: the baby lanes' denominators swapped in the shared inversion",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_default_curve_reductions",),
    ),
    Mutant(
        FINITE,
        "lam, mu = (gy - uy) * d2 * inv % q, (-gy - vy) * d1 * inv % q",
        "lam, mu = (gy - uy) * d1 * inv % q, (-gy - vy) * d2 * inv % q",
        "_annihilator: the giant lanes' denominators swapped in the shared inversion",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_equals_naive_exhaustive_small_fields",),
    ),
    Mutant(
        FINITE,
        "k * (step * up_centre + offset)",
        "k * (step * up_centre)",
        "_annihilator: the odd-cofactor walk without its +t offset",
        (T_FINITE,),
        ("tests/test_finite.py::test_annihilator_reaches_every_lane_fallback",),
    ),
    # The 2-adic window: _two_part's 2-descent.
    Mutant(
        FINITE,
        "eps * c12 == c23 == 1, eps * c13 == eps * c23 == 1)",
        "c12 == c23 == 1, c13 == c23 == 1)",
        "_two_part: T2 and T3 halve without the character of -1",
        (T_FINITE,),
        ("tests/test_finite.py::test_point_order_same_with_and_without_doublings",),
    ),
    Mutant(
        FINITE,
        "return 4, False",
        "return 4, True",
        "_two_part: v = 4 taken as exact when all three T_i halve",
        (T_FINITE,),
        ("tests/test_finite.py::test_two_part_matches_point_counts",),
    ),
    Mutant(
        FINITE,
        "raise InvariantViolation(\n                f\"no annihilator",
        "raise RuntimeError(\n                f\"no annihilator",
        "point_order: no annihilator escapes cli_main as a traceback",
        (T_SCAN,),
        ("tests/test_scan_cli.py::test_cli_point_order_without_annihilator_is_an_invariant_violation",),
    ),
    Mutant(
        FINITE,
        "n, s = -n, self.neg(s)",
        "n, s = -n, s",
        "scalar_mul: a sign error for negative n (once masked by p = 2)",
        (T_FINITE, T_QUOTIENT),
        ("tests/test_finite.py::test_scalar_mul",),
    ),
    Mutant(
        FINITE,
        "lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, q) % q",
        "lam = 3 * x1 * x1 * pow(2 * y1, -1, q) % q",
        "add: the tangent slope ignores the curve's a",
        (T_FINITE,),
        ("tests/test_finite.py::test_f5_addition_examples",),
    ),
    Mutant(
        FINITE,
        "lam = (y2 - y1) * pow(x2 - x1, -1, q) % q",
        "lam = (y2 + y1) * pow(x2 - x1, -1, q) % q",
        "add: the chord slope; sympy's group law, which shares no code, must see it",
        (T_SYMPY,),
        ("tests/test_sympy_oracles.py::test_point_order_and_count_match_sympy[37-1-1]",),
    ),
    # The quotient.
    Mutant(
        QUOTIENT,
        "u if s.rep2 == s.rep1 else",
        "u if s.rep1 and s.rep2 and s.rep2[0] == s.rep1[0] else",
        "quotient_scalar_mul: the diagonal reuse also taken for (r, -r)",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_quotient_scalar_mul_is_componentwise",),
    ),
    Mutant(
        QUOTIENT,
        "return k2 == k1",
        "return True",
        "quotient_killed_by: Q = (r, r) taken as zero whenever n * r is in <K1>",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_quotient_order_examples",),
    ),
    Mutant(
        QUOTIENT,
        "for n in sorted_divisors(m) if divisors is None else divisors:",
        "for n in (sorted_divisors(m) if divisors is None else divisors)[1:]:",
        "quotient_order: an order of 1 is never found",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_quotient_order_examples",),
    ),
    Mutant(
        QUOTIENT,
        "candidates = sorted_divisors(ord_r)",
        "candidates = sorted_divisors(ord_r)[::-1]",
        "evaluate_prime: the shared divisor list descending, so each sweep stops at ord_R",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_quotient_order_tries_only_divisors_of_m",),
    ),
    Mutant(
        QUOTIENT,
        "QuotientPoint(r, r), ord_r, table, candidates)",
        "QuotientPoint(r, r), ord_r, table)",
        "evaluate_prime: the sweep for Q factorizes ord_R again",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_quotient_order_tries_only_divisors_of_m",),
    ),
    # Past the table crossover: the order of P or Q is ord_R / p or ord_R.
    Mutant(
        QUOTIENT,
        "candidates = (ord_r // ctx.p, ord_r)",
        "candidates = (ord_r, ord_r)",
        "evaluate_prime: the candidate ord_R / p read as ord_R (same output on valid input)",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_quotient_order_tries_only_divisors_of_m",),
    ),
    Mutant(
        QUOTIENT,
        "(ord_r // ctx.p, ord_r)",
        "(ord_r // 2, ord_r)",
        "evaluate_prime: the candidate ord_R / p read as ord_R // 2, the same at p = 2 (killed at p = 3)",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_evaluate_prime_tries_two_candidates_past_the_crossover",),
    ),
    Mutant(
        QUOTIENT,
        "if ord_r % ctx.p == 0 else (ord_r,)",
        "if ord_r % ctx.p != 0 else (ord_r,)",
        "evaluate_prime: ord_R / p tried only when p does not divide ord_R (same output on valid input)",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_quotient_order_tries_only_divisors_of_m",),
    ),
    Mutant(
        QUOTIENT,
        "if table is None:\n        candidates",
        "if table is not None:\n        candidates",
        "evaluate_prime: the two candidates below the crossover, every divisor past it (same output)",
        (T_QUOTIENT,),
        ("tests/test_quotient.py::test_quotient_order_tries_only_divisors_of_m",),
    ),
    # The relation search and the impossibility certificate.
    Mutant(
        ENDO,
        "L = lcm(*(r.ord_r for r in records))",
        "L = max(*(r.ord_r for r in records))",
        "find_weak_relation: max for lcm (once killed only in some hypothesis runs)",
        (T_ENDO,),
        ("tests/test_endo.py::test_find_weak_relation_matches_sweep_oracle",),
    ),
    Mutant(
        ENDO,
        "_congruent(f := EndoMatrix(a, b, *tail), p)",
        "_congruent(f := EndoMatrix(a, b, *tail), 2)",
        "_first_relation: the descent test at p = 2 whatever p is (killed by the p = 3 tests)",
        (T_ENDO,),
        ("tests/test_endo.py::test_find_weak_relation_at_p3_matches_sweep_oracle[orders0-4]",),
    ),
    Mutant(
        ENDO,
        "(m.a - m.d) % p == 0",
        "(m.a + m.d) % p == 0",
        "_congruent: a = -d instead of a = d, the same at p = 2",
        (T_ENDO,),
        ("tests/test_endo.py::test_descends_examples",),
    ),
    # Factoring and primality.
    Mutant(
        ARITH,
        "if g != n:\n            return g",
        "if True:\n            return g",
        "_pollard_rho: returns g == n, a trivial factor (killed by 8191 * 31583)",
        (T_ARITH,),
        ("tests/test_arith.py::test_factorize_edge_cases",),
    ),
    Mutant(
        ARITH,
        "if f * f > g:\n            f = g",
        "if f * f > g:\n            break",
        "factorize: the last small prime of the gcd left in n, read as the cofactor",
        (T_ARITH,),
        ("tests/test_arith.py::test_factorize",),
    ),
    Mutant(
        ARITH,
        "g //= f\n",
        "g //= 1\n",
        "factorize: the gcd keeps each prime divided out, so the strip runs past the last small prime",
        (T_ARITH,),
        ("tests/test_arith.py::test_factorize",),
    ),
    Mutant(
        ARITH,
        "while n % f == 0:\n                n //= f",
        "if n % f == 0:\n                n //= f",
        "factorize: a small prime's higher powers skipped",
        (T_ARITH,),
        ("tests/test_arith.py::test_factorize",),
    ),
    Mutant(
        ARITH,
        "    2047,\n    1373653,",
        "    1373653,",
        "is_prime: the psi table shifted by one index, one base short everywhere",
        (T_ARITH,),
        ("tests/test_arith.py::test_is_prime_at_the_bounds_of_its_witnesses",),
    ),
    Mutant(
        ARITH,
        "    341550071728321,\n    341550071728321,",
        "    341550071728321,",
        "is_prime: the repeated psi_7 = psi_8 dropped, so psi_8 gets 8 bases",
        (T_ARITH,),
        ("tests/test_arith.py::test_is_prime_at_the_bounds_of_its_witnesses",),
    ),
    Mutant(
        ARITH,
        "_MR_BASES[: bisect_right(_MR_PSI, n) + 1]",
        "_MR_BASES[: bisect_right(_MR_PSI, n)]",
        "is_prime: k bases taken from the table's index without the + 1",
        (T_ARITH,),
        ("tests/test_arith.py::test_is_prime_against_trial_division",),
    ),
    Mutant(
        ARITH,
        "for _ in range(s - 1):",
        "for _ in range(s - 2):",
        "is_prime: one squaring short in each Miller-Rabin round",
        (T_ARITH,),
        ("tests/test_arith.py::test_is_prime_against_trial_division",),
    ),
    # Quadratic characters: the Jacobi symbol and the square roots it gates.
    Mutant(
        ARITH,
        "n & 7 in (3, 5)",
        "n & 7 in (1, 7)",
        "jacobi: a factor 2 flips the sign at n = 1, 7 mod 8, not 3, 5",
        (T_ARITH,),
        ("tests/test_arith.py::test_jacobi_is_eulers_criterion_at_primes",),
    ),
    Mutant(
        ARITH,
        "if a & 3 == 3 and n & 3 == 3:",
        "if a & 3 == 3 or n & 3 == 3:",
        "jacobi: reciprocity flips the sign when either of a, n is 3 mod 4, not both",
        (T_ARITH,),
        ("tests/test_arith.py::test_jacobi_is_eulers_criterion_at_primes",),
    ),
    Mutant(
        ARITH,
        "return t if n == 1 else 0",
        "return t",
        "jacobi: a and n with a common factor give +-1, not 0",
        (T_ARITH,),
        ("tests/test_arith.py::test_jacobi_is_eulers_criterion_at_primes",),
    ),
    Mutant(
        ARITH,
        "b = pow(c, 1 << (m - i - 1), q)",
        "b = pow(c, 1 << (m - i - 2), q)",
        "sqrt_mod: the Tonelli-Shanks step exponent one short (runs only at q = 1 mod 4)",
        (T_ARITH,),
        ("tests/test_arith.py::test_sqrt_mod_brute_force_small_primes",),
    ),
    # The report.
    Mutant(
        SCAN,
        "for i, name in sorted(enumerate(CSV_COLUMNS), key=lambda c: c[1])",
        "for i, name in enumerate(CSV_COLUMNS)",
        "write_report: JSON record keys in column order, not sorted",
        (T_SCAN,),
        ("tests/test_scan_cli.py::test_report_bytes_of_a_small_default_scan",),
    ),
    Mutant(
        SCAN,
        "rows = [[str(v).lower() for v in r] for r in report.records]",
        "rows = [[str(v) for v in r] for r in report.records]",
        "write_report: booleans as True/False in the CSV and the JSON",
        (T_SCAN,),
        ("tests/test_scan_cli.py::test_scan_deterministic_across_workers",),
    ),
    # The per-prime check of ord_R = ord_P = ord_Q.
    Mutant(
        SCAN,
        "if not r.ord_p == r.ord_q == r.ord_r",
        "if not r.ord_p == r.ord_r",
        "_check_order_equality: an ord_Q that differs from ord_R and ord_P passes",
        (T_SCAN,),
        ("tests/test_scan_cli.py::test_run_scan_fails_loudly_on_order_mismatch",),
    ),
    # The forked sweep.
    Mutant(
        SCAN,
        "records[w::workers] = stripe",
        "records[w * len(stripe) : (w + 1) * len(stripe)] = stripe",
        "_forked_sweep: the stripes merged as contiguous blocks, not interleaved",
        (T_SCAN,),
        ("tests/test_scan_cli.py::test_scan_deterministic_across_workers",),
    ),
    Mutant(
        SCAN,
        "if isinstance(stripe, BaseException):\n                raise stripe",
        "if isinstance(stripe, BaseException):\n                continue",
        "_forked_sweep: an exception raised in a worker is dropped, not raised again",
        (T_SCAN,),
        ("tests/test_scan_cli.py::test_cli_sweep_worker_exceptions_keep_their_exit_codes",),
    ),
    Mutant(
        SCAN,
        "if os.getppid() != parent:",
        "if os.getppid() == 0:",
        "_forked_sweep: a worker runs its stripe on after its parent is gone",
        (T_SCAN,),
        ("tests/test_scan_cli.py::test_sweep_workers_exit_when_the_parent_is_terminated",),
    ),
)


def _pytest(work: Path, targets, deadline: float) -> subprocess.CompletedProcess:
    # Plain asserts fail the same tests. Rewriting them also rewrites every
    # module of the hypothesis plugin, most of a short run where no bytecode
    # cache is written.
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--assert=plain"]
    argv += ["--hypothesis-profile=ci", *targets]
    timeout = max(deadline - time.monotonic(), 0)
    return subprocess.run(argv, cwd=work, capture_output=True, text=True, timeout=timeout)


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail): killed, survived, stale, error or timeout."""
    modules = [f"tests/{m}" for m in mutant.tests]
    if not mutant.killers or any(k.split("::")[0] not in modules for k in mutant.killers):
        return "stale", f"killers must name tests in {', '.join(modules)}"
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
        deadline = time.monotonic() + TIMEOUT_S
        try:
            proc = _pytest(work, mutant.killers, deadline)
            if proc.returncode != 1:
                print(f"fallback {mutant.file:12} {mutant.why}: {mutant.killers} no longer kill it")
                proc = _pytest(work, modules, deadline)
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
