"""The benchmark's own tests: tiny runs of every workload, a planted wrong
digest, the independent arithmetic, and the entry point outside a checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import arith_check as ac  # noqa: E402
from perfbench import inputs, workloads  # noqa: E402
from perfbench.bench import PINNED, run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _quiet(_line):
    pass


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_complete(name, seed):
    result = run(name, seed, 0.2, False, sizes=workloads.TINY, out=_quiet)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_traced_run_reports_every_layer_metric(name):
    result = run(name, 3, 0.2, True, sizes=workloads.TINY, out=_quiet)
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.spans"]["value"] > 0
    if name != "scan-parallel":  # there the per-prime layers run in untraced workers
        assert result["metrics"]["quotient.quotient_order.calls"]["value"] > 0
        assert result["metrics"]["finite.add.calls"]["value"] > 0


@pytest.mark.parametrize("name", ["scan-serial", "scan-parallel", "certify"])
def test_wrong_pinned_digest_raises_error_rate(name):
    wrong = {key: "0" * 64 for key in json.loads(PINNED.read_text())}
    result = run(name, 0, 0.2, False, sizes=workloads.TINY, pinned=wrong, out=_quiet)
    assert result["failed"] > 0
    assert not result["correct"]


def test_seed_zero_is_the_default_config_and_draws_repeat():
    from suppscan import default_config

    assert inputs.draw_config(0) == default_config().to_dict()
    assert inputs.draw_config(7) == inputs.draw_config(7)
    assert inputs.prime_window(inputs.draw_config(7), 7, 10**6, 5) == inputs.prime_window(
        inputs.draw_config(7), 7, 10**6, 5
    )


def test_every_drawable_config_is_pinned_at_both_sizes():
    pinned = json.loads(PINNED.read_text())
    configs = inputs.all_configs()
    # The default equals one of the 63 validated kernel choices.
    assert len(configs) == 63
    for sizes in (workloads.FULL, workloads.TINY):
        for c in configs:
            assert inputs.config_key(sizes.scan_config(c)) in pinned
            assert inputs.config_key(sizes.certify_config(c)) in pinned


def test_independent_orders_match_the_package_and_reject_wrong_ones():
    from suppscan import FiniteCurve

    for q in (101, 1009, 10007):
        curve = FiniteCurve(q, -21, -20)
        pt = ac.reduce_projective(q, (-3, 4, 1))
        assert ac.on_curve(q, -21 % q, -20 % q, pt)
        order = curve.point_order(pt)
        assert ac.is_exact_order(q, -21 % q, pt, order)
        assert not ac.is_exact_order(q, -21 % q, pt, 2 * order)
        assert not ac.is_exact_order(q, -21 % q, pt, order + 1)


def test_independent_relation_check_matches_the_package():
    from suppscan import EndoMatrix, RationalPoint, default_config, make_context
    from suppscan.endo import relation_holds

    cfg = default_config()
    assert cfg.R == RationalPoint(-3, 4)
    # The default's weak relations are 2Q = (2 0; 2 0) P and 2P = (0 2; 0 0) Q.
    candidates = ((2, (2, 0, 2, 0)), (2, (0, 2, 0, 0)), (2, (2, 0, 0, 0)), (1, (1, 0, 0, 1)), (2, (1, 2, 0, 1)))
    outcomes = set()
    for q in (7, 11, 13, 17, 19, 31, 37):
        ctx = make_context(cfg.curve, cfg.R1, cfg.R2, cfg.p, q)
        r = ac.reduce_projective(q, (-3, 4, 1))
        k1, k2 = ac.reduce_projective(q, (-4, 0, 1)), ac.reduce_projective(q, (-1, 0, 1))
        for k, f in candidates:
            for transposed in (False, True):
                mine = ac.relation_holds_at(q, -21 % q, r, k1, k2, k, (f[:2], f[2:]), transposed)
                theirs = relation_holds(k, EndoMatrix(*f), [ctx], cfg.R, transposed=transposed)
                assert mine == theirs, (q, k, f, transposed)
                outcomes.add(mine)
    assert outcomes == {True, False}


def test_prime_factors_and_primality():
    assert ac.prime_factors(2**5 * 3 * 1_000_003 * 1_000_033) == {2, 3, 1_000_003, 1_000_033}
    assert ac.prime_factors(1) == set()
    assert [n for n in range(50) if ac.is_probable_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]


def test_entry_point_fails_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
