"""Every config the benchmark can draw, scanned at prime_bound 10^4 and
checked against arithmetic that shares no code with suppscan.

    python tests/pinned_records.py

Scans each config of perfbench's inputs.all_configs() at the benchmark's
scan size (workloads.FULL.scan_config), compares each report's digest with
perfbench/pinned_digests.json, and checks every record with wrong_records.
perfbench is only read. Exit 0 when every digest matches and every record
checks; exit 1 naming the configs that do not.
"""

import json
import sys
import time
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# perfbench's modular arithmetic, loaded by path: it imports nothing of suppscan.
_spec = spec_from_file_location("arith_check", ROOT / "perfbench" / "arith_check.py")
arith_check = module_from_spec(_spec)
_spec.loader.exec_module(arith_check)


def wrong_records(config, records) -> list:
    """The q of each record of a scan of config (a LabConfig) that
    perfbench's Jacobian arithmetic refutes. A record holds when ord_R is
    the exact order of r = R mod q, ord_P = ord_Q = ord_R, and for each
    prime f | ord_R the multiple (ord_R / f) * r puts neither P = (r, 0)
    nor Q = (r, r) into <(K1, K2)>, so both have order ord_R."""
    R, R1, R2 = tuple(config.R), tuple(config.R1), tuple(config.R2)
    wrong = []
    for rec in records:
        q, m, a = rec.q, rec.ord_r, config.curve.a % rec.q
        r = arith_check.reduce_projective(q, R)
        k1, k2 = (arith_check.reduce_projective(q, K) for K in (R1, R2))
        kernel = {
            tuple(arith_check.to_affine(q, arith_check.jacobian_mul(q, a, i, (*k, 1))) for k in (k1, k2))
            for i in range(config.p)
        }
        ok = rec.ord_p == rec.ord_q == m and arith_check.is_exact_order(q, a, r, m)
        for f in arith_check.prime_factors(m):
            u = arith_check.to_affine(q, arith_check.jacobian_mul(q, a, m // f, (*r, 1)))
            ok = ok and (u, None) not in kernel and (u, u) not in kernel
        if not ok:
            wrong.append(q)
    return wrong


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs, workloads
    from suppscan import LabConfig, run_scan

    start = time.perf_counter()
    pinned = json.loads((ROOT / "perfbench" / "pinned_digests.json").read_text())
    configs = inputs.all_configs()
    failed, records = [], 0
    for base in configs:
        config = workloads.FULL.scan_config(base)
        lab = LabConfig.from_dict(config)
        report = run_scan(lab)
        digest, wrong = report.digest(), wrong_records(lab, report.records)
        records += len(report.records)
        if digest != pinned[inputs.config_key(config)] or wrong:
            name = f"{base['curve']} R1={base['R1']} R2={base['R2']}"
            failed.append(f"{name}: digest {digest[:12]}, wrong at q in {wrong[:5]}")
    elapsed = time.perf_counter() - start
    summary = f"{len(configs)} configs, {records} records ({elapsed:.0f} s)"
    if failed:
        print(f"{len(failed)} of {summary} do not check:", *failed, sep="\n  ", file=sys.stderr)
        return 1
    print(f"all {summary}: digests pinned, every record checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
