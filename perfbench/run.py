"""suppscan benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scan-serial --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the result carries the end-to-end metrics,
with ``--trace 1`` the per-layer ones (see README.md). Human-readable
lines come first; the last line of standard output is the JSON result.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "suppscan" / "__init__.py").is_file():
        print(f"perfbench: no suppscan source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run

    start = time.perf_counter()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"run took {time.perf_counter() - start:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
