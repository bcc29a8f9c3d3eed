"""Regenerate pinned_digests.json: the report_digest of every config the
benchmark can draw, at the scan and certify sizes of FULL and TINY.

    python3 perfbench/pin_digests.py

Run it only when the report schema changes on purpose (the change and the
old and new default digests then belong in CHANGES.md); a speed change must
leave every pinned digest as it is.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from perfbench import inputs, workloads  # noqa: E402
from suppscan import LabConfig, run_scan  # noqa: E402


def main() -> None:
    pinned = {}
    configs = inputs.all_configs()
    for n, base in enumerate(configs, 1):
        for sizes in (workloads.FULL, workloads.TINY):
            for config in (sizes.scan_config(base), sizes.certify_config(base)):
                key = inputs.config_key(config)
                if key not in pinned:
                    pinned[key] = run_scan(LabConfig.from_dict(config)).digest()
        print(f"{n}/{len(configs)} {base['curve']} R1={base['R1']} R2={base['R2']}", flush=True)
    text = json.dumps(pinned, indent=1, sort_keys=True) + "\n"
    (HERE / "pinned_digests.json").write_text(text)


if __name__ == "__main__":
    main()
