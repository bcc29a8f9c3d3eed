"""Seeded inputs: configs drawn from the split non-CM curves, prime windows.

Seed 0 is the packaged default config. Any other seed draws kernel choices
(e1, e2), e1 < e2, from the distinct integer triples e1 + e2 + e3 = 0 with
|ei| <= 12; the curve is y^2 = (x - e1)(x - e2)(x - e3), R1 = (e1, 0),
R2 = (e2, 0), and R is the first integral point with x in [-144, 144] (the
range search-curve uses) for which the package's own validation accepts
the config. A draw it rejects is drawn again. 63 of the 216 kernel choices
survive. Every draw happens before any timed region.
"""

import json
import random
from math import isqrt
from pathlib import Path

from .arith_check import is_probable_prime

ROOT_BOUND = 12
P = 2


def _candidate(e1: int, e2: int):
    e3 = -e1 - e2
    return e1 * e2 + e2 * e3 + e3 * e1, -e1 * e2 * e3


KERNEL_CHOICES = tuple(
    (e1, e2)
    for e1 in range(-ROOT_BOUND, ROOT_BOUND + 1)
    for e2 in range(e1 + 1, ROOT_BOUND + 1)
    if abs(e1 + e2) <= ROOT_BOUND and -e1 - e2 not in (e1, e2)
)


def validated_config(e1: int, e2: int):
    """Config dict for the kernel choice, or None if validation rejects all R."""
    from suppscan import LabConfig, RationalCurve, RationalPoint

    a, b = _candidate(e1, e2)
    curve = RationalCurve(a, b)
    R1, R2 = RationalPoint(e1, 0), RationalPoint(e2, 0)
    for x in range(-ROOT_BOUND**2, ROOT_BOUND**2 + 1):
        v = x**3 + a * x + b
        y = isqrt(v) if v > 0 else 0
        if v <= 0 or y * y != v:
            continue
        R = RationalPoint(x, y)
        config = LabConfig(curve, R, R1, R2, P, 10_000, 100_000, 4, 1)
        if config.validate().ok:
            return config.to_dict()
    return None


def draw_config(seed: int) -> dict:
    """Config dict (package schema) for a seed; see the module docstring."""
    from suppscan import default_config

    if seed == 0:
        return default_config().to_dict()
    rng = random.Random(seed)
    while True:
        found = validated_config(*rng.choice(KERNEL_CHOICES))
        if found is not None:
            return found


def draw_configs(seed: int, count: int) -> list[dict]:
    """count distinct configs: the seed's own first, then further draws."""
    out = [draw_config(seed)]
    sub = random.Random(f"configs-{seed}")
    while len(out) < count:
        cfg = draw_config(sub.randrange(1, 2**31))
        if cfg not in out:
            out.append(cfg)
    return out


def all_configs() -> list[dict]:
    """Every config a seed can draw: the default, then each validated choice."""
    configs = [draw_config(0)]
    for choice in KERNEL_CHOICES:
        config = validated_config(*choice)
        if config is not None and config not in configs:
            configs.append(config)
    return configs


def config_key(config: dict) -> str:
    """Stable key of the digest-relevant config fields (workers excluded)."""
    return json.dumps({k: v for k, v in config.items() if k != "workers"}, sort_keys=True)


def prime_window(config: dict, seed, base: int, count: int) -> list[int]:
    """count consecutive good primes from a seeded start in [base, 1.1 * base)."""
    a, b = config["curve"]
    disc = -16 * (4 * a**3 + 27 * b**2)
    n = base + random.Random(f"window-{seed}").randrange(base // 10)
    out = []
    while len(out) < count:
        if n != config["p"] and disc % n and is_probable_prime(n):
            out.append(n)
        n += 1
    return out


def write_config(config: dict, directory: Path, name: str) -> Path:
    path = directory / name
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path
