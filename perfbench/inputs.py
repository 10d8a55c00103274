"""Seeded scenario configs for the benchmark workloads.

Seed 0 is the default: the configs are copied unchanged.  Any other seed
scales `data.zeta0` and `data.zeta_dot0` of every bump config by an
independent factor 1 +/- U(0, 0.05).  Stationary configs are copied
unchanged, because their amplitude q must stay a zero of F.  The program
only ever reads the generated copies.
"""

from __future__ import annotations

import random
from pathlib import Path

DEFAULT_SEED = 0
MAX_REL_SCALE = 0.05
SCALED_KEYS = ("data.zeta0", "data.zeta_dot0")


def _entries(text: str) -> dict[str, str]:
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def scale_config(text: str, rng: random.Random) -> str:
    """Config text with the scaled amplitude keys of a bump config.

    Two factors are drawn for every config, bump or not, so that the factors
    of one config do not depend on the kinds of the configs before it.
    """
    factors = {key: 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, MAX_REL_SCALE)
               for key in SCALED_KEYS}
    if _entries(text).get("data.kind", "bump") != "bump":
        return text
    lines = []
    for raw in text.splitlines():
        key, sep, value = raw.partition("=")
        if sep and key.strip() in factors:
            raw = f"{key.strip()} = {float(value) * factors[key.strip()]!r}"
        lines.append(raw)
    return "\n".join(lines) + "\n"


def generate(seed: int, stream: str, sources: list[Path], out_dir: Path) -> list[Path]:
    """Write the seeded copies of `sources` (in sorted order) to out_dir.

    `stream` names the workload, so that workloads draw independent factors.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{stream}:{seed}")
    written = []
    for src in sorted(sources, key=lambda p: p.name):
        text = src.read_text(encoding="utf-8")
        if seed != DEFAULT_SEED:
            text = scale_config(text, rng)
        dst = out_dir / src.name
        dst.write_text(text, encoding="utf-8")
        written.append(dst)
    return written
