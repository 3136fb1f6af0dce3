"""Deterministic synthetic cohorts for the benchmark.

``generate(spec, seed)`` returns the feature-matrix CSV text and the
evaluation-config YAML text for one cohort. The same spec and seed always
give the same bytes: every random draw comes from one ``random.Random``
seeded from both, and every number is written with a fixed format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TOKEN_PREFIX = "T"


@dataclass(frozen=True)
class CohortSpec:
    """Shape of one synthetic cohort.

    integer_max: features are integers in 1..integer_max (dense ties);
    0 means continuous values with few ties.
    token_column: feature 0 is written as opaque tokens resolved through
    the config's encoding map.
    config_weights: the config carries a weight vector (else uniform).
    duplicate_frac: share of platforms whose feature row copies an
    earlier platform's row, so every method has exact score ties.
    gap_frac: share of capability profiles with a layer set above a
    missing one, which classify() reports as a level warning.
    """

    n: int
    m: int
    missing: str  # "mean" | "exclude"
    missing_frac: float
    integer_max: int = 0
    token_column: bool = False
    config_weights: bool = False
    duplicate_frac: float = 0.0
    gap_frac: float = 0.05

    def __post_init__(self):
        if self.token_column and not self.integer_max:
            raise ValueError("a token column needs integer features to encode")


def platform_id(i: int) -> str:
    return f"P{i:05d}"


def feature_name(j: int) -> str:
    return f"f{j:03d}"


def _value(rng: random.Random, spec: CohortSpec) -> str:
    if spec.integer_max:
        return str(rng.randint(1, spec.integer_max))
    return f"{rng.uniform(0.5, 1000.0):.6f}"


def _rows(rng: random.Random, spec: CohortSpec) -> list[list[str]]:
    rows: list[list[str]] = []
    for i in range(spec.n):
        if i and rng.random() < spec.duplicate_frac:
            rows.append(list(rows[rng.randrange(i)]))
            continue
        row = []
        for j in range(spec.m):
            # cell (i, i mod m) is always present, so no platform loses
            # every feature and no column loses every platform
            if j != i % spec.m and rng.random() < spec.missing_frac:
                row.append("-")
            else:
                row.append(_value(rng, spec))
        rows.append(row)
    if spec.token_column:
        for row in rows:
            if row[0] != "-":
                row[0] = f"{TOKEN_PREFIX}{row[0]}"
    return rows


def _matrix_csv(rows: list[list[str]], spec: CohortSpec) -> str:
    header = ",".join(["platform"] + [feature_name(j) for j in range(spec.m)])
    lines = [header] + [
        ",".join([platform_id(i)] + row) for i, row in enumerate(rows)
    ]
    return "\n".join(lines) + "\n"


def _token_encoding(spec: CohortSpec) -> dict[str, str]:
    """Token -> value; the encoded values are the integers themselves."""
    return {f"{TOKEN_PREFIX}{k}": str(k) for k in range(1, spec.integer_max + 1)}


def _weights(rng: random.Random, spec: CohortSpec) -> list[str]:
    """Weights in thousandths that sum to exactly 1000, each at least 1."""
    cuts = sorted(rng.sample(range(1, 1000), spec.m - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [1000])]
    return [f"{p / 1000:.3f}" for p in parts]


def _config_yaml(rng: random.Random, spec: CohortSpec) -> str:
    lines = ["features:"]
    for j in range(spec.m):
        direction = "less_is_better" if j % 4 == 3 else "more_is_better"
        lines.append(f"  - name: {feature_name(j)}")
        lines.append(f"    direction: {direction}")
        if j == 0 and spec.token_column:
            lines.append("    encoding:")
            for token, value in _token_encoding(spec).items():
                lines.append(f'      "{token}": {value}')
    if spec.config_weights:
        lines.append("weights:")
        for j, w in enumerate(_weights(rng, spec)):
            lines.append(f"  {feature_name(j)}: {w}")
    lines.append(f"missing: {spec.missing}")
    lines.append("profiles:")
    for i in range(spec.n):
        if rng.random() < spec.gap_frac:
            flags = ("false", "true", rng.choice(("true", "false")))
        else:
            level = rng.randint(0, 3)
            flags = tuple("true" if k < level else "false" for k in range(3))
        lines.append(f"  {platform_id(i)}:")
        for layer, flag in zip(("modeling", "planning", "execution"), flags):
            lines.append(f"    {layer}: {flag}")
    return "\n".join(lines) + "\n"


def generate(spec: CohortSpec, seed: int) -> tuple[str, str]:
    """Return (matrix_csv, config_yaml) for the cohort; same seed, same bytes."""
    rng = random.Random(f"{seed}:{spec}")
    rows = _rows(rng, spec)
    return _matrix_csv(rows, spec), _config_yaml(rng, spec)
