"""Output checks for the benchmark, independent of ncap's own algorithms.

Each ``check_*`` function takes one command's csv output and returns a
list of problems; an empty list means the output is correct. Ranks are
recomputed by sorting, tau-b by counting every pair, and autonomy levels
and the reference platform from the capability flags directly, so a
defect in ncap's ranking, tau-b or reference selection shows here.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Mapping, Sequence

# printed values carry 6 decimals; allow the rounding plus float noise
TOLERANCE = 1e-6


def competition_ranks(scores: Mapping[str, float]) -> dict[str, int]:
    """Descending competition ranks by one sort and a walk over tie groups,
    keyed in the input order."""
    order = sorted(scores, key=lambda p: -scores[p])
    ranks: dict[str, int] = {}
    rank, previous = 0, None
    for position, platform in enumerate(order, start=1):
        if scores[platform] != previous:
            rank, previous = position, scores[platform]
        ranks[platform] = rank
    return {platform: ranks[platform] for platform in scores}


def tau_b(x: Sequence[int], y: Sequence[int]) -> float:
    """Kendall tau-b by inspecting every pair; nan when a column is one tie."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        xi, yi = x[i], y[i]
        for xj, yj in zip(x[i + 1 :], y[i + 1 :]):
            if xj == xi:
                ties_x += 1
                if yj == yi:
                    ties_y += 1
            elif yj == yi:
                ties_y += 1
            elif (xj > xi) == (yj > yi):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    if ties_x == n0 or ties_y == n0:
        return math.nan
    tau = (concordant - discordant) / math.sqrt(n0 - ties_x) / math.sqrt(n0 - ties_y)
    return min(1.0, max(-1.0, tau))


def autonomy_level(modeling: bool, planning: bool, execution: bool) -> int:
    """Length of the unbroken run of capabilities above perception."""
    if not modeling:
        return 0
    if not planning:
        return 1
    return 3 if execution else 2


def reference_platform(levels: Mapping[str, int], scores: Mapping[str, float]) -> str:
    """Farthest platform from the origin, negative scores floored at 0;
    ties go to the smallest platform id."""
    best = None
    for platform in sorted(scores):
        reach = math.hypot(levels[platform], max(scores[platform], 0.0))
        if best is None or reach > best[0]:
            best = (reach, platform)
    return best[1]


def _rows(text: str, header: list[str]) -> tuple[list[dict[str, str]], list[str]]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != header:
        return [], [f"header {reader.fieldnames} != {header}"]
    return list(reader), []


def _close(printed: str, expected: float) -> bool:
    try:
        value = float(printed)
    except ValueError:
        return False
    if math.isnan(expected):
        return math.isnan(value)
    return abs(value - expected) <= TOLERANCE * max(1.0, abs(expected))


def check_score_csv(text: str, scores: Mapping[str, Mapping[str, float]]) -> list[str]:
    """Every (platform, method) row once, in method-major order, with the
    expected score and the sort-based competition rank."""
    rows, problems = _rows(text, ["platform", "method", "score", "rank"])
    expected_keys = [(p, m) for m in scores for p in scores[m]]
    if [(r["platform"], r["method"]) for r in rows] != expected_keys:
        return problems + ["score rows do not cover every (platform, method) once in order"]
    ranks = {m: competition_ranks(column) for m, column in scores.items()}
    for row in rows:
        p, m = row["platform"], row["method"]
        if not _close(row["score"], scores[m][p]):
            problems.append(f"score {p}/{m}: {row['score']} != {scores[m][p]!r}")
        if row["rank"] != str(ranks[m][p]):
            problems.append(f"rank {p}/{m}: {row['rank']} != {ranks[m][p]}")
    return problems


def check_compare_csv(text: str, scores: Mapping[str, Mapping[str, float]]) -> list[str]:
    """Every ordered method pair once, with the pair-counted tau-b of the
    sort-based ranks (1 on the diagonal)."""
    rows, problems = _rows(text, ["method_a", "method_b", "tau"])
    methods = list(scores)
    expected_keys = [(a, b) for a in methods for b in methods]
    if [(r["method_a"], r["method_b"]) for r in rows] != expected_keys:
        return problems + ["compare rows do not cover every method pair once in order"]
    ranks = {m: competition_ranks(column) for m, column in scores.items()}
    platforms = list(next(iter(scores.values())))
    tau: dict[tuple[str, str], float] = {}
    for i, a in enumerate(methods):
        tau[(a, a)] = 1.0
        for b in methods[i + 1 :]:
            value = tau_b([ranks[a][p] for p in platforms], [ranks[b][p] for p in platforms])
            tau[(a, b)] = tau[(b, a)] = value
    for row in rows:
        key = (row["method_a"], row["method_b"])
        if not _close(row["tau"], tau[key]):
            problems.append(f"tau {key}: {row['tau']} != {tau[key]!r}")
    return problems


def check_distance_csv(
    text: str,
    scores: Mapping[str, Mapping[str, float]],
    levels: Mapping[str, int],
) -> list[str]:
    """One reference per method, chosen independently, and absolute and
    relative distances recomputed from <level, score>."""
    rows, problems = _rows(
        text, ["platform", "method", "absolute", "relative", "is_reference"]
    )
    expected_keys = [(p, m) for m in scores for p in scores[m]]
    if [(r["platform"], r["method"]) for r in rows] != expected_keys:
        return problems + ["distance rows do not cover every (platform, method) once in order"]
    for m, column in scores.items():
        ref = reference_platform(levels, column)
        flagged = [r["platform"] for r in rows if r["method"] == m and r["is_reference"] == "1"]
        if flagged != [ref]:
            problems.append(f"reference for {m}: {flagged} != [{ref!r}]")
        ref_xy = (levels[ref], column[ref])
        for r in rows:
            if r["method"] != m:
                continue
            p = r["platform"]
            absolute = math.hypot(levels[p], column[p])
            relative = math.hypot(levels[p] - ref_xy[0], column[p] - ref_xy[1])
            if not _close(r["absolute"], absolute):
                problems.append(f"absolute {p}/{m}: {r['absolute']} != {absolute!r}")
            if not _close(r["relative"], relative):
                problems.append(f"relative {p}/{m}: {r['relative']} != {relative!r}")
    return problems


def check_level_csv(text: str, levels: Mapping[str, int]) -> list[str]:
    """One row per profile, in config order, with the level of its flags."""
    rows, problems = _rows(text, ["platform", "level"])
    got = [(r["platform"], r["level"]) for r in rows]
    expected = [(p, str(level)) for p, level in levels.items()]
    return problems + ([] if got == expected else ["levels differ from the capability flags"])


def check_plotdata_csv(
    text: str,
    scores: Mapping[str, Mapping[str, float]],
    levels: Mapping[str, int],
) -> list[str]:
    """One <level, score> coordinate per (platform, method), method-major."""
    rows, problems = _rows(text, ["platform", "method", "n_al", "n_cp"])
    expected_keys = [(p, m) for m in scores for p in scores[m]]
    if [(r["platform"], r["method"]) for r in rows] != expected_keys:
        return problems + ["plotdata rows do not cover every (platform, method) once in order"]
    for r in rows:
        p, m = r["platform"], r["method"]
        if not (_close(r["n_al"], levels[p]) and _close(r["n_cp"], scores[m][p])):
            problems.append(f"coordinate {p}/{m}: ({r['n_al']}, {r['n_cp']})")
    return problems
