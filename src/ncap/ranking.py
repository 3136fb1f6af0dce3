"""Rank tables and cross-method rank-agreement diagnostics.

Different normalization techniques can rank the same platforms
differently; this module turns score columns into competition-style
rank columns and quantifies how much any two methods agree via the
tie-corrected Kendall tau-b.

Tau-b is counted in O(n log n) as in Knight [1966, JASA 61:436, "A
computer method for calculating Kendall's tau with ungrouped data"]:
sorting the (x, y) pairs gives x and joint ties as run lengths, and a
merge sort of y in that order counts discordant pairs as inversions.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Iterable, Mapping, NamedTuple

from .errors import DimensionError, DomainError, InsufficientMethodsError


class RankTable(NamedTuple):
    """Per-method platform ranks (1 = best), with tie groups made explicit.

    Competition ranking: tied platforms share the smallest rank of their
    group and the following rank numbers are skipped.
    """

    platforms: tuple[str, ...]
    columns: Mapping[str, Mapping[str, int]]
    tie_groups: Mapping[str, tuple[tuple[str, ...], ...]]


class AgreementStats(NamedTuple):
    """Pairwise tau-b values and unanimity flags across method columns."""

    methods: tuple[str, ...]
    tau: Mapping[tuple[str, str], float]
    unanimous: Mapping[int, tuple[str, ...]]


def rank_scores(scores: Mapping[str, float]) -> dict[str, int]:
    """Rank platforms by score, descending; exact score ties share a rank."""
    for platform, score in scores.items():
        if not math.isfinite(score):
            raise DomainError(f"non-finite score {score!r} for platform {platform!r}")
    # a platform's rank is the position of its score's first copy, best first
    first: dict[float, int] = {}
    for position, score in enumerate(sorted(scores.values(), reverse=True), 1):
        first.setdefault(score, position)
    return {platform: first[score] for platform, score in scores.items()}


def rank_table(columns: Mapping[str, Mapping[str, float]]) -> RankTable:
    """Build a RankTable from score columns keyed by method."""
    methods = tuple(columns)
    if not methods:
        raise DimensionError("rank_table: no score columns")
    platforms = tuple(next(iter(columns.values())))
    ranked: dict[str, dict[str, int]] = {}
    ties: dict[str, tuple[tuple[str, ...], ...]] = {}
    for method, scores in columns.items():
        if tuple(scores) != platforms:
            raise DimensionError(f"score column {method!r} has a different platform set")
        ranks = rank_scores(scores)
        ranked[method] = ranks
        groups: dict[int, list[str]] = {}
        for platform, rank in ranks.items():
            groups.setdefault(rank, []).append(platform)
        ties[method] = tuple(
            tuple(group) for _, group in sorted(groups.items()) if len(group) > 1
        )
    return RankTable(platforms=platforms, columns=ranked, tie_groups=ties)


def _tied_pairs(ordered: Iterable) -> int:
    """Pairs of equal values in a sorted sequence, from its run lengths."""
    runs = (len(list(run)) for _, run in groupby(ordered))
    return sum(t * (t - 1) // 2 for t in runs)


def _merge_sort(values: list) -> tuple[list, int]:
    """Sort ascending; also count the inversions (i < j, values[i] > values[j])."""
    if len(values) < 2:
        return values, 0
    mid = len(values) // 2
    left, inv_left = _merge_sort(values[:mid])
    right, inv_right = _merge_sort(values[mid:])
    merged, i, inversions = [], 0, inv_left + inv_right
    for value in right:
        while i < len(left) and left[i] <= value:
            merged.append(left[i])
            i += 1
        merged.append(value)
        inversions += len(left) - i
    merged.extend(left[i:])
    return merged, inversions


def kendall_tau(a: Mapping[str, int], b: Mapping[str, int]) -> float:
    """Tie-corrected Kendall tau-b between two rank columns, in [-1, 1].

    Returns nan when either column is one big tie (tau-b is undefined
    there: no pair is ever concordant or discordant).
    """
    if set(a) != set(b):
        raise DimensionError("kendall_tau: platform sets differ")
    pairs = sorted((a[p], b[p]) for p in a)
    n0 = len(pairs) * (len(pairs) - 1) // 2
    ties_x = _tied_pairs(x for x, _ in pairs)
    ties_xy = _tied_pairs(pairs)
    # y ascends within each x run, so every inversion of y is a discordant pair
    ys, discordant = _merge_sort([y for _, y in pairs])
    ties_y = _tied_pairs(ys)
    if ties_x == n0 or ties_y == n0:
        return math.nan
    concordant = n0 - ties_x - ties_y + ties_xy - discordant
    tau = (concordant - discordant) / math.sqrt(n0 - ties_x) / math.sqrt(n0 - ties_y)
    return min(1.0, max(-1.0, tau))


def consensus_report(ranks: RankTable) -> AgreementStats:
    """Pairwise tau-b matrix plus per-rank unanimity across methods.

    A platform is unanimous at rank r when every method column assigns it
    exactly r. The interesting consensus question is usually rank 1: do
    all combination methods crown the same platform?
    """
    methods = tuple(ranks.columns)
    if len(methods) < 2:
        raise InsufficientMethodsError("consensus needs at least two method columns")
    # fill the upper triangle and mirror: keeps the matrix exactly symmetric
    tau: dict[tuple[str, str], float] = {}
    for i, m1 in enumerate(methods):
        # a column agrees with itself, unless it is one tie (tau-b undefined)
        tau[(m1, m1)] = 1.0 if len(set(ranks.columns[m1].values())) > 1 else math.nan
        for m2 in methods[i + 1 :]:
            value = kendall_tau(ranks.columns[m1], ranks.columns[m2])
            tau[(m1, m2)] = value
            tau[(m2, m1)] = value
    agreed: dict[int, list[str]] = {}
    for p in ranks.platforms:
        first, *rest = (ranks.columns[m][p] for m in methods)
        if all(r == first for r in rest):
            agreed.setdefault(first, []).append(p)
    unanimous = {rank: tuple(agreed[rank]) for rank in sorted(agreed)}
    return AgreementStats(methods=methods, tau=tau, unanimous=unanimous)
