"""Rank tables and cross-method rank-agreement diagnostics.

Different normalization techniques can rank the same platforms
differently; this module turns score columns into competition-style
rank columns and quantifies how much any two methods agree via the
tie-corrected Kendall tau-b.

Tau-b is counted in O(n log n) as in Knight [1966, JASA 61:436, "A
computer method for calculating Kendall's tau with ungrouped data"], on
C-level builtins. Each column is dense-ranked to the ints 0..k-1, and each
pair of columns becomes one int key x * n + y per platform. Sorting the
keys gives the joint ties as runs of equal keys; each column's own ties
are counted once from its value counts. Discordant pairs are the
inversions of y in key order: counted by insertion into sorted blocks of
64, then by bottom-up merges of sorted runs, where a run pair adds the
pairs of its left run above each value of its right run.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import Counter
from itertools import repeat
from operator import add, mod, mul
from typing import Any, Iterable, Mapping, NamedTuple

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


#: Values per insertion-sorted block when counting inversions.
_BLOCK = 64


def _dense(values: list) -> list[int]:
    """Each value's position among the distinct values, ascending: equal
    values share an int and order is kept, so any comparable values can
    be keyed without two keys colliding."""
    position = {v: i for i, v in enumerate(sorted(set(values)))}
    return list(map(position.__getitem__, values))


def _tied_pairs(values: Iterable) -> int:
    """Pairs of equal values, from the count of each value."""
    return sum(map(math.comb, Counter(values).values(), repeat(2)))


def _inversions(values: list[int]) -> int:
    """Pairs i < j with values[i] > values[j]: insertion into sorted blocks,
    then bottom-up merges of neighbouring sorted runs."""
    inversions = 0
    runs = []
    for start in range(0, len(values), _BLOCK):
        run: list[int] = []
        for value in values[start : start + _BLOCK]:
            inversions += len(run) - bisect_right(run, value)
            insort(run, value)
        runs.append(run)
    while len(runs) > 1:
        merged = []
        for left, right in zip(runs[::2], runs[1::2]):
            # each right value is inverted with every left value above it
            inversions += len(left) * len(right) - sum(map(bisect_right, repeat(left), right))
            merged.append(sorted(left + right))
        runs = merged + runs[2 * len(merged) :]
    return inversions


def _tau_b(xs: list[int], ys: list[int], ties_x: int, ties_y: int) -> float:
    """Tau-b of two dense-ranked columns in platform order, given the tied
    pairs within each column; nan when either column is one big tie."""
    n = len(xs)
    n0 = n * (n - 1) // 2
    if ties_x == n0 or ties_y == n0:
        return math.nan
    # dense ranks lie in 0..n-1, so x * n + y orders the pairs as (x, y) does
    keys = sorted(map(add, map(mul, xs, repeat(n)), ys))
    ties_xy = _tied_pairs(keys)
    # y ascends within each x run, so every inversion of y is a discordant pair
    discordant = _inversions(list(map(mod, keys, repeat(n))))
    concordant = n0 - ties_x - ties_y + ties_xy - discordant
    tau = (concordant - discordant) / math.sqrt(n0 - ties_x) / math.sqrt(n0 - ties_y)
    return min(1.0, max(-1.0, tau))


def kendall_tau(a: Mapping[str, Any], b: Mapping[str, Any]) -> float:
    """Tie-corrected Kendall tau-b between two rank columns, in [-1, 1].

    The ranks may be any comparable values; only their order matters.
    Returns nan when either column is one big tie (tau-b is undefined
    there: no pair is ever concordant or discordant).
    """
    if set(a) != set(b):
        raise DimensionError("kendall_tau: platform sets differ")
    xs = _dense(list(a.values()))
    ys = _dense(list(map(b.__getitem__, a)))
    return _tau_b(xs, ys, _tied_pairs(xs), _tied_pairs(ys))


def consensus_report(ranks: RankTable) -> AgreementStats:
    """Pairwise tau-b matrix plus per-rank unanimity across methods.

    A platform is unanimous at rank r when every method column assigns it
    exactly r. The interesting consensus question is usually rank 1: do
    all combination methods crown the same platform?
    """
    methods = tuple(ranks.columns)
    if len(methods) < 2:
        raise InsufficientMethodsError("consensus needs at least two method columns")
    platforms = set(ranks.platforms)
    if any(column.keys() != platforms for column in ranks.columns.values()):
        raise DimensionError("consensus_report: platform sets differ")
    # each column once, in platform order: its ranks, dense ranks and own ties
    columns = [list(map(ranks.columns[m].__getitem__, ranks.platforms)) for m in methods]
    dense = [_dense(column) for column in columns]
    ties = [_tied_pairs(xs) for xs in dense]
    n0 = len(ranks.platforms) * (len(ranks.platforms) - 1) // 2
    # fill the upper triangle and mirror: keeps the matrix exactly symmetric
    tau: dict[tuple[str, str], float] = {}
    for i, m1 in enumerate(methods):
        # a column agrees with itself, unless it is one tie (tau-b undefined)
        tau[(m1, m1)] = 1.0 if ties[i] != n0 else math.nan
        for j in range(i + 1, len(methods)):
            value = _tau_b(dense[i], dense[j], ties[i], ties[j])
            tau[(m1, methods[j])] = value
            tau[(methods[j], m1)] = value
    agreed: dict[int, list[str]] = {}
    for p, row in zip(ranks.platforms, zip(*columns)):
        if row.count(row[0]) == len(row):
            agreed.setdefault(row[0], []).append(p)
    unanimous = {rank: tuple(agreed[rank]) for rank in sorted(agreed)}
    return AgreementStats(methods=methods, tau=tau, unanimous=unanimous)
