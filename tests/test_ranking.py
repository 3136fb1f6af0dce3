import math
import random
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from ncap import (
    DimensionError,
    DomainError,
    InsufficientMethodsError,
    RankTable,
    consensus_report,
    kendall_tau,
    rank_scores,
    rank_table,
)

from golden import PLATFORMS, UNIFORM_RANKS, UNIFORM_SCORES, USER_RANKS, USER_SCORES


def tau_b_oracle(x, y):
    """Exhaustive pair-counting tau-b: every pair inspected directly."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx != 0 and dy != 0:
                if (dx > 0) == (dy > 0):
                    concordant += 1
                else:
                    discordant += 1
    n0 = n * (n - 1) // 2
    if ties_x == n0 or ties_y == n0:
        return float("nan")
    tau = (concordant - discordant) / math.sqrt(n0 - ties_x) / math.sqrt(n0 - ties_y)
    return min(1.0, max(-1.0, tau))


def _tied_pairs(ordered):
    """Pairs of equal values in a sorted sequence, from its run lengths."""
    return sum(t * (t - 1) // 2 for t in (len(list(run)) for _, run in groupby(ordered)))


def _merge_sort(values):
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


def tau_b_merge_oracle(x, y):
    """Tau-b in O(n log n) from (x, y) tuples: one sort, three run-length tie
    counts and a recursive merge sort of y for the discordant pairs. Cheap
    enough for thousands of values, where the exhaustive count is not."""
    pairs = sorted(zip(x, y))
    n0 = len(pairs) * (len(pairs) - 1) // 2
    ties_x = _tied_pairs(a for a, _ in pairs)
    ties_xy = _tied_pairs(pairs)
    ys, discordant = _merge_sort([b for _, b in pairs])
    ties_y = _tied_pairs(ys)
    if ties_x == n0 or ties_y == n0:
        return math.nan
    concordant = n0 - ties_x - ties_y + ties_xy - discordant
    tau = (concordant - discordant) / math.sqrt(n0 - ties_x) / math.sqrt(n0 - ties_y)
    return min(1.0, max(-1.0, tau))


def same_tau(got, expected):
    """Equal floats, with nan matching nan."""
    return got == expected or (math.isnan(got) and math.isnan(expected))


def rank_oracle(scores):
    """Quadratic competition ranking: one plus the count of strictly better scores."""
    values = list(scores.values())
    return {
        platform: 1 + sum(1 for other in values if other > score)
        for platform, score in scores.items()
    }


def unanimous_oracle(ranks):
    """Rank x platform x method scan: platforms every method puts at each rank."""
    unanimous = {}
    for rank in range(1, len(ranks.platforms) + 1):
        agreed = tuple(
            p
            for p in ranks.platforms
            if all(ranks.columns[m][p] == rank for m in ranks.columns)
        )
        if agreed:
            unanimous[rank] = agreed
    return unanimous


# few distinct values, so ties are common; 0.0 and -0.0 are one score
TIED_SCORES = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0, 1e300])


def test_rank_scores_benchmark_max_column():
    got = rank_scores(UNIFORM_SCORES["max"])
    assert got == UNIFORM_RANKS["max"]


def test_rank_scores_tie_shares_rank():
    assert rank_scores({"a": 1.0, "b": 1.0}) == {"a": 1, "b": 1}


def test_rank_scores_competition_skips_after_tie():
    got = rank_scores({"a": 5.0, "b": 5.0, "c": 3.0})
    assert got == {"a": 1, "b": 1, "c": 3}


def test_rank_scores_simple():
    assert rank_scores({"a": 3.0, "b": 1.0, "c": 2.0}) == {"a": 1, "b": 3, "c": 2}


def test_rank_scores_rejects_nonfinite():
    with pytest.raises(DomainError):
        rank_scores({"a": float("inf"), "b": 1.0})


@pytest.mark.parametrize(
    "scores, detail",
    [
        ({"a": "x", "b": 1.0}, "score 'x' for platform 'a' is no finite real"),
        ({"a": 1.0, "b": None}, "score None for platform 'b' is no finite real"),
        ({"a": 1.0, "b": 10**400}, f"score {10**400!r} for platform 'b' is no finite real"),
    ],
    ids=["str", "none", "huge_int"],
)
def test_rank_scores_names_a_score_that_is_no_real_number(scores, detail):
    with pytest.raises(DomainError) as raised:
        rank_scores(scores)
    assert str(raised.value) == detail


def test_kendall_tau_names_a_rank_that_does_not_compare():
    with pytest.raises(DomainError) as raised:
        kendall_tau({"a": 1, "b": 2, "c": 3}, {"a": 1, "b": "x", "c": 3})
    assert str(raised.value) == "kendall_tau: rank 'x' of platform 'b' does not order"


def test_kendall_tau_names_a_nan_rank():
    """A NaN has no order, so it cannot rank; it is not read as a tie or a
    place (tau-b read 1.0 here)."""
    with pytest.raises(DomainError) as raised:
        kendall_tau({"a": math.nan, "b": 2, "c": 3}, {"a": 1, "b": 2, "c": 3})
    assert str(raised.value) == "kendall_tau: rank nan of platform 'a' does not order"


def test_kendall_tau_identical():
    ranks = UNIFORM_RANKS["max"]
    assert kendall_tau(ranks, ranks) == 1.0


def test_kendall_tau_reversed():
    a = {p: i + 1 for i, p in enumerate(PLATFORMS)}
    b = {p: len(PLATFORMS) - i for i, p in enumerate(PLATFORMS)}
    assert kendall_tau(a, b) == -1.0


def test_kendall_tau_benchmark_columns_match_oracle():
    a = UNIFORM_RANKS["max"]
    b = UNIFORM_RANKS["zsc"]
    expected = tau_b_oracle([a[p] for p in PLATFORMS], [b[p] for p in PLATFORMS])
    assert kendall_tau(a, b) == expected


def test_kendall_tau_platform_mismatch():
    with pytest.raises(DimensionError):
        kendall_tau({"a": 1, "b": 2}, {"a": 1, "c": 2})


@pytest.mark.parametrize(
    "columns,detail",
    [
        ({}, "rank_table: no score columns"),
        (
            {"m1": {"a": 1.0, "b": 2.0}, "m2": {"a": 1.0, "c": 2.0}},
            "score column 'm2' has a different platform set",
        ),
    ],
    ids=["no_columns", "platforms_differ"],
)
def test_rank_table_rejects_columns_it_cannot_rank_together(columns, detail):
    with pytest.raises(DimensionError) as raised:
        rank_table(columns)
    assert (raised.type, str(raised.value)) == (DimensionError, detail)


def test_consensus_benchmark_uniform():
    stats = consensus_report(rank_table(UNIFORM_SCORES))
    assert stats.unanimous.get(1) == ("UAS E",)
    for rank in range(2, 8):
        assert rank not in stats.unanimous


def test_consensus_benchmark_user_weights():
    stats = consensus_report(rank_table(USER_SCORES))
    assert stats.unanimous.get(1) == ("UAS E",)
    # under preference weights every method also agrees UAS A comes last
    assert stats.unanimous.get(7) == ("UAS A",)
    for rank in range(2, 7):
        assert rank not in stats.unanimous


def test_consensus_identical_columns():
    columns = {"m1": UNIFORM_SCORES["max"], "m2": dict(UNIFORM_SCORES["max"])}
    stats = consensus_report(rank_table(columns))
    assert all(v == 1.0 for v in stats.tau.values())
    assert stats.unanimous[1] == ("UAS E",)


def test_consensus_platform_mismatch():
    table = RankTable(
        platforms=("a", "b"),
        columns={"m1": {"a": 1, "b": 2}, "m2": {"a": 1, "c": 2}},
    )
    with pytest.raises(DimensionError):
        consensus_report(table)


def test_consensus_needs_two_methods():
    with pytest.raises(InsufficientMethodsError):
        consensus_report(rank_table({"only": UNIFORM_SCORES["max"]}))


def test_tau_matrix_is_symmetric_with_unit_diagonal():
    stats = consensus_report(rank_table(UNIFORM_SCORES))
    for a in stats.methods:
        assert stats.tau[(a, a)] == 1.0
        for b in stats.methods:
            assert stats.tau[(a, b)] == stats.tau[(b, a)]


def test_kendall_tau_nearly_symmetric():
    a = UNIFORM_RANKS["sum"]
    b = UNIFORM_RANKS["zsc"]
    assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a), abs=1e-12)


def test_benchmark_rank_columns():
    for scores, ranks in ((UNIFORM_SCORES, UNIFORM_RANKS), (USER_SCORES, USER_RANKS)):
        table = rank_table(scores)
        for method, column in ranks.items():
            got = table.columns[method]
            # ranks agree wherever the 2-decimal scores are untied
            for platform in PLATFORMS:
                peers = [q for q in PLATFORMS if scores[method][q] == scores[method][platform]]
                if len(peers) == 1:
                    assert got[platform] == column[platform]


def test_tie_groups_recorded():
    table = rank_table({"zsc": UNIFORM_SCORES["zsc"]})
    assert ("UAS D", "UAS F") in table.tie_groups["zsc"]


def tie_groups_oracle(columns):
    """The tie groups rank_table stored before they were derived on read:
    per method, each rank's platforms in column order, best rank first,
    kept where two or more platforms share the rank."""
    ties = {}
    for method, scores in columns.items():
        groups = {}
        for platform, rank in rank_scores(scores).items():
            groups.setdefault(rank, []).append(platform)
        ties[method] = tuple(
            tuple(group) for _, group in sorted(groups.items()) if len(group) > 1
        )
    return ties


# few distinct values per column, so most platforms share a rank
TIE_HEAVY = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(["max", "sum", "map", "zsc", "product"]),
        st.lists(
            st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 5e-324, 1e308]), min_size=n, max_size=n
        ),
        min_size=1,
    )
)


@given(TIE_HEAVY, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_tie_groups_equal_the_stored_builder(values, rng):
    platforms = [f"p{i}" for i in range(len(next(iter(values.values()))))]
    rng.shuffle(platforms)
    columns = {method: dict(zip(platforms, column)) for method, column in values.items()}
    table = rank_table(columns)
    assert table.tie_groups == tie_groups_oracle(columns)
    assert type(table.tie_groups) is dict
    assert list(table.tie_groups) == list(columns)


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=10, unique=True))
def test_rank_invariance_under_increasing_transform(values):
    scores = {f"p{i}": float(v) for i, v in enumerate(values)}
    transformed = {k: math.exp(v / 500) + 3 for k, v in scores.items()}
    assert rank_scores(scores) == rank_scores(transformed)


@given(st.lists(TIED_SCORES, max_size=40))
def test_rank_scores_equals_oracle(values):
    scores = {f"p{i}": v for i, v in enumerate(values)}
    assert list(rank_scores(scores).items()) == list(rank_oracle(scores).items())


# Rank values need not be competition ranks: a pool is drawn per example,
# and both columns draw from it. None stands for ints in 0..n, about as
# many as the values; the others hold mostly values outside 1..n:
# negatives, ints beyond any float's precision, and floats of both signs.
RANK_POOLS = [
    None,
    [-(10**6), -7, -1, 0, 4],
    [2**70, 2**70 + 1, 10**30, -(2**64), 3],
    [-2.5, -0.0, 0.0, 0.5, 1e300, -1e300, 7.25],
]


@st.composite
def rank_columns(draw):
    """Two columns of up to 300 values: several blocks of the inversion count."""
    n = draw(st.integers(min_value=0, max_value=300))
    pool = draw(st.sampled_from(RANK_POOLS))
    values = st.integers(min_value=0, max_value=n) if pool is None else st.sampled_from(pool)
    column = st.lists(values, min_size=n, max_size=n)
    return draw(column), draw(column)


@given(rank_columns())
@settings(deadline=None)
def test_kendall_tau_equals_oracle(pair):
    xs, ys = pair
    a = {f"p{i}": x for i, x in enumerate(xs)}
    b = {f"p{i}": y for i, y in enumerate(ys)}
    assert same_tau(kendall_tau(a, b), tau_b_oracle(xs, ys))


@pytest.mark.parametrize("n", [63, 64, 65, 129, 300])
def test_kendall_tau_at_block_edges_equals_oracle(n):
    rng = random.Random(n)
    xs = [rng.randrange(n // 4) for _ in range(n)]
    ys = [x + rng.randrange(n // 2) for x in xs]
    a = {f"p{i}": x for i, x in enumerate(xs)}
    b = {f"p{i}": y for i, y in enumerate(ys)}
    assert kendall_tau(a, b) == tau_b_oracle(xs, ys)
    assert kendall_tau(b, a) == tau_b_oracle(ys, xs)


def tied_permutations(n, group, seed):
    """Two columns over n platforms: a shuffled 0..n-1 and a noisy copy of
    it, each cut into ties of ``group`` neighbouring values."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    noisy = [v + rng.randrange(n // 5) for v in order]
    return [v // group for v in order], [v // group for v in noisy]


@pytest.mark.parametrize("n", [1000, 4097])
@pytest.mark.parametrize("group", [1, 3, 40])
def test_kendall_tau_at_scale_equals_merge_oracle(n, group):
    xs, ys = tied_permutations(n, group, seed=n + group)
    a = {f"p{i}": x for i, x in enumerate(xs)}
    b = {f"p{i}": y for i, y in enumerate(ys)}
    assert kendall_tau(a, b) == tau_b_merge_oracle(xs, ys)
    reversed_b = {p: -y for p, y in b.items()}
    assert kendall_tau(a, reversed_b) == tau_b_merge_oracle(xs, [-y for y in ys])


def test_consensus_at_scale_equals_merge_oracle():
    n = 3000
    xs, ys = tied_permutations(n, 2, seed=7)
    zs = [(i * 37) % 101 for i in range(n)]
    table = RankTable(
        platforms=tuple(f"p{i}" for i in range(n)),
        columns={
            name: {f"p{i}": v for i, v in enumerate(col)}
            for name, col in (("x", xs), ("y", ys), ("z", zs))
        },
    )
    stats = consensus_report(table)
    columns = {"x": xs, "y": ys, "z": zs}
    for a, b in (("x", "y"), ("x", "z"), ("y", "z")):
        expected = tau_b_merge_oracle(columns[a], columns[b])
        assert stats.tau[(a, b)] == stats.tau[(b, a)] == expected


# up to 200 platforms, so the tied columns span several blocks of 64
@given(
    st.tuples(st.integers(1, 200), st.integers(2, 5)).flatmap(
        lambda nk: st.lists(
            st.lists(TIED_SCORES, min_size=nk[0], max_size=nk[0]), min_size=nk[1], max_size=nk[1]
        )
    )
)
@settings(deadline=None)
def test_consensus_equals_oracle(columns):
    table = rank_table(
        {f"m{k}": {f"p{i}": v for i, v in enumerate(col)} for k, col in enumerate(columns)}
    )
    stats = consensus_report(table)
    assert list(stats.unanimous.items()) == list(unanimous_oracle(table).items())
    ranks = {m: [column[p] for p in table.platforms] for m, column in table.columns.items()}
    for m, column in table.columns.items():
        itself = kendall_tau(column, column)
        assert math.isnan(stats.tau[(m, m)]) == math.isnan(itself)
        assert math.isnan(itself) or stats.tau[(m, m)] == 1.0
    for i, a in enumerate(stats.methods):
        for b in stats.methods[i + 1 :]:
            expected = tau_b_oracle(ranks[a], ranks[b])
            assert same_tau(stats.tau[(a, b)], expected)
            assert same_tau(stats.tau[(b, a)], expected)
