import math

import pytest
from hypothesis import given, strategies as st

from ncap import (
    DimensionError,
    DomainError,
    InsufficientMethodsError,
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


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=10, unique=True))
def test_rank_invariance_under_increasing_transform(values):
    scores = {f"p{i}": float(v) for i, v in enumerate(values)}
    transformed = {k: math.exp(v / 500) + 3 for k, v in scores.items()}
    assert rank_scores(scores) == rank_scores(transformed)


@given(st.lists(TIED_SCORES, max_size=40))
def test_rank_scores_equals_oracle(values):
    scores = {f"p{i}": v for i, v in enumerate(values)}
    assert list(rank_scores(scores).items()) == list(rank_oracle(scores).items())


# up to 60 values from a range about n wide: the merge sort recurses
# several levels deep and both columns carry ties
@given(
    st.integers(min_value=0, max_value=60).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=0, max_value=n), min_size=n, max_size=n),
            st.lists(st.integers(min_value=0, max_value=n), min_size=n, max_size=n),
        )
    )
)
def test_kendall_tau_equals_oracle(pair):
    xs, ys = pair
    a = {f"p{i}": x for i, x in enumerate(xs)}
    b = {f"p{i}": y for i, y in enumerate(ys)}
    got = kendall_tau(a, b)
    expected = tau_b_oracle(xs, ys)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert got == expected


@given(
    st.tuples(st.integers(1, 12), st.integers(2, 5)).flatmap(
        lambda nk: st.lists(
            st.lists(TIED_SCORES, min_size=nk[0], max_size=nk[0]), min_size=nk[1], max_size=nk[1]
        )
    )
)
def test_consensus_equals_oracle(columns):
    table = rank_table(
        {f"m{k}": {f"p{i}": v for i, v in enumerate(col)} for k, col in enumerate(columns)}
    )
    stats = consensus_report(table)
    assert list(stats.unanimous.items()) == list(unanimous_oracle(table).items())
    for m, column in table.columns.items():
        itself = kendall_tau(column, column)
        assert math.isnan(stats.tau[(m, m)]) == math.isnan(itself)
        assert math.isnan(itself) or stats.tau[(m, m)] == 1.0
