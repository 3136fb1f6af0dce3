"""How far the pipeline on data/ is from the paper's published tables.

For each missing-value policy, weighting and method, score_table on the
bundled data is compared with the published scores and ranks in
tests/golden.py: whether its ranks are the published ones (as
assert_ranks_match reads them, tie groups at the published precision
included), the Kendall tau-b between its ranks and the published ones,
and the largest |computed - published| score. The figures are compared
with the committed record tests/golden_reproduction.json, floats to 6
decimals. The test does not ask the figures to agree with the paper: a
change that moves them shows as a reviewed diff of that record.
"""

import json
from pathlib import Path

from golden import USER_RANKS, USER_SCORES, UNIFORM_RANKS, UNIFORM_SCORES, assert_ranks_match

from ncap import (
    METHODS,
    MissingValuePolicy,
    WeightVector,
    kendall_tau,
    rank_scores,
    resolve_missing,
    score_table,
)

RECORD = Path(__file__).resolve().parent / "golden_reproduction.json"
PUBLISHED = {"uniform": (UNIFORM_SCORES, UNIFORM_RANKS), "config": (USER_SCORES, USER_RANKS)}


def ranks_as_published(actual, published, scores):
    try:
        assert_ranks_match(actual, published, scores)
    except AssertionError:
        return False
    return True


def reproduction(matrix, config):
    """The record's rows: per policy, weighting and method, the three figures."""
    names = matrix.feature_names
    weightings = {
        "uniform": WeightVector.uniform(len(names)),
        "config": WeightVector.user_defined([config.weights[name] for name in names]),
    }
    rows = []
    for missing in ("mean", "exclude"):
        resolved = resolve_missing(matrix, MissingValuePolicy(missing))
        for weighting, weights in weightings.items():
            published_scores, published_ranks = PUBLISHED[weighting]
            table = score_table(resolved, weights, METHODS)
            for method in METHODS:
                scores, published = table.columns[method], published_scores[method]
                ranks = rank_scores(scores)
                rows.append({
                    "missing": missing,
                    "weights": weighting,
                    "method": method,
                    "ranks_as_published": ranks_as_published(
                        ranks, published_ranks[method], published
                    ),
                    "tau_b": round(kendall_tau(ranks, published_ranks[method]), 6),
                    "largest_gap": round(max(abs(scores[p] - published[p]) for p in published), 6),
                })
    return rows


def test_reproduction_figures_match_the_record(benchmark_matrix, benchmark_config):
    record = json.loads(RECORD.read_text("utf-8"))
    assert reproduction(benchmark_matrix, benchmark_config) == record

