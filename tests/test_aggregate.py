import itertools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncap import (
    METHODS,
    DimensionError,
    Direction,
    DomainError,
    EmptyColumnError,
    FeatureMatrix,
    FeatureSpec,
    MissingValueError,
    NcapError,
    NormalizationMethod,
    ProductDomainError,
    ResolvedMatrix,
    ScoreTable,
    WeightVector,
    consensus_report,
    rank_scores,
    rank_table,
    resolve_missing,
    score_table,
    weighted_product,
    weighted_sum,
)
from ncap.ingest import MissingValuePolicy
from ncap.normalize import normalize


def make_matrix(rows, directions=None, platforms=None):
    n_features = len(rows[0])
    directions = directions or [Direction.MORE_IS_BETTER] * n_features
    platforms = platforms or [f"p{i}" for i in range(len(rows))]
    return FeatureMatrix(
        platforms=tuple(platforms),
        features=tuple(
            FeatureSpec(name=f"f{j}", direction=d) for j, d in enumerate(directions)
        ),
        values=tuple(tuple(float(v) if v is not None else None for v in row) for row in rows),
    )


MIB = Direction.MORE_IS_BETTER
LIB = Direction.LESS_IS_BETTER


class TestWeightVector:
    def test_uniform(self):
        w = WeightVector.uniform(4)
        assert w.weights == (0.25, 0.25, 0.25, 0.25)

    def test_user_defined_must_sum_to_one(self):
        with pytest.raises(DomainError):
            WeightVector.user_defined([0.5, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            WeightVector.user_defined([1.5, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            WeightVector.user_defined([])

    def test_uniform_needs_a_feature(self):
        with pytest.raises(DimensionError) as raised:
            WeightVector.uniform(0)
        assert (raised.type, str(raised.value)) == (DimensionError, "need at least one feature")

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda: WeightVector.user_defined(["a", 1]), "a"),  # which float() refuses
            (lambda: WeightVector.user_defined([10**400, 1]), 10**400),  # beyond the float range
            (lambda: WeightVector(("a",)), "a"),  # no real number
            (lambda: WeightVector((1j,)), 1j),
        ],
        ids=["str_to_user_defined", "huge_int", "str", "complex"],
    )
    def test_a_weight_that_is_no_finite_real_is_named(self, build, value):
        with pytest.raises(DomainError) as raised:
            build()
        assert str(raised.value) == f"weights must be finite and non-negative, got {value!r}"


class TestWeightedSum:
    def test_two_feature_example(self):
        # first platform sees normalized values (0.5, 1.0) under eta_max
        m = make_matrix([[1, 2], [2, 1]])
        scores = weighted_sum(m, WeightVector.uniform(2), NormalizationMethod.MAX)
        assert scores["p0"] == pytest.approx(0.5 * 0.5 + 0.5 * 1.0)

    def test_negation_rule(self):
        m = make_matrix([[1, 2], [2, 1]], directions=[MIB, LIB])
        scores = weighted_sum(m, WeightVector.uniform(2), NormalizationMethod.MAX)
        assert scores["p0"] == pytest.approx(0.5 * 0.5 - 0.5 * 1.0)

    def test_single_feature_two_platforms(self):
        m = make_matrix([[2], [4]])
        scores = weighted_sum(m, WeightVector.user_defined([1.0]), NormalizationMethod.MAX)
        assert scores == {"p0": pytest.approx(0.5), "p1": pytest.approx(1.0)}

    def test_weight_count_mismatch(self):
        m = make_matrix([[1, 2]])
        with pytest.raises(DimensionError):
            weighted_sum(m, WeightVector.uniform(3), NormalizationMethod.MAX)

    def test_missing_without_mask(self):
        m = make_matrix([[1, None]])
        with pytest.raises(MissingValueError):
            weighted_sum(m, WeightVector.uniform(2), NormalizationMethod.MAX)

    def test_exclusion_renormalizes_weights(self):
        m = make_matrix([[2, None], [4, 8]])
        resolved = resolve_missing(m, MissingValuePolicy.EXCLUDE)
        w = WeightVector.user_defined([0.25, 0.75])
        scores = weighted_sum(
            m, w, NormalizationMethod.MAX, present=resolved.present
        )
        # p0 has only f0: its whole weight goes there
        assert scores["p0"] == pytest.approx(0.5)
        assert scores["p1"] == pytest.approx(0.25 * 1.0 + 0.75 * 1.0)


class TestWeightedProduct:
    def test_geometric_mean(self):
        m = make_matrix([[4, 9]])
        scores = weighted_product(m, WeightVector.uniform(2))
        assert scores["p0"] == pytest.approx(6.0)

    def test_reciprocal_for_less_is_better(self):
        m = make_matrix([[4]], directions=[LIB])
        scores = weighted_product(m, WeightVector.user_defined([1.0]))
        assert scores["p0"] == pytest.approx(0.25)

    def test_uneven_exponents(self):
        m = make_matrix([[2, 8]])
        scores = weighted_product(m, WeightVector.user_defined([0.75, 0.25]))
        assert scores["p0"] == pytest.approx(2.8284, abs=1e-4)

    def test_rejects_zero(self):
        m = make_matrix([[0.0, 2.0]])
        with pytest.raises(ProductDomainError, match="'p0'.*'f0'"):
            weighted_product(m, WeightVector.uniform(2))

    def test_rejects_negative(self):
        m = make_matrix([[1.0], [-3.0]])
        with pytest.raises(ProductDomainError, match="'p1'"):
            weighted_product(m, WeightVector.uniform(1))

    def test_exclusion_renormalizes_exponents(self):
        m = make_matrix([[2, None], [4, 8]])
        resolved = resolve_missing(m, MissingValuePolicy.EXCLUDE)
        w = WeightVector.user_defined([0.25, 0.75])
        scores = weighted_product(m, w, present=resolved.present)
        assert scores["p0"] == pytest.approx(2.0)
        assert scores["p1"] == pytest.approx(4**0.25 * 8**0.75)


@pytest.mark.parametrize(
    "scores",
    [
        lambda m, w, mask: weighted_sum(m, w, NormalizationMethod.MAX, mask),
        lambda m, w, mask: weighted_product(m, w, mask),
    ],
    ids=["weighted_sum", "weighted_product"],
)
def test_mask_marking_a_missing_cell_present_is_rejected(scores):
    m = make_matrix([[1, 2], [3, None], [4, None]])
    mask = ((True, True), (True, True), (True, False))
    with pytest.raises(MissingValueError, match=r"\('p1', 'f1'\) is missing"):
        scores(m, WeightVector.uniform(2), mask)
    # a mask must mark exactly the None cells absent: a present cell marked
    # absent is named, the first in row-major order
    mask = ((True, False), (True, False), (False, False))
    with pytest.raises(
        MissingValueError, match=r"^cell \('p0', 'f1'\) holds 2\.0 but is marked absent$"
    ):
        scores(m, WeightVector.uniform(2), mask)


@pytest.mark.parametrize("mask", [((True, True),), ((True, True), (True,))], ids=["rows", "width"])
@pytest.mark.parametrize(
    "scores",
    [
        lambda m, w, mask: weighted_sum(m, w, NormalizationMethod.MAX, mask),
        lambda m, w, mask: weighted_product(m, w, mask),
    ],
    ids=["weighted_sum", "weighted_product"],
)
def test_mask_of_the_wrong_shape_is_rejected(scores, mask):
    with pytest.raises(DimensionError) as raised:
        scores(make_matrix([[1, 2], [2, 1]]), WeightVector.uniform(2), mask)
    assert (raised.type, str(raised.value)) == (
        DimensionError, "presence mask shape does not match the matrix"
    )


class TestScoreTable:
    def test_all_methods(self):
        m = make_matrix([[1, 2], [2, 1]])
        resolved = resolve_missing(m, MissingValuePolicy.ERROR)
        table = score_table(resolved, WeightVector.uniform(2), ["max", "sum", "map", "zsc", "product"])
        assert table.methods == ("max", "sum", "map", "zsc", "product")
        assert set(table.columns["product"]) == {"p0", "p1"}

    def test_unknown_method(self):
        m = make_matrix([[1]])
        resolved = resolve_missing(m, MissingValuePolicy.ERROR)
        with pytest.raises(DimensionError, match="unknown"):
            score_table(resolved, WeightVector.uniform(1), ["median"])

    def test_no_methods(self):
        m = make_matrix([[1]])
        resolved = resolve_missing(m, MissingValuePolicy.ERROR)
        with pytest.raises(DimensionError):
            score_table(resolved, WeightVector.uniform(1), [])


# ------------------------------------------------------------- properties

matrices = st.integers(min_value=2, max_value=6).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.tuples(
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=10_000).map(float),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=rows,
                max_size=rows,
            ),
            st.lists(st.sampled_from([MIB, LIB]), min_size=cols, max_size=cols),
        )
    )
)


def dirichlet_like(n, seedvals):
    raw = [v + 0.01 for v in seedvals[:n]]
    total = math.fsum(raw)
    return WeightVector.user_defined([v / total for v in raw])


weight_seeds = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6)


@given(matrices, weight_seeds, st.floats(min_value=0.01, max_value=100.0), st.data())
def test_product_rank_invariant_under_column_rescaling(mat, seeds, c, data):
    rows, directions = mat
    m = make_matrix(rows, directions=directions)
    w = dirichlet_like(len(directions), seeds)
    base = weighted_product(m, w)
    values = list(base.values())
    gaps = [
        abs(a - b) / max(abs(a), abs(b))
        for i, a in enumerate(values)
        for b in values[i + 1 :]
    ]
    assume(all(g > 1e-9 for g in gaps))  # knife-edge float ties aside
    j = data.draw(st.integers(min_value=0, max_value=len(directions) - 1))
    scaled_rows = [
        [v * c if k == j else v for k, v in enumerate(row)] for row in rows
    ]
    rescaled = make_matrix(scaled_rows, directions=directions)
    assert rank_scores(weighted_product(rescaled, w)) == rank_scores(base)


@given(matrices, st.data())
def test_value_monotonicity_sum_and_product(mat, data):
    rows, directions = mat
    i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(directions) - 1))
    directions = list(directions)
    directions[j] = MIB
    bumped_rows = [list(row) for row in rows]
    bumped_rows[i][j] += data.draw(st.floats(min_value=0.5, max_value=1000.0))

    m = make_matrix(rows, directions=directions)
    bumped = make_matrix(bumped_rows, directions=directions)
    w = WeightVector.uniform(len(directions))
    platform = f"p{i}"

    before = weighted_sum(m, w, NormalizationMethod.SUM)[platform]
    after = weighted_sum(bumped, w, NormalizationMethod.SUM)[platform]
    assert after >= before - 1e-12

    before_p = weighted_product(m, w)[platform]
    after_p = weighted_product(bumped, w)[platform]
    assert after_p >= before_p * (1 - 1e-12)


@given(matrices, st.data())
def test_rank_monotonicity_max_and_map(mat, data):
    rows, directions = mat
    i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(directions) - 1))
    directions = list(directions)
    directions[j] = MIB
    bumped_rows = [list(row) for row in rows]
    bumped_rows[i][j] += data.draw(st.integers(min_value=1, max_value=1000))

    m = make_matrix(rows, directions=directions)
    bumped = make_matrix(bumped_rows, directions=directions)
    w = WeightVector.uniform(len(directions))
    platform = f"p{i}"

    for method in (NormalizationMethod.MAX, NormalizationMethod.MAP):
        before = rank_scores(weighted_sum(m, w, method))[platform]
        after = rank_scores(weighted_sum(bumped, w, method))[platform]
        assert after <= before


@given(
    st.lists(st.integers(min_value=1, max_value=10_000), min_size=2, max_size=8),
    st.data(),
)
def test_rank_monotonicity_zsc_single_feature(raw, data):
    i = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    bumped = list(raw)
    bumped[i] += data.draw(st.integers(min_value=1, max_value=1000))
    m = make_matrix([[v] for v in raw])
    b = make_matrix([[v] for v in bumped])
    w = WeightVector.uniform(1)
    platform = f"p{i}"
    before = rank_scores(weighted_sum(m, w, NormalizationMethod.ZSC))[platform]
    after = rank_scores(weighted_sum(b, w, NormalizationMethod.ZSC))[platform]
    assert after <= before


@given(matrices, weight_seeds)
@settings(max_examples=60)
def test_uniform_sum_score_bounds(mat, _):
    rows, directions = mat
    m = make_matrix(rows, directions=directions)
    w = WeightVector.uniform(len(directions))
    for method in (NormalizationMethod.MAX, NormalizationMethod.SUM, NormalizationMethod.MAP):
        for score in weighted_sum(m, w, method).values():
            assert -1.0 - 1e-12 <= score <= 1.0 + 1e-12


@given(
    st.lists(st.integers(min_value=1, max_value=10_000), min_size=2, max_size=8, unique=True),
    st.sampled_from([MIB, LIB]),
)
def test_single_feature_ranking_follows_signed_raw(raw, direction):
    m = make_matrix([[v] for v in raw], directions=[direction])
    w = WeightVector.uniform(1)
    sign = 1.0 if direction is MIB else -1.0
    expected = rank_scores({f"p{i}": sign * v for i, v in enumerate(raw)})
    for method in NormalizationMethod:
        got = rank_scores(weighted_sum(m, w, method))
        assert got == expected, method
    assert rank_scores(weighted_product(m, w)) == expected


# ------------------------------------------------- differential oracles
#
# The scoring bodies as they were before score_table shared signs and
# renormalization divisors across methods: one dict of normalized values
# per column, one weight renormalization per platform and method, and the
# sign looked up per cell. Every score must keep its exact bits, and every
# input that fails must fail first with the same exception and message.


def platform_weights_oracle(weights, row_present, platform):
    if all(row_present):
        return list(weights.weights)
    usable = math.fsum(w for w, ok in zip(weights.weights, row_present) if ok)
    if usable <= 0:
        raise DomainError(f"platform {platform!r} has no weight on any present feature")
    return [w / usable if ok else 0.0 for w, ok in zip(weights.weights, row_present)]


def checked_mask_oracle(matrix, weights, present):
    """The presence mask, all-True when none is given, after the checks that
    scoring made when a resolved matrix still stored its mask: the weight
    count, the mask's shape, and that it marks every missing cell absent."""
    if len(weights.weights) != len(matrix.features):
        raise DimensionError(f"{len(weights.weights)} weights for {len(matrix.features)} features")
    if present is None:
        present = ((True,) * len(matrix.features),) * len(matrix.platforms)
    elif len(present) != len(matrix.platforms) or any(
        len(row) != len(matrix.features) for row in present
    ):
        raise DimensionError("presence mask shape does not match the matrix")
    for platform, row, mask in zip(matrix.platforms, matrix.values, present):
        if None in itertools.compress(row, mask):
            spec = next(s for s, c, ok in zip(matrix.features, row, mask) if ok and c is None)
            raise MissingValueError(
                f"cell ({platform!r}, {spec.name!r}) is missing but not marked absent; "
                "resolve missing cells or mark them absent in a presence mask"
            )
    return present


def weighted_sum_oracle(matrix, weights, method, present=None):
    present = checked_mask_oracle(matrix, weights, present)
    normalized = []
    for j, spec in enumerate(matrix.features):
        holders = [i for i in range(len(matrix.platforms)) if present[i][j]]
        try:
            column = normalize([matrix.values[i][j] for i in holders], method)
        except EmptyColumnError:
            need = "at least 2 present values" if method.value == "zsc" else "a present value"
            raise EmptyColumnError(
                f"feature {spec.name!r}: eta_{method.value} needs {need}"
            ) from None
        except DomainError:
            i = next((i for i in holders if matrix.values[i][j] <= 0), None)
            if i is None or method.value in ("map", "zsc"):  # a sum, range or square overflowed
                raise DomainError(
                    f"feature {spec.name!r}: values too large for eta_{method.value}"
                ) from None
            raise DomainError(
                f"feature {spec.name!r}: eta_{method.value} requires strictly positive "
                f"values; got {matrix.values[i][j]!r} for platform {matrix.platforms[i]!r}"
            ) from None
        normalized.append(dict(zip(holders, column.values)))
    scores = {}
    for i, platform in enumerate(matrix.platforms):
        w_eff = platform_weights_oracle(weights, present[i], platform)
        scores[platform] = math.fsum(
            spec.direction.sign * w_eff[j] * normalized[j][i]
            for j, spec in enumerate(matrix.features)
            if present[i][j]
        )
    return scores


def weighted_product_oracle(matrix, weights, present=None):
    present = checked_mask_oracle(matrix, weights, present)
    scores = {}
    for i, platform in enumerate(matrix.platforms):
        w_eff = platform_weights_oracle(weights, present[i], platform)
        score = 1.0
        for j, spec in enumerate(matrix.features):
            if not present[i][j]:
                continue
            value = matrix.values[i][j]
            if value <= 0:
                raise ProductDomainError(
                    f"weighted product needs positive values; "
                    f"got {value!r} at ({platform!r}, {spec.name!r})"
                )
            try:
                score *= value ** (spec.direction.sign * w_eff[j])
            except OverflowError:
                raise ProductDomainError(
                    f"weighted product overflows at ({platform!r}, {spec.name!r}): {value!r}"
                ) from None
        scores[platform] = score
    return scores


def score_table_oracle(resolved, weights, methods):
    columns = {}
    for method in methods:
        if method == "product":
            columns[method] = weighted_product_oracle(resolved.matrix, weights, resolved.present)
        else:
            columns[method] = weighted_sum_oracle(
                resolved.matrix, weights, NormalizationMethod(method), resolved.present
            )
    return ScoreTable(platforms=resolved.matrix.platforms, columns=columns)


def outcome(call):
    """A call's scores as reprs, or the class and message of what it raised."""
    try:
        result = call()
    except (NcapError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    columns = result.columns if isinstance(result, ScoreTable) else {"": result}
    return {m: [(p, repr(s)) for p, s in column.items()] for m, column in columns.items()}


# Cell pools, one drawn per example: ties, both signs of zero, the smallest
# subnormal, huge values and negatives; None is an absent cell. The plain
# and positive pools let most examples score, the full pool makes most fail.
PLAIN = [1.0, 2.0, 2.0, 3.0, 7.5, None]
POSITIVE = [1.0, 2.0, 2.0, 3.5, 5e-324, 1e-300, 1e308, None]
FULL = POSITIVE + [0.0, -0.0, -1.0, -2.5, 1.5e308]


@st.composite
def masked_inputs(draw, complete=False, max_n=6, max_m=5):
    """A matrix, weights and its presence mask; a complete one has no
    absent cell. One in ten of the others has a column with no present
    cell, which only the product can score."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    pool = draw(st.sampled_from([PLAIN, POSITIVE, FULL]))
    cells = st.sampled_from([c for c in pool if c is not None] if complete else pool)
    rows = draw(
        st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n)
    )
    if not complete and draw(st.integers(min_value=0, max_value=9)) == 0:
        blank = draw(st.integers(min_value=0, max_value=m - 1))
        for row in rows:
            row[blank] = None
    directions = draw(st.lists(st.sampled_from([MIB, LIB]), min_size=m, max_size=m))
    raw = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=m, max_size=m))
    assume(any(raw))  # zero weights allowed, but not all of them
    # a nudge makes the weights sum to 1 + 1e-12: dividing a complete row
    # by its usable weight would then change its bits
    total = sum(raw) * draw(st.sampled_from([1.0, 1.0 - 1e-12]))
    weights = WeightVector.user_defined([w / total for w in raw])
    matrix = make_matrix(rows, directions=directions)
    present = tuple(tuple(cell is not None for cell in row) for row in matrix.values)
    return matrix, weights, present


@given(masked_inputs(), st.permutations(["max", "sum", "map", "zsc", "product"]))
@settings(max_examples=400, deadline=None)
def test_scores_equal_oracle_bit_for_bit(inputs, methods):
    assert_scores_equal_oracle(inputs, methods)


@given(masked_inputs(complete=True), st.permutations(["max", "sum", "map", "zsc", "product"]))
@settings(max_examples=300, deadline=None)
def test_complete_matrix_scores_equal_oracle_bit_for_bit(inputs, methods):
    assert_scores_equal_oracle(inputs, methods)


@given(masked_inputs(max_n=40, max_m=30), st.permutations(["max", "sum", "map", "zsc", "product"]))
@settings(max_examples=40, deadline=None)
def test_large_matrix_scores_equal_oracle_bit_for_bit(inputs, methods):
    assert_scores_equal_oracle(inputs, methods)


EDGE_MATRICES = {
    # p0's present terms cancel to exactly 0 under every sum method, and
    # its absent cell adds a term of weight 0.0
    "cancel_next_to_absent": (
        [[2.0, 2.0, None], [1.0, 1.0, 3.0], [1.0, 1.0, 4.0]], [MIB, LIB, MIB], [0.25, 0.25, 0.5]
    ),
    # f1 has no present cell: the product scores f0 alone, a sum cannot normalize f1
    "all_absent_column": ([[2.0, None], [3.0, None]], [MIB, LIB], [0.5, 0.5]),
    # p1's only weight sits on f0, which it lacks
    "weight_only_on_absent": ([[2.0, 1.0], [None, 3.0], [4.0, 2.0]], [MIB, MIB], [1.0, 0.0]),
}


@pytest.mark.parametrize("name", list(EDGE_MATRICES))
def test_edge_matrices_score_as_oracle(name):
    rows, directions, weights = EDGE_MATRICES[name]
    matrix = make_matrix(rows, directions=directions)
    present = tuple(tuple(cell is not None for cell in row) for row in matrix.values)
    inputs = matrix, WeightVector.user_defined(weights), present
    for methods in (METHODS, ["max"], ["zsc"], ["product"]):
        assert_scores_equal_oracle(inputs, methods)
    resolved = ResolvedMatrix(matrix)
    if name == "cancel_next_to_absent":
        table = score_table(resolved, inputs[1], ["max", "sum", "map", "zsc"])
        assert {repr(column["p0"]) for column in table.columns.values()} == {"0.0"}
    elif name == "all_absent_column":
        assert score_table(resolved, inputs[1], ["product"]).columns["product"] == {
            "p0": 2.0, "p1": 3.0
        }
        with pytest.raises(EmptyColumnError, match="feature 'f1': eta_zsc needs at least 2"):
            score_table(resolved, inputs[1], ["zsc"])
    else:
        with pytest.raises(DomainError, match="'p1' has no weight on any present feature"):
            score_table(resolved, inputs[1], ["product"])


def assert_scores_equal_oracle(inputs, methods):
    """score_table, and each method alone under the mask and (when nothing
    is absent) without one, score or fail exactly as the oracles do."""
    matrix, weights, present = inputs
    resolved = ResolvedMatrix(matrix=matrix)
    assert outcome(lambda: score_table(resolved, weights, methods)) == outcome(
        lambda: score_table_oracle(resolved, weights, methods)
    )
    masks = [present] if any(None in row for row in matrix.values) else [present, None]
    for mask in masks:
        for method in NormalizationMethod:
            assert outcome(lambda: weighted_sum(matrix, weights, method, mask)) == outcome(
                lambda: weighted_sum_oracle(matrix, weights, method, mask)
            )
        assert outcome(lambda: weighted_product(matrix, weights, mask)) == outcome(
            lambda: weighted_product_oracle(matrix, weights, mask)
        )


@pytest.mark.parametrize(
    "rows,directions,weights,detail",
    [
        (
            [[1.0, 2.0, -1.0], [0.0, 1.0, 1.0]],
            [MIB, MIB, MIB],
            [0.25, 0.25, 0.5],
            "needs positive values; got -1.0 at ('p0', 'f2')",
        ),
        (
            [[1.0, 2.0, 5e-324], [0.0, 1.0, 1.0]],
            [MIB, MIB, LIB],
            [0.0, 0.0, 1.0],
            "overflows at ('p0', 'f2'): 5e-324",
        ),
        (
            [[1.0, 2.0, 1.0], [1.0, 1.0, 5e-324]],
            [MIB, MIB, LIB],
            [0.0, 0.0, 1.0],
            "overflows at ('p1', 'f2'): 5e-324",
        ),
    ],
    ids=["nonpositive", "overflow_then_nonpositive", "overflow_of_positive"],
)
def test_product_names_first_bad_cell_in_row_major_order(rows, directions, weights, detail):
    # in the first two, p1's first cell comes first column by column, and
    # p0's last comes first row by row; the last has only positive values
    matrix = make_matrix(rows, directions=directions)
    w = WeightVector.user_defined(weights)
    resolved = resolve_missing(matrix, MissingValuePolicy.ERROR)
    for call in (
        lambda: weighted_product(matrix, w),
        lambda: score_table(resolved, w, ["map", "product"]),
    ):
        with pytest.raises(ProductDomainError) as raised:
            call()
        assert str(raised.value).endswith(detail)


# ------------------------------------------------- metamorphic relations
#
# Relations every score keeps exactly: column reductions (fsum, min, max)
# do not depend on platform order, fsum is correctly rounded, and scaling
# by a power of two is exact while nothing overflows or goes subnormal.
# The product multiplies in column order, so only its ranks are kept
# there, apart from near-ties. Its invariance to rescaling a column under
# exclude is not asserted: a platform that lacks the column gets no factor
# from it, so the rescaling moves only the others. The z-score squares its
# deviations as ``d * d``, which is correctly rounded, so its scores keep
# their bits under scaling too.

SUMS = ("max", "sum", "map", "zsc")


@st.composite
def scorable_inputs(draw):
    """Rows with ties and absent cells that every method scores under both
    the mean and the exclude policy, directions and positive weights."""
    n = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=1, max_value=6))
    cells = st.sampled_from([0.75, 1.0, 2.0, 2.0, 3.0, 0.1, 10.0, 1e3, None])
    rows = draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))
    assume(all(any(cell is not None for cell in row) for row in rows))
    assume(all(sum(row[j] is not None for row in rows) >= 2 for j in range(m)))
    directions = draw(st.lists(st.sampled_from([MIB, LIB]), min_size=m, max_size=m))
    raw = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=m, max_size=m))
    return rows, directions, [w / sum(raw) for w in raw]


def scores_under(policy, rows, directions, weights, platforms=None):
    matrix = make_matrix(rows, directions=directions, platforms=platforms)
    resolved = resolve_missing(matrix, MissingValuePolicy(policy))
    table = score_table(resolved, WeightVector.user_defined(weights), METHODS)
    return table.columns


def bits(columns, methods):
    return {m: {p: repr(s) for p, s in columns[m].items()} for m in methods}


def assert_order_kept(base, moved, rel=1e-9):
    """Each pair of platforms whose scores differ by more than ``rel``
    (relative) is in the same order in ``moved``."""
    for p, q in itertools.permutations(base, 2):
        if base[p] - base[q] > rel * max(abs(base[p]), abs(base[q])):
            assert moved[p] > moved[q], (p, q)


POLICIES = st.sampled_from(["mean", "exclude"])


@given(scorable_inputs(), POLICIES, st.data())
@settings(deadline=None)
def test_permuting_rows_permutes_every_score_bit_for_bit(inputs, policy, data):
    rows, directions, weights = inputs
    order = data.draw(st.permutations(range(len(rows))))
    base = scores_under(policy, rows, directions, weights)
    moved = scores_under(
        policy, [rows[i] for i in order], directions, weights, [f"p{i}" for i in order]
    )
    assert bits(moved, METHODS) == bits(base, METHODS)


@given(scorable_inputs(), POLICIES, st.data())
@settings(deadline=None)
def test_permuting_columns_with_weights_keeps_sum_bits(inputs, policy, data):
    rows, directions, weights = inputs
    order = data.draw(st.permutations(range(len(directions))))
    base = scores_under(policy, rows, directions, weights)
    moved = scores_under(
        policy,
        [[row[j] for j in order] for row in rows],
        [directions[j] for j in order],
        [weights[j] for j in order],
    )
    assert bits(moved, SUMS) == bits(base, SUMS)
    assert_order_kept(base["product"], moved["product"])


@given(scorable_inputs(), POLICIES, st.data())
@settings(deadline=None)
def test_power_of_two_scaling_keeps_every_sum_method_bits(inputs, policy, data):
    rows, directions, weights = inputs
    j = data.draw(st.integers(min_value=0, max_value=len(directions) - 1))
    factor = 2.0 ** data.draw(st.integers(min_value=-40, max_value=40))
    scaled = [
        [cell * factor if k == j and cell is not None else cell for k, cell in enumerate(row)]
        for row in rows
    ]
    base = scores_under(policy, rows, directions, weights)
    moved = scores_under(policy, scaled, directions, weights)
    assert bits(moved, SUMS) == bits(base, SUMS)
    if policy == "mean":
        assert_order_kept(base["product"], moved["product"])


@given(scorable_inputs(), POLICIES)
@settings(deadline=None)
def test_tau_b_is_symmetric(inputs, policy):
    stats = consensus_report(rank_table(scores_under(policy, *inputs)))
    assert {pair: repr(tau) for pair, tau in stats.tau.items()} == {
        (a, b): repr(tau) for (b, a), tau in stats.tau.items()
    }


def test_complete_matrix_shares_one_float_per_weight_column():
    """With no absent cell every usable weight total is 1.0, so each weight
    column holds one float object n times rather than n equal copies."""
    from ncap.aggregate import _columns

    matrix = make_matrix([[1.0 + i, 2.0 * i + 1.0, 3.0] for i in range(50)], [MIB, LIB, MIB])
    columns, idle = _columns(matrix, WeightVector.user_defined([0.2, 0.3, 0.5]))
    assert idle is None
    for *_, weights_j in columns:
        assert len(weights_j) == 50
        assert all(w is weights_j[0] for w in weights_j)
