"""The public records are immutable named tuples: value equality and hashing,
keyword and positional construction, pickling and the ``Name(field=...)`` repr."""

import copy
import pickle

import pytest

import ncap
from ncap import (
    AgreementStats,
    AutonomyLevel,
    CapabilityProfile,
    ConfigError,
    DimensionError,
    Direction,
    DistanceReport,
    DomainError,
    EvalConfig,
    FeatureMatrix,
    FeatureSpec,
    FormatError,
    MissingValuePolicy,
    NcapCoordinate,
    NormalizationMethod,
    NormalizedColumn,
    RankTable,
    ResolvedMatrix,
    ScoreTable,
    WeightVector,
)

SPEC_A = FeatureSpec("a", Direction.MORE_IS_BETTER, "m", {"X": 2})
SPEC_B = FeatureSpec("b", Direction.LESS_IS_BETTER)
MATRIX = FeatureMatrix(("p0", "p1"), (SPEC_A, SPEC_B), ((1.0, 2.0), (None, 3.0)))
PROFILE = CapabilityProfile("p0", True, False, True, True, {"lidar": "datasheet"})

# one record of each public class, as (class, field values in field order)
RECORDS = [
    (WeightVector, ((0.25, 0.75),)),
    (ScoreTable, (("p0", "p1"), {"max": {"p0": 1.0, "p1": 0.5}})),
    (NcapCoordinate, ("p0", 2, 0.5, "max")),
    (DistanceReport, ("max", {"p0": 1.0, "p1": 2.0}, "p1", {"p0": 0.5, "p1": 1.0})),
    (FeatureSpec, ("a", Direction.MORE_IS_BETTER, "m", {"X": 2.0})),
    (FeatureMatrix, (("p0", "p1"), (SPEC_A, SPEC_B), ((1.0, 2.0), (None, 3.0)))),
    (ResolvedMatrix, (MATRIX,)),
    (
        EvalConfig,
        ((SPEC_A, SPEC_B), {"a": 0.5, "b": 0.5}, MissingValuePolicy.EXCLUDE, {"p0": PROFILE}),
    ),
    (CapabilityProfile, ("p0", True, False, True, True, {"lidar": "datasheet"})),
    (AutonomyLevel, (1, ("p0: execution capability ignored; lower layer planning is absent",))),
    (NormalizedColumn, ((0.5, 1.0), NormalizationMethod.MAX)),
    (RankTable, (("p0", "p1"), {"max": {"p0": 2, "p1": 1}})),
    (AgreementStats, (("max", "sum"), {("max", "sum"): 1.0}, {1: ("p1",)})),
]

ids = [cls.__name__ for cls, _ in RECORDS]


def test_every_public_record_is_covered():
    public = {
        name for name in ncap.__all__
        if isinstance(getattr(ncap, name), type) and issubclass(getattr(ncap, name), tuple)
    }
    assert public == set(ids)


@pytest.mark.parametrize("cls,values", RECORDS, ids=ids)
def test_positional_and_keyword_construction_agree(cls, values):
    positional = cls(*values)
    keyword = cls(**dict(zip(cls._fields, values)))
    assert positional == keyword
    assert type(positional) is type(keyword) is cls
    assert positional._asdict() == dict(zip(cls._fields, values))


def _hash(value):
    """The value's hash, or TypeError when it holds a mapping."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls,values", RECORDS, ids=ids)
def test_equal_records_hash_equal(cls, values):
    positional = cls(*values)
    keyword = cls(**dict(zip(cls._fields, values)))
    assert _hash(positional) == _hash(keyword)
    # a record is hashable exactly when its fields are
    hashable = all(_hash(v) is not TypeError for v in values)
    assert (_hash(positional) is not TypeError) == hashable


@pytest.mark.parametrize("cls,values", RECORDS, ids=ids)
def test_records_are_immutable(cls, values):
    record = cls(*values)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], values[0])
    with pytest.raises(AttributeError):
        record.note = "x"


@pytest.mark.parametrize("cls,values", RECORDS, ids=ids)
def test_pickle_and_deepcopy_round_trip(cls, values):
    record = cls(*values)
    for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert other == record
        assert type(other) is cls


@pytest.mark.parametrize("cls,values", RECORDS, ids=ids)
def test_repr_names_the_class_and_fields(cls, values):
    text = repr(cls(*values))
    assert text.startswith(f"{cls.__name__}({cls._fields[0]}=")


@pytest.mark.parametrize("cls,values", RECORDS, ids=ids)
def test_replace_keeps_the_class(cls, values):
    record = cls(*values)
    again = record._replace(**{cls._fields[0]: values[0]})
    assert again == record
    assert type(again) is cls


def test_derived_fields_are_read_only_properties():
    resolved = ResolvedMatrix(MATRIX)
    ranks = RankTable(("p0", "p1", "p2"), {"max": {"p0": 1, "p1": 1, "p2": 3}})
    assert resolved.present == ((True, True), (False, True))
    assert ranks.tie_groups == {"max": (("p0", "p1"),)}
    assert (ResolvedMatrix._fields, RankTable._fields) == (("matrix",), ("platforms", "columns"))
    for record, name in ((resolved, "present"), (ranks, "tie_groups")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(TypeError):
        ResolvedMatrix(MATRIX, ((True, True), (False, True)))


def test_capability_profile_default_evidence_is_empty_and_read_only():
    profile = CapabilityProfile("p0", True, True, True)
    assert profile.perception is True
    assert dict(profile.evidence) == {}
    with pytest.raises(TypeError):
        profile.evidence["lidar"] = "datasheet"
    assert CapabilityProfile("p1", True, True, True).evidence == {}


def test_eval_config_default_profiles_are_empty_and_read_only():
    config = EvalConfig((SPEC_A,))
    assert (config.weights, config.missing, dict(config.profiles)) == (None, None, {})
    with pytest.raises(TypeError):
        config.profiles["p0"] = PROFILE


def test_weight_vector_len_counts_weights():
    # a one-field record: it iterates, indexes and unpacks as its one field,
    # and the weight count is the length of that field
    weights = WeightVector.uniform(3)
    assert WeightVector._fields == ("weights",)
    assert len(weights) == 1
    assert list(weights) == [weights.weights]
    (only,) = weights
    assert weights[0] is only is weights.weights
    with pytest.raises(IndexError):
        weights[1]
    assert len(weights.weights) == 3


@pytest.mark.parametrize(
    "record,change,error",
    [
        (WeightVector.uniform(2), {"weights": (0.5, 0.6)}, DomainError),
        (NcapCoordinate("p0", 1, 0.5, "max"), {"x": 4}, DomainError),
        (NcapCoordinate("p0", 1, 0.5, "max"), {"y": float("nan")}, DomainError),
        (ScoreTable(("p0",), {"max": {"p0": 1.0}}), {"platforms": ("p1",)}, DimensionError),
        (ScoreTable(("p0",), {"max": {"p0": 1.0}}), {"columns": {"m": {"p0": "x"}}}, DomainError),
        (MATRIX, {"platforms": ("p0", "p0")}, FormatError),
        (SPEC_A, {"encoding": {"X": -1}}, ConfigError),
        (SPEC_A, {"direction": "more_is_better"}, ConfigError),
    ],
    ids=["weights", "level", "score", "columns", "text-score", "platforms", "encoding", "direction"],
)
def test_replace_checks_like_construction(record, change, error):
    with pytest.raises(error):
        record._replace(**change)


@pytest.mark.parametrize(
    "score, detail",
    [
        ("x", "score 'x' for platform 'a' under 'm' is no finite real"),
        (10**400, f"score {10**400!r} for platform 'a' under 'm' is no finite real"),
        (None, "score None for platform 'a' under 'm' is no finite real"),
        (float("inf"), "score inf for platform 'a' under 'm' is no finite real"),
    ],
    ids=["text", "huge-int", "none", "infinity"],
)
def test_score_table_names_a_score_that_is_no_finite_real(score, detail):
    with pytest.raises(DomainError) as raised:
        ScoreTable(("a",), {"m": {"a": score}})
    assert str(raised.value) == detail


@pytest.mark.parametrize(
    "build, error, detail",
    [
        (
            lambda: FeatureSpec("f", Direction.MORE_IS_BETTER, "", [1]),
            ConfigError,
            "feature 'f': encoding must be a mapping, got [1]",
        ),
        (
            lambda: SPEC_A._replace(encoding="X"),
            ConfigError,
            "feature 'a': encoding must be a mapping, got 'X'",
        ),
        (
            lambda: ScoreTable(("a",), None),
            DimensionError,
            "score columns must be a mapping of methods, got None",
        ),
        (
            lambda: ScoreTable(("a",), {"m": {"a": 1.0}})._replace(columns=[("m", 1.0)]),
            DimensionError,
            "score columns must be a mapping of methods, got [('m', 1.0)]",
        ),
        (
            lambda: ScoreTable(("a",), {"m": ["a"]}),
            DimensionError,
            "score column 'm' does not cover all platforms",
        ),
    ],
    ids=["encoding", "replaced-encoding", "columns", "replaced-columns", "column"],
)
def test_a_field_that_is_no_mapping_is_named(build, error, detail):
    """Each was a bare AttributeError from calling .items() on the value."""
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == detail


@pytest.mark.parametrize("direction", ["more_is_better", None, 1])
def test_feature_spec_takes_only_a_direction_member(direction):
    with pytest.raises(ConfigError) as raised:
        FeatureSpec("f", direction)
    assert str(raised.value) == (
        "feature 'f': direction must be one of: more_is_better, less_is_better"
    )
