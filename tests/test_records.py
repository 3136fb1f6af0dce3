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
    WeightScheme,
    WeightVector,
)

SPEC_A = FeatureSpec("a", Direction.MORE_IS_BETTER, "m", {"X": 2})
SPEC_B = FeatureSpec("b", Direction.LESS_IS_BETTER)
MATRIX = FeatureMatrix(("p0", "p1"), (SPEC_A, SPEC_B), ((1.0, 2.0), (None, 3.0)))
PROFILE = CapabilityProfile("p0", True, False, True, True, {"lidar": "datasheet"})

# one record of each public class, as (class, field values in field order)
RECORDS = [
    (WeightVector, ((0.25, 0.75), WeightScheme.USER_DEFINED)),
    (ScoreTable, (("p0", "p1"), {"max": {"p0": 1.0, "p1": 0.5}})),
    (NcapCoordinate, ("p0", 2, 0.5, "max")),
    (DistanceReport, ("max", {"p0": 1.0, "p1": 2.0}, "p1", {"p0": 0.5, "p1": 1.0})),
    (FeatureSpec, ("a", Direction.MORE_IS_BETTER, "m", {"X": 2.0})),
    (FeatureMatrix, (("p0", "p1"), (SPEC_A, SPEC_B), ((1.0, 2.0), (None, 3.0)))),
    (ResolvedMatrix, (MATRIX, ((True, True), (False, True)))),
    (
        EvalConfig,
        ((SPEC_A, SPEC_B), {"a": 0.5, "b": 0.5}, MissingValuePolicy.EXCLUDE, {"p0": PROFILE}),
    ),
    (CapabilityProfile, ("p0", True, False, True, True, {"lidar": "datasheet"})),
    (AutonomyLevel, (1, ("p0: execution capability ignored; lower layer planning is absent",))),
    (NormalizedColumn, ((0.5, 1.0), NormalizationMethod.MAX)),
    (RankTable, (("p0", "p1"), {"max": {"p0": 2, "p1": 1}}, {"max": (("p1",), ("p0",))})),
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
    weights = WeightVector.uniform(3)
    assert len(weights) == 3
    assert weights._replace(scheme=WeightScheme.USER_DEFINED).scheme is WeightScheme.USER_DEFINED


@pytest.mark.parametrize(
    "record,change,error",
    [
        (WeightVector.uniform(2), {"weights": (0.5, 0.6)}, DomainError),
        (NcapCoordinate("p0", 1, 0.5, "max"), {"x": 4}, DomainError),
        (NcapCoordinate("p0", 1, 0.5, "max"), {"y": float("nan")}, DomainError),
        (ScoreTable(("p0",), {"max": {"p0": 1.0}}), {"platforms": ("p1",)}, DimensionError),
        (MATRIX, {"platforms": ("p0", "p0")}, FormatError),
        (SPEC_A, {"encoding": {"X": -1}}, ConfigError),
    ],
    ids=["weights", "level", "score", "columns", "platforms", "encoding"],
)
def test_replace_checks_like_construction(record, change, error):
    with pytest.raises(error):
        record._replace(**change)
