"""Feature-matrix and evaluation-config ingestion.

The feature matrix is a CSV file: first column holds platform ids, the
header row names the features. The evaluation config is a YAML file that
declares, per feature, the direction of merit and (for qualitative
columns such as camera resolutions) an explicit token-to-number encoding
map. Tokens are opaque: "620x512" or "4k60p" mean whatever the config
says they mean, nothing is guessed from units or symbols.

Cells holding "-", "N/A", or nothing are missing. How missing data is
handled is a policy choice: fail, substitute the column mean, or exclude
the cell and renormalize that platform's weights downstream.
"""

from __future__ import annotations

import csv
import io
import math
from enum import Enum
from itertools import compress, repeat
from operator import is_not
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

import yaml
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import (
    AliasEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
)
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

from .errors import (
    ConfigError,
    DegenerateColumnError,
    EncodingError,
    FormatError,
    MissingValueError,
    NcapError,
)
from .level import LAYERS_ABOVE_PERCEPTION, CapabilityProfile

MISSING_TOKENS = frozenset({"", "-", "N/A"})

#: libyaml's loader when PyYAML was built with it; both loaders emit the same
#: events and build values with the same SafeConstructor, only the scanner
#: and parser differ.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# the tags an untagged scalar may resolve to that _yaml_value builds; the
# others PyYAML resolves to, merge "<<" and value "=", only yaml.load builds
_SCALAR_TAGS = frozenset(
    f"tag:yaml.org,2002:{name}" for name in ("null", "bool", "int", "float", "str", "timestamp")
)


def read_utf8(path: str | Path, error: type[NcapError]) -> str:
    """A text file's contents without a leading byte-order mark; bytes that
    are not UTF-8 raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _lines(text: str) -> Iterator[str]:
    """The lines io.StringIO(text) yields, without its copy of the text: each
    piece ends after a "\\n" (and no other line break), the last one may not."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start) + 1 or size
        yield text[start:end]
        start = end


def csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank row of CSV text as (the line it starts on, its stripped
    cells). A row wider or narrower than the first, or a malformed quoted
    field, raises FormatError naming the line."""
    reader = csv.reader(_lines(text), strict=True)
    line, width = 1, None
    try:
        for row in reader:
            if row:
                cells = list(map(str.strip, row))
                width = width or len(cells)
                if len(cells) != width:
                    raise FormatError(f"line {line}: expected {width} cells, got {len(cells)}")
                yield line, cells
            line = reader.line_num + 1
    except csv.Error as exc:
        raise FormatError(f"line {line}: malformed CSV: {exc}") from None


def csv_text(header: list[str], rows: Iterable[Iterable]) -> str:
    """A header and rows of cells as CSV text with "\\n" line ends: the one
    CSV writer, so every CSV output quotes the way csv_rows reads. Rows are
    written as they are drawn, so a generator is never held whole."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _finite(value) -> float | None:
    """A config value as a finite float, or None when it is not a plain
    number. YAML booleans load as Python ints, but they are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return number if math.isfinite(number) else None


class Direction(Enum):
    MORE_IS_BETTER = "more_is_better"
    LESS_IS_BETTER = "less_is_better"

    @property
    def sign(self) -> int:
        return 1 if self is Direction.MORE_IS_BETTER else -1


class MissingValuePolicy(Enum):
    ERROR = "error"
    COLUMN_MEAN = "mean"
    EXCLUDE = "exclude"


def checked_make(cls, iterable):
    """``_make``, and so ``_replace``, of a checked record. typing.NamedTuple
    forbids ``__new__`` in its own body, so a checked record subclasses a
    NamedTuple of its fields and checks them in ``__new__``; this sends
    ``_make`` through that check too."""
    return cls(*iterable)


def _first_repeat(items):
    """The first item equal to an earlier one (None when all differ)."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)


class _FeatureSpec(NamedTuple):
    name: str
    direction: Direction
    unit: str = ""
    encoding: Mapping[str, float] | None = None


class FeatureSpec(_FeatureSpec):
    """Declaration of one feature: merit direction, unit label, token encodings."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls,
        name: str,
        direction: Direction,
        unit: str = "",
        encoding: Mapping[str, float] | None = None,
    ):
        if encoding is not None:
            numbers = {}
            for token, value in encoding.items():
                number = _finite(value)
                if number is None or number <= 0:
                    raise ConfigError(
                        f"feature {name!r}: encoding for token {token!r} "
                        f"must be a positive finite number, got {value!r}"
                    )
                numbers[token] = number
            encoding = numbers
        return super().__new__(cls, name, direction, unit, encoding)


class _FeatureMatrix(NamedTuple):
    platforms: tuple[str, ...]
    features: tuple[FeatureSpec, ...]
    values: tuple[tuple[float | None, ...], ...]


class FeatureMatrix(_FeatureMatrix):
    """Platforms x features grid of numeric values; None marks a missing cell."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls,
        platforms: tuple[str, ...],
        features: tuple[FeatureSpec, ...],
        values: tuple[tuple[float | None, ...], ...],
    ):
        if not platforms or not features:
            raise FormatError("feature matrix needs at least one platform and one feature")
        if len(set(platforms)) != len(platforms):
            raise FormatError(f"duplicate platform id {_first_repeat(platforms)!r}")
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise FormatError(f"duplicate feature name {_first_repeat(names)!r}")
        if len(values) != len(platforms):
            raise FormatError(f"value grid has {len(values)} rows for {len(platforms)} platforms")
        for platform, row in zip(platforms, values):
            if len(row) != len(features):
                raise FormatError(
                    f"row for {platform!r} has {len(row)} cells, "
                    f"expected {len(features)}"
                )
            if not all(map(math.isfinite, compress(row, map(is_not, row, repeat(None))))):
                spec, cell = next(
                    (s, c) for s, c in zip(features, row) if c is not None and not math.isfinite(c)
                )
                raise FormatError(f"non-finite value {cell!r} at ({platform!r}, {spec.name!r})")
        return super().__new__(cls, platforms, features, values)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def missing_cells(self) -> list[tuple[str, str]]:
        """(platform, feature) pairs of every missing cell, row-major order."""
        return [
            (platform, spec.name)
            for platform, row in zip(self.platforms, self.values)
            for spec, cell in zip(self.features, row)
            if cell is None
        ]


class ResolvedMatrix(NamedTuple):
    """A feature matrix after a missing-value policy, where a None cell is
    absent: only the exclude policy keeps them, for aggregation to skip."""

    matrix: FeatureMatrix

    @property
    def present(self) -> tuple[tuple[bool, ...], ...]:
        """Per cell, whether it holds a value, derived from the None cells."""
        return tuple(tuple(map(is_not, row, repeat(None))) for row in self.matrix.values)


class EvalConfig(NamedTuple):
    """Parsed evaluation config: feature declarations plus run policies."""

    features: tuple[FeatureSpec, ...]
    weights: Mapping[str, float] | None = None
    missing: MissingValuePolicy | None = None
    profiles: Mapping[str, CapabilityProfile] = MappingProxyType({})


def load_config(path: str | Path) -> EvalConfig:
    """Load and validate an evaluation config from a YAML file."""
    try:
        raw = _yaml_value(read_utf8(path, ConfigError))
    except yaml.YAMLError as exc:
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        detail = problem if mark and problem else str(exc).partition("\n")[0]
        raise ConfigError(f"cannot parse config {path}: {where}{detail}") from None
    except ValueError as exc:  # yaml.load met a scalar it resolves but cannot build
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    raw = _mapping(raw, f"config {path}", ("features", "weights", "missing", "profiles"))

    features = _parse_feature_specs(raw.get("features"))
    names = {spec.name for spec in features}

    weights = raw.get("weights")
    if weights is not None:
        weights = _mapping(weights, "weights", names)
        absent = names - set(weights)
        if absent:
            raise ConfigError(f"weights missing for features: {sorted(absent)}")
        for key, value in weights.items():
            number = _finite(value)
            if number is None or number < 0:
                raise ConfigError(f"weight for {key!r} must be a non-negative number")
        weights = {key: float(value) for key, value in weights.items()}

    missing = raw.get("missing")
    if missing is not None:
        missing = _choice(MissingValuePolicy, missing, "missing policy")

    profiles = _parse_profiles(raw.get("profiles"))
    return EvalConfig(features=features, weights=weights, missing=missing, profiles=profiles)


def _yaml_value(text: str):
    """The value yaml.load(text, Loader=YAML_LOADER) gives, built straight
    from the parser's events where the text allows.

    Mappings, sequences and untagged scalars are built without PyYAML's node
    tree: a scalar's tag comes from PyYAML's Resolver and its value from
    SafeConstructor's method for that tag, once per (text, implicit) pair.
    An anchor, alias, explicit tag, merge key "<<", value key "=", collection
    as a key or second document sends the whole text to yaml.load. A scalar
    that resolves but cannot be built, such as 2021-13-01, raises
    ConstructorError at its start once the stream has parsed, so a syntax
    error anywhere wins, as it does in yaml.load. Nothing outlives the call.
    """
    resolve, constructor, scalars, error = Resolver().resolve, SafeConstructor(), {}, None
    stack = [[]]  # items of each open collection, the stream's documents first
    for event in yaml.parse(text, Loader=YAML_LOADER):
        kind = type(event)
        if kind is ScalarEvent:
            if event.anchor is not None or event.tag not in (None, "!"):
                break
            key = (event.value, event.implicit)
            if key not in scalars:
                tag = resolve(ScalarNode, event.value, event.implicit)
                if tag not in _SCALAR_TAGS:
                    break
                try:
                    scalars[key] = constructor.yaml_constructors[tag](
                        constructor, ScalarNode(tag, event.value)
                    )
                except ValueError as exc:
                    scalars[key] = None
                    error = error or ConstructorError(None, None, str(exc), event.start_mark)
            stack[-1].append(scalars[key])
        elif kind is MappingStartEvent or kind is SequenceStartEvent:
            if event.anchor is not None or event.tag not in (None, "!"):
                break
            stack.append([])
        elif kind is MappingEndEvent:
            items = iter(stack.pop())
            try:
                stack[-1].append(dict(zip(items, items)))
            except TypeError:  # a collection as a key: lists and dicts are unhashable
                break
        elif kind is SequenceEndEvent:
            stack[-2].append(stack.pop())
        elif kind is AliasEvent or (kind is DocumentStartEvent and stack[0]):
            break
    else:
        if error is not None:
            raise error
        return stack[0][0] if stack[0] else None
    return yaml.load(text, Loader=YAML_LOADER)


def _utf8(key, what: str) -> str:
    """A config key or note as text. A YAML null is not text, and a lone
    surrogate (from a YAML escape) cannot be written out."""
    if key is None:
        raise ConfigError(f"{what} must not be null")
    text = str(key)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"{what} {text!r} is not valid UTF-8") from None
    return text


def _mapping(value, what: str, keys=None) -> dict:
    """A config mapping with every key as text (see _utf8). Raises ConfigError
    when ``value`` is not a mapping, when two keys are the same text, or when
    a key is not one of ``keys`` (any key is allowed when ``keys`` is None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a mapping")
    out = {}
    for key, item in value.items():
        text = _utf8(key, f"{what}: key")
        if text in out:
            raise ConfigError(f"{what}: more than one key reads as {text!r}")
        if keys is not None and text not in keys:
            raise ConfigError(f"{what}: unknown key {text!r}")
        out[text] = item
    return out


def _choice(enum: type[Enum], value, what: str):
    """The member of ``enum`` whose value is ``value``, or ConfigError naming the choices."""
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(member.value for member in enum)
        raise ConfigError(f"{what} must be one of: {choices}") from None


def _parse_feature_specs(entries) -> tuple[FeatureSpec, ...]:
    if not entries or not isinstance(entries, list):
        raise ConfigError("config must declare a non-empty 'features' list")
    specs: dict[str, FeatureSpec] = {}
    for number, entry in enumerate(entries, start=1):
        what = f"feature entry {number}"
        entry = _mapping(entry, what, ("name", "direction", "unit", "encoding"))
        if "name" not in entry:
            raise ConfigError(f"{what} needs a 'name'")
        name = _utf8(entry["name"], "feature name")
        if name in specs:
            raise ConfigError(f"feature {name!r} is declared more than once")
        encoding = entry.get("encoding")
        if encoding is not None:
            encoding = _mapping(encoding, f"feature {name!r}: encoding")
        specs[name] = FeatureSpec(
            name=name,
            direction=_choice(Direction, entry.get("direction"), f"feature {name!r}: direction"),
            unit="" if entry.get("unit") is None else str(entry["unit"]),
            encoding=encoding,
        )
    return tuple(specs.values())


def _parse_profiles(entries) -> dict[str, CapabilityProfile]:
    if entries is None:
        return {}
    profiles, layers = {}, ("perception", *LAYERS_ABOVE_PERCEPTION)
    for platform, body in _mapping(entries, "profiles").items():
        what = f"profile for {platform!r}"
        flags = {"perception": True, **_mapping(body, what, (*layers, "evidence"))}
        evidence = flags.pop("evidence", None)
        for layer in layers:
            if not isinstance(flags.get(layer), bool):
                raise ConfigError(f"{what} needs boolean {layer!r}")
        evidence = {} if evidence is None else _mapping(evidence, f"{what}: evidence")
        evidence = {
            key: _utf8(note, f"{what}: evidence for {key!r}") for key, note in evidence.items()
        }
        profiles[platform] = CapabilityProfile(platform=platform, evidence=evidence, **flags)
    return profiles


def parse_feature_matrix(source: str | Path, config: EvalConfig) -> FeatureMatrix:
    """Parse a feature-matrix CSV file against a config's feature declarations.

    The header row names the features (first column is the platform id);
    every named feature must be declared in the config. String tokens are
    resolved through the feature's encoding map; "-", "N/A", and empty
    cells become missing values.
    """
    return parse_feature_matrix_text(read_utf8(source, FormatError), config)


def parse_feature_matrix_text(text: str, config: EvalConfig) -> FeatureMatrix:
    """Same as parse_feature_matrix, for already-loaded CSV text."""
    rows = csv_rows(text)
    _, header = next(rows, (1, []))
    declared = {spec.name: spec for spec in config.features}
    for name in header[1:]:
        if name not in declared:
            raise ConfigError(f"feature {name!r} is not declared in the config")
    specs = tuple(declared[name] for name in header[1:])
    # per column, each token's value: a missing token is None even where an
    # encoding lists it; any other cell is read by float()
    tables = [{**(spec.encoding or {}), **dict.fromkeys(MISSING_TOKENS)} for spec in specs]

    platforms: list[str] = []
    grid: list[tuple[float | None, ...]] = []
    for line_no, cells in rows:
        platform = cells[0]
        if not platform:
            raise FormatError(f"line {line_no}: empty platform id")
        platforms.append(platform)
        try:
            grid.append(tuple([t[c] if c in t else float(c) for t, c in zip(tables, cells[1:])]))
        except ValueError:  # name the first cell float() cannot read
            for spec, table, cell in zip(specs, tables, cells[1:]):
                if cell not in table:
                    try:
                        float(cell)
                    except ValueError:
                        raise EncodingError(
                            f"line {line_no}, feature {spec.name!r}: "
                            f"no encoding for token {cell!r} (platform {platform!r})"
                        ) from None
    return FeatureMatrix(platforms=tuple(platforms), features=specs, values=tuple(grid))


def resolve_missing(matrix: FeatureMatrix, policy: MissingValuePolicy) -> ResolvedMatrix:
    """Apply a missing-value policy; a None cell of the result is absent.

    error: raise on the first missing cell. mean: fill each column that has
    a missing cell with the mean of its present values. exclude: keep
    missing cells None for aggregation-time weight renormalization.
    """
    if not isinstance(policy, MissingValuePolicy):
        raise ConfigError(f"not a missing-value policy: {policy!r}")

    if policy is MissingValuePolicy.ERROR:
        for platform, row in zip(matrix.platforms, matrix.values):
            if None in row:
                feature = matrix.features[row.index(None)].name
                raise MissingValueError(
                    f"missing value at ({platform!r}, {feature!r}) under the error policy"
                )
        return ResolvedMatrix(matrix=matrix)

    for j, spec in enumerate(matrix.features):
        if all(row[j] is None for row in matrix.values):
            raise DegenerateColumnError(f"feature {spec.name!r} has no present values")

    if policy is MissingValuePolicy.EXCLUDE:
        return ResolvedMatrix(matrix=matrix)

    columns = list(zip(*matrix.values))
    for j, column in enumerate(columns):
        if None in column:  # a complete column needs no mean
            found = [cell for cell in column if cell is not None]
            try:
                mean = math.fsum(found) / len(found)
            except OverflowError:  # scaled by 2**-k < 1/n, no partial sum overflows
                k = len(found).bit_length()
                mean = math.fsum(math.ldexp(cell, -k) for cell in found) / len(found) * 2.0**k
            columns[j] = [mean if cell is None else cell for cell in column]
    full = FeatureMatrix(matrix.platforms, matrix.features, tuple(zip(*columns)))
    return ResolvedMatrix(matrix=full)
