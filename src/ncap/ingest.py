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
import functools
import io
import math
import re
from enum import Enum
from itertools import compress, repeat
from operator import is_, is_not
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

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
_LAYERS = ("perception", *LAYERS_ABOVE_PERCEPTION)
_PROFILE_KEYS = frozenset((*_LAYERS, "evidence"))


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
            try:  # an inf or nan cell makes the float sum of the non-zero cells non-finite
                if math.isfinite(sum(filter(None, row), 0.0)):
                    continue
            except (ArithmeticError, TypeError):  # a huge int or a cell that is no number
                pass
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
    except ValueError as exc:
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
    """The value yaml.load gives. A text outside the line reader's subset is
    read by yaml.load from PyYAML, an optional dependency; a YAML error
    becomes a ValueError with its line, column and problem, and so do, without
    a place, nesting too deep to read and such a text where PyYAML is absent."""
    try:
        try:
            return _subset_value(text)
        except _Outside:
            return _yaml_load(text)
    except RecursionError:  # a valid config nests four collections deep at most
        raise ValueError("collections nest too deeply") from None


def _yaml_load(text: str):
    try:
        import yaml
    except ImportError:  # the reader keeps no place, so the message names none
        raise ValueError(
            "it uses YAML beyond ncap's own reader, which needs PyYAML (pip install 'ncap[yaml]')"
        ) from None
    try:
        return yaml.load(text, Loader=_loader())
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ValueError(f"line {mark.line + 1}, column {mark.column + 1}: {exc.problem}") from None


@functools.cache
def _loader():
    """PyYAML's pure-Python safe loader, failing at the start of a scalar it
    cannot build (2021-13-01, !!bool x), of a key repeated in one mapping and
    at a character YAML does not accept."""
    from collections.abc import Hashable

    from yaml import MarkedYAMLError, SafeLoader
    from yaml.constructor import ConstructorError
    from yaml.reader import ReaderError

    class Loader(SafeLoader):
        def __init__(self, stream):
            super().__init__(stream)
            self.flattened = set()

        def check_printable(self, data):
            try:
                super().check_printable(data)
            except ReaderError as exc:  # which has no mark: move the reader to it
                self.buffer = data + "\0"
                self.forward(exc.position)
                problem = str(exc).partition("\n")[0]
                raise MarkedYAMLError(None, None, problem, self.get_mark()) from None

        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep)
            except ValueError as exc:
                raise ConstructorError(None, None, str(exc), node.start_mark) from None
            except (KeyError, AttributeError):  # "!!bool" or "!!timestamp" on other text
                problem = f"{node.value!r} is not a {node.tag.rpartition(':')[2]}"
                raise ConstructorError(None, None, problem, node.start_mark) from None

        def flatten_mapping(self, node):
            # a mapping is flattened before it is built or merged, and the first
            # time moves the keys that "<<" merges in, so its own are checked then
            if node in self.flattened:
                return
            self.flattened.add(node)
            keys = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
            super().flatten_mapping(node)  # which makes a value key "=" a str
            seen = set()
            for key_node in keys:
                key = self.construct_object(key_node)
                if not isinstance(key, Hashable):  # which the constructor rejects
                    continue
                if key in seen:
                    raise ConstructorError(None, None, f"repeated key {key!r}", key_node.start_mark)
                seen.add(key)

    return Loader


class _Outside(Exception):
    """The text holds YAML that the line reader leaves to yaml.load."""


# a plain scalar starts with no indicator and no space, or with "-" before a
# character that is neither space, ":" nor a flow indicator
_INDICATORS = "-?:,[]{}#&*!|>'\"%@`"
_AFTER_DASH = " :,[]{}"
_START = rf"(?:[^\n {re.escape(_INDICATORS)}]|-[^\n{re.escape(_AFTER_DASH)}])"
_QUOTE = r"'[^'\n]*'" r'|"[^"\\\n]*"'  # a quoted scalar without escapes
# each line that holds more than a comment as (its indent, its "- " entry
# markers, a quoted or plain key, the colon and spaces after that, the rest)
_ROW = re.compile(
    rf"^( *)(?=[^ \n#])((?:-(?: +|$))*)(?:({_QUOTE}|{_START}[^:\n]*)(:(?: +|$)))?([^\n]*)", re.M
)
_QUOTED = re.compile(rf"({_QUOTE})(?: +#.*)?$")
_FLOW_SCALAR = re.compile(rf"""({_QUOTE})|({_START}[^,\[\]{{}}#:?'"]*)""")
_SPACES = re.compile(" *")
_COMMENT = re.compile(" +#")
# the longest key read here, well below the 1024 characters that both
# parsers allow a key before its colon
_KEY_SPAN = 200

# plain scalars the line reader builds: ints and floats as YAML 1.1
# writes them in decimal, true/false and null in the forms it resolves
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]{0,17})")
_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?")
_WORDS = {
    **dict.fromkeys(("true", "True", "TRUE"), True),
    **dict.fromkeys(("false", "False", "FALSE"), False),
    **dict.fromkeys(("null", "Null", "NULL", "~"), None),
}
# a plain scalar not in _WORDS is text unless it is another YAML 1.1 boolean,
# or starts with a character that keys PyYAML's resolvers for numbers, dates,
# "<<" and "=" and matches _NOT_TEXT, a superset of what they resolve
_RESOLVED = frozenset("-+.0123456789<=")
_NOT_TEXT = re.compile(r"[-+]?(?:0[bx][0-9a-fA-F_]*|\.[iInN][nNaA][fFnN]|[0-9_.:eE+\-tTZ ]*)|<<|=")
_YAML11_BOOLS = frozenset(
    ("yes", "Yes", "YES", "no", "No", "NO", "on", "On", "ON", "off", "Off", "OFF")
)


def _subset_value(text: str):
    """The value yaml.load gives a text in the line reader's subset: block
    mappings and sequences (including "- key: value" entries), one-line flow
    mappings and sequences of scalars, plain and quoted scalars without
    escapes or line breaks, and comments, with no key repeated in a mapping.
    Raises _Outside for any other text."""
    # a document start or end marker sends the text to yaml.load, and so does
    # a character Python does not print: a tab, a line break other than "\n",
    # a byte-order mark, a surrogate and every character PyYAML refuses
    marker = text.startswith(("---", "...")) or "\n---" in text or "\n..." in text
    if marker or not text.replace("\n", "").isprintable():
        raise _Outside
    reader = _LineReader(text)
    value = None if reader.row is None else reader.block(reader.row[0])
    if reader.row is not None:
        raise _Outside
    return value


class _LineReader:
    """One pass of the line reader over a text, a row at a time: ``row`` is
    the current row (None past the last). An indent is its run of spaces;
    such runs compare as their lengths do. Nothing outlives the pass."""

    def __init__(self, text: str):
        self.keys = {}  # each plain key read as text, so that a key met again is one object
        self.rows = map(re.Match.groups, _ROW.finditer(text))
        self.row = next(self.rows, None)

    def block(self, indent: str):
        """The block node whose first row, the current one, sits at ``indent``."""
        return self.sequence(indent) if self.row[1] else self.mapping(indent)

    def nested(self, indent: str, indentless: bool):
        """The value of an entry at ``indent`` with nothing after its indicator:
        the block below it, an indentless sequence for a mapping key, or null."""
        if self.row is not None:
            below, dashes = self.row[:2]
            if below > indent or (indentless and below == indent and dashes):
                return self.block(below)
        return None

    def sequence(self, indent: str) -> list:
        items = []
        while self.row is not None:
            at_indent, dashes, key, colon, rest = self.row
            if at_indent != indent or not dashes:
                break
            inner = dashes[1:].lstrip(" ")
            column = indent + " " * (len(dashes) - len(inner))
            if inner or key:
                # a compact sequence or mapping: the rest of the row is its first row
                self.row = (column, inner, key, colon, rest)
                items.append(self.block(column))
                continue
            self.row = next(self.rows, None)
            if rest in _WORDS:
                items.append(_WORDS[rest])
            else:
                on_row = rest and rest[0] != "#"  # a value, not a comment, after the "-"
                items.append(self.inline(rest) if on_row else self.nested(indent, False))
        return items

    def mapping(self, indent: str) -> dict:
        out = {}
        while self.row is not None:
            at_indent, dashes, key, colon, rest = self.row
            if at_indent != indent:
                break
            if dashes or not key or key[-1] == " " or len(key) > _KEY_SPAN:
                raise _Outside
            if key[0] == "'" or key[0] == '"':
                key = key[1:-1]
            elif key in self.keys:
                key = self.keys[key]
            elif " #" in key:  # a comment, not a key
                raise _Outside
            else:
                text, key = key, self.scalar(key)
                if type(key) is str:
                    self.keys[text] = key
            if key in out:
                raise _Outside
            self.row = next(self.rows, None)
            if rest in _WORDS:
                out[key] = _WORDS[rest]
            elif rest and rest[0] != "#":
                out[key] = self.inline(rest)
            else:
                out[key] = self.nested(indent, True)
        return out

    def inline(self, text: str):
        """The scalar or one-line flow collection that ``text``, the rest of
        the row, holds, with at most a trailing comment."""
        text = text.rstrip(" ")
        first = text[0]
        if first == "'" or first == '"':
            match = _QUOTED.match(text)
            if match is None:
                raise _Outside
            return match[1][1:-1]
        if first == "[" or first == "{":
            return self.flow(text)
        if first in _INDICATORS and (first != "-" or text[1:2] in _AFTER_DASH):
            raise _Outside
        text = text.partition(" #")[0].rstrip(" ")
        if ": " in text or text[-1] == ":":
            raise _Outside
        return self.scalar(text)

    def flow(self, text: str):
        """The one-line flow sequence or mapping of scalars that ``text`` holds."""
        mapping = text[0] == "{"
        close, items = ("}", {}) if mapping else ("]", [])
        at = _SPACES.match(text, 1).end()
        if text.startswith(close, at):
            at += 1
        else:
            while True:
                start = at
                value, at = self.flow_scalar(text, at)
                if mapping:
                    if not text.startswith(": ", at) or at - start > _KEY_SPAN or value in items:
                        raise _Outside
                    key, at = value, _SPACES.match(text, at + 2).end()
                    value = None
                    if text[at : at + 1] not in (",", "}"):
                        value, at = self.flow_scalar(text, at)
                    items[key] = value
                else:
                    items.append(value)
                if text.startswith(close, at):
                    at += 1
                    break
                if not text.startswith(",", at):
                    raise _Outside
                at = _SPACES.match(text, at + 1).end()
        if at < len(text) and not _COMMENT.match(text, at):
            raise _Outside
        return items

    def flow_scalar(self, text: str, at: int):
        """The scalar at text[at] inside a flow collection, and where the next token starts."""
        match = _FLOW_SCALAR.match(text, at)
        if match is None:
            raise _Outside
        quoted, plain = match.groups()
        value = quoted[1:-1] if quoted else self.scalar(plain.rstrip(" "))
        return value, _SPACES.match(text, match.end()).end()

    def scalar(self, text: str):
        """A plain scalar's value as PyYAML builds it, or _Outside to leave it to yaml.load."""
        if text in _WORDS:
            return _WORDS[text]
        if text[0] not in _RESOLVED and text not in _YAML11_BOOLS:
            return text
        if _INT.fullmatch(text):
            return int(text)
        if _FLOAT.fullmatch(text):
            return float(text)
        if text in _YAML11_BOOLS or _NOT_TEXT.fullmatch(text):
            raise _Outside
        return text


def _utf8(key, what: str) -> str:
    """A config key, name, unit or note as text. A YAML null, list or mapping
    is not text, and a lone surrogate (from a YAML escape) cannot be written out."""
    if type(key) is str and key.isascii():
        return key
    if key is None:
        raise ConfigError(f"{what} must not be null")
    if isinstance(key, (list, dict)):
        raise ConfigError(f"{what} must not be a {'list' if isinstance(key, list) else 'mapping'}")
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
        unit, encoding = entry.get("unit"), entry.get("encoding")
        if encoding is not None:
            encoding = _mapping(encoding, f"feature {name!r}: encoding")
        specs[name] = FeatureSpec(
            name=name,
            direction=_choice(Direction, entry.get("direction"), f"feature {name!r}: direction"),
            unit="" if unit is None else _utf8(unit, f"feature {name!r}: unit"),
            encoding=encoding,
        )
    return tuple(specs.values())


def _parse_profiles(entries) -> dict[str, CapabilityProfile]:
    if entries is None:
        return {}
    profiles = {}
    for platform, body in _mapping(entries, "profiles").items():
        flags = {"perception": True, **body} if type(body) is dict else {}
        evidence = flags.pop("evidence", None)
        if evidence is not None or not (
            flags.keys() <= _PROFILE_KEYS
            and all(map(isinstance, map(flags.get, _LAYERS), repeat(bool)))
        ):  # any other body is checked key by key, naming its first fault
            what = f"profile for {platform!r}"
            flags = {"perception": True, **_mapping(body, what, _PROFILE_KEYS)}
            evidence = flags.pop("evidence", None)
            for layer in _LAYERS:
                if not isinstance(flags.get(layer), bool):
                    raise ConfigError(f"{what} needs boolean {layer!r}")
            evidence = {} if evidence is None else _mapping(evidence, f"{what}: evidence")
            evidence = {
                key: _utf8(note, f"{what}: evidence for {key!r}") for key, note in evidence.items()
            }
        profiles[platform] = CapabilityProfile(platform=platform, evidence=evidence or {}, **flags)
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
            found = list(compress(column, map(is_not, column, repeat(None))))
            try:
                mean = math.fsum(found) / len(found)
            except OverflowError:  # scaled by 2**-k < 1/n, no partial sum overflows
                k = len(found).bit_length()
                mean = math.fsum(math.ldexp(cell, -k) for cell in found) / len(found) * 2.0**k
            columns[j] = filled = list(column)
            for i in compress(range(len(column)), map(is_, column, repeat(None))):
                filled[i] = mean
    full = FeatureMatrix(matrix.platforms, matrix.features, tuple(zip(*columns)))
    return ResolvedMatrix(matrix=full)
