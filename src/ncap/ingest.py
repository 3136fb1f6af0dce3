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
            for spec, cell in zip(features, row):  # name the first cell that is no finite real
                try:
                    if cell is None or math.isfinite(cell):
                        continue
                    problem = "non-finite value"
                except OverflowError:
                    problem = "value beyond the float range"
                except TypeError:
                    problem = "non-real value"
                raise FormatError(f"{problem} {cell!r} at ({platform!r}, {spec.name!r})")
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
    text = read_utf8(path, ConfigError)
    raw, profiles = _canonical_profiles(text)
    if raw is None:
        try:
            raw = _yaml_value(text)
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

    if profiles is None:
        profiles = _parse_profiles(raw.get("profiles"))
    return EvalConfig(features=features, weights=weights, missing=missing, profiles=profiles)


def _yaml_value(text: str):
    """The value yaml.load gives a text in the line reader's subset of YAML:
    block mappings and sequences, flow collections on one row, plain and
    quoted scalars without escapes or line breaks, and comments, with no key
    repeated in a mapping. Any other text raises a ValueError that names its
    line, column and problem, or only the problem for nesting too deep."""
    # one C-level pass on an accepted config: only a character Python does not
    # print (a tab, a BOM, a break other than "\n", one YAML refuses) costs more
    if not text.replace("\n", "").isprintable():
        text = _BREAKS.sub("\n", text)  # which keeps each line and column
        odd = re.compile(_UNACCEPTABLE).search(text) or _TAB_OR_BOM.search(text)  # YAML's first
        if odd:
            problem = "unacceptable character #x%04x: special characters are not allowed"
            _fail(text, odd.start(), _CONSTRUCTS.get(odd[0], problem % ord(odd[0])))
    gate = text.startswith(("---", "...", "%")) or "\n---" in text or "\n..." in text
    if (gate or "\n%" in text) and (marker := _MARKER.search(text)):
        problem = _CONSTRUCTS.get(marker[0], "ncap does not read a document marker")
        _fail(text, marker.start(), problem)
    reader = _LineReader(text)
    try:
        value = None if reader.row is None else reader.block(reader.row[0])
    except RecursionError:  # a valid config nests four collections deep at most
        raise ValueError("collections nest too deeply") from None
    if reader.row is not None:  # a row that no block above it reads
        reader.misplaced()
    return value


def _fail(text: str, at: int, problem: str):
    """Raise ``problem`` at text[at], placed as YAML places it (BOMs take no column)."""
    start = text.rfind("\n", 0, at) + 1
    line, column = text.count("\n", 0, start) + 1, at - start - text.count("\ufeff", start, at) + 1
    raise ValueError(f"line {line}, column {column}: {problem}")


# YAML's line breaks; the characters it refuses (compiled on first use: 1 ms); two ncap does
_BREAKS = re.compile("\r\n?|[\x85\u2028\u2029]")
_UNACCEPTABLE = "[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x84\x86-\x9f\ud800-\udfff\ufffe\uffff]"
_TAB_OR_BOM = re.compile("[\t\ufeff]")
_MARKER = re.compile(r"^(?:(?:---|\.\.\.)(?= |$)|%)", re.M)
# the problem of a node that starts with one of these characters
_CONSTRUCTS = {char: f"ncap does not read {name}" for char, name in (
    ("&", "an anchor"), ("*", "an alias"), ("!", "a tag"), ("|", "a block scalar"),
    (">", "a block scalar"), ("%", "a directive"), ("?", "a '?' key"), ("\t", "a tab"),
    ("\ufeff", "a byte-order mark"))}

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
_FLOW_PLAIN = re.compile(rf"""{_START}[^,\[\]{{}}#:?'"]*""")
_SPACES = re.compile(" *")
_COMMENT = re.compile(" +#")
_VALUE = re.compile(":(?: |$)")
# the longest key read here, well below the 1024 characters YAML allows one
_KEY_SPAN = 200

# plain scalars the line reader builds: ints and floats as YAML 1.1
# writes them in decimal, its booleans and null in the forms it resolves
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]{0,17})")
_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?")
_WORDS = {
    **dict.fromkeys(("true", "True", "TRUE", "yes", "Yes", "YES", "on", "On", "ON"), True),
    **dict.fromkeys(("false", "False", "FALSE", "no", "No", "NO", "off", "Off", "OFF"), False),
    **dict.fromkeys(("null", "Null", "NULL", "~"), None),
}
# a plain scalar not in _WORDS is text unless it starts with a character
# that keys PyYAML's resolvers for numbers, dates, "<<" and "=" and matches
# _NOT_TEXT, a superset of what they resolve
_RESOLVED = frozenset("-+.0123456789<=")
_NOT_TEXT = re.compile(r"[-+]?(?:0[bx][0-9a-fA-F_]*|\.[iInN][nNaA][fFnN]|[0-9_.:eE+\-tTZ ]*)|<<|=")


# a top-level profiles block in the layout a generator writes: per entry an
# id row, then its three layer flags in order, each row ending in "\n". The
# key's pattern looks at the first id row: a config whose profiles start in
# another layout never compiles the entry patterns, compiled (and cached by
# re) on first use
_PROFILES_KEY = re.compile(r"^profiles:\n(?=  [A-Za-z][A-Za-z0-9_]*:\n)", re.M)
_PROFILE = (
    rf"  ([A-Za-z][A-Za-z0-9_]{{0,{_KEY_SPAN - 1}}}):\n    modeling: (true|false)\n"
    r"    planning: (true|false)\n    execution: (true|false)\n"
)
# the same entries without groups, which match in half the time
_PROFILE_BLOCK = f"(?:{_PROFILE.replace('(', '(?:')})+"


def _canonical_profiles(text: str):
    """(The value the line reader gives the text, with its profiles null, and
    the profiles) when the text's profiles block is in that layout: the block
    is read in one pass, to the values the reader would give it, and the rest
    by the reader. (None, None) for any other text, which is read whole."""
    key = _PROFILES_KEY.search(text)
    block = key and re.compile(_PROFILE_BLOCK).match(text, key.end())
    # the block must end where the entries do: at the end of the text or at
    # a row that starts at column 0 (which no dash, comment or blank row does)
    if not block or text[block.end() : block.end() + 1] in (" ", "#", "-", "\n"):
        return None, None
    entries = re.compile(_PROFILE).findall(text, key.end(), block.end())
    profiles = {
        platform: CapabilityProfile(platform, m == "true", p == "true", e == "true", True, {})
        for platform, m, p, e in entries
    }
    ids = profiles.keys()
    if len(ids) < len(entries) or not ids.isdisjoint(_WORDS):
        return None, None  # a repeated id, or one that YAML reads as no text
    # the key row stays, now with no value: the reader reads it as a key of a
    # top-level mapping, where another profiles key is a repeat, or leaves
    # rows unread; so a text it reads is a mapping with profiles null
    try:
        return _yaml_value(text[: key.end()] + text[block.end() :]), profiles
    except ValueError:  # read whole, so that the error names the file's own line
        return None, None


class _LineReader:
    """One pass of the line reader over a text, a row at a time: ``row`` holds
    the groups of ``match``, the current row's _ROW match (None past the last).
    An indent is its run of spaces; such runs compare as their lengths do."""

    def __init__(self, text: str):
        self.text = text
        self.keys = {}  # each plain key read as text, so that a key met again is one object
        self.matches = _ROW.finditer(text)
        self.advance()

    def advance(self):
        self.match = next(self.matches, None)
        self.row = self.match and self.match.groups()

    def fail(self, problem: str, at: int = 0, group: int = 5):
        """Raise ``problem`` ``at`` characters into the current row's ``group``."""
        _fail(self.text, self.match.start(group) + at, problem)

    def block(self, indent: str):
        """The node whose first row, the current one, sits at ``indent``."""
        _, dashes, key, _, rest = self.row
        if dashes or key or rest[0] not in "[{":
            return self.sequence(indent) if dashes else self.mapping(indent)
        value = self.inline(rest)
        self.advance()
        return value

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
            if inner or key:  # a compact sequence or mapping: the rest is its first row
                self.row = (column, inner, key, colon, rest)
                items.append(self.block(column))
            elif rest and rest[0] != "#":  # a value, not a comment, after the "-"
                items.append(_WORDS[rest] if rest in _WORDS else self.inline(rest))
                self.advance()
            else:
                self.advance()
                items.append(self.nested(indent, False))
        return items

    def mapping(self, indent: str) -> dict:
        out = {}
        while self.row is not None:
            at_indent, dashes, key, colon, rest = self.row
            if at_indent != indent:
                break
            if dashes or not key or key[-1] == " " or len(key) > _KEY_SPAN:
                self.no_key(not out)
            if key[0] == "'" or key[0] == '"':
                key = key[1:-1]
            elif key in self.keys:
                key = self.keys[key]
            elif " #" in key:  # a comment, not a key
                self.no_key(not out)
            else:
                text, key = key, self.scalar(key, 0, 3)
                if type(key) is str:
                    self.keys[text] = key
            if key in out:
                self.fail(f"repeated key {key!r}", 0, 3)
            if rest and rest[0] != "#":
                out[key] = _WORDS[rest] if rest in _WORDS else self.inline(rest)
                self.advance()
            else:
                self.advance()
                out[key] = self.nested(indent, True)
        return out

    def no_key(self, first: bool):
        """Raise the problem of the current row, no "key: value" row (its mapping's ``first``)."""
        if self.row[1]:
            self.fail("expected 'key:', but found '-'", 0, 2)
        group = 3 if self.row[2] else 5
        text = self.text[self.match.start(group) : self.match.end()]
        end = self.quoted(text, 0)[1] if text[0] in "'\"" else 0  # raises for an escape or a break
        colon = _VALUE.search(text[:end] + text[end:].partition(" #")[0], end)
        problem = (  # a key that starts with an indicator, holds ": ", is long or ends in " "
            _CONSTRUCTS.get(text[0])
            or colon and f"ncap does not read the key {text[: colon.start()]!r}"
            or first and "ncap does not read a scalar on a row of its own"  # below a key or "-"
        )
        self.fail(problem or "could not find expected ':'", 0, group)

    def misplaced(self):
        """Raise the problem of the current row, at an indent that no block reads."""
        previous = [None, *_ROW.finditer(self.text, 0, self.match.start())][-1]
        plain = previous and len(self.row[0]) > len(previous[1]) and previous[5][:1] not in "#'\"[{"
        problem = "a scalar over several lines" if plain else "a row at this indent"
        self.fail(f"ncap does not read {problem}", 0, 2)

    def inline(self, text: str):
        """The scalar or flow collection in ``text``, the row's rest, and a comment."""
        text = text.rstrip(" ")
        first = text[0]
        if first in "'\"[{":
            value, end = self.quoted(text, 0) if first in "'\"" else self.flow(text, 0)
            if end < len(text) and not _COMMENT.match(text, end):
                self.fail("ncap does not read text after a quoted scalar or flow collection", end)
            return value
        if first in _INDICATORS and (first != "-" or text[1:2] in _AFTER_DASH):
            self.fail(_CONSTRUCTS.get(first) or f"ncap does not read a value starting {first!r}")
        text = text.partition(" #")[0].rstrip(" ")
        colon = (text + " ").find(": ")  # a ": " or a ":" that ends the value
        if colon >= 0 and self.row[1]:  # after "- ", the key of a compact mapping
            self.fail(f"ncap does not read the key {text[:colon]!r}")
        if colon >= 0:
            self.fail("mapping values are not allowed here", colon)
        return self.scalar(text, 0)

    def quoted(self, text: str, at: int):
        """The quoted scalar at text[at] in the rest of the row, and where it ends."""
        end = text.find(text[at], at + 1)
        if end < 0:
            self.fail("ncap does not read a quoted scalar over several lines", at)
        doubled = end if text.startswith("'", end + 1) else -1  # the one escape of '...'
        escape = text.find("\\", at, end) if text[at] == '"' else doubled
        if escape >= 0:
            self.fail("ncap does not read an escape", escape)
        return text[at + 1 : end], end + 1

    def flow(self, text: str, at: int):
        """The flow sequence or mapping at text[at] of the row's rest, and its end."""
        mapping = text[at] == "{"
        close, items = ("}", {}) if mapping else ("]", [])
        at = _SPACES.match(text, at + 1).end()
        if text.startswith(close, at):
            return items, at + 1
        while True:
            start = at
            value, at = self.flow_node(text, at)
            if mapping:
                if not text.startswith(": ", at):
                    self.flow_fail(text, at)
                if type(value) is list or type(value) is dict or at - start > _KEY_SPAN:
                    self.fail(f"ncap does not read the key {text[start:at].rstrip(' ')!r}", start)
                if value in items:
                    self.fail(f"repeated key {value!r}", start)
                key, at = value, _SPACES.match(text, at + 2).end()
                end = text[at : at + 1] in (",", "}")  # a key with no value
                value, at = (None, at) if end else self.flow_node(text, at)
                items[key] = value
            else:
                items.append(value)
            if text.startswith(close, at):
                return items, at + 1
            if not text.startswith(",", at):
                self.flow_fail(text, at)
            at = _SPACES.match(text, at + 1).end()

    def flow_node(self, text: str, at: int):
        """The node at text[at] inside a flow collection, and where the next token starts."""
        first = text[at : at + 1]
        if first == "[" or first == "{":
            value, at = self.flow(text, at)
        elif first == "'" or first == '"':
            value, at = self.quoted(text, at)
        else:
            plain = _FLOW_PLAIN.match(text, at)
            if plain is None:
                self.flow_fail(text, at)
            value, at = self.scalar(plain[0].rstrip(" "), at), plain.end()
        return value, _SPACES.match(text, at).end()

    def flow_fail(self, text: str, at: int):
        """Raise the problem of text[at], where a flow collection reads no token."""
        if at == len(text) or (text[at] == "#" and text[at - 1] == " "):  # it goes on past its row
            problem = "ncap does not read a flow collection over several lines"
            _fail(self.text, min(self.match.end() + 1, len(self.text)), problem)  # where it goes on
        self.fail(_CONSTRUCTS.get(text[at]) or f"ncap does not read {text[at]!r} in a flow", at)

    def scalar(self, text: str, at: int, group: int = 5):
        """A plain scalar's value as PyYAML builds it; it starts ``at`` in ``group``."""
        if text in _WORDS:
            return _WORDS[text]
        if text[0] not in _RESOLVED:
            return text
        if _INT.fullmatch(text):
            return int(text)
        if _FLOAT.fullmatch(text):
            return float(text)
        if _NOT_TEXT.fullmatch(text):
            problem = f"ncap does not read {text!r} unquoted: quote it, or write a decimal number"
            self.fail(problem, at, group)
        return text


def _text(key, what: str) -> str:
    """A config key, name, unit or note as text: a YAML null, list or mapping is not."""
    if type(key) is str:
        return key
    if key is None:
        raise ConfigError(f"{what} must not be null")
    if isinstance(key, (list, dict)):
        raise ConfigError(f"{what} must not be a {'list' if isinstance(key, list) else 'mapping'}")
    return str(key)


def _mapping(value, what: str, keys=None) -> dict:
    """A config mapping with every key as text (see _text). Raises ConfigError
    when ``value`` is not a mapping, when two keys are the same text, or when
    a key is not one of ``keys`` (any key is allowed when ``keys`` is None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a mapping")
    out = {}
    for key, item in value.items():
        text = _text(key, f"{what}: key")
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
        name = _text(entry["name"], "feature name")
        if name in specs:
            raise ConfigError(f"feature {name!r} is declared more than once")
        unit, encoding = entry.get("unit"), entry.get("encoding")
        if encoding is not None:
            encoding = _mapping(encoding, f"feature {name!r}: encoding")
        specs[name] = FeatureSpec(
            name=name,
            direction=_choice(Direction, entry.get("direction"), f"feature {name!r}: direction"),
            unit="" if unit is None else _text(unit, f"feature {name!r}: unit"),
            encoding=encoding,
        )
    return tuple(specs.values())


def _parse_profiles(entries) -> dict[str, CapabilityProfile]:
    if entries is None:
        return {}
    profiles = {}
    for platform, body in _mapping(entries, "profiles").items():
        what = f"profile for {platform!r}"
        flags = {"perception": True, **_mapping(body, what, _PROFILE_KEYS)}
        evidence = flags.pop("evidence", None)
        for layer in _LAYERS:
            if not isinstance(flags.get(layer), bool):
                raise ConfigError(f"{what} needs boolean {layer!r}")
        evidence = {} if evidence is None else _mapping(evidence, f"{what}: evidence")
        evidence = {
            key: _text(note, f"{what}: evidence for {key!r}") for key, note in evidence.items()
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
