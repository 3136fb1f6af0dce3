"""Command-line interface.

Each subcommand runs the pipeline (parse, score, classify, rank) and
returns its results once, as an Output: a csv header with typed rows,
jsonl objects where their shape differs from the rows, and a table
builder. render() alone knows the formats: 6 decimals in csv and jsonl,
2 in tables, and null in jsonl for a non-finite number.

Given identical inputs and flags every command produces byte-identical
output: main() encodes it as UTF-8 once and writes the same bytes, with
"\\n" line ends, to stdout or --out, whatever the terminal or locale.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .aggregate import METHODS, ScoreTable, WeightVector, score_table
from .errors import ConfigError, FormatError, NcapError
from .geometry import PLOT_HEADER, decimals, distances
from .ingest import (
    EvalConfig,
    MissingValuePolicy,
    csv_rows,
    csv_text,
    load_config,
    parse_feature_matrix,
    read_utf8,
    resolve_missing,
)
from .level import AutonomyLevel, classify
from .ranking import consensus_report, rank_table


class Output(NamedTuple):
    """One command's results, ready for any output format."""

    header: list[str]
    rows: list[list]  # a cell per header column; a column is all str, int, float or bool
    table: Callable[[], str] | None = None  # None: the command has no table format
    jsonl: Callable[[], list[dict]] | None = None  # None: one object per row


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_inputs(args)
        data = render(args.fmt, args.run(args)).encode("utf-8")
        if args.out is not None:
            args.out.write_bytes(data)
        else:
            sys.stdout.flush()  # text already written stays ahead of these bytes
            sys.stdout.buffer.write(data)
    except (NcapError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- commands


def cmd_score(args: argparse.Namespace) -> Output:
    """Score every platform under each requested method, with ranks."""
    scores = _input_scores(args)
    columns, methods = scores.columns, scores.methods
    ranks = rank_table(columns).columns
    return Output(
        header=["platform", "method", "score", "rank"],
        rows=[[p, m, columns[m][p], ranks[m][p]] for m in methods for p in scores.platforms],
        table=lambda: _grid(
            "platform", scores.platforms, methods,
            lambda p, m: f"{decimals(columns[m][p], 2)} ({ranks[m][p]})",
        ),
        jsonl=lambda: [
            {
                "platform": p,
                "scores": {m: columns[m][p] for m in methods},
                "ranks": {m: ranks[m][p] for m in methods},
            }
            for p in scores.platforms
        ],
    )


def cmd_level(args: argparse.Namespace) -> Output:
    """Classify each configured platform's autonomy level."""
    config = load_config(args.config)
    if not config.profiles:
        raise ConfigError("config declares no capability profiles")
    platforms = list(config.profiles)
    if args.matrix is not None:
        platforms = list(parse_feature_matrix(args.matrix, config).platforms)
    levels = _levels_for(platforms, config)
    return Output(
        header=["platform", "level"],
        rows=[[p, levels[p].value] for p in platforms],
        table=lambda: _table(
            ["platform", "level", "notes"],
            [[p, str(levels[p].value), "; ".join(levels[p].warnings)] for p in platforms],
        ),
        jsonl=lambda: [
            {"platform": p, "level": levels[p].value, "warnings": list(levels[p].warnings)}
            for p in platforms
        ],
    )


def cmd_distance(args: argparse.Namespace) -> Output:
    """Absolute and reference-relative autonomy distances per method."""
    scores, levels = _scores_and_levels(args)
    reports = {
        m: distances(m, scores.platforms, levels, column.values())
        for m, column in scores.columns.items()
    }
    return Output(
        header=["platform", "method", "absolute", "relative", "is_reference"],
        rows=[
            [p, m, report.absolute[p], report.relative[p], p == report.reference]
            for m, report in reports.items()
            for p in scores.platforms
        ],
        table=lambda: (
            _table(["method", "reference"], [[m, r.reference] for m, r in reports.items()])
            + "\nrelative autonomy distance to the reference:\n"
            + _grid(
                "platform", scores.platforms, scores.methods,
                lambda p, m: decimals(reports[m].relative[p], 2),
            )
        ),
    )


def cmd_plotdata(args: argparse.Namespace) -> Output:
    """Export <level, performance> coordinates for external plotting."""
    scores, levels = _scores_and_levels(args)
    return Output(
        header=PLOT_HEADER.split(","),
        rows=[
            [p, m, x, y]
            for m, column in scores.columns.items()
            for p, x, y in zip(scores.platforms, levels, column.values())
        ],
    )


def cmd_compare(args: argparse.Namespace) -> Output:
    """Cross-method rank agreement: tau-b matrix and unanimity flags."""
    stats = consensus_report(rank_table(_input_scores(args).columns))
    methods = stats.methods
    header = ["method_a", "method_b", "tau"]
    rows = [[a, b, stats.tau[(a, b)]] for a in methods for b in methods]

    def table() -> str:
        out = _grid("tau", methods, methods, lambda a, b: decimals(stats.tau[(a, b)], 2))
        if not stats.unanimous:
            return out + "unanimous ranks: none\n"
        lines = [f"  rank {r}: {', '.join(ps)}\n" for r, ps in sorted(stats.unanimous.items())]
        return out + "unanimous ranks:\n" + "".join(lines)

    return Output(
        header=header,
        rows=rows,
        table=table,
        jsonl=lambda: [
            *(dict(zip(header, row)) for row in rows),
            {"unanimous": {str(r): list(ps) for r, ps in stats.unanimous.items()}},
        ],
    )


# ---------------------------------------------------------------- pipeline


def _input_scores(args: argparse.Namespace, config: EvalConfig | None = None) -> ScoreTable:
    """The --scores file if one is given, else the matrix scored under the config."""
    if args.scores is not None:
        return _load_score_csv(args.scores, args.methods)
    if config is None:
        config = load_config(args.config)
    matrix = parse_feature_matrix(args.matrix, config)
    policy = MissingValuePolicy(args.missing or config.missing or "error")
    resolved = resolve_missing(matrix, policy)
    if args.weights == "config":
        if config.weights is None:
            raise ConfigError("--weights config requested but the config has no weights")
        weights = WeightVector.user_defined(
            [config.weights[name] for name in matrix.feature_names]
        )
    else:
        weights = WeightVector.uniform(len(matrix.features))
    return score_table(resolved, weights, args.methods)


def _load_score_csv(path: Path, methods: tuple[str, ...]) -> ScoreTable:
    """Read a score table back from cmd_score's csv output (or any file
    with platform,method,score columns)."""
    rows = csv_rows(read_utf8(path, FormatError))
    _, header = next(rows, (1, []))
    if not {"platform", "method", "score"}.issubset(header):
        raise FormatError(f"score file {path} must have columns platform,method,score")
    for name in ("platform", "method", "score"):
        if header.count(name) > 1:
            raise FormatError(f"score file {path}: column {name!r} appears more than once")
    at = [header.index(name) for name in ("platform", "method", "score")]
    platforms: dict[str, None] = {}  # insertion-ordered set
    columns: dict[str, dict[str, float]] = {m: {} for m in methods}
    for line, cells in rows:
        platform, method, score = (cells[i] for i in at)
        if not platform:
            raise FormatError(f"score file {path}, line {line}: empty platform id")
        if method not in columns:
            continue
        if platform in columns[method]:
            raise FormatError(
                f"score file {path}, line {line}: duplicate row for ({platform!r}, {method!r})"
            )
        platforms[platform] = None
        try:
            columns[method][platform] = float(score)
        except ValueError:
            raise FormatError(
                f"score file {path}, line {line}: bad score {score!r} "
                f"for ({platform!r}, {method!r})"
            ) from None
    if not platforms:
        raise FormatError(f"score file {path} has no scores for {','.join(methods)}")
    for method, column in columns.items():
        if column.keys() != platforms.keys():
            raise FormatError(f"score file {path} has no complete {method!r} column")
    ordered = {m: {p: columns[m][p] for p in platforms} for m in methods}
    return ScoreTable(platforms=tuple(platforms), columns=ordered)


def _levels_for(platforms: list[str], config: EvalConfig) -> dict[str, AutonomyLevel]:
    levels = {}
    for platform in platforms:
        profile = config.profiles.get(platform)
        if profile is None:
            raise ConfigError(f"no capability profile for platform {platform!r}")
        levels[platform] = classify(profile)
    return levels


def _scores_and_levels(args: argparse.Namespace) -> tuple[ScoreTable, list[float]]:
    """The input scores and each platform's autonomy level, in platform order."""
    config = load_config(args.config)
    scores = _input_scores(args, config)
    levels = _levels_for(list(scores.platforms), config)
    return scores, [float(levels[p].value) for p in scores.platforms]


# ---------------------------------------------------------------- rendering


def render(fmt: str, output: Output) -> str:
    """Format a command's Output as table, csv or jsonl text."""
    if fmt == "table":
        return output.table()
    if fmt == "csv":
        return csv_text(output.header, zip(*map(_csv_column, zip(*output.rows))))
    rows = (dict(zip(output.header, row)) for row in output.rows)
    objects = output.jsonl() if output.jsonl else rows
    return "".join(
        json.dumps(_json_value(obj), sort_keys=True, allow_nan=False) + "\n"
        for obj in objects
    )


def _csv_column(column: tuple) -> Iterable:
    """One output column as csv cells: floats to 6 decimals, booleans as 1 or 0."""
    kind = type(column[0])
    if kind is float:
        return map(decimals, column, repeat(6))
    return map(int, column) if kind is bool else column


def _json_value(value):
    """Floats rounded to 6 decimals, non-finite ones as null, also inside dicts."""
    if isinstance(value, float):
        return float(decimals(value, 6)) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    return value


def _grid(corner: str, keys, columns, cell: Callable[[str, str], str]) -> str:
    """A table with a row per key and a column per column name."""
    return _table([corner, *columns], [[k] + [cell(k, c) for c in columns] for k in keys])


def _table(header: list[str], body: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, the header as the first row."""
    rows = [header, *body]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )


# ---------------------------------------------------------------- argparse


def _methods_arg(value: str) -> tuple[str, ...]:
    tokens = tuple(token.strip() for token in value.split(",") if token.strip())
    bad = [t for t in tokens if t not in METHODS]
    if bad or not tokens:
        raise argparse.ArgumentTypeError(
            f"methods must be a comma-separated subset of {','.join(METHODS)}"
        )
    repeated = sorted({t for t in tokens if tokens.count(t) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"methods named more than once: {','.join(repeated)}")
    return tokens


# name, function, help, whether --matrix is required, has --scores, has --format
_SUBCOMMANDS = (
    ("score", cmd_score, "component-performance scores with ranks", True, False, True),
    ("level", cmd_level, "autonomy levels from capability profiles", False, False, True),
    ("distance", cmd_distance, "absolute and relative autonomy distances", False, True, True),
    ("plotdata", cmd_plotdata, "autonomy-coordinate CSV export", False, True, False),
    ("compare", cmd_compare, "cross-method rank agreement", False, True, True),
)


# built once: a parser is about 340 objects in reference cycles, the only
# garbage main() would otherwise leave for the cyclic collector
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncap",
        description="Score, rank, and compare platform autonomy from feature data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text, matrix_required, scores, fmt in _SUBCOMMANDS:
        sub = subs.add_parser(name, help=help_text)
        # scores and fmt for commands without those flags; an option's own default wins
        sub.set_defaults(run=run, scores=None, fmt="csv")
        sub.add_argument("--matrix", type=Path, required=matrix_required,
                         help="feature matrix CSV (platform rows, feature columns)")
        if scores:
            sub.add_argument("--scores", type=Path,
                             help="precomputed score CSV (as emitted by 'score --format csv')")
        sub.add_argument("--config", type=Path, help="evaluation config YAML")
        sub.add_argument("--methods", type=_methods_arg, default=METHODS,
                         help=f"comma-separated combination methods (default {','.join(METHODS)})")
        sub.add_argument("--weights", choices=("uniform", "config"), default="uniform",
                         help="uniform 1/N weights or the config's weight vector")
        sub.add_argument("--missing", choices=tuple(p.value for p in MissingValuePolicy),
                         help="missing-value policy (default: config setting, else error)")
        if fmt:
            sub.add_argument("--format", dest="fmt", choices=("table", "csv", "jsonl"),
                             default="table", help="output format")
        sub.add_argument("--out", type=Path, help="write output to a file instead of stdout")
    return parser


def _check_inputs(args: argparse.Namespace) -> None:
    """Cross-flag requirements argparse cannot express, and input files exist."""
    command = args.command
    # level reads its platforms from the config; score's --matrix is required
    if command != "level" and args.matrix is None and args.scores is None:
        raise ConfigError(f"{command} needs --matrix or --scores")
    if command in ("score", "level", "distance", "plotdata") and args.config is None:
        raise ConfigError(f"{command} needs --config")
    if command == "compare" and args.scores is None and args.config is None:
        raise ConfigError("compare needs --config when scoring from a matrix")
    for path in (args.matrix, args.scores, args.config):
        if path is not None and not path.is_file():
            raise ConfigError(f"input file not found: {path}")


if __name__ == "__main__":
    sys.exit(main())
