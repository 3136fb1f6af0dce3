#!/usr/bin/env python3
"""Benchmark for ncap: cold CLI processes, warm in-process pipeline passes,
and per-layer timings from spans recorded around ncap's public functions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS below, or ``all`` to run each in turn with tracing
off and then on. With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it records spans around each layer's public
functions and reports per-layer self times, counts and the tracing
overhead. Every metric
is printed by name with its unit; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 1 when an operation fails or an output check fails, and 2 when the
ncap sources are not next to this directory.

The load is a closed loop with one client in one process: at most one ncap
child process is alive at a time, and each operation starts when the
previous one has ended. Inputs are generated from the seed into
``.bench_work/`` at the repository root; the program sees only those files
(or, for uas7-cli, the bundled ``data/`` files). Cold processes and warm
in-process passes of the command mix alternate over the whole run, the
next operation being a warm pass while warm passes hold less than the
workload's ``warm_share`` of the time spent so far; cold processes cycle
through the mix, and each warm pass runs it, in orders drawn from the seed.

The warm metrics are scaled to a reference machine speed, measured by a
fixed calibration loop that runs between the operations; see
``CALIBRATION_REF_S``.

Outputs are checked outside the timed region: every output must equal the
warm-up pass's output for the same command, and those are checked once at
the end, against ``golden/uas7-cli/`` (captured when the benchmark was
added) or, for cohorts, against the independent oracles in ``oracles.py``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
GOLDEN = BENCH / "golden"
WORK = ROOT / ".bench_work"

# keep the benchmark directory free of bytecode caches
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
from cohort import CohortSpec, generate  # noqa: E402
from spans import Tracer  # noqa: E402

sys.dont_write_bytecode = False

COMMANDS = ("score", "level", "distance", "plotdata", "compare")
FORMATS = ("table", "csv", "jsonl")
METHODS = ("max", "sum", "map", "zsc", "product")
NORMALIZATIONS = ("max", "sum", "map", "zsc")
STARTUP_SAMPLES = 3
# with tracing off, set-up (input generation and warm-up pass) runs this many
# times and setup_s reports the median
SETUP_REPEATS = 3

_INGEST = ("ingest.load_config", "ingest.parse", "ingest.resolve")
_SCORE = tuple(f"aggregate.score_{m}" for m in METHODS)
# the traced stages each command runs, mirroring ncap.cli
COMMAND_STAGES = {
    "score": _INGEST + _SCORE + ("ranking.rank",),
    "compare": _INGEST + _SCORE + ("ranking.rank", "ranking.consensus"),
    "distance": _INGEST + _SCORE + ("level.classify", "geometry.distance"),
    "plotdata": _INGEST + _SCORE + ("level.classify", "geometry.plotdata"),
    "level": ("ingest.load_config", "level.classify"),
}

END_TO_END_UNITS = {
    "cli_wall_s_p50": "s",
    "cli_peak_rss_mb": "MB",
    "pipeline_s_p50": "s",
    "platforms_per_s": "1/s",
    "setup_s": "s",
}
# printed with the end-to-end metrics but left out of the result line: a run
# holds 5-17 cold processes, too few for a percentile above the median with
# ten samples beyond it, and their maximum spreads too much between runs of
# the same code to be held to a bound
PRINTED_ONLY_UNITS = {"cli_wall_s_tail": "s"}
# Warm passes are pure Python in this process, so their time follows the
# speed the shared host gives the process, which drifts by up to ~25%
# between runs a minute apart. A fixed pure-Python loop runs between the
# operations for CALIBRATION_SHARE of the run, and pipeline_s_p50 and
# platforms_per_s are scaled by CALIBRATION_REF_S / (the loop's mean time
# over the run): they are the figures at the speed at which the loop takes
# CALIBRATION_REF_S. The mean, not the median, because a pass lasts long
# enough to average the host's short slowdowns in, and so does the mean.
# The figures as timed are printed next to them. Cold processes, RSS and
# set-up are reported as measured.
CALIBRATION_REF_S = 0.010
CALIBRATION_SHARE = 0.1
COUNTS = (
    "ingest.cells",
    "ingest.missing_cells",
    "ingest.profiles",
    "aggregate.renormalized_platforms",
    "ranking.tie_groups",
    "ranking.tau_undefined",
    "ranking.unanimous_ranks",
    "level.warnings",
)
SPAN_METRICS = (
    ("startup.import_ncap",)
    + _INGEST
    + tuple(f"normalize.{m}" for m in NORMALIZATIONS)
    + _SCORE
    + ("ranking.rank", "ranking.tau", "ranking.consensus")
    + ("level.classify", "geometry.distance", "geometry.plotdata")
    + tuple(f"cli.main_{c}" for c in COMMANDS)
)
DERIVED_TIMES = (
    "startup.import_ranking_s",
    "startup.import_ingest_s",
    "cli.render_s",
    "trace.overhead_s",
)
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **{name: "s" for name in DERIVED_TIMES},
    **{name: "count" for name in COUNTS},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    weights: str  # "uniform" | "config"
    missing: str  # "mean" | "exclude"
    mix: tuple[tuple[str, str | None], ...]  # (command, format) of one pass
    cohort: CohortSpec | None = None  # None: the bundled data/ benchmark
    # share of the measured time given to warm passes; the rest goes to cold
    # processes. It is set so that each kind gets enough samples for a
    # steady median. On the cohorts a cold process takes 2-2.8 s and a warm
    # pass 1.3-1.7 s: 0.6 gives 5-7 cold processes and 11-16 warm passes in 35 s
    warm_share: float = 0.6

    def flags(self) -> list[str]:
        return ["--weights", self.weights, "--missing", self.missing]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uas7-cli",
            # stresses startup: imports are ~90% of every command here
            why=(
                "Bundled 7-platform data, all five commands in three formats, cold: "
                "startup is ~90% of each command, so import and startup changes show "
                "here and nowhere else."
            ),
            weights="config",
            missing="mean",
            mix=tuple((c, f) for c in COMMANDS if c != "plotdata" for f in FORMATS)
            + (("plotdata", None),),
            # a cold process takes 1.4-1.7 s and a warm pass ~0.2 s: 0.3 gives
            # 13-15 cold processes and 45-50 warm passes in 35 s
            warm_share=0.3,
        ),
        Workload(
            name="cohort-tall",
            # stresses ranking (quadratic rank and consensus) and the YAML load of
            # 700 profiles; integer features and 2% duplicated rows make ties.
            # n=700, not 2000: at 2000 one warm pass takes ~7 s and at 1000 ~2.5 s,
            # so a run holds too few samples for its median to be steady on a
            # 2-CPU machine; at 700 ranking is still about half of a pass
            why=(
                "n=700 m=20, dense ties, 5% missing under mean, token column, config "
                "weights, 700 profiles: quadratic rank, tau-b consensus and YAML "
                "config load dominate."
            ),
            weights="config",
            missing="mean",
            mix=(("score", "csv"), ("compare", "csv")),
            cohort=CohortSpec(
                n=700,
                m=20,
                missing="mean",
                missing_frac=0.05,
                integer_max=50,
                token_column=True,
                config_weights=True,
                duplicate_frac=0.02,
            ),
        ),
        Workload(
            name="cohort-wide-exclude",
            # stresses ingest and aggregate on the exclude path (presence mask,
            # per-platform weight renormalization), where cohort-tall takes mean-fill
            why=(
                "n=300 m=300, continuous values, 10% missing under exclude, uniform "
                "weights: parse, presence mask and weight renormalization dominate; "
                "ranking is small."
            ),
            weights="uniform",
            missing="exclude",
            mix=(("score", "csv"), ("distance", "csv")),
            cohort=CohortSpec(n=300, m=300, missing="exclude", missing_frac=0.10),
        ),
    )
}


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Inputs:
    matrix: Path
    config: Path
    n: int


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's input files; uas7-cli uses the bundled ones."""
    if workload.cohort is None:
        matrix, config = DATA / "uas_features.csv", DATA / "uas_config.yaml"
    else:
        matrix_csv, config_yaml = generate(workload.cohort, seed)
        matrix, config = workdir / "matrix.csv", workdir / "config.yaml"
        matrix.write_text(matrix_csv, encoding="utf-8")
        config.write_text(config_yaml, encoding="utf-8")
    rows = matrix.read_text(encoding="utf-8").splitlines()[1:]
    return Inputs(matrix=matrix, config=config, n=sum(1 for row in rows if row))


def extra_commands(workload: Workload) -> list[tuple[str, str | None]]:
    """The commands a pass does not run, in csv; the traced run times these
    too, so that every cli.main_* metric exists on every workload."""
    in_mix = {command for command, _ in workload.mix}
    return [(c, None if c == "plotdata" else "csv") for c in COMMANDS if c not in in_mix]


def label(command: str, fmt: str | None) -> str:
    return f"{command}-{fmt or 'csv'}"


def command_args(
    workload: Workload, inputs: Inputs, command: str, fmt: str | None, out: Path
) -> list[str]:
    args = [command]
    if command != "level":
        args += ["--matrix", str(inputs.matrix)]
    args += ["--config", str(inputs.config), *workload.flags()]
    if fmt is not None:
        args += ["--format", fmt]
    return args + ["--out", str(out)]


# ---------------------------------------------------------------- operations


class Runner:
    """Runs cold and warm operations and checks each output against the
    output of the same operation in the warm-up pass (the reference); the
    references themselves are checked once, at the end, by ``verify``."""

    def __init__(self, workload: Workload, inputs: Inputs, workdir: Path, cli):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.cli = cli
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.references: dict[str, bytes] = {}
        self.ops: list[tuple[str, bool]] = []
        self.problems: list[str] = []
        self._expected = None  # (library scores, oracle levels), built on first check

    def _args(self, command: str, fmt: str | None) -> tuple[str, list[str], Path]:
        key = label(command, fmt)
        out = self.workdir / f"{key}.out"
        out.unlink(missing_ok=True)
        return key, command_args(self.workload, self.inputs, command, fmt, out), out

    def _record(self, key: str, ok: bool, out: Path, detail: str) -> None:
        if ok:
            produced = out.read_bytes()
            if key not in self.references:
                self.references[key] = produced
            elif produced != self.references[key]:
                ok, detail = False, "output differs from the warm-up output"
        if not ok:
            self.problems.append(f"{key}: {detail}")
        self.ops.append((key, ok))

    def cold(self, command: str, fmt: str | None) -> float:
        """One `python -m ncap.cli` process; returns its wall time."""
        key, args, out = self._args(command, fmt)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ncap.cli", *args],
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        elapsed = time.perf_counter() - start
        detail = f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"
        self._record(key, proc.returncode == 0, out, detail)
        return elapsed

    def warm(self, command: str, fmt: str | None, span=None) -> float:
        """One in-process `ncap.cli.main` call; returns its time."""
        key, args, out = self._args(command, fmt)
        detail = ""
        with span or nullcontext():
            start = time.perf_counter()
            try:
                code = self.cli.main(args)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed operation
                code, detail = -1, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self._record(key, code == 0, out, detail or f"exit {code}")
        return elapsed

    def startup(self, tracer: Tracer) -> dict[str, float]:
        """A fresh `import ncap` (timed as a span) and one under -X importtime;
        returns cumulative import seconds per module."""
        with tracer.span("startup.import_ncap"):
            proc = subprocess.run(
                [sys.executable, "-c", "import ncap"], env=self.env, stdin=subprocess.DEVNULL
            )
        self._startup_op("import", proc.returncode)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ncap"],
            env=self.env,
            stdin=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._startup_op("importtime", proc.returncode)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:") :].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e6
        return cumulative

    def _startup_op(self, what: str, code: int) -> None:
        if code != 0:
            self.problems.append(f"startup {what}: exit {code}")
        self.ops.append((f"startup-{what}", code == 0))

    def verify(self, ncap) -> None:
        """Check each reference output: golden bytes for the bundled
        benchmark, the oracles in ``oracles`` for cohorts. Every operation
        of a command whose reference is wrong counts as failed."""
        bad = set()
        for key, produced in self.references.items():
            problems = self._check(ncap, key, produced)
            if problems:
                bad.add(key)
                self.problems += [f"{key}: {p}" for p in problems[:5]]
        self.ops = [(key, ok and key not in bad) for key, ok in self.ops]

    def _check(self, ncap, key: str, produced: bytes) -> list[str]:
        if self.workload.cohort is None:
            golden = GOLDEN / self.workload.name / f"{key}.txt"
            return [] if produced == golden.read_bytes() else [f"differs from {golden.name}"]
        if self._expected is None:
            config, _, resolved, weights = prepare(ncap, self.workload, self.inputs)
            table = ncap.score_table(resolved, weights, METHODS)
            levels = {
                p: oracles.autonomy_level(c.modeling, c.planning, c.execution)
                for p, c in config.profiles.items()
            }
            self._expected = {m: dict(table.columns[m]) for m in METHODS}, levels
        scores, levels = self._expected
        text = produced.decode("utf-8")
        command = key.split("-")[0]
        if command == "score":
            return oracles.check_score_csv(text, scores)
        if command == "compare":
            return oracles.check_compare_csv(text, scores)
        if command == "distance":
            return oracles.check_distance_csv(text, scores, levels)
        if command == "plotdata":
            return oracles.check_plotdata_csv(text, scores, levels)
        return oracles.check_level_csv(text, levels)

    def counts(self) -> tuple[int, int]:
        return len(self.ops), sum(1 for _, ok in self.ops if not ok)


def prepare(ncap, workload: Workload, inputs: Inputs, span=None):
    """Config, matrix, resolved matrix and weights, as ncap.cli builds them."""
    span = span or (lambda name: nullcontext())
    with span("ingest.load_config"):
        config = ncap.load_config(inputs.config)
    with span("ingest.parse"):
        matrix = ncap.parse_feature_matrix(inputs.matrix, config)
    with span("ingest.resolve"):
        resolved = ncap.resolve_missing(matrix, ncap.MissingValuePolicy(workload.missing))
    if workload.weights == "config":
        weights = ncap.WeightVector.user_defined(
            [config.weights[name] for name in matrix.feature_names]
        )
    else:
        weights = ncap.WeightVector.uniform(len(matrix.features))
    return config, matrix, resolved, weights


def traced_stages(ncap, workload: Workload, inputs: Inputs, tracer: Tracer) -> dict[str, int]:
    """Call each layer's public functions under spans; return the layer counts."""
    span = tracer.span
    with span("ingest"):
        config, matrix, resolved, weights = prepare(ncap, workload, inputs, span)
    values, present = resolved.matrix.values, resolved.present
    columns = range(len(matrix.features))
    with span("normalize"):
        for name in NORMALIZATIONS:
            method = ncap.NormalizationMethod(name)
            with span(f"normalize.{name}"):
                for j in columns:
                    ncap.normalize([row[j] for row, ok in zip(values, present) if ok[j]], method)
    scores = {}
    with span("aggregate"):
        for name in METHODS:
            with span(f"aggregate.score_{name}"):
                if name == "product":
                    scores[name] = ncap.weighted_product(resolved.matrix, weights, present)
                else:
                    scores[name] = ncap.weighted_sum(
                        resolved.matrix, weights, ncap.NormalizationMethod(name), present
                    )
    with span("ranking"):
        with span("ranking.rank"):
            ranks = ncap.rank_table(scores)
        with span("ranking.tau"):
            taus = [
                ncap.kendall_tau(ranks.columns[a], ranks.columns[b])
                for i, a in enumerate(METHODS)
                for b in METHODS[i + 1 :]
            ]
        with span("ranking.consensus"):
            agreement = ncap.consensus_report(ranks)
    with span("level"):
        with span("level.classify"):
            levels = {p: ncap.classify(profile) for p, profile in config.profiles.items()}
    with span("geometry"):
        with span("geometry.distance"):
            for name in METHODS:
                ncap.distance_report(_coordinates(ncap, scores[name], levels, name))
        with span("geometry.plotdata"):
            ncap.coordinate_plot_data(
                c for name in METHODS for c in _coordinates(ncap, scores[name], levels, name)
            )
    return {
        "ingest.cells": len(matrix.platforms) * len(matrix.features),
        "ingest.missing_cells": len(matrix.missing_cells()),
        "ingest.profiles": len(config.profiles),
        "aggregate.renormalized_platforms": sum(1 for row in present if not all(row)),
        "ranking.tie_groups": sum(len(groups) for groups in ranks.tie_groups.values()),
        "ranking.tau_undefined": sum(1 for t in taus if math.isnan(t)),
        "ranking.unanimous_ranks": len(agreement.unanimous),
        "level.warnings": sum(len(level.warnings) for level in levels.values()),
    }


def _coordinates(ncap, column, levels, method):
    return [
        ncap.NcapCoordinate(platform=p, x=float(levels[p].value), y=score, method=method)
        for p, score in column.items()
    ]


# ---------------------------------------------------------------- measuring


def keep_going(started: float, iterations: int, last: float, seconds: float) -> bool:
    """Start another iteration only if it should end before the deadline."""
    return iterations == 0 or time.perf_counter() - started + last <= seconds


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile is under the median, so the maximum
    is reported instead, and the description says so."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        note = f"maximum of {n} samples (under 21, no percentile above p50 has ten beyond it)"
        return ordered[-1], note
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} samples, ten beyond it"


def interquartile(samples: list[float]) -> list[float]:
    """The middle half of the samples, or all of them when fewer than four."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return ordered[cut : len(ordered) - cut]


def calibration_loop() -> float:
    """Time one run of a fixed pure-Python loop of dict, str and int work."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(25_000):
        key = str(i % 997)
        table[key] = table.get(key, 0) + i * i % 7
    sorted(table.items())
    return time.perf_counter() - start


def measure_end_to_end(runner: Runner, workload: Workload, rng, seconds: float, n: int) -> dict:
    """Alternate cold processes and warm passes until the deadline, giving
    warm passes ``workload.warm_share`` of the time; at least one of each.
    Before each operation the calibration loop runs until it has taken
    ``CALIBRATION_SHARE`` of the time the operations have taken so far."""
    mix = list(workload.mix)
    cli_samples: list[float] = []
    passes: list[float] = []
    calibrations: list[float] = []
    cold_queue: list[tuple[str, str | None]] = []
    started = time.perf_counter()
    while True:
        spent_cold, spent_warm = sum(cli_samples), sum(passes)
        warm_turn = spent_warm < workload.warm_share * (spent_cold + spent_warm)
        if cli_samples and passes:
            expected = statistics.median(passes if warm_turn else cli_samples)
            if time.perf_counter() - started + expected * (1 + CALIBRATION_SHARE) > seconds:
                break
        while not calibrations or sum(calibrations) < CALIBRATION_SHARE * (spent_cold + spent_warm):
            calibrations.append(calibration_loop())
        if warm_turn:
            passes.append(sum(runner.warm(c, f) for c, f in rng.sample(mix, len(mix))))
        else:
            if not cold_queue:
                cold_queue = rng.sample(mix, len(mix))
            cli_samples.append(runner.cold(*cold_queue.pop()))
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    tail_value, tail_note = tail(cli_samples)
    middle = interquartile(passes)
    calibration = statistics.mean(calibrations)
    scale = CALIBRATION_REF_S / calibration
    pipeline = statistics.median(passes)
    scaled = (
        f"scaled by {scale:.4f} to reference speed (calibration loop mean "
        f"{calibration:.6f} s over {len(calibrations)} runs, reference {CALIBRATION_REF_S} s)"
    )
    return {
        "metrics": {
            "cli_wall_s_p50": statistics.median(cli_samples),
            "cli_wall_s_tail": tail_value,
            "cli_peak_rss_mb": rss_mb,
            "pipeline_s_p50": pipeline * scale,
            "platforms_per_s": n * len(middle) / (sum(middle) * scale),
        },
        "notes": {
            "cli_wall_s_p50": f"median of {len(cli_samples)} cold processes",
            "cli_wall_s_tail": tail_note,
            "cli_peak_rss_mb": "largest peak RSS of the reaped ncap processes",
            "pipeline_s_p50": (
                f"median of {len(passes)} warm passes of {len(mix)} commands, "
                f"{pipeline:.6f} s as timed, {scaled}"
            ),
            "platforms_per_s": (
                f"{n} platforms x {len(middle)} passes / {sum(middle):.4f} s as timed, "
                f"over the middle half of {len(passes)} passes by time, {scaled}"
            ),
        },
    }


def measure_per_layer(ncap, runner: Runner, workload, inputs, rng, seconds, tracer) -> dict:
    mix, extras = list(workload.mix), extra_commands(workload)
    started = time.perf_counter()
    imports = []
    for k in range(STARTUP_SAMPLES):
        tracer.iteration = f"startup-{k}"
        imports.append(runner.startup(tracer))
    untraced, traced, renders, counts = [], [], [], []
    iterations, last = 0, 0.0
    while keep_going(started, iterations, last, seconds):
        begun = time.perf_counter()
        tracer.iteration = iterations
        order = rng.sample(mix, len(mix))
        with tracer.span("iteration"):
            untraced.append(sum(runner.warm(c, f) for c, f in order))
            with tracer.span("stages"):
                counts.append(traced_stages(ncap, workload, inputs, tracer))
            with tracer.span("cli"):
                mains = [(c, runner.warm(c, f, tracer.span(f"cli.main_{c}"))) for c, f in order]
                for c, f in extras:
                    runner.warm(c, f, tracer.span(f"cli.main_{c}"))
        stage_time = tracer.durations(iterations)
        traced.append(sum(t for _, t in mains))
        renders.append(
            sum(t - sum(stage_time[s] for s in COMMAND_STAGES[c]) for c, t in mains)
        )
        last, iterations = time.perf_counter() - begun, iterations + 1
    if any(c != counts[0] for c in counts):
        runner.problems.append(f"layer counts differ between iterations: {counts}")
        runner.ops.append(("counts", False))
    self_times = tracer.self_times()
    metrics = {
        f"{name}_s": statistics.median(self_times[name]) for name in SPAN_METRICS
    }
    # a module that `import ncap` does not load costs it nothing
    for module, name in (("ncap.ranking", "startup.import_ranking_s"), ("ncap.ingest", "startup.import_ingest_s")):
        metrics[name] = statistics.median(i.get(module, 0.0) for i in imports)
    metrics["cli.render_s"] = statistics.median(renders)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics.update(counts[0])
    return {
        "metrics": metrics,
        "notes": {
            "trace.overhead_s": (
                f"median traced minus median untraced warm pass, {iterations} of each "
                f"(untraced {statistics.median(untraced):.4f} s)"
            ),
            "cli.render_s": "warm main time minus its traced stages, summed over one pass",
            **{
                f"cli.main_{c}_s": f"{n} call(s) per pass"
                for c, n in Counter(c for c, _ in mix + extras).items()
            },
        },
        "self_times": {
            name: statistics.median(values) for name, values in sorted(self_times.items())
        },
    }


# ---------------------------------------------------------------- main


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    workdir = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    sys.path.insert(0, str(SRC))
    import ncap
    import ncap.cli

    if not Path(ncap.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ncap from {ncap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    imported = time.perf_counter() - T_START
    mix, extras = list(workload.mix), extra_commands(workload)
    repeats, generated = [], set()
    for _ in range(1 if trace else SETUP_REPEATS):  # setup_s is reported with trace off
        begun = time.perf_counter()
        inputs = make_inputs(workload, seed, workdir)
        if not repeats:
            runner = Runner(workload, inputs, workdir, ncap.cli)
        for command, fmt in mix + (extras if trace else []):  # untimed warm-up pass
            runner.warm(command, fmt)
        repeats.append(time.perf_counter() - begun)
        generated.add(inputs.matrix.read_bytes() + inputs.config.read_bytes())
    if len(generated) != 1:
        runner.problems.append("the generator wrote different inputs for one seed")
        runner.ops.append(("generate", False))
    setup_s = imported + statistics.median(repeats)
    rng = random.Random(seed)

    if trace:
        tracer = Tracer()
        result = measure_per_layer(ncap, runner, workload, inputs, rng, seconds, tracer)
        tracer.write(WORK / "spans" / f"{workload.name}-seed{seed}.jsonl")
        units = PER_LAYER_UNITS
    else:
        result = measure_end_to_end(runner, workload, rng, seconds, inputs.n)
        result["metrics"]["setup_s"] = setup_s
        result["notes"]["setup_s"] = (
            f"import {imported:.4f} s + median of {SETUP_REPEATS} x "
            "(input generation and one warm-up pass)"
        )
        units = END_TO_END_UNITS
    runner.verify(ncap)
    attempted, failed = runner.counts()

    print(f"workload {workload.name}  seed {seed}  n={inputs.n}  trace={int(trace)}")
    for name, value in result.get("self_times", {}).items():
        print(f"  self {name:<32} {value:.6f} s")
    for name, unit in (units if trace else {**units, **PRINTED_ONLY_UNITS}).items():
        note = result["notes"].get(name)
        suffix = f"  ({note})" if note else ""
        print(f"  {name:<34} {result['metrics'][name]:.6g} {unit}{suffix}")
    ratio = failed / attempted
    print(f"  {'ops_failed_ratio':<34} {ratio:.6g} ratio  ({failed} of {attempted} operations)")
    for problem in runner.problems[:20]:
        print(f"  FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload with tracing off and then on, each in its own
    process, one after another."""
    code = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", trace],
            )
            code = max(code, proc.returncode)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [SRC / "ncap" / "cli.py", DATA / "uas_features.csv", DATA / "uas_config.yaml"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: ncap sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
