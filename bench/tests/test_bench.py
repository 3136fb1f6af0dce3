"""Tests for the benchmark itself: generator determinism, output checks,
and the span tree. Run with ``python -m pytest bench/tests``."""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from cohort import CohortSpec, generate  # noqa: E402
from spans import Tracer  # noqa: E402

import ncap  # noqa: E402
from ncap.cli import main  # noqa: E402

SMALL = CohortSpec(
    n=40,
    m=5,
    missing="mean",
    missing_frac=0.1,
    integer_max=6,
    token_column=True,
    config_weights=True,
    duplicate_frac=0.2,
    gap_frac=0.2,
)


# ---------------------------------------------------------------- generator


def test_generator_same_seed_same_bytes():
    assert generate(SMALL, 7) == generate(SMALL, 7)
    assert generate(SMALL, 7) != generate(SMALL, 8)


def test_generator_bytes_are_pinned():
    """The workloads' inputs must not drift between commits: a change to
    the generator changes the benchmark and must update this digest."""
    matrix, config = generate(SMALL, 7)
    digest = hashlib.sha256((matrix + config).encode()).hexdigest()
    assert digest == PINNED_DIGEST


@pytest.mark.parametrize("name", ["cohort-tall", "cohort-wide-exclude"])
def test_workload_cohorts_are_deterministic_and_parse(name, tmp_path):
    spec = run.WORKLOADS[name].cohort
    small = replace(spec, n=60, m=min(spec.m, 12))
    assert generate(small, 3) == generate(small, 3)
    inputs = run.make_inputs(run.WORKLOADS[name], 3, tmp_path)
    config = ncap.load_config(inputs.config)
    matrix = ncap.parse_feature_matrix(inputs.matrix, config)
    assert (len(matrix.platforms), len(matrix.features)) == (spec.n, spec.m)
    assert set(config.profiles) == set(matrix.platforms)
    assert matrix.missing_cells()


# ---------------------------------------------------------------- output checks


def _small_outputs(tmp_path):
    workload = run.Workload(
        name="small",
        why="",
        weights="config",
        missing="mean",
        mix=(("score", "csv"), ("compare", "csv"), ("distance", "csv")),
        cohort=SMALL,
    )
    inputs = run.make_inputs(workload, 7, tmp_path)
    outputs = {}
    for command, fmt in workload.mix:
        out = tmp_path / f"{command}.csv"
        assert main(run.command_args(workload, inputs, command, fmt, out)) == 0
        outputs[command] = out.read_text()
    config, _, resolved, weights = run.prepare(ncap, workload, inputs)
    table = ncap.score_table(resolved, weights, run.METHODS)
    scores = {m: dict(table.columns[m]) for m in run.METHODS}
    levels = {
        p: oracles.autonomy_level(c.modeling, c.planning, c.execution)
        for p, c in config.profiles.items()
    }
    return outputs, scores, levels


def test_checks_accept_correct_outputs(tmp_path):
    outputs, scores, levels = _small_outputs(tmp_path)
    assert oracles.check_score_csv(outputs["score"], scores) == []
    assert oracles.check_compare_csv(outputs["compare"], scores) == []
    assert oracles.check_distance_csv(outputs["distance"], scores, levels) == []


def test_check_rejects_corrupted_rank_column(tmp_path):
    outputs, scores, _ = _small_outputs(tmp_path)
    lines = outputs["score"].splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split(",")
    fields[3] = str(int(fields[3]) + 1)
    lines[5] = ",".join(fields) + "\n"
    problems = oracles.check_score_csv("".join(lines), scores)
    assert len(problems) == 1 and problems[0].startswith("rank ")


def test_checks_reject_wrong_tau_and_reference(tmp_path):
    outputs, scores, levels = _small_outputs(tmp_path)
    lines = outputs["compare"].splitlines()
    a, b, _ = lines[2].split(",")
    lines[2] = f"{a},{b},0.123456"
    assert oracles.check_compare_csv("\n".join(lines) + "\n", scores)
    flipped = outputs["distance"].replace(",1\n", ",0\n", 1)
    assert any(p.startswith("reference") for p in oracles.check_distance_csv(flipped, scores, levels))


def test_oracles_agree_with_ncap_on_ties():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 30)
        a = {f"p{i}": float(rng.randint(1, 4)) for i in range(n)}
        b = {f"p{i}": float(rng.randint(1, 4)) for i in range(n)}
        ranks_a, ranks_b = oracles.competition_ranks(a), oracles.competition_ranks(b)
        assert ranks_a == ncap.rank_scores(a)
        expected = ncap.kendall_tau(ranks_a, ranks_b)
        platforms = list(a)
        got = oracles.tau_b([ranks_a[p] for p in platforms], [ranks_b[p] for p in platforms])
        assert (math.isnan(got) and math.isnan(expected)) or abs(got - expected) < 1e-12


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0
    samples = [float(i) for i in range(30)]
    value, note = run.tail(samples)
    assert value == 19.0 and sum(1 for s in samples if s > value) == 10
    assert note.startswith("p66.7 of 30")


class _SleepingRunner:
    """Stands in for Runner: a cold process takes 30 ms, a warm call 5 ms."""

    def __init__(self):
        self.calls = []

    def cold(self, command, fmt):
        self.calls.append(("cold", command))
        time.sleep(0.03)
        return 0.03

    def warm(self, command, fmt):
        self.calls.append(("warm", command))
        time.sleep(0.005)
        return 0.005


def test_end_to_end_gives_warm_passes_their_share_of_the_time(monkeypatch):
    # a calibration loop twice as slow as the reference halves the warm figures
    monkeypatch.setattr(run, "calibration_loop", lambda: 2 * run.CALIBRATION_REF_S)
    workload = run.Workload(
        name="fake", why="", weights="config", missing="mean",
        mix=(("score", "csv"), ("compare", "csv")), warm_share=0.4,
    )
    runner = _SleepingRunner()
    result = run.measure_end_to_end(runner, workload, random.Random(0), 1.0, 10)
    cold = [c for kind, c in runner.calls if kind == "cold"]
    warm = [c for kind, c in runner.calls if kind == "warm"]
    assert runner.calls[0][0] == "cold"
    assert 0.3 < 0.005 * len(warm) / (0.005 * len(warm) + 0.03 * len(cold)) < 0.5
    # cold processes cycle through the mix; each warm pass runs all of it
    assert abs(cold.count("score") - cold.count("compare")) <= 1
    assert warm.count("score") == warm.count("compare") == len(warm) // 2
    assert result["metrics"]["pipeline_s_p50"] == pytest.approx(0.005)
    assert result["metrics"]["platforms_per_s"] == pytest.approx(10 / 0.005)
    assert result["metrics"]["cli_wall_s_p50"] == pytest.approx(0.03)


def test_interquartile_keeps_the_middle_half():
    assert run.interquartile([5.0, 1.0, 3.0, 2.0, 4.0, 100.0, 0.0, 6.0]) == [2.0, 3.0, 4.0, 5.0]
    assert run.interquartile([2.0, 1.0]) == [1.0, 2.0]


# ---------------------------------------------------------------- spans


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    parent, child = tracer.spans
    own = tracer.self_times()
    assert own["child"] == [child["end"] - child["start"]]
    expected = (parent["end"] - parent["start"]) - (child["end"] - child["start"])
    assert own["parent"] == [pytest.approx(expected)]


def test_span_tree_names_and_parentage(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STARTUP_SAMPLES", 1)
    workload = run.WORKLOADS["uas7-cli"]
    inputs = run.make_inputs(workload, 0, tmp_path)
    runner = run.Runner(workload, inputs, tmp_path, sys.modules["ncap.cli"])
    tracer = Tracer()
    result = run.measure_per_layer(ncap, runner, workload, inputs, random.Random(0), 0, tracer)
    assert runner.counts() == (len(runner.ops), 0)

    names = {s["id"]: s["name"] for s in tracer.spans}
    parent_of = {s["name"]: names.get(s["parent"]) for s in tracer.spans}
    assert parent_of["startup.import_ncap"] is None
    assert parent_of["iteration"] is None
    for group in ("stages", "cli"):
        assert parent_of[group] == "iteration"
    for layer in ("ingest", "normalize", "aggregate", "ranking", "level", "geometry"):
        assert parent_of[layer] == "stages"
    for name in run.SPAN_METRICS:
        layer = name.split(".")[0]
        expected = None if layer == "startup" else layer
        assert parent_of[name] == expected, name
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["ingest.profiles"] == 7
    assert result["metrics"]["ingest.missing_cells"] == 4
    iterations = {s["iteration"] for s in tracer.spans if s["name"] == "iteration"}
    assert iterations == {0}


# ---------------------------------------------------------------- contract


def test_exits_nonzero_without_the_program(tmp_path):
    """With only the benchmark's own files present, the run fails fast and
    prints no result line."""
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "uas7-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not found" in proc.stderr


PINNED_DIGEST = "85c26a32da9f53a79257a0d5c23f9b619147896392b4d07b0f3b42361dba5f97"
