"""score_table on a second CPU against the serial path.

Above a work threshold score_table runs every second method in a forked
child (ncap._fork.split). The forked path must give every score, and so
every rank and tau-b, the bits the serial path gives, raise the serial
path's errors, leave no child behind and let no child write to stdout or
stderr.
"""

import os
import random
import signal
import sys
import threading

import pytest

from ncap import (
    DomainError,
    FeatureMatrix,
    FeatureSpec,
    ProductDomainError,
    WeightVector,
    consensus_report,
    rank_table,
    resolve_missing,
    score_table,
)
from ncap import _fork, aggregate
from ncap.aggregate import METHODS
from ncap.cli import main
from ncap.ingest import Direction, MissingValuePolicy

from test_cli_golden import CASES

NEVER = float("inf")


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process of this one, running or not reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made in this process, one entry each."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def forced(monkeypatch, forks):
    """Fork at any size, with a second CPU on any machine; the fork calls."""
    monkeypatch.setattr(aggregate, "_FORK_WORK", 0)
    monkeypatch.setattr(_fork, "_second_cpu", lambda: True)
    return forks


def serially(monkeypatch, call):
    """``call()`` with the threshold out of reach, then restored."""
    with monkeypatch.context() as patch:
        patch.setattr(aggregate, "_FORK_WORK", NEVER)
        return call()


def outcome(call):
    """The bits of every score and tau-b ``call()`` gives, or its error."""
    try:
        table = call()
    except Exception as exc:
        return type(exc), str(exc)
    scores = {m: [(p, s.hex()) for p, s in column.items()] for m, column in table.columns.items()}
    if len(table.columns) < 2:
        return scores
    stats = consensus_report(rank_table(table.columns))
    taus = [(pair, tau.hex()) for pair, tau in stats.tau.items()]
    return scores, taus, stats.unanimous


def resolved(rows, directions=None):
    """A resolved matrix under exclude: None cells stay absent."""
    m = len(rows[0])
    directions = directions or [Direction.MORE_IS_BETTER] * m
    matrix = FeatureMatrix(
        platforms=tuple(f"p{i}" for i in range(len(rows))),
        features=tuple(FeatureSpec(name=f"f{j}", direction=d) for j, d in enumerate(directions)),
        values=tuple(tuple(rows_i) for rows_i in rows),
    )
    return resolve_missing(matrix, MissingValuePolicy.EXCLUDE)


def random_case(seed):
    """A random matrix with score ties, absent cells, a constant column and,
    on odd seeds, values <= 0 scored by map and zsc only."""
    rng = random.Random(seed)
    n, m = rng.randint(2, 90), rng.randint(2, 6)
    signed = seed % 2 == 1
    pool = [-3.0, -0.5, 0.0, 1.5, 2.0, 7.25] if signed else [0.5, 1.0, 2.0, 3.0, 8.0, 1e3]
    rows = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
    for row in rows[: n // 4]:  # repeated rows tie under every method
        row[:] = rows[-1]
    for row in rows:
        row[m - 1] = 4.0  # constant column
        for j in range(m - 1):
            if rng.random() < 0.15:
                row[j] = None
    for j in range(m - 1):  # keep two present cells per column
        rows[0][j], rows[1][j] = pool[-1], pool[-2]
    directions = [rng.choice(list(Direction)) for _ in range(m)]
    raw = [rng.random() + 0.01 for _ in range(m)]
    weights = WeightVector.user_defined([w / sum(raw) for w in raw])
    methods = ("map", "zsc") if signed else METHODS
    return resolved(rows, directions), weights, methods


@pytest.mark.parametrize("seed", range(24))
def test_forked_scores_and_taus_keep_the_serial_bits(monkeypatch, forced, capfd, seed):
    matrix, weights, methods = random_case(seed)
    serial = serially(monkeypatch, lambda: outcome(lambda: score_table(matrix, weights, methods)))
    assert not forced
    forked = outcome(lambda: score_table(matrix, weights, methods))
    assert forked == serial
    assert len(forced) == 1
    assert capfd.readouterr() == ("", "")


ERRORS = [
    # max (the parent's share) and sum (the child's) both reject 0.0; max comes first
    ([[1.0, 2.0], [0.0, 3.0]], None, METHODS, DomainError, "eta_max requires"),
    # only sum, the child's share, fails
    ([[1.0, 2.0], [-1.0, 3.0]], None, ("map", "sum"), DomainError, "eta_sum requires"),
    # only the product, the child's share, fails
    ([[1.0, 2.0], [-1.0, 3.0]], None, ("map", "product"), ProductDomainError, "positive values"),
    # sum, the parent's share, fails first; zsc, the child's, fails with another error
    ([[1.0, 2.0], [-1.0, None]], None, ("sum", "zsc"), DomainError, "eta_sum requires"),
    # sum, the child's share, fails first; zsc, the parent's, fails with another error
    ([[1.0, 2.0], [-1.0, None]], None, ("map", "sum", "zsc"), DomainError, "eta_sum requires"),
    # p1 has only f0, which has no weight
    ([[1.0, 2.0], [3.0, None]], (0.0, 1.0), METHODS, DomainError, "'p1' has no weight"),
]


@pytest.mark.parametrize("rows, weights, methods, kind, detail", ERRORS)
def test_forked_errors_keep_the_serial_class_and_message(
    monkeypatch, forced, capfd, rows, weights, methods, kind, detail
):
    matrix = resolved(rows)
    w = WeightVector(weights) if weights else WeightVector.uniform(2)
    serial = serially(monkeypatch, lambda: outcome(lambda: score_table(matrix, w, methods)))
    assert serial[0] is kind and detail in serial[1]
    assert outcome(lambda: score_table(matrix, w, methods)) == serial
    assert forced
    assert capfd.readouterr() == ("", "")


def in_child(parent, effect, real):
    """``real`` in the parent; in a forked child, ``effect()`` first."""

    def wrapped(*args):
        if os.getpid() != parent:
            effect()
        return real(*args)

    return wrapped


def boom():
    raise RuntimeError("boom")


CHILD_FAULTS = {
    "exit-3": lambda: os._exit(3),
    "raises": boom,
    "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
}


@pytest.mark.parametrize("fault", CHILD_FAULTS)
def test_a_failed_child_gives_the_serial_result(monkeypatch, forced, capfd, fault):
    matrix, weights, methods = random_case(2)
    serial = serially(monkeypatch, lambda: outcome(lambda: score_table(matrix, weights, methods)))
    parent = os.getpid()
    effect = CHILD_FAULTS[fault]
    monkeypatch.setattr(
        aggregate, "_sum_scores", in_child(parent, effect, aggregate._sum_scores)
    )
    assert outcome(lambda: score_table(matrix, weights, methods)) == serial
    assert len(forced) == 1
    assert capfd.readouterr() == ("", "")


def test_an_exception_escaping_the_child_ends_it_there(
    monkeypatch, forced, capfd, tmp_path
):
    """Ctrl-C reaches the whole process group, so a KeyboardInterrupt can
    reach the child before _child's own try. The child must exit there, not
    unwind into the caller's code or its cleanup."""
    matrix, weights, methods = random_case(8)
    serial = serially(monkeypatch, lambda: outcome(lambda: score_table(matrix, weights, methods)))

    def child(read, write, tasks, run):
        raise KeyboardInterrupt

    monkeypatch.setattr(_fork, "_child", child)
    parent, unwound = os.getpid(), tmp_path / "unwound"
    try:
        forked = outcome(lambda: score_table(matrix, weights, methods))
    except BaseException:
        if os.getpid() != parent:
            unwound.touch()
            os._exit(0)
        raise
    assert forked == serial
    assert not unwound.exists()
    assert len(forced) == 1
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(
    "sent, code",
    [(b"", 0), (b"\x01\x00\x00", 0), (-1, 0), (1, 0), (0, 3)],
    ids=["nothing", "short-count", "one-float-short", "one-float-too-many", "zeros-exit-3"],
)
def test_a_child_with_wrong_output_gives_the_serial_result(monkeypatch, forced, sent, code):
    """``sent`` is the bytes a child writes or, as an int, how many zero
    floats it adds to (or takes from) a well-formed output of zeros; then
    it exits ``code``."""
    matrix, weights, methods = random_case(4)
    serial = serially(monkeypatch, lambda: outcome(lambda: score_table(matrix, weights, methods)))

    def child(read, write, tasks, run):
        try:
            data = sent
            if isinstance(sent, int):
                counts = [len(run(task)) for task in tasks]
                data = b"".join(c.to_bytes(8, sys.byteorder) for c in counts)
                data += bytes(8 * (sum(counts) + sent))
            os.write(write, data)
        finally:
            os._exit(code)

    monkeypatch.setattr(_fork, "_child", child)
    assert outcome(lambda: score_table(matrix, weights, methods)) == serial
    assert forced


def test_no_fork_while_a_second_thread_runs(monkeypatch, forks):
    monkeypatch.setattr(aggregate, "_FORK_WORK", 0)
    matrix, weights, methods = random_case(6)
    serial = serially(monkeypatch, lambda: outcome(lambda: score_table(matrix, weights, methods)))
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(60,))
    thread.start()
    try:
        assert outcome(lambda: score_table(matrix, weights, methods)) == serial
    finally:
        done.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []


def test_second_cpu_needs_two_cpus_in_the_affinity_set_and_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert _fork._second_cpu()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert not _fork._second_cpu()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert not _fork._second_cpu()


def cohort_inputs(tmp_path, n=1100, m=20):
    """A matrix above the threshold: n x m integer cells with ties and
    repeated rows, 10% absent, and a config with a profile per platform."""
    rng = random.Random(n * m)
    rows = []
    for i in range(n):
        if i % 9 == 8:
            rows.append(rows[i // 2])
            continue
        rows.append([
            str(rng.randint(1, 9)) if j == i % m or rng.random() >= 0.1 else "-" for j in range(m)
        ])
    header = ",".join(["platform"] + [f"f{j}" for j in range(m)])
    lines = [header] + [",".join([f"P{i:05d}", *row]) for i, row in enumerate(rows)]
    config = ["features:"]
    for j in range(m):
        config += [f"  - name: f{j}", f"    direction: {'less' if j % 4 == 3 else 'more'}_is_better"]
    config += ["missing: exclude", "profiles:"]
    for i in range(n):
        level = rng.randint(0, 3)
        config.append(f"  P{i:05d}:")
        for k, layer in enumerate(("modeling", "planning", "execution")):
            config.append(f"    {layer}: {'true' if k < level else 'false'}")
    matrix, conf = tmp_path / "matrix.csv", tmp_path / "config.yaml"
    matrix.write_text("\n".join(lines) + "\n", encoding="utf-8")
    conf.write_text("\n".join(config) + "\n", encoding="utf-8")
    return matrix, conf


def test_every_command_and_format_gives_the_serial_bytes_above_the_threshold(
    tmp_path, monkeypatch, forks, capfd
):
    monkeypatch.setattr(_fork, "_second_cpu", lambda: True)
    matrix, config = cohort_inputs(tmp_path)
    out = tmp_path / "out"

    def run(command, fmt):
        argv = [command] + (["--matrix", str(matrix)] if command != "level" else [])
        argv += ["--config", str(config)] + (["--format", fmt] if fmt else [])
        assert main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    for command, fmt in CASES:
        serial = serially(monkeypatch, lambda: run(command, fmt))
        before = len(forks)
        assert run(command, fmt) == serial, (command, fmt)
        assert len(forks) - before == (command != "level"), (command, fmt)
    assert capfd.readouterr() == ("", "")
