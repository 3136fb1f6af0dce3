"""In-memory spans recorded by the benchmark around calls into ncap.

A span has an id, a name, a parent id, the iteration it belongs to (an
identifier shared by every span of one pass), and start and end times
from ``time.perf_counter``. Spans are kept in a list and written out
once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.iteration: int | str = 0

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "iteration": self.iteration,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, its self time summed within each iteration.

        Self time is a span's duration minus its children's durations.
        Children run one after another inside their parent, so their
        durations never overlap and subtracting their sum is exact.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        per: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            per[s["name"]][s["iteration"]] += own
        return {name: list(by_iteration.values()) for name, by_iteration in per.items()}

    def durations(self, iteration: int | str) -> dict[str, float]:
        """Total duration per span name within one iteration."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["iteration"] == iteration:
                out[s["name"]] += s["end"] - s["start"]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s, sort_keys=True) + "\n")
