"""In-memory spans around the benchmark's calls into polybh.

A span is recorded only at a public call the workload makes, so per-module
times are measured from outside the library.  Where a workload needs the
split of a call into its inner layers (``verify_bh`` into ``sup_lower`` and
``coeff_norm``; ``dirichlet_sup`` into ``bohr_lift`` and ``sup_lower``), the
inner public call is *replayed* with the same arguments right after the
outer span ends.  A replay is recorded as a child of the outer span, its time
is subtracted from the outer span's self time, and it is kept out of the
workload's timed wall time.  A replay adds to a name's busy time and calls
only when the workload never calls that name directly, so the direct calls
of ``bohr_lift`` are not counted again through its replay under
``dirichlet_sup``; its self time still counts in the module shares.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: int | None
    replay: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; otherwise every call goes straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.case: int | None = None
        self.replay_s = 0.0
        self._last_top: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span called ``name`` (``<module>.<function>``)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._last_top = len(self.spans)
            self.spans.append(Span(len(self.spans), name, start, end, None, self.case, False))

    def replay(self, name: str, fn, *args, **kwargs):
        """Re-run an inner call of the last span as its child, off the timed wall."""
        if not self.enabled:
            return None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.replay_s += end - start
            self.spans.append(Span(len(self.spans), name, start, end, self._last_top, self.case, True))

    def count(self, key: str, value: float) -> None:
        if self.enabled:
            self.counts[key] += value

    def _counted(self) -> list[Span]:
        direct = {s.name for s in self.spans if not s.replay}
        return [s for s in self.spans if not s.replay or s.name not in direct]

    def busy(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self._counted():
            out[s.name] += s.duration
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self._counted():
            out[s.name] += 1
        return out

    def self_times(self) -> dict[str, float]:
        """Busy time per span name minus the time of each span's children."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - child_time[s.id]
        return out

    def top_level_s(self) -> float:
        return sum(s.duration for s in self.spans if not s.replay)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s)) + "\n")
