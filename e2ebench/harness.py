"""Shared pieces of the end-to-end benchmark.

* :class:`Tracer` — in-memory spans recorded around the benchmark's own
  calls into each ``repro`` layer (never inside the program).
* :class:`TimedWriter` — the timing proxy handed to ``Solver`` in place of
  a trace or proof writer; one span per writer call.
* :class:`Oracle` — checks every verdict against the known answer and
  counts failed operations against attempted ones.
* :class:`PassResult` — what one pass of a batch workload measured, with
  the calibration samples taken through it (:func:`calibrate`).
* statistics, peak RSS and the result envelope.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The ``repro`` packages the benchmark attributes time to. A span's layer
#: is the part of its name before the first dot.
LAYERS = ("cnf", "solver", "trace", "analysis", "checker", "proofs", "service")


class Tracer:
    """Records spans ``[name, start, end, parent, request]`` in memory.

    ``parent`` is the index of the enclosing span (``None`` at top level),
    ``request`` the instance name or job id the span works for. A disabled
    tracer records nothing, but :meth:`call` still returns the call's wall
    time, so timed and traced runs share one code path.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, request: str, fn, *args, **kwargs):
        """Run ``fn`` inside span ``name``; returns ``(result, seconds)``."""
        index = -1
        if self.enabled:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent, request])
            self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if self.enabled:
                self._stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
        return result, end - start

    def record(self, name: str, start: float, end: float, request: str) -> None:
        """Add a finished span under the currently open one."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, start, end, parent, request])

    def mark(self) -> int:
        """Position to slice this tracer's spans from (see :meth:`since`)."""
        return len(self.spans)

    def since(self, mark: int) -> list[list]:
        """Spans recorded after ``mark``, with parents re-based to the slice."""
        out = []
        for name, start, end, parent, request in self.spans[mark:]:
            rebased = None if parent is None or parent < mark else parent - mark
            out.append([name, start, end, rebased, request])
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "request": request}) + "\n")


class TimedWriter:
    """Forwards every call to a trace or proof writer, one span per call.

    ``records`` counts the writes (every call except ``close``).
    """

    def __init__(self, inner, tracer: Tracer, name: str, request: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self._request = request
        self.records = 0

    def __getattr__(self, attr):
        target = getattr(self._inner, attr)
        if not callable(target):
            return target
        counts = attr != "close"

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                self.records += counts
                self._tracer.record(self._name, start, time.perf_counter(), self._request)

        setattr(self, attr, timed)
        return timed


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the durations of children."""
    children = [0.0] * len(spans)
    for _name, start, end, parent, _request in spans:
        if parent is not None:
            children[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _request) in enumerate(spans):
        totals[name] += (end - start) - children[index]
    return dict(totals)


def layer_self_times(spans: list[list]) -> dict[str, float]:
    totals = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_times(spans).items():
        totals[name.split(".", 1)[0]] += seconds
    return totals


def covered_seconds(spans: list[list], lo: float, hi: float) -> float:
    """Length of the union of top-level span intervals, clipped to [lo, hi]."""
    intervals = sorted(
        (max(start, lo), min(end, hi))
        for _name, start, end, parent, _request in spans
        if parent is None
    )
    covered = 0.0
    cursor = lo
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class Oracle:
    """Verdict checks and failure accounting for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one operation; an exception counts as failed and yields None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, reported, not fatal
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {why}")

    def expect(self, what: str, expected: bool, verified: bool) -> None:
        """Record a verdict; one that differs from the known answer is wrong."""
        if verified != expected:
            want = "verified" if expected else "rejected"
            self.wrong.append(f"{what}: expected {want}")

    @property
    def correct(self) -> bool:
        return not self.wrong


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(pids: list[int] = ()) -> float:
    """Summed resident-set high-water marks of this process and ``pids``."""
    total_kb = 0
    for pid in ["self", *pids]:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            if pid == "self":
                import resource

                total_kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def source_digest() -> str:
    """SHA-256 over the program's sources (paths and bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(REPO_ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def envelope(workload: str, seed: int, scale: str, trace: bool,
             metrics: dict[str, tuple[float, str]], details: dict) -> dict:
    """Everything needed to compare this result with another run."""
    return {
        "benchmark": "e2ebench",
        "workload": workload,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "units": {name: unit for name, (_value, unit) in metrics.items()},
        "values": {name: value for name, (value, _unit) in metrics.items()},
        "details": details,
    }


#: Time of one calibration unit on the reference machine. Reported times
#: are wall times scaled by this over the unit's time measured alongside
#: them, so they read as seconds on a machine of the reference speed.
CALIBRATION_REFERENCE_S = 0.01


def calibrate(units: int = 1) -> float:
    """Mean seconds per unit of a fixed pure-Python workload.

    The loop is the benchmark's own code, never the program's, so a change
    to the program cannot move it; only the machine's speed does (shared
    hosts drift by tens of percent within minutes).
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    values = list(range(4000))
    for round_index in range(8 * units):
        for value in values:
            key = (value * 2654435761 + round_index) & 1023
            table[key] = table.get(key, 0) ^ value
        values.reverse()
    return (time.perf_counter() - start) / units


def reference_scale(unit_seconds: list[float]) -> float:
    """Factor from the host's measured seconds to reference seconds."""
    return CALIBRATION_REFERENCE_S * len(unit_seconds) / sum(unit_seconds)


#: Longest gap between two calibration samples within a pass.
CALIBRATION_INTERVAL_S = 0.1


@dataclass
class PassResult:
    """One pass of a batch workload over its instance set."""

    #: Per instance: seconds from the in-memory formula to its last verdict.
    latencies: list[float] = field(default_factory=list)
    solve_s: float = 0.0
    check_s: float = 0.0
    counts: dict = field(default_factory=dict)
    #: Calibration unit times sampled through the pass.
    calibration: list[float] = field(default_factory=list)
    #: Wall time the samples took, which no span covers.
    calibration_s: float = 0.0
    _last_sample_at: float = float("-inf")

    def tick(self) -> None:
        """Between two steps: sample the machine's speed if the last sample
        is over ``CALIBRATION_INTERVAL_S`` old. Samples never fall inside a
        timed step, so they never count in a latency."""
        start = time.perf_counter()
        if start - self._last_sample_at >= CALIBRATION_INTERVAL_S:
            self.calibration.append(calibrate())
            self._last_sample_at = time.perf_counter()
            self.calibration_s += self._last_sample_at - start

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)
