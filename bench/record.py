"""Layer attribution for the benchmark's calls into holofield.

Every call a job makes into the package goes through ``Recorder.call``,
which names the layer after the callee's module.  The untraced recorder
only remembers which layer raised; the traced one also keeps a span per
call.  Spans stay in memory and are summarised (and written out) when
the run ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("groups", "levy", "surface", "loops", "holonomy", "covering")

# Float identities are checked element by element to this bound, relative
# above magnitude 1 (the package's own verify default is 1e-9 absolute).
TOL = 1e-9

# One clock for job times and spans, in this process and in the cli
# children: CLOCK_MONOTONIC is system-wide on Linux.
clock = time.monotonic


class StepAborted(Exception):
    """A layer call raised or a check failed; the failure is already
    recorded and the rest of the step is skipped."""


def layer_of(fn) -> str:
    return fn.__module__.rpartition(".")[2]


class Recorder:
    """Calls straight through; records failures as (layer, what, kind)."""

    traced = False

    def __init__(self):
        self.failures: list[tuple[str, str, str]] = []
        self.counts: dict[str, int] = {}

    def begin(self, job_id: int) -> None:
        self.failures = []
        self.counts = {}

    def _fail(self, layer: str, what: str, kind: str):
        self.failures.append((layer, what, kind))
        raise StepAborted(f"{layer}.{what}: {kind}")

    def call(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(layer_of(fn), fn.__qualname__, type(exc).__name__)

    @contextmanager
    def step(self):
        """Run one independent part of a job; a failure inside it is
        recorded and does not stop the job's other parts."""
        try:
            yield
        except StepAborted:
            pass
        except Exception as exc:  # a fault in the benchmark itself
            self.failures.append(("bench", "step", type(exc).__name__))

    def check(self, layer: str, what: str, ok: bool) -> None:
        if not ok:
            self._fail(layer, what, "mismatch")

    def check_close(self, layer: str, what: str, got, want) -> None:
        """NaN-safe: every element must be finite and within TOL."""
        g = np.asarray(got, dtype=float)
        w = np.asarray(want, dtype=float)
        if g.shape != w.shape:
            self._fail(layer, what, "shape")
        if not (np.isfinite(g).all() and np.isfinite(w).all()):
            self._fail(layer, what, "nonfinite")
        if not (np.abs(g - w) <= TOL * np.maximum(1.0, np.abs(w))).all():
            self._fail(layer, what, "mismatch")

    def span(self, layer: str, name: str, start: float, end: float,
             parent: int | None = None, error: str | None = None) -> int:
        """Untraced runs keep no spans."""
        return -1


class Tracer(Recorder):
    """Also keeps one span per call: (job, id, parent, layer, name, start,
    end, error).  Layer calls are children of the job's root span."""

    traced = True

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.job = -1
        self.root = -1

    def begin(self, job_id: int) -> None:
        super().begin(job_id)
        self.job = job_id
        self.root = -1

    def open_root(self, start: float) -> None:
        self.root = len(self.spans)
        self.spans.append([self.job, self.root, None, "bench", "job",
                           start, start, None])

    def close_root(self, end: float) -> None:
        self.spans[self.root][6] = end

    def span(self, layer, name, start, end, parent=None, error=None) -> int:
        sid = len(self.spans)
        self.spans.append([self.job, sid, self.root if parent is None
                           else parent, layer, name, start, end, error])
        return sid

    def call(self, fn, *args, **kwargs):
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            self.span(layer_of(fn), fn.__qualname__, t0, clock(),
                      error=type(exc).__name__)
            self._fail(layer_of(fn), fn.__qualname__, type(exc).__name__)
        self.span(layer_of(fn), fn.__qualname__, t0, clock())
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("job", "id", "parent", "layer", "name", "start", "end",
                     "error"), s))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover
    (children of one span never overlap: a job makes one call at a time)."""
    out = [s[6] - s[5] for s in spans]
    for s in spans:
        if s[2] is not None:
            out[s[2]] -= s[6] - s[5]
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    if n < 20:
        return 50
    return int(math.floor(100.0 * (1.0 - 10.0 / n)))
