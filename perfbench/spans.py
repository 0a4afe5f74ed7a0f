"""Spans around the benchmark's own calls into mapproc, kept in memory.

A span is (name, start, end, parent, op id, tag).  Every call span's parent
is the span of the op that made it; op spans and set-up spans have no
parent.  The tag is whatever the caller set in ``Tracer.tag``, such as the
gate dimension of a synthesis problem.
Times are ``time.perf_counter`` seconds.  Nothing inside ``src/`` is
instrumented: the spans bracket public calls made from this directory.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import statistics
import time
from collections import defaultdict

SETUP = -1  # op id of set-up spans


class Tracer:
    """Records call spans while ``enabled``; otherwise calls straight through.

    The benchmark alternates ``enabled`` op by op in a traced run, so the
    traced and untraced ops see the same inputs, machine and warm caches.
    """

    def __init__(self):
        self.enabled = False
        self.op_id = SETUP
        self.op_span = None
        self.tag = None
        self.spans: list[tuple[str, float, float, int | None, int, str | None]] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.op_span, self.op_id,
                               self.tag))

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        if self.enabled:
            self.op_span = len(self.spans)
            self.spans.append(None)  # filled by end_op, so children can point at it

    def end_op(self, start: float, end: float) -> None:
        if self.op_span is not None:
            self.spans[self.op_span] = ("op", start, end, None, self.op_id, None)
        self.op_id = SETUP
        self.op_span = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "tag": tag}) + "\n")

    def summary(self) -> dict:
        """Per-name calls, busy time and median duration, plus op coverage.

        Only spans inside ops count; ``coverage`` is the share of traced op
        wall time that named call spans cover, so the rest is time spent in
        the benchmark's own glue between calls.
        """
        durations: dict[str, list[float]] = defaultdict(list)
        op_time = 0.0
        for name, start, end, _, op_id, _ in self.spans:
            if op_id == SETUP:
                continue
            if name == "op":
                op_time += end - start
            else:
                durations[name].append(end - start)
        covered = sum(sum(d) for d in durations.values())
        return {
            "op_time_s": op_time,
            "coverage": covered / op_time if op_time > 0 else 0.0,
            "calls": {
                name: {
                    "calls": len(d),
                    "busy_s": sum(d),
                    "p50_us": statistics.median(d) * 1e6,
                    "busy_share": sum(d) / op_time if op_time > 0 else 0.0,
                }
                for name, d in sorted(durations.items())
            },
        }


PROFILE_GROUPS = ("vnmeas", "processor", "qcore", "qid", "tomography", "serialize",
                  "numpy", "builtins", "other")


def profile_split(fn) -> dict[str, float]:
    """Self time of ``fn()`` under cProfile, grouped by mapproc module.

    cProfile charges its own per-call cost to Python frames and none to
    work inside native code, so these shares are profiler-attributed, not
    measured wall time.
    """
    prof = cProfile.Profile()
    prof.runcall(fn)
    stats = pstats.Stats(prof).stats
    split = dict.fromkeys(PROFILE_GROUPS, 0.0)
    for (filename, _, funcname), (_, _, tottime, _, _) in stats.items():
        split[_profile_group(filename, funcname)] += tottime
    return split


def _profile_group(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    if "/mapproc/" in path:
        module = path.rsplit("/", 1)[-1].removesuffix(".py")
        return module if module in PROFILE_GROUPS else "other"
    if "/numpy/" in path or (filename == "~" and "numpy" in funcname):
        return "numpy"
    if filename == "~":
        return "builtins"
    return "other"
