"""Timing, tracing, statistics and result files for the fds benchmark.

Nothing here imports ``fds``: the workloads in ``workloads.py`` drive the
library, and this module turns their timings and spans into metrics.
"""

import json
import math
import time
from contextlib import contextmanager, nullcontext

import numpy as np

# -- tracing -----------------------------------------------------------------


class Tracer:
    """Spans kept in memory and written out when the run ends.

    A span records its name, start, end (``time.perf_counter`` seconds),
    the id of the enclosing span (``None`` for a root) and the run id.
    Spans are opened only by the benchmark's own files, around each call
    into a public ``fds`` function.
    """

    enabled = True

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Tracing switched off: the same call sites, no records."""

    enabled = False
    spans = ()

    def span(self, name):
        return nullcontext()


def self_times(spans):
    """Span id -> duration minus the part of it covered by its children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def descendants(spans, root_id):
    """Ids of every span below ``root_id``."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s["id"])
    out, todo = [], list(kids.get(root_id, ()))
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids.get(i, ()))
    return out


def span_cost_s(n=20000):
    """Measured cost of opening and closing one empty span."""
    tr = Tracer("calibration")
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / n


# -- statistics ----------------------------------------------------------------

# percentiles in per-mille, so that the rank arithmetic stays in integers
TAIL_CANDIDATES = (999, 990, 900, 500)


def percentile(samples, permille, min_beyond=10):
    """Nearest-rank percentile, refusing one with too few samples beyond it.

    The value is the ceil(p n)-th smallest sample; the samples beyond it
    are the n - ceil(p n) larger ranks. Raises ValueError when fewer than
    ``min_beyond`` lie beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = -(-permille * n // 1000)
    if n == 0 or n - rank < min_beyond:
        raise ValueError(
            f"p{permille / 10:g} needs {min_beyond} samples beyond it; n={n}")
    return xs[max(rank, 1) - 1]


def tail_percentile(samples, min_beyond=10):
    """(permille, value, n) of the highest percentile in TAIL_CANDIDATES
    with at least ``min_beyond`` samples beyond it."""
    for p in TAIL_CANDIDATES:
        try:
            return p, percentile(samples, p, min_beyond), len(samples)
        except ValueError:
            continue
    raise ValueError(f"no percentile has {min_beyond} samples beyond it; n={len(samples)}")


def loglog_slope(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def median(xs):
    return float(np.median(np.asarray(xs, dtype=float)))


# -- result files ------------------------------------------------------------------


def load_spec(path):
    """BENCHMARK.json as a dict."""
    with open(path) as f:
        return json.load(f)


def metric_units(spec, traced):
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def result_line(correct, attempted, failed, values, units):
    """The object printed as the last line of a run.

    ``values`` must hold every metric named in ``units`` and nothing else,
    each a finite number.
    """
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite metrics {bad}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }


def write_result(path, record):
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


def read_result(path):
    with open(path) as f:
        return json.load(f)
