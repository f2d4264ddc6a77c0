"""The benchmark's public calls into fds still run and count the same.

Every ``perfbench`` workload drives fds through its public functions.
This sets up each one at its smallest rung and pins the storage counts,
and runs one top-size job with its detail record and standalone calls,
so that a renamed or re-typed public name fails here rather than only
when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))  # runner imports harness and workloads by bare name

import harness  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name, stored, rank_max", [
    ("bie-starfish", 157390, 64),
    ("bvp1d-stream", 73728, 1),
    ("nd-poisson2d", 41686, 32),
    ("helmholtz-spectrum", 1185921, 31),
])
def test_smallest_rung_counts(name, stored, rank_max):
    w = workloads.WORKLOADS[name]()
    w.prepare(7)
    state = w.setup(w.rungs[0], harness.NullTracer())
    assert w.counts(state) == {"stored_scalars": stored, "rank_max": rank_max}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_top_size_job_runs_every_call(name):
    # solve, check, detail and standalone read what setup and counts do not
    w = workloads.WORKLOADS[name]()
    w.prepare(7)
    run = runner.Run(w, 7, 0.0, harness.NullTracer())
    run.job()
    assert run.failed == 0, run.failures
    assert run.attempted == w.solves_per_job + 1
    assert w.detail(run.top_state)
    w.standalone(harness.Tracer(0))
