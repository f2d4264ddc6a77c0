"""The benchmark's public calls into fds still run and count the same.

Every ``perfbench`` workload drives fds through its public functions.
This sets up each one at its smallest rung and pins the storage counts,
so that a renamed or re-typed public name fails here rather than only
when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, stored, rank_max", [
    ("bie-starfish", 157390, 64),
    ("bvp1d-stream", 73728, 1),
    ("nd-poisson2d", 41686, 32),
    ("helmholtz-spectrum", 1185921, 31),
])
def test_smallest_rung_counts(name, stored, rank_max):
    harness, workloads = _load("harness"), _load("workloads")
    w = workloads.WORKLOADS[name]()
    w.prepare(7)
    state = w.setup(w.rungs[0], harness.NullTracer())
    assert w.counts(state) == {"stored_scalars": stored, "rank_max": rank_max}
