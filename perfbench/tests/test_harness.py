"""Tests of the benchmark's own arithmetic and result files.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402

SPEC = harness.load_spec(BENCH.parent / "BENCHMARK.json")


# -- percentile rule -----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))  # 1..100
    assert harness.percentile(xs, 500) == 50
    assert harness.percentile(xs, 900) == 90
    assert harness.percentile(list(reversed(xs)), 900) == 90


def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile(range(100), 900) == 89  # exactly 10 beyond
    with pytest.raises(ValueError):
        harness.percentile(range(99), 900)  # only 9 beyond
    with pytest.raises(ValueError):
        harness.percentile([], 500)


@pytest.mark.parametrize("n, permille", [
    (20, 500), (99, 500), (100, 900), (999, 900), (1000, 990), (9999, 990), (10000, 999),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, permille):
    p, value, count = harness.tail_percentile(list(range(n)))
    assert (p, count) == (permille, n)
    rank = -(-permille * n // 1000)
    assert value == rank - 1 and n - rank >= 10


def test_tail_percentile_refuses_tiny_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile(range(19))


# -- self time -----------------------------------------------------------------------


def _span(i, name, start, end, parent):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": "t"}


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, "job", 0.0, 10.0, None),
        _span(1, "setup", 0.0, 6.0, 0),
        _span(2, "compress", 1.0, 4.0, 1),
        _span(3, "invert", 4.0, 5.5, 1),
        _span(4, "apply", 6.5, 7.0, 0),
        _span(5, "apply", 8.0, 9.0, 0),
        _span(6, "inner", 8.25, 8.75, 5),
    ]
    st = harness.self_times(spans)
    assert st == pytest.approx({0: 10 - 6 - 0.5 - 1.0, 1: 6 - 3 - 1.5, 2: 3.0, 3: 1.5,
                                4: 0.5, 5: 0.5, 6: 0.5})
    # self times of a tree add up to the root's duration
    assert sum(st.values()) == pytest.approx(10.0)
    assert sorted(harness.descendants(spans, 0)) == [1, 2, 3, 4, 5, 6]


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, "p", 0.0, 4.0, None), _span(1, "a", 0.5, 2.0, 0),
             _span(2, "b", 1.5, 3.0, 0), _span(3, "c", 3.5, 5.0, 0)]
    # children cover [0.5, 3.0] and [3.5, 4.0] inside the parent
    assert harness.self_times(spans)[0] == pytest.approx(4.0 - 2.5 - 0.5)


def test_tracer_records_nesting_and_run_id():
    tr = harness.Tracer("r1")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    with tr.span("second"):
        pass
    names = [(s["name"], s["parent"], s["run"]) for s in tr.spans]
    assert names == [("outer", None, "r1"), ("inner", 0, "r1"), ("second", None, "r1")]
    assert all(s["end"] >= s["start"] for s in tr.spans)
    assert harness.NullTracer().spans == ()


def test_loglog_slope_recovers_power_law():
    sizes = [512, 1024, 2048]
    assert harness.loglog_slope(sizes, [3e-6 * n**1.5 for n in sizes]) == pytest.approx(1.5)


# -- result file -----------------------------------------------------------------------


@pytest.mark.parametrize("traced", [False, True])
def test_result_file_round_trip_matches_spec(tmp_path, traced):
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    units = harness.metric_units(SPEC, traced)
    values = {name: 1.0 + i / 7 for i, name in enumerate(units)}
    line = harness.result_line(True, 12, 0, values, units)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    record = dict(line, workload="bie-starfish", detail={"solve_samples": 300})
    path = tmp_path / "result.json"
    harness.write_result(path, record)
    back = harness.read_result(path)
    assert back == json.loads(json.dumps(record))
    assert back["workload"] in WORKLOADS
    key = "per_layer" if traced else "end_to_end"
    assert list(back["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert back["metrics"][m["name"]]["unit"] == m["unit"]
        assert back["metrics"][m["name"]]["value"] == values[m["name"]]


def test_result_line_rejects_missing_extra_and_non_finite():
    units = harness.metric_units(SPEC, False)
    good = {name: 1.0 for name in units}
    with pytest.raises(ValueError):
        harness.result_line(True, 1, 0, dict(list(good.items())[1:]), units)
    with pytest.raises(ValueError):
        harness.result_line(True, 1, 0, dict(good, bogus=1.0), units)
    with pytest.raises(ValueError):
        harness.result_line(True, 1, 0, dict(good, setup_s=float("nan")), units)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
