"""Schedule, metrics and output of one benchmark run.

Imported by ``run.py`` only after the BLAS thread count is pinned and
``fds`` is known to come from this checkout.
"""

import json
import math
import os
import platform
import resource
import time

import numpy as np
import scipy

import harness
from workloads import WORKLOADS

TYPED_ERRORS = (np.linalg.LinAlgError, ValueError)  # SingularMatrixError, SeparationError


def environment(nproc):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {}
    for path, key in (("/proc/meminfo", "MemTotal"), ("/proc/cpuinfo", "model name")):
        try:
            with open(path) as f:
                info[key] = next((l.split(":", 1)[1].strip() for l in f if l.startswith(key)), "?")
        except OSError:
            info[key] = "?"
    return {
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "mem_total": info["MemTotal"],
        "cpu": info["model name"],
    }


class Run:
    """One workload run: warm-up, the size ladder, top-size jobs, checks."""

    def __init__(self, wl, seed, seconds, tracer):
        self.wl, self.seconds, self.tr = wl, seconds, tracer
        self.rng = np.random.default_rng(seed)
        self.rung_setup_s = {r: [] for r in wl.rungs}
        self.jobs = []  # per top-size job: setup_s, total_s, root span id
        self.solve_s = []
        self.residuals, self.errors = [], []
        self.attempted = self.failed = 0
        self.failures = []
        self.top_state = None
        self.peak_rss_mb = 0.0

    def _fail(self, what, why):
        self.failed += 1
        self.failures.append(f"{what}: {why}")

    def _setup(self, rung):
        """One timed setup: (state, seconds), or (None, None) on a typed error."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            state = self.wl.setup(rung, self.tr)
        except TYPED_ERRORS as exc:
            self._fail(f"setup at {rung}", exc)
            return None, None
        return state, time.perf_counter() - t0

    def job(self):
        """Top-size setup and the workload's solves, then the oracle check."""
        wl = self.wl
        inputs = wl.make_inputs(self.rng)
        solved, answers, evals = [], [], []
        with self.tr.span("job") as root:
            t0 = time.perf_counter()
            state, setup_s = self._setup(wl.rungs[-1])
            if state is None:
                return
            for x in inputs:
                self.attempted += 1
                s0 = time.perf_counter()
                try:
                    ans = wl.solve(state, x, self.tr)
                except TYPED_ERRORS as exc:
                    self._fail("solve", exc)
                    continue
                self.solve_s.append(time.perf_counter() - s0)
                solved.append(x)
                answers.append(ans)
                evals.append(wl.evaluate(state, x, ans, self.tr))
            total_s = time.perf_counter() - t0
        self.rung_setup_s[wl.rungs[-1]].append(setup_s)
        self.jobs.append({"setup_s": setup_s, "total_s": total_s,
                          "span": root["id"] if root else None})
        msg = wl.check_setup(state)
        if msg:
            self._fail("setup check", msg)
        if not answers:
            return
        res, err = wl.check(state, solved, answers, evals)
        for r, e in zip(res, err):
            if not (r <= wl.residual_limit and e <= wl.error_limit):
                self._fail("oracle", f"residual {r:.3e}, error {e:.3e}")
        self.residuals += list(res)
        self.errors += list(err)
        self.top_state = state

    def execute(self):
        """Warm up, then rounds of (lower rungs, one top-size job) until both
        the minimum counts are met and --seconds would be overrun."""
        wl = self.wl
        wl.setup(wl.rungs[0], harness.NullTracer())  # untimed warm-up
        start = time.perf_counter()
        rounds = 0
        while True:
            if rounds < wl.ladder_reps:
                for rung in wl.rungs[:-1]:
                    with self.tr.span(f"setup@{rung}"):
                        state, s = self._setup(rung)
                    if state is not None:
                        self.rung_setup_s[rung].append(s)
                    del state
            t0 = time.perf_counter()
            self.job()
            rounds += 1
            now = time.perf_counter()
            if (rounds >= max(wl.ladder_reps, wl.min_jobs)
                    and now - start + (now - t0) > self.seconds):
                break
        if self.tr.enabled:
            wl.standalone(self.tr)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def end_to_end(self):
        wl = self.wl
        if len(self.jobs) < wl.min_jobs or any(not self.rung_setup_s[r] for r in wl.rungs):
            raise RuntimeError("too many setups failed: " + "; ".join(self.failures[:5]))
        ms = [1e3 * s for s in self.solve_s]
        return {
            "setup_s": harness.median([j["setup_s"] for j in self.jobs]),
            "total_s": harness.median([j["total_s"] for j in self.jobs]),
            "solve_ms_p50": harness.percentile(ms, 500),
            "solve_ms_p90": harness.percentile(ms, 900),
            "setup_slope": harness.loglog_slope(
                [wl.size(r) for r in wl.rungs],
                [harness.median(self.rung_setup_s[r]) for r in wl.rungs]),
            "peak_rss_mb": self.peak_rss_mb,
            "residual_digits": -math.log10(max(self.residuals)),
            "error_digits": -math.log10(max(self.errors)),
            "success_rate": 1.0 - self.failed / self.attempted,
        }

    def layer_times(self):
        """From the spans: per public call, the median per-job self time and
        the median self time of one call (standalone roots count as one
        job), and the median self time and span count of the job roots."""
        spans = self.tr.spans
        st = harness.self_times(spans)
        per_job, per_call = {}, {}
        for j in self.jobs:
            sums = {}
            for i in harness.descendants(spans, j["span"]):
                name = spans[i]["name"]
                sums[name] = sums.get(name, 0.0) + st[i]
                per_call.setdefault(name, []).append(st[i])
            for name, v in sums.items():
                per_job.setdefault(name, []).append(v)
        for s in spans:
            if s["parent"] is None and s["name"] in self.wl.slots:
                per_job.setdefault(s["name"], []).append(st[s["id"]])
                per_call.setdefault(s["name"], []).append(st[s["id"]])
        roots = [j["span"] for j in self.jobs]
        return ({n: harness.median(v) for n, v in per_job.items()},
                {n: harness.median(v) for n, v in per_call.items()},
                harness.median([st[r] for r in roots]),
                harness.median([1 + len(harness.descendants(spans, r)) for r in roots]))

    def per_layer(self):
        wl = self.wl
        per_job, per_call, root_self, nspans = self.layer_times()
        stage = {"assemble": 0.0, "build": 0.0}
        for name, v in per_job.items():
            if wl.slots.get(name) in stage:
                stage[wl.slots[name]] += v
        (apply_s,) = [v for n, v in per_call.items() if wl.slots.get(n) == "apply"]
        counts = wl.counts(self.top_state)
        return {
            "assemble_s": stage["assemble"],
            "build_s": stage["build"],
            "apply_ms": 1e3 * apply_s,
            "stored_scalars": counts["stored_scalars"],
            "rank_max": counts["rank_max"],
            "trace.total_s": harness.median([j["total_s"] for j in self.jobs]),
            "trace.unaccounted_s": root_self,
            "trace.overhead_s": nspans * harness.span_cost_s(),
        }

    def detail(self):
        p, v, n = harness.tail_percentile([1e3 * s for s in self.solve_s])
        out = {
            "solve_samples": n,
            f"solve_ms_p{p / 10:g}": v,
            "jobs": len(self.jobs),
            "rung_sizes": [self.wl.size(r) for r in self.wl.rungs],
            "rung_setup_s": [harness.median(self.rung_setup_s[r]) for r in self.wl.rungs],
            "max_rel_residual": max(self.residuals),
            "max_error": max(self.errors),
            "fail_rate": self.failed / self.attempted,
            "failures": self.failures[:20],
            "job_setup_s": [j["setup_s"] for j in self.jobs],
            "job_total_s": [j["total_s"] for j in self.jobs],
        }
        out.update(self.wl.detail(self.top_state))
        if self.tr.enabled:
            per_job, per_call, _, _ = self.layer_times()
            out.update({f"self_s/{n}": v for n, v in sorted(per_job.items())})
            out.update({f"self_ms_per_call/{n}": 1e3 * v for n, v in sorted(per_call.items())})
        return out


def run_one(name, seed, seconds, trace, nproc, spec_path, results_dir):
    """Run one workload, print its metrics and write its records."""
    spec = harness.load_spec(spec_path)
    wl = WORKLOADS[name]()
    run_id = f"{name}-seed{seed}-trace{trace}"
    tr = harness.Tracer(run_id) if trace else harness.NullTracer()
    wl.prepare(seed)
    run = Run(wl, seed, seconds, tr)
    run.execute()
    values = run.per_layer() if trace else run.end_to_end()
    line = harness.result_line(run.failed == 0, run.attempted, run.failed, values,
                               harness.metric_units(spec, bool(trace)))
    record = dict(line, workload=name, seed=seed, seconds=seconds, trace=trace,
                  detail=run.detail(), env=environment(nproc))
    results_dir.mkdir(exist_ok=True)
    harness.write_result(results_dir / f"{run_id}.json", record)
    if trace:
        with open(results_dir / f"{run_id}.spans.json", "w") as f:
            json.dump(tr.spans, f)
    for metric, m in line["metrics"].items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    for key, v in record["detail"].items():
        print(f"{name}  detail {key} = {v}")
    for key, v in record["env"].items():
        print(f"{name}  env {key} = {v}")
    print(json.dumps(line), flush=True)
