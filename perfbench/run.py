"""Run one fds benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload bie-starfish --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, each in its own process

Run it from the root of a checkout: fds is imported from the ``src/`` next
to this directory, never from an installed copy, and the run exits with a
nonzero code if that tree is missing. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the ``end_to_end`` metrics of
BENCHMARK.json, with ``--trace 1`` the ``per_layer`` ones. The lines above
it name every metric with its unit, then the module-level detail and the
environment. The same record goes to ``perfbench/results/``, and a traced
run writes its spans there too.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

# One BLAS thread. On the 2-CPU machine this benchmark was written on, the
# default two OpenBLAS threads made the bie-starfish setup at N=2048 about
# 3.5x slower in wall time (5.2 s against 1.5 s) at twice the CPU time, and
# made it vary by +-15% from call to call: the library's blocks are too
# small for a second thread to pay, and a spinning one competes with every
# other process on the machine.
BLAS_THREADS = 1


def pin_blas_threads():
    """Set the BLAS thread count before numpy loads; returns the usable CPUs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def import_library():
    """Import fds from this checkout's src/, or exit nonzero."""
    src = ROOT / "src"
    if not (src / "fds" / "__init__.py").is_file():
        sys.exit(f"error: no fds sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import fds

    if Path(fds.__file__).resolve().parent != (src / "fds").resolve():
        sys.exit(f"error: imported fds from {fds.__file__}, not from {src}")


def run_all(names, args):
    """Each workload in its own process, one after the other; a table of metrics."""
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        res = json.loads(lines[-1])
        code |= 0 if res["correct"] else 1
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<20} {m['value']:>14.6g} {m['unit']}")
    return code


def main(argv=None):
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(names, args)
    nproc = pin_blas_threads()
    import_library()
    sys.path.insert(0, str(HERE))
    import runner

    runner.run_one(args.workload, args.seed, args.seconds, args.trace, nproc,
                   SPEC_PATH, HERE / "results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
