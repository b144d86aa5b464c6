"""rotorcalc benchmark: one workload, one run, one JSON line of results.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a rotorcalc checkout.  The program is used from the
checkout's src/ (no install); bytecode is cached under .bench_build/.  The
last line of stdout is {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  A
summary goes to stderr.  Exits nonzero, printing no result, when the
sources are missing or the run cannot complete.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from defects import CASES
from workloads import SPECS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6       # fresh interpreters timing `import rotorcalc`, besides the worker
IMPORTTIME_PROBES = 5  # `-X importtime` runs for the import breakdown
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import rotorcalc; "
    "d = time.perf_counter() - t; print(d, rotorcalc.__file__)"
)


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def python(args, env, root, timeout=170.0):
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=root, capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def import_seconds(env, root) -> float:
    out = python(["-c", _IMPORT_PROBE], env, root).stdout.split()
    if not Path(out[1]).resolve().is_relative_to(root / "src"):
        raise BenchError(f"rotorcalc was imported from {out[1]}, not from {root / 'src'}")
    return float(out[0])


def import_breakdown(env, root) -> dict:
    """Median cumulative import time of rotorcalc and of numpy, in ms."""
    rows = {"rotorcalc": [], "numpy": []}
    for _ in range(IMPORTTIME_PROBES):
        err = python(["-X", "importtime", "-c", "import rotorcalc"], env, root).stderr
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m and m.group(2) in rows:
                rows[m.group(2)].append(int(m.group(1)) / 1000.0)
    return {
        f"import.{name}_ms": {"value": statistics.median(v) if v else 0.0, "unit": "ms"}
        for name, v in rows.items()
    }


def bench(args) -> dict:
    root = Path.cwd().resolve()
    if not (root / "src" / "rotorcalc" / "__init__.py").is_file():
        raise BenchError(f"no rotorcalc sources under {root / 'src'}; run from a checkout root")
    env = child_env(root)
    # Build: the first import in a checkout compiles bytecode into .bench_build.
    python(["-c", "import rotorcalc.cli"], env, root, timeout=600.0)
    setups = [import_seconds(env, root) for _ in range(SETUP_PROBES)]
    extra = import_breakdown(env, root) if args.trace else {}
    proc = python([str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)], env, root)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not args.trace and result["attempted"] < SPECS[args.workload].min_requests:
        raise BenchError(f"only {result['attempted']} requests ran before the time limit, "
                         f"fewer than the {SPECS[args.workload].min_requests} the tail needs")
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if args.trace:
        metrics.update(extra)
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"perfbench {args.workload} seed {args.seed}: python {platform.python_version()}, "
          f"numpy {result['numpy']}, nproc {os.cpu_count()}, {platform.machine()}; "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"refused {result['refused']}, "
          f"repeated {result['repeated']}; worker setup_s {result['setup_s']:.4f}",
          file=sys.stderr)
    for problem in result["problems"]:
        print(f"  failure: {problem}", file=sys.stderr)
    print(f"known defects still reproduced: {len(result['defects'])} of {len(CASES)}",
          file=sys.stderr)
    for defect in result["defects"]:
        print(f"  defect: {defect}", file=sys.stderr)
    return {
        # Every answer was checked against the oracle, and the workloads
        # draw only inputs that rotorcalc must answer right.
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": dict(sorted(metrics.items())),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = bench(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
