"""Runs one workload in a fresh interpreter and prints its measurements.

usage: python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

run.py starts it with PYTHONPATH pointing at the checkout's src/.  The
first thing it does is time `import rotorcalc`; its last line of stdout is
one JSON object.  Untraced, the loop runs requests until --seconds have
passed and at least the workload's min_requests have run.  Traced, it runs
a request count fixed by --seconds, each request once plain and once traced
in alternating order, so the counts repeat exactly and the traced-minus-plain
time is the tracing overhead.
"""
import time

_start = time.perf_counter()
import rotorcalc as rc  # noqa: E402  (the import is what setup_s times)

SETUP_S = time.perf_counter() - _start

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import defects  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path.cwd().resolve()
HARD_LIMIT_S = 120.0   # stop a slow run early rather than miss the 180 s limit
PROBLEMS_SHOWN = 20


class Run:
    """Counts and latencies of one run."""

    def __init__(self):
        self.latencies = []
        self.failures = []  # per request: did it fail?
        self.attempted = self.failed = self.refused = self.repeated = 0
        self.problems = []

    def record(self, seconds, tally, repeated):
        self.latencies.append(seconds)
        self.failures.append(bool(tally.problems))
        self.attempted += 1
        self.repeated += repeated
        self.refused += tally.refusals
        if tally.problems:
            self.failed += 1
            if len(self.problems) < PROBLEMS_SHOWN:
                self.problems.append(tally.problems[0])

    def summary(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed,
            "refused": self.refused, "repeated": self.repeated,
            "problems": self.problems,
        }


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(run: Run, spec: wl.Spec, peak_rss_kb: int) -> dict:
    lat = sorted(run.latencies)
    # Laplace's rule of succession over the run's first min_requests: never
    # 0, so a bound relative to it stays finite, and not moved by how many
    # requests the run's time allowed.
    head = run.failures[:spec.min_requests]
    return {
        "req_per_s": (len(lat) / sum(lat), "1/s"),
        "req_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "req_ms_tail": (percentile(lat, spec.tail_pct) * 1e3, "ms"),
        "failed_ratio": ((sum(head) + 1) / (len(head) + 2), "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def _keep_going(run, spec, started, deadline):
    now = time.perf_counter()
    if now - started > HARD_LIMIT_S:
        return False
    return now < deadline or run.attempted < spec.min_requests


def measure(target, spec, stream, seconds) -> Run:
    run = Run()
    started = time.perf_counter()
    deadline = started + seconds
    for i, (req, repeated) in enumerate(stream):
        if not _keep_going(run, spec, started, deadline):
            break
        run.record(*target.plain(i, req), repeated)
    return run


def measure_traced(target, spec, stream, seconds):
    """Each of a fixed number of requests plain and traced, alternating
    which goes first; returns the traced run and the seconds of each kind."""
    run = Run()
    plain_s = traced_s = 0.0
    for i, (req, repeated) in enumerate(islice(stream, round(spec.trace_rate * seconds))):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                elapsed, tally = target.traced(i, req)
                traced_s += elapsed
                run.record(elapsed, tally, repeated)
            else:
                plain_s += target.plain(i, req)[0]
    return run, plain_s, traced_s


class InProcess:
    """closed_forms requests as library calls in this process."""

    def __init__(self):
        self.check = wl.Checker(rc).check_closed
        self.tracer = tr.Tracer(rc.DomainError)
        self.exit_nonzero = 0

    def plain(self, i, req):
        t0 = time.perf_counter()
        result = wl.run_closed(rc, req)
        t1 = time.perf_counter()
        return t1 - t0, self.check(req, result)

    def traced(self, i, req):
        self.tracer.install()
        self.tracer.begin_request(i)
        t0 = time.perf_counter()
        result = wl.run_closed(rc, req)
        t1 = time.perf_counter()
        self.tracer.end_request()
        self.tracer.uninstall()
        return t1 - t0, self.check(req, result)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace(self):
        return self.tracer.totals(), self.tracer.spans, self.tracer.dropped


class ColdCli:
    """Each request a cold `python -m rotorcalc` process; traced requests
    run cli_traced.py, which returns its trace on stderr."""

    def __init__(self):
        self.check = wl.CliChecker(rc).check_cli
        self.env = dict(os.environ)
        self.totals, self.spans = {}, []
        self.exit_nonzero = 0

    def _call(self, command, req):
        t0 = time.perf_counter()
        code, out, err = wl.run_cli(command, req, self.env, ROOT)
        return time.perf_counter() - t0, code, out, err

    def plain(self, i, req):
        elapsed, code, out, err = self._call([sys.executable, "-m", "rotorcalc"], req)
        return elapsed, self.check(req, code, out, err)

    def traced(self, i, req):
        elapsed, code, out, err = self._call(
            [sys.executable, str(ROOT / "perfbench" / "cli_traced.py")], req)
        lines = err.splitlines(keepends=True)
        marked = [line for line in lines if line.startswith(tr.MARK)]
        if len(marked) != 1:
            raise RuntimeError(f"traced CLI call left no trace: {err[-500:]}")
        trace = json.loads(marked[0][len(tr.MARK):])
        tr.merge_totals(self.totals, trace["totals"])
        self.spans.extend([i, *span[1:]] for span in trace["spans"])
        self.exit_nonzero += code != 0
        err = "".join(line for line in lines if not line.startswith(tr.MARK))
        return elapsed, self.check(req, code, out, err)

    def peak_rss_kb(self):
        # the worker's only children are the CLI processes
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def trace(self):
        return self.totals, self.spans, 0


# --- traced results ---------------------------------------------------------------------


def trace_metrics(name, seed, target, run, plain_s, traced_s):
    totals, spans, dropped = target.trace()
    out_dir = ROOT / ".bench_build" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    dump = {
        "workload": name, "seed": seed, "requests": run.attempted,
        "span_fields": ["request", "span", "parent", "layer", "function",
                        "start_us", "end_us", "outcome"],
        "spans": spans, "spans_dropped": dropped, "totals": totals,
    }
    (out_dir / f"{name}-seed{seed}.json").write_text(json.dumps(dump))
    metrics = tr.layer_metrics(totals, run.attempted, target.exit_nonzero)
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1.0) * 100.0, "%")
    metrics["trace.spans"] = (len(spans) + dropped, "count")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    source = Path(rc.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"worker: imported rotorcalc from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = wl.SPECS[args.workload]
    target = ColdCli() if args.workload == "cli_cold" else InProcess()
    stream = wl.request_stream(args.workload, args.seed)
    if args.trace:
        run, plain_s, traced_s = measure_traced(target, spec, stream, args.seconds)
        metrics = trace_metrics(args.workload, args.seed, target, run, plain_s, traced_s)
    else:
        run = measure(target, spec, stream, args.seconds)
        metrics = end_to_end(run, spec, target.peak_rss_kb())
    result = run.summary()
    result["defects"] = defects.reproduce(rc)
    if args.trace:
        metrics["defects.reproduced"] = (len(result["defects"]), "count")
    result["setup_s"] = SETUP_S
    numpy = sys.modules.get("numpy")
    result["numpy"] = numpy.__version__ if numpy else "not imported"
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
