"""cfq benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload paper71 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from src/.

--trace 0 reports the end-to-end metrics, measured untraced.  On a shared
2-vCPU Xeon VM the speed swings between a fast and a ~1.5-1.8x slower mode
(other tenants), in spells that can outlast a run, with short fast stretches
inside the slow ones; a run's plain median moves by 20-40% between runs.
The two timing metrics therefore cost each key at its contention-free
latency: the sum over the request's segments of each segment's fastest time
over the run's passes (timing noise only ever adds time).  Requests of
small_levels are one segment each; paper71's ~1 s request is split at the
entry and exit of each of its q-series evaluations, into ~57 segments of at
most ~100 ms, because a whole run can pass without one fast second:
  polys_per_s     class polynomials certified and checked in one pass,
                  divided by the sum of the keys' contention-free latencies
  latency_p50_ms  median over the keys of their contention-free latency, that
                  is the median request latency of one pass
  setup_s         median over fresh processes, run between the timed
                  passes, of the time from before `import cfq` until the
                  first request returns
  peak_rss_mib    ru_maxrss of this process
Printed but not gated: the plain p50 of all requests with its sample count,
p90 where a run holds >= 100 requests (paper71 never does, so it cannot be
a metric of every workload), polys per wall second of the timed loop, and
failed_share, which is 0 whenever the result line's `failed` is 0.
--trace 1 reports the per-layer metrics of tracer.py per request, from
passes that alternate untraced and traced over the same request order.

The last line of standard output is the JSON result; the lines before it
are the run context and the metrics in readable form.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER, Tracer, aggregate

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
P90_MIN_REQUESTS = 100

END_TO_END = (
    ("polys_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class Loop:
    """Closed loop over whole passes; counts attempts and failures.

    Recorded passes add each key's segment times and the certified
    polynomials.  A request's segments are the stretches between the clock
    readings the workload takes inside it (workloads.make); they sum to its
    latency.
    """

    def __init__(self, wl, rng: random.Random, tracer=None):
        self.wl = wl
        self.rng = rng
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.segments: dict[object, list[tuple[float, ...]]] = {}
        self.polys = 0
        self.errors: list[str] = []

    def request(self, key) -> tuple[tuple[float, ...], int]:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request += 1
        marks = self.wl.marks
        marks.clear()
        start = time.perf_counter()
        try:
            output = self.wl.call(key)
            points = [start, *marks, time.perf_counter()]
            segments = tuple(b - a for a, b in zip(points, points[1:]))
            return segments, self.wl.check(key, output)
        except Exception as exc:  # a failed request is counted, not fatal
            elapsed = time.perf_counter() - start
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return (elapsed,), 0

    def order(self) -> list:
        keys = list(self.wl.keys)
        self.rng.shuffle(keys)
        return keys

    def run_pass(self, keys, record: bool) -> float:
        start = time.perf_counter()
        for key in keys:
            segments, polys = self.request(key)
            if record:
                self.segments.setdefault(key, []).append(segments)
                self.polys += polys
        return time.perf_counter() - start


def contention_free(samples: list[tuple[float, ...]]) -> float:
    """A key's latency with timing noise removed, from its recorded requests.

    The sum over the request's segments of each segment's fastest time: host
    slowdowns only ever add time, and a short segment finds a fast stretch
    of host time far more often than a whole ~1 s request does.  Requests
    that were not split alike fall back to the fastest whole request.
    """
    if len({len(s) for s in samples}) == 1:
        return sum(min(times) for times in zip(*samples))
    return min(sum(s) for s in samples)


def host_reference_ms() -> float:
    """Fixed pure-Python integer work, for reading host-speed drift only."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        x = 1
        for k in range(200_000):
            x = (x * 1103515245 + k) % 2147483647
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def probe_setup(workload: str) -> tuple[float, bool]:
    """Set-up time of one fresh process, and whether its request was right."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=HERE.parent,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: set-up probe crashed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["ok"]:
        sys.stderr.write(f"set-up probe request failed: {proc.stderr.strip()[-500:]}\n")
    return result["setup_s"], result["ok"]


def run_untraced(loop: Loop, seconds: float, workload: str):
    """Timed passes until `seconds` of request time, with set-up probes.

    The SETUP_PROBES fresh processes are spread evenly over the timed loop,
    between passes and outside its clock, so that setup_s samples the same
    stretch of host speed as the other metrics rather than one moment.
    Returns the timed wall seconds, the passes and the (setup_s, ok) probes.
    """
    wall, passes, probes = 0.0, 0, []
    while wall < seconds or passes == 0:
        wall += loop.run_pass(loop.order(), record=True)
        passes += 1
        due = SETUP_PROBES if seconds <= 0 else math.ceil(SETUP_PROBES * min(1.0, wall / seconds))
        while len(probes) < due:
            probes.append(probe_setup(workload))
    return wall, passes, probes


def run_traced(loop: Loop, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes over the same key order.

    Returns the per-layer metrics and the problems found: traced passes of
    the same keys must give identical call counts.
    """
    tracer = loop.tracer
    untraced_wall = traced_wall = 0.0
    requests = 0
    pass_counts: list[dict] = []
    while untraced_wall + traced_wall < seconds or len(pass_counts) < 2:
        keys = loop.order()
        untraced_wall += loop.run_pass(keys, record=False)
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced_wall += loop.run_pass(keys, record=False)
        finally:
            tracer.uninstall()
        pass_counts.append(tracer.call_counts(first_span))
        requests += len(keys)
    print(f"# traced passes {len(pass_counts)} of {len(loop.wl.keys)} requests; "
          f"calls per pass {json.dumps(dict(sorted(pass_counts[0].items())))}")
    if tracer.missing:
        print("# traced functions missing: " + ", ".join(tracer.missing))
    problems = []
    if any(counts != pass_counts[0] for counts in pass_counts):
        problems.append("call counts differ between traced passes of the same keys")
    metrics = aggregate(tracer.spans, tracer.polys, requests, traced_wall / untraced_wall - 1.0)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cfq = workloads.import_cfq()
    import mpmath

    golden = workloads.load_golden()
    wl = workloads.make(args.workload, cfq, golden)
    host_before = host_reference_ms()

    loop = Loop(wl, random.Random(args.seed), Tracer() if args.trace else None)
    loop.request(loop.order()[0])  # first request: untimed warm-up

    problems: list[str] = []
    probes: list[tuple[float, bool]] = []
    if args.trace:
        metrics, problems = run_traced(loop, args.seconds)
        units = dict(PER_LAYER)
    else:
        wall, passes, probes = run_untraced(loop, args.seconds, args.workload)
        per_key = [contention_free(samples) for samples in loop.segments.values()]
        metrics = {
            "polys_per_s": loop.polys / passes / sum(per_key),
            "latency_p50_ms": statistics.median(per_key) * 1000.0,
            "setup_s": statistics.median(t for t, _ok in probes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    attempted = loop.attempted + len(probes)
    failed = loop.failed + sum(not ok for _t, ok in probes)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host_ref_ms_before": round(host_before, 3),
        "host_ref_ms_after": round(host_reference_ms(), 3),
    }
    print("# context " + json.dumps(context))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        lat = [sum(s) for samples in loop.segments.values() for s in samples]
        print(f"# {passes} passes of {len(wl.keys)} keys in {wall:.3f} s; "
              f"polys per wall second {loop.polys / wall:.6g}")
        print(f"# all {len(lat)} requests: p50 {statistics.median(lat) * 1000.0:.6g} ms")
        if len(lat) >= P90_MIN_REQUESTS:
            print(f"latency_p90_ms {statistics.quantiles(lat, n=10)[-1] * 1000.0:.6g} ms")
        else:
            print(f"latency_p90_ms n/a ({len(lat)} requests < {P90_MIN_REQUESTS}; p50 only)")
        print(f"# setup_s is the median of {len(probes)} fresh processes")
        print(f"failed_share {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for line in loop.errors + problems:
        print(f"# {line}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
