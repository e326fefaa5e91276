"""Self-test of the benchmark: one short run of each workload, both modes.

    python3 perfbench/smoke.py [workload ...]

Runs run.py with --seconds 0 (one timed pass untraced; two traced passes)
on every workload run.py knows, the gated ones and highprec_eta, and fails
unless every metric BENCHMARK.json names is present with its unit,
the result line has exactly the contract's keys, and no request failed.
Per-layer call counts are compared with the ones measured on the commit
that defined the benchmark; a difference is printed as a note, because a
change that removes work is expected to move them.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# calls per request on the commit that defined the benchmark
SEED_COUNTS = {
    "paper71": {
        "classfield.rounds": 2,
        "quadforms.enumerate_class_group.calls": 6,
        "quadforms.compose.calls": 294,
        "hauptmodul.evaluate.qseries.calls": 28,
        "hauptmodul.load_qseries.calls": 4,
        "hauptmodul.evaluate.useful_share": 0.5,
        "eta.eta_quotient.calls": 0,
    },
    "small_levels": {
        "classfield.rounds": 2,
        "quadforms.enumerate_class_group.calls": 99 / 33,
        "quadforms.compose.calls": 279 / 33,
        "eta.eta_quotient.calls": 104 / 33,
        "hauptmodul.evaluate.qseries.calls": 2 / 33,
    },
    "highprec_eta": {
        "classfield.rounds": 2,
        "classfield.final_prec_bits": 2048,
        "quadforms.enumerate_class_group.calls": 96 / 32,
        "quadforms.compose.calls": 276 / 32,
        "eta.eta_quotient.calls": 104 / 32,
        "hauptmodul.evaluate.qseries.calls": 0,
    },
}


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check(workload: str, trace: int, spec: dict) -> list[str]:
    lines, result = run(workload, trace)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    if not trace:
        for name in ("latency_p90_ms", "failed_share 0 ratio"):
            if not any(line.startswith(name) for line in lines):
                problems.append(f"no '{name}' line")
    for name, seed in SEED_COUNTS[workload].items() if trace else ():
        value = metrics.get(name, {}).get("value")
        if value is None or abs(value - seed) > 1e-9:
            print(f"  note: {workload} {name} = {value}, seed {seed:.6g}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sys.argv[1:] or list(workloads.NAMES)
    failures = 0
    for workload in names:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok'} {workload} trace={trace}")
            for problem in problems:
                print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
