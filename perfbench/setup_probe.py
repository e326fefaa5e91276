"""Set-up probe: one fresh process, timed from before `import cfq`.

    python3 perfbench/setup_probe.py <workload>

Imports the package, sends the workload's first key once and checks the
answer, then prints {"setup_s": ..., "ok": ...}.  This is what a one-shot
CLI user pays, and it shows work moved into import or lazy caches.
"""

import json
import sys
import time

import workloads

golden = workloads.load_golden()
start = time.perf_counter()
ok = True
try:
    cfq = workloads.import_cfq()
    wl = workloads.make(sys.argv[1], cfq, golden)
    key = wl.keys[0]
    output = wl.call(key)
    setup_s = time.perf_counter() - start
    wl.check(key, output)
except Exception as exc:  # reported as a failed request, with its time
    setup_s = time.perf_counter() - start
    sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
    ok = False
print(json.dumps({"setup_s": setup_s, "ok": ok}))
