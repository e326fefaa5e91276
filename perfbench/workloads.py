"""Workload definitions, request functions and the correctness gate.

Every workload is a closed loop with one client: the next request is sent
only after the previous one returned and was checked.  A pass sends every
key of the workload once, in an order shuffled by the benchmark's seed.

Why each workload exists, and which per-layer metric (see tracer.py) should
move which end-to-end metric on it:

* paper71 -- the paper's headline.  One request is `cfq verify --paper71`
  run in-process: the class polynomials of discs -71 and -284 at level 71
  (h = 7 each) plus the two exact Weber root relations, 4 PASS lines.  The
  q-series path does most of the work and the eta layer does none, so
  hauptmodul.evaluate.qseries.* and hauptmodul.fricke_reduce.* should move
  latency_p50_ms here and nowhere else; quadforms.compose.* moves it second;
  exactpoly.verify_root_relation.self_ms and cli.run.self_ms exist only here.
* small_levels -- the degree-law sweep: the 15 gamma0 levels and the 14
  Fricke symmetrizations, each at disc -4n and also -n when n = 3 mod 4
  (33 keys, default precision policy).  h <= 2, so per-request fixed costs
  dominate: quadforms.compose and eta at 256 bits.  q-series evaluation runs
  only at level 1, so a q-series-only change must show no change here.
  elliptic.enumerate_representatives.* is a regression guard here.
* highprec_eta -- the small_levels keys without level 1 at
  PrecisionPolicy(start_bits=1024), the path of `cfq class-poly --prec-bits
  1024` (rounds at 1024 and 2048 bits).  The eta series does nearly all the
  work, so eta.eta_quotient.* and mpmath arithmetic move polys_per_s here
  most, and a class-group-only change should not.  It must reproduce the
  small_levels golden polynomials exactly.
  It is not in BENCHMARK.json: its 32 keys of ~150 ms each get only a few
  samples per key in a run, so a run that falls in a slow spell of the host
  reads up to ~40% slow, and the time limit on all gated runs leaves room
  for two workloads of long runs, not three.  Run it by name; eta is still
  gated through small_levels, where it does about half the work.

classfield.rounds, classfield.final_prec_bits and classfield.self_ms move on
every workload; numerics.* stays a small share everywhere; a q-series parse
cache would move setup_s and peak_rss_mib.

This module imports only the standard library at import time, so that the
set-up probe can start its clock before `import cfq`.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from math import gcd
from pathlib import Path
from time import perf_counter

from tracer import rebind

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_FILE = HERE / "golden.json"

NAMES = ("paper71", "small_levels", "highprec_eta")

# Published degree-7 class polynomials for the Hilbert class field of
# Q(sqrt(-71)) at level 71, lowest degree first.  Kept here on purpose, not
# taken from cfq.cli, so the gate does not trust the program's own constants.
PUBLISHED_71 = {
    -71: (1, 0, -2, -3, 1, 5, 4, 1),
    -284: (-11, 4, 18, 5, -11, -7, 0, 1),
}

HIGHPREC_START_BITS = 1024

_GAMMA0_LEVELS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25)
_FRICKE_SYM_LEVELS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25)


class WrongAnswer(Exception):
    """A request returned, but its output failed the correctness gate."""


def _discs(n: int) -> list[int]:
    return [-4 * n] + ([-n] if n % 4 == 3 else [])


def small_level_keys() -> list[tuple[int, str, int]]:
    keys = [(n, "gamma0", d) for n in _GAMMA0_LEVELS for d in _discs(n)]
    keys += [(n, "fricke", d) for n in _FRICKE_SYM_LEVELS for d in _discs(n)]
    return keys


def key_text(key: tuple[int, str, int]) -> str:
    return " ".join(str(part) for part in key)


def class_number(d: int) -> int:
    """Count reduced primitive forms of discriminant d (independent oracle)."""
    count = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(gcd(a, b), c) == 1:
                count += 1
        a += 1
    return count


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def import_cfq():
    """Import the package from the checkout's src/ directory."""
    if not (SRC / "cfq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cfq package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cfq

    return cfq


class Paper71:
    """`cfq verify --paper71` in-process: exit 0, 4 PASS, published polys."""

    keys = [("verify", "--paper71")]

    def __init__(self, golden: dict):
        self._golden = sorted(tuple(c) for c in golden["paper71"].values())
        if self._golden != sorted(PUBLISHED_71.values()):
            raise SystemExit("perfbench: golden level-71 polynomials differ from published")
        for disc, coeffs in PUBLISHED_71.items():
            if coeffs[-1] != 1 or len(coeffs) - 1 != class_number(disc):
                raise SystemExit(f"perfbench: published polynomial {disc} is malformed")
        importlib.import_module("cfq.cli")
        # `cfq verify` prints only PASS lines; record the polynomials it
        # computed by re-binding ring_class_polynomial wherever cfq holds it
        self._captured: list = []
        original = sys.modules["cfq.classfield"].ring_class_polynomial

        def capturing(*args, **kwargs):
            result = original(*args, **kwargs)
            self._captured.append(tuple(result.poly.coeffs))
            return result

        rebind(original, capturing)
        # Split points for run.py's clock: the entry and exit of every
        # hauptmodul.evaluate call, 28 a request and 10-100 ms apart.  Two
        # clock reads a call cost microseconds in a ~1 s request.
        self.marks: list[float] = []
        evaluate = getattr(sys.modules.get("cfq.hauptmodul"), "evaluate", None)
        if callable(evaluate):
            marks = self.marks

            def marked(*args, **kwargs):
                marks.append(perf_counter())
                try:
                    return evaluate(*args, **kwargs)
                finally:
                    marks.append(perf_counter())

            rebind(evaluate, marked)

    def call(self, key):
        self._captured.clear()
        out, err = io.StringIO(), io.StringIO()
        # looked up per call, so the tracer's re-binding is seen
        code = sys.modules["cfq.cli"].run(list(key), out=out, err=err)
        return code, out.getvalue(), list(self._captured)

    def check(self, key, output) -> int:
        code, text, polys = output
        lines = text.splitlines()
        if code != 0:
            raise WrongAnswer(f"exit code {code}")
        if len(lines) != 4 or not all(line.startswith("PASS ") for line in lines):
            raise WrongAnswer(f"expected 4 PASS lines, got {lines}")
        if sorted(polys) != self._golden:
            raise WrongAnswer(f"polynomials {polys} differ from the published ones")
        return len(polys)


class ClassPolys:
    """`ring_class_polynomial` per key, checked against the golden values."""

    def __init__(self, cfq, golden: dict, keys, policy=None):
        self._cfq = cfq
        self._policy = policy
        self.keys = keys
        self._golden = {k: tuple(golden["small_levels"][key_text(k)]) for k in keys}
        self._class_numbers = {d: class_number(d) for _, _, d in keys}
        self.marks: list[float] = []  # requests of ~20-200 ms are not split

    def call(self, key):
        n, group, disc = key
        return self._cfq.ring_class_polynomial(n, group, disc, self._policy)

    def check(self, key, output) -> int:
        coeffs = tuple(output.poly.coeffs)
        if coeffs != self._golden[key]:
            raise WrongAnswer(f"{key}: got {coeffs}, golden {self._golden[key]}")
        if coeffs[-1] != 1:
            raise WrongAnswer(f"{key}: not monic: {coeffs}")
        if len(coeffs) - 1 != self._class_numbers[key[2]]:
            raise WrongAnswer(f"{key}: degree {len(coeffs) - 1} != class number")
        return 1


def make(name: str, cfq, golden: dict):
    """The workload called `name`.

    Each has `keys`, `call(key)`, which is what the clock times,
    `check(key, output)`, which raises WrongAnswer on a wrong answer and
    returns the number of certified polynomials the request produced, and
    `marks`, the clock readings `call` took inside the request, which split
    it into segments that run.py times one by one.
    """
    if name == "paper71":
        return Paper71(golden)
    keys = small_level_keys()
    if name == "small_levels":
        return ClassPolys(cfq, golden, keys)
    if name == "highprec_eta":
        policy = cfq.PrecisionPolicy(start_bits=HIGHPREC_START_BITS)
        return ClassPolys(cfq, golden, [k for k in keys if k[0] != 1], policy)
    raise SystemExit(f"perfbench: unknown workload {name!r}; one of {NAMES}")
