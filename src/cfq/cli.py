"""Command-line front end.

Subcommands:
  class-poly   assemble the class polynomial for (level, group, disc)
  class-group  reduced forms and composition table of a discriminant
  reps         elliptic representatives and fixed points for (level, disc)
  eval         one singular value at a given element
  verify       built-in level-71 verification suite (--paper71)
  catalog      list all genus-zero catalog entries

Exit codes: 0 success, 1 domain, parse or rounding error.  JSON output
uses canonical (sorted) key order with all floating-point quantities
rendered as decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .classfield import ring_class_polynomial
from .elliptic import EllipticElement, enumerate_representatives, fixed_point, order_of
from .errors import CfqError
from .exactpoly import IntPoly, LaurentExpr, verify_root_relation
from .hauptmodul import catalog_entries, catalog_lookup, evaluate, value_text
from .numerics import MAX_PREC_BITS, MIN_PREC_BITS, PrecisionPolicy
from .quadforms import enumerate_class_group

__all__ = ["main", "run", "verify_level71"]

# published degree-7 generators for the Hilbert class field of Q(sqrt(-71)),
# lowest degree first
MINPOLY_DISC_284 = IntPoly([-11, 4, 18, 5, -11, -7, 0, 1])
MINPOLY_DISC_71 = IntPoly([1, 0, -2, -3, 1, 5, 4, 1])
WEBER_MINPOLY_71 = IntPoly([-1, -1, 1, 1, 1, -1, -2, 1])

# beta^2 - 1 - beta^-1  and  -beta^6 + 3*beta^5 - 2*beta^4 + 1
RELATION_DISC_284 = LaurentExpr({2: 1, 0: -1, -1: -1})
RELATION_DISC_71 = LaurentExpr({6: -1, 5: 3, 4: -2, 0: 1})


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    # built once per process; every build leaves formatter reference cycles
    parser = _Parser(prog="cfq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, level=False, group=False, disc=False, prec=None):
        if level:
            p.add_argument("-n", "--level", type=int, required=True)
        if group:
            p.add_argument("--group", choices=["gamma0", "fricke"], required=True)
        if disc:
            p.add_argument("-D", "--disc", type=int, required=True)
        if prec:
            p.add_argument("--prec-bits", type=int, default=None, help=prec)
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("class-poly", help="class polynomial for (level, group, disc)")
    common(p, level=True, group=True, disc=True,
           prec=f"precision of the round in bits, from {MIN_PREC_BITS} to "
                f"{MAX_PREC_BITS} (default: {MIN_PREC_BITS})")

    p = sub.add_parser("class-group", help="reduced forms and composition table")
    common(p, disc=True)

    p = sub.add_parser("reps", help="elliptic representatives and fixed points")
    common(p, level=True, disc=True)

    p = sub.add_parser("eval", help="principal modulus value at one element")
    common(p, level=True, group=True,
           prec=f"working precision in bits, from {MIN_PREC_BITS} to "
                f"{MAX_PREC_BITS} (default: 256)")
    p.add_argument("--element", required=True, metavar="A,B,C",
                   help="elliptic element as 'A,B,C' (or 'A,B,C@n') at the given level")

    p = sub.add_parser("verify", help="built-in verification suites")
    p.add_argument("--paper71", action="store_true",
                   help="check the level-71 class polynomials and the two "
                        "algebraic relations to Weber's polynomial")
    common(p)

    p = sub.add_parser("catalog", help="list genus-zero catalog entries")
    common(p)
    return parser


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _cmd_class_poly(args, out) -> int:
    policy = PrecisionPolicy() if args.prec_bits is None else PrecisionPolicy(args.prec_bits)
    result = ring_class_polynomial(args.level, args.group, args.disc, policy)
    if args.json:
        out.write(_emit_json(result.to_json_dict()) + "\n")
    else:
        out.write(result.poly.text() + "\n")
    return 0


def _cmd_class_group(args, out) -> int:
    cg = enumerate_class_group(args.disc)
    if args.json:
        obj = {
            "disc": cg.disc,
            "class_number": cg.class_number,
            "classes": [cls.rep.text() for cls in cg.classes],
            "table": [list(row) for row in cg.table],
        }
        out.write(_emit_json(obj) + "\n")
    else:
        for cls in cg.classes:
            out.write(cls.rep.text() + "\n")
        out.write(f"h = {cg.class_number}\n")
        for row in cg.table:
            out.write(" ".join(str(k) for k in row) + "\n")
    return 0


def _cmd_reps(args, out) -> int:
    reps_list = []
    cg = enumerate_class_group(args.disc)
    for cls, alpha in zip(cg.classes, enumerate_representatives(args.level, args.disc, cg)):
        tau = fixed_point(alpha)
        reps_list.append((cls, alpha, tau))
    if args.json:
        obj = {
            "level": args.level,
            "disc": args.disc,
            "representatives": [
                {
                    "class": cls.rep.text(),
                    "element": alpha.text(),
                    "tau": f"({tau.u}+{tau.v}*sqrt(-{tau.n}))/{tau.w}",
                }
                for cls, alpha, tau in reps_list
            ],
        }
        out.write(_emit_json(obj) + "\n")
    else:
        for cls, alpha, tau in reps_list:
            out.write(
                f"{alpha.text()}@{args.level}  class {cls.rep.text()}  "
                f"tau=({tau.u}+{tau.v}*sqrt(-{tau.n}))/{tau.w}\n"
            )
    return 0


def _cmd_eval(args, out) -> int:
    prec = 256 if args.prec_bits is None else args.prec_bits
    alpha = EllipticElement.from_text(args.element, args.level)
    spec = catalog_lookup(args.level, args.group)
    value_re, value_im = value_text(evaluate(spec, fixed_point(alpha), prec), prec)
    if args.json:
        obj = {
            "level": args.level,
            "group": args.group,
            "element": alpha.text(),
            "disc": order_of(alpha),
            "prec_bits": prec,
            "value_re": value_re,
            "value_im": value_im,
        }
        out.write(_emit_json(obj) + "\n")
    else:
        out.write(f"{value_re} {value_im}\n")
    return 0


def verify_level71() -> list[tuple[str, bool]]:
    """The four level-71 checks; exact arithmetic for the root relations."""
    checks: list[tuple[str, bool]] = []
    r71 = ring_class_polynomial(71, "fricke", -71)
    checks.append(("class polynomial disc -71", r71.poly == MINPOLY_DISC_71))
    r284 = ring_class_polynomial(71, "fricke", -284)
    checks.append(("class polynomial disc -284", r284.poly == MINPOLY_DISC_284))
    checks.append(
        (
            "beta^2-1-beta^-1 is a root of the disc -284 polynomial",
            verify_root_relation(RELATION_DISC_284, MINPOLY_DISC_284, WEBER_MINPOLY_71),
        )
    )
    checks.append(
        (
            "-beta^6+3beta^5-2beta^4+1 is a root of the disc -71 polynomial",
            verify_root_relation(RELATION_DISC_71, MINPOLY_DISC_71, WEBER_MINPOLY_71),
        )
    )
    return checks


def _cmd_verify(args, out) -> int:
    if not args.paper71:
        raise CfqError("nothing to verify: pass --paper71")
    checks = verify_level71()
    if args.json:
        out.write(_emit_json({name: ok for name, ok in checks}) + "\n")
    else:
        for name, ok in checks:
            out.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
    return 0 if all(ok for _, ok in checks) else 1


def _cmd_catalog(args, out) -> int:
    entries = catalog_entries()
    if args.json:
        out.write(_emit_json(entries) + "\n")
    else:
        for e in entries:
            out.write(f"{e['group']:7s} {e['level']:3d}  {e['kind']}\n")
    return 0


_COMMANDS = {
    "class-poly": _cmd_class_poly,
    "class-group": _cmd_class_group,
    "reps": _cmd_reps,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
}


def run(argv, out=None, err=None) -> int:
    """Parse argv and execute; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except CfqError as exc:
        err.write(f"cfq: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
