"""Command-line front end.

Subcommands:
  class-poly   assemble the class polynomial for (level, group, disc)
  class-group  reduced forms and composition table of a discriminant
  reps         elliptic representatives and fixed points for (level, disc)
  eval         one singular value at a given element
  verify       built-in level-71 verification suite (--paper71)
  catalog      list all genus-zero catalog entries

Each subcommand builds one JSON object and its text lines, and prints the
lines or, with --json, the object in canonical (sorted) key order, every
number that is not an integer a decimal string, rounded half up.  Each part
of a value gets the significant digits that evaluate's bound supports,
counted by one exact decimal division.  Forms, elements and polynomials
print as their integers joined by commas, the way eval's --element reads
them.  No other module of cfq reads or writes text.

Exit codes: 0 success, 1 domain, parse or rounding error or a failed
verification check.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import sys
from fractions import Fraction

from .classfield import ClassPolyResult, ring_class_polynomial
from .elliptic import EllipticElement, enumerate_representatives, fixed_point
from .errors import CfqError, DomainError
from .exactpoly import IntPoly, LaurentExpr, verify_root_relation
from .hauptmodul import ERROR_BITS, catalog_entries, catalog_lookup, evaluate
from .numerics import MAX_PREC_BITS, MIN_PREC_BITS, Ball, PrecisionPolicy
from .quadforms import enumerate_class_group

__all__ = ["main", "run"]

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

    def common(p, level=False, group=False, disc=False, prec=None, prec_what=None):
        if level:
            p.add_argument("-n", "--level", type=int, required=True)
        if group:
            p.add_argument("--group", choices=["gamma0", "fricke"], required=True)
        if disc:
            p.add_argument("-D", "--disc", type=int, required=True)
        if prec:
            p.add_argument("--prec-bits", type=int, default=prec,
                           help=f"{prec_what} in bits, from {MIN_PREC_BITS} to "
                                f"{MAX_PREC_BITS} (default: %(default)s)")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("class-poly", help="class polynomial for (level, group, disc)")
    common(p, level=True, group=True, disc=True,
           prec=MIN_PREC_BITS, prec_what="precision of the round")

    p = sub.add_parser("class-group", help="reduced forms and composition table")
    common(p, disc=True)

    p = sub.add_parser("reps", help="elliptic representatives and fixed points")
    common(p, level=True, disc=True)

    p = sub.add_parser("eval", help="principal modulus value at one element")
    common(p, level=True, group=True, prec=256, prec_what="working precision")
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


def _decimal(x: Fraction, n: int) -> str:
    """x with n significant digits, rounded half up, as a decimal literal.

    With k the decimal exponent of the leading digit, x prints in fixed
    point when min(-(n // 3), -5) < k < n and as d.ddd e+-k otherwise,
    trailing zeros stripped down to one digit after the point; 0 is 0.0.
    """
    if not x:
        return "0.0"
    context = decimal.Context(n, decimal.ROUND_HALF_UP, decimal.MIN_EMIN, decimal.MAX_EMAX)
    quotient = context.divide(x.numerator, x.denominator)
    sign, digits, _ = quotient.as_tuple()
    digits, split, k = "".join(map(str, digits)), 1, quotient.adjusted()
    if min(-(n // 3), -5) < k < n:
        digits, split, k = ("0" * -k + digits, 1, 0) if k < 0 else (digits, k + 1, 0)
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    return "-" * sign + text + ("0" if text.endswith(".") else "") + (f"e{k:+d}" if k else "")


def value_digits(prec: int) -> int:
    """Significant decimal digits of a value that evaluate's bound supports at prec bits."""
    return math.floor((prec - ERROR_BITS) * math.log10(2))


def value_text(value: Ball, prec: int) -> tuple[str, str]:
    """The real and imaginary parts of an `evaluate` result at prec bits as text.

    Each part x gets floor(log10(|x| / bound)) significant digits, at most
    value_digits(prec), where bound = 2^(ERROR_BITS - prec) * max(1, |value|)
    is evaluate's bound; a part at or below the bound prints as 0.0.  The
    digit count is exact: (|x| / bound)^2 is a rational number.
    """
    scale = Fraction(2) ** value.exp
    bound2 = (Fraction(2) ** (2 * (ERROR_BITS - prec))
              * max(1, (value.re**2 + value.im**2) * scale**2))

    def part(x: int) -> str:
        # (|x| / bound)^2 >= 100^digits; rounded down to one digit, the
        # quotient keeps the decimal exponent of its leading digit
        ratio2 = x * x * scale**2 / bound2
        if ratio2 <= 1:
            return "0.0"
        context = decimal.Context(1, decimal.ROUND_FLOOR, decimal.MIN_EMIN, decimal.MAX_EMAX)
        digits = context.divide(ratio2.numerator, ratio2.denominator).adjusted() // 2
        return _decimal(x * scale, max(1, min(digits, value_digits(prec))))

    return part(value.re), part(value.im)


def _commas(*integers: int) -> str:
    return ",".join(map(str, integers))


def _class_poly_json(result: ClassPolyResult) -> dict:
    points = []
    for f, alpha, _tau, value in result.points.entries:
        value_re, value_im = value_text(value, result.prec_bits)
        points.append({"class": _commas(f.a, f.b, f.c),
                       "element": _commas(alpha.A, alpha.B, alpha.C),
                       "value_re": value_re, "value_im": value_im})
    return {
        "level": result.points.n,
        "group": result.points.group,
        "disc": result.points.disc,
        "class_number": result.points.class_group.class_number,
        "poly": [str(c) for c in result.poly.coeffs],
        "residual": _decimal(result.residual, 10),
        "r_max": _decimal(result.r_max, 10),
        "prec_bits": result.prec_bits,
        "points": points,
    }


def _cmd_class_poly(args):
    result = ring_class_polynomial(args.level, args.group, args.disc,
                                   PrecisionPolicy(args.prec_bits))
    # the text prints no value, so it skips their decimal digits
    return _class_poly_json(result) if args.json else None, [_commas(*result.poly.coeffs)]


def _cmd_class_group(args):
    cg = enumerate_class_group(args.disc)
    classes = [_commas(f.a, f.b, f.c) for f in cg.classes]
    obj = {"disc": cg.disc, "class_number": cg.class_number, "classes": classes,
           "table": [list(row) for row in cg.table]}
    return obj, [*classes, f"h = {cg.class_number}",
                 *(" ".join(str(k) for k in row) for row in cg.table)]


def _cmd_reps(args):
    cg = enumerate_class_group(args.disc)
    reps = []
    for f, alpha in zip(cg.classes, enumerate_representatives(args.level, args.disc, cg)):
        tau = fixed_point(alpha)
        reps.append({"class": _commas(f.a, f.b, f.c),
                     "element": _commas(alpha.A, alpha.B, alpha.C),
                     "tau": f"({tau.u}+{tau.v}*sqrt(-{tau.n}))/{tau.w}"})
    obj = {"level": args.level, "disc": args.disc, "representatives": reps}
    return obj, [f"{r['element']}@{args.level}  class {r['class']}  tau={r['tau']}"
                 for r in reps]


def _cmd_eval(args):
    prec, n, text = args.prec_bits, args.level, args.element
    # 'A,B,C', or 'A,B,C@n' with n the level given
    body, at, level_text = text.partition("@")
    parts = body.split(",")
    if len(parts) != 3:
        raise DomainError(f"expected 'A,B,C', got {text!r}")
    try:
        a, b, c = map(int, parts)
        level = int(level_text) if at else n
    except ValueError:
        raise DomainError(f"expected integers 'A,B,C' or 'A,B,C@n', got {text!r}") from None
    if level != n:
        raise DomainError(f"level {level} in {text!r} conflicts with {n}")
    alpha = EllipticElement(n, a, b, c)
    spec = catalog_lookup(n, args.group)
    value_re, value_im = value_text(evaluate(spec, fixed_point(alpha), prec), prec)
    obj = {"level": n, "group": args.group, "element": _commas(a, b, c),
           "disc": alpha.disc, "prec_bits": prec,
           "value_re": value_re, "value_im": value_im}
    return obj, [f"{value_re} {value_im}"]


def _cmd_verify(args):
    if not args.paper71:
        raise CfqError("nothing to verify: pass --paper71")
    # exact arithmetic for the root relations
    checks = {
        "class polynomial disc -71":
            ring_class_polynomial(71, "fricke", -71).poly == MINPOLY_DISC_71,
        "class polynomial disc -284":
            ring_class_polynomial(71, "fricke", -284).poly == MINPOLY_DISC_284,
        "beta^2-1-beta^-1 is a root of the disc -284 polynomial":
            verify_root_relation(RELATION_DISC_284, MINPOLY_DISC_284, WEBER_MINPOLY_71),
        "-beta^6+3beta^5-2beta^4+1 is a root of the disc -71 polynomial":
            verify_root_relation(RELATION_DISC_71, MINPOLY_DISC_71, WEBER_MINPOLY_71),
    }
    return checks, [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in checks.items()]


def _cmd_catalog(args):
    entries = catalog_entries()
    return entries, [f"{e['group']:7s} {e['level']:3d}  {e['kind']}" for e in entries]


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
        obj, lines = _COMMANDS[args.command](args)
    except CfqError as exc:
        err.write(f"cfq: error: {exc}\n")
        return 1
    if args.json:
        out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        out.writelines(line + "\n" for line in lines)
    # verify's object maps each check to its outcome
    return int(args.command == "verify" and not all(obj.values()))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
