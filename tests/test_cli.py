"""Command-line interface: outputs, JSON round trips, exit codes."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import cfq
from conftest import ball_mpc, level_keys
from cfq.classfield import singular_values
from cfq.cli import _decimal, run, value_digits, value_text
from cfq.elliptic import EllipticElement, fixed_point
from cfq.errors import RoundingFailureError
from cfq.exactpoly import IntPoly
from cfq.hauptmodul import ERROR_BITS, catalog_lookup, evaluate


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestClassPoly:
    def test_disc_71_text(self):
        code, out, _ = invoke(["class-poly", "-n", "71", "--group", "fricke", "-D", "-71"])
        assert code == 0
        assert out.strip() == "1,0,-2,-3,1,5,4,1"

    def test_disc_284_text(self):
        code, out, _ = invoke(["class-poly", "-n", "71", "--group", "fricke", "-D", "-284"])
        assert code == 0
        assert out.strip() == "-11,4,18,5,-11,-7,0,1"

    def test_json_round_trip(self):
        code, out, _ = invoke(
            ["class-poly", "-n", "71", "--group", "fricke", "-D", "-284", "--json"]
        )
        assert code == 0
        obj = json.loads(out)
        assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out
        assert obj["class_number"] == 7

    def test_not_genus_zero_exit_code(self):
        code, _, err = invoke(["class-poly", "-n", "11", "--group", "gamma0", "-D", "-44"])
        assert code == 1
        assert "genus" in err

    def test_rounding_failure_exit_code(self, monkeypatch):
        # a refused round is a domain-style error: exit 1, stdout empty
        import cfq.classfield

        def refuse(values, radius_log2, prec):
            raise RoundingFailureError(0.25, 0.125)

        monkeypatch.setattr(cfq.classfield, "certify_int_poly", refuse)
        code, out, err = invoke(["class-poly", "-n", "2", "--group", "gamma0", "-D", "-8"])
        assert code == 1 and out == ""
        assert err == "cfq: error: rounding residual 0.25 exceeds tolerance 0.125\n"

    def test_precision_below_64_bits_refused(self):
        # the same failure as `cfq eval --prec-bits 10`, not a silent 64
        for argv in (["class-poly", "-n", "2", "--group", "gamma0", "-D", "-8"],
                     ["eval", "-n", "2", "--group", "gamma0", "--element", "0,-1,1"]):
            code, out, err = invoke(argv + ["--prec-bits", "10"])
            assert code == 1 and out == ""
            assert err == "cfq: error: precision must be from 64 to 16384 bits, got 10\n"

    def test_json_history_and_radius(self, certify_calls):
        # one certified round at 64 bits, the published polynomial, and the
        # same polynomial from a 128-bit start
        argv = ["class-poly", "-n", "71", "--group", "fricke", "-D", "-71", "--json"]
        code, out, _ = invoke(argv)
        obj = json.loads(out)
        assert code == 0 and obj["prec_bits"] == 64 and certify_calls == [64]
        assert obj["poly"] == ["1", "0", "-2", "-3", "1", "5", "4", "1"]
        code, out, _ = invoke(argv + ["--prec-bits", "128"])
        high = json.loads(out)
        assert code == 0 and high["prec_bits"] == 128 and high["poly"] == obj["poly"]
        # about 2^(14 - prec)
        assert 0 < float(obj["r_max"]) < 2.0 ** (16 - obj["prec_bits"])

    def test_no_construction_exit_code(self):
        code, out, err = invoke(["class-poly", "-n", "59", "--group", "fricke", "-D", "-59"])
        assert code == 1 and out == ""
        assert err.startswith("cfq: error: ") and "no construction" in err

    def test_json_digits_within_the_bound(self):
        # every printed digit of the 64-bit values agrees with a 256-bit
        # evaluation, up to one unit in the last place that evaluate's bound
        # supports, and no digit past that place is printed
        code, out, _ = invoke(
            ["class-poly", "-n", "71", "--group", "fricke", "-D", "-71", "--json"]
        )
        digits = value_digits(64)
        assert code == 0 and digits == 18
        points = json.loads(out)["points"]
        exact = [ball_mpc(v) for v in singular_values(71, "fricke", -71, 256).values()]
        shortened = 0
        with mpmath.mp.workprec(256):
            for point, value in zip(points, exact):
                bound = mpmath.ldexp(max(1, abs(value)), ERROR_BITS - 64)
                for text, x in ((point["value_re"], value.real), (point["value_im"], value.imag)):
                    printed = mpmath.mpf(text)
                    if x == 0:
                        assert printed == 0
                        continue
                    supported = min(digits, int(mpmath.floor(mpmath.log10(abs(x) / bound))))
                    shortened += supported < digits
                    mantissa = text.lstrip("-").split("e")[0]
                    assert len(mantissa.replace(".", "").lstrip("0")) <= supported
                    ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(x))) - supported + 1)
                    assert abs(printed - x) <= ulp, (text, x)
        # the imaginary parts of the classes (8, +-2, 9) are below |t| / 50
        assert shortened == 2

    @pytest.mark.parametrize("key", level_keys(), ids=lambda k: "%d-%s%d" % k)
    def test_real_values_print_a_zero_imaginary_part(self, key):
        # h <= 2, so every class is its own inverse and every value is real;
        # 64-bit noise in the imaginary part lies far below evaluate's bound
        n, group, disc = key
        code, out, _ = invoke(
            ["class-poly", "-n", str(n), "--group", group, "-D", str(disc), "--json"]
        )
        points = json.loads(out)["points"]
        assert code == 0 and points
        assert all(point["value_im"] == "0.0" for point in points)


class TestClassGroup:
    def test_text_output(self):
        code, out, _ = invoke(["class-group", "-D", "-284"])
        assert code == 0
        lines = out.strip().splitlines()
        assert "1,0,71" in lines
        assert "h = 7" in lines
        assert len(lines) == 7 + 1 + 7      # forms, h line, table rows

    def test_json(self):
        code, out, _ = invoke(["class-group", "-D", "-71", "--json"])
        obj = json.loads(out)
        assert obj["class_number"] == 7
        assert obj["classes"][0] == "1,1,18"
        assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out

    def test_bad_disc(self):
        code, _, err = invoke(["class-group", "-D", "-3p"])
        assert code == 1


class TestReps:
    def test_disc_71(self):
        code, out, _ = invoke(["reps", "-n", "71", "-D", "-71"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("1,-36,2@71")

    def test_element_pastes_into_eval(self):
        # the first field of each line is an --element that eval accepts
        _, out, _ = invoke(["reps", "-n", "71", "-D", "-71"])
        for line in out.splitlines():
            code, value, _ = invoke(["eval", "-n", "71", "--group", "fricke",
                                     "--element", line.split()[0]])
            assert code == 0 and value

    def test_json_fields(self):
        code, out, _ = invoke(["reps", "-n", "71", "-D", "-284", "--json"])
        obj = json.loads(out)
        assert obj["representatives"][0]["element"] == "0,-1,1"
        assert obj["representatives"][0]["tau"] == "(0+1*sqrt(-71))/71"


class TestEval:
    def test_fricke_point(self):
        code, out, _ = invoke(
            ["eval", "-n", "71", "--group", "fricke", "--element", "0,-1,1"]
        )
        assert code == 0
        value = float(out.split()[0])
        assert abs(value - 3.0701356) < 1e-5

    def test_invalid_element(self):
        code, _, err = invoke(
            ["eval", "-n", "71", "--group", "fricke", "--element", "1,-36,3"]
        )
        assert code == 1

    @pytest.mark.parametrize("element", ["x,-1,1", "0,-1,1@"])
    def test_malformed_element_exit_code(self, element):
        code, out, err = invoke(
            ["eval", "-n", "71", "--group", "fricke", "--element", element]
        )
        assert (code, out) == (1, "")
        assert err.startswith("cfq: error: ") and repr(element) in err

    def test_text_roundtrip(self):
        code, out, _ = invoke(["eval", "-n", "71", "--group", "fricke",
                               "--element", "1,-36,2", "--json"])
        obj = json.loads(out)
        assert code == 0 and obj["element"] == "1,-36,2"
        value = evaluate(catalog_lookup(71, "fricke"), fixed_point(EllipticElement(71, 1, -36, 2)), 256)
        assert (obj["value_re"], obj["value_im"]) == value_text(value, 256)

    def test_text_with_level_suffix(self):
        def run_eval(n, element):
            return invoke(["eval", "-n", n, "--group", "fricke", "--element", element])

        assert run_eval("71", "1,-36,2@71") == run_eval("71", "1,-36,2")
        assert run_eval("5", "0,-1,1@5") == run_eval("5", "0,-1,1")
        assert run_eval("5", "0,-1,1")[0] == 0
        code, out, err = run_eval("5", "1,-36,2@71")
        assert (code, out) == (1, "") and "conflicts with 5" in err

    @pytest.mark.parametrize("text", ["x,-1,1", "0,-1,1@", "0,-1,1@x", "0,,1", "0,-1"])
    def test_malformed_text_refused(self, text):
        code, out, err = invoke(["eval", "-n", "71", "--group", "fricke", "--element", text])
        assert (code, out) == (1, "") and "got" in err

    def test_element_text_refusals_pinned(self):
        # the exit code and stderr of each --element text
        cases = ["x,-1,1", "0,-1,1@", "0,-1,1@x", "0,,1", "0,-1", "1,-36,2@5", "1,-36,2@071",
                 "1,-36,2@71", "1,-36,3", "0,-1,1,2", " 1,-36,2", "1,-36,2@ 71"]
        digest = hashlib.sha256()
        for text in cases:
            code, _, err = invoke(["eval", "-n", "71", "--group", "fricke", "--element", text,
                                   "--prec-bits", "64"])
            digest.update(f"{text!r} {code} {err!r}\n".encode())
        assert digest.hexdigest() == (
            "f598ff40720629978c4ea88ee6493269cf33065293c654ff8fc141b640982c18")

    def test_json(self):
        code, out, _ = invoke(
            ["eval", "-n", "2", "--group", "fricke", "--element", "0,-1,1", "--json"]
        )
        obj = json.loads(out)
        assert obj["disc"] == -8
        assert obj["value_re"].startswith("152.0")

    @pytest.mark.parametrize("element,disc", [("1,-36,2", -71), ("0,-1,1", -284)])
    def test_json_disc(self, element, disc):
        # -n when B and C are both even, -4n otherwise
        code, out, _ = invoke(["eval", "-n", "71", "--group", "fricke",
                               "--element", element, "--json"])
        assert code == 0 and json.loads(out)["disc"] == disc

    @pytest.mark.parametrize("prec", ["40", "20000"])
    def test_precision_out_of_range_refused(self, prec):
        # the range of class-poly's first round: 64 to 16384 bits
        code, out, err = invoke(["eval", "-n", "2", "--group", "gamma0", "--element", "0,-1,1",
                                 "--prec-bits", prec])
        assert (code, out) == (1, "")
        assert err.startswith("cfq: error: ")

    def test_precision_above_the_ceiling_names_the_range(self):
        # both subcommands name the range the user can choose from, not a
        # ceiling field they never set
        for argv in (["class-poly", "-n", "2", "--group", "gamma0", "-D", "-8"],
                     ["eval", "-n", "2", "--group", "gamma0", "--element", "0,-1,1"]):
            code, out, err = invoke(argv + ["--prec-bits", "20000"])
            assert (code, out) == (1, "")
            assert err == "cfq: error: precision must be from 64 to 16384 bits, got 20000\n"

    def test_exact_value_prints_no_noise(self):
        # the element fixes 1 + sqrt(-2)/2, where the level-2 principal
        # modulus is the root of the class polynomial x - 88 of disc -8
        code, out, _ = invoke(["eval", "-n", "2", "--group", "gamma0", "--element", "1,-3,1"])
        assert (code, out) == (0, "88.0 0.0\n")


class TestVerify:
    def test_paper71_suite(self):
        code, out, _ = invoke(["verify", "--paper71"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)

    def test_requires_flag(self):
        code, _, err = invoke(["verify"])
        assert code == 1

    def test_failed_check_exits_1(self, monkeypatch):
        # x * H71 is not the class polynomial, but still has the root that
        # the Weber relation names: exactly one check fails
        import cfq.cli

        wrong = IntPoly((0,) + cfq.cli.MINPOLY_DISC_71.coeffs)
        monkeypatch.setattr(cfq.cli, "MINPOLY_DISC_71", wrong)
        code, out, _ = invoke(["verify", "--paper71"])
        lines = out.splitlines()
        assert code == 1 and len(lines) == 4
        assert [line for line in lines if not line.startswith("PASS ")] == [
            "FAIL class polynomial disc -71"]
        code, out, _ = invoke(["verify", "--paper71", "--json"])
        obj = json.loads(out)
        assert code == 1 and len(obj) == 4
        assert [name for name, ok in obj.items() if not ok] == ["class polynomial disc -71"]


class TestCatalog:
    def test_inventory(self):
        code, out, _ = invoke(["catalog"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 52
        assert "fricke   71  theta-quotient" in lines
        # a listed level with no construction says so
        assert "fricke   59  none" in lines
        assert sum(line.endswith("  none") for line in lines) == 20
        # level 1 is computed from an eta quotient: no data column
        assert "gamma0    1  eta-quotient" in lines

    def test_json_round_trip(self):
        code, out, _ = invoke(["catalog", "--json"])
        obj = json.loads(out)
        assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def _leading(x: Fraction) -> int:
    """k with 10^k <= |x| < 10^(k+1), by integer comparisons."""
    a, b = abs(x.numerator), x.denominator
    k = (a.bit_length() - b.bit_length()) * 3 // 10
    while (10**(k + 1) * b <= a) if k >= -1 else (b <= a * 10**(-k - 1)):
        k += 1
    while (10**k * b > a) if k >= 0 else (b > a * 10**-k):
        k -= 1
    return k


@contextmanager
def _no_digit_limit():
    # Fraction(text) converts the digits with int(), which refuses more
    # than 4,300 by default
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def check_decimal(x: Fraction, n: int) -> str:
    """_decimal(x, n), checked against x exactly: the value, the digits and the layout."""
    text = _decimal(x, n)
    if not x:
        assert text == "0.0"
        return text
    with _no_digit_limit():
        y = Fraction(text)
    # within half a unit of the n-th digit, ties away from zero
    half = Fraction(10) ** (_leading(x) - n + 1) / 2
    assert abs(y - x) <= half, (x, n, text)
    assert abs(y - x) < half or abs(y) > abs(x), (x, n, text)
    mantissa, _, _ = text.partition("e")
    digits = mantissa.lstrip("-").replace(".", "").lstrip("0")
    assert len(digits) <= n or set(digits[n:]) == {"0"}
    # trailing zeros stripped down to one digit after the point
    assert "." in mantissa and (mantissa.endswith(".0") or not mantissa.endswith("0"))
    # fixed point exactly for min(-(n // 3), -5) < k < n, k the printed exponent
    fixed = min(-(n // 3), -5) < _leading(y) < n
    assert ("e" not in text) == fixed, (x, n, text)
    return text


class TestDecimal:
    """The decimal printer of every number the CLI shows, against exact rationals."""

    def test_ties_round_away_from_zero(self):
        assert check_decimal(Fraction(1, 8), 2) == "0.13"
        assert check_decimal(Fraction(-1, 8), 2) == "-0.13"
        assert check_decimal(Fraction(5, 2), 1) == "3.0"
        assert check_decimal(Fraction(0), 10) == "0.0"

    def test_carry_into_a_new_digit(self):
        assert check_decimal(Fraction(9995, 10000), 3) == "1.0"
        assert check_decimal(Fraction(-99995, 10), 4) == "-1.0e+4"
        assert check_decimal(Fraction(99995, 10**10), 4) == "1.0e-5"

    @pytest.mark.parametrize("n", [1, 2, 10, 18, 30])
    def test_both_sides_of_each_layout_switch(self, n):
        low = min(-(n // 3), -5)
        for k in (n - 1, n, low, low + 1):
            for lead in (1, 7, -3):
                text = check_decimal(Fraction(lead * 10**(k + 40) + 12345, 10**40), n)
                assert ("e" in text) == (k in (n, low))

    @pytest.mark.parametrize("n", [1, 3, 10, 17, 18, 50, 300])
    def test_random_fractions(self, n):
        rng = random.Random(n)
        for _ in range(400):
            x = Fraction(rng.randrange(-10**rng.randrange(1, 60), 10**rng.randrange(1, 60)),
                         rng.randrange(1, 10**rng.randrange(1, 60)))
            check_decimal(x, n)
            check_decimal(x * Fraction(10) ** rng.randrange(-40, 40), n)

    def test_past_the_str_digit_limit(self):
        # 4,929 digits, the most a 16384-bit value prints
        n = 4929
        assert check_decimal(Fraction(1, 3), n) == "0." + "3" * n
        assert check_decimal(Fraction(-2, 3), n) == "-0." + "6" * (n - 1) + "7"
        rng = random.Random(n)
        x = Fraction(rng.getrandbits(16384) | 1 << 16383, 1 << 16384)
        assert len(check_decimal(x, n)) == n + 2

    def test_near_the_smallest_residual(self):
        # 2^-16384 is about 10^-4932
        assert check_decimal(Fraction(1, 1 << 16384), 10) == "8.405257858e-4933"
        check_decimal(Fraction(-3, 10**4932 + 1), 10)
        check_decimal(Fraction(10**4940 - 1, 10**9872), 4929)


class TestParsing:
    def test_unknown_command(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 1

    def test_missing_required(self):
        code, _, _ = invoke(["class-poly", "-n", "71"])
        assert code == 1

    @pytest.mark.parametrize("argv", [["class-group", "-D", "-71"],
                                      ["reps", "-n", "71", "-D", "-71"],
                                      ["class-poly", "-n", "71", "--group", "fricke", "-D", "-71"],
                                      ["eval", "-n", "71", "--group", "fricke",
                                       "--element", "0,-1,1"],
                                      ["verify", "--paper71"],
                                      ["catalog"]])
    def test_data_dir_only_where_read(self, argv, capsys):
        # no command reads a data file, so none takes --data-dir
        code, out, _ = invoke(argv + ["--data-dir", "x"])
        assert code == 1 and out == ""
        assert "unrecognized arguments: --data-dir x" in capsys.readouterr().err


# run in a fresh interpreter: the package and every command it is asked for
# on the standard library alone
STANDARD_LIBRARY_ONLY = """
import io, sys
import cfq
from cfq import cli
cfq.ring_class_polynomial(12, "gamma0", -48)
for argv in (["verify", "--paper71"],
             ["class-poly", "-n", "71", "--group", "fricke", "-D", "-284", "--json"],
             ["eval", "-n", "2", "--group", "gamma0", "--element", "0,-1,1"]):
    assert cli.run(argv, out=io.StringIO()) == 0, argv
# no mpmath, and no dataclasses or the inspect it pulls in, which cost start-up time
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] in ("mpmath", "dataclasses", "inspect"))
assert not loaded, loaded[:5]
"""


def _python(*argv, **env):
    """A fresh interpreter on argv, with env set, importing the cfq this
    process imported: src/ in a checkout, site-packages in an install."""
    home = Path(cfq.__file__).resolve().parents[1]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(home), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_no_mpmath_loaded():
    done = _python("-c", STANDARD_LIBRARY_ONLY)
    assert done.returncode == 0, done.stderr


def test_python_m_runs_the_command():
    # `python -m cfq.cli` is the `cfq` entry point, exit code included
    done = _python("-m", "cfq.cli", "verify", "--paper71")
    lines = done.stdout.splitlines()
    assert done.returncode == 0 and len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines)
    done = _python("-m", "cfq.cli", "frobnicate")
    assert done.returncode == 1 and done.stdout == ""
    assert "invalid choice" in done.stderr


def test_same_bytes_under_two_hash_seeds():
    # no output depends on the order of a set or dict of str keys
    argv = ["-m", "cfq.cli", "class-poly", "-n", "71", "--group", "fricke", "-D", "-71", "--json"]
    runs = [_python(*argv, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert [done.returncode for done in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout == invoke(argv[2:])[1]
