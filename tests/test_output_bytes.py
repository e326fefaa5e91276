"""The bytes every `cfq` subcommand prints, pinned: class-poly and eval for every key that computes."""

import hashlib
import io
import json

import pytest

from conftest import level_keys
from cfq import cli
from cfq.numerics import MAX_PREC_BITS

# every catalog key that computes: the degree-law sweep and the three theta levels
KEYS = level_keys() + [(71, "fricke", -71), (71, "fricke", -284),
                       (47, "fricke", -47), (47, "fricke", -188),
                       (23, "fricke", -23), (23, "fricke", -92)]

# sha256 over the output of `class-poly --json` and of `eval` at each
# representative, for every key in order
PINS = {
    64: "b71e14d00b1bd5b889880dae65bead1c7ba62c46ff632d8dce2220e18dcbbe57",
    1024: "9662acb4b9b1de53a2962beb67592b183d5a46ff787a1b7cb490db1b25729413",
}


def _run(argv) -> str:
    out = io.StringIO()
    assert cli.run(argv, out=out) == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("prec", sorted(PINS))
def test_output_bytes_pinned(prec):
    assert len(KEYS) == 39
    digest = hashlib.sha256()
    for n, group, disc in KEYS:
        key = ["-n", str(n), "--group", group, "--prec-bits", str(prec)]
        text = _run(["class-poly", *key, "-D", str(disc), "--json"])
        obj = json.loads(text)
        # the CI parses both as floats
        assert float(obj["residual"]) + float(obj["r_max"]) < 0.5
        digest.update(text.encode())
        for point in obj["points"]:
            digest.update(_run(["eval", *key, "--element", point["element"]]).encode())
    assert digest.hexdigest() == PINS[prec]


def test_eval_bytes_at_the_ceiling():
    # 4,929 significant digits a part, past the 4,300 that str() converts
    out = _run(["eval", "-n", "71", "--group", "fricke", "--element", "1,-36,2",
                "--prec-bits", str(MAX_PREC_BITS)])
    assert len(out) == 4938
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "210bbeb6a360d38881121518101505a4310a43db1eb7b28a6644dfcd728fb447"
    )


def test_class_poly_json_at_the_ceiling():
    # a residual near 10^-4932 prints with 10 digits and parses as a float
    obj = json.loads(_run(["class-poly", "-n", "23", "--group", "fricke", "-D", "-23",
                           "--prec-bits", str(MAX_PREC_BITS), "--json"]))
    assert obj["poly"] == ["7", "11", "6", "1"]
    assert "e-" in obj["residual"] and len(obj["residual"].split("e")[0]) <= 11
    assert 0 <= float(obj["residual"]) + float(obj["r_max"]) < 0.5


def _key_argvs():
    # class-poly text and eval --json at each representative, default precisions
    for n, group, disc in KEYS:
        key = ["-n", str(n), "--group", group]
        yield ["class-poly", *key, "-D", str(disc)]
        obj = json.loads(_run(["class-poly", *key, "-D", str(disc), "--json"]))
        for point in obj["points"]:
            yield ["eval", *key, "--element", point["element"], "--json"]


def _both(argvs):
    # each command as text and as JSON
    return [argv + fmt for argv in argvs for fmt in ([], ["--json"])]


# sha256 over the output of each command in order, every one exiting 0
COMMAND_PINS = {
    "keys": (_key_argvs, 122,
             "54930f6762bad3cb0ce720559fd1a8be0aa8bb14366a467d11d7be3577dbe2c2"),
    # h = 30 for -3692
    "class-group": (lambda: _both([["class-group", "-D", str(d)]
                                   for d in (-3, -4, -284, -3692)]), 8,
                    "ca433ab04dc27788419492bd37e63714d929bf44eb1aabd66b2967903c57dc1e"),
    "reps": (lambda: _both([["reps", "-n", str(n), "-D", str(d)]
                            for n, d in ((71, -71), (71, -284), (2, -8), (3, -3))]), 8,
             "5f04ac6b26aa291da93fd70db19b8d1a3f6a9c334f3cddea792caa30ff41d404"),
    "catalog": (lambda: _both([["catalog"]]), 2,
                "34069cfe8ce727b21b1ac9c2fe5f8582e9c400e4e541e3b14e70ae65a002b011"),
    "verify": (lambda: _both([["verify", "--paper71"]]), 2,
               "c8c6d2738f1d9a4ff5263784721c5daf66d5cbf7a594ca28419bb7239f263e11"),
}


@pytest.mark.parametrize("name", sorted(COMMAND_PINS))
def test_subcommand_bytes_pinned(name):
    argvs, count, pin = COMMAND_PINS[name]
    argvs = list(argvs())
    assert len(argvs) == count
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(_run(argv).encode())
    assert digest.hexdigest() == pin
