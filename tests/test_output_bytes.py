"""The bytes `cfq class-poly --json` and `cfq eval` print, pinned for every key that computes."""

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
