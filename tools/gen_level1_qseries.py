#!/usr/bin/env python3
"""Generate the level-1 principal-modulus coefficient file (data/gamma0_1.qseries).

The function is the elliptic modular invariant normalized with zero constant
term: E4(q)^3 / Delta(q) - 744, computed by exact integer power-series
arithmetic.  The first coefficients are asserted against their universally
known values.
"""

from pathlib import Path

from gen_fricke71_qseries import conv, pentagonal_unit

N_COEFFS = 512
LEN = N_COEFFS + 4

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / "src" / "cfq" / "data" / "gamma0_1.qseries"


def main():
    sig3 = [0] * LEN
    for d in range(1, LEN):
        d3 = d ** 3
        for m in range(d, LEN, d):
            sig3[m] += d3
    e4 = [1] + [240 * sig3[n] for n in range(1, LEN)]
    e4cubed = conv(conv(e4, e4, LEN), e4, LEN)

    u = pentagonal_unit(LEN)
    u2 = conv(u, u, LEN)
    u4 = conv(u2, u2, LEN)
    u8 = conv(u4, u4, LEN)
    u16 = conv(u8, u8, LEN)
    u24 = conv(u16, u8, LEN)          # prod (1-q^n)^24

    # j = q^-1 * E4^3 / u24: solve W * u24 = E4^3 as power series
    w = [0] * LEN
    for m in range(LEN):
        acc = e4cubed[m]
        for k in range(m):
            if w[k]:
                acc -= w[k] * u24[m - k]
        w[m] = acc

    # w[k] = coefficient of q^(k-1) in j
    assert w[0] == 1
    assert w[1] == 744
    assert w[2] == 196884
    assert w[3] == 21493760
    assert w[4] == 864299970
    w[1] = 0                          # zero constant term

    lines = ["# label=1A level=1 group=gamma0 q_min=-1"]
    lines += [str(w[k]) for k in range(N_COEFFS)]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({N_COEFFS} coefficients)")


if __name__ == "__main__":
    main()
