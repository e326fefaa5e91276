"""Shared helpers: independent oracles and random group-element generators."""

from __future__ import annotations

import random
from math import gcd

import mpmath
from mpmath import mp

from cfq.quadforms import _extgcd


def cpx(re, im, prec) -> mpmath.mpc:
    """re + i*im, parsed and rounded at prec bits."""
    with mp.workprec(prec):
        return mp.mpc(re, im)


def rounded(z, prec) -> mpmath.mpc:
    """The complex number z rounded to prec bits."""
    with mp.workprec(prec):
        return +z


def brute_force_class_count(d: int) -> int:
    """Formula-free count of reduced primitive forms by raw (a, b, c) scan."""
    count = 0
    amax = 1
    while 3 * amax * amax <= -d:
        amax += 1
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            for c in range(a, (b * b - d) // (4 * a) + 2):
                if b * b - 4 * a * c != d:
                    continue
                if not (-a < b <= a <= c):
                    continue
                if (a == c or a == abs(b)) and b < 0:
                    continue
                if gcd(gcd(a, b), c) == 1:
                    count += 1
    return count


def random_sl2(rng: random.Random, bound: int = 50):
    """Random SL2(Z) matrix with entries bounded by `bound`."""
    while True:
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if (c, d) == (0, 0) or gcd(c, d) != 1:
            continue
        g, u, v = _extgcd(d, -c)
        assert g == 1
        a, b = u, v
        # a*d - b*c = 1 already; shift (a, b) by multiples of (c, d) to bound
        if c or d:
            if abs(a) > bound or abs(b) > bound:
                continue
        return a, b, c, d


def random_gamma0(rng: random.Random, n: int):
    """Random element of Gamma0(n) with modest entries."""
    while True:
        k = rng.randint(-2, 2)
        c = n * k
        d = rng.randint(-9, 9)
        if (c, d) == (0, 0) or gcd(c, d) != 1:
            continue
        g, u, v = _extgcd(d, -c)
        if g != 1:
            continue
        return u, v, c, d


def mobius(m, tau):
    a, b, c, d = m
    return (a * tau + b) / (c * tau + d)


def eta_direct_series(tau, prec):
    """Pentagonal series summed directly at tau, no modular reduction.

    Independent oracle; only sensible when Im(tau) is large enough for the
    series to converge well.
    """
    with mp.workprec(prec + 16):
        q24 = mp.exp(mp.mpc(0, 1) * mp.pi * tau / 12)
        q = q24 ** 24
        total = mp.mpc(1)
        k = 1
        while True:
            e1 = k * (3 * k - 1) // 2
            e2 = k * (3 * k + 1) // 2
            t1 = q ** e1
            t2 = q ** e2
            term = t1 + t2
            total = total - term if k % 2 else total + term
            if abs(t1) < mp.mpf(2) ** (-prec - 12):
                break
            k += 1
        return q24 * total
