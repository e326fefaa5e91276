"""Polynomial assembly, rounding, and the precision contract."""

import itertools
import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import mp

import cfq.numerics
from conftest import (
    H71, H284, WEBER, assert_bits_bound_the_coefficients, ball_mpc, cpx, mpc_ball, rounded,
)
from cfq.classfield import singular_values
from cfq.elliptic import CMPoint, EllipticElement, fixed_point
from cfq.errors import DomainError, RoundingFailureError
from cfq.eta import EtaQuotientSpec, _pentagonal, eta_quotient
from cfq.exactpoly import IntPoly, LaurentExpr, verify_root_relation
from cfq.hauptmodul import ERROR_BITS, _theta_numerator, catalog_lookup, evaluate
from cfq.numerics import (
    MAX_PREC_BITS,
    _GUARD,
    _bits,
    MIN_PREC_BITS,
    Ball,
    PrecisionPolicy,
    _SeriesTable,
    _coefficient_radius,
    _csqrt,
    _div,
    _exp,
    _exp_i_pi,
    _exp_plan,
    _expand,
    _fixed_series,
    _group_roots,
    _ln2,
    _mul,
    _nearest,
    _pi,
    _powers,
    _root,
    _round,
    _sum,
    certify_int_poly,
)


def polyroots(p: IntPoly, prec: int) -> list:
    """The roots of p from mpmath's polyroots, rounded to prec bits."""
    with mp.workprec(prec):
        roots = mpmath.polyroots(p.coeffs[::-1], maxsteps=200, extraprec=prec)
        return [+mp.mpc(r) for r in roots]


@st.composite
def series_points(draw):
    """(q, w): a scaled point with |q| <= 0.95 and its scale."""
    w = draw(st.integers(min_value=64, max_value=1100))
    r = draw(st.floats(min_value=0, max_value=0.95))
    theta = draw(st.floats(min_value=0, max_value=2 * math.pi))
    # 52 bits from the double, then arbitrary low bits below them
    q = [int(r * f(theta) * 2**52) << (w - 52) | draw(st.integers(0, (1 << (w - 53)) - 1))
         for f in (math.cos, math.sin)]
    return tuple(q), w


def least_bits(coeffs) -> int:
    """The least b >= 0 with |c| <= 2^b for every c in coeffs: a table's bits[len(coeffs)]."""
    return max((max(abs(c) - 1, 0).bit_length() for c in coeffs), default=0)


@st.composite
def series_cases(draw):
    """(q, exponents, coeffs, w): |q| <= 0.95, dense or sparse exponents."""
    q, w = draw(series_points())
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=5))
        exponents = range(start, start + draw(st.integers(min_value=0, max_value=60)))
    else:
        exponents = sorted(draw(st.lists(st.integers(min_value=0, max_value=400), max_size=40)))
    coeffs = draw(st.lists(st.integers(min_value=-(2**64), max_value=2**64),
                           min_size=len(exponents), max_size=len(exponents)))
    return q, exponents, coeffs, w


@st.composite
def long_series_cases(draw):
    """(q, exponents, coeffs, w): dense ranges of up to 1,200 terms."""
    q, w = draw(series_points())
    start = draw(st.integers(min_value=0, max_value=5))
    exponents = range(start, start + draw(st.integers(min_value=100, max_value=1200)))
    coeffs = draw(st.lists(st.integers(min_value=-(2**90), max_value=2**90),
                           min_size=len(exponents), max_size=len(exponents)))
    return q, exponents, coeffs, w


@st.composite
def powered_cases(draw):
    """(q, exponents, coeffs, w, m): a series and a block size m in [1, e_max]."""
    q, exponents, coeffs, w = draw(series_cases())
    assume(len(exponents) and exponents[-1] >= 1)
    return q, exponents, coeffs, w, draw(st.integers(1, exponents[-1]))


def root_powers(q, exponents, w):
    """_powers(q, isqrt(e_max) + 1, w), e_max the last exponent (0 if none)."""
    return _powers(q, isqrt(exponents[-1] if len(exponents) else 0) + 1, w)


def series_sum(exponents, coeffs, powers):
    """`_fixed_series` over all of the table of exponents and coeffs."""
    return _fixed_series(_SeriesTable(exponents, coeffs), len(exponents), powers)


def assert_within_bound(q, exponents, coeffs, w, powers=None):
    """The kernel's sum is within its returned bound of an mpmath sum at w + 300 bits.

    Without given powers, the blocks hold isqrt(e_max) + 1 exponents.
    """
    if powers is None:
        powers = root_powers(q, exponents, w)
    sr, si, bound = series_sum(exponents, coeffs, powers)
    with mp.workprec(w + 300):
        scale = mp.mpf(2) ** w
        x = mp.mpc(*q) / scale
        # each power from the one before, 300 bits below the kernel's scale
        powers, p, prev = [], mp.mpc(1), 0
        for e in exponents:
            p *= x ** (e - prev)
            powers.append(p)
            prev = e
        want = mp.fsum(map(mp.fmul, coeffs, powers))
        assert abs(mp.mpc(sr, si) - want * scale) <= bound
    return bound


def two_lane_series(q, exponents, coeffs, w, m):
    """The kernel's sum on unpacked powers, two dot products a block: its reference.

    The same chain of powers, the same blocks and the same giant steps as
    `_fixed_series`, with q^i held as the two ints (x_i, y_i), and the
    bound's b from the coefficients summed.
    """
    qr, qi = q
    baby_r, baby_i = [1 << w], [0]
    for _ in range(m):
        pr, pi = baby_r[-1], baby_i[-1]
        baby_r.append((pr * qr - pi * qi) >> w)
        baby_i.append((pr * qi + pi * qr) >> w)
    big_r, big_i = baby_r.pop(), baby_i.pop()
    if not len(exponents):
        return 0, 0, 0.0
    local = [e % m for e in exponents]
    terms_r = [c * baby_r[i] for c, i in zip(coeffs, local)]
    terms_i = [c * baby_i[i] for c, i in zip(coeffs, local)]
    top = exponents[-1] // m
    acc_r = acc_i = 0
    hi = len(exponents)
    for k in range(top, -1, -1):
        lo = bisect_left(exponents, k * m, 0, hi)
        acc_r, acc_i = (((acc_r * big_r - acc_i * big_i) >> w) + sum(terms_r[lo:hi]),
                        ((acc_r * big_i + acc_i * big_r) >> w) + sum(terms_i[lo:hi]))
        hi = lo
    return acc_r, acc_i, 1.5 * 2.0**least_bits(coeffs) * sum(exponents) + 1.5 * top


def four_product_powers(q, m, w):
    """`_powers` with each step the four-product complex product: its reference."""
    qr, qi = q
    lane = w + (w >> 2) + 128
    pr, pi = 1 << w, 0
    baby = [pr]
    for _ in range(m - 1):
        pr, pi = (pr * qr - pi * qi) >> w, (pr * qi + pi * qr) >> w
        baby.append(pr + (pi << lane))
    return q, w, baby, lane, (pr * qr - pi * qi) >> w, (pr * qi + pi * qr) >> w


def lane_room(w, coeff_bits):
    """Bits a block's term count may take: the lane w + floor(w/4) + 128, less w + 1 + b."""
    return (w >> 2) + 127 - coeff_bits


@st.composite
def oracle_cases(draw):
    """(q, exponents, coeffs, w, m): q inside or on the premise's edge.

    Coefficients of either sign up to 2^b, b from 0 to 16, the theta
    numerator's range, or the size of an n! as exp sums, and m from 1 to
    past e_max.
    """
    w = draw(st.integers(16, 3000))
    exponents = sorted(draw(st.lists(st.integers(0, 300), min_size=1, max_size=60)))
    m = draw(st.integers(1, exponents[-1] + 3))
    bits = draw(st.one_of(st.integers(0, 16),
                          st.integers(1, 130).map(lambda n: math.factorial(n).bit_length())))
    coeffs = draw(st.lists(st.one_of(st.sampled_from([1 << bits, -(1 << bits)]),
                                     st.integers(-(1 << bits), 1 << bits)),
                           min_size=len(exponents), max_size=len(exponents)))
    # |q| = 1 - 2 max(e_max, m) 2^-w exactly or by a floor, at any angle
    edge = (1 << w) - 2 * max(exponents[-1], m)
    qr = draw(st.integers(-edge, edge))
    qi = isqrt(edge * edge - qr * qr) * draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        qr, qi = qr >> draw(st.integers(0, w)), qi >> draw(st.integers(0, w))
    return (qr, qi), exponents, coeffs, w, m


class TestFixedSeries:
    """The one summation kernel against a plain mpmath sum at the same q."""

    @settings(max_examples=200, deadline=None)
    @given(case=series_cases())
    def test_within_stated_bound(self, case):
        q, exponents, coeffs, w = case
        sr, si, bound = series_sum(exponents, coeffs, root_powers(q, exponents, w))
        with mp.workprec(w + 300):
            scale = mp.mpf(2) ** w
            x = mp.mpc(*q) / scale
            want = mp.fsum(c * x**e for e, c in zip(exponents, coeffs))
            assert abs(mp.mpc(sr, si) - want * scale) <= bound

    @settings(max_examples=25, deadline=None)
    @given(case=long_series_cases())
    def test_blocked_within_stated_bound(self, case):
        # many terms, in many blocks of isqrt(e_max) + 1 exponents
        assert_within_bound(*case)

    @pytest.mark.parametrize("alternating", [False, True], ids=["equal", "alternating"])
    def test_blocked_worst_case(self, alternating):
        # the longest level-71 series at 128 bits: |q| = 0.911, every
        # coefficient of the largest modulus the bound allows, w = 282
        w, bits = 282, 84
        q = tuple(int(0.911 * f(1.0) * 2**52) << (w - 52) for f in (math.cos, math.sin))
        exponents = range(1600)
        coeffs = [(-1) ** (k * alternating) << bits for k in exponents]
        bound = assert_within_bound(q, exponents, coeffs, w)
        assert bound == 1.5 * 2**bits * sum(exponents) + 1.5 * (1599 // 40)
        powers = root_powers(q, exponents, w)
        assert series_sum(exponents, coeffs, powers) == series_sum(list(exponents), coeffs, powers)

    @pytest.mark.parametrize("exponents,giant_steps", [
        # 121 terms in blocks of 51 exponents, blocks 3 .. 48 empty
        (list(range(120)) + [2500], 49),
    ], ids=["empty-blocks"])
    def test_exponent_gap(self, exponents, giant_steps):
        w = 192
        q = (int(0.9 * 2**52) << (w - 52), int(0.3 * 2**52) << (w - 52))
        coeffs = [(-1) ** k * (k + 1) for k in range(len(exponents))]
        # |c| <= 121 <= 2^7
        bound = assert_within_bound(q, exponents, coeffs, w)
        assert bound == 1.5 * 2**7 * sum(exponents) + 1.5 * giant_steps

    @settings(max_examples=50, deadline=None)
    @given(case=series_cases())
    def test_range_and_list_agree(self, case):
        q, exponents, coeffs, w = case
        powers = root_powers(q, exponents, w)
        assert series_sum(exponents, coeffs, powers) == series_sum(list(exponents), coeffs, powers)

    @settings(max_examples=100, deadline=None)
    @given(case=powered_cases())
    def test_given_powers_within_stated_bound(self, case):
        # any block size: the sum against powers built once is within the
        # bound, which counts one giant step per block below the top
        q, exponents, coeffs, w, m = case
        bound = assert_within_bound(q, exponents, coeffs, w, _powers(q, m, w))
        assert bound == (1.5 * 2**least_bits(coeffs) * sum(exponents)
                         + 1.5 * (exponents[-1] // m))

    @settings(max_examples=50, deadline=None)
    @given(e_max=st.integers(1, 300), m=st.integers(1, 600), over=st.integers(1, 4),
           w=st.integers(64, 400))
    def test_given_powers_premise(self, e_max, m, over, w):
        # |q| <= 1 - 2 max(e_max, m) 2^-w holds on the edge and fails past it
        exponents = range(e_max + 1)
        edge = (1 << w) - 2 * max(e_max, m)
        series_sum(exponents, [1] * (e_max + 1), _powers((edge, 0), m, w))
        with pytest.raises(DomainError):
            series_sum(exponents, [1] * (e_max + 1), _powers((edge + over, 0), m, w))

    @settings(max_examples=300, deadline=None)
    @given(case=oracle_cases())
    def test_packed_powers_match_the_two_lane_sum(self, case):
        # bit for bit, wherever each block's terms fit the lane, and a
        # DomainError wherever one does not
        q, exponents, coeffs, w, m = case
        most = max(Counter(e // m for e in exponents).values())
        if most.bit_length() <= lane_room(w, least_bits(coeffs)):
            assert (series_sum(exponents, coeffs, _powers(q, m, w))
                    == two_lane_series(q, exponents, coeffs, w, m))
        else:
            with pytest.raises(DomainError, match="lane"):
                series_sum(exponents, coeffs, _powers(q, m, w))

    @settings(max_examples=60, deadline=None)
    @given(w=st.integers(16, 16400), m=st.integers(1, 600), data=st.data())
    def test_three_product_steps_match_four(self, w, m, data):
        # q on the unit circle at any angle, or floored inside it: the
        # three-product steps give the four-product chain bit for bit
        one = 1 << w
        qr = data.draw(st.integers(-one, one))
        qi = isqrt(one * one - qr * qr) * data.draw(st.sampled_from([1, -1]))
        q = qr >> data.draw(st.integers(0, w)), qi >> data.draw(st.integers(0, w))
        assert _powers(q, m, w) == four_product_powers(q, m, w)

    @pytest.mark.parametrize("w", [16, 64, 112, 1072])
    @pytest.mark.parametrize("count", [1, 3, 7, 15])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_lane_holds_its_widest_block(self, w, count, sign):
        # count terms at q^0 = 2^w, each coefficient +-2^b with b the most
        # the lane admits: the low lane sums to +-count 2^(b + w), within
        # one bit of its half, and is read back exactly; a lane one bit
        # narrower would carry.  With one coefficient past 2^b, so that the
        # table's bound is one bit wider, or one term more, the kernel refuses
        bits = lane_room(w, 0) - count.bit_length()
        exponents, powers = [0] * count, _powers(((1 << w) - 2, 0), 1, w)
        coeffs = [sign << bits] * count
        sr, si, _ = series_sum(exponents, coeffs, powers)
        assert (sr, si) == (sign * count << (bits + w), 0)
        wide = coeffs[1:] + [sign * ((1 << bits) + 1)]
        assert _SeriesTable(exponents, wide).bits[count] == bits + 1
        with pytest.raises(DomainError, match="lane"):
            series_sum(exponents, wide, powers)
        with pytest.raises(DomainError, match="lane"):
            series_sum([0] * (count + 1), coeffs + [1], powers)

    def test_sparse_powers_exact_for_q_of_two(self):
        # q = 1/2 has exact powers above 2^-w, so the sum is exact
        w = 128
        exponents = [0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40]
        coeffs = [1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1]
        q = (1 << (w - 1), 0)
        sr, si, _ = series_sum(exponents, coeffs, root_powers(q, exponents, w))
        assert si == 0
        assert sr == sum(c << (w - e) for e, c in zip(exponents, coeffs))

    def test_rejects_point_too_near_the_unit_circle(self):
        w = 64
        q = ((1 << w) - 4, 0)
        with pytest.raises(DomainError):
            series_sum(range(10), [1] * 10, root_powers(q, range(10), w))


class TestSeriesTable:
    """A series table's checks, made once when it is built, and the kernel on its prefixes."""

    def test_rejects_decreasing_exponents(self):
        with pytest.raises(DomainError, match="nondecreasing"):
            _SeriesTable([0, 3, 2], [1, 1, 1])

    @pytest.mark.parametrize("exponents", [range(10, 0, -1), [0, 1, 2, 3, 4, 5, 4]],
                             ids=["range", "list"])
    def test_blocked_rejects_decreasing_exponents(self, exponents):
        # whichever way the sequence runs, and with the fall at its end
        with pytest.raises(DomainError, match="nondecreasing"):
            _SeriesTable(exponents, [1] * len(exponents))

    @pytest.mark.parametrize("exponents", [[-1, 0, 1], [-3], range(-2, 5)])
    def test_rejects_a_negative_first_exponent(self, exponents):
        with pytest.raises(DomainError, match=">= 0"):
            _SeriesTable(exponents, [1] * len(exponents))

    @pytest.mark.parametrize("exponents,coeffs", [([0, 1, 2], [1, 1]), ([0, 1], [1, 1, 1]),
                                                  ([], [1]), ([0], [])])
    def test_rejects_a_length_mismatch(self, exponents, coeffs):
        with pytest.raises(DomainError, match="one coefficient per exponent"):
            _SeriesTable(exponents, coeffs)

    @given(exponents=st.lists(st.integers(0, 400), max_size=40).map(sorted))
    def test_exponent_sums(self, exponents):
        table = _SeriesTable(iter(exponents), [1] * len(exponents))
        assert table.exps == tuple(exponents) and table.coeffs == (1,) * len(exponents)
        assert table.sums == tuple(sum(exponents[:k]) for k in range(len(exponents) + 1))
        with pytest.raises(AttributeError):
            table.exps = ()

    @given(coeffs=st.lists(st.one_of(st.integers(-(2**80), 2**80),
                                     st.integers(0, 90).map(lambda b: 1 << b)), max_size=40))
    def test_coefficient_bits(self, coeffs):
        # the bound of every prefix, powers of two and zeros included
        table = _SeriesTable(range(len(coeffs)), (c * (-1) ** i for i, c in enumerate(coeffs)))
        assert_bits_bound_the_coefficients(table)
        assert table.bits == tuple(least_bits(coeffs[:k]) for k in range(len(coeffs) + 1))

    @pytest.mark.parametrize("scale", [1, 23, 47, 71])
    def test_pentagonal_tables_bound_their_coefficients(self, scale):
        # the signs of S(q) and S(q^N): b = 0 throughout
        table = _pentagonal(300, scale)
        assert_bits_bound_the_coefficients(table)
        assert set(table.bits) == {0}

    @pytest.mark.parametrize("size", [1024, 1 << 14])
    @pytest.mark.parametrize("n", [23, 47, 71])
    def test_theta_tables_bound_their_coefficients(self, n, size):
        assert_bits_bound_the_coefficients(_theta_numerator(catalog_lookup(n, "fricke"), size))

    @pytest.mark.parametrize("w", [112, 1072])
    def test_exp_plan_tables_bound_their_coefficients(self, w):
        # the scale of the ceiling's theta request is checked where it is
        # found (test_hauptmodul's test_scale_at_the_precision_ceiling)
        table = _exp_plan(w)[2]
        assert_bits_bound_the_coefficients(table)
        assert table.bits[-1] == table.coeffs[0].bit_length()

    @pytest.mark.parametrize("count", [-1, 5, 40])
    def test_count_outside_the_table_refused(self, count):
        # a 4-term table has first counts 0 to 4 only: past its end, or
        # below 0, where a slice would quietly drop terms
        table = _SeriesTable(range(4), [1, 2, 3, 4])
        powers = _powers((1 << 63, 0), 2, 64)
        with pytest.raises(DomainError, match="no first"):
            _fixed_series(table, count, powers)
        assert _fixed_series(table, 0, powers) == (0, 0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(case=oracle_cases())
    def test_every_prefix_matches_the_two_lane_sum(self, case):
        # the kernel on (table, count) sums the first count terms: the
        # two-lane reference on those terms alone, bit for bit and with the
        # same bound, for every count from 0 to the table's length
        q, exponents, coeffs, w, m = case
        table, powers = _SeriesTable(exponents, coeffs), _powers(q, m, w)
        for count in range(len(exponents) + 1):
            head = exponents[:count]
            # no terms fit any lane, as none need one
            most = max(Counter(e // m for e in head).values(), default=0)
            if most.bit_length() <= max(lane_room(w, least_bits(coeffs[:count])), 0):
                assert (_fixed_series(table, count, powers)
                        == two_lane_series(q, head, coeffs[:count], w, m))
            else:
                with pytest.raises(DomainError, match="lane"):
                    _fixed_series(table, count, powers)


def gaussian_expand(roots):
    """`_expand`'s reference: prod(x - (X + iY)), one complex factor a root, lowest first."""
    re, im = [1], [0]
    for x, y in roots:
        re, im = ([b - a * x + c * y for a, c, b in zip(re + [0], im + [0], [0] + re)],
                  [d - a * y - c * x for a, c, d in zip(re + [0], im + [0], [0] + im)])
    return re, im


def linear_coefficient_radius(roots, radius_log2, s):
    """`_coefficient_radius`'s reference: one linear factor a root in each product."""
    upper = base = [1]
    for x, y in roots:
        a = isqrt(x * x + y * y)
        a += a * a < x * x + y * y
        eps = -(-max(1 << s, a + 1) >> -radius_log2) + 1
        upper = [d + (a + eps) * c for c, d in zip(upper + [0], [0] + upper)]
        base = [d + a * c for c, d in zip(base + [0], [0] + base)]
    h = len(roots)
    return max(-(-(upper[k] - base[k]) >> s * (h - k - 1)) for k in range(h))


@st.composite
def root_multisets(draw):
    """Shuffled grid roots: conjugate pairs, real and zero roots, lone complex roots, repeats."""
    part = st.integers(-(1 << 200), 1 << 200)
    nonzero = part.filter(bool)
    roots = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["pair", "real", "zero", "lone", "repeat"]))
        if kind == "pair":
            x, y = draw(part), draw(nonzero)
            roots += [(x, y), (x, -y)]
        elif kind == "real":
            roots.append((draw(part), 0))
        elif kind == "zero":
            roots.append((0, 0))
        elif kind == "lone":
            roots.append((draw(part), draw(nonzero)))
        elif roots:
            roots += draw(st.lists(st.sampled_from(roots), min_size=1, max_size=3))
    return draw(st.permutations(roots))


class TestPolyFromRoots:
    """The exact product prod(x - V_i) that certify_int_poly rounds."""

    def test_two_real_roots(self):
        poly, residual, _ = certify_int_poly([cpx(1, 0, 128), cpx(2, 0, 128)], -120, 128)
        assert poly == IntPoly([2, -3, 1]) and residual == 0

    def test_conjugate_pair(self):
        poly, residual, _ = certify_int_poly([cpx(0, 1, 128), cpx(0, -1, 128)], -120, 128)
        assert poly == IntPoly([1, 0, 1])
        assert residual < 2.0**-120

    @settings(max_examples=300, deadline=None)
    @given(roots=root_multisets())
    def test_expand_matches_the_gaussian_product(self, roots):
        # real factors and conjugate pairs multiplied as real quadratics
        # give the coefficients of one complex factor at a time exactly
        assert _expand(_group_roots(roots)) == gaussian_expand(roots)

    @settings(max_examples=300, deadline=None)
    @given(roots=root_multisets().filter(bool), radius_log2=st.integers(-300, -1),
           s=st.integers(8, 260))
    def test_radius_matches_the_linear_products(self, roots, radius_log2, s):
        # each conjugate pair's two linear factors as one real quadratic,
        # in both products, give the same R_max to the last bit
        assert (_coefficient_radius(_group_roots(roots), radius_log2, s)
                == linear_coefficient_radius(roots, radius_log2, s))

    @pytest.mark.parametrize("roots", [[], [(0, 0)], [(0, 0)] * 3, [(5, 0), (-7, 0), (5, 0)],
                                       [(3, 4), (3, 4), (3, -4)], [(3, 4), (3, -4)] * 2,
                                       [(0, 1), (0, 1)], [(2, 3), (2, -3), (2, 3), (1, 0)]],
                             ids=["none", "zero", "zeros", "reals", "pair-and-lone",
                                  "repeated-pair", "lone-repeated", "mixed"])
    def test_expand_edge_cases(self, roots):
        assert _expand(_group_roots(roots)) == gaussian_expand(roots)

    @pytest.mark.parametrize("disc", [-71, -284])
    def test_certify_ignores_the_order_of_the_values(self, disc):
        # the level-71 values, three conjugate pairs and one real value:
        # every one of the 5,040 orders gives the same certified triple
        values = singular_values(71, "fricke", disc, 64).values()
        want = certify_int_poly(values, ERROR_BITS + 1 - 64, 64)
        for order in itertools.permutations(values):
            assert certify_int_poly(order, ERROR_BITS + 1 - 64, 64) == want

    @settings(max_examples=60, deadline=None)
    @given(roots=root_multisets().filter(lambda r: 1 <= len(r) <= 5))
    def test_certify_outcome_ignores_the_order_of_the_values(self, roots):
        # a certified triple or a refusal, and the refusal's residual and
        # tolerance, are the same in every order
        values = [Ball(x, y, -200, 0.0) for x, y in roots]

        def outcome(vals):
            try:
                return certify_int_poly(vals, -120, 128)
            except RoundingFailureError as exc:
                return exc.args

        want = outcome(values)
        assert all(outcome(list(order)) == want for order in itertools.permutations(values))

    def test_conjugation_closed_imag_bound(self):
        # exact conjugate pairs and real roots: every imaginary part of the
        # product is exactly 0, for roots on the grid and off it
        prec = 160
        s = prec + 8
        rng = random.Random(77)
        for _ in range(20):
            roots = []
            for _ in range(rng.randint(0, 3)):
                with mp.workprec(prec):
                    z = mp.mpc(rng.uniform(-9, 9), rng.uniform(-9, 9)) / 3
                    roots += [mpc_ball(z), mpc_ball(mp.conj(z))]
            roots += [cpx(rng.uniform(-9, 9), 0, prec) for _ in range(rng.randint(1, 2))]
            _re, im = _expand(_group_roots([(_nearest(v.re, v.exp + s),
                                             _nearest(v.im, v.exp + s)) for v in roots]))
            assert im == [0] * len(im)
        # and the residual of +-i sqrt(2) is the real part's distance alone:
        # its roots lie on the grid, so the constant term is exactly Y^2
        with mp.workprec(prec):
            y = mp.sqrt(2)
            roots = [mpc_ball(mp.mpc(0, y)), mpc_ball(mp.mpc(0, -y))]
        big = int(mp.ldexp(y, s))
        assert mp.ldexp(big, -s) == y
        poly, residual, _ = certify_int_poly(roots, -120, prec)
        assert poly == IntPoly([2, 0, 1])
        assert residual == abs(Fraction(big * big, 1 << 2 * s) - 2)


class TestRoundToIntPoly:
    """Rounding the product to integers, and the residual certify_int_poly reports."""

    def test_near_integers(self):
        # (x - 1 - e)(x - 2 - e), e = 1e-10: x^2 - (3 + 2e) x + 2 + 3e + e^2
        roots = [cpx("1.0000000001", 0, 128), cpx("2.0000000001", 0, 128)]
        poly, residual, _ = certify_int_poly(roots, -100, 128)
        assert poly == IntPoly([2, -3, 1])
        assert Fraction("2.9e-10") < residual < Fraction("3.1e-10")

    def test_failure_carries_residual(self):
        with pytest.raises(RoundingFailureError) as exc:
            certify_int_poly([cpx(0.5, 0, 128)], -120, 128)
        assert exc.value.residual == Fraction(1, 2)

    def test_rejects_bad_tolerance(self):
        # a radius as large as the roots leaves no tolerance: 1/2 - R_max < 0
        with pytest.raises(RoundingFailureError) as exc:
            certify_int_poly([cpx(1, 0, 128), cpx(3, 0, 128)], 0, 128)
        assert exc.value.residual == 0 and exc.value.tol < 0

    def test_rejects_empty_roots(self):
        with pytest.raises(DomainError):
            certify_int_poly([], -120, 128)


class TestFindRoots:
    """Roots of the published polynomials, found by mpmath, as input."""

    def test_weber_roots_feed_disc284_relation(self):
        prec = 128
        roots = polyroots(WEBER, prec)
        with mp.workprec(prec + 16):
            for beta in roots:
                image = beta**2 - 1 - 1 / beta
                value = mp.mpc(0)
                for c in reversed(H284.coeffs):
                    value = value * image + c
                assert abs(value) < mp.mpf(2) ** -40
        # and the same fact exactly
        assert verify_root_relation(LaurentExpr({2: 1, 0: -1, -1: -1}), H284, WEBER)

    def test_weber_roots_feed_disc71_relation(self):
        prec = 128
        roots = polyroots(WEBER, prec)
        with mp.workprec(prec + 16):
            for beta in roots:
                image = -beta**6 + 3 * beta**5 - 2 * beta**4 + 1
                value = mp.mpc(0)
                for c in reversed(H71.coeffs):
                    value = value * image + c
                assert abs(value) < mp.mpf(2) ** -40
        # and the same fact exactly
        assert verify_root_relation(LaurentExpr({6: -1, 5: 3, 4: -2, 0: 1}), H71, WEBER)

    def test_roots_then_reassembly(self):
        prec = 160
        roots = polyroots(H284, prec)
        poly, residual, _ = certify_int_poly([mpc_ball(r) for r in roots], -100, prec)
        assert poly == H284
        assert residual < 2.0 ** (-prec // 2)
        # successful rounding implies the integer polynomial nearly vanishes
        # at every input root
        norm = max(abs(c) for c in poly.coeffs)
        with mp.workprec(prec + 16):
            for r in roots:
                value = mp.mpc(0)
                for c in reversed(poly.coeffs):
                    value = value * r + c
                assert abs(value) < mp.mpf(2) ** (-prec // 4) * norm


class TestPrecisionPolicy:
    def test_default_start(self):
        policy = PrecisionPolicy()
        assert policy.start_bits == MIN_PREC_BITS == 64

    def test_validation(self):
        with pytest.raises(DomainError):
            PrecisionPolicy(start_bits=32)
        with pytest.raises(DomainError):
            PrecisionPolicy(start_bits=MAX_PREC_BITS + 1)
        # both ends of the range are allowed
        for bits in (MIN_PREC_BITS, MAX_PREC_BITS):
            assert PrecisionPolicy(start_bits=bits).start_bits == bits

    @pytest.mark.parametrize("start", [10, 20000])
    def test_refusal_names_the_range(self, start):
        with pytest.raises(DomainError) as exc:
            PrecisionPolicy(start_bits=start)
        assert str(exc.value) == f"precision must be from 64 to 16384 bits, got {start}"


class TestCertifyIntPoly:
    def test_exact_roots(self):
        roots = [cpx(1, 0, 128), cpx(-2, 0, 128), cpx(0, 3, 128), cpx(0, -3, 128)]
        poly, residual, r_max = certify_int_poly(roots, -120, 128)
        assert poly == IntPoly([-18, 9, 7, 1, 1])     # (x-1)(x+2)(x^2+9)
        assert residual == 0
        # the x coefficient of (x + 1 + e)(x + 2 + 2e)(x + 3 + 3e)^2 -
        # (x + 1)(x + 2)(x + 3)^2 is 117e to first order, e = 2^-120; the
        # grid of 2^-136 the roots are rounded to adds 2^-136 to each e
        assert 117 * 2.0**-120 < r_max < 125 * 2.0**-120

    def test_rejects_ball_holding_two_integers(self):
        # the computed coefficients are exact integers, but with the roots 1
        # and 2 known only to within a quarter of their size the constant
        # term's ball has radius 1.25 * 2.5 - 2 = 9/8 and holds three integers
        with pytest.raises(RoundingFailureError) as exc:
            certify_int_poly([cpx(1, 0, 64), cpx(2, 0, 64)], -2, 64)
        assert exc.value.residual == 0 and exc.value.tol < 0

    def test_residual_and_radius_share_one_half(self):
        # residual 0.2: a radius of 0.1 certifies -3, one of 0.4 does not,
        # because the ball around -3.2 then reaches -3.6, nearer to -4
        roots = [cpx("3.2", 0, 64)]
        poly, residual, r_max = certify_int_poly(roots, -5, 64)
        assert poly == IntPoly([-3, 1]) and residual + r_max < Fraction(1, 2)
        with pytest.raises(RoundingFailureError):
            certify_int_poly(roots, -3, 64)

    def test_radius_covers_perturbed_roots(self):
        # random complex roots and true roots on the boundary of each one's
        # disc: every coefficient of the exact product of the values, rounded
        # to the grid, within R_max of the true one at 4 prec
        rng = random.Random(4242)
        prec, radius_log2 = 96, -70
        s = prec + 8
        for _ in range(30):
            values = [cpx(rng.uniform(-40, 40), rng.uniform(-40, 40), prec)
                      for _ in range(rng.randint(1, 8))]
            roots = [(_nearest(v.re, v.exp + s), _nearest(v.im, v.exp + s)) for v in values]
            h = len(roots)
            r_max = mp.ldexp(_coefficient_radius(_group_roots(roots), radius_log2, s), -s)
            with mp.workprec(4 * prec):
                computed = [mp.mpc(mp.ldexp(x, -s * (h - k)), mp.ldexp(y, -s * (h - k)))
                            for k, (x, y) in enumerate(zip(*_expand(_group_roots(roots))))]
                true_roots = [
                    v + mp.ldexp(max(1, abs(v)), radius_log2) * mp.expj(rng.uniform(0, 7))
                    for v in map(ball_mpc, values)
                ]
                exact = _product(true_roots)
                slack = max(abs(c - e) / r_max for c, e in zip(computed, exact))
            assert slack <= 1
            # and the radius is not loose by more than the degree's factor
            assert slack > 2.0 ** -8

    def test_radius_bounds_distance_to_reference(self):
        # integer polynomials from linear and quadratic factors, their roots
        # in closed form at 4 prec and moved to the boundary of each disc:
        # the accepted polynomial is the true one, and R_max bounds the
        # distance of each coefficient of prod(x - v_i), at 4 prec, from it
        rng = random.Random(5151)
        prec, radius_log2 = 96, -70
        for _ in range(30):
            factors = [[rng.randint(-30, 30), rng.randint(-9, 9), 1][rng.randint(0, 1):]
                       for _ in range(rng.randint(1, 4))]
            with mp.workprec(4 * prec):
                true_roots = []
                for f in factors:
                    if len(f) == 2:
                        true_roots.append(mp.mpc(-f[0]))
                    else:
                        root = mp.sqrt(mp.mpc(f[1] ** 2 - 4 * f[0]))
                        true_roots += [(-f[1] + root) / 2, (-f[1] - root) / 2]
                moved = [t + mp.ldexp(max(1, abs(t)), radius_log2 - 1)
                         * mp.expj(rng.uniform(0, 7)) for t in true_roots]
            values = [rounded(t, prec) for t in moved]
            poly, residual, r_max = certify_int_poly(values, radius_log2, prec)
            want = [1]
            for f in factors:
                want = [sum(f[i] * want[k - i] for i in range(len(f)) if 0 <= k - i < len(want))
                        for k in range(len(want) + len(f) - 1)]
            assert poly == IntPoly(want)
            with mp.workprec(4 * prec):
                distance = max(abs(c - n) for c, n in zip(_product(map(ball_mpc, values)), want))
                assert distance <= mp.mpf(r_max.numerator) / r_max.denominator
            assert residual <= r_max


def _product(roots) -> list:
    """Coefficients of prod(x - r), lowest first, at the caller's precision."""
    coeffs = [mp.mpc(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


PRECS = (128, 256, 448)


def _assert_rounded(value, prec):
    for x in (value.real, value.imag):
        assert x._mpf_[3] <= prec, (x, prec)


class TestPrecisionContract:
    """Each value-returning function rounds its result to the prec it is given.

    Inputs carry more bits than the requested precision, or are exact points
    evaluated at a higher working precision, so a function that forgot to
    round would return those bits.
    """

    @pytest.mark.parametrize("prec", PRECS)
    def test_evaluate_level71(self, prec):
        # the C = 2 point: the shipped data supports 448 bits there
        tau = fixed_point(EllipticElement(71, 1, -36, 2))
        _assert_rounded(ball_mpc(evaluate(catalog_lookup(71, "fricke"), tau, prec)), prec)

    @pytest.mark.parametrize("prec", PRECS)
    def test_evaluate_at_complex_point(self, prec):
        tau = CMPoint(1, 13, 10, 1)
        for level, group in [(2, "gamma0"), (2, "fricke"), (1, "gamma0")]:
            _assert_rounded(ball_mpc(evaluate(catalog_lookup(level, group), tau, prec)), prec)

    @pytest.mark.parametrize("prec", PRECS)
    def test_eta_and_eta_quotient(self, prec):
        # eta_quotient returns a ball at the working scale it is given: its
        # mantissa is cut to that scale, a few bits above it at most
        tau = CMPoint(1, 13, 10, 1)
        value = eta_quotient(EtaQuotientSpec([(1, 6), (5, -6)]), tau, prec)
        assert prec < max(abs(value.re), abs(value.im)).bit_length() <= prec + 4

    @pytest.mark.parametrize("prec", PRECS)
    def test_find_roots_and_certify(self, prec):
        # an integer polynomial, a residual rounded up to prec bits and a
        # radius on the grid of 2^-(prec + 8)
        roots = [mpc_ball(r) for r in polyroots(H284, prec)]
        poly, residual, r_max = certify_int_poly(roots, 40 - prec, prec)
        assert poly == H284
        assert residual.numerator.bit_length() <= prec
        assert (r_max * 2 ** (prec + 8)).denominator == 1


# the working scales of evaluate at 64, 256 and 1024 bits
SCALES = st.sampled_from([112, 304, 1072])


@st.composite
def exact_balls(draw, w):
    """A nonzero exact ball at scale 2^w: a mantissa of w + 1 to w + 4 bits, any exponent.

    Real, imaginary, negative real and general mantissas all occur.
    """
    bits = draw(st.integers(w + 1, w + 4))
    big = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) * draw(st.sampled_from([-1, 1]))
    small = draw(st.one_of(st.just(0), st.integers(-(1 << bits) + 1, (1 << bits) - 1)))
    x, y = (big, small) if draw(st.booleans()) else (small, big)
    return Ball(x, y, draw(st.integers(-3 * w, 3 * w)), 0.0)


def _assert_within(ball, ref, w, scale=None):
    """|ball - ref| <= rad 2^-w |ball|, or rad 2^-w max(1, |ball|) for a sum, 300 bits deeper."""
    with mp.workprec(w + 300):
        got = ball_mpc(ball)
        size = abs(got) if scale is None else max(1, abs(got))
        assert abs(got - ref) <= ball.rad * size * mp.mpf(2) ** -w


class TestFixedPoint:
    """The fixed-point primitives of eta and evaluate, against mpmath 300 bits deeper."""

    @pytest.mark.parametrize("w", [64, 112, 304, 1072, 4144])
    def test_pi_and_ln2_within_2(self, w):
        with mp.workprec(w + 300):
            assert abs(_pi(w) - mp.pi * 2**w) < 2
            assert abs(_ln2(w) - mp.ln2 * 2**w) < 2

    @settings(max_examples=200, deadline=None)
    @given(w=SCALES, n=st.integers(1, 10**12))
    def test_root_truncated(self, w, n):
        r = _root(n, w)
        assert r * r <= n << (2 * w) < (r + 1) ** 2

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exp_over_its_whole_reduction_range(self, data):
        # real parts of every size from 2^-w up to -2^40 and 2^20, so the
        # power of two taken out runs from about -1.6e12 to 1.5e6 through 0,
        # and imaginary parts over all of [-4, 4]
        w = data.draw(SCALES)
        size = data.draw(st.integers(-w, 40))
        x = (1 << (w + size)) | data.draw(st.integers(0, (1 << (w + size)) - 1))
        if size > 20 or data.draw(st.booleans()):
            x = -x
        y = data.draw(st.integers(-(4 << w), 4 << w))
        z = _exp(x, y, w)
        with mp.workprec(w + 360):
            ref = mp.exp(mp.mpc(x, y) / mp.mpf(2) ** w)
        _assert_within(z, ref, w)

    def test_exp_plan_bound_fits_a_double(self):
        # _fixed_series returns its bound 1.5 2^b sum(e) as a double; exp
        # sums n + 1 terms with b its table's bound, len(n!), at every scale
        # from the floor to the ceiling, and 64 bits past it for the theta
        # quotient's scale (test_hauptmodul's test_scale_at_the_precision_ceiling)
        for w in range(MIN_PREC_BITS + _GUARD, MAX_PREC_BITS + _GUARD + 65):
            _j, _g, table = _exp_plan(w)
            n = len(table.coeffs) - 1
            assert table.coeffs[0] < 2**1023
            assert table.bits[-1] + (n * (n + 1)).bit_length() < 1023

    def test_exp_plan_fits_the_kernel_lane(self):
        # exp sums its n + 1 terms, each at most 2^b, b its table's bound,
        # in blocks of isqrt(n) + 1 at scale 2^s, s = w + g: every block
        # fits the packed lane at every scale, so exp never meets the
        # kernel's DomainError
        for w in range(MIN_PREC_BITS + _GUARD, MAX_PREC_BITS + _GUARD + 65):
            _j, g, table = _exp_plan(w)
            n = len(table.coeffs) - 1
            assert (isqrt(n) + 1).bit_length() <= lane_room(w + g, table.bits[-1])

    @pytest.mark.parametrize("w", [112, 113, 139, 421, 1072, 4112, 8112])
    def test_exp_guard_terms_below_an_eighth(self, w):
        # the plan's guard bits keep the charged error of the series and the
        # squarings below 1/8 unit of 2^-w, besides the shift's 1.5 and
        # ln 2's 2|k|: 0.068 at w = 112, 0.093 at 421 and 0.092 at 4112
        j, g, _ = _exp_plan(w)
        for x, y in ((1, 3 << w), (-(37 << w) // 10, -(1 << w)), (5 << w, 0)):
            z = _exp(x, y, w)
            k = (x << g) // _ln2(w + g)
            assert z.rad - 1.5 - math.ldexp(abs(k), 1 - g) < 1 / 8

    @pytest.mark.parametrize("w", [112, 421, 4112])
    def test_exp_charges_the_series_bound(self, w, monkeypatch):
        # The kernel's bound, in units of 2^-s over n! > 2^(b-1), is doubled
        # by each of the j squarings with their sqrt(2) each, 5.5 at most
        # in all, and shifted down g bits: grown by extra, it grows the
        # radius by extra 2^(1 - b + j - g), and the squarings alone charge
        # 5.5 2^(j - g) besides the shift's 1.5 and ln 2's 2|k|
        j, g, table = _exp_plan(w)
        b = table.bits[-1]
        extra = [0.0]

        def grown(*args):
            sr, si, bound = _fixed_series(*args)
            return sr, si, bound + extra[0]

        monkeypatch.setattr(cfq.numerics, "_fixed_series", grown)
        x, y = -(37 << w) // 10, -(1 << w)
        value = _exp(x, y, w)
        k = (x << g) // _ln2(w + g)
        assert value.rad - 1.5 - math.ldexp(abs(k), 1 - g) >= math.ldexp(5.5, j - g) * (1 - 1e-9)
        extra[0] = math.ldexp(1.0, b + g - j)
        again = _exp(x, y, w)
        assert again[:3] == value[:3]
        assert again.rad - value.rad == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("w", [709, 958])
    def test_exp_where_ln2_dominates(self, w):
        # exp(-2^60): x = k ln 2 + r takes |k| = 1.7e18 copies of ln 2 2^s,
        # floored by 0.995 units at these scales and charged 2 units each,
        # so the error is half the radius; 4 guard bits fewer make it 8 times
        x = -(1 << (w + 60))
        z = _exp(x, 0, w)
        with mp.workprec(w + 300):
            got = ball_mpc(z)
            err = abs(got - mp.exp(mp.mpf(x) / mp.mpf(2) ** w)) / abs(got) * mp.mpf(2) ** w
        assert 0.49 * z.rad < err <= 0.5 * z.rad

    def test_exp_refuses_a_wide_imaginary_part(self):
        with pytest.raises(DomainError, match="Im"):
            _exp(0, (4 << 112) + 1, 112)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exp_i_pi_of_an_exact_point(self, data):
        # exp(pi i (u + v sqrt(-n))/t) with the argument's own error in the
        # radius; v < 0 gives a growing exponential
        w = data.draw(SCALES)
        t = data.draw(st.integers(1, 10**6))
        u = data.draw(st.integers(-t, t))
        v = data.draw(st.integers(-10 * t, 10**4 * t))
        n = data.draw(st.integers(1, 1000))
        z = _exp_i_pi(u, v, t, n, w)
        with mp.workprec(w + 360):
            ref = mp.exp(mp.pi * mp.mpc(0, 1) * (u + v * mp.sqrt(-n)) / t)
        _assert_within(z, ref, w)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_principal_square_root(self, data):
        w = data.draw(SCALES)
        z = data.draw(exact_balls(w))
        root = _csqrt(z, w)
        assert root.rad == 3 and root.re >= 0
        with mp.workprec(w + 300):
            _assert_within(root, mp.sqrt(ball_mpc(z)), w)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_product_and_quotient(self, data):
        # the quotient also of mantissas of other lengths than a ball's
        w = data.draw(SCALES)
        a, b = data.draw(exact_balls(w)), data.draw(exact_balls(w))
        if data.draw(st.booleans()):
            a = a._replace(re=a.re >> data.draw(st.integers(0, w)), im=a.im << 3)
        quotient = _div(a, b, w)
        assert quotient.rad == 1.5 and _bits(quotient) > w
        with mp.workprec(w + 300):
            _assert_within(quotient, ball_mpc(a) / ball_mpc(b), w)
            b = b._replace(rad=0.0)
            _assert_within(_mul(b, b, w), ball_mpc(b) ** 2, w)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sum_within_radius_of_max_1_and_sum(self, data):
        # terms of any size with radii, near cancellation included: the
        # sum's radius is relative to max(1, |sum|)
        w = data.draw(SCALES)
        terms = data.draw(st.lists(exact_balls(w), min_size=1, max_size=5))
        if data.draw(st.booleans()):
            t = terms[0]
            terms.append(Ball(-t.re, -t.im + data.draw(st.integers(-9, 9)), t.exp, 0.0))
        terms = [t._replace(rad=data.draw(st.sampled_from([0.0, 1.5, 1000.0]))) for t in terms]
        total = _sum(terms, w)
        with mp.workprec(w + 300):
            # the worst case of each term's radius, all in one direction
            ref = mp.fsum(ball_mpc(t) * (1 + t.rad * mp.mpf(2) ** -w) for t in terms)
            _assert_within(total, ref, w, scale="max(1, |sum|)")

    def test_round_in_lowest_terms(self):
        # one value, one (re, im, exp): the same value at two exponents, a
        # real part rounded from 141 bits, and zero
        assert (_round(Ball(3, 0, -10, 0.0), 64, 1.0) == _round(Ball(6, 0, -11, 0.0), 64, 1.0)
                == Ball(3, 0, -10, 1.0))
        assert _round(Ball((1 << 140) + 12345, 0, -200, 0.0), 64, 1.0) == Ball(1, 0, -60, 1.0)
        assert _round(Ball(0, 0, -50, 0.0), 64, 2.0) == Ball(0, 0, 0, 2.0)

    @settings(max_examples=300, deadline=None)
    @given(x=st.integers(-(2**200), 2**200), y=st.integers(-(2**200), 2**200),
           e=st.integers(-400, 400), shift=st.integers(0, 80), prec=st.integers(64, 160))
    def test_round_same_for_every_form_of_a_value(self, x, y, e, shift, prec):
        # a part odd, and zero as (0, 0, 0), whatever exponent the value had
        got = _round(Ball(x << shift, y << shift, e - shift, 0.0), prec, 1.0)
        assert got == _round(Ball(x, y, e, 0.0), prec, 1.0)
        assert (got.re | got.im) & 1 or got == Ball(0, 0, 0, 1.0)
