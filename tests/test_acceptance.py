"""Acceptance criteria, one test per numbered item, each printing a PASS/FAIL
line.  Tolerances are pinned here and nowhere else: exact rational equality
where stated, square-root bands compared in exact squared form, and the fixed
empirical constants 4 (classical band, psi band, K/r bands) and 5.0
(short-interval bands)."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ffcheb.covers import artin_schreier, kummer
from ffcheb.factypes import B, Delta, OneC, R, RPower, evaluate, lambda_of_poly
from ffcheb.ffield import make_field
from ffcheb.groups import GroupTable
from ffcheb.intervals import IntervalSpec, census, interval_mean
from ffcheb.polys import enumerate_monic, parse_poly, peval
from ffcheb.wreath import (
    closed_form_mean,
    enumerate_class_types,
    mean_class_function,
    rising_binom,
)
from ffcheb.zeta import (
    b_full_mean,
    b_series,
    count_prime_frobenius_global,
    curve_zeta_numerator,
    psi_E,
    ptilde,
    r_full_mean,
)

from oracles import (
    all_elements,
    b_direct_sum,
    brute_force_mean,
    lambda_of_wreath,
    wreath_conj,
)

D_PATTERN = "T^3-3*T^2+2*T"

_covers = {}


def quad_cover(q):
    key = ("quad", q)
    if key not in _covers:
        p, k = {5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1), 25: (5, 2), 49: (7, 2)}[q]
        ctx = make_field(p, k)
        _covers[key] = kummer(ctx, 2, parse_poly(ctx, D_PATTERN))
    return _covers[key]


def cubic_cover(q):
    key = ("cubic", q)
    if key not in _covers:
        p, k = {7: (7, 1), 13: (13, 1), 25: (5, 2)}[q]
        ctx = make_field(p, k)
        _covers[key] = kummer(ctx, 3, parse_poly(ctx, D_PATTERN))
    return _covers[key]


def _verdict(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"acceptance criterion {num} failed: {detail}"


WREATH_GRID = [
    (GroupTable.cyclic(2), (1, 2, 3, 4, 5)),
    (GroupTable.cyclic(3), (1, 2, 3, 4)),
    (GroupTable.symmetric(3), (1, 2, 3)),
]


def test_acceptance_01_wreath_oracle():
    rng = random.Random(2024)
    checked = 0
    for G, ns in WREATH_GRID:
        for n in ns:
            fns = [OneC(c) for c in range(len(G.classes))] + [B(), R(), RPower(2)]
            types = enumerate_class_types(G, n)
            for _ in range(5):
                ct, _ = types[rng.randrange(len(types))]
                fns.append(Delta(ct.to_lambda(G)))
            for fn in fns:
                assert mean_class_function(fn, G, n) == brute_force_mean(fn, G, n)
                checked += 1
    _verdict(1, True, f"(exact equality on {checked} function/group/n triples)")


def test_acceptance_02_closed_forms():
    from ffcheb.intervals import NORM_NOTE

    for G, ns in WREATH_GRID:
        N = G.n
        for n in ns:
            for ci, cls in enumerate(G.classes):
                want = Fraction(len(cls), n * N)
                assert closed_form_mean(OneC(ci), G, n) == want
                assert mean_class_function(OneC(ci), G, n) == want
                assert brute_force_mean(OneC(ci), G, n) == want
            want_b = rising_binom(Fraction(1, N), n)
            assert closed_form_mean(B(), G, n) == want_b
            assert mean_class_function(B(), G, n) == want_b
            assert brute_force_mean(B(), G, n) == want_b
            assert closed_form_mean(R(), G, n) == 1
            assert mean_class_function(R(), G, n) == 1
            assert brute_force_mean(R(), G, n) == 1
    # the b/r normalization note rides on every interval report
    rep = interval_mean(quad_cover(5), B(), IntervalSpec(parse_poly(make_field(5), "T^4"), 2))
    assert "binom" in rep.note and "<r> = 1" in rep.note
    assert "note = " in rep.serialize()
    _verdict(2, True, "(<1_C>, <b>, <r> closed forms by both paths; note emitted)")


def test_acceptance_03_conjugacy_characterization():
    total_pairs = 0
    for G, n in ((GroupTable.cyclic(2), 3), (GroupTable.symmetric(3), 2)):
        elems = list(all_elements(G, n))
        by_lambda = {}
        for i, w in enumerate(elems):
            by_lambda.setdefault(lambda_of_wreath(w), set()).add(i)
        index = {w: i for i, w in enumerate(elems)}
        by_orbit = {}
        seen = set()
        for i, w in enumerate(elems):
            if i in seen:
                continue
            orbit = {index[wreath_conj(w, h)] for h in elems}
            seen |= orbit
            for j in orbit:
                by_orbit[j] = frozenset(orbit)
        # identical partitions <=> agreement on every ordered pair
        for lam_block in by_lambda.values():
            assert by_orbit[next(iter(lam_block))] == frozenset(lam_block)
        total_pairs += len(elems) ** 2
    _verdict(3, True, f"(lambda-equality == orbit conjugacy on {total_pairs} pairs)")


def test_acceptance_04_norm_function_equality():
    cov = quad_cover(5)
    ctx = cov.ctx
    from ffcheb.factypes import direct_b, direct_r

    G = cov.group
    count = 0
    for n in range(1, 6):
        for f in enumerate_monic(ctx, n):
            lam = lambda_of_poly(cov, f)
            assert evaluate(B(), lam, G) == direct_b(cov, f)
            assert evaluate(R(), lam, G) == direct_r(cov, f)
            count += 1
    assert count == 3905
    _verdict(4, True, f"(b and r agree through both routes on {count} polynomials)")


def test_acceptance_05_classical_chebotarev_band():
    checks = 0
    for mk, qs in ((quad_cover, (5, 7, 9, 13, 25)), (cubic_cover, (7, 13, 25))):
        for q in qs:
            cov = mk(q)
            M = max(cov.genus(), cov.group.n)
            for n in range(1, 7):
                for ci in range(len(cov.group.classes)):
                    pi = count_prime_frobenius_global(cov, ci, n)
                    main_term = Fraction(q**n, n * cov.group.n)
                    dev = abs(Fraction(pi) - main_term)
                    # dev <= 4 M q^(n/2) / n, squared to stay exact
                    ok = dev**2 * n**2 <= Fraction(16 * M**2 * q**n)
                    assert ok, (q, n, ci, float(dev), 4 * M * q ** (n / 2) / n)
                    checks += 1
    _verdict(5, True, f"(|pi_C - (|C|/|G|) q^n/n| within 4 max(g,|G|) q^(n/2)/n, {checks} checks)")


GRID_QS = (5, 9, 13, 25, 49)


def test_acceptance_06_short_interval_chebotarev():
    worst = 0.0
    for q in GRID_QS:
        cov = quad_cover(q)
        I = IntervalSpec(parse_poly(cov.ctx, "T^4"), 2)
        for ci in (0, 1):
            rep = interval_mean(cov, OneC(ci), I)
            assert rep.predicted_mean == Fraction(1, 8)
            dev = rep.deviation
            assert dev**2 * q <= Fraction(25), (q, ci, float(dev) * math.sqrt(q))
            worst = max(worst, float(dev) * math.sqrt(q))
    _verdict(6, True, f"(both classes, all q in {GRID_QS}; worst dev*sqrt(q) = {worst:.3f} <= 5.0)")


def test_acceptance_07_main_technical_band():
    worst = 0.0
    for q in GRID_QS:
        cov = quad_cover(q)
        I = IntervalSpec(parse_poly(cov.ctx, "T^4"), 2)
        for fn in (B(), R()):
            rep = interval_mean(cov, fn, I)
            dev = rep.deviation
            assert dev**2 * q <= Fraction(25), (q, fn, float(dev) * math.sqrt(q))
            worst = max(worst, float(dev) * math.sqrt(q))
        c = census(cov, I)
        assert c.tv_distance**2 * q <= Fraction(25), (q, float(c.tv_distance) * math.sqrt(q))
        worst = max(worst, c.tv_times_sqrt_q())
    _verdict(7, True, f"(B, R, census TV; worst scaled deviation = {worst:.3f} <= 5.0)")


def test_acceptance_08_psi_band():
    checks = 0
    for mk, qs in ((quad_cover, (5, 7, 9, 13, 25)), (cubic_cover, (7, 13, 25))):
        for q in qs:
            cov = mk(q)
            size = cov.group.n
            M = max(cov.genus(), size)
            for n in range(1, 9):
                dev = abs(Fraction(psi_E(cov, n)) - Fraction(q**n, size))
                assert dev**2 <= Fraction(16 * M**2 * q**n), (q, n, float(dev))
                checks += 1
    _verdict(8, True, f"(|psi_E(n) - q^n/|G|| within 4 max(g,|G|) q^(n/2), {checks} checks)")


def test_acceptance_09_zeta_identity():
    cov = quad_cover(5)
    ctx = cov.ctx
    pt = ptilde(cov)  # integrality and degree bound verified inside
    assert len(pt) - 1 <= 2 * cov.genus() + cov.infinity_data().f * cov.infinity_data().g - 1
    val = sum(Fraction(c, 5**i) for i, c in enumerate(pt))
    for n in range(len(pt) - 1, 7):
        assert r_full_mean(cov, n) == val
    assert (val - 1) ** 2 <= Fraction(16, 5)
    # independent point-count oracle for the curve factor: y^2 = D(x) over F_5
    D = parse_poly(ctx, D_PATTERN)
    squares = Counter(ctx.mul(y, y) for y in range(5))
    affine = sum(squares[peval(ctx, D.coeffs, x)] for x in range(5))
    points = affine + 1  # one place above infinity (e = 2, deg 1)
    a1 = points - 5 - 1
    assert curve_zeta_numerator(cov) == [1, a1, 5] == [1, 2, 5]
    _verdict(9, True, f"(ptilde = {pt}, <r> = {val} exactly for n >= {len(pt)-1}, curve factor matches {points} points)")


def test_acceptance_10_b_full_interval():
    # exact Euler-product cross-check at the q where enumeration is desk-scale
    for q in (5, 9):
        cov = quad_cover(q)
        ser = b_series(cov, 5)
        for n in range(6):
            assert ser.coeffs[n] == b_direct_sum(cov, n), (q, n)
    # the K_E band at the larger grid
    worst = 0.0
    for q in (9, 25, 49):
        cov = quad_cover(q)
        for n in (4, 5, 6):
            ratio = b_full_mean(cov, n) / rising_binom(Fraction(1, 2), n)
            assert (ratio - 1) ** 2 <= Fraction(16, q), (q, n, float(ratio))
            worst = max(worst, abs(float(ratio) - 1) * math.sqrt(q))
    _verdict(10, True, f"(series == enumeration for n <= 5 at q in (5, 9); ratio band, worst |ratio-1|*sqrt(q) = {worst:.3f} <= 4)")


def test_acceptance_11_negative_control():
    F2 = make_field(2)
    with pytest.raises(Exception):
        artin_schreier(F2, "T")  # rejected without the override
    cov = artin_schreier(F2, "T", force_wild=True)
    I = IntervalSpec(parse_poly(F2, "T^5"), 3)
    rep = interval_mean(cov, OneC(0), I)
    text = rep.serialize()
    assert rep.regime["wild_override"] is True
    assert rep.regime["tame_at_infinity"] is False
    assert "regime.wild_override = true" in text
    scaled = rep.deviation_times_sqrt_q
    _verdict(11, True, f"(wild cover force-ran, flagged, report emitted; dev*sqrt(q) = {scaled:.3f}, no bound asserted)")
