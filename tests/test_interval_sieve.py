"""The interval sieve against a factor-every-element oracle.

`_count_range` sieves each block of the interval by its small primes (degree
<= s); the oracle below rebuilds every element from its index, factors it
with Cantor-Zassenhaus through `lambda_entries_raw`, and excludes it for a
splitting cover when it shares a factor with a ramified prime (`pgcd`).
Tallies and excluded counts must agree exactly, for each of three block
layouts (`BOUNDS`): blocks of q^s; blocks of at most 125 elements, so that
s < t < m + 1 on the larger intervals; and the default bound, under which
every interval here is one block.
"""

from collections import Counter

import pytest

from ffcheb import intervals
from ffcheb.covers import (
    SplittingCover,
    artin_schreier,
    kummer,
    product,
    trivial,
)
from ffcheb.factypes import lambda_entries_raw
from ffcheb.ffield import make_field
from ffcheb.groups import parse_cycles
from ffcheb.intervals import IntervalSpec, _count_range
from ffcheb.polys import Poly, RationalFn, parse_poly, pdeg, pgcd

QUAD_D = "T^3-3*T^2+2*T"

#: block bounds: 1 keeps t = s; 125 = 5^3 gives F_5, I(T^4 + ..., 3) five
#: blocks of 125 (s = 2 < t = 3 < m + 1); the last is the default
BOUNDS = (1, 125, intervals._POOL_FLOOR)


def oracle(spec, I, start, stop, seed=0):
    ctx = spec.ctx
    q = ctx.q
    ram = spec._ram if isinstance(spec, SplittingCover) else ()
    counts, excluded = Counter(), 0
    for idx in range(start, stop):
        cs = list(I.f0.coeffs)
        rem = idx
        for j in range(I.m + 1):
            rem, digit = divmod(rem, q)
            cs[j] = ctx.add(cs[j], digit)
        f = tuple(cs)
        if any(pdeg(pgcd(ctx, f, P)) > 0 for P in ram):
            excluded += 1
            continue
        counts[lambda_entries_raw(spec, f, seed)] += 1
    return counts, excluded


def check(spec, f0, m, ranges=None, seed=0):
    I = IntervalSpec(parse_poly(spec.ctx, f0), m)
    for start, stop in ranges or [(0, I.size())]:
        want = oracle(spec, I, start, stop, seed)
        for bound in BOUNDS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(intervals, "_POOL_FLOOR", bound)
                got = _count_range(spec, I, start, stop, seed)
            assert got == want, (f0, m, start, stop, bound)
    return got


def quadratic_splitting(ctx, Dtext):
    """Splitting field of Y^2 - D with group S_2."""
    D = parse_poly(ctx, Dtext)
    return SplittingCover(
        ctx,
        [-D, Poly.zero(ctx), Poly.one(ctx)],
        [parse_cycles("(1 2)", 2)],
        {(1, 1): 0, (2,): 1},
        declared_genus=0,
    )


def cubic_splitting(ctx, a0, a1):
    """Splitting field of Y^3 + a1*Y + a0 with group S_3."""
    return SplittingCover(
        ctx,
        [parse_poly(ctx, a0), parse_poly(ctx, a1), Poly.zero(ctx), Poly.one(ctx)],
        [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)],
        {(1, 1, 1): 0, (2, 1): 1, (3,): 2},
        declared_genus=0,
    )


def s3_splitting(ctx):
    """Splitting field of Y^3 - T*Y - T with group S_3."""
    return cubic_splitting(ctx, "-1*T", "-1*T")


@pytest.mark.parametrize(
    "q, f0, m",
    [
        (5, "T^4", 2),  # m + 1 > n // 2: s = 2, t = 3 unless the bound is q^s
        (9, "T^4+T", 1),  # m + 1 = n // 2: s = t = 2, a single block
        (13, "T^4+2*T^3+5", 1),
        (25, "T^4+T^2", 1),
        (5, "T^5+3*T^2+1", 1),  # odd n
        (5, "T^4+T^3+2", 0),  # s = 1: quartic cofactors, one prime or two quadratics
        (5, "T^4+2*T^3+T^2+3", 3),  # s = 2: block digits at T^2 and T^3, or T^3 alone
        # s = 1: f0 = (T^2 + 2)(T^2 + 3)(T^2 + T + 1), three primes of degree
        # s + 1 in a cofactor of degree 3s + 3, as odd a count as one prime
        (5, "T^6+T^5+T^4+T^2+T+1", 0),
        (5, "T^4+4*T^2+4", 0),  # (T^2 + 2)^2: disc = 0 at degree 2s + 2
        # -1 is no square in F_27, so the sign of disc decides the parity of
        # the cofactors of degree 6 and 7 (s = 2)
        (27, "T^7+T^2+1", 1),
    ],
)
def test_quadratic_kummer(q, f0, m):
    p, k = {5: (5, 1), 9: (3, 2), 13: (13, 1), 25: (5, 2), 27: (3, 3)}[q]
    check(kummer(make_field(p, k), 2, QUAD_D), f0, m)


def test_quadratic_kummer_q49_m1():
    cov = kummer(make_field(7, 2), 2, QUAD_D)
    # s = t = 2 under every bound: the interval is one block of 49^2;
    # compare a stretch inside it
    check(cov, "T^4+3*T^3", 1, ranges=[(700, 1400)])


def test_cubic_kummer():
    F7 = make_field(7)
    cov = kummer(F7, 3, QUAD_D)
    check(cov, "T^4+T^3", 2)
    check(cov, "T^7+2*T^4+1", 1)  # m + 1 < n // 2 with odd n: cofactors of degree 6 and 7


@pytest.mark.parametrize(
    "p, d, D, f0, m",
    [
        (5, 2, "2*T^3-6*T^2+4*T", "T^4+T^3", 2),  # a non-square unit
        (7, 3, "T^3-T^2", "T^4+T^3", 2),  # T^2: a linear place of multiplicity 2
        (5, 2, "T^3-T^2+2*T-2", "T^4+2*T^3", 2),  # (T^2 + 2)(T - 1): a nonlinear place
        # s = 1: ramified elements T - a times a prime quartic, or times two quadratics
        (5, 2, QUAD_D, "T^5+2*T^3+4*T", 0),
    ],
)
def test_kummer_places(p, d, D, f0, m):
    check(kummer(make_field(p), d, D), f0, m)


def test_kummer_ramified_prime_beyond_the_sieve():
    # D = (T + 2)(T^3 + 4T^2 + 3T + 4), the cubic irreducible: with s = 2 the
    # cubic is no small prime, and (T + 1) times it lies in I(T^4, 2)
    F5 = make_field(5)
    cov = kummer(F5, 2, "T^4+T^3+T^2+3")
    assert max(pdeg(P.coeffs) for P in cov.ramified_primes()) == 3
    check(cov, "T^4", 2)
    # I(T^5, 3): s = 2 < deg 3 < t = 4 under the default bound, so the cubic
    # divides q^(t - 3) = 5 elements of the one block, not one
    check(cov, "T^5", 3)


def test_artin_schreier_tame_and_wild_control():
    F3 = make_field(3)
    tame = artin_schreier(F3, RationalFn(Poly.one(F3), parse_poly(F3, "T^2-T")))
    check(tame, "T^6+T^4", 2)  # m + 1 = n // 2, s = 3
    F2 = make_field(2)
    wild = artin_schreier(F2, "T", force_wild=True)
    check(wild, "T^5", 3)  # characteristic 2


def test_artin_schreier_double_pole():
    F5 = make_field(5)
    cov = artin_schreier(F5, RationalFn(Poly.one(F5), parse_poly(F5, "T^2")))
    check(cov, "T^4+T", 2)


def test_characteristic_two_extension_field():
    F8 = make_field(2, 3)
    cov = artin_schreier(F8, RationalFn(Poly.one(F8), Poly.x(F8)))
    check(cov, "T^6+T", 1)  # m + 1 < n // 2
    check(cov, "T^4", 0)


def test_product_cover():
    F5 = make_field(5)
    cov = product([
        kummer(F5, 2, QUAD_D),
        artin_schreier(F5, RationalFn(Poly.one(F5), parse_poly(F5, "T-3"))),
    ])
    check(cov, "T^4+T", 2)


def test_trivial_cover():
    F5 = make_field(5)
    check(trivial(F5), "T^6+T", 2)  # s = 3
    check(trivial(F5), "T^6+T", 1)  # s = 2 < n // 2: sextic cofactors
    # every quartic: T(T - 1)(T - 2)(T - 3) counts n = 4 primes under one
    # key, the top digit of a type code in base n + 1
    check(trivial(F5), "T^4", 3)


def test_splitting_excludes_ramified_multiples():
    F13 = make_field(13)
    _, excluded = check(s3_splitting(F13), "T^4+T^3", 1)
    assert excluded > 0
    F5 = make_field(5)
    # T^2 + 2 is irreducible over F_5 and ramified: a small prime when s = 2,
    # a single-candidate solve when s = 1
    cov = quadratic_splitting(F5, "T^2+2")
    _, excluded = check(cov, "T^4+T", 1)
    assert excluded > 0
    _, excluded = check(cov, "T^4+T^3+3*T^2+2*T+4", 0)
    assert excluded > 0
    # s = 2: sextic cofactors, a prime by parity or two cubics
    _, excluded = check(cov, "T^6+T", 1)
    assert excluded > 0


def counting_divisions(mp):
    """Count the elements the sieve divides: its calls to _factor_rough."""
    calls = []
    rough = intervals._factor_rough

    def counted(*args):
        calls.append(args[1])
        return rough(*args)

    mp.setattr(intervals, "_factor_rough", counted)
    return calls


def test_splitting_cofactors_by_sign(monkeypatch):
    # a prime cofactor of a splitting cover takes its sign from Art(f) of the
    # quadratic symbol of disc_Y(F), less its hits' signs; where the sign
    # leaves one cycle type the element is not divided
    calls = counting_divisions(monkeypatch)
    F5 = make_field(5)
    # k = 2: every sign pins the type, so no element with m + 1 >= n // 2 is divided
    _, excluded = check(quadratic_splitting(F5, "T^3-3*T^2+2*T"), "T^4+T", 2)
    assert excluded > 0 and calls == []
    check(quadratic_splitting(F5, "T^2+2"), "T^5+3*T", 2)  # a nonlinear place
    assert calls == []
    # k = 3: odd cofactors take the sign, even ones are divided
    for cov, f0, m in [
        (s3_splitting(make_field(13)), "T^4+T^3", 1),
        (s3_splitting(make_field(7)), "T^5+T^2+3", 2),
        (cubic_splitting(F5, "1", "T"), "T^4+2*T", 2),  # disc (T + 2)(T^2 + 3T + 4)
        (cubic_splitting(make_field(7), "1", "T"), "T^4+T^2", 2),  # disc 3T^3 + 1, a cubic place
        (cubic_splitting(F5, "T", "0"), "T^4+T^3+1", 2),  # disc 3T^2: sign deg f mod 2
    ]:
        del calls[:]
        _, excluded = check(cov, f0, m)
        elements = len(BOUNDS) * (cov.ctx.q ** (m + 1) - excluded)
        assert 0 < len(calls) < elements // 2, (cov.ctx.q, f0, len(calls), elements)


def test_chunks_that_cut_blocks():
    # the ranges cut blocks of q^s = 25; under the default bound they cut the
    # one block of 125
    F5 = make_field(5)
    cov = kummer(F5, 2, QUAD_D)
    check(cov, "T^4", 2, ranges=[(0, 17), (17, 40), (40, 41), (41, 125)])
    spl = quadratic_splitting(F5, "T^2+2")
    check(spl, "T^5+T", 2, ranges=[(3, 29), (29, 99)])
