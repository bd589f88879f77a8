"""Cross-cutting consistency checks that tie independent routes together on
randomized and structurally awkward inputs: composite Kummer degrees with
partially ramified primes, Artin-Schreier over extension fields of even
characteristic, and L-data tallies against brute enumeration.  A wrong
(e, f, g) assignment anywhere breaks either the rationality identity (ptilde
vanishing / integrality) or an exact equality below."""

import random
from fractions import Fraction

from ffcheb.covers import artin_schreier, kummer, product
from ffcheb.errors import NotGeometric
from ffcheb.factypes import B, R, direct_b, direct_r, evaluate, lambda_of_poly
from ffcheb.ffield import make_field
from ffcheb.polys import Poly, RationalFn, parse_poly, primes_of_degree
from ffcheb.zeta import (
    AbelianFrobeniusData,
    b_series,
    curve_zeta_numerator,
    psi_E,
    ptilde,
    r_full_check,
    r_full_mean,
    rh_root_moduli,
)

from oracles import b_direct_sum, oracle_class

F5 = make_field(5)


def test_composite_kummer_partially_ramified_zeta():
    # d = 4 over F_5: T has v = 2 (e = 2, proper inertia), T-1 has v = 1
    # (e = 4), infinity has e = 4.  The rationality identity certifies the
    # whole (e, f, g) table at ramified primes.
    cov = kummer(F5, 4, "T^3-T^2")
    assert [P.text() for P in cov.ramified_primes()] == ["T", "4 + T"]
    assert cov.splitting_data(Poly.x(F5)).e == 2
    assert cov.splitting_data(Poly.x(F5) - 1).e == 4
    assert cov.infinity_data().e == 4
    assert cov.genus() == 1
    pt = ptilde(cov)  # integrality + degree-bound vanishing checked inside
    assert len(pt) - 1 <= 2 * cov.genus() + cov.infinity_data().f * cov.infinity_data().g - 1
    for m in rh_root_moduli(curve_zeta_numerator(cov), 5):
        assert abs(m - 1.0) < 1e-6
    rep = r_full_check(cov, len(pt) - 1 + 1)
    assert rep.regime["exact_identity_regime"]
    # the b Euler product also matches enumeration (ramified f values enter)
    ser = b_series(cov, 4)
    for n in range(5):
        assert ser.coeffs[n] == b_direct_sum(cov, n)


def test_composite_kummer_yd_oracle_d4():
    from ffcheb.polys import factor_raw, residue_field

    F13 = make_field(13)
    cov = kummer(F13, 4, "T^2+T+1")
    ram = cov._ram
    for deg in (1, 2):
        for Pcs in primes_of_degree(F13, deg):
            if Pcs in ram:
                continue
            Pp = Poly(F13, Pcs)
            rf = residue_field(Pp)
            big = rf.field
            dval = rf.eval_poly(cov.D.coeffs)
            ycs = (big.neg(dval),) + (0,) * 3 + (1,)
            _, parts = factor_raw(big, ycs)
            degs = [len(pc) - 1 for pc, m in parts for _ in range(m)]
            sd = cov.splitting_data(Pp)
            assert len(degs) == sd.g and all(x == sd.f for x in degs)


def test_artin_schreier_even_char_extension_field():
    # p = 2, k = 2: the trace runs through F_4, the p-th roots inside
    # residue fields of even characteristic
    F4 = make_field(2, 2)
    cov = artin_schreier(F4, RationalFn(Poly.one(F4), Poly.x(F4)))
    assert cov.genus() == 0
    data = AbelianFrobeniusData(cov)
    data.ensure(5)
    for n in (1, 2, 3):
        row = [0, 0]
        for P in primes_of_degree(F4, n):
            if P in cov._ram:
                continue
            row[oracle_class(cov, P)] += 1
        assert row == data.tallies[n]
    for n in range(1, 7):
        dev = abs(Fraction(psi_E(cov, n)) - Fraction(4**n, 2))
        assert dev**2 <= Fraction(16 * 4 * 4**n)
    pt = ptilde(cov)
    rep = r_full_check(cov, max(len(pt), 2))
    assert rep.regime["exact_identity_regime"]


def test_artin_schreier_reduction_with_divisible_pole_even_char():
    # pole of order 2 at an F_4-irreducible quadratic gets reduced away or
    # down to order 1; Frobenius values survive the rewrite
    F4 = make_field(2, 2)
    P2 = None
    for cand in primes_of_degree(F4, 2):
        P2 = Poly(F4, cand)
        break
    raw = RationalFn(Poly.one(F4), P2 * P2)
    cov = artin_schreier(F4, raw)
    from ffcheb.polys import eval_mod

    checked = 0
    for deg in (1, 2, 3):
        for Pcs in primes_of_degree(F4, deg):
            Pp = Poly(F4, Pcs)
            if (raw.den % Pp).is_zero() or Pcs in cov._ram:
                continue
            x = eval_mod(raw, Pp)
            big = x.ctx
            tr, cur = 0, x.val
            for _ in range(big.k):
                tr = big.add(tr, cur)
                cur = big.frob(cur)
            assert tr == cov.frobenius_class(Pp)
            checked += 1
    assert checked >= 25


def test_random_kummer_covers_dual_route():
    rng = random.Random(20240)
    configs = [(5, 1, (2, 4)), (7, 1, (2, 3, 6)), (3, 2, (2, 4, 8))]
    built = 0
    for p, k, ds in configs:
        F = make_field(p, k)
        for d in ds:
            for _ in range(6):
                deg = rng.randrange(1, 5)
                cs = tuple(rng.randrange(F.q) for _ in range(deg)) + (1,)
                try:
                    cov = kummer(F, d, Poly(F, cs))
                except NotGeometric:
                    continue
                built += 1
                G = cov.group
                for _ in range(25):
                    fdeg = rng.randrange(1, 5)
                    f = Poly(F, tuple(rng.randrange(F.q) for _ in range(fdeg)) + (1,))
                    lam = lambda_of_poly(cov, f)
                    assert lam.degree() == fdeg
                    assert evaluate(B(), lam, G) == direct_b(cov, f)
                    assert evaluate(R(), lam, G) == direct_r(cov, f)
    assert built >= 20


def test_random_ldata_vs_enumeration():
    # random valid quadratic/cubic data over q = 5 and 7: recurrence-extended
    # tallies at degrees 4 and 5 must equal brute enumeration
    rng = random.Random(99)
    done = 0
    for q, ds in ((5, (2, 4)), (7, (2, 3))):
        F = make_field(q)
        for d in ds:
            for _ in range(4):
                deg = rng.randrange(1, 4)
                cs = tuple(rng.randrange(q) for _ in range(deg)) + (1,)
                try:
                    cov = kummer(F, d, Poly(F, cs))
                except NotGeometric:
                    continue
                data = AbelianFrobeniusData(cov)
                data.ensure(5)
                for n in (4, 5):
                    row = [0] * d
                    for P in primes_of_degree(F, n):
                        if P in cov._ram:
                            continue
                        row[oracle_class(cov, P)] += 1
                    assert row == data.tallies[n], (q, d, cs, n)
                done += 1
    assert done >= 10


def test_product_tallies_vs_enumeration():
    c1 = kummer(F5, 2, "T")
    c2 = kummer(F5, 2, "T^2-2")
    pc = product([c1, c2])
    data = AbelianFrobeniusData(pc)
    data.ensure(5)
    for n in (4, 5):
        row = [0] * 4
        for P in primes_of_degree(F5, n):
            if P in pc._ram:
                continue
            row[oracle_class(pc, P)] += 1
        assert row == data.tallies[n]


def test_product_b_series_vs_enumeration():
    pc = product([kummer(F5, 2, "T"), kummer(F5, 2, "T^2-2")])
    ser = b_series(pc, 4)
    for n in range(5):
        assert ser.coeffs[n] == b_direct_sum(pc, n)


def test_census_masses_random_cover():
    from ffcheb.intervals import IntervalSpec, census

    F7 = make_field(7)
    cov = kummer(F7, 3, "T^2+2*T+3")
    I = IntervalSpec(parse_poly(F7, "T^4"), 2)
    result = census(cov, I)
    total = sum(r.empirical for r in result.rows) + result.nonsquarefree_empirical
    assert total == 1
    assert sum(r.predicted for r in result.rows) == 1
    assert result.nonsquarefree_empirical <= Fraction(4, 7)
