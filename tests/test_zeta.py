import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ffcheb import zeta
from ffcheb.covers import artin_schreier, kummer, product, trivial
from ffcheb.errors import DegreeBoundViolated, TooLarge, UserGenusRequired
from ffcheb.ffield import make_field
from ffcheb.polys import Poly, RationalFn, count_primes, primes_of_degree
from ffcheb.zeta import (
    AbelianFrobeniusData,
    K_E,
    Series,
    b_direct_sum,
    b_full_mean,
    b_series,
    count_prime_frobenius_global,
    curve_zeta_numerator,
    dedekind_from_tallies,
    dedekind_series,
    prime_tallies,
    psi_E,
    ptilde,
    r_full_mean,
    rh_root_moduli,
)

from oracles import oracle_class

F5 = make_field(5)


@pytest.fixture(scope="module")
def quad():
    return kummer(F5, 2, "T^3-3*T^2+2*T")


# -- series primitives ---------------------------------------------------------

def test_series_exp_log_inverse():
    s = Series([Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2)])
    assert s.exp().log().coeffs == s.coeffs


def test_series_geometric():
    # exp(sum q^n u^n / n) = 1/(1 - qu)
    q = 5
    s = Series([Fraction(0)] + [Fraction(q**n, n) for n in range(1, 7)])
    assert s.exp().coeffs == [Fraction(q**n) for n in range(7)]


# -- tallies -------------------------------------------------------------------

def test_tallies_match_enumeration(quad):
    data = AbelianFrobeniusData(quad)
    data.ensure(6)
    for n in (5, 6):
        row = [0, 0]
        for P in primes_of_degree(F5, n):
            if P in quad._ramified_set():
                continue
            row[oracle_class(quad, P)] += 1
        assert row == data.tallies[n]


def test_prime_tally_example():
    cov = kummer(F5, 2, "T")
    tally = prime_tallies(cov, 1)
    assert tally.unramified[(1, 1)] == 2  # split: residues 1, 4
    assert tally.unramified[(1, 2)] == 2  # inert: non-residues 2, 3
    assert tally.ramified == {(1, 2, 1, 1): 1}  # T itself
    tally.check_partition(F5)


def test_check_partition_rejects_a_tampered_tally_under_optimize():
    # the check must not rest on assert, which python -O strips
    code = (
        "from ffcheb.covers import kummer\n"
        "from ffcheb.errors import DegreeBoundViolated\n"
        "from ffcheb.ffield import make_field\n"
        "from ffcheb.zeta import prime_tallies\n"
        "F = make_field(5)\n"
        "tally = prime_tallies(kummer(F, 2, 'T'), 2)\n"
        "tally.unramified[(2, 1)] += 1\n"
        "try:\n"
        "    tally.check_partition(F)\n"
        "except DegreeBoundViolated as e:\n"
        "    print('raised:', e)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: prime tallies at degree 2 ")


def test_global_count_vs_interval():
    cov = kummer(F5, 2, "T")
    assert count_prime_frobenius_global(cov, 1, 1) == 2
    assert count_prime_frobenius_global(cov, 0, 1) == 2
    # degree 2: enumerate directly
    want = [0, 0]
    for P in primes_of_degree(F5, 2):
        want[oracle_class(cov, P)] += 1
    assert [count_prime_frobenius_global(cov, c, 2) for c in (0, 1)] == want


def test_trivial_cover_psi_is_qn():
    cov = trivial(F5)
    for n in range(1, 9):
        assert psi_E(cov, n) == 5**n


def test_sum_d_pi_identity():
    # sum over d | n of d * pi_q(d) = q^n, the engine behind psi
    for q, F in ((5, F5), (9, make_field(3, 2))):
        for n in range(1, 7):
            total = sum(d * count_primes(F, d) for d in range(1, n + 1) if n % d == 0)
            assert total == q**n


def test_psi_band(quad):
    # |psi - q^n/2| <= 4 * max(genus, 2) * q^(n/2)
    for n in range(1, 9):
        dev = abs(Fraction(psi_E(quad, n)) - Fraction(5**n, 2))
        assert dev * dev <= Fraction(64 * 5**n)


def test_b_series_matches_direct(quad):
    ser = b_series(quad, 5)
    for n in range(6):
        assert ser.coeffs[n] == b_direct_sum(quad, n)


def test_b_series_matches_direct_q9():
    F9 = make_field(3, 2)
    cov = kummer(F9, 2, "T^3-3*T^2+2*T")
    ser = b_series(cov, 5)
    for n in range(6):
        assert ser.coeffs[n] == b_direct_sum(cov, n)


def test_trivial_cover_b_everything():
    cov = trivial(F5)
    for n in range(6):
        assert b_full_mean(cov, n) == 1 if n else 1


def test_K_E_trivial_is_one():
    cov = trivial(F5)
    val, tail = K_E(cov, 8)
    assert val == 1


def test_K_E_band(quad):
    val, tail = K_E(quad)
    # |K - 1| <= 4/sqrt(5), compared in squares to stay exact
    assert (val - 1) ** 2 <= Fraction(16, 5)
    assert tail < 100


def test_K_E_truncation_floor(quad):
    with pytest.raises(TooLarge):
        K_E(quad, 2)  # below 2*genus + |G|


def test_K_E_tail_halves(quad):
    _, t0 = K_E(quad, 8)
    _, t1 = K_E(quad, 10)
    _, t2 = K_E(quad, 12)
    assert t1 <= t0 / 2
    assert t2 <= t1 / 2


# -- the Dedekind identity -------------------------------------------------------

def test_dedekind_direct_vs_euler(quad):
    direct = dedekind_series(quad, 5)
    euler = dedekind_from_tallies(quad, 5)
    assert direct.coeffs == euler.coeffs


def test_trivial_cover_dedekind():
    cov = trivial(F5)
    assert ptilde(cov) == [1]
    for n in range(4):
        assert r_full_mean(cov, n) == 1


def test_ptilde_genus1(quad):
    pt = ptilde(quad)
    assert pt == [1, 2, 5]  # independent oracle: 8 points over F_5
    val = sum(Fraction(c, 5**i) for i, c in enumerate(pt))
    assert val == Fraction(8, 5)
    # exact mean for n >= deg ptilde
    for n in range(2, 7):
        assert r_full_mean(quad, n) == val
    # |ptilde(1/q) - 1| <= 4/sqrt(q)
    assert (val - 1) ** 2 <= Fraction(16, 5)


def test_curve_numerator_and_rh(quad):
    curve = curve_zeta_numerator(quad)
    assert curve == [1, 2, 5]
    for m in rh_root_moduli(curve, 5):
        assert abs(m - 1.0) < 1e-9


def test_r_full_check_report(quad):
    from ffcheb.zeta import r_full_check

    rep = r_full_check(quad, 4)
    assert rep.empirical_mean == rep.predicted_mean == Fraction(8, 5)
    assert rep.regime["exact_identity_regime"] is True
    assert rep.regime["value_within_4_over_sqrt_q"] is True
    assert "ptilde" in rep.serialize()
    rep0 = r_full_check(quad, 1)  # below the exact regime: no assertion made
    assert rep0.regime["exact_identity_regime"] is False


def test_even_degree_infinite_place():
    # deg D even: infinity splits or is inert; ptilde picks up a cyclotomic
    # factor with f_inf * g_inf = 2
    cov = kummer(F5, 2, "T^2-2")
    pt = ptilde(cov)
    inf = cov.infinity_data()
    assert inf.e == 1 and inf.f * inf.g == 2
    curve = curve_zeta_numerator(cov)
    assert len(pt) - 1 == 2 * cov.genus() + inf.f * inf.g - 1
    for m in rh_root_moduli(curve, 5):
        assert abs(m - 1.0) < 1e-6


def test_artin_schreier_tallies():
    F3 = make_field(3)
    cov = artin_schreier(F3, RationalFn(Poly.one(F3), Poly.x(F3)))
    data = AbelianFrobeniusData(cov)
    data.ensure(5)
    for n in (1, 2, 3, 4):
        row = [0, 0, 0]
        for P in primes_of_degree(F3, n):
            if P in cov._ramified_set():
                continue
            row[oracle_class(cov, P)] += 1
        assert row == data.tallies[n]


# -- L-data branches, each against the prime-sweep oracle ----------------------

def _oracle_row(cov, n):
    row = [0] * cov.group.n
    for P in primes_of_degree(cov.ctx, n):
        if P not in cov._ramified_set():
            row[oracle_class(cov, P)] += 1
    return row


def test_ldata_budget_cuts_the_sweep_to_the_degree_bound(monkeypatch, quad):
    # 5 + 25 + 125 = 155 candidates: the sweep stops at deg_bound, so degree
    # 4 on is extended with no degree past the bound to check the tail on
    monkeypatch.setattr(zeta, "LDATA_BUDGET", 155)
    data = AbelianFrobeniusData(quad)
    assert data.J == data.deg_bound == 3
    data.ensure(6)
    for n in (4, 5, 6):
        assert data.tallies[n] == _oracle_row(quad, n)


def test_ldata_crude_bound_when_the_genus_is_undeclared():
    # both components ramify at T: no conductor-discriminant genus, so the
    # degree bound is the crude ram_deg_sum + 2|G| = 2 + 8
    F3 = make_field(3)
    pc = product([kummer(F3, 2, "T"), kummer(F3, 2, "T^2-T")])
    with pytest.raises(UserGenusRequired):
        pc.genus()
    data = AbelianFrobeniusData(pc)
    assert (data.deg_bound, data.J) == (10, 11)
    data.ensure(13)
    for n in range(1, 6):
        assert data.tallies[n] == _oracle_row(pc, n)


def test_ldata_wrong_declared_genus_is_degree_bound_violated():
    # the true genus is 8; genus 0 puts the degree bound at 2
    pc = product(
        [artin_schreier(F5, RationalFn(Poly.one(F5), Poly.x(F5) * Poly.x(F5))),
         kummer(F5, 2, "T-1")]
    )
    pc.declared_genus = 0
    with pytest.raises(DegreeBoundViolated):
        AbelianFrobeniusData(pc).ensure(6)


def test_ldata_forced_wild_artin_schreier():
    # y^3 - y = T^2 is wild at infinity only: genus 1, no finite ramified prime
    F3 = make_field(3)
    cov = artin_schreier(F3, "T^2", force_wild=True)
    assert cov.genus() == 1 and not cov._ramified_set()
    data = AbelianFrobeniusData(cov)
    data.ensure(6)
    assert data.J < 5
    for n in range(1, 7):
        assert data.tallies[n] == _oracle_row(cov, n)


def test_ensure_computes_each_degree_once(monkeypatch, quad):
    # Newton's identity is convolved once per degree past J, however ensure
    # is called, and the tallies match a single call
    once = AbelianFrobeniusData(quad)
    once.ensure(8)
    data = AbelianFrobeniusData(quad)
    convolve = AbelianFrobeniusData._convolve
    seen = []

    def counted(self, n, kmax):
        seen.append(n)
        return convolve(self, n, kmax)

    monkeypatch.setattr(AbelianFrobeniusData, "_convolve", counted)
    for n in range(data.J + 1, 9):
        data.ensure(n)
    data.ensure(8)
    assert seen == list(range(data.J + 1, 9))
    assert data.tallies == once.tallies


def test_enumeration_budget():
    cov = trivial(make_field(5))
    with pytest.raises(TooLarge):
        dedekind_series(cov, 12)
