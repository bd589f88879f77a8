import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ffcheb import zeta as zeta_mod
from ffcheb.covers import SplittingData, artin_schreier, kummer, product, trivial
from ffcheb.errors import (
    DegreeBoundViolated,
    DomainError,
    InvariantViolated,
    NotComponentwise,
    TooLarge,
)
from ffcheb.factypes import B
from ffcheb.ffield import make_field
from ffcheb.polys import Poly, RationalFn, count_primes, parse_poly, primes_of_degree
from ffcheb.zeta import (
    AbelianFrobeniusData,
    K_E,
    Series,
    b_full_mean,
    b_series,
    count_prime_frobenius_global,
    curve_zeta_numerator,
    dedekind_from_tallies,
    full_degree_mean,
    prime_tallies,
    psi_E,
    ptilde,
    r_full_check,
    r_full_mean,
    rh_root_moduli,
)

from oracles import b_direct_sum, dedekind_series, oracle_class, series_log

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


@pytest.fixture(scope="module")
def quad():
    return kummer(F5, 2, "T^3-3*T^2+2*T")


# -- series primitives ---------------------------------------------------------

def test_series_exp_log_inverse():
    s = Series([Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2)])
    assert series_log(s.exp()).coeffs == s.coeffs


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
            if P in quad._ram:
                continue
            row[oracle_class(quad, P)] += 1
        assert row == data.tallies[n]


def test_prime_tally_example():
    cov = kummer(F5, 2, "T")
    tally = prime_tallies(cov, 1)
    assert tally.unramified[(1, 1)] == 2  # split: residues 1, 4
    assert tally.unramified[(1, 2)] == 2  # inert: non-residues 2, 3
    assert tally.ramified == {(1, 2, 1, 1): 1}  # T itself
    assert sum(tally.unramified.values()) + sum(tally.ramified.values()) == count_primes(F5, 1)


def test_check_partition_rejects_a_tampered_tally_under_optimize():
    # ensure checks that every degree's tallies add up to the prime count,
    # and the check must not rest on assert, which python -O strips.  With 3
    # added to Z_1 the degree-3 tallies stay integral and nonnegative, but
    # they no longer add up.
    code = (
        "from ffcheb.covers import kummer\n"
        "from ffcheb.errors import DegreeBoundViolated\n"
        "from ffcheb.ffield import make_field\n"
        "from ffcheb.zeta import AbelianFrobeniusData\n"
        "data = AbelianFrobeniusData(kummer(make_field(5), 2, 'T^3-3*T^2+2*T'))\n"
        "print('J =', data.J, 'tallies[1] =', data.tallies[1])\n"
        "data.Z[1][0] += 3\n"
        "try:\n"
        "    data.ensure(data.J + 1)\n"
        "except DegreeBoundViolated as e:\n"
        "    print('raised:', e)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "J = 2 tallies[1] = [2, 0]\nraised: tallies at degree 3 do not add up"
    )


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

def _one_over(F, text):
    return RationalFn(Poly.one(F), parse_poly(F, text))


def _full_degree_covers():
    """(label, cover, top degree) for the sums over every monic of a degree."""
    F2, F4, F9 = make_field(2), make_field(2, 2), make_field(3, 2)
    return [
        ("kummer d=2 F5", kummer(F5, 2, "T^3-3*T^2+2*T"), 5),
        ("kummer d=3 F7", kummer(F7, 3, "T^2+2*T+3"), 4),
        ("kummer d=4 F5, e=2 at T and e=4 at T-1", kummer(F5, 4, "T^3-T^2"), 5),
        ("artin-schreier F5", artin_schreier(F5, _one_over(F5, "T^2-T")), 5),
        ("artin-schreier F4", artin_schreier(F4, _one_over(F4, "T")), 5),
        ("force-wild artin-schreier F2", artin_schreier(F2, "T", force_wild=True), 5),
        (
            "kummer x artin-schreier F5",
            product([kummer(F5, 2, "T^2-T"), artin_schreier(F5, _one_over(F5, "T"))]),
            5,
        ),
        ("trivial F5", trivial(F5), 5),
        ("kummer d=2 F9", kummer(F9, 2, "T^3-3*T^2+2*T"), 4),
    ]


def test_dedekind_direct_vs_euler():
    # the sums of r and b over every monic of degree n, one factorization per
    # monic (the oracle), against the interval sieve's sums over I(T^n, n - 1)
    # and, for r, the Euler product over the prime tallies
    for label, cov, N in _full_degree_covers():
        q = cov.ctx.q
        direct = dedekind_series(cov, N).coeffs
        assert [r_full_mean(cov, n) * q**n for n in range(N + 1)] == direct, label
        assert dedekind_from_tallies(cov, N).coeffs == direct, label
        sieved_b = [full_degree_mean(cov, B(), n) * q**n for n in range(N + 1)]
        assert sieved_b == [b_direct_sum(cov, n) for n in range(N + 1)], label


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


@pytest.mark.parametrize(
    "pt, inf, want",
    [
        ([1, 3, 7, 5], (1, 2, 1), [1, 2, 5]),  # (1 + u)(1 + 2u + 5u^2)
        ([1, 1, 3, -5], (1, 1, 2), [1, 2, 5]),  # (1 - u)(1 + 2u + 5u^2)
        ([1, 3, 7, 6], (1, 2, 1), "does not divide ptilde"),
        ([1, 1], (1, 3, 1), "lower degree"),
        ([1, 2, 5], (1, 1, 0), "not divisible by 1 - u"),
    ],
)
def test_curve_numerator_divides_out_the_infinite_places(monkeypatch, quad, pt, inf, want):
    # ptilde = P_E * prod_(g_inf) (1 - u^f_inf) / (1 - u), divided exactly
    monkeypatch.setattr(zeta_mod, "ptilde", lambda spec: pt)
    monkeypatch.setattr(quad, "infinity_data", lambda: SplittingData(*inf))
    if isinstance(want, list):
        assert curve_zeta_numerator(quad) == want
    else:
        with pytest.raises(DegreeBoundViolated, match=want):
            curve_zeta_numerator(quad)


@pytest.mark.parametrize(
    "curve, q",
    [
        ([1, -20, 150, -500, 625], 25),  # (1 - 5u)^4: a fourfold root
        ([1, 10, 25], 25),  # trace -10 = -2 sqrt(q), on the band's edge
        ([1, 0, 25], 25),
    ],
)
def test_rh_certificate_accepts(curve, q):
    assert rh_root_moduli(curve, q) == [1.0] * (len(curve) - 1)


@pytest.mark.parametrize(
    "curve, q",
    [
        ([1, 11, 25], 25),  # trace -11, outside +-10
        ([1, 4, 6, 12, 9], 3),  # functional equation holds, a trace -4 is outside +-2 sqrt 3
        ([1, 0, 5], 25),  # the roots lie on |u|^2 = 1/5: no functional equation over F_25
    ],
)
def test_rh_certificate_refuses_tampered_numerators(curve, q):
    with pytest.raises(InvariantViolated):
        rh_root_moduli(curve, q)


def test_r_full_check_report(quad):
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
            if P in cov._ram:
                continue
            row[oracle_class(cov, P)] += 1
        assert row == data.tallies[n]


# -- L-data branches, each against the prime-sweep oracle ----------------------

def _oracle_row(cov, n):
    row = [0] * cov.group.n
    for P in primes_of_degree(cov.ctx, n):
        if P not in cov._ram:
            row[oracle_class(cov, P)] += 1
    return row


def _x_over(F, power):
    """1 / T^power over F, an Artin-Schreier datum with one pole at T."""
    x = Poly.x(F)
    return RationalFn(Poly.one(F), x**power)


# below the conductor degree n0 the tallies come from the Artin symbols of all
# monics, from n0 on from the uniform tail; degrees <= 5 cover both here
ORACLE_CASES = {
    "kummer-d2": lambda: kummer(F5, 2, "T^3-3*T^2+2*T"),
    "kummer-d3": lambda: kummer(make_field(7), 3, "T^2-3"),
    "kummer-d4-reduced": lambda: kummer(F5, 4, "T^3-T^2"),  # T^2 (T - 1)
    # d | v_T(D): T is unramified, and the sweep must count its multiples
    "kummer-d2-square-dropped": lambda: kummer(F5, 2, "T^3-T^2"),
    "artin-schreier-pole1": lambda: artin_schreier(F3, _x_over(F3, 1)),
    "artin-schreier-pole2": lambda: artin_schreier(F5, _x_over(F5, 2)),
    # y^3 - y = T^2 is wild at infinity only: no finite ramified prime
    "forced-wild": lambda: artin_schreier(F3, "T^2", force_wild=True),
    "kummer-x-artin-schreier": lambda: product(
        [kummer(F3, 2, "T-1"), artin_schreier(F3, _x_over(F3, 1))]
    ),
    # components of coprime orders 2 and 3 sharing ramified places: T in the
    # first, T and infinity in the second
    "shared-place-T": lambda: product([kummer(F3, 2, "T^2-T"), artin_schreier(F3, _x_over(F3, 1))]),
    "shared-place-infinity": lambda: product([kummer(F7, 2, "T"), kummer(F7, 3, "T^2-T")]),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_ldata_matches_the_prime_sweep_oracle(case):
    cov = ORACLE_CASES[case]()
    data = AbelianFrobeniusData(cov)
    data.ensure(5)
    for n in range(1, 6):
        assert data.tallies[n] == _oracle_row(cov, n)


def test_ldata_wrong_declared_genus_is_degree_bound_violated(monkeypatch):
    # the true genus is 8; the tallies do not read the genus, but ptilde
    # certifies its degree bound 2g + f_inf g_inf - 1 from it
    pc = product([artin_schreier(F5, _x_over(F5, 2)), kummer(F5, 2, "T-1")])
    monkeypatch.setattr(pc, "genus", lambda: 0)
    with pytest.raises(DegreeBoundViolated):
        ptilde(pc)


@pytest.mark.parametrize("case, genus", [("shared-place-T", 1), ("shared-place-infinity", 2)])
def test_shared_place_of_coprime_orders_genus_is_half_the_curve_numerator_degree(case, genus):
    # the genus takes the largest component exponent at each shared place;
    # deg P_E = 2g is read from the prime tallies, not from the genus
    cov = ORACLE_CASES[case]()
    assert cov.genus() == genus
    assert len(curve_zeta_numerator(cov)) - 1 == 2 * genus


def _times(*series, N):
    out = [Fraction(1)] + [Fraction(0)] * N
    for s in series:
        out = [sum(out[k] * s.coeffs[n - k] for k in range(n + 1)) for n in range(N + 1)]
    return out


def test_product_local_data_satisfy_the_subfield_identity():
    # L = K1 K2 with group Z/2 x Z/2 has the three quadratic subfields K1, K2
    # and K3 = F(sqrt(D1 D2)): Z_L Z_K^2 = Z_K1 Z_K2 Z_K3 prime by prime, an
    # identity the product's ramified cosets must satisfy on their own
    N = 4
    Z = lambda cov: dedekind_from_tallies(cov, N)  # noqa: E731
    L = product([kummer(F5, 2, "T"), kummer(F5, 2, "T^2-2")])
    K1, K2, K3 = (kummer(F5, 2, D) for D in ("T", "T^2-2", "T^3-2*T"))
    assert _times(Z(L), Z(trivial(F5)), Z(trivial(F5)), N=N) == _times(Z(K1), Z(K2), Z(K3), N=N)
    # where both components ramify at T the inertia coset is not the product
    # of theirs, so such a product is refused rather than tallied
    with pytest.raises(NotComponentwise):
        product([kummer(F5, 2, "T"), kummer(F5, 2, "T^2-T")])


def test_genus6_artin_schreier_tallies_and_curve_numerator():
    # y^7 - y = 1/(T(T-1)) over F_49: the degree of P_E is 2g, with g from
    # Riemann-Hurwitz, and the tallies at degrees <= 2 match the oracle
    F49 = make_field(7, 2)
    x = Poly.x(F49)
    cov = artin_schreier(F49, RationalFn(Poly.one(F49), x * (x - 1)))
    assert cov.genus() == 6
    assert len(curve_zeta_numerator(cov)) - 1 == 2 * cov.genus()
    for n in (1, 2):
        got = [count_prime_frobenius_global(cov, c, n) for c in range(len(cov.group.classes))]
        assert got == _oracle_row(cov, n)


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
        r_full_mean(cov, 12)


# -- degrees outside the domain --------------------------------------------------


def test_r_full_mean_refuses_negative_degree(quad):
    with pytest.raises(DomainError):
        r_full_mean(quad, -1)


def test_b_full_mean_refuses_negative_degree(quad):
    with pytest.raises(DomainError):
        b_full_mean(quad, -1)


def test_r_full_check_refuses_negative_degree(quad):
    with pytest.raises(DomainError):
        r_full_check(quad, -2)


def test_psi_E_refuses_degree_below_one(quad):
    for n in (0, -1):
        with pytest.raises(DomainError):
            psi_E(quad, n)


def test_count_prime_frobenius_global_refuses_degree_below_one(quad):
    for n in (0, -1):
        with pytest.raises(DomainError):
            count_prime_frobenius_global(quad, 0, n)


def test_prime_tallies_refuses_negative_degree(quad):
    assert prime_tallies(quad, 0).max_degree == 0
    with pytest.raises(DomainError):
        prime_tallies(quad, -1)


def test_b_series_refuses_negative_degree(quad):
    assert b_series(quad, 0).coeffs == [1]
    with pytest.raises(DomainError):
        b_series(quad, -1)


def test_dedekind_from_tallies_refuses_negative_degree(quad):
    assert dedekind_from_tallies(quad, 0).coeffs == [1]
    with pytest.raises(DomainError):
        dedekind_from_tallies(quad, -1)
