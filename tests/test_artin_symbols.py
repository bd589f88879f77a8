"""The Frobenius routes without a power modulo P, against the powmod oracles.

`KummerCover.artin_symbol` reads (D/f)_d by d-th power reciprocity and
`ArtinSchreierCover.artin_symbol` reads the trace of D by the residue theorem
at its poles; `coset_class` runs both at unramified primes.  Here they must
agree with `KummerCover._symbol` and the per-prime trace `oracles.as_trace`
on every unramified prime of small degree, on composite f through the
factorization, and inside product covers.  The Artin-Schreier data have
poles of order 1, 2 and 3, at linear, quadratic and cubic primes.
The Kummer data carry a nonlinear factor, a non-monic unit
and, for d > 2, a part of multiplicity 2, and have odd degree, so the unit
term and the sign term (-1)^((q-1)/d * deg f * deg Q) both matter.
"""

import random

import pytest

from ffcheb.covers import artin_schreier, kummer, product
from ffcheb.errors import DomainError, RamifiedPrime
from ffcheb.ffield import make_field
from ffcheb.polys import (
    Poly,
    RationalFn,
    factor_raw,
    is_irreducible_raw,
    parse_poly,
    pgcd,
    pmul,
    primes_of_degree,
)

from oracles import as_trace, oracle_element

FIELDS = {4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1), 25: (5, 2)}
KUMMER = [(4, 3), (5, 2), (5, 4), (7, 2), (7, 3), (7, 6), (9, 2), (9, 4),
          (13, 2), (13, 3), (13, 4), (13, 6), (25, 2), (25, 3), (25, 4), (25, 6)]


def max_degree(q):
    """Largest degree <= 4 whose primes are all checked in well under a second."""
    return max(n for n in range(1, 5) if q**n <= 2500)


def quadratic_prime(F):
    """An irreducible monic quadratic, found without listing them all."""
    return next(
        (c, b, 1) for b in range(F.q) for c in range(F.q)
        if is_irreducible_raw(F, (c, b, 1))
    )


def kummer_datum(F, d):
    """u (T - a)^m Q (T - b) [(T - c)] of odd degree: Q an irreducible
    quadratic, u a generator of F_q^* (no d-th power), m = 2 when d > 2."""
    Q = quadratic_prime(F)
    a, b, c = (F.neg(r) for r in range(3))
    m = 2 if d > 2 else 1
    cs = (F.generator,)
    for part in [(a, 1)] * m + [Q, (b, 1)]:
        cs = pmul(F, cs, part)
    if (len(cs) - 1) % 2 == 0:
        cs = pmul(F, cs, (c, 1))
    return Poly(F, cs)


def test_kummer_datum_shape():
    # the gate below is only as good as its data
    for q, d in KUMMER:
        F = make_field(*FIELDS[q])
        cov = kummer(F, d, kummer_datum(F, d))
        assert cov.unit != 1
        assert any(len(Q) > 2 for Q, _ in cov.parts)
        assert cov.D.degree % 2 == 1
        if d > 2:
            assert max(m for _, m in cov.parts) == 2
    # the sign term is nontrivial somewhere: (q-1)/d odd
    assert any(((q - 1) // d) % 2 for q, d in KUMMER)


@pytest.mark.parametrize("q, d", KUMMER)
def test_kummer_primes_vs_powmod_symbol(q, d):
    F = make_field(*FIELDS[q])
    cov = kummer(F, d, kummer_datum(F, d))
    ram = cov._ramified_set()
    for n in range(1, max_degree(q) + 1):
        for P in primes_of_degree(F, n):
            if P in ram:
                continue
            assert cov.artin_symbol(P) == cov._symbol(cov.D.coeffs, P), (q, d, P)


@pytest.mark.parametrize("q, d", [(q, d) for q, d in KUMMER if max_degree(q) < 4])
def test_kummer_degree_four_sample(q, d):
    # degree 4 where listing every prime is too slow for a unit test
    F = make_field(*FIELDS[q])
    cov = kummer(F, d, kummer_datum(F, d))
    rng = random.Random(q * 100 + d)
    seen = 0
    while seen < 60:
        P = tuple(rng.randrange(q) for _ in range(4)) + (1,)
        if is_irreducible_raw(F, P):
            assert cov.artin_symbol(P) == cov._symbol(cov.D.coeffs, P), (q, d, P)
            seen += 1


@pytest.mark.parametrize("q, d", KUMMER)
def test_kummer_composite_vs_factorization(q, d):
    F = make_field(*FIELDS[q])
    cov = kummer(F, d, kummer_datum(F, d))
    ram = cov._ramified_set()
    rng = random.Random(q * 1000 + d)
    checked = 0
    while checked < 40:
        f = tuple(rng.randrange(q) for _ in range(rng.randrange(0, 7))) + (1,)
        _, parts = factor_raw(F, f)
        if any(P in ram for P, _ in parts):
            with pytest.raises(RamifiedPrime):
                cov.artin_symbol(f)
            continue
        want = sum(e * cov._symbol(cov.D.coeffs, P) for P, e in parts) % d
        assert cov.artin_symbol(f) == want, (q, d, f)
        checked += 1


AS_FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3)]


def as_datum(F, wild):
    """N / (P1 P2^2): poles of order 1 and 2 at a linear and a quadratic
    prime; deg N = deg den (tame) or deg den + 1 (wild at infinity)."""
    P1 = (F.neg(1), 1)
    P2 = quadratic_prime(F)
    den = pmul(F, P1, pmul(F, P2, P2))
    rng = random.Random(F.q)
    num, deg = (), len(den) - 1 + wild
    while pgcd(F, num, den) != (1,):  # keep both poles
        num = tuple(rng.randrange(F.q) for _ in range(deg)) + (F.generator,)
    return RationalFn(Poly(F, num), Poly(F, den))


@pytest.mark.parametrize("p, k", AS_FIELDS)
@pytest.mark.parametrize("wild", [False, True])
def test_artin_schreier_primes_vs_trace(p, k, wild):
    F = make_field(p, k)
    cov = artin_schreier(F, as_datum(F, wild), force_wild=wild)
    assert max(len(cov.D.num.coeffs), 1) >= len(cov.D.den.coeffs)
    assert cov.wild_override == wild
    if p > 2:  # in characteristic 2 the order-2 pole is reduced away
        assert sorted(m for _, m in cov._poles) == [1, 2]
    check_as_primes(cov)


def check_as_primes(cov):
    """artin_symbol against `as_trace` on every unramified prime of small degree."""
    F = cov.ctx
    ram = cov._ramified_set()
    checked = 0
    for n in range(1, max_degree(F.q) + 1):
        for P in primes_of_degree(F, n):
            if P in ram:
                continue
            assert cov.artin_symbol(P) == as_trace(cov, P), (F.q, P)
            checked += 1
    assert checked >= F.q - 2


def check_as_composites(cov, rng, count):
    """artin_symbol of random monics of degree < 6 against the traces of
    their prime factors; a factor at a pole must raise."""
    F = cov.ctx
    ram = cov._ramified_set()
    checked = 0
    while checked < count:
        f = tuple(rng.randrange(F.q) for _ in range(rng.randrange(0, 6))) + (1,)
        _, parts = factor_raw(F, f)
        if any(P in ram for P, _ in parts):
            with pytest.raises(RamifiedPrime):
                cov.artin_symbol(f)
            continue
        assert cov.artin_symbol(f) == sum(e * as_trace(cov, P) for P, e in parts) % F.p
        checked += 1


@pytest.mark.parametrize("p, k", AS_FIELDS)
def test_artin_schreier_composite_vs_factorization(p, k):
    F = make_field(p, k)
    check_as_composites(artin_schreier(F, as_datum(F, False)), random.Random(p * 10 + k), 30)


@pytest.mark.parametrize("p, k", [(5, 1), (5, 2)])
def test_artin_schreier_pole_of_order_three(p, k):
    # D = 1/T^3 + 1/(T - 1): a pole of order 3, which p = 3 would reduce away
    F = make_field(p, k)
    D = RationalFn(parse_poly(F, "T^3+T-1"), parse_poly(F, "T^4-T^3"))
    cov = artin_schreier(F, D)
    assert sorted((m, len(P) - 1) for P, m in cov._poles) == [(1, 1), (3, 1)]
    check_as_primes(cov)
    check_as_composites(cov, random.Random(p * 100 + k), 40)


def cubic_prime(F):
    """An irreducible monic cubic, found without listing them all."""
    return next(
        (a, b, c, 1) for c in range(F.q) for b in range(F.q) for a in range(F.q)
        if is_irreducible_raw(F, (a, b, c, 1))
    )


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (7, 1), (7, 2)])
def test_artin_schreier_cubic_pole_and_linear_pole_of_higher_order(p, k):
    # N / (C (T - 1)^m): a simple pole at a cubic C, whose residue is read
    # modulo C, and m = 2 at a linear place (m = 3 where p = 2, which would
    # reduce an order-2 pole away), read modulo (T - 1)^m
    F = make_field(p, k)
    m = 3 if p == 2 else 2
    den = cubic_prime(F)
    for _ in range(m):
        den = pmul(F, den, (F.neg(1), 1))
    rng = random.Random(p * 10 + k)
    num = ()
    while pgcd(F, num, den) != (1,):  # keep both poles
        num = tuple(rng.randrange(F.q) for _ in range(len(den) - 2)) + (F.generator,)
    cov = artin_schreier(F, RationalFn(Poly(F, num), Poly(F, den)))
    assert sorted((len(P) - 1, e) for P, e in cov._poles) == [(1, m), (3, 1)]
    check_as_primes(cov)
    check_as_composites(cov, rng, 30)


def test_product_vs_component_oracles():
    F = make_field(5, 2)
    pc = product([kummer(F, 4, kummer_datum(F, 4)), artin_schreier(F, as_datum(F, False))])
    ram = pc._ramified_set()
    G = pc.group
    checked = 0
    for n in (1, 2):
        for P in primes_of_degree(F, n):
            if P in ram:
                continue
            g = G.encode_product([oracle_element(c, P) for c in pc.components])
            assert pc.coset_class(P) == G.omega_of_coset({g}), P
            checked += 1
    assert checked > 300


def test_artin_symbol_domain():
    F = make_field(7)
    kc = kummer(F, 3, kummer_datum(F, 3))
    ac = artin_schreier(F, as_datum(F, False))
    for cov in (kc, ac):
        assert cov.artin_symbol((1,)) == 0
        with pytest.raises(DomainError):
            cov.artin_symbol((1, 2))  # not monic
        with pytest.raises(DomainError):
            cov.artin_symbol(())
    with pytest.raises(RamifiedPrime):
        kc.artin_symbol(quadratic_prime(F))  # the nonlinear part of D
    for P in ac._ramified_set():
        with pytest.raises(RamifiedPrime):
            ac.artin_symbol(P)
        with pytest.raises(RamifiedPrime):
            ac.artin_symbol(pmul(F, P, (3, 1)))
