import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from ffcheb.errors import (
    ConstantPolynomial,
    InvariantViolated,
    NotIrreducible,
    PoleAtPrime,
    TooLarge,
    ZeroPolynomial,
)
from ffcheb.ffield import Field, make_field
from ffcheb.polys import (
    Poly,
    RationalFn,
    _edf,
    _frobenius,
    _root_table,
    count_primes,
    enumerate_monic,
    enumerate_monic_raw,
    eval_mod,
    factor_raw,
    parse_poly,
    pmod,
    pmul,
    pnorm,
    ppowmod,
    primes_of_degree,
    pscale,
    residue_field,
)
from oracles import (
    brute_embedding,
    factored_root,
    orbit_root_table,
    rabin_primes,
    smallest_zero,
)
from test_ffield import CANONICAL_FIELDS

F5 = make_field(5)
F2 = make_field(2)


def P(text, ctx=F5):
    return parse_poly(ctx, text)


# -- factor ------------------------------------------------------------------

def test_factor_difference_of_squares():
    parts = P("T^2-1").factor().parts
    assert [f.text() for f, e in parts] == ["1 + T", "4 + T"]
    assert all(e == 1 for _, e in parts)


def test_factor_t2_plus_1():
    parts = P("T^2+1").factor().parts
    assert [f.text() for f, e in parts] == ["2 + T", "3 + T"]


def test_factor_irreducible_stays():
    f = P("T^2+T+1", F2)
    fac = f.factor()
    assert fac.parts == ((f, 1),)


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        Poly.zero(F5).factor()


def test_factor_multiply_roundtrip_random():
    rng = random.Random(42)
    for p, k in ((5, 1), (3, 2), (2, 2)):
        F = make_field(p, k)
        for _ in range(10_000):
            cs = tuple(rng.randrange(F.q) for _ in range(rng.randrange(1, 9)))
            f = Poly(F, cs)
            if f.is_zero():
                continue
            fac = f.factor()
            assert fac.product() == f
            assert all(g.is_irreducible() for g, _ in fac.parts)


def test_factor_deterministic_across_seed_layout():
    # same run seed gives identical output no matter how work is batched
    rng = random.Random(3)
    F = make_field(5)
    polys = [Poly(F, tuple(rng.randrange(5) for _ in range(7))) for _ in range(50)]
    first = [f.factor(seed=9).parts for f in polys if not f.is_zero()]
    second = [f.factor(seed=9).parts for f in reversed(polys) if not f.is_zero()]
    assert first == list(reversed(second))


def test_factor_high_multiplicity_char_p():
    # p-th powers exercise the derivative-vanishing branch
    f = (P("T+1") ** 4) * (P("T^2+T+1", F2) ** 2 * P("T", F2) ** 6).ctx.elem(1)
    g = P("T^2+T+1", F2) ** 2 * P("T", F2) ** 6
    fac = g.factor()
    assert fac.product() == g
    assert dict((h.text(), e) for h, e in fac.parts) == {"T": 6, "1 + T + T^2": 2}


# -- irreducibility ----------------------------------------------------------

def test_is_irreducible_examples():
    assert not P("T^2+1").is_irreducible()
    assert P("T-3").is_irreducible()
    assert P("T^2+T+1", F2).is_irreducible()
    with pytest.raises(ConstantPolynomial):
        P("3").is_irreducible()


def _trial_division_irreducible(f):
    F = f.ctx
    for d in range(1, f.degree // 2 + 1):
        for g in enumerate_monic(F, d):
            if (f % g).is_zero():
                return False
    return True


def test_is_irreducible_vs_trial_division():
    # exhaustive where cheap, sampled at the larger configurations
    for q, maxdeg, sample in ((2, 6, None), (3, 5, None), (5, 4, None), (7, 6, 400)):
        F = make_field(q) if q != 9 else make_field(3, 2)
        rng = random.Random(q)
        for deg in range(1, maxdeg + 1):
            if sample is None:
                pool = enumerate_monic(F, deg)
            else:
                pool = (
                    Poly(F, tuple(rng.randrange(F.q) for _ in range(deg)) + (1,))
                    for _ in range(sample // maxdeg)
                )
            units = itertools.cycle(range(2, F.q))
            for f in pool:
                assert f.is_irreducible() == _trial_division_irreducible(f)
                if F.q > 2:  # and a non-monic multiple c*f, c != 0, 1
                    cf = Poly(F, pscale(F, f.coeffs, next(units)))
                    assert cf.is_irreducible() == _trial_division_irreducible(cf)


def test_prime_counts_match_enumeration():
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        F = make_field(p, k)
        for n in range(1, 6):
            if F.q**n > 70_000:
                continue
            brute = sum(1 for f in enumerate_monic(F, n) if f.is_irreducible())
            assert brute == count_primes(F, n)
            assert len(primes_of_degree(F, n)) == count_primes(F, n)


def test_sieved_primes_match_rabin():
    # the sieve against a Rabin test on every monic, order included; a fresh
    # Field for each, so neither side reads another test's prime cache
    fields = sorted(CANONICAL_FIELDS) + [(p, 1) for p in (2, 3, 5, 7, 11, 13)]
    for p, k in fields:
        q = p**k
        if q * q > 5_000:
            continue  # no degree n >= 2 with q^n <= 5000
        F, G = Field(p, k), Field(p, k)
        n = 2
        while q**n <= 5_000:
            got = primes_of_degree(F, n)
            assert got == rabin_primes(G, n), (p, k, n)
            assert len(got) == count_primes(F, n)
            n += 1


def test_prime_list_bounded():
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        primes_of_degree(make_field(2), 24)
    assert time.perf_counter() - start < 1.0
    assert 24 not in make_field(2)._prime_cache


def test_pth_root_of_non_power_raises_under_optimize():
    # an internal invariant, so it must not rest on assert
    code = (
        "from ffcheb.errors import InvariantViolated\n"
        "from ffcheb.ffield import make_field\n"
        "from ffcheb.polys import pth_root_poly\n"
        "try:\n"
        "    pth_root_poly(make_field(5), (1, 1))\n"
        "except InvariantViolated as e:\n"
        "    print('raised:', e)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: polynomial is not a p-th power\n"


@pytest.mark.parametrize("pk", [(13, 1), (5, 2), (3, 6)])
def test_ppowmod_vs_repeated_multiplication(pk):
    F = make_field(*pk)
    rng = random.Random(f"ppowmod/{F.q}")
    for d in (1, 2, 3, 5):
        for _ in range(10):
            mod = tuple(rng.randrange(F.q) for _ in range(d)) + (rng.randrange(1, F.q),)
            base = tuple(rng.randrange(F.q) for _ in range(d + 2))
            e = rng.randrange(40)
            want = pmod(F, (1,), mod)
            for _ in range(e):
                want = pmod(F, pmul(F, want, base), mod)
            assert ppowmod(F, base, e, mod) == want


# F_2, F_3, F_4, F_8, F_9, F_13, F_25, F_27, F_49, F_729 and F_{13^4}
FROBENIUS_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (13, 1), (5, 2), (3, 3),
                    (7, 2), (3, 6), (13, 4)]


@pytest.mark.parametrize("pk", FROBENIUS_FIELDS, ids=lambda pk: f"F{pk[0] ** pk[1]}")
def test_frobenius_map_matches_square_and_multiply(pk):
    # sigma_p is read off its table X_i = T^(p*i) mod m; square-and-multiply
    # is the independent route.  m is any monic of degree 1..8, reducible ones
    # included, and a second input reaches the rows the first did not build
    p, k = pk
    F = make_field(p, k)
    rng = random.Random(f"frobenius/{F.q}")
    for _ in range(40):
        d = rng.randrange(1, 9)
        m = tuple(rng.randrange(F.q) for _ in range(d)) + (1,)
        sigma = _frobenius(F, m)
        for _ in range(2):
            h = pnorm(rng.randrange(F.q) for _ in range(rng.randrange(d + 1)))
            assert pnorm(sigma(h, 1)) == ppowmod(F, h, p, m)
            assert pnorm(sigma(h, k)) == ppowmod(F, h, F.q, m)


# largest prime degree drawn over each field: primes_of_degree sieves q^n
# monics, which bounds n over F_729 and F_{13^3}
FACTOR_ORACLE_FIELDS = {(2, 2): 4, (2, 3): 3, (3, 2): 3, (3, 3): 3, (7, 2): 2, (3, 6): 2,
                        (13, 3): 1}


@pytest.mark.parametrize("pk", list(FACTOR_ORACLE_FIELDS), ids=lambda pk: f"F{pk[0] ** pk[1]}")
def test_factor_raw_recovers_products_of_sieved_primes(pk):
    # the prime sieve shares no code with the distinct-degree loop, so the
    # primes it lists are an independent answer for what factor_raw returns;
    # each product has several primes of one degree (an equal-degree split)
    # and a repeated prime, sometimes p or more times (a p-th power part)
    F = make_field(*pk)
    top = FACTOR_ORACLE_FIELDS[pk]
    primes = {n: primes_of_degree(F, n) for n in range(1, top + 1)}
    rng = random.Random(f"factor-oracle/{F.q}")
    for _ in range(30):
        n = rng.randrange(1, top + 1)
        picks = rng.sample(primes[n], min(3, len(primes[n])))
        picks += [picks[0]] * rng.randrange(1, F.p + 1)
        picks += [rng.choice(primes[rng.randrange(1, top + 1)]) for _ in range(rng.randrange(3))]
        unit = rng.randrange(1, F.q)
        f = (unit,)
        want: dict = {}
        for P in picks:
            f = pmul(F, f, P)
            want[P] = want.get(P, 0) + 1
        got_unit, parts = factor_raw(F, f, seed=rng.randrange(4))
        assert got_unit == unit
        assert dict(parts) == want and len(parts) == len(want)


@pytest.mark.parametrize("pk", [(5, 1), (2, 2)], ids=["F5", "F4"])
def test_edf_refuses_a_part_that_is_not_a_product_of_degree_d_primes(pk):
    # the equal-degree splitter trusts its caller; given a prime quartic as a
    # product of quadratics, or a cubic with d = 2, it must raise, not draw
    # forever (over F_4 the trace splitter, over F_5 the norm one)
    F = make_field(*pk)
    rng = random.Random(0)
    quartic = primes_of_degree(F, 4)[0]
    with pytest.raises(InvariantViolated):
        _edf(F, quartic, 2, rng)
    cubic = pmul(F, pmul(F, (0, 1), (1, 1)), primes_of_degree(F, 1)[2])
    with pytest.raises(InvariantViolated):
        _edf(F, cubic, 2, rng)


def test_count_primes_examples():
    assert count_primes(F5, 2) == 10
    assert count_primes(F5, 1) == 5
    assert count_primes(F2, 3) == 2


def test_nonsquarefree_count_is_q_to_n_minus_1():
    for p, k in ((2, 1), (3, 1), (5, 1), (2, 2)):
        F = make_field(p, k)
        for n in (2, 3, 4):
            if F.q**n > 20_000:
                continue
            bad = sum(1 for f in enumerate_monic(F, n) if not f.is_squarefree())
            assert bad == F.q ** (n - 1)


# -- resultant / discriminant -------------------------------------------------

def test_discriminant_examples():
    assert P("T^2+1").discriminant().val == 1  # -4 mod 5
    assert P("T^2-2*T+1").discriminant().val == 0
    assert P("T^3+2*T+4").resultant(P("1")).val == 1


def test_discriminant_vanishes_iff_not_squarefree():
    rng = random.Random(5)
    for _ in range(400):
        f = Poly(F5, tuple(rng.randrange(5) for _ in range(5)) + (1,))
        assert (f.discriminant().val == 0) == (not f.is_squarefree())


def test_resultant_multiplicative():
    rng = random.Random(6)
    for _ in range(100):
        f = Poly(F5, tuple(rng.randrange(5) for _ in range(3)) + (1,))
        g = Poly(F5, tuple(rng.randrange(5) for _ in range(2)) + (1,))
        h = Poly(F5, tuple(rng.randrange(5) for _ in range(2)) + (1,))
        assert (f.resultant(g * h)).val == F5.mul(f.resultant(g).val, f.resultant(h).val)


# -- residue fields ------------------------------------------------------------

def test_eval_mod_examples():
    T = Poly.x(F5)
    assert eval_mod(T, T - 2).val == 2
    assert eval_mod(RationalFn(Poly.one(F5), T), T - 2).val == 3
    with pytest.raises(PoleAtPrime):
        eval_mod(RationalFn(Poly.one(F5), T), T)


def test_residue_field_higher_degree():
    Pq = P("T^2+2")  # irreducible over F_5 (roots of -2)
    rf = residue_field(Pq)
    assert rf.field.q == 25
    t = rf.t_image
    # the image of T must satisfy T^2 + 2 = 0
    big = rf.field
    assert big.add(big.mul(t, t), rf.embed(2)) == 0


def test_residue_field_extension_base():
    F9 = make_field(3, 2)
    for Pq in primes_of_degree(F9, 2)[:5]:
        rf = residue_field(Poly(F9, Pq))
        big = rf.field
        assert big.q == 81
        # embedding is a ring homomorphism
        for a in range(9):
            for b in range(9):
                assert rf.embed(F9.mul(a, b)) == big.mul(rf.embed(a), rf.embed(b))
                assert rf.embed(F9.add(a, b)) == big.add(rf.embed(a), rf.embed(b))
        # t_image is a root of the prime
        acc = 0
        for c in reversed(Pq):
            acc = big.add(big.mul(acc, rf.t_image), rf.embed(c))
        assert acc == 0
        break


@pytest.mark.parametrize(
    "pk, top, sampled",
    [((2, 2), 3, 0), ((5, 1), 4, 0), ((3, 2), 3, 0), ((13, 1), 3, 200)],
    ids=["F4", "F5", "F9", "F13"],
)
def test_t_image_is_smallest_root(pk, top, sampled):
    # every prime of degree <= top: the root table's t_image against the
    # factoring route and a search over F_{q^d}, with an embedding that is
    # found by search too; then a seeded sample of primes of degree top + 1
    # against the factoring route alone
    F = make_field(*pk)
    for d in range(1, top + 1):
        big = make_field(F.p, F.k * d)
        embed = brute_embedding(F, big)
        for Pcs in primes_of_degree(F, d):
            rf = residue_field(Poly._raw(F, Pcs))
            cs = tuple(embed(c) for c in Pcs)
            assert rf.t_image == factored_root(big, cs) == smallest_zero(big, cs)
        assert [rf.embed(a) for a in range(F.q)] == [embed(a) for a in range(F.q)]
    if sampled:
        big = make_field(F.p, F.k * (top + 1))
        embed = brute_embedding(F, big)
        rng = random.Random(f"t_image/{F.q}/{top + 1}")
        for Pcs in rng.sample(primes_of_degree(F, top + 1), sampled):
            rf = residue_field(Poly._raw(F, Pcs))
            assert rf.t_image == factored_root(big, tuple(embed(c) for c in Pcs))


@pytest.mark.parametrize(
    "pk",
    [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (13, 1), (5, 2), (7, 2)],
    ids=["F2", "F3", "F4", "F5", "F9", "F13", "F25", "F49"],
)
def test_root_table_matches_orbit_walk(pk):
    # every degree d with q^d <= 30,000: the table built from one orbit per
    # class of the F_q^* action, against every Frobenius orbit multiplied out
    base = make_field(*pk)
    d = 1
    while base.q**d <= 30000:
        assert _root_table(base, d)[0] == orbit_root_table(base, d), d
        d += 1


def test_residue_field_refuses_reducible():
    T = Poly.x(F5)
    for f in (P("T^2-1"), (T - 1) ** 2, P("T^3+T+1") * (T - 1)):
        with pytest.raises(NotIrreducible):
            residue_field(f)
        with pytest.raises(NotIrreducible):
            eval_mod(T, f)
    with pytest.raises(ConstantPolynomial):
        residue_field(P("3"))
    with pytest.raises(ZeroPolynomial):
        residue_field(P("0"))


def test_residue_field_refuses_reducible_under_optimize():
    # the refusal is a table entry of -1, not an assert that -O strips
    code = (
        "from ffcheb.errors import NotIrreducible\n"
        "from ffcheb.ffield import make_field\n"
        "from ffcheb.polys import Poly, eval_mod, parse_poly, residue_field\n"
        "F = make_field(5)\n"
        "T = Poly.x(F)\n"
        "for f in (parse_poly(F, 'T^2-1'), (T - 1) ** 2, parse_poly(F, 'T^3+T+1') * (T - 1)):\n"
        "    for call in (lambda: residue_field(f), lambda: eval_mod(T, f)):\n"
        "        try:\n"
        "            call()\n"
        "        except NotIrreducible:\n"
        "            print('refused')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n" * 6


@pytest.mark.parametrize("pk", [(5, 1), (2, 2)], ids=["F5", "F4"])
def test_residue_field_exactly_at_primes(pk):
    # a monic gets a residue field exactly when it is prime
    F = make_field(*pk)
    for d in (1, 2, 3):
        primes = set(primes_of_degree(F, d))
        for cs in enumerate_monic_raw(F, d):
            if cs in primes:
                residue_field(Poly._raw(F, cs))
            else:
                with pytest.raises(NotIrreducible):
                    residue_field(Poly._raw(F, cs))


def test_rationalfn_reduction():
    T = Poly.x(F5)
    r = RationalFn(T * T + T, T)  # (T^2+T)/T = T+1
    assert r.den == Poly.one(F5)
    assert r.num == T + 1


# -- text formats ---------------------------------------------------------------

def test_poly_text_roundtrip():
    for text in ("T^3-3*T^2+2*T", "[0,2,2,1]", "4", "T^5"):
        f = P(text)
        assert parse_poly(F5, f.serialize()) == f
        assert parse_poly(F5, f.text()) == f


def test_poly_ext_field_roundtrip():
    F9 = make_field(3, 2)
    f = parse_poly(F9, "[(1,2),(0,1),(2,0)]")
    assert parse_poly(F9, f.serialize()) == f
    assert parse_poly(F9, f.text()) == f


def test_enumerate_monic_order_and_count():
    fs = list(enumerate_monic(F2, 3))
    assert len(fs) == 8
    assert all(f.is_monic() and f.degree == 3 for f in fs)
    assert len(set(f.coeffs for f in fs)) == 8


def test_gcd_monic():
    f = P("T^2-1") * P("T^2+2")
    g = P("T+4") * P("T^2+3")
    assert f.gcd(g) == P("T+4")  # only the root T = 1 is shared
    assert (P("T+1") * 3).gcd(P("T+1") * 2) == P("T+1")  # monic output
