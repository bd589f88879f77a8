"""Cover behavior, pinned by spec-level examples and independent oracles:
point counts for genus, Y^d - D factorization for splitting data, and the
trace-based Frobenius for Artin-Schreier reduction invariance."""

import random
from collections import Counter

import pytest

from ffcheb.covers import (
    SplittingCover,
    artin_schreier,
    as_reduce,
    dumps_cover,
    kummer,
    parse_cover,
    product,
    trivial,
)
from ffcheb.errors import (
    AmbiguousCycleType,
    DomainError,
    NotComponentwise,
    NotDividing,
    NotGeometric,
    RamifiedPrime,
    RamifiedSplittingCover,
    TooLarge,
    UserGenusRequired,
    WildAtInfinity,
)
from ffcheb.ffield import make_field
from ffcheb.groups import GroupTable, parse_cycles
from ffcheb.intervals import IntervalSpec, interval_lambda_counts
from ffcheb.polys import (
    Poly,
    RationalFn,
    count_primes,
    factor_raw,
    parse_poly,
    peval,
    primes_of_degree,
)
from ffcheb.zeta import count_prime_frobenius_global
from oracles import (
    brute_embedding,
    count_zeros,
    dedekind_series,
    oracle_class,
    power_residue,
    smallest_zero,
)

F5 = make_field(5)
F3 = make_field(3)
F2 = make_field(2)
T5 = Poly.x(F5)


def quad_T():
    return kummer(F5, 2, "T")


# -- validation ---------------------------------------------------------------

def test_validate_kummer_ok():
    cov = quad_T()
    assert cov.group.n == 2 and cov.parts == ((Poly.x(F5).coeffs, 1),)


def test_validate_kummer_constant_rejected():
    with pytest.raises(NotGeometric):
        kummer(F5, 2, "[4]")
    with pytest.raises(NotGeometric):
        kummer(F5, 2, "[2]")  # non-square constant: constant-field extension


def test_validate_kummer_square_rejected():
    with pytest.raises(NotGeometric):
        kummer(F5, 2, "T^2")
    with pytest.raises(NotGeometric):
        kummer(F5, 2, "4*T^2")


def test_validate_kummer_d_not_dividing():
    with pytest.raises(NotDividing):
        kummer(F5, 3, "T")


def test_multiplicity_reduction_mod_d():
    cov = kummer(F5, 2, "T^3")  # reduces to T
    assert cov.D == Poly.x(F5)


def test_validate_as_wild():
    with pytest.raises(WildAtInfinity):
        artin_schreier(F2, "T")
    cov = artin_schreier(F2, "T", force_wild=True)
    assert cov.wild_override and not cov.tame_at_infinity()


def test_validate_as_constant_rejected():
    with pytest.raises(NotGeometric):
        artin_schreier(F2, "T^2+T")  # = wp(T), trivial
    with pytest.raises(NotGeometric):
        artin_schreier(F3, "[1]")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: kummer(F5, 2, "[2]"), NotGeometric),
        (lambda: artin_schreier(F3, "[1]"), NotGeometric),
        (lambda: artin_schreier(F2, "T"), WildAtInfinity),
        (lambda: product([kummer(F5, 2, "T"), kummer(F5, 2, "T-1")]), NotComponentwise),
        # the S_3 cubic with the classes of (2, 1) and (3) swapped
        (lambda: _s3_cubic(F5, table={(1, 1, 1): 0, (2, 1): 2, (3,): 1}), AmbiguousCycleType),
    ],
    ids=["kummer-constant", "as-constant", "as-wild", "product-shared-place", "splitting-table"],
)
def test_refused_at_build_time(build, error):
    # no unchecked cover is ever returned: the builder raises, and raises
    # the same error on a second build
    with pytest.raises(error) as first:
        build()
    with pytest.raises(error) as second:
        build()
    assert str(second.value) == str(first.value)


# -- as_reduce ------------------------------------------------------------------

def test_as_reduce_examples():
    assert as_reduce(RationalFn(parse_poly(F2, "T^2"))).num == Poly.x(F2)
    assert as_reduce(RationalFn(parse_poly(F2, "T^4"))).num == Poly.x(F2)
    one_over_t = RationalFn(Poly.one(F3), Poly.x(F3))
    assert as_reduce(one_over_t) == one_over_t


def test_as_reduce_idempotent():
    rng = random.Random(0)
    for F in (F2, F3):
        for _ in range(60):
            num = Poly(F, tuple(rng.randrange(F.q) for _ in range(rng.randrange(1, 7))))
            den = Poly(F, tuple(rng.randrange(F.q) for _ in range(rng.randrange(0, 3))) + (1,))
            if num.is_zero():
                continue
            r = as_reduce(RationalFn(num, den))
            assert as_reduce(r) == r
            # reduced form: no positive monomial with exponent divisible by p
            quo, _ = divmod(r.num, r.den)
            assert all(
                c == 0 for i, c in enumerate(quo.coeffs) if i > 0 and i % F.p == 0
            )
            _, parts = factor_raw(F, r.den.coeffs) if r.den.degree else (1, ())
            assert all(m % F.p != 0 for _, m in parts)


def test_as_reduce_preserves_frobenius():
    # reduction shifts D by wp(g); the trace symbol must be unchanged at 100
    # unramified primes.  Datum: (T^3 - T) + 1/(T^2+1)^3, whose polynomial
    # part is exactly wp(T) and whose pole order 3 is divisible by p.
    den = parse_poly(F3, "T^2+1") ** 3
    num = parse_poly(F3, "T^3-T") * den + 1
    raw = RationalFn(num, den)
    cov = artin_schreier(F3, raw)
    assert cov.D != raw  # the reduction was nontrivial
    from ffcheb.polys import eval_mod

    checked = 0
    for deg in (1, 2, 3, 4, 5, 6):
        for Pcs in primes_of_degree(F3, deg):
            Pp = Poly(F3, Pcs)
            if (den % Pp).is_zero() or Pp.coeffs in cov._ram:
                continue
            x = eval_mod(raw, Pp)
            big = x.ctx
            tr = 0
            cur = x.val
            for _ in range(big.k):
                tr = big.add(tr, cur)
                cur = big.frob(cur)
            assert tr == cov.frobenius_class(Pp)  # absolute trace is in F_p
            checked += 1
            if checked >= 100:
                return
    assert checked >= 100


# -- Frobenius and splitting data -------------------------------------------------

def test_kummer_frobenius_examples():
    cov = quad_T()
    assert cov.frobenius_class(T5 - 2) == 1
    assert cov.frobenius_class(T5 - 1) == 0
    with pytest.raises(RamifiedPrime):
        cov.frobenius_class(T5)


def test_kummer_splitting_examples():
    cov = quad_T()
    assert cov.splitting_data(T5).as_tuple() == (2, 1, 1)
    assert cov.splitting_data(T5 - 2).as_tuple() == (1, 2, 1)
    assert cov.splitting_data(T5 - 1).as_tuple() == (1, 1, 2)


def test_efg_product_and_unramified_e():
    cov = kummer(F5, 4, "T^2+2")
    ram = cov._ram
    for deg in (1, 2):
        for Pcs in primes_of_degree(F5, deg):
            sd = cov.splitting_data(Poly(F5, Pcs))
            assert sd.e * sd.f * sd.g == 4
            if Pcs not in ram:
                assert sd.e == 1


def test_kummer_frobenius_order_equals_f():
    # exhaustive for degrees <= 3 over q in {5, 9}
    for F in (F5, make_field(3, 2)):
        d = 2
        cov = kummer(F, d, "T^3-3*T^2+2*T")
        ram = cov._ram
        for deg in (1, 2, 3):
            for Pcs in primes_of_degree(F, deg):
                if Pcs in ram:
                    continue
                Pp = Poly(F, Pcs)
                k = cov.frobenius_class(Pp)
                order = d if k else 1
                assert order == cov.splitting_data(Pp).f


def test_kummer_splitting_oracle_yd_minus_d():
    """factor Y^d - D mod P: number of factors = g, common degree = f."""
    from ffcheb.polys import residue_field

    for (F, d, Dtext) in ((F5, 2, "T^3-3*T^2+2*T"), (make_field(7), 3, "T^2+T+3"), (make_field(3, 2), 2, "T^3+2*T")):
        cov = kummer(F, d, Dtext)
        ram = cov._ram
        for deg in (1, 2):
            for Pcs in primes_of_degree(F, deg):
                if Pcs in ram:
                    continue
                Pp = Poly(F, Pcs)
                rf = residue_field(Pp)
                big = rf.field
                dval = rf.eval_poly(cov.D.coeffs)
                ycs = (big.neg(dval),) + (0,) * (d - 1) + (1,)
                _, parts = factor_raw(big, ycs)
                degs = sorted(pdeg for (pc, m) in parts for pdeg in [len(pc) - 1] * m)
                sd = cov.splitting_data(Pp)
                assert len(degs) == sd.g
                assert all(x == sd.f for x in degs)


def test_ramified_coset_uniformizer_invariance():
    # replacing the uniformizer P by c*P leaves the coset class unchanged
    cov = kummer(F5, 4, "2*T^3")  # v_T = 3, e = 4; unit part 2
    from ffcheb.polys import pdiv

    P = (0, 1)
    v = 3
    u = cov.D.coeffs
    for _ in range(v):
        u = pdiv(F5, u, P)
    base_omega = cov.coset_class(Poly.x(F5))
    d = cov.d
    e = d  # v = 3 coprime to 4
    step = d // e
    for c in range(2, 5):
        # unit part w.r.t. pi = c*P is u * c^(-v)
        ku = power_residue(cov, u, P)
        kc = power_residue(cov, (c,), P)  # the symbol of the value c
        ku2 = (ku - v * kc) % d
        coset = frozenset((ku2 + j * step) % d for j in range(e))
        assert cov.group.omega_of_coset(coset) == base_omega


def test_as_frobenius_and_splitting():
    cov = artin_schreier(F3, RationalFn(Poly.one(F3), Poly.x(F3)))
    T = Poly.x(F3)
    # ramified pole: e = p
    assert cov.splitting_data(T).as_tuple() == (3, 1, 1)
    # 1/1 = 1 has trace 2*... Tr_{F3/F3}(1) = 1 -> inert
    assert cov.frobenius_class(T - 1) == 1
    assert cov.splitting_data(T - 1).as_tuple() == (1, 3, 1)


# -- ramification, infinity, genus ------------------------------------------------

def test_ramified_primes_examples():
    cov = kummer(F5, 2, "T^3-3*T^2+2*T")
    assert [p.text() for p in cov.ramified_primes()] == ["T", "3 + T", "4 + T"]
    assert cov.infinity_data().e == 2  # odd degree
    cov2 = kummer(F5, 2, "T^2-2")
    assert [p.text() for p in cov2.ramified_primes()] == ["3 + T^2"]
    assert cov2.infinity_data().e == 1
    cov3 = artin_schreier(F3, RationalFn(Poly.one(F3), Poly.x(F3)))
    assert [p.text() for p in cov3.ramified_primes()] == ["T"]
    assert cov3.tame_at_infinity()


def test_genus_examples():
    assert kummer(F5, 2, "T^3-3*T^2+2*T").genus() == 1
    assert kummer(F5, 2, "T").genus() == 0
    # y^3 - y = T^2 is wild at infinity only: genus 1, no finite ramified prime
    wild = artin_schreier(F3, "T^2", force_wild=True)
    assert wild.genus() == 1 and not wild.ramified_primes()


def test_uniform_degree_is_the_conductor_degree():
    # deg of the lcm of the characters' conductors, plus the wild excess at
    # infinity, worked out by hand from the conductor exponents
    assert trivial(F5).uniform_degree() == 0
    assert kummer(F5, 2, "T^3-3*T^2+2*T").uniform_degree() == 3
    assert kummer(F5, 4, "T^3-T^2").uniform_degree() == 2  # T^2 (T - 1)
    assert kummer(F5, 2, "T^3-T^2").uniform_degree() == 1  # T is unramified
    assert artin_schreier(F5, RationalFn(Poly.one(F5), T5 * T5)).uniform_degree() == 3  # T^3
    assert artin_schreier(F3, "T^2", force_wild=True).uniform_degree() == 2
    # components sharing T: lcm(T, T^2) = T^2, times T - 1
    pc = product([kummer(F3, 2, "T^2-T"), artin_schreier(F3, RationalFn(Poly.one(F3), Poly.x(F3)))])
    assert pc.uniform_degree() == 3


def _affine_point_count_as(ctx, cov, ext_degree):
    """Points of y^p - y = D(x) over the degree-`ext_degree` extension,
    including points above poles and above infinity, by brute force."""
    from ffcheb.polys import peval

    big = make_field(ctx.p, ctx.k * ext_degree)
    # embed coefficients: prime-subfield constants only in these tests
    num = cov.D.num.coeffs
    den = cov.D.den.coeffs
    assert all(c < ctx.p for c in num + den), "test helper needs prime-field data"
    count = 0
    p = ctx.p
    for x in range(big.q):
        dv = peval(big, den, x)
        if dv == 0:
            count += 1  # totally ramified above the pole
            continue
        val = big.div(peval(big, num, x), dv)
        tr = 0
        cur = val
        for _ in range(big.k):
            tr = big.add(tr, cur)
            cur = big.frob(cur)
        count += p if tr == 0 else 0
    # infinity: reduced datum has no pole there; value at infinity decides
    if cov.D.num.degree < cov.D.den.degree:
        count += p  # D(inf) = 0, trace 0, split
    else:
        c = ctx.div(cov.D.num.coeffs[-1], cov.D.den.coeffs[-1])
        tr = 0
        cur = c
        for _ in range(big.k):
            tr = big.add(tr, cur)
            cur = big.frob(cur)
        count += p if tr == 0 else 0
    return count


def test_as_genus_point_count_oracle():
    """Pin the conductor exponent (m+1): zeta numerator degree must be 2*genus."""
    cov = artin_schreier(F3, RationalFn(Poly.one(F3), Poly.x(F3)))
    assert cov.genus() == 0
    for ext in (1, 2, 3):
        assert _affine_point_count_as(F3, cov, ext) == 3**ext + 1
    # a genus-1 example: two simple poles, p = 2: 2g - 2 = -4 + (1+1)+(1+1) + ...
    cov2 = artin_schreier(
        F2, RationalFn(Poly.one(F2), Poly.x(F2)) + RationalFn(Poly.one(F2), Poly.x(F2) + 1)
    )
    g2 = cov2.genus()
    counts = [_affine_point_count_as(F2, cov2, e) for e in (1, 2, 3, 4)]
    # N_e = q^e + 1 - sum of alpha^e with 2g Weil numbers; fit degree via
    # the second differences: for genus g the deviations a_e = q^e + 1 - N_e
    # satisfy a Newton recurrence of length 2g.  Just check g = 1 against
    # |a_1| <= 2*sqrt(2) and nontrivial deviation somewhere.
    devs = [2**e + 1 - c for e, c in zip((1, 2, 3, 4), counts)]
    assert g2 == 1
    assert any(d != 0 for d in devs)
    assert devs[0] ** 2 <= 8  # |a_1| <= 2 sqrt(q)
    # Weil pairing: a_2 = a_1^2 - 2*q for genus 1 (alpha * bar(alpha) = q)
    assert devs[1] == devs[0] ** 2 - 2 * 2


def test_genus_via_zeta_consistency_quadratic():
    # ptilde has degree 2*genus + sum f_i - 1 (checked inside ptilde, which
    # reads the prime tallies); Z(u)(1 - qu) from enumerating r over every
    # monic is independent of Riemann-Hurwitz and must equal it; genus 0 and 1
    from ffcheb.zeta import ptilde

    for D, deg in (("T^3-3*T^2+2*T", 2), ("T", 0)):
        cov = kummer(F5, 2, D)
        pt = ptilde(cov)
        assert len(pt) - 1 == deg
        Z = dedekind_series(cov, 4).coeffs
        enumerated = [Z[0]] + [Z[n] - 5 * Z[n - 1] for n in range(1, 5)]
        assert enumerated == pt + [0] * (5 - len(pt))


def test_genus_total_must_be_even_and_at_least_minus_two():
    from ffcheb.covers import _genus_from_total

    assert _genus_from_total(-2) == 0
    assert _genus_from_total(4) == 3
    for bad in (-4, -1, 3):
        with pytest.raises(NotGeometric):
            _genus_from_total(bad)


# -- product covers -----------------------------------------------------------------

def test_product_cover_componentwise():
    c1 = kummer(F5, 2, "T")
    c2 = kummer(F5, 2, "T^2-2")
    pc = product([c1, c2])
    assert pc.group.n == 4
    Pp = T5 - 1
    k1 = c1.frobenius_class(Pp)
    k2 = c2.frobenius_class(Pp)
    assert pc.frobenius_class(Pp) == pc.group.encode_product((k1, k2))
    sd = pc.splitting_data(Pp)
    assert sd.e * sd.f * sd.g == 4


def test_product_cover_genus_disjoint():
    c1 = kummer(F5, 2, "T")        # ramified at T and infinity
    c2 = kummer(F5, 2, "T^2-2")    # ramified at T^2-2 only
    pc = product([c1, c2])
    # conductor-discriminant: chars (1,0): deg 2; (0,1): deg 2; (1,1): deg 4
    # 2g - 2 = -8 + 8 = 0 -> g = 1
    assert pc.genus() == 1


def test_product_cover_shared_place_of_non_coprime_orders_is_refused():
    c1 = kummer(F5, 2, "T")
    c2 = kummer(F5, 2, "T-1")  # both ramify at infinity
    with pytest.raises(NotComponentwise, match="at infinity"):
        product([c1, c2])


def test_product_cover_zeta_corroborates_genus():
    # ptilde verifies the vanishing past 2*genus + sum f_i - 1, so a wrong
    # conductor-discriminant genus (or wrong ramified coset data) would raise
    from ffcheb.zeta import prime_tallies, psi_E, ptilde, r_full_check

    pc = product([kummer(F5, 2, "T"), kummer(F5, 2, "T^2-2")])
    pt = ptilde(pc)
    inf = pc.infinity_data()
    assert len(pt) - 1 <= 2 * pc.genus() + inf.f * inf.g - 1
    # psi band with the same genus; the tallies' internal class-sum checks
    # also cross-validate the componentwise ramified cosets
    from fractions import Fraction

    for n in range(1, 7):
        dev = abs(Fraction(psi_E(pc, n)) - Fraction(5**n, 4))
        assert dev**2 <= Fraction(16 * 16 * 5**n)
    rep = r_full_check(pc, 5)
    assert rep.regime["exact_identity_regime"]


# -- splitting covers -----------------------------------------------------------------

def _quadratic_splitting(ctx, Dtext):
    D = parse_poly(ctx, Dtext)
    return SplittingCover(
        ctx,
        [-D, Poly.zero(ctx), Poly.one(ctx)],  # Y^2 - D
        [parse_cycles("(1 2)", 2)],
        {(1, 1): 0, (2,): 1},
        declared_genus=1,
        declared_tame_at_infinity=True,
    )


def test_splitting_matches_kummer_quadratic():
    spl = _quadratic_splitting(F5, "T^3-3*T^2+2*T")
    kum = kummer(F5, 2, "T^3-3*T^2+2*T")
    ram = kum._ram
    for deg in (1, 2):
        for Pcs in primes_of_degree(F5, deg):
            if Pcs in ram:
                continue
            Pp = Poly(F5, Pcs)
            assert spl.frobenius_class(Pp) == kum.frobenius_class(Pp)
    with pytest.raises(RamifiedSplittingCover):
        spl.coset_class(Poly.x(F5))


def test_splitting_s3_cubic():
    # Y^3 - T*Y - T: generic cubic with group S_3
    ctx = F5
    spec = _s3_cubic(ctx)
    assert spec.group.n == 6
    # observed cycle types all in the table (the constructor already samples)
    seen = set()
    for Pcs in primes_of_degree(ctx, 2):
        if Pcs in spec._ram:
            continue
        seen.add(spec.frobenius_class(Poly(ctx, Pcs)))
    assert seen <= {0, 1, 2}


def test_full_degree_mean_of_r_refuses_a_splitting_cover():
    # r needs (e, f, g) at every prime, and the interval sieve leaves out the
    # monics that meet a ramified prime of a splitting cover
    from ffcheb.zeta import r_full_mean

    spec = _s3_cubic(F5)
    for n in (1, 2):
        with pytest.raises(DomainError):
            r_full_mean(spec, n)


#: cycle type of Frobenius from the number of roots of F(t, Y) in F_{q^d},
#: and for the quartic also in F_{q^2d}: (2, 2) and (4) have no root in
#: F_{q^d}, and only (2, 2) has four in F_{q^2d}
_TYPE_BY_ROOTS = {
    3: {(3,): (1, 1, 1), (1,): (2, 1), (0,): (3,)},
    2: {(2,): (1, 1), (0,): (2,)},
    4: {(4, 4): (1, 1, 1, 1), (2, 4): (2, 1, 1), (0, 4): (2, 2), (1, 1): (3, 1), (0, 0): (4,)},
}


def _root_count_cases(F):
    """(cover, degrees of the primes checked, cycle types that must occur)."""
    if F.q == 23:  # every cycle type, (1, 1, 1, 1) too, occurs at degree 1
        return [(_s4_quartic(F), (1,), set(_TYPE_BY_ROOTS[4].values()))]
    if F.p == 2:  # Y^2 + T*Y + T: no sign character, every prime by its residue field
        quad = SplittingCover(
            F,
            [Poly.x(F), Poly.x(F), Poly.one(F)],
            [parse_cycles("(1 2)", 2)],
            {(1, 1): 0, (2,): 1},
            declared_genus=0,
        )
        return [(quad, (1, 2, 3), set(_TYPE_BY_ROOTS[2].values()))]
    cases = [
        (_s3_cubic(F), (1, 2, 3), set(_TYPE_BY_ROOTS[3].values())),
        (_quadratic_splitting(F, "T^3-3*T^2+2*T"), (1, 2, 3), set(_TYPE_BY_ROOTS[2].values())),
    ]
    if F.q == 7:
        cases.append((_s4_quartic(F), (1, 2), {(2, 1, 1), (3, 1), (2, 2), (4,)}))
    return cases


@pytest.mark.parametrize(
    "pk", [(5, 1), (7, 1), (3, 2), (23, 1), (2, 2)], ids=["F5", "F7", "F9", "F23", "F4"]
)
def test_splitting_class_by_root_count(pk):
    # an oracle without factoring and without the root tables: t is found by
    # a search over F_{q^jd}, and the roots of F(t, Y) are counted there
    F = make_field(*pk)
    for cov, degrees, must_occur in _root_count_cases(F):
        ram = cov._ram
        by_roots = _TYPE_BY_ROOTS[cov.y_degree]
        steps = (1, 2) if cov.y_degree == 4 else (1,)
        seen = set()
        for d in degrees:
            bigs = [make_field(F.p, F.k * d * j) for j in steps]
            embeds = [brute_embedding(F, big) for big in bigs]
            for Pcs in primes_of_degree(F, d):
                if Pcs in ram:
                    continue
                roots = []
                for big, embed in zip(bigs, embeds):
                    t = smallest_zero(big, [embed(c) for c in Pcs])
                    ys = [peval(big, [embed(c) for c in a.coeffs], t) for a in cov.y_coeffs]
                    roots.append(count_zeros(big, ys))
                part = by_roots[tuple(roots)]
                seen.add(part)
                assert cov.frobenius_class(Poly._raw(F, Pcs)) == cov.cycle_table[part]
        assert must_occur <= seen


def test_splitting_genus_required():
    spl = _quadratic_splitting(F5, "T^3-3*T^2+2*T")
    spl.declared_genus = None
    with pytest.raises(UserGenusRequired):
        spl.genus()


def _s4_quartic(ctx):
    """Y^4 - T*Y - T with its group S_4, the table keyed by cycle type."""
    gens = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
    G = GroupTable.from_perms(gens)
    mT = parse_poly(ctx, "-1*T")
    return SplittingCover(
        ctx,
        [mT, mT, Poly.zero(ctx), Poly.zero(ctx), Poly.one(ctx)],
        gens,
        {G.cycle_type(cls[0]): ci for ci, cls in enumerate(G.classes)},
        declared_tame_at_infinity=False,
    )


def test_splitting_squarefree_guard():
    # with the ramified set emptied, T (a factor of the Y-discriminant)
    # reaches the classification, where Y^2 - T(T-1)(T-2) mod T is Y^2
    spl = _quadratic_splitting(F5, "T^3-3*T^2+2*T")
    spl._ram = frozenset()
    with pytest.raises(RamifiedSplittingCover):
        spl.coset_class(T5)


def _s3_cubic(ctx, gens=("(1 2)", "(1 2 3)"), table=None):
    """Y^3 - T*Y - T, by default with its group S_3 and the right table."""
    return SplittingCover(
        ctx,
        [parse_poly(ctx, "-1*T"), parse_poly(ctx, "-1*T"), Poly.zero(ctx), Poly.one(ctx)],
        [parse_cycles(g, 3) for g in gens],
        table or {(1, 1, 1): 0, (2, 1): 1, (3,): 2},
        declared_genus=0,
        declared_tame_at_infinity=False,
    )


def test_failed_validation_leaves_cover_unvalidated():
    # the census refuses the cover from inside its constructor, so no
    # unchecked cover is left behind, and a second build raises again
    F13 = make_field(13)
    with pytest.raises(AmbiguousCycleType) as first:
        _s3_cubic(F13, ("(1 2 3)",), {(1, 1, 1): 0, (3,): 1})  # declared C_3
    with pytest.raises(AmbiguousCycleType) as second:
        _s3_cubic(F13, ("(1 2 3)",), {(1, 1, 1): 0, (3,): 1})
    assert str(second.value) == str(first.value)


# -- prime counts by Frobenius class --------------------------------------------------

@pytest.mark.parametrize(
    "make",
    [
        lambda: kummer(F5, 2, "T^3-3*T^2+2*T"),
        lambda: kummer(make_field(7), 3, "T^2+1"),
        lambda: artin_schreier(F3, RationalFn(Poly.one(F3), Poly(F3, (1, 1, 1)))),
        lambda: artin_schreier(
            make_field(2, 2), RationalFn(Poly.one(make_field(2, 2)), Poly.x(make_field(2, 2)))
        ),
        lambda: product(
            [
                kummer(F5, 2, "T"),
                artin_schreier(F5, RationalFn(Poly.one(F5), Poly.x(F5) - 1)),
            ]
        ),
    ],
    ids=["kummer-5", "kummer-7", "as-3", "as-4", "product-5"],
)
def test_class_counts_match_oracle(make):
    cov = make()
    ram = cov._ram
    for n in (1, 2, 3):
        want = [0] * len(cov.group.classes)
        for P in primes_of_degree(cov.ctx, n):
            if P not in ram:
                want[oracle_class(cov, P)] += 1
        assert cov.class_counts(n) == want


# counts of the S_3 cubic by class (identity, transpositions, 3-cycles) at
# degrees 1, 2, ..., pinned from classifying each prime with frobenius_class
S3_COUNTS = {
    5: [[0, 1, 2], [1, 6, 3], [6, 20, 14], [22, 78, 50]],
    7: [[0, 3, 2], [2, 12, 7], [18, 56, 38]],
    13: [[1, 6, 4], [10, 42, 26]],
}


@pytest.mark.parametrize("q", sorted(S3_COUNTS))
def test_s3_class_counts(q):
    ctx = make_field(q)
    spec = _s3_cubic(ctx)
    ram_degrees = Counter(len(P) - 1 for P in spec._ram)
    for n, want in enumerate(S3_COUNTS[q], 1):
        counts = spec.class_counts(n)
        assert sum(counts) == count_primes(ctx, n) - ram_degrees[n]
        assert [count_prime_frobenius_global(spec, ci, n) for ci in range(3)] == want


def test_s3_global_count_above_the_bound_is_too_large():
    # 13^7 monics exceed ENUMERATION_LIMIT; the prime list refuses them
    spec = _s3_cubic(make_field(13))
    with pytest.raises(TooLarge):
        count_prime_frobenius_global(spec, 0, 7)


def test_splitting_primes_classified_once(monkeypatch):
    # the constructor's census and the interval sieve share the cover's cache,
    # so each prime reaches the expensive classification at most once
    calls = Counter()
    raw = SplittingCover._coset_raw

    def counted(self, P):
        calls[P] += 1
        return raw(self, P)

    monkeypatch.setattr(SplittingCover, "_coset_raw", counted)
    spec = _s3_cubic(F5)
    census_primes = set(calls)
    assert census_primes
    interval_lambda_counts(spec, IntervalSpec(parse_poly(F5, "T^4"), 2))
    assert max(calls.values()) == 1
    assert set(calls) > census_primes


# -- serialization -----------------------------------------------------------------

def test_cover_file_roundtrip():
    specs = [
        trivial(F5),
        kummer(F5, 2, "T^3-3*T^2+2*T"),
        artin_schreier(F3, RationalFn(Poly.one(F3), Poly.x(F3))),
        product([kummer(F5, 2, "T"), kummer(F5, 2, "T^2-2")]),
        _quadratic_splitting(F5, "T^3-3*T^2+2*T"),
    ]
    for spec in specs:
        text = dumps_cover(spec)
        again = parse_cover(text)
        assert dumps_cover(again) == text


def test_trivial_cover():
    cov = trivial(F5)
    assert cov.genus() == 0
    assert cov.frobenius_class(T5 - 2) == 0
    assert cov.splitting_data(T5).as_tuple() == (1, 1, 1)


def test_omega_cache_keys_the_passed_tuple():
    # a normalized tuple is used as is; lists and trailing zeros are normalized
    cov = kummer(F5, 2, "T^3-3*T^2+2*T")
    P = primes_of_degree(F5, 2)[0]
    w = cov.coset_class(P)
    assert next(k for k in cov._omega_cache if k == P) is P
    size = len(cov._omega_cache)
    assert cov.coset_class(list(P)) == w
    assert cov.coset_class(P + (0, 0)) == w
    assert len(cov._omega_cache) == size
