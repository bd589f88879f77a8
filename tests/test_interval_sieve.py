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
    ArtinSchreierCover,
    Cover,
    KummerCover,
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

#: (p, k) of F_q by q
FIELDS = {
    5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1), 25: (5, 2), 27: (3, 3), 49: (7, 2), 729: (3, 6)
}

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
        # primes as long as the block (deg Q = s = t), each dividing one
        # element, and their powers Q^e of degree e deg Q > t, each dividing
        # at most that one: h = 0 is (T^2 + 2)^3 ...
        (5, "T^6+T^4+2*T^2+3", 1),
        # ... and (T^2 + 2)^2 (T^2 + 3), two long primes in one element
        (5, "T^6+2*T^4+T^2+2", 1),
        # (T^3 + T + 1)^2 lies here, and t = 3 puts a block digit at T^3
        # when the bound is 1 or 125
        (5, "T^6+2*T^4", 3),
    ],
)
def test_quadratic_kummer(q, f0, m):
    check(kummer(make_field(*FIELDS[q]), 2, QUAD_D), f0, m)


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
    "q, d, D, f0, m",
    [
        (5, 2, "2*T^3-6*T^2+4*T", "T^4+T^3", 2),  # a non-square unit
        (7, 3, "T^3-T^2", "T^4+T^3", 2),  # T^2: a linear place of multiplicity 2
        (5, 2, "T^3-T^2+2*T-2", "T^4+2*T^3", 2),  # (T^2 + 2)(T - 1): a nonlinear place
        # s = 1: ramified elements T - a times a prime quartic, or times two quadratics
        (5, 2, QUAD_D, "T^5+2*T^3+4*T", 0),
        # elements with a ramified factor, classified through their unit part
        # from Taylor coefficients at the places: T^3 (T^2 + T + 2) at h = 0,
        # a ramified root of exponent 3 ...
        (5, 2, QUAD_D, "T^5+T^4+2*T^3", 2),
        # ... T^2 (T - 1)(T^2 + 2), two ramified roots in one element ...
        (5, 2, QUAD_D, "T^5+4*T^4+2*T^3", 2),
        # ... (T - 2)^2 (T - 3): d = 3 with a linear place of multiplicity 2 ...
        (7, 3, "T^3+2*T+2", "T^5+3*T^3", 2),
        # ... T^3 (T - 1): d = 4, a place of multiplicity 3 ...
        (5, 4, "T^4-T^3", "T^5+2*T^4", 2),
        # ... and d = 4 over an extension field
        (9, 4, QUAD_D, "T^4+T", 2),
    ],
)
def test_kummer_places(q, d, D, f0, m):
    check(kummer(make_field(*FIELDS[q]), d, D), f0, m)


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


def as_cover(q, num, den):
    F = make_field(*FIELDS[q])
    return artin_schreier(F, RationalFn(parse_poly(F, num), parse_poly(F, den)))


def test_artin_schreier_double_pole():
    F5 = make_field(5)
    cov = artin_schreier(F5, RationalFn(Poly.one(F5), parse_poly(F5, "T^2")))
    check(cov, "T^4+T", 2)


@pytest.mark.parametrize(
    "q, num, den, f0, m",
    [
        # simple poles at 0 and 1: each symbol term is Tr(-c f'(b) / f(b)),
        # read from f's first two Taylor coefficients at b
        (7, "1", "T^2-T", "T^4+T^3", 2),
        (9, "1", "T^2-T", "T^4+T", 2),
        # a constant part 2 with Tr(2) != 0 over F_25, which adds
        # deg f Tr(c_0), and poles at 0 and -1
        (25, "2*T^2+1", "T^2+T", "T^4+T^2", 1),
        # the constant part 3 and three simple poles 0, 1, -1; at h = 0,
        # T^2 (T^3 + 2) and (T - 1)^2 (...) lie here: elements with a
        # ramified factor of exponent 2, read through their unit part
        (7, "3*T^3+1", "T^3-T", "T^5+T^4", 2),
        # a double pole at 0 and a simple one at 1: T^2 (T^3 + T^2 + a) and
        # T^3 (T^2 + T) at the double pole, whose unit part reads three
        # Taylor coefficients from the exponent on
        (7, "1", "T^3-T^2", "T^5+T^4", 2),
        # (T + 1) / T^3 over F_9, which the reduction in characteristic 3
        # makes T^-2 + T^-1: a double pole with a numerator
        (9, "T+1", "T^3", "T^4+T^3", 2),
        # a triple pole at 0 and a simple one at 1 over F_5, so four Taylor
        # coefficients at 0, and t = 4 under the default bound, so h has
        # one at T^3: at h = 2T^3 + 3T^2 lies T^2 (T - 1) (T^4 + 2), whose
        # unit part multiplies f's Taylor coefficients at 0, from index 2
        # on, by the series of 1 / (T - 1) there up to T^3; other elements
        # have the ramified factors T^3, T^2 or T (T - 1)
        (5, "T+1", "T^4-T^3", "T^7+4*T^6", 3),
    ],
)
def test_artin_schreier_places(q, num, den, f0, m):
    check(as_cover(q, num, den), f0, m)


def test_characteristic_two_extension_field():
    F8 = make_field(2, 3)
    cov = artin_schreier(F8, RationalFn(Poly.one(F8), Poly.x(F8)))
    check(cov, "T^6+T", 1)  # m + 1 < n // 2
    check(cov, "T^4", 0)
    # 1 + 1 / (T (T + 1)): two simple poles, and the constant part 1, whose
    # trace is 1 over F_8
    both = artin_schreier(F8, RationalFn(parse_poly(F8, "T^2+T+1"), parse_poly(F8, "T^2+T")))
    check(both, "T^4+T", 2)


def test_product_cover():
    F5 = make_field(5)
    cov = product([
        kummer(F5, 2, QUAD_D),
        artin_schreier(F5, RationalFn(Poly.one(F5), parse_poly(F5, "T-3"))),
    ])
    check(cov, "T^4+T", 2)


def test_product_cover_places():
    F25 = make_field(5, 2)
    # Kummer places 0, 1, 2 and an AS pole at 3 ...
    apart = product([
        kummer(F25, 2, QUAD_D),
        artin_schreier(F25, RationalFn(Poly.one(F25), parse_poly(F25, "T-3"))),
    ])
    check(apart, "T^4+T", 1)
    # ... and Kummer places and AS poles both 0 and 1, so a place reads a
    # value for one component and a log derivative for the other
    same = product([
        kummer(F25, 2, "T^2-T"),
        artin_schreier(F25, RationalFn(parse_poly(F25, "3*T^2+1"), parse_poly(F25, "T^2-T"))),
    ])
    check(same, "T^4+T^3", 1)


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


def place_covers():
    """Covers whose symbols the sieve reads from Taylor coefficients at their
    places: Kummer, Artin-Schreier with simple and double poles, and
    products whose places differ or coincide."""
    F25 = make_field(5, 2)
    return [
        kummer(F25, 2, QUAD_D),
        as_cover(25, "2*T^2+1", "T^2+T"),
        as_cover(25, "1", "T^3-T^2"),
        product([
            kummer(F25, 2, QUAD_D),
            artin_schreier(F25, RationalFn(Poly.one(F25), parse_poly(F25, "T-3"))),
        ]),
        product([kummer(F25, 2, "T^2-T"), as_cover(25, "3*T^2+1", "T^2-T")]),
    ]


def test_kummer_ramified_elements_are_not_divided(monkeypatch):
    # an element with a ramified factor (T - b)^e is classified through its
    # unit part f / prod (T - b)^e, whose Taylor coefficients at the places
    # are f's there, from the exponent on at a root: on F_25, I(T^4, 2), no
    # element is divided, under every block layout
    calls = counting_divisions(monkeypatch)
    F25 = make_field(5, 2)
    I = IntervalSpec(parse_poly(F25, "T^4"), 2)
    for cov in place_covers():
        for bound in BOUNDS:
            monkeypatch.setattr(intervals, "_POOL_FLOOR", bound)
            _count_range(cov, I, 0, I.size(), 0)
        assert calls == [], cov.kind


def test_linear_places_take_no_symbol_one_polynomial_at_a_time(monkeypatch):
    # where the symbol cover's symbols come from Taylor coefficients at its
    # places, a small prime's symbol is read from the tables of a_k(h) that
    # the elements read, an element's from rows per place, and an element with a ramified
    # factor from its unit part.  The only symbols left are those of the
    # product whose places differ: of its ramified primes T - a, on the
    # component that leaves T - a unramified (`coset_class`)
    calls = []
    for cls in (KummerCover, ArtinSchreierCover):
        artin_symbol = cls.artin_symbol

        def counted(self, f, artin_symbol=artin_symbol):
            calls.append(f)
            return artin_symbol(self, f)

        monkeypatch.setattr(cls, "artin_symbol", counted)
    F25 = make_field(5, 2)
    for cov in place_covers():
        del calls[:]
        for f0, m in [("T^4+T", 1), ("T^4+T^3", 2)]:
            I = IntervalSpec(parse_poly(F25, f0), m)
            for bound in BOUNDS:
                monkeypatch.setattr(intervals, "_POOL_FLOOR", bound)
                _count_range(cov, I, 0, I.size(), 0)
        if cov.kind == "product" and len(cov.components[0]._ram) == 3:
            assert calls and all(f in cov._ram for f in calls), calls
        else:
            assert calls == [], cov.kind


def test_squares_of_primes_one_degree_below_the_block(monkeypatch):
    # Q^e divides f_b + h exactly when h = -f_b mod Q^e: a prime of degree
    # t - 1 divides q elements of a block, and its square, of degree
    # 2t - 2 > t, at most one of them, the residue itself when its digits
    # from t up are 0.  Bound 125 makes F_5, I(T^5 + T^4, 3) five blocks
    # with t = 3, and (T^2 + 2)^2 (T + 1) lies in it
    F5 = make_field(5)
    cov = kummer(F5, 2, QUAD_D)
    check(cov, "T^5+T^4", 3)
    I = IntervalSpec(parse_poly(F5, "T^5+T^4"), 3)
    monkeypatch.setattr(intervals, "_POOL_FLOOR", 125)
    assert intervals._BlockSieve(cov, I).t == 3
    counts, _ = _count_range(cov, I, 0, I.size(), 0)
    assert any(key[:2] == (2, 2) for entries in counts for key, _ in entries)


def test_squares_of_quadratic_primes_with_free_digits():
    # under the default bound F_5, I(T^6 + 2T^5 + 3T, 4) is one block with
    # t = 5, so the square Q^2 of a prime of degree 2 has degree 4 < t and
    # divides the q^(t - 4) elements of a coset, h = -f_b mod Q^2 with one
    # free digit, each also in Q's coset of q^3
    F5 = make_field(5)
    cov = kummer(F5, 2, QUAD_D)
    I = IntervalSpec(parse_poly(F5, "T^6+2*T^5+3*T"), 4)
    assert intervals._BlockSieve(cov, I).t == 5
    counts, _ = check(cov, "T^6+2*T^5+3*T", 4)
    assert any(key[:2] == (2, 2) for entries in counts for key, _ in entries)


@pytest.mark.parametrize("kind", ["kummer", "artin_schreier", "splitting"])
def test_unramified_small_primes_skip_coset_class(monkeypatch, kind):
    # the sieve reads an unramified small prime's class from the Artin
    # symbol it computes for the prime anyway, where the symbol cover's table
    # gives one: on an abelian cover, and on a quadratic splitting cover,
    # whose sign pins every cycle type; only ramified small primes, and the
    # cofactors' primes, of degree > s, reach coset_class
    F25 = make_field(5, 2)
    if kind == "kummer":
        cov = kummer(F25, 2, QUAD_D)
    elif kind == "artin_schreier":
        cov = artin_schreier(F25, RationalFn(Poly.one(F25), parse_poly(F25, "T^2-T")))
    else:
        cov = quadratic_splitting(F25, QUAD_D)
    reached = []
    coset_class = Cover.coset_class

    def counted(self, P):
        reached.append(P)
        return coset_class(self, P)

    monkeypatch.setattr(Cover, "coset_class", counted)
    I = IntervalSpec(parse_poly(F25, "T^4+T"), 1)  # s = t = 2
    _count_range(cov, I, 0, I.size(), 0)
    small = {P for P in reached if pdeg(P) <= 2}
    assert small <= cov._ram, sorted(small - cov._ram)[:3]
    # a splitting cover excludes the elements its ramified primes divide,
    # and takes no hit data for them
    assert small or kind == "splitting"


@pytest.mark.parametrize(
    "q, cover, f0, m, bound, t",
    [
        # t > s: the quadratic primes' h have one free digit below the block's
        (5, ("kummer", 2, QUAD_D), "T^4", 2, intervals._POOL_FLOOR, 3),
        # t = s = 2: primes as long as the block
        (5, ("kummer", 2, QUAD_D), "T^4", 2, 1, 2),
        # a triple pole: four Taylor coefficients at 0, with t = 4 > s = 3
        (5, ("artin_schreier", "T+1", "T^4-T^3"), "T^7+4*T^6", 3, intervals._POOL_FLOOR, 4),
        (9, ("artin_schreier", "1", "T^2-T"), "T^4+T", 1, intervals._POOL_FLOOR, 2),
        # a double pole, t = 3 > s = 2
        (9, ("artin_schreier", "T+1", "T^3"), "T^4+T^3", 2, intervals._POOL_FLOOR, 3),
        # a Kummer place and a pole both at 0 (3 = 0 in F_9)
        (9, ("product", 2, QUAD_D, "1", "T-3"), "T^4+T", 2, intervals._POOL_FLOOR, 3),
        (49, ("kummer", 2, QUAD_D), "T^4+3*T^3", 1, intervals._POOL_FLOOR, 2),
        (49, ("product", 2, "T^2-T", "3*T^2+1", "T^2-T"), "T^4+T", 1, intervals._POOL_FLOOR, 2),
        # t = 1: the linear primes are as long as the block
        (729, ("kummer", 2, QUAD_D), "T^4", 0, intervals._POOL_FLOOR, 1),
        (729, ("artin_schreier", "1", "T^2-T"), "T^4", 0, intervals._POOL_FLOOR, 1),
    ],
)
def test_small_prime_symbols_from_tables(monkeypatch, q, cover, f0, m, bound, t):
    # a small prime Q = T^d + h, deg h < d <= t, has a_k(Q) = a_k(T^d) +
    # a_k(h), and the sieve reads a_k(h) from the tables its elements read,
    # at the index of Q's coefficients below T^d: every unramified small
    # prime's symbol must be its artin_symbol
    F = make_field(*FIELDS[q])
    kind, *data = cover
    if kind == "kummer":
        cov = kummer(F, *data)
    elif kind == "artin_schreier":
        cov = as_cover(q, *data)
    else:
        cov = product([kummer(F, *data[:2]), as_cover(q, *data[2:])])
    monkeypatch.setattr(intervals, "_POOL_FLOOR", bound)
    sieve = intervals._BlockSieve(cov, IntervalSpec(parse_poly(F, f0), m))
    assert sieve.t == t and max(pdeg(Q) for Q in sieve.small) == sieve.s
    checked = 0
    for Q, art in zip(sieve.small, sieve.arts, strict=True):
        if Q not in cov._ram:
            assert art == cov.artin_symbol(Q), Q
            checked += 1
    assert checked > len(sieve.small) // 2


def test_chunks_that_cut_blocks():
    # the ranges cut blocks of q^s = 25; under the default bound they cut the
    # one block of 125
    F5 = make_field(5)
    cov = kummer(F5, 2, QUAD_D)
    check(cov, "T^4", 2, ranges=[(0, 17), (17, 40), (40, 41), (41, 125)])
    spl = quadratic_splitting(F5, "T^2+2")
    check(spl, "T^5+T", 2, ranges=[(3, 29), (29, 99)])
    # an Artin-Schreier interval cut into stretches, one shorter than q
    check(as_cover(7, "3*T^3+1", "T^3-T"), "T^4", 2, ranges=[(0, 5), (5, 50), (50, 343)])
