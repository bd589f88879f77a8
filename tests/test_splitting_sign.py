"""The sign of Frobenius on splitting covers, the exact parity refusals, and
the census where the sign is deg P mod 2.

For p odd, `SplittingCover` reads the sign of Frobenius at P as the quadratic
symbol of disc_Y(F) (Stickelberger; Swan 1962), by the reciprocity of
`KummerCover.artin_symbol`, and returns the cycle type without a residue
field where the sign leaves one: k = 2, and k = 3 with an odd sign.  The
residue-field route (`_residue_cycle_type`) classifies the rest and is the
oracle here.
"""

import pytest

from ffcheb.covers import SplittingCover
from ffcheb.errors import AmbiguousCycleType, RamifiedSplittingCover
from ffcheb.ffield import make_field
from ffcheb.groups import GroupTable, parse_cycles
from ffcheb.polys import Poly, factor_raw, parse_poly, primes_of_degree

S3 = (("(1 2)", "(1 2 3)"), {(1, 1, 1): 0, (2, 1): 1, (3,): 2})
S2 = (("(1 2)",), {(1, 1): 0, (2,): 1})


def splitting(F, ys, group=S3):
    """The splitting cover of Y^k + ... with coefficients `ys`, lowest first:
    each a polynomial string, or a tuple of raw coefficient encodings.  The
    group and its cycle-type table are `group`."""
    gens, table = group
    k = len(ys) - 1
    return SplittingCover(
        F,
        [parse_poly(F, c) if isinstance(c, str) else Poly(F, c) for c in ys],
        [parse_cycles(g, k) for g in gens],
        table,
        declared_genus=0,
        declared_tame_at_infinity=False,
    )


def census_cubic(F):
    """w^3 - 3N^2 w - N^2 (2T^2 + 6), N = T^2 - 3, asserted as S_3.  Its
    Galois closure contains a constant-field extension wherever disc is a
    non-square constant times a square, so there Frobenius is odd exactly at
    the primes of odd degree."""
    N = parse_poly(F, "T^2-3")
    a1 = N * N * parse_poly(F, "-3")
    a0 = -(N * N * parse_poly(F, "2*T^2+6"))
    return splitting(F, [a0.coeffs, a1.coeffs, "0", "1"])


#: per field: Y^3 - T*Y - T; a cubic whose discriminant has an irreducible
#: nonlinear factor to an odd power (no linear place table in the sieve);
#: over F_5, Y^3 + T, whose discriminant -27*T^2 = 3*T^2 is a non-square
#: constant times a square (so the sign of P is deg P mod 2).  Over
#: q = 1 mod 3, -27 is a square; `census_cubic` above has
#: disc = (non-square constant) * (square) over F_7 and F_19.
S3_CUBIC = ["-1*T", "-1*T", "0", "1"]
COVERS = {
    # disc (T + 2)(T^2 + 3T + 4), and 3T^2
    (5, 1): [S3_CUBIC, ["1", "T", "0", "1"], ["T", "0", "0", "1"]],
    (7, 1): [S3_CUBIC, ["1", "T", "0", "1"]],  # disc 3T^3 + 1
    (3, 2): [S3_CUBIC, [(0, 1), (1, 4, 1), (0,), (1,)]],  # disc 2(T^2 + 4T + 1)^3
    (13, 1): [S3_CUBIC, ["1", "T", "0", "1"]],  # disc 9T^3 + 12
    (5, 2): [S3_CUBIC, ["1", "T^2+1", "0", "1"]],
}
QUADRATIC = ["-1*T^3+3*T^2-2*T", "0", "1"]  # Y^2 - T(T - 1)(T - 2)


@pytest.mark.parametrize("pk", sorted(COVERS), ids=lambda pk: f"F{pk[0] ** pk[1]}")
def test_sign_route_matches_the_residue_field(pk):
    F = make_field(*pk)
    covers = [splitting(F, ys) for ys in COVERS[pk]]
    covers.append(splitting(F, QUADRATIC, S2))
    kinds = set()
    for cov in covers:
        kinds.add((bool(cov._sign.parts), bool(cov._sign._nonlin_parts)))
        G = cov.group
        pinned = 0
        for d in (1, 2, 3):
            if F.q**d > 2500:
                break
            for P in primes_of_degree(F, d):
                if P in cov._ram:
                    continue
                want = cov._residue_cycle_type(P)
                assert G.omega_to_class[cov.coset_class(P)] == cov.cycle_table[want], (pk, P)
                pinned += cov._type_omega(want) in cov._sign_omegas
        assert pinned > 0, pk  # some primes took the sign route
    assert (True, True) in kinds  # a discriminant with a nonlinear place
    assert (True, False) in kinds  # one with linear places only
    if pk == (5, 1):
        assert (False, False) in kinds  # disc = c * square: no Kummer datum


def test_discriminant_factored_once(monkeypatch):
    # the ramified primes and the sign character share one factoring of
    # disc_Y(F)
    calls = []

    def counted(F, f, seed=0):
        calls.append(f)
        return factor_raw(F, f, seed=seed)

    monkeypatch.setattr("ffcheb.covers.factor_raw", counted)
    splitting(make_field(13), S3_CUBIC)
    assert len(calls) == 1


def test_disc_with_a_nonsquare_constant():
    # Y^3 + T over F_5: the sign of P is deg P mod 2, so every prime of odd
    # degree has cycle type (2, 1) (one cube root: 3 is prime to 5^d - 1)
    F = make_field(5)
    cov = splitting(F, ["T", "0", "0", "1"])
    assert not cov._sign.parts and cov._sign._deg_dlog == 1
    for d in (1, 3):
        for P in primes_of_degree(F, d):
            if P not in cov._ram:
                assert cov.coset_class(P) == cov._type_omega((2, 1))


def test_quadratic_needs_no_residue_field(monkeypatch):
    # k = 2: each sign leaves one cycle type, so neither the census nor any
    # prime of degree <= 3 builds a root table
    F = make_field(7)
    monkeypatch.setattr(F, "_residue_cache", {}, raising=False)
    cov = splitting(F, QUADRATIC, S2)
    for d in (1, 2, 3):
        unramified = [P for P in primes_of_degree(F, d) if P not in cov._ram]
        assert sum(cov.class_counts(d)) == len(unramified)
    assert F._residue_cache == {}


def test_residue_route_where_the_sign_leaves_a_choice():
    # an even cubic, a quartic and p = 2 keep the residue field (the root
    # counts of test_covers check that route)
    F7 = make_field(7)
    cubic = splitting(F7, S3_CUBIC)
    assert cubic._sign_omegas == (None, cubic._type_omega((2, 1)))
    gens = ("(1 2)", "(1 2 3 4)")
    G = GroupTable.from_perms([parse_cycles(g, 4) for g in gens])
    table = {G.cycle_type(c[0]): i for i, c in enumerate(G.classes)}
    quartic = splitting(F7, ["-1*T", "-1*T", "0", "0", "1"], (gens, table))
    F4 = make_field(2, 2)
    for cov in (quartic, splitting(F4, ["T", "T", "1"], S2)):  # Y^2 + TY + T
        assert cov._sign_omegas == () and cov._sign is None


def test_a_prime_meeting_the_sign_datum_is_refused():
    # with the ramified set emptied, T + 2, a simple factor of the
    # discriminant 4T^3 - 27T^2 = 4T^2(T + 2) over F_7, reaches the sign
    F = make_field(7)
    cov = splitting(F, S3_CUBIC)
    P = parse_poly(F, "T+2").coeffs
    assert P in cov._sign._ram
    cov._ram = frozenset()
    with pytest.raises(RamifiedSplittingCover):
        cov.coset_class(P)


def test_square_discriminant_refuses_an_odd_generator():
    # Y^3 - T over F_7: disc = -27T^2 = T^2, a square, so G lies in A_3
    F = make_field(7)
    with pytest.raises(AmbiguousCycleType, match="is a square.*generator 1 is an odd"):
        splitting(F, ["-1*T", "0", "0", "1"])


def test_nonsquare_discriminant_refuses_an_even_group():
    # Y^2 - T(T - 1)(T - 2) asserted with the trivial group
    F = make_field(5)
    with pytest.raises(AmbiguousCycleType, match="not a square.*every generator is an even"):
        splitting(F, QUADRATIC, (("()",), {(1, 1): 0}))


@pytest.mark.parametrize("p", [7, 19])
def test_census_counts_each_degree_against_its_parity(p):
    # the census compares the primes of degree d only with the classes of
    # parity d mod 2; counted against all of S_3 at once, every prime of odd
    # degree in (2, 1) looks like an excess of odd classes
    F = make_field(p)
    cov = census_cubic(F)
    assert not cov._sign.parts and cov._sign._deg_dlog == 1
    checked = 0
    for d in (1, 2, 3, 4):
        if F.q**d > 2500:
            break
        for P in primes_of_degree(F, d):
            if P not in cov._ram:
                want = cov.cycle_table[cov._residue_cycle_type(P)]
                assert cov.group.omega_to_class[cov.coset_class(P)] == want, (p, P)
                checked += 1
    assert checked > 150


def test_census_cubic_with_a_square_discriminant_is_refused():
    # over F_13 the census cubic's discriminant is a square, so S_3 is
    # refused before any census
    with pytest.raises(AmbiguousCycleType, match="is a square.*generator 1 is an odd"):
        census_cubic(make_field(13))
