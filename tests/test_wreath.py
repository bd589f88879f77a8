import itertools
import math
import random
from fractions import Fraction

import pytest

from ffcheb.errors import DomainError, TooLarge
from ffcheb.factypes import B, Delta, OneC, R, RPower
from ffcheb.groups import GroupTable
from ffcheb.wreath import (
    closed_form_mean,
    enumerate_class_types,
    mean_class_function,
    rising_binom,
)

from oracles import (
    WreathElement,
    all_elements,
    brute_force_mean,
    is_conjugate,
    lambda_of_wreath,
    wreath_conj,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)

Z2 = GroupTable.cyclic(2)
Z3 = GroupTable.cyclic(3)
S3 = GroupTable.symmetric(3)


def test_mul_example():
    a = WreathElement(Z2, (1, 0), (0, 1))
    b = WreathElement(Z2, (0, 1), (1, 0))
    c = wreath_mul(a, b)
    assert (c.xi, c.sigma) == ((1, 1), (1, 0))


def test_identity_and_inverse():
    rng = random.Random(0)
    for G, n in ((Z2, 3), (S3, 2)):
        e = wreath_identity(G, n)
        for _ in range(50):
            xi = tuple(rng.randrange(G.n) for _ in range(n))
            sigma = tuple(rng.sample(range(n), n))
            w = WreathElement(G, xi, sigma)
            assert wreath_mul(w, e) == w and wreath_mul(e, w) == w
            assert wreath_mul(w, wreath_inv(w)) == e
            assert wreath_mul(wreath_inv(w), w) == e


def test_associativity_random():
    rng = random.Random(1)
    for _ in range(200):
        ws = [
            WreathElement(
                S3,
                tuple(rng.randrange(6) for _ in range(2)),
                tuple(rng.sample(range(2), 2)),
            )
            for _ in range(3)
        ]
        a, b, c = ws
        assert wreath_mul(wreath_mul(a, b), c) == wreath_mul(a, wreath_mul(b, c))


def test_size_mismatch():
    with pytest.raises(ValueError):
        wreath_mul(wreath_identity(Z2, 2), wreath_identity(Z2, 3))


def test_lambda_examples():
    w = WreathElement(Z3, (0, 0, 0), (0, 1, 2))
    lam = lambda_of_wreath(w)
    assert dict(lam.items()) == {(1, 1, Z3.class_to_omega[0]): 3}
    w1 = WreathElement(Z2, (1, 0), (1, 0))
    assert dict(lambda_of_wreath(w1).items()) == {(2, 1, Z2.class_to_omega[1]): 1}
    w2 = WreathElement(Z2, (1, 1), (1, 0))
    assert dict(lambda_of_wreath(w2).items()) == {(2, 1, Z2.class_to_omega[0]): 1}


def test_lambda_invariant_under_conjugation():
    rng = random.Random(2)
    for G, n in ((Z2, 3), (S3, 2), (Z3, 3)):
        for _ in range(100):
            mk = lambda: WreathElement(
                G,
                tuple(rng.randrange(G.n) for _ in range(n)),
                tuple(rng.sample(range(n), n)),
            )
            a, h = mk(), mk()
            assert lambda_of_wreath(wreath_conj(a, h)) == lambda_of_wreath(a)


def _orbit_conjugate(a, b):
    return any(wreath_conj(a, h) == b for h in all_elements(a.group, a.n))


def test_conjugacy_characterization_small():
    # the full 48^2 and 72^2 sweeps run in the acceptance suite
    elems = list(all_elements(Z2, 2))
    for a in elems:
        for b in elems:
            assert is_conjugate(a, b) == _orbit_conjugate(a, b)


def test_class_type_sizes_against_brute_force():
    """The class-size formula is certified against enumeration (mandatory)."""
    for G, n in ((Z2, 2), (Z2, 3), (Z2, 4), (Z3, 2), (Z3, 3), (S3, 2)):
        from collections import Counter

        seen = Counter(lambda_of_wreath(w) for w in all_elements(G, n))
        table = {ct.to_lambda(G): sz for ct, sz in enumerate_class_types(G, n)}
        assert dict(seen) == table


def test_class_type_total():
    for G, n in ((Z2, 5), (Z3, 4), (S3, 3)):
        total = sum(sz for _, sz in enumerate_class_types(G, n))
        assert total == G.n**n * math.factorial(n)


def test_n_cycle_class_size():
    # single n-cycle colored by class C has size (n-1)! |G|^(n-1) |C|
    for G, n in ((Z2, 4), (S3, 3)):
        for ci, cls in enumerate(G.classes):
            for ct, sz in enumerate_class_types(G, n):
                if dict(ct.parts) == {(n, ci): 1}:
                    assert sz == math.factorial(n - 1) * G.n ** (n - 1) * len(cls)


def test_mean_equals_brute_force_spot():
    for G, n in ((Z2, 4), (Z3, 3), (S3, 2)):
        for fn in (OneC(0), B(), R(), RPower(2)):
            assert mean_class_function(fn, G, n) == brute_force_mean(fn, G, n)


def test_mean_equals_brute_force_z4():
    Z4 = GroupTable.cyclic(4)
    for n in (1, 2, 3):
        for fn in (OneC(1), OneC(3), B(), R(), RPower(2)):
            assert mean_class_function(fn, Z4, n) == brute_force_mean(fn, Z4, n)


def test_one_c_closed_form():
    for G, n in ((Z2, 3), (S3, 3), (Z3, 4)):
        for ci, cls in enumerate(G.classes):
            want = Fraction(len(cls), n * G.n)
            assert closed_form_mean(OneC(ci), G, n) == want
            assert mean_class_function(OneC(ci), G, n) == want


def test_b_r_closed_forms():
    assert closed_form_mean(B(), Z2, 2) == Fraction(3, 8)
    assert mean_class_function(B(), Z2, 2) == Fraction(3, 8)
    assert closed_form_mean(R(), Z3, 5) == 1
    assert mean_class_function(R(), Z3, 3) == 1
    assert closed_form_mean(OneC(0), GroupTable.cyclic(6), 4) == Fraction(1, 24)


def test_rpower_closed_form_matches():
    for G, n in ((Z2, 4), (Z3, 3), (S3, 2)):
        for s in (0, 1, 2):
            assert closed_form_mean(RPower(s), G, n) == mean_class_function(
                RPower(s), G, n
            )


def test_rising_factorial_permutation_identity():
    # sum over S_n of x^(number of cycles) = x (x+1) ... (x+n-1)
    for n in range(1, 8):
        perms = itertools.permutations(range(n))
        counts = {}
        for p in perms:
            seen = [False] * n
            r = 0
            for s in range(n):
                if not seen[s]:
                    r += 1
                    j = s
                    while not seen[j]:
                        seen[j] = True
                        j = p[j]
            counts[r] = counts.get(r, 0) + 1
        for x in (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3)):
            lhs = sum(cnt * x**r for r, cnt in counts.items())
            rhs = rising_binom(x, n) * math.factorial(n)
            assert lhs == rhs


def test_delta_mean_is_class_frequency():
    G, n = Z2, 3
    order = G.n**n * math.factorial(n)
    for ct, sz in enumerate_class_types(G, n):
        lam = ct.to_lambda(G)
        assert mean_class_function(Delta(lam), G, n) == Fraction(sz, order)
        assert brute_force_mean(Delta(lam), G, n) == Fraction(sz, order)


def test_brute_force_bound():
    with pytest.raises(TooLarge):
        brute_force_mean(R(), GroupTable.cyclic(10), 10)


def test_class_type_group_bound():
    with pytest.raises(TooLarge):
        enumerate_class_types(GroupTable.cyclic(30), 2)


def test_no_closed_form_is_a_domain_error():
    with pytest.raises(DomainError, match="no closed form"):
        closed_form_mean(Delta(enumerate_class_types(Z2, 2)[0][0].to_lambda(Z2)), Z2, 2)
