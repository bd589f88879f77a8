import random

import pytest

from ffcheb.errors import (
    ContextMismatch,
    DivisionByZero,
    DNotDividingQMinus1,
    NotPrime,
    ZeroElement,
)
from ffcheb.ffield import Field, make_field, root_of_unity
from oracles import digit_add, digit_neg


def test_make_field_prime():
    F5 = make_field(5, 1)
    assert F5.q == 5 and F5.modulus is None


def test_make_field_canonical_modulus_f9():
    # smallest monic irreducible quadratic over F_3, top coefficient compared
    # first: T^2 + 1 beats T^2 + T + 2
    F9 = make_field(3, 2)
    assert F9.modulus == (1, 0, 1)


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        make_field(4, 1)


def test_machine_bound():
    from ffcheb.errors import DegreeTooLarge

    with pytest.raises(DegreeTooLarge):
        make_field(2, 21)  # 2^21 exceeds the default bound
    with pytest.raises(DegreeTooLarge):
        make_field(5, 0)


def test_make_field_deterministic():
    a = Field(3, 3)
    b = Field(3, 3)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert make_field(3, 3) is make_field(3, 3)


def test_arith_examples_f5():
    F5 = make_field(5)
    two, three = F5.elem(2), F5.elem(3)
    assert (two * three).val == 1
    assert (F5.elem(1) / two).val == 3
    for a in range(5):
        assert (F5.elem(a) + F5.elem(0)).val == a


def test_division_by_zero():
    F5 = make_field(5)
    with pytest.raises(DivisionByZero):
        F5.elem(1) / F5.elem(0)


def test_context_mismatch():
    a = make_field(5).elem(1)
    b = make_field(7).elem(1)
    with pytest.raises(ContextMismatch):
        a + b


def test_order_examples():
    F5 = make_field(5)
    assert F5.elem(2).order() == 4
    assert F5.elem(4).order() == 2
    assert F5.elem(1).order() == 1
    with pytest.raises(ZeroElement):
        F5.elem(0).order()


def test_order_divides_q_minus_one():
    for p, k in ((5, 1), (3, 2), (2, 3), (7, 2)):
        F = make_field(p, k)
        for a in range(1, F.q):
            o = F.order(a)
            assert (F.q - 1) % o == 0
            assert F.pow(a, o) == 1


def test_root_of_unity_examples():
    F5 = make_field(5)
    assert root_of_unity(F5, 2).val == 4
    assert root_of_unity(F5, 4).val == 2
    assert root_of_unity(F5, 1).val == 1
    assert root_of_unity(F5, 2).order() == 2
    with pytest.raises(DNotDividingQMinus1):
        root_of_unity(F5, 3)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 7), (127, 1), (11, 2)])
def test_mult_group_order(p, k):
    # a^(q-1) = 1 for all nonzero a, exhaustively up to q = 128
    F = make_field(p, k)
    for a in range(1, F.q):
        assert F.pow(a, F.q - 1) == 1


def test_frobenius_additive_multiplicative():
    rng = random.Random(0)
    for p, k in ((3, 2), (2, 3), (5, 2), (7, 2)):
        F = make_field(p, k)
        for _ in range(300):
            x, y = rng.randrange(F.q), rng.randrange(F.q)
            assert F.frob(F.add(x, y)) == F.add(F.frob(x), F.frob(y))
            assert F.frob(F.mul(x, y)) == F.mul(F.frob(x), F.frob(y))


def test_pth_root_inverts_frobenius():
    for p, k in ((3, 2), (2, 3), (5, 2)):
        F = make_field(p, k)
        for a in range(F.q):
            assert F.frob(F.pth_root(a)) == a


def test_element_serialization_roundtrip():
    F9 = make_field(3, 2)
    for a in range(9):
        e = F9.elem(a)
        assert F9.parse_elem(e.serialize()) == a
    assert F9.elem((1, 2)).serialize() == "1,2"


def test_field_axioms_random():
    rng = random.Random(1)
    for p, k in ((5, 1), (3, 2), (2, 4)):
        F = make_field(p, k)
        for _ in range(200):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            if b:
                assert F.mul(F.div(a, b), b) == a


@pytest.mark.parametrize(
    "p,k",
    # every pair of the small fields; sampled pairs of the large ones, on both
    # sides of q = 256 and with p = 2 among them
    [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6),
     (3, 5), (2, 8), (17, 2), (7, 3), (3, 6), (2, 10), (3, 7)],
)
def test_zech_arithmetic_vs_digits(p, k):
    F = make_field(p, k)
    q = F.q
    if q <= 64:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(f"zech/{q}")
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(20000)]
        # the pairs whose sum or difference is 0 or 2a, and those with a zero
        for a in rng.sample(range(q), 200):
            pairs += [(a, a), (a, digit_neg(F, a)), (a, 0), (0, a)]
    assert [F.neg(a) for a in range(q)] == [digit_neg(F, a) for a in range(q)]
    assert [F.add(a, b) for a, b in pairs] == [digit_add(F, a, b) for a, b in pairs]
    assert [F.sub(a, b) for a, b in pairs] == [
        digit_add(F, a, digit_neg(F, b)) for a, b in pairs
    ]


#: (p, k) -> (modulus, generator) of the canonical F_{p^k}: every field with
#: k >= 2, p <= 31 and p^k <= 2^13, plus F_{13^4} and F_{2^14}.  The modulus
#: is low-first; the generator is the encoded primitive root.
CANONICAL_FIELDS = {
    (2, 2): ((1, 1, 1), 2),
    (2, 3): ((1, 1, 0, 1), 2),
    (2, 4): ((1, 1, 0, 0, 1), 2),
    (2, 5): ((1, 0, 1, 0, 0, 1), 2),
    (2, 6): ((1, 1, 0, 0, 0, 0, 1), 2),
    (2, 7): ((1, 1, 0, 0, 0, 0, 0, 1), 2),
    (2, 8): ((1, 1, 0, 1, 1, 0, 0, 0, 1), 3),
    (2, 9): ((1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    (2, 10): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 11): ((1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 12): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
    (2, 13): ((1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (3, 2): ((1, 0, 1), 4),
    (3, 3): ((1, 2, 0, 1), 3),
    (3, 4): ((2, 1, 0, 0, 1), 3),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3),
    (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), 5),
    (3, 8): ((2, 0, 1, 0, 0, 0, 0, 0, 1), 38),
    (5, 2): ((2, 0, 1), 6),
    (5, 3): ((1, 1, 0, 1), 9),
    (5, 4): ((2, 0, 0, 0, 1), 6),
    (5, 5): ((1, 4, 0, 0, 0, 1), 10),
    (7, 2): ((1, 0, 1), 9),
    (7, 3): ((2, 0, 0, 1), 22),
    (7, 4): ((1, 1, 0, 0, 1), 12),
    (11, 2): ((1, 0, 1), 15),
    (11, 3): ((4, 1, 0, 1), 11),
    (13, 2): ((2, 0, 1), 15),
    (13, 3): ((2, 0, 0, 1), 15),
    (17, 2): ((3, 0, 1), 19),
    (17, 3): ((3, 1, 0, 1), 17),
    (19, 2): ((1, 0, 1), 22),
    (19, 3): ((2, 0, 0, 1), 29),
    (23, 2): ((1, 0, 1), 25),
    (29, 2): ((2, 0, 1), 30),
    (31, 2): ((1, 0, 1), 35),
    (13, 4): ((2, 0, 0, 0, 1), 17),
    (2, 14): ((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 7),
}


@pytest.mark.parametrize("pk", sorted(CANONICAL_FIELDS))
def test_canonical_fields_pinned(pk):
    # Field(), not make_field(), so the shared cache does not keep these
    modulus, generator = CANONICAL_FIELDS[pk]
    F = Field(*pk)
    assert (F.modulus, F.generator) == (modulus, generator)
    assert F.order(F.generator) == F.q - 1


@pytest.mark.parametrize(
    "pk",
    [(7, 1), (13, 1), (2, 1), (2, 6), (3, 3), (5, 3), (13, 4), (5, 6), (3, 8), (2, 14)],
    ids=lambda pk: f"F{pk[0] ** pk[1]}",
)
def test_exp_log_against_digit_powers(pk):
    # exp[i] against g^i from this test's own product of digit polynomials
    # modulo F.modulus (T for a prime field), one multiplication by g per i
    p, k = pk
    F = Field(p, k)
    q, n = F.q, F.q - 1
    mod = F.modulus or (0, 1)
    g = F.coeffs(F.generator)
    cur = [1] + [0] * (k - 1)
    for i in range(n):
        assert F._exp[i] == sum(c * p**j for j, c in enumerate(cur)), i
        prod = [0] * (2 * k - 1)
        for a, x in enumerate(cur):
            for b, y in enumerate(g):
                prod[a + b] += x * y
        for top in range(2 * k - 2, k - 1, -1):  # reduce by the monic modulus
            c = prod[top]
            for j in range(k + 1):
                prod[top - k + j] -= c * mod[j]
        cur = [c % p for c in prod[:k]]
    assert cur == [1] + [0] * (k - 1)
    assert [F._log[F._exp[i]] for i in range(n)] == list(range(n))
    assert F._exp[n:] == F._exp[: n + 1]
    assert F._exp[n // (p - 1)] < p
