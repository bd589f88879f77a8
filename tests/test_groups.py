import pytest

from ffcheb.errors import DomainError
from ffcheb.groups import GroupTable, cycles_text, parse_cycles


def test_cyclic_basic():
    G = GroupTable.cyclic(6)
    assert G.n == 6
    assert G.inv(2) == 4
    assert G.element_orders == (1, 6, 3, 2, 3, 6)
    assert G.classes == tuple((i,) for i in range(6))


def test_symmetric_s3():
    G = GroupTable.symmetric(3)
    assert G.n == 6
    sizes = sorted(len(c) for c in G.classes)
    assert sizes == [1, 2, 3]
    assert len(G.subgroups) == 6  # 1, three <(ij)>, A_3, S_3


def test_class_partition():
    for G in (GroupTable.cyclic(4), GroupTable.symmetric(3), GroupTable.symmetric(4)):
        assert sum(len(c) for c in G.classes) == G.n
        seen = sorted(x for c in G.classes for x in c)
        assert seen == list(range(G.n))


def test_omega_triple_product():
    for G in (GroupTable.cyclic(2), GroupTable.cyclic(6), GroupTable.symmetric(3)):
        for oc in G.omega:
            assert oc.e * oc.f * oc.g == G.n
            assert len(oc.rep) == oc.e


def test_omega_cyclic_2():
    G = GroupTable.cyclic(2)
    triples = [(o.e, o.f, o.g) for o in G.omega]
    assert triples == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert G.class_to_omega == (0, 1)


def test_omega_counts_all_cosets():
    # every coset of every subgroup lands in exactly one class
    for G in (GroupTable.cyclic(4), GroupTable.symmetric(3)):
        total = sum(len(oc.members) for oc in G.omega)
        expected = sum(G.n // len(H) for H in G.subgroups)
        assert total == expected


def test_direct_product():
    G = GroupTable.direct_product([GroupTable.cyclic(2), GroupTable.cyclic(3)])
    assert G.n == 6
    assert G.element_orders[G.encode_product((1, 1))] == 6
    assert G.decode_product(G.encode_product((1, 2))) == (1, 2)


def test_from_perms_s3():
    G = GroupTable.from_perms([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
    assert G.n == 6
    assert G.perms[0] == (0, 1, 2)
    assert G.cycle_type(0) == (1, 1, 1)
    types = sorted(G.cycle_type(i) for i in range(6))
    assert types.count((2, 1)) == 3 and types.count((3,)) == 2


def test_power():
    G = GroupTable.cyclic(7)
    assert G.power(3, 5) == 1  # 15 mod 7
    assert G.power(3, 0) == 0
    assert G.power(3, -1) == 4


def test_bad_table_rejected():
    with pytest.raises(DomainError):
        GroupTable([[0, 1], [1, 1]])  # 1 has no inverse


def test_cycle_notation_roundtrip():
    for text, deg in (("(1 2 3)", 4), ("(1 2)(3 4)", 4), ("()", 3)):
        perm = parse_cycles(text, deg)
        assert parse_cycles(cycles_text(perm), deg) == perm


@pytest.mark.parametrize("text", ["(1 x)", "(1 4)", "(1 1)", "(0 1)", "(1 -2)"])
def test_bad_cycle_is_domain_error(text):
    with pytest.raises(DomainError):
        parse_cycles(text, 3)


def test_direct_product_matches_componentwise_table():
    factors = [GroupTable.cyclic(2), GroupTable.cyclic(3), GroupTable.cyclic(2)]
    G = GroupTable.direct_product(factors)
    assert G.factor_sizes == (2, 3, 2)
    for i in range(G.n):
        assert G.encode_product(G.decode_product(i)) == i
        for j in range(G.n):
            parts = zip(factors, G.decode_product(i), G.decode_product(j))
            assert G.decode_product(G.mul(i, j)) == tuple(F.mul(a, b) for F, a, b in parts)


def test_omega_to_class_inverts_class_to_omega():
    G = GroupTable.symmetric(3)
    assert [G.omega_to_class[w] for w in G.class_to_omega] == list(range(len(G.classes)))
