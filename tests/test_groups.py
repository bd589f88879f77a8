import itertools

import pytest

import time

from ffcheb.errors import DomainError, TooLarge
from ffcheb.groups import TABLE_ORDER_LIMIT, GroupTable, cycles_text, parse_cycles


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


def test_group_tables_are_bounded():
    # refused before tabulating: Z/192 alone took 10 s, and (Z/2)^6, of
    # order 64, 24 s
    big = TABLE_ORDER_LIMIT + 1
    Z2 = GroupTable.cyclic(2)
    s5 = [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)]
    refusals = [
        lambda: GroupTable.cyclic(big),
        lambda: GroupTable.cyclic(192),
        lambda: GroupTable.direct_product([Z2] * 6),
        lambda: GroupTable.from_perms(s5),  # the closure stops at the bound
        lambda: GroupTable.symmetric(5),
    ]
    for make in refusals:
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            make()
        assert time.perf_counter() - start < 1.0
    assert GroupTable.cyclic(TABLE_ORDER_LIMIT).n == TABLE_ORDER_LIMIT
    assert GroupTable.direct_product([GroupTable.cyclic(6), GroupTable.cyclic(5)]).n == 30


def _perm_group(*cycles, degree):
    return GroupTable.from_perms([parse_cycles(c, degree) for c in cycles])


@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: GroupTable.symmetric(3), 6),
        (lambda: _perm_group("(1 2 3)", "(1 2)(3 4)", degree=4), 10),  # A_4
        (lambda: _perm_group("(1 2 3 4)", "(1 3)", degree=4), 10),  # D_4
        (lambda: GroupTable.symmetric(4), 30),
        (lambda: GroupTable.direct_product([GroupTable.cyclic(2)] * 3), 16),
        (lambda: GroupTable.cyclic(12), 6),
    ],
    ids=["S3", "A4", "D4", "S4", "Z2^3", "Z12"],
)
def test_subgroup_counts(make, count):
    G = make()
    assert len(G.subgroups) == count
    # each one closed under the product and listed once
    assert len(set(G.subgroups)) == count
    for H in G.subgroups:
        assert all(G.mul(a, b) in H for a in H for b in H)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symmetric_is_the_table_of_sorted_permutations(m):
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(m))] for b in perms] for a in perms]
    G = GroupTable.symmetric(m)
    assert G.perms == tuple(perms)
    assert G.table == tuple(tuple(row) for row in table)
