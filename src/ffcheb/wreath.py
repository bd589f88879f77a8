"""Exact combinatorics of G wr S_n.

Elements are (xi, sigma) with xi an n-tuple of group-element indices and sigma
a permutation; conjugacy classes are exactly the factorization types supported
on multiplicity 1, counted with an explicit class-size formula that the test
suite certifies against full enumeration before anything downstream trusts it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolated, SizeMismatch, TooLarge
from .factypes import ArithFnSpec, B, FactorizationType, OneC, R, RPower, evaluate
from .groups import GroupTable

#: brute-force enumeration bound on |G|^n * n!
BRUTE_FORCE_LIMIT = 10**7

#: bound on the number of colored-partition class types
CLASS_TYPE_LIMIT = 10**6


@dataclass(frozen=True)
class WreathElement:
    """(xi, sigma) in G wr S_n; sigma maps position i to sigma[i]."""

    group: GroupTable
    xi: tuple[int, ...]
    sigma: tuple[int, ...]

    def __post_init__(self):
        n = len(self.xi)
        if len(self.sigma) != n or sorted(self.sigma) != list(range(n)):
            raise SizeMismatch("sigma is not a permutation of the xi positions")

    @property
    def n(self) -> int:
        return len(self.xi)


def _check_same(a: WreathElement, b: WreathElement) -> None:
    if a.group is not b.group or a.n != b.n:
        raise SizeMismatch("wreath elements from different groups")


def wreath_identity(group: GroupTable, n: int) -> WreathElement:
    return WreathElement(group, (0,) * n, tuple(range(n)))


def wreath_mul(a: WreathElement, b: WreathElement) -> WreathElement:
    """(xi1, s1)(xi2, s2) = (xi1 * xi2^(s1^-1), s1 s2)."""
    _check_same(a, b)
    G = a.group
    inv_s1 = [0] * a.n
    for i, v in enumerate(a.sigma):
        inv_s1[v] = i
    xi = tuple(G.mul(a.xi[x], b.xi[inv_s1[x]]) for x in range(a.n))
    sigma = tuple(a.sigma[b.sigma[x]] for x in range(a.n))
    return WreathElement(G, xi, sigma)


def wreath_inv(a: WreathElement) -> WreathElement:
    G = a.group
    inv_sigma = [0] * a.n
    for i, v in enumerate(a.sigma):
        inv_sigma[v] = i
    xi = tuple(G.inv(a.xi[a.sigma[y]]) for y in range(a.n))
    return WreathElement(G, xi, tuple(inv_sigma))


def wreath_conj(a: WreathElement, h: WreathElement) -> WreathElement:
    """h a h^-1."""
    return wreath_mul(wreath_mul(h, a), wreath_inv(h))


def lambda_of_wreath(w: WreathElement) -> FactorizationType:
    """Cycle data: for each sigma-cycle (j_1 ... j_d), the conjugacy class of
    xi(j_d) ... xi(j_1), recorded at (d, 1, class-as-coset)."""
    G = w.group
    n = w.n
    seen = [False] * n
    counts: dict[tuple[int, int, int], int] = {}
    for start in range(n):
        if seen[start]:
            continue
        prod = 0
        d = 0
        j = start
        while not seen[j]:
            seen[j] = True
            prod = G.mul(w.xi[j], prod)
            j = w.sigma[j]
            d += 1
        omega = G.class_to_omega[G.class_of[prod]]
        key = (d, 1, omega)
        counts[key] = counts.get(key, 0) + 1
    return FactorizationType(counts)


def is_conjugate(a: WreathElement, b: WreathElement) -> bool:
    _check_same(a, b)
    return lambda_of_wreath(a) == lambda_of_wreath(b)


def all_elements(group: GroupTable, n: int):
    total = group.n**n * math.factorial(n)
    if total > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{total} wreath elements exceed the enumeration bound")
    for sigma in itertools.permutations(range(n)):
        for xi in itertools.product(range(group.n), repeat=n):
            yield WreathElement(group, xi, sigma)


# ---------------------------------------------------------------------------
# class types


@dataclass(frozen=True)
class ClassType:
    """Colored partition: multiplicities of (cycle length, G-class)."""

    parts: tuple[tuple[tuple[int, int], int], ...]  # ((d, class), m), sorted

    def degree(self) -> int:
        return sum(d * m for (d, _), m in self.parts)

    def to_lambda(self, group: GroupTable) -> FactorizationType:
        return FactorizationType(
            {(d, 1, group.class_to_omega[c]): m for (d, c), m in self.parts}
        )

    def size(self, group: GroupTable, n: int) -> int:
        """Number of wreath elements with this type.

        Centralizer bookkeeping: a block of m equal (d, c)-cycles contributes
        m! * (d * |G| / |c|)^m, since each d-cycle with a pinned cycle product
        has centralizer of size d * |G| / |c| inside its own coordinates.
        """
        N = group.n
        denom = 1
        for (d, c), m in self.parts:
            denom *= math.factorial(m) * (d * N // len(group.classes[c])) ** m
        num = math.factorial(n) * N**n
        if num % denom:
            raise InvariantViolated("class size is not an integer")
        return num // denom

    def serialize(self) -> str:
        return ";".join(f"{d}:{c}*{m}" for (d, c), m in self.parts)


def _partitions(n: int):
    """Partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return
    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest
    yield from rec(n, n)


def enumerate_class_types(group: GroupTable, n: int) -> list[tuple[ClassType, int]]:
    """All conjugacy classes of G wr S_n with exact sizes; sizes sum to
    |G|^n * n!."""
    if n < 1:
        raise TooLarge("n must be >= 1")
    if group.n > 24:
        raise TooLarge("class-type enumeration supports |G| <= 24")
    ncls = len(group.classes)
    out: list[tuple[ClassType, int]] = []
    for partition in _partitions(n):
        # multiplicity per distinct part length
        by_len: dict[int, int] = {}
        for part in partition:
            by_len[part] = by_len.get(part, 0) + 1
        colorings_per_len = []
        for d, cnt in sorted(by_len.items()):
            colorings_per_len.append(
                (d, list(itertools.combinations_with_replacement(range(ncls), cnt)))
            )
        for combo in itertools.product(*(cols for _, cols in colorings_per_len)):
            parts: dict[tuple[int, int], int] = {}
            for (d, _), coloring in zip(colorings_per_len, combo):
                for c in coloring:
                    parts[(d, c)] = parts.get((d, c), 0) + 1
            ct = ClassType(tuple(sorted(parts.items())))
            out.append((ct, ct.size(group, n)))
            if len(out) > CLASS_TYPE_LIMIT:
                raise TooLarge("class-type enumeration bound exceeded")
    if sum(sz for _, sz in out) != group.n**n * math.factorial(n):
        raise InvariantViolated("class sizes do not add up to the wreath product's order")
    return out


# ---------------------------------------------------------------------------
# means


def mean_class_function(fn: ArithFnSpec, group: GroupTable, n: int) -> Fraction:
    """Exact average over G wr S_n via the class-type table."""
    total = Fraction(0)
    for ct, size in enumerate_class_types(group, n):
        v = evaluate(fn, ct.to_lambda(group), group)
        if v:
            total += v * size
    return total / (group.n**n * math.factorial(n))


def brute_force_mean(fn: ArithFnSpec, group: GroupTable, n: int) -> Fraction:
    """The same average by walking every element; the oracle for the above."""
    total = Fraction(0)
    cache: dict[FactorizationType, Fraction] = {}
    count = 0
    for w in all_elements(group, n):
        lam = lambda_of_wreath(w)
        v = cache.get(lam)
        if v is None:
            v = cache[lam] = evaluate(fn, lam, group)
        total += v
        count += 1
    return total / count


def rising_binom(x: Fraction, n: int) -> Fraction:
    """binom(n + x - 1, n) = x(x+1)...(x+n-1)/n! for exact rational x."""
    num = Fraction(1)
    for i in range(n):
        num *= x + i
    return num / math.factorial(n)


def closed_form_mean(fn: ArithFnSpec, group: GroupTable, n: int) -> Fraction:
    """Closed forms: <1_C> = |C|/(n|G|); <r^s> = binom(n + N^(s-1) - 1, n),
    so B (s = 0) gets the 1/N binomial and R (s = 1) gets exactly 1."""
    N = group.n
    if isinstance(fn, OneC):
        return Fraction(len(group.classes[fn.class_index]), n * N)
    if isinstance(fn, (B, R, RPower)):
        s = 0 if isinstance(fn, B) else 1 if isinstance(fn, R) else fn.s
        x = Fraction(N) ** (s - 1)
        return rising_binom(x, n)
    raise TooLarge(f"no closed form for {fn!r}")
