"""Exact combinatorics of G wr S_n.

Conjugacy classes of G wr S_n are exactly the factorization types supported
on multiplicity 1: colored partitions of n by (cycle length, G-class of the
cycle product), counted with an explicit class-size formula.  Means of class
functions are read from that class-type table, or from closed forms.  The
test suite certifies both against a walk over every element (xi, sigma) of
G wr S_n, which lives in `tests/oracles.py`, not here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InvariantViolated, TooLarge
from .factypes import (
    ArithFnSpec,
    B,
    FactorizationType,
    OneC,
    R,
    RPower,
    check_class,
    evaluate,
)
from .groups import GroupTable, partitions

#: bound on the number of colored-partition class types
CLASS_TYPE_LIMIT = 10**6

#: largest |G| the class-type enumeration supports
GROUP_ORDER_LIMIT = 24


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


def enumerate_class_types(group: GroupTable, n: int) -> list[tuple[ClassType, int]]:
    """All conjugacy classes of G wr S_n with exact sizes; sizes sum to
    |G|^n * n!."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if group.n > GROUP_ORDER_LIMIT:
        raise TooLarge(f"class-type enumeration supports |G| <= {GROUP_ORDER_LIMIT}")
    ncls = len(group.classes)
    out: list[tuple[ClassType, int]] = []
    for partition in partitions(n):
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


def class_type_table(group: GroupTable, n: int) -> tuple[tuple[FactorizationType, int], ...]:
    """(factorization type, class size) over the classes of G wr S_n, in the
    order of enumerate_class_types; built once per (G, n) and kept on the
    group, for every mean and census over it."""
    tables = getattr(group, "_class_type_tables", None)
    if tables is None:
        tables = group._class_type_tables = {}
    table = tables.get(n)
    if table is None:
        # thousands of types share a few dozen (entry, count) pairs: keeping
        # one object per pair keeps the table near a third of its size
        shared: dict = {}
        rows = []
        for ct, size in enumerate_class_types(group, n):
            lam = ct.to_lambda(group)
            lam.entries = tuple(shared.setdefault(x, x) for x in lam.entries)
            rows.append((lam, size))
        table = tables[n] = tuple(rows)
    return table


# ---------------------------------------------------------------------------
# means


def mean_class_function(fn: ArithFnSpec, group: GroupTable, n: int) -> Fraction:
    """Exact average over G wr S_n via the class-type table, summed in
    integers (Fractions only for a table function)."""
    total = 0
    for lam, size in class_type_table(group, n):
        v = evaluate(fn, lam, group)
        if v:
            total += v * size
    return Fraction(total, group.n**n * math.factorial(n))


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
        check_class(group, fn.class_index)
        return Fraction(len(group.classes[fn.class_index]), n * N)
    if isinstance(fn, (B, R, RPower)):
        s = 0 if isinstance(fn, B) else 1 if isinstance(fn, R) else fn.s
        x = Fraction(N) ** (s - 1)
        return rising_binom(x, n)
    raise DomainError(f"no closed form for {fn.describe()}")
