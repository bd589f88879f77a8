"""Factorization types and the arithmetic functions defined on them.

A factorization type records, for each (degree d, multiplicity e, coset class
omega), how many prime factors of a polynomial look like that; wreath-product
elements produce the same shape of data (supported on e = 1), which is what
lets one compare polynomial statistics with group-theoretic predictions.

Values are exact rationals throughout; the generalized binomials that appear
downstream need them, and acceptance checks tolerate no float drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .covers import Cover
from .errors import DomainError, InvariantViolated, NotAConjugacyClass, ZeroPolynomial
from .groups import GroupTable
from .polys import Coeffs, Poly, factor_raw, pdeg

Entry = tuple[int, int, int]  # (degree, multiplicity, omega index)


class FactorizationType:
    """Immutable multiset of (d, e, omega) entries with positive counts."""

    __slots__ = ("entries",)

    def __init__(self, counts):
        if isinstance(counts, dict):
            items = counts.items()
        else:
            items = counts
        cleaned = []
        for (d, e, w), c in items:
            if c < 0 or d < 1 or e < 1 or w < 0:
                raise DomainError(f"bad factorization-type entry {(d, e, w)}: {c}")
            if c:
                cleaned.append(((d, e, w), c))
        cleaned.sort()
        self.entries: tuple[tuple[Entry, int], ...] = tuple(cleaned)

    def degree(self) -> int:
        return sum(d * e * c for (d, e, _), c in self.entries)

    def items(self):
        return self.entries

    def count(self, d: int, e: int, w: int) -> int:
        for key, c in self.entries:
            if key == (d, e, w):
                return c
        return 0

    def supported_on_squarefree(self) -> bool:
        return all(e == 1 for (_, e, _), _ in self.entries)

    def serialize(self) -> str:
        if not self.entries:
            return "-"
        return ";".join(f"{d}:{e}:{w}={c}" for (d, e, w), c in self.entries)

    @staticmethod
    def parse(text: str) -> "FactorizationType":
        text = text.strip()
        if text in ("-", ""):
            return FactorizationType({})
        out = {}
        for bit in text.split(";"):
            key, _, cnt = bit.partition("=")
            d, e, w = (int(t) for t in key.split(":"))
            out[(d, e, w)] = int(cnt)
        return FactorizationType(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, FactorizationType) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"lambda[{self.serialize()}]"


EMPTY_TYPE = FactorizationType({})


# ---------------------------------------------------------------------------
# lambda of a polynomial under a cover


def lambda_entries_raw(spec: Cover, cs: Coeffs, seed: int = 0) -> tuple[tuple[Entry, int], ...]:
    """lambda_of_poly on bare coefficients, by factoring; intervals are
    sieved instead, and this is the oracle the sieve is tested against."""
    _, parts = factor_raw(spec.ctx, cs, seed)
    counts: dict[Entry, int] = {}
    for P, e in parts:
        w = spec.coset_class(Poly._raw(spec.ctx, P))
        key = (pdeg(P), e, w)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def lambda_of_poly(spec: Cover, f: Poly, seed: int = 0) -> FactorizationType:
    """Factorization type of a monic f: prime factors bucketed by
    (degree, multiplicity, Frobenius coset class)."""
    if f.is_zero():
        raise ZeroPolynomial("lambda of the zero polynomial is undefined")
    if not f.is_monic():
        raise DomainError("lambda_of_poly expects a monic polynomial")
    lam = FactorizationType(dict(lambda_entries_raw(spec, f.coeffs, seed)))
    if lam.degree() != f.degree:
        raise InvariantViolated("factorization type degree differs from the polynomial's")
    return lam


# ---------------------------------------------------------------------------
# arithmetic function specs


@dataclass(frozen=True)
class OneC:
    """Indicator of 'irreducible with Frobenius class C'."""

    class_index: int

    def describe(self) -> str:
        return f"1C:{self.class_index}"


@dataclass(frozen=True)
class B:
    """Norm indicator: 1 iff every prime-power factor is a norm."""

    def describe(self) -> str:
        return "B"


@dataclass(frozen=True)
class R:
    """Number of ideals with the given norm."""

    def describe(self) -> str:
        return "R"


@dataclass(frozen=True)
class RPower:
    """r^s for a nonnegative integer s (s = 0 gives B, s = 1 gives R)."""

    s: int

    def describe(self) -> str:
        return f"rpow:{self.s}"


@dataclass(frozen=True)
class Delta:
    """Indicator of one exact factorization type."""

    lam: FactorizationType

    def describe(self) -> str:
        return f"delta:{self.lam.serialize()}"


@dataclass(frozen=True)
class TableFn:
    """Explicit finite-support table, default 0 elsewhere."""

    mapping: tuple[tuple[FactorizationType, Fraction], ...]
    default: Fraction = Fraction(0)

    def describe(self) -> str:
        return f"table[{len(self.mapping)}]"


ArithFnSpec = OneC | B | R | RPower | Delta | TableFn


def parse_fn(text: str) -> ArithFnSpec:
    t = text.strip()
    low = t.lower()
    if low == "b":
        return B()
    if low == "r":
        return R()
    try:
        if low.startswith("1c:"):
            return OneC(int(t[3:]))
        if low.startswith("rpow:"):
            s = int(t[5:])
            if s < 0:
                raise DomainError("rpow exponent must be >= 0")
            return RPower(s)
        if low.startswith("delta:"):
            return Delta(FactorizationType.parse(t[6:]))
    except ValueError:  # a bad integer, or a delta entry without d:e:w=c
        pass
    raise DomainError(f"cannot parse arithmetic function {text!r}")


def check_class(group: GroupTable, c: int) -> None:
    if not 0 <= c < len(group.classes):
        raise NotAConjugacyClass(f"no conjugacy class with index {c}")


def evaluate(fn: ArithFnSpec, lam: FactorizationType, group: GroupTable) -> int | Fraction:
    """Value of a G-factorization arithmetic function on a type: an int for
    1C, B, R, rpow and delta, a Fraction for a table, so that a mean sums
    integers and makes one Fraction at the end.

    The group supplies the (e, f, g) catalog that B/R read their inertia
    degrees from; lam's omega indices must come from the same catalog.
    """
    if isinstance(fn, OneC):
        check_class(group, fn.class_index)
        w_c = group.class_to_omega[fn.class_index]
        if len(lam.entries) != 1:
            return 0
        (d, e, w), c = lam.entries[0]
        return int(e == 1 and c == 1 and w == w_c and d == lam.degree())
    if isinstance(fn, (B, R, RPower)):
        s = 0 if isinstance(fn, B) else 1 if isinstance(fn, R) else fn.s
        val = 1
        for (d, a, w), cnt in lam.entries:
            oc = group.omega[w]
            if a % oc.f != 0:
                return 0
            if s:
                val *= math.comb(a // oc.f + oc.g - 1, oc.g - 1) ** (s * cnt)
        return val
    if isinstance(fn, Delta):
        for (_, _, w), _ in fn.lam.entries:
            if w >= len(group.omega):
                raise DomainError(f"no coset class with index {w}")
        return int(lam == fn.lam)
    if isinstance(fn, TableFn):
        for key, v in fn.mapping:
            if key == lam:
                return Fraction(v)
        return Fraction(fn.default)
    raise DomainError(f"unknown arithmetic function {fn!r}")


# ---------------------------------------------------------------------------
# the direct (splitting-data) route for b and r


def direct_b(spec: Cover, f: Poly, seed: int = 0) -> int:
    """1 iff (f) is a norm of an ideal, straight from splitting data."""
    if not spec.abelian:
        raise DomainError("direct_b needs (e, f, g) at every prime; use a cyclic or product cover")
    _, parts = factor_raw(spec.ctx, f.coeffs, seed)
    for P, a in parts:
        sd = spec.splitting_data(Poly._raw(spec.ctx, P))
        if a % sd.f != 0:
            return 0
    return 1


def direct_r(spec: Cover, f: Poly, seed: int = 0) -> int:
    """Number of ideals of norm (f), straight from splitting data."""
    if not spec.abelian:
        raise DomainError("direct_r needs (e, f, g) at every prime; use a cyclic or product cover")
    _, parts = factor_raw(spec.ctx, f.coeffs, seed)
    out = 1
    for P, a in parts:
        sd = spec.splitting_data(Poly._raw(spec.ctx, P))
        if a % sd.f != 0:
            return 0
        out *= math.comb(a // sd.f + sd.g - 1, sd.g - 1)
    return out
