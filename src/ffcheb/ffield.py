"""Exact arithmetic in F_p and F_{p^k}.

A field context encodes elements as integers in [0, q): the element with
residue-polynomial coefficients (c_0, ..., c_{k-1}) over F_p is stored as
sum c_i * p^i.  Multiplication runs through exp/log tables built from the
canonical primitive root g.  Only the first m = (q - 1)/(p - 1) powers of g
are multiplied out: g^m generates F_p^* (the norm to F_p is onto), and a
scalar of F_p multiplies the encoding digit by digit, so each later power
g^(i + m) = g^m * g^i is two lookups in a digit table.  The log table is the
inverse of exp.  Over F_p addition is integer addition mod p; over
F_{p^k}, k > 1, it runs through a table of Zech logarithms log(1 + g^i) of q
entries.  Every operation after construction is table lookups and integer
adds.

Canonical choices (they make contexts reproducible bit for bit):
  * modulus: the smallest monic irreducible of degree k, comparing coefficient
    sequences lexicographically from the top coefficient down to the constant
    term (equivalently, numeric order of the base-p encoding); it is the first
    monic of `polys.enumerate_monic_raw` over F_p that
    `polys.is_irreducible_raw` accepts;
  * primitive root: the smallest encoded nonzero element of order q - 1.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

from .errors import (
    ContextMismatch,
    DegreeTooLarge,
    DivisionByZero,
    NotDividing,
    NotPrime,
    ZeroElement,
)

#: Largest permitted field size; interval enumeration dominates cost long
#: before this bound matters.  Mutable on purpose.
MAX_Q = 2**20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


class Field:
    """Immutable context for F_{p^k}; safe to share across workers.

    Elements are plain ints in [0, q).  The wrapper class FieldElement rides
    on top for user-facing arithmetic; internal hot paths use the int methods
    directly.  `add(a, b)`, `neg(a)` and `sub(a, b)` are chosen once per
    field, in `_build_tables`.
    """

    def __init__(self, p: int, k: int):
        # before the primality test; 2^k > MAX_Q decides a large k without p^k
        if p > 1 and k >= 1 and (k >= MAX_Q.bit_length() or p**k > MAX_Q):
            raise DegreeTooLarge(
                f"p = {p}, k = {k}: q = p^k exceeds the configured bound {MAX_Q}"
            )
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise DegreeTooLarge("extension degree must be >= 1")
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        self.modulus: tuple[int, ...] | None = None
        self._build_tables()

    # -- construction helpers -------------------------------------------

    def _build_tables(self) -> None:
        """Find the canonical modulus and primitive root, fill exp/log, and
        choose add, neg and sub: residues mod p for k == 1, Zech logarithms
        for k > 1.

        exp holds g^i for i < m = (q - 1)/(p - 1) by multiplication, then
        g^(i + m) = zeta * g^i with zeta = g^m in F_p^*, each read from a
        digit table of zeta in two lookups (for k == 1, m = 1 and zeta = g
        multiplies mod p); log is filled from exp in one pass.  p == 2 gives
        m = q - 1 and no scaling.

        For k > 1 an element is multiplied as its list of k residue
        coefficients, in F_p[x]/(modulus), by the prime-field kernel of polys;
        polys sits above this module, so it is imported here."""
        p, k, q = self.p, self.k, self.q
        if k == 1:
            def rep(a):
                return a

            enc = rep

            def mul(x, y):
                return x * y % p

            def power(x, e):
                return pow(x, e, p)
        else:
            from . import polys

            Fp = make_field(p)
            self.modulus = next(
                f for f in polys.enumerate_monic_raw(Fp, k) if polys.is_irreducible_raw(Fp, f)
            )
            mul = polys._mulmod(Fp, self.modulus)
            weights = [p**i for i in range(k)]

            def rep(a):
                return list(self.coeffs(a))

            def enc(cs):
                return sum(c * w for c, w in zip(cs, weights))

            def power(x, e):
                return polys._square_multiply(mul, x, e)

        ells = prime_factors(q - 1)
        gen = None
        for a in range(2, q) if q > 2 else range(1, q):
            if all(enc(power(rep(a), (q - 1) // ell)) != 1 for ell in ells):
                gen = a
                break
        if gen is None:  # q == 2
            gen = 1
        self.generator = gen
        n = q - 1
        m = n // (p - 1)
        exp = [1] * n
        g = cur = rep(gen)
        for i in range(1, m):
            exp[i] = enc(cur)
            cur = mul(cur, g)
        zeta = enc(cur)
        if k == 1:  # a digit table of zeta would be as large as the field
            for i in range(1, n):
                exp[i] = exp[i - 1] * zeta % p
        else:
            # zeta v = lo[v % P] + lo[v // P] * P with P = p^(k // 2), where
            # lo scales each digit of a number of k - k // 2 digits
            lo = digit = [zeta * c % p for c in range(p)]
            for _ in range(k - k // 2 - 1):
                lo = [u * p + c for u in lo for c in digit]
            P = p ** (k // 2)
            for i in range(m, n):
                v = exp[i - m]
                exp[i] = lo[v % P] + lo[v // P] * P
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        # stored twice over and one more, so a sum of two logs indexes it
        exp += exp
        exp.append(1)
        self._exp = exp
        self._log = log
        # always None: bench/layers._kernel still reads it to name the kernel
        self._add_tab = None
        if k == 1:
            def add(a, b):
                return (a + b) % p

            def neg(a):
                return -a % p

            def sub(a, b):
                return (a - b) % p
        else:
            # Zech logarithms: g^a + g^b = g^(a + zech[b - a]), where
            # 1 + g^i = g^zech[i] (None where it is 0).  Adding 1 raises only
            # the lowest base-p digit.  The table is stored twice over, so
            # b - a + log(-1), which lies in (-2(q-1), 2(q-1)), indexes it
            # without a reduction mod q - 1.
            h = 0 if p == 2 else (q - 1) // 2  # log(-1)
            zech = [log[y] if y else None
                    for y in (x - x % p + (x + 1) % p for x in exp[: q - 1])]
            zech += zech

            def add(a, b):
                if not a:
                    return b
                if not b:
                    return a
                la = log[a]
                z = zech[log[b] - la]
                return 0 if z is None else exp[la + z]

            def neg(a):
                return exp[log[a] + h] if a else 0

            def sub(a, b):
                if not b:
                    return a
                if not a:
                    return exp[log[b] + h]
                la = log[a]
                z = zech[log[b] + h - la]
                return 0 if z is None else exp[la + z]

        self.add = add
        self.neg = neg
        self.sub = sub

    # -- int-level arithmetic --------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by zero")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + self.q - 1]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        return self._exp[self._log[a] * e % (self.q - 1)]

    def order(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("order of zero is undefined")
        return (self.q - 1) // math.gcd(self.q - 1, self._log[a])

    def frob(self, a: int) -> int:
        return self.pow(a, self.p)

    def trace(self, a: int) -> int:
        """Tr_{F_q/F_p}(a) = a + a^p + ... + a^(p^(k-1)), an element of F_p
        (encoded as its residue)."""
        t = a
        for _ in range(self.k - 1):
            a = self.frob(a)
            t = self.add(t, a)
        return t

    def pth_root(self, a: int) -> int:
        """Unique b with b^p = a (Frobenius is bijective)."""
        return self.pow(a, self.p ** (self.k - 1))

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        p = self.p
        return tuple((a // p**i) % p for i in range(self.k))

    def from_coeffs(self, cs) -> int:
        p = self.p
        if len(cs) > self.k:
            raise ContextMismatch("too many coefficients for this field")
        return sum((c % p) * p**i for i, c in enumerate(cs))

    def scalar(self, n: int) -> int:
        """Image of the integer n under Z -> F_p -> F_{p^k}."""
        return n % self.p

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def elem(self, v) -> "FieldElement":
        """Wrap an element: an encoded int (reduced mod p when k == 1), or a
        coefficient sequence."""
        if isinstance(v, FieldElement):
            if v.ctx is not self:
                raise ContextMismatch("element from a different field")
            return v
        if isinstance(v, int):
            if self.k == 1:
                return FieldElement(self, v % self.p)
            if not 0 <= v < self.q:
                raise ContextMismatch(f"encoded value {v} out of range for {self!r}")
            return FieldElement(self, v)
        return FieldElement(self, self.from_coeffs(v))

    def serialize_elem(self, a: int) -> str:
        return ",".join(str(c) for c in self.coeffs(a))

    def parse_elem(self, text: str) -> int:
        return self.from_coeffs([int(t) for t in text.split(",")])

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"F_{self.q}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __reduce__(self):
        # add/neg/sub are closures, which pickle cannot carry
        return make_field, (self.p, self.k)


class FieldElement:
    """Element wrapper with operator overloading; `val` is the int encoding."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: Field, val: int):
        self.ctx = ctx
        self.val = val

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise ContextMismatch("elements from different fields")
            return other.val
        if isinstance(other, int):
            return self.ctx.scalar(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.div(self.val, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.div(v, self.val))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.val))

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow(self.val, e))

    def order(self) -> int:
        return self.ctx.order(self.val)

    def coeffs(self) -> tuple[int, ...]:
        return self.ctx.coeffs(self.val)

    def serialize(self) -> str:
        return self.ctx.serialize_elem(self.val)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.ctx is other.ctx and self.val == other.val
        if isinstance(other, int):
            return self.val == self.ctx.scalar(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.val))

    def __bool__(self) -> bool:
        return self.val != 0

    def __repr__(self) -> str:
        return f"{self.ctx!r}({self.serialize()})"


@functools.lru_cache(maxsize=None)
def _make_field(p: int, k: int) -> Field:
    return Field(p, k)


def make_field(p: int, k: int = 1) -> Field:
    """Canonical field context for F_{p^k}; repeated calls share the object."""
    return _make_field(p, k)


def root_of_unity(ctx: Field, d: int) -> FieldElement:
    """zeta = g^((q-1)/d) for the canonical primitive root g; order exactly d."""
    if d < 1 or (ctx.q - 1) % d != 0:
        raise NotDividing(f"d = {d} does not divide q - 1 = {ctx.q - 1}")
    return FieldElement(ctx, ctx._exp[(ctx.q - 1) // d])
