"""Polynomials over F_q: arithmetic, factorization, and residue fields.

Coefficient sequences are tuples of int-encoded field elements, lowest degree
first, with no trailing zeros; the empty tuple is the zero polynomial.  The
module-level functions work on bare tuples (the hot path for interval
enumeration); the Poly class wraps them for the public API.

Factorization is squarefree decomposition (with p-th-power detection when the
derivative vanishes), then distinct-degree splitting, then randomized
equal-degree splitting; characteristic 2 uses the trace-map splitter.  The
randomized stage is seeded from (run seed, polynomial), so factoring is a pure
function and parallel sweeps are partition-independent.
"""

from __future__ import annotations

import itertools
import random
import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    ConstantPolynomial,
    ContextMismatch,
    DivisionByZero,
    InvariantViolated,
    NotIrreducible,
    PoleAtPrime,
    PolyParseError,
    TooLarge,
    ZeroPolynomial,
)
from .ffield import Field, FieldElement, make_field, prime_factors

Coeffs = tuple[int, ...]

#: largest number of polynomials any exhaustive sweep may walk
ENUMERATION_LIMIT = 10**7

# ---------------------------------------------------------------------------
# raw coefficient-tuple arithmetic


def pnorm(cs) -> Coeffs:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pdeg(a: Coeffs) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


def padd(F: Field, a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    add = F.add
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return pnorm(out)


def pneg(F: Field, a: Coeffs) -> Coeffs:
    neg = F.neg
    return tuple(neg(c) for c in a)


def psub(F: Field, a: Coeffs, b: Coeffs) -> Coeffs:
    return padd(F, a, pneg(F, b))


def pmul(F: Field, a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    mul, add = F.mul, F.add
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return tuple(out)


def pscale(F: Field, a: Coeffs, c: int) -> Coeffs:
    if c == 0:
        return ()
    mul = F.mul
    return tuple(mul(x, c) for x in a)


def pdivmod(F: Field, a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), pnorm(a)
    rem = list(a)
    quo = [0] * (len(a) - db)
    inv_lead = F.inv(b[-1])
    mul, sub = F.mul, F.sub
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c:
            c = mul(c, inv_lead)
            quo[i - db] = c
            for j in range(db + 1):
                rem[i - db + j] = sub(rem[i - db + j], mul(c, b[j]))
    return pnorm(quo), pnorm(rem)


def pmod(F: Field, a: Coeffs, b: Coeffs) -> Coeffs:
    return pdivmod(F, a, b)[1]


def pdiv(F: Field, a: Coeffs, b: Coeffs) -> Coeffs:
    return pdivmod(F, a, b)[0]


def pgcd(F: Field, a: Coeffs, b: Coeffs) -> Coeffs:
    """Monic gcd; gcd(0, 0) = 0."""
    while b:
        a, b = b, pmod(F, a, b)
    if a and a[-1] != 1:
        a = pscale(F, a, F.inv(a[-1]))
    return a


def pinvmod(F: Field, a: Coeffs, m: Coeffs) -> Coeffs:
    """Inverse of a modulo m, by the extended Euclidean algorithm."""
    r0, r1 = m, pmod(F, a, m)
    s0, s1 = (), (1,)
    while r1:  # invariant: s_i * a = r_i mod m
        quo, rem = pdivmod(F, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, psub(F, s0, pmul(F, quo, s1))
    if pdeg(r0) != 0:
        raise DivisionByZero("polynomial is not invertible modulo m")
    return pscale(F, s0, F.inv(r0[0]))


def power_sums(F: Field, f: Coeffs, count: int) -> list[int]:
    """s_0, ..., s_{count-1}: the power sums of the roots of the monic f,
    with multiplicity, by Newton's identities (count <= deg f)."""
    n = len(f) - 1
    mul, sub = F.mul, F.sub
    s = [F.scalar(n)]
    for k in range(1, count):
        acc = F.neg(mul(F.scalar(k), f[n - k]))
        for i in range(1, k):
            acc = sub(acc, mul(f[n - i], s[k - i]))
        s.append(acc)
    return s


def pmonic(F: Field, a: Coeffs) -> tuple[int, Coeffs]:
    """(leading unit, monic part)."""
    if not a:
        raise ZeroPolynomial("the zero polynomial has no monic part")
    u = a[-1]
    if u == 1:
        return 1, a
    return u, pscale(F, a, F.inv(u))


def ppowmod(F: Field, base: Coeffs, e: int, mod: Coeffs) -> Coeffs:
    """base^e mod `mod`, with a table-local kernel for the inner squarings."""
    d = pdeg(mod)
    if d < 0:
        raise DivisionByZero("power modulo the zero polynomial")
    if d == 0:
        return ()
    base = pmod(F, base, mod)
    if e == 0:
        return (1,)
    if not base:
        return ()
    if d == 1 or e == 1:
        if d == 1:
            return (F.pow(base[0], e),)
        return base
    rows = _reduction_rows(F, mod)
    mulmod = _mulmod_prime(F.p, rows, d) if F.k == 1 else _mulmod_ext(F, rows, d)
    return pnorm(_square_multiply(mulmod, list(base) + [0] * (d - len(base)), e))


def _square_multiply(mulmod, a: list[int], e: int) -> list[int]:
    """a^e for e >= 1 under `mulmod`."""
    acc = None
    while e:
        if e & 1:
            acc = a if acc is None else mulmod(acc, a)
        e >>= 1
        if e:
            a = mulmod(a, a)
    return acc


def _reduction_rows(F: Field, mod: Coeffs) -> list[list[int]]:
    """T^(d+i) mod `mod` for i = 0..d-2, each padded to length d = deg mod."""
    d = pdeg(mod)
    r0 = list(pmod(F, (0,) * d + (1,), mod))
    r0 += [0] * (d - len(r0))
    rows = [r0]
    for _ in range(d - 2):
        prev = rows[-1]
        top = prev[d - 1]
        sh = [0] + prev[: d - 1]
        if top:
            sh = [F.add(sh[j], F.mul(top, r0[j])) for j in range(d)]
        rows.append(sh)
    return rows


# Two kernels for the product of two residues (length-d lists) modulo a
# degree-d polynomial given by its reduction rows; ppowmod picks one by field.


def _mulmod_prime(p: int, rows, d: int):
    """Over F_p: integer products, reduced mod p once per coefficient."""
    w = 2 * d - 1

    def mulmod(x, y):
        prod = [0] * w
        for i in range(d):
            xi = x[i]
            if xi:
                for j in range(d):
                    yj = y[j]
                    if yj:
                        prod[i + j] += xi * yj
        out = prod[:d]
        for i in range(d - 1):
            c = prod[d + i] % p
            if c:
                ri = rows[i]
                for j in range(d):
                    rij = ri[j]
                    if rij:
                        out[j] += c * rij
        return [v % p for v in out]

    return mulmod


def _mulmod_ext(F: Field, rows, d: int):
    """Over F_{p^k}, k > 1: exp/log products, sums through Field.add."""
    exp, log, add = F._exp, F._log, F.add
    w = 2 * d - 1

    def mulmod(x, y):
        prod = [0] * w
        for i in range(d):
            xi = x[i]
            if xi:
                lxi = log[xi]
                for j in range(d):
                    yj = y[j]
                    if yj:
                        prod[i + j] = add(prod[i + j], exp[lxi + log[yj]])
        out = prod[:d]
        for i in range(d - 1):
            c = prod[d + i]
            if c:
                lc = log[c]
                ri = rows[i]
                for j in range(d):
                    rij = ri[j]
                    if rij:
                        out[j] = add(out[j], exp[lc + log[rij]])
        return out

    return mulmod


def pderiv(F: Field, a: Coeffs) -> Coeffs:
    mul = F.mul
    return pnorm(mul(c, F.scalar(i)) for i, c in enumerate(a) if i)


def peval(F: Field, a: Coeffs, x: int) -> int:
    acc = 0
    mul, add = F.mul, F.add
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def pth_root_poly(F: Field, a: Coeffs) -> Coeffs:
    """Inverse of m -> m^p for polynomials whose derivative vanishes."""
    p = F.p
    out = [0] * ((len(a) - 1) // p + 1)
    for i, c in enumerate(a):
        if c:
            if i % p:
                raise InvariantViolated("polynomial is not a p-th power")
            out[i // p] = F.pth_root(c)
    return pnorm(out)


def canonical_key(a: Coeffs) -> tuple:
    """Sort key: degree, then coefficients from the top down."""
    return (len(a) - 1, tuple(reversed(a)))


# ---------------------------------------------------------------------------
# factorization


def _rand_poly(F: Field, max_deg: int, rng: random.Random) -> Coeffs:
    n = rng.randrange(F.q ** (max_deg + 1))
    cs = []
    for _ in range(max_deg + 1):
        cs.append(n % F.q)
        n //= F.q
    return pnorm(cs)


def _edf(F: Field, g: Coeffs, d: int, rng: random.Random) -> list[Coeffs]:
    """Split a squarefree product of degree-d primes into its primes."""
    if pdeg(g) == d:
        return [g]
    q = F.q
    one: Coeffs = (1,)
    while True:
        a = _rand_poly(F, pdeg(g) - 1, rng)
        if pdeg(a) < 1:
            continue
        if F.p == 2:
            # trace map to F_2 over the degree-(k*d) residue fields
            t = pmod(F, a, g)
            c = t
            for _ in range(F.k * d - 1):
                c = pmod(F, pmul(F, c, c), g)
                t = padd(F, t, c)
            h = pgcd(F, t, g)
        else:
            t = ppowmod(F, a, (q**d - 1) // 2, g)
            h = pgcd(F, psub(F, t, one), g)
        if 0 < pdeg(h) < pdeg(g):
            rest = pdiv(F, g, h)
            return _edf(F, h, d, rng) + _edf(F, rest, d, rng)


def _split_squarefree(F: Field, m: Coeffs, rng: random.Random) -> list[Coeffs]:
    """Distinct-degree then equal-degree splitting of a squarefree monic m."""
    out: list[Coeffs] = []
    if pdeg(m) <= 0:
        return out
    t: Coeffs = (0, 1)
    h = pmod(F, t, m)
    d = 0
    while pdeg(m) >= 2 * (d + 1):
        d += 1
        h = ppowmod(F, h, F.q, m)
        g = pgcd(F, psub(F, h, pmod(F, t, m)), m)
        if pdeg(g) > 0:
            out.extend(_edf(F, g, d, rng))
            m = pdiv(F, m, g)
            h = pmod(F, h, m)
    if pdeg(m) > 0:
        out.append(m)
    return out


def _factor_seed(F: Field, cs: Coeffs, seed: int) -> random.Random:
    fold = F.p * 31 + F.k
    for c in cs:
        fold = fold * F.q + c + 1
    return random.Random(fold ^ (seed * 0x9E3779B97F4A7C15))


def _factor_monic(F: Field, m: Coeffs, rng: random.Random) -> dict[Coeffs, int]:
    if pdeg(m) <= 0:
        return {}
    md = pderiv(F, m)
    if not md:
        root = pth_root_poly(F, m)
        return {P: e * F.p for P, e in _factor_monic(F, root, rng).items()}
    g = pgcd(F, m, md)
    if pdeg(g) == 0:
        return {P: 1 for P in _split_squarefree(F, m, rng)}
    out: dict[Coeffs, int] = {}
    rem = m
    s = pdiv(F, m, g)  # primes whose multiplicity is not divisible by p, once each
    for P in _split_squarefree(F, s, rng):
        e = 0
        while True:
            quo, r = pdivmod(F, rem, P)
            if r:
                break
            rem = quo
            e += 1
        out[P] = e
    if pdeg(rem) > 0:
        for P, e in _factor_monic(F, rem, rng).items():
            out[P] = e  # disjoint from `out` by construction
    return out


def factor_raw(F: Field, cs: Coeffs, seed: int = 0) -> tuple[int, tuple[tuple[Coeffs, int], ...]]:
    """(unit, sorted ((prime, multiplicity), ...)) for a nonzero polynomial."""
    if not cs:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit, m = pmonic(F, cs)
    rng = _factor_seed(F, cs, seed)
    fac = _factor_monic(F, m, rng)
    parts = tuple(sorted(fac.items(), key=lambda kv: canonical_key(kv[0])))
    return unit, parts


def is_irreducible_raw(F: Field, cs: Coeffs) -> bool:
    """True iff cs has no prime factor of degree <= deg/2 (distinct-degree
    prefix test; early-exits on the common case of a small factor)."""
    n = pdeg(cs)
    if n < 1:
        raise ConstantPolynomial("irreducibility is undefined for constants")
    if n == 1:
        return True
    tm = pmod(F, (0, 1), cs)
    h = tm
    for _ in range(n // 2):
        h = ppowmod(F, h, F.q, cs)
        if pdeg(pgcd(F, psub(F, h, tm), cs)) > 0:
            return False
    return True


def mobius(n: int) -> int:
    m = 1
    for f in prime_factors(n):
        if n % (f * f) == 0:
            return 0
        m = -m
    return m


def count_primes(ctx: Field, n: int) -> int:
    """pi_q(n): number of monic irreducibles of degree n (finite primes only)."""
    if n < 1:
        raise ConstantPolynomial("prime counting needs degree >= 1")
    q = ctx.q
    total = sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def primes_of_degree(ctx: Field, n: int) -> list[Coeffs]:
    """All monic irreducibles of degree n, in the order of
    `enumerate_monic_raw` (lowest coefficient varying fastest).

    Degree n >= 2 is sieved: the monics of degree n are I(T^n, n - 1), and
    the multiples there of a prime Q of degree d <= n/2 are the coset
    h = -T^n mod Q, n - d digits free.  Cached on the field context, so the
    interval sieve and every cover over the same field share the lists.
    """
    cache = getattr(ctx, "_prime_cache", None)
    if cache is None:
        cache = ctx._prime_cache = {}
    if n in cache:
        return cache[n]
    if n < 1:
        raise ConstantPolynomial("primes have degree >= 1")
    q = ctx.q
    if n == 1:
        out = [(ctx.neg(a), 1) for a in range(q)]
    else:
        size = q**n
        if size > ENUMERATION_LIMIT:
            raise TooLarge(f"listing the primes of degree {n} sieves {size} monics")
        keep = bytearray(b"\x01") * size
        tn = (0,) * n + (1,)
        for d in range(1, n // 2 + 1):
            for Q in primes_of_degree(ctx, d):
                for i in _coset_indices(ctx, pneg(ctx, pmod(ctx, tn, Q)), Q, n - d):
                    keep[i] = 0
        out = list(itertools.compress(enumerate_monic_raw(ctx, n), keep))
    cache[n] = out
    return out


def enumerate_monic_raw(F: Field, n: int) -> Iterator[Coeffs]:
    """All monic coefficient tuples of degree n, lowest coefficient varying
    fastest (ascending base-q encoding of the lower coefficients)."""
    for top_down in itertools.product(range(F.q), repeat=n):
        yield top_down[::-1] + (1,)


# ---------------------------------------------------------------------------
# affine cosets
#
# A polynomial h of degree < s has the index sum h_j q^j over its digits h_j
# (field encodings), lowest first, so the q^s of them are numbered 0..q^s-1.
# For a monic Q of degree D and r reduced mod Q, the h = r mod Q of degree
# < D + t are h = T^D u + l with deg u < t and l = r - (T^D u mod Q): every
# u gives exactly one, and l is linear in u.  The interval sieve and the
# prime sieve both mark such cosets.


def _index(cs, q: int) -> int:
    """Index of the polynomial with coefficients cs."""
    i = 0
    for c in reversed(cs):
        i = i * q + c
    return i


def _coset_indices(F: Field, r: Coeffs, Q: Coeffs, t: int) -> Iterable[int]:
    """Ascending indices of the h = r + Q * k over all k with deg k < t, for a
    monic Q and r reduced mod Q.

    The low and the high halves of u are spanned apart, and each high part
    is joined to every low part in turn, so memory stays near q^(t/2)."""
    q, D = F.q, len(Q) - 1
    if not t:
        return [_index(r, q)]
    rows = []  # -(T^(D+j) mod Q): what digit j of u adds to l
    x = (0,) * (D - 1) + (1,)
    for _ in range(t):
        x = pmod(F, (0,) + x, Q)
        rows.append(list(pneg(F, x)) + [0] * (D - len(x)))
    h = (t + 1) // 2
    low = _span(F, D, list(r) + [0] * (D - len(r)), 0, rows[:h])
    if h == t:
        return [tl + _index(vl, q) for tl, vl in low]
    high = _span(F, D, [0] * D, h, rows[h:])
    add = F.add
    return itertools.chain.from_iterable(
        [th + tl + _index([add(a, b) for a, b in zip(vh, vl)], q) for tl, vl in low]
        for th, vh in high
    )


def _span(F: Field, D: int, l0: list[int], first: int, rows) -> list[tuple[int, list[int]]]:
    """(index of T^D u, l0 + the l of u) over the u whose digits first,
    first + 1, ... are free, one per row, and whose other digits are 0."""
    q = F.q
    add, mul = F.add, F.mul
    tops, lows = [0], [l0]
    step = q ** (D + first)
    for row in rows:
        scaled = [[mul(c, b) for b in row] for c in range(q)]
        lows = [[add(a, b) for a, b in zip(v, sc)] for sc in scaled for v in lows]
        tops = [c * step + top for c in range(q) for top in tops]
        step *= q
    return list(zip(tops, lows))


# ---------------------------------------------------------------------------
# resultant and discriminant


def resultant_raw(F: Field, f: Coeffs, g: Coeffs) -> int:
    if not f or not g:
        return 0
    if pdeg(f) == 0 and pdeg(g) == 0:
        return 1
    res = 1
    while pdeg(g) > 0:
        r = pmod(F, f, g)
        if not r:
            return 0
        res = F.mul(res, F.pow(g[-1], pdeg(f) - pdeg(r)))
        if (pdeg(f) * pdeg(g)) % 2 == 1:
            res = F.neg(res)
        f, g = g, r
    return F.mul(res, F.pow(g[0], pdeg(f)))


def discriminant_raw(F: Field, f: Coeffs) -> int:
    n = pdeg(f)
    if n < 1:
        raise ConstantPolynomial("discriminant needs degree >= 1")
    r = resultant_raw(F, f, pderiv(F, f))
    if r == 0:
        return 0
    if (n * (n - 1) // 2) % 2 == 1:
        r = F.neg(r)
    return F.div(r, f[-1])


# ---------------------------------------------------------------------------
# Poly / Factorization / RationalFn


class Poly:
    """Dense polynomial over a field context; immutable and hashable."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: Field, coeffs: Sequence = ()):
        self.ctx = ctx
        out = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.ctx is not ctx:
                    raise ContextMismatch("coefficient from a different field")
                out.append(c.val)
            elif isinstance(c, int):
                out.append(c % ctx.p if ctx.k == 1 else c)
            else:
                out.append(ctx.from_coeffs(c))
        self.coeffs = pnorm(out)

    # ---- constructors

    @classmethod
    def x(cls, ctx: Field) -> "Poly":
        return cls(ctx, (0, 1))

    @classmethod
    def one(cls, ctx: Field) -> "Poly":
        return cls(ctx, (1,))

    @classmethod
    def zero(cls, ctx: Field) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def _raw(cls, ctx: Field, cs: Coeffs) -> "Poly":
        p = object.__new__(cls)
        p.ctx = ctx
        p.coeffs = cs
        return p

    # ---- basic queries

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return FieldElement(self.ctx, self.coeffs[-1])

    def monic(self) -> "Poly":
        _, m = pmonic(self.ctx, self.coeffs)
        return Poly._raw(self.ctx, m)

    # ---- arithmetic

    def _other(self, other) -> Coeffs:
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise ContextMismatch("polynomials over different fields")
            return other.coeffs
        if isinstance(other, int):
            v = self.ctx.scalar(other)
            return (v,) if v else ()
        if isinstance(other, FieldElement):
            return (other.val,) if other.val else ()
        return NotImplemented

    def __add__(self, other):
        return Poly._raw(self.ctx, padd(self.ctx, self.coeffs, self._other(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Poly._raw(self.ctx, psub(self.ctx, self.coeffs, self._other(other)))

    def __rsub__(self, other):
        return Poly._raw(self.ctx, psub(self.ctx, self._other(other), self.coeffs))

    def __neg__(self):
        return Poly._raw(self.ctx, pneg(self.ctx, self.coeffs))

    def __mul__(self, other):
        return Poly._raw(self.ctx, pmul(self.ctx, self.coeffs, self._other(other)))

    __rmul__ = __mul__

    def __divmod__(self, other):
        q, r = pdivmod(self.ctx, self.coeffs, self._other(other))
        return Poly._raw(self.ctx, q), Poly._raw(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        acc = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def gcd(self, other) -> "Poly":
        return Poly._raw(self.ctx, pgcd(self.ctx, self.coeffs, self._other(other)))

    def derivative(self) -> "Poly":
        return Poly._raw(self.ctx, pderiv(self.ctx, self.coeffs))

    def __call__(self, x) -> FieldElement:
        xv = x.val if isinstance(x, FieldElement) else self.ctx.elem(x).val
        return FieldElement(self.ctx, peval(self.ctx, self.coeffs, xv))

    # ---- factorization layer

    def factor(self, seed: int = 0) -> "Factorization":
        unit, parts = factor_raw(self.ctx, self.coeffs, seed)
        return Factorization(
            FieldElement(self.ctx, unit),
            tuple((Poly._raw(self.ctx, P), e) for P, e in parts),
        )

    def is_irreducible(self) -> bool:
        return is_irreducible_raw(self.ctx, self.coeffs)

    def is_squarefree(self) -> bool:
        d = pderiv(self.ctx, self.coeffs)
        return bool(d) and pdeg(pgcd(self.ctx, self.coeffs, d)) == 0

    def discriminant(self) -> FieldElement:
        return FieldElement(self.ctx, discriminant_raw(self.ctx, self.coeffs))

    def resultant(self, other) -> FieldElement:
        return FieldElement(self.ctx, resultant_raw(self.ctx, self.coeffs, self._other(other)))

    # ---- text formats

    def serialize(self) -> str:
        """Compact form [c0,c1,...]; extension-field coefficients in parens."""
        if self.ctx.k == 1:
            inner = ",".join(str(c) for c in self.coeffs)
        else:
            inner = ",".join(
                "(" + self.ctx.serialize_elem(c) + ")" for c in self.coeffs
            )
        return "[" + inner + "]"

    def text(self) -> str:
        """Readable form c0 + c1*T + ... + cn*T^n."""
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = str(c) if self.ctx.k == 1 else "(" + self.ctx.serialize_elem(c) + ")"
            if i == 0:
                terms.append(cs)
            else:
                t = "T" if i == 1 else f"T^{i}"
                terms.append(t if c == 1 else f"{cs}*{t}")
        return " + ".join(terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.coeffs))

    def __repr__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class Factorization:
    """unit * prod(prime^multiplicity), primes monic irreducible, sorted."""

    unit: FieldElement
    parts: tuple[tuple[Poly, int], ...]

    def product(self) -> Poly:
        ctx = self.unit.ctx
        acc = Poly(ctx, (self.unit.val,))
        for P, e in self.parts:
            acc = acc * P**e
        return acc

    def __str__(self) -> str:
        bits = []
        if self.unit.val != 1 or not self.parts:
            bits.append(
                str(self.unit.val)
                if self.unit.ctx.k == 1
                else "(" + self.unit.serialize() + ")"
            )
        for P, e in self.parts:
            s = f"({P.text()})"
            bits.append(s if e == 1 else f"{s}^{e}")
        return "".join(bits)


def factor(f: Poly, seed: int = 0) -> Factorization:
    return f.factor(seed)


def is_irreducible(f: Poly) -> bool:
    return f.is_irreducible()


def enumerate_monic(ctx: Field, n: int) -> Iterator[Poly]:
    """All monic polynomials of degree n, lowest coefficients varying fastest."""
    for cs in enumerate_monic_raw(ctx, n):
        yield Poly._raw(ctx, cs)


class RationalFn:
    """Reduced fraction of polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        ctx = num.ctx
        if den is None:
            den = Poly.one(ctx)
        if den.ctx is not ctx:
            raise ContextMismatch("numerator and denominator over different fields")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lc = den.leading()
        if lc.val != 1:
            num = num * (1 / lc)
            den = den * (1 / lc)
        self.num = num
        self.den = den

    @property
    def ctx(self) -> Field:
        return self.num.ctx

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_polynomial():
            return self.num.text()
        return f"({self.num.text()}) / ({self.den.text()})"


# ---------------------------------------------------------------------------
# residue fields
#
# The roots of the primes of degree d over F_q are the elements of F_{q^d}
# whose Frobenius orbit x -> x^q has size d, and each orbit is the set of
# roots of one prime.  One walk over F_{q^d}, orbit by orbit, so finds the
# smallest root of every prime of degree d.  The root table of degree d holds
# it at the index (as `_index` numbers them) of the prime's lower
# coefficients, and -1 where the monic there is not irreducible.


def _root_table(base: Field, d: int) -> tuple[array, list[int] | None]:
    """(roots, powers of beta) of degree d over `base`, built on first use
    and cached on the base field.  beta is the image in F_{q^d} of the
    generator of `base` over F_p; its powers are None when base is F_p."""
    cache = getattr(base, "_residue_cache", None)
    if cache is None:
        cache = base._residue_cache = {}
    if d in cache:
        return cache[d]
    q = base.q
    big = make_field(base.p, base.k * d)
    if base.k == 1:
        # F_p sits in every F_{p^k} under the same encoding
        beta_pows = to_base = None
    else:
        # embed the base field: send its generator-image alpha to the
        # smallest root of the base modulus inside `big`
        beta = min(_roots_in(big, base.modulus))  # F_p coefficients embed as-is
        beta_pows = [1]
        for _ in range(base.k - 1):
            beta_pows.append(big.mul(beta_pows[-1], beta))
        to_base = {_embed(big, beta_pows, base.coeffs(a)): a for a in range(q)}
    n = big.q - 1
    exp, log, sub, neg = big._exp, big._log, big.sub, big.neg
    roots = array("i", [-1]) * big.q
    if d == 1:
        roots[0] = 0  # T, the one prime with root 0
    seen = bytearray(n)
    for start in range(n):
        if seen[start]:
            continue
        # the orbit by discrete logs: x^q has log q * log x mod q^d - 1
        orbit = [start]
        j = start * q % n
        while j != start:
            orbit.append(j)
            j = j * q % n
        for j in orbit:
            seen[j] = 1
        if len(orbit) != d:
            continue  # x lies in a smaller field
        c = [1]  # prod (Y - x) over the orbit, lowest coefficient first
        for j in orbit:
            c.append(1)
            for i in range(len(c) - 2, 0, -1):
                ci = c[i]
                c[i] = sub(c[i - 1], exp[j + log[ci]]) if ci else c[i - 1]
            c[0] = neg(exp[j + log[c[0]]])
        if to_base is not None:
            c = [to_base[ci] for ci in c]
        roots[_index(c[:-1], q)] = min(exp[j] for j in orbit)
    cache[d] = roots, beta_pows
    return cache[d]


def _embed(big: Field, beta_pows: list[int], digits) -> int:
    """sum c_i beta^i in `big`, for the base-field element with digits c_i."""
    out = 0
    for c, bp in zip(digits, beta_pows):
        if c:
            out = big.add(out, big.mul(c, bp))
    return out


class ResidueField:
    """F_q[T]/(P) realized inside the canonical field with q^deg(P) elements.

    `t_image` is the chosen image of T (the smallest root of P in encoding
    order), read from the root table of degree deg P; `embed` maps
    base-field elements in.  All choices are deterministic, so residue data
    is reproducible across runs.  A P that is not irreducible raises
    NotIrreducible.
    """

    __slots__ = ("base", "prime", "field", "t_image", "_beta_pows")

    def __init__(self, base: Field, prime: Coeffs):
        _, monic = pmonic(base, prime)
        dd = pdeg(monic)
        if dd < 1:
            raise ConstantPolynomial("a residue field needs a prime of degree >= 1")
        roots, self._beta_pows = _root_table(base, dd)
        t = roots[_index(monic[:-1], base.q)]
        if t < 0:
            raise NotIrreducible(f"{Poly._raw(base, prime)!r} is not a prime of F_q[T]")
        self.base = base
        self.prime = prime
        self.field = make_field(base.p, base.k * dd)
        self.t_image = t

    def embed(self, a: int) -> int:
        if self._beta_pows is None:
            return a
        return _embed(self.field, self._beta_pows, self.base.coeffs(a))

    def eval_poly(self, cs: Coeffs) -> int:
        big = self.field
        acc = 0
        t = self.t_image
        for c in reversed(cs):
            acc = big.add(big.mul(acc, t), self.embed(c))
        return acc


def _roots_in(F: Field, cs: Coeffs) -> list[int]:
    """Roots in F of a polynomial that splits completely over F."""
    unit, parts = factor_raw(F, cs, seed=0)
    roots = []
    for P, e in parts:
        if pdeg(P) != 1:
            raise InvariantViolated("polynomial does not split in the residue field")
        roots.append(F.neg(P[0]))
    return sorted(roots)


def residue_field(P: Poly) -> ResidueField:
    """Canonical residue field at an irreducible P; a reducible P raises
    NotIrreducible.  The root tables it reads are built once per
    degree and cached on P's field, and the field F_{q^deg P} itself is a
    shared `make_field` singleton."""
    return ResidueField(P.ctx, P.coeffs)


def eval_mod(D, P: Poly) -> FieldElement:
    """Image of a rational function (or Poly) in the residue field at P."""
    if isinstance(D, Poly):
        D = RationalFn(D)
    rf = residue_field(P)
    den = rf.eval_poly(D.den.coeffs)
    if den == 0:
        raise PoleAtPrime(f"{P!r} divides the denominator of {D!r}")
    num = rf.eval_poly(D.num.coeffs)
    return FieldElement(rf.field, rf.field.div(num, den))


# ---------------------------------------------------------------------------
# text parsing


#: one term of the T-form: [coefficient[*]]T[^power], or a bare coefficient;
#: a coefficient is an integer or a parenthesized tuple of F_p digits
_TERM = re.compile(
    r"(?:(?P<c>\d+|\([^()]*\))\*?)?T(?:\^(?P<e>\d+))?|(?P<k>\d+|\([^()]*\))"
)


def parse_poly(ctx: Field, text: str) -> Poly:
    """Parse either the compact [c0,c1,...] form or c0 + c1*T + ... terms.

    Integer coefficients are mapped through the prime subfield, so patterns
    like "T^3-3*T^2+2*T" stay meaningful over every field.  Any other text
    raises PolyParseError.
    """
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise PolyParseError(f"unbalanced brackets in {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return Poly.zero(ctx)
        coeffs = [_parse_coeff(ctx, tok.strip(), text) for tok in _split_coeffs(inner)]
        return Poly(ctx, coeffs)
    coeffs: dict[int, int] = {}
    for neg, term in _signed_terms(s.replace(" ", ""), text):
        m = _TERM.fullmatch(term)
        if m is None:
            raise PolyParseError(f"bad term {term!r} in {text!r}")
        if m["k"] is not None:
            power, cv = 0, _parse_coeff(ctx, m["k"], text)
        else:
            power = int(m["e"]) if m["e"] else 1
            cv = _parse_coeff(ctx, m["c"], text) if m["c"] else 1
        if neg:
            cv = ctx.neg(cv)
        coeffs[power] = ctx.add(coeffs.get(power, 0), cv)
    out = [0] * (max(coeffs) + 1)
    for i, c in coeffs.items():
        out[i] = c
    return Poly(ctx, out)


def _signed_terms(s: str, text: str) -> list[tuple[bool, str]]:
    """Split at the signs outside parentheses: [(negated, term), ...]; a run
    of signs such as "+-" acts as their product."""
    out, depth, neg, cur = [], 0, False, ""
    for ch in s:
        if ch in "+-" and depth == 0:
            if cur:
                out.append((neg, cur))
                neg, cur = False, ""
            neg ^= ch == "-"
            continue
        depth += (ch == "(") - (ch == ")")
        cur += ch
    out.append((neg, cur))
    if depth != 0:
        raise PolyParseError(f"unbalanced parens in {text!r}")
    return out


def _split_coeffs(inner: str) -> list[str]:
    toks, depth, cur = [], 0, ""
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            toks.append(cur)
            cur = ""
        else:
            cur += ch
    toks.append(cur)
    return toks


def _parse_coeff(ctx: Field, tok: str, text: str) -> int:
    try:
        if tok.startswith("(") and tok.endswith(")"):
            return ctx.from_coeffs([int(t) for t in tok[1:-1].split(",")])
        return ctx.scalar(int(tok))
    except (ValueError, ContextMismatch):
        raise PolyParseError(f"bad coefficient {tok!r} in {text!r}") from None
