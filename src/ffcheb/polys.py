"""Polynomials over F_q: arithmetic, factorization, and residue fields.

Coefficient sequences are tuples of int-encoded field elements, lowest degree
first, with no trailing zeros; the empty tuple is the zero polynomial.  The
module-level functions work on bare tuples (the hot path for interval
enumeration); the Poly class wraps them for the public API.

One distinct-degree loop, `_ddf`, serves three jobs: the Rabin test
(`is_irreducible_raw` reads its first part), factoring, and the cycle type of
a splitting cover's F(t, Y), which needs only the degrees of the factors.
Factorization is squarefree decomposition (with p-th-power detection when the
derivative vanishes), then `_ddf`, then randomized equal-degree splitting of
each part by `_edf`, the one splitter in the package.  The randomized stage
is seeded from (run seed, polynomial), so factoring is a pure function and
parallel sweeps are partition-independent.

Neither loop raises to a q-th power by square-and-multiply.  The p-th power
map is additive on F_q[T]/(m), so `_frobenius` tabulates X_i = T^(p*i) mod m
once and sends h to sum h_i^p * X_i; h^q, q = p^k, is that map applied k
times.  `_ddf` takes T^(q^d) mod m that way, and `_edf` the trace
a + a^q + ... + a^(q^(d-1)), a constant of F_q modulo each prime, which it
reads by its trace to F_2 (p = 2), by one square root (two primes) or by its
power (q - 1)/2 (three or more).  `ppowmod` stays for that power, whose
exponent is below q.

`_factor_rough` factors a polynomial known to have no prime factor of degree
<= s, such as a cofactor the interval sieve leaves, mostly without factor_raw:
the parity of its number of primes from its discriminant, and `_edf` alone
for a product of two primes of one degree.
"""

from __future__ import annotations

import itertools
import random
import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import ffield
from .errors import (
    ConstantPolynomial,
    ContextMismatch,
    DegreeTooLarge,
    DivisionByZero,
    DomainError,
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


def ppow(F: Field, a: Coeffs, e: int) -> Coeffs:
    """a^e in F_q[T], e >= 0."""
    return _square_multiply(lambda x, y: pmul(F, x, y), a, e) if e else (1,)


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
    return pnorm(_square_multiply(_mulmod(F, mod), list(base) + [0] * (d - len(base)), e))


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
# degree-d polynomial given by its reduction rows; `_mulmod` picks one by field.


def _mulmod(F: Field, m: Coeffs):
    """The product of two residues modulo m, deg m = d >= 1, as a function
    of two length-d lists: the F_p kernel for k == 1, else the F_{p^k} one."""
    rows, d = _reduction_rows(F, m), pdeg(m)
    return _mulmod_prime(F.p, rows, d) if F.k == 1 else _mulmod_ext(F, rows, d)


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


def _frobenius(F: Field, m: Coeffs):
    """The p-th power map sigma_p modulo m, deg m = d >= 1, as
    sigma(h, times) = h^(p^times) mod m for h of degree < d; the result is a
    list of length d.

    sigma_p is additive and sends c*T^i to c^p * T^(p*i), so
    h^p = sum_i frob(h_i)*X_i with X_i = T^(p*i) mod m, where frob(c) = c^p is
    one log-table lookup and the identity on F_p.  X_1 costs one
    square-and-multiply with exponent p and each further X_i one product by
    X_1; they are built as the inputs first reach them, so the image of T
    needs X_1 alone.  For q = p^k, h^q is sigma_p applied k times (the
    Frobenius maps of von zur Gathen and Shoup, Comput. Complexity 1992)."""
    d = pdeg(m)
    p = F.p
    xs = [[1] + [0] * (d - 1)]
    mulmod = None

    def reach(n: int) -> None:
        nonlocal mulmod
        if mulmod is None:
            mulmod = _mulmod(F, m)
            xs.append(_square_multiply(mulmod, [0, 1] + [0] * (d - 2), p))
        while len(xs) < n:
            xs.append(mulmod(xs[-1], xs[1]))

    if F.k == 1:
        def sigma(h, times):
            for _ in range(times):
                if len(h) > len(xs):
                    reach(len(h))
                out = [0] * d
                for c, x in zip(h, xs):
                    if c:
                        out = [o + c * v for o, v in zip(out, x)]
                h = [o % p for o in out]
            return h
    else:
        exp, log, add = F._exp, F._log, F.add
        qm1 = F.q - 1

        def sigma(h, times):
            for _ in range(times):
                if len(h) > len(xs):
                    reach(len(h))
                out = [0] * d
                for c, x in zip(h, xs):
                    if c:
                        lc = log[c] * p % qm1
                        for j, v in enumerate(x):
                            if v:
                                out[j] = add(out[j], exp[lc + log[v]])
                h = out
            return h

    return sigma


def pderiv(F: Field, a: Coeffs) -> Coeffs:
    mul = F.mul
    return pnorm(mul(c, F.scalar(i)) for i, c in enumerate(a) if i)


def peval(F: Field, a: Coeffs, x: int) -> int:
    acc = 0
    mul, add = F.mul, F.add
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def _taylor(F: Field, f: Coeffs, b: int, count: int) -> list[int]:
    """The first `count` Taylor coefficients of f at b, the a_k of
    f = sum a_k (T - b)^k: one Horner pass carrying `count` accumulators."""
    acc = [0] * count
    mul, add = F.mul, F.add
    for c in reversed(f):
        for k in range(count - 1, 0, -1):
            acc[k] = add(mul(acc[k], b), acc[k - 1])
        acc[0] = add(mul(acc[0], b), c)
    return acc


def _log_derivative(F: Field, a: list[int], count: int) -> list[int]:
    """The first `count` coefficients g_j of (T - b)^j in f'/f, from the
    Taylor coefficients a_0 .. a_count of f at b, a_0 != 0: f' has
    coefficient (j + 1) a_(j+1), and f g = f' gives g_j = ((j + 1) a_(j+1) -
    sum_(i=1..j) a_i g_(j-i)) / a_0, with one inverse."""
    mul, sub = F.mul, F.sub
    inv, g = F.inv(a[0]), []
    for j in range(count):
        x = mul(F.scalar(j + 1), a[j + 1])
        for i in range(1, j + 1):
            x = sub(x, mul(a[i], g[j - i]))
        g.append(mul(x, inv))
    return g


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
    """Split a squarefree product of r >= 1 primes P_i of degree d into them
    (Cantor-Zassenhaus, Math. Comp. 1981).  For random a, the trace
    t = a + a^q + ... + a^(q^(d-1)) mod g is a constant c_i of F_q modulo
    each P_i, with the c_i independent and uniform, and h = gcd(., g) takes
    the P_i whose c_i passes one test:

    - p = 2: h = gcd(t + t^2 + ... + t^(2^(k-1)), g), the c_i of trace 1 to
      F_2 (this is the trace of a from degree k*d to F_2);
    - p odd, deg g = 2d: t^2 = sigma*t - pi mod g with sigma = c1 + c2 and
      pi = c1*c2, so sigma is read off any coefficient of t^2 mod g beyond
      the constant one, and pi then off the constant one;
      c1 = sigma/2 + sqrt(sigma^2/4 - pi), one square root from the log
      table, and h = gcd(t - c1, g) = P1;
    - p odd, r >= 3: h = gcd(t^((q - 1)/2) - 1, g), the c_i that are
      nonzero squares.

    The conjugates a^(q^j) come from the p-th power map modulo g
    (`_frobenius`).  A draw splits g unless every c_i gives the same
    answer, which has probability at most 1/2 (1/q for a pair: c1 = c2,
    where t is a constant and is drawn again), so 64 draws that all fail
    (probability at most 2^-64) mean g is not such a product: that raises
    InvariantViolated, as does a degree that d does not divide."""
    if pdeg(g) % d:
        raise InvariantViolated(
            f"a part of degree {pdeg(g)} is not a product of degree-{d} primes"
        )
    if pdeg(g) == d:
        return [g]
    frob = _frobenius(F, g)
    pair = F.p != 2 and pdeg(g) == 2 * d
    log, exp = F._log, F._exp
    for _ in range(64):
        t = c = _rand_poly(F, pdeg(g) - 1, rng)
        for _ in range(d - 1):
            c = frob(c, F.k)
            t = padd(F, t, c)
        if pdeg(t) < 1:
            continue
        if F.p == 2:
            u = c = t
            for _ in range(F.k - 1):
                c = frob(c, 1)
                u = padd(F, u, c)
            h = pgcd(F, u, g)
        elif pair:
            t2 = pmod(F, pmul(F, t, t), g) + (0,) * len(t)
            i = next(i for i in range(1, len(t)) if t[i])
            half = F.div(F.div(t2[i], t[i]), 2)  # sigma / 2
            pi = F.sub(F.mul(F.add(half, half), t[0]), t2[0])
            rho = F.sub(F.mul(half, half), pi)  # ((c1 - c2) / 2)^2
            h = pgcd(F, psub(F, t, (F.add(half, exp[log[rho] // 2]),)), g)
        else:
            h = pgcd(F, psub(F, ppowmod(F, t, (F.q - 1) // 2, g), (1,)), g)
        if 0 < pdeg(h) < pdeg(g):
            return _edf(F, h, d, rng) + _edf(F, pdiv(F, g, h), d, rng)
    raise InvariantViolated(
        f"64 draws left a part of degree {pdeg(g)} unsplit into degree-{d} primes"
    )


def _ddf(F: Field, m: Coeffs) -> Iterator[tuple[int, Coeffs]]:
    """Distinct-degree split of m: (d, gcd(T^(q^d) - T, m)) for ascending d
    where that is not 1, dividing it out of m each time, then (deg m, m) for
    what is left once deg m < 2(d + 1).  For a squarefree m the parts are
    the products of its primes of each degree and what is left is a prime.
    Any m of degree >= 1 yields a first part; its d is the smallest degree
    of a prime factor of m, and d = deg m only when m is irreducible.
    Each step raises h = T^(q^(d-1)) to the q-th power as the p-th power map
    modulo m applied k times, q = p^k (`_frobenius`); the map is tabulated
    again, lazily, modulo what is left once a part is divided out."""
    t: Coeffs = (0, 1)
    h = pmod(F, t, m)
    frob = None
    d = 0
    while pdeg(m) >= 2 * (d + 1):
        d += 1
        if frob is None:
            frob = _frobenius(F, m)
        h = pnorm(frob(h, F.k))
        g = pgcd(F, psub(F, h, t), m)
        if pdeg(g) > 0:
            yield d, g
            m = pdiv(F, m, g)
            h = pmod(F, h, m)
            frob = None
    if pdeg(m) > 0:
        yield pdeg(m), m


def _split_squarefree(F: Field, m: Coeffs, rng: random.Random) -> list[Coeffs]:
    """Equal-degree splitting of each distinct-degree part of a squarefree
    monic m."""
    return [P for d, g in _ddf(F, m) for P in _edf(F, g, d, rng)]


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


def _factor_rough(F: Field, f: Coeffs, s: int, seed: int) -> tuple[tuple[Coeffs, int], ...]:
    """factor_raw(F, f, seed)[1] for a monic f of degree c >= 1 with no prime
    factor of degree <= s, such as a cofactor the interval sieve leaves: f
    has at most c // (s + 1) primes, so it is prime when c <= 2s + 1.  Up to
    c = 3s + 2 it has at most two, and for q odd and disc f != 0 their number
    r has the parity Stickelberger's theorem gives (R. G. Swan, Pacific J.
    Math. 12, 1962): r = c mod 2 exactly when disc f is a square, that is
    when its log is even, so f is prime exactly when log(disc f) + c is odd.
    A nonprime f of degree 2s + 2 is then two distinct primes of degree
    s + 1, which `_edf` separates by one square root, with no squarefree or
    distinct-degree pass.  disc f = 0 is tested first, since log[0] reads 0;
    what is left (p = 2, disc f = 0, c > 3s + 2, or two primes of unequal
    degree) goes to factor_raw."""
    c = pdeg(f)
    if c <= 2 * s + 1:
        return ((f, 1),)
    if F.p != 2 and c <= 3 * s + 2:
        disc = discriminant_raw(F, f)
        if disc:
            if (F._log[disc] + c) % 2:
                return ((f, 1),)
            if c == 2 * s + 2:
                primes = _edf(F, f, s + 1, _factor_seed(F, f, seed))
                return tuple((P, 1) for P in sorted(primes, key=canonical_key))
    return factor_raw(F, f, seed)[1]


def is_irreducible_raw(F: Field, cs: Coeffs) -> bool:
    """True iff cs has no prime factor of degree <= deg/2: the first part
    `_ddf` yields has d = deg cs (read lazily, so a small factor exits early)."""
    n = pdeg(cs)
    if n < 1:
        raise ConstantPolynomial("irreducibility is undefined for constants")
    return next(_ddf(F, cs))[0] == n


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

    Each degree is sieved by the primes of degree d <= n/2 (`_coprime_monics`;
    none for n = 1).  Cached on the field context, so the interval sieve
    and every cover over the same field share the lists.
    """
    cache = getattr(ctx, "_prime_cache", None)
    if cache is None:
        cache = ctx._prime_cache = {}
    if n in cache:
        return cache[n]
    if n < 1:
        raise ConstantPolynomial("primes have degree >= 1")
    size = ctx.q**n
    if size > ENUMERATION_LIMIT:
        raise TooLarge(f"listing the primes of degree {n} sieves {size} monics")
    small = (Q for d in range(1, n // 2 + 1) for Q in primes_of_degree(ctx, d))
    out = list(_coprime_monics(ctx, n, small))
    cache[n] = out
    return out


def _coprime_monics(ctx: Field, n: int, primes: Iterable[Coeffs]) -> Iterator[Coeffs]:
    """The monics of degree n that no prime in `primes` divides, in the order
    of `enumerate_monic_raw`.  The multiples of a prime Q of degree d <= n
    among them are the coset h = -T^n mod Q of I(T^n, n - 1), n - d digits
    free, and the primes of one degree mark theirs together."""
    keep = bytearray(b"\x01") * ctx.q**n
    by_degree: dict[int, list[Coeffs]] = {}
    for Q in primes:
        by_degree.setdefault(len(Q) - 1, []).append(Q)
    for d, Qs in by_degree.items():
        mods = [list(c) for c in zip(*Qs)][:d]
        r = _neg_mod_columns(ctx, (0,) * n + (1,), mods)  # -T^n mod Q
        for run in _coset_columns(ctx, r, mods, n):
            for i in run:
                keep[i] = 0
    return itertools.compress(enumerate_monic_raw(ctx, n), keep)


def enumerate_monic_raw(F: Field, n: int) -> Iterator[Coeffs]:
    """All monic coefficient tuples of degree n, lowest coefficient varying
    fastest (ascending base-q encoding of the lower coefficients)."""
    for top_down in itertools.product(range(F.q), repeat=n):
        yield top_down[::-1] + (1,)


# ---------------------------------------------------------------------------
# affine cosets
#
# A polynomial h of degree < t has the index sum h_j q^j over its digits h_j
# (field encodings), lowest first, so the q^t of them are numbered 0..q^t-1.
# "M divides f + h" is the affine condition h = r mod M, r = -f mod M.  The
# interval sieve and the prime sieve mark such cosets, for all the moduli of
# one degree at once (`_coset_columns`).


def _index(cs, q: int) -> int:
    """Index of the polynomial with coefficients cs."""
    i = 0
    for c in reversed(cs):
        i = i * q + c
    return i


def _coset_columns(F: Field, r: list[list[int]], mods: list[list[int]], t: int) -> Iterator[list]:
    """The indices of the h of degree < t with h = r_i mod M_i, for monic
    moduli M_i of one degree D at once, column by column: r[k] holds
    coefficient k of every r_i (k < D, each r_i reduced mod its M_i) and
    mods[k] that of every M_i, which only D < t reads.  Each list yielded is
    a run of columns laid end to end, column u holding every modulus's u-th
    smallest solution; the runs ascend.

    For D <= t the solutions are h = T^D u + l over the u of degree < t - D,
    so index(h) = q^D index(u) + index(l), with l = r_i - (T^D u mod M_i)
    linear in u: digit j of u adds the row -(T^(D+j) mod M_i).  The l of the
    low and of the high half of u's digits are spanned apart, and each high
    part is joined to every low part in one run, so memory stays near
    q^((t-D)/2) per modulus.  For D > t there is at most one, r_i itself: the
    one column holds its index, or None where r_i has a nonzero digit from t
    up (where the index is q^t or more)."""
    q, D, N = F.q, len(r), len(r[0])
    add, mul = F.add, F.mul
    rows = [_neg_mod_columns(F, (0,) * (D + j) + (1,), mods) for j in range(t - D)]

    def span(ls, part):
        """l per u over the digits of u whose rows are `part`, u-major, then
        modulus."""
        for row in part:
            cnt = len(ls[0]) // N  # the u spanned so far
            ls = [
                [add(x, y) for c in range(q) for x, y in zip(l, [mul(c, z) for z in rc] * cnt)]
                for l, rc in zip(ls, row)
            ]
        return ls

    h = (len(rows) + 1) // 2
    w = q**h
    low = span(r, rows[:h])
    ulow = [u for u in range(w) for _ in range(N)]
    if h == len(rows):
        for l in reversed(low):
            ulow = [x * q + y for x, y in zip(ulow, l)]
        size = q**t
        yield ulow if D <= t else [x if x < size else None for x in ulow]
        return
    high = span([[0] * N] * D, rows[h:])
    for v in range(q ** (len(rows) - h)):
        hv = [col[v * N:(v + 1) * N] * w for col in high]
        off = v * w
        idx = [(x + off) * q + add(a, b) for x, a, b in zip(ulow, low[-1], hv[-1])]
        for l, hl in zip(low[-2::-1], hv[-2::-1]):
            idx = [x * q + add(a, b) for x, a, b in zip(idx, l, hl)]
        yield idx


def _neg_mod_columns(F: Field, a: Coeffs, mods: list[list[int]]) -> list[list[int]]:
    """-a mod M for a monic a and many monic moduli M of one degree d at
    once, column by column: mods[k] holds coefficient k of every M (k < d),
    and the remainders come back as d columns.  Where deg a >= d, the first
    step adds M to -a, which cancels its top, with no multiplication."""
    d, N = len(mods), len(mods[0])
    mul, neg, sub = F.mul, F.neg, F.sub
    out = [[neg(c)] * N for c in a[:-1]] + [[0] * N for _ in range(d + 1 - len(a))]
    if len(a) <= d:
        out[len(a) - 1] = [neg(1)] * N
        return out
    for k, col in enumerate(mods, len(a) - 1 - d):
        out[k] = [sub(y, a[k]) for y in col] if a[k] else list(col)
    for i in range(len(a) - 2, d - 1, -1):
        top = out[i]  # quotient coefficient i - d, since each modulus is monic
        for k, col in enumerate(mods, i - d):
            out[k] = [sub(x, mul(c, y)) for x, c, y in zip(out[k], top, col)]
    return out[:d]


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
        if e < 0:
            raise DomainError(f"a polynomial has no power {e}")
        return Poly._raw(self.ctx, ppow(self.ctx, self.coeffs, e))

    def gcd(self, other) -> "Poly":
        return Poly._raw(self.ctx, pgcd(self.ctx, self.coeffs, self._other(other)))

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
        """gcd(f, f') = 1: the gcd route against which
        `test_discriminant_vanishes_iff_not_squarefree` checks
        `discriminant_raw`."""
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
# roots of one prime.  F_q^* acts on the orbits by x -> c x, and c x is a
# root of c^d P(Y / c) when x is a root of P.  One walk over F_{q^d}, one
# orbit per class of that action, so finds the smallest root of every prime
# of degree d: the orbit's prime by multiplying out its roots, the rest of
# the class by scaling that prime's coefficients.  The root table of degree d
# holds the root at the index (as `_index` numbers them) of the prime's lower
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
    m = n // (q - 1)
    exp, log, sub, neg = big._exp, big._log, big.sub, big.neg
    # c = g^(m t), t < q - 1, runs over F_q^* inside F_{q^d}; c^(d - i) for
    # i < d, read in the base field, scales coefficient i
    scalars = exp[:n:m]
    if to_base is not None:
        scalars = [to_base[c] for c in scalars]
    scales = [[base.pow(c, d - i) for i in range(d)] for c in scalars]
    mul = base.mul
    roots = array("i", [-1]) * big.q
    if d == 1:
        roots[0] = 0  # T, the one prime with root 0
    seen = bytearray(m)
    for start in range(m):
        if seen[start]:
            continue
        # the orbit by discrete logs: x^q has log q * log x mod q^d - 1; the
        # logs of its scalar multiples c x are those plus multiples of m
        orbit = [start]
        j = start * q % n
        while j != start:
            orbit.append(j)
            j = j * q % n
        for j in orbit:
            seen[j % m] = 1
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
        for shift, scale in zip(range(0, n, m), scales):
            cs = [mul(s, ci) for s, ci in zip(scale, c)]
            roots[_index(cs, q)] = min([exp[j + shift] for j in orbit])
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
        if base.q**dd > ffield.MAX_Q:
            raise DegreeTooLarge(
                f"a prime of degree {dd} over F_{base.q} has a residue field of "
                f"{base.q}^{dd} elements, above the configured bound {ffield.MAX_Q}"
            )
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
