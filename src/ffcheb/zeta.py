"""Norm-counting identities on the full interval: prime tallies, psi, the
Euler product for the norm indicator, and the rational Dedekind zeta.

Exact prime tallies by Frobenius class are needed far past what direct
enumeration can reach (degree 8 over F_25 has ~10^9 primes).  For abelian
covers we exploit rationality.  Let Z_n be the histogram of Frobenius over
the monics of degree n prime to the ramified primes, and
Lambda_n = n [u^n] log Z, where Z(u) = sum Z_n u^n is the zeta system

    Z(u) = prod over unramified finite P of (1 - [Frob_P] u^{deg P})^{-1}.

Both are integer vectors on the group A, and Newton's identity

    n Z_n = sum_{k=1..n} Lambda_k * Z_{n-k}      (* convolution on A)

turns one into the other.  Every nontrivial character component of Z is a
polynomial of degree below n0, the degree of the lcm of the characters'
finite conductors plus any wild excess at infinity (Rosen, GTM 210, ch. 4),
and the trivial one is prod_{ram}(1 - u^{deg P}) / (1 - qu).  So below n0
Z_n is swept, the Artin symbol of every monic of degree n prime to the
ramified primes.  Those monics are what the coset sieve that lists the
primes (`polys._coprime_monics`) leaves when it runs on the ramified primes
of degree <= n, so no monic that meets one is classified.  From n0 on Z_n
is N_n / |A| on every element, where N_n, the number of those monics, is
[u^n] of the trivial component.  The tallies at every degree are checked
for integrality, nonnegativity, and the class-sum identity against the
prime polynomial theorem; a failure means the conductor degree (hence the
cover model) is wrong and raises DegreeBoundViolated.

Means over every monic of degree n (`full_degree_mean`, `r_full_mean`) are
read from the interval sieve over I(T^n, n - 1); factoring each monic is
the test oracle (`tests/oracles.py`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .covers import Cover
from .errors import (
    DegreeBoundViolated,
    DomainError,
    InvariantViolated,
    NotAbelian,
    TooLarge,
)
from .factypes import EMPTY_TYPE, ArithFnSpec, R, check_class, evaluate
from .intervals import IntervalSpec, Report, cover_hash, sieved_mean
from .polys import ENUMERATION_LIMIT, Poly, _coprime_monics, count_primes


# ---------------------------------------------------------------------------
# truncated power series over the rationals


class Series:
    """Power series mod u^(N+1) over Fractions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    def exp(self) -> "Series":
        """exp of a series with vanishing constant term."""
        n = len(self.coeffs) - 1
        if self.coeffs[0] != 0:
            raise InvariantViolated("exp needs a series with vanishing constant term")
        out = [Fraction(1)] + [Fraction(0)] * n
        for m in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, m + 1):
                acc += self.coeffs[j] * j * out[m - j]
            out[m] = acc / m
        return Series(out)

    def eval_at(self, x: Fraction):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Series({self.coeffs[: min(6, len(self.coeffs))]}...)"


# ---------------------------------------------------------------------------
# abelian Frobenius tallies with rationality-based extension


class AbelianFrobeniusData:
    """Exact per-class prime tallies for an abelian cover, any degree.

    `Z[n]` and `L[n]` = n [u^n] log Z are integer lists indexed by group
    element (see the module docstring).  Z_n is swept below the conductor
    degree n0 (`Cover.uniform_degree`) and uniform from n0 on; L_n follows
    from Z, and the degree-n tallies are what L_n leaves past the primes of
    degree j | n, j < n, divided by n.  `J` = n0 - 1 is the last swept
    degree, and `tallies[1..J]` are filled on creation.
    """

    def __init__(self, spec: Cover):
        if not spec.abelian:
            raise NotAbelian("exact global tallies need a cyclic or product cover")
        G = spec.group
        if any(len(c) != 1 for c in G.classes):
            raise InvariantViolated("cover group must be abelian")
        self.spec = spec
        self.group = G
        self.ctx = spec.ctx
        self.ram: list[tuple[int, int, int, int]] = []  # (deg, e, f, g) per prime
        for P in spec.ramified_primes():
            sd = spec.splitting_data(P)
            self.ram.append((P.degree, sd.e, sd.f, sd.g))
        n0 = spec.uniform_degree()
        sweep = sum(self.ctx.q**j for j in range(n0))
        if sweep > ENUMERATION_LIMIT:
            raise TooLarge(f"the Frobenius sweep below degree {n0} covers {sweep} monics")
        self.J = n0 - 1
        self.Z: list[list[int]] = [[1] + [0] * (G.n - 1)]  # Z_0: the monic 1
        self.L: list[list[int]] = [[]]  # L_0 is not used
        # abelian: class ci is the singleton (ci,), so a row is indexed by element
        self.tallies: dict[int, list[int]] = {}
        self.ensure(self.J)

    def _swept(self, n: int) -> list[int]:
        """Z_n below n0: the Artin symbols of the monics of degree n that no
        ramified prime of degree <= n divides."""
        row = [0] * self.group.n
        art = self.spec.artin_symbol
        ram = [P for P in self.spec._ram if len(P) - 1 <= n]
        for f in _coprime_monics(self.ctx, n, ram):
            row[art(f)] += 1
        return row

    def _convolve(self, n: int, kmax: int) -> list[int]:
        """sum_{k=1..kmax} L_k * Z_{n-k}, convolved through the group table."""
        table = self.group.table
        out = [0] * self.group.n
        for k in range(1, kmax + 1):
            Zk = self.Z[n - k]
            for a, x in enumerate(self.L[k]):
                if x:
                    row = table[a]
                    for b, y in enumerate(Zk):
                        if y:
                            out[row[b]] += x * y
        return out

    def ensure(self, N: int) -> None:
        """Extend Z, L and the tallies to all degrees <= N, from the last
        degree held.  Each degree's tallies must be nonnegative integers
        that add up, with the ramified primes, to the number of primes."""
        G, q = self.group, self.ctx.q
        ram_by_deg = Counter(d for d, _, _, _ in self.ram)
        top = sum(d for d, _, _, _ in self.ram)  # deg prod_ram (1 - u^deg P) <= n0
        for n in range(len(self.Z), N + 1):
            if n <= self.J:
                Zn = self._swept(n)
            else:
                # N_n / |G| on every element, where N_n = sum(Z_{n-1}) q plus
                # [u^n] prod_ram (1 - u^deg P): its top coefficient or 0
                N_n = q * sum(self.Z[n - 1]) + (-1) ** len(self.ram) * (n == top)
                z, r = divmod(N_n, G.n)
                if r:
                    raise DegreeBoundViolated(
                        f"{N_n} monics of degree {n} do not spread evenly over "
                        f"{G.n} elements; the conductor degree {self.J + 1} is wrong"
                    )
                Zn = [z] * G.n
            Ln = [n * z - c for z, c in zip(Zn, self._convolve(n, n - 1))]
            rest = list(Ln)  # less the primes of degree j | n, j < n
            for j in range(1, n):
                if n % j == 0:
                    for a, cnt in enumerate(self.tallies[j]):
                        rest[G.power(a, n // j)] -= j * cnt
            if any(v % n or v < 0 for v in rest):
                raise DegreeBoundViolated(
                    f"recurrence produced a non-integral or negative tally at degree {n}"
                )
            row = [v // n for v in rest]
            if sum(row) + ram_by_deg[n] != count_primes(self.ctx, n):
                raise DegreeBoundViolated(
                    f"tallies at degree {n} do not add up to the prime count"
                )
            self.Z.append(Zn)
            self.L.append(Ln)
            self.tallies[n] = row


def _ldata(spec: Cover) -> AbelianFrobeniusData:
    data = getattr(spec, "_ldata", None)
    if data is None:
        data = spec._ldata = AbelianFrobeniusData(spec)
    return data


def count_prime_frobenius_global(spec: Cover, class_index: int, n: int) -> int:
    """pi_{C;q}(n; E): degree-n primes with Frobenius class C (unramified)."""
    check_class(spec.group, class_index)
    if n < 1:
        raise DomainError(f"no primes of degree {n}")
    if spec.abelian:
        data = _ldata(spec)
        data.ensure(n)
        row = data.tallies[n]
        return sum(row[x] for x in spec.group.classes[class_index])
    # splitting covers: direct enumeration at desk scale (the prime list
    # raises TooLarge above ENUMERATION_LIMIT)
    return spec.class_counts(n)[class_index]


# ---------------------------------------------------------------------------
# prime tallies, psi, and the norm-indicator Euler product


@dataclass
class PrimeTally:
    """pi_{E;f}(d) split into unramified and ramified parts.

    `unramified` maps (d, f) to a count; `ramified` maps (d, e, f, g) to a
    count.  psi and the Euler products consume both parts.
    """

    unramified: dict[tuple[int, int], int]
    ramified: dict[tuple[int, int, int, int], int]
    max_degree: int


def prime_tallies(spec: Cover, N: int) -> PrimeTally:
    if N < 0:
        raise DomainError(f"no prime tallies up to degree {N}")
    data = _ldata(spec)
    data.ensure(N)
    G = spec.group
    unram: dict[tuple[int, int], int] = {}
    for d in range(1, N + 1):
        for a, cnt in enumerate(data.tallies[d]):
            if cnt:
                f = G.element_orders[a]
                key = (d, f)
                unram[key] = unram.get(key, 0) + cnt
    ram: dict[tuple[int, int, int, int], int] = {}
    for d, e, f, g in data.ram:
        if d <= N:
            key = (d, e, f, g)
            ram[key] = ram.get(key, 0) + 1
    return PrimeTally(unram, ram, N)


def _euler_sums(spec: Cover, N: int, above: bool) -> list[int]:
    """[0, s(1), ..., s(N)] from one prime tally, where s(n) u^n / n is the
    u^n term of the log of an Euler product: a prime of degree d and residue
    degree f adds d*f to s(n) at every multiple n of d*f, once, or, when
    `above`, once per prime of E above it (g of them, |G|/f unramified)."""
    tally = prime_tallies(spec, N)
    size = spec.group.n
    sums = [0] * (N + 1)
    weights = [
        (d * f, cnt * (size // f if above else 1)) for (d, f), cnt in tally.unramified.items()
    ]
    weights += [
        (d * f, cnt * (g if above else 1)) for (d, _, f, g), cnt in tally.ramified.items()
    ]
    for j, cnt in weights:
        for n in range(j, N + 1, j):
            sums[n] += j * cnt
    return sums


def _exp_series(sums: list) -> Series:
    """exp(sum over n >= 1 of sums[n] u^n / n) mod u^len(sums)."""
    return Series([Fraction(0)] + [Fraction(sums[n]) / n for n in range(1, len(sums))]).exp()


def psi_E(spec: Cover, n: int) -> int:
    """psi_E(n) = sum over d*f | n of d*f*pi_{E;f}(d), all primes included."""
    if n < 1:
        raise DomainError(f"psi_E is defined for degrees n >= 1, not {n}")
    return _euler_sums(spec, n, False)[n]


def b_series(spec: Cover, N: int) -> Series:
    """exp(sum psi_E(n) u^n / n) mod u^(N+1): sum of b over monics of each
    degree, as exact rationals (they are integers)."""
    return _exp_series(_euler_sums(spec, N, False))


def b_full_mean(spec: Cover, n: int) -> Fraction:
    """Mean of b over the monics of degree n, from the Euler product."""
    if n < 0:
        raise DomainError(f"no monics of degree {n}")
    ser = b_series(spec, n)
    return ser.coeffs[n] / Fraction(spec.ctx.q**n)


def K_E(spec: Cover, N: int | None = None) -> tuple[Fraction, float]:
    """Truncation of a(1/q) for a(u) = exp(sum e_n u^n / n),
    e_n = psi_E(n) - q^n/|G|; returns (value, tail bound)."""
    genus = spec.genus()
    size = spec.group.n
    if N is None:
        N = 2 * genus + size + 4
    if N < 2 * genus + size:
        raise TooLarge(f"truncation depth {N} below the floor {2 * genus + size}")
    q = spec.ctx.q
    psis = _euler_sums(spec, N, False)
    a = _exp_series([psi - Fraction(q**n, size) for n, psi in enumerate(psis)])
    value = a.eval_at(Fraction(1, q))
    tail = _k_tail_bound(q, genus, size, N)
    return value, tail


def _k_tail_bound(q: int, genus: int, size: int, N: int) -> float:
    """Geometric tail from |e_n| <= 4*max(genus,|G|)*q^(n/2): the exp-majorant
    (1 - sqrt(q) u)^(-4M) bounds |a_n| by binom(n + 4M - 1, n) q^(n/2)."""
    M = 4 * max(genus, size)
    first = math.comb(N + M, N + 1) * q ** (-(N + 1) / 2)
    ratio = (N + 1 + M) / (N + 2) * q**-0.5
    if ratio >= 1:
        return float("inf")
    return first / (1 - ratio)


# ---------------------------------------------------------------------------
# the Dedekind zeta of O_E and the exact mean of r


def dedekind_from_tallies(spec: Cover, N: int) -> Series:
    """The same series from prime tallies via the Euler product: each P below
    g primes of E, each of degree f*deg P."""
    return _exp_series(_euler_sums(spec, N, True))


def ptilde(spec: Cover, N: int | None = None) -> list[int]:
    """Numerator of Z_{O_E}(u) = ptilde(u)/(1 - qu): integer coefficients,
    degree exactly bounded by 2*genus + sum of infinite inertia degrees - 1.
    Z is the Euler product over the prime tallies (`dedekind_from_tallies`);
    `r_full_check` compares ptilde(1/q) with the interval sieve's mean of r."""
    genus = spec.genus()
    inf = spec.infinity_data()
    sum_f_inf = inf.f * inf.g  # g primes above infinity, each inertia degree f
    bound = 2 * genus + sum_f_inf - 1
    if N is None:
        N = bound + 3
    if N < bound + 1:
        raise TooLarge(f"need N >= {bound + 1} to certify the degree bound")
    q = spec.ctx.q
    Z = dedekind_from_tallies(spec, N)
    pt = [Z.coeffs[0]]
    for n in range(1, N + 1):
        pt.append(Z.coeffs[n] - q * Z.coeffs[n - 1])
    out = []
    for n, c in enumerate(pt):
        if c.denominator != 1:
            raise DegreeBoundViolated(f"ptilde coefficient {n} is not an integer: {c}")
        if n > bound and c != 0:
            raise DegreeBoundViolated(
                f"ptilde has a nonzero coefficient at degree {n} > {bound}; "
                f"the cover model is inconsistent"
            )
        out.append(int(c))
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def curve_zeta_numerator(spec: Cover) -> list[int]:
    """P_E(u): divide the infinite-place cyclotomic factor out of ptilde.

    ptilde = P_E * [prod_{i=1..g_inf}(1 - u^{f_inf})] / (1 - u); the division
    must be exact, else the cover model is inconsistent.  It runs over Q,
    and the quotient is integral because the divisor has constant term 1."""
    pt = ptilde(spec)
    inf = spec.infinity_data()
    cyc = [Fraction(1)]
    for _ in range(inf.g):
        cyc = _pmul(cyc, [1] + [0] * (inf.f - 1) + [-1])
    den, rem = _pdivmod(cyc, [1, -1])
    if rem:
        raise DegreeBoundViolated("infinite-place factor is not divisible by 1 - u")
    if den[0] != 1:
        raise DegreeBoundViolated("infinite-place factor is not monic at u^0")
    if len(pt) < len(den):
        raise DegreeBoundViolated("ptilde has lower degree than the infinite-place factor")
    out, rem = _pdivmod(pt, den)
    if rem:
        raise DegreeBoundViolated("infinite-place factor does not divide ptilde")
    return [int(c) for c in out]


def full_degree_mean(spec: Cover, fn: ArithFnSpec, n: int, seed: int = 0) -> Fraction:
    """Exact mean of fn over all monics of degree n, from the interval
    sieve's tally of I(T^n, n - 1).  Splitting covers are refused: the sieve
    leaves out their monics that meet a ramified prime."""
    if n < 0:
        raise DomainError(f"no monics of degree {n}")
    if not spec.abelian:
        raise DomainError("a full-degree mean needs (e, f, g) at every prime")
    if n == 0:
        return evaluate(fn, EMPTY_TYPE, spec.group)  # the monic 1
    return sieved_mean(spec, fn, IntervalSpec(Poly.x(spec.ctx) ** n, n - 1), seed)[0]


def r_full_mean(spec: Cover, n: int, seed: int = 0) -> Fraction:
    """Exact mean of r over all monics of degree n, from the interval sieve."""
    return full_degree_mean(spec, R(), n, seed)


def r_full_check(spec: Cover, n: int, seed: int = 0):
    """The rationality identity as a report: for n past deg(ptilde) the mean
    of r over all degree-n monics equals ptilde(1/q) exactly, and the value
    sits within 4/sqrt(q) of 1.  The mean is the interval sieve's and ptilde
    comes from the prime tallies, so the two sides are independent routes."""
    mean = r_full_mean(spec, n, seed)
    q = spec.ctx.q
    pt = ptilde(spec)
    value = sum(Fraction(c, q**i) for i, c in enumerate(pt))
    exact_regime = n >= len(pt) - 1
    if exact_regime and mean != value:
        raise DegreeBoundViolated(
            f"<r> over degree-{n} monics is {mean}, ptilde(1/q) is {value}"
        )
    in_band = (value - 1) ** 2 <= Fraction(16, q)
    return Report(
        command="r-full-check",
        seed=seed,
        threads=1,
        cover=spec.summary(),
        cover_hash=cover_hash(spec),
        interval={"f0": f"[full degree {n}]", "n": n, "m": n - 1},
        fn_id="R",
        empirical_mean=mean,
        predicted_mean=value,
        excluded_fraction=Fraction(0),
        regime={
            "exact_identity_regime": exact_regime,
            "value_within_4_over_sqrt_q": in_band,
        },
        extra=[("ptilde", "[" + ",".join(map(str, pt)) + "]")],
    )


def rh_root_moduli(coeffs: list[int], q: int) -> list[float]:
    """|root|^2 * q for each complex root of the curve-zeta numerator: 1.0
    for every root, once `_rh_certificate` proves the Riemann hypothesis for
    the numerator.  One that fails it comes from a wrong tally."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return []
    if not _rh_certificate(coeffs, q):
        raise InvariantViolated(f"curve numerator {coeffs} over F_{q} breaks the Riemann hypothesis")
    return [1.0] * deg


def _rh_certificate(L: list[int], q: int) -> bool:
    """Every root u of L has |u|^2 = 1/q, decided in exact arithmetic.

    L, of degree 2g with constant term 1, must satisfy the functional
    equation c_(2g-i) = q^(g-i) c_i.  Then u^-g L(u) = R(u^-1 + qu), where
    R = c_g + sum_(j=1..g) c_(g-j) D_j with D_0 = 2, D_1 = y and
    D_j = y D_(j-1) - q D_(j-2), and the roots of L lie on |u|^2 = 1/q
    exactly when the roots y of R are real with y^2 <= 4q.  Sturm's theorem
    counts both: every root of R is real, and every root of
    S(w) = R(sqrt w) R(-sqrt w) lies in [0, 4q]."""
    if len(L) % 2 == 0 or L[0] != 1:
        return False
    g = len(L) // 2
    if any(L[2 * g - i] != q ** (g - i) * L[i] for i in range(g + 1)):
        return False
    R = [Fraction(L[g])]
    prev, cur = [Fraction(2)], [Fraction(0), Fraction(1)]
    for j in range(1, g + 1):
        R = _padd(R, [L[g - j] * c for c in cur])
        prev, cur = cur, _padd([Fraction(0)] + cur, [-q * c for c in prev])
    S = _pmul(R, [c if i % 2 == 0 else -c for i, c in enumerate(R)])[::2]
    R, S = _squarefree(R), _squarefree(S)
    return (
        _real_roots(R, -math.inf, math.inf) == len(R) - 1
        and _real_roots(S, 0, 4 * q) == len(S) - 1
    )


# polynomials over Q for the certificate: Fraction lists, constant term first


def _padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _pmul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdivmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of a by b (b nonzero); zero is []."""
    a = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        c = quo[shift] = a[shift + len(b) - 1] / b[-1]
        for i, y in enumerate(b):
            a[shift + i] -= c * y
    rem = a[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _pderiv(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _squarefree(a: list) -> list:
    """a over gcd(a, a'): the same roots, each once."""
    x, y = a, _pderiv(a)
    while y:
        x, y = y, _pdivmod(x, y)[1]
    return _pdivmod(a, x)[0]


def _real_roots(a: list, lo, hi) -> int:
    """Distinct real roots in [lo, hi] of the square-free a, by Sturm's
    theorem: V(lo) - V(hi) counts those in (lo, hi]."""
    chain = [a]
    r = _pderiv(a)
    while r:
        chain.append(r)
        r = [-c for c in _pdivmod(chain[-2], chain[-1])[1]]

    def value(c, x):
        if x == math.inf:
            return c[-1]
        if x == -math.inf:
            return c[-1] * (-1) ** (len(c) - 1)
        acc = Fraction(0)
        for v in reversed(c):
            acc = acc * x + v
        return acc

    def variations(x):
        signs = [v > 0 for v in (value(c, x) for c in chain) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(lo) - variations(hi) + (value(a, lo) == 0)
