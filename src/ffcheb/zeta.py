"""Norm-counting identities on the full interval: prime tallies, psi, the
Euler product for the norm indicator, and the rational Dedekind zeta.

Exact prime tallies by Frobenius class are needed far past what direct
enumeration can reach (degree 8 over F_25 has ~10^9 primes).  For abelian
covers we exploit rationality: the zeta system

    Z(u) = prod over unramified finite P of (1 - [Frob_P] u^{deg P})^{-1}

lives in the group ring Q[A][[u]], and Z(u) * (1 - q*u*e_A) is a polynomial
(e_A the averaging idempotent): the trivial character component of Z is
prod_{ram}(1 - u^{deg P}) / (1 - qu) and every nontrivial component is already
a polynomial.  So tallies enumerated up to the polynomial's degree determine
all higher tallies by linear recurrence.  Extended tallies are checked for
integrality, nonnegativity, and the class-sum identity against the prime
polynomial theorem at every degree; a failure means the degree bound (hence
the cover model) is wrong and raises DegreeBoundViolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .covers import ArtinSchreierCover, Cover, KummerCover, ProductCover, TrivialCover
from .errors import DegreeBoundViolated, InvariantViolated, TooLarge, UserGenusRequired
from .factypes import direct_r
from .groups import GroupTable
from .polys import ENUMERATION_LIMIT, count_primes, enumerate_monic

#: candidate bound for the small-degree prime sweep behind the L-data
LDATA_BUDGET = 2 * 10**6


# ---------------------------------------------------------------------------
# truncated power series over an exact coefficient ring


class Series:
    """Power series mod u^(N+1) over Fractions or group-ring elements."""

    __slots__ = ("coeffs", "one")

    def __init__(self, coeffs, one=Fraction(1)):
        self.coeffs = list(coeffs)
        self.one = one

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "Series") -> "Series":
        n = min(self.trunc, other.trunc)
        return Series(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], self.one
        )

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.trunc, other.trunc)
        return Series(
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)], self.one
        )

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.trunc, other.trunc)
        zero = self.coeffs[0] * 0
        out = [zero for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs[: n + 1]):
            for j in range(n + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return Series(out, self.one)

    def exp(self) -> "Series":
        """exp of a series with vanishing constant term."""
        n = self.trunc
        zero = self.coeffs[0] * 0
        if self.coeffs[0] != zero:
            raise InvariantViolated("exp needs a series with vanishing constant term")
        out = [self.one] + [zero] * n
        for m in range(1, n + 1):
            acc = zero
            for j in range(1, m + 1):
                acc = acc + (self.coeffs[j] * j) * out[m - j]
            out[m] = acc * Fraction(1, m)
        return Series(out, self.one)

    def log(self) -> "Series":
        """log of a series with constant term 1:
        a_m = b_m - (1/m) sum_{j<m} j a_j b_{m-j}."""
        n = self.trunc
        zero = self.coeffs[0] * 0
        if self.coeffs[0] != self.one:
            raise InvariantViolated("log needs a series with constant term 1")
        out = [zero] * (n + 1)
        for m in range(1, n + 1):
            corr = zero
            for j in range(1, m):
                corr = corr + (out[j] * j) * self.coeffs[m - j]
            out[m] = self.coeffs[m] - corr * Fraction(1, m)
        return Series(out, self.one)

    def eval_at(self, x: Fraction):
        acc = self.coeffs[0] * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Series({self.coeffs[: min(6, len(self.coeffs))]}...)"


class GroupRingElem:
    """Element of Q[A] for an abelian group table A; * is convolution."""

    __slots__ = ("group", "vec")

    def __init__(self, group: GroupTable, vec):
        self.group = group
        self.vec = tuple(vec)

    @staticmethod
    def zero(group: GroupTable) -> "GroupRingElem":
        return GroupRingElem(group, (Fraction(0),) * group.n)

    @staticmethod
    def one(group: GroupTable) -> "GroupRingElem":
        return GroupRingElem(
            group, (Fraction(1),) + (Fraction(0),) * (group.n - 1)
        )

    @staticmethod
    def averaging(group: GroupTable) -> "GroupRingElem":
        w = Fraction(1, group.n)
        return GroupRingElem(group, (w,) * group.n)

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(
            self.group, (a + b for a, b in zip(self.vec, other.vec))
        )

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(
            self.group, (a - b for a, b in zip(self.vec, other.vec))
        )

    def __mul__(self, other):
        if isinstance(other, GroupRingElem):
            mul = self.group.mul
            out = [Fraction(0)] * self.group.n
            for i, a in enumerate(self.vec):
                if a:
                    for j, b in enumerate(other.vec):
                        if b:
                            out[mul(i, j)] += a * b
            return GroupRingElem(self.group, out)
        return GroupRingElem(self.group, (a * other for a in self.vec))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElem) and self.vec == other.vec

    def __repr__(self) -> str:
        return f"GR{self.vec}"


# ---------------------------------------------------------------------------
# abelian Frobenius tallies with rationality-based extension


def _is_cyclic_or_product(spec: Cover) -> bool:
    return isinstance(
        spec, (KummerCover, ArtinSchreierCover, ProductCover, TrivialCover)
    )


class AbelianFrobeniusData:
    """Exact per-class prime tallies for an abelian cover, any degree."""

    def __init__(self, spec: Cover):
        if not _is_cyclic_or_product(spec):
            raise TooLarge("exact global tallies need a cyclic or product cover")
        spec.require_validated()
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
        ram_deg_sum = sum(d for d, _, _, _ in self.ram)
        try:
            genus = spec.genus()
            nontriv_bound = 2 * genus + 1
        except UserGenusRequired:
            nontriv_bound = ram_deg_sum + 2 * G.n  # crude; checks still gate it
        self.deg_bound = max(ram_deg_sum, nontriv_bound, 1)
        q = self.ctx.q
        J = self.deg_bound + 1
        while J > self.deg_bound and sum(q**j for j in range(1, J + 1)) > LDATA_BUDGET:
            J -= 1
        if sum(q**j for j in range(1, J + 1)) > LDATA_BUDGET:
            raise TooLarge(
                f"computing the L-data needs a prime sweep of {sum(q**j for j in range(1, J + 1))} "
                f"candidates (budget {LDATA_BUDGET})"
            )
        self.J = J
        # abelian: class ci is the singleton (ci,), so a row is indexed by element
        self.tallies: dict[int, list[int]] = {
            j: spec.class_counts(j) for j in range(1, J + 1)
        }
        self._build_poly()

    def _log_coeff(self, n: int, limit: int) -> GroupRingElem:
        """n * [u^n] log Z from tallies of degree <= limit."""
        G = self.group
        vec = [Fraction(0)] * G.n
        for j in range(1, min(n, limit) + 1):
            if n % j:
                continue
            row = self.tallies.get(j)
            if row is None:
                continue
            k = n // j
            for a, cnt in enumerate(row):
                if cnt:
                    vec[G.power(a, k)] += Fraction(j * cnt)
        return GroupRingElem(G, vec)

    def _build_poly(self) -> None:
        G, q, J = self.group, self.ctx.q, self.J
        one = GroupRingElem.one(G)
        zero = GroupRingElem.zero(G)
        logz = Series(
            [zero] + [self._log_coeff(n, J) * Fraction(1, n) for n in range(1, J + 1)],
            one,
        )
        Z = logz.exp()
        eA = GroupRingElem.averaging(G)
        mult = Series([one, eA * Fraction(-q)] + [zero] * (J - 1), one)
        Bser = Z * mult
        coeffs = Bser.coeffs
        for n in range(self.deg_bound + 1, J + 1):
            if coeffs[n] != zero:
                raise DegreeBoundViolated(
                    f"L-data coefficient at degree {n} is nonzero; the degree "
                    f"bound {self.deg_bound} (genus/ramification data) is wrong"
                )
        while len(coeffs) > 1 and coeffs[-1] == zero:
            coeffs.pop()
        self.B = coeffs

    def ensure(self, N: int) -> None:
        """Extend tallies to all degrees <= N via the recurrence."""
        G, q = self.group, self.ctx.q
        have = max(self.tallies)
        if N <= have:
            return
        one = GroupRingElem.one(G)
        zero = GroupRingElem.zero(G)
        eA = GroupRingElem.averaging(G)
        Bser = Series(self.B + [zero] * (N - len(self.B) + 1), one)
        geom = Series(
            [one] + [eA * Fraction(q**i) for i in range(1, N + 1)], one
        )
        Z = Bser * geom
        logz = Z.log()
        ram_by_deg: dict[int, int] = {}
        for d, _, _, _ in self.ram:
            ram_by_deg[d] = ram_by_deg.get(d, 0) + 1
        for n in range(have + 1, N + 1):
            Ln = logz.coeffs[n] * Fraction(n)
            known = self._log_coeff(n, n - 1)
            resid = Ln - known
            row = []
            for a in range(G.n):
                v = resid.vec[a] / n
                if v.denominator != 1 or v < 0:
                    raise DegreeBoundViolated(
                        f"recurrence produced a non-integral tally at degree {n}"
                    )
                row.append(int(v))
            if sum(row) + ram_by_deg.get(n, 0) != count_primes(self.ctx, n):
                raise DegreeBoundViolated(
                    f"extended tallies at degree {n} do not add up to the prime count"
                )
            self.tallies[n] = row


def _ldata(spec: Cover) -> AbelianFrobeniusData:
    data = getattr(spec, "_ldata", None)
    if data is None:
        data = spec._ldata = AbelianFrobeniusData(spec)
    return data


def count_prime_frobenius_global(spec: Cover, class_index: int, n: int) -> int:
    """pi_{C;q}(n; E): degree-n primes with Frobenius class C (unramified)."""
    from .errors import NotAConjugacyClass

    if not 0 <= class_index < len(spec.group.classes):
        raise NotAConjugacyClass(f"no conjugacy class with index {class_index}")
    if _is_cyclic_or_product(spec):
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

    def check_partition(self, ctx) -> None:
        """Every degree's unramified and ramified counts add up to the number
        of primes of that degree; raise DegreeBoundViolated otherwise."""
        for d in range(1, self.max_degree + 1):
            total = sum(c for (dd, _), c in self.unramified.items() if dd == d)
            total += sum(c for (dd, *_,), c in self.ramified.items() if dd == d)
            if total != count_primes(ctx, d):
                raise DegreeBoundViolated(
                    f"prime tallies at degree {d} add up to {total}, not "
                    f"{count_primes(ctx, d)} primes"
                )


def prime_tallies(spec: Cover, N: int) -> PrimeTally:
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


def _psi_values(spec: Cover, N: int) -> list[int]:
    """[psi_E(1), ..., psi_E(N)] from one prime tally: a prime of degree d
    with residue degree f adds d*f to psi_E(n) for every multiple n of d*f."""
    tally = prime_tallies(spec, N)
    psis = [0] * (N + 1)
    weights = [(d * f, cnt) for (d, f), cnt in tally.unramified.items()]
    weights += [(d * f, cnt) for (d, _, f, _), cnt in tally.ramified.items()]
    for j, cnt in weights:
        for n in range(j, N + 1, j):
            psis[n] += j * cnt
    return psis[1:]


def psi_E(spec: Cover, n: int) -> int:
    """psi_E(n) = sum over d*f | n of d*f*pi_{E;f}(d), all primes included."""
    return _psi_values(spec, n)[n - 1]


def b_series(spec: Cover, N: int) -> Series:
    """exp(sum psi_E(n) u^n / n) mod u^(N+1): sum of b over monics of each
    degree, as exact rationals (they are integers)."""
    psis = _psi_values(spec, N)
    logd = Series([Fraction(0)] + [Fraction(psis[n - 1], n) for n in range(1, N + 1)])
    return logd.exp()


def b_full_mean(spec: Cover, n: int) -> Fraction:
    ser = b_series(spec, n)
    return ser.coeffs[n] / Fraction(spec.ctx.q**n)


def b_direct_sum(spec: Cover, n: int, seed: int = 0) -> int:
    """Oracle: sum of the norm indicator over all monics of degree n."""
    from .factypes import direct_b

    if spec.ctx.q**n > ENUMERATION_LIMIT:
        raise TooLarge("direct b-enumeration out of budget")
    if n == 0:
        return 1
    return sum(direct_b(spec, f, seed) for f in enumerate_monic(spec.ctx, n))


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
    psis = _psi_values(spec, N)
    es = [Fraction(psis[n - 1]) - Fraction(q**n, size) for n in range(1, N + 1)]
    a = Series([Fraction(0)] + [es[n - 1] / n for n in range(1, N + 1)]).exp()
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


def dedekind_series(spec: Cover, N: int, seed: int = 0) -> Series:
    """Coefficient n is the exact sum of r over all monics of degree n,
    by direct enumeration (the oracle side of the rationality identity)."""
    if sum(spec.ctx.q**n for n in range(N + 1)) > ENUMERATION_LIMIT:
        raise TooLarge("direct r-enumeration out of budget")
    coeffs = [Fraction(1)]
    for n in range(1, N + 1):
        total = 0
        for f in enumerate_monic(spec.ctx, n):
            total += direct_r(spec, f, seed)
        coeffs.append(Fraction(total))
    return Series(coeffs)


def dedekind_from_tallies(spec: Cover, N: int) -> Series:
    """The same series from prime tallies via the Euler product: each P below
    g primes of E, each of degree f*deg P."""
    tally = prime_tallies(spec, N)
    size = spec.group.n
    logc = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        total = Fraction(0)
        for (d, f), cnt in tally.unramified.items():
            j = d * f
            if n % j == 0:
                total += Fraction(cnt * (size // f) * j)
        for (d, e, f, g), cnt in tally.ramified.items():
            j = d * f
            if n % j == 0:
                total += Fraction(cnt * g * j)
        logc[n] = total / n
    return Series(logc).exp()


def ptilde(spec: Cover, N: int | None = None) -> list[int]:
    """Numerator of Z_{O_E}(u) = ptilde(u)/(1 - qu): integer coefficients,
    degree exactly bounded by 2*genus + sum of infinite inertia degrees - 1.
    Z is the Euler product over the prime tallies (`dedekind_from_tallies`);
    enumeration (`dedekind_series`) is its oracle."""
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
    must be exact over the integers, else the cover model is inconsistent."""
    pt = ptilde(spec)
    inf = spec.infinity_data()
    cyc = [1]
    for _ in range(inf.g):
        nxt = [0] * (len(cyc) + inf.f)
        for i, c in enumerate(cyc):
            nxt[i] += c
            nxt[i + inf.f] -= c
        cyc = nxt
    # divide the cyclotomic product by (1 - u): prefix sums
    den = []
    run = 0
    for c in cyc[:-1]:
        run += c
        den.append(run)
    if run + cyc[-1] != 0:
        raise DegreeBoundViolated("infinite-place factor is not divisible by 1 - u")
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    # exact long division pt / den over Z (den has constant term 1)
    if den[0] != 1:
        raise DegreeBoundViolated("infinite-place factor is not monic at u^0")
    if len(pt) < len(den):
        raise DegreeBoundViolated("ptilde has lower degree than the infinite-place factor")
    out = []
    rems = list(pt)
    for i in range(len(pt) - len(den) + 1):
        c = rems[i]
        out.append(c)
        for j, dc in enumerate(den):
            rems[i + j] -= c * dc
    if any(r != 0 for r in rems):
        raise DegreeBoundViolated("infinite-place factor does not divide ptilde")
    return out


def r_full_mean(spec: Cover, n: int, seed: int = 0) -> Fraction:
    """Exact mean of r over all monics of degree n (direct enumeration)."""
    Z = dedekind_series(spec, n, seed)
    return Z.coeffs[n] / Fraction(spec.ctx.q**n)


def r_full_check(spec: Cover, n: int, seed: int = 0):
    """The rationality identity as a report: for n past deg(ptilde) the mean
    of r over all degree-n monics equals ptilde(1/q) exactly, and the value
    sits within 4/sqrt(q) of 1.  The mean is enumerated and ptilde comes from
    the prime tallies, so the two sides are independent routes."""
    from .intervals import Report, cover_hash

    q = spec.ctx.q
    pt = ptilde(spec)
    value = sum(Fraction(c, q**i) for i, c in enumerate(pt))
    mean = r_full_mean(spec, n, seed)
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
    """|root|^2 * q for each complex root of the curve-zeta numerator; equals
    1.0 under the Riemann hypothesis.  Diagnostic only (floats)."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return []
    roots = _durand_kerner([complex(c) for c in coeffs])
    return sorted(abs(r) ** 2 * q for r in roots)


def _durand_kerner(coeffs: list[complex], iters: int = 200) -> list[complex]:
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    mon = [c / lead for c in coeffs]

    def ev(x):
        acc = 0j
        for c in reversed(mon):
            acc = acc * x + c
        return acc

    roots = [(0.4 + 0.9j) ** k for k in range(1, deg + 1)]
    for _ in range(iters):
        new = []
        for i, r in enumerate(roots):
            denom = 1 + 0j
            for j, s in enumerate(roots):
                if i != j:
                    denom *= r - s
            new.append(r - ev(r) / denom)
        if all(abs(a - b) < 1e-14 for a, b in zip(new, roots)):
            roots = new
            break
        roots = new
    return roots
