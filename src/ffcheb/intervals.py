"""Short-interval experiments: empirical means of factorization-type functions
against wreath-product predictions.

An interval I(f0, m) is tallied exhaustively (never sampled), one block of
q^t consecutive elements at a time, t as large as 2^14 elements allow: each
block is sieved by the primes of degree at most s = min(n // 2, m + 1), and
what is left of an element is one prime, or rarely a larger cofactor for
factor_raw.  On an abelian cover that prime's class is read from
Artin symbols, Art(f) times Art(Q)^(-e) over the small prime powers found,
with no division.  Only where the symbol does not give it is the cofactor
divided out and classified on its own: on splitting covers (Frobenius is a
cycle type, not a multiplicative symbol), at elements with a ramified factor
(Art(f) is undefined there) and for the larger cofactors.  Per-block tallies
of factorization types merge associatively, so the result is independent of
the chunking and safe to compute in parallel.  One pass per interval is
shared by every function evaluated on it.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .covers import Cover, KummerCover, SplittingCover, dumps_cover, parse_cover
from .errors import (
    ContextMismatch,
    DomainError,
    IntervalDegenerate,
    NotAConjugacyClass,
    TooLarge,
)
from .factypes import ArithFnSpec, FactorizationType, evaluate
from .polys import (
    ENUMERATION_LIMIT,
    Coeffs,
    Poly,
    _coset_indices,
    _coset_rows,
    factor_raw,
    pdeg,
    pdiv,
    peval,
    pmod,
    pmul,
    parse_poly,
    pneg,
    primes_of_degree,
)
from .wreath import class_type_table, mean_class_function

#: fixed normalization note carried by every norm-related report
NORM_NOTE = (
    "wreath means: <b> = binom(n + 1/|G| - 1, n) and <r> = 1; "
    "the two are sometimes quoted with the roles interchanged"
)


@dataclass(frozen=True)
class IntervalSpec:
    """I(f0, m) = { f0 + g : deg g <= m }, q^(m+1) monic polynomials."""

    f0: Poly
    m: int

    def __post_init__(self):
        if not self.f0.is_monic():
            raise IntervalDegenerate("interval center must be monic")
        if not 0 <= self.m < self.f0.degree:
            raise IntervalDegenerate(
                f"need 0 <= m < n, got m = {self.m}, n = {self.f0.degree}"
            )

    @property
    def n(self) -> int:
        return self.f0.degree

    def size(self) -> int:
        return self.f0.ctx.q ** (self.m + 1)


# ---------------------------------------------------------------------------
# enumeration
#
# Index idx of the interval stands for f0 + g, where the base-q digits of
# idx, lowest first, are the coefficients of g (field encodings, added to
# those of f0).  Two quantities shape the sieve:
#
# - the sieve degree s = min(n // 2, m + 1): the primes of degree <= s are
#   the small primes, sieved out of every element;
# - the block dimension t, the largest with s <= t <= m + 1 and
#   q^t <= _POOL_FLOOR (t = s when already q^s is larger).  The q^t
#   consecutive indices of block b share their top m + 1 - t digits, so the
#   block is I(f_b, t - 1): f_b + h with deg h < t, h read off the low t
#   digits.  An interval of up to _POOL_FLOOR elements is one block.
#
# "Q^e divides f_b + h" is the affine condition h = -f_b mod Q^e.  The sieve
# solves it once per block for each small prime Q and each power with
# e * deg Q <= n, and records which elements each power hits (q^(t - deg Q^e)
# of them when deg Q^e <= t, at most one otherwise); polys._coset_indices
# lists them, as it does for the prime sieve.  f_b is f0 plus the block
# number's digits at T^t .. T^m, so -f_b mod Q^e is -(f0 mod Q^e) minus those
# digits times T^j mod Q^e: vectors stored once per interval, with the coset
# rows of Q^e, so a block divides nothing.  The larger t, the fewer blocks,
# and each small prime power is solved that many fewer times.
#
# What is left of an element after its small primes is prime whenever its
# degree is at most 2s + 1 (a composite would have a factor of degree <= s).
# On an abelian cover its class then needs no division: the Artin symbol is
# multiplicative on monics prime to the ramified primes (reciprocity for
# Kummer, additivity of the trace for Artin-Schreier), so it is Art(f) times
# Art(Q)^(-e) over the hits.  A Kummer cover whose places are all linear
# reads Art(f) from per-interval tables of h(a) over deg h < t, one per place
# T - a; the other abelian kinds call artin_symbol on the whole element.
# The cofactor is divided out and classified on its own only where that
# does not hold: on splitting covers, on elements with a ramified factor
# (a small hit, or a ramified prime of degree > s found like a hit), and for
# cofactors of degree > 2s + 1, possible only when m + 1 < n // 2, which go
# to factor_raw.

#: the most elements of one sieve block, and the fewest interval elements per
#: pool worker, so that a pool chunk is never smaller than a block.  A pool
#: of 2 on 2 CPUs loses on Kummer covers, the cheapest kind per element, at
#: 24,389 elements (0.17 s in one process against 0.23 s) and wins at 59,049,
#: F_9 I(T^6, 4) in 9 blocks of 6,561 (0.59 s against 0.45 s, ahead in 10 of
#: 13 pairs): medians of alternated pairs, tables in CHANGES.md.  The costlier
#: kinds gain more per element, so the floor is on the safe side for them.
_POOL_FLOOR = 2**14


class _BlockSieve:
    """Small-prime data of one interval, shared by the blocks of a range:
    primes of degree <= s, blocks of q^t elements."""

    def __init__(self, spec: Cover, I: IntervalSpec):
        F = self.F = spec.ctx
        n = self.n = I.n
        q = F.q
        s = self.s = min(n // 2, I.m + 1)
        t = s
        while t <= I.m and q ** (t + 1) <= _POOL_FLOOR:
            t += 1
        self.t = t
        self.spec = spec
        self.base = list(I.f0.coeffs)
        self.excludes = isinstance(spec, SplittingCover)
        self.ramified = spec._ramified_set()
        self.tops = range(t, I.m + 1)  # the block digits
        # (prime, degree, [Q, Q^2, ...] while e * deg Q <= n, and the
        # `_solver`s of the powers some block has reached: a chain of powers
        # stops at the first Q^e with no hit, so the rest are built on demand)
        self.small = []
        for d in range(1, s + 1):
            for Q in primes_of_degree(F, d):
                pows = [Q]
                while (len(pows) + 1) * d <= n:
                    pows.append(pmul(F, pows[-1], Q))
                self.small.append((Q, d, pows, []))
        # ramified primes beyond the small ones that can still divide
        self.big_ramified = [self._solver(P) for P in self.ramified if s < pdeg(P) <= n]
        # per small prime, on its first hit: (degree, catalog index, and on
        # an abelian cover at an unramified Q, Art(Q)^(-e) for e = 1, 2, ...)
        self.hit_data: list[tuple | None] = [None] * len(self.small)
        self.places = None
        if isinstance(spec, KummerCover) and not spec._nonlin_parts:
            add, mul = F.add, F.mul
            self.places = []
            for a, table in spec._lin_parts:
                vals, power = [0], 1  # h(a) over the h of degree < t, by index
                for _ in range(t):
                    scaled = [mul(c, power) for c in range(q)]
                    vals = [add(v, x) for x in scaled for v in vals]
                    power = mul(power, a)
                self.places.append((a, table, array("i", vals)))

    def _solver(self, M: Coeffs) -> tuple:
        """(deg M, -(f0 mod M), [-(T^j mod M) for each block digit j], the
        coset rows of M): what solving h = -f_b mod M in a block needs.  The
        residues are padded to deg M coefficients."""
        F, D = self.F, len(M) - 1
        res = []
        for a in [self.base] + [(0,) * j + (1,) for j in self.tops]:
            r = pneg(F, pmod(F, a, M))
            res.append(list(r) + [0] * (D - len(r)))
        return D, res[0], res[1:], _coset_rows(F, M, max(self.t - D, 0))

    def _hit(self, qi: int) -> tuple:
        Q, d, pows, _ = self.small[qi]
        spec = self.spec
        w = spec.coset_class(Q)
        if self.excludes or Q in self.ramified:
            return d, w, None
        G = spec.group
        (x,) = G.omega[w].rep  # Frobenius at an unramified prime of an abelian cover
        return d, w, [G.power(x, -e) for e in range(1, len(pows) + 1)]

    def _element(self, fb: list[int], i: int) -> Coeffs:
        """f_b + h, h the element of local index i."""
        q, add = self.F.q, self.F.add
        cs = list(fb)
        for k in range(self.t):
            i, digit = divmod(i, q)
            if digit:
                cs[k] = add(cs[k], digit)
        return tuple(cs)

    def tally(self, b: int, lo: int, hi: int, seed: int, counts: Counter) -> int:
        """Add the types of block b's local indices [lo, hi) to counts;
        return how many of them a splitting cover excludes."""
        F, s, t, n = self.F, self.s, self.t, self.n
        q = F.q
        size = q**t
        add, mul = F.add, F.mul
        fb = list(self.base)  # f_b: the block number's digits from T^t up
        digits = []  # (block digit, its value) where nonzero
        k = 0
        while b:
            b, digit = divmod(b, q)
            if digit:
                fb[t + k] = add(fb[t + k], digit)
                digits.append((k, digit))
            k += 1

        def residue(r, rows):  # -f_b mod M from -(f0 mod M) and -(T^j mod M)
            for k, digit in digits:
                r = [add(x, mul(digit, y)) for x, y in zip(r, rows[k])]
            return r

        # per element: a linked list of hits (prime index, exponent), newest first
        head = array("i", [-1]) * size
        hq, he, hnext = array("i"), array("i"), array("i")
        # elements with a ramified factor: excluded, or divided on an abelian cover
        bad = bytearray(size) if self.ramified else None
        excludes = self.excludes
        for qi, (Q, _, pows, solvers) in enumerate(self.small):
            ram = Q in self.ramified
            for e, Qe in enumerate(pows, 1):
                if len(solvers) < e:
                    solvers.append(self._solver(Qe))
                D, r0, rows, crows = solvers[e - 1]
                r = residue(r0, rows)
                if any(r[t:]):
                    break  # no element is divisible by Q^e, nor by Q^(e+1)
                sols = _coset_indices(F, r, D, crows)
                if ram:
                    sols = list(sols)
                    for i in sols:
                        bad[i] = 1
                    if excludes:
                        break
                for i in sols:
                    if e == 1:
                        hq.append(qi)
                        he.append(1)
                        hnext.append(head[i])
                        head[i] = len(hq) - 1
                    else:  # Q's entry is the element's newest
                        he[head[i]] = e
        for D, r0, rows, crows in self.big_ramified:
            r = residue(r0, rows)
            if not any(r[t:]):  # q^(t - deg P) elements when deg P < t, else one
                for i in _coset_indices(F, r, D, crows):
                    bad[i] = 1

        # classify each element from its hits and its cofactor
        spec = self.spec
        coset = spec.coset_class
        G = spec.group
        gmul, to_omega = G.table, G.class_to_omega
        small, hit_data = self.small, self.hit_data
        if self.places is not None:
            art0 = n * spec._deg_dlog
            at = [(table, vals, peval(F, fb, a)) for a, table, vals in self.places]
        excluded = 0
        for i in range(lo, hi):
            ramified = bad is not None and bad[i]
            if ramified and excludes:
                excluded += 1
                continue
            types: dict = {}
            c = n  # degree of the cofactor
            g = 0  # the product of Art(Q)^(-e) over the hits
            j = head[i]
            while j >= 0:
                qi, e = hq[j], he[j]
                data = hit_data[qi]
                if data is None:
                    data = hit_data[qi] = self._hit(qi)
                d, w, inv = data
                key = (d, e, w)
                types[key] = types.get(key, 0) + 1
                c -= d * e
                if inv is not None:
                    g = gmul[g][inv[e - 1]]
                j = hnext[j]
            if c and (ramified or excludes or c > 2 * s + 1):
                f = self._element(fb, i)
                j = head[i]
                while j >= 0:
                    f = pdiv(F, f, small[hq[j]][2][he[j] - 1])
                    j = hnext[j]
                if c <= 2 * s + 1:
                    parts = ((f, 1),)
                else:
                    parts = factor_raw(F, f, seed)[1]
                for P, e in parts:
                    key = (pdeg(P), e, coset(P))
                    types[key] = types.get(key, 0) + 1
            elif c:  # a prime cofactor, prime to the ramified primes, on an abelian cover
                if self.places is not None:
                    art = art0
                    for table, vals, fa in at:
                        art += table[add(fa, vals[i])]
                    art %= G.n
                else:
                    art = spec.artin_symbol(self._element(fb, i))
                types[(c, 1, to_omega[gmul[art][g]])] = 1
            counts[tuple(sorted(types.items()))] += 1
        return excluded


def _count_range(spec: Cover, I: IntervalSpec, start: int, stop: int, seed: int):
    """Tally factorization types for interval indices [start, stop)."""
    sieve = _BlockSieve(spec, I)
    size = spec.ctx.q**sieve.t
    counts: Counter = Counter()
    excluded = 0
    for b in range(start // size, -(-stop // size)):
        lo = max(start - b * size, 0)
        hi = min(stop - b * size, size)
        excluded += sieve.tally(b, lo, hi, seed, counts)
    return counts, excluded


def _chunk_worker(args):
    cover_text, force_wild, f0_ser, m, start, stop, seed = args
    spec = parse_cover(cover_text, force_wild)
    f0 = parse_poly(spec.ctx, f0_ser)
    I = IntervalSpec(f0, m)
    counts, excluded = _count_range(spec, I, start, stop, seed)
    return dict(counts), excluded


def _usable_cpus() -> int:
    import os

    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_counts(spec: Cover, I: IntervalSpec, seed: int, workers: int):
    """`_count_range` over the whole interval, in a pool of `workers`
    processes that each tally one contiguous chunk."""
    import multiprocessing as mp

    size = I.size()
    text = dumps_cover(spec)
    bounds = [size * i // workers for i in range(workers + 1)]
    jobs = [
        (text, spec.wild_override, I.f0.serialize(), I.m, bounds[i], bounds[i + 1], seed)
        for i in range(workers)
    ]
    counts: Counter = Counter()
    excluded = 0
    with mp.Pool(workers) as pool:
        for part, exc in pool.map(_chunk_worker, jobs):
            counts.update(part)
            excluded += exc
    return counts, excluded


def interval_lambda_counts(
    spec: Cover, I: IntervalSpec, seed: int = 0, threads: int = 1
) -> tuple[Counter, int]:
    """Multiset of factorization types over the interval, plus the number of
    excluded polynomials (splitting covers only).  Cached per interval.

    `threads` is the most worker processes to use: the interval fans out to
    min(threads, usable CPUs, size // _POOL_FLOOR) of them when that is at
    least 2, and counts in this process otherwise.  The result does not
    depend on the route."""
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    spec.require_validated()
    if I.f0.ctx is not spec.ctx:
        raise ContextMismatch("interval and cover over different fields")
    size = I.size()
    if size > ENUMERATION_LIMIT:
        raise TooLarge(f"interval of size {size} exceeds the enumeration bound")
    cache = getattr(spec, "_interval_cache", None)
    if cache is None:
        cache = spec._interval_cache = {}
    key = (I.f0.coeffs, I.m, seed)
    if key in cache:
        return cache[key]
    workers = min(threads, _usable_cpus(), size // _POOL_FLOOR)
    if workers > 1:
        counts, excluded = _pool_counts(spec, I, seed, workers)
    else:
        counts, excluded = _count_range(spec, I, 0, size, seed)
    cache[key] = (counts, excluded)
    return counts, excluded


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    """Structured comparison record; serializes with a stable key order."""

    command: str
    seed: int
    threads: int
    cover: dict
    cover_hash: str
    interval: dict
    fn_id: str
    empirical_mean: Fraction
    predicted_mean: Fraction
    excluded_fraction: Fraction
    regime: dict
    note: str = NORM_NOTE
    extra: list = field(default_factory=list)  # extra (key, value) rows

    @property
    def deviation(self) -> Fraction:
        return abs(self.empirical_mean - self.predicted_mean)

    @property
    def deviation_times_sqrt_q(self) -> float:
        return float(self.deviation) * math.sqrt(self.cover["q"])

    def lines(self) -> list[tuple[str, str]]:
        out = [
            ("report", "ffcheb/1"),
            ("command", self.command),
            ("seed", str(self.seed)),
            ("threads", str(self.threads)),
        ]
        for k in ("kind", "q", "group_order", "genus", "tame_at_infinity", "group_provenance"):
            v = self.cover.get(k)
            out.append((f"cover.{k}", _fmt(v)))
        out.append(("cover.hash", self.cover_hash))
        for k in ("f0", "n", "m"):
            if k in self.interval:
                out.append((f"interval.{k}", _fmt(self.interval[k])))
        out.append(("fn", self.fn_id))
        out.append(("empirical_mean", _fmt(self.empirical_mean)))
        out.append(("predicted_mean", _fmt(self.predicted_mean)))
        out.append(("deviation", _fmt(self.deviation)))
        out.append(("deviation_times_sqrt_q", repr(self.deviation_times_sqrt_q)))
        out.append(("excluded_fraction", _fmt(self.excluded_fraction)))
        for k in sorted(self.regime):
            out.append((f"regime.{k}", _fmt(self.regime[k])))
        out.extend(self.extra)
        out.append(("note", self.note))
        return out

    def serialize(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.lines()) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if v is None:
        return "none"
    return str(v)


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        k, _, v = line.partition(" = ")
        out[k] = v
    return out


def cover_hash(spec: Cover) -> str:
    return hashlib.sha256(dumps_cover(spec).encode()).hexdigest()[:16]


def _regime_flags(spec: Cover, I: IntervalSpec) -> dict:
    q = spec.ctx.q
    lo = 2 if q % 2 == 1 else 3
    return {
        "m_in_theorem_range": lo <= I.m < I.n,
        "tame_at_infinity": spec.tame_at_infinity(),
        "wild_override": spec.wild_override,
    }


# ---------------------------------------------------------------------------
# the experiments


def sieved_mean(
    spec: Cover, fn: ArithFnSpec, I: IntervalSpec, seed: int = 0, threads: int = 1
) -> tuple[Fraction, int]:
    """Exact mean of fn over the interval's monics that are not excluded, and
    the number excluded (splitting covers only)."""
    counts, excluded = interval_lambda_counts(spec, I, seed, threads)
    total = Fraction(0)
    for entries, cnt in counts.items():
        v = evaluate(fn, FactorizationType(dict(entries)), spec.group)
        if v:
            total += v * cnt
    denom = I.size() - excluded
    return (total / denom if denom else Fraction(0)), excluded


def interval_mean(
    spec: Cover,
    fn: ArithFnSpec,
    I: IntervalSpec,
    seed: int = 0,
    threads: int = 1,
) -> Report:
    """Empirical interval mean of fn against the exact wreath-product mean."""
    empirical, excluded = sieved_mean(spec, fn, I, seed, threads)
    predicted = mean_class_function(fn, spec.group, I.n)
    return Report(
        command="interval-mean",
        seed=seed,
        threads=threads,
        cover=spec.summary(),
        cover_hash=cover_hash(spec),
        interval={"f0": I.f0.serialize(), "n": I.n, "m": I.m},
        fn_id=fn.describe(),
        empirical_mean=empirical,
        predicted_mean=predicted,
        excluded_fraction=Fraction(excluded, I.size()),
        regime=_regime_flags(spec, I),
    )


def count_prime_frobenius_interval(
    spec: Cover, class_index: int, I: IntervalSpec, seed: int = 0, threads: int = 1
) -> int:
    """Exact count of primes in the interval with Frobenius class C."""
    if not 0 <= class_index < len(spec.group.classes):
        raise NotAConjugacyClass(f"no conjugacy class with index {class_index}")
    counts, _ = interval_lambda_counts(spec, I, seed, threads)
    target = (((I.n, 1, spec.group.class_to_omega[class_index]), 1),)
    return counts.get(target, 0)


@dataclass
class CensusRow:
    lam: FactorizationType
    count: int
    empirical: Fraction
    predicted: Fraction


@dataclass
class CensusResult:
    rows: list[CensusRow]
    nonsquarefree_count: int
    nonsquarefree_empirical: Fraction
    tv_distance: Fraction
    report: Report

    def tv_times_sqrt_q(self) -> float:
        return float(self.tv_distance) * math.sqrt(self.report.cover["q"])


def census(
    spec: Cover, I: IntervalSpec, seed: int = 0, threads: int = 1
) -> CensusResult:
    """Empirical distribution of factorization types over the interval versus
    wreath class-size frequencies; multiplicity > 1 types pool into one bucket
    with predicted mass 0."""
    counts, excluded = interval_lambda_counts(spec, I, seed, threads)
    size = I.size()
    denom = size - excluded
    G = spec.group
    n = I.n
    order = G.n**n * math.factorial(n)
    predicted: dict[FactorizationType, Fraction] = {}
    for lam, sz in class_type_table(G, n):
        predicted[lam] = Fraction(sz, order)
    empirical: dict[FactorizationType, Fraction] = {}
    nsf_count = 0
    for entries, cnt in counts.items():
        lam = FactorizationType(dict(entries))
        if lam.supported_on_squarefree():
            empirical[lam] = Fraction(cnt, denom)
        else:
            nsf_count += cnt
    nsf_emp = Fraction(nsf_count, denom) if denom else Fraction(0)
    rows = []
    tv = Fraction(0)
    for lam in sorted(set(predicted) | set(empirical), key=lambda l: l.entries):
        e = empirical.get(lam, Fraction(0))
        p = predicted.get(lam, Fraction(0))
        cnt = int(e * denom)
        rows.append(CensusRow(lam, cnt, e, p))
        tv += abs(e - p)
    tv += nsf_emp  # bucket predicted mass is 0
    tv = tv / 2
    rep = Report(
        command="census",
        seed=seed,
        threads=threads,
        cover=spec.summary(),
        cover_hash=cover_hash(spec),
        interval={"f0": I.f0.serialize(), "n": I.n, "m": I.m},
        fn_id="census",
        empirical_mean=tv,
        predicted_mean=Fraction(0),
        excluded_fraction=Fraction(excluded, size),
        regime=_regime_flags(spec, I),
        extra=[
            ("census.types", str(len(rows))),
            ("census.nonsquarefree_count", str(nsf_count)),
            ("census.tv_distance", _fmt(tv)),
        ],
    )
    return CensusResult(rows, nsf_count, nsf_emp, tv, rep)
