"""Short-interval experiments: empirical means of factorization-type functions
against wreath-product predictions.

An interval I(f0, m) is tallied exhaustively (never sampled), one block of
q^t consecutive elements at a time, t as large as 2^14 elements allow: each
block is sieved by the primes of degree at most s = min(n // 2, m + 1), and
what is left of an element is one prime, or, when m + 1 < n // 2, a larger
cofactor of at most c // (s + 1) primes, which polys._factor_rough mostly
splits without factor_raw.  The elements a prime power Q^e divides follow
one rule: f_b + h with h = -f_b mod Q^e, a coset of q^(t - e deg Q)
elements, or at most one when e deg Q > t.  The sieve keeps these residues
per degree and exponent, as columns over all the small primes of that
degree, so a block updates them with one pass per digit, and one listing
(polys._coset_columns) gives every prime its elements.  A prime cofactor's
class is read, with no division, from
the Artin symbol of the cover's symbol cover (`Cover.symbol_cover`), Art(f)
times Art(Q)^(-e) over the small prime powers found, through the cover's
table of symbol values.  An abelian cover is its own symbol cover; a
splitting cover's (p odd) is the quadratic symbol of disc_Y(F), the sign of
Frobenius, and its table gives the cycle type where the sign leaves one: any
prime of a quadratic cover, and an odd prime of a cubic.  On a Kummer symbol
cover whose places are all linear, every symbol is read from values at the
places: a small prime's from its coefficient columns, an element's from one
row per place and block, and that of an element with a ramified factor from
its unit part f / prod (T - b)^e, whose values are f's values and Taylor
coefficients at the places.  Only where the table does not give it is the
cofactor divided out and classified on its own: at the other primes of
splitting covers, at elements with a ramified factor on the other abelian
covers, and for the larger cofactors.  An element's factorization type is
summed as one integer code, a digit in base n + 1 per (degree, exponent,
Frobenius) key, and each block decodes its distinct codes into sorted types
once.  Per-block tallies of factorization types merge associatively, so the
result is independent of the chunking and safe to compute in parallel.  One
pass per interval is shared by every function evaluated on it.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .covers import Cover, KummerCover, _taylor, dumps_cover, parse_cover
from .errors import (
    ContextMismatch,
    DomainError,
    IntervalDegenerate,
    TooLarge,
)
from .factypes import ArithFnSpec, FactorizationType, evaluate
from .ffield import Field
from .polys import (
    ENUMERATION_LIMIT,
    Coeffs,
    Poly,
    _coset_columns,
    _factor_rough,
    _neg_mod_columns,
    pdeg,
    pdiv,
    peval,
    parse_poly,
    ppow,
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
# "Q^e divides f_b + h" is the affine condition h = -f_b mod Q^e, one rule
# for every prime power: for D = e deg Q <= t the solutions are a coset of
# q^(t - D) elements, and for D > t there is at most one, -f_b mod Q^e
# itself when its digits from t up are 0 (polys._coset_columns).  f_b is f0
# plus the block number's digits at T^t .. T^m, so -f_b mod Q^e is
# -(f0 mod Q^e) plus those digits times -(T^j mod Q^e).  The sieve keeps
# these per degree d <= s and exponent e (e d <= n) as columns over all the
# primes of degree d (column k holds coefficient k of every residue), from
# the columns of Q^e (_mul_columns) and one column-wise division each
# (polys._neg_mod_columns) in the constructor, and a block updates them with
# one pass per digit.  One listing per (degree, exponent) then gives every prime
# its elements, and a prime's powers are written right after its own hits,
# so that Q's entry is each element's newest when Q^e sets its exponent.
# The ramified primes of degree s < D <= n, which only exclude or mark
# elements, are listed the same way, one group per degree.
#
# The larger t, the fewer blocks, and the fewer times each residue is updated.
#
# What is left of an element after its small primes is prime whenever its
# degree is at most 2s + 1 (a composite would have a factor of degree <= s).
# Its class then needs no division where the cover's symbol cover
# (Cover.symbol_cover) decides it: that cover's Artin symbol is
# multiplicative on monics prime to the ramified primes (reciprocity for
# Kummer, additivity of the trace for Artin-Schreier), so the cofactor's
# symbol is Art(f) times Art(Q)^(-e) over the hits, and the cover's table
# takes it to an omega, or to None.  An abelian cover is its own symbol
# cover and its table decides every value.  A splitting cover with p odd
# has its sign character, the Kummer cover y^2 = disc_Y(F)
# (covers.SplittingCover._sign_character): the hits' signs add up in Z/2,
# and the table gives the cycle type where the sign leaves one (k = 2, or
# k = 3 and odd).  A symbol cover that is a Kummer cover whose places are
# all linear reads every symbol from values at its places T - a (Kummer
# reciprocity, with Res(T - a, f) = f(a); see KummerCover.artin_symbol):
# a small prime's from one column Horner pass per place over its columns,
# then table[Q(a)]; an element's Art(f) from per-interval tables of h(a) over
# deg h < t, through one row per place and block, table[f_b(a) + v] by v in
# F_q; and at an element with a ramified factor, where Art(f) is undefined,
# the symbol of its unit part g = f / prod (T - b)^e over the ramified roots
# b found, with g(a) = f(a) / prod (a - b)^e at the other places and g(b) the
# e-th Taylor coefficient of f at b (covers._taylor) over prod (b - b')^e'.
# The other symbol covers call artin_symbol on the whole element.  The
# cofactor is divided out and classified on its own only where none of this
# holds: where the table says None, on elements with a ramified factor on
# another abelian cover (a small hit, or a ramified prime of degree > s
# found like a hit), and for cofactors of degree c > 2s + 1, possible only
# when m + 1 < n // 2.
# Those have at most c // (s + 1) primes, and polys._factor_rough splits
# them: for q odd, disc != 0 and c <= 3s + 2 there are one or two, and the
# parity of the discriminant's log tells which (Stickelberger); two primes at
# c = 2s + 2 both have degree s + 1, and one trace modulo the cofactor
# separates them (polys._edf).  Only p = 2, disc = 0, c > 3s + 2 and two
# primes of unequal degree still go to factor_raw.
#
# An element's type is tallied as one integer, its code.  The sieve gives
# each (degree, exponent, omega) key a slot k the first time it meets the
# key, in no fixed order, and the key weight (n + 1)^k; a code is the sum of
# the weights of an element's prime powers, so its base-(n + 1) digits are
# the counts of the keys, each at most n.  A small prime's weights sit in its
# hit data, made on its first hit and shared by every prime of its degree,
# omega and symbol value; on an abelian cover its omega there is read from
# the Artin symbol that the hit data keep anyway, and only a ramified prime,
# or any prime of a splitting cover, asks coset_class.  A cofactor's prime
# looks its weight up by key.  A block counts its codes in a dict and
# decodes each distinct code once into the sorted ((degree, exponent,
# omega), count) items that the tallies are keyed by.

#: the most elements of one sieve block, and the fewest interval elements per
#: pool worker, so that a pool chunk is never smaller than a block.  A pool
#: of 2 on 2 CPUs loses on Kummer covers, the cheapest kind per element, at
#: 24,389 elements, F_29 I(T^4, 2) (0.09 s in one process against 0.13 s,
#: behind in 10 of 10 pairs), and wins at 50,653, F_37 I(T^4, 2) (0.21 s
#: against 0.17 s, ahead in 8 of 10), and at 59,049, F_9 I(T^6, 4) in 9
#: blocks of 6,561 (0.42 s against 0.28 s, ahead in 14 of 20): medians of
#: alternated pairs, 2 vCPUs, tables in CHANGES.md.  The costlier kinds gain
#: more per element, so the floor is on the safe side for them.
_POOL_FLOOR = 2**14


def _mul_columns(F: Field, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Many products of monic polynomials at once, column by column, as the
    sieve builds the powers Q^e: a[i] holds coefficient i of every first
    factor and b[k] coefficient k of every second (all but the leading 1s);
    the products come back the same way."""
    add, mul = F.add, F.mul
    da, db = len(a), len(b)
    out = [[0] * len(a[0]) for _ in range(da + db)]
    for i, x in enumerate(a):  # a times (b + T^db)
        out[i + db] = [add(u, v) for u, v in zip(out[i + db], x)]
        for k, y in enumerate(b):
            out[i + k] = [add(u, mul(v, w)) for u, v, w in zip(out[i + k], x, y)]
    for k, y in enumerate(b):  # T^da times b
        out[k + da] = [add(u, v) for u, v in zip(out[k + da], y)]
    return out


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
        # the cover whose Artin symbols the hits multiply (the cover itself,
        # or the sign character of a splitting cover), and the omega of each
        # symbol value, None where it leaves the class open
        self.symbol, self.omegas = spec.symbol_cover()
        self.ramified = spec._ram
        add, mul = F.add, F.mul
        # a symbol cover that is a Kummer cover whose places are all linear:
        # per place T - a, a, its table of f(a) (see KummerCover) and h(a)
        # over the h of degree < t, by index
        self.places = None
        if isinstance(self.symbol, KummerCover) and not self.symbol._nonlin_parts:
            self.places = []
            for a, table in self.symbol._lin_parts:
                # h(a) = h for deg h < 1; digit k adds c a^k, by one row of
                # additions per c
                vals, power = list(range(q)) if t else [0], a
                for _ in range(1, t):
                    scaled = [mul(c, power) for c in range(q)]
                    vals = [
                        row[v]
                        for y in scaled
                        for row in [[add(x, y) for x in range(q)]]
                        for v in vals
                    ]
                    power = mul(power, a)
                self.places.append((a, table, array("i", vals)))
        # what -f_b mod M is made of: -f0, and -T^j per block digit j
        self.shifts = [self.base] + [(0,) * j + (1,) for j in range(t, I.m + 1)]
        # the small primes, by degree; per degree d, the index of its first
        # prime, their number, the moduli (see _moduli) Q^e over its primes
        # for e = 1, 2, ... with e d <= n, and the positions of its ramified
        # primes
        self.small: list[Coeffs] = []
        self.degrees = []
        # per small prime, its symbol on the Kummer symbol cover with linear
        # places, read by reciprocity from its columns: d times the degree
        # term plus table[Q(a)] per place (a column Horner pass each); None
        # when the symbol cover is another, or there is none
        self.arts: list[int] | None = [] if self.places is not None else None
        for d in range(1, s + 1):
            primes = primes_of_degree(F, d)
            cols = [list(c) for c in zip(*primes)][:d]
            powers = [cols]
            while (len(powers) + 1) * d <= n:
                powers.append(_mul_columns(F, powers[-1], cols))
            ram = frozenset(i for i, Q in enumerate(primes) if Q in self.ramified)
            moduli = [self._moduli(M) for M in powers]
            self.degrees.append((len(self.small), len(primes), moduli, ram))
            self.small.extend(primes)
            if self.arts is not None:
                arts = [d * self.symbol._deg_dlog] * len(primes)
                for a, table in self.symbol._lin_parts:
                    times_a = [mul(x, a) for x in range(q)]
                    v = [1] * len(primes)
                    for col in reversed(cols):
                        v = [add(times_a[x], y) for x, y in zip(v, col)]
                    # table[0] is None: Q = T - a, ramified, has no symbol
                    arts = [k + (table[x] or 0) for k, x in zip(arts, v)]
                self.arts.extend(k % self.symbol.d for k in arts)
        # the ramified primes beyond the small ones that can still divide, as
        # moduli by degree
        big: dict[int, list[Coeffs]] = {}
        for P in self.ramified:
            if s < pdeg(P) <= n:
                big.setdefault(pdeg(P), []).append(P)
        self.big_ramified = [
            self._moduli([list(c) for c in zip(*Ps)][:D]) for D, Ps in sorted(big.items())
        ]
        # per small prime, on its first hit: (degree, the code weights of Q^e
        # for e = 1, 2, ..., and at an unramified Q, Art(Q)^(-e) for
        # e = 1, 2, ... on the symbol cover, if there is one), shared by all
        # the primes of one degree, omega and symbol value
        self.hit_data: list[tuple | None] = [None] * len(self.small)
        self.shared: dict[tuple, tuple] = {}
        # the type code (see the enumeration notes): the key of slot k and
        # the weight of each key met
        self.slots: list[tuple] = []
        self.weights: dict[tuple, int] = {}

    def _moduli(self, mods: list[list[int]]) -> tuple:
        """Monic moduli M of one degree D, as columns (all but the leading
        1), kept only where D < t lists cosets by them, with the columns of
        -a mod M for each a of `shifts`."""
        rems = [_neg_mod_columns(self.F, a, mods) for a in self.shifts]
        return (mods if len(mods) < self.t else None), rems

    def _weight(self, key: tuple) -> int:
        """The weight of a (degree, exponent, omega) key in a type code: the
        next free power of n + 1 the first time the key is met."""
        wt = self.weights.get(key)
        if wt is None:
            wt = self.weights[key] = (self.n + 1) ** len(self.slots)
            self.slots.append(key)
        return wt

    def _decode(self, code: int) -> tuple:
        """The sorted ((degree, exponent, omega), count) items of a type code."""
        base, items = self.n + 1, []
        for key in self.slots:
            if not code:
                break
            code, k = divmod(code, base)
            if k:
                items.append((key, k))
        return tuple(sorted(items))

    def _hit(self, qi: int) -> tuple:
        """The hit data of small prime qi (see `hit_data`)."""
        Q = self.small[qi]
        d = len(Q) - 1
        x = None  # Art(Q) on the symbol cover, where Q is unramified
        if Q in self.ramified or self.symbol is None:
            w = self.spec.coset_class(Q)
        else:
            x = self.arts[qi] if self.arts is not None else self.symbol.artin_symbol(Q)
            # an abelian cover's class is its symbol's value in the table
            w = self.omegas[x] if self.spec.abelian else self.spec.coset_class(Q)
        data = self.shared.get((d, w, x))
        if data is None:
            exps = range(1, self.n // d + 1)
            inv = None if x is None else [self.symbol.group.power(x, -e) for e in exps]
            data = self.shared[d, w, x] = (d, [self._weight((d, e, w)) for e in exps], inv)
        return data

    def _element(self, fb: list[int], i: int) -> Coeffs:
        """f_b + h, h the element of local index i."""
        q, add = self.F.q, self.F.add
        cs = list(fb)
        for k in range(self.t):
            i, digit = divmod(i, q)
            if digit:
                cs[k] = add(cs[k], digit)
        return tuple(cs)

    def _unit_symbol(self, f: Coeffs, roots: dict[int, int], values: list[int]) -> int:
        """The symbol of g = f / prod (T - b)^e over the ramified roots b of
        f, of exponent e, on the Kummer symbol cover with linear places,
        without dividing f; `values` holds f(a) at each place T - a, in the
        cover's order.  At a place that is no root, g(a) = f(a) /
        prod (a - b)^e; at a root b, g(b) is the e-th Taylor coefficient of f
        at b over prod (b - b')^e' over the other roots b'."""
        F, sym = self.F, self.symbol
        sub, mul = F.sub, F.mul
        k = (len(f) - 1 - sum(roots.values())) * sym._deg_dlog
        for (a, table), v in zip(sym._lin_parts, values):
            e = roots.get(a)
            if e:
                v = _taylor(F, f, a, e + 1)[e]
            den = 1
            for b, eb in roots.items():
                if b != a:
                    den = mul(den, F.pow(sub(a, b), eb))
            k += table[F.div(v, den)]
        return k % sym.d

    def tally(self, b: int, lo: int, hi: int, seed: int, counts: Counter) -> int:
        """Add the types of block b's local indices [lo, hi) to counts;
        return how many of them a cover that is not abelian excludes."""
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

        # per element: a linked list of hits (prime index, exponent), newest first
        head = array("i", [-1]) * size
        hq, he, hnext = array("i"), array("i"), array("i")
        # elements with a ramified factor: excluded, or on an abelian cover
        # classified through their unit part or divided
        bad = bytearray(size) if self.ramified else None
        excludes = not self.spec.abelian
        small, ram = self.small, self.ramified

        def listing(mods, rems):
            """The local indices of the elements each modulus M divides, in
            columns (polys._coset_columns), from -f_b mod M: the columns of
            -f0 mod M plus each block digit times those of its -T^j mod M."""
            cols = rems[0]
            for k, digit in digits:
                cols = [
                    [add(x, mul(digit, y)) for x, y in zip(col, dcol)]
                    for col, dcol in zip(cols, rems[k + 1])
                ]
            runs = _coset_columns(F, cols, mods, t)
            if len(cols) > t:  # one column, None where M divides no element
                return next(runs)
            return array("i", chain.from_iterable(runs))

        for first, N, moduli, ramd in self.degrees:
            hits, *powers = [listing(*M) for M in moduli]
            for i in range(N):
                sols = hits[i::N]
                if i in ramd:
                    for j in sols:
                        bad[j] = 1
                    if excludes:
                        continue
                pos = len(hq)
                hq.extend(array("i", [first + i]) * len(sols))
                he.extend(array("i", [1]) * len(sols))
                for pos, j in enumerate(sols, pos):
                    hnext.append(head[j])
                    head[j] = pos
                # Q^e divides only elements Q^(e-1) divides, where Q's entry
                # is, as yet, the newest
                for e, sols in enumerate(powers, 2):
                    for j in sols[i::N]:
                        if j is not None:
                            he[head[j]] = e
        for M in self.big_ramified:
            for j in listing(*M):
                if j is not None:
                    bad[j] = 1

        # classify each element from its hits and its cofactor
        symbol, omegas = self.symbol, self.omegas
        coset = self.spec.coset_class
        if symbol is not None:
            order, gmul = symbol.group.n, symbol.group.table
        # the largest cofactor that is one prime, read from its symbol
        prime = 2 * s + 1 if symbol is not None else 0
        hit_data = self.hit_data
        # an element with a ramified factor is classified through its unit
        # part where every ramified prime is a linear place and a small prime
        units = self.places is not None and not self.big_ramified
        if self.places is not None:
            # per place, f_b(a) and h(a) by index; Art(f) over [lo, hi),
            # the place's table at f(a) = f_b(a) + h(a) read from one row
            # by h(a) (0 where f(a) = 0: those elements are ramified)
            at = [(peval(F, fb, a), vals) for a, _, vals in self.places]
            arts = [n * symbol._deg_dlog] * (hi - lo)
            for (_, table, _), (fa, vals) in zip(self.places, at):
                row = [table[add(fa, v)] or 0 for v in range(q)]
                arts = [x + row[v] for x, v in zip(arts, vals[lo:hi])]
        codes: dict[int, int] = {}
        excluded = 0
        for i in range(lo, hi):
            ramified = bad is not None and bad[i]
            if ramified and excludes:
                excluded += 1
                continue
            code = 0  # the sum of the weights of the element's primes
            c = n  # degree of the cofactor
            g = 0  # the product of Art(Q)^(-e) over the hits
            j = head[i]
            while j >= 0:
                qi, e = hq[j], he[j]
                data = hit_data[qi]
                if data is None:
                    data = hit_data[qi] = self._hit(qi)
                d, wts, inv = data
                code += wts[e - 1]
                c -= d * e
                if inv is not None:
                    g = gmul[g][inv[e - 1]]
                j = hnext[j]
            w = None
            if 0 < c <= prime:
                # a prime cofactor, prime to the ramified primes: its symbol
                # is Art(f) * g, or, past ramified hits, Art(unit part) * g
                if not ramified:
                    if self.places is not None:
                        art = arts[i - lo] % order
                    else:
                        art = symbol.artin_symbol(self._element(fb, i))
                    w = omegas[gmul[art][g]]
                elif units:
                    roots = {}
                    j = head[i]
                    while j >= 0:
                        Q = small[hq[j]]
                        if Q in ram:
                            roots[F.neg(Q[0])] = he[j]
                        j = hnext[j]
                    values = [add(fa, vals[i]) for fa, vals in at]
                    art = self._unit_symbol(self._element(fb, i), roots, values)
                    w = omegas[gmul[art][g]]
            if w is not None:
                code += self._weight((c, 1, w))
            elif c:  # divided out and classified prime by prime
                f = self._element(fb, i)
                j = head[i]
                while j >= 0:
                    f = pdiv(F, f, ppow(F, small[hq[j]], he[j]))
                    j = hnext[j]
                for P, e in _factor_rough(F, f, s, seed):
                    code += self._weight((pdeg(P), e, coset(P)))
            codes[code] = codes.get(code, 0) + 1
        for code, cnt in codes.items():
            counts[self._decode(code)] += cnt
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
