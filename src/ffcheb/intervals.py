"""Short-interval experiments: empirical means of factorization-type functions
against wreath-product predictions.

An interval I(f0, m) is tallied exhaustively (never sampled), one block of
q^t consecutive elements at a time, t as large as 2^14 elements allow: each
block is sieved by the primes of degree at most s = min(n // 2, m + 1), and
what is left of an element is one prime, or, when m + 1 < n // 2, a larger
cofactor of at most c // (s + 1) primes, which polys._factor_rough mostly
splits without factor_raw.  The sieve keeps its residues per degree, as
columns over all the small primes of that degree, so a block updates them
with one pass per digit; a small prime as long as the block divides exactly
one element, and one a degree shorter q elements, all read off its residue
column by column.  A prime cofactor's class is read, with no division, from
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
from typing import Iterable

from .covers import Cover, KummerCover, _taylor, dumps_cover, parse_cover
from .errors import (
    ContextMismatch,
    DomainError,
    IntervalDegenerate,
    TooLarge,
)
from .factypes import ArithFnSpec, FactorizationType, evaluate
from .polys import (
    ENUMERATION_LIMIT,
    Coeffs,
    Poly,
    _coset_indices,
    _coset_rows,
    _divmod_columns,
    _factor_rough,
    pdeg,
    pdiv,
    peval,
    pmod,
    pmul,
    parse_poly,
    pneg,
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
# "Q^e divides f_b + h" is the affine condition h = -f_b mod Q^e, and
# f_b is f0 plus the block number's digits at T^t .. T^m, so -f_b mod Q is
# -(f0 mod Q) plus those digits times -(T^j mod Q).  The sieve keeps these
# per degree d <= s as columns over all the primes of degree d (column k
# holds coefficient k of every residue), each from one column-wise division
# (polys._divmod_columns) in the constructor, and a block updates them with
# one pass per digit.  Two kinds of prime then differ:
#
# - deg Q >= t - 1: the elements Q divides are f_b + h with h = r + c Q,
#   r = -f_b mod Q, c in F_q when deg Q = t - 1 and c = 0 when deg Q = t
#   (which a small prime reaches only when s = t).  Their indices are read
#   off r, and off r + c Q for each c, column by column, and one transpose
#   gives each prime its indices.  With u = -f_b div Q, f_b + h =
#   Q (c - u), so Q^2 divides the one element with c = u mod Q, if that is
#   a constant, and Q^e then exactly when Q^(e-2) divides u div Q: the
#   quotients -(f0 div Q) and -(T^j div Q) come from the same divisions,
#   and are divided by Q again, column by column, while e deg Q <= n.
# - deg Q <= t - 2: the q^(t - deg Q) solutions form a coset, listed by
#   polys._coset_indices as for the prime sieve, from coset rows built once
#   per prime.  Q^e (e * deg Q <= n) is built, with its rows, only once
#   Q^(e-1) has hit, and is solved from -f_b mod Q^e; a chain stops at the
#   first power with no hit.
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
        # the small primes, by degree; per degree d, the index of its first
        # prime, its primes as columns (all but the leading 1), the
        # (quotient, remainder) columns of -f0 and of -T^j per block digit j
        # divided by them, the positions of its ramified primes, and for
        # d < t - 1, per prime, the chain [(Q, its coset rows), (Q^2, ...),
        # ...] of the powers some block has reached
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
            divs = [
                _divmod_columns(F, [[c] * len(primes) for c in pneg(F, a)], cols)
                for a in [self.base] + [(0,) * j + (1,) for j in range(t, I.m + 1)]
            ]
            chains = [[(Q, _coset_rows(F, Q, t - d))] for Q in primes] if d < t - 1 else None
            ram = frozenset(i for i, Q in enumerate(primes) if Q in self.ramified)
            self.degrees.append((d, len(self.small), cols, divs, chains, ram))
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
        # ramified primes beyond the small ones that can still divide, with
        # their coset rows
        self.big_ramified = [
            (P, _coset_rows(F, P, max(t - pdeg(P), 0)))
            for P in self.ramified
            if s < pdeg(P) <= n
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

    def _solve(self, fb: list[int], M: Coeffs, rows: list) -> Iterable[int] | None:
        """The local indices of the block's elements f_b + h that M divides,
        the coset h = -f_b mod M; None when -f_b mod M has degree >= t."""
        F, D = self.F, len(M) - 1
        r = list(pneg(F, pmod(F, fb, M)))
        r += [0] * (D - len(r))
        return None if any(r[self.t:]) else _coset_indices(F, r, D, rows)

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

        def of_block(divs, part):
            """The columns of -f_b div Q (part 0) or -f_b mod Q (part 1):
            those of -f0 plus each block digit times those of its -T^j."""
            cols = divs[0][part]
            for k, digit in digits:
                dcols = divs[k + 1][part]
                cols = [
                    [add(x, mul(digit, y)) for x, y in zip(col, dcol)]
                    for col, dcol in zip(cols, dcols)
                ] + cols[len(dcols):]
            return cols

        for d, first, cols, divs, chains, ramd in self.degrees:
            rem = of_block(divs, 1)
            if chains is None:
                # d >= t - 1: Q divides the q^(t - d) elements f_b + h,
                # h = r + c Q, r = -f_b mod Q and c in F_q (d = t - 1) or
                # c = 0 (d = t), and f_b + h = Q (c - u), u = -f_b div Q.
                # So Q^2 divides the one with c = u mod Q, if that is a
                # constant, and Q^e then exactly when Q^(e-2) divides u div Q
                N = len(cols[0])
                exps, csq = [1] * N, [0] * N  # Q's exponent at its c = u mod Q
                if 2 * d <= n:
                    u = of_block(divs, 0)
                    for e in range(2, n // d + 1):
                        u, r = _divmod_columns(F, u, cols)
                        if e == 2 and d < t:
                            csq, r = r[0], r[1:]
                        live = [x == e - 1 for x in exps]
                        for col in r:
                            live = [x and not y for x, y in zip(live, col)]
                        exps = [x + y for x, y in zip(exps, live)]
                # the index of h per c, its digits column by column
                per_c = []
                for c in range(q if d < t else 1):
                    idx = [c] * N
                    times_c = [mul(c, z) for z in range(q)]
                    for col, qcol in zip(reversed(rem), reversed(cols)):
                        if c:
                            col = [add(y, times_c[z]) for y, z in zip(col, qcol)]
                        idx = [x * q + y for x, y in zip(idx, col)]
                    per_c.append(idx)
                for i, sols in enumerate(zip(*per_c)):
                    if i in ramd:
                        for j in sols:
                            bad[j] = 1
                        if excludes:
                            continue
                    pos = len(hq)
                    hq.extend(array("i", [first + i]) * len(sols))
                    he.extend(array("i", [1]) * len(sols))
                    he[pos + csq[i]] = exps[i]
                    for pos, j in enumerate(sols, pos):
                        hnext.append(head[j])
                        head[j] = pos
                continue
            for i, chain in enumerate(chains):
                qi = first + i
                Q, rows = chain[0]
                sols = _coset_indices(F, [col[i] for col in rem], d, rows)
                if i in ramd:
                    sols = list(sols)
                    for j in sols:
                        bad[j] = 1
                    if excludes:
                        continue
                for j in sols:
                    hq.append(qi)
                    he.append(1)
                    hnext.append(head[j])
                    head[j] = len(hq) - 1
                e = 1
                while (e + 1) * d <= n:  # Q^e is built once Q^(e-1) has hit
                    e += 1
                    if len(chain) < e:
                        Qe = pmul(F, chain[-1][0], Q)
                        chain.append((Qe, _coset_rows(F, Qe, max(t - e * d, 0))))
                    sols = self._solve(fb, *chain[e - 1])
                    if sols is None:
                        break
                    for j in sols:  # Q's entry is the element's newest
                        he[head[j]] = e
        for P, rows in self.big_ramified:
            for j in self._solve(fb, P, rows) or ():
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
