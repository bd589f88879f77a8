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
class is read, with no division, from the Artin symbol of the cover's symbol
cover (`Cover.symbol_cover`), Art(f) times Art(Q)^(-e) over the small prime
powers found, through the cover's table of symbol values.  An abelian cover
is its own symbol cover; a splitting cover's (p odd) is the quadratic symbol
of disc_Y(F), the sign of Frobenius, and its table gives the cycle type where
the sign leaves one: any prime of a quadratic cover, and an odd prime of a
cubic.  Where the symbol cover's symbol is a sum of terms read from Taylor
coefficients at rational places (`Cover.places`: Kummer covers whose places
are linear, Artin-Schreier covers with a constant polynomial part and
rational poles, and their products), every symbol is read there, from
per-interval tables of the coefficients of the h of degree < t: a small
prime's, T^d + h, at h's index, an element's from rows per place and block,
and that of an element with a ramified factor from its unit part
f / prod (T - b)^e, whose Taylor coefficients are f's.  Only where the
table does not give it is the cofactor divided out and classified on its
own: at the other primes of splitting covers, at elements with a ramified
factor on the other abelian covers, and for the larger cofactors.  An
element's factorization type is summed as one integer code, a digit in base
n + 1 per (degree, exponent, Frobenius) key, and each block decodes its
distinct codes into sorted types once.  Per-block tallies of factorization
types merge associatively, so the result is independent of the chunking and
safe to compute in parallel.  One pass per interval is shared by every
function evaluated on it.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .covers import Cover, dumps_cover, parse_cover
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
    _log_derivative,
    _neg_mod_columns,
    _taylor,
    pdeg,
    pdiv,
    pdivmod,
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
# these per degree d <= s and exponent e as columns over all the primes of
# degree d (column k holds coefficient k of every residue), from the columns
# of Q^e (_mul_columns) and one column-wise division each
# (polys._neg_mod_columns) in the constructor, and a block updates them with
# one pass per digit.  One listing per (degree, exponent) then gives every
# prime its elements, and a prime's powers are written right after its own
# hits, so that Q's entry is each element's newest when Q^e sets its
# exponent.  The columns run up to the first e with e d > t, and never past
# e d = n: a Q^e of degree > t divides at most one element of a block, so
# Q^(e+1), ... can divide only that one, and are tested on it by division.
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
# k = 3 and odd).
#
# A symbol cover whose symbol is a sum of terms at rational places
# (Cover.places, covers.PlaceSymbol) has every symbol read from
# Taylor coefficients a_k of f at those places, with no artin_symbol call:
# a Kummer cover whose places T - a are all linear takes table[f(a)] per
# place (reciprocity, Res(T - a, f) = f(a); see KummerCover.artin_symbol),
# and an Artin-Schreier cover with a constant polynomial part c_0 and only
# rational poles takes deg f Tr(c_0) and, at a pole b with principal part
# sum_i c_i (T - b)^(-i), sum_i Tr(-c_i g_(i-1)), g_j the coefficients of
# f'/f at b, so g_0 = a_1 / a_0 at a simple pole (the residue theorem; see
# ArtinSchreierCover.artin_symbol); a product adds its components' terms,
# each weighted by its place in the encoded element.  The a_k come from
# per-interval tables of a_k(h) over deg h < t: a small prime T^d + h,
# d <= s <= t, adds a_k(T^d) to the entries at h's index, and an element,
# f_b + h, adds f_b's, read through rows per place and block by the values
# of a_k(h), and at a simple pole by their logs.  At
# an element with a ramified factor, where Art(f) is undefined, the sieve
# reads the symbol of its unit part g = f / prod (T - b)^e over the ramified
# roots b found: at a root b, f / (T - b)^e has f's Taylor coefficients from
# index e on (polys._taylor); at every place the other roots b' multiply
# the coefficients by the series of prod (T - b')^(-e') there, one per
# pattern of roots, and the block's unit parts are read like its elements,
# one pass per degree.
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
# omega and symbol value; its omega there is the symbol cover's table at the
# Artin symbol that the hit data keep anyway, and only a ramified prime, or
# one whose symbol leaves the class open, asks coset_class.  A cofactor's prime
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


def _series_mul(F: Field, a: list[int], b: list[int]) -> list[int]:
    """The first len(a) coefficients of the product of power series a and b."""
    add, mul = F.add, F.mul
    out = []
    for j in range(len(a)):
        x = mul(a[0], b[j])
        for i in range(1, j + 1):
            x = add(x, mul(a[i], b[j - i]))
        out.append(x)
    return out


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
        # where the symbol cover's symbols are read from Taylor coefficients
        # at rational places (covers.PlaceSymbol): per place b, the most
        # coefficients past a_0 a term there reads, and per coefficient k up
        # to that, the table of a_k(h) at b over the h of degree < t, by index
        self.places = self.symbol.places if self.symbol is not None else None
        self.depth: dict[int, int] = {}
        for sym in self.places or ():
            for b, _ in sym.values:
                self.depth.setdefault(b, 0)
            for b, tables in sym.poles:
                self.depth[b] = max(self.depth.get(b, 0), len(tables))
        # x + y by [y][x], for the tables' digits past the first
        adds = None
        if self.depth and t > 1:
            adds = [[F.add(x, y) for x in range(q)] for y in range(q)]
        self.h_taylor = {
            b: [self._h_taylor(b, k, adds) for k in range(r + 1)] for b, r in self.depth.items()
        }
        # per pattern of ramified roots an element has, `_unit_series`
        self.unit_series: dict[tuple, dict] = {}
        # per component and simple pole, its table read through F_q's exp
        # table, u -> table[exp[u]], with 0 from index 2q - 1 on, so that a
        # sum of two logs that has 2q - 1, the log the rows give 0, reads 0
        exp = F._exp + [0] * (2 * q)
        self.exp_tables = [
            [[ts[0][x] for x in exp] if len(ts) == 1 else None for _, ts in sym.poles]
            for sym in self.places or ()
        ]
        # what -f_b mod M is made of: -f0, and -T^j per block digit j
        self.shifts = [self.base] + [(0,) * j + (1,) for j in range(t, I.m + 1)]
        # the small primes, by degree; per degree d, the index of its first
        # prime, their number, the moduli (see _moduli) Q^e over its primes
        # for e = 1, 2, ... while (e - 1) d <= t, the positions of its
        # ramified primes, and whether Q^e with e d <= n is left past them:
        # the last has degree > t, so it divides at most one element, on
        # which the higher powers are tested
        self.small: list[Coeffs] = []
        self.degrees = []
        # per small prime, its encoded symbol on the symbol cover, read from
        # its Taylor coefficients at the places (None without places): Q =
        # T^d + h with deg h < d <= t, so a_k(Q) = a_k(T^d) + a_k(h), the
        # entry of `h_taylor` at the index of h
        self.arts: list[int] | None = [] if self.places is not None else None
        for d in range(1, s + 1):
            primes = primes_of_degree(F, d)
            cols = [list(c) for c in zip(*primes)][:d]
            powers = [cols]
            while (len(powers) + 1) * d <= n and len(powers) * d <= t:
                powers.append(_mul_columns(F, powers[-1], cols))
            ram = frozenset(i for i, Q in enumerate(primes) if Q in self.ramified)
            moduli = [self._moduli(M) for M in powers]
            beyond = (len(powers) + 1) * d <= n
            self.degrees.append((len(self.small), len(primes), moduli, ram, beyond))
            self.small.extend(primes)
            if self.arts is not None:
                index, scale = [0] * len(primes), 1
                for col in cols:
                    index = [i + c * scale for i, c in zip(index, col)]
                    scale *= q
                at = {}
                for b, r in self.depth.items():
                    A = _taylor(F, (0,) * d + (1,), b, r + 1)  # a_k(T^d)
                    at[b] = [(a, [H[i] for i in index]) for a, H in zip(A, self.h_taylor[b])]
                self.arts.extend(self._symbols(at, len(primes), d))
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
        # Art(Q) on the symbol cover, where Q is unramified, and the class
        # its value gives, where it gives one
        x = w = None
        if Q not in self.ramified and self.symbol is not None:
            x = self.arts[qi] if self.arts is not None else self.symbol.artin_symbol(Q)
            w = self.omegas[x]
        if w is None:
            w = self.spec.coset_class(Q)
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

    def _h_taylor(self, b: int, k: int, adds: list | None) -> array:
        """a_k(h) at b, the coefficient of (T - b)^k in h, for every h of
        degree < t, by index: digit j adds c binom(j, k) b^(j - k), through
        the row of additions of each c binom(j, k) b^(j - k) (`adds`)."""
        F, q = self.F, self.F.q
        mul = F.mul
        vals = [0]
        for j in range(self.t):
            w = mul(F.scalar(math.comb(j, k)), F.pow(b, j - k)) if j >= k else 0
            scaled = [mul(c, w) for c in range(q)]
            if j == 0:
                vals = scaled
                continue
            vals = [row[v] for y in scaled for row in [adds[y]] for v in vals]
        return array("i", vals)

    def _symbols(self, at: dict, count: int, deg: int) -> list[int]:
        """The encoded symbols, on the symbol cover, of `count` monics of
        degree deg prime to its places, from their Taylor coefficients
        there: at[b][k] = (A, H) where coefficient k at place b of monic i
        is A + H[i].  Each table is read through one row over F_q by the
        values of H.  At a simple pole g_0 = a_1 / a_0 is one lookup in
        `exp` by the logs of a_1 and 1 / a_0; a pole of order m > 1 reads
        g_0 .. g_(m-1) monic by monic (polys._log_derivative)."""
        F = self.F
        q, add, log = F.q, F.add, F._log
        zero = 2 * q - 1  # the log the rows give 0 (see exp_tables)

        def row(fn, A):
            return [fn(add(A, v)) for v in range(q)]

        codes = None
        for sym, exp_tables in zip(self.places, self.exp_tables):
            # the symbol mod order is the degree term plus lookup[key] over
            # the (lookup, keys) terms, key the monic's
            terms = []
            for a, table in sym.values:
                A, H = at[a][0]
                # table[0] is None: a ramified element, whose symbol is read
                # from its unit part
                terms.append((row(lambda v: table[v] or 0, A), H))
            for (b, tables), texp in zip(sym.poles, exp_tables):
                m = len(tables)
                if m == 1:
                    (A0, H0), (A1, H1) = at[b][:2]
                    inv = row(lambda v: q - 1 - log[v] if v else zero, A0)
                    l1 = row(lambda v: log[v] if v else zero, A1)
                    terms.append((texp, [l1[u] + inv[v] for u, v in zip(H1, H0)]))
                else:
                    cols = []
                    for A, H in at[b][: m + 1]:
                        vals = row(lambda v: v, A)
                        cols.append([vals[v] for v in H])
                    # a monic with a_0 = 0 is ramified, read from its unit part
                    g = [_log_derivative(F, a, m) if a[0] else (0,) * m for a in zip(*cols)]
                    terms.extend(zip(tables, zip(*g)))
            # the last term's pass also reduces, and adds to the other
            # components' codes
            last, keys = terms.pop() if terms else ((0,), bytes(count))
            arts = [deg * sym.degree_term] * count
            for lookup, ks in terms:
                arts = [x + lookup[k] for x, k in zip(arts, ks)]
            order, weight = sym.order, sym.weight
            if codes is None:
                codes = [(x + last[k]) % order * weight for x, k in zip(arts, keys)]
            else:
                codes = [
                    c + (x + last[k]) % order * weight for c, x, k in zip(codes, arts, keys)
                ]
        return [0] * count if codes is None else codes

    def _unit_symbols(self, fb: list[int], at: dict, lo: int, found: list) -> list[int]:
        """The encoded symbols, on the symbol cover with place symbols, of
        the unit parts g = f / prod (T - b)^e of the elements (i, roots, ...)
        of `found`, in order, over their ramified roots b of exponent e,
        without dividing f.  At a root b, f / (T - b)^e has f's Taylor
        coefficients from index e on (polys._taylor); at another place,
        f's (A + H[i - lo] of at, as in `_symbols`).  g's are those times
        the series of prod (T - b')^(-e') over the other roots b'
        (`_unit_series`), and `_symbols` reads them, one call per degree of
        g."""
        F = self.F
        add, mul = F.add, F.mul
        # per degree of g: the positions of its elements in found, and per
        # place their coefficients
        groups: dict[int, tuple] = {}
        for pos, (i, roots, *_) in enumerate(found):
            key = tuple(roots.items())
            series = self.unit_series.get(key)
            if series is None:
                series = self.unit_series[key] = self._unit_series(roots)
            f = self._element(fb, i)
            deg = len(f) - 1 - sum(roots.values())
            group = groups.get(deg)
            if group is None:
                group = groups[deg] = ([], {b: [] for b in self.depth})
            group[0].append(pos)
            for b, r in self.depth.items():
                e = roots.get(b)
                if e:
                    a = _taylor(F, f, b, e + r + 1)[e:]
                else:
                    a = [add(A, H[i - lo]) for A, H in at[b]]
                # where only the value is read, one product
                s = series[b]
                group[1][b].append(_series_mul(F, a, s) if r else [mul(a[0], s[0])])
        out = [0] * len(found)
        for deg, (positions, coeffs) in groups.items():
            rows = {b: [(0, H) for H in zip(*cs)] for b, cs in coeffs.items()}
            for pos, art in zip(positions, self._symbols(rows, len(positions), deg)):
                out[pos] = art
        return out

    def _unit_series(self, roots: dict[int, int]) -> dict:
        """Per place b, the Taylor coefficients there, as far as `depth`
        reads, of prod (T - b')^(-e') over the ramified roots b' != b, of
        exponent e', from 1 / (T - b') = -sum_j (T - b)^j / (b' - b)^(j + 1)."""
        F = self.F
        out = {}
        for b, r in self.depth.items():
            series = [1] + [0] * r
            for b2, e2 in roots.items():
                if b2 != b:
                    c = F.inv(F.sub(b2, b))
                    inv = [F.neg(F.pow(c, j + 1)) for j in range(r + 1)]
                    for _ in range(e2):
                        series = _series_mul(F, series, inv)
            out[b] = series
        return out

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

        for first, N, moduli, ramd, beyond in self.degrees:
            hits, *powers = [listing(*M) for M in moduli]
            top = len(moduli)
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
                if beyond:
                    # Q^top, of degree > t, divides this one element at
                    # most: Q^(top + 1), ... are tested on it
                    for j in powers[-1][i::N]:
                        if j is not None:
                            Q, e = small[first + i], top
                            f = pdiv(F, self._element(fb, j), ppow(F, Q, e))
                            while True:
                                f, r = pdivmod(F, f, Q)
                                if r:
                                    break
                                e += 1
                            he[head[j]] = e
        for M in self.big_ramified:
            for j in listing(*M):
                if j is not None:
                    bad[j] = 1

        # classify each element from its hits and its cofactor
        symbol, omegas = self.symbol, self.omegas
        coset = self.spec.coset_class
        if symbol is not None:
            gmul = symbol.group.table
        # the largest cofactor that is one prime, read from its symbol
        prime = 2 * s + 1 if symbol is not None else 0
        hit_data = self.hit_data
        # where every ramified prime is a place and a small prime, an element
        # with a ramified factor and a prime cofactor is read through its unit
        # part, once the block's are known: (element, roots, code, c, g)
        units = self.places is not None and not self.big_ramified
        pending = []
        if self.places is not None:
            # per place, f_b's Taylor coefficients and those of h by index,
            # over [lo, hi); the symbols of the elements prime to the places
            at = {
                b: list(zip(_taylor(F, fb, b, r + 1), (H[lo:hi] for H in self.h_taylor[b])))
                for b, r in self.depth.items()
            }
            arts = self._symbols(at, hi - lo, n)
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
                        art = arts[i - lo]
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
                    pending.append((i, roots, code, c, g))
                    continue
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
        if pending:  # on an abelian cover, whose table decides every value
            unit_arts = self._unit_symbols(fb, at, lo, pending)
            for (_, _, code, c, g), art in zip(pending, unit_arts):
                code += self._weight((c, 1, omegas[gmul[art][g]]))
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
    the number excluded (splitting covers only); summed in integers (Fractions
    only for a table function)."""
    counts, excluded = interval_lambda_counts(spec, I, seed, threads)
    total = 0
    for entries, cnt in counts.items():
        v = evaluate(fn, FactorizationType(dict(entries)), spec.group)
        if v:
            total += v * cnt
    denom = I.size() - excluded
    return (Fraction(total, denom) if denom else Fraction(0)), excluded


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
    with predicted mass 0.  Counts and class sizes stay integers: the TV
    distance is sum |cnt order - size denom| (the bucket adding its count
    times order) over 2 order denom."""
    counts, excluded = interval_lambda_counts(spec, I, seed, threads)
    size = I.size()
    denom = size - excluded
    G = spec.group
    n = I.n
    order = G.n**n * math.factorial(n)
    sizes = dict(class_type_table(G, n))
    counted: dict[FactorizationType, int] = {}
    nsf_count = 0
    for entries, cnt in counts.items():
        lam = FactorizationType(dict(entries))
        if lam.supported_on_squarefree():
            counted[lam] = cnt
        else:
            nsf_count += cnt
    nsf_emp = Fraction(nsf_count, denom) if denom else Fraction(0)
    rows = []
    dev = nsf_count * order
    for lam in sorted(sizes.keys() | counted.keys(), key=lambda l: l.entries):
        cnt, sz = counted.get(lam, 0), sizes.get(lam, 0)
        e = Fraction(cnt, denom) if denom else Fraction(0)
        rows.append(CensusRow(lam, cnt, e, Fraction(sz, order)))
        dev += abs(cnt * order - sz * denom)
    # with every element excluded, the empirical masses are all 0
    tv = Fraction(dev, 2 * order * denom) if denom else Fraction(1, 2)
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
