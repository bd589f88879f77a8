"""Concrete models of geometric G-Galois covers of the projective line.

Four kinds:

  * Kummer: y^d = D(T) with d | q-1; the group is Z/d identified through the
    canonical d-th root of unity, and Frobenius at P is the d-th power residue
    symbol of D mod P, read by reciprocity from the factors Q of D: (P/Q)_d
    is the norm Res(Q, P) of P mod Q to the power (q-1)/d, so its dlog is the
    discrete log of Res(Q, P) mod d, with no power modulo P.
  * ArtinSchreier: y^p - y = D(T) with D a rational function, reduced pole
    by pole from one partial-fraction decomposition (no positive-degree
    monomial with exponent divisible by p, no pole order divisible by p);
    Frobenius is the absolute trace of D mod P, read by the residue theorem
    from those poles (and, for a polynomial part forced wild at infinity,
    the power sums of P), with no inverse modulo P.
  * Product: several cyclic covers over the same field, Frobenius taken
    componentwise into the direct product group; components ramified at one
    place must have coprime orders.
  * Splitting: the splitting field of a monic-in-Y bivariate F(T, Y), with a
    user-asserted permutation group and a cycle-type -> class table; Frobenius
    is read off the degrees of the factors of F mod P, or, for p odd, off its
    sign where the sign leaves one cycle type: the quadratic symbol of
    disc_Y(F), read by the Kummer reciprocity of `KummerCover.artin_symbol`.
    disc_Y(F) is computed in F_q[T], never over F_q(T): the power sums of the
    roots by Newton's identities, then their Hankel determinant by exact
    Bareiss elimination (`_y_discriminant`).

Each cyclic cover builds once, in its constructor, the part of its symbol
that rational places give (`place_symbol`, a `PlaceSymbol`: a term per degree
of f, tables of f(a) at D's linear factors T - a and of f'/f at rational
poles), and its `artin_symbol` is that symbol's `evaluate` plus the rest: the
resultants at D's nonlinear factors, or the forced-wild polynomial part and
the other poles.  `places` holds the place symbols, one per component,
weighted for the product group, where they give the whole symbol, else None:
the interval sieve reads its symbols through them.

Everything a prime can ask for flows through the coset-class catalog of the
group: `coset_class` returns a catalog index even at ramified primes (cyclic
and product covers), which is what the norm-counting functions consume.
Each cover fixes its ramified primes once, in `_ram`, and every kind shares
one coset path, through `symbol_cover()`: a cover whose Artin symbol is
multiplicative off its `_ram` (an abelian kind itself, a splitting cover its
sign character) and the catalog index of each symbol value, None where the
symbol leaves the class open.  On `_ram` the path takes the kind's
`_ramified_omega` (the inertia coset of a Kummer cover, the whole group of an
Artin-Schreier cover, the componentwise product of a product cover), and at
a None the kind's `_residue_omega`.  Other modules ask `abelian`, never the
class of a cover.

A cover is checked when it is built, so every cover that exists is one the
counts hold for: each constructor refuses a cover that is not geometric, a
wild place at infinity without `force_wild`, components that do not combine
componentwise, and a splitting cover whose asserted group or cycle-type
table its discriminant or census contradicts.  Kummer is the one exception:
`KummerCover` is also the quadratic residue symbol of a splitting cover's
discriminant, which may be a constant times a square, so `kummer()`, which
`parse_cover` builds through, and `ProductCover`, for each Kummer component,
refuse a non-geometric D.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    AmbiguousCycleType,
    ContextMismatch,
    CoverFileError,
    DivisionByZero,
    DomainError,
    InvariantViolated,
    NotAbelian,
    NotComponentwise,
    NotDividing,
    NotGeometric,
    NotIrreducible,
    PolyParseError,
    RamifiedPrime,
    RamifiedSplittingCover,
    UserGenusRequired,
    WildAtInfinity,
    ZeroPolynomial,
)
from .ffield import Field, prime_factors
from .groups import (
    GroupTable,
    cycle_type,
    cycles_text,
    parse_cycles,
    partition_parity,
    partitions,
)
from .polys import (
    Coeffs,
    Poly,
    RationalFn,
    _ddf,
    _frobenius,
    _log_derivative,
    _taylor,
    canonical_key,
    factor_raw,
    is_irreducible_raw,
    padd,
    parse_poly,
    pderiv,
    pdeg,
    pdiv,
    pdivmod,
    pinvmod,
    pmod,
    pmul,
    pnorm,
    power_sums,
    ppow,
    primes_of_degree,
    pscale,
    psub,
    residue_field,
    resultant_raw,
)


@dataclass(frozen=True)
class SplittingData:
    """(ramification index, inertia degree, number of primes above)."""

    e: int
    f: int
    g: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.e, self.f, self.g)


INFINITY = "infinity"  # the infinite place, as a key of a character's conductor
Place = Coeffs | str


class PlaceSymbol:
    """A cyclic Artin symbol, or its part at rational places, read from
    Taylor coefficients there: for a monic f prime to the places it is

        Art(f) = deg f * degree_term + sum of the places' terms  (mod order),

    with the term table[a_0] at a place (a, table) of `values`, a_0 = f(a),
    and sum_j tables[j][g_j] at a place (b, tables) of `poles`, g_j the
    coefficient of (T - b)^j in f'/f.  Each table runs over F_q (a value
    table is None at 0).  The symbol is `weight` times its value in the
    encoded element of the cover's group (`GroupTable.encode_product`).  A
    slotted class, not a frozen dataclass, whose generated methods would be
    compiled at every import."""

    __slots__ = ("order", "weight", "degree_term", "values", "poles")

    def __init__(
        self, order: int, weight: int, degree_term: int, values: tuple = (), poles: tuple = ()
    ):
        self.order, self.weight, self.degree_term = order, weight, degree_term
        self.values, self.poles = values, poles

    def evaluate(self, F: Field, f: Coeffs) -> int:
        """The symbol of one monic f, mod order; RamifiedPrime where f meets
        a place.  A value, and f(b) and f'(b) at a simple pole b, take one
        Horner pass; a pole of order m > 1 reads g_0 .. g_(m-1) from f's
        first m + 1 Taylor coefficients there (`polys._log_derivative`)."""
        if not f or f[-1] != 1:
            raise DomainError("the Artin symbol needs a monic polynomial")
        mul, add = F.mul, F.add
        k = (len(f) - 1) * self.degree_term
        for a, table in self.values:
            v = 0
            for c in reversed(f):
                v = add(mul(v, a), c)
            if not v:
                raise RamifiedPrime(f"{Poly._raw(F, f)!r} meets a ramified place")
            k += table[v]
        for b, tables in self.poles:
            if len(tables) == 1:
                v = dv = 0
                for c in reversed(f):
                    dv = add(mul(dv, b), v)
                    v = add(mul(v, b), c)
                if not v:
                    raise RamifiedPrime(f"{Poly._raw(F, f)!r} meets a ramified place")
                k += tables[0][F.div(dv, v)]
                continue
            a = _taylor(F, f, b, len(tables) + 1)
            if not a[0]:
                raise RamifiedPrime(f"{Poly._raw(F, f)!r} meets a ramified place")
            for table, g in zip(tables, _log_derivative(F, a, len(tables))):
                k += table[g]
        return k % self.order


class Cover:
    """Shared plumbing for all cover kinds."""

    kind = "abstract"
    abelian = True  # Frobenius is an element, (e, f, g) known at every place
    group_provenance = "computed"
    wild_override = False  # built under force_wild with a wild place at infinity
    _ram: frozenset[Coeffs] = frozenset()  # the ramified finite primes
    # the Artin symbol as one `PlaceSymbol` per cyclic component, where
    # Taylor coefficients at rational places give all of it, else None
    places: tuple[PlaceSymbol, ...] | None = None

    def __init__(self, ctx: Field):
        self.ctx = ctx
        self._omega_cache: dict[Coeffs, int] = {}

    # -- subclass hooks

    def _ramified_omega(self, P: Coeffs) -> int:
        raise NotImplementedError

    def _residue_omega(self, P: Coeffs) -> int:
        raise NotImplementedError

    def symbol_cover(self) -> tuple[Cover | None, tuple]:
        """(the cover whose Artin symbol is multiplicative on the monics
        prime to its `_ram`, the catalog index of each symbol value or None
        where the symbol leaves the class open); (None, ()) when no symbol
        helps.  An abelian kind is its own symbol cover."""
        return self, self.group.class_to_omega

    def _coset_raw(self, P: Coeffs) -> int:
        """The one coset path: the kind's `_ramified_omega` at a P in `_ram`
        or in the symbol cover's, else the omega of P's symbol, else, where
        the symbol leaves the class open, the kind's `_residue_omega`."""
        art, table = self.symbol_cover()
        if P in self._ram or art is not None and P in art._ram:
            return self._ramified_omega(P)
        w = table[art.artin_symbol(P)] if art is not None else None
        return self._residue_omega(P) if w is None else w

    # -- shared API

    def _prime_coeffs(self, P) -> Coeffs:
        if isinstance(P, Poly):
            cs = P.coeffs
        elif isinstance(P, tuple) and P and P[-1]:
            cs = P  # already normalized: the caches key this very tuple
        else:
            cs = pnorm(P)
        if not cs or cs[-1] != 1 or pdeg(cs) < 1:
            raise DomainError("expected a monic polynomial of degree >= 1")
        return cs

    def coset_class(self, P) -> int:
        """Catalog index in Omega_G of the Frobenius coset at P."""
        cs = self._prime_coeffs(P)
        cached = self._omega_cache.get(cs)
        if cached is None:
            cached = self._omega_cache[cs] = self._coset_raw(cs)
        return cached

    def frobenius_class(self, P) -> int:
        """Conjugacy-class index of Frobenius at an unramified prime."""
        cs = self._prime_coeffs(P)
        if not is_irreducible_raw(self.ctx, cs):
            raise NotIrreducible(f"{Poly._raw(self.ctx, cs)!r} is not a prime of F_q[T]")
        if cs in self._ram:
            raise RamifiedPrime(f"{Poly._raw(self.ctx, cs)!r} ramifies in the cover")
        return self.group.omega_to_class[self.coset_class(cs)]

    def class_counts(self, n: int) -> list[int]:
        """Number of unramified primes of degree n whose Frobenius lies in
        each conjugacy class, indexed by class."""
        to_class = self.group.omega_to_class
        counts = [0] * len(self.group.classes)
        for P in primes_of_degree(self.ctx, n):
            if P not in self._ram:
                counts[to_class[self.coset_class(P)]] += 1
        return counts

    def splitting_data(self, P) -> SplittingData:
        oc = self.group.omega[self.coset_class(P)]
        return SplittingData(oc.e, oc.f, oc.g)

    def infinity_data(self) -> SplittingData:
        oc = self.group.omega[self._infinity_omega()]
        return SplittingData(oc.e, oc.f, oc.g)

    def _infinity_omega(self) -> int:
        raise NotImplementedError

    def ramified_primes(self) -> list[Poly]:
        return [
            Poly._raw(self.ctx, cs)
            for cs in sorted(self._ram, key=canonical_key)
        ]

    def _character_conductor(self, a: int) -> dict[Place, int]:
        """{place: exponent} of the conductor of the character indexed by
        the group element a, over the finite primes and `INFINITY`; places
        with exponent 0 are left out."""
        raise NotImplementedError

    def genus(self) -> int:
        """Conductor-discriminant genus of an abelian kind:
        2g - 2 = -2|G| + sum over chi != 1 of deg f_chi."""
        total = -2 * self.group.n
        for a in range(1, self.group.n):
            cond = self._character_conductor(a)
            total += sum(e * (1 if v == INFINITY else pdeg(v)) for v, e in cond.items())
        return _genus_from_total(total)

    def uniform_degree(self) -> int:
        """n0 of an abelian kind, the degree of the lcm of the characters'
        finite conductors plus the largest wild excess a_inf - 1 at infinity:
        from degree n0 on, Frobenius over the monics of degree n prime to the
        ramified primes is uniform on G (see `zeta`)."""
        top: dict[Place, int] = {}
        for a in range(1, self.group.n):
            for v, e in self._character_conductor(a).items():
                top[v] = max(top.get(v, 0), e)
        wild = top.pop(INFINITY, 1) - 1
        return sum(e * pdeg(P) for P, e in top.items()) + wild

    def summary(self) -> dict:
        try:
            g = self.genus()
        except UserGenusRequired:
            g = None
        return {
            "kind": self.kind,
            "q": self.ctx.q,
            "group_order": self.group.n,
            "genus": g,
            "tame_at_infinity": self.tame_at_infinity(),
            "group_provenance": self.group_provenance,
        }


class TrivialCover(Cover):
    """E = F_q(T) itself: one-element group, everything splits."""

    kind = "trivial"
    places: tuple[PlaceSymbol, ...] = ()  # no component: every symbol is 0

    def __init__(self, ctx: Field):
        super().__init__(ctx)
        self.group = GroupTable.cyclic(1)

    def artin_symbol(self, f: Coeffs) -> int:
        return 0

    def tame_at_infinity(self) -> bool:
        return True

    def _infinity_omega(self) -> int:
        return self.group.class_to_omega[0]


def trivial(ctx: Field) -> TrivialCover:
    return TrivialCover(ctx)


def _genus_from_total(total: int) -> int:
    """Genus from a Riemann-Hurwitz total 2g - 2, which must be even and at
    least -2; anything else means the cover model is inconsistent."""
    if total % 2 or total < -2:
        raise NotGeometric(
            f"Riemann-Hurwitz gives 2g - 2 = {total}; the cover model is inconsistent"
        )
    return (total + 2) // 2


# ---------------------------------------------------------------------------
# Kummer covers


class KummerCover(Cover):
    """y^d = D(T), d | q-1.  D is stored with multiplicities reduced mod d.

    The constructor takes any nonzero D, as the residue symbol of y^d = D;
    `kummer()` and `ProductCover` refuse, by `require_geometric`, a D that
    gives no geometric cover.  `factored` is D's `factor_raw`, where the
    caller has it already."""

    kind = "kummer"

    def __init__(self, ctx: Field, d: int, D: Poly, factored: tuple | None = None):
        super().__init__(ctx)
        if D.ctx is not ctx:
            raise ContextMismatch("D over the wrong field")
        if D.is_zero():
            raise ZeroPolynomial("Kummer datum D must be nonzero")
        if d < 2:
            raise DomainError("Kummer degree must be >= 2")
        # before the group table, whose cost grows with d
        if (ctx.q - 1) % d != 0:
            raise NotDividing(f"d = {d} does not divide q - 1 = {ctx.q - 1}")
        self.d = d
        self.group = GroupTable.cyclic(d)
        unit, parts = factored or factor_raw(ctx, D.coeffs, seed=0)
        reduced = [(P, m % d) for P, m in parts if m % d != 0]
        self.parts = tuple(reduced)
        self._ram = frozenset(P for P, _ in reduced)
        self.unit = unit
        cs: Coeffs = (unit,)
        for P, m in reduced:
            for _ in range(m):
                cs = pmul(ctx, cs, P)
        self.D = Poly._raw(ctx, cs)
        # what `artin_symbol` reads.  The dlog of a residue symbol is a log
        # read mod d: the symbol of a nonzero value v is v^((q-1)/d) =
        # zeta^(log v), zeta = g^((q-1)/d).  Per linear place T - a of D, of
        # multiplicity m, a table takes f(a) to m times the dlog of its
        # symbol; the term per degree of f is the unit's symbol and the
        # reciprocity sign of every part Q^m, m * deg Q summing to deg D
        log = ctx._log
        values = tuple(
            (ctx.neg(Q[0]), [None] + [m * log[v] % d for v in range(1, ctx.q)])
            for Q, m in reduced
            if len(Q) == 2
        )
        deg_term = (log[unit] + self.D.degree * log[ctx.neg(1)]) % d
        self.place_symbol = PlaceSymbol(d, 1, deg_term, values=values)
        self._nonlin_parts = tuple((Q, m) for Q, m in reduced if len(Q) > 2)
        self.places = None if self._nonlin_parts else (self.place_symbol,)

    def require_geometric(self) -> None:
        """Refuse a D that gives no geometric Z/d extension: a constant times
        a dp-th power for a prime dp | d."""
        for dp in prime_factors(self.d):
            if all(m % dp == 0 for _, m in self.parts):
                raise NotGeometric(
                    f"D is a constant times a {dp}-th power; the cover is not a "
                    f"geometric Z/{self.d} extension"
                )

    def artin_symbol(self, f: Coeffs) -> int:
        """dlog of the d-th power residue symbol (D/f)_d, for any monic f
        coprime to D, without a power modulo f.

        d-th power reciprocity (Rosen, GTM 210, Thm 3.3) gives
        (Q/f)_d = (-1)^((q-1)/d * deg f * deg Q) (f/Q)_d for monic Q, and
        (u/f)_d = (u^((q-1)/d))^(deg f) for a constant u.  Every term is
        multiplicative in f, so f need not be prime.  (f/Q)_d is the norm of
        f mod Q to the power (q-1)/d, and that norm is the resultant
        Res(Q, f) (Rosen, ch. 3), so its dlog is log Res(Q, f) mod d: a table
        lookup of f(a) when Q = T - a (`place_symbol`, with the unit and
        sign terms) and one resultant against the small fixed Q otherwise.
        """
        F = self.ctx
        k = self.place_symbol.evaluate(F, f)
        for Q, m in self._nonlin_parts:
            r = resultant_raw(F, Q, f)
            if not r:
                raise RamifiedPrime(f"{Poly._raw(F, f)!r} shares a factor with D")
            k += m * F._log[r]
        return k % self.d

    def _ramified_omega(self, P: Coeffs) -> int:
        """The inertia coset at a part P of D, of multiplicity v."""
        F = self.ctx
        v = next(m for Q, m in self.parts if Q == P)
        # unit part with uniformizer pi = P, and the dlog of its symbol
        u = self.D.coeffs
        for _ in range(v):
            u = pdiv(F, u, P)
        r = resultant_raw(F, P, u)
        if not r:
            raise InvariantViolated("the unit part of D is not coprime to P")
        return self._inertia_omega(F._log[r], v)

    def _inertia_omega(self, k: int, v: int) -> int:
        """The class of the coset k + <gcd(d, v)> of Z/d: Frobenius k over the
        inertia group of a place where D has valuation v."""
        step = math.gcd(self.d, v)
        return self.group.omega_of_coset(range(k % step, self.d, step))

    def _character_conductor(self, a: int) -> dict[Place, int]:
        """Every ramified place is tame: exponent 1 where the character is
        nontrivial on inertia, a * v(D) not divisible by d."""
        d = self.d
        cond: dict[Place, int] = {P: 1 for P, m in self.parts if a * m % d}
        if a * self.D.degree % d:
            cond[INFINITY] = 1
        return cond

    def tame_at_infinity(self) -> bool:
        return True  # d | q-1 forces d coprime to p

    def _infinity_omega(self) -> int:
        return self._inertia_omega(self.ctx._log[self.D.coeffs[-1]], self.D.degree)


# ---------------------------------------------------------------------------
# Artin-Schreier covers


def _as_parts(D: RationalFn) -> tuple[Coeffs, tuple[tuple[Coeffs, int, Coeffs], ...]]:
    """(poly, ((P, m, w), ...)): D = poly + sum over its poles P of w / P^m
    modulo g^p - g, reduced: no monomial c T^j of poly with p | j >= 1, no
    pole order m divisible by p, deg w < m deg P and P not dividing w.

    D's denominator is factored once.  c T^(pj) becomes c^(1/p) T^j.  At a
    pole of order m = ps, with h^p = w mod P in F_q[T]/P, h^p / P^m - h / P^s
    has no other pole and no polynomial part, and subtracting it leaves a
    numerator divisible by P: each pole is lowered on its own."""
    F, p = D.ctx, D.ctx.p
    quo, rem = pdivmod(F, D.num.coeffs, D.den.coeffs)
    poly = list(quo)
    for j in range(len(poly) - 1, 0, -1):  # T^j moves down to T^(j/p), read later
        if j % p == 0 and poly[j]:
            poly[j // p] = F.add(poly[j // p], F.pth_root(poly[j]))
            poly[j] = 0
    den = D.den.coeffs
    poles = []
    for P, m in factor_raw(F, den, seed=0)[1] if len(den) > 1 else ():
        Pm = ppow(F, P, m)
        w = pmod(F, pmul(F, rem, pinvmod(F, pdiv(F, den, Pm), Pm)), Pm)
        while w and m % p == 0:
            # the p-th root inside the residue field F_{q^deg P}: a^(p^(k deg P - 1))
            h = pnorm(_frobenius(F, P)(pmod(F, w, P), F.k * pdeg(P) - 1))
            w = padd(F, psub(F, w, ppow(F, h, p)), pmul(F, h, ppow(F, P, m - m // p)))
            if pmod(F, w, P):
                raise InvariantViolated("an Artin-Schreier step did not lower a pole order")
            while w and not pmod(F, w, P):
                w, m = pdiv(F, w, P), m - 1
        if w:
            poles.append((P, m, w))
    return pnorm(poly), tuple(poles)


def as_reduce(D: RationalFn, parts: tuple | None = None) -> RationalFn:
    """D reduced modulo g^p - g, pole by pole from one partial-fraction
    decomposition (`_as_parts`; `parts` where the caller has it already),
    as one fraction: no positive-degree monomial of its polynomial part has
    an exponent divisible by p, and no finite pole an order divisible by p."""
    F = D.ctx
    num, poles = parts or _as_parts(D)
    den: Coeffs = (1,)
    for P, m, w in poles:
        Pm = ppow(F, P, m)
        num, den = padd(F, pmul(F, num, Pm), pmul(F, w, den)), pmul(F, den, Pm)
    return RationalFn(Poly._raw(F, num), Poly._raw(F, den))


class ArtinSchreierCover(Cover):
    """y^p - y = D(T) in characteristic p; stores the reduced datum."""

    kind = "artin_schreier"

    def __init__(self, ctx: Field, D: RationalFn | Poly, force_wild: bool = False):
        super().__init__(ctx)
        if isinstance(D, Poly):
            D = RationalFn(D)
        if D.ctx is not ctx:
            raise ContextMismatch("D over the wrong field")
        self.group = GroupTable.cyclic(ctx.p)
        poly, poles = _as_parts(D)
        if len(poly) > 1:
            if not force_wild:
                raise WildAtInfinity(
                    "reduced datum has a pole at infinity; the cover is wildly "
                    "ramified there"
                )
            self.wild_override = True
        elif not poles:
            raise NotGeometric(
                "reduced datum is constant: the cover is a constant-field "
                "extension or splits completely"
            )
        self.D = as_reduce(D, (poly, poles))
        # the polynomial part forced wild at infinity, its constant c_0 left
        # to the place symbol's degree term; () when tame
        self._wild_part = (0,) + poly[1:] if len(poly) > 1 else ()
        self._poles = tuple((P, m) for P, m, _ in poles)  # all m coprime to p
        self._ram = frozenset(P for P, _, _ in poles)
        # at a rational pole T - b of order m, the principal part
        # w / (T - b)^m as the coefficients c_1 .. c_m of (T - b)^(-1) ..
        # (T - b)^(-m), c_i the Taylor coefficient m - i of w at b, each
        # into the place symbol as the table u -> Tr(-c_i u); at the others
        # P^m and the residues Res_P(T^j D dT) = [T^(N-1)] (w T^j mod P^m),
        # N = deg P^m, j < 2N - 1
        trace = [ctx.trace(x) for x in range(ctx.q)]
        rational = []
        self._pole_parts: list[tuple[Coeffs, list[int]]] = []
        for P, m, w in poles:
            if len(P) == 2:
                b = ctx.neg(P[0])
                negs = [ctx.neg(c) for c in reversed(_taylor(ctx, w, b, m))]
                tables = tuple([trace[ctx.mul(c, u)] for u in range(ctx.q)] for c in negs)
                rational.append((b, tables))
                continue
            Pm = ppow(ctx, P, m)
            N, res = len(Pm) - 1, []
            for _ in range(2 * N - 1):
                res.append(w[-1] if len(w) == N else 0)
                w = pmod(ctx, (0,) + w, Pm)
            self._pole_parts.append((Pm, res))
        c0 = poly[0] if poly else 0
        self.place_symbol = PlaceSymbol(ctx.p, 1, trace[c0], poles=tuple(rational))
        self.places = None if self._wild_part or self._pole_parts else (self.place_symbol,)

    def artin_symbol(self, f: Coeffs) -> int:
        """Tr_{F_q/F_p} of the trace of D in the algebra F_q[T]/(f), for any
        monic f coprime to the poles, with no inverse, power or gcd modulo f.

        That trace is the sum of D over the roots of f, with multiplicity.
        The residues of D f'/f dT on P^1 sum to zero (Rosen, GTM 210), so it is

            sum_j c_j s_j - sum_P [T^(N-1)] (w_P f' f^(-1) mod P^m),

        with c_j the coefficients of D's polynomial part (reduced mod f), s_j
        the Newton power sums of the roots of f, and w_P / P^m the principal
        part of D at a pole P of order m, N = m deg P.  The only inverse is
        modulo the fixed P^m.  The constant c_0 gives deg f Tr(c_0), as
        s_0 = deg f, and a rational pole b of order m gives
        -sum_i Tr(c_i g_(i-1)), with c_i the coefficient of (T - b)^(-i) in
        D and g_j that of (T - b)^j in f'/f, read from f's first m + 1
        Taylor coefficients at b: these terms are `place_symbol`, whose
        `evaluate` reads them, and where D has no other pole and no
        forced-wild polynomial part they are the whole symbol (`places`),
        which the interval sieve reads from its tables.  What is left is traced
        here: the power sums against the wild part with c_0 left out, and
        the residues at the other poles.
        """
        F = self.ctx
        k = self.place_symbol.evaluate(F, f)
        if self.places is not None:
            return k
        mul, add, sub = F.mul, F.add, F.sub
        x = pmod(F, self._wild_part, f)
        t = 0
        for xj, sj in zip(x, power_sums(F, f, len(x))):
            t = add(t, mul(xj, sj))
        if self._pole_parts:
            df = pderiv(F, f)
            for Pm, res in self._pole_parts:
                try:
                    inv_f = pinvmod(F, f, Pm)
                except DivisionByZero:
                    raise RamifiedPrime(f"{Poly._raw(F, f)!r} meets a pole of D") from None
                # h = f'/f mod P^m, unreduced: Res_P(h D dT) = sum_j h_j Res_P(T^j D dT)
                for hj, rj in zip(pmul(F, pmod(F, df, Pm), inv_f), res):
                    t = sub(t, mul(hj, rj))
        return (k + F.trace(t)) % F.p

    def _ramified_omega(self, P: Coeffs) -> int:
        """Inertia is the whole group at a pole of D."""
        return self.group.omega_of_coset(frozenset(range(self.ctx.p)))

    def _character_conductor(self, a: int) -> dict[Place, int]:
        """Every nontrivial character has the same conductor: a pole of order
        m has exponent m + 1, and so does a forced-wild polynomial part of
        degree m at infinity."""
        if not a:
            return {}
        cond: dict[Place, int] = {P: m + 1 for P, m in self._poles}
        if self.wild_override:
            cond[INFINITY] = pdeg(self._wild_part) + 1
        return cond

    def tame_at_infinity(self) -> bool:
        return not self.wild_override

    def _infinity_omega(self) -> int:
        if self.wild_override:
            return self.group.omega_of_coset(frozenset(range(self.ctx.p)))
        # tame: D at infinity is the constant c_0 of its polynomial part,
        # and Tr(c_0) the place symbol's degree term
        return self.group.class_to_omega[self.place_symbol.degree_term]


# ---------------------------------------------------------------------------
# Product covers


class ProductCover(Cover):
    """Direct product of cyclic covers over the same field.

    Linear disjointness of the components is asserted by the user, not
    verified; the equidistribution census is the detector.  At ramified
    places the inertia/Frobenius coset is taken componentwise, which is
    exact when the components ramified at a place have pairwise coprime
    orders; the constructor refuses any other product, and a Kummer
    component that is not geometric.
    """

    kind = "product"

    def __init__(self, components: list[Cover]):
        if not components:
            raise DomainError("product needs at least one component")
        ctx = components[0].ctx
        if any(c.ctx is not ctx for c in components):
            raise ContextMismatch("components over different fields")
        if any(not isinstance(c, (KummerCover, ArtinSchreierCover)) for c in components):
            raise DomainError("product components must be cyclic covers")
        for c in components:
            if isinstance(c, KummerCover):
                c.require_geometric()
        super().__init__(ctx)
        self.components = tuple(components)
        self._ram = frozenset().union(*(c._ram for c in components))
        self.group = GroupTable.direct_product([c.group for c in components])
        # the components' place symbols, each weighted by its place in
        # `encode_product`, where every component has them
        if all(c.places is not None for c in components):
            places = []
            for i, c in enumerate(components):
                sym = c.place_symbol
                w = self.group.encode_product([int(j == i) for j in range(len(components))])
                places.append(PlaceSymbol(sym.order, w, sym.degree_term, sym.values, sym.poles))
            self.places = tuple(places)
        # a component ramifies where its faithful character 1 has a conductor
        orders: dict[Place, int] = {}
        for c in components:
            for v in c._character_conductor(1):
                n = orders.get(v, 1)
                if math.gcd(n, c.group.n) > 1:
                    place = v if v == INFINITY else repr(Poly._raw(ctx, v))
                    raise NotComponentwise(
                        f"components of non-coprime orders ramify at {place}; the "
                        f"local data there are not componentwise"
                    )
                orders[v] = n * c.group.n

    def _product_omega(self, omegas: list[int]) -> int:
        """Catalog index of the componentwise product of the components'
        cosets, each given by its catalog index."""
        cosets = [c.group.omega[w].rep for c, w in zip(self.components, omegas)]
        members = frozenset(
            self.group.encode_product(tup) for tup in itertools.product(*cosets)
        )
        return self.group.omega_of_coset(members)

    def _ramified_omega(self, P: Coeffs) -> int:
        return self._product_omega([c._coset_raw(P) for c in self.components])

    def artin_symbol(self, f: Coeffs) -> int:
        """The components' Artin symbols of f, as one product element."""
        return self.group.encode_product([c.artin_symbol(f) for c in self.components])

    def _character_conductor(self, a: int) -> dict[Place, int]:
        """At each place the largest of the components' exponents, exact
        because the components ramified there have coprime orders."""
        cond: dict[Place, int] = {}
        for c, ai in zip(self.components, self.group.decode_product(a)):
            for v, e in c._character_conductor(ai).items():
                cond[v] = max(cond.get(v, 0), e)
        return cond

    @property
    def wild_override(self) -> bool:  # type: ignore[override]
        return any(c.wild_override for c in self.components)

    def tame_at_infinity(self) -> bool:
        return all(c.tame_at_infinity() for c in self.components)

    def _infinity_omega(self) -> int:
        return self._product_omega([c._infinity_omega() for c in self.components])


# ---------------------------------------------------------------------------
# Splitting covers


class SplittingCover(Cover):
    """Splitting field of F(T, Y), monic of degree k in Y, with a
    user-asserted Galois group given as a permutation group on the roots.

    The constructor refuses F of degree 0 or not squarefree in Y, a
    cycle-type table that disagrees with the group, for p odd generators
    whose parity contradicts the discriminant, and a group that the
    Frobenius census contradicts."""

    kind = "splitting"
    abelian = False
    group_provenance = "user-asserted"

    def __init__(
        self,
        ctx: Field,
        y_coeffs: list[Poly],
        generators: list[tuple[int, ...]],
        cycle_table: dict[tuple[int, ...], int],
        declared_genus: int | None = None,
        declared_tame_at_infinity: bool = True,
    ):
        super().__init__(ctx)
        if not y_coeffs or y_coeffs[-1] != Poly.one(ctx):
            raise DomainError("F must be monic in Y (last coefficient 1)")
        if len(y_coeffs) < 2:
            raise NotGeometric("F must have degree >= 1 in Y")
        self.y_coeffs = tuple(y_coeffs)
        self.y_degree = len(y_coeffs) - 1
        self.group = GroupTable.from_perms(generators)
        self.generators = tuple(generators)
        self.cycle_table = {
            tuple(sorted(part, reverse=True)): ci for part, ci in cycle_table.items()
        }
        self.declared_genus = declared_genus
        self.declared_tame_at_infinity = declared_tame_at_infinity
        # disc_Y(F) in F_q[T] (`_y_discriminant`): its primes are `_ram`,
        # its quadratic symbol the sign of Frobenius
        self._disc = Poly._raw(ctx, _y_discriminant(ctx, [c.coeffs for c in y_coeffs]))
        if self._disc.is_zero():
            raise NotGeometric("F is not squarefree in Y over F_q(T)")
        n = self.y_degree
        # injectivity and consistency of the cycle-type table
        seen_classes: dict[int, tuple[int, ...]] = {}
        for part, ci in self.cycle_table.items():
            if sum(part) != n:
                raise AmbiguousCycleType(f"partition {part} does not sum to {n}")
            if not 0 <= ci < len(self.group.classes):
                raise AmbiguousCycleType(f"class index {ci} out of range")
            if ci in seen_classes and seen_classes[ci] != part:
                raise AmbiguousCycleType("cycle-type table is not injective")
            seen_classes[ci] = part
            for x in self.group.classes[ci]:
                if self.group.cycle_type(x) != part:
                    raise AmbiguousCycleType(
                        f"class {ci} has cycle type {self.group.cycle_type(x)}, "
                        f"table says {part}"
                    )
        factored = factor_raw(ctx, self._disc.coeffs, seed=0)
        self._ram = frozenset(P for P, _ in factored[1])
        # the sign character, and the catalog index of the cycle type that
        # each sign leaves, if only one (see `_sign_character`)
        self._sign: KummerCover | None = None
        self._sign_omegas: tuple = ()
        sign = self._sign_character(factored) if ctx.p != 2 else None
        # disc a non-square constant times a square: the sign of P is deg P mod 2
        self._sampling_check(
            sign is not None and not sign.parts and sign.place_symbol.degree_term == 1
        )

    def _sign_character(self, factored: tuple) -> KummerCover:
        """The sign of Frobenius as a quadratic symbol (p odd), returned, and
        the exact parity refusals.

        At an unramified P, Frobenius is an even permutation of the roots
        exactly when disc_Y(F) is a square mod P (Stickelberger; R. Swan,
        Pacific J. Math. 12, 1962).  So its sign is the Artin symbol at P of
        the quadratic Kummer cover y^2 = disc, read by reciprocity and
        multiplicative in P.  Where disc is c times a square, that cover has
        no parts, and the symbol is deg P * [c is not a square] mod 2.  The
        same test places G: G lies in A_k exactly when disc is a square in
        F_q(T), so a group whose generators say otherwise is refused.
        `factored` is disc's `factor_raw`, which fixed `_ram`."""
        sign = KummerCover(self.ctx, 2, self._disc, factored)
        square = not sign.parts and not sign.place_symbol.degree_term
        odd = [i for i, g in enumerate(self.generators, 1) if partition_parity(cycle_type(g))]
        if square and odd:
            raise AmbiguousCycleType(
                f"disc_Y(F) is a square in F_q(T), so the group lies in A_{self.y_degree}, "
                f"but generator {odd[0]} is an odd permutation"
            )
        if not square and not odd:
            raise AmbiguousCycleType(
                f"disc_Y(F) is not a square in F_q(T), so the group does not lie in "
                f"A_{self.y_degree}, but every generator is an even permutation"
            )
        # the partitions of k of each sign: k = 2 has one of each, k = 3 one
        # odd one, (2, 1), and from k = 4 on neither sign pins the type
        by_sign: tuple[list, list] = ([], [])
        for part in partitions(self.y_degree):
            by_sign[partition_parity(part)].append(part)
        # the catalog index of the one type a sign leaves; one missing from
        # the table is left to the residue route, which refuses it at a prime
        table, to_omega = self.cycle_table, self.group.class_to_omega
        omegas = tuple(
            to_omega[table[parts[0]]] if len(parts) == 1 and parts[0] in table else None
            for parts in by_sign
        )
        if any(w is not None for w in omegas):
            self._sign, self._sign_omegas = sign, omegas
        return sign

    def _sampling_check(self, by_degree: bool) -> None:
        """Necessary-condition census: observed cycle types must be in the
        table, with frequencies within 5 sigma of the class proportions.
        Where the sign of every P is deg P mod 2 (`by_degree`), the primes of
        each degree are compared only with the classes of that parity."""
        G = self.group
        counts = [0] * len(G.classes)
        seen = [0, 0]  # primes counted, by parity of degree
        for deg in (1, 2, 3):
            if sum(counts) >= 200:
                break
            row = self.class_counts(deg)
            counts = [a + b for a, b in zip(counts, row)]
            seen[deg % 2] += sum(row)
        total = sum(counts)
        if total == 0:
            return
        for ci, cls in enumerate(G.classes):
            if by_degree:  # an odd class at odd degrees, an even one at even
                total = seen[partition_parity(G.cycle_type(cls[0]))]
                frac = 2 * len(cls) / G.n
            else:
                frac = len(cls) / G.n
            exp = total * frac
            sigma = math.sqrt(total * frac * (1 - frac)) or 1.0
            if abs(counts[ci] - exp) > 5 * sigma:
                raise AmbiguousCycleType(
                    f"observed Frobenius frequencies are inconsistent with the "
                    f"asserted group (class {ci}: saw {counts[ci]}, "
                    f"expected {exp:.1f} of {total})"
                )

    def symbol_cover(self) -> tuple[Cover | None, tuple]:
        """The sign character, and the catalog index of the cycle type each
        sign pins (k = 2, and an odd sign at k = 3); (None, ()) when no sign
        pins a type of the table, as for k >= 4 and p = 2."""
        return self._sign, self._sign_omegas

    def _ramified_omega(self, P: Coeffs) -> int:
        """A prime of the Y-discriminant, the sign datum's included, has none."""
        raise RamifiedSplittingCover(f"{Poly._raw(self.ctx, P)!r} divides the Y-discriminant")

    def _residue_omega(self, P: Coeffs) -> int:
        return self._type_omega(self._residue_cycle_type(P))

    def _type_omega(self, part: tuple[int, ...]) -> int:
        """Catalog index of the class with cycle type `part`."""
        if part not in self.cycle_table:
            raise AmbiguousCycleType(f"cycle type {part} absent from the table")
        return self.group.class_to_omega[self.cycle_table[part]]

    def _residue_cycle_type(self, P: Coeffs) -> tuple[int, ...]:
        """The cycle type of Frobenius at an unramified P, from the degrees
        of the factors of F(t, Y) over the residue field F_q[T]/(P)."""
        rf = residue_field(Poly._raw(self.ctx, P))
        big = rf.field
        ycs = pnorm(tuple(rf.eval_poly(c.coeffs) for c in self.y_coeffs))
        if pdeg(ycs) != self.y_degree:
            raise InvariantViolated("Y-polynomial lost degree in the residue field")
        # F is monic in Y, so disc_Y(F)(t) is the discriminant of F(t, Y):
        # F(t, Y) is squarefree exactly when it is not 0
        if not rf.eval_poly(self._disc.coeffs):
            raise RamifiedSplittingCover(
                "F mod P is not squarefree despite P avoiding the Y-discriminant"
            )
        # the cycle type needs only the degrees of the factors of F(t, Y)
        degs = [d for d, g in _ddf(big, ycs) for _ in range(pdeg(g) // d)]
        return tuple(sorted(degs, reverse=True))

    def tame_at_infinity(self) -> bool:
        return self.declared_tame_at_infinity

    def infinity_data(self) -> SplittingData:
        raise NotAbelian("splitting covers carry no splitting data (e, f, g) at infinity")

    def genus(self) -> int:
        if self.declared_genus is None:
            raise UserGenusRequired("declare the genus for splitting covers")
        return self.declared_genus


def _y_discriminant(ctx: Field, a: list[Coeffs]) -> Coeffs:
    """disc_Y(F) = prod_{i<j} (y_i - y_j)^2 in F_q[T], for F = sum a_j Y^j
    monic of degree k >= 1 in Y: det(s_{i+j})_{i,j<k} over the power sums
    s_m of its roots, which Newton's identities give with no division, by
    Bareiss elimination, each step divided exactly by the previous pivot.  A
    zero pivot (s_0 = k when p | k) swaps in a row below and flips the sign."""
    k = len(a) - 1
    s = [pnorm((ctx.scalar(k),))]
    for m in range(1, 2 * k - 1):
        acc = pscale(ctx, a[k - m], ctx.scalar(-m)) if m <= k else ()
        for i in range(1, min(m, k + 1)):
            acc = psub(ctx, acc, pmul(ctx, a[k - i], s[m - i]))
        s.append(acc)
    M, sign, prev = [s[i : i + k] for i in range(k)], 1, (1,)
    for c in range(k - 1):
        r = next((r for r in range(c, k) if M[r][c]), None)
        if r is None:
            return ()
        if r != c:
            M[c], M[r], sign = M[r], M[c], -sign
        for i, j in itertools.product(range(c + 1, k), repeat=2):
            num = psub(ctx, pmul(ctx, M[c][c], M[i][j]), pmul(ctx, M[i][c], M[c][j]))
            M[i][j], rem = pdivmod(ctx, num, prev)
            if rem:
                raise InvariantViolated("a Bareiss step of disc_Y(F) is not exact")
        prev = M[c][c]
    return M[-1][-1] if sign > 0 else psub(ctx, (), M[-1][-1])


# ---------------------------------------------------------------------------
# builders


def validate_cover(spec: Cover) -> Cover:
    """The spec itself: every cover is checked when it is built.  Kept for
    callers written when validation was a separate step, such as the
    benchmark's splitting cover."""
    return spec


def kummer(ctx: Field, d: int, D: Poly | str) -> KummerCover:
    """The Kummer cover y^d = D, refused unless it is a geometric Z/d
    extension: D must not be a constant times a p-th power for any prime
    p | d."""
    if isinstance(D, str):
        D = parse_poly(ctx, D)
    cov = KummerCover(ctx, d, D)
    cov.require_geometric()
    return cov


def artin_schreier(ctx: Field, D, force_wild: bool = False) -> ArtinSchreierCover:
    if isinstance(D, str):
        D = parse_poly(ctx, D)
    return ArtinSchreierCover(ctx, D, force_wild)


def product(components: list[Cover]) -> ProductCover:
    return ProductCover(components)


# ---------------------------------------------------------------------------
# cover description files


def dumps_cover(spec: Cover) -> str:
    """Canonical key-value serialization; round-trips bit-exactly."""
    ctx = spec.ctx
    lines = [f"kind = {spec.kind}", f"p = {ctx.p}", f"k = {ctx.k}"]

    def cyclic(prefix: str, c: KummerCover | ArtinSchreierCover) -> None:
        if isinstance(c, KummerCover):
            lines.append(f"{prefix}d = {c.d}")
            lines.append(f"{prefix}D = {c.D.serialize()}")
        else:
            lines.append(f"{prefix}D_num = {c.D.num.serialize()}")
            lines.append(f"{prefix}D_den = {c.D.den.serialize()}")

    if isinstance(spec, TrivialCover):
        pass
    elif isinstance(spec, (KummerCover, ArtinSchreierCover)):
        cyclic("", spec)
    elif isinstance(spec, ProductCover):
        lines.append(f"components = {len(spec.components)}")
        for i, c in enumerate(spec.components, 1):
            lines.append(f"component.{i}.kind = {c.kind}")
            cyclic(f"component.{i}.", c)
    elif isinstance(spec, SplittingCover):
        lines.append(f"y_degree = {spec.y_degree}")
        for j, c in enumerate(spec.y_coeffs):
            lines.append(f"F.{j} = {c.serialize()}")
        for i, gen in enumerate(spec.generators, 1):
            lines.append(f"generator.{i} = {cycles_text(gen)}")
        for part in sorted(spec.cycle_table):
            key = "+".join(map(str, part))
            lines.append(f"cycle_type.{key} = {spec.cycle_table[part]}")
        if spec.declared_genus is not None:
            lines.append(f"genus = {spec.declared_genus}")
        lines.append(
            f"tame_at_infinity = {'true' if spec.declared_tame_at_infinity else 'false'}"
        )
    return "\n".join(lines) + "\n"


def parse_cover(text: str, force_wild: bool = False) -> Cover:
    from .ffield import make_field

    kv: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CoverFileError(f"bad line in cover file: {raw!r}")
        key, _, val = line.partition("=")
        kv[key.strip()] = val.strip()

    def value(key: str, default: str | None = None) -> str:
        if key in kv:
            return kv[key]
        if default is None:
            raise CoverFileError(f"cover file is missing {key!r}")
        return default

    def integer(key: str, default: str | None = None) -> int:
        text = value(key, default)
        try:
            return int(text)
        except ValueError:
            raise CoverFileError(f"{key} = {text!r} is not an integer") from None

    def poly(key: str, default: str | None = None) -> Poly:
        text = value(key, default)
        try:
            return parse_poly(ctx, text)
        except PolyParseError:
            raise CoverFileError(f"{key} = {text!r} is not a polynomial") from None

    kind = value("kind")
    ctx = make_field(integer("p"), integer("k", "1"))

    def build(prefix: str, kd: str) -> Cover:
        if kd == "kummer":
            return kummer(ctx, integer(prefix + "d"), poly(prefix + "D"))
        if kd == "artin_schreier":
            num = poly(prefix + "D_num")
            den = poly(prefix + "D_den", "[1]")
            return ArtinSchreierCover(ctx, RationalFn(num, den), force_wild)
        raise CoverFileError(f"unknown cover kind {kd!r}")

    if kind == "trivial":
        return TrivialCover(ctx)
    if kind in ("kummer", "artin_schreier"):
        return build("", kind)
    if kind == "product":
        comps = [
            build(f"component.{i}.", value(f"component.{i}.kind"))
            for i in range(1, integer("components") + 1)
        ]
        return ProductCover(comps)
    if kind == "splitting":
        ydeg = integer("y_degree")
        ycs = [poly(f"F.{j}") for j in range(ydeg + 1)]
        gens = []
        i = 1
        while f"generator.{i}" in kv:
            gens.append(parse_cycles(kv[f"generator.{i}"], ydeg))
            i += 1
        table = {}
        for key in kv:
            if key.startswith("cycle_type."):
                try:
                    part = tuple(int(t) for t in key[len("cycle_type."):].split("+"))
                except ValueError:
                    raise CoverFileError(f"bad cycle type in key {key!r}") from None
                table[part] = integer(key)
        genus = integer("genus") if "genus" in kv else None
        tame = kv.get("tame_at_infinity", "true").lower() == "true"
        return SplittingCover(ctx, ycs, gens, table, genus, tame)
    raise CoverFileError(f"unknown cover kind {kind!r}")


def load_cover(path: str, force_wild: bool = False) -> Cover:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CoverFileError(f"cannot read cover file: {e}") from None
    return parse_cover(text, force_wild)
