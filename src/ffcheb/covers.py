"""Concrete models of geometric G-Galois covers of the projective line.

Four kinds:

  * Kummer: y^d = D(T) with d | q-1; the group is Z/d identified through the
    canonical d-th root of unity, and Frobenius at P is the d-th power residue
    symbol of D mod P.
  * ArtinSchreier: y^p - y = D(T) with D a rational function in reduced form
    (no positive-degree monomial with exponent divisible by p, no pole order
    divisible by p); Frobenius is the absolute trace of D mod P, read by the
    residue theorem from the poles of D and the power sums of P, with no
    inverse modulo P.
  * Product: several cyclic covers over the same field, Frobenius taken
    componentwise into the direct product group; components ramified at one
    place must have coprime orders.
  * Splitting: the splitting field of a monic-in-Y bivariate F(T, Y), with a
    user-asserted permutation group and a cycle-type -> class table; Frobenius
    is read off the degrees of the factors of F mod P.

Everything a prime can ask for flows through the coset-class catalog of the
group: `coset_class` returns a catalog index even at ramified primes (cyclic
and product covers), which is what the norm-counting functions consume.
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
from .ffield import Field, FieldElement, prime_factors, root_of_unity
from .groups import GroupTable, cycles_text, parse_cycles
from .polys import (
    Coeffs,
    Poly,
    RationalFn,
    _ddf,
    canonical_key,
    factor_raw,
    is_irreducible_raw,
    parse_poly,
    pderiv,
    pdeg,
    pdiv,
    pgcd,
    pinvmod,
    pmod,
    pmul,
    pnorm,
    power_sums,
    ppowmod,
    primes_of_degree,
    residue_field,
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


class Cover:
    """Shared plumbing for all cover kinds."""

    kind = "abstract"

    def __init__(self, ctx: Field):
        self.ctx = ctx
        self.validated = False
        self._omega_cache: dict[Coeffs, int] = {}

    # -- subclass hooks

    def _validate(self, force_wild: bool) -> None:
        raise NotImplementedError

    def _coset_raw(self, P: Coeffs) -> int:
        raise NotImplementedError

    # -- shared API

    def require_validated(self) -> None:
        if not self.validated:
            raise DomainError("cover has not been validated; call validate_cover")

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
        self.require_validated()
        cs = self._prime_coeffs(P)
        cached = self._omega_cache.get(cs)
        if cached is None:
            cached = self._omega_cache[cs] = self._coset_raw(cs)
        return cached

    def frobenius_class(self, P) -> int:
        """Conjugacy-class index of Frobenius at an unramified prime."""
        self.require_validated()
        cs = self._prime_coeffs(P)
        if not is_irreducible_raw(self.ctx, cs):
            raise NotIrreducible(f"{Poly._raw(self.ctx, cs)!r} is not a prime of F_q[T]")
        if cs in self._ramified_set():
            raise RamifiedPrime(f"{Poly._raw(self.ctx, cs)!r} ramifies in the cover")
        return self.group.omega_to_class[self.coset_class(cs)]

    def class_counts(self, n: int) -> list[int]:
        """Number of unramified primes of degree n whose Frobenius lies in
        each conjugacy class, indexed by class."""
        self.require_validated()
        ram = self._ramified_set()
        to_class = self.group.omega_to_class
        counts = [0] * len(self.group.classes)
        for P in primes_of_degree(self.ctx, n):
            if P not in ram:
                counts[to_class[self.coset_class(P)]] += 1
        return counts

    def splitting_data(self, P) -> SplittingData:
        self.require_validated()
        oc = self.group.omega[self.coset_class(P)]
        return SplittingData(oc.e, oc.f, oc.g)

    def infinity_data(self) -> SplittingData:
        self.require_validated()
        oc = self.group.omega[self._infinity_omega()]
        return SplittingData(oc.e, oc.f, oc.g)

    def _infinity_omega(self) -> int:
        raise NotImplementedError

    def ramified_primes(self) -> list[Poly]:
        self.require_validated()
        return [
            Poly._raw(self.ctx, cs)
            for cs in sorted(self._ramified_set(), key=canonical_key)
        ]

    def _ramified_set(self) -> frozenset[Coeffs]:
        raise NotImplementedError

    def _character_conductor(self, a: int) -> dict[Place, int]:
        """{place: exponent} of the conductor of the character indexed by
        the group element a, over the finite primes and `INFINITY`; places
        with exponent 0 are left out."""
        raise NotImplementedError

    def genus(self) -> int:
        """Conductor-discriminant genus of an abelian kind:
        2g - 2 = -2|G| + sum over chi != 1 of deg f_chi."""
        self.require_validated()
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
        self.require_validated()
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
            "group_provenance": getattr(self, "group_provenance", "computed"),
        }


class TrivialCover(Cover):
    """E = F_q(T) itself: one-element group, everything splits."""

    kind = "trivial"

    def __init__(self, ctx: Field):
        super().__init__(ctx)
        self.group = GroupTable.cyclic(1)
        self.group_provenance = "computed"

    def _validate(self, force_wild: bool) -> None:
        self.validated = True

    def _ramified_set(self) -> frozenset[Coeffs]:
        return frozenset()

    def _coset_raw(self, P: Coeffs) -> int:
        return self.group.class_to_omega[0]

    def artin_symbol(self, f: Coeffs) -> int:
        return 0

    def tame_at_infinity(self) -> bool:
        return True

    def _infinity_omega(self) -> int:
        return self.group.class_to_omega[0]


def trivial(ctx: Field) -> TrivialCover:
    return validate_cover(TrivialCover(ctx))  # type: ignore[return-value]


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
    """y^d = D(T), d | q-1.  D is stored with multiplicities reduced mod d."""

    kind = "kummer"

    def __init__(self, ctx: Field, d: int, D: Poly):
        super().__init__(ctx)
        if D.ctx is not ctx:
            raise ContextMismatch("D over the wrong field")
        if D.is_zero():
            raise ZeroPolynomial("Kummer datum D must be nonzero")
        if d < 2:
            raise DomainError("Kummer degree must be >= 2")
        self.d = d
        unit, parts = factor_raw(ctx, D.coeffs, seed=0)
        reduced = [(P, m % d) for P, m in parts if m % d != 0]
        self.parts = tuple(reduced)
        self.unit = unit
        cs: Coeffs = (unit,)
        for P, m in reduced:
            for _ in range(m):
                cs = pmul(ctx, cs, P)
        self.D = Poly._raw(ctx, cs)
        self.group = GroupTable.cyclic(d)
        self.group_provenance = "computed"
        self.zeta: FieldElement | None = None
        self._dlog: dict[int, int] = {}
        self._value_dlog: list[int | None] = []

    def _validate(self, force_wild: bool) -> None:
        q = self.ctx.q
        if (q - 1) % self.d != 0:
            raise NotDividing(f"d = {self.d} does not divide q - 1 = {q - 1}")
        for dp in prime_factors(self.d):
            if all(m % dp == 0 for _, m in self.parts):
                raise NotGeometric(
                    f"D is a constant times a {dp}-th power; the cover is not a "
                    f"geometric Z/{self.d} extension"
                )
        self.zeta = root_of_unity(self.ctx, self.d)
        val, F = 1, self.ctx
        self._dlog = {}
        for j in range(self.d):
            self._dlog[val] = j
            val = F.mul(val, self.zeta.val)
        e = (q - 1) // self.d
        # dlog of the residue symbol v^((q-1)/d) of every nonzero value v
        vdlog = self._value_dlog = [None] + [self._dlog[F.pow(a, e)] for a in range(1, q)]
        # artin_symbol's term per degree of f: the unit's symbol and the
        # reciprocity sign of every part Q^m, m * deg Q summing to deg D
        unit_dlog = vdlog[self.unit]
        sign_dlog = vdlog[F.neg(1)]
        self._deg_dlog = (unit_dlog + self.D.degree * sign_dlog) % self.d
        # per linear place T - a of D, of multiplicity m: the table that
        # takes f(a) to m times the dlog of its symbol
        self._lin_parts = tuple(
            (F.neg(Q[0]), [None] + [m * k % self.d for k in vdlog[1:]])
            for Q, m in self.parts
            if len(Q) == 2
        )
        self._nonlin_parts = tuple((Q, m) for Q, m in self.parts if len(Q) > 2)
        self.validated = True

    def _ramified_set(self) -> frozenset[Coeffs]:
        return frozenset(P for P, _ in self.parts)

    def _symbol_of_value(self, v: int) -> int:
        """dlog of the residue symbol of a nonzero base-field value."""
        return self._value_dlog[v]

    def _symbol(self, numer: Coeffs, P: Coeffs) -> int:
        """dlog of (numer mod P)^((|P|-1)/d); numer must be coprime to P."""
        F = self.ctx
        dd = pdeg(P)
        if dd == 1:
            root = F.neg(P[0])
            acc = 0
            for c in reversed(numer):
                acc = F.add(F.mul(acc, root), c)
            return self._value_dlog[acc]
        c = ppowmod(F, pmod(F, numer, P), (F.q**dd - 1) // self.d, P)
        if pdeg(c) > 0:
            raise InvariantViolated("power-residue symbol is not a constant")
        return self._dlog[c[0]]

    def artin_symbol(self, f: Coeffs) -> int:
        """dlog of the d-th power residue symbol (D/f)_d, for any monic f
        coprime to D, without a power modulo f.

        d-th power reciprocity (Rosen, GTM 210, Thm 3.3) gives
        (Q/f)_d = (-1)^((q-1)/d * deg f * deg Q) (f/Q)_d for monic Q, and
        (u/f)_d = (u^((q-1)/d))^(deg f) for a constant u.  Every term is
        multiplicative in f, so f need not be prime; at a prime P this is
        `_symbol(D, P)`.  (f/Q)_d is a table lookup of f(a) when Q = T - a
        (`_lin_parts`, which the interval sieve reads too) and a power modulo
        the small fixed Q otherwise.
        """
        if not f or f[-1] != 1:
            raise DomainError("the Artin symbol needs a monic polynomial")
        F = self.ctx
        mul, add = F.mul, F.add
        k = (len(f) - 1) * self._deg_dlog
        for a, table in self._lin_parts:
            acc = 0
            for c in reversed(f):
                acc = add(mul(acc, a), c)
            if not acc:
                raise RamifiedPrime(f"{Poly._raw(F, f)!r} shares a factor with D")
            k += table[acc]
        for Q, m in self._nonlin_parts:
            r = pmod(F, f, Q)
            if not r:
                raise RamifiedPrime(f"{Poly._raw(F, f)!r} shares a factor with D")
            k += m * self._symbol(r, Q)
        return k % self.d

    def _coset_raw(self, P: Coeffs) -> int:
        d, F = self.d, self.ctx
        v = 0
        for Q, m in self.parts:
            if Q == P:
                v = m
                break
        if v == 0:
            return self.group.class_to_omega[self.artin_symbol(P)]
        e = d // math.gcd(d, v)
        step = d // e
        # unit part with uniformizer pi = P
        u = self.D.coeffs
        for _ in range(v):
            u = pdiv(F, u, P)
        ku = self._symbol(u, P)
        coset = frozenset((ku + j * step) % d for j in range(e))
        return self.group.omega_of_coset(coset)

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
        d = self.d
        degD = self.D.degree
        e = d // math.gcd(d, degD)
        step = d // e
        kc = self._symbol_of_value(self.D.coeffs[-1])
        coset = frozenset((kc + j * step) % d for j in range(e))
        return self.group.omega_of_coset(coset)


# ---------------------------------------------------------------------------
# Artin-Schreier covers


def as_reduce(D: RationalFn) -> RationalFn:
    """Reduce D modulo p-th powers of the Weierstrass operator g^p - g.

    The result has no positive-degree monomial with exponent divisible by p
    in its polynomial part, and every finite pole order is indivisible by p.
    Each elimination strictly lowers a degree, so this terminates.
    """
    F = D.ctx
    p = F.p
    quo, rem = divmod(D.num, D.den)
    poly = list(quo.coeffs)
    j = len(poly) - 1
    while j >= 1:
        if j % p == 0 and poly[j]:
            c = poly[j]
            poly[j] = 0
            r = F.pth_root(c)
            poly[j // p] = F.add(poly[j // p], r)
            while poly and poly[-1] == 0:
                poly.pop()
            j = min(j, len(poly) - 1)
        else:
            j -= 1
    frac = RationalFn(rem, D.den)
    while True:
        if frac.num.is_zero():
            break
        _, parts = factor_raw(F, frac.den.coeffs, seed=0)
        target = next(((P, m) for P, m in parts if m % p == 0), None)
        if target is None:
            break
        P, m = target
        s = m // p
        denb = frac.den.coeffs
        for _ in range(m):
            denb = pdiv(F, denb, P)
        num_mod = pmod(F, frac.num.coeffs, P)
        a = pmod(F, pmul(F, num_mod, pinvmod(F, denb, P)), P)
        # p-th root inside the residue field F_{q^deg P}
        h = ppowmod(F, a, F.p ** (F.k * pdeg(P) - 1), P)
        Ppoly = Poly._raw(F, P)
        hpoly = Poly._raw(F, h)
        wp = RationalFn(hpoly**p, Ppoly**m) - RationalFn(hpoly, Ppoly**s)
        frac = frac - wp
    return RationalFn(Poly(F, poly) * frac.den + frac.num, frac.den)


class ArtinSchreierCover(Cover):
    """y^p - y = D(T) in characteristic p; stores the reduced datum."""

    kind = "artin_schreier"

    def __init__(self, ctx: Field, D: RationalFn | Poly):
        super().__init__(ctx)
        if isinstance(D, Poly):
            D = RationalFn(D)
        if D.ctx is not ctx:
            raise ContextMismatch("D over the wrong field")
        self.raw = D
        self.D = as_reduce(D)
        self.group = GroupTable.cyclic(ctx.p)
        self.group_provenance = "computed"
        self.wild_override = False
        quo, rem = divmod(self.D.num, self.D.den)
        self._poly_part = quo
        den = self.D.den.coeffs
        _, parts = factor_raw(ctx, den, seed=0) if self.D.den.degree > 0 else (1, ())
        self._poles = tuple(parts)  # (prime, pole multiplicity), all mult coprime to p
        # the principal part of D at a pole P of order m is w_P / P^m, with
        # w_P = (D - polynomial part) P^m mod P^m.  At a rational simple pole
        # T - b keep (b, w_P); at the others keep P^m and the residues
        # Res_P(T^j D dT) = [T^(N-1)] (w_P T^j mod P^m), N = deg P^m, j < 2N - 1
        self._simple_poles: list[tuple[int, int]] = []
        self._pole_parts: list[tuple[Coeffs, list[int]]] = []
        for P, m in parts:
            Pm = P
            for _ in range(m - 1):
                Pm = pmul(ctx, Pm, P)
            w = pmod(ctx, pmul(ctx, rem.coeffs, pinvmod(ctx, pdiv(ctx, den, Pm), Pm)), Pm)
            if len(Pm) == 2:
                self._simple_poles.append((ctx.neg(P[0]), w[0]))
                continue
            N, res = len(Pm) - 1, []
            for _ in range(2 * N - 1):
                res.append(w[-1] if len(w) == N else 0)
                w = pmod(ctx, (0,) + w, Pm)
            self._pole_parts.append((Pm, res))

    def _validate(self, force_wild: bool) -> None:
        if self._poly_part.degree >= 1:
            if not force_wild:
                raise WildAtInfinity(
                    "reduced datum has a pole at infinity; the cover is wildly "
                    "ramified there"
                )
            self.wild_override = True
        elif self.D.den.degree == 0:
            raise NotGeometric(
                "reduced datum is constant: the cover is a constant-field "
                "extension or splits completely"
            )
        self.validated = True

    def _ramified_set(self) -> frozenset[Coeffs]:
        return frozenset(P for P, _ in self._poles)

    def artin_symbol(self, f: Coeffs) -> int:
        """Tr_{F_q/F_p} of the trace of D in the algebra F_q[T]/(f), for any
        monic f coprime to the poles, with no inverse, power or gcd modulo f.

        That trace is the sum of D over the roots of f, with multiplicity.
        The residues of D f'/f dT on P^1 sum to zero (Rosen, GTM 210), so it is

            sum_j c_j s_j - sum_P [T^(N-1)] (w_P f' f^(-1) mod P^m),

        with c_j the coefficients of D's polynomial part (reduced mod f), s_j
        the Newton power sums of the roots of f, and w_P / P^m the principal
        part of D at a pole P of order m, N = m deg P.  The only inverse is
        modulo the fixed P^m.  At a rational simple pole b with residue c the
        term is c f'(b) / f(b), from one Horner pass.
        """
        if not f or f[-1] != 1:
            raise DomainError("the Artin symbol needs a monic polynomial")
        F = self.ctx
        mul, add, sub = F.mul, F.add, F.sub
        x = pmod(F, self._poly_part.coeffs, f)
        t = 0
        for xj, sj in zip(x, power_sums(F, f, len(x))):
            t = add(t, mul(xj, sj))
        for b, c in self._simple_poles:
            v = dv = 0  # f(b) and f'(b), by one Horner pass
            for a in reversed(f):
                dv = add(mul(dv, b), v)
                v = add(mul(v, b), a)
            if not v:
                raise RamifiedPrime(f"{Poly._raw(F, f)!r} meets a pole of D")
            t = sub(t, mul(c, F.div(dv, v)))
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
        acc = t
        for _ in range(F.k - 1):
            t = F.frob(t)
            acc = add(acc, t)
        return acc

    def _coset_raw(self, P: Coeffs) -> int:
        if P in self._ramified_set():
            coset = frozenset(range(self.ctx.p))
            return self.group.omega_of_coset(coset)
        return self.group.class_to_omega[self.artin_symbol(P)]

    def _character_conductor(self, a: int) -> dict[Place, int]:
        """Every nontrivial character has the same conductor: a pole of order
        m has exponent m + 1, and so does a forced-wild polynomial part of
        degree m at infinity."""
        if not a:
            return {}
        cond: dict[Place, int] = {P: m + 1 for P, m in self._poles}
        if self.wild_override:
            cond[INFINITY] = self._poly_part.degree + 1
        return cond

    def tame_at_infinity(self) -> bool:
        return not self.wild_override

    def _infinity_omega(self) -> int:
        p = self.ctx.p
        if self.wild_override:
            return self.group.omega_of_coset(frozenset(range(p)))
        num, den = self.D.num, self.D.den
        if num.degree < den.degree:
            t = 0
        else:  # equal degrees after reduction
            F = self.ctx
            c = F.div(num.coeffs[-1], den.coeffs[-1])
            acc = 0
            for i in range(F.k):
                acc = F.add(acc, F.pow(c, F.p**i))
            t = acc
        return self.group.class_to_omega[t]


# ---------------------------------------------------------------------------
# Product covers


class ProductCover(Cover):
    """Direct product of cyclic covers over the same field.

    Linear disjointness of the components is asserted by the user, not
    verified; the equidistribution census is the detector.  At ramified
    places the inertia/Frobenius coset is taken componentwise, which is
    exact when the components ramified at a place have pairwise coprime
    orders; validation refuses any other product.
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
        super().__init__(ctx)
        self.components = tuple(components)
        self.group = GroupTable.direct_product([c.group for c in components])
        self.group_provenance = "computed"

    def _validate(self, force_wild: bool) -> None:
        for c in self.components:
            if not c.validated:
                c._validate(force_wild)
        # a component ramifies where its faithful character 1 has a conductor
        orders: dict[Place, int] = {}
        for c in self.components:
            for v in c._character_conductor(1):
                n = orders.get(v, 1)
                if math.gcd(n, c.group.n) > 1:
                    place = v if v == INFINITY else repr(Poly._raw(self.ctx, v))
                    raise NotComponentwise(
                        f"components of non-coprime orders ramify at {place}; the "
                        f"local data there are not componentwise"
                    )
                orders[v] = n * c.group.n
        self.validated = True

    def _ramified_set(self) -> frozenset[Coeffs]:
        out: set[Coeffs] = set()
        for c in self.components:
            out |= c._ramified_set()
        return frozenset(out)

    def _product_omega(self, omegas: list[int]) -> int:
        """Catalog index of the componentwise product of the components'
        cosets, each given by its catalog index."""
        cosets = [c.group.omega[w].rep for c, w in zip(self.components, omegas)]
        members = frozenset(
            self.group.encode_product(tup) for tup in itertools.product(*cosets)
        )
        return self.group.omega_of_coset(members)

    def _coset_raw(self, P: Coeffs) -> int:
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

    def tame_at_infinity(self) -> bool:
        return all(c.tame_at_infinity() for c in self.components)

    def _infinity_omega(self) -> int:
        return self._product_omega([c._infinity_omega() for c in self.components])


# ---------------------------------------------------------------------------
# Splitting covers


class SplittingCover(Cover):
    """Splitting field of F(T, Y), monic of degree k in Y, with a
    user-asserted Galois group given as a permutation group on the roots."""

    kind = "splitting"

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
        self.y_coeffs = tuple(y_coeffs)
        self.y_degree = len(y_coeffs) - 1
        self.group = GroupTable.from_perms(generators)
        self.generators = tuple(generators)
        self.group_provenance = "user-asserted"
        self.cycle_table = {
            tuple(sorted(part, reverse=True)): ci for part, ci in cycle_table.items()
        }
        self.declared_genus = declared_genus
        self.declared_tame_at_infinity = declared_tame_at_infinity
        self._disc: Poly | None = None

    def _y_discriminant(self) -> Poly:
        """disc_Y(F) as an element of F_q[T], via Euclid over F_q(T)."""
        if self._disc is not None:
            return self._disc
        ctx = self.ctx
        f = [RationalFn(c) for c in self.y_coeffs]
        fp = [RationalFn(c * i) for i, c in enumerate(self.y_coeffs) if i >= 1]
        res = _rf_resultant(f, fp)
        n = self.y_degree
        if (n * (n - 1) // 2) % 2 == 1:
            res = RationalFn(-res.num, res.den)
        if res.den.degree != 0:
            raise InvariantViolated("Y-discriminant is not a polynomial")
        self._disc = res.num
        return self._disc

    def _validate(self, force_wild: bool) -> None:
        disc = self._y_discriminant()
        if disc.is_zero():
            raise NotGeometric("F is not squarefree in Y over F_q(T)")
        # injectivity and consistency of the cycle-type table
        seen_classes: dict[int, tuple[int, ...]] = {}
        for part, ci in self.cycle_table.items():
            if sum(part) != self.y_degree:
                raise AmbiguousCycleType(f"partition {part} does not sum to {self.y_degree}")
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
        unit, parts = factor_raw(self.ctx, disc.coeffs, seed=0)
        self._ram = frozenset(P for P, _ in parts)
        self.validated = True
        self._sampling_check()

    def _sampling_check(self) -> None:
        """Necessary-condition census: observed cycle types must be in the
        table, with frequencies within 5 sigma of the class proportions."""
        G = self.group
        counts = [0] * len(G.classes)
        for deg in (1, 2, 3):
            if sum(counts) >= 200:
                break
            counts = [a + b for a, b in zip(counts, self.class_counts(deg))]
        total = sum(counts)
        if total == 0:
            return
        for ci, cls in enumerate(G.classes):
            frac = len(cls) / G.n
            exp = total * frac
            sigma = math.sqrt(total * frac * (1 - frac)) or 1.0
            if abs(counts[ci] - exp) > 5 * sigma:
                raise AmbiguousCycleType(
                    f"observed Frobenius frequencies are inconsistent with the "
                    f"asserted group (class {ci}: saw {counts[ci]}, "
                    f"expected {exp:.1f} of {total})"
                )

    def _ramified_set(self) -> frozenset[Coeffs]:
        return self._ram

    def _coset_raw(self, P: Coeffs) -> int:
        if P in self._ram:
            raise RamifiedSplittingCover(
                f"{Poly._raw(self.ctx, P)!r} divides the Y-discriminant"
            )
        rf = residue_field(Poly._raw(self.ctx, P))
        big = rf.field
        ycs = pnorm(tuple(rf.eval_poly(c.coeffs) for c in self.y_coeffs))
        if pdeg(ycs) != self.y_degree:
            raise InvariantViolated("Y-polynomial lost degree in the residue field")
        if pdeg(pgcd(big, ycs, pderiv(big, ycs))) > 0:
            raise RamifiedSplittingCover(
                "F mod P is not squarefree despite P avoiding the Y-discriminant"
            )
        # the cycle type needs only the degrees of the factors of F(t, Y)
        degs = [d for d, g in _ddf(big, ycs) for _ in range(pdeg(g) // d)]
        part = tuple(sorted(degs, reverse=True))
        if part not in self.cycle_table:
            raise AmbiguousCycleType(f"cycle type {part} absent from the table")
        return self.group.class_to_omega[self.cycle_table[part]]

    def tame_at_infinity(self) -> bool:
        return self.declared_tame_at_infinity

    def infinity_data(self) -> SplittingData:
        raise NotAbelian("splitting covers carry no splitting data (e, f, g) at infinity")

    def genus(self) -> int:
        self.require_validated()
        if self.declared_genus is None:
            raise UserGenusRequired("declare the genus for splitting covers")
        return self.declared_genus


def _rf_resultant(f: list[RationalFn], g: list[RationalFn]) -> RationalFn:
    """Resultant of polynomials in Y with F_q(T)-coefficients (low first)."""
    ctx = f[0].ctx

    def norm(h):
        while h and h[-1].num.is_zero():
            h.pop()
        return h

    def divmod_(a, b):
        a = list(a)
        db = len(b) - 1
        inv_lead = RationalFn(b[-1].den, b[-1].num)
        while a and len(a) - 1 >= db:
            c = a[-1] * inv_lead
            sh = len(a) - 1 - db
            for j in range(db + 1):
                a[sh + j] = a[sh + j] - c * b[j]
            a.pop()  # the top coefficient cancels exactly
            a = norm(a)
        return a

    f = norm(list(f))
    g = norm(list(g))
    one = RationalFn(Poly.one(ctx))
    zero = RationalFn(Poly.zero(ctx))
    if not f or not g:
        return zero
    if len(f) == 1 and len(g) == 1:
        return one
    res = one
    while len(g) - 1 > 0:
        r = divmod_(f, g)
        if not r:
            return zero
        power = (len(f) - 1) - (len(r) - 1)
        lead_pow = g[-1]
        acc = one
        for _ in range(power):
            acc = acc * lead_pow
        res = res * acc
        if ((len(f) - 1) * (len(g) - 1)) % 2 == 1:
            res = RationalFn(-res.num, res.den)
        f, g = g, r
    acc = one
    for _ in range(len(f) - 1):
        acc = acc * g[0]
    return res * acc


# ---------------------------------------------------------------------------
# validation entry point


def validate_cover(spec: Cover, force_wild: bool = False) -> Cover:
    """Run the kind-specific checks; idempotent, returns the spec.  A spec
    whose checks fail stays unvalidated, even where a check (the splitting
    census) needed the flag set to classify primes."""
    if not spec.validated:
        try:
            spec._validate(force_wild)
        except BaseException:
            spec.validated = False
            raise
    return spec


def kummer(ctx: Field, d: int, D: Poly | str) -> KummerCover:
    if isinstance(D, str):
        D = parse_poly(ctx, D)
    return validate_cover(KummerCover(ctx, d, D))  # type: ignore[return-value]


def artin_schreier(ctx: Field, D, force_wild: bool = False) -> ArtinSchreierCover:
    if isinstance(D, str):
        D = parse_poly(ctx, D)
    return validate_cover(ArtinSchreierCover(ctx, D), force_wild)  # type: ignore[return-value]


def product(components: list[Cover]) -> ProductCover:
    return validate_cover(ProductCover(components))  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# cover description files


def dumps_cover(spec: Cover) -> str:
    """Canonical key-value serialization; round-trips bit-exactly."""
    ctx = spec.ctx
    lines = [f"kind = {spec.kind}", f"p = {ctx.p}", f"k = {ctx.k}"]
    if isinstance(spec, TrivialCover):
        pass
    elif isinstance(spec, KummerCover):
        lines.append(f"d = {spec.d}")
        lines.append(f"D = {spec.D.serialize()}")
    elif isinstance(spec, ArtinSchreierCover):
        lines.append(f"D_num = {spec.D.num.serialize()}")
        lines.append(f"D_den = {spec.D.den.serialize()}")
    elif isinstance(spec, ProductCover):
        lines.append(f"components = {len(spec.components)}")
        for i, c in enumerate(spec.components, 1):
            if isinstance(c, KummerCover):
                lines.append(f"component.{i}.kind = kummer")
                lines.append(f"component.{i}.d = {c.d}")
                lines.append(f"component.{i}.D = {c.D.serialize()}")
            else:
                lines.append(f"component.{i}.kind = artin_schreier")
                lines.append(f"component.{i}.D_num = {c.D.num.serialize()}")
                lines.append(f"component.{i}.D_den = {c.D.den.serialize()}")
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
            return KummerCover(ctx, integer(prefix + "d"), poly(prefix + "D"))
        if kd == "artin_schreier":
            num = poly(prefix + "D_num")
            den = poly(prefix + "D_den", "[1]")
            return ArtinSchreierCover(ctx, RationalFn(num, den))
        raise CoverFileError(f"unknown cover kind {kd!r}")

    if kind == "trivial":
        spec = TrivialCover(ctx)
    elif kind in ("kummer", "artin_schreier"):
        spec = build("", kind)
    elif kind == "product":
        comps = [
            build(f"component.{i}.", value(f"component.{i}.kind"))
            for i in range(1, integer("components") + 1)
        ]
        spec = ProductCover(comps)
    elif kind == "splitting":
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
        spec = SplittingCover(ctx, ycs, gens, table, genus, tame)
    else:
        raise CoverFileError(f"unknown cover kind {kind!r}")
    return validate_cover(spec, force_wild)


def load_cover(path: str, force_wild: bool = False) -> Cover:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CoverFileError(f"cannot read cover file: {e}") from None
    return parse_cover(text, force_wild)
