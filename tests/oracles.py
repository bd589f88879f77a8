"""Brute-force Frobenius and prime lists, kept for the tests.

`oracle_class` reads Frobenius at an unramified prime P from the routes that
raise to powers modulo P: the power-residue symbol `power_residue`
(D^((|P|-1)/d) mod P, read as a power of `root_of_unity`) and the per-prime
trace `as_trace` (sum of the p-th power iterates of D mod P), componentwise
for products.  `coset_class` reads Frobenius by d-th power reciprocity and
the norm as a resultant (Kummer) and by the residue theorem at the poles of
D (Artin-Schreier) instead, so a tally built from `oracle_class` checks
those routes rather than repeating them.

`dedekind_series` and `b_direct_sum` sum r and b over every monic of a
degree, one `direct_r`/`direct_b` factorization each; `zeta` reads those
sums from the interval sieve or the Euler product instead.

`series_log` inverts `Series.exp`; no route in `src` takes a logarithm.

`rabin_primes` lists the primes of a degree by a Rabin test on every monic;
`primes_of_degree` sieves them instead.

`factored_root` finds the smallest root of a prime P in F_{q^deg P} by
factoring P there, one prime at a time; `smallest_zero` and `count_zeros`
search F_{q^deg P} element by element, with the base field embedded by
`brute_embedding`.  `ResidueField` reads its root from a table of Frobenius
orbits instead.  `orbit_root_table` builds that table by multiplying out
every Frobenius orbit of F_{q^d}; `polys._root_table` multiplies out one
orbit per class of the scalar action of F_q^* and scales the others.

`digit_add` and `digit_neg` add and negate elements of F_{p^k} base-p digit
by digit, on the integer encoding; `Field.add`, `Field.sub` and `Field.neg`
use Zech logarithms instead.

`WreathElement` models G wr S_n element by element, with `wreath_mul`,
`wreath_inv`, `wreath_conj` and the cycle data `lambda_of_wreath`;
`all_elements` walks every element and `brute_force_mean` averages a class
function over that walk.  `wreath.mean_class_function` reads the same average
from the class-type table, whose sizes come from a formula instead.
"""

import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from ffcheb.covers import ArtinSchreierCover, KummerCover, ProductCover
from ffcheb.errors import TooLarge
from ffcheb.factypes import FactorizationType, direct_b, direct_r, evaluate
from ffcheb.ffield import make_field, root_of_unity
from ffcheb.polys import (
    enumerate_monic,
    enumerate_monic_raw,
    factor_raw,
    is_irreducible_raw,
    padd,
    pdeg,
    peval,
    pmod,
    pmul,
    ppowmod,
)
from ffcheb.zeta import Series


def as_trace(cov, P):
    """Absolute trace of D mod P in Z/p, for an Artin-Schreier cover and a
    prime P that is not a pole: D mod P and its p-th power iterates, added."""
    F = cov.ctx
    num_mod = pmod(F, cov.D.num.coeffs, P)
    den_mod = pmod(F, cov.D.den.coeffs, P)
    inv_den = ppowmod(F, den_mod, F.q ** pdeg(P) - 2, P)
    x = pmod(F, pmul(F, num_mod, inv_den), P)
    acc = cur = x
    for _ in range(F.k * pdeg(P) - 1):
        cur = ppowmod(F, cur, F.p, P)
        acc = padd(F, acc, cur)
    t = acc[0] if acc else 0
    assert pdeg(acc) <= 0 and t < F.p, "the trace is not an element of F_p"
    return t


def power_residue(cov, numer, P):
    """dlog of the d-th power residue symbol (numer/P)_d of a Kummer cover,
    for a prime P and numer coprime to P: numer mod P to the power
    (|P| - 1)/d, which is a power of the cover's root of unity."""
    F, d = cov.ctx, cov.d
    c = ppowmod(F, pmod(F, numer, P), (F.q ** pdeg(P) - 1) // d, P)
    assert pdeg(c) == 0, "the power-residue symbol is not a constant"
    zeta, val = root_of_unity(F, d).val, 1
    for j in range(d):
        if val == c[0]:
            return j
        val = F.mul(val, zeta)
    raise AssertionError("the power-residue symbol is not a d-th root of unity")


def oracle_element(cov, P):
    """Group element of Frobenius at the unramified prime P (coefficients)."""
    if isinstance(cov, KummerCover):
        return power_residue(cov, cov.D.coeffs, P)
    if isinstance(cov, ArtinSchreierCover):
        return as_trace(cov, P)
    if isinstance(cov, ProductCover):
        return cov.group.encode_product([oracle_element(c, P) for c in cov.components])
    raise TypeError(f"no oracle for {cov.kind} covers")


def oracle_class(cov, P):
    """Conjugacy-class index of Frobenius at P, as frobenius_class numbers it."""
    g = oracle_element(cov, P)
    return next(i for i, cls in enumerate(cov.group.classes) if g in cls)


def dedekind_series(cov, N, seed=0):
    """Coefficient n is the sum of r over every monic of degree n <= N."""
    coeffs = [Fraction(1)]
    for n in range(1, N + 1):
        coeffs.append(Fraction(sum(direct_r(cov, f, seed) for f in enumerate_monic(cov.ctx, n))))
    return Series(coeffs)


def series_log(s):
    """log of a series with constant term 1, by the recurrence
    a_m = b_m - (1/m) sum_{j<m} j a_j b_{m-j}; the inverse of `Series.exp`."""
    assert s.coeffs[0] == 1, "log needs a series with constant term 1"
    out = [Fraction(0)] * len(s.coeffs)
    for m in range(1, len(s.coeffs)):
        corr = sum((out[j] * j * s.coeffs[m - j] for j in range(1, m)), Fraction(0))
        out[m] = s.coeffs[m] - corr / m
    return Series(out)


def b_direct_sum(cov, n, seed=0):
    """Sum of the norm indicator b over every monic of degree n."""
    if n == 0:
        return 1
    return sum(direct_b(cov, f, seed) for f in enumerate_monic(cov.ctx, n))


def rabin_primes(F, n):
    """Monic irreducibles of degree n in enumeration order, one Rabin test each."""
    return [f for f in enumerate_monic_raw(F, n) if is_irreducible_raw(F, f)]


def factored_root(big, cs):
    """Smallest root in `big` of the polynomial cs over `big`, which splits
    there into distinct linear factors, read from its factorization."""
    _, parts = factor_raw(big, cs)
    roots = [big.neg(P[0]) for P, e in parts if len(P) == 2 and e == 1]
    assert len(roots) == len(cs) - 1, "the polynomial does not split into distinct roots"
    return min(roots)


def smallest_zero(big, cs):
    """Smallest element of `big` where cs vanishes (None if none), by search."""
    return next((x for x in range(big.q) if peval(big, cs, x) == 0), None)


def count_zeros(big, cs):
    """Number of elements of `big` where cs vanishes."""
    return sum(1 for x in range(big.q) if peval(big, cs, x) == 0)


def brute_embedding(F, big):
    """The map F -> big that sends the class of x (encoded p) to the smallest
    zero of F's modulus in big; the identity when F is a prime field."""
    if F.k == 1:
        return lambda a: a
    beta = smallest_zero(big, F.modulus)
    pows = [big.pow(beta, i) for i in range(F.k)]

    def embed(a):
        out = 0
        for c, bp in zip(F.coeffs(a), pows):
            out = big.add(out, big.mul(c, bp))
        return out

    return embed


def orbit_root_table(base, d):
    """The root table of degree d over `base`, laid out as `polys._root_table`
    lays it out, from one walk over F_{q^d}: every Frobenius orbit x -> x^q of
    size d is the set of roots of one prime, multiplied out with `pmul`."""
    q = base.q
    big = make_field(base.p, base.k * d)
    embed = brute_embedding(base, big)
    to_base = {embed(a): a for a in range(q)}
    n = big.q - 1
    roots = array("i", [-1]) * big.q
    if d == 1:
        roots[0] = 0  # T
    seen = bytearray(n)
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]  # discrete logs: x^q has log q * log x mod q^d - 1
        j = start * q % n
        while j != start:
            orbit.append(j)
            j = j * q % n
        for j in orbit:
            seen[j] = 1
        if len(orbit) != d:
            continue
        prime = (1,)
        for j in orbit:
            prime = pmul(big, prime, (big.neg(big._exp[j]), 1))
        index = sum(to_base[c] * q**i for i, c in enumerate(prime[:-1]))
        roots[index] = min(big._exp[j] for j in orbit)
    return roots


def digit_add(F, a, b):
    """a + b in F, one base-p digit at a time."""
    p = F.p
    out = 0
    mult = 1
    for _ in range(F.k):
        out += (a % p + b % p) % p * mult
        a //= p
        b //= p
        mult *= p
    return out


def digit_neg(F, a):
    """-a in F, one base-p digit at a time."""
    p = F.p
    out = 0
    mult = 1
    for _ in range(F.k):
        out += (-(a % p)) % p * mult
        a //= p
        mult *= p
    return out


#: bound on |G|^n * n! for a walk over every element of G wr S_n
BRUTE_FORCE_LIMIT = 10**7


@dataclass(frozen=True)
class WreathElement:
    """(xi, sigma) in G wr S_n; sigma maps position i to sigma[i]."""

    group: object
    xi: tuple
    sigma: tuple

    def __post_init__(self):
        n = len(self.xi)
        if len(self.sigma) != n or sorted(self.sigma) != list(range(n)):
            raise ValueError("sigma is not a permutation of the xi positions")

    @property
    def n(self):
        return len(self.xi)


def _check_same(a, b):
    if a.group is not b.group or a.n != b.n:
        raise ValueError("wreath elements from different groups")


def wreath_identity(group, n):
    return WreathElement(group, (0,) * n, tuple(range(n)))


def wreath_mul(a, b):
    """(xi1, s1)(xi2, s2) = (xi1 * xi2^(s1^-1), s1 s2)."""
    _check_same(a, b)
    G = a.group
    inv_s1 = [0] * a.n
    for i, v in enumerate(a.sigma):
        inv_s1[v] = i
    xi = tuple(G.mul(a.xi[x], b.xi[inv_s1[x]]) for x in range(a.n))
    sigma = tuple(a.sigma[b.sigma[x]] for x in range(a.n))
    return WreathElement(G, xi, sigma)


def wreath_inv(a):
    G = a.group
    inv_sigma = [0] * a.n
    for i, v in enumerate(a.sigma):
        inv_sigma[v] = i
    xi = tuple(G.inv(a.xi[a.sigma[y]]) for y in range(a.n))
    return WreathElement(G, xi, tuple(inv_sigma))


def wreath_conj(a, h):
    """h a h^-1."""
    return wreath_mul(wreath_mul(h, a), wreath_inv(h))


def lambda_of_wreath(w):
    """Cycle data: for each sigma-cycle (j_1 ... j_d), the conjugacy class of
    xi(j_d) ... xi(j_1), recorded at (d, 1, class-as-coset)."""
    G = w.group
    n = w.n
    seen = [False] * n
    counts = {}
    for start in range(n):
        if seen[start]:
            continue
        prod = 0
        d = 0
        j = start
        while not seen[j]:
            seen[j] = True
            prod = G.mul(w.xi[j], prod)
            j = w.sigma[j]
            d += 1
        omega = G.class_to_omega[G.class_of[prod]]
        key = (d, 1, omega)
        counts[key] = counts.get(key, 0) + 1
    return FactorizationType(counts)


def is_conjugate(a, b):
    _check_same(a, b)
    return lambda_of_wreath(a) == lambda_of_wreath(b)


def all_elements(group, n):
    total = group.n**n * math.factorial(n)
    if total > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{total} wreath elements exceed the enumeration bound")
    for sigma in itertools.permutations(range(n)):
        for xi in itertools.product(range(group.n), repeat=n):
            yield WreathElement(group, xi, sigma)


def brute_force_mean(fn, group, n):
    """Average of fn over G wr S_n by walking every element."""
    total = Fraction(0)
    cache = {}
    count = 0
    for w in all_elements(group, n):
        lam = lambda_of_wreath(w)
        v = cache.get(lam)
        if v is None:
            v = cache[lam] = evaluate(fn, lam, group)
        total += v
        count += 1
    return total / count
