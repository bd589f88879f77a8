"""Brute-force Frobenius and prime lists, kept for the tests.

`oracle_class` reads Frobenius at an unramified prime P from the routes that
raise to powers modulo P: the power-residue symbol `KummerCover._symbol`
(D^((|P|-1)/d) mod P) and the per-prime trace `ArtinSchreierCover._trace`
(sum of the p-th power iterates of D mod P), componentwise for products.
`coset_class` reads Frobenius by reciprocity and Newton traces instead, so a
tally built from `oracle_class` checks that route rather than repeating it.

`rabin_primes` lists the primes of a degree by a Rabin test on every monic;
`primes_of_degree` sieves them instead.

`factored_root` finds the smallest root of a prime P in F_{q^deg P} by
factoring P there, one prime at a time; `smallest_zero` and `count_zeros`
search F_{q^deg P} element by element, with the base field embedded by
`brute_embedding`.  `ResidueField` reads its root from a table of Frobenius
orbits instead.

`digit_add` and `digit_neg` add and negate elements of F_{p^k} base-p digit
by digit, on the integer encoding; `Field.add`, `Field.sub` and `Field.neg`
use Zech logarithms instead.
"""

from ffcheb.covers import ArtinSchreierCover, KummerCover, ProductCover
from ffcheb.polys import enumerate_monic_raw, factor_raw, is_irreducible_raw, peval


def oracle_element(cov, P):
    """Group element of Frobenius at the unramified prime P (coefficients)."""
    if isinstance(cov, KummerCover):
        return cov._symbol(cov.D.coeffs, P)
    if isinstance(cov, ArtinSchreierCover):
        return cov._trace(P)
    if isinstance(cov, ProductCover):
        return cov.group.encode_product([oracle_element(c, P) for c in cov.components])
    raise TypeError(f"no oracle for {cov.kind} covers")


def oracle_class(cov, P):
    """Conjugacy-class index of Frobenius at P, as frobenius_class numbers it."""
    g = oracle_element(cov, P)
    return next(i for i, cls in enumerate(cov.group.classes) if g in cls)


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
