"""Brute-force Frobenius and prime lists, kept for the tests.

`oracle_class` reads Frobenius at an unramified prime P from the routes that
raise to powers modulo P: the power-residue symbol `KummerCover._symbol`
(D^((|P|-1)/d) mod P) and the per-prime trace `ArtinSchreierCover._trace`
(sum of the p-th power iterates of D mod P), componentwise for products.
`coset_class` reads Frobenius by reciprocity and Newton traces instead, so a
tally built from `oracle_class` checks that route rather than repeating it.

`rabin_primes` lists the primes of a degree by a Rabin test on every monic;
`primes_of_degree` sieves them instead.
"""

from ffcheb.covers import ArtinSchreierCover, KummerCover, ProductCover
from ffcheb.polys import enumerate_monic_raw, is_irreducible_raw


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
