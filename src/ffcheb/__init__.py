"""ffcheb: exact Frobenius statistics for Galois covers of F_q(T).

Layers, bottom up: finite fields (ffield), polynomial arithmetic (polys),
finite groups with coset-class catalogs (groups), explicit covers with
per-prime Frobenius data (covers), factorization types and the arithmetic
functions on them (factypes), wreath-product combinatorics (wreath), the
short-interval experiment harness (intervals), and the norm-counting zeta
machinery (zeta).  The `ffcheb` console script exposes the lot.
"""

from . import covers, factypes, groups, intervals, wreath, zeta
from .errors import DomainError, FfchebError, ResourceError
from .ffield import Field, FieldElement, make_field, root_of_unity
from .polys import (
    Factorization,
    Poly,
    RationalFn,
    count_primes,
    enumerate_monic,
    eval_mod,
    factor,
    is_irreducible,
    parse_poly,
    residue_field,
)

__all__ = [
    "DomainError",
    "FfchebError",
    "ResourceError",
    "Field",
    "FieldElement",
    "make_field",
    "root_of_unity",
    "Factorization",
    "Poly",
    "RationalFn",
    "count_primes",
    "enumerate_monic",
    "eval_mod",
    "factor",
    "is_irreducible",
    "parse_poly",
    "residue_field",
]
