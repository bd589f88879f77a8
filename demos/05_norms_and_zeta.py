#!/usr/bin/env python3
"""Norm counting on the full interval and the rational zeta identity.

The number of ideals of norm (f), summed over all monic f of degree n, is a
power-series coefficient of a rational function ptilde(u)/(1 - qu).  So the
mean of r is literally constant in n once n passes deg(ptilde), and the
constant ptilde(1/q) is forced to within 4/sqrt(q) of 1 by the square-root
bound on prime tallies.  The norm indicator b behaves differently: its mean
tracks K_E * binom(n + 1/|G| - 1, n).

ptilde and the means of b come from the prime tallies; the means of r and
the sums of b are read from the interval sieve over I(T^n, n - 1), every
monic of degree n.
"""

from fractions import Fraction

from ffcheb import make_field, parse_poly
from ffcheb.covers import kummer
from ffcheb.factypes import B
from ffcheb.wreath import rising_binom
from ffcheb.zeta import (
    K_E,
    b_full_mean,
    curve_zeta_numerator,
    full_degree_mean,
    prime_tallies,
    psi_E,
    ptilde,
    r_full_mean,
    rh_root_moduli,
)

F5 = make_field(5)
cov = kummer(F5, 2, "T^3-3*T^2+2*T")
q = 5

print("== prime tallies by inertia degree (unramified), degree <= 4 ==")
tally = prime_tallies(cov, 4)
for (d, f), cnt in sorted(tally.unramified.items()):
    print(f"  degree {d}, f = {f}: {cnt} primes")
print("  ramified:", dict(tally.ramified))

print("\n== psi_E(n) against q^n / |G| ==")
for n in range(1, 9):
    psi = psi_E(cov, n)
    print(f"  n={n}: psi = {psi:>12d},  q^n/2 = {q**n / 2:>14.1f},  dev = {abs(psi - q**n / 2):>10.1f}")

print("\n== the Dedekind numerator ==")
pt = ptilde(cov)
val = sum(Fraction(c, q**i) for i, c in enumerate(pt))
print("ptilde coefficients:", pt)
print("curve numerator (infinite place removed):", curve_zeta_numerator(cov))
print("root moduli^2 * q (should all be 1):", [round(x, 9) for x in rh_root_moduli(curve_zeta_numerator(cov), q)])
print(f"ptilde(1/q) = {val}")
for n in range(1, 7):
    print(f"  <r> over degree-{n} monics = {r_full_mean(cov, n)}")

print("\n== the norm indicator b ==")
kval, ktail = K_E(cov)
print(f"K_E truncation = {float(kval):.6f} (tail bound {ktail:.2f})")
for n in range(1, 6):
    mean = b_full_mean(cov, n)
    sum_b = int(full_degree_mean(cov, B(), n) * q**n)
    binom = rising_binom(Fraction(1, 2), n)
    print(
        f"  n={n}: sum b = {sum_b:>6d},  mean = {mean},"
        f"  mean/binom(n-1/2, n) = {float(mean / binom):.4f}"
    )
