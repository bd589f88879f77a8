#!/usr/bin/env python3
"""Explicit Galois covers of the line and their per-prime Frobenius data.

A quadratic Kummer cover y^2 = D(T) reads Frobenius off the quadratic residue
symbol; an Artin-Schreier cover y^p - y = D(T) reads it off an absolute trace.
Both expose the full splitting triple (e, f, g) at every prime, including the
ramified ones, through the group's coset-class catalog.
"""

from ffcheb import Poly, RationalFn, make_field, parse_poly
from ffcheb.covers import artin_schreier, dumps_cover, kummer

F5 = make_field(5)
T = Poly.x(F5)

print("== quadratic Kummer cover y^2 = T(T-1)(T-2) over F_5 ==")
cov = kummer(F5, 2, "T^3-3*T^2+2*T")
print("genus:", cov.genus())
print("ramified primes:", ", ".join(str(P) for P in cov.ramified_primes()))
print("infinity:", cov.infinity_data().as_tuple(), "(e, f, g); deg D odd so e = 2")

print("\nFrobenius and splitting at the degree-1 primes:")
for a in range(5):
    P = T - a
    sd = cov.splitting_data(P)
    if P in cov.ramified_primes():
        print(f"  {P}: ramified, (e,f,g) = {sd.as_tuple()}")
    else:
        cls = cov.frobenius_class(P)
        kind = "split" if cls == 0 else "inert"
        print(f"  {P}: class {cls} ({kind}), (e,f,g) = {sd.as_tuple()}")

print("\n== Artin-Schreier cover y^3 - y = 1/T over F_3 ==")
F3 = make_field(3)
asc = artin_schreier(F3, RationalFn(Poly.one(F3), Poly.x(F3)))
print("genus:", asc.genus(), "(the curve is rational)")
print("ramified primes:", ", ".join(str(P) for P in asc.ramified_primes()))
print("infinity:", asc.infinity_data().as_tuple(), "- split, since D vanishes there")
T3 = Poly.x(F3)
for a in (1, 2):
    P = T3 - a
    print(f"  {P}: trace class {asc.frobenius_class(P)}, (e,f,g) = {asc.splitting_data(P).as_tuple()}")

print("\n== reduction of Artin-Schreier data ==")
from ffcheb.covers import as_reduce

F2 = make_field(2)
for text in ("T^2", "T^4", "T^6+T^5"):
    r = as_reduce(RationalFn(parse_poly(F2, text)))
    print(f"  {text:8s} is equivalent to {r} modulo g^2 - g")

print("\n== the cover description file format ==")
print(dumps_cover(cov))
