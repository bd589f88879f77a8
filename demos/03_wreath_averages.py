#!/usr/bin/env python3
"""Conjugacy classes of G wr S_n and exact averages of class functions.

Classes are colored partitions (cycle length, conjugacy class of the cycle
product), with an explicit size formula; the test suite certifies that formula
against a walk over every element, which is what lets the predicted side of
every experiment be exact.
"""

from ffcheb.factypes import B, OneC, R, RPower
from ffcheb.groups import GroupTable
from ffcheb.wreath import closed_form_mean, enumerate_class_types, mean_class_function

Z2 = GroupTable.cyclic(2)

print("== conjugacy classes of Z/2 wr S_2 (the dihedral group of order 8) ==")
for ct, size in enumerate_class_types(Z2, 2):
    print(f"  type {ct.serialize():14s} size {size}")

print("\n== two routes to the same averages (Z/2 wr S_4) ==")
n = 4
for fn, label in ((OneC(1), "1_C (nontrivial C)"), (B(), "norm indicator b"), (R(), "norm count r"), (RPower(2), "r^2")):
    exact = mean_class_function(fn, Z2, n)
    closed = closed_form_mean(fn, Z2, n)
    print(f"  {label:20s} class-types: {exact}   closed form: {closed}")

print("\n== the closed forms across groups ==")
print("  <1_C> = |C| / (n |G|); <b> = binom(n + 1/|G| - 1, n); <r> = 1")
for G, name in ((Z2, "Z/2"), (GroupTable.cyclic(3), "Z/3"), (GroupTable.symmetric(3), "S_3")):
    n = 3
    print(
        f"  {name:4s} n={n}:  <b> = {closed_form_mean(B(), G, n)},"
        f"  <r> = {closed_form_mean(R(), G, n)},"
        f"  <r^2> = {closed_form_mean(RPower(2), G, n)}"
    )

print("\nNote the asymmetry: b is an indicator, so its mean is the binomial")
print("below 1, while r counts ideals and averages to exactly 1.")
