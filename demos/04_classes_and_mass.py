#!/usr/bin/env python3
"""Global quadratic forms: class enumeration by bounded determinant with
isometry deduplication, automorphism counts, and the Siegel mass audit that
pins the overall 2-power of the displayed mass formula."""

from fractions import Fraction

from kmlift.plocal import jordan_decompose, mass_formula
from kmlift.quadforms import GramMat, automorphism_count, enumerate_classes

print("== binary classes with det(2T) <= 4 ==")
for c in enumerate_classes(2, 4).classes:
    print("  gram", c.gram.rows(), " e(T) =", c.e, " disc split:", c.disc)

print("\n== quaternary classes with det(2T) <= 16 ==")
cl = enumerate_classes(4, 16)
for c in cl.classes:
    print(f"  det {c.gram.det():3d}  e(T) = {c.e:4d}  d_T f_T^2 = "
          f"{c.disc.d} * {c.disc.f}^2")

print("\n== the mass audit ==")
A2 = GramMat([[2, 1], [1, 2]])
D4 = GramMat([[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]])
I4 = GramMat([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
tables = sorted([(b.scale, b.dim, b.detclass, b.oddity)
                 for b in jordan_decompose(c.gram, 2).blocks]
                for c in cl.by_det(16))
print("the two det-16 classes split into different genera; their 2-adic")
print("constituents (scale, dim, det mod 8, oddity):")
for t in tables:
    print("  ", t)
assert len(tables) == 2 and tables[0] != tables[1]
for name, G, obs in (("A_2", A2, Fraction(1, 6)), ("D_4", D4, Fraction(1, 576)),
                     ("2*1_4", I4, Fraction(1, 192))):
    mass = 2 * mass_formula(G)
    print(f"  {name:6s} sum 1/e = {obs}   assembled formula * 2 = {mass}")
    assert mass == obs, name
print("-> one fitted power of 2 (the displayed formula's orphaned constant)")
