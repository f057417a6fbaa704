#!/usr/bin/env python3
"""The finite-field matrix character sums and their erratum adjudication:
every closed display is paired with a brute-force oracle, and where the two
disagree the corrected constant is pinned down by exhaustion.  Each display
takes variant="corrected" (the default) or variant="printed"; the demo
asserts every comparison it prints."""

import numpy as np

from kmlift.characters import char_group
from kmlift.charsums import (Jm_brute, Jm_recursion, bordered_det_sum_brute,
                             bordered_det_sum_closed, count_A_brute,
                             count_A_closed, count_A_display, gamma_const,
                             h_brute_sl, h_closed, legendre_char,
                             sl_gram_counts, thm59_display)

print("== the odd-rank scalar display (Lemma 5.1 family) ==")
printed = count_A_display([[1]], 1, 3)
general, brute = count_A_closed([[1]], [[1]], 3), count_A_brute([[1]], [[1]], 3)
print("printed value at (m,p,S,c)=(1,3,1,1):", printed)
print("general formula / brute count:      ", general, "/", brute)
assert printed != brute and general == brute
print("-> the sign exponent should read (m-1)/2, not (m+1)/2")

print("\n== the orthogonal fiber constant gamma_{m,p} (Prop 5.2 family) ==")
# X X^t = 1_2 has upper-triangle entries (1, 0, 1): base-3 index 1 + 3^2
oracle = int(sl_gram_counts(2, 3)[1 + 3 ** 2])
print("printed gamma_{2,3}:", gamma_const(2, 3, "printed"),
      "  corrected:", gamma_const(2, 3, "corrected"),
      f"  oracle #{{X in SL_2(F_3): X X^t = 1}} = {oracle}")
assert gamma_const(2, 3, "printed") != oracle == gamma_const(2, 3, "corrected")

print("\n== bordered determinant sums (Prop 5.4 family) at p = 7 ==")
eta = next(c for c in char_group(7) if c.order == 3)
Z1 = np.diag([1])
b = bordered_det_sum_brute(eta, Z1, 1)
printed = bordered_det_sum_closed(eta, Z1, 1, "printed")
corrected = bordered_det_sum_closed(eta, Z1, 1, "corrected")
print("brute    :", b)
print("printed  :", printed)
print("corrected:", corrected)
assert not (printed == b) and corrected == b
print("-> for even border size the sign exponent is (l-2)/2")

print("\n== the J_m recursion at p = 11 (Prop 5.8, Thm 5.9 family) ==")
chi = next(c for c in char_group(11) if c.order == 5)
leg = legendre_char(11)
brute = Jm_brute(chi, chi, 2)
corrected, printed = Jm_recursion(chi, chi, 2), Jm_recursion(chi, chi, 2, "printed")
print("m = 2: corrected recursion == brute:", corrected == brute,
      "| printed prefactor (-1/p)^(m/2) == brute:", printed == brute)
assert corrected == brute and not (printed == brute)
rec = Jm_recursion(chi, chi, 3)
print("recursion == brute at m = 3:", rec == Jm_brute(chi, chi, 3))
assert rec == Jm_brute(chi, chi, 3)
m4_rec = Jm_recursion(chi * leg ** 0, chi, 4)
corrected, printed = thm59_display(chi, 0, 4), thm59_display(chi, 0, 4, "printed")
print("m = 4 display needs the p^((m-2)/2) factor:", corrected == m4_rec,
      "| without it:", printed == m4_rec)
assert corrected == m4_rec and not (printed == m4_rec)

print("\n== the trace sums h(A, chi) over SL_m ==")
gram = [[2, 1], [1, 2]]
chis = [chi for chi in char_group(7) if not chi.is_trivial()]
misses = 0
for chi in chis:
    b = h_brute_sl(gram, chi)
    assert b == h_closed(gram, chi)
    misses += not (h_closed(gram, chi, "printed") == b)
print("closed (corrected gamma, unconjugated first Jacobi factor) = brute, "
      "all characters mod 7")
print(f"printed (conjugated first Jacobi factor) misses {misses} of {len(chis)}")
assert misses > 0
