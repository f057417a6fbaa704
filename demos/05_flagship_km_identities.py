#!/usr/bin/env python3
"""End to end: build the weight-13/2 plus-space eigenform, lift its
coefficients through the local Siegel series, and verify the twisted
Koecher-Maass identities of both kinds as exact det-indexed streams.

Uses det(2T) <= 20 to stay quick; the test suite runs the full bound 40."""

import time
from fractions import Fraction

from kmlift.characters import char_group, parse_descriptor
from kmlift.exactalg import CycloNum
from kmlift.liftkm import (build_coeff_table, build_plus_eigenform,
                           verify_thm41, verify_thm511_61)
from kmlift.quadforms import enumerate_classes

t0 = time.time()
B = 20
h = build_plus_eigenform(8, 4, prec=260)
print("plus-space eigenform of weight 13/2; T(p^2) eigenvalues:",
      h.eigenvalues, " (the Ramanujan tau values)")
cl = enumerate_classes(4, B)
table = build_coeff_table(cl, h, 8, 4)
print(f"{len(table.classes)} classes within scope, "
      f"{len(table.excluded)} excluded by the dyadic valuation cap")
for rec, v in table.classes:
    print(f"  det {rec.gram.det():3d}: c_I = {v}")

rep = verify_thm41(h, char_group(1).trivial(), table, 8, 4, B)
print("\nsecond-kind identity, untwisted:", "PASS" if rep.passed else "FAIL",
      rep.constants)
rep5 = verify_thm41(h, parse_descriptor("5:1"), table, 8, 4, B)
print("second-kind identity, quartic twist:", "PASS" if rep5.passed else "FAIL",
      rep5.constants, "(same constants: depend only on n)")
assert rep.passed and rep5.passed and rep5.constants == rep.constants

chi7 = parse_descriptor("7:2")
cn = CycloNum.from_rational(Fraction(rep.constants["c_n"]))
dn = CycloNum.from_rational(Fraction(rep.constants["d_n"]))
rep7 = verify_thm511_61(h, chi7, table, 8, 4, B, cn=cn, dn=dn)
print("first-kind identity at N = 7 (both routes):",
      "PASS" if rep7.passed else "FAIL", rep7.constants)
assert rep7.passed
for chi in char_group(5):
    if not chi.is_trivial():
        assert verify_thm511_61(h, chi, table, 8, 4, B).passed
print("first-kind streams vanish identically for every primitive chi mod 5")
print(f"\ntotal {time.time() - t0:.1f}s")
