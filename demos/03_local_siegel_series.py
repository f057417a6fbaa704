#!/usr/bin/env python3
"""Everything p-adic: representation densities, the local Siegel series with
its two independent computation routes, and the genus power series whose
closed rational form is checked coefficient by coefficient against the class
sums."""

from kmlift.plocal import (density_from_symbol, jordan_decompose, local_density,
                           p_series, p_series_closed, siegel_series,
                           _density_brute)
from kmlift.quadforms import GramMat

A2 = GramMat([[2, 1], [1, 2]])

print("== local densities: brute stabilized count vs Jordan-data closed form ==")
for A, p in (([[1, 0], [0, 3]], 3), ([[3, 0], [0, 3]], 3), ([[2, 0], [0, 2]], 5)):
    brute = _density_brute(A, p)
    closed = density_from_symbol(jordan_decompose(A, p), p)
    print(f"alpha_{p}({A}) brute = {brute}  closed = {closed}")
    assert brute == closed, (A, p)
print("alpha_2(A_2) =", local_density(A2, 2), "(Conway-Sloane 2-adic closed form)")

print("\n== the Siegel series F_p(T, X): coset oracle vs stratified extraction ==")
G36 = GramMat([[2, 0], [0, 18]])
routes = {mode: siegel_series(G36, 3, mode=mode)
          for mode in ("oracle", "stratified")}
for mode, sp in routes.items():
    print(f"F_3(det 36 binary), {mode:10s}: {sp.fcoeffs}  "
          f"functional equation: {sp.check_symmetry()}")
    assert sp.check_symmetry(), mode
assert routes["oracle"].fcoeffs == routes["stratified"].fcoeffs
D4 = GramMat([[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]])
print("F_2(D_4):", siegel_series(D4, 2).fcoeffs)

print("\n== the genus series and its closed rational form ==")
b = p_series(2, 3, 1, "iota", 4, mode="brute")
c = p_series_closed(2, 3, 1, "iota", 4)
print("P(n=2, p=3, d0=1, iota): class sums == closed expansion:", b == c)
assert b == c
killed = not p_series_closed(4, 5, 5, "eps", 4).coeffs
print("ramified d0 kills the Hasse-weighted branch:", killed)
assert killed
