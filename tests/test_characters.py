import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from kmlift.characters import (char_group, factorize,
                               find_primitive_root_of_unity_mod, gauss_sum,
                               hilbert_symbol, jacobi, jacobi_sum, kronecker,
                               legendre, local_component, parse_descriptor)
from kmlift.charsums import Im_closed, _weight_counts, _weight_dt, legendre_char
from kmlift.exactalg import CycloNum
from kmlift.lseries import bernoulli_poly_coeffs, gen_bernoulli
from kmlift.plocal import xi_tilde

from gramtools import subgroup_Dm


def test_group_sizes_and_orders():
    assert len(char_group(1)) == 1
    G5 = char_group(5)
    assert sorted(c.order for c in G5) == [1, 2, 4, 4]
    assert len(char_group(35)) == 24


def test_subgroup_Dm():
    assert len(subgroup_Dm(char_group(5), 4)) == 4
    assert len(subgroup_Dm(char_group(7), 4)) == 2
    assert len(subgroup_Dm(char_group(11), 1)) == 1


def test_local_component_reconstruction():
    G = char_group(35)
    for chi in G:
        c5 = local_component(chi, 5)
        c7 = local_component(chi, 7)
        for u in range(35):
            if gcd(u, 35) == 1:
                assert c5(u % 5) * c7(u % 7) == chi(u)


def test_local_component_trivial_cases():
    G15 = char_group(15)
    tr = G15.trivial()
    assert local_component(tr, 3).is_trivial()
    chi5 = next(c for c in char_group(5) if c.order == 4)
    ext = chi5.extend(5)
    assert local_component(ext, 5) == chi5


def test_gauss_sum_values():
    quad5 = next(c for c in char_group(5) if c.order == 2)
    z = CycloNum.zeta
    sqrt5 = z(5, 1) - z(5, 2) - z(5, 3) + z(5, 4)
    assert gauss_sum(quad5) == sqrt5
    for chi in char_group(7):
        if chi.is_primitive():
            assert gauss_sum(chi) * gauss_sum(chi.conjugate()) == \
                chi(-1) * Fraction(7)


def test_jacobi_sum_identities():
    G7 = char_group(7)
    quad5 = next(c for c in char_group(5) if c.order == 2)
    assert jacobi_sum(quad5, quad5).rational_value() == -1
    tr = G7.trivial()
    eta = next(c for c in G7 if c.order == 6)
    assert jacobi_sum(tr, eta).rational_value() == -1
    for chi in G7:
        for eta in G7:
            if chi.is_trivial() or eta.is_trivial() or (chi * eta).is_trivial():
                continue
            assert jacobi_sum(chi, eta) == \
                gauss_sum(chi) * gauss_sum(eta) / gauss_sum(chi * eta)


def test_primitive_roots_of_unity():
    assert find_primitive_root_of_unity_mod(5, 4) in (2, 3)
    assert find_primitive_root_of_unity_mod(7, 2) == 6
    assert find_primitive_root_of_unity_mod(11, 1) == 1


def test_quadratic_symbols():
    for p in (3, 5, 7, 11):
        for a in range(1, p):
            assert legendre(a * a % p, p) == 1
    assert jacobi(2, 15) == jacobi(2, 3) * jacobi(2, 5)
    assert kronecker(-3, 2) == -1 and kronecker(-4, 3) == -1
    # Kronecker chi_D matches the xi~ semantics at good primes
    for D in (-3, -4, 5, 8, 12, -15):
        for p in (3, 5, 7, 11, 13):
            assert kronecker(D, p) == xi_tilde(p, D)


def test_hilbert_symbol_properties():
    for p in (2, 3, 5, 7):
        for a in (1, 2, 3, 5, -1, -2):
            for b in (1, 2, 3, 5, -1):
                ab = hilbert_symbol(a, b, p)
                assert ab == hilbert_symbol(b, a, p)
                assert hilbert_symbol(a, b * b, p) == 1 or b * b == 0
                for c in (2, 3, -1):
                    assert hilbert_symbol(a, b * c, p) == \
                        ab * hilbert_symbol(a, c, p)


def test_descriptor_round_trip():
    chi = parse_descriptor("35:2,3")
    assert chi.descriptor() == "35:2,3"
    try:
        parse_descriptor("nope")
    except ValueError:
        pass
    else:
        raise AssertionError


def test_conductor():
    chi5 = next(c for c in char_group(5) if c.order == 4)
    assert chi5.conductor == 5
    ind = chi5.extend(35)
    assert ind.conductor == 5
    assert char_group(9).trivial().conductor == 1


def test_hilbert_symbol_is_int_at_negative_valuations():
    # (-1)^e with e < 0 is a float; the symbol stays the int +-1
    for a, b in ((Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), 3),
                 (Fraction(1, 5), Fraction(2, 5)), (Fraction(1, 3), 6)):
        for p in (3, 5, 7):
            v = hilbert_symbol(a, b, p)
            assert type(v) is int and v in (1, -1)
    assert hilbert_symbol(Fraction(1, 3), 3, 3) == hilbert_symbol(3, 3, 3)


# ---------------------------------------------------------------------------
# exponent-table sums against per-term CycloNum loops

REF_MODULI = (1, 4, 5, 7, 8, 9, 12, 15, 16, 35)


def _ref_gauss(chi):
    N = chi.modulus
    if N == 1:
        return CycloNum.one()
    L = lcm(chi.order, N)
    total = CycloNum.zero(L)
    for a in range(1, N):
        if gcd(a, N) == 1:
            total = total + chi(a).raise_level(L) * CycloNum.zeta(N, a).raise_level(L)
    return total


def _ref_pair_sum(chi, eta, arg):
    N = chi.modulus
    L = lcm(chi.order, eta.order)
    total = CycloNum.zero(L)
    for z in range(N):
        a, b = chi(z), eta(arg(z) % N)
        if not a.is_zero() and not b.is_zero():
            total = total + a.raise_level(L) * b.raise_level(L)
    return total


def _ref_weight_counts(counts, chi):
    total = CycloNum.zero(chi.order)
    for r, n in enumerate(counts):
        v = chi(r)
        if n and not v.is_zero():
            total = total + v * Fraction(int(n))
    return total


def _ref_weight_dt(counts, chi, eta, shift):
    N = chi.modulus
    L = lcm(chi.order, eta.order)
    total = CycloNum.zero(L)
    for d in range(N):
        for t in range(N):
            cv, ev = chi(d), eta((1 - t) % N if shift else t)
            if counts[d][t] and not cv.is_zero() and not ev.is_zero():
                total = total + cv.raise_level(L) * ev.raise_level(L) \
                    * Fraction(int(counts[d][t]))
    return total


def _ref_gen_bernoulli(chi, k):
    f = chi.modulus
    total = CycloNum.zero(chi.order)
    for a in range(1, f + 1):
        v = chi(a)
        if not v.is_zero():
            x = Fraction(a, f)
            total = total + v * sum(c * x ** j for j, c in
                                    enumerate(bernoulli_poly_coeffs(k)))
    return total * Fraction(f) ** (k - 1)


def _same(got, want):
    assert got == want
    assert got.level == want.level
    assert got.serialize() == want.serialize()


def test_gauss_and_jacobi_sums_match_per_term_loops():
    for N in REF_MODULI:
        G = list(char_group(N))
        for chi in G:
            _same(gauss_sum(chi), _ref_gauss(chi))
            for eta in G:
                _same(jacobi_sum(chi, eta),
                      _ref_pair_sum(chi, eta, lambda z: 1 - z))


def test_im_closed_m1_matches_per_term_loop():
    for p in (5, 7):
        for chi in char_group(p):
            for eta in char_group(p):
                _same(Im_closed(chi, eta, 1), _ref_pair_sum(chi, eta, lambda z: z))


def test_weighted_counts_match_per_term_loops():
    rng = random.Random(10)
    for N in REF_MODULI:
        G = list(char_group(N))
        counts = [rng.choice((0, 0, 1, 2, 7, 30)) for _ in range(N)]
        table = [[rng.choice((0, 0, 0, 1, 5)) for _ in range(N)] for _ in range(N)]
        for chi in G:
            _same(_weight_counts(counts, chi), _ref_weight_counts(counts, chi))
        for chi, eta in list(zip(G, reversed(G))) + [(G[-1], G[0])]:
            for shift in (False, True):
                _same(_weight_dt(np.array(table), chi, eta, shift),
                      _ref_weight_dt(table, chi, eta, shift))


def test_gen_bernoulli_matches_per_term_loop():
    for N in REF_MODULI:
        for chi in char_group(N):
            for k in range(1, 5):
                _same(gen_bernoulli(chi, k), _ref_gen_bernoulli(chi, k))


def test_conductor_parity_extend_and_local_component_by_definition():
    for N in REF_MODULI:
        units = [u for u in range(N) if gcd(u, N) == 1]
        for chi in char_group(N):
            want = min(f for f in range(1, N + 1) if N % f == 0 and all(
                chi(u) == 1 for u in units if u % f == 1 % f))
            assert chi.conductor == want
            minus = chi(-1)
            assert minus in (1, -1)
            for M in (N * 2, N * 3):
                ext = chi.extend(M)
                for u in range(M):
                    assert ext(u) == (chi(u) if gcd(u, M) == 1 else 0)
            for p, e in factorize(N):
                q = p ** e
                loc = local_component(chi, p)
                assert loc.modulus == q
                for a in range(q):
                    # the residue that is a mod q and 1 mod N/q
                    lift = next(x for x in range(N)
                                if x % q == a and x % (N // q) == 1 % (N // q))
                    assert loc(a) == chi(lift)


def test_legendre_char_is_the_order_two_character():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert [c for c in char_group(p) if c.order == 2] == [legendre_char(p)]
        for a in range(p):
            assert legendre_char(p)(a) == legendre(a, p)
    for p in (2, 9, 15):
        with pytest.raises(ValueError):
            legendre_char(p)


def test_lower_level_raises_outside_the_subfield():
    z = CycloNum.zeta
    assert z(12, 2).lower_level(6) == z(6, 1)
    assert z(12, 2).lower_level(6).level == 6
    assert (z(8, 1) + z(8, 7)).lower_level(8).level == 8
    quad5 = next(c for c in char_group(5) if c.order == 2)
    for v, L2 in ((z(8, 1), 4), (z(12, 1), 6), (gauss_sum(quad5), 1),
                  (z(8, 1) + z(8, 3), 4)):
        with pytest.raises(ValueError):
            v.lower_level(L2)
