from fractions import Fraction
from math import gcd

from kmlift.characters import (char_group, find_primitive_root_of_unity_mod,
                               gauss_sum, hilbert_symbol, jacobi, jacobi_sum,
                               kronecker, legendre, local_component,
                               parse_descriptor, subgroup_Dm)
from kmlift.exactalg import CycloNum
from kmlift.plocal import xi_tilde


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
