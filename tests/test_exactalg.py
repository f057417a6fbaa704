import random
from fractions import Fraction

import pytest

from kmlift.exactalg import (CycloNum, Laurent, PPow, QSqrt, SymLaurent,
                             TruncSeries, cyclo_normalize, cyclotomic_poly,
                             p_half_power, poly_deg, rational_fn_expand)


def test_cyclo_basic_relations():
    z4 = CycloNum.zeta(4)
    assert (z4 * z4).rational_value() == -1
    z3 = CycloNum.zeta(3)
    assert (z3 + z3 * z3).rational_value() == -1
    s = CycloNum.one(5)
    for e in range(1, 5):
        s = s + CycloNum.zeta(5, e)
    assert s.is_zero()


@pytest.mark.parametrize("a,b", [
    (CycloNum.zeta(4), CycloNum.zeta(8, 2)),
    (CycloNum.zeta(3), CycloNum.zeta(6, 2)),
    (CycloNum.from_rational(5), CycloNum.from_rational(5, 12)),
    (CycloNum.zeta(12, 3), CycloNum.zeta(4)),
], ids=["z4/z8^2", "z3/z6^2", "5@1/5@12", "z12^3/z4"])
def test_cyclo_hash_agrees_with_eq_across_levels(a, b):
    assert a.level != b.level and a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_cyclo_normalize_idempotent():
    x = CycloNum(12, {0: Fraction(1), 7: Fraction(2, 3), 13: Fraction(1)})
    assert cyclo_normalize(x) == x
    assert cyclo_normalize(cyclo_normalize(x)) == cyclo_normalize(x)


def _random_cyclo(rng, L):
    phi = len(cyclotomic_poly(L)) - 1
    return CycloNum(L, {rng.randrange(L): Fraction(rng.randrange(-5, 6),
                                                   rng.randrange(1, 7))
                        for _ in range(3)})


def test_cyclo_field_axioms_randomized():
    rng = random.Random(20240811)
    for L in (3, 4, 5, 7, 12, 84):
        for _ in range(6):
            a = _random_cyclo(rng, L)
            b = _random_cyclo(rng, L)
            assert (a + b) - b == a
            if not b.is_zero():
                assert (a * b) / b == a
            assert a.conjugate().conjugate() == a


def test_level_change_round_trip():
    for L, L2 in ((3, 12), (4, 84), (7, 84)):
        rng = random.Random(L * 1000 + L2)
        for _ in range(4):
            a = _random_cyclo(rng, L)
            assert a.raise_level(L2).lower_level(L) == a


def test_galois_multiplicativity():
    a = CycloNum.zeta(7, 3) + CycloNum.from_rational(Fraction(1, 2), 7)
    b = CycloNum.zeta(7, 5)
    assert (a * b).galois(2) == a.galois(2) * b.galois(2)


def test_series_algebra():
    one = Fraction(1)
    a = TruncSeries(5, {0: one, 1: one})
    b = TruncSeries(5, {0: one, 1: -one})
    c = TruncSeries(5, {2: Fraction(3)})
    assert (a * b).coeffs == {0: one, 2: -one}
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    geo = TruncSeries(5, {k: one for k in range(5)})
    assert (geo * b).coeffs == {0: one}


def test_rational_fn_expand():
    num = TruncSeries(4, {0: Fraction(1)})
    out = rational_fn_expand(num, [(Fraction(1), 1)])
    assert out.coeffs == {k: Fraction(1) for k in range(4)}
    out = rational_fn_expand(TruncSeries(5, {0: Fraction(1)}),
                             [(Fraction(1), 1), (Fraction(-1), 1)])
    assert out.coeffs == {0: Fraction(1), 2: Fraction(1), 4: Fraction(1)}


def test_poly_deg_sentinel():
    assert poly_deg([]) is None
    assert poly_deg([0, 0]) is None
    assert poly_deg([5]) == 0


def test_qsqrt_arithmetic():
    x = p_half_power(5, 3)
    assert x * x == QSqrt(125)
    y = QSqrt(Fraction(1, 2), Fraction(2), 5)
    assert (y * y.inverse()).rational_value() == 1
    assert p_half_power(3, -1) * p_half_power(3, 1) == QSqrt(1)


def test_laurent_symmetry():
    sym = Laurent({1: Fraction(2), -1: Fraction(2), 0: Fraction(3)})
    assert sym.is_symmetric()
    s = SymLaurent.from_laurent(sym)
    assert s.as_laurent() == sym
    assert not Laurent({1: Fraction(1)}).is_symmetric()


def test_ppow_integrality():
    x = PPow(Fraction(3, 2), {5: Fraction(21, 4)}) * \
        PPow(1, {5: Fraction(-17, 4)})
    assert x.value() == Fraction(3 * 5, 2)
    try:
        PPow(1, {3: Fraction(1, 2)}).value()
    except ValueError:
        pass
    else:
        raise AssertionError("fractional exponent must refuse to collapse")
