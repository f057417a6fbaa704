import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmlift.characters import euler_phi_int
from kmlift.exactalg import (CycloNum, Laurent, QSqrt, TruncSeries, _bareiss_pass,
                             _wedge, cyclotomic_poly, leading_minors, mat_det,
                             p_half_power, poly_mul)
from kmlift.quadforms import is_positive_definite

from gramtools import leibniz_det, leibniz_minors


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


def _random_cyclo(rng, L):
    phi = len(cyclotomic_poly(L)) - 1
    return CycloNum(L, {rng.randrange(L): Fraction(rng.randrange(-5, 6),
                                                   rng.randrange(1, 7))
                        for _ in range(3)})


def test_cyclo_field_axioms_randomized():
    rng = random.Random(20240811)
    for L in (1, 2, 3, 4, 5, 7, 12, 84):
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


def test_series_equality_across_prec():
    # only the coefficients below the smaller precision are compared
    one = Fraction(1)
    a = TruncSeries(3, {0: one, 1: one})
    assert a == TruncSeries(5, {0: one, 1: one, 4: Fraction(7)})
    assert TruncSeries(6, {0: one, 1: one, 3: one}) == a
    assert not a == TruncSeries(5, {0: one})
    assert TruncSeries(2, {0: one}) == TruncSeries(4, {0: one, 2: one})


def test_cyclotomic_poly_phi_and_product():
    # deg Phi_L = phi(L), and the Phi_d over d | L multiply to x^L - 1
    for L in range(1, 61):
        assert len(cyclotomic_poly(L)) - 1 == euler_phi_int(L), L
        prod = [1]
        for d in range(1, L + 1):
            if L % d == 0:
                prod = poly_mul(prod, cyclotomic_poly(d), len(prod) + euler_phi_int(d))
        assert prod == [-1] + [0] * (L - 1) + [1], L


def test_zero_is_falsy():
    for zero in (CycloNum.zero(5), CycloNum.zeta(3) + CycloNum.zeta(3, 2) + 1,
                 QSqrt(0, 0, 5), Laurent({0: Fraction(0)}),
                 Laurent({1: QSqrt(0, 0, 3)})):
        assert not zero
    for nonzero in (CycloNum.one(5), CycloNum.zeta(7, 3), QSqrt(0, 1, 5),
                    QSqrt(Fraction(-1, 2)), Laurent({-1: QSqrt(0, 1, 3)}),
                    Laurent.const(CycloNum.zeta(4))):
        assert nonzero


def test_qsqrt_arithmetic():
    x = p_half_power(5, 3)
    assert x * x == QSqrt(125)
    assert p_half_power(3, -1) * p_half_power(3, 1) == QSqrt(1)


# ---------------------------------------------------------------------------
# determinants against the Leibniz permutation expansion


def _leibniz_minors(M):
    return [leibniz_det([row[:k] for row in M[:k]])
            for k in range(1, len(M) + 1)]


@st.composite
def _int_matrices(draw, lo=-6, hi=6):
    """Square integer matrices, n <= 4; zeros are common (row swaps), and a
    repeated or scaled row makes some of them singular."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(lo, hi))
    M = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        M[-1] = [c * x for x in M[draw(st.integers(0, n - 2))]]
    return M


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(1, 4))
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = draw(st.integers(-4, 8) if i == j
                                     else st.integers(-4, 4))
    return M


@given(_int_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 0], [0, 0]])
def test_mat_det_matches_leibniz(M):
    assert mat_det(M) == leibniz_det(M)


@given(_int_matrices())
@example([[0, 1], [1, 0]])
@example([[1, 1, 0], [1, 1, 0], [0, 0, 5]])
@example([[2, 1, 0], [1, 0, 3], [0, 3, 1]])
@example([[1, 2, 0, 1], [2, 4, 1, 0], [0, 1, 3, 2], [1, 0, 2, 5]])
@example([[3, 1, 2], [1, 2, 0], [2, 0, 1]])
def test_leading_minors_match_leibniz(M):
    minors = _leibniz_minors(M)
    assert leading_minors(M) == minors
    assert leading_minors(np.asarray(M, dtype=np.int64)) == minors
    # the Bareiss pivots are the leading minors up to and including the
    # first zero, and row k holds det(rows 0..k, columns 0..k-1 and j)
    R, pivots = _bareiss_pass(M)
    n = len(M)
    assert pivots == minors[:len(pivots)]
    assert len(pivots) == n or (pivots[-1] == 0 and all(pivots[:-1]))
    for k in range(len(pivots)):
        for j in range(k, n):
            cols = list(range(k)) + [j]
            assert R[k][j] == leibniz_det([[M[i][c] for c in cols]
                                           for i in range(k + 1)])


@given(_symmetric_matrices())
@example([[2, 1], [1, 0]])
@example([[0, 1], [1, 2]])
def test_positive_definite_is_sylvester(M):
    assert is_positive_definite(M) == all(d > 0 for d in _leibniz_minors(M))


# Entries up to 2^61: the generator's scaled row doubles them to at most
# 2^62, which still fits int64.
@given(_int_matrices(lo=-(2 ** 61), hi=2 ** 61))
@example([[0, -2 ** 62], [0, 2 ** 62]])
def test_mat_det_exact_on_int64_input(M):
    A = np.asarray(M, dtype=np.int64)
    d = mat_det(A)
    assert type(d) is int
    assert d == leibniz_det(M)


@pytest.mark.parametrize("N", [5, 35])
def test_wedge_matches_leibniz(N):
    # every j x j minor mod N of j vectors of length n <= 5, as ints and as
    # one int64 batch; n - 1 vectors give the cofactors of the last row
    rng = random.Random(N)
    for n in range(1, 6):
        for j in range(n + 1):
            for _ in range(3):
                V = [[rng.randint(-3 * N, 3 * N) for _ in range(n)]
                     for _ in range(j)]
                assert _wedge(V, N) == [x % N for x in leibniz_minors(V)], V
                B = [[np.array([rng.randint(0, N - 1) for _ in range(6)])
                      for _ in range(n)] for _ in range(j)]
                assert all(np.array_equal(*np.broadcast_arrays(g, w % N))
                           for g, w in zip(_wedge(B, N), leibniz_minors(B)))
                if j == n - 1:
                    x = [rng.randint(0, N - 1) for _ in range(n)]
                    w = _wedge(V, N)
                    cof = [(-1) ** (n - 1 - b) * w[n - 1 - b] for b in range(n)]
                    assert sum(c * y for c, y in zip(cof, x)) % N == \
                        leibniz_det(V + [x]) % N


def test_mat_det_refuses_fraction_entries():
    with pytest.raises(TypeError):
        mat_det([[Fraction(1, 2), 0], [0, 2]])
    with pytest.raises(TypeError):
        leading_minors([[2, Fraction(1, 2)], [Fraction(1, 2), 2]])
