from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmlift.characters import char_group, kronecker
from kmlift.exactalg import CycloNum
from kmlift.lseries import (DirStream, QExp,
                            bernoulli_number, cohen_H, cohen_eisenstein,
                            delta_qexp, gen_bernoulli, gen_bernoulli_kronecker,
                            hecke_stream, lfactor_stream, rankin_stream,
                            theta_series, zeta_at_negative)


def test_bernoulli_numbers():
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert zeta_at_negative(3) == Fraction(1, 120)
    assert zeta_at_negative(1) == Fraction(-1, 12)


def test_gen_bernoulli():
    chi4 = next(c for c in char_group(4) if c.order == 2)
    assert gen_bernoulli(chi4, 1).rational_value() == Fraction(-1, 2)
    # parity vanishing: chi(-1) (-1)^k = -1 forces B_{k,chi} = 0
    for N in (3, 4, 5, 7):
        for chi in char_group(N):
            for k in (1, 2, 3, 4):
                if chi(-1) * (-1) ** k == -1:
                    assert gen_bernoulli(chi, k).is_zero(), (N, k)


def test_gen_bernoulli_distribution_relation():
    # induced character mod 35 from primitive mod 5:
    # B_{k, chi_N} = B_{k, chi_0} * prod_{p | N, p coprime f} (1 - chi_0(p) p^{k-1})
    chi0 = next(c for c in char_group(5) if c.order == 4)
    ind = chi0.extend(35)
    for k in (1, 2, 3):
        lhs = gen_bernoulli(ind, k)
        rhs = gen_bernoulli(chi0, k) * (CycloNum.one() - chi0(7) * Fraction(7 ** (k - 1)))
        assert lhs == rhs, k


def test_gen_bernoulli_kronecker():
    assert gen_bernoulli_kronecker(1, 2) == Fraction(1, 6)
    assert gen_bernoulli_kronecker(-4, 1) == Fraction(-1, 2)
    assert gen_bernoulli_kronecker(-3, 1) == Fraction(-1, 3)


def _bernoulli_at(k):
    """B_k (B_1 = -1/2) by the Akiyama-Tanigawa algorithm."""
    A = []
    for m in range(k + 1):
        A.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
    return -A[0] if k == 1 else A[0]


def _is_fundamental(d):
    def squarefree(m):
        return all(m % (p * p) for p in range(2, abs(m) + 1))
    if d == 1 or d % 4 == 1:
        return squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)


def test_gen_bernoulli_kronecker_defining_sum():
    # f^{k-1} sum_{a=1}^{f} chi_d(a) B_k(a/f), B_k(x) = sum_j C(k,j) B_{k-j} x^j
    from math import comb
    bern = [_bernoulli_at(j) for j in range(9)]
    discs = [d for d in range(-100, 101) if d and _is_fundamental(d)]
    assert 1 in discs and -4 in discs and 5 in discs and -100 not in discs
    for k in range(1, 9):
        poly = [comb(k, j) * bern[k - j] for j in range(k + 1)]
        for d in discs:
            f = abs(d)
            total = Fraction(0)
            for a in range(1, f + 1):
                x = Fraction(a, f)
                total += kronecker(d, a) * sum(c * x ** j
                                               for j, c in enumerate(poly))
            assert gen_bernoulli_kronecker(d, k) == total * f ** (k - 1), (d, k)
    assert gen_bernoulli_kronecker(1, 1) == Fraction(1, 2)


_coeff_dicts = st.dictionaries(
    st.integers(0, 24),
    st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=12)


def _naive_product(a, b, prec):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j < prec:
                out[i + j] = out.get(i + j, Fraction(0)) + x * y
    return out


def _assert_series(f, want, prec):
    assert f.prec == prec
    for e in range(prec + 3):
        got = f.coeff(e)
        assert isinstance(got, Fraction)
        assert got == (want.get(e, 0) if e < prec else 0), e


@given(_coeff_dicts, st.integers(0, 26), _coeff_dicts, st.integers(0, 26))
@example({}, 10, {0: Fraction(1, 3)}, 10)
@example({1: Fraction(1, 2)}, 5, {}, 20)
@example({0: Fraction(2, 3), 3: Fraction(-5, 4)}, 7, {0: Fraction(3, 2)}, 4)
def test_qexp_mul_matches_fraction_double_loop(a, pa, b, pb):
    A, B = QExp(1, pa, a), QExp(4, pb, b)
    trunc_a = {k: v for k, v in a.items() if k < pa}
    trunc_b = {k: v for k, v in b.items() if k < pb}
    prod = A * B
    assert prod.weight2 == 5
    _assert_series(prod, _naive_product(trunc_a, trunc_b, min(pa, pb)),
                   min(pa, pb))
    _assert_series(A + QExp(1, pb, b), {
        k: trunc_a.get(k, 0) + trunc_b.get(k, 0)
        for k in range(min(pa, pb))}, min(pa, pb))
    _assert_series(A.scale(Fraction(-3, 7)),
                   {k: v * Fraction(-3, 7) for k, v in trunc_a.items()}, pa)


@given(_coeff_dicts, st.integers(1, 26), st.integers(0, 24))
@example({}, 8, 3)
@example({0: Fraction(1, 2), 2: Fraction(-2, 3)}, 9, 5)
@example({1: Fraction(3), 4: Fraction(-1, 2)}, 20, 7)      # valuation 1
@example({5: Fraction(2, 3), 7: Fraction(1)}, 12, 3)       # q^15 past prec
@example({0: Fraction(-5, 7), 1: Fraction(1, 3)}, 15, 9)   # -5/7 leads
@example({2: Fraction(-3, 4)}, 26, 12)                     # one q^24 term
def test_qexp_power_matches_repeated_product(a, prec, e):
    want = {0: Fraction(1)}
    trunc = {k: v for k, v in a.items() if k < prec}
    for _ in range(e):
        want = _naive_product(want, trunc, prec)
    got = QExp(3, prec, a).power(e)
    assert got.weight2 == 3 * e
    _assert_series(got, want, prec)


def test_qexp_power_rejects_negative_exponents():
    with pytest.raises(ValueError):
        theta_series(10).power(-1)


def test_delta_matches_repeated_product():
    prec = 40
    euler = {0: Fraction(1)}
    for n in range(1, prec):
        euler = _naive_product(euler, {0: Fraction(1), n: Fraction(-1)}, prec)
    want = {0: Fraction(1)}
    for _ in range(24):
        want = _naive_product(want, euler, prec - 1)
    _assert_series(delta_qexp(prec), {k + 1: v for k, v in want.items()},
                   prec)


def test_delta_ramanujan_congruence_and_multiplicativity():
    prec = 260
    d = delta_qexp(prec)
    tau = [d.coeff(n) for n in range(prec)]
    assert tau[0] == 0 and tau[1] == 1
    for n in range(1, prec):
        assert tau[n].denominator == 1
        sigma11 = sum(m ** 11 for m in range(1, n + 1) if n % m == 0)
        assert (tau[n].numerator - sigma11) % 691 == 0, n
    for m in range(2, prec):
        for n in range(m + 1, (prec - 1) // m + 1):
            if gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)


def test_cohen_function():
    assert cohen_H(2, 0) == Fraction(1, 120)
    assert cohen_H(2, 1) == Fraction(-1, 12)
    assert cohen_H(2, 4) == Fraction(-7, 12)
    assert cohen_H(2, 2) == 0 and cohen_H(2, 3) == 0
    # D = 2, 3 mod 4 branch is identically zero
    for e in range(30):
        if e % 4 in (2, 3):
            assert cohen_H(2, e) == 0


def test_cohen_eisenstein_support():
    E = cohen_eisenstein(2, 101)
    for e in range(101):
        if e % 4 in (2, 3):
            assert E.coeff(e) == 0
    assert E.coeff(0) == Fraction(1, 120)


def test_delta_and_hecke_stream():
    d = delta_qexp(50)
    assert d.coeff(1) == 1 and d.coeff(2) == -24 and d.coeff(3) == 252
    assert d.coeff(5) == 4830 and d.coeff(6) == d.coeff(2) * d.coeff(3)
    chi = next(c for c in char_group(5) if c.order == 4)
    st = hecke_stream(d, chi, 20)
    assert st.coeff(2) == chi(2) * Fraction(-24)
    assert st.coeff(5).is_zero()
    assert st.coeff(10).is_zero()


def test_lfactor_stream_shape():
    d = delta_qexp(40)
    tr = char_group(1)[0]
    st = lfactor_stream(d, tr, 2, 36)
    assert st.coeff(3).is_zero()           # non-square index
    assert st.coeff(4) == Fraction(-24 * 4)
    two = st.convolve(st)
    # coefficient at 36 = sum over m1^2 m2^2 = 36
    expect = sum(Fraction(-24 * 4) * Fraction(252 * 9) for _ in range(1)) * 2 \
        + Fraction((-6048) * 36) * 2
    assert two.coeff(36) == 2 * (Fraction(-24 * 4) * Fraction(252 * 9)) \
        + 2 * Fraction(-6048 * 36)


def test_rankin_stream_basics():
    h = delta_qexp(45)        # any eigenform-shaped series works structurally
    E = cohen_eisenstein(2, 45)
    tr = char_group(1)[0]
    st = rankin_stream(h, E, tr, 6, 2, 40, variant="R")
    assert st.coeff(1) == Fraction(h.coeff(1)) * E.coeff(1)
    # squarefree index: only d = 1 contributes
    for l in (5, 13, 21):
        assert st.coeff(l) == Fraction(h.coeff(l)) * E.coeff(l)


def test_R_vs_Rtilde_euler_factor():
    # R = (1 - 2^{-2s+k1+k2-1} chi^2(2))^{-1} R~ at odd conductor:
    # as streams, R = R~ convolved with sum_j (2^{k1+k2-1} chi2(2))^j at 4^j
    h = delta_qexp(70)
    E = cohen_eisenstein(2, 70)
    chi = next(c for c in char_group(5) if c.order == 4)
    k1, k2 = 6, 2
    R = rankin_stream(h, E, chi, k1, k2, 64, variant="R")
    Rt = rankin_stream(h, E, chi, k1, k2, 64, variant="Rtilde")
    chi2 = chi * chi
    factor = DirStream(64, {})
    j = 0
    term = CycloNum.one()
    while 4 ** j <= 64:
        factor.coeffs[4 ** j] = term
        term = term * chi2(2) * Fraction(2 ** (k1 + k2 - 1))
        j += 1
    assert R == Rt.convolve(factor)


def test_theta():
    th = theta_series(30)
    assert th.coeff(0) == 1 and th.coeff(1) == 2 and th.coeff(4) == 2
    assert th.coeff(3) == 0
