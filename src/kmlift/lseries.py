"""Exact special values and Dirichlet-coefficient streams: Bernoulli numbers,
generalized Bernoulli numbers B_{k,chi} and L(1-k, chi), the Cohen function
H(l, m), Cohen-Eisenstein q-expansions, Hecke L-series of elliptic eigenforms,
Rankin-Selberg convolutions of half-integral weight forms, and the shifted
L-factor streams; everything at nonpositive integer arguments, so every value
is an exact rational (or cyclotomic, under a twist).

A QExp holds integer numerators over one common denominator, so q-expansion
products are integer convolutions.  A DirStream is a finite map index ->
coefficient; re-indexings like the L(2s - a, *) prefactors land on square
indices d^2 with weight d^a.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

from .characters import DirichletChar, _root_sum, divisors, factorize, kronecker
from .exactalg import CycloNum, poly_mul


# ---------------------------------------------------------------------------
# Bernoulli machinery

@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k (B_1 = -1/2), by the standard recurrence."""
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(k):
        total += Fraction(comb(k + 1, j)) * bernoulli_number(j)
    return -total / (k + 1)


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(k: int):
    """Coefficients of B_k(x), constant term first."""
    return tuple(Fraction(comb(k, j)) * bernoulli_number(k - j)
                 for j in range(k + 1))


def gen_bernoulli(chi: DirichletChar, k: int) -> CycloNum:
    """B_{k,chi} = f^{k-1} sum_{a=1}^{f} chi(a) B_k(a/f), f the modulus.

    f^{k-1} B_k(a/f) = sum_j C(k,j) B_{k-j} f^{k-1-j} a^j weighs the exponent
    of chi(a), as in gen_bernoulli_kronecker.
    """
    f = chi.modulus
    w = [c * Fraction(f) ** (k - 1 - j)
         for j, c in enumerate(bernoulli_poly_coeffs(k))]
    # the residue 0 stands for a = f (a unit only when f = 1)
    return _root_sum(chi.order, ((e, sum(c * (a or f) ** j for j, c in enumerate(w)))
                                 for a, e in chi.logs.items()))


def gen_bernoulli_kronecker(d: int, k: int) -> Fraction:
    """B_{k, chi_d} for the Kronecker character of the fundamental d (d=1: B_k).

    f^{k-1} sum_a chi_d(a) B_k(a/f) = sum_j C(k,j) B_{k-j} f^{k-1-j} S_j with
    the integer power sums S_j = sum_{a=1}^{f} chi_d(a) a^j.
    """
    f = abs(d) if d != 1 else 1
    chi = [(a, kronecker(d, a)) for a in range(1, f + 1)]
    return sum(c * sum(v * a ** j for a, v in chi if v)
               * Fraction(f) ** (k - 1 - j)
               for j, c in enumerate(bernoulli_poly_coeffs(k)))


def zeta_at_negative(m: int) -> Fraction:
    """zeta(-m) for m >= 1 odd (and 0 for even m >= 2)."""
    if m % 2 == 0:
        return Fraction(0)
    return -bernoulli_number(m + 1) / (m + 1)


def zeta_even_rational(i: int) -> Fraction:
    """zeta(2i) / pi^(2i) as an exact rational."""
    return Fraction((-1) ** (i + 1)) * bernoulli_number(2 * i) \
        * 2 ** (2 * i - 1) / factorial(2 * i)


# ---------------------------------------------------------------------------
# Cohen function and Cohen-Eisenstein series

def moebius(n):
    fac = factorize(n)
    return 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)


def sigma_power(n, s):
    return sum(Fraction(d) ** s for d in divisors(n))


def cohen_L(D: int, s: int) -> Fraction:
    """L_D(s) at a nonpositive integer s, per the three displayed branches."""
    if s > 0:
        raise ValueError("only nonpositive integer arguments are exact here")
    if D == 0:
        return zeta_at_negative(1 - 2 * s)
    if D % 4 in (2, 3):
        return Fraction(0)
    from .quadforms import fundamental_split
    dk, f = fundamental_split(D)
    k = 1 - s
    if dk == 1:
        Lval = -bernoulli_number(k) / k
    else:
        Lval = -gen_bernoulli_kronecker(dk, k) / k
    total = Fraction(0)
    for a in divisors(f):
        mu = moebius(a)
        if mu == 0:
            continue
        total += mu * kronecker(dk, a) * Fraction(a) ** (-s) * sigma_power(f // a, 1 - 2 * s)
    return Lval * total


def cohen_H(l: int, m: int) -> Fraction:
    """H(l, m) = L_D(1 - l) with D = (-1)^l m.

    The sign twist on D is fixed by requiring E_{l+1/2} to satisfy the plus
    space support condition (coefficients vanish off e = 0, 1 mod 4 for even
    l); the bare -m reading would support e = 0, 3 mod 4 instead.
    """
    return cohen_L((-1) ** l * m, 1 - l)


class QExp:
    """Truncated q-expansion sum_{k < prec} (num[k] / den) q^k; weight tag is
    twice the weight, so half-integral weights stay integral."""

    __slots__ = ("weight2", "prec", "num", "den")

    def __init__(self, weight2: int, prec: int, coeffs):
        vals = {int(k): Fraction(v) for k, v in coeffs.items()
                if 0 <= int(k) < prec and v}
        den = lcm(*(v.denominator for v in vals.values()))
        num = [0] * prec
        for k, v in vals.items():
            num[k] = v.numerator * (den // v.denominator)
        self._set(weight2, prec, num, den)

    @classmethod
    def _from_ints(cls, weight2, prec, num, den):
        q = cls.__new__(cls)
        q._set(weight2, prec, num, den)
        return q

    def _set(self, weight2, prec, num, den):
        g = gcd(den, *num)
        self.weight2 = weight2
        self.prec = prec
        self.num = [c // g for c in num] if g > 1 else num
        self.den = den // g

    def coeff(self, k) -> Fraction:
        if 0 <= k < self.prec:
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def __add__(self, other):
        assert self.weight2 == other.weight2
        prec = min(self.prec, other.prec)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return QExp._from_ints(self.weight2, prec,
                               [a * sa + b * sb for a, b in
                                zip(self.num[:prec], other.num[:prec])], den)

    def scale(self, v):
        v = Fraction(v)
        return QExp._from_ints(self.weight2, self.prec,
                               [c * v.numerator for c in self.num],
                               self.den * v.denominator)

    def __mul__(self, other):
        prec = min(self.prec, other.prec)
        return QExp._from_ints(self.weight2 + other.weight2, prec,
                               poly_mul(self.num, other.num, prec),
                               self.den * other.den)

    def power(self, e: int):
        """self^e for e >= 0, in one pass of J.C.P. Miller's recurrence
        (Knuth, TAOCP vol. 2, 4.7): with q^v stripped from the numerators,
        b = sum_j b_j q^j and f = b^e satisfy
        k b_0 f_k = sum_{j>=1} ((e+1) j - k) b_j f_{k-j}, exactly divisible
        because f has integer coefficients; then shift by q^(v e)."""
        if e < 0:
            raise ValueError("QExp.power needs a nonnegative exponent")
        prec = self.prec
        if e == 0:
            return QExp(0, prec, {0: 1})
        v = next((k for k, c in enumerate(self.num) if c), prec)
        K = max(prec - v * e, 0)            # coefficients of b^e needed
        b = self.num[v:v + K]
        terms = [(j, bj) for j, bj in enumerate(b) if j and bj]
        f = [b[0] ** e] + [0] * (K - 1) if K else []
        for k in range(1, K):
            s = 0
            for j, bj in terms:
                if j > k:
                    break
                s += ((e + 1) * j - k) * bj * f[k - j]
            f[k] = s // (k * b[0])
        out = [0] * (prec - K) + f
        return QExp._from_ints(self.weight2 * e, prec, out, self.den ** e)


def cohen_eisenstein(l: int, prec: int) -> QExp:
    """E_{l+1/2} = sum_e H(l, e) q^e (even l >= 2; l = 2 flagged in reports)."""
    if l % 2:
        raise ValueError("Cohen-Eisenstein series needs even l")
    if l < 2:
        raise ValueError("weight below 5/2 unsupported")
    coeffs = {}
    for e in range(prec):
        coeffs[e] = cohen_H(l, e)
    q = QExp(2 * l + 1, prec, coeffs)
    for e in range(prec):
        if ((-1) ** l * e) % 4 in (2, 3):
            assert q.coeff(e) == 0, f"plus-space support violated at {e}"
    return q


# ---------------------------------------------------------------------------
# classical level-4 generators and Delta

def theta_series(prec: int) -> QExp:
    c = {0: Fraction(1)}
    m = 1
    while m * m < prec:
        c[m * m] = Fraction(2)
        m += 1
    return QExp(1, prec, c)


def weight2_eisenstein_odd(prec: int) -> QExp:
    """F_2 = sum over odd m of sigma_1(m) q^m, weight 2 on Gamma_0(4)."""
    c = {}
    for m in range(1, prec, 2):
        c[m] = sigma_power(m, 1)
    return QExp(4, prec, c)


def eisenstein_qexp(k: int, prec: int) -> QExp:
    """E_k = 1 - (2k / B_k) sum_n sigma_{k-1}(n) q^n, level 1, even k >= 4."""
    c = -2 * k / bernoulli_number(k)
    return QExp(2 * k, prec, {0: 1, **{m: c * sigma_power(m, k - 1)
                                       for m in range(1, prec)}})


def delta_qexp(prec: int) -> QExp:
    """Delta = q prod (1 - q^n)^24 with exact integer coefficients."""
    # prod (1-q^n) truncated, then 24th power, then shift by q
    prod = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        for k in range(prec - 1 - n, -1, -1):
            if prod[k]:
                prod[k + n] -= prod[k]
    out = QExp._from_ints(0, prec, prod, 1).power(24)
    return QExp._from_ints(24, prec, [0] + out.num[:prec - 1], 1)


# ---------------------------------------------------------------------------
# Dirichlet streams

class DirStream:
    """Finite map {1..bound} -> CycloNum with Dirichlet convolution."""

    __slots__ = ("bound", "coeffs")

    def __init__(self, bound: int, coeffs=None):
        self.bound = int(bound)
        self.coeffs = {}
        for k, v in (coeffs or {}).items():
            if 1 <= int(k) <= self.bound:
                cv = v if isinstance(v, CycloNum) else CycloNum.from_rational(v)
                if not cv.is_zero():
                    self.coeffs[int(k)] = cv

    def coeff(self, k) -> CycloNum:
        return self.coeffs.get(k, CycloNum.zero())

    def convolve(self, other: "DirStream") -> "DirStream":
        bound = min(self.bound, other.bound)
        c = {}
        for a, va in self.coeffs.items():
            if a > bound:
                continue
            for b, vb in other.coeffs.items():
                k = a * b
                if k <= bound:
                    c[k] = c.get(k, CycloNum.zero()) + va * vb
        return DirStream(bound, c)

    def scale(self, v) -> "DirStream":
        return DirStream(self.bound, {k: c * v for k, c in self.coeffs.items()})

    def __add__(self, other):
        bound = min(self.bound, other.bound)
        c = {k: v for k, v in self.coeffs.items() if k <= bound}
        for k, v in other.coeffs.items():
            if k <= bound:
                c[k] = c.get(k, CycloNum.zero()) + v
        return DirStream(bound, c)

    def __eq__(self, other):
        bound = min(self.bound, other.bound)
        for k in range(1, bound + 1):
            if not self.coeff(k) == other.coeff(k):
                return False
        return True


def _twisted(coeff, chi, bound: int, square=False) -> DirStream:
    """The chi-twisted stream of coeff: weight chi(m) coeff(m) at index m, or
    at m^2 when square (an L(2s - a, *) factor)."""
    c = {}
    m = 1
    while (m * m if square else m) <= bound:
        a = coeff(m)
        if a:
            v = chi(m)
            if not v.is_zero():
                c[m * m if square else m] = v * a
        m += 1
    return DirStream(bound, c)


def hecke_stream(f: QExp, chi, bound: int) -> DirStream:
    """L(s, f, chi) coefficients c_f(m) chi(m) for a normalized eigenform f."""
    if f.coeff(1) != 1:
        raise ValueError("eigenform must be normalized: c_f(1) = 1")
    return _twisted(f.coeff, chi, bound)


def lfactor_stream(f: QExp, chi, a: int, bound: int) -> DirStream:
    """L(2s - a, f, chi) as a stream: index m^2, weight c_f(m) chi(m) m^a."""
    return _twisted(lambda m: f.coeff(m) * Fraction(m) ** a, chi, bound, True)


def rankin_stream(h1: QExp, h2: QExp, chi, k1: int, k2: int, bound: int,
                  variant="R") -> DirStream:
    """R(s, h1, h2, chi) (or R~) as one Dirichlet stream in integer index.

    The prefactor L(2s - k1 - k2 + 1, omega) contributes index d^2 with weight
    omega(d) d^(k1+k2-1); the core contributes c_{h1}(m) c_{h2}(m) chi(m) at m.
    variant 'R' takes omega = chi^2; 'Rtilde' takes omega = chi_{-4}^{k1-k2} chi^2.
    """
    if min(h1.prec, h2.prec) < bound + 1:
        raise ValueError("q-expansion precision below the requested bound")
    if variant not in ("R", "Rtilde"):
        raise ValueError("variant must be 'R' or 'Rtilde'")

    def pref(d):
        w = Fraction(d) ** (k1 + k2 - 1)
        if variant == "Rtilde":     # chi_{-4}^(k1-k2); principal mod 4 if even
            w *= kronecker(-4, d) if (k1 - k2) % 2 else d % 2
        return w

    core = _twisted(lambda m: h1.coeff(m) * h2.coeff(m), chi, bound)
    return _twisted(pref, chi * chi, bound, True).convolve(core)


def shifted_L_stream(f: QExp, chi2, shifts, bound: int) -> DirStream:
    """prod_j L(2s - a_j, f, chi2) assembled by stream convolution."""
    out = DirStream(bound, {1: 1})
    for a in shifts:
        out = out.convolve(lfactor_stream(f, chi2, a, bound))
    return out
