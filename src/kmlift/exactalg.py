"""Exact arithmetic kernel: p-adic valuations and determinants, cyclotomic
numbers, quadratic extensions Q(sqrt p), integer polynomials, Laurent
polynomials, and truncated power series.

Rationals are stdlib ``fractions.Fraction`` throughout (already canonical:
reduced, positive denominator).  A cyclotomic number is stored at an explicit
level L as a Q-linear combination of zeta_L^e with 0 <= e < phi(L), i.e. the
canonical representative obtained by reducing modulo the L-th cyclotomic
polynomial.  Two values at the same level are equal iff their coefficient maps
are equal.  All values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import index


# ---------------------------------------------------------------------------
# valuations and determinants

def _pval(x, p: int):
    """nu_p of a nonzero int or Fraction; None at 0."""
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _congruence_blocks(A, p=None):
    """Symmetric congruence reduction of A over Q (p None) or Z_p; yields the
    pivot blocks (lists of rows of Fractions) until the rest is zero.

    Each step takes the first diagonal entry of least key (nu_p, or nonzero
    over Q).  If only an off-diagonal (i, j), i < j, attains it, row and
    column j are added into i (p odd or Q), or for p = 2 the 2x2 block on
    i, j is the pivot.  The pivot is moved to the front and its Schur
    complement is reduced next."""
    M = [[Fraction(x) for x in row] for row in A]
    key = (lambda x: _pval(x, p)) if p else (lambda x: 0 if x else None)
    while M:
        n = len(M)
        keys = [[key(x) for x in row] for row in M]
        kmin = min((v for row in keys for v in row if v is not None), default=None)
        if kmin is None:
            return
        piv = next((i for i in range(n) if keys[i][i] == kmin), None)
        if piv is None:
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if keys[i][j] == kmin)
            if p != 2:
                for k in range(n):
                    M[i][k] += M[j][k]
                for k in range(n):
                    M[k][i] += M[k][j]
                piv = i
        if piv is None:
            perm = [i, j] + [k for k in range(n) if k not in (i, j)]
        else:
            perm = list(range(n))
            perm[0], perm[piv] = piv, 0
        M = [[M[a][b] for b in perm] for a in perm]
        k = 1 if piv is not None else 2
        B = [row[:k] for row in M[:k]]
        yield B
        if k == 1:
            inv = [[1 / B[0][0]]]
        else:
            det = B[0][0] * B[1][1] - B[0][1] * B[1][0]
            inv = [[B[1][1] / det, -B[0][1] / det], [-B[1][0] / det, B[0][0] / det]]
        M = [[M[a][b] - sum(M[a][x] * inv[x][y] * M[y][b]
                            for x in range(k) for y in range(k))
              for b in range(k, n)] for a in range(k, n)]


def _int_matrix(G):
    # operator.index: numpy ints become Python ints (no int64 overflow) and a
    # Fraction or float entry raises TypeError instead of being truncated
    return [[index(x) for x in row] for row in G]


def _bareiss_step(M, k, prev):
    """One fraction-free elimination step below the pivot M[k][k]; the
    division by the previous pivot is exact (Sylvester's identity)."""
    n = len(M)
    pk, rowk = M[k][k], M[k]
    for i in range(k + 1, n):
        row, a = M[i], M[i][k]
        for j in range(k + 1, n):
            row[j] = (pk * row[j] - a * rowk[j]) // prev


def _bareiss_pass(G):
    """Bareiss elimination of an integer matrix without row swaps: the
    eliminated rows and the pivots up to and including the first zero; the
    k-th pivot is the k-th leading minor."""
    M = _int_matrix(G)
    pivots = []
    for k in range(len(M)):
        pivots.append(M[k][k])
        if not M[k][k]:
            break
        _bareiss_step(M, k, pivots[k - 1] if k else 1)
    return M, pivots


def mat_det(G):
    """Exact determinant of an integer matrix (list of rows), by Bareiss
    fraction-free elimination with row swaps."""
    M = _int_matrix(G)
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if M[r][k]), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        _bareiss_step(M, k, prev)
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def leading_minors(G):
    """[det G[:k, :k] for k = 1..n] of an integer matrix: the pivots of
    ``_bareiss_pass``; after a zero minor the remaining ones come from
    ``mat_det``."""
    pivots = _bareiss_pass(G)[1]
    return pivots + [mat_det([row[:j] for row in G[:j]])
                     for j in range(len(pivots) + 1, len(G) + 1)]


@lru_cache(maxsize=None)
def _wedge_plan(n):
    """How the (j+1)-wedge of vectors u_0..u_j in Z^n follows from the
    j-wedge and v = u_j, for j < n.  A j-wedge holds the j x j minors
    det(u_0..u_{j-1} at coordinates S) for the j-subsets S, in
    ``combinations`` order; Laplace along v gives
    w'[S] = sum_t (-1)^(j-t) v[s_t] w[S - s_t].  Entry j lists, per
    (j+1)-subset, the terms (s_t, index of S - s_t, sign)."""
    plan = []
    for j in range(n):
        index = {S: q for q, S in enumerate(combinations(range(n), j))}
        plan.append(tuple(
            tuple((r, index[S[:t] + S[t + 1:]], (-1) ** (j - t))
                  for t, r in enumerate(S))
            for S in combinations(range(n), j + 1)))
    return plan


def _wedge(vectors, N):
    """The j-wedge mod N of j vectors of length n (entries ints or arrays of
    one shape, for a batch), built one vector at a time along ``_wedge_plan``
    and reduced after each, so every prefix shares its minors.  The rows of
    a square matrix give [det]; n - 1 vectors give w with the cofactor of
    coordinate b equal to (-1)^(n-1-b) w[n-1-b]."""
    w = [1]                 # the 0-wedge
    if vectors:
        for terms, v in zip(_wedge_plan(len(vectors[0])), vectors):
            w = [sum(sg * v[r] * w[q] for r, q, sg in ts) % N for ts in terms]
    return w


# ---------------------------------------------------------------------------
# integer polynomials (dense list of coefficients, constant term first)

def poly_mul(a, b, prec):
    """Coefficients of a * b below x^prec."""
    out = [0] * prec
    for i, x in enumerate(a[:prec]):
        if x:
            for j, y in enumerate(b[:prec - i], i):
                out[j] += x * y
    return out


def poly_div_monic(a, b):
    """Exact quotient of a by the monic integer polynomial b."""
    a, k = list(a), len(b) - 1
    q = [0] * (len(a) - k)
    for i in reversed(range(len(q))):
        q[i] = c = a[i + k]
        for j, y in enumerate(b):
            a[i + j] -= c * y
    assert not any(a), "polynomial division left a remainder"
    return q


def nullspace(rows):
    """Basis of the right nullspace of a rational matrix (list of rows), by
    exact Gauss-Jordan elimination."""
    if not rows:
        return []
    m = len(rows[0])
    M = [list(map(Fraction, r)) for r in rows]
    piv_cols = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
    free = [c for c in range(m) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -M[i][fc]
        basis.append(v)
    return basis


@lru_cache(maxsize=None)
def cyclotomic_poly(L: int):
    """Coefficients of the L-th cyclotomic polynomial (integers, monic): x^L - 1
    divided by Phi_d for each proper divisor d of L."""
    q = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d == 0:
            q = poly_div_monic(q, cyclotomic_poly(d))
    return tuple(q)


@lru_cache(maxsize=None)
def _phi(L: int) -> int:
    return len(cyclotomic_poly(L)) - 1


def _reduce_mod_cyclo(coeffs, L):
    """Reduce a Q-polynomial in zeta_L (dict e -> Fraction, e arbitrary) to the
    canonical basis of exponents < phi(L)."""
    phi = _phi(L)
    c = [Fraction(0)] * L
    for e, v in coeffs.items():
        c[e % L] += v
    phiL = cyclotomic_poly(L)
    # synthetic division by the monic Phi_L
    for k in range(L - 1, phi - 1, -1):
        v = c[k]
        if v:
            c[k] = Fraction(0)
            for i in range(phi):
                c[k - phi + i] -= v * phiL[i]
    return {e: c[e] for e in range(phi) if c[e]}


class CycloNum:
    """Exact element of Q(zeta_L), canonical coefficients on zeta_L^e, e < phi(L)."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level, coeffs, reduced=False):
        self.level = int(level)
        if reduced:
            self.coeffs = dict(coeffs)
        else:
            self.coeffs = _reduce_mod_cyclo(
                {e: Fraction(v) for e, v in coeffs.items()}, self.level)

    # -- constructors
    @staticmethod
    def from_rational(q, level=1):
        q = Fraction(q)
        return CycloNum(level, {0: q} if q else {}, reduced=True)

    @staticmethod
    @lru_cache(maxsize=None)
    def zeta(L, e=1):
        return CycloNum(L, {e % L: Fraction(1)})

    @staticmethod
    def zero(level=1):
        return CycloNum(level, {}, reduced=True)

    @staticmethod
    def one(level=1):
        return CycloNum.from_rational(1, level)

    # -- level changes
    def raise_level(self, L2):
        if L2 == self.level:
            return self
        if L2 % self.level:
            raise ValueError(f"cannot embed level {self.level} into {L2}")
        k = L2 // self.level
        return CycloNum(L2, {e * k: v for e, v in self.coeffs.items()})

    def _common(self, other):
        if not isinstance(other, CycloNum):
            other = CycloNum.from_rational(other)
        L = self.level * other.level // gcd(self.level, other.level)
        return self.raise_level(L), other.raise_level(L)

    def lower_level(self, L2):
        """Exact inverse of raise_level on its image; ValueError if the value
        does not lie in Q(zeta_L2)."""
        if self.level % L2:
            raise ValueError("target level must divide current level")
        if L2 == self.level:
            return self
        # [basis | -self] has one null vector (x, 1) when self = sum x_e
        # zeta_L2^e, and none otherwise: the basis columns are independent
        basis = [CycloNum.zeta(L2, e).raise_level(self.level).coeffs
                 for e in range(_phi(L2))]
        null = nullspace([[b.get(i, 0) for b in basis] + [-self.coeffs.get(i, 0)]
                          for i in range(_phi(self.level))])
        if not null:
            raise ValueError("value not in the requested subfield")
        sol = null[0]
        cand = CycloNum(L2, {e: x for e, x in enumerate(sol[:-1]) if x})
        if cand.raise_level(self.level) != self:
            raise ValueError("value not in the requested subfield")
        return cand

    # -- ring ops
    def __add__(self, other):
        a, b = self._common(other)
        c = dict(a.coeffs)
        for e, v in b.coeffs.items():
            c[e] = c.get(e, Fraction(0)) + v
        return CycloNum(a.level, {e: v for e, v in c.items() if v}, reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.level, {e: -v for e, v in self.coeffs.items()},
                        reduced=True)

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloNum)
                       else CycloNum.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return CycloNum.zero(self.level)
            return CycloNum(self.level,
                            {e: v * q for e, v in self.coeffs.items()},
                            reduced=True)
        a, b = self._common(other)
        c = {}
        for e1, v1 in a.coeffs.items():
            for e2, v2 in b.coeffs.items():
                e = e1 + e2
                c[e] = c.get(e, Fraction(0)) + v1 * v2
        return CycloNum(a.level, c)

    __rmul__ = __mul__

    def inverse(self):
        """y / N(x) for y the product of the conjugates sigma_a(x), a != 1
        a unit mod L: x y is the norm N(x), a nonzero rational."""
        if not self.coeffs:
            raise ZeroDivisionError("cyclotomic zero has no inverse")
        y = CycloNum.one(self.level)
        for a in range(2, self.level):
            if gcd(a, self.level) == 1:
                y = y * self.galois(a)
        return y * (1 / (self * y).rational_value())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycloNum.from_rational(other) / self

    # -- Galois
    def galois(self, a):
        if gcd(a, self.level) != 1:
            raise ValueError("Galois index must be prime to the level")
        return CycloNum(self.level,
                        {(e * a) % self.level: v for e, v in self.coeffs.items()})

    def conjugate(self):
        return self.galois(self.level - 1) if self.level > 1 else self

    # -- predicates
    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def is_rational(self):
        return all(e == 0 for e in self.coeffs)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self.coeffs.get(0, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == Fraction(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # equal values may sit at different levels (zeta_4 == zeta_8^2), so
        # hash the value at the least level whose field holds it
        if self.is_rational():
            return hash(self.rational_value())
        for d in range(3, self.level + 1):
            if self.level % d == 0:
                try:
                    low = self.lower_level(d)
                except ValueError:
                    continue
                return hash((d, tuple(sorted(low.coeffs.items()))))

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.rational_value()})"
        terms = "+".join(f"{v}*z{self.level}^{e}"
                         for e, v in sorted(self.coeffs.items()))
        return f"CycloNum[{terms}]"

    def serialize(self):
        """Level and coefficient list, for structured reports."""
        return {"level": self.level,
                "coeffs": [[e, f"{v.numerator}/{v.denominator}"]
                           for e, v in sorted(self.coeffs.items())]}


# ---------------------------------------------------------------------------
# Q(sqrt p): pairs a + b*sqrt(base), exact

class QSqrt:
    """Element a + b*sqrt(base) with Fraction a, b; base a fixed nonsquare > 0."""

    __slots__ = ("a", "b", "base")

    def __init__(self, a, b=0, base=1):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.base = int(base)
        if self.b == 0:
            self.base = 1

    def _same(self, other):
        if not isinstance(other, QSqrt):
            return QSqrt(other, 0, self.base)
        if other.b and self.b and other.base != self.base:
            raise ValueError("mixed quadratic bases")
        return other

    def __add__(self, other):
        o = self._same(other)
        return QSqrt(self.a + o.a, self.b + o.b, self.base if self.b else o.base)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt(-self.a, -self.b, self.base)

    def __mul__(self, other):
        o = self._same(other)
        base = self.base if self.b else o.base
        return QSqrt(self.a * o.a + self.b * o.b * base,
                     self.a * o.b + self.b * o.a, base)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        o = self._same(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.base if self.b else 1))

    def __repr__(self):
        if self.b == 0:
            return f"QSqrt({self.a})"
        return f"QSqrt({self.a}+{self.b}*sqrt{self.base})"


def p_half_power(p: int, k: int) -> QSqrt:
    """p^(k/2) as an exact QSqrt(p) element: p^floor(k/2) * sqrt(p)^(k mod 2)."""
    half = k - 2 * (k // 2)          # 0 or 1, floor semantics for negatives
    base = Fraction(p) ** (k // 2)
    return QSqrt(base, 0, p) if half == 0 else QSqrt(0, base, p)


# ---------------------------------------------------------------------------
# Laurent polynomials in X

class Laurent:
    """Laurent polynomial in X over Fraction/QSqrt/CycloNum coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(j): v for j, v in (coeffs or {}).items() if v}

    @staticmethod
    def const(v):
        return Laurent({0: v})

    def __add__(self, other):
        if not isinstance(other, Laurent):
            other = Laurent.const(other)
        c = dict(self.coeffs)
        for j, v in other.coeffs.items():
            c[j] = c[j] + v if j in c else v
        return Laurent(c)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({j: -v for j, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            other = Laurent.const(other)
        c = {}
        for j1, v1 in self.coeffs.items():
            for j2, v2 in other.coeffs.items():
                j = j1 + j2
                c[j] = c[j] + v1 * v2 if j in c else v1 * v2
        return Laurent(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            other = Laurent.const(other)
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return "Laurent(" + ", ".join(f"X^{j}: {v}" for j, v in sorted(self.coeffs.items())) + ")"


# ---------------------------------------------------------------------------
# truncated power series in t with arbitrary coefficient arithmetic

class TruncSeries:
    """Truncated power series sum_{k<prec} c_k t^k; multiplication truncates."""

    __slots__ = ("prec", "coeffs")

    def __init__(self, prec, coeffs=None):
        self.prec = int(prec)
        self.coeffs = {int(k): v for k, v in (coeffs or {}).items()
                       if 0 <= int(k) < self.prec and v}

    def __add__(self, other):
        self._check(other)
        prec = min(self.prec, other.prec)
        c = {k: v for k, v in self.coeffs.items() if k < prec}
        for k, v in other.coeffs.items():
            if k < prec:
                c[k] = c[k] + v if k in c else v
        return TruncSeries(prec, c)

    def __neg__(self):
        return TruncSeries(self.prec, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        prec = min(self.prec, other.prec)
        c = {}
        for k1, v1 in self.coeffs.items():
            if k1 >= prec:
                continue
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                if k < prec:
                    c[k] = c[k] + v1 * v2 if k in c else v1 * v2
        return TruncSeries(prec, c)

    def _check(self, other):
        if not isinstance(other, TruncSeries):
            raise ValueError("a TruncSeries combines only with a TruncSeries")

    def __eq__(self, other):
        return all(self.coeffs.get(k, 0) == other.coeffs.get(k, 0)
                   for k in range(min(self.prec, other.prec)))

    def __repr__(self):
        inner = ", ".join(f"t^{k}: {v}" for k, v in sorted(self.coeffs.items()))
        return f"TruncSeries<{self.prec}>({inner})"


def geometric_inverse(c, k: int, prec: int, one) -> TruncSeries:
    """Expansion of 1/(1 - c*t^k) to the given precision; ``one`` is the
    multiplicative unit of the coefficient domain."""
    if k <= 0:
        raise ValueError("factor must have positive t-degree")
    coeffs, acc, j = {0: one}, one, 1
    while j * k < prec:
        acc = acc * c
        coeffs[j * k] = acc
        j += 1
    return TruncSeries(prec, coeffs)
