"""Positive definite half-integral forms, carried as even-diagonal integral
Gram matrices G = 2T: class enumeration by bounded determinant,
isometry testing under SL_n(Z), automorphism counts e(T), Hasse invariants,
and the fundamental-discriminant splitting of (-1)^(n/2) det(2T).

All arithmetic is exact.  Determinants and positive definiteness use
integer (Bareiss) elimination from ``exactalg``; short-vector enumeration
uses a rational Cholesky split of the Gram matrix.  A ``GramMat`` keeps the
vectors of each norm it was asked for, with their images G v, as per-instance
pools, so the isometry and automorphism searches against one representative
enumerate each norm once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .characters import factorize, hilbert_symbol
from .exactalg import _congruence_blocks, leading_minors, mat_det


def _as_tuple(G):
    return tuple(tuple(int(x) for x in row) for row in G)


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def transform(G, U):
    """G[U] = U^t G U."""
    Ut = [[U[j][i] for j in range(len(U))] for i in range(len(U[0]))]
    return mat_mul(mat_mul(Ut, [list(r) for r in G]), [list(r) for r in U])


def is_positive_definite(G) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    return all(d > 0 for d in leading_minors(G))


class GramMat:
    """Even-diagonal integral symmetric Gram matrix G = 2T, T half-integral."""

    __slots__ = ("entries", "_det", "_pools")

    def __init__(self, entries):
        self.entries = _as_tuple(entries)
        n = len(self.entries)
        for i in range(n):
            if self.entries[i][i] % 2:
                raise ValueError("diagonal of G = 2T must be even")
            for j in range(n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self._det = None
        self._pools = None

    @property
    def n(self):
        return len(self.entries)

    def det(self) -> int:
        if self._det is None:
            self._det = mat_det(self.entries)
        return self._det

    def pool(self, t: int):
        """[(v, G v) for v in vectors_of_norm(G, t)], built once per norm t
        and kept on this instance (not part of its value: eq/hash use
        ``entries`` only)."""
        if self._pools is None:
            self._pools = {}
        p = self._pools.get(t)
        if p is None:
            G = self.entries
            p = self._pools[t] = [
                (v, tuple(sum(map(mul, row, v)) for row in G))
                for v in vectors_of_norm(G, t)]
        return p

    def __eq__(self, other):
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"GramMat({[list(r) for r in self.entries]})"

    def rows(self):
        return [list(r) for r in self.entries]


def canonical_key(G: GramMat):
    return (G.det(), tuple(G.entries[i][i] for i in range(G.n)), G.entries)


# ---------------------------------------------------------------------------
# short vectors (exact Fincke-Pohst)

def _cholesky(G):
    n = len(G)
    A = [[Fraction(x) for x in row] for row in G]
    D = [Fraction(0)] * n
    R = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        D[k] = A[k][k]
        if D[k] <= 0:
            raise ValueError("not positive definite")
        for j in range(k + 1, n):
            R[k][j] = A[k][j] / A[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] -= A[i][k] * A[k][j] / A[k][k]
    return D, R


def vectors_of_norm(G, t: int):
    """All v in Z^n with G[v] = t (t > 0), exact enumeration."""
    n = len(G)
    D, R = _cholesky(G)
    out = []
    v = [0] * n

    def rec(k, rem):
        # rem = t - sum_{i>k} D_i (v_i + sum_j R_ij v_j)^2
        if k < 0:
            if rem == 0:
                out.append(tuple(v))
            return
        shift = sum(R[k][j] * v[j] for j in range(k + 1, n))
        # D_k (v_k + shift)^2 <= rem
        bound = rem / D[k]
        lo = _ceil_sqrt_neg(shift, bound)
        hi = _floor_sqrt_pos(shift, bound)
        for x in range(lo, hi + 1):
            v[k] = x
            rec(k - 1, rem - D[k] * (x + shift) ** 2)
        v[k] = 0

    rec(n - 1, Fraction(t))
    return out


def _floor_sqrt_pos(shift: Fraction, bound: Fraction) -> int:
    # max integer x with (x + shift)^2 <= bound; -10^9 when there is none
    if bound < 0:
        return -10 ** 9
    x = int(_isqrt_frac(bound) - shift) + 2
    while (x + shift) ** 2 > bound:
        if x + shift < 0:
            return -10 ** 9
        x -= 1
    return x


def _ceil_sqrt_neg(shift: Fraction, bound: Fraction) -> int:
    # min integer x with (x + shift)^2 <= bound; 10^9 when there is none
    if bound < 0:
        return 10 ** 9
    x = int(-_isqrt_frac(bound) - shift) - 2
    while (x + shift) ** 2 > bound:
        if x + shift > 0:
            return 10 ** 9
        x += 1
    return x


def _isqrt_frac(x: Fraction) -> Fraction:
    from math import isqrt
    if x < 0:
        return Fraction(0)
    return Fraction(isqrt(x.numerator * x.denominator), x.denominator)


# ---------------------------------------------------------------------------
# isometries and automorphisms

def _isometry_search(G1: GramMat, G2: GramMat, need_det=1, count_all=False,
                     congruence=1):
    """Backtracking over columns: U with G1[U] = G2.

    need_det: +1 for an SL witness, None for any; count_all counts solutions
    with det = +1 (and U = 1 mod congruence) instead of returning the first.
    """
    n = G1.n
    if G2.n != n or G1.det() != G2.det():
        return 0 if count_all else None
    G2e = G2.entries
    cols = []
    found = [0]
    witness = [None]

    def rec(j):
        if j == n:
            U = [[cols[c][r] for c in range(n)] for r in range(n)]
            d = mat_det(U)
            if need_det is not None and d != need_det:
                return False
            if congruence > 1:
                for a in range(n):
                    for b in range(n):
                        if (U[a][b] - (1 if a == b else 0)) % congruence:
                            return False
            if count_all:
                found[0] += 1
                return False
            witness[0] = U
            return True
        # column j is compatible when cols[i]^t G1 v = G2[i][j] for i < j
        for v, Gv in G1.pool(G2e[j][j]):
            for i in range(j):
                if sum(map(mul, cols[i], Gv)) != G2e[i][j]:
                    break
            else:
                cols.append(v)
                if rec(j + 1):
                    return True
                cols.pop()
        return False

    rec(0)
    if count_all:
        return found[0]
    return witness[0]


def isometry_test(G1: GramMat, G2: GramMat):
    """SL_n(Z) witness U with G1[U] = G2, or None."""
    return _isometry_search(G1, G2, need_det=1)


def automorphism_count(G: GramMat, N: int = 1) -> int:
    """e_N(T) = #{U in SL_n(Z), U = 1 mod N, T[U] = T} (N = 1 gives e(T))."""
    return _isometry_search(G, G, need_det=1, count_all=True, congruence=N)


def automorphism_count_full(G: GramMat) -> int:
    """#O(T, Z) including improper isometries."""
    return _isometry_search(G, G, need_det=None, count_all=True)


# ---------------------------------------------------------------------------
# class enumeration

@dataclass
class ClassRecord:
    gram: GramMat
    e: int
    disc: "DiscSplit | None"

    def to_dict(self):
        d = {"gram": self.gram.rows(), "det": self.gram.det(), "e": self.e}
        if self.disc is not None:
            d["d_T"] = self.disc.d
            d["f_T"] = self.disc.f
        return d


@dataclass
class ClassList:
    n: int
    det_bound: int
    classes: list

    def by_det(self, D: int):
        return [c for c in self.classes if c.gram.det() == D]

    def to_dict(self):
        return {"n": self.n, "det_bound": self.det_bound,
                "classes": [c.to_dict() for c in self.classes]}


def enumerate_classes(n: int, B: int, margin: Fraction = None,
                      with_disc=True) -> ClassList:
    """All SL_n(Z)-classes of positive definite half-integral T with
    det(2T) <= B, by exhaustive generation over the reduction region plus
    isometry deduplication."""
    if n not in (1, 2, 3, 4):
        raise ValueError("class enumeration supports n <= 4")
    if margin is None:
        margin = Fraction(4, 3) ** (n * (n - 1) // 2)
    diag_cap = int(margin * B) + 1
    reps: list[ClassRecord] = []

    def diagonals(k, prefix, prod):
        if k == n:
            yield tuple(prefix)
            return
        start = prefix[-1] if prefix else 2
        d = start
        while prod * d ** (n - k) <= diag_cap:
            yield from diagonals(k + 1, prefix + [d], prod * d)
            d += 2

    def offdiag_ranges(diag):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        bounds = [min(diag[i], diag[j]) // 2 for i, j in pairs]
        return pairs, bounds

    candidates = []
    for diag in diagonals(0, [], 1):
        pairs, bounds = offdiag_ranges(diag)

        def fill(k, entries):
            if k == len(pairs):
                G = [[0] * n for _ in range(n)]
                for i in range(n):
                    G[i][i] = diag[i]
                for (i, j), v in zip(pairs, entries):
                    G[i][j] = G[j][i] = v
                minors = leading_minors(G)
                if all(d > 0 for d in minors) and minors[-1] <= B:
                    cand = GramMat(G)
                    cand._det = minors[-1]      # the last leading minor
                    candidates.append(cand)
                return
            for v in range(-bounds[k], bounds[k] + 1):
                fill(k + 1, entries + [v])

        fill(0, [])

    candidates.sort(key=canonical_key)
    for cand in candidates:
        dup = False
        for rec in reps:
            if rec.gram.det() == cand.det() and isometry_test(rec.gram, cand):
                dup = True
                break
        if not dup:
            reps.append(ClassRecord(cand, 0, None))
    for rec in reps:
        rec.e = automorphism_count(rec.gram)
        if with_disc and n % 2 == 0:
            rec.disc = disc_split(rec.gram)
    reps.sort(key=lambda r: canonical_key(r.gram))
    return ClassList(n, B, reps)


# ---------------------------------------------------------------------------
# discriminant splitting and Hasse invariants

@dataclass
class DiscSplit:
    d: int   # fundamental discriminant (or 1)
    f: int   # positive conductor

    def __iter__(self):
        return iter((self.d, self.f))


def squarefree_part(m: int) -> int:
    s, sign = 1, (1 if m > 0 else -1)
    m = abs(m)
    for p, e in factorize(m):
        if e % 2:
            s *= p
    return sign * s


def fundamental_split(delta: int) -> DiscSplit:
    """delta = d * f^2 with d a fundamental discriminant (1 allowed)."""
    if delta == 0 or delta % 4 in (2, 3):
        raise ValueError(f"{delta} is not a discriminant")
    s = squarefree_part(delta)
    d = s if s % 4 == 1 else 4 * s
    f2 = Fraction(delta, d)
    assert f2.denominator == 1 and int(f2) > 0, (delta, d)
    f = _exact_isqrt(int(f2))
    return DiscSplit(d, f)


def _exact_isqrt(k: int) -> int:
    from math import isqrt
    r = isqrt(k)
    if r * r != k:
        raise ValueError(f"{k} is not a perfect square")
    return r


def disc_split(G: GramMat) -> DiscSplit:
    if G.n % 2:
        raise ValueError("discriminant splitting needs even rank")
    return fundamental_split((-1) ** (G.n // 2) * G.det())


def hasse_invariant(A, p) -> int:
    """epsilon(A) = prod_{i<=j} (a_i, a_j)_p over a Q-diagonalization."""
    diag = [B[0][0] for B in _congruence_blocks(A)]
    if len(diag) < len(A):
        raise ValueError("degenerate form")
    eps = 1
    for i in range(len(diag)):
        for j in range(i, len(diag)):
            eps *= hilbert_symbol(diag[i], diag[j], p)
    return eps
