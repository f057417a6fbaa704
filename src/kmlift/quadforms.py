"""Positive definite half-integral forms, carried as even-diagonal integral
Gram matrices G = 2T: class enumeration by bounded determinant,
isometry testing under SL_n(Z), automorphism counts e(T), Hasse invariants,
and the fundamental-discriminant splitting of (-1)^(n/2) det(2T).

All arithmetic is exact.  Determinants and positive definiteness use
integer (Bareiss) elimination from ``exactalg``; short-vector enumeration is
an integer Fincke-Pohst scaled by the leading minors.  A ``GramMat`` keeps
the vectors of each norm it was asked for, with their images G v, as
per-instance pools, and the inner-product bitsets between pool vectors, so
the isometry and automorphism searches against one representative enumerate
each norm, and scan each pool against each chosen column, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import isqrt, lcm, prod
from operator import mul

import numpy as np

from .characters import factorize, hilbert_symbol
from .exactalg import (_bareiss_pass, _congruence_blocks, _wedge_plan,
                       leading_minors, mat_det)


def _as_tuple(G):
    return tuple(tuple(int(x) for x in row) for row in G)


def is_positive_definite(G) -> bool:
    """Sylvester's criterion: every leading principal minor is positive."""
    return all(d > 0 for d in leading_minors(G))


class GramMat:
    """Even-diagonal integral symmetric Gram matrix G = 2T, T half-integral."""

    __slots__ = ("entries", "_det", "_pools", "_compat")

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
        self._pools = {}
        self._compat = {}

    @property
    def n(self):
        return len(self.entries)

    def det(self) -> int:
        if self._det is None:
            self._det = mat_det(self.entries)
        return self._det

    def pool(self, t: int):
        """[(v, G v) for v in vectors_of_norm(G, t)], built once per norm t
        and kept on this instance.  The pools and the bitset table of
        ``compat`` are caches, not part of the value: eq/hash use
        ``entries`` only."""
        p = self._pools.get(t)
        if p is None:
            G = self.entries
            p = self._pools[t] = [
                (v, tuple(sum(map(mul, row, v)) for row in G))
                for v in vectors_of_norm(G, t)]
        return p

    def compat(self, s: int, i: int, t: int):
        """{c: bitset of the k with u^t G b_k = c} for u = pool(s)[i] and
        b_k = pool(t)[k]: one scan of pool(t) serves every target c.  Kept on
        this instance, like the pools."""
        key = (s, i, t)
        tab = self._compat.get(key)
        if tab is None:
            u = self.pool(s)[i][0]
            tab = self._compat[key] = {}
            for k, (_, Gb) in enumerate(self.pool(t)):
                c = sum(map(mul, u, Gb))
                tab[c] = tab.get(c, 0) | 1 << k
        return tab

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
# short vectors (integer Fincke-Pohst)

def vectors_of_norm(G, t: int):
    """All v in Z^n with G[v] = t, ordered by v[::-1] ascending.

    Integer Fincke-Pohst: one swap-free Bareiss pass gives the leading
    minors d_k (d_0 = 1) and the pivot rows b_kj, and
    G[v] = sum_k (d_{k+1} v_k + sum_{j>k} b_kj v_j)^2 / (d_k d_{k+1}).
    Scaled by L = lcm(d_k d_{k+1}), the remainder stays an integer and each
    coordinate is bounded with ``isqrt``; the last coordinate is outermost."""
    M, pivots = _bareiss_pass(G)
    n = len(M)
    if not all(x > 0 for x in pivots):
        raise ValueError("not positive definite")
    d = [1] + pivots
    w = [d[k] * d[k + 1] for k in range(n)]
    L = lcm(*w)
    w = [L // x for x in w]
    out = []
    v = [0] * n

    def rec(k, rem):
        # rem = L t - sum_{i>k} w_i (d_{i+1} v_i + sum_{j>i} b_ij v_j)^2 >= 0
        row, D, wk = M[k], d[k + 1], w[k]
        s = sum(row[j] * v[j] for j in range(k + 1, n))
        r = isqrt(rem // wk)
        if k == 0:
            # the first coordinate must close the sum exactly
            if wk * r * r == rem:
                for y in ((-r, r) if r else (0,)):
                    if (y - s) % D == 0:
                        v[0] = (y - s) // D
                        out.append(tuple(v))
            return
        for x in range(-((r + s) // D), (r - s) // D + 1):
            v[k] = x
            y = D * x + s
            rec(k - 1, rem - wk * y * y)

    if t >= 0:
        rec(n - 1, L * t)
    return out


# ---------------------------------------------------------------------------
# isometries and automorphisms

def _isometry_search(G1: GramMat, G2: GramMat, need_det=1, count_all=False,
                     congruence=1):
    """Backtracking over columns: U with G1[U] = G2.

    need_det: +1 for an SL witness, None for any; count_all (G1 = G2 only)
    returns the order of the group of solutions with det = +1 (and
    U = 1 mod congruence) instead of the first solution.

    Column j runs over G1.pool(G2[j][j]) in pool order; its candidates are
    the AND over i < j of the ``compat`` bitsets of the chosen u_i at the
    value G2[i][j].  At the last column, the wedge of the columns before it
    (``_wedge_plan``) gives the cofactors c with det U = c . v, so a leaf
    costs one dot product.

    The order is counted by orbit-stabilizer along the basis, not leaf by
    leaf: with columns 0..j-1 fixed to e_0..e_{j-1}, the orbit of e_j under
    their pointwise stabilizer is the set of candidates v for column j with
    some completion (one first-hit search each), and the stabilizer of all n
    basis vectors is trivial, so the orbit lengths multiply to the order
    (Plesken-Souvignier, J. Symb. Comput. 24 (1997)).
    """
    n = G1.n
    if G2.n != n or G1.det() != G2.det():
        return 0 if count_all else None
    G2e = G2.entries
    norms = [G2e[j][j] for j in range(n)]
    pools = [G1.pool(norms[0])]     # pools[j] = G1.pool(norms[j])
    plan = _wedge_plan(n)
    picks = [0] * n
    order = 1
    units = [tuple(int(r == j) for r in range(n))
             for j in range(n)] if count_all else None

    def rec(j, bits, walk=False):
        # bits: the pool indices for column j compatible with columns < j;
        # walk: columns < j are e_0..e_{j-1}, and the orbit of e_j is counted
        # into ``order`` before the walk descends along e_j
        nonlocal order
        pool = pools[j]
        last = j == n - 1
        if last:
            if need_det is not None:
                w = (1,)            # the j-wedge of columns 0..j-1
                for i in range(j):
                    u = pools[i][picks[i]][0]
                    w = [sum(sg * u[r] * w[q] for r, q, sg in terms)
                         for terms in plan[i]]
                cof = [0] * n       # det U = sum_r cof[r] v[r]
                for r, q, sg in plan[j][0]:
                    cof[r] += sg * w[q]
        else:
            t = norms[j + 1]
            if len(pools) == j + 1:     # built once column j is reached
                pools.append(G1.pool(t))
            base = (1 << len(pools[j + 1])) - 1
            for i in range(j):
                base &= G1.compat(norms[i], picks[i], t).get(G2e[i][j + 1], 0)
            if not base:
                return False
            s, c = norms[j], G2e[j][j + 1]
        orbit, stay = 0, None
        while bits:
            low = bits & -bits
            bits ^= low
            k = low.bit_length() - 1
            v = pool[k][0]
            if congruence > 1 and any((x - (r == j)) % congruence
                                      for r, x in enumerate(v)):
                continue
            picks[j] = k
            if walk and v == units[j]:
                orbit, stay = orbit + 1, k      # e_j, completed by the identity
                continue
            if last:
                if need_det is not None and sum(map(mul, cof, v)) != need_det:
                    continue
            else:
                nxt = base & G1.compat(s, k, t).get(c, 0)
                if not (nxt and rec(j + 1, nxt)):
                    continue
            if not walk:
                return True
            orbit += 1
        if walk:
            order *= orbit
            if not last:
                picks[j] = stay
                rec(j + 1, base & G1.compat(s, stay, t).get(c, 0), True)
        return False

    hit = bool(pools[0]) and rec(0, (1 << len(pools[0])) - 1, count_all)
    if count_all:
        return order
    if hit:     # U has the picked vectors as its columns
        return [list(r) for r in zip(*(p[k][0] for p, k in zip(pools, picks)))]
    return None


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


def _offdiag_symmetries(diag, pairs):
    """The group H, as maps on the off-diagonal entries a = (G_ij for (i, j)
    in pairs): G -> G[U] for the signed permutation matrices U in SL_n(Z)
    (U e_j = s_j e_{pi(j)}) that permute only indices with equal diagonal
    entries, so G[U] keeps the diagonal and a'_ij = s_i s_j a_{pi(i) pi(j)}.
    Each map is (source positions, signs); the identity is left out."""
    n = len(diag)
    where = {p: k for k, p in enumerate(pairs)}
    maps = set()
    for pi in permutations(range(n)):
        if any(diag[pi[i]] != diag[i] for i in range(n)):
            continue
        inversions = sum(pi[i] > pi[j] for i, j in pairs)
        for s in product((1, -1), repeat=n):
            if (-1) ** inversions * prod(s) == 1:
                maps.add((tuple(where[min(pi[i], pi[j]), max(pi[i], pi[j])]
                                for i, j in pairs),
                          tuple(s[i] * s[j] for i, j in pairs)))
    maps.discard((tuple(range(len(pairs))), (1,) * len(pairs)))
    return sorted(maps)


def enumerate_classes(n: int, B: int, margin: Fraction = None) -> ClassList:
    """All SL_n(Z)-classes of positive definite half-integral T with
    det(2T) <= B, by exhaustive generation over the reduction region plus
    isometry deduplication.

    The region (sorted even diagonal under the margin, |G_ij| <=
    min(G_ii, G_jj) // 2) is invariant under the group H of
    ``_offdiag_symmetries``, and H keeps det and diagonal, so a candidate
    whose off-diagonal tuple is larger than one of its H-images is not the
    ``canonical_key``-minimum of its class and is dropped before its minors
    are computed (one numpy pass per diagonal and H-map).  Each class's
    minimum survives, so the representatives (those minima, in
    ``canonical_key`` order) are those of the unfiltered search; duplicates
    are still removed by ``isometry_test``."""
    if n not in (1, 2, 3, 4):
        raise ValueError("class enumeration supports n <= 4")
    if margin is None:
        margin = Fraction(4, 3) ** (n * (n - 1) // 2)
    diag_cap = int(margin * B) + 1
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def diagonals(k, prefix, size):
        if k == n:
            yield tuple(prefix)
            return
        start = prefix[-1] if prefix else 2
        d = start
        while size * d ** (n - k) <= diag_cap:
            yield from diagonals(k + 1, prefix + [d], size * d)
            d += 2

    candidates = []
    for diag in diagonals(0, [], 1):
        bounds = [min(diag[i], diag[j]) // 2 for i, j in pairs]
        sizes = [2 * b + 1 for b in bounds]
        # every tuple a, in product order, as one row; the mixed-radix key
        # sum_k (a_k + b_k) R_k, R_k = prod_{l>k} (2 b_l + 1), orders the
        # rows as the tuples, and H keeps the bounds, so key(image) - key(a)
        # = sum_p a_p (coef[p] - R_p) with coef[pos_k] = sg_k R_k; keys stay
        # below the row count, so int64 is exact
        a = (np.indices(sizes, dtype=np.int64).reshape(len(sizes),
                                                       prod(sizes)).T
             - np.array(bounds, dtype=np.int64))
        radix = [prod(sizes[k + 1:]) for k in range(len(sizes))]
        for pos, sg in _offdiag_symmetries(diag, pairs):
            diff = [-r for r in radix]
            for k, p in enumerate(pos):
                diff[p] += sg[k] * radix[k]
            a = a[a @ np.array(diff, dtype=np.int64) >= 0]
        for x in a.tolist():
            G = [[0] * n for _ in range(n)]
            for i in range(n):
                G[i][i] = diag[i]
            for (i, j), y in zip(pairs, x):
                G[i][j] = G[j][i] = y
            minors = leading_minors(G)
            if all(d > 0 for d in minors) and minors[-1] <= B:
                cand = GramMat(G)
                cand._det = minors[-1]      # the last leading minor
                candidates.append(cand)

    candidates.sort(key=canonical_key)
    reps: list[ClassRecord] = []
    by_det = {}
    for cand in candidates:
        same = by_det.setdefault(cand.det(), [])
        if not any(isometry_test(g, cand) for g in same):
            same.append(cand)
            reps.append(ClassRecord(cand, 0, None))
    for rec in reps:
        rec.e = automorphism_count(rec.gram)
        if n % 2 == 0:
            rec.disc = disc_split(rec.gram)
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
    return _hasse_diagonal(diag, p)


def _hasse_diagonal(diag, p) -> int:
    """epsilon of diag(a_1, ..., a_n), all a_i nonzero, with no
    diagonalization."""
    eps = 1
    for i in range(len(diag)):
        for j in range(i, len(diag)):
            eps *= hilbert_symbol(diag[i], diag[j], p)
    return eps
