"""Everything p-adic: the square-class indicator xi~_p, Jordan decompositions,
local representation densities alpha_p, local Siegel series b_p / F_p / F~_p,
GL_n(Z_p)-class enumeration, the genus power series P^(0)_{n,p} with its
closed rational form, and the Siegel mass assembly.

Two independent routes exist for every Siegel series within the oracle's
fixed cap ``_ORACLE_CAP``, which ``--budget`` does not move: ``oracle``
enumerates cosets R = S/p^j of S_n(Q_p)/S_n(Z_p) and extracts F_p from the
exponential-sum series by exact division, while ``stratified`` computes the
first two series coefficients from the rank strata of the cosets, reduced to
counts over the vectors of F_p^n (the zeros of T mod p, the radical vectors
with T[v] mod p^2, and the pairs of zeros orthogonal mod p, which count the
planes on which T vanishes mod p), for every prime p, and completes the
polynomial through the X <-> 1/X functional equation, which is then
re-checked coefficient by coefficient.  Dyadic support is scoped to
nu_2(f_T) <= 1, i.e. deg F_2 <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import numpy as np

from .characters import (_as_unit_int, _root_sum, factorize, kronecker,
                         legendre, require_prime)
from .charsums import (_CHUNK, BudgetExceeded, _rep_count, _rep_rows,
                       _sym_entries, _sym_trace, _vectors)
from .exactalg import (Laurent, QSqrt, TruncSeries, _congruence_blocks, _pval,
                       geometric_inverse, mat_det, p_half_power, poly_mul)
from .lseries import gen_bernoulli_kronecker, zeta_even_rational
from .quadforms import GramMat, _hasse_diagonal, fundamental_split

# largest S_n(Z/p^j) table the oracle route enumerates
_ORACLE_CAP = 4_500_000


# ---------------------------------------------------------------------------
# square classes

def xi_tilde(p: int, c) -> int:
    """1, -1 or 0: Q_p(sqrt c) equal to Q_p, unramified quadratic, ramified."""
    require_prime(p)
    c = Fraction(c)
    if c == 0:
        raise ValueError("xi~ undefined at 0")
    v = _pval(c, p)
    if v % 2:
        return 0
    u = c / Fraction(p) ** v
    if p == 2:
        return {1: 1, 5: -1, 3: 0, 7: 0}[_as_unit_int(u, 2, mod=8)]
    return _unit_class(u, p)


# ---------------------------------------------------------------------------
# Jordan decompositions

@dataclass(frozen=True)
class JordanBlock:
    scale: int
    dim: int
    detclass: int       # unit determinant: Legendre class (p odd), mod 8 (p = 2)
    oddity: int | None = None   # p = 2, odd type: the sum of the 1x1 units mod 8


@dataclass(frozen=True)
class JordanSymbol:
    p: int
    blocks: tuple       # one constituent per scale, sorted by scale

    def valuation(self) -> int:
        return sum(b.scale * b.dim for b in self.blocks)


def jordan_decompose(G, p: int) -> JordanSymbol:
    """The pivots of the congruence reduction over Z_p, grouped by valuation.

    A 1x1 pivot multiplies its unit into the constituent's determinant (its
    Legendre class for p odd, the unit mod 8 for p = 2, where it also adds to
    the oddity); a 2x2 pivot (p = 2 only) multiplies in det / 4^v mod 8,
    which is 7 for H and 3 for V."""
    require_prime(p)
    if mat_det(_rows(G)) == 0:
        raise ValueError("degenerate form")
    cons: dict = {}
    for B in _congruence_blocks(_rows(G), p):
        v = _pval(B[0][-1], p)
        dim, det, oddity = cons.get(v, (0, 1, None))
        u = (B[0][0] if len(B) == 1 else B[0][0] * B[1][1] - B[0][1] ** 2) \
            / Fraction(p) ** (len(B) * v)
        if p == 2:
            u = _as_unit_int(u, 2, mod=8)
            det = det * u % 8
            oddity = ((oddity or 0) + u) % 8 if len(B) == 1 else oddity
        else:
            det *= _unit_class(u, p)
        cons[v] = (dim + len(B), det, oddity)
    return JordanSymbol(p, tuple(JordanBlock(a, *cons[a]) for a in sorted(cons)))


def _rows(G):
    return G.entries if isinstance(G, GramMat) else G


def _unit_class(u: Fraction, p: int) -> int:
    return legendre(_as_unit_int(u, p), p)


def symbol_diagonal(sym: JordanSymbol, p: int):
    """An integer diagonal representative of the symbol (unit classes realized
    by 1 and the smallest nonresidue)."""
    r = _nonresidue(p)
    diag = []
    for b in sym.blocks:
        units = [1] * b.dim
        if b.detclass == -1:
            units[-1] = r
        diag.extend(p ** b.scale * u for u in units)
    return diag


def _nonresidue(p):
    return next(r for r in range(2, p) if legendre(r, p) == -1)


# ---------------------------------------------------------------------------
# local densities

def local_density(G, p: int, mode="closed") -> Fraction:
    """alpha_p(A) = 2^{-1} lim p^{a(-n^2+n(n+1)/2)} #A_a(A,A); exact."""
    if mode == "closed":
        return density_from_symbol(jordan_decompose(G, p), p)
    if mode == "brute":
        require_prime(p)
        return _density_brute(G, p)
    raise ValueError(f"unknown mode {mode!r}")


def _species_factor(species: int, p: int) -> Fraction:
    """The inverse Conway-Sloane diagonal factor of a Jordan constituent
    ("Low-dimensional lattices IV: the mass formula", 1988): 2 prod_{k<s}
    (1 - p^-2k) for species 2s - 1, times (1 -+ p^-s) for the species +-2s;
    species 0 gives 1."""
    if species == 0:
        return Fraction(1)
    s = (abs(species) + 1) // 2
    num = 2 * prod(p ** (2 * k) - 1 for k in range(1, s))
    den = p ** (s * (s - 1))
    if species % 2 == 0:
        num *= p ** s - (1 if species > 0 else -1)
        den *= p ** s
    return Fraction(num, den)


def density_from_symbol(sym: JordanSymbol, p: int) -> Fraction:
    """alpha = p^E / 2 prod_j factor(species_j), from the Conway-Sloane p-mass,
    with E = sum_j a_j (n_j(n_j+1)/2 + n_j sum_{k>j} n_k) over the (scale a_j,
    dim n_j) of the constituents.

    p odd: the species of a constituent is its dim, signed for even dim by
    whether (-1)^{dim/2} det is a square; an empty scale has species 0.
    p = 2: a further 2^(-n(I) - n(I,I)), n(I) the dim of the odd-type
    constituents and n(I,I) the number of adjacent odd-type pairs.  The
    octane is the oddity plus 4 when det = +-3 mod 8.  Over the scales and
    one empty scale past each end, a constituent next to an odd-type scale,
    or of octane +-2, has species 2t + 1; else +2t for octane 0, +-1 and -2t
    for +-3, 4, with t = dim // 2, less 1 for an even-dim odd-type one."""
    E, later = 0, sum(b.dim for b in sym.blocks)
    for b in sym.blocks:
        later -= b.dim
        E += b.scale * (b.dim * (b.dim + 1) // 2 + b.dim * later)
    val = Fraction(p ** E, 2)
    if p != 2:
        for b in sym.blocks:
            sign = legendre((-1) ** (b.dim // 2), p) * b.detclass if b.dim % 2 == 0 else 1
            val *= _species_factor(sign * b.dim, p)
        return val
    cons = {b.scale: b for b in sym.blocks}
    odd = {s for s, b in cons.items() if b.oddity is not None}
    val /= 2 ** (sum(cons[s].dim for s in odd) + sum(s + 1 in odd for s in odd))
    empty = JordanBlock(0, 0, 1)
    for s in range(sym.blocks[0].scale - 1, sym.blocks[-1].scale + 2):
        b = cons.get(s, empty)
        t = b.dim // 2 - (b.oddity is not None and b.dim % 2 == 0)
        octane = ((b.oddity or 0) + 4 * (b.detclass in (3, 5))) % 8
        if s - 1 in odd or s + 1 in odd or octane in (2, 6):
            val *= _species_factor(2 * t + 1, 2)
        else:
            val *= _species_factor(2 * t if octane in (0, 1, 7) else -2 * t, 2)
    return val


def _density_brute(G, p: int) -> Fraction:
    """Backtracking count of #A_a(A, A) at a = nu_p(det) + 1 + [p = 2] and at
    a + 1, which must agree (odd-type dyadic forms settle one digit later)."""
    A = np.asarray(_rows(G), dtype=np.int64)
    a = _pval(mat_det(A), p) + 1 + (p == 2)
    v1 = _aut_cong_count(A, p, a)
    v2 = _aut_cong_count(A, p, a + 1)
    if v1 != v2:
        raise RuntimeError("density did not stabilize")
    return v2


def _aut_cong_count(A, p: int, a: int) -> Fraction:
    """(1/2) p^{-a n(n-1)/2} #{X mod p^a : A[X] = A mod p^a S_e}, counted by
    the representation-count kernel ``charsums._rep_count`` over the rows of
    X (the diagonal of A[X] is read mod 2^{a+1} at p = 2)."""
    n = A.shape[0]
    mod = p ** a
    if mod ** n > 4_200_000:
        raise BudgetExceeded(mod ** n, 4_200_000)
    count = _rep_count(_vectors(0, mod ** n, mod, n), A, A, mod,
                       2 * mod if p == 2 else mod)
    return Fraction(count, 2 * p ** (a * n * (n - 1) // 2))


# ---------------------------------------------------------------------------
# local Siegel series

@dataclass
class SiegelPoly:
    p: int
    n: int
    fcoeffs: tuple        # F_p(T, X) integer coefficients, constant first
    nu_det: int           # nu_p(det 2T)
    nu_f: int             # nu_p of the conductor part
    xi: int               # xi_p(T)

    def check_symmetry(self) -> bool:
        """c_{nu_f + t} = c_{nu_f - t} p^{(n+1) t} for the F~ functional equation."""
        c = self.fcoeffs
        d = len(c) - 1
        if d != 2 * self.nu_f:
            return False
        for t in range(self.nu_f + 1):
            if c[self.nu_f + t] != c[self.nu_f - t] * self.p ** ((self.n + 1) * t):
                return False
        return True

    def ftilde_laurent(self) -> Laurent:
        """F~_p(T, X) = X^{-nu_f} F_p(T, p^{-(n+1)/2} X) over Q(sqrt p)."""
        coeffs = {}
        for j, c in enumerate(self.fcoeffs):
            coeffs[j - self.nu_f] = p_half_power(self.p, -j * (self.n + 1)) * Fraction(c)
        return Laurent(coeffs)

    def to_dict(self):
        # siegel_series returns only F that pass check_symmetry
        return {"p": self.p, "n": self.n, "coeffs": list(self.fcoeffs),
                "nu_det": self.nu_det, "nu_f": self.nu_f, "xi": self.xi,
                "symmetric": True}


_STRATIFIED_DEG = 2     # the highest deg F_p the stratified route reaches


def _siegel_degree(G: GramMat, p: int):
    """(nu_p(det G), xi~, deg F_p) for T = G/2, n even: deg F_p is nu_p(det)
    less nu_p of the local discriminant part, which is 0 unless xi~ = 0."""
    detG = G.det()
    nu = _pval(detG, p)
    xi = xi_tilde(p, Fraction((-1) ** (G.n // 2) * detG))  # class of det T
    deg = nu - (0 if xi else 1 if p != 2 else 2 + nu % 2)
    assert deg % 2 == 0, (nu, xi)
    return nu, xi, deg


def siegel_series(G: GramMat, p: int, mode="stratified") -> SiegelPoly:
    """F_p(T, X) for T = G/2 (n even); plus the F~ symmetry audit."""
    require_prime(p)
    n = G.n
    if n % 2:
        raise ValueError("Siegel series implemented for even rank")
    nu, xi, deg = _siegel_degree(G, p)
    nu_f = deg // 2
    if deg == 0:
        return SiegelPoly(p, n, (1,), nu, 0, xi)
    if mode == "oracle":
        A = _oracle_A_coeffs(G, p, deg)
    elif mode == "stratified":
        if deg > _STRATIFIED_DEG:
            raise ValueError("stratified extraction scoped to "
                             f"deg F <= {_STRATIFIED_DEG}")
        A = _stratified_A(G, p)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    c = _solve_F_from_A(A, p, n, xi, deg)
    sp = SiegelPoly(p, n, tuple(c), nu, nu_f, xi)
    if not sp.check_symmetry():
        raise RuntimeError(f"F~ functional equation failed: {sp}")
    return sp


def _solve_F_from_A(A, p, n, xi, deg):
    """Triangular solve of b(u)(1 - xi p^{n/2} u) = F(u) (1-u) prod (1-p^{2i}u^2)
    for the F coefficients, with consistency checks on surplus coefficients."""
    J = len(A) - 1
    # left side: L_k = A_k - xi p^{n/2} A_{k-1}
    L = [A[0]] + [A[k] - Fraction(xi * p ** (n // 2)) * A[k - 1] for k in range(1, J + 1)]
    # g(u) = (1-u) prod_{i=1}^{n/2} (1 - p^{2i} u^2)
    g = [1, -1]
    for i in range(1, n // 2 + 1):
        g = poly_mul(g, [1, 0, -(p ** (2 * i))], len(g) + 2)
    c = []
    for k in range(J + 1):
        v = L[k]
        for i in range(max(0, k - len(g) + 1), k):
            if i < len(c):
                v -= c[i] * g[k - i]
        if k <= deg:
            c.append(v)
        else:
            if v != 0:
                raise RuntimeError(f"Siegel division left a remainder at u^{k}")
    if len(c) < deg + 1:
        # complete by the functional equation: c_{deg-t} determines c_{deg- ...}
        have = len(c)
        nu_f = deg // 2
        full = list(c) + [None] * (deg + 1 - have)
        for j in range(have, deg + 1):
            mirror = 2 * nu_f - j
            if mirror < 0 or full[mirror] is None:
                raise RuntimeError("not enough series data to complete F")
            full[j] = full[mirror] * Fraction(p) ** ((n + 1) * (j - nu_f))
        c = full
    out = []
    for v in c:
        f = Fraction(v)
        assert f.denominator == 1, f
        out.append(int(f))
    assert out[0] == 1, out
    return out


# -- oracle route: honest coset enumeration

@lru_cache(maxsize=None)
def _snf_buckets(n: int, p: int, j: int):
    """For every S in S_n(Z/p^j) (encoded base p^j over the upper triangle):
    -1 if S = 0 mod p, else log_p |S (Z/p^j)^n| = sum_i max(0, j - v_i)
    over the p-valuations v_i of the elementary divisors of S.

    A Smith form mod q = p^j runs on a chunk of matrices at once, with
    lookup tables for the valuation and for the inverse of the unit part.
    Each step takes an entry of least valuation v of the remaining block,
    clears its column with f = (x / p^v) u^-1 mod q and drops its row and
    column; the row needs no clearing, being a multiple of the pivot."""
    q = p ** j
    E = n * (n + 1) // 2
    total = q ** E
    if total > _ORACLE_CAP:
        raise BudgetExceeded(total, _ORACLE_CAP)
    res = np.arange(q, dtype=np.int64)
    val = sum((res % p ** k == 0).astype(np.int64) for k in range(1, j + 1))
    unit_inv = np.array([pow(int(u), -1, q) if u % p else 0
                         for u in res // p ** val], dtype=np.int64)
    buckets = np.empty(total, dtype=np.int8)
    step = max(1, _CHUNK // (n * n))
    for lo in range(0, total, step):
        hi = min(total, lo + step)
        M = np.array(_sym_entries(lo, hi, q, n)).transpose(2, 0, 1)
        bucket = np.zeros(hi - lo, dtype=np.int64)
        for m in range(n, 0, -1):
            flat = M.reshape(-1, m * m)
            at = val[flat].argmin(axis=1)[:, None]
            piv = np.take_along_axis(flat, at, axis=1)
            v = val[piv[:, 0]]
            bucket += j - v
            if m == n:
                zero_mod_p = v > 0
            if m == 1:
                break
            r, c = at // m, at % m
            rest = np.arange(m - 1)
            rows = np.take_along_axis(M, (rest + (rest >= r))[:, :, None], 1)
            prow = np.take_along_axis(M, r[:, :, None], axis=1)
            x = np.take_along_axis(rows, c[:, None, :], axis=2)
            f = x // p ** v[:, None, None] * unit_inv[piv][:, :, None] % q
            M = np.take_along_axis((rows - f * prow) % q,
                                   (rest + (rest >= c))[:, None, :], axis=2)
        bucket[zero_mod_p] = -1
        buckets[lo:hi] = bucket
    return buckets


def _oracle_A_coeffs(G: GramMat, p: int, deg: int):
    """A_0..A_J (J = deg + 1 when affordable) of b_p(T, s) by enumeration."""
    n = G.n
    E = n * (n + 1) // 2
    if p ** (deg * E) > _ORACLE_CAP:
        raise BudgetExceeded(p ** (deg * E), _ORACLE_CAP)
    J = deg + 1 if p ** ((deg + 1) * E) <= _ORACLE_CAP else deg
    acc = [Fraction(0)] * (J + 1)
    acc[0] = Fraction(1)
    T = [[Fraction(x, 2) for x in row] for row in G.rows()]
    for j in range(1, J + 1):
        q = p ** j
        buckets = _snf_buckets(n, p, j)
        total = q ** E
        # counts[bucket][residue of tr(TS) mod q]
        counts = np.zeros((J + 1, q), dtype=np.int64)
        for lo in range(0, total, _CHUNK):
            hi = min(total, lo + _CHUNK)
            # tr(TS) has the integer weights G_aa/2 and G_ab (a < b)
            tr = _sym_trace(T, _sym_entries(lo, hi, q, n), q)
            bk = buckets[lo:hi].astype(np.int64)
            sel = (bk >= 0) & (bk <= J)
            counts += np.bincount(bk[sel] * q + tr[sel],
                                  minlength=(J + 1) * q).reshape(J + 1, q)
        for bucket in range(1, J + 1):
            # sum_k counts[k] zeta_q^k, which must be rational
            acc[bucket] += _root_sum(
                q, enumerate(counts[bucket].tolist())).rational_value()
    return acc


# -- stratified route (independent of the full enumeration)

def _modp_vectors(G, p):
    """The nonzero v of F_p^n (entries 0..p-1), the rows v G, the exact
    T[v] = v G v^t / 2, A_1 = sum over the lines of p [p | T[v]] - 1, and
    G as an int64 array."""
    n = G.n
    G = np.asarray(G.rows(), dtype=np.int64)
    V = _vectors(1, p ** n, p, n)
    GV = V @ G
    Q = (GV * V).sum(axis=1) // 2
    A1 = (p * int((Q % p == 0).sum()) - (p ** n - 1)) // (p - 1)
    return V, GV, Q, A1, G


def _stratified_A(G, p) -> list:
    """A_0, A_1, A_2 of b_p(T, s); A_2 = (rank-1 cosets mod p^2) + (rank 2).

    The rank-1 cosets a v v^t / p^2 (a a unit, v primitive and normalized
    mod p^2) contribute Ramanujan sums c_{p^2}(T[v]).  Over the p^{n-1} lifts
    v = w + p x of a normalized w mod p, T[v] = T[w] + p (w G x) mod p^2, so
    they cancel unless G w = 0 mod p; then every lift, and every multiple of
    w, has the same T[v] mod p^2."""
    n = G.n
    vecs = _modp_vectors(G, p)
    _, GV, Q, A1, _ = vecs
    rad = Q[(Q % p == 0) & (GV % p == 0).all(axis=1)]
    rank1 = p ** (n - 1) * int(np.where(rad % (p * p), -p, p * p - p).sum())
    return [1, A1, rank1 // (p - 1) + _rank2_modp_sum(vecs, p)]


def _rank2_modp_sum(vecs, p) -> int:
    """Sum of e(tr(T S)/p) over the rank-2 symmetric S mod p, for every prime p,
    from the vectors ``vecs = _modp_vectors(G, p)`` of the form.

    Each such S is B^t C B for a unique plane W = row space of B and a unique
    invertible symmetric 2x2 C, with tr(T B^t C B) = tr(T_W C).  Over all C the
    sum is p^3 if T_W = 0 mod p and 0 otherwise; C = 0 and the rank-1 C
    contribute 1 + sum over the lines of W of p [p | T[v]] - 1.  Every line
    lies in [n-1, 1]_p planes, so the rank-2 sum is
    p^3 I_2 - [n, 2]_p - [n-1, 1]_p A_1, where I_2 counts the planes with
    T_W = 0 mod p: their ordered bases are the independent pairs (v, w) in
    Z = {v : p | T[v]} with v G w = 0 mod p, and the dependent such pairs are
    the |Z| (p - 1) pairs w = a v.  The pairs are the representations of the
    2x2 zero matrix by T, counted by ``charsums._rep_rows`` on Z, which the
    norms T[v] of ``vecs`` give."""
    V, _, Q, A1, G = vecs
    n = V.shape[1]
    Z = np.flatnonzero(Q % p == 0)
    pairs = _rep_rows(V, G % p, np.zeros((2, 2), dtype=np.int64), p, [Z, Z])
    singular = (pairs - len(Z) * (p - 1)) // ((p * p - 1) * (p * p - p))
    planes = (p ** n - 1) * (p ** (n - 1) - 1) // ((p * p - 1) * (p - 1))
    return p ** 3 * singular - planes - (p ** (n - 1) - 1) // (p - 1) * A1


# ---------------------------------------------------------------------------
# GL_n(Z_p)-classes and the genus series P^(0)

def enumerate_zp_classes(n: int, p: int, d0, max_val: int):
    """Jordan symbols of the classes in L^(0)_{n,p}(d0) with nu_p(det) <= max_val.

    d0 in F_p = {nu_p(d0) <= 1}; the even-type set is 2 * S_n(Z_p) for p odd, so
    symbols enumerate T' with B = 2T'.
    """
    require_prime(p, odd=True)
    if n < 2 or n % 2:
        raise ValueError(f"n must be an even integer >= 2, not {n}")
    d0 = Fraction(d0)
    v0 = _pval(d0, p)
    if v0 is None or v0 > 1:
        raise ValueError("d0 must have valuation <= 1")
    u0 = d0 / Fraction(p) ** v0
    cls0 = _unit_class(u0, p)
    sign_unit = legendre((-1) ** (n // 2), p)
    return [sym for sym in _all_symbols(n, p, max_val)
            if sym.valuation() % 2 == v0 % 2
            and sign_unit * prod(b.detclass for b in sym.blocks) == cls0]


def _all_symbols(n, p, max_val):
    """All Jordan symbols with total dim n and valuation <= max_val."""
    results = []

    def rec(remaining, next_scale, blocks, val):
        if remaining == 0:
            results.append(JordanSymbol(p, tuple(blocks)))
            return
        for scale in range(next_scale, max_val + 1):
            if val + scale > max_val:
                break
            for dim in range(1, remaining + 1):
                v = val + scale * dim
                if v > max_val:
                    break
                for detclass in (1, -1):
                    rec(remaining - dim, scale + 1,
                        blocks + [JordanBlock(scale, dim, detclass)], v)

    # scales strictly increase along the recursion, so no symbol repeats
    rec(n, 0, [], 0)
    return results


def p_series(n: int, p: int, d0, omega: str, prec: int,
             mode="brute") -> TruncSeries:
    """P^(0)_{n,p}(d0, omega, X, t) to t-precision prec, summed class by
    class; coefficients are Laurent polynomials in X over Q(sqrt p).

    omega: 'iota' or 'eps'.  kappa(d0,n,l)_p = 1 for p odd.
    """
    require_prime(p, odd=True)
    if mode != "brute":
        raise ValueError(f"unknown mode {mode!r}")
    if omega not in ("iota", "eps"):
        raise ValueError("omega must be 'iota' or 'eps'")
    coeffs: dict = {}
    for nu, sp, iota, eps in _genus_class_terms(n, p, d0, prec - 1):
        w = iota if omega == "iota" else eps
        term = sp.ftilde_laurent() * Laurent.const(QSqrt(w, 0, p))
        coeffs[nu] = coeffs.get(nu, Laurent({})) + term
    return TruncSeries(prec, coeffs)


def _genus_class_terms(n: int, p: int, d0, max_val: int):
    """(nu_p(det), F_p, 1/alpha_p, eps_p/alpha_p) for each class of
    ``enumerate_zp_classes(n, p, d0, max_val)``: the per-class terms of the
    genus series (``p_series``) and of the Theorem 4.2 reassembly.  Each
    class is taken at its diagonal representative 2 diag, whose Hasse
    invariant eps_p needs no diagonalization."""
    for sym in enumerate_zp_classes(n, p, d0, max_val):
        diag = [2 * d for d in symbol_diagonal(sym, p)]
        sp = siegel_series(GramMat(_diag_mat(diag)), p, mode="stratified")
        inv = 1 / density_from_symbol(sym, p)
        yield sym.valuation(), sp, inv, _hasse_diagonal(diag, p) * inv


def _diag_mat(diag):
    n = len(diag)
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def p_series_closed(n: int, p: int, d0, omega: str, prec: int) -> TruncSeries:
    """Proposition 4.3 closed rational functions, expanded in t."""
    require_prime(p)
    if n < 2 or n % 2:      # as enumerate_zp_classes, behind p_series
        raise ValueError(f"n must be an even integer >= 2, not {n}")
    d0 = Fraction(d0)
    v0 = _pval(d0, p)
    xi0 = xi_tilde(p, d0)
    one = Laurent.const(QSqrt(1, 0, p))
    phi = Fraction(1)
    for i in range(1, n // 2):
        phi *= 1 - Fraction(1, p ** (2 * i))
    pref_sc = 1 / (phi * (1 - Fraction(xi0, p ** (n // 2))))
    if omega == "eps":
        if xi0 == 0:
            return TruncSeries(prec, {})
        num = TruncSeries(prec, {0: Laurent.const(QSqrt(pref_sc, 0, p))})
        out = num
        for i in range(1, n // 2 + 1):
            c = Fraction(1, p ** (2 * i))
            out = out * geometric_inverse(Laurent({1: QSqrt(c, 0, p)}), 2, prec, one)
            out = out * geometric_inverse(Laurent({-1: QSqrt(c, 0, p)}), 2, prec, one)
        return out
    # iota branch
    t_pref_exp = v0                      # (p^-1 t)^{nu(d0)}
    sc = pref_sc * Fraction(1, p ** v0)
    xl = QSqrt(0, Fraction(1), p)        # sqrt p
    # numerator (1 + t^2 p^{-n/2-3/2})(1 + t^2 p^{-n/2-5/2} xi0^2)
    #   - xi0 t^2 p^{-n/2-2} (X + 1/X + p^{1/2-n/2} + p^{-1/2+n/2})
    t2a = Laurent.const(p_half_power(p, -n - 3))
    t2b = Laurent.const(p_half_power(p, -n - 5) * Fraction(xi0 * xi0))
    cross = Laurent({1: QSqrt(1, 0, p), -1: QSqrt(1, 0, p),
                     0: p_half_power(p, 1 - n) + p_half_power(p, n - 1)})
    t2c = cross * Laurent.const(QSqrt(Fraction(xi0, p ** (n // 2 + 2)), 0, p))
    num = TruncSeries(prec, {0: one, 2: t2a}) * TruncSeries(prec, {0: one, 2: t2b})
    num = num - TruncSeries(prec, {2: t2c})
    num = TruncSeries(prec, {t_pref_exp: Laurent.const(QSqrt(sc, 0, p))}) * num
    out = num
    out = out * geometric_inverse(Laurent({1: QSqrt(Fraction(1, p * p), 0, p)}), 2, prec, one)
    out = out * geometric_inverse(Laurent({-1: QSqrt(Fraction(1, p * p), 0, p)}), 2, prec, one)
    for i in range(1, n // 2 + 1):
        c = Fraction(1, p ** (2 * i + 1))
        out = out * geometric_inverse(Laurent({1: QSqrt(c, 0, p)}), 2, prec, one)
        out = out * geometric_inverse(Laurent({-1: QSqrt(c, 0, p)}), 2, prec, one)
    return out


# ---------------------------------------------------------------------------
# mass formula

def _kappa_zeta_L(n: int, d: int, bad) -> Fraction:
    """Rational part of kappa_n prod_{i<n/2} zeta(2i) L(n/2, chi_d) with the
    Euler factors at the primes in bad removed; its powers of pi cancel.

    kappa_n = Gamma_C(n/2) prod_{i<n/2} Gamma_C(2i), Gamma_C(s) = 2^(1-s)
    pi^-s (s-1)!, and L(n/2, chi_d) comes from L(1 - n/2, chi_d) through the
    functional equation, up to the power |d|^(1/2 - n/2) the callers keep."""
    k = n // 2
    rat = Fraction(2 * factorial(k - 1), 2 ** k)
    for i in range(1, k):
        rat *= Fraction(2 * factorial(2 * i - 1), 2 ** (2 * i)) * zeta_even_rational(i)
        for q in bad:
            rat *= 1 - Fraction(1, q ** (2 * i))
    if d > 0:
        if k % 2 != 0:
            raise ValueError("d > 0 needs n = 0 mod 4")
        fe = Fraction((-4) ** (k // 2)) * factorial(k // 2) \
            / (factorial(k) * factorial(k // 2 - 1))
    else:
        if k % 2 != 1:
            raise ValueError("d < 0 needs n = 2 mod 4")
        fe = Fraction((-4) ** ((k - 1) // 2), factorial(k - 1))
    rat *= fe * -gen_bernoulli_kronecker(d, k) / k
    for q in bad:
        rat *= 1 - Fraction(kronecker(d, q), q ** k)
    return rat


def mass_formula(G: GramMat) -> Fraction:
    """kappa_n 2^{-n/2} det(A)^{(n+1)/2} prod_p alpha_p(A)^{-1}, assembled
    exactly via functional equations; the overall 2-power is reported by the
    genus audit, not assumed here."""
    n = G.n
    if n % 2:
        raise ValueError("even rank only")
    detG = G.det()
    d, f = fundamental_split((-1) ** (n // 2) * detG)
    bad = sorted({q for q, _ in factorize(2 * detG)})
    rat = _kappa_zeta_L(n, d, bad) / 2 ** (n // 2)
    # |d|^(1/2 - n/2) det^((n+1)/2) with det = |d| f^2 (up to sign)
    rat *= Fraction(abs(d)) * Fraction(f) ** (n + 1)
    for q in bad:
        rat /= local_density(G, q, mode="closed")
    return rat
