"""Finite-field / finite-ring matrix character sums: representation counts,
the trace sums h(A,chi), the determinant-trace sums I_m and J_m, and the
closed formulas with their brute-force oracles.

Where the oracle contradicts a printed display, the function takes
``variant="corrected"`` (the default, oracle-validated) or ``"printed"``, and
the suite runners record which one matched.  Heavy enumerations accumulate
integer counts per residue (or per (det, trace) pair) and apply character
values only to the count tables, so the inner loops are branch-free numpy
sweeps.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .exactalg import CycloNum, _congruence_blocks, _wedge, mat_det
from .characters import (DirichletChar, _as_unit_int, _is_prime, _root_sum,
                         char_group, factorize,
                         find_primitive_root_of_unity_mod, jacobi_sum,
                         legendre, local_component, require_prime)

DEFAULT_BUDGET = 2 * 10 ** 9
_CHUNK = 1 << 20
_budget = DEFAULT_BUDGET    # the run budget; set only through budget_limit


class BudgetExceeded(RuntimeError):
    def __init__(self, cost, budget):
        super().__init__(f"enumeration cost {cost} exceeds budget {budget}")
        self.cost, self.budget = cost, budget


@contextmanager
def budget_limit(limit):
    """Run the block with every exhaustive enumeration refusing a cost over
    ``limit``; the previous limit comes back when the block exits or raises."""
    global _budget
    prev, _budget = _budget, limit
    try:
        yield
    finally:
        _budget = prev


def _check_budget(cost):
    if cost > _budget:
        raise BudgetExceeded(cost, _budget)


def _is_printed(variant) -> bool:
    """True for variant "printed", False for "corrected"; any other value is
    refused, so a misspelt variant never selects a formula silently."""
    if variant == "printed":
        return True
    if variant != "corrected":
        raise ValueError(f"variant must be 'corrected' or 'printed': {variant!r}")
    return False


# ---------------------------------------------------------------------------
# numpy enumeration kernels

def _rows(width):
    """Rows per step of a kernel whose arrays live at once, numpy's
    temporaries among them, hold ``width`` entries per row in total: every
    step of a count kernel holds at most _CHUNK entries."""
    return max(1, _CHUNK // max(1, width))


def _exact_float(a, b):
    """The float type in which a BLAS product a @ b of integer arrays is
    exact: float32 while max|a| max|b| times the inner dimension stays below
    2^24, float64 while it stays below 2^53 (asserted), since that bounds
    every partial sum."""
    bound = _abs_max(a) * _abs_max(b) * a.shape[-1]
    assert bound < 2 ** 53, bound
    return np.float32 if bound < 2 ** 24 else np.float64


def _abs_max(a):
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _exact_product(a, b):
    """a @ b for integer arrays, as floats of ``_exact_float(a, b)``."""
    ft = _exact_float(a, b)
    return a.astype(ft, copy=False) @ b.astype(ft, copy=False)


def _digit_arrays(lo, hi, N, E):
    return _digits(np.arange(lo, hi, dtype=np.int64), N, E)


def _digits(idx, N, E):
    """The E base-N digits of each entry of the index array idx, least
    significant first, one array per digit."""
    out = []
    for _ in range(E):
        out.append(idx % N)
        idx = idx // N
    return out


def _upper(m):
    """The upper-triangle positions (i <= j), row-major: the digit order of
    the base-N index that encodes a symmetric m x m matrix mod N."""
    return [(i, j) for i in range(m) for j in range(i, m)]


def _sym_entries(lo, hi, N, m):
    """Nested entry arrays M[i][j] = M[j][i] of the symmetric m x m matrices
    mod N whose base-N index lies in [lo, hi)."""
    M = [[None] * m for _ in range(m)]
    for (i, j), d in zip(_upper(m), _digit_arrays(lo, hi, N, m * (m + 1) // 2)):
        M[i][j] = M[j][i] = d
    return M


def _sym_trace(A, M, N):
    """tr(A S) mod N for the batch of symmetric S with entries M (the leading
    len(M) x len(M) block of A is used): the sum over i <= j of w_ij S_ij,
    with w_ii = A_ii and w_ij = A_ij + A_ji, which must be integers."""
    tr = np.zeros(len(M[0][0]) if M else 1, dtype=np.int64)  # S_0 is one matrix
    for i, j in _upper(len(M)):
        w = int(A[i][j] + A[j][i] if i < j else A[i][i]) % N
        if w:
            tr += w * M[i][j]
    return tr % N


def _sym_adj_batch(M, N, size):
    """Adjugate entries Adj[a, b] (a <= b, in ``_upper`` order) mod N of a
    batch of symmetric matrices given as nested entry lists, one column per
    entry: Adj[a, b] = (-1)^(a+b) w_b[k-1-a], with w_b the wedge of the
    rows other than b."""
    k = len(M)
    w = [_wedge(M[:b] + M[b + 1:], N) for b in range(k)]
    cols = [np.broadcast_to((-1) ** (a + b) * w[b][k - 1 - a] % N, (size,))
            for a, b in _upper(k)]
    return np.stack(cols, axis=1) if cols else np.zeros((size, 0), np.int64)


def _adj_quads(W, N):
    """The monomials w_a w_b mod N, doubled for a < b, over the upper positions
    (a, b), for the vectors w with digit arrays W: w^t Adj w is the rows of
    ``_sym_adj_batch`` times this array."""
    return np.array([W[a] * W[b] * (1 if a == b else 2) % N
                     for a, b in _upper(len(W))],
                    dtype=np.int64).reshape(-1, len(W[0]) if W else 1)


def _sym_tables(forms, N):
    """For each m x m form B in ``forms``: table[d, t] = #{Z in S_m(Z/N) :
    det Z = d, tr(BZ) = t}.

    Every Z is bordered as [[Z1, w], [w^t, z]], so that
    det Z = z det Z1 - w^t Adj(Z1) w and
    tr(BZ) = tr(B1 Z1) + sum_a (B[a,k] + B[k,a]) w_a + B[k,k] z.
    Each chunk of Z1 is taken with every w at once and tallied by the key
    (T N + det Z1) N + Q, Q = w^t Adj(Z1) w mod N and T the trace without z,
    unreduced (T < 2N - 1); z then runs over every residue (``_border_z``),
    reducing T once per key, so each cell of S_m(Z/N) is counted once, for
    composite N too.  The tallies go into (2N - 1) N^2 bins while that
    table is small; past that, each chunk goes to the z step alone.

    A chunk holds two (N^(m-1) x chunk) arrays, Q and one key buffer that
    every form refills (before that, Q and the quarter of _CHUNK that
    ``_table_at_product`` builds it in), and the chunk's Z1 entries and
    adjugates; in the per-chunk branch it leaves half of _CHUNK to the z
    step."""
    forms = [np.asarray(B, dtype=np.int64) % N for B in forms]
    m = forms[0].shape[0]
    _check_budget(N ** (m * (m + 1) // 2))
    if m == 0:  # S_0 is the empty matrix alone, of det 1 and trace 0
        return [np.bincount([1 % N * N], minlength=N * N).reshape(N, N)
                for _ in forms]
    k = m - 1
    nw, NN, bins = N ** k, N * N, (2 * N - 1) * N * N
    W = _digit_arrays(0, nw, N, k)
    quads = _adj_quads(W, N)
    tw = [np.reshape(sum(int(B[a, k] + B[k, a]) * W[a] for a in range(k))
                     % N * NN, (-1, 1)) for B in forms]
    dense = bins <= _CHUNK
    tally = [np.zeros(bins, dtype=np.int64) for _ in forms] if dense else None
    tables = [np.zeros(NN, dtype=np.int64) for _ in forms]
    E1 = k * (k + 1) // 2
    # Q before reduction lies in [0, E1 (N-1)^2]; reduced, it takes the
    # smallest integer type that holds N - 1
    mod_n = (np.arange(E1 * (N - 1) ** 2 + 1) % N).astype(
        np.min_scalar_type(N - 1))
    total = N ** E1
    step = _rows((1 if dense else 2) * (2 * nw + 3 * E1 + 4))
    for lo in range(0, total, step):
        hi = min(total, lo + step)
        M = _sym_entries(lo, hi, N, k)
        d1 = _wedge(M, N)[0] % N * N
        # Q[w, Z1] = w^t Adj(Z1) w mod N, one column per Z1 of the chunk
        Q = _table_at_product(mod_n, quads.T,
                              _sym_adj_batch(M, N, hi - lo).T)
        key = np.empty(Q.shape, dtype=np.int64)
        for f, B in enumerate(forms):
            np.add(Q, _sym_trace(B, M, N) * NN + d1, out=key)
            key += tw[f]
            if dense:
                tally[f] += np.bincount(key.ravel(), minlength=bins)
            else:
                _border_z(tables[f], key.ravel(), np.broadcast_to(1, key.size),
                          int(B[k, k]), N)
        del Q, key                  # freed before the next chunk's product
    for f, B in enumerate(forms):
        if dense:
            key = np.flatnonzero(tally[f])
            _border_z(tables[f], key, tally[f][key], int(B[k, k]), N)
    return [t.reshape(N, N) for t in tables]


def _border_z(table, key, counts, bkk, N):
    """Add counts[i] to the flat (det, trace) table at (z d1 - Q, T + bkk z)
    mod N for every z mod N, where key[i] = (T N + d1) N + Q, T unreduced.
    The keys are decoded a slice at a time; a slice, its cells and their
    temporaries hold at most half of _CHUNK entries."""
    zs = np.arange(N, dtype=np.int64)[:, None]
    step = _rows(2 * (3 * N + 3))
    for lo in range(0, len(key), step):
        s = key[lo:lo + step]
        T, d1, Q = s // (N * N), s // N % N, s % N
        cell = (zs * d1 - Q) % N * N + (T + bkk * zs) % N
        np.add.at(table, cell, np.broadcast_to(counts[lo:lo + step],
                                               cell.shape))


def sym_dettarget_trace_counts(A, N, det_target=1, forms=None):
    """counts[t] over {Z in S_m(Z/N): det Z = det_target, tr(A Z) = t}, the
    det_target row of ``_sym_tables``.  Given ``forms``, one such array per
    form B in ``forms`` (A is then not read), always as a list."""
    out = [t[det_target % N] for t in
           _sym_tables([A] if forms is None else forms, N)]
    return out if forms is not None else out[0]


@lru_cache(maxsize=None)
def _sym_dt_table(m, N):
    """counts[d, t] = #{Z in S_m(Z/N) : det Z = d, tr Z = t}, one sweep per
    (m, N)."""
    return _sym_tables([np.eye(m, dtype=np.int64)], N)[0]


@lru_cache(maxsize=None)
def sl_gram_counts(m: int, p: int):
    """table[idx(P)] = #{X in SL_m(F_p) : X X^t = P}, P symmetric encoded as a
    base-p integer over its upper-triangle entries.  One sweep per (m, p);
    every trace sum over SL reduces to a weighting of this table because
    tr(A[X]) = tr(A * X X^t).

    The sweep borders the last row x of X = [R; x]: det X = c . x, with c the
    cofactor vector of the first rows R = (r_1, ..., r_{m-1}).  A first pass
    gives every R its cofactor index and the key of its Gram block
    (r_a . r_b), and sorts the R by cofactor.  For each block of nonzero c,
    one sweep of c . x over every x gives the hyperplanes {x : c . x = 1},
    and each R meets only the p^(m-1) rows x of its own hyperplane: exactly
    its det-1 cells (c = 0 has none).  The entries r_a . x of a cell lie in
    [0, m (p-1)^2], so with B = m (p-1)^2 + 1 they travel as one integer
    dot x . sum_a B^a r_a, which a table of size B^(m-1) splits into its
    base-B digits and reduces into the Gram key."""
    _check_budget(p ** (m * m))
    k = m - 1
    E = m * (m + 1) // 2
    weight = np.zeros((m, m), dtype=np.int64)
    weight[tuple(zip(*_upper(m)))] = p ** np.arange(E)
    nx, h = p ** m, p ** k
    last = _digit_arrays(0, nx, p, m)
    last_key = sum(x * x for x in last) % p * weight[k, k]
    B = m * (p - 1) ** 2 + 1
    split = sum((d % p * weight[a, k] for a, d in
                 enumerate(_digit_arrays(0, B ** k, B, k))),
                np.zeros(B ** k, dtype=np.int64))
    total = p ** (k * m)
    cof = np.empty(total, dtype=np.int64)
    gram = np.empty(total, dtype=np.int64)
    # a chunk of first rows: k m digit arrays, the wedge built from them
    # (at most 2^m arrays at once) and the Gram sum
    step = _rows(k * m + 2 ** m + 4)
    for lo in range(0, total, step):
        hi = min(total, lo + step)
        digs = _digit_arrays(lo, hi, p, k * m)
        rows = [digs[a * m:(a + 1) * m] for a in range(k)]
        # wedge entry i is (-1)^i times the cofactor of coordinate k - i
        cof[lo:hi] = sum((-1) ** i * x % p * p ** (k - i)
                         for i, x in enumerate(_wedge(rows, p)))
        gram[lo:hi] = sum(sum(x * y for x, y in zip(rows[a], rows[b])) % p
                          * weight[a, b] for a, b in _upper(k))
    order = np.argsort(cof, kind="stable")
    bounds = np.searchsorted(cof[order], np.arange(nx + 1))
    table = np.zeros(p ** E, dtype=np.int64)
    # half of _CHUNK for a block of c: the sums c . x over every x, their
    # residues and the mask, then the block's hyperplanes (m + 2 arrays of
    # p^(m-1) per c); the other half for a step of rows R: three
    # (rows x p^(m-1)) arrays at once (a gathered row, its product and the
    # dots, then the dots, the keys and a gathered key) beside R's digits
    cstep = _rows(2 * (3 * nx + (m + 2) * h))
    rstep = _rows(2 * (3 * h + 2 * k * m + m + 5))
    for c0 in range(1, nx, cstep):
        c1 = min(nx, c0 + cstep)
        C = _digit_arrays(c0, c1, p, m)
        dot = C[0][:, None] * last[0]
        for c, x in zip(C[1:], last[1:]):
            dot += c[:, None] * x
        hyper = np.nonzero(dot % p == 1)[1].reshape(c1 - c0, h)
        del dot
        hx = [x[hyper] for x in last]
        hkey = last_key[hyper]
        for lo in range(bounds[c0], bounds[c1], rstep):
            sel = order[lo:min(bounds[c1], lo + rstep)]
            at = cof[sel] - c0
            R = np.array(_digits(sel, p, k * m), dtype=np.int64)
            v = _exact_product(B ** np.arange(k), R.reshape(k, m * len(sel)))
            v = v.astype(np.int64).reshape(m, len(sel))
            dots = hx[0][at] * v[0, :, None]
            for j in range(1, m):
                dots += hx[j][at] * v[j, :, None]
            idx = split[dots]
            del dots
            idx += hkey[at]
            idx += gram[sel, None]
            table += np.bincount(idx.ravel(), minlength=p ** E)
            del idx
        del hyper, hx, hkey
    return table


def sl_trace_counts(A, p: int):
    """counts[t] = #{X in SL_m(F_p) : tr(A[X]) = t}."""
    A = np.asarray(A, dtype=np.int64) % p
    m = A.shape[0]
    table = sl_gram_counts(m, p)
    tr = _sym_trace(A, _sym_entries(0, p ** (m * (m + 1) // 2), p, m), p)
    counts = np.zeros(p, dtype=np.int64)
    np.add.at(counts, tr, table)
    return counts


def sl_group_order(m: int, N: int) -> int:
    order = 1
    for p, e in factorize(N):
        op = p ** ((m * m - 1) * (e - 1)) if e > 1 else 1
        q = p
        f = q ** (m * (m - 1) // 2)
        for i in range(2, m + 1):
            f *= q ** i - 1
        order *= f * op
    return order


# ---------------------------------------------------------------------------
# Lemma 5.1: counts of Y with Y S tY = T over F_p

def _chi_even(detval: int, size: int, p: int) -> int:
    """(( -1)^{size/2} det / p) for even-size nondegenerate forms."""
    assert size % 2 == 0
    return legendre((-1) ** (size // 2) * detval, p)


def count_A_brute(S, T, p) -> int:
    """#{Y in M_{r,m}(F_p) : Y_i S Y_j^t = T[i, j] for i <= j} by exhaustion:
    ``_norm_counts`` for r = 1, else ``_rep_count``, one row at a time."""
    S = np.asarray(S, dtype=np.int64) % p
    T = np.asarray(T, dtype=np.int64) % p
    m, r = S.shape[0], T.shape[0]
    _check_budget(p ** (r * m))
    if r == 0:
        return 1
    if r == 1:
        return int(_norm_counts(S, p)[T[0, 0]])
    return _rep_count(_vectors(0, p ** m, p, m), S, T, p, p)


def _vectors(lo, hi, p, m):
    """The vectors of (Z/p)^m with base-p index in [lo, hi), one per row."""
    return np.array(_digit_arrays(lo, hi, p, m),
                    dtype=np.int64).reshape(m, hi - lo).T


def _norms(X, S, p):
    """x S x^t mod p for every row x of X, summed exactly in int64 before
    the one reduction (the entries of X and S are residues)."""
    return np.einsum("ij,jk,ik->i", X, S, X) % p


def _norm_counts(S, p):
    """counts[t] = #{x in (Z/p)^m : x S x^t = t} for S reduced mod p, over
    chunks of vectors; a chunk holds the digits and the vectors, 2 m + 2
    entries a vector."""
    m = S.shape[0]
    total, step = p ** m, _rows(2 * m + 2)
    return sum((np.bincount(_norms(_vectors(lo, min(total, lo + step), p, m),
                                   S, p), minlength=p)
                for lo in range(0, total, step)), np.zeros(p, dtype=np.int64))


def _rep_count(X, S, T, q, dq):
    """The number of r-tuples (x_0, ..., x_{r-1}) of rows of X with
    x_i S x_i^t = T[i, i] mod dq and x_i S x_j^t = T[i, j] mod q for i < j.

    This is the representation count behind Lemma 5.1 (``count_A_brute``)
    and the brute local densities (``plocal._aut_cong_count``, where the
    dyadic diagonal is read mod 2q).  The rows above the last three are fixed
    one at a time; each later row keeps the index array of the candidates
    still allowed, and a branch stops once one of them is empty.  The last
    three rows are counted with pair tables (``_rep_triples``), the last two
    with one chunked pairing count; S and T are int64 arrays."""
    norms = _norms(X, S % dq, dq)
    cands = [np.flatnonzero(norms == T[i, i] % dq) for i in range(T.shape[0])]
    return _rep_rows(X, S % q, T % q, q, cands)


def _rep_rows(X, S, T, q, cands):
    """Completions of the last len(cands) rows; cands[k] indexes the rows of
    X still allowed for row r - len(cands) + k.  With more than three rows
    left, or three whose residue table would pass _CHUNK entries or whose
    table P could not build one row in a quarter of _CHUNK, the first of
    them is fixed candidate by candidate; so it is with three rows where
    that is cheaper.  Per row of c0, the pair tables of ``_rep_triples`` cost
    about 1/16 ns per entry of c1 x c2, and the candidate loop about 100 us
    plus 16 ns per entry of c1 and of c2 (a 2-vCPU x86 host, one BLAS
    thread), so the tables take three rows while
    len(c1) len(c2) <= 1.6e6 + 256 (len(c1) + len(c2)): the ternary lists
    mod 27 of the brute densities, but not those mod 49."""
    i = T.shape[0] - len(cands)
    if len(cands) == 1:
        return len(cands[0])
    if len(cands) == 2:
        left = X[cands[0]] @ S % q
        right = X[cands[1]].T
        count = 0
        step = _rows(3 * right.shape[1])    # the products, residues and mask
        for lo in range(0, left.shape[0], step):
            count += int((left[lo:lo + step] @ right % q == T[i, i + 1]).sum())
        return count
    n1, n2 = (len(c) for c in cands[-2:])
    if (len(cands) == 3 and X.shape[1] * (q - 1) ** 2 < _CHUNK
            and 8 * n1 <= _CHUNK and n1 * n2 <= 1_600_000 + 256 * (n1 + n2)):
        return _rep_triples(X, S, T, q, i, *cands)
    count = 0
    for x in X[cands[0]]:
        xs = x @ S % q
        rest = []
        for j, c in enumerate(cands[1:], start=i + 1):
            c = c[X[c] @ xs % q == T[i, j]]
            if not len(c):
                break
            rest.append(c)
        else:
            count += _rep_rows(X, S, T, q, rest)
    return count


def _rep_triples(X, S, T, q, i, c0, c1, c2):
    """The triples (x0, x1, x2) of rows of X[c0], X[c1], X[c2] with
    x_a S x_b^t = T[i + a, i + b] mod q for a < b.

    With the 0/1 tables P[x0, x1], m12[x1, x2] and m02[x0, x2] of the three
    congruences, the count is the sum of (P @ m12) * m02, an exact product
    (``_exact_float``), so every triple is still decided by its three
    congruences.  A product (x S mod q) . x' of rows reduced mod q lies in
    [0, m (q-1)^2] and is read off a residue table of that length
    (``_table_at_product``, which holds a quarter of _CHUNK while it
    builds a table).  c0 is taken in blocks whose P holds at most half of
    _CHUNK; c2 in blocks that fit m12, m02 and P @ m12 into the quarter
    left."""
    res = np.arange(X.shape[1] * (q - 1) ** 2 + 1) % q
    # P and m12 in float32, which _exact_product takes as they are while
    # len(c1) < 2^24
    ok01 = (res == T[i, i + 1]).astype(np.float32)
    ok12 = (res == T[i + 1, i + 2]).astype(np.float32)
    ok02 = res == T[i, i + 2]
    Y1, X1 = X[c1] @ S % q, X[c1].T % q
    n1 = len(c1)
    step0 = _rows(2 * n1)
    count = 0
    for lo0 in range(0, len(c0), step0):
        Y0 = X[c0[lo0:lo0 + step0]] @ S % q
        P = _table_at_product(ok01, Y0, X1)
        step = max(1, (_CHUNK * 3 // 4 - P.size) // (n1 + 2 * len(Y0)))
        for lo2 in range(0, len(c2), step):
            X2 = X[c2[lo2:lo2 + step]].T % q
            m12 = _table_at_product(ok12, Y1, X2)
            pairs = _exact_product(P, m12)
            pairs *= _table_at_product(ok02, Y0, X2)
            count += int(pairs.sum(dtype=np.float64))
            del m12, pairs
        del P
    return count


def _table_at_product(table, a, b):
    """table[a @ b] for integer arrays a and b whose product indexes table,
    a block of rows of a at a time: each block's exact product (see
    ``_exact_float``) and its int64 index copy hold at most a quarter of
    _CHUNK entries."""
    ft = _exact_float(a, b)
    b = b.astype(ft, copy=False)
    out = np.empty((a.shape[0], b.shape[1]), dtype=table.dtype)
    step = _rows(8 * b.shape[1])
    for lo in range(0, a.shape[0], step):
        out[lo:lo + step] = table[(a[lo:lo + step].astype(ft) @ b)
                                  .astype(np.int64)]
    return out


def count_A_closed(S, T, p) -> Fraction:
    """Lemma 5.1 (1), general product formulas; S, T nondegenerate."""
    m, r = len(S), len(T)
    detS = mat_det(S) % p
    detT = mat_det(T) % p
    if detS % p == 0 or detT % p == 0:
        raise ValueError("closed Lemma 5.1 needs nondegenerate S and T")
    val = Fraction(p) ** (r * m - r * (r + 1) // 2)
    for e in range(m - r + 1, m):
        if e % 2 == 0:
            val *= 1 - Fraction(1, p ** e)
    if m % 2 == 0:
        val *= 1 - _chi_even(detS, m, p) * Fraction(1, p ** (m // 2))
    if (m + r) % 2 == 0:
        val *= 1 + _chi_perp(detS, detT, m, r, p) * Fraction(1, p ** ((m - r) // 2))
    assert val.denominator == 1 and val >= 0, val
    return val


def _chi_perp(detS, detT, m, r, p):
    # chi((-S) perp T), size m + r (even here); det(-S) = (-1)^m det S
    size = m + r
    d = ((-1) ** m * detS * detT) % p
    return _chi_even(d, size, p)


def count_A_display(S, c, p):
    """The printed specialized #A(S, c) displays for c a unit scalar.

    For odd m the printed display carries the sign exponent (m+1)/2 where
    the general formula gives (m-1)/2: the corrected count is
    ``count_A_closed(S, [[c]], p)``.
    """
    m = len(S)
    detS = mat_det(S) % p
    if m % 2 == 0:
        return Fraction(p) ** (m // 2 - 1) * (p ** (m // 2) - _chi_even(detS, m, p))
    eps = legendre((-1) ** ((m + 1) // 2) * c * detS, p)
    return Fraction(p) ** ((m - 1) // 2) * (p ** ((m - 1) // 2) + eps)


# ---------------------------------------------------------------------------
# Proposition 5.2: gamma and the R = gamma * M proportionality

def gamma_const(m: int, p: int, variant="corrected") -> Fraction:
    """gamma_{m,p}; the even-m factor is 1 - ((-1)^(m/2)/p) p^(-m/2), printed
    as 1 - p^(-m/2)."""
    printed = _is_printed(variant)
    val = Fraction(p) ** (m * m - m * (m + 1) // 2)
    for e in range(1, (m - 1) // 2 + 1):
        val *= 1 - Fraction(1, p ** (2 * e))
    if m % 2 == 0:
        eps = 1 if printed else legendre((-1) ** (m // 2), p)
        val *= 1 - eps * Fraction(1, p ** (m // 2))
    return val


# ---------------------------------------------------------------------------
# Lemma 5.3: I_{eta,S,c} = sum_w eta(S[tw] + c)

def quad_char_sum_brute(eta: DirichletChar, S, c) -> CycloNum:
    p = eta.modulus
    S = np.asarray(S, dtype=np.int64) % p
    _check_budget(p ** S.shape[0])
    return _weight_counts(np.roll(_norm_counts(S, p), c), eta)


def _weight_counts(counts, chi: DirichletChar) -> CycloNum:
    """sum_r counts[r] chi(r) over the residues r mod N, at level chi.order."""
    return _root_sum(chi.order, ((k, int(counts[r])) for r, k in chi.logs.items()))


def _rank_and_det0(S, p):
    """Rank over F_p and det class of a maximal nondegenerate block: the unit
    pivots of the congruence reduction of S mod p over Z_p (p odd)."""
    S = [[int(x) % p for x in row] for row in np.asarray(S).tolist()]
    rank, det0 = 0, 1
    for [[d]] in _congruence_blocks(S, p):
        if d.numerator % p:
            rank += 1
            det0 = det0 * _as_unit_int(d, p) % p
    return rank, det0


def quad_char_sum_closed(eta: DirichletChar, S, c) -> CycloNum:
    """Lemma 5.3 closed branches (r odd needs eta^2 != 1; r even needs eta != 1)."""
    p = eta.modulus
    r, det0 = _rank_and_det0(S, p)
    l = np.asarray(S).shape[0]
    leg = legendre_char(p)
    if r % 2 == 1:
        if (eta ** 2).is_trivial():
            raise ValueError("r odd branch needs eta^2 nontrivial")
        if c % p == 0:
            return CycloNum.zero(eta.order)
        J = jacobi_sum(eta, leg)
        sgn = legendre((-1) ** ((r + 1) // 2) * det0, p)
        return J * eta(c) * Fraction(sgn * legendre(c, p) * p ** (l - (r + 1) // 2))
    if eta.is_trivial():
        raise ValueError("r even branch needs eta nontrivial")
    if c % p == 0:
        return CycloNum.zero(eta.order)
    sgn = 1 if r == 0 else legendre((-1) ** (r // 2) * det0, p)
    return eta(c) * Fraction(sgn * p ** (l - r // 2))


def legendre_char(p: int) -> DirichletChar:
    """The quadratic character mod an odd prime p as a DirichletChar."""
    require_prime(p, odd=True)
    return DirichletChar(p, [(p - 1) // 2])


# ---------------------------------------------------------------------------
# Proposition 5.4: bordered determinant sums

def bordered_det_sum_brute(eta: DirichletChar, Z1, z) -> CycloNum:
    p = eta.modulus
    Z1 = (np.asarray(Z1, dtype=np.int64) % p).tolist()
    total = p ** len(Z1)
    _check_budget(total)
    # det [[Z1, w],[w^t, z]] = det(Z1) z - w^t Adj(Z1) w
    quads = _adj_quads(_digit_arrays(0, total, p, len(Z1)), p)
    vals = (_wedge(Z1, p)[0] * z - _sym_adj_batch(Z1, p, 1) @ quads) % p
    counts = np.bincount(vals[0], minlength=p)
    return _weight_counts(counts, eta)


def bordered_det_sum_closed(eta: DirichletChar, Z1, z, variant="corrected") -> CycloNum:
    """Prop 5.4; for even l the printed sign exponent l/2 conflicts with the
    chain Lemma 5.1 -> 5.3, which gives the corrected (l-2)/2."""
    printed = _is_printed(variant)
    p = eta.modulus
    if (eta ** 2).is_trivial():
        raise ValueError("Prop 5.4 needs eta^2 nontrivial")
    l = len(Z1) + 1
    detZ1 = mat_det(Z1) % p
    leg = legendre_char(p)
    if detZ1 % p == 0:
        return CycloNum.zero(eta.order)
    if l % 2 == 0:
        expo = l // 2 if printed else (l - 2) // 2
        J = jacobi_sum(eta, leg)
        sgn = legendre((-1) ** expo * detZ1, p)
        return J * eta(detZ1 * z) * Fraction(sgn * legendre(z, p) * p ** ((l - 2) // 2))
    sgn = legendre((-1) ** ((l - 1) // 2) * detZ1, p)
    return eta(detZ1 * z) * Fraction(sgn * p ** ((l - 1) // 2))


# ---------------------------------------------------------------------------
# I_m and J_m: brute sums, closed forms (Prop 5.7), recursions (Prop 5.8)

def Im_brute(chi: DirichletChar, eta: DirichletChar, m: int) -> CycloNum:
    return _weight_dt(_sym_dt_table(m, chi.modulus), chi, eta, shift=False)


def Jm_brute(chi: DirichletChar, eta: DirichletChar, m: int) -> CycloNum:
    return _weight_dt(_sym_dt_table(m, chi.modulus), chi, eta, shift=True)


def _weight_dt(counts, chi, eta, shift):
    """sum_{d,t} counts[d, t] chi(d) eta(1 - t if shift else t)."""
    N = chi.modulus
    L = lcm(chi.order, eta.order)
    s, u = L // chi.order, L // eta.order
    # (t, exponent of eta) for the traces t at which eta's argument is a unit
    cols = [(t, eta.logs[w]) for t in range(N)
            if (w := (1 - t) % N if shift else t) in eta.logs]
    return _root_sum(L, ((s * k + u * j, int(counts[d, t]))
                         for d, k in chi.logs.items() for t, j in cols))


def Im_closed(chi: DirichletChar, eta: DirichletChar, m: int) -> CycloNum:
    """Prop 5.7 (chi primitive mod p, chi^2 != 1, eta primitive)."""
    p = chi.modulus
    require_prime(p, odd=True)
    if m == 0:
        return CycloNum.zero()
    if m == 1:
        # sum_z chi(z) eta(z)
        L = lcm(chi.order, eta.order)
        s, u = L // chi.order, L // eta.order
        return _root_sum(L, ((s * k + u * eta.logs[z], 1)
                             for z, k in chi.logs.items() if z in eta.logs))
    if chi.is_trivial() or (chi ** 2).is_trivial():
        raise ValueError("Prop 5.7 needs chi^2 nontrivial")
    if not (chi ** m * eta).is_trivial():
        return CycloNum.zero(lcm(chi.order, eta.order))
    leg = legendre_char(p)
    Jm1 = Jm_sum(chi * leg, eta, m - 1, mode="recursion")
    if m % 2 == 1:
        pref = Fraction(legendre(-1, p) ** ((m - 1) // 2) * p ** ((m - 1) // 2) * (p - 1))
        return Jm1 * pref
    pref = Fraction(legendre(-1, p) ** (m // 2) * p ** ((m - 2) // 2) * (p - 1))
    return Jm1 * jacobi_sum(chi, leg) * chi(-1) * pref


def _odd_squarefree_factors(N):
    """factorize(N), or ValueError unless N is odd and squarefree."""
    fac = factorize(N)
    if any(e > 1 for _, e in fac) or N % 2 == 0:
        raise ValueError("need odd squarefree modulus")
    return fac


def Jm_recursion(chi: DirichletChar, eta: DirichletChar, m: int,
                 variant="corrected") -> CycloNum:
    """Prop 5.8 single step, recursing to J_1 = Jacobi sum, J_0 = 1.

    variant "printed" uses the printed even-m prefactor (-1/p)^(m/2);
    "corrected" uses (-1/p)^((m-2)/2), as forced by the corrected Prop 5.4.
    """
    printed = _is_printed(variant)
    p = chi.modulus
    require_prime(p, odd=True)
    if m == 0:
        return CycloNum.one()
    if m == 1:
        return jacobi_sum(chi, eta)
    if chi.is_trivial() or (chi ** 2).is_trivial() or eta.is_trivial():
        raise ValueError("recursion hypotheses: chi^2 != 1 and eta primitive")
    leg = legendre_char(p)
    Jm1 = Jm_recursion(chi * leg, eta, m - 1, variant)
    Im1 = Im_closed(chi * leg, eta, m - 1)
    inner_eta = eta(-1) * Im1
    if m % 2 == 1:
        J1 = jacobi_sum(chi, chi ** (m - 1) * eta)
        pref = Fraction(legendre(-1, p) ** ((m - 1) // 2) * p ** ((m - 1) // 2))
        return (J1 * Jm1 + inner_eta) * pref
    J1 = jacobi_sum(chi * leg, (chi ** (m - 1)) * leg * eta)
    sgn_exp = m // 2 if printed else (m - 2) // 2
    pref = Fraction(legendre(-1, p) ** sgn_exp * p ** ((m - 2) // 2))
    return (J1 * Jm1 + inner_eta) * jacobi_sum(chi, leg) * pref


def Jm_sum(chi: DirichletChar, eta: DirichletChar, m: int,
           mode="auto") -> CycloNum:
    """J_m(chi, eta); mode in {brute, recursion, auto}.

    auto uses the recursion when its hypotheses hold and the modulus is an
    odd prime, else falls back to exhaustion.
    """
    N = chi.modulus
    if mode == "brute":
        return Jm_brute(chi, eta, m)
    if mode == "recursion":
        return Jm_recursion(chi, eta, m)
    if mode != "auto":
        raise ValueError(f"unknown Jm_sum mode {mode!r}")
    if (_is_prime(N, odd=True) and m >= 2
            and not (chi ** 2).is_trivial() and not eta.is_trivial()):
        return Jm_recursion(chi, eta, m)
    if m == 0:
        return CycloNum.one()
    if m == 1:
        return jacobi_sum(chi, eta)
    return Jm_brute(chi, eta, m)


def jacobi_symbol_char(N: int) -> DirichletChar:
    """(* / N) for odd squarefree N as a Dirichlet character mod N."""
    fac = _odd_squarefree_factors(N)
    chi = None
    for p, _ in fac:
        comp = legendre_char(p).extend(N)
        chi = comp if chi is None else chi * comp
    if chi is None:
        return char_group(1)[0]
    return chi


def _local_parts(chi: DirichletChar):
    """[(p, chi^(p))] over the primes p of the odd squarefree modulus."""
    fac = _odd_squarefree_factors(chi.modulus)
    return [(p, local_component(chi, p) if len(fac) > 1 else chi)
            for p, _ in fac]


def Jm_chi(chi: DirichletChar, m: int) -> CycloNum:
    """J_m(chi) = J_m(chi (*/N)^(m-1), chi), factored over primes of N."""
    out = CycloNum.one()
    for p, cp in _local_parts(chi):
        first = cp * (legendre_char(p) ** ((m - 1) % 2))
        out = out * Jm_sum(first, cp, m, mode="auto")
    return out


def root_weights(chi: DirichletChar, m: int, variant="corrected") -> list:
    """(lam, J(lam, (*/N)) J_{m-1}(conj(lam))) over the lam mod N with
    lam^m = chi: the eta-sum of Theorems 5.5/5.6, 5.11/6.1 and the section-7
    assembly, since these lam are chi~ D_{N,m} for any root chi~ (none when
    chi has no m-th root).  The Jacobi factor enters for even m only; the
    "printed" variant takes it on conj(lam), as the Theorem 5.5 and section-7
    displays print it.

    The h oracles (h_brute_sl, h_brute_sym) never call this, and the
    Theorem 5.11 check weights each class by conj(lam)(2^n) lam(D) where
    h_closed takes chi_det_halfintegral, so both chi(det A) conventions stay
    compared.
    """
    conj = _is_printed(variant)
    jac = jacobi_symbol_char(chi.modulus)
    out = []
    for lam in char_group(chi.modulus):
        if lam ** m != chi:
            continue
        w = Jm_chi(lam.conjugate(), m - 1)
        if m % 2 == 0:
            w = jacobi_sum(lam.conjugate() if conj else lam, jac) * w
        out.append((lam, w))
    return out


def thm59_display(chi: DirichletChar, i: int, m: int, variant="corrected") -> CycloNum:
    """The four Theorem 5.9 displays for J_m(chi (*/p)^i, chi).

    The printed (2.1) display lacks a factor p^((m-2)/2); the "corrected"
    variant restores it.
    """
    printed = _is_printed(variant)
    p = chi.modulus
    require_prime(p, odd=True)
    leg = legendre_char(p)
    lchar = chi * (leg ** (i % 2))
    l1 = chi * (leg ** ((i + 1) % 2))
    e1 = legendre(-1, p)
    if m % 2 == 1:
        if not (chi ** m).is_trivial():
            pref = Fraction(e1 ** ((m - 1) // 2) * p ** ((m - 1) // 2))
            return jacobi_sum(lchar, chi ** m) * Jm_sum(l1, chi, m - 1) * pref
        pref = Fraction(p ** (m - 1) * e1 ** ((i + 1) % 2))
        return jacobi_sum(l1, leg) * Jm_sum(lchar, chi, m - 2) * pref
    cond = chi ** m * (leg ** ((i + 1) % 2))
    if not cond.is_trivial():
        pref = Fraction(e1 ** ((m - 2) // 2))
        if not printed:
            pref *= p ** ((m - 2) // 2)
        return jacobi_sum(lchar, leg) * jacobi_sum(l1, cond) * Jm_sum(l1, chi, m - 1) * pref
    return chi(-1) * jacobi_sum(lchar, leg) * Jm_sum(lchar, chi, m - 2) * Fraction(p ** (m - 1))


# ---------------------------------------------------------------------------
# h(A, chi) and the chi(det A) convention for half-integral A

def chi_det_halfintegral(chi: DirichletChar, gram) -> CycloNum:
    """chi(det A) := conj(chi(2^(2[m/2]))) chi(2^(2[m/2]) det A) for A = gram/2."""
    N = chi.modulus
    if N % 2 == 0:
        raise ValueError("convention defined for odd conductor only")
    m = len(gram)
    detG = mat_det(gram)
    t = 2 ** (2 * (m // 2))
    num = detG * t
    den = 2 ** m
    assert num % den == 0, "2^(2[m/2]) det A must be integral"
    arg = num // den
    tin = pow(t % N, -1, N)
    return chi(arg % N * tin % N)


def gram_mod_p(gram, p: int):
    """A = gram/2 reduced to S_m(F_p) (p odd)."""
    inv2 = pow(2, -1, p)
    G = np.asarray(gram, dtype=np.int64)
    return (G * inv2) % p


def h_brute_sl(gram, chi: DirichletChar) -> CycloNum:
    """sum over SL_m(Z/N) of chi(tr(A[U])), computed prime by prime via CRT."""
    m = np.asarray(gram).shape[0]
    total = CycloNum.one()
    for p, chip in _local_parts(chi):
        _check_budget(sl_group_order(m, p) + p ** (m * m))
        counts = sl_trace_counts(gram_mod_p(gram, p), p)
        total = total * _weight_counts(counts, chip)
    return total


def h_brute_sym(gram, chi: DirichletChar) -> CycloNum:
    """h via the Prop 5.2 route: gamma * sum_c chi(c) #M_p(A, c), per prime."""
    m = np.asarray(gram).shape[0]
    total = CycloNum.one()
    for p, chip in _local_parts(chi):
        counts = sym_dettarget_trace_counts(gram_mod_p(gram, p), p, 1)
        total = total * (_weight_counts(counts, chip) * gamma_const(m, p))
    return total


def zero_branch(chi: DirichletChar, n: int) -> bool:
    """Theorem 5.5/5.6/6.1 branch (1) detector."""
    return any(chip.logs[find_primitive_root_of_unity_mod(p, gcd(n, p - 1))]
               for p, chip in _local_parts(chi))


def h_closed(gram, chi: DirichletChar, variant="corrected", weights=None):
    """Theorems 5.5/5.6 closed evaluation; exact CycloNum (0 in branch (1)).
    The theorems take chi primitive, so an imprimitive chi is refused.  The
    "printed" variant conjugates the first Jacobi factor as Theorem 5.5's
    display does; against the SL brute force it fails at p = 5 and 7.

    weights: root_weights(chi, m, variant), which do not depend on the gram,
    so a caller that weights many grams of one size by one chi computes them
    once; computed here when not given."""
    _is_printed(variant)                # refused before the early returns
    N = chi.modulus
    if N == 1:
        return CycloNum.one()
    if not chi.is_primitive():
        raise ValueError(f"closed h needs chi primitive: {chi.descriptor()}")
    m = np.asarray(gram).shape[0]
    if zero_branch(chi, m):             # ValueError unless N is odd squarefree
        return CycloNum.zero(chi.order)
    if m % 2 == 1 and (chi ** 2).conductor != N:
        raise ValueError("odd m closed form needs chi^2 primitive")
    if weights is None:
        weights = root_weights(chi, m, variant)
    total = sum((chi_det_halfintegral(lam, gram) * w for lam, w in weights),
                CycloNum.zero())
    return total * thm56_constant(m, N)


def thm56_constant(m: int, N: int, variant="corrected") -> Fraction:
    """prod_{p | N} A_{m,p} gamma_{m,p}: the Theorem 5.5/5.6 prefactor.  For
    even m the "printed" variant takes the sign exponent m - 2 of the
    Theorem 5.11 display and the printed gamma; "corrected" takes m and the
    corrected gamma."""
    printed = _is_printed(variant)
    const = Fraction(1)
    for p, _ in factorize(N):
        g = gamma_const(m, p, variant)
        if m % 2 == 0:
            sexp = m - 2 if printed else m
            A_mp = Fraction((-1) ** (sexp * (p - 1) // 4) * p ** ((m - 2) // 2))
        else:
            A_mp = Fraction((-1) ** ((m - 1) * (p - 1) // 4) * p ** ((m - 1) // 2))
        const *= g * A_mp
    return const


def h_sum(gram, chi: DirichletChar, mode="closed", weights=None) -> CycloNum:
    """h(A, chi) by ``mode``; weights go to ``h_closed`` (closed mode only)."""
    if mode == "brute_sl":
        return h_brute_sl(gram, chi)
    if mode == "brute_sym":
        return h_brute_sym(gram, chi)
    if mode == "closed":
        return h_closed(gram, chi, weights=weights)
    raise ValueError(f"unknown h_sum mode {mode!r}")


# ---------------------------------------------------------------------------
# adjudication reports

@dataclass
class Mismatch:
    inputs: dict
    brute: str
    closed: str
    note: str = ""


@dataclass
class CharSumReport:
    identity: str
    grid: dict
    match_count: int = 0
    total: int = 0
    mismatches: list = field(default_factory=list)
    variant_notes: list = field(default_factory=list)

    def record(self, ok: bool, inputs=None, brute=None, closed=None, note=""):
        self.total += 1
        if ok:
            self.match_count += 1
        else:
            self.mismatches.append(Mismatch(inputs or {}, repr(brute), repr(closed), note))

    @property
    def passed(self):
        return self.match_count == self.total and self.total > 0

    def to_dict(self):
        return {
            "identity": self.identity,
            "grid": self.grid,
            "match_count": self.match_count,
            "total": self.total,
            "passed": self.passed,
            "mismatches": [vars(m) for m in self.mismatches],
            "variant_notes": self.variant_notes if self.total else
            ["no point was compared"],
        }


# ---------------------------------------------------------------------------
# identity suite runners (shared by the CLI and the test suite)

def run_lemma51_suite(primes=(3, 5, 7), max_m=4, pairs=200, seed=11):
    """Brute #A(S, T) against the general product formulas on random diagonal
    nondegenerate pairs, plus the two documented discrepancies of the printed
    odd-m specialized display."""
    rng = np.random.default_rng(seed)
    rep = CharSumReport("lemma5.1", {"primes": list(primes), "max_m": max_m,
                                     "pairs": pairs})
    done = 0
    while done < pairs:
        p = int(rng.choice(primes))
        m = int(rng.integers(1, max_m + 1))
        r = int(rng.integers(1, m + 1))
        if p ** (r * m) > 50_000_000:       # brute cost cap
            continue
        S = np.diag(rng.integers(1, p, size=m))
        T = np.diag(rng.integers(1, p, size=r))
        b = count_A_brute(S, T, p)
        c = count_A_closed(S, T, p)
        rep.record(b == c, {"p": p, "S": S.diagonal().tolist(),
                            "T": T.diagonal().tolist()}, b, c)
        done += 1
    d1 = count_A_display([[1]], 1, 3), count_A_brute([[1]], [[1]], 3)
    d2 = count_A_display(np.eye(3, dtype=int), 1, 3), \
        count_A_brute(np.eye(3, dtype=int), [[1]], 3)
    rep.variant_notes.append(
        f"printed odd-m display at (m,p,S,c)=(1,3,1,1): {d1[0]} vs brute {d1[1]}")
    rep.variant_notes.append(
        f"printed odd-m display at (3,3,1_3,1): {d2[0]} vs brute {d2[1]}")
    rep.variant_notes.append("general product formulas are authoritative")
    return rep


def run_prop52_suite():
    """#R_p(A, c) = gamma_corrected * #M_p(A, c) for diagonal A and every c
    (R: X in SL_m(F_p) with tr(A[X]) = c; M: Z in S_m(F_p) with det Z = 1
    and tr(AZ) = c); the ratio is constant across (A, c)."""
    grid = ((2, 3), (2, 5), (3, 3), (3, 5), (4, 3))
    rng = np.random.default_rng(5)
    rep = CharSumReport("prop5.2", {"grid": [list(g) for g in grid]})
    for m, p in grid:
        gam_c = gamma_const(m, p, "corrected")
        gam_p = gamma_const(m, p, "printed")
        for _ in range(2):                  # two forms per cell
            A = np.diag(rng.integers(1, p, size=m))
            rc = sl_trace_counts(gram_like(A, p), p)
            mc = sym_dettarget_trace_counts(gram_like(A, p), p, 1)
            for c in range(p):
                R, M = int(rc[c]), int(mc[c])
                ok = R == gam_c * M
                rep.record(ok, {"m": m, "p": p, "A": A.diagonal().tolist(),
                                "c": c}, R, f"{gam_c} * {M}")
        if gam_c != gam_p:
            rep.variant_notes.append(
                f"(m,p)=({m},{p}): printed gamma {gam_p} != corrected {gam_c}")
    return rep


def gram_like(A, p):
    """Interpret a plain symmetric F_p matrix directly (no /2 convention)."""
    return np.asarray(A, dtype=np.int64) % p


def run_lemma53_suite(primes=(5, 7, 11, 13), seed=3):
    rng = np.random.default_rng(seed)
    rep = CharSumReport("lemma5.3", {"primes": list(primes)})
    for p in primes:
        etas = char_group(p)[1:]            # the nontrivial characters
        mats = [np.diag([1]), np.diag([1, 2]), np.diag([1, 0]),
                np.diag([1, 2, 1]), np.diag([0, int(rng.integers(1, p)), 3])]
        for eta in etas:
            for S in mats:
                r, _ = _rank_and_det0(S, p)
                if r % 2 == 1 and (eta ** 2).is_trivial():
                    continue
                for c in (0, 1, p - 1):
                    b = quad_char_sum_brute(eta, S, c)
                    cl = quad_char_sum_closed(eta, S, c)
                    rep.record(b == cl, {"p": p, "eta": eta.descriptor(),
                                         "S": S.diagonal().tolist(), "c": c},
                               b, cl)
        # corollary scaling: I_{eta,S,cd} = eta(d) (d/p)^r I_{eta,S,c}, on
        # the first eta with eta^2 nontrivial (mod 3 there is none)
        S = np.diag([1, 2])
        r, _ = _rank_and_det0(S, p)
        for eta in [e for e in etas if not (e ** 2).is_trivial()][:1]:
            for d in (2, 3):
                lhs = quad_char_sum_brute(eta, S, (1 * d) % p)
                rhs = quad_char_sum_brute(eta, S, 1) * eta(d) \
                    * Fraction(legendre(d, p) ** r)
                rep.record(lhs == rhs, {"p": p, "scaling d": d}, lhs, rhs)
    return rep


def run_prop54_suite(primes=(5, 7, 11, 13)):
    rep = CharSumReport("prop5.4", {"primes": list(primes)})
    printed_even_fail = 0
    for p in primes:
        etas = [e for e in char_group(p) if not (e ** 2).is_trivial()]
        mats = [np.diag([1]), np.diag([1, 2]), np.array([[1, 1], [1, 2]]),
                np.diag([2, 1, 1]), np.diag([1, 0])]
        for eta in etas[:3]:
            for Z1 in mats:
                for z in (0, 1, 2):
                    b = bordered_det_sum_brute(eta, Z1, z)
                    cl = bordered_det_sum_closed(eta, Z1, z)
                    rep.record(b == cl, {"p": p, "eta": eta.descriptor(),
                                         "l": Z1.shape[0] + 1, "z": z}, b, cl)
                    pr = bordered_det_sum_closed(eta, Z1, z, "printed")
                    if not (pr == b):
                        printed_even_fail += 1
    rep.variant_notes.append(
        f"printed even-l sign (-1)^(l/2) fails {printed_even_fail} grid points "
        "(p = 3 mod 4); derived (-1)^((l-2)/2) matches brute everywhere")
    return rep


def run_prop57_58_thm59_suite(primes=(5, 7, 11, 13)):
    brute_max_m, rec_max_m = 3, 5
    rep = CharSumReport("prop5.7+5.8+thm5.9", {"primes": list(primes),
                                               "brute_max_m": brute_max_m,
                                               "rec_max_m": rec_max_m})
    printed58_fail = 0
    thm59_missing_power = 0
    for p in primes:
        chis = [c for c in char_group(p) if not (c ** 2).is_trivial()]
        etas = char_group(p)[1:]
        brute_ok = p ** (brute_max_m * (brute_max_m + 1) // 2) <= 6_000_000
        for chi in chis[:4]:
            for eta in etas[:4]:
                for m in range(1, (brute_max_m if brute_ok else 2) + 1):
                    bI = Im_brute(chi, eta, m)
                    bJ = Jm_brute(chi, eta, m)
                    rep.record(bI == Im_closed(chi, eta, m),
                               {"p": p, "m": m, "which": "I"}, bI, "closed")
                    rec = Jm_recursion(chi, eta, m) if m >= 1 else bJ
                    rep.record(bJ == rec, {"p": p, "m": m, "which": "J"}, bJ, rec)
                    if m >= 2 and not (Jm_recursion(chi, eta, m, "printed") == bJ):
                        printed58_fail += 1
        # Theorem 5.9 displays against the corrected recursion, m up to rec_max_m
        for chi in chis[:3]:
            for i in (0, 1):
                leg = legendre_char(p)
                lchar = chi * (leg ** (i % 2))
                for m in range(2, rec_max_m + 1):
                    rec = Jm_recursion(lchar, chi, m)
                    pr_fixed = thm59_display(chi, i, m)
                    rep.record(pr_fixed == rec,
                               {"p": p, "m": m, "i": i, "which": "thm5.9"},
                               "recursion", "display+p-power")
                    if m % 2 == 0 and not (thm59_display(chi, i, m, "printed") == rec):
                        thm59_missing_power += 1
    rep.variant_notes.append(
        f"printed Prop 5.8 even-m prefactor (-1/p)^(m/2) fails {printed58_fail} "
        "points (derived (-1/p)^((m-2)/2) exact)")
    rep.variant_notes.append(
        f"printed Thm 5.9 (2.1) lacks p^((m-2)/2): {thm59_missing_power} "
        "mismatches without it, none with it")
    return rep


def run_prop510_suite(primes=(5, 7, 11, 13)):
    rep = CharSumReport("prop5.10", {"primes": list(primes)})
    for p in primes:
        leg = legendre_char(p)
        for chi in char_group(p):
            if (chi ** 2).is_trivial():
                continue
            lhs = jacobi_sum(chi, leg) * jacobi_sum(chi * leg, chi * leg)
            rhs = chi.conjugate()(4) * Fraction(legendre(-1, p) * p)
            rep.record(lhs == rhs, {"p": p, "chi": chi.descriptor()}, lhs, rhs)
    return rep


# the Gram matrices 2A of the Theorem 5.5/5.6 suite, by rank
THM55_FORMS = {
    2: [[[2, 0], [0, 2]], [[2, 1], [1, 2]], [[2, 0], [0, 4]],
        [[4, 1], [1, 2]], [[2, 1], [1, 4]], [[4, 1], [1, 4]],
        [[2, 0], [0, 6]], [[6, 1], [1, 2]]],
    3: [[[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        [[2, 1, 0], [1, 2, 0], [0, 0, 2]],
        [[2, 1, 1], [1, 2, 1], [1, 1, 4]],
        [[2, 0, 0], [0, 4, 1], [0, 1, 4]],
        [[4, 1, 0], [1, 2, 0], [0, 0, 6]]],
}


def run_thm55_56_suite(forms=THM55_FORMS):
    """h closed (corrected variant) against the SL brute route at p = 5, 7
    and m = 2, 3, on the Gram matrices forms[m]."""
    rep = CharSumReport("thm5.5+5.6", {"primes": [5, 7], "ms": [2, 3]})
    zero_branch_seen = 0
    for p in (5, 7):
        for m in (2, 3):
            for chi in char_group(p)[1:]:
                if m % 2 == 1 and (chi ** 2).conductor != p:
                    continue
                for gram in forms[m]:
                    b = h_brute_sl(gram, chi)
                    c = h_closed(gram, chi)
                    rep.record(b == c, {"p": p, "m": m,
                                        "chi": chi.descriptor()}, b, c)
                    if c.is_zero() and b.is_zero():
                        zero_branch_seen += 1
    rep.variant_notes.append("gamma=corrected,sign=m,conjJ=False matches brute")
    rep.variant_notes.append(f"vanishing branch confirmed on {zero_branch_seen} points")
    return rep
