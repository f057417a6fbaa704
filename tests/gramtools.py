"""Helpers shared by the test modules (the package has no caller for them):
G[U] = U^t G U on integer matrices given as lists of rows, the plain column
backtracking that the isometry search is checked against, the row-by-row
representation count that ``charsums._rep_count`` is checked against, the
one-row-bordered SL_m(F_p) sweep that ``charsums.sl_gram_counts`` is checked
against, the per-cell-reduced symmetric sweep that ``charsums._sym_tables``
is checked against, the Leibniz determinant that every determinant and minor
kernel is checked against, and the set D_{N,m} that ``charsums.root_weights``
is checked against."""

from itertools import combinations, permutations


def leibniz_det(M):
    """det M as the Leibniz sum over permutations; the entries may be ints or
    numpy arrays of one shape (a batch of matrices)."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term = term * M[i][perm[i]]
        total = total + term
    return total


def leibniz_minors(vectors):
    """The j x j minors of j vectors of length n, one per j-subset of
    coordinates in ``combinations`` order, each a Leibniz sum."""
    n = len(vectors[0]) if vectors else 0
    return [leibniz_det([[v[c] for c in S] for v in vectors])
            for S in combinations(range(n), len(vectors))]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def transform(G, U):
    """G[U] = U^t G U."""
    Ut = [[U[j][i] for j in range(len(U))] for i in range(len(U[0]))]
    return mat_mul(mat_mul(Ut, [list(r) for r in G]), [list(r) for r in U])


def reference_isometry_search(G1, G2, need_det=1, count_all=False,
                              congruence=1):
    """The column backtracking of ``quadforms._isometry_search`` in its plain
    form: every column scans the whole vector pool of its norm, and every
    leaf U is checked with ``mat_det``.  G1, G2 are ``GramMat``s; returns the
    first witness U (or None), or with count_all the number of solutions."""
    from operator import mul

    from kmlift.exactalg import mat_det
    from kmlift.quadforms import vectors_of_norm

    n = G1.n
    if G2.n != n or G1.det() != G2.det():
        return 0 if count_all else None
    G1e, G2e = G1.entries, G2.entries
    pools = {}
    for t in {G2e[j][j] for j in range(n)}:
        pools[t] = [(v, tuple(sum(map(mul, row, v)) for row in G1e))
                    for v in vectors_of_norm(G1e, t)]
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
        for v, Gv in pools[G2e[j][j]]:
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


def reference_rep_count(X, S, T, q, dq):
    """``charsums._rep_count`` with every row but the last two fixed
    candidate by candidate: each candidate filters the later rows' candidate
    lists, a branch stops once one of them is empty, and the last two rows
    are one pairing count.  X, S, T are int64 arrays."""
    import numpy as np

    norms = (X @ (S % dq) % dq * X).sum(axis=1) % dq
    cands = [np.flatnonzero(norms == T[i, i] % dq) for i in range(T.shape[0])]
    S, T = S % q, T % q

    def rows(cands):
        i = T.shape[0] - len(cands)
        if len(cands) == 1:
            return len(cands[0])
        if len(cands) == 2:
            return int((X[cands[0]] @ S % q @ X[cands[1]].T % q
                        == T[i, i + 1]).sum())
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
                count += rows(rest)
        return count

    return rows(cands)


def reference_sl_gram_counts(m, p):
    """``charsums.sl_gram_counts`` as a sweep of every cell of F_p^{m x m}:
    for each chunk of first rows r_1..r_{m-1} it takes every last row x at
    once (one p^m x m array), so that det X = c . x, with c the cofactor
    vector of the first rows (Leibniz sums), and (X X^t)_{a,m} = r_a . x are
    integer matmuls; one bincount per chunk tallies the Gram matrices of the
    det-1 cells."""
    import numpy as np

    from kmlift.charsums import _CHUNK, _digit_arrays, _upper

    k = m - 1
    E = m * (m + 1) // 2
    weight = np.zeros((m, m), dtype=np.int64)
    weight[tuple(zip(*_upper(m)))] = p ** np.arange(E)
    last = np.stack(_digit_arrays(0, p ** m, p, m), axis=1)
    last_key = (last * last).sum(axis=1) % p * weight[k, k]
    table = np.zeros(p ** E, dtype=np.int64)
    total = p ** (k * m)
    step = max(1, _CHUNK // p ** m)
    for lo in range(0, total, step):
        hi = min(total, lo + step)
        digs = _digit_arrays(lo, hi, p, k * m)
        rows = [digs[a * m:(a + 1) * m] for a in range(k)]
        cof = np.stack([np.broadcast_to((-1) ** (k + b) * leibniz_det(
            [r[:b] + r[b + 1:] for r in rows]), (hi - lo,))
            for b in range(m)], axis=1)
        R = np.array(digs, dtype=np.int64).T.reshape(hi - lo, k, m)
        gram = R @ R.transpose(0, 2, 1) % p
        cross = R @ last.T % p
        idx = ((gram * weight[:k, :k]).sum(axis=(1, 2))[:, None]
               + weight[:k, k] @ cross + last_key)
        table += np.bincount(idx[cof @ last.T % p == 1], minlength=p ** E)
    return table


def reference_sym_tables(forms, N):
    """``charsums._sym_tables`` for m >= 1 as a per-cell-reduced sweep: each
    cell's key (det Z1, w^t Adj(Z1) w, trace without z) is reduced mod N in
    the sweep and tallied in N^3 bins, and z then runs over every residue
    for each nonzero bin."""
    import numpy as np

    from kmlift.charsums import (_CHUNK, _adj_quads, _digit_arrays,
                                 _sym_adj_batch, _sym_entries, _sym_trace)
    from kmlift.exactalg import _wedge

    forms = [np.asarray(B, dtype=np.int64) % N for B in forms]
    k = forms[0].shape[0] - 1
    nw = N ** k
    W = _digit_arrays(0, nw, N, k)
    quads = _adj_quads(W, N)
    tally = [np.zeros(N ** 3, dtype=np.int64) for _ in forms]
    total = N ** (k * (k + 1) // 2)
    step = max(1, _CHUNK // nw)
    for lo in range(0, total, step):
        hi = min(total, lo + step)
        M = _sym_entries(lo, hi, N, k)
        d1 = np.broadcast_to(_wedge(M, N)[0] % N, (hi - lo,))
        Q = _sym_adj_batch(M, N, hi - lo) @ quads % N
        base = (d1[:, None] * N + Q) * N
        for f, B in enumerate(forms):
            tw = sum(int(B[a, k] + B[k, a]) * W[a] for a in range(k))
            key = base + (_sym_trace(B, M, N)[:, None] + tw) % N
            tally[f] += np.bincount(key.ravel(), minlength=N ** 3)
    tables = []
    for f, B in enumerate(forms):
        key = np.flatnonzero(tally[f])
        d1, Q, T = key // (N * N), key // N % N, key % N
        table = np.zeros((N, N), dtype=np.int64)
        for z in range(N):
            np.add.at(table, ((z * d1 - Q) % N, (T + int(B[k, k]) * z) % N),
                      tally[f][key])
        tables.append(table)
    return tables


def subgroup_Dm(G, m):
    """The characters of the group G (a ``characters.CharGroup`` mod N)
    whose m-th power is trivial: the set D_{N,m}."""
    return [chi for chi in G if (chi ** m).is_trivial()]
