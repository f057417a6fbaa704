"""Matrix helpers shared by the test modules (the package has no caller for
them): G[U] = U^t G U on integer matrices given as lists of rows."""


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def transform(G, U):
    """G[U] = U^t G U."""
    Ut = [[U[j][i] for j in range(len(U))] for i in range(len(U[0]))]
    return mat_mul(mat_mul(Ut, [list(r) for r in G]), [list(r) for r in U])
