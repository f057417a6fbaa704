import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kmlift
from kmlift.characters import factorize, legendre
from kmlift.charsums import BudgetExceeded
from kmlift.exactalg import _pval
from kmlift.plocal import (density_from_symbol,
                           enumerate_zp_classes, jordan_decompose,
                           local_density, mass_formula, p_series,
                           p_series_closed, siegel_series, xi_tilde,
                           _aut_cong_count, _density_brute,
                           _modp_vectors, _oracle_A_coeffs, _rank2_modp_sum,
                           _siegel_degree, _snf_buckets, _solve_F_from_A,
                           _stratified_A)
from kmlift.quadforms import GramMat, is_positive_definite

# the directory of the imported kmlift, for a child process to import it too
_KMLIFT_ROOT = str(Path(kmlift.__file__).resolve().parent.parent)

A2 = GramMat([[2, 1], [1, 2]])
D4 = GramMat([[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]])
I4 = GramMat([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
A2A2 = GramMat([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]])


def test_xi_tilde():
    assert xi_tilde(5, 4) == 1
    assert xi_tilde(5, 2) == -1
    assert xi_tilde(5, 5) == 0
    assert xi_tilde(2, 5) == -1
    assert xi_tilde(2, 17) == 1
    assert xi_tilde(2, 3) == 0
    assert xi_tilde(2, 2) == 0
    assert xi_tilde(3, Fraction(-3, 4)) == 0


def test_jordan_decompose():
    sym = jordan_decompose(I4, 3)
    assert len(sym.blocks) == 1 and sym.blocks[0].dim == 4
    assert sym.blocks[0].detclass == 1
    sym = jordan_decompose(A2, 3)
    assert [(b.scale, b.dim) for b in sym.blocks] == [(0, 1), (1, 1)]
    sym = jordan_decompose([[2, 0], [0, 18]], 3)
    assert [(b.scale, b.dim) for b in sym.blocks] == [(0, 1), (2, 1)]


def test_density_brute_vs_closed_p_odd():
    cases = [([[1]], 3), ([[3]], 3), ([[1, 0], [0, 3]], 3),
             ([[2, 1], [1, 2]], 3), ([[2, 0], [0, 2]], 5),
             ([[1, 0], [0, 9]], 3), ([[3, 0], [0, 3]], 3),
             ([[1, 0, 0], [0, 1, 0], [0, 0, 3]], 3),
             ([[1, 0, 0], [0, 2, 0], [0, 0, 1]], 5)]
    for A, p in cases:
        b = _density_brute(A, p)                       # stabilization inside
        c = density_from_symbol(jordan_decompose(A, p), p)
        assert b == c, (A, p, b, c)


def test_density_brute_single_level_p5_n3():
    # nu = 1 cases at p = 5, n = 3: single level a = 2 against closed
    from kmlift.plocal import _aut_cong_count
    import numpy as np
    A = np.diag([1, 2, 5]).astype(np.int64)
    v = _aut_cong_count(A, 5, 2)
    c = density_from_symbol(jordan_decompose(A.tolist(), 5), 5)
    assert v == c


def _aut_cong_reference(A, p, a):
    """(1/2) p^{-a n(n-1)/2} #{X mod p^a : X^t A X = A}, the diagonal read
    mod 2 p^a at p = 2, over every X mod p^a."""
    n, q = len(A), p ** a
    dq = 2 * q if p == 2 else q
    count = 0
    for flat in itertools.product(range(q), repeat=n * n):
        X = [flat[k * n:(k + 1) * n] for k in range(n)]
        count += all(
            (sum(X[k][i] * A[k][l] * X[l][j] for k in range(n) for l in range(n))
             - A[i][j]) % (dq if i == j else q) == 0
            for i in range(n) for j in range(i, n))
    return Fraction(count, 2 * p ** (a * n * (n - 1) // 2))


@pytest.mark.parametrize("A,p,a", [
    (A, 2, a) for A in ([[2, 1], [1, 2]], [[0, 1], [1, 0]], [[2, 0], [0, 6]],
                        [[2, 1], [1, 4]]) for a in (1, 2)] + [
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 2, 1),
    ([[1, 0], [0, 3]], 3, 1), ([[1, 0], [0, 3]], 3, 2),
    ([[1, 1], [1, 2]], 3, 1), ([[1, 1], [1, 2]], 3, 2)])
def test_aut_cong_count_matches_every_matrix(A, p, a):
    assert _aut_cong_count(np.array(A, dtype=np.int64), p, a) == \
        _aut_cong_reference(A, p, a)


def test_good_prime_density():
    # unimodular even rank 2 at p = 5: (1 - delta/p)
    c = local_density(GramMat([[2, 0], [0, 2]]), 5)
    assert c == 1 - Fraction(legendre(-1, 5), 5)


# (gram, alpha_2, mass): the seven det <= 40 classes with nu_2(det) <= 2
# whose alpha_2 the former brute stabilization could not settle, and a det-8
# class.  Each of the seven alpha_2 equals the brute count at a single level
# a = nu_2(det) + 2 (12 s for the first form, so not run here); the masses
# are consistent with the det-40 audit below
DYADIC_PINS = [
    ([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], 6, Fraction(1, 96)),
    ([[2, -1, -1, -1], [-1, 2, 0, 0], [-1, 0, 2, 0], [-1, 0, 0, 4]], 6, Fraction(1, 96)),
    ([[2, -1, 0, -1], [-1, 2, 0, 0], [0, 0, 2, 0], [-1, 0, 0, 4]], 3, Fraction(1, 24)),
    ([[2, 0, 0, -1], [0, 2, 0, 0], [0, 0, 2, 0], [-1, 0, 0, 4]], 6, Fraction(1, 24)),
    ([[2, -1, -1, -1], [-1, 2, 0, 0], [-1, 0, 2, 0], [-1, 0, 0, 8]], 6, Fraction(1, 24)),
    ([[2, -1, -1, -1], [-1, 2, 0, 0], [-1, 0, 4, 2], [-1, 0, 2, 4]], 6, Fraction(1, 24)),
    ([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 6]], 3, Fraction(1, 48)),
    ([[2, -1, -1, 0], [-1, 2, 0, 0], [-1, 0, 2, 0], [0, 0, 0, 2]], 12, Fraction(1, 96)),
]


def test_dyadic_densities():
    assert local_density(A2, 2) == Fraction(3, 2)
    assert local_density(A2A2, 2) == Fraction(9, 16)
    assert local_density(D4, 2) == 36
    assert local_density(I4, 2) == 2 ** 10 * Fraction(3, 8)
    for G, alpha, mass in DYADIC_PINS:
        assert local_density(G, 2) == alpha, G
        assert mass_formula(GramMat(G)) == mass, G


# ternary forms reaching every species branch of the closed dyadic density
DYADIC_TERNARY = [
    [[1, 0, 0], [0, 2, 0], [0, 0, 4]],      # bound: scales 0, 1, 2 odd
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],      # free, octane 1
    [[0, 1, 0], [1, 0, 0], [0, 0, 4]],      # free, octane 0 (H)
    [[3, 0, 0], [0, 5, 0], [0, 0, 4]],      # free, octane 0, species 0
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],      # free, octane 3
    [[2, 1, 0], [1, 2, 0], [0, 0, 4]],      # free, octane 4 (V)
    [[1, 0, 0], [0, 1, 0], [0, 0, 4]],      # free, octane 2
    [[3, 0, 0], [0, 3, 0], [0, 0, 2]],      # bound, octane 6
    [[2, 1, 1], [1, 2, 1], [1, 1, 2]],      # det 4: A_3
]


def test_dyadic_density_closed_matches_brute():
    # the oracle counts at nu_2(det) + 2 and + 3 and checks that they agree
    forms = [[[a]] for a in range(-8, 9) if a]
    forms += [[[a, b], [b, c]] for a in range(-3, 5) for b in range(3)
              for c in range(1, 7) if a * c != b * b]
    for G in forms + DYADIC_TERNARY:
        assert local_density(G, 2) == _density_brute(G, 2), G


def test_dyadic_density_closed_matches_brute_quaternary():
    # A_4 (det 5) in two bases, counted at a = 2 and 3
    for G in ([[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]],
              [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]):
        assert _density_brute(G, 2) == local_density(G, 2) == \
            Fraction(15, 16), G


def test_mass_audit_det40(flagship):
    # group the det <= 40 classes by det, odd-prime Jordan symbols and mass:
    # each group's sum of 1/e(T) is a positive integer multiple of 2 * mass
    _, cl, _ = flagship
    sums = {}
    for c in cl.classes:
        D = c.gram.det()
        key = (D, tuple(jordan_decompose(c.gram, q) for q, _ in factorize(D)
                        if q != 2), mass_formula(c.gram))
        sums[key] = sums.get(key, 0) + Fraction(1, c.e)
    assert len(cl.classes) == 43 and len(sums) == 34
    for (_, _, mass), total in sums.items():
        ratio = total / (2 * mass)
        assert ratio.denominator == 1 and ratio > 0, (total, mass)


def test_dyadic_jordan_shapes():
    def table(G):
        return [(b.scale, b.dim, b.detclass, b.oddity)
                for b in jordan_decompose(G, 2).blocks]
    assert table(A2) == [(0, 2, 3, None)]
    assert table(A2A2) == [(0, 4, 1, None)]
    assert table(I4) == [(1, 4, 1, 4)]


def test_siegel_series_oracle_vs_stratified_binary():
    cases = [(GramMat([[2, 1], [1, 2]]), 3), (GramMat([[2, 0], [0, 18]]), 3),
             (GramMat([[2, 1], [1, 14]]), 3), (GramMat([[2, 0], [0, 50]]), 5)]
    for G, p in cases:
        a = siegel_series(G, p, mode="stratified")
        b = siegel_series(G, p, mode="oracle")
        assert a.fcoeffs == b.fcoeffs
        assert a.check_symmetry()


def test_siegel_series_good_prime_and_dyadic():
    assert siegel_series(A2, 5).fcoeffs == (1,)
    s = siegel_series(D4, 2, mode="stratified")
    assert s.fcoeffs == (1, -12, 32)
    so = siegel_series(D4, 2, mode="oracle")
    assert so.fcoeffs == s.fcoeffs
    assert s.check_symmetry()


def _sym_mats_mod_p(n, p):
    """(M, ent, pairs): every symmetric n x n matrix mod p as an (N, n, n)
    array M, and its upper-triangle entries ent (N, E) in the order of the
    index pairs ``pairs``."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    E = len(pairs)
    ent = (np.arange(p ** E)[:, None] // p ** np.arange(E)) % p
    M = np.zeros((p ** E, n, n), dtype=np.int64)
    for k, (a, b) in enumerate(pairs):
        M[:, a, b] = M[:, b, a] = ent[:, k]
    return M, ent, pairs


def _ranks_mod_p(M, p):
    """F_p-ranks of a stack of square matrices by Gaussian elimination run on
    all of them at once: a pivot row per column, never reused."""
    M = M % p
    N, n, _ = M.shape
    inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)])
    used = np.zeros((N, n), dtype=bool)
    rank = np.zeros(N, dtype=np.int64)
    rows = np.arange(N)
    for c in range(n):
        cand = (M[:, :, c] != 0) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        R = M[rows, piv]
        f = M[:, :, c] * inv[R[:, c]][:, None] % p
        f[used | ~has[:, None]] = 0
        f[rows, piv] = 0
        M = (M - f[:, :, None] * R[:, None, :]) % p
        used[rows[has], piv[has]] = True
        rank += has
    return rank


def _rank2_brute(G, p, rank2, pairs):
    """sum over rank-2 S in S_n(F_p) of e(tr(T S)/p), T = G/2, given the
    upper-triangle entries ``rank2`` of every such S."""
    w = np.array([G.entries[a][b] // (2 if a == b else 1) for a, b in pairs])
    counts = np.bincount(rank2 @ w % p, minlength=p)
    assert len(set(counts[1:])) == 1          # the sum is rational
    return Fraction(int(counts[0] - counts[1]))


def _random_even_pd(n, rng):
    while True:
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            M[i][i] = 2 * rng.randint(1, 4)
            for j in range(i + 1, n):
                M[i][j] = M[j][i] = rng.randint(-2, 2)
        if is_positive_definite(M):
            return GramMat(M)


# |{rank-2 S in S_n(F_p)}| from a direct enumeration of all symmetric matrices
RANK2_COUNTS = {(2, 2): 4, (2, 3): 18, (4, 2): 140, (4, 3): 2340}


@pytest.mark.parametrize("n,p", sorted(RANK2_COUNTS))
def test_rank2_plane_route_matches_every_symmetric_matrix(n, p):
    M, ent, pairs = _sym_mats_mod_p(n, p)
    rank2 = ent[_ranks_mod_p(M, p) == 2]
    assert len(rank2) == RANK2_COUNTS[n, p]
    rng = random.Random(1000 * n + p)
    for _ in range(8):
        G = _random_even_pd(n, rng)
        assert _rank2_modp_sum(_modp_vectors(G, p), p) == \
            _rank2_brute(G, p, rank2, pairs), G


def test_ranks_mod_p_reference():
    M = np.array([[[1, 1], [1, 1]], [[2, 1], [1, 2]], [[0, 0], [0, 0]],
                  [[0, 1], [1, 0]]])
    assert _ranks_mod_p(M, 3).tolist() == [1, 1, 0, 2]
    assert _ranks_mod_p(M, 2).tolist() == [1, 2, 0, 2]


@pytest.mark.parametrize("n,p", sorted(RANK2_COUNTS))
def test_plane_sum_with_zero_form_counts_rank2_matrices(n, p):
    zero = _modp_vectors(GramMat([[0] * n] * n), p)
    assert _rank2_modp_sum(zero, p) == RANK2_COUNTS[n, p]


def _normalized(p, n, q):
    """The primitive v mod q (q = p or p^2) scaled so that the first
    coordinate that is a unit mod p is 1."""
    for pivot in range(n):
        for head in itertools.product(range(0, q, p), repeat=pivot):
            for tail in itertools.product(range(q), repeat=n - pivot - 1):
                yield head + (1,) + tail


def _tval(G, v):
    return sum(g * a * b for row, a in zip(G.entries, v)
               for g, b in zip(row, v)) // 2


def _ramanujan_p2(p, t):
    """c_{p^2}(t), the sum of e(a t / p^2) over the units a mod p^2."""
    return p * p - p if t % (p * p) == 0 else -p if t % p == 0 else 0


def _scaled_even_pd(n, p, rng):
    """A random even positive form with one row and column scaled by p."""
    M = [list(r) for r in _random_even_pd(n, rng).entries]
    k = rng.randrange(n)
    for j in range(n):
        M[k][j] *= p
        M[j][k] *= p
    return GramMat(M)


STRATIFIED_GRID = [(2, 2), (2, 3), (2, 5), (3, 3), (4, 2), (4, 3), (4, 5),
                   (6, 2)]


def test_stratified_counts_match_normalized_vector_loops():
    """A_1 as a sum over the projective points, and the rank-1 part of A_2 as
    Ramanujan sums over the normalized primitive v mod p^2."""
    rng = random.Random(13)
    signs = set()
    for n, p in STRATIFIED_GRID:
        forms = [_random_even_pd(n, rng), _random_even_pd(n, rng),
                 _scaled_even_pd(n, p, rng), _scaled_even_pd(n, p, rng)]
        if n == 4:
            forms += [GramMat(np.diag([2, 2, 2, 2 * p]).tolist()),
                      GramMat(np.diag([2, 2, 2 * p, 2 * p]).tolist())]
        for G in forms:
            A = _stratified_A(G, p)
            A1 = sum(p - 1 if _tval(G, v) % p == 0 else -1
                     for v in _normalized(p, n, p))
            rank1 = sum(_ramanujan_p2(p, _tval(G, v))
                        for v in _normalized(p, n, p * p))
            rank2 = _rank2_modp_sum(_modp_vectors(G, p), p)
            assert (A[0], A[1], A[2] - rank2) == (1, A1, rank1), (G, p)
            signs.add((rank1 > 0) - (rank1 < 0))
    assert signs == {-1, 0, 1}        # both radical branches occur


def test_siegel_series_stratified_pinned_p3_n4():
    # fcoeffs computed with the rank-2 stratum summed over every symmetric
    # matrix mod 3
    cases = [(A2A2, (1, -36, 243)),
             (GramMat([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 18]]),
              (1, -9, 243)),
             (GramMat([[4, 1, 1, 1], [1, 4, 1, 1], [1, 1, 4, 1], [1, 1, 1, 4]]),
              (1, 0, 243))]
    for G, want in cases:
        assert siegel_series(G, 3, mode="stratified").fcoeffs == want, G


def test_solve_F_completes_by_the_functional_equation():
    # A_0..A_2 fix c_0..c_2 of F; c_3 and c_4 come from the X <-> 1/X
    # mirror c_{nu_f + t} = c_{nu_f - t} p^{(n+1) t}, and A_0, A_1 are too few
    for G, p, F in ((GramMat([[2, 0], [0, 32]]), 2, [1, 0, 8, 0, 64]),
                    (GramMat([[2, 0], [0, 64]]), 2, [1, 0, 8, 0, 64]),
                    (GramMat([[2, 0], [0, 162]]), 3, [1, 3, 27, 81, 729])):
        _, xi, deg = _siegel_degree(G, p)
        A = _oracle_A_coeffs(G, p, deg)
        assert deg == 4 and len(A) > 3, (G, p)
        assert _solve_F_from_A(A, p, G.n, xi, deg) == F, (G, p)
        assert _solve_F_from_A(A[:3], p, G.n, xi, deg) == F, (G, p)
        with pytest.raises(RuntimeError, match="not enough"):
            _solve_F_from_A(A[:2], p, G.n, xi, deg)


def test_library_refuses_nonprime_p():
    # 9 gave alpha = 8/9 for A_2 (alpha_3 is 6), 4 gave F = 1, 0 divided by
    # zero, and enumerate_zp_classes(2, 9, 1, 2) gave 4 "symbols"; each entry
    # point now refuses before any p-adic work
    for p in (0, 4, 9):
        for call in (lambda: local_density(A2, p),
                     lambda: local_density(A2, p, mode="brute"),
                     lambda: jordan_decompose(A2, p),
                     lambda: siegel_series(A2, p),
                     lambda: p_series(2, p, 1, "iota", 3),
                     lambda: p_series_closed(2, p, 1, "iota", 3),
                     lambda: xi_tilde(p, 3),
                     lambda: enumerate_zp_classes(2, p, 1, 2)):
            with pytest.raises(ValueError, match="prime"):
                call()
    # p = 1 looped forever in the p-adic valuation, so it runs in a child
    # with a timeout: a regression fails instead of hanging the suite
    code = """
from kmlift.plocal import *
from kmlift.quadforms import GramMat
G = GramMat([[2, 1], [1, 2]])
for call in (lambda: local_density(G, 1), lambda: jordan_decompose(G, 1),
             lambda: siegel_series(G, 1), lambda: p_series(2, 1, 1, "iota", 3),
             lambda: p_series_closed(2, 1, 1, "iota", 3),
             lambda: xi_tilde(1, 3), lambda: enumerate_zp_classes(2, 1, 1, 2)):
    try:
        call()
    except ValueError as exc:
        assert "prime" in str(exc), exc
    else:
        raise SystemExit("p = 1 was accepted")
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (_KMLIFT_ROOT, env.get("PYTHONPATH")) if x)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr


def test_p_series_refuses_n_that_is_not_even_and_at_least_2():
    # n = 0 divided by zero and n = -2 stopped in pow()
    for n in (0, -2, 1, 3):
        for series in (p_series, p_series_closed):
            with pytest.raises(ValueError, match="even integer"):
                series(n, 3, 1, "iota", 3)


def test_p_series_refuses_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        p_series(2, 3, 1, "iota", 3, mode="closed")


def test_enumerate_zp_classes():
    out = enumerate_zp_classes(2, 3, 1, 0)
    assert len(out) == 1 and out[0].blocks[0].dim == 2
    out2 = enumerate_zp_classes(2, 3, 1, 2)
    scales = sorted(tuple((b.scale, b.dim) for b in s.blocks) for s in out2)
    assert ((0, 2),) in scales and ((1, 2),) in scales
    for s in enumerate_zp_classes(4, 3, 1, 2):
        assert s.valuation() % 2 == 0
    with pytest.raises(ValueError):
        enumerate_zp_classes(4, 2, 1, 2)


def test_p_series_brute_equals_closed_small():
    for p in (3, 5):
        r = next(x for x in range(2, p) if legendre(x, p) == -1)
        for d0 in (1, r, p):
            for omega in ("iota", "eps"):
                assert p_series(2, p, d0, omega, 4, mode="brute") == \
                    p_series_closed(2, p, d0, omega, 4), (p, d0, omega)
    # one quaternary spot check per prime (full grid in acceptance)
    assert p_series(4, 3, 1, "iota", 3, mode="brute") == \
        p_series_closed(4, 3, 1, "iota", 3)


def test_p_series_parity_invariant():
    s = p_series(2, 3, 3, "iota", 4, mode="brute")
    for k, v in s.coeffs.items():
        assert k % 2 == 1 or v.is_zero()


def test_p_series_eps_ramified_vanishes():
    assert not p_series_closed(4, 5, 5, "eps", 4).coeffs
    assert not p_series(2, 3, 3, "eps", 4, mode="brute").coeffs


def test_mass_fitted_two_power():
    expected = {
        A2: Fraction(1, 6), D4: Fraction(1, 576),
        A2A2: Fraction(1, 144), I4: Fraction(1, 192),
    }
    ratios = {Fraction(v) / mass_formula(G) for G, v in expected.items()}
    assert ratios == {Fraction(2)}


def test_jordan_reconstruction_audit():
    # the symbol's diagonal representative matches the input's det valuation,
    # per-scale det classes, and Hasse invariant
    from kmlift.plocal import symbol_diagonal, _diag_mat
    from kmlift.quadforms import hasse_invariant, mat_det
    from kmlift.characters import legendre
    cases = [(A2.rows(), 3), ([[2, 0], [0, 18]], 3), (D4.rows(), 3),
             ([[2, 1, 0], [1, 4, 1], [0, 1, 6]], 3),
             ([[2, 1], [1, 8]], 5)]
    for G, p in cases:
        sym = jordan_decompose(G, p)
        rep = _diag_mat(symbol_diagonal(sym, p))
        dG, dR = mat_det(G), mat_det(rep)
        vG = vR = 0
        while dG % p == 0:
            dG //= p
            vG += 1
        while dR % p == 0:
            dR //= p
            vR += 1
        assert vG == vR == sym.valuation()
        assert legendre(dG, p) == legendre(dR, p)
        assert hasse_invariant(G, p) == hasse_invariant(rep, p)


def test_zp_class_reconstruction_audit():
    from kmlift.plocal import symbol_diagonal, _diag_mat
    for sym in enumerate_zp_classes(4, 3, 1, 2):
        rep = _diag_mat(symbol_diagonal(sym, 3))
        back = jordan_decompose(rep, 3)
        assert back == sym


def _snf_valuations(M, p, cap):
    """Elementary divisor p-valuations (capped at cap) of the integer matrix,
    by a scalar Smith form over Z."""
    M = [row[:] for row in M]
    n = len(M)
    vals = []
    r = 0
    while r < n:
        best = None
        for i in range(r, n):
            for j in range(r, n):
                if M[i][j]:
                    v = _pval(M[i][j], p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None or best[0] >= cap:
            vals.extend([cap] * (n - r))
            break
        v, i, j = best
        M[r], M[i] = M[i], M[r]
        for row in M:
            row[r], row[j] = row[j], row[r]
        piv = M[r][r]
        for i in range(r + 1, n):
            if M[i][r]:
                f = _div_exact_mod(M[i][r], piv, p, cap)
                for k in range(r, n):
                    M[i][k] -= f * M[r][k]
        for k in range(r + 1, n):
            if M[r][k]:
                f = _div_exact_mod(M[r][k], piv, p, cap)
                for i in range(r, n):
                    M[i][k] -= f * M[i][r]
        vals.append(v)
        r += 1
    return vals[:n]


def _div_exact_mod(x, piv, p, cap):
    # x / piv in Z_p to precision p^(cap + margin); works since v(piv) <= v(x)
    mod = p ** (cap + 4)
    vp = _pval(piv, p) if piv else cap
    u = piv // p ** vp
    xv = x // p ** vp
    return xv * pow(u % mod, -1, mod) % mod


def _snf_bucket_ref(n, p, j, idx):
    q = p ** j
    M = [[0] * n for _ in range(n)]
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        M[a][b] = M[b][a] = idx % q
        idx //= q
    if all(x % p == 0 for row in M for x in row):
        return -1
    return sum(max(0, j - v) for v in _snf_valuations(M, p, j))


@pytest.mark.parametrize("n,p,j", [(1, 3, 3), (2, 3, 2), (2, 5, 2), (3, 3, 1),
                                   (4, 2, 1)])
def test_snf_buckets_match_scalar_smith_form(n, p, j):
    want = [_snf_bucket_ref(n, p, j, idx)
            for idx in range(p ** (j * n * (n + 1) // 2))]
    assert _snf_buckets(n, p, j).tolist() == want
    assert -1 in want


@pytest.mark.parametrize("n,p,j", [(4, 2, 2), (2, 5, 3)])
def test_snf_buckets_match_scalar_smith_form_sampled(n, p, j):
    table = _snf_buckets(n, p, j)
    rng = random.Random(100 * n + 10 * p + j)
    idxs = [rng.randrange(len(table)) for _ in range(2000)]
    # S = p S' for every S' mod p^(j-1): the -1 marker, without the zero matrix
    idxs.append(sum(p * ((k + 1) % p ** (j - 1)) * p ** (j * k)
                    for k in range(n * (n + 1) // 2)))
    assert [int(table[i]) for i in idxs] == \
        [_snf_bucket_ref(n, p, j, i) for i in idxs]
    assert table[idxs[-1]] == -1


def test_oracle_caps_refuse_with_computed_cost():
    # S_3(Z/27) has 27^6 entries: refused before any entry is classified
    cached = _snf_buckets.cache_info().currsize
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        _snf_buckets(3, 3, 3)
    assert exc.value.cost == 27 ** 6
    assert time.perf_counter() - t0 < 1.0
    assert _snf_buckets.cache_info().currsize == cached
    # degree 2 at n = 4, p = 3 needs the 3^20 table
    with pytest.raises(BudgetExceeded) as exc:
        _oracle_A_coeffs(I4, 3, 2)
    assert exc.value.cost == 3 ** 20


# Exact values taken before symmetric congruence reduction had one home:
# Jordan symbols at p = 3, 5 as (scale, dim, detclass) blocks, 2-adic
# constituents as (scale, dim, det mod 8, oddity), and Hasse invariants at
# (-1, 2, 3, 5).  The 2-adic pins are the pinned dyadic pivots (a unit mod 8,
# or H / V) regrouped by scale.  The forms reach every pivot rule: a diagonal
# pivot, an off-diagonal one that is folded into a diagonal (p odd, Q) and a
# 2x2 dyadic block.  The 2-adic constituents are not invariants (that needs
# oddity fusion and sign walking): the pivots of the last form depend on the
# order the rows left after a pivot keep.
PINNED_FORMS = [
    [[2, 1], [1, 2]],
    [[2, 0], [0, 18]],
    [[2, 1], [1, 8]],
    [[0, 1], [1, 0]],
    [[3, 1], [1, 3]],
    [[5, 1], [1, 5]],
    [[4, 2], [2, 4]],
    [[0, 2], [2, 0]],
    [[1, 0], [0, 3]],
    [[6, 3], [3, -12]],
    [[2, 1, 0], [1, 4, 1], [0, 1, 6]],
    [[6, 3, 0], [3, 6, 3], [0, 3, 12]],
    [[0, 5, 1], [5, 0, 3], [1, 3, 10]],
    [[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]],
    [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]],
    [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]],
    [[6, 3, 0, 0], [3, 6, 0, 0], [0, 0, 2, 1], [0, 0, 1, 50]],
    [[10, 5, 0, 5], [5, 0, 15, 1], [0, 15, 6, 3], [5, 1, 3, -4]],
    [[0, 6, 2, 0], [6, 4, 0, 9], [2, 0, 12, 3], [0, 9, 3, 8]],
    [[-6, 0, 9], [0, 8, 3], [9, 3, 81]],
]
PINNED_JORDAN = [
    (((0, 1, -1), (1, 1, -1)), ((0, 2, -1),)),
    (((0, 1, -1), (2, 1, -1)), ((0, 2, 1),)),
    (((0, 1, -1), (1, 1, 1)), ((0, 1, -1), (1, 1, 1))),
    (((0, 2, -1),), ((0, 2, 1),)),
    (((0, 2, -1),), ((0, 2, -1),)),
    (((0, 1, -1), (1, 1, 1)), ((0, 2, 1),)),
    (((0, 1, 1), (1, 1, 1)), ((0, 2, -1),)),
    (((0, 2, -1),), ((0, 2, 1),)),
    (((0, 1, 1), (1, 1, 1)), ((0, 2, -1),)),
    (((1, 1, -1), (3, 1, 1)), ((0, 2, 1),)),
    (((0, 3, 1),), ((0, 2, -1), (1, 1, 1))),
    (((1, 3, 1),), ((0, 2, -1), (1, 1, -1))),
    (((0, 3, -1),), ((0, 2, 1), (1, 1, 1))),
    (((0, 4, 1),), ((0, 4, 1),)),
    (((0, 2, 1), (1, 2, 1)), ((0, 4, 1),)),
    (((0, 3, 1), (1, 1, -1)), ((0, 4, -1),)),
    (((0, 1, -1), (1, 1, -1), (2, 2, -1)), ((0, 4, -1),)),
    (((0, 3, -1), (1, 1, -1)), ((0, 3, 1), (1, 1, -1))),
    (((0, 4, 1),), ((0, 4, 1),)),
    (((0, 1, -1), (1, 1, 1), (2, 1, 1)), ((0, 3, -1),)),
]
PINNED_DYADIC = [
    ((0, 2, 3, None),),
    ((1, 2, 1, 2),),
    ((0, 2, 7, None),),
    ((0, 2, 7, None),),
    ((0, 1, 3, 3), (3, 1, 3, 3)),
    ((0, 1, 5, 5), (3, 1, 7, 7)),
    ((1, 2, 3, None),),
    ((1, 2, 7, None),),
    ((0, 2, 3, 4),),
    ((0, 2, 7, None),),
    ((0, 2, 7, None), (3, 1, 3, 3)),
    ((0, 2, 3, None), (1, 1, 5, 5)),
    ((0, 2, 7, None), (2, 1, 7, 7)),
    ((0, 2, 3, None), (1, 2, 3, None)),
    ((0, 4, 1, None),),
    ((0, 2, 3, None), (1, 2, 7, None)),
    ((0, 4, 1, None),),
    ((0, 2, 7, None), (1, 2, 7, None)),
    ((0, 2, 7, None), (4, 1, 7, 7), (5, 1, 1, 1)),
    ((0, 2, 7, 0), (1, 1, 1, 1)),
]
PINNED_HASSE = [
    (1, 1, 1, 1), (1, 1, 1, 1), (1, -1, 1, -1), (-1, -1, 1, 1),
    (1, 1, 1, 1), (1, 1, 1, 1), (1, -1, -1, 1), (-1, -1, 1, 1),
    (1, -1, -1, 1), (-1, -1, 1, 1), (1, -1, 1, -1), (1, -1, 1, -1),
    (-1, -1, 1, 1), (1, 1, 1, 1), (1, -1, -1, 1), (-1, 1, -1, 1),
    (1, -1, -1, 1), (-1, -1, 1, 1), (-1, -1, 1, 1), (-1, -1, 1, 1),
]


@pytest.mark.parametrize("i", range(len(PINNED_FORMS)))
def test_pinned_jordan_dyadic_hasse(i):
    from kmlift.quadforms import hasse_invariant
    G = PINNED_FORMS[i]
    got = tuple(tuple((b.scale, b.dim, b.detclass)
                      for b in jordan_decompose(G, p).blocks) for p in (3, 5))
    assert got == PINNED_JORDAN[i]
    assert tuple((b.scale, b.dim, b.detclass, b.oddity)
                 for b in jordan_decompose(G, 2).blocks) == PINNED_DYADIC[i]
    assert tuple(hasse_invariant(G, p) for p in (-1, 2, 3, 5)) == PINNED_HASSE[i]


def test_pinned_mass_formula():
    # A2 takes the d < 0 branch of L(n/2, chi_d); the others d > 0
    assert mass_formula(A2) == Fraction(1, 12)
    assert mass_formula(D4) == Fraction(1, 1152)
    assert mass_formula(A2A2) == Fraction(1, 288)
    assert mass_formula(I4) == Fraction(1, 384)
