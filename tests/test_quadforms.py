import ast
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import isqrt, prod
from pathlib import Path

import pytest

import kmlift

from kmlift.quadforms import (ClassRecord, GramMat, _offdiag_symmetries,
                              automorphism_count, automorphism_count_full,
                              canonical_key, disc_split, enumerate_classes,
                              fundamental_split, hasse_invariant,
                              is_positive_definite, isometry_test, mat_det,
                              vectors_of_norm)

from gramtools import reference_isometry_search, transform

A2 = GramMat([[2, 1], [1, 2]])
D4 = GramMat([[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]])
I4 = GramMat([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
A2A2 = GramMat([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]])

_KMLIFT_ROOT = str(Path(kmlift.__file__).resolve().parent.parent)


def test_automorphism_counts():
    assert automorphism_count(A2) == 6
    assert automorphism_count_full(A2) == 12
    assert automorphism_count(I4) == 192
    assert automorphism_count(D4) == 576
    # e_N(T) = 1 for large N (identity only)
    assert automorphism_count(A2, 5) == 1


def test_isometry_invariants():
    assert isometry_test(A2A2, D4) is None
    U = isometry_test(A2, GramMat([[2, -1], [-1, 2]]))
    assert U is not None
    assert transform(A2.entries, U) == [[2, -1], [-1, 2]]
    assert mat_det(U) == 1


def _random_sl(rng, n, steps):
    """A product of elementary matrices 1 + c E_ij (i != j, c = +-1)."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for r in range(n):
            U[r][j] += c * U[r][i]
    return U


def test_isometry_witness_cold_and_warm_pools(classlist16):
    rng = random.Random(11)
    forms = [D4.rows(), I4.rows()] + [c.gram.rows()
                                      for c in classlist16.by_det(16)]
    for rows in forms:
        G = GramMat(rows)
        h = hash(G)
        for _ in range(3):
            U = _random_sl(rng, 4, 4)
            target = transform(G.entries, U)
            for _ in range(2):  # first call fills the caches, repeat reads them
                W = isometry_test(G, GramMat(target))
                assert W is not None
                assert transform(G.entries, W) == target
                assert mat_det(W) == 1
        assert G._pools and G._compat
        assert hash(G) == h
        assert G == GramMat(G.rows()) and hash(G) == hash(GramMat(G.rows()))


@pytest.mark.parametrize("n, B", [(2, 80), (3, 60), (4, 40)])
def test_isometry_search_matches_reference(n, B):
    rng = random.Random(n * 1000 + B)
    classes = [c.gram for c in enumerate_classes(n, B).classes]
    for G in classes:
        for N in (1, 2, 3, 7):
            assert automorphism_count(G, N) == reference_isometry_search(
                G, G, count_all=True, congruence=N), (G, N)
        assert automorphism_count_full(G) == reference_isometry_search(
            G, G, need_det=None, count_all=True), G
        for _ in range(2):
            target = GramMat(transform(G.entries, _random_sl(rng, n, 3 * n)))
            W = isometry_test(G, target)
            assert W == reference_isometry_search(G, target), (G, target)
            assert transform(G.entries, W) == target.rows() and mat_det(W) == 1
        for H in classes:
            if H != G and H.det() == G.det():
                assert isometry_test(G, H) is None
                assert reference_isometry_search(G, H) is None


@pytest.mark.parametrize("G, e, full", [(I4, 192, 384), (D4, 576, 1152),
                                        (A2A2, 144, 288)],
                         ids=["I4", "D4", "A2+A2"])
def test_orbit_counts_of_large_groups_match_the_leaf_walk(G, e, full):
    # the orbit-stabilizer count against the reference's leaf-by-leaf count,
    # on the forms whose groups are largest at n = 4
    for N in (1, 2, 3, 7):
        assert automorphism_count(G, N) == reference_isometry_search(
            G, G, count_all=True, congruence=N), N
    assert automorphism_count(G) == e
    assert automorphism_count_full(G) == reference_isometry_search(
        G, G, need_det=None, count_all=True) == full


def test_binary_form_without_improper_automorphisms():
    # the only automorphisms are +-1, so |O| = e = 2: a wrong sign in the
    # determinant would count neither
    F = GramMat([[4, -1], [-1, 10]])
    assert automorphism_count(F) == automorphism_count_full(F) == 2
    assert reference_isometry_search(F, F, count_all=True) == 2


# det(2T) <= 40 quaternary classes: multiset of (det, e), 43 classes
DET40_DET_E = {
    (4, 576): 1, (5, 120): 1, (8, 48): 1, (9, 144): 1, (12, 48): 2,
    (13, 24): 1, (16, 48): 1, (16, 192): 1, (17, 12): 1, (20, 12): 1,
    (20, 48): 2, (21, 24): 2, (24, 16): 1, (24, 24): 1, (24, 48): 1,
    (25, 36): 1, (28, 12): 1, (28, 16): 1, (28, 48): 1, (29, 12): 1,
    (29, 24): 1, (32, 12): 2, (32, 16): 1, (32, 48): 2, (33, 8): 1,
    (33, 12): 1, (33, 24): 1, (36, 24): 1, (36, 32): 1, (36, 48): 2,
    (36, 72): 1, (37, 6): 1, (37, 24): 1, (40, 8): 1, (40, 12): 1,
    (40, 16): 1, (40, 48): 1,
}


def test_class_table_det40(flagship):
    h, cl, table = flagship
    assert len(cl.classes) == 43
    assert Counter((c.gram.det(), c.e) for c in cl.classes) == DET40_DET_E


def test_class_enumeration_binary():
    cl3 = enumerate_classes(2, 3)
    assert len(cl3.classes) == 1
    assert cl3.classes[0].gram.det() == 3
    cl4 = enumerate_classes(2, 4)
    assert sorted(c.gram.det() for c in cl4.classes) == [3, 4]
    es = {c.gram.det(): c.e for c in cl4.classes}
    assert es == {3: 6, 4: 4}


def test_class_enumeration_quaternary(classlist16):
    dets = sorted(c.gram.det() for c in classlist16.classes)
    assert dets.count(4) == 1 and dets.count(9) == 1 and dets.count(16) == 2
    by16 = classlist16.by_det(16)
    assert sorted(c.e for c in by16) == [48, 192]


def test_enumeration_margin_stability():
    base = enumerate_classes(2, 8)
    wide = enumerate_classes(2, 8, margin=Fraction(8, 3))
    assert len(base.classes) == len(wide.classes)
    b4 = enumerate_classes(4, 12)
    w4 = enumerate_classes(4, 12, margin=2 * Fraction(4, 3) ** 6)
    assert len(b4.classes) == len(w4.classes)


def test_disc_split():
    assert tuple(disc_split(I4)) == (1, 4)
    assert tuple(disc_split(D4)) == (1, 2)
    assert tuple(disc_split(A2)) == (-3, 1)
    assert tuple(fundamental_split(9)) == (1, 3)
    assert tuple(fundamental_split(12)) == (12, 1)
    assert tuple(fundamental_split(20)) == (5, 2)
    assert tuple(fundamental_split(-4)) == (-4, 1)


def test_hasse_invariant():
    assert hasse_invariant([[1, 0], [0, 1]], 2) == 1
    assert hasse_invariant([[1, 0], [0, -1]], 2) == -1
    rng = random.Random(9)
    vals = [-5, -3, -2, -1, 1, 2, 3, 5, 6, 10]
    for _ in range(6):
        d = [rng.choice(vals) for _ in range(3)]
        A = [[d[i] if i == j else 0 for j in range(3)] for i in range(3)]
        prod = hasse_invariant(A, -1)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
            prod *= hasse_invariant(A, p)
        assert prod == 1


def test_vectors_of_norm():
    vs = vectors_of_norm(A2.entries, 2)
    assert len(vs) == 6          # minimal vectors of the hexagonal lattice
    vs4 = vectors_of_norm(I4.entries, 2)
    assert len(vs4) == 8


def _box_vectors(G, t):
    """{norm: sorted vectors} for every norm <= t, by enumerating the box
    v_i^2 <= t (G^-1)_ii = t det(G_ii) / det(G)."""
    n, det = len(G), mat_det(G)
    box = []
    for i in range(n):
        minor = [[G[a][b] for b in range(n) if b != i]
                 for a in range(n) if a != i]
        box.append(isqrt(t * mat_det(minor) // det) + 1)
    out = {}
    for v in itertools.product(*(range(-b, b + 1) for b in box)):
        q = sum(v[a] * G[a][b] * v[b] for a in range(n) for b in range(n))
        if q <= t:
            out.setdefault(q, []).append(v)
    return out


def test_vectors_of_norm_returns_on_empty_ranges():
    # This det-64 form reaches a coordinate with bound 0 and shift +-1/2,
    # where no integer fits; run in a child with a timeout so that a
    # regression fails instead of hanging the suite.
    G = [[2, 0, 0, -1], [0, 2, 0, -1], [0, 0, 4, -2], [-1, -1, -2, 6]]
    t = 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_KMLIFT_ROOT, env.get("PYTHONPATH")) if p)
    code = ("from kmlift.quadforms import vectors_of_norm; "
            f"print(sorted(vectors_of_norm({G}, {t})))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    got = ast.literal_eval(r.stdout)
    expect = sorted(_box_vectors(G, t).get(t, []))
    assert len(expect) == 6
    assert got == expect


def test_vectors_of_norm_matches_box_enumeration(flagship):
    h, cl, table = flagship
    forms = [c.gram.rows() for c in cl.classes]
    forms += [c.gram.rows() for c in enumerate_classes(2, 30).classes]
    forms += [c.gram.rows() for c in enumerate_classes(3, 30).classes]
    # not reduced, and with odd diagonal entries (odd norms occur)
    forms += [[[2, 5], [5, 14]], [[1, 0, 0], [0, 3, 1], [0, 1, 5]],
              [[6, -5, 4], [-5, 6, -3], [4, -3, 8]]]
    assert len(forms) == 43 + 23 + 25 + 3
    for G in forms:
        box = _box_vectors(G, 16)
        odd = any(G[i][i] % 2 for i in range(len(G)))
        for t in range(1 if odd else 2, 17, 1 if odd else 2):
            got = vectors_of_norm(G, t)
            assert sorted(got) == box.get(t, []), (G, t)
            assert got == sorted(got, key=lambda v: v[::-1]), (G, t)
    assert vectors_of_norm([[2]], 8) == [(-2,), (2,)]
    assert vectors_of_norm(A2.entries, -2) == []


@pytest.mark.parametrize("G", [[[2, 3], [3, 2]], [[2, 2], [2, 2]], [[-2]],
                               [[2, 0, 0], [0, 2, 0], [0, 0, 0]]])
def test_vectors_of_norm_rejects_indefinite_forms(G):
    with pytest.raises(ValueError):
        vectors_of_norm(G, 2)


# ---------------------------------------------------------------------------
# the orbit filter of enumerate_classes against an unfiltered enumeration

def _signed_permutations(n):
    for pi in itertools.permutations(range(n)):
        for s in itertools.product((1, -1), repeat=n):
            U = [[0] * n for _ in range(n)]
            for j in range(n):
                U[pi[j]][j] = s[j]
            yield U


def test_offdiag_symmetries_are_proper_signed_permutations():
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for shape in {tuple(map(d.index, d)) for d in
                      itertools.combinations_with_replacement(range(3), n)}:
            # a generic form with that pattern of equal diagonal entries
            G = [[0] * n for _ in range(n)]
            for i in range(n):
                G[i][i] = 100 + 10 * shape[i]
            a = (3, -5, 7, -11, 13, -17)[:len(pairs)]
            for (i, j), x in zip(pairs, a):
                G[i][j] = G[j][i] = x
            images = set()
            for U in _signed_permutations(n):
                GU = transform(G, U)
                if mat_det(U) == 1 and all(GU[i][i] == G[i][i]
                                           for i in range(n)):
                    images.add(tuple(GU[i][j] for i, j in pairs))
            images.discard(a)
            maps = _offdiag_symmetries(shape, pairs)
            assert len(maps) == len(images), (n, shape)
            assert {tuple(a[p] * sg for p, sg in zip(*m))
                    for m in maps} == images, (n, shape)


def _unfiltered_classes(n, B):
    """enumerate_classes without the orbit filter: every candidate of the
    reduction region, sorted by canonical_key, deduped by isometry_test."""
    cap = int(Fraction(4, 3) ** (n * (n - 1) // 2) * B) + 1
    pairs = list(itertools.combinations(range(n), 2))

    def diagonals(prefix):
        if len(prefix) == n:
            yield prefix
            return
        d = prefix[-1] if prefix else 2
        while prod(prefix) * d ** (n - len(prefix)) <= cap:
            yield from diagonals(prefix + (d,))
            d += 2

    cands = []
    for diag in diagonals(()):
        for a in itertools.product(*(range(-(min(diag[i], diag[j]) // 2),
                                           min(diag[i], diag[j]) // 2 + 1)
                                     for i, j in pairs)):
            G = [[diag[i] if i == j else 0 for j in range(n)]
                 for i in range(n)]
            for (i, j), x in zip(pairs, a):
                G[i][j] = G[j][i] = x
            if is_positive_definite(G) and mat_det(G) <= B:
                cands.append(GramMat(G))
    reps = []
    for G in sorted(cands, key=canonical_key):
        if not any(isometry_test(R, G) for R in reps):
            reps.append(G)
    return {"n": n, "det_bound": B, "classes": [
        ClassRecord(G, automorphism_count(G),
                    disc_split(G) if n % 2 == 0 else None).to_dict()
        for G in reps]}


@pytest.mark.parametrize("n, B", [(1, 30), (2, 80), (3, 60), (4, 24)])
def test_orbit_filter_keeps_every_representative(n, B):
    assert enumerate_classes(n, B).to_dict() == _unfiltered_classes(n, B)


def test_class_enumeration_scale():
    # past the det-40 acceptance bound; each det <= 60 class keeps its
    # representative at the larger bound
    cl60 = enumerate_classes(4, 60).to_dict()["classes"]
    cl100 = enumerate_classes(4, 100).to_dict()["classes"]
    assert len(cl60) == 90 and len(cl100) == 231
    assert [c for c in cl100 if c["det"] <= 60] == cl60
