import ast
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import isqrt
from pathlib import Path

import kmlift

from kmlift.quadforms import (GramMat, automorphism_count,
                              automorphism_count_full, disc_split,
                              enumerate_classes, fundamental_split,
                              hasse_invariant, isometry_test, mat_det,
                              transform, vectors_of_norm)

A2 = GramMat([[2, 1], [1, 2]])
D4 = GramMat([[2, 0, 1, 0], [0, 2, -1, 0], [1, -1, 2, -1], [0, 0, -1, 2]])
I4 = GramMat([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])

_KMLIFT_ROOT = str(Path(kmlift.__file__).resolve().parent.parent)


def test_automorphism_counts():
    assert automorphism_count(A2) == 6
    assert automorphism_count_full(A2) == 12
    assert automorphism_count(I4) == 192
    assert automorphism_count(D4) == 576
    # e_N(T) = 1 for large N (identity only)
    assert automorphism_count(A2, 5) == 1


def test_isometry_invariants():
    assert isometry_test(GramMat([[2, 1, 0, 0], [1, 2, 0, 0],
                                  [0, 0, 2, 1], [0, 0, 1, 2]]), D4) is None
    U = isometry_test(A2, GramMat([[2, -1], [-1, 2]]))
    assert U is not None
    assert transform(A2.entries, U) == [[2, -1], [-1, 2]]
    assert mat_det(U) == 1


def _random_sl4(rng, steps):
    """A product of elementary matrices 1 + c E_ij (i != j, c = +-1)."""
    U = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(steps):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-1, 1))
        for r in range(4):
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
            U = _random_sl4(rng, 4)
            target = transform(G.entries, U)
            for _ in range(2):  # first call fills the pools, repeat reads them
                W = isometry_test(G, GramMat(target))
                assert W is not None
                assert transform(G.entries, W) == target
                assert mat_det(W) == 1
        assert G._pools
        assert hash(G) == h
        assert G == GramMat(G.rows()) and hash(G) == hash(GramMat(G.rows()))


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
    # box enumeration: v_i^2 <= t (G^-1)_ii = t det(G_ii) / det(G)
    n, det = len(G), mat_det(G)
    box = []
    for i in range(n):
        minor = [[G[a][b] for b in range(n) if b != i]
                 for a in range(n) if a != i]
        box.append(isqrt(t * mat_det(minor) // det) + 1)
    expect = sorted(
        v for v in itertools.product(*(range(-b, b + 1) for b in box))
        if sum(v[a] * G[a][b] * v[b] for a in range(n) for b in range(n)) == t)
    assert len(expect) == 6
    assert got == expect
