import itertools
from fractions import Fraction

import numpy as np
import pytest

from kmlift.characters import char_group, jacobi_sum
from kmlift.charsums import (THM55_FORMS, BudgetExceeded, budget_limit,
                             Im_brute, Im_closed, Jm_brute, Jm_chi,
                             Jm_recursion, _sym_dt_table,
                             bordered_det_sum_brute,
                             bordered_det_sum_closed, chi_det_halfintegral,
                             count_A_brute,
                             count_A_closed, count_A_display, gamma_const,
                             h_brute_sl, h_closed, h_sum,
                             quad_char_sum_brute, root_weights, run_lemma51_suite,
                             thm56_constant, thm59_display,
                             run_lemma53_suite, run_prop510_suite,
                             run_prop54_suite, sl_gram_counts, sl_group_order,
                             sym_dettarget_trace_counts, _vectors)
from kmlift.exactalg import CycloNum, mat_det

from gramtools import (reference_rep_count, reference_sl_gram_counts,
                       reference_sym_tables, subgroup_Dm)


def test_lemma51_examples():
    assert count_A_brute([[1, 0], [0, 1]], [[1]], 3) == 4
    assert count_A_closed([[1, 0], [0, 1]], [[1]], 3) == 4
    assert count_A_display([[1, 0], [0, 1]], 1, 3) == 4
    # trivial-at-zero example (2): A(S, 0) counts
    assert count_A_brute([[1]], [[0]], 3) == 1
    assert count_A_brute(np.eye(2, dtype=int), [[0]], 3) == 1
    assert count_A_brute(np.eye(2, dtype=int), [[0]], 5) == 9


def test_lemma51_documented_discrepancy():
    # printed odd-m specialized display disagrees with brute at the two
    # documented grid points; the general formula is authoritative
    assert count_A_display([[1]], 1, 3) == 0
    assert count_A_brute([[1]], [[1]], 3) == 2
    assert count_A_closed([[1]], [[1]], 3) == 2
    S3 = np.eye(3, dtype=int)
    assert count_A_display(S3, 1, 3) == 12
    assert count_A_brute(S3, [[1]], 3) == 6
    assert count_A_closed(S3, [[1]], 3) == 6


def test_gamma_printed_vs_corrected():
    assert gamma_const(2, 3, "printed") == 2
    assert gamma_const(2, 3, "corrected") == 4
    assert gamma_const(2, 5, "printed") == gamma_const(2, 5, "corrected") == 4
    assert gamma_const(3, 5, "printed") == gamma_const(3, 5, "corrected") == 120


def test_lemma53_small():
    rep = run_lemma53_suite(primes=(5, 7), seed=1)
    assert rep.passed, rep.mismatches[:3]


def test_prop54_adjudication():
    rep = run_prop54_suite(primes=(5, 7))
    assert rep.passed
    # corrected matches everywhere; printed even-l fails off p = 1 mod 4
    G = char_group(7)
    eta = next(c for c in G if c.order == 3)
    Z1 = np.diag([1])
    b = bordered_det_sum_brute(eta, Z1, 1)
    assert bordered_det_sum_closed(eta, Z1, 1) == b
    assert bordered_det_sum_closed(eta, Z1, 1, "corrected") == b
    assert not (bordered_det_sum_closed(eta, Z1, 1, "printed") == b)


def test_Im_orthogonality_m1():
    G = char_group(7)
    for chi in G:
        for eta in G:
            v = Im_brute(chi, eta, 1)
            expect = Fraction(6) if (chi * eta).is_trivial() else 0
            if (chi * eta).is_trivial():
                assert v == expect
            # closed agrees wherever defined
            if not chi.is_trivial() and not (chi ** 2).is_trivial():
                assert Im_closed(chi, eta, 1) == v


def test_Jm_recursion_vs_brute_small():
    for p in (5, 7):
        G = char_group(p)
        chis = [c for c in G if not (c ** 2).is_trivial() and not c.is_trivial()]
        etas = [e for e in G if not e.is_trivial()]
        for chi in chis[:2]:
            for eta in etas[:2]:
                for m in (0, 1, 2, 3):
                    assert Jm_recursion(chi, eta, m) == Jm_brute(chi, eta, m)


def test_Jm_chi_factorization():
    chi35 = None
    for c in char_group(35):
        if (c ** 2).conductor == 35:
            chi35 = c
            break
    v = Jm_chi(chi35, 2)
    # against the direct composite brute J_2(chi (*/35), chi)
    from kmlift.charsums import jacobi_symbol_char
    jac = jacobi_symbol_char(35)
    direct = Jm_brute(chi35 * jac, chi35, 2)
    assert v == direct
    assert not v.is_zero()


def test_prop510():
    assert run_prop510_suite((5, 7, 11, 13)).passed


def test_chi_det_halfintegral():
    chi = next(c for c in char_group(5) if c.order == 4)
    # A = 1_2 as T: gram = 2*1_2, det T = 1 -> chi(1) = 1
    assert chi_det_halfintegral(chi, [[2, 0], [0, 2]]) == CycloNum.one()
    # gram det 12, m=2: 2^2 det A = 12 / ... = det(gram) = 12: value chibar(4)chi(12)
    g = [[2, 0], [0, 6]]
    v = chi_det_halfintegral(chi, g)
    assert v == chi(12) * chi(4).conjugate()
    tr = char_group(5).trivial()
    assert chi_det_halfintegral(tr, [[2, 1], [1, 2]]) == CycloNum.one()


def test_h_three_modes_agree():
    # the three h_sum modes on every primitive chi (the closed forms assume
    # it), the ternary form where chi^2 is primitive too; [[2,1],[1,4]]
    # gives h = 0 at every such chi mod 7 and 35, 2 * 1_2 does not
    binary = [[[2, 0], [0, 2]], [[2, 1], [1, 2]], [[4, 1], [1, 2]],
              [[2, 1], [1, 4]]]
    ternary = [[2, 1, 0], [1, 2, 0], [0, 0, 4]]
    nonzero = 0
    for N in (5, 7, 35):
        for chi in char_group(N):
            if not chi.is_primitive():
                continue
            grams = list(binary)
            if N != 35 and (chi ** 2).conductor == N:
                grams.append(ternary)
            for gram in grams:
                vals = [h_sum(gram, chi, mode)
                        for mode in ("brute_sl", "brute_sym", "closed")]
                assert vals[0] == vals[1] == vals[2], (chi.descriptor(), gram)
                nonzero += not vals[0].is_zero()
    assert nonzero > 0
    with pytest.raises(ValueError, match="unknown h_sum mode"):
        h_sum(binary[0], char_group(5).trivial(), "closed_form")


def test_root_weights_run_over_chi_tilde_times_Dm():
    # the lam of root_weights(chi, m) are chi~ D_{N,m}, and there are none
    # when chi has no m-th root
    for N in (5, 7, 35):
        G = char_group(N)
        for m in (2, 3, 4):
            for chi in G:
                got = [lam for lam, _ in root_weights(chi, m)]
                tilde = next((c for c in G if c ** m == chi), None)
                want = [] if tilde is None else \
                    [tilde * eta for eta in subgroup_Dm(G, m)]
                assert len(got) == len(set(got)) == len(want)
                assert set(got) == set(want), (chi.descriptor(), m)


def test_h_composite_modulus():
    # CRT brute against the Theorem 5.6 closed product form at N = 35, where
    # h(A_2, chi) vanishes at every primitive chi, and at N = 91 on A_2 and
    # 2 1_2, where some values do not
    a2, two = [[2, 1], [1, 2]], [[2, 0], [0, 2]]
    compared, nonzero = 0, 0
    for N, gram in ((35, a2), (91, a2), (91, two)):
        for chi in char_group(N):
            if not chi.is_primitive():
                continue
            b = h_brute_sl(gram, chi)
            assert b == h_closed(gram, chi), (chi.descriptor(), gram)
            compared += N == 91
            nonzero += not b.is_zero()
    assert compared == 110 and nonzero == 10


def test_h_conjugation_equivariance():
    gram = [[2, 1], [1, 4]]
    for chi in char_group(7):
        if chi.is_trivial():
            continue
        assert h_closed(gram, chi.conjugate()) == h_closed(gram, chi).conjugate()


def test_h_zero_branch_detection():
    # p=5, m=4: chi(u_0 = 2) != 1 for every primitive chi mod 5
    gram = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    for chi in char_group(5):
        if chi.is_trivial():
            continue
        assert h_closed(gram, chi).is_zero()


def test_erratum_functions_refuse_unknown_variant():
    # every printed-vs-corrected switch takes "corrected" or "printed" only;
    # a misspelt value is refused instead of selecting the corrected formula
    chi = next(c for c in char_group(7) if c.order == 3)
    calls = [lambda v: gamma_const(2, 7, v),
             lambda v: bordered_det_sum_closed(chi, np.diag([1]), 1, v),
             lambda v: Jm_recursion(chi, chi, 2, v),
             lambda v: thm59_display(chi, 0, 4, v),
             lambda v: h_closed([[2, 1], [1, 2]], chi, v),
             lambda v: thm56_constant(2, 7, v),
             lambda v: root_weights(chi, 2, v)]
    for call in calls:
        call("corrected")
        call("printed")
        with pytest.raises(ValueError, match="variant must be"):
            call("bogus")
    # refused also where the value would not be read: odd m, N = 1, branch (1)
    with pytest.raises(ValueError, match="variant must be"):
        gamma_const(3, 5, "bogus")
    with pytest.raises(ValueError, match="variant must be"):
        h_closed([[2]], char_group(1).trivial(), "bogus")
    with pytest.raises(ValueError, match="variant must be"):
        h_closed(np.diag([2, 2, 2, 2]).tolist(),
                 next(c for c in char_group(5) if c.order == 4), "bogus")


def test_printed_h_variants_mismatch_brute():
    # the printed displays of the trace sums against the SL brute force over
    # the Theorem 5.5/5.6 suite's binary forms and the nontrivial characters:
    # the conjugated first Jacobi factor (h_closed's printed variant), and the
    # printed sign exponent with the printed gamma (thm56_constant's)
    want = {5: {"corrected": 0, "h printed": 7, "constant printed": 0},
            7: {"corrected": 0, "h printed": 12, "constant printed": 8}}
    for p, points in ((5, 24), (7, 40)):
        chis = [chi for chi in char_group(p) if not chi.is_trivial()]
        cases = [(gram, chi, h_brute_sl(gram, chi))
                 for gram in THM55_FORMS[2] for chi in chis]
        assert len(cases) == points
        scale = thm56_constant(2, p, "printed") / thm56_constant(2, p)
        got = {"corrected": sum(not (h_closed(gram, chi) == b)
                                for gram, chi, b in cases),
               "h printed": sum(not (h_closed(gram, chi, "printed") == b)
                                for gram, chi, b in cases),
               "constant printed": sum(not (h_closed(gram, chi) * scale == b)
                                       for gram, chi, b in cases)}
        assert got == want[p], p


def test_quad_char_sum_scaling_corollary():
    p = 7
    eta = next(c for c in char_group(p) if c.order == 3)
    S = np.diag([1, 2])
    from kmlift.charsums import _rank_and_det0
    from kmlift.characters import legendre
    r, _ = _rank_and_det0(S, p)
    base = quad_char_sum_brute(eta, S, 1)
    for d in (2, 3, 4):
        lhs = quad_char_sum_brute(eta, S, d % p)
        assert lhs == base * eta(d) * Fraction(legendre(d, p) ** r)


def test_h_composite_direct_enumeration():
    # direct sweep of SL_2(Z/35) against the CRT-product brute and the closed
    # Theorem 5.6 product form
    import numpy as np
    from kmlift.charsums import _digit_arrays, gram_mod_p
    N = 35
    gram = [[2, 1], [1, 2]]
    A = np.asarray(gram, dtype=np.int64) * pow(2, -1, N) % N
    counts = np.zeros(N, dtype=np.int64)
    total = N ** 4
    for lo in range(0, total, 1 << 20):
        hi = min(total, lo + (1 << 20))
        a, b, c, d = _digit_arrays(lo, hi, N, 4)
        det = (a * d - b * c) % N
        mask = det == 1
        if not mask.any():
            continue
        a, b, c, d = a[mask], b[mask], c[mask], d[mask]
        # tr(A[X]) = A00 (a^2 + c^2) + 2 A01 (ab + cd) + A11 (b^2 + d^2), X columns (a,c),(b,d)
        tr = (int(A[0, 0]) * (a * a + c * c) + 2 * int(A[0, 1]) * (a * b + c * d)
              + int(A[1, 1]) * (b * b + d * d)) % N
        np.add.at(counts, tr, 1)
    for chi in char_group(35):
        if not chi.is_primitive():
            continue
        direct = _weight_counts_local(counts, chi)
        assert direct == h_brute_sl(gram, chi)
        assert direct == h_closed(gram, chi)


def _weight_counts_local(counts, chi):
    from kmlift.charsums import _weight_counts
    return _weight_counts(counts, chi)


# ---------------------------------------------------------------------------
# exhaustive kernels against reference enumerations written here

def _ref_dettarget_counts(m, N, forms):
    """{(form index, det mod N): counts over tr(BZ)} over every Z in
    S_m(Z/N), one Python loop per symmetric matrix."""
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    ref = {}
    for ent in itertools.product(range(N), repeat=len(pairs)):
        Z = [[0] * m for _ in range(m)]
        for (i, j), v in zip(pairs, ent):
            Z[i][j] = Z[j][i] = v
        d = mat_det(Z) % N
        for f, B in enumerate(forms):
            t = sum(B[i][j] * Z[j][i] for i in range(m) for j in range(m)) % N
            ref.setdefault((f, d), [0] * N)[t] += 1
    return ref


def _forms(m, N, rng):
    """A symmetric, a non-symmetric, a mostly zero and the zero form."""
    sym = rng.integers(0, N, size=(m, m))
    odd = rng.integers(0, N, size=(m, m))
    corner = np.zeros((m, m), dtype=np.int64)
    corner[m - 1, 0] = 1
    return [(sym + sym.T) % N, odd, corner, np.zeros((m, m), dtype=np.int64)]


@pytest.mark.parametrize("m,N", [(1, 3), (1, 7), (1, 9), (1, 15), (2, 3),
                                 (2, 5), (2, 6), (2, 7), (2, 9), (2, 15),
                                 (3, 3), (3, 5), (3, 7), (4, 3)])
def test_sym_dettarget_trace_counts_matches_reference(m, N):
    rng = np.random.default_rng(10 * m + N)
    forms = _forms(m, N, rng)
    ident = len(forms)
    ref = _ref_dettarget_counts(
        m, N, [B.tolist() for B in forms] + [np.eye(m, dtype=int).tolist()])
    for det_target in range(N):
        got = sym_dettarget_trace_counts(forms[0], N, det_target, forms=forms)
        for f in range(len(forms)):
            expect = ref.get((f, det_target), [0] * N)
            assert got[f].tolist() == expect, (f, det_target)
        # a single form returns its counts directly, a list of forms a list
        one = sym_dettarget_trace_counts(forms[1], N, det_target)
        assert one.tolist() == ref.get((1, det_target), [0] * N)
        listed = sym_dettarget_trace_counts(forms[0], N, det_target,
                                            forms=[forms[1]])
        assert isinstance(listed, list) and len(listed) == 1
        assert listed[0].tolist() == one.tolist()
    # the full (det, trace) table behind Im_brute / Jm_brute, B = 1_m
    table = _sym_dt_table(m, N)
    for d in range(N):
        assert table[d].tolist() == ref.get((ident, d), [0] * N), d


def test_sym_dettarget_trace_counts_every_cell_counted():
    # summed over det targets, each of the N^E symmetric matrices once
    for m, N in ((2, 6), (3, 4)):
        B = np.arange(m * m).reshape(m, m)
        total = sum(sym_dettarget_trace_counts(B, N, d).sum() for d in range(N))
        assert total == N ** (m * (m + 1) // 2)


@pytest.mark.parametrize("m,N,nforms", [(4, 5, 3), (2, 35, 4), (2, 81, 4),
                                         (1, 7, 4), (1, 60, 4)])
def test_sym_tables_match_the_per_cell_reduced_sweep(m, N, nforms):
    # (4, 5) with 3 forms is the shape of the benchmark's Thm 5.6 oracle; 35
    # is composite; at (2, 81) the (2N - 1) N^2 bins of the dense tally pass
    # the chunk size, so the per-chunk branch runs without a patched _CHUNK;
    # m = 1 borders the empty matrix
    from kmlift import charsums
    forms = _forms(m, N, np.random.default_rng(m * N))[:nforms]
    assert ((2 * N - 1) * N * N > charsums._CHUNK) == (N == 81)
    got = charsums._sym_tables(forms, N)
    want = reference_sym_tables(forms, N)
    assert [t.tolist() for t in got] == [t.tolist() for t in want]


def test_sym_tables_mod_1():
    # one matrix, of det 0 and trace 0; m = 1 used to fail, its det 1 unreduced
    from kmlift import charsums
    for m in (1, 2, 3):
        assert charsums._sym_tables([np.eye(m)], 1)[0].tolist() == [[1]]


def test_sym_tables_without_the_dense_tally(monkeypatch):
    # with (2N - 1) N^2 bins over the chunk size (every case here, at
    # _CHUNK = 16), each chunk goes to the z step alone:
    # one _border_z call per chunk and form instead of one per form (m = 1
    # sweeps a single chunk, where both branches make the same calls).
    # (1, 7), (2, 5) and (3, 5) are checked by enumeration; (2, 6) and (4, 3)
    # take the forms that the reference test draws at their shape, so their
    # dense tables are the ones it has checked.
    from kmlift import charsums
    cases = []
    for m, N in ((1, 7), (2, 5), (3, 5)):
        forms = _forms(m, N, np.random.default_rng(N))
        ref = _ref_dettarget_counts(m, N, [B.tolist() for B in forms])
        cases.append((m, N, forms, [[ref.get((f, d), [0] * N)
                                     for d in range(N)]
                                    for f in range(len(forms))]))
    for m, N in ((2, 6), (4, 3)):
        forms = _forms(m, N, np.random.default_rng(10 * m + N))
        cases.append((m, N, forms, [t.tolist() for t in
                                    charsums._sym_tables(forms, N)]))
    monkeypatch.setattr(charsums, "_CHUNK", 16)
    calls = []
    border_z = charsums._border_z
    monkeypatch.setattr(charsums, "_border_z",
                        lambda *a: calls.append(1) or border_z(*a))
    for m, N, forms, want in cases:
        calls.clear()
        got = charsums._sym_tables(forms, N)
        assert [t.tolist() for t in got] == want, (m, N)
        assert len(calls) > len(forms) or m == 1, (m, N)


def _ref_count_A(S, T, p):
    """#{Y : Y_i S Y_j^t = T[i, j] for i <= j} over every Y in F_p^{r x m}."""
    m, r = len(S), len(T)
    count = 0
    for ent in itertools.product(range(p), repeat=r * m):
        Y = [ent[i * m:(i + 1) * m] for i in range(r)]
        count += all(
            sum(Y[i][a] * S[a][b] * Y[j][b] for a in range(m)
                for b in range(m)) % p == T[i][j] % p
            for i in range(r) for j in range(i, r))
    return count


def _count_A_cases():
    rng = np.random.default_rng(51)
    cases = []
    for p, m, r in ((3, 2, 2), (5, 2, 2), (7, 2, 2), (3, 3, 2), (3, 2, 3),
                    (2, 2, 4), (3, 3, 3), (2, 3, 4), (5, 1, 3), (3, 4, 2)):
        S = rng.integers(0, p, size=(m, m))
        T = rng.integers(0, p, size=(r, r))
        cases.append((S + S.T, T + T.T, p))      # symmetric, non-diagonal
        cases.append((S, T, p))                  # non-symmetric
        low = np.outer(S[0], S[0]) % p           # rank <= 1
        cases.append((low, T + T.T, p))
        cases.append((S + S.T, np.outer(T[0], T[0]) % p, p))
        cases.append((S + S.T, np.zeros((r, r), dtype=np.int64), p))
    return cases


def test_count_A_brute_matches_reference():
    for S, T, p in _count_A_cases():
        got = count_A_brute(S, T, p)
        assert got == _ref_count_A(S.tolist(), T.tolist(), p), (S, T, p)


def test_count_A_brute_edge_shapes():
    S = np.array([[1, 2], [2, 0]])
    assert count_A_brute(S, np.zeros((0, 0), dtype=np.int64), 5) == 1
    assert count_A_brute(S, [[3]], 5) == _ref_count_A(S.tolist(), [[3]], 5)
    assert count_A_brute(np.zeros((2, 2), dtype=np.int64),
                         np.zeros((5, 5), dtype=np.int64), 2) == 2 ** 10


def _rep_kernel_cases():
    """(X, S, T, q, dq) inputs of ``charsums._rep_count`` with three or four
    rows: the Lemma 5.1 cases, two quaternary automorphism counts (the
    dyadic diagonal read mod 2q) and candidate lists that are or become
    empty."""
    cases = [(_vectors(0, p ** len(S), p, len(S)), S, T, p, p)
             for S, T, p in _count_A_cases() if len(T) >= 3]
    for A, p, a in (([[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1],
                      [1, 1, 1, 2]], 2, 2), (np.diag([2, 2, 2, 6]), 3, 1)):
        A, q = np.asarray(A, dtype=np.int64), p ** a
        cases.append((_vectors(0, q ** 4, q, 4), A, A, q,
                      2 * q if p == 2 else q))
    # x S x^t = x_0^2 mod 3: no row has norm 2, and no two norm-1 rows are
    # orthogonal, so the pairs or the filtered lists run out
    S = np.array([[1, 0], [0, 0]])
    for T in (np.diag([1, 1, 2]), np.eye(3, dtype=np.int64),
              np.eye(4, dtype=np.int64), np.ones((4, 4), dtype=np.int64)):
        cases.append((_vectors(0, 9, 3, 2), S, T, 3, 3))
    return cases


@pytest.mark.parametrize("chunk", [None, 64])
def test_rep_count_matches_row_by_row_reference(monkeypatch, chunk):
    # a chunk of 64 makes the pair tables cross block edges and sends the
    # larger candidate lists to the per-candidate loop
    from kmlift import charsums
    if chunk:
        monkeypatch.setattr(charsums, "_CHUNK", chunk)
    for X, S, T, q, dq in _rep_kernel_cases():
        S, T = np.asarray(S, dtype=np.int64), np.asarray(T, dtype=np.int64)
        assert charsums._rep_count(X, S, T, q, dq) == \
            reference_rep_count(X, S, T, q, dq), (S, T, q)


def test_exhaustive_kernels_budget_pins():
    A = np.array([[1, 2, 0], [2, 0, 1], [0, 1, 3]])
    cost = 5 ** 6
    with budget_limit(cost - 1), pytest.raises(BudgetExceeded) as exc:
        sym_dettarget_trace_counts(A, 5, 1)
    assert exc.value.cost == cost
    with budget_limit(cost):
        assert sym_dettarget_trace_counts(A, 5, 1).sum() > 0
    for m, p in ((2, 5), (3, 3)):
        cost = p ** (m * m)
        with budget_limit(cost - 1), pytest.raises(BudgetExceeded) as exc:
            sl_gram_counts.__wrapped__(m, p)
        assert exc.value.cost == cost
        with budget_limit(cost):
            assert sl_gram_counts.__wrapped__(m, p).sum() == \
                sl_group_order(m, p)
    S, T = np.eye(3, dtype=np.int64), np.array([[1, 1], [1, 2]])
    cost = 3 ** (2 * 3)
    with budget_limit(cost - 1), pytest.raises(BudgetExceeded) as exc:
        count_A_brute(S, T, 3)
    assert exc.value.cost == cost
    with budget_limit(cost):
        assert count_A_brute(S, T, 3) == _ref_count_A(S.tolist(),
                                                      T.tolist(), 3)


def _echelon_rank_mod(M, p):
    """Rank over F_p by plain row reduction (a reference for the tests)."""
    M = [[x % p for x in row] for row in M]
    rank = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], -1, p)
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c] * inv % p
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def _random_symmetric_of_rank(rng, m, r, p):
    """B^t D B mod p with B an r x m matrix and D = diag of units: rank <= r."""
    B = rng.integers(0, p, size=(r, m))
    D = np.diag(rng.integers(1, p, size=r))
    return (B.T @ D @ B % p).tolist()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_rank_and_det0_against_references(p):
    from kmlift.characters import legendre
    from kmlift.charsums import _rank_and_det0
    rng = np.random.default_rng(100 + p)
    cases = [[[0]], [[0, 0], [0, 0]], [[0, 1], [1, 0]], [[p, 1], [1, p]]]
    for m in range(1, 6):
        for r in range(0, m + 1):
            cases += [_random_symmetric_of_rank(rng, m, r, p) for _ in range(4)]
    for S in cases:
        r, det0 = _rank_and_det0(np.asarray(S), p)
        assert r == _echelon_rank_mod(S, p), S
        if r == 0:
            continue
        # a symmetric matrix of rank r has a nonsingular principal r x r
        # minor, and its square class is that of the nondegenerate part
        minor = next(d for idx in itertools.combinations(range(len(S)), r)
                     if (d := mat_det([[S[i][j] for j in idx]
                                       for i in idx]) % p))
        assert legendre(det0, p) == legendre(minor, p), S


# zero forms made the accumulators of these kernels stay the int 0: one
# term per chunk instead of one per cell, or a crash on .sum()/bincount
KERNEL_FORMS = [[[0, 0], [0, 0]], [[0, 0], [0, 3]], [[1, 2], [2, 0]],
                [[2, 1], [1, 4]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                [[1, 0, 2], [0, 0, 1], [2, 1, 3]]]


def _qform(S, w):
    return sum(S[a][b] * w[a] * w[b] for a in range(len(w)) for b in range(len(w)))


@pytest.mark.parametrize("S", KERNEL_FORMS)
def test_count_A0_brute_matches_product(S):
    # A(S, 0) = #{w : S[w] = 0}, the one-row case of count_A_brute
    for p in (3, 5):
        want = sum(_qform(S, w) % p == 0
                   for w in itertools.product(range(p), repeat=len(S)))
        assert count_A_brute(S, [[0]], p) == want


@pytest.mark.parametrize("S", KERNEL_FORMS)
def test_quad_char_sum_brute_matches_product(S):
    from kmlift.charsums import legendre_char
    for eta in (legendre_char(5), next(e for e in char_group(5) if e.order == 4)):
        for c in (0, 1, 3):
            want = CycloNum.zero()
            for w in itertools.product(range(5), repeat=len(S)):
                want = want + eta((_qform(S, w) + c) % 5)
            assert quad_char_sum_brute(eta, S, c) == want


@pytest.mark.parametrize("Z1", KERNEL_FORMS)
def test_bordered_det_sum_brute_matches_product(Z1):
    from kmlift.charsums import legendre_char
    eta = legendre_char(5)
    k = len(Z1)
    for z in (0, 1, 2):
        want = CycloNum.zero()
        for w in itertools.product(range(5), repeat=k):
            Z = [list(Z1[i]) + [w[i]] for i in range(k)] + [list(w) + [z]]
            want = want + eta(mat_det(Z) % 5)
        assert bordered_det_sum_brute(eta, Z1, z) == want


@pytest.mark.parametrize("A", [[[0, 0], [0, 0]], [[0, 0], [0, 1]],
                               [[1, 1], [1, 2]], [[2, 0], [0, 1]]])
def test_sl_trace_counts_matches_product(A):
    from kmlift.charsums import sl_trace_counts
    p = 3
    want = [0] * p
    for x in itertools.product(range(p), repeat=4):
        X = [[x[0], x[1]], [x[2], x[3]]]
        if mat_det(X) % p != 1:
            continue
        # tr(A[X]) = tr(X^t A X)
        want[sum(X[a][i] * A[a][b] * X[b][i]
                 for a in range(2) for b in range(2) for i in range(2)) % p] += 1
    assert sl_trace_counts(A, p).tolist() == want


def _det_mod(X, p):
    # Leibniz expansion, sign from the inversion count
    m = len(X)
    d = 0
    for perm in itertools.permutations(range(m)):
        inv = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        term = (-1) ** inv
        for i in range(m):
            term *= X[i][perm[i]]
        d += term
    return d % p


@pytest.mark.parametrize("m,p", [(1, 5), (2, 5), (2, 7), (3, 3)])
def test_sl_gram_counts_match_full_sweep(m, p):
    upper = [(a, b) for a in range(m) for b in range(a, m)]
    want = [0] * p ** len(upper)
    for x in itertools.product(range(p), repeat=m * m):
        X = [x[i * m:(i + 1) * m] for i in range(m)]
        if _det_mod(X, p) != 1:
            continue
        want[sum(sum(X[a][i] * X[b][i] for i in range(m)) % p * p ** e
                 for e, (a, b) in enumerate(upper))] += 1
    assert sl_gram_counts(m, p).tolist() == want


@pytest.mark.parametrize("chunk", [None, 64])
def test_sl_gram_counts_match_bordered_reference(monkeypatch, chunk):
    # the one-row-bordered sweep over every cell of F_p^{m x m}; at (2, 37)
    # p^4 passes the chunk size, and a chunk of 64 makes every cofactor block
    # and row block small
    from kmlift import charsums
    shapes = ((1, 5), (2, 5), (2, 7), (3, 3), (3, 5), (2, 37))
    want = [reference_sl_gram_counts(m, p).tolist() for m, p in shapes]
    if chunk:
        monkeypatch.setattr(charsums, "_CHUNK", chunk)
    for (m, p), table in zip(shapes, want):
        assert charsums.sl_gram_counts.__wrapped__(m, p).tolist() == table, \
            (m, p)


@pytest.mark.parametrize("m,p", [(3, 5), (4, 3)])
def test_sl_gram_counts_total_is_sl_order(m, p):
    order = p ** (m * (m - 1) // 2)
    for i in range(2, m + 1):
        order *= p ** i - 1
    assert int(sl_gram_counts(m, p).sum()) == order
