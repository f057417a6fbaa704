import hashlib
import random
from fractions import Fraction

import pytest

from kmlift.characters import char_group, parse_descriptor
from kmlift.charsums import thm56_constant, zero_branch
from kmlift.exactalg import CycloNum
from kmlift.liftkm import (admissible_indices, build_coeff_table,
                           build_plus_eigenform, hecke_Tp2, ikeda_coeff,
                           km_stream, rm_chi_assemble,
                           satake_symmetric_eval, verify_thm41, verify_thm42,
                           verify_thm511_61)
from kmlift.plocal import siegel_series
from kmlift.quadforms import GramMat

from gramtools import transform


def test_plus_eigenform_shimura_audit(flagship):
    h, cl, table = flagship
    assert h.eigenvalues == {2: -24, 3: 252, 5: 4830}
    assert h.coeff(1) == 1
    for e in range(200):
        if e % 4 in (2, 3):
            assert h.coeff(e) == 0
    # eigenvalues equal the Shimura correspondent's Hecke eigenvalues
    for p in (2, 3, 5):
        assert h.eigenvalues[p] == h.shimura.coeff(p)


def test_plus_eigenform_refuses_weights_without_one_dim_cusp_space():
    # S_14 = 0 (k = 8, n = 2) and dim S_24 = 2 (k = 14, n = 4)
    for k, n in ((8, 2), (14, 4)):
        with pytest.raises(ValueError):
            build_plus_eigenform(k, n, prec=40)


def test_fitted_constants_do_not_depend_on_k(flagship):
    # S(h) = Delta, Delta E_4, Delta E_4^2: (c_4, d_4) and (c_{4,7}, d_{4,7})
    # are the same at every weight
    h8, cl, table8 = flagship
    chi7 = parse_descriptor("7:2")
    for k in (8, 10, 12):
        h = h8 if k == 8 else build_plus_eigenform(k, 4, prec=260)
        for p in (2, 3, 5):
            assert h.shimura.coeff(p) == h.eigenvalues[p]
        table = table8 if k == 8 else build_coeff_table(cl, h, k, 4)
        rep = verify_thm41(h, char_group(1)[0], table, k, 4, 40)
        assert rep.passed, k
        assert rep.constants == {"c_n": "-1/48", "d_n": "-1/576"}, k
        cn, dn = (CycloNum.from_rational(Fraction(rep.constants[c]))
                  for c in ("c_n", "d_n"))
        rep7 = verify_thm511_61(h, chi7, table, k, 4, 40, cn=cn, dn=dn)
        assert rep7.passed, k
        assert (rep7.constants["c_{n,N}"], rep7.constants["d_{n,N}"]) == \
            ("-16464/1", "-1372/1"), k


def _qexp_sha(f, prec=260):
    text = ",".join(str(Fraction(f.coeff(e))) for e in range(prec))
    return hashlib.sha256(text.encode()).hexdigest()


def test_plus_eigenform_coefficients_pinned(flagship):
    # c_h(e) and c_Delta(e) for e < 260, digests taken before the q-expansion
    # layer moved to integer kernels
    h, cl, table = flagship
    assert _qexp_sha(h.qexp) == \
        "1e85a59683646a4c9d2ade6a44c5720cbc639b391e9924c5ee0e07968682d565"
    assert _qexp_sha(h.shimura) == \
        "a30de5852337eb2d49c193b27f72deb5240ffdc0e70f791fd795ad0404f4b2cf"


def test_satake_symmetric_two_path(flagship):
    h, cl, table = flagship
    k, n = 8, 4
    rng = random.Random(12)
    for rec, _ in table.classes[:6]:
        d, f = rec.disc.d, rec.disc.f
        for p in (2, 3, 5):
            if f % p:
                continue
            sp = siegel_series(rec.gram, p, mode="stratified")
            cp = Fraction(h.shimura.coeff(p))
            v1 = satake_symmetric_eval(sp, cp, k, n)
            # second path: arithmetic in Q[x]/(x^2 - cp x + p^(2k-n-1)),
            # evaluating the full Laurent sum at the root and its swap
            e2 = Fraction(p) ** (2 * k - n - 1)
            for root_swap in (False, True):
                acc = (Fraction(0), Fraction(0))   # a + b*alpha
                for j, c in enumerate(sp.fcoeffs):
                    t = j - sp.nu_f
                    # alpha^t with alpha the chosen root; swap uses e2/alpha
                    pw = _alpha_power(t, cp, e2, root_swap)
                    scale = Fraction(c) * Fraction(p) ** (k * (sp.nu_f - t)) \
                        / Fraction(p) ** ((n + 1) * sp.nu_f)
                    acc = (acc[0] + scale * pw[0], acc[1] + scale * pw[1])
                assert acc[1] == 0, "value must be rational"
                assert acc[0] == v1


def _alpha_power(t, cp, e2, swap):
    """(a, b) with alpha^t = a + b alpha in Q[x]/(x^2 - cp x + e2); the swapped
    root is e2/alpha = cp - alpha."""
    a, b = Fraction(1), Fraction(0)
    base = (Fraction(0), Fraction(1)) if not swap else (cp, Fraction(-1))
    steps = abs(t)
    for _ in range(steps):
        if t > 0:
            a, b = _qmul((a, b), base, cp, e2)
        else:
            a, b = _qmul((a, b), _qinv(base, cp, e2), cp, e2)
    return (a, b)


def _qmul(x, y, cp, e2):
    a, b = x
    c, d = y
    # (a + b al)(c + d al) = ac + (ad + bc) al + bd al^2, al^2 = cp al - e2
    return (a * c - b * d * e2, a * d + b * c + b * d * cp)


def _qinv(x, cp, e2):
    # multiply by the conjugate a + b(cp - alpha); the product is rational
    a, b = x
    norm, d = _qmul((a, b), (a + b * cp, -b), cp, e2)
    assert d == 0 and norm != 0
    return ((a + b * cp) / norm, -b / norm)


def test_ikeda_coeff_basics(flagship):
    h, cl, table = flagship
    vals = {rec.gram.det(): v for rec, v in table.classes}
    # f_T = 1: empty product, c = c_h(|d|)
    assert vals[5] == h.coeff(5)
    assert vals[13] == h.coeff(13)
    # genus invariance across classes of det 28 and 33 (same genus)
    for D in (28, 33):
        got = {v for rec, v in table.classes if rec.gram.det() == D}
        assert len(got) == 1, (D, got)


def test_ikeda_genus_invariance_under_sl(flagship):
    h, cl, table = flagship
    rng = random.Random(5)
    rec, v = table.classes[2]
    G = rec.gram
    n = G.n
    for _ in range(3):
        U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(3):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-1, 1])
            for r in range(n):
                U[r][j] += c * U[r][i]
        G2 = GramMat(transform(G.entries, U))
        assert ikeda_coeff(G2, h, 8, 4) == v


def test_verify_thm41_flagship(flagship):
    h, cl, table = flagship
    tr = char_group(1)[0]
    rep = verify_thm41(h, tr, table, 8, 4, 40)
    assert rep.passed
    assert rep.constants["c_n"] == "-1/48"
    assert rep.constants["d_n"] == "-1/576"
    chi5 = parse_descriptor("5:1")
    rep5 = verify_thm41(h, chi5, table, 8, 4, 40)
    assert rep5.passed
    assert rep5.constants == rep.constants      # depend only on n


def test_no_pass_without_a_checked_index(flagship):
    # bound 1 leaves no fit pair; bound 0 leaves no index at all
    h, cl, table = flagship
    rep = verify_thm41(h, char_group(1)[0], table, 8, 4, bound=1)
    assert rep.residuals == [] and not rep.passed
    rep = verify_thm511_61(h, parse_descriptor("7:2"), table, 8, 4, bound=0)
    assert rep.residuals == [] and not rep.passed
    assert "checked" not in rep.to_dict()


def test_zero_branch_detector():
    for chi in char_group(5):
        if not chi.is_trivial():
            assert zero_branch(chi, 4)
    chi7 = parse_descriptor("7:2")
    assert not zero_branch(chi7, 4)


def test_verify_thm511_61(flagship):
    h, cl, table = flagship
    chi7 = parse_descriptor("7:2")
    cn = CycloNum.from_rational(Fraction(-1, 48))
    dn = CycloNum.from_rational(Fraction(-1, 576))
    rep = verify_thm511_61(h, chi7, table, 8, 4, 40, cn=cn, dn=dn)
    assert rep.passed
    assert rep.constants["c_{n,N}"] == "-16464/1"
    assert rep.constants["d_{n,N}"] == "-1372/1"
    # the constants factor through the Theorem 5.6 prefactor
    assert thm56_constant(4, 7) * Fraction(-1, 48) == -16464


def test_classes_past_the_stratified_degree_are_excluded():
    # at det 81 the stratified route would need deg F_3 = 4: the five det-81
    # classes are excluded with a report entry, index 81 is skipped with a
    # note, and every other index is still checked; below det 81 only the
    # dyadic cap excludes
    from kmlift.quadforms import enumerate_classes
    h = build_plus_eigenform(8, 4, prec=81 * 6 + 10)
    table = build_coeff_table(enumerate_classes(4, 81), h, 8, 4)
    assert len(table.classes) == 94
    reasons = [(x["det"], x["reason"]) for x in table.excluded]
    assert [r for r in reasons if r[0] == 81] == [(81, "deg F_3 = 4 > 2")] * 5
    assert all(r.startswith("nu_2(") for D, r in reasons if D < 81)
    note = "indices skipped, a class of that det is excluded: [81]"
    idxs = admissible_indices(81)
    rep = verify_thm41(h, char_group(1)[0], table, 8, 4, 81)
    assert rep.passed and note in rep.notes
    assert rep.checked == len(idxs) - 3       # the fit pair and D = 81
    rep = verify_thm511_61(h, parse_descriptor("7:2"), table, 8, 4, 81)
    assert rep.passed and rep.notes == [note]
    assert rep.checked == len(idxs) - 1


def test_verify_thm511_61_at_composite_modulus(flagship, classlist16):
    # 91:2,4 is primitive with components of order 3, so it is not in
    # branch (1) and chi^4 = chi is primitive; the imprimitive 35:0,2 is
    # refused by the closed h and by the section-7 guard
    h = flagship[0]
    table = build_coeff_table(classlist16, h, 8, 4)
    chi = parse_descriptor("91:2,4")
    assert chi.is_primitive() and not zero_branch(chi, 4)
    assert any(not v.is_zero()
               for v in km_stream(table, chi, "first", 16).coeffs.values())
    cn = CycloNum.from_rational(Fraction(-1, 48))
    dn = CycloNum.from_rational(Fraction(-1, 576))
    rep = verify_thm511_61(h, chi, table, 8, 4, 16, cn=cn, dn=dn)
    assert rep.passed and rep.checked == 12
    assert rep.constants == {
        "C_N (Thm 5.6 prefactor, corrected gamma)": "49003287330816/1",
        "c_{n,N}": "-1020901819392/1", "d_{n,N}": "-85075151616/1"}
    imprimitive = parse_descriptor("35:0,2")
    with pytest.raises(ValueError, match="primitive"):
        verify_thm511_61(h, imprimitive, table, 8, 4, 16, cn=cn, dn=dn)
    with pytest.raises(ValueError):
        rm_chi_assemble(h, imprimitive, 8, 4, 16)


def test_thm61_residuals_name_the_route(flagship):
    # a wrong c_n leaves the Theorem 5.11 route clean and fails Theorem 6.1
    h, cl, table = flagship
    cn = CycloNum.from_rational(Fraction(-1, 47))
    dn = CycloNum.from_rational(Fraction(-1, 576))
    rep = verify_thm511_61(h, parse_descriptor("7:2"), table, 8, 4, 16,
                           cn=cn, dn=dn)
    assert not rep.passed and rep.residuals
    for res in rep.residuals:
        assert list(res) == ["D", "route", "lhs", "rhs"]
        assert res["route"] == "6.1"


def test_verify_thm511_without_constants_builds_no_streams(flagship, monkeypatch):
    import kmlift.liftkm as lk
    h, cl, table = flagship
    calls = []
    for name in ("rankin_side_stream", "shifted_l_side_stream"):
        monkeypatch.setattr(lk, name,
                            lambda *a, name=name, **k: calls.append(name))
    rep = verify_thm511_61(h, parse_descriptor("7:2"), table, 8, 4, 40)
    assert rep.passed and rep.checked == len(admissible_indices(40))
    assert calls == []


def test_rankin_side_stream_builds_cohen_to_bound(flagship, monkeypatch):
    import kmlift.liftkm as lk
    h = flagship[0]
    chi7 = parse_descriptor("7:2")
    precs = []
    cohen = lk.cohen_eisenstein
    monkeypatch.setattr(lk, "cohen_eisenstein",
                        lambda l, prec: precs.append(prec) or cohen(l, prec))
    r1 = lk.rankin_side_stream(h, chi7, 8, 4, 40).coeffs
    assert precs == [41]
    # the same stream as from the series at the eigenform's full precision
    monkeypatch.setattr(lk, "cohen_eisenstein",
                        lambda l, prec: cohen(l, h.qexp.prec))
    assert lk.rankin_side_stream(h, chi7, 8, 4, 40).coeffs == r1


def test_first_kind_conjugation_equivariance(flagship):
    h, cl, table = flagship
    chi7 = parse_descriptor("7:2")
    s = km_stream(table, chi7, "first", 40)
    sbar = km_stream(table, chi7.conjugate(), "first", 40)
    for D in admissible_indices(40):
        assert sbar.coeff(D) == s.coeff(D).conjugate()


def test_first_kind_stream_computes_the_eta_weights_once(flagship,
                                                         monkeypatch):
    # km_stream hands one root_weights table to the closed h of every class,
    # and its stream is still the per-det sum of h_closed(gram, chi) a(T)/e(T)
    # with each h computing its own weights; the imprimitive 35:0,2 is still
    # refused by the closed h
    import kmlift.charsums as cs
    import kmlift.liftkm as lk
    table = flagship[2]
    root_weights = cs.root_weights
    calls = []

    def counted(*a, **k):
        calls.append(a)
        return root_weights(*a, **k)

    for desc in ("7:2", "91:2,4"):
        chi = parse_descriptor(desc)
        want = {}
        for rec, cv in table.classes:
            D = rec.gram.det()
            if D <= 40 and cv != 0:
                want[D] = want.get(D, CycloNum.zero()) + cs.h_closed(
                    rec.gram.rows(), chi) * Fraction(cv, rec.e)
        assert any(not v.is_zero() for v in want.values())
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(cs, "root_weights", counted)
            mp.setattr(lk, "root_weights", counted)
            got = km_stream(table, chi, "first", 40)
        assert len(calls) == 1, desc
        for D in range(1, 41):
            assert got.coeff(D) == want.get(D, CycloNum.zero()), (desc, D)
    with pytest.raises(ValueError, match="primitive"):
        km_stream(table, parse_descriptor("35:0,2"), "first", 40)


def test_verify_thm42(flagship):
    h, cl, table = flagship
    rep = verify_thm42(h, char_group(1)[0], table, 8, 4, 40)
    assert rep.passed
    assert rep.constants["fitted 2-power"] == "2/1"
    rep7 = verify_thm42(h, parse_descriptor("7:2"), table, 8, 4, 40)
    assert rep7.passed


def test_r_chi_assembly_consistency(flagship):
    # L(s, I_n(h), chi^n) = C_N [c_n R^(chi) + d_n c_h(1) M^(chi)] with the
    # corrected weights; eta-sum collapses to one term when D_{N,n} = {1}
    h, cl, table = flagship
    chi7 = parse_descriptor("7:2")
    direct = km_stream(table, chi7, "first", 40)
    R, M = rm_chi_assemble(h, chi7, 8, 4, 40, variant="corrected")
    CN = thm56_constant(4, 7)
    cn, dn = Fraction(-1, 48), Fraction(-1, 576)
    for D in admissible_indices(40):
        want = (R.coeff(D) * cn + M.coeff(D) * dn) * CN
        assert direct.coeff(D) == want, D
    with pytest.raises(ValueError, match="variant must be"):
        rm_chi_assemble(h, chi7, 8, 4, 40, variant="bogus")
    # trivial eta-collapse example: N = 11, n = 4 -> D_{11,4} = {1, quadratic}?
    # gcd(4, 10) = 2: size 2; a collapse case is gcd(n, p-1) = 1: p = 11, n = 3
    from kmlift.characters import factorize
    assert len([e for e in char_group(11) if (e ** 3).is_trivial()]) == 1


def test_hecke_tp2_trivial_precision():
    h = build_plus_eigenform(8, 4, prec=120)
    t = hecke_Tp2(h.qexp, 3, 6)
    assert t.prec >= 13


# R^(chi) for chi = 7:2 with the section-7 'printed' weights, as the two
# coordinates over (1, zeta_6) of every nonzero coefficient; taken before the
# assembly was built on the Theorem 4.1 stream builders
PRINTED_RCHI_7_2 = {
    1: ("-49/3", "49/2"), 4: ("2940", "5880"), 5: ("18816", "-94080"),
    8: ("47040", "-70560"), 9: ("114660", "-38220"),
    12: ("1128960", "-5644800"), 13: ("-4139520", "-1034880"),
    16: ("-1732640", "1732640/3"), 17: ("1881600", "-1505280"),
    20: ("9031680", "2257920"), 24: ("152409600", "-121927680"),
    25: ("-3308970", "-6617940"), 29: ("4656960", "-6985440"),
    32: ("-4327680", "-8655360"), 33: ("-30481920", "152409600"),
    36: ("27518400", "-41277600"), 37: ("-70207200", "23402400"),
    40: ("129077760", "-645388800"),
}


def test_r_chi_printed_variant_pinned(flagship):
    h, cl, table = flagship
    R, _ = rm_chi_assemble(h, parse_descriptor("7:2"), 8, 4, 40,
                           variant="printed")
    want = {D: CycloNum.from_rational(Fraction(a))
            + CycloNum.zeta(6) * Fraction(b)
            for D, (a, b) in PRINTED_RCHI_7_2.items()}
    for D in range(1, 41):
        assert R.coeff(D) == want.get(D, CycloNum.zero()), D
