"""Top of the pipeline: the half-integral weight plus-space eigenform h, its
Shimura correspondent, Ikeda-lift Fourier coefficients, the det-indexed
Koecher-Maass streams of both kinds, and the identity checkers that pair each
closed formula with the direct class-sum computation.

Satake-type values beta_p are never materialized: every F~_p(T, beta_p) is
evaluated through power sums of the root pair of x^2 - c(p) x + p^(2k-n-1),
keeping the whole pipeline in exact rational / cyclotomic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .characters import DirichletChar, factorize, kronecker
from .charsums import h_sum, root_weights, thm56_constant, zero_branch
from .exactalg import CycloNum, _pval, nullspace
from .lseries import (QExp, DirStream, cohen_eisenstein, delta_qexp,
                      eisenstein_qexp, lfactor_stream, rankin_stream,
                      shifted_L_stream, theta_series, weight2_eisenstein_odd)
from .plocal import (_STRATIFIED_DEG, SiegelPoly, _genus_class_terms,
                     _kappa_zeta_L, _siegel_degree, local_density,
                     siegel_series)
from .quadforms import (ClassList, GramMat, disc_split, fundamental_split,
                        hasse_invariant)


# ---------------------------------------------------------------------------
# the plus-space eigenform

@dataclass
class PlusForm:
    qexp: QExp
    lam: int                    # weight = lam + 1/2
    eigenvalues: dict           # p -> T(p^2) eigenvalue
    shimura: QExp               # S(h), normalized weight 2*lam eigenform

    def coeff(self, e) -> Fraction:
        return self.qexp.coeff(e)


def hecke_Tp2(f: QExp, p: int, lam: int) -> QExp:
    """T(p^2) on weight lam+1/2 level-4 forms.

    b(e) = a(p^2 e) + ((-1)^lam e / p) p^(lam-1) a(e) + p^(2 lam - 1) a(e/p^2).
    For p = 2 this is Kohnen's plus-space operator: the formula holds on the
    plus support and the image is cut back to it (for odd p the support is
    preserved automatically).
    """
    out = {}
    for e in range(f.prec):
        if p * p * e >= f.prec:
            break
        if p == 2 and ((-1) ** lam * e) % 4 in (2, 3):
            continue
        v = f.coeff(p * p * e)
        D = (-1) ** lam * e
        chi = kronecker(D, p)
        if chi:
            v += Fraction(chi * p ** (lam - 1)) * f.coeff(e)
        if e % (p * p) == 0:
            v += Fraction(p ** (2 * lam - 1)) * f.coeff(e // (p * p))
        out[e] = v
    return QExp(f.weight2, (f.prec - 1) // (p * p) + 1, out)


# (a, b) with S_{2 lam} = C Delta E_4^a E_6^b: the weights whose cusp space
# is one-dimensional, so that Delta E_4^a E_6^b is the Shimura lift S(h)
_SHIMURA_EXPONENTS = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0),
                      22: (1, 1), 26: (2, 1)}


def build_plus_eigenform(k: int, n: int, prec: int = 260) -> PlusForm:
    """The cuspidal plus-space Hecke eigenform of weight k - n/2 + 1/2 on
    Gamma_0(4), from the generators theta and F_2, normalized to c(1) = 1,
    with its Shimura lift S(h) = Delta E_4^a E_6^b.

    Supported when S_{2k - n} is one-dimensional (2k - n in 12, 16, 18, 20,
    22, 26); the flagship (k, n) = (8, 4) gives weight 13/2 paired with
    Delta.
    """
    if k % 2 or n % 2:
        raise ValueError("k and n must be even")
    lam = k - n // 2
    if 2 * lam not in _SHIMURA_EXPONENTS:
        raise ValueError(f"S_{2 * lam} is not one-dimensional")
    w2 = 2 * lam + 1            # twice the half-integral weight
    theta = theta_series(prec)
    f2 = weight2_eisenstein_odd(prec)
    monomials = []
    a = w2
    b = 0
    while a >= 0:
        monomials.append(theta.power(a) * f2.power(b) if b else theta.power(a))
        a -= 4
        b += 1
    # cuspidal plus space: c(0) = 0 and support on (-1)^lam e = 0,1 mod 4
    bad = [e for e in range(0, 3 * len(monomials) + 10)
           if e == 0 or ((-1) ** lam * e) % 4 in (2, 3)]
    rows = [[m.coeff(e) for m in monomials] for e in bad]
    null = nullspace(rows)
    if len(null) != 1:
        raise ValueError(f"cuspidal plus space not one-dimensional: dim {len(null)}")
    sol = null[0]
    h = QExp(w2, prec, {})
    for c, m in zip(sol, monomials):
        if c:
            h = h + m.scale(c)
    # support audit over the whole precision
    for e in range(prec):
        if ((-1) ** lam * e) % 4 in (2, 3) and h.coeff(e) != 0:
            raise AssertionError(f"plus-space support violated at {e}")
    first = next(e for e in range(1, prec) if h.coeff(e))
    h = h.scale(1 / h.coeff(first))
    # Hecke eigenvalues and the Shimura correspondent (weight 2k - n)
    shimura = delta_qexp(prec)
    for weight, e in zip((4, 6), _SHIMURA_EXPONENTS[2 * lam]):
        if e:
            shimura = shimura * eisenstein_qexp(weight, prec).power(e)
    eigs = {}
    for p in (2, 3, 5):
        tf = hecke_Tp2(h, p, lam)
        e0 = next(e for e in range(1, tf.prec) if h.coeff(e))
        ev = tf.coeff(e0) / h.coeff(e0)
        for e in range(tf.prec):
            assert tf.coeff(e) == ev * h.coeff(e), f"not an eigenform at p={p}, e={e}"
        eigs[p] = ev
        assert shimura.coeff(p) == ev, f"a_S(h)({p}) != T({p}^2) eigenvalue"
    return PlusForm(h, lam, eigs, shimura)


# ---------------------------------------------------------------------------
# Satake-symmetric evaluation and Ikeda coefficients

def satake_symmetric_eval(sp: SiegelPoly, cp: Fraction, k: int, n: int) -> Fraction:
    """(p^(k-n/2-1/2))^nu_f * F~_p(T, beta_p) as an exact rational.

    Writing albar = p^(k-(n+1)/2) beta_p, the pair (albar, p^(2k-n-1)/albar)
    are the roots of x^2 - cp x + p^(2k-n-1); the expression reduces to
    p^(-(n+1)nu) [c_nu p^(k nu) + sum_t c_(nu+t) p^(k(nu-t)) s_t] with s_t the
    power sums, independent of the root choice.
    """
    p, nu, c = sp.p, sp.nu_f, sp.fcoeffs
    if nu == 0:
        return Fraction(1)
    e2 = Fraction(p) ** (2 * k - n - 1)
    s_prev, s_cur = Fraction(2), Fraction(cp)      # power sums s_0, s_1
    total = Fraction(c[nu]) * Fraction(p) ** (k * nu)
    for t in range(1, nu + 1):
        total += Fraction(c[nu + t]) * Fraction(p) ** (k * (nu - t)) * s_cur
        s_prev, s_cur = s_cur, Fraction(cp) * s_cur - e2 * s_prev
    return total / Fraction(p) ** ((n + 1) * nu)


@dataclass
class IkedaCoeffTable:
    classes: list               # (ClassRecord, c_I value)
    excluded: list = field(default_factory=list)


def ikeda_coeff(G: GramMat, h: PlusForm, k: int, n: int) -> Fraction:
    """c_{I_n(h)}(T) = c_h(|d_T|) prod_p (p^(k-n/2-1/2))^{nu_p(f_T)} F~_p(T, beta_p)."""
    d, f = disc_split(G)
    out = h.coeff(abs(d))
    if out == 0:
        if abs(d) >= h.qexp.prec:
            raise ValueError("h coefficient table too short")
        return out
    for p, e in factorize(f):
        sp = siegel_series(G, p, mode="stratified")
        cp = h.shimura.coeff(p)
        out *= satake_symmetric_eval(sp, cp, k, n)
    return out


# the dyadic scope: classes with nu_2(det 2T) above this cap are left out
# of the coefficient table, and such indices are not checked
NU2_CAP = 2


def build_coeff_table(classes: ClassList, h: PlusForm, k: int,
                      n: int) -> IkedaCoeffTable:
    """Ikeda coefficients for every class in scope; a class with nu_2(det)
    above NU2_CAP, or with deg F_p past the stratified route at some
    p | f_T, is excluded with a report entry."""
    table = IkedaCoeffTable([])
    for rec in classes.classes:
        D = rec.gram.det()
        if _pval(D, 2) > NU2_CAP:
            table.excluded.append({"det": D, "reason": f"nu_2({D}) > {NU2_CAP}"})
            continue
        deg, p = max(((_siegel_degree(rec.gram, p)[2], p)
                      for p, _ in factorize(disc_split(rec.gram).f)),
                     default=(0, 1))
        if deg > _STRATIFIED_DEG:
            table.excluded.append(
                {"det": D, "reason": f"deg F_{p} = {deg} > {_STRATIFIED_DEG}"})
            continue
        v = ikeda_coeff(rec.gram, h, k, n)
        table.classes.append((rec, v))
    return table


# ---------------------------------------------------------------------------
# Koecher-Maass streams

def km_stream(table: IkedaCoeffTable, chi: DirichletChar, kind: str,
              bound: int) -> DirStream:
    """Det-indexed coefficients: second kind weights by chi(det 2T); first kind
    weights by h(A, chi) (whose normalization carries e_N versus e through the
    coset identity), with the eta-sum weights of the closed h computed once
    per stream, since they depend on chi and the size of T only."""
    out: dict = {}
    eta = None
    for rec, cv in table.classes:
        D = rec.gram.det()
        if D > bound or cv == 0:
            continue
        if kind == "second":
            w = chi(D)
        elif kind == "first":
            if eta is None:
                eta = root_weights(chi, rec.gram.n)
            w = h_sum(rec.gram.rows(), chi, "closed", weights=eta)
        else:
            raise ValueError("kind must be 'first' or 'second'")
        term = w * Fraction(cv, rec.e)
        out[D] = out.get(D, CycloNum.zero()) + term
    return DirStream(bound, out)


# ---------------------------------------------------------------------------
# Theorem 4.1

@dataclass
class FitReport:
    name: str
    constants: dict
    residuals: list
    notes: list = field(default_factory=list)
    checked: int = 0            # indices compared beyond the fit; not emitted

    def compare(self, D, lhs, rhs, route=None, rhs_text=None):
        """Count index D as checked; record it as a residual unless lhs == rhs."""
        self.checked += 1
        if lhs == rhs:
            return
        rec = {"D": D} if route is None else {"D": D, "route": route}
        rec.update(lhs=repr(lhs), rhs=rhs_text or repr(rhs))
        self.residuals.append(rec)

    @property
    def passed(self):
        return not self.residuals and self.checked > 0

    def to_dict(self):
        return {"name": self.name, "constants": self.constants,
                "residuals": self.residuals, "notes": self.notes,
                "passed": self.passed}


def rankin_side_stream(h: PlusForm, chi: DirichletChar, k: int, n: int,
                       bound: int) -> DirStream:
    """r1 of Theorem 4.1: the chi-twisted Rankin stream of h and the Cohen
    Eisenstein series, times prod_{1 <= j < n/2} L(2s - 2j, S(h), chi^2)."""
    E = cohen_eisenstein(n // 2, bound + 1)
    r1 = rankin_stream(h.qexp, E, chi, k - n // 2, n // 2, bound, variant="R")
    for j in range(1, n // 2):
        r1 = r1.convolve(lfactor_stream(h.shimura, chi * chi, 2 * j, bound))
    return r1


def shifted_l_side_stream(h: PlusForm, chi: DirichletChar, n: int,
                          bound: int) -> DirStream:
    """r2 of Theorem 4.1: prod_{1 <= j <= n/2} L(2s - 2j + 1, S(h), chi^2)."""
    return shifted_L_stream(h.shimura, chi * chi,
                            [2 * j - 1 for j in range(1, n // 2 + 1)], bound)


def admissible_indices(bound: int, nu2_cap: int = NU2_CAP):
    return [D for D in range(1, bound + 1)
            if D % 4 in (0, 1) and _pval(D, 2) <= nu2_cap]


def _checked_indices(table: IkedaCoeffTable, bound: int, nu2_cap: int):
    """The admissible indices less the dets of excluded classes, whose
    coefficients the table cannot give, and the notes naming them."""
    idxs = admissible_indices(bound, nu2_cap)
    skipped = sorted({x["det"] for x in table.excluded}.intersection(idxs))
    notes = [f"indices skipped, a class of that det is excluded: {skipped}"]
    return [D for D in idxs if D not in skipped], notes if skipped else []


def verify_thm41(h: PlusForm, chi: DirichletChar, table: IkedaCoeffTable,
                 k: int, n: int, bound: int = 40,
                 nu2_cap: int = NU2_CAP) -> FitReport:
    """Fit (c_n, d_n) on the first two usable indices and verify every other
    admissible index exactly; the 2^(ns)-type monomial is the identity map
    D = integer index (reported, not assumed silently)."""
    lhs = km_stream(table, chi, "second", bound)
    r1 = rankin_side_stream(h, chi, k, n, bound)
    r2 = shifted_l_side_stream(h, chi, n, bound)
    idxs, notes = _checked_indices(table, bound, nu2_cap)
    pair = None
    for i, D1 in enumerate(idxs):
        for D2 in idxs[i + 1:]:
            det = r1.coeff(D1) * r2.coeff(D2) - r1.coeff(D2) * r2.coeff(D1)
            if not det.is_zero():
                pair = (D1, D2, det)
                break
        if pair:
            break
    if pair is None:
        return FitReport("thm4.1", {}, [], notes + ["degenerate fit system"])
    D1, D2, det = pair
    ch1 = Fraction(h.coeff(1))
    cn = (lhs.coeff(D1) * r2.coeff(D2) - lhs.coeff(D2) * r2.coeff(D1)) / det
    dn = (r1.coeff(D1) * lhs.coeff(D2) - r1.coeff(D2) * lhs.coeff(D1)) / det
    dn = dn / ch1
    notes += [f"fit indices D = {D1}, {D2}",
              "index normalization: integer index = det(2T) (2^{ns} absorbed)"]
    report = FitReport("thm4.1", {"c_n": _cyclo_str(cn), "d_n": _cyclo_str(dn)},
                       [], notes)
    for D in idxs:
        if D not in (D1, D2):       # the fit holds there by construction
            rhs = cn * r1.coeff(D) + dn * ch1 * r2.coeff(D)
            report.compare(D, lhs.coeff(D), rhs)
    return report


def _cyclo_str(v: CycloNum) -> str:
    if v.is_rational():
        q = v.rational_value()
        return f"{q.numerator}/{q.denominator}"
    return repr(v)


# ---------------------------------------------------------------------------
# Theorems 5.11 and 6.1 (first kind)

def _eta_weights(target: DirichletChar, n: int, variant="corrected") -> list:
    """(lam, conj(lam)(2^n) w) over the (lam, w) of root_weights(target, n):
    the eta-sum weights of Theorems 5.11 / 6.1 (target chi) and of the
    section-7 assembly (target chi^n).  The "printed" variant takes
    J(conj(lam), (*/N)), as the section-7 display prints it."""
    two_n = pow(2, n, target.modulus)
    return [(lam, lam.conjugate()(two_n) * w)
            for lam, w in root_weights(target, n, variant)]


def _eta_sum(weights: list, stream, bound: int) -> DirStream:
    """sum over the eta-weights (lam, w) of w * stream(lam)."""
    total = DirStream(bound)
    for lam, w in weights:
        total = total + stream(lam).scale(w)
    return total


def _rm_chi(h: PlusForm, weights: list, k: int, n: int, bound: int):
    """(R^(chi), M^(chi)): the eta-sums of the Rankin-side and of the
    shifted-L-side streams of Theorem 4.1."""
    return (_eta_sum(weights, lambda lam: rankin_side_stream(h, lam, k, n, bound),
                     bound),
            _eta_sum(weights, lambda lam: shifted_l_side_stream(h, lam, n, bound),
                     bound))


def verify_thm511_61(h: PlusForm, chi: DirichletChar, table: IkedaCoeffTable,
                     k: int, n: int, bound: int = 40, nu2_cap: int = NU2_CAP,
                     cn: CycloNum = None, dn: CycloNum = None) -> FitReport:
    """Both first-kind routes: the direct h(A,chi)-weighted stream versus the
    Theorem 5.11 eta-combination of second-kind streams, then (given the
    fitted Theorem 4.1 constants) the Theorem 6.1 combination
    C_N (c_n R^(chi~) + d_n c_h(1) M^(chi~)) with chi~^n = chi."""
    N = chi.modulus
    idxs, notes = _checked_indices(table, bound, nu2_cap)
    direct = km_stream(table, chi, "first", bound)
    report = FitReport("thm5.11+6.1", {}, [], notes)
    if zero_branch(chi, n):
        for D in idxs:
            report.compare(D, direct.coeff(D), 0, rhs_text="0 (branch 1)")
        report.notes.append("branch (1): chi^(p)(u_0) != 1; stream must vanish")
        return report
    CN = thm56_constant(n, N)
    weights = _eta_weights(chi, n)
    # Theorem 5.11 route: direct == CN * sum_eta w_eta * L*(chi tilde eta)
    second = _eta_sum(weights, lambda lam: km_stream(table, lam, "second", bound),
                      bound)
    for D in idxs:
        report.compare(D, direct.coeff(D), second.coeff(D) * CN, "5.11")
    report.constants["C_N (Thm 5.6 prefactor, corrected gamma)"] = \
        f"{CN.numerator}/{CN.denominator}"
    if cn is None:
        return report
    R, M = _rm_chi(h, weights, k, n, bound)
    for D in idxs:
        rhs = (cn * R.coeff(D) + dn * Fraction(h.coeff(1)) * M.coeff(D)) * CN
        report.compare(D, direct.coeff(D), rhs, "6.1")
    report.constants["c_{n,N}"] = _cyclo_str(cn * CN)
    report.constants["d_{n,N}"] = _cyclo_str(dn * CN)
    report.notes.append("(c_{n,N}, d_{n,N}) = C_N * (c_n, d_n): "
                        "proportionality verified by the residual check")
    return report


def rm_chi_assemble(h: PlusForm, chi: DirichletChar, k: int, n: int,
                    bound: int = 40, variant: str = "corrected"):
    """(R^(chi)(s, h, E_{n/2+1/2}), M^(chi)): the section-7 eta-sums of
    Jacobi-weighted twisted Rankin x shifted-L streams and of pure shifted-L
    products (chi^n primitive required).

    variant "printed" follows the section-7 display and conjugates the
    J(chi eta, (*/N)) factor of both; "corrected" leaves it unconjugated,
    matching the brute-validated Theorem 5.6 weights so that the
    L(s, I_n(h), chi^n) reconstruction is internally consistent.
    """
    if (chi ** n).conductor != chi.modulus:
        raise ValueError("chi^n must be primitive for the section-7 assembly")
    return _rm_chi(h, _eta_weights(chi ** n, n, variant), k, n, bound)


# ---------------------------------------------------------------------------
# Theorem 4.2: genus-side reassembly of the second-kind coefficients

def _dyadic_unimodular_factor(d0: int):
    """(alpha_2, hasse) of the even unimodular rank-4 Z_2-class with
    determinant class d0 (d0 = 1 mod 4 odd): H + H, or H + V."""
    V = [[2, 1], [1, 2]] if d0 % 8 == 5 else [[0, 1], [1, 0]]
    rep = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0] + V[0], [0, 0] + V[1]]
    return local_density(rep, 2), hasse_invariant(rep, 2)


def verify_thm42(h: PlusForm, chi: DirichletChar, table: IkedaCoeffTable,
                 k: int, n: int, bound: int = 40) -> FitReport:
    """Reassemble the second-kind coefficients from the genus-side sum over
    fundamental discriminants with per-prime genus-series coefficients.

    Scope: odd indices D (the dyadic factor is then the unimodular-class t^0
    coefficient); even D raises the documented scope error upstream, and the
    caller filters.  The fitted overall 2-power (the same normalization the
    mass audit fits) is reported via the first index and verified on the rest.
    """
    if n != 4:
        raise ValueError("genus-side checker implemented for n = 4")
    lhs = km_stream(table, chi, "second", bound)
    idxs = [D for D in range(1, bound + 1) if D % 2 == 1 and D % 4 in (0, 1)]
    report = FitReport("thm4.2", {}, [])
    fitted = None
    for D in idxs:
        d0, f = fundamental_split(D)
        ch = Fraction(h.coeff(abs(d0)))
        bad = sorted({q for q, _ in factorize(2 * D)})
        # kappa_n zeta(2i) L(n/2, chi_d0) times the 2^{-1-n/2}; exps starts
        # with the |d0|^{1/2 - n/2} left by the functional equation and
        # |d0|^{(n+1-2k)/4}, and gains each local factor's power of p
        rat = _kappa_zeta_L(n, d0, bad) / 2 ** (1 + n // 2)
        expo = Fraction(1 - n, 2) + Fraction(n + 1 - 2 * k, 4)
        exps = {q: expo * e for q, e in factorize(abs(d0))}
        # finite local factors: the rational unit of each branch
        a2, eps2 = _dyadic_unimodular_factor(d0 % 8)
        branch = {"iota": 1 / a2, "eps": Fraction(eps2) / a2}
        ok = True
        for p in [q for q in bad if q != 2]:
            nu = _pval(D, p)
            nu0 = 1 if abs(d0) % p == 0 else 0
            loc = {"iota": Fraction(0), "eps": Fraction(0)}
            for nu_det, sp, iota, eps in _genus_class_terms(n, p, d0, nu):
                if nu_det != nu:
                    continue
                sat = satake_symmetric_eval(sp, h.shimura.coeff(p), k, n)
                loc["iota"] += sat * iota
                loc["eps"] += sat * eps
            exps[p] = exps.get(p, 0) + Fraction(nu * (n + 1), 2) \
                + Fraction(nu0 * (2 * k - n - 1), 4)
            for w in branch:
                branch[w] *= loc[w]
            if loc["iota"] == 0 and loc["eps"] == 0:
                ok = False
        if not ok:
            report.notes.append(f"D={D}: empty local class set (skipped)")
            continue
        # kappa(d0,n,1)_2^{-1} cancels the epsilon-term sign exactly, so the
        # two branches combine with unit weights; the quarter-powers of the
        # local factors only collapse against the |d0|-powers in exps
        tot = branch["iota"] + branch["eps"]
        for q, e in exps.items():
            if e.denominator != 1:
                raise ValueError(f"non-integral exponent {e} at prime {q}")
            tot *= Fraction(q) ** int(e)
        rhs_rat = rat * ch * tot
        got = lhs.coeff(D)
        want = chi(D) * rhs_rat
        if fitted is None and rhs_rat != 0 and not got.is_zero():
            ratio = got / want
            assert ratio.is_rational()
            fitted = ratio.rational_value()
            report.constants["fitted 2-power"] = f"{fitted.numerator}/{fitted.denominator}"
            continue
        scale = fitted if fitted is not None else Fraction(1)
        report.compare(D, got, want * scale)
    return report
