"""The benchmark workloads: input generation from the seed (set-up),
the timed region, and the correctness gates.

Every workload calls ``kmlift`` through module attributes (``cs.h_closed``,
not a name imported before the run) so that the traced run, which patches
those attributes, sees each call.

- ``flagship``: the north-star ``firstkind`` pipeline through
  ``kmlift.cli.main`` (plus-space eigenform, class enumeration, Ikeda table,
  Thm 4.1, Thms 5.11/6.1 at N = 7).  Class enumeration does most of the work.
  Its inputs are the paper's parameters; the seed has no effect.
- ``oracles``: brute oracles against closed forms on a fixed grid of shapes,
  one exact comparison per pair, split about evenly between ``charsums`` and
  ``plocal``.
  The seed draws entries only, from a pool of ``ORACLE_VARIANTS`` input sets
  so that each set's report has a golden digest.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from kmlift import characters as ch
from kmlift import charsums as cs
from kmlift import cli, liftkm, plocal, quadforms, reports
from kmlift.exactalg import CycloNum

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

K, N_RANK = 8, 4

# flagship: det(2T) <= 16 keeps one cold run near 10 s; det 40 takes ~65 s,
# more than a whole run of the benchmark.
FLAGSHIP_BOUND = 16
FLAGSHIP_CLASSES = 9
FLAGSHIP_EIGENVALUES = {2: -24, 3: 252, 5: 4830}
C4_D4 = ("-1/48", "-1/576")
C47_D47 = ("-16464/1", "-1372/1")

ORACLE_VARIANTS = 16


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def admissible_count(bound, nu2_cap=2):
    return len(inspect.unwrap(liftkm.admissible_indices)(bound, nu2_cap))


def expected_indices(name, bound, with_61=False):
    """Indices an identity checker compares when it checks everything: Thm
    4.1 all but the two fit indices, Thms 5.11/6.1 every index per route."""
    if name == "thm4.1":
        return admissible_count(bound) - 2
    return admissible_count(bound) * (2 if with_61 else 1)


def indices_checked(name, report, bound, nu2_cap=2, with_61=False):
    """Indices the checker really compared: none for a degenerate Thm 4.1
    fit, one route only in the vanishing branch (1) of Thms 5.11/6.1."""
    if name == "thm4.1":
        return admissible_count(bound, nu2_cap) - 2 if report.constants else 0
    if any("branch (1)" in note for note in report.notes):
        return admissible_count(bound, nu2_cap)
    return admissible_count(bound, nu2_cap) * (2 if with_61 else 1)


def add_identity_checks(checks, label, name, report, bound, with_61=False):
    """One check per expected index; residuals and indices left unchecked
    fail.  Returns the number of indices really checked."""
    want = expected_indices(name, bound, with_61)
    got = indices_checked(name, report, bound, with_61=with_61)
    checks.add_counted(f"{label} residuals", want,
                       min(want, len(report.residuals) + want - got))
    return got


class Checks:
    """Exact comparisons of one cold run; a failed or missing one is named."""

    def __init__(self):
        self.total = 0
        self.failed: list[str] = []

    def add(self, name, ok):
        self.total += 1
        if not ok:
            self.failed.append(name)

    def add_counted(self, name, n, bad):
        """n comparisons of which ``bad`` failed."""
        self.total += n
        if bad:
            self.failed.extend([name] * bad)


@contextmanager
def capture(module, attr, sink):
    """Record the return values of ``module.attr`` while the block runs."""
    orig = getattr(module, attr)

    def wrapper(*a, **k):
        res = orig(*a, **k)
        sink.append(res)
        return res

    setattr(module, attr, wrapper)
    try:
        yield sink
    finally:
        setattr(module, attr, orig)


# ---------------------------------------------------------------------------
# flagship

class Flagship:
    name = "flagship"

    def prepare(self, seed):
        return {"bound": FLAGSHIP_BOUND}

    def planned(self, inp):
        B = inp["bound"]
        return (expected_indices("thm4.1", B)
                + expected_indices("thm5.11+6.1", B, with_61=True) + 7)

    def run(self, inp, out):
        seen = {"h": [], "cl": [], "thm41": [], "thm511": []}
        argv = ["--out", out, "firstkind", "--n", str(N_RANK), "--k", str(K),
                "--chi", "7:2", "--det-bound", str(inp["bound"]),
                "--with-thm41"]
        with capture(liftkm, "build_plus_eigenform", seen["h"]), \
                capture(quadforms, "enumerate_classes", seen["cl"]), \
                capture(liftkm, "verify_thm41", seen["thm41"]), \
                capture(liftkm, "verify_thm511_61", seen["thm511"]):
            code = cli.main(argv)
        return {"code": code, **seen}

    def check(self, inp, res, out, golden, checks):
        B = inp["bound"]
        path = os.path.join(out, "firstkind.json")
        with open(path) as fh:
            rep = json.load(fh)
        (h,), (cl,) = res["h"], res["cl"]
        (thm41,), (thm511,) = res["thm41"], res["thm511"]
        n = add_identity_checks(checks, "Thm 4.1", "thm4.1", thm41, B)
        n += add_identity_checks(checks, "Thms 5.11/6.1", "thm5.11+6.1",
                                 thm511, B, with_61=True)
        checks.add("indices checked", n > 0)
        checks.add("exit status", res["code"] == 0 and rep["passed"])
        checks.add("eigenvalues", h.eigenvalues == FLAGSHIP_EIGENVALUES)
        checks.add("classes", len(cl.classes) == FLAGSHIP_CLASSES)
        checks.add("(c_4, d_4)",
                   (thm41.constants.get("c_n"), thm41.constants.get("d_n")) == C4_D4)
        checks.add("(c_4_7, d_4_7)",
                   (rep["constants"].get("c_{n,N}"),
                    rep["constants"].get("d_{n,N}")) == C47_D47)
        checks.add("report digest",
                   sha256_file(path) == golden["flagship"]["firstkind.json"])


# ---------------------------------------------------------------------------
# oracles

# The shapes split the traced time of a cold run about evenly between
# charsums and plocal.
# Lemma 5.1 shapes (p, m, r, items): S is m x m, T is r x r, both diagonal
LEMMA51_SHAPES = ((3, 4, 2, 2), (3, 4, 3, 2), (5, 3, 2, 2), (5, 3, 3, 4),
                  (5, 4, 2, 2), (7, 3, 2, 2), (7, 2, 2, 2), (3, 3, 3, 2))
PROP52_SHAPES = ((2, 5), (2, 7), (3, 5))           # (m, p), diagonal A
THM55_SHAPES = ((2, 5), (3, 5), (2, 7))            # (m, p), h brute_sl
SYM4_PRIME, SYM4_FORMS = 5, 3                      # Thm 5.6 at m = 4
SIEGEL_SHAPES = ((3, 6),)                          # (p, items), nu_p(det) = 2
DENSITY_SHAPES = ((3, 1), (5, 0))                  # (p, nu_p(det)) of 3x3 diag
PSERIES_SMALL = (3, 5)                             # n = 2, every d0 class, prec 4
PSERIES_N4 = (3, "eps", 3)                          # n = 4: (p, omega, prec)


def _units(rng, p, size):
    return [int(x) for x in rng.integers(1, p, size=size)]


def _even_gram(rng, m, p, lo=1, hi=4):
    """Positive definite even Gram matrix with every entry a unit mod p, so
    each sweep over it does the same work whatever the seed."""
    while True:
        G = [[0] * m for _ in range(m)]
        for i in range(m):
            G[i][i] = 2 * int(rng.integers(lo, hi + 1))
            for j in range(i):
                G[i][j] = G[j][i] = int(rng.choice([-2, -1, 1, 2]))
        if (all(x % p for row in G for x in row)
                and quadforms.is_positive_definite(G)):
            return G


def _gram_with_det_val(rng, p, nu):
    """2 x 2 even Gram [[2a, b], [b, 2c]] with b != 0 and nu_p(det) = nu."""
    while True:
        a, c = (int(x) for x in rng.integers(1, 6 * p, size=2))
        b = int(rng.integers(1, 2 * min(a, c) + 1)) * int(rng.choice([-1, 1]))
        d = 4 * a * c - b * b
        if d > 0 and d % p ** nu == 0 and d % p ** (nu + 1):
            return [[2 * a, b], [b, 2 * c]]


def _nonresidue(p):
    return next(x for x in range(2, p) if ch.legendre(x, p) == -1)


class Oracles:
    name = "oracles"

    def prepare(self, seed):
        variant = seed % ORACLE_VARIANTS
        rng = np.random.default_rng(variant)
        items = []
        for p, m, r, count in LEMMA51_SHAPES:
            for _ in range(count):
                items.append(("lemma5.1", {"p": p, "S": _units(rng, p, m),
                                           "T": _units(rng, p, r)}))
        for m, p in PROP52_SHAPES:
            for _ in range(2):
                items.append(("prop5.2", {"m": m, "p": p,
                                          "A": _units(rng, p, m)}))
        for m, p in THM55_SHAPES:
            for _ in range(2):
                items.append(("thm5.5", {"p": p, "gram": _even_gram(rng, m, p)}))
        items.append(("thm5.6_m4", {"p": SYM4_PRIME, "grams": [
            _even_gram(rng, 4, SYM4_PRIME, 2, 5) for _ in range(SYM4_FORMS)]}))
        for p, count in SIEGEL_SHAPES:
            for _ in range(count):
                items.append(("siegel", {"p": p,
                                         "gram": _gram_with_det_val(rng, p, 2)}))
        for p, nu in DENSITY_SHAPES:
            for _ in range(2):
                diag = _units(rng, p, 3)
                diag[2] *= p ** nu
                items.append(("density", {"p": p, "diag": diag}))
        for p in PSERIES_SMALL:
            r = _nonresidue(p)
            for cls in (1, r, p, p * r):
                for omega in ("iota", "eps"):
                    u = int(rng.integers(1, p))
                    items.append(("p_series", {"n": 2, "p": p, "omega": omega,
                                               "prec": 4, "d0": cls * u * u}))
        p, omega, prec = PSERIES_N4
        u = int(rng.integers(1, p))
        items.append(("p_series", {"n": 4, "p": p, "omega": omega,
                                   "prec": prec, "d0": u * u}))
        return {"variant": variant, "items": items}

    def planned(self, inp):
        return sum(self._size(kind, args) for kind, args in inp["items"]) + 1

    @staticmethod
    def _size(kind, args):
        if kind == "thm5.5":
            return len(_thm55_chars(len(args["gram"]), args["p"]))
        if kind == "thm5.6_m4":
            return len(args["grams"]) * (args["p"] - 2)   # nontrivial chars
        return 1

    def run(self, inp, out):
        results = []
        for kind, args in inp["items"]:
            for label, fn in _comparisons(kind, args):
                try:
                    brute, closed = fn()
                    rec = {"equal": brute == closed, "brute": _ser(brute),
                           "closed": _ser(closed)}
                except Exception as exc:      # counted as a failed check
                    rec = {"equal": False, "error": f"{type(exc).__name__}: {exc}"}
                results.append({"kind": kind, "case": label, "inputs": args, **rec})
        path = reports.write_report(
            {"workload": "oracles", "variant": inp["variant"],
             "results": results}, os.path.join(out, "oracles"))
        return {"results": results, "path": path}

    def check(self, inp, res, out, golden, checks):
        for r in res["results"]:
            checks.add(f"{r['kind']} {r['case']}", r["equal"])
        checks.add("report digest", sha256_file(res["path"]) ==
                   golden["oracles"]["digests"][str(inp["variant"])])


def _ser(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_ser(x) for x in v]
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (int, Fraction, CycloNum)):
        return reports.serialize_value(v)
    return repr(v)


def _thm55_chars(m, p):
    return [c for c in ch.char_group(p) if not c.is_trivial()
            and (m % 2 == 0 or (c ** 2).conductor == p)]


def _comparisons(kind, a):
    """(label, thunk returning (brute, closed)) pairs of one oracle item."""
    p = a["p"]
    if kind == "lemma5.1":
        S, T = np.diag(a["S"]), np.diag(a["T"])
        yield f"p={p} m={len(a['S'])} r={len(a['T'])}", lambda: (
            cs.count_A_brute(S, T, p), cs.count_A_closed(S, T, p))
    elif kind == "prop5.2":
        A = np.diag(a["A"])

        def prop52():
            gam = cs.gamma_const(a["m"], p, "corrected")
            rc = cs.sl_trace_counts(cs.gram_like(A, p), p)
            mc = cs.sym_dettarget_trace_counts(cs.gram_like(A, p), p, 1)
            return [int(x) for x in rc], [gam * int(x) for x in mc]
        yield f"m={a['m']} p={p}", prop52
    elif kind == "thm5.5":
        gram = a["gram"]
        for chi in _thm55_chars(len(gram), p):
            yield f"m={len(gram)} chi={chi.descriptor()}", (
                lambda chi=chi: (cs.h_brute_sl(gram, chi), cs.h_closed(gram, chi)))
    elif kind == "thm5.6_m4":
        state = {}

        def counts():
            if "counts" not in state:
                forms = [cs.gram_mod_p(g, p) for g in a["grams"]]
                state["counts"] = cs.sym_dettarget_trace_counts(
                    forms[0], p, 1, forms=forms)
            return state["counts"]
        gam = cs.gamma_const(4, p, "corrected")
        for i, gram in enumerate(a["grams"]):
            for chi in ch.char_group(p):
                if chi.is_trivial():
                    continue
                yield f"form={i} chi={chi.descriptor()}", (
                    lambda i=i, gram=gram, chi=chi: (
                        cs._weight_counts(counts()[i], chi) * gam,
                        cs.h_closed(gram, chi)))
    elif kind == "siegel":
        G = quadforms.GramMat(a["gram"])

        def siegel():
            o = plocal.siegel_series(G, p, mode="oracle")
            s = plocal.siegel_series(G, p, mode="stratified")
            return list(o.fcoeffs), list(s.fcoeffs)
        yield f"p={p}", siegel
    elif kind == "density":
        A = [[a["diag"][i] if i == j else 0 for j in range(3)] for i in range(3)]
        yield f"p={p}", lambda: (plocal.local_density(A, p, mode="brute"),
                                 plocal.local_density(A, p, mode="closed"))
    elif kind == "p_series":
        args = (a["n"], p, a["d0"], a["omega"], a["prec"])
        yield f"n={a['n']} d0={a['d0']} {a['omega']}", lambda: (
            plocal.p_series(*args, mode="brute"), plocal.p_series_closed(*args))


WORKLOADS = {w.name: w for w in (Flagship(), Oracles())}
