"""Batch front end.

Subcommands: charsum, jacobi, local {density,siegel,pseries},
lseries {cohen,stream}, forms {enumerate,aut}, lift coeffs, kmverify,
firstkind.  Parameters are validated against module preconditions before any
heavy work; each command runs inside ``charsums.budget_limit(--budget)``, and
an exhaustive enumeration refuses with its computed cost when that is over
``--budget`` or over a fixed ``plocal`` cap.  Exit status is 0 iff every
requested identity check has an empty residual list.

Character descriptors are strings "N:e1,e2,..." listing exponents on the
fixed generators of each prime-power component of (Z/N)^*, ascending primes
(and the pair -1, 5 for 2^k, k >= 3); see characters.unit_group_basis.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import charsums, lseries, plocal, quadforms
from .characters import char_group, parse_descriptor, require_prime
from .exactalg import CycloNum
from .quadforms import GramMat
from .reports import manifest, write_report


def _out(args, name):
    return f"{args.out}/{name}"


def _finish(args, name, data, passed, t0):
    data = dict(data)
    path = write_report(data, _out(args, name))
    man = manifest({k: v for k, v in vars(args).items() if k != "func"},
                   [(name, round(time.time() - t0, 3))],
                   data.get("constants", {}), data.get("variant_notes", []))
    write_report(man, _out(args, name + ".manifest"))
    print(f"{name}: {'PASS' if passed else 'FAIL'}  -> {path}")
    return 0 if passed else 1


# charsum arguments, the suites that read each and its default
_CHARSUM_ARGS = {
    "primes": ({"lemma5.1", "lemma5.3", "prop5.4", "prop5.7", "prop5.8",
                "thm5.9", "prop5.10"}, [5, 7, 11, 13]),
    "m": ({"lemma5.1"}, 4),
    "pairs": ({"lemma5.1"}, 200),
    "seed": ({"lemma5.1"}, 11),
}


def cmd_charsum(args):
    t0 = time.time()
    sec57 = lambda: charsums.run_prop57_58_thm59_suite(primes)
    sec55 = charsums.run_thm55_56_suite
    runners = {
        "lemma5.1": lambda: charsums.run_lemma51_suite(
            primes, args.m, args.pairs, args.seed),
        "prop5.2": charsums.run_prop52_suite,
        "lemma5.3": lambda: charsums.run_lemma53_suite(primes),
        "prop5.4": lambda: charsums.run_prop54_suite(primes),
        "prop5.7": sec57, "prop5.8": sec57, "thm5.9": sec57,
        "prop5.10": lambda: charsums.run_prop510_suite(primes),
        "thm5.5": sec55, "thm5.6": sec55,
    }
    if args.identity not in runners:
        print(f"unknown identity {args.identity!r}; choose from "
              f"{sorted(runners)}", file=sys.stderr)
        return 2
    for name, (readers, default) in _CHARSUM_ARGS.items():
        if args.identity not in readers:
            if getattr(args, name) is not None:
                raise ValueError(f"charsum {args.identity} takes no --{name}")
        elif getattr(args, name) is None:
            setattr(args, name, default)
    if args.m is not None and args.m < 1:
        raise ValueError(f"--m must be at least 1, not {args.m}")
    primes = tuple(args.primes or ())
    for p in primes:        # the closed forms of section 5 take p odd
        require_prime(p, odd=True, name="--primes")
    rep = runners[args.identity]()
    return _finish(args, f"charsum-{args.identity}", rep.to_dict(),
                   rep.passed, t0)


def cmd_jacobi(args):
    t0 = time.time()
    chi = parse_descriptor(args.chi)
    eta = parse_descriptor(args.eta) if args.eta else chi
    if args.m < 0:
        raise ValueError(f"--m must be at least 0, not {args.m}")
    val = charsums.Jm_sum(chi, eta, args.m, mode=args.mode)
    data = {"chi": args.chi, "eta": eta.descriptor(), "m": args.m,
            "mode": args.mode, "value": val.serialize()}
    return _finish(args, "jacobi", data, True, t0)


def cmd_local(args):
    t0 = time.time()
    require_prime(args.p, name="--p")
    G = GramMat(_parse_gram(args.gram))
    if args.what == "pseries" and args.mode is not None:
        raise ValueError("pseries compares brute and closed; it takes no --mode")
    if args.what == "pseries" and args.prec < 1:  # else nothing is compared
        raise ValueError(f"--prec must be at least 1, not {args.prec}")
    if args.mode is None:
        args.mode = "stratified" if args.what == "siegel" else "closed"
    if args.what == "density":
        v = plocal.local_density(G, args.p, mode=args.mode)
        data = {"gram": G.rows(), "p": args.p, "mode": args.mode,
                "alpha": f"{v.numerator}/{v.denominator}"}
        return _finish(args, "local-density", data, True, t0)
    if args.what == "siegel":
        sp = plocal.siegel_series(G, args.p, mode=args.mode)
        data = sp.to_dict()
        # siegel_series raises unless F~ satisfies its functional equation
        return _finish(args, "local-siegel", data, True, t0)
    if args.what == "pseries":
        s_brute = plocal.p_series(args.n, args.p, Fraction(args.d0), args.omega,
                                  args.prec)
        s_closed = plocal.p_series_closed(args.n, args.p, Fraction(args.d0),
                                          args.omega, args.prec)
        ok = s_brute == s_closed
        data = {"n": args.n, "p": args.p, "d0": args.d0, "omega": args.omega,
                "prec": args.prec, "brute_equals_closed": ok,
                "coefficients": {
                    str(k): {str(j): repr(c) for j, c in v.coeffs.items()}
                    for k, v in sorted(s_brute.coeffs.items())}}
        return _finish(args, "local-pseries", data, ok, t0)
    return 2


def cmd_lseries(args):
    t0 = time.time()
    if args.what == "cohen":
        table = {str(e): lseries.cohen_H(args.l, e) for e in range(args.prec)}
        data = {"l": args.l, "prec": args.prec, "H": table}
        if args.l == 2:
            data["note"] = ("weight 5/2 sits below the stated l >= 4 guard; "
                            "relaxed to l >= 2 for the flagship n = 4")
        return _finish(args, "lseries-cohen", data, True, t0)
    if args.what == "stream":
        chi = parse_descriptor(args.chi)
        f = lseries.delta_qexp(args.bound + 1)
        st = lseries.hecke_stream(f, chi, args.bound)
        data = {"form": "delta", "chi": args.chi, "bound": args.bound,
                "coefficients": {str(k): v.serialize()
                                 for k, v in sorted(st.coeffs.items())}}
        return _finish(args, "lseries-stream", data, True, t0)
    return 2


def cmd_forms(args):
    t0 = time.time()
    if args.what == "enumerate":
        cl = quadforms.enumerate_classes(args.n, args.det_bound)
        data = cl.to_dict()
        return _finish(args, "forms-enumerate", data, True, t0)
    if args.what == "aut":
        if args.N < 1:
            raise ValueError(f"--N must be at least 1, not {args.N}")
        G = GramMat(_parse_gram(args.gram))
        data = {"gram": G.rows(), "e": quadforms.automorphism_count(G, args.N),
                "N": args.N,
                "full_orthogonal": quadforms.automorphism_count_full(G)}
        return _finish(args, "forms-aut", data, True, t0)
    return 2


def _flagship(args):
    from .liftkm import build_coeff_table, build_plus_eigenform
    cl = quadforms.enumerate_classes(args.n, args.det_bound)
    if not cl.classes:  # every compared sum would be empty
        raise ValueError(f"--det-bound {args.det_bound} gives no class")
    h = build_plus_eigenform(args.k, args.n, prec=max(260, args.det_bound * 6 + 10))
    table = build_coeff_table(cl, h, args.k, args.n)
    return h, cl, table


def cmd_lift(args):
    t0 = time.time()
    h, cl, table = _flagship(args)
    data = {"n": args.n, "k": args.k, "det_bound": args.det_bound,
            "eigenvalues": {str(p): v for p, v in h.eigenvalues.items()},
            "classes": [{"gram": rec.gram.rows(), "det": rec.gram.det(),
                         "e": rec.e, "d_T": rec.disc.d, "f_T": rec.disc.f,
                         "c_I": v} for rec, v in table.classes],
            "excluded": table.excluded}
    return _finish(args, "lift-coeffs", data, True, t0)


def cmd_kmverify(args):
    t0 = time.time()
    from .liftkm import verify_thm41
    h, cl, table = _flagship(args)
    chi = parse_descriptor(args.chi) if args.chi else char_group(1)[0]
    rep = verify_thm41(h, chi, table, args.k, args.n, args.det_bound)
    data = rep.to_dict()
    data["chi"] = chi.descriptor()
    return _finish(args, "kmverify", data, rep.passed, t0)


def cmd_firstkind(args):
    t0 = time.time()
    from .liftkm import verify_thm41, verify_thm511_61
    h, cl, table = _flagship(args)
    chi = parse_descriptor(args.chi)
    cn = dn = None
    if args.with_thm41:
        base = verify_thm41(h, char_group(1)[0], table, args.k, args.n,
                            args.det_bound)
        if base.passed:
            cn = CycloNum.from_rational(Fraction(base.constants["c_n"]))
            dn = CycloNum.from_rational(Fraction(base.constants["d_n"]))
    rep = verify_thm511_61(h, chi, table, args.k, args.n, args.det_bound,
                           cn=cn, dn=dn)
    data = rep.to_dict()
    if args.with_thm41 and cn is None:
        data["notes"].append("Thm 4.1 did not pass, so Thm 6.1 was not checked")
        data["passed"] = False
    data["chi"] = chi.descriptor()
    return _finish(args, "firstkind", data, data["passed"], t0)


def _parse_gram(text):
    rows = [[int(x) for x in r.split()] for r in text.replace(",", " ").split(";")]
    if not all(len(r) == len(rows) for r in rows):
        raise ValueError(f"--gram must be a nonempty square matrix: {text!r}")
    return rows


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kmlift",
        description="exact identity checkers for twisted Koecher-Maass "
                    "series of Ikeda lifts")
    ap.add_argument("--out", default="reports", help="output directory")
    ap.add_argument("--budget", type=int, default=charsums.DEFAULT_BUDGET,
                    help="largest cost of an exhaustive charsums enumeration, "
                         "the cost being the size of the enumerated space; "
                         "the plocal oracle and brute-density caps are fixed")
    ap.add_argument("--seed", type=int, help="charsum lemma5.1 only; default 11")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("charsum", help="section-5 identity suites")
    c.add_argument("--identity", required=True)
    c.add_argument("--primes", type=int, nargs="+",
                   help="odd primes, default 5 7 11 13; not read by prop5.2, "
                        "thm5.5, thm5.6")
    c.add_argument("--m", type=int, help="lemma5.1 only; default 4")
    c.add_argument("--pairs", type=int, help="lemma5.1 only; default 200")
    c.set_defaults(func=cmd_charsum)

    j = sub.add_parser("jacobi", help="generalized Jacobi sums J_m")
    j.add_argument("--chi", required=True)
    j.add_argument("--eta", default=None)
    j.add_argument("--m", type=int, default=2)
    j.add_argument("--mode", default="auto",
                   choices=["auto", "brute", "recursion"])
    j.set_defaults(func=cmd_jacobi)

    lo = sub.add_parser("local", help="p-adic densities / Siegel series / P-series")
    lo.add_argument("what", choices=["density", "siegel", "pseries"])
    lo.add_argument("--gram", default="2 1;1 2",
                    help="rows of G = 2T, ';'-separated")
    lo.add_argument("--p", type=int, default=3)
    lo.add_argument("--mode", help="density: closed (default) or brute; "
                                   "siegel: stratified (default) or oracle; "
                                   "pseries: none")
    lo.add_argument("--n", type=int, default=2)
    lo.add_argument("--d0", type=int, default=1)
    lo.add_argument("--omega", default="iota", choices=["iota", "eps"])
    lo.add_argument("--prec", type=int, default=4)
    lo.set_defaults(func=cmd_local)

    ls = sub.add_parser("lseries", help="Cohen tables and coefficient streams")
    ls.add_argument("what", choices=["cohen", "stream"])
    ls.add_argument("--l", type=int, default=2)
    ls.add_argument("--prec", type=int, default=101)
    ls.add_argument("--chi", default="1:")
    ls.add_argument("--bound", type=int, default=40)
    ls.set_defaults(func=cmd_lseries)

    f = sub.add_parser("forms", help="class enumeration / automorphism counts")
    f.add_argument("what", choices=["enumerate", "aut"])
    f.add_argument("--n", type=int, default=4)
    f.add_argument("--det-bound", type=int, default=16)
    f.add_argument("--gram", default="2 1;1 2")
    f.add_argument("--N", type=int, default=1)
    f.set_defaults(func=cmd_forms)

    li = sub.add_parser("lift", help="Ikeda-lift Fourier coefficients")
    li.add_argument("what", choices=["coeffs"])
    li.add_argument("--n", type=int, default=4)
    li.add_argument("--k", type=int, default=8)
    li.add_argument("--det-bound", type=int, default=40)
    li.set_defaults(func=cmd_lift)

    kv = sub.add_parser("kmverify", help="Theorem 4.1 fit report")
    kv.add_argument("--n", type=int, default=4)
    kv.add_argument("--k", type=int, default=8)
    kv.add_argument("--chi", default=None)
    kv.add_argument("--det-bound", type=int, default=40)
    kv.set_defaults(func=cmd_kmverify)

    fk = sub.add_parser("firstkind", help="Theorems 5.11 / 6.1 first-kind checks")
    fk.add_argument("--n", type=int, default=4)
    fk.add_argument("--k", type=int, default=8)
    fk.add_argument("--chi", required=True)
    fk.add_argument("--det-bound", type=int, default=40)
    fk.add_argument("--with-thm41", action="store_true")
    fk.set_defaults(func=cmd_firstkind)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.seed is not None and args.command != "charsum":
            raise ValueError(f"{args.command} takes no --seed")
        with charsums.budget_limit(args.budget):
            return args.func(args)
    except charsums.BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
