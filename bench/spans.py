"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of every ``kmlift`` module from the
outside: each wrapped call records one span (name, start, end, parent) in
flat in-memory arrays.  A function imported into another module with
``from ... import`` is patched in every module that binds it, so calls
through the importing module are seen too.  Hot value-type operations
(``CycloNum`` arithmetic and construction, ``DirichletChar.__init__``) are
counters instead of spans: their time is added to the enclosing span's
child time and to their own layer, which keeps a traced run small enough to
hold in memory.  Public functions called from inside such an operation are
counted but get no span.

A span's self time is its duration minus the durations of its child spans
and of the hot operations it ran directly.  A layer's self time is the sum
of the self times of its spans and hot operations; the root span (the timed
region) keeps what no layer claims, reported as ``trace.unattributed_s``.
By construction the layer self times plus ``trace.unattributed_s`` add up
to ``trace.wall_s``.

``LAYER_METRICS`` is the benchmark's design record: for every per-layer
metric it names the end-to-end metric it should move, the workload where it
should move it, and the workload that bypasses it.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from contextlib import contextmanager

LAYERS = ("exactalg", "characters", "charsums", "quadforms", "plocal",
          "lseries", "liftkm", "reports")

# the cli is the front end of report emission: one "reports/cli" layer
MODULE_LAYER = {f"kmlift.{m}": m for m in LAYERS}
MODULE_LAYER["kmlift.cli"] = "reports"

ROOT = "trace.root"

# (module, qualified name) -> group; modal functions are split by their mode
# argument and listed as "name[mode]".  A group lists only functions that a
# workload of its ``on`` set (see LAYER_METRICS) runs in its timed region.
GROUPS = {
    "quadforms.enumerate_classes": "quadforms.enumerate",
    "quadforms.isometry_test": "quadforms.isometry",
    "quadforms.automorphism_count": "quadforms.aut",
    "plocal.siegel_series[stratified]": "plocal.siegel_stratified",
    "plocal.siegel_series[oracle]": "plocal.siegel_oracle",
    "plocal.p_series[brute]": "plocal.p_series_brute",
    "plocal.local_density[brute]": "plocal.density",
    "plocal.local_density[closed]": "plocal.density",
    "charsums.count_A_brute": "charsums.brute",
    "charsums.sl_gram_counts": "charsums.brute",
    "charsums.sl_trace_counts": "charsums.brute",
    "charsums.sym_dettarget_trace_counts": "charsums.brute",
    "charsums.h_brute_sl": "charsums.brute",
    "charsums.count_A_closed": "charsums.closed",
    "charsums.Im_closed": "charsums.closed",
    "charsums.Jm_recursion": "charsums.closed",
    "charsums.h_closed": "charsums.closed",
    "charsums.h_sum[closed]": "charsums.closed",
    "charsums.Jm_sum[auto]": "charsums.closed",
    "charsums.Jm_sum[recursion]": "charsums.closed",
    "characters.jacobi_sum": "characters.jacobi_sum",
    "lseries.rankin_stream": "lseries.streams",
    "lseries.shifted_L_stream": "lseries.streams",
    "lseries.lfactor_stream": "lseries.streams",
    "lseries.cohen_eisenstein": "lseries.streams",
    "liftkm.build_plus_eigenform": "liftkm.eigenform",
    "liftkm.build_coeff_table": "liftkm.coeff_table",
    "liftkm.ikeda_coeff": "liftkm.coeff_table",
    "liftkm.verify_thm41": "liftkm.verify",
    "liftkm.verify_thm511_61": "liftkm.verify",
    "reports.write_report": "reports.write",
}

MODAL = {"plocal.siegel_series", "plocal.p_series", "plocal.local_density",
         "charsums.h_sum", "charsums.Jm_sum", "charsums.Im_sum"}

# hot value-type operations: (module, class, method) -> counter, or None
# for an operation that is timed for its layer but not counted
HOT = {
    ("exactalg", "CycloNum", "__init__"): "exactalg.cyclo_new",
    ("exactalg", "CycloNum", "__add__"): "exactalg.cyclo_ops",
    ("exactalg", "CycloNum", "__radd__"): "exactalg.cyclo_ops",
    ("exactalg", "CycloNum", "__sub__"): "exactalg.cyclo_ops",
    ("exactalg", "CycloNum", "__rsub__"): "exactalg.cyclo_ops",
    ("exactalg", "CycloNum", "__mul__"): "exactalg.cyclo_ops",
    ("exactalg", "CycloNum", "__rmul__"): "exactalg.cyclo_ops",
    ("exactalg", "CycloNum", "__truediv__"): "exactalg.cyclo_ops",
    ("exactalg", "CycloNum", "__rtruediv__"): "exactalg.cyclo_ops",
    ("exactalg", "CycloNum", "__neg__"): None,
    ("exactalg", "CycloNum", "inverse"): None,
    ("exactalg", "CycloNum", "raise_level"): None,
    ("exactalg", "CycloNum", "lower_level"): None,
    ("exactalg", "CycloNum", "galois"): None,
    ("exactalg", "CycloNum", "conjugate"): None,
    ("exactalg", "CycloNum", "__eq__"): None,
    ("characters", "DirichletChar", "__init__"): "characters.char_new",
}

# Design record: name -> (unit, better, moves, on, bypass).  The metric
# should move the end-to-end metrics ``moves`` on the workloads ``on`` and
# leave them unchanged on ``bypass``.  The tests hold the record to this:
# every metric is non-zero on each workload in ``on``, every member of a
# group is called on some workload in the group's ``on``, and on each
# workload in ``bypass`` a count or ratio is zero and a time is under 1% of
# the traced wall time.
_QF = ("s", "lower", ("wall_s",), ("flagship",), ("oracles",))
_ORACLE = ("s", "lower", ("wall_s", "peak_rss_mib"), ("oracles",),
           ("flagship",))
_LIFT = ("s", "lower", ("wall_s",), ("flagship",), ("oracles",))
_ALL = ("s", "lower", ("wall_s",), ("flagship", "oracles"), ())
_NONE = ("s", "lower", (), (), ())


def _as(base, unit, better="lower"):
    return (unit, better) + base[2:]


LAYER_METRICS = {
    "quadforms.enumerate.self_s": _QF,
    "quadforms.isometry.calls": _as(_QF, "count"),
    "quadforms.isometry.self_s": _QF,
    "quadforms.isometry.hit_ratio": _as(_QF, "ratio", "higher"),
    "quadforms.aut.calls": _as(_QF, "count"),
    "quadforms.aut.self_s": _QF,
    "quadforms.classes": _as(_QF, "count", "higher"),
    "quadforms.self_s": _QF,
    # oracles calls the stratified route too, under p_series brute
    "plocal.siegel_stratified.calls": _as(_ALL, "count"),
    "plocal.siegel_stratified.self_s": _ALL,
    "plocal.siegel_oracle.calls": _as(_ORACLE, "count"),
    "plocal.siegel_oracle.self_s": _ORACLE,
    "plocal.p_series_brute.calls": _as(_ORACLE, "count"),
    "plocal.p_series_brute.self_s": _ORACLE,
    "plocal.density.calls": _as(_ORACLE, "count"),
    "plocal.density.self_s": _ORACLE,
    "plocal.self_s": _ALL,
    "charsums.brute.calls": _as(_ORACLE, "count"),
    "charsums.brute.cells": _as(_ORACLE, "count"),
    "charsums.brute.self_s": _ORACLE,
    # the closed forms, cyclotomic arithmetic and characters run on both
    # workloads, with a small share of the time on each
    "charsums.closed.calls": _as(_ALL, "count"),
    "charsums.closed.self_s": _ALL,
    "charsums.self_s": ("s", "lower", ("wall_s",), ("oracles",), ()),
    "exactalg.cyclo_new": _as(_ALL, "count"),
    "exactalg.cyclo_ops": _as(_ALL, "count"),
    "exactalg.self_s": _ALL,
    "characters.char_new": _as(_ALL, "count"),
    "characters.char_distinct_ratio": _as(_ALL, "ratio", "higher"),
    "characters.jacobi_sum.calls": _as(_ALL, "count"),
    "characters.self_s": _ALL,
    "lseries.streams.calls": _as(_LIFT, "count"),
    "lseries.streams.self_s": _LIFT,
    "lseries.self_s": _LIFT,
    "liftkm.eigenform.self_s": _QF,
    "liftkm.coeff_table.self_s": _QF,
    "liftkm.verify.self_s": _LIFT,
    "liftkm.indices_checked": ("count", "higher", ("checks",),
                               ("flagship",), ("oracles",)),
    "liftkm.self_s": _LIFT,
    "reports.write.self_s": _ALL,
    "reports.bytes": _as(_ALL, "B"),
    "reports.self_s": _ALL,
    "trace.wall_s": _NONE,
    "trace.unattributed_s": _NONE,
    "trace.overhead_ratio": _as(_NONE, "ratio"),
    "trace.spans": _as(_NONE, "count"),
}


def _isometry_hit(tr, fn, a, k, res):
    if res is not None:
        tr.count("quadforms.isometry.hits")


def _classes(tr, fn, a, k, res):
    tr.count("quadforms.classes", len(res.classes))


def _budget_cells(tr, fn, a, k, res):
    tr.count("charsums.brute.cells", a[0] if a else k["cost"])


def _report_bytes(tr, fn, a, k, res):
    tr.count("reports.bytes", os.path.getsize(res)
             + os.path.getsize(res[:-len(".json")] + ".txt"))


def _char_new(tr, fn, a, k, res):
    tr.distinct_chars.add((a[0].modulus, a[0].exponents))


def _verify(name):
    def hook(tr, fn, a, k, res):
        from workloads import indices_checked
        ba = inspect.signature(fn).bind(*a, **k)
        ba.apply_defaults()
        args = ba.arguments
        tr.count("liftkm.indices_checked", indices_checked(
            name, res, args["bound"], args["nu2_cap"],
            with_61=args.get("cn") is not None))
    return hook


# Observers called after the call returns; private names get a counting
# probe only (no span).
HOOKS = {
    "quadforms.isometry_test": _isometry_hit,
    "quadforms.enumerate_classes": _classes,
    "charsums._check_budget": _budget_cells,
    "reports.write_report": _report_bytes,
    "characters.DirichletChar.__init__": _char_new,
    "liftkm.verify_thm41": _verify("thm4.1"),
    "liftkm.verify_thm511_61": _verify("thm5.11+6.1"),
}


def span_self_times(starts, ends, parents, hot):
    """Self time of every span: duration minus child-span durations minus the
    hot operations run directly inside it.  Parents precede their children."""
    out = [e - s - h for s, e, h in zip(starts, ends, hot)]
    for i, par in enumerate(parents):
        if par >= 0:
            out[par] -= ends[i] - starts[i]
    return out


def span_groups(names, parents, layer_of, group_of):
    """Group of every span.  A span of an ungrouped function inherits the
    group of its parent when both are in the same layer, so same-layer
    helpers (vectors_of_norm under isometry_test) count for their caller."""
    out = []
    for i, name in enumerate(names):
        g = group_of.get(name)
        par = parents[i]
        if g is None and par >= 0 and layer_of[names[par]] == layer_of[name]:
            g = out[par]
        out.append(g)
    return out


class Tracer:
    """``install(modules)``, run the timed region inside ``root()``, then
    ``uninstall()`` and read ``metrics()``."""

    def __init__(self):
        self.fnames: list[str] = []
        self.fids: dict[str, int] = {}
        self.layer_of: dict[str, str] = {ROOT: "trace"}
        self.calls: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hot = array("d")
        self.stack: list[int] = []
        self.hot_stack: list[float] = []
        self.hot_self = {layer: 0.0 for layer in LAYERS}
        self.counters: dict[str, float] = {}
        self.distinct_chars: set = set()
        self._patched: list = []
        self._fid(ROOT)

    # -- registration

    def _fid(self, name):
        fid = self.fids.get(name)
        if fid is None:
            fid = self.fids[name] = len(self.fnames)
            self.fnames.append(name)
            self.calls.append(0)
        return fid

    def count(self, key, k=1):
        self.counters[key] = self.counters.get(key, 0) + k

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def install(self, modules, hooks=HOOKS):
        """Wrap every public function defined in ``modules`` (a list of
        kmlift modules) in every module that binds it, the HOT methods, and
        the private functions named in ``hooks``."""
        by_name = {m.__name__: m for m in modules}
        originals = {}
        for mod in modules:
            layer = MODULE_LAYER[mod.__name__]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                qual = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
                originals[id(obj)] = (obj, qual, layer)
        wrapped = {}
        for key, (obj, qual, layer) in originals.items():
            wrapped[key] = self._span_wrapper(obj, qual, layer, hooks.get(qual))
        for mod in by_name.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and originals[id(obj)][0] is obj:
                    self._set(mod, attr, wrapped[id(obj)])
        for (mname, cname, meth), counter in HOT.items():
            cls = getattr(by_name[f"kmlift.{mname}"], cname)
            self._set(cls, meth, self._hot_wrapper(
                cls.__dict__[meth], mname, counter,
                hooks.get(f"{mname}.{cname}.{meth}")))
        for qual, hook in hooks.items():
            mname, attr = qual.split(".", 1)
            if attr.startswith("_"):
                mod = by_name[f"kmlift.{mname}"]
                self._set(mod, attr, self._probe(getattr(mod, attr), hook))

    def _probe(self, fn, hook):
        def wrapper(*a, **k):
            res = fn(*a, **k)
            hook(self, fn, a, k, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, fn, qual, layer, hook):
        mode_of = None
        if qual in MODAL:
            sig = inspect.signature(fn)
            default = sig.parameters["mode"].default

            def mode_of(a, k):
                if "mode" in k:
                    return k["mode"]
                try:
                    return sig.bind_partial(*a).arguments.get("mode", default)
                except TypeError:
                    return default
        base = self._fid(qual)
        self.layer_of[qual] = layer
        perf = time.perf_counter
        calls, stack, hot_stack = self.calls, self.stack, self.hot_stack
        names, parents, starts, ends, hots = (self.name, self.parent, self.start,
                                              self.end, self.hot)

        def wrapper(*a, **k):
            fid = base
            if mode_of is not None:
                name = f"{qual}[{mode_of(a, k)}]"
                fid = self._fid(name)
                self.layer_of[name] = layer
            calls[fid] += 1
            if hot_stack or not stack:
                return fn(*a, **k)
            i = len(starts)
            names.append(fid)
            parents.append(stack[-1])
            hots.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                res = fn(*a, **k)
            finally:
                ends[i] = perf()
                stack.pop()
            if hook is not None:
                hook(self, fn, a, k, res)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        return wrapper

    def _hot_wrapper(self, fn, layer, counter, hook):
        perf = time.perf_counter
        hot_stack, stack, hots = self.hot_stack, self.stack, self.hot
        hot_self = self.hot_self
        counters = self.counters

        def wrapper(*a, **k):
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + 1
            hot_stack.append(0.0)
            t0 = perf()
            try:
                res = fn(*a, **k)
            finally:
                dur = perf() - t0
                hot_self[layer] += dur - hot_stack.pop()
                if hot_stack:
                    hot_stack[-1] += dur
                elif stack:
                    hots[stack[-1]] += dur
            if hook is not None:
                hook(self, fn, a, k, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    # -- the timed region

    @contextmanager
    def root(self):
        self.name.append(0)
        self.parent.append(-1)
        self.hot.append(0.0)
        self.end.append(0.0)
        self.stack.append(0)
        self.calls[0] += 1
        self.start.append(time.perf_counter())
        try:
            yield self
        finally:
            self.end[0] = time.perf_counter()
            self.stack.pop()

    # -- aggregation

    def metrics(self):
        names = [self.fnames[i] for i in self.name]
        parents = list(self.parent)
        starts, ends = list(self.start), list(self.end)
        selfs = span_self_times(starts, ends, parents, list(self.hot))
        groups = span_groups(names, parents, self.layer_of, GROUPS)
        layer_self = dict(self.hot_self)
        group_self: dict[str, float] = {}
        for name, g, s in zip(names, groups, selfs):
            layer = self.layer_of[name]
            if layer in layer_self:
                layer_self[layer] += s
            if g is not None:
                group_self[g] = group_self.get(g, 0.0) + s
        group_calls: dict[str, int] = {}
        for fid, name in enumerate(self.fnames):
            g = GROUPS.get(name)
            if g is not None:
                group_calls[g] = group_calls.get(g, 0) + self.calls[fid]
        c = self.counters
        m = {"trace.wall_s": ends[0] - starts[0],
             "trace.unattributed_s": selfs[0],
             "trace.spans": len(names)}
        for name in LAYER_METRICS:
            prefix, _, kind = name.rpartition(".")
            if name in m or name == "trace.overhead_ratio":
                continue       # the overhead ratio needs the untraced run
            if kind == "self_s":
                m[name] = layer_self.get(prefix, group_self.get(prefix, 0.0))
            elif kind == "calls":
                m[name] = group_calls.get(prefix, 0)
            else:
                m[name] = c.get(name, 0)
        iso = m["quadforms.isometry.calls"]
        m["quadforms.isometry.hit_ratio"] = (
            c.get("quadforms.isometry.hits", 0) / iso if iso else 0.0)
        chars = m["characters.char_new"]
        m["characters.char_distinct_ratio"] = (
            len(self.distinct_chars) / chars if chars else 0.0)
        return m

    def function_calls(self):
        """Calls per wrapped function name (modal ones split by mode)."""
        return {n: self.calls[i] for i, n in enumerate(self.fnames) if n != ROOT}
