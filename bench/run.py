"""kmlift benchmark: cold-process end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload {flagship,oracles,all} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; ``all`` runs the workloads in turn and
ends with one result line over all of them, metric names prefixed by the
workload.

Each measurement is one cold run: a fresh interpreter that imports
``kmlift`` from ``src/``, generates its inputs from the seed (set-up), runs
the workload once (the timed region), then checks every output against
pinned values and golden report digests.  Runs are
sequential and single-threaded (``OMP_NUM_THREADS=1`` and friends are set
for the child only), because module caches and ``lru_cache``s survive
across runs inside one process.

With ``--trace 0`` cold runs repeat, one at a time, while another fits in
``--seconds``; the end-to-end metrics are medians over them:

- ``wall_s``: wall time of the timed region;
- ``setup_s``: from spawning the interpreter to the end of input generation;
- ``cpu_s``: user plus system CPU time of the timed region;
- ``peak_rss_mib``: peak resident memory of the cold run;
- ``checks``: exact comparisons made by one cold run (fixed per workload).

Failed checks over all runs are the ``failed`` count of the result line; a
mismatch, an exception or a budget refusal is a failure, and a run that
dies counts all its planned checks as failed.  The result line is printed
even then, with the metrics of the runs that completed; if a metric has no
completed run to come from, the exit code is 1.

With ``--trace 1`` one untraced and one traced cold run are made; the
traced run wraps ``kmlift`` from outside (see ``spans.py``) and reports the
per-layer metrics, with ``trace.overhead_ratio`` = traced / untraced
``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spans import LAYER_METRICS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

# the whole invocation, every workload of ``all`` included, must end within
# 180 s; cold runs are cut before that
HARD_LIMIT_S = 170
MAX_SETUP_ONLY = 20

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mib": "MiB", "checks": "count"}

WORKLOADS = ("flagship", "oracles")
KMLIFT_MODULES = ("exactalg", "characters", "charsums", "quadforms", "plocal",
                  "lseries", "liftkm", "reports", "cli")


# ---------------------------------------------------------------------------
# one cold run (child process)

def child(args):
    import importlib
    import resource

    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inp = wl.prepare(args.seed)
    setup_end = time.monotonic()
    if args.child == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0
    traced = args.child == "traced"
    seed_gate = traced and args.workload == "oracles"
    planned = wl.planned(inp) + seed_gate
    print(f"PLAN {planned}", flush=True)

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install([importlib.import_module(f"kmlift.{m}")
                        for m in KMLIFT_MODULES])
    os.makedirs(args.out, exist_ok=True)
    c0, t0 = time.process_time(), time.perf_counter()
    if tracer is not None:
        with tracer.root():
            res = wl.run(inp, args.out)
        tracer.uninstall()
    else:
        res = wl.run(inp, args.out)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = workloads.Checks()
    wl.check(inp, res, args.out, workloads.load_golden(), checks)
    layers = tracer.metrics() if tracer is not None else None
    if seed_gate:
        want = workloads.load_golden()["oracles"]["counts"]
        checks.add("seed-invariant counts",
                   {k: layers[k] for k in want} == want)
    missing = max(0, planned - checks.total)
    checks.add_counted("missing checks", missing, missing)
    calls = tracer.function_calls() if tracer is not None else None
    print(json.dumps({"setup_end": setup_end, "wall_s": wall, "cpu_s": cpu,
                      "peak_rss_mib": rss, "checks": checks.total,
                      "failed": checks.failed, "layers": layers,
                      "calls": calls}))
    return 0


# ---------------------------------------------------------------------------
# the invocation (parent process)

def cold_run(args, mode, index, deadline):
    """Spawn one cold run in ``mode`` ("run", "traced" or "setup"); returns
    (record, planned checks), the record being None if the run died."""
    out = os.path.join(OUT, f"{args.workload}-{os.getpid()}-{index}")
    env = dict(os.environ)
    env.update({"PYTHONPATH": SRC, "PYTHONHASHSEED": "0",
                "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"})
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawn))
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stdout, stderr, code = exc.stdout or b"", "timed out", None
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = stdout.strip().splitlines()
    planned = next((int(x.split()[1]) for x in lines if x.startswith("PLAN ")), 1)
    if code != 0 or not lines:
        sys.stderr.write(f"cold run {index} ({mode}) failed (exit {code}):\n"
                         f"{stderr[-2000:]}\n")
        return None, planned
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("setup_end") - spawn
    rec["elapsed_s"] = time.monotonic() - spawn
    return rec, planned


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    import numpy
    return (f"cpu {model}; nproc {os.cpu_count()}; python "
            f"{platform.python_version()}; numpy {numpy.__version__}")


def measure(args, deadline):
    """Cold runs of one workload, all ended by ``deadline``; returns the
    result object.  A run that died counts its planned checks as failed, and
    the metrics come from the runs that completed."""
    os.makedirs(OUT, exist_ok=True)
    window = min(time.monotonic() + args.seconds, deadline)
    runs, setups = {"run": [], "traced": []}, []
    tally = {"attempted": 0, "failed": 0}

    def spawn(mode):
        index = len(runs["run"]) + len(runs["traced"]) + len(setups)
        rec, planned = cold_run(args, mode, index, deadline)
        if rec is None:
            tally["attempted"] += planned
            tally["failed"] += planned
        elif mode == "setup":
            setups.append(rec)
        else:
            tally["attempted"] += rec["checks"]
            tally["failed"] += len(rec["failed"])
            for name in rec["failed"][:5]:
                sys.stderr.write(f"check failed: {name}\n")
            runs[mode].append(rec)
        return rec

    if args.trace:
        for mode in ("run", "traced"):
            spawn(mode)
    else:
        # whole cold runs while another fits in the window, then set-up-only
        # cold starts in what is left, for a steadier setup_s median
        while spawn("run") is not None:
            longest = max(r["elapsed_s"] for r in runs["run"])
            if time.monotonic() + longest > window:
                break
        while runs["run"] and len(setups) < MAX_SETUP_ONLY:
            longest = max([r["elapsed_s"] for r in setups] or
                          [max(r["setup_s"] for r in runs["run"]) + 0.2])
            if time.monotonic() + longest > window or spawn("setup") is None:
                break

    out = {}
    if args.trace and runs["traced"]:
        metrics = dict(runs["traced"][0]["layers"])
        if runs["run"]:
            metrics["trace.overhead_ratio"] = (metrics["trace.wall_s"]
                                               / runs["run"][0]["wall_s"])
        out = {k: {"value": metrics[k], "unit": LAYER_METRICS[k][0]}
               for k in LAYER_METRICS if k in metrics}
        print(f"# {args.workload}: per-layer metrics of one traced cold run")
    elif not args.trace and runs["run"]:
        for k, unit in END_TO_END.items():
            vals = [r[k] for r in runs["run"]]
            if k == "setup_s":
                vals += [r[k] for r in setups]
            out[k] = {"value": statistics.median(vals), "unit": unit}
            print(f"# {args.workload} {k}: median {out[k]['value']:.6g} {unit} "
                  f"over n={len(vals)} cold runs: "
                  + " ".join(f"{v:.6g}" for v in vals))
    return {"correct": tally["failed"] == 0, "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": out}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--child", choices=["run", "traced", "setup"],
                    help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join(SRC, "kmlift", "__init__.py")):
        sys.stderr.write(f"kmlift sources not found under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    print(f"# {machine()}")
    deadline = time.monotonic() + HARD_LIMIT_S
    results = {}
    for name in (WORKLOADS if args.workload == "all" else [args.workload]):
        results[name] = measure(
            argparse.Namespace(**{**vars(args), "workload": name}), deadline)
    if len(results) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    else:
        print(json.dumps(results[args.workload]))
    wanted = set(LAYER_METRICS if args.trace else END_TO_END)
    return 0 if all(set(r["metrics"]) == wanted for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
