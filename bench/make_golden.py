"""Regenerate ``golden.json``: the sha256 of every canonical report the
workloads can write, and the seed-invariant call counts of ``oracles``.

    PYTHONPATH=src python3 bench/make_golden.py

Run it only when a change is meant to alter report bytes, and say so in the
change.  The traced ``oracles`` run comes first so that it starts with the
module caches empty, as a cold run does.
"""

import importlib
import json
import os
import shutil
import sys
import tempfile

import workloads
from run import KMLIFT_MODULES
from spans import Tracer

SEED_COUNTS = ("charsums.brute.cells", "plocal.siegel_oracle.calls",
               "plocal.siegel_stratified.calls", "plocal.p_series_brute.calls",
               "plocal.density.calls")


def main():
    tmp = tempfile.mkdtemp(dir=workloads.HERE)
    golden = {"flagship": {}, "oracles": {"digests": {}}}
    try:
        ora = workloads.WORKLOADS["oracles"]
        for variant in range(workloads.ORACLE_VARIANTS):
            inp = ora.prepare(variant)
            out = os.path.join(tmp, f"oracles-{variant}")
            if variant == 0:
                tracer = Tracer()
                tracer.install([importlib.import_module(f"kmlift.{m}")
                                for m in KMLIFT_MODULES])
                with tracer.root():
                    res = ora.run(inp, out)
                tracer.uninstall()
                layers = tracer.metrics()
                golden["oracles"]["counts"] = {k: layers[k] for k in SEED_COUNTS}
            else:
                res = ora.run(inp, out)
            bad = [r for r in res["results"] if not r["equal"]]
            if bad:
                sys.exit(f"oracle variant {variant} fails: {bad[:2]}")
            golden["oracles"]["digests"][str(variant)] = \
                workloads.sha256_file(res["path"])
        fl = workloads.WORKLOADS["flagship"]
        out = os.path.join(tmp, "flagship")
        fl.run(fl.prepare(0), out)
        golden["flagship"]["firstkind.json"] = workloads.sha256_file(
            os.path.join(out, "firstkind.json"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
