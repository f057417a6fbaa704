"""Tests of the benchmark itself (not part of the tier-1 suite):

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The traced cold runs take about a minute in all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import GROUPS, LAYER_METRICS, LAYERS, Tracer, span_groups, span_self_times  # noqa: E402


def test_self_time_arithmetic_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 5] (0.5 s of hot operations, child b [2, 3])
    # and c [6, 9]
    starts, ends = [0.0, 1.0, 2.0, 6.0], [10.0, 5.0, 3.0, 9.0]
    parents, hot = [-1, 0, 1, 0], [0.0, 0.5, 0.0, 0.0]
    assert span_self_times(starts, ends, parents, hot) == [3.0, 2.5, 1.0, 3.0]
    names = ["root", "quadforms.isometry_test", "quadforms.vectors_of_norm",
             "plocal.xi_tilde"]
    layer_of = {"root": "trace", names[1]: "quadforms", names[2]: "quadforms",
                names[3]: "plocal"}
    # a same-layer helper inherits its caller's group; others stay ungrouped
    assert span_groups(names, parents, layer_of, GROUPS) == [
        None, "quadforms.isometry", "quadforms.isometry", None]


def test_tracer_sees_from_imports_and_layer_times_add_up():
    from kmlift import liftkm, plocal, quadforms
    import importlib
    tracer = Tracer()
    tracer.install([importlib.import_module(f"kmlift.{m}")
                    for m in run.KMLIFT_MODULES])
    try:
        with tracer.root():
            G = quadforms.GramMat([[2, 1], [1, 14]])
            liftkm.siegel_series(G, 3, mode="stratified")   # bound by from-import
            plocal.siegel_series(G, 3, mode="oracle")
            quadforms.enumerate_classes(2, 8)
    finally:
        tracer.uninstall()
    assert liftkm.siegel_series is plocal.siegel_series
    m = tracer.metrics()
    assert m["plocal.siegel_stratified.calls"] == 1
    assert m["plocal.siegel_oracle.calls"] == 1
    assert m["quadforms.isometry.calls"] > 0
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9, abs=1e-9)


def test_benchmark_json_matches_the_design_record():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(k, v[0], v[1]) for k, v in LAYER_METRICS.items()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for name, (unit, better, moves, on, bypass) in LAYER_METRICS.items():
        assert set(on).isdisjoint(bypass), name


_RUNS = {}


def traced(workload, seed):
    """One traced cold run as the benchmark makes it."""
    key = (workload, seed)
    if key not in _RUNS:
        out = os.path.join(run.OUT, f"test-{workload}-{seed}")
        env = dict(os.environ, PYTHONPATH=run.SRC)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--child", "traced",
             "--workload", workload, "--seed", str(seed), "--out", out],
            env=env, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        shutil.rmtree(out, ignore_errors=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


def _group_on(group):
    """Workloads of a group's ``on`` set: those of its metrics."""
    return {w for name, rec in LAYER_METRICS.items()
            if name.rpartition(".")[0] == group for w in rec[3]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_moves_on_its_workload(workload):
    rec = traced(workload, 1)
    assert not rec["failed"], rec["failed"]
    layers = rec["layers"]
    for name, (unit, better, moves, on, bypass) in LAYER_METRICS.items():
        if workload in on:
            assert layers[name] > 0, name
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS) \
        + layers["trace.unattributed_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_bypass_workloads_leave_the_metric_alone(workload):
    layers = traced(workload, 1)["layers"]
    wall = layers["trace.wall_s"]
    for name, (unit, better, moves, on, bypass) in LAYER_METRICS.items():
        if workload not in bypass:
            continue
        if unit == "s":
            assert layers[name] < 0.01 * wall, name
        else:
            assert layers[name] == 0, name


def test_every_group_member_runs_on_its_workloads():
    for fn, group in GROUPS.items():
        on = _group_on(group)
        assert on, group
        assert any(traced(w, 1)["calls"].get(fn) for w in on), (fn, sorted(on))


def test_oracle_work_is_seed_invariant():
    a, b = traced("oracles", 1)["layers"], traced("oracles", 2)["layers"]
    keys = ["charsums.brute.cells", "charsums.brute.calls"] + \
        [k for k in LAYER_METRICS if k.startswith("plocal.") and k.endswith(".calls")]
    assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
    assert a["charsums.brute.cells"] > 0


def test_a_dead_cold_run_still_gives_a_result():
    # a seed the child cannot parse makes the cold run exit with an error
    args = argparse.Namespace(workload="flagship", seed="not-a-seed",
                              seconds=1, trace=0)
    res = run.measure(args, time.monotonic() + 60)
    assert res == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_all_carries_on_past_dead_workloads(monkeypatch, capsys):
    seen = []

    def dead(args, mode, index, deadline):
        seen.append((args.workload, deadline))
        return None, 4

    monkeypatch.setattr(run, "cold_run", dead)
    assert run.main(["--workload", "all", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    n = 4 * len(run.WORKLOADS)
    assert last == {"correct": False, "attempted": n, "failed": n,
                    "metrics": {}}
    assert [w for w, _ in seen] == list(run.WORKLOADS)
    assert len({d for _, d in seen}) == 1      # one deadline for the whole run
