"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.obs import metrics  # noqa: E402


def test_reference_kernel_imports_nothing_from_the_program():
    code = ("import sys; import refkernel; refkernel.RefSampler().sample(); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('repro', 'numpy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


def _fake_outcome(refs):
    reports = [SimpleNamespace(quality=r["quality"], **{
        f: r[f] for f in workloads.REPORT_FIELDS}) for r in refs]
    funcs = [SimpleNamespace(**{f: r[f] for f in workloads.FUNCTIONAL_FIELDS})
             for r in refs]
    return {"reports": reports, "funcs": funcs}


def test_one_picosecond_shift_lowers_ok_frac():
    workload = workloads.ScreenWorkload(1, ROOT, cold=False)
    refs = [dict(workload.reference["nets"][i]) for i in workload.indices]
    outcome = _fake_outcome(refs)

    def ok_frac():
        check = workload.check(outcome, {})
        fake = SimpleNamespace(wall_ref=1.0, cpu=1.0, ref=1.0, check=check)
        return run.end_to_end([fake], setup_s=1.0)["ok_frac"], check

    assert ok_frac()[0] == 1.0
    shifted = workload.indices[5]
    workload.reference["nets"][shifted]["extra_delay_output"] += 1e-12
    frac, check = ok_frac()
    assert frac < 1.0
    assert check["failed"] == 1
    name = workload.reference["nets"][shifted]["name"]
    assert check["problems"][0].startswith(f"{name}: extra_delay_output")


def test_escalating_a_reference_prune_lowers_ok_frac():
    workload = workloads.TriageWorkload(1, ROOT)
    tiers = workload.reference["tiers"]
    nets = [SimpleNamespace(name=f"net{i}") for i in workload.indices]
    decisions = [SimpleNamespace(tier=int(tiers[i]),
                                 pruned=tiers[i] != "2")
                 for i in workload.indices]
    outcome = {"nets": nets, "decisions": decisions,
               "stats": SimpleNamespace(pruned=0)}
    assert workload.check(outcome, {})["failed"] == 0

    k = next(k for k, i in enumerate(workload.indices) if tiers[i] == "1")
    decisions[k] = SimpleNamespace(tier=2, pruned=False)
    check = workload.check(outcome, {})
    assert check["failed"] == 1
    assert check["problems"] == [
        f"{nets[k].name}: escalated, reference pruned at tier 1"]


def test_layer_self_times_and_unattributed_add_up_to_wall():
    inner = layers.timed("rtr", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.02)
        inner()
        inner()

    outer = layers.timed("analysis", body)
    metrics().reset()
    t0 = time.perf_counter()
    outer()
    time.sleep(0.01)  # harness time outside any layer
    wall = time.perf_counter() - t0
    tally = layers.tallies(metrics().snapshot())
    parts = layers.reconcile(tally, wall=wall, jobs=1, net_busy=0.0)

    assert tally["p"]["rtr"]["calls"] == 2
    assert abs(sum(parts.values()) - wall) < 1e-12
    assert abs(parts["rtr"] - 0.10) < 0.02
    assert abs(parts["analysis"] - 0.02) < 0.02
    assert 0.005 < parts["unattributed"] < 0.03


def test_pool_share_splits_into_worker_layers_and_overhead():
    tally = {"p": {"exec.pool": {"calls": 1, "total": 10.0, "self": 10.0}},
             "w": {"analysis": {"calls": 8, "total": 18.0, "self": 3.0},
                   "sim.nonlinear": {"calls": 90, "total": 15.0,
                                     "self": 15.0}}}
    parts = layers.reconcile(tally, wall=10.5, jobs=2, net_busy=18.4)
    assert abs(parts["exec.pool"] - (10.0 - 9.2)) < 1e-12
    assert abs(parts["worker.sim.nonlinear"] - 7.5) < 1e-12
    assert abs(sum(parts.values()) - 10.5) < 1e-12


def test_inputs_follow_the_seed_and_keep_their_shape():
    screen = workloads.load_reference("screen_pool.json")["nets"]
    order = workloads.screen_order(3, screen)
    assert order == workloads.screen_order(3, screen)
    assert order != workloads.screen_order(4, screen)
    assert len(order) == len(set(order)) == workloads.WARM_NETS
    costs = [sum(screen[i]["cost_ref"] for i in workloads.screen_order(
        seed, screen)) for seed in range(5)]
    assert max(costs) - min(costs) <= 0.025 * min(costs)
    assert [screen[i]["cost_ref"] for i in order] == sorted(
        (screen[i]["cost_ref"] for i in order), reverse=True)
    cold = workloads.cold_population(order)
    assert set(cold) <= set(order)
    assert (workloads._cells(screen[i] for i in cold)
            == workloads._cells(screen))

    triage = workloads.load_reference("triage_pool.json")
    a = workloads.triage_selection(3, triage)
    b = workloads.triage_selection(4, triage)
    assert len(a) == len(set(a)) == workloads.TRIAGE_NETS
    assert a != b
    escalated = [sum(triage["tiers"][i] != "0" for i in s) for s in (a, b)]
    assert escalated[0] == escalated[1]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
