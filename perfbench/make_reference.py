"""Regenerate the committed reference outputs under ``reference/``.

    python3 perfbench/make_reference.py

It rewrites both files, for the pool sizes fixed in ``workloads.py``.

The screens' reference comes from a serial (``jobs=1``) run with a
freshly characterized analyzer, so every benchmark run also checks that
cold, warm and two-worker results agree with it.  Regenerate only when
a change is meant to alter the program's outputs, and say so.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import repro.exec as rexec  # noqa: E402
from repro.core import screening  # noqa: E402
from repro.core.analysis import DelayNoiseAnalyzer  # noqa: E402
from repro.core.functional import functional_noise  # noqa: E402
from repro.core.superposition import SuperpositionEngine  # noqa: E402

import workloads  # noqa: E402
from refkernel import RefSampler  # noqa: E402
from run import SAMPLE_INTERVAL_S  # noqa: E402


def screen_reference() -> dict:
    nets = [workloads.screen_net(i) for i in range(workloads.SCREEN_POOL)]
    analyzer = DelayNoiseAnalyzer()
    result = rexec.analyze_nets(nets, jobs=1, analyzer=analyzer,
                                alignment="table")
    costs = pool_costs(nets, analyzer)
    entries = []
    for net, report in zip(nets, result.reports):
        if report is None:
            raise SystemExit(f"{net.name}: analysis failed")
        func = functional_noise(
            net, engine=SuperpositionEngine(net, cache=analyzer.cache))
        entry = {
            "name": net.name,
            "aggressors": len(net.aggressors),
            "receiver": net.receiver.gate.name,
            "victim_driver": net.victim_driver.gate.name,
            "aggressor_drivers": sorted(a.driver.gate.name
                                        for a in net.aggressors),
            "quality": report.quality,
            "cost_ref": round(costs[net.name], 1),
        }
        for field in workloads.REPORT_FIELDS:
            entry[field] = getattr(report, field)
        for field in workloads.FUNCTIONAL_FIELDS:
            entry[field] = getattr(func, field)
        entries.append(entry)
    return {"pool_seed": workloads.SCREEN_POOL_SEED, "nets": entries}


def pool_costs(nets, analyzer, repeats: int = 5) -> dict[str, float]:
    """Per-net cost in reference-kernel units.

    A net's cost in one run is its seconds divided by the mean kernel
    sample taken while it ran; the result is the median over ``repeats``
    two-worker runs.  Used only to balance the seeded subsets by cost.
    Costs are measured the way the workloads run the nets, because BLAS
    oversubscription makes some nets two to three times dearer in a pool
    than alone, and against the samples of the net's own seconds,
    because the host's speed flips within a run.
    """
    costs: dict[str, list[float]] = {net.name: [] for net in nets}
    for _ in range(repeats):
        beats = []
        sampler = RefSampler()
        with sampler.running(SAMPLE_INTERVAL_S):
            rexec.analyze_nets(
                nets, jobs=workloads.SCREEN_JOBS, analyzer=analyzer,
                alignment="table",
                on_heartbeat=lambda beat: beats.append(
                    (time.perf_counter(), beat)))
        for end, beat in beats:
            window = [s for s, t in zip(sampler.samples, sampler.ends)
                      if end - beat.seconds <= t <= end]
            costs[beat.net].append(
                beat.seconds / statistics.fmean(window or sampler.samples))
    return {name: statistics.median(v) for name, v in costs.items()}


def triage_reference(chunk: int = 2000) -> dict:
    size = workloads.TRIAGE_POOL
    config = screening.ScreeningConfig(
        noise_threshold=workloads.NOISE_THRESHOLD)
    tiers, aggressors = [], []
    for start in range(0, size, chunk):
        nets = [workloads.triage_net(i)
                for i in range(start, min(size, start + chunk))]
        decisions, _ = screening.triage(nets, config)
        tiers.extend(str(d.tier) for d in decisions)
        aggressors.extend(str(len(net.aggressors)) for net in nets)
        print(f"triage reference: {start + len(nets)}/{size}",
              file=sys.stderr, flush=True)
    return {"pool_seed": workloads.TRIAGE_POOL_SEED,
            "threshold": workloads.NOISE_THRESHOLD,
            "tiers": "".join(tiers), "aggressors": "".join(aggressors)}


def write(name: str, payload: dict) -> None:
    path = os.path.join(workloads.REFERENCE_DIR, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def main() -> int:
    write("screen_pool.json", screen_reference())
    write("triage_pool.json", triage_reference())
    return 0


if __name__ == "__main__":
    sys.exit(main())
