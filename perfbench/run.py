"""Screen benchmark: cold characterization, warm tier-2 analysis and
block-scale triage, with timings corrected for host-speed drift.

    python3 perfbench/run.py --workload cold_screen|warm_screen|triage_block
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Environment facts (BLAS, thread variables, versions, source hash) go to
standard error as one JSON line.  See README.md in this directory.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from refkernel import RefSampler  # noqa: E402  (standard library only)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is repeated this many times per run; ``setup_s`` reports the
#: median (plus the one-off import time).
SETUP_REPEATS = 3
#: ``setup_s`` is scaled to a host on which one reference-kernel sample
#: takes this long (about an idle core of the VM the benchmark was
#: built on), so host drift cancels from it as it does from ``wall_ref``.
NOMINAL_REF_S = 1.25e-3
#: Seconds between reference-kernel samples: about 2.5% of the phase.
#: One sample reads the host's state with a spread of about 20%, so a
#: 20-s phase needs its 400 samples for the mean to be within about 1%.
SAMPLE_INTERVAL_S = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = [("wall_ref", "ref"), ("cpu_ref", "ref"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("ok_frac", "frac")]

#: Per-layer metrics of a traced run: (name, unit).
PER_LAYER = [
    ("bench.wall_s", "s"), ("bench.nets_per_s", "1/s"), ("bench.cpu_s", "s"),
    ("bench.ref_s", "s"), ("host.steal_frac", "frac"),
    ("exec.pool_s", "s"), ("exec.net_busy_s", "s"), ("exec.net_p50_s", "s"),
    ("exec.net_max_s", "s"), ("exec.overhead_s", "s"),
    ("exec.snapshot_s", "s"), ("exec.cpu_per_wall", "ratio"),
    ("characterize.s", "s"), ("thevenin.builds", "count"),
    ("thevenin.build_s", "s"), ("align_table.builds", "count"),
    ("align_table.build_s", "s"), ("cache.thevenin.misses", "count"),
    ("cache.alignment.misses", "count"),
    ("analysis.nets", "count"), ("analysis.s", "s"), ("rtr.s", "s"),
    ("superposition.init_s", "s"), ("receiver.s", "s"),
    ("functional.s", "s"),
    ("sim.nonlinear.calls", "count"), ("sim.nonlinear_s", "s"),
    ("newton.woodbury", "count"), ("newton.jacobian_refresh", "count"),
    ("newton.batched.solves", "count"), ("sim.factor_cache.hit", "count"),
    ("sim.factor_cache.miss", "count"), ("sim.mna_cache.hit", "count"),
    ("sim.mna_cache.miss", "count"), ("circuit.build_mna.calls", "count"),
    ("sim.linear.calls", "count"), ("sim.linear_s", "s"),
    ("trust.factorizations", "count"), ("trust.residual_checks", "count"),
    ("trust.violations", "count"), ("trust.condition_warnings", "count"),
    ("screening.tier0.evaluated", "count"), ("screening.tier0_s", "s"),
    ("screening.tier1.evaluated", "count"), ("screening.tier1_s", "s"),
    ("mor.prima_s", "s"), ("screening.escalated", "count"),
    ("netgen.s", "s"), ("obs.instrument_events", "count"),
    ("exact_frac", "frac"), ("pruned_frac", "frac"),
    ("unattributed_s", "s"), ("trace.overhead_frac", "frac"),
]

#: Inclusive seconds / call counts of a layer, by metric name.
LAYER_SECONDS = {
    "characterize.s": "characterize", "thevenin.build_s": "thevenin.build",
    "align_table.build_s": "align_table.build", "analysis.s": "analysis",
    "rtr.s": "rtr", "superposition.init_s": "superposition.init",
    "receiver.s": "receiver", "functional.s": "functional",
    "sim.nonlinear_s": "sim.nonlinear", "sim.linear_s": "sim.linear",
    "screening.tier0_s": "screening.tier0",
    "screening.tier1_s": "screening.tier1", "mor.prima_s": "mor.prima",
}
LAYER_CALLS = {
    "thevenin.builds": "thevenin.build",
    "align_table.builds": "align_table.build", "analysis.nets": "analysis",
    "sim.nonlinear.calls": "sim.nonlinear", "sim.linear.calls": "sim.linear",
    "circuit.build_mna.calls": "mna",
}
#: Program registry counters reported as they are (metric = counter),
#: and the one reported under another name.
REGISTRY_COUNTERS = {name: name for name in (
    "cache.thevenin.misses", "cache.alignment.misses", "newton.woodbury",
    "newton.jacobian_refresh", "newton.batched.solves",
    "sim.factor_cache.hit", "sim.factor_cache.miss", "sim.mna_cache.hit",
    "sim.mna_cache.miss", "trust.factorizations", "trust.residual_checks",
    "trust.violations", "trust.condition_warnings",
    "screening.tier0.evaluated", "screening.tier1.evaluated")}
REGISTRY_COUNTERS["screening.escalated"] = "screening.settled.tier2"


def _cpu_stat() -> tuple[int, int]:
    """(steal, busy) jiffies of all CPUs; zeros where unreadable.

    Busy is every state but idle and iowait, steal included: a halted
    CPU is never stolen from, so steal is a share of busy time.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


class Pass:
    """One timed phase and what it measured."""

    def __init__(self, workload, inputs, *, traced: bool):
        from repro.obs import metrics
        import layers
        from workloads import cpu_seconds

        sampler = RefSampler()
        self.net_seconds: list[float] = []

        def heartbeat(beat) -> None:
            self.net_seconds.append(beat.seconds)

        if traced:
            layers.install()
        metrics().reset()
        steal0, busy0 = _cpu_stat()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with sampler.running(SAMPLE_INTERVAL_S):
                self.outcome = workload.execute(inputs, heartbeat)
                self.wall = time.perf_counter() - t0
        finally:
            if traced:
                layers.uninstall()
        self.cpu = cpu_seconds() - cpu0
        steal1, busy1 = _cpu_stat()
        self.steal_frac = ((steal1 - steal0) / (busy1 - busy0)
                           if busy1 > busy0 else 0.0)
        self.snapshot = metrics().snapshot()
        self.ref = sampler.mean()
        self.samples = len(sampler.samples)
        self.netgen_s = workload.netgen_s
        self.check = workload.check(self.outcome, self.snapshot)
        # Keep only the figures; holding a pass's nets would let the
        # next pass's inputs stack on top of them in peak RSS.
        self.pool_wall = self.outcome["pool_wall"]
        self.pool_cpu = self.outcome["pool_cpu"]
        del self.outcome
        self.jobs = workload.jobs
        self.traced = traced

    @property
    def wall_ref(self) -> float:
        """Wall time in reference-kernel units.

        The kernel is timed in thread CPU time, which excludes time the
        hypervisor steals, so the wall is first reduced by the share of
        busy time stolen during the phase.
        """
        return self.wall * (1.0 - self.steal_frac) / self.ref


def run_passes(workload, prepared: list, budget: float, *, traced: bool):
    """Timed passes until ``budget`` seconds are used (at least one).

    A further pass starts only if the last one would still fit.  Each
    pass gets freshly built inputs, so no pass reuses state an earlier
    one left in the nets or the analyzer.  The first pass takes its
    inputs from ``prepared`` (set-up's last build) when given; popping
    them from the list drops the caller's reference, so two passes'
    inputs never stack up in peak RSS.
    """
    passes = []
    start = time.perf_counter()
    while True:
        inputs = prepared.pop() if prepared else workload.prepare()
        passes.append(Pass(workload, inputs, traced=traced))
        del inputs
        if time.perf_counter() - start + passes[-1].wall > budget:
            return passes


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    attempted = sum(p.check["attempted"] for p in passes)
    failed = sum(p.check["failed"] for p in passes)
    return {
        "wall_ref": statistics.median(p.wall_ref for p in passes),
        "cpu_ref": statistics.median(p.cpu / p.ref for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(traced, untraced) -> dict[str, float]:
    """Per-pass means of the traced passes' layer figures."""
    import layers

    rows = [_layer_row(p, layers) for p in traced]
    out = {name: statistics.fmean(row[name] for row in rows)
           for name, _unit in PER_LAYER if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (
        statistics.median(p.wall_ref for p in traced)
        / statistics.median(p.wall_ref for p in untraced) - 1.0)
    return out


def _layer_row(p: Pass, layers) -> dict[str, float]:
    tally = layers.tallies(p.snapshot)

    def seconds(layer: str) -> float:
        return sum(t[layer]["total"] for t in tally.values() if layer in t)

    def calls(layer: str) -> int:
        return sum(t[layer]["calls"] for t in tally.values() if layer in t)

    busy = sum(p.net_seconds)
    parts = layers.reconcile(tally, wall=p.wall, jobs=p.jobs,
                             net_busy=busy)
    counters = p.snapshot.get("counters", {})
    histograms = p.snapshot.get("histograms", {})
    check = p.check
    nets = check["attempted"]
    row = {
        "bench.wall_s": p.wall, "bench.nets_per_s": nets / p.wall,
        "bench.cpu_s": p.cpu, "bench.ref_s": p.ref,
        "host.steal_frac": p.steal_frac,
        "exec.pool_s": tally["p"].get("exec.pool", {}).get("self", 0.0),
        "exec.net_busy_s": busy,
        "exec.net_p50_s": (statistics.median(p.net_seconds)
                           if p.net_seconds else 0.0),
        "exec.net_max_s": max(p.net_seconds, default=0.0),
        "exec.overhead_s": parts.get("exec.pool", 0.0),
        "exec.snapshot_s": (seconds("exec.snapshot.build")
                            + seconds("exec.snapshot.restore")),
        "exec.cpu_per_wall": (p.pool_cpu / p.pool_wall
                              if p.pool_wall else 0.0),
        "netgen.s": p.netgen_s,
        "obs.instrument_events": (
            sum(v for k, v in counters.items() if not k.startswith("bench."))
            + sum(h["count"] for k, h in histograms.items()
                  if not k.startswith("bench."))),
        "exact_frac": (check["exact"] / check["reports"]
                       if check["reports"] else 0.0),
        "pruned_frac": check["pruned"] / nets,
        "unattributed_s": parts["unattributed"],
    }
    row.update({m: seconds(layer) for m, layer in LAYER_SECONDS.items()})
    row.update({m: calls(layer) for m, layer in LAYER_CALLS.items()})
    row.update({m: counters.get(c, 0) for m, c in REGISTRY_COUNTERS.items()})
    return row


def _pass_record(p: Pass) -> dict:
    import layers

    record = {"wall_s": p.wall, "ref_s": p.ref, "samples": p.samples,
              "cpu_s": p.cpu, "steal_frac": p.steal_frac,
              "traced": p.traced}
    if p.traced:
        record["self_s"] = layers.reconcile(
            layers.tallies(p.snapshot), wall=p.wall, jobs=p.jobs,
            net_busy=sum(p.net_seconds))
    return record


def environment(workload_name: str, seed: int, passes) -> dict:
    import numpy
    import scipy
    from repro.obs import git_revision
    from workloads import src_hash

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # builds differ in what they report
        blas = None
    return {
        "workload": workload_name, "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        # Outside a git checkout git would search the parent directories.
        "git_sha": (git_revision(ROOT)["revision"]
                    if os.path.exists(os.path.join(ROOT, ".git")) else None),
        "src_hash": src_hash(ROOT),
        "passes": [_pass_record(p) for p in passes],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_screen", "warm_screen",
                                 "triage_block"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    sampler = RefSampler()
    with sampler.running(SAMPLE_INTERVAL_S):
        sys.path.insert(0, SRC)
        import repro
        if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
            print(f"perfbench: imported repro from {repro.__file__}, not "
                  f"from {SRC}", file=sys.stderr)
            return 2
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, ROOT)
        import_s = time.perf_counter() - _T_START
        workload.build()

        setup_times = []
        inputs = None
        for _ in range(SETUP_REPEATS):
            inputs = None
            t0 = time.perf_counter()
            inputs = workload.prepare()
            setup_times.append(time.perf_counter() - t0)
    setup_raw = import_s + statistics.median(setup_times)
    setup_s = setup_raw * NOMINAL_REF_S / sampler.mean()

    prepared = [inputs]
    del inputs
    if args.trace:
        untraced = run_passes(workload, prepared, args.seconds / 2,
                              traced=False)
        traced = run_passes(workload, [], args.seconds / 2, traced=True)
        passes = untraced + traced
        metrics = per_layer(traced, untraced)
        units = dict(PER_LAYER)
    else:
        passes = run_passes(workload, prepared, args.seconds, traced=False)
        metrics = end_to_end(passes, setup_s)
        units = dict(END_TO_END)

    problems = [msg for p in passes for msg in p.check["problems"]]
    for msg in problems:
        print(f"MISMATCH {msg}", file=sys.stderr)
    env = environment(args.workload, args.seed, passes)
    env["setup"] = {"raw_s": setup_raw, "ref_s": sampler.mean()}
    print(json.dumps({"env": env}), file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.check["attempted"] for p in passes),
        "failed": sum(p.check["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
