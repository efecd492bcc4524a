"""The benchmark's workloads: seeded inputs, timed phase, output check.

Every workload draws its nets from a fixed *pool* whose outputs are
committed under ``reference/``; the seed picks which pool nets run.
Each pool net has its own generator seed, so any subset is generated
without generating the rest.  Subsets are stratified (the screens by
reference analysis cost, triage by reference tier and aggressor
count), so every seed gives a workload of the same shape and cost.

* ``cold_screen`` and ``warm_screen`` make the calls ``repro screen``
  makes: :func:`repro.exec.analyze_nets` with ``alignment="table"`` over
  two workers, then :func:`repro.core.functional.functional_noise` per
  net in the parent.  ``cold_screen`` starts from an empty analyzer;
  ``warm_screen`` restores its characterization from a fixture.
* ``triage_block`` runs :func:`repro.core.screening.triage` over a
  block-sized population at the screening bench's 0.6 V threshold.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import time

import repro.exec as rexec
from repro.bench.netgen import NetGenConfig, NetGenerator
from repro.core import functional, screening, superposition
from repro.core.analysis import DelayNoiseAnalyzer
from repro.storage import load_characterization, save_characterization
from repro.units import NS

__all__ = ["WORKLOADS", "SCREEN_LIBRARY", "screen_net", "triage_net",
           "screen_order", "cold_population", "triage_selection",
           "compare_reports", "src_hash", "cpu_seconds"]

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
CACHE_DIR = os.path.join(HERE, ".cache")

#: The screens' cell library: two receiver cells, two victim and two
#: aggressor drivers, one input slew each.  Every cold pass then builds
#: the same 2 alignment and 4 Thevenin tables whatever the seed, so the
#: seed does not change how much characterization a run does.
SCREEN_LIBRARY = NetGenConfig(
    victim_driver_scales=(1.0, 2.0),
    aggressor_driver_scales=(4.0, 8.0),
    receiver_scales=(1.0, 2.0),
    victim_slews=(0.2 * NS,),
    aggressor_slews=(0.15 * NS,),
)
SCREEN_POOL_SEED = 7001
#: Nets in the screens' pool.  Changing it redefines every seeded
#: population (the strata follow the pool), so the reference must be
#: regenerated with it.
SCREEN_POOL = 96
SCREEN_JOBS = 2
WARM_NETS = 18
#: Cost strata (of ``WARM_NETS``, cheapest first) the cold nets come
#: from: one from each quarter of the cost range.
COLD_STRATA = (2, 6, 11, 15)
COST_TOLERANCE = 0.01

TRIAGE_POOL_SEED = 7002
#: Nets in the triage pool; changing it redefines every seeded
#: population, as with ``SCREEN_POOL``.
TRIAGE_POOL = 20000
TRIAGE_NETS = 5000
#: The screening bench's noise threshold.
NOISE_THRESHOLD = 0.6
#: Re-running a pruned-but-referenced-escalated net at tier 2 may need
#: characterization; past this many such nets the rest count as failed
#: unchecked, so a badly broken run still ends in time.
MAX_PRUNE_AUDITS = 16

#: Tolerances of the output check: voltages in volts, times in seconds.
VOLT_TOL = 1e-9
TIME_TOL = 1e-15
REPORT_FIELDS = {"extra_delay_output": TIME_TOL,
                 "extra_delay_input": TIME_TOL,
                 "pulse_height": VOLT_TOL,
                 "peak_time": TIME_TOL}
FUNCTIONAL_FIELDS = {"input_peak": VOLT_TOL, "output_peak": VOLT_TOL}


def screen_net(index: int):
    """Pool net ``index`` of the screens (generated on its own seed)."""
    return NetGenerator(seed=[SCREEN_POOL_SEED, index],
                        config=SCREEN_LIBRARY).generate(index)


def triage_net(index: int):
    """Pool net ``index`` of ``triage_block``."""
    return NetGenerator(seed=[TRIAGE_POOL_SEED, index],
                        config=NetGenConfig.screening()).generate(index)


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name)) as handle:
        return json.load(handle)


def src_hash(root: str) -> str:
    """Hash of every source file under ``root/src/repro``."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src", "repro")
    for folder, dirs, files in os.walk(base):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(folder, filename)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def compare_reports(names, reports, funcs, references) -> list[str]:
    """One message per net whose outputs differ from its reference."""
    problems = []
    for name, report, func, ref in zip(names, reports, funcs, references):
        if report is None or func is None:
            problems.append(f"{name}: no report")
            continue
        if report.quality != ref["quality"]:
            problems.append(f"{name}: quality {report.quality!r}, "
                            f"reference {ref['quality']!r}")
            continue
        pairs = [(field, getattr(report, field), ref[field], tol)
                 for field, tol in REPORT_FIELDS.items()]
        pairs += [(f"functional.{field}", getattr(func, field), ref[field],
                   tol) for field, tol in FUNCTIONAL_FIELDS.items()]
        for label, value, expected, tol in pairs:
            if not abs(value - expected) <= tol:
                problems.append(f"{name}: {label} {value!r}, reference "
                                f"{expected!r} (tolerance {tol:g})")
                break
    return problems


def _timed_pool_call(nets, analyzer, heartbeat):
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    result = rexec.analyze_nets(nets, jobs=SCREEN_JOBS, analyzer=analyzer,
                                alignment="table", on_heartbeat=heartbeat)
    return result, time.perf_counter() - t0, cpu_seconds() - cpu0


class ScreenWorkload:
    """``cold_screen`` / ``warm_screen``: tier-2 analysis of pool nets."""

    jobs = SCREEN_JOBS

    def __init__(self, seed: int, root: str, *, cold: bool):
        self.reference = load_reference("screen_pool.json")
        order = screen_order(seed, self.reference["nets"])
        self.indices = cold_population(order) if cold else order
        self.cold = cold
        self.fixture = os.path.join(CACHE_DIR,
                                    f"chardb-{src_hash(root)}.json")
        self.netgen_s = 0.0

    def build(self) -> None:
        """Write the warm characterization fixture if it is missing.

        Runs before set-up is timed; the file name carries the source
        hash, so a fixture is never served to code it was not built by.
        """
        if self.cold or os.path.exists(self.fixture):
            return
        analyzer = DelayNoiseAnalyzer()
        nets = [screen_net(i) for i in range(len(self.reference["nets"]))]
        rexec.warm_analyzer(analyzer, nets, alignment="table")
        os.makedirs(CACHE_DIR, exist_ok=True)
        save_characterization(self.fixture, analyzer)

    def prepare(self):
        t0 = time.perf_counter()
        nets = [screen_net(i) for i in self.indices]
        self.netgen_s = time.perf_counter() - t0
        analyzer = DelayNoiseAnalyzer()
        if not self.cold:
            load_characterization(self.fixture, analyzer)
        return nets, analyzer

    def execute(self, inputs, heartbeat):
        nets, analyzer = inputs
        result, pool_wall, pool_cpu = _timed_pool_call(nets, analyzer,
                                                       heartbeat)
        funcs = []
        for net in nets:
            engine = superposition.SuperpositionEngine(
                net, cache=analyzer.cache)
            funcs.append(functional.functional_noise(net, engine=engine))
        return {"reports": result.reports, "funcs": funcs,
                "pool_wall": pool_wall, "pool_cpu": pool_cpu}

    def check(self, outcome, snapshot) -> dict:
        refs = [self.reference["nets"][i] for i in self.indices]
        names = [ref["name"] for ref in refs]
        problems = compare_reports(names, outcome["reports"],
                                   outcome["funcs"], refs)
        failed_nets = {p.split(":", 1)[0] for p in problems}
        if not self.cold:
            counters = snapshot.get("counters", {})
            misses = (counters.get("cache.thevenin.misses", 0)
                      + counters.get("cache.alignment.misses", 0))
            if misses:
                problems.append(f"warm pass missed the characterization "
                                f"cache {misses} time(s)")
        reports = [r for r in outcome["reports"] if r is not None]
        return {
            "attempted": len(names),
            "failed": len(failed_nets),
            "problems": problems,
            "exact": sum(1 for r in reports if r.quality == "exact"),
            "reports": len(reports),
            "pruned": 0,
        }


def screen_order(seed: int, pool: list[dict]) -> list[int]:
    """The warm population for ``seed``: pool indices, in run order.

    The pool is ranked by its reference cost and cut into ``WARM_NETS``
    strata of neighbouring ranks.  The seed picks one net from each,
    and the cold population is the picks from :data:`COLD_STRATA`.
    Picks are redrawn until the cold nets use every cell of
    :data:`SCREEN_LIBRARY` (so cold passes build the same tables) and
    the total cost is within ``COST_TOLERANCE`` of the sum of the strata
    means (so every seed's population costs the same).  Nets run
    dearest first, so the pool's last net is a cheap one and the tail
    where one worker idles stays short whatever the seed.
    """
    rng = random.Random(seed)
    ranked = sorted(range(len(pool)), key=lambda i: pool[i]["cost_ref"])
    strata = [ranked[k * len(pool) // WARM_NETS:
                     (k + 1) * len(pool) // WARM_NETS]
              for k in range(WARM_NETS)]
    every_cell = _cells(pool)
    target = sum(statistics.fmean(pool[i]["cost_ref"] for i in stratum)
                 for stratum in strata)
    while True:
        picks = [rng.choice(stratum) for stratum in strata]
        cost = sum(pool[i]["cost_ref"] for i in picks)
        if (_cells(pool[picks[k]] for k in COLD_STRATA) == every_cell
                and abs(cost - target) <= COST_TOLERANCE * target):
            return picks[::-1]


def cold_population(order: list[int]) -> list[int]:
    """The cold nets within a :func:`screen_order` result, in run order."""
    return [order[WARM_NETS - 1 - k] for k in sorted(COLD_STRATA,
                                                     reverse=True)]


def _cells(nets) -> tuple[frozenset, ...]:
    receivers, victims, aggressors = set(), set(), set()
    for net in nets:
        receivers.add(net["receiver"])
        victims.add(net["victim_driver"])
        aggressors.update(net["aggressor_drivers"])
    return frozenset(receivers), frozenset(victims), frozenset(aggressors)


class TriageWorkload:
    """``triage_block``: tiers 0 and 1 over a block-sized population."""

    jobs = 1

    def __init__(self, seed: int, root: str):
        self.reference = load_reference("triage_pool.json")
        self.indices = triage_selection(seed, self.reference)
        self.config = screening.ScreeningConfig(
            noise_threshold=NOISE_THRESHOLD)
        self.netgen_s = 0.0

    def build(self) -> None:
        pass

    def prepare(self):
        t0 = time.perf_counter()
        nets = [triage_net(i) for i in self.indices]
        self.netgen_s = time.perf_counter() - t0
        return nets

    def execute(self, nets, heartbeat):
        decisions, stats = screening.triage(nets, self.config)
        return {"nets": nets, "decisions": decisions, "stats": stats,
                "pool_wall": 0.0, "pool_cpu": 0.0}

    def check(self, outcome, snapshot) -> dict:
        """Tier decisions against the reference.

        Escalating a net the reference pruned fails: this workload runs
        no tier 2, so an extra escalation would cost it nothing and a
        change that skipped tier 1 would read as a gain.  Pruning a net
        the reference escalated is re-checked at tier 2, as
        :func:`repro.core.screening.audit_prunes` does, and fails if
        the net measures at or above the threshold.
        """
        tiers = self.reference["tiers"]
        problems, suspects = [], []
        for index, net, decision in zip(self.indices, outcome["nets"],
                                        outcome["decisions"]):
            if decision.pruned and tiers[index] == "2":
                suspects.append((net, decision))
            elif not decision.pruned and tiers[index] != "2":
                problems.append(f"{net.name}: escalated, reference pruned "
                                f"at tier {tiers[index]}")
        for net, decision in suspects[MAX_PRUNE_AUDITS:]:
            problems.append(f"{net.name}: pruned at tier "
                            f"{decision.tier}, reference escalated "
                            "(not re-checked: too many)")
        audited = suspects[:MAX_PRUNE_AUDITS]
        if audited:
            verdict = screening.audit_prunes(
                [net for net, _ in audited], [d for _, d in audited],
                config=self.config, rate=1.0)
            for item in verdict["unsound"]:
                problems.append(
                    f"{item['net']}: pruned at tier "
                    f"{item['pruned_at_tier']} but measures "
                    f"{item['actual_pulse_height']:.4f} V at tier 2")
        stats = outcome["stats"]
        return {
            "attempted": len(self.indices),
            "failed": len(problems),
            "problems": problems,
            "exact": 0,
            "reports": 0,
            "pruned": stats.pruned,
        }


def triage_selection(seed: int, reference: dict) -> list[int]:
    """``TRIAGE_NETS`` pool indices for ``seed``, in pool order.

    Stratified by (reference tier, aggressor count) in the pool's own
    proportions, so every seed runs tier 1 on the same number of nets
    with the same number of aggressors.
    """
    strata: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(reference["tiers"],
                                reference["aggressors"])):
        strata.setdefault(key, []).append(i)
    pool = len(reference["tiers"])
    keys = sorted(strata)
    quotas = {k: len(strata[k]) * TRIAGE_NETS // pool for k in keys}
    # Largest remainders take the nets the floors left over.
    by_remainder = sorted(
        keys, key=lambda k: (-(len(strata[k]) * TRIAGE_NETS % pool), k))
    for k in by_remainder[:TRIAGE_NETS - sum(quotas.values())]:
        quotas[k] += 1
    rng = random.Random(seed)
    chosen = [i for k in keys for i in rng.sample(strata[k], quotas[k])]
    return sorted(chosen)


WORKLOADS = {
    "cold_screen": lambda seed, root: ScreenWorkload(seed, root, cold=True),
    "warm_screen": lambda seed, root: ScreenWorkload(seed, root,
                                                     cold=False),
    "triage_block": TriageWorkload,
}
