"""Per-layer timing for traced runs, from the benchmark's own files.

:func:`install` replaces each layer's public function, wherever a
loaded ``repro`` module binds it, with a wrapper that times the call.
Nested calls are tracked on a per-process stack, so every call yields
both its inclusive time and its *self* time (inclusive minus the
wrapped calls made inside it).

Wrappers record into the program's own metrics registry, under
``bench.p.<layer>`` in the benchmark's process and ``bench.w.<layer>``
in pool workers.  Workers are forked after :func:`install`, so they
inherit the wrappers, and the pool's per-net registry drain carries
their tallies back to the parent, as it does for the program's
counters.  Nothing is added inside ``src/repro``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

from repro.obs import metrics

__all__ = ["LAYERS", "timed", "install", "uninstall", "tallies",
           "reconcile"]

#: Layer name -> (module, attribute) of the public function it times.
#: A dotted attribute names a method of a class in that module.
LAYERS = {
    "exec.pool": ("repro.exec.pool", "analyze_nets"),
    "characterize": ("repro.exec.snapshot", "warm_analyzer"),
    "exec.snapshot.build": ("repro.exec.snapshot", "build_snapshot"),
    "exec.snapshot.restore": ("repro.exec.snapshot", "restore_analyzer"),
    "thevenin.build": ("repro.gates.thevenin", "TheveninTable.build"),
    "align_table.build": ("repro.core.precharacterize",
                          "build_alignment_table"),
    "analysis": ("repro.core.analysis", "DelayNoiseAnalyzer.analyze"),
    "rtr": ("repro.core.holding_resistance", "compute_rtr"),
    "superposition.init": ("repro.core.superposition",
                           "SuperpositionEngine.__init__"),
    "receiver": ("repro.core.exhaustive", "receiver_output_waveform"),
    "functional": ("repro.core.functional", "functional_noise"),
    "sim.nonlinear": ("repro.sim.nonlinear", "simulate_nonlinear"),
    "sim.linear": ("repro.sim.linear", "simulate_linear"),
    "mna": ("repro.circuit.mna", "build_mna"),
    "screening.tier0": ("repro.core.screening", "tier0_bound"),
    "screening.tier1": ("repro.core.screening", "tier1_estimate"),
    "mor.prima": ("repro.mor.prima", "prima_reduce"),
}

#: A worker restores its analyzer in the pool initializer, which then
#: resets the worker's registry.  Tallies of these layers are held back
#: and recorded at the worker's next wrapped call, after the reset.
_DEFERRED_LAYERS = frozenset({"exec.snapshot.restore"})

_state: dict = {"parent_pid": os.getpid(), "undo": []}
_stack: list[list[float]] = []
_deferred: list[tuple[str, float, float]] = []


def _observe(role: str, name: str, total: float, self_s: float) -> None:
    registry = metrics()
    registry.timer(f"bench.{role}.{name}").observe(total)
    registry.timer(f"bench.{role}.{name}.self").observe(self_s)


def _record(name: str, total: float, self_s: float) -> None:
    if os.getpid() == _state["parent_pid"]:
        _observe("p", name, total, self_s)
        return
    if name in _DEFERRED_LAYERS:
        _deferred.append((name, total, self_s))
        return
    while _deferred:
        _observe("w", *_deferred.pop())
    _observe("w", name, total, self_s)


def timed(name: str, fn):
    """``fn`` wrapped to record its inclusive and self time as ``name``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [0.0]
        _stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total = time.perf_counter() - t0
            _stack.pop()
            if _stack:
                _stack[-1][0] += total
            _record(name, total, total - frame[0])
    return wrapper


def _patch(owner, attribute: str, value) -> None:
    _state["undo"].append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, value)


def install() -> None:
    """Wrap every layer in :data:`LAYERS` (idempotent per process)."""
    if _state["undo"]:
        return
    _state["parent_pid"] = os.getpid()
    for name, (module_name, attribute) in LAYERS.items():
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                _patch(cls, method, classmethod(timed(name, raw.__func__)))
            else:
                _patch(cls, method, timed(name, raw))
            continue
        original = getattr(module, attribute)
        wrapper = timed(name, original)
        # Rebind every ``from ... import name`` copy in loaded modules.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro" or
                                      loaded_name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    _patch(loaded, key, wrapper)


def uninstall() -> None:
    """Restore every function :func:`install` replaced."""
    while _state["undo"]:
        owner, attribute, original = _state["undo"].pop()
        setattr(owner, attribute, original)


def tallies(snapshot: dict) -> dict[str, dict[str, dict[str, float]]]:
    """``{role: {layer: {calls, total, self}}}`` from a registry snapshot."""
    timers = snapshot.get("timers", {})
    out: dict = {"p": {}, "w": {}}
    for role in out:
        for name in LAYERS:
            inclusive = timers.get(f"bench.{role}.{name}")
            if not inclusive or not inclusive["count"]:
                continue
            out[role][name] = {
                "calls": inclusive["count"], "total": inclusive["total"],
                "self": timers[f"bench.{role}.{name}.self"]["total"]}
    return out


def reconcile(layer_tallies: dict, *, wall: float, jobs: int,
              net_busy: float) -> dict[str, float]:
    """Split a timed phase's wall into layer self-times.

    In the benchmark's process each layer contributes its self time,
    except the pool (``exec.pool``): the share of its time that worker
    layers account for is their self time divided by ``jobs``, and the
    rest, ``exec.pool`` self time minus ``net_busy / jobs``, is the
    pool's own overhead.  ``unattributed`` is what remains of ``wall``,
    so the returned parts always add up to ``wall``.
    """
    parts: dict[str, float] = {}
    for name, tally in layer_tallies["p"].items():
        parts[name] = tally["self"]
    if "exec.pool" in parts:
        parts["exec.pool"] -= net_busy / jobs
    for name, tally in layer_tallies["w"].items():
        parts[f"worker.{name}"] = tally["self"] / jobs
    parts["unattributed"] = wall - sum(parts.values())
    return parts
