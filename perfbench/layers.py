"""Per-layer timers installed by wrapping the program's own functions.

Nothing here edits program code: :class:`LayerStats` replaces a
function by a timing wrapper in every loaded ``repro`` module that
holds a reference to it (callers that imported it by name included),
and accumulates inclusive wall time and call counts per metric.  A
call nested inside a call of the same metric, on the same thread, is
not counted twice, so ``run_scenario`` -> ``run_problem_chain`` counts
once as a chain.
"""

from __future__ import annotations

import sys
import threading
import time
from collections.abc import Callable
from typing import Any


class LayerStats:
    """Thread-safe per-metric wall-time, call and count accumulators."""

    def __init__(self) -> None:
        self.ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def add_time(self, metric: str, elapsed_ns: int) -> None:
        with self._lock:
            self.ns[metric] = self.ns.get(metric, 0) + elapsed_ns
            self.calls[metric] = self.calls.get(metric, 0) + 1

    def count(self, metric: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[metric] = self.counts.get(metric, 0) + amount

    def snapshot(self) -> dict[str, dict[str, int]]:
        """``{"ns": ..., "calls": ..., "counts": ...}``, copied."""
        with self._lock:
            return {
                "ns": dict(self.ns),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def timed(self, metric: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` wrapped so its outermost calls add to ``metric``."""
        local = self._local

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            active = getattr(local, "active", None)
            if active is None:
                active = local.active = set()
            if metric in active:
                return func(*args, **kwargs)
            active.add(metric)
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                self.add_time(metric, time.perf_counter_ns() - start)
                active.discard(metric)

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(func, "__name__", metric)
        return wrapper


def replace_everywhere(original: object, replacement: object) -> int:
    """Rebind every loaded ``repro`` module attribute that is ``original``.

    Returns how many bindings changed; zero means the wrapped function
    is not reachable and the layer would silently read 0, so callers
    treat it as an error.
    """
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                replaced += 1
    return replaced


def wrap_function(stats: LayerStats, metric: str, module: object, name: str) -> None:
    """Time a module-level function under ``metric`` wherever it is bound."""
    original = getattr(module, name)
    if replace_everywhere(original, stats.timed(metric, original)) == 0:
        raise RuntimeError(f"{name} is bound nowhere; cannot time {metric}")


def wrap_method(
    stats: LayerStats, metric: str, cls: type, name: str, *, classmethod_: bool = False
) -> None:
    """Time a method (or classmethod) of ``cls`` under ``metric``."""
    raw = cls.__dict__[name]
    if classmethod_:
        setattr(cls, name, classmethod(stats.timed(metric, raw.__func__)))
    else:
        setattr(cls, name, stats.timed(metric, raw))


def install_kernel_layers(stats: LayerStats) -> None:
    """Timers on the round-elimination operators and the kernel engine."""
    from repro.core import round_elimination
    from repro.core.kernel import engine

    wrap_function(stats, "re.R", round_elimination, "R")
    wrap_function(stats, "re.Rbar", round_elimination, "Rbar")
    wrap_function(stats, "re.rename", round_elimination, "rename_to_strings")
    wrap_method(stats, "kernel.intern", engine.KernelProblem, "of", classmethod_=True)
    wrap_function(stats, "kernel.node_max", engine, "maximize_node_constraint_kernel")
    wrap_function(stats, "kernel.exists", engine, "existential_constraint_kernel")
    wrap_function(stats, "kernel.edge_max", engine, "maximize_edge_constraint_kernel")

    prune = engine.prune_non_maximal_masks

    def counting_prune(configurations: list, candidate_sets: Any) -> list:
        kept = prune(configurations, candidate_sets)
        stats.count("kernel.node_max.enumerated", len(configurations))
        stats.count("kernel.node_max.survivors", len(kept))
        return kept

    if replace_everywhere(prune, counting_prune) == 0:
        raise RuntimeError("prune_non_maximal_masks is bound nowhere")


def install_service_layers(stats: LayerStats) -> None:
    """Timers on the wire codec, job store, cache, runner and pool."""
    from repro.core import cache
    from repro.core.kernel.parallel import KernelPool
    from repro.core.kernel.sharding import ShardScheduler
    from repro.scenarios import runner
    from repro.service import orchestrator, wire

    wrap_function(stats, "wire.parse", wire, "parse_job_request")
    wrap_function(stats, "wire.encode", wire, "encode_job")
    wrap_function(stats, "cache.fingerprint", cache, "fingerprint")
    wrap_method(stats, "cache.lookup", orchestrator.LockedOperatorCache, "lookup")
    wrap_function(stats, "runner.chain", runner, "run_problem_chain")
    wrap_function(stats, "runner.chain", runner, "run_scenario")
    wrap_method(stats, "parallel.pool_start", ShardScheduler, "start")
    wrap_method(stats, "parallel.map", KernelPool, "map_chunks")
