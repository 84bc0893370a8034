"""The benchmark's workloads: each a fixed SystemConfig/WorkloadConfig pair.

Every workload is a plain description here; ``build`` turns one into the
configuration objects for a given benchmark seed.  The seed is the only
input that varies between runs: ``SystemConfig.seed = seed`` and
``WorkloadConfig.seed = seed + 1`` (the CLI's convention).  Arrivals are an
open-loop Poisson process in *simulated* time, so the simulated load of a
(workload, seed) pair is fully deterministic.

``BENCHMARKED`` names the workloads ``BENCHMARK.json`` lists, each measured
end to end.  ``dynamic-stl`` and ``procs-2w`` are configurations traced
with ``stream-uniform`` (``traced_with``): its per-layer run measures them
for the figures of the layers only they load (``selection`` and
``sim.parallel``).  Every configuration can still be run by hand with
``run.py``.

This module imports nothing from ``repro`` at load time, so the operation
process can start its set-up clock before the first ``repro`` import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: The paper's base model: 4 sites, 200 items, a static uniform
#: 2PL / T/O / PA mix, 70% reads, Poisson arrivals at rate 20.
BASE_SYSTEM: Dict[str, object] = {
    "num_sites": 4,
    "num_items": 200,
    "deadlock_detection_period": 0.2,
    "restart_delay": 0.02,
}
BASE_WORKLOAD: Dict[str, object] = {
    "arrival_rate": 20.0,
    "min_size": 2,
    "max_size": 6,
    "read_fraction": 0.7,
}


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    #: Transactions per run.
    length: int
    why: str
    loads: Tuple[str, ...]
    bypasses: Tuple[str, ...]
    system: Dict[str, object] = field(default_factory=dict)
    workload: Dict[str, object] = field(default_factory=dict)
    commit: Optional[str] = None
    dynamic_selection: bool = False
    notes: str = ""
    #: Configurations whose layer-only metrics this workload's traced run
    #: also measures.
    traced_with: Tuple[str, ...] = ()

    @property
    def parallel(self) -> bool:
        """Whether the workload runs the multi-process engine."""
        return self.system.get("engine_workers", 0) > 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stream-uniform",
            length=3000,
            why=(
                "the paper's base model on the serial engine, run long enough that "
                "per-transaction state growth shows; its traced run also measures the "
                "STL selector and the process engine on the same model"
            ),
            loads=(
                "sim.kernel",
                "sim.network",
                "core.qm",
                "core.deadlock",
                "core.streaming",
                "system.coordinator",
                "system.metrics",
                "storage.exec_log",
            ),
            bypasses=("selection", "commit (2PC)", "core.oracle (batch)", "sim.parallel"),
            system={"audit": "streaming"},
            traced_with=("dynamic-stl", "procs-2w"),
        ),
        Workload(
            name="contended-2pc",
            length=2000,
            why=(
                "writes beside reads: presumed-abort 2PC, batch audit, 30% reads "
                "and a hot spot at a higher arrival rate, kept below saturation"
            ),
            loads=(
                "sim.kernel",
                "sim.network",
                "core.qm",
                "core.deadlock",
                "core.oracle (batch)",
                "system.coordinator",
                "system.metrics",
                "commit",
                "storage.exec_log",
                "storage.commit_log",
            ),
            bypasses=("selection", "core.streaming", "sim.parallel"),
            system={"audit": "batch"},
            workload={
                "arrival_rate": 15.0,
                "read_fraction": 0.3,
                "access_pattern": "hotspot",
                "hotspot_probability": 0.3,
            },
            commit="presumed-abort",
        ),
        Workload(
            name="dynamic-stl",
            length=400,
            why=(
                "stream-uniform's model under STL dynamic selection (cumulative), "
                "shorter; the selector's cost is the difference between the two"
            ),
            loads=(
                "selection",
                "sim.kernel",
                "sim.network",
                "core.qm",
                "core.streaming",
                "system.coordinator",
                "system.metrics",
            ),
            bypasses=("commit (2PC)", "core.oracle (batch)", "sim.parallel"),
            system={"audit": "streaming"},
            dynamic_selection=True,
            notes=(
                "Traced with stream-uniform, not benchmarked end to end: the "
                "benchmark's time limit fits runs long enough to ride out host "
                "speed drift for two workloads only.  selection.self_share "
                "gives the selector's share of wall time directly."
            ),
        ),
        Workload(
            name="procs-2w",
            length=600,
            why=(
                "the only workload on sim.parallel: stream-uniform's model over 2 worker "
                "processes, digest equal to serial; sized below the ~5k-transaction "
                "RecursionError (ROADMAP 2(a))"
            ),
            loads=(
                "sim.parallel (process backend)",
                "sim.network (parent replay)",
                "core.streaming",
                "system.metrics",
                "storage.exec_log",
            ),
            bypasses=("selection", "commit (2PC)", "core.oracle (batch)"),
            system={"audit": "streaming", "engine": "parallel", "engine_workers": 2},
            notes=(
                "Sized far below ~5k transactions, where the process backend "
                "dies with an untyped RecursionError in pickle.dumps (ROADMAP "
                "item 2(a)); the 10x scale probe records that crash.  Traced "
                "with stream-uniform, not benchmarked end to end: three busy "
                "processes on two vCPUs made its run-to-run spread the widest "
                "(up to 0.48), and parallel.speedup_vs_serial, taken against "
                "a serial run of the same model in the same cycle, is the "
                "keep-or-delete figure.  Worker "
                "count equals nproc (2) on the reference machine.  Worker-side "
                "spans are out of reach of the traced run: it reports the "
                "parent side plus engine_stats."
            ),
        ),
    )
}

#: The workloads ``BENCHMARK.json`` lists: the reads-heavy and the
#: writes-beside-reads model, each measured end to end.
BENCHMARKED: Tuple[str, ...] = ("stream-uniform", "contended-2pc")


def build(name: str, seed: int, *, length: Optional[int] = None, serial: bool = False):
    """``(SystemConfig, WorkloadConfig, dynamic_selection)`` for a workload.

    ``length`` overrides the transaction count (the scale probe);
    ``serial=True`` runs the same model on the serial engine (the reference
    digest and timing for ``procs-2w``).
    """
    from repro.common.config import CommitConfig, SystemConfig, WorkloadConfig

    spec = WORKLOADS[name]
    system = dict(BASE_SYSTEM, **spec.system, seed=seed)
    if serial:
        system.update(engine="serial", engine_workers=0)
    if spec.commit is not None:
        system["commit"] = CommitConfig(protocol=spec.commit)
    workload = dict(
        BASE_WORKLOAD,
        **spec.workload,
        num_transactions=length if length is not None else spec.length,
        seed=seed + 1,
    )
    return SystemConfig(**system), WorkloadConfig(**workload), spec.dynamic_selection
