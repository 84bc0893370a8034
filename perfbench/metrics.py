"""The benchmark's metric definitions: names, units, direction, and targets.

``END_TO_END`` are what a user of the simulator sees (reported with
``--trace 0``); ``PER_LAYER`` are single-layer numbers from the traced run
(reported with ``--trace 1``), each with the end-to-end metric it should
move and the workload on which that shows.  A layer a workload bypasses
reports 0 for its metrics.  Where that workload is a configuration traced
with a benchmarked one (``workloads.Workload.traced_with``), the metric
comes from the traced run of that configuration.  These tables are the only record of each
metric's definition and target; ``pin.py`` writes their names, units,
directions and bounds into ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, Tuple


def per(total, count) -> float:
    """``total / count``, or 0.0 when nothing was counted."""
    return total / count if count else 0.0


#: name -> (unit, better, bound, definition)
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "txn_per_s": (
        "1/s",
        "higher",
        0.25,
        "committed transactions per wall second of the whole run (set-up, "
        "simulation and audit), median over the run's operations",
    ),
    "peak_rss_mib": (
        "MiB",
        "lower",
        0.1,
        "high-water RSS of the largest process of the run, parent or worker, "
        "median over the run's operations",
    ),
    "setup_s": (
        "s",
        "lower",
        0.25,
        "wall time from before `import repro` to the first simulated event "
        "(imports, generate, DistributedDatabase(...), load_workload), median "
        "over the run's operations",
    ),
}

TXN = "txn_per_s"
RSS = "peak_rss_mib"
BOTH = "txn_per_s,peak_rss_mib"
SETUP = "setup_s"
STREAM = "stream-uniform"
CONTENDED = "contended-2pc"
DYNAMIC = "dynamic-stl"
PROCS = "procs-2w"
ALL = "all workloads"
COORDINATOR = "system (coordinator)"

#: name -> (unit, better, layer, target end-to-end metric, target workload)
PER_LAYER: Dict[str, Tuple[str, str, str, str, str]] = {
    "sim.events": ("count", "lower", "sim (kernel)", TXN, STREAM),
    "sim.events_per_s": ("1/s", "higher", "sim (kernel)", TXN, STREAM),
    "sim.kernel.self_share": ("share", "lower", "sim (kernel)", TXN, STREAM),
    "sim.network.sends": ("count", "lower", "sim (network)", TXN, CONTENDED),
    "sim.network.send_us": ("us", "lower", "sim (network)", TXN, CONTENDED),
    "core.qm.calls": ("count", "lower", "core (queue managers)", TXN, CONTENDED),
    "core.qm.self_share": ("share", "lower", "core (queue managers)", TXN, CONTENDED),
    "core.qm.grant_ratio": ("ratio", "higher", "core (queue managers)", TXN, CONTENDED),
    "core.qm.rejections": ("count", "lower", "core (queue managers)", TXN, CONTENDED),
    "core.qm.backoffs": ("count", "lower", "core (queue managers)", TXN, CONTENDED),
    "core.deadlock.scans": ("count", "lower", "core (deadlock)", TXN, CONTENDED),
    "core.deadlock.self_share": ("share", "lower", "core (deadlock)", TXN, CONTENDED),
    "core.deadlock.found_per_scan": ("ratio", "lower", "core (deadlock)", TXN, CONTENDED),
    "core.streaming.self_share": ("share", "lower", "core (streaming audit)", BOTH, STREAM),
    "core.streaming.retired_ratio": ("ratio", "higher", "core (streaming audit)", BOTH, STREAM),
    "core.streaming.peak_live_entries": ("count", "lower", "core (streaming audit)", BOTH, STREAM),
    "core.oracle.batch_s": ("s", "lower", "core (batch oracle)", TXN, CONTENDED),
    "system.coordinator.self_share": ("share", "lower", COORDINATOR, TXN, STREAM),
    "system.coordinator.active_scan_calls": ("count", "lower", COORDINATOR, TXN, STREAM),
    "system.coordinator.active_scan_share": ("share", "lower", COORDINATOR, TXN, STREAM),
    "system.qm_actor.self_share": ("share", "lower", "system (qm actor)", TXN, CONTENDED),
    "system.detector.self_share": ("share", "lower", "system (detector actor)", TXN, CONTENDED),
    "system.run.self_share": ("share", "lower", "system (run and result assembly)", TXN, ALL),
    "system.attempts_per_commit": ("ratio", "lower", "system (run-wide)", TXN, ALL),
    "system.metrics.self_share": ("share", "lower", "system (run-wide)", TXN, ALL),
    "system.build_s": ("s", "lower", "system (set-up)", SETUP, ALL),
    "system.load_s": ("s", "lower", "system (set-up)", SETUP, ALL),
    "commit.participant.self_share": ("share", "lower", "commit", TXN, CONTENDED),
    "commit.msgs_per_txn": ("ratio", "lower", "commit", TXN, CONTENDED),
    "commit.forced_writes_per_txn": ("ratio", "lower", "commit", TXN, CONTENDED),
    "storage.exec_log.records": ("count", "lower", "storage", RSS, CONTENDED),
    "storage.exec_log.self_share": ("share", "lower", "storage", RSS, CONTENDED),
    "storage.commit_log.self_share": ("share", "lower", "storage", TXN, CONTENDED),
    "storage.commit_log.peak_records": ("count", "lower", "storage", RSS, CONTENDED),
    "selection.choose_calls": ("count", "lower", "selection", TXN, DYNAMIC),
    "selection.choose_ms": ("ms", "lower", "selection", TXN, DYNAMIC),
    "selection.self_share": ("share", "lower", "selection", TXN, DYNAMIC),
    "selection.refreshes": ("count", "lower", "selection", TXN, DYNAMIC),
    "workload.generate_s": ("s", "lower", "workload", SETUP, ALL),
    "parallel.windows": ("count", "lower", "sim.parallel", TXN, PROCS),
    "parallel.events_per_window": ("ratio", "higher", "sim.parallel", TXN, PROCS),
    "parallel.bytes_per_event": ("B", "lower", "sim.parallel", TXN, PROCS),
    "parallel.worker_idle_share": ("share", "lower", "sim.parallel", TXN, PROCS),
    "parallel.parent.self_share": ("share", "lower", "sim.parallel", TXN, PROCS),
    "parallel.speedup_vs_serial": ("ratio", "higher", "sim.parallel", TXN, PROCS),
    "mem.py_peak_mib": ("MiB", "lower", "whole run", RSS, ALL),
    "trace.overhead": ("ratio", "lower", "whole run", "none (tracing cost)", ALL),
    "trace.untraced_share": ("share", "lower", "whole run", "none (trace coverage)", ALL),
    "trace.spans": ("count", "lower", "whole run", "none (trace size)", ALL),
}
