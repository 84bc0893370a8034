"""One benchmark operation: one run of one workload, in a fresh process.

    python3 perfbench/op.py --workload NAME --seed N [--mode plain|trace|mem]
                            [--serial] [--length N] [--trace-out PATH]

Run from the repository root with ``src`` on ``PYTHONPATH`` (``run.py``
does both).  Prints one JSON object as the last line of standard output.

Modes:

* ``plain`` — untraced.  Times the whole run from before ``import repro``
  to the returned result (set-up, simulation and audit), the set-up alone
  (up to ``DistributedDatabase.run``, i.e. the first simulated event) and
  its parts, by wrapping calls that happen once per run.
* ``trace`` — installs the span wrappers of ``tracer.py`` on every layer's
  entry points, runs the same input, and reports per-layer self times,
  call counts and ratios; ``--trace-out`` writes the spans as Chrome Trace
  Event JSON.
* ``mem`` — untraced, with ``tracemalloc`` on for the run: the Python-heap
  peak.

Every mode reports the output checks' inputs: the sha256 of the canonical
``RunResult.summary()``, the serializability and atomicity verdicts, and
the committed and submitted counts.  An exception is reported as
``{"ok": false, "error": <type>, ...}`` with exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback

from metrics import per
from tracer import ROOT_SPAN, Tracer
from workloads import WORKLOADS, build

#: Message kinds of the commit layer (prepare/vote/decide, acks, the
#: post-decision release and the termination/status queries).
COMMIT_KINDS = frozenset(
    {
        "prepare",
        "vote",
        "decide",
        "ack",
        "commit_release",
        "status_query",
        "status_reply",
        "peer_query",
        "peer_reply",
    }
)


def _probe(owner, attr, marks, key):
    """Wrap ``owner.attr`` to note its start, end, ``self`` and return value."""
    original = vars(owner)[attr]

    def probed(*args, **kwargs):
        start = time.perf_counter()
        value = original(*args, **kwargs)
        marks[key] = (start, time.perf_counter(), args[0], value)
        return value

    setattr(owner, attr, probed)


def _digest(summary) -> str:
    payload = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _peak_rss_mib() -> float:
    """High-water RSS of this process or its largest (joined) child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _result_counts(result, database, selector) -> dict:
    """Per-layer counts and ratios read from the finished run's own counters."""
    committed = result.committed
    stats = result.metrics.all_protocol_statistics().values()
    requests = sum(s.read_requests + s.write_requests for s in stats)
    reads, writes, _copies = result.metrics.grant_totals()
    commit_messages = sum(
        count for kind, count in result.messages_by_kind.items() if kind in COMMIT_KINDS
    )
    if result.engine_stats.get("backend") == "process":
        events = result.engine_stats["events_total"]
    else:
        events = database.simulator.events_processed
    return {
        "sim.events": events,
        "core.qm.grant_ratio": per(reads + writes, requests),
        "core.qm.rejections": sum(s.read_rejections + s.write_rejections for s in stats),
        "core.qm.backoffs": sum(s.read_backoffs + s.write_backoffs for s in stats),
        "core.deadlock.scans": result.detector_scans,
        "core.deadlock.found_per_scan": per(result.deadlocks_found, result.detector_scans),
        "core.streaming.retired_ratio": per(result.audit_stats.get("retired", 0), committed),
        "core.streaming.peak_live_entries": result.audit_stats.get("peak_live_entries", 0),
        "system.attempts_per_commit": per(sum(s.attempts for s in stats), committed),
        "commit.msgs_per_txn": per(commit_messages, committed),
        "commit.forced_writes_per_txn": per(result.forced_log_writes, committed),
        "storage.commit_log.peak_records": result.peak_log_records,
        "selection.refreshes": selector.refreshes if selector is not None else 0,
    }


def _layer_times(tracer: Tracer, wall_ns: int) -> dict:
    """Per-layer self shares, call counts and timings from the recorded spans."""
    table = tracer.self_times()
    self_ns = {}
    calls = {}
    for row in table.values():
        self_ns[row["layer"]] = self_ns.get(row["layer"], 0) + row["self_ns"]
        calls[row["layer"]] = calls.get(row["layer"], 0) + row["calls"]

    def share(layer):
        return self_ns.get(layer, 0) / wall_ns

    def row(name):
        return table.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    send = row("Network.send")
    choose = row("STLProtocolSelector.choose")
    active = row("RequestIssuerActor.active_transactions")
    return {
        "sim.kernel.self_share": share("sim.kernel"),
        "sim.network.sends": send["calls"],
        "sim.network.send_us": per(send["total_ns"], send["calls"]) / 1e3,
        "core.qm.calls": calls.get("core.qm", 0),
        "core.qm.self_share": share("core.qm"),
        "core.deadlock.self_share": share("core.deadlock"),
        "core.streaming.self_share": share("core.streaming"),
        "core.oracle.batch_s": row("check_serializable")["total_ns"] / 1e9,
        "system.coordinator.self_share": share("system.coordinator"),
        "system.coordinator.active_scan_calls": active["calls"],
        "system.coordinator.active_scan_share": active["total_ns"] / wall_ns,
        "system.detector.self_share": share("system.detector"),
        "system.qm_actor.self_share": share("system.qm_actor"),
        "system.metrics.self_share": share("system.metrics"),
        "system.run.self_share": share("system.run"),
        "commit.participant.self_share": share("commit.participant"),
        "storage.exec_log.records": row("ExecutionLog.record")["calls"],
        "storage.exec_log.self_share": share("storage.exec_log"),
        "storage.commit_log.self_share": share("storage.commit_log"),
        "selection.choose_calls": choose["calls"],
        "selection.choose_ms": per(choose["total_ns"], choose["calls"]) / 1e6,
        "selection.self_share": share("selection"),
        "parallel.parent.self_share": share("sim.parallel"),
        "trace.untraced_share": share(ROOT_SPAN),
        "trace.spans": tracer.span_count,
    }


def run(args) -> dict:
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    import repro  # noqa: F401  (the set-up clock includes every repro import)
    from repro.selection.selector import STLProtocolSelector
    from repro.system.database import DistributedDatabase
    from repro.system.runner import run_simulation
    from repro.workload.generator import TransactionGenerator

    marks = {}
    for owner, attr, key in (
        (TransactionGenerator, "generate", "generate"),
        (DistributedDatabase, "__init__", "build"),
        (DistributedDatabase, "load_workload", "load"),
        (DistributedDatabase, "run", "run"),
        (STLProtocolSelector, "bind_metrics", "selector"),
    ):
        _probe(owner, attr, marks, key)

    system, workload, dynamic = build(
        args.workload, args.seed, length=args.length, serial=args.serial
    )
    if args.mode == "mem":
        import tracemalloc

        tracemalloc.start()
    root = contextlib.nullcontext()
    if tracer is not None:
        tracer.recording = True
        root = tracer.span(ROOT_SPAN, ROOT_SPAN)
    call_start = time.perf_counter_ns()
    with root:
        result = run_simulation(
            system,
            workload,
            dynamic_selection=dynamic,
            selection_mode="cumulative" if dynamic else None,
        )
    call_ns = time.perf_counter_ns() - call_start
    end = time.perf_counter()
    if tracer is not None:
        tracer.recording = False

    selector = marks["selector"][2] if "selector" in marks else None
    specs = marks["generate"][3]
    out = {
        "ok": True,
        "serial": args.serial,
        "length": workload.num_transactions,
        "digest": _digest(result.summary()),
        "serializable": result.serializable,
        "atomic": result.atomic,
        "committed": result.committed,
        "submitted": result.submitted,
        "wall_s": end - start,
        "call_s": call_ns / 1e9,
        "setup_s": marks["run"][0] - start,
        "sim_s": marks["run"][1] - marks["run"][0],
        "generate_s": marks["generate"][1] - marks["generate"][0],
        "build_s": marks["build"][1] - marks["build"][0],
        "load_s": marks["load"][1] - marks["load"][0],
        "peak_rss_mib": _peak_rss_mib(),
        "end_time": result.end_time,
        "last_arrival": max((s.arrival_time for s in specs), default=0.0),
        "engine_stats": {
            key: value
            for key, value in result.engine_stats.items()
            if isinstance(value, (int, float, str, bool))
        },
        "counts": _result_counts(result, marks["run"][2], selector),
    }
    if args.mode == "mem":
        out["py_peak_mib"] = tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
        tracemalloc.stop()
    if tracer is not None:
        out["layers"] = _layer_times(tracer, call_ns)
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "mem"), default="plain")
    parser.add_argument(
        "--serial", action="store_true", help="run the workload's model on the serial engine"
    )
    parser.add_argument(
        "--length", type=int, default=None, help="override the workload's transaction count"
    )
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    try:
        out = run(args)
    except Exception as exc:  # the operation boundary: report, never hide
        print(traceback.format_exc(), file=sys.stderr)
        print(json.dumps({"ok": False, "error": type(exc).__name__, "detail": str(exc)[:300]}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
