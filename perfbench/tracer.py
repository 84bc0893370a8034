"""Span tracing of the simulator from outside: wrappers around layer entry points.

``Tracer.install()`` replaces the public entry points of each ``repro``
package (the table ``ENTRY_POINTS``) with thin wrappers that record one span
per call.  Nothing under ``src/`` changes; the wrappers are installed by the
benchmark's operation process before the database is built.

A span is ``(name, start, end, parent)`` in integer nanoseconds, stored flat
in one ``array('q')`` (32 bytes per span) and kept in memory until the run
ends.  A span's slot is reserved when it opens, so a parent's index is
always below its children's.  One operation traces one run, so the Chrome
trace holds one process (``pid`` 0).

After the run:

* ``self_times()`` gives each span name's call count, inclusive time and
  self time, where self time is the span minus the child spans it covers;
* ``write_chrome_trace()`` writes the spans as Chrome Trace Event JSON
  ("X" complete events), which opens in Perfetto or ``chrome://tracing``.

Under the multi-process engine the workers are forked after the wrappers
are installed; an at-fork hook turns recording off in every child, so a
worker runs the wrappers as pass-throughs and its spans are out of reach.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from array import array
from typing import Dict, List, Tuple

#: ``(layer, "module:Class", method names)``; an empty class names module
#: functions.  Layer names are the per-layer metric prefixes of the benchmark.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.kernel", "repro.sim.simulator:Simulator", "step schedule schedule_at"),
    ("sim.network", "repro.sim.network:Network", "send broadcast charge_overhead_messages"),
    (
        "core.qm",
        "repro.core.queue_manager:QueueManager",
        "submit update_timestamp release downgrade release_prepared abort crash restore_lock"
        " drain_effects holds_granted_lock wait_edges blocked_transactions",
    ),
    ("core.deadlock", "repro.core.queue_manager:QueueManager", "collect_wait_edges"),
    ("core.deadlock", "repro.core.deadlock:DeadlockDetector", "resolve resolve_packed"),
    (
        "core.streaming",
        "repro.core.streaming:IncrementalSerializabilityChecker",
        "entry_recorded entries_withdrawn transaction_quiesced note_commit finalize",
    ),
    # The database module imported the oracle by name, so patch its global.
    ("core.oracle", "repro.system.database:", "check_serializable"),
    # A scan is the detector's only entry point: a self-scheduled event.
    ("system.detector", "repro.system.detector:DeadlockDetectorActor", "_scan"),
    (
        "system.coordinator",
        "repro.system.coordinator:RequestIssuerActor",
        "handle submit_transaction abort_victim active_transactions committed_attempts"
        " on_coordinator_crash on_coordinator_recovery",
    ),
    ("system.qm_actor", "repro.system.queue_manager_actor:QueueManagerActor", "handle"),
    (
        "system.metrics",
        "repro.system.metrics:MetricsCollector",
        "record_arrival record_attempt record_request_issued record_rejection record_backoff"
        " record_backoff_round record_restart record_lock_time record_grant"
        " register_arrival_cut record_commit record_commit_latency record_in_doubt_time"
        " record_lost_write record_commit_abort record_timeout_restart"
        " record_coordinator_recovery record_coordinator_redrive"
        " record_termination_resolution",
    ),
    ("system.build", "repro.system.database:DistributedDatabase", "__init__"),
    ("system.load", "repro.system.database:DistributedDatabase", "load_workload"),
    ("system.run", "repro.system.database:DistributedDatabase", "run"),
    ("system.database", "repro.system.database:DistributedDatabase", "remaining_work"),
    ("commit.participant", "repro.commit.participant:CommitParticipantActor", "handle"),
    ("commit.participant", "repro.commit.participant:CommitParticipantActor", "on_site_event"),
    (
        "storage.exec_log",
        "repro.storage.log:ExecutionLog",
        "record remove_transaction note_quiesced retire_transaction",
    ),
    (
        "storage.commit_log",
        "repro.storage.log:SiteCommitLog",
        "log_prepared prepared_record in_doubt_records log_decision record_ack log_begin"
        " begin_record undecided_begin_records decision_for truncate",
    ),
    ("selection", "repro.selection.selector:STLProtocolSelector", "choose breakdown"),
    ("selection", "repro.selection.selector:STLProtocolSelector", "bind_metrics"),
    ("workload", "repro.workload.generator:TransactionGenerator", "generate"),
    ("sim.parallel", "repro.sim.parallel.process:ProcessEngineRunner", "run"),
)

#: Name (and layer) of the span the operation opens around the whole run.
ROOT_SPAN = "run"


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.recording = False
        self._names: List[str] = []
        self._layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self._spans = array("q")
        self._stack: List[int] = []

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
            self._layers.append(layer)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        index = len(self._spans) >> 2
        parent = self._stack[-1] if self._stack else -1
        self._spans.extend((nid, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self._spans[(index << 2) + 2] = time.perf_counter_ns()

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def install(self) -> None:
        """Wrap every entry point in ``ENTRY_POINTS``; call once per process."""
        for layer, target, names in ENTRY_POINTS:
            module_name, class_name = target.split(":")
            owner = importlib.import_module(module_name)
            prefix = ""
            if class_name:
                owner = getattr(owner, class_name)
                prefix = f"{class_name}."
            for attr in names.split():
                setattr(owner, attr, self._wrap(vars(owner)[attr], prefix + attr, layer))
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.recording = False

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span around a ``with`` block (the operation's root span)."""
        index = self._open(self._name_id(name, layer))
        try:
            yield
        finally:
            self._close(index)

    @property
    def span_count(self) -> int:
        """Number of spans recorded so far."""
        return len(self._spans) >> 2

    def self_times(self) -> Dict[str, Dict[str, int]]:
        """Per span name: its ``layer``, ``calls``, ``total_ns`` and ``self_ns``."""
        spans = self._spans
        count = len(spans) >> 2
        covered = [0] * count
        for index in range(count):
            parent = spans[(index << 2) + 3]
            if parent >= 0:
                covered[parent] += spans[(index << 2) + 2] - spans[(index << 2) + 1]
        rows = [
            {"layer": layer, "calls": 0, "total_ns": 0, "self_ns": 0} for layer in self._layers
        ]
        for index in range(count):
            base = index << 2
            duration = spans[base + 2] - spans[base + 1]
            row = rows[spans[base]]
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += duration - covered[index]
        return dict(zip(self._names, rows))

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as Chrome Trace Event JSON (opens in Perfetto)."""
        spans = self._spans
        origin = spans[1] if spans else 0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            out.write(
                '{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"run"}}'
            )
            for index in range(len(spans) >> 2):
                nid, start, end, parent = spans[index << 2 : (index << 2) + 4]
                out.write(
                    f',\n{{"name":"{self._names[nid]}","cat":"{self._layers[nid]}",'
                    f'"ph":"X","pid":0,"tid":0,"ts":{(start - origin) / 1e3:.3f},'
                    f'"dur":{(end - start) / 1e3:.3f},"args":{{"id":{index},"parent":{parent}}}}}'
                )
            out.write("\n]}\n")
