"""Finished transactions retire from their coordinator without changing its answers.

A coordinator keeps a :class:`TransactionExecution` only while the
transaction is in flight; the ``FINISHED`` transition drops it and keeps
just the committed attempt number.  These tests pin that the retired
transactions answer every query exactly as finished ones did, that nothing
retains the executions after a run, and that ``committed_attempts()`` is
unchanged across the commit family and under coordinator crashes.
"""

import gc
import hashlib

import pytest

from repro.common.config import (
    CommitConfig,
    CoordinatorCrash,
    FaultConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.common.transactions import TransactionStatus
from repro.core.effects import BackoffIssued, RequestRejected
from repro.sim.actor import Message
from repro.system.coordinator import RequestIssuerActor, TransactionExecution
from repro.system.database import DistributedDatabase
from repro.workload.generator import TransactionGenerator

NUM_SITES = 4

#: Enough contention that some transactions commit on a later attempt.
WORKLOAD = WorkloadConfig(
    arrival_rate=40.0, num_transactions=150, read_fraction=0.5, hotspot_probability=0.3, seed=7
)

#: ``committed_attempts()`` configurations: the commit family, fault-free,
#: plus a presumed-abort run whose coordinators crash with work in flight.
CASES = {
    "one-phase": {},
    "two-phase": {"commit": CommitConfig(protocol="two-phase")},
    "presumed-abort": {"commit": CommitConfig(protocol="presumed-abort")},
    "presumed-commit": {"commit": CommitConfig(protocol="presumed-commit")},
    "coordinator-crash": {
        "commit": CommitConfig(protocol="presumed-abort", prepare_timeout=0.5),
        "faults": FaultConfig(
            coordinator_crashes=(
                CoordinatorCrash(site=1, at=0.8, duration=0.6),
                CoordinatorCrash(site=2, at=1.6, duration=1.5),
            ),
            request_timeout=1.5,
        ),
    },
}

#: sha256 of the sorted ``(tid, attempt)`` pairs of every case's
#: ``committed_attempts()``, as returned by the coordinator before finished
#: transactions were retired (it kept every execution for the whole run).
PINNED_COMMITTED = {
    "coordinator-crash": "473dd07a31a6de4059c634b75fda11d04214995fffbb28a1df1be4d0dd826ccd",
    "one-phase": "16e8f8af940a38f6bcaf01d8e41c5fbdd67476e9e760c57fa9c3645c4c690cf6",
    "presumed-abort": "e6151e75146fc6278f73ac386b4481272951bb0d2b420d8cc657ea923858c5b5",
    "presumed-commit": "96796eb616b25f678f92afe10f1b51d2a5a53d2fbda63d1764d464103c1685f8",
    "two-phase": "96796eb616b25f678f92afe10f1b51d2a5a53d2fbda63d1764d464103c1685f8",
}


def _system(case):
    return SystemConfig(
        num_sites=NUM_SITES,
        num_items=32,
        replication_factor=2,
        restart_delay=0.02,
        seed=3,
        **CASES[case],
    )


def _committed_digest(committed):
    text = ";".join(f"{tid!r}={attempt}" for tid, attempt in sorted(committed.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _committed_of(database):
    committed = {}
    for site in range(NUM_SITES):
        committed.update(database.issuer(site).committed_attempts())
    return committed


def _live_executions(specs):
    """This run's ``TransactionExecution`` objects still alive in the process."""
    gc.collect()
    mine = {id(spec) for spec in specs}
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, TransactionExecution) and id(obj.spec) in mine
    )


@pytest.fixture
def transitions(monkeypatch):
    """Every transaction's latest ``(status, attempt)``, recorded at each transition."""
    seen = {}
    original = RequestIssuerActor.transition

    def recording(self, execution, status):
        original(self, execution, status)
        seen[execution.tid] = (status, execution.attempt)

    monkeypatch.setattr(RequestIssuerActor, "transition", recording)
    return seen


class TestCommittedAttempts:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_committed_attempts_match_the_unretired_coordinator(self, case, transitions):
        system = _system(case)
        database = DistributedDatabase(system)
        database.load_workload(TransactionGenerator(system, WORKLOAD).generate(), WORKLOAD)
        result = database.run()
        assert result.committed == result.submitted

        committed = _committed_of(database)
        # What the unretired coordinator computed: every execution whose
        # status reached COMMITTED or FINISHED, under its attempt number.
        reference = {
            tid: attempt
            for tid, (status, attempt) in transitions.items()
            if status in (TransactionStatus.COMMITTED, TransactionStatus.FINISHED)
        }
        assert committed == reference
        assert committed == result.committed_attempts
        assert any(attempt > 0 for attempt in committed.values())
        assert _committed_digest(committed) == PINNED_COMMITTED[case]

    def test_recovery_walk_sees_every_unfinished_execution(self, monkeypatch, transitions):
        system = _system("coordinator-crash")
        walked = []
        original = RequestIssuerActor.on_coordinator_recovery

        def checking(self, site, now):
            if site == self.site:
                unfinished = {
                    tid
                    for tid, (status, _attempt) in transitions.items()
                    if tid.site == site and status is not TransactionStatus.FINISHED
                }
                assert set(self._executions) == unfinished
                walked.append(len(unfinished))
            original(self, site, now)

        monkeypatch.setattr(RequestIssuerActor, "on_coordinator_recovery", checking)
        database = DistributedDatabase(system)
        database.load_workload(TransactionGenerator(system, WORKLOAD).generate(), WORKLOAD)
        result = database.run()
        assert result.committed == result.submitted
        assert len(walked) == 2
        assert any(walked)
        assert result.metrics.redriven_transactions > 0


class TestRetention:
    def test_no_execution_outlives_its_transaction(self):
        system = _system("one-phase")
        specs = TransactionGenerator(system, WORKLOAD).generate()
        database = DistributedDatabase(system)
        database.load_workload(specs, WORKLOAD)
        database.simulator.run(until=1.0)
        assert _live_executions(specs) > 0
        result = database.run()
        assert result.committed == len(specs)
        assert _live_executions(specs) == 0
        for site in range(NUM_SITES):
            assert database.issuer(site).active_transactions() == ()


class TestRetiredAnswers:
    """A retired transaction answers as a FINISHED one did; late replies are dropped.

    Before retirement a late grant or victim abort for a finished execution
    changed nothing observable.  A late back-off or rejection never reaches
    a finished transaction (all its requests were granted), but the old code
    would have counted the back-off or raised on the illegal
    ``FINISHED -> ABORTED`` move; a retired transaction drops all four.
    """

    @pytest.fixture
    def finished_run(self, monkeypatch):
        grants = {}
        original = RequestIssuerActor.handle

        def capturing(self, message):
            if message.kind == "grant":
                payload = message.payload
                effect = getattr(payload, "effect", payload)
                # The last grant belongs to the attempt that committed.
                grants[effect.request.transaction] = message
            original(self, message)

        monkeypatch.setattr(RequestIssuerActor, "handle", capturing)
        system = _system("one-phase")
        database = DistributedDatabase(system)
        database.load_workload(TransactionGenerator(system, WORKLOAD).generate(), WORKLOAD)
        result = database.run()
        return database, result, grants

    @staticmethod
    def _observable(database, result):
        metrics = result.metrics
        return (
            sorted(result.summary().items()),
            sorted(
                (protocol.value, repr(stats))
                for protocol, stats in metrics.all_protocol_statistics().items()
            ),
            database.simulator.pending_events,
            database.network.messages_sent,
            _committed_of(database),
        )

    def test_status_queries(self, finished_run):
        database, _result, grants = finished_run
        for tid in grants:
            issuer = database.issuer(tid.site)
            assert issuer.execution_status(tid) is TransactionStatus.FINISHED
            assert issuer.granted_lock_count(tid) == 0
            assert tid not in issuer.active_transactions()

    def test_late_replies_and_victim_aborts_are_no_ops(self, finished_run):
        database, result, grants = finished_run
        before = self._observable(database, result)
        for tid, grant in list(grants.items()):
            issuer = database.issuer(tid.site)
            request = getattr(grant.payload, "effect", grant.payload).request
            issuer.handle(grant)
            issuer.handle(
                Message(
                    kind="backoff",
                    payload=BackoffIssued(
                        request=request, new_timestamp=request.timestamp + 5.0, time=0.0
                    ),
                    sender=grant.sender,
                    receiver=grant.receiver,
                )
            )
            issuer.handle(
                Message(
                    kind="reject",
                    payload=RequestRejected(request=request, time=0.0),
                    sender=grant.sender,
                    receiver=grant.receiver,
                )
            )
            issuer.abort_victim(tid)
            assert issuer.execution_status(tid) is TransactionStatus.FINISHED
        assert self._observable(database, result) == before
