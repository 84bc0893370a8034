"""Event records and the time-ordered event queue.

Cancellation invariant
----------------------
Cancellation is *lazy*: a cancelled event stays in the heap until it is
reclaimed.  Reclamation happens in three places, and only these three:

* :meth:`EventQueue.pop` discards cancelled events it encounters at the head
  while searching for the next live event;
* :meth:`EventQueue.peek_time` purges cancelled events from the head so the
  reported time is that of a live event (callers treat it as a read-only
  probe, but head purging is idempotent and never reorders live events);
* when more than half of the heap is cancelled debris, the queue compacts
  itself in one O(n) pass so heap operations stop paying ``log`` of the
  inflated size.

The queue tracks a live-event counter maintained by :meth:`push`,
:meth:`pop` and :meth:`Event.cancel`, so ``len(queue)`` and ``bool(queue)``
are O(1) instead of a scan of the heap.

The heap holds ``(time, priority, seq, event)`` tuples rather than the
events themselves, so sifting compares plain numbers in C instead of
calling the dataclass ``__lt__``.  ``seq`` is unique, so a comparison never
reaches the event and the order is exactly the events' own.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.errors import SimulationError

#: Compaction only kicks in past this heap size; below it the debris is cheap.
_COMPACT_MIN_SIZE = 64


@dataclass(order=True)
class Event:
    """One scheduled callback.

    Events are ordered by ``(time, priority, seq)``.  ``seq`` is a
    monotonically increasing tie-break so that two events scheduled for the
    same instant fire in scheduling order, which keeps runs deterministic.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    _queue: Optional["EventQueue"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it reaches the head."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()


class EventQueue:
    """Binary-heap event list with lazy cancellation and O(1) length.

    ``counter`` optionally supplies the sequence source for the ``seq``
    tie-break.  Passing the *same* counter to several queues gives their
    events one global scheduling order — the partitioned engine relies on
    this so per-site queues break same-instant ties exactly like the single
    serial queue would.
    """

    def __init__(self, counter: Optional["itertools.count"] = None) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = counter if counter is not None else itertools.count()
        self._live = 0        # non-cancelled events still in the heap
        self._cancelled = 0   # cancelled events awaiting reclamation

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Insert a callback to fire at ``time`` and return its event handle."""
        seq = next(self._counter)
        event = Event(
            time=time,
            priority=priority,
            seq=seq,
            callback=callback,
            label=label,
            _queue=self,
        )
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Cancelled events encountered at the head are reclaimed on the way.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._live -= 1
            event._queue = None
            return event
        raise SimulationError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` when the queue is empty."""
        event = self.peek()
        return None if event is None else event.time

    def peek(self) -> Optional[Event]:
        """The next non-cancelled event without removing it (``None`` if empty).

        Shares :meth:`peek_time`'s head-purging behaviour; the partitioned
        engine uses it to compare the heads of several queues by the full
        ``(time, priority, seq)`` order, not just their times.
        """
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1
        if not self._heap:
            return None
        return self._heap[0][3]

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live = 0
        self._cancelled = 0

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called exactly once per cancelled in-heap event."""
        self._live -= 1
        self._cancelled += 1
        if (
            len(self._heap) >= _COMPACT_MIN_SIZE
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled debris in one O(n) pass."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
