"""The deterministic discrete-event core of the serving simulator.

A single binary heap orders events by ``(time_ms, seq)`` where ``seq``
is a monotone insertion counter: events at the same simulated time pop
in the order they were pushed.  That tie-break is what makes the whole
simulator reproducible — no dict-iteration or hash ordering ever
decides who goes first.

The engine runs on :class:`EventQueue`, one ``heappush``/``heappop``
pair per event.

:class:`SlottedEventQueue` is the retired slotted fast path: events
land in coarse time-slot buckets (a dict keyed by ``int(time_ms //
slot_ms)``), a small heap orders only the *bucket keys*, and each
bucket is sorted lazily when it becomes current.  It is exact — it
yields the identical ``(time_ms, seq)`` sequence as the heap for any
simulation that never schedules into the past, which
``tests/test_serve_events.py`` checks on random schedules — but the
engine no longer uses it.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, NamedTuple

#: Event kinds, compared only for equality.
ARRIVAL = "arrival"
FLUSH = "flush"
COMPLETE = "complete"
#: Periodic autoscaler evaluation.
TICK = "tick"


class Event(NamedTuple):
    """One scheduled occurrence."""

    time_ms: float
    seq: int
    kind: str
    payload: Any


class EventQueue:
    """Min-heap of :class:`Event` with deterministic FIFO tie-breaking."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def push(self, time_ms: float, kind: str, payload: Any = None) -> Event:
        """Schedule *kind* at *time_ms*; returns the stored event."""
        event = Event(time_ms, self._seq, kind, payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        """Time of the earliest event, or None when empty."""
        return self._heap[0].time_ms if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class SlottedEventQueue:
    """Slot-bucketed event queue, order-identical to :class:`EventQueue`.

    Unused by the engine; it remains only because the benchmark's layer
    trace (``perfbench/layers.py``) wraps it by name, and it goes when
    ``SmWave`` folds into ``VectorWave`` at the next benchmark revision.

    Requires the no-time-travel invariant: every ``push`` happens at a
    time at or after the most recently popped event's time (discrete-
    event simulations satisfy this by construction).  Under it, a push
    can only target the current bucket (handled by a bounded
    ``insort``) or a future one (appended unsorted, sorted once when
    the bucket becomes current) — never an already-drained bucket.
    """

    __slots__ = ("_slot_ms", "_buckets", "_keys", "_seq", "_current",
                 "_current_key", "_pos")

    def __init__(self, slot_ms: float = 1.0) -> None:
        if slot_ms <= 0:
            raise ValueError("slot_ms must be > 0")
        self._slot_ms = slot_ms
        self._buckets: dict[int, list[Event]] = {}
        self._keys: list[int] = []  # heap of pending bucket keys
        self._seq = 0
        self._current: list[Event] = []
        self._current_key: int | None = None
        self._pos = 0  # drain cursor into _current

    def push(self, time_ms: float, kind: str, payload: Any = None) -> Event:
        """Schedule *kind* at *time_ms*; returns the stored event."""
        event = Event(time_ms, self._seq, kind, payload)
        self._seq += 1
        key = int(time_ms // self._slot_ms)
        if key == self._current_key:
            # The current bucket is already sorted and partially
            # drained; keep it sorted without touching the drained
            # prefix.  Event tuples compare by (time_ms, seq) — seq is
            # unique, so comparison never reaches the payload.
            insort(self._current, event, lo=self._pos)
            return event
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [event]
            heapq.heappush(self._keys, key)
        else:
            bucket.append(event)
        return event

    def _advance(self) -> None:
        key = heapq.heappop(self._keys)
        bucket = self._buckets.pop(key)
        bucket.sort()
        self._current = bucket
        self._current_key = key
        self._pos = 0

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        pos = self._pos
        if pos >= len(self._current):
            self._advance()
            pos = 0
        event = self._current[pos]
        self._pos = pos + 1
        return event

    def pop_same_time(self) -> list[Event]:
        """Remove and return *all* events sharing the earliest time.

        Same-time events always share a bucket (equal times map to
        equal keys), so one contiguous slice of the current bucket is
        the complete batch.  Events pushed at that same timestamp
        *while the batch is being processed* insort after the cursor
        and surface in the next call — exactly when a heap would pop
        them.
        """
        pos = self._pos
        current = self._current
        if pos >= len(current):
            self._advance()
            pos = 0
            current = self._current
        time_ms = current[pos].time_ms
        end = pos + 1
        n = len(current)
        while end < n and current[end].time_ms == time_ms:
            end += 1
        self._pos = end
        return current[pos:end]

    def peek_time(self) -> float | None:
        """Time of the earliest event, or None when empty."""
        if not self:
            return None
        if self._pos >= len(self._current):
            self._advance()
        return self._current[self._pos].time_ms

    def __len__(self) -> int:
        return (
            len(self._current) - self._pos
            + sum(len(bucket) for bucket in self._buckets.values())
        )

    def __bool__(self) -> bool:
        return self._pos < len(self._current) or bool(self._keys)
