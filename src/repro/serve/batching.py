"""Requests and the FIFO dynamic batcher.

One :class:`DynamicBatcher` manages the pending requests of one
(device, network) stream.  Its contract — the invariants the property
tests in ``tests/test_serve_batching.py`` pin down:

* a popped batch never exceeds ``max_batch`` requests;
* a batch is *ready* as soon as it is full **or** its oldest request
  has waited ``timeout_ms`` (the engine schedules a flush event at
  exactly that deadline, so no request is ever held waiting for
  co-batching past the timeout while its device sits idle);
* requests leave in arrival order (FIFO within and across batches).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(slots=True)
class Request:
    """One inference request travelling through the serving simulator.

    ``slots=True`` matters here: a million-request day-in-the-life run
    allocates one of these per request, and the slotted layout roughly
    halves both the per-object footprint and the attribute-access cost
    on the hot path.
    """

    id: int
    network: str
    arrival_ms: float
    #: Owning tenant name ("" for single-tenant runs).
    tenant: str = ""
    #: Filled in by the engine when the request's batch launches/retires.
    start_ms: float = field(default=-1.0, compare=False)
    finish_ms: float = field(default=-1.0, compare=False)

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion latency (valid once retired)."""
        return self.finish_ms - self.arrival_ms


class DynamicBatcher:
    """FIFO dynamic batcher with a size cap and a head-of-line timeout."""

    def __init__(self, max_batch: int, timeout_ms: float) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if timeout_ms < 0:
            raise ValueError("timeout_ms must be >= 0")
        self.max_batch = max_batch
        self.timeout_ms = timeout_ms
        #: Pending requests, oldest first.  The engine's dispatch scan
        #: reads it; only :meth:`add` and :meth:`pop_batch` change it.
        self.queue: deque[Request] = deque()

    def add(self, request: Request) -> None:
        """Append *request* to the pending queue."""
        self.queue.append(request)

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def oldest_arrival_ms(self) -> float | None:
        """Arrival time of the head request, or None when empty."""
        return self.queue[0].arrival_ms if self.queue else None

    def deadline_ms(self) -> float | None:
        """Latest time the head request may keep waiting for co-batching."""
        oldest = self.oldest_arrival_ms
        return None if oldest is None else oldest + self.timeout_ms

    def ready(self, now_ms: float) -> bool:
        """True when a batch should launch: full, or head timed out."""
        if len(self.queue) >= self.max_batch:
            return True
        deadline = self.deadline_ms()
        return deadline is not None and now_ms >= deadline

    def pop_batch(self, now_ms: float, force: bool = False) -> list[Request]:
        """Dequeue up to ``max_batch`` requests in FIFO order.

        Returns an empty list when the batch is not ready and *force*
        is false (the engine forces when a device frees up and work is
        pending regardless of deadlines).
        """
        queue = self.queue
        if not queue or not (force or self.ready(now_ms)):
            return []
        if len(queue) <= self.max_batch:  # the usual case: take them all
            batch = list(queue)
            queue.clear()
            return batch
        return [queue.popleft() for _ in range(self.max_batch)]
