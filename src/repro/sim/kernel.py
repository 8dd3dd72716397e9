"""The simulation kernel's event queue.

:class:`repro.sim.engine.Simulator` owns processes, events and the run
API; :class:`SerialKernel` holds the pending wake-ups and dispatches
them in global ``(time, seq)`` order: one binary heap for delayed
wake-ups merged with one FIFO fast lane for zero-delay wake-ups. The
loop resumes a payload-free process and schedules the ``float`` it
yields in place, and carries that wake-up straight to the next dispatch
when it is strictly earliest (DESIGN.md §7); everything else goes
through ``Process._step``. Every checked-in fingerprint was produced by
this loop. Why there is no parallel backend is recorded in DESIGN.md
§11.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Process, Simulator

__all__ = ["SerialKernel", "check_kernel_spec"]

# Loop-exit reasons of the dispatch loop.
STOPPED = 0
DRAINED = 1
PAST_UNTIL = 2
MAX_EVENTS = 3


def check_kernel_spec(kernel: Any) -> None:
    """Accept the only kernel inputs left, ``None`` and ``"serial"``.

    ``VSCCSystem(kernel=...)`` and ``JobSpec.kernel`` keep the parameter
    so existing callers that pin ``"serial"`` still work; anything else
    named the sharded backend, which is gone.
    """
    if kernel is not None and kernel != "serial":
        raise ValueError(
            f"unknown kernel {kernel!r}: only None or 'serial' is accepted "
            "(the sharded kernel backend was removed in repro 1.2)"
        )


class SerialKernel:
    """Single merged heap + zero-delay fast lane.

    Delayed wake-ups go through a binary heap of ``(time, seq, process,
    payload)`` entries; zero-delay wake-ups (event triggers, signal
    pulses, spawns — roughly half of all events in flag-heavy runs) go
    through a FIFO fast lane that skips the heap entirely. Because
    simulated time never decreases, the fast lane is sorted by ``(time,
    seq)`` by construction, and the dispatch loop merge-pops the two
    queues, preserving exactly the global ``(time, seq)`` order of a
    heap-only kernel.

    One instance belongs to one :class:`Simulator`, which builds it.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._seq = 0
        #: Kernel wake-ups saved by delay fusion (chain elements folded
        #: into their chain's single wake-up, len(chain)-1 per chain).
        self.fused_yields = 0
        #: Wake-ups the dispatch loop carried straight to the next
        #: dispatch instead of pushing and popping them (see ``loop``).
        self.heap_bypass = 0
        # Event-source attribution: process names are normalized to a
        # small label set at spawn ("rank-17" -> "rank") and interned to
        # an index, so the dispatch loop pays one list-index increment
        # per event instead of a dict lookup on a string.
        self._source_ids: dict[str, int] = {"proc": 0}
        self._source_names: list[str] = ["proc"]
        self._source_events: list[int] = [0]
        self._queue: list[tuple[float, int, "Process", Any]] = []
        #: Zero-delay fast lane: appended in seq order at nondecreasing
        #: times, hence always sorted by (time, seq).
        self._fast: deque[tuple[float, int, "Process", Any]] = deque()

    def source_of(self, name: str) -> int:
        """Intern a process name's event-source label, returning its index.

        The label is the name up to the first ``.`` with any trailing
        digits and separators stripped (``"rank-17"`` → ``"rank"``,
        ``"proc-2041"`` → ``"proc"``), so the attribution table stays a
        handful of entries however many processes a run spawns.
        """
        ids = self._source_ids
        idx = ids.get(name)
        if idx is not None:
            return idx
        label = name.partition(".")[0].rstrip("0123456789").rstrip("-_") or name
        idx = ids.get(label)
        if idx is None:
            idx = len(self._source_names)
            self._source_names.append(label)
            self._source_events.append(0)
            ids[label] = idx
        ids[name] = idx
        return idx

    def schedule(self, delay: float, proc: "Process", payload: Any) -> None:
        self._seq += 1
        now = self.sim.now
        if delay == 0.0:
            self._fast.append((now, self._seq, proc, payload))
        else:
            heapq.heappush(self._queue, (now + delay, self._seq, proc, payload))

    def schedule_at(self, t: float, proc: "Process", payload: Any) -> None:
        self._seq += 1
        if t == self.sim.now:
            self._fast.append((t, self._seq, proc, payload))
        else:
            heapq.heappush(self._queue, (t, self._seq, proc, payload))

    def loop(
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop: Optional[list],
    ) -> int:
        """Merge-pop the fast lane and the heap in global (time, seq) order.

        Dispatches until a boundary is hit: ``stop[0]`` set by a
        callback, the next event lying past ``until``, ``max_events``
        dispatched, or both queues drained.

        The common resume is inlined: a :class:`Process` woken with no
        payload is sent ``None`` here, and a non-negative ``float`` it
        yields is scheduled here. When that wake-up is strictly earlier
        than everything queued, it is *carried* as the next dispatch
        instead of going through the heap. Its seq is the largest
        issued, so it is the global ``(time, seq)`` minimum exactly
        when no queued entry has an equal or earlier time; on a tie the
        queued entry wins, as it would in the heap. Every exit pushes a
        carried entry back. Everything else goes through
        ``Process._step``.
        """
        from .engine import Process  # engine imports this module

        sim = self.sim
        queue = self._queue
        fast = self._fast
        pop = heapq.heappop
        push = heapq.heappush
        sources = self._source_events
        events = 0
        carry = None
        bypass = 0
        try:
            while True:
                if stop is not None and stop[0]:
                    return STOPPED
                if carry is not None:
                    entry = carry
                    if until is not None and entry[0] > until:
                        return PAST_UNTIL
                    carry = None
                else:
                    if fast:
                        if queue and queue[0] < fast[0]:
                            entry = queue[0]
                            from_heap = True
                        else:
                            entry = fast[0]
                            from_heap = False
                    elif queue:
                        entry = queue[0]
                        from_heap = True
                    else:
                        return DRAINED
                    if until is not None and entry[0] > until:
                        return PAST_UNTIL
                    if from_heap:
                        pop(queue)
                    else:
                        fast.popleft()
                proc = entry[2]
                if proc.done._triggered:
                    continue  # stale wake-up for an already-finished process
                now = sim.now = entry[0]
                if entry[3] is None and proc.__class__ is Process:
                    proc._waiting_on = None
                    try:
                        command = proc.gen.send(None)
                    except StopIteration as exc:
                        proc._stopped(exc.value)
                    except BaseException as exc:  # noqa: BLE001 - sim faults
                        proc._failed(exc)
                    else:
                        if command.__class__ is float and command >= 0.0:
                            self._seq = seq = self._seq + 1
                            t = now + command
                            if not fast and (not queue or t < queue[0][0]):
                                carry = (t, seq, proc, None)
                                bypass += 1
                            elif command == 0.0:
                                fast.append((t, seq, proc, None))
                            else:
                                push(queue, (t, seq, proc, None))
                        else:
                            proc._dispatch(command)
                else:
                    proc._step(entry[3])
                sim.events_processed += 1
                sources[proc._source] += 1
                if max_events is not None:
                    events += 1
                    if events >= max_events:
                        return MAX_EVENTS
        finally:
            if carry is not None:
                push(queue, carry)
            self.heap_bypass += bypass

    def metrics_snapshot(self) -> dict[str, float]:
        snap = {
            "kernel.fused_yields": float(self.fused_yields),
            "kernel.heap_bypass": float(self.heap_bypass),
        }
        names = self._source_names
        for idx, count in enumerate(self._source_events):
            if count:
                snap[f"kernel.events{{source={names[idx]}}}"] = float(count)
        return snap
