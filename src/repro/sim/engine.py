"""Generator-based discrete-event simulation kernel.

The whole vSCC reproduction runs on this kernel: every SCC core, every
host communication-task thread and every DMA engine is a *process* — a
Python generator that yields timing commands:

* a bare ``float``/``int`` — resume the process that many simulated
  nanoseconds later (the allocation-free hot path).
* a ``tuple`` of such numbers — a *fused delay chain*: sleep each element
  in order with **no observable side effects in between** (the yielding
  code guarantees this; see DESIGN.md §12). By default the engine folds
  the whole chain into a single kernel wake-up at the accumulated end
  time ``((now + d0) + d1) + …`` — bit-identical to sleeping the
  elements one by one, because the accumulation uses the exact same
  float-addition order the per-element wake-ups would. With fusion
  disabled (``REPRO_FUSE=0`` or ``Simulator(fuse_delays=False)``) each
  element is replayed as its own wake-up, reproducing the legacy
  per-yield event stream exactly. The chain may instead *start* with an
  :class:`Event`, :class:`Signal` or :class:`Process`: the process then
  parks until the head fires and sleeps the remaining elements from the
  trigger instant — the flag-wait idiom ``yield (watch, poll_ns)``. The
  head's value is discarded (the resume delivers ``None``), so only
  value-free waits qualify.
* an :class:`Event`    — resume when the event is triggered; ``yield`` returns
  the event's value.
* a :class:`Process`   — resume when that process terminates; ``yield``
  returns its return value (``StopIteration.value``). If the awaited
  process failed, the exception is re-raised in the waiter.

Time is a float in **nanoseconds**; frequency-domain helpers live in
:mod:`repro.sim.clock`. Pending wake-ups live in the simulator's
:class:`repro.sim.kernel.SerialKernel` (DESIGN.md §7 and §11), which
merge-pops a binary heap of delayed wake-ups with a FIFO *fast lane* of
zero-delay wake-ups in global ``(time, seq)`` order. Yield dispatch is
type-keyed (one dict lookup on ``type(command)``) instead of an
isinstance chain.

Dispatch is single-threaded and deterministic (ties are broken by
spawn/schedule order), which is what keeps every simulated fingerprint
bit-identical from run to run.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import DeadlockError, InvalidYield, ProcessFailed, SimulationError
from .kernel import DRAINED, PAST_UNTIL, SerialKernel

__all__ = [
    "Event",
    "FUSE_ENV_VAR",
    "Process",
    "Simulator",
    "TimerHandle",
]

#: Environment variable disabling delay fusion (``0``/``false``/``off``):
#: fused delay chains are then replayed one kernel wake-up per element,
#: reproducing the pre-fusion event stream bit for bit — the reference
#: side of the paired fingerprint check in ``tools/perf_gate.py``.
FUSE_ENV_VAR = "REPRO_FUSE"


def _fuse_default() -> bool:
    return os.environ.get(FUSE_ENV_VAR, "1").strip().lower() not in (
        "0",
        "false",
        "off",
    )


class Event:
    """A one-shot event processes can wait on.

    ``trigger(value)`` wakes every waiter with ``value``. Waiting on an
    already-triggered event resumes immediately with the stored value —
    events are *sticky*, which makes completion signalling race-free.
    """

    __slots__ = ("sim", "name", "_triggered", "_value", "_waiters", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "event"):
        self.sim = sim
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: list[Process] = []
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._value

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        for proc in waiters:
            if proc.__class__ is _ChainWaiter:
                proc.wake(sim, value)
            else:
                sim._schedule(0.0, proc, value)
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)

    def on_trigger(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when triggered (immediately if already)."""
        if self._triggered:
            callback(self._value)
        else:
            self._callbacks.append(callback)

    def _add_waiter(self, proc: "Process") -> bool:
        """Register ``proc``; return True if it must wait."""
        if self._triggered:
            return False
        self._waiters.append(proc)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "set" if self._triggered else "pending"
        return f"<Event {self.name} {state}>"


class Signal:
    """A broadcast, *non-sticky* wake-up channel.

    Used for memory watchpoints (flag polling): a waiter parks until the
    next ``pulse()``; pulses with no waiters are lost. Unlike
    :class:`Event`, a Signal can fire any number of times.
    """

    __slots__ = ("sim", "name", "_waiters", "_once")

    def __init__(self, sim: "Simulator", name: str = "signal"):
        self.sim = sim
        self.name = name
        self._waiters: list[Process] = []
        self._once: list[Callable[[], None]] = []

    def pulse(self, value: Any = None) -> None:
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        for proc in waiters:
            if proc.__class__ is _ChainWaiter:
                proc.wake(sim, value)
            else:
                sim._schedule(0.0, proc, value)
        callbacks, self._once = self._once, []
        for cb in callbacks:
            cb()

    def once(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the next pulse only (multi-signal waits)."""
        self._once.append(callback)

    @property
    def has_waiters(self) -> bool:
        return bool(self._waiters) or bool(self._once)

    def _add_waiter(self, proc: "Process") -> bool:
        self._waiters.append(proc)
        return True


# Type-keyed yield dispatch: one dict lookup on type(command) replaces
# the isinstance chain of the previous kernel. Subclasses of the command
# types resolve through the isinstance fallback once, then hit the dict.
_KIND_NUMBER = 0
_KIND_EVENT = 2
_KIND_SIGNAL = 3
_KIND_PROCESS = 4
_KIND_CHAIN = 5

_YIELD_KINDS: dict[type, int] = {tuple: _KIND_CHAIN}


def _resolve_yield_kind(command: Any) -> int:
    """Slow path: classify (and cache) a yield command's type."""
    if isinstance(command, (float, int)):
        kind = _KIND_NUMBER
    elif isinstance(command, Event):
        kind = _KIND_EVENT
    elif isinstance(command, Signal):
        kind = _KIND_SIGNAL
    elif isinstance(command, Process):
        kind = _KIND_PROCESS
    elif isinstance(command, tuple):
        kind = _KIND_CHAIN
    else:
        return -1
    _YIELD_KINDS[command.__class__] = kind
    return kind


class Process:
    """A running simulated activity wrapping a generator.

    Completion is observable through :attr:`done` (an :class:`Event`
    triggered with the generator's return value) or by ``yield``-ing the
    process object from another process.
    """

    __slots__ = (
        "sim", "name", "gen", "done", "_failure", "_waiting_on", "_source",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self.sim = sim
        self.name = name
        self.gen = gen
        self.done = Event(sim, name=f"{name}.done")
        self._failure: Optional[BaseException] = None
        self._waiting_on: Any = None
        #: Event-source index (kernel.events{source=...} attribution),
        #: assigned at spawn from the normalized process name.
        self._source = 0

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def failure(self) -> Optional[BaseException]:
        return self._failure

    @property
    def result(self) -> Any:
        """Return value of the generator; raises if it failed or is live."""
        if self._failure is not None:
            raise ProcessFailed(self.name, self._failure)
        return self.done.value

    def _step(self, payload: Any) -> None:
        """Advance the generator by one yield.

        The kernel loop resumes a ``None`` payload itself and handles a
        non-negative ``float`` yield in place (``SerialKernel.loop``);
        every other resume comes here, and every other yield goes
        through :meth:`_dispatch`.
        """
        self._waiting_on = None
        try:
            cls = payload.__class__
            if cls is _Chain:
                # Unfused replay of a delay chain: sleep the next element
                # as its own kernel wake-up *without* resuming the
                # generator — the chain's contract is that nothing
                # observable happens between elements, so the only job
                # here is to reproduce the legacy per-yield timing and
                # event stream exactly.
                chain = payload.chain
                index = payload.index
                nxt = index + 1
                self.sim._schedule(
                    chain[index],
                    self,
                    _Chain(chain, nxt) if nxt < len(chain) else None,
                )
                return
            if cls is _Throw:
                command = self.gen.throw(payload.exc)
            else:
                command = self.gen.send(payload)
        except StopIteration as stop:
            self._stopped(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - must capture sim faults
            self._failed(exc)
            return
        self._dispatch(command)

    def _stopped(self, value: Any) -> None:
        """The generator returned ``value``: wake every waiter with it."""
        self.done.trigger(value)
        self.sim._live_processes.discard(self)

    def _failed(self, exc: BaseException) -> None:
        """The generator raised ``exc``: record it and wake the waiters.

        Called from inside the ``except`` block that caught ``exc``, so
        under ``fail_fast`` the :class:`ProcessFailed` carries it as its
        cause.
        """
        sim = self.sim
        self._failure = exc
        sim._live_processes.discard(self)
        sim._failures.append(self)
        # Wake waiters with the failure so it propagates.
        self.done.trigger(_Throw(ProcessFailed(self.name, exc)))
        if sim.fail_fast:
            raise ProcessFailed(self.name, exc) from exc

    def _dispatch(self, command: Any) -> None:
        """Act on a yielded command: schedule or park the process."""
        sim = self.sim
        kind = _YIELD_KINDS.get(command.__class__)
        if kind is None:
            kind = _resolve_yield_kind(command)
        if kind == _KIND_NUMBER:
            # Bare-number delay: the allocation-free fast path.
            if command < 0:
                raise InvalidYield(
                    f"process {self.name!r} yielded a negative delay {command!r}"
                )
            sim._schedule(command, self, None)
        elif kind == _KIND_EVENT or kind == _KIND_SIGNAL:
            self._waiting_on = command
            if not command._add_waiter(self):
                sim._schedule(0.0, self, command._value)
        elif kind == _KIND_PROCESS:
            self._waiting_on = command
            if not command.done._add_waiter(self):
                sim._schedule(0.0, self, command.done._value)
        elif kind == _KIND_CHAIN:
            if not command:
                raise InvalidYield(
                    f"process {self.name!r} yielded an empty delay chain"
                )
            head = command[0]
            hkind = _YIELD_KINDS.get(head.__class__)
            if hkind is None:
                hkind = _resolve_yield_kind(head)
            if hkind == _KIND_EVENT or hkind == _KIND_SIGNAL or hkind == _KIND_PROCESS:
                # Waitable-headed chain: park on the head, then sleep the
                # tail from the trigger instant (the head's value is
                # discarded — the final resume delivers None).
                for d in command[1:]:
                    if d < 0:
                        raise InvalidYield(
                            f"process {self.name!r} yielded a negative delay "
                            f"{d!r} inside a chain"
                        )
                waitable = head.done if hkind == _KIND_PROCESS else head
                self._waiting_on = waitable
                if not waitable._add_waiter(_ChainWaiter(self, command)):
                    # Already triggered: the wake is immediate, exactly as
                    # the plain ``yield head`` resume would be.
                    stored = waitable._value
                    if stored.__class__ is _Throw:
                        sim._schedule(0.0, self, stored)
                    elif sim._fuse:
                        t = sim.now
                        for d in command[1:]:
                            t = t + d
                        kernel = sim.kernel
                        kernel.fused_yields += len(command) - 1
                        kernel.schedule_at(t, self, None)
                    else:
                        sim._schedule(
                            0.0,
                            self,
                            _Chain(command, 1) if len(command) > 1 else None,
                        )
                return
            if sim._fuse:
                # Accumulate at schedule time in the exact sequential
                # order the per-element wake-ups would use — ((t+a)+b)+c,
                # never t + (a+b+c) — so the fused end time is bitwise
                # the unfused one.
                t = sim.now
                for d in command:
                    if d < 0:
                        raise InvalidYield(
                            f"process {self.name!r} yielded a negative delay "
                            f"{d!r} inside a chain"
                        )
                    t = t + d
                kernel = sim.kernel
                kernel.fused_yields += len(command) - 1
                kernel.schedule_at(t, self, None)
            else:
                for d in command:
                    if d < 0:
                        raise InvalidYield(
                            f"process {self.name!r} yielded a negative delay "
                            f"{d!r} inside a chain"
                        )
                sim._schedule(
                    command[0],
                    self,
                    _Chain(command, 1) if len(command) > 1 else None,
                )
        else:
            raise InvalidYield(
                f"process {self.name!r} yielded unsupported object {command!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else f"waiting on {self._waiting_on!r}"
        return f"<Process {self.name} {state}>"


class _Throw:
    """Internal payload: deliver an exception into a resumed generator."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class _Chain:
    """Internal payload: remaining elements of an unfused delay chain."""

    __slots__ = ("chain", "index")

    def __init__(self, chain: tuple, index: int):
        self.chain = chain
        self.index = index


class _ChainWaiter:
    """A parked waitable-headed chain: wakes ``proc`` tail-delays after
    the head fires.

    Fused, the tail accumulates from the trigger instant in sequential
    float order — bitwise the time the per-element wake-ups would reach.
    Unfused, the head's wake replays the tail as individual kernel
    events via :class:`_Chain`, reproducing the legacy stream.
    """

    __slots__ = ("proc", "chain")

    def __init__(self, proc: Process, chain: tuple):
        self.proc = proc
        self.chain = chain

    def wake(self, sim: "Simulator", value: Any = None) -> None:
        chain = self.chain
        if value.__class__ is _Throw:
            # A failed awaited process: deliver the exception at the
            # trigger instant instead of sleeping the tail.
            sim._schedule(0.0, self.proc, value)
            return
        if sim._fuse:
            t = sim.now
            for d in chain[1:]:
                t = t + d
            kernel = sim.kernel
            kernel.fused_yields += len(chain) - 1
            kernel.schedule_at(t, self.proc, None)
        else:
            sim._schedule(
                0.0,
                self.proc,
                _Chain(chain, 1) if len(chain) > 1 else None,
            )


class _NeverTriggered:
    """Permanent not-done sentinel shared by all callback timers."""

    __slots__ = ()
    _triggered = False
    triggered = False


_LIVE = _NeverTriggered()


class _CallbackTimer:
    """A one-shot timer entry without generator machinery.

    The fused :meth:`Simulator.call_at` path queues these directly: the
    dispatch loop treats them like processes (same ``done``-staleness
    check, same source attribution), but firing is a single call — no
    generator, no Event, no live-set bookkeeping. Not cancellable; the
    cancellable :meth:`Simulator.after` keeps the full process path.
    """

    __slots__ = ("fn", "_source")

    done = _LIVE

    def __init__(self, fn: Callable[[], None], source: int):
        self.fn = fn
        self._source = source

    def _step(self, payload: Any) -> None:
        self.fn()


class TimerHandle:
    """A cancellable one-shot timeout from :meth:`Simulator.after`.

    Cancellation reuses the kernel's stale-wakeup check: triggering the
    timer process's ``done`` event makes the dispatch loop skip its
    pending queue entry, so a cancelled timer costs no callback run and
    never advances simulated time. Cancelling after the timer fired (or
    twice) is a no-op that returns False — the usual watchdog idiom
    ``timer.cancel()`` on the success path needs no guard.
    """

    __slots__ = ("_proc", "fired")

    def __init__(self, proc: Process):
        self._proc = proc
        #: True once the callback has run.
        self.fired = False

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not self._proc.done.triggered

    @property
    def cancelled(self) -> bool:
        return self._proc.done.triggered and not self.fired

    def cancel(self) -> bool:
        """Disarm the timer; True if it was still pending."""
        proc = self._proc
        if self.fired or proc.done._triggered:
            return False
        proc.done.trigger(None)
        proc.sim._live_processes.discard(proc)
        return True


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    Parameters
    ----------
    fail_fast:
        When True (default) an exception inside any process aborts
        :meth:`run` immediately with :class:`ProcessFailed`. When False,
        failures are collected in :attr:`failures` and only waiters on the
        failed process see the exception.
    fuse_delays:
        When True (the default), fused delay chains (tuple yields) and
        timer arming collapse into single kernel wake-ups; when False
        every chain element is replayed as its own wake-up, reproducing
        the legacy per-yield event stream. ``None`` reads the
        ``REPRO_FUSE`` environment variable (default on). Simulated
        times are bit-identical either way — only event counts differ.
    """

    def __init__(self, fail_fast: bool = True, fuse_delays: Optional[bool] = None):
        self.now: float = 0.0
        self.fail_fast = fail_fast
        #: The event queue (heap + zero-delay fast lane).
        self.kernel = SerialKernel(self)
        #: Hot-path alias: Event.trigger / Signal.pulse / Process._dispatch
        #: call ``sim._schedule`` directly, which resolves to the bound
        #: kernel method with no extra indirection.
        self._schedule = self.kernel.schedule
        self._fuse = _fuse_default() if fuse_delays is None else bool(fuse_delays)
        self._live_processes: set[Process] = set()
        self._failures: list[Process] = []
        self._spawned = 0
        self.events_processed = 0

    @property
    def fuse_delays(self) -> bool:
        """Whether delay chains are fused into single wake-ups."""
        return self._fuse

    # -- process management -------------------------------------------------

    def spawn(
        self,
        gen: Generator,
        name: Optional[str] = None,
        _unused: object = None,
    ) -> Process:
        """Register a generator as a process, starting at the current time.

        The ignored fourth parameter exists only because the benchmark's
        tracer (``perfbench/spans.py``) forwards ``spawn(sim, gen, name,
        shard)`` positionally; nothing else passes it.
        """
        if not hasattr(gen, "send"):
            raise TypeError(f"spawn() needs a generator, got {type(gen).__name__}")
        self._spawned += 1
        proc = Process(self, gen, name or f"proc-{self._spawned}")
        proc._source = self.kernel.source_of(proc.name)
        self._live_processes.add(proc)
        self._schedule(0.0, proc, None)
        return proc

    def _spawn_at(self, delay_ns: float, gen: Generator, name: str) -> Process:
        """Spawn ``gen`` with its *first* resume at ``now + delay_ns``.

        Timer fast path (fusion mode only): where :meth:`spawn` costs a
        zero-delay dispatch that immediately yields the real delay, this
        schedules the sole wake-up directly — one kernel event instead of
        two, at the bitwise-identical time ``now + delay_ns``.
        """
        self._spawned += 1
        proc = Process(self, gen, name)
        proc._source = self.kernel.source_of(name)
        self._live_processes.add(proc)
        self._schedule(delay_ns, proc, None)
        return proc

    def event(self, name: str = "event") -> Event:
        return Event(self, name)

    def signal(self, name: str = "signal") -> Signal:
        return Signal(self, name)

    @property
    def failures(self) -> list[Process]:
        return list(self._failures)

    def metrics_snapshot(self) -> dict[str, float]:
        """Kernel-level counters for the unified observability surface.

        Includes the kernel's own ``kernel.*`` series (delay fusion and
        event-source attribution).
        """
        snap = {
            "sim.now_ns": self.now,
            "sim.events": float(self.events_processed),
            "sim.processes_spawned": float(self._spawned),
            "sim.processes_live": float(len(self._live_processes)),
        }
        snap.update(self.kernel.metrics_snapshot())
        return snap

    # -- scheduling ----------------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run a plain callback at absolute simulated time ``when``."""
        if self._fuse:
            # One wake-up at max(0, when - now) from the current instant —
            # the same float the legacy spawn-then-yield path computes at
            # its zero-delay first resume, so the firing time is bitwise
            # unchanged; only the bookkeeping event disappears. The entry
            # is a bare callback record, not a process (_CallbackTimer).
            self._spawned += 1
            timer = _CallbackTimer(fn, self.kernel.source_of("call_at"))
            self._schedule(max(0.0, when - self.now), timer, None)
            return

        def _runner() -> Generator:
            yield max(0.0, when - self.now)
            fn()

        self.spawn(_runner(), name="call_at")

    def after(
        self, delay_ns: float, fn: Callable[[], None], name: str = "timer"
    ) -> TimerHandle:
        """Arm a cancellable timeout: run ``fn()`` in ``delay_ns`` ns.

        Returns a :class:`TimerHandle`; ``handle.cancel()`` before expiry
        disarms it without running the callback. This is the watchdog
        primitive of the fault/resilience layer (retry timeouts, stalled
        vDMA copies). The timer process is a daemon — an armed timer
        never counts as a deadlocked process.
        """
        if delay_ns < 0:
            raise ValueError(f"negative timer delay: {delay_ns}")

        if self._fuse:
            # Timer fast path: arm the single wake-up directly (see
            # _spawn_at). Cancellation is unchanged — TimerHandle works
            # through proc.done and the kernel's stale-wakeup check.
            def _fast_runner() -> Generator:
                handle.fired = True
                fn()
                return
                yield  # pragma: no cover - makes this a generator

            proc = self._spawn_at(delay_ns, _fast_runner(), f"daemon:{name}")
            handle = TimerHandle(proc)
            return handle

        def _runner() -> Generator:
            yield delay_ns
            handle.fired = True
            fn()

        proc = self.spawn(_runner(), name=f"daemon:{name}")
        handle = TimerHandle(proc)
        return handle

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        detect_deadlock: bool = True,
    ) -> float:
        """Process events until the queue drains, ``until`` or ``max_events``.

        Returns the simulated time at which the run stopped. Raises
        :class:`DeadlockError` if the queue drains while live processes
        remain blocked (unless ``detect_deadlock`` is False — useful for
        systems with daemon processes parked on external queues).
        """
        reason = self.kernel.loop(until, max_events, None)
        if reason == PAST_UNTIL:
            self.now = until
            return self.now
        if reason == DRAINED:
            blocked = [p.name for p in self._live_processes if not _is_daemon(p)]
            if detect_deadlock and blocked:
                raise DeadlockError(blocked)
        return self.now

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers; return its value.

        ``limit`` bounds simulated time as a safety net against livelock.
        """
        stop = [False]
        event.on_trigger(lambda _v: stop.__setitem__(0, True))
        reason = self.kernel.loop(limit, None, stop)
        if reason == DRAINED:
            blocked = [p.name for p in self._live_processes if not _is_daemon(p)]
            raise DeadlockError(blocked)
        if reason == PAST_UNTIL:
            raise SimulationError(
                f"run_until: time limit {limit} ns exceeded at t={self.now}"
            )
        return event.value


def _is_daemon(proc: Process) -> bool:
    """Daemon processes (host comm-task threads) never count for deadlock."""
    return getattr(proc.gen, "_sim_daemon", False) or proc.name.startswith("daemon:")


def wait_all(procs: Iterable[Process]) -> Generator:
    """Helper coroutine: wait for every process; return list of results."""
    results = []
    for proc in procs:
        results.append((yield proc))
    return results
