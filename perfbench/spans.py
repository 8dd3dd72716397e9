"""Layer spans recorded from outside the program.

The traced run of the benchmark wraps the public entry points of each
layer of ``repro`` (the table :data:`TARGETS` below) and records one span
per call: layer, name, start, end, parent span and a group id shared by
everything done on behalf of one rank, job or RPC. Nothing under
``src/`` changes; the wrappers are installed on the classes and modules
for the duration of the traced run and removed afterwards.

* A plain function or method gives one span per call.
* A generator (a simulated coroutine) gives one span per *resumption*:
  the kernel resumes it, it runs until its next ``yield``, the span
  ends. The yielded values pass through untouched, so the simulation is
  the same event for event; the benchmark checks that bit for bit.
* ``Simulator.spawn``, ``call_at`` and ``after`` are wrapped too, so the
  resumptions of every spawned process and every timer callback are
  charged to the layer whose module defined them (a vDMA daemon to
  ``host``, a BT rank program to ``apps``). What is left in the
  ``Simulator.run`` span is the kernel's own dispatch.

Self time is a span's duration minus the time its direct children
cover, minus the tracer's own cost per child that lands in the parent
(measured once per recorder by :meth:`SpanRecorder.calibrate`). Spans stay in memory (compact ``array`` columns) and are written
once, when the run ends, by :meth:`SpanRecorder.save`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

#: The layers, named after the ``repro`` subpackages.
LAYERS = ("sim", "scc", "rcce", "ircce", "host", "vscc", "apps", "serve")

#: Public entry points wrapped per layer: (layer, module, class or None
#: for module functions, attribute names). Transports, scheme policies
#: and spawned processes are found by type instead (see ``install``).
TARGETS = (
    ("sim", "repro.sim.engine", "Simulator", ("run",)),
    ("scc", "repro.scc.core", "CoreEnv", (
        "compute", "compute_flops", "private_read", "private_write",
        "cl1invmb", "mpb_read", "mpb_write", "put_chunk", "get_chunk",
        "set_flag", "read_flag", "wait_flag", "wait_flag_pred",
        "wait_any_flag", "mmio_write", "mmio_read",
    )),
    ("rcce", "repro.rcce.api", "Rcce", (
        "send", "recv", "barrier", "bcast", "reduce", "allreduce", "gather",
        "announce_prefetch", "announce_wcb_open", "cache_invalidate",
    )),
    ("ircce", "repro.ircce.nonblocking", None, (
        "isend", "irecv", "wait_all", "wait_any", "recv_any_source",
    )),
    ("ircce", "repro.ircce.nonblocking", "CommRequest", ("wait",)),
    ("host", "repro.host.commtask", "CommunicationTask", (
        "transparent_read", "transparent_write", "streamed_write",
        "small_direct_write", "rpc_submit", "issue_wcb_open",
        "open_wcb_stream", "fence_wcb", "flag_write", "mmio_write",
        "mmio_read",
    )),
    ("host", "repro.host.vdma", "VDMAController", ("start",)),
    ("host", "repro.host.softcache", "HostMpbCache", ("announce", "serve")),
    ("host", "repro.host.wcbuf", "HostWriteCombiner", ("open", "absorb", "fence")),
    ("vscc", "repro.vscc.system", "VSCCSystem", ("__init__", "run", "metrics")),
    ("vscc", "repro.vscc.protocol", "VsccSelector", ("select", "decide_rpc")),
    ("apps", "repro.apps.rpc", None, ("run_rpc",)),
    ("apps", "repro.apps.rpc", "RpcDispatcher", ("receive",)),
    ("serve", "repro.serve.job", None, ("execute_job",)),
    ("serve", "repro.serve.service", "SimService", ("submit",)),
    ("serve", "repro.serve.service", "JobHandle", ("result",)),
)

_RANK_NAME = re.compile(r"rank(\d+)$")


def layer_of_module(module: str) -> str:
    """``repro.host.vdma`` -> ``host``; anything outside the layers -> ``other``."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class SpanRecorder:
    """In-memory span store with running per-name self/total time."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: (layer, name) per name id.
        self.names: list[tuple[str, str]] = []
        self._ids: dict[tuple[str, str], int] = {}
        # One row per span, in begin order.
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.group = array("q")
        # Running totals per name id, in clock units.
        self.self_time: list[int] = []
        self.total_time: list[int] = []
        self.calls: list[int] = []
        self._open: list[int] = []
        self._covered: list[int] = []
        self._children: list[int] = []
        self._groups: list[int] = [-1]
        #: Tracer cost per child span charged to its parent (clock units).
        self.overhead = 0.0

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
            self.self_time.append(0)
            self.total_time.append(0)
            self.calls.append(0)
        return nid

    @property
    def current_group(self) -> int:
        return self._groups[-1]

    def push_group(self, group: int) -> None:
        """Charge the spans that follow to ``group`` (a job, say)."""
        self._groups.append(group)

    def pop_group(self) -> None:
        self._groups.pop()

    def begin(self, nid: int, group: Optional[int] = None) -> None:
        if group is None:
            group = self._groups[-1]
        self._groups.append(group)
        self.parent.append(self._open[-1] if self._open else -1)
        self.name.append(nid)
        self.group.append(group)
        self.end.append(0)
        self._open.append(len(self.start))
        self._covered.append(0)
        self._children.append(0)
        self.start.append(self.clock())

    def finish(self) -> None:
        t = self.clock()
        idx = self._open.pop()
        covered = self._covered.pop()
        children = self._children.pop()
        self._groups.pop()
        self.end[idx] = t
        duration = t - self.start[idx]
        nid = self.name[idx]
        self.self_time[nid] += duration - covered - children * self.overhead
        self.total_time[nid] += duration
        self.calls[nid] += 1
        if self._covered:
            self._covered[-1] += duration
            self._children[-1] += 1

    def calibrate(self, resumptions: int = 20_000, rounds: int = 5) -> float:
        """Measure :attr:`overhead`: what one traced child adds to its parent.

        Drives a trivial generator with and without the resumption
        wrapper inside a parent span; the parent's extra self time per
        resumption is the tracer's cost the parent would otherwise be
        charged for.
        """

        def trivial():
            for _ in range(resumptions):
                yield None

        samples = []
        for _ in range(rounds):
            probe = SpanRecorder(self.clock)
            parent = probe.name_id("probe", "parent")
            child = probe.name_id("probe", "child")
            probe.begin(parent)
            for _ in _resumptions(probe, trivial(), child, None):
                pass
            probe.finish()
            t0 = self.clock()
            for _ in trivial():
                pass
            bare = self.clock() - t0
            samples.append((probe.self_time[parent] - bare) / (resumptions + 1))
        self.overhead = max(0.0, sorted(samples)[len(samples) // 2])
        return self.overhead

    def __len__(self) -> int:
        return len(self.start)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (every layer present, 0 if untouched)."""
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _name), self_ns in zip(self.names, self.self_time):
            out[layer] = out.get(layer, 0.0) + self_ns * 1e-9
        return out

    def layer_calls(self, layer: str) -> int:
        return sum(c for (lay, _n), c in zip(self.names, self.calls) if lay == layer)

    def total_s(self, layer: str, name: str) -> float:
        nid = self._ids.get((layer, name))
        return 0.0 if nid is None else self.total_time[nid] * 1e-9

    def save(self, path: Path) -> Path:
        """Write every span as numpy columns plus the name table."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                start_ns=np.frombuffer(self.start, dtype=np.int64),
                end_ns=np.frombuffer(self.end, dtype=np.int64),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                name=np.frombuffer(self.name, dtype=np.int64),
                group=np.frombuffer(self.group, dtype=np.int64),
                names=np.array(json.dumps(self.names)),
            )
        return path


def _resumptions(rec: SpanRecorder, inner, nid: int, group: Optional[int]):
    """Drive ``inner`` (generator or coroutine), one span per resumption.

    Every value ``inner`` yields is passed out unchanged and every value
    or exception sent in is forwarded unchanged, so the caller (the
    simulation kernel, or the asyncio loop) sees the same stream.
    """
    begin, finish = rec.begin, rec.finish
    value = None
    error: Optional[BaseException] = None
    while True:
        begin(nid, group)
        try:
            out = inner.send(value) if error is None else inner.throw(error)
        except StopIteration as stop:
            finish()
            return stop.value
        except BaseException:
            finish()
            raise
        finish()
        error = None
        try:
            value = yield out
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into inner
            value, error = None, exc


class _Awaitable:
    __slots__ = ("rec", "coro", "nid")

    def __init__(self, rec: SpanRecorder, coro, nid: int):
        self.rec, self.coro, self.nid = rec, coro, nid

    def __await__(self):
        return _resumptions(self.rec, self.coro, self.nid, None)


def _wrap(rec: SpanRecorder, fn: Callable, layer: str, label: str,
          group_of: Optional[Callable] = None) -> Callable:
    nid = rec.name_id(layer, label)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            group = None if group_of is None else group_of(args)
            return _resumptions(rec, fn(*args, **kwargs), nid, group)
        return gen_wrapper
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def coro_wrapper(*args, **kwargs):
            return await _Awaitable(rec, fn(*args, **kwargs), nid)
        return coro_wrapper

    begin, finish = rec.begin, rec.finish

    @functools.wraps(fn)
    def call_wrapper(*args, **kwargs):
        begin(nid, None if group_of is None else group_of(args))
        try:
            return fn(*args, **kwargs)
        finally:
            finish()
    return call_wrapper


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


#: Group extractors: which rank, RPC or job a call works for.
_GROUP_OF = {
    ("RpcDispatcher", "receive"): lambda args: args[2][0].req_id,
}


class LayerTracer:
    """Install the span wrappers; ``uninstall`` restores every original."""

    def __init__(self, recorder: SpanRecorder, targets=TARGETS, by_type: bool = True):
        """``targets`` defaults to every layer; ``by_type=False`` skips the
        transports, policies and spawned processes (a light trace that
        times only the named entry points)."""
        self.rec = recorder
        self.targets = targets
        self.by_type = by_type
        self._undo: list[Callable[[], None]] = []

    def __enter__(self) -> "LayerTracer":
        self.rec.calibrate()
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_method(self, cls: type, attr: str, layer: str) -> None:
        original = cls.__dict__[attr]
        label = f"{cls.__name__}.{attr}"
        group_of = _GROUP_OF.get((cls.__name__, attr))
        if isinstance(original, property):
            wrapped = property(_wrap(self.rec, original.fget, layer, label))
        else:
            wrapped = _wrap(self.rec, original, layer, label, group_of)
        self._patch(cls, attr, wrapped)

    def _patch_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        wrapped = _wrap(self.rec, original, layer, attr)
        # Re-point every ``from module import attr`` binding as well.
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapped)

    def install(self) -> None:
        import repro.ircce.pipeline  # noqa: F401 - registers PipelinedTransport
        from repro.rcce.transport import Transport
        from repro.sim.engine import Simulator
        from repro.vscc.policy import SchemePolicy

        for layer, module_name, cls_name, attrs in self.targets:
            module = importlib.import_module(module_name)
            for attr in attrs:
                if cls_name is None:
                    self._patch_function(module, attr, layer)
                else:
                    self._patch_method(getattr(module, cls_name), attr, layer)
        if not self.by_type:
            return
        for base, attrs in ((Transport, ("send", "recv")), (SchemePolicy, ("choose",))):
            for cls in _subclasses(base):
                for attr in attrs:
                    if attr in cls.__dict__:
                        self._patch_method(cls, attr, layer_of_module(cls.__module__))
        self._patch_scheduling(Simulator)

    def _patch_scheduling(self, sim_cls: type) -> None:
        """Charge spawned processes and timer callbacks to their layer."""
        rec = self.rec
        spawn, call_at, after = sim_cls.spawn, sim_cls.call_at, sim_cls.after
        resumption_code = _resumptions.__code__

        def traced_spawn(sim, gen, name=None, shard=None):
            frame = getattr(gen, "gi_frame", None)
            if frame is not None and gen.gi_code is not resumption_code:
                layer = layer_of_module(frame.f_globals.get("__name__", ""))
                nid = rec.name_id(layer, f"proc:{gen.__qualname__}")
                match = _RANK_NAME.match(name or "")
                group = int(match.group(1)) if match else rec.current_group
                gen = _resumptions(rec, gen, nid, group)
            return spawn(sim, gen, name, shard)

        def callback(fn):
            layer = layer_of_module(getattr(fn, "__module__", None) or "")
            label = getattr(fn, "__qualname__", type(fn).__name__)
            nid = rec.name_id(layer, f"cb:{label}")
            group = rec.current_group

            def run():
                rec.begin(nid, group)
                try:
                    fn()
                finally:
                    rec.finish()
            return run

        self._patch(sim_cls, "spawn", traced_spawn)
        self._patch(sim_cls, "call_at", lambda sim, when, fn: call_at(sim, when, callback(fn)))
        self._patch(
            sim_cls, "after",
            lambda sim, delay_ns, fn, name="timer": after(sim, delay_ns, callback(fn), name),
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
