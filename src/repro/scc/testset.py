"""Per-core test-and-set registers.

Every SCC core exposes one atomic test-and-set register on its tile's
mesh interface; RCCE builds its lock primitives on them. Atomicity is
trivial here because the simulator is single-threaded — the interesting
part is the timing (a remote T&S is a full mesh round trip).
"""

from __future__ import annotations

from repro.sim.engine import Signal, Simulator

from .params import SCCParams

__all__ = ["TestSetRegisters"]


class TestSetRegisters:
    """The 48 T&S registers of one device."""

    def __init__(self, sim: Simulator, params: SCCParams, device_id: int):
        self.sim = sim
        self.params = params
        self.device_id = device_id
        self._held = [False] * params.num_cores
        self._released: list[Signal] = [
            sim.signal(name=f"tas{device_id}.{i}") for i in range(params.num_cores)
        ]
        self.operations = 0

    def access_ns(self, requester: int, target: int) -> float:
        """Cost of one T&S read (acquire attempt) from ``requester``."""
        p = self.params
        if p.tile_of_core(requester) == p.tile_of_core(target):
            return p.core_clock.cycles(p.tas_local_cycles)
        hops = p.hops(requester, target)
        return p.core_clock.cycles(p.tas_remote_base_cycles) + p.mesh_clock.cycles(
            2 * p.mesh_hop_mesh_cycles * hops
        )

    def try_acquire(self, target: int) -> bool:
        """Atomic test-and-set (timeless; caller charges :meth:`access_ns`)."""
        self.params._check_core(target)
        self.operations += 1
        if self._held[target]:
            return False
        self._held[target] = True
        return True

    def release(self, target: int) -> None:
        self.params._check_core(target)
        if not self._held[target]:
            raise RuntimeError(f"T&S register {target} released while clear")
        self._held[target] = False
        self._released[target].pulse()

    def released_signal(self, target: int) -> Signal:
        """Pulsed on release — lets waiters back off without busy loops."""
        return self._released[target]
