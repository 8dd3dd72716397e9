"""Long-run stress: sequence counters wrap (254 values) without desync."""

import numpy as np

from repro.rcce.api import RcceOptions
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_300_messages_wrap_counters_onchip(session):
    """More messages than the 254-value counter space on one pair."""
    got = []

    def program(comm):
        if comm.rank == 0:
            for i in range(300):
                yield from comm.send(bytes([i % 256]) * 40, 1)
        elif comm.rank == 1:
            for i in range(300):
                data = yield from comm.recv(40, 0)
                got.append(int(data[0]))

    session.run(program, ranks=[0, 1])
    assert got == [i % 256 for i in range(300)]


def test_pipelined_message_with_thousands_of_packets():
    """A single message whose packet count exceeds the counter space."""
    session = VSCCSystem(
        num_devices=1, options=RcceOptions(pipelined=True, pipeline_packet=64)
    )
    size = 40000  # 625 packets of 64 B > 254
    payload = (np.arange(size) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 1)
        elif comm.rank == 1:
            got["data"] = yield from comm.recv(size, 0)

    session.run(program, ranks=[0, 1])
    assert (got["data"] == payload).all()


def test_280_messages_cross_device_vdma():
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    got = []

    def program(comm):
        if comm.rank == 0:
            for i in range(280):
                yield from comm.send(bytes([i % 256]) * 200, 48)
        elif comm.rank == 48:
            for i in range(280):
                data = yield from comm.recv(200, 0)
                got.append(int(data[0]))

    system.run(program, ranks=[0, 48])
    assert got == [i % 256 for i in range(280)]


def test_mixed_sizes_alternate_transports_cross_device():
    """Alternating above/below the direct threshold wraps both the
    direct path's and the vDMA path's shared counter streams."""
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    sizes = [16, 5000, 64, 9000, 128, 200] * 30
    got = []

    def program(comm):
        if comm.rank == 0:
            for i, size in enumerate(sizes):
                yield from comm.send(bytes([i % 256]) * size, 48)
        elif comm.rank == 48:
            for i, size in enumerate(sizes):
                data = yield from comm.recv(size, 0)
                got.append((int(data[0]), len(data)))

    system.run(program, ranks=[0, 48])
    assert got == [(i % 256, size) for i, size in enumerate(sizes)]
