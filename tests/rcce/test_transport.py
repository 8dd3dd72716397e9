"""Unit tests for the default transport protocol details."""

import numpy as np
import pytest

from repro.rcce.api import RcceOptions
from repro.rcce.transport import DefaultGetTransport
from repro.vscc.system import VSCCSystem


def test_selector_picks_default_below_threshold():
    session = VSCCSystem(num_devices=1, options=RcceOptions(pipelined=True))
    comm = session.comm_for(0)
    small = comm.selector.select(comm, 1, 1024)
    large = comm.selector.select(comm, 1, 65536)
    assert small.name == "rcce-default"
    assert large.name == "ircce-pipelined"


def test_selector_without_pipelining_always_default():
    session = VSCCSystem(num_devices=1)
    comm = session.comm_for(0)
    assert comm.selector.select(comm, 1, 10 ** 6).name == "rcce-default"


def test_invalid_cache_control():
    with pytest.raises(ValueError):
        DefaultGetTransport(cache_control="bogus")


def test_sender_stages_in_own_buffer(session):
    """Local-put discipline: the sender only writes its own MPB."""
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"\xab" * 64, 1)
        else:
            yield from comm.recv(64, 0)

    session.run(program, ranks=[0, 1])
    env0 = session.devices[0].core(0)
    env1 = session.devices[0].core(1)
    assert env0.stats["mpb_bytes_written"] >= 64  # chunk + flags
    # receiver never wrote payload bytes to MPB, only flags
    assert env1.stats["mpb_bytes_written"] < 64
