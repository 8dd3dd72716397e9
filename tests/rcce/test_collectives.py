"""Unit tests for barrier/bcast/reduce/allreduce/gather."""

import numpy as np
import pytest


@pytest.fixture(params=[2, 5, 8, 13])
def nranks(request):
    return request.param


def test_barrier_synchronizes(session, nranks):
    after = {}

    def program(comm):
        if comm.rank >= nranks:
            return
        # stagger arrivals
        yield from comm.env.compute(cycles=comm.rank * 10000)
        yield from comm.barrier(group_size=nranks)
        after[comm.rank] = comm.env.sim.now

    session.run(program, ranks=range(nranks))
    latest_arrival = (nranks - 1) * 10000 * session.params.core_clock.period_ns
    assert all(t >= latest_arrival for t in after.values())


def test_barrier_rejects_outside_rank(session):
    def program(comm):
        yield from comm.barrier(group_size=1)

    with pytest.raises(Exception):
        session.run(program, ranks=[3])


def test_bcast_delivers_to_all(session, nranks):
    payload = np.arange(300, dtype=np.uint8)
    got = {}

    def program(comm):
        if comm.rank >= nranks:
            return
        data = yield from comm.bcast(payload if comm.rank == 2 % nranks else None,
                                     300, root=2 % nranks, group_size=nranks)
        got[comm.rank] = data

    session.run(program, ranks=range(nranks))
    for rank in range(nranks):
        assert (np.asarray(got[rank]) == payload).all()


def test_reduce_sums_vectors(session, nranks):
    got = {}

    def program(comm):
        if comm.rank >= nranks:
            return
        values = np.full(8, float(comm.rank + 1))
        result = yield from comm.reduce(values, np.add, root=0, group_size=nranks)
        got[comm.rank] = result

    session.run(program, ranks=range(nranks))
    expected = sum(range(1, nranks + 1))
    assert np.allclose(got[0], expected)
    assert all(got[r] is None for r in range(1, nranks))


def test_allreduce_everyone_gets_result(session):
    got = {}

    def program(comm):
        if comm.rank >= 6:
            return
        result = yield from comm.allreduce(np.array([float(comm.rank)]), np.add, group_size=6)
        got[comm.rank] = result[0]

    session.run(program, ranks=range(6))
    assert all(v == pytest.approx(15.0) for v in got.values())


def test_reduce_maximum(session):
    got = {}

    def program(comm):
        if comm.rank >= 4:
            return
        values = np.array([float((comm.rank * 7) % 5)])
        result = yield from comm.reduce(values, np.maximum, root=0, group_size=4)
        got[comm.rank] = result

    session.run(program, ranks=range(4))
    assert got[0][0] == pytest.approx(4.0)


def test_gather_collects_in_rank_order(session):
    import repro.rcce.collectives as coll
    got = {}

    def program(comm):
        if comm.rank >= 4:
            return
        parts = yield from coll.gather(comm, np.array([comm.rank], np.uint8), root=1, group_size=4)
        got[comm.rank] = parts

    session.run(program, ranks=range(4))
    assert [bytes(p)[0] for p in got[1]] == [0, 1, 2, 3]
    assert got[0] is None


# -- members= validation: bad groups must fail loudly, never deadlock ----------


def test_members_out_of_range_raises_upfront(session):
    """A member rank beyond the layout used to deadlock the group (the
    tree blocks on a rank that never runs); now it raises before any
    communication happens."""
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.barrier(members=[0, 1, 999])

    with pytest.raises(ProcessFailed, match=r"members \[999\] out of range"):
        session.run(program, ranks=[0, 1])


def test_members_negative_rank_raises(session):
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.allreduce(np.ones(2), np.add, members=[0, -1, 2])

    with pytest.raises(ProcessFailed, match="out of range"):
        session.run(program, ranks=[0])


def test_members_duplicates_raise_with_dupes_listed(session):
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.barrier(members=[0, 1, 2, 1])

    with pytest.raises(ProcessFailed, match=r"duplicate.*\[1\]"):
        session.run(program, ranks=[0])


def test_members_validation_applies_to_hierarchical(session):
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.barrier(members=[0, 77], hierarchical=True)

    with pytest.raises(ProcessFailed, match="out of range"):
        session.run(program, ranks=[0])


def test_members_caller_not_in_group_raises(session):
    from repro.sim.errors import ProcessFailed

    def program(comm):
        yield from comm.barrier(members=[1, 2])

    with pytest.raises(ProcessFailed, match="outside the collective group"):
        session.run(program, ranks=[0])
