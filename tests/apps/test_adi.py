"""Tests for the real-numerics ADI solver (BT communication structure)."""

import numpy as np
import pytest

from repro.apps.npb import BTBenchmark, BTClass, adi_reference, initial_condition
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def assemble(bench, results):
    part = bench.part
    full = np.zeros((part.n,) * 3)
    for _rank, cells in results.items():
        for (x, y, z), arr in cells.items():
            sx, sy, sz = part.slab_start(x), part.slab_start(y), part.slab_start(z)
            full[sx : sx + arr.shape[0], sy : sy + arr.shape[1], sz : sz + arr.shape[2]] = arr
    return full


def run_adi(session, nranks, n, steps):
    bench = BTBenchmark(
        clazz=BTClass("mini", n, steps, 0.01), nranks=nranks, niter=steps, mode="adi"
    )
    results = session.run(bench.program, ranks=range(nranks)).results
    return assemble(bench, results)


def test_single_rank_matches_reference(session):
    full = run_adi(session, 1, 8, 2)
    assert np.array_equal(full, adi_reference(initial_condition(8), 2))


def test_parallel_onchip_bitwise_identical(session):
    full = run_adi(session, 4, 12, 2)
    assert np.array_equal(full, adi_reference(initial_condition(12), 2))


def test_parallel_cross_device_bitwise_identical():
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    full = run_adi(system, 4, 12, 2)
    assert np.array_equal(full, adi_reference(initial_condition(12), 2))


def test_nine_ranks_uneven_slabs(session):
    """p=3 with a grid not divisible by 3 exercises uneven cell shapes."""
    full = run_adi(session, 9, 13, 1)
    assert np.array_equal(full, adi_reference(initial_condition(13), 1))


def test_reference_is_stable_diffusion():
    u0 = initial_condition(10)
    u = adi_reference(u0, 5)
    # implicit diffusion with Dirichlet boundaries contracts the field
    assert np.abs(u).max() < np.abs(u0).max() + 1e-9
    assert u.shape == u0.shape
