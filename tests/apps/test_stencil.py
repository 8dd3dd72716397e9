"""Tests for the Jacobi heat-stencil app."""

import numpy as np
import pytest

from repro.apps.stencil import StencilConfig, jacobi_reference, run_stencil
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_onchip_matches_reference(session):
    config = StencilConfig(nx=24, ny=16, iterations=6, nranks=4)
    grid = run_stencil(session, config)
    assert np.array_equal(grid, jacobi_reference(config))


def test_single_rank(session):
    config = StencilConfig(nx=16, ny=16, iterations=4, nranks=1)
    grid = run_stencil(session, config)
    assert np.array_equal(grid, jacobi_reference(config))


def test_cross_device_matches_reference():
    system = VSCCSystem(num_devices=2, scheme=CommScheme.REMOTE_PUT_WCB)
    config = StencilConfig(nx=60, ny=20, iterations=4, nranks=50)
    grid = run_stencil(system, config)
    assert np.array_equal(grid, jacobi_reference(config))


def test_uneven_rows(session):
    config = StencilConfig(nx=19, ny=12, iterations=3, nranks=4)
    grid = run_stencil(session, config)
    assert np.array_equal(grid, jacobi_reference(config))


def test_config_validation():
    with pytest.raises(ValueError):
        StencilConfig(nx=2, nranks=4)
