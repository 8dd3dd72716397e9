"""Tests for the distributed CG solver."""

import numpy as np
import pytest

from repro.apps.cg import CGConfig, cg_reference, run_cg
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_onchip_bitwise_matches_reference(session):
    config = CGConfig(n=24, iterations=12, nranks=4)
    x, rs = run_cg(session, config)
    x_ref, rs_ref = cg_reference(config)
    assert np.array_equal(x, x_ref)
    assert rs == rs_ref


def test_single_rank(session):
    config = CGConfig(n=16, iterations=8, nranks=1)
    x, rs = run_cg(session, config)
    x_ref, rs_ref = cg_reference(config)
    assert np.array_equal(x, x_ref)


def test_cross_device_matches(session):
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    config = CGConfig(n=60, iterations=6, nranks=50)
    x, rs = run_cg(system, config)
    x_ref, rs_ref = cg_reference(config)
    assert np.array_equal(x, x_ref)


def test_cg_converges(session):
    config = CGConfig(n=20, iterations=70, nranks=4)
    x, rs = run_cg(session, config)
    # residual shrinks dramatically and the solution satisfies A x = b
    from repro.apps.cg import _laplacian_apply, _rhs

    b = _rhs(config)
    zero = np.zeros(config.n)
    ax = _laplacian_apply(x, zero, zero)
    assert rs < 1e-12
    assert np.allclose(ax, b, atol=1e-6)


def test_uneven_rows(session):
    config = CGConfig(n=19, iterations=5, nranks=4)
    x, _rs = run_cg(session, config)
    x_ref, _ = cg_reference(config)
    assert np.array_equal(x, x_ref)


def test_config_validation():
    with pytest.raises(ValueError):
        CGConfig(n=2, nranks=4)


def test_cross_device_hierarchical_matches_grouped_reference():
    """A hierarchical CG run is bit-identical to the serial reference
    replaying the two-level (per-device, then leaders) fold order."""
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    config = CGConfig(n=60, iterations=6, nranks=50, hierarchical=True)
    members = list(range(50))
    groups = [
        [members.index(r) for r in sub]
        for sub in system.topology.device_groups(members).values()
    ]
    x, rs = run_cg(system, config)
    x_ref, rs_ref = cg_reference(config, groups=groups)
    assert np.array_equal(x, x_ref)
    assert rs == rs_ref


def test_hierarchical_on_one_device_matches_flat_reference(session):
    """With every rank on one device the two-level fold degenerates to
    the flat binomial order — the ungrouped reference still matches."""
    config = CGConfig(n=24, iterations=12, nranks=4, hierarchical=True)
    x, rs = run_cg(session, config)
    x_ref, rs_ref = cg_reference(config)
    assert np.array_equal(x, x_ref)
    assert rs == rs_ref
