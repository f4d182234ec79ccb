"""Ablation A5 — vectorized vs scalar kernels (the HPC discipline check).

Times the two propagation/visibility implementations on identical inputs;
the vectorized forms are the ones every experiment runs on, the scalar
forms are the validated references. A correctness cross-check guards the
speed comparison.
"""

import math

import numpy as np
import pytest

from repro.orbits.propagator import TwoBodyPropagator
from repro.orbits.visibility import elevation_and_range, elevation_and_range_scalar
from repro.orbits.walker import qntn_constellation

SITE = (math.radians(36.1757), math.radians(-85.5066), 0.3)


@pytest.fixture(scope="module")
def kernel_inputs():
    elements = qntn_constellation(36)
    times = np.arange(0.0, 7200.0, 60.0)
    propagator = TwoBodyPropagator(elements)
    positions = propagator.positions_eci(times)
    return propagator, times, positions


def test_kernel_propagation_vectorized(benchmark, kernel_inputs):
    propagator, times, _ = kernel_inputs
    out = benchmark(propagator.positions_eci, times)
    assert out.shape == (36, times.size, 3)


def test_kernel_propagation_scalar(benchmark, kernel_inputs):
    propagator, times, _ = kernel_inputs
    out = benchmark.pedantic(
        propagator.positions_eci_scalar, args=(times,), rounds=1, iterations=1
    )
    np.testing.assert_allclose(out, propagator.positions_eci(times), atol=1e-6)


def test_kernel_visibility_vectorized(benchmark, kernel_inputs):
    _, _, positions = kernel_inputs
    az, el, rng = benchmark(elevation_and_range, *SITE, positions)
    assert el.shape == positions.shape[:-1]


def test_kernel_visibility_scalar(benchmark, kernel_inputs):
    _, _, positions = kernel_inputs
    az_s, el_s, rng_s = benchmark.pedantic(
        elevation_and_range_scalar, args=(*SITE, positions), rounds=1, iterations=1
    )
    _, el_v, _ = elevation_and_range(*SITE, positions)
    np.testing.assert_allclose(el_s, el_v, atol=1e-10)


def test_kernel_fso_vectorized(benchmark):
    """The FSO link budget over a full (sats x times) block."""
    from repro.channels.presets import paper_satellite_fso

    model = paper_satellite_fso()
    rng = np.random.default_rng(1)
    slants = rng.uniform(500.0, 1400.0, size=(108, 2880))
    els = rng.uniform(math.radians(10.0), math.pi / 2, size=(108, 2880))
    etas = benchmark(model.transmissivity, slants, els, 500.0)
    assert np.asarray(etas).shape == (108, 2880)
