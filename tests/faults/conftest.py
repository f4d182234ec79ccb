"""Shared fixtures and helpers for the fault-injection suite."""

from __future__ import annotations

import math

import pytest

from repro.channels.presets import paper_satellite_fso
from repro.engine.budgets import LinkBudgetTable
from repro.network.links import LinkPolicy
from repro.network.simulator import NetworkSimulator, RequestOutcome
from repro.network.topology import attach_satellites, build_qntn_ground_network


@pytest.fixture(scope="session")
def fso_model():
    """Calibrated paper satellite FSO channel model."""
    return paper_satellite_fso()


@pytest.fixture(scope="session")
def policy():
    """Default link admission policy (matches the simulators' default)."""
    return LinkPolicy()


@pytest.fixture(scope="session")
def healthy_table(small_ephemeris, sites, fso_model, policy) -> LinkBudgetTable:
    """Unfaulted budget table over the small fixture, shared read-only."""
    return LinkBudgetTable(small_ephemeris, sites, fso_model, policy=policy)


def make_sat_simulator(ephemeris, *, faults=None, use_cache=False) -> NetworkSimulator:
    """Fresh space-ground simulator over ``ephemeris`` with optional faults."""
    network = build_qntn_ground_network()
    attach_satellites(network, ephemeris, paper_satellite_fso())
    return NetworkSimulator(network, faults=faults, use_cache=use_cache)


def outcomes_equal(a: RequestOutcome, b: RequestOutcome) -> bool:
    """Field-wise outcome equality treating NaN fidelity as equal.

    Dataclass ``==`` is useless for denied outcomes: their fidelity is
    NaN and ``nan != nan``.
    """
    if (a.source, a.destination, a.t_s, a.served, a.path) != (
        b.source,
        b.destination,
        b.t_s,
        b.served,
        b.path,
    ):
        return False
    if a.path_eta != b.path_eta:
        return False
    if math.isnan(a.fidelity) and math.isnan(b.fidelity):
        return True
    return a.fidelity == b.fidelity
