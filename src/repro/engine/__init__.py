"""Vectorized link-state engine.

The object-level :class:`~repro.network.simulator.NetworkSimulator`
evaluates one channel per Python call, which is exact but loop-bound.
This package holds the array engine underneath the paper-scale sweeps:

* :mod:`repro.engine.budgets` — per-site link budgets over the
  ``(n_platforms, n_times)`` grid, computed in one NumPy pass as records
  of the points a site can see, shared between the coverage and service
  analyses.
* :mod:`repro.engine.linkstate` — :class:`LinkStateCache`, the
  time-indexed link-graph and routing-table cache behind the
  simulator's ``use_cache=True`` flag.
* :mod:`repro.engine.store` — :class:`ArtifactStore`, the
  content-addressed on-disk cache that persists ephemerides and
  site budgets across runs (``.npz`` + JSON sidecar keyed by a
  SHA-256 digest of the exact inputs).

The direct scalar path stays available everywhere as the test oracle;
``tests/engine/`` pins cached and direct results against each other.
"""

from repro.engine.budgets import LinkBudgetTable, SiteLinkBudget, compute_site_budget
from repro.engine.linkstate import LinkStateCache
from repro.engine.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    StoreStats,
    default_store,
    set_default_store,
)

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactStore",
    "LinkBudgetTable",
    "LinkStateCache",
    "SiteLinkBudget",
    "StoreStats",
    "compute_site_budget",
    "default_store",
    "set_default_store",
]
