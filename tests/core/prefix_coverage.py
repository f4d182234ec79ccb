"""Per-size coverage oracle for ``run_constellation_sweep``."""

from repro.channels.presets import paper_satellite_fso
from repro.core.analysis import SpaceGroundAnalysis
from repro.core.coverage import coverage_from_mask


def prefix_coverage(ephemeris, sizes, sites, *, horizon_s=86400.0):
    """Coverage of each constellation prefix, one analysis per size.

    Each size runs its own :class:`SpaceGroundAnalysis` geometry pass:
    no shared budget table and no cumulative OR over the satellite
    axis, the two things the sweep's prefix coverage relies on.
    """
    results = []
    for n in sizes:
        eph = ephemeris.subset(range(n))
        mask = SpaceGroundAnalysis(eph, sites, paper_satellite_fso()).all_pairs_connected()
        results.append(
            coverage_from_mask(eph.times_s, mask, n_satellites=n, horizon_s=horizon_s)
        )
    return results
