"""Shared utilities: validation, seeding, interval algebra.

These helpers are deliberately dependency-light so every subsystem can use
them without import cycles.
"""

from repro.utils.intervals import (
    Interval,
    IntervalSet,
    intervals_from_mask,
    merge_intervals,
    total_duration,
)
from repro.utils.seeding import SeedSequenceFactory, as_generator, spawn_generators
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_probability,
    check_shape,
    check_unit_interval,
)

__all__ = [
    "Interval",
    "IntervalSet",
    "intervals_from_mask",
    "merge_intervals",
    "total_duration",
    "SeedSequenceFactory",
    "as_generator",
    "spawn_generators",
    "check_finite",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_shape",
    "check_unit_interval",
]
