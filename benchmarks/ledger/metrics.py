"""Names of the metrics the ledger emits, and their declarations.

``BENCHMARK.json`` at the repository root declares every metric with its
unit and direction (and, end to end, its regression bound). The code
here names what each run computes; :func:`with_units` refuses a result
whose names differ from the declaration, so the two cannot drift.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .tracer import LAYER_NAMES

__all__ = [
    "BENCHMARK_PATH",
    "DEFAULT_SEED",
    "DEMOTED",
    "END_TO_END",
    "EXTRAS",
    "PER_LAYER",
    "PINS_PATH",
    "ROOT",
    "load_benchmark",
    "with_units",
]

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = Path(__file__).with_name("pins.json")

#: Workload seed when none is given: the seed ``pins.json`` pins outputs at.
DEFAULT_SEED: int = json.loads(PINS_PATH.read_text())["seed"]

#: Untraced runs report these (every workload reports every one).
END_TO_END = ("setup_s", "throughput_rpm", "latency_p50_us", "peak_rss_mb")

#: Ratios, queue and timing detail measured where the work happens.
EXTRAS = (
    "engine.linkstate.route.hit_pct",
    "engine.linkstate.graph.miss_pct",
    "routing.strategies.rescue_pct",
    "network.attribution.denials",
    "serve.server.wait_p50_us",
    "serve.server.wait_p99_us",
    "serve.server.max_queue_depth",
    "ol.generator_lag_p99_us",
    "trace.overhead_pct",
    "trace.closure_pct",
)

#: Metrics meant as end-to-end ones that cannot be: a workload lacks
#: them, their spread exceeds any allowed bound, or they are always 0.
#: Traced runs report them from their untraced reference round.
DEMOTED = ("latency_p99_us", "ol_latency_p50_us", "ol_latency_p99_us", "failed_pct")

#: Traced runs report these.
PER_LAYER = (
    tuple(
        f"{layer}.{suffix}"
        for layer in LAYER_NAMES
        for suffix in ("calls", "self_s", "self_us_per_call")
    )
    + EXTRAS
    + DEMOTED
)


def load_benchmark(path: Path = BENCHMARK_PATH) -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(path.read_text())


def with_units(values: Mapping[str, float], declared: list[dict]) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` in declaration order.

    Raises:
        ValueError: ``values`` names a metric not declared, or misses one.
    """
    names = [entry["name"] for entry in declared]
    if set(values) != set(names):
        raise ValueError(
            f"computed metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(values) - set(names))}, "
            f"missing {sorted(set(names) - set(values))}"
        )
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
