"""Always-on request serving: one engine over the network simulator.

``repro.serve`` turns the repository's offline day-sweeps into a
service. :mod:`repro.serve.engine` defines
:class:`~repro.serve.engine.SimulatorServeEngine` —
``submit(request) -> ServeOutcome`` — over the vectorized link-state
cache (``cached``, production) and the scalar simulator (``direct``,
the test oracle); :mod:`repro.serve.server` is the asyncio front end with per-tenant
bounded admission queues, backpressure/shedding, and latency/queue
telemetry; :mod:`repro.serve.sharded` replays a stream across worker
processes. The differential harness in ``tests/serve/`` pins streaming
outcomes bit-identical to the batch path and ``cached`` to ``direct``,
with and without fault schedules, serial and sharded.

Live operation (DESIGN.md §14): :mod:`repro.serve.http` attaches the
``/metrics`` / ``/healthz`` / ``/readyz`` / ``/status`` observability
endpoints to a running server on the same event loop, and
:mod:`repro.serve.top` renders ``/status`` as the ``repro top``
dashboard. Both read the windowed instruments of
:mod:`repro.obs.live`; SLO alerting over the same instruments lives in
:mod:`repro.obs.slo`.
"""

from repro.serve.engine import (
    ENGINE_KINDS,
    ServeOutcome,
    SimulatorServeEngine,
    build_engine,
    outcomes_equal,
)
from repro.serve.http import ObservabilityServer
from repro.serve.server import ServeServer, ServerConfig, StreamReport
from repro.serve.sharded import serve_stream_sharded

__all__ = [
    "ENGINE_KINDS",
    "ObservabilityServer",
    "ServeOutcome",
    "ServeServer",
    "ServerConfig",
    "SimulatorServeEngine",
    "StreamReport",
    "build_engine",
    "outcomes_equal",
    "serve_stream_sharded",
]
