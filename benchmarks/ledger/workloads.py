"""The ledger's four workloads: inputs, set-up, timed rounds and checks.

Each workload runs in a process of its own, started by
``python -m benchmarks.ledger run``; this module is that process::

    PYTHONPATH=src python -m benchmarks.ledger.workloads \\
        --workload serve-hour --seed 7 --trace 0

It prints one line: the whole result as JSON.

An untraced run repeats *rounds* (a fresh set-up, then the timed
phases) until another round would overrun ``run_seconds`` of
``BENCHMARK.json``. Its set-ups, closed loops and sweeps are timed
under a :class:`.speed.SpeedProbe` and reported at the reference host
speed; ``setup_s`` is the median set-up. A traced run does one untraced
reference round and then one round with every layer wrapped
(:mod:`.tracer`), both with raw times; its timing distributions come
from the reference round, its per-layer calls and self times from the
traced one.

The program only ever sees the generated requests: the seed picks the
request stream (and the fault realization), nothing else.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import csv
import gc
import hashlib
import importlib
import inspect
import json
import math
import resource
import selectors
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.ground_nodes import all_ground_nodes
from repro.faults import load_faults
from repro.network.workload import align_to_grid, lans_from_sites, poisson_request_stream
from repro.obs import git_sha, host_info, live
from repro.obs.trace import DenialCause
from repro.orbits.walker import qntn_constellation
from repro.routing.strategies import StrategyConfig
from repro.serve.server import ServeServer, ServerConfig, StreamReport

from .metrics import DEFAULT_SEED, PER_LAYER, PINS_PATH, ROOT, load_benchmark, with_units
from .speed import SpeedProbe
from .stats import UnsupportedPercentile, percentile
from .tracer import IDLE_LAYER, Tracer

# Called through their modules, so the tracer's wrappers on these
# modules' globals apply.
_ephemeris = importlib.import_module("repro.orbits.ephemeris")
_engine = importlib.import_module("repro.serve.engine")
_sweeps = importlib.import_module("repro.core.sweeps")

DAY_S = 86400.0
STEP_S = 30.0
N_SATELLITES = 108
QUEUE_DEPTH = 4096
#: The closed loop is cut into this many blocks of consecutive requests,
#: each scaled to the reference speed by the probe samples taken in it.
BLOCKS = 32
#: Set-ups per run at least; ``setup_s`` is their median.
MIN_SETUPS = 5
#: Set-ups also go on until they add up to this share of the run length,
#: so a cheap set-up is timed many times.
SETUP_SHARE = 0.1
#: Requests re-served through the ``direct`` oracle engine per run.
N_ORACLE = 16
#: sweep-day cycles its request seeds through seed .. seed + 4.
SWEEP_SEEDS = 5
#: Request seed of the committed Figs. 7-8 CSVs: the sweep's default.
FIGURES_SEED = inspect.signature(_sweeps.run_constellation_sweep).parameters["seed"].default
#: asyncio's timed sleeps last at least ~1 ms, so the open-loop
#: generator sleeps only until this close to a due time.
SPIN_S = 0.002
#: Delay from the open-loop start to the first due time.
LEAD_S = 0.01

RESULTS = ROOT / "benchmarks" / "results"
FAULTS_PATH = RESULTS / "example_faults.json"
FIGURE_CSVS = {
    "coverage": RESULTS / "fig6_coverage_vs_satellites.csv",
    "served": RESULTS / "fig7_served_requests_vs_satellites.csv",
    "fidelity": RESULTS / "fig8_fidelity_vs_satellites.csv",
}

_CAUSES = frozenset(c.value for c in DenialCause)


@dataclass(frozen=True)
class ServeWorkload:
    """A request stream replayed through ``ServeServer`` over the cached engine.

    Attributes:
        name: workload name in ``BENCHMARK.json``.
        n_samples: leading samples of the 30 s day grid served.
        rate_hz: Poisson arrival rate in simulated time.
        attribute_denials: engine computes a cause for every denial.
        strategy: multipath router, or ``None`` for ``shortest``.
        faults: realize ``example_faults.json`` with the workload seed.
        open_loop_requests: stream head offered open loop (0 = none).
        open_loop_rate_hz: wall-clock rate the head is offered at.
    """

    name: str
    n_samples: int
    rate_hz: float
    attribute_denials: bool = False
    strategy: StrategyConfig | None = None
    faults: bool = False
    open_loop_requests: int = 0
    open_loop_rate_hz: float = 0.0


@dataclass(frozen=True)
class SweepWorkload:
    """Serial ``run_constellation_sweep`` over one day ephemeris."""

    name: str


WORKLOADS: dict[str, ServeWorkload | SweepWorkload] = {
    "serve-hour": ServeWorkload(
        "serve-hour", 120, 48.0, open_loop_requests=40_000, open_loop_rate_hz=10_000.0
    ),
    "serve-day-cold": ServeWorkload("serve-day-cold", 2880, 0.25),
    "serve-denials": ServeWorkload(
        "serve-denials",
        120,
        0.3,
        attribute_denials=True,
        strategy=StrategyConfig(router="k-shortest", k=2, memory_slots=4),
        faults=True,
    ),
    "sweep-day": SweepWorkload("sweep-day"),
}


# --- shared helpers -----------------------------------------------------------


class _Failures(list):
    """Failed correctness gates, one message each."""

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _in_phase(tracer: Tracer | None, root: str, fn: Callable, *args):
    return fn(*args) if tracer is None else tracer.phase(root, fn, *args)


def _timed(probe: SpeedProbe | None, fn: Callable, *args) -> tuple[object, float]:
    """``fn(*args)`` and its duration: at the reference speed under a
    probe, raw without one."""
    if probe is not None:
        return probe.time(fn, *args)
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _run_async(coro, selector: selectors.BaseSelector):
    with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(selector)) as runner:
        return runner.run(coro)


def _repeat(one_round: Callable[[int], dict], seconds: float) -> list[dict]:
    """Rounds until another one would overrun ``seconds`` (at least one)."""
    deadline = time.perf_counter() + seconds
    rounds: list[dict] = []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return rounds


def _traced(one_round: Callable[[Tracer], dict], observers=None):
    """``one_round`` with every layer wrapped; returns (tracer, result, wall)."""
    tracer = Tracer()
    gc.collect()
    with tracer.installed(observers):
        t0 = time.perf_counter()
        result = one_round(tracer)
        wall_s = time.perf_counter() - t0
    return tracer, result, wall_s


def _set_up_times(
    rounds: list[dict], set_up: Callable[[], object], seconds: float, probe: SpeedProbe
) -> list[float]:
    """Each round's set-up time, then more set-ups (each dropped before
    the next starts) until there are :data:`MIN_SETUPS` and they add up
    to :data:`SETUP_SHARE` of ``seconds``."""
    times = [r["setup_s"] for r in rounds]
    while len(times) < MIN_SETUPS or math.fsum(times) < SETUP_SHARE * seconds:
        times.append(probe.time(set_up)[1])
    return times


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _us(samples: list[float], q: float) -> float:
    """``q``-th percentile in µs; 0 when the sample cannot support it."""
    try:
        return 1e6 * percentile(samples, q)
    except UnsupportedPercentile:
        return 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_detail(probe: SpeedProbe) -> dict:
    """How many probe samples the run took and their overall scale
    (``null`` in a traced run, which takes none)."""
    n = len(probe.samples)
    return {"probe_samples": n, "host_scale": probe.overall_scale() if n else None}


def _day_ephemeris():
    return _ephemeris.generate_movement_sheet(
        qntn_constellation(N_SATELLITES), duration_s=DAY_S, step_s=STEP_S
    )


# --- serve workloads: inputs and set-up ---------------------------------------


@dataclass(frozen=True)
class ServeInputs:
    """What the seed generates for a serve workload.

    Attributes:
        stream: grid-aligned request records, ids ``0 .. n-1``.
        offsets: open-loop send offsets [s] of the stream's head: the
            Poisson gaps rescaled to the offered rate.
        faults: realized fault schedule, or ``None``.
    """

    stream: tuple
    offsets: tuple[float, ...]
    faults: object


def serve_inputs(w: ServeWorkload, seed: int) -> ServeInputs:
    times = _ephemeris.movement_sheet_times(DAY_S, STEP_S)[: w.n_samples]
    raw = poisson_request_stream(
        lans_from_sites(all_ground_nodes()),
        rate_hz=w.rate_hz,
        duration_s=float(times[-1]),
        seed=seed,
    )
    head = raw[: w.open_loop_requests]
    scale = w.rate_hz / w.open_loop_rate_hz if head else 0.0
    offsets = tuple((r.t_s - head[0].t_s) * scale for r in head)
    faults = (
        load_faults(FAULTS_PATH).realize(seed=seed, horizon_s=DAY_S) if w.faults else None
    )
    return ServeInputs(align_to_grid(raw, times), offsets, faults)


def _serve_ephemeris(w: ServeWorkload):
    eph = _day_ephemeris()
    return eph if w.n_samples == eph.n_samples else eph.at_time_indices(range(w.n_samples))


def _engine_for(w: ServeWorkload, ephemeris, inputs: ServeInputs, kind: str = "cached"):
    return _engine.build_engine(
        kind,
        ephemeris,
        faults=inputs.faults,
        attribute_denials=w.attribute_denials,
        strategy=w.strategy,
    )


def _warm_engine(w: ServeWorkload, ephemeris, inputs: ServeInputs):
    """A fresh engine that has served the stream's first request."""
    engine = _engine_for(w, ephemeris, inputs)
    first = inputs.stream[0]
    engine.advance_to(first.t_s)
    engine.submit(first)
    return engine


def _set_up(w: ServeWorkload, inputs: ServeInputs):
    """Ephemeris, engine and first outcome: the wait before serving."""
    ephemeris = _serve_ephemeris(w)
    return ephemeris, _warm_engine(w, ephemeris, inputs)


# --- serve workloads: the timed phases ----------------------------------------


def _pulled(stream, pulls: list[float]):
    """``stream``, noting when the server pulls each request."""
    clock = time.perf_counter
    for request in stream:
        pulls.append(clock())
        yield request


def _closed_loop(
    engine, stream, probe: SpeedProbe | None
) -> tuple[StreamReport, list[float], list[float]]:
    """Replay ``stream``; the report, each request's response time and
    each of the :data:`BLOCKS` blocks' time [s].

    The server pulls request ``i + 1`` only once request ``i`` is
    answered, so the gap between pulls is the response time the client
    sees: submission, queueing, service and the switch back. Under a
    probe, each block's times are scaled to the reference speed by the
    samples taken in it, and a block's time leaves out the probe's.
    """
    server = ServeServer(engine, config=ServerConfig(queue_depth=QUEUE_DEPTH))
    pulls: list[float] = []
    with probe.sampling() if probe is not None else contextlib.nullcontext():
        # The loop never waits here (a request is always ready), so its
        # selector polls are asyncio overhead, charged to serve.server.
        report = _run_async(server.run(_pulled(stream, pulls)), selectors.DefaultSelector())
        pulls.append(time.perf_counter())
    bounds = np.linspace(0, len(stream), BLOCKS + 1).round().astype(int).tolist()
    response_s: list[float] = []
    block_s: list[float] = []
    for a, b in zip(bounds, bounds[1:]):
        t0, t1 = pulls[a], pulls[b]
        if probe is None:
            scale = 1.0
            block_s.append(t1 - t0)
        else:
            scale = probe.scale(t0, t1)
            block_s.append(probe.at_reference(t0, t1))
        response_s.extend(scale * (y - x) for x, y in zip(pulls[a:b], pulls[a + 1 : b + 1]))
    return report, response_s, block_s


class _EngineProbe:
    """Engine proxy noting when each request's engine work starts and ends.

    ``ServeServer`` calls ``advance_to`` then ``submit`` per request, so
    the start is the ``advance_to`` call. Other attributes pass through.
    """

    def __init__(self, engine, n: int) -> None:
        self.engine = engine
        self.start = [0.0] * n
        self.end = [0.0] * n
        #: Requests the engine has finished.
        self.done = 0
        self._began = 0.0

    def __getattr__(self, name: str):
        return getattr(self.engine, name)

    def advance_to(self, t_s: float) -> None:
        self._began = time.perf_counter()
        self.engine.advance_to(t_s)

    def submit(self, request):
        outcome = self.engine.submit(request)
        self.start[request.request_id] = self._began
        self.end[request.request_id] = time.perf_counter()
        self.done += 1
        return outcome


def _spin_until(due: float) -> None:
    """Busy-wait to ``due`` (nothing is queued, so nothing needs the loop)."""
    clock = time.perf_counter
    while clock() < due:
        pass


async def _offer(
    server: ServeServer, probe: _EngineProbe, requests, offsets, spin: Callable
) -> tuple[float, list[float]]:
    """Submit each request when due, whatever the server's backlog.

    Far from a due time the generator sleeps. Within :data:`SPIN_S` it
    yields with ``sleep(0)`` while requests are queued and busy-waits
    when none are: a timed sleep would overshoot by up to a millisecond.
    """
    clock = time.perf_counter
    sent = [0.0] * len(requests)
    server.start()
    base = clock() + LEAD_S
    for i, request in enumerate(requests):
        due = base + offsets[i]
        while (delay := due - clock()) > 0:
            if delay > SPIN_S:
                await asyncio.sleep(delay - SPIN_S)
            elif probe.done < i:
                await asyncio.sleep(0)
            else:
                spin(due)
        sent[i] = clock()
        await server.submit(request)
    await server.drain()
    return base, sent


@dataclass(frozen=True)
class OpenLoop:
    """One open-loop phase: the server's report and, per request, the
    seconds from its due time to its send, engine start and engine end."""

    report: StreamReport
    lag_s: list[float]
    wait_s: list[float]
    latency_s: list[float]


def _open_loop(engine, requests, offsets, tracer: Tracer | None) -> OpenLoop:
    probe = _EngineProbe(engine, len(requests))
    server = ServeServer(probe, config=ServerConfig(queue_depth=QUEUE_DEPTH))
    if tracer is None:
        selector, spin = selectors.DefaultSelector(), _spin_until
    else:
        selector, spin = tracer.selector(), tracer.wrap(IDLE_LAYER, _spin_until)
    # The live plane records, as under `repro serve --http-port`.
    previous = live.force(True)
    try:
        t0 = time.perf_counter()
        base, sent = _run_async(_offer(server, probe, requests, offsets, spin), selector)
        wall_s = time.perf_counter() - t0
    finally:
        live.force(previous)
    due = [base + offset for offset in offsets]
    return OpenLoop(
        server.report(wall_s=wall_s),
        [s - d for s, d in zip(sent, due)],
        [s - d for s, d in zip(probe.start, due)],
        [e - d for e, d in zip(probe.end, due)],
    )


def _serve_round(
    w: ServeWorkload,
    inputs: ServeInputs,
    gate: "_ServeGate",
    tracer: Tracer | None,
    probe: SpeedProbe | None = None,
) -> dict:
    """Set-up, closed loop and (serve-hour) open loop; returns the summary.

    The probe, given only in untraced runs, times the set-up and the
    closed loop; the open loop runs on its own schedule without it.
    Each phase's outputs are gated and dropped before the next phase,
    and garbage is collected before each timed phase, so no phase pays
    a collection over the previous phase's outcomes.
    """
    (ephemeris, engine), setup_s = _timed(
        probe, _in_phase, tracer, "bench.glue", _set_up, w, inputs
    )
    _in_phase(tracer, "bench.glue", gc.collect)
    closed = _in_phase(
        tracer, "serve.server", _closed_loop, engine, inputs.stream, probe
    )
    summary = {
        "setup_s": setup_s,
        **_in_phase(tracer, "bench.glue", gate.closed, *closed),
    }
    del closed, engine
    if w.open_loop_requests:
        engine = _in_phase(tracer, "bench.glue", _warm_engine, w, ephemeris, inputs)
        _in_phase(tracer, "bench.glue", gc.collect)
        head = inputs.stream[: w.open_loop_requests]
        opened = _in_phase(
            tracer, "serve.server", _open_loop, engine, head, inputs.offsets, tracer
        )
        summary["open_loop"] = _in_phase(tracer, "bench.glue", gate.open, opened)
    return summary


def _requests_and_failed(summary: dict) -> tuple[int, int]:
    ol = summary.get("open_loop", {})
    return (
        summary["requests"] + ol.get("requests", 0),
        summary["failed"] + ol.get("failed", 0),
    )


def _timing_detail(summary: dict) -> dict[str, float]:
    """The per-layer metrics that come from an untraced round."""
    ol = summary.get("open_loop", {})
    requests, failed = _requests_and_failed(summary)
    return {
        "latency_p99_us": summary["latency_p99_us"],
        "ol_latency_p50_us": ol.get("latency_p50_us", 0.0),
        "ol_latency_p99_us": ol.get("latency_p99_us", 0.0),
        "failed_pct": _pct(failed, requests),
        "serve.server.wait_p50_us": ol.get("wait_p50_us", 0.0),
        "serve.server.wait_p99_us": ol.get("wait_p99_us", 0.0),
        "serve.server.max_queue_depth": max(
            summary["max_queue_depth"], ol.get("max_queue_depth", 0)
        ),
        "ol.generator_lag_p99_us": ol.get("generator_lag_p99_us", 0.0),
    }


# --- serve workloads: correctness gates ---------------------------------------


def outcome_pin(outcomes) -> dict:
    """Digest of the discrete outcome fields, plus sums of eta and fidelity."""
    digest = hashlib.sha256()
    etas: list[float] = []
    fidelities: list[float] = []
    for o in outcomes:
        digest.update(
            f"{o.request_id} {o.served:d} {'>'.join(o.path)} {o.cause} "
            f"{o.n_paths} {o.purified:d}\n".encode()
        )
        if o.served:
            etas.append(o.path_eta)
            fidelities.append(o.fidelity)
    return {
        "n": len(outcomes),
        "digest": digest.hexdigest(),
        "eta_sum": math.fsum(etas),
        "fidelity_sum": math.fsum(fidelities),
    }


def _causes_ok(outcomes, attributed: bool) -> bool:
    """Served outcomes carry no cause; every cause is a ``DenialCause``."""
    for o in outcomes:
        if o.served:
            if o.cause is not None:
                return False
        elif o.cause is None:
            if attributed:
                return False
        elif o.cause not in _CAUSES:
            return False
    return True


def _same_physics(a, b) -> bool:
    """Discrete fields equal; eta and fidelity equal to 1e-12."""
    if (a.served, a.path, a.cause, a.n_paths, a.purified) != (
        b.served, b.path, b.cause, b.n_paths, b.purified
    ):
        return False
    if not math.isclose(a.path_eta, b.path_eta, rel_tol=1e-12, abs_tol=1e-15):
        return False
    if math.isnan(a.fidelity) or math.isnan(b.fidelity):
        return math.isnan(a.fidelity) and math.isnan(b.fidelity)
    return math.isclose(a.fidelity, b.fidelity, rel_tol=1e-12, abs_tol=1e-15)


class _ServeGate:
    """Correctness gates over every phase of one serve run; each gate
    also reduces its phase to the numbers the run keeps."""

    def __init__(self, w: ServeWorkload, seed: int, inputs: ServeInputs) -> None:
        self.w = w
        self.seed = seed
        self.inputs = inputs
        self.failures = _Failures()
        #: The first closed loop's outcome pin; later rounds must match.
        self.pin: dict | None = None
        # The closed-loop answers the open loop must reproduce.
        self._head: tuple = ()

    def closed(
        self, report: StreamReport, response_s: list[float], block_s: list[float]
    ) -> dict:
        expect = self.failures.expect
        expect(
            report.accounting_ok
            and report.n_submitted == len(self.inputs.stream) == len(report.outcomes),
            "closed loop: accounting invariant broken",
        )
        expect(
            report.n_shed == 0 and report.n_cancelled == 0,
            f"closed loop: {report.n_shed} shed, {report.n_cancelled} cancelled",
        )
        expect(
            _causes_ok(report.outcomes, self.w.attribute_denials),
            "closed loop: a denial cause is missing or not a DenialCause",
        )
        self._head = report.outcomes[: self.w.open_loop_requests]
        pin = outcome_pin(report.outcomes)
        if self.pin is not None:
            expect(pin == self.pin, "outcomes differ between rounds")
        else:
            self.pin = pin
            self._check_pins(pin)
            if self.w.strategy is None:
                bad = self._oracle_mismatches(report.outcomes)
                expect(bad == 0, f"{bad} of {N_ORACLE} requests differ from the direct oracle")
        # The median over served requests: on serve-denials nearly half
        # the requests take the slow denial path, which would put an
        # all-request median on the edge between two clusters.
        served_s = [t for t, o in zip(response_s, report.outcomes) if o.served]
        closed_s = math.fsum(block_s)
        return {
            "requests": report.n_submitted,
            "wall_s": report.wall_s,
            "closed_s": closed_s,
            "throughput_rpm": 60.0 * report.n_submitted / closed_s,
            "latency_p50_us": 1e6 * statistics.median(served_s),
            "latency_samples": len(served_s),
            "latency_p99_us": _us(response_s, 99),
            "served": report.n_served,
            "denied": report.n_denied,
            "failed": report.n_shed + report.n_cancelled,
            "max_queue_depth": report.max_queue_depth,
            "causes": dict(sorted(report.cause_counts.items())),
        }

    def open(self, ol: OpenLoop) -> dict:
        report = ol.report
        self.failures.expect(report.accounting_ok, "open loop: accounting invariant broken")
        self.failures.expect(
            all(
                _engine.outcomes_equal(a, b)
                for a, b in zip(report.outcomes, self._head)
                if a.cause != DenialCause.QUEUE_FULL.value
            ),
            "open loop: outcomes differ from the closed loop",
        )
        self._head = ()
        return {
            "requests": report.n_submitted,
            "wall_s": report.wall_s,
            "latency_p50_us": _us(ol.latency_s, 50),
            "latency_p99_us": _us(ol.latency_s, 99),
            "wait_p50_us": _us(ol.wait_s, 50),
            "wait_p99_us": _us(ol.wait_s, 99),
            "generator_lag_p99_us": _us(ol.lag_s, 99),
            "denied": report.n_denied,
            "failed": report.n_shed + report.n_cancelled,
            "max_queue_depth": report.max_queue_depth,
        }

    def _check_pins(self, pin: dict) -> None:
        pins = json.loads(PINS_PATH.read_text())
        want = pins["workloads"].get(self.w.name)
        if self.seed != pins["seed"] or want is None:
            return
        self.failures.expect(
            (pin["n"], pin["digest"]) == (want["n"], want["digest"]),
            f"outcome digest differs from pins.json at seed {self.seed}",
        )
        for key in ("eta_sum", "fidelity_sum"):
            self.failures.expect(
                math.isclose(pin[key], want[key], rel_tol=1e-9, abs_tol=0.0),
                f"{key} {pin[key]!r} differs from pins.json {want[key]!r}",
            )

    def _oracle_mismatches(self, outcomes) -> int:
        """Re-serve evenly spaced requests through the ``direct`` engine."""
        w, inputs = self.w, self.inputs
        oracle = _engine_for(w, _serve_ephemeris(w), inputs, kind="direct")
        picks = np.linspace(0, len(inputs.stream) - 1, N_ORACLE).round().astype(int)
        mismatches = 0
        for i in sorted(set(picks.tolist())):
            request = inputs.stream[i]
            oracle.advance_to(request.t_s)
            mismatches += not _same_physics(oracle.submit(request), outcomes[i])
        return mismatches


# --- serve workloads: runs ----------------------------------------------------


def _run_serve(w: ServeWorkload, seed: int, seconds: float, traced: bool) -> dict:
    inputs = serve_inputs(w, seed)
    gate = _ServeGate(w, seed, inputs)
    probe = SpeedProbe()
    if not traced:
        rounds = _repeat(lambda _: _serve_round(w, inputs, gate, None, probe), seconds)
        set_ups = _set_up_times(rounds, lambda: _set_up(w, inputs), seconds, probe)
        values = {
            "setup_s": statistics.median(set_ups),
            "throughput_rpm": 60.0
            * sum(r["requests"] for r in rounds)
            / math.fsum(r["closed_s"] for r in rounds),
            "latency_p50_us": statistics.median(r["latency_p50_us"] for r in rounds),
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        gc.collect()
        reference = _serve_round(w, inputs, gate, None)
        caches: list = []
        graph_keys: set = set()
        plans_served: list[bool] = []
        observers = {
            "engine.linkstate.build": lambda args, _: caches.append(args[0]),
            "engine.linkstate.graph": lambda args, _: graph_keys.add((id(args[0]), args[1])),
            "routing.strategies.plan": lambda _, plan: plans_served.append(plan.served),
        }
        tracer, traced_round, wall_s = _traced(
            lambda t: _serve_round(w, inputs, gate, t), observers
        )
        rounds = [reference, traced_round]
        set_ups = [r["setup_s"] for r in rounds]
        hits = sum(c.n_tree_hits for c in caches)
        builds = sum(c.n_tree_builds for c in caches)
        values = {
            **tracer.ledger(),
            **_timing_detail(reference),
            "engine.linkstate.route.hit_pct": _pct(hits, hits + builds),
            "engine.linkstate.graph.miss_pct": _pct(
                len(graph_keys), tracer.calls("engine.linkstate.graph")
            ),
            "routing.strategies.rescue_pct": _pct(sum(plans_served), len(plans_served)),
            "network.attribution.denials": traced_round["denied"]
            + traced_round.get("open_loop", {}).get("denied", 0),
            "trace.overhead_pct": 100.0 * (traced_round["wall_s"] / reference["wall_s"] - 1.0),
            "trace.closure_pct": _pct(tracer.total_self_s(), wall_s),
        }
    totals = [_requests_and_failed(r) for r in rounds]
    return {
        "values": values,
        "attempted": sum(t[0] for t in totals),
        "failed": sum(t[1] for t in totals),
        "failures": list(gate.failures),
        "detail": {
            "requests_per_round": len(inputs.stream),
            "set_ups_s": set_ups,
            "rounds": rounds,
            "outcome_pin": gate.pin,
            **_probe_detail(probe),
            **_timing_detail(rounds[0]),
        },
    }


# --- sweep-day ----------------------------------------------------------------


def _figure_series() -> dict[str, list[float]]:
    """The committed Figs. 6-8 series, in size order."""
    series = {}
    for key, path in FIGURE_CSVS.items():
        with path.open() as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        series[key] = [float(row[1]) for row in rows[1:]]
    return series


def _sweep(ephemeris, request_seed: int):
    return _sweeps.run_constellation_sweep(ephemeris=ephemeris, seed=request_seed)


def _run_sweep(w: SweepWorkload, seed: int, seconds: float, traced: bool) -> dict:
    figures = _figure_series()
    failures = _Failures()
    by_seed: dict[int, tuple] = {}

    def gated(request_seed: int, result, sweep_s: float) -> dict:
        failures.expect(
            result.coverage_percentages == figures["coverage"],
            "coverage differs from the committed Fig. 6 CSV",
        )
        outputs = (tuple(result.served_percentages), tuple(result.mean_fidelities))
        if request_seed == FIGURES_SEED:
            failures.expect(
                outputs == (tuple(figures["served"]), tuple(figures["fidelity"])),
                f"request seed {FIGURES_SEED}: served or fidelity differs from Figs. 7-8 CSVs",
            )
        failures.expect(
            by_seed.setdefault(request_seed, outputs) == outputs,
            f"request seed {request_seed}: sweeps disagree",
        )
        point = result.points[0].service
        return {
            "request_seed": request_seed,
            "sweep_s": sweep_s,
            "evaluations": len(result.points) * point.n_requests * point.n_time_steps,
            "served_pct_at_108": result.served_percentages[-1],
        }

    def sweep_round(i: int, tracer: Tracer | None, probe: SpeedProbe | None = None) -> dict:
        """A fresh day ephemeris (the set-up), then one gated sweep."""
        request_seed = seed + i % SWEEP_SEEDS
        ephemeris, setup_s = _timed(probe, _in_phase, tracer, "bench.glue", _day_ephemeris)
        result, sweep_s = _timed(
            probe, _in_phase, tracer, "bench.glue", _sweep, ephemeris, request_seed
        )
        return {
            "setup_s": setup_s,
            **_in_phase(tracer, "bench.glue", gated, request_seed, result, sweep_s),
        }

    probe = SpeedProbe()
    if not traced:
        rounds = _repeat(lambda i: sweep_round(i, None, probe), seconds)
        set_ups = _set_up_times(rounds, _day_ephemeris, seconds, probe)
        sweep_s = statistics.median(r["sweep_s"] for r in rounds)
        values = {
            "setup_s": statistics.median(set_ups),
            "throughput_rpm": 60.0 * rounds[0]["evaluations"] / sweep_s,
            "latency_p50_us": 1e6 * sweep_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        gc.collect()
        reference = sweep_round(0, None)
        tracer, traced_round, wall_s = _traced(lambda t: sweep_round(0, t))
        rounds = [reference, traced_round]
        set_ups = [r["setup_s"] for r in rounds]
        values = {
            **tracer.ledger(),
            "trace.overhead_pct": 100.0 * (traced_round["sweep_s"] / reference["sweep_s"] - 1.0),
            "trace.closure_pct": _pct(tracer.total_self_s(), wall_s),
        }
    return {
        "values": values,
        "attempted": sum(r["evaluations"] for r in rounds),
        "failed": 0,
        "failures": list(failures),
        "detail": {"set_ups_s": set_ups, "rounds": rounds, **_probe_detail(probe)},
    }


# --- entry point --------------------------------------------------------------


def run(
    name: str,
    *,
    seed: int = DEFAULT_SEED,
    seconds: float,
    traced: bool = False,
    workload: ServeWorkload | SweepWorkload | None = None,
) -> dict:
    """Run one workload; the result carries its declared metrics.

    Args:
        name: a key of :data:`WORKLOADS` (or the name of ``workload``).
        seed: request-stream (and fault-realization) seed.
        seconds: untraced runs stop starting rounds after this long.
        traced: report the per-layer ledger instead of end-to-end metrics.
        workload: run this spec instead of ``WORKLOADS[name]``.
    """
    w = workload or WORKLOADS[name]
    runner = _run_serve if isinstance(w, ServeWorkload) else _run_sweep
    out = runner(w, seed, seconds, traced)
    values = out.pop("values")
    if traced:
        # A layer or phase the workload lacks reads 0.
        values = {**dict.fromkeys(PER_LAYER, 0.0), **values}
    declared = load_benchmark()["per_layer" if traced else "end_to_end"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "sha": git_sha(ROOT),
        "host": host_info(),
        "correct": not out["failures"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failures": out["failures"],
        "metrics": with_units(values, declared),
        "detail": out["detail"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(
        args.workload,
        seed=args.seed,
        seconds=load_benchmark()["run_seconds"],
        traced=bool(args.trace),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
