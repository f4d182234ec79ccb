"""Tests of the layer ledger benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import re
import signal
import time

import pytest

from benchmarks.ledger import metrics, stats
from benchmarks.ledger.__main__ import main
from benchmarks.ledger.compare import compare, verdict
from benchmarks.ledger.speed import REFERENCE_S, SpeedProbe
from benchmarks.ledger.tracer import LAYERS, Tracer, resolve
from benchmarks.ledger.workloads import WORKLOADS, ServeWorkload, run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Four grid samples at 12 Hz: ~1080 requests, enough for a p99, plus a
#: short open-loop phase — every serve code path in a few seconds.
TINY = ServeWorkload(
    "tiny",
    n_samples=4,
    rate_hz=12.0,
    open_loop_requests=300,
    open_loop_rate_hz=3000.0,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _bound_functions() -> dict:
    return {
        target: vars(resolve(target))[target.attr]
        for targets in LAYERS.values()
        for target in targets
    }


def test_self_time_on_a_synthetic_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("routing.path", lambda: clock.advance(2.0))

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)

    middle = tracer.wrap("network.simulator", middle)

    def body():
        clock.advance(3.0)
        middle()
        leaf()
        clock.advance(0.25)

    tracer.phase("serve.server", body)
    assert (tracer.calls("routing.path"), tracer.self_s("routing.path")) == (2, 4.0)
    assert (tracer.calls("network.simulator"), tracer.self_s("network.simulator")) == (1, 1.5)
    assert (tracer.calls("serve.server"), tracer.self_s("serve.server")) == (1, 3.25)
    assert tracer.total_self_s() == clock.now
    ledger = tracer.ledger()
    assert ledger["routing.path.self_us_per_call"] == 2e6
    assert ledger["routing.bellman_ford.self_us_per_call"] == 0.0


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.advance(1.0)
        raise ValueError

    fail = tracer.wrap("routing.path", fail)
    with pytest.raises(ValueError):
        tracer.phase("serve.server", fail)
    assert tracer.self_s("routing.path") == 1.0
    assert tracer.self_s("serve.server") == 0.0


def test_wrappers_are_installed_then_restored_by_identity():
    originals = _bound_functions()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for target, fn in originals.items():
                assert vars(resolve(target))[target.attr] is not fn
            raise RuntimeError
    for target, fn in originals.items():
        assert vars(resolve(target))[target.attr] is fn


def test_speed_probe_scales_work_and_leaves_the_alarm_as_it_was():
    probe = SpeedProbe()
    handler, timer = signal.getsignal(signal.SIGALRM), signal.getitimer(signal.ITIMER_REAL)
    _, work_s = probe.time(time.sleep, 0.25)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == timer
    assert len(probe.samples) >= 4 and work_s > 0

    # Samples of 2, 4 and 6 references on each side of [10, 20) and in
    # it: the host runs at a quarter of the reference speed there, and
    # the sample taken inside is not work.
    probe = SpeedProbe()
    probe.starts = [9.0, 15.0, 20.0]
    probe.samples = [2 * REFERENCE_S, 4 * REFERENCE_S, 6 * REFERENCE_S]
    assert probe.scale(10.0, 20.0) == pytest.approx(0.25)
    assert probe.at_reference(10.0, 20.0) == pytest.approx((10.0 - 4 * REFERENCE_S) / 4)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(1000)), 99) == pytest.approx(989.01)
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(list(range(999)), 99)
    assert stats.percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(list(range(19)), 50)


def test_names_match_benchmark_json():
    declared = metrics.load_benchmark()
    assert [m["name"] for m in declared["end_to_end"]] == list(metrics.END_TO_END)
    assert sorted(m["name"] for m in declared["per_layer"]) == sorted(metrics.PER_LAYER)
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(Tracer, "installed", refuse)
    result = run("tiny", seconds=0, workload=TINY)
    assert result["correct"], result["failures"]
    assert list(result["metrics"]) == list(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] > 1000 and result["failed"] == 0


def test_traced_run_reports_the_ledger_and_restores_wrappers():
    originals = _bound_functions()
    result = run("tiny", seconds=0, traced=True, workload=TINY)
    assert result["correct"], result["failures"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert sorted(values) == sorted(metrics.PER_LAYER)
    assert 99.0 <= values["trace.closure_pct"] <= 100.0 + 1e-9
    for layer in ("serve.server", "serve.engine", "network.simulator", "asyncio.idle", "obs.live"):
        assert values[f"{layer}.calls"] > 0, layer
    for target, fn in originals.items():
        assert vars(resolve(target))[target.attr] is fn


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    assert verdict(base, base, "lower", 0.1)["verdict"] == "ok"
    assert verdict(base, [1.2 * v for v in base], "lower", 0.1)["verdict"] == "regressed"
    assert verdict(base, [0.8 * v for v in base], "lower", 0.1)["verdict"] == "better"
    assert verdict(base, [1.2 * v for v in base], "higher", 0.1)["verdict"] == "better"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert verdict(base, noisy, "lower", 0.1)["verdict"] == "unresolved"


def test_compare_pairs_runs_of_one_seed_and_refuses_unequal_counts():
    declared = metrics.load_benchmark()
    workload = declared["workloads"][0]["name"]

    def runs(seed: int, scale: float, n: int) -> list[dict]:
        values = {
            m["name"]: {"value": scale * (1.0 + 0.01 * i)}
            for i, m in enumerate(declared["end_to_end"])
        }
        return [
            {"workload": workload, "seed": seed, "seconds": 1.0, "trace": 0, "metrics": values}
        ] * n

    # Seed 11 runs twice as slow, but each seed is compared only with itself.
    a = runs(7, 1.0, 5) + runs(11, 2.0, 5)
    rows = compare(a, runs(7, 1.0, 5) + runs(11, 2.0, 5), declared)
    assert [(r["seed"], r["verdict"]) for r in rows] == [
        (seed, "ok") for seed in (7, 11) for _ in declared["end_to_end"]
    ]
    with pytest.raises(ValueError):
        compare(a, runs(7, 1.0, 4), declared)


def test_run_length_is_fixed_by_benchmark_json():
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--seconds", str(metrics.load_benchmark()["run_seconds"] + 1)])
    assert exit_info.value.code == 2
