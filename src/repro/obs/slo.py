"""SLO tracking: declarative objectives, multi-window burn-rate alerts.

An :class:`SLOSpec` declares what the serving engine promises — a target
served fraction, a p99 latency bound, a queue-shed budget — and an
:class:`SLOTracker` evaluates those promises continuously against the
windowed instruments of :mod:`repro.obs.live`.

The evaluation follows the multi-window burn-rate recipe: for each
objective the tracker computes the *error rate* over a short window and
a long window, divides by the objective's error budget to get a burn
rate (burn 1.0 = spending the budget exactly as fast as the SLO allows),
and raises the alert state only when *both* windows agree — the long
window filters noise, the short window makes recovery fast. States move
``ok -> warning -> critical`` as both-window burn crosses
``warning_burn`` / ``critical_burn``.

Every transition is emitted as a structured log event on the
``repro.obs.slo`` logger (JSON payload, level mapped to severity),
mirrored into ``slo.<objective>.state`` / ``slo.<objective>.burn_rate``
gauges (so ``/metrics`` scrapes see alert state), and retained on the
tracker for the run manifest. Periodic :meth:`SLOTracker.snapshot`
calls build the JSONL time series that feeds the ``repro report`` SLO
panel.

Error-rate definitions (all over a sliding window, all 0 when idle):

* ``availability`` — unserved fraction of completed requests
  (denied + shed over served + denied + shed); budget
  ``1 - served_fraction_target``.
* ``latency`` — fraction of service-latency samples above
  ``p99_latency_bound_s``; budget 1 % (that is what a p99 bound means).
* ``saturation`` — shed (``queue_full``) fraction of submissions;
  budget ``queue_full_budget``.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from repro import obs
from repro.errors import ValidationError
from repro.obs import live
from repro.obs.live import WindowedCounter, WindowedHistogram

__all__ = [
    "AlertState",
    "ObjectiveStatus",
    "SLOSpec",
    "SLOTracker",
    "load_slo_spec",
]

_LOG = logging.getLogger("repro.obs.slo")

#: Snapshot retention cap for the manifest time-series panel.
MAX_SNAPSHOTS = 720


class AlertState(Enum):
    """Alert severity of one objective, ordered ok < warning < critical."""

    OK = "ok"
    WARNING = "warning"
    CRITICAL = "critical"

    @property
    def severity(self) -> int:
        """Numeric severity (0/1/2) — the value the state gauge exports."""
        return ("ok", "warning", "critical").index(self.value)


_LOG_LEVELS = {
    AlertState.OK: logging.INFO,
    AlertState.WARNING: logging.WARNING,
    AlertState.CRITICAL: logging.ERROR,
}


@dataclass(frozen=True)
class SLOSpec:
    """Declarative service-level objectives for the streaming service.

    Attributes:
        served_fraction_target: minimum served fraction of completed
            requests (availability objective).
        p99_latency_bound_s: p99 service-latency bound [s]; ``None``
            disables the latency objective.
        queue_full_budget: tolerated shed fraction of submissions;
            ``None`` disables the saturation objective.
        short_window_s / long_window_s: the two burn-rate windows.
        warning_burn / critical_burn: both-window burn-rate thresholds
            for the state transitions.
    """

    served_fraction_target: float = 0.95
    p99_latency_bound_s: float | None = None
    queue_full_budget: float | None = None
    short_window_s: float = 5.0
    long_window_s: float = 60.0
    warning_burn: float = 2.0
    critical_burn: float = 10.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is None and name in ("p99_latency_bound_s", "queue_full_budget"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.served_fraction_target < 1.0:
            raise ValidationError(
                "served_fraction_target must be in (0, 1), got "
                f"{self.served_fraction_target!r}"
            )
        if self.p99_latency_bound_s is not None and not self.p99_latency_bound_s > 0:
            raise ValidationError("p99_latency_bound_s must be > 0")
        if self.queue_full_budget is not None and not 0.0 < self.queue_full_budget < 1.0:
            raise ValidationError("queue_full_budget must be in (0, 1)")
        if not 0 < self.short_window_s < self.long_window_s:
            raise ValidationError(
                "windows must satisfy 0 < short_window_s < long_window_s"
            )
        if not 0 < self.warning_burn < self.critical_burn:
            raise ValidationError(
                "burn thresholds must satisfy 0 < warning_burn < critical_burn"
            )

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SLOSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown SLO spec fields: {sorted(unknown)}")
        return cls(**dict(data))


def load_slo_spec(path: str | Path) -> SLOSpec:
    """Read an :class:`SLOSpec` from a JSON file."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read SLO spec from {p}: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ValidationError(f"{p} does not contain a JSON object")
    return SLOSpec.from_dict(data)


@dataclass(frozen=True)
class ObjectiveStatus:
    """One objective's evaluation: burn rates and the resulting state."""

    name: str
    state: AlertState
    burn_short: float
    burn_long: float
    error_rate_long: float
    budget: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "state": self.state.value,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "error_rate_long": self.error_rate_long,
            "budget": self.budget,
        }


class SLOTracker:
    """Continuous SLO evaluation over windowed serve instruments.

    Args:
        spec: the declared objectives.
        submitted / served / denied / shed: the windowed request
            counters of the serving front end.
        latency: the windowed service-latency histogram.

    The instruments must share a clock (they do — the module clock of
    :mod:`repro.obs.live`) and their rings must span at least
    ``spec.long_window_s``; the constructor validates the latter so a
    mis-wired tracker fails at build time, not mid-run.
    """

    def __init__(
        self,
        spec: SLOSpec,
        *,
        submitted: WindowedCounter,
        served: WindowedCounter,
        denied: WindowedCounter,
        shed: WindowedCounter,
        latency: WindowedHistogram,
    ) -> None:
        instruments = (submitted, served, denied, shed, latency)
        for instrument in instruments:
            if instrument.window_s < spec.long_window_s:
                raise ValidationError(
                    f"instrument {instrument.name!r} window "
                    f"{instrument.window_s} s is shorter than the SLO long "
                    f"window {spec.long_window_s} s"
                )
        self.spec = spec
        self._submitted = submitted
        self._served = served
        self._denied = denied
        self._shed = shed
        self._latency = latency
        self.states: dict[str, AlertState] = {
            name: AlertState.OK for name in self.objectives
        }
        self.transitions: list[dict[str, Any]] = []
        self.snapshots: list[dict[str, Any]] = []
        self._state_gauges = {
            name: obs.gauge(f"slo.{name}.state") for name in self.objectives
        }
        self._burn_gauges = {
            name: obs.gauge(f"slo.{name}.burn_rate") for name in self.objectives
        }

    @property
    def objectives(self) -> tuple[str, ...]:
        """The objective names the spec enables, evaluation order."""
        names = ["availability"]
        if self.spec.p99_latency_bound_s is not None:
            names.append("latency")
        if self.spec.queue_full_budget is not None:
            names.append("saturation")
        return tuple(names)

    # --- error rates ----------------------------------------------------------

    def _availability_error(self, window_s: float) -> float:
        served = self._served.total(window_s)
        completed = served + self._denied.total(window_s) + self._shed.total(window_s)
        return (completed - served) / completed if completed else 0.0

    def _latency_error(self, window_s: float) -> float:
        return self._latency.fraction_above(self.spec.p99_latency_bound_s, window_s)

    def _saturation_error(self, window_s: float) -> float:
        submitted = self._submitted.total(window_s)
        return self._shed.total(window_s) / submitted if submitted else 0.0

    def _objective_inputs(self, name: str) -> tuple[Any, float]:
        if name == "availability":
            return self._availability_error, 1.0 - self.spec.served_fraction_target
        if name == "latency":
            return self._latency_error, 0.01
        return self._saturation_error, float(self.spec.queue_full_budget)

    # --- evaluation -----------------------------------------------------------

    def evaluate(self) -> dict[str, ObjectiveStatus]:
        """Evaluate every objective now; record and emit transitions."""
        t = live.now()
        statuses: dict[str, ObjectiveStatus] = {}
        for name in self.objectives:
            error_fn, budget = self._objective_inputs(name)
            burn_short = error_fn(self.spec.short_window_s) / budget
            burn_long = error_fn(self.spec.long_window_s) / budget
            both = min(burn_short, burn_long)
            if both > self.spec.critical_burn:
                state = AlertState.CRITICAL
            elif both > self.spec.warning_burn:
                state = AlertState.WARNING
            else:
                state = AlertState.OK
            status = ObjectiveStatus(
                name=name,
                state=state,
                burn_short=burn_short,
                burn_long=burn_long,
                error_rate_long=error_fn(self.spec.long_window_s),
                budget=budget,
            )
            statuses[name] = status
            previous = self.states[name]
            if state is not previous:
                self.states[name] = state
                event = {
                    "event": "slo_transition",
                    "objective": name,
                    "from": previous.value,
                    "to": state.value,
                    "burn_short": burn_short,
                    "burn_long": burn_long,
                    "t": t,
                }
                self.transitions.append(event)
                _LOG.log(_LOG_LEVELS[state], "%s", json.dumps(event, sort_keys=True))
            self._state_gauges[name].set(state.severity)
            self._burn_gauges[name].set(burn_long)
        return statuses

    def snapshot(self) -> dict[str, Any]:
        """Evaluate and record one time-series point (manifest-capped)."""
        statuses = self.evaluate()
        p99 = self._latency.quantile(0.99, self.spec.long_window_s)
        point = {
            "t": live.now(),
            "served_rate_per_s": self._served.rate(self.spec.long_window_s),
            "submitted_rate_per_s": self._submitted.rate(self.spec.long_window_s),
            # NaN (empty window) becomes null: the JSONL and manifest
            # stay strict-JSON parseable.
            "latency_p99_s": None if p99 != p99 else p99,
            "objectives": {name: s.as_dict() for name, s in statuses.items()},
        }
        self.snapshots.append(point)
        if len(self.snapshots) > MAX_SNAPSHOTS:
            # Keep the series bounded by dropping every other retained
            # point — coarser history, same span.
            self.snapshots = self.snapshots[::2]
        return point

    def status(self) -> dict[str, Any]:
        """Current evaluation as a JSON-safe dict (the ``/status`` shape)."""
        statuses = self.evaluate()
        return {
            "spec": self.spec.as_dict(),
            "objectives": {name: s.as_dict() for name, s in statuses.items()},
        }

    def manifest_summary(self) -> dict[str, Any]:
        """Everything the run manifest records about this tracker."""
        return {
            "spec": self.spec.as_dict(),
            "final_states": {n: s.value for n, s in self.states.items()},
            "transitions": list(self.transitions),
            "snapshots": list(self.snapshots),
        }
