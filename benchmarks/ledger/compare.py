"""``compare A B``: is run set B worse than run set A, metric by metric?

Each file holds the runs ``run --out`` appended. Untraced runs are
grouped per (workload, seed, run length) and compared per end-to-end
metric; only groups both files hold are compared. Runs pair up in file
order (run i of A with run i of B), as alternating parent/change runs
would, so the two groups must hold as many runs. For each pair of
groups the verdict follows the rule the benchmark was built to
(``README.md``):

* ``better``: B wins at least nine tenths of the pairs, ties counting
  for neither, and the medians differ by more than A's quartile
  distance;
* ``unresolved``: either side's spread (quartile distance over median)
  exceeds the metric's bound, unless every B run reads better than
  every A run;
* ``regressed``: B's median is worse than A's by more than the bound;
* ``ok``: otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

from .stats import quartiles

__all__ = ["compare", "load_runs", "render", "verdict"]


def load_runs(path: Path) -> list[dict]:
    """The runs recorded in one ``--out`` file."""
    return json.loads(Path(path).read_text())["runs"]


def _groups(runs: list[dict]) -> dict[tuple, list[dict]]:
    """Untraced runs per (workload, seed, seconds), in file order."""
    groups: dict[tuple, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            groups.setdefault((run["workload"], run["seed"], run["seconds"]), []).append(run)
    return groups


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Compare one metric's runs of A and B (see the module docstring).

    Raises:
        ValueError: A and B hold different numbers of runs.
    """
    if len(a) != len(b):
        raise ValueError(f"A has {len(a)} runs and B {len(b)}; they pair up one to one")
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    b_all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if worse_by < 0 and wins >= 0.9 * len(a) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        label = "better"
    elif spread > bound and not b_all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "regressed"
    else:
        label = "ok"
    return {
        "a": qa,
        "b": qb,
        "n": (len(a), len(b)),
        "worse_by": worse_by,
        "spread": spread,
        "win_share": wins / len(a),
        "verdict": label,
    }


def compare(a_runs: list[dict], b_runs: list[dict], declared: dict) -> list[dict]:
    """One row per (workload, seed, run length, end-to-end metric) both sets measured.

    Raises:
        ValueError: a group holds different numbers of runs in A and B.
    """
    a_groups, b_groups = _groups(a_runs), _groups(b_runs)
    order = [w["name"] for w in declared["workloads"]]
    keys = sorted(set(a_groups) & set(b_groups), key=lambda k: (order.index(k[0]), k[1], k[2]))
    rows = []
    for key in keys:
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_groups[key]]
            b = [run["metrics"][name]["value"] for run in b_groups[key]]
            try:
                result = verdict(a, b, metric["better"], metric["bound"])
            except ValueError as err:
                raise ValueError(f"{key[0]} seed {key[1]}: {err}") from None
            rows.append(
                {
                    "workload": key[0],
                    "seed": key[1],
                    "seconds": key[2],
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    **result,
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    """The rows as an aligned text table."""
    def median_and_quartiles(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    lines = [
        f"{'workload':<16}{'seed':>5}  {'metric':<16}"
        f"{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}"
        f"{'worse by':>10}{'spread':>9}{'B wins':>8}{'bound':>7}  verdict"
    ]
    for r in rows:
        a, b = median_and_quartiles(r["a"]), median_and_quartiles(r["b"])
        lines.append(
            f"{r['workload']:<16}{r['seed']:>5}  {r['metric']:<16}{a:>34}{b:>34}"
            f"{100 * r['worse_by']:>9.2f}%{100 * r['spread']:>8.2f}%"
            f"{100 * r['win_share']:>7.0f}%{100 * r['bound']:>6.0f}%  {r['verdict']}"
        )
    return "\n".join(lines)
