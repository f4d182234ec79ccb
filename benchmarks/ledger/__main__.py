"""Command line of the layer ledger.

``run`` starts one process per workload (``benchmarks.ledger.workloads``)
and waits for it, so each workload's ``peak_rss_mb`` is its own. For
every workload it prints the metrics with their units, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}``; it exits 1 if a
correctness gate failed and 2 if a workload produced no result.
``--out F`` appends the full results to ``F`` (created if missing).
Every run measures ``run_seconds`` of ``BENCHMARK.json``; ``--seconds``
accepts that value and no other.

``compare A B`` prints the per (workload, seed, metric) verdicts between
two such files. It exits 1 if any metric regressed beyond its bound and
2 if the files cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from .compare import compare, load_runs, render
from .metrics import DEFAULT_SEED, DEMOTED, ROOT, load_benchmark

#: A workload process that outlives this is stopped (its result lost).
WORKER_TIMEOUT_S = 170


def _worker(workload: str, args: argparse.Namespace) -> dict | None:
    """Run one workload in its own process; its result, or None."""
    cmd = [
        sys.executable, "-m", "benchmarks.ledger.workloads",
        "--workload", workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ)
    # A warm artifact store would skip the very work being measured.
    env.pop("REPRO_CACHE_DIR", None)
    # Load comes from one thread: numpy's BLAS would start one per core.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{workload}: workload process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _render(result: dict) -> str:
    rounds = result["detail"]["rounds"]
    lines = [
        f"== {result['workload']}  seed {result['seed']}  "
        f"{'traced' if result['trace'] else 'untraced'}  rounds {len(rounds)}  "
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"correct {result['correct']}"
    ]
    lines += [f"   FAILED: {message}" for message in result["failures"]]
    for name, metric in result["metrics"].items():
        lines.append(f"   {name:<44}{metric['value']:>16.6g} {metric['unit']}")
    if not result["trace"]:
        detail = result["detail"]
        if "latency_p99_us" in detail:
            samples = [r["latency_samples"] for r in rounds]
            lines.append(f"   served-request latency samples per round: {samples}")
            lines.append("   not gated (README.md, demoted metrics):")
            for name in DEMOTED:
                lines.append(f"   {name:<44}{detail[name]:>16.6g}")
    return "\n".join(lines)


def _append(path: Path, results: list[dict]) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].extend(results)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    tmp.replace(path)


def _run(args: argparse.Namespace, declared: dict) -> int:
    names = [w["name"] for w in declared["workloads"]]
    status = 0
    results = []
    for name in [args.workload] if args.workload else names:
        result = _worker(name, args)
        if result is None:
            status = 2
            break
        print(_render(result))
        summary = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({key: result[key] for key in summary}))
        results.append(result)
        if not result["correct"]:
            status = max(status, 1)
    if args.out is not None and results:
        _append(args.out, results)
    return status


def _compare(args: argparse.Namespace, declared: dict) -> int:
    try:
        rows = compare(load_runs(args.a), load_runs(args.b), declared)
    except ValueError as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    declared = load_benchmark()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run workloads and print their metrics")
    p_run.add_argument(
        "--workload", choices=[w["name"] for w in declared["workloads"]], default=None,
        help="one workload (default: all, one after another)",
    )
    p_run.add_argument("--seed", type=int, default=DEFAULT_SEED, help="request-stream seed")
    p_run.add_argument(
        "--seconds", type=float, choices=[float(declared["run_seconds"])],
        default=float(declared["run_seconds"]),
        help="run length; fixed by run_seconds in BENCHMARK.json, so only that value is accepted",
    )
    p_run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer ledger instead of end-to-end metrics",
    )
    p_run.add_argument("--out", type=Path, default=None, help="append full results here")
    p_cmp = sub.add_parser("compare", help="regression verdicts between two --out files")
    p_cmp.add_argument("a", type=Path, help="baseline runs (e.g. the parent commit)")
    p_cmp.add_argument("b", type=Path, help="runs to judge against A")
    args = parser.parse_args(argv)
    return _run(args, declared) if args.command == "run" else _compare(args, declared)


if __name__ == "__main__":
    raise SystemExit(main())
