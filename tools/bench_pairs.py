"""Alternating parent/change pairs of perfbench, written as one BENCH_<n>.json.

Usage (from any directory):

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \
        [--pairs 10] [--seed 0] [--workload W ...] \
        [--parent-commit SHA] [--change-text TEXT]

--parent and --change are two separate checkouts of the trees to compare,
for example made with `git archive`. Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, with T the run_seconds of the change's BENCHMARK.json
and PYTHONDONTWRITEBYTECODE=1, the parent first in odd pairs and the
change first in even pairs, and reads the tree's
.perfbench_out/<W>-seed<S>/result-trace0.json. The file records the
change's last perfbench environment; numpy_build, numpy's SIMD levels
(__cpu_baseline__, __cpu_dispatch__ and the enabled __cpu_features__) and
the OpenBLAS configuration string of numpy.show_config(mode="dicts"); and
parallelism, before and after the pairs: the wall time of a process that
runs a fixed pure-Python loop, alone and then two at once. Their speedup
2 * alone / pair reads 2 where two CPUs are free and 1 where only one is,
so it tells how much of the host other load left to the pairs. Each
metric of a run is
perfbench's rescaled median; each side's median and quartiles
(statistics.quantiles, n=4) are taken over the pairs, and a pair counts for
the change when its value is better by the metric's direction in the
change's BENCHMARK.json. The workloads default to every workload that file
declares. A run that exits non-zero or writes no result stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
import time
from typing import Dict, List, Optional


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench --trace 0 run in tree; its result-trace0.json."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]
    subprocess.run(cmd, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    path = tree / ".perfbench_out" / f"{workload}-seed{seed}" / "result-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


# the parallelism probe's loop: no ksfv code, about 0.2-0.4 s of one CPU
_PROBE_LOOP = "s = 0\nfor i in range(4_000_000):\n    s += i\n"


def parallelism() -> dict:
    """The wall time of the probe loop's process alone, of two at once, and 2 * alone / pair."""

    def wall(k: int) -> float:
        t0 = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", _PROBE_LOOP]) for _ in range(k)]
        if any(p.wait() != 0 for p in procs):
            raise RuntimeError("the parallelism probe's loop failed")
        return time.perf_counter() - t0

    alone = wall(1)
    pair = wall(2)
    return {"alone_s": alone, "pair_s": pair, "speedup": 2.0 * alone / pair}


def numpy_build() -> dict:
    """numpy's SIMD levels (baseline, dispatched, enabled) and its OpenBLAS configuration."""
    import numpy as np
    from numpy._core import _multiarray_umath as umath

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy_cpu_baseline": list(umath.__cpu_baseline__),
        "numpy_cpu_dispatch": list(umath.__cpu_dispatch__),
        "numpy_cpu_features": [k for k, on in umath.__cpu_features__.items() if on],
        "openblas_configuration": blas.get("openblas configuration"),
    }


def summary(values: List[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def workload_entry(seed: int, results: Dict[str, List[dict]], metrics: List[dict]) -> dict:
    """The BENCH entry of one workload from each side's results, pair by pair."""
    parent, change = results["parent"], results["change"]
    entry: dict = {"seed": seed, "pairs": len(parent)}
    for m in metrics:
        name = m["name"]
        sides = {side: [r["metrics"][name]["value"] for r in results[side]] for side in results}
        lower = m["better"] == "lower"
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"])
        )
        p_med, c_med = (statistics.median(sides[side]) for side in ("parent", "change"))
        entry[name] = {
            "unit": m["unit"],
            "parent": summary(sides["parent"]),
            "change": summary(sides["change"]),
            "change_vs_parent": c_med / p_med - 1.0,
            "change_better_in_pairs": wins,
        }
    entry["diagnostics_sha256"] = {
        side: sorted({d for r in rs for d in r["diagnostics_sha256"]})
        for side, rs in (("parent", parent), ("change", change))
    }
    entry["failed_operations"] = {"parent": sum(r["failed"] for r in parent),
                                  "change": sum(r["failed"] for r in change)}
    entry["attempted_operations"] = {"parent": sum(r["attempted"] for r in parent),
                                     "change": sum(r["attempted"] for r in change)}
    return entry


def git_head(tree: Path) -> Optional[str]:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", help="a workload (repeatable); default all")
    ap.add_argument("--parent-commit", help="default: git rev-parse HEAD in --parent, if any")
    ap.add_argument("--change-text", default="", help="what the change does, one sentence")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")

    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    record = {
        "change": args.change_text,
        "parent_commit": args.parent_commit or git_head(parent),
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            "--trace 0, run from a separate copy of each tree with PYTHONDONTWRITEBYTECODE=1, "
            "in alternating parent/change pairs (the parent first in odd pairs); each metric "
            "is perfbench's rescaled median of one run, and each side's median and quartiles "
            "(statistics.quantiles, n=4) are taken over the pairs (tools/bench_pairs.py)"
        ),
        "environment": None,
        "numpy_build": numpy_build(),
        "parallelism": {"before": parallelism(), "after": None},
        "workloads": {},
    }
    for name in workloads:
        results: Dict[str, List[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent if side == "parent" else change
                results[side].append(perfbench(tree, name, args.seed, seconds))
            print(
                f"{name} pair {i + 1}/{args.pairs}: wall_s parent "
                f"{results['parent'][-1]['metrics']['wall_s']['value']:.4f}, change "
                f"{results['change'][-1]['metrics']['wall_s']['value']:.4f}",
                flush=True,
            )
        record["environment"] = results["change"][-1]["environment"]
        record["workloads"][name] = workload_entry(args.seed, results, spec["end_to_end"])
        args.out.write_text(json.dumps(record, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    record["parallelism"]["after"] = parallelism()
    args.out.write_text(json.dumps(record, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
