"""ksfv benchmark: time to a verdict on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload {damped,aggregation,sweep9} \
        --seed N --seconds S --trace {0,1} [--smoke]

The workload's config is generated from the seed (see workloads.py) and
driven through ksfv's public entry points, as `ksfv run` / `ksfv sweep` do:
parse_config_text -> run_config_from -> solver.run (or sweep.run_sweep) ->
classification -> the output writers. Every execution is checked for
correctness; an operation is one run or one sweep point.

--trace 0 repeats the workload while the next repetition still fits in S
seconds (at least once) and reports the end-to-end metrics: wall_s (median
time from a loaded config to all outputs written), setup_s (median of cold
set-ups, each in a fresh interpreter), peak_rss_mb (this process). Both
times are rescaled to the reference machine's speed (reference.py); the
unscaled medians are printed and kept in the result file.

--trace 1 executes the workload once untraced and once with span tracing
installed from outside the package (tracing.py), checks that both write the
same diagnostics, adds microbenchmarks of the initial state
(microbench.py) and reports the per-layer metrics plus trace.overhead_frac.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json. Outputs, spans and a result.json with the environment and
diagnostics digests go to .perfbench_out/<workload>-seed<N>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Execution:
    """One execution of a workload, before its outputs are checked."""

    wall_s: float
    workers: int = 1
    results: list = field(default_factory=list)  # RunResult per operation
    classes: List[str] = field(default_factory=list)
    params: object = None
    error: Optional[str] = None
    attempted: int = 1


@dataclass
class Assessment:
    wall_s: float
    attempted: int
    failed: int
    problems: List[str]
    digest: str
    steps: int
    points: int
    workers: int


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_ksfv():
    """Import ksfv from the checkout's src/ (exit without a result if it is absent)."""
    if not (SRC / "ksfv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ksfv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ksfv

    if Path(ksfv.__file__).resolve().parent != (SRC / "ksfv").resolve():
        sys.exit(f"perfbench: imported ksfv from {ksfv.__file__}, not from {SRC}")


def sweep_spec(mapping):
    """SweepSpec of a sweep file, as `ksfv sweep` builds it (workers capped at nproc)."""
    from ksfv import config, sweep

    axes, base, max_parallel = workloads.parse_sweep(mapping)
    merged = config.with_defaults(base)
    return sweep.SweepSpec(
        axes=axes,
        base=base,
        max_parallel=min(max_parallel, nproc()),
        global_factor=float(merged["classify.global_factor"]),
        blowup_factor=float(merged["classify.blowup_factor"]),
    )


def parse(wl: workloads.Workload):
    from ksfv import config

    return config.parse_config_text(wl.text)


def execute(wl: workloads.Workload, out_dir: Path) -> Execution:
    """Run the workload once; wall time covers loaded config -> verdict -> outputs written."""
    from ksfv import config, output, solver, sweep

    out_dir.mkdir(parents=True, exist_ok=True)
    mapping = parse(wl)
    if wl.is_sweep:
        spec = sweep_spec(mapping)
        t0 = time.perf_counter()
        try:
            rows = sweep.run_sweep(spec)
            output.write_text(out_dir / "sweep.csv", sweep.sweep_csv(spec, rows))
            svg = sweep.sweep_heatmap(spec, rows)
            if svg is not None:
                output.write_text(out_dir / "sweep.svg", svg)
        except Exception:
            return Execution(time.perf_counter() - t0, spec.max_parallel,
                             error=traceback.format_exc(), attempted=spec.total_runs)
        return Execution(
            time.perf_counter() - t0, spec.max_parallel,
            [r.result for r in rows], [r.classification for r in rows],
            attempted=spec.total_runs,
        )

    t0 = time.perf_counter()
    try:
        cfg, _, merged = config.run_config_from(mapping)
        t0 = time.perf_counter()
        result = solver.run(cfg)
        run_wall = time.perf_counter() - t0
        verdict = sweep.classify_run(
            result,
            float(merged["classify.global_factor"]),
            float(merged["classify.blowup_factor"]),
        )
        files = ["diagnostics.csv", "final_state.csv", "max_u.svg", "F.svg", "manifest.txt"]
        ts = [r.t for r in result.rows]
        output.write_text(out_dir / "diagnostics.csv", output.rows_to_csv(result.rows))
        output.write_text(
            out_dir / "final_state.csv", output.final_state_csv(result.final_state, result.grid)
        )
        output.write_text(
            out_dir / "max_u.svg",
            output.line_chart_svg(ts, [r.max_u for r in result.rows], "max_u(t)", "max_u", ylog=True),
        )
        output.write_text(
            out_dir / "F.svg", output.line_chart_svg(ts, [r.F for r in result.rows], "F(t)", "F")
        )
        output.write_text(
            out_dir / "manifest.txt",
            output.manifest_text(merged, result, run_wall, files, "perfbench"),
        )
    except Exception:
        return Execution(time.perf_counter() - t0, error=traceback.format_exc())
    return Execution(time.perf_counter() - t0, results=[result], classes=[verdict], params=cfg.params)


def assess(wl: workloads.Workload, ex: Execution, out_dir: Path) -> Assessment:
    """Check an execution's outputs; every operation with a problem counts as failed."""
    from ksfv import output

    if ex.error is not None:
        return Assessment(ex.wall_s, ex.attempted, ex.attempted, [ex.error], "", 0, 0, ex.workers)
    problems = []
    failed = 0
    expected = workloads.SWEEP9_EXPECTED if wl.is_sweep and not wl.smoke else None
    if expected is not None and len(ex.results) != len(expected):
        problems.append(f"expected {len(expected)} sweep points, got {len(ex.results)}")
        failed = ex.attempted
    digest = hashlib.sha256()
    for i, (res, cls) in enumerate(zip(ex.results, ex.classes)):
        found = workloads.check_run(wl, res, cls, ex.params)
        if expected is not None and i < len(expected) and cls != expected[i]:
            found.append(f"classified {cls}, expected {expected[i]}")
        if found:
            failed += 1
            problems += [f"operation {i}: {p}" for p in found]
        if wl.is_sweep:
            digest.update(output.rows_to_csv(res.rows).encode())
        else:
            digest.update((out_dir / "diagnostics.csv").read_bytes())
    return Assessment(
        ex.wall_s, ex.attempted, min(failed, ex.attempted), problems, digest.hexdigest(),
        sum(r.steps for r in ex.results), len(ex.results), ex.workers,
    )


def setup_samples(config_path: Path):
    """Cold set-up times, each in a fresh interpreter, and the reference times around them."""
    samples, refs = [], [reference.seconds_per_burst()]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
        refs.append(reference.seconds_per_burst())
    return samples, refs


def initial_config(wl: workloads.Workload):
    """RunConfig and grid of the workload's initial state (a sweep's first point)."""
    from ksfv import config

    mapping = parse(wl)
    if wl.is_sweep:
        axes, base, _ = workloads.parse_sweep(mapping)
        mapping = dict(base)
        for name, values in axes:
            mapping["init.mass" if name == "mass" else f"params.{name}"] = repr(values[0])
    cfg, grid, _ = config.run_config_from(mapping)
    return cfg, grid


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def timed_runs(wl, out_dir: Path, seconds: float):
    """Repeat the workload while the next repetition is expected to fit in `seconds`.

    Returns the repetitions and the reference times taken around them, with
    the reference loop shared by as many threads as the workload uses.
    """
    workers = sweep_spec(parse(wl)).max_parallel if wl.is_sweep else 1
    deadline = time.perf_counter() + seconds
    reps: List[Assessment] = []
    refs = [reference.seconds_per_burst(workers)]
    while True:
        reps.append(assess(wl, execute(wl, out_dir), out_dir))
        refs.append(reference.seconds_per_burst(workers))
        if time.perf_counter() + statistics.median(r.wall_s for r in reps) > deadline:
            return reps, refs


def rescaled_median(samples, refs) -> float:
    """Median of the samples in reference-machine seconds (refs[i], refs[i + 1] surround samples[i])."""
    return statistics.median(
        reference.rescaled(x, before, after) for x, before, after in zip(samples, refs, refs[1:])
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="shortened runs that exercise the harness (no verdict checks)")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    load_ksfv()
    wl = workloads.generate(args.workload, args.seed, args.smoke)
    out_dir = OUT / f"{wl.name}-seed{wl.seed}{'-smoke' if wl.smoke else ''}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / ("sweep.cfg" if wl.is_sweep else "run.cfg")
    config_path.write_text(wl.text, encoding="utf-8")

    record = {"workload": wl.name, "seed": wl.seed, "smoke": wl.smoke,
              "environment": environment(), "config": wl.text}
    if args.trace == 0:
        wanted = spec["end_to_end"]
        setups, setup_refs = setup_samples(config_path)
        reps, refs = timed_runs(wl, out_dir, args.seconds)
        walls = [r.wall_s for r in reps]
        digests = {r.digest for r in reps if r.digest}
        problems = [p for r in reps for p in r.problems]
        attempted = sum(r.attempted for r in reps)
        failed = sum(r.failed for r in reps)
        if len(digests) > 1:
            problems.append(f"repetitions wrote different diagnostics: {sorted(digests)}")
            failed = attempted
        values = {
            "wall_s": rescaled_median(walls, refs),
            "setup_s": rescaled_median(setups, setup_refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups)}
        record.update(
            repetitions=len(reps), raw_medians=raw, wall_s_raw_samples=walls,
            setup_s_raw_samples=setups, reference_s=refs, setup_reference_s=setup_refs,
        )
    else:
        from microbench import microbench
        from tracing import Tracer, layer_metrics

        wanted = spec["per_layer"]
        plain = assess(wl, execute(wl, out_dir), out_dir)
        tracer = Tracer()
        with tracer.installed():
            ex = execute(wl, out_dir)
        traced = assess(wl, ex, out_dir)
        problems = plain.problems + traced.problems
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        if plain.digest != traced.digest:
            problems.append(f"traced diagnostics {traced.digest} differ from untraced {plain.digest}")
            failed = attempted
        values = layer_metrics(tracer, traced.steps, traced.points, traced.wall_s, traced.workers)
        values["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
        values.update(microbench(*initial_config(wl)))
        record["spans"] = tracer.write_csv_gz(out_dir / "spans.csv.gz")
        digests = {plain.digest}

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(
        attempted=attempted, failed=failed, problems=problems,
        diagnostics_sha256=sorted(digests), metrics=metrics,
    )
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for p in problems:
        print(f"FAILED: {p}")
    print(f"{wl.name} seed {wl.seed}: diagnostics sha256 {', '.join(sorted(digests)) or '-'}")
    print(f"error_rate {failed / attempted!r} ratio ({failed} of {attempted} operations failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in record.get("raw_medians", {}).items():
        print(f"{name} unscaled {value!r} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
