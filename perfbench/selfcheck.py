"""Fast self-check of the benchmark harness.

    python3 perfbench/selfcheck.py          # smoke runs of every workload, well under a minute
    python3 perfbench/selfcheck.py --full   # also the real seed-0 workloads (several minutes)

Checks that seed 0 reproduces the pinned inputs bit for bit (the fixtures up
to their shortened horizons), that other seeds are deterministic
perturbations, that every workload emits exactly the metrics BENCHMARK.json
names (untraced and traced) with error rate 0, and that the benchmark
refuses to produce a result where ksfv is absent.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def check_seed_zero() -> None:
    import numpy as np
    from ksfv.config import load_config, parse_config_text, run_config_from

    conftest = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("pinned_fixtures", conftest)
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    for name, pinned in (
        ("damped", fixtures.damped_reference_config()),
        ("aggregation", fixtures.aggregation_config()),
    ):
        cfg, _, _ = run_config_from(parse_config_text(workloads.generate(name, 0).text))
        if name == "damped":
            assert cfg.t_end == float(workloads.DAMPED_T_END) and pinned.t_end == 20.0
            pinned.t_end = cfg.t_end
        else:
            assert cfg.dt_min == float(workloads.AGGREGATION_DT_MIN) and pinned.dt_min == 1e-10
            pinned.dt_min = cfg.dt_min
        for attr in ("domain", "params", "t_end", "cfl", "dt_max", "dt_min", "blowup_cap",
                     "diag_every", "overrides", "table_tol"):
            assert getattr(cfg, attr) == getattr(pinned, attr), (name, attr)
        for attr in ("u0", "v0"):
            assert np.array_equal(getattr(cfg, attr), getattr(pinned, attr)), (name, attr)
    sample = load_config(ROOT / "docs" / "sample_sweep.cfg")
    assert parse_config_text(workloads.generate("sweep9", 0).text) == sample
    print("ok   seed 0 reproduces docs/sample_sweep.cfg and the pinned fixtures up to their horizons")


def check_other_seeds() -> None:
    for name in workloads.WORKLOADS:
        texts = {workloads.generate(name, seed).text for seed in (1, 2, 3)}
        assert len(texts) == 3, name
        assert workloads.generate(name, 0).text not in texts, name
        assert workloads.generate(name, 7).text == workloads.generate(name, 7).text, name
    print("ok   other seeds give distinct, repeatable perturbations")


def bench(workload: str, trace: int, extra=(), cwd: Path = ROOT, timeout: float = 900):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def check_result(workload: str, trace: int, extra=()) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    proc = bench(workload, trace, extra)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], proc.stdout
    assert list(result["metrics"]) == [m["name"] for m in wanted], result["metrics"]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
    print(f"ok   {' '.join([workload, 'trace', str(trace), *extra])}: "
          f"{len(wanted)} metrics, error_rate 0 of {result['attempted']}")


def check_refuses_without_program() -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("sweep9", 0, ("--smoke",), cwd=bare, timeout=180)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok   refuses to report a result without the ksfv sources")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--full", action="store_true", help="also run the real seed-0 workloads")
    args = ap.parse_args()
    check_seed_zero()
    check_other_seeds()
    check_refuses_without_program()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result(name, trace, ("--smoke",))
    if args.full:
        for name in workloads.WORKLOADS:
            check_result(name, 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
