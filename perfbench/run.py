"""skewprod benchmark: one workload, timed end to end through the CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Every execution is a fresh process (`child.py`) that imports
skewprod, parses the workload config and feeds it to `skewprod.cli.main` with
one worker.  The run first times SETUP_SAMPLES set-up-only processes, then
repeats executions until S seconds have passed (at least MIN_EXECUTIONS).
Each execution's record is checked against answers computed apart from the
program (`checks.py`), and all records of a run must be byte-identical.

Times are in seconds at the reference speed (see child.py and README.md): the
host's speed drifts by tens of percent over minutes, so each wall time is
scaled by a speed sampler that runs in the same process.  The wall times are
printed and kept in the run's summary.json.

With --trace 0 the last line of standard output reports the end-to-end
metrics (medians over the run); with --trace 1 the run alternates untraced and
traced executions and reports the per-layer metrics of the median traced
execution.  Outputs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import canonical_bytes, check_identical, check_record, reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
MIN_EXECUTIONS = 2
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "envs_per_s": "envs/s",
                    "peak_rss_mib": "MiB"}
PER_LAYER_TIMES = [
    "config.parse_s", "base_env.windows_s", "rpf.orbit_s", "rpf.mean_s",
    "rpf.variance_s", "gibbs.dp_s", "limits.classify_s", "limits.self_s",
    "doeblin.orbit_s", "doeblin.dp_s", "doeblin.classify_s", "runner.write_s",
]
PER_LAYER_COUNTS = [
    "base_env.windows", "rpf.orbits", "rpf.orbit_positions", "rpf.mean_steps",
    "rpf.variance_steps", "gibbs.dp_calls", "gibbs.dp_steps", "gibbs.dp_support",
    "doeblin.dp_calls", "doeblin.dp_steps",
]
SUM_TOL_S = 1e-6


def machine_facts() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_sha": sha}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one worker, one thread: the instances' matrices are at most 4 x 4
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(mode: str, config: Path, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--config", str(config),
           "--out", str(out), "--src", str(ROOT / "src")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def execute(name: str, mode: str, index: int, config: Path, run_dir: Path, ref: dict) -> dict:
    """One execution: run the child, then check its record."""
    out = run_dir / f"exec{index}"
    res = run_child(mode, config, out)
    res["mode"] = mode
    if "error" in res:
        res["errors"] = [res.pop("error")]
        return res
    errors = []
    if res["exit_code"] != 0:
        errors.append(f"CLI exit code {res['exit_code']}")
    try:
        with open(out / "results.json") as fh:
            res["record"] = json.load(fh)["record"]
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"results.json unreadable: {exc}")
    else:
        errors += check_record(name, res["record"], ref)
        res["record_sha256"] = hashlib.sha256(canonical_bytes(res["record"])).hexdigest()
    if mode == "trace":
        total = sum(res["self_s"].values())
        if abs(total - res["run_s"]) > SUM_TOL_S or min(res["self_s"].values()) < -SUM_TOL_S:
            errors.append(f"traced self times sum to {total}, run_s is {res['run_s']}")
    res["errors"] = errors
    return res


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "skewprod" / "__init__.py").is_file():
        print(f"no skewprod package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.json"
    config.write_text(json.dumps(wl.config_for(args.seed), indent=2, sort_keys=True) + "\n")
    ref = reference(wl.name)
    facts = machine_facts()

    setups = [run_child("setup", config, run_dir / f"setup{i}") for i in range(SETUP_SAMPLES)]
    bad = [s["error"] for s in setups if "error" in s]
    if bad:
        print(f"set-up failed: {bad[0]}", file=sys.stderr)
        return 3
    facts.update({k: v for k, v in setups[0]["versions"].items() if k != "python"})
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# workload {wl.name} seed {args.seed} env_tasks {wl.env_tasks}")

    round_modes = ["run", "trace"] if args.trace else ["run"]
    executions = []
    start = time.perf_counter()
    while len(executions) < MIN_EXECUTIONS or time.perf_counter() - start < args.seconds:
        for mode in round_modes:
            res = execute(wl.name, mode, len(executions), config, run_dir, ref)
            executions.append(res)
            print(f"# exec {len(executions) - 1} mode={mode} run_s={res.get('run_s')} "
                  f"run_wall_s={res.get('run_wall_s')} "
                  f"record_sha256={res.get('record_sha256')} errors={res['errors']}")

    ok = [e for e in executions if not e["errors"]]
    identity_errors = check_identical([e["record"] for e in ok])
    correct = not identity_errors
    for msg in identity_errors:
        print(f"# determinism: {msg}")
    untraced = [e for e in ok if e["mode"] == "run"]
    traced = [e for e in ok if e["mode"] == "trace"]

    if args.trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        setup_s = [s["setup_s"] for s in setups] + [e["setup_s"] for e in untraced]
        metrics = {
            "setup_s": median(setup_s),
            "run_s": median([e["run_s"] for e in untraced]),
            "envs_per_s": median([wl.env_tasks / e["run_s"] for e in untraced]),
            "peak_rss_mib": median([e["peak_rss_mib"] for e in untraced]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result = {"correct": correct, "attempted": len(executions),
              "failed": len(executions) - len(ok), "metrics": metrics}
    summary = {"facts": facts, "workload": wl.name, "seed": args.seed,
               "setups": setups, "executions": executions, "result": result}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


def per_layer_metrics(untraced: list, traced: list) -> dict:
    """Self times and counts of the median traced execution, plus tracing overhead."""
    if not traced or not untraced:
        return {}
    by_run = sorted(traced, key=lambda e: e["run_s"])
    pick = by_run[(len(by_run) - 1) // 2]
    metrics = {}
    for key in PER_LAYER_TIMES:
        metrics[key] = {"value": pick["self_s"].get(key, 0.0), "unit": "s"}
    for key in PER_LAYER_COUNTS:
        metrics[key] = {"value": pick["counts"].get(key, 0), "unit": "count"}
    overhead = median([e["run_s"] for e in traced]) - median([e["run_s"] for e in untraced])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
