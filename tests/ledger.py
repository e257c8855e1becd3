"""The record ledger: what every shipped and small config's record is.

`tests/records.json` holds, for each config at its seed, the outcome, the
SHA-256 of the record's canonical bytes and every `stats` number, with the
numpy version it was written with.  It covers the bundled presets, the
configs in `tests/configs`, the small runs of every experiment (`SMALL_RUNS`)
and the benchmark workloads at the benchmark seed.  A change that moves a
record rewrites the ledger, and the ledger's diff names what moved:

    PYTHONPATH=src python tests/ledger.py

`check_record` compares a one-worker record with its entry: the outcome
exactly, every number to `REL_TOL` relative (or `ABS_FLOOR` absolute, for
rounding-level zeros), and the hash when numpy's version is the ledger's.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from skewprod.config import canonical_record_bytes, parse_config
from skewprod.presets import PRESETS, preset_config

TESTS = Path(__file__).resolve().parent
LEDGER = TESTS / "records.json"
REL_TOL = 1e-9  # perfbench/checks.py's tolerance on exact figures
ABS_FLOOR = 1e-12  # below this a number is a rounding-level zero


def small_variant(preset, experiment, grids, **samples):
    """A preset run as another experiment on a small ensemble."""
    cfg = preset_config(preset)
    cfg["experiment"], cfg["grids"] = experiment, grids
    cfg["samples"] = {"omega_samples": 8, "strata_depth": 1, **samples}
    return cfg


def _small_clt():
    cfg = preset_config("two-state-base-lattice")
    cfg["grids"]["n_list"] = [200]
    cfg["samples"] = {"omega_samples": 32, "fiber_replicates": 128, "strata_depth": 1}
    return cfg


def _small_renewal():
    cfg = small_variant("renewal-gamma-3-2", "renewal",
                        {"a_list": [-15, -10] + list(range(24, 37, 2))})
    cfg["renewal"] = {"truncation": 60, "limit_window": [26, 36]}
    cfg["seed"] = 77
    return cfg


# one small passing config per experiment name the runner knows
SMALL_RUNS = {
    "rpf-audit": small_variant("matrix-llt", "rpf-audit", {}),
    "clt": _small_clt(),
    "llt": small_variant("scalar-iid", "llt", {"n_list": [200, 400]}),
    "renewal": _small_renewal(),
    "decay-survey": small_variant("matrix-llt", "decay-survey", {"n_grid": [50, 100]}),
    "char-fn": small_variant("matrix-llt", "char-fn", {"n_list": [4, 8]}),
    "doeblin-clt": small_variant("doeblin-iid", "doeblin-clt", {"n_list": [2000]},
                                 omega_samples=16, fiber_replicates=1024),
    "doeblin-llt": small_variant("doeblin-iid", "doeblin-llt", {"n_list": [200, 400]}),
    "doeblin-renewal": small_variant("doeblin-iid", "doeblin-renewal", {}),
    "doeblin-char": small_variant("doeblin-iid", "doeblin-char", {"n_list": [4, 8]}),
}


def benchmark_configs() -> dict:
    """The benchmark workloads' configs at the benchmark seed."""
    path = TESTS.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: w.config_for(workloads.DEFAULT_SEED) for name, w in workloads.WORKLOADS.items()}


def ledger_configs() -> dict:
    """Every config the ledger covers, by its ledger name."""
    configs = {f"preset/{name}": preset_config(name) for name in PRESETS}
    for path in sorted((TESTS / "configs").glob("*.json")):
        configs[f"config/{path.stem}"] = json.loads(path.read_text())
    configs.update({f"small/{name}": copy.deepcopy(cfg) for name, cfg in SMALL_RUNS.items()})
    configs.update({f"benchmark/{name}": cfg for name, cfg in benchmark_configs().items()})
    return configs


def record_entry(record: dict) -> dict:
    """A record's ledger entry: its seed, outcome, hash and stats."""
    data = canonical_record_bytes(record)
    return {"seed": record["seed"], "outcome": record["verdicts"]["outcome"],
            "sha256": hashlib.sha256(data).hexdigest(),
            "stats": json.loads(data)["stats"]}


def load_ledger() -> dict:
    return json.loads(LEDGER.read_text())


def _close(got, want) -> bool:
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_FLOOR)


def stats_differences(got, want, path="stats") -> list:
    """Where two JSON stats trees differ: a number beyond the tolerance, any
    other value, a key or a length."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in stats_differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in stats_differences(g, w, f"{path}[{i}]")]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
    if numbers:
        return [] if _close(got, want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def check_record(name: str, record: dict, ledger: dict | None = None) -> None:
    """Assert that `record` is the ledger's entry `name`."""
    ledger = load_ledger() if ledger is None else ledger
    want, got = ledger["records"][name], record_entry(record)
    assert got["seed"] == want["seed"], (name, got["seed"], want["seed"])
    assert got["outcome"] == want["outcome"], (name, got["outcome"], want["outcome"])
    diffs = stats_differences(got["stats"], want["stats"])
    assert not diffs, f"{name}: {diffs}"
    if ledger["numpy"] == np.__version__:
        assert got["sha256"] == want["sha256"], f"{name}: record bytes moved"


def main() -> None:
    from skewprod.runner import run_experiment

    records = {}
    for name, cfg in ledger_configs().items():
        record = run_experiment(parse_config(cfg)).record
        records[name] = record_entry(record)
        print(name, records[name]["outcome"], records[name]["sha256"][:12])
    LEDGER.write_text(json.dumps({"numpy": np.__version__, "records": records},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {LEDGER}")


if __name__ == "__main__":
    main()
