"""Experiment orchestration: dispatch, verdicts, persistence, worker pools.

A run produces a deterministic record (hashed, byte-comparable across reruns
and worker counts) plus plot-ready CSV curves; wall-clock timing lives in a
separate section excluded from the determinism contract.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field

from . import __version__
from .base_env import sample_base_path
from .config import ExperimentConfig, canonical_record_bytes, config_hash, master_seed
from .errors import ClassifierFailed, DegenerateVariance
from .fiber import CylinderFunction
from .limits import (
    char_identity,
    clt_test,
    decay_survey,
    llt_scan,
    renewal_curve,
)
from .rpf import exp_convergence_probe, solve_rpf
from .seeding import generator


@dataclass
class RunResult:
    record: dict
    curves: dict
    timing: dict
    exit_code: int
    warnings: list = field(default_factory=list)


def _pool_pmap(executor):
    def pmap(fn, items):
        return executor.map(fn, list(items), chunksize=1)

    return pmap


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   seed_override: int | None = None, strict: bool = False) -> RunResult:
    """Execute the configured experiment and assemble the result record.

    The process pool never has more workers than the machine has CPUs.
    """
    seed = master_seed(seed_override, "--seed") if seed_override is not None else cfg.seed
    workers = max(1, min(workers, os.cpu_count() or 1))
    t0 = time.perf_counter()
    executor = None
    try:
        if workers > 1:
            # imported here: it loads multiprocessing, which one worker never uses
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(max_workers=workers)
            pmap = _pool_pmap(executor)
        else:
            pmap = None
        stats, curves, verdict, warnings, tasks = _dispatch(cfg, seed, pmap)
    finally:
        if executor is not None:
            executor.shutdown()
    elapsed = time.perf_counter() - t0
    expect_ok = _expectation_met(cfg.expect, verdict)
    record = {
        "name": cfg.name,
        "experiment": cfg.experiment,
        "expect": cfg.expect,
        "seed": seed,
        "config_hash": config_hash(cfg.raw),
        "tool_version": __version__,
        "verdicts": {
            "outcome": verdict,
            "expectation_met": expect_ok,
            "passed": expect_ok and (not strict or not warnings),
        },
        "warnings": warnings,
        "stats": stats,
        "task_counts": tasks,
    }
    exit_code = 0 if record["verdicts"]["passed"] else 1
    return RunResult(record, curves, {"wall_clock_seconds": elapsed,
                                      "workers": workers}, exit_code, warnings)


def _expectation_met(expect: str, verdict: str) -> bool:
    return expect in ("pass", "degenerate", "classifier-failure") and verdict == expect


def _dispatch(cfg: ExperimentConfig, seed: int, pmap):
    """Returns (stats, curves, verdict, warnings, task_counts).

    verdict is one of "pass", "fail", "degenerate", "classifier-failure".
    """
    try:
        return RUNNERS[cfg.statement](cfg, cfg.system, seed, pmap)
    except ClassifierFailed as exc:
        return {"classifier_error": str(exc)}, {}, "classifier-failure", [], {}
    except DegenerateVariance:
        return {"error": "degenerate variance"}, {}, "degenerate", [], {}


def _pass(ok: bool) -> str:
    return "pass" if ok else "fail"


def _omega(cfg) -> dict:
    return {"omega_samples": cfg.samples["omega_samples"]}


def _rpf_audit(cfg, system, seed, pmap):
    rows = []
    for i in range(min(cfg.samples["omega_samples"], 24)):
        win = sample_base_path(system.chain, -300, 360, generator(seed, 400, i))
        trip = solve_rpf(win, 0.0, 64, 64, system.pot, system.model)
        q = CylinderFunction(system.model.r - 1,
                             generator(seed, 401, i).standard_normal(
                                 system.model.space_dim), system.model.d)
        fit = exp_convergence_probe(win, 0.0, q, list(range(2, 31)),
                                    system.pot, system.model)
        rows.append({"window": i, "eigen": trip.eigen_residual,
                     "dual": trip.dual_residual,
                     "normalization": trip.normalization_residual,
                     "conv_rate": 0.0 if fit.degenerate else fit.c})
    worst = max([0.0] + [row[k] for row in rows for k in ("eigen", "dual", "normalization")])
    fits = [row["conv_rate"] for row in rows]
    ok = worst < cfg.tolerances["rpf_residual"] and all(c < 0.9 for c in fits)
    stats = {"max_residual": worst, "max_conv_rate": max(fits), "windows": len(rows)}
    return stats, {"rpf_audit": rows}, _pass(ok), [], {"windows": len(rows)}


def _clt(cfg, system, seed, pmap):
    rep = clt_test(system, cfg.grids["n_list"], cfg.samples["omega_samples"],
                   cfg.samples["fiber_replicates"], seed, ks_threshold=cfg.tolerances["ks"],
                   strata_depth=cfg.samples["strata_depth"], pmap=pmap)
    curves = {"clt": [{"n": n, "ks": k, "threshold": rep.threshold}
                      for n, k in zip(rep.n_list, rep.ks)]}
    stats = {"sigma_sq": rep.sigma_sq, "ks": rep.ks,
             "pooled_samples": rep.pooled_samples,
             "degenerate_max_abs": rep.degenerate_max_abs}
    verdict = ("degenerate" if rep.degenerate else "pass") if rep.passed else "fail"
    return stats, curves, verdict, [], _omega(cfg)


def _llt(cfg, system, seed, pmap):
    rep = llt_scan(system, cfg.grids["n_list"], cfg.samples["omega_samples"], seed,
                   threshold=cfg.tolerances["llt_sup"],
                   strata_depth=cfg.samples["strata_depth"], pmap=pmap)
    curves = {"llt": [{"n": n, "sup_dev": s, "threshold": rep.threshold}
                      for n, s in zip(rep.n_list, rep.sup_dev)]}
    stats = {"sigma_sq": rep.sigma_sq, "sigma_sq_quenched": rep.sigma_sq_quenched,
             "sigma_sq_means": rep.sigma_sq_means, "sup_dev": rep.sup_dev,
             "classifier_min_gap": rep.classifier.min_gap}
    return stats, curves, _pass(rep.passed), [], _omega(cfg)


def _renewal(cfg, system, seed, pmap):
    lw = cfg.renewal["limit_window"]
    rep = renewal_curve(system, cfg.grids["a_list"], cfg.renewal["truncation"],
                        cfg.samples["omega_samples"], seed, f_weights=cfg.renewal["f"],
                        strata_depth=cfg.samples["strata_depth"],
                        rel_tol=cfg.tolerances["renewal_rel"],
                        limit_window=tuple(lw) if lw else None,
                        negative_tol=cfg.tolerances["renewal_negative"], pmap=pmap)
    curves = {"renewal": [{"a": a, "U": u, "target": rep.target}
                          for a, u in zip(rep.a_list, rep.U)]}
    stats = {"gamma": rep.gamma, "mu_f": rep.mu_f, "target": rep.target,
             "rel_err_window": rep.rel_err_window,
             "negative_side_max": rep.negative_side_max,
             "tail_bound": rep.tail_bound}
    warnings = []
    if rep.tail_bound > 1e-3:
        warnings.append(f"renewal tail bound {rep.tail_bound:.2e} is not small; "
                        "increase the truncation")
    return stats, curves, _pass(rep.passed), warnings, _omega(cfg)


def _decay(cfg, system, seed, pmap):
    rep = decay_survey(system, cfg.grids["t_small"], cfg.grids["t_large"],
                       cfg.grids["n_grid"], cfg.samples["omega_samples"], seed,
                       strata_depth=cfg.samples["strata_depth"], pmap=pmap)
    rows = [{"branch": "small_t", "n": n, "violation_frac": rep.small_violation_frac[n]}
            for n in rep.n_grid]
    rows += [{"branch": "large_t", "n": n, "violation_frac": rep.large_violation_frac[n]}
             for n in rep.n_grid]
    stats = {"d2_fit": rep.d2_fit, "A_fit": rep.A_fit, "u_fit": rep.u_fit,
             "B0_fit": rep.B0_fit,
             "small_violation_frac": rep.small_violation_frac,
             "large_violation_frac": rep.large_violation_frac}
    return stats, {"decay": rows}, _pass(rep.small_ok and rep.large_ok), [], _omega(cfg)


def _char(cfg, system, seed, pmap):
    rep = char_identity(system, cfg.grids["t_grid"], cfg.grids["n_list"],
                        cfg.samples["omega_samples"], cfg.samples["mc_replicates"], seed,
                        strata_depth=cfg.samples["strata_depth"],
                        exact_tol=cfg.tolerances["char_exact"], pmap=pmap)
    stats = {"max_exact_spectral_gap": rep.max_exact_spectral_gap,
             "mc_within_band": rep.mc_within_band}
    rows = [{"t": t, "n": n} for t, n in rep.grid]
    return stats, {"char_grid": rows}, _pass(rep.passed), [], {"grid_points": len(rep.grid)}


# the statement (a key of `config.EXPERIMENTS`) -> the function that runs it
# on either kind of system and returns (stats, curves, verdict, warnings,
# task_counts)
RUNNERS = {
    "rpf-audit": _rpf_audit,
    "clt": _clt,
    "llt": _llt,
    "renewal": _renewal,
    "decay-survey": _decay,
    "char-fn": _char,
}


def write_results(out_dir: str, result: RunResult) -> str:
    os.makedirs(out_dir, exist_ok=True)
    curves_dir = os.path.join(out_dir, "curves")
    files = {}
    if result.curves:
        os.makedirs(curves_dir, exist_ok=True)
        for name, rows in result.curves.items():
            if not rows:
                continue
            path = os.path.join(curves_dir, f"{name}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            files[name] = os.path.relpath(path, out_dir)
    record = dict(result.record)
    record["curve_files"] = files
    payload = {
        "record": json.loads(canonical_record_bytes(record)),
        "timing": result.timing,
    }
    path = os.path.join(out_dir, "results.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def record_bytes_from_file(path: str) -> bytes:
    """Canonical record bytes of a results.json (timing excluded)."""
    with open(path) as fh:
        payload = json.load(fh)
    return canonical_record_bytes(payload["record"])
