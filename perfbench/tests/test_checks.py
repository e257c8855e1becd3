"""The benchmark's output checks accept the right answer and reject wrong ones.

    python3 -m pytest perfbench/tests -q

Records are built from the reference answers, then perturbed; nothing here
runs skewprod.
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from workloads import MATRIX_U, MATRIX_W, WORKLOADS  # noqa: E402

LLT = ["llt-scalar", "llt-matrix", "llt-doeblin"]


@pytest.fixture(scope="module")
def refs():
    return {name: checks.reference(name) for name in WORKLOADS}


def record(stats: dict, outcome: str = "pass") -> dict:
    return {"verdicts": {"outcome": outcome, "passed": outcome == "pass",
                         "expectation_met": outcome == "pass"},
            "stats": stats}


def llt_record(ref, **over):
    return record(dict({"sigma_sq": ref["sigma_sq"], "sup_dev": list(ref["sup_dev"]),
                        "classifier_min_gap": 0.1}, **over))


def clt_record(ref, **over):
    return record(dict({"sigma_sq": ref["sigma_sq"], "ks": [0.01, 0.01],
                        "pooled_samples": ref["pooled_samples"]}, **over))


@pytest.mark.parametrize("name", LLT)
def test_llt_reference_record_passes(refs, name):
    assert checks.check_record(name, llt_record(refs[name]), refs[name]) == []


def test_clt_reference_record_passes(refs):
    assert checks.check_record("clt-scalar", clt_record(refs["clt-scalar"]),
                               refs["clt-scalar"]) == []


@pytest.mark.parametrize("name", ["llt-scalar", "llt-doeblin"])
def test_binomial_with_p_051_is_rejected(refs, name):
    ref = refs[name]
    sups = [checks.llt_sup_dev(*checks.binomial_law(n, 0.51), 0.25, n)
            for n in WORKLOADS[name].n_list]
    errors = checks.check_record(name, llt_record(ref, sup_dev=sups), ref)
    assert len(errors) == len(sups)


@pytest.mark.parametrize("name", LLT)
def test_sigma_sq_off_by_one_percent_is_rejected(refs, name):
    ref = refs[name]
    errors = checks.check_record(name, llt_record(ref, sigma_sq=ref["sigma_sq"] * 1.01), ref)
    assert len(errors) == 1 and "sigma_sq" in errors[0]


def test_matrix_law_of_another_chain_is_rejected(refs):
    ref = refs["llt-matrix"]
    W = [[0.61, 0.39], [0.3, 0.7]]
    sigma_sq = checks.fiber_chain_sigma_sq(W, MATRIX_U)
    sups = [checks.llt_sup_dev(*checks.fiber_chain_law(W, MATRIX_U, n), sigma_sq, n)
            for n in WORKLOADS["llt-matrix"].n_list]
    errors = checks.check_record("llt-matrix", llt_record(ref, sigma_sq=sigma_sq,
                                                          sup_dev=sups), ref)
    assert len(errors) == 1 + len(sups)


@pytest.mark.parametrize("name", LLT)
def test_sup_dev_off_by_1e8_is_rejected(refs, name):
    ref = refs[name]
    sups = list(ref["sup_dev"])
    sups[-1] += 1e-8
    assert len(checks.check_record(name, llt_record(ref, sup_dev=sups), ref)) == 1


@pytest.mark.parametrize("name", LLT)
def test_missing_sup_dev_is_rejected(refs, name):
    ref = refs[name]
    assert checks.check_record(name, llt_record(ref, sup_dev=ref["sup_dev"][:-1]), ref)


def test_failed_verdict_is_rejected(refs):
    ref = refs["llt-scalar"]
    assert checks.check_record("llt-scalar", record(llt_record(ref)["stats"], "fail"), ref)
    ref = refs["clt-scalar"]
    assert checks.check_record("clt-scalar", record(clt_record(ref)["stats"], "fail"), ref)


def test_clt_sigma_sq_outside_tolerance_is_rejected(refs):
    ref = refs["clt-scalar"]
    assert ref["sigma_sq"] == pytest.approx(10 / 7, rel=1e-12)
    assert 0 < ref["sigma_sq_tol"] < 0.1 * ref["sigma_sq"]
    inside = clt_record(ref, sigma_sq=ref["sigma_sq"] + 0.9 * ref["sigma_sq_tol"])
    outside = clt_record(ref, sigma_sq=ref["sigma_sq"] - 1.1 * ref["sigma_sq_tol"])
    assert checks.check_record("clt-scalar", inside, ref) == []
    assert len(checks.check_record("clt-scalar", outside, ref)) == 1


def test_clt_pooled_sample_count_is_checked(refs):
    ref = refs["clt-scalar"]
    wl = WORKLOADS["clt-scalar"]
    assert ref["pooled_samples"] == wl.main_envs * 250 == 32 * 250
    bad = clt_record(ref, pooled_samples=ref["pooled_samples"] - 250)
    assert len(checks.check_record("clt-scalar", bad, ref)) == 1


def test_differing_records_are_reported():
    a = record({"sigma_sq": 0.25})
    b = record({"sigma_sq": 0.25 + 1e-16})
    assert checks.check_identical([a, a, dict(a)]) == []
    assert checks.check_identical([a, a, b]) == ["execution 2 record differs from execution 0"]


def test_fiber_chain_law_matches_path_enumeration():
    W = np.asarray(MATRIX_W)
    pi = checks.stationary_distribution(W)
    n = 6
    brute = {}
    for path in itertools.product(range(2), repeat=n + 1):
        p = pi[path[0]]
        s = 0.0
        for w, a in zip(path, path[1:]):
            p *= W[w, a]
            s += MATRIX_U[a * 2 + w]
        brute[s] = brute.get(s, 0.0) + p
    values, probs = checks.fiber_chain_law(MATRIX_W, MATRIX_U, n)
    for v, p in zip(values, probs):
        assert p == pytest.approx(brute.get(v, 0.0), abs=1e-15)


def test_clt_sigma_sq_tolerance_covers_simulated_fits():
    """The tolerance is at least CLT_SIGMA_Z standard deviations of the fit."""
    wl = WORKLOADS["clt-scalar"]
    sigma_sq, tol = checks.clt_sigma_sq_reference(wl)
    Q = np.asarray(wl.config["base"]["transition"])
    f = checks.symbol_step_variances(wl.config["potentials"]["phi"],
                                     wl.config["potentials"]["u"])
    rng = np.random.default_rng(7)
    pi = checks.stationary_distribution(Q)
    reps, envs, n_max = 400, 16, max(checks.CLT_VARIANCE_N)
    ns = np.asarray(checks.CLT_VARIANCE_N, dtype=float)
    fits = []
    for _ in range(reps):
        s = np.empty((envs, n_max), dtype=int)
        s[:, 0] = rng.random(envs) < pi[1]
        for j in range(1, n_max):
            s[:, j] = rng.random(envs) < Q[s[:, j - 1], 1]
        V = np.cumsum(f[s], axis=1)[:, ns.astype(int) - 1].mean(axis=0)
        fits.append(np.polyfit(ns, V, 1)[0])
    assert abs(np.mean(fits) - sigma_sq) < 3 * np.std(fits) / math.sqrt(reps)
    assert tol >= checks.CLT_SIGMA_Z * np.std(fits) * 0.9
