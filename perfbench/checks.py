"""Output checks against answers computed apart from skewprod.

Nothing here imports the package under test.  Each workload's reference
answer comes from a closed form or from a small computation written here:

* clt-scalar: sigma^2 = sum_s p_s Var_s = 10/7 for the two-state base, with a
  tolerance derived from the variance ensemble's size, and the pooled sample
  count environments x replicates;
* llt-scalar, llt-doeblin: every environment's law is Binomial(n, 1/2), so
  sigma^2 = 1/4 and each sup_dev is recomputed from `scipy.stats.binom`;
* llt-matrix: the fiber weights and the observable do not depend on the base
  symbol, so the law is that of a stationary two-state Markov chain; a lattice
  DP of that chain gives sigma^2 and each sup_dev.

A check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.stats import binom

from workloads import MATRIX_U, MATRIX_W, STRATA, WORKLOADS, Workload

EXACT_TOL = 1e-9        # sigma^2 (relative) and sup_dev (absolute) on exact laws
CLT_SIGMA_Z = 5.0       # standard deviations allowed for the fitted CLT sigma^2
CLT_VARIANCE_N = (64, 128, 256)    # clt_test's variance fit points
LLT_HALFWIDTH_SIGMAS = 4.0         # llt_scan's scan half-width


# ---------------------------------------------------------------------------
# reference laws


def binomial_law(n: int, p: float = 0.5):
    values = np.arange(n + 1, dtype=float)
    return values, binom.pmf(np.arange(n + 1), n, p)


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(P.T)
    v = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    return v / v.sum()


def fiber_chain_law(W, u, n: int):
    """Law of S_n for the stationary fiber chain of the llt-matrix workload.

    The chain moves from state w to state a with probability W[w][a] and adds
    u[a * 2 + w]; it starts from the stationary law of W.  Returns the lattice
    values and their probabilities.
    """
    W = np.asarray(W, dtype=float)
    q = W.shape[0]
    steps = np.rint(np.asarray(u, dtype=float)).astype(int).reshape(q, q)  # [a, w]
    top = int(steps.max())
    cur = np.zeros((q, n * top + 1))
    cur[:, 0] = stationary_distribution(W)
    for _ in range(n):
        nxt = np.zeros_like(cur)
        for w in range(q):
            for a in range(q):
                k = steps[a, w]
                nxt[a, k:] += W[w, a] * cur[w, :cur.shape[1] - k]
        cur = nxt
    probs = cur.sum(axis=0)
    return np.arange(len(probs), dtype=float), probs


def law_variance(values: np.ndarray, probs: np.ndarray) -> float:
    mean = values @ probs
    return float(((values - mean) ** 2) @ probs)


def fiber_chain_sigma_sq(W, u, n1: int = 64, n2: int = 128) -> float:
    """Asymptotic variance of the fiber chain: Var(S_n) is affine in n up to
    lambda_2^n, so its slope between two n far past the mixing time is exact."""
    v1 = law_variance(*fiber_chain_law(W, u, n1))
    v2 = law_variance(*fiber_chain_law(W, u, n2))
    return (v2 - v1) / (n2 - n1)


def llt_sup_dev(values: np.ndarray, probs: np.ndarray, sigma_sq: float, n: int,
                h: float = 1.0, halfwidth: float = LLT_HALFWIDTH_SIGMAS) -> float:
    """sup over lattice points within `halfwidth` sd of the mean of
    |sigma sqrt(2 pi n) P(S_n = a) - h exp(-(a - mean)^2 / (2 sigma^2 n))|."""
    mean = float(values @ probs)
    sd = math.sqrt(sigma_sq * n)
    sel = np.abs(values - mean) <= halfwidth * sd
    dev = np.abs(math.sqrt(2 * math.pi * sigma_sq * n) * probs[sel]
                 - h * np.exp(-((values[sel] - mean) ** 2) / (2 * sigma_sq * n)))
    return float(np.max(dev))


# ---------------------------------------------------------------------------
# CLT: sigma^2 of the two-state base and its ensemble tolerance


def symbol_step_variances(phi, u) -> np.ndarray:
    """Per-base-symbol variance of one fiber step for r = 1 potentials."""
    p = np.exp(np.asarray(phi, dtype=float))
    p /= p.sum(axis=1, keepdims=True)
    u = np.asarray(u, dtype=float)
    mean = (p * u).sum(axis=1)
    return (p * (u - mean[:, None]) ** 2).sum(axis=1)


def clt_sigma_sq_reference(wl: Workload):
    """(sigma^2, tolerance) for the clt-scalar fit.

    The quenched variance is V_n(omega) = sum_{j<n} f(omega_j) with f the
    per-symbol step variance, so the runner's least-squares slope over
    CLT_VARIANCE_N is X = sum_j b_j f(omega_j) averaged over the stratified
    ensemble.  Its mean is pi.f.  With `per` windows in each stratum s of
    probability p_s, Var = sum_s p_s^2 Var(X | s) / per <= max_s p_s Var(X) / per,
    and Var(X) is exact for the stationary base chain.
    """
    cfg = wl.config
    Q = np.asarray(cfg["base"]["transition"], dtype=float)
    f = symbol_step_variances(cfg["potentials"]["phi"], cfg["potentials"]["u"])
    pi = stationary_distribution(Q)
    sigma_sq = float(pi @ f)
    ns = np.asarray(CLT_VARIANCE_N, dtype=float)
    c = (ns - ns.mean()) / ((ns - ns.mean()) ** 2).sum()
    n_max = int(ns.max())
    b = np.array([c[ns > j].sum() for j in range(n_max)])
    # autocovariance of f(omega_j) at lags 0..n_max-1
    acov = np.empty(n_max)
    g = f.copy()
    for lag in range(n_max):
        acov[lag] = float(pi @ (f * g)) - sigma_sq ** 2
        g = Q @ g
    lags = np.abs(np.subtract.outer(np.arange(n_max), np.arange(n_max)))
    var_x = float(b @ acov[lags] @ b)
    per = math.ceil(wl.variance_envs / STRATA)
    p_max = float(np.max(pi[:, None] * Q))  # depth-2 cylinder probabilities
    return sigma_sq, CLT_SIGMA_Z * math.sqrt(p_max * var_x / per)


# ---------------------------------------------------------------------------
# per-workload references and checks


def reference(name: str) -> dict:
    """Reference answers for one workload; independent of the seed."""
    wl = WORKLOADS[name]
    if name == "clt-scalar":
        sigma_sq, tol = clt_sigma_sq_reference(wl)
        return {"sigma_sq": sigma_sq, "sigma_sq_tol": tol,
                "pooled_samples": wl.main_envs * wl.config["samples"]["fiber_replicates"]}
    if name == "llt-matrix":
        sigma_sq = fiber_chain_sigma_sq(MATRIX_W, MATRIX_U)
        laws = {n: fiber_chain_law(MATRIX_W, MATRIX_U, n) for n in wl.n_list}
    else:
        sigma_sq = 0.25
        laws = {n: binomial_law(n) for n in wl.n_list}
    return {"sigma_sq": sigma_sq,
            "sup_dev": [llt_sup_dev(*laws[n], sigma_sq, n) for n in wl.n_list]}


def check_record(name: str, record: dict, ref: dict) -> list:
    """Compare one results.json record with the workload's reference answer."""
    errors = []
    verdicts = record.get("verdicts", {})
    if verdicts.get("outcome") != "pass" or verdicts.get("passed") is not True:
        errors.append(f"verdict {verdicts.get('outcome')!r}, passed="
                      f"{verdicts.get('passed')!r}; expected a pass")
    stats = record.get("stats", {})
    sigma_sq = stats.get("sigma_sq")
    if not isinstance(sigma_sq, (int, float)):
        return errors + [f"stats.sigma_sq missing: {sigma_sq!r}"]
    if name == "clt-scalar":
        if abs(sigma_sq - ref["sigma_sq"]) > ref["sigma_sq_tol"]:
            errors.append(f"sigma_sq {sigma_sq!r} is not within {ref['sigma_sq_tol']:.3g} "
                          f"of {ref['sigma_sq']!r}")
        if stats.get("pooled_samples") != ref["pooled_samples"]:
            errors.append(f"pooled_samples {stats.get('pooled_samples')!r}, expected "
                          f"{ref['pooled_samples']}")
        return errors
    if abs(sigma_sq - ref["sigma_sq"]) > EXACT_TOL * abs(ref["sigma_sq"]):
        errors.append(f"sigma_sq {sigma_sq!r}, expected {ref['sigma_sq']!r}")
    sups = stats.get("sup_dev")
    if not isinstance(sups, list) or len(sups) != len(ref["sup_dev"]):
        return errors + [f"sup_dev {sups!r} does not match the n grid"]
    for n, got, want in zip(WORKLOADS[name].n_list, sups, ref["sup_dev"]):
        if abs(got - want) > EXACT_TOL:
            errors.append(f"sup_dev at n={n} is {got!r}, expected {want!r}")
    return errors


def canonical_bytes(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def check_identical(records: list) -> list:
    """Repeated executions of one config and seed must give byte-identical records."""
    if not records:
        return []
    first = canonical_bytes(records[0])
    return [f"execution {i} record differs from execution 0"
            for i, r in enumerate(records[1:], start=1) if canonical_bytes(r) != first]
