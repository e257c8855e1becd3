"""Cross-cutting invariants tying the modules together."""

import math

import numpy as np
import pytest
from _instances import random_instance, scalar_instance
from _oracles import compose_cocycle

from skewprod.base_env import periodic_point, sample_base_path
from skewprod.fiber import holder_norm_vector
from skewprod.limits import classify, ndtr
from skewprod.rpf import SystemOrbit, norm_triplet_from_raw, solve_raw_orbit
from skewprod.seeding import generator
from skewprod.symbolic import SymbolicSystem, char_function_spectral, exact_Sn_distribution
from skewprod.transfer import holder_operator_norm


def test_norm_comparison_bracket():
    # raw and normalized cocycle surrogate norms stay within a uniform ratio
    rng = generator(50)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    win = sample_base_path(chain, -200, 260, 51)
    orbit = SystemOrbit(win, 0, 24, pot, model)
    t = 0.9
    ratios = []
    for n in [4, 8, 16, 24]:
        raw = compose_cocycle(win, n, 1j * t, pot, model)
        raw_rep = holder_operator_norm(raw.matrix, model, pot, n, 1j * t,
                                       log_scale=raw.log_scale)
        prod = np.eye(model.space_dim, dtype=complex)
        for j in range(n):
            prod = orbit.normalized_matrix(j, 1j * t) @ prod
        norm_rep = holder_operator_norm(prod, model, pot, n, 1j * t)
        # the raw product carries the eigenvalue growth; compare after
        # removing it (the gauge makes lambda(0) = 1 for the normalized side)
        lam = math.prod(orbit.lam0(j) for j in range(n))
        ratios.append(raw_rep.surrogate / lam / max(norm_rep.surrogate, 1e-300))
    assert max(ratios) / min(ratios) < 50.0
    assert all(np.isfinite(r) and r > 0 for r in ratios)


def test_lambda_bounded_by_operator_norm():
    # |lambda_{omega,n}(it)| <= ||nu|| ||h|| ||A_it^{omega,n}|| with the
    # recorded functional bound
    rng = generator(52)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    win = sample_base_path(chain, -300, 360, 53)
    t = 0.35
    orbit = SystemOrbit(win, 0, 16, pot, model)
    raw_z = solve_raw_orbit(win, 1j * t, 0, 16, pot, model)
    lam_prod = 1.0
    prod = np.eye(model.space_dim, dtype=complex)
    for n in range(1, 17):
        lam_n, h_n, nu_n = norm_triplet_from_raw(raw_z, orbit, n - 1)
        lam_prod *= lam_n
        prod = orbit.normalized_matrix(n - 1, 1j * t) @ prod
        rep = holder_operator_norm(prod, model, pot, n, 1j * t)
        _, h0, nu0 = norm_triplet_from_raw(raw_z, orbit, 0)
        nu_bound = float(np.sum(np.abs(nu0)))  # functional norm on the sup part
        h_bound = holder_norm_vector(h0, model.d, model.r - 1)
        A_const = nu_bound * h_bound
        assert abs(lam_prod) <= A_const * rep.certified_bound * (1 + 1e-9)


def test_classifier_soundness_no_decay_at_failure_point():
    # where classification fails, the quenched characteristic value along the
    # periodic environment does not decay in n
    chain, model, pot = scalar_instance([1.0, -1.0], lattice_h=1.0)
    rep = classify(SymbolicSystem(chain, model, pot))
    assert not rep.passed
    t_star = rep.offending_t
    win = periodic_point(chain, (0,)).window(-80, 200)
    orbit = SystemOrbit(win, 0, 64, pot, model)
    vals = [abs(char_function_spectral(win, n, t_star, pot, model, orbit))
            for n in (8, 16, 32, 64)]
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in vals)


def test_llt_clt_consistency_arithmetic():
    # summing the gaussian local approximation over |a| <= r sigma sqrt(n)
    # reproduces the CLT cdf difference within (sup error) x (point count)
    chain, model, pot = scalar_instance([0.0, 1.0], lattice_h=1.0)
    win = sample_base_path(chain, -200, 2200 + 200, 54)
    n = 600
    orbit = SystemOrbit(win, 0, n, pot, model)
    dist = exact_Sn_distribution(win, n, pot, model, orbit=orbit)
    mean = dist.mean()
    sigma_sq = 0.25
    sd = math.sqrt(sigma_sq * n)
    vals = dist.values()
    sel = np.abs(vals - mean) <= 2.0 * sd
    sup_err = float(np.max(np.abs(
        math.sqrt(2 * math.pi * sigma_sq * n) * dist.probs[sel]
        - np.exp(-((vals[sel] - mean) ** 2) / (2 * sigma_sq * n)))))
    prob_window = float(dist.probs[sel].sum())
    gauss_sum = float(np.sum(np.exp(-((vals[sel] - mean) ** 2) / (2 * sigma_sq * n)))
                      / math.sqrt(2 * math.pi * sigma_sq * n))
    count = int(sel.sum())
    cdf_window = float(ndtr(2.0) - ndtr(-2.0))
    assert abs(prob_window - gauss_sum) <= sup_err * count / math.sqrt(
        2 * math.pi * sigma_sq * n) + 1e-12
    assert prob_window == pytest.approx(cdf_window, abs=0.02)


def test_poisson_summation_sanity():
    # gaussian test function: sum_k ghat(2 pi k / h) = h sum_j g(j h)
    h = 1.0
    s = 0.7  # gaussian scale

    def g(x):
        return np.exp(-(x**2) / (2 * s**2))

    def ghat(t):  # fourier transform with the e^{-i t x} convention
        return math.sqrt(2 * math.pi) * s * np.exp(-(t**2) * s**2 / 2)

    lhs = sum(ghat(2 * math.pi * k / h) for k in range(-30, 31))
    rhs = h * sum(g(j * h) for j in range(-30, 31))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_normalized_operator_continuity_in_t():
    # ||A_it - A_0|| -> 0 linearly in t
    rng = generator(55)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    win = sample_base_path(chain, -200, 220, 56)
    orbit = SystemOrbit(win, 0, 2, pot, model)
    gaps = []
    for t in (0.2, 0.1, 0.05):
        diff = orbit.normalized_matrix(0, 1j * t) - orbit.normalized_matrix(0, 0.0)
        gaps.append(float(np.max(np.abs(diff))))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] / gaps[0] == pytest.approx(0.5, abs=0.1)
    assert gaps[2] / gaps[1] == pytest.approx(0.5, abs=0.1)
