"""Exact Birkhoff moments from the step tables' one pass, against O(k^2) and per-step oracles."""

import dataclasses

import numpy as np
import pytest
from _instances import random_doeblin
from _oracles import deep_apply_normalized, prob_at
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod.base_env import build_markov_base, sample_base_path
from skewprod.doeblin import DoeblinSystem, build_doeblin_family
from skewprod.fiber import FiberModel, PotentialTable, holder_norm_vector
from skewprod.gibbs import StepTable
from skewprod.limits import _accumulate_mixtures, clt_test
from skewprod.rpf import SystemOrbit
from skewprod.seeding import generator
from skewprod.symbolic import SymbolicSystem
from skewprod.transfer import key_matrices, symbol_keys


def oracle_moments(orbit, k):
    """(mean, variance) of the k-step sum by the O(k^2) quadrature: one
    deep_apply_normalized call per step and per ordered pair of steps."""
    pot, win, d, r = orbit.pot, orbit.window, orbit.model.d, orbit.model.r

    def u_at(j):
        return pot.u[win.symbol(j), win.symbol(j + 1)] if pot.u_next_symbol \
            else pot.u[win.symbol(j)]

    means = np.empty(k)
    second = 0.0
    for j in range(k):
        uj = u_at(j)
        stepped = np.real(deep_apply_normalized(orbit, j, uj, r))
        means[j] = orbit.mu[j + 1] @ stepped
        second += orbit.mu[j + 1] @ np.real(deep_apply_normalized(orbit, j, uj * uj, r))
        F = stepped
        for l in range(j + 1, k):
            cross = np.real(deep_apply_normalized(orbit, l, u_at(l) * np.repeat(F, d), r))
            second += 2.0 * orbit.mu[l + 1] @ cross
            F = orbit.normalized_matrix(l) @ F
    mean = means.sum()
    return mean, second - mean * mean


def oracle_raw_solve(window, z, j_lo, j_hi, pot, model, back, fwd):
    """The truncated solve one position at a time over each position's raw
    matrix: (H, V, lam, eigen residual, dual residual) with dicts keyed by
    position."""
    mats = key_matrices(z, pot, model)

    def matrix(p):
        return mats[symbol_keys(window, pot, p, p + 1)[0]]

    D, d, depth, alpha = model.space_dim, model.d, model.r - 1, model.alpha
    H, V, lam = {}, {}, {}
    h = np.ones(D)
    for p in range(j_lo - back, j_hi):
        if p >= j_lo:
            H[p] = h
        h = matrix(p) @ h
        h = h / np.max(np.abs(h))
    H[j_hi] = h
    v = np.full(D, 1.0 / D)
    for p in range(j_hi + fwd - 1, j_lo - 1, -1):
        w = v @ matrix(p)
        v = w / np.sum(w)
        if p <= j_hi:
            V[p] = v
    for j in range(j_lo, j_hi + 1):
        H[j] = H[j] / (V[j] @ H[j])
    eig = dual = 0.0
    for j in range(j_lo, j_hi):
        M = matrix(j)
        lam[j] = V[j + 1] @ (M @ H[j])
        eig = max(eig, holder_norm_vector(M @ H[j] - lam[j] * H[j + 1], d, depth, alpha)
                  / holder_norm_vector(H[j], d, depth, alpha))
        dual = max(dual, np.max(np.abs(V[j + 1] @ M - lam[j] * V[j])) / np.max(np.abs(V[j])))
    return H, V, lam, eig, dual


@st.composite
def symbolic_instances(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = generator(seed)
    n_symbols = draw(st.integers(1, 3))
    d, r = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    pair = draw(st.booleans())
    lattice = draw(st.booleans())
    Q = rng.uniform(0.2, 1.0, size=(n_symbols, n_symbols))
    chain = build_markov_base(Q / Q.sum(axis=1, keepdims=True), allow_deterministic=True)
    model = FiberModel(d, r)
    phi = 0.6 * rng.standard_normal((n_symbols, d**r))
    shape = (n_symbols, n_symbols, d**r) if pair else (n_symbols, d**r)
    u = rng.integers(-2, 3, size=shape).astype(float) if lattice else rng.standard_normal(shape)
    pot = PotentialTable(phi, u, model, lattice_h=1.0 if lattice else None,
                         u_next_symbol=pair)
    return SymbolicSystem(chain, model, pot), draw(st.integers(1, 8)), seed


@settings(max_examples=100, deadline=None)
@given(symbolic_instances())
def test_symbolic_moments_match_quadrature_oracle(instance):
    system, k, seed = instance
    window = sample_base_path(system.chain, -300, 300, seed)
    orbit = system.orbit(window, k, tol=1e-11)
    ms = sorted({1, (k + 1) // 2, k})
    for m, table_mean, table_var in zip(ms, *system.forward_table(orbit, k).moments(ms)):
        mean, var = oracle_moments(orbit, m)
        assert table_mean == pytest.approx(mean, rel=1e-9, abs=1e-12)
        assert table_var == pytest.approx(var, rel=1e-9, abs=1e-12)
        if system.lattice_h is not None:
            law = system.step_table(orbit, m).law()
            assert table_mean == pytest.approx(law.mean(), rel=1e-9, abs=1e-11)
            assert table_var == pytest.approx(law.variance(), rel=1e-9, abs=1e-11)
    if system.model.space_dim > 1:
        raw = orbit.raw0
        H, V, lam, eig, dual = oracle_raw_solve(window, 0.0, 0, k, system.pot, system.model,
                                                raw.back_used, raw.fwd_used)
        for j in range(k + 1):
            mu = H[j] * V[j] / np.sum(H[j] * V[j])
            assert np.max(np.abs(orbit.mu[j] - mu)) < 1e-12
        for j in range(k):
            assert raw.lam[j] == pytest.approx(lam[j], rel=1e-12)
        assert raw.eigen_residual == pytest.approx(eig, abs=1e-12)
        assert raw.dual_residual == pytest.approx(dual, abs=1e-12)


def test_orbit_state_is_arrays():
    rng = generator(5)
    chain = build_markov_base([[0.7, 0.3], [0.4, 0.6]])
    model = FiberModel(2, 2)
    pot = PotentialTable(0.5 * rng.standard_normal((2, 4)), rng.standard_normal((2, 4)), model)
    window = sample_base_path(chain, -200, 200, 6)
    orbit = SystemOrbit(window, 0, 30, pot, model)
    assert orbit.mu.shape == orbit.raw0.H.shape == orbit.raw0.V.shape == (31, 2)
    assert orbit.raw0.lam.shape == orbit.keys.shape == (30,)
    assert np.array_equal(orbit.keys, window.symbols(0, 29))
    assert np.allclose(orbit.mu.sum(axis=1), 1.0)
    probs, targets, u = orbit.kernel_arrays()
    assert probs.shape == targets.shape == u.shape == (30, 2, 2)
    for j in (0, 17, 29):
        M = orbit.normalized_matrix(j)
        assert np.allclose(M.sum(axis=1), 1.0)
        # the normalized matrix fixes constants and carries mu_{j+1} to mu_j
        assert np.allclose(orbit.mu[j + 1] @ M, orbit.mu[j], atol=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_doeblin_variance_matches_exact_law(seed):
    rng = generator(71, seed)
    system = random_doeblin(rng, q=3, n_symbols=2)
    window = sample_base_path(system.chain, -80, 220, seed)
    orbit = system.orbit(window, 200)
    ks = [1, 7, 50, 200]
    for k, mean, var in zip(ks, *system.forward_table(orbit, 200).moments(ks)):
        law = system.step_table(orbit, k).law()
        assert mean == pytest.approx(law.mean(), rel=1e-12)
        assert var == pytest.approx(law.variance(), rel=1e-11)


@st.composite
def doeblin_instances(draw):
    """Doeblin chains of q = 1-4 states, kernels of full or rank one, from
    the invariant family or a configured start."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = generator(seed)
    system = random_doeblin(rng, q=draw(st.integers(1, 4)), n_symbols=draw(st.integers(2, 3)),
                            initial=draw(st.booleans()))
    if draw(st.booleans()):
        kernels = np.repeat(system.family.kernels[:, :1], system.family.n_states, axis=1)
        system = dataclasses.replace(system, family=dataclasses.replace(system.family,
                                                                        kernels=kernels))
    return system, draw(st.integers(1, 40)), seed


@settings(max_examples=60, deadline=None)
@given(doeblin_instances())
def test_doeblin_moments_match_exact_law(instance):
    system, n, seed = instance
    window = sample_base_path(system.chain, -80, n + 20, seed)
    orbit = system.orbit(window, n)
    table = system.forward_table(orbit, n)
    ms = sorted({1, (n + 1) // 2, n})
    for mean, var, law in zip(*table.moments(ms), table.laws(ms)):
        assert mean == pytest.approx(law.mean(), rel=1e-12, abs=1e-12)
        assert var == pytest.approx(law.variance(), rel=1e-11, abs=1e-12)


def test_doeblin_clt_without_lattice():
    # uniform kernels: S_n is a sum of iid 0.7 * Bernoulli(1/2), sigma^2 = 0.1225
    fam = build_doeblin_family([np.full((2, 2), 0.5)] * 2, [[0.0, 0.7], [0.0, 0.7]],
                               alpha=0.5)
    system = DoeblinSystem(build_markov_base(np.full((2, 2), 0.5)), fam)
    rep = clt_test(system, [100, 400], omega_samples=12, fiber_replicates=1500, seed=3,
                   ks_threshold=0.03, strata_depth=2)
    assert rep.sigma_sq == pytest.approx(0.1225, rel=1e-12)
    assert rep.passed


def test_stateless_law_with_start_increments_matches_sweep():
    # q = 3 states with their own start increments and state-free rows: the
    # grouped law starts from the start increments' law, not from one state
    rng = generator(73)
    q, steps = 3, 40
    row = rng.uniform(0.1, 1.0, size=q)
    probs = np.broadcast_to(row / row.sum(), (steps, q, q))
    u = np.broadcast_to(rng.integers(-1, 3, size=q).astype(float), (steps, q, q))
    start = rng.uniform(0.1, 1.0, size=q)
    table = StepTable(steps + 1, 1.0, start / start.sum(), np.array([0.0, 2.0, 5.0]),
                      probs, np.broadcast_to(np.arange(q), (steps, q, q)), u,
                      np.zeros(steps, dtype=np.int64))
    assert table.stateless()
    for _, joint, k0 in table.sweep(at=range(1, table.n + 1)):
        pass
    law = table.law()
    dp = joint.sum(axis=0)
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-14)
    for i, p in enumerate(dp):
        assert prob_at(law, k0 + i) == pytest.approx(p, abs=1e-15)


def test_accumulate_mixtures_matches_dict_accumulation():
    rng = generator(74)

    class Env:
        def __init__(self, weight):
            self.weight = weight

    ens = [Env(w) for w in rng.uniform(0.1, 1.0, size=5)]
    partials = []
    for env in ens:
        vals = np.unique(rng.integers(-6, 7, size=9)).astype(float) * 0.5
        partials.append({3: (vals, rng.dirichlet(np.ones(len(vals))) * env.weight)})
    mix = {}
    for p in partials:
        for v, w in zip(*p[3]):
            mix[v] = mix.get(v, 0.0) + w
    total = sum(env.weight for env in ens)
    xs, ps = _accumulate_mixtures(ens, partials, [3])[3]
    assert list(xs) == sorted(mix)
    assert list(ps) == [mix[v] / total for v in sorted(mix)]
