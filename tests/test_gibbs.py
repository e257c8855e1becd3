import math

import numpy as np
import pytest
from _instances import random_instance, scalar_instance
from _oracles import mu_deep, prob_at

from skewprod.base_env import build_markov_base, sample_base_path
from skewprod.errors import LatticeTooLarge, NotLattice
from skewprod.fiber import FiberModel, PotentialTable
from skewprod.limits import step_mean_check
from skewprod.rpf import SystemOrbit
from skewprod.seeding import generator
from skewprod.symbolic import (
    SymbolicSystem,
    char_function_spectral,
    exact_Sn_distribution,
    sample_Sn,
)


def lattice_instance_two_state():
    """Two-state base modulating scalar lattice steps with exact zero means."""
    model = FiberModel(2, 1)
    chain = build_markov_base([[0.7, 0.3], [0.4, 0.6]])
    phi = np.array([
        [np.log(0.5), np.log(0.5)],      # symbol 0: fair -1/+1
        [np.log(2 / 3), np.log(1 / 3)],  # symbol 1: -1 w.p. 2/3, +2 w.p. 1/3
    ])
    u = np.array([[-1.0, 1.0], [-1.0, 2.0]])
    return chain, model, PotentialTable(phi, u, model, lattice_h=1.0)


def test_gibbs_measure_uniform_and_scalar():
    chain, model, pot = scalar_instance([1.0, -1.0])
    win = sample_base_path(chain, -200, 200, 1)
    mu = SystemOrbit(win, 0, 1, pot, model).mu[0]
    assert mu.shape == (1,)
    assert mu[0] == pytest.approx(1.0)


def test_gibbs_measure_maximal_entropy_r2():
    rng = generator(1)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    pot.phi[:] = -np.log(2.0)
    win = sample_base_path(chain, -200, 200, 2)
    mu = SystemOrbit(win, 0, 1, pot, model).mu[0]
    assert np.allclose(mu, 0.5, atol=1e-10)


def test_exact_law_zero_u_point_mass():
    chain, model, pot = scalar_instance([0.0, 0.0], lattice_h=None)
    pot = PotentialTable(pot.phi, np.zeros_like(pot.u), model, lattice_h=1.0)
    win = sample_base_path(chain, -100, 150, 3)
    dist = exact_Sn_distribution(win, 12, pot, model)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert prob_at(dist, 0.0) == pytest.approx(1.0)


def test_exact_law_binomial_oracle():
    chain, model, pot = scalar_instance([1.0, -1.0], lattice_h=1.0)
    win = sample_base_path(chain, -100, 160, 4)
    n = 14
    dist = exact_Sn_distribution(win, n, pot, model)
    for k in range(n + 1):
        expected = math.comb(n, k) / 2**n
        assert prob_at(dist, n - 2 * k) == pytest.approx(expected, abs=1e-13)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def trajectory_cylinder_probs_forward(orbit, m):
    """Law of the depth-m cylinder at the window origin, via deep functional descent."""
    n_words = orbit.model.d**m
    out = np.empty(n_words)
    for w in range(n_words):
        ind = np.zeros(n_words)
        ind[w] = 1.0
        out[w] = mu_deep(orbit, 0, ind, m)
    return out


def trajectory_cylinder_probs_reversed(orbit, m):
    """Same law from the reversed-chain construction (distributional equality check)."""
    d, r = orbit.model.d, orbit.model.r
    D = orbit.model.space_dim
    n_steps = m - (r - 1)
    n_words = d**m
    kernels = orbit.kernel_arrays()[0]
    out = np.empty(n_words)
    for w in range(n_words):
        # cylinder states along the trajectory: w_j = symbols j..j+r-2
        def idx(j):
            return (w // d ** (m - j - (r - 1))) % D if r > 1 else 0
        p = orbit.mu[n_steps][idx(n_steps)]
        for j in range(n_steps - 1, -1, -1):
            a = (w // d ** (m - j - 1)) % d  # fiber symbol at coordinate j
            p *= kernels[j, idx(j + 1), a]
        out[w] = p
    return out


def brute_force_law(win, n, pot, model, orbit):
    """Enumerate all fiber words of depth n + r - 1 with their exact masses."""
    d, r = model.d, model.r
    m = n + r - 1
    probs = trajectory_cylinder_probs_forward(orbit, m)
    out = {}
    for w in range(d**m):
        s_val = 0.0
        for j in range(n):
            word = (w // d ** (m - j - r)) % d**r
            u = pot.u[win.symbol(j), win.symbol(j + 1)] if pot.u_next_symbol \
                else pot.u[win.symbol(j)]
            s_val += u[word]
        out[round(s_val, 9)] = out.get(round(s_val, 9), 0.0) + probs[w]
    return out


def test_exact_law_matches_brute_force_enumeration():
    rng = generator(7)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    # force lattice u values in {-1, 0, 1, 2}
    pot = PotentialTable(pot.phi, rng.integers(-1, 3, size=pot.u.shape).astype(float),
                        model, lattice_h=1.0)
    win = sample_base_path(chain, -150, 200, 8)
    n = 4
    orbit = SystemOrbit(win, 0, n + 1, pot, model, tol=1e-11)
    dist = exact_Sn_distribution(win, n, pot, model, orbit=orbit)
    oracle = brute_force_law(win, n, pot, model, orbit)
    for v, p in oracle.items():
        assert prob_at(dist, v) == pytest.approx(p, abs=1e-10)
    assert sum(oracle.values()) == pytest.approx(1.0, abs=1e-10)


def test_reversed_chain_equality_distributions():
    # trajectory law computed forward (functional descent) vs reversed chain
    for seed, (d, r) in [(11, (2, 1)), (12, (2, 2))]:
        rng = generator(seed)
        chain, model, pot = random_instance(rng, d=d, r=r, n_states=2)
        win = sample_base_path(chain, -150, 200, seed)
        m = 4 + (r - 1)
        orbit = SystemOrbit(win, 0, m, pot, model, tol=1e-11)
        fwd = trajectory_cylinder_probs_forward(orbit, m)
        rev = trajectory_cylinder_probs_reversed(orbit, m)
        assert np.max(np.abs(fwd - rev)) < 1e-9
        assert fwd.sum() == pytest.approx(1.0, abs=1e-9)


def test_char_function_spectral_identities():
    chain, model, pot = scalar_instance([1.0, -1.0], lattice_h=1.0)
    win = sample_base_path(chain, -120, 200, 5)
    n = 9
    orbit = SystemOrbit(win, 0, n, pot, model)
    assert char_function_spectral(win, n, 0.0, pot, model, orbit) == pytest.approx(1.0)
    for t in [0.3, 1.1]:
        spectral = char_function_spectral(win, n, t, pot, model, orbit)
        assert spectral == pytest.approx(np.cos(t) ** n, abs=1e-12)


def test_char_function_matches_exact_law_fourier():
    chain, model, pot = lattice_instance_two_state()
    win = sample_base_path(chain, -150, 250, 6)
    n = 12
    orbit = SystemOrbit(win, 0, n, pot, model, tol=1e-11)
    dist = exact_Sn_distribution(win, n, pot, model, orbit=orbit)
    for t in [0.2, 0.9, 2.0]:
        spectral = char_function_spectral(win, n, t, pot, model, orbit)
        fourier = dist.char_function(t)
        assert abs(spectral - fourier) < 1e-9


def test_sampler_against_exact_law():
    chain, model, pot = lattice_instance_two_state()
    win = sample_base_path(chain, -150, 250, 7)
    n = 10
    orbit = SystemOrbit(win, 0, n, pot, model)
    dist = exact_Sn_distribution(win, n, pot, model, orbit=orbit)
    samples = sample_Sn(win, n, generator(99), pot, model, orbit=orbit, replicates=20000)
    emp_mean = samples.mean()
    sd = math.sqrt(dist.variance() / len(samples))
    assert abs(emp_mean - dist.mean()) < 4 * sd
    # empirical characteristic function within Monte Carlo bands
    t = 0.7
    emp_cf = np.exp(1j * t * samples).mean()
    exact_cf = dist.char_function(t)
    band = 4.0 / math.sqrt(len(samples))
    assert abs(emp_cf - exact_cf) < band


def test_sampler_constant_u():
    chain, model, pot = scalar_instance([2.5, 2.5])
    win = sample_base_path(chain, -80, 140, 8)
    samples = sample_Sn(win, 6, generator(1), pot, model, replicates=50)
    assert np.allclose(samples, 15.0)


def test_forward_sweep_matches_backward_dp():
    chain, model, pot = lattice_instance_two_state()
    win = sample_base_path(chain, -150, 250, 9)
    n_max = 8
    orbit = SystemOrbit(win, 0, n_max, pot, model, tol=1e-11)
    sweeps = {n: (joint.sum(axis=0), k0) for n, joint, k0 in
              SymbolicSystem.forward_table(orbit, n_max).sweep(at=range(n_max + 1))}
    for n in [1, 3, 8]:
        dist = exact_Sn_distribution(win, n, pot, model, orbit=orbit)
        vals, k0 = sweeps[n]
        for i, p in enumerate(vals):
            if p > 1e-15:
                assert prob_at(dist, (k0 + i) * 1.0) == pytest.approx(p, abs=1e-10)


def test_variance_curve_scalar_and_coboundary():
    chain, model, pot = scalar_instance([1.0, -1.0], lattice_h=1.0)
    win = sample_base_path(chain, -150, 250, 10)
    n_list = [2, 6, 12, 20]
    orbit = SystemOrbit(win, 0, 20, pot, model)
    # V_n from the forward table's moment pass and from its exact laws
    table = SymbolicSystem.forward_table(orbit, 20)
    assert np.allclose(table.moments(n_list)[1], n_list, atol=1e-8)
    laws = table.laws(n_list)
    assert np.allclose([law.variance() for law in laws], n_list, atol=1e-8)


def test_variance_degenerate_base_coboundary():
    # u(omega_0, omega_1) = q(omega_0) - q(omega_1), fiber independent
    model = FiberModel(2, 1)
    chain = build_markov_base([[0.6, 0.4], [0.3, 0.7]])
    q = np.array([0.0, 1.0])
    u_pair = np.zeros((2, 2, 2))
    for s in range(2):
        for s2 in range(2):
            u_pair[s, s2, :] = q[s] - q[s2]
    pot = PotentialTable(np.full((2, 2), -np.log(2.0)), u_pair, model,
                         lattice_h=1.0, u_next_symbol=True)
    win = sample_base_path(chain, -150, 250, 11)
    orbit = SystemOrbit(win, 0, 20, pot, model)
    assert np.all(np.abs(SymbolicSystem.forward_table(orbit, 20).moments([2, 8, 20])[1]) < 1e-12)


def test_constant_step_mean_validator():
    chain, model, pot = lattice_instance_two_state()
    win = sample_base_path(chain, -150, 250, 12)
    orbit = SystemOrbit(win, 0, 20, pot, model)
    ok, gamma, dev = step_mean_check(SymbolicSystem.step_table(orbit, 20))
    assert ok and abs(gamma) < 1e-9

    rng = generator(13)
    chain2, model2, pot2 = random_instance(rng, d=2, r=2, n_states=2)
    win2 = sample_base_path(chain2, -150, 250, 13)
    orbit2 = SystemOrbit(win2, 0, 20, pot2, model2)
    ok2, _, dev2 = step_mean_check(SymbolicSystem.step_table(orbit2, 20))
    assert not ok2 and dev2 > 1e-6


def test_exact_law_positive_steps_keeps_unit_mass():
    # every step shifts by 1 or 2, so the lattice window moves right each step
    chain, model, pot = scalar_instance([1.0, 2.0], lattice_h=1.0)
    win = sample_base_path(chain, -80, 120, 17)
    for n in (2, 3, 10):
        dist = exact_Sn_distribution(win, n, pot, model)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        for k in range(n + 1):
            assert prob_at(dist, n + k) == pytest.approx(math.comb(n, k) / 2**n, abs=1e-13)
        assert dist.values()[0] == n and dist.values()[-1] == 2 * n


def test_lattice_budget_guard():
    chain, model, pot = scalar_instance([1000.0, -1000.0], lattice_h=1.0)
    win = sample_base_path(chain, -100, 20000, 14)
    with pytest.raises(LatticeTooLarge):
        exact_Sn_distribution(win, 10000, pot, model,
                              orbit=SystemOrbit(win, 0, 10000, pot, model))


def test_not_lattice_guard():
    chain, model, pot = scalar_instance([1.0, -1.0])  # no lattice_h declared
    win = sample_base_path(chain, -80, 120, 15)
    with pytest.raises(NotLattice):
        exact_Sn_distribution(win, 5, pot, model)
