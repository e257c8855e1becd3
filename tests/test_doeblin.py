import dataclasses
import math

import numpy as np
import pytest

from _instances import random_doeblin
from _oracles import compose_reversed, prob_at

from skewprod import gibbs
from skewprod.base_env import build_markov_base, sample_base_path
from skewprod.doeblin import DoeblinOrbit, DoeblinSystem, build_doeblin_family
from skewprod.errors import ClassifierFailed, DoeblinViolated
from skewprod.limits import char_identity, clt_test, llt_scan, renewal_curve
from skewprod.seeding import generator
from skewprod.transfer import prefix_products


def uniform_chain():
    return build_markov_base([[0.5, 0.5], [0.5, 0.5]])


def iid_family(u_vals=(0.0, 1.0)):
    kernels = np.array([[[0.5, 0.5], [0.5, 0.5]]] * 2)
    u = np.array([list(u_vals)] * 2, dtype=float)
    return build_doeblin_family(kernels, u, alpha=0.5, lattice_h=1.0)


def modulated_family():
    kernels = np.array([
        [[0.7, 0.3], [0.4, 0.6]],
        [[0.3, 0.7], [0.6, 0.4]],
    ])
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=float)
    return build_doeblin_family(kernels, u, alpha=0.3, lattice_h=1.0)


def test_build_validates_bounds():
    iid_family()
    with pytest.raises(DoeblinViolated):
        build_doeblin_family(np.array([[[1.0, 0.0], [0.5, 0.5]]]), np.zeros((1, 2)),
                             alpha=0.5)
    with pytest.raises(DoeblinViolated):
        build_doeblin_family(np.array([[[0.5, 0.5], [0.5, 0.5]]]), np.zeros((1, 2)),
                             alpha=0.8)  # alpha > 1/q


def test_one_step_doeblin_bounds_q3():
    rng = generator(1)
    K = rng.uniform(0.15, 0.5, size=(1, 3, 3))
    K /= K.sum(axis=2, keepdims=True)
    fam = build_doeblin_family(K, np.zeros((1, 3)), alpha=0.1)
    assert fam.kernels.min() >= 0.1
    assert fam.kernels.max() <= 10.0


def test_composition_order_hand_check():
    # two distinct kernels: the 2-step iterate is R_z^omega R_z^{theta omega},
    # NOT the transfer-cocycle order; the chain's step rows and the oracle
    # both compose it so.  Seed 2 puts symbols 0, 1, 0 at positions 0..2.
    fam = modulated_family()
    chain = uniform_chain()
    win = sample_base_path(chain, -64, 4, 2)
    s0, s1, s2 = win.symbol(0), win.symbol(1), win.symbol(2)
    z = 0.3j
    D1 = np.diag(np.exp(z * fam.u[s1]))
    D2 = np.diag(np.exp(z * fam.u[s2]))
    hand = (fam.kernels[s0] @ D1) @ (fam.kernels[s1] @ D2)
    system = DoeblinSystem(chain, fam)
    rows = system.step_table(system.orbit(win, 3), 3)
    assert np.max(np.abs(rows.twisted_product([z.imag])[0] - hand)) < 1e-14
    assert np.max(np.abs(compose_reversed(win, 2, z, fam) - hand)) < 1e-14


def test_markov_at_zero_and_modulus_bound():
    fam = modulated_family()
    chain = uniform_chain()
    win = sample_base_path(chain, 0, 12, 8)
    M0 = compose_reversed(win, 8, 0.0, fam)
    assert np.allclose(M0 @ np.ones(2), 1.0, atol=1e-12)
    for t in [0.5, 2.0]:
        Mt = compose_reversed(win, 8, 1j * t, fam)
        assert np.max(np.abs(Mt @ np.ones(2))) <= 1.0 + 1e-12


def contraction_coefficient(family):
    """Worst-case one-step total-variation contraction factor across kernels."""
    K = family.kernels
    return float(0.5 * np.abs(K[:, :, None] - K[:, None, :]).sum(axis=-1).max())


def test_contraction_coefficient():
    assert contraction_coefficient(iid_family()) == pytest.approx(0.0)
    fam = modulated_family()
    c = contraction_coefficient(fam)
    assert 0 < c < 1
    # row total-variation spread of n-step kernels decays at rate <= c
    chain = uniform_chain()
    win = sample_base_path(chain, 0, 12, 9)
    for n in [2, 4, 6]:
        M = compose_reversed(win, n, 0.0, fam).real
        tv = 0.5 * np.max(np.abs(M[0] - M[1]).sum())
        assert tv <= c**n + 1e-12


def test_invariant_family_pushforward():
    fam = modulated_family()
    chain = build_markov_base([[0.6, 0.4], [0.2, 0.8]])
    win = sample_base_path(chain, -80, 40, 10)
    sysd = DoeblinSystem(chain, fam)
    marginals = sysd.step_table(DoeblinOrbit(win, 20, sysd), 21).marginals
    # with no configured start the marginals are the invariant family
    for j in range(20):
        push = marginals[j] @ fam.kernels[win.symbol(j)]
        assert np.max(np.abs(push - marginals[j + 1])) < 1e-12


def test_exact_law_iid_binomial():
    fam = iid_family()
    chain = uniform_chain()
    sysd = DoeblinSystem(chain, fam)
    win = sample_base_path(chain, -80, 40, 11)
    n = 12
    law = sysd.step_table(sysd.orbit(win, n), n).law()
    for k in range(n + 1):
        assert prob_at(law, k) == pytest.approx(math.comb(n, k) / 2**n, abs=1e-13)


def test_char_spectral_iid_closed_form():
    fam = iid_family((1.0, -1.0))
    chain = uniform_chain()
    sysd = DoeblinSystem(chain, fam)
    win = sample_base_path(chain, -80, 40, 12)
    table = sysd.step_table(sysd.orbit(win, 10), 10)
    for t in [0.4, 1.3]:
        val = table.char_function([t])[0]
        assert val == pytest.approx(np.cos(t) ** 10, abs=1e-12)


def test_char_three_routes_agree():
    fam = modulated_family()
    chain = build_markov_base([[0.6, 0.4], [0.2, 0.8]])
    sysd = DoeblinSystem(chain, fam)
    rep = char_identity(sysd, [0.3, 1.1], [6, 12], omega_samples=6,
                        mc_replicates=4000, seed=13, strata_depth=2, exact_tol=1e-9)
    assert rep.max_exact_spectral_gap < 1e-9
    assert rep.mc_within_band
    assert rep.passed


def test_sampler_matches_exact_law_mean():
    fam = modulated_family()
    chain = uniform_chain()
    sysd = DoeblinSystem(chain, fam)
    win = sample_base_path(chain, -80, 60, 14)
    n = 24
    orbit = DoeblinOrbit(win, n, sysd)
    table = sysd.step_table(orbit, n)
    law = table.law()
    mean = law.mean()
    var = law.variance()
    draws = table.sample(generator(15), replicates=20000)
    assert abs(draws.mean() - mean) < 4 * math.sqrt(var / 20000)


def test_rank_one_sampler_fast_path_matches():
    fam = iid_family()
    chain = uniform_chain()
    sysd = DoeblinSystem(chain, fam)
    win = sample_base_path(chain, -80, 60, 16)
    table = sysd.step_table(sysd.orbit(win, 40), 40)
    draws = table.sample(generator(17), replicates=20000)
    # binomial(40, 1/2): mean 20, var 10
    assert abs(draws.mean() - 20.0) < 4 * math.sqrt(10 / 20000)


def test_doeblin_clt_small():
    fam = iid_family((1.0, -1.0))
    chain = uniform_chain()
    sysd = DoeblinSystem(chain, fam, periodic_cycle=(0,))
    rep = clt_test(sysd, [100, 400], omega_samples=12, fiber_replicates=1500,
                   seed=18, ks_threshold=0.06, strata_depth=2)
    assert rep.sigma_sq == pytest.approx(1.0, abs=0.02)
    assert rep.passed


def test_doeblin_llt_small_and_span2_refusal():
    fam = iid_family((0.0, 1.0))
    chain = uniform_chain()
    sysd = DoeblinSystem(chain, fam)
    rep = llt_scan(sysd, [150, 400], omega_samples=10, seed=19, threshold=0.06, strata_depth=2)
    assert rep.passed
    fam2 = iid_family((1.0, -1.0))
    sysd2 = DoeblinSystem(chain, fam2)
    with pytest.raises(ClassifierFailed):
        llt_scan(sysd2, [100], omega_samples=4, seed=20, threshold=0.05, strata_depth=2)


def test_doeblin_llt_draws_one_ensemble(ensemble_calls):
    assert llt_scan(DoeblinSystem(uniform_chain(), iid_family()), [150, 400],
                    omega_samples=8, seed=19, threshold=0.05, strata_depth=2).passed
    assert len(ensemble_calls) == 1


def test_doeblin_renewal_small():
    fam = iid_family((1.0, 2.0))
    chain = uniform_chain()
    sysd = DoeblinSystem(chain, fam)
    a_list = list(range(-12, 0, 4)) + list(range(20, 37, 2))
    rep = renewal_curve(sysd, a_list, truncation=60, omega_samples=8, seed=21,
                        limit_window=(26, 36), f_weights=None, strata_depth=2, rel_tol=0.05,
                        negative_tol=0.01)
    assert rep.gamma == pytest.approx(1.5, abs=1e-9)
    assert rep.target == pytest.approx(2 / 3, abs=1e-9)
    assert rep.rel_err_window < 0.05
    assert rep.negative_side_max == 0.0
    assert rep.passed


def per_step_start_law(system, window):
    """The law of xi_0, pushed one kernel at a time: the uniform law through
    the 64 kernels before the origin, or the configured start."""
    if system.initial is not None:
        return system.initial / system.initial.sum()
    nu = np.full(system.family.n_states, 1.0 / system.family.n_states)
    for s in window.symbols(-64, -1):
        nu = nu @ system.family.kernels[s]
    return nu / nu.sum()


@pytest.mark.parametrize("initial", [False, True])
def test_orbit_scan_matches_per_step_marginals(initial):
    # the marginals of the table of S_{n+1} are the laws of xi_0, ..., xi_n
    system = random_doeblin(generator(41, int(initial)), q=3, n_symbols=3, initial=initial)
    invariant_system = dataclasses.replace(system, initial=None)
    fam = system.family
    assert np.max(np.abs(fam.kernels - fam.kernels[:, :1])) > 0.05
    window = sample_base_path(system.chain, -80, 600, 42)
    for n in (0, 1, 2, 7, 500):
        orbit = system.orbit(window, n)
        nus = [per_step_start_law(invariant_system, window)]
        marginals = [per_step_start_law(system, window)]
        for s in window.symbols(0, n)[:n]:
            nxt = nus[-1] @ fam.kernels[s]
            nus.append(nxt / nxt.sum())
            marginals.append(marginals[-1] @ fam.kernels[s])
        # the invariant family is the marginals of an orbit with no configured start
        invariant = invariant_system.step_table(invariant_system.orbit(window, n), n + 1)
        np.testing.assert_allclose(invariant.marginals, nus, rtol=1e-13, atol=0)
        np.testing.assert_allclose(system.step_table(orbit, n + 1).marginals, marginals,
                                   rtol=1e-13, atol=0)


@pytest.mark.parametrize("initial", [False, True])
def test_step_table_reads_the_start_law_without_the_marginal_scan(initial, monkeypatch):
    system = random_doeblin(generator(43, int(initial)), q=3, n_symbols=3, initial=initial)
    window = sample_base_path(system.chain, -80, 600, 44)
    scans = []

    def counted(factors):
        scans.append(len(factors))
        return prefix_products(factors)

    monkeypatch.setattr(gibbs, "prefix_products", counted)
    n = 500
    orbit = system.orbit(window, n)
    for m in (1, 7, n):
        table = system.step_table(orbit, m)
        table.law()
    assert scans == []
    np.testing.assert_allclose(table.start, per_step_start_law(system, window),
                               rtol=1e-13, atol=0)
    assert table.start.tobytes() == orbit.start.tobytes()
    # the moments do scan the table's rows, once for the marginals and once
    # for the cross terms, and read the same start
    table.moments([n])
    assert scans == [n - 1, n - 2]
    assert table.marginals[0].tobytes() == orbit.start.tobytes()
