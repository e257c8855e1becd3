"""The shared step-table engine on both fiber models: oracles and invariants."""

import itertools

import numpy as np
import pytest
from _instances import random_doeblin
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod.base_env import build_markov_base, sample_base_path
from skewprod.doeblin import DoeblinSystem, build_doeblin_family
from skewprod.fiber import FiberModel, PotentialTable
from skewprod.limits import SymbolicSystem
from skewprod.seeding import generator

T_GRID = [0.3, 1.1, 2.5]


def doeblin_path_law(system, window, n, orbit):
    """Enumerate every state path xi_0..xi_{n-1} with its exact probability."""
    fam = system.family
    law = {}
    for path in itertools.product(range(fam.n_states), repeat=n):
        p = orbit.marginal[0][path[0]]
        total = 0.0
        for j, x in enumerate(path):
            s = window.symbol(j)
            total += fam.u[s][x]
            if j + 1 < n:
                p *= fam.kernels[s][x, path[j + 1]]
        key = round(total, 9)
        law[key] = law.get(key, 0.0) + p
    return law


@pytest.mark.parametrize("initial", [False, True])
def test_doeblin_law_matches_path_enumeration(initial):
    rng = generator(31, int(initial))
    system = random_doeblin(rng, q=3, n_symbols=2, initial=initial)
    assert np.max(np.abs(system.family.kernels - system.family.kernels[:, :1])) > 0.05
    window = sample_base_path(system.chain, -80, 20, 32)
    orbit = system.orbit(window, 8)
    for n in (1, 2, 5, 8):
        law = system.exact_law(orbit, n)
        oracle = doeblin_path_law(system, window, n, orbit)
        assert law.probs.sum() == pytest.approx(1.0, abs=1e-13)
        assert sum(oracle.values()) == pytest.approx(1.0, abs=1e-13)
        for v, p in oracle.items():
            assert law.prob_at(v) == pytest.approx(p, abs=1e-14)
        table = system.step_table(orbit, n)
        spectral = table.char_function(T_GRID)
        for t, val in zip(T_GRID, spectral):
            direct = sum(p * np.exp(1j * t * v) for v, p in oracle.items())
            assert abs(val - direct) < 1e-13


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = generator(seed)
    h = draw(st.sampled_from([1.0, 0.5]))
    n = draw(st.integers(1, 8))
    n_symbols = draw(st.integers(1, 3))
    Q = rng.uniform(0.2, 1.0, size=(n_symbols, n_symbols))
    chain = build_markov_base(Q / Q.sum(axis=1, keepdims=True), allow_deterministic=True)
    if draw(st.booleans()):
        q = draw(st.integers(2, 3))
        K = rng.uniform(0.2, 1.0, size=(n_symbols, q, q))
        K /= K.sum(axis=2, keepdims=True)
        lo = draw(st.integers(-2, 2))
        u = h * rng.integers(lo, lo + 4, size=(n_symbols, q)).astype(float)
        fam = build_doeblin_family(K, u, alpha=float(K.min()), lattice_h=h)
        return DoeblinSystem(chain, fam), n, seed
    d, r = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    model = FiberModel(d, r)
    phi = 0.6 * rng.standard_normal((n_symbols, d**r))
    # lo >= 1 gives all-positive tables, whose lattice window moves every step
    lo = draw(st.integers(-2, 2))
    u = h * rng.integers(lo, lo + 4, size=(n_symbols, d**r)).astype(float)
    pot = PotentialTable(phi, u, model, lattice_h=h)
    return SymbolicSystem(chain, model, pot), n, seed


@settings(max_examples=100, deadline=None)
@given(instances())
def test_engine_invariants(instance):
    system, n, seed = instance
    window = sample_base_path(system.chain, -300, 300, seed)
    if isinstance(system, SymbolicSystem):
        orbit = system.orbit(window, n, tol=1e-11)
    else:
        orbit = system.orbit(window, n)
    table = system.step_table(orbit, n)
    law = table.law()
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # backward DP and forward sweep give the same law of S_n (f = 1)
    for m, joint, k0 in system.forward_table(orbit, n).sweep():
        pass
    assert m == n
    swept = joint.sum(axis=0)
    assert swept.sum() == pytest.approx(1.0, abs=1e-12)
    for i, p in enumerate(swept):
        assert law.prob_at((k0 + i) * law.h) == pytest.approx(p, abs=1e-9)
    # the spectral route equals the law's Fourier sum
    spectral = table.char_function(T_GRID)
    for t, val in zip(T_GRID, spectral):
        assert abs(val - law.char_function(t)) < 1e-12
