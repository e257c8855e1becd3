"""Shared random-instance builders for the test suite."""

import numpy as np

from skewprod.base_env import build_markov_base, sample_base_path
from skewprod.doeblin import DoeblinSystem, build_doeblin_family
from skewprod.fiber import FiberModel, PotentialTable


def random_chain(rng, n_states):
    Q = rng.uniform(0.2, 1.0, size=(n_states, n_states))
    Q /= Q.sum(axis=1, keepdims=True)
    return build_markov_base(Q)


def random_tables(rng, model, n_states, phi_scale=0.6, u_scale=1.0, column_normalized=False,
                  constant=False):
    """phi and u tables, one row per base symbol; with constant, every
    symbol's rows are those drawn for symbol 0, so the fiber cocycle does
    not depend on the base orbit."""
    if constant:
        one = random_tables(rng, model, 1, phi_scale, u_scale, column_normalized)
        return PotentialTable(np.repeat(one.phi, n_states, axis=0),
                              np.repeat(one.u, n_states, axis=0), model)
    d, r = model.d, model.r
    nwords = d**r
    if column_normalized:
        # for every depth-(r-1) prefix the weights over the last symbol sum to 1,
        # which pins the dual functional to the uniform reference and lambda to 1
        W = rng.uniform(0.2, 1.0, size=(n_states, nwords))
        W = W.reshape(n_states, d ** (r - 1), d)
        W /= W.sum(axis=2, keepdims=True)
        phi = np.log(W.reshape(n_states, nwords))
    else:
        phi = phi_scale * rng.standard_normal((n_states, nwords))
    u = u_scale * rng.standard_normal((n_states, nwords))
    return PotentialTable(phi, u, model)


def random_instance(rng, d=2, r=2, n_states=2, column_normalized=False, u_scale=1.0,
                    constant=False):
    chain = random_chain(rng, n_states)
    model = FiberModel(d, r)
    pot = random_tables(rng, model, n_states, column_normalized=column_normalized,
                        u_scale=u_scale, constant=constant)
    return chain, model, pot


def scalar_instance(u_values, phi_log_weights=None, n_states=2, lattice_h=None):
    """r = 1 instance with identical tables on every base symbol."""
    d = len(u_values)
    model = FiberModel(d, 1)
    phi_row = np.full(d, -np.log(d)) if phi_log_weights is None else np.asarray(phi_log_weights)
    phi = np.tile(phi_row, (n_states, 1))
    u = np.tile(np.asarray(u_values, dtype=float), (n_states, 1))
    chain = build_markov_base(np.full((n_states, n_states), 1.0 / n_states))
    return chain, model, PotentialTable(phi, u, model, lattice_h=lattice_h)


def window_for(chain, rng_seed, back, fwd):
    return sample_base_path(chain, -back, fwd, rng_seed)


def random_doeblin(rng, q, n_symbols, h=1.0, initial=False, rank_one=False):
    """A Doeblin system on random kernels; with rank_one, every kernel's rows
    are equal, so no step reads the state."""
    K = rng.uniform(0.2, 1.0, size=(n_symbols, 1 if rank_one else q, q))
    K = np.broadcast_to(K / K.sum(axis=2, keepdims=True), (n_symbols, q, q))
    u = h * rng.integers(-2, 3, size=(n_symbols, q)).astype(float)
    fam = build_doeblin_family(K, u, alpha=float(K.min()), lattice_h=h)
    Q = rng.uniform(0.2, 1.0, size=(n_symbols, n_symbols))
    chain = build_markov_base(Q / Q.sum(axis=1, keepdims=True))
    init = rng.uniform(0.1, 1.0, size=q) if initial else None
    return DoeblinSystem(chain, fam, initial=init)
