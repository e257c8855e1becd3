"""The blocked prefix scan against a one-product-at-a-time oracle."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from skewprod.seeding import generator
from skewprod.transfer import full_product, prefix_products, unscale

LENGTHS = [0, 1, 2, 3, 17, 500]


def sequential_oracle(factors):
    """(direction, log infinity norm) of every prefix, one product at a time,
    each prefix renormalised by its norm before the next factor."""
    acc = np.broadcast_to(np.eye(factors.shape[-1], dtype=factors.dtype), factors.shape[1:])
    log_norm = np.zeros(factors.shape[1:-2])
    dirs, logs = [], []
    for f in factors:
        acc = acc @ f
        norm = np.abs(acc).sum(axis=-1).max(axis=-1)
        acc = acc / norm[..., None, None]
        log_norm = log_norm + np.log(norm)
        dirs.append(acc)
        logs.append(log_norm)
    return np.array(dirs), np.array(logs)


def unscaled_blocked(factors):
    """The scan's blocked association with no power-of-two scaling."""
    n, shape = len(factors), factors.shape[1:]
    if n == 0:
        return factors.copy()
    size = math.isqrt(n - 1) + 1
    blocks = -(-n // size)
    pad = np.broadcast_to(np.eye(shape[-1]), (blocks * size - n,) + shape)
    prods = np.concatenate([factors, pad]).reshape((blocks, size) + shape)
    for k in range(1, size):
        prods[:, k] = prods[:, k - 1] @ prods[:, k]
    if blocks > 1:
        prods[1:] = unscaled_blocked(prods[:-1, -1])[:, None] @ prods[1:]
    return prods.reshape((blocks * size,) + shape)[:n]


@st.composite
def factor_stacks(draw):
    n = draw(st.sampled_from(LENGTHS))
    q = draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (3,)]))
    rng = generator(draw(st.integers(0, 2**31 - 1)))
    factors = rng.standard_normal((n,) + batch + (q, q))
    if draw(st.booleans()):
        factors = factors + 1j * rng.standard_normal(factors.shape)
    # per-step norms spanning e^(+-60): products leave the float range
    return factors * np.exp(rng.uniform(-60.0, 60.0, size=(n,) + batch))[..., None, None]


@settings(max_examples=60, deadline=None)
@given(factor_stacks())
def test_scan_matches_sequential_products(factors):
    prods, expo = prefix_products(factors)
    assert prods.shape == factors.shape and prods.dtype == factors.dtype
    assert expo.shape == factors.shape[:-2]
    assert np.all(np.isfinite(prods))
    if len(factors) == 0:
        return
    dirs, logs = sequential_oracle(factors)
    norm = np.abs(prods).sum(axis=-1).max(axis=-1)
    np.testing.assert_allclose(np.log(norm) + expo * math.log(2.0), logs,
                               rtol=1e-10, atol=1e-9)
    np.testing.assert_allclose(prods / norm[..., None, None], dirs, rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LENGTHS), st.integers(1, 4), st.sampled_from([(), (3,)]),
       st.integers(0, 2**31 - 1))
def test_stochastic_scan_is_the_unscaled_product_bit_for_bit(n, q, batch, seed):
    kernels = generator(seed).uniform(0.05, 1.0, size=(n,) + batch + (q, q))
    kernels /= kernels.sum(axis=-1, keepdims=True)
    prods, expo = prefix_products(kernels)
    assert np.array_equal(unscale(prods, expo), unscaled_blocked(kernels))


def test_ledger_carries_products_past_the_float_range():
    factors = np.full((500, 1, 1), np.exp(60.0))
    prods, expo = prefix_products(factors)
    assert np.all(np.isfinite(prods))
    logs = np.log(prods[:, 0, 0]) + expo * math.log(2.0)
    np.testing.assert_allclose(logs, 60.0 * np.arange(1, 501), rtol=1e-13)


def test_full_product_of_nothing_is_the_identity():
    prod, expo = full_product(np.zeros((0, 2, 3, 3), dtype=complex))
    assert np.array_equal(prod, np.broadcast_to(np.eye(3), (2, 3, 3)))
    assert prod.dtype == complex and np.array_equal(expo, [0, 0])
