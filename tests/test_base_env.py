import numpy as np
import pytest

from skewprod.base_env import (
    build_markov_base,
    cylinder_probability,
    periodic_point,
    sample_base_path,
    sample_conditioned_paths,
)
from skewprod.errors import (
    InsufficientWindow,
    InvalidSymbol,
    NonStochasticRow,
    ZeroStateSpace,
    ZeroTransition,
)
from skewprod.seeding import generator


def test_one_state_rejected_by_default():
    with pytest.raises(ZeroStateSpace):
        build_markov_base([[1.0]])
    chain = build_markov_base([[1.0]], allow_deterministic=True)
    assert chain.deterministic


def test_uniform_two_state_stationary():
    chain = build_markov_base([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(chain.stationary, [0.5, 0.5], atol=1e-12)


def test_stationary_vector_hand_solved():
    # pQ = p for Q = [[0.9, 0.1], [0.2, 0.8]] solves to p = (2/3, 1/3)
    chain = build_markov_base([[0.9, 0.1], [0.2, 0.8]])
    assert np.allclose(chain.stationary, [2 / 3, 1 / 3], atol=1e-10)
    assert np.allclose(chain.stationary @ chain.transition, chain.stationary, atol=1e-10)


def test_zero_transition_rejected():
    with pytest.raises(ZeroTransition):
        build_markov_base([[1.0, 0.0], [0.5, 0.5]])


def test_nonstochastic_row_rejected():
    with pytest.raises(NonStochasticRow):
        build_markov_base([[0.7, 0.2], [0.5, 0.5]])


def test_window_indexing_and_shift():
    chain = build_markov_base([[0.5, 0.5], [0.5, 0.5]])
    win = sample_base_path(chain, -3, 5, 7)
    assert win.lo == -3 and win.hi == 5
    syms = win.symbols(-3, 5)
    assert len(syms) == 9
    # theta acts as index shift
    sh = win.shifted(2)
    for i in range(-3, 4):
        assert sh.symbol(i - 2) == win.symbol(i)
    with pytest.raises(InsufficientWindow):
        win.symbol(6)


def test_sampler_deterministic_given_seed():
    chain = build_markov_base([[0.9, 0.1], [0.2, 0.8]])
    w1 = sample_base_path(chain, -5, 20, 42)
    w2 = sample_base_path(chain, -5, 20, 42)
    assert np.array_equal(w1.symbols(-5, 20), w2.symbols(-5, 20))
    w3 = sample_base_path(chain, -5, 20, 43)
    assert not np.array_equal(w1.symbols(-5, 20), w3.symbols(-5, 20))


def test_stationary_marginal_frequency():
    chain = build_markov_base([[0.5, 0.5], [0.5, 0.5]])
    rng = generator(123)
    draws = np.array([sample_base_path(chain, 0, 0, rng).symbol(0) for _ in range(4000)])
    freq = np.mean(draws == 0)
    sigma = 0.5 / np.sqrt(4000)
    assert abs(freq - 0.5) < 3 * sigma + 0.01


def test_transition_frequencies_match_Q():
    chain = build_markov_base([[0.9, 0.1], [0.2, 0.8]])
    win = sample_base_path(chain, 0, 20000, 5)
    syms = win.symbols(0, 20000)
    for a in range(2):
        mask = syms[:-1] == a
        count = mask.sum()
        for b in range(2):
            emp = np.mean(syms[1:][mask] == b)
            q = chain.transition[a, b]
            assert abs(emp - q) < 3 * np.sqrt(q * (1 - q) / count) + 0.01


def test_periodic_point_windows():
    chain = build_markov_base([[0.5, 0.5], [0.5, 0.5]])
    pp = periodic_point(chain, (0,))
    win = pp.window(-4, 4)
    assert all(win.symbol(i) == 0 for i in range(-4, 5))

    pp2 = periodic_point(chain, (0, 1))
    win2 = pp2.window(-6, 6)
    assert [win2.symbol(i) for i in range(-2, 4)] == [0, 1, 0, 1, 0, 1]

    pp3 = periodic_point(chain, (0, 0, 1))
    w = pp3.window(-9, 9)
    for i in range(-6, 7):
        assert w.symbol(i) == w.shifted(3).symbol(i - 3)
        assert w.symbol(i) == pp3.cycle[i % 3]

    with pytest.raises(InvalidSymbol):
        periodic_point(chain, (0, 2))


def test_cylinder_probability_products():
    chain = build_markov_base([[0.9, 0.1], [0.2, 0.8]])
    p0 = chain.stationary[0]
    assert cylinder_probability(chain, {}) == 1.0
    assert cylinder_probability(chain, {0: 0}) == pytest.approx(p0)
    # consecutive pattern 0,0,0 starting at 0: p0 * 0.9 * 0.9
    assert cylinder_probability(chain, {0: 0, 1: 0, 2: 0}) == pytest.approx(p0 * 0.81)
    # gap of 2 uses the two-step matrix
    Q2 = np.linalg.matrix_power(chain.transition, 2)
    assert cylinder_probability(chain, {0: 0, 2: 1}) == pytest.approx(p0 * Q2[0, 1])


def test_conditioned_paths_fix_prefix():
    chain = build_markov_base([[0.9, 0.1], [0.2, 0.8]])
    rng = generator(9)
    paths = sample_conditioned_paths(chain, np.array([1, 0]), lo=-2, hi=4, count=32, rng=rng)
    assert paths.shape == (32, 7)
    assert np.all(paths[:, 2] == 1)
    assert np.all(paths[:, 3] == 0)
    assert paths.min() >= 0 and paths.max() <= 1


def per_position_conditioned_paths(chain, prefix, lo, hi, count, rng):
    """The per-position sampling loop: forward of the prefix, then backward of 0."""
    k = len(prefix)
    n = hi - lo + 1
    out = np.empty((count, n), dtype=np.int64)
    out[:, -lo: -lo + k] = np.asarray(prefix, dtype=np.int64)[None, :]
    cum_f = np.cumsum(chain.transition, axis=1)
    cum_b = np.cumsum(chain.reverse_kernel(), axis=1)
    cum_f[:, -1] = cum_b[:, -1] = 1.0
    for i in range(-lo + k, n):
        us = rng.random(count)
        out[:, i] = (us[:, None] > cum_f[out[:, i - 1]]).sum(axis=1)
    for i in range(-lo - 1, -1, -1):
        us = rng.random(count)
        out[:, i] = (us[:, None] > cum_b[out[:, i + 1]]).sum(axis=1)
    return out


@pytest.mark.parametrize("Q", [
    [[0.7, 0.3], [0.4, 0.6]],
    [[0.2, 0.5, 0.3], [0.1, 0.1, 0.8], [0.3, 0.3, 0.4]],
])
@pytest.mark.parametrize("seed", [0, 1, 7, 20260808])
def test_conditioned_paths_match_per_position_loop(Q, seed):
    chain = build_markov_base(Q)
    m = chain.n_states
    windows = [([1, 0], -300, 700, 8), ([0], 0, 0, 3), ([1], 0, 50, 5),
               ([0, 1], -40, 1, 4), ([1, 1, 0], -2, 2, 1), ([2 % m], -1, 3, 6)]
    for prefix, lo, hi, count in windows:
        got = sample_conditioned_paths(chain, np.array(prefix), lo, hi, count, generator(seed))
        want = per_position_conditioned_paths(chain, prefix, lo, hi, count, generator(seed))
        assert got.tobytes() == want.tobytes()
