import math
import time

import numpy as np
import pytest

from skewprod.base_env import (
    _cum_rows,
    _walk,
    build_markov_base,
    cylinder_probability,
    periodic_point,
    sample_base_path,
    sample_conditioned_paths,
)
from skewprod.errors import (
    InsufficientWindow,
    InvalidSymbol,
    NoConvergence,
    NonStochasticRow,
    ZeroStateSpace,
    ZeroTransition,
)
from skewprod.fiber import word_table
from skewprod.limits import stratified_windows
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


def test_stationary_vector_of_a_slow_chain():
    # nearly absorbing: 1 - Q[0, 0] keeps few digits, and a power iteration
    # contracts by only 1 - 3 eps per step
    eps = 1e-5
    Q = [[1 - eps, eps], [2 * eps, 1 - 2 * eps]]
    times = []
    for _ in range(3):
        t = time.perf_counter()
        chain = build_markov_base(Q)
        times.append(time.perf_counter() - t)
    assert np.max(np.abs(chain.stationary - [2 / 3, 1 / 3])) <= 1e-14
    assert min(times) < 0.01


def test_stationary_residual_is_checked(monkeypatch):
    from skewprod import base_env

    monkeypatch.setattr(base_env, "_stationary", lambda Q: np.full(len(Q), 1 / len(Q)))
    with pytest.raises(NoConvergence, match="residual"):
        build_markov_base([[0.9, 0.1], [0.2, 0.8]])
    assert build_markov_base([[0.5, 0.5], [0.5, 0.5]]).stationary.tolist() == [0.5, 0.5]


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
    rngs = [generator(9, si) for si in range(2)]
    paths = sample_conditioned_paths(chain, [[1, 0], [0, 1]], lo=-2, hi=4, count=32, rngs=rngs)
    assert paths.shape == (64, 7)
    assert np.all(paths[:32, 2:4] == [1, 0])
    assert np.all(paths[32:, 2:4] == [0, 1])
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


def per_position_stationary_paths(chain, length, count, rng):
    """The per-position sampling loop from a stationary start."""
    out = np.empty((count, length), dtype=np.int64)
    out[:, 0] = rng.choice(chain.n_states, size=count, p=chain.stationary)
    cum = np.cumsum(chain.transition, axis=1)
    cum[:, -1] = 1.0
    for i in range(1, length):
        us = rng.random(count)
        out[:, i] = (us[:, None] > cum[out[:, i - 1]]).sum(axis=1)
    return out


def per_stratum_windows(chain, strata_depth, total, lo, hi, master_seed, stream):
    """The per-stratum loop: one conditioned draw per base cylinder, each
    from its own generator, as (weight, symbols) pairs."""
    m = chain.n_states
    if chain.deterministic or strata_depth == 0:
        strata = [()]
    else:
        strata = [tuple(w) for w in word_table(m, strata_depth)]
    per = max(1, math.ceil(total / len(strata)))
    out = []
    for si, prefix in enumerate(strata):
        rng = generator(master_seed, stream, si)
        if prefix:
            p_s = cylinder_probability(chain, {i: v for i, v in enumerate(prefix)})
            paths = per_position_conditioned_paths(chain, prefix, lo, hi, per, rng)
        else:
            p_s = 1.0
            paths = per_position_stationary_paths(chain, hi - lo + 1, per, rng)
        out += [(p_s / per, path) for path in paths]
    return out


QS = [
    [[0.7, 0.3], [0.4, 0.6]],
    [[0.2, 0.5, 0.3], [0.1, 0.1, 0.8], [0.3, 0.3, 0.4]],
]


@pytest.mark.parametrize("Q", QS)
@pytest.mark.parametrize("seed", [0, 1, 7, 20260808])
def test_conditioned_paths_match_per_position_loop(Q, seed):
    chain = build_markov_base(Q)
    m = chain.n_states
    windows = [([1, 0], -300, 700, 8), ([0], 0, 0, 3), ([1], 0, 50, 5),
               ([0, 1], -40, 1, 4), ([1, 1, 0], -2, 2, 1), ([2 % m], -1, 3, 6)]
    for prefix, lo, hi, count in windows:
        got = sample_conditioned_paths(chain, [prefix], lo, hi, count, [generator(seed)])
        want = per_position_conditioned_paths(chain, prefix, lo, hi, count, generator(seed))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("Q", QS + [[[1.0]]])
@pytest.mark.parametrize("strata_depth", [0, 1, 2, 3])
def test_stratified_windows_match_per_stratum_loop(Q, strata_depth):
    # one forward and one backward walk for all strata draw exactly what one
    # conditioned draw per stratum does, rounding and window edges included
    chain = build_markov_base(Q, allow_deterministic=True)
    k = 0 if chain.deterministic else strata_depth
    spans = [(-300, 700), (0, 40), (-25, max(k - 1, 0)), (0, max(k - 1, 0))]
    for total in (1, 7, 13, 30):
        for lo, hi in spans:
            got = stratified_windows(chain, strata_depth, total, lo, hi, 20260808, 101)
            want = per_stratum_windows(chain, strata_depth, total, lo, hi, 20260808, 101)
            assert [ww.weight for ww in got] == [w for w, _ in want]
            assert all((ww.window.lo, ww.window.hi) == (lo, hi) for ww in got)
            assert (np.array([ww.window.symbols(lo, hi) for ww in got]).tobytes()
                    == np.array([path for _, path in want]).tobytes())


def per_position_walk(cum, first, us):
    """One inverse-cdf step at a time: what `_walk`'s blocked scan computes."""
    state = np.asarray(first)
    out = np.empty((len(state), len(us)), dtype=np.int64)
    for i, u in enumerate(us):
        state = (u[:, None] > cum[state]).sum(axis=1)
        out[:, i] = state
    return out


@pytest.mark.parametrize("Q", QS)
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 15, 16, 17, 99, 100, 101])
@pytest.mark.parametrize("count", [1, 5])
def test_walk_matches_per_position_loop(Q, steps, count):
    # blocks of isqrt(steps) steps, with a padded last block off the squares
    chain = build_markov_base(Q)
    cum = _cum_rows(chain.transition)
    rng = generator(steps, count)
    first = rng.integers(0, chain.n_states, count)
    us = rng.random((steps, count))
    got = _walk(cum, first, us)
    assert got.shape == (count, steps)
    assert np.array_equal(got, per_position_walk(cum, first, us))


def test_stratified_ensemble_makes_two_walks(monkeypatch):
    from skewprod import base_env

    calls = []
    walk = base_env._walk

    def counted(cum, first, us):
        calls.append(us.shape)
        return walk(cum, first, us)

    monkeypatch.setattr(base_env, "_walk", counted)
    chain = build_markov_base([[0.7, 0.3], [0.4, 0.6]])
    ens = stratified_windows(chain, 2, 32, -10, 30, 5, 1)
    assert len(ens) == 32
    assert calls == [(30 - 2 + 1, 32), (10, 32)]  # forward of the prefix, then backward of 0
