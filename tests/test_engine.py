"""The shared step-table engine on both fiber models: oracles and invariants."""

import copy
import dataclasses
import itertools

import numpy as np
import pytest
from _instances import random_doeblin, random_instance, scalar_instance
from _oracles import per_shift_level, prob_at
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ledger import benchmark_configs

from skewprod import gibbs
from skewprod.base_env import build_markov_base, sample_base_path
from skewprod.config import build_doeblin_system, build_symbolic_system, parse_config
from skewprod.doeblin import DoeblinSystem, build_doeblin_family
from skewprod.errors import LatticeTooLarge
from skewprod.fiber import FiberModel, PotentialTable
from skewprod.gibbs import BLOCK_ROWS, CHUNK, StepTable
from skewprod.presets import PRESETS, preset_config
from skewprod.seeding import generator
from skewprod.symbolic import SymbolicSystem

T_GRID = [0.3, 1.1, 2.5]


def doeblin_path_law(system, window, n, orbit):
    """Enumerate every state path xi_0..xi_{n-1} with its exact probability."""
    fam = system.family
    law = {}
    for path in itertools.product(range(fam.n_states), repeat=n):
        p = orbit.start[path[0]]
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
        table = system.step_table(orbit, n)
        law = table.law()
        oracle = doeblin_path_law(system, window, n, orbit)
        assert law.probs.sum() == pytest.approx(1.0, abs=1e-13)
        assert sum(oracle.values()) == pytest.approx(1.0, abs=1e-13)
        for v, p in oracle.items():
            assert prob_at(law, v) == pytest.approx(p, abs=1e-14)
        spectral = table.char_function(T_GRID)
        for t, val in zip(T_GRID, spectral):
            direct = sum(p * np.exp(1j * t * v) for v, p in oracle.items())
            assert abs(val - direct) < 1e-13


@st.composite
def instances(draw, max_n=8):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = generator(seed)
    h = draw(st.sampled_from([1.0, 0.5]))
    n = draw(st.integers(1, max_n))
    n_symbols = draw(st.integers(1, 3))
    Q = rng.uniform(0.2, 1.0, size=(n_symbols, n_symbols))
    chain = build_markov_base(Q / Q.sum(axis=1, keepdims=True), allow_deterministic=True)
    if draw(st.booleans()):
        q = draw(st.integers(2, 3))
        K = rng.uniform(0.2, 1.0, size=(n_symbols, q, q))
        K /= K.sum(axis=2, keepdims=True)
        lo = draw(st.integers(-5, 2))
        u = h * rng.integers(lo, lo + 4, size=(n_symbols, q)).astype(float)
        fam = build_doeblin_family(K, u, alpha=float(K.min()), lattice_h=h)
        return DoeblinSystem(chain, fam), n, seed
    d, r = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    model = FiberModel(d, r)
    phi = 0.6 * rng.standard_normal((n_symbols, d**r))
    # lo >= 1 gives all-positive tables and lo <= -4 all-negative ones, whose
    # lattice window moves every step
    lo = draw(st.integers(-5, 2))
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
    # backward DP and forward sweep give the same law of S_n
    forward = system.forward_table(orbit, n)
    for m, joint, k0 in forward.sweep(at=range(n - len(forward.probs), n + 1)):
        pass
    assert m == n
    swept = joint.sum(axis=0)
    assert swept.sum() == pytest.approx(1.0, abs=1e-12)
    for i, p in enumerate(swept):
        assert prob_at(law, (k0 + i) * law.h) == pytest.approx(p, abs=1e-9)
    # the spectral route equals the law's Fourier sum
    spectral = table.char_function(T_GRID)
    for t, val in zip(T_GRID, spectral):
        assert abs(val - law.char_function(t)) < 1e-12


def row_by_row_sweep(table, at=None, weights=None):
    """Reference lattice DP, one row at a time: {m: (joint, k0)} for every
    prefix length m in `at` (every prefix when None), on the same value range
    as `StepTable.sweep`.  It sums in extended precision and rounds each kept
    joint once, so that its own drift (a float64 DP's mass drifts by up to
    1e-14 over a few hundred rows that all put their mass on one shift) stays
    far below the bounds it checks."""
    k_start = np.round(table.start_u / table.h).astype(np.int64)
    shifts = np.round(table.u / table.h).astype(np.int64)
    steps, D, B = table.probs.shape
    start = table.start if weights is None else table.start * weights
    k0 = int(k_start.min())
    joint = np.zeros((D, int(k_start.max()) - k0 + 1), dtype=np.longdouble)
    joint[np.arange(D), k_start - k0] = start
    m = table.n - steps
    keep = range(m, table.n + 1) if at is None else set(at)
    out = {m: (joint.astype(float), k0)} if m in keep else {}
    for i in range(steps):
        lo, hi = int(shifts[i].min()), int(shifts[i].max())
        nxt = np.zeros((D, joint.shape[1] + hi - lo), dtype=np.longdouble)
        for w in range(D):
            for b in range(B):
                p = table.probs[i, w, b]
                if p != 0.0:
                    k = shifts[i, w, b] - lo
                    nxt[table.targets[i, w, b], k:k + joint.shape[1]] += p * joint[w]
        joint, k0 = nxt, k0 + lo
        m += 1
        if m in keep:
            out[m] = (joint.astype(float), k0)
    return out


@settings(max_examples=80)
@given(instances(max_n=3 * BLOCK_ROWS), st.data())
def test_blocked_sweep_matches_row_by_row(instance, data):
    system, n, seed = instance
    window = sample_base_path(system.chain, -300, n + 300, seed)
    if isinstance(system, SymbolicSystem):
        orbit = system.orbit(window, n, tol=1e-11)
    else:
        orbit = system.orbit(window, n)
    build = data.draw(st.sampled_from([system.step_table, system.forward_table]))
    table = build(orbit, n)
    rng = generator(seed, 1)
    steps, D, _ = table.probs.shape
    if data.draw(st.booleans()):
        # zero-probability branches: drop some, keeping each row's largest
        probs = np.where(rng.random(table.probs.shape) < 0.3, 0.0, table.probs)
        keep = np.argmax(table.probs, axis=2)[..., None]
        np.put_along_axis(probs, keep, np.take_along_axis(table.probs, keep, axis=2), axis=2)
        table = dataclasses.replace(table, probs=probs / probs.sum(axis=2, keepdims=True))
    weights = rng.uniform(0.5, 2.0, size=D) if data.draw(st.booleans()) else None
    ns = data.draw(st.lists(st.integers(n - steps, n), min_size=1, max_size=4))
    reference = row_by_row_sweep(table, weights=weights)
    # a weighted start is a table whose start law has mass start . weights
    weighted = table if weights is None else \
        dataclasses.replace(table, start=table.start * weights)
    for at in (ns, range(n - steps, n + 1)):
        swept = list(weighted.sweep(at=at))
        assert [m for m, _, _ in swept] == sorted(set(at))
        for m, joint, k0 in swept:
            want, want_k0 = reference[m]
            assert k0 == want_k0 and joint.shape == want.shape
            assert np.max(np.abs(joint - want)) <= 1e-15
    plain = reference if weights is None else row_by_row_sweep(table, ns)
    for m, law in zip(ns, table.laws(ns)):
        assert law.n == m
        want, want_k0 = plain[m]
        want = want.sum(axis=0)
        support = set(range(law.k0, law.k0 + len(law.probs))) | set(
            range(want_k0, want_k0 + len(want)))
        for k in support:
            w = want[k - want_k0] if 0 <= k - want_k0 < len(want) else 0.0
            assert abs(prob_at(law, k * law.h) - w) <= 1e-15
    assert table.law().probs.tobytes() == table.laws([n])[0].probs.tobytes()


def test_sweep_keeps_mass_of_a_repeated_kernel():
    # the instance test_blocked_sweep_matches_row_by_row found (seed 131073):
    # one two-state kernel on every row and no increment, so every law is one
    # lattice point of mass 1.  Rounding in the doubling drifted the same way
    # in every piece, and the sweep's law came out 1.1e-15 short at n = 53.
    rng = generator(131073)
    chain = build_markov_base(np.ones((1, 1)), allow_deterministic=True)
    rng.uniform(size=(1, 1))  # the base chain's draw in `instances`
    K = rng.uniform(0.2, 1.0, size=(1, 2, 2))
    K /= K.sum(axis=2, keepdims=True)
    system = DoeblinSystem(chain, build_doeblin_family(K, np.zeros((1, 2)), alpha=float(K.min()),
                                                      lattice_h=1.0))
    for n in (53, 102):
        orbit = system.orbit(sample_base_path(chain, -300, n + 300, 131073), n)
        for table in (system.step_table(orbit, n), system.forward_table(orbit, n)):
            reference = row_by_row_sweep(table, [n])
            for m, joint, k0 in table.sweep(at=[n]):
                assert np.max(np.abs(joint - reference[m][0])) <= 1e-15
            law = table.law()
            assert law.k0 == 0 and abs(law.probs[0] - 1.0) <= 1e-15


def test_lattice_budget_checked_before_allocation():
    # two shifts 2**50 apart: the DP range alone would take petabytes, so any
    # allocation before the budget check fails with MemoryError instead
    table = StepTable(3, 1.0, np.ones(1), np.zeros(1), np.full((3, 1, 2), 0.5),
                      np.zeros((3, 1, 2), dtype=np.int64),
                      np.broadcast_to([0.0, 2.0**50], (3, 1, 2)))
    with pytest.raises(LatticeTooLarge):
        table.law()
    with pytest.raises(LatticeTooLarge):
        next(table.sweep(at=[0]))


def test_sweep_rejects_prefix_lengths_outside_table():
    table = StepTable(5, 1.0, np.ones(1), np.zeros(1), np.full((3, 1, 2), 0.5),
                      np.zeros((3, 1, 2), dtype=np.int64), np.broadcast_to([0.0, 1.0], (3, 1, 2)))
    assert [m for m, _, _ in table.sweep(at=[2, 5])] == [2, 5]
    for bad in ([1], [6]):
        with pytest.raises(ValueError):
            next(table.sweep(at=bad))
        with pytest.raises(ValueError):
            table.laws(bad)


def test_long_sweep_matches_row_by_row():
    # 88 blocks' worth of rows in uneven segments (1, 4, 32, 263, 1 and 5331
    # rows), so the joint is advanced through padded blocks and a long run of
    # full ones
    n, ns = 88 * BLOCK_ROWS, [0, 1, 5, 37, 300, 301, 88 * BLOCK_ROWS]
    for D in (1, 2):
        rng = generator(81, D)
        probs = rng.uniform(0.05, 1.0, size=(n, D, 3))
        probs /= probs.sum(axis=2, keepdims=True)
        u = rng.integers(-2, 3, size=(n, D, 3)).astype(float)
        table = StepTable(n, 1.0, np.full(D, 1.0 / D), np.arange(D, dtype=float), probs,
                          rng.integers(0, D, size=(n, D, 3)), u)
        reference = row_by_row_sweep(table, ns)
        swept = list(table.sweep(at=ns))
        assert [m for m, _, _ in swept] == ns
        for m, joint, k0 in swept:
            want, want_k0 = reference[m]
            assert k0 == want_k0 and joint.shape == want.shape
            err = np.abs(joint - want)
            assert np.max(err) <= 1e-15
            big = want > 1e-290
            assert np.max(err[big] / want[big]) <= 1e-12
        for law in table.laws(ns):
            assert abs(law.probs.sum() - 1.0) <= 1e-12


def test_sweep_blocks_of_uneven_row_spans_match_row_by_row():
    # D = 4 rows whose shifts span 0 (one increment per row) or 4, so a block's
    # polynomial is shorter than its padded length, and prefixes off the block
    # boundaries: at 64-row blocks, blocks of 1, 62, 2, 64, 64 and 16 rows,
    # the 62 padded with identity rows to 64, one doubling batch per padded
    # length
    n = 3 * BLOCK_ROWS + 17
    ns = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, n]
    rng = generator(84)
    probs = rng.uniform(0.05, 1.0, size=(n, 4, 3))
    probs /= probs.sum(axis=2, keepdims=True)
    offsets = rng.integers(0, 5, size=(n, 4, 3))
    offsets[:, 0, :2] = [0, 4]
    flat = rng.random(n) < 0.5
    u = rng.integers(-2, 3, size=(n, 1, 1)) + np.where(flat[:, None, None], 0, offsets)
    table = StepTable(n, 1.0, rng.dirichlet(np.ones(4)), rng.integers(-1, 2, size=4).astype(float),
                      probs, rng.integers(0, 4, size=(n, 4, 3)), u.astype(float))
    span = table.u.max(axis=(1, 2)) - table.u.min(axis=(1, 2))
    assert set(span.tolist()) == {0.0, 4.0} and not table.stateless()
    reference = row_by_row_sweep(table, ns)
    swept = list(table.sweep(at=ns))
    assert [m for m, _, _ in swept] == ns
    for m, joint, k0 in swept:
        want, want_k0 = reference[m]
        assert k0 == want_k0 and joint.shape == want.shape
        err = np.abs(joint - want)
        assert np.max(err) <= 1e-15
        big = want > 1e-290
        assert np.max(err[big] / want[big]) <= 1e-12


def accumulated(reference, m0, m):
    """The sum over m0 < j <= m of the oracle's joints of S_j, summed over
    states, on one value range: (values, k0)."""
    parts = [(reference[j][0].sum(axis=0), reference[j][1]) for j in range(m0 + 1, m + 1)]
    lo = min((k for _, k in parts), default=0)
    out = np.zeros(max((k + len(v) for v, k in parts), default=1) - lo)
    for v, k in parts:
        out[k - lo:k - lo + len(v)] += v
    return out, lo


def on_range(values, k0, lo, width):
    out = np.zeros(width)
    out[k0 - lo:k0 - lo + len(values)] = values
    return out


def renewal_system(kind):
    """An r = 1 preset (D = 1), a state-dependent Doeblin family (D = 3, S_1
    in the start) or an r = 2 preset (D = 2), with positive weights f."""
    if kind == "r1":
        return build_symbolic_system(parse_config(preset_config("renewal-gamma-3-2"))), [1.7]
    if kind == "doeblin":
        rng = generator(91)
        return random_doeblin(rng, q=3, n_symbols=2), rng.uniform(0.5, 2.0, size=3)
    cfg = preset_config("matrix-llt")
    cfg["potentials"]["u"] = [[1, 1, 2, 3]] * 2
    return build_symbolic_system(parse_config(cfg)), [2.0, 0.5]


@pytest.mark.parametrize("kind,D,m0", [("r1", 1, 0), ("doeblin", 3, 1), ("r2", 2, 0)])
def test_accumulating_sweep_sums_the_weighted_joints(kind, D, m0):
    # n = 150: two full blocks and a padded one
    system, f = renewal_system(kind)
    window = sample_base_path(system.chain, -300, 450, 92)
    table, f = system.forward_table(system.orbit(window, 150), 150), np.asarray(f)
    assert (len(table.start), table.n - len(table.probs)) == (D, m0)
    ns = [m0, m0 + 1, 64, 100, table.n]
    reference = row_by_row_sweep(table, weights=f)
    for m, joint, k0 in table.accumulating(f).sweep(at=ns):
        want, want_k0 = accumulated(reference, m0, m)
        lo = min(k0, want_k0)
        width = max(k0 + joint.shape[1], want_k0 + len(want)) - lo
        got, want = on_range(joint[-1], k0, lo, width), on_range(want, want_k0, lo, width)
        err = np.abs(got - want)
        assert np.max(err) <= 1e-12 * max(np.max(want), 1.0)
        big = want > 1e-290
        assert np.max(err[big] / want[big], initial=0.0) <= 1e-12
        # the live states carry the weighted joint of S_m itself
        live, live_k0 = reference[m]
        live = np.stack([on_range(row, live_k0, k0, joint.shape[1]) for row in live])
        assert np.max(np.abs(joint[:-1] - live)) <= 1e-15
        mass = (m - m0) * (table.start @ f)
        assert abs(got.sum() - mass) <= 1e-13 * max(mass, 1.0)


def test_renewal_task_matches_row_by_row_sums():
    # fam_mod's kernels with u = [[1, 2], [2, 1]]: S_1 = u(xi_0) sits in the
    # start of the Doeblin table, so U(1) and U(2) need the start summand
    from skewprod.limits import _renewal_task

    chain = build_markov_base(np.full((2, 2), 0.5))
    fam = build_doeblin_family(np.array([[[0.7, 0.3], [0.4, 0.6]], [[0.3, 0.7], [0.6, 0.4]]]),
                               np.array([[1.0, 2.0], [2.0, 1.0]]), 0.3, lattice_h=1.0)
    system, f, N = DoeblinSystem(chain, fam), np.array([2.0, 0.5]), 90
    orbit = system.orbit(sample_base_path(chain, -300, N + 300, 93), N)
    table = system.forward_table(orbit, N)
    reference = row_by_row_sweep(table, weights=f)
    a = np.arange(0, 11)
    want = np.zeros(len(a))
    for m in range(1, N + 1):
        joint, k0 = reference[m]
        law = joint.sum(axis=0)
        inside = (a >= k0) & (a < k0 + len(law))
        want[inside] += law[a[inside] - k0]
    assert want[0] == 0 and min(want[1:]) > 0
    mu_f, U, _, _ = _renewal_task(system, orbit, 0, None, N, a, f, [N])
    assert mu_f == pytest.approx(table.start @ f, rel=1e-15)
    assert np.max(np.abs(U - want) / np.maximum(want, 1e-300)) <= 1e-12


def draw_nonnegative(rng, shape):
    """Entries over twelve decades, a fifth of them exact zeros."""
    return rng.random(shape) * 10.0 ** -rng.integers(0, 12, size=shape) * \
        (rng.random(shape) < 0.8)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 600), st.integers(1, 300), st.integers(0, 2**31 - 1))
@example(2, 600, 300, 1)  # the GEMM side, 899 outputs: not a whole number of chunks
@example(3, 2 * CHUNK, CHUNK, 2)  # the smallest operands the GEMM side takes
@example(1, 2 * CHUNK - 1, 300, 3)  # the convolve side
def test_advance_matches_poly_product(D, W, L, seed):
    # nonnegative entries over twelve decades, a fifth of them exact zeros:
    # each output entry is a sum of nonnegative products, which both orders of
    # summation get to within a few roundings, and an exact zero stays zero
    rng = generator(seed)
    joint, coef = draw_nonnegative(rng, (D, W)), draw_nonnegative(rng, (D, D, L))
    got = gibbs._advance(joint, coef)
    want = gibbs._poly_product(joint[None], coef)[0]
    assert got.shape == want.shape == (D, W + L - 1)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 129), st.integers(1, 64),
       st.sampled_from([1, 2, 4, 8, 16]), st.integers(0, 2**31 - 1))
@example(2, 65, 32, gibbs.DOUBLING_CHUNK, 1)  # the last doubling level of matrix-llt's blocks
@example(4, 129, 64, gibbs.DOUBLING_CHUNK, 2)  # one pair per slab, its windows split in 3 calls
def test_banded_doubling_level_matches_per_shift(D, taps, pairs, chunk, seed):
    # a doubling level as one banded GEMM, each left piece D rows advanced by
    # its right piece, against the batched matmul per shift it replaced.  An
    # entry sums at most D * taps nonnegative products, and either order of
    # summation is within (D * taps - 1) / 2 ulps of the exact sum, so they
    # differ by less than D * taps ulps: 1e-15 relative is too tight past a few
    # hundred terms (2.4e-15 seen at D = 4, 129 taps); an exact zero stays zero
    rng = generator(seed)
    left, right = draw_nonnegative(rng, (pairs, taps, D, D)), \
        draw_nonnegative(rng, (pairs, taps, D, D))
    want = per_shift_level(left, right)
    coefficients_last = [np.ascontiguousarray(x.transpose(0, 2, 3, 1)) for x in (left, right)]
    got = gibbs._banded(*coefficients_last, chunk).transpose(0, 3, 1, 2)
    assert got.shape == want.shape == (pairs, 2 * taps - 1, D, D)
    assert np.array_equal(got == 0, want == 0)
    big = want > 1e-290
    assert np.all(np.abs(got - want)[big] <= D * taps * np.finfo(float).eps * want[big])


@pytest.mark.parametrize("D,taps,pairs", [(2, 3, 1024), (2, 5, 512), (4, 8, 300), (1, 1, 7)])
def test_shift_level_in_slabs_matches_per_shift(D, taps, pairs):
    # the 3- and 5-tap levels of matrix-llt's blocks run in slabs of pairs;
    # every pair takes the same matmuls as in one batch, so the bits agree
    rng = generator(D, taps)
    left, right = draw_nonnegative(rng, (pairs, taps, D, D)), \
        draw_nonnegative(rng, (pairs, taps, D, D))
    assert gibbs._shift_level(left, right).tobytes() == per_shift_level(left, right).tobytes()


def test_matrix_sweep_through_banded_gemm_matches_row_by_row(monkeypatch):
    # the matrix-llt chain (D = 2, increments 0..2) over 700 rows, backward and
    # forward: its joints grow to 1,400 entries and its blocks to 129 taps, so
    # the joint advances run the banded GEMM, not only np.convolve
    system = build_symbolic_system(parse_config(preset_config("matrix-llt")))
    n, ns = 700, [0, 1, BLOCK_ROWS + 1, 300, 301, 700]
    orbit = system.orbit(sample_base_path(system.chain, -300, n + 300, 85), n)
    operands, kernel = [], gibbs._advance

    def advance(joint, coef):
        operands.append((joint.shape[1], coef.shape[2]))
        return kernel(joint, coef)

    monkeypatch.setattr(gibbs, "_advance", advance)
    for table in (system.step_table(orbit, n), system.forward_table(orbit, n)):
        assert table.probs.shape[1] == 2 and not table.stateless()
        reference = row_by_row_sweep(table, ns)
        swept = list(table.sweep(at=ns))
        assert [m for m, _, _ in swept] == ns
        for m, joint, k0 in swept:
            want, want_k0 = reference[m]
            assert k0 == want_k0 and joint.shape == want.shape
            err = np.abs(joint - want)
            assert np.max(err) <= 1e-15
            big = want > 1e-290
            assert np.max(err[big] / want[big]) <= 1e-12
        for m, law in zip(ns, table.laws(ns)):
            assert_law_matches(law, reference, m, atol=1e-15, rtol=1e-12)
    assert any(W >= 2 * CHUNK and L >= CHUNK for W, L in operands)


def assert_law_matches(law, reference, m, atol, rtol=None):
    """law against the row-by-row joint at m, on the union of their supports."""
    want, want_k0 = reference[m]
    want = want.sum(axis=0)
    assert law.n == m
    lo, hi = min(law.k0, want_k0), max(law.k0 + len(law.probs), want_k0 + len(want))
    got, ref = np.zeros(hi - lo), np.zeros(hi - lo)
    got[law.k0 - lo:][:len(law.probs)] = law.probs
    ref[want_k0 - lo:][:len(want)] = want
    err = np.abs(got - ref)
    assert np.max(err) <= atol
    if rtol is not None:
        big = ref > 1e-290
        assert np.max(err[big] / ref[big]) <= rtol


def test_sweep_adds_branches_sharing_shift_and_target():
    # in each row, branches 0 and 1 of state 0 (and 1 and 2 of state 1) move
    # to the same target with the same shift, so their masses must add
    n = 3 * BLOCK_ROWS + 5
    rng = generator(82)
    probs = rng.uniform(0.1, 1.0, size=(n, 2, 3))
    probs /= probs.sum(axis=2, keepdims=True)
    u = rng.integers(-2, 3, size=(n, 2, 3)).astype(float)
    targets = rng.integers(0, 2, size=(n, 2, 3))
    u[:, 0, 1], targets[:, 0, 1] = u[:, 0, 0], targets[:, 0, 0]
    u[:, 1, 2], targets[:, 1, 2] = u[:, 1, 1], targets[:, 1, 1]
    table = StepTable(n, 1.0, np.array([0.3, 0.7]), np.array([0.0, 1.0]), probs, targets, u)
    assert not table.stateless()
    ns = [0, 7, BLOCK_ROWS + 1, n]
    reference = row_by_row_sweep(table, ns)
    for (m, joint, k0), law in zip(table.sweep(at=ns), table.laws(ns)):
        want, want_k0 = reference[m]
        assert k0 == want_k0 and joint.shape == want.shape
        assert np.max(np.abs(joint - want)) <= 1e-15
        assert_law_matches(law, reference, m, atol=1e-15)


def test_long_stateless_law_matches_row_by_row():
    # 4096 rows alternating irregularly between the clt-scalar step laws (fair
    # +-1 and {-1, +2} at 2/3 : 1/3), so each law's squaring ladder runs 11 deep
    n, ns = 4096, [0, 1, 3, 1000, 1025, 4096]
    rng = generator(83)
    laws = np.array([[0.5, 0.5], [2.0 / 3.0, 1.0 / 3.0]])
    shifts = np.array([[-1.0, 1.0], [-1.0, 2.0]])
    pick = rng.integers(0, 2, size=n)
    table = StepTable(n, 1.0, np.array([0.25, 0.75]), np.array([0.0, 3.0]),
                      np.repeat(laws[pick][:, None], 2, axis=1),
                      np.zeros((n, 2, 2), dtype=np.int64),
                      np.repeat(shifts[pick][:, None], 2, axis=1), pick)
    assert table.stateless()
    reference = row_by_row_sweep(table, ns)
    for m, law in zip(ns, table.laws(ns)):
        assert_law_matches(law, reference, m, atol=1e-15, rtol=1e-12)
        assert abs(law.probs.sum() - 1.0) <= 1e-12


def unique_groups(table):
    """The rows grouped as `StepTable._step_groups` groups them, by np.unique
    over every row's step law (state 0's probabilities and increments): each
    group's last row and size, latest law first, and each row's group."""
    rows = np.concatenate([table.probs[::-1, 0], table.u[::-1, 0]], axis=1)
    _, first, labels, counts = np.unique(rows, axis=0, return_index=True,
                                         return_inverse=True, return_counts=True)
    order = np.argsort(first)
    return len(rows) - 1 - first[order], counts[order], np.argsort(order)[labels.ravel()][::-1]


def reads_state(table):
    """Whether some row's probabilities or increments differ between states."""
    return not (np.all(table.probs == table.probs[:, :1]) and np.all(table.u == table.u[:, :1]))


def assert_groups_match_unique(table):
    for got, want in zip(table._step_groups, unique_groups(table)):
        assert got.tolist() == want.tolist()


def reference_sample(table, rng, replicates=1):
    """The sampler on the groups of `unique_groups`."""
    D = table.probs.shape[1]
    states = np.zeros(replicates, dtype=np.int64) if D == 1 else \
        rng.choice(D, size=replicates, p=table.start)
    totals = table.start_u[states]
    for i, count in zip(*unique_groups(table)[:2]):
        draws = rng.multinomial(count, table.probs[i, 0], size=replicates)
        totals += draws @ table.u[i, 0]
    return totals


@st.composite
def stateless_tables(draw):
    """Keyed tables whose rows repeat a few step laws, among them laws that
    differ from another only in u, or by one ulp in one probability; every
    law has two keys, so that the grouping merges keys."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = generator(seed)
    D, B = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    probs = rng.dirichlet(np.ones(B), size=draw(st.integers(1, 3)))
    u = rng.integers(-2, 3, size=probs.shape).astype(float)
    probs = np.concatenate([probs, probs[:1], probs[:1]])
    u = np.concatenate([u, u[:1] + np.eye(B)[0], u[:1]])
    probs[-1, 0] = np.nextafter(probs[-1, 0], 1.0)
    pick = rng.integers(0, len(probs), size=draw(st.integers(0, 60)))
    steps = len(pick)
    start = rng.dirichlet(np.ones(D))
    table = StepTable(steps, 1.0, start, rng.integers(-1, 2, size=D).astype(float),
                      np.repeat(probs[pick][:, None], D, axis=1),
                      rng.integers(0, D, size=(steps, D, B)),
                      np.repeat(u[pick][:, None], D, axis=1),
                      2 * pick + rng.integers(0, 2, size=steps))
    return table, seed


@settings(max_examples=100, deadline=None)
@given(stateless_tables(), st.integers(1, 50))
def test_row_groups_match_unique(instance, replicates):
    table, seed = instance
    assert table.stateless()
    assert_groups_match_unique(table)
    got = table.sample(generator(seed, 2), replicates)
    want = reference_sample(table, generator(seed, 2), replicates)
    assert got.tobytes() == want.tobytes()
    # the cached groups serve a second draw the same way
    assert table.sample(generator(seed, 3), replicates).tobytes() == \
        reference_sample(table, generator(seed, 3), replicates).tobytes()


@st.composite
def built_tables(draw):
    """The step and forward tables of a system from `_instances`: r = 1 fibers
    (one table on every symbol, or pair keys) and rank-one Doeblin families,
    which their builders key, beside r = 2 fibers and full-rank families."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = generator(seed)
    n_symbols, n = draw(st.integers(2, 3)), draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["r1", "same-tables", "pair", "r2", "doeblin", "rank-one"]))
    if kind in ("doeblin", "rank-one"):
        system = random_doeblin(rng, draw(st.integers(2, 3)), n_symbols,
                                rank_one=kind == "rank-one")
        if draw(st.booleans()):  # one u on every symbol: keys (s, t) and (s, t') share a law
            system.family.u[:] = system.family.u[:1]
    elif kind == "same-tables":
        u_values = rng.integers(-2, 3, size=draw(st.integers(2, 3)))
        system = SymbolicSystem(*scalar_instance(u_values, n_states=n_symbols, lattice_h=1.0))
    else:
        chain, model, pot = random_instance(rng, d=draw(st.integers(2, 3)),
                                            r=2 if kind == "r2" else 1, n_states=n_symbols)
        if kind == "pair":
            pot = PotentialTable(pot.phi, rng.standard_normal((n_symbols, n_symbols, model.d)),
                                 model, u_next_symbol=True)
        system = SymbolicSystem(chain, model, pot)
    orbit = system.orbit(sample_base_path(system.chain, -300, 300, seed), n)
    return kind, system.step_table(orbit, n), system.forward_table(orbit, n)


@settings(max_examples=100, deadline=None)
@given(built_tables())
def test_builders_key_exactly_the_state_free_tables(instance):
    kind, *tables = instance
    for table in tables:
        assert (table.keys is None) == (kind in ("r2", "doeblin"))
        if table.keys is None:
            assert reads_state(table)
        else:
            assert len(table.keys) == len(table.probs)
            assert_groups_match_unique(table)


def test_zero_row_keyed_table_groups_to_nothing():
    # a Doeblin table of n = 1 carries its one summand in the start
    system = random_doeblin(generator(86), q=3, n_symbols=2, rank_one=True)
    table = system.step_table(system.orbit(sample_base_path(system.chain, -80, 20, 86), 1), 1)
    assert table.probs.shape[0] == 0 and table.keys.shape == (0,)
    assert [len(a) for a in table._step_groups] == [0, 0, 0]
    law = table.law()
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.isin(table.sample(generator(86, 1), 20), table.start_u).all()


SHIPPED_CONFIGS = {**{name: preset_config(name) for name in PRESETS}, **benchmark_configs()}


@pytest.mark.parametrize("name", list(SHIPPED_CONFIGS))
def test_shipped_configs_key_every_state_free_table(name):
    # a table that reads no state but comes without keys would silently leave
    # the grouped laws and the grouped sampler for the sweep and the row loop
    cfg = parse_config(copy.deepcopy(SHIPPED_CONFIGS[name]))
    system = (build_symbolic_system if cfg.kind == "symbolic" else build_doeblin_system)(cfg)
    orbit = system.orbit(sample_base_path(system.chain, -300, 300, 87), 200)
    for table in (system.step_table(orbit, 200), system.forward_table(orbit, 200)):
        if table.keys is None:
            assert reads_state(table)
        else:
            assert_groups_match_unique(table)


@settings(max_examples=100, deadline=None)
@given(stateless_tables(), st.data())
def test_stateless_laws_match_row_by_row(instance, data):
    table, _ = instance
    m0 = table.n - len(table.probs)
    ns = [m0, table.n] + data.draw(st.lists(st.integers(m0, table.n), max_size=4))
    ns = data.draw(st.permutations(ns))
    reference = row_by_row_sweep(table, ns)
    for m, law in zip(ns, table.laws(ns)):
        assert_law_matches(law, reference, m, atol=1e-15)
