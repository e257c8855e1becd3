import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _instances import random_instance, scalar_instance
from _oracles import pressure_derivatives, taylor_factors, two_scan_solve_raw_once

from skewprod.base_env import build_markov_base, sample_base_path
from skewprod.errors import NoConvergence, NonpositiveEigenfunction
from skewprod.fiber import CylinderFunction, FiberModel, PotentialTable
from skewprod.rpf import (
    SystemOrbit,
    exp_convergence_probe,
    lambda_sequence,
    _direction_change,
    _solve_raw_once,
    solve_raw_orbit,
    solve_rpf,
)
from skewprod.seeding import generator
from skewprod.symbolic import SymbolicSystem
from skewprod.transfer import key_matrices, symbol_keys


def make_window(chain, seed=1, back=300, fwd=400):
    return sample_base_path(chain, -back, fwd, seed)


def test_maximal_entropy_triplet():
    chain, model, pot = scalar_instance([1.0, -1.0])  # phi = -ln 2 throughout
    win = make_window(chain)
    trip = solve_rpf(win, 0.0, 64, 64, pot, model)
    assert trip.lambda_ == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(trip.h.values, 1.0, atol=1e-12)
    assert np.allclose(trip.nu, 1.0, atol=1e-12)  # single cylinder
    assert trip.eigen_residual < 1e-10 and trip.dual_residual < 1e-10


def test_maximal_entropy_r3_uniform():
    rng = generator(2)
    chain, model, pot = random_instance(rng, d=2, r=3, n_states=2)
    pot.phi[:] = -np.log(2.0)
    win = make_window(chain, seed=3)
    trip = solve_rpf(win, 0.0, 64, 64, pot, model)
    assert trip.lambda_ == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(trip.h.values, 1.0, atol=1e-9)
    assert np.allclose(trip.nu, 0.25, atol=1e-9)
    assert np.allclose(trip.raw_nu, 0.25, atol=1e-9)


def test_column_normalized_prop2():
    # column-normalized weights: the raw dual functional is the uniform
    # reference and the raw eigenvalue is exactly 1
    rng = generator(4)
    chain, model, pot = random_instance(rng, d=3, r=2, n_states=3, column_normalized=True)
    win = make_window(chain, seed=5)
    trip = solve_rpf(win, 0.0, 64, 64, pot, model)
    assert abs(trip.raw_lambda - 1.0) < 1e-9
    assert np.max(np.abs(trip.raw_nu - 1.0 / 3)) < 1e-9


def test_scalar_lambda_closed_form():
    chain, model, pot = scalar_instance([1.0, -1.0], phi_log_weights=[-0.9, -0.4])
    win = make_window(chain)
    for t in [0.0, 0.2, 0.6]:
        trip = solve_rpf(win, 1j * t, 64, 64, pot, model)
        expected = np.exp(-0.9 + 1j * t) + np.exp(-0.4 - 1j * t)
        assert trip.raw_lambda == pytest.approx(expected, abs=1e-12)


def test_residuals_small_on_random_instances():
    for i in range(5):
        rng = generator(20 + i)
        d = int(rng.integers(2, 4))
        r = int(rng.integers(2, 4))
        S = int(rng.integers(2, 4))
        chain, model, pot = random_instance(rng, d=d, r=r, n_states=S)
        win = make_window(chain, seed=30 + i)
        trip = solve_rpf(win, 0.0, 64, 64, pot, model)
        assert trip.eigen_residual < 1e-8
        assert trip.dual_residual < 1e-8
        assert trip.normalization_residual < 1e-9
        assert trip.lambda_ == pytest.approx(1.0, abs=1e-8)
        assert np.all(trip.h.values > 0)
        assert np.all(trip.nu >= 0) and np.sum(trip.nu) == pytest.approx(1.0)


def test_gauge_consistency_under_window_enlargement():
    rng = generator(42)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    win = make_window(chain, seed=7, back=600, fwd=700)
    t1 = solve_rpf(win, 0.4j, 64, 64, pot, model)
    t2 = solve_rpf(win, 0.4j, 256, 256, pot, model)
    assert t1.lambda_ == pytest.approx(t2.lambda_, abs=1e-10)
    assert np.max(np.abs(t1.h.values - t2.h.values)) < 1e-9
    assert np.max(np.abs(t1.nu - t2.nu)) < 1e-9


def test_duality_residual_on_basis():
    rng = generator(43)
    chain, model, pot = random_instance(rng, d=2, r=3, n_states=2)
    win = make_window(chain, seed=8)
    orbit = SystemOrbit(win, 0, 4, pot, model, tol=1e-10)
    raw = orbit.raw0
    mats = key_matrices(0.0, pot, model)[symbol_keys(win, pot, 0, 3)]
    for j in range(0, 3):
        M = mats[j]
        for w in range(model.space_dim):
            e = np.zeros(model.space_dim)
            e[w] = 1.0
            lhs = raw.V[j + 1] @ (M @ e)
            rhs = raw.lam[j] * (raw.V[j] @ e)
            assert abs(lhs - rhs) < 1e-8


def test_exp_convergence_probe_eigen_direction():
    rng = generator(44)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    win = make_window(chain, seed=9)
    # q proportional to the eigenfunction collapses immediately
    fit = exp_convergence_probe(win, 0.0, CylinderFunction(1, np.ones(2), 2), [2, 4, 6], pot, model)
    assert fit.degenerate or fit.c < 1.0


def test_exp_convergence_scalar_rank_one():
    chain, model, pot = scalar_instance([1.0, -1.0])
    win = make_window(chain)
    q = CylinderFunction.constant(2.5, 2)
    fit = exp_convergence_probe(win, 0.0, q, list(range(1, 10)), pot, model)
    assert fit.degenerate  # one-step convergence on the 1-dim space


def test_exp_convergence_generic_rate():
    rng = generator(45)
    chain, model, pot = random_instance(rng, d=2, r=3, n_states=2)
    win = make_window(chain, seed=10)
    q = CylinderFunction(2, rng.standard_normal(4), 2)
    fit = exp_convergence_probe(win, 0.0, q, list(range(2, 31)), pot, model)
    assert fit.degenerate or (fit.c < 0.9 and fit.r_squared > 0.99)


@pytest.mark.parametrize("r,pair", [(1, False), (2, False), (2, True), (3, True)])
def test_taylor_factors_match_key_matrices(r, pair):
    # block Toeplitz [[A0, A1, A2], [0, A0, A1], [0, 0, A0]] of M(z) = A0 + z A1 + z^2 A2 + ...
    rng = generator(60 + r + 3 * pair)
    model = FiberModel(2, r)
    u = rng.standard_normal((2, 2, 2**r) if pair else (2, 2**r))
    pot = PotentialTable(0.5 * rng.standard_normal((2, 2**r)), u, model, u_next_symbol=pair)
    D, eps = model.space_dim, 1e-3
    blocks = taylor_factors(pot, model).reshape(-1, 3, D, 3, D).swapaxes(2, 3)
    M0, Mp, Mm = (key_matrices(z, pot, model) for z in (0.0, eps, -eps))
    A0, A1, A2 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 0, 2]
    assert np.array_equal(A0, M0)
    for i in range(3):
        assert np.array_equal(blocks[:, i, i], A0)
        assert not np.any(blocks[:, i, :i])
    assert np.array_equal(blocks[:, 1, 2], A1)
    assert np.allclose(A1, (Mp - Mm) / (2 * eps), rtol=1e-5, atol=1e-8)
    assert np.allclose(2.0 * A2, (Mp - 2.0 * M0 + Mm) / eps**2, rtol=1e-5, atol=1e-6)


def test_pressure_derivatives_zero_u():
    chain, model, pot = scalar_instance([0.0, 0.0])
    win = make_window(chain)
    d1, d2 = pressure_derivatives(win, 12, pot, model)
    assert abs(d1) < 1e-12 and abs(d2) < 1e-12


def test_pressure_derivatives_scalar_pm1():
    chain, model, pot = scalar_instance([1.0, -1.0])
    win = make_window(chain)
    for k in [1, 5, 20]:
        d1, d2 = pressure_derivatives(win, k, pot, model)
        assert abs(d1) < 1e-10
        assert d2 == pytest.approx(k, abs=1e-9)


def test_pressure_derivative_matches_quadrature():
    rng = generator(46)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    win = make_window(chain, seed=11, back=400, fwd=500)
    k = 12
    orbit = SystemOrbit(win, 0, k + 80, pot, model, tol=1e-11)
    d1, d2 = pressure_derivatives(win, k, pot, model, orbit0=orbit)
    (mean,), (var,) = SymbolicSystem.forward_table(orbit, k).moments([k])
    assert d1 == pytest.approx(mean, abs=1e-8)
    # second derivative tracks the variance up to a uniformly bounded constant
    assert abs(d2 - var) < 5.0


def test_jet_first_derivative_matches_finite_differences():
    rng = generator(47)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    win = make_window(chain, seed=12)
    k = 5
    orbit = SystemOrbit(win, 0, k + 80, pot, model)
    d1, d2 = pressure_derivatives(win, k, pot, model, orbit0=orbit)
    errs = []
    for delta in [0.02, 0.01]:
        pressure = np.log(lambda_sequence(win, 1j * delta, k, orbit)).sum()
        # Pi(it) ~ i t Pi'(0) - t^2/2 Pi''(0): imaginary part carries d1
        fd = np.imag(pressure) / delta
        errs.append(abs(fd - d1))
    assert errs[1] < errs[0] * 0.3 + 1e-9  # O(delta^2) convergence


def test_second_derivative_matches_finite_differences():
    rng = generator(48)
    chain, model, pot = random_instance(rng, d=2, r=2, n_states=2)
    win = make_window(chain, seed=13)
    k = 5
    orbit = SystemOrbit(win, 0, k + 80, pot, model)
    d1, d2 = pressure_derivatives(win, k, pot, model, orbit0=orbit)
    errs = []
    for delta in [0.02, 0.01]:
        pressure = np.log(lambda_sequence(win, 1j * delta, k, orbit)).sum()
        # Re Pi(it) = -t^2/2 Pi''(0) + O(t^4)
        fd = -2.0 * np.real(pressure) / delta**2
        errs.append(abs(fd - d2))
    assert errs[1] < errs[0] * 0.3 + 1e-7  # O(delta^2) convergence
    assert errs[1] < 1e-3 * max(1.0, abs(d2))


def test_lambda_sequence_raises_where_the_solver_does():
    # u = 1 exactly on the fiber words ending in 1: at t = pi the twisted
    # factor 0.5 [[1, 1], [-1, -1]] squares to zero, so the backward sweep dies
    chain = build_markov_base([[0.5, 0.5], [0.5, 0.5]])
    model = FiberModel(2, 2)
    pot = PotentialTable(np.full((2, 4), -np.log(2.0)), [[0.0, 1.0, 0.0, 1.0]] * 2, model)
    win = make_window(chain)
    orbit = SystemOrbit(win, 0, 20, pot, model)
    with pytest.raises(NoConvergence):
        solve_raw_orbit(win, 1j * np.pi, 0, 20, pot, model)
    with pytest.raises(NoConvergence):
        lambda_sequence(win, 1j * np.pi, 20, orbit)


def test_window_edge_stops_a_falling_truncation_gap():
    # instance seed 9219 of test_engine_invariants: d = 2, r = 3 over a
    # one-symbol base.  The truncation gap falls geometrically (4.2e-3 at
    # truncation 64, 5.2e-5 at 128, 7.7e-9 at 256), but the +-300 window caps
    # the truncation at 300, where it is still above tol; a +-700 window
    # lets the doubling reach 512 and converge
    rng = generator(9219)
    Q = rng.uniform(0.2, 1.0, size=(1, 1))
    chain = build_markov_base(Q / Q.sum(axis=1, keepdims=True), allow_deterministic=True)
    model = FiberModel(2, 3)
    pot = PotentialTable(0.6 * rng.standard_normal((1, 8)), np.zeros((1, 8)), model)
    with pytest.raises(NoConvergence, match=r"^truncation gap 3\.7\d\de-10 stayed above tol 1e-11 "
                       r"at z=0\.0 with truncation \(300,300\), capped by the window's edge "
                       r"\(back\) and the window's edge \(forward\)$"):
        SystemOrbit(sample_base_path(chain, -300, 300, 9219), 0, 1, pot, model, tol=1e-11)
    orbit = SystemOrbit(sample_base_path(chain, -700, 700, 9219), 0, 1, pot, model, tol=1e-11)
    assert (orbit.raw0.back_used, orbit.raw0.fwd_used) == (512, 512)
    assert orbit.raw0.max_residual < 1e-11


def test_truncation_gap_catches_a_short_truncation():
    # e^phi(a.w) = W[w, a] and u = 1 on one word: at z = i pi the eigen and
    # dual residuals vanish at truncation (64, 64), yet the direction of H at
    # j_lo moves by 0.17, 0.33 and 0.57 as the truncation doubles
    W = np.array([[0.6, 0.4], [0.3, 0.7]])
    model = FiberModel(2, 2)
    phi = [np.log(W[i % 2, i // 2]) for i in range(4)]
    pot = PotentialTable([phi] * 2, [[0.0, 0.0, 1.0, 0.0]] * 2, model)
    win = make_window(build_markov_base([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(NoConvergence):
        solve_raw_orbit(win, 1j * np.pi, 0, 10, pot, model)
    trip = solve_raw_orbit(win, 0.0, 0, 10, pot, model)
    assert (trip.back_used, trip.fwd_used) == (64, 64)
    assert trip.truncation_gap < 1e-9


@pytest.mark.parametrize("z", [0.0, 0.4j])
def test_truncation_gap_equals_a_half_truncation_solve(z):
    rng = generator(12)
    chain, model, pot = random_instance(rng, d=2, r=3, n_states=2)
    win = make_window(chain, seed=5)
    mats = key_matrices(z, pot, model)
    keys = symbol_keys(win, pot, -64, 20 + 64)
    full = _solve_raw_once(mats, keys, z, 0, 20, model, 64, 64)
    half = _solve_raw_once(mats, keys[32:-32], z, 0, 20, model, 32, 32)
    want = max(_direction_change(full.H[0], half.H[0]),
               _direction_change(full.V[-1], half.V[-1]))
    assert 0.0 < want < 1e-6
    assert abs(full.truncation_gap - want) <= 1e-15


def test_window_edge_stops_a_falling_truncation_gap_of_a_varying_cocycle():
    # the window-edge case over a two-symbol base, phi raised by 0.2 on one
    # word of symbol 1: the factors vary with the base orbit, so the scan
    # solves it, and its gap still stops at the window's edge above tol
    rng = generator(9219)
    rng.uniform(0.2, 1.0, size=(1, 1))
    model = FiberModel(2, 3)
    phi = 0.6 * rng.standard_normal((1, 8))
    phi = np.concatenate([phi, phi + 0.2 * (np.arange(8) == 0)])
    pot = PotentialTable(phi, np.zeros((2, 8)), model)
    mats = key_matrices(0.0, pot, model)
    assert not np.all(mats == mats[:1])
    chain = build_markov_base([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(NoConvergence, match=r"^truncation gap \S+ stayed above tol 1e-11 "
                       r"at z=0\.0 with truncation \(300,300\), capped by the window's edge "
                       r"\(back\) and the window's edge \(forward\)$"):
        SystemOrbit(sample_base_path(chain, -300, 300, 9219), 0, 1, pot, model, tol=1e-11)
    orbit = SystemOrbit(sample_base_path(chain, -700, 700, 9219), 0, 1, pot, model, tol=1e-11)
    assert (orbit.raw0.back_used, orbit.raw0.fwd_used) == (512, 512)
    assert orbit.raw0.max_residual < 1e-11


def test_truncation_gap_catches_a_short_truncation_of_a_varying_cocycle():
    # the short-truncation case with e^phi(0.0) = 0.5 instead of 0.6 on
    # symbol 1: the scan's eigen and dual residuals vanish at (64, 64) and
    # only its truncation gap fails the solve at z = i pi
    W = np.array([[0.6, 0.4], [0.3, 0.7]])
    model = FiberModel(2, 2)
    phi = [np.log(W[i % 2, i // 2]) for i in range(4)]
    pot = PotentialTable([phi, [np.log(0.5)] + phi[1:]], [[0.0, 0.0, 1.0, 0.0]] * 2, model)
    win = make_window(build_markov_base([[0.5, 0.5], [0.5, 0.5]]))
    mats = key_matrices(1j * np.pi, pot, model)
    assert not np.all(mats == mats[:1])
    short = _solve_raw_once(mats, symbol_keys(win, pot, -64, 10 + 64), 1j * np.pi, 0, 10,
                            model, 64, 64)
    assert max(short.eigen_residual, short.dual_residual) < 1e-12 < 1e-9 < short.truncation_gap
    with pytest.raises(NoConvergence, match=r"^truncation gap "):
        solve_raw_orbit(win, 1j * np.pi, 0, 10, pot, model)
    trip = solve_raw_orbit(win, 0.0, 0, 10, pot, model)
    assert (trip.back_used, trip.fwd_used) == (64, 64)
    assert trip.truncation_gap < 1e-9


def _matrix_llt_fiber():
    """matrix-llt's fiber: e^phi(a.w) = W[w, a] and u on symbols 0 and 1 alike."""
    W = np.array([[0.6, 0.4], [0.3, 0.7]])
    model = FiberModel(2, 2)
    phi = [np.log(W[i % 2, i // 2]) for i in range(4)]
    pot = PotentialTable([phi] * 2, [[0.0, 0.0, 1.0, 2.0]] * 2, model, lattice_h=1.0)
    return build_markov_base([[0.7, 0.3], [0.4, 0.6]]), model, pot


@pytest.mark.parametrize("n", [200, 2000])
def test_constant_cocycle_solve_multiplies_no_lane_of_length_n(monkeypatch, n):
    # every key's matrix is the same at every z, so the solves read powers of
    # one matrix; the scan would multiply lanes of back + n factors
    from skewprod import rpf, transfer

    lengths = []
    scan = transfer.prefix_products

    def counted(factors):
        lengths.append(len(factors))
        return scan(factors)

    monkeypatch.setattr(rpf, "prefix_products", counted)
    monkeypatch.setattr(transfer, "prefix_products", counted)
    chain, model, pot = _matrix_llt_fiber()
    win = make_window(chain, back=300, fwd=n + 300)
    orbit = SystemOrbit(win, 0, n, pot, model)
    assert orbit.raw0.max_residual < 1e-9
    for z in (0.0, 0.4j):
        assert solve_raw_orbit(win, z, 0, n, pot, model).max_residual < 1e-9
    assert max(lengths, default=0) < n


def test_degenerate_power_hands_the_solve_to_the_scan():
    # the constant factor of test_lambda_sequence_raises_where_the_solver_does
    # squares to zero at z = i pi; the scan names where its functional dies
    from skewprod import rpf

    chain = build_markov_base([[0.5, 0.5], [0.5, 0.5]])
    model = FiberModel(2, 2)
    pot = PotentialTable(np.full((2, 4), -np.log(2.0)), [[0.0, 1.0, 0.0, 1.0]] * 2, model)
    win = make_window(chain)
    with pytest.raises(NoConvergence) as power:
        solve_raw_orbit(win, 1j * np.pi, 0, 20, pot, model)
    with pytest.MonkeyPatch.context() as patch, pytest.raises(NoConvergence) as scan:
        patch.setattr(rpf, "_solve_raw_power", rpf._solve_raw_once)
        solve_raw_orbit(win, 1j * np.pi, 0, 20, pot, model)
    assert str(power.value) == str(scan.value) == "forward functional degenerated at position 82"


def _solve_outcome(solve):
    try:
        return solve()
    except (NoConvergence, NonpositiveEigenfunction) as err:
        return type(err).__name__, str(err)


def _assert_same_error(got, want):
    """The same error and message; the message prints the failing residual
    to four figures, which two solves agree on only up to rounding."""
    number = r"\d\.\d{3}e[+-]\d+"
    assert got[0] == want[0]
    assert re.split(number, got[1]) == re.split(number, want[1]), (got, want)
    for x, y in zip(re.findall(number, got[1]), re.findall(number, want[1])):
        assert float(x) == pytest.approx(float(y), rel=1e-3), (got, want)


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1), st.sampled_from([(2, 1), (2, 2), (3, 2), (2, 3)]),
       st.integers(0, 60), st.sampled_from([16, 64]), st.sampled_from([16, 64]),
       st.integers(0, 500), st.integers(0, 500), st.sampled_from([1e-9, 1e-11]))
@pytest.mark.parametrize("z", [0.0, 0.4j])
def test_constant_cocycle_solve_matches_the_scan(z, seed, dr, n, back, fwd, more_back,
                                                 more_fwd, tol):
    # constant instances: every base symbol has the same phi and u, so every
    # key's matrix is the same at any z and solve_raw_orbit reads powers of it
    from skewprod import rpf

    rng = generator(seed)
    chain, model, pot = random_instance(rng, *dr, constant=True)
    win = sample_base_path(chain, -back - more_back, n + fwd + more_fwd, rng)
    solve = lambda: solve_raw_orbit(win, z, 0, n, pot, model, back, fwd, tol)  # noqa: E731
    power = _solve_outcome(solve)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rpf, "_solve_raw_power", rpf._solve_raw_once)
        scan = _solve_outcome(solve)
    assert isinstance(power, tuple) == isinstance(scan, tuple)
    if isinstance(scan, tuple):
        _assert_same_error(power, scan)
        return
    assert (power.back_used, power.fwd_used) == (scan.back_used, scan.fwd_used)
    for field in ("H", "V", "lam"):
        x, y = getattr(power, field), getattr(scan, field)
        scale = max(float(np.max(np.abs(y), initial=0.0)), 1.0)
        assert np.max(np.abs(x[:1] - y[:1]), initial=0.0) <= 1e-12 * scale, field
        assert np.max(np.abs(x - y), initial=0.0) <= tol * scale, field


def test_raw_orbit_insufficient_window():
    chain, model, pot = scalar_instance([1.0, -1.0])
    win = sample_base_path(chain, -4, 4, 1)
    from skewprod.errors import InsufficientWindow

    with pytest.raises(InsufficientWindow):
        solve_raw_orbit(win, 0.0, 0, 1, pot, model, back=64, fwd=64)


SOLVE_FIELDS = ("H", "V", "lam", "eigen_residual", "dual_residual", "truncation_gap")


def solve_instance(d, r, seed=0):
    rng = generator(seed, d, r)
    model = FiberModel(d, r)
    pot = PotentialTable(0.6 * rng.standard_normal((2, d ** r)),
                         rng.integers(-2, 3, size=(2, d ** r)).astype(float), model, lattice_h=1.0)
    return rng, model, pot


@pytest.mark.parametrize("d,r", [(2, 2), (3, 2), (2, 3), (4, 2)])
@pytest.mark.parametrize("z", [0.0, 0.4j, 0.2 + 0.1j])
@pytest.mark.parametrize("back,fwd,n,same_blocks", [
    (64, 64, 2000, True), (64, 64, 20, True), (0, 0, 4, True), (3, 0, 5, True),
    # window-capped truncations: 2037 and 2064 factors are cut into the same
    # scan blocks, so the padded lane multiplies in the same order
    (37, 64, 2000, True), (64, 37, 2000, True),
    # 140 factors against 164, and 4 against 8, are cut into blocks of other
    # sizes: the same products associated otherwise, equal up to rounding
    (40, 64, 100, False), (1, 5, 3, False),
])
def test_one_scan_solve_matches_two_scans(d, r, z, back, fwd, n, same_blocks):
    rng, model, pot = solve_instance(d, r)
    mats = key_matrices(z, pot, model)
    keys = rng.integers(0, 2, size=back + n + fwd)
    got = _solve_raw_once(mats, keys, z, 0, n, model, back, fwd)
    want = two_scan_solve_raw_once(mats, keys, z, 0, n, model, back, fwd)
    for field in SOLVE_FIELDS:
        x, y = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        assert x.shape == y.shape
        if same_blocks and model.space_dim == 2:
            assert x.tobytes() == y.tobytes(), field
            continue
        # D >= 3 sums rows column by column where np.sum picks its own order;
        # another association drifts by a few ulps (2.3e-15 of the largest
        # entry at most, over 60 instances)
        tol = 1e-15 if same_blocks else 1e-14
        scale = max(float(np.max(np.abs(y))), 1.0) if x.ndim else 1.0
        assert np.max(np.abs(x - y)) <= tol * scale, field


@pytest.mark.parametrize("where,value,message", [
    (30, 0.0, "backward iteration degenerated"),
    (5, np.nan, "backward iteration degenerated"),
    (64 + 40 + 10, 0.0, "forward functional degenerated"),
])
def test_one_scan_solve_names_the_same_failure(where, value, message):
    # a key whose matrix is zero (or NaN) kills every product through it; the
    # past lane fails first when it holds that factor, else the future lane
    _, model, pot = solve_instance(2, 2, seed=3)
    mats = np.concatenate([key_matrices(0.0, pot, model), np.full((1, 2, 2), value)])
    keys = generator(3).integers(0, 2, size=64 + 40 + 64)
    keys[where] = 2
    errors = []
    for solve in (_solve_raw_once, two_scan_solve_raw_once):
        with pytest.raises(NoConvergence) as info:
            solve(mats, keys, 0.0, 0, 40, model, 64, 64)
        errors.append(str(info.value))
    assert errors[0] == errors[1] and message in errors[0]
