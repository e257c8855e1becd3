import numpy as np
import pytest
from _instances import random_doeblin, scalar_instance

from skewprod.base_env import build_markov_base, periodic_point
from skewprod.config import build_symbolic_system, parse_config
from skewprod.doeblin import DoeblinSystem
from skewprod.errors import (
    ClassifierFailed,
    DegenerateVariance,
    NonConstantMean,
    NonPositiveMean,
    NotLattice,
    TruncationInsufficient,
)
from skewprod.fiber import FiberModel, PotentialTable
from skewprod.limits import (
    _clt_sigma_sq,
    _envelope_fit,
    _quantile,
    classify,
    clt_test,
    decay_survey,
    llt_scan,
    ndtr,
    normal_sf,
    renewal_curve,
    stratified_windows,
    weighted_ks,
)
from skewprod.presets import preset_config
from skewprod.runner import run_experiment
from skewprod.seeding import generator
from skewprod.symbolic import SymbolicSystem
from skewprod.transfer import full_product, symbol_keys, unscale


def system_pm1():
    chain, model, pot = scalar_instance([1.0, -1.0], lattice_h=1.0)
    return SymbolicSystem(chain, model, pot)


def system_01():
    chain, model, pot = scalar_instance([0.0, 1.0], lattice_h=1.0)
    return SymbolicSystem(chain, model, pot)


def system_two_state_lattice():
    model = FiberModel(2, 1)
    chain = build_markov_base([[0.7, 0.3], [0.4, 0.6]])
    phi = np.array([
        [np.log(0.5), np.log(0.5)],
        [np.log(2 / 3), np.log(1 / 3)],
    ])
    u = np.array([[-1.0, 1.0], [-1.0, 2.0]])
    pot = PotentialTable(phi, u, model, lattice_h=1.0)
    return SymbolicSystem(chain, model, pot, periodic_cycle=(0, 1))


def system_coboundary():
    model = FiberModel(2, 1)
    chain = build_markov_base([[0.6, 0.4], [0.3, 0.7]])
    q = np.array([0.0, 1.0])
    u_pair = np.zeros((2, 2, 2))
    for s in range(2):
        for s2 in range(2):
            u_pair[s, s2, :] = q[s] - q[s2]
    pot = PotentialTable(np.full((2, 2), -np.log(2.0)), u_pair, model,
                         lattice_h=1.0, u_next_symbol=True)
    return SymbolicSystem(chain, model, pot)


def system_renewal():
    chain, model, pot = scalar_instance([1.0, 2.0], lattice_h=1.0)
    return SymbolicSystem(chain, model, pot)


def test_stratified_weights_sum_to_one():
    chain = build_markov_base([[0.7, 0.3], [0.4, 0.6]])
    ens = stratified_windows(chain, 2, 12, -10, 30, 5, 1)
    assert sum(w.weight for w in ens) == pytest.approx(1.0, abs=1e-12)
    for ww in ens:
        assert ww.window.lo == -10 and ww.window.hi == 30


def test_weighted_ks_matches_plain_ks():
    rng = generator(3)
    xs = rng.standard_normal(2000)
    ks = weighted_ks(xs, np.full(2000, 1 / 2000), 1.0)
    import scipy.stats as st

    ref = st.kstest(xs, "norm").statistic
    assert ks == pytest.approx(ref, abs=1e-12)


def test_ndtr_matches_scipy():
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([np.linspace(-37, 9, 10**5), [-np.inf, np.inf]])
    got, ref = ndtr(x), special.ndtr(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    pos = ref > 0
    np.testing.assert_allclose(got[pos], ref[pos], rtol=1e-12, atol=0)
    assert np.array_equal(got[~pos], ref[~pos])
    assert np.isnan(ndtr(np.nan)) and np.isnan(ndtr(np.array([0.0, np.nan]))[1])
    assert type(ndtr(0.3)) is np.float64 and type(ndtr(np.array(0.3))) is np.float64
    assert ndtr(np.zeros((3, 4))).shape == (3, 4)


def test_normal_sf_matches_scipy_tail():
    special = pytest.importorskip("scipy.special")
    z = np.linspace(0, 37, 1001)
    got = np.array([normal_sf(v) for v in z])
    np.testing.assert_allclose(got, special.ndtr(-z), rtol=1e-12, atol=0)
    # 1 - ndtr(z) cancels to 0 while the tail is still positive
    assert 1.0 - special.ndtr(9.0) == 0.0 and normal_sf(9.0) > 0.0


def test_quantile_matches_numpy():
    # the decay survey's calibration quantile, read from a sort, is
    # np.quantile's linear interpolation bit for bit
    rng = generator(74)
    for size in [1, 2, 3, 5, 16, 17, 64, 257]:
        for _ in range(20):
            x = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4)
            if rng.random() < 0.3:
                x = np.round(x, 1)  # ties
            for q in [0.0, 0.8, 1.0, float(rng.random())]:
                assert _quantile(x, q) == float(np.quantile(x, q))


def test_envelope_fit_counts_no_rate_below_its_rounding():
    # rows of 1 that sit 2^-46 (128 ulps) lower at the larger n fit a rate
    # of about 1.4e-16 > 0, a rounding error's; a real rate of 1e-3 counts
    n = np.repeat([50.0, 100.0], 4)
    s = np.ones(len(n))
    flat = np.where(n == 100.0, 1.0 - 2.0 ** -46, 1.0)
    _, rate, _, ok = _envelope_fit(s, n, flat, [50, 100])
    assert 1e-16 < rate < 1e-15 and not ok
    _, rate, _, ok = _envelope_fit(s, n, 1.0 - 2e-3 * n, [50, 100])
    assert rate == pytest.approx(1e-3) and ok


def test_classifier_span2_counterexample_fails_at_pi():
    # pi is the midpoint of the 97-point grid, and there the +-1 steps' twisted
    # radius |cos t| is 1
    rep = classify(system_pm1())
    assert not rep.passed and not rep.degenerate
    assert rep.offending_t == rep.t_grid[48] == pytest.approx(np.pi)
    assert rep.min_gap == pytest.approx(0.0, abs=1e-12)
    assert rep.radii == pytest.approx(np.abs(np.cos(rep.t_grid)), abs=1e-12)


def system_r2_pairs():
    # r = 2 (D = 2) with u read from the base symbol pair, so the classifier
    # runs over pair keys
    model = FiberModel(2, 2)
    chain = build_markov_base([[0.6, 0.4], [0.3, 0.7]])
    rng = generator(71)
    u = rng.integers(0, 3, size=(2, 2, 4)).astype(float)
    pot = PotentialTable(0.5 * rng.standard_normal((2, 4)), u, model, lattice_h=1.0,
                         u_next_symbol=True)
    return SymbolicSystem(chain, model, pot, periodic_cycle=(0, 1))


def per_t_classifier(system):
    """The classifier's grid, its radii normalized by rho(0) and the largest
    eigen-residual, from a loop over t: each t's factors built on their own
    (by hand from `pot.phi` and `pot.u`, branch by branch, for the symbolic
    system and for the Doeblin chain), each product from its own scan and
    each matrix's eig on its own."""
    h = system.lattice_h
    grid = np.linspace(0.25 / h, (2 * np.pi - 0.25) / h, 97)
    n0 = len(system.periodic_cycle)
    win = periodic_point(system.chain, system.periodic_cycle).window(0, n0)
    prods = []
    for t in np.concatenate([[0.0], grid]):
        if isinstance(system, SymbolicSystem):
            S, pot, d = system.pot.n_symbols, system.pot, system.model.d
            D = system.model.space_dim
            factors = []
            # M_{n0-1} first: the raw operators act right to left
            for k in symbol_keys(win, pot, 0, n0)[::-1]:
                s, s_next = divmod(k, S) if pot.u_next_symbol else (k, None)
                u = pot.u[s, s_next] if pot.u_next_symbol else pot.u[s]
                M = np.zeros((D, D), dtype=complex)
                for w in range(D):  # branch a from cylinder w reads the word a.w
                    for a in range(d):
                        word = a * D + w
                        M[w, word // d] += np.exp(pot.phi[s, word]) * np.exp(1j * t * u[word])
                factors.append(M)
        else:
            # the chain at symbol c_j, u read at the target under c_{j+1}
            K, u, c = system.family.kernels, system.family.u, win.symbols(0, n0)
            factors = [K[c[j]] * np.exp(1j * t * u[c[j + 1]])[None, :] for j in range(n0)]
        prods.append(unscale(*full_product(np.stack(factors))))
    rho, res = [], []
    for M in prods:
        vals, vecs = np.linalg.eig(M)
        i = int(np.argmax(np.abs(vals)))
        v = vecs[:, i]
        rho.append(float(np.abs(vals[i])))
        res.append(float(np.linalg.norm(M @ v - vals[i] * v) / np.linalg.norm(v)))
    return grid, np.asarray(rho[1:]) / rho[0], max(res), rho[0]


def doeblin_period2():
    system = random_doeblin(generator(72), q=3, n_symbols=2)
    return DoeblinSystem(system.chain, system.family, periodic_cycle=(0, 1))


@pytest.mark.parametrize("build", ["r1", "r2", "doeblin"])
def test_stacked_classifier_matches_per_t_loop(build):
    system = {"r1": system_two_state_lattice, "r2": system_r2_pairs,
              "doeblin": doeblin_period2}[build]()
    rep = classify(system)
    grid, want_radii, want_residual, scale = per_t_classifier(system)
    assert rep.t_grid.tolist() == grid.tolist()
    assert rep.radii.tolist() == want_radii.tolist()
    # the residuals are rounding errors summed in another order: equal up to a
    # few ulps of the largest radius
    assert abs(rep.eig_residual - want_residual) <= 4 * np.finfo(float).eps * scale


def test_classifier_01_passes():
    rep = classify(system_01())
    assert rep.passed
    assert rep.min_gap > 0.0


@pytest.mark.parametrize("h", [0.5, 1.0, 13.0, 30.0])
def test_classifier_grid_scales_with_the_span(h):
    # fair steps {0, h} are aperiodic on the lattice h Z at every h.  With the
    # margin 0.25 taken in t, not in t h, the grid ran from 0.25 down to
    # -0.04 at h = 30 and covered t in [0.233, 0.25] of (0, 0.483) at h = 13
    chain, model, pot = scalar_instance([0.0, h], lattice_h=h)
    rep = classify(SymbolicSystem(chain, model, pot))
    assert 0.0 < rep.t_grid[0] < rep.t_grid[-1] < 2 * np.pi / h
    assert rep.t_grid[0] * h == pytest.approx(0.25)
    assert (2 * np.pi / h - rep.t_grid[-1]) * h == pytest.approx(0.25)
    assert rep.passed and rep.offending_t is None


def test_llt_on_a_wide_lattice_passes():
    # scalar-iid moved to 30 Z: it ended in classifier-failure, with the
    # largest radius at t = 0.2107, next to the dual lattice point 2 pi / 30
    cfg = preset_config("scalar-iid")
    cfg["potentials"]["u"] = [[0.0, 30.0], [0.0, 30.0]]
    cfg["potentials"]["lattice_h"] = 30.0
    result = run_experiment(parse_config(cfg))
    assert result.record["verdicts"]["outcome"] == "pass", result.record["stats"]


def test_classifier_zero_u_degenerate():
    chain, model, pot = scalar_instance([0.0, 0.0], lattice_h=1.0)
    rep = classify(SymbolicSystem(chain, model, pot))
    assert rep.degenerate and not rep.passed


def test_two_state_lattice_classifier_needs_period2_cycle():
    sys2 = system_two_state_lattice()
    assert classify(sys2).passed  # cycle (0, 1) mixes the span-2 and aperiodic symbols
    # symbol 0 alone has steps +-1, span 2: its cycle fails at pi
    sys0 = SymbolicSystem(sys2.chain, sys2.model, sys2.pot, periodic_cycle=(0,))
    assert classify(sys0).offending_t == pytest.approx(np.pi)


def test_clt_sigma_sq_two_state():
    # 96 requested environments give the sigma^2 stage 24 of its own
    sigma_sq = _clt_sigma_sq(system_two_state_lattice(), 96, seed=8, strata_depth=2, pmap=None)
    assert sigma_sq == pytest.approx(10 / 7, abs=0.1)


def test_clt_scalar_small_scale():
    sys_pm = system_pm1()
    rep = clt_test(sys_pm, [100, 400], omega_samples=16, fiber_replicates=1250,
                   seed=4, ks_threshold=0.06, strata_depth=2)
    assert not rep.degenerate
    assert rep.sigma_sq == pytest.approx(1.0, abs=1e-6)
    assert rep.ks[-1] < 0.06
    assert rep.ks[-1] <= rep.ks[0] + 0.01
    assert rep.passed


def test_clt_degenerate_branch():
    # a sigma^2 below 1e-10 gives a degenerate report on the sampled ensemble
    rep = clt_test(system_coboundary(), [50, 100], omega_samples=8, fiber_replicates=16,
                   seed=5, ks_threshold=0.02, strata_depth=2)
    assert rep.degenerate and rep.passed and rep.ks == []
    assert abs(rep.sigma_sq) < 1e-10
    assert rep.degenerate_max_abs < 0.05
    assert rep.pooled_samples == 8 * 16


@pytest.mark.parametrize("build,degenerate", [(system_pm1, False), (system_coboundary, True)],
                         ids=["sigma-positive", "degenerate"])
def test_clt_draws_two_ensembles(build, degenerate, monkeypatch):
    # the sigma^2 stage's ensemble (stream 101) and the sampled one (stream
    # 102), in both branches; the degenerate branch drew a third (stream 104)
    from skewprod import limits

    streams = []
    ensemble = limits._ensemble

    def counted(*args):
        streams.append(args[-1])
        return ensemble(*args)

    monkeypatch.setattr(limits, "_ensemble", counted)
    rep = clt_test(build(), [100], omega_samples=8, fiber_replicates=16, seed=5, ks_threshold=0.02,
                   strata_depth=2)
    assert rep.degenerate is degenerate
    assert streams == [101, 102]


def test_char_task_reads_every_t_from_one_sample():
    # each t drew its own sample from a stream keyed by round(4096 t), which
    # a negative t made a ValueError and two t closer than 1 / 4096 shared;
    # one sample per (environment, n) makes the Monte Carlo means at -t and t
    # conjugate
    from skewprod import limits

    system = system_two_state_lattice()
    ww = limits._ensemble(system, 1, 2, 8, 3, 302)[0]
    out = limits._char_task(system, system.orbit(ww.window, 8), 0, ww, [-0.3, 0.3], [4, 8],
                            3, 500)
    for n in (4, 8):
        assert out[(-0.3, n)][2] == pytest.approx(np.conj(out[(0.3, n)][2]), abs=1e-15)


def test_llt_binomial_preset():
    sys01 = system_01()
    rep = llt_scan(sys01, [200, 500], omega_samples=12, seed=7, threshold=0.05, strata_depth=2)
    assert rep.sup_dev[-1] < 0.05
    assert rep.sup_dev[-1] <= rep.sup_dev[0] + 1e-9
    assert rep.passed


def test_llt_refuses_span2():
    sys_pm = system_pm1()
    with pytest.raises(ClassifierFailed):
        llt_scan(sys_pm, [100], omega_samples=4, seed=8, threshold=0.05, strata_depth=2)


def test_llt_two_state_decreasing():
    sys2 = system_two_state_lattice()
    rep = llt_scan(sys2, [150, 300, 600], omega_samples=24, seed=9, threshold=0.08, strata_depth=2)
    assert rep.sup_dev[-1] < 0.08
    assert rep.sup_dev[-1] <= rep.sup_dev[0] + 1e-9


def test_llt_draws_one_ensemble(ensemble_calls):
    assert llt_scan(system_01(), [200, 400], omega_samples=8, seed=7, threshold=0.05,
                    strata_depth=2).passed
    assert len(ensemble_calls) == 1


def system_environment_dependent_r2():
    # matrix-llt with u depending on the base symbol: the quenched means
    # spread over the environments
    cfg = preset_config("matrix-llt")
    cfg["potentials"]["u"] = [[0, 1, 1, 2], [1, 0, 2, 0]]
    return build_symbolic_system(parse_config(cfg))


def test_llt_sigma_sq_is_quenched_plus_means():
    rep = llt_scan(system_environment_dependent_r2(), [200, 400], omega_samples=8, seed=3,
                   threshold=0.05, strata_depth=2)
    assert rep.sigma_sq == pytest.approx(rep.sigma_sq_quenched + rep.sigma_sq_means,
                                         rel=1e-9)
    assert rep.sigma_sq_means > 0


def test_llt_sigma_sq_binomial_is_exact():
    rep = llt_scan(system_01(), [200, 500], omega_samples=12, seed=7, threshold=0.05,
                   strata_depth=2)
    assert rep.sigma_sq == pytest.approx(0.25, abs=1e-12)
    assert abs(rep.sigma_sq_means) < 1e-12


def test_renewal_gamma_three_halves():
    sysr = system_renewal()
    a_list = list(range(-12, 0, 4)) + list(range(20, 41, 2))
    rep = renewal_curve(sysr, a_list, truncation=60, omega_samples=12, seed=10,
                        limit_window=(28, 40), rel_tol=0.05, f_weights=None, strata_depth=2,
                        negative_tol=0.01)
    assert rep.gamma == pytest.approx(1.5, abs=1e-10)
    assert rep.target == pytest.approx(2 / 3, abs=1e-10)
    assert rep.negative_side_max == 0.0  # positive steps cannot reach a < 0
    assert rep.rel_err_window < 0.05
    assert rep.passed


def test_renewal_counts_a_repeated_point_once():
    sysr = system_renewal()
    kw = dict(truncation=60, omega_samples=12, seed=10, f_weights=None, strata_depth=2,
              rel_tol=0.05, limit_window=(28, 40), negative_tol=0.01)
    once = renewal_curve(sysr, [20, 30, 40], **kw)
    twice = renewal_curve(sysr, [20, 30, 30, 40], **kw)
    assert twice.U == [once.U[0], once.U[1], once.U[1], once.U[2]]


def test_renewal_refuses_a_limit_window_without_a_point(ensemble_calls):
    # a window that held no a passed with rel_err_window None: no limit was checked
    sysr = system_renewal()
    with pytest.raises(ValueError, match=r"limit window \[42, 50\] holds no point"):
        renewal_curve(sysr, [20, 30, 40], truncation=60, omega_samples=4, seed=10,
                      limit_window=(42, 50), f_weights=None, strata_depth=2, rel_tol=0.05,
                      negative_tol=0.01)
    assert ensemble_calls == []  # refused before any work
    rep = renewal_curve(sysr, [20, 30, 40], truncation=60, omega_samples=4, seed=10,
                        limit_window=(40, 50), f_weights=None, strata_depth=2, rel_tol=0.05,
                        negative_tol=0.01)
    assert isinstance(rep.rel_err_window, float)


def system_renewal_span_2():
    # renewal-gamma-3-2 with steps {2, 4} on the lattice 2 Z
    cfg = preset_config("renewal-gamma-3-2")
    cfg["potentials"]["u"], cfg["potentials"]["lattice_h"] = [[2.0, 4.0]] * 2, 2.0
    cfg["grids"]["a_list"] = [-20, 82, 84, 86]
    cfg["renewal"]["limit_window"] = [82, 86]
    return build_symbolic_system(parse_config(cfg))


def test_renewal_refuses_points_off_the_lattice():
    # an odd a is never reached by S_n on 2 Z; rounding it to a lattice index
    # read a neighbour's U (about 2/3 where the exact value is 0)
    system = system_renewal_span_2()
    with pytest.raises(NotLattice, match="a = 81 is off the lattice"):
        renewal_curve(system, list(range(81, 87)), truncation=200, omega_samples=16, seed=1,
                      f_weights=None, strata_depth=2, rel_tol=0.05, limit_window=None,
                      negative_tol=0.01)
    rep = renewal_curve(system, [82, 84, 86], truncation=200, omega_samples=16, seed=1,
                        f_weights=None, strata_depth=2, rel_tol=0.05, limit_window=None,
                        negative_tol=0.01)
    assert rep.target == pytest.approx(2 / 3, abs=1e-12) and rep.passed


def test_renewal_deterministic_unit_steps_counting_measure():
    chain, model, pot = scalar_instance([1.0, 1.0], lattice_h=1.0)
    sysu = SymbolicSystem(chain, model, pot)
    # u == 1: spectral radius of the twisted cycle operator is |e^{it}| = 1 on
    # the whole grid, the classifier's degenerate case (S_n = n has variance 0)
    with pytest.raises(DegenerateVariance, match="radius pinned at 1"):
        renewal_curve(sysu, [5, 10], truncation=40, omega_samples=4, seed=11, f_weights=None,
                      strata_depth=2, rel_tol=0.05, limit_window=None, negative_tol=0.01)


def test_renewal_truncation_guard():
    sysr = system_renewal()
    with pytest.raises(TruncationInsufficient):
        renewal_curve(sysr, [100], truncation=30, omega_samples=4, seed=12, f_weights=None,
                      strata_depth=2, rel_tol=0.05, limit_window=None, negative_tol=0.01)


def test_renewal_nonconstant_f_rejected():
    sysr = system_renewal()
    with pytest.raises(NonPositiveMean):
        renewal_curve(sysr, [20], truncation=40, omega_samples=4, seed=13, f_weights=[-1.0],
                      strata_depth=2, rel_tol=0.05, limit_window=None, negative_tol=0.01)


def test_renewal_nonconstant_step_mean_named():
    # aperiodic steps whose mean depends on the base symbol: 3/2 under 0, 2 under 1
    model = FiberModel(2, 1)
    chain = build_markov_base([[0.5, 0.5], [0.5, 0.5]])
    pot = PotentialTable(np.full((2, 2), -np.log(2.0)), np.array([[1.0, 2.0], [1.0, 3.0]]),
                         model, lattice_h=1.0)
    with pytest.raises(NonConstantMean, match="step mean not constant"):
        renewal_curve(SymbolicSystem(chain, model, pot), [20], truncation=60, omega_samples=4,
                      seed=16, f_weights=None, strata_depth=2, rel_tol=0.05, limit_window=None,
                      negative_tol=0.01)


def test_decay_survey_two_state():
    sys2 = system_two_state_lattice()
    rep = decay_survey(sys2, t_small=[0.1, 0.2], t_large=[1.2, 2.0],
                       n_grid=[16, 32, 64], omega_samples=16, seed=14, strata_depth=2)
    assert rep.d2_fit > 0
    assert rep.u_fit > 0
    fr = [rep.small_violation_frac[n] for n in sorted(rep.small_violation_frac)]
    assert fr[-1] <= fr[0] + 1e-9


def test_decay_survey_zero_u_degenerate_rate():
    chain, model, pot = scalar_instance([0.0, 0.0], lattice_h=1.0)
    sysz = SymbolicSystem(chain, model, pot)
    rep = decay_survey(sysz, t_small=[0.1, 0.3], t_large=[1.0], n_grid=[8, 16],
                       omega_samples=6, seed=15, strata_depth=2)
    assert abs(rep.d2_fit) < 1e-10  # no decay at all
