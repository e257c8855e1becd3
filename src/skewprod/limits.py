"""Annealed limit-theorem verification: CLT, LLT, renewal, char-fn identity, decay surveys.

Annealed expectations average exact per-environment quantities over a
stratified ensemble of base windows (strata are base cylinders of a small
depth, weighted by their exact probabilities, so estimators stay unbiased and
bit-reproducible).  The lattice/aperiodicity classifier gates the LLT and
renewal runs through the twisted operators at one periodic base orbit.

The runners take any system that builds per-environment step tables (see
`gibbs.StepTable`): the symbolic skew product of `symbolic.SymbolicSystem`
or the Doeblin chain of `doeblin.DoeblinSystem`.  They reach a model only
through that interface: `chain`, `lattice_h`, `orbit`, `step_table`,
`forward_table`, `cycle_table`, and `decay_rows` for the symbolic-only decay
survey.  Every runner goes through one driver: `_ensemble` draws the
stratified windows an orbit of a given length needs, `_per_environment`
builds each window's orbit once and hands it to a task, and `_weighted_mean`
reduces the results.  `pmap` is an ordered map (builtin map by default, a
process-pool map under the CLI's --workers): tasks are pure functions of
(instance, orbit, window, derived seed), and reductions run in ensemble
order, so results are identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_env import (
    BaseSymbolChain,
    OmegaWindow,
    _sample_paths_matrix,
    cylinder_probability,
    sample_conditioned_paths,
)
from .errors import (
    ClassifierFailed,
    DegenerateVariance,
    NonConstantMean,
    NonPositiveMean,
    NotLattice,
    TruncationInsufficient,
)
from .fiber import word_table
from .gibbs import StepTable
from .seeding import generator

WINDOW_MARGIN = 272  # room for truncation doubling beyond the span a runner needs


# ---------------------------------------------------------------------------
# annealed ensembles


@dataclass
class WeightedWindow:
    weight: float
    window: OmegaWindow


def stratified_windows(chain: BaseSymbolChain, strata_depth: int, total: int,
                       lo: int, hi: int, master_seed: int, stream: int) -> list:
    """Stratified environment ensemble: equal replicates per base cylinder.

    Every window carries weight p(stratum) / replicates, so weighted sums are
    unbiased annealed expectations regardless of the allocation.  Windows are
    derived from (master_seed, stream, stratum) and never depend on worker
    chunking; the strata's chains are drawn together, in one forward and one
    backward walk.
    """
    m = chain.n_states
    if chain.deterministic or strata_depth == 0:
        per = max(1, total)
        paths = _sample_paths_matrix(chain, hi - lo + 1, per, generator(master_seed, stream, 0))
        weights = [1.0]
    else:
        strata = word_table(m, strata_depth)
        per = max(1, math.ceil(total / len(strata)))
        rngs = [generator(master_seed, stream, si) for si in range(len(strata))]
        paths = sample_conditioned_paths(chain, strata, lo, hi, per, rngs)
        weights = [cylinder_probability(chain, dict(enumerate(w))) for w in strata]
    return [WeightedWindow(weights[i // per] / per, OmegaWindow(lo, hi, path, m))
            for i, path in enumerate(paths)]


def _ensemble(system, strata_depth: int, omega_samples: int, reach: int, seed: int,
              stream: int) -> list:
    """The stratified ensemble of `stream` for orbits of length up to `reach`:
    windows over -WINDOW_MARGIN..reach + 1 + WINDOW_MARGIN."""
    return stratified_windows(system.chain, strata_depth, omega_samples,
                              -WINDOW_MARGIN, reach + WINDOW_MARGIN + 1, seed, stream)


def _environment_call(item):
    task, system, n, wi, ww, extra = item
    return task(system, system.orbit(ww.window, n), wi, ww, *extra)


def _per_environment(pmap, task, system, ens, n: int, *extra) -> list:
    """task(system, orbit, wi, ww, *extra) for every environment ww (index
    wi) of the ensemble, in ensemble order, with the orbit of length n built
    once per environment inside the task's worker."""
    items = [(task, system, n, wi, ww, extra) for wi, ww in enumerate(ens)]
    return list((pmap or map)(_environment_call, items))


def _weighted_mean(ens, values):
    """sum of weight * value in ensemble order, over the total weight."""
    return sum(ww.weight * v for ww, v in zip(ens, values)) / sum(ww.weight for ww in ens)


def _slope(n_list, values) -> float:
    """Least-squares slope of values[i] against n_list[i]; values[0] / n_list[0]
    when there is one n."""
    ns = np.asarray(n_list, dtype=float)
    if len(ns) == 1:
        return float(values[0] / ns[0])
    A = np.stack([np.ones_like(ns), ns], axis=1)
    return float(np.linalg.lstsq(A, values, rcond=None)[0][1])


_SQRT_HALF = math.sqrt(0.5)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def ndtr(x):
    """Standard normal CDF, 0.5 * erfc(-x / sqrt(2)), elementwise in float64.

    A float or 0-d input gives a numpy float64, an array input an array of
    the same shape; NaN stays NaN.  Multiplying by sqrt(1/2) rather than
    dividing by sqrt(2) rounds the way scipy.special.ndtr does.
    """
    return 0.5 * np.asarray(_erfc(np.multiply(x, -_SQRT_HALF)), dtype=np.float64)[()]


def normal_sf(z: float) -> float:
    """Upper normal tail 1 - Phi(z), with no cancellation for large z."""
    return 0.5 * math.erfc(z * _SQRT_HALF)


def weighted_ks(samples: np.ndarray, weights: np.ndarray, sigma: float) -> float:
    """KS distance of a weighted empirical law against N(0, sigma^2): the
    step CDF is compared with the normal CDF on both sides of each jump."""
    order = np.argsort(samples, kind="stable")
    cum = np.cumsum(weights[order])
    cum /= cum[-1]
    cdf = ndtr(samples[order] / sigma)
    upper = np.max(np.abs(cum - cdf))
    lower = np.max(np.abs(np.concatenate([[0.0], cum[:-1]]) - cdf))
    return float(max(upper, lower))


def _quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) with its default linear interpolation, read
    from a sort: on numpy 2.4 np.quantile imports numpy.ma."""
    xs = np.sort(values)
    pos = (len(xs) - 1) * q
    i = math.floor(pos)
    g = pos - i
    a, b = xs[i], xs[min(i + 1, len(xs) - 1)]
    return float(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))


# ---------------------------------------------------------------------------
# aperiodicity classification at the periodic base orbit

CLASSIFIER_POINTS = 97  # odd, so the midpoint pi / h, where span defects surface, is on the grid
CLASSIFIER_MARGIN = 0.25  # distance of the grid from t = 0 and from t = 2 pi / h, in units of 1 / h
CLASSIFIER_GAP = 1e-3  # least 1 - rho on the grid that passes
CLASSIFIER_DEGENERATE = 1e-12  # |1 - rho| below this on the whole grid: radius pinned at 1


@dataclass
class ClassificationReport:
    t_grid: np.ndarray
    radii: np.ndarray          # spectral radii on the grid, normalized so rho(0) = 1
    eig_residual: float        # largest |M v - lambda v| / |v| of the eigenpairs attaining them
    min_gap: float
    passed: bool
    degenerate: bool
    offending_t: float | None


def _spectral_radii_certified(M: np.ndarray):
    """Spectral radius of every matrix of the stack M (n, q, q), from one
    stacked eig, and the largest eigen-residual |M v - lambda v| / |v| of
    the eigenvectors that attain them."""
    vals, vecs = np.linalg.eig(M)
    top = np.argmax(np.abs(vals), axis=1)
    lam = np.take_along_axis(vals, top[:, None], axis=1)
    v = np.take_along_axis(vecs, top[:, None, None], axis=2)[..., 0]
    res = np.linalg.norm(np.einsum("nij,nj->ni", M, v) - lam * v, axis=1) \
        / np.linalg.norm(v, axis=1)
    return np.abs(lam[:, 0]), float(np.max(res))


def classify(system) -> ClassificationReport:
    """Check that the twisted spectral radius rho(t) of one period of the
    system's periodic base orbit stays below 1 off the dual lattice.

    The system's `cycle_table` is twisted and multiplied at t = 0 and at
    CLASSIFIER_POINTS points of [m, 2 pi - m] / h, m = CLASSIFIER_MARGIN,
    in one scan (`StepTable.twisted_product`), and the radii are normalized
    by rho(0).  The check passes when min(1 - rho) on the grid exceeds
    CLASSIFIER_GAP; a radius pinned at 1 on the whole grid is reported as
    degenerate (no LLT), and a failing report names the t of the largest
    radius.
    """
    h = system.lattice_h
    if h is None:
        raise NotLattice("the aperiodicity classifier needs a declared lattice_h")
    ts = np.linspace(CLASSIFIER_MARGIN / h, (2 * np.pi - CLASSIFIER_MARGIN) / h,
                     CLASSIFIER_POINTS)
    rho, residual = _spectral_radii_certified(
        system.cycle_table().twisted_product(np.concatenate([[0.0], ts])))
    radii = rho[1:] / rho[0]
    gaps = 1.0 - radii
    min_gap = float(np.min(gaps))
    degenerate = bool(np.max(np.abs(gaps)) < CLASSIFIER_DEGENERATE)
    passed = min_gap > CLASSIFIER_GAP and not degenerate
    offending = None if passed else float(ts[int(np.argmin(gaps))])
    return ClassificationReport(ts, radii, residual, min_gap, passed, degenerate, offending)


def _aperiodic(system) -> ClassificationReport:
    """The system's passing `classify` report, the gate of the LLT and renewal
    runs.  A radius pinned at 1 on the whole grid is the degenerate case
    (DegenerateVariance); any other failing report raises ClassifierFailed
    naming the t of the largest radius."""
    cls = classify(system)
    if cls.degenerate:
        raise DegenerateVariance("aperiodicity classification is degenerate "
                                 "(radius pinned at 1)")
    if not cls.passed:
        raise ClassifierFailed("aperiodicity classification failed: spectral radius "
                               f"{1 - cls.min_gap:.6f} at t = {cls.offending_t:.4f}")
    return cls


# ---------------------------------------------------------------------------
# CLT


CLT_SIGMA_N = [64, 128, 256]  # the n at which the CLT fits sigma^2
CLT_DEGENERATE = 1e-10  # a fitted sigma^2 below this takes the degenerate branch
CLT_COLLAPSE = 0.05  # largest max |S_n - E S_n| / sqrt(n) the degenerate branch passes


def _variance_task(system, orbit, wi, ww, n_list):
    return system.forward_table(orbit, n_list[-1]).moments(n_list)[1]


def _clt_sigma_sq(system, omega_samples: int, seed: int, strata_depth: int, pmap) -> float:
    """The CLT's sigma^2: the slope over CLT_SIGMA_N of the weighted mean of
    the exact V_n, on an ensemble of its own (stream 101) of
    max(16, omega_samples // 4) environments."""
    ens = _ensemble(system, strata_depth, max(16, omega_samples // 4), CLT_SIGMA_N[-1],
                    seed, 101)
    per_omega = _per_environment(pmap, _variance_task, system, ens, CLT_SIGMA_N[-1],
                                 CLT_SIGMA_N)
    return _slope(CLT_SIGMA_N, _weighted_mean(ens, per_omega))


@dataclass
class CltReport:
    n_list: list
    ks: list
    sigma_sq: float
    threshold: float
    degenerate: bool
    pooled_samples: int
    passed: bool
    degenerate_max_abs: float | None


def _clt_task(system, orbit, wi, ww, n_list, seed, fiber_replicates):
    means = system.forward_table(orbit, n_list[-1]).moments(n_list)[0]
    out = {}
    for ni, (n, mean) in enumerate(zip(n_list, means)):
        rng = generator(seed, 103, ni, wi)
        out[n] = system.step_table(orbit, n).sample(rng, fiber_replicates) - mean
    return out


def clt_test(system, n_list, omega_samples: int, fiber_replicates: int,
             seed: int, ks_threshold: float, strata_depth: int, pmap=None) -> CltReport:
    """Pooled annealed CLT check: weighted KS distance against N(0,1) per n.

    The run draws two ensembles: `_clt_sigma_sq` fits sigma^2 on stream 101,
    and stream 102 gives each environment fiber_replicates samples of S_n per
    n, centered by the exact mean of S_n (the forward table's `moments`).
    The samples, scaled by sqrt(n sigma^2), are pooled with the environments'
    weights.  A sigma^2 below CLT_DEGENERATE takes the degenerate branch on
    the same samples: the report is degenerate, and it passes when max |S_n -
    E S_n| / sqrt(n) at the largest n is below CLT_COLLAPSE.
    """
    sigma_sq = _clt_sigma_sq(system, omega_samples, seed, strata_depth, pmap)
    n_list = sorted(int(n) for n in n_list)
    ens = _ensemble(system, strata_depth, omega_samples, n_list[-1], seed, 102)
    partials = _per_environment(pmap, _clt_task, system, ens, n_list[-1],
                                n_list, seed, fiber_replicates)
    pooled = sum(len(p[n_list[-1]]) for p in partials)
    if sigma_sq < CLT_DEGENERATE:
        worst = max(float(np.max(np.abs(p[n_list[-1]]))) for p in partials) \
            / math.sqrt(n_list[-1])
        return CltReport(n_list, [], sigma_sq, CLT_COLLAPSE, True, pooled,
                         worst < CLT_COLLAPSE, worst)
    ks_per_n = []
    for n in n_list:
        xs = np.concatenate([p[n] for p in partials]) / math.sqrt(n)
        ws = np.concatenate([np.full(len(p[n]), ww.weight / len(p[n]))
                             for ww, p in zip(ens, partials)])
        ks_per_n.append(weighted_ks(xs, ws, math.sqrt(sigma_sq)))
    return CltReport(n_list, ks_per_n, sigma_sq, ks_threshold, False, pooled,
                     ks_per_n[-1] < ks_threshold, None)


# ---------------------------------------------------------------------------
# LLT on the exact annealed mixture


def _mixture_task(system, orbit, wi, ww, n_list):
    """Per n, the law's values, its probabilities times the environment's
    weight, and its exact mean and variance."""
    return {n: (dist.values(), dist.probs * ww.weight, dist.mean(), dist.variance())
            for n, dist in zip(n_list, system.forward_table(orbit, n_list[-1]).laws(n_list))}


def _accumulate_mixtures(ens, partials, n_list):
    """Per n, the distinct values of all environments' laws and their pooled
    weights, added in ensemble order."""
    total_w = sum(ww.weight for ww in ens)
    out = {}
    for n in n_list:
        xs, where = np.unique(np.concatenate([p[n][0] for p in partials]),
                              return_inverse=True)
        weights = np.concatenate([p[n][1] for p in partials])
        out[n] = (xs, np.bincount(where, weights=weights, minlength=len(xs)) / total_w)
    return out


@dataclass
class LltReport:
    n_list: list
    sup_dev: list
    sigma_sq: float
    threshold: float
    classifier: ClassificationReport
    passed: bool
    sigma_sq_quenched: float   # slope of the weighted mean of the quenched variances
    sigma_sq_means: float      # slope of the weighted variance of the quenched means


def llt_scan(system, n_list, omega_samples: int, seed: int, threshold: float,
             strata_depth: int, pmap=None) -> LltReport:
    """Lattice local limit theorem scan on the exact annealed mixture law.

    sup over lattice points a of |sigma sqrt(2 pi n) P(S_n = a) - h gaussian|
    with the gaussian centered at the mixture mean (the lattice carries h mass
    per point).  The periodic-point classifier must pass first (`_aperiodic`:
    DegenerateVariance or ClassifierFailed, NotLattice with no declared
    lattice_h); scans over a run within 4 standard deviations, where the
    statement is sharp.

    The run draws one ensemble (stream 121).  sigma^2 is the least-squares
    slope over n_list of the mixture law's exact variance (Var(S_n) / n with
    one n), the annealed variance of the environments drawn, and one sigma^2
    scales the gaussian at every n.  By the law of total variance it is the
    sum of `sigma_sq_quenched`, the same slope of the weighted mean of the
    environments' exact variances, and `sigma_sq_means`, that of the weighted
    variance of their exact means.
    """
    cls = _aperiodic(system)
    n_list = sorted(int(n) for n in n_list)
    ens = _ensemble(system, strata_depth, omega_samples, n_list[-1], seed, 121)
    partials = _per_environment(pmap, _mixture_task, system, ens, n_list[-1], n_list)
    mixtures = _accumulate_mixtures(ens, partials, n_list)
    means = {n: float(vals @ ps) for n, (vals, ps) in mixtures.items()}
    sigma_sq = _slope(n_list, [float((vals - means[n]) ** 2 @ ps)
                               for n, (vals, ps) in mixtures.items()])
    env_means = np.array([[p[n][2] for n in n_list] for p in partials])
    env_vars = np.array([[p[n][3] for n in n_list] for p in partials])
    sigma_sq_quenched = _slope(n_list, _weighted_mean(ens, env_vars))
    sigma_sq_means = _slope(n_list, _weighted_mean(
        ens, (env_means - _weighted_mean(ens, env_means)) ** 2))
    if sigma_sq <= 0:
        raise DegenerateVariance("LLT needs positive asymptotic variance")
    h = system.lattice_h
    sups = []
    for n, (vals, ps) in mixtures.items():
        mean = means[n]
        sd = math.sqrt(sigma_sq * n)
        sel = np.abs(vals - mean) <= 4.0 * sd
        dev = np.abs(math.sqrt(2 * math.pi * sigma_sq * n) * ps[sel]
                     - h * np.exp(-((vals[sel] - mean) ** 2) / (2 * sigma_sq * n)))
        sups.append(float(np.max(dev)))
    passed = sups[-1] < threshold
    return LltReport(list(n_list), sups, sigma_sq, threshold, cls, passed,
                     sigma_sq_quenched, sigma_sq_means)


# ---------------------------------------------------------------------------
# renewal


@dataclass
class RenewalReport:
    a_list: list
    U: list
    gamma: float
    mu_f: float
    target: float
    rel_err_window: float
    negative_side_max: float
    truncation: int
    tail_bound: float  # a Gaussian estimate, not a bound (ROADMAP item 6)
    passed: bool


STEP_MEAN_TOL = 1e-9  # largest deviation of a step mean from gamma that counts as constant


def step_mean_check(table: StepTable) -> tuple[bool, float, float]:
    """(is_constant, gamma, max_deviation) of a table's step means: renewal
    needs every summand's mean, and every row's mean given the state
    (`StepTable.summand_means`), within STEP_MEAN_TOL of one gamma."""
    conditional, means = table.summand_means()
    gamma = float(np.mean(means))
    spread = np.abs(conditional - means[len(means) - len(conditional):, None])
    max_dev = max(float(np.max(spread, initial=0.0)), float(np.max(np.abs(means - gamma))))
    return max_dev <= STEP_MEAN_TOL, gamma, max_dev


def lattice_indices(a_list, h: float) -> np.ndarray:
    """The lattice indices a / h of the points a; NotLattice names the first a
    off the lattice h Z, which no S_n reaches."""
    ratios = np.asarray(a_list, dtype=float) / h
    ka = np.round(ratios)
    off = np.flatnonzero(np.abs(ratios - ka) > 1e-12)
    if len(off):
        raise NotLattice(f"a = {a_list[off[0]]} is off the lattice h Z, h = {h}: "
                         "no S_n reaches it")
    return ka.astype(np.int64)


def _renewal_task(system, orbit, wi, ww, truncation, ka, f_weights, var_at):
    """(mu(f), U at the lattice indices ka, the step table's `step_mean_check`,
    the forward table's exact variances at var_at).  U is one sweep of the
    accumulating chain, plus S_m0 where the start carries it (m0 >= 1, the
    Doeblin table's S_1)."""
    table = system.forward_table(orbit, truncation)
    fw = np.ones(len(table.start)) if f_weights is None else np.asarray(f_weights, dtype=float)
    _, joint, k0 = next(table.accumulating(fw).sweep(at=[truncation]))
    U = joint[-1]
    if table.n > len(table.probs):
        np.add.at(U, np.round(table.start_u / table.h).astype(np.int64) - k0, table.start * fw)
    inside = (ka >= k0) & (ka < k0 + len(U))
    values = np.where(inside, U[np.clip(ka - k0, 0, len(U) - 1)], 0.0)
    return (float(table.start @ fw), values,
            step_mean_check(system.step_table(orbit, truncation)),
            table.moments(var_at)[1])


def renewal_curve(system, a_list, truncation: int, omega_samples: int, seed: int,
                  f_weights, strata_depth: int, rel_tol: float, limit_window: tuple | None,
                  negative_tol: float, pmap=None) -> RenewalReport:
    """Truncated renewal sums U(a) = sum_{n <= N} E[f 1(S_n = a)] on the lattice.

    The run draws one ensemble (stream 132).  Each environment's sums come
    from one sweep of its forward table's accumulating chain; its step table
    must have a constant step mean (`step_mean_check`), and the positive
    drift gamma is that mean; the limit along a -> +infinity is mu(f) h /
    gamma (h mass per lattice point).  sigma^2, which sizes the truncation
    margin and the tail estimate, is the slope of the weighted mean of the
    forward tables' exact variances at N / 2 and N.  The reported
    `tail_bound` is a Gaussian estimate of the mass beyond N, not a bound
    (ROADMAP item 6).  f_weights None weighs every fiber state 1.  Every a
    must lie on the lattice h Z (NotLattice), and one in the limit window,
    [2 a_max // 3, a_max] when it is None (ValueError); the classifier gates
    the run as it gates the LLT (`_aperiodic`).
    """
    a_max = max(a_list)
    lw = limit_window or (2 * a_max // 3, a_max)
    in_window = [a for a in a_list if lw[0] <= a <= lw[1]]
    if not in_window:
        raise ValueError(f"limit window {list(lw)} holds no point of a_list")
    _aperiodic(system)
    ka = lattice_indices(a_list, system.lattice_h)
    if f_weights is not None and np.any(np.asarray(f_weights, dtype=float) <= 0):
        raise NonPositiveMean("f must be strictly positive")
    var_at = sorted({max(1, truncation // 2), truncation})
    ens = _ensemble(system, strata_depth, omega_samples, truncation, seed, 132)
    partials = _per_environment(pmap, _renewal_task, system, ens, truncation,
                                truncation, ka, f_weights, var_at)
    mu_f_vals, U_vals, checks, variances = zip(*partials)
    gamma = _weighted_mean(ens, [g for _, g, _ in checks])
    dev = max(max(d for _, _, d in checks), max(abs(g - gamma) for _, g, _ in checks))
    if dev > STEP_MEAN_TOL:
        raise NonConstantMean(f"step mean not constant (max deviation {dev:.2e})")
    if gamma <= 0:
        raise NonPositiveMean(f"renewal needs positive drift, got gamma = {gamma:.4f}")
    sigma_sq = _slope(var_at, _weighted_mean(ens, variances))
    n_cover = a_max / gamma
    margin = 6.0 * math.sqrt(max(sigma_sq, 1e-12) * max(n_cover, 1.0)) / gamma + 5.0
    if truncation < n_cover + margin:
        raise TruncationInsufficient(
            f"need N >= {n_cover + margin:.0f} to cover a <= {a_max}, got {truncation}")
    if max(mu_f_vals) - min(mu_f_vals) > 1e-8:
        raise NonConstantMean("mu(f) is not constant over environments")
    mu_f = float(np.mean(mu_f_vals))
    U = dict(zip(a_list, _weighted_mean(ens, U_vals).tolist()))
    target = mu_f * system.lattice_h / gamma
    # estimated tail, not a bound: contributions from n > N to a <= a_max,
    # approximated by the gaussian probabilities of S_n reaching back below a_max
    tail = 0.0
    for n in range(truncation + 1, truncation + 2000):
        z = (n * gamma - a_max) / math.sqrt(max(sigma_sq, 1e-12) * n)
        p = normal_sf(z)
        tail += p
        if p < 1e-16:
            break
    rel = max(abs(U[a] - target) / target for a in in_window)
    neg = max((abs(U[a]) for a in a_list if a <= -10), default=0.0)
    passed = rel < rel_tol and neg < negative_tol
    return RenewalReport(list(a_list), [U[a] for a in a_list], gamma, mu_f, target,
                         rel, neg, truncation, tail, passed)


# ---------------------------------------------------------------------------
# characteristic-function identity (spectral vs exact law vs Monte Carlo)


@dataclass
class CharIdentityReport:
    grid: list
    max_exact_spectral_gap: float
    mc_within_band: bool
    passed: bool


def _char_task(system, orbit, wi, ww, t_grid, n_list, seed, mc_replicates):
    """Per (t, n): the spectral value, the exact law's value, the Monte Carlo
    mean of exp(i t S_n) and its variance; every t reads the environment's one
    Monte Carlo sample of S_n per n (stream 303)."""
    out = {}
    for n, dist in zip(n_list, system.forward_table(orbit, n_list[-1]).laws(n_list)):
        table = system.step_table(orbit, n)
        spec = table.char_function(t_grid)
        draws = table.sample(generator(seed, 303, wi, n), mc_replicates)
        for t, spec_t in zip(t_grid, spec):
            phases = np.exp(1j * t * draws)
            out[(t, n)] = (complex(spec_t), dist.char_function(t), complex(phases.mean()),
                           float((np.abs(phases - phases.mean()) ** 2).mean() / len(draws)))
    return out


def char_identity(system, t_grid, n_list, omega_samples: int, mc_replicates: int,
                  seed: int, strata_depth: int, exact_tol: float,
                  pmap=None) -> CharIdentityReport:
    """Criterion-level identity check of the three characteristic-function routes.

    The spectral value (twisted cocycle against the Gibbs weights) must agree
    with the exact law's Fourier sum to exact_tol pointwise in the annealed
    average; the Monte-Carlo route must sit within its own 4 sigma band.
    """
    n_list = sorted(int(n) for n in n_list)
    ens = _ensemble(system, strata_depth, omega_samples, n_list[-1], seed, 302)
    partials = _per_environment(pmap, _char_task, system, ens, n_list[-1],
                                list(t_grid), n_list, seed, mc_replicates)
    total_w = sum(ww.weight for ww in ens)
    worst = 0.0
    mc_ok = True
    grid = [(float(t), int(n)) for t in t_grid for n in n_list]
    for key in grid:
        spec, four, mc = (_weighted_mean(ens, [p[key][i] for p in partials]) for i in range(3))
        var = sum((ww.weight ** 2) * p[key][3] for ww, p in zip(ens, partials)) \
            / total_w**2
        worst = max(worst, abs(spec - four))
        if abs(mc - four) > 4.0 * math.sqrt(var) + 1e-12:
            mc_ok = False
    passed = worst < exact_tol and mc_ok
    return CharIdentityReport(grid, worst, mc_ok, passed)


# ---------------------------------------------------------------------------
# decay surveys


@dataclass
class DecaySurveyReport:
    t_small: list
    t_large: list
    n_grid: list
    d2_fit: float
    A_fit: float
    small_violation_frac: dict
    u_fit: float
    B0_fit: float
    large_violation_frac: dict
    small_ok: bool
    large_ok: bool


def _decay_task(system, orbit, wi, ww, *grids):
    """One environment's decay rows, from the system (`SymbolicSystem.decay_rows`)."""
    return system.decay_rows(orbit, *grids)


DECAY_ROUNDING_ULPS = 64  # margin of the decay fit's rounding floor, in ulps


def _envelope_fit(s, n, y, n_grid):
    """(c, rate, violation fraction per n, ok) of the envelope y <= c' - rate s n.

    c and twice the rate are the least-squares fit; c' is c calibrated at the
    smallest n to the ensemble's 0.8 quantile; ok asks for a rate above the
    fit's rounding floor and violation fractions that do not grow along
    n_grid.  Each y sums the logs of up to max n rounded factors, so its
    rounding grows with the larger of max |y| and max n; the floor is
    DECAY_ROUNDING_ULPS ulps of that, spread over the largest s n.  Below
    it, the sign of the rate is the sign of a rounding error.
    """
    coef, *_ = np.linalg.lstsq(np.stack([np.ones(len(y)), -s * n], axis=1), y, rcond=None)
    c, rate = float(coef[0]), float(coef[1]) / 2.0  # high-probability envelope rate
    first = n == n_grid[0]
    c_use = c + _quantile(y[first] - (c - rate * s[first] * n_grid[0]), 0.8)
    frac = {m: float(np.mean(y[n == m] > c_use - rate * s[n == m] * m + 1e-12)) for m in n_grid}
    fr = list(frac.values())
    floor = DECAY_ROUNDING_ULPS * np.finfo(float).eps * max(float(np.max(np.abs(y))), n_grid[-1]) \
        / float(np.max(s * n))
    return c, rate, frac, rate > floor and all(b <= a + 1e-12 for a, b in zip(fr, fr[1:]))


def decay_survey(system, t_small, t_large, n_grid, omega_samples: int,
                 seed: int, strata_depth: int, pmap=None) -> DecaySurveyReport:
    """Ensemble decay of |lambda_n(it)| (small t) and cocycle norm surrogates (large t).

    The theory's constants are existential, so the envelopes are fitted from
    the ensemble: gaussian-in-t eigenvalue decay exp(-d2 n t^2) for small t,
    geometric norm decay 4 B0 2^(-u n) on a compact set away from 0.  The
    reported envelope rate is half the least-squares rate (the typical rate
    tracks the full variance, the high-probability envelope its half, which
    holds wherever V_n >= sigma^2 n / 2), with the constant calibrated at the
    smallest n to the ensemble's 0.8 quantile; the fraction of environments
    violating the envelope must fall along the n grid.
    """
    n_grid = sorted(int(n) for n in n_grid)
    n_max = n_grid[-1]
    fwd = 64
    ens = _ensemble(system, strata_depth, omega_samples, n_max + fwd, seed, 140)
    parts = _per_environment(pmap, _decay_task, system, ens, n_max,
                             list(t_small), list(t_large), n_grid, fwd)
    arr = np.array([row for small, _ in parts for row in small])
    logA, d2, small_frac, small_ok = _envelope_fit(arr[:, 0] ** 2, arr[:, 1], arr[:, 2], n_grid)
    larr = np.array([row for _, large in parts for row in large])
    log2_4B0, u_fit, large_frac, large_ok = _envelope_fit(np.ones(len(larr)), larr[:, 0],
                                                          larr[:, 1], n_grid)
    return DecaySurveyReport(list(t_small), list(t_large), list(n_grid), d2,
                             math.exp(logA), small_frac, u_fit,
                             2.0 ** log2_4B0 / 4.0, large_frac, small_ok, large_ok)
