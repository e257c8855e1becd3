"""Gibbs measures, exact lattice laws of Birkhoff sums, chains, characteristic functions.

Along one environment, both fiber models reduce to a `StepTable`: a start
law with per-state start increments, then one row of (probability, target
state, increment) branches per step.  For the symbolic model the z = 0
normalized matrices are row-action stochastic, so the dual action along the
orbit is a Markov chain on fiber cylinders run against the dynamics (the
trajectory read backwards); the Doeblin model's chain runs forward.  The
exact lattice law (a dynamic-programming convolution over (state, lattice
value)), the forward (renewal) sweep, the sampler and the spectral
characteristic function are written once against the table, which is what
makes the three characteristic-function routes exactly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_env import OmegaWindow
from .errors import LatticeTooLarge, NonPositive, NotLattice
from .fiber import FiberModel, PotentialTable
from .rpf import RpfTriplet, SystemOrbit
from .seeding import generator

STATE_BUDGET = 10**7


@dataclass
class GibbsMeasure:
    """Probability weights over depth-(r-1) cylinders, mu = h nu normalized."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-12):
            raise NonPositive("Gibbs weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise NonPositive("Gibbs weights must have positive mass")
        self.weights = np.maximum(w, 0.0) / total

    def __call__(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values))


def gibbs_measure(triplet0: RpfTriplet) -> GibbsMeasure:
    if abs(np.imag(triplet0.z)) > 0:
        raise NonPositive("Gibbs measure needs the z = 0 triplet")
    h = np.real(triplet0.raw_h)
    nu = np.real(triplet0.raw_nu)
    if np.any(h <= 0):
        raise NonPositive("eigenfunction must be strictly positive")
    return GibbsMeasure(h * nu)


@dataclass
class LatticeDistribution:
    """Exact law of an n-step sum supported on offset + h * (k0 + i)."""

    h: float
    k0: int
    probs: np.ndarray
    n: int

    def values(self) -> np.ndarray:
        return (self.k0 + np.arange(len(self.probs))) * self.h

    def mean(self) -> float:
        return float(self.values() @ self.probs)

    def variance(self) -> float:
        v = self.values()
        m = v @ self.probs
        return float((v - m) ** 2 @ self.probs)

    def char_function(self, t: float) -> complex:
        return complex(np.exp(1j * t * self.values()) @ self.probs)

    def cdf(self, xs: np.ndarray) -> np.ndarray:
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(self.values(), np.asarray(xs), side="right")
        out = np.zeros(len(np.atleast_1d(xs)))
        pos = idx > 0
        out[pos] = cum[idx[pos] - 1]
        return out

    def prob_at(self, value: float) -> float:
        k = int(round(value / self.h)) - self.k0
        if 0 <= k < len(self.probs):
            return float(self.probs[k])
        return 0.0

    def trim(self, eps: float = 0.0) -> "LatticeDistribution":
        nz = np.nonzero(self.probs > eps)[0]
        if len(nz) == 0:
            return self
        return LatticeDistribution(self.h, self.k0 + int(nz[0]),
                                   self.probs[nz[0]:nz[-1] + 1].copy(), self.n)

    def write_csv(self, path):
        vals = self.values()
        with open(path, "w") as fh:
            fh.write("lattice_value,probability\n")
            for v, p in zip(vals, self.probs):
                fh.write(f"{v:.17g},{p:.17g}\n")


@dataclass
class StepTable:
    """One environment's n-step walk as arrays, rows in processing order.

    The start law puts state w at probability start[w] with the increment
    start_u[w]; row i then moves state w to targets[i, w, b] with probability
    probs[i, w, b], adding u[i, w, b].  probs, targets and u have shape
    (steps, D, B); the first n - steps summands of S_n sit in the start.  h is
    the lattice span of every increment, None when u is not lattice-valued.
    """

    n: int
    h: float | None
    start: np.ndarray
    start_u: np.ndarray
    probs: np.ndarray
    targets: np.ndarray
    u: np.ndarray

    def sweep(self, weights=None, state_budget: int = STATE_BUDGET):
        """Exact lattice DP: yields (m, joint, k0) at the start and after every row.

        joint[w, i] is the mass of state w with S_m at lattice index k0 + i,
        the start optionally weighted by `weights` (the renewal integrand f at
        time zero).  joint views the active value range of a buffer the next
        row overwrites.
        """
        if self.h is None:
            raise NotLattice("exact lattice law needs declared lattice_h")
        k_start = _lattice_ints(self.start_u, self.h)
        k_steps = _lattice_ints(self.u, self.h)
        steps, D, _ = self.probs.shape
        lows = k_start.min() + np.concatenate([[0], np.cumsum(k_steps.min(axis=(1, 2)))])
        highs = k_start.max() + np.concatenate([[0], np.cumsum(k_steps.max(axis=(1, 2)))])
        base = int(lows.min())
        width = int(highs.max()) - base + 1
        if D * width > state_budget:
            raise LatticeTooLarge(
                f"lattice DP needs {D * width} states, budget {state_budget}")
        start = self.start if weights is None else self.start * np.asarray(weights, dtype=float)
        cur = np.zeros((D, width))
        cur[np.arange(D), k_start - base] = start
        nxt = np.zeros_like(cur)
        lo, hi = int(lows[0]) - base, int(highs[0]) - base
        m = self.n - steps
        yield m, cur[:, lo:hi + 1], base + lo
        probs, targets, shifts = self.probs.tolist(), self.targets.tolist(), k_steps.tolist()
        for i in range(steps):
            new_lo, new_hi = int(lows[i + 1]) - base, int(highs[i + 1]) - base
            nxt[:, new_lo:new_hi + 1] = 0.0
            for w in range(D):
                row = cur[w, lo:hi + 1]
                for p, t, k in zip(probs[i][w], targets[i][w], shifts[i][w]):
                    if p != 0.0:
                        nxt[t, lo + k: hi + k + 1] += p * row
            cur, nxt = nxt, cur
            lo, hi = new_lo, new_hi
            m += 1
            yield m, cur[:, lo:hi + 1], base + lo

    def stateless(self) -> bool:
        """True when no row depends on the state (r = 1 fibers, rank-one kernels)."""
        return bool(np.all(self.probs == self.probs[:, :1]) and np.all(self.u == self.u[:, :1]))

    def law(self, state_budget: int = STATE_BUDGET) -> LatticeDistribution:
        """Exact law of S_n (mass 1 up to rounding).

        A stateless table with D > 1 states runs as a one-state table whose
        first row draws the start state and its increment.
        """
        table = self
        D, B = self.probs.shape[1:]
        if D > 1 and self.stateless():
            width = max(B, D)
            pad = [(0, 0), (0, 0), (0, width - B)]
            first = np.pad(self.start, (0, width - D))[None, None]
            first_u = np.pad(self.start_u, (0, width - D), mode="edge")[None, None]
            table = StepTable(self.n, self.h, np.ones(1), np.zeros(1),
                              np.concatenate([first, np.pad(self.probs[:, :1], pad)]),
                              np.zeros((len(self.probs) + 1, 1, width), dtype=np.int64),
                              np.concatenate([first_u, np.pad(self.u[:, :1], pad, mode="edge")]))
        for _, joint, k0 in table.sweep(state_budget=state_budget):
            pass
        return LatticeDistribution(self.h, k0, joint.sum(axis=0), self.n).trim()

    def sample(self, rng, replicates: int = 1) -> np.ndarray:
        """Unbiased draws of S_n.

        When no step depends on the state (r = 1 fibers, rank-one kernels) the
        rows are grouped by their step law and each group is drawn as
        multinomial counts, groups in the order of their last row; otherwise
        the chain runs row by row, vectorized over replicates.
        """
        steps, D, _ = self.probs.shape
        states = np.zeros(replicates, dtype=np.int64) if D == 1 else \
            rng.choice(D, size=replicates, p=self.start)
        totals = self.start_u[states]
        if self.stateless():
            laws = np.concatenate([self.probs[::-1, 0], self.u[::-1, 0]], axis=1)
            _, first, counts = np.unique(laws, axis=0, return_index=True, return_counts=True)
            for g in np.argsort(first):
                i = steps - 1 - first[g]
                draws = rng.multinomial(counts[g], self.probs[i, 0], size=replicates)
                totals += draws @ self.u[i, 0]
            return totals
        cum = np.cumsum(self.probs, axis=2)
        cum[:, :, -1] = 1.0
        for i in range(steps):
            us = rng.random(replicates)
            branch = (us[:, None] > cum[i, states]).sum(axis=1)
            totals += self.u[i, states, branch]
            states = self.targets[i, states, branch]
        return totals

    def char_function(self, ts) -> np.ndarray:
        """Spectral E exp(i t S_n) for each t: the twisted rows applied to 1,
        paired with the start law."""
        ts = np.asarray(ts, dtype=float).reshape(-1, 1, 1)
        vec = np.ones((len(ts), self.probs.shape[1]), dtype=complex)
        for i in range(self.probs.shape[0] - 1, -1, -1):
            twisted = self.probs[i] * np.exp(1j * ts * self.u[i])
            vec = np.sum(twisted * vec[:, self.targets[i]], axis=2)
        return np.sum(self.start * np.exp(1j * ts[:, :, 0] * self.start_u) * vec, axis=1)


def _lattice_ints(values: np.ndarray, h: float) -> np.ndarray:
    k = np.round(values / h).astype(np.int64)
    if np.max(np.abs(values / h - k), initial=0.0) > 1e-12:
        raise NotLattice("u values drifted off the lattice")
    return k


def symbolic_step_table(orbit: SystemOrbit, n: int) -> StepTable:
    """The cylinder chain read backwards: start at the Gibbs weights mu_n,
    rows j = n-1, ..., 0 with the z = 0 branch kernels."""
    probs, targets, u = (a[:n][::-1] for a in orbit.kernel_arrays())
    return StepTable(n, orbit.pot.lattice_h, orbit.mu[n], np.zeros(len(orbit.mu[n])),
                     probs, targets, u)


def symbolic_forward_table(orbit: SystemOrbit, n: int) -> StepTable:
    """The same sum run with the dynamics: start at mu_0, rows j = 0, ..., n-1.

    Row j is the Bayes reversal of branch kernel j: from cylinder w the
    trajectory extends by fiber symbol b to (w shifted, b), and the increment
    reads the depth-r word w.b.  For r = 1 the chain is stateless and the
    kernels coincide.
    """
    probs, targets, u = (a[:n] for a in orbit.kernel_arrays())
    d, r, D = orbit.model.d, orbit.model.r, orbit.model.space_dim
    if r > 1:
        w = np.arange(D)[:, None]
        w_next = (w * d + np.arange(d)[None, :]) % D
        a = np.broadcast_to(w // d ** (r - 2), w_next.shape)
        mu = orbit.mu[:n + 1]
        mu_now = mu[:n, :, None]
        fk = probs[:, w_next, a] * mu[1:, w_next]
        fk = np.divide(fk, mu_now, out=np.zeros_like(fk), where=mu_now > 0)
        row = fk.sum(axis=2, keepdims=True)
        row[row == 0] = 1.0
        probs = fk / row
        u = u[:, w_next, a]
        targets = np.broadcast_to(w_next, probs.shape)
    return StepTable(n, orbit.pot.lattice_h, orbit.mu[0], np.zeros(D), probs, targets, u)


def exact_Sn_distribution(window: OmegaWindow, n: int, pot: PotentialTable,
                          model: FiberModel, orbit: SystemOrbit | None = None,
                          state_budget: int = STATE_BUDGET) -> LatticeDistribution:
    """Exact law of the n-step sum under the Gibbs start (the backward step table's DP)."""
    if orbit is None:
        orbit = SystemOrbit(window, 0, n, pot, model)
    return symbolic_step_table(orbit, n).law(state_budget)


def char_function_spectral(window: OmegaWindow, n: int, t: float, pot: PotentialTable,
                           model: FiberModel, orbit: SystemOrbit | None = None) -> complex:
    """Quenched characteristic value: Gibbs weights at shift n against the twisted cocycle."""
    if orbit is None:
        orbit = SystemOrbit(window, 0, n, pot, model)
    return complex(symbolic_step_table(orbit, n).char_function([t])[0])


def sample_Sn(window: OmegaWindow, n: int, seed, pot: PotentialTable, model: FiberModel,
              orbit: SystemOrbit | None = None, replicates: int = 1) -> np.ndarray:
    """Unbiased samples of the n-step sum under the Gibbs start."""
    rng = seed if isinstance(seed, np.random.Generator) else generator(seed)
    if orbit is None:
        orbit = SystemOrbit(window, 0, n, pot, model)
    return symbolic_step_table(orbit, n).sample(rng, replicates)


# ---------------------------------------------------------------------------
# variance


@dataclass
class VarianceReport:
    n_list: list
    V_n: list                 # per-n exact variances (quadrature pipeline)
    V_n_lattice: list | None  # exact-law variances when lattice tables allow
    sigma_sq: float
    slope_intercept: float
    degenerate: bool
    tail_fractions: dict | None = None


def variance_curve(window: OmegaWindow, n_list, pot: PotentialTable, model: FiberModel,
                   orbit: SystemOrbit | None = None,
                   degenerate_tol: float = 1e-10) -> VarianceReport:
    """Exact V_n along one environment and the fitted asymptotic slope.

    V_n comes from the covariance quadrature; for lattice tables the exact
    law's variance is computed as an independent cross-check.  sigma^2 is the
    slope of V_n against n; a slope below tolerance flags the degenerate
    branch instead of raising.
    """
    n_list = sorted(int(n) for n in n_list)
    if orbit is None:
        orbit = SystemOrbit(window, 0, max(n_list), pot, model)
    V = [orbit.birkhoff_variance(n) for n in n_list]
    V_lat = None
    if pot.lattice_h is not None:
        V_lat = [exact_Sn_distribution(window, n, pot, model, orbit=orbit).variance()
                 for n in n_list]
    ns = np.asarray(n_list, dtype=float)
    vs = np.asarray(V)
    A = np.stack([np.ones_like(ns), ns], axis=1)
    coef, *_ = np.linalg.lstsq(A, vs, rcond=None)
    sigma_sq = float(coef[1])
    if len(n_list) == 1:
        sigma_sq = float(vs[0] / ns[0])
    return VarianceReport(n_list, V, V_lat, sigma_sq, float(coef[0]),
                          degenerate=sigma_sq < degenerate_tol)
