"""Random Markov-chain transition kernels with a two-sided Doeblin property.

Finite stochastic kernels per base symbol, entries pinned inside
[alpha, 1/alpha], drive a Markov chain in random environment.  The twisted
iterates compose in the opposite order from the transfer cocycle
(present factor leftmost), and the kernels are Markov at z = 0.  Along one
environment the chain is a `StepTable`, so the exact laws, the sampler, the
spectral characteristic function and the annealed runners of `limits` are
the symbolic model's own: Doeblin contraction replaces the pairing machinery
as the source of exponential convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_env import BaseSymbolChain, OmegaWindow
from .errors import DoeblinViolated, NotLattice
from .gibbs import LatticeDistribution, StepTable
from .limits import (
    ClassificationReport,
    PeriodicOperatorFamily,
    _spectral_radius_certified,
    classification_grid,
    lattice_classify,
)


@dataclass
class DoeblinFamily:
    """Per-symbol stochastic kernels with two-sided density bounds.

    kernels[s] is row-stochastic with entries in [alpha, 1/alpha] (densities
    w.r.t. counting measure); u[s][x] is the observable read at fiber state x
    under base symbol s.
    """

    kernels: np.ndarray
    u: np.ndarray
    alpha: float
    lattice_h: float | None = None

    @property
    def n_symbols(self) -> int:
        return self.kernels.shape[0]

    @property
    def n_states(self) -> int:
        return self.kernels.shape[1]


def build_doeblin_family(kernels, u, alpha: float, lattice_h: float | None = None,
                         tol: float = 1e-12) -> DoeblinFamily:
    kernels = np.asarray(kernels, dtype=float)
    u = np.asarray(u, dtype=float)
    if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2]:
        raise DoeblinViolated(f"kernels must be (symbols, q, q), got {kernels.shape}")
    q = kernels.shape[1]
    if not 0 < alpha <= 1.0 / q + tol:
        raise DoeblinViolated(f"alpha must lie in (0, 1/q] = (0, {1.0/q:.4f}], got {alpha}")
    if u.shape != kernels.shape[:1] + (q,):
        raise DoeblinViolated(f"u must have shape {(kernels.shape[0], q)}, got {u.shape}")
    rows = kernels.sum(axis=2)
    if np.max(np.abs(rows - 1.0)) > tol:
        raise DoeblinViolated("kernel rows must sum to 1")
    if np.min(kernels) < alpha - tol:
        i = np.unravel_index(np.argmin(kernels), kernels.shape)
        raise DoeblinViolated(
            f"kernel entry {kernels[i]:.6f} at {i} below the Doeblin floor {alpha}")
    if np.max(kernels) > 1.0 / alpha + tol:
        raise DoeblinViolated("kernel entry above 1/alpha")
    fam = DoeblinFamily(kernels / rows[:, :, None], u, float(alpha), lattice_h)
    if lattice_h is not None:
        mult = u / lattice_h
        if np.max(np.abs(mult - np.round(mult))) > 1e-12:
            raise NotLattice("u values are not integer multiples of lattice_h")
    return fam


@dataclass
class DoeblinSystem:
    """Configured chain-in-random-environment instance.

    Offers the system interface of `limits.SymbolicSystem`, so the annealed
    runners run on it unchanged.
    """

    chain: BaseSymbolChain
    family: DoeblinFamily
    periodic_cycle: tuple = (0,)
    initial: np.ndarray | None = None  # None: the invariant family nu(0)

    @property
    def lattice_h(self) -> float | None:
        return self.family.lattice_h

    def orbit(self, window: OmegaWindow, n: int) -> "DoeblinOrbit":
        return DoeblinOrbit(window, n, self)

    def step_table(self, orbit: "DoeblinOrbit", n: int) -> StepTable:
        """S_n = sum_{j<n} u_{omega_j}(xi_j) with the chain run forward.

        The start is xi_0 with increment u_{omega_0}(xi_0); row j moves xi_j
        to xi_{j+1} by the kernel at omega_j and reads the observable at the
        target state, so rank-one kernels give state-independent rows.
        """
        fam = self.family
        s = orbit.symbols[:n]
        shape = (n - 1,) + fam.kernels.shape[1:]
        return StepTable(n, fam.lattice_h, orbit.marginal[0], fam.u[s[0]],
                         fam.kernels[s[:-1]],
                         np.broadcast_to(np.arange(fam.n_states), shape),
                         np.broadcast_to(fam.u[s[1:], None, :], shape))

    # the chain already runs with the dynamics
    forward_table = step_table

    def exact_law(self, orbit: "DoeblinOrbit", n: int) -> LatticeDistribution:
        return self.step_table(orbit, n).law()

    def classify(self, grid_points: int = 97, grid_margin: float = 0.25,
                 J: tuple | None = None) -> ClassificationReport:
        grid = classification_grid(self.family.lattice_h, grid_points, grid_margin, J)
        pf_radii = []
        max_res = 0.0
        cyc = self.periodic_cycle
        n0 = len(cyc)
        for t in grid:
            M = np.eye(self.family.n_states, dtype=complex)
            for i in range(n0):
                s, s_next = cyc[i], cyc[(i + 1) % n0]
                D = np.diag(np.exp(1j * float(t) * self.family.u[s_next]))
                M = M @ (self.family.kernels[s] @ D)
            rho, res = _spectral_radius_certified(M)
            pf_radii.append(rho)
            max_res = max(max_res, res)
        pf = PeriodicOperatorFamily(tuple(cyc), n0, np.asarray(grid),
                                    np.asarray(pf_radii), 1.0, max_res)
        return lattice_classify(pf, self.family.lattice_h)


def compose_reversed(window: OmegaWindow, n: int, z: complex,
                     family: DoeblinFamily) -> np.ndarray:
    """n-th order iterate with the present factor leftmost.

    Factor j is the kernel at symbol omega_j right-multiplied by the twist
    diagonal of the next symbol's observable.
    """
    window.require(0, n)
    q = family.n_states
    M = np.eye(q, dtype=complex if float(np.imag(z)) != 0 else float)
    for j in range(n):
        s, s_next = window.symbol(j), window.symbol(j + 1)
        D = np.diag(np.exp(z * family.u[s_next])) if z != 0 else np.eye(q)
        M = M @ (family.kernels[s] @ D)
    return M


class DoeblinOrbit:
    """Invariant measure family and chain marginals along one window.

    nu[j] and marginal[j] (rows of (n+1, q) arrays) are the laws of the state
    at time j under the invariant family and under the configured start.
    """

    def __init__(self, window: OmegaWindow, n: int, system: DoeblinSystem,
                 warmup: int = 64):
        self.window = window
        self.system = system
        fam = system.family
        self.symbols = window.symbols(0, n)
        kernels = fam.kernels[self.symbols[:n]]
        nu = np.full(fam.n_states, 1.0 / fam.n_states)
        for s in window.symbols(-warmup, -1):
            nu = nu @ fam.kernels[s]
        prods = _prefix_products(kernels)
        self.nu = np.empty((n + 1, fam.n_states))
        self.nu[0] = nu / nu.sum()
        self.nu[1:] = self.nu[0] @ prods
        self.nu[1:] /= self.nu[1:].sum(axis=1, keepdims=True)
        if system.initial is None:
            self.marginal = self.nu
        else:
            self.marginal = np.empty_like(self.nu)
            start = np.asarray(system.initial, dtype=float)
            self.marginal[0] = start / start.sum()
            self.marginal[1:] = self.marginal[0] @ prods
        self._kernels = kernels
        self._variances = None

    def step_means(self, k: int) -> np.ndarray:
        """E u_{omega_j}(xi_j) for j < k."""
        return np.einsum("jx,jx->j", self.marginal[:k], self.system.family.u[self.symbols[:k]])

    def birkhoff_mean(self, k: int) -> float:
        return float(self.step_means(k).sum())

    def birkhoff_variance(self, k: int) -> float:
        """Exact Var(S_k) from one cached pass along the window.

        With the centred observables c_l = u_{omega_l} - E u_{omega_l}(xi_l)
        and the marginals p_l, g_0 = 0 and g_{l+1} = (g_l + p_l c_l) K_l
        carry the earlier steps' centred mass to time l + 1, and Var(S_k) is
        the prefix sum of p_l . c_l^2 + 2 g_l . c_l.
        """
        if self._variances is None:
            n = len(self._kernels)
            centred = self.system.family.u[self.symbols[:n]] - self.step_means(n)[:, None]
            terms = np.einsum("lx,lx->l", self.marginal[:n], centred ** 2)
            g = np.zeros(self.marginal.shape[1])
            for l in range(n):
                terms[l] += 2.0 * (g @ centred[l])
                g = (g + self.marginal[l] * centred[l]) @ self._kernels[l]
            self._variances = np.concatenate([[0.0], np.cumsum(terms)])
        return float(self._variances[k])

    def constant_step_mean(self, n_check: int, tol: float = 1e-9):
        """(is_constant, gamma, max_deviation) of the per-step means along the window."""
        means = self.step_means(n_check)
        gamma = float(np.mean(means))
        max_dev = float(np.max(np.abs(means - gamma)))
        return max_dev <= tol, gamma, max_dev


def _prefix_products(mats: np.ndarray) -> np.ndarray:
    """P_j = mats[0] @ ... @ mats[j] for every j, shape (n, q, q).

    The n factors are cut into about sqrt(n) blocks; all blocks form their
    prefix products at once, then each block is left-multiplied by the
    product of the blocks before it, so the Python loops run O(sqrt(n))
    times over O(n) small products in total.
    """
    n, q = len(mats), mats.shape[1]
    size = max(1, math.isqrt(n))
    blocks = -(-n // size)
    prods = np.empty((blocks * size, q, q))
    prods[:n] = mats
    prods[n:] = np.eye(q)  # identities pad the last block
    prods = prods.reshape(blocks, size, q, q)
    for k in range(1, size):
        prods[:, k] = prods[:, k - 1] @ prods[:, k]
    before = np.empty((blocks, 1, q, q))
    acc = np.eye(q)
    for j in range(blocks):
        before[j, 0] = acc
        acc = acc @ prods[j, -1]
    return (before @ prods).reshape(blocks * size, q, q)[:n]


def doeblin_contraction_coefficient(family: DoeblinFamily) -> float:
    """Worst-case one-step total-variation contraction factor across kernels."""
    worst = 0.0
    for K in family.kernels:
        q = K.shape[0]
        for x in range(q):
            for y in range(q):
                tv = 0.5 * float(np.sum(np.abs(K[x] - K[y])))
                worst = max(worst, tv)
    return worst
