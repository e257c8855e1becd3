"""The symbolic skew product as a system: base chain, fiber model, potentials.

Along one environment the z = 0 normalized operators are row-action
stochastic, so the dual action along the orbit is a Markov chain on fiber
cylinders run against the dynamics: read backwards, it starts at the Gibbs
weights mu_n and steps by the branch kernels of `SystemOrbit.kernel_arrays`.
`SymbolicSystem` lays that chain out as a `gibbs.StepTable`, backwards
(`step_table`) and, Bayes-reversed, with the dynamics (`forward_table`), and
one period of the periodic base orbit as raw transfer rows (`cycle_table`),
so the annealed runners of `limits` and its classifier run on it as they run
on `doeblin.DoeblinSystem`.  The decay survey's rows, which read the RPF data
at complex z, are its own (`decay_rows`).  The one-call wrappers below build
an orbit and read its backward table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_env import BaseSymbolChain, OmegaWindow, periodic_point
from .fiber import FiberModel, PotentialTable
from .gibbs import LatticeDistribution, StepTable
from .rpf import SystemOrbit, lambda_sequence
from .seeding import generator
from .transfer import holder_operator_norm, prefix_products, symbol_keys


@dataclass
class SymbolicSystem:
    """A configured instance: base chain, fiber model, potential tables.

    The runners of `limits` use any system with this interface: `chain`,
    `lattice_h`, `orbit(window, n)`, `step_table` / `forward_table` (the
    n-step sum as a `StepTable`, read backwards or with the dynamics: the
    exact law is `step_table(orbit, n).law()`, and the prefix m of the
    forward table is S_m, whose `moments` the runners read) and
    `cycle_table` (one period of the periodic base orbit, for `classify`).
    """

    chain: BaseSymbolChain
    model: FiberModel
    pot: PotentialTable
    periodic_cycle: tuple = (0,)

    @property
    def lattice_h(self) -> float | None:
        return self.pot.lattice_h

    def orbit(self, window: OmegaWindow, n: int, **kw) -> SystemOrbit:
        return SystemOrbit(window, 0, n, self.pot, self.model, **kw)

    # the tables read the orbit alone, so the wrappers below call them with no system
    @staticmethod
    def step_table(orbit: SystemOrbit, n: int) -> StepTable:
        """The cylinder chain read backwards: start at the Gibbs weights mu_n,
        rows j = n-1, ..., 0 with the z = 0 branch kernels (keyed when r = 1)."""
        probs, targets, u = (a[:n][::-1] for a in orbit.kernel_arrays())
        keys = orbit.keys[:n][::-1] if orbit.model.r == 1 else None
        return StepTable(n, orbit.pot.lattice_h, orbit.mu[n], np.zeros(len(orbit.mu[n])),
                         probs, targets, u, keys)

    @staticmethod
    def forward_table(orbit: SystemOrbit, n: int) -> StepTable:
        """The same sum run with the dynamics: start at mu_0, rows j = 0, ..., n-1.

        Row j is the Bayes reversal of branch kernel j: from cylinder w the
        trajectory extends by fiber symbol b to (w shifted, b), and the increment
        reads the depth-r word w.b.  For r = 1 no row reads the state, the
        kernels coincide, and the rows are keyed by their symbol keys.
        """
        probs, targets, u = (a[:n] for a in orbit.kernel_arrays())
        d, r, D = orbit.model.d, orbit.model.r, orbit.model.space_dim
        keys = orbit.keys[:n] if r == 1 else None
        if r > 1:
            w = np.arange(D)[:, None]
            w_next = (w * d + np.arange(d)[None, :]) % D
            a = np.broadcast_to(w // d ** (r - 2), w_next.shape)
            mu = orbit.mu[:n + 1]
            # every operand gathered to one layout, and a cylinder of no mass
            # divided by inf (a zero row), not by a masked np.divide: elementwise
            # work on mixed layouts, and row sums along the short axis, cost
            # several times the arithmetic
            mu_now = np.where(mu[:n] > 0, mu[:n], np.inf)[:, np.broadcast_to(w, w_next.shape)]
            fk = probs[:, w_next, a] * mu[1:, w_next] / mu_now
            row = fk[..., 0].copy()
            for b in range(1, d):
                row += fk[..., b]
            row[row == 0] = 1.0
            probs = fk / row[..., None]
            u = u[:, w_next, a]
            targets = np.broadcast_to(w_next, probs.shape)
        return StepTable(n, orbit.pot.lattice_h, orbit.mu[0], np.zeros(D), probs, targets, u,
                         keys)

    def cycle_table(self) -> StepTable:
        """One period of the periodic base orbit as raw transfer rows, from
        the uniform start: row i carries the branch weights e^phi, targets and
        u of factor n0 - 1 - i's symbol key, so the rows multiply to
        M_{n0-1} ... M_0 (pair-mode keys index phi by the current symbol)."""
        pp = periodic_point(self.chain, self.periodic_cycle)
        keys = symbol_keys(pp.window(0, pp.period), self.pot, 0, pp.period)[::-1]
        D, u = self.model.space_dim, self.pot.key_u[keys]
        return StepTable(len(keys), self.pot.lattice_h, np.full(D, 1.0 / D), np.zeros(D),
                         np.exp(self.pot.key_phi[keys]),
                         np.broadcast_to(self.pot.targets, u.shape), u)

    def decay_rows(self, orbit: SystemOrbit, t_small, t_large, n_grid, fwd: int):
        """One environment's rows (t, n, log |lambda_n(it)|) and (n, log2 sup_t surrogate)."""
        small = []
        for t in t_small:
            lam = lambda_sequence(orbit.window, 1j * float(t), n_grid[-1], orbit, fwd=fwd)
            logs = np.cumsum(np.log(np.abs(lam)))
            for n in n_grid:
                small.append((float(t), n, float(logs[n - 1])))
        # the decay statement controls the sup over the compact set J with one
        # rate, so the surveyed quantity is the grid-sup per (environment, n)
        ts = np.asarray(t_large, dtype=float)
        prods, expo = prefix_products(orbit.normalized_matrices(1j * ts).swapaxes(-1, -2))
        large = []
        for n in n_grid:
            sup = -math.inf
            for i, t in enumerate(ts):
                rep = holder_operator_norm(prods[n - 1, i].T, self.model, self.pot, n,
                                           1j * float(t), self.model.alpha,
                                           float(expo[n - 1, i]) * math.log(2.0))
                sup = max(sup, math.log2(max(rep.surrogate, 1e-300)))
            large.append((n, sup))
        return small, large


def exact_Sn_distribution(window: OmegaWindow, n: int, pot: PotentialTable,
                          model: FiberModel,
                          orbit: SystemOrbit | None = None) -> LatticeDistribution:
    """Exact law of the n-step sum under the Gibbs start (the backward step table's DP)."""
    if orbit is None:
        orbit = SystemOrbit(window, 0, n, pot, model)
    return SymbolicSystem.step_table(orbit, n).law()


def char_function_spectral(window: OmegaWindow, n: int, t: float, pot: PotentialTable,
                           model: FiberModel, orbit: SystemOrbit | None = None) -> complex:
    """Quenched characteristic value: Gibbs weights at shift n against the twisted cocycle."""
    if orbit is None:
        orbit = SystemOrbit(window, 0, n, pot, model)
    return complex(SymbolicSystem.step_table(orbit, n).char_function([t])[0])


def sample_Sn(window: OmegaWindow, n: int, seed, pot: PotentialTable, model: FiberModel,
              orbit: SystemOrbit | None = None, replicates: int = 1) -> np.ndarray:
    """Unbiased samples of the n-step sum under the Gibbs start."""
    rng = seed if isinstance(seed, np.random.Generator) else generator(seed)
    if orbit is None:
        orbit = SystemOrbit(window, 0, n, pot, model)
    return SymbolicSystem.step_table(orbit, n).sample(rng, replicates)
