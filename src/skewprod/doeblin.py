"""Random Markov-chain transition kernels with a two-sided Doeblin property.

Finite stochastic kernels per base symbol, entries pinned inside
[alpha, 1/alpha], drive a Markov chain in random environment.  The twisted
iterates compose in the opposite order from the transfer cocycle
(present factor leftmost), and the kernels are Markov at z = 0.  Those
iterates (`StepTable.twisted_product`) and the orbit's start law (with no
configured start, one product of the WARMUP kernels before the window origin)
are read from the shared scan `transfer.prefix_products`.  An orbit holds only
its symbols and start law.  Along one environment the chain is a `StepTable`,
so the exact laws, the exact moments, the sampler, the spectral characteristic
function and the annealed runners of `limits` are the symbolic model's own:
Doeblin contraction replaces the pairing machinery as the source of
exponential convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_env import BaseSymbolChain, OmegaWindow, periodic_point
from .errors import DoeblinViolated
from .fiber import lattice_span
from .gibbs import StepTable
from .transfer import full_product

WARMUP = 64  # kernels before the window origin that the uniform law is pushed through
KERNEL_TOL = 1e-12  # rounding slack in the kernels' row sums and Doeblin bounds


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


def build_doeblin_family(kernels, u, alpha: float,
                         lattice_h: float | None = None) -> DoeblinFamily:
    kernels = np.asarray(kernels, dtype=float)
    u = np.asarray(u, dtype=float)
    if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2]:
        raise DoeblinViolated(f"kernels must be (symbols, q, q), got {kernels.shape}")
    q = kernels.shape[1]
    if not 0 < alpha <= 1.0 / q + KERNEL_TOL:
        raise DoeblinViolated(f"alpha must lie in (0, 1/q] = (0, {1.0/q:.4f}], got {alpha}")
    if u.shape != kernels.shape[:1] + (q,):
        raise DoeblinViolated(f"u must have shape {(kernels.shape[0], q)}, got {u.shape}")
    rows = kernels.sum(axis=2)
    if np.max(np.abs(rows - 1.0)) > KERNEL_TOL:
        raise DoeblinViolated("kernel rows must sum to 1")
    if np.min(kernels) < alpha - KERNEL_TOL:
        i = np.unravel_index(np.argmin(kernels), kernels.shape)
        raise DoeblinViolated(
            f"kernel entry {kernels[i]:.6f} at {i} below the Doeblin floor {alpha}")
    if np.max(kernels) > 1.0 / alpha + KERNEL_TOL:
        raise DoeblinViolated("kernel entry above 1/alpha")
    return DoeblinFamily(kernels / rows[:, :, None], u, float(alpha), lattice_span(u, lattice_h))


@dataclass
class DoeblinSystem:
    """Configured chain-in-random-environment instance.

    Offers the system interface of `symbolic.SymbolicSystem` (all but the
    symbolic-only `decay_rows`), so the annealed runners of `limits` run on
    it unchanged.
    """

    chain: BaseSymbolChain
    family: DoeblinFamily
    periodic_cycle: tuple = (0,)
    initial: np.ndarray | None = None  # None: the invariant family at the origin

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
        s = orbit.symbols[:n]
        return StepTable(n, self.family.lattice_h, orbit.start, self.family.u[s[0]],
                         *self._rows(s))

    # the chain already runs with the dynamics
    forward_table = step_table

    def cycle_table(self) -> StepTable:
        """One period omega_0 ... omega_{n0-1} of the periodic base orbit,
        rows as in `step_table` (the last reads u at omega_{n0} = omega_0), from
        the uniform start; `limits.classify` reads its twisted product."""
        n0, q = len(self.periodic_cycle), self.family.n_states
        win = periodic_point(self.chain, self.periodic_cycle).window(0, n0)
        return StepTable(n0, self.family.lattice_h, np.full(q, 1.0 / q), np.zeros(q),
                         *self._rows(win.symbols(0, n0)))

    def _rows(self, s: np.ndarray) -> tuple:
        """(probs, targets, u, keys) of the steps under the symbols s[:-1]: row
        j moves the state by the kernel at s[j] and reads u at s[j + 1] at the
        target state.  Rank-one kernels read no state: row j is keyed by the
        pair (s[j], s[j + 1]) when every kernel's rows are equal."""
        fam = self.family
        shape = (len(s) - 1,) + fam.kernels.shape[1:]
        keys = s[:-1] * fam.n_symbols + s[1:] if np.all(fam.kernels == fam.kernels[:, :1]) else None
        return (fam.kernels[s[:-1]], np.broadcast_to(np.arange(fam.n_states), shape),
                np.broadcast_to(fam.u[s[1:], None, :], shape), keys)


class DoeblinOrbit:
    """The chain's symbols and start law along one window.

    `start` is the law of xi_0: the configured `initial`, normalized, or with
    none the invariant family at the origin, the uniform law pushed through
    the WARMUP kernels before it.  The step tables read the symbols and
    `start`; with `initial` unset their `marginals`, the laws of xi_0, xi_1,
    ..., are the invariant family.
    """

    def __init__(self, window: OmegaWindow, n: int, system: DoeblinSystem):
        self.window = window
        self.system = system
        self.symbols = window.symbols(0, n)
        if system.initial is None:
            # the uniform law times the scaled product: normalizing drops the scale
            kernels = system.family.kernels[window.symbols(-WARMUP, -1)]
            start = full_product(kernels)[0].sum(axis=0)
        else:
            start = np.asarray(system.initial, dtype=float)
        self.start = start / start.sum()
