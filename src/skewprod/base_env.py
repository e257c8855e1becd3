"""Two-sided Markov-shift base environment.

The driving system is the shift on S^Z with a strictly positive transition
matrix Q and its stationary law p; theta acts on windows as an index shift.
Strict positivity is what makes every finite cylinder carry positive mass and
the polynomial mixing bounds the limit theorems need hold automatically, so
build_markov_base rejects matrices with zero entries.

Windows are drawn by inverse-cdf sampling, many chains at once:
sample_conditioned_paths stacks the chains of every conditioning prefix, so
a stratified ensemble costs one forward and one backward `_walk`, each a
blocked scan of per-step state maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientWindow,
    InvalidSymbol,
    NoConvergence,
    NonStochasticRow,
    ZeroStateSpace,
    ZeroTransition,
)
from .seeding import generator


@dataclass(frozen=True)
class BaseSymbolChain:
    """Finite-state mixing Markov base: states {0..m-1}, transitions Q, stationary p."""

    transition: np.ndarray
    stationary: np.ndarray
    deterministic: bool = False

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def reverse_kernel(self) -> np.ndarray:
        """Time-reversed transition matrix: Qrev[a, b] = p[b] Q[b, a] / p[a]."""
        p = self.stationary
        return (self.transition.T * p[None, :] / p[:, None]).T


def build_markov_base(Q, tol: float = 1e-9, allow_deterministic: bool = False) -> BaseSymbolChain:
    """Validate Q and solve for its stationary vector, checking the residual.

    Raises ZeroStateSpace for a 1-state base unless allow_deterministic is set
    (deterministic environments are only for oracle tests against classical,
    non-random theory).
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise NonStochasticRow(f"transition matrix must be square, got shape {Q.shape}")
    m = Q.shape[0]
    if m < 1:
        raise ZeroStateSpace("empty state space")
    if m == 1:
        if not allow_deterministic:
            raise ZeroStateSpace(
                "one-state base is deterministic; pass allow_deterministic=True for oracle runs")
        if abs(Q[0, 0] - 1.0) > tol:
            raise NonStochasticRow("1x1 transition matrix must be [[1.0]]")
        return BaseSymbolChain(np.array([[1.0]]), np.array([1.0]), deterministic=True)
    if np.any(Q < 0):
        raise NonStochasticRow("transition matrix has negative entries")
    row_err = np.abs(Q.sum(axis=1) - 1.0)
    if np.any(row_err > tol):
        bad = int(np.argmax(row_err))
        raise NonStochasticRow(f"row {bad} sums to {Q[bad].sum():.12g}, off by more than {tol}")
    if np.any(Q == 0.0):
        i, j = np.argwhere(Q == 0.0)[0]
        raise ZeroTransition(f"Q[{i},{j}] = 0; strictly positive transitions required")
    # renormalize rows exactly so downstream cylinder probabilities are consistent
    Q = Q / Q.sum(axis=1, keepdims=True)
    p = _stationary(Q)
    residual = float(np.max(np.abs(p @ Q - p)))
    if residual > tol:
        raise NoConvergence(f"stationary law residual ||pQ - p||_inf = {residual:.3g} "
                            f"exceeds {tol}")
    if np.any(p <= 0):
        raise NoConvergence("stationary vector has non-positive entries")
    return BaseSymbolChain(Q, p)


def _stationary(Q: np.ndarray) -> np.ndarray:
    """The solution of p(Q - I) = 0 with sum(p) = 1, by Gaussian elimination
    without subtraction (Grassmann-Taksar-Heyman): each eliminated state's
    pivot is the sum of its off-diagonal rates, not 1 - Q[k, k], so a chain
    with nearly absorbing states keeps every entry of p to full precision.
    """
    P = Q.copy()
    m = len(P)
    for k in range(m - 1, 0, -1):  # censor the chain to states 0..k-1
        P[:k, k] /= P[k, :k].sum()
        P[:k, :k] += np.outer(P[:k, k], P[k, :k])
    p = np.ones(m)
    for k in range(1, m):
        p[k] = p[:k] @ P[:k, k]
    return p / p.sum()


class OmegaWindow:
    """Finite view of a base point omega on integer indices lo..hi (lo <= 0 <= hi).

    Index 0 is the present.  theta^j acts as an index shift: shifted(j) views
    the same buffer with symbol(i) = original symbol(i + j).
    """

    def __init__(self, lo: int, hi: int, symbols, n_states: int):
        symbols = np.asarray(symbols, dtype=np.int64)
        if lo > 0 or hi < 0:
            raise InsufficientWindow(f"window [{lo},{hi}] must contain the origin")
        if symbols.shape != (hi - lo + 1,):
            raise InsufficientWindow(
                f"window [{lo},{hi}] needs {hi-lo+1} symbols, got {symbols.shape}")
        if np.any(symbols < 0) or np.any(symbols >= n_states):
            raise InvalidSymbol("window contains symbols outside the base state space")
        self.lo = lo
        self.hi = hi
        self._symbols = symbols
        self.n_states = n_states

    def require(self, lo: int, hi: int):
        if lo < self.lo or hi > self.hi:
            raise InsufficientWindow(
                f"operation needs indices [{lo},{hi}] but window covers [{self.lo},{self.hi}]")

    def symbol(self, i: int) -> int:
        self.require(i, i)
        return int(self._symbols[i - self.lo])

    def symbols(self, lo: int, hi: int) -> np.ndarray:
        self.require(lo, hi)
        return self._symbols[lo - self.lo: hi - self.lo + 1]

    def shifted(self, j: int) -> "OmegaWindow":
        """Window view of theta^j omega (indices shrink by j on the right)."""
        return OmegaWindow(self.lo - j, self.hi - j, self._symbols, self.n_states)

    def __repr__(self):
        return f"OmegaWindow([{self.lo},{self.hi}])"


def _cum_rows(P: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums with the last column pinned to 1 (inverse-cdf sampling)."""
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    return cum


def sample_base_path(chain: BaseSymbolChain, lo: int, hi: int, seed) -> OmegaWindow:
    """Draw omega ~ P restricted to indices lo..hi (stationary Markov window)."""
    rng = seed if isinstance(seed, np.random.Generator) else generator(seed)
    if lo > 0 or hi < 0:
        raise InsufficientWindow("need lo <= 0 <= hi")
    return OmegaWindow(lo, hi, _sample_paths_matrix(chain, hi - lo + 1, 1, rng)[0],
                       chain.n_states)


def sample_conditioned_paths(chain: BaseSymbolChain, prefixes, lo: int, hi: int,
                             count: int, rngs) -> np.ndarray:
    """Sample `count` windows over lo..hi for each row of the prefix stack
    `prefixes` (shape (strata, k)), with symbols at 0..k-1 fixed to that row.

    Indices after the prefix extend forward with Q; indices before 0 extend
    backward with the reversed kernel, so the marginal law of stratum s is
    the stationary chain conditioned on its prefix cylinder.  Stratum s
    draws from rngs[s], its forward block of uniforms and then its backward
    block; the blocks are stacked along the chain axis, so every stratum
    walks in one forward and one backward `_walk`.  Returns an int array of
    shape (strata * count, hi - lo + 1), stratum by stratum.
    """
    prefixes = np.asarray(prefixes, dtype=np.int64)
    strata, k = prefixes.shape
    if lo > 0 or hi < k - 1:
        raise InsufficientWindow("conditioned windows must contain the prefix indices")
    n = hi - lo + 1
    draws = [(rng.random((n - (-lo + k), count)), rng.random((-lo, count))) for rng in rngs]
    out = np.empty((strata, count, n), dtype=np.int64)
    out[:, :, -lo: -lo + k] = prefixes[:, None, :]
    out = out.reshape(strata * count, n)
    us_f = np.concatenate([f for f, _ in draws], axis=1)
    us_b = np.concatenate([b for _, b in draws], axis=1)
    out[:, -lo + k:] = _walk(_cum_rows(chain.transition), out[:, -lo + k - 1], us_f)
    out[:, :-lo] = _walk(_cum_rows(chain.reverse_kernel()), out[:, -lo], us_b)[:, ::-1]
    return out


def _walk(cum: np.ndarray, first: np.ndarray, us: np.ndarray) -> np.ndarray:
    """States after each step of `count` chains started at `first`, shape
    (count, steps): step i moves every chain by inverse-cdf sampling with the
    uniforms us[i] (shape (steps, count)).

    Step i is a map of the state, maps[i, c, x].  The steps are cut into
    about sqrt(steps) blocks; all blocks compose their maps' prefixes at
    once, then the start state is carried from block to block, so the
    Python loops run O(sqrt(steps)) times over O(steps) work in total.
    """
    steps, count = us.shape
    m = len(cum)
    size = max(1, math.isqrt(steps))
    blocks = -(-steps // size)
    maps = np.empty((blocks * size, count, m), dtype=np.intp)
    maps[:steps] = (us[:, :, None, None] > cum[:, :-1]).sum(axis=3)  # cum[:, -1] is 1 > us
    maps[steps:] = np.arange(m)  # identity maps pad the last block
    maps = maps.reshape(blocks, size, count, m)
    for k in range(1, size):  # maps[:, k] becomes the block's first k + 1 steps
        maps[:, k] = np.take_along_axis(maps[:, k], maps[:, k - 1], axis=2)
    starts = np.empty((blocks, count), dtype=np.intp)
    state = np.asarray(first, dtype=np.intp)
    for j in range(blocks):
        starts[j] = state
        state = np.take_along_axis(maps[j, -1], state[:, None], axis=1)[:, 0]
    states = np.take_along_axis(maps, starts[:, None, :, None], axis=3)
    return states.reshape(blocks * size, count)[:steps].T


@dataclass(frozen=True)
class PeriodicBasePoint:
    """Periodic base environment: bi-infinite repetition of `cycle`."""

    cycle: tuple
    n_states: int

    @property
    def period(self) -> int:
        return len(self.cycle)

    def window(self, lo: int, hi: int) -> OmegaWindow:
        n0 = self.period
        syms = [self.cycle[i % n0] for i in range(lo, hi + 1)]
        return OmegaWindow(lo, hi, np.array(syms), self.n_states)

    def symbol(self, i: int) -> int:
        return int(self.cycle[i % self.period])


def periodic_point(chain: BaseSymbolChain, cycle) -> PeriodicBasePoint:
    cycle = tuple(int(c) for c in cycle)
    if len(cycle) < 1:
        raise InvalidSymbol("cycle must be non-empty")
    for c in cycle:
        if not 0 <= c < chain.n_states:
            raise InvalidSymbol(f"cycle symbol {c} not a base state")
    # wrap-around transitions all positive: guaranteed by Q > 0, checked for clarity
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if chain.transition[a, b] <= 0:
            raise ZeroTransition(f"cycle transition {a}->{b} has zero probability")
    return PeriodicBasePoint(cycle, chain.n_states)


def cylinder_probability(chain: BaseSymbolChain, pattern: dict) -> float:
    """Exact stationary probability of {omega: omega_i = pattern[i] for all i}.

    Gaps between constrained indices use Chapman-Kolmogorov powers of Q.
    The empty pattern has probability 1.
    """
    if not pattern:
        return 1.0
    items = sorted((int(i), int(s)) for i, s in pattern.items())
    for _, s in items:
        if not 0 <= s < chain.n_states:
            raise InvalidSymbol(f"pattern symbol {s} not a base state")
    prob = chain.stationary[items[0][1]]
    for (i0, s0), (i1, s1) in zip(items, items[1:]):
        gap = i1 - i0
        Qg = np.linalg.matrix_power(chain.transition, gap)
        prob *= Qg[s0, s1]
    return float(prob)


def _sample_paths_matrix(chain: BaseSymbolChain, length: int, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """`count` independent stationary paths of `length` symbols."""
    m = chain.n_states
    out = np.empty((count, length), dtype=np.int64)
    out[:, 0] = rng.choice(m, size=count, p=chain.stationary)
    out[:, 1:] = _walk(_cum_rows(chain.transition), out[:, 0], rng.random((length - 1, count)))
    return out
