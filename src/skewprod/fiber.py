"""One-sided full-shift fiber, cylinder functions and locally constant potentials.

The fiber space is X = A^N with A = {0, ..., d-1} and the left shift acting
on every fiber.  Distances are rho(x, x') = 2^(-m) where m is the first
index at which x and x' disagree.  Functions that depend on finitely many
coordinates ("cylinder functions" of depth k) are stored as flat arrays
indexed by words in lexicographic order, which makes every transfer operator
an exact d^(r-1) x d^(r-1) matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DepthMismatch,
    DepthShrink,
    InvalidSymbol,
    MissingSymbol,
    NotLattice,
    UnsupportedXi,
)


def word_count(d: int, k: int) -> int:
    return d**k


@lru_cache(maxsize=64)
def word_table(d: int, k: int) -> np.ndarray:
    """All depth-k words over {0..d-1} as an int array of shape (d^k, k).

    Row i spells the word with lexicographic index i (first symbol most
    significant).
    """
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    idx = np.arange(d**k, dtype=np.int64)
    cols = []
    for j in range(k):
        cols.append((idx // d ** (k - 1 - j)) % d)
    return np.stack(cols, axis=1)


@lru_cache(maxsize=64)
def first_disagreement(d: int, k: int) -> np.ndarray:
    """Matrix FD with FD[i, j] = first index where words i and j differ (k if equal)."""
    n = d**k
    if n > 4096:
        raise MemoryError("first_disagreement table limited to d^k <= 4096")
    words = word_table(d, k)
    fd = np.full((n, n), k, dtype=np.int16)
    agree = np.ones((n, n), dtype=bool)
    for m in range(k):
        eq = words[:, None, m] == words[None, :, m]
        newly = agree & ~eq
        fd[newly] = m
        agree &= eq
    return fd


@dataclass(frozen=True)
class FiberModel:
    """Full-shift fiber with its metric and pairing constants.

    alphabet_size: d >= 2 fiber symbols.
    depth: r >= 1, the number of fiber coordinates the potentials read.
    alpha: Hoelder exponent in (0, 1] of the metric 2^(-first disagreement).
    """

    alphabet_size: int
    depth: int
    alpha: float = 1.0

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise InvalidSymbol("fiber alphabet needs d >= 2")
        if self.depth < 1:
            raise DepthMismatch("potential depth r must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise UnsupportedXi("alpha must lie in (0, 1]")

    @property
    def d(self) -> int:
        return self.alphabet_size

    @property
    def r(self) -> int:
        return self.depth

    @property
    def space_dim(self) -> int:
        """Dimension of the invariant function space (depth r-1 cylinders)."""
        return self.d ** (self.r - 1)


class CylinderFunction:
    """Complex-valued function of the first `depth` fiber coordinates."""

    def __init__(self, depth: int, values, d: int):
        values = np.asarray(values)
        if values.shape != (d**depth,):
            raise DepthMismatch(
                f"depth-{depth} cylinder function over {d} symbols needs {d**depth} values, "
                f"got shape {values.shape}"
            )
        self.depth = depth
        self.d = d
        self.values = values.astype(complex) if np.iscomplexobj(values) else values.astype(float)

    @classmethod
    def constant(cls, value, d: int) -> "CylinderFunction":
        return cls(0, np.array([value]), d)

    def extend(self, k_new: int) -> "CylinderFunction":
        if k_new < self.depth:
            raise DepthShrink(f"cannot shrink depth {self.depth} -> {k_new}")
        if k_new == self.depth:
            return self
        reps = self.d ** (k_new - self.depth)
        return CylinderFunction(k_new, np.repeat(self.values, reps), self.d)

    def __repr__(self):
        return f"CylinderFunction(depth={self.depth}, d={self.d})"


def holder_seminorm_values(values: np.ndarray, d: int, depth: int, alpha: float) -> float:
    """v_{alpha,xi} of a depth-k cylinder function at xi = 1/2, metric base 2.

    Witness pairs are words sharing a prefix of length m >= 2 and differing at
    index m; their distance can be realized exactly as 2^-m, so the seminorm is
    max |g(w) - g(w')| * 2^(alpha m) over such pairs.
    """
    return float(holder_seminorm_rows(np.asarray(values)[None], d, depth, alpha)[0])


def holder_seminorm_rows(values: np.ndarray, d: int, depth: int, alpha: float) -> np.ndarray:
    """holder_seminorm_values of every row of a (rows, d^depth) array."""
    best = np.zeros(len(values))
    if depth <= 2:
        return best
    fd = first_disagreement(d, depth)
    weights = np.where((fd >= 2) & (fd < depth), 2.0 ** (alpha * fd.astype(float)), 0.0)
    n = values.shape[1]
    chunk = max(1, 2**22 // max(n * len(values), 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        diff = np.abs(values[:, lo:hi, None] - values[:, None, :])
        best = np.maximum(best, np.max(diff * weights[lo:hi], axis=(1, 2)))
    return best


def holder_norm_vector(values: np.ndarray, d: int, depth: int, alpha: float = 1.0) -> float:
    """Total ||.||_{alpha,xi} norm of a value vector (helper for residuals)."""
    sup = float(np.max(np.abs(values))) if len(values) else 0.0
    return sup + holder_seminorm_values(np.asarray(values), d, depth, alpha)


def holder_norm_rows(values: np.ndarray, d: int, depth: int, alpha: float = 1.0) -> np.ndarray:
    """holder_norm_vector of every row of a (rows, d^depth) array."""
    return row_max_abs(values) + holder_seminorm_rows(values, d, depth, alpha)


def row_max_abs(values: np.ndarray) -> np.ndarray:
    """np.max(np.abs(values), axis=1, initial=0.0) of a 2-D array, NaN
    included, with the maximum taken a column at a time: on a few columns
    that is much faster than a reduction along the short axis."""
    mags = np.abs(values)
    out = np.zeros(len(values))
    for col in mags.T:
        np.maximum(out, col, out=out)
    return out


def lattice_span(u: np.ndarray, lattice_h) -> float | None:
    """lattice_h as a float, checked to be finite and positive with every
    value of u an integer multiple of it; None (no lattice) stays None."""
    if lattice_h is None:
        return None
    h = float(lattice_h)
    if not (math.isfinite(h) and h > 0):
        raise NotLattice(f"lattice_h must be finite and positive, got {lattice_h!r}")
    mult = u / h
    if np.max(np.abs(mult - np.round(mult))) > 1e-12:
        raise NotLattice("u values are not integer multiples of lattice_h")
    return h


class PotentialTable:
    """Locally constant potentials phi, u indexed by (base symbol, depth-r word).

    phi is always indexed by the current base symbol.  u may additionally
    depend on the next base symbol (pair mode, shape (S, S, d^r)); that is the
    smallest table enlargement that realizes base coboundaries exactly.
    lattice_h, when set, asserts every u value is an integer multiple of h.

    The weighted pullback operator with weights e^(phi + z u) maps depth-(r-1)
    cylinder functions to depth-(r-1) cylinder functions, so at every symbol
    key (see `transfer.symbol_keys`) it is an exact D x D matrix, D = d^(r-1).
    Rows are indexed by the output word w (the fiber cylinder one level up the
    orbit), columns by the input word; prepending fiber symbol a to w is one
    branch, and the entry at (w, a.w[:-1]) is its weight.  `key_phi`, `key_u`
    and `targets` give every branch in that [w, a] layout: targets[w, a] is
    the input word a.w[:-1], shape (D, d); the other two are read from phi
    and u on every access, so an edit of either is never stale.
    """

    def __init__(self, phi, u, model: FiberModel, lattice_h: float | None = None,
                 u_next_symbol: bool = False):
        nwords = model.d**model.r
        self.model = model
        self.phi = np.asarray(phi, dtype=float)
        self.u = np.asarray(u, dtype=float)
        self.u_next_symbol = bool(u_next_symbol)
        if self.phi.ndim != 2 or self.phi.shape[1] != nwords:
            raise DepthMismatch(
                f"phi must have shape (n_symbols, {nwords}), got {self.phi.shape}")
        expected_u = (self.phi.shape[0], self.phi.shape[0], nwords) if u_next_symbol \
            else (self.phi.shape[0], nwords)
        if self.u.shape != expected_u:
            raise DepthMismatch(f"u must have shape {expected_u}, got {self.u.shape}")
        self.n_symbols = self.phi.shape[0]
        self.lattice_h = lattice_span(self.u, lattice_h)
        D = model.space_dim
        self._words = np.arange(model.d) * D + np.arange(D)[:, None]  # word a.w at [w, a]
        self.targets = self._words // model.d

    def check_symbol(self, s: int):
        if not 0 <= s < self.n_symbols:
            raise MissingSymbol(f"potential tables cover symbols 0..{self.n_symbols-1}, got {s}")

    @property
    def key_phi(self) -> np.ndarray:
        """phi at every symbol key's branches, shape (keys, D, d); a pair
        key reads phi at its current symbol."""
        rows = np.repeat(self.phi, self.n_symbols, axis=0) if self.u_next_symbol else self.phi
        return rows[:, self._words]

    @property
    def key_u(self) -> np.ndarray:
        """u at every symbol key's branches, shape (keys, D, d)."""
        return self.u.reshape(-1, self.phi.shape[1])[:, self._words]

    def holder_constants(self, alpha: float = 1.0):
        """(max_s v(phi_s), max_s v(u_s)) over depth-r cylinder functions."""
        d, r = self.model.d, self.model.r
        return tuple(float(np.max(holder_seminorm_rows(rows, d, r, alpha)))
                     for rows in (self.phi, self.u.reshape(-1, d**r)))
