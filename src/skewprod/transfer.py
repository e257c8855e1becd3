"""Transfer matrices, cocycle products and norm estimates.

The weighted pullback operator with weights e^(phi + z u) maps depth-(r-1)
cylinder functions to depth-(r-1) cylinder functions, so at every base symbol
it is an exact d^(r-1) x d^(r-1) matrix.  Rows are indexed by the output word
(the fiber cylinder one level up the orbit), columns by the input word; the
entry at (w, a.w[:-1]) is the branch weight of prepending symbol a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base_env import OmegaWindow
from .errors import DepthMismatch, InsufficientWindow, NonpositiveEigenfunction, ZeroEigenvalue
from .fiber import (
    CylinderFunction,
    FiberModel,
    PotentialTable,
    holder_norm_vector,
    holder_seminorm_values,
    word_count,
)


def branch_arrays(s: int, z: complex, pot: PotentialTable, model: FiberModel,
                  s_next: int | None = None):
    """Per-branch weights and targets of the raw operator at base symbol s.

    Returns (weights, targets) of shape (d, D) with D = d^(r-1): entry [a, w]
    is the weight e^(phi + z u) at the depth-r word a.w, and targets[a, w] is
    the column index of a.w[:-1].
    """
    d, r = model.d, model.r
    D = model.space_dim
    phi = pot.phi_for(s)
    u = pot.u_for(s, s_next)
    if float(np.imag(z)) == 0.0:
        z = float(np.real(z))
    weights = np.empty((d, D), dtype=float if isinstance(z, float) else complex)
    targets = np.empty((d, D), dtype=np.int64)
    base_idx = np.arange(D, dtype=np.int64)
    for a in range(d):
        widx = a * D + base_idx  # depth-r word a.w
        expo = phi[widx] + z * u[widx] if z != 0 else phi[widx]
        weights[a] = np.exp(expo)
        targets[a] = widx // d
    return weights, targets


def assemble_matrix(weights: np.ndarray, targets: np.ndarray, D: int) -> np.ndarray:
    """Matrix M[w_out, w_in] from per-branch (weights, targets) arrays."""
    M = np.zeros((D, D), dtype=weights.dtype)
    rows = np.broadcast_to(np.arange(D), targets.shape)
    np.add.at(M, (rows, targets), weights)
    return M


@dataclass
class TransferMatrix:
    """One operator factor: dim, matrix, parameter z, consumed base symbol(s), kind."""

    matrix: np.ndarray
    z: complex
    symbols: tuple
    kind: str = "raw"  # "raw" (L) or "normalized" (A)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values


def build_transfer(s: int, z: complex, pot: PotentialTable, model: FiberModel,
                   s_next: int | None = None) -> TransferMatrix:
    """Raw transfer matrix at base symbol s and parameter z."""
    if model.r < 1:
        raise DepthMismatch("potential depth r must be >= 1")
    weights, targets = branch_arrays(s, z, pot, model, s_next)
    M = assemble_matrix(weights, targets, model.space_dim)
    sym = (s,) if s_next is None or not pot.u_next_symbol else (s, s_next)
    return TransferMatrix(M, z, sym, "raw")


def symbol_keys(window: OmegaWindow, pot: PotentialTable, lo: int, hi: int) -> np.ndarray:
    """Symbol key of every factor position lo..hi-1, as one int array.

    The key is s_j, or s_j * |S| + s_{j+1} when u reads the next symbol; it
    indexes `key_matrices` and the rows of `pot.u` reshaped to (keys, d^r).
    """
    pair = pot.u_next_symbol
    syms = window.symbols(lo, hi - 1 + pair)
    if syms.size and int(syms.max()) >= pot.n_symbols:
        pot.check_symbol(int(syms.max()))
    return syms[:-1] * pot.n_symbols + syms[1:] if pair else syms


def key_matrices(z: complex, pot: PotentialTable, model: FiberModel) -> np.ndarray:
    """Raw transfer matrices of every symbol key at parameter z: shape (keys, D, D)."""
    S = pot.n_symbols
    if pot.u_next_symbol:
        return np.stack([build_transfer(s, z, pot, model, t).matrix
                         for s in range(S) for t in range(S)])
    return np.stack([build_transfer(s, z, pot, model).matrix for s in range(S)])


class MatrixFactory:
    """Raw per-symbol-key matrices at a fixed z, looked up by window position.

    Only |S| (or |S|^2 in pair mode) distinct factors exist at each z
    (`key_matrices`); windows reuse them through position lookups.
    """

    def __init__(self, window: OmegaWindow, z: complex, pot: PotentialTable, model: FiberModel):
        self.window = window
        self.z = z
        self.pot = pot
        self.model = model
        self.mats = key_matrices(z, pot, model)

    def key_at(self, j: int):
        s = self.window.symbol(j)
        if self.pot.u_next_symbol:
            return (s, self.window.symbol(j + 1))
        return (s,)

    def matrix(self, j: int) -> np.ndarray:
        return self.mats[symbol_keys(self.window, self.pot, j, j + 1)[0]]

    def required_hi(self, n: int) -> int:
        """Highest window index consumed by an n-step cocycle starting at 0."""
        return n - 1 + (1 if self.pot.u_next_symbol else 0)


@dataclass
class CocycleProduct:
    """Ordered product of transfer factors with an overflow-rescaling ledger.

    `matrix * exp(log_scale)` is the true product; factors are composed
    right-to-left, the factor at the window origin acting first.
    """

    n: int
    matrix: np.ndarray
    log_scale: float
    z: complex
    base_symbols: tuple
    kind: str = "raw"

    def full(self) -> np.ndarray:
        return self.matrix * np.exp(self.log_scale)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.full() @ values


def compose_cocycle(window: OmegaWindow, n: int, z: complex, pot: PotentialTable,
                    model: FiberModel, rescale_threshold: float = 1e100) -> CocycleProduct:
    """n-step raw cocycle product over window indices 0..n-1."""
    factory = MatrixFactory(window, z, pot, model)
    if n < 0:
        raise InsufficientWindow("cocycle length must be >= 0")
    window.require(0, max(factory.required_hi(n), 0))
    D = model.space_dim
    P = np.eye(D, dtype=float if float(np.imag(z)) == 0.0 else complex)
    log_scale = 0.0
    for j in range(n):
        P = factory.matrix(j) @ P
        peak = np.max(np.abs(P))
        if peak > rescale_threshold or (peak != 0 and peak < 1.0 / rescale_threshold):
            P = P / peak
            log_scale += np.log(peak)
    syms = tuple(int(s) for s in window.symbols(0, n - 1)) if n > 0 else ()
    return CocycleProduct(n, P, log_scale, z, syms, "raw")


def normalize_operator(raw: TransferMatrix, h_in: np.ndarray, h_out: np.ndarray,
                       lambda0: float) -> TransferMatrix:
    """Normalized operator A from a raw factor and the z=0 triplet data.

    A g = L(g h_in) / (lambda0 h_out); at z = 0 it fixes the constants.
    """
    h_in = np.asarray(h_in, dtype=float)
    h_out = np.asarray(h_out, dtype=float)
    if np.any(h_in <= 0) or np.any(h_out <= 0):
        raise NonpositiveEigenfunction("normalization needs strictly positive eigenfunctions")
    if lambda0 == 0:
        raise ZeroEigenvalue("normalization needs a nonzero eigenvalue")
    A = (raw.matrix * h_in[None, :]) / (lambda0 * h_out[:, None])
    return TransferMatrix(A, raw.z, raw.symbols, "normalized")


def branch_enumeration_apply(window: OmegaWindow, n: int, z: complex, pot: PotentialTable,
                             model: FiberModel, g: CylinderFunction) -> np.ndarray:
    """Brute-force n-step iterate by summing over all d^n preimage branches.

    Independent oracle for the matrix cocycle: enumerates every preimage word
    c of length n, accumulating e^(S_n phi + z S_n u) g evaluated at the
    shifted tail.  Output is the value vector on depth-(r-1) cylinders.
    """
    d, r = model.d, model.r
    D = model.space_dim
    if g.depth > r - 1:
        raise DepthMismatch("oracle expects g of depth <= r-1")
    gv = g.extend(r - 1).values if r > 1 else np.full(1, g.values[0])
    L = n + r - 1
    pair = pot.u_next_symbol
    window.require(0, n - 1 + (1 if pair else 0))
    total_words = d**L if L > 0 else 1
    idx = np.arange(total_words, dtype=np.int64)
    log_weight = np.zeros(total_words, dtype=float if float(np.imag(z)) == 0.0 else complex)
    for j in range(n):
        word_j = (idx // d ** (L - j - r)) % d**r
        s = window.symbol(j)
        s_next = window.symbol(j + 1) if pair else None
        phi = pot.phi_for(s)
        u = pot.u_for(s, s_next)
        log_weight = log_weight + phi[word_j] + (z * u[word_j] if z != 0 else 0.0)
    # g is evaluated at the preimage point, whose depth-(r-1) word is the head
    # of the full branch word c.x
    head = idx // (d ** (L - (r - 1))) if r > 1 else np.zeros(total_words, dtype=np.int64)
    contrib = np.exp(log_weight) * gv[head]
    return contrib.reshape(d**n, D).sum(axis=0)


# ---------------------------------------------------------------------------
# Hoelder operator norms


def norm_test_family(d: int, depth: int, alpha: float = 1.0):
    """Canonical unit-norm test functions: constants, indicators, two-point differences."""
    D = word_count(d, depth)
    fam = [np.ones(D) / 1.0]
    for w in range(D):
        e = np.zeros(D)
        e[w] = 1.0
        fam.append(e / holder_norm_vector(e, d, depth, alpha))
    for w in range(D):
        for w2 in range(w + 1, D):
            e = np.zeros(D)
            e[w], e[w2] = 1.0, -1.0
            fam.append(e / holder_norm_vector(e, d, depth, alpha))
    return fam


@dataclass
class OperatorNormReport:
    surrogate: float
    certified_bound: float
    constants: dict = field(default_factory=dict)


def holder_operator_norm(matrix: np.ndarray, model: FiberModel, pot: PotentialTable,
                         n_steps: int, z: complex, alpha: float = 1.0,
                         log_scale: float = 0.0) -> OperatorNormReport:
    """(surrogate, certified upper bound) bracketing the induced norm.

    The surrogate maximizes ||M g|| over the canonical test family (a lower
    bound on the true induced norm); the certified bound instruments the
    distortion inequality for locally constant weights: contraction 2^(-alpha)
    per step plus a recorded distortion constant.
    """
    d, depth = model.d, model.r - 1
    scale = np.exp(log_scale)
    sur = 0.0
    for gvec in norm_test_family(d, depth, alpha):
        out = matrix @ gvec.astype(matrix.dtype)
        sur = max(sur, holder_norm_vector(out, d, depth, alpha) * scale)
    vphi, vu = pot.holder_constants(alpha)
    z1 = abs(z.real) + abs(z.imag)
    K = (vphi + z1 * vu) / (2.0**alpha - 1.0)
    distortion = 1.0 + K * np.exp(K)
    sup_row = float(np.max(np.abs(matrix).sum(axis=1))) * scale
    contraction = 2.0 ** (-alpha * n_steps)
    bound = sup_row * (contraction + distortion)
    return OperatorNormReport(sur, bound, {
        "K": K, "distortion": distortion, "sup_row_sum": sup_row,
        "contraction": contraction, "n": n_steps,
    })


@dataclass
class LasotaYorkeReport:
    fitted_Q: float
    trials: int
    n: int
    z: complex


def lasota_yorke_check(window: OmegaWindow, n: int, z: complex, pot: PotentialTable,
                       model: FiberModel, trials: int, rng) -> LasotaYorkeReport:
    """Smallest Q making the random Lasota-Yorke inequality hold on `trials` random g."""
    d, depth = model.d, model.r - 1
    D = model.space_dim
    alpha = model.alpha
    coc = compose_cocycle(window, n, z, pot, model)
    M = coc.matrix
    scale = np.exp(coc.log_scale)
    ones_coc = compose_cocycle(window, n, 0.0, pot, model)
    sup_L0_1 = float(np.max(np.abs(ones_coc.apply(np.ones(D)))))
    z1 = abs(z.real) + abs(z.imag)
    sup_snu = n * pot.sup_u()
    prefactor = sup_L0_1 * np.exp(abs(z.real) * sup_snu)
    needed = 0.0
    for _ in range(trials):
        g = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        lhs = holder_norm_vector((M @ g) * scale, d, depth, alpha)
        sup_g = float(np.max(np.abs(g)))
        v_g = holder_seminorm_values(g, d, depth, alpha)
        base = lhs / prefactor - v_g * 2.0 ** (-alpha * n)
        if base > 0:
            needed = max(needed, base / sup_g)
    Q = max(0.0, (needed / (1.0 + z1) - 1.0) / 2.0)
    return LasotaYorkeReport(Q, trials, n, z)
