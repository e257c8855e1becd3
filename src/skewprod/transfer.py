"""Transfer matrices, cocycle products and norm estimates.

The weighted pullback operator with weights e^(phi + z u) maps depth-(r-1)
cylinder functions to depth-(r-1) cylinder functions, so at every base symbol
it is an exact d^(r-1) x d^(r-1) matrix.  Rows are indexed by the output word
(the fiber cylinder one level up the orbit), columns by the input word; the
entry at (w, a.w[:-1]) is the branch weight of prepending symbol a.

`prefix_products` is the package's one matrix-product code: every cocycle,
orbit sweep, twisted product and affine moment recursion reads its products
from that blocked scan.  Transfer cocycles compose right to left (the factor
at the window origin acts first), so they scan the transposed factors.
"""

from __future__ import annotations

import math
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
    """Matrix M[w_out, w_in] from per-branch (weights, targets) arrays of shape (d, D)."""
    return branch_matrices(weights.T[None], targets.T[None], D)[0]


def branch_matrices(weights: np.ndarray, targets: np.ndarray, D: int) -> np.ndarray:
    """Stacked matrices from per-branch step data: out[i, ..., w, c] sums
    weights[i, ..., w, b] over the branches b with targets[i, w, b] = c.

    weights has shape (n, *batch, D, B) and targets (n, D, B); the batch
    axes (a t-grid, say) share the targets of their row.
    """
    onehot = (targets[..., None] == np.arange(D)).astype(weights.dtype)
    return np.einsum("i...wb,iwbc->i...wc", weights, onehot)


def _normalize(P: np.ndarray) -> np.ndarray:
    """Divide each matrix of P, in place, by the power of two that puts its
    infinity norm (largest absolute row sum) in (1/2, 1]; return the
    exponents.  The division is exact, and it leaves stochastic matrices
    (up to rounding in their row sums) as they are."""
    q = P.shape[-1]
    # row sums with the row axis first, so the max runs across whole arrays
    rows = np.abs(P).reshape(-1, q, q).swapaxes(0, 1) @ np.ones(q)
    m, e = np.frexp(rows.max(axis=0).reshape(P.shape[:-2]))
    e = np.maximum(e - (m == 0.5), -1021)  # 2**-e stays finite below normal range
    P *= np.ldexp(1.0, -e)[..., None, None]
    return e


def unscale(P: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """P * 2**expo, exact: the true products from a scan's output."""
    return P * np.ldexp(1.0, expo)[..., None, None]


def prefix_products(factors: np.ndarray):
    """Every prefix P_j = F_0 @ F_1 @ ... @ F_j of stacked factors.

    factors has shape (n, *batch, q, q), real or complex; the product runs
    over the first axis, separately for every batch index.  Returns
    (prods, expo) with prods[j] * 2**expo[j] the true P_j (see `unscale`);
    expo has shape (n, *batch).

    The n factors are cut into blocks of about sqrt(n); all blocks form
    their prefix products at once, then every block after the first is
    left-multiplied by the product of the blocks before it, read from the
    same scan over the block totals, so the Python loops run O(sqrt(n))
    times in all.  Every factor is first divided by a power of two (see
    `_normalize`): the infinity norm is submultiplicative, so no product
    overflows, and the mantissas stay those of the unscaled product.
    """
    factors = np.asarray(factors)
    n, shape = len(factors), factors.shape[1:]
    if n == 0:
        return factors.copy(), np.zeros(factors.shape[:-2], dtype=np.int64)
    size = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    blocks = -(-n // size)
    prods = np.empty((blocks * size,) + shape, dtype=factors.dtype)
    prods[:n] = factors
    prods[n:] = np.eye(shape[-1])  # identities pad the last block
    prods = prods.reshape((blocks, size) + shape)
    expo = np.cumsum(_normalize(prods), axis=1, dtype=np.int64)
    for k in range(1, size):
        prods[:, k] = prods[:, k - 1] @ prods[:, k]
    if blocks > 1:
        before, before_expo = prefix_products(prods[:-1, -1])
        prods[1:] = before[:, None] @ prods[1:]
        expo[1:] += (before_expo + np.cumsum(expo[:-1, -1], axis=0))[:, None]
    return (prods.reshape((blocks * size,) + shape)[:n],
            expo.reshape((blocks * size,) + shape[:-2])[:n])


def full_product(factors: np.ndarray):
    """(F_0 @ ... @ F_{n-1}, exponent) from the scan; the identity when n = 0."""
    eye = np.broadcast_to(np.eye(factors.shape[-1], dtype=factors.dtype), (1,) + factors.shape[1:])
    prods, expo = prefix_products(np.concatenate([eye, factors]))
    return prods[-1], expo[-1]


@dataclass
class TransferMatrix:
    """One operator factor: matrix, parameter z, consumed base symbol(s), kind."""

    matrix: np.ndarray
    z: complex
    symbols: tuple
    kind: str = "raw"  # "raw" (L) or "normalized" (A)


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


def key_matrices(z, pot: PotentialTable, model: FiberModel) -> np.ndarray:
    """Raw transfer matrices of every symbol key at parameter z: shape (keys, D, D),
    or (len(z), keys, D, D) when z is a 1-D array.

    One exp of phi + z u over every key, depth-r word and z, and one
    `branch_matrices` call, give the matrices `build_transfer` builds one at
    a time; a z with zero imaginary part gives real matrices.
    """
    d, D = model.d, model.space_dim
    u = pot.u.reshape(-1, d ** model.r)
    phi = pot.phi[np.arange(len(u)) // pot.n_symbols] if pot.u_next_symbol else pot.phi
    zs = np.asarray(z)
    if not np.any(np.imag(zs)):
        zs = np.real(zs).astype(float)
    words = np.arange(d) * D + np.arange(D)[:, None]  # depth-r word a.w at [w, a]
    lead = (len(u),) + (1,) * zs.ndim + (D, d)
    weights = np.exp(phi[:, words].reshape(lead)
                     + zs.reshape((1,) + zs.shape + (1, 1)) * u[:, words].reshape(lead))
    mats = branch_matrices(weights, np.broadcast_to(words // d, (len(u), D, d)), D)
    return np.moveaxis(mats, 0, zs.ndim)


class MatrixFactory:
    """Raw per-symbol-key matrices at a fixed z, looked up by window position.

    Only |S| (or |S|^2 in pair mode) distinct factors exist at each z
    (`key_matrices`); windows reuse them through position lookups.
    """

    def __init__(self, window: OmegaWindow, z: complex, pot: PotentialTable, model: FiberModel):
        self.window = window
        self.pot = pot
        self.mats = key_matrices(z, pot, model)

    def matrix(self, j: int) -> np.ndarray:
        return self.mats[symbol_keys(self.window, self.pot, j, j + 1)[0]]


@dataclass
class CocycleProduct:
    """Ordered product of transfer factors with its scale ledger.

    `matrix * exp(log_scale)` is the true product; factors are composed
    right-to-left, the factor at the window origin acting first.
    """

    matrix: np.ndarray
    log_scale: float

    def full(self) -> np.ndarray:
        return self.matrix * np.exp(self.log_scale)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.full() @ values


def compose_cocycle(window: OmegaWindow, n: int, z: complex, pot: PotentialTable,
                    model: FiberModel) -> CocycleProduct:
    """n-step raw cocycle product over window indices 0..n-1."""
    if n < 0:
        raise InsufficientWindow("cocycle length must be >= 0")
    factors = key_matrices(z, pot, model)[symbol_keys(window, pot, 0, n)]
    P, expo = full_product(factors.swapaxes(1, 2))
    return CocycleProduct(P.T, float(expo) * math.log(2.0))


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
