"""Transfer matrices, cocycle products and norm estimates.

At every symbol key the weighted pullback operator is an exact D x D matrix
(`key_matrices`), built from the branch layout of `fiber.PotentialTable`.

`prefix_products` is the package's one matrix-product code: every cocycle,
orbit sweep, twisted product and affine moment recursion reads its products
from that blocked scan.  The one exception is the orbit solve of a cocycle
whose factors are all one matrix, which reads powers of it from a squaring
ladder (`rpf._solve_raw_power`).  Transfer cocycles compose right to left
(the factor at the window origin acts first), so they scan the transposed
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base_env import OmegaWindow
from .fiber import FiberModel, PotentialTable, holder_norm_vector, word_count


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

    One exp of phi + z u over every key's branches (`PotentialTable.key_phi`,
    `key_u`) and z, and one `branch_matrices` call; a z with zero imaginary
    part gives real matrices.
    """
    D = model.space_dim
    phi, u = pot.key_phi, pot.key_u
    zs = np.asarray(z)
    if not np.any(np.imag(zs)):
        zs = np.real(zs).astype(float)
    lead = (len(u),) + (1,) * zs.ndim + u.shape[1:]
    weights = np.exp(phi.reshape(lead) + zs.reshape((1,) + zs.shape + (1, 1)) * u.reshape(lead))
    mats = branch_matrices(weights, np.broadcast_to(pot.targets, u.shape), D)
    return np.moveaxis(mats, 0, zs.ndim)


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
